"""Existence certificates for unbiased estimators, and worst-case MSE tables.

The verdict is exact: an estimator unbiased on every table exists iff every
assignment code the estimand reads (the two pure codes for the mean
contrast, the n solo rows for the solo-treatment estimand) is in the
support, and then the inverse-probability rule (Horvitz and Thompson 1952)
is one.  If a code it reads is not, two tables that differ only there
reveal the same data but have different estimands.  The default witness
family holds such a pair on every grid of two or more levels (compared as
floats, so -0.0 and 0.0 are one); on a one-level grid every family table is
constant, and so is an unbiased estimator.

The witness is written from that rule, not solved for.  Its keys are every
(support code, grid level) pair, the level as the vector every unit
observes; with |S| the support size (every design law is uniform on its
support, so 1/p), it takes |S| l at the all-A code and -|S| l at the all-B
code for the mean contrast, |S| l / n at each solo row for the solo
estimand, and 0 elsewhere, each rounded once from its exact value.
On a one-level grid it is the constant estimand of the constant table: 0,
or the level.

The family: tables constant at a grid level off the two pure assignments,
with the pure rows sweeping constant vectors over the grid, and for the
solo-treatment estimand one single-treated row perturbed at a time.  Every
family table is constant across units on each assignment row, so it is one
length-2^n outcome column that all n units read, and the family is a
(tables, 2^n) array.  Unbiasedness on it is one linear constraint per table
on an estimator's values at the (code, level) pairs it reveals.  Neither
the verdict nor the witness reads that system: it is built only for the
certificate's ``family_size``, ``n_unknowns`` and ``rank``, which perfbench's
tracing records, and goes with them (ROADMAP item 4).

Grid levels should be exact binary fractions so observed-vector keys never
drift; the shipped defaults use {0, 1}.
"""

from __future__ import annotations

import math
import sys
from itertools import product
from typing import NamedTuple

import numpy as np

from .designs import Design, check_enumerable, enumerate_support
from .errors import (
    CapacityError,
    IdentityViolationError,
    InvalidArgumentError,
    UnsupportedDesignError,
)
from .estimators import Estimator, TabularEstimator
from .exact import _support_values, _weighted_square_sum
from .graphs import Arbitrary
from .outcomes import (
    ATE,
    Estimand,
    PotentialOutcomeTable,
    SoloTreatmentEffect,
    _estimand,
    _estimand_codes,
)

# The adversary's target M is approached within eps = _EPS_REL * M.
_EPS_REL = 1e-6

# The system has |grid|^3 rows (plus n |grid| (|grid| - 1) for the solo
# estimand) and |grid| unknowns per support code, and its pattern comparison
# grows as |grid|^4 2^n.  Four levels bound the worst case, bd solo at the
# enumeration cap n = 14 (232 tables, 65,536 unknowns, rank 52), to about
# 0.13 s and 111 MB peak RSS in a fresh process (2-core x86-64); n itself
# stops with the enumeration.
FEASIBILITY_GRID_CAP = 4


class FeasibilityCertificate(NamedTuple):
    """Outcome of the existence check: the support verdict, the size and
    rank of the unbiasedness system over the default family, and when
    feasible the inverse-probability witness, unbiased on every table up to
    the rounding of each value to a double.
    """

    feasible: bool
    family_size: int
    n_unknowns: int
    rank: int
    witness: TabularEstimator | None

    def to_json_dict(self) -> dict:
        return {
            "status": "feasible" if self.feasible else "infeasible",
            "family_size": self.family_size,
            "n_unknowns": self.n_unknowns,
            "rank": self.rank,
        }


def _witness_column(n: int, off_value: float, rows: dict[int, float]) -> np.ndarray:
    """The witness table constant at ``off_value`` except on the assignment
    rows ``rows`` maps (code -> the row's value), as the one outcome column
    every unit reads: entry c is each unit's outcome under code c."""
    column = np.full(1 << n, off_value, dtype=float)
    for code, value in rows.items():
        column[code] = value
    return column


def _revealed(column: np.ndarray, n: int):
    """The outcome lookup of the witness table ``column`` on n units, shaped
    as ``PotentialOutcomeTable.observed``: each code's entry repeated n
    times, as a read-only view (no estimator writes to its outcomes)."""
    return lambda codes: np.broadcast_to(column[codes, None], (len(codes), n))


def default_witness_family(n: int, estimand: Estimand, grid: tuple[float, ...]) -> np.ndarray:
    """The minimal table family that decides unbiasedness for the estimand,
    one witness column per row."""
    all_b = (1 << n) - 1
    family = [_witness_column(n, y0, {0: a, all_b: b}) for y0, a, b in product(grid, repeat=3)]
    if isinstance(estimand, SoloTreatmentEffect):
        for y0 in grid:
            for unit in range(n):
                for v in grid:
                    if v != y0:
                        family.append(_witness_column(n, y0, {all_b ^ (1 << unit): v}))
    return np.array(family)


def _constraint_system(
    codes: np.ndarray, family: np.ndarray, levels: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """The unbiasedness constraints of the family's witness columns on the
    support ``codes``, with the unknowns that no table tells apart merged:
    ``(a, inverse)``, where ``a[:, inverse]`` is the 0/1 matrix with one row
    per table and one column per unknown, and unknown c * len(levels) + l is
    (codes[c], levels[l]).

    A table reveals one level per support code.  The default family reveals
    every level at every code, so one comparison of each revealed level
    against each distinct level marks the pairs each table reveals; levels
    compare as floats, so -0.0 and 0.0 are one.  ``a`` has one column per
    distinct pattern of revealing tables, in the byte order of the packed
    patterns.
    """
    seen = family.T[codes]  # (codes, tables): each code's revealed levels
    hit = (seen[:, None, :] == levels[:, None]).reshape(-1, len(family))
    packed = np.packbits(hit, axis=1)
    patterns = packed.view(f"V{packed.shape[1]}").ravel()
    _, index, inverse = np.unique(patterns, return_index=True, return_inverse=True)
    return hit[index].T, inverse


def unbiased_feasibility(
    design: Design, estimand: Estimand, outcome_grid
) -> FeasibilityCertificate:
    """Decide whether any estimator is unbiased for the estimand under the
    design, with the inverse-probability witness when one is.  A witness
    value past the double range raises OverflowError."""
    grid = tuple(float(v) for v in outcome_grid)
    if not grid:
        raise InvalidArgumentError("outcome grid must be nonempty")
    for idx, level in enumerate(grid):
        if not math.isfinite(level):
            raise InvalidArgumentError(f"grid[{idx}]: outcome levels must be finite, got {level}")
    if len(grid) > FEASIBILITY_GRID_CAP:
        raise CapacityError(
            f"feasibility grids capped at {FEASIBILITY_GRID_CAP} levels (got {len(grid)})"
        )
    check_enumerable(design)  # before the (tables, 2^n) family is allocated
    n = design.n
    family = default_witness_family(n, estimand, grid)
    codes = np.concatenate([block for block, _ in enumerate_support(design)])
    levels = list(dict.fromkeys(grid))  # -0.0 and 0.0 are one, as first seen
    merged, _ = _constraint_system(codes, family, np.array(levels))
    rank = int(np.linalg.matrix_rank(merged))
    read = _estimand_codes(estimand, n)
    # compared by ==, since np.isin would import numpy.ma
    feasible = len(levels) < 2 or bool((read[:, None] == codes).any(axis=1).all())
    witness = _witness(codes.tolist(), n, levels, estimand) if feasible else None
    return FeasibilityCertificate(feasible, len(family), len(codes) * len(levels), rank, witness)


def _witness(codes: list[int], n: int, levels: list[float], estimand: Estimand) -> TabularEstimator:
    """The inverse-probability witness on the support ``codes`` for the
    family on ``levels``: its value at (code, level l) is w l / d correctly
    rounded, with w = |S| at the all-A code and -|S| at the all-B code for
    the mean contrast (d = 1), w = |S| at each solo row for the solo
    estimand (d = n), and w = 0 elsewhere.  On one level it is the constant
    table's estimand: w = 0 for the mean contrast, w = d = 1 at every code
    for the solo estimand."""
    size, d = len(codes), 1
    solo = isinstance(estimand, SoloTreatmentEffect)
    if len(levels) < 2:
        weights = dict.fromkeys(codes, 1) if solo else {}
    elif solo:
        weights, d = dict.fromkeys(_estimand_codes(estimand, n).tolist(), size), n
    else:
        weights = {0: size, (1 << n) - 1: -size}
    ratios = [level.as_integer_ratio() for level in levels]
    try:
        # int / int rounds the exact quotient once
        values = {
            w: [w * num / (d * den) for num, den in ratios] for w in {0, *weights.values()}
        }
    except OverflowError:
        raise OverflowError(f"feasibility witness past the double range on grid {levels}") from None
    vectors = [(level,) * n for level in levels]
    return TabularEstimator(
        {
            (code, vector): value
            for code in codes
            for vector, value in zip(vectors, values[weights.get(code, 0)])
        }
    )


class AdversaryResult(NamedTuple):
    """Worst-case table found for an estimator, with its enumerated MSE."""

    table: PotentialOutcomeTable
    mse: float
    floor: float
    estimand_target: float

    def to_json_dict(self) -> dict:
        return {
            "mse": self.mse,
            "floor": self.floor,
            "estimand_target": self.estimand_target,
        }


def mse_adversary(
    estimator: Estimator,
    design: Design,
    m_upper: float,
) -> AdversaryResult:
    """Construct outcomes forcing MSE >= M^2/8 (up to the interior offset).

    The table is constant at M/2 off the two pure assignments, so the
    estimator sees identical data on the whole non-pure support; the pure
    rows are then set to push the estimand as far as possible from whatever
    the estimator answers there.  Both candidate targets (0, attained with
    equal pure rows, and M, approached within the offset eps = _EPS_REL * M)
    are enumerated and the worse one for the estimator is returned.

    The estimand is the mean contrast: the construction realizes its
    targets on constant boundary rows, where it inverts in closed form.
    Both candidates are witness columns; only the winner becomes a table.
    An ``m_upper`` whose floor M^2/8 falls below the normal double range is
    refused, since a zero or subnormal floor checks nothing.
    """
    if design.kind not in ("crd", "bd"):
        raise UnsupportedDesignError(
            f"the MSE floor is established for crd and bd, got {design.kind!r}"
        )
    if not m_upper > 0:  # NaN fails too
        raise InvalidArgumentError(f"m_upper: must be positive, got {m_upper}")
    m = float(m_upper)
    if m * m / 8.0 < sys.float_info.min:
        raise InvalidArgumentError(
            f"m_upper: the MSE floor M^2/8 at {m_upper} is below the normal double range"
        )
    check_enumerable(design)  # before the 2^n-entry columns are allocated
    if m == math.inf:  # as the winner's table would refuse it
        raise InvalidArgumentError(f"m_upper: must be finite and positive, got {m_upper}")
    eps = _EPS_REL * m
    half = m / 2.0

    n = design.n
    all_b = (1 << n) - 1
    candidates = (
        _witness_column(n, half, {0: half, all_b: half}),  # target 0 exactly
        _witness_column(n, half, {0: m - eps, all_b: eps}),  # target m - 2 eps
    )
    scored = []
    for column in candidates:
        observed = _revealed(column, n)
        theta = _estimand(ATE, observed, n)
        values, p = _support_values(estimator, design, observed)
        scored.append((_weighted_square_sum(values, p, theta), column, theta))
    # max keeps the first of equal scores, so a tie goes to target 0
    mse, column, theta = max(scored, key=lambda s: s[0])
    floor = m * m / 8.0 * (1.0 - 10.0 * eps / m)
    if mse < floor:
        raise IdentityViolationError(
            f"adversarial MSE {mse} fell below the guaranteed floor {floor}"
        )
    table = PotentialOutcomeTable(Arbitrary(n), [column] * n, m_upper=m)
    return AdversaryResult(table, mse, floor, theta)
