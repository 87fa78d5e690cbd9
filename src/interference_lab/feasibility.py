"""Existence certificates for unbiased estimators, and worst-case MSE tables.

The verdict is exact: an estimator unbiased on every table exists iff every
assignment code the estimand reads (the two pure codes for the mean
contrast, the n solo rows for the solo-treatment estimand) is in the
support, and then the inverse-probability rule is one.  If a code it reads
is not, two tables that differ only there reveal the same data but have
different estimands.  The default witness family holds such a pair on every
grid of two or more levels (compared as floats, so -0.0 and 0.0 are one);
on a one-level grid every family table is constant, and so is an unbiased
estimator.

The family: tables constant at a grid level off the two pure assignments,
with the pure rows sweeping constant vectors over the grid, and for the
solo-treatment estimand one single-treated row perturbed at a time.
Unbiasedness on it is one linear constraint per table on the estimator's
values at the (assignment, observed-vector) pairs it reveals; least squares
on that system gives the certificate's minimum-norm witness, its residual,
and the system's size and rank.

Every family table is constant across units on each assignment row, so it
is one length-2^n outcome column that all n units read, and the family is a
(tables, 2^n) array.  The unknowns are the (code, level) pairs the family
reveals, numbered by first appearance (table by table, codes ascending).
The default family reveals every level at every support code, so the
system is one comparison of each table's revealed level against each
distinct level, compared as floats: -0.0 and 0.0 are one unknown that keeps
the key it was first seen with.  Most unknowns are revealed by exactly the
same tables (every code off the pure and solo rows, at each level), so no
dense (tables, unknowns) matrix is built: the unknowns are grouped by their
pattern of revealing tables, and least squares runs on one column per
pattern, weighted by the square root of its member count.  Every member
takes its column's value over that square root, which is the minimum-norm
solution of the unmerged system.  The targets are computed for the whole
family at once.

The targets are computed on the levels scaled by the one power of two that
brings the grid's largest |level| into [1, 2), and the witness and the
residual are scaled back.  Every target is then below 4, so none overflows,
and a grid below 1 is scaled up exactly, so its targets do not round in the
subnormal range.  The unknowns and their keys keep the grid's own levels,
which a shift down would flush on a grid spanning more than 2^1022.

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
# 0.3 s and 110 MB peak RSS (2-core x86-64); n itself stops with the
# enumeration.
FEASIBILITY_GRID_CAP = 4


class FeasibilityCertificate(NamedTuple):
    """Outcome of the existence check: the support verdict, with the
    minimum-norm least-squares witness over the default family when
    feasible.  ``min_residual`` is that solve's residual in the grid's
    units, so on a subnormal grid it can read 0.0 for an infeasible case,
    which the exact verdict makes harmless.
    """

    feasible: bool
    min_residual: float
    family_size: int
    n_unknowns: int
    rank: int
    witness: TabularEstimator | None

    def to_json_dict(self) -> dict:
        return {
            "status": "feasible" if self.feasible else "infeasible",
            "min_residual": self.min_residual,
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


def _revealed(columns: np.ndarray, n: int):
    """The outcome lookup of the witness table ``columns`` on n units, shaped
    as ``PotentialOutcomeTable.observed``: each code's entry repeated n
    times, as a read-only view (no estimator writes to its outcomes).  A
    family of columns, one per row, gives one such lookup per table along
    the leading axis."""
    return lambda codes: np.broadcast_to(
        columns[..., codes, None], columns.shape[:-1] + (len(codes), n)
    )


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
    design: Design, estimand: Estimand, family: np.ndarray, shift: int
) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """The unbiasedness constraints of the family's witness columns, with
    the unknowns that no table tells apart merged: ``(a, inverse, b,
    unknowns)``.  Row j of ``unknowns`` is unknown j's key (the code, then
    the level every unit observes), ``inverse[j]`` its column of ``a``, and
    ``a[:, inverse] x = b`` the system with one row per table and one column
    per unknown, its targets ``b`` in units of 2^-shift.

    A table reveals one level per support code, and each distinct (code,
    level) pair is one unknown.  The default family reveals every level at
    every code, so the unknowns are the support times the distinct levels,
    and one comparison of each revealed level against each distinct level
    marks the pairs each table reveals.  Levels compare as floats, so -0.0
    and 0.0 are one level.  Unknowns are numbered by first appearance:
    table by table in family order, codes ascending within a table, and
    each keeps the level its first table reveals, signed zeros as first
    seen.  ``a`` has one column per distinct pattern of revealing tables,
    in the byte order of the packed patterns.
    """
    blocks = list(enumerate_support(design))
    # Every design law is uniform on its support, so each column of a row
    # has coefficient p.
    p = blocks[0][1]
    codes = np.concatenate([block for block, _ in blocks])
    seen = family.T[codes]  # (codes, tables): each code's revealed levels
    # every level shows at every code, so the first code's tables hold them
    # all; levels are finite (the grid is checked), so != drops the repeats
    levels = np.sort(seen[0])
    levels = levels[np.concatenate(([True], levels[1:] != levels[:-1]))]
    # row c * len(levels) + l: the tables that reveal level l at codes[c]
    hit = (seen[:, None, :] == levels[:, None]).reshape(-1, len(family))
    packed = np.packbits(hit, axis=1)
    patterns = packed.view(f"V{packed.shape[1]}").ravel()
    _, index, inverse = np.unique(patterns, return_index=True, return_inverse=True)
    a = p * hit[index].T
    # members of a column share their first table
    first = a.argmax(axis=0)[inverse]
    order = np.argsort(first, kind="stable")
    position = order // len(levels)  # of each unknown's code in codes
    keys = np.stack([codes[position], seen[position, first[order]]], axis=1)
    revealed = _revealed(family, design.n)
    b = _estimand(estimand, lambda codes: np.ldexp(revealed(codes), shift), design.n)
    return a, inverse[order], b, keys


def unbiased_feasibility(
    design: Design, estimand: Estimand, outcome_grid
) -> FeasibilityCertificate:
    """Decide whether any estimator is unbiased for the estimand under the
    design, and solve for the minimum-norm witness over the default witness
    family built on the grid."""
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
    family = default_witness_family(design.n, estimand, grid)
    # Unbiasedness is linear in the outcomes: the targets are solved on the
    # levels scaled by the 2^shift that brings the largest |level| into [1, 2).
    shift = 1 - math.frexp(max(map(abs, grid)))[1]
    a, inverse, b, unknowns = _constraint_system(design, estimand, family, shift)
    # every support code reveals every level, so the unknowns' codes are
    # the support (compared by ==, since np.isin would import numpy.ma)
    read = _estimand_codes(estimand, design.n)
    feasible = len(set(grid)) < 2 or bool((read[:, None] == unknowns[:, 0]).any(axis=1).all())
    # The residual is measured relative to the largest target |b| and
    # reported in the grid's units.
    top = float(np.max(np.abs(b))) or 1.0
    # Members of a merged column share one value: weighting each column by
    # the square root of its member count k keeps a a^T, hence the rank,
    # the singular values and the minimum-norm solution, whose members each
    # take the column's value over sqrt(k).  rcond is the rank threshold of
    # the unmerged (tables, unknowns) matrix.
    weight = np.sqrt(np.bincount(inverse))
    a *= weight
    rcond = np.finfo(float).eps * max(a.shape[0], len(inverse))
    merged, _, rank, _ = np.linalg.lstsq(a, b, rcond=rcond)
    relative = float(np.linalg.norm((a @ merged - b) / top))
    with np.errstate(over="ignore", invalid="ignore"):  # refused below instead
        solution = np.ldexp((merged / weight)[inverse], -shift)
        residual = float(np.ldexp(top * relative, -shift))
    if not (math.isfinite(residual) and np.isfinite(solution).all()):
        raise OverflowError(
            f"feasibility witness or residual past the double range on grid {list(grid)}"
        )
    witness = None
    if feasible:
        keys = [(int(code), (level,) * design.n) for code, level in unknowns.tolist()]
        witness = TabularEstimator(dict(zip(keys, solution.tolist())))
    return FeasibilityCertificate(
        feasible, residual, len(family), len(inverse), int(rank), witness
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
        theta = float(_estimand(ATE, observed, n))
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
