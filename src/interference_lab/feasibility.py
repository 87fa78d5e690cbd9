"""Existence certificates for unbiased estimators, and worst-case MSE tables.

The verdict is exact: an estimator unbiased on every table exists iff every
assignment code the estimand reads (the two pure codes for the mean
contrast, the n solo rows for the solo-treatment estimand) is in the
support, and then an inverse-probability rule (Horvitz and Thompson 1952)
is one: ``PureArmIPW`` for the mean contrast, whose pure codes only bd
holds, and ``SoloTreatedIPW`` of the design for the solo estimand.  If a
code it reads is not, two tables that differ only there reveal the same
data but have different estimands.  The default witness family holds such a
pair on every grid of two or more levels (compared as floats, so -0.0 and
0.0 are one); on a one-level grid every family table is constant, and so is
an unbiased estimator: the constant estimand of the constant table.  The
verdict applies the design's membership test (``designs.in_support``) to
the codes the estimand reads and enumerates nothing, so it decides at any
n up to ``CODE_BITS``.

The family: tables constant at a grid level off the two pure assignments,
with the pure rows sweeping constant vectors over the grid, and for the
solo-treatment estimand one single-treated row perturbed at a time.  Every
family table is constant across units on each assignment row, so it is one
length-2^n outcome column that all n units read, and
``default_witness_family`` lays the family out as a (tables, 2^n) array.
Unbiasedness on it is one linear constraint per table on an estimator's
values at the (support code, level) pairs it reveals.  The certificate
reports that system's size and rank, which perfbench's tracing records, in
closed form; nothing builds the system.
"""

from __future__ import annotations

import math
import sys
from collections import Counter
from itertools import product
from typing import NamedTuple

import numpy as np

from .designs import CODE_BITS, Design, check_enumerable, in_support, support_size
from .errors import CapacityError, IdentityViolationError, InvalidArgumentError
from .estimators import ConstantEstimator, Estimator, PureArmIPW, SoloTreatedIPW
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


class FeasibilityCertificate(NamedTuple):
    """Outcome of the existence check: the support verdict, the size and
    rank of the unbiasedness system over the default family, and when
    feasible the witness, an estimator unbiased on every table:
    ``PureArmIPW``, ``SoloTreatedIPW`` or, on a one-level grid,
    ``ConstantEstimator``.  The JSON form prints the witness as the CLI
    ``estimator`` block that builds it.
    """

    feasible: bool
    family_size: int
    n_unknowns: int
    rank: int
    witness: Estimator | None

    def to_json_dict(self) -> dict:
        doc = {
            "status": "feasible" if self.feasible else "infeasible",
            "family_size": self.family_size,
            "n_unknowns": self.n_unknowns,
            "rank": self.rank,
        }
        if isinstance(self.witness, ConstantEstimator):
            doc["witness"] = {"kind": "constant", "value": self.witness.value}
        elif self.witness is not None:
            kind = "solo_ipw" if isinstance(self.witness, SoloTreatedIPW) else "pure_arm_ipw"
            doc["witness"] = {"kind": kind}
        return doc


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


def unbiased_feasibility(
    design: Design, estimand: Estimand, outcome_grid
) -> FeasibilityCertificate:
    """Decide whether any estimator is unbiased for the estimand under the
    design, with the inverse-probability witness when one is.

    The system over the default family is sized in closed form, with G the
    grid's length, L its distinct levels and |S| the support size.  Its
    blocks are the all-A code, the all-B code and, for the solo estimand,
    each solo row, each counted if it is a distinct support code, plus one
    for the rest of the support if any is left: every family table reveals
    one level on all of a block's codes.  With k blocks:

    - ``family_size`` is G^3, plus for the solo estimand n times the ordered
      pairs of grid entries that differ, G^2 - sum of each level's count
      squared;
    - ``n_unknowns`` is |S| L, one per (support code, distinct level);
    - ``rank`` is 1 + (L - 1) k: the family reveals every combination of
      block levels, and each row's entries sum to one on every block.

    Raises ``CapacityError`` above ``CODE_BITS`` units, whose codes do not
    fit an int64."""
    grid = tuple(float(v) for v in outcome_grid)
    if not grid:
        raise InvalidArgumentError("outcome grid must be nonempty")
    for idx, level in enumerate(grid):
        if not math.isfinite(level):
            raise InvalidArgumentError(f"grid[{idx}]: outcome levels must be finite, got {level}")
    n = design.n
    if n > CODE_BITS:
        raise CapacityError(
            f"feasibility reads int64 assignment codes, so n <= {CODE_BITS} (got n={n})"
        )
    counts = Counter(grid)  # -0.0 and 0.0 are one level, as first seen
    solo = isinstance(estimand, SoloTreatmentEffect)
    read = _estimand_codes(estimand, n)
    family_size = len(grid) ** 3
    if solo:
        family_size += n * (len(grid) ** 2 - sum(m * m for m in counts.values()))
    size = support_size(design)
    blocks = np.array(sorted({0, (1 << n) - 1, *read.tolist()}), dtype=np.int64)
    k = int(in_support(design, blocks).sum())
    k += size > k
    rank = 1 + (len(counts) - 1) * k
    witness: Estimator | None = None
    if len(counts) < 2:
        witness = ConstantEstimator(grid[0] if solo else 0.0)
    elif in_support(design, read).all():
        witness = SoloTreatedIPW(design) if solo else PureArmIPW()
    feasible = witness is not None
    return FeasibilityCertificate(feasible, family_size, size * len(counts), rank, witness)


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

    Every design is taken.  Under crd and cbd, whose supports hold neither
    pure assignment, both candidates reveal M/2 on every support code, so
    the estimator has one law under both; its MSEs against targets 0 and
    M - 2 eps sum to at least (M - 2 eps)^2 / 2, so the worse is at least
    (M - 2 eps)^2 / 4, above M^2/8.  Under every design the enumerated MSE
    is checked against the floor, and a shortfall raises
    ``IdentityViolationError``.

    The estimand is the mean contrast: the construction realizes its
    targets on constant boundary rows, where it inverts in closed form.
    Both candidates are witness columns; only the winner becomes a table.
    An ``m_upper`` whose floor M^2/8 falls below the normal double range is
    refused, since a zero or subnormal floor checks nothing.
    """
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
