"""Existence certificates for unbiased estimators, and worst-case MSE tables.

Unbiasedness must hold for *every* admissible outcome table, so a finite
family of tables yields necessary conditions: one linear constraint per
table on the unknown estimator values at the (assignment, observed-vector)
pairs the family can produce.  Solving the stacked system by least squares
either exhibits a witness estimator (tiny residual) or certifies that even
the finite family is already contradictory (large residual), which settles
the infinite problem a fortiori.

The default family is the smallest one that decides the question: tables
constant at a grid level off the two pure assignments, with the pure rows
sweeping constant vectors over the grid.  For the solo-treatment estimand
the family additionally perturbs one single-treated row at a time, since
constant tables cannot distinguish the single-treated assignments.

Every family table is constant across units on each assignment row, so its
n units share one length-2^n outcome column.  The unknowns are the distinct
(code, observed vector) pairs the family reveals, numbered by first
appearance (table by table, codes ascending).  One stable ``np.lexsort``
over the stacked (table, code) key rows groups equal keys, comparing them as
floats, so -0.0 and 0.0 are one unknown that keeps the key it was first seen
with.

Grid levels should be exact binary fractions so observed-vector keys never
drift; the shipped defaults use {0, 1}.
"""

from __future__ import annotations

import math
from itertools import product
from typing import NamedTuple

import numpy as np

from .designs import Design, enumerate_support
from .errors import (
    CapacityError,
    FeasibilityPrecisionError,
    IdentityViolationError,
    InvalidArgumentError,
    UnsupportedDesignError,
)
from .estimators import Estimator, TabularEstimator, observed_key
from .exact import _support_values, _weighted_square_sum
from .graphs import Arbitrary
from .outcomes import (
    ATE,
    Estimand,
    PotentialOutcomeTable,
    SoloTreatmentEffect,
    estimand_value,
)

FEASIBLE_TOL = 1e-9
INFEASIBLE_TOL = 1e-6
_CONDITION_CAP = 1e10
# The adversary's target M is approached within eps = _EPS_REL * M.
_EPS_REL = 1e-6

# Least-squares systems grow as |grid|^3 * 2^n rows/columns; these caps keep
# them tiny and well scaled.
FEASIBILITY_N_CAP = 6
FEASIBILITY_GRID_CAP = 4


class FeasibilityCertificate(NamedTuple):
    """Outcome of the least-squares existence check.

    Feasible certificates carry a tabular witness whose design-expectation
    reproduces the estimand on every family member within the feasibility
    tolerance.  Infeasible certificates report the smallest attainable
    residual over the family, which exceeds the infeasibility tolerance.
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


def _witness_table(
    n: int, off_value: float, rows: dict[int, float], m_upper: float | None = None
) -> PotentialOutcomeTable:
    """The arbitrary-interference table constant at ``off_value`` except on
    the assignment rows ``rows`` maps (code -> the row's constant value).

    Every row is constant across units, so all n units share one length-2^n
    outcome column (tables never write to their values); no (2^n, n) matrix
    is built, and the bounds check scans the column once."""
    column = np.full(1 << n, off_value, dtype=float)
    for code, value in rows.items():
        column[code] = value
    return PotentialOutcomeTable(Arbitrary(n), [column] * n, m_upper=m_upper)


def default_witness_family(
    n: int, estimand: Estimand, grid: tuple[float, ...]
) -> list[PotentialOutcomeTable]:
    """The minimal table family that decides unbiasedness for the estimand."""
    all_b = (1 << n) - 1
    family = [
        _witness_table(n, y0, {0: a, all_b: b}) for y0, a, b in product(grid, repeat=3)
    ]
    if isinstance(estimand, SoloTreatmentEffect):
        for y0 in grid:
            for unit in range(n):
                for v in grid:
                    if v != y0:
                        family.append(_witness_table(n, y0, {all_b ^ (1 << unit): v}))
    return family


def _constraint_system(
    design: Design, estimand: Estimand, family: list[PotentialOutcomeTable]
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The unbiasedness constraints ``a x = b`` of the family: one row per
    table, one column per unknown, and ``unknowns``, whose row j is column
    j's key (the code, then the observed vector).

    A table reveals one observed vector per support code, and each distinct
    (code, observed vector) pair is one unknown, numbered by first
    appearance: table by table in family order, codes ascending within a
    table.  One stable ``np.lexsort`` over the (table, code) key rows puts
    equal keys next to each other; a group starts wherever a sorted row
    differs from the one before it as floats, so -0.0 and 0.0 merge, and
    each unknown keeps its earliest row's key, signed zeros as first seen.
    """
    blocks = list(enumerate_support(design))
    # Every design law is uniform on its support, so each column of a row
    # has coefficient p.
    p = blocks[0][1]
    codes = np.concatenate([block for block, _ in blocks])
    # Codes stay below 2^FEASIBILITY_N_CAP, so column 0 holds them exactly.
    keys = np.empty((len(family), len(codes), design.n + 1))
    keys[:, :, 0] = codes
    for t, table in enumerate(family):
        keys[t, :, 1:] = table.observed(codes)
    keys = keys.reshape(-1, design.n + 1)
    # The sort is stable, so each group's first sorted row is its earliest
    # row. Keys are finite (grid levels are checked), so != groups them.
    order = np.lexsort(keys.T)
    ordered = keys[order]
    start = np.empty(len(keys), dtype=bool)
    start[0] = True
    np.any(ordered[1:] != ordered[:-1], axis=1, out=start[1:])
    first = order[start]
    appearance = np.argsort(first)
    number = np.empty(len(first), dtype=np.intp)
    number[appearance] = np.arange(len(first))
    column = np.empty(len(keys), dtype=np.intp)
    column[order] = number[np.cumsum(start) - 1]
    a = np.zeros((len(family), len(first)))
    a[np.arange(len(family)).repeat(len(codes)), column] = p
    b = np.array([estimand_value(estimand, table) for table in family])
    return a, b, keys[first[appearance]]


def unbiased_feasibility(
    design: Design, estimand: Estimand, outcome_grid
) -> FeasibilityCertificate:
    """Decide whether any estimator is unbiased across the default witness
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
    if design.n > FEASIBILITY_N_CAP:
        raise CapacityError(
            f"feasibility checks capped at n={FEASIBILITY_N_CAP} (got n={design.n})"
        )
    family = default_witness_family(design.n, estimand, grid)
    a, b, unknowns = _constraint_system(design, estimand, family)
    solution, _, rank, singular = np.linalg.lstsq(a, b, rcond=None)
    if rank > 0 and singular[0] / singular[rank - 1] > _CONDITION_CAP:
        raise FeasibilityPrecisionError(
            f"constraint system too ill-conditioned to certify "
            f"(cond ~ {singular[0] / singular[rank - 1]:.2e})"
        )
    residual = float(np.linalg.norm(a @ solution - b))
    if residual <= FEASIBLE_TOL:
        witness = TabularEstimator(
            {
                (int(key[0]), observed_key(key[1:])): value
                for key, value in zip(unknowns.tolist(), solution.tolist())
            }
        )
        return FeasibilityCertificate(
            True, residual, len(family), len(unknowns), int(rank), witness
        )
    if residual > INFEASIBLE_TOL:
        return FeasibilityCertificate(
            False, residual, len(family), len(unknowns), int(rank), None
        )
    raise FeasibilityPrecisionError(
        f"residual {residual:.3e} falls between the feasible ({FEASIBLE_TOL:.0e}) "
        f"and infeasible ({INFEASIBLE_TOL:.0e}) tolerances"
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
    """
    if design.kind not in ("crd", "bd"):
        raise UnsupportedDesignError(
            f"the MSE floor is established for crd and bd, got {design.kind!r}"
        )
    if not m_upper > 0:  # NaN fails too
        raise InvalidArgumentError(f"m_upper: must be positive, got {m_upper}")
    m = float(m_upper)
    eps = _EPS_REL * m
    half = m / 2.0

    all_b = (1 << design.n) - 1
    candidates = (
        _witness_table(design.n, half, {0: half, all_b: half}, m),  # target 0 exactly
        _witness_table(design.n, half, {0: m - eps, all_b: eps}, m),  # target m - 2 eps
    )
    best: tuple[float, PotentialOutcomeTable, float] | None = None
    for table in candidates:
        theta = estimand_value(ATE, table)
        values, p = _support_values(estimator, design, table)
        mse = _weighted_square_sum(values, p, theta)
        if best is None or mse > best[0]:
            best = (mse, table, theta)
    assert best is not None
    mse, table, theta = best
    floor = m * m / 8.0 * (1.0 - 10.0 * eps / m)
    if mse < floor:
        raise IdentityViolationError(
            f"adversarial MSE {mse} fell below the guaranteed floor {floor}"
        )
    return AdversaryResult(table, mse, floor, theta)
