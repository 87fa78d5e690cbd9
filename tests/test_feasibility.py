"""Existence certificates for unbiased estimators.

Claims pinned here:
    - the verdict is exact: a case is infeasible iff two tables of the
      default witness family reveal == outcomes at every support code and
      have different estimands, the estimands compared as Fractions (bd,
      cbd and crd with every n_a at n <= 8, both estimands, grids with both
      zeros and levels that are not binary fractions, and offset grids)
    - crd with n_a > 1 never reveals a solo row, so the solo estimand is
      infeasible on [L, L + 1] for L from 1e6 to 1e15 and -1e10, n = 3 to
      8, with no warning
    - designs that kill the two pure assignments admit no unbiased rule for
      the mean contrast (infeasible, residual above 1e-6)
    - the fair-coin design is feasible for the mean contrast and for the
      solo-treatment estimand; witnesses reproduce the estimand on every
      family member
    - witnesses equal the corresponding inverse-probability rule up to an
      assignment-indexed offset summing to zero over the support
    - the verdict does not depend on the grid's scale or offset ([0, v] for
      v from 2^-40 to 1e200, [L, L + 1] for L = 3e9, 1e10, -1e10, and the
      subnormal or near-subnormal grids [0, 5e-324], [5e-324, 1e-323] and
      [2.3e-308, 2.4e-308]: bd ATE and crd solo with n_a = 1 feasible, crd
      ATE infeasible, no warning), and a witness or residual past the double
      range raises OverflowError
    - scaling the grid by 2^k, k from -1021 to 1000, scales the residual
      and every witness level and value by 2^k bit for bit, and leaves the
      status, sizes and rank alone (bd, cbd, crd with n_a = 1 and n / 2,
      both estimands, five grids with both zeros among them); grids whose
      n-fold sums overflow decide as the named certificates say (crd (4, 2)
      solo on [0, 1.7e308] infeasible, bd ATE on [1.7e308] feasible), and
      grids spanning more than one scale of doubles ([1e-300, 1e300],
      [0, 5e-324, 1e307]) keep every level as an unknown and a witness key
    - more units than support enumeration allows (ENUMERATION_CAP) or more
      than FEASIBILITY_GRID_CAP grid levels is a capacity error; an empty
      grid, or a grid level that is NaN or infinite, is an invalid argument
      naming the entry
    - above six units every verdict is the named certificate's: for n = 7
      to 10, bd, cbd and crd with every n_a, ATE and solo, on grids with
      both zeros and 1e-310 among the levels, and bd and crd ATE at n = 14;
      at n = 8 the bd solo witness on four levels reproduces the estimand
      through exact_moments on every family table within 1e-10
    - the constraint system built from witness columns by one comparison
      of revealed levels against the distinct levels, with the unknowns
      merged by their pattern of revealing tables, expands through its
      inverse into, bit for bit, the matrix a dict of (code, observed
      vector) keys builds from full-matrix tables, table by table, and no
      two merged columns are equal; the right-hand side (on levels such as
      0.1 and 1/3, whose n-fold mean is not the level, too), the unknowns
      in order (signed zeros included), the rank and the verdict are the
      same; the residual and the witness match the dense least-squares
      solve within 1e-12 of the largest |b| and |x|, merged unknowns get
      equal values, and the witness reproduces every family table's
      estimand within 1e-9 of the largest |b|; the system is pinned at
      n = 8 too, and on subnormal and near-overflow levels (5e-324, 1e-310,
      +-1e307) next to both zeros, where the system alone is compared
    - bd solo on four levels at n = 14 (232 tables, 65,536 unknowns) is
      feasible with rank 52 and peaks below 150 MB under tracemalloc, which
      the dense float matrix alone (122 MB) would break
    - the least-squares solve on merged columns uses the rank threshold of
      the unmerged matrix, eps * max(tables, unknowns)
    - a witness column reads as the full (2^n, n) matrix, read-only, and
      the adversary's table serializes as that matrix does; the adversary's
      mse, floor and target equal, bit for bit, those of both candidate
      tables built as full matrices and reduced through the same exact
      sums (difference in means, the two inverse-probability rules, a
      constant, and HT on ER graphs at k = 1, 2; crd and bd; n = 3 to 14);
      a whole n = 14 adversary call allocates below 1.5 MB, less than one
      (2^14, 14) matrix
    - tools/feasibility_sweep.py prints one JSON line per case
"""

import importlib.util
import json
import math
import tracemalloc
import warnings
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from interference_lab import (
    ATE,
    Arbitrary,
    Assignment,
    CapacityError,
    ConstantEstimator,
    Design,
    DifferenceInMeans,
    ERSpec,
    FeasibilityCertificate,
    HorvitzThompson,
    InvalidArgumentError,
    NeighborhoodIndex,
    PotentialOutcomeTable,
    PureArmIPW,
    SoloTreatedIPW,
    SoloTreatmentEffect,
    default_witness_family,
    enumerate_support,
    estimand_value,
    exact_moments,
    mse_adversary,
    sample_er_graph,
    unbiased_feasibility,
)
from interference_lab.estimators import observed_key
from interference_lab.exact import _support_values, _weighted_square_sum
from interference_lab.feasibility import (
    FEASIBILITY_GRID_CAP,
    _constraint_system,
    _revealed,
)


def test_infeasible_when_pure_vectors_have_no_mass():
    for design in (Design("crd", 3, 1), Design("cbd", 3), Design("cbd", 2), Design("crd", 4, 2)):
        cert = unbiased_feasibility(design, ATE, [0, 1])
        assert not cert.feasible
        assert cert.min_residual > 1e-6
        assert cert.witness is None


def test_crd_residual_value():
    # all constraints for a fixed off-pure level share one left-hand side
    # while the targets range over {-1, 0, 1}: least squares leaves
    # sqrt(2) per level, i.e. residual 2 for the two-level grid.
    cert = unbiased_feasibility(Design("crd", 3, 1), ATE, [0, 1])
    assert cert.min_residual == pytest.approx(2.0, abs=1e-12)


@pytest.mark.parametrize(
    "low, high",
    [(0.0, v) for v in (2.0**-40, 2.0**-30, 1.0, 2.0**20, 2.0**30, 1e200)]
    + [(level, level + 1.0) for level in (3e9, 1e10, -1e10)]
    + [(0.0, 5e-324), (5e-324, 1e-323), (2.3e-308, 2.4e-308)],
)
def test_verdict_does_not_depend_on_the_grid_scale(low, high):
    # unbiasedness is linear in the outcomes, so the verdict on [low, high]
    # is the verdict on [0, 1], whatever the grid's units or offset; the
    # residual is reported in the grid's units.  The targets are computed
    # on the levels scaled by one power of two into [1, 2), so the solo
    # targets (sums of levels over n) never round in the subnormal range
    # and least squares never sees subnormals.
    spread = high - low
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        bd = unbiased_feasibility(Design("bd", 3), ATE, [low, high])
        crd = unbiased_feasibility(Design("crd", 3, 1), ATE, [low, high])
        solo = unbiased_feasibility(Design("crd", 3, 1), SoloTreatmentEffect(), [low, high])
    assert bd.feasible and bd.min_residual <= 1e-9 * spread
    assert solo.feasible and solo.min_residual <= 1e-9 * max(abs(low), abs(high))
    assert not crd.feasible
    assert crd.min_residual == pytest.approx(2.0 * spread, rel=1e-12)


_EQUIVARIANCE_GRIDS = ((0.0, 1.0), (0.0, 0.25, 0.5, 1.5), (-1.0, 1.5), (1.0,), (-0.0, 0.0, 1.25))
_EQUIVARIANCE_DESIGNS = (
    Design("bd", 4), Design("cbd", 5), Design("crd", 5, 1), Design("crd", 6, 3)
)


@pytest.mark.parametrize("grid", _EQUIVARIANCE_GRIDS, ids=repr)
def test_certificates_scale_bit_for_bit_with_the_grid(grid):
    # scaling the grid by 2^k scales the residual and the witness (levels
    # and values) by 2^k exactly and leaves the rest alone, from the
    # subnormal range (k = -1021) to the top of the double range (k = 1000)
    for design in _EQUIVARIANCE_DESIGNS:
        for estimand in (ATE, SoloTreatmentEffect()):
            base = unbiased_feasibility(design, estimand, grid)
            for k in (-1021, -600, -1, 1, 600, 1000):
                scaled = [math.ldexp(level, k) for level in grid]
                cert = unbiased_feasibility(design, estimand, scaled)
                case = (design, estimand, grid, k)
                assert cert.feasible == base.feasible, case
                assert cert[2:5] == base[2:5], case
                assert cert.min_residual == math.ldexp(base.min_residual, k), case
                if not base.feasible:
                    assert cert.witness is None
                    continue
                assert len(cert.witness.mapping) == len(base.witness.mapping)
                pairs = zip(cert.witness.mapping.items(), base.witness.mapping.items())
                for ((code, levels), value), ((base_code, base_levels), base_value) in pairs:
                    assert code == base_code, case
                    assert levels == tuple(math.ldexp(v, k) for v in base_levels), case
                    assert value == math.ldexp(base_value, k), case


def test_grids_at_the_top_of_the_double_range_decide():
    # n copies of a level near 1.7e308 overflow in grid units, not after
    # the scaling: the verdicts are the named certificates'
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        crd = unbiased_feasibility(Design("crd", 4, 2), SoloTreatmentEffect(), [0, 1.7e308])
        bd = unbiased_feasibility(Design("bd", 3), ATE, [1.7e308])
    assert not crd.feasible and crd.min_residual == pytest.approx(8.5e307, rel=1e-12)
    assert bd.feasible and bd.min_residual == 0.0
    assert set(bd.witness.mapping.values()) == {0.0}


@pytest.mark.parametrize(
    "grid, unknowns", [((1e-300, 1e300), 8), ((0.0, 5e-324, 1e307), 12)], ids=["pm300", "sub307"]
)
def test_grids_wider_than_one_scale_keep_their_levels(grid, unknowns):
    # no power of two brings both ends of these grids into the normal range,
    # so the unknowns and the witness keys are the grid's own levels
    cert = unbiased_feasibility(Design("bd", 2), ATE, grid)
    assert cert.feasible and cert.n_unknowns == unknowns
    assert {levels[0] for _, levels in cert.witness.mapping} == set(grid)


def test_residual_past_the_double_range_overflows():
    # the fair-coin witness at n = 6 weighs the level 1e307 by 2^6
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(OverflowError, match="residual past the double range"):
            unbiased_feasibility(Design("bd", 6), ATE, [0, 1e307])


def test_feasible_fair_coin_mean_contrast():
    for n in (2, 3):
        cert = unbiased_feasibility(Design("bd", n), ATE, [0, 1])
        assert cert.feasible
        assert cert.min_residual <= 1e-9
        assert cert.witness is not None


def test_feasible_fair_coin_solo_effect():
    cert = unbiased_feasibility(Design("bd", 3), SoloTreatmentEffect(), [0, 1])
    assert cert.feasible
    assert cert.min_residual <= 1e-9


def _support(design):
    """The support as (assignment, p) pairs."""
    return [
        (Assignment(code, design.n), p)
        for codes, p in enumerate_support(design)
        for code in codes.tolist()
    ]


def _witness_reproduces(cert: FeasibilityCertificate, design, estimand, family):
    for table in map(_full_matrix_table, family):
        expectation = math.fsum(
            p * cert.witness(z, table.observed_vector(z))
            for z, p in _support(design)
        )
        assert expectation == pytest.approx(
            estimand_value(estimand, table), abs=1e-9
        )


def test_witness_reproduces_estimand_on_family():
    design = Design("bd", 3)
    for estimand in (ATE, SoloTreatmentEffect()):
        cert = unbiased_feasibility(design, estimand, [0, 1])
        assert cert.feasible
        _witness_reproduces(
            cert, design, estimand, default_witness_family(3, estimand, (0.0, 1.0))
        )


def test_witness_is_unbiased_on_every_family_table_at_n_8():
    design, estimand, grid = Design("bd", 8), SoloTreatmentEffect(), (0.0, 0.25, 0.5, 1.0)
    cert = unbiased_feasibility(design, estimand, grid)
    assert cert.feasible
    for table in map(_full_matrix_table, default_witness_family(8, estimand, grid)):
        report = exact_moments(cert.witness, design, table, estimand)
        assert abs(report.expectation - estimand_value(estimand, table)) <= 1e-10


def _offset_against(reference, cert, design, level):
    """witness - reference on the constant-level observed vector, summed
    over the support; zero iff the witness is the reference plus a
    zero-sum assignment offset."""
    vec = np.full(design.n, level)
    total = 0.0
    for z, _ in _support(design):
        total += cert.witness(z, vec) - reference(z, vec)
    return total


def test_ate_witness_is_pure_arm_rule_plus_zero_sum_offset():
    design = Design("bd", 3)
    cert = unbiased_feasibility(design, ATE, [0, 1])
    for level in (0.0, 1.0):
        assert _offset_against(PureArmIPW(), cert, design, level) == pytest.approx(
            0.0, abs=1e-9
        )
    # the off-pure witness values at the family's constant vectors sum to zero
    for level in (0.0, 1.0):
        vec = np.full(3, level)
        interior = [
            cert.witness(z, vec)
            for z, _ in _support(design)
            if z.code not in (0, 7)
        ]
        assert math.fsum(interior) == pytest.approx(0.0, abs=1e-9)


def test_solo_witness_is_solo_rule_plus_zero_sum_offset():
    design = Design("bd", 3)
    cert = unbiased_feasibility(design, SoloTreatmentEffect(), [0, 1])
    for level in (0.0, 1.0):
        assert _offset_against(SoloTreatedIPW(), cert, design, level) == pytest.approx(
            0.0, abs=1e-9
        )
    # between grid levels, solo rows move by exactly 2^n / n
    for unit in range(3):
        code = (0b111 ^ (1 << unit))
        lo = cert.witness.mapping[(code, (0.0, 0.0, 0.0))]
        hi = cert.witness.mapping[(code, (1.0, 1.0, 1.0))]
        assert hi - lo == pytest.approx(8 / 3, abs=1e-9)


def _certified(design, estimand):
    """The verdict of the named certificate: the pure-arm rule for bd ATE;
    the solo-row rule wherever the support holds every solo row (bd, cbd,
    and crd with n_a = 1) for the solo estimand; otherwise two family
    tables that reveal the same data on the support but differ in the
    estimand."""
    if design.kind == "bd":
        return True
    return isinstance(estimand, SoloTreatmentEffect) and (design.kind == "cbd" or design.n_a == 1)


def _every_design(n):
    return [Design("bd", n), Design("cbd", n)] + [Design("crd", n, k) for k in range(1, n)]


@pytest.mark.parametrize(
    "cases",
    [
        [
            (design, estimand, grid)
            for design in _every_design(n)
            for estimand in (ATE, SoloTreatmentEffect())
            for grid in ([0, 1], [-0.0, 0.0, 2], [0, 1e-310, 1])
        ]
        for n in range(7, 11)
    ]
    + [[(Design("bd", 14), ATE, [0, 1]), (Design("crd", 14, 7), ATE, [0, 1])]],
    ids=["n7", "n8", "n9", "n10", "n14"],
)
def test_verdicts_follow_the_named_certificates(cases):
    for design, estimand, grid in cases:
        cert = unbiased_feasibility(design, estimand, grid)
        assert cert.feasible == _certified(design, estimand), (design, estimand, grid)


def test_bd_solo_at_n_14_builds_no_dense_matrix():
    # the worst case under the caps: 232 tables and 65,536 unknowns, whose
    # dense float matrix alone would take 122 MB
    tracemalloc.start()
    try:
        cert = unbiased_feasibility(Design("bd", 14), SoloTreatmentEffect(), [0, 0.25, 0.5, 1])
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert cert.feasible and cert.rank == 52
    assert (cert.family_size, cert.n_unknowns) == (232, 65536)
    assert peak < 150e6


def test_solve_uses_the_unmerged_rank_threshold(monkeypatch):
    # merging columns leaves the singular values alone, so the solve keeps
    # the (tables, unknowns) matrix's rank threshold eps * max(tables,
    # unknowns); numpy's default would use the merged column count, here
    # 16 times smaller
    solves = []
    lstsq = np.linalg.lstsq

    def spy(a, b, rcond):
        solves.append((a.shape, rcond))
        return lstsq(a, b, rcond=rcond)

    monkeypatch.setattr(np.linalg, "lstsq", spy)
    cert = unbiased_feasibility(Design("bd", 6), ATE, [0, 1])
    [(shape, rcond)] = solves
    assert (cert.family_size, cert.n_unknowns) == (8, 128) and shape == (8, 6)
    assert rcond == np.finfo(float).eps * 128


def test_validation():
    with pytest.raises(InvalidArgumentError):
        unbiased_feasibility(Design("bd", 3), ATE, [])
    for level in (math.nan, math.inf, -math.inf):
        with pytest.raises(InvalidArgumentError, match=rf"grid\[1\]: .* finite, got {level}"):
            unbiased_feasibility(Design("bd", 3), ATE, [0, level])
    # the size caps are capacity limits, not malformed arguments
    with pytest.raises(CapacityError):
        unbiased_feasibility(Design("bd", 3), ATE, [0, 0.25, 0.5, 0.75, 1.0])
    with pytest.raises(CapacityError):
        unbiased_feasibility(Design("bd", 15), ATE, [0, 1])


def test_witness_keys_come_from_the_grid():
    cert = unbiased_feasibility(Design("bd", 2), ATE, [0, 1])
    for (_, ykey) in cert.witness.mapping:
        assert set(ykey) <= {0.0, 1.0}


def test_certificate_serialization():
    cert = unbiased_feasibility(Design("crd", 3, 1), ATE, [0, 1])
    doc = cert.to_json_dict()
    assert doc["status"] == "infeasible"
    assert doc["family_size"] == 8


def _full_matrix_table(column, m_upper=None):
    """The arbitrary-interference table whose units each store their own
    copy of the outcome column ``column``: a full (2^n, n) matrix."""
    n = len(column).bit_length() - 1
    return PotentialOutcomeTable(Arbitrary(n), np.tile(column, (n, 1)), m_upper=m_upper)


def _reference_system(design, estimand, family):
    """The system as a dict of keys builds it from full-matrix tables: table
    by table, each new (code, observed vector) key gets the next column."""
    support = list(enumerate_support(design))
    p = support[0][1]
    columns = {}
    rows = []
    family = [_full_matrix_table(column) for column in family]
    for table in family:
        cols = []
        for codes, _ in support:
            keys = zip(codes.tolist(), map(observed_key, table.observed(codes).tolist()))
            cols.extend(columns.setdefault(key, len(columns)) for key in keys)
        rows.append(cols)
    a = np.zeros((len(rows), len(columns)))
    for r, cols in enumerate(rows):
        a[r, cols] = p
    b = np.array([estimand_value(estimand, table) for table in family])
    return a, b, columns


# -0.0 and 0.0 are distinct grid levels; the mean of n copies of 0.1, 1/3,
# 7.7 or 3e9 + 0.1 need not be the level, so b's bits are checked
_LEVELS = (-0.0, 0.0, 0.25, 0.5, 1.0, 1.5, 2.0, -1.0, 0.1, 1 / 3, 7.7, 3e9 + 0.1)


def _check_system(design, estimand, family):
    """The merged system against the dict build: its distinct columns
    expand through ``inverse`` into the dict build's matrix, no two of them
    are equal, and the targets and the keys in order (signed zeros as
    first seen) are the same.  Returns ``inverse`` and the dict build."""
    a, inverse, b, unknowns = _constraint_system(design, estimand, family, 0)
    a_ref, b_ref, columns = _reference_system(design, estimand, family)
    assert np.array_equal(a[:, inverse], a_ref)
    assert len(np.unique(a, axis=1).T) == a.shape[1]
    assert np.array_equal(b, b_ref)
    keys = [(int(code), (level,) * design.n) for code, level in unknowns.tolist()]
    assert repr(keys) == repr(list(columns))
    return inverse, a_ref, b_ref, columns


@settings(derandomize=True, max_examples=60, deadline=None)
@given(
    n=st.integers(2, 6),
    kind=st.sampled_from(["crd", "cbd", "bd"]),
    solo=st.booleans(),
    grid=st.lists(
        st.sampled_from(_LEVELS), min_size=1, max_size=FEASIBILITY_GRID_CAP, unique_by=repr
    ),
)
@example(n=6, kind="bd", solo=True, grid=[0.0, 0.25, 1.5, 2.0])
@example(n=6, kind="crd", solo=False, grid=[0.0, 0.5, 1.0, 2.0])
@example(n=4, kind="cbd", solo=True, grid=[-0.0, 1.0, 0.0])
def test_system_equals_the_dict_build(n, kind, solo, grid):
    design = Design("crd", n, n // 2) if kind == "crd" else Design(kind, n)
    estimand = SoloTreatmentEffect() if solo else ATE
    family = default_witness_family(n, estimand, tuple(grid))
    inverse, a_ref, b_ref, columns = _check_system(design, estimand, family)

    # the dense least-squares reference, on the unmerged matrix
    solution, _, rank, _ = np.linalg.lstsq(a_ref, b_ref, rcond=None)
    # judged relative to the largest |b|, reported in the grid's units
    scale = float(np.max(np.abs(b_ref))) or 1.0
    relative = float(np.linalg.norm((a_ref @ solution - b_ref) / scale))
    cert = unbiased_feasibility(design, estimand, grid)
    assert cert.rank == rank
    assert cert.feasible == (relative <= 1e-9)
    assert cert.n_unknowns == len(columns)
    # the merged solve rounds differently from the dense one
    assert abs(cert.min_residual - scale * relative) <= 1e-12 * scale
    if cert.feasible:
        assert repr(list(cert.witness.mapping)) == repr(list(columns))
        x = np.array(list(cert.witness.mapping.values()))
        assert np.abs(x - solution).max() <= 1e-12 * np.abs(solution).max()
        # unknowns no table tells apart get one value
        for group in range(inverse.max() + 1):
            assert len(set(x[inverse == group].tolist())) == 1
        # the witness reproduces every family table's estimand
        assert np.abs(a_ref @ x - b_ref).max() <= 1e-9 * scale
    else:
        assert cert.witness is None


@pytest.mark.parametrize(
    "design,unknowns",
    [(Design("bd", 8), 768), (Design("crd", 8, 3), 168)],
    ids=["bd", "crd"],
)
def test_system_equals_the_dict_build_at_n_8(design, unknowns):
    # the grouping above the hypothesis cases' six units, on both zeros
    estimand = SoloTreatmentEffect()
    family = default_witness_family(design.n, estimand, (-0.0, 0.0, 0.25, 1.5))
    _, a_ref, _, _ = _check_system(design, estimand, family)
    assert a_ref.shape == (144, unknowns)


@pytest.mark.parametrize(
    "design,solo,grid",
    [
        (Design("bd", 8), True, (5e-324, -0.0, 1e307, 0.0)),
        (Design("crd", 7, 3), False, (-1e307, 1e-310, 0.0, -0.0)),
        (Design("cbd", 5), True, (1e-310, 5e-324, -1e307, 1e307)),
        (Design("bd", 3), False, (-0.0, 5e-324)),
        (Design("crd", 4, 1), True, (0.0, 1e-310, -0.0, -5e-324)),
    ],
    ids=["bd8-solo", "crd7-ate", "cbd5-solo", "bd3-ate", "crd4-solo"],
)
def test_system_equals_the_dict_build_at_extreme_levels(design, solo, grid):
    # the system alone, on levels the solve cannot take: subnormals, the
    # largest magnitudes, and both zeros, which group by float comparison
    estimand = SoloTreatmentEffect() if solo else ATE
    _check_system(design, estimand, default_witness_family(design.n, estimand, grid))


_OFFSETS = (1e6, 1e8, 1e10, 1e12, 1e15, -1e10)


def _exact_estimand(estimand, column):
    """The estimand of the witness table ``column`` as a Fraction: the pure
    rows' contrast, or the mean over units of each unit's solo row."""
    n = len(column).bit_length() - 1
    if isinstance(estimand, SoloTreatmentEffect):
        solo = [column[(len(column) - 1) ^ (1 << unit)] for unit in range(n)]
        return sum(map(Fraction, solo)) / n
    return Fraction(column[0]) - Fraction(column[-1])


def _refuted(design, estimand, family):
    """Whether two family tables reveal == outcomes at every support code
    and have different estimands, so that no estimator is unbiased on both."""
    codes = np.concatenate([block for block, _ in enumerate_support(design)])
    revealed = family[:, codes]
    same = (revealed[:, None] == revealed[None]).all(axis=-1)
    values = [_exact_estimand(estimand, column) for column in family]
    return any(values[i] != values[j] for i, j in zip(*np.nonzero(same)))


@st.composite
def _designs(draw):
    n = draw(st.integers(2, 8))
    kind = draw(st.sampled_from(["crd", "cbd", "bd"]))
    return Design(kind, n, draw(st.integers(1, n - 1))) if kind == "crd" else Design(kind, n)


@settings(derandomize=True, max_examples=100, deadline=None)
@given(
    design=_designs(),
    solo=st.booleans(),
    grid=st.one_of(
        st.lists(
            st.sampled_from(_LEVELS), min_size=1, max_size=FEASIBILITY_GRID_CAP, unique_by=repr
        ),
        st.sampled_from([(level, level + 1.0) for level in _OFFSETS]),
    ),
)
@example(design=Design("crd", 4, 2), solo=True, grid=(1e10, 1e10 + 1.0))
@example(design=Design("cbd", 3), solo=False, grid=[-0.0, 0.0])
def test_infeasible_iff_two_family_tables_refute_every_estimator(design, solo, grid):
    # no tolerance: the revealed outcomes compare with ==, the estimands
    # exactly, so a mean that rounds to the same float hides nothing
    estimand = SoloTreatmentEffect() if solo else ATE
    family = default_witness_family(design.n, estimand, tuple(map(float, grid)))
    cert = unbiased_feasibility(design, estimand, grid)
    assert cert.feasible != _refuted(design, estimand, family)
    assert (cert.witness is None) != cert.feasible


@pytest.mark.parametrize("level", _OFFSETS)
def test_crd_solo_is_infeasible_on_offset_grids(level):
    # a solo row assigns arm A to one unit, which crd with n_a > 1 never
    # does, however far the grid sits from zero
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for n in range(3, 9):
            for n_a in range(2, n):
                design = Design("crd", n, n_a)
                cert = unbiased_feasibility(design, SoloTreatmentEffect(), [level, level + 1.0])
                assert not cert.feasible and cert.witness is None, design


def _adversary_columns(n, m):
    """The adversary's two candidate outcome columns, built by hand: M/2
    everywhere, the pure rows at M/2 (target 0) or at M - eps and eps."""
    half, eps = m / 2.0, 1e-6 * m
    columns = []
    for pure in ((half, half), (m - eps, eps)):
        column = np.full(1 << n, half)
        column[0], column[-1] = pure
        columns.append(column)
    return columns


def _er_ht(n, k):
    return HorvitzThompson(NeighborhoodIndex.build(sample_er_graph(ERSpec(n, 0.3), n), k))


@pytest.mark.parametrize("n", [3, 6, 10, 14])
@pytest.mark.parametrize("kind", ["crd", "bd"])
def test_adversary_equals_the_full_matrix_reference(kind, n):
    design = Design("crd", n, n // 2) if kind == "crd" else Design(kind, n)
    m = 1.3
    estimators = [
        DifferenceInMeans(),
        PureArmIPW(),
        SoloTreatedIPW(),
        ConstantEstimator(0.4),
        _er_ht(n, 1),
        _er_ht(n, 2),
    ]
    for estimator in estimators:
        result = mse_adversary(estimator, design, m)
        reference = []
        for column in _adversary_columns(n, m):
            table = _full_matrix_table(column, m)
            theta = estimand_value(ATE, table)
            values, p = _support_values(estimator, design, table.observed)
            reference.append((_weighted_square_sum(values, p, theta), theta))
        mse, theta = max(reference, key=lambda pair: pair[0])
        floor = m * m / 8.0 * (1.0 - 10.0 * (1e-6 * m) / m)
        assert (result.mse, result.floor, result.estimand_target) == (mse, floor, theta)


def test_witness_table_writes_the_full_matrix_json(tmp_path):
    # a constant-0 estimator gets the full-contrast column, a constant-M
    # one the null column
    for value, m, winner in [(0.0, 1.0, 1), (3.0, 3.0, 0)]:
        result = mse_adversary(ConstantEstimator(value), Design("bd", 6), m)
        column = _adversary_columns(6, m)[winner]
        result.table.to_json(tmp_path / "adversary.json")
        _full_matrix_table(column, m).to_json(tmp_path / "full.json")
        assert (tmp_path / "adversary.json").read_bytes() == (tmp_path / "full.json").read_bytes()


def test_witness_table_reads_as_the_full_matrix():
    n = 14
    codes = np.arange(1 << n, dtype=np.int64)
    for column in _adversary_columns(n, 2.0):
        revealed = _revealed(column, n)(codes)
        assert not revealed.flags.writeable
        assert np.array_equal(revealed, _full_matrix_table(column, 2.0).observed(codes))


def test_adversary_tables_allocate_one_column_each():
    # a (2^14, 14) matrix alone is 1.84 MB; the whole call stays below it
    cases = [
        (PureArmIPW(), Design("bd", 14)),
        (DifferenceInMeans(), Design("crd", 14, 7)),
        (DifferenceInMeans(), Design("bd", 14)),
    ]
    for estimator, design in cases:
        tracemalloc.start()
        try:
            mse_adversary(estimator, design, 1.0)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 1.5e6


def test_feasibility_sweep_prints_one_line_per_case(capsys):
    # tools/feasibility_sweep.py on its n <= 3 slice: seven designs, two
    # estimands and every grid, one JSON certificate or refusal per line
    path = Path(__file__).resolve().parents[1] / "tools" / "feasibility_sweep.py"
    spec = importlib.util.spec_from_file_location("feasibility_sweep", path)
    sweep = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(sweep)
    sweep.main(range(2, 4))
    lines = [json.loads(line) for line in capsys.readouterr().out.splitlines()]
    assert len(lines) == 7 * 2 * len(sweep.GRIDS)
    assert all(("status" in line) != ("error" in line) for line in lines)
