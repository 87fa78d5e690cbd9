"""Existence certificates for unbiased estimators.

Claims pinned here:
    - designs that kill the two pure assignments admit no unbiased rule for
      the mean contrast (infeasible, residual well above tolerance)
    - the fair-coin design is feasible for the mean contrast and for the
      solo-treatment estimand; witnesses reproduce the estimand on every
      family member
    - witnesses equal the corresponding inverse-probability rule up to an
      assignment-indexed offset summing to zero over the support
    - more than FEASIBILITY_N_CAP units or FEASIBILITY_GRID_CAP grid levels
      is a capacity error; an empty grid, or a grid level that is NaN or
      infinite, is an invalid argument naming the entry
    - the constraint system built by one stable np.lexsort equals, bit for
      bit, the one a dict of (code, observed vector) keys builds table by
      table: the same matrix, right-hand side, unknowns in order (signed
      zeros included), rank, residual and witness; the grouping is pinned
      above the size cap too, at n = 8
    - a witness table's n units share one outcome column, which reads and
      serializes exactly as the full (2^n, n) matrix; both n = 14 adversary
      tables together stay below 0.5 MB of allocations
"""

import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from interference_lab import (
    ATE,
    Arbitrary,
    Assignment,
    CapacityError,
    Design,
    FeasibilityCertificate,
    FeasibilityPrecisionError,
    InvalidArgumentError,
    PotentialOutcomeTable,
    PureArmIPW,
    SoloTreatedIPW,
    SoloTreatmentEffect,
    default_witness_family,
    enumerate_support,
    estimand_value,
    unbiased_feasibility,
)
from interference_lab.estimators import observed_key
from interference_lab.feasibility import (
    _CONDITION_CAP,
    FEASIBILITY_GRID_CAP,
    FEASIBLE_TOL,
    INFEASIBLE_TOL,
    _constraint_system,
    _witness_table,
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
    for table in family:
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
        unbiased_feasibility(Design("bd", 7), ATE, [0, 1])


def test_witness_keys_come_from_the_grid():
    cert = unbiased_feasibility(Design("bd", 2), ATE, [0, 1])
    for (_, ykey) in cert.witness.mapping:
        assert set(ykey) <= {0.0, 1.0}


def test_certificate_serialization():
    cert = unbiased_feasibility(Design("crd", 3, 1), ATE, [0, 1])
    doc = cert.to_json_dict()
    assert doc["status"] == "infeasible"
    assert doc["family_size"] == 8


def _reference_system(design, estimand, family):
    """The system as a dict of keys builds it: table by table, each new
    (code, observed vector) key gets the next column."""
    support = list(enumerate_support(design))
    p = support[0][1]
    columns = {}
    rows = []
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


# dyadic levels, so keys are exact; -0.0 and 0.0 are distinct grid levels
_LEVELS = (-0.0, 0.0, 0.25, 0.5, 1.0, 1.5, 2.0, -1.0)


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
    a, b, unknowns = _constraint_system(design, estimand, family)
    a_ref, b_ref, columns = _reference_system(design, estimand, family)
    assert np.array_equal(a, a_ref)
    assert np.array_equal(b, b_ref)
    keys = [(int(row[0]), tuple(row[1:])) for row in unknowns.tolist()]
    assert keys == list(columns)
    assert repr(keys) == repr(list(columns))  # signed zeros kept as first seen

    solution, _, rank, singular = np.linalg.lstsq(a_ref, b_ref, rcond=None)
    residual = float(np.linalg.norm(a_ref @ solution - b_ref))
    try:
        cert = unbiased_feasibility(design, estimand, grid)
    except FeasibilityPrecisionError:
        assert rank > 0 and (
            singular[0] / singular[rank - 1] > _CONDITION_CAP
            or FEASIBLE_TOL < residual <= INFEASIBLE_TOL
        )
        return
    assert cert.rank == rank
    assert cert.min_residual == residual
    assert cert.n_unknowns == len(columns)
    if cert.feasible:
        assert cert.witness.mapping == {
            key: float(solution[col]) for key, col in columns.items()
        }
        assert repr(list(cert.witness.mapping)) == repr(list(columns))
    else:
        assert cert.witness is None


@pytest.mark.parametrize(
    "design,unknowns",
    [(Design("bd", 8), 768), (Design("crd", 8, 3), 168)],
    ids=["bd", "crd"],
)
def test_system_equals_the_dict_build_above_the_cap(design, unknowns):
    # the builder itself has no cap, so the grouping is checked at a size
    # unbiased_feasibility refuses
    estimand = SoloTreatmentEffect()
    family = default_witness_family(design.n, estimand, (-0.0, 0.0, 0.25, 1.5))
    a, b, keys = _constraint_system(design, estimand, family)
    a_ref, b_ref, columns = _reference_system(design, estimand, family)
    assert a.shape == (144, unknowns)
    assert np.array_equal(a, a_ref)
    assert np.array_equal(b, b_ref)
    keys = [(int(row[0]), tuple(row[1:])) for row in keys.tolist()]
    assert repr(keys) == repr(list(columns))


def _full_matrix_table(n, off_value, rows, m_upper=None):
    matrix = np.full((1 << n, n), off_value, dtype=float)
    for code, value in rows.items():
        matrix[code, :] = value
    return PotentialOutcomeTable(Arbitrary(n), matrix.T, m_upper=m_upper)


def test_witness_table_writes_the_full_matrix_csv(tmp_path):
    n, all_b = 6, (1 << 6) - 1
    for off, rows, m in [
        (0.5, {0: 0.5, all_b: 0.5}, 1.0),
        (1.5, {0: 3.0 - 3e-6, all_b: 3e-6}, 3.0),
        (0.0, {all_b ^ 4: 0.25}, None),
    ]:
        _witness_table(n, off, rows, m).to_csv(tmp_path / "shared.csv")
        _full_matrix_table(n, off, rows, m).to_csv(tmp_path / "full.csv")
        assert (tmp_path / "shared.csv").read_bytes() == (tmp_path / "full.csv").read_bytes()


def test_witness_table_reads_as_the_full_matrix():
    n, all_b = 14, (1 << 14) - 1
    rows = {0: 2.0 - 2e-6, all_b: 2e-6}
    codes = np.arange(1 << n, dtype=np.int64)
    shared = _witness_table(n, 1.0, rows, 2.0).observed(codes)
    assert np.array_equal(shared, _full_matrix_table(n, 1.0, rows, 2.0).observed(codes))


def test_adversary_tables_allocate_one_column_each():
    n, m = 14, 1.0
    all_b, half, eps = (1 << n) - 1, m / 2, 1e-6 * m
    tracemalloc.start()
    try:
        tables = (
            _witness_table(n, half, {0: half, all_b: half}, m),
            _witness_table(n, half, {0: m - eps, all_b: eps}, m),
        )
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert len(tables) == 2
    assert peak < 0.5e6
