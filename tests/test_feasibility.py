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
      is a capacity error
"""

import math

import numpy as np
import pytest

from interference_lab import (
    ATE,
    Assignment,
    CapacityError,
    Design,
    FeasibilityCertificate,
    InvalidArgumentError,
    PureArmIPW,
    SoloTreatedIPW,
    SoloTreatmentEffect,
    default_witness_family,
    enumerate_support,
    estimand_value,
    unbiased_feasibility,
)


def test_infeasible_when_pure_vectors_have_no_mass():
    for design in (Design.crd(3, 1), Design.cbd(3), Design.cbd(2), Design.crd(4, 2)):
        cert = unbiased_feasibility(design, ATE, [0, 1])
        assert not cert.feasible
        assert cert.min_residual > 1e-6
        assert cert.witness is None


def test_crd_residual_value():
    # all constraints for a fixed off-pure level share one left-hand side
    # while the targets range over {-1, 0, 1}: least squares leaves
    # sqrt(2) per level, i.e. residual 2 for the two-level grid.
    cert = unbiased_feasibility(Design.crd(3, 1), ATE, [0, 1])
    assert cert.min_residual == pytest.approx(2.0, abs=1e-12)


def test_feasible_fair_coin_mean_contrast():
    for n in (2, 3):
        cert = unbiased_feasibility(Design.bd(n), ATE, [0, 1])
        assert cert.feasible
        assert cert.min_residual <= 1e-9
        assert cert.witness is not None


def test_feasible_fair_coin_solo_effect():
    cert = unbiased_feasibility(Design.bd(3), SoloTreatmentEffect(), [0, 1])
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
    design = Design.bd(3)
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
    design = Design.bd(3)
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
    design = Design.bd(3)
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
        unbiased_feasibility(Design.bd(3), ATE, [])
    # the size caps are capacity limits, not malformed arguments
    with pytest.raises(CapacityError):
        unbiased_feasibility(Design.bd(3), ATE, [0, 0.25, 0.5, 0.75, 1.0])
    with pytest.raises(CapacityError):
        unbiased_feasibility(Design.bd(7), ATE, [0, 1])


def test_witness_keys_come_from_the_grid():
    cert = unbiased_feasibility(Design.bd(2), ATE, [0, 1])
    for (_, ykey) in cert.witness.mapping:
        assert set(ykey) <= {0.0, 1.0}


def test_certificate_serialization():
    cert = unbiased_feasibility(Design.crd(3, 1), ATE, [0, 1])
    doc = cert.to_json_dict()
    assert doc["status"] == "infeasible"
    assert doc["family_size"] == 8
