"""The support block size is a pure performance constant.

Claims pinned here:
    - exact moments, the MSE adversary and the feasibility certificate are
      equal (``==``) whether ``enumerate_support`` yields blocks of 1, 7,
      256 or ``SUPPORT_BLOCK`` codes: the exposure-weighted estimator under
      bd on a k = 1 graph, the difference in means under crd and cbd, the
      pure-arm rule under bd, and the bd solo and crd mean-contrast
      certificates
"""

import pytest

from interference_lab import (
    ATE,
    Arbitrary,
    Design,
    DifferenceInMeans,
    ERSpec,
    HorvitzThompson,
    KLocal,
    NoInterference,
    PotentialOutcomeTable,
    PureArmIPW,
    SoloTreatmentEffect,
    designs,
    enumerate_support,
    exact_moments,
    mse_adversary,
    sample_er_graph,
    unbiased_feasibility,
)

BLOCK_SIZES = (1, 7, 256, designs.SUPPORT_BLOCK)


def _ht_moments():
    structure = KLocal(sample_er_graph(ERSpec(12, 0.2), seed=5), 1)
    table = PotentialOutcomeTable.random(structure, 0.0, 1.0, seed=5)
    return exact_moments(HorvitzThompson(structure.index), Design("bd", 12), table, ATE)


def _dim_moments_crd():
    table = PotentialOutcomeTable.random(NoInterference(12), 0.0, 1.0, seed=6)
    return exact_moments(DifferenceInMeans(), Design("crd", 12, 5), table, ATE)


def _dim_moments_cbd():
    table = PotentialOutcomeTable.random(Arbitrary(11), 0.0, 1.0, seed=7)
    return exact_moments(DifferenceInMeans(), Design("cbd", 11), table, ATE)


def _adversary(estimator, design):
    result = mse_adversary(estimator, design, 1.0)
    return result.mse, result.floor, result.estimand_target


def _feasibility(design, estimand):
    cert = unbiased_feasibility(design, estimand, [0, 0.5, 1])
    witness = cert.witness.mapping if cert.witness is not None else None
    return cert.to_json_dict(), witness


CASES = {
    "moments-ht-bd-k1": _ht_moments,
    "moments-dim-crd": _dim_moments_crd,
    "moments-dim-cbd": _dim_moments_cbd,
    "adversary-dim-crd": lambda: _adversary(DifferenceInMeans(), Design("crd", 12, 6)),
    "adversary-ipw-bd": lambda: _adversary(PureArmIPW(), Design("bd", 11)),
    "feasibility-bd-solo": lambda: _feasibility(Design("bd", 5), SoloTreatmentEffect()),
    "feasibility-crd-ate": lambda: _feasibility(Design("crd", 5, 2), ATE),
}


@pytest.mark.parametrize("case", sorted(CASES))
def test_results_do_not_depend_on_the_block_size(case, monkeypatch):
    results = []
    for block in BLOCK_SIZES:
        monkeypatch.setattr(designs, "SUPPORT_BLOCK", block)
        codes, _ = next(enumerate_support(Design("bd", 3)))
        assert len(codes) == min(block, 8)
        results.append(CASES[case]())
    assert all(result == results[0] for result in results[1:])
