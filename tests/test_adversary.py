"""Worst-case outcome construction against arbitrary estimators.

Claims pinned here:
    - the returned MSE clears the M^2/8 floor (minus the interior-offset
      slack) for every estimator and design combination tried
    - the two-candidate rule picks the far target: a constant-0 estimator
      gets the full-contrast table, a constant-M estimator the null one
    - returned tables respect the open outcome bounds and are constant off
      the two pure assignments
    - every design is accepted: under cbd, over n = 2 to 14, every shipped
      estimator's worse MSE is at least (M - 2 eps)^2 / 4, the bound two
      candidates with one revealed law force, for M = 1 and 2.5
    - an infinite M is refused
"""

import math

import numpy as np
import pytest

from interference_lab import (
    Assignment,
    ConstantEstimator,
    Design,
    DifferenceInMeans,
    HorvitzThompson,
    InvalidArgumentError,
    KLocal,
    PureArmIPW,
    SoloTreatedIPW,
    mse_adversary,
)
from interference_lab.feasibility import _EPS_REL
from graph_builders import path_graph


def test_constant_zero_estimator_gets_full_contrast():
    result = mse_adversary(ConstantEstimator(0.0), Design("crd", 4, 2), 1.0)
    assert result.estimand_target == pytest.approx(1.0, abs=1e-5)
    assert result.mse >= 0.25  # (C - g)^2 with C = 0, g ~ M
    assert result.mse == pytest.approx(1.0, abs=1e-5)


def test_constant_m_estimator_gets_null_contrast():
    result = mse_adversary(ConstantEstimator(1.0), Design("crd", 4, 2), 1.0)
    assert result.estimand_target == 0.0
    assert result.mse == pytest.approx(1.0, abs=1e-12)


@pytest.mark.parametrize("design", [Design("crd", 6, 3), Design("bd", 6)])
@pytest.mark.parametrize(
    "estimator",
    [DifferenceInMeans(), ConstantEstimator(0.0), PureArmIPW(), SoloTreatedIPW(Design("bd", 6))],
)
def test_floor_holds_across_estimators(design, estimator):
    result = mse_adversary(estimator, design, 1.0)
    assert result.mse >= 0.125 - 1e-6
    assert result.mse >= result.floor


def test_floor_scales_with_m():
    result = mse_adversary(DifferenceInMeans(), Design("crd", 4, 2), 3.0)
    assert result.mse >= 9.0 / 8.0 - 1e-5
    assert result.floor == pytest.approx(9.0 / 8.0, rel=1e-4)


def test_adversarial_table_shape():
    result = mse_adversary(ConstantEstimator(0.0), Design("bd", 3), 1.0)
    table = result.table
    assert table.m_upper == 1.0
    half = np.full(3, 0.5)
    for code in range(1, 7):
        assert list(table.observed_vector(Assignment(code, 3))) == list(half)
    y_a, y_b = table.boundary_vectors()
    assert all(0.0 < v < 1.0 for v in np.concatenate([y_a, y_b]))
    assert float(np.mean(y_a) - np.mean(y_b)) == pytest.approx(
        result.estimand_target, abs=1e-15
    )


@pytest.mark.parametrize("m", [1.0, 2.5])
def test_cbd_floor_holds_for_every_estimator(m):
    # cbd holds neither pure code, so both candidates reveal M/2 on the
    # whole support and the worse MSE is at least (M - 2 eps)^2 / 4
    for n in range(2, 15):
        design = Design("cbd", n)
        estimators = [
            ConstantEstimator(0.0),
            ConstantEstimator(1.0),
            DifferenceInMeans(),
            PureArmIPW(),
            SoloTreatedIPW(design),
            HorvitzThompson(KLocal(path_graph(n), 1).index),
        ]
        for estimator in estimators:
            result = mse_adversary(estimator, design, m)
            assert result.mse >= (m - 2 * _EPS_REL * m) ** 2 / 4 > result.floor


def test_rejections():
    # refused as a table bounded above by it would be, before any column
    with pytest.raises(InvalidArgumentError, match="m_upper: must be finite and positive, got inf"):
        mse_adversary(ConstantEstimator(0.0), Design("bd", 4), math.inf)
