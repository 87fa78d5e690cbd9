"""Array evaluation against per-assignment reference bodies.

Claims pinned here:
    - each estimator's ``evaluate`` over the whole support equals, with
      ``==``, the scalar rule written one assignment at a time (the
      references below), so every row keeps its floating-point order: the
      difference in means with arms of 8 or more values, where numpy's
      pairwise sum and a sequential sum part ways, under bd, crd and cbd;
      the exposure-weighted estimator on k = 1 and k = 2 graphs; the
      pure-arm rule; the solo-treated rule; and a tabular estimator
    - the one-assignment call equals the same reference
"""

import numpy as np
import pytest

from interference_lab import (
    Arbitrary,
    Assignment,
    Design,
    DifferenceInMeans,
    ERSpec,
    HorvitzThompson,
    KLocal,
    NeighborhoodIndex,
    PotentialOutcomeTable,
    PureArmIPW,
    SoloTreatedIPW,
    TabularEstimator,
    enumerate_support,
    observed_key,
    sample_er_graph,
)

# Per-assignment references: the estimators' bodies from before array
# evaluation, with ``est`` in place of ``self``.


def _ref_diff_in_means(est, z, y):
    mask_b = np.array([(z.code >> i) & 1 for i in range(z.n)], dtype=bool)
    n_b = int(mask_b.sum())
    n_a = z.n - n_b
    mean_a = float(y[~mask_b].sum() / n_a) if n_a else 0.0
    mean_b = float(y[mask_b].sum() / n_b) if n_b else 0.0
    return mean_a - mean_b


def _ref_horvitz_thompson(est, z, y):
    masks = [int(m) for m in est.index.masks()]
    weights = [2.0 ** len(ball) for ball in est.index.closed]
    total = 0.0
    for i in range(z.n):
        zi = z.code & masks[i]
        if zi == 0:
            total += weights[i] * y[i]
        elif zi == masks[i]:
            total -= weights[i] * y[i]
    return total / z.n


def _ref_pure_arm(est, z, y):
    if z.code == 0:
        return float(2.0**z.n) * float(np.mean(y))
    if z.code == (1 << z.n) - 1:
        return float(2.0**z.n) * -float(np.mean(y))
    return 0.0


def _ref_solo(est, z, y):
    if z.n - z.code.bit_count() != 1:
        return 0.0
    i = next(j for j in range(z.n) if not (z.code >> j) & 1)
    return (2.0**z.n / z.n) * float(y[i])


def _ref_tabular(est, z, y):
    return est.mapping[(z.code, observed_key(y))]


def _dim(design):
    table = PotentialOutcomeTable.random(Arbitrary(design.n), 0.0, 100.0, seed=design.n)
    return DifferenceInMeans(), _ref_diff_in_means, design, table


def _ht(k):
    structure = KLocal(sample_er_graph(ERSpec(10, 0.25), seed=3), k)
    table = PotentialOutcomeTable.random(structure, 0.0, 1.0, seed=k)
    estimator = HorvitzThompson(NeighborhoodIndex.build(structure.graph, k))
    return estimator, _ref_horvitz_thompson, Design("bd", 10), table


def _pure_arm():
    estimator = PureArmIPW()
    table = PotentialOutcomeTable.random(Arbitrary(8), 0.0, 1.0, seed=5)
    return estimator, _ref_pure_arm, Design("bd", 8), table


def _solo():
    table = PotentialOutcomeTable.random(Arbitrary(8), 0.0, 1.0, seed=6)
    return SoloTreatedIPW(), _ref_solo, Design("bd", 8), table


def _tabular():
    design = Design("bd", 6)
    table = PotentialOutcomeTable.random(Arbitrary(6), 0.0, 1.0, seed=7)
    rng = np.random.default_rng(7)
    mapping = {
        (code, observed_key(row)): float(rng.normal())
        for codes, _ in enumerate_support(design)
        for code, row in zip(codes.tolist(), table.observed(codes))
    }
    return TabularEstimator(mapping), _ref_tabular, design, table


CASES = {
    "dim-bd-12": lambda: _dim(Design("bd", 12)),
    "dim-crd-12-4": lambda: _dim(Design("crd", 12, 4)),
    "dim-cbd-11": lambda: _dim(Design("cbd", 11)),
    "ht-k1": lambda: _ht(1),
    "ht-k2": lambda: _ht(2),
    "pure-arm": _pure_arm,
    "solo": _solo,
    "tabular": _tabular,
}


@pytest.mark.parametrize("case", sorted(CASES))
def test_evaluate_rows_equal_the_scalar_reference(case):
    estimator, reference, design, table = CASES[case]()
    for codes, _ in enumerate_support(design):
        y = table.observed(codes)
        zs = [Assignment(code, design.n) for code in codes.tolist()]
        want = [reference(estimator, z, row) for z, row in zip(zs, y)]
        assert estimator.evaluate(codes, y).tolist() == want
        assert [estimator(z, row) for z, row in zip(zs, y)] == want
