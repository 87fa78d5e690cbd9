"""Estimator arithmetic and the tabular form.

Claims pinned here:
    - difference in means on worked examples
    - the exposure-weighted estimator on the hand-enumerated two-node cases
    - the pure-arm and solo-treated inverse-probability rules
    - tabular estimators look up, fail loudly on gaps, reproduce a rule
      tabulated over the whole support, and the CLI's one CSV writer
      writes one that reads back exactly, with the text a row-by-row build
      writes (signed zeros apart, on feasibility witnesses at n = 3 and 8)
"""

import csv
import io
from itertools import combinations

import numpy as np
import pytest

from interference_lab import (
    Arbitrary,
    Assignment,
    ConstantEstimator,
    Design,
    DifferenceInMeans,
    Graph,
    HorvitzThompson,
    IncompleteEstimatorError,
    NeighborhoodIndex,
    PotentialOutcomeTable,
    PureArmIPW,
    SoloTreatedIPW,
    SoloTreatmentEffect,
    TabularEstimator,
    enumerate_support,
    observed_key,
    unbiased_feasibility,
)
from interference_lab.cli import _witness_csv
from graph_builders import empty_graph


def test_diff_in_means_examples():
    dm = DifferenceInMeans()
    assert dm(Assignment.from_arms("AABB"), np.array([3.0, 1.0, 2.0, 0.0])) == 1.0
    assert dm(Assignment.from_arms("ABAB"), np.full(4, 7.0)) == 0.0
    assert dm(Assignment.from_arms("AB"), np.array([5.0, 3.0])) == 2.0


def test_diff_in_means_empty_arm_contributes_zero():
    dm = DifferenceInMeans()
    assert dm(Assignment(0, 3), np.array([1.0, 2.0, 3.0])) == 2.0
    assert dm(Assignment((1 << 3) - 1, 3), np.array([1.0, 2.0, 3.0])) == -2.0


def test_horvitz_thompson_two_node_complete():
    idx = NeighborhoodIndex.build(Graph.from_edges(2, combinations(range(2), 2)), 1)
    ht = HorvitzThompson(idx)
    ones = np.ones(2)
    assert ht(Assignment.from_arms("AA"), ones) == 4.0
    assert ht(Assignment.from_arms("AB"), ones) == 0.0
    assert ht(Assignment.from_arms("BA"), ones) == 0.0
    assert ht(Assignment.from_arms("BB"), ones) == -4.0


def test_horvitz_thompson_empty_graph():
    idx = NeighborhoodIndex.build(empty_graph(2), 1)
    ht = HorvitzThompson(idx)
    assert ht(Assignment.from_arms("AB"), np.array([2.0, 4.0])) == -2.0


def test_pure_arm_ipw():
    est = PureArmIPW()
    assert est(Assignment.from_arms("AA"), np.array([1.0, 1.0])) == 4.0
    assert est(Assignment.from_arms("AB"), np.array([9.0, 9.0])) == 0.0
    assert est(Assignment.from_arms("BB"), np.array([1.0, 3.0])) == -8.0


def test_solo_treated_ipw():
    est = SoloTreatedIPW()
    assert est(Assignment.from_arms("AB"), np.array([4.0, 7.0])) == 8.0
    assert est(Assignment.from_arms("AA"), np.array([4.0, 7.0])) == 0.0
    assert est(Assignment.from_arms("BAB"), np.array([0.0, 5.0, 0.0])) == pytest.approx(
        (8 / 3) * 5
    )


def test_constant_estimator():
    est = ConstantEstimator(2.5)
    assert est(Assignment.from_arms("AB"), np.zeros(2)) == 2.5


def test_tabular_lookup_and_missing_key():
    z = Assignment.from_arms("AB")
    key = observed_key([1.0, 0.0])
    est = TabularEstimator({(z.code, key): 1.5})
    assert est(z, np.array([1.0, 0.0])) == 1.5
    with pytest.raises(IncompleteEstimatorError):
        est(z, np.array([0.0, 0.0]))
    with pytest.raises(IncompleteEstimatorError):
        TabularEstimator({})(z, np.array([1.0, 0.0]))


def test_tabular_materialization_matches_source():
    # a rule tabulated over the whole support reproduces it there
    table = PotentialOutcomeTable.random(Arbitrary(2), 0.0, 1.0, seed=3)
    source = PureArmIPW()
    ((codes, _),) = enumerate_support(Design("bd", 2))
    y = table.observed(codes)
    values = source.evaluate(codes, y).tolist()
    tab = TabularEstimator(
        {(c, observed_key(row)): v for c, row, v in zip(codes.tolist(), y, values)}
    )
    assert tab.evaluate(codes, y).tolist() == values
    for code, row in zip(codes.tolist(), y):
        z = Assignment(code, 2)
        assert tab(z, row) == source(z, row)


def test_tabular_csv_roundtrip():
    # the written text carries every key and value exactly
    mapping = {
        (0, observed_key([0.5, 0.5])): 4.0,
        (3, observed_key([1.0, 0.1])): -4.0 / 3.0,
    }
    rows = list(csv.DictReader(io.StringIO(_witness_csv(TabularEstimator(mapping), 2))))
    back = {
        (Assignment.from_arms(r["assignment"]).code, tuple(map(float, r["ykey"].split("|")))):
        float(r["value"])
        for r in rows
    }
    assert back == mapping


def test_tabular_csv_formats_as_row_by_row():
    # each code's labels and each vector's join are formatted once; -0.0 ==
    # 0.0, yet each vector prints its own signs
    mapping = {(1, (0.0, -0.0)): 1.0, (2, (-0.0, 0.0)): 2.0, (2, (0.5, 1e-310)): 3.0}
    mapping[(3, (0.0, -0.0))] = 4.0
    witnesses = [(TabularEstimator(mapping), 2)] + [
        (unbiased_feasibility(Design("bd", n), SoloTreatmentEffect(), grid).witness, n)
        for n, grid in [(3, [-0.0, 0.0, 2.0]), (8, [0.0, 0.25, -0.0, 1.5])]
    ]
    for witness, n in witnesses:
        rows = [
            [Assignment(code, n).labels, "|".join(map(str, y)), v]
            for (code, y), v in sorted(witness.mapping.items())
        ]
        lines = [",".join(map(str, row)) + "\n" for row in [["assignment", "ykey", "value"], *rows]]
        assert _witness_csv(witness, n) == "".join(lines)
