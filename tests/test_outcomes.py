"""Potential-outcome tables and estimands.

Claims pinned here:
    - lookups go through the effective treatment, so flips outside the
      reference group never change a value
    - the mean contrast is antisymmetric under swapping the roles of the
      two arms
    - the random generator honors the open bounds, is seed-deterministic,
      and respects the declared structure
    - CSV (arbitrary) and JSON (keyed) serializations round-trip
    - the block gather over a support reveals the same outcomes as the
      one-assignment lookup, and an unstored entry fails loudly through it
    - a table holds up to CODE_BITS units, the width of an int64
      assignment code; one unit more is a capacity error, raised by the
      loaders before they allocate
    - the arbitrary-interference width and reference-group caps are
      capacity errors for direct construction, the generator and both
      loaders alike
"""

import gc
import math
import warnings

import numpy as np
import pytest

from interference_lab import (
    ATE,
    Arbitrary,
    Assignment,
    CapacityError,
    ConstantEstimator,
    Design,
    Graph,
    IncompleteTableError,
    InvalidArgumentError,
    KLocal,
    NoInterference,
    PotentialOutcomeTable,
    SoloTreatmentEffect,
    estimand_value,
    exact_moments,
    reference_group,
)
from interference_lab.designs import CODE_BITS
from interference_lab.outcomes import ARBITRARY_TABLE_CAP
from graph_builders import path_graph


def test_no_interference_lookup():
    t = PotentialOutcomeTable.no_interference([2.0, 5.0], [1.0, 3.0])
    assert t.observed_vector(Assignment.from_arms("AB"))[0] == 2.0
    assert t.observed_vector(Assignment.from_arms("AB"))[1] == 3.0
    assert list(t.observed_vector(Assignment.from_arms("AB"))) == [2.0, 3.0]


def test_klocal_flip_of_non_neighbor_leaves_value():
    g = path_graph(3)  # unit 0 only sees {0, 1}
    t = PotentialOutcomeTable.random(KLocal(g, 1), 0.0, 1.0, seed=2)
    base = t.observed_vector(Assignment.from_arms("ABA"))[0]
    assert t.observed_vector(Assignment.from_arms("ABB"))[0] == base


def test_arbitrary_rows_are_independent_entries():
    matrix = np.array(
        [
            [1.0, 10.0],  # AA
            [2.0, 20.0],  # BA
            [3.0, 30.0],  # AB
            [4.0, 40.0],  # BB
        ]
    )
    t = PotentialOutcomeTable.arbitrary(matrix)
    assert t.observed_vector(Assignment.from_arms("AB"))[0] == 3.0
    assert list(t.observed_vector(Assignment.from_arms("AB"))) == [3.0, 30.0]
    assert list(t.observed_vector(Assignment.from_arms("BA"))) == [2.0, 20.0]


def test_constant_table_observed_everywhere():
    t = PotentialOutcomeTable.arbitrary(np.full((8, 3), 2.5))
    for code in range(8):
        assert list(t.observed_vector(Assignment(code, 3))) == [2.5, 2.5, 2.5]


def test_estimand_examples():
    t = PotentialOutcomeTable.no_interference([3.0, 1.0], [1.0, 1.0])
    assert estimand_value(ATE, t) == 1.0
    sym = PotentialOutcomeTable.no_interference([2.0, 4.0], [2.0, 4.0])
    assert estimand_value(ATE, sym) == 0.0

    matrix = np.full((4, 2), 9.0)
    matrix[Assignment.from_arms("AB").code] = [4.0, 99.0]  # unit 0 solo-treated
    matrix[Assignment.from_arms("BA").code] = [99.0, 2.0]  # unit 1 solo-treated
    t2 = PotentialOutcomeTable.arbitrary(matrix)
    assert estimand_value(SoloTreatmentEffect(), t2) == 3.0


def test_ate_antisymmetric_under_arm_swap():
    rng = np.random.default_rng(11)
    n = 3
    matrix = rng.uniform(0.1, 0.9, size=(8, n))
    swapped = np.empty_like(matrix)
    for code in range(8):
        swapped[code] = matrix[7 - code]  # complementing the code swaps arms
    t = PotentialOutcomeTable.arbitrary(matrix)
    s = PotentialOutcomeTable.arbitrary(swapped)
    assert estimand_value(ATE, t) == pytest.approx(-estimand_value(ATE, s), abs=1e-15)


def test_generator_bounds_and_determinism():
    t = PotentialOutcomeTable.random(Arbitrary(3), 0.0, 1.0, seed=9)
    values = [t.observed_vector(Assignment(code, 3))[i] for code in range(8) for i in range(3)]
    assert all(0.0 < v < 1.0 for v in values)
    again = PotentialOutcomeTable.random(Arbitrary(3), 0.0, 1.0, seed=9)
    assert values == [
        again.observed_vector(Assignment(code, 3))[i] for code in range(8) for i in range(3)
    ]
    shifted = PotentialOutcomeTable.random(Arbitrary(3), 0.0, 1.0, seed=10)
    assert values != [
        shifted.observed_vector(Assignment(code, 3))[i] for code in range(8) for i in range(3)
    ]


def test_generator_respects_declared_lower_bound():
    t = PotentialOutcomeTable.random(NoInterference(4), 0.5, 2.0, seed=1)
    y_a, y_b = t.boundary_vectors()
    assert all(0.5 < v < 2.0 for v in np.concatenate([y_a, y_b]))


def test_generator_structural_consistency_random_flips():
    g = Graph.from_edges(5, [(0, 1), (1, 2), (3, 4)])
    structure = KLocal(g, 1)
    t = PotentialOutcomeTable.random(structure, 0.0, 1.0, seed=13)
    rng = np.random.default_rng(17)
    for _ in range(1000):
        z = Assignment(int(rng.integers(0, 32)), 5)
        i = int(rng.integers(0, 5))
        outside = [j for j in range(5) if j not in reference_group(structure, i)]
        if not outside:
            continue
        j = outside[int(rng.integers(0, len(outside)))]
        flipped = Assignment(z.code ^ (1 << j), 5)
        assert t.observed_vector(z)[i] == t.observed_vector(flipped)[i]


def test_generator_caps(tmp_path):
    hub = Graph.from_edges(22, [(0, j) for j in range(1, 22)])
    for structure in (Arbitrary(ARBITRARY_TABLE_CAP + 1), KLocal(hub, 1)):
        with pytest.raises(CapacityError):
            PotentialOutcomeTable.random(structure, 0.0, 1.0, seed=0)
        # direct construction checks the caps before it reads the values
        with pytest.raises(CapacityError):
            PotentialOutcomeTable(structure, [])
    path = tmp_path / "hub.json"
    edges = [[0, j] for j in range(1, 22)]
    path.write_text(
        '{"structure": {"kind": "k_local", "n": 22, "k": 1, "edges": %s}, "units": []}'
        % edges
    )
    with pytest.raises(CapacityError):
        PotentialOutcomeTable.from_json(path)
    # the CSV loader checks the width of the first row before it allocates
    for n in (ARBITRARY_TABLE_CAP + 1, CODE_BITS + 1):
        path = tmp_path / f"wide{n}.csv"
        path.write_text(f"assignment,unit,outcome\n{'A' * n},0,1.0\n")
        with pytest.raises(CapacityError):
            PotentialOutcomeTable.from_csv(path)


def test_declared_bounds_are_enforced():
    with pytest.raises(InvalidArgumentError):
        PotentialOutcomeTable.no_interference([0.5, 1.5], [0.5, 0.5], m_upper=1.0)
    with pytest.raises(InvalidArgumentError):
        PotentialOutcomeTable.no_interference([0.0, 0.5], [0.5, 0.5], m_upper=1.0)
    with pytest.raises(InvalidArgumentError):
        PotentialOutcomeTable.no_interference([0.2, 0.5], [0.5, 0.5], k_lower=0.3, m_upper=1.0)
    # no declared bounds: anything goes, including zeros
    PotentialOutcomeTable.no_interference([0.0, 5.0], [-1.0, 0.5])


def test_missing_entry_raises():
    values = [[1.0, np.nan], [1.0, 2.0]]  # unit 0 lacks its arm-B entry
    t = PotentialOutcomeTable(NoInterference(2), values)
    with pytest.raises(IncompleteTableError):
        t.observed_vector(Assignment.from_arms("BA"))[0]
    matrix = np.full((4, 2), np.nan)
    matrix[0] = [1.0, 2.0]
    t2 = PotentialOutcomeTable.arbitrary(matrix)
    assert t2.observed_vector(Assignment(0, 2))[0] == 1.0
    with pytest.raises(IncompleteTableError):
        t2.observed_vector(Assignment((1 << 2) - 1, 2))[0]


@pytest.mark.parametrize(
    "structure",
    [
        NoInterference(9),
        KLocal(Graph.from_edges(9, [(0, 1), (1, 2), (3, 4), (4, 8)]), 2),
        Arbitrary(9),
    ],
)
def test_observed_support_matches_observed_vector(structure):
    t = PotentialOutcomeTable.random(structure, 0.0, 1.0, seed=31)
    codes = np.arange(1 << 9, dtype=np.int64)
    y = t.observed(codes)
    assert y.shape == (1 << 9, 9)
    for code, row in zip(codes.tolist(), y):
        assert row.tolist() == t.observed_vector(Assignment(code, 9)).tolist()


def test_unstored_entry_raises_through_the_gather():
    matrix = np.full((8, 3), 0.5)
    matrix[5, 2] = np.nan
    t = PotentialOutcomeTable.arbitrary(matrix)
    with pytest.raises(IncompleteTableError, match="unit 2 under BAB"):
        exact_moments(ConstantEstimator(0.0), Design.bd(3), t, ATE)


def test_table_width_stops_at_the_code_bits(tmp_path):
    t = PotentialOutcomeTable.random(NoInterference(CODE_BITS), 0.0, 1.0, seed=0)
    assert math.isfinite(estimand_value(ATE, t))
    y_a, y_b = t.boundary_vectors()
    assert estimand_value(SoloTreatmentEffect(), t) == math.fsum(y_a) / CODE_BITS
    top = Assignment(1 << (CODE_BITS - 1), CODE_BITS)  # the top unit alone in arm B
    assert t.observed_vector(top).tolist() == y_a[:-1].tolist() + [y_b[-1]]
    wide = CODE_BITS + 1
    with pytest.raises(CapacityError):
        PotentialOutcomeTable.random(NoInterference(wide), 0.0, 1.0, seed=0)
    with pytest.raises(CapacityError):
        PotentialOutcomeTable.no_interference(np.ones(wide), np.ones(wide))
    path = tmp_path / "wide.json"
    path.write_text('{"structure": {"kind": "no_interference", "n": %d}, "units": []}' % wide)
    with pytest.raises(CapacityError):
        PotentialOutcomeTable.from_json(path)


def test_observed_vector_checks_the_assignment_size():
    t = PotentialOutcomeTable.no_interference([1.0, 2.0], [3.0, 4.0])
    with pytest.raises(InvalidArgumentError):
        t.observed_vector(Assignment(0, 3))


def test_csv_roundtrip(tmp_path):
    t = PotentialOutcomeTable.random(Arbitrary(3), 0.0, 1.0, seed=21)
    path = tmp_path / "table.csv"
    t.to_csv(path)
    back = PotentialOutcomeTable.from_csv(path)
    for code in range(8):
        z = Assignment(code, 3)
        assert list(back.observed_vector(z)) == list(t.observed_vector(z))


def test_csv_load_closes_its_file(tmp_path):
    path = tmp_path / "table.csv"
    PotentialOutcomeTable.random(Arbitrary(2), 0.0, 1.0, seed=21).to_csv(path)
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        PotentialOutcomeTable.from_csv(path)
        gc.collect()
    assert not [w for w in caught if issubclass(w.category, ResourceWarning)]


def test_json_roundtrip(tmp_path):
    g = path_graph(4)
    t = PotentialOutcomeTable.random(KLocal(g, 1), 0.0, 1.0, seed=23)
    path = tmp_path / "table.json"
    t.to_json(path)
    back = PotentialOutcomeTable.from_json(path)
    assert back.structure == t.structure
    for code in range(16):
        z = Assignment(code, 4)
        assert list(back.observed_vector(z)) == list(t.observed_vector(z))

    flat = PotentialOutcomeTable.no_interference([1.0, 2.0], [3.0, 4.0], m_upper=5.0)
    path2 = tmp_path / "flat.json"
    flat.to_json(path2)
    back2 = PotentialOutcomeTable.from_json(path2)
    assert back2.m_upper == 5.0
    assert list(back2.observed_vector(Assignment.from_arms("AB"))) == [1.0, 4.0]
