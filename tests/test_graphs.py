"""Graphs, hop balls, reference groups, effective treatments.

Claims pinned here:
    - breadth-first balls agree with a matrix-power reachability oracle
    - balls are closed (contain the node) and monotone in the radius
    - reference groups are {i} / closed ball / everything per structure
    - a table's effective-treatment key packs the reference group's arms in
      ascending node order, and 2^n over the effective-treatment count
      matches a brute-force count of assignments sharing that key
    - a unit is exposed, and enters the exposure-weighted estimate, exactly
      when its closed ball is uniformly armed; the ball's bitmask sees that
      exactly when the effective-treatment key is all-A or all-B
    - effective-treatment keys ignore coordinate flips outside the group
    - count x informative-set size = 2^n, and one over the count is the
      informative share to the last bit (count-fraction identity)
    - the bitmask form reaches n = CODE_BITS, the top node's bit included,
      and stops one node later
    - graph files load back the graph they list and reject malformed input
"""

from itertools import combinations

import numpy as np
import pytest

from interference_lab import (
    Arbitrary,
    Assignment,
    CapacityError,
    Graph,
    GraphFormatError,
    HorvitzThompson,
    InvalidArgumentError,
    KLocal,
    NeighborhoodIndex,
    NoInterference,
    PotentialOutcomeTable,
    effective_treatment_count,
    k_step_neighborhood,
    reference_group,
)
from interference_lab.designs import CODE_BITS
from graph_builders import empty_graph, path_graph


def test_graph_construction_rejects_bad_edges():
    with pytest.raises(GraphFormatError):
        Graph.from_edges(3, [(0, 0)])
    with pytest.raises(GraphFormatError):
        Graph.from_edges(3, [(0, 1), (1, 0)])
    with pytest.raises(GraphFormatError):
        Graph.from_edges(3, [(0, 3)])


def test_k_step_neighborhood_examples():
    path = path_graph(3)
    assert k_step_neighborhood(path, 1, 1) == {0, 1, 2}
    assert k_step_neighborhood(path, 0, 2) == {0, 1, 2}
    assert k_step_neighborhood(path, 0, 1) == {0, 1}
    for g in (path, Graph.from_edges(4, combinations(range(4), 2)), empty_graph(4)):
        for i in range(g.n):
            assert k_step_neighborhood(g, i, 0) == {i}
    with pytest.raises(InvalidArgumentError):
        k_step_neighborhood(path, 7, 1)
    with pytest.raises(InvalidArgumentError):
        k_step_neighborhood(path, 0, -1)


def test_disconnected_nodes_never_enter_the_ball():
    g = Graph.from_edges(4, [(0, 1)])  # nodes 2,3 isolated from 0
    assert k_step_neighborhood(g, 0, 10) == {0, 1}


def _reach_oracle(graph, i, k):
    # ((I + A)^k)[i, j] > 0  <=>  d(i, j) <= k
    m = np.eye(graph.n, dtype=np.int64)
    for u, v in graph.edges:
        m[u, v] = m[v, u] = 1
    power = np.linalg.matrix_power(m, max(k, 1)) if k > 0 else np.eye(graph.n, dtype=np.int64)
    return frozenset(int(j) for j in np.nonzero(power[i])[0])


def test_bfs_matches_matrix_power_oracle():
    rng = np.random.default_rng(7)
    for _ in range(20):
        n = int(rng.integers(2, 9))
        edges = [
            (i, j)
            for i in range(n)
            for j in range(i + 1, n)
            if rng.random() < 0.4
        ]
        g = Graph.from_edges(n, edges)
        for k in range(4):
            for i in range(n):
                assert k_step_neighborhood(g, i, k) == _reach_oracle(g, i, k)


def test_neighborhood_monotone_in_radius():
    g = path_graph(6)
    for i in range(6):
        prev = frozenset()
        for k in range(6):
            ball = k_step_neighborhood(g, i, k)
            assert i in ball
            assert prev <= ball
            prev = ball


def test_neighborhood_index_masks_and_sizes():
    idx = NeighborhoodIndex.build(path_graph(3), 1)
    assert idx.closed == (frozenset({0, 1}), frozenset({0, 1, 2}), frozenset({1, 2}))
    assert list(idx.masks()) == [0b011, 0b111, 0b110]
    cycle = Graph.from_edges(CODE_BITS, [(i, (i + 1) % CODE_BITS) for i in range(CODE_BITS)])
    assert int(NeighborhoodIndex.build(cycle, 1).masks()[-1]) == 0x6000000000000001
    with pytest.raises(CapacityError):
        NeighborhoodIndex.build(empty_graph(CODE_BITS + 1), 1).masks()


def test_reference_groups():
    assert reference_group(NoInterference(5), 2) == {2}
    star = Graph.from_edges(4, [(0, 1), (0, 2), (0, 3)])
    assert reference_group(KLocal(star, 1), 0) == {0, 1, 2, 3}
    assert reference_group(KLocal(star, 1), 1) == {0, 1}
    assert reference_group(Arbitrary(5), 2) == {0, 1, 2, 3, 4}


def _key_table(structure):
    """A table whose outcome for unit i is its effective-treatment key."""
    groups = [reference_group(structure, i) for i in range(structure.n)]
    return PotentialOutcomeTable(structure, [np.arange(1 << len(g), dtype=float) for g in groups])


def test_effective_treatment_examples():
    z = Assignment.from_arms("ABB")
    assert _key_table(NoInterference(3)).observed_vector(z)[0] == 0b0  # (A,)
    path = _key_table(KLocal(path_graph(3), 1))
    assert path.observed_vector(Assignment.from_arms("ABA"))[1] == 0b010  # (A, B, A)
    assert path.observed_vector(Assignment.from_arms("ABA"))[0] == 0b10  # (A, B)
    assert path.observed_vector(Assignment.from_arms("ABB"))[2] == 0b11  # (B, B)
    assert _key_table(Arbitrary(3)).observed_vector(z)[1] == 0b110  # (A, B, B)


def test_effective_treatment_counts():
    assert effective_treatment_count(NoInterference(4), 0) == 2
    path = KLocal(path_graph(3), 1)
    assert effective_treatment_count(path, 1) == 8
    assert effective_treatment_count(path, 0) == 4
    assert effective_treatment_count(Arbitrary(4), 3) == 16


def test_informative_set_examples():
    # under the fair coin, one over the count is the share of assignments
    # sharing the unit's effective treatment (the tables command's f_i)
    assert 1 / effective_treatment_count(NoInterference(3), 0) == 0.5
    path = KLocal(path_graph(3), 1)
    assert 1 / effective_treatment_count(path, 0) == 0.25
    assert 1 / effective_treatment_count(Arbitrary(3), 1) == 0.125
    # past the float range of 2^n: the fraction is still exact (or underflows)
    assert 1 / effective_treatment_count(Arbitrary(1100), 0) == 0.0
    assert 1 / effective_treatment_count(NoInterference(1100), 0) == 0.5


def test_count_fraction_identity():
    g = Graph.from_edges(5, [(0, 1), (1, 2), (3, 4)])
    for structure in (NoInterference(5), KLocal(g, 1), KLocal(g, 2), Arbitrary(5)):
        for i in range(5):
            count = effective_treatment_count(structure, i)
            size = 1 << (5 - len(reference_group(structure, i)))
            assert count * size == 1 << 5
    # one over the count is the informative share size / 2^n to the last
    # bit, at every group size and n, underflow included
    assert all(
        1 / (1 << group) == (1 << (n - group)) / (1 << n)
        for n in range(1, 1200)
        for group in range(n + 1)
    )


def test_informative_size_matches_brute_force():
    g = Graph.from_edges(4, [(0, 1), (2, 3)])
    structure = KLocal(g, 1)
    keys = _key_table(structure)
    for i in range(4):
        for code in (0, 5, 9):
            z = Assignment(code, 4)
            want = sum(
                1
                for other in range(16)
                if keys.observed_vector(Assignment(other, 4))[i] == keys.observed_vector(z)[i]
            )
            assert 2**4 // effective_treatment_count(structure, i) == want


def test_is_exposed():
    ht = HorvitzThompson(NeighborhoodIndex.build(path_graph(3), 1))
    y = np.array([3.0, 5.0, 7.0])
    # under AAB only unit 0's ball {0, 1} is uniformly armed (A, weight 2^2)
    assert ht(Assignment.from_arms("AAB"), y) == 4 * y[0] / 3
    # under BBB every ball is in arm B, with weights 2^2, 2^3, 2^2
    assert ht(Assignment((1 << 3) - 1, 3), y) == -(4 * y[0] + 8 * y[1] + 4 * y[2]) / 3


def test_exposure_implies_uniform_effective_treatment():
    g = Graph.from_edges(4, [(0, 1), (1, 2)])
    structure = KLocal(g, 1)
    masks = [int(m) for m in structure.index.masks()]
    keys = _key_table(structure)
    for code in range(16):
        z = Assignment(code, 4)
        for i in range(4):
            all_b = (1 << len(reference_group(structure, i))) - 1
            assert ((code & masks[i]) == 0) == (keys.observed_vector(z)[i] == 0)
            assert ((code & masks[i]) == masks[i]) == (keys.observed_vector(z)[i] == all_b)


def test_effective_treatment_ignores_outside_flips():
    g = Graph.from_edges(5, [(0, 1), (2, 3)])
    structure = KLocal(g, 1)
    keys = _key_table(structure)
    rng = np.random.default_rng(3)
    for _ in range(100):
        z = Assignment(int(rng.integers(0, 32)), 5)
        i = int(rng.integers(0, 5))
        group = reference_group(structure, i)
        outside = [j for j in range(5) if j not in group]
        if not outside:
            continue
        j = outside[int(rng.integers(0, len(outside)))]
        flipped = Assignment(z.code ^ (1 << j), 5)
        assert keys.observed_vector(z)[i] == keys.observed_vector(flipped)[i]


def test_graph_file_roundtrip(tmp_path):
    g = Graph.from_edges(4, [(0, 1), (1, 2), (0, 3)])
    path = tmp_path / "g.txt"
    path.write_text("4\n" + "".join(f"{u} {v}\n" for u, v in sorted(g.edges)))
    assert Graph.from_file(path) == g


def test_graph_file_errors(tmp_path):
    bad = tmp_path / "bad.txt"
    bad.write_text("3\n0 1\n1 0\n")
    with pytest.raises(GraphFormatError):
        Graph.from_file(bad)
    bad.write_text("3\n1 1\n")
    with pytest.raises(GraphFormatError):
        Graph.from_file(bad)
    bad.write_text("x\n0 1\n")
    with pytest.raises(GraphFormatError):
        Graph.from_file(bad)
