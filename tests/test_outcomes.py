"""Potential-outcome tables and estimands.

Claims pinned here:
    - lookups go through the effective treatment, so flips outside the
      reference group never change a value
    - the mean contrast is antisymmetric under swapping the roles of the
      two arms
    - the random generator honors the open bounds, is seed-deterministic,
      and respects the declared structure; its draws are one
      ``random.Random(seed).random()`` stream u in unit order, each unit's
      outcomes by key, each ``low + (high - low) u`` on the bounds moved in
      by the interior offset, for every structure, up to TABLE_VALUE_CAP
      draws and bounds up to (5e-324, 1.7e308); on an interval a few ulps wide,
      where the interior offset rounds away, its draws still lie strictly
      inside, and an interval that holds no double is refused naming both
      bounds
    - tables of every structure round-trip through the one JSON document
      with equal structure, bounds and outcomes under every code (the
      arbitrary table at n = 14 too, in at most 4.7 MB), each unit written
      as its value list, absent bounds left out; literal documents, an
      arbitrary one included, load with the outcomes they list, entry c of
      unit i read under the codes whose bits on G_i spell c, and so does
      README's example; a unit that is not a list of 2^|G_i| JSON numbers
      (a boolean is not one), or lists a NaN or an infinity, is refused
      naming the file and the unit, as are bounds that are not numbers or
      not ordered and an unknown structure kind
    - every outcome is finite: a NaN or infinite outcome is refused at
      construction, naming the unit
    - the block gather over a support reveals the same outcomes as the
      one-assignment lookup, and units sharing one value array read the
      same outcomes as copies of it; its byte index is built on a table's
      first read, not by the constructor, and at CODE_BITS units the
      boundary read peaks below 1.25 times the index's 63 * 8 * 256 entries
    - declared bounds are finite, and outcomes lie strictly inside them
    - a table holds up to CODE_BITS units, the width of an int64
      assignment code; one unit more is a capacity error, raised by the
      loaders before they allocate
    - a table stores at most TABLE_VALUE_CAP outcomes, sum_i 2^|G_i|,
      whatever its structure: one table past it (an arbitrary one at n = 15,
      a hub's 22-node ball, or a circulant graph's twenty 15-node balls,
      which no per-structure cap caught) is a capacity error for direct
      construction, the generator and the loader alike, raised before any
      of them allocates, and the arbitrary table at n = 14 fits exactly
    - on any malformed graph file or table document of any structure, the
      two readers either return or raise a package error whose message
      starts with the file's path
"""

import gc
import json
import math
import random
import re
import tracemalloc
import warnings
from itertools import product
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from interference_lab import (
    ATE,
    Arbitrary,
    Assignment,
    CapacityError,
    ConstantEstimator,
    Design,
    Graph,
    InterferenceLabError,
    InvalidArgumentError,
    KLocal,
    NoInterference,
    PotentialOutcomeTable,
    SoloTreatmentEffect,
    estimand_value,
    exact_moments,
    reference_group,
)
from interference_lab.designs import CODE_BITS, _uniform_draws
from interference_lab.outcomes import _BOUNDS_EPS_REL, TABLE_VALUE_CAP
from graph_builders import path_graph


def test_no_interference_lookup():
    t = PotentialOutcomeTable(NoInterference(2), [[2.0, 1.0], [5.0, 3.0]])  # [arm A, arm B]
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
    t = PotentialOutcomeTable(Arbitrary(2), matrix.T)
    assert t.observed_vector(Assignment.from_arms("AB"))[0] == 3.0
    assert list(t.observed_vector(Assignment.from_arms("AB"))) == [3.0, 30.0]
    assert list(t.observed_vector(Assignment.from_arms("BA"))) == [2.0, 20.0]


def test_constant_table_observed_everywhere():
    t = PotentialOutcomeTable(Arbitrary(3), np.full((3, 8), 2.5))
    for code in range(8):
        assert list(t.observed_vector(Assignment(code, 3))) == [2.5, 2.5, 2.5]


def test_estimand_examples():
    t = PotentialOutcomeTable(NoInterference(2), [[3.0, 1.0], [1.0, 1.0]])
    assert estimand_value(ATE, t) == 1.0
    sym = PotentialOutcomeTable(NoInterference(2), [[2.0, 2.0], [4.0, 4.0]])
    assert estimand_value(ATE, sym) == 0.0

    matrix = np.full((4, 2), 9.0)
    matrix[Assignment.from_arms("AB").code] = [4.0, 99.0]  # unit 0 solo-treated
    matrix[Assignment.from_arms("BA").code] = [99.0, 2.0]  # unit 1 solo-treated
    t2 = PotentialOutcomeTable(Arbitrary(2), matrix.T)
    assert estimand_value(SoloTreatmentEffect(), t2) == 3.0


def test_ate_antisymmetric_under_arm_swap():
    rng = np.random.default_rng(11)
    n = 3
    matrix = rng.uniform(0.1, 0.9, size=(8, n))
    swapped = np.empty_like(matrix)
    for code in range(8):
        swapped[code] = matrix[7 - code]  # complementing the code swaps arms
    t = PotentialOutcomeTable(Arbitrary(n), matrix.T)
    s = PotentialOutcomeTable(Arbitrary(n), swapped.T)
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


# 654 values is the largest draw over the benchmark's seeds 1-59; 2^192 - 1
# is a six-word seed
SEEDS = [0, 2**32 + 7, 2**192 - 1]


@pytest.mark.parametrize("count", [0, 1, 654, TABLE_VALUE_CAP])
@pytest.mark.parametrize("seed", SEEDS)
def test_draws_equal_the_stdlib_stream(seed, count):
    rng = random.Random(seed)
    want = [rng.random() for _ in range(count)]
    got = _uniform_draws(seed, count)
    assert got.dtype == np.float64 and got.shape == (count,)
    assert got.tolist() == want


def _stdlib_table(structure, k_lower, m_upper, seed):
    """A random table's outcome arrays, drawn one scalar at a time."""
    rng = random.Random(seed)
    eps = _BOUNDS_EPS_REL * (m_upper - k_lower)
    low, high = k_lower + eps, m_upper - eps
    lowest, highest = math.nextafter(k_lower, math.inf), math.nextafter(m_upper, -math.inf)
    sizes = [1 << len(reference_group(structure, i)) for i in range(structure.n)]
    return [
        [min(max(low + (high - low) * rng.random(), lowest), highest) for _ in range(size)]
        for size in sizes
    ]


_GRAPH = Graph.from_edges(7, [(0, 1), (1, 2), (2, 3), (3, 0), (4, 5), (1, 5)])
STRUCTURES = {
    "none": NoInterference(9),
    "k_local-1": KLocal(_GRAPH, 1),
    "k_local-2": KLocal(_GRAPH, 2),
    "arbitrary-5": Arbitrary(5),
    "arbitrary-14": Arbitrary(14),  # TABLE_VALUE_CAP values
}


@pytest.mark.parametrize("name", STRUCTURES)
@pytest.mark.parametrize("seed", SEEDS)
@pytest.mark.parametrize("k_lower,m_upper", [(0.5, 1.7e308), (5e-324, 1.7e308), (0.0, 1.0)])
def test_random_table_equals_the_stdlib_draws(name, seed, k_lower, m_upper):
    structure = STRUCTURES[name]
    table = PotentialOutcomeTable.random(structure, k_lower, m_upper, seed)
    want = _stdlib_table(structure, k_lower, m_upper, seed)
    assert [v.tolist() for v in table._values] == want


@pytest.mark.parametrize(
    "k_lower,m_upper",
    [(1e15, 1e15 + 1), (0.0, 2e-323), (0.5, math.nextafter(math.nextafter(0.5, 1), 1))],
)
def test_generator_draws_inside_a_narrow_interval(k_lower, m_upper):
    t = PotentialOutcomeTable.random(NoInterference(4), k_lower, m_upper, seed=0)
    assert all(k_lower < v < m_upper for v in t._flat.tolist())


@pytest.mark.parametrize("k_lower,m_upper", [(1.0, math.nextafter(1.0, 2)), (0.0, 5e-324)])
def test_generator_refuses_an_interval_holding_no_double(k_lower, m_upper):
    with pytest.raises(InvalidArgumentError) as refusal:
        PotentialOutcomeTable.random(NoInterference(4), k_lower, m_upper, seed=0)
    assert str(refusal.value) == (
        f"no double lies strictly between k_lower={k_lower!r} and m_upper={m_upper!r}"
    )


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


def _document(structure, units) -> str:
    """A table document's text: the structure of ``to_json`` and ``units``."""
    spec = {"kind": "arbitrary", "n": structure.n}
    if isinstance(structure, KLocal):
        spec = {"kind": "k_local", "n": structure.n, "k": structure.k}
        spec["edges"] = sorted(structure.graph.edges)
    return json.dumps({"structure": spec, "units": units})


def test_generator_caps(tmp_path):
    hub = Graph.from_edges(22, [(0, j) for j in range(1, 22)])
    # every node joined to the seven on either side: twenty closed balls of
    # 15 nodes, 20 * 2^15 = 655,360 outcomes
    circulant = Graph.from_edges(20, [(i, (i + d) % 20) for i in range(20) for d in range(1, 8)])
    assert 20 * 2**15 > TABLE_VALUE_CAP
    past = [Arbitrary(15), KLocal(hub, 1), KLocal(circulant, 1)]
    for structure in past:
        with pytest.raises(CapacityError, match=f"at most {TABLE_VALUE_CAP} outcomes"):
            PotentialOutcomeTable.random(structure, 0.0, 1.0, seed=0)
        # direct construction checks the cap before it reads the values
        with pytest.raises(CapacityError):
            PotentialOutcomeTable(structure, [])
    # the loader checks the cap, and the code width, before it reads a unit
    # and allocates its values: each empty list would be refused otherwise
    for i, structure in enumerate([*past, Arbitrary(CODE_BITS + 1)]):
        path = tmp_path / f"past{i}.json"
        path.write_text(_document(structure, [[]] * structure.n))
        with pytest.raises(CapacityError):
            PotentialOutcomeTable.from_json(path)
    # the largest arbitrary table fills the budget exactly
    table = PotentialOutcomeTable.random(Arbitrary(14), 0.0, 1.0, seed=0)
    assert sum(v.size for v in table._values) == TABLE_VALUE_CAP


def test_declared_bounds_are_enforced():
    with pytest.raises(InvalidArgumentError):
        PotentialOutcomeTable(NoInterference(2), [[0.5, 0.5], [1.5, 0.5]], m_upper=1.0)
    with pytest.raises(InvalidArgumentError):
        PotentialOutcomeTable(NoInterference(2), [[0.0, 0.5], [0.5, 0.5]], m_upper=1.0)
    with pytest.raises(InvalidArgumentError):
        PotentialOutcomeTable(
            NoInterference(2), [[0.2, 0.5], [0.5, 0.5]], k_lower=0.3, m_upper=1.0
        )
    # no declared bounds: anything goes, including zeros
    PotentialOutcomeTable(NoInterference(2), [[0.0, -1.0], [5.0, 0.5]])
    # a bound must be finite
    with pytest.raises(InvalidArgumentError, match="m_upper: must be finite"):
        PotentialOutcomeTable(NoInterference(2), [[0.5, 0.5], [0.5, 0.5]], m_upper=math.inf)
    with pytest.raises(InvalidArgumentError, match="k_lower: must be finite"):
        PotentialOutcomeTable(NoInterference(2), [[0.5, 0.5], [0.5, 0.5]], k_lower=math.inf)


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
def test_non_finite_outcomes_are_refused_naming_the_unit(bad):
    values = [[1.0, 2.0], [1.0, 2.0], [1.0, bad]]
    with pytest.raises(InvalidArgumentError, match="^unit 2: outcomes must be finite"):
        PotentialOutcomeTable(NoInterference(3), values)
    # units sharing one array are named by the first that reads it
    column = np.full(8, 0.5)
    column[5] = bad
    with pytest.raises(InvalidArgumentError, match="^unit 1: "):
        PotentialOutcomeTable(Arbitrary(3), [np.full(8, 0.5), column, column])


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


@pytest.mark.parametrize("owners", [[0, 0, 0, 0, 0], [0, 1, 0, 0, 2], [0, 1, 2, 1, 0]])
def test_shared_value_arrays_gather_as_copies(owners):
    # units sharing one value array (witness tables share one column) share
    # its gather, contiguous or not, with the same outcomes as copies
    columns = PotentialOutcomeTable.random(Arbitrary(5), 0.0, 1.0, seed=7)._values
    shared = PotentialOutcomeTable(Arbitrary(5), [columns[k] for k in owners])
    copies = PotentialOutcomeTable(Arbitrary(5), [columns[k].copy() for k in owners])
    codes = np.arange(1 << 5, dtype=np.int64)
    assert shared.observed(codes).tolist() == copies.observed(codes).tolist()


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
        PotentialOutcomeTable(NoInterference(wide), np.ones((wide, 2)))
    path = tmp_path / "wide.json"
    path.write_text('{"structure": {"kind": "no_interference", "n": %d}, "units": []}' % wide)
    with pytest.raises(CapacityError):
        PotentialOutcomeTable.from_json(path)


def test_the_byte_index_is_built_on_the_first_read_and_no_larger_than_it_needs():
    # the index has 256 rows per code byte and one column per unit: at
    # n = CODE_BITS, 63 * 8 * 256 int64 entries, 1,032,192 bytes
    index_bytes = CODE_BITS * 8 * 256 * np.dtype(np.intp).itemsize
    tracemalloc.start()
    try:
        t = PotentialOutcomeTable.random(NoInterference(CODE_BITS), 0.0, 1.0, seed=0)
        _, built = tracemalloc.get_traced_memory()
        tracemalloc.reset_peak()
        y_a, y_b = t.boundary_vectors()
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert built < index_bytes / 10  # the constructor builds no index
    assert peak < 1.25 * index_bytes  # the first read builds it, with small temporaries
    assert y_a.tolist() == [v[0] for v in t._values]
    assert y_b.tolist() == [v[1] for v in t._values]


def test_observed_vector_checks_the_assignment_size():
    t = PotentialOutcomeTable(NoInterference(2), [[1.0, 3.0], [2.0, 4.0]])
    with pytest.raises(InvalidArgumentError):
        t.observed_vector(Assignment(0, 3))


@pytest.mark.parametrize(
    "structure",
    [Arbitrary(3), NoInterference(4), KLocal(Graph.from_edges(5, [(0, 1), (1, 2), (3, 4)]), 1)],
    ids=["arbitrary", "no_interference", "k_local"],
)
def test_json_roundtrip(tmp_path, structure):
    t = PotentialOutcomeTable.random(structure, 0.25, 1.0, seed=21)
    path = tmp_path / "table.json"
    t.to_json(path)
    back = PotentialOutcomeTable.from_json(path)
    assert back.structure == structure
    assert (back.k_lower, back.m_upper) == (0.25, 1.0)
    codes = np.arange(1 << structure.n, dtype=np.int64)
    assert np.array_equal(back.observed(codes), t.observed(codes))


def test_json_writes_value_lists_and_leaves_absent_bounds_out(tmp_path):
    path = tmp_path / "table.json"
    PotentialOutcomeTable(NoInterference(2), [[1.0, 2.5], [-0.0, 4.0]]).to_json(path)
    structure = {"kind": "no_interference", "n": 2}
    units = [[1.0, 2.5], [-0.0, 4.0]]
    assert json.loads(path.read_text()) == {"structure": structure, "units": units}
    back = PotentialOutcomeTable.from_json(path)
    assert (back.k_lower, back.m_upper) == (None, None)
    assert math.copysign(1.0, back.observed_vector(Assignment.from_arms("AA"))[1]) == -1.0
    assert back.observed_vector(Assignment.from_arms("BA")).tolist() == [2.5, -0.0]


def test_json_roundtrip_of_the_largest_arbitrary_table(tmp_path):
    t = PotentialOutcomeTable.random(Arbitrary(14), 0.0, 1.0, seed=3)
    path = tmp_path / "table.json"
    t.to_json(path)
    assert path.stat().st_size <= 4.7e6
    codes = np.arange(1 << 14, dtype=np.int64)
    assert (PotentialOutcomeTable.from_json(path).observed(codes) == t.observed(codes)).all()


def test_json_load_closes_its_file(tmp_path):
    path = tmp_path / "table.json"
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        PotentialOutcomeTable.random(Arbitrary(2), 0.0, 1.0, seed=21).to_json(path)
        PotentialOutcomeTable.from_json(path)
        gc.collect()
    assert not [w for w in caught if issubclass(w.category, ResourceWarning)]


def test_json_reads_literal_documents(tmp_path):
    # path 0-1-2 at k = 1: entry c of unit i is its outcome when bit j of c
    # gives the arm of the j-th node of its closed ball, in ascending order
    balls = [(0, 1), (0, 1, 2), (1, 2)]
    units = [[10.0 * i + c for c in range(1 << len(g))] for i, g in enumerate(balls)]
    doc = {"structure": {"kind": "k_local", "n": 3, "k": 1, "edges": [[0, 1], [1, 2]]}, "units": units}
    path = tmp_path / "table.json"
    path.write_text(json.dumps(doc))
    t = PotentialOutcomeTable.from_json(path)
    assert t.structure == KLocal(path_graph(3), 1)
    for code in range(8):
        z = Assignment(code, 3)
        keys = [sum(((code >> node) & 1) << j for j, node in enumerate(g)) for g in balls]
        assert t.observed_vector(z).tolist() == [units[i][c] for i, c in enumerate(keys)]

    flat = {
        "structure": {"kind": "no_interference", "n": 2},
        "m_upper": 5.0,
        "units": [[1.0, 3.0], [2, 4]],  # a JSON integer is a number too
    }
    path.write_text(json.dumps(flat))
    t = PotentialOutcomeTable.from_json(path)
    assert t.m_upper == 5.0
    assert t.observed_vector(Assignment.from_arms("AB")).tolist() == [1.0, 4.0]

    # under arbitrary interference every unit lists AA, BA, AB, BB
    whole = [[1.0, 2.0, 3.0, 4.0], [5.0, 6.0, 7.0, 8.0]]
    path.write_text(json.dumps({"structure": {"kind": "arbitrary", "n": 2}, "units": whole}))
    t = PotentialOutcomeTable.from_json(path)
    assert t.structure == Arbitrary(2)
    assert t.observed_vector(Assignment.from_arms("BA")).tolist() == [2.0, 6.0]
    assert t.observed_vector(Assignment.from_arms("AB")).tolist() == [3.0, 7.0]
    assert t.observed_vector(Assignment.from_arms("BB")).tolist() == [4.0, 8.0]


@pytest.mark.parametrize(
    "unit,message",
    [
        ([5.0, 6.0, 7.0], "unit 1: need a list of 4 numbers"),
        ([5.0, 6.0, 7.0, 8.0, 9.0], "unit 1: need a list of 4 numbers"),
        ({"AA": 5.0, "BA": 6.0, "AB": 7.0, "BB": 8.0}, "unit 1: need a list of 4 numbers"),
        ([5.0, True, 7.0, 8.0], "unit 1: need a list of 4 numbers"),
        ([5.0, "6", 7.0, 8.0], "unit 1: need a list of 4 numbers"),
        ([5.0, None, 7.0, 8.0], "unit 1: need a list of 4 numbers"),
        ([5.0, math.nan, 7.0, 8.0], "unit 1: outcomes must be finite"),
        ([5.0, 6.0, -math.inf, 8.0], "unit 1: outcomes must be finite"),
        ([5.0, 6.0, 7.0, 10**400], "unit 1: int too large to convert to float"),
    ],
)
def test_json_refuses_a_unit_that_is_not_its_value_list(tmp_path, unit, message):
    path = tmp_path / "table.json"
    units = [[1.0, 2.0, 3.0, 4.0], unit]
    path.write_text(json.dumps({"structure": {"kind": "arbitrary", "n": 2}, "units": units}))
    with pytest.raises(InvalidArgumentError) as caught:
        PotentialOutcomeTable.from_json(path)
    assert str(caught.value).startswith(f"{path}: {message}")


@pytest.mark.parametrize(
    "change,message",
    [
        ({"k_lower": 2.0, "m_upper": 1.0}, "bounds must satisfy k_lower < m_upper"),
        ({"k_lower": "0"}, "k_lower: must be a number, got '0'"),
        ({"structure": {"kind": "ring", "n": 1}}, "unknown structure kind 'ring'"),
    ],
)
def test_json_refuses_bounds_and_structure_kinds(tmp_path, change, message):
    doc = {"structure": {"kind": "no_interference", "n": 1}, "units": [[0.5, 0.75]], **change}
    path = tmp_path / "table.json"
    path.write_text(json.dumps(doc))
    with pytest.raises(InvalidArgumentError, match=f"^{re.escape(f'{path}: {message}')}$"):
        PotentialOutcomeTable.from_json(path)


def test_readme_table_example_loads(tmp_path):
    # the documented format is the one the reader reads
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    section = readme.split("## Table files", 1)[1]
    example = section.split("```json\n", 1)[1].split("```", 1)[0]
    path = tmp_path / "table.json"
    path.write_text(example)
    t = PotentialOutcomeTable.from_json(path)
    assert t.structure == KLocal(path_graph(3), 1)
    # under ABB unit 1 reads its ball (0, 1, 2) in arms A, B, B: entry 0b110
    doc = json.loads(example)
    assert t.observed_vector(Assignment.from_arms("ABB"))[1] == doc["units"][1][6]


# Input files that are valid or broken in a few places, kept small: a
# k-local table allocates 2^|ball| floats per unit, so n stays at most 8.
_JUNK = st.sampled_from(
    ["x", "", "A", 1.5, -1, 9, None, True, [], [0, 1, 2], math.nan, math.inf, 10**400]
)


def _encoded(draw, text: str) -> bytes:
    """The text as UTF-8, or now and then arbitrary bytes (not UTF-8 either)."""
    if draw(st.integers(0, 9)) == 7:  # not 0, which hypothesis draws often
        return draw(st.binary(max_size=12))
    return text.encode()


@st.composite
def _graph_files(draw):
    """A node count and edge lines, up to two of them replaced or added."""
    n = draw(st.integers(-1, 8))
    edges = draw(st.lists(st.tuples(st.integers(0, 7), st.integers(0, 7)), max_size=6))
    lines = [str(n)] + [f"{u} {v}" for u, v in edges]
    token = st.one_of(st.integers(-2, 8).map(str), st.sampled_from(["x", "#", "1.5"]))
    for _ in range(draw(st.integers(0, 2))):  # replace or add a line of 0-3 tokens
        i = draw(st.integers(0, len(lines)))
        lines[i : i + 1] = [" ".join(draw(st.lists(token, max_size=3)))]
    return _encoded(draw, "\n".join(lines))


@st.composite
def _json_files(draw):
    """A table document of any structure kind, up to two fields dropped or
    junk, maybe a stray entry."""
    n = draw(st.integers(1, 6))
    kind = draw(st.sampled_from(["no_interference", "k_local", "arbitrary"]))
    k = draw(st.integers(0, 2))
    edges = draw(st.lists(st.lists(st.integers(0, n - 1), min_size=2, max_size=2), max_size=n))
    if kind == "arbitrary":
        width = n
    else:
        width = 1 if kind == "no_interference" or k == 0 else draw(st.integers(1, 4))
    entry = st.lists(st.floats(0.1, 0.9), min_size=1 << width, max_size=1 << width)
    structure = {"kind": kind, "n": n, "k": k, "edges": edges}
    units = draw(st.lists(entry, min_size=n, max_size=n))
    doc = {"structure": structure, "units": units, "m_upper": 1.0}
    fields = [(doc, key) for key in ("structure", "units", "k_lower", "m_upper")]
    fields += [(structure, key) for key in structure] + [(units, 0)]
    for block, key in draw(st.lists(st.sampled_from(fields), max_size=2)):
        if draw(st.booleans()) and isinstance(block, dict):
            block.pop(key, None)
        else:
            block[key] = draw(_JUNK)
    if draw(st.booleans()) and isinstance(units[-1], list):  # one stray entry
        units[-1] = [*units[-1], draw(_JUNK)]
    return _encoded(draw, json.dumps(doc))


@settings(derandomize=True, max_examples=400, deadline=None)
@given(
    st.one_of(
        st.tuples(st.just(Graph.from_file), _graph_files()),
        st.tuples(st.just(PotentialOutcomeTable.from_json), _json_files()),
    )
)
def test_readers_fail_only_with_an_error_naming_the_file(tmp_path_factory, case):
    reader, content = case
    path = tmp_path_factory.getbasetemp() / "reader_input"
    path.write_bytes(content)
    try:
        reader(path)
    except InterferenceLabError as exc:
        assert str(exc).startswith(f"{path}: ")
