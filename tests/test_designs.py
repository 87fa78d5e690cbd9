"""Design laws: support enumeration, the code-bit gather, exposure probabilities.

Claims pinned here:
    - an arm vector reads from its labels, unit 0 first, and refuses any
      label but A and B (int() syntax such as "_", spaces and signs too)
    - the support comes in ascending int64 code blocks of at most
      SUPPORT_BLOCK codes, every block but the last full
    - the enumerated support carries the exact closed-form probability of
      every code for all three designs, and omits exactly the zero-mass codes
    - enumerated support probabilities sum to 1 within 1e-12, over
      C(n, n_a), 2^n or 2^n - 2 vectors
    - the conditional design kills the two pure vectors; the fixed-count
      design kills everything with the wrong arm count
    - the exposure-weighted estimator's weight is 2^|ball|, the inverse of
      the fair-coin exposure probability counted by enumeration
    - the outcome gather (``PotentialOutcomeTable.observed``) keys each
      unit by its reference group's bits in ascending node order, matches
      the one-assignment reads on int64 code blocks, and reads every bit
      of a CODE_BITS-wide code; each unit's revealed outcome is the entry
      its own array stores at a per-bit reference loop's key (``==``) on
      all three structures at up to CODE_BITS units, on groups that span
      a byte boundary or hold node 62, on runs of consecutive nodes of
      every length the table cap allows, on arrays shared by units and on
      the rows of a 2-D array, for codes up to 2^63 - 1
"""

import math
import re

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from interference_lab import (
    Arbitrary,
    Assignment,
    CapacityError,
    Design,
    Graph,
    HorvitzThompson,
    InvalidArgumentError,
    KLocal,
    NeighborhoodIndex,
    NoInterference,
    PotentialOutcomeTable,
    enumerate_support,
)
from interference_lab.designs import CODE_BITS, SUPPORT_BLOCK
from interference_lab.graphs import reference_group
from interference_lab.outcomes import TABLE_VALUE_CAP


def test_assignment_roundtrip():
    z = Assignment.from_arms("ABBA")
    assert z.labels == "ABBA"
    assert z.code == 0b0110
    assert Assignment(z.code, 4) == z
    assert Assignment(0, 3).labels == "AAA"
    assert Assignment((1 << 3) - 1, 3).labels == "BBB"
    assert Assignment(((1 << 3) - 1) ^ (1 << 1), 3).labels == "BAB"
    assert Assignment(z.code ^ 1, 4).labels == "BBBA"


def test_assignment_validation():
    with pytest.raises(InvalidArgumentError):
        Assignment(8, 3)
    # "_", spaces and signs are int() syntax, not arms
    for labels, arm in [("AXA", "X"), ("A_B", "_"), (" AB", " "), ("+A", "+")]:
        with pytest.raises(InvalidArgumentError, match=re.escape(f"got {arm!r}")):
            Assignment.from_arms(labels)
    with pytest.raises(InvalidArgumentError, match="at least one unit"):
        Assignment.from_arms("")


def _gather_reference(codes, nodes):
    """The gather one code and one bit at a time, in Python integers: bit
    ``pos`` of each key is bit ``nodes[pos]`` of its code."""
    return [sum(((c >> i) & 1) << pos for pos, i in enumerate(nodes)) for c in codes]


def _keyed_values(structure, layout="own"):
    """Outcome arrays for ``structure`` whose entries name their unit and
    key exactly, 2^20 * unit + key, and each unit's sorted reference group.
    The arrays are one per unit ("own"), one per group size held by every
    unit of that size, whatever its group ("shared"), or the strided rows
    of one 2-D array ("2d", for groups of one size)."""
    groups = [sorted(reference_group(structure, i)) for i in range(structure.n)]
    own = [float(i << 20) + np.arange(1 << len(g)) for i, g in enumerate(groups)]
    if layout == "shared":
        first: dict[int, int] = {}
        return [own[first.setdefault(len(g), i)] for i, g in enumerate(groups)], groups
    if layout == "2d":
        return np.stack(own, axis=1).T, groups
    return own, groups


def _check_gather(structure, codes, layout="own"):
    """``observed`` on a block of codes reveals, for every unit, the entry
    its table stores at the per-bit reference key of its reference group;
    returns the revealed block."""
    values, groups = _keyed_values(structure, layout)
    y = PotentialOutcomeTable(structure, values).observed(np.array(codes, dtype=np.int64))
    assert y.shape == (len(codes), structure.n)
    for i, g in enumerate(groups):
        assert y[:, i].tolist() == [values[i][key] for key in _gather_reference(codes, g)]
    return y


def test_observed_keys_pack_the_group_in_ascending_node_order():
    code = Assignment.from_arms("ABAB").code
    # groups {0, 2} (both A: key 0) and {1, 3} (both B: key 0b11)
    y = _check_gather(KLocal(Graph.from_edges(4, [(0, 2), (1, 3)]), 1), [code])
    assert y[0].tolist() == [0, 1 << 20 | 0b11, 2 << 20, 3 << 20 | 0b11]
    # group {0, 1}: bit pos holds the pos-th node in ascending order (A, B: key 0b10)
    y = _check_gather(KLocal(Graph.from_edges(4, [(0, 1), (2, 3)]), 1), [code])
    assert y[0].tolist() == [0b10, 1 << 20 | 0b10, 2 << 20 | 0b10, 3 << 20 | 0b10]


def test_observed_block_matches_the_scalar_reads():
    rng = np.random.default_rng(3)
    for _ in range(50):
        n = int(rng.integers(1, 15))
        pairs = [(u, v) for u in range(n) for v in range(u + 1, n) if rng.random() < 0.2]
        structure = KLocal(Graph.from_edges(n, pairs), int(rng.integers(1, 3)))
        codes = rng.integers(0, 1 << n, size=64, dtype=np.int64).tolist()
        y = _check_gather(structure, codes)
        table = PotentialOutcomeTable(structure, _keyed_values(structure)[0])
        for code, row in zip(codes, y.tolist()):
            assert table.observed_vector(Assignment(code, n)).tolist() == row
    # n = CODE_BITS: every odd unit and the top unit in arm B; unit 1's
    # group {1, 2, 61, 62} spans the code's first and last bytes
    wide = Assignment.from_arms("AB" * (CODE_BITS // 2) + "B")
    graph = Graph.from_edges(CODE_BITS, [(1, 2), (1, CODE_BITS - 2), (1, CODE_BITS - 1)])
    y = _check_gather(KLocal(graph, 1), [wide.code])
    assert y[0, 1] == (1 << 20) + 0b1101
    # an arbitrary group's key is the code itself
    codes = list(range(1 << 14))
    y = _check_gather(Arbitrary(14), codes, "2d")
    assert (y - (np.arange(14) << 20) == np.array(codes)[:, None]).all()


@st.composite
def _gather_cases(draw):
    """(structure, codes, layout): a structure of each kind at up to
    CODE_BITS units whose table fits ``TABLE_VALUE_CAP`` (an arbitrary one
    has at most 14 units; a k-local one is drawn on a random graph, or on
    paths whose balls are runs of consecutive nodes), a block of 1 to 16
    codes, and an array layout ("2d" only where every group has one size)."""
    kind = draw(st.sampled_from(["none", "arbitrary", "k_local", "runs"]))
    n = draw(st.integers(1, 14 if kind == "arbitrary" else CODE_BITS))
    if kind == "none":
        structure = NoInterference(n)
    elif kind == "arbitrary":
        structure = Arbitrary(n)
    else:
        if kind == "runs":  # consecutive nodes joined, runs split at the cuts
            cuts = set(draw(st.lists(st.integers(1, n), max_size=8)))
            edges = {(u, u + 1) for u in range(n - 1) if u + 1 not in cuts}
        else:
            edges = set()
            for pair in draw(st.lists(st.integers(0, n * n - 1), max_size=n // 2)):
                u, v = sorted(divmod(pair, n))
                if u != v:
                    edges.add((u, v))
        k = draw(st.integers(1, 3 if kind == "runs" else 2))
        structure = KLocal(Graph.from_edges(n, edges), k)
        sizes = [len(reference_group(structure, i)) for i in range(n)]
        assume(sum(1 << size for size in sizes) <= TABLE_VALUE_CAP)
    codes = draw(st.lists(st.integers(0, (1 << n) - 1), min_size=1, max_size=16))
    one_size = kind != "k_local" and kind != "runs"
    layout = draw(st.sampled_from(["own", "shared", "2d"] if one_size else ["own", "shared"]))
    return structure, codes, layout


_TOP = (1 << CODE_BITS) - 1
_RUN_GRAPH = Graph.from_edges(CODE_BITS, [(u, u + 1) for u in range(CODE_BITS - 1)])


@settings(derandomize=True, max_examples=300, deadline=None)
@given(case=_gather_cases())
@example(case=(NoInterference(CODE_BITS), [0, 1 << (CODE_BITS - 1), _TOP], "2d"))
@example(case=(NoInterference(CODE_BITS), [0, 5, _TOP - 1], "shared"))
@example(case=(KLocal(_RUN_GRAPH, 3), [0, 12345, 1 << (CODE_BITS - 1), _TOP], "own"))
@example(case=(Arbitrary(14), [0, 12345, (1 << 14) - 1], "shared"))
@example(case=(Arbitrary(1), [0, 1], "2d"))
def test_observed_equals_the_per_bit_reference(case):
    _check_gather(*case)


def test_observed_reads_runs_of_every_length():
    # a star's center has the run [start, start + length) as its group,
    # each leaf the two nodes {center, leaf}
    rng = np.random.default_rng(11)
    codes = rng.integers(0, 1 << CODE_BITS, size=32, dtype=np.int64).tolist()
    codes += [0, _TOP]
    for length in range(1, 18):  # 2^17 outcomes for the center: within the table cap
        for start in {0, (CODE_BITS - length) // 2, CODE_BITS - length}:
            star = [(start, leaf) for leaf in range(start + 1, start + length)]
            _check_gather(KLocal(Graph.from_edges(CODE_BITS, star), 1), codes)


def test_design_validation():
    with pytest.raises(InvalidArgumentError):
        Design("crd", 4, 0)
    with pytest.raises(InvalidArgumentError):
        Design("crd", 4, 4)
    with pytest.raises(InvalidArgumentError):
        Design("bd", 4, n_a=2)
    with pytest.raises(InvalidArgumentError):
        Design("cbd", 1)
    with pytest.raises(InvalidArgumentError):
        Design("stratified", 4)


def _points(design):
    """The support as (code, p) pairs, in enumeration order."""
    return [(code, p) for codes, p in enumerate_support(design) for code in codes.tolist()]


def _law(design):
    return {Assignment(code, design.n).labels: p for code, p in _points(design)}


def test_enumerate_support_examples():
    ((codes, p),) = enumerate_support(Design("bd", 2))  # one block
    assert codes.dtype == np.int64 and p == 0.25
    labels = [Assignment(code, 2).labels for code in codes.tolist()]
    assert labels == ["AA", "BA", "AB", "BB"]  # ascending code
    assert _law(Design("bd", 3)) == {
        z: 0.125 for z in ("AAA", "BAA", "ABA", "BBA", "AAB", "BAB", "ABB", "BBB")
    }
    assert _law(Design("cbd", 2)) == {"BA": 0.5, "AB": 0.5}
    assert _law(Design("cbd", 3)) == {
        z: 1 / 6 for z in ("BAA", "ABA", "BBA", "AAB", "BAB", "ABB")
    }
    assert _law(Design("crd", 3, 1)) == {"BBA": 1 / 3, "BAB": 1 / 3, "ABB": 1 / 3}
    assert _law(Design("crd", 4, 2)) == {
        z: 1 / 6 for z in ("AABB", "ABAB", "BAAB", "ABBA", "BABA", "BBAA")
    }


@pytest.mark.parametrize(
    "design",
    [
        Design("bd", 6),
        Design("cbd", 6),
        Design("crd", 6, 2),
        Design("bd", 11),
        Design("crd", 11, 4),
    ],
)
def test_support_sums_to_one(design):
    blocks = list(enumerate_support(design))
    assert all(codes.dtype == np.int64 and len(codes) <= SUPPORT_BLOCK for codes, _ in blocks)
    assert all(len(codes) == SUPPORT_BLOCK for codes, _ in blocks[:-1])
    total = math.fsum(p for _, p in _points(design))
    assert abs(total - 1.0) <= 1e-12
    if design.kind == "crd":
        size = math.comb(design.n, design.n_a)
    else:
        size = 2**design.n - (2 if design.kind == "cbd" else 0)
    assert len(_points(design)) == size


@pytest.mark.parametrize("design", [Design("bd", 4), Design("cbd", 4), Design("crd", 4, 1)])
def test_pmf_zero_exactly_off_support(design):
    # the support is exactly the codes the design law gives positive mass
    positive = {
        "bd": lambda code: True,
        "cbd": lambda code: code not in (0, 15),
        "crd": lambda code: 4 - code.bit_count() == design.n_a,
    }[design.kind]
    rows = _points(design)
    assert all(p > 0 for _, p in rows)
    assert [code for code, _ in rows] == [code for code in range(16) if positive(code)]


def test_pure_vectors_have_zero_mass_under_crd_and_cbd():
    for design in (Design("crd", 5, 2), Design("cbd", 5)):
        codes = {code for code, _ in _points(design)}
        assert 0 not in codes and (1 << 5) - 1 not in codes


def test_enumeration_cap():
    with pytest.raises(CapacityError):
        list(enumerate_support(Design("bd", 15)))


def test_exposure_probability_single():
    # a unit's exposure weight is one over (1/2)^|ball|, the fair-coin
    # probability that its closed ball is uniformly armed
    star = Graph.from_edges(5, [(0, 1), (0, 2)])
    ht = HorvitzThompson(NeighborhoodIndex.build(star, 1))
    for i, size in enumerate([3, 2, 2, 1, 1]):
        y = np.eye(5)[i]
        assert ht(Assignment(0, 5), y) == 2.0**size / 5
        assert ht(Assignment((1 << 5) - 1, 5), y) == -(2.0**size) / 5


def test_exposure_probability_matches_enumeration_exactly():
    index = NeighborhoodIndex.build(Graph.from_edges(5, [(0, 2), (2, 3)]), 1)
    ht = HorvitzThompson(index)
    support = _points(Design("bd", 5))
    for i, mask in enumerate(index.masks().tolist()):
        hits = sum(p for code, p in support if code & mask == 0)
        assert ht(Assignment(0, 5), np.eye(5)[i]) == (1 / hits) / 5
