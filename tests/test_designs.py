"""Design laws: support enumeration, the bit gather, exposure probabilities.

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
    - the bit gather packs the node bits in the order given, matches a
      per-bit reference loop on int64 code blocks, and reads every bit of
      a CODE_BITS-wide code; it equals that reference (``==``) on sorted
      node lists built from runs of every length, on unsorted lists, on
      the empty list, a single node and every unit, for codes up to
      2^63 - 1
"""

import math
import re

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from interference_lab import (
    Assignment,
    CapacityError,
    Design,
    Graph,
    HorvitzThompson,
    InvalidArgumentError,
    NeighborhoodIndex,
    enumerate_support,
)
from interference_lab.designs import CODE_BITS, SUPPORT_BLOCK, restrict_codes


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


def test_restrict_code_ascending_order():
    codes = np.array([Assignment.from_arms("ABAB").code], dtype=np.int64)
    # nodes {1, 3} are both B -> sub-code 0b11
    assert restrict_codes(codes, [1, 3]).tolist() == [0b11]
    assert restrict_codes(codes, [0, 2]).tolist() == [0]
    assert restrict_codes(codes, [0, 1]).tolist() == [0b10]
    assert restrict_codes(codes, [1, 0]).tolist() == [0b01]  # bit pos holds nodes[pos]


def test_restrict_codes_array_matches_scalar():
    rng = np.random.default_rng(3)
    for _ in range(50):
        n = int(rng.integers(1, 15))
        nodes = sorted(rng.choice(n, size=int(rng.integers(1, n + 1)), replace=False).tolist())
        codes = rng.integers(0, 1 << n, size=64, dtype=np.int64)
        packed = restrict_codes(codes, nodes)
        assert packed.dtype == np.int64
        want = [sum(((c >> i) & 1) << pos for pos, i in enumerate(nodes)) for c in codes.tolist()]
        assert packed.tolist() == want
    # n = CODE_BITS: every odd unit and the top unit in arm B
    wide = Assignment.from_arms("AB" * (CODE_BITS // 2) + "B")
    codes = np.array([wide.code], dtype=np.int64)
    assert restrict_codes(codes, [1, 2, CODE_BITS - 2, CODE_BITS - 1]).tolist() == [0b1101]
    assert restrict_codes(codes, range(CODE_BITS)).tolist() == [wide.code]


def _gather_reference(codes, nodes):
    """The gather one code and one bit at a time, in Python integers."""
    return [sum(((c >> i) & 1) << pos for pos, i in enumerate(nodes)) for c in codes]


@st.composite
def _sorted_runs(draw):
    """A sorted node list made of maximal runs: gaps of at least one
    missing node between runs of 1..CODE_BITS consecutive nodes."""
    nodes: list[int] = []
    node = draw(st.integers(0, CODE_BITS - 1))
    while node < CODE_BITS:
        length = draw(st.integers(1, CODE_BITS - node))
        nodes.extend(range(node, node + length))
        node += length + draw(st.integers(1, CODE_BITS))
    return nodes


_CODE_BLOCKS = st.lists(st.integers(0, (1 << CODE_BITS) - 1), min_size=1, max_size=16)
_NODE_LISTS = st.one_of(
    _sorted_runs(),
    st.lists(st.integers(0, CODE_BITS - 1), unique=True, max_size=CODE_BITS),
    st.permutations(range(CODE_BITS)),
)


@settings(derandomize=True, max_examples=300)
@given(codes=_CODE_BLOCKS, nodes=_NODE_LISTS)
@example(codes=[0, 1, (1 << CODE_BITS) - 1], nodes=[])
@example(codes=[0, 1 << (CODE_BITS - 1), (1 << CODE_BITS) - 1], nodes=[CODE_BITS - 1])
@example(codes=[0, 5, (1 << CODE_BITS) - 2], nodes=[0])
@example(codes=[0, 12345, (1 << CODE_BITS) - 1], nodes=list(range(CODE_BITS)))
def test_restrict_codes_equals_the_per_bit_reference(codes, nodes):
    packed = restrict_codes(np.array(codes, dtype=np.int64), nodes)
    assert packed.dtype == np.int64 and packed.shape == (len(codes),)
    assert packed.tolist() == _gather_reference(codes, nodes)


def test_restrict_codes_runs_of_every_length():
    rng = np.random.default_rng(11)
    codes = rng.integers(0, 1 << CODE_BITS, size=32, dtype=np.int64).tolist()
    codes += [0, (1 << CODE_BITS) - 1]
    block = np.array(codes, dtype=np.int64)
    for length in range(1, CODE_BITS + 1):
        for start in {0, (CODE_BITS - length) // 2, CODE_BITS - length}:
            nodes = list(range(start, start + length))
            assert restrict_codes(block, nodes).tolist() == _gather_reference(codes, nodes)


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
