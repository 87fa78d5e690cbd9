"""The package's own PCG64 stream against numpy's Generator.

Claims pinned here:
    - ``_pcg64.uniform(seed, low, high, count)`` equals
      ``np.random.default_rng(seed).uniform(low, high, size=count)`` bit for
      bit, for seeds of one to six 32-bit words, counts on both sides of the
      lane width and its double, up to the largest random table the CLI
      builds (14 * 2^14 = 229,376 draws), and bounds up to (5e-324, 1.7e308);
      a range past the double range raises OverflowError, as numpy does
    - ``PotentialOutcomeTable.random`` equals a table built from numpy's own
      draws: one stream in unit order for no-interference and k-local
      tables, the (2^n, n) matrix row-major for arbitrary ones
"""

import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from interference_lab import (
    Arbitrary,
    Graph,
    KLocal,
    NoInterference,
    PotentialOutcomeTable,
    reference_group,
)
from interference_lab import _pcg64
from interference_lab.outcomes import _BOUNDS_EPS_REL

LANES = _pcg64.LANES
COUNTS = [1, 2, 3, LANES - 1, LANES, LANES + 1, 2 * LANES - 1, 2 * LANES + 1, 229_376]


def _numpy_uniform(seed, low, high, count):
    return np.random.default_rng(seed).uniform(low, high, size=count)


# seeds of 1, 1, 2, 3, 4 and 6 words: the last two carry entropy words past
# SeedSequence's 4-word pool
@settings(derandomize=True, max_examples=60, deadline=None)
@given(
    seed=st.integers(0, 2**192 - 1),
    count=st.sampled_from(COUNTS),
    low=st.floats(0.0, 1e300),
    width=st.floats(0.0, 1e300),
)
@example(seed=0, count=1, low=0.0, width=1.0)
@example(seed=2**32 - 1, count=2, low=5e-324, width=1.7e308)
@example(seed=2**32, count=LANES + 1, low=5e-324, width=1.7e308)
@example(seed=2**64 + 1, count=229_376, low=0.0, width=1.0)
@example(seed=2**127, count=LANES - 1, low=1e-9, width=1.0 - 2e-9)
@example(seed=2**160 + 9, count=2 * LANES + 1, low=5e-324, width=1.7e308)
def test_uniform_equals_numpy(seed, count, low, width):
    high = low + width
    want = _numpy_uniform(seed, low, high, count)
    got = _pcg64.uniform(seed, low, high, count)
    assert got.dtype == want.dtype and got.shape == want.shape
    assert np.array_equal(got.view(np.uint64), want.view(np.uint64))


def test_range_past_the_double_range_raises_like_numpy():
    with pytest.raises(OverflowError, match="range exceeds valid bounds"):
        _numpy_uniform(0, -1.7e308, 1.7e308, 1)
    with pytest.raises(OverflowError, match="range exceeds valid bounds"):
        _pcg64.uniform(0, -1.7e308, 1.7e308, 1)
    assert _pcg64.uniform(0, 0.0, 1.0, 0).shape == (0,)


def _numpy_table(structure, k_lower, m_upper, seed):
    """The outcome arrays of a random table, drawn with numpy's Generator."""
    rng = np.random.default_rng(seed)
    eps = _BOUNDS_EPS_REL * (m_upper - k_lower)
    lo, hi = k_lower + eps, m_upper - eps
    if isinstance(structure, Arbitrary):
        return list(rng.uniform(lo, hi, size=(1 << structure.n, structure.n)).T)
    sizes = [1 << len(reference_group(structure, i)) for i in range(structure.n)]
    return [rng.uniform(lo, hi, size=size) for size in sizes]


_GRAPH = Graph.from_edges(7, [(0, 1), (1, 2), (2, 3), (3, 0), (4, 5), (1, 5)])
STRUCTURES = {
    "none": NoInterference(9),
    "k_local-1": KLocal(_GRAPH, 1),
    "k_local-2": KLocal(_GRAPH, 2),
    "arbitrary-5": Arbitrary(5),
    "arbitrary-14": Arbitrary(14),
}


@pytest.mark.parametrize("name", STRUCTURES)
@pytest.mark.parametrize("seed", [0, 12, 2**70 + 3])
def test_random_table_equals_numpy_draws(name, seed):
    structure = STRUCTURES[name]
    table = PotentialOutcomeTable.random(structure, 0.5, 1.7e308, seed)
    want = _numpy_table(structure, 0.5, 1.7e308, seed)
    assert len(table._values) == len(want)
    for got, ref in zip(table._values, want):
        assert got.shape == ref.shape
        assert np.array_equal(got, ref)
        assert math.isfinite(float(got.max()))
