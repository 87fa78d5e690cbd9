"""The package's own PCG64 stream against numpy's Generator.

Claims pinned here:
    - ``_pcg64.seed_state(seed)`` is numpy's own PCG64 state of
      ``SeedSequence(seed)``, for seeds of one to six 32-bit words
    - ``_pcg64.uniform(seed, low, high, count)`` equals
      ``np.random.default_rng(seed).uniform(low, high, size=count)`` bit for
      bit, for seeds of one to six 32-bit words, counts on both sides of the
      lane width and its double, up to the largest random table
      (``TABLE_VALUE_CAP`` = 14 * 2^14 = 229,376 draws), and bounds up to
      (5e-324, 1.7e308);
      a range past the double range raises OverflowError, as numpy does
    - ``PotentialOutcomeTable.random`` equals a table built from numpy's own
      draws: one stream in unit order, each unit's outcomes by key, for every
      structure
    - a negative seed is refused with one ``InvalidArgumentError`` by every
      draw: a random table, an ER graph and Monte Carlo
"""

import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import interference_lab
from interference_lab import (
    Arbitrary,
    ConstantOutcomes,
    ERSpec,
    Graph,
    InvalidArgumentError,
    KLocal,
    NoInterference,
    PotentialOutcomeTable,
    mc_expected_variance,
    reference_group,
    sample_er_graph,
)
from interference_lab import _pcg64
from interference_lab.outcomes import _BOUNDS_EPS_REL, TABLE_VALUE_CAP

LANES = _pcg64.LANES
COUNTS = [1, 2, 3, LANES - 1, LANES, LANES + 1, 2 * LANES - 1, 2 * LANES + 1, TABLE_VALUE_CAP]


# seeds of 1, 1, 2, 3, 4 and 6 words: the last two carry entropy words past
# SeedSequence's 4-word pool
@settings(derandomize=True, max_examples=200, deadline=None)
@given(seed=st.integers(0, 2**192 - 1))
@example(seed=0)
@example(seed=2**32 - 1)
@example(seed=2**32)
@example(seed=2**64 + 1)
@example(seed=2**127)
@example(seed=2**160 + 9)
def test_seed_state_equals_numpy_seeding(seed):
    state = np.random.PCG64(np.random.SeedSequence(seed)).state["state"]
    assert _pcg64.seed_state(seed) == (state["state"], state["inc"])


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
@example(seed=2**64 + 1, count=TABLE_VALUE_CAP, low=0.0, width=1.0)
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


# A negative seed has no 32-bit words (-1 >> 32 == -1), so hashing one
# would never end; the table draw runs in a child capped in time and in
# address space, so that such a loop fails the test instead of hanging it.
_NEGATIVE_SEED_TABLE = """
import resource
from interference_lab import InvalidArgumentError, NoInterference, PotentialOutcomeTable
resource.setrlimit(resource.RLIMIT_AS, (1 << 29, 1 << 29))
try:
    PotentialOutcomeTable.random(NoInterference(3), 0.0, 1.0, seed=-1)
except InvalidArgumentError as exc:
    print(exc)
"""


def test_every_draw_refuses_a_negative_seed():
    src = str(Path(interference_lab.__file__).resolve().parents[1])
    result = subprocess.run(
        [sys.executable, "-c", _NEGATIVE_SEED_TABLE],
        capture_output=True,
        text=True,
        timeout=30,
        env=dict(os.environ, PYTHONPATH=src),
    )
    assert result.stdout == "seed must be non-negative, got -1\n", result.stderr
    refusal = "^seed must be non-negative, got -1$"
    with pytest.raises(InvalidArgumentError, match=refusal):
        sample_er_graph(ERSpec(6, 0.3), -1)
    with pytest.raises(InvalidArgumentError, match=refusal):
        mc_expected_variance(ERSpec(6, 0.3), ConstantOutcomes(1.0), reps=2, seed=-1)
