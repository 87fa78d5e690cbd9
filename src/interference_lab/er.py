"""Random-graph moments, the finite-n variance envelope, and regime sweeps.

For a graph drawn edge-by-edge with probability p, the degree of a node is
binomial, so graph-averages of 2^(neighborhood size) have product closed
forms; the same trick handles the shared-neighborhood size of a node pair.
Everything here is k=1 (interference through direct neighbors), the regime
in which the closed forms are available; general radii stay available in the
exact-analysis module.

The envelope ``h_bound`` plugs those moments into the closed-form variance
with every outcome product frozen at one level C and the (n-1)/n factors
dropped, so h(M) bounds E_graph[variance] from above but h(K) does not bound
it from below (h(1) = 6.879 > 6.145 exact at n = 6, p = 0.3).  Along p = 1/n
the product moments stay bounded and the envelope decays like 1/n; along
p = 1/sqrt(n) the per-node moment diverges.

Graph coins and Monte Carlo draw on numpy's Generator: a graph takes
n(n-1)/2 coins without bound, on a fresh stream per replicate, where numpy
draws and starts streams faster than the package's own PCG64 (``_pcg64``
gives the costs; it serves the bounded random outcome tables instead);
``_pcg64`` still computes the replicate seeding.

Closed forms are evaluated directly up to the float range and fall back to
a log-space overflow guard beyond it (n up to 10^6 stays finite wherever
the true value is finite in double precision).
"""

from __future__ import annotations

import math
from typing import NamedTuple, Union

import numpy as np

from ._kernels import ORACLE_CAP, er_moment_scan, er_variance_scan, ht_variance_terms
from ._pcg64 import seed_states, seed_words
from .designs import CODE_BITS
from .errors import CapacityError, InvalidArgumentError
from .exact import _exact_sum, _weighted_square_sum
from .graphs import Graph

SPARSE = "sparse"
DENSE = "dense"

_EXP_OVERFLOW = 709.0  # exp() overflows just above this


class _ERSpecFields(NamedTuple):
    n: int
    p: float


class ERSpec(_ERSpecFields):
    """Node count and edge probability of the random-graph model."""

    __slots__ = ()

    def __new__(cls, n: int, p: float) -> "ERSpec":
        if n < 2:
            raise InvalidArgumentError("pairwise moments need n >= 2")
        if not 0.0 <= p <= 1.0:
            raise InvalidArgumentError(f"edge probability must be in [0,1], got {p}")
        return super().__new__(cls, n, p)


def _guarded_power(base: float, exponent: int) -> float:
    """base**exponent with a log-space overflow guard (base >= 0, int exp
    >= 0: every caller passes n - 1 or n - 2, and ``ERSpec`` has n >= 2)."""
    if base == 0.0:
        return 1.0 if exponent == 0 else 0.0
    if exponent * math.log(base) > _EXP_OVERFLOW:
        return math.inf
    return base**exponent


def moment_two_pow_nbhd(spec: ERSpec) -> float:
    """Graph-average of 2^(closed neighborhood size), the expected count of
    effective treatments per unit: 2 (1+p)^(n-1).

    Along p = 1/n this converges to 2e; along p = 1/sqrt(n) it diverges.
    """
    return 2.0 * _guarded_power(1.0 + spec.p, spec.n - 1)


def moment_two_pow_shared(spec: ERSpec) -> float:
    """Graph-average of 2^(shared closed-neighborhood size of a node pair):
    (3p+1) (1+p^2)^(n-2)."""
    return (3.0 * spec.p + 1.0) * _guarded_power(1.0 + spec.p * spec.p, spec.n - 2)


def prob_no_common(spec: ERSpec) -> float:
    """Probability a node pair's closed neighborhoods are disjoint:
    (1-p) (1-p^2)^(n-2)."""
    return (1.0 - spec.p) * _guarded_power(1.0 - spec.p * spec.p, spec.n - 2)


def h_bound(c: float, spec: ERSpec) -> float:
    """The four-term finite-n envelope at outcome level c (c > 0); an
    envelope past the double range raises OverflowError."""
    if not c > 0:  # NaN fails too
        raise InvalidArgumentError(f"outcome level must be positive, got {c}")
    n = spec.n
    terms = (
        (moment_two_pow_nbhd(spec) - 1.0) / n
        + (moment_two_pow_shared(spec) - 1.0)
        + 1.0 / n
        + (1.0 - prob_no_common(spec))
    )
    bound = 2.0 * terms * c * c
    if not math.isfinite(bound):
        raise OverflowError(f"envelope h({c}) past the double range at n={n}, p={spec.p}")
    return bound


def dense_lower_bound(n: int, k_lower: float) -> float:
    """4 e^((n-1)/sqrt(n)) K^2 / n along p = 1/sqrt(n).  Not a lower bound:
    e^(p(n-1)) exceeds (1+p)^(n-1), so at n = 64 it reads 164.4 against the
    exact 110.8."""
    if not k_lower > 0:  # NaN fails too
        raise InvalidArgumentError(f"k_lower: must be positive, got {k_lower}")
    arg = (n - 1) / math.sqrt(n)
    if arg > _EXP_OVERFLOW:
        return math.inf
    return 4.0 * math.exp(arg) * k_lower * k_lower / n


class RegimeReport(NamedTuple):
    """One point of an Example-style sweep: the envelope value at this n and
    whether it vanishes or diverges with n."""

    n: int
    regime: str
    p: float
    value: float
    trend: str


def regime_report(n: int, regime: str, k_lower: float, m_upper: float) -> RegimeReport:
    """Evaluate the regime's envelope at one n.

    Sparse (p = 1/n): the upper envelope h(M); n * value stays bounded over
    a sweep.  Dense (p = 1/sqrt(n)): ``dense_lower_bound`` with K, strictly
    increasing in n but above the exact variance, so not a lower bound.
    """
    if n < 4:
        raise InvalidArgumentError(f"regime sweeps need n >= 4, got {n}")
    if regime == SPARSE:
        p = 1.0 / n
        return RegimeReport(n, SPARSE, p, h_bound(m_upper, ERSpec(n, p)), "vanishing")
    if regime == DENSE:
        p = 1.0 / math.sqrt(n)
        return RegimeReport(n, DENSE, p, dense_lower_bound(n, k_lower), "diverging")
    raise InvalidArgumentError(f"regime must be 'sparse' or 'dense', got {regime!r}")


def classify_regime(spec: ERSpec) -> str:
    """Sparse at or below p = 1/n, dense at or above p = 1/sqrt(n)."""
    if spec.p <= 1.0 / spec.n:
        return SPARSE
    if spec.p >= 1.0 / math.sqrt(spec.n):
        return DENSE
    return "intermediate"


# The expected effective-treatment count under a second name, which
# perfbench's tracer binds.
expected_effective_treatments = moment_two_pow_nbhd


def expected_informative_fraction(spec: ERSpec) -> float:
    """Graph-average fraction of assignments sharing a unit's effective
    treatment: (1/2) (1 - p/2)^(n-1).

    Along p = 1/n this converges to 1/(2 sqrt(e)); along p = 1/sqrt(n) it
    vanishes.
    """
    return 0.5 * _guarded_power(1.0 - spec.p / 2.0, spec.n - 1)


# ----------------------------------------------------------------------
# Sampling and Monte Carlo


def _draw_edges(spec: ERSpec, rng: np.random.Generator, out: np.ndarray) -> np.ndarray:
    """The one ER coin draw: ``out[t]`` is set when candidate node pair t
    is kept, with probability p, one uniform draw per pair in order."""
    return np.less(rng.random(out.size), spec.p, out=out)


# Node pairs one explicit graph draw may hold.  Each pair costs about 25
# bytes while drawn (16 for its two int64 endpoints, 8 for its uniform coin,
# 1 for its keep flag), so 2^22 pairs (n <= 2896) is about 100 MB.
ER_DRAW_PAIR_CAP = 2**22


def sample_er_graph(spec: ERSpec, seed: int) -> Graph:
    """One graph draw, deterministic in the seed: the coins of
    ``_draw_edges`` over every node pair in lexicographic (i, j) order.
    More than ``ER_DRAW_PAIR_CAP`` pairs are refused before any is made."""
    pairs = spec.n * (spec.n - 1) // 2
    if pairs > ER_DRAW_PAIR_CAP:
        raise CapacityError(
            f"ER graph draws capped at {ER_DRAW_PAIR_CAP} node pairs, got n={spec.n} ({pairs} pairs)"
        )
    left, right = np.triu_indices(spec.n, 1)
    keep = _draw_edges(spec, np.random.default_rng(seed), np.empty(left.size, dtype=bool))
    return Graph.from_edges(spec.n, zip(left[keep].tolist(), right[keep].tolist()))


class ConstantOutcomes(NamedTuple):
    """Every unit's pure-arm outcomes pinned at one level."""

    value: float


class UniformOutcomes(NamedTuple):
    """Pure-arm outcomes drawn uniformly in (k_lower, m_upper) per replicate."""

    k_lower: float
    m_upper: float


TablePolicy = Union[ConstantOutcomes, UniformOutcomes]


class MCVariance(NamedTuple):
    mean: float
    stderr: float
    reps_used: int
    reps_rejected: int  # always 0: every replicate counts


# Mask pairs (replicates x n^2) per Monte Carlo block.  Each block costs a
# fixed count of numpy calls for its masks and closed form, so at n <= 60
# Monte Carlo is bound by per-call overhead, not arithmetic: 2^14 pairs put
# 72 replicates in a block at n = 15 and 4 at n = 60, and took the er-mc
# benchmark's compute time from 0.183 to 0.116 s; 2^12 leaves one replicate
# per block at n = 60 and measured no faster overall than one replicate at a
# time.  Larger blocks gained nothing measurable and grow the kernel's
# (R, n, n) arrays, near 128 KB each at 2^14.  Results do not depend on the
# block size.
MC_BLOCK_PAIRS = 2**14


def _block_masks(
    keep: np.ndarray, pairs: tuple[np.ndarray, np.ndarray], out: np.ndarray
) -> np.ndarray:
    """Closed 1-step neighborhood bitmasks of a block of graphs into the
    (R, n) ``out``: row r from the coin row ``keep[r]`` over ``pairs``, node
    i's own bit OR-ed with the bit of every node it shares a kept pair with."""
    n = out.shape[1]
    own = np.left_shift(1, np.arange(n, dtype=np.int64))
    rows, t = np.divmod(np.flatnonzero(keep), keep.shape[1])
    left, right = pairs[0][t], pairs[1][t]
    rows *= n
    out[:] = own
    np.bitwise_or.at(
        out.reshape(-1),
        np.concatenate((rows + left, rows + right)),
        np.concatenate((own[right], own[left])),
    )
    return out


# Replicates whose stream states are hashed together.  One hash makes about
# 180 numpy calls, 0.23 ms on 2-core x86-64 at any small count: hashed per
# MC block (4 replicates at n = 60) that is 58 us per replicate, against
# 17 us for one SeedSequence and generator; a chunk of 2^10 costs 1.3 us per
# replicate (2^12: 1.1 us) and keeps memory independent of reps.
SEED_CHUNK = 2**10
# Replicate indices below 2^32 are one 32-bit entropy word to SeedSequence.
MAX_REPS = 2**32


def mc_expected_variance(
    spec: ERSpec, policy: TablePolicy, reps: int, seed: int
) -> MCVariance:
    """Monte Carlo estimate of the graph-expected estimator variance.

    Replicate r runs on the PCG64 stream of ``SeedSequence([seed, r])``:
    first the coins of ``_draw_edges``, the draw ``sample_er_graph`` reads,
    over the node pairs of one ``triu_indices`` per call, then pure-arm
    outcomes per the policy.  The stream states are computed by one
    vectorized hash per ``SEED_CHUNK`` replicates (``_pcg64.seed_states``),
    identical to numpy's own, and loaded into one generator.  Replicates
    are evaluated in blocks of ``MC_BLOCK_PAIRS`` mask pairs: the coins and
    outcomes of a block's replicates go into the rows of preallocated
    buffers, one ``bitwise_or.at`` builds every closed 1-step neighborhood
    bitmask of the block from its kept pairs (no ``Graph`` and no BFS), and
    one ``_kernels.ht_variance_terms`` call evaluates the per-graph
    pairwise closed form of the exposure-weighted estimator's variance for
    the whole block, each graph bit for bit as on its own.  That the closed
    form equals the variance enumerated over the fair-coin support is
    checked separately, through ``exact_moments``.  The estimate depends on
    neither the block size nor the environment.  Graphs above ``CODE_BITS``
    nodes are refused before any is drawn: the closed form reads int64
    neighborhood bitmasks, and no ball of at most ``CODE_BITS`` nodes
    overflows its 2^s weights, so every replicate counts.  More than
    ``MAX_REPS`` replicates are refused too, since each index hashes as one
    32-bit word, and a variance past the double range raises OverflowError.
    """
    if reps < 2:
        raise InvalidArgumentError(f"need reps >= 2, got {reps}")
    if reps > MAX_REPS:
        raise CapacityError(f"Monte Carlo needs reps <= 2^32, got reps={reps}")
    if seed < 0:
        raise InvalidArgumentError(f"seed must be non-negative, got {seed}")
    if spec.n > CODE_BITS:
        raise CapacityError(
            f"Monte Carlo needs n <= {CODE_BITS} (int64 neighborhood bitmasks), got n={spec.n}"
        )
    n = spec.n
    pairs = np.triu_indices(n, 1)
    block = min(reps, max(1, MC_BLOCK_PAIRS // (n * n)))
    keep = np.empty((block, pairs[0].size), dtype=bool)
    masks = np.empty((block, n), dtype=np.int64)
    y_a = np.empty((block, n))
    y_b = np.empty((block, n))
    constant = isinstance(policy, ConstantOutcomes)
    if constant:
        y_a.fill(policy.value)
        y_b.fill(policy.value)
    rng = np.random.Generator(np.random.PCG64())  # state set per replicate
    chunks = ((first, min(SEED_CHUNK, reps - first)) for first in range(0, reps, SEED_CHUNK))
    states = (
        state
        for first, count in chunks
        for state in seed_states(
            seed_words(seed, count) + [np.arange(first, first + count, dtype=np.uint32)]
        )
    )
    blocks = []
    for start in range(0, reps, block):
        size = min(block, reps - start)
        for r, (state, inc) in zip(range(size), states):
            rng.bit_generator.state = {
                "bit_generator": "PCG64",
                "state": {"state": state, "inc": inc},
                "has_uint32": 0,
                "uinteger": 0,
            }
            _draw_edges(spec, rng, keep[r])
            if not constant:
                y_a[r] = rng.uniform(policy.k_lower, policy.m_upper, size=n)
                y_b[r] = rng.uniform(policy.k_lower, policy.m_upper, size=n)
        with np.errstate(over="ignore", invalid="ignore"):  # refused below instead
            v_a, v_b, cov = ht_variance_terms(
                _block_masks(keep[:size], pairs, masks[:size]), y_a[:size], y_b[:size]
            )
            blocks.append(v_a + v_b - 2.0 * cov)
    values = np.concatenate(blocks)
    if not np.isfinite(values).all():
        raise OverflowError(f"Monte Carlo variance past the double range at n={n}, p={spec.p}")
    mean = _exact_sum(values) / reps
    sample_var = _weighted_square_sum(values, 1.0, mean) / (reps - 1)
    return MCVariance(mean, math.sqrt(sample_var / reps), reps, 0)


# ----------------------------------------------------------------------
# Exhaustive oracles (each term scans the edges it depends on; n <= ORACLE_CAP)


def exhaustive_expected_variance(spec: ERSpec, c: float) -> float:
    """Exact graph-expectation of the closed-form variance at constant
    outcome level c, by enumerating the edges at unit 0 and at pair (0, 1),
    which stand for every unit and pair since ER nodes are exchangeable."""
    return er_variance_scan(spec.n, spec.p, c)


class ERMomentOracle(NamedTuple):
    two_pow_nbhd: float
    two_pow_shared: float
    prob_no_common: float


def exhaustive_moments(spec: ERSpec) -> ERMomentOracle:
    """The three closed-form moments recomputed by edge enumeration."""
    m1, m2, p0 = er_moment_scan(spec.n, spec.p)
    return ERMomentOracle(m1, m2, p0)
