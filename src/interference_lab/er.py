"""Random-graph moments, the exact graph-expected variance, and regime sweeps.

For a graph drawn edge-by-edge with probability p, the degree of a node is
binomial, so graph-averages of 2^(neighborhood size) have product closed
forms; the same trick handles the shared-neighborhood size of a node pair.
Everything here is k=1 (interference through direct neighbors), the regime
in which the closed forms are available; general radii stay available in the
exact-analysis module.

``h_bound`` plugs those moments into the closed-form variance with every
outcome product frozen at one level c: by linearity of expectation it is the
exact graph average R(c) = 2c^2 [M1/n + (n-1)/n (M2 - P0)].  Every
coefficient of that variance is nonnegative, so for outcomes in [K, M] with
K >= 0, h(K) <= E_graph[variance] <= h(M).  Along p = 1/n the product
moments stay bounded and h decays like 1/n; along p = 1/sqrt(n) the
per-node moment diverges, and so does h(K).

A one-off graph draw (``sample_er_graph``) takes its coins from
``random.Random(seed)`` (``designs._uniform_draws``), as random outcome
tables do, so it does not load ``numpy.random``.  Monte Carlo alone draws
on numpy's Generator: one ``default_rng(seed)`` stream per call, from which
every replicate draws its n(n-1)/2 coins in turn, where numpy draws about
ten times faster per coin.  Both keep a pair when its coin is below p, in the
same pair order, but from different streams.

Closed forms are evaluated directly, and a power past the double range
reads as inf.  Along p = 1/sqrt(n) the per-node moment M1 stays finite up
to n = 503,518 and is inf from n = 503,519, where h, and with it the dense
floor, raises OverflowError.
"""

from __future__ import annotations

import math
from typing import NamedTuple, Union

import numpy as np

from ._kernels import ORACLE_CAP, er_moment_scan, er_variance_scan, ht_variance_terms
from .designs import CODE_BITS, _uniform_draws, check_seed
from .errors import CapacityError, InvalidArgumentError
from .exact import _exact_sum, _weighted_square_sum
from .graphs import Graph


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
    """base**exponent, or inf past the double range (base >= 0, int exp
    >= 0: every caller passes n - 1 or n - 2, and ``ERSpec`` has n >= 2).
    An exponent past the float range raises OverflowError, whatever the
    base, since it converts before the power is taken."""
    exponent = float(exponent)
    try:
        return base**exponent
    except OverflowError:
        return math.inf


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
    """The exact graph-expected variance R(c) = 2c^2 [M1/n + (n-1)/n (M2 - P0)]
    at constant outcome level c (c > 0), so h(K) and h(M) bound it for
    outcomes in [K, M]; a value past the double range raises OverflowError."""
    if not c > 0:  # NaN fails too
        raise InvalidArgumentError(f"outcome level must be positive, got {c}")
    n = spec.n
    terms = moment_two_pow_nbhd(spec) / n + (n - 1) / n * (
        moment_two_pow_shared(spec) - prob_no_common(spec)
    )
    bound = 2.0 * terms * c * c
    if not math.isfinite(bound):
        raise OverflowError(f"envelope h({c}) past the double range at n={n}, p={spec.p}")
    return bound


def dense_lower_bound(n: int, k_lower: float) -> float:
    """The exact floor h(K) along p = 1/sqrt(n)."""
    return h_bound(k_lower, ERSpec(n, 1 / math.sqrt(n)))


class RegimeReport(NamedTuple):
    """One row of the regimes table, its field names the CSV header: the
    upper bound h(M) along p = 1/n, where n * h stays bounded over a sweep,
    and the floor h(K) along p = 1/sqrt(n), strictly increasing in n."""

    n: int
    sparse_p: float
    sparse_h: float
    n_times_sparse_h: float
    dense_p: float
    dense_lower_bound: float


def regime_report(n: int, k_lower: float, m_upper: float) -> RegimeReport:
    """Both regimes' bounds at one n."""
    if n < 4:
        raise InvalidArgumentError(f"regime sweeps need n >= 4, got {n}")
    sparse_p = 1.0 / n
    sparse_h = h_bound(m_upper, ERSpec(n, sparse_p))
    return RegimeReport(
        n, sparse_p, sparse_h, n * sparse_h, 1.0 / math.sqrt(n), dense_lower_bound(n, k_lower)
    )


def classify_regime(spec: ERSpec) -> str:
    """Sparse at or below p = 1/n, dense at or above p = 1/sqrt(n)."""
    if spec.p <= 1.0 / spec.n:
        return "sparse"
    if spec.p >= 1.0 / math.sqrt(spec.n):
        return "dense"
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


# Node pairs one explicit graph draw may hold.  Each pair costs about 25
# bytes while drawn (16 for its two int64 endpoints, 8 for its uniform coin,
# 1 for its keep flag), so 2^22 pairs (n <= 2896) is about 100 MB.  The
# coins come from ``random.Random(seed)``, which beats numpy's import plus
# draw below about 300,000 pairs and loses past it: 2^22 coins take about
# 170 ms against numpy's 13 ms plus its 9-17 ms import (2-core x86-64).
# No command draws that many: ``tables`` stops at n = 1074 (576,201 coins,
# about 35 ms against 2.5 ms plus the import), and ``moments`` at 91 pairs.
ER_DRAW_PAIR_CAP = 2**22


def sample_er_graph(spec: ERSpec, seed: int) -> Graph:
    """One graph draw, deterministic in the seed: node pair t, in
    lexicographic (i, j) order, is kept when the t-th value of
    ``random.Random(seed).random()`` is below p, so the draw does not load
    ``numpy.random``.  More than ``ER_DRAW_PAIR_CAP`` pairs are refused
    before any is made."""
    pairs = spec.n * (spec.n - 1) // 2
    if pairs > ER_DRAW_PAIR_CAP:
        raise CapacityError(
            f"ER graph draws capped at {ER_DRAW_PAIR_CAP} node pairs, got n={spec.n} ({pairs} pairs)"
        )
    left, right = np.triu_indices(spec.n, 1)
    keep = _uniform_draws(seed, left.size) < spec.p
    return Graph.from_edges(spec.n, zip(left[keep].tolist(), right[keep].tolist()))


class ConstantOutcomes(NamedTuple):
    """Every unit's pure-arm outcomes pinned at one level."""

    value: float


class UniformOutcomes(NamedTuple):
    """Pure-arm outcomes drawn uniformly in [k_lower, m_upper) per replicate,
    as numpy's ``uniform`` draws them."""

    k_lower: float
    m_upper: float


TablePolicy = Union[ConstantOutcomes, UniformOutcomes]


class MCVariance(NamedTuple):
    mean: float
    stderr: float
    reps_used: int
    reps_rejected: int  # always 0: every replicate counts


# Mask pairs (replicates x n^2) per Monte Carlo pass.  A pass draws its
# replicates' coins, builds their masks with one ``_block_masks`` call and
# evaluates their closed forms with one ``ht_variance_terms`` call, so at
# n <= 60 Monte Carlo is bound by per-call overhead, not arithmetic, and
# larger passes pay it less often but grow the kernel's (R, n, n) arrays.
# On the three er-mc benchmark cases (n = 15, 30, 60 along p = 1/n, 500
# replicates each; best of 40 runs, 2-core x86-64) 2^14 pairs took 27-31
# ms, 2^15 took 23-26 ms and 2^16 21-23 ms, with traced peaks of 0.34-0.38,
# 0.49-0.55 and 0.77-0.88 MB: 2^15 takes most of the gain for about half of
# 2^16's memory.  It puts 145 replicates in a pass at n = 15 and 9 at n = 60,
# and each (R, n, n) array is 256 KB.  Results do not depend on the pass size.
MC_BLOCK_PAIRS = 2**15


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


def check_monte_carlo(spec: ERSpec, reps: int) -> None:
    """Refuse the runs ``mc_expected_variance`` refuses, before it starts."""
    if reps < 2:
        raise InvalidArgumentError(f"need reps >= 2, got {reps}")
    if spec.n > CODE_BITS:
        raise CapacityError(
            f"Monte Carlo needs n <= {CODE_BITS} (int64 neighborhood bitmasks), got n={spec.n}"
        )


def mc_expected_variance(
    spec: ERSpec, policy: TablePolicy, reps: int, seed: int
) -> MCVariance:
    """Monte Carlo estimate of the graph-expected estimator variance.

    Every replicate draws, in order, from one ``default_rng(seed)`` stream:
    first one coin per node pair of one ``triu_indices`` per call, the pair
    kept when its coin is below p, then, under ``UniformOutcomes`` only,
    n values for y_a and n for y_b, each ``k_lower + (m_upper - k_lower) u``
    as numpy's ``uniform`` computes it.  This is the one draw in the package
    that loads ``numpy.random``.  Replicates run in passes of up to
    ``MC_BLOCK_PAIRS`` mask pairs, each filling the rows of one
    preallocated buffer with one ``random`` call; the buffer fills in row
    order, so the estimate depends on neither the pass size nor the
    environment.  In each pass one ``bitwise_or.at`` builds every closed
    1-step neighborhood bitmask from the kept pairs (no ``Graph`` and no
    BFS), and one ``_kernels.ht_variance_terms`` call evaluates the
    per-graph pairwise closed form of the exposure-weighted estimator's
    variance, each graph bit for bit as on its own.  That the closed form
    equals the variance enumerated over the fair-coin support is checked
    separately, through ``exact_moments``.  Graphs above ``CODE_BITS``
    nodes are refused before any is drawn: the closed form reads int64
    neighborhood bitmasks, and no ball of at most ``CODE_BITS`` nodes
    overflows its 2^s weights, so every replicate counts.  A variance past
    the double range raises OverflowError.
    """
    check_monte_carlo(spec, reps)
    check_seed(seed)
    n = spec.n
    pairs = np.triu_indices(n, 1)
    m = pairs[0].size
    constant = isinstance(policy, ConstantOutcomes)
    rows = min(reps, max(1, MC_BLOCK_PAIRS // (n * n)))
    draws = np.empty((rows, m if constant else m + 2 * n))
    keep = np.empty((rows, m), dtype=bool)
    masks = np.empty((rows, n), dtype=np.int64)
    if constant:
        y_a = y_b = np.full((rows, n), policy.value)
    rng = np.random.default_rng(seed)
    passes = []
    for first in range(0, reps, rows):
        size = min(rows, reps - first)
        block = rng.random(out=draws[:size])
        np.less(block[:, :m], spec.p, out=keep[:size])
        if not constant:
            y = block[:, m:]
            y *= policy.m_upper - policy.k_lower
            y += policy.k_lower
            y_a, y_b = y[:, :n], y[:, n:]
        _block_masks(keep[:size], pairs, masks[:size])
        with np.errstate(over="ignore", invalid="ignore"):  # refused below instead
            v_a, v_b, cov = ht_variance_terms(masks[:size], y_a[:size], y_b[:size])
            passes.append(v_a + v_b - 2.0 * cov)
    values = np.concatenate(passes)
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
