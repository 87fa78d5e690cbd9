"""Random-graph moments, the finite-n variance envelope, and regime sweeps.

For a graph drawn edge-by-edge with probability p, the degree of a node is
binomial, so graph-averages of 2^(neighborhood size) have product closed
forms; the same trick handles the shared-neighborhood size of a node pair.
Everything here is k=1 (interference through direct neighbors), the regime
in which the closed forms are available; general radii stay available in the
exact-analysis module.

The envelope ``h_bound`` plugs those moments into the closed-form variance
with all outcome products frozen at a single level C, giving the sandwich
h(K) <= E_graph[variance] <= h(M) for outcome levels separated from the
bounds.  Its behavior splits by density: along p = 1/n the product moments
stay bounded and the envelope decays like 1/n, while along p = 1/sqrt(n)
the per-node moment alone forces a diverging lower bound.

Closed forms are evaluated directly up to the float range and fall back to
a log-space overflow guard beyond it (n up to 10^6 stays finite wherever
the true value is finite in double precision).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Union

import numpy as np

from ._kernels import ORACLE_CAP, er_moment_scan, er_variance_scan, ht_variance_terms
from .designs import CODE_BITS
from .errors import CapacityError, InvalidArgumentError
from .graphs import Graph

SPARSE = "sparse"
DENSE = "dense"

_EXP_OVERFLOW = 709.0  # exp() overflows just above this


@dataclass(frozen=True)
class ERSpec:
    """Node count and edge probability of the random-graph model."""

    n: int
    p: float

    def __post_init__(self) -> None:
        if self.n < 2:
            raise InvalidArgumentError("pairwise moments need n >= 2")
        if not 0.0 <= self.p <= 1.0:
            raise InvalidArgumentError(f"edge probability must be in [0,1], got {self.p}")


def _guarded_power(base: float, exponent: int) -> float:
    """base**exponent with a log-space overflow guard (base >= 0, int exp)."""
    if exponent < 0:
        raise InvalidArgumentError("negative exponents not used here")
    if base == 0.0:
        return 1.0 if exponent == 0 else 0.0
    if exponent * math.log(base) > _EXP_OVERFLOW:
        return math.inf
    return base**exponent


def moment_two_pow_nbhd(spec: ERSpec) -> float:
    """Graph-average of 2^(closed neighborhood size): 2 (1+p)^(n-1)."""
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
    """The four-term finite-n envelope at outcome level c (c > 0)."""
    if c <= 0:
        raise InvalidArgumentError(f"outcome level must be positive, got {c}")
    n = spec.n
    terms = (
        (moment_two_pow_nbhd(spec) - 1.0) / n
        + (moment_two_pow_shared(spec) - 1.0)
        + 1.0 / n
        + (1.0 - prob_no_common(spec))
    )
    return 2.0 * terms * c * c


def dense_lower_bound(n: int, k_lower: float) -> float:
    """4 e^((n-1)/sqrt(n)) K^2 / n, the diverging floor along p = 1/sqrt(n)."""
    if k_lower <= 0:
        raise InvalidArgumentError(f"lower outcome level must be positive, got {k_lower}")
    arg = (n - 1) / math.sqrt(n)
    if arg > _EXP_OVERFLOW:
        return math.inf
    return 4.0 * math.exp(arg) * k_lower * k_lower / n


@dataclass(frozen=True)
class RegimeReport:
    """One point of an Example-style sweep: the bound value at this n and
    whether the regime's variance envelope vanishes or diverges with n."""

    n: int
    regime: str
    p: float
    value: float
    trend: str


def regime_report(n: int, regime: str, k_lower: float, m_upper: float) -> RegimeReport:
    """Evaluate the regime's bound at one n.

    Sparse (p = 1/n): the upper envelope h(M); n * value stays bounded over
    a sweep.  Dense (p = 1/sqrt(n)): the lower bound with K; strictly
    increasing in n.
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
    if spec.p < 1.0 / spec.n:
        return SPARSE
    if spec.p >= 1.0 / math.sqrt(spec.n):
        return DENSE
    return "intermediate"


def expected_effective_treatments(spec: ERSpec) -> float:
    """Graph-average count of effective treatments per unit: 2 (1+p)^(n-1),
    the average of 2^(closed neighborhood size).

    Along p = 1/n this converges to 2e; along p = 1/sqrt(n) it diverges.
    """
    return moment_two_pow_nbhd(spec)


def expected_informative_fraction(spec: ERSpec) -> float:
    """Graph-average fraction of assignments sharing a unit's effective
    treatment: (1/2) (1 - p/2)^(n-1).

    Along p = 1/n this converges to 1/(2 sqrt(e)); along p = 1/sqrt(n) it
    vanishes.
    """
    return 0.5 * _guarded_power(1.0 - spec.p / 2.0, spec.n - 1)


# ----------------------------------------------------------------------
# Sampling and Monte Carlo


def _draw_edges(
    spec: ERSpec, rng: np.random.Generator, left: np.ndarray, right: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """The one ER coin draw: keep each candidate pair (left[t], right[t])
    with probability p, one uniform draw per pair in the order given."""
    keep = rng.random(left.size) < spec.p
    return left[keep], right[keep]


def _draw_graph(spec: ERSpec, rng: np.random.Generator) -> Graph:
    """A graph from the coins of ``_draw_edges`` over every node pair in
    lexicographic (i, j) order."""
    left, right = _draw_edges(spec, rng, *np.triu_indices(spec.n, 1))
    return Graph.from_edges(spec.n, zip(left.tolist(), right.tolist()))


def sample_er_graph(spec: ERSpec, seed: int) -> Graph:
    """One graph draw, deterministic in the seed."""
    return _draw_graph(spec, np.random.default_rng(seed))


@dataclass(frozen=True)
class ConstantOutcomes:
    """Every unit's pure-arm outcomes pinned at one level."""

    value: float


@dataclass(frozen=True)
class UniformOutcomes:
    """Pure-arm outcomes drawn uniformly in (k_lower, m_upper) per replicate."""

    k_lower: float
    m_upper: float


TablePolicy = Union[ConstantOutcomes, UniformOutcomes]


@dataclass(frozen=True)
class MCVariance:
    mean: float
    stderr: float
    reps_used: int
    reps_rejected: int  # always 0: every replicate counts


def _closed_masks(own: np.ndarray, left: np.ndarray, right: np.ndarray) -> np.ndarray:
    """Closed 1-step neighborhood bitmasks from edge arrays: node i's own bit
    ``own[i]`` OR-ed with the bit of every node it shares an edge with."""
    masks = own.copy()
    np.bitwise_or.at(masks, left, own[right])
    np.bitwise_or.at(masks, right, own[left])
    return masks


def _replicate_variance(
    spec: ERSpec,
    policy: TablePolicy,
    seed: int,
    rep: int,
    pairs: tuple[np.ndarray, np.ndarray],
    own: np.ndarray,
) -> float:
    rng = np.random.default_rng(np.random.SeedSequence([seed, rep]))
    n = spec.n
    masks = _closed_masks(own, *_draw_edges(spec, rng, *pairs))
    if isinstance(policy, ConstantOutcomes):
        y_a = np.full(n, policy.value)
        y_b = np.full(n, policy.value)
    else:
        y_a = rng.uniform(policy.k_lower, policy.m_upper, size=n)
        y_b = rng.uniform(policy.k_lower, policy.m_upper, size=n)
    v_a, v_b, cov = ht_variance_terms(masks, y_a, y_b)
    return v_a + v_b - 2.0 * cov


def mc_expected_variance(
    spec: ERSpec, policy: TablePolicy, reps: int, seed: int
) -> MCVariance:
    """Monte Carlo estimate of the graph-expected estimator variance.

    Each replicate draws its edges with ``_draw_edges``, the coin stream
    ``sample_er_graph`` reads, and builds the closed 1-step neighborhood
    bitmasks straight from the two edge arrays: node i's mask is bit i
    OR-ed with the bit of every endpoint i shares an edge with.  No
    ``Graph`` is built per replicate; the node pairs come from one
    ``triu_indices`` per call, so they are distinct, ordered and in range
    by construction.  It then draws pure-arm outcomes per the policy, on
    the same stream after the coins, and evaluates the per-graph pairwise
    closed form of the exposure-weighted estimator's variance
    (``_kernels.ht_variance_terms``); that the closed form equals the
    variance enumerated over the fair-coin support is checked separately,
    through ``exact_moments``.  Replicates run serially, each seeded by
    (seed, index), so the estimate does not depend on the environment.
    Graphs above ``CODE_BITS`` nodes are refused before any is drawn: the
    closed form reads int64 neighborhood bitmasks, and no ball of at most
    ``CODE_BITS`` nodes overflows its 2^s weights, so every replicate counts.
    """
    if reps < 2:
        raise InvalidArgumentError(f"need reps >= 2, got {reps}")
    if spec.n > CODE_BITS:
        raise CapacityError(
            f"Monte Carlo needs n <= {CODE_BITS} (int64 neighborhood bitmasks), got n={spec.n}"
        )
    pairs = np.triu_indices(spec.n, 1)
    own = np.left_shift(1, np.arange(spec.n, dtype=np.int64))
    values = [_replicate_variance(spec, policy, seed, r, pairs, own) for r in range(reps)]
    mean = math.fsum(values) / reps
    sample_var = math.fsum((v - mean) ** 2 for v in values) / (reps - 1)
    return MCVariance(mean, math.sqrt(sample_var / reps), reps, 0)


# ----------------------------------------------------------------------
# Exhaustive oracles (each term scans the edges it depends on; n <= ORACLE_CAP)


def exhaustive_expected_variance(spec: ERSpec, c: float) -> float:
    """Exact graph-expectation of the closed-form variance at constant
    outcome level c, by enumerating the edges at each unit and node pair."""
    return er_variance_scan(spec.n, spec.p, c)


@dataclass(frozen=True)
class ERMomentOracle:
    two_pow_nbhd: float
    two_pow_shared: float
    prob_no_common: float


def exhaustive_moments(spec: ERSpec) -> ERMomentOracle:
    """The three closed-form moments recomputed by edge enumeration."""
    m1, m2, p0 = er_moment_scan(spec.n, spec.p)
    return ERMomentOracle(m1, m2, p0)
