"""Numeric hot loops, vectorized with numpy.

Two computations dominate runtime in this package: the pairwise closed-form
variance of the exposure-weighted estimator, and the exhaustive random-graph
oracles, which scan the settings of the edges each term depends on rather
than whole graphs.  The closed form takes a block of graphs, so that Monte
Carlo pays its numpy call overhead once per block of replicates; a single
graph is a one-row block.

Bitmask convention: node sets are int64 masks with bit j set when node j is
in the set (so n <= ``designs.CODE_BITS``).  Setting s of a pair's scan has
bit t set when the t-th edge touching the pair, in (0,1), (0,2), ...,
(n-2,n-1) order, is present.
"""

from __future__ import annotations

import math

import numpy as np

from .errors import CapacityError

# Largest graph the exhaustive oracles take: n(n-1)/2 pair scans of 2^(2n-3)
# edge settings each, 45 scans of 2^17 settings at n=10.
ORACLE_CAP = 10


# ----------------------------------------------------------------------
# Pairwise variance terms for the exposure-weighted estimator.
#
# v_a  = (1/n^2) [ sum_i (2^|N_i| - 1) ya_i^2
#                  + sum_{i != j} (2^|N_i & N_j| - 1) ya_i ya_j ]
# cov  = -(1/n^2) [ sum_i ya_i yb_i + sum_{i != j} ya_i yb_j 1{N_i & N_j != 0} ]


def _two_pow_minus_one(sizes: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
    """2^s - 1 in float64 for every popcount s in ``sizes``."""
    return np.subtract(np.ldexp(1.0, sizes, out=out), 1.0, out=out)


def _quadratic(x: np.ndarray, mat: np.ndarray, y: np.ndarray) -> np.ndarray:
    """x_r . mat_r y_r per row r: one gemv and one dot per row, as the 1-d
    ``x @ mat @ y`` of each row alone."""
    return ((x[:, None, :] @ mat) @ y[:, :, None])[:, 0, 0]


def _dot(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    """x_r . y_r per row r: one dot per row, as ``np.dot`` of each row alone."""
    return (x[:, None, :] @ y[:, :, None])[:, 0, 0]


def ht_variance_terms(
    masks: np.ndarray, y_a: np.ndarray, y_b: np.ndarray
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(v_a, v_b, cov), one entry per graph, from a block of R graphs: row r
    of the (R, n) ``masks`` holds graph r's closed neighborhood masks and
    row r of ``y_a``, ``y_b`` its boundary outcomes.

    The (R, n, n) pair arrays are built in single numpy passes; the sums go
    through stacked matmul, which makes the same BLAS gemv and dot calls
    per row as a one-graph evaluation, so a graph's terms do not depend on
    the block it is evaluated in.
    """
    masks = np.ascontiguousarray(masks, dtype=np.int64)
    y_a = np.ascontiguousarray(y_a, dtype=np.float64)
    y_b = np.ascontiguousarray(y_b, dtype=np.float64)
    n = masks.shape[1]
    # masks are non-negative (bits below CODE_BITS), so popcounts are set
    # bits, and 2^s - 1 is finite for every popcount
    pow_i = _two_pow_minus_one(np.bitwise_count(masks))
    shared = masks[:, :, None] & masks[:, None, :]
    # the weights overwrite the shared masks once they are counted
    w_ij = _two_pow_minus_one(np.bitwise_count(shared), out=shared.view(np.float64))
    w_ij.reshape(len(w_ij), n * n)[:, :: n + 1] = 0.0
    nn = float(n * n)
    va = (_dot(pow_i, y_a * y_a) + _quadratic(y_a, w_ij, y_a)) / nn
    vb = (_dot(pow_i, y_b * y_b) + _quadratic(y_b, w_ij, y_b)) / nn
    # w_ij >= 1 exactly where two balls meet and its diagonal is 0, so the
    # touch indicator overwrites it in place
    touch = np.minimum(w_ij, 1.0, out=w_ij)
    cv = (_dot(y_a, y_b) + _quadratic(y_a, touch, y_b)) / nn
    return va, vb, -cv


# ----------------------------------------------------------------------
# Exhaustive oracles (1-step closed neighborhoods).  By linearity of
# expectation a per-unit term depends only on the n-1 edges at the unit and
# a per-pair term only on the 2n-3 edges touching the pair, so each term is
# an exact scan over the settings of those edges alone.


def _pair_settings(n: int, i: int, j: int, p: float):
    """Every setting of the edges touching nodes i and j (those at i alone
    when i == j): the closed neighborhood masks of i and j, the number e of
    edges present, and p^e (1-p)^(m'-e), the probability of a setting with e
    of the m' edges present, indexed by e."""
    if n > ORACLE_CAP:
        raise CapacityError(
            f"exhaustive oracles capped at n={ORACLE_CAP}, got n={n}; "
            "use mc_expected_variance"
        )
    nbhd = np.array([[1 << i], [1 << j]], dtype=np.int64)
    touching = [(u, v) for u in range(n) for v in range(u + 1, n) if {u, v} & {i, j}]
    for u, v in touching:
        bits = [[1 << (u + v - x) if x in (u, v) else 0] for x in (i, j)]
        nbhd = np.concatenate([nbhd, nbhd | bits], axis=1)
    m = len(touching)
    e = np.arange(m + 1)
    present = np.bitwise_count(np.arange(1 << m)).astype(np.int64)
    return nbhd[0], nbhd[1], present, np.power(p, e) * np.power(1.0 - p, m - e)


def _mean(masks: np.ndarray, present: np.ndarray, prob: np.ndarray, term: np.ndarray) -> float:
    """Expectation of term[|mask|]: settings are counted exactly by (edges
    present, set size), and the weighted counts are summed with fsum."""
    key = present * term.size + np.bitwise_count(masks)
    count = np.bincount(key, minlength=prob.size * term.size).reshape(prob.size, -1)
    return math.fsum((prob[:, None] * count * term).ravel())


def er_moment_scan(n: int, p: float) -> tuple[float, float, float]:
    """Exact graph-averages of 2^|N_0|, 2^|N_0 & N_1|, and 1{N_0 & N_1 = 0}
    with independent edge probability p, from the edges touching (0, 1)."""
    nbhd_0, nbhd_1, present, prob = _pair_settings(n, 0, 1, float(p))
    sizes = np.arange(n + 1)
    pow2 = np.ldexp(1.0, sizes)
    shared = nbhd_0 & nbhd_1
    return (
        _mean(nbhd_0, present, prob, pow2),
        _mean(shared, present, prob, pow2),
        _mean(shared, present, prob, (sizes == 0).astype(float)),
    )


def er_variance_scan(n: int, p: float, c: float) -> float:
    """Exact graph-expectation of the closed-form estimator variance for a
    constant outcome level c, k=1: n per-unit terms 2^|N_i| - 1 and n(n-1)/2
    per-pair terms 2 (2^|N_i & N_j| - 1) + 2 1{N_i & N_j != 0}."""
    sizes = np.arange(n + 1)
    unit_term = np.ldexp(1.0, sizes) - 1.0
    pair_term = 2.0 * unit_term + 2.0 * (sizes > 0)
    terms = [float(n)]
    for i in range(n):
        for j in range(i, n):  # j == i scans the unit's own edges; N_i & N_i = N_i
            nbhd_i, nbhd_j, present, prob = _pair_settings(n, i, j, float(p))
            term = unit_term if i == j else pair_term
            terms.append(_mean(nbhd_i & nbhd_j, present, prob, term))
    return math.fsum(terms) * 2.0 * c * c / (n * n)
