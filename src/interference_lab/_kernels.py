"""Numeric hot loops, vectorized with numpy.

Two computations dominate runtime in this package: the pairwise closed-form
variance of the exposure-weighted estimator, and exhaustive scans over every
graph on n nodes (2^(n(n-1)/2) of them).

Bitmask convention: node sets are int64 masks with bit j set when node j is
in the set (so n <= 62).  Graph scans encode a graph as an integer whose
bit t is the t-th node pair in (0,1), (0,2), ..., (n-2,n-1) order.
"""

from __future__ import annotations

import numpy as np


# ----------------------------------------------------------------------
# Pairwise variance terms for the exposure-weighted estimator.
#
# v_a  = (1/n^2) [ sum_i (2^|N_i| - 1) ya_i^2
#                  + sum_{i != j} (2^|N_i & N_j| - 1) ya_i ya_j ]
# cov  = -(1/n^2) [ sum_i ya_i yb_i + sum_{i != j} ya_i yb_j 1{N_i & N_j != 0} ]


def ht_variance_terms(
    masks: np.ndarray, y_a: np.ndarray, y_b: np.ndarray
) -> tuple[float, float, float]:
    """(v_a, v_b, cov) from closed neighborhood masks and boundary outcomes."""
    masks = np.ascontiguousarray(masks, dtype=np.int64)
    y_a = np.ascontiguousarray(y_a, dtype=np.float64)
    y_b = np.ascontiguousarray(y_b, dtype=np.float64)
    n = masks.shape[0]
    sizes = np.bitwise_count(masks.astype(np.uint64)).astype(np.int64)
    pow_i = np.ldexp(1.0, sizes) - 1.0
    inter = masks[:, None] & masks[None, :]
    s_ij = np.bitwise_count(inter.astype(np.uint64)).astype(np.int64)
    w_ij = np.ldexp(1.0, s_ij) - 1.0
    np.fill_diagonal(w_ij, 0.0)
    touch = (inter != 0).astype(float)
    np.fill_diagonal(touch, 0.0)
    nn = float(n * n)
    va = (float(np.dot(pow_i, y_a * y_a)) + float(y_a @ w_ij @ y_a)) / nn
    vb = (float(np.dot(pow_i, y_b * y_b)) + float(y_b @ w_ij @ y_b)) / nn
    cv = (float(np.dot(y_a, y_b)) + float(y_a @ touch @ y_b)) / nn
    return va, vb, -cv


# ----------------------------------------------------------------------
# Exhaustive scans over all graphs on n nodes (1-step closed neighborhoods).


def _scan_arrays(n: int) -> tuple[np.ndarray, np.ndarray]:
    """Per-graph closed neighborhood masks (rows = graph codes) and edge
    counts."""
    m = n * (n - 1) // 2
    codes = np.arange(1 << m, dtype=np.int64)
    nbhd = np.empty((1 << m, n), dtype=np.int64)
    for i in range(n):
        nbhd[:, i] = 1 << i
    t = 0
    for i in range(n):
        for j in range(i + 1, n):
            bit = (codes >> t) & 1
            nbhd[:, i] |= bit << j
            nbhd[:, j] |= bit << i
            t += 1
    edges = np.bitwise_count(codes.astype(np.uint64)).astype(np.int64)
    return nbhd, edges


def _weights(edges: np.ndarray, m: int, p: float) -> np.ndarray:
    return np.power(p, edges) * np.power(1.0 - p, m - edges)


def er_moment_scan(n: int, p: float) -> tuple[float, float, float]:
    """Exact graph-averages of 2^|N_0|, 2^|N_0 & N_1|, and 1{N_0 & N_1 = 0}
    over all graphs on n nodes with independent edge probability p."""
    if n < 2 or n > 7:
        raise ValueError("exhaustive graph scans support 2 <= n <= 7")
    m = n * (n - 1) // 2
    nbhd, edges = _scan_arrays(n)
    w = _weights(edges, m, float(p))
    s0 = np.bitwise_count(nbhd[:, 0].astype(np.uint64)).astype(np.int64)
    inter = nbhd[:, 0] & nbhd[:, 1]
    s01 = np.bitwise_count(inter.astype(np.uint64)).astype(np.int64)
    mean_nbhd = float(np.dot(w, np.ldexp(1.0, s0)))
    mean_shared = float(np.dot(w, np.ldexp(1.0, s01)))
    prob_disjoint = float(np.dot(w, (inter == 0).astype(float)))
    return mean_nbhd, mean_shared, prob_disjoint


def er_variance_scan(n: int, p: float, c: float) -> float:
    """Exact graph-expectation of the closed-form estimator variance for a
    constant outcome level c, k=1, over all graphs on n nodes."""
    if n < 2 or n > 7:
        raise ValueError("exhaustive graph scans support 2 <= n <= 7")
    m = n * (n - 1) // 2
    nbhd, edges = _scan_arrays(n)
    w = _weights(edges, m, float(p))
    sizes = np.bitwise_count(nbhd.astype(np.uint64)).astype(np.int64)
    acc = np.full(1 << m, float(n))
    acc += (np.ldexp(1.0, sizes) - 1.0).sum(axis=1)
    for i in range(n):
        for j in range(i + 1, n):
            inter = nbhd[:, i] & nbhd[:, j]
            s = np.bitwise_count(inter.astype(np.uint64)).astype(np.int64)
            acc += 2.0 * (np.ldexp(1.0, s) - 1.0)
            acc += 2.0 * (inter != 0)
    return float(np.dot(w, acc)) * 2.0 * c * c / (n * n)
