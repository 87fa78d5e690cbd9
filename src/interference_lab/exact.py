"""Exact moments of estimators by support enumeration, plus the two
closed-form variance identities the package cross-checks against it.

Everything here is deterministic: support iteration follows the canonical
ascending-code order, and every support-sized sum goes through
``_exact_sum``, a vectorized exact summation that returns ``math.fsum``'s
correctly rounded result bit for bit, so results do not depend on how work
might be partitioned.  Every squared deviation in the variance and MSE is
an IEEE product, ``d * d``: correctly rounded, computed with no libm call,
and so the same whatever ``pow`` the platform's libm provides.
"""

from __future__ import annotations

import math
import sys
from typing import NamedTuple

import numpy as np

from ._kernels import ht_variance_terms
from .designs import Design, enumerate_support
from .errors import IdentityViolationError, InvalidArgumentError
from .estimators import Estimator
from .graphs import Graph, NeighborhoodIndex, NoInterference
from .outcomes import Estimand, PotentialOutcomeTable, estimand_value

# mse = variance + bias^2 is exact in real arithmetic.  Computed, mse and
# the variance each lie within a few ulps of their own value, which
# _IDENTITY_RTOL covers.  But the variance is centred on the computed
# expectation, off by up to about eps * max|v| from the exact one, and that
# moves mse - variance - bias^2 by up to about 3 eps * max(|v|, |theta|) *
# |bias|: rounding noise of the summed values' size, not of mse's.  The
# second term of the slack bounds it with a margin.
_IDENTITY_RTOL = 1e-9
_IDENTITY_SCALE_EPS = 8 * sys.float_info.epsilon


class MomentReport(NamedTuple):
    """Design-expectation, variance, and MSE of an estimator, the number of
    support points enumerated, and the estimand the MSE is taken against."""

    expectation: float
    variance: float
    mse_vs_estimand: float
    support_size: int
    estimand_value: float


def _support_values(
    estimator: Estimator, design: Design, observed
) -> tuple[np.ndarray, float]:
    """The estimator's value at every support code, in ascending code order,
    on the outcomes the lookup ``observed`` reveals, and the probability p
    of each code (every design law is uniform on its support, so one p
    serves all values).  A value past the double range raises OverflowError."""
    blocks = []
    with np.errstate(over="ignore", invalid="ignore"):  # refused below instead
        for codes, p in enumerate_support(design):
            blocks.append(estimator.evaluate(codes, observed(codes)))
    values = np.concatenate(blocks)
    if not np.isfinite(values).all():
        raise OverflowError("estimator value past the double range")
    return values, p


# frexp exponents of doubles run from -1073 (the least subnormal) to 1024.
_EXP_MIN = -1073
_BUCKET_SCALE = np.arange(1024 - _EXP_MIN + 1) + _EXP_MIN - 27
# Each value splits into an integer part under 2^27 and a fraction of 26
# bits, so float64 sums 2^26 of either part per exponent exactly.
_EXACT_BLOCK = 2**26
# Values per numpy pass, a divisor of _EXACT_BLOCK: 2^13 keeps the
# temporaries (about 28 bytes per value) in cache.  On 2-core x86-64, 2^20
# values took 17.7 ms in one pass and 7.7 ms in passes of 2^13.
_SUM_CHUNK = 2**13


def _exact_sum(values: np.ndarray) -> float:
    """``math.fsum(values)`` over a float64 array, bit for bit, in a fixed
    number of numpy passes per ``_SUM_CHUNK`` values.  Each value is
    m * 2^e with 1/2 <= |m| < 1; m * 2^27 splits into an integer part and
    a fraction, and ``np.bincount`` sums each part per exponent e exactly.
    The scaled bucket sums (at most 2 * 2098 per ``_EXACT_BLOCK`` values)
    are exact, so ``math.fsum`` of them is the correctly rounded total, as
    is ``math.fsum`` of the values.  Where n * max|v| is not below 2^1022
    (an overflow, an infinity or a NaN among them) and where every bucket
    sums to zero (as when every value is a zero, whose sign ``math.fsum``
    sets), ``math.fsum`` sums the values itself."""
    limit = 2.0**1022 / max(1, len(values))
    if not (-limit < values.min(initial=0.0) and values.max(initial=0.0) < limit):
        return math.fsum(values)
    parts = []
    for block in range(0, len(values), _EXACT_BLOCK):
        sums = np.zeros((2, _BUCKET_SCALE.size))
        for start in range(block, min(len(values), block + _EXACT_BLOCK), _SUM_CHUNK):
            m, e = np.frexp(values[start : start + _SUM_CHUNK])
            e -= _EXP_MIN
            m *= 2.0**27
            whole = np.trunc(m)
            m -= whole
            sums[0] += np.bincount(e, weights=whole, minlength=_BUCKET_SCALE.size)
            sums[1] += np.bincount(e, weights=m, minlength=_BUCKET_SCALE.size)
        scaled = np.ldexp(sums, _BUCKET_SCALE)
        parts += scaled[scaled != 0.0].tolist()
    return math.fsum(parts) if parts else math.fsum(values)


def _weighted_square_sum(values: np.ndarray, p: float, c: float) -> float:
    """``math.fsum(p * ((v - c) * (v - c)) for v in values)`` over a float64
    array, bit for bit.  Each square is an IEEE product, so it is correctly
    rounded and calls no libm ``pow``, whose ``x ** 2`` is not on every
    platform.  One buffer is updated in place.  A square past the double
    range raises ``OverflowError``."""
    with np.errstate(over="ignore", invalid="ignore"):  # refused below instead
        buf = np.subtract(values, c)
        np.multiply(buf, buf, out=buf)
    if not np.isfinite(buf).all():
        raise OverflowError(f"squared deviation from {c} past the double range")
    buf *= p
    return _exact_sum(buf)


def exact_moments(
    estimator: Estimator,
    design: Design,
    table: PotentialOutcomeTable,
    estimand: Estimand,
) -> MomentReport:
    """Enumerate the design's support and reduce the estimator exactly."""
    if table.n != design.n:
        raise InvalidArgumentError(f"table has n={table.n}, design has n={design.n}")
    theta = estimand_value(estimand, table)
    values, p = _support_values(estimator, design, table.observed)
    expectation = _exact_sum(values * p)
    variance = _weighted_square_sum(values, p, expectation)
    mse = _weighted_square_sum(values, p, theta)
    bias = expectation - theta
    check = variance + bias * bias
    scale = max(float(np.abs(values).max()), abs(theta))
    slack = _IDENTITY_RTOL * max(1.0, abs(mse)) + _IDENTITY_SCALE_EPS * scale * abs(bias)
    if abs(mse - check) > slack:
        raise IdentityViolationError(
            f"moment identity violated: mse={mse} vs var+bias^2={check}"
        )
    return MomentReport(expectation, variance, mse, len(values), theta)


class NeymanTerms(NamedTuple):
    """Finite-population variance pieces of the difference in means under a
    fixed-group-size design with no interference.

    ``variance`` is v_a/n_a + v_b/n_b - v_theta/n, the exact design variance.
    ``bound`` is the coarse envelope 4 M^2 / (n - 1) when an upper outcome
    bound M is declared on the table, else None.
    """

    v_a: float
    v_b: float
    v_theta: float
    variance: float
    bound: float | None


def neyman_variance_terms(table: PotentialOutcomeTable, n_a: int) -> NeymanTerms:
    """Sample-variance terms (denominator n-1) of the Neyman decomposition."""
    if not isinstance(table.structure, NoInterference):
        raise InvalidArgumentError("the decomposition needs a no-interference table")
    n = table.n
    if n < 2:
        raise InvalidArgumentError("need at least two units")
    if not 0 < n_a < n:
        raise InvalidArgumentError(f"need 0 < n_a < n, got n_a={n_a}, n={n}")
    y_a, y_b = table.boundary_vectors()
    v_a = float(np.var(y_a, ddof=1))
    v_b = float(np.var(y_b, ddof=1))
    v_theta = float(np.var(y_a - y_b, ddof=1))
    variance = v_a / n_a + v_b / (n - n_a) - v_theta / n
    bound = None
    if table.m_upper is not None:
        bound = 4.0 * table.m_upper**2 / (n - 1)
    return NeymanTerms(v_a, v_b, v_theta, variance, bound)


class HTVarianceTerms(NamedTuple):
    """Closed-form variance pieces of the exposure-weighted estimator under
    the fair-coin design: per-arm terms, the cross-arm covariance, and the
    total v_a + v_b - 2 cov."""

    v_a: float
    v_b: float
    cov: float
    total: float


def ht_variance_closed_form(
    graph: Graph, k: int, table: PotentialOutcomeTable
) -> HTVarianceTerms:
    """Evaluate the pairwise closed form from boundary outcome vectors.

    The pairwise exponent is the size of the plain neighborhood
    intersection |N_i & N_j| (the form the derivation actually uses; its
    statement elsewhere decorates the sets with an arm label, but the two
    coincide for the events involved and enumeration confirms this version).
    """
    if table.n != graph.n:
        raise InvalidArgumentError(f"table has n={table.n}, graph has n={graph.n}")
    index = NeighborhoodIndex.build(graph, k)
    y_a, y_b = table.boundary_vectors()
    terms = ht_variance_terms(index.masks()[None], y_a[None], y_b[None])
    v_a, v_b, cov = (float(t[0]) for t in terms)
    return HTVarianceTerms(v_a, v_b, cov, v_a + v_b - 2.0 * cov)
