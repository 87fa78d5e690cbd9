"""Exact moments of estimators by support enumeration, plus the two
closed-form variance identities the package cross-checks against it.

Everything here is deterministic: support iteration follows the canonical
ascending-code order and reductions use exact compensated summation
(``math.fsum``), so results do not depend on how work might be partitioned.
"""

from __future__ import annotations

import math
from typing import NamedTuple

import numpy as np

from ._kernels import ht_variance_terms
from .designs import Design, enumerate_support
from .errors import IdentityViolationError, InvalidArgumentError
from .estimators import Estimator
from .graphs import Graph, NeighborhoodIndex, NoInterference
from .outcomes import Estimand, PotentialOutcomeTable, estimand_value

# mse = variance + bias^2 is exact in real arithmetic; this is the slack we
# tolerate from rounding before declaring the computation broken.
_IDENTITY_RTOL = 1e-9


class MomentReport(NamedTuple):
    """Design-expectation, variance, and MSE of an estimator, plus the
    number of support points enumerated."""

    expectation: float
    variance: float
    mse_vs_estimand: float
    support_size: int


def _support_values(
    estimator: Estimator, design: Design, table: PotentialOutcomeTable
) -> tuple[np.ndarray, float]:
    """The estimator's value at every support code, in ascending code order,
    and the probability p of each code (every design law is uniform on its
    support, so one p serves all values).  A value past the double range
    raises OverflowError."""
    blocks = []
    with np.errstate(over="ignore", invalid="ignore"):  # refused below instead
        for codes, p in enumerate_support(design):
            blocks.append(estimator.evaluate(codes, table.observed(codes)))
    values = np.concatenate(blocks)
    if not np.isfinite(values).all():
        raise OverflowError("estimator value past the double range")
    return values, p


def _weighted_square_sum(values: np.ndarray, p: float, c: float) -> float:
    """``math.fsum(p * (v - c) ** 2 for v in values)`` over a float64 array,
    bit for bit: ``np.float_power(x, 2.0)`` rounds as CPython's ``x ** 2``
    does, where ``x * x`` and ``np.square`` do not.  One buffer is updated
    in place.  numpy returns inf where ``**`` raises, so a square past the
    double range raises ``OverflowError`` here too."""
    with np.errstate(over="ignore", invalid="ignore"):  # refused below instead
        buf = np.subtract(values, c)
        np.float_power(buf, 2.0, out=buf)
    if not np.isfinite(buf).all():
        raise OverflowError(f"squared deviation from {c} past the double range")
    buf *= p
    return math.fsum(buf)


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
    values, p = _support_values(estimator, design, table)
    expectation = math.fsum(values * p)
    variance = _weighted_square_sum(values, p, expectation)
    mse = _weighted_square_sum(values, p, theta)
    check = variance + (expectation - theta) ** 2
    if abs(mse - check) > _IDENTITY_RTOL * max(1.0, abs(mse)):
        raise IdentityViolationError(
            f"moment identity violated: mse={mse} vs var+bias^2={check}"
        )
    return MomentReport(expectation, variance, mse, len(values))


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
