"""Estimators: rules mapping (assignment, observed outcomes) to a number.

Every estimator here has one evaluation body, ``evaluate(codes, y)``: for an
int64 block of assignment codes and the ``(len(codes), n)`` outcomes each
reveals, it returns one value per code.  ``estimator(z, y_obs) -> float`` is
that body on the single assignment ``z``.  ``y_obs`` is the length-n vector
of outcomes actually revealed by ``z``; no estimator peeks at unrevealed
potential outcomes.
"""

from __future__ import annotations

from typing import Iterable, Union

import numpy as np

from .designs import Assignment
from .errors import IncompleteEstimatorError, InvalidArgumentError
from .graphs import NeighborhoodIndex


def _one_row(self, z: Assignment, y_obs: np.ndarray) -> float:
    """``evaluate`` on one assignment and the n outcomes it reveals."""
    y = np.asarray(y_obs, dtype=float)
    if y.shape != (z.n,):
        raise InvalidArgumentError(f"need {z.n} outcomes, got shape {y.shape}")
    return float(self.evaluate(np.array([z.code], dtype=np.int64), y[None, :])[0])


class DifferenceInMeans:
    """Mean observed outcome in arm A minus mean in arm B.

    Group sizes are read off the realized assignment; an empty arm
    contributes zero (it can only occur under coin-flip designs, where the
    pure vectors have positive probability).
    """

    def evaluate(self, codes: np.ndarray, y: np.ndarray) -> np.ndarray:
        n = y.shape[1]
        in_b = ((codes[:, None] >> np.arange(n)) & 1).astype(bool)
        n_b = np.bitwise_count(codes)
        out = np.empty(len(codes))
        # Rows sharing an arm-B count reshape into (rows, count) arm blocks,
        # whose row sums add in the same order as one row's masked sum.
        for k in np.flatnonzero(np.bincount(n_b)).tolist():
            rows = n_b == k
            y_k, b_k = y[rows], in_b[rows]
            mean_a = y_k[~b_k].reshape(-1, n - k).sum(axis=1) / (n - k) if k < n else 0.0
            mean_b = y_k[b_k].reshape(-1, k).sum(axis=1) / k if k else 0.0
            out[rows] = mean_a - mean_b
        return out

    __call__ = _one_row


class HorvitzThompson:
    """Inverse-exposure-probability weighted contrast of revealed outcomes.

    A unit contributes its observed outcome, weighted by one over the
    fair-coin probability that its whole closed k-step ball sits in one arm,
    whenever that event holds.  Valid as stated under k-local interference,
    where the observed outcome of an exposed unit equals its pure-arm
    potential outcome; evaluation requires no access to the full table.
    """

    def __init__(self, index: NeighborhoodIndex) -> None:
        self.index = index
        self._masks = [int(m) for m in index.masks()]
        self._weights = [2.0 ** len(ball) for ball in index.closed]

    def evaluate(self, codes: np.ndarray, y: np.ndarray) -> np.ndarray:
        n = self.index.n
        if y.shape[1] != n:
            raise InvalidArgumentError(f"outcomes for {y.shape[1]} units, index has n={n}")
        total = np.zeros(len(codes))
        # Unit by unit, so each row adds its terms in unit order; adding 0.0
        # for a unit whose ball is mixed is exact.
        for i, (mask, weight) in enumerate(zip(self._masks, self._weights)):
            ball = codes & mask  # 0: ball all in arm A; mask: all in arm B
            term = weight * y[:, i]
            total += np.where(ball == 0, term, np.where(ball == mask, -term, 0.0))
        return total / n

    __call__ = _one_row


class PureArmIPW:
    """Estimator supported on the two pure assignments only.

    Evaluates to 2^n times the mean outcome when every unit is in arm A,
    minus that when every unit is in arm B, and 0 otherwise: the unique
    zero-offset unbiased rule for the mean contrast under the fair-coin
    design when interference is unrestricted.
    """

    def evaluate(self, codes: np.ndarray, y: np.ndarray) -> np.ndarray:
        n = y.shape[1]
        out = np.zeros(len(codes))
        for code, sign in ((0, 1.0), ((1 << n) - 1, -1.0)):
            for r in np.flatnonzero(codes == code):
                out[r] = sign * 2.0**n * float(np.mean(y[r]))
        return out

    __call__ = _one_row


class SoloTreatedIPW:
    """Estimator supported on the n single-treated assignments.

    When exactly one unit is in arm A, returns (2^n / n) times that unit's
    observed outcome; otherwise 0.  Zero-offset unbiased rule for the
    average solo-treatment effect under the fair-coin design.
    """

    def evaluate(self, codes: np.ndarray, y: np.ndarray) -> np.ndarray:
        n = y.shape[1]
        out = np.zeros(len(codes))
        for i in range(n):
            solo = codes == ((1 << n) - 1) ^ (1 << i)  # unit i alone in arm A
            out[solo] = (2.0**n / n) * y[solo, i]
        return out

    __call__ = _one_row


class ConstantEstimator:
    """Ignores the data entirely; useful as a worst-case probe."""

    def __init__(self, value: float = 0.0) -> None:
        self.value = float(value)

    def evaluate(self, codes: np.ndarray, y: np.ndarray) -> np.ndarray:
        return np.full(len(codes), self.value)

    __call__ = _one_row


def observed_key(y_obs: Iterable[float]) -> tuple[float, ...]:
    """Hashable key for an observed-outcome vector.

    Values are used verbatim - callers working with tabular estimators keep
    outcome levels on exact binary fractions so keys never drift.
    """
    return tuple(map(float, y_obs))


class TabularEstimator:
    """A fully explicit estimator: a map from (assignment, observed vector)
    pairs to values.  Feasibility witnesses come back in this form."""

    def __init__(self, mapping: dict[tuple[int, tuple[float, ...]], float]) -> None:
        self.mapping = dict(mapping)

    def evaluate(self, codes: np.ndarray, y: np.ndarray) -> np.ndarray:
        out = np.empty(len(codes))
        for r, key in enumerate(zip(codes.tolist(), map(observed_key, y.tolist()))):
            try:
                out[r] = self.mapping[key]
            except KeyError:
                z = Assignment(key[0], y.shape[1])
                raise IncompleteEstimatorError(
                    f"tabular estimator has no value for assignment {z.labels} "
                    f"with observed vector {key[1]}"
                ) from None
        return out

    __call__ = _one_row


Estimator = Union[
    DifferenceInMeans,
    HorvitzThompson,
    PureArmIPW,
    SoloTreatedIPW,
    ConstantEstimator,
    TabularEstimator,
]
