"""Estimators: rules mapping (assignment, observed outcomes) to a number.

Every estimator here has one evaluation body, ``evaluate(codes, y)``: for an
int64 block of assignment codes and the ``(len(codes), n)`` outcomes each
reveals, it returns one value per code.  ``estimator(z, y_obs) -> float`` is
that body on the single assignment ``z``.  ``y_obs`` is the length-n vector
of outcomes actually revealed by ``z``; no estimator peeks at unrevealed
potential outcomes.

The difference in means, the exposure-weighted and the solo-treated rules
evaluate a block in a few whole-block numpy passes (plus one add per unit
row for the exposure-weighted estimator, and a pass per arm-B count for the
difference in means when a block mixes counts), and each value takes its
floating-point operations in the order the rule takes them on one
assignment, so no value depends on the block it is evaluated in.
"""

from __future__ import annotations

from typing import Iterable, Union

import numpy as np

from .designs import Assignment, Design, support_size
from .errors import IncompleteEstimatorError, InvalidArgumentError
from .graphs import NeighborhoodIndex


def _one_row(self, z: Assignment, y_obs: np.ndarray) -> float:
    """``evaluate`` on one assignment and the n outcomes it reveals."""
    y = np.asarray(y_obs, dtype=float)
    if y.shape != (z.n,):
        raise InvalidArgumentError(f"need {z.n} outcomes, got shape {y.shape}")
    return float(self.evaluate(np.array([z.code], dtype=np.int64), y[None, :])[0])


def _arm_contrast(y: np.ndarray, in_b: np.ndarray, k: int) -> np.ndarray:
    """Arm-A mean minus arm-B mean of each row of ``y``, every row with k
    units in arm B.  The arm values, gathered in row order from the
    flattened block, reshape into (rows, count) arm blocks, whose row sums
    add in the same order as one row's masked sum."""
    n_a = y.shape[1] - k
    flat_y, flat_b = y.ravel(), in_b.ravel()
    mean_a = flat_y.compress(~flat_b).reshape(-1, n_a).sum(axis=1) / n_a if n_a else 0.0
    mean_b = flat_y.compress(flat_b).reshape(-1, k).sum(axis=1) / k if k else 0.0
    return mean_a - mean_b


class DifferenceInMeans:
    """Mean observed outcome in arm A minus mean in arm B.

    Group sizes are read off the realized assignment; an empty arm
    contributes zero (it can only occur under coin-flip designs, where the
    pure vectors have positive probability).
    """

    def evaluate(self, codes: np.ndarray, y: np.ndarray) -> np.ndarray:
        n = y.shape[1]
        # row r's arm-B bits, unit 0 first: the low n bits of its code's
        # little-endian bytes
        code_bytes = np.ascontiguousarray(codes, dtype="<i8").view(np.uint8).reshape(-1, 8)
        in_b = np.unpackbits(code_bytes, axis=1, count=n, bitorder="little").view(bool)
        n_b = np.bitwise_count(codes)
        counts = np.flatnonzero(np.bincount(n_b)).tolist()
        if len(counts) == 1:  # one arm-B count covers the block, as under crd
            return _arm_contrast(y, in_b, counts[0])
        out = np.empty(len(codes))
        for k in counts:
            rows = n_b == k
            out[rows] = _arm_contrast(y[rows], in_b[rows], k)
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
        # (n, 1) columns, so a block of codes broadcasts to (n, len(codes))
        self._masks = np.asarray(index.masks(), dtype=np.int64)[:, None]
        self._weights = np.array([2.0 ** len(ball) for ball in index.closed])[:, None]

    def evaluate(self, codes: np.ndarray, y: np.ndarray) -> np.ndarray:
        n = self.index.n
        if y.shape[1] != n:
            raise InvalidArgumentError(f"outcomes for {y.shape[1]} units, index has n={n}")
        ball = codes & self._masks  # row i: 0 if unit i's ball is all in A, mask if all in B
        in_a, in_b = ball == 0, ball == self._masks
        # Unit i's coefficient overwrites row i of `ball` in place: +w_i where
        # its ball is all in arm A, -w_i where all in B, 0.0 where mixed.  0.0
        # times a finite outcome is a zero of either sign, and either zero
        # leaves a sum that starts at +0.0 as it was.
        terms = ball.view(np.float64)
        np.multiply(in_a, self._weights, out=terms)
        np.copyto(terms, -self._weights, where=in_b)
        terms *= y.T
        # One add per unit row, so every code sums its terms in unit order
        # whatever the block's length (numpy reduces a one-row block's unit
        # axis pairwise).
        total = np.zeros(len(codes))
        for row in terms:
            total += row
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

    When exactly one unit is in arm A, returns |S| / n times that unit's
    observed outcome, with |S| the design's support size; otherwise 0.
    Wherever the support holds every single-treated assignment (bd, cbd, and
    crd with n_a = 1), each has probability 1 / |S|, and this is the
    zero-offset unbiased rule for the average solo-treatment effect.
    """

    def __init__(self, design: Design) -> None:
        self.n = design.n
        # int / int rounds once, so under bd this is 2.0**n / n bit for bit
        self._weight = support_size(design) / design.n

    def evaluate(self, codes: np.ndarray, y: np.ndarray) -> np.ndarray:
        n = self.n
        if y.shape[1] != n:
            raise InvalidArgumentError(f"outcomes for {y.shape[1]} units, design has n={n}")
        # unit i alone in arm A iff the code's arm-A bits are 2^i, so i is
        # the popcount of 2^i - 1
        arm_a = codes ^ ((1 << n) - 1)
        solo = np.flatnonzero((arm_a != 0) & ((arm_a & (arm_a - 1)) == 0))
        out = np.zeros(len(codes))
        out[solo] = self._weight * y[solo, np.bitwise_count(arm_a[solo] - 1)]
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
    pairs to values."""

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
