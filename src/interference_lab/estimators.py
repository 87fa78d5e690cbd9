"""Estimators: rules mapping (assignment, observed outcomes) to a number.

Every estimator here is a callable with the uniform signature
``estimator(z, y_obs) -> float`` so the exact-analysis machinery can treat
them interchangeably.  ``y_obs`` is the length-n vector of outcomes actually
revealed by ``z``; no estimator peeks at unrevealed potential outcomes.
"""

from __future__ import annotations

import csv
from pathlib import Path
from typing import Callable, Iterable

import numpy as np

from .designs import ARM_A, Assignment, Design, enumerate_support
from .errors import IncompleteEstimatorError, InvalidArgumentError
from .graphs import NeighborhoodIndex

Estimator = Callable[[Assignment, np.ndarray], float]


class DifferenceInMeans:
    """Mean observed outcome in arm A minus mean in arm B.

    Group sizes are read off the realized assignment; an empty arm
    contributes zero (it can only occur under coin-flip designs, where the
    pure vectors have positive probability).
    """

    def __call__(self, z: Assignment, y_obs: np.ndarray) -> float:
        y = np.asarray(y_obs, dtype=float)
        if y.shape != (z.n,):
            raise InvalidArgumentError(f"need {z.n} outcomes, got shape {y.shape}")
        mask_b = np.array([(z.code >> i) & 1 for i in range(z.n)], dtype=bool)
        n_b = int(mask_b.sum())
        n_a = z.n - n_b
        mean_a = float(y[~mask_b].sum() / n_a) if n_a else 0.0
        mean_b = float(y[mask_b].sum() / n_b) if n_b else 0.0
        return mean_a - mean_b


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

    def __call__(self, z: Assignment, y_obs: np.ndarray) -> float:
        n = self.index.n
        if z.n != n:
            raise InvalidArgumentError(f"assignment has n={z.n}, index has n={n}")
        y = np.asarray(y_obs, dtype=float)
        total = 0.0
        for i in range(n):
            mask = self._masks[i]
            zi = z.code & mask
            if zi == 0:  # ball uniformly in arm A
                total += self._weights[i] * y[i]
            elif zi == mask:  # ball uniformly in arm B
                total -= self._weights[i] * y[i]
        return total / n


class PureArmIPW:
    """Estimator supported on the two pure assignments only.

    Evaluates to 2^n * g1(y) when every unit is in arm A, 2^n * g2(y) when
    every unit is in arm B, and 0 otherwise.  With g1 = mean and g2 = -mean
    this is the unique zero-offset unbiased rule for the mean contrast under
    the fair-coin design when interference is unrestricted.
    """

    def __init__(
        self,
        g1: Callable[[np.ndarray], float] | None = None,
        g2: Callable[[np.ndarray], float] | None = None,
    ) -> None:
        self.g1 = g1 if g1 is not None else lambda y: float(np.mean(y))
        self.g2 = g2 if g2 is not None else lambda y: -float(np.mean(y))

    def __call__(self, z: Assignment, y_obs: np.ndarray) -> float:
        y = np.asarray(y_obs, dtype=float)
        if y.shape != (z.n,):
            raise InvalidArgumentError(f"need {z.n} outcomes, got shape {y.shape}")
        if z.code == 0:
            return float(2.0 ** z.n) * float(self.g1(y))
        if z.code == (1 << z.n) - 1:
            return float(2.0 ** z.n) * float(self.g2(y))
        return 0.0


class SoloTreatedIPW:
    """Estimator supported on the n single-treated assignments.

    When exactly one unit is in arm A, returns (2^n / n) times that unit's
    observed outcome; otherwise 0.  Zero-offset unbiased rule for the
    average solo-treatment effect under the fair-coin design.
    """

    def __call__(self, z: Assignment, y_obs: np.ndarray) -> float:
        y = np.asarray(y_obs, dtype=float)
        if y.shape != (z.n,):
            raise InvalidArgumentError(f"need {z.n} outcomes, got shape {y.shape}")
        if z.n_a != 1:
            return 0.0
        i = next(j for j in range(z.n) if z.arm(j) == ARM_A)
        return (2.0 ** z.n / z.n) * float(y[i])


class ConstantEstimator:
    """Ignores the data entirely; useful as a worst-case probe."""

    def __init__(self, value: float = 0.0) -> None:
        self.value = float(value)

    def __call__(self, z: Assignment, y_obs: np.ndarray) -> float:
        return self.value


def observed_key(y_obs: Iterable[float]) -> tuple[float, ...]:
    """Hashable key for an observed-outcome vector.

    Values are used verbatim - callers working with tabular estimators keep
    outcome levels on exact binary fractions so keys never drift.
    """
    return tuple(float(v) for v in y_obs)


class TabularEstimator:
    """A fully explicit estimator: a map from (assignment, observed vector)
    pairs to values.  Feasibility witnesses come back in this form."""

    def __init__(self, mapping: dict[tuple[int, tuple[float, ...]], float]) -> None:
        self.mapping = dict(mapping)

    def __call__(self, z: Assignment, y_obs: np.ndarray) -> float:
        key = (z.code, observed_key(y_obs))
        try:
            return self.mapping[key]
        except KeyError:
            raise IncompleteEstimatorError(
                f"tabular estimator has no value for assignment {z.labels} "
                f"with observed vector {key[1]}"
            ) from None

    def __len__(self) -> int:
        return len(self.mapping)

    @classmethod
    def materialize(
        cls, estimator: Estimator, design: Design, table
    ) -> "TabularEstimator":
        """Tabulate an estimator over a design's support for one table."""
        mapping = {}
        for z, _, y in table.observed_support(enumerate_support(design)):
            mapping[(z.code, observed_key(y))] = float(estimator(z, y))
        return cls(mapping)

    def to_csv(self, path: str | Path, n: int) -> None:
        with open(path, "w", newline="") as fh:
            w = csv.writer(fh, lineterminator="\n")
            w.writerow(["assignment", "ykey", "value"])
            for (code, ykey), value in sorted(self.mapping.items()):
                labels = Assignment(code, n).labels
                w.writerow([labels, "|".join(repr(v) for v in ykey), repr(value)])

    @classmethod
    def from_csv(cls, path: str | Path) -> "TabularEstimator":
        with open(path, newline="") as fh:
            rows = list(csv.reader(fh))
        if not rows or rows[0] != ["assignment", "ykey", "value"]:
            raise InvalidArgumentError(f"{path}: expected header assignment,ykey,value")
        mapping = {}
        for r, row in enumerate(rows[1:], start=2):
            try:
                labels, ykey, value = row
                z = Assignment.from_arms(labels)
                key = tuple(float(v) for v in ykey.split("|")) if ykey else ()
                mapping[(z.code, key)] = float(value)
            except ValueError as exc:
                raise InvalidArgumentError(f"{path}: row {r}: {exc}") from exc
        return cls(mapping)
