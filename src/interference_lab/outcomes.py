"""Potential-outcome tables and estimands.

A table fixes, for every unit, the outcome it would exhibit under each of
its effective treatments.  Outcomes are plain numbers in the units of the
measured response; they carry no noise (the randomization law is the only
source of randomness in this package).  Storage is keyed by effective
treatment, so a unit's entry cannot depend on coordinates outside its
reference group: structural consistency holds by construction, and memory is
sum_i 2^|G_i| instead of n * 2^n.  Tables under arbitrary interference fall
back to the full (2^n, n) matrix, indexed by assignment code.

Declared bounds are open intervals: when an upper bound M is given, every
value must lie strictly inside (0, M); a declared lower bound K tightens
that to (K, M).  Tables without declared bounds skip the check (the
feasibility machinery builds witness tables on arbitrary grids, including
zero).
"""

from __future__ import annotations

import csv
import json
import math
from dataclasses import dataclass
from pathlib import Path
from typing import Callable, Union

import numpy as np

from .designs import Assignment
from .errors import (
    CapacityError,
    IncompleteTableError,
    InvalidArgumentError,
)
from .graphs import (
    Arbitrary,
    Graph,
    InterferenceStructure,
    KLocal,
    NoInterference,
    effective_treatment_key,
    reference_group,
)

# Caps for random-table generation: full-matrix storage is 2^n rows, and a
# unit's map has 2^|G_i| entries.
ARBITRARY_TABLE_CAP = 14
KLOCAL_NEIGHBORHOOD_CAP = 20

# Interior offset honoring the strict bound inequalities when sampling.
_BOUNDS_EPS_REL = 1e-9


class PotentialOutcomeTable:
    """Per-unit outcome functions of the effective treatment."""

    def __init__(
        self,
        structure: InterferenceStructure,
        unit_maps: list[dict[int, float]] | None = None,
        matrix: np.ndarray | None = None,
        k_lower: float | None = None,
        m_upper: float | None = None,
    ) -> None:
        self.structure = structure
        self.k_lower = k_lower
        self.m_upper = m_upper
        n = structure.n
        if isinstance(structure, Arbitrary):
            if matrix is None:
                raise InvalidArgumentError("arbitrary-interference tables need a matrix")
            matrix = np.asarray(matrix, dtype=float)
            if matrix.shape != (1 << n, n):
                raise InvalidArgumentError(
                    f"matrix must have shape {(1 << n, n)}, got {matrix.shape}"
                )
            self._matrix = matrix
            self._unit_maps = None
        else:
            if unit_maps is None or len(unit_maps) != n:
                raise InvalidArgumentError("need one effective-treatment map per unit")
            self._matrix = None
            self._unit_maps = [dict(m) for m in unit_maps]
        self._check_bounds()

    def _iter_values(self):
        if self._matrix is not None:
            yield from self._matrix.ravel()
        else:
            for m in self._unit_maps:  # type: ignore[union-attr]
                yield from m.values()

    def _check_bounds(self) -> None:
        if self.k_lower is not None and self.k_lower < 0:
            raise InvalidArgumentError("lower bound must be >= 0")
        if (
            self.k_lower is not None
            and self.m_upper is not None
            and not self.k_lower < self.m_upper
        ):
            raise InvalidArgumentError("bounds must satisfy k_lower < m_upper")
        if self.m_upper is None and self.k_lower is None:
            return
        lo = self.k_lower if self.k_lower is not None else 0.0
        for v in self._iter_values():
            if math.isnan(v):
                continue  # unfilled matrix slot
            if not lo < v:
                raise InvalidArgumentError(f"outcome {v} violates lower bound {lo}")
            if self.m_upper is not None and not v < self.m_upper:
                raise InvalidArgumentError(
                    f"outcome {v} violates upper bound {self.m_upper}"
                )

    @property
    def n(self) -> int:
        return self.structure.n

    def outcome(self, i: int, z: Assignment) -> float:
        """The value unit i exhibits under assignment z."""
        if z.n != self.n:
            raise InvalidArgumentError(f"assignment has n={z.n}, table has n={self.n}")
        if self._matrix is not None:
            v = float(self._matrix[z.code, i])
            if math.isnan(v):
                raise IncompleteTableError(
                    f"no outcome stored for unit {i} under {z.labels}"
                )
            return v
        key = effective_treatment_key(self.structure, i, z)
        try:
            return self._unit_maps[i][key]  # type: ignore[index]
        except KeyError:
            raise IncompleteTableError(
                f"no outcome stored for unit {i} under effective treatment "
                f"key {key} (assignment {z.labels})"
            ) from None

    def observed_vector(self, z: Assignment) -> np.ndarray:
        """All n outcomes revealed by assignment z."""
        return np.array([self.outcome(i, z) for i in range(self.n)], dtype=float)

    def boundary_vectors(self) -> tuple[np.ndarray, np.ndarray]:
        """Outcome vectors under the all-A and all-B assignments."""
        return (
            self.observed_vector(Assignment.all_a(self.n)),
            self.observed_vector(Assignment.all_b(self.n)),
        )

    # ------------------------------------------------------------------
    # Constructors

    @classmethod
    def no_interference(
        cls,
        y_a,
        y_b,
        k_lower: float | None = None,
        m_upper: float | None = None,
    ) -> "PotentialOutcomeTable":
        y_a = np.asarray(y_a, dtype=float)
        y_b = np.asarray(y_b, dtype=float)
        if y_a.shape != y_b.shape or y_a.ndim != 1:
            raise InvalidArgumentError("need two equal-length outcome vectors")
        maps = [{0: float(a), 1: float(b)} for a, b in zip(y_a, y_b)]
        return cls(NoInterference(len(y_a)), unit_maps=maps, k_lower=k_lower, m_upper=m_upper)

    @classmethod
    def arbitrary(
        cls,
        matrix,
        k_lower: float | None = None,
        m_upper: float | None = None,
    ) -> "PotentialOutcomeTable":
        matrix = np.asarray(matrix, dtype=float)
        n = matrix.shape[1]
        return cls(Arbitrary(n), matrix=matrix, k_lower=k_lower, m_upper=m_upper)

    @classmethod
    def random(
        cls,
        structure: InterferenceStructure,
        k_lower: float,
        m_upper: float,
        seed: int,
    ) -> "PotentialOutcomeTable":
        """Independent uniform draws in the open interval (k_lower, m_upper),
        one per (unit, effective treatment); deterministic given seed."""
        if not 0 <= k_lower < m_upper:
            raise InvalidArgumentError("need 0 <= k_lower < m_upper")
        rng = np.random.default_rng(seed)
        eps = _BOUNDS_EPS_REL * (m_upper - k_lower)
        lo, hi = k_lower + eps, m_upper - eps
        n = structure.n
        if isinstance(structure, Arbitrary):
            if n > ARBITRARY_TABLE_CAP:
                raise CapacityError(
                    f"arbitrary-interference tables capped at n={ARBITRARY_TABLE_CAP}"
                )
            matrix = rng.uniform(lo, hi, size=(1 << n, n))
            return cls(structure, matrix=matrix, k_lower=k_lower, m_upper=m_upper)
        maps = []
        for i in range(n):
            g = reference_group(structure, i)
            if len(g) > KLOCAL_NEIGHBORHOOD_CAP:
                raise CapacityError(
                    f"unit {i} has a reference group of size {len(g)} "
                    f"(cap {KLOCAL_NEIGHBORHOOD_CAP})"
                )
            draws = rng.uniform(lo, hi, size=1 << len(g))
            maps.append({key: float(v) for key, v in enumerate(draws)})
        return cls(structure, unit_maps=maps, k_lower=k_lower, m_upper=m_upper)

    # ------------------------------------------------------------------
    # Serialization

    def to_csv(self, path: str | Path) -> None:
        """Arbitrary-interference tables only: rows assignment,unit,outcome."""
        if self._matrix is None:
            raise InvalidArgumentError(
                "CSV form is for arbitrary-interference tables; use to_json"
            )
        with open(path, "w", newline="") as fh:
            w = csv.writer(fh, lineterminator="\n")
            w.writerow(["assignment", "unit", "outcome"])
            for code in range(1 << self.n):
                labels = Assignment(code, self.n).labels
                for i in range(self.n):
                    v = self._matrix[code, i]
                    if not math.isnan(v):
                        w.writerow([labels, i, repr(float(v))])

    @classmethod
    def from_csv(
        cls,
        path: str | Path,
        k_lower: float | None = None,
        m_upper: float | None = None,
    ) -> "PotentialOutcomeTable":
        with open(path, newline="") as fh:
            rows = list(csv.reader(fh))
        if not rows or rows[0] != ["assignment", "unit", "outcome"]:
            raise InvalidArgumentError(f"{path}: expected header assignment,unit,outcome")
        if len(rows) < 2:
            raise InvalidArgumentError(f"{path}: no data rows")
        n = len(rows[1][0])
        matrix = np.full((1 << n, n), np.nan)
        for labels, unit, outcome in rows[1:]:
            z = Assignment.from_arms(labels)
            if z.n != n:
                raise InvalidArgumentError(f"{path}: inconsistent assignment length")
            matrix[z.code, int(unit)] = float(outcome)
        return cls.arbitrary(matrix, k_lower=k_lower, m_upper=m_upper)

    def to_json(self, path: str | Path) -> None:
        """No-interference and k-local tables: per-unit effective-treatment maps."""
        if self._unit_maps is None:
            raise InvalidArgumentError(
                "JSON form is for keyed tables; use to_csv for arbitrary interference"
            )
        if isinstance(self.structure, NoInterference):
            spec: dict = {"kind": "no_interference", "n": self.n}
        else:
            assert isinstance(self.structure, KLocal)
            spec = {
                "kind": "k_local",
                "n": self.n,
                "k": self.structure.k,
                "edges": sorted([u, v] for u, v in self.structure.graph.edges),
            }
        units = []
        for i, m in enumerate(self._unit_maps):
            g = sorted(reference_group(self.structure, i))
            entry = {}
            for key, v in sorted(m.items()):
                labels = "".join("B" if (key >> pos) & 1 else "A" for pos in range(len(g)))
                entry[labels] = v
            units.append(entry)
        doc = {
            "structure": spec,
            "k_lower": self.k_lower,
            "m_upper": self.m_upper,
            "units": units,
        }
        Path(path).write_text(json.dumps(doc, indent=2, sort_keys=True) + "\n")

    @classmethod
    def from_json(cls, path: str | Path) -> "PotentialOutcomeTable":
        try:
            doc = json.loads(Path(path).read_text())
            spec = doc["structure"]
            if spec["kind"] == "no_interference":
                structure: InterferenceStructure = NoInterference(int(spec["n"]))
            elif spec["kind"] == "k_local":
                edges = [tuple(e) for e in spec["edges"]]
                structure = KLocal(Graph.from_edges(int(spec["n"]), edges), int(spec["k"]))
            else:
                raise InvalidArgumentError(
                    f"{path}: unknown structure kind {spec['kind']!r}"
                )
            units = doc["units"]
        except json.JSONDecodeError as exc:
            raise InvalidArgumentError(f"{path}: invalid JSON ({exc})") from exc
        except KeyError as exc:
            raise InvalidArgumentError(f"{path}: missing key {exc}") from exc
        maps: list[dict[int, float]] = []
        for i, entry in enumerate(units):
            g = sorted(reference_group(structure, i))
            m: dict[int, float] = {}
            for labels, v in entry.items():
                if len(labels) != len(g):
                    raise InvalidArgumentError(
                        f"{path}: unit {i} key {labels!r} does not match its "
                        f"reference group size {len(g)}"
                    )
                key = 0
                for pos, ch in enumerate(labels):
                    if ch == "B":
                        key |= 1 << pos
                    elif ch != "A":
                        raise InvalidArgumentError(f"{path}: bad key {labels!r}")
                m[key] = float(v)
            maps.append(m)
        return cls(
            structure,
            unit_maps=maps,
            k_lower=doc.get("k_lower"),
            m_upper=doc.get("m_upper"),
        )


# ----------------------------------------------------------------------
# Estimands


@dataclass(frozen=True)
class AverageTreatmentEffect:
    """Mean outcome under all-A minus mean outcome under all-B."""


@dataclass(frozen=True, eq=False)
class AdditiveEstimand:
    """g1 applied to the all-A outcomes plus g2 applied to the all-B ones."""

    g1: Callable[[np.ndarray], float]
    g2: Callable[[np.ndarray], float]


@dataclass(frozen=True)
class SoloTreatmentEffect:
    """Average outcome of each unit when it alone receives arm A."""


Estimand = Union[AverageTreatmentEffect, AdditiveEstimand, SoloTreatmentEffect]

ATE = AverageTreatmentEffect()


def estimand_value(estimand: Estimand, table: PotentialOutcomeTable) -> float:
    """Evaluate the estimand exactly on a table."""
    n = table.n
    if isinstance(estimand, AverageTreatmentEffect):
        y_a, y_b = table.boundary_vectors()
        return float(np.mean(y_a) - np.mean(y_b))
    if isinstance(estimand, AdditiveEstimand):
        y_a, y_b = table.boundary_vectors()
        return float(estimand.g1(y_a)) + float(estimand.g2(y_b))
    if isinstance(estimand, SoloTreatmentEffect):
        total = math.fsum(
            table.outcome(i, Assignment.solo_a(i, n)) for i in range(n)
        )
        return total / n
    raise InvalidArgumentError(f"unknown estimand {estimand!r}")
