"""Potential-outcome tables and estimands.

A table fixes, for every unit, the outcome it would exhibit under each of
its effective treatments.  Outcomes are plain numbers in the units of the
measured response; they carry no noise (the randomization law is the only
source of randomness in this package).  Unit i stores a float array of
length 2^|G_i| indexed by its effective-treatment key (the assignment
restricted to the reference group G_i, bit-packed in ascending node order);
NaN marks an entry that is not stored.  A unit's entry cannot depend on
coordinates outside G_i, so structural consistency holds by construction,
and memory is sum_i 2^|G_i|.  Arbitrary interference is the case where G_i
is every unit and the key is the assignment code.

Every read goes through one lookup, ``PotentialOutcomeTable.observed``,
which gathers the outcomes an int64 block of assignment codes reveals; the
single-assignment, boundary and solo reads are small blocks.  A table
therefore holds at most ``designs.CODE_BITS`` units.

Random tables are the one draw that does not load ``numpy.random``: they
take numpy's ``default_rng(seed).uniform`` stream from the package's own
PCG64 (``_pcg64``), which costs about 20 ns a draw against numpy's 3-6.5 ns
but saves numpy.random's 13 ms import; a table's size caps bound it at
14 * 2^14 draws, 3-5 ms.  Graph coins and Monte Carlo stay on numpy's
Generator (see ``er``).

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
from pathlib import Path
from typing import Union

import numpy as np

from ._pcg64 import uniform
from .designs import CODE_BITS, Assignment, restrict_codes
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
    reference_group,
)

# Caps for table sizes: an arbitrary-interference table holds 2^n values per
# unit, and a keyed unit holds 2^|G_i|.
ARBITRARY_TABLE_CAP = 14
KLOCAL_NEIGHBORHOOD_CAP = 20

# Interior offset honoring the strict bound inequalities when sampling.
_BOUNDS_EPS_REL = 1e-9


def _reference_groups(structure: InterferenceStructure, where: str = "") -> list[list[int]]:
    """Each unit's reference group in ascending node order, once a table on
    ``structure`` fits every size cap: ``CODE_BITS`` units (tables are read
    by int64 assignment codes), ``ARBITRARY_TABLE_CAP`` units under
    arbitrary interference, and ``KLOCAL_NEIGHBORHOOD_CAP`` nodes per
    group.  Every constructor calls this before it allocates."""
    n = structure.n
    if n > CODE_BITS:
        raise CapacityError(
            f"{where}outcome tables hold at most n={CODE_BITS} units "
            f"(one int64 assignment code), got n={n}"
        )
    if isinstance(structure, Arbitrary) and n > ARBITRARY_TABLE_CAP:
        raise CapacityError(
            f"{where}arbitrary-interference tables capped at n={ARBITRARY_TABLE_CAP}, got n={n}"
        )
    groups = [sorted(reference_group(structure, i)) for i in range(n)]
    for i, g in enumerate(groups):
        if len(g) > KLOCAL_NEIGHBORHOOD_CAP:
            raise CapacityError(
                f"{where}unit {i} has a reference group of size {len(g)} "
                f"(cap {KLOCAL_NEIGHBORHOOD_CAP})"
            )
    return groups


class PotentialOutcomeTable:
    """Per-unit outcome functions of the effective treatment; ``values[i]``
    holds unit i's outcomes by effective-treatment key."""

    def __init__(
        self,
        structure: InterferenceStructure,
        values,
        k_lower: float | None = None,
        m_upper: float | None = None,
    ) -> None:
        self.structure = structure
        self.k_lower = k_lower
        self.m_upper = m_upper
        self._groups = _reference_groups(structure)
        if len(values) != structure.n:
            raise InvalidArgumentError(f"need one outcome array per unit, got {len(values)}")
        self._values = []
        for i, (g, v) in enumerate(zip(self._groups, values)):
            v = np.asarray(v, dtype=float)
            if v.shape != (1 << len(g),):
                raise InvalidArgumentError(f"unit {i} needs {1 << len(g)} outcomes, got {v.shape}")
            self._values.append(v)
        # Units sharing a reference group share its key: (group, [(unit, values)])
        # in order of each group's first unit.
        shared: dict[tuple[int, ...], list[tuple[int, np.ndarray]]] = {}
        for i, (g, v) in enumerate(zip(self._groups, self._values)):
            shared.setdefault(tuple(g), []).append((i, v))
        self._gathers = list(shared.items())
        self._check_bounds()

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
        # units may share one value array (witness tables do); scan each once
        for v in {id(v): v for v in self._values}.values():
            # fmin/fmax skip unstored (NaN) slots; an all-NaN unit compares False.
            smallest = float(np.fmin.reduce(v))
            if smallest <= lo:
                raise InvalidArgumentError(f"outcome {smallest} violates lower bound {lo}")
            largest = float(np.fmax.reduce(v))
            if self.m_upper is not None and largest >= self.m_upper:
                raise InvalidArgumentError(
                    f"outcome {largest} violates upper bound {self.m_upper}"
                )

    @property
    def n(self) -> int:
        return self.structure.n

    def observed(self, codes: np.ndarray) -> np.ndarray:
        """The outcomes revealed by each of an int64 block of assignment
        codes: row r holds the n outcomes under ``codes[r]``.

        This is the one outcome lookup; one key per distinct reference
        group and one array gather per unit serve the whole block.
        """
        y = np.empty((len(codes), self.n))
        for g, units in self._gathers:
            key = restrict_codes(codes, g)
            for i, v in units:
                y[:, i] = v[key]
        missing = np.argwhere(np.isnan(y))
        if missing.size:
            row, i = missing[0]
            z = Assignment(int(codes[row]), self.n)
            raise IncompleteTableError(f"no outcome stored for unit {i} under {z.labels}")
        return y

    def observed_vector(self, z: Assignment) -> np.ndarray:
        """All n outcomes revealed by assignment z."""
        if z.n != self.n:
            raise InvalidArgumentError(f"assignment has n={z.n}, table has n={self.n}")
        return self.observed(np.array([z.code], dtype=np.int64))[0]

    def boundary_vectors(self) -> tuple[np.ndarray, np.ndarray]:
        """Outcome vectors under the all-A and all-B assignments."""
        y_a, y_b = self.observed(np.array([0, (1 << self.n) - 1], dtype=np.int64))
        return y_a, y_b

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
        values = np.stack([y_a, y_b], axis=1)  # key 0 = arm A, key 1 = arm B
        return cls(NoInterference(len(y_a)), values, k_lower=k_lower, m_upper=m_upper)

    @classmethod
    def arbitrary(
        cls,
        matrix,
        k_lower: float | None = None,
        m_upper: float | None = None,
    ) -> "PotentialOutcomeTable":
        """From a (2^n, n) matrix: row = assignment code, column = unit."""
        matrix = np.asarray(matrix, dtype=float)
        return cls(Arbitrary(matrix.shape[1]), matrix.T, k_lower=k_lower, m_upper=m_upper)

    @classmethod
    def random(
        cls,
        structure: InterferenceStructure,
        k_lower: float,
        m_upper: float,
        seed: int,
    ) -> "PotentialOutcomeTable":
        """Independent uniform draws in the open interval (k_lower, m_upper),
        one per (unit, effective treatment); deterministic given seed.

        The draws are one stream, ``default_rng(seed).uniform`` bit for bit,
        taken from the package's own PCG64 (``_pcg64.uniform``), so building
        a table never imports ``numpy.random``.  A keyed table takes it in
        unit order; an arbitrary one fills its (2^n, n) matrix row-major."""
        if not 0 <= k_lower < m_upper:
            raise InvalidArgumentError("need 0 <= k_lower < m_upper")
        groups = _reference_groups(structure)
        eps = _BOUNDS_EPS_REL * (m_upper - k_lower)
        sizes = [1 << len(g) for g in groups]
        draws = uniform(seed, k_lower + eps, m_upper - eps, sum(sizes))
        if isinstance(structure, Arbitrary):
            values = draws.reshape(-1, structure.n).T
        else:
            values = np.split(draws, np.cumsum(sizes)[:-1])
        return cls(structure, values, k_lower=k_lower, m_upper=m_upper)

    # ------------------------------------------------------------------
    # Serialization

    def to_csv(self, path: str | Path) -> None:
        """Arbitrary-interference tables only: rows assignment,unit,outcome."""
        if not isinstance(self.structure, Arbitrary):
            raise InvalidArgumentError(
                "CSV form is for arbitrary-interference tables; use to_json"
            )
        with open(path, "w", newline="") as fh:
            w = csv.writer(fh, lineterminator="\n")
            w.writerow(["assignment", "unit", "outcome"])
            for code in range(1 << self.n):
                labels = Assignment(code, self.n).labels
                for i, v in enumerate(self._values):
                    if not math.isnan(v[code]):
                        w.writerow([labels, i, repr(float(v[code]))])

    @classmethod
    def from_csv(
        cls,
        path: str | Path,
        k_lower: float | None = None,
        m_upper: float | None = None,
    ) -> "PotentialOutcomeTable":
        try:
            with open(path, newline="") as fh:
                rows = list(csv.reader(fh))
        except UnicodeDecodeError as exc:
            raise InvalidArgumentError(f"{path}: not UTF-8 text ({exc})") from exc
        if not rows or rows[0] != ["assignment", "unit", "outcome"]:
            raise InvalidArgumentError(f"{path}: expected header assignment,unit,outcome")
        if len(rows) < 2:
            raise InvalidArgumentError(f"{path}: no data rows")
        n = len(rows[1][0]) if rows[1] else 0
        _reference_groups(Arbitrary(n), f"{path}: ")
        matrix = np.full((1 << n, n), np.nan)
        for r, row in enumerate(rows[1:], start=2):
            try:
                labels, unit, outcome = row
                z = Assignment.from_arms(labels)
                i, v = int(unit), float(outcome)
            except ValueError as exc:
                raise InvalidArgumentError(f"{path}: row {r}: {exc}") from exc
            if z.n != n:
                raise InvalidArgumentError(f"{path}: row {r}: inconsistent assignment length")
            if not 0 <= i < n:
                raise InvalidArgumentError(f"{path}: row {r}: unit {i} out of range for n={n}")
            matrix[z.code, i] = v
        return cls.arbitrary(matrix, k_lower=k_lower, m_upper=m_upper)

    def to_json(self, path: str | Path) -> None:
        """No-interference and k-local tables: per-unit effective-treatment maps."""
        if isinstance(self.structure, NoInterference):
            spec: dict = {"kind": "no_interference", "n": self.n}
        elif isinstance(self.structure, KLocal):
            spec = {
                "kind": "k_local",
                "n": self.n,
                "k": self.structure.k,
                "edges": sorted([u, v] for u, v in self.structure.graph.edges),
            }
        else:
            raise InvalidArgumentError(
                "JSON form is for keyed tables; use to_csv for arbitrary interference"
            )
        units = [
            {
                Assignment(key, len(g)).labels: float(x)
                for key, x in enumerate(v)
                if not math.isnan(x)
            }
            for g, v in zip(self._groups, self._values)
        ]
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
        except (json.JSONDecodeError, UnicodeDecodeError) as exc:
            raise InvalidArgumentError(f"{path}: invalid JSON ({exc})") from exc
        except KeyError as exc:
            raise InvalidArgumentError(f"{path}: missing key {exc}") from exc
        except TypeError as exc:
            raise InvalidArgumentError(f"{path}: malformed table ({exc})") from exc
        groups = _reference_groups(structure, f"{path}: ")
        if not isinstance(units, list) or len(units) != structure.n:
            raise InvalidArgumentError(
                f"{path}: \"units\" must list one object per unit (n={structure.n})"
            )
        values = []
        for i, (g, entry) in enumerate(zip(groups, units)):
            if not isinstance(entry, dict):
                raise InvalidArgumentError(f"{path}: unit {i}: expected an object")
            v = np.full(1 << len(g), np.nan)
            for labels, x in entry.items():
                if len(labels) != len(g):
                    raise InvalidArgumentError(
                        f"{path}: unit {i} key {labels!r} does not match its "
                        f"reference group size {len(g)}"
                    )
                try:
                    v[Assignment.from_arms(labels).code] = float(x)
                except (TypeError, ValueError) as exc:
                    raise InvalidArgumentError(f"{path}: unit {i}: {exc}") from exc
            values.append(v)
        return cls(
            structure,
            values,
            k_lower=doc.get("k_lower"),
            m_upper=doc.get("m_upper"),
        )


# ----------------------------------------------------------------------
# Estimands: the mean contrast and the solo-treatment effect


class AverageTreatmentEffect:
    """Mean outcome under all-A minus mean outcome under all-B."""


class SoloTreatmentEffect:
    """Average outcome of each unit when it alone receives arm A."""


Estimand = Union[AverageTreatmentEffect, SoloTreatmentEffect]

ATE = AverageTreatmentEffect()


def estimand_value(estimand: Estimand, table: PotentialOutcomeTable) -> float:
    """Evaluate the estimand exactly on a table; a value past the double
    range raises OverflowError."""
    n = table.n
    if isinstance(estimand, AverageTreatmentEffect):
        y_a, y_b = table.boundary_vectors()
        with np.errstate(over="ignore", invalid="ignore"):  # refused below instead
            value = float(np.mean(y_a) - np.mean(y_b))
    elif isinstance(estimand, SoloTreatmentEffect):
        # row i is the vector assigning arm A to unit i alone
        y = table.observed(((1 << n) - 1) ^ (1 << np.arange(n, dtype=np.int64)))
        value = math.fsum(np.diagonal(y).tolist()) / n
    else:
        raise InvalidArgumentError(f"unknown estimand {estimand!r}")
    if not math.isfinite(value):
        raise OverflowError("estimand value past the double range")
    return value
