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
PCG64 (``_pcg64``, which says what that costs); a table's size caps bound
it at 14 * 2^14 draws.  Graph coins and Monte Carlo stay on numpy's
Generator (see ``er``).

Declared bounds are open intervals: when an upper bound M is given, every
value must lie strictly inside (0, M); a declared lower bound K tightens
that to (K, M).  Tables without declared bounds skip the check (the
feasibility machinery builds witness tables on arbitrary grids, including
zero).

``from_json`` and ``from_csv`` parse a file inside one error handler: any
failure raises one ``InvalidArgumentError`` (``CapacityError`` past a cap) led
by the path and the unit or row at fault; an unopenable file, its ``OSError``.
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


def _reference_groups(structure: InterferenceStructure) -> list[list[int]]:
    """Each unit's reference group in ascending node order, once a table on
    ``structure`` fits every size cap: ``CODE_BITS`` units (tables are read
    by int64 assignment codes), ``ARBITRARY_TABLE_CAP`` units under
    arbitrary interference, and ``KLOCAL_NEIGHBORHOOD_CAP`` nodes per
    group.  Every constructor calls this before it allocates."""
    n = structure.n
    if n > CODE_BITS:
        raise CapacityError(
            f"outcome tables hold at most n={CODE_BITS} units "
            f"(one int64 assignment code), got n={n}"
        )
    if isinstance(structure, Arbitrary) and n > ARBITRARY_TABLE_CAP:
        raise CapacityError(
            f"arbitrary-interference tables capped at n={ARBITRARY_TABLE_CAP}, got n={n}"
        )
    groups = [sorted(reference_group(structure, i)) for i in range(n)]
    for i, g in enumerate(groups):
        if len(g) > KLOCAL_NEIGHBORHOOD_CAP:
            raise CapacityError(
                f"unit {i} has a reference group of size {len(g)} "
                f"(cap {KLOCAL_NEIGHBORHOOD_CAP})"
            )
    return groups


def _columns(units: list[int]) -> int | slice | np.ndarray:
    """An index of the ascending ``units``: the unit itself when it is alone,
    a slice when they run contiguously, else an index array."""
    if len(units) == 1:
        return units[0]
    if units[-1] - units[0] == len(units) - 1:
        return slice(units[0], units[-1] + 1)
    return np.array(units)


def _integer(spec: dict, key: str) -> int:
    """A table document's ``structure.<key>``, refused unless a JSON integer
    (a float is not truncated, and a boolean is not 0 or 1)."""
    value = spec[key]
    if isinstance(value, bool) or not isinstance(value, int):
        raise InvalidArgumentError(f"structure.{key}: must be an integer, got {value!r}")
    return value


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
        # Units sharing a reference group share its key, and units sharing a
        # value array too (witness tables do) share its gather:
        # (group, [(columns, values)]) in order of each group's first unit.
        shared: dict[tuple[int, ...], dict[int, tuple[list[int], np.ndarray]]] = {}
        for i, (g, v) in enumerate(zip(self._groups, self._values)):
            shared.setdefault(tuple(g), {}).setdefault(id(v), ([], v))[0].append(i)
        self._gathers = [
            (g, [(_columns(units), v) for units, v in arrays.values()])
            for g, arrays in shared.items()
        ]
        self._check_bounds()

    def _check_bounds(self) -> None:
        # each test is written so that a NaN bound fails it
        if self.k_lower is not None and not 0 <= self.k_lower < math.inf:
            raise InvalidArgumentError(f"k_lower: must be finite and >= 0, got {self.k_lower}")
        if self.m_upper is not None and not 0 < self.m_upper < math.inf:
            raise InvalidArgumentError(
                f"m_upper: must be finite and positive, got {self.m_upper}"
            )
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
        group and one array gather per distinct value array serve the whole
        block.
        """
        y = np.empty((len(codes), self.n))
        for g, arrays in self._gathers:
            key = restrict_codes(codes, g)
            for columns, v in arrays:
                y.T[columns] = v[key]  # one column, or broadcast to several
        missing = np.isnan(y)
        if missing.any():  # argwhere alone costs several times more
            row, i = np.argwhere(missing)[0]
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
        if not 0 <= k_lower < m_upper < math.inf:
            raise InvalidArgumentError("need 0 <= k_lower < m_upper, both finite")
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
                "CSV form is for arbitrary-interference tables; keyed tables "
                "are read from JSON (table.json_path)"
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
    def from_csv(cls, path: str | Path) -> "PotentialOutcomeTable":
        """Read the arbitrary-interference CSV form that ``to_csv`` writes."""
        where = ""  # context: the data row being parsed
        try:
            with open(path, newline="") as fh:
                rows = list(csv.reader(fh))
            if not rows or rows[0] != ["assignment", "unit", "outcome"]:
                raise InvalidArgumentError("expected header assignment,unit,outcome")
            if len(rows) < 2:
                raise InvalidArgumentError("no data rows")
            n = len(rows[1][0]) if rows[1] else 0
            _reference_groups(Arbitrary(n))  # the caps, before the matrix is allocated
            matrix = np.full((1 << n, n), np.nan)
            for r, row in enumerate(rows[1:], start=2):
                where = f"row {r}: "
                labels, unit, outcome = row
                z = Assignment.from_arms(labels)
                i, v = int(unit), float(outcome)
                if z.n != n:
                    raise InvalidArgumentError("inconsistent assignment length")
                if not 0 <= i < n:
                    raise InvalidArgumentError(f"unit {i} out of range for n={n}")
                matrix[z.code, i] = v
            return cls(Arbitrary(n), matrix.T)
        except (csv.Error, ValueError) as exc:  # a UnicodeDecodeError too
            raise InvalidArgumentError(f"{path}: {where}{exc}") from exc
        except CapacityError as exc:
            raise CapacityError(f"{path}: {exc}") from exc

    @classmethod
    def from_json(cls, path: str | Path) -> "PotentialOutcomeTable":
        """Read a keyed (no-interference or k-local) table document."""
        where = ""  # context: the unit being parsed
        try:
            doc = json.loads(Path(path).read_text())
            spec = doc["structure"]
            if spec["kind"] == "no_interference":
                structure: InterferenceStructure = NoInterference(_integer(spec, "n"))
            elif spec["kind"] == "k_local":
                graph = Graph.from_edges(_integer(spec, "n"), spec["edges"])
                structure = KLocal(graph, _integer(spec, "k"))
            else:
                raise InvalidArgumentError(f"unknown structure kind {spec['kind']!r}")
            groups = _reference_groups(structure)
            units = doc["units"]
            if not isinstance(units, list) or len(units) != structure.n:
                raise InvalidArgumentError(f"units: need one object per unit (n={structure.n})")
            values = []
            for i, (g, entry) in enumerate(zip(groups, units)):
                where = f"unit {i}: "
                if not isinstance(entry, dict):
                    raise InvalidArgumentError("expected an object")
                v = np.full(1 << len(g), np.nan)
                for labels, x in entry.items():
                    if len(labels) != len(g):
                        raise InvalidArgumentError(
                            f"key {labels!r} does not match its reference group size {len(g)}"
                        )
                    v[Assignment.from_arms(labels).code] = float(x)
                values.append(v)
            where = ""
            return cls(structure, values, k_lower=doc.get("k_lower"), m_upper=doc.get("m_upper"))
        except KeyError as exc:
            raise InvalidArgumentError(f"{path}: missing key {exc}") from exc
        except (OverflowError, TypeError, ValueError) as exc:  # JSON and UTF-8 errors too
            raise InvalidArgumentError(f"{path}: {where}{exc}") from exc
        except CapacityError as exc:
            raise CapacityError(f"{path}: {exc}") from exc


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
