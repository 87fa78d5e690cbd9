"""Potential-outcome tables and estimands.

A table fixes, for every unit, the outcome it would exhibit under each of
its effective treatments.  Outcomes are plain numbers in the units of the
measured response; they carry no noise (the randomization law is the only
source of randomness in this package).  Unit i stores a float array of
length 2^|G_i| indexed by its effective-treatment key (the assignment
restricted to the reference group G_i, bit-packed in ascending node order),
and every entry is a finite number: a table is a total function of the
assignment.  A unit's entry cannot depend on coordinates outside G_i, so
structural consistency holds by construction, and memory is
sum_i 2^|G_i| outcomes, at most ``TABLE_VALUE_CAP``.  The
arrays are segments of one flat array, and units given the same array
object share its segment.  Arbitrary interference is the case where G_i is
every unit and the key is the assignment code.

Every read goes through one lookup, ``PotentialOutcomeTable.observed``,
which gathers the outcomes an int64 block of assignment codes reveals; the
single-assignment, boundary and solo reads are small blocks.  It finds
every unit's flat position with one lookup per byte of the code in a byte
index (256 rows per byte, one column per unit), built on the table's first
read, so a table that is never read never builds it.  A table therefore
holds at most ``designs.CODE_BITS`` units.  The estimands read
through any lookup of that shape (``_estimand``), a table's or not.

Random tables do not load ``numpy.random``: they draw from
``random.Random(seed)`` (``designs._uniform_draws``), one value per
outcome, so at most ``TABLE_VALUE_CAP`` draws.  One-off graph coins do the
same; only Monte Carlo draws on numpy's Generator (see ``er``).

Declared bounds are open intervals: when an upper bound M is given, every
value must lie strictly inside (0, M); a declared lower bound K tightens
that to (K, M).  Tables without declared bounds skip the check.

A table of any structure has one file form, the JSON document ``to_json``
writes: the structure, any declared bounds, and each unit's value array as
a list.  ``from_json`` parses it inside one error handler: any failure
raises one ``InvalidArgumentError`` (``CapacityError`` past a cap) led by
the path and the unit at fault; an unopenable file, its ``OSError``.
"""

from __future__ import annotations

import json
import math
from pathlib import Path
from typing import Union

import numpy as np

from .designs import CODE_BITS, Assignment, _uniform_draws
from .errors import CapacityError, InvalidArgumentError
from .graphs import (
    Arbitrary,
    Graph,
    InterferenceStructure,
    KLocal,
    NoInterference,
    reference_group,
)

# Stored outcomes per table, sum_i 2^|G_i|: an arbitrary-interference
# table on the 14 units of the largest enumerable design.
TABLE_VALUE_CAP = 14 * 2**14

# Interior offset honoring the strict bound inequalities when sampling.
_BOUNDS_EPS_REL = 1e-9


def _reference_groups(structure: InterferenceStructure) -> list[list[int]]:
    """Each unit's reference group in ascending node order, once a table on
    ``structure`` fits its size caps: ``CODE_BITS`` units (tables are read
    by int64 assignment codes) and ``TABLE_VALUE_CAP`` outcomes.
    Every constructor calls this before it allocates."""
    n = structure.n
    if n > CODE_BITS:
        raise CapacityError(
            f"outcome tables hold at most n={CODE_BITS} units "
            f"(one int64 assignment code), got n={n}"
        )
    groups = [sorted(reference_group(structure, i)) for i in range(n)]
    values = sum(1 << len(g) for g in groups)
    if values > TABLE_VALUE_CAP:
        raise CapacityError(f"outcome tables hold at most {TABLE_VALUE_CAP} outcomes, got {values}")
    return groups


def _integer(spec: dict, key: str) -> int:
    """A table document's ``structure.<key>``, refused unless a JSON integer
    (a float is not truncated, and a boolean is not 0 or 1)."""
    value = spec[key]
    if isinstance(value, bool) or not isinstance(value, int):
        raise InvalidArgumentError(f"structure.{key}: must be an integer, got {value!r}")
    return value


def _is_number(value) -> bool:
    """Whether a JSON value is a number (a boolean or a string is not)."""
    return isinstance(value, (int, float)) and not isinstance(value, bool)


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
        values = list(values)  # holds every given array, so their ids stay distinct
        if len(values) != structure.n:
            raise InvalidArgumentError(f"need one outcome array per unit, got {len(values)}")
        # Units holding the same array object share one segment of one flat
        # value array: (array, segment start) by the id of the given array.
        segments: dict[int, tuple[np.ndarray, int]] = {}
        starts, size = [], 0
        for i, (g, v) in enumerate(zip(self._groups, values)):
            if id(v) not in segments:
                a = np.asarray(v, dtype=float)
                segments[id(v)] = (a, size)
                size += a.size
            a, start = segments[id(v)]
            if a.shape != (1 << len(g),):
                raise InvalidArgumentError(f"unit {i} needs {1 << len(g)} outcomes, got {a.shape}")
            starts.append(start)
        self._flat = np.concatenate([a for a, _ in segments.values()])
        self._starts = np.array(starts, dtype=np.intp)
        self._values = [self._flat[s : s + (1 << len(g))] for s, g in zip(starts, self._groups)]
        self._lookup: np.ndarray | None = None  # built on the first read
        if not np.isfinite(self._flat).all():
            i = next(i for i, v in enumerate(self._values) if not np.isfinite(v).all())
            raise InvalidArgumentError(f"unit {i}: outcomes must be finite numbers")
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
        smallest = float(self._flat.min())
        if smallest <= lo:
            raise InvalidArgumentError(f"outcome {smallest} violates lower bound {lo}")
        largest = float(self._flat.max())
        if self.m_upper is not None and largest >= self.m_upper:
            raise InvalidArgumentError(f"outcome {largest} violates upper bound {self.m_upper}")

    @property
    def n(self) -> int:
        return self.structure.n

    def _index(self) -> np.ndarray:
        """The gather index, built on the first read.  Row 256 b + v holds,
        for each unit, what byte b of a code adds to the unit's flat
        position when that byte reads v: the byte's bits that fall in the
        unit's reference group, each at its node's place in the sorted
        group, plus, in byte 0's rows, the start of the unit's segment."""
        if self._lookup is None:
            n = self.n
            nbytes = -(-n // 8)
            bit = np.zeros((8 * nbytes, n), dtype=np.intp)  # what node k adds to unit i
            for i, g in enumerate(self._groups):
                bit[g, i] = 1 << np.arange(len(g))
            index = np.zeros((nbytes, 256, n), dtype=np.intp)
            index[0, 0] = self._starts
            for rows, weights in zip(index, bit.reshape(nbytes, 8, n)):
                for j, w in enumerate(weights):  # the values with top bit j
                    np.add(rows[: 1 << j], w, out=rows[1 << j : 2 << j])
            self._lookup = index.reshape(256 * nbytes, n)
        return self._lookup

    def observed(self, codes: np.ndarray) -> np.ndarray:
        """The outcomes revealed by each of an int64 block of assignment
        codes: row r holds the n outcomes under ``codes[r]``.

        This is the one outcome lookup.  Each unit's position in the flat
        value array is the sum, over the code's bytes, of one row of the
        byte index (``_index``); one gather at those positions reveals
        every unit's outcome.
        """
        index = self._index()
        at = index.take(codes & 255, axis=0)
        for b in range(1, len(index) >> 8):
            rows = codes >> 8 * b
            rows &= 255
            rows |= b << 8
            at += index.take(rows, axis=0)
        return self._flat.take(at)

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

        The draws are one stream, ``random.Random(seed).random()``
        (``designs._uniform_draws``), so building a table never imports
        ``numpy.random``: unit by unit, each unit's outcomes by
        effective-treatment key, each value ``low + (high - low) u`` on the
        bounds moved in by the interior offset.  Each draw is clipped to the
        doubles next inside the bounds, which moves only a draw the interior
        offset failed to keep off a bound (next to a bound's ulp); an
        interval that holds no double is refused."""
        if not 0 <= k_lower < m_upper < math.inf:
            raise InvalidArgumentError("need 0 <= k_lower < m_upper, both finite")
        lowest, highest = math.nextafter(k_lower, math.inf), math.nextafter(m_upper, -math.inf)
        if not lowest < m_upper:
            raise InvalidArgumentError(
                f"no double lies strictly between k_lower={k_lower!r} and m_upper={m_upper!r}"
            )
        groups = _reference_groups(structure)
        eps = _BOUNDS_EPS_REL * (m_upper - k_lower)
        sizes = [1 << len(g) for g in groups]
        low, high = k_lower + eps, m_upper - eps
        draws = _uniform_draws(seed, sum(sizes))
        draws *= high - low
        draws += low
        np.clip(draws, lowest, highest, out=draws)
        values = np.split(draws, np.cumsum(sizes)[:-1])
        return cls(structure, values, k_lower=k_lower, m_upper=m_upper)

    # ------------------------------------------------------------------
    # Serialization

    def to_json(self, path: str | Path) -> None:
        """Write the document ``from_json`` reads: the structure, any declared
        bounds, and each unit's value array as a list.  Entry c of unit i's
        list is its outcome when bit j of c gives the arm (1 for B) of the
        j-th node of G_i in ascending order: AA, BA, AB, BB for G_i = {0, 1}."""
        s = self.structure
        kind = {NoInterference: "no_interference", KLocal: "k_local", Arbitrary: "arbitrary"}
        spec = {"kind": kind[type(s)], "n": s.n}
        if isinstance(s, KLocal):
            spec.update(k=s.k, edges=sorted(s.graph.edges))
        doc: dict = {"structure": spec}
        for key, bound in (("k_lower", self.k_lower), ("m_upper", self.m_upper)):
            if bound is not None:
                doc[key] = bound
        doc["units"] = [v.tolist() for v in self._values]
        Path(path).write_text(json.dumps(doc) + "\n")

    @classmethod
    def from_json(cls, path: str | Path) -> "PotentialOutcomeTable":
        """Read a table document: a no-interference, k-local or arbitrary
        structure, whose units list their outcomes as ``to_json`` writes.
        Unit i must be a list of exactly 2^|G_i| JSON numbers (a boolean is
        not one)."""
        where = ""  # context: the unit being parsed
        try:
            doc = json.loads(Path(path).read_text())
            spec = doc["structure"]
            if spec["kind"] == "no_interference":
                structure: InterferenceStructure = NoInterference(_integer(spec, "n"))
            elif spec["kind"] == "arbitrary":
                structure = Arbitrary(_integer(spec, "n"))
            elif spec["kind"] == "k_local":
                graph = Graph.from_edges(_integer(spec, "n"), spec["edges"])
                structure = KLocal(graph, _integer(spec, "k"))
            else:
                raise InvalidArgumentError(f"unknown structure kind {spec['kind']!r}")
            groups = _reference_groups(structure)
            units = doc["units"]
            if not isinstance(units, list) or len(units) != structure.n:
                raise InvalidArgumentError(f"units: need one list per unit (n={structure.n})")
            values = []
            for i, (g, entry) in enumerate(zip(groups, units)):
                where = f"unit {i}: "
                size = 1 << len(g)
                # a JSON number loads as an int or a float; type() refuses a bool
                numbers = isinstance(entry, list) and {*map(type, entry)} <= {int, float}
                if not numbers or len(entry) != size:
                    raise InvalidArgumentError(f"need a list of {size} numbers")
                values.append(np.array(entry, dtype=float))
            where = ""
            bounds = {key: doc.get(key) for key in ("k_lower", "m_upper")}
            for key, bound in bounds.items():
                if bound is not None and not _is_number(bound):
                    raise InvalidArgumentError(f"{key}: must be a number, got {bound!r}")
            return cls(structure, values, **bounds)
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
    return _estimand(estimand, table.observed, table.n)


def _estimand_codes(estimand: Estimand, n: int) -> np.ndarray:
    """The int64 codes the estimand reads: all-A and all-B for the mean
    contrast; for the solo estimand, row i assigns arm A to unit i alone."""
    all_b = (1 << n) - 1
    if isinstance(estimand, AverageTreatmentEffect):
        return np.array([0, all_b], dtype=np.int64)
    if isinstance(estimand, SoloTreatmentEffect):
        return all_b ^ (1 << np.arange(n, dtype=np.int64))
    raise InvalidArgumentError(f"unknown estimand {estimand!r}")


def _estimand(estimand: Estimand, observed, n: int) -> float:
    """The estimand on the n outcomes per code that the lookup ``observed``
    reveals, as ``PotentialOutcomeTable.observed`` does.  A value past the
    double range raises OverflowError."""
    y = observed(_estimand_codes(estimand, n))
    if isinstance(estimand, AverageTreatmentEffect):
        with np.errstate(over="ignore", invalid="ignore"):  # refused below instead
            # each row contiguous, so its sum is the pairwise one np.mean
            # takes of the row alone
            means = np.add.reduce(np.ascontiguousarray(y), axis=1) / n
            value = float(means[0] - means[1])
    else:
        value = math.fsum(np.diagonal(y).tolist()) / n
    if not math.isfinite(value):
        raise OverflowError("estimand value past the double range")
    return value
