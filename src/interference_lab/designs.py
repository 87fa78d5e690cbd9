"""Assignment vectors and randomization designs.

Conventions
-----------
Units are indexed 0..n-1 and receive one of two arms, "A" or "B".  An
assignment vector is bit-packed into a plain integer: bit i is 0 when unit i
is in arm A and 1 when it is in arm B.  Enumeration in ascending code order
is therefore lexicographic with A sorting first, which fixes a canonical,
reproducible iteration order.  Code 0 is the all-A vector and code 2^n - 1
the all-B vector.  Blocks of codes are int64 arrays, so every array-side
structure (outcome tables, neighborhood bitmasks) stops at ``CODE_BITS``
units; ``restrict_codes`` gathers a node subset's bits from such a block.

Three designs are supported:

- ``crd``: exactly ``n_a`` units get arm A, uniformly over such vectors;
- ``bd``: each unit gets A or B by an independent fair coin;
- ``cbd``: the fair-coin law conditioned on not being all-A or all-B.

Exact support enumeration is capped at ``ENUMERATION_CAP`` units.  All
operations are pure; values are immutable.
"""

from __future__ import annotations

import math
from typing import Iterator, NamedTuple, Sequence

import numpy as np

from .errors import CapacityError, InvalidArgumentError

ARM_A = "A"
ARM_B = "B"

# 2^14 = 16384 rows keeps full-support scans cheap while covering every
# worked example.
ENUMERATION_CAP = 14

# Bits of a non-negative int64 assignment code: the most units an outcome
# table, a neighborhood bitmask or a Monte Carlo graph can hold.
CODE_BITS = 63

# Codes per `enumerate_support` block.  Each block costs a fixed count of
# numpy calls (a few per run of the gather, per unit and per estimator), so
# at n = 14 the exact layer is bound by call overhead, not arithmetic: an
# n = 14 fair-coin MSE adversary makes 1820 gathers with 256-code blocks and
# 476 with 1024.  Larger blocks save little more time and cost memory: the
# difference in means' (block, 14) temporaries put peak RSS of the n = 14
# crd adversary 0.8 MB (2.0%) above 256-code blocks at 2048, and 0.4 MB at
# 1024.  Results do not depend on the block size.
SUPPORT_BLOCK = 1024


def restrict_codes(codes: np.ndarray, nodes: Sequence[int]) -> np.ndarray:
    """Bit-pack the bits of an int64 block of ``codes`` at ``nodes``: bit
    ``pos`` of each result is bit ``nodes[pos]`` of its code.

    ``nodes`` splits into maximal runs of consecutive ascending nodes; a run
    of ``length`` nodes from ``start`` that lands at bit ``pos`` contributes
    ``((codes >> start) & (2^length - 1)) << pos``, and the runs are OR-ed.
    An arbitrary-interference group (every unit) is one run, so its key is
    the code itself; a no-interference group is one bit; a k-local ball is
    a few runs.  No per-bit array is built.
    """
    key = None
    pos = 0
    for start, length in _runs(nodes):
        part = (codes >> start) & ((1 << length) - 1)
        if pos:
            part <<= pos
            key |= part
        else:
            key = part
        pos += length
    return np.zeros(len(codes), dtype=np.int64) if key is None else key


def _runs(nodes: Sequence[int]) -> list[tuple[int, int]]:
    """``nodes`` as maximal ``(start, length)`` runs of consecutive
    ascending nodes, in the order given."""
    runs: list[tuple[int, int]] = []
    start = end = -1
    for node in map(int, nodes):
        if node != end:
            if end >= 0:
                runs.append((start, end - start))
            start = node
        end = node + 1
    if end >= 0:
        runs.append((start, end - start))
    return runs


def _arms_code(arms: str) -> int:
    """The bit-packed code of the arm labels ``arms`` (unit 0 first, so its
    arm is the lowest bit); any label but A and B is refused."""
    other = arms.replace(ARM_A, "").replace(ARM_B, "")
    if other:  # checked first, since int() also reads "_", spaces and signs
        raise InvalidArgumentError(f"arm must be 'A' or 'B', got {other[0]!r}")
    return int(arms[::-1].replace(ARM_A, "0").replace(ARM_B, "1"), 2) if arms else 0


# Records are NamedTuples, which cost no code generation at import.  A record
# that checks its fields is a subclass of its field tuple, validating in
# ``__new__`` (a NamedTuple body may not define one).
class _AssignmentFields(NamedTuple):
    code: int
    n: int


class Assignment(_AssignmentFields):
    """A length-n arm vector, bit-packed (bit i set <=> unit i in arm B)."""

    __slots__ = ()

    def __new__(cls, code: int, n: int) -> "Assignment":
        if n < 1:
            raise InvalidArgumentError(f"need at least one unit, got n={n}")
        if not 0 <= code < (1 << n):
            raise InvalidArgumentError(f"code {code} out of range for n={n}")
        return super().__new__(cls, code, n)

    @classmethod
    def from_arms(cls, arms: str) -> "Assignment":
        return cls(_arms_code(arms), len(arms))

    @property
    def labels(self) -> str:
        """The vector as a string like ``"ABBA"`` (unit 0 first)."""
        return "".join(ARM_B if (self.code >> i) & 1 else ARM_A for i in range(self.n))


class _DesignFields(NamedTuple):
    kind: str
    n: int
    n_a: int | None = None


class Design(_DesignFields):
    """A randomization law over arm vectors.

    ``kind`` is one of ``"crd"``, ``"bd"``, ``"cbd"``.  ``n_a`` (the fixed
    arm-A count) is required for ``crd`` and must be absent otherwise.
    """

    __slots__ = ()

    def __new__(cls, kind: str, n: int, n_a: int | None = None) -> "Design":
        if kind not in ("crd", "bd", "cbd"):
            raise InvalidArgumentError(f"unknown design kind {kind!r}")
        if n < 1:
            raise InvalidArgumentError(f"need at least one unit, got n={n}")
        if kind == "crd":
            if n_a is None:
                raise InvalidArgumentError("crd requires n_a")
            if not 0 < n_a < n:
                raise InvalidArgumentError(f"crd needs 0 < n_a < n, got n_a={n_a}, n={n}")
        else:
            if n_a is not None:
                raise InvalidArgumentError(f"{kind} takes no n_a")
            if kind == "cbd" and n < 2:
                raise InvalidArgumentError("cbd needs n >= 2 (its support is empty otherwise)")
        return super().__new__(cls, kind, n, n_a)


def check_enumerable(design: Design) -> None:
    """Raise ``CapacityError`` if the design's support is past exact
    enumeration, above ``ENUMERATION_CAP`` units."""
    if design.n > ENUMERATION_CAP:
        raise CapacityError(
            f"support enumeration capped at n={ENUMERATION_CAP} (got n={design.n}); "
            "exact analysis does not run beyond it"
        )


def enumerate_support(design: Design) -> Iterator[tuple[np.ndarray, float]]:
    """Yield the positive-probability vectors as ``(codes, p)``: ``codes`` an
    int64 block of at most ``SUPPORT_BLOCK`` codes, every code once, in
    ascending order across blocks, and ``p`` the probability of each.

    This is the one statement of the three design laws; each is uniform on
    its support, so one ``p`` serves every block.  Probabilities sum to 1
    within 1e-12 over the enumerated support.  Raises ``CapacityError``
    above ``ENUMERATION_CAP`` units.
    """
    check_enumerable(design)
    n = design.n
    codes = np.arange(1 << n, dtype=np.int64)
    if design.kind == "bd":
        p = 0.5 ** n
    elif design.kind == "crd":
        codes = codes[np.bitwise_count(codes) == n - design.n_a]  # type: ignore[operator]
        p = 1.0 / math.comb(n, design.n_a)  # type: ignore[arg-type]
    else:
        codes = codes[1:-1]
        p = 1.0 / float((1 << n) - 2)
    for start in range(0, len(codes), SUPPORT_BLOCK):
        yield codes[start : start + SUPPORT_BLOCK], p
