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
units; an outcome table reads such a block a byte at a time
(``outcomes.PotentialOutcomeTable.observed``).

Three designs are supported:

- ``crd``: exactly ``n_a`` units get arm A, uniformly over such vectors;
- ``bd``: each unit gets A or B by an independent fair coin;
- ``cbd``: the fair-coin law conditioned on not being all-A or all-B.

Each law is stated once, as its support size (``support_size``) and a
membership test on int64 codes (``in_support``); every law is uniform on its
support.  Exact support enumeration is capped at ``ENUMERATION_CAP`` units,
the membership test at ``CODE_BITS``.  All operations are pure; values are
immutable.
"""

from __future__ import annotations

import math
from typing import Iterator, NamedTuple

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
# numpy calls (a few per code byte in the outcome gather, a few per unit in
# the estimator), so at n = 14 the exact layer is bound by call overhead,
# not arithmetic.  `exact_moments` at n = 14 with 256 / 1024 / 4096-code
# blocks (medians of 31 calls, 2-core x86-64): the exposure-weighted
# estimator under bd on a k = 1 graph with 18 edges takes 7.8 / 3.7 / 3.3
# ms, the difference in means under crd (n_a = 7) 1.6 / 1.4 / 1.6 ms.
# Past 1024 the (block, 14) temporaries cost more than the calls they save:
# 4096-code blocks raise both passes' tracemalloc peak to 1.18 MB (0.56 and
# 0.41 MB at 1024) and the benchmark's enum-moments peak RSS by 1.1 MB.
# Results do not depend on the block size.
SUPPORT_BLOCK = 1024


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


def support_size(design: Design) -> int:
    """|S|, the number of codes with positive probability: 2^n under bd,
    2^n - 2 under cbd and C(n, n_a) under crd.  Every law is uniform on its
    support, so each code has probability 1 / |S|."""
    if design.kind == "crd":
        return math.comb(design.n, design.n_a)  # type: ignore[arg-type]
    return (1 << design.n) - (2 if design.kind == "cbd" else 0)


def in_support(design: Design, codes: np.ndarray) -> np.ndarray:
    """Whether each int64 code of the design's n units has positive
    probability: every code under bd, all but all-A (0) and all-B
    (2^n - 1) under cbd, and those with n - n_a units in arm B under crd."""
    if design.kind == "crd":
        return np.bitwise_count(codes) == design.n - design.n_a  # type: ignore[operator]
    if design.kind == "cbd":
        return (codes != 0) & (codes != (1 << design.n) - 1)
    return np.ones(len(codes), dtype=bool)


def enumerate_support(design: Design) -> Iterator[tuple[np.ndarray, float]]:
    """Yield the positive-probability vectors as ``(codes, p)``: ``codes`` an
    int64 block of at most ``SUPPORT_BLOCK`` codes, every code once, in
    ascending order across blocks, and ``p`` the probability of each.

    The support is ``in_support``'s and ``p`` is 1 / ``support_size``, one
    ``p`` for every block.  Probabilities sum to 1 within 1e-12 over the
    enumerated support.  Raises ``CapacityError`` above ``ENUMERATION_CAP``
    units.
    """
    check_enumerable(design)
    codes = np.arange(1 << design.n, dtype=np.int64)
    codes = codes[in_support(design, codes)]
    p = 1 / support_size(design)  # int / int rounds once: 0.5**n under bd
    for start in range(0, len(codes), SUPPORT_BLOCK):
        yield codes[start : start + SUPPORT_BLOCK], p
