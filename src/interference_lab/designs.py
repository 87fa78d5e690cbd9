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

The package's seeded draws outside Monte Carlo, a random outcome table and
a one-off ER graph's coins, both read one stream (``_uniform_draws``):
Python's Mersenne Twister, ``random.Random(seed).random()``, whose sequence
for a given seed Python keeps across versions.  numpy's own import loads
``random``, so it costs nothing to import, where ``numpy.random`` costs
10-15 ms.
"""

from __future__ import annotations

import itertools
import math
import random
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
# numpy calls (a few per code byte in the outcome gather; in the estimator a
# few whole-block passes plus, for the exposure-weighted one, an add per
# unit), so at n = 14 the exact layer is bound by call overhead, not
# arithmetic.  `exact_moments` at n = 14 with 256 / 512 / 1024 / 2048 /
# 4096-code blocks (medians of 101 calls, 2-core x86-64): the exposure-
# weighted estimator under bd on a k = 1 graph with 21 edges (ER(14, 0.2),
# seed 5) takes 3.4 / 2.9 / 2.6 / 2.7 / 3.1 ms, the difference in means
# under crd (n_a = 7) 0.93 / 0.81 / 0.74 / 0.70 / 0.94 ms.  Past 1024 the
# time stops falling while the (block, 14) temporaries grow: the two
# passes' tracemalloc peaks are 0.62 and 0.29 MB at 1024, 1.33 and 0.86 MB
# at 4096.  Results do not depend on the block size.
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


def check_seed(seed: int) -> None:
    """Refuse a negative seed: ``random.Random`` would seed -s as s, and
    numpy refuses it."""
    if seed < 0:
        raise InvalidArgumentError(f"seed must be non-negative, got {seed}")


def _uniform_draws(seed: int, count: int) -> np.ndarray:
    """The first ``count`` values of ``random.Random(seed).random()``, in
    [0, 1), as a float64 array filled without a list of Python floats."""
    check_seed(seed)
    draws = itertools.starmap(random.Random(seed).random, itertools.repeat((), count))
    return np.fromiter(draws, dtype=np.float64, count=count)
