"""Assignment vectors and randomization designs.

Conventions
-----------
Units are indexed 0..n-1 and receive one of two arms, "A" or "B".  An
assignment vector is bit-packed into a plain integer: bit i is 0 when unit i
is in arm A and 1 when it is in arm B.  Enumeration in ascending code order
is therefore lexicographic with A sorting first, which fixes a canonical,
reproducible iteration order.  Code 0 is the all-A vector and code 2^n - 1
the all-B vector.

Three designs are supported:

- ``crd``: exactly ``n_a`` units get arm A, uniformly over such vectors;
- ``bd``: each unit gets A or B by an independent fair coin;
- ``cbd``: the fair-coin law conditioned on not being all-A or all-B.

Exact support enumeration is capped at ``ENUMERATION_CAP`` units; beyond
that, use ``sample`` (Monte Carlo).  All operations are pure; values are
immutable and safe to share across workers.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterator, Sequence

import numpy as np

from .errors import (
    CapacityError,
    InvalidArgumentError,
    UnsupportedDesignError,
)

ARM_A = "A"
ARM_B = "B"

# 2^14 = 16384 rows keeps full-support scans cheap while covering every
# worked example; larger populations must go through `sample`.
ENUMERATION_CAP = 14


def restrict_codes(codes, nodes: Sequence[int]):
    """Bit-pack the bits of ``codes`` at ``nodes``: bit ``pos`` of the result
    is bit ``nodes[pos]`` of the code.

    ``codes`` is one Python int (any n) or an int64 array of codes (n <= 62),
    gathered elementwise; the result has the same form.
    """
    sub = codes & 0
    for pos, i in enumerate(nodes):
        sub |= ((codes >> i) & 1) << pos
    return sub


@dataclass(frozen=True)
class Assignment:
    """A length-n arm vector, bit-packed (bit i set <=> unit i in arm B)."""

    code: int
    n: int

    def __post_init__(self) -> None:
        if self.n < 1:
            raise InvalidArgumentError(f"need at least one unit, got n={self.n}")
        if not 0 <= self.code < (1 << self.n):
            raise InvalidArgumentError(
                f"code {self.code} out of range for n={self.n}"
            )

    @classmethod
    def from_arms(cls, arms: Sequence[str]) -> "Assignment":
        code = 0
        for i, arm in enumerate(arms):
            if arm == ARM_B:
                code |= 1 << i
            elif arm != ARM_A:
                raise InvalidArgumentError(f"arm must be 'A' or 'B', got {arm!r}")
        return cls(code, len(arms))

    @classmethod
    def all_a(cls, n: int) -> "Assignment":
        return cls(0, n)

    @classmethod
    def all_b(cls, n: int) -> "Assignment":
        return cls((1 << n) - 1, n)

    @classmethod
    def solo_a(cls, i: int, n: int) -> "Assignment":
        """The vector assigning arm A to unit i alone, arm B to the rest."""
        if not 0 <= i < n:
            raise InvalidArgumentError(f"unit {i} out of range for n={n}")
        return cls(((1 << n) - 1) ^ (1 << i), n)

    def arm(self, i: int) -> str:
        if not 0 <= i < self.n:
            raise InvalidArgumentError(f"unit {i} out of range for n={self.n}")
        return ARM_B if (self.code >> i) & 1 else ARM_A

    @property
    def arms(self) -> tuple[str, ...]:
        return tuple(self.arm(i) for i in range(self.n))

    @property
    def labels(self) -> str:
        """The vector as a string like ``"ABBA"`` (unit 0 first)."""
        return "".join(self.arms)

    @property
    def n_a(self) -> int:
        return self.n - self.n_b

    @property
    def n_b(self) -> int:
        return (self.code).bit_count()

    def bits(self) -> np.ndarray:
        """0/1 vector with 1 meaning arm B."""
        return np.array([(self.code >> i) & 1 for i in range(self.n)], dtype=np.uint8)

    def restrict_code(self, nodes: Sequence[int]) -> int:
        """Bit-pack the sub-vector over ``nodes`` taken in ascending order."""
        return restrict_codes(self.code, sorted(nodes))

    def with_arm(self, i: int, arm: str) -> "Assignment":
        if arm not in (ARM_A, ARM_B):
            raise InvalidArgumentError(f"arm must be 'A' or 'B', got {arm!r}")
        bit = 1 << i
        code = self.code | bit if arm == ARM_B else self.code & ~bit
        return Assignment(code, self.n)

    def __str__(self) -> str:
        return self.labels


@dataclass(frozen=True)
class Design:
    """A randomization law over arm vectors.

    ``kind`` is one of ``"crd"``, ``"bd"``, ``"cbd"``.  ``n_a`` (the fixed
    arm-A count) is required for ``crd`` and must be absent otherwise.
    """

    kind: str
    n: int
    n_a: int | None = None

    def __post_init__(self) -> None:
        if self.kind not in ("crd", "bd", "cbd"):
            raise InvalidArgumentError(f"unknown design kind {self.kind!r}")
        if self.n < 1:
            raise InvalidArgumentError(f"need at least one unit, got n={self.n}")
        if self.kind == "crd":
            if self.n_a is None:
                raise InvalidArgumentError("crd requires n_a")
            if not 0 < self.n_a < self.n:
                raise InvalidArgumentError(
                    f"crd needs 0 < n_a < n, got n_a={self.n_a}, n={self.n}"
                )
        else:
            if self.n_a is not None:
                raise InvalidArgumentError(f"{self.kind} takes no n_a")
            if self.kind == "cbd" and self.n < 2:
                raise InvalidArgumentError("cbd needs n >= 2 (its support is empty otherwise)")

    @classmethod
    def crd(cls, n: int, n_a: int) -> "Design":
        return cls("crd", n, n_a)

    @classmethod
    def bd(cls, n: int) -> "Design":
        return cls("bd", n)

    @classmethod
    def cbd(cls, n: int) -> "Design":
        return cls("cbd", n)

    @property
    def n_b(self) -> int:
        if self.n_a is None:
            raise InvalidArgumentError(f"{self.kind} has no fixed arm counts")
        return self.n - self.n_a


def _log_comb(n: int, k: int) -> float:
    return math.lgamma(n + 1) - math.lgamma(k + 1) - math.lgamma(n - k + 1)


def _inv_comb(n: int, k: int) -> float:
    # Exact integer binomial, with a log-space fallback once 1/C(n,k)
    # underflows plain double conversion (sampling-only regime, n > ~1000).
    c = math.comb(n, k)
    try:
        return 1.0 / float(c)
    except OverflowError:
        return math.exp(-_log_comb(n, k))


def pmf(design: Design, z: Assignment) -> float:
    """Probability the design assigns to the vector ``z``."""
    if z.n != design.n:
        raise InvalidArgumentError(
            f"assignment has n={z.n} but design has n={design.n}"
        )
    if design.kind == "bd":
        return 0.5 ** design.n
    if design.kind == "crd":
        if z.n_a != design.n_a:
            return 0.0
        return _inv_comb(design.n, design.n_a)
    # cbd: uniform off the two pure vectors
    if z.code == 0 or z.code == (1 << design.n) - 1:
        return 0.0
    return 1.0 / float((1 << design.n) - 2)


def support_size(design: Design) -> int:
    if design.kind == "bd":
        return 1 << design.n
    if design.kind == "crd":
        return math.comb(design.n, design.n_a)
    return (1 << design.n) - 2


def enumerate_support(
    design: Design, cap: int = ENUMERATION_CAP
) -> Iterator[tuple[Assignment, float]]:
    """Yield every positive-probability vector once, in ascending code order.

    Probabilities sum to 1 within 1e-12 over the enumerated support.  Raises
    ``CapacityError`` above the cap; use ``sample`` for Monte Carlo there.
    """
    if design.n > cap:
        raise CapacityError(
            f"support enumeration capped at n={cap} (got n={design.n}); "
            "switch to the Monte Carlo path via sample()"
        )
    n = design.n
    if design.kind == "bd":
        p = 0.5 ** n
        for code in range(1 << n):
            yield Assignment(code, n), p
    elif design.kind == "crd":
        n_b = design.n - design.n_a  # type: ignore[operator]
        p = _inv_comb(n, design.n_a)  # type: ignore[arg-type]
        for code in range(1 << n):
            if code.bit_count() == n_b:
                yield Assignment(code, n), p
    else:
        p = 1.0 / float((1 << n) - 2)
        for code in range(1, (1 << n) - 1):
            yield Assignment(code, n), p


def sample(design: Design, seed: int) -> Assignment:
    """Draw one assignment; deterministic given ``seed``.

    ``cbd`` is sampled by rejection of the two pure vectors (expected < 2
    draws for n >= 2), which keeps the marginal law exact.
    """
    rng = np.random.default_rng(seed)
    n = design.n
    if design.kind == "bd":
        bits = rng.integers(0, 2, size=n)
        return Assignment(int(sum(int(b) << i for i, b in enumerate(bits))), n)
    if design.kind == "crd":
        a_units = rng.choice(n, size=design.n_a, replace=False)
        code = (1 << n) - 1
        for i in a_units:
            code &= ~(1 << int(i))
        return Assignment(code, n)
    while True:
        bits = rng.integers(0, 2, size=n)
        code = int(sum(int(b) << i for i, b in enumerate(bits)))
        if code != 0 and code != (1 << n) - 1:
            return Assignment(code, n)


def exposure_probability(
    design: Design,
    nbhd_i: Sequence[int] | frozenset[int] | set[int],
    arm_i: str,
    nbhd_j: Sequence[int] | frozenset[int] | set[int] | None = None,
    arm_j: str | None = None,
) -> float:
    """Probability that a closed neighborhood (or a pair) is uniformly armed.

    The closed forms hold for the fair-coin design only: a single
    neighborhood of size s is uniformly in one arm with probability (1/2)^s;
    two neighborhoods in the same arm with probability (1/2)^|union|; two
    neighborhoods in opposite arms with probability 0 when they intersect
    and the product of the single probabilities when they are disjoint.

    Neighborhood sets are expected to be closed (each contains its own
    unit); the caller owns that invariant.
    """
    if design.kind != "bd":
        raise UnsupportedDesignError(
            "exposure probabilities have closed forms under the fair-coin "
            f"design only (got {design.kind!r})"
        )
    si = frozenset(int(v) for v in nbhd_i)
    if not si:
        raise InvalidArgumentError("neighborhood sets must be nonempty")
    for v in si:
        if not 0 <= v < design.n:
            raise InvalidArgumentError(f"node {v} out of range for n={design.n}")
    if arm_i not in (ARM_A, ARM_B):
        raise InvalidArgumentError(f"arm must be 'A' or 'B', got {arm_i!r}")
    if nbhd_j is None:
        if arm_j is not None:
            raise InvalidArgumentError("arm_j given without nbhd_j")
        return 0.5 ** len(si)
    sj = frozenset(int(v) for v in nbhd_j)
    if not sj:
        raise InvalidArgumentError("neighborhood sets must be nonempty")
    for v in sj:
        if not 0 <= v < design.n:
            raise InvalidArgumentError(f"node {v} out of range for n={design.n}")
    if arm_j is None or arm_j not in (ARM_A, ARM_B):
        raise InvalidArgumentError("joint query needs arm_j in {'A','B'}")
    if arm_i == arm_j:
        return 0.5 ** len(si | sj)
    if si & sj:
        return 0.0
    return (0.5 ** len(si)) * (0.5 ** len(sj))
