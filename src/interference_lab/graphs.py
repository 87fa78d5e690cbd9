"""Undirected networks, hop neighborhoods, and interference structures.

Distances are unweighted hop counts; disconnected pairs are at infinite
distance and never fall inside a finite-radius ball.  Neighborhoods are
closed: every node is at distance 0 from itself, so it always belongs to its
own k-step ball.

An interference structure declares which coordinates of the assignment
vector can move a unit's outcome:

- ``NoInterference(n)``: only the unit's own arm;
- ``KLocal(graph, k)``: the arms inside the unit's closed k-step ball;
- ``Arbitrary(n)``: the whole vector.

The structure induces, per unit i, a reference group G_i (the coordinate
set), the unit's effective treatment (the assignment restricted to G_i), a
count of possible effective treatments, and, under the fair-coin design, the
set of assignments sharing a given effective treatment.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from functools import cached_property
from pathlib import Path
from typing import Iterable, NamedTuple, Union

import numpy as np

from .designs import ARM_A, ARM_B, Assignment, Design, restrict_codes
from .errors import (
    CapacityError,
    GraphFormatError,
    InvalidArgumentError,
    UnsupportedDesignError,
)


@dataclass(frozen=True)
class Graph:
    """Simple undirected graph on nodes 0..n-1."""

    n: int
    edges: frozenset[tuple[int, int]]

    def __post_init__(self) -> None:
        if self.n < 1:
            raise InvalidArgumentError(f"need at least one node, got n={self.n}")
        for u, v in self.edges:
            if u == v:
                raise GraphFormatError(f"self-loop at node {u}")
            if not (0 <= u < v < self.n):
                raise GraphFormatError(f"bad edge ({u}, {v}) for n={self.n}")

    @classmethod
    def from_edges(cls, n: int, edges: Iterable[tuple[int, int]]) -> "Graph":
        normalized = set()
        for u, v in edges:
            u, v = int(u), int(v)
            if u == v:
                raise GraphFormatError(f"self-loop at node {u}")
            pair = (u, v) if u < v else (v, u)
            if pair in normalized:
                raise GraphFormatError(f"duplicate edge {pair}")
            normalized.add(pair)
        return cls(n, frozenset(normalized))

    @classmethod
    def empty(cls, n: int) -> "Graph":
        return cls(n, frozenset())

    @classmethod
    def complete(cls, n: int) -> "Graph":
        return cls(n, frozenset((u, v) for u in range(n) for v in range(u + 1, n)))

    @classmethod
    def path(cls, n: int) -> "Graph":
        return cls(n, frozenset((i, i + 1) for i in range(n - 1)))

    @classmethod
    def from_file(cls, path: str | Path) -> "Graph":
        """Load the plain-text format: first line n, then one "u v" per line.

        Nodes are 0-indexed.  Duplicate or self-loop lines are load errors.
        """
        lines = [
            ln.strip()
            for ln in Path(path).read_text().splitlines()
            if ln.strip() and not ln.lstrip().startswith("#")
        ]
        if not lines:
            raise GraphFormatError(f"{path}: empty graph file")
        try:
            n = int(lines[0])
        except ValueError as exc:
            raise GraphFormatError(f"{path}: first line must be the node count") from exc
        edges = []
        for ln in lines[1:]:
            parts = ln.split()
            if len(parts) != 2:
                raise GraphFormatError(f"{path}: bad edge line {ln!r}")
            try:
                edges.append((int(parts[0]), int(parts[1])))
            except ValueError as exc:
                raise GraphFormatError(f"{path}: bad edge line {ln!r}") from exc
        try:
            return cls.from_edges(n, edges)
        except GraphFormatError as exc:
            raise GraphFormatError(f"{path}: {exc}") from exc

    def to_file(self, path: str | Path) -> None:
        lines = [str(self.n)]
        lines += [f"{u} {v}" for u, v in sorted(self.edges)]
        Path(path).write_text("\n".join(lines) + "\n")

    def adjacency_lists(self) -> list[list[int]]:
        adj: list[list[int]] = [[] for _ in range(self.n)]
        for u, v in self.edges:
            adj[u].append(v)
            adj[v].append(u)
        return adj

    def adjacency_matrix(self) -> np.ndarray:
        m = np.zeros((self.n, self.n), dtype=bool)
        for u, v in self.edges:
            m[u, v] = m[v, u] = True
        return m


def _ball(adj: list[list[int]], i: int, k: int) -> frozenset[int]:
    """Closed ball of hop radius k around node i (breadth-first)."""
    seen = {i}
    frontier = deque([(i, 0)])
    while frontier:
        node, dist = frontier.popleft()
        if dist == k:
            continue
        for nxt in adj[node]:
            if nxt not in seen:
                seen.add(nxt)
                frontier.append((nxt, dist + 1))
    return frozenset(seen)


def k_step_neighborhood(graph: Graph, i: int, k: int) -> frozenset[int]:
    """Closed ball of hop radius k around node i."""
    if not 0 <= i < graph.n:
        raise InvalidArgumentError(f"node {i} out of range for n={graph.n}")
    if k < 0:
        raise InvalidArgumentError(f"radius must be >= 0, got {k}")
    return _ball(graph.adjacency_lists(), i, k)


@dataclass(frozen=True)
class NeighborhoodIndex:
    """Precomputed closed k-step balls for every node of a graph."""

    graph: Graph
    k: int
    closed: tuple[frozenset[int], ...]

    @classmethod
    def build(cls, graph: Graph, k: int) -> "NeighborhoodIndex":
        if k < 0:
            raise InvalidArgumentError(f"radius must be >= 0, got {k}")
        adj = graph.adjacency_lists()
        return cls(graph, k, tuple(_ball(adj, i, k) for i in range(graph.n)))

    @property
    def n(self) -> int:
        return self.graph.n

    def masks(self) -> np.ndarray:
        """Neighborhoods as int64 bitmasks (requires n <= 62)."""
        if self.n > 62:
            raise CapacityError(f"bitmask form needs n <= 62, got n={self.n}")
        out = np.zeros(self.n, dtype=np.int64)
        for i, ball in enumerate(self.closed):
            m = 0
            for j in ball:
                m |= 1 << j
            out[i] = m
        return out

    def sizes(self) -> np.ndarray:
        return np.array([len(b) for b in self.closed], dtype=np.int64)


def is_exposed(index: NeighborhoodIndex, i: int, z: Assignment, arm: str) -> bool:
    """True iff every unit in node i's closed ball has the given arm."""
    if z.n != index.n:
        raise InvalidArgumentError(
            f"assignment has n={z.n} but index has n={index.n}"
        )
    if arm not in (ARM_A, ARM_B):
        raise InvalidArgumentError(f"arm must be 'A' or 'B', got {arm!r}")
    mask = 0
    for j in index.closed[i]:
        mask |= 1 << j
    if arm == ARM_A:
        return (z.code & mask) == 0
    return (z.code & mask) == mask


@dataclass(frozen=True)
class NoInterference:
    n: int


@dataclass(frozen=True)
class KLocal:
    graph: Graph
    k: int

    @cached_property
    def index(self) -> NeighborhoodIndex:
        return NeighborhoodIndex.build(self.graph, self.k)

    @property
    def n(self) -> int:
        return self.graph.n


@dataclass(frozen=True)
class Arbitrary:
    n: int


InterferenceStructure = Union[NoInterference, KLocal, Arbitrary]


def reference_group(structure: InterferenceStructure, i: int) -> frozenset[int]:
    """Smallest coordinate set that determines unit i's outcome."""
    if not 0 <= i < structure.n:
        raise InvalidArgumentError(f"unit {i} out of range for n={structure.n}")
    if isinstance(structure, NoInterference):
        return frozenset({i})
    if isinstance(structure, KLocal):
        return structure.index.closed[i]
    return frozenset(range(structure.n))


def effective_treatment(
    structure: InterferenceStructure, i: int, z: Assignment
) -> tuple[str, ...]:
    """Restriction of z to the reference group, in ascending-node order."""
    if z.n != structure.n:
        raise InvalidArgumentError(
            f"assignment has n={z.n} but structure has n={structure.n}"
        )
    return tuple(z.arm(j) for j in sorted(reference_group(structure, i)))


def effective_treatment_key(
    structure: InterferenceStructure, i: int, z: Assignment
) -> int:
    """Canonical bit-packed form of the effective treatment (A=0 bit,
    ordered by ascending node id within the reference group)."""
    if z.n != structure.n:
        raise InvalidArgumentError(
            f"assignment has n={z.n} but structure has n={structure.n}"
        )
    return restrict_codes(z.code, sorted(reference_group(structure, i)))


def effective_treatment_count(structure: InterferenceStructure, i: int) -> int:
    """Number of distinct effective treatments unit i can receive when the
    full assignment space has positive probability everywhere."""
    return 1 << len(reference_group(structure, i))


class InformativeSet(NamedTuple):
    size: int
    fraction: float


def informative_set(
    structure: InterferenceStructure, design: Design, i: int, z: Assignment
) -> InformativeSet:
    """Count assignments sharing unit i's effective treatment under ``z``.

    Under the fair-coin design the count is 2^(n - |G_i|) regardless of z,
    and the fraction of all assignments is exactly one over the number of
    effective treatments.  Other designs have no such closed form here.
    """
    if design.kind != "bd":
        raise UnsupportedDesignError(
            "informative-set counting is closed-form under the fair-coin "
            f"design only (got {design.kind!r})"
        )
    if design.n != structure.n or z.n != structure.n:
        raise InvalidArgumentError("design, structure, and assignment sizes differ")
    g = reference_group(structure, i)
    size = 1 << (structure.n - len(g))
    return InformativeSet(size, size / (1 << structure.n))
