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
set) and a count of possible effective treatments (restrictions of the
assignment to G_i, gathered by ``designs.restrict_codes``).  Under the
fair-coin design every effective treatment is equally likely, so the share
of assignments informative about a unit is one over that count.

``Graph.from_file`` parses a graph file inside one error handler: any failure
raises one ``GraphFormatError`` that starts with the path and quotes the edge
line at fault; a file that cannot be opened raises its ``OSError``.
"""

from __future__ import annotations

from collections import deque
from functools import cached_property
from pathlib import Path
from typing import Iterable, NamedTuple, Union

import numpy as np

from .designs import CODE_BITS
from .errors import CapacityError, GraphFormatError, InvalidArgumentError


def _node(x) -> int:
    """An edge endpoint as an int; a float or a bool is refused, not truncated."""
    if isinstance(x, bool) or not isinstance(x, (int, np.integer)):
        raise GraphFormatError(f"node {x!r} is not an integer")
    return int(x)


class _GraphFields(NamedTuple):
    n: int
    edges: frozenset[tuple[int, int]]


class Graph(_GraphFields):
    """Simple undirected graph on nodes 0..n-1."""

    __slots__ = ()

    def __new__(cls, n: int, edges: frozenset[tuple[int, int]]) -> "Graph":
        if n < 1:
            raise InvalidArgumentError(f"need at least one node, got n={n}")
        for u, v in edges:
            if u == v:
                raise GraphFormatError(f"self-loop at node {u}")
            if not (0 <= u < v < n):
                raise GraphFormatError(f"bad edge ({u}, {v}) for n={n}")
        return super().__new__(cls, n, edges)

    @classmethod
    def from_edges(cls, n: int, edges: Iterable[tuple[int, int]]) -> "Graph":
        normalized = set()
        for u, v in edges:
            u, v = _node(u), _node(v)
            pair = (u, v) if u < v else (v, u)
            if pair in normalized:
                raise GraphFormatError(f"duplicate edge {pair}")
            normalized.add(pair)
        return cls(n, frozenset(normalized))

    @classmethod
    def from_file(cls, path: str | Path) -> "Graph":
        """Load the plain-text format: first line n, then one "u v" per line.

        Nodes are 0-indexed.  Duplicate or self-loop lines are load errors.
        """
        where = ""  # context: the line being parsed
        try:
            lines = [ln.strip() for ln in Path(path).read_text().splitlines()]
            lines = [ln for ln in lines if ln and not ln.startswith("#")]
            if not lines:
                raise GraphFormatError("empty graph file")
            where = "first line, the node count: "
            n = int(lines[0])
            edges = []
            for ln in lines[1:]:
                where = f"bad edge line {ln!r}: "
                u, v = ln.split()
                edges.append((int(u), int(v)))
            where = ""
            return cls.from_edges(n, edges)
        except ValueError as exc:  # a UnicodeDecodeError or InvalidArgumentError too
            raise GraphFormatError(f"{path}: {where}{exc}") from exc


def k_step_neighborhood(graph: Graph, i: int, k: int) -> frozenset[int]:
    """Closed ball of hop radius k around node i."""
    if not 0 <= i < graph.n:
        raise InvalidArgumentError(f"node {i} out of range for n={graph.n}")
    return NeighborhoodIndex.build(graph, k).closed[i]


class NeighborhoodIndex(NamedTuple):
    """Precomputed closed k-step balls for every node of a graph."""

    graph: Graph
    k: int
    closed: tuple[frozenset[int], ...]

    @classmethod
    def build(cls, graph: Graph, k: int) -> "NeighborhoodIndex":
        if k < 0:
            raise InvalidArgumentError(f"radius must be >= 0, got {k}")
        adj: list[list[int]] = [[] for _ in range(graph.n)]
        for u, v in graph.edges:
            adj[u].append(v)
            adj[v].append(u)
        balls = []
        for i in range(graph.n):  # breadth-first from each node
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
            balls.append(frozenset(seen))
        return cls(graph, k, tuple(balls))

    @property
    def n(self) -> int:
        return self.graph.n

    def masks(self) -> np.ndarray:
        """Neighborhoods as int64 bitmasks (requires n <= ``CODE_BITS``)."""
        if self.n > CODE_BITS:
            raise CapacityError(f"bitmask form needs n <= {CODE_BITS}, got n={self.n}")
        out = np.zeros(self.n, dtype=np.int64)
        for i, ball in enumerate(self.closed):
            m = 0
            for j in ball:
                m |= 1 << j
            out[i] = m
        return out


class NoInterference(NamedTuple):
    n: int


class _KLocalFields(NamedTuple):
    graph: Graph
    k: int


class KLocal(_KLocalFields):
    # No ``__slots__ = ()``: the instance dict holds the cached index.

    @cached_property
    def index(self) -> NeighborhoodIndex:
        return NeighborhoodIndex.build(self.graph, self.k)

    @property
    def n(self) -> int:
        return self.graph.n


class Arbitrary(NamedTuple):
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


def effective_treatment_count(structure: InterferenceStructure, i: int) -> int:
    """Number of distinct effective treatments unit i can receive when the
    full assignment space has positive probability everywhere."""
    return 1 << len(reference_group(structure, i))

