"""Small graphs the tests share, each built through ``Graph.from_edges``."""

from interference_lab import Graph


def path_graph(n: int) -> Graph:
    """Nodes 0..n-1 joined in order: 0-1, 1-2, ..."""
    return Graph.from_edges(n, [(i, i + 1) for i in range(n - 1)])


def empty_graph(n: int) -> Graph:
    """n nodes and no edges."""
    return Graph.from_edges(n, [])
