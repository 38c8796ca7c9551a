"""Minimal immutable undirected simple graphs with a proper-coloring check.

Vertices are dense 0-based indices.  Labels are an optional parallel
decoration (never used for adjacency).  Colors are the literals 1, 2, 3.
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Mapping, Optional

COLORS = (1, 2, 3)

Edge = tuple[int, int]


class Graph:
    """Undirected simple graph: no self-loops, no parallel edges.

    Edges are kept both as a frozenset of sorted pairs (containment) and as
    adjacency tuples (iteration); consistency between the two is asserted at
    construction, never left to callers.
    """

    __slots__ = ("vertex_count", "edges", "adjacency", "labels")

    def __init__(
        self,
        vertex_count: int,
        edges: Iterable[Edge],
        labels: Optional[Iterable[str]] = None,
    ):
        if vertex_count < 0:
            raise ValueError("vertex_count must be nonnegative")
        edge_set = set()
        for a, b in edges:
            if a == b:
                raise ValueError(f"self-loop at vertex {a}")
            if not (0 <= a < vertex_count and 0 <= b < vertex_count):
                raise ValueError(f"edge ({a},{b}) out of range for n={vertex_count}")
            edge_set.add((a, b) if a < b else (b, a))
        adj: list[list[int]] = [[] for _ in range(vertex_count)]
        for a, b in edge_set:
            adj[a].append(b)
            adj[b].append(a)
        if labels is not None:
            labels = tuple(labels)
            if len(labels) != vertex_count:
                raise ValueError("labels length must equal vertex_count")
            if len(set(labels)) != len(labels):
                raise ValueError("labels must be unique")

        object.__setattr__(self, "vertex_count", vertex_count)
        object.__setattr__(self, "edges", frozenset(edge_set))
        object.__setattr__(
            self, "adjacency", tuple(tuple(sorted(nbrs)) for nbrs in adj)
        )
        object.__setattr__(self, "labels", labels)
        assert sum(len(nbrs) for nbrs in self.adjacency) == 2 * len(self.edges)

    def __setattr__(self, name, value):
        raise AttributeError("Graph is immutable")

    @property
    def edge_count(self) -> int:
        return len(self.edges)

    def has_edge(self, a: int, b: int) -> bool:
        return ((a, b) if a < b else (b, a)) in self.edges

    def degree(self, v: int) -> int:
        return len(self.adjacency[v])

    def label_of(self, v: int) -> Optional[str]:
        return self.labels[v] if self.labels is not None else None

    def __repr__(self) -> str:
        return f"Graph(n={self.vertex_count}, m={self.edge_count})"


@dataclass(frozen=True)
class TerminalGraph:
    """Graph with two distinguished non-adjacent terminal vertices."""

    graph: Graph
    terminal_u: int
    terminal_v: int

    def __post_init__(self):
        u, v = self.terminal_u, self.terminal_v
        n = self.graph.vertex_count
        if not (0 <= u < n and 0 <= v < n):
            raise ValueError("terminal out of range")
        if u == v:
            raise ValueError("terminals must be distinct")
        if self.graph.has_edge(u, v):
            raise ValueError("terminals must be non-adjacent")


def triangle_count(g: Graph) -> int:
    """Exact number of 3-cliques, via common-neighbor intersection per edge.

    Each triangle is seen once per edge, so the intersection total is 3x.
    """
    adj_sets = [set(nbrs) for nbrs in g.adjacency]
    total = 0
    for a, b in g.edges:
        sa, sb = adj_sets[a], adj_sets[b]
        if len(sb) < len(sa):
            sa, sb = sb, sa
        total += len(sa & sb)
    assert total % 3 == 0
    return total // 3


def is_proper(g: Graph, coloring: Mapping[int, int]) -> bool:
    """True iff every edge has differently colored endpoints.

    Requires a total coloring; raises naming the first unassigned vertex.
    """
    for v in range(g.vertex_count):
        if v not in coloring:
            label = g.label_of(v)
            where = f"vertex {v}" if label is None else f"vertex {v} ({label!r})"
            raise ValueError(f"coloring is partial: {where} has no color")
    return all(coloring[a] != coloring[b] for a, b in g.edges)


def induced_subgraph(g: Graph, vertices: Iterable[int]) -> tuple[Graph, dict[int, int]]:
    """Subgraph induced by `vertices`, plus the old->new index mapping.

    New indices follow ascending old-index order.
    """
    kept = sorted(set(vertices))
    for v in kept:
        if not (0 <= v < g.vertex_count):
            raise ValueError(f"vertex {v} out of range")
    index_map = {old: new for new, old in enumerate(kept)}
    sub_edges = [
        (index_map[a], index_map[b])
        for a, b in g.edges
        if a in index_map and b in index_map
    ]
    labels = None
    if g.labels is not None:
        labels = [g.labels[old] for old in kept]
    return Graph(len(kept), sub_edges, labels), index_map
