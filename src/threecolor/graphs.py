"""Minimal immutable undirected simple graphs.

Vertices are dense 0-based indices, and a neighbor tuple per vertex is the
only edge store.  A graph made from a rotation keeps the rows it checked as
that store, in rotation order, and the facial walks its check traced, the
only walks a rotation is certified by; any other graph's rows are ascending.
`ascending_edges` reads the edges of either in one order.  Labels are an
optional parallel decoration (never used for adjacency), possibly made on
first use.  Colors are 1, 2, 3.
"""
from __future__ import annotations

from array import array
from dataclasses import dataclass
from itertools import accumulate, chain
from operator import contains, ne
from typing import Callable, Iterable, Iterator, Optional, Sequence

COLORS = (1, 2, 3)

Edge = tuple[int, int]

# Rows longer than this are searched by hash, so degree d costs O(d), not O(d^2).
LONG_ROW = 256


class _IndexedRow(tuple):
    """A row longer than LONG_ROW whose `index` is a dict lookup."""

    def __init__(self, row):
        self.at = dict(zip(row, range(len(row))))

    def index(self, x):
        if x not in self.at:
            raise ValueError("tuple.index(x): x not in tuple")
        return self.at[x]


def _walk_faces(rows: Sequence[Sequence[int]], lengths: Sequence[int]) -> tuple[array, array]:
    """The facial walks of the rotation `rows` (row lengths `lengths`) end to
    end in one array, and each walk's end in another.  A walk entering b from
    a finds j = rows[b].index(a), the key offset[b] + j of that dart, and
    leaves b for rows[b][j - 1], clockwise past a; walks start from the darts
    a -> rows[a][i] in (a, i) order.  ValueError means a dart has no reverse,
    IndexError a target past the last row or below 0 (offset is padded past the
    last key), KeyError a walk not closed at its first dart (a repeated neighbor)."""
    if max(lengths, default=0) > LONG_ROW:
        rows = [_IndexedRow(row) if len(row) > LONG_ROW else row for row in rows]
    offset = list(accumulate(lengths, initial=0))
    offset += [offset[-1]] * len(lengths)  # offset[b] of a b < 0 is past the last key
    visited = bytearray(offset[-1])
    walks, ends = array("i"), array("i")
    append = walks.append
    for a0, row0 in enumerate(rows):
        base = offset[a0]
        last = len(row0) - 1
        for i0 in range(last + 1):
            # dart a0 -> row0[i0] leaves a0 past row0[i0 + 1], cyclically
            key = base + i0 + 1 if i0 < last else base
            if visited[key]:
                continue
            visited[key] = 1
            first, a, b = key, a0, row0[i0]
            append(a0)
            while True:
                row = rows[b]
                j = row.index(a)
                key = offset[b] + j
                if visited[key]:
                    if key != first:
                        raise KeyError(key)
                    break
                visited[key] = 1
                append(b)
                a, b = b, row[j - 1]
            ends.append(len(walks))
    return walks, ends


def facial_walks(faces: tuple[array, array]) -> Iterator[tuple[int, ...]]:
    """Each walk of `faces`, the pair (walks, ends), as a tuple, lazily."""
    walks, ends = faces
    return map(tuple, map(walks.__getitem__, map(slice, chain((0,), ends), ends)))


def ascending_edges(adjacency: Sequence[Sequence[int]]) -> Iterator[Edge]:
    """Every edge of the rows once as (a, b) with a < b, in ascending order, lazily."""
    return ((a, b) for a, nbrs in enumerate(adjacency) for b in sorted(nbrs) if a < b)


def _checked_labels(labels: Iterable[str], vertex_count: int) -> tuple[str, ...]:
    labels = tuple(labels)
    if len(labels) != vertex_count:
        raise ValueError("labels length must equal vertex_count")
    if len(set(labels)) != len(labels):
        raise ValueError("labels must be unique")
    return labels


class Graph:
    """Undirected simple graph: no self-loops, no parallel edges.

    The adjacency tuples are the only edge store; `edges` and `has_edge`
    read them.  For a graph made by `from_rotation` they are the rotation
    it checked, in rotation order, and `faces` is its walks (`_walk_faces`);
    for any other graph each row is ascending and `faces` is None.
    """

    __slots__ = ("vertex_count", "edge_count", "adjacency", "faces", "_labels")

    def __init__(self, vertex_count: int, edges: Iterable[Edge],
                 labels: Optional[Iterable[str]] = None):
        if vertex_count < 0:
            raise ValueError("vertex_count must be nonnegative")
        adj: list[list[int]] = [[] for _ in range(vertex_count)]
        for a, b in edges:
            if a == b:
                raise ValueError(f"self-loop at vertex {a}")
            if not (0 <= a < vertex_count and 0 <= b < vertex_count):
                raise ValueError(f"edge ({a},{b}) out of range for n={vertex_count}")
            adj[a].append(b)
            adj[b].append(a)
        if labels is not None:
            labels = _checked_labels(labels, vertex_count)
        self._store(tuple(tuple(sorted(set(nbrs))) for nbrs in adj), labels)

    @classmethod
    def from_rotation(cls, order: Sequence[Sequence[int]],
                      labels: Optional[Callable[[], Iterable[str]]] = None) -> Graph:
        """The graph whose neighbors of vertex a are `order[a]`, in that order.

        Raises ValueError for a neighbor out of range, a self-loop, a repeated
        neighbor or a dart a -> b without b -> a.  The walk of the faces is the
        check, after one pass for self-loops (a lone one is its own reverse);
        a refused rotation is scanned again only to name its fault.  The rows
        are kept as `adjacency`, tuple rows as they are, and the walks as
        `faces`.  `labels` runs on first read.
        """
        rotation = tuple(map(tuple, order))
        degrees = list(map(len, rotation))
        loop = any(map(contains, rotation, range(len(rotation))))
        try:
            if not loop:
                return cls.__new__(cls)._store(rotation, labels, _walk_faces(rotation, degrees))
        except (ValueError, LookupError) as exc:
            fault = exc
        out_of_range = f"a neighbor is out of range for n={len(rotation)}"
        if min(chain.from_iterable(rotation), default=0) < 0:
            raise ValueError(out_of_range)
        if loop:
            raise ValueError("the rotation has a self-loop")
        if any(map(ne, map(len, map(set, rotation)), degrees)):
            raise ValueError("the rotation has a repeated neighbor")
        raise ValueError(out_of_range if isinstance(fault, IndexError)
                         else "a dart of the rotation has no reverse")

    def _store(self, adjacency: tuple[tuple[int, ...], ...], labels, faces=None) -> Graph:
        object.__setattr__(self, "vertex_count", len(adjacency))
        object.__setattr__(self, "edge_count", sum(map(len, adjacency)) // 2)
        object.__setattr__(self, "adjacency", adjacency)
        object.__setattr__(self, "faces", faces)
        object.__setattr__(self, "_labels", labels)
        return self

    def __setattr__(self, name, value):
        raise AttributeError("Graph is immutable")

    @property
    def labels(self) -> Optional[tuple[str, ...]]:
        """One label per vertex, or None; a deferred maker runs on first read."""
        labels = self._labels
        if callable(labels):
            labels = _checked_labels(labels(), self.vertex_count)
            object.__setattr__(self, "_labels", labels)
        return labels

    @property
    def edges(self) -> tuple[Edge, ...]:
        """Every edge once as (a, b) with a < b, in ascending order."""
        return tuple(ascending_edges(self.adjacency))

    def has_edge(self, a: int, b: int) -> bool:
        return 0 <= a < self.vertex_count and b in self.adjacency[a]

    def label_of(self, v: int) -> Optional[str]:
        return None if self.labels is None else self.labels[v]

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
    Only the neighbor set of the current lower endpoint is held, and an edge
    is intersected only if its ends share a neighbor at all.
    """
    adjacency = g.adjacency
    total = 0
    for a, nbrs in enumerate(adjacency):
        sa = set(nbrs)
        for b in nbrs:
            if a < b and not sa.isdisjoint(adjacency[b]):
                total += len(sa.intersection(adjacency[b]))
    assert total % 3 == 0
    return total // 3


def induced_subgraph(g: Graph, vertices: Iterable[int]) -> tuple[Graph, dict[int, int]]:
    """Subgraph induced by `vertices`, plus the old->new index mapping.

    New indices follow ascending old-index order, and each row is ascending.
    If `g` has labels, the subgraph keeps `g` and copies its labels on the
    first read of `labels`.
    """
    kept = sorted(set(vertices))
    for v in kept:
        if not (0 <= v < g.vertex_count):
            raise ValueError(f"vertex {v} out of range")
    index_map = {old: new for new, old in enumerate(kept)}
    adjacency = tuple(tuple(sorted(index_map[b] for b in g.adjacency[a] if b in index_map))
                      for a in kept)
    labels = None if g._labels is None else lambda: map(g.labels.__getitem__, kept)
    return Graph.__new__(Graph)._store(adjacency, labels), index_map
