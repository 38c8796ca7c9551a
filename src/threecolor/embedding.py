"""Constructive planarity certification via rotation systems.

A rotation system stores, for every vertex, the cyclic (counterclockwise)
order of its neighbors.  The orbits of the next-dart permutation are the
facial walks, which `Graph.from_rotation` traces as its check and keeps;
with Euler's formula V - E + F = 2 they certify that the map is a plane
embedding, with no planarity *decision* algorithm involved.
"""
from __future__ import annotations

from bisect import bisect_right
from collections import Counter
from dataclasses import dataclass
from itertools import chain
from operator import sub
from typing import Optional

from .graphs import Graph, facial_walks, triangle_count


@dataclass
class RotationSystem:
    """Per-vertex cyclic neighbor order, plus the designated outer face.

    `outer_face_id` indexes into the (deterministic) trace_faces output;
    None means not yet designated.  It is set after construction."""

    order: tuple[tuple[int, ...], ...]
    outer_face_id: Optional[int] = None


def walks_of(g: Graph, rot: RotationSystem):
    """The facial walks of (g, rot) as the pair (walks, ends) of `Graph.faces`:
    the graph's own if the rows are `g.adjacency` itself, as `from_rotation`
    keeps them; any other rows are compared with the edges, then walked."""
    order = rot.order
    if len(order) != g.vertex_count:
        raise ValueError("rotation must list every vertex")
    if order is g.adjacency and g.faces is not None:
        return g.faces
    for a, (row, nbrs) in enumerate(zip(order, g.adjacency)):
        if sorted(row) != sorted(nbrs):
            raise ValueError(f"rotation at vertex {a} does not match its edges")
    return Graph.from_rotation(order).faces


def trace_faces(g: Graph, rot: RotationSystem) -> list[tuple[int, ...]]:
    """Facial walks of the combinatorial map (g, rot).

    Each directed edge side is used exactly once; a face is returned as the
    tuple of vertices along its closed walk (walk length = len(face)).
    Raises ValueError if the rotation is inconsistent with the graph.
    """
    return list(facial_walks(walks_of(g, rot)))


def euler_check(g: Graph, faces) -> bool:
    """True iff V - E + F = 2, where V counts only the vertices with an edge
    and F = len(faces): the facial walks, or the ends of `Graph.faces`.

    A vertex with no edge lies on no facial walk and cannot affect
    planarity, so it is left out.  Raises ValueError unless the vertices
    with an edge exist and are connected.
    """
    adjacency = g.adjacency
    n = g.vertex_count - adjacency.count(())
    if n == 0:
        raise ValueError("a graph with no edge has no embedding to check")
    start = next(v for v, nbrs in enumerate(adjacency) if nbrs)
    seen = bytearray(g.vertex_count)
    stack = [start]
    seen[start] = 1
    while stack:
        x = stack.pop()
        for y in adjacency[x]:
            if not seen[y]:
                seen[y] = 1
                stack.append(y)
    if seen.count(1) != n:
        raise ValueError("graph is disconnected")
    return n - g.edge_count + len(faces) == 2


def certify(tg, rot: RotationSystem) -> dict:
    """Full structural certificate for a terminal graph with an embedding.

    Checks: triangle-freeness, Euler consistency, terminals non-adjacent and
    on the outer face, and that no bounded face is shorter than a
    quadrilateral.  Returns a report dict; the `ok` key is the conjunction.
    The outer face is the one walk that holds both terminals; an edgeless v
    terminal (the fan P(u,v,1)) lies on no walk, so then it is the one walk
    through u, and Euler's formula leaves v out.  No tuple is made per face.
    """
    g = tg.graph
    u, v = tg.terminal_u, tg.terminal_v
    walks, ends = walks_of(g, rot)
    euler = euler_check(g, ends)
    # u lies once on the walks per neighbor; face i ends before ends[i].
    through_u, place = set(), -1
    for _ in g.adjacency[u]:
        place = walks.index(u, place + 1)
        through_u.add(bisect_right(ends, place))
    hits = [i for i in through_u
            if not g.adjacency[v] or v in walks[ends[i - 1] if i else 0:ends[i]]]
    if len(hits) != 1:
        raise ValueError(f"expected a unique face with both terminals, found {len(hits)}")
    outer = hits[0]
    lengths = list(map(sub, ends, chain((0,), ends)))
    min_bounded = min(lengths[:outer] + lengths[outer + 1:], default=None)
    triangles = triangle_count(g)
    report = {
        "vertices": g.vertex_count,
        "edges": g.edge_count,
        "faces": len(ends),
        "outer_face_id": outer,
        "triangle_count": triangles,
        "euler": euler,
        "terminals_nonadjacent": not g.has_edge(u, v),
        "terminals_on_outer_face": True,  # the outer face is the walk that holds them
        "outer_face_length": lengths[outer],
        "min_bounded_face_length": min_bounded,
        "bounded_faces_ge_4": min_bounded is None or min_bounded >= 4,
        "face_length_histogram": dict(Counter(lengths)),
    }
    report["ok"] = (triangles == 0 and euler and report["terminals_nonadjacent"]
                    and report["bounded_faces_ge_4"])
    return report
