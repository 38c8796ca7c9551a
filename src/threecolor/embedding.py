"""Constructive planarity certification via rotation systems.

A rotation system stores, for every vertex, the cyclic (counterclockwise)
order of its neighbors.  Tracing the orbits of the next-dart permutation
yields the facial walks; together with Euler's formula V - E + F = 2 this
certifies that the map is a plane embedding, with no planarity *decision*
algorithm involved.
"""
from __future__ import annotations

from collections import Counter
from dataclasses import dataclass, field
from itertools import accumulate
from typing import Optional

from .graphs import Graph, hashed_rows, triangle_count

Face = tuple[int, ...]


@dataclass
class RotationSystem:
    """Per-vertex cyclic neighbor order, plus the designated outer face.

    `outer_face_id` indexes into the (deterministic) trace_faces output;
    None means not yet designated.  It and `faces`, the walks traced when
    a gadget was built with its check, are the fields set after construction.
    """

    order: tuple[tuple[int, ...], ...]
    outer_face_id: Optional[int] = None
    faces: Optional[list[Face]] = field(default=None, repr=False, compare=False)


def trace_faces(g: Graph, rot: RotationSystem) -> list[Face]:
    """Facial walks of the combinatorial map (g, rot).

    Each directed edge side is used exactly once; a face is returned as the
    tuple of vertices along its closed walk (walk length = len(face)).  A
    walk that enters b from a finds j = order[b].index(a) and leaves b for
    order[b][j - 1], the neighbor clockwise past a; that dart is keyed by
    offset[b] + j, so no per-dart index and no modulo is needed.  Walks
    start from the darts a -> order[a][i] in (a, i) order.
    Raises ValueError if the rotation is inconsistent with the graph.  Rows
    that are `g.adjacency` itself, as `Graph.from_rotation` keeps the rotation
    it checked, match the graph trivially and are not compared; a long row is
    searched by hash (`hashed_rows`).
    """
    order = rot.order
    n = g.vertex_count
    if len(order) != n:
        raise ValueError("rotation must list every vertex")
    if order is not g.adjacency:
        for a, (row, nbrs) in enumerate(zip(order, g.adjacency)):
            if sorted(row) != sorted(nbrs):
                raise ValueError(f"rotation at vertex {a} does not match its edges")
    lengths = list(map(len, order))
    order = hashed_rows(order, lengths)
    offset = list(accumulate(lengths, initial=0))

    visited = bytearray(offset[n])
    faces: list[Face] = []
    for a0 in range(n):
        row0 = order[a0]
        base = offset[a0]
        last = len(row0) - 1
        for i0 in range(last + 1):
            # dart a0 -> row0[i0] leaves a0 past row0[i0 + 1], cyclically
            key = base + i0 + 1 if i0 < last else base
            if visited[key]:
                continue
            visited[key] = 1
            a, b = a0, row0[i0]
            walk = [a0]
            while True:
                row = order[b]
                j = row.index(a)
                key = offset[b] + j
                if visited[key]:  # only the first dart of this walk
                    break
                visited[key] = 1
                walk.append(b)
                a, b = b, row[j - 1]
            faces.append(tuple(walk))
    return faces


def euler_check(g: Graph, faces: list[Face]) -> bool:
    """True iff V - E + F = 2, where V counts only the vertices with an edge.

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
    through u, and Euler's formula leaves v out.
    """
    return certify_with_faces(tg, rot)[0]


def certify_with_faces(tg, rot: RotationSystem) -> tuple[dict, list[Face]]:
    """`certify`'s report together with the faces it traced."""
    g = tg.graph
    u, v = tg.terminal_u, tg.terminal_v
    faces = trace_faces(g, rot)
    euler = euler_check(g, faces)
    v_edgeless = not g.adjacency[v]
    hits = [i for i, f in enumerate(faces) if u in f and (v_edgeless or v in f)]
    if len(hits) != 1:
        raise ValueError(f"expected a unique face with both terminals, found {len(hits)}")
    outer = hits[0]
    lengths = list(map(len, faces))
    min_bounded = min(lengths[:outer] + lengths[outer + 1:], default=None)
    triangles = triangle_count(g)
    report = {
        "vertices": g.vertex_count,
        "edges": g.edge_count,
        "faces": len(faces),
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
    return report, faces
