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

from .graphs import Graph, hashed_rows, induced_subgraph, triangle_count

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
    """True iff V - E + F = 2; requires a connected graph."""
    n = g.vertex_count
    if n == 0:
        raise ValueError("empty graph has no embedding to check")
    seen = bytearray(n)
    stack = [0]
    seen[0] = 1
    count = 1
    while stack:
        x = stack.pop()
        for y in g.adjacency[x]:
            if not seen[y]:
                seen[y] = 1
                count += 1
                stack.append(y)
    if count != n:
        raise ValueError("graph is disconnected")
    return n - g.edge_count + len(faces) == 2


def outer_face_index(faces: list[Face], terminal_u: int, terminal_v: int,
                     g: Graph) -> int:
    """Designate the outer face: the unique walk visiting both terminals.

    If the v terminal is edgeless (the degenerate fan P(u,v,1)) it appears in
    no walk and the face carrying u alone is taken instead.
    """
    hits = [i for i, f in enumerate(faces) if terminal_u in f and terminal_v in f]
    if not hits and g.degree(terminal_v) == 0:
        hits = [i for i, f in enumerate(faces) if terminal_u in f]
    if len(hits) != 1:
        raise ValueError(
            f"expected a unique face with both terminals, found {len(hits)}"
        )
    return hits[0]


def min_bounded_face_length(faces: list[Face], outer_id: int) -> Optional[int]:
    """Minimum walk length over non-outer faces; None if there are none."""
    lengths = list(map(len, faces))
    del lengths[outer_id]
    return min(lengths, default=None)


def face_length_histogram(faces: list[Face]) -> dict[int, int]:
    """Number of faces of each walk length, lengths in order of first walk."""
    return dict(Counter(map(len, faces)))


def certify(tg, rot: RotationSystem) -> dict:
    """Full structural certificate for a terminal graph with an embedding.

    Checks: triangle-freeness, Euler consistency, terminals non-adjacent and
    on the outer face, and that no bounded face is shorter than a
    quadrilateral.  Returns a report dict; the `ok` key is the conjunction.
    An edgeless v terminal (the degenerate fan P(u,v,1)) lies on no facial
    walk, so Euler's formula is checked on the graph without it.
    """
    return certify_with_faces(tg, rot)[0]


def certify_with_faces(tg, rot: RotationSystem) -> tuple[dict, list[Face]]:
    """`certify`'s report together with the faces it traced."""
    g = tg.graph
    faces = trace_faces(g, rot)
    if g.degree(tg.terminal_v) == 0:
        rest, _ = induced_subgraph(g, set(range(g.vertex_count)) - {tg.terminal_v})
        euler = euler_check(rest, faces)
    else:
        euler = euler_check(g, faces)
    outer = outer_face_index(faces, tg.terminal_u, tg.terminal_v, g)
    min_bounded = min_bounded_face_length(faces, outer)
    triangles = triangle_count(g)
    report = {
        "vertices": g.vertex_count,
        "edges": g.edge_count,
        "faces": len(faces),
        "outer_face_id": outer,
        "triangle_count": triangles,
        "euler": euler,
        "terminals_nonadjacent": not g.has_edge(tg.terminal_u, tg.terminal_v),
        "terminals_on_outer_face": (
            tg.terminal_u in faces[outer]
            and (tg.terminal_v in faces[outer] or g.degree(tg.terminal_v) == 0)
        ),
        "outer_face_length": len(faces[outer]),
        "min_bounded_face_length": min_bounded,
        "bounded_faces_ge_4": min_bounded is None or min_bounded >= 4,
        "face_length_histogram": face_length_histogram(faces),
    }
    report["ok"] = (
        triangles == 0
        and euler
        and report["terminals_nonadjacent"]
        and report["terminals_on_outer_face"]
        and report["bounded_faces_ge_4"]
    )
    return report, faces
