"""Constructive planarity certification via rotation systems.

A rotation system stores, for every vertex, the cyclic (counterclockwise)
order of its neighbors.  Tracing the orbits of the next-dart permutation
yields the facial walks; together with Euler's formula V - E + F = 2 this
certifies that the map is a plane embedding, with no planarity *decision*
algorithm involved.
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Sequence

from .graphs import Graph, induced_subgraph, triangle_count

Face = list[int]


@dataclass(frozen=True)
class RotationSystem:
    """Per-vertex cyclic neighbor order, plus the designated outer face.

    `outer_face_id` indexes into the (deterministic) trace_faces output;
    None means not yet designated.
    """

    order: tuple[tuple[int, ...], ...]
    outer_face_id: Optional[int] = None


def _orders_of(rot: RotationSystem | Sequence[Sequence[int]]) -> Sequence[Sequence[int]]:
    return rot.order if isinstance(rot, RotationSystem) else rot


def trace_faces(g: Graph, rot: RotationSystem | Sequence[Sequence[int]]) -> list[Face]:
    """Facial walks of the combinatorial map (g, rot).

    Each directed edge side is used exactly once; a face is returned as the
    list of vertices along its closed walk (walk length = len(face)).
    Raises ValueError if the rotation is inconsistent with the graph.
    """
    order = _orders_of(rot)
    n = g.vertex_count
    if len(order) != n:
        raise ValueError("rotation must list every vertex")
    for a in range(n):
        if sorted(order[a]) != list(g.adjacency[a]):
            raise ValueError(f"rotation at vertex {a} does not match its edges")

    index_of = {}
    offset = [0] * (n + 1)
    for a in range(n):
        offset[a + 1] = offset[a] + len(order[a])
        for i, b in enumerate(order[a]):
            index_of[a * n + b] = i

    visited = bytearray(offset[n])
    faces: list[Face] = []
    for a0 in range(n):
        for i0, b0 in enumerate(order[a0]):
            if visited[offset[a0] + i0]:
                continue
            walk: Face = []
            a, b = a0, b0
            while True:
                walk.append(a)
                visited[offset[a] + index_of[a * n + b]] = 1
                j = index_of[b * n + a] - 1  # next dart: clockwise past a at b
                a, b = b, order[b][j]
                if (a, b) == (a0, b0):
                    break
            faces.append(walk)
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
                     g: Optional[Graph] = None) -> int:
    """Designate the outer face: the unique walk visiting both terminals.

    If the v terminal is edgeless (the degenerate fan P(u,v,1)) it appears in
    no walk and the face carrying u alone is taken instead.
    """
    hits = [i for i, f in enumerate(faces) if terminal_u in f and terminal_v in f]
    if not hits and g is not None and g.degree(terminal_v) == 0:
        hits = [i for i, f in enumerate(faces) if terminal_u in f]
    if len(hits) != 1:
        raise ValueError(
            f"expected a unique face with both terminals, found {len(hits)}"
        )
    return hits[0]


def min_bounded_face_length(faces: list[Face], outer_id: int) -> Optional[int]:
    """Minimum walk length over non-outer faces; None if there are none."""
    lengths = [len(f) for i, f in enumerate(faces) if i != outer_id]
    return min(lengths) if lengths else None


def face_length_histogram(faces: list[Face]) -> dict[int, int]:
    hist: dict[int, int] = {}
    for f in faces:
        hist[len(f)] = hist.get(len(f), 0) + 1
    return hist


def certify(tg, rot: RotationSystem) -> dict:
    """Full structural certificate for a terminal graph with an embedding.

    Checks: triangle-freeness, Euler consistency, terminals non-adjacent and
    on the outer face, and that no bounded face is shorter than a
    quadrilateral.  Returns a report dict; the `ok` key is the conjunction.
    An edgeless v terminal (the degenerate fan P(u,v,1)) lies on no facial
    walk, so Euler's formula is checked on the graph without it.
    """
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
    return report
