"""Export formats: graph6, DOT, and the JSON gadget descriptor.

graph6 follows the standard bit packing: N(n) header, then the upper
triangle of the adjacency matrix column by column, six bits per printable
character (offset 63).  Beware that graph6 is quadratic in the vertex count;
it is meant for small gadgets.
"""
from __future__ import annotations

import json

from .embedding import trace_faces
from .gadgets import Gadget
from .graphs import Graph


def _graph6_size_bytes(n: int) -> bytes:
    if n < 0:
        raise ValueError("n must be nonnegative")
    if n <= 62:
        return bytes([n + 63])
    if n <= 258047:
        return bytes([126]) + bytes(
            ((n >> shift) & 63) + 63 for shift in (12, 6, 0)
        )
    if n <= 68719476735:
        return bytes([126, 126]) + bytes(
            ((n >> shift) & 63) + 63 for shift in (30, 24, 18, 12, 6, 0)
        )
    raise ValueError("n too large for graph6")


def to_graph6(g: Graph) -> str:
    """Canonical graph6 line (no trailing newline, no >>graph6<< header)."""
    n = g.vertex_count
    out = bytearray(_graph6_size_bytes(n))
    group = 0
    nbits = 0
    for j in range(1, n):
        nbrs = g.adjacency[j]
        for i in range(j):
            group = (group << 1) | (i in nbrs)
            nbits += 1
            if nbits == 6:
                out.append(group + 63)
                group = 0
                nbits = 0
    if nbits:
        out.append((group << (6 - nbits)) + 63)
    return out.decode("ascii")


def to_dot(g: Graph, name: str = "G") -> str:
    """Undirected DOT document; vertex labels preserved when present."""
    lines = [f"graph {name} {{"]
    for v in range(g.vertex_count):
        label = g.label_of(v)
        if label is None:
            lines.append(f"  {v};")
        else:
            escaped = label.replace('"', '\\"')
            lines.append(f'  {v} [label="{escaped}"];')
    for a, b in g.edges:
        lines.append(f"  {a} -- {b};")
    lines.append("}")
    return "\n".join(lines) + "\n"


def gadget_descriptor(gadget: Gadget, *, include_faces: bool = False) -> dict:
    """JSON-ready descriptor of a built gadget; edges, labels and the rotation
    are the gadget's own tuples, which `json` writes as lists."""
    g = gadget.graph
    doc = {
        "format_version": 1,
        "k": gadget.k,
        "ell": gadget.ell,
        "b": gadget.registry.leaf_b,
        "vertex_count": g.vertex_count,
        "terminals": [gadget.tg.terminal_u, gadget.tg.terminal_v],
        "edges": g.edges,
        "labels": g.labels,
        "leaf_pairs": [list(p) for p in gadget.registry.pairs],
        "inner_set": sorted(gadget.registry.inner_set),
        "rotation": {
            "order": gadget.rotation.order,
            "outer_face_id": gadget.rotation.outer_face_id,
        },
    }
    if include_faces:
        faces = gadget.rotation.faces
        doc["faces"] = trace_faces(g, gadget.rotation) if faces is None else faces
    return doc


def gadget_to_json(gadget: Gadget, *, include_faces: bool = False) -> str:
    """The descriptor as `generate --format json` writes it, indented by 2."""
    return json.dumps(gadget_descriptor(gadget, include_faces=include_faces),
                      indent=2)
