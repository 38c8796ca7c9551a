"""Construction of the fan gadget P(u,v,b) and the recursive gadget T(u,v,k,l).

P(u,v,b): vertices u, v and a path v1..vb, with u adjacent to the odd-indexed
path vertices and v to the even-indexed ones.  All bounded faces of the fan
are quadrilaterals; the outer face is a hexagon (b >= 2) carrying u and v.

T(u,v,k,0) = P(u,v,2^k).  For l > 0, T(u,v,k,l) is P(u,v,5) with copies of
T(.,.,k,l-1) added inside the three bounded quadrilaterals, the children's
terminals identified with (v1,v3), (v2,v4), (v3,v5).

Canonical numbering: u=0, v=1, then frame (or path) vertices in order, then
the children depth-first in slot order.  Labels encode the recursion path,
e.g. "T2.T1.v3", and are made on first use.  Every gadget carries its plane
embedding as a rotation system, written row by row in one pass: each
frame's rotations take its children's terminal fans on the side facing
their quadrilateral, and each leaf fan's path rows are written in bulk.
A frame is the seven vertices (u, v, v1, ..., v5) of one copy of P(u,v,5),
in P(u,v,5)'s own numbering; the writer records each frame as it writes the
frame's rows, the registry keeps them, and the inner set is read off them.
This module knows only that layout: a gadget checks once, on first use,
that the frames' P(u,v,5) edges are exactly the edges inside the inner set,
and `counting` owns the colorings of a frame.
"""
from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property, partial
from itertools import accumulate, chain, repeat
from typing import Optional

from .embedding import RotationSystem, certify
from .graphs import Graph, TerminalGraph, ascending_edges

# The child terminal pairs (v1,v3), (v2,v4), (v3,v5) as positions in a frame.
CHILD_PAIRS = ((2, 4), (3, 5), (4, 6))


@dataclass(frozen=True)
class LeafPairRegistry:
    """The leaf pairs (x_i, y_i), the inner vertex set and the frames of a gadget.

    A built T(u,v,k,l) contains 3^l innermost copies of P(x,y,2^k); `pairs`
    lists their terminal pairs in construction order.  `inner_set` holds the
    vertices outside all leaf-copy interiors (leaf terminals included).
    `frames` lists the (3^l - 1)/2 frames (u, v, v1, ..., v5) as the writer
    recorded them, top level first, so the last 3^(l-1) host the leaf pairs
    at positions CHILD_PAIRS; position i of a frame is vertex i of P(u,v,5).
    The inner set is {0, 1} and the frames' vertices.  `frames` is empty for
    a fan and for a registry made by hand, and takes no part in comparisons.
    """

    pairs: tuple[tuple[int, int], ...]
    inner_set: frozenset[int]
    leaf_b: int
    frames: tuple[tuple[int, ...], ...] = field(default=(), compare=False, repr=False)


@dataclass(frozen=True)
class Gadget:
    """A built gadget: terminal graph, parameters, registry and embedding.

    `k` and `ell` are those of T(u,v,k,ell); both are None for a bare fan
    P(u,v,b), whose b is `registry.leaf_b`.
    """

    tg: TerminalGraph
    k: Optional[int]
    ell: Optional[int]
    registry: LeafPairRegistry
    rotation: RotationSystem

    @property
    def graph(self) -> Graph:
        return self.tg.graph

    @cached_property
    def checked_frames(self) -> Optional[tuple[int, ...]]:
        """The registry's frames, flattened in the order the writer recorded
        them, so that an inner coloring is checked and counted seven
        vertices at a time against the colorings of P(u,v,5).

        Returns None unless the registry has frames, P(u,v,5)'s edges mapped
        through every frame are exactly the edges inside the inner set (so an
        edge among a frame's vertices is checked by some frame's table), and
        the bottom frames' child pairs are `registry.pairs`.
        """
        frames = self.registry.frames
        if not frames:
            return None
        adjacency, inner = self.graph.adjacency, self.registry.inner_set
        bottom = frames[len(frames) // 3:]  # 3^(ell-1) of (3^ell - 1)/2
        if ({(f[i], f[j]) for f in frames for i, j in FRAME_EDGES}
                != {(a, b) for a in inner for b in adjacency[a] if a < b and b in inner}
                or tuple((f[i], f[j]) for f in bottom for i, j in CHILD_PAIRS)
                != self.registry.pairs):
            return None
        return tuple(chain.from_iterable(frames))


# Largest gadget that build_T and build_P make; T(6,9) has 1,308,919 vertices.
MAX_VERTICES = 2 ** 21

def _write(b: int, ell: int):
    """The rotation rows, leaf pairs and frames of T(.,.,k,ell) with leaf
    fans P(.,.,b).  Each row is made once, of elements of `ids` only, so the
    rows share one int object per vertex.  Each level's frames are walked in
    order, each followed by its three children in slot order, and recorded
    as they are written, level by level from the top: the last 3^(ell-1)
    are the bottom frames, which host the leaf pairs.  The u-fan of a child
    at base c is ids[c:c+w:2], w being b for a leaf and 5 for a frame, and
    its v-fan runs back down the even path vertices."""
    sizes = list(accumulate(range(ell), lambda m, _: 5 + 3 * m, initial=b))
    ids, rows = list(range(sizes[-1] + 2)), [None] * (sizes[-1] + 2)
    w = b if ell == 0 else 5
    rows[:2] = tuple(ids[2:2 + w:2]), tuple(ids[2 * (w // 2) + 1:2:-2])
    level, frames = [(0, 1, 2)], []  # level holds (u, v, base)
    for depth in range(ell, 0, -1):
        m, w = sizes[depth - 1], b if depth == 1 else 5
        back, children = 2 * (w // 2) - 1, []
        for u, v, base in level:
            v1, v2, v3, v4, v5 = ids[base:base + 5]
            c1, c2, c3 = base + 5, base + 5 + m, base + 5 + 2 * m
            # u = (v1, v3, v5) and v = (v4, v2); each child's u- and v-fan
            # goes into its terminals' rotations in the gap facing its quad.
            rows[base:base + 5] = (
                (v2, *ids[c1:c1 + w:2], u), (v, *ids[c2:c2 + w:2], v3, v1),
                (v4, *ids[c3:c3 + w:2], u, *ids[c1 + back:c1:-2], v2),
                (v, v5, v3, *ids[c2 + back:c2:-2]), (u, *ids[c3 + back:c3:-2], v4))
            frames.append((u, v, v1, v2, v3, v4, v5))
            children += ((v1, v3, c1), (v2, v4, c2), (v3, v5, c3))
        level = children
    for u, v, base in level:  # path vertex vi is base + i - 1
        end = base + b
        rows[base + 2:end - 1:2] = zip(ids[base + 3:end:2], repeat(u), ids[base + 1:end - 2:2])
        rows[base + 1:end - 1:2] = zip(repeat(v), ids[base + 2:end:2], ids[base:end - 2:2])
        rows[end - 1] = (u if b % 2 else v, ids[end - 2])  # for b = 1, rewritten below
        rows[base] = (ids[base + 1], u) if b > 1 else (u,)
    return rows, tuple((u, v) for u, v, _ in level), tuple(frames)


# P(u,v,5)'s edges, ascending, as positions in a frame (u, v, v1, ..., v5).
FRAME_EDGES = tuple(ascending_edges(_write(5, 0)[0]))


def _labels(b: int, ell: int) -> list[str]:
    """Labels in canonical order, replicated level by level: "T2.T1.v3"."""
    labels = ["u", "v", *(f"v{i}" for i in range(1, b + 1))]
    for _ in range(ell):
        labels = ["u", "v", "v1", "v2", "v3", "v4", "v5",
                  *(f"T{s}.{x}" for s in (1, 2, 3) for x in labels[2:])]
    return labels


def _assemble(leaf_b: int, k: Optional[int], ell: Optional[int], check: bool) -> Gadget:
    order, pairs, frames = _write(leaf_b, ell or 0)
    g = Graph.from_rotation(order, partial(_labels, leaf_b, ell or 0))
    tg = TerminalGraph(g, 0, 1)
    rotation = RotationSystem(g.adjacency)  # checked and walked once, by from_rotation
    if check:
        report = certify(tg, rotation)
        if not report["ok"]:
            raise AssertionError(f"constructed gadget failed certification: {report}")
        rotation.outer_face_id = report["outer_face_id"]
    registry = LeafPairRegistry(pairs, frozenset(chain((0, 1), *frames)), leaf_b, frames)
    return Gadget(tg, k, ell, registry, rotation)


def build_P(b: int, *, check: bool = True) -> Gadget:
    """Build the fan gadget P(u,v,b); b+2 vertices, 2b-1 edges.

    `check` runs `embedding.certify` and raises AssertionError unless it
    passes.  The faces are walked either way, by `Graph.from_rotation`;
    `check` adds Euler's formula, the triangle count and the outer face.
    """
    if b < 1:
        raise ValueError("b must be >= 1")
    if b + 2 > MAX_VERTICES:
        raise ValueError(f"P(u,v,{b}) has {b + 2} vertices, over the limit of {MAX_VERTICES}")
    return _assemble(b, None, None, check)


def check_k_ell(k: int, ell: int) -> None:
    """Raise ValueError unless (k, ell) names a gadget T(u,v,k,ell)."""
    if k < 1:
        raise ValueError("k must be >= 1")
    if ell < 0:
        raise ValueError("ell must be >= 0")


def build_T(k: int, ell: int, *, check: bool = True) -> Gadget:
    """Build T(u,v,k,ell); for ell=0 this is P(u,v,2^k) with one leaf pair.

    `check` is as for `build_P`.  Raises ValueError, before allocating, if
    it has over MAX_VERTICES vertices.
    """
    checked_vertex_count(k, ell)
    return _assemble(2 ** k, k, ell, check)


def checked_vertex_count(k: int, ell: int) -> int:
    """`vertex_count_closed_form(k, ell)`, or ValueError if over MAX_VERTICES."""
    check_k_ell(k, ell)
    # n > 2^k 3^ell >= 2^(k+ell): a large k + ell is refused before any power is formed
    if k + ell >= MAX_VERTICES.bit_length():
        raise ValueError(f"T({k},{ell}) has more than 2^{k + ell} vertices,"
                         f" over the limit of {MAX_VERTICES}")
    n = vertex_count_closed_form(k, ell)
    if n > MAX_VERTICES:
        raise ValueError(f"T({k},{ell}) has {n} vertices, over the limit of {MAX_VERTICES}")
    return n


def vertex_count_closed_form(k: int, ell: int) -> int:
    """Exact vertex count of T(u,v,k,ell): solves t_l = 3 t_{l-1} + 1."""
    check_k_ell(k, ell)
    p3 = 3 ** ell
    return p3 * (2 ** k + 2) + (p3 - 1) // 2


def inner_set_size(ell: int) -> int:
    """|V_ell| = (5*3^ell - 1)/2: solves the recurrence a_0=2, a_l=3a_{l-1}+1."""
    if ell < 0:
        raise ValueError("ell must be >= 0")
    return (5 * 3 ** ell - 1) // 2


def choose_k(ell: int) -> int:
    """Smallest k >= 1 with 2^(k+ell) >= 3^ell, read off the bit length of 3^ell - 1.

    Equals ceil(ell*log2(3/2)) clamped to the k >= 1 domain; the result is
    checked to satisfy 3^ell <= 2^(k+ell) <= 2*3^ell.
    """
    if ell < 0:
        raise ValueError("ell must be >= 0")
    p3 = 3 ** ell
    k = max(1, (p3 - 1).bit_length() - ell)
    assert p3 <= 2 ** (k + ell) <= 2 * p3
    return k
