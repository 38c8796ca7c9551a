"""Construction of the fan gadget P(u,v,b) and the recursive gadget T(u,v,k,l).

P(u,v,b): vertices u, v and a path v1..vb, with u adjacent to the odd-indexed
path vertices and v to the even-indexed ones.  All bounded faces of the fan
are quadrilaterals; the outer face is a hexagon (b >= 2) carrying u and v.

T(u,v,k,0) = P(u,v,2^k).  For l > 0, T(u,v,k,l) is P(u,v,5) with copies of
T(.,.,k,l-1) added inside the three bounded quadrilaterals, the children's
terminals identified with (v1,v3), (v2,v4), (v3,v5).

Canonical numbering: u=0, v=1, then frame (or path) vertices in order, then
the children depth-first in slot order.  Labels encode the recursion path,
e.g. "T2.T1.v3".  Every gadget carries its plane embedding as a rotation
system, built by splicing each child's edge fans into the terminal rotations
inside the host quadrilateral.
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from .embedding import RotationSystem, certify
from .graphs import Graph, TerminalGraph


@dataclass(frozen=True)
class LeafPairRegistry:
    """The leaf pairs (x_i, y_i) and the inner vertex set of a gadget.

    A built T(u,v,k,l) contains 3^l innermost copies of P(x,y,2^k); `pairs`
    lists their terminal pairs in construction order.  `inner_set` holds the
    vertices outside all leaf-copy interiors (leaf terminals included).
    """

    pairs: tuple[tuple[int, int], ...]
    inner_set: frozenset[int]
    leaf_b: int

    def __post_init__(self):
        for x, y in self.pairs:
            if x not in self.inner_set or y not in self.inner_set:
                raise ValueError("leaf pair endpoints must lie in inner_set")


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


class _Builder:
    __slots__ = ("rot", "labels")

    def __init__(self):
        self.rot: list[list[int]] = []
        self.labels: list[str] = []

    def alloc(self, label: str) -> int:
        self.rot.append([])
        self.labels.append(label)
        return len(self.labels) - 1


def _insert_between(rot_list: list[int], first: int, second: int, fan: list[int]) -> None:
    """Splice `fan` into the cyclic order between neighbors first -> second."""
    m = len(rot_list)
    for i in range(m):
        if rot_list[i] == first and rot_list[(i + 1) % m] == second:
            rot_list[i + 1:i + 1] = fan
            return
    raise AssertionError(f"rotation gap ({first},{second}) not found")


def _build_path(builder: _Builder, b: int, u: int, v: int, prefix: str):
    """Fan P(u,v,b) interior; terminal rotations are left to the caller.

    Returns (u_fan, v_fan): u's neighbors in rotation order starting at the
    left outer edge, and v's starting at the right outer edge.
    """
    w = [builder.alloc(f"{prefix}v{i}") for i in range(1, b + 1)]
    rot = builder.rot
    for i in range(1, b + 1):
        anchor = u if i % 2 == 1 else v
        if b == 1:
            rot[w[0]] = [u]
        elif i == 1:
            rot[w[0]] = [w[1], u]
        elif i == b:
            rot[w[-1]] = [anchor, w[-2]]
        elif i % 2 == 1:
            rot[w[i - 1]] = [w[i], u, w[i - 2]]
        else:
            rot[w[i - 1]] = [v, w[i], w[i - 2]]
    u_fan = [w[i - 1] for i in range(1, b + 1) if i % 2 == 1]
    v_fan = [w[i - 1] for i in range(b, 0, -1) if i % 2 == 0]
    return [(u, v)], [u, v], u_fan, v_fan


def _build_gadget(builder: _Builder, leaf_b: int, ell: int, u: int, v: int, prefix: str):
    if ell == 0:
        return _build_path(builder, leaf_b, u, v, prefix)

    f = [builder.alloc(f"{prefix}v{i}") for i in range(1, 6)]
    f1, f2, f3, f4, f5 = f
    rot = builder.rot
    rot[f1] = [f2, u]
    rot[f2] = [v, f3, f1]
    rot[f3] = [f4, u, f2]
    rot[f4] = [v, f5, f3]
    rot[f5] = [u, f4]

    # Each child sits in one bounded quadrilateral of the frame; its edge
    # fans at the shared terminals go into the rotation gap facing that quad.
    slots = (
        (f1, f3, (f2, u), (u, f2)),
        (f2, f4, (v, f3), (f3, v)),
        (f3, f5, (f4, u), (u, f4)),
    )
    pairs: list[tuple[int, int]] = []
    inner = [u, v, f1, f2, f3, f4, f5]
    for slot, (cu, cv, gap_u, gap_v) in enumerate(slots, start=1):
        c_pairs, c_inner, c_ufan, c_vfan = _build_gadget(
            builder, leaf_b, ell - 1, cu, cv, f"{prefix}T{slot}."
        )
        _insert_between(rot[cu], gap_u[0], gap_u[1], c_ufan)
        _insert_between(rot[cv], gap_v[0], gap_v[1], c_vfan)
        pairs.extend(c_pairs)
        inner.extend(c_inner)

    u_fan = [f1, f3, f5]
    v_fan = [f4, f2]
    return pairs, inner, u_fan, v_fan


def _assemble(leaf_b: int, k: Optional[int], ell: Optional[int], check: bool) -> Gadget:
    builder = _Builder()
    u = builder.alloc("u")
    v = builder.alloc("v")
    pairs, inner, u_fan, v_fan = _build_gadget(builder, leaf_b, ell or 0, u, v, "")
    builder.rot[u] = u_fan
    builder.rot[v] = v_fan

    edges = [
        (a, b)
        for a, nbrs in enumerate(builder.rot)
        for b in nbrs
        if a < b
    ]
    graph = Graph(len(builder.rot), edges, builder.labels)
    tg = TerminalGraph(graph, u, v)
    registry = LeafPairRegistry(tuple(pairs), frozenset(inner), leaf_b)
    order = tuple(tuple(nbrs) for nbrs in builder.rot)

    outer_id = None
    if check:
        report = certify(tg, RotationSystem(order, None))
        if not report["ok"]:
            raise AssertionError(f"constructed gadget failed certification: {report}")
        outer_id = report["outer_face_id"]

    return Gadget(tg, k, ell, registry, RotationSystem(order, outer_id))


def build_P(b: int, *, check: bool = True) -> Gadget:
    """Build the fan gadget P(u,v,b); b+2 vertices, 2b-1 edges.

    `check` runs `embedding.certify` and raises AssertionError unless it
    passes (it traces all faces; disable for bulk sweeps).
    """
    if b < 1:
        raise ValueError("b must be >= 1")
    return _assemble(b, None, None, check)


def build_T(k: int, ell: int, *, check: bool = True) -> Gadget:
    """Build T(u,v,k,ell); for ell=0 this is P(u,v,2^k) with one leaf pair."""
    if k < 1:
        raise ValueError("k must be >= 1")
    if ell < 0:
        raise ValueError("ell must be >= 0")
    return _assemble(2 ** k, k, ell, check)


def vertex_count_closed_form(k: int, ell: int) -> int:
    """Exact vertex count of T(u,v,k,ell): solves t_l = 3 t_{l-1} + 1."""
    if k < 1 or ell < 0:
        raise ValueError("need k >= 1 and ell >= 0")
    p3 = 3 ** ell
    return p3 * (2 ** k + 2) + (p3 - 1) // 2


def inner_set_size(ell: int) -> int:
    """|V_ell| = (5*3^ell - 1)/2: solves the recurrence a_0=2, a_l=3a_{l-1}+1."""
    if ell < 0:
        raise ValueError("ell must be >= 0")
    return (5 * 3 ** ell - 1) // 2


def choose_k(ell: int) -> int:
    """Smallest k >= 1 with 2^(k+ell) >= 3^ell, by exact integer comparison.

    Equals ceil(ell*log2(3/2)) clamped to the k >= 1 domain; the result is
    checked to satisfy 3^ell <= 2^(k+ell) <= 2*3^ell.
    """
    if ell < 0:
        raise ValueError("ell must be >= 0")
    p3 = 3 ** ell
    k = 1
    while 2 ** (k + ell) < p3:
        k += 1
    assert p3 <= 2 ** (k + ell) <= 2 * p3
    return k
