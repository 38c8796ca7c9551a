"""Reference gadget builder: vertex-by-vertex recursion with fan splicing.

This is the construction the library used before it replicated whole
levels.  It allocates every vertex with its label while recursing, and
splices each child's terminal fans into the host rotations by a linear
search for the gap.  The tests compare the library's builder with it byte
for byte.  It records the frames depth-first and keeps the writer's order,
level by level, by a stable sort on depth; its own leaf pairs and inner
vertices, gathered by the recursion, must be the registry's derived views.
"""
from threecolor.embedding import RotationSystem, certify
from threecolor.gadgets import Gadget, LeafPairRegistry
from threecolor.graphs import Graph, TerminalGraph


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
    return [(u, v)], [u, v], [], u_fan, v_fan


def _build_gadget(builder: _Builder, leaf_b: int, ell: int, u: int, v: int, prefix: str):
    """(pairs, inner, frames, u_fan, v_fan); `frames` holds (ell, frame) in DFS order."""
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
    frames = [(ell, (u, v, f1, f2, f3, f4, f5))]
    for slot, (cu, cv, gap_u, gap_v) in enumerate(slots, start=1):
        c_pairs, c_inner, c_frames, c_ufan, c_vfan = _build_gadget(
            builder, leaf_b, ell - 1, cu, cv, f"{prefix}T{slot}."
        )
        _insert_between(rot[cu], gap_u[0], gap_u[1], c_ufan)
        _insert_between(rot[cv], gap_v[0], gap_v[1], c_vfan)
        pairs.extend(c_pairs)
        inner.extend(c_inner)
        frames.extend(c_frames)

    u_fan = [f1, f3, f5]
    v_fan = [f4, f2]
    return pairs, inner, frames, u_fan, v_fan


def build_reference(leaf_b: int, k, ell, *, check: bool = True) -> Gadget:
    """The gadget with leaf fans P(.,.,leaf_b) and `ell` levels, built by
    splicing; `k` and `ell` are stored as given (None for a bare fan)."""
    builder = _Builder()
    u = builder.alloc("u")
    v = builder.alloc("v")
    pairs, inner, frames, u_fan, v_fan = _build_gadget(builder, leaf_b, ell or 0, u, v, "")
    builder.rot[u] = u_fan
    builder.rot[v] = v_fan

    graph = Graph.from_rotation(builder.rot, lambda: builder.labels)
    tg = TerminalGraph(graph, u, v)
    # Top level first: sorted stably by depth, each level's frames stay in DFS order.
    frames.sort(key=lambda entry: -entry[0])
    registry = LeafPairRegistry(tuple(frame for _, frame in frames), leaf_b)
    assert registry.pairs == tuple(pairs)
    assert registry.inner_set == frozenset(inner)
    outer = None
    if check:
        report = certify(tg, RotationSystem(graph.adjacency))
        assert report["ok"], report
        outer = report["outer_face_id"]
    return Gadget(tg, k, ell, registry, RotationSystem(graph.adjacency, outer))
