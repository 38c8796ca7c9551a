import pytest
from hypothesis import given

from threecolor import build_P, build_T, certify, graphs
from threecolor.embedding import (
    RotationSystem,
    euler_check,
    face_length_histogram,
    min_bounded_face_length,
    outer_face_index,
    trace_faces,
)
from threecolor.gadgets import vertex_count_closed_form
from threecolor.graphs import LONG_ROW, Graph, _IndexedRow

from graph_strategies import graphs_with_rotations
from modulo_tracer import trace_faces_modulo


def face_key(walk):
    """Canonical form of a facial walk up to rotation and direction."""
    best = None
    m = len(walk)
    for seq in (walk, walk[::-1]):
        for s in range(m):
            cand = tuple(seq[s:] + seq[:s])
            if best is None or cand < best:
                best = cand
    return best


class TestTraceFaces:
    def test_four_cycle_two_quad_faces(self):
        g = Graph(4, [(0, 1), (1, 2), (2, 3), (0, 3)])
        rot = RotationSystem(((1, 3), (2, 0), (3, 1), (0, 2)))
        faces = trace_faces(g, rot)
        assert sorted(len(f) for f in faces) == [4, 4]

    def test_fan_b5_faces(self):
        g = build_P(5)
        faces = trace_faces(g.graph, g.rotation)
        assert sorted(len(f) for f in faces) == [4, 4, 4, 6]
        keys = {face_key(f) for f in faces}
        # the three definitional quads and the hexagonal outer walk
        assert face_key([0, 2, 3, 4]) in keys
        assert face_key([3, 1, 5, 4]) in keys
        assert face_key([0, 4, 5, 6]) in keys
        assert face_key([0, 2, 3, 1, 5, 6]) in keys

    def test_every_dart_used_once(self):
        g = build_T(2, 1, check=False)
        faces = trace_faces(g.graph, g.rotation)
        assert sum(len(f) for f in faces) == 2 * g.graph.edge_count

    def test_inconsistent_rotation_rejected(self):
        g = Graph(3, [(0, 1), (1, 2)])
        with pytest.raises(ValueError, match="rotation at vertex 1"):
            trace_faces(g, RotationSystem(((1,), (0,), (1,))))

    def test_rotation_missing_vertex_rejected(self):
        g = Graph(3, [(0, 1), (1, 2)])
        with pytest.raises(ValueError, match="every vertex"):
            trace_faces(g, RotationSystem(((1,), (0, 2))))


# Every T(k,l) with at most 50,000 vertices and k <= 10, and three with
# k > 10.  The modulo tracer scans a row for each dart into it, so the fans'
# 2^(k-1)-neighbor terminals cost it time quadratic in 2^k: T(12,2) takes it
# about 1 s.  `trace_faces` looks rows longer than LONG_ROW up in a dict;
# from k = 10 on, the terminals' rows are that long.
SMALL_GADGETS = [(k, ell) for ell in range(9) for k in range(1, 11)
                 if vertex_count_closed_form(k, ell) <= 50_000] + [(11, 0), (12, 0), (11, 1)]


class TestTracerOracle:
    """`trace_faces` against the modulo tracer it replaced: the same walks
    in the same order, so `outer_face_id` and the JSON faces keep."""

    @pytest.mark.parametrize("k,ell", SMALL_GADGETS)
    def test_gadget_walks_match(self, k, ell):
        gadget = build_T(k, ell, check=False)
        faces = trace_faces(gadget.graph, gadget.rotation)
        assert all(type(face) is tuple for face in faces)
        assert faces == list(map(tuple, trace_faces_modulo(gadget.rotation.order)))

    @given(graphs_with_rotations())
    def test_drawn_rotations_match(self, case):
        g, order = case
        expected = list(map(tuple, trace_faces_modulo(order)))
        # compared with the edge-list graph's rows, and as the checked rotation
        assert trace_faces(g, RotationSystem(order)) == expected
        checked = Graph.from_rotation(order)
        assert trace_faces(checked, RotationSystem(checked.adjacency)) == expected


class TestRotationCompare:
    """The rows are compared with the graph's edges unless the rotation is
    the graph's own adjacency, the very object that `Graph.from_rotation`
    checked."""

    def test_a_different_object_is_compared(self):
        g = build_T(2, 1, check=False).graph

        class Agreeing(tuple):
            """A row that claims to equal any other row."""

            def __eq__(self, other):
                return True

            __hash__ = tuple.__hash__

        wrong = list(g.adjacency)
        wrong[4] = Agreeing(wrong[4][1:] + (0,))
        forged = tuple(wrong)
        assert forged == g.adjacency and forged is not g.adjacency
        with pytest.raises(ValueError, match="rotation at vertex 4 does not match its edges"):
            trace_faces(g, RotationSystem(forged))
        copy = tuple(map(tuple, map(list, g.adjacency)))
        assert copy is not g.adjacency
        assert trace_faces(g, RotationSystem(copy)) == trace_faces(g, RotationSystem(g.adjacency))

    def test_edge_list_graph_with_a_wrong_rotation(self):
        gadget = build_T(2, 1, check=False)
        g = Graph(gadget.graph.vertex_count, gadget.graph.edges)
        assert trace_faces(g, gadget.rotation) == trace_faces(gadget.graph, gadget.rotation)
        order = list(gadget.rotation.order)
        order[0], order[1] = order[1], order[0]
        with pytest.raises(ValueError, match="rotation at vertex 0 does not match its edges"):
            trace_faces(g, RotationSystem(tuple(order)))


class TestLongRows:
    def test_indexed_row_is_the_row_with_a_dict_index(self):
        row = _IndexedRow(range(1000, 0, -3))
        assert row == tuple(range(1000, 0, -3)) and row[-1] == 1 and row[0] == 1000
        assert all(row.index(x) == i for i, x in enumerate(row))
        assert all(x in row for x in row)
        for missing in (2, 1001, -1, "a"):
            assert missing not in row
            with pytest.raises(ValueError, match="not in tuple"):
                row.index(missing)

    def test_only_rows_over_the_limit_are_indexed(self, monkeypatch):
        # Both the rotation check and the tracer search rows through the
        # one helper in `graphs`.
        made = []
        monkeypatch.setattr(graphs, "_IndexedRow",
                            lambda row: made.append(len(row)) or _IndexedRow(row))
        gadget = build_P(2 * LONG_ROW + 1, check=False)  # u's row is 257 long, v's 256
        assert sorted(map(len, gadget.rotation.order))[-2:] == [LONG_ROW, LONG_ROW + 1]
        assert made == [LONG_ROW + 1]
        made.clear()
        faces = trace_faces(gadget.graph, gadget.rotation)
        assert made == [LONG_ROW + 1]
        assert faces == list(map(tuple, trace_faces_modulo(gadget.rotation.order)))


class TestEulerCheck:
    def test_single_edge(self):
        g = Graph(2, [(0, 1)])
        faces = trace_faces(g, RotationSystem(((1,), (0,))))
        assert len(faces) == 1 and len(faces[0]) == 2
        assert euler_check(g, faces)

    def test_fan_b5_face_count_forced(self):
        g = build_P(5)
        faces = trace_faces(g.graph, g.rotation)
        assert len(faces) == 4  # 7 - 9 + F = 2
        assert euler_check(g.graph, faces)

    def test_disconnected_flagged(self):
        g = build_P(1).graph  # v is isolated
        faces = trace_faces(g, build_P(1).rotation)
        with pytest.raises(ValueError, match="disconnected"):
            euler_check(g, faces)

    @pytest.mark.parametrize("k,ell", [(1, 0), (1, 1), (2, 1), (1, 2), (3, 2)])
    def test_gadgets_pass(self, k, ell):
        g = build_T(k, ell, check=False)
        assert euler_check(g.graph, trace_faces(g.graph, g.rotation))


class TestOuterFace:
    @pytest.mark.parametrize("b", [2, 3, 5, 8])
    def test_fan_outer_is_hexagon_with_terminals(self, b):
        g = build_P(b)
        faces = trace_faces(g.graph, g.rotation)
        outer = outer_face_index(faces, 0, 1, g.graph)
        assert outer == g.rotation.outer_face_id
        assert len(faces[outer]) == 6
        assert 0 in faces[outer] and 1 in faces[outer]

    def test_degenerate_fan_falls_back_to_u(self):
        g = build_P(1)
        faces = trace_faces(g.graph, g.rotation)
        outer = outer_face_index(faces, 0, 1, g.graph)
        assert 0 in faces[outer]


class TestFaceLengths:
    def test_four_cycle(self):
        g = Graph(4, [(0, 1), (1, 2), (2, 3), (0, 3)])
        faces = trace_faces(g, RotationSystem(((1, 3), (2, 0), (3, 1), (0, 2))))
        assert min_bounded_face_length(faces, 0) == 4

    @pytest.mark.parametrize("b", [3, 4, 5, 8, 16])
    def test_fan_bounded_faces_are_quads(self, b):
        g = build_P(b, check=False)
        faces = trace_faces(g.graph, g.rotation)
        outer = outer_face_index(faces, 0, 1, g.graph)
        assert min_bounded_face_length(faces, outer) == 4
        hist = face_length_histogram(faces)
        assert hist == {4: b - 2, 6: 1}

    def test_tree_fan_has_no_bounded_faces(self):
        g = build_P(2)
        faces = trace_faces(g.graph, g.rotation)
        assert min_bounded_face_length(faces, 0) is None

    @pytest.mark.parametrize(
        "k,ell",
        [(1, 1), (2, 1), (3, 1), (1, 2), (2, 2), (1, 3), (2, 3)],
    )
    def test_gadget_face_histogram(self, k, ell):
        """Exact face census: the leaf fans keep their quads, every child
        gluing contributes two pentagons, the outer face stays a hexagon."""
        g = build_T(k, ell, check=False)
        faces = trace_faces(g.graph, g.rotation)
        quads = 3 ** ell * (2 ** k - 2)
        pents = 3 * (3 ** ell - 1)
        expected = {5: pents, 6: 1}
        if quads:
            expected[4] = quads
        assert face_length_histogram(faces) == expected

    @pytest.mark.xfail(
        strict=True,
        reason="k=1 leaf paths subdivide their host quads into pentagons, so"
        " bounded faces are not all quadrilaterals",
    )
    def test_all_bounded_faces_are_quadrilaterals(self):
        g = build_T(1, 1)
        faces = trace_faces(g.graph, g.rotation)
        outer = g.rotation.outer_face_id
        assert all(
            len(f) == 4 for i, f in enumerate(faces) if i != outer
        )


class TestCertify:
    @pytest.mark.parametrize("k,ell", [(1, 0), (2, 0), (1, 1), (2, 1), (2, 2)])
    def test_gadgets_certify(self, k, ell):
        g = build_T(k, ell, check=False)
        report = certify(g.tg, g.rotation)
        assert report["ok"]
        assert report["triangle_count"] == 0
        assert report["outer_face_length"] == 6
        assert report["bounded_faces_ge_4"]

    def test_degenerate_fan_certifies(self):
        g = build_P(1)  # v is isolated, so Euler runs on the rest
        report = certify(g.tg, g.rotation)
        assert report["ok"] and report["euler"]
        assert report["outer_face_id"] == g.rotation.outer_face_id == 0

    def test_construction_check_designates_outer_face(self):
        g = build_T(1, 1)  # check=True by default
        assert g.rotation.outer_face_id is not None
        faces = trace_faces(g.graph, g.rotation)
        walk = faces[g.rotation.outer_face_id]
        assert sorted(walk) == [0, 1, 2, 3, 5, 6]  # u, v1, v2, v, v4, v5

    def test_rotation_system_roundtrip(self):
        g = build_P(5)
        rot = RotationSystem(g.rotation.order, None)
        assert trace_faces(g.graph, rot) == trace_faces(g.graph, g.rotation)
