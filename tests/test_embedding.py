import pytest

from threecolor import (
    Graph,
    RotationSystem,
    build_P,
    build_T,
    certify,
    euler_check,
    face_length_histogram,
    min_bounded_face_length,
    outer_face_index,
    trace_faces,
)


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
        rot = [(1, 3), (2, 0), (3, 1), (0, 2)]
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
            trace_faces(g, [(1,), (0,), (1,)])

    def test_rotation_missing_vertex_rejected(self):
        g = Graph(3, [(0, 1), (1, 2)])
        with pytest.raises(ValueError, match="every vertex"):
            trace_faces(g, [(1,), (0, 2)])


class TestEulerCheck:
    def test_single_edge(self):
        g = Graph(2, [(0, 1)])
        faces = trace_faces(g, [(1,), (0,)])
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
        faces = trace_faces(g, [(1, 3), (2, 0), (3, 1), (0, 2)])
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
