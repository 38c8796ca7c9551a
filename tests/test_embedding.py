import collections
import itertools
import json
import sys
import tracemalloc

import networkx as nx
import pytest
from hypothesis import given

from threecolor import build_P, build_T, certify, graphs
from threecolor.embedding import RotationSystem, euler_check, trace_faces
from threecolor.gadgets import vertex_count_closed_form
from threecolor.graphs import LONG_ROW, Graph, TerminalGraph, _IndexedRow, facial_walks
from threecolor.serialize import gadget_descriptor, json_chunks

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
    """The walks that `Graph.from_rotation` keeps, and `trace_faces`, against
    the modulo tracer they replaced: the same walks in the same order, so
    `outer_face_id` and the JSON faces keep."""

    @pytest.mark.parametrize("k,ell", SMALL_GADGETS)
    def test_gadget_walks_match(self, k, ell):
        gadget = build_T(k, ell, check=False)
        faces = list(facial_walks(gadget.graph.faces))
        assert trace_faces(gadget.graph, gadget.rotation) == faces
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
        # Only the walker in `graphs` searches rows, and it walks each
        # rotation once: the graph's own rows are read from its walks.
        made = []
        monkeypatch.setattr(graphs, "_IndexedRow",
                            lambda row: made.append(len(row)) or _IndexedRow(row))
        gadget = build_P(2 * LONG_ROW + 1, check=False)  # u's row is 257 long, v's 256
        assert sorted(map(len, gadget.rotation.order))[-2:] == [LONG_ROW, LONG_ROW + 1]
        assert made == [LONG_ROW + 1]
        made.clear()
        faces = trace_faces(gadget.graph, gadget.rotation)
        assert certify(gadget.tg, gadget.rotation)["ok"]
        assert made == []
        copy = RotationSystem(tuple(map(tuple, gadget.rotation.order)))
        assert trace_faces(gadget.graph, copy) == faces
        assert made == [LONG_ROW + 1]
        assert faces == list(map(tuple, trace_faces_modulo(gadget.rotation.order)))


def count_walks(monkeypatch) -> list:
    """Record each call of the face walker, wherever it is called from."""
    calls = []
    real = graphs._walk_faces

    def counted(*args):
        calls.append(len(args[0]))
        return real(*args)

    monkeypatch.setattr(graphs, "_walk_faces", counted)
    return calls


class TestKeptWalks:
    """`Graph.from_rotation` walks the faces as its reverse-dart check and
    keeps the walks in two arrays; the certificate and the JSON read them."""

    def test_walks_take_under_7_bytes_per_dart(self):
        order = build_T(4, 6, check=False).rotation.order
        darts = sum(map(len, order))
        tracemalloc.start()
        try:
            base = tracemalloc.get_traced_memory()[0]
            g = Graph.from_rotation(order)  # the tuple rows are kept, not copied
            kept = tracemalloc.get_traced_memory()[0] - base
            kept -= sys.getsizeof(g.adjacency) + sys.getsizeof(g) + sys.getsizeof(g.faces)
            faces = trace_faces(g, RotationSystem(g.adjacency))
            as_tuples = tracemalloc.get_traced_memory()[0] - base - kept
        finally:
            tracemalloc.stop()
        assert sum(map(len, faces)) == darts == len(g.faces[0])
        assert kept <= 7 * darts
        assert as_tuples >= 3 * kept  # the same walks as a list of tuples

    def test_darts_walked_once(self, monkeypatch):
        calls = count_walks(monkeypatch)
        gadget = build_T(3, 2)  # check=True, so `certify` runs in the build
        report = certify(gadget.tg, gadget.rotation)
        collections.deque(json_chunks(gadget_descriptor(gadget, include_faces=True)), maxlen=0)
        assert report["ok"] and calls == [gadget.graph.vertex_count]

    @pytest.mark.parametrize("make", [
        lambda g: Graph(g.vertex_count, g.edges),
        lambda g: graphs.induced_subgraph(g, range(9))[0],
    ], ids=["edge list", "induced"])
    def test_other_graphs_keep_none(self, make):
        h = make(build_T(2, 1, check=False).graph)
        assert h.faces is None
        assert trace_faces(h, RotationSystem(h.adjacency)) == \
            list(map(tuple, trace_faces_modulo(h.adjacency)))


# Every T(k,l) with at most 5,000 vertices.
ROUTE_GADGETS = [(k, ell) for ell in range(9) for k in range(1, 13)
                 if vertex_count_closed_form(k, ell) <= 5_000]


def outcome(tg, rot) -> str:
    """`certify`'s report as JSON, key order included, or its error."""
    try:
        return json.dumps(certify(tg, rot))
    except ValueError as exc:
        return f"ValueError: {exc}"


class TestTwoRoutes:
    """`certify` on the walks the graph keeps, and on a copy of its rotation,
    which is compared with the graph's edges and walked afresh: one report."""

    @pytest.mark.parametrize("k,ell", ROUTE_GADGETS)
    def test_gadget_reports_agree(self, k, ell, monkeypatch):
        gadget = build_T(k, ell, check=False)
        calls = count_walks(monkeypatch)
        kept = outcome(gadget.tg, gadget.rotation)
        assert calls == []
        copy = RotationSystem(tuple(map(tuple, gadget.graph.adjacency)))
        assert outcome(gadget.tg, copy) == kept
        assert calls == [gadget.graph.vertex_count] and json.loads(kept)["ok"]

    @given(graphs_with_rotations())
    def test_drawn_rotations_agree(self, case):
        g = Graph.from_rotation(case[1])
        copy = RotationSystem(tuple(map(tuple, g.adjacency)))
        for u, v in itertools.permutations(range(g.vertex_count), 2):
            if not g.has_edge(u, v):
                tg = TerminalGraph(g, u, v)
                assert outcome(tg, copy) == outcome(tg, RotationSystem(g.adjacency))


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
        g = Graph(4, [(0, 1), (2, 3)])
        faces = trace_faces(g, RotationSystem(g.adjacency))
        with pytest.raises(ValueError, match="disconnected"):
            euler_check(g, faces)

    @pytest.mark.parametrize("b,extra", [(1, 0), (1, 1), (5, 1)])
    def test_isolated_vertices_left_out(self, b, extra):
        # P(u,v,1)'s v has no edge; `extra` more vertices with no edge follow
        h = Graph.from_rotation(build_P(b).graph.adjacency + ((),) * extra)
        assert euler_check(h, trace_faces(h, RotationSystem(h.adjacency)))

    @pytest.mark.parametrize("n", [0, 1, 3])
    def test_no_edge_rejected(self, n):
        with pytest.raises(ValueError, match="no edge"):
            euler_check(Graph(n, []), [])

    @pytest.mark.parametrize("k,ell", [(1, 0), (1, 1), (2, 1), (1, 2), (3, 2)])
    def test_gadgets_pass(self, k, ell):
        g = build_T(k, ell, check=False)
        assert euler_check(g.graph, trace_faces(g.graph, g.rotation))


class TestOuterFace:
    @pytest.mark.parametrize("b", [2, 3, 5, 8])
    def test_fan_outer_is_hexagon_with_terminals(self, b):
        g = build_P(b)
        report = certify(g.tg, g.rotation)
        outer = report["outer_face_id"]
        assert outer == g.rotation.outer_face_id
        assert report["outer_face_length"] == 6
        walk = trace_faces(g.graph, g.rotation)[outer]
        assert 0 in walk and 1 in walk

    def test_degenerate_fan_falls_back_to_u(self):
        g = build_P(1)
        report = certify(g.tg, g.rotation)
        assert report["outer_face_length"] == 2
        assert 0 in trace_faces(g.graph, g.rotation)[report["outer_face_id"]]

    def test_terminals_on_two_faces_rejected(self):
        # both faces of a 4-cycle hold both of its opposite corners
        g = Graph(4, [(0, 1), (1, 2), (2, 3), (0, 3)])
        with pytest.raises(ValueError, match="unique face with both terminals, found 2"):
            certify(TerminalGraph(g, 0, 2), RotationSystem(g.adjacency))


class TestFaceLengths:
    def test_four_cycle_with_a_pendant_terminal(self):
        # the pendant v lies only on the outer walk, around the 4-cycle
        g = Graph(5, [(0, 1), (1, 2), (2, 3), (0, 3), (2, 4)])
        report = certify(TerminalGraph(g, 0, 4), RotationSystem(g.adjacency))
        assert report["ok"]
        assert report["outer_face_length"] == 6 and report["min_bounded_face_length"] == 4

    @pytest.mark.parametrize("b", [3, 4, 5, 8, 16])
    def test_fan_bounded_faces_are_quads(self, b):
        g = build_P(b, check=False)
        report = certify(g.tg, g.rotation)
        assert report["min_bounded_face_length"] == 4
        assert report["face_length_histogram"] == {4: b - 2, 6: 1}

    def test_tree_fan_has_no_bounded_faces(self):
        g = build_P(2)
        report = certify(g.tg, g.rotation)
        assert report["faces"] == 1 and report["min_bounded_face_length"] is None
        assert report["bounded_faces_ge_4"]

    @pytest.mark.parametrize(
        "k,ell",
        [(1, 1), (2, 1), (3, 1), (1, 2), (2, 2), (1, 3), (2, 3)],
    )
    def test_gadget_face_histogram(self, k, ell):
        """Exact face census: the leaf fans keep their quads, every child
        gluing contributes two pentagons, the outer face stays a hexagon."""
        g = build_T(k, ell, check=False)
        quads = 3 ** ell * (2 ** k - 2)
        pents = 3 * (3 ** ell - 1)
        expected = {5: pents, 6: 1}
        if quads:
            expected[4] = quads
        assert certify(g.tg, g.rotation)["face_length_histogram"] == expected

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

    def test_isolated_vertex_that_is_not_a_terminal(self):
        # P(u,v,5) with one vertex more, which has no edge: Euler leaves it out
        fan = build_P(5)
        g = Graph.from_rotation(fan.graph.adjacency + ((),))
        report = certify(TerminalGraph(g, 0, 1), RotationSystem(g.adjacency))
        expected = dict(certify(fan.tg, fan.rotation), vertices=8)
        assert json.dumps(report) == json.dumps(expected)

    @pytest.mark.parametrize("build,expected", [
        (lambda: build_P(1), {
            "vertices": 3, "edges": 1, "faces": 1, "outer_face_id": 0, "triangle_count": 0,
            "euler": True, "terminals_nonadjacent": True, "terminals_on_outer_face": True,
            "outer_face_length": 2, "min_bounded_face_length": None,
            "bounded_faces_ge_4": True, "face_length_histogram": {2: 1}, "ok": True}),
        (lambda: build_P(5), {
            "vertices": 7, "edges": 9, "faces": 4, "outer_face_id": 2, "triangle_count": 0,
            "euler": True, "terminals_nonadjacent": True, "terminals_on_outer_face": True,
            "outer_face_length": 6, "min_bounded_face_length": 4,
            "bounded_faces_ge_4": True, "face_length_histogram": {4: 3, 6: 1}, "ok": True}),
        (lambda: build_T(2, 2), {
            "vertices": 58, "edges": 99, "faces": 43, "outer_face_id": 2, "triangle_count": 0,
            "euler": True, "terminals_nonadjacent": True, "terminals_on_outer_face": True,
            "outer_face_length": 6, "min_bounded_face_length": 4,
            "bounded_faces_ge_4": True, "face_length_histogram": {5: 24, 6: 1, 4: 18},
            "ok": True}),
    ], ids=["P(u,v,1)", "P(u,v,5)", "T(2,2)"])
    def test_pinned_report(self, build, expected):
        """The whole report, key order and histogram order included."""
        g = build()
        assert json.dumps(certify(g.tg, g.rotation)) == json.dumps(expected)

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


# Every T(k,l) with at most 2,000 vertices: 38 gadgets.
NX_GADGETS = [(k, ell) for ell in range(6) for k in range(1, 11)
              if vertex_count_closed_form(k, ell) <= 2_000]


def to_networkx(g):
    G = nx.Graph()
    G.add_nodes_from(range(g.vertex_count))
    G.add_edges_from(g.edges)
    return G


class TestNetworkxRoute:
    """networkx's planarity test and triangle count, a second route to what
    `certify` shows by face tracing and `triangle_count`."""

    @pytest.mark.parametrize("k,ell", NX_GADGETS)
    def test_gadget_planar_and_triangle_free(self, k, ell):
        G = to_networkx(build_T(k, ell).graph)  # the build certifies it
        assert nx.check_planarity(G)[0]
        assert sum(nx.triangles(G).values()) == 0

    @pytest.mark.parametrize("b", range(1, 13))
    def test_fan_planar_and_triangle_free(self, b):
        G = to_networkx(build_P(b).graph)
        assert nx.check_planarity(G)[0]
        assert sum(nx.triangles(G).values()) == 0

    def test_k33_fails_both_routes(self):
        # sides {0, 1, 2} and {3, 4, 5}: every rotation has a genus, so Euler fails
        g = Graph.from_rotation([(3, 4, 5)] * 3 + [(0, 1, 2)] * 3)
        assert not euler_check(g, trace_faces(g, RotationSystem(g.adjacency)))
        assert not nx.check_planarity(to_networkx(g))[0]
