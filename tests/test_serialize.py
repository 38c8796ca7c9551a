import collections
import json
import math
import mmap
import re
import sys
import tracemalloc
from functools import partial

import networkx as nx
import pytest
from hypothesis import given

from threecolor import build_P, build_T, gadget_to_json, to_dot, to_graph6
from threecolor.cli import _write_output
from threecolor.embedding import trace_faces
from threecolor.graphs import Graph, ascending_edges
from threecolor.serialize import (CHUNK_ITEMS, GRAPH6_MAX_BYTES, GRAPH6_MAX_VERTICES, LazyRows,
                                  check_graph6_size, gadget_descriptor, json_chunks)

from graph_strategies import graphs_with_rotations, small_graphs


def nx_graph6(g: Graph) -> str:
    G = nx.Graph()
    G.add_nodes_from(range(g.vertex_count))
    G.add_edges_from(g.edges)
    return nx.to_graph6_bytes(G, header=False).decode("ascii").strip()


def graph6_edges(line: str) -> tuple[int, set]:
    """Decode a graph6 line with n < 258,048: (n, edges as (i, j), i < j).
    Only the set bits are visited, and the padding must be zero."""
    data = line.encode("ascii")
    if data[0] == 126:
        n = (data[1] - 63) << 12 | (data[2] - 63) << 6 | (data[3] - 63)
        body = data[4:]
    else:
        n, body = data[0] - 63, data[1:]
    assert len(body) == math.ceil(n * (n - 1) / 12)
    edges = set()
    for match in re.finditer(b"[^?]", body):  # "?" is a character of six zero bits
        at, char = match.start(), match.group()[0]
        for r in range(6):
            if (char - 63) >> (5 - r) & 1:
                bit = 6 * at + r
                j = (1 + math.isqrt(8 * bit + 1)) // 2  # j(j-1)/2 <= bit < j(j+1)/2
                assert j < n, "a padding bit is set"
                edges.add((bit - j * (j - 1) // 2, j))
    return n, edges


class TestGraph6:
    @given(small_graphs())
    def test_matches_networkx(self, g):
        assert to_graph6(g) == nx_graph6(g)

    @pytest.mark.parametrize("k,ell", [(1, 0), (1, 1), (2, 1), (1, 2)])
    def test_gadgets_match_networkx(self, k, ell):
        g = build_T(k, ell, check=False).graph
        assert to_graph6(g) == nx_graph6(g)

    def test_roundtrip_through_networkx(self):
        g = build_T(1, 1, check=False).graph
        back = nx.from_graph6_bytes(to_graph6(g).encode("ascii"))
        assert {tuple(sorted(e)) for e in back.edges()} == set(g.edges)

    def test_predicted_length(self):
        # the header grows from one character to four past n = 62
        for n in range(130):
            assert check_graph6_size(n) == len(to_graph6(Graph(n, [])))

    def test_line_over_the_limit_refused(self):
        assert check_graph6_size(14189) <= GRAPH6_MAX_BYTES
        with pytest.raises(ValueError, match="over the limit of 16777216"):
            check_graph6_size(14190)
        with pytest.raises(ValueError, match="14190 vertices"):
            to_graph6(Graph(14190, []))

    def test_limit_is_by_vertex_count(self):
        n = GRAPH6_MAX_VERTICES
        assert check_graph6_size(n) == 4 + math.ceil(n * (n - 1) / 12) <= GRAPH6_MAX_BYTES
        assert 4 + math.ceil((n + 1) * n / 12) > GRAPH6_MAX_BYTES  # the most that fit
        assert n == 14189
        for over in (14190, 258048):  # the header grows to 8 bytes at 258,048
            with pytest.raises(ValueError, match=f"graph6 line of {over} vertices"):
                check_graph6_size(over)
        with pytest.raises(ValueError, match="258048 vertices"):
            to_graph6(Graph(258048, []))

    def test_line_at_the_limit(self):
        n = GRAPH6_MAX_VERTICES
        line = to_graph6(Graph(n, [(0, n - 1), (n - 2, n - 1)]))
        assert len(line) == check_graph6_size(n)
        assert graph6_edges(line) == (n, {(0, n - 1), (n - 2, n - 1)})

    def test_gadget_of_about_2000_vertices(self):
        g = build_T(6, 3, check=False).graph
        assert g.vertex_count == 1795
        line = to_graph6(g)
        assert len(line) == check_graph6_size(1795)
        assert graph6_edges(line) == (1795, set(g.edges))

    def test_medium_size_header(self):
        # n = 63 needs the three-character size prefix
        g = Graph(63, [(0, 62)])
        line = to_graph6(g)
        assert line.startswith("~")
        assert line == nx_graph6(g)


class TestDot:
    def test_labels_preserved(self):
        text = to_dot(build_P(2).graph)
        assert 'label="u"' in text and 'label="v2"' in text
        assert "0 -- 2;" in text and "2 -- 3;" in text

    def test_unlabeled_graph(self):
        text = to_dot(Graph(2, [(0, 1)]))
        assert "label" not in text
        assert "0 -- 1;" in text

    def test_deterministic(self):
        g = build_T(1, 1, check=False).graph
        assert to_dot(g) == to_dot(g)

    def test_quoted_labels_read_back(self):
        # A backslash is escaped before a quote is, so a label's own
        # backslash cannot escape the closing quote.
        labels = ["a\\", 'b"', '\\"', '"\\', "c\\\\d", "plain"]
        lines = to_dot(Graph(len(labels), [(0, 1)], labels)).splitlines()[1:len(labels) + 1]
        read = [re.fullmatch(r'  (\d+) \[label="((?:[^"\\]|\\.)*)"\];', line) for line in lines]
        assert all(read), lines
        assert [int(m[1]) for m in read] == list(range(len(labels)))
        assert [re.sub(r"\\(.)", r"\1", m[2]) for m in read] == labels

    @given(small_graphs())
    def test_edge_lines_follow_the_edge_order(self, g):
        lines = [line for line in to_dot(g).splitlines() if " -- " in line]
        assert lines == [f"  {a} -- {b};" for a, b in g.edges]


def edge_rows(g: Graph) -> LazyRows:
    """The edges as the descriptor's `edges` view reads them."""
    return LazyRows(g.edge_count, {2}, partial(ascending_edges, g.adjacency))


def _edge_orders(g: Graph) -> tuple[list, list, list]:
    """The edges as `Graph.edges`, the rows view and the DOT edge lines give them."""
    dot = [tuple(map(int, re.fullmatch(r"  (\d+) -- (\d+);", line).groups()))
           for line in to_dot(g).splitlines() if " -- " in line]
    return list(g.edges), list(edge_rows(g)), dot


class TestOneEdgeOrder:
    """`Graph.edges`, the rows view and `to_dot` read the edges in one order:
    each edge once as (a, b) with a < b, ascending, also from rotation rows."""

    def test_gadget_rows_in_rotation_order(self):
        g = build_T(2, 2, check=False).graph
        assert any(list(row) != sorted(row) for row in g.adjacency)
        edges, rows, dot = _edge_orders(g)
        expected = sorted({(min(a, b), max(a, b)) for a, row in enumerate(g.adjacency)
                           for b in row})
        assert edges == rows == dot == expected

    @given(graphs_with_rotations())
    def test_drawn_rotation(self, case):
        g = Graph.from_rotation(case[1])
        edges, rows, dot = _edge_orders(g)
        assert edges == rows == dot == sorted(case[0].edges)
        assert len(edges) == g.edge_count == case[0].edge_count


class TestGadgetDescriptor:
    def test_keys_and_shapes(self):
        g = build_T(1, 1)
        doc = gadget_descriptor(g)
        assert doc["k"] == 1 and doc["ell"] == 1 and doc["b"] == 2
        assert doc["vertex_count"] == 13
        assert doc["terminals"] == [0, 1]
        assert len(doc["edges"]) == 18
        assert doc["leaf_pairs"] == [[2, 4], [3, 5], [4, 6]]
        assert doc["inner_set"] == list(range(7))
        assert len(doc["rotation"]["order"]) == 13
        assert doc["rotation"]["outer_face_id"] is not None

    def test_fan_descriptor(self):
        doc = gadget_descriptor(build_P(5))
        assert doc["k"] is None and doc["ell"] is None and doc["b"] == 5

    def test_faces_on_request(self):
        g = build_T(1, 1)
        assert "faces" not in gadget_descriptor(g)
        doc = gadget_descriptor(g, include_faces=True)
        assert sorted(len(f) for f in doc["faces"]) == [5, 5, 5, 5, 5, 5, 6]

    def test_json_parses(self):
        doc = json.loads(gadget_to_json(build_T(1, 0)))
        assert doc["vertex_count"] == 4
        assert doc["labels"] == ["u", "v", "v1", "v2"]


def as_lists(value):
    """The descriptor in its earlier form: every sequence a new list."""
    if isinstance(value, dict):
        return {key: as_lists(item) for key, item in value.items()}
    if isinstance(value, (list, tuple)):
        return [as_lists(item) for item in value]
    return value


GADGETS = [("T", k, ell) for k in (1, 2, 3) for ell in range(4)] + \
    [("P", b, None) for b in range(1, 6)]


class TestGadgetToJson:
    @pytest.mark.parametrize("check", [True, False])
    @pytest.mark.parametrize("kind,a,ell", GADGETS)
    def test_bytes_match_the_list_descriptor(self, kind, a, ell, check):
        gadget = build_T(a, ell, check=check) if kind == "T" else build_P(a, check=check)
        for faces in (False, True):
            reference = as_lists(gadget_descriptor(gadget, include_faces=faces))
            assert gadget_to_json(gadget, include_faces=faces) == \
                json.dumps(reference, indent=2)

    @pytest.mark.parametrize("gadget, faces", [
        (build_T(4, 4), True),
        (build_P(1), False),
        (build_P(1), True),
    ], ids=["T(4,4)-faces", "P(1)", "P(1)-faces"])
    def test_bytes_match_json_dumps_of_the_descriptor(self, gadget, faces):
        doc = gadget_descriptor(gadget, include_faces=faces)
        assert gadget_to_json(gadget, include_faces=faces) == json.dumps(doc, indent=2)

    def test_fan_with_an_empty_rotation_row(self):
        doc = json.loads(gadget_to_json(build_P(1)))
        assert doc["k"] is None and doc["ell"] is None
        assert doc["rotation"]["order"] == [[2], [], [0]]

    def test_row_wider_than_a_chunk(self):
        # u of P(u,v,b) has b/2 neighbors, one more than a chunk holds
        gadget = build_P(2 * CHUNK_ITEMS + 2, check=False)
        assert len(gadget.rotation.order[0]) == CHUNK_ITEMS + 1
        doc = gadget_descriptor(gadget)
        assert gadget_to_json(gadget) == json.dumps(doc, indent=2)

    def test_text_moves_to_larger_maps_and_closes_each(self, monkeypatch):
        # The first map holds 16 bytes, so that T(2,2)'s text moves at least four times.
        real, maps, lengths = mmap.mmap, [], []

        def first_small(fileno, length):
            lengths.append(length if maps else 16)
            maps.append(real(fileno, lengths[-1]))
            return maps[-1]

        monkeypatch.setattr(mmap, "mmap", first_small)
        gadget = build_T(2, 2)
        text = gadget_to_json(gadget, include_faces=True)
        assert text == json.dumps(gadget_descriptor(gadget, include_faces=True), indent=2)
        assert len(maps) > 4 and all(m.closed for m in maps)
        assert lengths[-1] < 4 * len(text)

    def test_the_text_is_gathered_off_the_heap(self):
        gadget = build_T(4, 6, check=False)
        gadget.graph.labels  # made before measuring, as the descriptor only reads them
        tracemalloc.start()
        try:
            text = gadget_to_json(gadget)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        # Gathered on the heap, the chunks would take as much again as the text.
        assert peak < 1.25 * len(text)


# A chunk holds at most CHUNK_ITEMS numbers or strings; in these documents
# none takes more than 32 characters with its indent, separator and brackets.
CHUNK_CHARS = 32 * CHUNK_ITEMS


class TestJsonChunks:
    @pytest.mark.parametrize("gadget", [
        build_T(4, 4), build_T(4, 6, check=False), build_P(1),
        build_P(2 * CHUNK_ITEMS + 2, check=False),
    ], ids=["T(4,4)", "T(4,6)", "P(1)", "P(2050)"])
    def test_chunks_join_to_the_text_and_stay_short(self, gadget):
        for faces in (False, True):
            chunks = list(json_chunks(gadget_descriptor(gadget, include_faces=faces)))
            assert "".join(chunks) == gadget_to_json(gadget, include_faces=faces)
            assert max(map(len, chunks)) <= CHUNK_CHARS

    @pytest.mark.parametrize("faces", [False, True], ids=["edges", "faces"])
    def test_rows_are_streamed_from_the_graph(self, faces):
        # The edges are read from the adjacency, and the faces from the
        # walks that the graph keeps, so neither is held as a list of tuples.
        gadget = build_T(4, 6, check=False)
        g = gadget.graph
        g.labels  # made before measuring, as the descriptor only reads them
        tracemalloc.start()
        try:
            pairs = g.edges  # what the descriptor held before
            walks = trace_faces(g, gadget.rotation) if faces else []  # and its faces
            held = tracemalloc.get_traced_memory()[0]
            del pairs, walks
            tracemalloc.reset_peak()
            base = tracemalloc.get_traced_memory()[0]
            collections.deque(json_chunks(gadget_descriptor(gadget, include_faces=faces)),
                              maxlen=0)
            peak = tracemalloc.get_traced_memory()[1] - base
        finally:
            tracemalloc.stop()
        assert held > (3_000_000 if faces else 1_500_000)
        assert peak < held - (3_000_000 if faces else 1_500_000)

    def test_edge_rows_read_like_the_edges(self):
        g = build_T(2, 2, check=False).graph
        rows = edge_rows(g)
        assert len(rows) == g.edge_count and bool(rows)
        assert list(rows) == list(g.edges)
        assert json.dumps(rows) == json.dumps(g.edges)  # the C encoder, too
        assert not edge_rows(Graph(3, [])) and json.dumps(edge_rows(Graph(3, []))) == "[]"

    @pytest.mark.parametrize("gadget", [build_T(2, 2, check=False), build_P(1, check=False)],
                             ids=["T(2,2)", "P(1)"])
    def test_face_rows_read_like_the_traced_faces(self, gadget):
        rows = gadget_descriptor(gadget, include_faces=True)["faces"]
        faces = trace_faces(gadget.graph, gadget.rotation)
        assert type(rows) is LazyRows and len(rows) == len(faces) and bool(rows)
        assert rows.widths == set(map(len, faces))
        assert list(rows) == list(rows) == faces
        assert json.dumps(rows) == json.dumps(faces)  # the C encoder, too

    def test_writing_holds_a_fraction_of_the_text(self, monkeypatch):
        class Sink:
            """Counts what it is given and keeps none of it."""
            length = 0

            def write(self, text):
                self.length += len(text)

        doc = gadget_descriptor(build_T(4, 6, check=False))
        sink = Sink()
        monkeypatch.setattr(sys, "stdout", sink)
        tracemalloc.start()
        try:
            _write_output(json_chunks(doc), None)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert sink.length == len(json.dumps(doc, indent=2)) + 1  # and a newline
        assert peak < sink.length // 4
