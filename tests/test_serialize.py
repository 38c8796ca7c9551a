import json

import networkx as nx
import pytest
from hypothesis import given

from threecolor import build_P, build_T, gadget_to_json, to_dot, to_graph6
from threecolor.graphs import Graph
from threecolor.serialize import gadget_descriptor

from graph_strategies import small_graphs


def nx_graph6(g: Graph) -> str:
    G = nx.Graph()
    G.add_nodes_from(range(g.vertex_count))
    G.add_edges_from(g.edges)
    return nx.to_graph6_bytes(G, header=False).decode("ascii").strip()


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
