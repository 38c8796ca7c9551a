import itertools

import pytest
from hypothesis import given

from threecolor import (
    Graph,
    TerminalGraph,
    build_P,
    induced_subgraph,
    is_proper,
    triangle_count,
)

from graph_strategies import graphs_with_total_colorings, small_graphs


def naive_triangle_count(g: Graph) -> int:
    """Independent oracle: the O(n^3) triple loop."""
    count = 0
    for a, b, c in itertools.combinations(range(g.vertex_count), 3):
        if g.has_edge(a, b) and g.has_edge(b, c) and g.has_edge(a, c):
            count += 1
    return count


class TestGraph:
    def test_rejects_self_loop(self):
        with pytest.raises(ValueError, match="self-loop"):
            Graph(2, [(0, 0)])

    def test_rejects_out_of_range_edge(self):
        with pytest.raises(ValueError, match="out of range"):
            Graph(2, [(0, 2)])

    def test_deduplicates_parallel_edges(self):
        g = Graph(2, [(0, 1), (1, 0)])
        assert g.edge_count == 1

    def test_rejects_duplicate_labels(self):
        with pytest.raises(ValueError, match="unique"):
            Graph(2, [(0, 1)], labels=["a", "a"])

    def test_rejects_wrong_label_count(self):
        with pytest.raises(ValueError):
            Graph(2, [(0, 1)], labels=["a"])

    def test_immutable(self):
        g = Graph(2, [(0, 1)])
        with pytest.raises(AttributeError):
            g.vertex_count = 5

    def test_adjacency_consistent_with_edges(self):
        g = Graph(4, [(0, 1), (1, 2), (2, 3), (0, 3)])
        assert g.adjacency == ((1, 3), (0, 2), (1, 3), (0, 2))
        assert g.has_edge(3, 0) and not g.has_edge(0, 2)


class TestTerminalGraph:
    def test_rejects_adjacent_terminals(self):
        with pytest.raises(ValueError, match="non-adjacent"):
            TerminalGraph(Graph(2, [(0, 1)]), 0, 1)

    def test_rejects_equal_terminals(self):
        with pytest.raises(ValueError, match="distinct"):
            TerminalGraph(Graph(2, []), 0, 0)


class TestTriangleCount:
    def test_empty_graph(self):
        assert triangle_count(Graph(0, [])) == 0

    def test_three_cycle(self):
        assert triangle_count(Graph(3, [(0, 1), (1, 2), (0, 2)])) == 1

    def test_fan_is_triangle_free(self):
        assert triangle_count(build_P(5).graph) == 0

    def test_k4(self):
        k4 = Graph(4, list(itertools.combinations(range(4), 2)))
        assert triangle_count(k4) == 4

    @given(small_graphs())
    def test_matches_naive_triple_loop(self, g):
        assert triangle_count(g) == naive_triangle_count(g)


class TestIsProper:
    def test_single_edge(self):
        g = Graph(2, [(0, 1)])
        assert is_proper(g, {0: 1, 1: 2})
        assert not is_proper(g, {0: 1, 1: 1})

    def test_alternating_fan_coloring(self):
        # u and v on color 3, the path alternating 1,2,1,2,1
        g = build_P(5).graph
        assert is_proper(g, {0: 3, 1: 3, 2: 1, 3: 2, 4: 1, 5: 2, 6: 1})

    def test_partial_coloring_reports_vertex(self):
        g = build_P(5).graph
        with pytest.raises(ValueError, match=r"vertex 4 \('v3'\)"):
            is_proper(g, {0: 1, 1: 1, 2: 2, 3: 3, 5: 3, 6: 2})

    @given(graphs_with_total_colorings())
    def test_monotone_under_edge_removal(self, gc):
        g, coloring = gc
        if not is_proper(g, coloring):
            return
        for removed in g.edges:
            sub = Graph(g.vertex_count, g.edges - {removed})
            assert is_proper(sub, coloring)


class TestInducedSubgraph:
    def test_full_vertex_set_is_identity(self):
        g = build_P(5).graph
        sub, mapping = induced_subgraph(g, range(g.vertex_count))
        assert sub.vertex_count == g.vertex_count
        assert sub.edges == g.edges
        assert mapping == {v: v for v in range(g.vertex_count)}

    def test_empty_set(self):
        sub, mapping = induced_subgraph(build_P(5).graph, [])
        assert sub.vertex_count == 0 and sub.edge_count == 0 and mapping == {}

    def test_out_of_range_member(self):
        with pytest.raises(ValueError, match="out of range"):
            induced_subgraph(Graph(3, []), [0, 3])

    def test_labels_follow(self):
        g = build_P(3).graph
        sub, mapping = induced_subgraph(g, [0, 2, 3])
        assert sub.labels == ("u", "v1", "v2")
        assert sub.has_edge(mapping[2], mapping[3])

    @given(small_graphs(min_n=1))
    def test_subset_edges_preserved(self, g):
        kept = [v for v in range(g.vertex_count) if v % 2 == 0]
        sub, mapping = induced_subgraph(g, kept)
        expected = {(mapping[a], mapping[b]) for a, b in g.edges
                    if a in mapping and b in mapping}
        assert {tuple(sorted(e)) for e in sub.edges} == {
            tuple(sorted(e)) for e in expected
        }
