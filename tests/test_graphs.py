import itertools
import operator
import random

import networkx as nx
import pytest
from hypothesis import given, strategies as st

from threecolor import build_P, build_T
from threecolor.graphs import (
    LONG_ROW,
    Graph,
    TerminalGraph,
    induced_subgraph,
    triangle_count,
)

from graph_strategies import dense_graphs, edge_lists_with_repeats, small_graphs
from rotation_reference import rotation_fault


def corrupt_rotation(rng: random.Random, rows: list[list[int]], favored: list[int]) -> None:
    """One seeded fault in one row of `rows`, in place: a neighbor b made the
    alias b - n, a negative appended, a neighbor duplicated, dropped or written
    over another, a target past the end, or a self-loop.  Half the faults go
    to a row of `favored`, if any."""
    n = len(rows)
    a = rng.choice(favored) if favored and rng.random() < 0.5 else rng.randrange(n)
    row = rows[a]
    i = rng.randrange(len(row)) if row else 0
    kind = rng.randrange(7) if len(row) > 1 else rng.choice((1, 5, 6))
    if kind == 0:
        row[i] -= n
    elif kind == 1:
        row.append(-rng.randint(1, n + 1))
    elif kind == 2:
        row.insert(rng.randint(0, len(row)), row[i])
    elif kind == 3:
        del row[i]
    elif kind == 4:
        row[i] = row[i - 1]
    elif kind == 5:
        row.insert(rng.randint(0, len(row)), n + rng.randrange(3))
    else:
        row.insert(rng.randint(0, len(row)), a)


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

    @given(edge_lists_with_repeats())
    def test_single_store_agrees_with_input(self, case):
        n, edge_list = case
        g = Graph(n, edge_list)
        normalized = {(min(a, b), max(a, b)) for a, b in edge_list}
        for a, nbrs in enumerate(g.adjacency):
            assert list(nbrs) == sorted(set(nbrs))
            assert all(a in g.adjacency[b] for b in nbrs)
        assert list(g.edges) == sorted(g.edges)
        assert all(a < b for a, b in g.edges)
        assert set(g.edges) == normalized
        assert g.edge_count == len(g.edges)
        for a, b in itertools.product(range(n), repeat=2):
            expected = (min(a, b), max(a, b)) in normalized
            assert g.has_edge(a, b) == g.has_edge(b, a) == expected
        assert not g.has_edge(-1, 0)
        assert not g.has_edge(0, n)


class TestFromRotation:
    """The builder's path: a Graph from rotation tuples, checked as strictly
    as one built from an edge list."""

    @given(small_graphs(), st.randoms(use_true_random=False))
    def test_agrees_with_the_edge_list_constructor(self, g, rng):
        order = [rng.sample(nbrs, len(nbrs)) for nbrs in g.adjacency]
        h = Graph.from_rotation(order)
        assert h.adjacency == tuple(map(tuple, order))
        assert tuple(tuple(sorted(row)) for row in h.adjacency) == g.adjacency
        assert (h.vertex_count, h.edge_count) == (g.vertex_count, g.edge_count)
        assert h.labels is None

    def test_corrupted_gadget_rotations_rejected(self):
        order = list(build_T(2, 2, check=False).rotation.order)
        n, a = len(order), 9
        corruptions = {
            "out of range": order[a] + (n,),
            "self-loop": order[a] + (a,),
            "repeated neighbor": order[a] + order[a][:1],
            "no reverse": order[a][1:],
        }
        for message, nbrs in corruptions.items():
            with pytest.raises(ValueError, match=message):
                Graph.from_rotation(order[:a] + [nbrs] + order[a + 1:])
        Graph.from_rotation(order)  # the intact rotation passes

        g = build_T(3, 4, check=False).graph
        firsts = [g.label_of(v) for v in range(g.vertex_count)]
        assert firsts == list(g.labels)

    def test_long_rows_missing_a_reverse_rejected(self):
        order = list(build_T(10, 0, check=False).rotation.order)
        assert len(order[0]) > LONG_ROW and len(order[1]) > LONG_ROW
        for a, nbrs in ((0, order[0][1:]), (2, order[2] + (1,))):
            with pytest.raises(ValueError, match="no reverse"):
                Graph.from_rotation(order[:a] + [nbrs] + order[a + 1:])

    def test_neighbors_past_the_end_rejected(self):
        short = list(build_T(2, 2, check=False).rotation.order)
        long = list(build_T(10, 0, check=False).rotation.order)
        assert max(map(len, short)) <= LONG_ROW < len(long[0])
        for order, a, target in ((short, 9, len(short)), (long, 0, len(long) + 1),
                                 (long, 2, len(long) + 1), (long, 0, -1)):
            message = f"^a neighbor is out of range for n={len(order)}$"
            with pytest.raises(ValueError, match=message):
                Graph.from_rotation(order[:a] + [order[a] + (target,)] + order[a + 1:])

    def test_refusals_match_the_four_reference_passes(self):
        # The face walk is the whole check, yet a refused rotation gets the
        # message of the reference passes, whose order names the first fault.
        outcomes = set()
        for k, ell in ((1, 1), (2, 2), (3, 1), (1, 3), (10, 0)):
            order = build_T(k, ell, check=False).rotation.order
            favored = [a for a, row in enumerate(order) if len(row) > LONG_ROW]
            rng = random.Random(100 * k + ell)
            for case in range(160):
                rows = [list(row) for row in order]
                for _ in range(1 + case % 2):  # single and double faults
                    corrupt_rotation(rng, rows, favored)
                expected = rotation_fault(rows)
                try:
                    Graph.from_rotation(rows)
                    got = None
                except ValueError as exc:
                    got = str(exc)
                assert got == expected, (k, ell, case, rows)
                outcomes.add(got and got.split(" for n=")[0])
        assert outcomes == {None, "a neighbor is out of range", "the rotation has a self-loop",
                            "the rotation has a repeated neighbor",
                            "a dart of the rotation has no reverse"}

    def test_aliased_negative_targets_rejected(self):
        # rows[b - n] is rows[b], so the reverse of a -> b - n is found; only
        # the padded offset[b - n], past the last key, stops the walk.  With a
        # self-loop or a repeated neighbor beside it, the negative is named first.
        for k, ell in ((2, 2), (10, 0)):
            gadget = build_T(k, ell, check=False)
            order, n = list(gadget.rotation.order), gadget.graph.vertex_count
            a = gadget.tg.terminal_u if k == 10 else 9  # u's long row, a short row
            assert (len(order[a]) > LONG_ROW) == (k == 10)
            aliased = (order[a][0] - n,) + order[a][1:]
            for nbrs in (aliased, aliased + (a,), aliased + order[a][1:2]):
                with pytest.raises(ValueError, match=f"^a neighbor is out of range for n={n}$"):
                    Graph.from_rotation(order[:a] + [nbrs] + order[a + 1:])

    def test_negative_targets_closing_every_walk_rejected(self):
        # Without the padded offsets these pass the walk: each walk closes at
        # its first dart and no key is entered twice.
        for order in (((2,), (-4,), (-3, 0)), ((5,), (5,), (), (2,), (), (-5, 0, 1))):
            with pytest.raises(ValueError, match=f"^a neighbor is out of range for n={len(order)}$"):
                Graph.from_rotation(order)

    def test_repeated_neighbor_in_a_long_row_rejected(self):
        gadget = build_T(10, 0, check=False)
        order, u = list(gadget.rotation.order), gadget.tg.terminal_u
        assert len(order[u]) > LONG_ROW
        # appended, and written over the last neighbor (whose dart then has no reverse)
        for nbrs in (order[u] + order[u][:1], order[u][:-1] + order[u][:1]):
            with pytest.raises(ValueError, match="^the rotation has a repeated neighbor$"):
                Graph.from_rotation(order[:u] + [nbrs] + order[u + 1:])

    def test_keeps_the_rotation_it_checked(self):
        order = build_T(2, 1, check=False).rotation.order
        g = Graph.from_rotation(order)
        assert g.adjacency == order
        assert all(map(operator.is_, g.adjacency, order))  # tuple rows are not copied
        listed = Graph.from_rotation([list(row) for row in order])
        assert listed.adjacency == order
        assert not hasattr(Graph(2, [(0, 1)]), "rotation")

    def test_deferred_labels_checked_on_first_read(self):
        short = Graph.from_rotation(((1,), (0,)), lambda: ["a"])
        with pytest.raises(ValueError, match="length"):
            short.labels
        twice = Graph.from_rotation(((1,), (0,)), lambda: ["a", "a"])
        with pytest.raises(ValueError, match="unique"):
            twice.label_of(0)
        made = []
        g = Graph.from_rotation(((1,), (0,)), lambda: made.append(1) or ["a", "b"])
        assert made == []
        assert g.label_of(1) == "b" and g.labels == ("a", "b") and made == [1]


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

    @given(dense_graphs())
    def test_dense_graphs_match_networkx(self, g):
        # most edges here share a neighbor, so the intersecting path runs
        G = nx.Graph()
        G.add_nodes_from(range(g.vertex_count))
        G.add_edges_from(g.edges)
        assert triangle_count(g) == sum(nx.triangles(G).values()) // 3


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
        assert sub.adjacency == Graph(sub.vertex_count, sub.edges).adjacency
