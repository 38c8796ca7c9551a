import pytest

from threecolor import (
    build_P,
    build_T,
    choose_k,
    induced_subgraph,
    inner_set_size,
    triangle_count,
    vertex_count_closed_form,
)


class TestBuildP:
    def test_b1_smallest_fan(self):
        g = build_P(1)
        assert g.graph.vertex_count == 3
        assert g.graph.edges == {(0, 2)}  # u-v1 only; v isolated
        assert g.graph.labels == ("u", "v", "v1")

    def test_b5_frame(self):
        g = build_P(5)
        assert g.graph.vertex_count == 7
        assert g.graph.edge_count == 9  # 4 path edges + 3 from u + 2 from v
        # u adjacent to the odd path vertices, v to the even ones
        assert g.graph.adjacency[0] == (2, 4, 6)
        assert g.graph.adjacency[1] == (3, 5)
        assert not g.graph.has_edge(0, 1)

    @pytest.mark.parametrize("k", [1, 2, 3, 4, 5])
    def test_power_of_two_vertex_count(self, k):
        assert build_P(2 ** k, check=False).graph.vertex_count == 2 ** k + 2

    def test_b0_rejected(self):
        with pytest.raises(ValueError):
            build_P(0)

    @pytest.mark.parametrize("b", range(1, 11))
    def test_edge_count_and_registry(self, b):
        g = build_P(b, check=False)
        assert g.graph.edge_count == 2 * b - 1
        assert g.registry.pairs == ((0, 1),)
        assert g.registry.inner_set == frozenset({0, 1})
        assert g.registry.leaf_b == b
        assert (g.k, g.ell) == (None, None)


class TestBuildT:
    def test_k1_ell0_is_p2(self):
        g = build_T(1, 0)
        p = build_P(2)
        assert g.graph.vertex_count == 4
        assert g.graph.edges == p.graph.edges
        assert g.registry.pairs == ((0, 1),)
        assert len(g.registry.inner_set) == 2

    def test_k1_ell1_worked_instance(self):
        g = build_T(1, 1)
        assert g.graph.vertex_count == 13
        assert len(g.registry.pairs) == 3
        assert g.registry.pairs == ((2, 4), (3, 5), (4, 6))
        assert g.registry.inner_set == frozenset(range(7))
        assert (g.k, g.ell) == (1, 1)

    def test_k0_rejected(self):
        with pytest.raises(ValueError):
            build_T(0, 1)

    def test_negative_ell_rejected(self):
        with pytest.raises(ValueError):
            build_T(1, -1)

    @pytest.mark.parametrize("k,ell", [(1, 1), (2, 1), (1, 2), (2, 2), (3, 1), (1, 3)])
    def test_registry_shape(self, k, ell):
        g = build_T(k, ell, check=False)
        assert len(g.registry.pairs) == 3 ** ell
        assert len(g.registry.inner_set) == inner_set_size(ell)
        assert g.registry.leaf_b == 2 ** k
        inner = g.registry.inner_set
        assert all(x in inner and y in inner for x, y in g.registry.pairs)

    @pytest.mark.parametrize("k,ell", [(1, 1), (2, 1), (1, 2), (2, 2)])
    def test_leaf_interiors_partition(self, k, ell):
        """Removing V_ell leaves one path component of size 2^k per leaf
        pair, attached to exactly that pair."""
        g = build_T(k, ell, check=False)
        inner = g.registry.inner_set
        unassigned = {v for v in range(g.graph.vertex_count) if v not in inner}
        attachments = []
        while unassigned:
            stack = [unassigned.pop()]
            members = set(stack)
            touched = set()
            while stack:
                w = stack.pop()
                for z in g.graph.adjacency[w]:
                    if z in inner:
                        touched.add(z)
                    elif z not in members:
                        members.add(z)
                        unassigned.discard(z)
                        stack.append(z)
            assert len(members) == 2 ** k
            attachments.append(tuple(sorted(touched)))
        expected = sorted(tuple(sorted(p)) for p in g.registry.pairs)
        assert sorted(attachments) == expected

    def test_labels_encode_recursion_path(self):
        g = build_T(1, 2, check=False)
        labels = g.graph.labels
        assert labels[:7] == ("u", "v", "v1", "v2", "v3", "v4", "v5")
        assert "T1.v3" in labels and "T3.T2.v1" in labels

    @pytest.mark.parametrize("k,ell", [(1, 1), (2, 1), (3, 1)])
    def test_inner_set_induces_fan_frame(self, k, ell):
        """V_1 of any T(k,1) induces exactly the P(u,v,5) frame."""
        g = build_T(k, ell, check=False)
        sub, mapping = induced_subgraph(g.graph, g.registry.inner_set)
        assert sub.vertex_count == 7 and sub.edge_count == 9
        p5 = build_P(5, check=False)
        assert sub.edges == p5.graph.edges  # canonical numbering matches
        assert mapping[0] == 0 and mapping[1] == 1

    @pytest.mark.parametrize("k,ell", [(1, 0), (1, 1), (2, 1), (1, 2), (2, 2), (4, 1)])
    def test_triangle_free(self, k, ell):
        assert triangle_count(build_T(k, ell, check=False).graph) == 0


class TestClosedForms:
    def test_small_values(self):
        assert vertex_count_closed_form(1, 0) == 4
        assert vertex_count_closed_form(1, 1) == 13  # 3*4 + 1
        assert vertex_count_closed_form(2, 1) == 19

    @pytest.mark.parametrize("k", [1, 2, 3])
    def test_matches_recurrence(self, k):
        t = 2 ** k + 2
        for ell in range(0, 9):
            assert vertex_count_closed_form(k, ell) == t
            t = 3 * t + 1

    @pytest.mark.parametrize("k,ell", [(1, 1), (2, 2), (3, 3), (6, 8), (1, 12)])
    def test_eq1_lower_bound(self, k, ell):
        assert vertex_count_closed_form(k, ell) >= 3 ** ell * 2 ** k

    def test_inner_set_size_values(self):
        assert [inner_set_size(ell) for ell in range(4)] == [2, 7, 22, 67]

    def test_inner_set_size_recurrence_and_bound(self):
        a = 2
        for ell in range(0, 13):
            assert inner_set_size(ell) == a
            assert 2 * inner_set_size(ell) < 5 * 3 ** ell
            a = 3 * a + 1


class TestChooseK:
    def test_examples(self):
        assert choose_k(0) == 1  # formula gives 0, clamped to the k >= 1 domain
        assert choose_k(1) == 1
        assert choose_k(5) == 3

    @pytest.mark.parametrize("ell", range(0, 65))
    def test_window(self, ell):
        k = choose_k(ell)
        assert 3 ** ell <= 2 ** (k + ell) <= 2 * 3 ** ell

    @pytest.mark.parametrize("ell", range(1, 65))
    def test_minimality(self, ell):
        k = choose_k(ell)
        if k > 1:
            assert 2 ** (k - 1 + ell) < 3 ** ell
