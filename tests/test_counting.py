import itertools

import pytest
from hypothesis import given

from threecolor import (
    BruteForceCutoffError,
    Graph,
    PairCounts,
    build_P,
    build_T,
    count_colorings_bruteforce,
    count_extensions,
    gadget_pair_counts,
    inner_subgraph,
    inner_subgraph_pair_counts,
    iter_colorings,
    lemma2_classify,
    lemma3_bound,
    path_interior_count,
    path_pair_counts,
    total_colorings,
)

from graph_strategies import small_graphs

# Fibonacci-like growth of the distinct-terminal transfer values, frozen
# from exhaustive enumeration.
FAN_DIFF_COUNTS = {1: 2, 2: 3, 3: 5, 4: 8, 5: 13, 6: 21, 7: 34, 8: 55,
                   9: 89, 10: 144, 11: 233, 12: 377}


def product_filter_count(g: Graph, fixed=None) -> int:
    """Independent oracle: filter all 3^n assignments."""
    fixed = dict(fixed or {})
    free = [v for v in range(g.vertex_count) if v not in fixed]
    count = 0
    for combo in itertools.product((1, 2, 3), repeat=len(free)):
        col = dict(fixed)
        col.update(zip(free, combo))
        if all(col[a] != col[b] for a, b in g.edges):
            count += 1
    return count


class TestBruteForce:
    def test_path_on_four_vertices(self):
        g = Graph(4, [(0, 1), (1, 2), (2, 3)])
        assert count_colorings_bruteforce(g) == 24  # 3 * 2^3

    def test_fan_b5(self):
        assert count_colorings_bruteforce(build_P(5).graph) == 84

    def test_worked_gadget(self):
        assert count_colorings_bruteforce(build_T(1, 1).graph) == 1056

    def test_cutoff_enforced(self):
        g = build_T(3, 1, check=False).graph  # 31 vertices
        with pytest.raises(BruteForceCutoffError):
            count_colorings_bruteforce(g)

    def test_cutoff_override(self):
        g = Graph(21, [(i, i + 1) for i in range(20)])
        assert count_colorings_bruteforce(g, force=True) == 3 * 2 ** 20

    def test_conflicting_fixed_colors_count_zero(self):
        g = Graph(2, [(0, 1)])
        assert count_colorings_bruteforce(g, {0: 1, 1: 1}) == 0
        assert list(iter_colorings(g, {0: 1, 1: 1})) == []

    @pytest.mark.parametrize("route", [
        count_colorings_bruteforce,
        lambda g, fixed: list(iter_colorings(g, fixed)),
    ], ids=["count", "iter"])
    @pytest.mark.parametrize("n,fixed,message", [
        (1, {0: 7}, "invalid color"),
        (3, {-1: 1}, "out of range"),
        (3, {5: 1}, "out of range"),
        (3, {0: 7, 1: 7}, "invalid color"),  # 0-1 is an edge
    ], ids=["color", "negative-vertex", "vertex-past-end", "invalid-on-edge"])
    def test_invalid_fixed_color_rejected(self, n, fixed, message, route):
        g = Graph(n, [(i, i + 1) for i in range(n - 1)])
        with pytest.raises(ValueError, match=message):
            route(g, fixed)

    @given(small_graphs(max_n=7))
    def test_matches_product_filter(self, g):
        assert count_colorings_bruteforce(g) == product_filter_count(g)

    @given(small_graphs(min_n=2, max_n=7))
    def test_adding_an_edge_never_increases_count(self, g):
        base = count_colorings_bruteforce(g)
        for a in range(g.vertex_count):
            for b in range(a + 1, g.vertex_count):
                if not g.has_edge(a, b):
                    bigger = Graph(g.vertex_count, set(g.edges) | {(a, b)})
                    assert count_colorings_bruteforce(bigger) <= base
                    break

    def test_iter_colorings_yields_each_once(self):
        g = build_P(3).graph
        seen = [tuple(sorted(c.items())) for c in iter_colorings(g)]
        assert len(seen) == len(set(seen)) == count_colorings_bruteforce(g)


class TestPathPairCounts:
    @pytest.mark.parametrize("b,diff", sorted(FAN_DIFF_COUNTS.items()))
    def test_frozen_values(self, b, diff):
        pc = path_pair_counts(b)
        assert pc.same == 2
        assert pc.diff == diff

    @pytest.mark.parametrize("b", range(1, 9))
    def test_matches_oracle(self, b):
        g = build_P(b, check=False).graph
        assert path_pair_counts(b).same == product_filter_count(g, {0: 1, 1: 1})
        assert path_pair_counts(b).diff == product_filter_count(g, {0: 1, 1: 2})

    @pytest.mark.parametrize("b", range(1, 13))
    def test_total_via_symmetry_matches_oracle(self, b):
        g = build_P(b, check=False).graph
        assert total_colorings(path_pair_counts(b)) == count_colorings_bruteforce(g)

    def test_color_symmetry_classes(self):
        """What licenses the 3S + 6D expansion."""
        g = build_P(5).graph
        for cu, cv in ((1, 1), (2, 2), (3, 3)):
            assert product_filter_count(g, {0: cu, 1: cv}) == 2
        for cu, cv in ((1, 2), (2, 1), (1, 3), (3, 2)):
            assert product_filter_count(g, {0: cu, 1: cv}) == 13

    def test_interior_count_depends_only_on_equality(self):
        for b in (1, 2, 5, 6):
            values = {
                (cu, cv): path_interior_count(b, cu, cv)
                for cu in (1, 2, 3)
                for cv in (1, 2, 3)
            }
            same = {v for (cu, cv), v in values.items() if cu == cv}
            diff = {v for (cu, cv), v in values.items() if cu != cv}
            assert same == {2}
            assert len(diff) == 1


class TestGadgetPairCounts:
    def test_ell0_delegates_to_fan(self):
        assert gadget_pair_counts(1, 0) == PairCounts(2, 3)
        assert gadget_pair_counts(3, 0) == path_pair_counts(8)

    def test_worked_instance(self):
        pc = gadget_pair_counts(1, 1)
        assert pc == PairCounts(16, 168)
        assert total_colorings(pc) == 1056

    def test_frozen_larger_instances(self):
        assert gadget_pair_counts(2, 1) == PairCounts(16, 728)
        assert total_colorings(gadget_pair_counts(2, 1)) == 4416

    @pytest.mark.parametrize(
        "k,ell", [(1, 0), (2, 0), (3, 0), (4, 0), (1, 1), (2, 1)]
    )
    def test_oracle_equivalence_at_desk_scale(self, k, ell):
        g = build_T(k, ell, check=False)
        assert g.graph.vertex_count <= 20
        dp = total_colorings(gadget_pair_counts(k, ell))
        assert dp == count_colorings_bruteforce(g.graph)

    @pytest.mark.parametrize("k,ell", [(1, 1), (2, 1)])
    def test_pair_counts_match_oracle_directly(self, k, ell):
        g = build_T(k, ell, check=False)
        pc = gadget_pair_counts(k, ell)
        assert pc.same == count_colorings_bruteforce(g.graph, {0: 1, 1: 1})
        assert pc.diff == count_colorings_bruteforce(g.graph, {0: 1, 1: 2})

    def test_domain_guards(self):
        with pytest.raises(ValueError):
            gadget_pair_counts(0, 1)
        with pytest.raises(ValueError):
            gadget_pair_counts(1, -1)

    def test_total_colorings_expansion(self):
        assert total_colorings(PairCounts(2, 3)) == 24
        assert total_colorings(PairCounts(0, 0)) == 0
        assert total_colorings(PairCounts(16, 168)) == 1056


class TestInnerSubgraphCounts:
    def test_ell1_is_the_fan_frame(self):
        assert total_colorings(inner_subgraph_pair_counts(1)) == 84

    def test_ell2_frozen_and_oracle(self):
        pc = inner_subgraph_pair_counts(2)
        assert pc == PairCounts(16, 1688)
        assert total_colorings(pc) == 10176
        sub, _ = inner_subgraph(build_T(1, 2, check=False))
        assert count_colorings_bruteforce(sub, force=True) == 10176

    @pytest.mark.parametrize("ell", [1, 2])
    def test_independent_of_k(self, ell):
        sub1, _ = inner_subgraph(build_T(1, ell, check=False))
        sub2, _ = inner_subgraph(build_T(3, ell, check=False))
        assert sub1.edges == sub2.edges

    @pytest.mark.parametrize("ell", range(1, 9))
    def test_trivial_connected_bound(self, ell):
        total = total_colorings(inner_subgraph_pair_counts(ell))
        assert total <= 3 * 2 ** ((5 * 3 ** ell - 1) // 2 - 1)


class TestLemma2Classify:
    def test_alternating_coloring_all_equalities(self):
        verdict = lemma2_classify({0: 3, 1: 3, 2: 1, 3: 2, 4: 1, 5: 2, 6: 1})
        assert verdict.case_a_witness == frozenset({1, 2, 3})
        assert verdict.case_b_applies

    def test_distinct_terminals_example(self):
        verdict = lemma2_classify({0: 3, 1: 1, 2: 2, 3: 3, 4: 2, 5: 3, 6: 2})
        assert verdict.case_a_witness == frozenset({1, 2, 3})
        assert not verdict.case_b_applies

    def test_exhaustive_sweep(self):
        count = 0
        for psi in iter_colorings(build_P(5, check=False).graph):
            count += 1
            verdict = lemma2_classify(psi)
            assert verdict.case_a_witness  # claim (a)
            if psi[0] == psi[1]:
                assert verdict.case_a_witness == frozenset({1, 2, 3})
                assert psi[2] == psi[4] == psi[6] and psi[3] == psi[5]
        assert count == 84

    def test_partial_rejected(self):
        with pytest.raises(ValueError, match="partial"):
            lemma2_classify({0: 1, 1: 2})

    def test_improper_rejected(self):
        with pytest.raises(ValueError, match="improper"):
            lemma2_classify({0: 1, 1: 1, 2: 1, 3: 2, 4: 1, 5: 2, 6: 1})


class TestCountExtensions:
    def test_equal_terminal_colorings_extend_in_eight_ways(self):
        g = build_T(1, 1, check=False)
        psi = {0: 3, 1: 3, 2: 1, 3: 2, 4: 1, 5: 2, 6: 1}
        assert count_extensions(1, 1, psi, gadget=g) == 8  # 2 per leaf pair
        oracle = count_colorings_bruteforce(g.graph, psi)
        assert oracle == 8

    def test_matches_oracle_for_every_inner_coloring(self):
        g = build_T(1, 1, check=False)
        sub, index_map = inner_subgraph(g)
        back = {new: old for old, new in index_map.items()}
        for col in iter_colorings(sub):
            psi = {back[nv]: c for nv, c in col.items()}
            assert count_extensions(1, 1, psi, gadget=g) == \
                count_colorings_bruteforce(g.graph, psi)

    @pytest.mark.parametrize("k,ell", [(1, 1), (2, 1)])
    def test_bound_and_partition_identity(self, k, ell):
        g = build_T(k, ell, check=False)
        sub, index_map = inner_subgraph(g)
        back = {new: old for old, new in index_map.items()}
        bound = lemma3_bound(k, ell)
        sigma = 0
        for col in iter_colorings(sub):
            psi = {back[nv]: c for nv, c in col.items()}
            ext = count_extensions(k, ell, psi, gadget=g)
            assert ext <= bound
            sigma += ext
        assert sigma == total_colorings(gadget_pair_counts(k, ell))

    def test_mismatched_gadget_rejected(self):
        psi = {0: 3, 1: 3, 2: 1, 3: 2, 4: 1, 5: 2, 6: 1}
        for gadget in (build_T(2, 1, check=False), build_P(5, check=False)):
            with pytest.raises(ValueError, match="does not match"):
                count_extensions(1, 1, psi, gadget=gadget)

    def test_ell0_rejected(self):
        with pytest.raises(ValueError, match="ell >= 1"):
            count_extensions(1, 0, {0: 1, 1: 1})

    def test_improper_inner_coloring_rejected(self):
        g = build_T(1, 1, check=False)
        psi = {0: 3, 1: 3, 2: 1, 3: 1, 4: 1, 5: 2, 6: 1}  # v1 = v2
        with pytest.raises(ValueError, match="improper"):
            count_extensions(1, 1, psi, gadget=g)

    def test_partial_inner_coloring_rejected(self):
        g = build_T(1, 1, check=False)
        with pytest.raises(ValueError, match="total on the inner"):
            count_extensions(1, 1, {0: 1, 1: 2}, gadget=g)
