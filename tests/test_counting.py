import itertools
import math
import random
from collections import Counter
import tracemalloc
from types import MappingProxyType

import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from deadline import deadline
from threecolor import (
    build_P,
    build_T,
    count_colorings_bruteforce,
    count_extensions,
    gadget_pair_counts,
    inner_subgraph,
    iter_colorings,
    lemma2_classify,
    path_pair_counts,
    total_colorings,
    vertex_count_closed_form,
)
from threecolor import counting, gadgets
from threecolor.bounds import lemma3_bound
from threecolor.counting import (
    MAX_FREE_VERTICES,
    _TOOM_BITS,
    BitBudgetExceededError,
    BruteForceCutoffError,
    PairCounts,
    _frame_levels,
    _path_interior_transfer,
    _square,
    inner_count_bits,
    inner_subgraph_pair_counts,
    predicted_count_bits,
)
from threecolor.gadgets import Gadget
from threecolor.graphs import Graph, TerminalGraph

from frame_polynomial import (
    FRAME_PATTERNS_DIFF,
    FRAME_PATTERNS_SAME,
    frame_combine,
    frame_combine_patterns,
)
from graph_strategies import graphs_with_partial_colorings, small_graphs

# Fibonacci-like growth of the distinct-terminal transfer values, frozen
# from exhaustive enumeration.
FAN_DIFF_COUNTS = {1: 2, 2: 3, 3: 5, 4: 8, 5: 13, 6: 21, 7: 34, 8: 55,
                   9: 89, 10: 144, 11: 233, 12: 377}


def product_filter_colorings(g: Graph, fixed=None):
    """Independent oracle: filter all 3^n assignments."""
    fixed = dict(fixed or {})
    free = [v for v in range(g.vertex_count) if v not in fixed]
    for combo in itertools.product((1, 2, 3), repeat=len(free)):
        col = dict(fixed)
        col.update(zip(free, combo))
        if all(col[a] != col[b] for a, b in g.edges):
            yield col


def product_filter_count(g: Graph, fixed=None) -> int:
    return sum(1 for _ in product_filter_colorings(g, fixed))


class TestBruteForce:
    def test_path_on_four_vertices(self):
        g = Graph(4, [(0, 1), (1, 2), (2, 3)])
        assert count_colorings_bruteforce(g) == 24  # 3 * 2^3

    def test_fan_b5(self):
        assert count_colorings_bruteforce(build_P(5).graph) == 84

    def test_worked_gadget(self):
        assert count_colorings_bruteforce(build_T(1, 1).graph) == 1056

    def test_cutoff_override(self):
        # No vertex cutoff: `force` is accepted and ignored, as perfbench passes it.
        g = Graph(21, [(i, i + 1) for i in range(20)])
        for force in (False, True):
            assert count_colorings_bruteforce(g, force=force) == 3 * 2 ** 20

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
        (1, {0: 1.0}, "invalid color"),
        (1, {0: True}, "invalid color"),
    ], ids=["color", "negative-vertex", "vertex-past-end", "invalid-on-edge", "float", "bool"])
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

    # A fixed vertex after a free neighbor; two fixed neighbors that clash; a
    # path whose vertices 1 and 2 each take the slot their left neighbor frees.
    @example((Graph(3, [(0, 1), (1, 2)]), {2: 1}))
    @example((Graph(4, [(0, 1), (1, 2), (2, 3)]), {1: 2, 2: 2}))
    @example((Graph(4, [(0, 1), (1, 2), (2, 3)]), {}))
    @given(graphs_with_partial_colorings())
    def test_routes_match_product_filter_with_fixed_vertices(self, case):
        g, fixed = case
        expected = sorted(tuple(sorted(c.items())) for c in product_filter_colorings(g, fixed))
        yielded = sorted(tuple(sorted(c.items())) for c in iter_colorings(g, fixed))
        assert yielded == expected
        assert count_colorings_bruteforce(g, fixed) == len(expected)
        # The product runs over the free vertices in index order, as the walk does.
        assert list(iter_colorings(g, fixed)) == list(product_filter_colorings(g, fixed))

    def test_free_vertex_limit(self):
        equal = {0: 1, 1: 1}
        at = build_P(MAX_FREE_VERTICES, check=False).graph
        assert count_colorings_bruteforce(at, equal) == 2
        assert len(list(iter_colorings(at, equal))) == 2
        over = build_P(MAX_FREE_VERTICES + 1, check=False).graph
        message = f"{MAX_FREE_VERTICES + 1} free vertices exceed the limit of {MAX_FREE_VERTICES}"
        with pytest.raises(ValueError, match=message):
            count_colorings_bruteforce(over, equal)
        with pytest.raises(ValueError, match=message):
            next(iter_colorings(over, equal))
        # Clashing fixed neighbors leave nothing to backtrack over.
        assert count_colorings_bruteforce(over, {0: 1, 2: 1}) == 0
        assert list(iter_colorings(over, {0: 1, 2: 1})) == []

    def test_iter_colorings_yields_each_once(self):
        g = build_P(3).graph
        seen = [tuple(sorted(c.items())) for c in iter_colorings(g)]
        assert len(seen) == len(set(seen)) == count_colorings_bruteforce(g)


def tail_case(pattern, free, placement, seed):
    """A graph whose last min(3, free) free vertices carry the edges among
    them selected by the bits of `pattern`, with two fixed vertices placed
    before, between or after those vertices, and seeded random edges from
    them to every other vertex and among the earlier free ones."""
    t = min(3, free)
    head = [("h", i) for i in range(free - t)]
    tail = [("t", j) for j in range(t)]
    fixed = [("f", 0), ("f", 1)]
    if placement == "before":
        layout = fixed[:1] + head + fixed[1:] + tail
    elif placement == "between":
        layout = head + tail[:1] + fixed[:1] + tail[1:2] + fixed[1:] + tail[2:]
    else:
        layout = head + tail + fixed
    index = {name: i for i, name in enumerate(layout)}
    rng = random.Random(f"{pattern}-{free}-{placement}-{seed}")
    edges = {(index[tail[a]], index[tail[b]])
             for p, (a, b) in enumerate(((0, 1), (0, 2), (1, 2)))
             if pattern >> p & 1 and b < t}
    for x in tail:
        edges.update((index[x], index[y]) for y in head + fixed if rng.random() < 0.6)
    for x, y in itertools.combinations(head, 2):
        if rng.random() < 0.5:
            edges.add((index[x], index[y]))
    g = Graph(len(layout), {tuple(sorted(e)) for e in edges})
    return g, {index[f]: rng.choice((1, 2, 3)) for f in fixed}


class TestTail:
    @pytest.mark.parametrize("placement", ["before", "between", "after"])
    @pytest.mark.parametrize("free", range(6))
    @pytest.mark.parametrize("pattern", range(8))
    def test_tail_patterns_match_both_routes(self, pattern, free, placement):
        for seed in range(4):
            g, fixed = tail_case(pattern, free, placement, seed)
            expected = product_filter_count(g, fixed)
            assert count_colorings_bruteforce(g, fixed) == expected
            assert len(list(iter_colorings(g, fixed))) == expected

    @pytest.mark.parametrize("t,pattern", [(0, 0), (1, 0), (2, 0), (2, 1)]
                             + [(3, p) for p in range(8)])
    def test_tables_match_product_filter(self, t, pattern):
        # The last t levels under every choice of colors that earlier fixed
        # vertices forbid: vertex 3 + j sees fixed vertex c - 1 (at color c)
        # when bit c - 1 of its mask is set.
        pairs = [(a, b) for p, (a, b) in enumerate(((0, 1), (0, 2), (1, 2)))
                 if pattern >> p & 1 and b < t]
        fixed = {0: 1, 1: 2, 2: 3}
        for key in range(8 ** t):
            masks = [key >> 3 * (t - 1 - j) & 7 for j in range(t)]
            edges = [(c, 3 + j) for j in range(t) for c in range(3) if masks[j] >> c & 1]
            g = Graph(3 + t, edges + [(3 + a, 3 + b) for a, b in pairs])
            assert count_colorings_bruteforce(g, fixed) == sum(
                all(not masks[j] & 1 << (c[j] - 1) for j in range(t))
                and all(c[a] != c[b] for a, b in pairs)
                for c in itertools.product((1, 2, 3), repeat=t))


class TestStateLimit:
    @pytest.mark.parametrize("limit", [0, 30, 300])
    def test_a_small_limit_refuses_but_never_miscounts(self, limit, monkeypatch):
        monkeypatch.setattr(counting, "_MAX_CELLS", limit)
        cases = [tail_case(*case) for case in itertools.product(
            range(8), range(6), ("before", "between", "after"), range(4))]
        for k, ell in ((1, 1), (2, 1), (1, 2)):
            g = build_T(k, ell, check=False).graph
            pc = gadget_pair_counts(k, ell)
            cases += [(g, {0: 1, 1: 1}, pc.same), (g, {0: 1, 1: 2}, pc.diff)]
        outcomes = Counter()
        for g, fixed, *expected in cases:
            try:
                got = count_colorings_bruteforce(g, fixed)
            except BruteForceCutoffError as error:
                assert str(error) == (f"the search of {g.vertex_count} vertices may make"
                                      f" more than {limit} frontier cells")
                outcomes["refused"] += 1
            else:
                assert got == (expected[0] if expected else product_filter_count(g, fixed))
                outcomes["counted"] += 1
        # Even at limit 0 the tail cases with no free vertex count.
        assert outcomes["refused"] > 0 and outcomes["counted"] > 0

    def test_levels_with_equal_frontier_colors_keep_their_own_counts(self):
        # On the path 0-1-2-3 levels 1, 2 and 3 each see one earlier vertex,
        # and the completions from them are 8, 4 and 2.  With 0 at color 1
        # and 1 at color 2, level 3 is counted with 2 at color 3; with 1 at
        # color 3 next, level 2 is reached with the same frontier colors.
        g = Graph(4, [(0, 1), (1, 2), (2, 3)])
        assert count_colorings_bruteforce(g) == 24
        assert count_colorings_bruteforce(g, {0: 1}) == 8

    def test_limit_bounds_the_states_held(self, monkeypatch):
        # Seven free vertices that all see only a last, shared neighbor: every
        # partial coloring is its own frontier coloring, 3^7 = 2,187 at the
        # last level.  Level j extends 3^j states of a frontier j wide, so the
        # levels charge the sum of 3 * 3^j * (j + 1) over j < 8, 73,812 cells.
        g = Graph(8, [(i, 7) for i in range(7)])

        def peak_bytes():
            tracemalloc.start()
            try:
                assert count_colorings_bruteforce(g) == 3 * 2 ** 7
                return tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()

        assert peak_bytes() > 128 * 1024
        monkeypatch.setattr(counting, "_MAX_CELLS", 73812)
        assert count_colorings_bruteforce(g) == 3 * 2 ** 7
        monkeypatch.setattr(counting, "_MAX_CELLS", 73811)
        with pytest.raises(BruteForceCutoffError):
            count_colorings_bruteforce(g)
        monkeypatch.setattr(counting, "_MAX_CELLS", 40)
        tracemalloc.start()
        try:
            with pytest.raises(BruteForceCutoffError):
                count_colorings_bruteforce(g)
            assert tracemalloc.get_traced_memory()[1] < 16 * 1024
        finally:
            tracemalloc.stop()

    def test_limit_charges_the_width_of_the_frontier(self, monkeypatch):
        # Terminals 0 and 1 at colors 1 and 2 force m = 88 vertices to color 3,
        # and a last vertex sees those and 8 free ones, so the frontier grows
        # 96 wide while it holds only 3^8 = 6,561 colorings.  The last vertex
        # takes color 1 or 2, and the 8 free ones each the other two colors.
        m, n = 88, 99
        g = Graph(n, [(t, v) for v in range(2, 2 + m) for t in (0, 1)]
                  + [(v, n - 1) for v in range(2, n - 1)])
        fixed = {0: 1, 1: 2}
        # The forced levels extend one state each, of widths 0..87; free level
        # j extends 3^j states 88 + j wide, and the last level 3^8, 96 wide.
        cells = (sum(3 * (w + 1) for w in range(m))
                 + sum(3 * 3 ** j * (m + j + 1) for j in range(9)))
        assert cells == 2_860_731
        monkeypatch.setattr(counting, "_MAX_CELLS", cells)
        assert count_colorings_bruteforce(g, fixed) == 2 * 2 ** 8
        monkeypatch.setattr(counting, "_MAX_CELLS", cells - 1)
        with pytest.raises(BruteForceCutoffError):
            count_colorings_bruteforce(g, fixed)
        # A charge of 3 per state, under this limit, still built the last free
        # level (a 7.09 MiB tracemalloc peak); the cells stop at 27 states.
        monkeypatch.setattr(counting, "_MAX_CELLS", 2 ** 14)
        tracemalloc.start()
        try:
            with pytest.raises(BruteForceCutoffError):
                count_colorings_bruteforce(g, fixed)
            assert tracemalloc.get_traced_memory()[1] < 256 * 1024
        finally:
            tracemalloc.stop()

    def test_colorings_walk_of_a_graph_with_no_coloring_yields_nothing(self, monkeypatch):
        # The pass answers 0, so the walk takes no step: with twelve isolated
        # vertices before a K4 a walk over partial colorings would meet 3^12
        # dead ends at the K4.
        with deadline(1):
            assert list(iter_colorings(
                Graph(16, list(itertools.combinations(range(12, 16), 2))))) == []
        # Two isolated vertices before a K4: the pass charges 3 cells at each
        # isolated vertex and 3, 18, 54 and 72 at the K4's, 153 in all.
        isolated_then_k4 = Graph(6, list(itertools.combinations(range(2, 6), 2)))
        monkeypatch.setattr(counting, "_MAX_CELLS", 153)
        assert list(iter_colorings(isolated_then_k4)) == []
        monkeypatch.setattr(counting, "_MAX_CELLS", 152)
        with pytest.raises(BruteForceCutoffError,
                           match="^the search of 6 vertices may make more than 152 frontier cells$"):
            list(iter_colorings(isolated_then_k4))

    def test_colorings_walk_lists_under_the_pass_charge(self, monkeypatch):
        # Vertex 0 must take color 3: late vertex a is pinned to color 1 by
        # fixed neighbors q and t, and late vertex b to color 2 by p and t,
        # past m isolated vertices.  The pass charges 3 cells at vertex 0, 18
        # at each isolated vertex and at a, and 12 at b, where 0 has two
        # colors left; the walk lists the 3^m colorings with no step limit.
        m = 4
        a, b, p, q, t = range(m + 1, m + 6)
        g = Graph(m + 6, [(0, a), (0, b), (a, q), (a, t), (b, p), (b, t)])
        fixed = {p: 1, q: 2, t: 3}
        cells = 3 + 18 * (m + 1) + 12
        assert cells == 105
        monkeypatch.setattr(counting, "_MAX_CELLS", cells)
        colorings = list(iter_colorings(g, fixed))
        assert len(colorings) == count_colorings_bruteforce(g, fixed) == 3 ** m
        assert {(c[0], c[a], c[b]) for c in colorings} == {(3, 1, 2)}
        monkeypatch.setattr(counting, "_MAX_CELLS", cells - 1)
        message = f"^the search of {m + 6} vertices may make more than {cells - 1} frontier cells$"
        with pytest.raises(BruteForceCutoffError, match=message):
            next(iter_colorings(g, fixed))

    def test_coloring_behind_many_dead_ends_lists_at_once(self):
        # As above, a and b leave vertex 0 only color 3, but the m vertices
        # between see 0 and a fixed vertex at color 1: with 0 at color 1 each
        # has two colors, so a walk over partial colorings in index order
        # meets 2^m dead ends at a before it reaches 0's color 3, which forces
        # every one of them to color 2.  The pass holds at most 3 keys.
        m = 25
        a, b, p, q, t = range(m + 1, m + 6)
        g = Graph(m + 6, [(0, a), (0, b), (a, q), (a, t), (b, p), (b, t)]
                  + [(y, z) for y in range(1, m + 1) for z in (0, p)])
        fixed = {p: 1, q: 2, t: 3}
        assert 2 ** m > 2 ** 24
        with deadline(1):
            assert list(iter_colorings(g, fixed)) == [
                {0: 3, **dict.fromkeys(range(1, m + 1), 2), a: 1, b: 2, **fixed}]

    @pytest.mark.parametrize("limit", [0, 30, 300, 3000, counting._MAX_CELLS])
    def test_colorings_walk_is_refused_exactly_when_the_count_is(self, limit, monkeypatch):
        default = counting._MAX_CELLS
        monkeypatch.setattr(counting, "_MAX_CELLS", limit)
        cases = [tail_case(*case) for case in itertools.product(
            range(0, 8, 3), range(6), ("before", "between", "after"), range(2))]
        cases += [(build_T(1, 1, check=False).graph, fixed)
                  for fixed in ({0: 1, 1: 1}, {0: 1, 1: 2}, {})]
        cases.append((Graph(6, list(itertools.combinations(range(2, 6), 2))), {}))
        # Gadgets of 31 and 58 vertices, with 16, 25,544 and 8,192 colorings.
        cases += [(build_T(k, ell, check=False).graph, fixed)
                  for k, ell, fixed in ((3, 1, {0: 1, 1: 1}), (3, 1, {0: 1, 1: 2}),
                                        (2, 2, {0: 1, 1: 1}))]
        outcomes = Counter()
        for g, fixed in cases:
            try:
                count = count_colorings_bruteforce(g, fixed)
            except BruteForceCutoffError as error:
                with pytest.raises(BruteForceCutoffError) as listed:
                    next(iter_colorings(g, fixed))
                assert str(listed.value) == str(error)
                outcomes["refused"] += 1
            else:
                assert len(list(iter_colorings(g, fixed))) == count
                outcomes["listed"] += 1
        # Every case lists under the default limit; each smaller one refuses some.
        assert outcomes["listed"] > 0
        assert (outcomes["refused"] > 0) == (limit < default)

    def test_narrow_frontier_memory_follows_the_cells(self, monkeypatch):
        # K_{1,15} with the centre last: leaf j extends 3^j keys of j colors,
        # so under 2^18 cells the pass builds 3^9 keys and is refused at the
        # tenth leaf.  A key packed into one int keeps the peak at 1.66 MiB
        # (tracemalloc, CPython 3.11); a tuple per key reached 3.60 MiB.
        star = Graph(16, [(i, 15) for i in range(15)])
        monkeypatch.setattr(counting, "_MAX_CELLS", 2 ** 18)
        tracemalloc.start()
        try:
            with pytest.raises(BruteForceCutoffError):
                count_colorings_bruteforce(star)
            assert tracemalloc.get_traced_memory()[1] < 2.5 * 1024 * 1024
        finally:
            tracemalloc.stop()

    def test_forced_gadget_counts_match_the_dp(self):
        # Every T(k, ell) with at most MAX_FREE_VERTICES free vertices once
        # both terminals are fixed, up to T(8, 1) with n = 775.
        gadgets = [build_T(k, ell, check=False) for k in range(1, 10) for ell in range(5)
                   if vertex_count_closed_form(k, ell) - 2 <= MAX_FREE_VERTICES]
        assert len(gadgets) == 29
        with deadline(10):
            for gadget in gadgets:
                pc = gadget_pair_counts(gadget.k, gadget.ell)
                g = gadget.graph
                assert count_colorings_bruteforce(g, {0: 1, 1: 1}) == pc.same
                assert count_colorings_bruteforce(g, {0: 1, 1: 2}) == pc.diff


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

    def test_counts_are_not_kept(self):
        """A sweep over a thousand fan sizes leaves no table of big integers."""
        tracemalloc.start()
        try:
            before = tracemalloc.get_traced_memory()[0]
            for b in range(10_000, 11_000):
                path_pair_counts(b)
            kept = tracemalloc.get_traced_memory()[0] - before
        finally:
            tracemalloc.stop()
        assert kept < 64 * 1024

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
                (cu, cv): _path_interior_transfer(b, cu, cv)
                for cu in (1, 2, 3)
                for cv in (1, 2, 3)
            }
            same = {v for (cu, cv), v in values.items() if cu == cv}
            diff = {v for (cu, cv), v in values.items() if cu != cv}
            assert same == {2}
            assert len(diff) == 1


COLOR_PAIRS = list(itertools.product((1, 2, 3), repeat=2))


class TestClosedFormsAgainstReferenceRoutes:
    """The closed forms on the hot path against the routes they replaced."""

    @pytest.mark.parametrize("cu,cv", COLOR_PAIRS)
    def test_fan_closed_form_matches_transfer(self, cu, cv):
        for b in range(1, 301):
            pc = path_pair_counts(b)
            assert (pc.same if cu == cv else pc.diff) == _path_interior_transfer(b, cu, cv)

    @pytest.mark.parametrize("b", range(1, 13))
    def test_fan_closed_form_matches_brute_force(self, b):
        g = build_P(b, check=False).graph
        pc = path_pair_counts(b)
        for cu, cv in COLOR_PAIRS:
            assert (pc.same if cu == cv else pc.diff) == \
                count_colorings_bruteforce(g, {0: cu, 1: cv})

    def test_transfer_keeps_the_argument_checks(self):
        with pytest.raises(ValueError, match="b must be"):
            _path_interior_transfer(0, 1, 2)
        with pytest.raises(ValueError, match="b must be"):
            path_pair_counts(0)
        with pytest.raises(ValueError, match="terminal colors"):
            _path_interior_transfer(3, 1, 4)

    @given(st.integers(min_value=0), st.integers(min_value=0))
    def test_frame_closed_form_matches_pattern_sum(self, s, d):
        child = PairCounts(s, d)
        assert frame_combine(child) == frame_combine_patterns(child)

    @pytest.mark.parametrize("ell", range(7))
    def test_inner_subgraph_counts_unchanged(self, ell):
        pc = PairCounts(1, 1)
        for _ in range(ell):
            pc = frame_combine_patterns(pc)
        assert inner_subgraph_pair_counts(ell) == pc

    @pytest.mark.parametrize("k,ell", [(k, ell) for k in range(1, 5) for ell in range(5)])
    def test_gadget_counts_match_reference_routes(self, k, ell):
        b = 2 ** k
        pc = PairCounts(_path_interior_transfer(b, 1, 1), _path_interior_transfer(b, 1, 2))
        for _ in range(ell):
            pc = frame_combine_patterns(pc)
        assert gadget_pair_counts(k, ell) == pc


class TestPredictedCountBits:
    # Every T(k, ell) with k <= 8 and ell <= 13, all admitted by the default budget.
    @pytest.mark.parametrize("k,ell", [(k, ell) for k in range(1, 9) for ell in range(14)]
                             + [(1, 14)])
    def test_bounds_the_exact_bit_length(self, k, ell):
        exact = total_colorings(gadget_pair_counts(k, ell)).bit_length()
        assert exact <= predicted_count_bits(k, ell)
        assert exact < 1000 or predicted_count_bits(k, ell) <= 1.02 * exact

    def test_worked_instance_is_exact(self):
        # r = F(4) = 3: 4 + 2 + 2 * log2(5) = 10.64 rounds up to c(T(1,1)) = 1056's 11 bits.
        assert predicted_count_bits(1, 1) == 11

    def test_admits_the_largest_level_under_the_default_budget(self):
        # c(T(1,14)) has 7,211,279 bits; the default budget is 10^7.
        assert 7_211_279 <= predicted_count_bits(1, 14) < 10 ** 7

    def test_huge_arguments_stay_cheap(self):
        assert predicted_count_bits(40, 0) > 7e11     # D = F(2^40 + 2)
        assert predicted_count_bits(5000, 3) == float("inf")
        assert predicted_count_bits(1, 10 ** 9) == float("inf")

    def test_domain_guards(self):
        with pytest.raises(ValueError, match="k must be"):
            predicted_count_bits(0, 1)
        with pytest.raises(ValueError, match="ell must be"):
            predicted_count_bits(1, -1)


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


def _ints_of(bits: int, seed: int) -> int:
    """A random integer of exactly `bits` bits."""
    return random.Random(seed).getrandbits(bits) | 1 << bits - 1 if bits else 0


# Deep enough that the Toom-3 split recurses three levels below the top.
DEEP = _ints_of(27 * _TOOM_BITS + 5, 1)


# (k, ell) for ell <= 13 and k in {1, 2, choose_k(ell)}: the report's rows
# and the two smallest fans at every level.
RATIO_CASES = sorted({(k, ell) for ell in range(14) for k in (1, 2, gadgets.choose_k(ell))})


@pytest.fixture(scope="module")
def frame_combine_chains():
    """frame_combine iterated from each base, one chain per start: the fans
    P(2^k) for the gadgets and S = D = 1 for the inner subgraph (key None)."""
    chains = {}
    for start in sorted({k for k, _ in RATIO_CASES}) + [None]:
        pc = PairCounts(1, 1) if start is None else path_pair_counts(2 ** start)
        chain = [pc]
        for _ in range(max(ell for k, ell in RATIO_CASES if k == start or start is None)):
            pc = frame_combine(pc)
            chain.append(pc)
        chains[start] = chain
    return chains


def _ratio(pc: PairCounts) -> tuple[int, int]:
    """(e, r) with S = 2^e and r = 2D/S, asserting that both are exact."""
    e = pc.same.bit_length() - 1
    assert pc.same == 1 << e
    r = (2 * pc.diff) >> e
    assert r << e == 2 * pc.diff
    return e, r


class TestRatioForm:
    """The levels run on (e, r), S = 2^e and r = 2D/S, against `frame_combine`."""

    @pytest.mark.parametrize("k,ell", RATIO_CASES)
    def test_gadget_matches_iterated_frame_combine(self, k, ell, frame_combine_chains):
        assert gadget_pair_counts(k, ell) == frame_combine_chains[k][ell]

    @pytest.mark.parametrize("ell", range(14))
    def test_inner_matches_iterated_frame_combine(self, ell, frame_combine_chains):
        assert inner_subgraph_pair_counts(ell) == frame_combine_chains[None][ell]

    @given(st.integers(min_value=1, max_value=300), st.integers(min_value=0, max_value=2 ** 400))
    @example(1, 0)
    @example(1, 3)
    def test_one_ratio_step_is_one_frame_combine(self, e, r):
        assert _frame_levels(e, r, 1) == frame_combine(PairCounts(2 ** e, r << (e - 1)))

    @given(st.integers(min_value=1, max_value=300), st.builds(
        _ints_of, st.integers(min_value=_TOOM_BITS, max_value=4 * _TOOM_BITS),
        st.integers(0, 2 ** 32)))
    def test_one_ratio_step_on_a_large_r_is_one_frame_combine(self, e, r):
        # r above the Toom-3 cutoff, so the step squares it by `_square`.
        assert _frame_levels(e, r, 1) == frame_combine(PairCounts(2 ** e, r << (e - 1)))

    def test_the_largest_row_squares_past_three_toom_splits(self, frame_combine_chains):
        # A cutoff raised past this would leave `_square`'s recursion
        # untested by the rows.
        widest = max(_ratio(frame_combine_chains[k][ell - 1])[1].bit_length()
                     for k, ell in RATIO_CASES if ell)
        assert widest > 3 * _TOOM_BITS

    @pytest.mark.parametrize("k,ell", RATIO_CASES)
    def test_gadget_invariants(self, k, ell):
        pc = gadget_pair_counts(k, ell)
        e, r = _ratio(pc)
        assert e == (3 ** (ell + 1) - 1) // 2
        assert r % 2 == 1 or ell == 0
        assert total_colorings(pc) == 3 * 2 ** e * (r + 1)

    @pytest.mark.parametrize("ell", range(14))
    def test_inner_invariants(self, ell):
        pc = inner_subgraph_pair_counts(ell)
        e, r = _ratio(pc)
        assert e == (3 ** ell - 1) // 2
        assert r % 2 == 1 or ell == 0
        assert total_colorings(pc) == 3 * 2 ** e * (r + 1)


class TestSquare:
    """`_square` is x * x, by Toom-3 from `_TOOM_BITS` bits on."""

    @given(st.builds(lambda n, seed, sign: sign * _ints_of(n, seed),
                     st.integers(min_value=0, max_value=4 * _TOOM_BITS),
                     st.integers(0, 2 ** 32), st.sampled_from((1, -1))))
    @example(0)
    @example(1)
    @example(-1)
    @example(2 ** (_TOOM_BITS - 1))
    @example(2 ** (_TOOM_BITS - 1) - 1)
    @example(2 ** _TOOM_BITS)
    @example(2 ** _TOOM_BITS - 1)
    @example(2 ** (_TOOM_BITS + 1) - 1)
    @example(-(2 ** (3 * _TOOM_BITS) - 1))
    @example(2 ** (3 * _TOOM_BITS + 1) - 1)  # sizes not a multiple of 3
    @example(-_ints_of(3 * _TOOM_BITS + 2, 2))
    @example(_ints_of(10 * _TOOM_BITS + 1, 3))
    @example(DEEP)
    def test_square_is_the_product(self, x):
        assert _square(x) == x * x

    def test_deep_example_recurses_three_levels(self, monkeypatch):
        # Three levels of splits make at least 1 + 5 + 25 + 125 calls; two
        # make at most 31.
        square, calls = counting._square, []
        monkeypatch.setattr(counting, "_square", lambda x: calls.append(x) or square(x))
        assert counting._square(-DEEP) == DEEP * DEEP
        assert len(calls) >= 156

    def test_it_splits_from_the_cutoff_on(self, monkeypatch):
        square, calls = counting._square, []
        monkeypatch.setattr(counting, "_square", lambda x: calls.append(x) or square(x))
        x = 2 ** _TOOM_BITS - 1
        assert counting._square(x >> 1) == (x >> 1) ** 2
        assert len(calls) == 1
        assert counting._square(x) == x * x
        assert len(calls) == 1 + 1 + 5


class TestRatioStepIdentity:
    """One ratio step equals the sum over the 13 frame colorings, as a
    polynomial identity in (S, D).  From S = 2^e and r = 2D/S, the step
    gives S' = 2S^3 and D' = S^3 q(2D/S) with q(r) = r^2 + 3r + 3 quadratic,
    so each side has degree <= 3 in S and <= 2 in D; so does the pattern
    sum, since each pattern contributes S^j D^(3-j) with j >= 1 equal child
    pairs.  Two such polynomials that agree on a 4 x 3 grid are equal, so
    the step holds for every (S, D), not only at the grid."""

    GRID_S = (1, 2, 4, 8)  # S = 2^e for e = 0..3
    GRID_D = (4, 8, 12)    # r = 2D/S is an integer for every S above

    def test_each_pattern_has_an_equal_child_pair(self):
        assert all(sum(p) >= 1 for p in FRAME_PATTERNS_DIFF)
        assert all(sum(p) == 3 for p in FRAME_PATTERNS_SAME)

    def test_ratio_step_is_the_pattern_sum_on_the_grid(self):
        for s in self.GRID_S:
            e = s.bit_length() - 1
            for d in self.GRID_D:
                assert _frame_levels(e, 2 * d // s, 1) == frame_combine_patterns(
                    PairCounts(s, d))


class TestGadgetPairCountsBudget:
    def test_over_budget_refused_before_any_count(self, monkeypatch):
        def never(*args):
            raise AssertionError("computed a count over the budget")

        monkeypatch.setattr(counting, "path_pair_counts", never)
        monkeypatch.setattr(counting, "_frame_levels", never)
        tracemalloc.start()
        try:
            with pytest.raises(BitBudgetExceededError, match="over the budget of 10000000"):
                gadget_pair_counts(1, 30)      # about 3^31/2 bits
            with pytest.raises(BitBudgetExceededError, match=r"T\(40,0\) may need up to"):
                gadget_pair_counts(40, 0)      # D = F(2^40 + 2)
            with pytest.raises(BitBudgetExceededError, match="over the budget of 1000$"):
                gadget_pair_counts(1, 14, bit_budget=1000)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 64 * 1024

    def test_budget_compares_with_the_prediction(self):
        # predicted_count_bits(1, 1) is 11, the bit length of c = 1056.
        with pytest.raises(BitBudgetExceededError, match="up to 11 bits, over the budget of 10$"):
            gadget_pair_counts(1, 1, bit_budget=10)
        assert gadget_pair_counts(1, 1, bit_budget=11) == PairCounts(16, 168)

    def test_domain_checked_before_the_budget(self):
        with pytest.raises(ValueError, match="k must be"):
            gadget_pair_counts(0, 1, bit_budget=0)


class TestFanAndInnerBudgets:
    def test_fan_refused_before_fibonacci(self, monkeypatch):
        # F(102) has 70 bits; below b + 2 = 128 the bound is read off F itself.
        with pytest.raises(BitBudgetExceededError, match="69.65 bits, over the budget of 69$"):
            path_pair_counts(100, bit_budget=69)
        assert path_pair_counts(100, bit_budget=70).diff.bit_length() == 70

        def never(*args):
            raise AssertionError("computed a count over the budget")

        monkeypatch.setattr(counting, "_fibonacci", never)
        with deadline(5):
            with pytest.raises(BitBudgetExceededError, match="over the budget of 10000000$"):
                path_pair_counts(2 ** 40)      # D = F(2^40 + 2)
            with pytest.raises(BitBudgetExceededError, match="inf bits"):
                path_pair_counts(10 ** 400)

    def test_inner_refused_before_any_level(self, monkeypatch):
        def never(*args):
            raise AssertionError("computed a count over the budget")

        monkeypatch.setattr(counting, "_frame_levels", never)
        with deadline(5):
            with pytest.raises(BitBudgetExceededError, match=r"V_30 subgraph.*10000000$"):
                inner_subgraph_pair_counts(30)  # about 3^30/2 bits
            with pytest.raises(BitBudgetExceededError, match="inf bits"):
                inner_subgraph_pair_counts(10 ** 9)
            with pytest.raises(BitBudgetExceededError, match="over the budget of 6$"):
                inner_subgraph_pair_counts(1, bit_budget=6)

    def test_budgets_bound_the_exact_bit_lengths(self):
        for b in range(1, 400):
            bits = path_pair_counts(b).diff.bit_length()
            assert bits <= math.ceil(counting._fan_log2(b)) <= bits + 1
            assert path_pair_counts(b, bit_budget=bits + 1).diff.bit_length() == bits
        for ell in range(16):
            bits = total_colorings(inner_subgraph_pair_counts(ell, bit_budget=10 ** 8)).bit_length()
            assert bits <= inner_count_bits(ell) <= bits * 1.01 + 2
            assert bits < 1000 or inner_count_bits(ell) <= 1.02 * bits
            assert inner_count_bits(ell) == (3 ** ell - 1) // 2 + 2 ** (ell + 1) + 2
        assert inner_count_bits(0) == 4 and inner_count_bits(1) == 7  # 9 and 84
        assert inner_subgraph_pair_counts(1, bit_budget=7) == PairCounts(2, 13)

    def test_callers_check_larger_bounds_first(self):
        # theorem_chain_check refuses past 2^E first, E its eq3 exponent, so
        # the budget it passes on never refuses what it accepts.
        for ell in range(1, 40):
            k = gadgets.choose_k(ell)
            exponent = 2 ** (k + ell) + 4 * 3 ** ell
            assert inner_count_bits(ell) < exponent + 1
            assert predicted_count_bits(k, ell) < exponent + 1


class TestInnerSubgraphCounts:
    def test_ell1_is_the_fan_frame(self):
        assert total_colorings(inner_subgraph_pair_counts(1)) == 84

    def test_ell2_frozen_and_oracle(self):
        pc = inner_subgraph_pair_counts(2)
        assert pc == PairCounts(16, 1688)
        assert total_colorings(pc) == 10176
        sub, _ = inner_subgraph(build_T(1, 2, check=False))
        assert count_colorings_bruteforce(sub) == 10176

    def test_labels_made_on_first_read_only(self, monkeypatch):
        expected = build_T(2, 2, check=False).graph.labels
        made = []
        real = gadgets._labels
        monkeypatch.setattr(gadgets, "_labels", lambda *a: made.append(a) or real(*a))
        sub, index_map = inner_subgraph(build_T(2, 2, check=False))
        assert made == []
        assert sub.labels == tuple(expected[old] for old in sorted(index_map))
        assert made == [(4, 2)]

    @pytest.mark.parametrize("ell", [1, 2])
    def test_independent_of_k(self, ell):
        sub1, _ = inner_subgraph(build_T(1, ell, check=False))
        sub2, _ = inner_subgraph(build_T(3, ell, check=False))
        assert sub1.edges == sub2.edges

    @pytest.mark.parametrize("ell", range(1, 9))
    def test_trivial_connected_bound(self, ell):
        total = total_colorings(inner_subgraph_pair_counts(ell))
        assert total <= 3 * 2 ** ((5 * 3 ** ell - 1) // 2 - 1)


def frame_equality_patterns(color_u, color_v):
    """The 3^5 assignments of v1..v5, filtered to proper colorings of
    P(u,v,5) with the terminals fixed, reduced to which of v1=v3, v2=v4,
    v3=v5 hold: a route that uses neither build_P nor iter_colorings."""
    patterns = []
    for a in itertools.product((1, 2, 3), repeat=5):
        if any(a[i] == a[i + 1] for i in range(4)):
            continue
        if color_u in (a[0], a[2], a[4]) or color_v in (a[1], a[3]):
            continue
        patterns.append((a[0] == a[2], a[1] == a[3], a[2] == a[4]))
    return patterns


class TestFrameColorings:
    """The one list of P(u,v,5)'s colorings against routes that build none of it."""

    def test_patterns_match_the_hand_written_filter(self):
        assert Counter(frame_equality_patterns(1, 1)) == Counter(FRAME_PATTERNS_SAME)
        assert Counter(frame_equality_patterns(1, 2)) == Counter(FRAME_PATTERNS_DIFF)

    @pytest.mark.parametrize("frames", [1, 4, 13])
    def test_tables_list_the_colorings_of_the_fan(self, frames):
        tables, fib = counting._extension_tables(frames, 4)
        assert fib == 8  # F(6)
        fan = build_P(5, check=False).graph
        colorings = [tuple(col.values()) for col in product_filter_colorings(fan)]
        # v1=v3, v2=v4 and v3=v5: the child pairs of a bottom frame
        bottom = {c: (c[2] == c[4]) + (c[3] == c[5]) + (c[4] == c[6]) for c in colorings}
        upper = dict.fromkeys(colorings, 0)
        assert tables == (upper,) * (frames // 3) + (bottom,) * (frames - frames // 3)


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

    def test_first_improper_edge_named(self):
        with pytest.raises(ValueError) as exc:
            lemma2_classify({0: 1, 1: 1, 2: 2, 3: 2, 4: 1, 5: 2, 6: 1})
        assert str(exc.value) == "coloring is improper on edge (0,4)"


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
            count_extensions(1, 0, {0: 1, 1: 1}, gadget=build_T(1, 0))

    def test_improper_inner_coloring_rejected(self):
        g = build_T(1, 1, check=False)
        psi = {0: 3, 1: 3, 2: 1, 3: 1, 4: 1, 5: 2, 6: 1}  # v1 = v2
        with pytest.raises(ValueError, match="improper"):
            count_extensions(1, 1, psi, gadget=g)

    def test_partial_inner_coloring_rejected(self):
        g = build_T(1, 1, check=False)
        with pytest.raises(ValueError, match="total on the inner"):
            count_extensions(1, 1, {0: 1, 1: 2}, gadget=g)


def outcome(call):
    """A call's value, or the text of the ValueError it raises."""
    try:
        return call()
    except ValueError as exc:
        return str(exc)


def per_edge_rule(gadget, psi):
    """`count_extensions` by its definition, for a psi with at most one
    fault: the count, or the text of the error it must raise."""
    inner = gadget.registry.inner_set
    if set(psi) != inner:
        return "coloring must be total on the inner vertex set V_ell"
    for v, c in psi.items():
        if c not in (1, 2, 3):
            return f"vertex {v} assigned invalid color {c}"
    for a, b in gadget.graph.edges:
        if a in inner and b in inner and psi[a] == psi[b]:
            return f"coloring is improper on inner edge ({a},{b})"
    pairs = gadget.registry.pairs
    equal = sum(psi[x] == psi[y] for x, y in pairs)
    fib = _path_interior_transfer(gadget.registry.leaf_b, 1, 2)
    return 2 ** equal * fib ** (len(pairs) - equal)


def inner_colorings(gadget):
    """Yield every proper coloring of the inner set, keyed by gadget vertex."""
    sub, index_map = inner_subgraph(gadget)
    kept = sorted(index_map)
    for col in iter_colorings(sub):
        yield dict(zip(kept, col.values()))


def one_fault_coloring(gadget, a, b):
    """A coloring of the inner set, proper on every inner edge but (a, b),
    whose ends share color 1."""
    sub, index_map = inner_subgraph(gadget)
    cut = (index_map[a], index_map[b])
    g = Graph(sub.vertex_count, [e for e in sub.edges if e != cut])
    col = next(iter_colorings(g, dict.fromkeys(cut, 1)))
    return dict(zip(sorted(index_map), col.values()))


FRAMES_REFUSED = "the gadget's frames are not those of T(u,v,k,ell)"

# The edges of P(u,v,5) as positions in a frame (u, v, v1, ..., v5).
FRAME_EDGES = build_P(5, check=False).graph.edges


def frame_at(gadget, slot):
    """The frame (u, v, v1, ..., v5) of the level-1 child in `slot` of T(k,2),
    found by its labels; slot 0 is the top frame."""
    if slot == 0:
        return tuple(range(7))
    labels = gadget.graph.labels
    return (slot + 1, slot + 3, *(labels.index(f"T{slot}.v{i}") for i in range(1, 6)))


class TestCountExtensionsByFrames:
    @pytest.mark.parametrize("k,ell", [(1, 1), (2, 1), (1, 2), (2, 2), (3, 3)])
    def test_built_gadgets_pass_the_layout_check(self, k, ell):
        flat = build_T(k, ell, check=False).checked_frames
        assert len(flat) == 7 * (3 ** ell - 1) // 2

    def test_fans_have_no_frames(self):
        assert build_T(2, 0, check=False).checked_frames is None
        assert build_P(5, check=False).checked_frames is None

    @pytest.mark.parametrize("k,ell", [(1, 2), (2, 2)])
    def test_sample_matches_oracle(self, k, ell):
        g = build_T(k, ell, check=False)
        for psi in random.Random(k).sample(list(inner_colorings(g)), 25):
            assert count_extensions(k, ell, psi, gadget=g) == \
                count_colorings_bruteforce(g.graph, psi)

    @pytest.mark.parametrize("bad", [0, 4, None, [1]])
    @pytest.mark.parametrize("vertex", [0, 4, 33])  # u, a shared v3, a leaf terminal
    def test_invalid_color(self, bad, vertex):
        g = build_T(1, 2, check=False)
        psi = next(inner_colorings(g))
        psi[vertex] = bad
        with pytest.raises(ValueError) as exc:
            count_extensions(1, 2, psi, gadget=g)
        assert str(exc.value) == f"vertex {vertex} assigned invalid color {bad}"

    def test_same_length_with_a_non_inner_key(self):
        g = build_T(1, 2, check=False)
        psi = next(inner_colorings(g))
        del psi[33]
        psi[g.graph.vertex_count - 1] = 1  # a leaf interior vertex
        assert len(psi) == len(g.registry.inner_set)
        with pytest.raises(ValueError) as exc:
            count_extensions(1, 2, psi, gadget=g)
        assert str(exc.value) == "coloring must be total on the inner vertex set V_ell"

    @pytest.mark.parametrize("i,j", FRAME_EDGES)
    @pytest.mark.parametrize("slot", [0, 2])  # the upper frame and a bottom one
    def test_improper_frame_edge(self, slot, i, j):
        g = build_T(1, 2, check=False)
        frame = frame_at(g, slot)
        a, b = frame[i], frame[j]
        psi = one_fault_coloring(g, a, b)
        with pytest.raises(ValueError) as exc:
            count_extensions(1, 2, psi, gadget=g)
        assert str(exc.value) == f"coloring is improper on inner edge ({a},{b})"
        assert per_edge_rule(g, psi) == str(exc.value)

    def test_other_mappings_count_as_their_dict(self):
        g = build_T(2, 2, check=False)
        psi = next(itertools.islice(inner_colorings(g), 5, None))
        assert count_extensions(2, 2, MappingProxyType(psi), gadget=g) == \
            count_extensions(2, 2, psi, gadget=g) == per_edge_rule(g, psi)
        bad = dict(psi)
        bad[4] = 7
        assert outcome(lambda: count_extensions(2, 2, MappingProxyType(bad), gadget=g)) == \
            per_edge_rule(g, bad)

        class Defaulting(dict):
            def __missing__(self, key):
                return 1

        partial = Defaulting(psi)
        del partial[max(psi)]
        partial[g.graph.vertex_count - 1] = 1  # the same length, with a leaf interior vertex
        assert outcome(lambda: count_extensions(2, 2, partial, gadget=g)) == \
            per_edge_rule(g, partial)

    @pytest.mark.parametrize("slot,i,j", [(0, 0, 2), (0, 4, 5), (3, 1, 5)])
    def test_gadget_missing_a_frame_edge(self, slot, i, j):
        built = build_T(1, 2, check=False)
        a, b = frame_at(built, slot)[i], frame_at(built, slot)[j]
        graph = Graph(built.graph.vertex_count, [e for e in built.graph.edges if e != (a, b)])
        g = Gadget(TerminalGraph(graph, 0, 1), 1, 2, built.registry, built.rotation)
        assert g.checked_frames is None
        cases = random.Random(slot).sample(list(inner_colorings(g)), 20)
        cases.append(one_fault_coloring(built, a, b))  # proper once (a, b) is gone
        for other in (0, 1, 2, 3):  # the same frame edge improper in each frame
            frame = frame_at(built, other)
            if (frame[i], frame[j]) != (a, b):
                cases.append(one_fault_coloring(built, frame[i], frame[j]))
        for psi in cases:  # refused, though some are proper on this graph
            assert outcome(lambda: count_extensions(1, 2, psi, gadget=g)) == FRAMES_REFUSED

    @pytest.mark.parametrize("i,j", [(0, 2), (3, 4)])  # u-v1 and the path edge v2-v3
    def test_gadget_missing_an_edge_in_every_frame(self, i, j):
        built = build_T(1, 2, check=False)
        cut = {(f[i], f[j]) for f in built.registry.frames}
        graph = Graph(built.graph.vertex_count, [e for e in built.graph.edges if e not in cut])
        g = Gadget(TerminalGraph(graph, 0, 1), 1, 2, built.registry, built.rotation)
        assert g.checked_frames is None  # its frames are not P(u,v,5)
        cases = random.Random(j).sample(list(inner_colorings(g)), 30)
        assert any(psi[a] == psi[b] for psi in cases for a, b in cut)
        for psi in cases:
            assert outcome(lambda: count_extensions(1, 2, psi, gadget=g)) == FRAMES_REFUSED
