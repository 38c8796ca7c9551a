import gc
import itertools
import os
import pathlib
import re
import subprocess
import sys

import pytest

import threecolor
from splice_builder import build_reference
from threecolor import build_P, build_T, gadget_pair_counts, gadget_to_json, gadgets
from threecolor import vertex_count_closed_form
from threecolor.bounds import lemma3_bound
from threecolor.counting import inner_subgraph_pair_counts, predicted_count_bits
from threecolor.gadgets import choose_k, inner_set_size
from threecolor.graphs import induced_subgraph, triangle_count


class TestBuildP:
    def test_b1_smallest_fan(self):
        g = build_P(1)
        assert g.graph.vertex_count == 3
        assert g.graph.edges == ((0, 2),)  # u-v1 only; v isolated
        assert g.graph.labels == ("u", "v", "v1")

    def test_b5_frame(self):
        g = build_P(5)
        assert g.graph.vertex_count == 7
        assert g.graph.edge_count == 9  # 4 path edges + 3 from u + 2 from v
        # u adjacent to the odd path vertices, v to the even ones; the rows
        # are the rotation, so v's runs back down the path
        assert g.graph.adjacency[0] == (2, 4, 6)
        assert g.graph.adjacency[1] == (5, 3)
        assert tuple(sorted(g.graph.adjacency[1])) == (3, 5)
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


class TestWriter:
    """What the row writer leaves behind, and what it costs."""

    def test_building_leaves_no_reference_cycle(self):
        gc.collect()
        gc.disable()
        try:
            built = [build_T(3, 3), build_T(2, 2, check=False), build_T(4, 0),
                     build_P(1), build_P(6, check=False)]
            del built
            assert gc.collect() == 0
        finally:
            gc.enable()

    def test_rows_hold_one_int_object_per_vertex(self):
        g = build_T(3, 4, check=False).graph
        assert g.vertex_count == 850
        assert len({id(x) for row in g.adjacency for x in row}) == 850

    def test_checked_fan_with_long_rows_builds_in_linear_time(self):
        """T(17,0)'s terminals have 65,536 neighbors each: scanning a row for
        each dart into it would take minutes."""
        env = dict(os.environ, PYTHONPATH=str(pathlib.Path(threecolor.__file__).parents[1]))
        code = "from threecolor import build_T; print(build_T(17, 0).graph)"
        proc = subprocess.run([sys.executable, "-c", code], capture_output=True,
                              text=True, env=env, timeout=30)
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.strip() == "Graph(n=131074, m=262143)"


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


class TestRecordedFrames:
    """The frames the writer records, against the labels, which `_labels`
    makes by its own level-by-level replication."""

    @pytest.mark.parametrize("k,ell", [(k, ell) for k in (1, 2, 3) for ell in range(5)])
    def test_frames_match_labels(self, k, ell):
        g = build_T(k, ell, check=False)
        frames, labels, registry = g.registry.frames, g.graph.labels, g.registry
        assert len(frames) == (3 ** ell - 1) // 2
        assert frames[:1] == ((tuple(range(7)),) if ell else ())
        # Top level first, each level's frames in slot order: "", "T1.", ..., "T3.T3.".
        paths = [p for depth in range(ell) for p in itertools.product((1, 2, 3), repeat=depth)]
        for frame, path in zip(frames, paths):
            prefix = "".join(f"T{s}." for s in path)
            assert [labels[x] for x in frame[2:]] == [f"{prefix}v{i}" for i in range(1, 6)]
            # A child's terminals are its parent's v_s and v_(s+2).
            outer = "".join(f"T{s}." for s in path[:-1])
            ends = (f"{outer}v{path[-1]}", f"{outer}v{path[-1] + 2}") if path else ("u", "v")
            assert (labels[frame[0]], labels[frame[1]]) == ends
        # The inner set: every vertex but the leaf paths' own, whose labels are ell levels deep.
        outside = frozenset(x for x, name in enumerate(labels) if x < 2 or name.count(".") < ell)
        assert frozenset(itertools.chain((0, 1), *frames)) == registry.inner_set == outside
        bottom = frames[len(frames) // 3:]
        assert (tuple((f[i], f[i + 2]) for f in bottom for i in (2, 3, 4)) or ((0, 1),)) \
            == registry.pairs


# (leaf b, k, ell): every fan with b <= 12, every T(k, ell) with k, ell <= 4,
# and T(6, 2).  Fans carry no (k, ell).
ORACLE_CASES = (
    [(b, None, None) for b in range(1, 13)]
    + [(2 ** k, k, ell) for k in range(1, 5) for ell in range(5)]
    + [(64, 6, 2)]
)


class TestReplicationMatchesSplicing:
    """The level-by-level builder against the recursive splice builder."""

    @pytest.mark.parametrize("b, k, ell", ORACLE_CASES,
                             ids=lambda x: "-" if x is None else str(x))
    def test_byte_identical(self, b, k, ell):
        built = build_P(b) if k is None else build_T(k, ell)
        reference = build_reference(b, k, ell)
        assert built.rotation.order == reference.rotation.order
        assert built.graph.edges == reference.graph.edges
        assert built.graph.labels == reference.graph.labels
        assert built.registry == reference.registry
        assert (gadget_to_json(built, include_faces=True)
                == gadget_to_json(reference, include_faces=True))

    def test_labels_made_on_first_read_only(self, monkeypatch):
        made = []
        real = gadgets._labels
        monkeypatch.setattr(gadgets, "_labels", lambda *a: made.append(a) or real(*a))
        g = build_T(2, 3).graph
        assert made == []
        assert g.label_of(100) == "T2.T2.T3.v3"
        assert g.labels[100] == "T2.T2.T3.v3" and made == [(4, 3)]


class TestKEllDomain:
    """Every function of (k, ell) shares one checker and its messages."""

    @pytest.mark.parametrize("func", [build_T, vertex_count_closed_form,
                                      gadget_pair_counts, predicted_count_bits])
    @pytest.mark.parametrize("k, ell, message", [
        (0, 1, "k must be >= 1"),
        (1, -1, "ell must be >= 0"),
    ])
    def test_out_of_domain_message(self, func, k, ell, message):
        with pytest.raises(ValueError) as info:
            func(k, ell)
        assert str(info.value) == message

    @pytest.mark.parametrize("func", [inner_set_size, choose_k, inner_subgraph_pair_counts])
    def test_negative_ell_message(self, func):
        with pytest.raises(ValueError) as info:
            func(-1)
        assert str(info.value) == "ell must be >= 0"

    def test_lemma3_bound_shares_the_k_message(self):
        with pytest.raises(ValueError) as info:
            lemma3_bound(0, 1)
        assert str(info.value) == "k must be >= 1"


class TestVertexBudget:
    """build_T and build_P refuse a gadget over MAX_VERTICES before building it."""

    def test_largest_structural_gadget_fits(self):
        assert gadgets.checked_vertex_count(6, 9) == 1_308_919 <= gadgets.MAX_VERTICES

    @pytest.mark.parametrize("k, ell, count", [
        (21, 0, "2097154 vertices"),
        (6, 10, "3926758 vertices"),
        (20, 8, "more than 2^28 vertices"),
        (10 ** 9, 0, "more than 2^1000000000 vertices"),
        (1, 10 ** 9, "more than 2^1000000001 vertices"),
    ])
    def test_over_the_limit(self, k, ell, count):
        with pytest.raises(ValueError, match=re.escape(f"{count}, over the limit of 2097152")):
            gadgets.checked_vertex_count(k, ell)

    def test_closed_form_has_no_limit(self):
        # the bound chain counts levels far larger than any built gadget
        assert vertex_count_closed_form(20, 8) == 6_879_723_538

    def test_builders_check_the_limit(self, monkeypatch):
        monkeypatch.setattr(gadgets, "MAX_VERTICES", 100)
        assert build_T(6, 0, check=False).graph.vertex_count == 66
        assert build_P(98, check=False).graph.vertex_count == 100
        with pytest.raises(ValueError, match=re.escape("T(5,1) has 103 vertices")):
            build_T(5, 1)
        with pytest.raises(ValueError, match=re.escape("T(6,1) has more than 2^7 vertices")):
            build_T(6, 1)
        with pytest.raises(ValueError, match=re.escape("P(u,v,99) has 101 vertices")):
            build_P(99)


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

    def test_equals_the_search_it_replaced(self):
        def search(ell):  # the smallest k >= 1 with 2^(k+ell) >= 3^ell, by trial
            k = 1
            while 2 ** (k + ell) < 3 ** ell:
                k += 1
            return k

        assert [choose_k(ell) for ell in range(301)] == [search(ell) for ell in range(301)]
