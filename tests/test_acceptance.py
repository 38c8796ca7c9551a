"""Acceptance suite: every criterion as one test, exact arithmetic throughout.

Run with `pytest tests/test_acceptance.py -v -s` to see one line per
criterion.  The k <= 6, ell <= 8 construction sweep is built once (module
fixture) and shared by the size-formula and structural-certification
criteria; graphs are discarded immediately after certification to keep the
peak footprint at a single gadget.
"""
import time

import pytest

from threecolor import (
    build_P,
    build_T,
    certify,
    count_colorings_bruteforce,
    count_extensions,
    gadget_pair_counts,
    inner_subgraph,
    iter_colorings,
    lemma2_classify,
    path_pair_counts,
    theorem_chain_check,
    total_colorings,
    vertex_count_closed_form,
)
from threecolor.bounds import lemma3_bound
from threecolor.counting import inner_subgraph_pair_counts
from threecolor.gadgets import choose_k, inner_set_size

SWEEP_K_MAX = 6
SWEEP_ELL_MAX = 8


def _report(num: int, title: str, t0: float) -> None:
    print(f"\nACCEPTANCE {num} ({title}): PASS [{time.time() - t0:.2f}s]")


@pytest.fixture(scope="module")
def sweep():
    """Build every T(k, ell) for k <= 6, ell <= 8 once; keep only summaries."""
    t0 = time.time()
    results = {}
    for k in range(1, SWEEP_K_MAX + 1):
        for ell in range(0, SWEEP_ELL_MAX + 1):
            gadget = build_T(k, ell, check=False)
            cert = certify(gadget.tg, gadget.rotation)
            walks, ends = gadget.graph.faces
            outer = cert["outer_face_id"]
            results[(k, ell)] = {
                "n": gadget.graph.vertex_count,
                "m": gadget.graph.edge_count,
                "pair_count": len(gadget.registry.pairs),
                "inner_size": len(gadget.registry.inner_set),
                "cert": cert,
                "outer_walk": tuple(walks[ends[outer - 1] if outer else 0:ends[outer]]),
            }
            del gadget
    return {"gadgets": results, "build_seconds": time.time() - t0}


def test_criterion_1_frame_equality_exhaustion():
    t0 = time.time()
    colorings = list(iter_colorings(build_P(5, check=False).graph))
    assert len(colorings) == 84
    for psi in colorings:
        verdict = lemma2_classify(psi)
        assert verdict.case_a_witness, psi
        if psi[0] == psi[1]:
            assert verdict.case_b_applies
            assert verdict.case_a_witness == frozenset({1, 2, 3})
            assert psi[2] == psi[4] == psi[6]
            assert psi[3] == psi[5]
    assert time.time() - t0 < 1.0
    _report(1, "fan frame equalities, all 84 colorings", t0)


def test_criterion_2_two_same_colorings_for_every_fan():
    t0 = time.time()
    for b in range(1, 13):
        assert path_pair_counts(b).same == 2
        g = build_P(b, check=False).graph
        assert count_colorings_bruteforce(g, {0: 1, 1: 1}) == 2
        assert count_colorings_bruteforce(g, {0: 1, 1: 2}) == path_pair_counts(b).diff
    _report(2, "S(b) = 2 for b = 1..12, oracle-confirmed", t0)


def test_criterion_3_oracle_dp_equivalence():
    t0 = time.time()
    desk_scale = [
        (k, ell)
        for k in range(1, 7)
        for ell in range(0, 4)
        if vertex_count_closed_form(k, ell) <= 20
    ]
    assert set(desk_scale) == {(1, 0), (2, 0), (3, 0), (4, 0), (1, 1), (2, 1)}
    for k, ell in desk_scale:
        g = build_T(k, ell, check=False)
        brute = count_colorings_bruteforce(g.graph)
        dp = total_colorings(gadget_pair_counts(k, ell))
        assert brute == dp, (k, ell, brute, dp)
    _report(3, "brute force equals the pair-count DP at desk scale", t0)


def test_criterion_4_extension_bound_sweep():
    t0 = time.time()
    for k, ell in ((1, 1), (2, 1), (1, 2), (2, 2)):
        gadget = build_T(k, ell, check=False)
        sub, index_map = inner_subgraph(gadget)
        back = {new: old for old, new in index_map.items()}
        bound = lemma3_bound(k, ell)
        sigma = 0
        seen = 0
        for col in iter_colorings(sub):
            psi = {back[nv]: c for nv, c in col.items()}
            ext = count_extensions(k, ell, psi, gadget=gadget)
            assert ext <= bound, (k, ell, psi)
            sigma += ext
            seen += 1
        assert seen == total_colorings(inner_subgraph_pair_counts(ell))
        assert sigma == total_colorings(gadget_pair_counts(k, ell))
    _report(4, "every inner coloring extends within the bound", t0)


def test_criterion_5_size_formulas(sweep):
    t0 = time.time()
    for k in range(1, SWEEP_K_MAX + 1):
        for ell in range(0, SWEEP_ELL_MAX + 1):
            info = sweep["gadgets"][(k, ell)]
            expected = vertex_count_closed_form(k, ell)
            assert info["n"] == expected
            assert expected >= 3 ** ell * 2 ** k
            assert info["pair_count"] == 3 ** ell
            assert info["inner_size"] == inner_set_size(ell)
    recurrence = 2
    for ell in range(0, 13):
        size = inner_set_size(ell)
        assert size == recurrence == (5 * 3 ** ell - 1) // 2
        assert 2 * size < 5 * 3 ** ell
        recurrence = 3 * recurrence + 1
    assert sweep["build_seconds"] < 120.0
    _report(5, f"vertex and inner-set formulas across k<=6, ell<=8"
               f" (shared sweep {sweep['build_seconds']:.1f}s)", t0)


def test_criterion_6_bound_chain():
    t0 = time.time()
    for ell in range(1, 9):
        k = choose_k(ell)
        p3 = 3 ** ell
        assert p3 <= 2 ** (k + ell) <= 2 * p3
        n = vertex_count_closed_form(k, ell)
        c = total_colorings(gadget_pair_counts(k, ell))
        assert c < 2 ** (2 ** (k + ell) + 4 * p3)
        assert 9 ** ell <= n * 2 ** ell
        assert c <= 2 ** (6 * p3)
        inner_total = total_colorings(inner_subgraph_pair_counts(ell))
        assert inner_total <= 3 * 2 ** (inner_set_size(ell) - 1)
        row = theorem_chain_check(ell)
        assert row.ok and row.n == n and row.c_bits == c.bit_length()
    assert time.time() - t0 < 120.0
    _report(6, "total-count bound and main chain for ell = 1..8", t0)


def test_criterion_7_structural_certification(sweep):
    t0 = time.time()
    min_bounded_overall = None
    for (k, ell), info in sweep["gadgets"].items():
        cert = info["cert"]
        assert cert["triangle_count"] == 0, (k, ell)
        assert cert["euler"], (k, ell)
        assert cert["terminals_nonadjacent"], (k, ell)
        assert {0, 1} <= set(info["outer_walk"]), (k, ell)
        assert cert["outer_face_length"] == 6, (k, ell)

        # No bounded face may be shorter than a quadrilateral.  The exact
        # census: the 3^ell leaf fans keep their 2^k - 2 quads and every
        # child gluing adds two pentagons, so the per-gadget minimum is 4
        # exactly when k >= 2 (5 for k = 1 with ell >= 1; the k = 1 leaf is
        # a tree with no bounded face at all).
        quads = 3 ** ell * (2 ** k - 2)
        pents = 3 * (3 ** ell - 1)
        expected_hist = {6: 1}
        if quads:
            expected_hist[4] = quads
        if pents:
            expected_hist[5] = pents
        assert cert["face_length_histogram"] == expected_hist, (k, ell)

        mb = cert["min_bounded_face_length"]
        assert cert["bounded_faces_ge_4"], (k, ell)
        if k >= 2:
            assert mb == 4, (k, ell)
        elif ell >= 1:
            assert mb == 5, (k, ell)
        else:
            assert mb is None  # T(1,0) = P(u,v,2) is a tree
        if mb is not None:
            min_bounded_overall = mb if min_bounded_overall is None else min(
                min_bounded_overall, mb)
    assert min_bounded_overall == 4
    _report(7, "triangle-free plane certification across the sweep", t0)


def test_criterion_8_worked_instance():
    t0 = time.time()
    gadget = build_T(1, 1)
    assert gadget.graph.vertex_count == 13
    assert len(gadget.registry.pairs) == 3
    assert len(gadget.registry.inner_set) == 7
    dp = total_colorings(gadget_pair_counts(1, 1))
    brute = count_colorings_bruteforce(gadget.graph)
    assert dp == brute == 1056
    assert 1056 < 2 ** 16
    assert 1056 <= 2 ** 18
    _report(8, "worked instance T(1,1)", t0)
