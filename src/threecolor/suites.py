"""Named verification suites driven by the command-line front end.

Each runner replays one family of claims at desk scale and returns a
SuiteResult with per-check lines; everything is exact, so a suite either
passes or exhibits a concrete failing instance.
"""
from __future__ import annotations

from dataclasses import dataclass, field

from . import bounds, counting, embedding
from .gadgets import build_P, build_T, inner_set_size, vertex_count_closed_form

LEMMA3_DEFAULT_CASES = ((1, 1), (2, 1), (1, 2), (2, 2))


@dataclass
class SuiteResult:
    suite: str
    passed: bool = True
    checks: list[dict] = field(default_factory=list)

    def add(self, name: str, ok: bool, detail: str = "") -> None:
        self.checks.append({"name": name, "ok": bool(ok), "detail": detail})
        self.passed = self.passed and bool(ok)

    def lines(self) -> list[str]:
        out = []
        for c in self.checks:
            mark = "pass" if c["ok"] else "FAIL"
            detail = f" ({c['detail']})" if c["detail"] else ""
            out.append(f"[{mark}] {self.suite}: {c['name']}{detail}")
        out.append(f"suite {self.suite}: {'PASS' if self.passed else 'FAIL'}")
        return out


def run_lemma2() -> SuiteResult:
    """Exhaustive frame-equality classification over P(u,v,5)."""
    res = SuiteResult("lemma2")
    g = build_P(5, check=False)
    total = 0
    a_ok = True
    b_ok = True
    for psi in counting.iter_colorings(g.graph):
        total += 1
        verdict = counting.lemma2_classify(psi)
        if not verdict.case_a_witness:
            a_ok = False
        if verdict.case_b_applies and verdict.case_a_witness != frozenset({1, 2, 3}):
            b_ok = False
    res.add("coloring count", total == 84, f"{total}/84 colorings enumerated")
    res.add("at least one equality holds in every coloring", a_ok)
    res.add("equal terminals force v1=v3=v5 and v2=v4", b_ok)
    return res


def run_remark(b_max: int = 12) -> SuiteResult:
    """The fan has exactly two colorings with both terminals on color 1."""
    if b_max < 1:
        raise ValueError("the fan needs b >= 1")
    res = SuiteResult("remark")
    for b in range(1, b_max + 1):
        s = counting.path_pair_counts(b).same
        oracle = counting.count_colorings_bruteforce(
            build_P(b, check=False).graph, {0: 1, 1: 1}, force=True
        )
        res.add(f"b={b}", s == 2 and oracle == 2, f"transfer={s} oracle={oracle}")
    return res


def run_lemma3(ell_max: int = 2) -> SuiteResult:
    """Per-coloring extension bound plus the partition identity."""
    if ell_max < 1:
        raise ValueError("the extension bound needs ell >= 1")
    res = SuiteResult("lemma3")
    for k, ell in LEMMA3_DEFAULT_CASES:
        if ell > ell_max:
            continue
        gadget = build_T(k, ell, check=False)
        sub, index_map = counting.inner_subgraph(gadget)
        back = {new: old for old, new in index_map.items()}
        bound = bounds.lemma3_bound(k, ell)
        worst = 0
        sigma = 0
        count = 0
        for col in counting.iter_colorings(sub):
            psi = {back[nv]: c for nv, c in col.items()}
            ext = counting.count_extensions(k, ell, psi, gadget=gadget)
            worst = max(worst, ext)
            sigma += ext
            count += 1
        dp_total = counting.total_colorings(counting.gadget_pair_counts(k, ell))
        res.add(
            f"(k={k},ell={ell}) extension bound",
            worst <= bound,
            f"max over {count} inner colorings: {worst} <= {bound}",
        )
        res.add(
            f"(k={k},ell={ell}) partition identity",
            sigma == dp_total,
            f"sum of extensions {sigma} == total {dp_total}",
        )
    return res


def run_eq3(ell_max: int = 6, bit_budget: int = bounds.DEFAULT_BIT_BUDGET) -> SuiteResult:
    """Total-count bound and the inner-subgraph count bound per level."""
    if ell_max < 1:
        raise ValueError("the bound chain starts at ell = 1")
    res = SuiteResult("eq3")
    for ell in range(1, ell_max + 1):
        r = bounds.eq3_check(ell, bit_budget=bit_budget)
        res.add(
            f"ell={ell} (k={r.k})",
            r.ok,
            f"c has {r.c_total.bit_length()} bits < 2^{r.bound_exponent};"
            f" inner count {r.inner_total}",
        )
    return res


def run_theorem(ell_max: int = 8, bit_budget: int = bounds.DEFAULT_BIT_BUDGET) -> SuiteResult:
    """The full integer chain behind the main coloring-count bound."""
    if ell_max < 1:
        raise ValueError("the bound chain starts at ell = 1")
    res = SuiteResult("theorem")
    for ell in range(1, ell_max + 1):
        row = bounds.theorem_chain_check(ell, bit_budget=bit_budget)
        failing = [name for name, ok in row.checks.items() if not ok]
        res.add(
            f"ell={ell} (k={row.k}, n={row.n}, c_bits={row.c_bits})",
            row.ok,
            "all checks" if row.ok else f"failing: {failing}",
        )
    return res


def run_embedding(ell_max: int = 4, k_max: int = 6) -> SuiteResult:
    """Structural certification sweep: triangle-free plane maps, terminals
    on the hexagonal outer face, no bounded face shorter than a quad."""
    if ell_max < 0 or k_max < 1:
        raise ValueError("need ell_max >= 0 and k_max >= 1")
    res = SuiteResult("embedding")
    for k in range(1, k_max + 1):
        for ell in range(0, ell_max + 1):
            gadget = build_T(k, ell, check=False)
            report = embedding.certify(gadget.tg, gadget.rotation)
            sizes_ok = (
                gadget.graph.vertex_count == vertex_count_closed_form(k, ell)
                and len(gadget.registry.inner_set) == inner_set_size(ell)
            )
            res.add(
                f"T({k},{ell})",
                report["ok"] and sizes_ok,
                f"n={report['vertices']} faces={report['faces']}"
                f" min_bounded={report['min_bounded_face_length']}",
            )
    return res


def run_all(ell_max_theorem: int = 8) -> list[SuiteResult]:
    return [
        run_lemma2(),
        run_remark(),
        run_lemma3(),
        run_eq3(),
        run_theorem(ell_max_theorem),
        run_embedding(),
    ]
