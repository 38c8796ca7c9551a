"""Named verification suites driven by the command-line front end.

Each runner replays one family of claims at desk scale and returns a
SuiteResult with per-check lines; everything is exact, so a suite either
passes or exhibits a concrete failing instance.  SUITES maps each name of
`verify --suite` to its runner, whose parameters are the suite's options.
"""
from __future__ import annotations

from dataclasses import dataclass, field

from . import bounds, counting, embedding
from .gadgets import (build_P, build_T, checked_vertex_count, inner_set_size,
                      vertex_count_closed_form)

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
    verdicts = list(map(counting.lemma2_classify,
                        counting.iter_colorings(build_P(5, check=False).graph)))
    total = len(verdicts)
    a_ok = all(v.case_a_witness for v in verdicts)
    b_ok = all(v.case_a_witness == {1, 2, 3} for v in verdicts if v.case_b_applies)
    res.add("coloring count", total == 84, f"{total}/84 colorings enumerated")
    res.add("at least one equality holds in every coloring", a_ok)
    res.add("equal terminals force v1=v3=v5 and v2=v4", b_ok)
    return res


def run_remark(b_max: int = 12) -> SuiteResult:
    """The fan has exactly two colorings with both terminals on color 1."""
    if b_max < 1:
        raise ValueError("the fan needs b >= 1")
    counting.check_free_vertices(b_max)  # both terminals are fixed
    res = SuiteResult("remark")
    for b in range(1, b_max + 1):
        # The transfer, not the closed form: the claim keeps two routes.
        s = counting._path_interior_transfer(b, 1, 1)
        oracle = counting.count_colorings_bruteforce(build_P(b, check=False).graph, {0: 1, 1: 1})
        res.add(f"b={b}", s == 2 and oracle == 2, f"transfer={s} oracle={oracle}")
    return res


def run_lemma3(ell_max: int = 2,
               bit_budget: int = bounds.DEFAULT_BIT_BUDGET) -> SuiteResult:
    """Per-coloring extension bound plus the partition identity, for
    ell <= 2 (level 3 has about 1.1e9 inner colorings)."""
    if ell_max < 1:
        raise ValueError("the extension bound needs ell >= 1")
    if ell_max > 2:
        raise ValueError("the lemma3 sweep covers ell <= 2 only")
    res = SuiteResult("lemma3")
    for k, ell in LEMMA3_DEFAULT_CASES:
        if ell > ell_max:
            continue
        # The bound, then the count, are charged to the budget before any coloring is listed.
        bound = bounds.lemma3_bound(k, ell, bit_budget=bit_budget)
        dp_total = counting.total_colorings(
            counting.gadget_pair_counts(k, ell, bit_budget=bit_budget))
        gadget = build_T(k, ell, check=False)
        sub, index_map = counting.inner_subgraph(gadget)
        kept = sorted(index_map)  # new index i is old vertex kept[i]
        worst = sigma = count = 0
        for col in counting.iter_colorings(sub):
            psi = dict(zip(kept, col.values()))  # col lists vertices 0, 1, ...
            ext = counting.count_extensions(k, ell, psi, gadget=gadget)
            worst = max(worst, ext)
            sigma += ext
            count += 1
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


def _chain_suite(suite: str, ell_max: int, bit_budget: int, line) -> SuiteResult:
    """One check per level 1..ell_max of the bound chain, as line(row) gives it."""
    if ell_max < 1:
        raise ValueError("the bound chain starts at ell = 1")
    res = SuiteResult(suite)
    for ell in range(1, ell_max + 1):
        row = bounds.theorem_chain_check(ell, bit_budget=bit_budget)
        if row.error is not None:  # a refused level ends the suite, as a refusal
            raise bounds.BitBudgetExceededError(row.error)
        res.add(*line(row))
    return res


def run_eq3(ell_max: int = 6, bit_budget: int = bounds.DEFAULT_BIT_BUDGET) -> SuiteResult:
    """Total-count bound and the inner-subgraph count bound per level."""
    return _chain_suite("eq3", ell_max, bit_budget, lambda row: (
        f"ell={row.ell} (k={row.k})",
        row.checks["eq3"],
        f"c has {row.c_bits} bits < 2^{bounds.bound_exponent(row.k, row.ell, 4, bit_budget)};"
        f" inner count {bounds.int_to_decimal(row.inner_total)}",
    ))


def run_theorem(ell_max: int = 8, bit_budget: int = bounds.DEFAULT_BIT_BUDGET) -> SuiteResult:
    """The full integer chain behind the main coloring-count bound."""
    return _chain_suite("theorem", ell_max, bit_budget, lambda row: (
        f"ell={row.ell} (k={row.k}, n={row.n}, c_bits={row.c_bits})",
        row.ok,
        "all checks" if row.ok else f"failing: {[key for key, ok in row.checks.items() if not ok]}",
    ))


def run_embedding(ell_max: int = 4, k_max: int = 6) -> SuiteResult:
    """Structural certification sweep: triangle-free plane maps, terminals
    on the hexagonal outer face, no bounded face shorter than a quad."""
    if ell_max < 0 or k_max < 1:
        raise ValueError("need ell_max >= 0 and k_max >= 1")
    checked_vertex_count(k_max, ell_max)  # the sweep's largest gadget, refused before any build
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


def run_all(bit_budget: int = bounds.DEFAULT_BIT_BUDGET) -> list[SuiteResult]:
    return [
        run_lemma2(),
        run_remark(),
        run_lemma3(bit_budget=bit_budget),
        run_eq3(bit_budget=bit_budget),
        run_theorem(bit_budget=bit_budget),
        run_embedding(),
    ]


SUITES = {run.__name__.removeprefix("run_"): run for run in (
    run_lemma2, run_remark, run_lemma3, run_eq3, run_theorem, run_embedding, run_all)}
