"""Machine verification of the coloring-count bound chain, in exact integers.

For each level l with k = choose_k(l), the chain certified here is:

  eq1             n >= 3^l * 2^k                      (vertex lower bound)
  eq2             2*|V_l| < 5*3^l                     (inner set bound)
  k_window        3^l <= 2^(k+l) <= 2*3^l             (choice of k)
  lemma3_exponent 5*3^l + 2 + 2*(2^(k+l) + 3^l)
                    < 2*(2^(k+l) + 4*3^l)             (exponent combination,
                                                       doubled to stay integral)
  eq3             c < 2^(2^(k+l) + 4*3^l)  and the inner-set subgraph has
                  at most 3 * 2^(|V_l| - 1) colorings (both exact)
  c_le_2pow6_3ell c <= 2^(6*3^l)
  n_ge_9half_ell  9^l <= n * 2^l                      (i.e. n >= (9/2)^l)

where n and c are the exact vertex and 3-coloring counts of T(u,v,k,l).
Together, n >= (9/2)^l and c <= 2^(6*3^l) give c <= 64^(n^g) with
g = log base 9/2 of 3, since 3^l <= n^g follows monotonically; the irrational
exponent itself is never evaluated.  No check ever compares floats.
"""
from __future__ import annotations

import json
from dataclasses import dataclass
from typing import Optional

from .counting import (
    gadget_pair_counts,
    inner_subgraph_pair_counts,
    total_colorings,
)
from .gadgets import choose_k, inner_set_size, vertex_count_closed_form

DEFAULT_BIT_BUDGET = 10 ** 7

CHECK_NAMES = (
    "eq1",
    "eq2",
    "k_window",
    "lemma3_exponent",
    "eq3",
    "c_le_2pow6_3ell",
    "n_ge_9half_ell",
)


class BitBudgetExceededError(RuntimeError):
    """A requested power of two would exceed the configured bit budget."""


def _guarded_pow2(exponent: int, bit_budget: int) -> int:
    if exponent + 1 > bit_budget:
        raise BitBudgetExceededError(
            f"2^{exponent} needs {exponent + 1} bits, over the budget of {bit_budget}"
        )
    return 1 << exponent


def lemma3_bound(k: int, ell: int, *, bit_budget: int = DEFAULT_BIT_BUDGET) -> int:
    """The extension bound 2^(2^(k+ell) + 3^ell) as an exact integer."""
    if ell < 1:
        raise ValueError("the extension bound is stated for ell >= 1")
    if k < 1:
        raise ValueError("k must be >= 1")
    return _guarded_pow2(2 ** (k + ell) + 3 ** ell, bit_budget)


@dataclass(frozen=True)
class Eq3Result:
    ell: int
    k: int
    c_total: int
    bound_exponent: int
    total_bound_ok: bool
    inner_total: int
    inner_bound_ok: bool

    @property
    def ok(self) -> bool:
        return self.total_bound_ok and self.inner_bound_ok


def eq3_check(ell: int, k: Optional[int] = None, *,
              bit_budget: int = DEFAULT_BIT_BUDGET) -> Eq3Result:
    """Verify the total-count bound c < 2^(2^(k+ell) + 4*3^ell).

    Also verifies the intermediate step: the subgraph induced by the inner
    vertex set has at most 3 * 2^(|V_ell| - 1) proper 3-colorings (its count
    is computed exactly by the skeleton pair-count recursion).
    """
    if ell < 1:
        raise ValueError("the bound chain starts at ell = 1")
    if k is None:
        k = choose_k(ell)
    exponent = 2 ** (k + ell) + 4 * 3 ** ell
    # c itself has about this many bits, so guard before running the DP.
    bound = _guarded_pow2(exponent, bit_budget)
    c = total_colorings(gadget_pair_counts(k, ell))
    inner_total = total_colorings(inner_subgraph_pair_counts(ell))
    inner_bound = 3 * _guarded_pow2(inner_set_size(ell) - 1, bit_budget)
    return Eq3Result(
        ell=ell,
        k=k,
        c_total=c,
        bound_exponent=exponent,
        total_bound_ok=c < bound,
        inner_total=inner_total,
        inner_bound_ok=inner_total <= inner_bound,
    )


@dataclass(frozen=True)
class BoundReport:
    """Per-level record: parameters, exact sizes, and named check results."""

    ell: int
    k: int
    n: int
    c_bits: int
    checks: dict[str, bool]
    c_decimal: Optional[str] = None
    error: Optional[str] = None

    @property
    def ok(self) -> bool:
        return self.error is None and all(self.checks.values())


def theorem_chain_check(ell: int, k: Optional[int] = None, *,
                        bit_budget: int = DEFAULT_BIT_BUDGET,
                        include_decimal: bool = False) -> BoundReport:
    """Run every named check for one level; ell >= 1."""
    if ell < 1:
        raise ValueError("the bound chain starts at ell = 1")
    if k is None:
        k = choose_k(ell)
    p3 = 3 ** ell
    p2 = 2 ** (k + ell)
    n = vertex_count_closed_form(k, ell)
    eq3 = eq3_check(ell, k, bit_budget=bit_budget)
    c = eq3.c_total
    checks = {
        "eq1": n >= p3 * 2 ** k,
        "eq2": 2 * inner_set_size(ell) < 5 * p3,
        "k_window": p3 <= p2 <= 2 * p3,
        "lemma3_exponent": 5 * p3 + 2 + 2 * (p2 + p3) < 2 * (p2 + 4 * p3),
        "eq3": eq3.ok,
        "c_le_2pow6_3ell": c <= _guarded_pow2(6 * p3, bit_budget),
        "n_ge_9half_ell": 9 ** ell <= n * 2 ** ell,
    }
    assert set(checks) == set(CHECK_NAMES)
    return BoundReport(
        ell=ell,
        k=k,
        n=n,
        c_bits=c.bit_length(),
        checks=checks,
        c_decimal=int_to_decimal(c) if include_decimal else None,
    )


@dataclass(frozen=True)
class Report:
    rows: tuple[BoundReport, ...]
    version: int = 1

    @property
    def ok(self) -> bool:
        return all(row.ok for row in self.rows)


def emit_report(ell_range, *, bit_budget: int = DEFAULT_BIT_BUDGET,
                include_decimal: bool = False) -> Report:
    """One BoundReport per level; budget failures become per-row errors."""
    rows = []
    for ell in ell_range:
        try:
            rows.append(theorem_chain_check(
                ell, bit_budget=bit_budget, include_decimal=include_decimal))
        except BitBudgetExceededError as exc:
            k = choose_k(ell)
            rows.append(BoundReport(
                ell=ell, k=k, n=vertex_count_closed_form(k, ell),
                c_bits=0, checks={}, error=str(exc)))
    return Report(tuple(rows))


def int_to_decimal(value: int) -> str:
    """Decimal string of a possibly huge integer.

    Python >= 3.11 caps int-to-str conversion; lift the cap as needed.
    """
    import sys

    setter = getattr(sys, "set_int_max_str_digits", None)
    if setter is not None:
        needed = value.bit_length() // 3 + 20  # digits < bits/log2(10) + slack
        if sys.get_int_max_str_digits() < needed:
            setter(needed)
    return str(value)


def report_to_json(report: Report, *, indent: Optional[int] = 2) -> str:
    doc = {
        "version": report.version,
        "rows": [
            {
                "ell": row.ell,
                "k": row.k,
                "n": row.n,
                "c_bits": row.c_bits,
                **({"c_decimal": row.c_decimal} if row.c_decimal is not None else {}),
                "checks": row.checks,
                **({"error": row.error} if row.error is not None else {}),
            }
            for row in report.rows
        ],
    }
    return json.dumps(doc, indent=indent)


def report_to_text(report: Report) -> str:
    """Fixed-width human-readable table, one row per level."""
    header = f"{'ell':>4} {'k':>3} {'n':>12} {'c_bits':>10}  checks"
    lines = [header, "-" * len(header)]
    for row in report.rows:
        if row.error is not None:
            lines.append(f"{row.ell:>4} {row.k:>3} {row.n:>12} {'-':>10}  ERROR: {row.error}")
            continue
        marks = " ".join(
            f"{name}={'pass' if row.checks[name] else 'FAIL'}" for name in CHECK_NAMES
        )
        lines.append(f"{row.ell:>4} {row.k:>3} {row.n:>12} {row.c_bits:>10}  {marks}")
    lines.append(f"result: {'all checks pass' if report.ok else 'FAILURES PRESENT'}"
                 if report.rows else "result: empty report")
    return "\n".join(lines)
