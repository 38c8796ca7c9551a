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

`theorem_chain_check` alone counts a level and makes its row, a refused level's
too, with c exact and the checks named in the order above.  It compares c with
powers of two by bit length, so nothing larger than c is built; `bound_exponent`
alone forms eq3's and lemma 3's exponents E and refuses 2^E over the bit budget.
"""
from __future__ import annotations

import decimal
from dataclasses import dataclass
from typing import Optional

from .counting import (  # the budget and its error live in counting; re-exported here
    DEFAULT_BIT_BUDGET,
    BitBudgetExceededError,
    gadget_pair_counts,
    inner_subgraph_pair_counts,
    total_colorings,
)
from .gadgets import check_k_ell, choose_k, inner_set_size, vertex_count_closed_form

REPORT_MAX_DIGITS = 2 ** 24


def bound_exponent(k: int, ell: int, c: int, bit_budget: int) -> int:
    """E = 2^(k+ell) + c*3^ell (c = 4: eq3, c = 1: lemma 3), or BitBudgetExceededError
    if 2^E needs over bit_budget bits; a far E is named by its formula, unformed."""
    if k + ell >= max(64, bit_budget.bit_length()):  # 2^(k+ell) > bit_budget: refuse unformed
        power = f"2^{int_to_decimal(k + ell)}"
        times = "" if c == 1 else f"{c}*"
        raise BitBudgetExceededError(f"2^({power} + {times}3^{int_to_decimal(ell)}) needs over"
                                     f" {power} bits, over the budget of {bit_budget}")
    exponent = 2 ** (k + ell) + c * 3 ** ell
    if exponent + 1 > bit_budget:  # a huge budget's exponent may outgrow str()'s digit limit
        raise BitBudgetExceededError(f"2^{int_to_decimal(exponent)} needs"
                                     f" {int_to_decimal(exponent + 1)} bits,"
                                     f" over the budget of {bit_budget}")
    return exponent


def _below_pow2(x: int, exponent: int) -> bool:
    """x < 2^exponent for any integer x and exponent >= 0, decided by bit
    length without building the power; x <= 2^m is _below_pow2(x - 1, m)."""
    return x < 0 or x.bit_length() <= exponent


def lemma3_bound(k: int, ell: int, *, bit_budget: int = DEFAULT_BIT_BUDGET) -> int:
    """The extension bound 2^(2^(k+ell) + 3^ell) as an exact integer."""
    if ell < 1:
        raise ValueError("the extension bound is stated for ell >= 1")
    check_k_ell(k, ell)
    return 1 << bound_exponent(k, ell, 1, bit_budget)


@dataclass(frozen=True)
class BoundReport:
    """Per-level record: parameters, exact counts (c, and `inner_total` for the V_ell
    subgraph) and named checks; a refused level has only k, n and its `error`."""

    ell: int
    k: int
    n: int
    checks: dict[str, bool]
    c: Optional[int] = None
    inner_total: Optional[int] = None
    error: Optional[str] = None

    @property
    def c_bits(self) -> int:
        return 0 if self.c is None else self.c.bit_length()

    @property
    def ok(self) -> bool:
        return self.error is None and all(self.checks.values())


def theorem_chain_check(ell: int, *, bit_budget: int = DEFAULT_BIT_BUDGET) -> BoundReport:
    """Run every named check for one level ell >= 1, with k = choose_k(ell); a level
    the bit budget refuses is a row with that refusal as its `error`, nothing counted."""
    if ell < 1:
        raise ValueError("the bound chain starts at ell = 1")
    k = choose_k(ell)
    n = vertex_count_closed_form(k, ell)
    try:
        exponent = bound_exponent(k, ell, 4, bit_budget)
        c = total_colorings(gadget_pair_counts(k, ell, bit_budget=bit_budget))
        inner_total = total_colorings(inner_subgraph_pair_counts(ell, bit_budget=bit_budget))
    except BitBudgetExceededError as exc:
        return BoundReport(ell=ell, k=k, n=n, checks={}, error=str(exc))
    p3 = 3 ** ell
    checks = {
        "eq1": n >= p3 * 2 ** k,
        "eq2": 2 * inner_set_size(ell) < 5 * p3,
        "k_window": p3 <= 2 ** (k + ell) <= 2 * p3,
        "lemma3_exponent": 5 * p3 + 2 + 2 * bound_exponent(k, ell, 1, bit_budget) < 2 * exponent,
        "eq3": _below_pow2(c, exponent)
        and inner_total <= 3 << (inner_set_size(ell) - 1),
        "c_le_2pow6_3ell": _below_pow2(c - 1, 6 * p3),
        "n_ge_9half_ell": 9 ** ell <= n * 2 ** ell,
    }
    return BoundReport(ell=ell, k=k, n=n, checks=checks, c=c, inner_total=inner_total)


def emit_report(ell_range: range, *,
                bit_budget: int = DEFAULT_BIT_BUDGET) -> tuple[BoundReport, ...]:
    """One `theorem_chain_check` row per level, refused levels included.
    Refuses with ValueError, before any row, a range whose n column may hold
    over REPORT_MAX_DIGITS digits: k_window gives n < 4 * (9/2)^l, which has
    fewer than l * log10(9/2) + 2 < 2l/3 + 2 digits.  The guard bounds whole
    rows, n's digits plus O(log l), as a far error names E by its formula."""
    digits = len(ell_range) * (ell_range[0] + ell_range[-1] + 6) // 3 if ell_range else 0
    if digits > REPORT_MAX_DIGITS:
        raise ValueError(f"the n column of levels {ell_range[0]} to {ell_range[-1]} may take"
                         f" up to {int_to_decimal(digits)} digits,"
                         f" over the limit of {REPORT_MAX_DIGITS}")
    return tuple(theorem_chain_check(ell, bit_budget=bit_budget) for ell in ell_range)


# Integers below this many bits (at most 603 digits) convert directly:
# str() is fastest there, and it stays under the smallest int-to-str digit
# limit an interpreter accepts (640).  Pieces of the recursion below it
# become Decimal(piece), which no such limit applies to.
_BASE_BITS = 2000

# Decimal arithmetic that can never round: every result must be exact.
_EXACT = decimal.Context(prec=decimal.MAX_PREC, Emax=decimal.MAX_EMAX,
                         Emin=decimal.MIN_EMIN)
_EXACT.traps[decimal.Inexact] = _EXACT.traps[decimal.Rounded] = True


def int_to_decimal(value: int) -> str:
    """Decimal string of a possibly huge integer, in subquadratic time.

    str() of an int is quadratic in the digit count (and capped by the
    interpreter's int-to-str limit).  Instead, split the integer by bits,
    convert both halves recursively to `decimal.Decimal`, and join them as
    hi * 2^w + lo, with 2^w itself an exact Decimal cached for the call;
    Decimal multiplies huge numbers in subquadratic time and prints them in
    linear time.  The process-wide int-to-str limit is neither read nor
    changed.
    """
    if value < 0:
        return "-" + int_to_decimal(-value)
    if value.bit_length() < _BASE_BITS:
        return str(value)
    powers: dict[int, decimal.Decimal] = {}

    def power_of_two(w: int) -> decimal.Decimal:
        p = powers.get(w)
        if p is None:
            if w < _BASE_BITS:
                p = decimal.Decimal(1 << w)
            else:
                p = power_of_two(w >> 1) * power_of_two(w - (w >> 1))
            powers[w] = p
        return p

    def convert(n: int, w: int) -> decimal.Decimal:
        # n < 2^w
        if w < _BASE_BITS:
            return decimal.Decimal(n)
        half = w >> 1
        hi = n >> half
        return convert(hi, w - half) * power_of_two(half) + convert(n - (hi << half), half)

    with decimal.localcontext(_EXACT):
        return str(convert(value, value.bit_length()))

