#!/usr/bin/env python3
"""The inequality chain, end to end, in exact integer arithmetic.

With k = choose_k(l) the gadget T(u,v,k,l) has n >= (9/2)^l vertices but at
most 2^(6*3^l) proper 3-colorings; eliminating l gives at most 64^(n^g)
colorings with g = log base 9/2 of 3 < 0.731.  The table below verifies
every link for l = 1..8; nothing is floating point, so there is nothing to
round.
"""
from threecolor import emit_report, report_to_text, theorem_chain_check

report = emit_report(range(1, 9))
print("".join(report_to_text(report)), end="")
print()

row = theorem_chain_check(1)
print("worked level l=1: n =", row.n, " c =", row.c)
print("  9^1 <= n * 2^1      :", 9, "<=", row.n * 2)
print("  c <= 2^(6*3^1)      :", row.c, "<= 2^18 =", 2 ** 18)
print()

print("how the two sides scale (bits of the count vs. the budget 6*3^l):")
for ell in range(1, 9):
    r = theorem_chain_check(ell)
    print(f"  l={ell}: n={r.n:7}  c_bits={r.c_bits:6}  budget={6 * 3 ** ell:6}"
          f"  headroom={6 * 3 ** ell - r.c_bits:6}")
print()
print("the gap in the exponent is real: the construction wastes nothing,"
      " but the bound's per-leaf factor 2^(2^k) is loose against the exact"
      " transfer value, and the slack compounds level by level.")
