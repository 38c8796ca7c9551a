#!/usr/bin/env python3
"""Exact 3-coloring counts: independent routes that must agree.

The brute-force oracle sweeps forward one vertex at a time, counting the
partial colorings per coloring of the earlier vertices that later ones
still see, and refuses a sweep that may make more than 2^24 frontier cells
(one per color of such a coloring, charged before each level is built).
The fan's pair counts come from a closed form, S = 2 and D = F(b+2), a
Fibonacci number; the transfer counter that slides along the fan's path is
kept as its oracle.  The pair-count recursion multiplies child counts
through the frame, in the closed form S' = 2S^3, D' = S(3S^2 + 6SD + 4D^2).
Totals expand from the pair counts (S, D) as 3S + 6D by color-permutation
symmetry.
"""
from threecolor import (
    build_T,
    count_colorings_bruteforce,
    gadget_pair_counts,
    path_pair_counts,
    total_colorings,
    vertex_count_closed_form,
)

print("fan pair counts (note same == 2 always; diff walks up a Fibonacci-like ladder):")
for b in range(1, 11):
    pc = path_pair_counts(b)
    print(f"  P(u,v,{b:2}): S={pc.same}  D={pc.diff:4}  total={total_colorings(pc)}")
print()

print("gadgets at desk scale, DP vs. oracle:")
for k, ell in ((1, 0), (2, 0), (3, 0), (4, 0), (1, 1), (2, 1)):
    g = build_T(k, ell, check=False)
    dp = total_colorings(gadget_pair_counts(k, ell))
    brute = count_colorings_bruteforce(g.graph)
    print(f"  T({k},{ell}): n={g.graph.vertex_count:2}  dp={dp:6}  brute={brute:6}"
          f"  agree={dp == brute}")
print()

print("past the oracle's reach the DP keeps going; counts explode:")
for k, ell in ((2, 2), (3, 4), (4, 6), (5, 8)):
    c = total_colorings(gadget_pair_counts(k, ell))
    n = vertex_count_closed_form(k, ell)
    print(f"  T({k},{ell}): n={n:7}  c has {c.bit_length():6} bits")
print()

# Fixing the terminals picks out one symmetry class.
pc = gadget_pair_counts(1, 1)
g = build_T(1, 1, check=False)
print("terminal fixing on T(1,1):")
print("  (1,1) fixed:", pc.same, "==", count_colorings_bruteforce(g.graph, {0: 1, 1: 1}))
print("  (1,2) fixed:", pc.diff, "==", count_colorings_bruteforce(g.graph, {0: 1, 1: 2}))
print("  any equal pair gives S, any distinct pair gives D:")
for cu, cv in ((2, 2), (3, 3), (2, 1), (3, 2)):
    print(f"    ({cu},{cv}):", count_colorings_bruteforce(g.graph, {0: cu, 1: cv}))
