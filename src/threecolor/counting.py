"""Exact proper-3-coloring counting.

Four routes, kept deliberately independent so they can cross-check each
other:

* a brute-force backtracking oracle over any small graph,
* a left-to-right transfer counter for the fan P(u,v,b),
* a recursive pair-count dynamic program for T(u,v,k,l),
* a per-coloring extension counter for colorings of the inner vertex set.

Pair counts (S, D) are the number of colorings with the two terminals fixed
to the same color (1,1) resp. to the ordered pair (1,2); by color-permutation
symmetry the total number of proper 3-colorings is 3S + 6D.  All counts are
exact arbitrary-precision integers.
"""
from __future__ import annotations

import itertools
from dataclasses import dataclass
from functools import lru_cache
from typing import Iterator, Mapping, Optional

from .gadgets import Gadget, build_P, build_T
from .graphs import COLORS, Graph, induced_subgraph

DEFAULT_BRUTE_FORCE_CUTOFF = 20


class BruteForceCutoffError(ValueError):
    """Raised when the backtracking oracle is asked for too large a graph."""


@dataclass(frozen=True)
class PairCounts:
    """Exact counts with terminals fixed equal (same) or distinct (diff)."""

    same: int
    diff: int

    def __post_init__(self):
        if self.same < 0 or self.diff < 0:
            raise ValueError("counts must be nonnegative")


@dataclass(frozen=True)
class Lemma2Verdict:
    """Which frame equalities hold for a proper coloring of P(u,v,5).

    `case_a_witness` is the subset of {1,2,3} with psi(v_i) = psi(v_{i+2});
    `case_b_applies` records whether the terminals share a color.
    """

    case_a_witness: frozenset[int]
    case_b_applies: bool


def _prepare(g: Graph, fixed: Optional[Mapping[int, int]]):
    """Validate `fixed` and lay out the backtracking state.

    Returns the color array (0 = free) and the free vertices in index order,
    or None when two fixed endpoints of an edge share a color, so that no
    coloring extends `fixed`.
    """
    color = [0] * g.vertex_count
    conflict = False
    for v, c in (fixed or {}).items():
        if not (0 <= v < g.vertex_count):
            raise ValueError(f"fixed vertex {v} out of range")
        if c not in COLORS:
            raise ValueError(f"fixed vertex {v} has invalid color {c}")
        conflict = conflict or any(color[nb] == c for nb in g.adjacency[v])
        color[v] = c
    if conflict:
        return None
    return color, [v for v in range(g.vertex_count) if not color[v]]


def iter_colorings(
    g: Graph, fixed: Optional[Mapping[int, int]] = None
) -> Iterator[dict[int, int]]:
    """Yield every proper total 3-coloring extending `fixed` (as dicts)."""
    state = _prepare(g, fixed)
    if state is None:
        return
    color, free = state
    adjacency = g.adjacency
    m = len(free)

    def rec(i: int) -> Iterator[dict[int, int]]:
        if i == m:
            yield dict(enumerate(color))
            return
        v = free[i]
        used = {color[nb] for nb in adjacency[v] if color[nb]}
        for c in COLORS:
            if c not in used:
                color[v] = c
                yield from rec(i + 1)
                color[v] = 0

    yield from rec(0)


def count_colorings_bruteforce(
    g: Graph,
    fixed: Optional[Mapping[int, int]] = None,
    *,
    cutoff: int = DEFAULT_BRUTE_FORCE_CUTOFF,
    force: bool = False,
) -> int:
    """Exact number of proper total 3-colorings extending `fixed`.

    Backtracks over the free vertices in index order.  Refuses graphs above
    the vertex cutoff (default 20) unless `force` is given.
    """
    if g.vertex_count > cutoff and not force:
        raise BruteForceCutoffError(
            f"{g.vertex_count} vertices exceeds the brute-force cutoff {cutoff}"
            " (pass force=True to override)"
        )
    state = _prepare(g, fixed)
    if state is None:
        return 0
    color, free = state
    adjacency = g.adjacency
    m = len(free)

    def rec(i: int) -> int:
        if i == m:
            return 1
        v = free[i]
        used = {color[nb] for nb in adjacency[v] if color[nb]}
        total = 0
        for c in COLORS:
            if c not in used:
                color[v] = c
                total += rec(i + 1)
        color[v] = 0
        return total

    return rec(0)


@lru_cache(maxsize=None)
def path_interior_count(b: int, color_u: int, color_v: int) -> int:
    """Colorings of the path interior of P(u,v,b) with the terminals fixed.

    Left-to-right transfer over v_1..v_b; the state is the color of v_i,
    constrained away from u's color (odd i) or v's color (even i).
    """
    if b < 1:
        raise ValueError("b must be >= 1")
    if color_u not in COLORS or color_v not in COLORS:
        raise ValueError("terminal colors must be in {1,2,3}")
    state = {c: 1 for c in COLORS if c != color_u}
    for i in range(2, b + 1):
        banned = color_u if i % 2 == 1 else color_v
        nxt = {c: 0 for c in COLORS if c != banned}
        for prev, ways in state.items():
            for c in nxt:
                if c != prev:
                    nxt[c] += ways
        state = nxt
    return sum(state.values())


def path_pair_counts(b: int) -> PairCounts:
    """Pair counts (S, D) of P(u,v,b); S = 2 for every b."""
    pc = PairCounts(
        same=path_interior_count(b, 1, 1),
        diff=path_interior_count(b, 1, 2),
    )
    assert pc.same == 2, f"fan invariant violated at b={b}"
    return pc


# The 3^5 raw frame assignments of v1..v5, filtered to proper colorings of
# P(u,v,5) given the terminal colors, reduced to which of the equalities
# v1=v3, v2=v4, v3=v5 hold.  Computed once; 2 same-terminal entries (both
# fully equal, the alternating colorings) and 13 diff-terminal entries.
def _frame_equality_patterns(color_u: int, color_v: int) -> tuple[tuple[bool, bool, bool], ...]:
    patterns = []
    for a in itertools.product(COLORS, repeat=5):
        if any(a[i] == a[i + 1] for i in range(4)):
            continue
        if a[0] == color_u or a[2] == color_u or a[4] == color_u:
            continue
        if a[1] == color_v or a[3] == color_v:
            continue
        patterns.append((a[0] == a[2], a[1] == a[3], a[2] == a[4]))
    return tuple(patterns)


_FRAME_PATTERNS_SAME = _frame_equality_patterns(1, 1)
_FRAME_PATTERNS_DIFF = _frame_equality_patterns(1, 2)
assert _FRAME_PATTERNS_SAME == ((True, True, True),) * 2
assert len(_FRAME_PATTERNS_DIFF) == 13


def _frame_combine(child: PairCounts) -> PairCounts:
    """One recursion level: sum over proper frame colorings of the product
    of child pair counts, one factor per hosted terminal pair."""

    def weight(patterns):
        total = 0
        for e1, e2, e3 in patterns:
            total += (
                (child.same if e1 else child.diff)
                * (child.same if e2 else child.diff)
                * (child.same if e3 else child.diff)
            )
        return total

    return PairCounts(weight(_FRAME_PATTERNS_SAME), weight(_FRAME_PATTERNS_DIFF))


def gadget_pair_counts(k: int, ell: int) -> PairCounts:
    """Pair counts of T(u,v,k,ell) in O(ell) big-integer multiplications."""
    if k < 1:
        raise ValueError("k must be >= 1")
    if ell < 0:
        raise ValueError("ell must be >= 0")
    pc = path_pair_counts(2 ** k)
    for _ in range(ell):
        pc = _frame_combine(pc)
    return pc


def inner_subgraph_pair_counts(ell: int) -> PairCounts:
    """Pair counts of the subgraph induced by the inner vertex set V_ell.

    That subgraph is the gadget skeleton: the same frame recursion with leaf
    copies shrunk to their terminal pairs, so the base case has a single
    empty extension (S = D = 1).  Independent of k.
    """
    if ell < 0:
        raise ValueError("ell must be >= 0")
    pc = PairCounts(1, 1)
    for _ in range(ell):
        pc = _frame_combine(pc)
    return pc


def total_colorings(pc: PairCounts) -> int:
    """Expand pair counts by color-permutation symmetry: 3S + 6D."""
    return 3 * pc.same + 6 * pc.diff


def lemma2_classify(psi: Mapping[int, int]) -> Lemma2Verdict:
    """Classify a proper coloring of P(u,v,5) (indices u=0, v=1, v_i=i+1).

    Rejects partial or improper colorings; reports which of psi(v1)=psi(v3),
    psi(v2)=psi(v4), psi(v3)=psi(v5) hold and whether psi(u)=psi(v).
    """
    for v in range(7):
        if v not in psi:
            raise ValueError(f"coloring is partial: vertex {v} has no color")
        if psi[v] not in COLORS:
            raise ValueError(f"vertex {v} assigned invalid color {psi[v]}")
    for a, b in build_P(5, check=False).graph.edges:
        if psi[a] == psi[b]:
            raise ValueError(f"coloring is improper on edge ({a},{b})")
    witness = frozenset(
        i for i in (1, 2, 3) if psi[i + 1] == psi[i + 3]  # v_i vs v_{i+2}
    )
    return Lemma2Verdict(witness, psi[0] == psi[1])


def count_extensions(
    k: int,
    ell: int,
    psi: Mapping[int, int],
    gadget: Optional[Gadget] = None,
) -> int:
    """Exact number of extensions of an inner-set coloring to the gadget.

    psi must be total and proper on the subgraph of T(u,v,k,ell) induced by
    V_ell; the extension count is the product over leaf pairs of the leaf
    interior count given the pair's colors (exactly 2 when they agree).
    Pass the prebuilt gadget to amortize sweeps.
    """
    if ell < 1:
        raise ValueError("extension counting needs ell >= 1")
    if gadget is None:
        gadget = build_T(k, ell, check=False)
    if (gadget.k, gadget.ell) != (k, ell):
        raise ValueError("gadget does not match (k, ell)")
    inner = gadget.registry.inner_set
    if set(psi) != inner:
        raise ValueError("coloring must be total on the inner vertex set V_ell")
    for v, c in psi.items():
        if c not in COLORS:
            raise ValueError(f"vertex {v} assigned invalid color {c}")
    for a, b in gadget.graph.edges:
        if a in inner and b in inner and psi[a] == psi[b]:
            raise ValueError(f"coloring is improper on inner edge ({a},{b})")
    b = gadget.registry.leaf_b
    product = 1
    for x, y in gadget.registry.pairs:
        product *= path_interior_count(b, psi[x], psi[y])
    return product


def inner_subgraph(gadget: Gadget) -> tuple[Graph, dict[int, int]]:
    """The subgraph induced by the gadget's inner vertex set, plus index map."""
    return induced_subgraph(gadget.graph, gadget.registry.inner_set)
