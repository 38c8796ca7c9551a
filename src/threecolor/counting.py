"""Exact proper-3-coloring counting.

The hot path is closed forms: the fan P(u,v,b) has S = 2 and D = F(b+2), a
Fibonacci number computed by fast doubling, and each recursion level of
T(u,v,k,l) maps (S, D) to (2S^3, S(3S^2 + 6SD + 4D^2)).  S is always a power
of two, so the levels run on (e, r) with S = 2^e and r = 2D/S, where a level
is e -> 3e + 1 and r -> r^2 + 3r + 3: one squaring of r, and no product with
S.  Four slower routes, kept deliberately independent, are the oracles that
check them:

* a brute-force backtracking oracle over any small graph, which lists each
  free vertex's colored neighbors once, caches each level's count per call
  by the colors of the earlier free vertices the rest of the search still
  sees, and refuses too many free vertices or a search past its cache,
* a left-to-right transfer counter for the fan (`_path_interior_transfer`),
* the frame level as a sum over the 13 proper frame colorings with
  terminals (1,2) (`_frame_combine_patterns`), read off the 84 proper
  colorings of P(u,v,5), which `iter_colorings` lists once, at import;
  the tests tie the ratio step to it as a polynomial identity in (S, D),
* a per-coloring extension counter for colorings of the inner vertex set,
  which checks and counts a coloring by one lookup per frame, the seven
  vertices of one copy of P(u,v,5) as the gadget writer recorded them, in
  a table of those 84 colorings.  The frames are checked once per gadget
  against the gadget's inner edges and leaf pairs.

Pair counts (S, D) are the number of colorings with the two terminals fixed
to the same color (1,1) resp. to the ordered pair (1,2); by color-permutation
symmetry the total number of proper 3-colorings is 3S + 6D = 3 * 2^e * (r + 1).
All counts are exact arbitrary-precision integers.
"""
from __future__ import annotations

import math
from collections import Counter
from dataclasses import dataclass
from functools import cache
from operator import getitem
from typing import Iterator, Mapping, Optional

from .gadgets import CHILD_PAIRS, FRAME_EDGES, Gadget, build_P, check_k_ell
from .graphs import COLORS, Graph, induced_subgraph

DEFAULT_BIT_BUDGET = 10 ** 7
DEFAULT_BRUTE_FORCE_CUTOFF = 20
# The oracle recurses one frame per free vertex, the last making no call,
# and so no more than 800 deep, leaving 200 of Python's 1000 to callers;
# `iter_colorings` keeps the same limit.
MAX_FREE_VERTICES = 800
# Color c is the bit 1 << (c - 1); _ALLOWED[used] lists the bits clear in used.
_ALLOWED = tuple(tuple(bit for bit in (1, 2, 4) if not used & bit) for used in range(8))


class BruteForceCutoffError(ValueError):
    """Raised when the backtracking oracle is asked for too large a graph."""


class BitBudgetExceededError(RuntimeError):
    """A requested power of two or count would exceed the configured bit budget."""


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


def check_free_vertices(count: int) -> None:
    """Refuse to backtrack over more than MAX_FREE_VERTICES free vertices."""
    if count > MAX_FREE_VERTICES:
        raise ValueError(f"{count} free vertices exceed the limit of {MAX_FREE_VERTICES}")


def _prepare(g: Graph, fixed: Optional[Mapping[int, int]]):
    """Validate `fixed`, check the free-vertex limit and lay out the backtracking state.

    Returns the color bits (0 = free) and, for each free vertex in index
    order, the vertex and its neighbors colored when it is reached: the
    fixed ones and the earlier free ones.  Returns None when two fixed
    endpoints of an edge share a color, so that no coloring extends `fixed`.
    """
    bits = [0] * g.vertex_count
    conflict = False
    for v, c in (fixed or {}).items():
        if not (0 <= v < g.vertex_count):
            raise ValueError(f"fixed vertex {v} out of range")
        if c not in COLORS:
            raise ValueError(f"fixed vertex {v} has invalid color {c}")
        bits[v] = 1 << (c - 1)
        conflict = conflict or any(bits[nb] == bits[v] for nb in g.adjacency[v])
    if conflict:
        return None
    check_free_vertices(bits.count(0))
    return bits, [(v, tuple(nb for nb in nbrs if bits[nb] or nb < v))
                  for v, nbrs in enumerate(g.adjacency) if not bits[v]]


def iter_colorings(
    g: Graph, fixed: Optional[Mapping[int, int]] = None
) -> Iterator[dict[int, int]]:
    """Yield every proper total 3-coloring extending `fixed` (as dicts), in the
    index order and under the limit of `count_colorings_bruteforce`, with no
    cache.  The levels are walked with an explicit stack of color iterators,
    one per free vertex, so a coloring passes up through no generator
    frames."""
    state = _prepare(g, fixed)
    if state is None:
        return
    bits, order = state
    if not order:
        yield dict(enumerate(map(int.bit_length, bits)))
        return
    last = len(order) - 1
    stack = []  # stack[i] iterates over the colors left for order[i]
    i = 0
    while i >= 0:
        v, colored = order[i]
        if i == len(stack):
            used = 0
            for nb in colored:
                used |= bits[nb]
            stack.append(iter(_ALLOWED[used]))
        bits[v] = b = next(stack[i], 0)
        if not b:
            stack.pop()
            i -= 1
        elif i == last:
            yield dict(enumerate(map(int.bit_length, bits)))
        else:
            i += 1


# The oracle caches at most this many sub-search counts per call, so that a
# graph too large to finish holds bounded memory; once the cache is full, it
# refuses after this many more sub-searches, so that such a graph stops.
_CACHE_ENTRIES = 2 ** 18
_UNCACHED_SEARCHES = 2 ** 20
# A cache key holds the level in its low bits, so no two levels share a key.
_LEVEL_BITS = MAX_FREE_VERTICES.bit_length()


def count_colorings_bruteforce(
    g: Graph,
    fixed: Optional[Mapping[int, int]] = None,
    *,
    cutoff: int = DEFAULT_BRUTE_FORCE_CUTOFF,
    force: bool = False,
) -> int:
    """Exact number of proper total 3-colorings extending `fixed`.

    Backtracks over the free vertices in index order; each looks up the
    colors its colored neighbors leave in `_ALLOWED`, and the last one
    counts how many are left.  The completions from a level depend only on
    the colors of its frontier, the earlier free vertices that some vertex
    at that level or later sees, so each level's count is cached per call
    by those colors and the level, up to _CACHE_ENTRIES entries.  Refuses
    graphs above the vertex cutoff (default 20) unless `force` is given,
    and always refuses more than MAX_FREE_VERTICES free vertices, and a
    search that makes more than _UNCACHED_SEARCHES sub-searches past a full
    cache.
    """
    if g.vertex_count > cutoff and not force:
        raise BruteForceCutoffError(
            f"{g.vertex_count} vertices exceeds the brute-force cutoff {cutoff}"
            " (pass force=True to override)"
        )
    state = _prepare(g, fixed)
    if state is None:
        return 0
    bits, order = state
    # Each free vertex that a later one sees -> the last level that sees it.
    last_seen = {nb: i for i, (_, colored) in enumerate(order)
                 for nb in colored if not bits[nb]}
    frontiers = []
    frontier: tuple[int, ...] = ()
    for i, (v, _) in enumerate(order):
        frontier = tuple(w for w in frontier if last_seen[w] >= i)
        frontiers.append(frontier)
        if v in last_seen:
            frontier += (v,)
    last = len(order) - 1
    cache: dict[int, int] = {}
    uncached = _UNCACHED_SEARCHES

    def rec(i: int) -> int:
        nonlocal uncached
        key = 0
        for w in frontiers[i]:
            key = key << 3 | bits[w]
        key = key << _LEVEL_BITS | i
        total = cache.get(key)
        if total is not None:
            return total
        v, colored = order[i]
        used = 0
        for nb in colored:
            used |= bits[nb]
        allowed = _ALLOWED[used]
        if i == last:
            total = len(allowed)
        else:
            total = 0
            for b in allowed:
                bits[v] = b
                total += rec(i + 1)
            bits[v] = 0
        if len(cache) < _CACHE_ENTRIES:
            cache[key] = total
        elif (uncached := uncached - 1) < 0:
            raise BruteForceCutoffError(
                f"the search of {g.vertex_count} vertices outgrew its cache of"
                f" {_CACHE_ENTRIES} entries by {_UNCACHED_SEARCHES} sub-searches")
        return total

    return rec(0) if order else 1


def _check_terminals(b: int, color_u: int, color_v: int) -> None:
    if b < 1:
        raise ValueError("b must be >= 1")
    if color_u not in COLORS or color_v not in COLORS:
        raise ValueError("terminal colors must be in {1,2,3}")


def _fibonacci(n: int) -> int:
    """F(n) by fast doubling: F(2j) = F(j)(2F(j+1) - F(j)) and
    F(2j+1) = F(j)^2 + F(j+1)^2, one bit of n per step."""
    a, b = 0, 1  # F(j), F(j+1) for j = the bits of n read so far
    for bit in bin(n)[2:]:
        a, b = a * (2 * b - a), a * a + b * b
        if bit == "1":
            a, b = b, a + b
    return a


def path_interior_count(b: int, color_u: int, color_v: int) -> int:
    """Colorings of the path interior of P(u,v,b) with the terminals fixed.

    Equal terminal colors leave the two alternating colorings.  With u and v
    colored differently, the odd path vertices pick from two colors and the
    even ones from two, and only the shared third color can clash, so the
    count is the Fibonacci number F(b+2).
    """
    _check_terminals(b, color_u, color_v)
    return 2 if color_u == color_v else _fibonacci(b + 2)


def _path_interior_transfer(b: int, color_u: int, color_v: int) -> int:
    """Reference route for `path_interior_count`: a left-to-right transfer
    over v_1..v_b; the state is the color of v_i, constrained away from u's
    color (odd i) or v's color (even i)."""
    _check_terminals(b, color_u, color_v)
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


def path_pair_counts(b: int, *, bit_budget: int = DEFAULT_BIT_BUDGET) -> PairCounts:
    """Pair counts (S, D) of P(u,v,b); S = 2 for every b.

    Refuses with BitBudgetExceededError, before D = F(b+2) is computed, when
    a float bound on its bit length exceeds `bit_budget`.
    """
    _check_terminals(b, 1, 2)
    bits = _fibonacci_bits(b + 2)
    if bits > bit_budget:
        raise BitBudgetExceededError(
            f"the fan's D = F(b + 2) may need up to {bits:.4g} bits,"
            f" over the budget of {bit_budget}"
        )
    pc = PairCounts(path_interior_count(b, 1, 1), path_interior_count(b, 1, 2))
    assert pc.same == 2, f"fan invariant violated at b={b}"
    return pc


# Every level of T(u,v,k,l) is a frame P(u,v,5), and the fan's numbering
# (u, v, v1, ..., v5) is the frame's order, so its 84 proper colorings, as
# color tuples, serve lemma 2, the 13 frame patterns and the extension
# tables.  Each maps to which of v1=v3, v2=v4, v3=v5 hold.
_FRAME_EQUALITIES = {c: tuple(c[i] == c[j] for i, j in CHILD_PAIRS) for c in (
    tuple(col.values()) for col in iter_colorings(build_P(5, check=False).graph))}
_FRAME_PATTERNS_SAME = tuple(eq for c, eq in _FRAME_EQUALITIES.items() if c[:2] == (1, 1))
_FRAME_PATTERNS_DIFF = tuple(eq for c, eq in _FRAME_EQUALITIES.items() if c[:2] == (1, 2))
assert len(_FRAME_EQUALITIES) == 84
assert _FRAME_PATTERNS_SAME == ((True, True, True),) * 2
assert len(_FRAME_PATTERNS_DIFF) == 13
# A pattern with j equal child pairs contributes S^j D^(3-j), so this
# profile gives the level's closed form D' = 3S^3 + 6S^2 D + 4S D^2.
assert Counter(map(sum, _FRAME_PATTERNS_DIFF)) == {1: 4, 2: 6, 3: 3}


def _frame_combine_patterns(child: PairCounts) -> PairCounts:
    """Reference route for `_frame_levels`, for any (S, D): sum over proper
    frame colorings of the product of child pair counts, one factor per
    hosted terminal pair."""

    def weight(patterns):
        return sum(math.prod(child.same if eq else child.diff for eq in p) for p in patterns)

    return PairCounts(weight(_FRAME_PATTERNS_SAME), weight(_FRAME_PATTERNS_DIFF))


def _frame_levels(e: int, r: int, levels: int) -> PairCounts:
    """Run `levels` frame levels from S = 2^e, D = r * 2^(e-1), i.e. r = 2D/S.

    The 13 frame patterns give S' = 2S^3 = 2^(3e+1) and
    D' = S(3S^2 + 6SD + 4D^2) = 2^(3e) (r^2 + 3r + 3), so a level is one
    squaring of r.  (e, r) = (0, 2) is S = D = 1.
    """
    for _ in range(levels):
        e, r = 3 * e + 1, r * r + 3 * r + 3
    # D = r * 2^(e-1) in one shift, so no temporary is as large as 2D; r is
    # even when e = 0.
    return PairCounts(1 << e, r << (e - 1) if e else r >> 1)


def gadget_pair_counts(k: int, ell: int, *, bit_budget: int = DEFAULT_BIT_BUDGET) -> PairCounts:
    """Pair counts of T(u,v,k,ell): one squaring of r = 2D/S per level.

    Refuses with BitBudgetExceededError, before the fan or any level is
    computed, when `predicted_count_bits(k, ell)` exceeds `bit_budget`.
    """
    bits = predicted_count_bits(k, ell)
    if bits > bit_budget:
        raise BitBudgetExceededError(
            f"the count of T({k},{ell}) may need up to {bits:.4g} bits,"
            f" over the budget of {bit_budget}"
        )
    fan = path_pair_counts(2 ** k, bit_budget=bit_budget)  # S = 2
    return _frame_levels(1, fan.diff, ell)


# F(n) = (phi^n - (-1/phi)^n) / sqrt(5) < phi^n / sqrt(5) for even n > 0,
# and < phi^n / sqrt(5) + 1 for every n >= 0.
_LOG2_PHI = math.log2((1 + math.sqrt(5)) / 2)
_LOG2_SQRT5 = math.log2(5) / 2


def _fibonacci_bits(n: int) -> float:
    """An upper bound on the bit length of F(n), n >= 1, with no big integer:
    F(n) < x + 1 for x = phi^n / sqrt(5), so it is at most max(log2 x, 0) + 2;
    with the float margin of `predicted_count_bits`."""
    try:
        log2_bound = n * _LOG2_PHI - _LOG2_SQRT5
    except OverflowError:  # n is too large for a float
        return math.inf
    return (max(log2_bound, 0.0) + 2) * (1 + 2.0 ** -20)


def predicted_count_bits(k: int, ell: int) -> float:
    """An upper bound on the bit length of the total count of T(u,v,k,ell).

    Runs the closed-form recursion on log2 S and log2 D in floating point,
    in O(ell) steps and with no big integer, so that a caller can refuse a
    count over its bit budget before computing it.  The fan starts from
    log2 of phi^(b+2) / sqrt(5), which exceeds log2 F(b+2) because b + 2 is
    even.  The bit length is at most log2(c) + 1; the result adds a relative
    margin of 2^-20 and one more bit for float rounding.  It is infinite
    where a float would overflow.
    """
    check_k_ell(k, ell)
    if k >= 1024:
        return math.inf
    s = 1.0                                          # log2 S, S = 2
    d = (2.0 ** k + 2) * _LOG2_PHI - _LOG2_SQRT5     # log2 D, D = F(2^k + 2)
    for _ in range(ell):
        if d == math.inf:
            return math.inf
        r = 2.0 ** (s - d)                           # S / D <= 1
        s, d = 1 + 3 * s, s + 2 * d + math.log2(3 * r * r + 6 * r + 4)
    return (d + math.log2(6 + 3 * 2.0 ** (s - d))) * (1 + 2.0 ** -20) + 2


def inner_subgraph_pair_counts(ell: int, *, bit_budget: int = DEFAULT_BIT_BUDGET) -> PairCounts:
    """Pair counts of the subgraph induced by the inner vertex set V_ell.

    That subgraph is the gadget skeleton: the same frame recursion with leaf
    copies shrunk to their terminal pairs, so the base case has a single
    empty extension (S = D = 1).  Independent of k.

    Refuses with BitBudgetExceededError, before any level is computed, when
    the closed-form bound `inner_count_bits(ell)` exceeds `bit_budget`.
    """
    if ell < 0:
        raise ValueError("ell must be >= 0")
    bits = inner_count_bits(ell)
    if bits > bit_budget:
        raise BitBudgetExceededError(
            f"the count of the V_{ell} subgraph may need up to {bits:.4g} bits,"
            f" over the budget of {bit_budget}"
        )
    return _frame_levels(0, 2, ell)


def inner_count_bits(ell: int) -> float:
    """An upper bound on the bit length of the total count of the V_ell subgraph.

    The total is 3 * 2^e * (r + 1) with e = (3^ell - 1)/2, and r + 2 at most
    squares per level from r = 2, so r + 1 < 4^(2^ell) and the bit length is
    at most e + 2 + 2^(ell+1), tight at ell = 0 and 1.  Exact in floats below
    ell = 34, with a relative margin of 2^-20 above.
    """
    if ell > 600:
        return math.inf
    bits = (3.0 ** ell - 1) / 2 + 2.0 ** (ell + 1) + 2
    return bits if ell < 34 else bits * (1 + 2.0 ** -20)


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
    for a, b in FRAME_EDGES:
        if psi[a] == psi[b]:
            raise ValueError(f"coloring is improper on edge ({a},{b})")
    witness = frozenset(i for i, (x, y) in enumerate(CHILD_PAIRS, 1) if psi[x] == psi[y])
    return Lemma2Verdict(witness, psi[0] == psi[1])


@cache
def _extension_tables(frames: int, leaf_b: int) -> tuple[tuple[dict, ...], int]:
    """Per frame of a gadget with `frames` frames, top level first, a table
    from each coloring of P(u,v,5) to its number of equal child pairs in a
    bottom frame and to 0 in an upper one; and F(leaf_b + 2)."""
    bottom = {c: sum(eq) for c, eq in _FRAME_EQUALITIES.items()}
    upper = dict.fromkeys(_FRAME_EQUALITIES, 0)
    tables = (upper,) * (frames // 3) + (bottom,) * (frames - frames // 3)
    return tables, _fibonacci(leaf_b + 2)


def count_extensions(
    k: int,
    ell: int,
    psi: Mapping[int, int],
    *,
    gadget: Gadget,
) -> int:
    """Exact number of extensions of an inner-set coloring to the gadget.

    psi must be total and proper on the subgraph of T(u,v,k,ell) induced by
    V_ell, and `gadget` the built T(u,v,k,ell), so that sweeps build it
    once.  A leaf interior has 2 colorings when its pair's ends agree and
    F(b+2) when not, so with p leaf pairs, e of them agreeing, the count is
    the closed form 2^e * F(b+2)^(p-e).

    A dict psi is checked and counted by one lookup per frame
    (`Gadget.checked_frames`) in a table of P(u,v,5)'s colorings; any
    lookup that misses, and any gadget without checked recorded frames,
    falls back to checking psi vertex by vertex and edge by edge, which
    alone raises.
    """
    if ell < 1:
        raise ValueError("extension counting needs ell >= 1")
    if (gadget.k, gadget.ell) != (k, ell):
        raise ValueError("gadget does not match (k, ell)")
    flat = gadget.checked_frames
    inner = gadget.registry.inner_set
    # Exactly a dict: a subclass's __missing__ could color a vertex psi lacks.
    if flat is not None and type(psi) is dict and len(psi) == len(inner):
        tables, fib = _extension_tables(len(flat) // 7, gadget.registry.leaf_b)
        try:  # a missing vertex, an invalid color or an improper edge misses a table
            equal = sum(map(getitem, tables, zip(*[map(psi.__getitem__, flat)] * 7)))
        except (KeyError, TypeError):
            pass  # the checks below name the fault
        else:
            return fib ** (len(gadget.registry.pairs) - equal) << equal
    if set(psi) != inner:
        raise ValueError("coloring must be total on the inner vertex set V_ell")
    for v, c in psi.items():
        if c not in COLORS:
            raise ValueError(f"vertex {v} assigned invalid color {c}")
    adjacency = gadget.graph.adjacency
    for a in psi:
        for b in adjacency[a]:
            if a < b and b in inner and psi[a] == psi[b]:
                raise ValueError(f"coloring is improper on inner edge ({a},{b})")
    pairs = gadget.registry.pairs
    equal = sum(psi[x] == psi[y] for x, y in pairs)
    return _fibonacci(gadget.registry.leaf_b + 2) ** (len(pairs) - equal) << equal


def inner_subgraph(gadget: Gadget) -> tuple[Graph, dict[int, int]]:
    """The subgraph induced by the gadget's inner vertex set, plus index map."""
    return induced_subgraph(gadget.graph, gadget.registry.inner_set)
