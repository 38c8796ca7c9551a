"""Exact proper-3-coloring counting.

The hot path is closed forms: the fan P(u,v,b) has S = 2 and D = F(b+2), a
Fibonacci number computed by fast doubling, and each recursion level of
T(u,v,k,l) maps (S, D) to (2S^3, S(3S^2 + 6SD + 4D^2)).  S is always a power
of two, so the levels run on (e, r) with S = 2^e and r = 2D/S, where a level
is e -> 3e + 1 and r -> r^2 + 3r + 3: one squaring of r, and no product with
S.  From `_TOOM_BITS` bits on, `_square` squares r by Toom-3, five squarings
of a third the size, which beats CPython's Karatsuba product.  As
r^2 + 3r + 5 <= (r + 2)^2 for r >= 1, r + 2 at most squares per level, and
that one closed form (`_level_bits`) bounds the bit length of every
count, so that each is refused over the bit budget before it is computed.
Four slower routes, kept deliberately independent, are the oracles that
check them:

* a brute-force oracle over any small graph, one forward pass over the free
  vertices in index order that counts the partial colorings per frontier key,
  the color bits, in 3-bit slots, of the earlier free vertices a later one
  sees; it refuses too many free vertices, or a pass that may make over
  `_MAX_CELLS` frontier cells.  Listing walks only the pass's live keys,
* a left-to-right transfer counter for the fan (`_path_interior_transfer`),
* the frame level as a sum over the 13 proper frame colorings with
  terminals (1,2), which the tests build from `_FRAME_EQUALITIES`, the 84
  proper colorings of P(u,v,5) that `iter_colorings` lists once, at import;
  they tie the ratio step to it as a polynomial identity in (S, D),
* a per-coloring extension counter for colorings of the inner vertex set,
  which checks and counts a coloring by one lookup per frame, the seven
  vertices of one copy of P(u,v,5) as the gadget writer recorded them, in
  a table of those 84 colorings.  The frames are checked once per gadget
  against the gadget's inner edges and leaf pairs; a gadget whose frames
  fail that check is refused.

Pair counts (S, D) are the number of colorings with the two terminals fixed
to the same color (1,1) resp. to the ordered pair (1,2); by color-permutation
symmetry the total number of proper 3-colorings is 3S + 6D = 3 * 2^e * (r + 1).
All counts are exact arbitrary-precision integers.
"""
from __future__ import annotations

import math
import sys
from collections import Counter
from dataclasses import dataclass
from functools import cache
from operator import getitem
from typing import Iterator, Mapping, Optional

from .gadgets import CHILD_PAIRS, FRAME_EDGES, Gadget, build_P, check_k_ell
from .graphs import COLORS, Graph, induced_subgraph

DEFAULT_BIT_BUDGET = 10 ** 7
# The oracle refuses more free vertices than this: it bounds `_prepare`'s plan,
# built before any cell is charged, and `count --method brute` and `verify
# --suite remark` check it first.  Kept from the recursive oracle, not re-measured.
MAX_FREE_VERTICES = 800
# The oracle refuses a pass that may make more frontier cells than this.
_MAX_CELLS = 2 ** 24
# Color c is the bit 1 << (c - 1); _ALLOWED[used] lists the bits clear in used.
_ALLOWED = tuple(tuple(bit for bit in (1, 2, 4) if not used & bit) for used in range(8))


class BruteForceCutoffError(ValueError):
    """Raised when the oracle's pass may make more than `_MAX_CELLS` frontier cells."""


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
    """Validate `fixed`, check the free-vertex limit and plan the forward pass:
    the color bits (0 = free) and a level (v, used, shifts, keep, table, cost)
    per free vertex v in index order, or None when two fixed endpoints of an
    edge share a color.  `used` ORs v's fixed neighbors' bits, `shifts` are
    its free ones' slots, `keep` masks the slots kept, `table[u]` holds the
    bits u leaves in v's slot, and `cost` is 3 * (w + 1) for w slots in use."""
    bits = [0] * g.vertex_count
    conflict = False
    for v, c in (fixed or {}).items():
        if not (0 <= v < g.vertex_count):
            raise ValueError(f"fixed vertex {v} out of range")
        if type(c) is not int or c not in COLORS:  # not a float or a bool
            raise ValueError(f"fixed vertex {v} has invalid color {c}")
        bits[v] = 1 << (c - 1)
        conflict = conflict or any(bits[nb] == bits[v] for nb in g.adjacency[v])
    if conflict:
        return None
    check_free_vertices(bits.count(0))
    # Each free vertex that a later one sees -> the last free vertex that sees it.
    seen_until = {nb: v for v, nbrs in enumerate(g.adjacency) if not bits[v]
                  for nb in nbrs if nb < v and not bits[nb]}
    shift_of: dict[int, int] = {}  # each frontier vertex -> the shift of its slot
    keep = 0  # 7 in each slot in use
    plan = []
    for v, nbrs in enumerate(g.adjacency):
        if bits[v]:
            continue
        cost = keep.bit_count() + 3
        used = 0
        shifts = []
        for nb in nbrs:
            used |= bits[nb]  # a free vertex's bits stay 0
            if not bits[nb] and nb < v:
                shifts.append(shift_of[nb])
                if seen_until[nb] == v:
                    keep ^= 7 << shift_of.pop(nb)
        low = ~keep & (keep + 1) if v in seen_until else 0  # the lowest free slot's bit 0
        plan.append((v, used, shifts, keep, _shifted(low), cost))
        if low:
            shift_of[v] = low.bit_length() - 1
            keep |= 7 * low
    return bits, plan


@cache
def _shifted(low: int) -> tuple:
    """`_ALLOWED` times `low`, bit 0 of a vertex's slot (0 if it takes none)."""
    return tuple(tuple(b * low for b in allowed) for allowed in _ALLOWED)


def _forward(g: Graph, plan: list, levels: Optional[list] = None) -> dict[int, int]:
    """The forward pass over `_prepare`'s plan, each level a count per frontier
    key; returns the last level and appends the others to `levels` if given."""
    states = {0: 1}
    charged = 0
    for _, used, shifts, keep, table, cost in plan:
        if (charged := charged + cost * len(states)) > _MAX_CELLS:
            raise BruteForceCutoffError(f"the search of {g.vertex_count} vertices may make"
                                        f" more than {_MAX_CELLS} frontier cells")
        if levels is not None:
            levels.append(states)
        level: dict[int, int] = {}
        get = level.get
        for key, ways in states.items():
            u = used
            for s in shifts:
                u |= key >> s & 7
            key &= keep
            for b in table[u]:
                b |= key
                level[b] = get(b, 0) + ways
        states = level
    return states


def iter_colorings(
    g: Graph, fixed: Optional[Mapping[int, int]] = None
) -> Iterator[dict[int, int]]:
    """Yield every proper total 3-coloring extending `fixed` (as dicts) in the index
    order, refused exactly where `count_colorings_bruteforce` is.  A backward sweep
    over the pass's levels gives each key with a completion the (color, next key's
    pairs) that lead to one; an explicit stack walks them, the last level inline."""
    state = _prepare(g, fixed)
    if state is None:
        return
    bits, plan = state
    colors = [b.bit_length() for b in bits]
    vertices = range(len(colors))
    if not plan:
        yield dict(zip(vertices, colors))
        return
    live = _forward(g, plan, levels := [])
    for _, used, shifts, keep, table, _ in reversed(plan):
        pairs = {}
        for key in levels.pop():
            u = used
            for s in shifts:
                u |= key >> s & 7
            if nxt := [(b.bit_length(), live[k]) for b, shifted in zip(_ALLOWED[u], table[u])
                       if (k := key & keep | shifted) in live]:
                pairs[key] = nxt
        live = pairs
    free = [v for v, *_ in plan]
    last = len(free) - 1
    stack = [iter(live.get(0, ()))]  # free[i]'s pairs; i reaches last only if one is free
    while stack:
        i = len(stack) - 1
        for c, nxt in stack[i]:
            colors[free[i]] = c
            if i + 1 < last:
                stack.append(iter(nxt))
                break
            for c, _ in nxt if i < last else ((c, nxt),):
                colors[free[last]] = c
                yield dict(zip(vertices, colors))
        else:
            stack.pop()


def count_colorings_bruteforce(g: Graph, fixed: Optional[Mapping[int, int]] = None, *,
                               force: bool = False) -> int:
    """Exact number of proper total 3-colorings extending `fixed`: the sum over
    the last level of the forward pass.  Refuses, as `iter_colorings` does,
    more than MAX_FREE_VERTICES free vertices (ValueError) and a pass that may
    make over _MAX_CELLS frontier cells (BruteForceCutoffError).  `force` is
    ignored; perfbench still passes it (ROADMAP item 7)."""
    state = _prepare(g, fixed)
    return 0 if state is None else sum(_forward(g, state[1]).values())


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


def _path_interior_transfer(b: int, color_u: int, color_v: int) -> int:
    """Reference route for the fan's closed form in `path_pair_counts`: a
    left-to-right transfer over v_1..v_b; the state is the color of v_i,
    constrained away from u's color (odd i) or v's color (even i)."""
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


# F(n) = (phi^n - (-1/phi)^n) / sqrt(5) < phi^n / sqrt(5) + 1 for every n >= 0.
_LOG2_PHI = math.log2((1 + math.sqrt(5)) / 2)
_LOG2_SQRT5 = math.log2(5) / 2


def _fan_log2(b: int) -> float:
    """An upper bound on log2(F(b+2) + 2), with a relative margin of 2^-40
    for float rounding.  Below n = b + 2 = 128 it is read off F(n), as
    phi^n / sqrt(5) is loose there; from 128 on, F(n) + 2 < phi^n / sqrt(5) + 3,
    whose log2 exceeds log2(phi^n / sqrt(5)) by far less than the margin, so
    no big integer is built.  Infinite where n is too large for a float."""
    n = b + 2
    try:
        log2 = math.log2(_fibonacci(n) + 2) if n < 128 else n * _LOG2_PHI - _LOG2_SQRT5
    except OverflowError:
        return math.inf
    return log2 * (1 + 2.0 ** -40)


def _level_bits(e: int, log2_r2: float, levels: int) -> float:
    """An upper bound on the bit length of the total count 3 * 2^E * (R + 1)
    that `levels` frame levels reach from S = 2^e and r = 2D/S >= 1, given
    an upper bound `log2_r2` on log2(r + 2).  A level takes e to 3e + 1, so
    E = 3^levels * e + (3^levels - 1)/2, and r to r^2 + 3r + 3, where
    r^2 + 3r + 5 <= (r + 2)^2 for r >= 1, so R + 2 <= (r + 2)^(2^levels)
    and the total, below 2^(E+2) * (R + 2), has at most
    ceil(E + 2 + 2^levels * log2(r + 2)) bits.  Exact in integers from
    `log2_r2` on; infinite where a float would overflow."""
    if levels >= 1024:  # E > 3^1024 / 2 > 2^1024
        return math.inf
    p = 3 ** levels
    try:
        bits = p * e + (p - 1) // 2 + 2 + math.ceil(math.ldexp(log2_r2, levels))
    except OverflowError:  # 2^levels * log2(r + 2) is past a float
        return math.inf
    return bits if bits <= sys.float_info.max else math.inf


def _check_budget(bits: float, what: str, bit_budget: int) -> None:
    """Refuse `what`, before it is computed, when it may need over `bit_budget` bits."""
    if bits > bit_budget:
        raise BitBudgetExceededError(
            f"{what} may need up to {bits:.4g} bits, over the budget of {bit_budget}")


def path_pair_counts(b: int, *, bit_budget: int = DEFAULT_BIT_BUDGET) -> PairCounts:
    """Pair counts (S, D) of P(u,v,b).  Equal terminal colors leave the two
    alternating colorings of the path interior, so S = 2.  With u and v
    colored differently, the odd path vertices pick from two colors and the
    even ones from two, and only the shared third color can clash, so D is
    the Fibonacci number F(b+2).  Refuses with BitBudgetExceededError,
    before D is computed, when `_fan_log2(b)` exceeds `bit_budget`."""
    _check_terminals(b, 1, 2)
    _check_budget(_fan_log2(b), "the fan's D = F(b + 2)", bit_budget)
    return PairCounts(2, _fibonacci(b + 2))


# Every level of T(u,v,k,l) is a frame P(u,v,5), and the fan's numbering
# (u, v, v1, ..., v5) is the frame's order, so its 84 proper colorings, as
# color tuples, serve the extension tables and the tests' 13 frame patterns.
# Each maps to which of v1=v3, v2=v4, v3=v5 hold.
_FRAME_EQUALITIES = {c: tuple(c[i] == c[j] for i, j in CHILD_PAIRS) for c in (
    tuple(col.values()) for col in iter_colorings(build_P(5, check=False).graph))}
assert len(_FRAME_EQUALITIES) == 84
assert [eq for c, eq in _FRAME_EQUALITIES.items() if c[:2] == (1, 1)] == [(True,) * 3] * 2
# A (1,2) pattern with j equal child pairs adds S^j D^(3-j) to D' = 3S^3 + 6S^2 D + 4S D^2.
assert Counter(sum(eq) for c, eq in _FRAME_EQUALITIES.items()
               if c[:2] == (1, 2)) == {1: 4, 2: 6, 3: 3}


# Below this many bits `_square` leaves x * x to CPython's Karatsuba.  Timed on
# operands of 6k to 1.5M bits, one Toom-3 split pays from about 30,000 bits on.
_TOOM_BITS = 30_000


def _square(x: int) -> int:
    """x * x by Toom-3: |x| = x2 B^2 + x1 B + x0 with B = 2^s, s = ceil(n/3),
    is evaluated at 0, 1, -1, -2 and infinity, the five values are squared
    recursively (about n^1.465, against Karatsuba's n^1.585), and the square's
    five coefficients are interpolated by Bodrato's sequence, whose divisions
    by 3 and 2 are exact, then recombined from the top down."""
    x = abs(x)
    n = x.bit_length()
    if n < _TOOM_BITS:
        return x * x
    s = (n + 2) // 3
    mask = (1 << s) - 1
    x0, x1, x2 = x & mask, (x >> s) & mask, x >> 2 * s
    a = x0 + x2
    r0, r_inf = _square(x0), _square(x2)
    r1, r_m1 = _square(a + x1), _square(a - x1)
    r3 = (_square(((x2 << 1) - x1 << 1) + x0) - r1) // 3  # (r(-2) - r(1)) / 3
    r1 = (r1 - r_m1) >> 1
    r2 = r_m1 - r0
    r3 = ((r2 - r3) >> 1) + (r_inf << 1)
    r2 += r1 - r_inf
    r1 -= r3
    return ((((r_inf << s) + r3 << s) + r2 << s) + r1 << s) + r0


def _frame_levels(e: int, r: int, levels: int) -> PairCounts:
    """Run `levels` frame levels from S = 2^e, D = r * 2^(e-1), i.e. r = 2D/S.

    The 13 frame patterns give S' = 2S^3 = 2^(3e+1) and
    D' = S(3S^2 + 6SD + 4D^2) = 2^(3e) (r^2 + 3r + 3), so a level is one
    squaring of r, by `_square`.  (e, r) = (0, 2) is S = D = 1.
    """
    for _ in range(levels):
        e, r = 3 * e + 1, _square(r) + 3 * r + 3
    # D = r * 2^(e-1) in one shift, so no temporary is as large as 2D; r is
    # even when e = 0.
    return PairCounts(1 << e, r << (e - 1) if e else r >> 1)


def predicted_count_bits(k: int, ell: int) -> float:
    """An upper bound on the bit length of the total count of T(u,v,k,ell):
    `_level_bits` from the fan's (e, r) = (1, F(2^k + 2)), with no big
    integer, so that a caller can refuse a count over its bit budget before
    computing it."""
    check_k_ell(k, ell)
    return _level_bits(1, _fan_log2(2 ** k) if k < 1024 else math.inf, ell)  # 2^1024: no float


def gadget_pair_counts(k: int, ell: int, *, bit_budget: int = DEFAULT_BIT_BUDGET) -> PairCounts:
    """Pair counts of T(u,v,k,ell): one squaring of r = 2D/S per level.
    Refuses with BitBudgetExceededError, before the fan or any level is
    computed, when `predicted_count_bits(k, ell)` exceeds `bit_budget`."""
    _check_budget(predicted_count_bits(k, ell), f"the count of T({k},{ell})", bit_budget)
    return _frame_levels(1, _fibonacci(2 ** k + 2), ell)  # the fan: S = 2, r = D


def inner_count_bits(ell: int) -> float:
    """An upper bound on the bit length of the total count of the V_ell
    subgraph: `_level_bits` from (e, r) = (0, 2), which is
    (3^ell - 1)/2 + 2 + 2^(ell+1), tight at ell = 0 and 1."""
    return _level_bits(0, 2.0, ell)


def inner_subgraph_pair_counts(ell: int, *, bit_budget: int = DEFAULT_BIT_BUDGET) -> PairCounts:
    """Pair counts of the subgraph induced by the inner vertex set V_ell.

    That subgraph is the gadget skeleton: the same frame recursion with leaf
    copies shrunk to their terminal pairs, so the base case has a single
    empty extension (S = D = 1).  Independent of k.  Refuses with
    BitBudgetExceededError, before any level is computed, when
    `inner_count_bits(ell)` exceeds `bit_budget`.
    """
    if ell < 0:
        raise ValueError("ell must be >= 0")
    _check_budget(inner_count_bits(ell), f"the count of the V_{ell} subgraph", bit_budget)
    return _frame_levels(0, 2, ell)


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
    the closed form 2^e * F(b+2)^(p-e).  psi, as a dict, is checked and
    counted by one lookup per frame (`Gadget.checked_frames`) in a table of
    P(u,v,5)'s colorings; a gadget whose frames do not check is refused, and
    a lookup that misses is a fault in psi, which the checks after it name.
    """
    if ell < 1:
        raise ValueError("extension counting needs ell >= 1")
    if (gadget.k, gadget.ell) != (k, ell):
        raise ValueError("gadget does not match (k, ell)")
    flat = gadget.checked_frames
    if flat is None:
        raise ValueError("the gadget's frames are not those of T(u,v,k,ell)")
    inner = gadget.registry.inner_set
    # Exactly a dict: a subclass's __missing__ could color a vertex psi lacks.
    psi = psi if type(psi) is dict else dict(psi)
    if len(psi) == len(inner):
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
    raise AssertionError("a coloring that passes every check matched every frame table")


def inner_subgraph(gadget: Gadget) -> tuple[Graph, dict[int, int]]:
    """The subgraph induced by the gadget's inner vertex set, plus index map."""
    return induced_subgraph(gadget.graph, gadget.registry.inner_set)
