"""Reference frame level: one recursion level as a polynomial in (S, D).

This is the level step the library kept beside the ratio form until the
tests tied the ratio step to the 13 frame colorings by a polynomial
identity.  It maps a child's pair counts (S, D), for any S, to
S' = 2S^3 and D' = S(3S^2 + 6SD + 4D^2).  The tests iterate it into the
chains that the ratio form must match level by level.

The same level as a sum over frame patterns: the proper colorings of
P(u,v,5) with terminals (1,1) resp. (1,2), read off `counting`'s list of
its 84 colorings, each reduced to which of v1=v3, v2=v4, v3=v5 hold.
"""
import math

from threecolor.counting import _FRAME_EQUALITIES, PairCounts

FRAME_PATTERNS_SAME = tuple(eq for c, eq in _FRAME_EQUALITIES.items() if c[:2] == (1, 1))
FRAME_PATTERNS_DIFF = tuple(eq for c, eq in _FRAME_EQUALITIES.items() if c[:2] == (1, 2))


def frame_combine(child: PairCounts) -> PairCounts:
    s, d = child.same, child.diff
    s2 = s * s
    return PairCounts(2 * s2 * s, s * (3 * s2 + 6 * s * d + 4 * d * d))


def frame_combine_patterns(child: PairCounts) -> PairCounts:
    """The level for any (S, D) as a sum over the frame patterns of the
    product of child pair counts, one factor per hosted terminal pair."""

    def weight(patterns):
        return sum(math.prod(child.same if eq else child.diff for eq in p) for p in patterns)

    return PairCounts(weight(FRAME_PATTERNS_SAME), weight(FRAME_PATTERNS_DIFF))
