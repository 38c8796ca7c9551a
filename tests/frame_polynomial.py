"""Reference frame level: one recursion level as a polynomial in (S, D).

This is the level step the library kept beside the ratio form until the
tests tied the ratio step to the 13 frame colorings by a polynomial
identity.  It maps a child's pair counts (S, D), for any S, to
S' = 2S^3 and D' = S(3S^2 + 6SD + 4D^2).  The tests iterate it into the
chains that the ratio form must match level by level.
"""
from threecolor.counting import PairCounts


def frame_combine(child: PairCounts) -> PairCounts:
    s, d = child.same, child.diff
    s2 = s * s
    return PairCounts(2 * s2 * s, s * (3 * s2 + 6 * s * d + 4 * d * d))
