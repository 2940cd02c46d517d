"""Independent references the benchmark checks jacstab's outputs against.

None of these call the closed forms they check: spanning trees are counted
by enumerating edge subsets, walls by scanning integers, and the Prop 4.1
answer by the unit-difference rule on the twist vector alone.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import combinations


def exhaustive_spanning_trees(graph) -> int:
    """Count the (#V - 1)-subsets of non-loop edges that form a tree."""
    vids = [v.id for v in graph.vertices]
    if len(vids) == 1:
        return 1
    non_loops = [e.ends for e in graph.edges if e.ends[0] != e.ends[1]]
    count = 0
    for subset in combinations(non_loops, len(vids) - 1):
        root = {v: v for v in vids}

        def find(x):
            while root[x] != x:
                x = root[x]
            return x

        for a, b in subset:
            ra, rb = find(a), find(b)
            if ra == rb:
                break
            root[ra] = rb
        else:
            count += 1
    return count


def vine_walls(e: int, lo: Fraction, hi: Fraction) -> list[Fraction]:
    """Every x = m - e/2 with integer m and lo <= x <= hi, by scanning m."""
    half = Fraction(e, 2)
    m = int(lo) - e - 1
    out = []
    while m - half <= hi:
        if m - half >= lo:
            out.append(m - half)
        m += 1
    return out


def prop41_extends(g: int, k: int, a) -> bool:
    """Prop 4.1: "yes" iff a = e_i - e_j and k(2 - 2g) = 0."""
    nonzero = sorted(x for x in a if x != 0)
    return nonzero == [-1, 1] and k * (2 - 2 * g) == 0


def vine_aj_bidegree(vine, k: int, a) -> int:
    """Side-1 degree of omega^{-k}(sum a_i p_i) on a vine."""
    return -k * (2 * vine.g1 - 2 + vine.e) + sum(a[i - 1] for i in vine.S)
