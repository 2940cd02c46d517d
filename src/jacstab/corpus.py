"""Graph corpora and randomized samplers for the property suites.

The exhaustive corpus enumerates every connected stable dual graph within
the given vertex/edge/genus/marking bounds, one per class under vertex
relabeling, by orderly generation (McKay, "Isomorph-free exhaustive
generation", J. Algorithms 26, 1998): candidates come in lexicographic
order and one is kept exactly when no relabeling makes it smaller.  Each
vertex adds at least 1 to 2g - 2 + n, which caps the vertex count.

The samplers' ``rng`` calls and their order are a replay contract: a
``verify`` seed must draw the same phis again.  A draw is a list of
integer numerators over one ``q``, accepted or rejected on its subcurve
sums by the predicates behind ``is_nondegenerate`` and
``is_small_perturbation`` before any object exists; only an accepted draw
becomes a :class:`PhiVector`, its sums and wall verdict already set.  Both
predicates read the same on a subcurve and its complement, so a draw is
summed on one subcurve of each complementary pair, the first half of the
graph's table.
"""

from __future__ import annotations

import random
from fractions import Fraction
from itertools import combinations_with_replacement, permutations, product

from .errors import PhiConstructionError
from .graph import DualGraph, _connected, _side_stable
from .stability import (
    PhiVector,
    _half,
    _nondegenerate_sums,
    _small_perturbation_sums,
    _subcurve_sums,
)

_DENOMINATORS = (3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41)


def _relabel(ends, perm):
    return tuple(sorted(tuple(sorted((perm[a], perm[b]))) for a, b in ends))


def _edge_multiset_classes(num_vertices: int, num_edges: int,
                           max_low: int):
    """Connected edge multisets up to relabeling, with their automorphisms
    and vertex valences; each is the first, hence smallest, member of its
    class.  On 2 or more vertices, one with a vertex of valence 0 or with
    more than ``max_low`` vertices of valence <= 2 is skipped before any
    other test: a stable vertex of valence <= 2 needs genus or a marking,
    so ``max_low`` is the genus the edges leave plus the markings."""
    pair_types = [(i, j) for i in range(num_vertices)
                  for j in range(i, num_vertices)]
    perms = list(permutations(range(num_vertices)))
    for ends in combinations_with_replacement(pair_types, num_edges):
        valence = [0] * num_vertices
        for a, b in ends:
            valence[a] += 1
            valence[b] += 1
        if num_vertices > 1 and (0 in valence or
                                 sum(v <= 2 for v in valence) > max_low):
            continue
        if not _connected(num_vertices, ends):
            continue
        auts = []
        for p in perms:
            image = _relabel(ends, p)
            if image < ends:
                break
            if image == ends:
                auts.append(p)
        else:
            yield ends, auts, valence


def stable_graph_corpus(max_vertices: int = 4, max_edges: int = 7,
                        max_genus: int = 3, max_markings: int = 2) -> list[DualGraph]:
    """All connected stable graphs within the bounds, up to relabeling."""
    graphs = []
    for nv in range(1, min(max_vertices, 2 * max_genus - 2 + max_markings) + 1):
        min_e = nv - 1
        max_e = min(max_edges, nv + max_genus - 1)  # keeps b1 <= max_genus
        for ne in range(min_e, max_e + 1):
            b1 = ne - nv + 1
            for ends, auts, valence in _edge_multiset_classes(
                    nv, ne, max_genus - b1 + max_markings):
                for n in range(1, max_markings + 1):
                    # kept when no automorphism maps (hs, assign) to a smaller
                    # pair; auts is a group, so hs o p covers every image
                    for hs in product(range(max_genus - b1 + 1), repeat=nv):
                        g = sum(hs) + b1
                        if not 1 <= g <= max_genus:
                            continue
                        if any(tuple(hs[v] for v in p) < hs for p in auts):
                            continue
                        fixing = [p for p in auts
                                  if tuple(hs[v] for v in p) == hs]
                        for assign in product(range(nv), repeat=n):
                            if any(tuple(p[v] for v in assign) < assign
                                   for p in fixing):
                                continue
                            if not all(_side_stable(hs[v], valence[v],
                                                    assign.count(v))
                                       for v in range(nv)):
                                continue
                            graphs.append(DualGraph.build(
                                [(v, hs[v], [i + 1 for i in range(n)
                                             if assign[i] == v])
                                 for v in range(nv)],
                                ends, n, g))
    return graphs


def _draw(graph: DualGraph, rng: random.Random, bound: int) -> list:
    """Numerators drawn from [-bound, bound] on every vertex but the last
    (in id order); the last one balances the sum."""
    nums = [rng.randint(-bound, bound) for _ in graph.vertex_ids[1:]]
    nums.append(-sum(nums))
    return nums


def random_phi(graph: DualGraph, rng: random.Random) -> PhiVector:
    """Random exact rational phi summing to zero."""
    q = rng.choice(_DENOMINATORS)
    return PhiVector._from_numerators(graph, q, _draw(graph, rng, 3 * q))


def random_nondegenerate_phi(graph: DualGraph,
                             rng: random.Random) -> PhiVector:
    """The first :func:`random_phi` draw off every wall."""
    rows = _half(graph.subcurve_rows)
    for _ in range(1000):
        q = rng.choice(_DENOMINATORS)
        nums = _draw(graph, rng, 3 * q)
        sums = _subcurve_sums(rows, nums)
        if _nondegenerate_sums(rows, sums, q):
            return PhiVector._from_numerators(graph, q, nums, (rows, sums),
                                              True)
    raise PhiConstructionError("failed to sample a nondegenerate phi")


def random_small_perturbation_phi(graph: DualGraph,
                                  rng: random.Random) -> PhiVector:
    """Random nondegenerate phi with |phi(C0)| < cr(C0)/2 everywhere."""
    nv = len(graph.vertices)
    if nv == 1:
        return PhiVector(graph, {graph.vertex_ids[0]: Fraction(0)})
    rows = _half(graph.subcurve_rows)   # cr(C0^c) = cr(C0)
    min_cr = min(row[5] for row in rows)
    for _ in range(1000):
        q = rng.choice(_DENOMINATORS)
        # numerator box keeps every subcurve sum inside the bound
        nums = _draw(graph, rng, max(1, (min_cr * q) // (4 * nv)))
        sums = _subcurve_sums(rows, nums)
        if (_small_perturbation_sums(rows, sums, q)
                and _nondegenerate_sums(rows, sums, q)):
            return PhiVector._from_numerators(graph, q, nums, (rows, sums),
                                              True)
    raise PhiConstructionError("failed to sample a small-perturbation phi")


def random_wall_phi(graph: DualGraph, rng: random.Random) -> PhiVector | None:
    """Phi placed exactly on a wall of some subcurve, or None for 1 vertex:
    phi(C0) = k - cr(C0)/2, k in [-2, 2], on C0's first vertex against the
    first vertex outside it."""
    if len(graph.vertices) < 2:
        return None
    info = rng.choice(graph.subcurve_data)
    x = 2 * rng.randint(-2, 2) - info.cr   # over q = 2
    nums = dict.fromkeys(graph.vertex_ids, 0)
    nums[info.vertices[0]] = x
    nums[min(nums.keys() - info.vertex_set)] = -x
    return PhiVector._from_numerators(graph, 2, list(nums.values()))
