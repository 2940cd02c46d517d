"""Graph corpora and randomized samplers for the property suites.

The exhaustive corpus enumerates every connected stable dual graph within
the given vertex/edge/genus/marking bounds, one per class under vertex
relabeling, by orderly generation (McKay, "Isomorph-free exhaustive
generation", J. Algorithms 26, 1998): candidates come in lexicographic
order and one is kept exactly when no relabeling makes it smaller.  Each
vertex adds at least 1 to 2g - 2 + n, which caps the vertex count.
"""

from __future__ import annotations

import random
from fractions import Fraction
from itertools import combinations_with_replacement, permutations, product

from .errors import PhiConstructionError
from .graph import DualGraph, _connected, _side_stable
from .stability import PhiVector, is_nondegenerate, is_small_perturbation

_DENOMINATORS = (3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41)


def _relabel(ends, perm):
    return tuple(sorted(tuple(sorted((perm[a], perm[b]))) for a, b in ends))


def _edge_multiset_classes(num_vertices: int, num_edges: int):
    """Connected edge multisets up to relabeling, with their automorphisms;
    each is the first, hence smallest, member of its class."""
    pair_types = [(i, j) for i in range(num_vertices)
                  for j in range(i, num_vertices)]
    perms = list(permutations(range(num_vertices)))
    for ends in combinations_with_replacement(pair_types, num_edges):
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
            yield ends, auts


def stable_graph_corpus(max_vertices: int = 4, max_edges: int = 7,
                        max_genus: int = 3, max_markings: int = 2) -> list[DualGraph]:
    """All connected stable graphs within the bounds, up to relabeling."""
    graphs = []
    for nv in range(1, min(max_vertices, 2 * max_genus - 2 + max_markings) + 1):
        min_e = nv - 1
        max_e = min(max_edges, nv + max_genus - 1)  # keeps b1 <= max_genus
        for ne in range(min_e, max_e + 1):
            b1 = ne - nv + 1
            for ends, auts in _edge_multiset_classes(nv, ne):
                valence = [0] * nv
                for a, b in ends:
                    valence[a] += 1
                    valence[b] += 1
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


def _balanced_phi(graph: DualGraph, rng: random.Random, q: int,
                  bound: int) -> PhiVector:
    """Phi with numerators over ``q`` drawn from [-bound, bound] on every
    vertex but the last (in id order); the last one balances the sum."""
    vids = graph.vertex_ids
    nums = [rng.randint(-bound, bound) for _ in vids[:-1]]
    nums.append(-sum(nums))
    return PhiVector._from_numerators(graph, q, dict(zip(vids, nums)))


def random_phi(graph: DualGraph, rng: random.Random) -> PhiVector:
    """Random exact rational phi summing to zero."""
    q = rng.choice(_DENOMINATORS)
    return _balanced_phi(graph, rng, q, 3 * q)


def random_nondegenerate_phi(graph: DualGraph,
                             rng: random.Random) -> PhiVector:
    for _ in range(1000):
        phi = random_phi(graph, rng)
        if is_nondegenerate(graph, phi):
            return phi
    raise PhiConstructionError("failed to sample a nondegenerate phi")


def random_small_perturbation_phi(graph: DualGraph,
                                  rng: random.Random) -> PhiVector:
    """Random nondegenerate phi with |phi(C0)| < cr(C0)/2 everywhere."""
    nv = len(graph.vertices)
    if nv == 1:
        return PhiVector(graph, {graph.vertex_ids[0]: Fraction(0)})
    min_cr = min(info.cr for info in graph.subcurve_data)
    for _ in range(1000):
        q = rng.choice(_DENOMINATORS)
        # numerator box keeps every subcurve sum inside the bound
        phi = _balanced_phi(graph, rng, q, max(1, (min_cr * q) // (4 * nv)))
        if is_small_perturbation(graph, phi) and is_nondegenerate(graph, phi):
            return phi
    raise PhiConstructionError("failed to sample a small-perturbation phi")


def random_wall_phi(graph: DualGraph, rng: random.Random) -> PhiVector | None:
    """Phi placed exactly on a wall of some subcurve, or None for 1 vertex."""
    if len(graph.vertices) < 2:
        return None
    info = rng.choice(graph.subcurve_data)
    cr = info.cr
    target = Fraction(rng.randint(-2, 2)) - Fraction(cr, 2)
    inside = sorted(info.vertex_set)
    outside = sorted(set(graph.vertex_ids) - info.vertex_set)
    vals = {vid: Fraction(0) for vid in graph.vertex_ids}
    vals[inside[0]] = target
    vals[outside[0]] = -target
    return PhiVector(graph, vals)

