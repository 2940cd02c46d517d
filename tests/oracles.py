"""Independent brute-force oracles used only by the tests."""

import json
import math
import random
from fractions import Fraction
from itertools import (chain, combinations, combinations_with_replacement,
                       islice, permutations, product)
from operator import attrgetter

from jacstab.abel_jacobi import VinePhiTable
from jacstab.atlas import Chamber, vine_phi, walls
from jacstab.errors import (DegenerateParameterError, InvalidGraphError,
                            JacstabError, PhiConstructionError,
                            PreconditionError)
from jacstab.graph import (MAX_NONFREE_EDGES, DualGraph, _side_stable,
                           enumerate_vines, make_vine)
from jacstab.stability import (PhiVector, SheafDatum, _check_same_graph,
                               epsilon_stream, is_nondegenerate,
                               is_small_perturbation, is_stable,
                               stable_sheaf_data)


def count_spanning_trees_exhaustive(graph):
    """Enumerate all (#V - 1)-subsets of non-loop edges, count the trees."""
    vids = list(graph.vertex_ids)
    if len(vids) == 1:
        return 1
    non_loops = [e for e in graph.edges if not e.is_loop]
    count = 0
    for subset in combinations(non_loops, len(vids) - 1):
        parent = {v: v for v in vids}

        def find(x):
            while parent[x] != x:
                parent[x] = parent[parent[x]]
                x = parent[x]
            return x

        acyclic = True
        for e in subset:
            ra, rb = find(e.ends[0]), find(e.ends[1])
            if ra == rb:
                acyclic = False
                break
            parent[ra] = rb
        if acyclic:
            count += 1
    return count


def random_stable_graph(rng: random.Random, max_vertices: int = 5) -> DualGraph:
    """A random connected stable dual graph (for sum-to-zero spot checks)."""
    nv = rng.randint(1, max_vertices)
    ends = []
    for v in range(1, nv):
        ends.append((rng.randint(0, v - 1), v))
    for _ in range(rng.randint(0, 3)):
        a = rng.randint(0, nv - 1)
        b = rng.randint(0, nv - 1)
        ends.append((min(a, b), max(a, b)))
    hs = [rng.randint(0, 2) for _ in range(nv)]
    n = rng.randint(1, 4)
    assign = [rng.randint(0, nv - 1) for _ in range(n)]
    marks = [tuple(sorted(i + 1 for i in range(n) if assign[i] == v))
             for v in range(nv)]
    graph = DualGraph.build([(v, hs[v], marks[v]) for v in range(nv)], ends, n)
    # repair stability / genus by bumping component genera
    changed = True
    while changed:
        changed = False
        for v in range(nv):
            if not _side_stable(hs[v], graph.valence(v), len(marks[v])):
                hs[v] += 1
                changed = True
        if sum(hs) + len(ends) - nv + 1 < 1:
            hs[0] += 1
            changed = True
        if changed:
            graph = DualGraph.build(
                [(v, hs[v], marks[v]) for v in range(nv)], ends, n)
    return graph


# --- Subcurve edges read off graph.edges ------------------------------------
#
# The kernel keeps a subcurve's edges as masks in DualGraph.subcurve_data;
# the references below take only its vertex tuples, in table order, and
# work out the edges from the edge list instead.

def subcurve_vertices(graph):
    """The vertex tuple of every row of graph.subcurve_data, in order."""
    return [row[-1] for row in graph.subcurve_data]


def internal_edges(graph, vertices):
    """Ids of the edges with both ends in ``vertices``, loops included."""
    inside = set(vertices)
    return frozenset(e.id for e in graph.edges
                     if e.ends[0] in inside and e.ends[1] in inside)


def crossing_edges(graph, vertices):
    """Ids of the edges with exactly one end in ``vertices``."""
    inside = set(vertices)
    return frozenset(e.id for e in graph.edges
                     if (e.ends[0] in inside) != (e.ends[1] in inside))


# --- Fraction references for the scaled-integer phi kernel -----------------
#
# These re-sum phi as Fractions per subcurve, the way jacstab.stability did
# before it kept phi over one common denominator.

def fraction_subcurve_sum(phi, vertices):
    """phi(C0) for the subcurve on ``vertices``, summed as Fractions."""
    return sum((phi.values[v] for v in vertices), Fraction(0))


def fraction_is_nondegenerate(graph, phi):
    """No subcurve has phi(C0) + cr(C0)/2 in Z."""
    for vertices in subcurve_vertices(graph):
        x = fraction_subcurve_sum(phi, vertices)
        cr = len(crossing_edges(graph, vertices))
        if (x + Fraction(cr, 2)).denominator == 1:
            return False
    return True


def fraction_is_small_perturbation(graph, phi):
    """|phi(C0)| < cr(C0)/2 for every subcurve."""
    return all(abs(2 * fraction_subcurve_sum(phi, vertices))
               < len(crossing_edges(graph, vertices))
               for vertices in subcurve_vertices(graph))


# --- stdlib reference for the atlas JSON export ----------------------------

def atlas_json_reference(records):
    """The whole atlas document rendered by one ``json.dumps(indent=2)``,
    every record dict spelled out here."""
    if not records:
        return json.dumps({"records": []}, indent=2) + "\n"

    def datum(F):
        return {"S": sorted(F.S),
                "D": {str(vid): d for vid, d in sorted(F.D.items())}}

    def keys(ks):
        return [[list(S), list(D)] for S, D in ks]

    payload = {"g": records[0].vine.g, "n": records[0].vine.n, "records": [{
        "g": r.vine.g,
        "n": r.vine.n,
        "vine": {"g1": r.vine.g1, "g2": r.vine.g2, "e": r.vine.e,
                 "S": list(r.vine.S)},
        "window": [str(r.wall_set.lo), str(r.wall_set.hi)],
        "walls": [str(w) for w in r.wall_set.walls],
        "chambers": [{"lo": str(c.lo),
                      "hi": str(c.hi),
                      "representative": str(c.representative),
                      "is_small_perturbation": c.is_small_perturbation,
                      "stable_table": [datum(F) for F in c.stable_table]}
                     for c in r.chambers],
        "wall_crossing_deltas": [{"added": keys(added),
                                  "removed": keys(removed)}
                                 for added, removed in r.deltas],
    } for r in records]}
    return json.dumps(payload, indent=2) + "\n"


def canonical_form(graph):
    """Minimum over every vertex relabeling of the decorated graph."""
    vids = sorted(graph.vertex_ids)
    decor = {v.id: (v.h, tuple(sorted(v.markings))) for v in graph.vertices}

    def relabeled(order):
        pos = dict(zip(vids, order))
        return (graph.g, graph.n,
                tuple(decor[vid] for vid in sorted(vids, key=pos.get)),
                tuple(sorted(tuple(sorted((pos[a], pos[b])))
                             for a, b in (e.ends for e in graph.edges))))

    return min(relabeled(order) for order in permutations(range(len(vids))))


# --- The seen-set corpus builder that orderly generation replaced ---------
#
# Canonical forms are minima over every relabeling, stored in seen-sets;
# jacstab.corpus.stable_graph_corpus must return the same list.

def _connected(num_vertices: int, ends: tuple[tuple[int, int], ...]) -> bool:
    if num_vertices == 1:
        return True
    parent = list(range(num_vertices))

    def find(x):
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    for a, b in ends:
        parent[find(a)] = find(b)
    return len({find(v) for v in range(num_vertices)}) == 1


def _relabel(ends, perm):
    return tuple(sorted(tuple(sorted((perm[a], perm[b]))) for a, b in ends))


def _edge_multiset_classes(num_vertices: int, num_edges: int):
    """Connected edge multisets up to relabeling, with their automorphisms."""
    pair_types = [(i, j) for i in range(num_vertices)
                  for j in range(i, num_vertices)]
    perms = list(permutations(range(num_vertices)))
    seen = set()
    for combo in combinations_with_replacement(pair_types, num_edges):
        ends = tuple(sorted(combo))
        if not _connected(num_vertices, ends):
            continue
        canon = min(_relabel(ends, p) for p in perms)
        if canon in seen:
            continue
        seen.add(canon)
        auts = [p for p in perms if _relabel(canon, p) == canon]
        yield canon, auts


def reference_graph_corpus(max_vertices: int = 4, max_edges: int = 7,
                           max_genus: int = 3, max_markings: int = 2) -> list[DualGraph]:
    """All connected stable graphs within the bounds, up to relabeling."""
    graphs = []
    for nv in range(1, max_vertices + 1):
        min_e = nv - 1
        max_e = min(max_edges, nv + max_genus - 1)  # keeps b1 <= max_genus
        for ne in range(min_e, max_e + 1):
            for ends, auts in _edge_multiset_classes(nv, ne):
                b1 = ne - nv + 1
                h_budget = max_genus - b1
                if h_budget < 0:
                    continue
                inverses = [{p[v]: v for v in range(nv)} for p in auts]
                for n in range(1, max_markings + 1):
                    seen = set()
                    for hs in product(range(h_budget + 1), repeat=nv):
                        g = sum(hs) + b1
                        if not 1 <= g <= max_genus:
                            continue
                        for assign in product(range(nv), repeat=n):
                            marks = tuple(
                                tuple(sorted(i + 1 for i in range(n)
                                             if assign[i] == v))
                                for v in range(nv))
                            key = min(
                                tuple((hs[inv[v]], marks[inv[v]])
                                      for v in range(nv))
                                for inv in inverses)
                            if key in seen:
                                continue
                            seen.add(key)
                            graph = DualGraph.build(
                                [(v, hs[v], marks[v]) for v in range(nv)],
                                ends, n, g)
                            if any(2 * hs[v] - 2 + graph.valence(v)
                                   + len(marks[v]) <= 0 for v in range(nv)):
                                continue
                            graphs.append(graph)
    return graphs


# --- The set-and-sort vine builder that the orderly pass replaced ---------
#
# Every side-1 marking set is oriented by make_vine, duplicates under side
# swap fall into a set, and the set is sorted; jacstab.graph.enumerate_vines
# must return the same list.

def reference_enumerate_vines(g: int, n: int, min_edges: int):
    """All canonical vines with e >= min_edges for fixed (g, n).

    Finite because g1 + g2 + e - 1 = g forces e <= g + 1.  Both sides must
    satisfy the vertex stability inequality; duplicates under side swap
    are removed.
    """
    if g < 1 or n < 1 or min_edges < 1:
        raise ValueError("require g >= 1, n >= 1, min_edges >= 1")
    found = set()
    all_marks = set(range(1, n + 1))
    for e in range(max(min_edges, 1), g + 2):
        for g1 in range(0, g - e + 2):
            g2 = g - e + 1 - g1
            for size in range(0, n + 1):
                for s in combinations(sorted(all_marks), size):
                    if not _side_stable(g1, e, len(s)):
                        continue
                    if not _side_stable(g2, e, n - len(s)):
                        continue
                    found.add(make_vine(g1, g2, e, s, n))
    return sorted(found, key=lambda v: (v.e, v.g1, v.S))


# --- The frozenset sheaf-data search that the edge-mask kernel replaced ---
#
# Edge sets are frozensets intersected per subcurve, each subcurve's
# internal and crossing edges are read off graph.edges, and phi(C0) and the
# preconditions come from the Fraction references above; jacstab.stability's
# stable_sheaf_data and verify_support_lemma must return the same lists and
# the same first violation.

def _phi_context(graph, phi):
    # phi(C0) summed as Fractions per subcurve, not read from the kernel's
    # PhiVector.subcurve_sums
    ctx = []
    for vertices in subcurve_vertices(graph):
        crossing = crossing_edges(graph, vertices)
        ctx.append((vertices, internal_edges(graph, vertices), crossing,
                    len(crossing), fraction_subcurve_sum(phi, vertices)))
    return ctx


def _satisfies_ctx(ctx, S, D, strict: bool) -> bool:
    # |deg - phi(C0) + delta/2| < (cr - delta)/2, in Fractions
    for verts, internal, crossing, cr, x in ctx:
        deg = sum(D[v] for v in verts)
        if S:
            deg += len(S & internal)
            delta = len(S & crossing)
        else:
            delta = 0
        lhs = abs(deg - x + Fraction(delta, 2))
        rhs = Fraction(cr - delta, 2)
        if lhs > rhs or (strict and lhs == rhs):
            return False
    return True


def reference_is_semistable(graph, phi, F) -> bool:
    """The inequality with <= on every subcurve, edges as frozensets."""
    _check_same_graph(graph, phi, F)
    return _satisfies_ctx(_phi_context(graph, phi), F.S, F.D, strict=False)


def _edge_subsets(graph):
    eids = graph.edge_order
    if len(eids) > MAX_NONFREE_EDGES:
        raise InvalidGraphError("%d edges, non-free limit is %d"
                                % (len(eids), MAX_NONFREE_EDGES))
    return chain.from_iterable(combinations(eids, k) for k in range(len(eids) + 1))


def reference_stable_sheaf_data(graph: DualGraph, phi: PhiVector, d: int,
                                include_nonfree: bool = False) -> list[SheafDatum]:
    """The complete finite list of phi-stable sheaf data of total degree d.

    Requires phi nondegenerate (stable = semistable, so the list is
    unambiguous).  With ``include_nonfree=False`` only line bundles (S
    empty) are returned; with ``include_nonfree=True`` the search runs over
    all 2^E edge subsets, so graphs above ``MAX_NONFREE_EDGES`` edges raise
    :class:`InvalidGraphError`.  The search is bounded and flat: the
    singleton-subcurve inequality pins each D(v) to a finite window (found
    from phi's Fractions, not by the kernel's integer window), the
    search runs over the product of all windows but the last, and the last
    vertex is solved from the total-degree constraint and kept only if it
    lies in its own window.  Each candidate is tested on its (S, D) and
    becomes a :class:`SheafDatum` only if it is stable.  Output is
    canonically ordered by (sorted S, D).
    """
    _check_same_graph(graph, phi)
    if not fraction_is_nondegenerate(graph, phi):
        raise DegenerateParameterError(
            "degenerate parameter: stable != semistable ambiguity")

    vids = sorted(graph.vertex_ids)
    results = []
    subsets = _edge_subsets(graph) if include_nonfree else [()]
    ctx = _phi_context(graph, phi)

    if len(vids) == 1:
        # No proper subcurves: D is pinned by the total degree and every
        # datum is vacuously stable.
        v = vids[0]
        for S in subsets:
            results.append(SheafDatum(graph, S, {v: d - len(S)}))
        results.sort(key=attrgetter("key"))
        return results

    loops = {vid: internal_edges(graph, (vid,)) for vid in vids}
    crossing = {vid: crossing_edges(graph, (vid,)) for vid in vids}

    for S in subsets:
        S = frozenset(S)
        windows = []
        for vid in vids:
            cr = len(crossing[vid])
            delta = len(S & crossing[vid])
            loops_in_S = len(S & loops[vid])
            # D(v) + loops_in_S lies strictly inside (phi(v) - cr/2,
            # phi(v) + cr/2 - delta), found here in Fractions
            x = phi.values[vid]
            windows.append(range(
                math.floor(x - Fraction(cr, 2)) + 1 - loops_in_S,
                math.ceil(x + Fraction(cr, 2) - delta) - loops_in_S))
        if not all(windows):
            continue
        target = d - len(S)
        last = set(windows[-1])
        for head in product(*windows[:-1]):
            rest = target - sum(head)
            if rest in last:
                D = dict(zip(vids, head + (rest,)))
                if _satisfies_ctx(ctx, S, D, strict=True):
                    results.append(SheafDatum(graph, S, D))

    results.sort(key=attrgetter("key"))
    return results


def reference_verify_support_lemma(graph: DualGraph, phi: PhiVector):
    """Check the section-support incompatibility over stable degree-0 data.

    For every phi-stable degree-0 datum F and every subcurve C0 the strict
    bound deg_C0(F) < cr(C0) - delta_C0(F) must hold, so a nonzero section
    (which would force deg_C0(F) >= cr(C0)) cannot exist.  Returns True or
    the first violating (F, C0).
    """
    if not fraction_is_small_perturbation(graph, phi):
        raise PreconditionError("phi is not a small perturbation of 0")
    if not fraction_is_nondegenerate(graph, phi):
        raise PreconditionError("phi is degenerate")
    subcurves = [(vertices, internal_edges(graph, vertices),
                  crossing_edges(graph, vertices))
                 for vertices in subcurve_vertices(graph)]
    for F in reference_stable_sheaf_data(graph, phi, 0, include_nonfree=True):
        S, D = F.S, F.D
        for verts, internal, crossing in subcurves:
            deg = sum(D[v] for v in verts) + len(S & internal)
            if not deg < len(crossing) - len(S & crossing):
                return (F, frozenset(verts))
    return True


# --- The Fraction route of the phi samplers --------------------------------
#
# The samplers of jacstab.corpus as they were before they drew integer
# numerators and tested them before building any object: every draw is a
# PhiVector built from Fractions and tested by the Fraction predicates
# above.  The samplers must draw the same vectors, with the same rng calls.

REFERENCE_DENOMINATORS = (3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41)


def fraction_balanced_phi(graph: DualGraph, rng, q: int,
                          bound: int) -> PhiVector:
    """Phi with numerators over ``q`` drawn from [-bound, bound] on every
    vertex but the last (in id order); the last one balances the sum."""
    vids = sorted(graph.vertex_ids)
    nums = [rng.randint(-bound, bound) for _ in vids[:-1]]
    vals = {vid: Fraction(x, q) for vid, x in zip(vids, nums)}
    vals[vids[-1]] = Fraction(-sum(nums), q)
    return PhiVector(graph, vals)


def reference_random_phi(graph: DualGraph, rng) -> PhiVector:
    q = rng.choice(REFERENCE_DENOMINATORS)
    return fraction_balanced_phi(graph, rng, q, 3 * q)


def reference_random_nondegenerate_phi(graph: DualGraph, rng) -> PhiVector:
    for _ in range(1000):
        phi = reference_random_phi(graph, rng)
        if fraction_is_nondegenerate(graph, phi):
            return phi
    raise PhiConstructionError("failed to sample a nondegenerate phi")


def reference_random_small_perturbation_phi(graph: DualGraph,
                                            rng) -> PhiVector:
    vids = sorted(graph.vertex_ids)
    if len(vids) == 1:
        return PhiVector(graph, {vids[0]: Fraction(0)})
    min_cr = min(len(crossing_edges(graph, vertices))
                 for vertices in subcurve_vertices(graph))
    for _ in range(1000):
        q = rng.choice(REFERENCE_DENOMINATORS)
        phi = fraction_balanced_phi(graph, rng, q,
                                    max(1, (min_cr * q) // (4 * len(vids))))
        if (fraction_is_small_perturbation(graph, phi)
                and fraction_is_nondegenerate(graph, phi)):
            return phi
    raise PhiConstructionError("failed to sample a small-perturbation phi")


def reference_random_wall_phi(graph: DualGraph, rng):
    if len(graph.vertices) < 2:
        return None
    vertices = rng.choice(subcurve_vertices(graph))
    cr = len(crossing_edges(graph, vertices))
    target = Fraction(rng.randint(-2, 2)) - Fraction(cr, 2)
    inside = sorted(vertices)
    outside = sorted(set(graph.vertex_ids) - set(vertices))
    vals = {vid: Fraction(0) for vid in graph.vertex_ids}
    vals[inside[0]] = target
    vals[outside[0]] = -target
    return PhiVector(graph, vals)


# --- The brute-force wall oracle as it was before its stepped scan ---------

def reference_equality_witness(graph: DualGraph, phi: PhiVector):
    """Brute-force search for an equality instance of the inequality.

    Independent oracle for :func:`is_nondegenerate`: scans every subcurve,
    every delta in [0, cr] and every integer degree in the window
    |deg - phi + delta/2| <= (cr + 1)/2, testing the equality scaled by 2q:
    |2q*deg - 2s + q*delta| == q*(cr - delta) with phi(C0) = s/q.
    Returns (vertex set of C0, deg, delta) or None.
    """
    _check_same_graph(graph, phi)
    q = phi.q
    for vertices, s in zip(subcurve_vertices(graph), phi.subcurve_sums()):
        cr = len(crossing_edges(graph, vertices))
        for delta in range(cr + 1):
            # 2q * (center -+ half) with center = s/q - delta/2, half = (cr+1)/2
            low = 2 * s - q * delta - q * (cr + 1)
            high = 2 * s - q * delta + q * (cr + 1)
            for deg in range(-(-low // (2 * q)), high // (2 * q) + 1):
                if abs(2 * q * deg - 2 * s + q * delta) == q * (cr - delta):
                    return (frozenset(vertices), deg, delta)
    return None


# --- The stable table of a vine in closed form -----------------------------

def vine_stable_keys(e: int, x: Fraction, include_nonfree: bool) -> set:
    """Closed form of the degree-0 stable table of an e-edge vine at
    phi = (x, -x), as the set of datum keys ``(S, (D(v1), D(v2)))``.

    A datum with non-free edges S (|S| = s) is a line bundle on the vine
    without them, stable for phi shifted by s/2, so D(v1) runs over the
    e - s integers strictly inside (x - e/2, x + e/2 - s) and
    D(v2) = -s - D(v1).  Uses no code of ``jacstab.stability``.
    """
    half = Fraction(e, 2)
    sizes = range(e + 1) if include_nonfree else (0,)
    return {(S, (d, -s - d))
            for s in sizes for S in combinations(range(e), s)
            for d in range(math.floor(x - half) + 1,
                           math.ceil(x + half - s))}


# --- The per-chamber search that the translated tables replaced -----------
#
# Every chamber runs its own stable_sheaf_data at its representative;
# jacstab.atlas.chambers, which searches the first chamber and translates
# the rest, must return the same chambers.

def reference_chambers(vine, window, include_nonfree: bool) -> list:
    """Maximal open intervals between the walls of ``window``, each with the
    stable table searched afresh at its midpoint."""
    wall_set = walls(vine, window)
    lo, hi = wall_set.lo, wall_set.hi
    cuts = sorted({lo, hi} | {w for w in wall_set.walls if lo < w < hi})
    half_e = Fraction(vine.e, 2)
    out = []
    for a, b in zip(cuts, cuts[1:]):
        rep = (a + b) / 2
        phi = vine_phi(vine, rep)
        table = tuple(stable_sheaf_data(phi.graph, phi, 0, include_nonfree))
        out.append(Chamber(a, b, rep, table, a >= -half_e and b <= half_e))
    return out


# --- The per-vine admissibility loop of construct_prop_phi -----------------
#
# Every e >= 2 vine builds its own graph and bundle and draws its own phi,
# re-drawing up to 50 times; jacstab.abel_jacobi.construct_prop_phi, which
# draws once per call and checks once per (e, m) class, must return the
# same entries.

def reference_construct_prop_phi(g: int, n: int, i: int, j: int,
                                 seed: int = 0) -> VinePhiTable:
    """Per-vine stability table stabilizing the bundle O(p_i - p_j).

    Every e = 1 vine gets phi(side 1) = 0; an e >= 2 vine gets
    1/2*[i in S] - 1/2*[j in S] plus a deterministic small perturbation.
    Postconditions (checked per entry, with re-draws): nondegenerate,
    small perturbation, and O(p_i - p_j) stable on the vine.
    """
    if i == j:
        raise JacstabError("markings i and j must differ")
    if not (1 <= i <= n and 1 <= j <= n):
        raise JacstabError("markings out of range for n=%d" % n)
    entries = {}
    for vine in enumerate_vines(g, n, 1):
        if vine.e == 1:
            entries[vine] = Fraction(0)
            continue
        m = (i in vine.S) - (j in vine.S)  # side-1 degree of O(p_i - p_j)
        base = Fraction(m, 2)
        graph = vine.to_graph()
        bundle = SheafDatum(graph, frozenset(), {0: m, 1: -m})
        for eps in islice(epsilon_stream(seed), 50):
            phi = vine_phi(vine, base + eps)
            if (is_nondegenerate(graph, phi)
                    and is_small_perturbation(graph, phi)
                    and is_stable(graph, phi, bundle)):
                entries[vine] = phi.values[0]
                break
        else:
            raise PhiConstructionError(
                "no admissible perturbation for %s" % vine)
    return VinePhiTable(g, n, entries)
