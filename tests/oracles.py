"""Independent brute-force oracles used only by the tests."""

import json
from fractions import Fraction
from itertools import (combinations, combinations_with_replacement,
                       permutations, product)

from jacstab.graph import DualGraph


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


# --- Fraction references for the scaled-integer phi kernel -----------------
#
# These re-sum phi as Fractions per subcurve, the way jacstab.stability did
# before it kept phi over one common denominator.

def fraction_subcurve_sum(phi, info):
    """phi(C0) for one entry of graph.subcurve_data, summed as Fractions."""
    return sum((phi.values[v] for v in info.vertices), Fraction(0))


def fraction_is_nondegenerate(graph, phi):
    """No subcurve has phi(C0) + cr(C0)/2 in Z."""
    for info in graph.subcurve_data:
        x = fraction_subcurve_sum(phi, info)
        if (x + Fraction(len(info.crossing), 2)).denominator == 1:
            return False
    return True


def fraction_is_small_perturbation(graph, phi):
    """|phi(C0)| < cr(C0)/2 for every subcurve."""
    return all(abs(2 * fraction_subcurve_sum(phi, info)) < len(info.crossing)
               for info in graph.subcurve_data)


# --- stdlib reference for the atlas JSON export ----------------------------

def atlas_json_reference(records):
    """The whole atlas document rendered by one ``json.dumps(indent=2)``."""
    from jacstab.atlas import record_to_dict

    if not records:
        return json.dumps({"records": []}, indent=2) + "\n"
    payload = {"g": records[0].g, "n": records[0].n,
               "records": [record_to_dict(r) for r in records]}
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
