"""Independent brute-force oracles used only by the tests."""

import json
from fractions import Fraction
from itertools import combinations


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
