import json
import os
import random
import subprocess
import sys
import time
from itertools import combinations

import pytest

import jacstab
from jacstab.corpus import stable_graph_corpus
from jacstab.errors import InvalidGraphError, PreconditionError
from jacstab.graph import (
    MAX_SUBCURVE_VERTICES,
    MAX_VINE_CANDIDATES,
    DualGraph,
    Edge,
    VineCurve,
    enumerate_vines,
    graph_from_dict,
    graph_to_json,
    iter_vines,
    make_vine,
    spanning_tree_count,
    validate,
)
from jacstab.stability import PhiVector, stable_sheaf_data

from oracles import (count_spanning_trees_exhaustive, crossing_edges,
                     internal_edges, random_stable_graph,
                     reference_enumerate_vines)


def two_vertex(h1=1, h2=1, edges=1, marks1=(1,), marks2=(), n=1):
    return DualGraph.build([(0, h1, marks1), (1, h2, marks2)],
                           [(0, 1)] * edges, n)


def triangle():
    return DualGraph.build([(0, 1, (1,)), (1, 1, ()), (2, 1, ())],
                           [(0, 1), (1, 2), (0, 2)], 1)


class TestValidate:
    def test_valid_two_vertex(self):
        g = two_vertex()
        assert g.g == 2
        assert validate(g) == []

    def test_unstable_genus_zero_vertex(self):
        g = two_vertex(h1=0, h2=2)  # 2*0 - 2 + 1 + 1 = 0
        assert any("instability" in d for d in validate(g))

    def test_marking_assigned_twice(self):
        g = two_vertex(marks1=(1,), marks2=(1,))
        assert any("marking partition" in d for d in validate(g))

    def test_disconnected(self):
        g = DualGraph(
            [(0, 1, (1,)), (1, 2, ())], [], 1, g=3)
        diags = validate(g)
        assert any("not connected" in d for d in diags)
        assert any("genus formula" in d for d in diags)

    def test_large_cycle_is_fast(self):
        # edge ends are counted once per graph, not once per vertex
        nv = 20_000
        g = DualGraph.build([(i, 1, (1,) if i == 0 else ()) for i in range(nv)],
                            [(i, (i + 1) % nv) for i in range(nv)], 1)
        start = time.perf_counter()
        assert validate(g) == []
        assert time.perf_counter() - start < 5


def vertex_sets(graph):
    return [sorted(info.vertices) for info in graph.subcurve_data]


class TestCrossingCount:
    """``cr`` of each ``subcurve_data`` entry, the mask its edges come
    from, against the edges read off ``graph.edges``."""

    def test_vine_three_edges(self):
        g = make_vine(1, 1, 3, (1,), 1).to_graph()
        assert vertex_sets(g) == [[0], [1]]
        assert g.subcurve_data[0].cr == 3

    def test_triangle_single_vertex(self):
        assert triangle().subcurve_data[0].cr == 2

    def test_loop_is_internal(self):
        g = DualGraph.build([(0, 1, (1,)), (1, 1, ())],
                            [(0, 0), (0, 1)], 1)
        side = g.subcurve_data[0]
        assert side.vertices == (0,)
        assert (side.cr, side.crossing_mask, side.internal_mask) == \
            (1, 0b10, 0b01)

    def test_symmetric_under_complement(self):
        for g in (triangle(), two_vertex(edges=3)):
            data = {frozenset(info.vertices): info for info in g.subcurve_data}
            for vertices, info in data.items():
                other = data[frozenset(g.vertex_ids) - vertices]
                assert info.cr == other.cr \
                    == len(crossing_edges(g, vertices))
                assert info.crossing_mask == other.crossing_mask
                assert info.internal_mask.bit_count() \
                    == len(internal_edges(g, vertices))

    def test_improper_subcurve_rejected(self):
        # the table holds the nonempty proper vertex subsets only
        sizes = [len(info.vertices) for info in triangle().subcurve_data]
        assert sizes == [1, 1, 1, 2, 2, 2]


class TestSubcurves:
    def test_counts(self):
        assert len(two_vertex().subcurve_data) == 2
        assert len(triangle().subcurve_data) == 6

    def test_single_vertex_has_none(self):
        g = DualGraph.build([(0, 1, (1,))], [], 1)
        assert g.subcurve_data == ()

    def test_vertex_ceiling_fails_fast(self):
        assert MAX_SUBCURVE_VERTICES >= 10
        path = DualGraph.build([(i, 1, (1,) if i == 0 else ()) for i in range(40)],
                               [(i, i + 1) for i in range(39)], 1)
        start = time.monotonic()
        with pytest.raises(InvalidGraphError, match="40 vertices"):
            path.subcurve_data
        assert time.monotonic() - start < 1

    def test_deterministic_order(self):
        assert vertex_sets(triangle()) == [
            [0], [1], [2], [0, 1], [0, 2], [1, 2]]


def _edge_mask(graph, eids):
    """The mask of ``eids``: bit ``i`` for ``graph.edge_order[i]``."""
    return sum(1 << graph.edge_order.index(eid) for eid in eids)


def _prefix_link_graphs():
    rng = random.Random(20)
    unsorted = DualGraph(
        [(5, 0, (1,)), (2, 1, ()), (9, 0, (2,)), (4, 0, ())],
        [Edge(7, (2, 5)), Edge(3, (5, 9)), Edge(100, (2, 9)),
         Edge(42, (2, 2)), Edge(8, (4, 5)), Edge(1, (4, 9))], 2)
    return (stable_graph_corpus(5, 7)
            + [random_stable_graph(rng, 6) for _ in range(200)] + [unsorted])


class TestPrefixLinks:
    """Each entry's prefix is itself without its last vertex, earlier in
    the table, and the masks built from it are those of the edges read off
    ``graph.edges``."""

    def test_prefix_links_and_masks(self):
        checked = 0
        for graph in _prefix_link_graphs():
            data = graph.subcurve_data
            ids = graph.vertex_ids
            assert [info.vertices for info in data] == [
                c for k in range(1, len(ids)) for c in combinations(ids, k)]
            for i, info in enumerate(data):
                if len(info.vertices) == 1:
                    assert info.prefix == -1
                else:
                    assert 0 <= info.prefix < i
                    assert data[info.prefix].vertices == info.vertices[:-1]
                assert graph.vertex_ids[info.last] == info.vertices[-1]
                internal = internal_edges(graph, info.vertices)
                crossing = crossing_edges(graph, info.vertices)
                assert (info.cr, info.internal_mask, info.crossing_mask) == (
                    len(crossing), _edge_mask(graph, internal),
                    _edge_mask(graph, crossing))
                checked += 1
        assert checked > 25_000


class TestEnumerateVines:
    def test_genus_two_membership(self):
        vines = enumerate_vines(2, 1, 2)
        assert make_vine(0, 1, 2, (1,), 1) in vines

    def test_unstable_side_excluded(self):
        # genus-0 unmarked side with e = 2 fails 2*0 - 2 + 2 + 0 > 0
        for v in enumerate_vines(2, 1, 2):
            assert 2 * v.g1 - 2 + v.e + len(v.S) > 0
            assert 2 * v.g2 - 2 + v.e + (v.n - len(v.S)) > 0

    def test_edge_bound(self):
        for g in (1, 2, 3):
            for n in (1, 2):
                assert all(v.e <= g + 1 for v in enumerate_vines(g, n, 1))

    def test_no_side_swap_duplicates(self):
        vines = enumerate_vines(3, 2, 1)
        assert len(vines) == len(set(vines))
        for v in vines:
            # swapping sides and re-canonicalizing lands on the same entry
            assert make_vine(v.g2, v.g1, v.e, v.side2_markings, v.n) == v

    def test_canonical_orientation(self):
        for v in enumerate_vines(3, 2, 1):
            assert (v.g1, v.S) <= (v.g2, v.side2_markings)

    def test_graph_built_once_per_vine(self):
        vine = make_vine(0, 1, 2, (1,), 1)
        assert vine.to_graph() is vine.to_graph()
        assert vine == make_vine(0, 1, 2, (1,), 1)

    def test_genus_formula(self):
        for v in enumerate_vines(3, 3, 1):
            assert v.g1 + v.g2 + v.e - 1 == 3
            assert validate(v.to_graph()) == []

    def test_matches_set_and_sort_reference(self):
        # same vines in the same order as the builder the orderly pass replaced
        for g in range(1, 9):
            for n in range(1, 7):
                for min_edges in (1, 2, 3):
                    assert enumerate_vines(g, n, min_edges) == \
                        reference_enumerate_vines(g, n, min_edges)

    def test_orientation_rule_matches_complement_order(self):
        # the walk's equal-genus test: S <= complement(S) iff S is empty,
        # or starts with 1 and is not all of 1..n
        for n in range(1, 9):
            marks = range(1, n + 1)
            for size in range(n + 1):
                for S in combinations(marks, size):
                    complement = tuple(m for m in marks if m not in S)
                    rule = not S or S[0] == 1 and len(S) < n
                    assert rule == (S <= complement), (n, S)

    @pytest.mark.parametrize("args", [(0, 1, 1), (1, 0, 1), (1, 1, 0),
                                      (-1, 2, 2)])
    def test_rejects_arguments_below_one(self, args):
        with pytest.raises(ValueError):
            enumerate_vines(*args)
        with pytest.raises(ValueError):
            reference_enumerate_vines(*args)

    @pytest.mark.parametrize("g,n", [(2, 40), (3000, 1), (1448, 1), (1, 21),
                                     (2, 10 ** 9)])
    def test_oversized_refused_before_any_work(self, g, n):
        # (g + 1)^2 * 2^n is above the ceiling for each; 2^n is never built
        assert n > 22 or (g + 1) ** 2 << n > MAX_VINE_CANDIDATES
        start = time.monotonic()
        with pytest.raises(PreconditionError, match="g=%d, n=%d" % (g, n)):
            enumerate_vines(g, n, 1)
        assert time.monotonic() - start < 1

    @pytest.mark.parametrize("args,error", [
        ((0, 1, 1), ValueError), ((1, 1, 0), ValueError),
        ((1, 21, 2), PreconditionError), ((2, 10 ** 9, 1), PreconditionError)])
    def test_walk_refuses_when_called(self, args, error):
        # the arguments are checked before the walk is first read
        with pytest.raises(error):
            iter_vines(*args)

    def test_ceiling_is_the_candidate_bound(self, monkeypatch):
        # with the limit at (3 + 1)^2 * 2^2, (3, 2) is allowed and one more
        # genus or one more marking is not
        monkeypatch.setitem(enumerate_vines.__globals__,
                            "MAX_VINE_CANDIDATES", 64)
        assert enumerate_vines(3, 2, 1) == reference_enumerate_vines(3, 2, 1)
        for g, n in ((4, 2), (3, 3)):
            with pytest.raises(PreconditionError, match="limit 64"):
                enumerate_vines(g, n, 1)


class TestSpanningTreeCount:
    @pytest.mark.parametrize("e", [1, 2, 3, 5])
    def test_vine_parallel_edges(self, e):
        g = make_vine(1, 1, e, (1,), 1).to_graph()
        assert spanning_tree_count(g) == e

    def test_triangle(self):
        assert spanning_tree_count(triangle()) == 3

    def test_single_vertex_with_loops(self):
        g = DualGraph.build([(0, 1, (1,))], [(0, 0), (0, 0)], 1)
        assert spanning_tree_count(g) == 1

    def test_disconnected_rejected(self):
        g = DualGraph([(0, 1, (1,)), (1, 2, ())], [], 1, g=3)
        with pytest.raises(InvalidGraphError):
            spanning_tree_count(g)

    def test_against_exhaustive_enumeration(self):
        # all corpus graphs with <= 5 vertices / <= 8 edges, plus random ones
        from jacstab.corpus import stable_graph_corpus

        for graph in stable_graph_corpus(max_vertices=4, max_edges=7):
            assert spanning_tree_count(graph) == \
                count_spanning_trees_exhaustive(graph)
        rng = random.Random(7)
        for _ in range(50):
            graph = random_stable_graph(rng)
            if len(graph.edges) <= 8:
                assert spanning_tree_count(graph) == \
                    count_spanning_trees_exhaustive(graph)


def test_runtime_does_not_import_sympy():
    code = "\n".join([
        "import sys",
        "from jacstab import AJDatum, DualGraph, classify_extension, spanning_tree_count",
        "assert classify_extension(3, 2, AJDatum(0, (1, -1), 3, 2)).extends",
        "g = DualGraph.build([(0, 1, (1,)), (1, 1, ()), (2, 1, ()), (3, 1, ())],",
        "                    [(0, 1), (1, 2), (2, 3), (3, 0), (0, 2)], 1)",
        "assert spanning_tree_count(g) == 8",
        "assert 'sympy' not in sys.modules",
    ])
    src = os.path.dirname(os.path.dirname(jacstab.__file__))
    env = {**os.environ, "PYTHONPATH": src}
    proc = subprocess.run([sys.executable, "-c", code], env=env,
                          capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr


def test_dualizing_degree_identity():
    # sum of (2h_v - 2 + val v) over vertices equals 2g - 2
    from jacstab.corpus import stable_graph_corpus

    for graph in stable_graph_corpus(max_vertices=3, max_edges=5):
        total = sum(2 * v.h - 2 + graph.valence(v.id) for v in graph.vertices)
        assert total == 2 * graph.g - 2


def test_json_round_trip():
    g = make_vine(0, 1, 2, (1,), 2).to_graph()
    text = graph_to_json(g)
    back = graph_from_dict(json.loads(text))
    assert graph_to_json(back) == text


def test_json_field_order_deterministic():
    g = triangle()
    assert graph_to_json(g).index('"genus"') < graph_to_json(g).index('"vertices"')


class TestStructuralChokepoint:
    """Every subcurve test goes through DualGraph.subcurve_data, which
    refuses structurally broken graphs, and spanning_tree_count refuses
    them with the same messages; building one does not raise.  A repeated
    vertex id is refused already by PhiVector."""

    broken_graphs = pytest.mark.parametrize("vertices, edges, message", [
        ([(0, 1, (1,)), (0, 1, ())], [Edge(0, (0, 0))], "duplicate vertex ids"),
        ([(0, 1, (1,)), (1, 1, ())], [Edge(0, (0, 1)), Edge(0, (0, 1))],
         "duplicate edge ids"),
        ([(0, 1, (1,)), (1, 1, ())], [Edge(0, (0, 5))],
         "edge 0 references unknown vertex"),
        ([(0, 1, (1,)), (1, 1, ())], [], "graph not connected"),
        ([(0, 1, (1,)), (1, 1, ()), (2, 1, ())], [Edge(4, (1, 2))],
         "graph not connected"),
        ([], [], "graph has no vertices"),
    ], ids=["duplicate-vertex", "duplicate-edge", "unknown-end",
            "disconnected", "isolated-vertex", "empty"])

    @broken_graphs
    def test_subcurve_tests_refuse_broken_graphs(self, vertices, edges,
                                                 message):
        graph = DualGraph(vertices, edges, 1)
        assert validate(graph)
        with pytest.raises(InvalidGraphError, match=message):
            phi = PhiVector(graph, {vid: 0 for vid in graph.vertex_ids})
            stable_sheaf_data(graph, phi, 0)

    @broken_graphs
    def test_tree_count_refuses_broken_graphs(self, vertices, edges, message):
        with pytest.raises(InvalidGraphError, match=message):
            spanning_tree_count(DualGraph(vertices, edges, 1))

    def test_phi_vector_refuses_repeated_vertex_ids(self):
        graph = DualGraph([(0, 1, (1,)), (0, 1, ())], [Edge(0, (0, 0))], 1)
        with pytest.raises(InvalidGraphError, match="duplicate vertex ids"):
            PhiVector(graph, {0: 0})

    def test_stability_and_genus_formula_not_enforced(self):
        # vertex 0 is an unstable rational tail and g does not fit the formula
        graph = DualGraph([(0, 0, ()), (1, 0, (1,))], [Edge(0, (0, 1))], 1, g=5)
        assert any("instability" in d for d in validate(graph))
        assert any("genus formula" in d for d in validate(graph))
        assert [info.cr for info in graph.subcurve_data] == [1, 1]
        # nor the ranges: a negative vertex genus, g < 1 and no marking
        graph = DualGraph([(0, -1, ()), (1, 0, ())], [Edge(0, (0, 1))], 0)
        assert {"negative genus at vertex 0", "total genus below 1",
                "fewer than 1 marking"} <= set(validate(graph))
        assert [info.cr for info in graph.subcurve_data] == [1, 1]


class TestGraphFromDict:
    def good(self):
        return {"genus": 2, "n": 1,
                "vertices": [{"id": 0, "h": 0, "markings": [1]},
                             {"id": 1, "h": 1, "markings": []}],
                "edges": [{"id": 0, "ends": [0, 1]}, {"id": 1, "ends": [1, 0]}]}

    def test_good(self):
        assert validate(graph_from_dict(self.good())) == []

    @pytest.mark.parametrize("path, value, what", [
        (("vertices", 0, "id"), [0], "vertex id"),
        (("vertices", 0, "id"), True, "vertex id"),
        (("vertices", 1, "h"), "1", "h"),
        (("vertices", 1, "h"), 1.0, "h"),
        (("vertices", 0, "markings"), ["1"], "marking"),
        (("edges", 0, "id"), None, "edge id"),
        (("edges", 1, "ends"), [0, "1"], "edge end"),
        (("n",), False, "n"),
        (("genus",), "2", "genus"),
    ])
    def test_non_integer_field_rejected(self, path, value, what):
        data = self.good()
        owner = data
        for key in path[:-1]:
            owner = owner[key]
        owner[path[-1]] = value
        with pytest.raises(InvalidGraphError, match="%s must be an integer"
                           % what):
            graph_from_dict(data)

    @pytest.mark.parametrize("ends", [[0], [0, 1, 1]])
    def test_edge_needs_two_ends(self, ends):
        data = self.good()
        data["edges"][0]["ends"] = ends
        with pytest.raises(InvalidGraphError, match="two vertex ids"):
            graph_from_dict(data)

    def test_marking_listed_twice_on_a_vertex(self):
        data = self.good()
        data["vertices"][0]["markings"] = [1, 1]
        with pytest.raises(InvalidGraphError, match="vertex 0 lists a "
                           "marking twice"):
            graph_from_dict(data)


def test_vine_genus_is_read_from_its_fields():
    # g = g1 + g2 + e - 1 is not a field, so no vine can carry another g
    with pytest.raises(TypeError):
        VineCurve(2, 0, (1,), 1, 1, 7)
    vine = make_vine(0, 1, 2, (1,), 1)
    assert (vine.g, str(vine)) == (2, "vine(g1=0, g2=1, e=2, S={1})")
    assert vine == VineCurve(2, 0, (1,), 1, 1)
    assert validate(vine.to_graph()) == []
    assert make_vine(3, 0, 2, (), 2).g == 4   # sides swapped
    for g in (1, 2, 3):
        assert {v.g for v in enumerate_vines(g, 2, 1)} == {g}


def test_vine_curve_takes_all_five_fields():
    with pytest.raises(TypeError):
        VineCurve(2, 0)
