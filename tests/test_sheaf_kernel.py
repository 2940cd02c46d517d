"""The edge-mask sheaf-data kernel against the frozenset code it replaced,
and the integer route of the phi samplers against the Fraction route."""

import random
from collections import Counter
from fractions import Fraction

import pytest

import oracles
from jacstab import stability
from jacstab.corpus import (
    random_nondegenerate_phi,
    random_phi,
    random_small_perturbation_phi,
    random_wall_phi,
    stable_graph_corpus,
)
from jacstab.graph import DualGraph, Edge, Vertex, spanning_tree_count
from jacstab.stability import (
    PhiVector,
    SheafDatum,
    _half,
    _integer_window,
    is_nondegenerate,
    is_small_perturbation,
    stable_sheaf_data,
    verify_support_lemma,
)

CORPUS = stable_graph_corpus(4, 7)

# Edge ids neither contiguous nor in input order, vertex ids unsorted too,
# with a loop and two parallel edges.
UNSORTED = DualGraph(
    [Vertex(5, 0, frozenset({1})), Vertex(2, 1, frozenset()),
     Vertex(9, 0, frozenset({2}))],
    [Edge(7, (2, 5)), Edge(3, (5, 9)), Edge(100, (2, 9)), Edge(42, (2, 2)),
     Edge(8, (2, 5))],
    2)


def relabeled(graph, rng):
    """The same graph with random sparse vertex and edge ids, edges shuffled."""
    vmap = dict(zip(sorted(graph.vertex_ids),
                    rng.sample(range(50), len(graph.vertices))))
    eids = rng.sample(range(200), len(graph.edges))
    edges = [Edge(eid, tuple(sorted((vmap[e.ends[0]], vmap[e.ends[1]]))))
             for eid, e in zip(eids, graph.edges)]
    rng.shuffle(edges)
    vertices = [Vertex(vmap[v.id], v.h, v.markings) for v in graph.vertices]
    rng.shuffle(vertices)
    return DualGraph(vertices, edges, graph.n, graph.g)


GRAPHS = CORPUS + [UNSORTED] + [relabeled(g, random.Random(i))
                                for i, g in enumerate(CORPUS[::25])]


def mixed_phi(graph, rng):
    """A nondegenerate phi whose values have different denominators."""
    vids = sorted(graph.vertex_ids)
    while True:
        vals = {vid: Fraction(rng.randint(-12, 12), rng.choice((2, 3, 5, 7)))
                for vid in vids[:-1]}
        vals[vids[-1]] = -sum(vals.values(), Fraction(0))
        phi = PhiVector(graph, vals)
        if is_nondegenerate(graph, phi):
            return phi


@pytest.fixture(scope="module")
def phis():
    return [mixed_phi(g, random.Random(i)) for i, g in enumerate(GRAPHS)]


def views(data):
    """Everything a datum shows: key, S, D and repr."""
    return [(F.key, F.S, list(F.D.items()), repr(F)) for F in data]


@pytest.mark.parametrize("include_nonfree", [False, True])
@pytest.mark.parametrize("d", [-2, -1, 0, 1, 2])
def test_stable_sheaf_data_matches_frozenset_reference(phis, d,
                                                      include_nonfree):
    # At |d| = 2 the singleton windows, moved by max(d, 0) and min(d, 0)
    # for the complements, can be empty; every fourth graph covers that.
    step = 4 if abs(d) > 1 else 1
    for graph, phi in zip(GRAPHS[::step], phis[::step]):
        got = stable_sheaf_data(graph, phi, d, include_nonfree)
        want = oracles.reference_stable_sheaf_data(graph, phi, d,
                                                   include_nonfree)
        assert views(got) == views(want), graph
        assert all(F.graph is graph for F in got)


def test_subcurve_rows_match_subcurve_data():
    for graph in GRAPHS:
        rows = graph.subcurve_rows
        assert type(rows) is tuple
        assert len(rows) == len(graph.subcurve_data), graph
        for i, (row, info) in enumerate(zip(rows, graph.subcurve_data)):
            assert type(row) is tuple
            assert row == (i, info.prefix, info.last, info.internal_mask,
                           info.crossing_mask, info.cr), graph


@pytest.mark.parametrize("q", [1, 2, 3, 7, 12])
def test_delta_lowers_only_the_top_of_the_singleton_window(q):
    # _stable_pairs finds each vertex's delta-0 window once and, for a
    # mask, only lowers its stop by delta; at total degree d the window of
    # the complement is the same one moved by d, and the search keeps
    # their overlap by moving the start by max(d, 0) and the stop by
    # min(d, 0)
    for two in range(-9 * q, 9 * q + 1):
        for cr in range(8):
            base = _integer_window(two - q * cr, two + q * cr, 2 * q)
            for delta in range(cr + 1):
                own = _integer_window(two - q * cr,
                                      two + q * (cr - 2 * delta), 2 * q)
                assert range(base.start, base.stop - delta) == own, \
                    (two, q, cr, delta)
                for d in range(-3, 4):
                    both = [x for x in own if x - d in own]
                    got = range(base.start + max(d, 0),
                                base.stop - delta + min(d, 0))
                    assert list(got) == both, (two, q, cr, delta, d)


def path_with_loops(nv):
    """A path on ``nv`` vertices with sparse, unsorted ids, a loop at one
    end and a double edge at the other."""
    ids = [3 * v + 7 for v in reversed(range(nv))]
    edges = [(ids[v], ids[v + 1]) for v in range(nv - 1)]
    edges += [(ids[0], ids[0]), (ids[-2], ids[-1])]
    return DualGraph([Vertex(vid, 1, frozenset()) for vid in ids],
                     [Edge(40 - i, tuple(sorted(ends)))
                      for i, ends in enumerate(edges)], 0)


LARGER = [path_with_loops(nv) for nv in range(5, 9)]


def test_first_half_of_the_table_is_one_subcurve_of_each_pair():
    # _half(subcurve_rows) holds the first len >> 1 rows (both singletons
    # at 2 vertices): every singleton, and one subcurve of each
    # complementary pair
    for graph in GRAPHS + LARGER:
        rows, nv = graph.subcurve_rows, len(graph.vertex_ids)
        half = _half(rows)
        assert half == rows[:2 if nv == 2 else len(rows) >> 1], graph
        table = [info.vertex_set for info in graph.subcurve_data]
        kept = table[:len(half)]
        whole = frozenset(graph.vertex_ids)
        pairs = {frozenset((c, whole - c)) for c in table}
        assert {frozenset((c, whole - c)) for c in kept} == pairs, graph
        if nv > 1:
            assert {frozenset([v]) for v in graph.vertex_ids} <= set(kept)
        if nv > 2:
            assert len(kept) == len(pairs), graph


def test_half_table_verdicts_match_whole_table():
    # is_nondegenerate and is_small_perturbation read one subcurve of each
    # complementary pair; the Fraction oracles read every subcurve
    seen = Counter()
    for i, graph in enumerate(GRAPHS):
        rng = random.Random(i)
        for sampler in (random_phi, random_small_perturbation_phi,
                        random_wall_phi):
            drawn = sampler(graph, rng)
            if drawn is None:
                continue
            fresh = PhiVector(graph, drawn.values)   # nothing kept yet
            for phi in (drawn, fresh):
                verdicts = (is_nondegenerate(graph, phi),
                            is_small_perturbation(graph, phi))
                assert verdicts == (
                    oracles.fraction_is_nondegenerate(graph, phi),
                    oracles.fraction_is_small_perturbation(graph, phi)), \
                    (graph, phi)
                seen.update(enumerate(verdicts))
    # both predicates met both answers
    assert len(seen) == 4, seen


def outcome(result):
    if result is True:
        return True
    F, c0 = result
    return views([F]), c0


def test_support_lemma_matches_frozenset_reference():
    # every fourth graph: the violation tests below cover all of GRAPHS
    for i, graph in enumerate(GRAPHS[::4]):
        phi = random_small_perturbation_phi(graph, random.Random(i))
        assert verify_support_lemma(graph, phi) is True
        assert oracles.reference_verify_support_lemma(graph, phi) is True


@pytest.mark.parametrize("nonfree_only", [False, True])
def test_first_support_violation_matches_frozenset_reference(
        phis, monkeypatch, nonfree_only):
    # Off the small-perturbation locus the bound fails, which exercises
    # the choice of the first violating (F, C0).
    monkeypatch.setattr(stability, "is_small_perturbation", lambda g, p: True)
    monkeypatch.setattr(oracles, "fraction_is_small_perturbation",
                        lambda g, p: True)
    if nonfree_only:
        # Line bundles come first in canonical order and one of them fails
        # whenever any datum does; without them the bound is tested on
        # non-free data.
        pairs = stability._stable_pairs
        data = oracles.reference_stable_sheaf_data
        monkeypatch.setattr(stability, "_stable_pairs", lambda *args, **kw: [
            (S, D) for S, D in pairs(*args, **kw) if S])
        monkeypatch.setattr(oracles, "reference_stable_sheaf_data",
                            lambda *args, **kw: [F for F in data(*args, **kw)
                                                 if F.S])
    violations = 0
    for graph, phi in zip(GRAPHS, phis):
        got = outcome(verify_support_lemma(graph, phi))
        assert got == outcome(
            oracles.reference_verify_support_lemma(graph, phi)), graph
        violations += got is not True
    assert violations > len(GRAPHS) // 4


def test_nonfree_counts_are_tree_counts():
    # Degree-0 stable data with support S are the stable multidegrees of
    # G - S, tau(G - S) of them when G - S is connected and none otherwise;
    # summed over S that is tau(G) * 2^b1: a spanning tree plus any subset
    # of the other b1 edges.
    for i, graph in enumerate(CORPUS[::6] + [UNSORTED]):
        phi = random_nondegenerate_phi(graph, random.Random(i))
        data = stable_sheaf_data(graph, phi, 0, include_nonfree=True)
        b1 = len(graph.edges) - len(graph.vertices) + 1
        assert len(data) == spanning_tree_count(graph) * 2 ** b1, graph
        by_mask = Counter(F.mask for F in data)
        edges = sorted(graph.edges, key=lambda e: e.id)  # bit i: edge_order[i]
        for mask in range(1 << len(edges)):
            rest = DualGraph(graph.vertices, [
                e for bit, e in enumerate(edges) if not mask >> bit & 1],
                graph.n, graph.g)
            want = spanning_tree_count(rest) if rest.is_connected() else 0
            assert by_mask[mask] == want, (graph, mask)


def counted_inits(monkeypatch, *classes):
    calls = []
    for cls in classes:
        init = cls.__init__

        def counted(self, *args, _init=init, _name=cls.__name__, **kwargs):
            calls.append(_name)
            _init(self, *args, **kwargs)
        monkeypatch.setattr(cls, "__init__", counted)
    return calls


def test_support_lemma_that_holds_builds_no_objects(monkeypatch):
    graphs = CORPUS[::10] + [UNSORTED]
    phis = [random_small_perturbation_phi(g, random.Random(i))
            for i, g in enumerate(graphs)]
    calls = counted_inits(monkeypatch, SheafDatum)
    assert all(verify_support_lemma(g, phi) is True
               for g, phi in zip(graphs, phis))
    assert calls == []


def test_support_violation_builds_one_datum_and_one_subcurve(monkeypatch):
    graph = CORPUS[-1]
    phi = mixed_phi(graph, random.Random(1))
    monkeypatch.setattr(stability, "is_small_perturbation", lambda g, p: True)
    calls = counted_inits(monkeypatch, SheafDatum)
    F, c0 = verify_support_lemma(graph, phi)
    assert calls == ["SheafDatum"]
    assert isinstance(F, SheafDatum)
    # the subcurve is its row's vertex set in the graph's subcurve table
    assert c0 in [info.vertex_set for info in graph.subcurve_data]


SAMPLER_ROUTES = [
    pytest.param(sampler, reference, id=sampler.__name__)
    for sampler, reference in [
        (random_phi, oracles.reference_random_phi),
        (random_nondegenerate_phi,
         oracles.reference_random_nondegenerate_phi),
        (random_small_perturbation_phi,
         oracles.reference_random_small_perturbation_phi),
        (random_wall_phi, oracles.reference_random_wall_phi),
    ]
]


@pytest.mark.parametrize("sampler, reference", SAMPLER_ROUTES)
def test_sampler_phis_match_fraction_route(sampler, reference):
    # Two draws per graph from one seed: each phi, its kept subcurve sums
    # and wall verdict, and the rng state after it match the route that
    # builds every draw from Fractions and tests it on Fraction sums.
    def fields(phi):
        return (phi.q, list(phi.numerators.items()), list(phi.values.items()))

    for i, graph in enumerate(CORPUS + [UNSORTED]):
        rng, ref_rng = random.Random(i), random.Random(i)
        for _ in range(2):
            phi, ref = sampler(graph, rng), reference(graph, ref_rng)
            assert rng.getstate() == ref_rng.getstate()
            if ref is None:
                assert phi is None
                continue
            assert fields(phi) == fields(ref)
            assert phi.subcurve_sums() == tuple(
                oracles.fraction_subcurve_sum(ref, info) * ref.q
                for info in graph.subcurve_data)
            if phi._nondegenerate is not None:
                assert phi._nondegenerate == \
                    oracles.fraction_is_nondegenerate(graph, ref)


def test_integer_constructor_reduces_like_fractions():
    graph = CORPUS[-1]
    for q, nums in [(6, (2, -4, 0, 2)), (7, (0, 0, 0, 0)), (5, (3, -1, -1, -1)),
                    (12, (8, -2, -3, -3))]:
        numerators = dict(zip(graph.vertex_ids, nums))
        phi = PhiVector._from_numerators(graph, q, nums)
        ref = PhiVector(graph, {v: Fraction(x, q) for v, x in numerators.items()})
        assert (phi.q, phi.numerators, phi.values) == \
            (ref.q, ref.numerators, ref.values)
