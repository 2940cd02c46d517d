import random

import pytest

from jacstab import corpus
from jacstab.corpus import (
    random_nondegenerate_phi,
    random_phi,
    random_small_perturbation_phi,
    stable_graph_corpus,
)
from jacstab.errors import JacstabError, PhiConstructionError
from jacstab.graph import DualGraph, graph_to_json, make_vine, validate
from oracles import canonical_form, reference_graph_corpus

# K4 with one marking: graph 1020 of stable_graph_corpus(4, 7), min cr = 3
K4 = DualGraph.build([(0, 0, (1,)), (1, 0, ()), (2, 0, ()), (3, 0, ())],
                     [(0, 1), (0, 2), (0, 3), (1, 2), (1, 3), (2, 3)], 1)

# The first phi each sampler draws for seeds 0, 1, 2.  The samplers' RNG
# calls and values are part of the verify replay contract
# (seed * 1_000_003 + index), so these must not move.
PINNED = {
    random_phi: [
        {0: "40/19", 1: "56/19", 2: "-4/19", 3: "-92/19"},
        {0: "15/7", 1: "-17/7", 2: "-5/7", 3: "1"},
        {0: "-7/3", 1: "-7/3", 2: "2/3", 3: "4"},
    ],
    random_nondegenerate_phi: [
        {0: "40/19", 1: "56/19", 2: "-4/19", 3: "-92/19"},
        {0: "15/7", 1: "-17/7", 2: "-5/7", 3: "1"},
        {0: "-7/3", 1: "-7/3", 2: "2/3", 3: "4"},
    ],
    random_small_perturbation_phi: [
        {0: "2/13", 1: "1/13", 2: "1/13", 3: "-4/13"},
        {0: "0", 1: "6/37", 2: "-3/37", 3: "-3/37"},
        {0: "-1/3", 1: "-1/3", 2: "0", 3: "2/3"},
    ],
}


@pytest.mark.parametrize("sampler", list(PINNED), ids=lambda f: f.__name__)
def test_first_phi_per_seed_is_pinned(sampler):
    drawn = [sampler(K4, random.Random(seed)) for seed in range(3)]
    assert [{vid: str(x) for vid, x in phi.values.items()} for phi in drawn] \
        == PINNED[sampler]


def test_nondegenerate_sampling_failure_is_a_jacstab_error(monkeypatch):
    # every draw is refused, so each sampler gives up after its 1,000 tries
    monkeypatch.setattr(corpus, "is_nondegenerate", lambda graph, phi: False)
    graph = make_vine(0, 1, 2, (1,), 1).to_graph()
    with pytest.raises(PhiConstructionError, match="nondegenerate"):
        random_nondegenerate_phi(graph, random.Random(0))
    with pytest.raises(PhiConstructionError, match="small-perturbation"):
        random_small_perturbation_phi(graph, random.Random(0))
    assert issubclass(PhiConstructionError, JacstabError)


@pytest.mark.parametrize("bounds", [(4, 7), (5, 5)])
def test_corpus_matches_reference_builder(bounds):
    assert [graph_to_json(g) for g in stable_graph_corpus(*bounds)] == \
        [graph_to_json(g) for g in reference_graph_corpus(*bounds)]


@pytest.fixture(scope="module")
def corpus_57_with_builds():
    """stable_graph_corpus(5, 7) and the number of DualGraph.build calls."""
    calls = []
    build = DualGraph.build

    def counted(*args, **kwargs):
        calls.append(None)
        return build(*args, **kwargs)

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(DualGraph, "build", counted)
        graphs = stable_graph_corpus(5, 7)
    return graphs, len(calls)


def test_corpus_57_builds_only_kept_graphs(corpus_57_with_builds):
    graphs, builds = corpus_57_with_builds
    assert len(graphs) == 1482
    assert builds == len(graphs)


def test_corpus_57_is_valid_and_pairwise_non_isomorphic(corpus_57_with_builds):
    graphs, _ = corpus_57_with_builds
    assert all(validate(g) == [] for g in graphs)
    assert len({canonical_form(g) for g in graphs}) == len(graphs)


def test_vertex_count_stops_at_2g_minus_2_plus_n(monkeypatch):
    # a stable graph has at most 2g - 2 + n = 1 vertex here; trying 9! orders
    # of 9 vertices would never finish
    classes = corpus._edge_multiset_classes

    def capped(num_vertices, *args):
        if num_vertices > 1:
            raise AssertionError("enumerated %d vertices" % num_vertices)
        return classes(num_vertices, *args)

    monkeypatch.setattr(corpus, "_edge_multiset_classes", capped)
    assert [graph_to_json(g) for g in stable_graph_corpus(9, 7, 1, 1)] == \
        [graph_to_json(g) for g in stable_graph_corpus(1, 7, 1, 1)]
