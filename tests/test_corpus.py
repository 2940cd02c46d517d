import random

import pytest

from jacstab.corpus import (
    random_nondegenerate_phi,
    random_phi,
    random_small_perturbation_phi,
)
from jacstab.errors import JacstabError, PhiConstructionError
from jacstab.graph import DualGraph, make_vine

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


def test_nondegenerate_sampling_failure_is_a_jacstab_error():
    # spread=0 draws phi = 0 every time, and 0 + 2/2 is an integer: a wall
    graph = make_vine(0, 1, 2, (1,), 1).to_graph()
    with pytest.raises(PhiConstructionError, match="nondegenerate"):
        random_nondegenerate_phi(graph, random.Random(0), spread=0)
    assert issubclass(PhiConstructionError, JacstabError)
