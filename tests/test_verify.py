import concurrent.futures
import logging
import random
from dataclasses import replace
from functools import partial

import pytest

from jacstab import verify
from jacstab.errors import PreconditionError
from jacstab.graph import iter_vines
from jacstab.stability import stable_sheaf_data
from jacstab.verify import SUITES, SuiteResult, _per_graph_rng, run_suite


@pytest.mark.parametrize("suite", SUITES)
def test_jobs_do_not_change_result(suite):
    serial = run_suite(suite, max_vertices=3, max_edges=5, trials=10,
                       seed=1, jobs=1)
    pooled = run_suite(suite, max_vertices=3, max_edges=5, trials=10,
                       seed=1, jobs=2)
    assert serial.passed, serial.counterexample
    assert serial == pooled


@pytest.mark.parametrize("suite", SUITES)
def test_every_suite_dispatches(suite):
    result = run_suite(suite, max_vertices=2, max_edges=3, trials=2, seed=1)
    assert result.suite == suite
    assert result.passed, result.counterexample


@pytest.mark.parametrize("suite,cases", [
    ("cor25", 1300), ("wall-criterion", 2582), ("support-lemma", 1300),
    ("tree-count", 1300)])
def test_corpus_suites_pass_on_five_vertices(suite, cases):
    result = run_suite(suite, max_vertices=5, max_edges=6, trials=1)
    assert result.passed, result.counterexample
    assert result.cases == cases


def test_support_lemma_caps_trials_at_five():
    capped = run_suite("support-lemma", max_vertices=2, max_edges=3, trials=50)
    five = run_suite("support-lemma", max_vertices=2, max_edges=3, trials=5)
    assert capped == five


def test_passed_is_read_from_the_counterexample():
    # a suite passed exactly when it has no counterexample, so no result
    # can print "pass" above one
    with pytest.raises(TypeError):
        SuiteResult("cor25", True, 5, "graph 3 failed")
    failed = SuiteResult(suite="cor25", cases=5,
                         counterexample="graph 3 failed")
    assert not failed.passed
    assert failed.summary() == ("cor25: FAIL (5 cases)\n"
                                "  first counterexample: graph 3 failed")
    result = run_suite("prop41")
    assert (result.passed, result.summary()) == (
        True, "prop41: pass (177 cases)")


def test_unknown_suite_rejected():
    with pytest.raises(ValueError, match="unknown suite"):
        run_suite("cor26")


@pytest.mark.parametrize("bounds", [
    {"trials": 0}, {"trials": -1}, {"max_vertices": 0}, {"max_edges": -1}],
    ids=lambda bounds: "%s=%d" % next(iter(bounds.items())))
@pytest.mark.parametrize("suite", SUITES)
def test_vacuous_bounds_rejected(suite, bounds):
    with pytest.raises(PreconditionError, match="need trials >= 1"):
        run_suite(suite, **bounds)


def _two_vertices(graph):
    return len(graph.vertex_ids) == 2


def _flipped(answer, g, n):
    """An extension answer with its verdict flipped on g = 2: a "no" loses
    its witness and a "yes" gains the first e >= 2 vine as one."""
    if g != 2:
        return answer
    return replace(answer, witness=None if answer.witness
                   else next(iter_vines(g, n, 2)))


# For each suite, lies told by functions of jacstab.verify: the function's
# name, a lie(true, *args) that answers for it, the case count and the
# counterexample.  A lie changes the true function's answer on the two-vertex
# graphs (on g = 2 for prop41), so the one-vertex graphs still run every
# trial.  prop41 counts every twist, as the corpus suites count every graph,
# not only those up to the failing one; its lies reach each of its verdicts.
_LIES = {
    "cor25": [("is_small_perturbation",
               lambda true, g, phi: true(g, phi) != _two_vertices(g), 121,
               "DualGraph(g=2, n=1, V=2, E=1) phi=PhiVector({0: '-20/31', "
               "1: '20/31'}): inequality route True, trivial-bundle route "
               "False")],
    "wall-criterion": [("is_nondegenerate",
                        lambda true, g, phi: true(g, phi) != _two_vertices(g),
                        121, "DualGraph(g=2, n=1, V=2, E=1) phi=PhiVector({0:"
                        " '-20/31', 1: '20/31'}): closed form False, brute "
                        "force True")],
    "support-lemma": [
        ("_support_lemma_count", lambda true, g, phi: (
            true(g, phi)[0],
            (stable_sheaf_data(g, phi, 0)[0], frozenset(g.vertex_ids)))
         if _two_vertices(g) else true(g, phi), 121,
         "DualGraph(g=2, n=1, V=2, E=1) phi=PhiVector({0: '-1/31', 1: "
         "'1/31'}): SheafDatum(S=[], D=(0, 0)) violates on C0=[0, 1]"),
        # a search that loses a datum but finds no violation
        ("_support_lemma_count", lambda true, g, phi: (
            true(g, phi)[0] - _two_vertices(g), true(g, phi)[1]), 121,
         "DualGraph(g=2, n=1, V=2, E=1) phi=PhiVector({0: '-1/31', 1: "
         "'1/31'}): 0 stable degree-0 data, expected 1"),
    ],
    "tree-count": [("spanning_tree_count",
                    lambda true, g: true(g) + _two_vertices(g), 121,
                    "DualGraph(g=2, n=1, V=2, E=1) phi=PhiVector({0: "
                    "'-20/31', 1: '20/31'}): 1 stable multidegrees, 2 "
                    "spanning trees")],
    "prop41": [
        ("brute_force_extends",
         lambda true, g, n, aj: true(g, n, aj) != (g == 2), 177,
         "g=2 n=1 k=-1 a=[-2]: disagrees with chamber brute force"),
        # a "no" certificate whose chambers all test stable
        ("is_stable",
         lambda true, graph, phi, F: true(graph, phi, F) or graph.g == 2,
         177, "g=2 n=1 k=-1 a=[-2]: certificate failed re-check"),
        # a trivial twist answered instead of refused
        ("classify_extension",
         lambda true, g, n, aj, seed: None if g == 2 and aj.is_trivial
         else true(g, n, aj, seed), 177,
         "g=2 n=1 k=0 a=[0]: trivial twist not rejected"),
        # every answer flipped
        ("classify_extension",
         lambda true, g, n, aj, seed: _flipped(true(g, n, aj, seed), g, n),
         177, "g=2 n=1 k=-1 a=[-2]: classified True, expected False"),
        # a "yes" table that the independent check refuses (the suite asks
        # sigma_extends only about "yes" tables, which it accepts)
        ("sigma_extends",
         lambda true, g, n, aj, table: _flipped(true(g, n, aj, table), g, n),
         177,
         "g=2 n=2 k=0 a=[-1, 1]: yes-table fails sigma_extends at "
         "vine(g1=0, g2=1, e=2, S={1})"),
    ],
}


@pytest.mark.parametrize("suite, name, lie, cases, counterexample", [
    pytest.param(suite, *told, id=suite if i == 0 else "%s-%d" % (suite, i))
    for suite in SUITES for i, told in enumerate(_LIES[suite])])
def test_lying_predicate_fails_suite(suite, name, lie, cases, counterexample,
                                     monkeypatch):
    monkeypatch.setattr(verify, name, partial(lie, getattr(verify, name)))
    result = run_suite(suite, max_vertices=2, max_edges=3, trials=2, seed=1)
    assert (result.passed, result.cases, result.counterexample) == \
        (False, cases, counterexample)


def _raise_on_two_vertices(monkeypatch):
    true = verify.is_small_perturbation

    def check(graph, phi):
        if len(graph.vertices) == 2:
            raise RuntimeError("boom on %r" % graph)
        return true(graph, phi)

    monkeypatch.setattr(verify, "is_small_perturbation", check)


@pytest.mark.parametrize("jobs", [1, 2])
def test_raising_case_fails_suite_with_replay_seed(monkeypatch, jobs):
    # item 18 is the first two-vertex graph; its replay seed is
    # 1 * 1_000_003 + 18
    _raise_on_two_vertices(monkeypatch)
    result = run_suite("cor25", max_vertices=2, max_edges=3, trials=2,
                       seed=1, jobs=jobs)
    assert (result.passed, result.cases, result.counterexample) == (
        False, 121, "item 18 (replay seed 1000021) raised RuntimeError: "
                    "boom on DualGraph(g=2, n=1, V=2, E=1)")


def test_per_graph_seed_is_replayable():
    # the documented replay formula: random.Random(seed * 1_000_003 + index)
    for seed, index in ((0, 0), (1, 7), (3, 1022)):
        expected = random.Random(seed * 1_000_003 + index).random()
        assert _per_graph_rng(seed, index).random() == expected
    draws = {_per_graph_rng(seed, index).random()
             for seed in range(3) for index in range(50)}
    assert len(draws) == 150


@pytest.mark.parametrize("jobs", [1, 2])
def test_run_suite_logs_corpus_and_pool_size(caplog, jobs):
    for suite, items in (("tree-count", "tree-count: 103 corpus graphs"),
                         ("prop41", "prop41: 177 twists")):
        caplog.clear()
        with caplog.at_level(logging.DEBUG, logger="jacstab.verify"):
            run_suite(suite, max_vertices=2, max_edges=3, trials=2,
                      seed=1, jobs=jobs)
        pool = ["%s: pool of 2 workers" % suite] if jobs > 1 else []
        assert caplog.messages == [items, *pool]


@pytest.mark.parametrize("jobs", [0, -3])
def test_jobs_below_one_rejected(jobs):
    with pytest.raises(PreconditionError, match="need jobs >= 1, got %d" % jobs):
        run_suite("prop41", jobs=jobs)


@pytest.mark.parametrize("seed", [-1, True, 1.0, "1"], ids=repr)
def test_seed_not_a_nonnegative_int_rejected(seed):
    # random.Random seeds by absolute value, so seed -s would replay the
    # streams of seed s
    with pytest.raises(PreconditionError,
                       match="need an int seed >= 0, got %r" % (seed,)):
        run_suite("tree-count", max_vertices=2, max_edges=2, seed=seed)


class _RecordingPool:
    """Stands in for ProcessPoolExecutor: records its size, starts no
    process and maps in this one."""

    sizes = []

    def __init__(self, max_workers):
        self.sizes.append(max_workers)

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        return False

    def map(self, fn, items, chunksize):
        return map(fn, items)


@pytest.mark.parametrize("suite,jobs,bounds,workers", [
    ("prop41", 100_000, (2, 3), [6]),        # 177 twists: 6 chunks of 32
    ("prop41", 3, (2, 3), [3]),
    ("tree-count", 100_000, (2, 3), [4]),    # 103 graphs: 4 chunks
    ("tree-count", 100_000, (1, 0), []),     # 6 graphs: one chunk, no pool
])
def test_pool_sized_to_its_chunks(monkeypatch, suite, jobs, bounds, workers):
    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor",
                        _RecordingPool)
    monkeypatch.setattr(_RecordingPool, "sizes", [])
    max_vertices, max_edges = bounds
    pooled = run_suite(suite, max_vertices, max_edges, trials=2, seed=1,
                       jobs=jobs)
    assert _RecordingPool.sizes == workers
    assert pooled == run_suite(suite, max_vertices, max_edges, trials=2,
                               seed=1)
