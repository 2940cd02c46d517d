import logging
import random

import pytest

from jacstab.verify import SUITES, _per_graph_rng, run_suite

CORPUS_SUITES = ("cor25", "wall-criterion", "support-lemma", "tree-count")


@pytest.mark.parametrize("suite", CORPUS_SUITES)
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


def test_unknown_suite_rejected():
    with pytest.raises(ValueError, match="unknown suite"):
        run_suite("cor26")


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
    with caplog.at_level(logging.DEBUG, logger="jacstab.verify"):
        run_suite("tree-count", max_vertices=2, max_edges=3, trials=2,
                  seed=1, jobs=jobs)
    pool = ["tree-count: pool of 2 workers"] if jobs > 1 else []
    assert caplog.messages == ["tree-count: 103 corpus graphs", *pool]
