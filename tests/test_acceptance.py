"""Acceptance gate: one test (and one printed pass/fail line) per criterion.

Every check is exact rational arithmetic; every randomized sweep is seeded.
Runtime bounds are asserted with wall-clock measurements.
"""

import json
import random
import subprocess
import sys
import time
from pathlib import Path

from jacstab.abel_jacobi import AJDatum, aj_multidegree
from jacstab.corpus import (
    random_nondegenerate_phi,
    random_small_perturbation_phi,
)
from jacstab.graph import DualGraph, enumerate_vines
from jacstab.stability import stable_sheaf_data
from jacstab.verify import _per_graph_rng, run_suite
from oracles import random_stable_graph

GOLDEN = Path(__file__).parent / "golden" / "atlas_g2_n1.json"
JOBS = 4


def _report(criterion: str, ok: bool, elapsed: float, bound: float) -> None:
    status = "PASS" if ok and elapsed < bound else "FAIL"
    print("%s %s (%.1fs, bound %.0fs)" % (status, criterion, elapsed, bound))
    assert ok, criterion
    assert elapsed < bound, "%s exceeded %.0fs: %.1fs" % (
        criterion, bound, elapsed)


def _vines(max_genus, max_markings, e):
    out = []
    for g in range(1, max_genus + 1):
        for n in range(1, max_markings + 1):
            out.extend(v for v in enumerate_vines(g, n, 1) if v.e == e)
    return out


def test_criterion_1_separating_node_uniqueness():
    start = time.monotonic()
    ok = True
    for index, vine in enumerate(_vines(4, 3, e=1)):
        graph = vine.to_graph()
        rng = _per_graph_rng(0, index)
        for _ in range(200):
            phi = random_nondegenerate_phi(graph, rng)
            data = stable_sheaf_data(graph, phi, 0, include_nonfree=True)
            if len(data) != 1 or data[0].S:
                ok = False
                break
    _report("criterion 1: separating-node uniqueness", ok,
            time.monotonic() - start, 10)


def test_criterion_2_two_node_consecutive_bidegrees():
    start = time.monotonic()
    ok = True
    for index, vine in enumerate(_vines(4, 3, e=2)):
        graph = vine.to_graph()
        rng = _per_graph_rng(0, index)
        for _ in range(200):
            phi = random_small_perturbation_phi(graph, rng)
            t = 1 if phi.values[0] > 0 else -1
            keys = {F.key for F in
                    stable_sheaf_data(graph, phi, 0, include_nonfree=False)}
            if keys != {((), (0, 0)), ((), (t, -t))}:
                ok = False
                break
    _report("criterion 2: two-node consecutive bidegrees", ok,
            time.monotonic() - start, 10)


def test_criterion_3_small_perturbation_oracle_equivalence():
    start = time.monotonic()
    result = run_suite("cor25", trials=50, seed=0, jobs=JOBS)
    _report("criterion 3: small-perturbation oracle equivalence "
            "(%d cases)" % result.cases,
            result.passed, time.monotonic() - start, 120)
    assert result.counterexample is None, result.counterexample


def test_criterion_4_wall_criterion_soundness():
    start = time.monotonic()
    result = run_suite("wall-criterion", trials=50, seed=0, jobs=JOBS)
    _report("criterion 4: wall-criterion soundness (%d cases)" % result.cases,
            result.passed, time.monotonic() - start, 120)
    assert result.counterexample is None, result.counterexample


def test_criterion_5_support_lemma_shadow():
    start = time.monotonic()
    result = run_suite("support-lemma", trials=5, seed=0, jobs=JOBS)
    _report("criterion 5: support-lemma shadow (%d cases)" % result.cases,
            result.passed, time.monotonic() - start, 120)
    assert result.counterexample is None, result.counterexample


def test_criterion_6_extension_classification_round_trip():
    start = time.monotonic()
    result = run_suite("prop41", seed=0)
    _report("criterion 6: extension classification round-trip "
            "(%d cases)" % result.cases,
            result.passed, time.monotonic() - start, 60)
    assert result.counterexample is None, result.counterexample


def test_criterion_7_abel_jacobi_bidegrees():
    start = time.monotonic()
    ok = True
    # dualizing power on the genus-1-unmarked two-node vine: (-2k, 2k)
    g1 = DualGraph.build([(0, 1, ()), (1, 0, (1,))], [(0, 1), (0, 1)], 1)
    for k in (-2, -1, 1, 2):
        if aj_multidegree(g1, AJDatum(k, (2 * k,), 2, 1)) != {0: -2 * k,
                                                              1: 2 * k}:
            ok = False
    # two markings of weight t on a rational two-node side: (t, -t)
    g2 = DualGraph.build([(0, 0, (1, 2)), (1, 0, (3,))], [(0, 1), (0, 1)], 3)
    for t in (2, 3, 4):
        aj = AJDatum(0, (1, t - 1, -t), 1, 3)
        if aj_multidegree(g2, aj) != {0: t, 1: -t}:
            ok = False
    rng = random.Random(0)
    for _ in range(1000):
        graph = random_stable_graph(rng)
        k = rng.randint(-2, 2)
        a = [rng.randint(-3, 3) for _ in range(graph.n)]
        a[-1] -= k * (2 - 2 * graph.g) + sum(a)
        if sum(aj_multidegree(graph,
                              AJDatum(k, tuple(a), graph.g,
                                      graph.n)).values()) != 0:
            ok = False
            break
    _report("criterion 7: Abel-Jacobi bidegree spot checks", ok,
            time.monotonic() - start, 10)


def test_criterion_8_spanning_tree_count():
    start = time.monotonic()
    result = run_suite("tree-count", trials=50, seed=0, jobs=JOBS)
    _report("criterion 8: spanning-tree count (%d cases)" % result.cases,
            result.passed, time.monotonic() - start, 180)
    assert result.counterexample is None, result.counterexample


def test_criterion_9_atlas_golden_determinism(tmp_path):
    start = time.monotonic()
    golden = GOLDEN.read_bytes()
    ok = True
    for i, jobs in enumerate(("1", "1", "3")):
        out = tmp_path / ("atlas_%d.json" % i)
        proc = subprocess.run(
            [sys.executable, "-m", "jacstab.cli", "atlas", "--g", "2",
             "--n", "1", "--window", "-3..3", "--jobs", jobs,
             "--out", str(out)],
            capture_output=True, text=True)
        if proc.returncode != 0 or out.read_bytes() != golden:
            ok = False
            break
    json.loads(golden)  # the frozen artifact stays valid JSON
    _report("criterion 9: atlas golden determinism", ok,
            time.monotonic() - start, 30)
