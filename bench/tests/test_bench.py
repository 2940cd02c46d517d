"""Tests of the benchmark itself: checks catch wrong answers, a failing op
does not stop a run, seeds are reproducible, and the tracer's self times
and patches are right.

    python3 -m pytest bench/tests -q
"""

import importlib
import itertools
import shutil
import subprocess
import sys
import time
from pathlib import Path

import pytest

import references
import run
import spans
import workloads

ROOT = Path(__file__).resolve().parents[2]
OPS = 6


def run_ops(workload, seed=7, count=OPS):
    tally = run.Tally()
    for op in itertools.islice(workload.inputs(seed), count):
        run.run_op(workload, op, tally)
    return tally


@pytest.fixture(scope="module")
def suite():
    workload = workloads.SuiteSweep(ROOT)
    workload.setup()
    return workload


@pytest.fixture(scope="module")
def classify():
    workload = workloads.ClassifySweep(ROOT)
    workload.setup()
    return workload


def test_suite_sweep_passes_with_true_reference(suite):
    assert run_ops(suite).failed == 0


def test_wrong_tree_reference_fails_every_graph(suite):
    wrong = workloads.SuiteSweep(ROOT)
    wrong.__dict__.update(suite.__dict__, _expected_trees={})
    wrong.tree_oracle = lambda g: references.exhaustive_spanning_trees(g) + 1
    tally = run_ops(wrong)
    assert tally.failed == OPS
    assert "spanning trees" in " ".join(tally.misses)


def test_wrong_prop41_reference_fails_every_twist(classify):
    assert run_ops(classify, count=40).failed == 0
    wrong = workloads.ClassifySweep(ROOT)
    wrong.__dict__.update(classify.__dict__)
    wrong.expected_extends = lambda g, k, a: not references.prop41_extends(g, k, a)
    assert run_ops(wrong, count=40).failed == 40


def test_wrong_golden_fails_only_the_golden_atlas():
    workload = workloads.VineAtlas(ROOT)
    workload.setup()
    workload.specs = [(2, 1, False), (2, 2, False), (2, 1, True)]
    assert run_ops(workload, count=3).failed == 0
    workload.golden = workload.golden.replace(b'"g": 2', b'"g": 3', 1)
    tally = run_ops(workload, count=3)
    assert tally.failed == 1
    assert "differs from" in tally.misses[0]


def test_wrong_golden_fails_the_cli_atlas_call():
    workload = workloads.CliCold(ROOT)
    workload.setup()
    workload.COMMANDS = workload.COMMANDS[2:]   # the atlas command only
    assert run_ops(workload, count=1).failed == 0
    workload.golden = b""
    assert run_ops(workload, count=1).failed == 1


def test_exception_in_an_op_is_a_failure_not_a_crash(classify):
    broken = workloads.ClassifySweep(ROOT)
    broken.__dict__.update(classify.__dict__)

    def explode(op):
        raise ZeroDivisionError("boom")
    broken.run = explode
    tally = run_ops(broken, count=3)
    assert (len(tally.times), tally.failed) == (3, 3)
    assert "ZeroDivisionError" in tally.misses[0]


def test_inputs_depend_only_on_the_seed(classify):
    first = list(itertools.islice(classify.inputs(3), 50))
    again = list(itertools.islice(classify.inputs(3), 50))
    other = list(itertools.islice(classify.inputs(4), 50))
    assert first == again
    assert first != other
    assert all(isinstance(op[2], int) for op in first)
    assert workloads.op_seed(3, 5) == 3 * 1_000_003 + 5


def test_cycles_cover_every_input_before_repeating():
    items = list(range(7))
    ops = list(itertools.islice(workloads.shuffled_cycles(items, 1), 21))
    assert [index for index, _ in ops] == list(range(21))
    for cycle in range(3):
        assert sorted(item for _, item in ops[7 * cycle:7 * cycle + 7]) == items


class Sleeper(workloads.Workload):
    cycle = 4

    def inputs(self, seed):
        return workloads.shuffled_cycles(range(self.cycle), seed)

    def run(self, op):
        time.sleep(0.001)

    def check(self, op, out):
        return []


def test_timed_run_ends_on_a_whole_cycle():
    sleeper = Sleeper(ROOT)
    tally = run.measure(sleeper, 1, 0.002)
    assert len(tally.times) == 4
    assert tally.scaled_busy >= 0.002
    sleeper.min_ops = 5
    assert len(run.measure(sleeper, 1, 0.002).times) == 8


def test_times_are_scaled_by_the_nearest_probes():
    probe = workloads.Probe(lambda: None, ref_s=1.0, share=0.1, window=2)
    tally = run.Tally()
    tally.times = [0.010, 0.010, 0.010]
    # Two probes after op 0 took twice the reference time, two after op 2
    # took the reference time; each op takes its two nearest probes.
    tally.probes = [(1, 2.0), (1, 2.0), (3, 1.0), (3, 1.0)]
    assert tally.scaled_times(probe) == pytest.approx(
        [0.010 / 2, 0.010 / 1.5, 0.010 / 1.5])


def test_tail_is_highest_percentile_with_ten_samples_beyond():
    samples = [float(x) for x in range(100)]
    assert run.tail(samples) == (89.0, 90.0)
    assert run.tail([3.0, 1.0, 2.0]) == (3.0, 100.0)


def test_self_time_excludes_child_spans(monkeypatch):
    clock = iter(range(100))
    monkeypatch.setattr(spans, "perf_counter", lambda: float(next(clock)))
    tracer = spans.Tracer()

    inner = tracer.wrap(lambda: None, "inner")

    def body():
        inner()
        inner()
    outer = tracer.wrap(body, "outer")
    with tracer.span("op", op_id=1):
        outer()
    # op [0, 7], outer [1, 6], inner [2, 3] and [4, 5]
    assert tracer.calls == {"op": 1, "outer": 1, "inner": 2}
    assert tracer.self_s == {"op": 2.0, "outer": 3.0, "inner": 2.0}
    by_name = {}
    for span_id, name, _, _, parent, op_id in tracer.spans:
        by_name.setdefault(name, []).append((span_id, parent, op_id))
    (op_id_span, op_parent, _), = by_name["op"]
    (outer_id, outer_parent, _), = by_name["outer"]
    assert op_parent is None and outer_parent == op_id_span
    assert {parent for _, parent, _ in by_name["inner"]} == {outer_id}
    assert {op for spans_ in by_name.values() for _, _, op in spans_} == {1}


def test_tracer_patches_every_binding_and_restores_them():
    importlib.import_module("jacstab")
    stability = importlib.import_module("jacstab.stability")
    abel_jacobi = importlib.import_module("jacstab.abel_jacobi")
    atlas_mod = importlib.import_module("jacstab.atlas")
    graph = importlib.import_module("jacstab.graph")
    package = sys.modules["jacstab"]
    before = (stability.is_stable, abel_jacobi.is_stable, package.atlas,
              graph.DualGraph.__dict__["subcurve_data"])
    tracer = spans.Tracer()
    with tracer.installed():
        assert stability.is_stable is abel_jacobi.is_stable is not before[0]
        assert package.atlas is atlas_mod.atlas is not before[2]
        vine = graph.make_vine(1, 1, 2, (1,), 1)
        g = vine.to_graph()
        g.subcurve_data
        abel_jacobi.classify_extension(
            2, 2, abel_jacobi.AJDatum(0, (1, -1), 2, 2), 0)
    after = (stability.is_stable, abel_jacobi.is_stable, package.atlas,
             graph.DualGraph.__dict__["subcurve_data"])
    assert after == before
    assert tracer.calls["graph.to_graph"] >= 1
    assert tracer.calls["graph.subcurve_data"] >= 1
    assert tracer.calls["abel_jacobi.construct_prop_phi"] == 1
    assert tracer.counts["stability.epsilon_stream.draws"] >= 1
    assert tracer.counts["abel_jacobi.prop_phi_accepted"] >= 1


def test_refuses_to_run_without_the_library(tmp_path):
    shutil.copytree(ROOT / "bench", tmp_path / "bench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "vine-atlas",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0
    assert "{" not in proc.stdout
