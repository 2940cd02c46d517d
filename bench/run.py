"""jacstab benchmark: one workload per run, or all of them.

    python3 bench/run.py --workload suite-sweep --seed 1 --seconds 15 --trace 0
    python3 bench/run.py --workload all --seed 1 --seconds 15 --trace 0

Run from the repository root.  The library is imported from ``src/``; no
install step is needed.  With ``--trace 0`` the run times one op at a time
for ``--seconds`` of busy time and reports the end-to-end metrics, every
time scaled to a reference host speed by probes timed between the ops
(``workloads.Probe``).  With
``--trace 1`` it runs a fixed number of ops twice, untraced and then with
every public jacstab function wrapped, and reports the per-layer metrics and
the tracing overhead.  Outputs are checked outside the timed region; a
wrong answer or an exception counts as a failed op.

Report lines come first; the last line of stdout is one JSON object with
the keys ``correct``, ``attempted``, ``failed`` and ``metrics``.  The full
result, with provenance and sample counts, is also written under
``.bench_out/``.
"""

from __future__ import annotations

import argparse
import bisect
import hashlib
import itertools
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import traceback
from importlib import metadata
from pathlib import Path
from time import perf_counter

ROOT = Path(__file__).resolve().parent.parent
OUT_DIR = ROOT / ".bench_out"
SETUP_SAMPLES = 11
IMPORT_PROBES = 3
MAX_MISSES_KEPT = 20

END_TO_END = {  # name: unit
    "setup_s": "s",
    "peak_rss_mb": "MB",
    "items_per_s": "1/s",
    "op_p50_ms": "ms",
    "op_tail_ms": "ms",
}

# Workload-specific names of the generic end-to-end metrics, as cited by
# performance changes.
NAMED = {
    "suite-sweep": {"sweep.graphs_per_s": "items_per_s",
                    "sweep.graph_p50_ms": "op_p50_ms",
                    "sweep.graph_tail_ms": "op_tail_ms"},
    "vine-atlas": {"atlas.vines_per_s": "items_per_s"},
    "classify-sweep": {"classify.twists_per_s": "items_per_s",
                       "classify.twist_p50_ms": "op_p50_ms",
                       "classify.twist_tail_ms": "op_tail_ms"},
    "cli-cold": {},
}

CALLS_AND_SELF = (
    "graph.spanning_tree_count", "graph.to_graph", "graph.enumerate_vines",
    "stability.find_equality_witness", "stability.is_nondegenerate",
    "stability.is_small_perturbation", "stability.is_stable",
    "stability.verify_support_lemma", "stability.stable_sheaf_data",
    "atlas.chambers",
    "abel_jacobi.classify_extension", "abel_jacobi.construct_prop_phi",
    "abel_jacobi.sigma_extends", "abel_jacobi.certify_unstable_on_vine",
)
SELF_ONLY = ("corpus.stable_graph_corpus", "corpus.samplers", "atlas.atlas",
             "atlas.atlas_to_json")
COUNTERS = ("stability.stable_sheaf_data.data_returned",
            "stability.phi_vectors.built", "stability.epsilon_stream.draws",
            "corpus.graphs", "atlas.json_bytes")


def per_layer_units() -> dict[str, str]:
    """Every per-layer metric name and its unit, in report order."""
    units = {"graph.subcurve_data.builds": "count",
             "graph.subcurve_data.self_s": "s"}
    for name in CALLS_AND_SELF:
        units[name + ".calls"] = "count"
        units[name + ".self_s"] = "s"
    for name in SELF_ONLY:
        units[name + ".self_s"] = "s"
    units["stability.epsilon_stream.self_s"] = "s"
    units["atlas.walls.calls"] = "count"
    for name in COUNTERS:
        units[name] = "bytes" if name.endswith("bytes") else "count"
    units["corpus.samplers.accept_ratio"] = "ratio"
    units["abel_jacobi.phi_accept_ratio"] = "ratio"
    for mod in ("jacstab", "click", "sympy"):
        units["cli.import_%s_s" % mod] = "s"
    units["trace.overhead_ratio"] = "ratio"
    return units


# --- measurement -----------------------------------------------------------

def tail(samples: list[float]) -> tuple[float, float]:
    """(value, percentile) of the highest percentile with at least ten
    samples beyond it; the maximum when there are fewer than eleven."""
    ordered = sorted(samples)
    index = len(ordered) - 11 if len(ordered) > 10 else len(ordered) - 1
    return ordered[index], 100.0 * (index + 1) / len(ordered)


class Tally:
    """Outcome of a sequence of ops: times, items, failures."""

    def __init__(self):
        self.times: list[float] = []
        self.labels: list[object] = []
        self.busy = 0.0
        self.items = 0
        self.failed = 0
        self.misses: list[str] = []
        # Speed probes: (number of ops before the probe, seconds).
        self.probes: list[tuple[int, float]] = []
        self.probe_s = 0.0
        self.scaled_busy = 0.0   # busy time at the reference speed, so far

    def add(self, seconds: float, label, items: int, misses: list[str]):
        self.times.append(seconds)
        self.labels.append(label)
        self.busy += seconds
        self.items += items
        if misses:
            self.failed += 1
            room = MAX_MISSES_KEPT - len(self.misses)
            self.misses.extend(misses[:max(0, room)])

    def probe(self, probe) -> None:
        """Time ``probe`` until probe time is its share of busy time, then
        add the last op to ``scaled_busy`` by the latest probes."""
        while self.probe_s < probe.share * self.busy:
            seconds = probe.time()
            self.probes.append((len(self.times), seconds))
            self.probe_s += seconds
        recent = [s for _, s in self.probes[-probe.window:]]
        self.scaled_busy += probe.scale(self.times[-1], recent)

    def scaled_times(self, probe) -> list[float]:
        """Each op time at the reference speed, from the ``probe.window``
        probes nearest to it (those run just before and just after it)."""
        after = [ops for ops, _ in self.probes]
        seconds = [s for _, s in self.probes]
        window = probe.window
        out = []
        for i, t in enumerate(self.times):
            j = bisect.bisect_right(after, i)   # first probe after op i
            lo = max(0, min(j - window // 2, len(seconds) - window))
            out.append(probe.scale(t, seconds[lo:lo + window]))
        return out


def run_op(workload, op, tally: Tally, tracer=None) -> None:
    """Time one op, then check its output untimed (and untraced)."""
    out, error = None, None
    start = perf_counter()
    try:
        if tracer is None:
            out = workload.run(op)
        else:
            with tracer.span("bench.op", op_id=op[0]):
                out = workload.run(op)
    except Exception:
        error = traceback.format_exc(limit=3)
    elapsed = perf_counter() - start
    if error is not None:
        tally.add(elapsed, op[1], 0, ["op %d raised: %s" % (op[0], error)])
        return
    try:
        if tracer is None:
            misses = workload.check(op, out)
        else:
            with tracer.paused():
                misses = workload.check(op, out)
        items = workload.items(op, out)
    except Exception:
        misses = ["op %d check raised: %s" % (op[0], traceback.format_exc(limit=3))]
        items = 0
    tally.add(elapsed, op[1], items, misses)


def measure(workload, seed: int, seconds: float) -> Tally:
    """Ops until ``seconds`` of busy time at the reference speed and at
    least ``workload.min_ops`` ops, ending on a whole cycle.  So the op
    count, and with it the op the tail falls on, does not change with the
    host's speed."""
    tally = Tally()
    for op in workload.inputs(seed):
        if (tally.scaled_busy >= seconds and op[0] >= workload.min_ops
                and op[0] % workload.cycle == 0):
            break
        run_op(workload, op, tally)
        tally.probe(workload.probe)
    return tally


def peak_rss_mb(children: bool) -> float:
    who = resource.RUSAGE_CHILDREN if children else resource.RUSAGE_SELF
    return resource.getrusage(who).ru_maxrss / 1024.0


def end_to_end(workload, seed: int, seconds: float) -> dict:
    setup_raw, setup = [], []
    for _ in range(SETUP_SAMPLES):
        raw, probes = workload.setup_sample()
        setup_raw.append(raw)
        setup.append(workload.probe.scale(raw, probes))
    workload.setup()
    tally = measure(workload, seed, seconds)
    times = tally.scaled_times(workload.probe)
    tail_value, tail_pct = tail(times)
    n = len(times)
    samples = {"setup_s": len(setup), "peak_rss_mb": 1, "items_per_s": n,
               "op_p50_ms": n, "op_tail_ms": n}
    metrics = {
        "setup_s": statistics.median(setup),
        "peak_rss_mb": peak_rss_mb(children=workload.name == "cli-cold"),
        "items_per_s": tally.items / sum(times),
        "op_p50_ms": statistics.median(times) * 1e3,
        "op_tail_ms": tail_value * 1e3,
    }
    named = {alias: (metrics[generic], END_TO_END[generic], samples[generic])
             for alias, generic in NAMED[workload.name].items()}
    if workload.name == "cli-cold":
        for label, _, _ in workload.COMMANDS:
            mine = [t for t, (lab, _, _) in zip(times, tally.labels)
                    if lab == label]
            named["cli.%s_p50_s" % label] = (statistics.median(mine), "s",
                                             len(mine))
    named["fail_ratio"] = (tally.failed / n, "ratio", n)
    return {
        "tally": tally,
        "metrics": metrics,
        "samples": samples,
        "named": named,
        "notes": {"tail_percentile": tail_pct, "busy_s": tally.busy,
                  "items": tally.items, "item": workload.item,
                  "setup_samples_s": setup,
                  "raw_setup_samples_s": setup_raw,
                  "probes": len(tally.probes),
                  "probe_median_ms": 1e3 * statistics.median(
                      s for _, s in tally.probes),
                  "raw_items_per_s": tally.items / tally.busy,
                  "raw_op_p50_ms": statistics.median(tally.times) * 1e3,
                  "raw_op_tail_ms": tail(tally.times)[0] * 1e3},
    }


def import_probe() -> dict[str, float]:
    from workloads import child_env, parse_importtime

    proc = subprocess.run(
        [sys.executable, "-X", "importtime", "-c", "import jacstab.cli; import sympy"],
        cwd=ROOT, env=child_env(ROOT), capture_output=True, timeout=120, check=True)
    return parse_importtime(proc.stderr)


def traced(workload, seed: int) -> dict:
    from spans import Tracer

    tracer = Tracer()
    with tracer.installed():
        with tracer.span("bench.setup"):
            workload.setup()
    ops = list(itertools.islice(workload.inputs(seed), workload.traced_ops))
    plain = Tally()
    for op in ops:
        run_op(workload, op, plain)
        plain.probe(workload.probe)
    with tracer.installed():
        if workload.name == "cli-cold":
            workload.python_flags = ["-X", "importtime"]
        with_trace = Tally()
        for op in ops:
            run_op(workload, op, with_trace, tracer)
            with_trace.probe(workload.probe)
        workload.python_flags = []
    if workload.name == "cli-cold":
        imports = workload.import_samples
    else:
        imports = [import_probe() for _ in range(IMPORT_PROBES)]

    metrics = {"graph.subcurve_data.builds": tracer.calls["graph.subcurve_data"],
               "graph.subcurve_data.self_s": tracer.self_s["graph.subcurve_data"]}
    for name in CALLS_AND_SELF:
        metrics[name + ".calls"] = tracer.calls[name]
        metrics[name + ".self_s"] = tracer.self_s[name]
    for name in SELF_ONLY + ("stability.epsilon_stream",):
        metrics[name + ".self_s"] = tracer.self_s[name]
    metrics["atlas.walls.calls"] = tracer.calls["atlas.walls"]
    for name in COUNTERS:
        metrics[name] = tracer.counts[name]
    counts = tracer.counts
    drawn = counts["corpus.samplers.drawn"]
    metrics["corpus.samplers.accept_ratio"] = (
        counts["corpus.samplers.returned"] / drawn if drawn else 0.0)
    draws = counts["abel_jacobi.prop_phi_draws"]
    metrics["abel_jacobi.phi_accept_ratio"] = (
        counts["abel_jacobi.prop_phi_accepted"] / draws if draws else 0.0)
    for mod in ("jacstab", "click", "sympy"):
        values = [sample[mod] for sample in imports if mod in sample]
        metrics["cli.import_%s_s" % mod] = statistics.median(values) if values else 0.0
    metrics["trace.overhead_ratio"] = (
        sum(with_trace.scaled_times(workload.probe))
        / sum(plain.scaled_times(workload.probe)))

    OUT_DIR.mkdir(exist_ok=True)
    tracer.write_spans(OUT_DIR / ("%s-seed%d-spans.jsonl" % (workload.name, seed)))
    tally = Tally()
    for part in (plain, with_trace):
        tally.times += part.times
        tally.busy += part.busy
        tally.failed += part.failed
        tally.misses += part.misses
    if set(metrics) != set(per_layer_units()):
        raise RuntimeError("per-layer names out of sync: %s"
                           % sorted(set(metrics) ^ set(per_layer_units())))
    return {
        "tally": tally,
        "metrics": metrics,
        "samples": {name: len(imports) if name.startswith("cli.") else len(ops)
                    for name in metrics},
        "named": {},
        "notes": {"traced_ops": len(ops), "untraced_busy_s": plain.busy,
                  "traced_busy_s": with_trace.busy, "spans": len(tracer.spans),
                  "import_samples": len(imports)},
    }


# --- provenance and output ---------------------------------------------------

def provenance(workload: str, seed: int, trace: int) -> dict:
    sha = None
    if (ROOT / ".git").exists():
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                              capture_output=True, text=True)
        sha = proc.stdout.strip() or None
    digest = hashlib.sha256()
    for path in sorted((ROOT / "src").rglob("*.py")):
        digest.update(path.relative_to(ROOT).as_posix().encode())
        digest.update(path.read_bytes())
    return {
        "workload": workload,
        "seed": seed,
        "trace": bool(trace),
        "git_sha": sha or "unknown (not a git checkout)",
        "src_sha256": digest.hexdigest(),
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "sympy": metadata.version("sympy"),
        "click": metadata.version("click"),
    }


def report(prov: dict, result: dict, units: dict) -> None:
    print("bench %s seed=%d trace=%d" % (prov["workload"], prov["seed"],
                                        prov["trace"]))
    print("provenance " + " ".join("%s=%s" % kv for kv in prov.items()
                                   if kv[0] not in ("workload", "seed", "trace")))
    for name, value in result["metrics"].items():
        print("  %-44s %14.6g %-6s n=%d" % (name, value, units[name],
                                            result["samples"][name]))
    for name, (value, unit, n) in result["named"].items():
        print("  %-44s %14.6g %-6s n=%d" % (name, value, unit, n))
    for key, value in result["notes"].items():
        print("  note %s = %s" % (key, value))
    for miss in result["tally"].misses:
        print("  MISS " + miss.replace("\n", "\n       "))


def run_one(name: str, seed: int, seconds: float, trace: int) -> int:
    from workloads import WORKLOADS

    workload = WORKLOADS[name](ROOT)
    result = traced(workload, seed) if trace else end_to_end(workload, seed, seconds)
    units = per_layer_units() if trace else END_TO_END
    prov = provenance(name, seed, trace)
    tally = result["tally"]
    summary = {
        "correct": tally.failed == 0,
        "attempted": len(tally.times),
        "failed": tally.failed,
        "metrics": {k: {"value": v, "unit": units[k]}
                    for k, v in result["metrics"].items()},
    }
    report(prov, result, units)
    OUT_DIR.mkdir(exist_ok=True)
    full = dict(summary, provenance=prov, samples=result["samples"],
                named={k: {"value": v, "unit": u, "samples": n}
                       for k, (v, u, n) in result["named"].items()},
                notes=result["notes"], misses=tally.misses)
    (OUT_DIR / ("%s-seed%d-trace%d.json" % (name, seed, trace))).write_text(
        json.dumps(full, indent=2) + "\n", encoding="utf-8")
    print(json.dumps(summary))
    return 0


def run_all(seed: int, seconds: float, trace: int) -> int:
    """Each workload in its own interpreter, then one combined line."""
    from workloads import WORKLOADS

    combined = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in WORKLOADS:
        proc = subprocess.run(
            [sys.executable, str(Path(__file__).resolve()), "--workload", name,
             "--seed", str(seed), "--seconds", str(seconds),
             "--trace", str(trace)],
            cwd=ROOT, capture_output=True, text=True, timeout=600)
        sys.stdout.write(proc.stdout[:proc.stdout.rstrip("\n").rfind("\n") + 1])
        if proc.returncode != 0:
            sys.stderr.write(proc.stderr)
            return proc.returncode
        last = json.loads(proc.stdout.splitlines()[-1])
        combined["correct"] = combined["correct"] and last["correct"]
        combined["attempted"] += last["attempted"]
        combined["failed"] += last["failed"]
        for metric, value in last["metrics"].items():
            combined["metrics"]["%s/%s" % (name, metric)] = value
    print(json.dumps(combined))
    return 0


def main(argv=None) -> int:
    from workloads import WORKLOADS

    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=sorted(WORKLOADS) + ["all"])
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=15.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-probe", action="store_true",
                        help=argparse.SUPPRESS)
    args = parser.parse_args(argv)

    if args.setup_probe:
        # The probes run in this interpreter, around the set-up they scale.
        workload = WORKLOADS[args.workload](ROOT)
        half = workload.probe.window // 2
        probes = [workload.probe.time() for _ in range(half)]
        start = perf_counter()
        workload.setup()
        raw = perf_counter() - start
        probes += [workload.probe.time() for _ in range(half)]
        print(json.dumps({"setup_s": raw, "probes": probes}))
        return 0
    if args.workload == "all":
        return run_all(args.seed, args.seconds, args.trace)
    return run_one(args.workload, args.seed, args.seconds, args.trace)


def preflight() -> None:
    """Refuse to run without the library and the golden file."""
    from workloads import GOLDEN

    for needed in (ROOT / "src" / "jacstab" / "__init__.py", ROOT / GOLDEN):
        if not needed.is_file():
            sys.exit("bench: %s not found; run from a jacstab checkout" % needed)
    sys.path.insert(0, str(ROOT / "src"))


if __name__ == "__main__":
    preflight()
    sys.exit(main())
