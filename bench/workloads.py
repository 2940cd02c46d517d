"""The four benchmark workloads.

Each workload builds its inputs from the workload seed, runs one operation
at a time (closed loop, one client, every ``jobs`` argument at 1), and
checks each output against an independent reference outside the timed
region.  jacstab is reached only through the public functions of its
modules, looked up on the module at call time so that the tracer's
wrappers apply, and through ``python -m jacstab.cli``.
"""

from __future__ import annotations

import gc
import importlib
import itertools
import json
import os
import random
import subprocess
import sys
from dataclasses import dataclass
from fractions import Fraction
from pathlib import Path
from time import perf_counter
from typing import Callable

import references

GOLDEN = Path("tests") / "golden" / "atlas_g2_n1.json"


def child_env(root: Path) -> dict[str, str]:
    """Environment for a child interpreter that imports ``root/src``."""
    src = str(root / "src")
    path = os.environ.get("PYTHONPATH")
    return dict(os.environ,
                PYTHONPATH=src if not path else src + os.pathsep + path)


def op_seed(seed: int, index: int) -> int:
    """Per-op integer seed.  Python 3.11 rejects tuple seeds, so this is
    plain int arithmetic, the same helper the suites' own fix will use."""
    return seed * 1_000_003 + index


def shuffled_cycles(items, seed: int, stratum=None):
    """Endless (index, item) stream: each cycle is a fresh seeded shuffle,
    so a run covers every input before repeating any of them.

    With ``stratum`` (item -> key) the shuffle is stratified: the items of
    each stratum are spread evenly through the cycle from a random offset.
    Every stretch of a cycle then has the whole set's mix of strata, so a
    run that stops part-way through a cycle times the same mix whatever
    the seed."""
    rng = random.Random(seed)
    items = list(items)
    counter = itertools.count()
    while True:
        if stratum is None:
            order = items[:]
            rng.shuffle(order)
        else:
            strata: dict[object, list] = {}
            for item in items:
                strata.setdefault(stratum(item), []).append(item)
            placed = []
            for members in strata.values():
                rng.shuffle(members)
                offset = rng.random()
                placed += [((i + offset) / len(members), item)
                           for i, item in enumerate(members)]
            placed.sort(key=lambda pair: pair[0])
            order = [item for _, item in placed]
        for item in order:
            yield next(counter), item


def fraction_loop() -> None:
    total, seen = Fraction(0), {}
    for i in range(1, 200):
        total += Fraction(i % 7 + 1, i % 97 + 1)
        seen[i % 31, i % 5] = total


def reference_child() -> None:
    subprocess.run([sys.executable, "-c", "import fractions, json, argparse"],
                   capture_output=True, timeout=60, check=True)


@dataclass(frozen=True)
class Probe:
    """A fixed task, timed between ops, whose time tracks the host's speed.

    Other tenants of a shared host (2 vCPUs, where this was built) change
    its speed by up to 2x within seconds, and CPU time moves with wall
    time, so neither shows it.  Each
    reported time is scaled to the reference speed: multiplied by
    ``ref_s`` over the mean time of the probes nearest to it.  A probe
    tracks only work done in the same kind of process: timed in the parent,
    the Fraction loop did not follow a child interpreter's speed
    (correlation 0.15), while a reference child did (0.88).
    """

    task: Callable[[], None]
    ref_s: float    # the task's time at the reference speed
    share: float    # probe time kept at this share of busy time
    window: int     # how many of the nearest probes set an op's speed

    def time(self) -> float:
        # The collector is off so that the program's heap cannot slow it.
        gc.disable()
        try:
            start = perf_counter()
            self.task()
            return perf_counter() - start
        finally:
            gc.enable()

    def scale(self, seconds: float, probes: list[float]) -> float:
        return seconds * self.ref_s * len(probes) / sum(probes)


IN_PROCESS = Probe(fraction_loop, ref_s=1e-3, share=0.1, window=16)
CHILD = Probe(reference_child, ref_s=0.07, share=0.2, window=2)


class Workload:
    """One named set of inputs and the operation run on each of them."""

    name = ""
    item = ""          # what items_per_s counts
    traced_ops = 0     # fixed op count of a traced run, so counts repeat
    # A timed run ends after a multiple of this many ops.  Workloads with
    # few distinct inputs end on whole cycles, so every input is timed
    # equally often and the median and tail do not depend on where the
    # run stopped.
    cycle = 1
    min_ops = 0        # a timed run has at least this many ops
    probe = IN_PROCESS

    def __init__(self, root: Path):
        self.root = root

    def setup(self) -> None:
        raise NotImplementedError

    def setup_sample(self) -> tuple[float, list[float]]:
        """One set-up timed in a fresh interpreter: its seconds and the
        probes run around it in that interpreter."""
        cmd = [sys.executable, str(self.root / "bench" / "run.py"),
               "--workload", self.name, "--setup-probe"]
        proc = subprocess.run(cmd, cwd=self.root, capture_output=True,
                              text=True, timeout=120, check=True)
        out = json.loads(proc.stdout.splitlines()[-1])
        return out["setup_s"], out["probes"]

    def inputs(self, seed: int):
        raise NotImplementedError

    def run(self, op):
        raise NotImplementedError

    def check(self, op, out) -> list[str]:
        raise NotImplementedError

    def items(self, op, out) -> int:
        return 1


class SuiteSweep(Workload):
    """The property suites' call mix, one corpus graph per op."""

    name = "suite-sweep"
    item = "graphs"
    traced_ops = 480
    # Seeded phis per graph and suite, in the suites' own 10:10:10:1 ratio
    # (verify.py runs 50 wall, cor25 and tree-count trials per graph and 5
    # support-lemma trials), scaled down by five.
    TRIALS = {"wall": 10, "cor25": 10, "tree": 10, "support": 1}

    def __init__(self, root):
        super().__init__(root)
        self.tree_oracle = references.exhaustive_spanning_trees
        self._expected_trees: dict[int, int] = {}

    def setup(self):
        self.corpus = importlib.import_module("jacstab.corpus")
        self.graph = importlib.import_module("jacstab.graph")
        self.stability = importlib.import_module("jacstab.stability")
        self.graphs = self.corpus.stable_graph_corpus(4, 7)
        for g in self.graphs:
            g.subcurve_data
        # The first spanning-tree count imports sympy; every suite pays it.
        self.graph.spanning_tree_count(self.graphs[-1])

    def inputs(self, seed):
        # Op cost grows about threefold per vertex and a run covers about
        # half the corpus, so passes are stratified: the graphs, ordered by
        # size, are cut into strata of eight similar graphs.
        by_size = sorted(range(len(self.graphs)), key=self._size)
        stratum = {gi: rank // 8 for rank, gi in enumerate(by_size)}
        for index, gi in shuffled_cycles(range(len(self.graphs)), seed,
                                         stratum.__getitem__):
            yield index, gi, op_seed(seed, index)

    def _size(self, gi):
        g = self.graphs[gi]
        non_loops = sum(1 for e in g.edges if e.ends[0] != e.ends[1])
        return len(g.vertices), non_loops, self._trees(gi), len(g.edges)

    def _trees(self, gi):
        if gi not in self._expected_trees:
            self._expected_trees[gi] = self.tree_oracle(self.graphs[gi])
        return self._expected_trees[gi]

    def run(self, op):
        _, gi, seed = op
        corpus, st = self.corpus, self.stability
        g = self.graphs[gi]
        rng = random.Random(seed)
        wall = []
        for _ in range(self.TRIALS["wall"]):
            phi = corpus.random_phi(g, rng)
            wall.append((st.is_nondegenerate(g, phi),
                         st.find_equality_witness(g, phi) is None))
        on_wall = corpus.random_wall_phi(g, rng)
        if on_wall is not None:
            on_wall = (st.is_nondegenerate(g, on_wall),
                       st.find_equality_witness(g, on_wall) is None)
        small = []
        for t in range(self.TRIALS["cor25"]):
            phi = (corpus.random_phi(g, rng) if t % 2 == 0
                   else corpus.random_small_perturbation_phi(g, rng))
            small.append((st.is_small_perturbation(g, phi),
                          st.equivalent_small_perturbation_check(g, phi)))
        trees = self.graph.spanning_tree_count(g)
        bundles = [len(st.stable_sheaf_data(
                       g, corpus.random_nondegenerate_phi(g, rng), 0))
                   for _ in range(self.TRIALS["tree"])]
        support = [st.verify_support_lemma(
                       g, corpus.random_small_perturbation_phi(g, rng))
                   for _ in range(self.TRIALS["support"])]
        return wall, on_wall, small, trees, bundles, support

    def check(self, op, out):
        gi = op[1]
        wall, on_wall, small, trees, bundles, support = out
        misses = []
        for closed, brute in wall:
            if closed != brute:
                misses.append("wall test: closed form %s, brute force %s"
                              % (closed, brute))
        if on_wall is not None and any(on_wall):
            misses.append("phi on a wall reported nondegenerate %s" % (on_wall,))
        for lhs, rhs in small:
            if lhs != rhs:
                misses.append("small perturbation: inequality %s, bundle %s"
                              % (lhs, rhs))
        expected = self._trees(gi)
        if trees != expected:
            misses.append("spanning_tree_count %d, exhaustive %d"
                          % (trees, expected))
        for count in bundles:
            if count != expected:
                misses.append("%d stable line bundles, %d spanning trees"
                              % (count, expected))
        for outcome in support:
            if outcome is not True:
                misses.append("support lemma violated: %r" % (outcome,))
        return ["graph %d: %s" % (gi, m) for m in misses]


class VineAtlas(Workload):
    """Whole vine atlases, serialized, over a fixed list of (g, n)."""

    name = "vine-atlas"
    item = "vines"
    traced_ops = 37
    WINDOW = (Fraction(-3), Fraction(3))
    # Every (g, n) up to (8, 4) with line bundles, and a non-free slice up
    # to (4, 3): op costs then spread evenly from 6 ms to 0.8 s, so the
    # median and tail op are not at a gap between clusters.
    LINE_BUNDLE = tuple(itertools.product(range(2, 9), range(1, 5)))
    NONFREE = tuple(itertools.product(range(2, 5), range(1, 4)))
    GOLDEN_SPEC = (2, 1, False)
    cycle = len(LINE_BUNDLE) + len(NONFREE)

    def setup(self):
        self.atlas = importlib.import_module("jacstab.atlas")
        self.golden = (self.root / GOLDEN).read_bytes()
        self.specs = ([(g, n, False) for g, n in self.LINE_BUNDLE]
                      + [(g, n, True) for g, n in self.NONFREE])

    def inputs(self, seed):
        return shuffled_cycles(self.specs, seed)

    def run(self, op):
        g, n, nonfree = op[1]
        records = self.atlas.atlas(g, n, self.WINDOW, nonfree, jobs=1)
        return records, self.atlas.atlas_to_json(records)

    def items(self, op, out):
        return len(out[0])

    def check(self, op, out):
        spec = op[1]
        records, text = out
        misses = []
        if spec == self.GOLDEN_SPEC and text.encode("utf-8") != self.golden:
            misses.append("JSON differs from %s" % GOLDEN)
        lo, hi = self.WINDOW
        for r in records:
            e = r.vine.e
            walls = references.vine_walls(e, lo, hi)
            if list(r.wall_set.walls) != walls:
                misses.append("%s: walls %s, expected %s"
                              % (r.vine, r.wall_set.walls, walls))
            cuts = [c.lo for c in r.chambers] + [r.chambers[-1].hi]
            if cuts != sorted({lo, hi} | {w for w in walls if lo < w < hi}):
                misses.append("%s: chambers do not tile the window" % r.vine)
            for c in r.chambers:
                bundles = sum(1 for F in c.stable_table if not F.S)
                if bundles != e:  # Kirchhoff: a vine has e spanning trees
                    misses.append("%s chamber (%s, %s): %d line bundles"
                                  % (r.vine, c.lo, c.hi, bundles))
        return ["atlas g=%d n=%d nonfree=%s: %s" % (spec + (m,))
                for m in misses]


class ClassifySweep(Workload):
    """Every small twist through classify_extension, warm, in-process."""

    name = "classify-sweep"
    item = "twists"
    traced_ops = 1832

    def __init__(self, root):
        super().__init__(root)
        self.expected_extends = references.prop41_extends

    def setup(self):
        self.aj = importlib.import_module("jacstab.abel_jacobi")
        self.stability = importlib.import_module("jacstab.stability")
        self.twists = []
        for g, n, k in itertools.product(range(1, 5), range(1, 5), (-1, 0, 1)):
            for a in itertools.product(range(-2, 3), repeat=n):
                twist = self.aj.AJDatum(k, a, g, n)
                if k * (2 - 2 * g) + sum(a) == 0 and not twist.is_trivial:
                    self.twists.append(twist)
        # The first epsilon draw imports sympy; warm it like the suites do.
        next(self.stability.epsilon_stream(0))

    def inputs(self, seed):
        for index, twist in shuffled_cycles(self.twists, seed):
            yield index, twist, op_seed(seed, index)

    def run(self, op):
        _, twist, seed = op
        return self.aj.classify_extension(twist.g, twist.n, twist, seed)

    def check(self, op, out):
        twist = op[1]
        label = "g=%d n=%d k=%d a=%s" % (twist.g, twist.n, twist.k, list(twist.a))
        expected = self.expected_extends(twist.g, twist.k, twist.a)
        if out.extends != expected:
            return ["%s: extends %s, Prop 4.1 says %s"
                    % (label, out.extends, expected)]
        if out.extends:
            check = self.aj.sigma_extends(twist.g, twist.n, twist, out.phi_table)
            if not check.extends:
                return ["%s: yes-table fails sigma_extends at %s"
                        % (label, check.witness)]
            return []
        return ["%s: %s" % (label, m) for m in self._recheck(twist, out)]

    def _recheck(self, twist, out):
        vine, cert = out.witness, out.certificate
        if vine is None or cert is None or vine.e < 2:
            return ["no obstructing vine with e >= 2 and certificate"]
        m = references.vine_aj_bidegree(vine, twist.k, twist.a)
        if out.witness_bidegree != m or cert.bidegree != m:
            return ["witness bidegree %s, expected %d"
                    % (out.witness_bidegree, m)]
        half = Fraction(vine.e, 2)
        bounds = [lo for lo, _, _ in cert.chambers] + [cert.chambers[-1][1]]
        if bounds[0] != -half or bounds[-1] != half or any(
                hi != lo for (_, hi, _), (lo, _, _)
                in zip(cert.chambers, cert.chambers[1:])):
            return ["certificate does not tile (-e/2, e/2)"]
        st = self.stability
        graph = vine.to_graph()
        bundle = st.SheafDatum(graph, frozenset(), {0: m, 1: -m})
        for lo, hi, _ in cert.chambers:
            for x in ((lo + hi) / 2, lo + (hi - lo) / 4):
                if st.is_stable(graph, st.PhiVector(graph, {0: x, 1: -x}),
                                bundle):
                    return ["bidegree stable at phi=%s in a certified chamber"
                            % x]
        return []


class CliCold(Workload):
    """One fresh ``python -m jacstab.cli`` process per op."""

    name = "cli-cold"
    item = "calls"
    traced_ops = 9
    cycle = 3
    # A third of the calls are the slow "yes" classify.  With 45 calls or
    # more, the tail (ten calls beyond it) is always one of them; with
    # about 30 it would fall on either side of the gap between the groups.
    min_ops = 45
    probe = CHILD
    COMMANDS = (
        ("classify_yes", ("classify", "--g", "3", "--n", "2", "--a", "1,-1",
                          "--format", "json"), True),
        ("classify_no", ("classify", "--g", "3", "--n", "2", "--a", "2,-2",
                         "--format", "json"), False),
        ("atlas", ("atlas", "--g", "2", "--n", "1", "--window", "-3..3"), None),
    )

    def __init__(self, root):
        super().__init__(root)
        self.env = child_env(root)
        self.python_flags: list[str] = []
        self.import_samples: list[dict[str, float]] = []

    def setup(self):
        self.golden = (self.root / GOLDEN).read_bytes()

    def setup_sample(self):
        """A CLI has no set-up of its own: every call pays the import."""
        before = self.probe.time()
        start = perf_counter()
        # Captured pipes end the wait at the child's exit; a bare wait with
        # a timeout polls in steps of up to 50 ms.
        subprocess.run([sys.executable, "-c", "import jacstab.cli"],
                       cwd=self.root, env=self.env, capture_output=True,
                       timeout=120, check=True)
        seconds = perf_counter() - start
        return seconds, [before, self.probe.time()]

    def inputs(self, seed):
        return shuffled_cycles(self.COMMANDS, seed)

    def run(self, op):
        _, args, _ = op[1]
        return subprocess.run(
            [sys.executable, *self.python_flags, "-m", "jacstab.cli", *args],
            cwd=self.root, env=self.env, capture_output=True, timeout=120)

    def check(self, op, proc):
        label, _, extends = op[1]
        if self.python_flags:
            self.import_samples.append(parse_importtime(proc.stderr))
        if proc.returncode != 0:
            return ["%s: exit status %d: %s" % (
                label, proc.returncode, proc.stderr.decode(errors="replace")[-300:])]
        if extends is None:
            return [] if proc.stdout == self.golden else [
                "%s: stdout differs from %s" % (label, GOLDEN)]
        got = json.loads(proc.stdout)["extends"]
        return [] if got == extends else [
            "%s: extends %s, expected %s" % (label, got, extends)]


def parse_importtime(stderr: bytes) -> dict[str, float]:
    """Cumulative seconds per top-level package from ``-X importtime``."""
    out = {}
    for line in stderr.decode(errors="replace").splitlines():
        if not line.startswith("import time:"):
            continue
        parts = line[len("import time:"):].split("|")
        if len(parts) != 3 or not parts[1].strip().isdigit():
            continue
        name = parts[2].strip()
        if name in ("jacstab", "click", "sympy"):
            out[name] = int(parts[1]) / 1e6
    return out


WORKLOADS = {w.name: w for w in (SuiteSweep, VineAtlas, ClassifySweep, CliCold)}
