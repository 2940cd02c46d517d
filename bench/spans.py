"""Span tracer that wraps jacstab's public functions from outside the package.

Each wrapped call records a span (id, name, start, end, parent id, op id).
Self time is a span's duration minus the time covered by its child spans;
it is accumulated on exit, so per-name totals need no second pass.  Spans
stay in memory and are written out once, at the end of a traced run.

The wrappers are installed by patching module and class attributes.  A
function imported by name into another module (``from .stability import
is_stable``) is a separate binding, so every binding in every loaded
``jacstab`` module that is the original function object is replaced.
"""

from __future__ import annotations

import importlib
import json
import sys
from collections import Counter, defaultdict
from contextlib import contextmanager
from functools import cached_property, wraps
from time import perf_counter

SAMPLERS = "corpus.samplers"
PROP_PHI = "abel_jacobi.construct_prop_phi"

# (module, attribute, span name).  Samplers share one span name: the
# accept ratio is counted over all of them.
FUNCTIONS = (
    ("jacstab.graph", "spanning_tree_count", "graph.spanning_tree_count"),
    ("jacstab.graph", "enumerate_vines", "graph.enumerate_vines"),
    ("jacstab.stability", "find_equality_witness", "stability.find_equality_witness"),
    ("jacstab.stability", "is_nondegenerate", "stability.is_nondegenerate"),
    ("jacstab.stability", "is_small_perturbation", "stability.is_small_perturbation"),
    ("jacstab.stability", "is_stable", "stability.is_stable"),
    ("jacstab.stability", "verify_support_lemma", "stability.verify_support_lemma"),
    ("jacstab.stability", "stable_sheaf_data", "stability.stable_sheaf_data"),
    ("jacstab.corpus", "stable_graph_corpus", "corpus.stable_graph_corpus"),
    ("jacstab.corpus", "random_phi", SAMPLERS),
    ("jacstab.corpus", "random_nondegenerate_phi", SAMPLERS),
    ("jacstab.corpus", "random_small_perturbation_phi", SAMPLERS),
    ("jacstab.corpus", "random_wall_phi", SAMPLERS),
    ("jacstab.atlas", "atlas", "atlas.atlas"),
    ("jacstab.atlas", "chambers", "atlas.chambers"),
    ("jacstab.atlas", "walls", "atlas.walls"),
    ("jacstab.atlas", "atlas_to_json", "atlas.atlas_to_json"),
    ("jacstab.abel_jacobi", "classify_extension", "abel_jacobi.classify_extension"),
    ("jacstab.abel_jacobi", "construct_prop_phi", PROP_PHI),
    ("jacstab.abel_jacobi", "sigma_extends", "abel_jacobi.sigma_extends"),
    ("jacstab.abel_jacobi", "certify_unstable_on_vine",
     "abel_jacobi.certify_unstable_on_vine"),
)


class Tracer:
    """In-memory spans plus per-name call counts, self times and counters."""

    def __init__(self):
        self.spans: list[tuple] = []
        self.calls: Counter = Counter()
        self.self_s: defaultdict = defaultdict(float)
        self.counts: Counter = Counter()
        self.active: Counter = Counter()   # open spans per name
        self.enabled = True
        self.op_id = None
        self._stack: list[list] = []       # [span id, name, start, child time]
        self._next_id = 0
        self._patches: list[tuple] = []

    # --- spans -------------------------------------------------------------

    def enter(self, name: str) -> list:
        self._next_id += 1
        frame = [self._next_id, name, perf_counter(), 0.0]
        self._stack.append(frame)
        self.active[name] += 1
        return frame

    def exit(self, frame: list) -> None:
        end = perf_counter()
        popped = self._stack.pop()
        if popped is not frame:
            raise RuntimeError("span stack out of order at %s" % frame[1])
        span_id, name, start, child = frame
        duration = end - start
        self.active[name] -= 1
        self.calls[name] += 1
        self.self_s[name] += duration - child
        parent = self._stack[-1] if self._stack else None
        if parent is not None:
            parent[3] += duration
        self.spans.append((span_id, name, start, end,
                           parent[0] if parent else None, self.op_id))

    @contextmanager
    def span(self, name: str, op_id=None):
        """A span opened by the benchmark itself, e.g. around one op."""
        if not self.enabled:
            yield
            return
        if op_id is not None:
            self.op_id = op_id
        frame = self.enter(name)
        try:
            yield
        finally:
            self.exit(frame)

    @contextmanager
    def paused(self):
        """Calls made inside (reference checks) record nothing."""
        was, self.enabled = self.enabled, False
        try:
            yield
        finally:
            self.enabled = was

    def wrap(self, fn, name: str, on_result=None):
        @wraps(fn)
        def traced(*args, **kwargs):
            if not self.enabled:
                return fn(*args, **kwargs)
            outermost = not self.active[name]
            frame = self.enter(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                self.exit(frame)
            if on_result is not None:
                on_result(result, outermost)
            return result
        return traced

    def wrap_stream(self, fn, name: str):
        """Generator function: one span and one draw per ``next``."""
        @wraps(fn)
        def traced(*args, **kwargs):
            gen = fn(*args, **kwargs)
            while True:
                if not self.enabled:
                    yield next(gen)
                    continue
                frame = self.enter(name)
                try:
                    value = next(gen)
                finally:
                    self.exit(frame)
                self.counts[name + ".draws"] += 1
                if self.active[PROP_PHI]:
                    self.counts["abel_jacobi.prop_phi_draws"] += 1
                yield value
        return traced

    # --- installation ------------------------------------------------------

    def _patch(self, owner, attr, value) -> None:
        self._patches.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, value)

    def _patch_everywhere(self, original, replacement) -> None:
        for modname, mod in list(sys.modules.items()):
            if modname != "jacstab" and not modname.startswith("jacstab."):
                continue
            for attr, value in list(vars(mod).items()):
                if value is original:
                    self._patch(mod, attr, replacement)

    def _hooks(self) -> dict:
        counts = self.counts

        def sheaf_data(result, _outermost):
            counts["stability.stable_sheaf_data.data_returned"] += len(result)

        def corpus_built(result, _outermost):
            counts["corpus.graphs"] += len(result)

        def sampled(result, outermost):
            if outermost and result is not None:
                counts["corpus.samplers.returned"] += 1

        def json_written(result, _outermost):
            counts["atlas.json_bytes"] += len(result.encode("utf-8"))

        def prop_table(result, _outermost):
            counts["abel_jacobi.prop_phi_accepted"] += sum(
                1 for vine in result.entries if vine.e >= 2)

        return {
            "stability.stable_sheaf_data": sheaf_data,
            "corpus.stable_graph_corpus": corpus_built,
            SAMPLERS: sampled,
            "atlas.atlas_to_json": json_written,
            PROP_PHI: prop_table,
        }

    def install(self) -> None:
        # The package rebinds ``jacstab.atlas`` to the function, so modules
        # are always fetched by their dotted name.
        hooks = self._hooks()
        for modname, attr, name in FUNCTIONS:
            mod = importlib.import_module(modname)
            original = getattr(mod, attr)
            self._patch_everywhere(original,
                                   self.wrap(original, name, hooks.get(name)))
        stability = importlib.import_module("jacstab.stability")
        self._patch_everywhere(
            stability.epsilon_stream,
            self.wrap_stream(stability.epsilon_stream,
                             "stability.epsilon_stream"))

        graph = importlib.import_module("jacstab.graph")
        to_graph = graph.VineCurve.__dict__["to_graph"]
        self._patch(graph.VineCurve, "to_graph",
                    self.wrap(to_graph, "graph.to_graph"))

        prop = graph.DualGraph.__dict__["subcurve_data"]
        traced_prop = cached_property(self.wrap(prop.func, "graph.subcurve_data"))
        traced_prop.__set_name__(graph.DualGraph, "subcurve_data")
        self._patch(graph.DualGraph, "subcurve_data", traced_prop)

        phi_init = stability.PhiVector.__dict__["__init__"]
        counts, active = self.counts, self.active

        @wraps(phi_init)
        def counted_init(phi_self, *args, **kwargs):
            phi_init(phi_self, *args, **kwargs)
            if self.enabled:
                counts["stability.phi_vectors.built"] += 1
                if active[SAMPLERS]:
                    counts["corpus.samplers.drawn"] += 1
        self._patch(stability.PhiVector, "__init__", counted_init)

    def uninstall(self) -> None:
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    @contextmanager
    def installed(self):
        self.install()
        try:
            yield self
        finally:
            self.uninstall()

    def write_spans(self, path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            for span_id, name, start, end, parent, op_id in self.spans:
                fh.write(json.dumps({"id": span_id, "name": name,
                                     "start": start, "end": end,
                                     "parent": parent, "op": op_id}) + "\n")
