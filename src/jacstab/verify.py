"""Named property suites: each checks one theorem-shaped claim by brute force.

Each suite is a row of ``_SUITES`` run by one runner.  Every item (a corpus
graph, or a prop41 twist) draws from an RNG seeded by its index, so results
are deterministic given (bounds, trials, seed) and do not depend on the job
count.  A suite reports the first counterexample in item order.
"""

from __future__ import annotations

import logging
import random
from functools import partial
from dataclasses import dataclass
from itertools import product

from .abel_jacobi import (
    AJDatum,
    classify_extension,
    sigma_extends,
    vine_bidegree,
)
from .atlas import walls
from .corpus import (
    random_nondegenerate_phi,
    random_phi,
    random_small_perturbation_phi,
    random_wall_phi,
    stable_graph_corpus,
)
from .errors import PreconditionError, TrivialTwistError
from fractions import Fraction
from .graph import iter_vines, spanning_tree_count
from .stability import (
    equivalent_small_perturbation_check,
    find_equality_witness,
    is_nondegenerate,
    is_small_perturbation,
    is_stable,
    stable_sheaf_data,
    SheafDatum,
    _support_lemma_count,
    vine_phi,
)

log = logging.getLogger(__name__)


@dataclass(kw_only=True)
class SuiteResult:
    """A suite's case count and first counterexample; passed iff none."""

    suite: str
    cases: int
    counterexample: str | None = None

    @property
    def passed(self) -> bool:
        return self.counterexample is None

    def summary(self) -> str:
        status = "pass" if self.passed else "FAIL"
        line = "%s: %s (%d cases)" % (self.suite, status, self.cases)
        if self.counterexample:
            line += "\n  first counterexample: %s" % self.counterexample
        return line


def _per_graph_rng(seed: int, index: int) -> random.Random:
    """The RNG for the item (a corpus graph, or a twist) at ``index``.

    Its seed is the integer ``seed * 1_000_003 + index``, distinct for every
    ``(seed, index)`` with ``0 <= index < 1_000_003``, so a failing case is
    replayed with ``random.Random(seed * 1_000_003 + index)``.  Earlier
    versions seeded with the tuple ``(seed, index)``, which Python 3.11 no
    longer accepts, so a given ``seed`` now draws different phis than it did
    under Python 3.10.
    """
    return random.Random(seed * 1_000_003 + index)


def _run_item(case, trials, seed, work):
    """Run ``case(item, rng, trials, seed)``, which yields None for each
    passing case and a message for a failing one, on one indexed item up to
    its first message; return (cases run, that message or None).  A case
    that raises counts as run and failing, and its message names the item,
    its replay seed and the exception."""
    index, item = work
    cases = 0
    try:
        for bad in case(item, _per_graph_rng(seed, index), trials, seed):
            cases += 1
            if bad is not None:
                return cases, bad
    except Exception as exc:
        log.debug("item %d raised", index, exc_info=True)
        return cases + 1, "item %d (replay seed %d) raised %s: %s" % (
            index, seed * 1_000_003 + index, type(exc).__name__, exc)
    return cases, None


# --- cor25: small perturbation <=> trivial bundle stable -------------------

def _cor25_cases(graph, rng, trials, seed):
    for t in range(trials):
        # alternate wild and near-zero samples to hit both truth values
        phi = (random_phi(graph, rng) if t % 2 == 0
               else random_small_perturbation_phi(graph, rng))
        lhs = is_small_perturbation(graph, phi)
        rhs = equivalent_small_perturbation_check(graph, phi)
        yield None if lhs == rhs else (
            "%r phi=%r: inequality route %s, trivial-bundle route %s"
            % (graph, phi, lhs, rhs))


# --- Wall criterion: closed form vs brute-force equality search ------------

def _wall_cases(graph, rng, trials, seed):
    for _ in range(trials):
        phi = random_phi(graph, rng)
        closed = is_nondegenerate(graph, phi)
        brute = find_equality_witness(graph, phi) is None
        yield None if closed == brute else (
            "%r phi=%r: closed form %s, brute force %s"
            % (graph, phi, closed, brute))
    wall = random_wall_phi(graph, rng)
    if wall is not None:
        missed = (is_nondegenerate(graph, wall)
                  or find_equality_witness(graph, wall) is None)
        yield ("%r wall phi=%r not reported degenerate" % (graph, wall)
               if missed else None)


# --- Support lemma shadow ---------------------------------------------------

def _support_cases(graph, rng, trials, seed):
    # each S carries tau(G - S) stable data, one per spanning tree avoiding
    # S, and each of the tau(G) trees avoids 2^b1 sets S
    expected = spanning_tree_count(graph) << (
        len(graph.edges) - len(graph.vertices) + 1)
    for _ in range(trials):
        phi = random_small_perturbation_phi(graph, rng)
        count, outcome = _support_lemma_count(graph, phi)
        if outcome is not True:
            yield "%r phi=%r: %r violates on C0=%s" % (
                graph, phi, outcome[0], sorted(outcome[1]))
        else:
            yield None if count == expected else (
                "%r phi=%r: %d stable degree-0 data, expected %d"
                % (graph, phi, count, expected))


# --- Spanning-tree count of stable multidegrees ------------------------------

def _tree_cases(graph, rng, trials, seed):
    expected = spanning_tree_count(graph)
    for _ in range(trials):
        phi = random_nondegenerate_phi(graph, rng)
        got = len(stable_sheaf_data(graph, phi, 0, include_nonfree=False))
        yield None if got == expected else (
            "%r phi=%r: %d stable multidegrees, %d spanning trees"
            % (graph, phi, got, expected))


# --- prop41: extension classification round trip ------------------------------

def _is_unit_difference(a) -> bool:
    return (sorted(a) == sorted([1, -1] + [0] * (len(a) - 2))
            if len(a) >= 2 else False)


def brute_force_extends(g: int, n: int, aj: AJDatum) -> bool:
    """Independent decision: every e >= 2 vine must admit a chamber of the
    small-perturbation interval whose stable table contains the AJ bidegree.
    Each chamber's table is searched at its midpoint, not read from
    ``chambers``; the ends -e/2 and e/2 are walls themselves, so the walls
    of the closed interval are its cuts."""
    for vine in iter_vines(g, n, 2):
        m = vine_bidegree(vine, aj)
        graph = vine.to_graph()
        half_e = Fraction(vine.e, 2)
        cuts = walls(vine, (-half_e, half_e)).walls
        if not any(F.degrees[0] == m for a, b in zip(cuts, cuts[1:])
                   for F in stable_sheaf_data(
                       graph, vine_phi(vine, (a + b) / 2), 0)):
            return False
    return True


def _recheck_certificate(cert) -> bool:
    """Re-verify a negative certificate: a search at each chamber's midpoint
    must find its row's degrees, and two interior points no stable bundle."""
    vine = cert.vine
    graph = vine.to_graph()
    bundle = SheafDatum(graph, frozenset(),
                        {0: cert.bidegree, 1: -cert.bidegree})
    for lo, hi, degs in cert.chambers:
        phis = [vine_phi(vine, x) for x in ((lo + hi) / 2, (3 * lo + hi) / 4)]
        found = stable_sheaf_data(graph, phis[0], 0)
        if (degs != tuple(F.degrees[0] for F in found)
                or any(is_stable(graph, phi, bundle) for phi in phis)):
            return False
    return True


# prop41 sweeps the twists of every (g, n) up to these bounds.
PROP41_MAX_GENUS = PROP41_MAX_MARKINGS = 3


def _twists(max_vertices, max_edges):
    """prop41's items, whatever the graph bounds: every twist with k in
    {-1, 0, 1} and a in [-2, 2]^n that meets the degree constraint."""
    return [AJDatum(k, a, g, n)
            for g in range(1, PROP41_MAX_GENUS + 1)
            for n in range(1, PROP41_MAX_MARKINGS + 1)
            for k in (-1, 0, 1)
            for a in product(range(-2, 3), repeat=n)
            if k * (2 - 2 * g) + sum(a) == 0]


def _prop41_cases(aj, rng, trials, seed):
    """One case per twist: a trivial one is refused, any other classified
    as the closed form and the chamber brute force say, with sound evidence."""
    g, n = aj.g, aj.n
    label = "g=%d n=%d k=%d a=%s: " % (g, n, aj.k, list(aj.a))
    if aj.is_trivial:
        try:
            classify_extension(g, n, aj, seed)
        except TrivialTwistError:
            yield None
        else:
            yield label + "trivial twist not rejected"
        return
    result = classify_extension(g, n, aj, seed)
    expected = _is_unit_difference(aj.a) and aj.k * (2 - 2 * g) == 0
    if result.extends != expected:
        yield label + "classified %s, expected %s" % (result.extends, expected)
    elif result.extends != brute_force_extends(g, n, aj):
        yield label + "disagrees with chamber brute force"
    elif result.extends:
        check = sigma_extends(g, n, aj, result.phi_table)
        yield None if check.extends else (
            label + "yes-table fails sigma_extends at %s" % check.witness)
    else:
        yield None if _recheck_certificate(result.certificate) else (
            label + "certificate failed re-check")


# Suites: name -> (items given the graph bounds, their name in the log, the
# case generator of one item, cap on its trials).
_SUITES = {
    "cor25": (stable_graph_corpus, "corpus graphs", _cor25_cases, None),
    "support-lemma": (stable_graph_corpus, "corpus graphs", _support_cases, 5),
    "tree-count": (stable_graph_corpus, "corpus graphs", _tree_cases, None),
    "wall-criterion": (stable_graph_corpus, "corpus graphs", _wall_cases, None),
    "prop41": (_twists, "twists", _prop41_cases, 1),
}
SUITES = tuple(_SUITES)


def run_suite(name: str, max_vertices=4, max_edges=7, trials=50,
              seed=0, jobs=1) -> SuiteResult:
    """Run one suite over its items, in up to ``jobs`` worker processes
    when ``jobs > 1``; prop41's twists do not depend on the graph bounds.

    Workers are handed chunks of 32 items, and the pool starts all its
    processes at once, so it gets at most one per chunk."""
    if name not in _SUITES:
        raise ValueError("unknown suite %r; expected one of %s" % (name, SUITES))
    if trials < 1 or max_vertices < 1 or max_edges < 0:
        raise PreconditionError(
            "need trials >= 1, max_vertices >= 1 and max_edges >= 0")
    if jobs < 1:
        raise PreconditionError("need jobs >= 1, got %d" % jobs)
    build, noun, case, cap = _SUITES[name]
    fn = partial(_run_item, case,
                 trials if cap is None else min(trials, cap), seed)
    work = list(enumerate(build(max_vertices, max_edges)))
    log.debug("%s: %d %s", name, len(work), noun)
    workers = min(jobs, -(-len(work) // 32))
    if workers > 1:
        # imported here so that importing the CLI does not load multiprocessing
        from concurrent.futures import ProcessPoolExecutor
        log.debug("%s: pool of %d workers", name, workers)
        with ProcessPoolExecutor(max_workers=workers) as pool:
            results = list(pool.map(fn, work, chunksize=32))
    else:
        results = [fn(item) for item in work]
    bad = next((b for _, b in results if b is not None), None)
    return SuiteResult(suite=name, cases=sum(c for c, _ in results),
                       counterexample=bad)
