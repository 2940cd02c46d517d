"""Named property suites: each checks one theorem-shaped claim by brute force.

Every suite is deterministic given (bounds, trials, seed) and reports the
first counterexample it finds.  Per-graph randomness is seeded from the
graph's index so results do not depend on the job count.
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
    vine_phi,
)
from .atlas import chambers
from .corpus import (
    random_nondegenerate_phi,
    random_phi,
    random_small_perturbation_phi,
    random_wall_phi,
    stable_graph_corpus,
)
from .errors import TrivialTwistError
from fractions import Fraction
from .graph import enumerate_vines, spanning_tree_count
from .stability import (
    equivalent_small_perturbation_check,
    find_equality_witness,
    is_nondegenerate,
    is_small_perturbation,
    is_stable,
    stable_sheaf_data,
    verify_support_lemma,
    SheafDatum,
)

log = logging.getLogger(__name__)


@dataclass
class SuiteResult:
    suite: str
    passed: bool
    cases: int
    counterexample: str | None = None

    def summary(self) -> str:
        status = "pass" if self.passed else "FAIL"
        line = "%s: %s (%d cases)" % (self.suite, status, self.cases)
        if self.counterexample:
            line += "\n  first counterexample: %s" % self.counterexample
        return line


def _per_graph_rng(seed: int, index: int) -> random.Random:
    """The RNG for the graph at position ``index`` of the corpus.

    Its seed is the integer ``seed * 1_000_003 + index``, distinct for every
    ``(seed, index)`` with ``0 <= index < 1_000_003``, so a failing case is
    replayed with ``random.Random(seed * 1_000_003 + index)``.  Earlier
    versions seeded with the tuple ``(seed, index)``, which Python 3.11 no
    longer accepts, so a given ``seed`` now draws different phis than it did
    under Python 3.10.
    """
    return random.Random(seed * 1_000_003 + index)


# --- cor25: small perturbation <=> trivial bundle stable -------------------

def _cor25_one(args, trials=50, seed=0):
    index, graph = args
    rng = _per_graph_rng(seed, index)
    cases = 0
    for t in range(trials):
        # alternate wild and near-zero samples to hit both truth values
        phi = (random_phi(graph, rng) if t % 2 == 0
               else random_small_perturbation_phi(graph, rng))
        lhs = is_small_perturbation(graph, phi)
        rhs = equivalent_small_perturbation_check(graph, phi)
        cases += 1
        if lhs != rhs:
            return cases, "%r phi=%r: inequality route %s, trivial-bundle route %s" % (
                graph, phi, lhs, rhs)
    return cases, None


# --- Wall criterion: closed form vs brute-force equality search ------------

def _wall_one(args, trials=50, seed=0):
    index, graph = args
    rng = _per_graph_rng(seed, index)
    cases = 0
    for _ in range(trials):
        phi = random_phi(graph, rng)
        closed = is_nondegenerate(graph, phi)
        brute = find_equality_witness(graph, phi) is None
        cases += 1
        if closed != brute:
            return cases, "%r phi=%r: closed form %s, brute force %s" % (
                graph, phi, closed, brute)
    wall = random_wall_phi(graph, rng)
    if wall is not None:
        cases += 1
        if is_nondegenerate(graph, wall) or find_equality_witness(graph, wall) is None:
            return cases, "%r wall phi=%r not reported degenerate" % (graph, wall)
    return cases, None


# --- Support lemma shadow ---------------------------------------------------

def _support_one(args, trials=5, seed=0):
    index, graph = args
    rng = _per_graph_rng(seed, index)
    cases = 0
    for _ in range(trials):
        phi = random_small_perturbation_phi(graph, rng)
        outcome = verify_support_lemma(graph, phi)
        cases += 1
        if outcome is not True:
            F, c0 = outcome
            return cases, "%r phi=%r: %r violates on C0=%s" % (
                graph, phi, F, sorted(c0.vertex_set))
    return cases, None


# --- Spanning-tree count of stable multidegrees ------------------------------

def _tree_one(args, trials=50, seed=0):
    index, graph = args
    rng = _per_graph_rng(seed, index)
    expected = spanning_tree_count(graph)
    cases = 0
    for _ in range(trials):
        phi = random_nondegenerate_phi(graph, rng)
        got = len(stable_sheaf_data(graph, phi, 0, include_nonfree=False))
        cases += 1
        if got != expected:
            return cases, "%r phi=%r: %d stable multidegrees, %d spanning trees" % (
                graph, phi, got, expected)
    return cases, None


# --- prop41: extension classification round trip ------------------------------

def _is_unit_difference(a) -> bool:
    return (sorted(a) == sorted([1, -1] + [0] * (len(a) - 2))
            if len(a) >= 2 else False)


def brute_force_extends(g: int, n: int, aj: AJDatum) -> bool:
    """Independent decision: every e >= 2 vine must admit a chamber of the
    small-perturbation interval whose stable table contains the AJ bidegree."""
    for vine in enumerate_vines(g, n, 2):
        m = vine_bidegree(vine, aj)
        half_e = Fraction(vine.e, 2)
        found = False
        for ch in chambers(vine, (-half_e, half_e)):
            if any(F.degrees[0] == m for F in ch.stable_table):
                found = True
                break
        if not found:
            return False
    return True


def _recheck_certificate(cert) -> bool:
    """Re-verify a negative certificate with direct stability evaluations
    at two interior points of every chamber."""
    vine = cert.vine
    graph = vine.to_graph()
    bundle = SheafDatum(graph, frozenset(),
                        {0: cert.bidegree, 1: -cert.bidegree})
    for lo, hi, _degs in cert.chambers:
        width = hi - lo
        for x in ((lo + hi) / 2, lo + width / 4):
            if is_stable(graph, vine_phi(vine, x), bundle):
                return False
    return True


# prop41 sweeps the twists of every (g, n) up to these bounds.
PROP41_MAX_GENUS = PROP41_MAX_MARKINGS = 3


def suite_prop41(seed=0):
    cases = 0
    for g in range(1, PROP41_MAX_GENUS + 1):
        for n in range(1, PROP41_MAX_MARKINGS + 1):
            for k in (-1, 0, 1):
                for a in product(range(-2, 3), repeat=n):
                    if k * (2 - 2 * g) + sum(a) != 0:
                        continue
                    aj = AJDatum(k, a, g, n)
                    expected = _is_unit_difference(a) and k * (2 - 2 * g) == 0
                    cases += 1
                    label = "g=%d n=%d k=%d a=%s" % (g, n, k, list(a))
                    if aj.is_trivial:
                        try:
                            classify_extension(g, n, aj, seed)
                        except TrivialTwistError:
                            continue
                        return SuiteResult("prop41", False, cases,
                                           label + ": trivial twist not rejected")
                    result = classify_extension(g, n, aj, seed)
                    if result.extends != expected:
                        return SuiteResult(
                            "prop41", False, cases,
                            label + ": classified %s, expected %s"
                            % (result.extends, expected))
                    if result.extends != brute_force_extends(g, n, aj):
                        return SuiteResult(
                            "prop41", False, cases,
                            label + ": disagrees with chamber brute force")
                    if result.extends:
                        check = sigma_extends(g, n, aj, result.phi_table)
                        if not check.extends:
                            return SuiteResult(
                                "prop41", False, cases,
                                label + ": yes-table fails sigma_extends at %s"
                                % check.witness)
                    else:
                        if not _recheck_certificate(result.certificate):
                            return SuiteResult(
                                "prop41", False, cases,
                                label + ": certificate failed re-check")
    return SuiteResult("prop41", True, cases)


# Corpus suites: name -> (check of one indexed graph, cap on its trials).
_CORPUS_SUITES = {
    "cor25": (_cor25_one, None),
    "support-lemma": (_support_one, 5),
    "tree-count": (_tree_one, None),
    "wall-criterion": (_wall_one, None),
}
SUITES = (*_CORPUS_SUITES, "prop41")


def run_suite(name: str, max_vertices=4, max_edges=7, trials=50,
              seed=0, jobs=1) -> SuiteResult:
    """Run one suite; prop41 sweeps twists, not the graph corpus, and reads
    only the seed."""
    if name == "prop41":
        return suite_prop41(seed=seed)
    if name not in _CORPUS_SUITES:
        raise ValueError("unknown suite %r; expected one of %s" % (name, SUITES))
    one, cap = _CORPUS_SUITES[name]
    fn = partial(one, trials=trials if cap is None else min(trials, cap),
                 seed=seed)
    work = list(enumerate(stable_graph_corpus(max_vertices, max_edges)))
    log.debug("%s: %d corpus graphs", name, len(work))
    if jobs > 1 and len(work) > 1:
        # imported here so that importing the CLI does not load multiprocessing
        from concurrent.futures import ProcessPoolExecutor
        log.debug("%s: pool of %d workers", name, jobs)
        with ProcessPoolExecutor(max_workers=jobs) as pool:
            results = list(pool.map(fn, work, chunksize=32))
    else:
        results = [fn(item) for item in work]
    bad = next((b for _, b in results if b is not None), None)
    return SuiteResult(name, bad is None, sum(c for c, _ in results), bad)
