"""Stability parameters and the stability inequality for sheaf data.

A rank-1 torsion-free sheaf on a nodal curve is modeled combinatorially by a
pair ``F = (S, D)``: the set ``S`` of edges (nodes) where the stalk fails to
be locally free, and the integer multidegree ``D`` on the partial
normalization.  For a subcurve ``C0``::

    deg_C0(F)   = sum_{v in C0} D(v) + #{S-edges with both ends in C0}
    delta_C0(F) = #(S  intersect  crossing edges of C0)

and ``F`` is phi-stable when, for every nonempty proper subcurve,

    | deg_C0(F) - phi(C0) + delta_C0(F)/2 |  <  (cr(C0) - delta_C0(F)) / 2

(semistable with <=).  All arithmetic is exact and float-free: a
:class:`PhiVector` keeps its values over one common denominator ``q``, and
every subcurve test runs on the integers ``q*phi(C0)``
(:meth:`PhiVector.subcurve_sums`) with the inequality scaled by ``2q``.

Wall criterion
--------------
Equality in the inequality above forces

    deg_C0 = phi(C0) - delta/2 +- (cr - delta)/2
           = phi(C0) + cr/2 - delta      or      phi(C0) - cr/2,

both solvable in integers (deg_C0, delta in [0, cr]) exactly when
phi(C0) + cr(C0)/2 is an integer.  Hence phi is degenerate iff some
subcurve satisfies phi(C0) + cr(C0)/2 in Z.  The closed form is
cross-checked against the brute-force equality search
(:func:`find_equality_witness`) in the test suite.
"""

from __future__ import annotations

import re
from fractions import Fraction
from itertools import chain, combinations, islice, product, takewhile
from math import lcm
from numbers import Rational
from operator import attrgetter

from .errors import (
    DegenerateParameterError,
    InvalidGraphError,
    MismatchedGraphError,
    PhiConstructionError,
    PreconditionError,
    UnknownEdgeError,
)
from .graph import MAX_NONFREE_EDGES, DualGraph, Subcurve, VineCurve


_RATIONAL = re.compile(r"\s*[+-]?\d+(/\d+)?\s*")


def exact_rational(x) -> Fraction:
    """``x`` as a Fraction: an int, a Fraction, or a "p/q" (or integer) string.

    Floats and decimal strings are refused, because ``Fraction(0.1)`` is
    ``3602879701896397/36028797018963968``, not 1/10.
    """
    if type(x) is Fraction:
        return x
    if isinstance(x, Rational):
        return Fraction(x)
    if isinstance(x, str) and _RATIONAL.fullmatch(x):
        try:
            return Fraction(x)
        except ZeroDivisionError:
            raise PreconditionError("bad rational %r: zero denominator" % x)
    raise PreconditionError(
        "rationals must be given as p/q strings, not decimals or floats: %r"
        % (x,))


class PhiVector:
    """Exact rational vertex weights summing to zero on one graph.

    ``values`` maps vertex ids to Fractions.  The same vector is also kept
    scaled to integers: ``q`` is the lcm of the denominators and
    ``values[v] == numerators[v] / q``.
    """

    def __init__(self, graph: DualGraph, values):
        self.graph = graph
        self.values = {vid: exact_rational(x) for vid, x in values.items()}
        if set(self.values) != set(graph.vertex_ids):
            raise MismatchedGraphError("phi values must cover exactly the vertex set")
        self.q = q = lcm(*(x.denominator for x in self.values.values()))
        self.numerators = {vid: x.numerator * (q // x.denominator)
                           for vid, x in self.values.items()}
        if sum(self.numerators.values()) != 0:
            raise ValueError("phi values must sum to 0, got %s"
                             % sum(self.values.values()))
        self._sums = None

    def subcurve_sums(self) -> tuple[int, ...]:
        """``q * phi(C0)`` for every subcurve, in ``self.graph.subcurve_data``
        order.  Computed once per vector."""
        if self._sums is None:
            nums = self.numerators.__getitem__
            self._sums = tuple(sum(map(nums, info.vertices))
                               for info in self.graph.subcurve_data)
        return self._sums

    def __repr__(self):
        return "PhiVector(%s)" % {k: str(v) for k, v in sorted(self.values.items())}


class SheafDatum:
    """Combinatorial rank-1 torsion-free sheaf: non-free edges S, degrees D."""

    def __init__(self, graph: DualGraph, S, D):
        self.graph = graph
        self.S = frozenset(S)
        self.D = {vid: int(d) for vid, d in D.items()}
        edges = graph.edge_by_id.keys()
        if not self.S <= edges:
            raise UnknownEdgeError("unknown edge ids in S: %s"
                                   % sorted(self.S - edges))
        vids = graph.vertex_ids
        if len(self.D) != len(vids) or not all(map(self.D.__contains__, vids)):
            raise MismatchedGraphError("multidegree must cover exactly the vertex set")

    @property
    def key(self) -> tuple:
        """Canonical sort/identity key: (sorted S, D in vertex-id order)."""
        return (tuple(sorted(self.S)),
                tuple(self.D[vid] for vid in sorted(self.D)))

    @property
    def is_line_bundle(self) -> bool:
        return not self.S

    def __repr__(self):
        return "SheafDatum(S=%s, D=%s)" % (sorted(self.S), self.key[1])

    def __eq__(self, other):
        return (isinstance(other, SheafDatum)
                and self.graph is other.graph and self.key == other.key)

    def __hash__(self):
        return hash(self.key)


def total_degree(F: SheafDatum) -> int:
    return sum(F.D.values()) + len(F.S)


def degree_on(F: SheafDatum, c0: Subcurve) -> int:
    info = F.graph.subcurve_info(c0)
    return sum(F.D[v] for v in info.vertices) + len(F.S & info.internal)


def delta_on(F: SheafDatum, c0: Subcurve) -> int:
    return len(F.S & F.graph.subcurve_info(c0).crossing)


def phi_of(phi: PhiVector, c0: Subcurve) -> Fraction:
    """Exact rational sum of phi over the subcurve's vertices."""
    return Fraction(phi.subcurve_sums()[phi.graph.subcurve_position(c0)], phi.q)


def _check_same_graph(graph, *objs):
    for obj in objs:
        if obj.graph is not graph:
            raise MismatchedGraphError("object attached to a different graph")


def _phi_context(graph, phi):
    # Scaled to integers: with phi(C0) = s/q, the inequality
    # |deg - s/q + delta/2| < (cr - delta)/2 becomes
    # |2q*deg - 2s + q*delta| < q*(cr - delta).
    q = phi.q
    return [(info.vertices, info.internal, info.crossing,
             len(info.crossing), 2 * s, q)
            for info, s in zip(graph.subcurve_data, phi.subcurve_sums())]


def _satisfies_ctx(ctx, S, D, strict: bool) -> bool:
    for verts, internal, crossing, cr, twos, q in ctx:
        deg = sum(D[v] for v in verts)
        if S:
            deg += len(S & internal)
            delta = len(S & crossing)
        else:
            delta = 0
        lhs = abs(2 * q * deg - twos + q * delta)
        rhs = q * (cr - delta)
        if lhs > rhs or (strict and lhs == rhs):
            return False
    return True


def _satisfies(graph, phi, F, strict: bool) -> bool:
    return _satisfies_ctx(_phi_context(graph, phi), F.S, F.D, strict)


def is_stable(graph: DualGraph, phi: PhiVector, F: SheafDatum) -> bool:
    """Strict stability inequality over every nonempty proper subcurve.

    Single-vertex graphs have no proper subcurves and are vacuously stable.
    """
    _check_same_graph(graph, phi, F)
    return _satisfies(graph, phi, F, strict=True)


def is_semistable(graph: DualGraph, phi: PhiVector, F: SheafDatum) -> bool:
    _check_same_graph(graph, phi, F)
    return _satisfies(graph, phi, F, strict=False)


def is_nondegenerate(graph: DualGraph, phi: PhiVector) -> bool:
    """Closed-form wall test: degenerate iff some phi(C0) + cr(C0)/2 in Z.

    With phi(C0) = s/q that is (2s + q*cr) divisible by 2q.
    """
    _check_same_graph(graph, phi)
    q = phi.q
    for info, s in zip(graph.subcurve_data, phi.subcurve_sums()):
        if (2 * s + q * len(info.crossing)) % (2 * q) == 0:
            return False
    return True


def find_equality_witness(graph: DualGraph, phi: PhiVector):
    """Brute-force search for an equality instance of the inequality.

    Independent oracle for :func:`is_nondegenerate`: scans every subcurve,
    every delta in [0, cr] and every integer degree in the window
    |deg - phi + delta/2| <= (cr + 1)/2, testing the equality scaled by 2q:
    |2q*deg - 2s + q*delta| == q*(cr - delta) with phi(C0) = s/q.
    Returns (C0, deg, delta) or None.
    """
    _check_same_graph(graph, phi)
    q = phi.q
    for info, s in zip(graph.subcurve_data, phi.subcurve_sums()):
        cr = len(info.crossing)
        for delta in range(cr + 1):
            # 2q * (center -+ half) with center = s/q - delta/2, half = (cr+1)/2
            low = 2 * s - q * delta - q * (cr + 1)
            high = 2 * s - q * delta + q * (cr + 1)
            for deg in range(-(-low // (2 * q)), high // (2 * q) + 1):
                if abs(2 * q * deg - 2 * s + q * delta) == q * (cr - delta):
                    return (Subcurve(info.vertex_set), deg, delta)
    return None


def is_small_perturbation(graph: DualGraph, phi: PhiVector) -> bool:
    """|phi(C0)| < cr(C0)/2 for every subcurve, i.e. |2s| < q*cr.

    Does not imply nondegeneracy; check that separately.
    """
    _check_same_graph(graph, phi)
    q = phi.q
    for info, s in zip(graph.subcurve_data, phi.subcurve_sums()):
        if not abs(2 * s) < q * len(info.crossing):
            return False
    return True


def equivalent_small_perturbation_check(graph: DualGraph, phi: PhiVector) -> bool:
    """Stability of the trivial line bundle (the bundle-side route).

    Must agree with :func:`is_small_perturbation` on every input; the test
    suite exercises the equivalence as an oracle.
    """
    trivial = SheafDatum(graph, frozenset(), {vid: 0 for vid in graph.vertex_ids})
    return is_stable(graph, phi, trivial)


def _integer_window(low: int, high: int, den: int) -> range:
    """Integers strictly inside (low/den, high/den), for den > 0."""
    return range(low // den + 1, -(-high // den))


def _edge_subsets(graph):
    eids = sorted(graph.edge_by_id)
    if len(eids) > MAX_NONFREE_EDGES:
        raise InvalidGraphError("%d edges, non-free limit is %d"
                                % (len(eids), MAX_NONFREE_EDGES))
    return chain.from_iterable(combinations(eids, k) for k in range(len(eids) + 1))


def stable_sheaf_data(graph: DualGraph, phi: PhiVector, d: int,
                      include_nonfree: bool = False) -> list[SheafDatum]:
    """The complete finite list of phi-stable sheaf data of total degree d.

    Requires phi nondegenerate (stable = semistable, so the list is
    unambiguous).  With ``include_nonfree=False`` only line bundles (S
    empty) are returned; with ``include_nonfree=True`` the search runs over
    all 2^E edge subsets, so graphs above ``MAX_NONFREE_EDGES`` edges raise
    :class:`InvalidGraphError`.  The search is bounded and flat: the
    singleton-subcurve inequality pins each D(v) to a finite window, the
    search runs over the product of all windows but the last, and the last
    vertex is solved from the total-degree constraint and kept only if it
    lies in its own window.  Each candidate is tested on its (S, D) and
    becomes a :class:`SheafDatum` only if it is stable.  Output is
    canonically ordered by (sorted S, D).
    """
    _check_same_graph(graph, phi)
    if not is_nondegenerate(graph, phi):
        raise DegenerateParameterError(
            "degenerate parameter: stable != semistable ambiguity")

    vids = sorted(graph.vertex_ids)
    results = []
    subsets = _edge_subsets(graph) if include_nonfree else [()]
    ctx = _phi_context(graph, phi)
    q = phi.q

    if len(vids) == 1:
        # No proper subcurves: D is pinned by the total degree and every
        # datum is vacuously stable.
        v = vids[0]
        for S in subsets:
            results.append(SheafDatum(graph, S, {v: d - len(S)}))
        results.sort(key=attrgetter("key"))
        return results

    singleton = {info.vertices[0]: info
                 for info in graph.subcurve_data if len(info.vertices) == 1}

    for S in subsets:
        S = frozenset(S)
        windows = []
        for vid in vids:
            info = singleton[vid]
            cr = len(info.crossing)
            delta = len(S & info.crossing)
            loops_in_S = len(S & info.internal)
            # 2q * (center -+ half) with center = phi(v) - delta/2 and
            # half = (cr - delta)/2
            twos = 2 * phi.numerators[vid]
            windows.append([deg - loops_in_S for deg in _integer_window(
                twos - q * cr, twos + q * (cr - 2 * delta), 2 * q)])
        if not all(windows):
            continue
        target = d - len(S)
        last = set(windows[-1])
        for head in product(*windows[:-1]):
            rest = target - sum(head)
            if rest in last:
                D = dict(zip(vids, head + (rest,)))
                if _satisfies_ctx(ctx, S, D, strict=True):
                    results.append(SheafDatum(graph, S, D))

    results.sort(key=attrgetter("key"))
    return results


def verify_support_lemma(graph: DualGraph, phi: PhiVector):
    """Check the section-support incompatibility over stable degree-0 data.

    For every phi-stable degree-0 datum F and every subcurve C0 the strict
    bound deg_C0(F) < cr(C0) - delta_C0(F) must hold, so a nonzero section
    (which would force deg_C0(F) >= cr(C0)) cannot exist.  Returns True or
    the first violating (F, C0).
    """
    if not is_small_perturbation(graph, phi):
        raise PreconditionError("phi is not a small perturbation of 0")
    if not is_nondegenerate(graph, phi):
        raise PreconditionError("phi is degenerate")
    for F in stable_sheaf_data(graph, phi, 0, include_nonfree=True):
        for info in graph.subcurve_data:
            c0 = Subcurve(info.vertex_set)
            if not degree_on(F, c0) < len(info.crossing) - delta_on(F, c0):
                return (F, c0)
    return True


# Primes in order, grown by trial division as draws reach further; shared by
# every stream, so each prime is found once per process.
_PRIMES = [2, 3]


def epsilon_stream(seed: int):
    """Deterministic small rationals 1/(100*p) over successive primes p,
    starting at the ``(seed % 997 + 1)``-th prime."""
    k = int(seed) % 997
    while True:
        while len(_PRIMES) <= k:
            c = _PRIMES[-1] + 2
            while not all(c % p for p in takewhile(lambda p: p * p <= c, _PRIMES)):
                c += 2
            _PRIMES.append(c)
        yield Fraction(1, 100 * _PRIMES[k])
        k += 1


def first_admissible(candidates, ok, failure: str):
    """The first of at most 50 candidates satisfying ``ok``; raises
    :class:`PhiConstructionError` with ``failure`` if none does."""
    for candidate in islice(candidates, 50):
        if ok(candidate):
            return candidate
    raise PhiConstructionError(failure)


def make_t_stable_phi(vine: VineCurve, t: int, seed: int = 0) -> PhiVector:
    """Nondegenerate phi on the vine making the line bundle (t, -t) stable.

    phi(side 1) = t + eps with eps a deterministic non-wall rational drawn
    from the seed; the stability postcondition is checked explicitly.
    """
    graph = vine.to_graph()
    target = SheafDatum(graph, frozenset(), {0: t, 1: -t})
    return first_admissible(
        (PhiVector(graph, {0: t + eps, 1: -t - eps})
         for eps in epsilon_stream(seed)),
        lambda phi: (is_nondegenerate(graph, phi)
                     and is_stable(graph, phi, target)),
        "no admissible perturbation found for %s, t=%d" % (vine, t))


# --- JSON schemas ----------------------------------------------------------
#
# PhiVector:  {"values": {vertexId: "p/q"}}
# SheafDatum: {"S": [edgeIds], "D": {vertexId: int}}

def phi_to_dict(phi: PhiVector) -> dict:
    return {"values": {str(vid): str(phi.values[vid])
                       for vid in sorted(phi.values)}}


def phi_from_dict(graph: DualGraph, data: dict) -> PhiVector:
    return PhiVector(graph, {int(vid): val
                             for vid, val in data["values"].items()})


def datum_to_dict(F: SheafDatum) -> dict:
    return {"S": sorted(F.S), "D": {str(vid): F.D[vid] for vid in sorted(F.D)}}


def datum_from_dict(graph: DualGraph, data: dict) -> SheafDatum:
    return SheafDatum(graph, data["S"],
                      {int(vid): d for vid, d in data["D"].items()})
