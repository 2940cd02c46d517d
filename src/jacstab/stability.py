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
The sheaf side runs on integers too: a :class:`SheafDatum` stores ``S`` as
an edge mask (bit ``i`` for ``graph.edge_order[i]``) and ``D`` as a tuple in
``graph.vertex_ids``, the form the search works in, and
``#(S intersect X)`` is ``(S & mask).bit_count()`` against the subcurve's
``internal_mask`` and ``crossing_mask`` (``int.bit_count`` needs Python
3.10).  The search builds objects only for its results.  Each sum over a
subcurve, of phi or of degrees, is one addition: the sum on its ``prefix``
(itself without its last vertex, earlier in the table) plus one value.
The kernel loops walk that table as :attr:`DualGraph.subcurve_rows`,
plain tuples built once per graph (only the oracle
:func:`find_equality_witness` reads ``subcurve_data``), and the search
turns each singleton row into a closed-form degree window once per phi.
A phi keeps its sums and its wall verdict, which :func:`is_nondegenerate`
computes once or a sampler sets, so the search does not test walls again.

Complementary pairs
-------------------
The complement C0^c of a subcurve has the same crossing edges, so the
same cr and delta, and phi(C0^c) = -phi(C0) as phi sums to 0.  For a
datum of total degree d = sum D + |S|, deg_C0^c = d - delta - deg_C0.
So, scaled by 2q, with X = 2q*deg - 2s + q*delta and B = q*(cr - delta),
the inequality on C0 reads -B < X < B and the one on C0^c reads
2qd - B < X < B + 2qd: both hold exactly when
max(0, 2qd) - B < X < B + min(0, 2qd), that is when |X - qd| < B - q|d|.
At d = 0 the two tests are one (the usual reduction of phi-stability to
one side of each pair; Melo-Viviani, arXiv:1009.3205).  The wall test
(phi(C0) + cr/2 in Z) and the small-perturbation test (|phi(C0)| < cr/2)
read the same for C0 and C0^c.  The table comes by size, then vertex
tuple, so its first half (:func:`_half`) holds one subcurve of each pair:
all with fewer than V/2 vertices and those with exactly V/2 that hold the
first vertex.  The samplers, :func:`is_nondegenerate`,
:func:`is_small_perturbation`, the search and the support walk read that
half only, and a phi computes its sums on it first; the search folds each
complement into its row's test and each singleton's window.  The oracle
:func:`find_equality_witness`, :func:`is_stable` and the public
:meth:`PhiVector.subcurve_sums` stay on the whole table, so the suites
compare the half against whole-table readings (``wall-criterion`` the wall
test against the oracle, ``cor25`` the small-perturbation test against
:func:`is_stable`); on the 2-vertex vines, where extension
classification calls :func:`is_stable`, the half is the whole table.

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
from functools import cached_property
from itertools import product, takewhile
from math import gcd, lcm
from numbers import Rational

from .errors import (
    DegenerateParameterError,
    InvalidGraphError,
    MismatchedGraphError,
    PreconditionError,
    UnknownEdgeError,
)
from .graph import MAX_NONFREE_EDGES, DualGraph, VineCurve

# ASCII only: int() and Fraction() also read other Unicode digits and spaces
_RATIONAL = re.compile(r"\s*[+-]?\d+(/\d+)?\s*", re.ASCII)


def exact_rational(x) -> Fraction:
    """``x`` as a Fraction: an int, a Fraction, or a "p/q" (or integer) string.

    Floats and decimal strings are refused, because ``Fraction(0.1)`` is
    ``3602879701896397/36028797018963968``, not 1/10.
    """
    if type(x) is Fraction:
        return x
    if isinstance(x, bool):
        # bool is an int subclass, but JSON true is not a number
        raise PreconditionError("rationals must not be booleans: %r" % x)
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

    The vector is stored scaled to integers: ``q`` is the lcm of the
    denominators and ``numerators[v] / q`` is the value at ``v``.
    ``values``, the map from vertex ids to Fractions, is built from them on
    first read.  A graph with repeated vertex ids raises
    :class:`InvalidGraphError`.
    """

    def __init__(self, graph: DualGraph, values):
        self.graph = graph
        values = {vid: exact_rational(x) for vid, x in values.items()}
        if set(values) != set(graph.vertex_ids):
            raise MismatchedGraphError("phi values must cover exactly the vertex set")
        if len(values) != len(graph.vertex_ids):
            raise InvalidGraphError("duplicate vertex ids")
        self.q = q = lcm(*(x.denominator for x in values.values()))
        self.numerators = {vid: x.numerator * (q // x.denominator)
                           for vid, x in values.items()}
        if sum(self.numerators.values()) != 0:
            raise ValueError("phi values must sum to 0, got %s"
                             % sum(values.values()))
        self._table = self._nondegenerate = None

    @classmethod
    def _from_numerators(cls, graph: DualGraph, q: int, numerators,
                         table=None, nondegenerate=None):
        """The vector with ``numerators`` over ``q`` in vertex order, for
        callers that guarantee they sum to 0.  Reduced by
        ``gcd(q, *numerators)``, so ``q`` and ``numerators`` equal those of
        the Fraction route.  ``table`` (the :func:`_half` of the graph's
        rows and the unreduced numerators' sums on it) and
        ``nondegenerate`` are kept as :meth:`_half_table` and the verdict
        of :func:`is_nondegenerate`."""
        phi = cls.__new__(cls)
        phi.graph = graph
        common = gcd(q, *numerators)
        if common > 1:
            q //= common
            numerators = [x // common for x in numerators]
            if table:
                rows, sums = table
                table = (rows, tuple([s // common for s in sums]))
        phi.q, phi.numerators = q, dict(zip(graph.vertex_ids, numerators))
        phi._table, phi._nondegenerate = table, nondegenerate
        return phi

    @cached_property
    def values(self) -> dict:
        q = self.q
        return {vid: Fraction(x, q) for vid, x in self.numerators.items()}

    def _half_table(self) -> tuple[tuple, tuple[int, ...]]:
        """The :func:`_half` of the graph's ``subcurve_rows`` and
        ``q * phi(C0)`` on at least those rows, computed once per vector:
        all that the stability kernel reads."""
        if self._table is None:
            rows = _half(self.graph.subcurve_rows)
            self._table = (rows, _subcurve_sums(
                rows, [self.numerators[vid] for vid in self.graph.vertex_ids]))
        return self._table

    def subcurve_sums(self) -> tuple[int, ...]:
        """``q * phi(C0)`` for every subcurve, in ``self.graph.subcurve_data``
        order.  The vector keeps the sums on the first half of the table,
        which is all the stability kernel reads (a complement's sum is the
        negated one); the first call here extends them to the whole
        table, once per vector."""
        rows, sums = self._table or self._half_table()
        every = self.graph.subcurve_rows
        if len(sums) < len(every):
            sums = _subcurve_sums(every, sums)
            self._table = (rows, sums)
        return sums

    def __repr__(self):
        return "PhiVector(%s)" % {k: str(v) for k, v in sorted(self.values.items())}


def vine_phi(vine: VineCurve, x: Fraction) -> PhiVector:
    """phi = (x, -x) on the vine's graph, with the ``q`` and numerators of
    ``PhiVector(graph, {0: x, 1: -x})``."""
    x = exact_rational(x)
    return PhiVector._from_numerators(vine.to_graph(), x.denominator,
                                      (x.numerator, -x.numerator))


def _half(rows):
    """The first half of a ``subcurve_rows`` table: one subcurve of each
    complementary pair (see the module docstring), and both singletons
    on 2 vertices, where they are each other's complement.  That is the
    first ``len >> 1`` rows, or 2 on 2 vertices: ``len >> 1`` is
    2^(V-1) - 1, all ones in binary, so ``| 2`` changes it only at V <= 2."""
    return rows[:len(rows) >> 1 | 2]


def _subcurve_sums(rows, sums) -> tuple[int, ...]:
    """Vertex sums for every row of ``rows`` (a ``subcurve_rows`` table or
    its first part), extending ``sums``, which covers the first rows: the
    singletons come first, so the values in vertex order (phi numerators,
    degrees) are a start, and every later sum is its prefix's plus its
    last vertex's."""
    if not rows:
        return ()   # one vertex
    sums = list(sums)
    for row in rows[len(sums):]:
        sums.append(sums[row[1]] + sums[row[2]])
    return tuple(sums)


def _nondegenerate_sums(rows, sums, q: int) -> bool:
    """The wall test of :func:`is_nondegenerate`: no 2s + q*cr is divisible
    by 2q.  Scaling q and every s by one c > 0 changes neither this answer
    nor that of :func:`_small_perturbation_sums`, so both hold for a draw's
    unreduced numerators exactly when they hold for the reduced vector.
    Both read the same on a subcurve and its complement, so callers pass
    the :func:`_half` of the table."""
    q2 = 2 * q
    for row, s in zip(rows, sums):
        if (2 * s + q * row[5]) % q2 == 0:
            return False
    return True


def _small_perturbation_sums(rows, sums, q: int) -> bool:
    """The test of :func:`is_small_perturbation`: |2s| < q*cr everywhere."""
    for row, s in zip(rows, sums):
        if not abs(2 * s) < q * row[5]:
            return False
    return True


def _edge_ids(edge_order, mask) -> tuple[int, ...]:
    """The ids of the edges in ``mask``, in ``edge_order`` order."""
    if not mask:
        return ()
    return tuple(eid for i, eid in enumerate(edge_order) if mask >> i & 1)


class SheafDatum:
    """Combinatorial rank-1 torsion-free sheaf: non-free edges S, degrees D.

    Stored as ``mask`` (bit ``i`` for ``graph.edge_order[i]``) and ``degrees``
    (D in ``graph.vertex_ids``); ``S`` and ``D`` are built on read, and
    ``key`` on its first read, then kept.  A degree that is not an ``int``
    (a float, a bool, a string, a Fraction) raises
    :class:`PreconditionError`; none is converted.
    """

    __slots__ = ("graph", "mask", "degrees", "_key")

    def __init__(self, graph: DualGraph, S, D):
        S = frozenset(S)
        if not S.issubset(graph.edge_order):
            raise UnknownEdgeError("unknown edge ids in S: %s"
                                   % sorted(S.difference(graph.edge_order)))
        vids = graph.vertex_ids
        if len(D) != len(vids) or not all(map(D.__contains__, vids)):
            raise MismatchedGraphError("multidegree must cover exactly the vertex set")
        degrees = tuple(D[vid] for vid in vids)
        if not all(type(x) is int for x in degrees):
            raise PreconditionError("degrees must be integers: %r" % (D,))
        self.graph = graph
        self.mask = sum(1 << i for i, eid in enumerate(graph.edge_order)
                        if eid in S)
        self.degrees = degrees
        self._key = None

    @classmethod
    def _from_kernel(cls, graph: DualGraph, mask: int, degrees: tuple,
                     key=None):
        """The datum ``(mask, degrees)`` of a search result on ``graph``,
        unchecked: both are already in the graph's edge and vertex order,
        and ``key``, if given, is its :attr:`key`."""
        F = cls.__new__(cls)
        F.graph, F.mask, F.degrees, F._key = graph, mask, degrees, key
        return F

    @property
    def S(self) -> frozenset:
        return frozenset(self.key[0])

    @property
    def D(self) -> dict:
        return dict(zip(self.graph.vertex_ids, self.degrees))

    @property
    def key(self) -> tuple:
        """Canonical sort/identity key: (sorted S, D in vertex-id order)."""
        if self._key is None:
            self._key = (_edge_ids(self.graph.edge_order, self.mask),
                         self.degrees)
        return self._key

    def __repr__(self):
        S, degrees = self.key
        return "SheafDatum(S=%s, D=%s)" % (list(S), degrees)

    def __eq__(self, other):
        return (isinstance(other, SheafDatum) and self.graph is other.graph
                and self.mask == other.mask and self.degrees == other.degrees)

    def __hash__(self):
        return hash((self.mask, self.degrees))


def _check_same_graph(graph, *objs):
    for obj in objs:
        if obj.graph is not graph:
            raise MismatchedGraphError("object attached to a different graph")


def _satisfies(rows, sums: tuple, q: int, S: int, D: tuple) -> bool:
    """The inequality for ``S`` a mask and ``D`` a degree tuple on every
    row of ``rows`` (``subcurve_rows`` or a part of it after the
    singletons), scaled to integers: with phi(C0) = s/q, ``s`` in
    ``sums``, it reads |2q*deg - 2s + q*delta| < q*(cr - delta).  Each
    degree sum is its prefix's plus one vertex, built as the test goes
    (``degs[-1]`` is the empty one)."""
    degs = list(D) + [0] * len(rows)
    q2 = 2 * q
    for i, prefix, last, internal, crossing, cr in rows:
        deg = degs[i] = degs[prefix] + D[last]
        if S:
            deg += (S & internal).bit_count()
            delta = (S & crossing).bit_count()
            if abs(q2 * deg - 2 * sums[i] + q * delta) >= q * (cr - delta):
                return False
        elif abs(q2 * deg - 2 * sums[i]) >= q * cr:
            return False
    return True


def is_stable(graph: DualGraph, phi: PhiVector, F: SheafDatum) -> bool:
    """Strict stability inequality over every nonempty proper subcurve,
    tested in table order up to the first that fails.

    Single-vertex graphs have no proper subcurves and are vacuously stable.
    """
    _check_same_graph(graph, phi, F)
    return _satisfies(graph.subcurve_rows, phi.subcurve_sums(), phi.q,
                      F.mask, F.degrees)


def is_nondegenerate(graph: DualGraph, phi: PhiVector) -> bool:
    """Closed-form wall test: degenerate iff some phi(C0) + cr(C0)/2 in Z.

    With phi(C0) = s/q that is (2s + q*cr) divisible by 2q; tested on one
    subcurve of each complementary pair.  The verdict is kept on ``phi``:
    computed on the first call, unless the sampler that drew ``phi`` set
    it, and read on later ones.
    """
    _check_same_graph(graph, phi)
    if phi._nondegenerate is None:
        rows, sums = phi._half_table()
        phi._nondegenerate = _nondegenerate_sums(rows, sums, phi.q)
    return phi._nondegenerate


def find_equality_witness(graph: DualGraph, phi: PhiVector):
    """Brute-force search for an equality instance of the inequality.

    Independent oracle for :func:`is_nondegenerate`: scans every subcurve,
    every delta in [0, cr] and every integer degree in the window
    |deg - phi + delta/2| <= (cr + 1)/2, testing the equality scaled by 2q:
    |2q*deg - 2s + q*delta| == q*(cr - delta) with phi(C0) = s/q.
    Returns the first (vertex set of C0, deg, delta) or None; reads
    neither the kept verdict nor the closed form.  The value
    2q*deg - 2s + q*delta steps by 2q per degree, so the scan covers the
    same (subcurve, delta, deg) in the same order as one that recomputes it.
    """
    _check_same_graph(graph, phi)
    q = phi.q
    q2 = 2 * q
    for info, s in zip(graph.subcurve_data, phi.subcurve_sums()):
        cr = info.cr
        for delta in range(cr + 1):
            # 2q * (center -+ half), center = s/q - delta/2, half = (cr+1)/2
            center = 2 * s - q * delta
            low = -(-(center - q * (cr + 1)) // q2)
            value = q2 * low - center
            bound = q * (cr - delta)
            for deg in range(low, (center + q * (cr + 1)) // q2 + 1):
                if abs(value) == bound:
                    return (info.vertex_set, deg, delta)
                value += q2
    return None


def is_small_perturbation(graph: DualGraph, phi: PhiVector) -> bool:
    """|phi(C0)| < cr(C0)/2 for every subcurve, i.e. |2s| < q*cr, tested
    on one subcurve of each complementary pair.

    Does not imply nondegeneracy; check that separately.
    """
    _check_same_graph(graph, phi)
    rows, sums = phi._half_table()
    return _small_perturbation_sums(rows, sums, phi.q)


def equivalent_small_perturbation_check(graph: DualGraph, phi: PhiVector) -> bool:
    """Stability of the trivial line bundle (the bundle-side route).

    Must agree with :func:`is_small_perturbation` on every input; the test
    suite exercises the equivalence as an oracle.
    """
    trivial = SheafDatum._from_kernel(graph, 0, (0,) * len(graph.vertex_ids))
    return is_stable(graph, phi, trivial)


def _integer_window(low: int, high: int, den: int) -> range:
    """Integers strictly inside (low/den, high/den), for den > 0."""
    return range(low // den + 1, -(-high // den))


def _stable_pairs(graph: DualGraph, phi: PhiVector, d: int,
                  include_nonfree: bool) -> list[tuple[int, tuple]]:
    """Every phi-stable (mask, degrees) of total degree d, in search order;
    a ``d`` that is not an ``int`` raises :class:`PreconditionError`.

    Only the :func:`_half` of the table is read, and each row's test takes
    in its complement's (see the module docstring).  No singleton row is
    tested: with s = q*phi(v), its inequality puts
    2q*(D(v) + loops of S at v) in (2s - q*cr, 2s + q*(cr - 2*delta)), and
    its complement's moves that interval by 2q*d.  So each vertex's window
    ``_integer_window(2s - q*cr, 2s + q*cr, 2q)`` is found once per phi,
    its start raised by max(d, 0) and its stop lowered by -min(d, 0), and a
    mask lowers its top by the integer delta and shifts it by the loops:
    two bit counts and a subtraction.  A later row and its complement hold
    together when |X - q*d| < q*(cr - delta - |d|), X as in
    :func:`_satisfies`; that is its test for the phi sums 2s + q*d over 2q
    and the crossing number cr - |d|, which are handed to it at d != 0."""
    if type(d) is not int:
        raise PreconditionError("total degree must be an integer: %r" % (d,))
    _check_same_graph(graph, phi)
    if not is_nondegenerate(graph, phi):
        raise DegenerateParameterError(
            "degenerate parameter: stable != semistable ambiguity")
    ne = len(graph.edge_order)
    if include_nonfree and ne > MAX_NONFREE_EDGES:
        raise InvalidGraphError("%d edges, non-free limit is %d"
                                % (ne, MAX_NONFREE_EDGES))
    masks = range(1 << ne) if include_nonfree else (0,)
    nv = len(graph.vertex_ids)
    if nv == 1:
        # No proper subcurves: D is pinned by the total degree and every
        # datum is vacuously stable.
        return [(S, (d - S.bit_count(),)) for S in masks]

    # the table starts with the singletons in vertex order
    rows, sums = phi._half_table()
    q = phi.q
    singles = []
    for (_, _, _, internal, crossing, cr), s in zip(rows[:nv], sums):
        window = _integer_window(2 * s - q * cr, 2 * s + q * cr, 2 * q)
        singles.append((window.start, window.stop, internal, crossing))
    rows = rows[nv:]
    if d:
        up, down = max(d, 0), min(d, 0)
        singles = [(start + up, stop + down, internal, crossing)
                   for start, stop, internal, crossing in singles]
        sums = [2 * s + q * d for s in sums]
        rows = [row[:5] + (row[5] - abs(d),) for row in rows]
        q *= 2
    found = []
    for S in masks:
        windows = []
        for start, stop, internal, crossing in singles:
            loops = (S & internal).bit_count()
            window = range(start - loops,
                           stop - (S & crossing).bit_count() - loops)
            if not window:
                break
            windows.append(window)
        else:
            target = d - S.bit_count()
            last = windows.pop()
            for head in product(*windows):
                rest = target - sum(head)
                if rest in last:
                    D = head + (rest,)
                    if _satisfies(rows, sums, q, S, D):
                        found.append((S, D))
    return found


def stable_sheaf_data(graph: DualGraph, phi: PhiVector, d: int,
                      include_nonfree: bool = False) -> list[SheafDatum]:
    """The complete finite list of phi-stable sheaf data of total degree d,
    an ``int`` (anything else raises :class:`PreconditionError`).

    Requires phi nondegenerate (stable = semistable, so the list is
    unambiguous).  With ``include_nonfree=False`` only line bundles (S
    empty) are returned; with ``include_nonfree=True`` the search runs over
    all 2^E edge subsets, so graphs above ``MAX_NONFREE_EDGES`` edges raise
    :class:`InvalidGraphError`.  The search is bounded and flat: the
    singleton-subcurve inequality pins each D(v) to a finite window, the
    search runs over the product of all windows but the last, and the last
    vertex is solved from the total-degree constraint and kept only if it
    lies in its own window.  Candidates are (mask, degrees) pairs, the
    integers a :class:`SheafDatum` stores; the windows already enforce the
    singleton inequalities, so each is tested on the larger subcurves only.
    The stable pairs are sorted by ``F.key`` and only then become objects.
    """
    keyed = sorted((_edge_ids(graph.edge_order, S), D, S)
                   for S, D in _stable_pairs(graph, phi, d, include_nonfree))
    return [SheafDatum._from_kernel(graph, S, D, (ids, D))
            for ids, D, S in keyed]


def _support_lemma_count(graph: DualGraph, phi: PhiVector):
    """(number of stable degree-0 data, :func:`verify_support_lemma`'s
    outcome), from one search."""
    if not is_small_perturbation(graph, phi):
        raise PreconditionError("phi is not a small perturbation of 0")
    rows = graph.subcurve_rows
    half = _half(rows)
    pairs = _stable_pairs(graph, phi, 0, include_nonfree=True)
    violations = []
    for S, D in pairs:
        degs = [0] * (len(half) + 1)   # as in _satisfies
        for i, prefix, last, internal, crossing, cr in half:
            deg = degs[i] = degs[prefix] + D[last]
            deg += (S & internal).bit_count()
            # deg_C0^c = -delta - deg_C0 at total degree 0, so the bound
            # on the complement reads -cr < deg_C0
            if not -cr < deg < cr - (S & crossing).bit_count():
                violations.append((_edge_ids(graph.edge_order, S), D, S))
                break
    if not violations:
        return len(pairs), True
    ids, D, S = min(violations)
    # the first violating subcurve in whole-table order
    i = next(i for (i, _, _, internal, crossing, cr), deg in zip(
        rows, _subcurve_sums(rows, D))
        if not deg + (S & internal).bit_count()
        < cr - (S & crossing).bit_count())
    return len(pairs), (SheafDatum(graph, ids, dict(zip(graph.vertex_ids, D))),
                        graph.subcurve_data[i].vertex_set)


def verify_support_lemma(graph: DualGraph, phi: PhiVector):
    """Check the section-support incompatibility over stable degree-0 data.

    For every phi-stable degree-0 datum F and every subcurve C0 the strict
    bound deg_C0(F) < cr(C0) - delta_C0(F) must hold, so a nonzero section
    (which would force deg_C0(F) >= cr(C0)) cannot exist.  Returns True or
    the first violating (F, vertex set of C0) in canonical order, checked on
    the search's (S, D) pairs and one subcurve of each complementary pair
    (the whole table is read only to name the subcurve); objects are built
    only for a violation.  A
    phi that is no small perturbation raises :class:`PreconditionError`, a
    degenerate one its subclass :class:`DegenerateParameterError`.
    """
    return _support_lemma_count(graph, phi)[1]


# Primes in order, grown by trial division as draws reach further; shared by
# every stream, so each prime is found once per process.
_PRIMES = [2, 3]


def epsilon_stream(seed: int):
    """Deterministic small rationals 1/(100*p) over successive primes p,
    starting at the ``(seed % 997 + 1)``-th prime, so the first draw lies
    between 1/788300 and 1/200.  A ``seed`` that is not an ``int``
    (``bool`` included) raises :class:`PreconditionError` at that draw."""
    if type(seed) is not int:
        raise PreconditionError("seed must be an integer: %r" % (seed,))
    k = seed % 997
    while True:
        while len(_PRIMES) <= k:
            c = _PRIMES[-1] + 2
            while not all(c % p for p in takewhile(lambda p: p * p <= c, _PRIMES)):
                c += 2
            _PRIMES.append(c)
        yield Fraction(1, 100 * _PRIMES[k])
        k += 1


# --- JSON schemas ----------------------------------------------------------
#
# PhiVector:  {"values": {vertexId: "p/q"}}
# SheafDatum: {"S": [edgeIds], "D": {vertexId: int}}

def phi_to_dict(phi: PhiVector) -> dict:
    return {"values": {str(vid): str(phi.values[vid])
                       for vid in sorted(phi.values)}}


def phi_from_dict(graph: DualGraph, data: dict) -> PhiVector:
    """The phi of a JSON dict; :class:`PreconditionError` for a missing key,
    a wrong container or a vertex id key that is not a canonical integer
    (one that ``str(int(key))`` gives back unchanged, so no two keys name
    one vertex)."""
    try:
        values = {}
        for key, val in data["values"].items():
            if str(int(key)) != key:
                raise ValueError("vertex id %r is not a canonical integer"
                                 % key)
            values[int(key)] = val
    except (KeyError, TypeError, AttributeError, ValueError) as exc:
        raise PreconditionError("malformed phi JSON: %s" % exc) from exc
    return PhiVector(graph, values)


def datum_to_dict(F: SheafDatum) -> dict:
    return {"S": list(F.key[0]), "D": {str(v): d for v, d in F.D.items()}}

