"""Abel-Jacobi multidegrees and the extension classifier.

The twist data (k; a_1, ..., a_n) determines the line bundle
omega^{-k}(a_1 p_1 + ... + a_n p_n); its multidegree on a dual graph is

    D(v) = -k * (2 h_v - 2 + val(v)) + sum_{i in markings(v)} a_i,

which sums to zero by the degree constraint k(2-2g) + sum a_i = 0.  The
Abel-Jacobi section extends over a small-perturbation stability parameter
exactly when this multidegree is stable on every vine with e >= 2 nodes.

Scope note: stability parameters are handled per vine.  A table passing all
checks here is the vine shadow of a global parameter; whether it always
lifts to one is not decided by this package, and reports say so.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass
from fractions import Fraction
from functools import partial

from .errors import (
    IncompleteTableError,
    JacstabError,
    PhiConstructionError,
    PreconditionError,
    TrivialTwistError,
)
from .graph import (DualGraph, VineCurve, _json_int, enumerate_vines,
                    iter_vines, make_vine, vine_to_dict)
from .stability import (
    SheafDatum,
    epsilon_stream,
    exact_rational,
    is_nondegenerate,
    is_small_perturbation,
    is_stable,
    vine_phi,
)

log = logging.getLogger(__name__)

_table_int = partial(_json_int, doc="phi table", error=PreconditionError)

SCOPE_NOTE = ("phi table is per-vine; whether it lifts to a global "
              "stability parameter is not decided here")


@dataclass(frozen=True)
class AJDatum:
    """Twist data (k; a_1, ..., a_n) for fixed (g, n).  :meth:`check`
    refuses a ``k`` or ``a_i`` that is not an ``int`` (``bool`` included),
    since such data is no line bundle."""

    k: int
    a: tuple[int, ...]
    g: int
    n: int

    def check(self, g: int, n: int) -> None:
        if (self.g, self.n) != (g, n):
            raise JacstabError("twist data for (g=%d, n=%d) used for (g=%d, "
                               "n=%d)" % (self.g, self.n, g, n))
        if len(self.a) != self.n:
            raise JacstabError("twist vector length %d != n=%d"
                               % (len(self.a), self.n))
        if any(type(x) is not int for x in (self.k, *self.a)):
            raise PreconditionError("twist data must be integers: k=%r, a=%r"
                                    % (self.k, self.a))
        lhs = self.k * (2 - 2 * self.g) + sum(self.a)
        if lhs != 0:
            raise JacstabError(
                "degree constraint violated: k(2-2g) + sum(a) = %d" % lhs)

    @property
    def is_trivial(self) -> bool:
        return self.k * (2 - 2 * self.g) == 0 and all(x == 0 for x in self.a)


def aj_multidegree(graph: DualGraph, aj: AJDatum) -> dict[int, int]:
    """Multidegree of omega^{-k}(sum a_i p_i) on the dual graph."""
    aj.check(graph.g, graph.n)
    out = {}
    for v in graph.vertices:
        out[v.id] = (-aj.k * (2 * v.h - 2 + graph.valence(v.id))
                     + sum(aj.a[i - 1] for i in v.markings))
    return out


def vine_bidegree(vine: VineCurve, aj: AJDatum) -> int:
    """Side-1 degree of the Abel-Jacobi bundle on the vine."""
    return (-aj.k * (2 * vine.g1 - 2 + vine.e)
            + sum(aj.a[i - 1] for i in vine.S))


class VinePhiTable:
    """Map from canonical vines of one (g, n) to exact rational phi(side 1)."""

    def __init__(self, g: int, n: int, entries):
        self.g = _table_int(g, "g")
        self.n = _table_int(n, "n")
        for what, value in (("g", self.g), ("n", self.n)):
            if value < 1:
                raise PreconditionError("malformed phi table JSON: %s must be"
                                        " at least 1, got %d" % (what, value))
        self.entries = {vine: exact_rational(x) for vine, x in entries.items()}

    def to_dict(self) -> dict:
        return {
            "g": self.g,
            "n": self.n,
            "entries": [
                {**vine_to_dict(v), "phi": str(x)}
                for v, x in sorted(self.entries.items())
            ],
        }

    @classmethod
    def from_dict(cls, data: dict) -> "VinePhiTable":
        """Rows may name either side first; each becomes its canonical vine,
        with phi negated when the sides swap.  A missing key, a wrong
        container, a ``g``, ``n``, ``g1``, ``g2``, ``e`` or ``S`` entry that
        is not an integer, or a row that is no vine of ``(g, n)`` or repeats
        an earlier row's vine raises :class:`PreconditionError`."""
        try:
            table = cls(data["g"], data["n"], {})
            vines = set(iter_vines(table.g, table.n, 1))
            for row in data["entries"]:
                g1, g2, e = (_table_int(row[k], k) for k in ("g1", "g2", "e"))
                S = sorted(_table_int(m, "S entry") for m in row["S"])
                vine = make_vine(g1, g2, e, S, table.n)
                # a stray or repeated marking is on neither side of vine
                if vine not in vines or S not in (list(vine.S),
                                                  list(vine.side2_markings)):
                    raise ValueError("row %s is no vine of g=%d, n=%d" % (
                        VineCurve(e, g1, tuple(S), g2, table.n),
                        table.g, table.n))
                if vine in table.entries:
                    raise ValueError("row %s repeats an earlier row" % vine)
                phi = exact_rational(row["phi"])
                table.entries[vine] = phi if list(vine.S) == S else -phi
            return table
        except (KeyError, TypeError, AttributeError, ValueError) as exc:
            raise PreconditionError("malformed phi table JSON: %s" % exc) from exc


@dataclass(frozen=True, kw_only=True)
class ExtendsResult:
    """Answer of :func:`sigma_extends` and :func:`classify_extension`, with
    the phi table checked or the chamber certificate of a "no".  Only a
    "no" names a witness vine, so ``extends`` is ``witness is None``."""

    witness: VineCurve | None
    witness_bidegree: int | None = None
    phi_table: VinePhiTable | None = None
    certificate: ChamberCertificate | None = None

    @property
    def extends(self) -> bool:
        return self.witness is None

    def to_report(self) -> dict:
        report = {
            "extends": self.extends,
            "witness_vine": None if self.witness is None else {
                **vine_to_dict(self.witness),
                "bidegree": [self.witness_bidegree, -self.witness_bidegree],
            },
            "phi_table": self.phi_table.to_dict() if self.phi_table else None,
            "note": SCOPE_NOTE,
        }
        if self.certificate is not None:
            report["certificate"] = {
                "chambers": [
                    {"lo": str(lo), "hi": str(hi),
                     "stable_bidegrees": list(degs)}
                    for lo, hi, degs in self.certificate.chambers
                ]
            }
        return report


def sigma_extends(g: int, n: int, aj: AJDatum,
                  table: VinePhiTable) -> ExtendsResult:
    """Check stability of the Abel-Jacobi multidegree on all e >= 2 vines.

    The table must be one for (g, n) and cover every such vine with a
    nondegenerate small perturbation (else :class:`PreconditionError` names
    the mismatch or the first vine that is not); the first failing vine
    (canonical order) is returned as witness.
    """
    aj.check(g, n)
    if (table.g, table.n) != (g, n):
        raise PreconditionError(
            "phi table is for g=%d, n=%d, not for g=%d, n=%d"
            % (table.g, table.n, g, n))
    vines = enumerate_vines(g, n, 2)
    missing = [vine for vine in vines if vine not in table.entries]
    if missing:
        raise IncompleteTableError(missing)
    phis = [vine_phi(vine, table.entries[vine]) for vine in vines]
    for vine, phi in zip(vines, phis):
        if not (is_small_perturbation(phi.graph, phi)
                and is_nondegenerate(phi.graph, phi)):
            raise PreconditionError(
                "phi(%s) = %s is not a nondegenerate small perturbation"
                % (vine, table.entries[vine]))
    for vine, phi in zip(vines, phis):
        D = aj_multidegree(phi.graph, aj)
        if not is_stable(phi.graph, phi, SheafDatum(phi.graph, frozenset(), D)):
            return ExtendsResult(witness=vine, witness_bidegree=D[0],
                                 phi_table=table)
    return ExtendsResult(witness=None, phi_table=table)


def construct_prop_phi(g: int, n: int, i: int, j: int,
                       seed: int = 0) -> VinePhiTable:
    """Per-vine stability table stabilizing the bundle O(p_i - p_j).

    Every e = 1 vine gets phi(side 1) = 0; an e >= 2 vine gets
    x = m/2 + eps, with m = [i in S] - [j in S] in {-1, 0, 1} its side-1
    degree and eps = ``next(epsilon_stream(seed))``, drawn once per call.
    As e >= 2 and 0 < eps <= 1/200, x is admissible: |x| < 1 <= e/2 (a
    small perturbation), |m - x| = |m/2 - eps| < 1 <= e/2 (the bundle
    (m, -m) is stable) and x + e/2 = (m + e)/2 + eps is no integer
    (nondegenerate).  These checks stay as the postcondition.  A vine's
    sides are its only subcurves, so the checks read it only through
    (e, m) and run once per class, on the graph of the first vine with that
    e; a failure raises :class:`PhiConstructionError` naming that vine.
    """
    if i == j:
        raise JacstabError("markings i and j must differ")
    if not (1 <= i <= n and 1 <= j <= n):
        raise JacstabError("markings out of range for n=%d" % n)
    eps = next(epsilon_stream(seed))
    vines = enumerate_vines(g, n, 1)
    table = VinePhiTable(g, n, {})
    accepted = {}  # (e, m) -> the Fraction checked for the class
    first = {}  # e -> the first vine with e edges, whose graph is checked
    for vine in vines:
        if vine.e == 1:
            table.entries[vine] = Fraction(0)
            continue
        m = (i in vine.S) - (j in vine.S)  # side-1 degree of O(p_i - p_j)
        if (vine.e, m) not in accepted:
            x = Fraction(m, 2) + eps
            checked = first.setdefault(vine.e, vine)
            graph = checked.to_graph()
            phi = vine_phi(checked, x)
            bundle = SheafDatum(graph, frozenset(), {0: m, 1: -m})
            if not (is_nondegenerate(graph, phi)
                    and is_small_perturbation(graph, phi)
                    and is_stable(graph, phi, bundle)):
                raise PhiConstructionError(
                    "no admissible perturbation for %s" % vine)
            accepted[vine.e, m] = x
        table.entries[vine] = accepted[vine.e, m]
    log.debug("construct_prop_phi g=%d n=%d: %d vines, %d (e, m) checks",
              g, n, len(vines), len(accepted))
    return table


@dataclass(frozen=True)
class ChamberCertificate:
    """Evidence that (m, -m) is stable in no chamber of (-e/2, e/2)."""

    vine: VineCurve
    bidegree: int

    @property
    def chambers(self) -> tuple[tuple[Fraction, Fraction, tuple[int, ...]], ...]:
        """(lo, hi, stable line-bundle side-1 degrees) per chamber, built on
        each read: the walls are k - e/2, and above k - e/2 the D with
        |D - x| < e/2 are k - e + 1, ..., k, for k = 0..e-1."""
        e = self.vine.e
        return tuple((Fraction(2 * k - e, 2), Fraction(2 * k + 2 - e, 2),
                      tuple(range(k - e + 1, k + 1))) for k in range(e))


def _unit_difference_markings(a: tuple[int, ...]):
    """Return (i, j) with a = e_i - e_j, or None."""
    pos = [m + 1 for m, x in enumerate(a) if x == 1]
    neg = [m + 1 for m, x in enumerate(a) if x == -1]
    if len(pos) == len(neg) == 1 and all(x in (0, 1, -1) for x in a):
        return pos[0], neg[0]
    return None


def certify_unstable_on_vine(vine: VineCurve, m: int) -> ChamberCertificate | None:
    """Check the bidegree (m, -m) against all chambers of the
    small-perturbation interval (-e/2, e/2).

    The bundle is stable at phi = (x, -x) exactly when |m - x| < e/2, so
    some chamber makes it stable exactly when -e < m < e; then this returns
    None, and otherwise a certificate, whose rows are a formula in e.  No
    graph is built and nothing is searched.  An ``m`` that is not an
    ``int`` (``bool`` included) raises :class:`PreconditionError`.
    """
    if type(m) is not int:
        raise PreconditionError("bidegree must be an integer: %r" % (m,))
    if -vine.e < m < vine.e:
        return None
    return ChamberCertificate(vine, m)


def classify_extension(g: int, n: int, aj: AJDatum,
                       seed: int = 0) -> ExtendsResult:
    """Decide whether the Abel-Jacobi section extends over some
    small-perturbation stability table, with constructive evidence.

    "yes" answers carry the table from :func:`construct_prop_phi`, whose
    acceptance, once per (e, m) class, is the check :func:`sigma_extends`
    makes per vine, so it is not run twice; "no" answers carry the first
    obstructing vine in canonical order with its chamber certificate, both
    read off (e, m), so they build no graph and no vine after the witness
    and run no search.  Only a "yes" reads ``seed``, an ``int``.
    """
    aj.check(g, n)
    if aj.is_trivial:
        raise TrivialTwistError("trivial twist")

    ij = _unit_difference_markings(aj.a)
    if ij is not None:
        # aj.check() with sum(a) = 0 forces k(2 - 2g) = 0, so k != 0 only
        # for g = 1, whose e >= 2 vines have g1 = g2 = 0 and e = 2; there
        # the bundle {0: m, 1: -m} that construct_prop_phi checks is aj's
        # multidegree, so no sigma_extends re-check is needed.
        return ExtendsResult(witness=None, phi_table=construct_prop_phi(
            g, n, ij[0], ij[1], seed))

    for vine in iter_vines(g, n, 2):
        m = vine_bidegree(vine, aj)
        cert = certify_unstable_on_vine(vine, m)
        if cert is not None:
            log.debug("g=%d n=%d: %s obstructs with bidegree (%d,%d)",
                      g, n, vine, m, -m)
            return ExtendsResult(witness=vine, witness_bidegree=m,
                                 certificate=cert)
    raise JacstabError(
        "no obstructing vine found for a non-unit twist; "
        "classification criterion violated")
