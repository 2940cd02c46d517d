"""Wall-and-chamber decomposition of the one-parameter vine stability space.

For a two-vertex graph the stability parameter is determined by the single
value x = phi(side 1), so the decomposition is an arrangement of points on a
line: the walls are exactly {m - e/2 : m integer}.  Each chamber carries the
(constant) table of stable sheaf data computed at its midpoint.

Walls and chamber tables depend on a vine only through its edge count e, so
an atlas lists walls and searches chambers once per edge count, and every
vine with that e shares the one ``WallSet`` and the one ``chambers`` tuple,
whose data live on the graph of the first such vine.  An atlas is built
serially in one process.  Its JSON comes from one indent-2 writer, not
``json.dumps(indent=2)`` per record, which would run CPython's pure-Python
encoder over the shared chambers once per vine: each distinct chamber block
and datum is rendered once per call.
"""

from __future__ import annotations

import csv
import io
import json
import logging
from dataclasses import dataclass
from fractions import Fraction
from itertools import groupby
from math import ceil, floor
from operator import attrgetter

from .errors import InvalidGraphError, PreconditionError
from .graph import MAX_NONFREE_EDGES, VineCurve, enumerate_vines, vine_to_dict
from .stability import (PhiVector, SheafDatum, datum_to_dict, exact_rational,
                        stable_sheaf_data)

log = logging.getLogger(__name__)

# Most walls one window may hold on a vine.
MAX_WALLS = 1 << 12


@dataclass(frozen=True)
class WallSet:
    lo: Fraction
    hi: Fraction
    walls: tuple[Fraction, ...]


@dataclass(frozen=True)
class Chamber:
    lo: Fraction
    hi: Fraction
    representative: Fraction
    stable_table: tuple[SheafDatum, ...]
    is_small_perturbation: bool

    @property
    def table_keys(self) -> tuple[tuple, ...]:
        return tuple(F.key for F in self.stable_table)


@dataclass(frozen=True)
class AtlasRecord:
    """One vine with the walls, chambers and deltas it shares with its e."""

    vine: VineCurve
    wall_set: WallSet
    chambers: tuple[Chamber, ...]
    # one (added, removed) pair of datum keys per interior wall
    deltas: tuple[tuple[tuple, tuple], ...]


def walls(vine: VineCurve, window: tuple[Fraction, Fraction]) -> WallSet:
    """Wall positions x with x + e/2 integral, inside the closed window.

    Raises :class:`PreconditionError`, before listing any, when the window
    holds more than ``MAX_WALLS`` of them.
    """
    lo, hi = exact_rational(window[0]), exact_rational(window[1])
    if lo > hi:
        raise ValueError("window lo must be <= hi")
    half_e = Fraction(vine.e, 2)
    first, last = ceil(lo + half_e), floor(hi + half_e)
    if last - first + 1 > MAX_WALLS:
        raise PreconditionError("window [%s, %s] holds %d walls of %s, "
                                "limit is %d" % (lo, hi, last - first + 1,
                                                  vine, MAX_WALLS))
    positions = [Fraction(m) - half_e for m in range(first, last + 1)]
    return WallSet(lo, hi, tuple(positions))


def vine_phi(vine: VineCurve, x: Fraction) -> PhiVector:
    """phi = (x, -x) on the vine's graph, with the ``q`` and numerators of
    ``PhiVector(graph, {0: x, 1: -x})``."""
    x = exact_rational(x)
    return PhiVector._from_numerators(vine.to_graph(), x.denominator,
                                      {0: x.numerator, 1: -x.numerator})


def chambers(vine: VineCurve, window: tuple[Fraction, Fraction],
             include_nonfree: bool = False) -> list[Chamber]:
    """Maximal open intervals between walls, each with its stable table."""
    wall_set = walls(vine, window)
    lo, hi = wall_set.lo, wall_set.hi
    cuts = sorted({lo, hi} | {w for w in wall_set.walls if lo < w < hi})
    out = []
    for a, b in zip(cuts, cuts[1:]):
        rep = (a + b) / 2
        phi = vine_phi(vine, rep)
        table = tuple(stable_sheaf_data(phi.graph, phi, 0, include_nonfree))
        half_e = Fraction(vine.e, 2)
        out.append(Chamber(a, b, rep, table,
                           a >= -half_e and b <= half_e))
    return out


def atlas(g: int, n: int, window: tuple[Fraction, Fraction],
          include_nonfree: bool = False, jobs: int = 1) -> list[AtlasRecord]:
    """Records for every vine of (g, n), in canonical vine order.

    Walls and stable tables depend on a vine only through e, so ``walls``
    and ``chambers`` run on the first vine of each edge count alone, and
    every vine with that count shares its ``WallSet``, ``chambers`` tuple
    and deltas.  The data live on that first vine's graph; every e-edge
    vine graph has vertex ids (0, 1) and edge order 0..e-1, so a datum's
    mask, degrees, ``S``, ``D`` and key hold on any vine with that e, and
    ``SheafDatum(vine.to_graph(), F.S, F.D)`` rebuilds ``F`` on ``vine``'s
    own graph.  Runs serially: ``jobs`` has no effect.
    """
    if g < 1 or n < 1:
        raise ValueError("require g >= 1 and n >= 1")
    vines = enumerate_vines(g, n, 1)
    if include_nonfree and vines and vines[-1].e > MAX_NONFREE_EDGES:
        # fail before the smaller edge counts are searched
        raise InvalidGraphError("%s: %d edges, non-free limit is %d"
                                % (vines[-1], vines[-1].e, MAX_NONFREE_EDGES))
    window = (exact_rational(window[0]), exact_rational(window[1]))
    groups = [list(group) for _, group in groupby(vines, key=attrgetter("e"))]
    log.debug("atlas g=%d n=%d: %d vines, %d chamber searches",
              g, n, len(vines), len(groups))
    records = []
    for group in groups:
        shared = walls(group[0], window)
        first = tuple(chambers(group[0], window, include_nonfree))
        deltas = []
        for left, right in zip(first, first[1:]):
            lk, rk = set(left.table_keys), set(right.table_keys)
            deltas.append((tuple(sorted(rk - lk)), tuple(sorted(lk - rk))))
        deltas = tuple(deltas)
        records += (AtlasRecord(vine, shared, first, deltas)
                    for vine in group)
    return records


# --- serialization ---------------------------------------------------------

def table_string(chamber: Chamber) -> str:
    """Canonical compact rendering of a stable table, e.g. ``(0,0) (1,-1)``.

    Non-free data carry their edge set: ``S{0,2}(0,-1)``.
    """
    parts = []
    for F in chamber.stable_table:
        s, degs = F.key
        deg_str = "(%s)" % ",".join(str(d) for d in degs)
        parts.append(deg_str if not s else
                     "S{%s}%s" % (",".join(map(str, s)), deg_str))
    return " ".join(parts)


# A datum's rendering depends on these plain ints alone.
_datum_content = attrgetter("mask", "degrees", "graph.edge_order",
                            "graph.vertex_ids")


def _dump(value, depth: int) -> str:
    """``json.dumps(value, indent=2)`` of a list, dict, str, bool or int,
    as it reads where the value opens at ``depth`` in a document."""
    if isinstance(value, list):
        return _wrap("[]", [_dump(v, depth + 1) for v in value], depth)
    if isinstance(value, dict):
        return _wrap("{}", _fields(value, depth + 1), depth)
    if isinstance(value, str):
        return json.encoder.encode_basestring_ascii(value)
    if isinstance(value, bool):
        return "true" if value else "false"
    return int.__repr__(value)  # a TypeError for any other type


def _fields(fields: dict, depth: int) -> list[str]:
    """The ``"key": value`` members of a dict, rendered at ``depth``."""
    return ["%s: %s" % (json.encoder.encode_basestring_ascii(k),
                        _dump(v, depth)) for k, v in fields.items()]


def _wrap(brackets: str, items: list[str], depth: int) -> str:
    """Rendered items between ``brackets`` that open at ``depth``."""
    if not items:
        return brackets
    pad = "\n" + "  " * depth
    return (brackets[0] + pad + "  " + ("," + pad + "  ").join(items)
            + pad + brackets[1])


def _chamber_block(record: AtlasRecord, data: dict) -> str:
    """The chambers and deltas members, each datum rendered once in ``data``."""
    chambers = []
    for c in record.chambers:
        table = []
        for F in c.stable_table:
            key = _datum_content(F)
            if key not in data:
                data[key] = _dump(datum_to_dict(F), 6)
            table.append(data[key])
        chambers.append(_wrap("{}", _fields({
            "lo": str(c.lo), "hi": str(c.hi),
            "representative": str(c.representative),
            "is_small_perturbation": c.is_small_perturbation,
        }, 5) + ['"stable_table": ' + _wrap("[]", table, 5)], 4))
    deltas = [{"added": [list(map(list, k)) for k in added],
               "removed": [list(map(list, k)) for k in removed]}
              for added, removed in record.deltas]
    return '"chambers": %s,\n      "wall_crossing_deltas": %s' % (
        _wrap("[]", chambers, 3), _dump(deltas, 3))


def atlas_to_json(records: list[AtlasRecord]) -> str:
    """``json.dumps({"g", "n", "records": [...]}, indent=2)`` plus a
    newline, from one indent-2 writer: ``json`` with ``indent`` set runs
    its pure-Python encoder, which would render a shared chamber again for
    every vine.  Each distinct chamber block is rendered once per call,
    keyed on the identity of the record's ``chambers`` and ``deltas``
    tuples (every record is alive for the whole call, so equal ids mean the
    same immutable objects); each distinct datum in them is rendered once,
    keyed on plain-int content.  A record adds its vine header and one
    splice into the one document string.
    """
    if not records:
        return _dump({"records": []}, 0) + "\n"
    windows, blocks, data = {}, {}, {}
    parts = ['{\n  "g": %d,\n  "n": %d,\n  "records": [\n    '
             % (records[0].vine.g, records[0].vine.n)]
    for r in records:
        ws = r.wall_set  # immutable, so its identity keys its own rendering
        if id(ws) not in windows:
            windows[id(ws)] = _fields({"window": [str(ws.lo), str(ws.hi)],
                                       "walls": [str(w) for w in ws.walls]}, 3)
        key = (id(r.chambers), id(r.deltas))
        block = blocks.get(key)
        if block is None:
            block = blocks[key] = _chamber_block(r, data)
        head = _fields({"g": r.vine.g, "n": r.vine.n,
                        "vine": vine_to_dict(r.vine)}, 3) + windows[id(ws)]
        parts += ("{\n      ", ",\n      ".join(head), ",\n      ", block,
                  "\n    },\n    ")
    parts[-1] = "\n    }\n  ]\n}\n"
    return "".join(parts)


CSV_COLUMNS = ["g", "n", "g1", "g2", "e", "S", "chamber_lo", "chamber_hi",
               "is_small_perturbation", "table"]


def atlas_to_csv(records: list[AtlasRecord]) -> str:
    """One row per chamber of each record; each distinct chamber's columns
    are rendered once per call, keyed on its identity as in the JSON."""
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(CSV_COLUMNS)
    columns = {}
    for r in records:
        vine = [r.vine.g, r.vine.n, r.vine.g1, r.vine.g2, r.vine.e,
                ";".join(map(str, r.vine.S))]
        for c in r.chambers:
            if id(c) not in columns:
                columns[id(c)] = [str(c.lo), str(c.hi),
                                  int(c.is_small_perturbation),
                                  table_string(c)]
            writer.writerow(vine + columns[id(c)])
    return buf.getvalue()

