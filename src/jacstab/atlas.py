"""Wall-and-chamber decomposition of the one-parameter vine stability space.

For a two-vertex graph the stability parameter is determined by the single
value x = phi(side 1), so the decomposition is an arrangement of points on a
line: the walls are exactly {m - e/2 : m integer}.  Each chamber carries the
(constant) table of stable sheaf data computed at its midpoint.

Walls and chamber tables depend on a vine only through its edge count e, so
an atlas lists walls and searches one chamber per edge count and translates
the rest (a chamber's table is its neighbour's moved by (1, -1)), and every
vine with that e shares the one ``WallSet`` and the one ``chambers`` tuple,
whose data live on the graph of the first such vine.  An atlas is built
serially in one process.  Its JSON is the bytes of ``json.dumps(indent=2)``,
written from fixed-shape format strings (a record with its vine header, a
chamber, a datum, a delta and its keys) rather than by ``json``, whose
pure-Python indent encoder would walk the shared chambers once per vine:
each distinct chamber block and datum is rendered once per call.
"""

from __future__ import annotations

import csv
import io
import logging
from dataclasses import dataclass
from fractions import Fraction
from itertools import groupby
from math import ceil, floor
from operator import attrgetter

from .errors import InvalidGraphError, PreconditionError
from .graph import MAX_NONFREE_EDGES, VineCurve, enumerate_vines
from .stability import SheafDatum, exact_rational, stable_sheaf_data, vine_phi

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


def chambers(vine: VineCurve, window: tuple[Fraction, Fraction],
             include_nonfree: bool = False) -> list[Chamber]:
    """Maximal open intervals between walls, each with its stable table."""
    return _chambers(vine, walls(vine, window), include_nonfree)


def _chambers(vine: VineCurve, wall_set: WallSet,
              include_nonfree: bool) -> list[Chamber]:
    """``chambers`` of ``vine`` between the walls ``wall_set`` lists.

    Only the first chamber is searched; every other table is that one
    translated.  The walls are the points m - e/2, so the chamber with
    representative ``rep`` has the label k = floor(rep + e/2), and
    consecutive chambers have consecutive labels.  On a vine both sides
    are crossed by all e edges, so delta = |S| on each.  Moving phi from
    (x, -x) to (x + t, -x - t) and D from (D1, D2) to (D1 + t, D2 - t)
    leaves deg - phi + delta/2 unchanged on either side, and the total
    D1 + D2 + |S| too; so, free or not, the stable set of label k0 + t is
    that of k0 with every (S, (D1, D2)) made (S, (D1 + t, D2 - t)).  The
    translate keeps the sort by ``F.key``: within one S, D2 = -|S| - D1.
    """
    lo, hi = wall_set.lo, wall_set.hi
    cuts = ([lo, *(w for w in wall_set.walls if lo < w < hi), hi]
            if lo < hi else [])
    half_e = Fraction(vine.e, 2)
    graph = vine.to_graph()
    out = []
    for t, (a, b) in enumerate(zip(cuts, cuts[1:])):
        rep = (a + b) / 2
        if t == 0:
            table = first = tuple(stable_sheaf_data(
                graph, vine_phi(vine, rep), 0, include_nonfree))
        else:
            table = tuple(SheafDatum._from_kernel(
                graph, F.mask, (F.degrees[0] + t, F.degrees[1] - t))
                for F in first)
        out.append(Chamber(a, b, rep, table,
                           a >= -half_e and b <= half_e))
    return out


def atlas(g: int, n: int, window: tuple[Fraction, Fraction],
          include_nonfree: bool = False, jobs: int = 1) -> list[AtlasRecord]:
    """Records for every vine of (g, n), in canonical vine order.

    Walls and stable tables depend on a vine only through e, so ``walls``
    and ``chambers`` run on the first vine of each edge count alone, and
    every vine with that count shares its ``WallSet``, ``chambers`` tuple
    and deltas: one chamber per edge count is searched and the rest are
    translated (see ``_chambers``), and likewise the first wall's delta,
    from key sets, is translated by t at the t-th wall after it.  The
    data live on that first vine's graph; every e-edge vine graph has
    vertex ids (0, 1) and edge order 0..e-1, so a datum's mask, degrees,
    ``S``, ``D`` and key hold on any vine with that e, and
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
        first = tuple(_chambers(group[0], shared, include_nonfree))
        deltas = ()
        if len(first) > 1:
            lk, rk = set(first[0].table_keys), set(first[1].table_keys)
            added, removed = sorted(rk - lk), sorted(lk - rk)
            deltas = tuple(tuple(tuple((S, (D1 + t, D2 - t))
                                       for S, (D1, D2) in keys)
                                 for keys in (added, removed))
                           for t in range(len(first) - 1))
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


def _at(depth: int, template: str) -> str:
    """An indent-2 ``template``, written as if it opened at depth 0,
    re-indented to open at ``depth`` in the document."""
    return template.replace("\n", "\n" + "  " * depth)


# Every atlas JSON value has a fixed shape, so each is one format string at
# the depth where it opens.  Fraction strings hold only digits, "-" and "/",
# so ``"%s"`` quotes them with nothing to escape.
_DATUM = _at(6, '{\n  "S": %s,\n  "D": %s\n}')
_CHAMBER = _at(4, '{\n  "lo": "%s",\n  "hi": "%s",\n  "representative": "%s",'
                  '\n  "is_small_perturbation": %s,\n  "stable_table": %s\n}')
_DELTA = _at(4, '{\n  "added": %s,\n  "removed": %s\n}')
_KEY = _at(6, '[\n  %s,\n  %s\n]')
# A record is its vine header and window, then its shared chamber block.
_RECORD = _at(2, '{\n  "g": %d,\n  "n": %d,\n  "vine": {\n    "g1": %d,'
                 '\n    "g2": %d,\n    "e": %d,\n    "S": %s\n  },'
                 '\n  "window": %s,\n  "walls": %s,\n  ')
_BLOCK = _at(2, '"chambers": %s,\n  "wall_crossing_deltas": %s\n}')


def _wrap(brackets: str, items, depth: int) -> str:
    """Rendered items between ``brackets`` that open at ``depth``."""
    pad = "\n" + "  " * depth
    body = ("," + pad + "  ").join(items)
    return (brackets[0] + pad + "  " + body + pad + brackets[1] if body
            else brackets)


def _ints(values, depth: int) -> str:
    """An indent-2 list of ints that opens at ``depth``."""
    return _wrap("[]", map(str, values), depth)


def _strs(values, depth: int) -> str:
    """An indent-2 list of strings needing no escapes, opening at ``depth``."""
    return _wrap("[]", ['"%s"' % v for v in values], depth)


def _chamber_block(record: AtlasRecord, data: dict, keys: dict) -> str:
    """The chambers and deltas members, each datum rendered once in ``data``
    and each delta key once in ``keys``."""
    chambers = []
    for c in record.chambers:
        table = []
        for F in c.stable_table:
            key = _datum_content(F)
            if key not in data:
                D = ['"%d": %d' % vd for vd in zip(F.graph.vertex_ids,
                                                   F.degrees)]
                data[key] = _DATUM % (_ints(F.key[0], 7), _wrap("{}", D, 7))
            table.append(data[key])
        chambers.append(_CHAMBER % (
            c.lo, c.hi, c.representative,
            "true" if c.is_small_perturbation else "false",
            _wrap("[]", table, 5)))
    for added, removed in record.deltas:
        for key in added + removed:
            if key not in keys:
                keys[key] = _KEY % (_ints(key[0], 7), _ints(key[1], 7))
    deltas = [_DELTA % tuple(_wrap("[]", [keys[k] for k in side], 5)
                             for side in delta) for delta in record.deltas]
    return _BLOCK % (_wrap("[]", chambers, 3), _wrap("[]", deltas, 3))


def atlas_to_json(records: list[AtlasRecord]) -> str:
    """``json.dumps({"g", "n", "records": [...]}, indent=2)`` plus a
    newline, from fixed-shape templates: ``json`` with ``indent`` set runs
    its pure-Python encoder, which would render a shared chamber again for
    every vine.  A record is its vine header and window, from one format
    string, then its chamber block.  Each distinct chamber block is
    rendered once per call, keyed on the identity of the record's
    ``chambers`` and ``deltas`` tuples (every record is alive for the whole
    call, so equal ids mean the same immutable objects); each distinct datum
    in them is rendered once, keyed on plain-int content, each delta key
    once, keyed on its ``(S, D)`` tuple, and each ``WallSet`` once, keyed
    on its identity.
    """
    if not records:
        return '{\n  "records": []\n}\n'
    windows, blocks, data, keys = {}, {}, {}, {}
    parts = ['{\n  "g": %d,\n  "n": %d,\n  "records": [\n    '
             % (records[0].vine.g, records[0].vine.n)]
    for r in records:
        ws = r.wall_set  # immutable, so its identity keys its own rendering
        if id(ws) not in windows:
            windows[id(ws)] = (_strs((ws.lo, ws.hi), 3), _strs(ws.walls, 3))
        key = (id(r.chambers), id(r.deltas))
        block = blocks.get(key)
        if block is None:
            block = blocks[key] = _chamber_block(r, data, keys)
        v = r.vine
        parts += (_RECORD % (v.g, v.n, v.g1, v.g2, v.e, _ints(v.S, 4),
                             *windows[id(ws)]), block, ",\n    ")
    parts[-1] = "\n  ]\n}\n"
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

