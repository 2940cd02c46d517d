"""Dual graphs of stable pointed curves and their subcurve combinatorics.

A dual graph has one vertex per irreducible component (weighted by its
geometric genus ``h``), one edge per node (loops and parallel edges allowed)
and an assignment of the markings ``{1..n}`` to vertices.  Vine curves are
the two-vertex dual graphs; they are the decisive test objects for the
Abel-Jacobi extension question.
"""

from __future__ import annotations

import json
from collections import Counter
from collections.abc import Iterator
from dataclasses import dataclass
from functools import cached_property
from itertools import combinations
from operator import attrgetter

from .errors import InvalidGraphError, PreconditionError

# Most vertices whose 2^V - 2 subcurves DualGraph.subcurve_data enumerates.
MAX_SUBCURVE_VERTICES = 16
# Most edges whose 2^E subsets a non-free stable_sheaf_data search enumerates.
MAX_NONFREE_EDGES = 16
# Most (e, g1, side-1 marking set) triples one enumerate_vines pass visits,
# bounded by (g + 1)^2 * 2^n.
MAX_VINE_CANDIDATES = 1 << 22


def _connected(num_vertices: int, ends) -> bool:
    """Union-find over vertices 0..num_vertices-1; False for no vertices."""
    parent = list(range(num_vertices))

    def find(x):
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    for a, b in ends:
        parent[find(a)] = find(b)
    return len({find(v) for v in range(num_vertices)}) == 1


def _side_stable(h: int, e: int, marks: int) -> bool:
    return 2 * h - 2 + e + marks > 0


@dataclass(frozen=True)
class Vertex:
    id: int
    h: int
    markings: frozenset[int]


@dataclass(frozen=True)
class Edge:
    id: int
    ends: tuple[int, int]

    @property
    def is_loop(self) -> bool:
        return self.ends[0] == self.ends[1]


class _SubcurveData:
    """Precomputed incidence data for one subcurve (internal); immutable by
    convention.

    ``prefix`` indexes the same subcurve without its last vertex, an earlier
    entry of ``DualGraph.subcurve_data`` (-1 for a singleton), and ``last``
    is that vertex's position in ``DualGraph.vertex_ids``, so a per-subcurve
    sum is one addition.  Bit ``i`` of an edge mask is ``edge_order[i]``.
    The stability kernel reads them from ``DualGraph.subcurve_rows``.
    """

    __slots__ = ("vertices", "prefix", "last", "cr", "crossing_mask",
                 "internal_mask")

    def __init__(self, vertices, prefix, last, crossing_mask, internal_mask):
        self.vertices: tuple[int, ...] = vertices
        self.prefix = prefix
        self.last = last
        self.cr = crossing_mask.bit_count()   # number of crossing edges
        self.crossing_mask = crossing_mask    # exactly one endpoint inside
        self.internal_mask = internal_mask    # both endpoints inside, loops incl.

    @property
    def vertex_set(self) -> frozenset[int]:
        return frozenset(self.vertices)


class DualGraph:
    """Vertex-weighted multigraph with markings; immutable by convention.

    Equality and hashing are by identity: objects derived from a graph
    (phi vectors, sheaf data) must reference the same instance.
    """

    def __init__(self, vertices, edges, n, g=None):
        self.vertices: tuple[Vertex, ...] = tuple(
            v if isinstance(v, Vertex) else Vertex(v[0], v[1], frozenset(v[2]))
            for v in vertices
        )
        self.edges: tuple[Edge, ...] = tuple(edges)
        # multidegree tuples follow vertex_ids, and bit i of an edge mask
        # stands for edge_order[i]; both are sorted
        self.vertex_ids: tuple[int, ...] = tuple(
            sorted(v.id for v in self.vertices))
        self.edge_order: tuple[int, ...] = tuple(
            sorted([e.id for e in self.edges]))
        self.n = int(n)
        if g is None:
            g = sum(v.h for v in self.vertices) + len(self.edges) - len(self.vertices) + 1
        self.g = int(g)

    def __repr__(self):
        return "DualGraph(g=%d, n=%d, V=%d, E=%d)" % (
            self.g, self.n, len(self.vertices), len(self.edges))

    @classmethod
    def build(cls, vertices, edge_ends, n, g=None) -> "DualGraph":
        """Build from (id, h, markings) triples and a list of end pairs.

        Edge ids are assigned 0, 1, ... in input order.
        """
        edges = [Edge(i, (min(vw), max(vw))) for i, vw in enumerate(edge_ends)]
        return cls(vertices, edges, n, g)

    @cached_property
    def _valences(self) -> Counter:
        return Counter(vid for e in self.edges for vid in e.ends)

    def valence(self, vid: int) -> int:
        """Number of edge ends at the vertex; a loop counts twice."""
        return self._valences[vid]

    def is_connected(self) -> bool:
        """False for no vertices or a repeated id; ignores unknown ends."""
        index = {vid: i for i, vid in enumerate(self.vertex_ids)}
        return _connected(len(self.vertices), [
            (index[a], index[b]) for a, b in (e.ends for e in self.edges)
            if a in index and b in index])

    @cached_property
    def subcurve_data(self) -> tuple[_SubcurveData, ...]:
        """Incidence data for all nonempty proper vertex subsets.

        Deterministic order: by subset size, then by sorted vertex tuple, so
        the singletons come first, every ``prefix`` points back, and the
        first half holds one subcurve of each complementary pair.  An
        entry's edge masks, like any sum over it, take one step from its
        prefix's and its last vertex's.  This is the structural chokepoint
        of every subcurve test: it raises :class:`InvalidGraphError` above
        ``MAX_SUBCURVE_VERTICES``, for no vertices, repeated vertex or edge
        ids, an edge with an unknown end, and a disconnected graph.  Vertex
        stability and the genus formula are not enforced here;
        :func:`validate` reports them.
        """
        ids = self.vertex_ids
        nv = len(ids)
        if nv > MAX_SUBCURVE_VERTICES:
            raise InvalidGraphError("%d vertices, subcurve limit is %d"
                                    % (nv, MAX_SUBCURVE_VERTICES))
        _refuse_structural_faults(self)
        # per vertex, the mask of edges whose first (second) end it is; over
        # a subcurve, internal = first & second and crossing = first ^ second
        first = dict.fromkeys(ids, 0)
        second = first.copy()
        for bit, e in enumerate(sorted(self.edges, key=attrgetter("id"))):
            a, b = e.ends
            first[a] |= 1 << bit
            second[b] |= 1 << bit
        # by position; a vertex joining a subcurve turns the crossing edges at
        # it internal and its other non-loop edges (touch) crossing.  out grows
        # as it is read, so entries come breadth first: lexicographic by size
        touch = [first[v] ^ second[v] for v in ids]
        loops = [first[v] & second[v] for v in ids]
        out = [_SubcurveData((vid,), -1, i, touch[i], loops[i])
               for i, vid in enumerate(ids)] if nv > 1 else []
        for prefix, p in enumerate(out):
            if len(p.vertices) == nv - 1:
                break
            for last in range(p.last + 1, nv):
                cross, t = p.crossing_mask, touch[last]
                out.append(_SubcurveData(
                    p.vertices + (ids[last],), prefix, last, cross ^ t,
                    p.internal_mask | cross & t | loops[last]))
        if not all(info.crossing_mask for info in out):
            raise InvalidGraphError("graph not connected")
        return tuple(out)

    @cached_property
    def subcurve_rows(self) -> tuple[tuple[int, int, int, int, int, int], ...]:
        """:attr:`subcurve_data` as one plain tuple ``(i, prefix, last,
        internal_mask, crossing_mask, cr)`` per entry: CPython unpacks an
        exact tuple faster than a tuple subclass or attribute reads."""
        return tuple((i, info.prefix, info.last, info.internal_mask,
                      info.crossing_mask, info.cr)
                     for i, info in enumerate(self.subcurve_data))


def _structural_faults(graph: DualGraph) -> list[str]:
    """Repeated vertex or edge ids and edges with an unknown end, in that
    order: :func:`validate` lists them and :attr:`DualGraph.subcurve_data`
    raises the first."""
    faults = []
    ids = graph.vertex_ids
    if len(set(ids)) != len(ids):
        faults.append("duplicate vertex ids")
    eids = graph.edge_order
    if len(set(eids)) != len(eids):
        faults.append("duplicate edge ids")
    known = set(ids)
    faults.extend("edge %d references unknown vertex" % e.id
                  for e in graph.edges
                  if e.ends[0] not in known or e.ends[1] not in known)
    return faults


def _refuse_structural_faults(graph: DualGraph) -> None:
    """Raise :class:`InvalidGraphError` for no vertices or, else, the first
    of :func:`_structural_faults`."""
    if not graph.vertices:
        raise InvalidGraphError("graph has no vertices")
    faults = _structural_faults(graph)
    if faults:
        raise InvalidGraphError(faults[0])


def validate(graph: DualGraph) -> list[str]:
    """Check all DualGraph invariants; return one diagnostic per violation."""
    diags = _structural_faults(graph)
    if not graph.is_connected():
        diags.append("graph not connected")
    seen_marks = []
    for v in graph.vertices:
        seen_marks.extend(v.markings)
    if sorted(seen_marks) != list(range(1, graph.n + 1)):
        diags.append("marking partition violated")
    total_h = sum(v.h for v in graph.vertices)
    if graph.g != total_h + len(graph.edges) - len(graph.vertices) + 1:
        diags.append("genus formula violated")
    for v in graph.vertices:
        if not _side_stable(v.h, graph.valence(v.id), len(v.markings)):
            diags.append("vertex instability at vertex %d" % v.id)
        if v.h < 0:
            diags.append("negative genus at vertex %d" % v.id)
    if graph.g < 1:
        diags.append("total genus below 1")
    if graph.n < 1:
        diags.append("fewer than 1 marking")
    return diags


@dataclass(frozen=True, order=True)
class VineCurve:
    """Two smooth components of genera g1, g2 meeting in e nodes.

    Stored in canonical orientation: (g1, sorted side-1 markings) is
    lexicographically <= (g2, sorted side-2 markings).  ``S`` holds the
    markings on side 1.  The total genus ``g`` is not stored: the fields
    fix it as ``g1 + g2 + e - 1``.
    """

    e: int
    g1: int
    S: tuple[int, ...]
    g2: int
    n: int

    @property
    def g(self) -> int:
        return self.g1 + self.g2 + self.e - 1

    @property
    def side2_markings(self) -> tuple[int, ...]:
        return tuple(sorted(set(range(1, self.n + 1)) - set(self.S)))

    def to_graph(self) -> DualGraph:
        """Two-vertex dual graph: vertex 0 is side 1, vertex 1 is side 2.
        Built once per instance, so all phis and data on the vine share it."""
        graph = self.__dict__.get("_graph")
        if graph is None:
            graph = DualGraph.build(
                [(0, self.g1, self.S), (1, self.g2, self.side2_markings)],
                [(0, 1)] * self.e,
                self.n,
                self.g,
            )
            object.__setattr__(self, "_graph", graph)
        return graph

    def __str__(self):
        return "vine(g1=%d, g2=%d, e=%d, S={%s})" % (
            self.g1, self.g2, self.e, ",".join(map(str, self.S)))


def vine_to_dict(vine: VineCurve) -> dict:
    return {"g1": vine.g1, "g2": vine.g2, "e": vine.e, "S": list(vine.S)}


def make_vine(g1: int, g2: int, e: int, S, n: int) -> VineCurve:
    """Construct a vine in canonical orientation (sides swapped if needed)."""
    s1 = tuple(sorted(S))
    s2 = tuple(sorted(set(range(1, n + 1)) - set(s1)))
    if (g1, s1) <= (g2, s2):
        return VineCurve(e, g1, s1, g2, n)
    return VineCurve(e, g2, s2, g1, n)


def iter_vines(g: int, n: int, min_edges: int) -> Iterator[VineCurve]:
    """All canonical vines with e >= min_edges for fixed (g, n), built one at
    a time as they are read, so a reader that stops early builds no more.

    Finite because g1 + g2 + e - 1 = g forces e <= g + 1.  Both sides must
    satisfy the vertex stability inequality.  One orderly pass over the
    sorted side-1 marking sets S, with ``n - len(S)`` markings on side 2.
    As ``g1 <= g2``, only equal genera test the orientation
    ``S <= complement(S)``, which holds iff S is empty, or starts with 1
    and is not all of ``1..n``; so the walk is already in ``(e, g1, S)``
    order with no duplicates to remove.  The arguments are checked when
    this is called, not when the walk starts: it raises
    :class:`PreconditionError` when the pass would visit more than
    ``MAX_VINE_CANDIDATES`` triples, bounded by ``(g + 1)^2 * 2^n``.
    """
    if g < 1 or n < 1 or min_edges < 1:
        raise ValueError("require g >= 1, n >= 1, min_edges >= 1")
    # 2^n alone exceeds the limit for n > 22; testing that first never
    # builds 2^n for a huge n
    if n > 22 or (g + 1) ** 2 << n > MAX_VINE_CANDIDATES:
        raise PreconditionError(
            "vines of g=%d, n=%d: (g + 1)^2 * 2^n candidates exceed the "
            "limit %d" % (g, n, MAX_VINE_CANDIDATES))
    marks = range(1, n + 1)
    sides = sorted(s for size in range(n + 1)
                   for s in combinations(marks, size))
    return (VineCurve(e, g1, s1, g2, n)
            for e in range(min_edges, g + 2)
            for g1 in range(0, (g - e + 1) // 2 + 1)
            for g2 in (g - e + 1 - g1,)
            for s1 in sides
            if (g1 < g2 or not s1 or s1[0] == 1 and len(s1) < n)
            and _side_stable(g1, e, len(s1))
            and _side_stable(g2, e, n - len(s1)))


def enumerate_vines(g: int, n: int, min_edges: int) -> list[VineCurve]:
    """The whole :func:`iter_vines` walk as a list, for readers that read it
    more than once; raises what it raises."""
    return list(iter_vines(g, n, min_edges))


def spanning_tree_count(graph: DualGraph) -> int:
    """Number of spanning trees of the underlying multigraph, loops ignored.

    Matrix-tree theorem: the reduced Laplacian's determinant by fraction-free
    Bareiss elimination (Bareiss 1968), every division exact.  That matrix is
    positive definite for a connected graph, so no pivot is zero.  A broken
    or disconnected graph is refused as :attr:`DualGraph.subcurve_data` does.
    """
    _refuse_structural_faults(graph)
    if not graph.is_connected():
        raise InvalidGraphError("graph not connected")
    nv = len(graph.vertices)
    if nv == 1:
        return 1
    index = {vid: i for i, vid in enumerate(graph.vertex_ids)}
    lap = [[0] * nv for _ in range(nv)]
    for e in graph.edges:
        if e.is_loop:
            continue
        a, b = index[e.ends[0]], index[e.ends[1]]
        lap[a][a] += 1
        lap[b][b] += 1
        lap[a][b] -= 1
        lap[b][a] -= 1
    m = [row[1:] for row in lap[1:]]
    prev = 1
    for k in range(nv - 2):
        for i in range(k + 1, nv - 1):
            for j in range(k + 1, nv - 1):
                m[i][j] = (m[i][j] * m[k][k] - m[i][k] * m[k][j]) // prev
        prev = m[k][k]
    return m[-1][-1]


# --- JSON schema -----------------------------------------------------------
#
# {"genus": g, "n": n,
#  "vertices": [{"id": .., "h": .., "markings": [..]}],
#  "edges": [{"id": .., "ends": [v, w]}]}

def graph_to_dict(graph: DualGraph) -> dict:
    return {
        "genus": graph.g,
        "n": graph.n,
        "vertices": [
            {"id": v.id, "h": v.h, "markings": sorted(v.markings)}
            for v in graph.vertices
        ],
        "edges": [{"id": e.id, "ends": list(e.ends)} for e in graph.edges],
    }


def _json_int(value, what: str, doc: str = "graph",
              error=InvalidGraphError) -> int:
    # bool is an int subclass, but JSON true is not an id or a genus
    if type(value) is not int:
        raise error("malformed %s JSON: %s must be an integer, got %r"
                    % (doc, what, value))
    return value


def graph_from_dict(data: dict) -> DualGraph:
    """The graph of a JSON dict; :class:`InvalidGraphError` for a missing
    key, a wrong container, an id, ``h``, ``n``, ``genus``, marking or edge
    end that is not an integer, or a marking listed twice on one vertex.
    Structure is checked by :func:`validate`."""
    try:
        vertices = []
        for v in data["vertices"]:
            vid, h = _json_int(v["id"], "vertex id"), _json_int(v["h"], "h")
            marks = [_json_int(m, "marking") for m in v["markings"]]
            if len(set(marks)) != len(marks):
                raise InvalidGraphError("malformed graph JSON: vertex %d lists"
                                        " a marking twice: %r" % (vid, marks))
            vertices.append(Vertex(vid, h, frozenset(marks)))
        edges = []
        for e in data["edges"]:
            ends = [_json_int(x, "edge end") for x in e["ends"]]
            if len(ends) != 2:
                raise InvalidGraphError("malformed graph JSON: edge ends must"
                                        " be two vertex ids, got %r" % ends)
            edges.append(Edge(_json_int(e["id"], "edge id"),
                              (min(ends), max(ends))))
        return DualGraph(vertices, edges, _json_int(data["n"], "n"),
                         _json_int(data["genus"], "genus"))
    except (KeyError, TypeError, ValueError) as exc:
        raise InvalidGraphError("malformed graph JSON: %s" % exc) from exc


def graph_to_json(graph: DualGraph) -> str:
    return json.dumps(graph_to_dict(graph), indent=2)
