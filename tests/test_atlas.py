import concurrent.futures
import hashlib
import itertools
import json
import time
from dataclasses import replace
from fractions import Fraction

import pytest
from oracles import (atlas_json_reference, reference_chambers,
                     vine_stable_keys)

from jacstab.atlas import (
    MAX_WALLS,
    atlas,
    atlas_to_csv,
    atlas_to_json,
    chambers,
    table_string,
    vine_phi,
    walls,
)
from jacstab.errors import InvalidGraphError, PreconditionError
from jacstab.graph import (MAX_NONFREE_EDGES, DualGraph, enumerate_vines,
                           make_vine, vine_to_dict)
from jacstab.stability import SheafDatum, datum_to_dict, stable_sheaf_data


def vine(e, g1=0, g2=1, marks=(1,), n=1):
    return make_vine(g1, g2, e, marks, n)


class TestWalls:
    def test_e2_integer_walls(self):
        w = walls(vine(2), (Fraction(-2), Fraction(2)))
        assert w.walls == tuple(Fraction(m) for m in range(-2, 3))

    def test_e1_half_integer_walls(self):
        w = walls(vine(1, g2=2), (Fraction(-1), Fraction(1)))
        assert w.walls == (Fraction(-1, 2), Fraction(1, 2))

    def test_e3_window(self):
        w = walls(vine(3, g2=0), (Fraction(0), Fraction(2)))
        assert w.walls == (Fraction(1, 2), Fraction(3, 2))

    def test_window_endpoints_included(self):
        w = walls(vine(2), (Fraction(0), Fraction(1)))
        assert w.walls == (Fraction(0), Fraction(1))

    def test_bad_window(self):
        with pytest.raises(ValueError):
            walls(vine(2), (Fraction(1), Fraction(0)))

    def test_float_window_rejected(self):
        with pytest.raises(PreconditionError):
            walls(vine(2), (-0.5, 1))

    def test_wall_ceiling_is_exact(self):
        # e = 2: the walls are the integers of the window
        assert len(walls(vine(2), (0, MAX_WALLS - 1)).walls) == MAX_WALLS
        with pytest.raises(PreconditionError, match="holds %d walls"
                           % (MAX_WALLS + 1)):
            walls(vine(2), (0, MAX_WALLS))

    def test_huge_window_refused_before_any_search(self, monkeypatch):
        def search(*args, **kwargs):
            raise AssertionError("searched a chamber")

        monkeypatch.setitem(chambers.__globals__, "stable_sheaf_data", search)
        window = (Fraction(-10 ** 9), Fraction(10 ** 9))
        start = time.monotonic()
        for call in (lambda: walls(vine(1), window),
                     lambda: chambers(vine(2), window),
                     lambda: atlas(2, 1, window)):
            with pytest.raises(PreconditionError, match="limit is %d"
                               % MAX_WALLS):
                call()
        assert time.monotonic() - start < 1


class TestChambers:
    def test_e2_tables(self):
        chs = chambers(vine(2), (Fraction(-1), Fraction(1)))
        assert len(chs) == 2
        assert chs[0].table_keys == (
            (tuple(), (-1, 1)), (tuple(), (0, 0)))
        assert chs[1].table_keys == (
            (tuple(), (0, 0)), (tuple(), (1, -1)))
        assert all(c.is_small_perturbation for c in chs)

    def test_e1_unique_table(self):
        chs = chambers(vine(1, g2=2), (Fraction(-1, 2), Fraction(1, 2)))
        assert len(chs) == 1
        assert chs[0].table_keys == ((tuple(), (0, 0)),)

    def test_e3_three_chambers_three_bidegrees(self):
        v = vine(3, g2=0)
        chs = chambers(v, (Fraction(-3, 2), Fraction(3, 2)))
        assert len(chs) == 3
        for c in chs:
            assert len(c.stable_table) == 3

    def test_table_constant_within_chamber(self):
        v = vine(3, g2=0)
        graph = v.to_graph()
        for c in chambers(v, (Fraction(-3, 2), Fraction(3, 2))):
            for x in (c.representative, c.lo + (c.hi - c.lo) / 4,
                      c.hi - (c.hi - c.lo) / 4):
                table = tuple(stable_sheaf_data(graph, vine_phi(v, x), 0))
                assert tuple(F.key for F in table) == c.table_keys

    def test_small_perturbation_flag(self):
        # exactly e chambers inside (-e/2, e/2), and (0,0) in each of them
        for v in enumerate_vines(3, 1, 2):
            chs = chambers(v, (Fraction(-v.e, 2) - 1, Fraction(v.e, 2) + 1))
            small = [c for c in chs if c.is_small_perturbation]
            assert len(small) == v.e
            for c in chs:
                has_origin = (tuple(), (0, 0)) in c.table_keys
                assert has_origin == c.is_small_perturbation

    def test_empty_window(self):
        assert chambers(vine(2), (Fraction(0), Fraction(0))) == []

    def test_mirror_symmetry(self):
        # unmarked-symmetric vine: tables at x and -x are sign-flipped
        v = make_vine(1, 1, 2, (1,), 1)
        chs = chambers(v, (Fraction(-1), Fraction(1)))
        left = [tuple((s, tuple(-d for d in degs)) for s, degs in c.table_keys)
                for c in chs]
        right = [c.table_keys for c in reversed(chs)]
        assert [sorted(t) for t in left] == [sorted(t) for t in right]


class TestAtlas:
    def test_one_record_per_vine(self):
        records = atlas(2, 1, (Fraction(-1), Fraction(1)))
        assert [r.vine for r in records] == enumerate_vines(2, 1, 1)

    def test_wall_crossing_deltas_nonempty(self):
        for r in atlas(2, 1, (Fraction(-2), Fraction(2))):
            for added, removed in r.deltas:
                assert added or removed

    def test_jobs_do_not_change_output(self):
        window = (Fraction(-2), Fraction(2))
        assert atlas_to_json(atlas(3, 1, window)) == \
            atlas_to_json(atlas(3, 1, window, jobs=4))

    def test_jobs_do_not_change_nonfree_output(self):
        window = (Fraction(-2), Fraction(2))
        assert atlas_to_json(atlas(4, 2, window, True)) == \
            atlas_to_json(atlas(4, 2, window, True, jobs=2))

    def test_jobs_start_no_process_pool(self, monkeypatch):
        def refuse(self, *args, **kwargs):
            raise AssertionError("atlas started a process pool")

        window = (Fraction(-2), Fraction(2))
        serial = atlas_to_json(atlas(4, 2, window, True, jobs=1))
        monkeypatch.setattr(concurrent.futures.ProcessPoolExecutor,
                            "__init__", refuse)
        assert atlas_to_json(atlas(4, 2, window, True, jobs=4)) == serial

    @pytest.mark.parametrize("nonfree", [False, True])
    def test_records_match_direct_chamber_search(self, nonfree):
        # one search per edge count: every record of one e shares the first
        # such record's chambers, whose data live on that first vine's
        # graph, and rebuilt on a vine's own graph they equal its own search
        window = (Fraction(-5, 2), Fraction(7, 3))
        records = atlas(5, 2, window, nonfree)
        assert len({r.vine.e for r in records}) < len(records)
        first = {}
        for r in records:
            head = first.setdefault(r.vine.e, r)
            assert r.chambers is head.chambers
            graph = head.vine.to_graph()
            assert all(F.graph is graph
                       for c in r.chambers for F in c.stable_table)
            own = r.vine.to_graph()
            rehomed = tuple(
                replace(c, stable_table=tuple(SheafDatum(own, F.S, F.D)
                                              for F in c.stable_table))
                for c in r.chambers)
            assert rehomed == tuple(chambers(r.vine, window, nonfree))
            assert r.wall_set == walls(r.vine, window)

    def test_one_chamber_table_per_edge_count(self):
        # 354 vines in 9 edge counts: per-vine copies of the shared tables
        # would show here as more tuples and Chamber objects
        records = atlas(8, 4, (Fraction(-3), Fraction(3)))
        assert len(records) == 354
        assert len({r.vine.e for r in records}) == 9
        assert len({id(r.chambers) for r in records}) == 9
        assert len({id(c) for r in records for c in r.chambers}) == 59

    def test_walls_listed_once_per_edge_count(self, monkeypatch):
        listed = []

        def counted(vine, window):
            listed.append(vine.e)
            return walls(vine, window)

        monkeypatch.setitem(atlas.__globals__, "walls", counted)
        records = atlas(8, 4, (Fraction(-3), Fraction(3)))
        assert sorted(listed) == sorted({r.vine.e for r in records})

    def test_nonfree_edge_ceiling_fails_fast(self):
        # g = MAX_NONFREE_EDGES has a vine with g + 1 edges
        start = time.monotonic()
        with pytest.raises(InvalidGraphError, match="non-free limit"):
            atlas(MAX_NONFREE_EDGES, 1, (Fraction(-1), Fraction(1)), True)
        assert time.monotonic() - start < 1

    def test_json_deterministic(self):
        window = (Fraction(-1), Fraction(1))
        assert atlas_to_json(atlas(2, 1, window)) == \
            atlas_to_json(atlas(2, 1, window))

    def test_csv_has_row_per_chamber(self):
        window = (Fraction(-1), Fraction(1))
        records = atlas(2, 1, window)
        lines = atlas_to_csv(records).splitlines()
        assert len(lines) == 1 + sum(len(r.chambers) for r in records)

    @pytest.mark.parametrize("g, n, window, nonfree", [
        (2, 1, (Fraction(-3), Fraction(3)), False),
        (6, 3, (Fraction(-3), Fraction(3)), False),
        (4, 2, (Fraction(-3), Fraction(3)), True),
        (5, 2, (Fraction(-5, 2), Fraction(7, 3)), True),
        (4, 3, (Fraction(1, 3), Fraction(1, 3)), False),
        (1, 1, (Fraction(-1), Fraction(1)), False),
        (8, 4, (Fraction(-3), Fraction(3)), False),
    ])
    def test_json_matches_stdlib_reference(self, g, n, window, nonfree):
        records = atlas(g, n, window, nonfree)
        assert atlas_to_json(records) == atlas_json_reference(records)

    def test_json_of_mixed_windows_matches_stdlib_reference(self):
        # vines with one e but another window or include_nonfree have other
        # chambers, so shared renderings must be keyed on content, not e
        mixed = (atlas(3, 1, (Fraction(-2), Fraction(2)))
                 + atlas(3, 1, (Fraction(-1, 2), Fraction(1)))
                 + atlas(3, 1, (Fraction(-2), Fraction(2)), True))
        assert atlas_to_json(mixed) == atlas_json_reference(mixed)

    def test_json_of_hand_built_records_matches_stdlib_reference(self):
        # a record sharing its neighbour's WallSet and deltas but with its
        # stable tables reversed, a record with no chambers or deltas, a
        # chamber with an empty stable table, deltas with an empty added or
        # removed list, and a datum on a graph with 3 vertices and ids that
        # are not 0..V-1
        records = atlas(4, 2, (Fraction(-3), Fraction(3)))
        mid = len(records) // 2
        r = records[mid]
        assert r.wall_set is records[mid - 1].wall_set
        assert r.deltas is records[mid - 1].deltas
        emptied = replace(r.chambers[0], stable_table=())
        reversed_tables = tuple(replace(c, stable_table=c.stable_table[::-1])
                                for c in r.chambers)
        (added, _), (_, removed) = r.deltas[:2]
        one_sided = ((added, ()), ((), removed)) + r.deltas[2:]
        graph = DualGraph.build([(0, 0, {1}), (5, 1, ()), (12, 0, {2})],
                                [(0, 5), (5, 12), (0, 12)], 2)
        far = SheafDatum(graph, {0, 2}, {0: 1, 5: -3, 12: 2})
        with_far = replace(r.chambers[1],
                           stable_table=(far,) + r.chambers[1].stable_table)
        for changed in (replace(r, chambers=reversed_tables),
                        replace(r, chambers=(), deltas=()),
                        replace(r, chambers=(emptied,) + r.chambers[1:]),
                        replace(r, deltas=one_sided),
                        replace(r, chambers=(r.chambers[0], with_far)
                                + r.chambers[2:])):
            hand_built = records[:mid] + [changed] + records[mid + 1:]
            assert atlas_to_json(hand_built) == \
                atlas_json_reference(hand_built)

    def test_json_agrees_with_dict_serializers(self):
        # over the 37 vine-atlas atlases, each datum and vine header the
        # templates render reads back as datum_to_dict and vine_to_dict
        specs = ([(g, n, False)
                  for g, n in itertools.product(range(2, 9), range(1, 5))]
                 + [(g, n, True)
                    for g, n in itertools.product(range(2, 5), range(1, 4))])
        for g, n, nonfree in specs:
            records = atlas(g, n, (Fraction(-3), Fraction(3)), nonfree)
            doc = json.loads(atlas_to_json(records))
            assert len(doc["records"]) == len(records)
            for r, rec in zip(records, doc["records"]):
                assert (rec["g"], rec["n"]) == (r.vine.g, r.vine.n)
                assert rec["vine"] == vine_to_dict(r.vine)
                assert [c["stable_table"] for c in rec["chambers"]] == [
                    [datum_to_dict(F) for F in c.stable_table]
                    for c in r.chambers]

    def test_bad_context(self):
        with pytest.raises(ValueError):
            atlas(0, 1, (Fraction(0), Fraction(1)))

    def test_vine_atlas_documents_are_pinned(self):
        # sha256 over the JSON and, apart, the CSV of 37 atlases on the
        # window (-3, 3): every (g, n) up to (8, 4) with line bundles, then
        # up to (4, 3) non-free; a change to any record, its order or its
        # rendering moves them
        specs = ([(g, n, False)
                  for g, n in itertools.product(range(2, 9), range(1, 5))]
                 + [(g, n, True)
                    for g, n in itertools.product(range(2, 5), range(1, 4))])
        docs, csvs = hashlib.sha256(), hashlib.sha256()
        for g, n, nonfree in specs:
            records = atlas(g, n, (Fraction(-3), Fraction(3)), nonfree)
            docs.update(atlas_to_json(records).encode())
            csvs.update(atlas_to_csv(records).encode())
        assert len(specs) == 37
        assert docs.hexdigest() == (
            "d6b2b62bb844357a3ffce20a331db072fa6e45a2103a4823339f81241b1296fd")
        assert csvs.hexdigest() == (
            "12b9c875eded4124f88f6fb48b936026a31b6f8a496529f3c5106138e625f752")


def test_chamber_tables_match_vine_closed_form():
    # every stable table of the 37 vine-atlas atlases on (-3, 3) is the
    # closed form of tests/oracles.py at the chamber's representative
    specs = ([(g, n, False)
              for g, n in itertools.product(range(2, 9), range(1, 5))]
             + [(g, n, True)
                for g, n in itertools.product(range(2, 5), range(1, 4))])
    tables = 0
    for g, n, nonfree in specs:
        for r in atlas(g, n, (Fraction(-3), Fraction(3)), nonfree):
            for c in r.chambers:
                assert {F.key for F in c.stable_table} == vine_stable_keys(
                    r.vine.e, c.representative, nonfree), (r.vine, c)
                tables += 1
    assert tables == 16208


# Windows with integer, half-integer and other ends, on and off walls, one
# empty and one inside a single chamber.
TRANSLATE_WINDOWS = [
    (Fraction(-3), Fraction(3)), (Fraction(-7, 3), Fraction(5, 2)),
    (Fraction(10), Fraction(13)), (Fraction(1, 3), Fraction(2, 3)),
    (Fraction(-1, 2), Fraction(1, 2)), (Fraction(0), Fraction(0)),
    (Fraction(-5, 2), Fraction(-1, 2)), (Fraction(2, 7), Fraction(9, 7)),
]


def _chamber_fields(c):
    return (c.lo, c.hi, c.representative, c.is_small_perturbation,
            c.table_keys)


@pytest.mark.parametrize("nonfree", [False, True])
def test_translated_chambers_match_fresh_search(nonfree):
    # chambers() searches the first chamber and translates the others;
    # the reference searches every chamber at its representative, and the
    # atlas deltas, translated from the first wall's, are rebuilt from it
    for e in range(1, 8):
        for window in TRANSLATE_WINDOWS:
            assert list(map(_chamber_fields, chambers(vine(e), window,
                                                      nonfree))) == \
                list(map(_chamber_fields, reference_chambers(
                    vine(e), window, nonfree))), (e, window)
    for g, n in itertools.product(range(2, 5), range(1, 3)):
        for window in TRANSLATE_WINDOWS:
            for r in atlas(g, n, window, nonfree):
                keys = [set(c.table_keys)
                        for c in reference_chambers(r.vine, window, nonfree)]
                assert r.deltas == tuple(
                    (tuple(sorted(rk - lk)), tuple(sorted(lk - rk)))
                    for lk, rk in zip(keys, keys[1:])), (r.vine, window)


def test_table_string():
    chs = chambers(vine(2), (Fraction(0), Fraction(1)),
                   include_nonfree=True)
    assert table_string(chs[0]) == "(0,0) (1,-1) S{0}(0,-1) S{1}(0,-1)"
