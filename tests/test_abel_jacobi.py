import hashlib
import itertools
import json
import logging
import random
import re
import sys
import time
from dataclasses import astuple
from fractions import Fraction

import pytest

from jacstab import stability
from jacstab.abel_jacobi import (
    AJDatum,
    ExtendsResult,
    VinePhiTable,
    _unit_difference_markings,
    aj_multidegree,
    certify_unstable_on_vine,
    classify_extension,
    construct_prop_phi,
    sigma_extends,
    vine_bidegree,
)
from jacstab.atlas import chambers
from jacstab.errors import (
    IncompleteTableError,
    JacstabError,
    PhiConstructionError,
    PreconditionError,
    TrivialTwistError,
)
from jacstab.graph import DualGraph, VineCurve, enumerate_vines, make_vine
from jacstab.stability import SheafDatum, is_nondegenerate, is_small_perturbation
from oracles import (random_stable_graph, reference_chambers,
                     reference_construct_prop_phi)


def genus1_unmarked_vine():
    # genus-1 unmarked component joined to a marked rational one at 2 nodes
    return DualGraph.build([(0, 1, ()), (1, 0, (1,))], [(0, 1), (0, 1)], 1)


class TestAJMultidegree:
    @pytest.mark.parametrize("k", [-1, 1, 2])
    def test_dualizing_power_bidegree(self, k):
        g = genus1_unmarked_vine()
        aj = AJDatum(k, (2 * k,), g.g, g.n)
        assert aj_multidegree(g, aj) == {0: -2 * k, 1: 2 * k}

    def test_two_marking_bidegree(self):
        # a_i + a_j = t on the rational side carrying p_i, p_j gives (t, -t)
        g = DualGraph.build([(0, 0, (1, 2)), (1, 0, (3,))],
                            [(0, 1), (0, 1)], 3)
        aj = AJDatum(0, (1, 1, -2), g.g, g.n)
        assert aj_multidegree(g, aj) == {0: 2, 1: -2}

    def test_trivial_twist_is_zero(self):
        g = genus1_unmarked_vine()
        aj = AJDatum(0, (0,), g.g, g.n)
        assert aj.is_trivial
        assert aj_multidegree(g, aj) == {0: 0, 1: 0}

    def test_sums_to_zero_on_random_graphs(self):
        rng = random.Random(11)
        for _ in range(100):
            graph = random_stable_graph(rng)
            k = rng.randint(-2, 2)
            a = [rng.randint(-2, 2) for _ in range(graph.n)]
            a[-1] -= k * (2 - 2 * graph.g) + sum(a)
            aj = AJDatum(k, tuple(a), graph.g, graph.n)
            assert sum(aj_multidegree(graph, aj).values()) == 0

    def test_degree_constraint_enforced(self):
        with pytest.raises(JacstabError):
            AJDatum(0, (1,), 2, 1).check(2, 1)

    def test_length_mismatch_rejected(self):
        with pytest.raises(JacstabError):
            AJDatum(0, (1, -1), 2, 1).check(2, 1)

    def test_context_mismatch_rejected(self):
        g = genus1_unmarked_vine()
        with pytest.raises(JacstabError):
            aj_multidegree(g, AJDatum(0, (0, 0), 3, 2))

    @pytest.mark.parametrize("aj", [
        AJDatum(1, (2.0,), 2, 1),
        AJDatum(1.0, (2,), 2, 1),
        AJDatum(0, (0.5, -0.5), 2, 2),
        AJDatum(0, (True, -1), 2, 2),
        AJDatum(0, (Fraction(1), -1), 2, 2),
    ], ids=["float-a", "float-k", "half-a", "bool-a", "fraction-a"])
    def test_non_int_twist_refused(self, aj):
        # no line bundle has a non-integer degree, so no answer is given;
        # a float would otherwise reach the report's bidegree
        with pytest.raises(PreconditionError,
                           match="twist data must be integers"):
            classify_extension(aj.g, aj.n, aj)
        with pytest.raises(PreconditionError):
            aj.check(aj.g, aj.n)


@pytest.mark.parametrize("call", [
    lambda aj: aj_multidegree(
        DualGraph.build([(0, 1, (1,)), (1, 1, ())], [(0, 1)], 1), aj),
    lambda aj: sigma_extends(2, 1, aj, VinePhiTable(2, 1, {})),
    lambda aj: classify_extension(2, 1, aj),
], ids=["aj_multidegree", "sigma_extends", "classify_extension"])
def test_twist_of_another_g_n_refused(call):
    # AJDatum.check(g, n) is the one test of a twist's (g, n); sigma_extends
    # names the twist, not the vines the (g=2, n=1) table lacks
    with pytest.raises(JacstabError, match=re.escape(
            "twist data for (g=2, n=2) used for (g=2, n=1)")):
        call(AJDatum(0, (1, -1), 2, 2))


class TestVineBidegree:
    def test_matches_graph_multidegree(self):
        for vine in enumerate_vines(3, 2, 1):
            aj = AJDatum(0, (1, -1), 3, 2)
            graph = vine.to_graph()
            assert vine_bidegree(vine, aj) == aj_multidegree(graph, aj)[0]


class TestConstructPropPhi:
    def test_entries_shape(self):
        table = construct_prop_phi(3, 2, 1, 2)
        for vine, x in table.entries.items():
            if vine.e == 1:
                assert x == 0
                continue
            base = (Fraction(1, 2) * (1 in vine.S)
                    - Fraction(1, 2) * (2 in vine.S))
            eps = x - base
            assert 0 < abs(eps) < Fraction(1, 100)

    def test_postconditions(self):
        table = construct_prop_phi(2, 2, 2, 1, seed=5)
        aj = AJDatum(0, (-1, 1), 2, 2)
        from jacstab.atlas import vine_phi
        for vine, x in table.entries.items():
            if vine.e == 1:
                continue
            graph = vine.to_graph()
            phi = vine_phi(vine, x)
            assert is_nondegenerate(graph, phi)
            assert is_small_perturbation(graph, phi)
        assert sigma_extends(2, 2, aj, table).extends

    def test_equal_markings_rejected(self):
        with pytest.raises(JacstabError):
            construct_prop_phi(2, 2, 1, 1)

    def test_marking_out_of_range(self):
        with pytest.raises(JacstabError):
            construct_prop_phi(2, 2, 1, 3)


class TestSigmaExtends:
    def test_incomplete_table(self):
        table = VinePhiTable(3, 2, {})
        with pytest.raises(IncompleteTableError):
            sigma_extends(3, 2, AJDatum(0, (1, -1), 3, 2), table)

    def test_unit_difference_extends(self):
        table = construct_prop_phi(3, 2, 1, 2)
        assert sigma_extends(3, 2, AJDatum(0, (1, -1), 3, 2), table).extends

    def test_witness_is_first_canonical_failure(self):
        # doubled twist on one marking: no table stabilizes it
        aj = AJDatum(1, (2,), 2, 1)
        entries = {v: Fraction(0) if v.e == 1 else Fraction(1, 10)
                   for v in enumerate_vines(2, 1, 1)}
        result = sigma_extends(2, 1, aj, VinePhiTable(2, 1, entries))
        assert not result.extends
        assert result.witness == make_vine(0, 1, 2, (1,), 1)
        assert result.witness_bidegree == 2


class TestCertify:
    def test_stable_bidegree_has_no_certificate(self):
        vine = make_vine(0, 1, 2, (1,), 1)
        assert certify_unstable_on_vine(vine, 0) is None

    def test_unstable_bidegree_certified(self):
        vine = make_vine(0, 1, 2, (1,), 1)
        cert = certify_unstable_on_vine(vine, 2)
        assert cert is not None
        # e chambers inside the small-perturbation interval
        assert len(cert.chambers) == vine.e
        for lo, hi, degs in cert.chambers:
            assert 2 not in degs
            assert len(degs) == vine.e

    @pytest.mark.parametrize("m", [Fraction(1, 2), Fraction(2), True, 1.0,
                                   "2"])
    def test_non_int_bidegree_refused(self, m):
        # a bidegree is a line bundle's degree: 1/2, True or 1.0 is none
        vine = make_vine(0, 1, 2, (1,), 1)
        with pytest.raises(PreconditionError,
                           match="bidegree must be an integer"):
            certify_unstable_on_vine(vine, m)

    def test_matches_direct_chamber_search(self):
        # the certificate rows come from one search per edge count; a fresh
        # search on each vine must agree for every bidegree in [-e, e]
        for g in range(1, 7):
            for n in range(1, 4):
                for vine in enumerate_vines(g, n, 2):
                    half_e = Fraction(vine.e, 2)
                    rows = tuple(
                        (ch.lo, ch.hi,
                         tuple(F.degrees[0] for F in ch.stable_table))
                        for ch in chambers(vine, (-half_e, half_e)))
                    for m in range(-vine.e, vine.e + 1):
                        cert = certify_unstable_on_vine(vine, m)
                        if any(m in degs for _, _, degs in rows):
                            assert cert is None, (vine, m)
                        else:
                            assert cert is not None, (vine, m)
                            assert (cert.vine, cert.bidegree) == (vine, m)
                            assert cert.chambers == rows, (vine, m)


def _vine_classes(g, n, i, j):
    """Number of distinct (e, [i in S] - [j in S]) among e >= 2 vines."""
    return len({(v.e, (i in v.S) - (j in v.S))
                for v in enumerate_vines(g, n, 2)})


def _twists():
    """Every non-trivial twist with g, n <= 4, k in {-1, 0, 1} and a in
    [-2, 2]^n that meets the degree constraint, in loop order."""
    for g in range(1, 5):
        for n in range(1, 5):
            for k in (-1, 0, 1):
                for a in itertools.product(range(-2, 3), repeat=n):
                    aj = AJDatum(k, a, g, n)
                    if not aj.is_trivial and k * (2 - 2 * g) + sum(a) == 0:
                        yield aj


class TestClassifyExtension:
    def test_unit_difference_yes(self):
        result = classify_extension(3, 2, AJDatum(0, (1, -1), 3, 2))
        assert result.extends
        assert result.witness is None
        check = sigma_extends(3, 2, AJDatum(0, (1, -1), 3, 2),
                              result.phi_table)
        assert check.extends

    def test_yes_builds_one_graph_per_edge_count(self, monkeypatch):
        # only construct_prop_phi builds vine graphs, one per edge count
        # e >= 2 that all its (e, m) classes are checked on: no second
        # check follows
        built = []
        build = DualGraph.build.__func__

        def counted(cls, *args, **kwargs):
            built.append(args)
            return build(cls, *args, **kwargs)

        monkeypatch.setattr(DualGraph, "build", classmethod(counted))
        assert classify_extension(3, 2, AJDatum(0, (1, -1), 3, 2)).extends
        assert len(built) == len({v.e for v in enumerate_vines(3, 2, 2)}) == 3
        assert [len(edge_ends) for _, edge_ends, *_ in built] == [2, 3, 4]

    def test_yes_checks_each_vine_class_once(self, monkeypatch):
        # one bundle per (e, m) class of e >= 2 vines, the one
        # construct_prop_phi accepts the class's phi with; a second check
        # would build one more per vine
        built = []
        init = SheafDatum.__init__

        def counted(self, *args, **kwargs):
            built.append(args)
            init(self, *args, **kwargs)

        monkeypatch.setattr(SheafDatum, "__init__", counted)
        assert classify_extension(3, 2, AJDatum(0, (1, -1), 3, 2)).extends
        assert len(built) == _vine_classes(3, 2, 1, 2) == 8

    @pytest.mark.parametrize("seed", [0, 3, 996])
    def test_prop_phi_matches_per_vine_loop(self, seed):
        # one check per (e, m) class gives the entries a check per vine gives
        for g in range(1, 5):
            for n in range(2, 5):
                for i, j in itertools.permutations(range(1, n + 1), 2):
                    assert (construct_prop_phi(g, n, i, j, seed).entries
                            == reference_construct_prop_phi(
                                g, n, i, j, seed).entries), (g, n, i, j)

    def test_prop_phi_debug_log_counts_checks(self, caplog):
        with caplog.at_level(logging.DEBUG, logger="jacstab.abel_jacobi"):
            construct_prop_phi(3, 2, 1, 2)
        assert caplog.messages == [
            "construct_prop_phi g=3 n=2: 16 vines, 8 (e, m) checks"]

    def test_prop_phi_failure_names_first_failing_vine(self, monkeypatch):
        # no phi is admissible on a 3-edge vine: both routes name the first
        never_on_e3 = lambda graph, phi, F: len(graph.edges) != 3
        monkeypatch.setattr("jacstab.abel_jacobi.is_stable", never_on_e3)
        monkeypatch.setattr("oracles.is_stable", never_on_e3)
        first = enumerate_vines(3, 2, 3)[0]
        messages = []
        for construct in (construct_prop_phi, reference_construct_prop_phi):
            with pytest.raises(PhiConstructionError) as info:
                construct(3, 2, 1, 2)
            messages.append(str(info.value))
        assert messages == ["no admissible perturbation for %s" % first] * 2

    def test_every_yes_table_passes_sigma_extends(self):
        # the construction is the check: the independent sigma_extends route
        # accepts every returned table, g = 1 twists with k = +-1 included
        yes = set()
        for aj in _twists():
            for seed in (0, 3):
                result = classify_extension(aj.g, aj.n, aj, seed)
                if result.extends:
                    yes.add(aj)
                    check = sigma_extends(aj.g, aj.n, aj, result.phi_table)
                    assert check.extends, (aj, seed)
        assert len(yes) == 120
        assert sum(aj.g == 1 and aj.k != 0 for aj in yes) == 40

    def test_double_twist_no(self):
        result = classify_extension(2, 4, AJDatum(0, (1, 1, -1, -1), 2, 4))
        assert not result.extends
        assert result.witness == make_vine(0, 1, 2, (1, 2), 4)
        assert result.witness_bidegree == 2
        assert result.certificate is not None

    def test_dualizing_twist_no(self):
        result = classify_extension(2, 1, AJDatum(1, (2,), 2, 1))
        assert not result.extends
        assert result.witness == make_vine(0, 1, 2, (1,), 1)
        assert result.witness_bidegree == 2

    def test_no_builds_no_vine_after_its_witness(self, monkeypatch):
        # the walk stops at the witness: the vines built are the e >= 2
        # vines up to it, in canonical order, and none of the later ones
        vines = enumerate_vines(4, 4, 2)
        built = []
        init = VineCurve.__init__

        def counted(self, *args):
            built.append(args)
            init(self, *args)

        monkeypatch.setattr(VineCurve, "__init__", counted)
        result = classify_extension(4, 4, AJDatum(0, (1, 1, -1, -1), 4, 4))
        assert not result.extends
        assert vines.index(result.witness) == 1 and len(vines) == 79
        assert built == [astuple(v) for v in vines[:2]]

    def test_oversized_no_refused_before_any_vine(self, monkeypatch):
        # (1 + 1)^2 * 2^21 candidates exceed the limit: the lazy walk
        # refuses when it is called, not after building
        built = []
        monkeypatch.setattr(VineCurve, "__init__",
                            lambda self, *args: built.append(args))
        aj = AJDatum(0, (2, -2) + (0,) * 19, 1, 21)
        start = time.monotonic()
        with pytest.raises(PreconditionError, match="g=1, n=21"):
            classify_extension(1, 21, aj)
        assert time.monotonic() - start < 1
        assert built == []

    @pytest.mark.parametrize("seed", [0.9, "0", True])
    def test_yes_refuses_non_int_seed_before_any_vine(self, monkeypatch,
                                                      seed):
        built = []
        monkeypatch.setattr(VineCurve, "__init__",
                            lambda self, *args: built.append(args))
        with pytest.raises(PreconditionError, match="seed must be an integer"):
            classify_extension(3, 2, AJDatum(0, (1, -1), 3, 2), seed)
        assert built == []

    def test_no_answers_build_no_graph_and_run_no_search(self, monkeypatch):
        # a "no" and its certificate rows are read off each vine's (e, m):
        # no DualGraph is built and no stable_sheaf_data search runs
        calls = []
        build = DualGraph.build.__func__
        search = stability.stable_sheaf_data

        def counted_build(cls, *args, **kwargs):
            calls.append("build")
            return build(cls, *args, **kwargs)

        def counted_search(*args, **kwargs):
            calls.append("search")
            return search(*args, **kwargs)

        monkeypatch.setattr(DualGraph, "build", classmethod(counted_build))
        for name, module in list(sys.modules.items()):
            if (name.startswith("jacstab")
                    and getattr(module, "stable_sheaf_data", None) is search):
                monkeypatch.setattr(module, "stable_sheaf_data",
                                    counted_search)
        noes = [aj for aj in _twists()
                if _unit_difference_markings(aj.a) is None]
        assert len(noes) == 796
        for aj in noes:
            result = classify_extension(aj.g, aj.n, aj)
            assert not result.extends and result.certificate.chambers
        assert calls == []

    def test_trivial_twist_raises(self):
        with pytest.raises(TrivialTwistError):
            classify_extension(1, 1, AJDatum(1, (0,), 1, 1))
        with pytest.raises(TrivialTwistError):
            classify_extension(2, 2, AJDatum(0, (0, 0), 2, 2))

    def test_all_zero_twist_of_another_context_is_invalid_not_trivial(self):
        with pytest.raises(JacstabError,
                           match=r"\(g=2, n=2\) used for \(g=3, n=2\)"):
            classify_extension(3, 2, AJDatum(0, (0, 0), 2, 2))

    def test_debug_log_names_obstructing_vine(self, caplog):
        with caplog.at_level(logging.DEBUG, logger="jacstab.abel_jacobi"):
            classify_extension(2, 4, AJDatum(0, (1, 1, -1, -1), 2, 4))
        assert ("g=2 n=4: vine(g1=0, g2=1, e=2, S={1,2}) obstructs with "
                "bidegree (2,-2)") in caplog.messages

    def test_report_shape(self):
        result = classify_extension(2, 4, AJDatum(0, (1, 1, -1, -1), 2, 4))
        report = result.to_report()
        assert report["extends"] is False
        assert report["witness_vine"]["bidegree"] == [2, -2]
        assert report["certificate"]["chambers"]
        assert "note" in report


@pytest.mark.parametrize("e", range(2, 10))
def test_certificate_rows_match_vine_closed_form(e):
    # m = e lies outside every window (x - e/2, x + e/2) with |x| < e/2, so
    # a certificate comes back; its closed-form rows must be the chambers
    # of (-e/2, e/2) with the line-bundle degrees that a search of each
    # chamber afresh finds
    vine = make_vine(0, 0, e, (1,), 2)
    cert = certify_unstable_on_vine(vine, e)
    assert (cert.vine, cert.bidegree) == (vine, e)
    half_e = Fraction(e, 2)
    assert cert.chambers == tuple(
        (ch.lo, ch.hi, tuple(F.degrees[0] for F in ch.stable_table))
        for ch in reference_chambers(vine, (-half_e, half_e), False))


def test_extends_is_read_from_the_witness():
    # a "no" names its witness and a "yes" does not, so no result can say
    # both; the positional calls of the old five-field type are refused
    vine = make_vine(0, 1, 2, (1,), 1)
    with pytest.raises(TypeError):
        ExtendsResult(True, vine, 3)
    with pytest.raises(TypeError):
        ExtendsResult(True, None, None, None)
    no = classify_extension(2, 4, AJDatum(0, (1, 1, -1, -1), 2, 4))
    yes = classify_extension(2, 2, AJDatum(0, (1, -1), 2, 2))
    assert (no.extends, str(no.witness), no.witness_bidegree) == (
        False, "vine(g1=0, g2=1, e=2, S={1,2})", 2)
    assert (yes.extends, yes.witness) == (True, None)
    assert sigma_extends(2, 2, AJDatum(0, (1, -1), 2, 2),
                         yes.phi_table).extends
    assert (no.to_report()["extends"], yes.to_report()["extends"]) == (
        False, True)


def test_phi_table_round_trip():
    table = construct_prop_phi(2, 2, 1, 2, seed=3)
    back = VinePhiTable.from_dict(table.to_dict())
    assert back.entries == table.entries
    assert back.to_dict() == table.to_dict()


def test_one_report_for_both_result_names():
    # classify_extension and sigma_extends answer with the same type
    table = construct_prop_phi(2, 2, 1, 2)
    checked = sigma_extends(2, 2, AJDatum(0, (1, -1), 2, 2), table)
    classified = classify_extension(2, 2, AJDatum(0, (1, -1), 2, 2))
    assert isinstance(checked, ExtendsResult)
    assert isinstance(classified, ExtendsResult)
    assert checked.to_report() == classified.to_report()


def test_phi_table_swapped_row_is_canonicalized():
    table = construct_prop_phi(2, 2, 1, 2, seed=3)
    data = table.to_dict()
    row = {"g1": 0, "g2": 1, "e": 2, "S": [1], "phi": "351/700"}
    data["entries"][data["entries"].index(row)] = \
        {"g1": 1, "g2": 0, "e": 2, "S": [2], "phi": "-351/700"}
    back = VinePhiTable.from_dict(data)
    assert back.entries == table.entries
    assert sigma_extends(2, 2, AJDatum(0, (1, -1), 2, 2), back).extends


@pytest.mark.parametrize("on_bidegree", [True, False])
def test_sigma_extends_refuses_inadmissible_table(on_bidegree):
    # bidegree + 1/101 is 2 + 1/101 on vine(0, 1, 2, {1}), outside the
    # small-perturbation interval (-1, 1); 0 lies on a wall of every e = 2 vine
    aj = AJDatum(0, (2, -2), 2, 2)
    table = VinePhiTable(2, 2, {
        v: vine_bidegree(v, aj) + Fraction(1, 101) if on_bidegree else 0
        for v in enumerate_vines(2, 2, 1)})
    with pytest.raises(PreconditionError, match=r"vine\(g1=0, g2=1, e=2, S=\{1\}\)"):
        sigma_extends(2, 2, aj, table)


def test_phi_table_decimal_rejected():
    data = construct_prop_phi(2, 2, 1, 2, seed=3).to_dict()
    data["entries"][0]["phi"] = "0.3"
    with pytest.raises(PreconditionError):
        VinePhiTable.from_dict(data)


@pytest.mark.parametrize("declared,g", [((7, 2), 2), ((2, 2), 3)],
                         ids=["declared-g7", "g2-table-for-g3"])
def test_sigma_extends_refuses_table_for_another_g_n(declared, g):
    table = construct_prop_phi(2, 2, 1, 2)
    table = VinePhiTable(*declared, table.entries)
    aj = AJDatum(0, (1, -1), g, 2)
    with pytest.raises(PreconditionError,
                       match=r"phi table is for g=%d, n=%d, not for g=%d, "
                             r"n=2$" % (*declared, g)):
        sigma_extends(g, 2, aj, table)


def test_classify_reports_are_pinned():
    # sha256 over the sorted-key JSON reports of all 916 twists at seeds 0
    # and 3; any change to an answer, a witness, a certificate or a table
    # entry moves it
    digest = hashlib.sha256()
    count = 0
    for aj in _twists():
        count += 1
        for seed in (0, 3):
            report = classify_extension(aj.g, aj.n, aj, seed).to_report()
            digest.update(json.dumps(report, sort_keys=True).encode())
    assert count == 916
    assert digest.hexdigest() == (
        "3f0c5536ebde29d842de2db948366771061e36af8e53c786cf240b3551baaafc")


_ROW = {"g1": 0, "g2": 0, "e": 2, "S": [1], "phi": "1/2"}
# vine(g1=0, g2=1, e=2, S={1}) of g = 2, n = 1 with its sides swapped
_SWAPPED_ROW = {"g1": 1, "g2": 0, "e": 2, "S": [], "phi": "1/3"}
# the rows of a table for the 8 vines of g = 2, n = 2
_G2N2_ROWS = construct_prop_phi(2, 2, 1, 2).to_dict()["entries"]


@pytest.mark.parametrize("data,reason", [
    ({"g": 1, "n": 2, "entries": 3}, ""),
    ({"g": 1, "n": 2, "entries": [{**_ROW, "S": 5}]}, ""),
    ({"g": 1, "n": 2, "entries": [{"g1": 0, "g2": 0, "e": 2, "S": [1]}]},
     ""),
    ([1], ""),
    ({"g": 1.0, "n": 2, "entries": [_ROW]},
     "g must be an integer, got 1.0"),
    ({"g": 1, "n": True, "entries": [_ROW]},
     "n must be an integer, got True"),
    ({"g": 1, "n": 2, "entries": [{**_ROW, "e": 2.0}]},
     "e must be an integer, got 2.0"),
    ({"g": 1, "n": 2, "entries": [{**_ROW, "g1": False}]},
     "g1 must be an integer, got False"),
    ({"g": 1, "n": 2, "entries": [{**_ROW, "g2": "0"}]},
     "g2 must be an integer, got '0'"),
    ({"g": 1, "n": 2, "entries": [{**_ROW, "S": [1.0]}]},
     "S entry must be an integer, got 1.0"),
    ({"g": 7, "n": 2, "entries": [_ROW]},
     "row vine(g1=0, g2=0, e=2, S={1}) is no vine of g=7, n=2"),
    ({"g": 2, "n": 2, "entries": _G2N2_ROWS + [{**_ROW, "g2": 1, "S": [5]}]},
     "row vine(g1=0, g2=1, e=2, S={5}) is no vine of g=2, n=2"),
    # side 1 has genus 0, 2 nodes and no marking: unstable
    ({"g": 2, "n": 2, "entries": _G2N2_ROWS + [{**_ROW, "g2": 1, "S": []}]},
     "row vine(g1=0, g2=1, e=2, S={}) is no vine of g=2, n=2"),
    ({"g": 2, "n": 2,
      "entries": _G2N2_ROWS + [{**_G2N2_ROWS[-1], "phi": "1/3"}]},
     "row vine(g1=0, g2=0, e=3, S={1}) repeats an earlier row"),
    # sides written swapped: make_vine would drop the stray marking
    ({"g": 2, "n": 1, "entries": [{**_SWAPPED_ROW, "S": [5]}]},
     "row vine(g1=1, g2=0, e=2, S={5}) is no vine of g=2, n=1"),
    ({"g": 2, "n": 1, "entries": [{**_SWAPPED_ROW, "S": [0]}]},
     "row vine(g1=1, g2=0, e=2, S={0}) is no vine of g=2, n=1"),
    ({"g": 2, "n": 1, "entries": [{**_SWAPPED_ROW, "S": [-1]}]},
     "row vine(g1=1, g2=0, e=2, S={-1}) is no vine of g=2, n=1"),
    ({"g": 2, "n": 1, "entries": [{**_SWAPPED_ROW, "S": [1, 1]}]},
     "row vine(g1=1, g2=0, e=2, S={1,1}) is no vine of g=2, n=1"),
    ({"g": 0, "n": 1, "entries": []}, "g must be at least 1, got 0"),
    ({"g": 1, "n": -1, "entries": []}, "n must be at least 1, got -1"),
], ids=["int-entries", "int-S", "no-phi", "list", "float-g", "bool-n",
        "float-e", "bool-g1", "string-g2", "float-S-entry",
        "row-of-another-genus", "marking-outside-1-n", "unstable-side",
        "repeated-row", "swapped-marking-above-n", "swapped-marking-0",
        "swapped-negative-marking", "swapped-repeated-marking", "zero-g",
        "negative-n"])
def test_phi_table_malformed_json_rejected(data, reason):
    with pytest.raises(PreconditionError,
                       match="malformed phi table JSON: " + re.escape(reason)):
        VinePhiTable.from_dict(data)


@pytest.mark.parametrize("g,n,reason", [
    (2.9, 2, "g must be an integer, got 2.9"),
    (2, True, "n must be an integer, got True"),
], ids=["float-g", "bool-n"])
def test_phi_table_refuses_non_int_g_n(g, n, reason):
    with pytest.raises(PreconditionError, match=re.escape(reason)):
        VinePhiTable(g, n, {})


def test_unit_difference_twists_have_k_times_2_minus_2g_zero():
    # classify_extension answers a twist a = e_i - e_j "yes" without asking
    # for k(2 - 2g) = 0: sum(a) = 0, so the degree constraint aj.check()
    # enforces already forces it
    count = 0
    for n in range(1, 6):
        for a in itertools.product(range(-3, 4), repeat=n):
            if _unit_difference_markings(a) is None:
                continue
            for g, k in itertools.product(range(1, 9), range(-3, 4)):
                try:
                    AJDatum(k, a, g, n).check(g, n)
                except JacstabError:
                    continue
                assert k * (2 - 2 * g) == 0, (g, n, k, a)
                count += 1
    assert count == 560
