import random
import time
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st
from oracles import (
    crossing_edges,
    fraction_is_nondegenerate,
    fraction_is_small_perturbation,
    fraction_subcurve_sum,
    internal_edges,
    reference_equality_witness,
    reference_is_semistable,
)

from jacstab.corpus import (
    random_nondegenerate_phi,
    random_phi,
    random_wall_phi,
    stable_graph_corpus,
)
from jacstab.atlas import vine_phi
from jacstab.errors import (
    DegenerateParameterError,
    InvalidGraphError,
    MismatchedGraphError,
    PreconditionError,
    UnknownEdgeError,
)
from jacstab.graph import (
    MAX_NONFREE_EDGES,
    DualGraph,
    make_vine,
    spanning_tree_count,
)
from jacstab.stability import (
    PhiVector,
    SheafDatum,
    datum_to_dict,
    epsilon_stream,
    equivalent_small_perturbation_check,
    exact_rational,
    find_equality_witness,
    is_nondegenerate,
    is_small_perturbation,
    is_stable,
    phi_from_dict,
    phi_to_dict,
    stable_sheaf_data,
    verify_support_lemma,
)


def vine_graph(e, S=(1,), g1=0, g2=1, n=1):
    return make_vine(g1, g2, e, S, n).to_graph()


def vine_phi2(graph, x):
    return PhiVector(graph, {0: Fraction(x), 1: -Fraction(x)})


def subcurve_entry(graph, vertices):
    """The ``graph.subcurve_data`` entry whose vertex set is ``vertices``."""
    return next(info for info in graph.subcurve_data
                if info.vertex_set == frozenset(vertices))


def phi_on(phi, vertices):
    """phi(C0) from the integer kernel, checked against the Fraction sum."""
    graph = phi.graph
    info = subcurve_entry(graph, vertices)
    x = Fraction(phi.subcurve_sums()[graph.subcurve_data.index(info)], phi.q)
    assert x == fraction_subcurve_sum(phi, info)
    return x


def total_degree(F):
    return sum(F.D.values()) + len(F.S)


class TestPhiOf:
    def test_vine_value(self):
        g = vine_graph(2)
        phi = vine_phi2(g, Fraction(3, 10))
        assert phi_on(phi, {0}) == Fraction(3, 10)

    def test_complement_sums_to_zero(self):
        g = vine_graph(3)
        phi = vine_phi2(g, Fraction(5, 7))
        assert phi_on(phi, {0}) + phi_on(phi, {1}) == 0

    def test_three_vertex_path(self):
        g = DualGraph.build([(0, 1, (1,)), (1, 1, ()), (2, 1, ())],
                            [(0, 1), (1, 2)], 1)
        phi = PhiVector(g, {0: Fraction(1, 4), 1: Fraction(1, 4),
                            2: Fraction(-1, 2)})
        assert phi_on(phi, {0, 1}) == Fraction(1, 2)

    def test_nonzero_sum_rejected(self):
        g = vine_graph(2)
        with pytest.raises(ValueError):
            PhiVector(g, {0: Fraction(1, 2), 1: Fraction(1, 2)})

    def test_mismatched_graph(self):
        g = vine_graph(2)
        other = vine_graph(3)
        phi = vine_phi2(other, Fraction(1, 7))
        with pytest.raises(MismatchedGraphError):
            is_stable(g, phi, SheafDatum(g, (), {0: 0, 1: 0}))

    @pytest.mark.parametrize("entry", [
        lambda g, phi: is_stable(g, phi, SheafDatum(g, (), {0: 0, 1: 0})),
        is_nondegenerate,
        is_small_perturbation,
        equivalent_small_perturbation_check,
        find_equality_witness,
        lambda g, phi: stable_sheaf_data(g, phi, 0),
        verify_support_lemma,
    ], ids=["is_stable", "is_nondegenerate", "is_small_perturbation",
            "equivalent_small_perturbation_check", "find_equality_witness",
            "stable_sheaf_data", "verify_support_lemma"])
    def test_every_kernel_entry_refuses_a_phi_on_another_graph(self, entry):
        # the phi is a nondegenerate small perturbation on its own graph,
        # so only the graph check can refuse it
        g = vine_graph(2)
        other = vine_graph(2)
        phi = vine_phi2(other, Fraction(1, 7))
        assert is_nondegenerate(other, phi)
        assert is_small_perturbation(other, phi)
        with pytest.raises(MismatchedGraphError):
            entry(g, phi)


class TestExactInput:
    @pytest.mark.parametrize("x,expected", [
        (3, Fraction(3)), (Fraction(3, 10), Fraction(3, 10)),
        ("3/10", Fraction(3, 10)), ("-7", Fraction(-7)), (" 2/4 ", Fraction(1, 2)),
    ])
    def test_exact_rationals_accepted(self, x, expected):
        assert exact_rational(x) == expected

    @pytest.mark.parametrize("x", [0.5, "0.5", "1e-3", "1/0", "abc", None])
    def test_inexact_or_malformed_rejected(self, x):
        with pytest.raises(PreconditionError):
            exact_rational(x)

    @pytest.mark.parametrize("x", ["\u0661/\u0662", "\u0661", "1/\u0662"])
    def test_non_ascii_digits_rejected(self, x):
        # int() reads any Unicode decimal digit; a rational takes 0-9 only
        with pytest.raises(PreconditionError):
            exact_rational(x)

    def test_float_phi_rejected(self):
        g = vine_graph(2)
        with pytest.raises(PreconditionError):
            PhiVector(g, {0: 0.1, 1: -0.1})

    def test_decimal_phi_dict_rejected(self):
        g = vine_graph(2)
        with pytest.raises(PreconditionError):
            phi_from_dict(g, {"values": {"0": "0.3", "1": "-0.3"}})

    @pytest.mark.parametrize("x", [True, False])
    def test_bool_rejected(self, x):
        # bool is a Rational to the numbers ABC, so JSON true would read as 1
        with pytest.raises(PreconditionError, match="boolean"):
            exact_rational(x)

    def test_bool_phi_dict_rejected(self):
        g = vine_graph(2)
        with pytest.raises(PreconditionError, match="boolean"):
            phi_from_dict(g, {"values": {"0": True, "1": -1}})

    @pytest.mark.parametrize("data", [
        {"values": [1, 2]}, [1], {}, {"values": {"zero": "0", "1": "0"}},
    ], ids=["list-values", "list", "no-values", "string-id"])
    def test_malformed_phi_dict_rejected(self, data):
        g = vine_graph(2)
        with pytest.raises(PreconditionError, match="malformed phi JSON"):
            phi_from_dict(g, data)


def _spread(vertices, total, rng):
    """Values on ``vertices`` summing to ``total`` with mixed denominators."""
    vals = {v: Fraction(rng.randint(-9, 9), rng.choice((3, 5, 7, 15)))
            for v in vertices[:-1]}
    vals[vertices[-1]] = total - sum(vals.values(), Fraction(0))
    return vals


def _kernel_phis(graph, rng):
    """(phi, on_wall) pairs: single-denominator, wall and mixed-denominator."""
    yield random_phi(graph, rng), False
    vids = sorted(graph.vertex_ids)
    if len(vids) == 1:
        return
    yield random_wall_phi(graph, rng), True
    yield PhiVector(graph, _spread(vids, Fraction(0), rng)), False
    # a wall of one subcurve, with mixed denominators on both sides
    info = rng.choice(graph.subcurve_data)
    target = (rng.randint(-2, 2)
              - Fraction(len(crossing_edges(graph, info.vertices)), 2))
    outside = sorted(set(vids) - info.vertex_set)
    vals = _spread(list(info.vertices), target, rng)
    vals.update(_spread(outside, -target, rng))
    yield PhiVector(graph, vals), True
    if len(vids) >= 3:
        vals = {v: Fraction(0) for v in vids}
        vals.update(zip(vids, (Fraction(1, 3), Fraction(1, 5), Fraction(-8, 15))))
        yield PhiVector(graph, vals), False


def test_integer_kernel_matches_fraction_reference():
    rng = random.Random(2024)
    mixed = walls = 0
    for graph in stable_graph_corpus(4, 7):
        trees = spanning_tree_count(graph)
        for phi, on_wall in _kernel_phis(graph, rng):
            assert all(Fraction(phi.numerators[v], phi.q) == x
                       for v, x in phi.values.items())
            mixed += len({x.denominator for x in phi.values.values()}) > 1
            for info, s in zip(graph.subcurve_data, phi.subcurve_sums()):
                x = fraction_subcurve_sum(phi, info)
                assert Fraction(s, phi.q) == x
            nondegenerate = fraction_is_nondegenerate(graph, phi)
            if on_wall:
                assert not nondegenerate
                walls += 1
            assert is_nondegenerate(graph, phi) == nondegenerate
            assert is_small_perturbation(graph, phi) == \
                fraction_is_small_perturbation(graph, phi)
            witness = find_equality_witness(graph, phi)
            assert (witness is None) == nondegenerate
            if witness is not None:
                c0, deg, delta = witness
                info = subcurve_entry(graph, c0)
                assert abs(deg - fraction_subcurve_sum(phi, info)
                           + Fraction(delta, 2)) \
                    == Fraction(len(crossing_edges(graph, c0))
                                - delta, 2)
            else:
                # exercises the integer singleton windows of stable_sheaf_data
                assert len(stable_sheaf_data(graph, phi, 0)) == trees
    assert mixed > 3000 and walls > 2000


class TestStability:
    def test_vine_consecutive_bidegrees(self):
        g = vine_graph(2)
        phi = vine_phi2(g, Fraction(3, 10))
        assert is_stable(g, phi, SheafDatum(g, (), {0: 0, 1: 0}))
        assert is_stable(g, phi, SheafDatum(g, (), {0: 1, 1: -1}))
        assert not is_stable(g, phi, SheafDatum(g, (), {0: 2, 1: -2}))

    def test_separating_edge_unique_bidegree(self):
        g = vine_graph(1, S=(1,), g1=1, g2=1)
        for x, nearest in [(Fraction(1, 5), 0), (Fraction(4, 5), 1),
                           (Fraction(-13, 10), -1)]:
            phi = vine_phi2(g, x)
            for t in range(-3, 4):
                F = SheafDatum(g, (), {0: t, 1: -t})
                assert is_stable(g, phi, F) == (t == nearest)

    def test_nonfree_datum_stable(self):
        g = vine_graph(2)
        phi = vine_phi2(g, Fraction(3, 10))
        F = SheafDatum(g, {0}, {0: 0, 1: -1})
        assert total_degree(F) == 0
        assert is_stable(g, phi, F)

    def test_unknown_edge_id(self):
        g = vine_graph(2)
        with pytest.raises(UnknownEdgeError):
            SheafDatum(g, {99}, {0: 0, 1: 0})

    def test_unknown_edge_ids_listed(self):
        g = vine_graph(2)
        with pytest.raises(UnknownEdgeError,
                           match=r"unknown edge ids in S: \[7, 99\]$"):
            SheafDatum(g, {99, 1, 7}, {0: 0, 1: 0})

    @pytest.mark.parametrize("D", [{0: 0}, {0: 0, 1: 0, 2: 0}, {0: 0, 2: 0},
                                   {}])
    def test_multidegree_must_cover_exactly_the_vertices(self, D):
        g = vine_graph(2)
        with pytest.raises(MismatchedGraphError, match="multidegree"):
            SheafDatum(g, (), D)

    @pytest.mark.parametrize("degree", [0.5, 0.0, True, "-1", Fraction(1)],
                             ids=repr)
    def test_degrees_must_be_ints(self, degree):
        # refused, not truncated or converted: 0.5 used to read as 0, True
        # as 1 and "-1" as -1
        g = vine_graph(2)
        with pytest.raises(PreconditionError, match="degrees must be "
                           "integers"):
            SheafDatum(g, (), {0: degree, 1: 0})

    def test_single_vertex_vacuously_stable(self):
        g = DualGraph.build([(0, 1, (1,))], [(0, 0)], 1)
        phi = PhiVector(g, {0: Fraction(0)})
        assert is_stable(g, phi, SheafDatum(g, (), {0: 17}))

    def test_semistable_equals_stable_when_nondegenerate(self):
        rng = random.Random(3)
        for graph in stable_graph_corpus(max_vertices=3, max_edges=5)[:80]:
            phi = random_nondegenerate_phi(graph, rng)
            for F in stable_sheaf_data(graph, phi, 0, include_nonfree=True):
                assert reference_is_semistable(graph, phi, F)
            # and a non-stable datum is also not semistable
            vid = graph.vertex_ids[0]
            D = {v: 0 for v in graph.vertex_ids}
            D[vid] += 5
            if len(graph.vertex_ids) > 1:
                D[graph.vertex_ids[1]] -= 5
                F = SheafDatum(graph, (), D)
                assert is_stable(graph, phi, F) == \
                    reference_is_semistable(graph, phi, F)


class TestAdditivity:
    def test_degree_additivity(self):
        rng = random.Random(11)
        for graph in stable_graph_corpus(max_vertices=4, max_edges=6)[::17]:
            if len(graph.vertices) == 1:
                continue
            eids = graph.edge_order
            S = frozenset(rng.sample(eids, k=rng.randint(0, len(eids))))
            D = {v: rng.randint(-3, 3) for v in graph.vertex_ids}
            F = SheafDatum(graph, S, D)

            def degree_on(vertices):
                return sum(D[v] for v in vertices) \
                    + len(S & internal_edges(graph, vertices))

            for info in graph.subcurve_data:
                rest = set(graph.vertex_ids) - info.vertex_set
                delta = len(S & crossing_edges(graph, info.vertices))
                assert degree_on(info.vertices) + degree_on(rest) + delta \
                    == total_degree(F)
                # the kernel's masks give the same degree and delta
                assert sum(F.D[v] for v in info.vertices) \
                    + (F.mask & info.internal_mask).bit_count() \
                    == degree_on(info.vertices)
                assert (F.mask & info.crossing_mask).bit_count() == delta


def test_equality_witness_matches_reference_scan():
    # the stepped scan returns the very witness of the per-degree scan, on
    # random draws (mostly off the walls) and on wall draws
    rng = random.Random(32)
    phis = witnessed = 0
    for graph in stable_graph_corpus(4, 7):
        for k in range(20):
            phi = (random_wall_phi(graph, rng) if k % 5 == 4
                   else random_phi(graph, rng))
            if phi is None:
                continue
            witness = find_equality_witness(graph, phi)
            assert witness == reference_equality_witness(graph, phi)
            phis += 1
            witnessed += witness is not None
    assert phis >= 20_000 and witnessed >= 7_000


def test_stable_data_move_with_integer_shifts():
    # an integer t of total 0 moves deg_C0 and phi(C0) by t(C0) and leaves
    # delta alone, so the stable data of phi + t are those of phi with
    # every D moved to D + t, free and non-free alike
    rng = random.Random(13)
    compared = 0
    for graph in stable_graph_corpus(4, 7)[::3]:
        vids = graph.vertex_ids
        if len(vids) < 2:
            continue
        phi = random_nondegenerate_phi(graph, rng)
        t = [rng.randint(-3, 3) for _ in vids[1:]]
        t = dict(zip(vids, t + [-sum(t)]))
        shifted = PhiVector(graph, {v: x + t[v] for v, x in phi.values.items()})
        for nonfree in (False, True):
            moved = [(F.S, {v: d + t[v] for v, d in F.D.items()})
                     for F in stable_sheaf_data(graph, phi, 0, nonfree)]
            assert moved
            assert [(F.S, F.D) for F in
                    stable_sheaf_data(graph, shifted, 0, nonfree)] == moved
            compared += 1
    assert compared >= 600


class TestNondegeneracy:
    def test_vine_e2_half(self):
        g = vine_graph(2)
        assert is_nondegenerate(g, vine_phi2(g, Fraction(1, 2)))

    def test_vine_e2_zero_is_wall(self):
        g = vine_graph(2)
        phi = vine_phi2(g, 0)
        assert not is_nondegenerate(g, phi)
        witness = find_equality_witness(g, phi)
        assert witness is not None
        c0, deg, delta = witness
        assert abs(deg - phi_on(phi, c0) + Fraction(delta, 2)) \
            == Fraction(2 - delta, 2)

    def test_vine_e1_zero_not_wall(self):
        g = vine_graph(1, g1=1)
        assert is_nondegenerate(g, vine_phi2(g, 0))

    def test_closed_form_matches_bruteforce(self):
        rng = random.Random(5)
        for graph in stable_graph_corpus(max_vertices=4, max_edges=6)[::13]:
            for _ in range(10):
                phi = random_phi(graph, rng)
                assert is_nondegenerate(graph, phi) == \
                    (find_equality_witness(graph, phi) is None)


class TestSmallPerturbation:
    def test_vine_examples(self):
        g = vine_graph(2)
        assert is_small_perturbation(g, vine_phi2(g, Fraction(3, 10)))
        assert not is_small_perturbation(g, vine_phi2(g, 1))

    def test_zero_is_small_but_degenerate(self):
        g = vine_graph(2)
        phi = vine_phi2(g, 0)
        assert is_small_perturbation(g, phi)
        assert not is_nondegenerate(g, phi)

    def test_small_perturbation_equivalence_examples(self):
        g2 = vine_graph(2)
        phi = vine_phi2(g2, Fraction(3, 10))
        assert is_small_perturbation(g2, phi)
        assert equivalent_small_perturbation_check(g2, phi)

        g1 = vine_graph(1, g1=1)
        phi = vine_phi2(g1, Fraction(3, 4))
        assert not is_small_perturbation(g1, phi)
        assert not equivalent_small_perturbation_check(g1, phi)

        tri = DualGraph.build([(0, 1, (1,)), (1, 1, ()), (2, 1, ())],
                              [(0, 1), (1, 2), (0, 2)], 1)
        zero = PhiVector(tri, {0: 0, 1: 0, 2: 0})
        assert is_small_perturbation(tri, zero)
        assert equivalent_small_perturbation_check(tri, zero)


CORPUS_SMALL = stable_graph_corpus(max_vertices=3, max_edges=5)


@settings(max_examples=150, deadline=None)
@given(index=st.integers(0, len(CORPUS_SMALL) - 1), seed=st.integers(0, 2**30))
def test_small_perturbation_equivalence_property(index, seed):
    graph = CORPUS_SMALL[index]
    phi = random_phi(graph, random.Random(seed))
    assert is_small_perturbation(graph, phi) == \
        equivalent_small_perturbation_check(graph, phi)


class TestStableSheafData:
    def test_vine_e2_line_bundles(self):
        g = vine_graph(2)
        data = stable_sheaf_data(g, vine_phi2(g, Fraction(3, 10)), 0)
        assert [F.key for F in data] == [((), (0, 0)), ((), (1, -1))]

    def test_vine_e1_unique_datum(self):
        g = vine_graph(1, g1=1)
        data = stable_sheaf_data(g, vine_phi2(g, Fraction(1, 5)), 0,
                                 include_nonfree=True)
        assert len(data) == 1
        assert data[0].key == ((), (0, 0))

    def test_banana_matches_tree_count(self):
        from jacstab.graph import spanning_tree_count

        g = vine_graph(3)
        data = stable_sheaf_data(g, vine_phi2(g, Fraction(1, 7)), 0)
        assert len(data) == 3 == spanning_tree_count(g)

    def test_degenerate_refused(self):
        g = vine_graph(2)
        with pytest.raises(DegenerateParameterError):
            stable_sheaf_data(g, vine_phi2(g, 0), 0)

    def test_nonzero_total_degree(self):
        # phi sums to zero, so stable totals stay near zero: d=1 is the
        # largest feasible total here and every returned datum has it
        g = vine_graph(2)
        phi = vine_phi2(g, Fraction(3, 10))
        data = stable_sheaf_data(g, phi, 1, include_nonfree=True)
        assert data
        for F in data:
            assert total_degree(F) == 1
        assert stable_sheaf_data(g, phi, 5, include_nonfree=True) == []

    @pytest.mark.parametrize("d", [0.0, True, Fraction(1, 2), Fraction(0),
                                   "0"], ids=repr)
    @pytest.mark.parametrize("include_nonfree", [False, True])
    def test_total_degree_must_be_an_int(self, d, include_nonfree):
        # 0.0 used to give float degrees, True the degree-1 data and 1/2
        # an empty list
        g = vine_graph(2)
        with pytest.raises(PreconditionError, match="total degree must be "
                           "an integer"):
            stable_sheaf_data(g, vine_phi2(g, Fraction(3, 10)), d,
                              include_nonfree)

    def test_nonfree_edge_ceiling_fails_fast(self):
        e = MAX_NONFREE_EDGES + 1
        g = vine_graph(e)
        phi = vine_phi2(g, Fraction(1, 3))
        assert len(stable_sheaf_data(g, phi, 0)) == e  # line bundles still run
        start = time.monotonic()
        with pytest.raises(InvalidGraphError, match="%d edges" % e):
            stable_sheaf_data(g, phi, 0, include_nonfree=True)
        assert time.monotonic() - start < 1

    def test_edge_id_permutation_invariance(self):
        # permuting ids within a parallel class changes nothing
        g = vine_graph(3)
        phi = vine_phi2(g, Fraction(1, 7))
        keys = {F.key[1] for F in
                stable_sheaf_data(g, phi, 0, include_nonfree=True)}
        relabeled = DualGraph.build([(0, 0, (1,)), (1, 1, ())],
                                    [(0, 1)] * 3, 1)
        phi2 = vine_phi2(relabeled, Fraction(1, 7))
        keys2 = {F.key[1] for F in
                 stable_sheaf_data(relabeled, phi2, 0, include_nonfree=True)}
        assert keys == keys2


class TestSupportLemma:
    def test_vine_examples(self):
        g = vine_graph(2)
        assert verify_support_lemma(g, vine_phi2(g, Fraction(3, 10))) is True
        g3 = vine_graph(3)
        assert verify_support_lemma(g3, vine_phi2(g3, Fraction(1, 7))) is True

    def test_precondition_enforced(self):
        g = vine_graph(2)
        with pytest.raises(PreconditionError):
            verify_support_lemma(g, vine_phi2(g, Fraction(6, 5)))
        with pytest.raises(PreconditionError):
            verify_support_lemma(g, vine_phi2(g, 0))

    def test_degenerate_phi_raises_degenerate_parameter_error(self):
        # 0 is small on a two-edge vine but lies on a wall; the search's one
        # nondegeneracy test refuses it, as a PreconditionError
        g = vine_graph(2)
        with pytest.raises(DegenerateParameterError) as info:
            verify_support_lemma(g, vine_phi2(g, 0))
        assert isinstance(info.value, PreconditionError)


def t_stable_phi(vine, t, seed):
    """phi(side 1) = t + eps, eps the first draw of the seed's epsilon
    stream, which is off the walls and makes the bundle (t, -t) stable."""
    return vine_phi(vine, t + next(epsilon_stream(seed)))


def test_first_epsilon_is_admissible_for_every_class():
    # the construct_prop_phi docstring's proof, checked: for each of the 997
    # starting eps and every (e, m) class, m/2 + eps passes all three checks
    starts = [next(epsilon_stream(k)) for k in range(997)]
    cases = 0
    for e in range(2, 10):
        vine = make_vine(0, 0, e, (1,), 2)
        for m in (-1, 0, 1):
            for eps in starts:
                phi = vine_phi(vine, Fraction(m, 2) + eps)
                graph = phi.graph
                bundle = SheafDatum(graph, frozenset(), {0: m, 1: -m})
                assert is_nondegenerate(graph, phi), (e, m, eps)
                assert is_small_perturbation(graph, phi), (e, m, eps)
                assert is_stable(graph, phi, bundle), (e, m, eps)
                cases += 1
    assert cases == 997 * 8 * 3 == 23_928
    assert max(starts) == Fraction(1, 200)


class TestMakeTStablePhi:
    @pytest.mark.parametrize("e,t", [(2, 5), (2, 0), (4, -3)])
    def test_target_bidegree_stable(self, e, t):
        vine = make_vine(1, max(1, e - 1), e, (1,), 1)
        phi = t_stable_phi(vine, t, seed=0)
        g = vine.to_graph()
        assert is_nondegenerate(g, phi)
        assert is_stable(g, phi, SheafDatum(g, (), {0: t, 1: -t}))
        # |t - phi(side 1)| < e/2 already at the first draw
        assert phi.values[0] == t + Fraction(1, 200)

    def test_epsilon_stream_values(self):
        # 1/(100 p) over the primes from the (seed % 997 + 1)-th on
        draws = epsilon_stream(0)
        assert [next(draws) for _ in range(3)] == \
            [Fraction(1, 200), Fraction(1, 300), Fraction(1, 500)]
        draws = epsilon_stream(996)
        first_50 = [next(draws) for _ in range(50)]
        assert first_50[0] == Fraction(1, 788300)
        assert first_50[49] == Fraction(1, 835300)

    @pytest.mark.parametrize("seed", [0.9, "0", True])
    def test_epsilon_stream_refuses_non_int_seed(self, seed):
        # int() would read these as 0, 0 and 1: the seed must be an int
        with pytest.raises(PreconditionError, match="seed must be an integer"):
            next(epsilon_stream(seed))

    def test_deterministic(self):
        vine = make_vine(0, 1, 2, (1,), 1)
        assert t_stable_phi(vine, 3, seed=4).values == \
            t_stable_phi(vine, 3, seed=4).values


@pytest.mark.parametrize("x", [Fraction(0), Fraction(3, 10), Fraction(-7, 4),
                               Fraction(5), "351/700"])
def test_vine_phi_matches_fraction_route(x):
    vine = make_vine(0, 1, 3, (1,), 1)
    graph = vine.to_graph()
    phi = vine_phi(vine, x)
    x = exact_rational(x)
    ref = PhiVector(graph, {0: x, 1: -x})
    assert phi.graph is graph
    assert (phi.q, phi.numerators, phi.values) == \
        (ref.q, ref.numerators, ref.values)


def test_serialization_round_trip():
    g = vine_graph(2)
    phi = vine_phi2(g, Fraction(3, 10))
    assert phi_from_dict(g, phi_to_dict(phi)).values == phi.values
    F = SheafDatum(g, {1}, {0: 2, 1: -3})
    assert datum_to_dict(F) == {"S": [1], "D": {"0": 2, "1": -3}}
