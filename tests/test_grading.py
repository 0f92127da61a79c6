import random
from fractions import Fraction
from itertools import product

import pytest

from nilcone import grading as gr
from nilcone import realform as rf
from nilcone import rootdata as rd
from nilcone.errors import InputError, OddGradingError, OutOfScopeError


def _form(name):
    rs, eps = rf.standard_form_catalog(name)
    return rs, eps


def test_grade_su11():
    rs, eps = _form("su(1,1)")
    gd = gr.grade(rs, eps, (2,))
    assert [r.coords for r in gd.u_cap_p] == [(1,)]
    assert gd.u_cap_k == ()
    assert gd.dims(2) == (0, 1) and gd.dims(-2) == (0, 1) and gd.dims(0) == (1, 0)


def test_grade_su21():
    rs, eps = _form("su(2,1)")
    gd = gr.grade(rs, eps, (2, 2))
    assert {r.coords for r in gd.u_cap_p} == {(1, 0), (0, 1)}
    assert [r.coords for r in gd.u_cap_k] == [(1, 1)]
    assert gd.dims(2) == (0, 2) and gd.dims(4) == (1, 0)
    assert {r.coords for r in gd.p2_roots} == {(1, 0), (0, 1)}


def test_grade_refuses_a_non_integer_entry():
    # an entry is never truncated: 2.5 and 5/2 are not the grading (2, 2)
    rs, eps = _form("su(2,1)")
    for h in ((2.5, 2), (Fraction(5, 2), 2), ("2", 2), (None, 2)):
        with pytest.raises(InputError):
            gr.grade(rs, eps, h)
    assert gr.grade(rs, eps, [2, 2]).H.h_values == (2, 2)


def test_grade_zero_element():
    rs, eps = _form("su(2,1)")
    gd = gr.grade(rs, eps, (0, 0))
    assert gd.u_cap_p == gd.u_cap_k == ()
    assert gd.dims(0) == (4, 4)


def test_grade_rejects_odd_and_bad_length():
    rs, eps = _form("su(1,1)")
    with pytest.raises(OddGradingError):
        gr.grade(rs, eps, (1,))
    with pytest.raises(InputError):
        gr.grade(rs, eps, (2, 2))
    # odd degrees are fine when the even restriction is lifted
    gd = gr.grade(rs, eps, (1,), require_even=False)
    assert gd.dims(1) == (0, 1)


def test_grade_accepts_opposite_chamber():
    rs, eps = _form("su(1,1)")
    gd = gr.grade(rs, eps, (-2,))
    assert [r.coords for r in gd.u_cap_p] == [(-1,)]


def test_graded_symmetry_over_catalog():
    forms = ["su(1,1)", "su(2,1)", "su(2,2)", "su(3,2)", "sp(4,R)",
             "sp(1,1)", "so*(6)"]
    for name in forms:
        rs, eps = _form(name)
        for h in product(range(3), repeat=rs.rank):
            gd = gr.grade(rs, eps, h, require_even=False)
            for d in gd.degrees:
                assert gd.dims(d) == gd.dims(-d)


def test_bracket_closure_respects_degrees_and_signs():
    rs, eps = _form("su(2,1)")
    gd = gr.grade(rs, eps, (2, 2))
    for a in rs.all_roots():
        for b in rs.all_roots():
            s = rd.Root(tuple(x + y for x, y in zip(a.coords, b.coords)))
            if rs.is_root(s):
                assert gd.degree_of(s) == gd.degree_of(a) + gd.degree_of(b)
                assert eps.sign(s) == eps.sign(a) * eps.sign(b)


def test_parabolic_contains_positive_roots():
    for name in ["su(2,1)", "su(2,2)", "sp(4,R)", "so*(6)"]:
        rs, eps = _form(name)
        for h in product(range(0, 3, 2), repeat=rs.rank):
            gd = gr.grade(rs, eps, h)
            gr.parabolic(gd)  # raises ConsistencyError if q misses one
            assert all(gd.degree_of(r) >= 0 for r in rs.positive_roots)


def test_canonical_weight_pins():
    rs, eps = _form("su(1,1)")
    pd = gr.parabolic(gr.grade(rs, eps, (2,)))
    assert pd.two_rho_u_p == rd.weight(2)
    assert pd.two_rho_u_k == rd.weight(0)
    assert pd.canonical_weight == rd.weight(2)

    rs, eps = _form("su(2,1)")
    pd = gr.parabolic(gr.grade(rs, eps, (2, 2)))
    assert pd.two_rho_u_p == rd.weight(1, 1)
    assert pd.two_rho_u_k == rd.weight(1, 1)
    assert pd.canonical_weight == rd.weight(0, 0)


def test_canonical_weight_compact_specialization():
    rs = rd.build_root_system("A", 2)
    eps = rf.EqualRankInvolution((1, 1))
    for h in [(2, 0), (2, 2), (0, 2)]:
        pd = gr.parabolic(gr.grade(rs, eps, h))
        assert pd.two_rho_u_p == rd.weight(0, 0)
        assert pd.canonical_weight == -pd.two_rho_u_k


def test_conormal_weight_matches_parabolic_and_allows_odd():
    rs, eps = _form("su(2,1)")
    pd = gr.parabolic(gr.grade(rs, eps, (2, 2)))
    assert gr.conormal_canonical_weight(rs, eps, (2, 2)) == pd.canonical_weight
    # an odd grading is fine for the conormal statement
    w = gr.conormal_canonical_weight(rs, eps, (1, 1))
    assert w == rd.weight(0, 0)


def test_is_qk_dominant_examples():
    rs, eps = _form("su(2,1)")
    gd = gr.grade(rs, eps, (2, 2))
    pd = gr.parabolic(gd)
    kd = gd.k_root_datum()
    assert gr.is_QK_dominant(rd.weight(0, 0), pd, kd)
    assert pd.simple_l_k_roots == ()  # the Levi meets k in the torus only
    assert gr.is_QK_dominant(rs.root_fw(rs.simple_roots[0]), pd, kd)

    rs2 = rd.build_root_system("A", 2)
    eps2 = rf.EqualRankInvolution((1, 1))
    gd2 = gr.grade(rs2, eps2, (2, 0))
    pd2 = gr.parabolic(gd2)
    kd2 = gd2.k_root_datum()
    assert [r.coords for r in pd2.simple_l_k_roots] == [(0, 1)]
    assert not gr.is_QK_dominant(rd.weight(0, 1), pd2, kd2)
    assert gr.is_QK_dominant(rd.weight(0, 0), pd2, kd2)
    assert gr.is_QK_dominant(rd.weight(1, 0), pd2, kd2)


_TABLE_A_FORMS = ("su(1,1)", "su(2,1)", "sp(4,R)", "su(2,2)", "su(3,1)", "sp(6,R)",
                  "su(3,2)", "so*(8)", "su(4,2)", "su(3,3)", "so*(10)", "sp(2,2)",
                  "sp(8,R)")


def _qk_dominant_by_pairing(lam, pd, kd):
    """Reference: is_QK_dominant as it ran on rs.pairing (Fractions for
    half-integral pairings)."""
    for b in kd.simple_roots:
        if kd.rs.pairing(lam, b) < 0:
            return False
    for b in pd.simple_l_k_roots:
        if kd.rs.pairing(lam, b) != 0:
            return False
    return True


@pytest.mark.parametrize("name", _TABLE_A_FORMS)
def test_qk_dominance_matches_the_pairing_version(name):
    # the integral +-2 box and seeded half-integral twists at the form's
    # presentation, or at three gradings of a searched form, H = 0 (whose
    # Levi holds every simple root of K) among them
    rs, eps = rf.standard_form_catalog(name)
    try:
        presentations = [rf.principal_presentation(name)[1:]]
    except OutOfScopeError:
        presentations = [(eps, h) for h in ((0,) * rs.rank, (2,) + (0,) * (rs.rank - 1),
                                            (0,) * (rs.rank - 1) + (2,))]
    rng = random.Random(name)
    levi_refused = 0
    for eps, h in presentations:
        gd = gr.grade(rs, eps, h)
        kd, pd = gd.k_root_datum(), gr.parabolic(gd)
        lams = [rd.Weight(c) for c in product(range(-2, 3), repeat=rs.rank)]
        lams += [rd._weight_of(tuple(rng.randint(-5, 5) for _ in range(rs.rank)))
                 for _ in range(200)]
        for lam in lams:
            want = _qk_dominant_by_pairing(lam, pd, kd)
            assert gr.is_QK_dominant(lam, pd, kd) is want
            levi_refused += kd.is_dominant(lam) and not want
    # K-dominant twists that a Levi root refuses: every form but su(1,1)
    # (K a torus) and the pinned forms whose Levi meets k in the torus
    assert (levi_refused > 0) is (name not in ("su(1,1)", "su(2,1)", "sp(4,R)",
                                               "su(2,2)"))


def test_k_root_datum_is_built_once_on_demand(monkeypatch):
    # a grading search grades many H and builds no K; parabolic and the
    # series reuse the K of their graded decomposition
    from nilcone import series as se
    built = []
    k_root_datum = gr.k_root_datum
    monkeypatch.setattr(gr, "k_root_datum",
                        lambda cd: built.append(cd) or k_root_datum(cd))
    rs, eps = _form("su(2,2)")
    assert len(gr.search_even_gradings(rs, eps, lambda gd: True)) > 1
    assert built == []
    gd = gr.grade(rs, eps, (0, 2, 0))
    assert built == []
    kd = gd.k_root_datum()
    gr.parabolic(gd)
    assert len(list(se.verify_vanishing_box([rd.weight(0, 0, 0), rd.weight(1, 0, 1)],
                                            gd, kd, 2))) == 2
    assert len(built) == 1 and gd.k_root_datum() is kd


def test_parabolic_data_is_built_once_per_grading(monkeypatch):
    # every vanishing call reads the parabolic data of its graded
    # decomposition; the first build serves them all, and a fresh grading
    # of the same H builds equal data
    from nilcone import series as se
    built = []
    data = gr.ParabolicData
    monkeypatch.setattr(gr, "ParabolicData",
                        lambda **fields: built.append(fields) or data(**fields))
    rs, eps = _form("su(2,2)")
    gd = gr.grade(rs, eps, (0, 2, 0))
    kd = gd.k_root_datum()
    pd = gr.parabolic(gd)
    for lam in (rd.weight(0, 0, 0), rd.weight(1, 0, 1)):
        assert se.verify_vanishing(lam, gd, kd, 2).status == se.PASS
    assert len(built) == 1 and gr.parabolic(gd) is pd
    assert gr.parabolic(gr.grade(rs, eps, (0, 2, 0))) == pd


@pytest.mark.parametrize("name", ["su(3,1)", "so*(6)", "sp(1,2)", "sp(6,R)", "su(3,2)"])
def test_grade_layers_over_the_search_box(name):
    # every H of the search box, odd ones too, graded from the stored root
    # list and from roots negated afresh
    rs, eps = _form(name)
    roots = tuple(rs.positive_roots) + tuple(rd.Root(tuple(-c for c in r.coords))
                                             for r in rs.positive_roots)
    for h in product(range(3), repeat=rs.rank):
        layers = {}
        for r in roots:
            deg = sum(c * x for c, x in zip(r.coords, h))
            layers.setdefault(deg, ([], []))[eps.sign(r) != 1].append(r)
        layers = {d: (tuple(k), tuple(p)) for d, (k, p) in layers.items()}
        layers.setdefault(0, ((), ()))
        assert gr.grade(rs, eps, h, require_even=False).layers == layers


def test_search_compact_form_is_empty():
    rs = rd.build_root_system("A", 2)
    eps = rf.EqualRankInvolution((1, 1))
    assert gr.search_even_gradings(rs, eps, lambda gd: True) == []


def test_search_su11():
    rs, eps = _form("su(1,1)")
    hits = gr.search_even_gradings(rs, eps, lambda gd: True)
    assert [(h.H.h_values, h.confirmed) for h in hits] == [((2,), True)]
