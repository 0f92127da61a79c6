import json
import random
from fractions import Fraction

import pytest

from nilcone import cli
from nilcone import grading as gr
from nilcone import linalg as la
from nilcone import oracle as oc
from nilcone import realform as rf
from nilcone import rootdata as rd
from nilcone.errors import InputError

F = Fraction


def _mat(rows):
    return la.frac_matrix(rows)


# -- realizations ------------------------------------------------------------------

@pytest.mark.parametrize("name,kdim,pdim", [
    ("su(1,1)", 1, 2),
    ("su(2,1)", 4, 4),
    ("su(2,2)", 7, 8),
    ("sp(4,R)", 4, 6),
    ("sp(1,1)", 6, 4),
    ("so*(6)", 9, 6),
])
def test_realize_dims_match_catalog(name, kdim, pdim):
    real = oc.realize(name)
    assert (real.k_dim, real.p_dim) == (kdim, pdim)
    cd = rf.cartan_decomposition(real.rs, real.eps)
    assert (cd.k_dim, cd.p_dim) == (kdim, pdim)


def test_su11_model_is_two_by_two():
    real = oc.realize("su(1,1)")
    assert real.msize == 2 and real.dim == 3
    e12 = real.root_vector(real.rs.simple_roots[0])
    assert e12 == _mat([[0, 1], [0, 0]])
    assert real.in_p(e12)


def test_p_coords_are_the_p_entries_of_coords():
    real = oc.realize("su(2,1)")
    assert (len(real.k_index), len(real.p_index)) == (4, 4)
    compact = real.root_vector(rd.Root((1, 1)))
    assert real.in_k(compact) and real.p_coords(compact) is None
    assert real.p_coords(real.cartan_mats[0]) is None
    assert real.p_coords(la.identity(3)) is None  # not in g
    x = la.mat_add(real.root_vector(real.rs.simple_roots[0]),
                   la.mat_scale(3, real.root_vector(real.rs.simple_roots[1])))
    c = real.coords(x)
    assert real.p_coords(x) == [c[i] for i in real.p_index]
    assert la.mat_eq(real.from_p_coords(real.p_coords(x)), x)
    mixed = la.mat_add(x, compact)
    assert real.coords(mixed) is not None and real.p_coords(mixed) is None


def test_theta_is_involutive_automorphism():
    real = oc.realize("sp(4,R)")
    rng = random.Random(2)
    for _ in range(5):
        a = real.from_coords([F(rng.randint(-3, 3)) for _ in range(real.dim)])
        b = real.from_coords([F(rng.randint(-3, 3)) for _ in range(real.dim)])
        assert la.mat_eq(real.theta(real.theta(a)), a)
        lhs = real.theta(la.commutator(a, b))
        rhs = la.commutator(real.theta(a), real.theta(b))
        assert la.mat_eq(lhs, rhs)


# -- sl(2) triples -----------------------------------------------------------------

def test_jm_triple_sl2_pin():
    real = oc.realize("su(1,1)")
    x = _mat([[0, 1], [0, 0]])
    t = oc.jm_triple(real, x)
    assert t.H == _mat([[1, 0], [0, -1]])
    assert t.Y == _mat([[0, 0], [1, 0]])


def test_jm_triple_sl3_principal_pin():
    real = oc.realize("su(2,1)")
    x = la.mat_add(real.root_vector(real.rs.simple_roots[0]),
                   real.root_vector(real.rs.simple_roots[1]))
    t = oc.jm_triple(real, x)
    assert t.H == _mat([[2, 0, 0], [0, 0, 0], [0, 0, -2]])
    assert t.Y == _mat([[0, 0, 0], [2, 0, 0], [0, 2, 0]])
    assert t.bracket_identities_hold(real)


def test_jm_triple_rejects_bad_input():
    real = oc.realize("su(1,1)")
    with pytest.raises(InputError):
        oc.jm_triple(real, la.zeros(2, 2))
    with pytest.raises(InputError):
        oc.jm_triple(real, _mat([[1, 0], [0, -1]]))  # semisimple, not nilpotent


def test_ks_normalize_fixed_point_and_random():
    real = oc.realize("su(1,1)")
    t = oc.jm_triple(real, _mat([[0, 1], [0, 0]]))
    n1 = oc.ks_normalize(real, t)
    n2 = oc.ks_normalize(real, n1)
    assert n1.H == n2.H and n1.Y == n2.Y  # idempotent on normalized triples
    assert n1.normalized_identities_hold(real)

    rng = random.Random(5)
    real2 = oc.realize("su(2,1)")
    for _ in range(5):
        x = oc.random_nilpotent(real2, rng)
        norm = oc.ks_normalize(real2, oc.jm_triple(real2, x))
        assert norm.normalized_identities_hold(real2)


def test_ks_normalize_requires_x_in_p():
    real = oc.realize("su(2,1)")
    x = real.root_vector(rd.Root((1, 1)))  # compact root vector
    t = oc.jm_triple(real, x)
    with pytest.raises(InputError):
        oc.ks_normalize(real, t)


# -- gradings and orbits -----------------------------------------------------------

def test_ad_grading_dims_su11():
    real = oc.realize("su(1,1)")
    h = real.cartan_element_from_h((2,))
    assert oc.ad_grading_dims(real, h) == {2: (0, 1), 0: (1, 0), -2: (0, 1)}
    assert oc.ad_grading_dims(real, la.zeros(2, 2)) == {0: (1, 2)}


def test_ad_grading_dims_rejects_non_integral():
    real = oc.realize("su(1,1)")
    h = _mat([[F(1, 3), 0], [0, F(-1, 3)]])
    with pytest.raises(InputError):
        oc.ad_grading_dims(real, h)


def test_ad_grading_dims_rejects_a_nilpotent():
    real = oc.realize("su(1,1)")
    e12 = real.root_vector(real.rs.simple_roots[0])  # not semisimple
    with pytest.raises(InputError):
        oc.ad_grading_dims(real, e12)


def test_ad_grading_matches_combinatorial_grading():
    cases = [(oc.realize("su(1,1)"), (2,)), (oc.realize("su(2,1)"), (2, 2))]
    # every confirmed hit of the even-grading search
    for name in ("sp(4,R)", "su(2,2)", "su(3,1)", "so*(6)", "sp(6,R)"):
        real = oc.realize(name)
        hits = [hit for hit in gr.search_even_gradings(
            real.rs, real.eps, confirm=oc.dense_confirmer(real, 7)) if hit.confirmed]
        assert hits, name
        cases += [(real, hit.H.h_values) for hit in hits]
    for real, h in cases:
        gd = gr.grade(real.rs, real.eps, h)
        hm = real.cartan_element_from_h(h)
        ok, detail = oc.verify_grading_dims(real, hm, gd)
        assert ok, (real.name, h, detail)


def test_orbit_dimension_values():
    real = oc.realize("su(1,1)")
    assert oc.orbit_dimension(real, _mat([[0, 1], [0, 0]])) == 1
    assert oc.orbit_dimension(real, la.zeros(2, 2)) == 0
    real2 = oc.realize("su(2,1)")
    _, x = oc.pinned_principal(real2, (2, 2))
    assert oc.orbit_dimension(real2, x) == 3


def test_dense_orbit_checks():
    real = oc.realize("su(1,1)")
    h, x = oc.pinned_principal(real, (2,))
    assert oc.dense_orbit_check(real, h, x)
    assert not oc.dense_orbit_check(real, h, la.zeros(2, 2))

    real2 = oc.realize("su(2,1)")
    h2, x2 = oc.pinned_principal(real2, (2, 2))
    assert oc.dense_orbit_check(real2, h2, x2)
    single = real2.root_vector(real2.rs.simple_roots[0])
    assert not oc.dense_orbit_check(real2, h2, single)


@pytest.mark.parametrize("name,dim", [
    ("su(1,1)", 1), ("su(2,1)", 3), ("su(2,2)", 6), ("sp(4,R)", 4),
])
def test_nilcone_dimension(name, dim):
    real = oc.realize(name)
    assert oc.nilcone_dimension(real, 7) == dim


def test_principal_search_certified():
    real = oc.realize("su(2,1)")
    x = oc.principal_nilpotent_search(real, 7)
    assert oc.orbit_dimension(real, x) == 3


def test_principal_search_rejects_compact():
    real = oc.realize("su(1,1)", eps=(1,))
    assert real.p_dim == 0
    with pytest.raises(InputError):
        oc.principal_nilpotent_search(real, 7)


def test_random_nilpotents_are_nilpotent_p_elements():
    rng = random.Random(9)
    for name in ["su(2,1)", "sp(4,R)"]:
        real = oc.realize(name)
        for _ in range(10):
            x = oc.random_nilpotent(real, rng)
            assert real.in_p(x)
            assert oc._is_nilpotent(real, x)


# -- coordinate rings --------------------------------------------------------------

def test_coordinate_ring_su11_line():
    real = oc.realize("su(1,1)")
    x = real.root_vector(real.rs.simple_roots[0])
    assert oc.coordinate_ring_dims(real, x, 3, 7) == [1, 1, 1, 1]


def test_coordinate_ring_zero_is_point():
    real = oc.realize("su(1,1)")
    assert oc.coordinate_ring_dims(real, la.zeros(2, 2), 3, 7) == [1, 0, 0, 0]


def test_coordinate_ring_su21_pinned_and_seed_stable():
    # values pinned from the first oracle runs; two seeds must agree
    real = oc.realize("su(2,1)")
    _, x = oc.pinned_principal(real, (2, 2))
    assert oc.coordinate_ring_dims(real, x, 4, 7) == [1, 4, 9, 16, 25]
    assert oc.coordinate_ring_dims(real, x, 4, 11) == [1, 4, 9, 16, 25]


def test_closure_membership_certificates():
    real = oc.realize("su(1,1)")
    e12 = real.root_vector(real.rs.simple_roots[0])
    e21 = real.root_vector(-real.rs.simple_roots[0])
    ref = oc.ClosureReference(real, e12, 2, 7)
    assert oc.not_in_closure_certificate(ref, e21)
    doubled = la.mat_scale(2, e12)
    assert not oc.not_in_closure_certificate(ref, doubled)


class _DeficientRank(la.IncrementalRank):
    """One less than the true rank, and every probed row taken for a raise:
    a reduction mod p that lost a pivot, seen from outside."""

    @property
    def rank(self):
        return super().rank - 1

    def raises(self, row):
        return True


def test_exact_fallback_survives_a_deficient_tracker(monkeypatch):
    monkeypatch.setattr(la, "IncrementalRank", _DeficientRank)
    real = oc.realize("su(2,1)")
    _, x = oc.pinned_principal(real, (2, 2))
    assert oc.coordinate_ring_dims(real, x, 3, 7) == [1, 3, 8, 15]  # the fault bites

    def hilbert(form):
        report = cli.verify_form(form, kmax=3, checks=("hilbert",))
        return report["checks"][0]

    su21 = hilbert("su(2,1)")
    assert su21["verdict"] == "PASS"
    assert su21["detail"]["oracle"] == su21["detail"]["series"] == [1, 4, 9, 16]
    sp4 = hilbert("sp(4,R)")
    assert sp4["verdict"] == "EVIDENCE"
    assert sp4["detail"]["oracle"] == [1, 6, 19, 44] != sp4["detail"]["series"]

    real11 = oc.realize("su(1,1)")
    e12 = real11.root_vector(real11.rs.simple_roots[0])
    e21 = real11.root_vector(-real11.rs.simple_roots[0])
    ref = oc.ClosureReference(real11, e12, 2, 7)
    assert not oc.not_in_closure_certificate(ref, la.mat_scale(2, e12))
    assert oc.not_in_closure_certificate(ref, e21)


# -- aggregated evidence -----------------------------------------------------------

def test_canonical_weight_from_matrices_pins():
    real = oc.realize("su(1,1)")
    h, _ = oc.pinned_principal(real, (2,))
    assert oc.canonical_weight_from_matrices(real, h) == rd.weight(2)
    real2 = oc.realize("su(2,1)")
    h2, _ = oc.pinned_principal(real2, (2, 2))
    assert oc.canonical_weight_from_matrices(real2, h2) == rd.weight(0, 0)


def test_qct_evidence_su11_two_components():
    real = oc.realize("su(1,1)")
    ev = oc.qct_evidence(real, 7)
    assert ev["nilcone_dim"] == 1
    assert ev["component_count"] == 2
    assert ev["even_grading_orbit_dims"] == [((2,), 1)]


def test_dense_confirmer_drives_search():
    real = oc.realize("su(1,1)")
    hits = gr.search_even_gradings(real.rs, real.eps,
                                   confirm=oc.dense_confirmer(real))
    assert [(h.H.h_values, h.confirmed) for h in hits] == [((2,), True)]

    real2 = oc.realize("su(2,1)")
    hits2 = gr.search_even_gradings(real2.rs, real2.eps,
                                    confirm=oc.dense_confirmer(real2))
    assert ((2, 2), True) in [(h.H.h_values, h.confirmed) for h in hits2]


def test_oracle_hilbert_bounded_by_series_with_nonnormal_gap():
    # the series computes functions on the normalization; the oracle computes
    # functions on the closure itself.  They agree for su(2,1) and differ for
    # sp(4,R), whose principal component is singular in codimension one.
    from nilcone import series as se
    rs, eps, h = rf.principal_presentation("sp(4,R)")
    real = oc.realize("sp(4,R)", eps=eps)
    gd = gr.grade(rs, eps, h)
    kd = gd.k_root_datum()
    series = se.hilbert_series(gd, kd, 2)
    h_mat, x_mat = oc.pinned_principal(real, h)
    oracle_dims = oc.coordinate_ring_dims(real, x_mat, 2, 7)
    assert oracle_dims[1] <= real.p_dim
    assert all(o <= s for o, s in zip(oracle_dims, series))
    assert oracle_dims[1] < series[1]  # normalization adds a degree-one element


def test_degree_one_rank_equals_p_dim_iff_spanning():
    real = oc.realize("su(2,1)")
    _, x = oc.pinned_principal(real, (2, 2))
    assert oc.coordinate_ring_dims(real, x, 1, 7)[1] == real.p_dim  # spans p
    real11 = oc.realize("su(1,1)")
    e12 = real11.root_vector(real11.rs.simple_roots[0])
    assert oc.coordinate_ring_dims(real11, e12, 1, 7)[1] == 1 < real11.p_dim


def test_centralizer_contained_in_parabolic():
    # Lie-algebra level: g^X sits inside the nonnegative part of the grading
    for form, h in [("su(1,1)", (2,)), ("su(2,1)", (2, 2))]:
        real = oc.realize(form)
        h_mat, x_mat = oc.pinned_principal(real, h)
        adx = real.ad_matrix(x_mat)
        centralizer = la.nullspace(adx)
        identity = la.identity(real.dim)
        nonneg = [identity[i] for d, (k, p) in oc.ad_layers(real, h_mat).items()
                  if d >= 0 for i in k + p]
        span = la.Span(nonneg)
        for v in centralizer:
            assert span.contains(v)


def test_principal_search_su11_finds_a_line():
    real = oc.realize("su(1,1)")
    x = oc.principal_nilpotent_search(real, 3)
    assert oc.orbit_dimension(real, x) == 1


def test_nilcone_dimension_compact_is_zero():
    real = oc.realize("su(1,1)", eps=(1,))
    assert oc.nilcone_dimension(real, 7) == 0


# -- the integer realization layer ---------------------------------------------------

MODEL_FORMS = ("su(1,1)", "su(2,1)", "su(2,2)", "su(3,1)", "su(3,2)", "su(4,2)",
               "su(3,3)", "su(4,4)", "sp(4,R)", "sp(6,R)", "sp(8,R)", "sp(1,1)",
               "sp(1,2)", "sp(2,2)", "so*(6)", "so*(8)", "so*(10)")


def _dense_ad(real, z):
    """ad z on the basis from matrix commutators and one solve per column."""
    columns = [la.flatten(b) for b in real.basis]
    rows = [list(r) for r in zip(*columns)]
    cols = [la.solve(rows, la.flatten(la.commutator(z, b))) for b in real.basis]
    return [list(r) for r in zip(*cols)]


@pytest.mark.parametrize("name", MODEL_FORMS)
def test_ad_matrix_and_coords_against_dense_reference(name):
    real = oc.realize(name)
    rng = random.Random(name)
    vec = [F(rng.randint(-3, 3), rng.randint(1, 3)) for _ in range(real.dim)]
    z = real.from_coords(vec)
    assert real.coords(z) == vec
    assert la.mat_eq(real.from_coords(real.coords(z)), z)
    assert real.ad_matrix(z) == _dense_ad(real, z)
    one = la.identity(real.msize)
    assert real.coords(one) is None
    with pytest.raises(InputError):
        real.ad_matrix(one)


@pytest.mark.parametrize("name", MODEL_FORMS)
def test_coords_reject_matrices_outside_g(name):
    real = oc.realize(name)
    n = real.msize
    used = {(a, b) for m in real.basis for a in range(n) for b in range(n) if m[a][b]}
    for a in range(n):
        for b in range(n):
            if a != b and (a, b) not in used:  # none in sl(n)
                m = la.zeros(n, n)
                m[a][b] = F(1)
                assert real.coords(m) is None
    for root in real.roots_order:
        e = real.root_vector(root)
        entries = [(a, b) for a in range(n) for b in range(n) if e[a][b]]
        if len(entries) == 2:  # a paired sp/so root vector
            for a, b in entries:
                changed = [list(row) for row in e]
                changed[a][b] *= 2
                assert real.coords(changed) is None
                changed[a][b] = F(0)
                assert real.coords(changed) is None


def _dense_word(real, rng):
    """g and g^-1 of one group word, multiplied out as dense matrices from the
    draws sample_orbit_points makes."""
    n = real.msize
    g, gi = la.identity(n), la.identity(n)
    for _ in range(rng.randint(2, 5)):
        if rng.random() < 0.6 and real.compact_roots():
            r = rng.choice(real.compact_roots())
            c = F(rng.choice([1, 2, 3, 4]) * rng.choice([1, -1]), rng.randint(1, 3))
            e = real.root_vector(r)
            assert la.is_zero_matrix(la.mat_mul(e, e))  # exp(cE) = 1 + cE
            f = la.mat_add(la.identity(n), la.mat_scale(c, e))
            fi = la.mat_add(la.identity(n), la.mat_scale(-c, e))
        else:
            t = [rng.choice(oc._TORUS_VALUES) for _ in range(real.n_e)]
            if real.family == "sl":
                prod = F(1)
                for x in t[:-1]:
                    prod *= x
                t[-1] = 1 / prod
            else:
                t = t + [1 / x for x in t]
            f, fi = la.zeros(n, n), la.zeros(n, n)
            for j, x in enumerate(t):
                f[j][j], fi[j][j] = x, 1 / x
        g, gi = la.mat_mul(g, f), la.mat_mul(fi, gi)
    return g, gi


@pytest.mark.parametrize("name", ["su(2,1)", "su(2,2)", "sp(4,R)", "sp(1,2)",
                                  "so*(6)", "so*(8)"])
def test_sample_orbit_points_is_dense_conjugation(name):
    real = oc.realize(name)
    x = oc.random_nilpotent(real, random.Random(1))
    rng, dense, skip = (random.Random(name) for _ in range(3))
    pts = oc.sample_orbit_points(real, x, 5, rng)
    for pt in pts:
        g, gi = _dense_word(real, dense)
        assert pt == real.p_coords(la.mat_mul(g, la.mat_mul(x, gi)))
    for _ in range(5):
        oc._random_word(real, skip)  # the ClosureReference word skip
    assert rng.getstate() == dense.getstate() == skip.getstate()


def test_nilcone_dimension_is_computed_once(monkeypatch, capsys):
    calls = []
    original = oc.nilcone_dimension

    def counted(real, seed):
        calls.append(real.name)
        return original(real, seed)

    monkeypatch.setattr(oc, "nilcone_dimension", counted)
    report = cli.verify_form("su(2,1)", kmax=2, checks=("dense", "qct"))
    assert [c["verdict"] for c in report["checks"]] == ["PASS", "EVIDENCE"]
    assert calls == ["su(2,1)"]
    calls.clear()
    assert cli.main(["oracle", "triple", "--form", "su(2,1)"]) == cli.EXIT_PASS
    assert json.loads(capsys.readouterr().out)["nilcone_dim"] == 3
    assert calls == ["su(2,1)"]
