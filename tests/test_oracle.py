import json
import random
from fractions import Fraction
from itertools import product
from math import prod

import pytest

from nilcone import cli
from nilcone import grading as gr
from nilcone import linalg as la
from nilcone import oracle as oc
from nilcone import realform as rf
from nilcone import rootdata as rd
from nilcone.errors import (ConsistencyError, DiagnosticError, InputError,
                            OutOfScopeError)

F = Fraction

TABLE_A_FORMS = ("su(1,1)", "su(2,1)", "sp(4,R)", "su(2,2)", "su(3,1)", "sp(6,R)",
                 "su(3,2)", "so*(8)", "su(4,2)", "su(3,3)", "so*(10)", "sp(2,2)",
                 "sp(8,R)")
PINNED_FORMS = ("su(1,1)", "su(2,1)", "su(2,2)", "sp(4,R)")


def _mat(rows):
    return [[F(x) for x in row] for row in rows]


def _identity(n):
    return [[int(i == j) for j in range(n)] for i in range(n)]


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


def test_realize_builds_one_model_per_normalized_name():
    real = oc.realize("su(2,1)")
    assert oc.realize("su(2, 1)") is real and oc.realize(" su(2,1) ") is real
    assert oc.realize("sp(4, ℝ)") is oc.realize("sp(4,R)")
    assert oc.realize("su(2, 1)", eps=rf.EqualRankInvolution((-1, -1))) is real
    assert oc.realize("sp(4,R)", eps=rf.EqualRankInvolution((1, -1))) \
        is not oc.realize("sp(4,R)")


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
    assert real.p_coords(_identity(3)) is None  # not in g
    x = la.mat_add(real.root_vector(real.rs.simple_roots[0]),
                   la.mat_scale(3, real.root_vector(real.rs.simple_roots[1])))
    c = real.coords(x)
    assert real.p_coords(x) == [c[i] for i in real.p_index]
    assert la.mat_eq(oc._basis_sum(real, real.p_index, real.p_coords(x)), x)
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


# Reference: the fourth-root-of-unity exponents tau that once realized eps,
# theta being conjugation by diag(i^tau), which scales entry (a, b) by
# i^(tau[a] - tau[b]).

def _tau_for_sl(eps):
    tau = [0]
    for e in eps.epsilon:
        tau.append((tau[-1] + (0 if e == 1 else 2)) % 4)
    return tau


def _mask_sign(tau, rs, eps):
    for r in rs.positive_roots:
        ev = rs._e_coords(r)
        exp = sum(int(c) * tau[j] for j, c in enumerate(ev)) % 4
        if exp % 2:
            return False
        if (1 if exp == 0 else -1) != eps.sign(r):
            return False
    return True


def _tau_for_bc(rs, eps):
    n = rs.rank
    for start in (0, 1):
        tau = [start]
        for e in eps.epsilon[: n - 1]:
            tau.append((tau[-1] + (0 if e == 1 else 2)) % 4)
        full = tau + [(-t) % 4 for t in tau]
        if _mask_sign(full, rs, eps):
            return full
    raise InputError("epsilon %r is not realizable by a diagonal involution"
                     % (eps.epsilon,))


@pytest.mark.parametrize("name", ("su(1,1)", "su(2,2)", "sp(6,R)", "so*(8)",
                                  "so*(10)", "sp(2,2)", "su(3,3)"))
def test_theta_signs_match_the_fourth_root_reference(name):
    # every eps of the form, not only the catalog's
    rs, _ = rf.standard_form_catalog(name)
    for epsilon in product((1, -1), repeat=rs.rank):
        eps = rf.EqualRankInvolution(epsilon)
        real = oc.ClassicalRealization(rs, eps)
        tau = _tau_for_sl(eps) if rs.type_label == "A" else _tau_for_bc(rs, eps)
        n = real.msize
        mask = [[None] * n for _ in range(n)]
        for a in range(n):
            for b in range(n):
                diff = (tau[a] - tau[b]) % 4
                assert diff in (0, 2)
                mask[a][b] = 1 if diff == 0 else -1
                assert real._signs[a] * real._signs[b] == mask[a][b]
        m = [[a * n + b + 1 for b in range(n)] for a in range(n)]
        assert real.theta(m) == [[x * y for x, y in zip(row, signs)]
                                 for row, signs in zip(m, mask)]


@pytest.mark.parametrize("name", TABLE_A_FORMS + ("su(4,4)", "so*(12)", "sp(3,3)",
                                                  "sp(10,R)"))
def test_theta_is_an_automorphism_of_the_structure_constants(name):
    # [k, k] and [p, p] lie in k, [k, p] in p: theta([b_i, b_j]) = [theta b_i, theta b_j]
    real = oc.realize(name)
    sign = [0] * real.dim
    for i in real.k_index:
        sign[i] = 1
    for i in real.p_index:
        sign[i] = -1
    assert all(sign)
    constants = [(i, j, k, c) for i, table in enumerate(real._ad_basis)
                 for k, j, c in table]
    assert constants
    for i, j, k, c in constants:
        assert c and sign[i] * sign[j] == sign[k]


def test_only_types_a_c_d_have_a_matrix_model():
    with pytest.raises(OutOfScopeError, match="type B"):
        oc.ClassicalRealization(rd.build_root_system("B", 2),
                                rf.EqualRankInvolution((1, -1)))


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
    assert t.bracket_identities_hold()


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


def _rref_solve(rows, rhs):
    """Reference solve: the RREF of [A | b] in Fraction arithmetic, each
    pivot variable read off b's column and each free variable 0."""
    n = len(rows[0])
    red, pivots = la.rref([list(row) + [b] for row, b in zip(rows, rhs)])
    if n in pivots:
        return None
    x = [F(0)] * n
    for row, c in zip(red, pivots):
        x[c] = row[n]
    return x


def _fraction_ad(real, m):
    return [[F(v) for v in row] for row in real.ad_matrix(m)]


def _reference_ks_triple(real, x):
    """Reference ks_normalize(jm_triple(real, x)) on Fraction matrices: the
    Jacobson-Morozov and Kostant-Sekiguchi systems as written, unscaled."""
    x = _mat(x)
    adx = _fraction_ad(real, x)
    w = _rref_solve(la.mat_scale(-1, la.mat_mul(adx, adx)),
                    [2 * c for c in real.coords(x)])
    hc = [sum(a * b for a, b in zip(row, w)) for row in adx]
    h = real.from_coords(hc)
    shift = la.mat_scale(F(2), _mat(_identity(real.dim)))
    yc = _rref_solve(adx + la.mat_add(_fraction_ad(real, h), shift),
                     hc + [F(0)] * real.dim)
    assert la.mat_eq(la.commutator(x, real.from_coords(yc)), h)
    hk = la.mat_scale(F(1, 2), la.mat_add(h, real.theta(h)))
    rows = adx + la.mat_add(_fraction_ad(real, hk), shift)
    c = _rref_solve([[row[j] for j in real.p_index] for row in rows],
                    real.coords(hk) + [F(0)] * real.dim)
    return hk, x, oc._basis_sum(real, real.p_index, c)


@pytest.mark.parametrize("seed", [7, 11])
@pytest.mark.parametrize("name", TABLE_A_FORMS + ("so*(6)", "sp(1,2)"))
def test_ks_triple_matches_the_fraction_reference(name, seed):
    real = oc.realize(name)
    x = oc.principal_nilpotent_search(real, seed)
    triple = oc.ks_normalize(real, oc.jm_triple(real, x))
    assert (triple.H, triple.X, triple.Y) == _reference_ks_triple(real, x)
    assert triple.normalized_identities_hold(real)


def test_bracket_identities_fail_on_broken_triples():
    # su(3,2) at seed 7: H has half-integer entries, so the check scales H
    # by d_h = 2; each break below must still be caught
    real = oc.realize("su(3,2)")
    t = oc.ks_normalize(real, oc.jm_triple(real, oc.principal_nilpotent_search(real, 7)))
    assert t.bracket_identities_hold()
    a, b = next((a, b) for a, row in enumerate(t.H) for b, v in enumerate(row)
                if F(v).denominator == 2)
    moved = [list(row) for row in t.H]
    moved[a][b] += F(1, 2)
    broken = [oc.SL2Triple(t.H, t.X, la.mat_scale(2, t.Y)),
              oc.SL2Triple(moved, t.X, t.Y),
              oc.SL2Triple(t.H, la.mat_scale(3, t.X), t.Y)]
    assert [s.bracket_identities_hold() for s in broken] == [False] * 3


# -- gradings and orbits -----------------------------------------------------------

def test_verify_grading_dims_su11():
    # the matrix side counts the k and p indices of each ad_layers degree
    real = oc.realize("su(1,1)")
    for h_values, hm, matrix_side in (
            ((2,), real.cartan_element_from_h((2,)), {-2: (0, 1), 0: (1, 0), 2: (0, 1)}),
            ((0,), la.zeros(2, 2), {0: (1, 2)})):
        ok, detail = oc.verify_grading_dims(real, hm, gr.grade(real.rs, real.eps, h_values))
        assert ok
        assert {d: v["matrix"] for d, v in detail.items()} == matrix_side
        assert {d: (len(k), len(p)) for d, (k, p) in oc.ad_layers(real, hm).items()} \
            == matrix_side


def test_ad_layers_rejects_non_integral():
    real = oc.realize("su(1,1)")
    h = _mat([[F(1, 3), 0], [0, F(-1, 3)]])
    with pytest.raises(InputError):
        oc.ad_layers(real, h)
    with pytest.raises(InputError):
        oc.verify_grading_dims(real, h, gr.grade(real.rs, real.eps, (2,)))


def test_ad_layers_rejects_a_nilpotent():
    real = oc.realize("su(1,1)")
    e12 = real.root_vector(real.rs.simple_roots[0])  # not semisimple
    with pytest.raises(InputError):
        oc.ad_layers(real, e12)
    with pytest.raises(InputError):
        oc.verify_grading_dims(real, e12, gr.grade(real.rs, real.eps, (2,)))


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
        assert ok, (real.eps, h, detail)


def test_orbit_dimension_values():
    real = oc.realize("su(1,1)")
    assert oc.orbit_dimension(real, _mat([[0, 1], [0, 0]])) == 1
    assert oc.orbit_dimension(real, la.zeros(2, 2)) == 0
    real2 = oc.realize("su(2,1)")
    _, x, _ = oc.dense_element(real2, (2, 2), 7)
    assert oc.orbit_dimension(real2, x) == 3


def test_dense_orbit_checks():
    real = oc.realize("su(1,1)")
    h, x, dense = oc.dense_element(real, (2,), 7)
    layers = oc.ad_layers(real, h)
    assert dense and oc.dense_orbit_check(real, layers, x)
    assert not oc.dense_orbit_check(real, layers, la.zeros(2, 2))

    real2 = oc.realize("su(2,1)")
    h2, x2, dense2 = oc.dense_element(real2, (2, 2), 7)
    layers2 = oc.ad_layers(real2, h2)
    assert dense2 and oc.dense_orbit_check(real2, layers2, x2)
    single = real2.root_vector(real2.rs.simple_roots[0])
    assert not oc.dense_orbit_check(real2, layers2, single)


@pytest.mark.parametrize("name,dim", [
    ("su(1,1)", 1), ("su(2,1)", 3), ("su(2,2)", 6), ("sp(4,R)", 4),
    ("su(3,1)", 5), ("sp(6,R)", 9), ("su(3,2)", 10), ("so*(8)", 10),
    # dim p - dim a, dim a being min(p,q) for su(p,q) and sp(p,q), n for
    # sp(2n,R) and floor(n/2) for so*(2n)
    ("su(4,4)", 32 - 4), ("so*(12)", 30 - 3), ("sp(3,3)", 36 - 3), ("sp(10,R)", 30 - 5),
])
def test_nilcone_dimension(name, dim):
    real = oc.realize(name)
    for seed in (7, 11):
        assert oc.nilcone_dimension(real, seed) == dim


def _sampled_nilcone_dimension(real, seed):
    """The sampled bound nilcone_dimension used to return, kept as a reference:
    dim p minus the least dim z_p(s) over three random nonzero s in p.  Every
    s in p has dim z_p(s) >= dim a, with equality exactly when s is regular
    (Kostant-Rallis 1971), so this is a lower bound on the cone dimension,
    exact once one sample is p-regular."""
    if real.p_dim == 0:
        return 0
    rng = random.Random("%s-nilcone" % (seed,))
    found = []
    while len(found) < 3:
        s = oc._basis_sum(real, real.p_index,
                          [F(rng.randint(-4, 4)) for _ in range(real.p_dim)])
        if not la.is_zero_matrix(s):
            adp = oc._columns(real.ad_matrix(s), real.p_index)
            found.append(real.p_dim - la.rank(adp))
    return real.p_dim - min(found)


@pytest.mark.parametrize("name,eps", (
    [(name, None) for name in TABLE_A_FORMS + ("so*(6)", "sp(1,2)")]
    # the pinned forms also in their standard conventions, where su(2,2) and
    # sp(4,R) have one noncompact simple root
    + [(name, rf.EqualRankInvolution(eps)) for name, eps in (
        ("su(1,1)", (-1,)), ("su(2,1)", (-1, -1)), ("su(2,2)", (1, -1, 1)),
        ("sp(4,R)", (1, -1)), ("su(1,1)", (1,)))]))
def test_nilcone_dimension_matches_the_sampled_bound(name, eps):
    # on these forms a sample is p-regular at both seeds, so the old lower
    # bound was exact and must agree with dim p - dim a
    real = oc.realize(name, eps=eps)
    for seed in (7, 11):
        assert oc.nilcone_dimension(real) == _sampled_nilcone_dimension(real, seed)


def test_strongly_orthogonal_rank_is_the_real_rank():
    forms = [("su(%d,%d)" % (p, q), min(p, q))
             for p in range(1, 6) for q in range(1, 6) if p + q <= 8]
    forms += [("sp(%d,R)" % (2 * n), n) for n in range(2, 8)]
    forms += [("so*(%d)" % (2 * n), n // 2) for n in range(3, 8)]
    forms += [("sp(%d,%d)" % (p, q), min(p, q))
              for p in range(1, 4) for q in range(1, 4) if p + q <= 6]
    for name, real_rank in forms:
        rs, eps = rf.standard_form_catalog(name)
        assert oc._strongly_orthogonal_rank(rs, eps) == real_rank, name


@pytest.mark.parametrize("name", ["su(2,1)", "sp(4,R)", "su(3,1)", "so*(8)"])
def test_orbit_dimensions_are_bounded_by_the_nilcone_dimension(name):
    # dim K.s <= dim p - dim a for every s in p (Kostant-Rallis)
    real = oc.realize(name)
    cone_dim = oc.nilcone_dimension(real)
    rng = random.Random(name)
    for _ in range(6):
        s = oc._basis_sum(real, real.p_index,
                          [F(rng.randint(-3, 3)) for _ in range(real.p_dim)])
        assert oc.orbit_dimension(real, s) <= cone_dim
        assert oc.orbit_dimension(real, oc.random_nilpotent(real, rng)) <= cone_dim
    x = oc.principal_nilpotent_search(real, 7)
    assert oc.orbit_dimension(real, x) == cone_dim


def test_principal_search_certified():
    real = oc.realize("su(2,1)")
    x = oc.principal_nilpotent_search(real, 7)
    assert oc.orbit_dimension(real, x) == 3


@pytest.mark.parametrize("name,eps,dim", [
    pytest.param("su(2,1)", None, 3, id="su(2,1)-3"),
    pytest.param("sp(4,R)", rf.EqualRankInvolution((1, -1)), 4, id="sp(4,R)-4")])
def test_principal_search_refuses_an_inexact_cone_bound(monkeypatch, name, eps, dim):
    # the cone dimension is exact, so a sampled orbit above it is a defect:
    # the search raises at that sample instead of running out its budget.
    # sp(4,R) in its standard convention, whose first sample is above dim - 1
    real = oc.realize(name, eps=eps)
    calls = []
    orbit_dimension = oc.orbit_dimension

    def counted(real, x):
        calls.append(x)
        return orbit_dimension(real, x)

    monkeypatch.setattr(oc, "orbit_dimension", counted)
    monkeypatch.setattr(oc, "nilcone_dimension", lambda real, seed=None: dim - 1)
    for seed in (7, 11):
        calls.clear()
        with pytest.raises(ConsistencyError, match="orbit dimension %d > " % dim):
            oc.principal_nilpotent_search(real, seed)
        assert len(calls) == 1


def test_stalled_principal_search_keeps_its_best_sample_in_fractions(monkeypatch, capsys):
    # the samples are int matrices; the partial keeps the Fractions a report
    # prints as strings
    real = oc.realize("su(2,1)")
    monkeypatch.setattr(oc, "nilcone_dimension", lambda real, seed=None: real.p_dim + 1)
    with pytest.raises(DiagnosticError) as info:
        oc.principal_nilpotent_search(real, 7)
    best = info.value.partial
    assert {type(x) for row in best for x in row} == {F}
    assert oc.orbit_dimension(real, best) == 3
    assert cli.main(["oracle", "triple", "--form", "su(2,1)"]) == cli.EXIT_INPUT
    partial = json.loads(capsys.readouterr().err)["partial"]
    assert partial == [[str(x) for x in row] for row in best]


def test_principal_search_rejects_compact():
    real = oc.realize("su(1,1)", eps=rf.EqualRankInvolution((1,)))
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


def test_coordinate_ring_negative_degree_bound_is_input_error():
    # k_max = -1 would give [1], one degree more than asked for
    real = oc.realize("su(1,1)")
    x = real.root_vector(real.rs.simple_roots[0])
    for k_max in (-1, -2):
        with pytest.raises(InputError):
            oc.coordinate_ring_dims(real, x, k_max, 7)
    assert oc.coordinate_ring_dims(real, x, 0, 7) == [1]


def test_coordinate_ring_su21_pinned_and_seed_stable():
    # values pinned from the first oracle runs; two seeds must agree
    real = oc.realize("su(2,1)")
    _, x, _ = oc.dense_element(real, (2, 2), 7)
    assert oc.coordinate_ring_dims(real, x, 4, 7) == [1, 4, 9, 16, 25]
    assert oc.coordinate_ring_dims(real, x, 4, 11) == [1, 4, 9, 16, 25]


def test_coordinate_ring_compact_form_is_a_point():
    real = oc.realize("su(2,1)", eps=rf.EqualRankInvolution((1, 1)))
    assert real.p_dim == 0
    assert oc.coordinate_ring_dims(real, la.zeros(3, 3), 3, 7) == [1, 0, 0, 0]


@pytest.mark.parametrize("name,eps,h,dims", [
    ("su(3,2)", rf.EqualRankInvolution((-1, -1, -1, -1)), (2, 2, 2, 2),
     [1, 12, 77, 352]),
    ("so*(8)", rf.EqualRankInvolution((-1, -1, 1, 1)), (2, 2, 0, 0), [1, 12, 76, 340]),
])
def test_coordinate_ring_at_maximal_presentations(name, eps, h, dims):
    real = oc.realize(name, eps=eps)
    _, x, _ = oc.dense_element(real, h, 7)
    assert oc.coordinate_ring_dims(real, x, 3, 7) == dims


def _whole_ranks(real, x, dims, rng, torus):
    """The rank of each degree's whole evaluation matrix at dims[d] + 5 new
    points of sample_orbit_points, each point first scaled by a random torus
    element when torus is set: the coordinate of root alpha times
    prod s_i^c_i, alpha = sum c_i alpha_i."""
    roots = [real.roots_order[i - len(real.cartan_mats)].coords for i in real.p_index]
    steps = oc._monomial_steps(real.p_dim, len(dims) - 1)
    out = [1]
    for d in range(1, len(dims)):
        rows = []
        for pt in oc.sample_orbit_points(real, x, dims[d] + 5, rng):
            if torus:
                s = [F(rng.randint(1, 9), rng.randint(1, 9)) for _ in range(real.rs.rank)]
                pt = [c * prod(si ** ci for si, ci in zip(s, root))
                      for c, root in zip(pt, roots)]
            rows.append(oc._eval_rows(pt, steps)[d - 1])
        out.append(la.rank(rows))
    return out


@pytest.mark.parametrize("name,k_max", [("su(2,1)", 3), ("sp(4,R)", 3), ("su(2,2)", 2),
                                        ("su(3,1)", 2), ("sp(1,2)", 2), ("so*(6)", 2)])
def test_block_ranks_sum_to_the_whole_rank_on_k_orbit_points(name, k_max):
    try:
        _, eps, h = rf.principal_presentation(name)
        real = oc.realize(name, eps=eps)
        _, x, _ = oc.dense_element(real, h, 7)
    except OutOfScopeError:
        real = oc.realize(name)
        x = oc.random_nilpotent(real, random.Random(1))
    dims = oc.coordinate_ring_dims(real, x, k_max, 7)
    assert _whole_ranks(real, x, dims, random.Random(name), True) == dims
    if name == "su(2,1)":
        # without the torus the points lie on [K, K].x, a smaller variety
        assert dims == [1, 4, 9, 16]
        assert _whole_ranks(real, x, dims, random.Random(name), False) == [1, 2, 3, 4]


def test_non_generic_points_are_inconclusive(monkeypatch):
    real = oc.realize("su(2,1)")
    _, x, _ = oc.dense_element(real, (2, 2), 7)
    calls = []
    original = oc.sample_orbit_points

    def first_is_x(real, x, count, rng):
        calls.append(count)
        if len(calls) == 1:
            return [real.p_coords(x) for _ in range(count)]
        return original(real, x, count, rng)

    monkeypatch.setattr(oc, "sample_orbit_points", first_is_x)
    with pytest.raises(DiagnosticError) as info:
        oc.coordinate_ring_dims(real, x, 2, 7)
    # x = e_a1 + e_a2: its monomials of degree d have d + 1 distinct weights
    assert info.value.partial == [1, 2, 3]
    assert calls[1] == 3


def test_gap_degree_exact_rank_is_the_rank_over_q():
    from nilcone import series as se
    rs, eps, h = rf.principal_presentation("sp(4,R)")
    real = oc.realize("sp(4,R)", eps=eps)
    gd = gr.grade(rs, eps, h)
    _, x, _ = oc.dense_element(real, h, 7)
    sample = oc.OrbitSample(real, x, 3, random.Random("7-coordring"))
    # the points the sample was fed, drawn again from the same stream
    rng = random.Random("7-coordring")
    width = max(len(cols) for blocks in sample.blocks for cols in blocks)
    points = ([real.p_coords(x)] + oc.sample_orbit_points(real, x, width, rng)
              + oc.sample_orbit_points(real, x, 3, rng))
    rows = [sample.block_rows(pt) for pt in points]
    for d, trackers in enumerate(sample.trackers):
        for b, tracker in enumerate(trackers):
            assert tracker.rank == la.rank([r[d][b] for r in rows])
    dims = oc.coordinate_ring_dims(real, x, 3, 7)
    assert sample.dims == dims == [1, 6, 19, 44]
    # every degree is a gap: the series counts functions on the normalization
    series = se.hilbert_series(gd, gd.k_root_datum(), 3)
    assert all(o < s for o, s in zip(dims[1:], series[1:]))


def test_feeding_a_point_twice_changes_nothing():
    real = oc.realize("su(2,1)")
    _, x, _ = oc.dense_element(real, (2, 2), 7)
    sample = oc.OrbitSample(real, x, 2, random.Random(7))
    pt = oc.sample_orbit_points(real, x, 1, random.Random("another"))[0]
    sample.feed([pt])

    def state():
        return sample.dims, [[list(t._rows) for t in trackers]
                             for trackers in sample.trackers]

    before = state()
    # a multiple of pt scales each degree's rows by one factor
    sample.feed([pt, list(pt), [2 * c for c in pt], real.p_coords(x)])
    assert state() == before


class _Rising(la.IncrementalRank):
    """Ranks that count the rows added, so they never settle."""

    def __init__(self, width):
        super().__init__(width)
        self.added = 0

    def add(self, row):
        self.added += 1
        return super().add(row)

    @property
    def rank(self):
        return self.added


def test_exhausted_sample_raises_with_its_last_ranks(monkeypatch):
    monkeypatch.setattr(la, "IncrementalRank", _Rising)
    real = oc.realize("su(2,1)")
    _, x, _ = oc.dense_element(real, (2, 2), 7)
    with pytest.raises(DiagnosticError) as info:
        oc.OrbitSample(real, x, 2, random.Random(7))
    blocks = oc._weight_blocks(real, oc._monomial_steps(real.p_dim, 2))
    width = max(len(cols) for deg in blocks for cols in deg)
    # each block took x and the w sampled points before the confirming batch
    assert info.value.partial == [1] + [len(deg) * (1 + width) for deg in blocks]


def _closure_reference(real, x):
    return oc.OrbitSample(real, x, 2, random.Random("7-closure-ref"))


def test_closure_membership_certificates():
    real = oc.realize("su(1,1)")
    e12 = real.root_vector(real.rs.simple_roots[0])
    e21 = real.root_vector(-real.rs.simple_roots[0])
    ref = _closure_reference(real, e12)
    assert oc.not_in_closure_certificate(ref, e21)
    doubled = la.mat_scale(2, e12)
    assert not oc.not_in_closure_certificate(ref, doubled)


def test_so8_closure_references_saturate(monkeypatch):
    built = []

    class Recorded(oc.OrbitSample):
        def __init__(self, real, x, *args):
            super().__init__(real, x, *args)
            built.append((x, self))

    monkeypatch.setattr(oc, "OrbitSample", Recorded)
    real = oc.realize("so*(8)")
    assert oc.qct_evidence(real, 7)["G1_evidence"]["component_count_evidence"] == 1
    assert built
    for x, ref in built:
        dims = ref.dims
        ref.feed(oc.sample_orbit_points(real, x, 12, random.Random("more")))
        assert ref.dims == dims


# -- aggregated evidence -----------------------------------------------------------

def test_canonical_weight_from_matrices_pins():
    real = oc.realize("su(1,1)")
    h = real.cartan_element_from_h((2,))
    assert oc.canonical_weight_from_matrices(real, h) == rd.weight(2)
    real2 = oc.realize("su(2,1)")
    h2 = real2.cartan_element_from_h((2, 2))
    assert oc.canonical_weight_from_matrices(real2, h2) == rd.weight(0, 0)


def test_qct_evidence_su11_two_components():
    ev = oc.qct_evidence(oc.realize("su(1,1)"), 7)
    assert ev["label"] == "EVIDENCE" and ev["degenerate"] is False and ev["seed"] == 7
    assert ev["G1_evidence"] == {"principal_orbit_dim": 1, "nilcone_dim": 1,
                                 "dims_equal": True, "component_count_evidence": 2,
                                 "single_component_evidence": False}
    # every nonzero nilpotent of su(1,1) spans a line, of orbit dim 1
    assert ev["G2_evidence"] == {"even_grading_orbit_dims": [[(2,), 1]],
                                 "even_grading_all_even": False,
                                 "sampled_orbit_dims": [1] * 15,
                                 "parity_table": {1: 15}}


def test_qct_evidence_of_a_p0_form_is_degenerate():
    compact = oc.ClassicalRealization(rd.build_root_system("A", 1),
                                      rf.EqualRankInvolution((1,)))
    assert compact.p_dim == 0
    assert oc.qct_evidence(compact, 7) == {
        "label": "EVIDENCE", "degenerate": True,
        "note": "p = 0: the cone is a point; both conditions are vacuous"}


def test_dense_confirmer_drives_search():
    real = oc.realize("su(1,1)")
    hits = gr.search_even_gradings(real.rs, real.eps,
                                   confirm=oc.dense_confirmer(real, 0))
    assert [(h.H.h_values, h.confirmed) for h in hits] == [((2,), True)]

    real2 = oc.realize("su(2,1)")
    hits2 = gr.search_even_gradings(real2.rs, real2.eps,
                                    confirm=oc.dense_confirmer(real2, 0))
    assert ((2, 2), True) in [(h.H.h_values, h.confirmed) for h in hits2]


@pytest.mark.parametrize("seed", [7, 11])
def test_even_grading_orbit_dims_read_each_gradings_dense_element(seed):
    # the sum of the degree-2 p basis is not dense at these gradings (its
    # orbit dims are 5 and 7); the seeded sum that is dense gives 9 and 10
    assert ((0, 0, 2, 0, 0), 9) in oc.even_grading_orbit_dims(oc.realize("su(3,3)"), seed)
    assert ((0, 0, 0, 2), 10) in oc.even_grading_orbit_dims(oc.realize("sp(8,R)"), seed)


@pytest.mark.parametrize("name", ["su(3,2)", "so*(8)", "sp(6,R)"])
def test_every_grading_orbit_dim_is_that_of_a_dense_element(name):
    real = oc.realize(name)
    dims = oc.even_grading_orbit_dims(real, 7)
    assert dims
    for h_values, dim in dims:
        h, x, dense = oc.dense_element(real, h_values, 7)
        assert dense and oc.dense_orbit_check(real, oc.ad_layers(real, h), x)
        assert oc.orbit_dimension(real, x) == dim


def test_choosing_a_gradings_element_grades_it_once(monkeypatch):
    # su(3,2)'s search box holds 15 gradings, and some take more than one
    # candidate before one is dense (or none is)
    real = oc.realize("su(3,2)")
    calls = {"ad_layers": 0, "dense_orbit_check": 0}
    for name in calls:
        def counted(*args, name=name, original=getattr(oc, name)):
            calls[name] += 1
            return original(*args)
        monkeypatch.setattr(oc, name, counted)
    oc.even_grading_orbit_dims(real, 7)
    searched = len(gr.search_even_gradings(real.rs, real.eps, lambda gd: False))
    assert calls["ad_layers"] == searched == 15
    assert calls["dense_orbit_check"] > searched


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
    h_mat, x_mat, _ = oc.dense_element(real, h, 7)
    oracle_dims = oc.coordinate_ring_dims(real, x_mat, 2, 7)
    assert oracle_dims[1] <= real.p_dim
    assert all(o <= s for o, s in zip(oracle_dims, series))
    assert oracle_dims[1] < series[1]  # normalization adds a degree-one element


def test_degree_one_rank_equals_p_dim_iff_spanning():
    real = oc.realize("su(2,1)")
    _, x, _ = oc.dense_element(real, (2, 2), 7)
    assert oc.coordinate_ring_dims(real, x, 1, 7)[1] == real.p_dim  # spans p
    real11 = oc.realize("su(1,1)")
    e12 = real11.root_vector(real11.rs.simple_roots[0])
    assert oc.coordinate_ring_dims(real11, e12, 1, 7)[1] == 1 < real11.p_dim


def test_centralizer_contained_in_parabolic():
    # Lie-algebra level: g^X sits inside the nonnegative part of the grading
    for form, h in [("su(1,1)", (2,)), ("su(2,1)", (2, 2))]:
        real = oc.realize(form)
        h_mat, x_mat, _ = oc.dense_element(real, h, 7)
        adx = real.ad_matrix(x_mat)
        centralizer = la.nullspace(adx)
        identity = _identity(real.dim)
        nonneg = [identity[i] for d, (k, p) in oc.ad_layers(real, h_mat).items()
                  if d >= 0 for i in k + p]
        span = la.Span(nonneg)
        for v in centralizer:
            assert span.coords(v) is not None


def test_principal_search_su11_finds_a_line():
    real = oc.realize("su(1,1)")
    x = oc.principal_nilpotent_search(real, 3)
    assert oc.orbit_dimension(real, x) == 1


def test_nilcone_dimension_compact_is_zero():
    real = oc.realize("su(1,1)", eps=rf.EqualRankInvolution((1,)))
    assert oc.nilcone_dimension(real, 7) == 0


# -- the integer realization layer ---------------------------------------------------

MODEL_FORMS = ("su(1,1)", "su(2,1)", "su(2,2)", "su(3,1)", "su(3,2)", "su(4,2)",
               "su(3,3)", "su(4,4)", "sp(4,R)", "sp(6,R)", "sp(8,R)", "sp(1,1)",
               "sp(1,2)", "sp(2,2)", "so*(6)", "so*(8)", "so*(10)")


def _dense_ad(real, z):
    """ad z on the basis from matrix commutators and one solve per column."""
    columns = [[x for row in b for x in row] for b in real.basis]
    rows = [list(r) for r in zip(*columns)]
    cols = [la.solve(rows, [x for row in la.commutator(z, b) for x in row])
            for b in real.basis]
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
    one = _identity(real.msize)
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
    """g and g^-1 of one word u+ u- u+, multiplied out as dense matrices from
    the draws sample_orbit_points makes."""
    n = real.msize
    positive = [r for r in real.compact_roots() if r.is_positive]
    g, gi = _identity(n), _identity(n)
    for r in positive + [-r for r in positive] + positive:
        c = rng.randint(1, 1024) * rng.choice((1, -1))
        e = real.root_vector(r)
        assert la.is_zero_matrix(la.mat_mul(e, e))  # exp(cE) = 1 + cE
        g = la.mat_mul(g, la.mat_add(_identity(n), la.mat_scale(c, e)))
        gi = la.mat_mul(la.mat_add(_identity(n), la.mat_scale(-c, e)), gi)
    return g, gi


@pytest.mark.parametrize("name", ["su(2,1)", "su(2,2)", "sp(4,R)", "sp(1,2)",
                                  "so*(6)", "so*(8)"])
def test_sample_orbit_points_is_dense_conjugation(name):
    real = oc.realize(name)
    x = oc.random_nilpotent(real, random.Random(1))
    rng, dense = random.Random(name), random.Random(name)
    pts = oc.sample_orbit_points(real, x, 5, rng)
    for pt in pts:
        g, gi = _dense_word(real, dense)
        assert pt == real.p_coords(la.mat_mul(g, la.mat_mul(x, gi)))
    assert rng.getstate() == dense.getstate()


def test_nilcone_dimension_is_computed_once(capsys):
    report = cli.verify_form("su(2,1)", kmax=2, checks=("dense", "qct"))
    assert [c["verdict"] for c in report["checks"]] == ["PASS", "EVIDENCE"]
    assert cli.main(["oracle", "triple", "--form", "su(2,1)"]) == cli.EXIT_PASS
    assert json.loads(capsys.readouterr().out)["nilcone_dim"] == 3


# -- integer entries -----------------------------------------------------------------

def _scanned_layers(real, h):
    """Reference ad_layers: each basis matrix's degree from a scan of all
    msize^2 positions of the matrix against h."""
    n = real.msize
    if any(h[a][b] for a in range(n) for b in range(n) if a != b):
        raise InputError("H is not diagonal")
    degree = []
    for m in real.basis:
        found = {h[a][a] - h[b][b] for a in range(n) for b in range(n) if m[a][b]}
        d = found.pop()
        if found or F(d).denominator != 1:
            raise InputError("ad H does not act on the basis with integer degrees")
        degree.append(int(d))
    return {d: ([i for i in real.k_index if degree[i] == d],
                [i for i in real.p_index if degree[i] == d])
            for d in sorted(set(degree))}


@pytest.mark.parametrize("name", TABLE_A_FORMS)
def test_ad_layers_match_the_full_scan(name):
    real = oc.realize(name)
    hits = [hit.H.h_values for hit in gr.search_even_gradings(
        real.rs, real.eps, confirm=oc.dense_confirmer(real, 7)) if hit.confirmed]
    assert hits
    for h_values in hits:
        h = real.cartan_element_from_h(h_values)
        assert oc.ad_layers(real, h) == _scanned_layers(real, h)
        fractions = [[F(x) for x in row] for row in h]
        assert oc.ad_layers(real, fractions) == _scanned_layers(real, h)
    zero = la.zeros(real.msize, real.msize)
    assert oc.ad_layers(real, zero) == _scanned_layers(real, zero) == {
        0: (real.k_index, real.p_index)}
    fractional = la.mat_scale(F(1, 4), real.cartan_mats[0])  # a root of degree 1/2
    not_diagonal = la.mat_add(real.cartan_mats[0], real.basis[-1])
    for bad in (fractional, not_diagonal):
        for layers in (oc.ad_layers, _scanned_layers):
            with pytest.raises(InputError):
                layers(real, bad)


@pytest.mark.parametrize("name", TABLE_A_FORMS)
def test_theta_sign_tests_match_theta(name):
    real = oc.realize(name)
    rng = random.Random(name)

    def element(index, fractional):
        vec = [0] * real.dim
        for i in index:
            vec[i] = F(rng.randint(-3, 3), rng.randint(1, 3)) if fractional \
                else rng.randint(-3, 3)
        return real.from_coords(vec)

    zero = la.zeros(real.msize, real.msize)
    cases = [zero, _identity(real.msize),
             real.cartan_element_from_h((1,) * real.rs.rank)]
    for fractional in (False, True):
        for _ in range(3):
            k, p = element(real.k_index, fractional), element(real.p_index, fractional)
            cases += [k, p, la.mat_add(k, p)]
    seen = set()
    for m in cases:
        in_p = la.mat_eq(real.theta(m), la.mat_scale(-1, m))
        in_k = la.mat_eq(real.theta(m), m)
        assert (real.in_p(m), real.in_k(m)) == (in_p, in_k)
        seen.add((in_p, in_k))
    assert seen == {(True, True), (True, False), (False, True), (False, False)}


def _entry_types(*mats):
    return {type(x) for m in mats for row in m for x in row}


@pytest.mark.parametrize("name", TABLE_A_FORMS)
def test_matrix_entries_are_ints_or_fractions(name):
    real = oc.realize(name)
    rng = random.Random(name)
    assert _entry_types(*real.basis) == {int}
    x = oc.random_nilpotent(real, rng)
    assert _entry_types(x) == {int}
    assert _entry_types(real.ad_matrix(x)) == {int}
    assert _entry_types(oc.sample_orbit_points(real, x, 3, rng)) <= {int, F}
    triple = oc.jm_triple(real, x)
    normal = oc.ks_normalize(real, triple)
    for t in (triple, normal):
        assert _entry_types(t.H, t.X, t.Y) <= {int, F}


def _random_nilpotent_by_sums(real, rng):
    """Reference random_nilpotent: the same draws, x summed one scaled root
    vector at a time in Fraction arithmetic."""
    noncompact = real.noncompact_roots()
    patterns = [real.rs._e_coords(r) for r in noncompact]
    while True:
        xi = [rng.randint(-6, 6) for _ in range(real.n_e)]
        vals = [sum(F(x) * e for x, e in zip(xi, pat)) for pat in patterns]
        if any(v == 0 for v in vals):
            continue
        x = [[F(0)] * real.msize for _ in range(real.msize)]
        used = 0
        for r, v in zip(noncompact, vals):
            if v > 0:
                c = rng.randint(-2, 2)
                if c:
                    x = la.mat_add(x, la.mat_scale(F(c), real.root_vector(r)))
                    used += 1
        if used:
            return x


@pytest.mark.parametrize("name", TABLE_A_FORMS)
def test_random_nilpotent_keeps_its_draws(name):
    real = oc.realize(name)
    rng, reference = random.Random(name), random.Random(name)
    for _ in range(5):
        assert oc.random_nilpotent(real, rng) == _random_nilpotent_by_sums(real, reference)
        assert rng.getstate() == reference.getstate()


def _power(x, k):
    out = _identity(len(x))
    for _ in range(k):
        out = la.mat_mul(out, x)
    return out


@pytest.mark.parametrize("name", ["su(1,1)", "su(2,1)", "su(2,2)", "su(3,2)",
                                  "sp(6,R)", "so*(10)"])
def test_is_nilpotent_by_repeated_squaring(name):
    real = oc.realize(name)
    n = real.msize
    jordan = [[int(b == a + 1) for b in range(n)] for a in range(n)]
    assert not la.is_zero_matrix(_power(jordan, n - 1))  # nilpotency index n
    assert oc._is_nilpotent(real, jordan)
    cyclic = [list(row) for row in jordan]
    cyclic[n - 1][0] = 1  # a cyclic permutation: its n-th power is 1
    assert not la.is_zero_matrix(la.mat_mul(cyclic, cyclic))
    assert not oc._is_nilpotent(real, cyclic)
    assert not oc._is_nilpotent(real, real.cartan_mats[0])  # semisimple
    for x in (jordan, cyclic, real.cartan_mats[0]):
        assert oc._is_nilpotent(real, x) == la.is_zero_matrix(_power(x, n))


@pytest.mark.parametrize("name", TABLE_A_FORMS + ("su(4,4)", "so*(12)"))
def test_pivot_counted_ranks_equal_the_rref_rank(name):
    # orbit dimensions and the two ranks of dense_orbit_check, counted as
    # IncrementalRank pivots, against la.rank of the same columns
    real = oc.realize(name)
    rng = random.Random(name)
    h, dense_x, _ = oc.dense_element(real, (2,) + (0,) * (real.rs.rank - 1), 7)
    layers = oc.ad_layers(real, h)
    k0 = layers[0][0]
    uk = [i for d, (k, _) in layers.items() if d >= 1 for i in k]
    for x in [dense_x] + [oc.random_nilpotent(real, rng) for _ in range(20)]:
        adx = real.ad_matrix(x)
        assert oc.orbit_dimension(real, x) == la.rank(oc._columns(adx, real.k_index))
        for index in (k0, uk, real.p_index, list(range(real.dim))):
            assert oc._column_rank(adx, index) == la.rank(oc._columns(adx, index))
    assert oc._column_rank(la.zeros(3, 4), range(4)) == 0
    assert oc._column_rank([[1, 2], [2, 4], [0, 0]], []) == 0


def test_ad_layers_scale_a_fractional_diagonal_once():
    # sp(4,R) at h = (1, 1) has the Cartan entries 3/2 and 1/2 but integer
    # degrees; halving an H puts a root at a half-integral degree, and a
    # third of one at a degree of denominator 3
    real = oc.realize("sp(4,R)")
    h = real.cartan_element_from_h((1, 1))
    assert any(F(x).denominator == 2 for row in h for x in row)
    assert oc.ad_layers(real, h) == _scanned_layers(real, h)
    for scale in (F(1, 2), F(1, 3), F(2, 3)):
        bad = la.mat_scale(scale, real.cartan_element_from_h((1, 0)))
        for layers in (oc.ad_layers, _scanned_layers):
            with pytest.raises(InputError):
                layers(real, bad)


# -- the Cartan dictionary -------------------------------------------------------------

def _reference_cartan_element(real, h_values):
    """Reference cartan_element_from_h: the per-type Fraction formulas the
    matrix model used before its Cartan dictionary."""
    n = real.n_e
    t = real.rs.type_label
    h = [F(x) for x in h_values]
    a = [F(0)] * n
    if t == "A":
        for j in range(n - 2, -1, -1):
            a[j] = a[j + 1] + h[j]
        mean = sum(a) / n
        a = [x - mean for x in a]
    elif t == "C":
        a[n - 1] = h[n - 1] / 2
        for j in range(n - 2, -1, -1):
            a[j] = a[j + 1] + h[j]
    else:  # D
        a[n - 2] = (h[n - 2] + h[n - 1]) / 2
        a[n - 1] = (h[n - 1] - h[n - 2]) / 2
        for j in range(n - 3, -1, -1):
            a[j] = a[j + 1] + h[j]
    a = [x.numerator if x.denominator == 1 else x for x in a]
    m = la.zeros(real.msize, real.msize)
    for j in range(n):
        m[j][j] = a[j]
        if real.family != "sl":
            m[n + j][n + j] = -a[j]
    return m


def _reference_weight_of_functional(real, values):
    """Reference weight_from_cartan_functional: the per-type formulas."""
    t = real.rs.type_label
    vals = [F(v) for v in values]
    if t == "A":
        return rd.Weight(tuple(vals))
    n = real.n_e
    fw = [vals[i] - vals[i + 1] for i in range(n - 1)]
    if t == "C":
        fw.append(vals[n - 1])
    else:  # D
        fw[-1] = vals[n - 2] - vals[n - 1]
        fw.append(vals[n - 2] + vals[n - 1])
    return rd.Weight(tuple(fw))


def _typed(m):
    return [[(type(x), x) for x in row] for row in m]


@pytest.mark.parametrize("name", MODEL_FORMS)
def test_cartan_dictionary_matches_the_type_formulas(name):
    real = oc.realize(name)
    rank, ncartan = real.rs.rank, len(real.cartan_mats)
    rng = random.Random(name)
    entries = [-2, -1, 0, 1, 2, 3, F(1, 2), F(-3, 2), F(2, 3)]
    box = list(product(range(3), repeat=rank)) if rank <= 5 else []
    for h_values in box + [tuple(rng.choice(entries) for _ in range(rank))
                           for _ in range(100)]:
        h = real.cartan_element_from_h(h_values)
        assert _typed(h) == _typed(_reference_cartan_element(real, h_values))
        for r, value in zip(real.rs.simple_roots, h_values):  # alpha_i(H) = h_i
            a, b, _ = real._entries[real._root_index[r.coords]][0]
            assert h[a][a] - h[b][b] == value
    for _ in range(100):  # the weights of half-integral values are half-integral
        values = [rng.choice(entries[:-1]) for _ in range(ncartan)]
        assert real.weight_from_cartan_functional(values) \
            == _reference_weight_of_functional(real, values)


@pytest.mark.parametrize("name", TABLE_A_FORMS)
def test_confirmer_seeds_the_degree_two_p_basis_in_ad_layers_order(name, monkeypatch):
    # at every grading of the search box, dense_element tries the sum of
    # the degree-2 p basis in ad_layers order, then three sums with seeded
    # coefficients on the same indices; the confirmer reads its flag
    real = oc.realize(name)
    tried = []
    monkeypatch.setattr(oc, "dense_orbit_check",
                        lambda real, layers, x: tried.append(x))
    confirm = oc.dense_confirmer(real, 7)
    for hit in gr.search_even_gradings(real.rs, real.eps, lambda gd: False):
        tried.clear()
        h, x, dense = oc.dense_element(real, hit.H.h_values, 7)
        p2 = oc.ad_layers(real, h)[2][1]
        rng = random.Random("7-confirm-%s" % (hit.H.h_values,))
        first = oc._basis_sum(real, p2, [1] * len(p2))
        assert tried == [first] + [
            oc._basis_sum(real, p2, [rng.randint(1, 5) for _ in p2]) for _ in range(3)]
        assert (x, dense) == (first, False)
        assert confirm(gr.grade(real.rs, real.eps, hit.H.h_values)) is False
