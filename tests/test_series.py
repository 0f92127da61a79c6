import json
import random
from collections import Counter
from fractions import Fraction
from itertools import combinations_with_replacement, product
from operator import add, mul
from pathlib import Path

import pytest

from nilcone import cli
from nilcone import grading as gr
from nilcone import realform as rf
from nilcone import rootdata as rd
from nilcone import series as se
from nilcone.errors import ConsistencyError, InputError, OutOfScopeError
from reference import (alternating_sum, apply_word, blattner_phi, blattner_scale,
                       blattner_terms, dual, euler, partition_counter, reflect2,
                       root_num, terms)

F = Fraction


def _context(name, h):
    rs, eps = rf.standard_form_catalog(name)
    gd = gr.grade(rs, eps, h)
    kd = gd.k_root_datum()
    return rs, gd, kd


def test_series_and_blattner_refuse_an_H_whose_q_cap_k_misses_the_borel_of_k():
    rs, gd, kd = _context("su(2,1)", (-2, -2))
    zero = rd.zero_weight(2)
    with pytest.raises(InputError, match="Borel of K"):
        se.hilbert_series(gd, kd, 3)
    with pytest.raises(InputError, match="Borel of K"):
        next(se.verify_vanishing_box([zero], gd, kd, 2))
    with pytest.raises(InputError, match="Borel of K"):
        se.blattner_multiplicity(zero, zero, gd, kd)
    # grading, the parabolic and the conormal weight take any H
    assert gr.parabolic(gd).canonical_weight == gr.conormal_canonical_weight(
        rs, gd.eps, (-2, -2))


@pytest.mark.parametrize("name", ["su(2,1)", "sp(4,R)", "su(2,2)"])
def test_the_borel_refusal_is_a_negative_compact_degree(name):
    # over {-2, 0, 2}^rank, the series runs exactly when no positive
    # compact root has negative degree
    rs, eps = rf.standard_form_catalog(name)
    for h in product((-2, 0, 2), repeat=rs.rank):
        gd = gr.grade(rs, eps, h)
        kd = gd.k_root_datum()
        refused = any(gd.degree_of(r) < 0 for r in kd.positive_roots)
        try:
            se.hilbert_series(gd, kd, 1)
        except InputError as exc:
            assert refused and "Borel of K" in str(exc)
        else:
            assert not refused


def test_sym_weights_examples():
    a = rd.weight(2)  # a stand-in for a root weight
    assert se.sym_weights([a], 0) == [rd.weight(0)]
    assert se.sym_weights([a], 3) == [rd.weight(6)]
    b1, b2 = rd.weight(2, -1), rd.weight(-1, 2)
    got = sorted(w.fw for w in se.sym_weights([b1, b2], 2))
    assert got == sorted([(b1 + b1).fw, (b1 + b2).fw, (b2 + b2).fw])
    assert se.sym_weights([], 2) == []
    with pytest.raises(InputError):
        se.sym_weights([a], -1)


def test_sym_powers_match_combinations():
    # seeded weight lists with repeats and half-integral coordinates
    rng = random.Random(37)
    for _ in range(12):
        rank = rng.randint(1, 3)
        pool = [rd.Weight(tuple(F(rng.randint(-4, 4), rng.choice((1, 2)))
                                for _ in range(rank)))
                for _ in range(rng.randint(1, 3))]
        weights = [rng.choice(pool) for _ in range(rng.randint(1, 5))]
        N = rng.randint(0, 4)
        powers = _packed_sym(weights, N, rank)
        assert len(powers) == N + 1
        for k, got in enumerate(powers):
            want = Counter()
            for combo in combinations_with_replacement(weights, k):
                total = rd.zero_weight(rank)
                for w in combo:
                    total = total + w
                want[total] += 1
            assert got == want
            assert Counter(se.sym_weights(weights, k)) == want


def _tuple_sym_powers(gens, N, rank):
    """The reference: the Sym builder on d2 tuples that the packed one
    replaced, as Counters of d2 tuples."""
    sym = [Counter({(0,) * rank: 1})] + [Counter() for _ in range(N)]
    for g in gens:
        for k in range(1, N + 1):
            cur = sym[k]
            for nu, m in sym[k - 1].items():
                cur[tuple(map(add, nu, g))] += m
    return sym[:N + 1]


def _sym_counters(weights, N, rank):
    """Sym^0..Sym^N of the list of Weights weights, tuple-built, as
    Counters Weight -> multiplicity."""
    return [Counter({rd._weight_of(d2): m for d2, m in sym.items()})
            for sym in _tuple_sym_powers([w.d2 for w in weights], N, rank)]


def _packed_sym(weights, N, rank):
    """se._sym of the Weights weights on a packing with no coroot slots, as
    sym_weights packs them, read back as Counters Weight -> multiplicity."""
    d2s = [w.d2 for w in weights]
    packing = rd._Packing(rank, rd._width(N * rd._reach(d2s)))
    return [Counter({rd._weight_of(packing.unpack(nu + packing.bias)): m
                     for nu, m in sym.items()})
            for sym in se._sym([packing.pack(d2) for d2 in d2s], N)]


def test_sym_powers_match_the_tuple_builder():
    # the weights of u cap p and of its negative on four forms, and seeded
    # lists with repeats and half-integral coordinates, up to N = 8
    rng = random.Random(53)
    cases = []
    for name, h in [("su(2,1)", None), ("sp(4,R)", None), ("su(2,2)", None),
                    ("so*(8)", (0, 0, 0, 2))]:
        rs, gd, kd, _ = _box_context(name, h)
        ups = gd.u_cap_p_weights()
        cases += [(ups, rs.rank), ([-w for w in ups], rs.rank)]
    for _ in range(4):
        rank = rng.randint(1, 4)
        pool = [rd.Weight(tuple(F(rng.randint(-5, 5), 2) for _ in range(rank)))
                for _ in range(3)]
        cases.append(([rng.choice(pool) for _ in range(5)], rank))
    for weights, rank in cases:
        want = _sym_counters(weights, 8, rank)
        assert _packed_sym(weights, 8, rank) == want
        assert Counter(se.sym_weights(weights, 8)) == want[8]


def _tuple_series(lams, gd, kd, N):
    """The reference for _series: tuple Sym^k(-(u cap p)), the tuple Bott
    kernel and one table shared over every twist and degree, each degree a
    dict of terms."""
    from test_bott import euler_of_tuples
    rank = gd.rs.rank
    syms = _tuple_sym_powers([(-w).d2 for w in gd.u_cap_p_weights()], N, rank)
    seen = {}
    for lam in lams:
        shift = -lam - kd.rho - kd.rho
        chi = [euler_of_tuples(sym, kd, shift=shift, seen=seen) for sym in syms]
        yield ([{w: -m for w, m in c.items()} for c in chi]
               if len(kd.positive_roots) % 2 else chi)


def test_euler_series_matches_the_tuple_kernel_on_a_box():
    rs, gd, kd, box = _box_context("su(2,2)")
    assert len(box) == 55
    want = list(_tuple_series(box, gd, kd, 6))
    for lam, chi in zip(box, want):
        assert list(map(terms, se.euler_series(lam, gd, kd, 6).chi)) == chi
    # the box as one call: one packing and one table for all 55 twists
    got = list(se.verify_vanishing_box(box, gd, kd, 6))
    assert [list(map(terms, r.series.chi)) for r in got] == want


@pytest.mark.parametrize("name,h", [("su(2,2)", None), ("so*(8)", (0, 0, 0, 2))])
def test_one_twist_at_a_time_matches_the_box(name, h):
    # a box shares one packing, one Sym^k and one table over its twists;
    # each twist alone must get the same report
    rs, gd, kd, box = _box_context(name, h)
    assert len(box) == {"su(2,2)": 55, "so*(8)": 5}[name]
    got = list(se.verify_vanishing_box(box, gd, kd, 6, form=name))
    assert got == [se.verify_vanishing(lam, gd, kd, 6, form=name) for lam in box]
    assert len({repr(r.series.chi) for r in got}) == len(box) > 1


def test_euler_series_at_the_slot_bound():
    # twists (c, -c, c) at the widest 8-bit packing _series derives for
    # su(2,2) at N = 6, and one step past it, on both sides of 0
    rs, gd, kd, _ = _box_context("su(2,2)")
    N = 6
    gens = [(-w).d2 for w in gd.u_cap_p_weights()]

    def width(c):
        shift = -rd.weight(c, -c, c) - kd.rho - kd.rho
        return rd._packing(kd, N * rd._reach(gens)
                           + rd._reach([shift.d2])).width

    edges = []
    for step in (1, -1):
        c = 0
        while width(c + step) == 8:
            c += step
        assert width(c + step) == 16
        edges += [c, c + step]
    lams = [rd.weight(c, -c, c) for c in edges]
    for lam, chi in zip(lams, _tuple_series(lams, gd, kd, N)):
        assert list(map(terms, se.euler_series(lam, gd, kd, N).chi)) == chi


def test_sym_powers_without_generators():
    # Sym^0 of the zero space is one zero weight of the ambient rank
    assert se._sym([], 3) == [{0: 1}, {}, {}, {}]
    assert _packed_sym([], 3, 2) == [Counter({rd.weight(0, 0): 1}),
                                     Counter(), Counter(), Counter()]


def test_non_integral_twist_is_input_error():
    rs, gd, kd = _context("su(2,1)", (2, 2))
    half = rd.Weight((F(1, 2), F(0)))
    with pytest.raises(InputError):
        se.verify_vanishing(half, gd, kd, 2)
    with pytest.raises(InputError):
        se.euler_series(half, gd, kd, 2)
    with pytest.raises(InputError):
        se.blattner_multiplicity(rd.weight(0, 0), half, gd, kd)


def test_euler_series_su11_line():
    rs, gd, kd = _context("su(1,1)", (2,))
    s = se.euler_series(rd.weight(0), gd, kd, 6)
    for k, chi in enumerate(s.chi):
        # functions on a line scaled with weight -alpha
        assert terms(chi) == {rd.weight(-2 * k): 1}


def test_euler_series_su21_degree_one():
    rs, gd, kd = _context("su(2,1)", (2, 2))
    s = se.euler_series(rd.weight(0, 0), gd, kd, 2)
    a1 = rs.root_fw(rs.simple_roots[0])
    a2 = rs.root_fw(rs.simple_roots[1])
    assert terms(s.chi[1]) == {a1: 1, a2: 1}
    assert s.chi[1].dimension(kd) == 4
    assert terms(s.chi[0]) == {rd.weight(0, 0): 1}


def test_chi0_is_contragredient_of_lambda():
    rs, gd, kd = _context("su(2,1)", (2, 2))
    a1 = rs.root_fw(rs.simple_roots[0])
    a2 = rs.root_fw(rs.simple_roots[1])
    s = se.euler_series(a1, gd, kd, 0)
    assert terms(s.chi[0]) == {a2: 1}  # dual flips a1 <-> a2
    # self-dual twist: chi_0 is the character itself
    s2 = se.euler_series(a1 + a2, gd, kd, 0)
    assert terms(s2.chi[0]) == {a1 + a2: 1}


def test_verify_vanishing_pass_and_gate():
    rs, gd, kd = _context("su(1,1)", (2,))
    assert se.verify_vanishing(rd.weight(0), gd, kd, 10).status == se.PASS
    assert se.verify_vanishing(rd.weight(-3), gd, kd, 4).status == se.PASS

    rs, gd, kd = _context("su(2,1)", (2, 2))
    assert se.verify_vanishing(rd.weight(0, 0), gd, kd, 8).status == se.PASS
    # not Q cap K dominant: pairing with the compact coroot is negative
    bad = rd.weight(-1, 0)
    rep = se.verify_vanishing(bad, gd, kd, 4)
    assert rep.status == se.HYPOTHESIS_UNMET
    assert rep.series is None


def _box_context(name, h=None):
    if h is None:
        rs, eps, h = rf.principal_presentation(name)
        gd = gr.grade(rs, eps, h)
        kd = gd.k_root_datum()
    else:
        rs, gd, kd = _context(name, h)
    return rs, gd, kd, cli._qk_dominant_box(rs, gr.parabolic(gd), kd)


@pytest.mark.parametrize("name,h,extra", [
    ("su(1,1)", None, [(0,), (-3,)]),
    ("su(2,1)", None, [(0, 0), (-1, 0)]),
    ("sp(4,R)", None, []),
    ("su(2,2)", None, []),
    ("so*(8)", (0, 0, 0, 2), []),
])
def test_vanishing_box_matches_twist_by_twist(name, h, extra):
    # the Q cap K dominant box, its non-dominant neighbours in the same
    # coordinate range (su(1,1) has none: K is a torus), and the twists of
    # test_verify_vanishing_pass_and_gate
    rs, gd, kd, box = _box_context(name, h)
    pd = gr.parabolic(gd)
    outside = [lam for lam in (rd.Weight(c) for c in product(range(-2, 3),
                                                              repeat=rs.rank))
               if not gr.is_QK_dominant(lam, pd, kd)][:6]
    lams = [rd.Weight(c) for c in extra] + outside[:3] + box + outside[3:]
    got = list(se.verify_vanishing_box(lams, gd, kd, 4, form=name))
    want = [se.verify_vanishing(lam, gd, kd, 4, form=name) for lam in lams]
    assert [r.lam for r in got] == lams
    for g, w in zip(got, want):
        assert (g.status, g.violations) == (w.status, w.violations)
        if w.series is None:
            assert g.series is None
        else:
            assert [c.items() for c in g.series.chi] == \
                [c.items() for c in w.series.chi]
    statuses = {r.status for r in got}
    assert statuses == ({se.PASS, se.HYPOTHESIS_UNMET} if outside else {se.PASS})


def test_vanishing_box_rejects_a_non_integral_twist_at_the_call():
    rs, gd, kd, box = _box_context("su(2,1)")
    half = rd.Weight((F(1, 2), F(0)))
    for at in (0, len(box) // 2, len(box)):
        with pytest.raises(InputError):
            se.verify_vanishing_box(box[:at] + [half] + box[at:], gd, kd, 2)


def test_empty_vanishing_box_yields_nothing():
    rs, gd, kd, box = _box_context("su(2,1)")
    assert list(se.verify_vanishing_box([], gd, kd, 4)) == []


def test_vanishing_box_regularizes_each_shifted_weight_once(monkeypatch):
    rs, gd, kd, box = _box_context("su(2,2)")
    assert len(box) == 55
    calls = []
    regularize = rd._Packing.regularize

    def counted(packing, key):
        calls.append(key)
        return regularize(packing, key)

    # the kernel's miss point: one call per pairing key missing from the table
    monkeypatch.setattr(rd._Packing, "regularize", counted)
    reports = list(se.verify_vanishing_box(box, gd, kd, 6, form="su(2,2)"))
    assert all(r.status == se.PASS for r in reports)
    # one call per distinct simple-coroot pairing vector of a shifted weight
    # (2,054 distinct shifted weights share these 211); one packing serves
    # the call, so distinct packed keys are distinct pairing vectors.  The
    # table lives on the packing of K, so the count needs the K that
    # _box_context has just built: a warm table would lower it.
    keys = set(calls)
    assert len(calls) == len(keys) == 211


def test_per_twist_calls_share_the_table_of_k(monkeypatch):
    # the 55 one-twist calls over su(2,2)'s box, on one K, regularize as
    # often as one box call on a freshly built K, and report the same
    calls = []
    regularize = rd._Packing.regularize

    def counted(packing, key):
        calls.append(key)
        return regularize(packing, key)

    monkeypatch.setattr(rd._Packing, "regularize", counted)
    rs, gd, kd, box = _box_context("su(2,2)")
    assert len(box) == 55
    one_at_a_time = [se.verify_vanishing(lam, gd, kd, 6, form="su(2,2)")
                     for lam in box]
    per_twist = len(calls)
    calls.clear()
    rs, gd, kd, box = _box_context("su(2,2)")
    assert one_at_a_time == list(se.verify_vanishing_box(box, gd, kd, 6, form="su(2,2)"))
    assert per_twist == len(calls) == 211


@pytest.mark.parametrize("name,h", [
    ("su(2,2)", None), ("so*(8)", (0, 0, 0, 2)), ("su(3,2)", (2, 0, 0, 0)),
])
def test_warm_and_cold_tables_give_the_same_series(name, h):
    # a Hilbert series on a K whose tables a vanishing box has filled, and
    # on a freshly built K.  The box of su(2,2) and su(3,2) packs in 8-bit
    # slots and N = 14 in 16-bit ones; so*(8) packs both in 16-bit slots,
    # so its series starts from the box's table.
    rs, gd, kd, box = _box_context(name, h)
    assert all(r.status == se.PASS for r in se.verify_vanishing_box(box, gd, kd, 6))
    warm = se.hilbert_series(gd, kd, 14)
    assert sorted(p.width for p in kd._packings.values() if p.table) == \
        ([16] if name == "so*(8)" else [8, 16])
    rs, gd, kd, box = _box_context(name, h)
    assert warm == se.hilbert_series(gd, kd, 14)


@pytest.mark.parametrize("name,h", [
    ("su(1,1)", None), ("su(2,1)", None), ("sp(4,R)", None), ("su(2,2)", None),
    ("so*(8)", (0, 0, 0, 2)), ("su(3,2)", (2, 0, 0, 0)),
])
def test_serre_duality_series_is_the_dual_euler_characteristic(name, h):
    # the series is built from Sym^k(-(u cap p)) - lam - 2 rho_K by Serre
    # duality; it must equal dual(Euler(Sym^k(u cap p) + lam)) on Q cap K
    # dominant twists and on non-dominant ones
    rs, gd, kd, box = _box_context(name, h)
    # the series signs by l(w0) = |positive roots of K|: w0 sweeps -rho_K
    # to rho_K, one reflection per positive root
    assert rd.make_dominant(kd, -kd.rho - kd.rho)[0].length == len(kd.positive_roots)
    pd = gr.parabolic(gd)
    outside = [lam for lam in (rd.Weight(c) for c in product(range(-2, 3),
                                                              repeat=rs.rank))
               if not gr.is_QK_dominant(lam, pd, kd)][:4]
    syms = _sym_counters(gd.u_cap_p_weights(), 4, rs.rank)
    for lam in box[:8] + outside:
        series = se.euler_series(lam, gd, kd, 4)
        for k, sym in enumerate(syms):
            shifted = [w + lam for w in sym.elements()]
            assert terms(series.chi[k]) == dual(kd, euler(shifted, kd))


def _alternating_args(kd, mus, lam):
    """Every partition-function argument of the alternating sums at mus."""
    words = rd.weyl_elements(kd)
    for mu in mus:
        mu_star = kd.dominant_representative(-mu)
        for w in words:
            yield apply_word(kd, w, mu_star + kd.rho) - kd.rho - lam


def test_shared_partition_counter_matches_fresh_counts():
    # su(4,4)'s mu = 0 alternating sum and so*(8)'s lam = 0 identity, every
    # argument counted in order by one counter call under the walk's phi,
    # by a fresh call each, by the height view and by the reference
    for name, h in [("su(4,4)", (0, 0, 0, 2, 0, 0, 0)), ("so*(8)", (0, 0, 0, 2))]:
        rs, gd, kd = _context(name, h)
        zero = rd.zero_weight(rs.rank)
        mus = [zero]
        if name == "so*(8)":
            chis = se.euler_series(zero, gd, kd, 2).chi
            mus = sorted({w for chi in chis for w, _ in chi.items()}, key=lambda w: w.d2)
        ups = gd.u_cap_p_weights()
        gens, phi = [w.d2 for w in ups], se._walk_phi(gd)
        args = list(_alternating_args(kd, mus, zero))
        got = rd._partition_counts(gens, phi, [arg.d2 for arg in args])
        assert got == [rd._partition_counts(gens, phi, [arg.d2])[0] for arg in args]
        assert got == [rd.kostant_partition(rs, arg, ups) for arg in args]
        assert got == list(map(partition_counter(rs, ups), args))
        assert any(got)
    a2 = rd.build_root_system("A", 2)
    for gens in ([rd.weight(0, 0)], [rd.weight(2, -1), rd.weight(-2, 1)]):
        with pytest.raises(InputError):
            rd._partition_counts([g.d2 for g in gens], rd._phi(a2, [1, 1]), [])
        with pytest.raises(InputError):
            rd.kostant_partition(a2, rd.weight(0, 0), gens)


def _walked(gd, kd, mu, lam):
    """What the Blattner walk at (mu, lam) must do, read off the full sum:
    the terms with phi >= 0, as a dict argument -> sign, and the number of
    edges between them that the walk reflects along, the pairs (w, i) with
    w kept, <w x, beta_i^vee> > 0 (s_i raises the length) and s_i w kept."""
    off = kd.rho + lam
    kept = {arg: sign for arg, sign in blattner_terms(kd, mu, lam)
            if blattner_phi(gd, arg) >= 0}
    edges = 0
    for arg in kept:
        image = (arg + off).d2
        for i, coroot in enumerate(kd._simple_coroots):
            if sum(map(mul, coroot, image)) > 0 and \
                    rd._weight_of(reflect2(kd, image, i)) - off in kept:
                edges += 1
    return kept, edges


@pytest.mark.parametrize("name,h", [
    ("su(4,4)", (0, 0, 0, 2, 0, 0, 0)), ("so*(8)", (0, 0, 0, 2)),
    ("sp(4,R)", (2, 2)), ("su(1,1)", (2,)),
])
def test_weyl_images_reflect_once_per_word(name, h, monkeypatch):
    # the walk keeps exactly the Weyl images whose phi is >= 0, each with
    # its sign, and reflects once per edge walked between two of them; at
    # lam = -2 rho_K and mu = 0 nothing is pruned (a(w) = w rho_K + rho_K),
    # so it walks every word.  su(1,1): K has no simple roots, its one word
    # is the identity
    rs, gd, kd = _context(name, h)
    zero = rd.zero_weight(rs.rank)
    rng = random.Random(59)
    mu = kd.dominant_representative(
        rd.Weight(tuple(rng.randint(-1, 1) for _ in range(rs.rank))))
    low = -kd.rho - kd.rho
    reflect = rd._Packing.reflect
    calls = []

    def counted(packing, q, i):
        calls.append(i)
        return reflect(packing, q, i)

    monkeypatch.setattr(rd._Packing, "reflect", counted)
    for m, lam in [(zero, zero), (mu, zero), (zero, low), (mu, low)]:
        kept, edges = _walked(gd, kd, m, lam)
        calls.clear()
        assert dict(se._blattner_terms(m, lam, gd, kd)) == kept
        assert len(calls) == edges
    kept, edges = _walked(gd, kd, zero, low)
    words = rd.weyl_elements(kd)
    assert len(kept) == len(words)
    # each w has rank(K) - (its left descents) raising steps: rank(K) / 2 on average
    assert edges == len(words) * kd.rank // 2


def test_verify_vanishing_levi_equality_gate():
    # compact form: l cap k contains a simple root, so a weight positive on it
    # fails the stabilized-line condition
    rs = rd.build_root_system("A", 2)
    eps = rf.EqualRankInvolution((1, 1))
    gd = gr.grade(rs, eps, (2, 0))
    kd = gd.k_root_datum()
    assert se.verify_vanishing(rd.weight(0, 1), gd, kd, 2).status == se.HYPOTHESIS_UNMET


def test_hilbert_series_pins():
    rs, gd, kd = _context("su(1,1)", (2,))
    assert se.hilbert_series(gd, kd, 6) == [1] * 7
    rs, gd, kd = _context("su(2,1)", (2, 2))
    assert se.hilbert_series(gd, kd, 4) == [1, 4, 9, 16, 25]


def test_hilbert_series_compact_point():
    rs = rd.build_root_system("A", 2)
    eps = rf.EqualRankInvolution((1, 1))
    gd = gr.grade(rs, eps, (2, 2))
    kd = gd.k_root_datum()
    assert se.hilbert_series(gd, kd, 4) == [1, 0, 0, 0, 0]


def test_components_split_su11():
    rs, eps = rf.standard_form_catalog("su(1,1)")
    gd_plus = gr.grade(rs, eps, (2,))
    gd_minus = gr.grade(rs, eps, (-2,))
    kd = gd_plus.k_root_datum()
    result = se.components_split([gd_plus, gd_minus], kd, 4)
    assert result.total_dims == [2, 2, 2, 2, 2]
    # degree zero of each component is one constant
    assert [terms(s.chi[0]) for s in result.per_component] == \
        [{rd.weight(0): 1}] * 2


def test_components_split_single_is_identity():
    rs, gd, kd = _context("su(2,1)", (2, 2))
    result = se.components_split([gd], kd, 3)
    assert result.total_dims == se.hilbert_series(gd, kd, 3)


def test_components_split_rejects_empty():
    rs, gd, kd = _context("su(1,1)", (2,))
    with pytest.raises(InputError):
        se.components_split([], kd, 3)


def test_blattner_pins():
    rs, gd, kd = _context("su(1,1)", (2,))
    for k in range(6):
        assert se.blattner_multiplicity(rd.weight(-2 * k), rd.weight(0), gd, kd) == 1
    rs, gd, kd = _context("su(2,1)", (2, 2))
    a1 = rs.root_fw(rs.simple_roots[0])
    assert se.blattner_multiplicity(a1, rd.weight(0, 0), gd, kd) == 1
    assert se.blattner_multiplicity(rd.weight(0, 0), rd.weight(0, 0), gd, kd) == 1
    with pytest.raises(InputError):
        se.blattner_multiplicity(rd.weight(-1, 0), rd.weight(0, 0), gd, kd)


@pytest.mark.parametrize("name,h", [
    ("su(1,1)", (2,)),
    ("su(2,1)", (2, 2)),
    ("sp(4,R)", (2, 2)),   # weights of u cap p with unequal heights
])
def test_blattner_series_identity(name, h):
    if name == "sp(4,R)":
        rs, eps, hp = rf.principal_presentation(name)
        gd = gr.grade(rs, eps, hp)
        kd = gd.k_root_datum()
    else:
        rs, gd, kd = _context(name, h)
    ok, mismatches, count = se.blattner_series_identity(
        gd, kd, rd.Weight((F(0),) * rs.rank), 3)
    assert ok, mismatches
    assert count > 0


def test_blattner_identity_reflects_each_k_type_once(monkeypatch):
    # each K-type's dual highest weight and one walk over W_K serve the
    # alternating sum of every degree, and the walk reflects once per edge
    rs, gd, kd = _context("so*(8)", (0, 0, 0, 2))
    zero = rd.zero_weight(4)
    want = se.blattner_series_identity(gd, kd, zero, 2)
    mus = {w for chi in se.euler_series(zero, gd, kd, 2).chi for w, _ in chi.items()}
    edges = sum(_walked(gd, kd, mu, zero)[1] for mu in mus)
    calls = Counter()
    blattner_terms = se._blattner_terms
    dominant_representative = kd.dominant_representative
    reflect = rd._Packing.reflect

    def counted_walk(mu, lam, gd, kd):
        calls["walks"] += 1
        return blattner_terms(mu, lam, gd, kd)

    def counted_dual(lam):
        calls["dual"] += 1
        return dominant_representative(lam)

    def counted_reflect(packing, q, i):
        calls["reflect"] += 1
        return reflect(packing, q, i)

    monkeypatch.setattr(se, "_blattner_terms", counted_walk)
    monkeypatch.setattr(kd, "dominant_representative", counted_dual)
    monkeypatch.setattr(rd._Packing, "reflect", counted_reflect)
    got = se.blattner_series_identity(gd, kd, zero, 2)
    assert got == want and want[0] and want[2] == 4
    assert edges > 0 and calls == {"walks": 4, "dual": 4, "reflect": edges}


@pytest.mark.parametrize("name,eps,h", [
    ("su(1,1)", None, (-2,)),
    ("su(2,1)", None, None),
    ("sp(4,R)", None, None),
    ("su(2,2)", None, None),
    ("so*(8)", None, (0, 0, 0, 2)),
    ("su(3,2)", (-1, -1, -1, -1), (2, 2, 2, 2)),
    ("su(4,4)", None, (0, 0, 0, 2, 0, 0, 0)),
])
def test_blattner_walk_equals_the_full_sum(name, eps, h):
    # the pruned walk against the sum over every word of W_K, at mu = 0,
    # seeded K-dominant mu and every K-type of the series, lam = 0 and lam
    # a simple root: each term it skips counts 0 in P and in every P_k, so
    # blattner_multiplicity and each degree of blattner_series_identity are
    # the full sum's.  The reference P is bounded by phi, not by height:
    # su(1,1) at H = -2 has u cap p = -alpha, of height -1 but phi 6
    if eps is None:
        rs, gd, kd, _ = _box_context(name, h)
    else:
        rs = rf.standard_form_catalog(name)[0]
        gd = gr.grade(rs, rf.EqualRankInvolution(eps), h)
        kd = gd.k_root_datum()
    zero = rd.zero_weight(rs.rank)
    rng = random.Random(name)
    seeded = [kd.dominant_representative(
        rd.Weight(tuple(rng.randint(-1, 1) for _ in range(rs.rank)))) for _ in range(3)]
    degree = 2 if rs.rank > 5 else 3
    ups = gd.u_cap_p_weights()
    syms = _sym_counters(ups, degree, rs.rank)
    count = partition_counter(rs, ups, blattner_scale(gd))
    for lam in (zero, rs.root_fw(rs.simple_roots[0])):
        chi = se.euler_series(lam, gd, kd, degree).chi
        types = sorted({w for c in chi for w, _ in c.items()}, key=lambda w: w.d2)
        want = []
        for mu in types:
            series = [c.mult(mu) for c in chi]
            full = blattner_terms(kd, mu, lam)
            alternating = [alternating_sum(full, sym.__getitem__) for sym in syms]
            if series != alternating:
                want.append((mu, series, alternating))
        assert se.blattner_series_identity(gd, kd, lam, degree) == \
            (not want, want, len(types))
        for mu in [zero] + seeded + types:
            full = dict(blattner_terms(kd, mu, lam))
            walked = dict(se._blattner_terms(mu, lam, gd, kd))
            assert walked.items() <= full.items()
            skipped = [arg for arg in full if arg not in walked]
            assert not any(sym[arg] for sym in syms for arg in skipped)
            assert not any(count(arg) for arg in skipped)
            assert se.blattner_multiplicity(mu, lam, gd, kd) == \
                alternating_sum(full.items(), count)


@pytest.mark.parametrize("name,eps,h", [
    ("sp(4,R)", None, None),
    ("su(3,2)", (-1, -1, -1, -1), (2, 2, 2, 2)),
])
def test_partition_counter_matches_the_reference(name, eps, h):
    # at seeded K-dominant mu with fw entries in -2..2, lam = 0 and lam a
    # simple root: the packed counter under the walk's phi, over every term
    # of the full sum, equals the root-coordinate reference, and so does
    # blattner_multiplicity's one call over the walk's terms
    if eps is None:
        rs, gd, kd, _ = _box_context(name, h)
    else:
        rs = rf.standard_form_catalog(name)[0]
        gd = gr.grade(rs, rf.EqualRankInvolution(eps), h)
        kd = gd.k_root_datum()
    ups = gd.u_cap_p_weights()
    count = partition_counter(rs, ups)
    rng = random.Random(name)
    for lam in (rd.zero_weight(rs.rank), rs.root_fw(rs.simple_roots[0])):
        for _ in range(6):
            mu = kd.dominant_representative(
                rd.Weight(tuple(rng.randint(-2, 2) for _ in range(rs.rank))))
            full = blattner_terms(kd, mu, lam)
            got = rd._partition_counts([w.d2 for w in ups], se._walk_phi(gd),
                                       [arg.d2 for arg, _ in full])
            assert got == [count(arg) for arg, _ in full]
            assert se.blattner_multiplicity(mu, lam, gd, kd) == \
                alternating_sum(full, count)


def test_blattner_runs_where_u_cap_p_has_negative_height():
    # su(1,1) at H = -2: u cap p is -alpha, of height -1 but phi 6, so the
    # sum runs; at mu = m alpha it is the series' total, which through
    # degree 6 is 1, in degree m
    rs, gd, kd = _context("su(1,1)", (-2,))
    zero = rd.zero_weight(1)
    chi = se.euler_series(zero, gd, kd, 6).chi
    for m in range(5):
        mu = rd.weight(2 * m)
        assert [c.mult(mu) for c in chi] == [int(k == m) for k in range(7)]
        assert se.blattner_multiplicity(mu, zero, gd, kd) == 1


def test_blattner_walk_at_zero_keeps_only_the_identity(monkeypatch):
    # su(4,4): at mu = lam = 0 every w != 1 has phi(w rho_K - rho_K) < 0, so
    # the walk keeps 1 of the 576 elements of W_K, counts one partition in
    # one counter call and reflects at most rank(K) times
    rs, gd, kd = _context("su(4,4)", (0, 0, 0, 2, 0, 0, 0))
    zero = rd.zero_weight(7)
    calls = Counter()
    reflect = rd._Packing.reflect
    partition_counts = se._partition_counts

    def counted_reflect(packing, q, i):
        calls["reflect"] += 1
        return reflect(packing, q, i)

    def counted_counts(gens, phi, args):
        calls["calls"] += 1
        calls["count"] += len(args)
        return partition_counts(gens, phi, args)

    monkeypatch.setattr(rd._Packing, "reflect", counted_reflect)
    monkeypatch.setattr(se, "_partition_counts", counted_counts)
    assert se.blattner_multiplicity(zero, zero, gd, kd) == 1
    assert calls["calls"] == calls["count"] == 1 and calls["reflect"] <= kd.rank
    assert len(rd.weyl_elements(kd)) == 576


def test_blattner_walk_refuses_past_the_materialize_limit(monkeypatch):
    # at mu = 0 and lam = -2 rho_K nothing is pruned, so the walk keeps all
    # 24 elements of W_K for so*(8); one fewer allowed is weyl_elements'
    # refusal, word for word
    rs, gd, kd = _context("so*(8)", (0, 0, 0, 2))
    zero = rd.zero_weight(4)
    low = -kd.rho - kd.rho
    monkeypatch.setattr(se, "_MATERIALIZE_LIMIT", 24)
    assert len(se._blattner_terms(zero, low, gd, kd)) == 24
    assert se.blattner_multiplicity(zero, low, gd, kd) == \
        alternating_sum(blattner_terms(kd, zero, low),
                        partition_counter(rs, gd.u_cap_p_weights()))
    monkeypatch.setattr(se, "_MATERIALIZE_LIMIT", 23)
    monkeypatch.setattr(rd, "_MATERIALIZE_LIMIT", 23)
    with pytest.raises(ConsistencyError) as walk:
        se.blattner_multiplicity(zero, low, gd, kd)
    with pytest.raises(ConsistencyError) as words:
        rd.weyl_elements(kd)
    assert str(walk.value) == str(words.value)


def _ungraded_identity(gd, kd, lam, max_degree):
    """The ungraded identity the series was once checked with: for each
    type seen up to max_degree, its total over the series extended to the
    last degree that could still hold it, against the untruncated
    alternating sum over all of W_K.  Returns (ok, mismatches, types
    checked, the extension degree k_far)."""
    rs = gd.rs
    ups = gd.u_cap_p_weights()
    # heights in root coordinates times one positive scale (root_num), so
    # floor(h / min_h) and the sign of h are those of the exact heights
    heights = [sum(root_num(rs, w)) for w in ups]
    min_h = min(heights, default=1)
    base = se.euler_series(lam, gd, kd, max_degree)
    mus = {w for chi in base.chi for w, _ in chi.items()}
    full, needed = {}, {}
    for mu in mus:
        full[mu] = blattner_terms(kd, mu, lam)
        hs = [sum(root_num(rs, arg)) for arg, _ in full[mu]]
        needed[mu] = max([h // min_h for h in hs if h >= 0], default=0)
    k_far = max([max_degree, *needed.values()])
    ext = se.euler_series(lam, gd, kd, k_far) if k_far > max_degree else base
    count = partition_counter(rs, ups)
    mismatches = []
    for mu in sorted(mus, key=lambda w: w.d2):
        cumulative = sum(chi.mult(mu) for chi in ext.chi[: needed[mu] + 1])
        alternating = alternating_sum(full[mu], count)
        if cumulative != alternating:
            mismatches.append((mu, cumulative, alternating))
    return not mismatches, mismatches, len(mus), k_far


_SEARCHED = json.loads((Path(__file__).parent / "data" /
                        "verify-searched.seed7.json").read_text())


@pytest.mark.parametrize("name,eps,h", [
    # the shipped verify presentations: the pinned four, the searched nine
    *((name, None, None) for name in ("su(1,1)", "su(2,1)", "sp(4,R)", "su(2,2)")),
    *((name, None, tuple(report["H"])) for name, report in sorted(_SEARCHED.items())),
    # maximal presentations, where the ungraded identity extends the series
    ("su(3,1)", (1, -1, -1), (0, 2, 2)),
    ("sp(6,R)", (-1, -1, -1), (2, 2, 2)),
    ("su(3,2)", (-1, -1, -1, -1), (2, 2, 2, 2)),
    ("so*(8)", (-1, -1, 1, 1), (2, 2, 0, 0)),
    ("sp(2,2)", (-1, 1, -1, 1), (0, 2, 0, 2)),
])
def test_graded_identity_agrees_with_the_ungraded_one(name, eps, h):
    if eps is None:
        rs, gd, kd, _ = _box_context(name, h)
    else:
        rs = rf.standard_form_catalog(name)[0]
        gd = gr.grade(rs, rf.EqualRankInvolution(eps), h)
        kd = gd.k_root_datum()
    zero = rd.zero_weight(rs.rank)
    ok, _, count, k_far = _ungraded_identity(gd, kd, zero, 3)
    got = se.blattner_series_identity(gd, kd, zero, 3)
    assert ok and (got[0], got[2]) == (ok, count)
    # P = sum_k P_k: through the extension degree, each type's graded sums
    # add up to its ungraded total
    syms = _sym_counters(gd.u_cap_p_weights(), k_far, rs.rank)
    for mu in {w for c in se.euler_series(zero, gd, kd, 3).chi for w, _ in c.items()}:
        full = blattner_terms(kd, mu, zero)
        graded = [alternating_sum(full, sym.__getitem__) for sym in syms]
        assert sum(graded) == se.blattner_multiplicity(mu, zero, gd, kd)


def test_blattner_identity_reaches_rank_7():
    # su(4,4) at a maximal presentation: the ungraded identity would extend
    # the series to degree 21
    rs = rf.standard_form_catalog("su(4,4)")[0]
    gd = gr.grade(rs, rf.EqualRankInvolution((-1,) * 7), (2,) * 7)
    kd = gd.k_root_datum()
    assert se.blattner_series_identity(gd, kd, rd.zero_weight(7), 3) == (True, [], 28)


def test_blattner_identity_builds_one_series_to_max_degree(monkeypatch):
    rs, gd, kd = _context("so*(8)", (0, 0, 0, 2))
    degrees = []
    build = se._series

    def counted(lams, gd, kd, N, form):
        degrees.append(N)
        return build(lams, gd, kd, N, form)

    monkeypatch.setattr(se, "_series", counted)
    assert se.blattner_series_identity(gd, kd, rd.zero_weight(4), 3)[0]
    assert degrees == [3]


def test_blattner_identity_builds_one_sym_per_call(monkeypatch):
    # the alternating sums read the series' own Sym^k: one _sym per call
    rs, gd, kd = _context("su(2,1)", (2, 2))
    calls = []
    sym = se._sym

    def counted(gens, N):
        calls.append(N)
        return sym(gens, N)

    monkeypatch.setattr(se, "_sym", counted)
    for lam in (rd.zero_weight(2), rs.root_fw(rs.simple_roots[0])):
        calls.clear()
        assert se.blattner_series_identity(gd, kd, lam, 3)[0]
        assert calls == [3]


def test_blattner_identity_skips_terms_out_of_sym_reach():
    # so*(8) at lam = (2, -2, -2, -2): some kept terms lie further out than
    # max_degree times the reach of u cap p, where no Sym^k weight is; the
    # identity equals the full sum over a tuple-built Sym, keyed by Weight,
    # which no such term hits
    rs, gd, kd = _context("so*(8)", (0, 0, 0, 2))
    lam, degree = rd.weight(2, -2, -2, -2), 2
    ups = gd.u_cap_p_weights()
    bound = degree * rd._reach([w.d2 for w in ups])
    syms = _sym_counters(ups, degree, rs.rank)
    chi = se.euler_series(lam, gd, kd, degree).chi
    types = sorted({w for c in chi for w, _ in c.items()}, key=lambda w: w.d2)
    far, want = 0, []
    for mu in types:
        full = blattner_terms(kd, mu, lam)
        far += sum(rd._reach([arg.d2]) > bound for arg, _ in se._blattner_terms(mu, lam, gd, kd))
        assert not any(sym[arg] for sym in syms for arg, _ in full
                       if rd._reach([arg.d2]) > bound)
        series = [c.mult(mu) for c in chi]
        alternating = [alternating_sum(full, sym.__getitem__) for sym in syms]
        if series != alternating:
            want.append((mu, series, alternating))
    assert far > 0 and not want
    assert se.blattner_series_identity(gd, kd, lam, degree) == (True, [], len(types))


def test_blattner_mismatch_names_its_degree(monkeypatch):
    # one extra zero weight in the Sym^2 that the alternating sums read,
    # not in the one the series was built on, shifts the alternating sums
    # of degree 2 only
    rs, gd, kd = _context("su(2,1)", (2, 2))
    build = se._series

    def perturbed(lams, gd, kd, N, form):
        packing, syms, one = build(lams, gd, kd, N, form)
        syms = [dict(sym) for sym in syms]
        syms[2][0] = syms[2].get(0, 0) + 1
        return packing, syms, one

    monkeypatch.setattr(se, "_series", perturbed)
    ok, mismatches, count = se.blattner_series_identity(gd, kd, rd.zero_weight(2), 3)
    assert not ok and mismatches
    for mu, series, alternating in mismatches:
        assert len(series) == len(alternating) == 4
        assert [k for k in range(4) if series[k] != alternating[k]] == [2]
    report = cli.verify_form("su(2,1)", N=3, checks=("blattner",))
    assert report["checks"] == [{
        "check": "blattner", "verdict": "FAIL",
        "detail": {"mismatches": [[rd.weight_to_json(mu), series, alternating]
                                  for mu, series, alternating in mismatches]}}]


def test_blattner_with_twist():
    rs, gd, kd = _context("su(2,1)", (2, 2))
    a1 = rs.root_fw(rs.simple_roots[0])
    ok, mismatches, count = se.blattner_series_identity(gd, kd, a1, 3)
    assert ok, mismatches


def test_positivity_is_falsifiable_outside_the_cone():
    # outside the stabilized-line cone nothing protects positivity, and a
    # negative multiplicity appears immediately; the PASS verdicts above are
    # therefore not vacuous
    rs, gd, kd = _context("su(2,1)", (2, 2))
    lam = rd.weight(-2, 0)
    s = se.euler_series(lam, gd, kd, 1)
    assert s.chi[0].negatives()
    assert se.verify_vanishing(lam, gd, kd, 1).status == se.HYPOTHESIS_UNMET


def test_su22_series_matches_oracle_coordinate_ring():
    from nilcone import oracle as oc
    rs, eps, h = rf.principal_presentation("su(2,2)")
    gd = gr.grade(rs, eps, h)
    kd = gd.k_root_datum()
    series = se.hilbert_series(gd, kd, 2)
    real = oc.realize("su(2,2)", eps=eps)
    _, x, _ = oc.dense_element(real, h, 7)
    assert series == oc.coordinate_ring_dims(real, x, 2, 7) == [1, 8, 34]


def test_vanishing_on_searched_even_gradings():
    # every oracle-confirmed even grading (not only the principal ones)
    # resolves some even orbit closure, so positivity must hold there too
    from nilcone import oracle as oc
    for name in ["su(2,2)", "sp(4,R)"]:
        rs, eps = rf.standard_form_catalog(name)
        real = oc.realize(name)
        hits = gr.search_even_gradings(rs, eps, confirm=oc.dense_confirmer(real, 0))
        confirmed = [h for h in hits if h.confirmed]
        assert confirmed
        for hit in confirmed:
            gd = gr.grade(rs, eps, hit.H.h_values)
            kd = gd.k_root_datum()
            rep = se.verify_vanishing(rd.Weight((F(0),) * rs.rank), gd, kd, 4)
            assert rep.status == se.PASS, (name, hit.H.h_values)


# -- packed characters ----------------------------------------------------------------

def _fresh(chi):
    """A copy of chi that no read has unpacked yet."""
    return rd.VirtualCharacter(chi._packing, dict(chi._packed))


def _eager(chi):
    """chi's terms as a dict Weight -> multiplicity, unpacked without
    reading chi."""
    unpack = chi._packing.unpack
    return {rd._weight_of(unpack(q)): m for q, m in chi._packed.items()}


def _weyl_sum(terms, kd):
    return sum(m * rd.weyl_dimension(kd, w) for w, m in terms.items())


def _assert_packed_reads_like_eager(chi, kd):
    want = _eager(chi)
    items = sorted(want.items(), key=lambda wm: wm[0].d2)
    assert _fresh(chi).negatives() == [(w, m) for w, m in items if m < 0]
    assert _fresh(chi).dimension(kd) == _weyl_sum(want, kd)
    assert _fresh(chi).items() == items
    assert repr(_fresh(chi)) == "VirtualCharacter(%s)" % (" ".join(
        "%+d*V%s" % (m, tuple(str(c) for c in w.fw)) for w, m in items) or 0)
    absent = rd._weight_of(tuple(-1 - x for x in kd.rho.d2))  # not dominant
    for w in list(want) + [absent]:
        assert _fresh(chi).mult(w) == want.get(w, 0)
    assert _fresh(chi) == chi and chi == _fresh(chi)
    packing = chi._packing
    more = dict(chi._packed)
    rho = packing.pack(kd.rho.d2) + packing.bias
    more[rho] = more.get(rho, 0) + 1
    assert _fresh(chi) != rd.VirtualCharacter(packing, {q: m for q, m in more.items() if m})
    negated = -_fresh(chi)
    assert "_terms" not in negated.__dict__  # negation stays packed
    assert terms(negated) == {w: -m for w, m in want.items()}
    assert negated.negatives() == [(w, -m) for w, m in items if m > 0]
    assert negated.dimension(kd) == -_weyl_sum(want, kd)
    assert -negated == chi


@pytest.mark.parametrize("name,h", [("su(2,2)", None), ("so*(8)", (0, 0, 0, 2))])
def test_packed_characters_of_a_box_read_like_eager_ones(name, h):
    rs, gd, kd, box = _box_context(name, h)
    assert len(box) == {"su(2,2)": 55, "so*(8)": 5}[name]
    reports = list(se.verify_vanishing_box(box, gd, kd, 6, form=name))
    for rep in reports:
        for chi in rep.series.chi:
            _assert_packed_reads_like_eager(chi, kd)


def test_packed_hilbert_series_of_su44_reads_like_eager():
    rs, gd, kd = _context("su(4,4)", (0, 0, 0, 2, 0, 0, 0))
    series = se.euler_series(rd.zero_weight(rs.rank), gd, kd, 6)
    for chi in series.chi:
        _assert_packed_reads_like_eager(chi, kd)
    assert series.dims(kd) == [_weyl_sum(_eager(chi), kd) for chi in series.chi] \
        == se.hilbert_series(gd, kd, 6) == [1, 16, 136, 816, 3876, 15504, 54264]


# the table-A forms, the ladder past them and the two other searched forms,
# at their pinned presentation or H = (2, 0, ..., 0)
_W0_FORMS = ("su(1,1)", "su(2,1)", "sp(4,R)", "su(2,2)", "su(3,1)", "sp(6,R)",
             "su(3,2)", "so*(8)", "su(4,2)", "su(3,3)", "so*(10)", "sp(2,2)",
             "sp(8,R)", "su(4,4)", "so*(12)", "sp(3,3)", "sp(10,R)", "so*(6)",
             "sp(1,2)")


def test_odd_w0_series_negate_packed_characters():
    odd = []
    for name in _W0_FORMS:
        try:
            rs, eps, h = rf.principal_presentation(name)
        except OutOfScopeError:
            rs, eps = rf.standard_form_catalog(name)
            h = (2,) + (0,) * (rs.rank - 1)
        gd = gr.grade(rs, eps, h)
        kd = gd.k_root_datum()
        if len(kd.positive_roots) % 2 == 0:
            continue
        odd.append(name)
        # the first three twists of the box within [-1, 1], K-pairings <= 2
        lams = [rd.zero_weight(rs.rank)] + [
            lam for lam in cli._qk_dominant_box(rs, gr.parabolic(gd), kd)
            if max(map(abs, lam.d2)) <= 2
            and all(kd.rs.pairing(lam, b) <= 2 for b in kd.simple_roots)][:3]
        for lam in lams:
            for chi in se.euler_series(lam, gd, kd, 3).chi:
                _assert_packed_reads_like_eager(chi, kd)
    assert odd == ["su(2,1)", "sp(4,R)", "su(3,1)", "sp(6,R)", "su(4,2)",
                   "so*(12)", "so*(6)", "sp(1,2)"]


def test_nonnegative_packed_character_builds_no_weight(monkeypatch):
    rs, gd, kd, _ = _box_context("su(2,2)")
    chi = se.euler_series(rd.zero_weight(rs.rank), gd, kd, 4).chi
    built = []
    weight_of = rd._weight_of
    monkeypatch.setattr(rd, "_weight_of", lambda d2: built.append(d2) or weight_of(d2))
    for c in chi:
        assert c.negatives() == [] and "_terms" not in c.__dict__
        assert c.dimension(kd) > 0 and "_terms" not in c.__dict__
    assert built == []
    # a negative term is built, and only that one
    mixed = _fresh(chi[2])
    q = next(iter(mixed._packed))
    mixed._packed[q] = -mixed._packed[q]
    assert len(mixed.negatives()) == 1 and len(built) == 1


def test_negative_degree_bound_is_input_error():
    # the series refuses N < 0 when called, before any series is built; a
    # box whose twists all lie outside the cone included
    rs, gd, kd, box = _box_context("su(2,1)")
    outside = rd.weight(-1, 0)
    assert not gr.is_QK_dominant(outside, gr.parabolic(gd), kd)
    for call in (lambda: se.euler_series(box[0], gd, kd, -1),
                 lambda: se.hilbert_series(gd, kd, -3),
                 lambda: se.verify_vanishing(box[0], gd, kd, -1),
                 lambda: se.verify_vanishing_box([outside], gd, kd, -1),
                 lambda: se.components_split([gd], kd, -1),
                 lambda: se.blattner_series_identity(gd, kd, box[0], -2)):
        with pytest.raises(InputError):
            call()
    assert se.hilbert_series(gd, kd, 0) == [1]
