import random
from collections import Counter
from fractions import Fraction
from itertools import combinations_with_replacement

import pytest

from nilcone import grading as gr
from nilcone import realform as rf
from nilcone import rootdata as rd
from nilcone import series as se
from nilcone.errors import InputError

F = Fraction


def _context(name, h):
    rs, eps = rf.standard_form_catalog(name)
    gd = gr.grade(rs, eps, h)
    kd = gd.k_root_datum()
    return rs, gd, kd


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
        powers = se.sym_powers(weights, N, rank)
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


def test_sym_powers_without_generators():
    # Sym^0 of the zero space is one zero weight of the ambient rank
    assert se.sym_powers([], 3, 2) == [Counter({rd.weight(0, 0): 1}),
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
        assert chi == rd.VirtualCharacter({rd.weight(-2 * k): 1})


def test_euler_series_su21_degree_one():
    rs, gd, kd = _context("su(2,1)", (2, 2))
    s = se.euler_series(rd.weight(0, 0), gd, kd, 2)
    a1 = rs.root_fw(rs.simple_roots[0])
    a2 = rs.root_fw(rs.simple_roots[1])
    assert s.chi[1] == rd.VirtualCharacter({a1: 1, a2: 1})
    assert s.chi[1].dimension(kd) == 4
    assert s.chi[0] == rd.VirtualCharacter({rd.weight(0, 0): 1})


def test_chi0_is_contragredient_of_lambda():
    rs, gd, kd = _context("su(2,1)", (2, 2))
    a1 = rs.root_fw(rs.simple_roots[0])
    a2 = rs.root_fw(rs.simple_roots[1])
    s = se.euler_series(a1, gd, kd, 0)
    assert s.chi[0] == rd.VirtualCharacter({a2: 1})  # dual flips a1 <-> a2
    # self-dual twist: chi_0 is the character itself
    s2 = se.euler_series(a1 + a2, gd, kd, 0)
    assert s2.chi[0] == rd.VirtualCharacter({a1 + a2: 1})


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
    # degree zero of the direct sum sees one constant per component
    assert result.total_chi[0] == rd.VirtualCharacter({rd.weight(0): 2})


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


def test_blattner_with_twist():
    rs, gd, kd = _context("su(2,1)", (2, 2))
    a1 = rs.root_fw(rs.simple_roots[0])
    ok, mismatches, count = se.blattner_series_identity(gd, kd, a1, 3)
    assert ok, mismatches


def test_qct_report_shapes():
    degenerate = se.qct_report("compact", {"degenerate": True})
    assert degenerate["label"] == "EVIDENCE" and degenerate["degenerate"]
    evidence = {
        "degenerate": False,
        "seed": 7,
        "nilcone_dim": 1,
        "principal_orbit_dim": 1,
        "component_count": 2,
        "sampled_orbit_dims": [1, 1, 1],
        "even_grading_orbit_dims": [((2,), 1)],
    }
    rep = se.qct_report("su(1,1)", evidence)
    assert rep["label"] == "EVIDENCE"
    assert rep["G1_evidence"]["single_component_evidence"] is False
    assert rep["G2_evidence"]["parity_table"] == {1: 3}


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
    _, x = oc.pinned_principal(real, h)
    assert series == oc.coordinate_ring_dims(real, x, 2, 7) == [1, 8, 34]


def test_vanishing_on_searched_even_gradings():
    # every oracle-confirmed even grading (not only the principal ones)
    # resolves some even orbit closure, so positivity must hold there too
    from nilcone import oracle as oc
    for name in ["su(2,2)", "sp(4,R)"]:
        rs, eps = rf.standard_form_catalog(name)
        real = oc.realize(name)
        hits = gr.search_even_gradings(rs, eps, confirm=oc.dense_confirmer(real))
        confirmed = [h for h in hits if h.confirmed]
        assert confirmed
        for hit in confirmed:
            gd = gr.grade(rs, eps, hit.H.h_values)
            kd = gd.k_root_datum()
            rep = se.verify_vanishing(rd.Weight((F(0),) * rs.rank), gd, kd, 4)
            assert rep.status == se.PASS, (name, hit.H.h_values)
