import random
from collections import Counter
from fractions import Fraction

import pytest

from nilcone import bott
from nilcone import realform as rf
from nilcone import rootdata as rd
from nilcone.errors import InputError

F = Fraction


def _a1():
    rs = rd.build_root_system("A", 1)
    return rs, rd.full_subsystem(rs)


def test_borel_weil_on_p1():
    rs, kd = _a1()
    for n in range(5):
        res = bott.line_cohomology(rd.weight(n), kd)
        assert list(res.per_degree) == [0]
        assert res.total_dimension(kd) == n + 1


def test_singular_weight_vanishes():
    rs, kd = _a1()
    assert bott.line_cohomology(rd.weight(-1), kd).per_degree == {}


def test_h1_of_minus_three():
    # classic projective-line pin: dim H^1(O(-3)) = 2
    rs, kd = _a1()
    res = bott.line_cohomology(rd.weight(-3), kd)
    assert list(res.per_degree) == [1]
    assert res.total_dimension(kd) == 2


def test_non_integral_weight_has_no_line_bundle():
    rs, kd = _a1()
    with pytest.raises(InputError):
        bott.line_cohomology(rd.Weight((F(1, 2),)), kd)


def test_euler_of_multiset_is_sum_over_singletons():
    rng = random.Random(41)
    for rs, kd in _systems_rank_le_3():
        pool = [rd.Weight(tuple(F(rng.randint(-5, 5)) for _ in range(rs.rank)))
                for _ in range(6)]
        weights = [rng.choice(pool) for _ in range(15)]
        total = rd.VirtualCharacter()
        for lam in weights:
            total = total + bott.euler_of_weights([lam], kd)
        assert bott.euler_of_weights(weights, kd) == total
        assert bott.euler_of_weights(Counter(weights), kd) == total


def _pairing_key(kd, lam):
    return tuple(kd.rs.pairing(lam, b) for b in kd.simple_roots)


def test_shared_table_gives_the_shifted_multiset(monkeypatch):
    # one table reused across shifts: the result is the Euler characteristic
    # of the shifted multiset, and make_dominant runs once per distinct
    # simple-coroot pairing vector of a shifted weight over all calls
    rng = random.Random(43)
    a2 = rd.build_root_system("A", 2)
    sp4, eps = rf.standard_form_catalog("sp(4,R)")
    systems = [_a1(), (a2, rd.full_subsystem(a2)),
               (sp4, rf.k_root_datum(rf.cartan_decomposition(sp4, eps)))]
    calls = []
    make_dominant = bott.make_dominant

    def counted(sub, lam):
        calls.append(lam)
        return make_dominant(sub, lam)

    for rs, kd in systems:
        pool = [rd.Weight(tuple(F(rng.randint(-4, 4)) for _ in range(rs.rank)))
                for _ in range(16)]
        weights = pool[:12] + pool[:4]  # with repeats
        shifts = pool[12:] + pool[12:14]  # a shift seen before costs nothing
        seen = {}
        calls.clear()
        for shift in shifts:
            want = bott.euler_of_weights([w + shift for w in weights], kd)
            monkeypatch.setattr(bott, "make_dominant", counted)
            got = bott.euler_of_weights(weights, kd, shift=shift, seen=seen)
            assert got == bott.euler_of_weights(Counter(weights), kd,
                                                shift=shift, seen=seen)
            monkeypatch.setattr(bott, "make_dominant", make_dominant)
            assert got == want
        keys = [_pairing_key(kd, lam) for lam in calls]
        distinct = {_pairing_key(kd, w + s) for w in weights for s in shifts}
        assert len(keys) == len(set(keys)) == len(distinct) == len(seen)
        # a K of smaller rank than G shares one pairing among many weights
        shifted = {w + s for w in weights for s in shifts}
        assert len(distinct) < len(shifted) if kd.rank < rs.rank else \
            len(distinct) == len(shifted)


def test_euler_examples():
    rs, kd = _a1()
    assert bott.euler_of_weights([rd.weight(0)], kd) == \
        rd.VirtualCharacter({rd.weight(0): 1})
    assert bott.euler_of_weights([rd.weight(-2)], kd) == \
        rd.VirtualCharacter({rd.weight(0): -1})
    assert bott.euler_of_weights([rd.weight(1), rd.weight(-3)], kd) == \
        rd.VirtualCharacter({})


def _systems_rank_le_3():
    out = []
    for label, rank in [("A", 1), ("A", 2), ("C", 2), ("A", 3), ("G2", 2)]:
        rs = rd.build_root_system(label, rank)
        out.append((rs, rd.full_subsystem(rs)))
    # a K-system that is smaller than the ambient one
    rs, eps = rf.standard_form_catalog("su(2,1)")
    out.append((rs, rf.k_root_datum(rf.cartan_decomposition(rs, eps))))
    return out


def test_bott_concentration_and_degree_bound():
    rng = random.Random(17)
    for rs, kd in _systems_rank_le_3():
        for _ in range(25):
            lam = rd.Weight(tuple(F(rng.randint(-6, 6)) for _ in range(rs.rank)))
            res = bott.line_cohomology(lam, kd)
            assert len(res.per_degree) <= 1
            for d in res.per_degree:
                assert 0 <= d <= len(kd.positive_roots)


def test_serre_duality_euler_identity():
    # euler({lam}) = (-1)^{#pos K-roots} dual(euler({-lam - 2 rho_K}))
    rng = random.Random(29)
    checked = 0
    for rs, kd in _systems_rank_le_3():
        n_pos = len(kd.positive_roots)
        two_rho = kd.rho.scale(2)
        for _ in range(34):
            lam = rd.Weight(tuple(F(rng.randint(-6, 6)) for _ in range(rs.rank)))
            lhs = bott.euler_of_weights([lam], kd)
            rhs = bott.euler_of_weights([-lam - two_rho], kd).dual(kd)
            if n_pos % 2:
                rhs = -rhs
            assert lhs == rhs
            checked += 1
    assert checked >= 200


def test_dominant_dimension_matches_weyl_formula():
    rng = random.Random(31)
    for rs, kd in _systems_rank_le_3():
        for _ in range(10):
            lam = kd.dominant_representative(
                rd.Weight(tuple(F(rng.randint(-4, 4)) for _ in range(rs.rank))))
            res = bott.line_cohomology(lam, kd)
            assert res.total_dimension(kd) == rd.weyl_dimension(kd, lam)
