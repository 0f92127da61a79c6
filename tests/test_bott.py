import random
from collections import Counter
from fractions import Fraction
from itertools import product
from operator import add, mul, sub as minus

import pytest

from nilcone import bott
from nilcone import realform as rf
from nilcone import rootdata as rd
from nilcone.errors import InputError
from reference import dual, euler, terms

F = Fraction


def _a1():
    rs = rd.build_root_system("A", 1)
    return rs, rd.Subsystem(rs, rs.positive_roots)


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
        total = {}
        for lam in weights:
            for w, m in euler([lam], kd).items():
                total[w] = total.get(w, 0) + m
        assert terms(euler(weights, kd)) == {w: m for w, m in total.items() if m}


def _pairing_key(kd, lam):
    return tuple(kd.rs.pairing(lam, b) for b in kd.simple_roots)


def _counting_regularize(monkeypatch, calls, kd):
    """Patch the Bott sum's miss point to record the simple-coroot pairings
    (doubled, rho_K included) that each miss reads off its packed key."""
    regularize = rd._Packing.regularize

    def counted(packing, key):
        w = packing.width
        calls.append(tuple(((key >> (w * i)) & ((1 << w) - 1)) - (1 << (w - 1))
                           for i in range(kd.rank)))
        return regularize(packing, key)

    monkeypatch.setattr(rd._Packing, "regularize", counted)
    return regularize


def test_shared_table_gives_the_shifted_multiset(monkeypatch):
    # the packing's table reused across shifts: the result is the Euler
    # characteristic of the shifted multiset, and the kernel regularizes
    # once per distinct simple-coroot pairing vector of a shifted weight
    # over all calls.  The reference runs on a second K, so that its
    # misses neither fill the counted table nor count.
    rng = random.Random(43)

    def a2():
        rs = rd.build_root_system("A", 2)
        return rs, rd.Subsystem(rs, rs.positive_roots)

    calls = []
    for system in (_a1, a2, lambda: _k_of("sp(4,R)")):
        (rs, kd), (_, ref) = system(), system()
        pool = [rd.Weight(tuple(F(rng.randint(-4, 4)) for _ in range(rs.rank)))
                for _ in range(16)]
        weights = pool[:12] + pool[:4]  # with repeats
        shifts = pool[12:] + pool[12:14]  # a shift seen before costs nothing
        calls.clear()
        for shift in shifts:
            want = euler([w + shift for w in weights], ref)
            regularize = _counting_regularize(monkeypatch, calls, kd)
            got = euler(weights, kd, shift=shift)
            assert got == euler(weights, kd, shift=shift)  # a full table
            monkeypatch.setattr(rd._Packing, "regularize", regularize)
            assert got == want
        distinct = {_pairing_key(kd, w + s) for w in weights for s in shifts}
        (table,) = [p.table for p in kd._packings.values() if p.table]
        assert len(calls) == len(set(calls)) == len(distinct) == len(table)
        # the recorded pairings are those of the shifted weights plus rho_K
        assert set(calls) == {tuple(2 * x + 2 for x in k) for k in distinct}
        # a K of smaller rank than G shares one pairing among many weights
        shifted = {w + s for w in weights for s in shifts}
        assert len(distinct) < len(shifted) if kd.rank < rs.rank else \
            len(distinct) == len(shifted)


def test_euler_examples():
    rs, kd = _a1()
    assert terms(euler([rd.weight(0)], kd)) == {rd.weight(0): 1}
    assert terms(euler([rd.weight(-2)], kd)) == {rd.weight(0): -1}
    assert terms(euler([rd.weight(1), rd.weight(-3)], kd)) == {}


def _systems_rank_le_3():
    out = []
    for label, rank in [("A", 1), ("A", 2), ("C", 2), ("A", 3), ("G2", 2)]:
        rs = rd.build_root_system(label, rank)
        out.append((rs, rd.Subsystem(rs, rs.positive_roots)))
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
        sign = -1 if len(kd.positive_roots) % 2 else 1
        two_rho = kd.rho + kd.rho
        for _ in range(34):
            lam = rd.Weight(tuple(F(rng.randint(-6, 6)) for _ in range(rs.rank)))
            lhs = terms(euler([lam], kd))
            rhs = dual(kd, euler([-lam - two_rho], kd))
            assert lhs == {w: sign * m for w, m in rhs.items()}
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


def euler_of_tuples(weights, kd, shift=None, seen=None):
    """The reference: euler_of_weights as a kernel on d2 tuples, each miss
    regularized by make_dominant, before the packed kernel replaced it."""
    if seen is None:
        seen = {}
    sd2 = (0,) * kd.rs.rank if shift is None else shift.d2
    total = {}
    for lam, mult in Counter(weights).items():
        d2 = tuple(map(add, lam.d2 if lam.__class__ is rd.Weight else lam, sd2))
        key = tuple(sum(map(mul, v, d2)) for v in kd._simple_coroots)
        if key not in seen:
            w, dom, singular = rd.make_dominant(kd, rd._weight_of(d2))
            seen[key] = None if singular else (tuple(map(minus, dom.d2, d2)),
                                               -1 if w.length % 2 else 1)
        hit = seen[key]
        if hit is not None:
            dom = tuple(map(add, d2, hit[0]))
            total[dom] = total.get(dom, 0) + hit[1] * mult
    return {rd._weight_of(d): m for d, m in total.items() if m}


# su(1,1): K a torus, the pairing key is empty
KERNEL_FORMS = ("su(1,1)", "su(2,2)", "sp(4,R)", "so*(8)", "su(3,2)", "su(4,4)")


def _k_of(name):
    rs, eps = rf.standard_form_catalog(name)
    return rs, rf.k_root_datum(rf.cartan_decomposition(rs, eps))


@pytest.mark.parametrize("name", KERNEL_FORMS)
def test_packed_kernel_matches_the_tuple_kernel(name):
    # seeded multisets with repeats and negative coordinates, shifts of both
    # signs and shifts that put weights on walls; one table per kernel shared
    # over all shifts
    rs, kd = _k_of(name)
    rng = random.Random(47)
    pool = [rd._weight_of(tuple(rng.randint(-6, 6) for _ in range(rs.rank)))
            for _ in range(10)]
    weights = [rng.choice(pool) for _ in range(30)]
    weights += pool[:3]
    shifts = [None, rd._weight_of(tuple(rng.randint(-9, 9) for _ in range(rs.rank)))]
    # pool[i] + shift + rho_K = 0 pairs to 0 with every coroot: a wall
    shifts += [-lam - kd.rho for lam in pool[:2]]
    tuple_seen = {}
    for shift in shifts + shifts[:2]:
        want = euler_of_tuples(weights, kd, shift=shift, seen=tuple_seen)
        assert want == euler_of_tuples(weights, kd, shift=shift)
        got = euler(weights, kd, shift=shift)
        assert terms(got) == want
        assert terms(euler(weights, _k_of(name)[1], shift=shift)) == want  # a fresh K
    # each slot width has its own packing and table: one entry per pairing
    # key and width
    tables = [p.table for p in kd._packings.values() if p.table]
    assert sum(map(len, tables)) >= len(tuple_seen)
    if kd.rank:
        assert any(None in t.values() for t in tables)
    else:
        assert [list(t.values()) for t in tables] == [[0]]


@pytest.mark.parametrize("name", KERNEL_FORMS)
def test_packed_kernel_at_the_slot_bound(name):
    # the widest weights an 8-bit packing admits, and one step wider (16-bit
    # slots), every sign pattern of them, against the tuple kernel
    rs, kd = _k_of(name)
    edge = 0
    while rd._packing(kd, edge + 1).width == 8:
        edge += 1
    assert rd._packing(kd, edge).width == 8
    for reach, width in ((edge, 8), (edge + 1, 16)):
        assert rd._packing(kd, reach).width == width
        a = reach // 2
        b = reach - a
        weights = [tuple(a * s for s in signs)
                   for signs in product((-1, 0, 1), repeat=min(rs.rank, 4))]
        weights = [rd._weight_of(d2 + (0,) * (rs.rank - len(d2))) for d2 in weights]
        shifts = [rd._weight_of((b,) * rs.rank), rd._weight_of((-b,) * rs.rank),
                  rd._weight_of(tuple(b * (-1) ** j for j in range(rs.rank)))]
        for shift in shifts:
            assert rd._reach([shift.d2]) + rd._reach([w.d2 for w in weights]) == reach
            got = euler(weights, kd, shift=shift)
            assert terms(got) == euler_of_tuples(weights, kd, shift=shift)


def test_slot_width_grows_past_64_bits():
    rs, kd = _k_of("su(2,2)")
    big = 3 ** 50  # well past a 64-bit slot
    weights = [rd._weight_of(d2)
               for d2 in [(big, -big, 2), (-big, 0, big), (1, 2, 3), (1, 2, 3)]]
    shift = rd._weight_of((4, -big, 0))
    assert rd._packing(kd, 2 * big).width == 128
    assert terms(euler(weights, kd, shift=shift)) == \
        euler_of_tuples(weights, kd, shift=shift)


def test_a_shared_table_keeps_packings_apart():
    # su(2,1): K's simple coroot is G's highest coroot, so the key digit of
    # (-r, -r) is 2^(W-1) - 2r + 2; r = 61 packs in 8-bit slots and r = 16381
    # in 16-bit slots with the same digit 8.  Each packing's own table keeps
    # the two entries apart.
    rs, kd = _k_of("su(2,1)")
    small, large = [rd._weight_of((-61, -61))], [rd._weight_of((-16381, -16381))]
    narrow, wide = rd._packing(kd, 61), rd._packing(kd, 16381)
    assert (narrow.width, wide.width) == (8, 16)
    for weights in (small, large, small):
        assert terms(euler(weights, kd)) == euler_of_tuples(weights, kd)
    # two packings, two tables, one entry each
    assert narrow.table is not wide.table
    assert len(narrow.table) == len(wide.table) == 1
    # the pairing digits coincide: a table shared by the widths would mix them
    assert {key & 0xff for key in narrow.table} == \
        {key & 0xffff for key in wide.table} == {8}


@pytest.mark.parametrize("name", KERNEL_FORMS)
def test_each_slot_width_of_a_k_keeps_its_own_table(name):
    # Bott sums at the widest 8-bit packing and one step past it, on one K:
    # each width fills its own table, every key there carries its width in
    # the middle slot, and every entry is what regularize recomputes, the
    # packed correction to the sweep's dominant image shifted past the
    # parity of l(w)
    rs, kd = _k_of(name)
    edge = 0
    while rd._packing(kd, edge + 1).width == 8:
        edge += 1
    rng = random.Random(59)
    for reach in (edge, edge + 1, edge):
        weights = [rd._weight_of(tuple(rng.randint(-reach, reach) for _ in range(rs.rank)))
                   for _ in range(12)]
        weights.append(rd._weight_of((reach,) * rs.rank))
        assert terms(euler(weights, kd)) == euler_of_tuples(weights, kd)
    narrow, wide = rd._packing(kd, edge), rd._packing(kd, edge + 1)
    assert [p for p in kd._packings.values() if p.table] == [narrow, wide]
    for packing in (narrow, wide):
        nk, width = kd.rank, packing.width
        for key, entry in packing.table.items():
            assert key >> (width * nk) == width
            assert entry == packing.regularize(key)
            q, word = packing.sweep(key)
            if entry is None:
                assert packing.on_wall(q)
            else:
                assert (key + (entry >> 1), entry & 1) == (q, len(word) % 2)


@pytest.mark.parametrize("name", ("su(2,2)", "so*(8)", "su(4,4)"))
def test_line_cohomology_is_packed_from_the_start(name):
    # seeded integral weights with d2 entries up to +-12, one past su(4,4)'s
    # 8-bit slot bound (11): the one term is packed with the packing of K
    # that holds lam, and its dimension is read off the packed slots
    rs, kd = _k_of(name)
    rng = random.Random(53)
    lams = [rd._weight_of(tuple(2 * rng.randint(-6, 6) for _ in range(rs.rank)))
            for _ in range(40)]
    assert max(rd._reach([lam.d2]) for lam in lams) == 12
    for lam in lams:
        res = bott.line_cohomology(lam, kd)
        w, dom, singular = rd.make_dominant(kd, lam)
        assert list(res.per_degree) == ([] if singular else [w.length])
        assert res.total_dimension(kd) == (0 if singular else rd.weyl_dimension(kd, dom))
        for vc in res.per_degree.values():
            assert vc._packing is rd._packing(kd, rd._reach([lam.d2]))
            assert "_terms" not in vc.__dict__  # no Weight built
            assert terms(vc) == {dom: 1}
