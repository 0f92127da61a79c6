import copy
import pickle
import random
from fractions import Fraction
from itertools import product

import pytest

from nilcone import rootdata as rd
from nilcone.errors import ConsistencyError, InputError
from nilcone.grading import grade
from nilcone.realform import standard_form_catalog

F = Fraction


# -- construction ------------------------------------------------------------------

@pytest.mark.parametrize("label,rank,count", [
    ("A", 1, 1), ("A", 2, 3), ("A", 3, 6), ("A", 4, 10),
    ("B", 2, 4), ("B", 3, 9), ("C", 2, 4), ("C", 3, 9),
    ("D", 3, 6), ("D", 4, 12), ("G2", 2, 6),
])
def test_positive_root_counts(label, rank, count):
    rs = rd.build_root_system(label, rank)
    assert len(rs.positive_roots) == count


def test_invalid_systems():
    with pytest.raises(InputError):
        rd.build_root_system("D", 2)
    with pytest.raises(InputError):
        rd.build_root_system("E", 6)
    with pytest.raises(InputError):
        rd.build_root_system("A", 0)


def test_cartan_matrix_shape():
    for label, rank in [("A", 3), ("B", 3), ("C", 3), ("D", 4), ("G2", 2)]:
        rs = rd.build_root_system(label, rank)
        for i in range(rank):
            assert rs.cartan_matrix[i][i] == 2
            for j in range(rank):
                if i != j:
                    assert rs.cartan_matrix[i][j] <= 0


def test_a1_a2_c2_positive_roots():
    a1 = rd.build_root_system("A", 1)
    assert [r.coords for r in a1.positive_roots] == [(1,)]
    a2 = rd.build_root_system("A", 2)
    assert {r.coords for r in a2.positive_roots} == {(1, 0), (0, 1), (1, 1)}
    c2 = rd.build_root_system("C", 2)
    assert {r.coords for r in c2.positive_roots} == {(1, 0), (0, 1), (1, 1), (2, 1)}


def test_closure_under_addition():
    for label, rank in [("A", 3), ("B", 3), ("C", 2), ("D", 4), ("G2", 2)]:
        rs = rd.build_root_system(label, rank)
        pos = {r.coords for r in rs.positive_roots}
        for a in rs.positive_roots:
            for b in rs.positive_roots:
                s = tuple(x + y for x, y in zip(a.coords, b.coords))
                if rs.is_root(rd.Root(s)):
                    assert s in pos


def test_root_sign_invariant():
    rs = rd.build_root_system("C", 3)
    for r in rs.all_roots():
        assert all(c >= 0 for c in r.coords) or all(c <= 0 for c in r.coords)


# -- pairing -----------------------------------------------------------------------

def test_pairing_examples():
    a2 = rd.build_root_system("A", 2)
    a1_root, a2_root = a2.simple_roots
    assert a2.pairing(rd.weight(1, 0), a1_root) == 1
    assert a2.pairing(a2.root_fw(a1_root), a2_root) == -1
    a1 = rd.build_root_system("A", 1)
    assert a1.pairing(a1.rho(), a1.simple_roots[0]) == 1


def test_pairing_rejects_non_roots():
    a2 = rd.build_root_system("A", 2)
    with pytest.raises(InputError):
        a2.pairing(rd.weight(1, 0), rd.Root((2, 0)))


def test_pairing_linear():
    c2 = rd.build_root_system("C", 2)
    rng = random.Random(3)
    for _ in range(20):
        lam = rd.weight(rng.randint(-4, 4), rng.randint(-4, 4))
        mu = rd.weight(rng.randint(-4, 4), rng.randint(-4, 4))
        for r in c2.positive_roots:
            assert c2.pairing(lam + mu, r) == c2.pairing(lam, r) + c2.pairing(mu, r)


def test_pairing_is_an_int_when_integral():
    c2 = rd.build_root_system("C", 2)
    for r in c2.positive_roots:
        assert type(c2.pairing(rd.weight(1, -2), r)) is int
    assert c2.pairing(rd.Weight((F(1, 2), F(0))), c2.simple_roots[0]) == F(1, 2)


def test_weight_doubled_coordinates():
    lam = rd.Weight((F(1, 2), F(-3, 2), F(2)))
    assert lam.d2 == (1, -3, 4)
    assert lam.fw == (F(1, 2), F(-3, 2), F(2))
    assert rd.Weight(lam.fw) == lam and not lam.is_integral
    assert rd.Weight((1, -2)) == rd.Weight((F(1), F(-2)))
    assert hash(rd.Weight((1, -2))) == hash(rd.Weight((F(1), F(-2))))
    assert rd.Weight((1, -2)).is_integral
    with pytest.raises(InputError):
        rd.Weight((F(1, 3),))
    with pytest.raises(AttributeError):
        lam.d2 = (0, 0, 0)
    assert pickle.loads(pickle.dumps(lam)) == copy.deepcopy(lam) == lam


def test_weight_roundtrip():
    rng = random.Random(11)
    for label, rank in [("A", 2), ("B", 3), ("C", 2), ("D", 4), ("G2", 2)]:
        rs = rd.build_root_system(label, rank)
        for _ in range(15):
            lam = rd.Weight(tuple(F(rng.randint(-6, 6)) for _ in range(rank)))
            rc = rs.root_coords_of_weight(lam)
            assert rs.weight_from_root_coords(rc) == lam


# -- dominance and Weyl elements ---------------------------------------------------

def test_make_dominant_a1_examples():
    a1 = rd.build_root_system("A", 1)
    sub = rd.full_subsystem(a1)
    w, dom, singular = rd.make_dominant(sub, rd.weight(-1))
    assert singular
    w, dom, singular = rd.make_dominant(sub, rd.weight(3))
    assert (w.length, dom, singular) == (0, rd.weight(3), False)
    w, dom, singular = rd.make_dominant(sub, rd.weight(-3))
    assert (w.length, dom, singular) == (1, rd.weight(1), False)


def _naive_make_dominant(rs, sub, lam):
    """The Bott step in Fraction fw coordinates, from the Cartan matrix alone."""
    n = rs.rank
    cartan, d = rs.cartan_matrix, rs._d

    def root_fw(c):
        return [sum(F(cartan[i][j] * c[j]) for j in range(n)) for i in range(n)]

    def pairing(mu, c):
        # <mu, beta^vee> = 2 (mu, beta) / (beta, beta), (mu, alpha_j) = d_j mu_j
        norm = sum(c[i] * d[i] * cartan[i][j] * c[j] for i in range(n) for j in range(n))
        return 2 * sum(c[j] * d[j] * mu[j] for j in range(n)) / norm

    rho = [F(0)] * n
    for r in sub.positive_roots:
        rho = [a + b / 2 for a, b in zip(rho, root_fw(r.coords))]
    simple = [b.coords for b in sub.simple_roots]
    mu = [a + b for a, b in zip(lam.fw, rho)]
    word = []
    moved = True
    while moved:
        moved = False
        for i, c in enumerate(simple):
            p = pairing(mu, c)
            if p < 0:
                mu = [a - p * b for a, b in zip(mu, root_fw(c))]
                word.append(i)
                moved = True
    if any(pairing(mu, c) == 0 for c in simple):
        return tuple(word), None, True
    return tuple(reversed(word)), tuple(a - b for a, b in zip(mu, rho)), False


def test_make_dominant_matches_naive_fraction_regularization():
    rng = random.Random(43)
    systems = [rd.full_subsystem(rd.build_root_system(label, rank))
               for label, rank in [("A", 1), ("A", 2), ("A", 3), ("C", 2), ("G2", 2)]]
    rs, eps = standard_form_catalog("su(2,1)")
    systems.append(grade(rs, eps, (0, 0)).k_root_datum())
    for sub in systems:
        for _ in range(40):
            lam = rd.Weight(tuple(F(rng.randint(-12, 12), 2) for _ in range(sub.rs.rank)))
            w, dom, singular = rd.make_dominant(sub, lam)
            got = (w.word, dom.fw if dom is not None else None, singular)
            assert got == _naive_make_dominant(sub.rs, sub, lam)


def test_weyl_element_length_is_inversions():
    for label, rank in [("A", 2), ("C", 2), ("G2", 2)]:
        rs = rd.build_root_system(label, rank)
        sub = rd.full_subsystem(rs)
        for w in rd.weyl_elements(sub):
            negated = 0
            for r in sub.positive_roots:
                img = sub.apply(w, rs.root_fw(r))
                if all(c <= 0 for c in rs.root_coords_of_weight(img)):
                    negated += 1
            assert negated == w.length


def test_weyl_group_orders():
    orders = {("A", 2): 6, ("C", 2): 8, ("G2", 2): 12, ("A", 3): 24,
              ("B", 3): 48, ("D", 4): 192}
    for (label, rank), order in orders.items():
        rs = rd.build_root_system(label, rank)
        assert len(rd.weyl_elements(rd.full_subsystem(rs))) == order
    # W_K of su(4,4) is S_4 x S_4
    rs, eps = standard_form_catalog("su(4,4)")
    kd = grade(rs, eps, (0, 0, 0, 2, 0, 0, 0)).k_root_datum()
    assert len(rd.weyl_elements(kd)) == 576


def test_weyl_elements_c2_words():
    # sorted by (length, word); each word is the first BFS hit of its element
    sub = rd.full_subsystem(rd.build_root_system("C", 2))
    assert [w.word for w in rd.weyl_elements(sub)] == [
        (), (0,), (1,), (0, 1), (1, 0), (0, 1, 0), (1, 0, 1), (1, 0, 1, 0)]


def test_weyl_element_recoverable_from_chamber():
    # acting on rho and re-dominantizing reproduces the element's action
    rs = rd.build_root_system("C", 2)
    sub = rd.full_subsystem(rs)
    for w in rd.weyl_elements(sub):
        moved = sub.apply(w, sub.rho)
        assert sub.dominant_representative(moved) == sub.rho


def test_determinant_parity_of_random_words():
    rng = random.Random(5)
    rs = rd.build_root_system("A", 2)
    sub = rd.full_subsystem(rs)
    for _ in range(30):
        word = tuple(rng.randrange(2) for _ in range(rng.randint(0, 6)))
        w = rd.WeylElement(word)
        negated = 0
        for r in sub.positive_roots:
            img = sub.apply(w, rs.root_fw(r))
            if all(c <= 0 for c in rs.root_coords_of_weight(img)):
                negated += 1
        assert negated % 2 == len(word) % 2


# -- dimension formula and Freudenthal ---------------------------------------------

def test_weyl_dimension_examples():
    a1 = rd.build_root_system("A", 1)
    sub1 = rd.full_subsystem(a1)
    for n in range(6):
        assert rd.weyl_dimension(sub1, rd.weight(n)) == n + 1
    a2 = rd.build_root_system("A", 2)
    sub2 = rd.full_subsystem(a2)
    assert rd.weyl_dimension(sub2, rd.weight(1, 0)) == 3
    assert rd.weyl_dimension(sub2, rd.weight(1, 1)) == 8
    with pytest.raises(InputError):
        rd.weyl_dimension(sub2, rd.weight(-1, 0))


def test_weyl_dimension_matches_freudenthal_count():
    for label, rank in [("A", 2), ("C", 2)]:
        rs = rd.build_root_system(label, rank)
        sub = rd.full_subsystem(rs)
        rho_pairing = lambda lam: sum(
            rs.pairing(lam, b) for b in rs.simple_roots)
        for coords in product(range(4), repeat=rank):
            lam = rd.Weight(tuple(F(c) for c in coords))
            if rho_pairing(lam) > 6:
                continue
            weights = rd.irreducible_weights(sub, lam)
            assert sum(weights.values()) == rd.weyl_dimension(sub, lam)


# -- character decomposition -------------------------------------------------------

def test_decompose_examples():
    a1 = rd.build_root_system("A", 1)
    sub = rd.full_subsystem(a1)
    vc = rd.decompose_character(sub, [rd.weight(2), rd.weight(0), rd.weight(-2)])
    assert vc == rd.VirtualCharacter({rd.weight(2): 1})
    vc = rd.decompose_character(sub, [rd.weight(1), rd.weight(-1),
                                      rd.weight(1), rd.weight(-1)])
    assert vc == rd.VirtualCharacter({rd.weight(1): 2})
    # Clebsch-Gordan for the square of the defining representation
    vc = rd.decompose_character(sub, [rd.weight(2), rd.weight(0),
                                      rd.weight(0), rd.weight(-2)])
    assert vc == rd.VirtualCharacter({rd.weight(2): 1, rd.weight(0): 1})


def test_decompose_rejects_non_invariant():
    a1 = rd.build_root_system("A", 1)
    sub = rd.full_subsystem(a1)
    with pytest.raises(ConsistencyError):
        rd.decompose_character(sub, [rd.weight(2), rd.weight(0)])


def test_decompose_roundtrip_random():
    rng = random.Random(23)
    for label, rank in [("A", 2), ("C", 2)]:
        rs = rd.build_root_system(label, rank)
        sub = rd.full_subsystem(rs)
        for _ in range(4):
            chosen = {}
            for _ in range(rng.randint(1, 4)):
                lam = rd.Weight(tuple(F(rng.randint(0, 2)) for _ in range(rank)))
                chosen[lam] = chosen.get(lam, 0) + rng.randint(1, 2)
            expanded = {}
            for lam, m in chosen.items():
                for nu, mult in rd.irreducible_weights(sub, lam).items():
                    expanded[nu] = expanded.get(nu, 0) + m * mult
            vc = rd.decompose_character(sub, expanded)
            assert vc == rd.VirtualCharacter(chosen)


def test_virtual_character_arithmetic():
    a = rd.VirtualCharacter({rd.weight(1): 2})
    b = rd.VirtualCharacter({rd.weight(1): -2, rd.weight(0): 1})
    assert (a + b) == rd.VirtualCharacter({rd.weight(0): 1})
    assert (a - a).is_zero
    assert (a + b).mult(rd.weight(1)) == 0


# -- Kostant partition function ----------------------------------------------------

def _naive_kostant(rs, mu, gens):
    target = rs.root_coords_of_weight(mu)
    gens_rc = [rs.root_coords_of_weight(g) for g in gens]
    h = sum(target)
    if h < 0:
        return 0
    bounds = [int(h // sum(g)) for g in gens_rc]
    count = 0
    for combo in product(*(range(b + 1) for b in bounds)):
        total = [sum(k * g[i] for k, g in zip(combo, gens_rc))
                 for i in range(rs.rank)]
        if all(x == y for x, y in zip(total, target)):
            count += 1
    return count


def test_kostant_examples():
    a2 = rd.build_root_system("A", 2)
    a1f = a2.root_fw(a2.simple_roots[0])
    a2f = a2.root_fw(a2.simple_roots[1])
    gens = [a1f, a2f, a1f + a2f]
    assert rd.kostant_partition(a2, rd.weight(0, 0), gens) == 1
    assert rd.kostant_partition(a2, a1f.scale(3), [a1f]) == 1
    assert rd.kostant_partition(a2, a1f + a2f, gens) == 2


def test_kostant_matches_naive():
    a2 = rd.build_root_system("A", 2)
    gens = [a2.root_fw(r) for r in a2.positive_roots]
    for i in range(4):
        for j in range(4):
            mu = a2.root_fw(a2.simple_roots[0]).scale(i) + \
                a2.root_fw(a2.simple_roots[1]).scale(j)
            assert rd.kostant_partition(a2, mu, gens) == _naive_kostant(a2, mu, gens)


def test_kostant_rejects_nonpositive_generators():
    a2 = rd.build_root_system("A", 2)
    with pytest.raises(InputError):
        rd.kostant_partition(a2, rd.weight(0, 0), [rd.weight(0, 0)])


# -- JSON --------------------------------------------------------------------------

def test_weight_json_roundtrip():
    rs = rd.build_root_system("A", 2)
    lam = rd.Weight((F(1, 2), F(-3)))
    enc = rd.weight_to_json(lam)
    assert enc == {"basis": "fw", "coords": ["1/2", -3]}
    assert rd.weight_from_json(enc) == lam
    enc_root = rd.weight_to_json(lam, basis="root", rs=rs)
    assert rd.weight_from_json(enc_root, rs=rs) == lam
    with pytest.raises(InputError):
        rd.weight_from_json({"basis": "fw"})
    with pytest.raises(InputError):
        rd.weight_from_json({"basis": "banana", "coords": [1]})

