import copy
import pickle
import random
from collections import Counter
from fractions import Fraction
from itertools import product
from operator import add, mul

import pytest

from nilcone import linalg as la
from nilcone import rootdata as rd
from nilcone.errors import ConsistencyError, InputError
from nilcone.grading import grade
from nilcone.realform import standard_form_catalog
from reference import apply_word, dual, euler, reflect2, root_num, terms

F = Fraction


def _full(rs):
    """The subsystem of all roots of rs."""
    return rd.Subsystem(rs, rs.positive_roots)


def _scaled(lam, c):
    """c times the weight lam, c an int or a Fraction."""
    return rd.Weight(tuple(c * x for x in lam.fw))


def _root_coords(rs, lam):
    """Root coordinates of lam from the adjugate of the Cartan matrix."""
    adj, det = _adjugate(rs.cartan_matrix)
    return tuple(Fraction(sum(map(mul, row, lam.d2)), 2 * det) for row in adj)


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


@pytest.mark.parametrize("label,rank", [("A", 1), ("A", 3), ("B", 3), ("C", 3),
                                        ("D", 4), ("G2", 2)])
def test_all_roots_is_one_tuple_of_positives_then_negatives(label, rank):
    rs = rd.build_root_system(label, rank)
    roots = rs.all_roots()
    assert rs.all_roots() is roots and type(roots) is tuple
    pos = rs.positive_roots
    assert roots == tuple(pos) + tuple(rd.Root(tuple(-c for c in r.coords)) for r in pos)
    assert all(rs.is_root(r) for r in roots) and len(set(roots)) == 2 * len(pos)


# -- the root table against hand-coded references ---------------------------------

def _cartan_data(type_label, rank):
    """Reference: the Cartan matrix (cartan[i][j] = <alpha_j, alpha_i^vee>)
    and the half-norms d_i = (alpha_i, alpha_i)/2, written out by hand."""
    n = rank
    a = [[0] * n for _ in range(n)]
    for i in range(n):
        a[i][i] = 2
    if type_label == "A":
        for i in range(n - 1):
            a[i][i + 1] = a[i + 1][i] = -1
        d = [F(1)] * n
    elif type_label == "B":
        for i in range(n - 1):
            a[i][i + 1] = a[i + 1][i] = -1
        a[n - 1][n - 2] = -2  # <alpha_{n-1}, alpha_n^vee>
        d = [F(1)] * (n - 1) + [F(1, 2)]
    elif type_label == "C":
        for i in range(n - 1):
            a[i][i + 1] = a[i + 1][i] = -1
        a[n - 2][n - 1] = -2  # <alpha_n, alpha_{n-1}^vee>
        d = [F(1)] * (n - 1) + [F(2)]
    elif type_label == "D":
        for i in range(n - 2):
            a[i][i + 1] = a[i + 1][i] = -1
        a[n - 3][n - 1] = a[n - 1][n - 3] = -1
        a[n - 2][n - 1] = a[n - 1][n - 2] = 0
        d = [F(1)] * n
    else:
        a = [[2, -3], [-1, 2]]
        d = [F(1), F(3)]
    return [tuple(row) for row in a], tuple(d)


def _e_coords_of_root(rs, root):
    """Reference: the Euclidean coordinates of an A, C or D root, written
    out by hand."""
    c = root.coords
    n = rs.rank
    t = rs.type_label
    if t == "A":
        v = [0] * (n + 1)
        for i in range(n):  # alpha_i = e_i - e_{i+1}
            v[i] += c[i]
            v[i + 1] -= c[i]
        return tuple(v)
    v = [0] * n
    for i in range(n - 1):
        v[i] += c[i]
        v[i + 1] -= c[i]
    if t == "C":
        v[n - 1] += 2 * c[n - 1]
    else:
        v[n - 2] += c[n - 1]
        v[n - 1] += c[n - 1]
    return tuple(v)


def _reference_roots(cartan):
    """Every root, as the orbit of the simple roots under the reflections
    s_i(b) = b - <b, alpha_i^vee> alpha_i of the Cartan matrix."""
    n = len(cartan)
    frontier = [tuple(int(i == j) for j in range(n)) for i in range(n)]
    seen = set(frontier)
    while frontier:
        nxt = []
        for b in frontier:
            for i in range(n):
                c = b[:i] + (b[i] - sum(map(mul, cartan[i], b)),) + b[i + 1:]
                if c not in seen:
                    seen.add(c)
                    nxt.append(c)
        frontier = nxt
    return seen


_TABLE_TYPES = ([("A", n) for n in range(1, 10)] + [("B", n) for n in range(2, 10)]
                + [("C", n) for n in range(2, 10)] + [("D", n) for n in range(3, 10)]
                + [("G2", 2)])


@pytest.mark.parametrize("label,rank", _TABLE_TYPES)
def test_root_table_matches_the_hand_coded_references(label, rank):
    rs = rd.build_root_system(label, rank)
    cartan, d = _cartan_data(label, rank)
    assert rs.cartan_matrix == cartan
    # the simple roots, then the others by height and coordinates
    pos = [r.coords for r in rs.positive_roots]
    assert set(pos) == {c for c in _reference_roots(cartan) if min(c) >= 0}
    assert pos[:rank] == [tuple(int(i == j) for j in range(rank)) for i in range(rank)]
    assert pos[rank:] == sorted(pos[rank:], key=lambda c: (sum(c), c))
    assert rs._adj == la.inverse(cartan)[0]
    # twice the Gram matrix of the simple roots: 2 (a_i, a_j) = 2 d_i cartan[i][j]
    gram2 = [[2 * d[i] * a for a in cartan[i]] for i in range(rank)]
    for r in rs.all_roots():
        c = r.coords
        norm2 = sum(x * sum(map(mul, row, c)) for x, row in zip(c, gram2))
        v = rs.coroot_vector(r)
        assert all(type(x) is int for x in v)
        assert v == tuple(4 * c[j] * d[j] / norm2 for j in range(rank))
        e = rs._e_coords(r)
        assert 2 * sum(x * x for x in e) == norm2
        if label in "ACD":
            assert e == _e_coords_of_root(rs, r)


def test_g2_euclidean_roots():
    g2 = rd.build_root_system("G2", 2)
    assert [g2._e_coords(r) for r in g2.simple_roots] == [(1, -1, 0), (-2, 1, 1)]
    # the highest root 3 alpha_1 + 2 alpha_2 is long
    assert g2._e_coords(g2.positive_roots[-1]) == (-1, -1, 2)
    assert {sum(x * x for x in g2._e_coords(r)) for r in g2.all_roots()} == {2, 6}


def test_coroot_vector_rejects_non_roots():
    a2 = rd.build_root_system("A", 2)
    with pytest.raises(InputError, match="not a root"):
        a2.coroot_vector(rd.Root((2, 0)))


# -- pairing -----------------------------------------------------------------------

def test_pairing_examples():
    a2 = rd.build_root_system("A", 2)
    a1_root, a2_root = a2.simple_roots
    assert a2.pairing(rd.weight(1, 0), a1_root) == 1
    assert a2.pairing(a2.root_fw(a1_root), a2_root) == -1
    a1 = rd.build_root_system("A", 1)
    assert a1.pairing(_full(a1).rho, a1.simple_roots[0]) == 1


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
    # the reference partition counter's integer root coordinates, mapped
    # back to fw coordinates by the Cartan matrix, give the weight times
    # their scale; _phi at scale 1 sums them, the scaled height
    rng = random.Random(11)
    for label, rank in [("A", 2), ("B", 3), ("C", 2), ("D", 4), ("G2", 2)]:
        rs = rd.build_root_system(label, rank)
        scale = 2 * la.inverse(rs.cartan_matrix)[1]
        for _ in range(15):
            lam = rd.Weight(tuple(F(rng.randint(-6, 6)) for _ in range(rank)))
            num = root_num(rs, lam)
            assert tuple(sum(map(mul, row, num)) for row in rs.cartan_matrix) == \
                tuple(scale * x for x in lam.fw)
            assert sum(map(mul, rd._phi(rs, [1] * rank), lam.d2)) == sum(num)


# -- dominance and Weyl elements ---------------------------------------------------

def test_make_dominant_a1_examples():
    a1 = rd.build_root_system("A", 1)
    sub = _full(a1)
    w, dom, singular = rd.make_dominant(sub, rd.weight(-1))
    assert singular
    w, dom, singular = rd.make_dominant(sub, rd.weight(3))
    assert (w.length, dom, singular) == (0, rd.weight(3), False)
    w, dom, singular = rd.make_dominant(sub, rd.weight(-3))
    assert (w.length, dom, singular) == (1, rd.weight(1), False)


def _naive_make_dominant(rs, sub, lam):
    """The Bott step in Fraction fw coordinates, from the Cartan matrix alone."""
    n = rs.rank
    cartan, d = _cartan_data(rs.type_label, rs.rank)

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
    systems = [_full(rd.build_root_system(label, rank))
               for label, rank in [("A", 1), ("A", 2), ("A", 3), ("C", 2), ("G2", 2)]]
    rs, eps = standard_form_catalog("su(2,1)")
    systems.append(grade(rs, eps, (0, 0)).k_root_datum())
    for sub in systems:
        for _ in range(40):
            lam = rd.Weight(tuple(F(rng.randint(-12, 12), 2) for _ in range(sub.rs.rank)))
            w, dom, singular = rd.make_dominant(sub, lam)
            got = (w.word, dom.fw if dom is not None else None, singular)
            assert got == _naive_make_dominant(sub.rs, sub, lam)


_CATALOG_FORMS = ("su(1,1)", "su(2,1)", "su(2,2)", "su(3,1)", "su(3,2)", "su(4,2)",
                  "su(3,3)", "su(4,4)", "sp(4,R)", "sp(6,R)", "sp(8,R)", "sp(1,2)",
                  "sp(2,2)", "so*(6)", "so*(8)", "so*(10)")


def _reflect_until_dominant(sub, lam):
    """Reference: sweep the simple reflections of sub over lam in public
    Weight arithmetic until no simple-coroot pairing is negative."""
    rs = sub.rs
    word = []
    moved = True
    while moved:
        moved = False
        for i, b in enumerate(sub.simple_roots):
            p = rs.pairing(lam, b)
            if p < 0:
                lam = lam - _scaled(rs.root_fw(b), p)
                word.append(i)
                moved = True
    return word, lam


@pytest.mark.parametrize("form", _CATALOG_FORMS)
def test_pairing_kernel_matches_reflect_until_dominant(form):
    # make_dominant, dominant_representative and euler_of_weights against the
    # reference, on seeded weights and on weights with lam + rho_K on a wall
    # (su(1,1): K has rank 0, so every weight is its own regularization)
    rs, eps = standard_form_catalog(form)
    kd = grade(rs, eps, (0,) * rs.rank).k_root_datum()
    rng = random.Random(47)
    lams = [rd.Weight(tuple(F(rng.randint(-8, 8)) for _ in range(rs.rank)))
            for _ in range(30)]
    walls = []  # 2x - <x, beta^vee> beta lies on the wall of beta
    for x in lams[:15] if kd.positive_roots else ():
        b = rng.choice(kd.positive_roots)
        walls.append(x + x - _scaled(rs.root_fw(b), rs.pairing(x, b)))
    lams += walls + [nu - kd.rho for nu in walls]
    want = {}
    singular_count = 0
    for lam in lams:
        word, mu = _reflect_until_dominant(kd, lam + kd.rho)
        singular = any(rs.pairing(mu, b) == 0 for b in kd.simple_roots)
        w, dom, sing = rd.make_dominant(kd, lam)
        if singular:
            assert (w.word, dom, sing) == (tuple(word), None, True)
            singular_count += 1
        else:
            assert (w.word, dom, sing) == (tuple(reversed(word)), mu - kd.rho, False)
            inversions = sum(rs.pairing(lam + kd.rho, b) < 0 for b in kd.positive_roots)
            assert w.length == inversions
            want[dom] = want.get(dom, 0) + (-1) ** w.length
        assert kd.dominant_representative(lam) == _reflect_until_dominant(kd, lam)[1]
    assert singular_count >= len(walls)
    want = {w: m for w, m in want.items() if m}
    assert terms(euler(lams, kd)) == want
    shift = lams[0]
    for _ in range(2):  # the packing's table, full by now, answers the second call
        assert terms(euler([lam - shift for lam in lams], kd, shift=shift)) == want


# The packed reflection kernel against the list kernels it replaced: the K
# of every table-A form and of the ladder past it
_TABLE_A_FORMS = ("su(1,1)", "su(2,1)", "sp(4,R)", "su(2,2)", "su(3,1)", "sp(6,R)",
                  "su(3,2)", "so*(8)", "su(4,2)", "su(3,3)", "so*(10)", "sp(2,2)",
                  "sp(8,R)")
_LADDER_FORMS = ("su(4,4)", "so*(12)", "sp(3,3)", "sp(10,R)")


def _k_datum(form):
    rs, eps = standard_form_catalog(form)
    return grade(rs, eps, (0,) * rs.rank).k_root_datum()


def _list_regularize(sub, p):
    """Reference: the list sweep that the packed sweep replaced.  Sweeps the
    doubled simple-coroot pairings p (a list, moved in place) into the
    dominant chamber, s_i moving p_j by -p_i <beta_i, beta_j^vee>; returns
    the reflections in order and the d2 correction -sum_i c_i fw(beta_i),
    c_i the sum of the p_i reflected away."""
    cols = [[(j, sum(map(mul, v, fw))) for j, v in enumerate(sub._simple_coroots)]
            for fw in sub._simple_fw]
    word = []
    c = [0] * len(p)
    while min(p, default=0) < 0:
        for i, col in enumerate(cols):
            pi = p[i]
            if pi < 0:
                for j, a in col:
                    p[j] -= pi * a
                c[i] += pi
                word.append(i)
    corr = tuple(-sum(ci * fw[k] for ci, fw in zip(c, sub._simple_fw))
                 for k in range(sub.rs.rank))
    return word, corr


def _sweep_cases(kd, rng):
    """d2 tuples of seeded weights, of weights lam with lam + rho_K on a
    wall, and of weights at the widest 8-bit packing and one step past it."""
    rs = kd.rs
    rank = rs.rank
    cases = [tuple(rng.randint(-6, 6) for _ in range(rank)) for _ in range(40)]
    for _ in range(15 if kd.positive_roots else 0):
        # mu + s_beta(mu) lies on the wall of beta
        mu = tuple(rng.randint(-6, 6) for _ in range(rank))
        beta = rng.choice(kd.positive_roots)
        p = sum(map(mul, rs.coroot_vector(beta), mu))
        wall = [2 * x - p * f for x, f in zip(mu, rs._fw_of_root(beta))]
        cases.append(tuple(x - r for x, r in zip(wall, kd.rho.d2)))
    edge = 0
    while rd._packing(kd, edge + 1).width == 8:
        edge += 1
    for reach in (edge, edge + 1):
        cases += [(reach,) * rank, (-reach,) * rank,
                  tuple(reach * (-1) ** j for j in range(rank)),
                  tuple(-reach * (-1) ** j for j in range(rank))]
        cases += [tuple(reach * rng.choice((-1, 0, 1)) for _ in range(rank))
                  for _ in range(12)]
    return cases, edge


@pytest.mark.parametrize("form", _TABLE_A_FORMS + _LADDER_FORMS)
def test_packed_sweep_matches_the_list_sweep(form):
    # the Bott table entry, make_dominant and dominant_representative against
    # the list sweep: the same words, the same corrections, None on walls
    kd = _k_datum(form)
    cases, edge = _sweep_cases(kd, random.Random(61))
    assert rd._packing(kd, edge).width == 8 and rd._packing(kd, edge + 1).width == 16
    walls = 0
    for d2 in cases:
        packing = rd._packing(kd, rd._reach([d2]))
        key = (packing.pack(d2) + packing.bias) & packing.key_mask
        p = [sum(map(mul, v, d2)) + 2 for v in kd._simple_coroots]
        word, corr = _list_regularize(kd, p)
        on_wall = 0 in p
        assert packing.sweep(key)[1] == word
        entry = packing.regularize(key)
        w, dom, singular = rd.make_dominant(kd, rd._weight_of(d2))
        assert singular == on_wall
        if on_wall:
            walls += 1
            assert entry is None and (w.word, dom) == (tuple(word), None)
        else:
            # one int: the packed correction, shifted past the parity of l(w)
            assert (entry >> 1, entry & 1) == (packing.pack(corr), len(word) % 2)
            assert w.word == tuple(reversed(word))
            assert dom.d2 == tuple(map(add, d2, corr))
        p0 = [sum(map(mul, v, d2)) for v in kd._simple_coroots]
        corr0 = _list_regularize(kd, p0)[1]
        assert kd.dominant_representative(rd._weight_of(d2)).d2 == \
            tuple(map(add, d2, corr0))
    assert walls >= 15 if kd.rank else walls == 0


def _tuple_weyl_words(sub):
    """Reference: weyl_elements' BFS as it ran on d2 tuples, one simple
    reflection per candidate, keyed on the image of rho_sub."""
    seen = {sub.rho.d2: ()}
    frontier = [((), sub.rho.d2)]
    while frontier:
        nxt = []
        for word, img in frontier:
            for i in range(sub.rank):
                cand = reflect2(sub, img, i)
                if cand not in seen:
                    seen[cand] = (i,) + word
                    nxt.append(((i,) + word, cand))
        frontier = sorted(nxt, key=lambda pair: pair[0])
    return sorted(seen.values(), key=lambda word: (len(word), word))


@pytest.mark.parametrize("form", _TABLE_A_FORMS + _LADDER_FORMS)
def test_packed_weyl_bfs_matches_the_tuple_bfs(form):
    kd = _k_datum(form)
    assert [w.word for w in rd.weyl_elements(kd)] == _tuple_weyl_words(kd)


@pytest.mark.parametrize("form", _TABLE_A_FORMS + _LADDER_FORMS)
def test_packed_apply_matches_the_tuple_kernel(form):
    # every Weyl word of K on rho_K, 0, seeded half-integral weights and one
    # past a 64-bit slot, one packed reflection of its parent's image per
    # word (lam packed with zero: the linear action, as the Blattner walk
    # packs mu* + rho_K), against the tuple reflections applied right to left
    kd = _k_datum(form)
    rank = kd.rs.rank
    rng = random.Random(form)
    lams = [kd.rho, rd.zero_weight(rank), rd._weight_of((3 ** 45,) * rank)]
    lams += [rd._weight_of(tuple(rng.randint(-9, 9) for _ in range(rank)))
             for _ in range(2)]
    words = rd.weyl_elements(kd)
    for lam in lams:
        packing = rd._packing(kd, rd._reach([lam.d2]))
        image = {(): packing.pack(lam.d2) + packing.zero}
        for w in words[1:]:
            image[w.word] = packing.reflect(image[w.word[1:]], w.word[0])
        got = [rd._weight_of(packing.unpack(image[w.word])) for w in words]
        assert got == [apply_word(kd, w, lam) for w in words]


def test_weyl_element_length_is_inversions():
    for label, rank in [("A", 2), ("C", 2), ("G2", 2)]:
        rs = rd.build_root_system(label, rank)
        sub = _full(rs)
        for w in rd.weyl_elements(sub):
            negated = 0
            for r in sub.positive_roots:
                img = apply_word(sub, w, rs.root_fw(r))
                if all(c <= 0 for c in _root_coords(rs, img)):
                    negated += 1
            assert negated == w.length


def test_weyl_group_orders():
    orders = {("A", 2): 6, ("C", 2): 8, ("G2", 2): 12, ("A", 3): 24,
              ("B", 3): 48, ("D", 4): 192}
    for (label, rank), order in orders.items():
        rs = rd.build_root_system(label, rank)
        assert len(rd.weyl_elements(_full(rs))) == order
    # W_K of su(4,4) is S_4 x S_4
    rs, eps = standard_form_catalog("su(4,4)")
    kd = grade(rs, eps, (0, 0, 0, 2, 0, 0, 0)).k_root_datum()
    assert len(rd.weyl_elements(kd)) == 576


def test_weyl_elements_c2_words():
    # sorted by (length, word); each word is the first BFS hit of its element
    sub = _full(rd.build_root_system("C", 2))
    assert [w.word for w in rd.weyl_elements(sub)] == [
        (), (0,), (1,), (0, 1), (1, 0), (0, 1, 0), (1, 0, 1), (1, 0, 1, 0)]


def test_weyl_element_recoverable_from_chamber():
    # acting on rho and re-dominantizing reproduces the element's action
    rs = rd.build_root_system("C", 2)
    sub = _full(rs)
    for w in rd.weyl_elements(sub):
        moved = apply_word(sub, w, sub.rho)
        assert sub.dominant_representative(moved) == sub.rho


def test_determinant_parity_of_random_words():
    rng = random.Random(5)
    rs = rd.build_root_system("A", 2)
    sub = _full(rs)
    for _ in range(30):
        word = tuple(rng.randrange(2) for _ in range(rng.randint(0, 6)))
        w = rd.WeylElement(word)
        negated = 0
        for r in sub.positive_roots:
            img = apply_word(sub, w, rs.root_fw(r))
            if all(c <= 0 for c in _root_coords(rs, img)):
                negated += 1
        assert negated % 2 == len(word) % 2


# -- dimension formula and Kostant multiplicities -----------------------------------

def test_weyl_dimension_examples():
    a1 = rd.build_root_system("A", 1)
    sub1 = _full(a1)
    for n in range(6):
        assert rd.weyl_dimension(sub1, rd.weight(n)) == n + 1
    a2 = rd.build_root_system("A", 2)
    sub2 = _full(a2)
    assert rd.weyl_dimension(sub2, rd.weight(1, 0)) == 3
    assert rd.weyl_dimension(sub2, rd.weight(1, 1)) == 8
    with pytest.raises(InputError):
        rd.weyl_dimension(sub2, rd.weight(-1, 0))


def _kostant_weights(sub, lam):
    """The weights of V_lam with multiplicities, by Kostant's formula.

    mult(mu) = sum_w (-1)^l(w) P(w(lam + rho) - (mu + rho)), with mu running
    over lam minus the box of root coordinates (over the subsystem's simple
    roots) bounded by those of lam - w0 lam.
    """
    rs = sub.rs
    words = rd.weyl_elements(sub)
    gens = [rs.root_fw(r) for r in sub.positive_roots]
    simple = [rs.root_fw(b) for b in sub.simple_roots]
    # lam - w0 lam = sum bound_i beta_i, read off the reflections of w0
    bound = [0] * sub.rank
    mu = lam
    for i in reversed(words[-1].word):
        p = rs.pairing(mu, sub.simple_roots[i])
        mu = mu - _scaled(simple[i], p)
        bound[i] += p
    images = [(apply_word(sub, w, lam + sub.rho), (-1) ** w.length) for w in words]
    out = {}
    for steps in product(*(range(b + 1) for b in bound)):
        mu = lam
        for k, beta in zip(steps, simple):
            mu = mu - _scaled(beta, k)
        m = sum(sign * rd.kostant_partition(rs, img - mu - sub.rho, gens)
                for img, sign in images)
        if m:
            out[mu] = m
    return out


def test_weyl_dimension_matches_kostant_count():
    for label, rank in [("A", 2), ("C", 2)]:
        sub = _full(rd.build_root_system(label, rank))
        for coords in product(range(4), repeat=rank):
            lam = rd.Weight(coords)
            assert sum(_kostant_weights(sub, lam).values()) == rd.weyl_dimension(sub, lam)



@pytest.mark.parametrize("sub", [_full(rd.build_root_system(t, n))
                                 for t, n in (("A", 3), ("B", 3), ("C", 3),
                                              ("D", 4), ("G2", 2))]
                         + [_k_datum(form) for form in _TABLE_A_FORMS + _LADDER_FORMS],
                         ids=lambda sub: "%s%d-%d" % (sub.rs.type_label, sub.rs.rank,
                                                      len(sub.positive_roots)))
def test_coroot_coefficients_expand_every_positive_coroot(sub):
    coroots = [sub.rs.coroot_vector(r) for r in sub.positive_roots]
    assert len(sub._coroot_coeffs) == len(coroots)
    for c, v in zip(sub._coroot_coeffs, coroots):
        assert min(c, default=0) >= 0
        assert tuple(sum(ci * u[k] for ci, u in zip(c, sub._simple_coroots))
                     for k in range(sub.rs.rank)) == v


@pytest.mark.parametrize("t,n", [("A", 3), ("B", 3), ("C", 3), ("D", 4), ("G2", 2)])
def test_packed_dimension_is_the_weyl_dimension(t, n):
    # single dominant weights through the Bott sum, which returns them packed
    sub = _full(rd.build_root_system(t, n))
    rng = random.Random(61)
    for _ in range(30):
        lam = sub.dominant_representative(
            rd.Weight(tuple(rng.randint(-4, 4) for _ in range(n))))
        chi = euler([lam], sub)
        assert chi.dimension(sub) == rd.weyl_dimension(sub, lam)
        assert "_terms" not in chi.__dict__  # no Weight built


def test_dimension_needs_the_subsystem_that_owns_the_packing():
    # a twin of K (the same roots, not the same object) and G itself own
    # no packing of chi: dimension refuses them rather than unpack
    rs, eps = standard_form_catalog("sp(4,R)")
    kd = grade(rs, eps, (0, 0)).k_root_datum()
    chi = euler([rd.weight(1, 2), rd.weight(-3, 1)], kd)
    assert chi.dimension(kd) == sum(m * rd.weyl_dimension(kd, w) for w, m in chi.items())
    for other in (rd.Subsystem(rs, kd.positive_roots), _full(rs)):
        with pytest.raises(ConsistencyError):
            chi.dimension(other)

# -- character decomposition by Euler characteristics -------------------------------

def test_decompose_examples():
    # a Weyl-invariant weight multiset decomposes by its Euler characteristic
    sub = _full(rd.build_root_system("A", 1))
    vc = euler([rd.weight(2), rd.weight(0), rd.weight(-2)], sub)
    assert terms(vc) == {rd.weight(2): 1}
    vc = euler([rd.weight(1), rd.weight(-1), rd.weight(1), rd.weight(-1)], sub)
    assert terms(vc) == {rd.weight(1): 2}
    # Clebsch-Gordan for the square of the defining representation
    vc = euler([rd.weight(2), rd.weight(0), rd.weight(0), rd.weight(-2)], sub)
    assert terms(vc) == {rd.weight(2): 1, rd.weight(0): 1}


def test_decompose_roundtrip_random():
    rng = random.Random(23)
    rs, eps = standard_form_catalog("sp(4,R)")
    systems = [_full(rd.build_root_system("A", 2)),
               _full(rd.build_root_system("C", 2)),
               grade(rs, eps, (0, 0)).k_root_datum()]
    for sub in systems:
        for _ in range(4):
            chosen = {}
            for _ in range(rng.randint(1, 4)):
                lam = sub.dominant_representative(
                    rd.Weight(tuple(rng.randint(-2, 2) for _ in range(sub.rs.rank))))
                chosen[lam] = chosen.get(lam, 0) + rng.randint(1, 2)
            expanded = Counter()
            for lam, m in chosen.items():
                for nu, mult in _kostant_weights(sub, lam).items():
                    expanded[nu] += m * mult
            assert terms(euler(list(expanded.elements()), sub)) == chosen


def test_virtual_character_arithmetic():
    # negation, the one arithmetic a character has, stays packed
    sub = _full(rd.build_root_system("A", 1))
    a = euler([rd.weight(1), rd.weight(1), rd.weight(-2)], sub)
    assert terms(a) == {rd.weight(1): 2, rd.weight(0): -1}
    b = -a
    assert b._packing is a._packing and "_terms" not in b.__dict__
    assert terms(b) == {rd.weight(1): -2, rd.weight(0): 1}
    assert b.mult(rd.weight(0)) == 1 and b.mult(rd.weight(2)) == 0
    assert -b == a and b != a


def _minus_w0_dual(sub, chi):
    """Reference: the contragredient on the -w0 matrix, built from the word
    that sweeps -2 rho_sub + rho_sub to rho_sub with the tuple kernel."""
    minus_two_rho = tuple(-2 * x for x in sub.rho.d2)
    packing = rd._packing(sub, rd._reach([minus_two_rho]))
    word = packing.sweep(packing.pack(minus_two_rho) + packing.bias)[1]
    assert len(word) == len(sub.positive_roots)
    columns = []
    for j in range(sub.rs.rank):
        d2 = tuple(int(i == j) for i in range(sub.rs.rank))
        for i in word:
            d2 = reflect2(sub, d2, i)
        columns.append(tuple(-x for x in d2))
    rows = tuple(zip(*columns))
    out = {}
    for w, m in chi.items():
        d = rd._weight_of(tuple(sum(map(mul, row, w.d2)) for row in rows))
        out[d] = out.get(d, 0) + m
    return out


@pytest.mark.parametrize("form", _TABLE_A_FORMS + _LADDER_FORMS)
def test_dual_matches_the_minus_w0_matrix(form):
    # -w0 lam as the dominant weight in the orbit of -lam (dominant_
    # representative, as blattner_multiplicity reads mu*), against the -w0
    # matrix, twice giving the character back: dominant terms, half-integral
    # ones and a term past a 64-bit slot; the packed character of a Bott sum
    # of integral weights too (its terms are dominant)
    kd = _k_datum(form)
    rank = kd.rs.rank
    rng = random.Random(form)
    given = {kd.dominant_representative(rd._weight_of((3 ** 45,) * rank)): 2}
    for _ in range(12):
        lam = kd.dominant_representative(
            rd._weight_of(tuple(rng.randint(-9, 9) for _ in range(rank))))
        given[lam] = given.get(lam, 0) + rng.choice([-2, -1, 1, 3])
    for chi in ({lam: m for lam, m in given.items() if m},
                euler([rd._weight_of(tuple(2 * rng.randint(-3, 3)
                                           for _ in range(rank)))
                       for _ in range(8)], kd)):
        assert dual(kd, chi) == _minus_w0_dual(kd, chi)
        assert dual(kd, dual(kd, chi)) == terms(chi)


# -- Kostant partition function ----------------------------------------------------

def _naive_kostant(rs, mu, gens):
    target = _root_coords(rs, mu)
    gens_rc = [_root_coords(rs, g) for g in gens]
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
    assert rd.kostant_partition(a2, a1f + a1f + a1f, [a1f]) == 1
    assert rd.kostant_partition(a2, a1f + a2f, gens) == 2


def test_kostant_matches_naive():
    a2 = rd.build_root_system("A", 2)
    gens = [a2.root_fw(r) for r in a2.positive_roots]
    for i in range(4):
        for j in range(4):
            mu = _scaled(a2.root_fw(a2.simple_roots[0]), i) + \
                _scaled(a2.root_fw(a2.simple_roots[1]), j)
            assert rd.kostant_partition(a2, mu, gens) == _naive_kostant(a2, mu, gens)


def test_kostant_rejects_nonpositive_generators():
    a2 = rd.build_root_system("A", 2)
    with pytest.raises(InputError):
        rd.kostant_partition(a2, rd.weight(0, 0), [rd.weight(0, 0)])


# -- JSON --------------------------------------------------------------------------

def test_weight_json_roundtrip():
    lam = rd.Weight((F(1, 2), F(-3)))
    enc = rd.weight_to_json(lam)
    assert enc == {"basis": "fw", "coords": ["1/2", -3]}
    assert rd.Weight(tuple(F(c) for c in enc["coords"])) == lam



def _adjugate(matrix):
    """Reference (adj, det) of an integer matrix, matrix^-1 = adj / det: the
    Fraction Gauss-Jordan that RootSystem used before la.inverse."""
    n = len(matrix)
    aug = [[Fraction(x) for x in row] + [Fraction(int(i == j)) for j in range(n)]
           for i, row in enumerate(matrix)]
    det = Fraction(1)
    for c in range(n):
        piv = next(i for i in range(c, n) if aug[i][c])
        if piv != c:
            aug[c], aug[piv] = aug[piv], aug[c]
            det = -det
        inv = aug[c][c]
        det *= inv
        aug[c] = [x / inv for x in aug[c]]
        for i in range(n):
            if i != c and aug[i][c]:
                f = aug[i][c]
                aug[i] = [x - f * y for x, y in zip(aug[i], aug[c])]
    return [tuple(int(det * x) for x in row[n:]) for row in aug], int(det)


@pytest.mark.parametrize("label,rank", [("A", n) for n in range(1, 8)]
                         + [("B", n) for n in range(2, 7)] + [("C", n) for n in range(2, 7)]
                         + [("D", n) for n in range(3, 8)] + [("G2", 2)])
def test_root_coordinates_agree_with_the_adjugate(label, rank):
    # the reference partition counter's integer root coordinates over
    # their scale
    rs = rd.build_root_system(label, rank)
    det = _adjugate(rs.cartan_matrix)[1]
    scale = 2 * la.inverse(rs.cartan_matrix)[1]
    fundamental = [rd.weight(*[int(i == j) for j in range(rank)]) for i in range(rank)]
    weights = [rs.root_fw(r) for r in rs.all_roots()] + fundamental + [_full(rs).rho]
    for lam in weights:
        assert tuple(Fraction(x, scale) for x in root_num(rs, lam)) == \
            _root_coords(rs, lam)
    for r in rs.all_roots():
        assert _root_coords(rs, rs.root_fw(r)) == r.coords
    # the scale of the integer coordinates divides the adjugate's
    assert (2 * det) % scale == 0
