"""Reference Weyl-group actions that several test modules compare against.

Each is written on d2 tuples or on the public dominance walk, independently
of the packed kernels the package runs on; euler packs a list of Weights
for the Bott sum, whose one entry takes a packed multiset.  A test writes
an expected character as a dict Weight -> multiplicity and compares it
with terms(chi).  blattner_terms is Blattner's alternating sum over all of
W_K, which the package's pruned walk must equal, and partition_counter the
root-coordinate partition count, which the package's packed counter must
equal.
"""

from collections import Counter
from fractions import Fraction
from operator import mul, sub as minus

from nilcone import bott
from nilcone import linalg as la
from nilcone import rootdata as rd
from nilcone.errors import InputError


def reflect2(sub, d2, i):
    """The i-th simple reflection of doubled coordinates d2, the tuple
    kernel that the packed one replaced."""
    p = sum(map(mul, sub._simple_coroots[i], d2))
    return tuple(x - p * a for x, a in zip(d2, sub._simple_fw[i]))


def apply_word(sub, w, lam):
    """The WeylElement w = s_{w[0]} s_{w[1]} ... applied to lam, one tuple
    reflection at a time from the right."""
    d2 = lam.d2
    for i in reversed(w.word):
        d2 = reflect2(sub, d2, i)
    return rd._weight_of(d2)


def terms(chi):
    """The terms of a character (or of a dict of them) as a dict Weight ->
    multiplicity."""
    return dict(chi.items())


def dual(sub, chi):
    """The contragredient of a virtual character (or of a dict of terms) as
    a dict of terms: V_lam -> V_{-w0 lam}, -w0 lam being the dominant weight
    in the orbit of -lam."""
    out = {}
    for lam, m in chi.items():
        d = sub.dominant_representative(-lam)
        out[d] = out.get(d, 0) + m
    return out


def euler(weights, kd, shift=None):
    """bott.euler_of_weights of the multiset of Weights weights + shift
    (zero when None), packed as nilcone.series packs Sym^k, with the slot
    width that the weights and the shift need; that packing of kd, and its
    table, is kept on kd, so a test that wants a cold table builds a fresh
    K."""
    shift = rd.zero_weight(kd.rs.rank) if shift is None else shift
    d2s = [w.d2 for w in weights]
    packing = rd._packing(kd, rd._reach(d2s) + rd._reach([shift.d2]))
    return bott.euler_of_weights(Counter(map(packing.pack, d2s)), shift, packing)


def blattner_terms(kd, mu, lam):
    """Every term of Blattner's alternating sum at the K-dominant mu and the
    twist lam: (w(mu* + rho_K) - rho_K - lam, (-1)^l(w)) for every word w
    of rd.weyl_elements(kd), the image by tuple reflections, mu* being the
    dominant weight in the orbit of -mu."""
    x = kd.dominant_representative(-mu) + kd.rho
    off = kd.rho + lam
    return [(apply_word(kd, w, x) - off, (-1) ** w.length)
            for w in rd.weyl_elements(kd)]


def alternating_sum(terms, count):
    """The sum of sign * count(arg) over the (arg, sign) terms."""
    return sum(sign * count(arg) for arg, sign in terms)


def root_num(rs, lam):
    """The root coordinates of lam times one positive integer (2 den,
    cartan^-1 = adj / den), as an int tuple."""
    return tuple(sum(map(mul, row, lam.d2)) for row in rs._adj)


def partition_counter(rs, gens, scale=None):
    """P, the number of ways to write a weight as a sum of the multiset of
    weights gens, as a function of the weight: a recursion on root
    coordinates (root_num), bounded by h = sum_i scale_i (root coordinate
    i), the height when scale is None, so h must be positive on each
    generator (InputError otherwise).  One memo serves every call."""
    scale = [1] * rs.rank if scale is None else scale

    def height(t):
        return sum(map(mul, scale, t))

    gen_coords = []
    for g in gens:
        rc = root_num(rs, g)
        h = height(rc)
        if h <= 0:
            raise InputError("the reference counter needs generators of positive height")
        gen_coords.append((rc, h))
    memo = {}

    def count(t, i):
        if not any(t):
            return 1
        h = height(t)
        if h < 0 or i == len(gen_coords):
            return 0
        key = (t, i)
        if key in memo:
            return memo[key]
        g, gh = gen_coords[i]
        total = 0
        cur = t
        for _ in range(h // gh + 1):
            total += count(cur, i + 1)
            cur = tuple(map(minus, cur, g))
        memo[key] = total
        return total

    return lambda mu: count(root_num(rs, mu), 0)


def blattner_scale(gd):
    """The scale, over root coordinates, of M (H-degree) + height, M one
    more than the largest |height| of a root of u cap p: positive on every
    weight of u cap p, so a partition count into them is 0 wherever it is
    negative."""
    top = 1 + max((abs(sum(r.coords)) for r in gd.u_cap_p), default=0)
    return [top * h + 1 for h in gd.H.h_values]


def blattner_phi(gd, a):
    """M (H-degree) + height of the weight a (blattner_scale) in exact root
    coordinates, solved from the Cartan matrix."""
    coords = la.solve(gd.rs.cartan_matrix, [Fraction(c) for c in a.fw])
    return sum(map(mul, blattner_scale(gd), coords))
