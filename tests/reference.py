"""Reference Weyl-group actions that several test modules compare against.

Each is written on d2 tuples or on the public dominance walk, independently
of the packed kernels the package runs on; euler packs a list of Weights
for the Bott sum, whose one entry takes a packed multiset.  A test writes
an expected character as a dict Weight -> multiplicity and compares it
with terms(chi).  blattner_terms is Blattner's alternating sum over all of
W_K, which the package's pruned walk must equal.
"""

from collections import Counter
from fractions import Fraction
from operator import mul

from nilcone import bott
from nilcone import linalg as la
from nilcone import rootdata as rd


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


def blattner_phi(gd, a):
    """M (H-degree) + height of the weight a in exact root coordinates
    (solved from the Cartan matrix), M one more than the largest |height|
    of a root of u cap p: positive on every weight of u cap p, so a
    partition count into them is 0 wherever it is negative."""
    rs = gd.rs
    coords = la.solve(rs.cartan_matrix, [Fraction(c) for c in a.fw])
    top = 1 + max((abs(sum(r.coords)) for r in gd.u_cap_p), default=0)
    return sum((top * h + 1) * c for h, c in zip(gd.H.h_values, coords))
