"""Gradings by a semisimple element H and the parabolic they cut out.

A grading element assigns every root the degree sum(c_i * h_i).  The
nonnegative part is a parabolic q = l + u; intersecting with the +-1 root
signs of the involution gives u cap p and u cap k, whose weight sums
2rho(u cap p) and 2rho(u cap k) drive everything downstream, in particular
the canonical-bundle weight 2rho(u cap p) - 2rho(u cap k).

Dominant H (h_i >= 0) is the main case and makes q contain the standard
Borel.  Non-dominant H is accepted so that opposite-chamber components of
a reducible nilpotent cone can be handled; the Borel-containment invariant
is only asserted when H is dominant.  The series and the Blattner sum
refuse an H whose Q cap K does not contain the Borel of K.
"""

from dataclasses import dataclass
from itertools import product
from operator import index, mul

from .errors import ConsistencyError, InputError, OddGradingError
from .realform import cartan_decomposition, k_root_datum
from .rootdata import zero_weight

__all__ = [
    "GradingElement", "GradedDecomposition", "ParabolicData", "SearchHit",
    "grade", "parabolic", "conormal_canonical_weight", "is_QK_dominant",
    "search_even_gradings",
]


@dataclass(frozen=True)
class GradingElement:
    """Values h_i = alpha_i(H) per simple root."""

    h_values: tuple

    @property
    def is_dominant(self):
        return all(h >= 0 for h in self.h_values)


class GradedDecomposition:
    """Roots sorted by (degree, sign); degree 0 also carries the Cartan."""

    def __init__(self, rs, eps, H, layers):
        self.rs = rs
        self.eps = eps
        self.H = H
        self.layers = layers  # degree -> (tuple of k roots, tuple of p roots)
        self._kd = None  # the root datum of K, built on first use
        self._pd = None  # the parabolic data, built on first use
        self._check_symmetry()

    def _check_symmetry(self):
        for deg, (k_roots, p_roots) in self.layers.items():
            mk, mp = self.layers.get(-deg, ((), ()))
            if len(k_roots) != len(mk) or len(p_roots) != len(mp):
                raise ConsistencyError("graded dims asymmetric at degree %d" % deg)

    def degree_of(self, root):
        return sum(c * h for c, h in zip(root.coords, self.H.h_values))

    def dims(self, deg):
        """(dim k_deg, dim p_deg), counting the Cartan inside k_0."""
        k_roots, p_roots = self.layers.get(deg, ((), ()))
        kdim = len(k_roots) + (self.rs.rank if deg == 0 else 0)
        return kdim, len(p_roots)

    @property
    def degrees(self):
        return sorted(self.layers)

    def _select(self, side, predicate):
        idx = 0 if side == "k" else 1
        out = []
        for deg in self.degrees:
            if predicate(deg):
                out.extend(self.layers[deg][idx])
        return tuple(out)

    @property
    def u_cap_p(self):
        return self._select("p", lambda d: d > 0)

    @property
    def u_cap_k(self):
        return self._select("k", lambda d: d > 0)

    @property
    def p2_roots(self):
        return self._select("p", lambda d: d == 2)

    def u_cap_p_weights(self):
        return [self.rs.root_fw(r) for r in self.u_cap_p]

    def k_root_datum(self):
        """The root datum of K, built on the first call and kept: a grading
        search grades many H and needs K for none of them."""
        if self._kd is None:
            self._kd = k_root_datum(cartan_decomposition(self.rs, self.eps))
        return self._kd


@dataclass
class ParabolicData:
    two_rho_u_p: object
    two_rho_u_k: object
    canonical_weight: object
    simple_l_k_roots: tuple


def grade(rs, eps, H, require_even=True):
    """Sort every root into its degree layer and sign.

    H is the sequence of the h_i; a non-integer entry is an InputError,
    never truncated.  With require_even (the main, in-scope case) any odd
    root degree raises OddGradingError.
    """
    try:
        H = GradingElement(tuple(map(index, H)))
    except TypeError as exc:
        raise InputError("H entries must be integers, got %r" % (H,)) from exc
    if len(H.h_values) != rs.rank:
        raise InputError("grading element length %d != rank %d"
                         % (len(H.h_values), rs.rank))
    layers = {}
    for r in rs.all_roots():
        deg = sum(c * h for c, h in zip(r.coords, H.h_values))
        if require_even and deg % 2:
            raise OddGradingError("odd orbit out of scope: root %r has degree %d"
                                  % (r.coords, deg))
        k_roots, p_roots = layers.setdefault(deg, ([], []))
        (k_roots if eps.sign(r) == 1 else p_roots).append(r)
    layers = {d: (tuple(k), tuple(p)) for d, (k, p) in layers.items()}
    if 0 not in layers:
        layers[0] = ((), ())
    return GradedDecomposition(rs, eps, H, layers)


def parabolic(gd):
    """The theta-stable parabolic data of a graded decomposition, built on
    the first call and kept on gd, as its root datum of K is."""
    if gd._pd is not None:
        return gd._pd
    rs = gd.rs
    if gd.H.is_dominant:
        for r in rs.positive_roots:
            if gd.degree_of(r) < 0:
                raise ConsistencyError("q does not contain the positive root %r" % (r,))
    two_rho_u_p = zero_weight(rs.rank)
    for r in gd.u_cap_p:
        two_rho_u_p = two_rho_u_p + rs.root_fw(r)
    two_rho_u_k = zero_weight(rs.rank)
    for r in gd.u_cap_k:
        two_rho_u_k = two_rho_u_k + rs.root_fw(r)
    kd = gd.k_root_datum()
    simple_l_k = tuple(b for b in kd.simple_roots if gd.degree_of(b) == 0)
    gd._pd = ParabolicData(
        two_rho_u_p=two_rho_u_p,
        two_rho_u_k=two_rho_u_k,
        canonical_weight=two_rho_u_p - two_rho_u_k,
        simple_l_k_roots=simple_l_k,
    )
    return gd._pd


def conormal_canonical_weight(rs, eps, H):
    """2rho(u cap p) - 2rho(u cap k) for any grading, odd degrees allowed.

    Identical arithmetic to parabolic().canonical_weight; exposed separately
    because the conormal-bundle statement does not need an even grading.
    """
    gd = grade(rs, eps, H, require_even=False)
    return parabolic(gd).canonical_weight


def _require_borel_of_k(gd):
    """Raise InputError unless Q cap K contains the Borel of K, that is
    unless every positive compact root has degree >= 0.  The series and
    the Blattner sum read K x_{Q cap K} (u cap p) through the flag variety
    of K, so they mean nothing for any other H."""
    for r in gd._select("k", lambda d: d < 0):
        if r.is_positive:
            raise InputError("H = %s: the positive compact root %s has degree %d, "
                             "so Q cap K does not contain the Borel of K"
                             % (list(gd.H.h_values), list(r.coords), gd.degree_of(r)))


def is_QK_dominant(lam, pd, kd):
    """Membership in the cone of weights whose highest-weight line is Q cap K stable.

    The line in the irreducible V_lam is automatically stable under the
    Borel of K; stability under the Levi part needs lam to kill the coroots
    of the degree-zero compact simple roots: each doubled pairing, the int
    dot product of the coroot vector with lam.d2, is 0.
    """
    coroot_vector = kd.rs.coroot_vector
    return kd.is_dominant(lam) and not any(
        sum(map(mul, coroot_vector(b), lam.d2)) for b in pd.simple_l_k_roots)


@dataclass
class SearchHit:
    H: GradingElement
    confirmed: bool


def search_even_gradings(rs, eps, confirm):
    """All dominant H with entries in {0, 2} and p_2 != 0.

    A simple root has degree h_i, so an even grading has even h_i, and
    entries 0 and 2 make every root degree even.  Results are in
    lexicographic order of h_values; hits are flagged confirmed only when
    confirm, the matrix-level density check, passes.  Weyl-equivalent
    duplicates are not removed.
    """
    hits = []
    for h in product((0, 2), repeat=rs.rank):
        if not any(h):
            continue
        gd = grade(rs, eps, h)
        if not gd.p2_roots:
            continue
        hits.append(SearchHit(GradingElement(h), bool(confirm(gd))))
    return hits
