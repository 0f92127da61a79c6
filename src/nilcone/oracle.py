"""Independent ground truth from exact rational matrix models.

Each catalog form gets a concrete realization of (g, theta) inside gl(n,Q):
a basis of g made of the diagonal Cartan matrices and one root vector per
root, and the involution as an entrywise sign mask (conjugation by a
diagonal fourth root of unity, which acts rationally even when the element
itself is imaginary).  That basis is an eigenbasis of theta and of ad H for
every diagonal H, so k, p and each graded piece are sets of basis indices,
read off the basis rather than solved for.  Coordinates are read off a
matrix's entries, and ad is a sum of the integer structure constants,
computed once per model.  Jacobson-Morozov triples, orbit and cone
dimensions and density checks are exact solves and ranks over Q (la.rref,
which eliminates over integer rows).  Hilbert functions of orbit closures
come from evaluation ranks mod la.PRIME at sampled rational orbit points,
lower bounds that are re-ranked over Q wherever a bound is not enough.

Randomness is always driven by an explicit seed and every probabilistic
certificate (genericity, rank stabilization) is reproducible from it.
"""

import random
from dataclasses import dataclass
from fractions import Fraction
from itertools import combinations_with_replacement

from . import linalg as la
from .errors import ConsistencyError, DiagnosticError, InputError, OutOfScopeError
from .realform import (EqualRankInvolution, cartan_decomposition,
                       standard_form_catalog)
from .rootdata import Weight

F = Fraction


def _e_coords_of_root(rs, root):
    """Euclidean coordinates of a root in the standard realization."""
    c = root.coords
    n = rs.rank
    t = rs.type_label
    if t == "A":
        v = [F(0)] * (n + 1)
        for i in range(n):  # alpha_i = e_i - e_{i+1}
            v[i] += c[i]
            v[i + 1] -= c[i]
        return tuple(v)
    if t == "C":
        v = [F(0)] * n
        for i in range(n - 1):
            v[i] += c[i]
            v[i + 1] -= c[i]
        v[n - 1] += 2 * c[n - 1]
        return tuple(v)
    if t == "D":
        v = [F(0)] * n
        for i in range(n - 1):
            v[i] += c[i]
            v[i + 1] -= c[i]
        v[n - 2] += c[n - 1]
        v[n - 1] += c[n - 1]
        return tuple(v)
    raise OutOfScopeError("no matrix model for type %s" % t)


class ClassicalRealization:
    """Matrix model of (g, theta) with exact rational arithmetic throughout.

    Every basis matrix is a diagonal Cartan matrix or an off-diagonal root
    vector with entries +-1, and no position belongs to two root vectors.
    coords reads an element's root coordinates off its entries and its
    Cartan coordinates off its diagonal.  The structure constants
    [b_i, b_j] = sum_k c_ijk b_k are integers, built once (which checks that
    the basis closes under the bracket) and kept sparse; ad_matrix(z) is
    sum_i z_i C_i.
    """

    def __init__(self, name, rs, eps, family, msize, tau):
        self.name = name
        self.rs = rs
        self.eps = eps
        self.family = family
        self.msize = msize
        self._tau = tau  # exponent of i per matrix index; involution data
        self._build_basis()
        self._build_coords()
        self._build_theta()
        self._build_brackets()
        self._validate()

    # -- construction ---------------------------------------------------------------

    def _unit(self, a, b):
        m = la.zeros(self.msize, self.msize)
        m[a][b] = F(1)
        return m

    def _build_basis(self):
        rs = self.rs
        n_e = rs.rank + 1 if rs.type_label == "A" else rs.rank
        self.n_e = n_e
        self.cartan_mats = []
        if self.family == "sl":
            for i in range(n_e - 1):
                m = la.zeros(self.msize, self.msize)
                m[i][i] = F(1)
                m[i + 1][i + 1] = F(-1)
                self.cartan_mats.append(m)
        else:
            for j in range(n_e):
                m = la.zeros(self.msize, self.msize)
                m[j][j] = F(1)
                m[n_e + j][n_e + j] = F(-1)
                self.cartan_mats.append(m)
        self.roots_order = list(rs.all_roots())
        self.basis = list(self.cartan_mats) + [
            self._root_matrix(_e_coords_of_root(rs, r)) for r in self.roots_order]
        self.dim = len(self.basis)
        self._root_index = {r.coords: len(self.cartan_mats) + i
                            for i, r in enumerate(self.roots_order)}
        # the nonzero entries (a, b, v) of each basis matrix
        self._entries = [[(a, b, int(x)) for a, row in enumerate(m)
                          for b, x in enumerate(row) if x] for m in self.basis]

    def _root_matrix(self, ev):
        n = self.n_e
        if self.family == "sl":
            a = next(i for i, x in enumerate(ev) if x == 1)
            b = next(i for i, x in enumerate(ev) if x == -1)
            return self._unit(a, b)
        support = [i for i, x in enumerate(ev) if x]
        if self.family in ("sp", "so"):
            if len(support) == 1:  # +-2e_a, only in sp
                a = support[0]
                if ev[a] == 2:
                    return self._unit(a, n + a)
                return self._unit(n + a, a)
            a, b = support
            if ev[a] == 1 and ev[b] == -1:
                m = self._unit(a, b)
                m = la.mat_sub(m, self._unit(n + b, n + a))
                return m
            if ev[a] == -1 and ev[b] == 1:
                m = self._unit(b, a)
                m = la.mat_sub(m, self._unit(n + a, n + b))
                return m
            sign = 1 if self.family == "sp" else -1
            if ev[a] == 1 and ev[b] == 1:  # e_a + e_b, a < b
                m = self._unit(a, n + b)
                m2 = self._unit(b, n + a)
                return la.mat_add(m, la.mat_scale(sign, m2))
            # -(e_a + e_b)
            m = self._unit(n + a, b)
            m2 = self._unit(n + b, a)
            return la.mat_add(m, la.mat_scale(sign, m2))
        raise ConsistencyError("unknown family %s" % self.family)

    def _build_coords(self):
        """What coords reads: the position of each off-diagonal basis entry,
        and a left inverse of the Cartan matrices' diagonals."""
        size = self.msize
        ncartan = len(self.cartan_mats)
        self._owner = {}  # (a, b) -> (root vector index, entry)
        for i, entries in enumerate(self._entries):
            diagonal = [a == b for a, b, _ in entries]
            if not entries or any(v not in (1, -1) for _, _, v in entries) \
                    or any(diagonal) != (i < ncartan) or all(diagonal) != (i < ncartan):
                raise ConsistencyError("basis matrix %d is neither a diagonal Cartan "
                                       "matrix nor an off-diagonal root vector" % i)
            if i >= ncartan and any(b == c for _, b, _ in entries
                                    for c, _, _ in entries):
                raise ConsistencyError("root vector %d does not square to 0" % i)
            for a, b, v in entries:
                if a != b:
                    if (a, b) in self._owner:
                        raise ConsistencyError("two root vectors share an entry")
                    self._owner[a, b] = (i, v)
        diags = [[m[a][a] for a in range(size)] for m in self.cartan_mats]
        _, rows = la.rref(diags)  # positions where the diagonals are independent
        if len(rows) != ncartan:
            raise ConsistencyError("realization basis is dependent")
        square = [[d[a] for d in diags] for a in rows]
        inverse = [la.solve(square, [F(k == l) for l in range(ncartan)])
                   for k in range(ncartan)]  # column k of square^-1
        self._diag_read = [[(a, col[j]) for a, col in zip(rows, inverse) if col[j]]
                           for j in range(ncartan)]
        self._diag_terms = [[(j, d[a]) for j, d in enumerate(diags) if d[a]]
                            for a in range(size)]

    def _build_theta(self):
        """The sign mask of theta, and the basis matrices it fixes (k_index)
        and negates (p_index): the basis is an eigenbasis of theta."""
        size = self.msize
        tau = self._tau
        self._mask = [[None] * size for _ in range(size)]
        for a in range(size):
            for b in range(size):
                diff = (tau[a] - tau[b]) % 4
                if diff % 2:
                    raise ConsistencyError("involution mask not real")
                self._mask[a][b] = 1 if diff == 0 else -1
        self.k_index, self.p_index = [], []
        for i, entries in enumerate(self._entries):
            signs = {self._mask[a][b] for a, b, _ in entries}
            if signs == {1}:
                self.k_index.append(i)
            elif signs == {-1}:
                self.p_index.append(i)
            else:
                raise ConsistencyError("theta neither fixes nor negates a basis matrix")
        self.k_dim = len(self.k_index)
        self.p_dim = len(self.p_index)

    def _build_brackets(self):
        """ad b_i on the basis for each i, as the nonzero (k, j, c) with c the
        integer coefficient of b_k in [b_i, b_j]."""
        self._ad_basis = []
        for ei in self._entries:
            table = []
            for j, ej in enumerate(self._entries):
                bracket = {}
                for a, b, v in ei:
                    for c, d, w in ej:
                        if b == c:
                            bracket[a, d] = bracket.get((a, d), 0) + v * w
                        if d == a:
                            bracket[c, b] = bracket.get((c, b), 0) - v * w
                bracket = {pos: x for pos, x in bracket.items() if x}
                if not bracket:
                    continue
                col = self._coords(bracket)
                if col is None:
                    raise ConsistencyError("bracket left the span of the basis")
                for k, x in enumerate(col):
                    if x:
                        if F(x).denominator != 1:
                            raise ConsistencyError("structure constant %s is not an "
                                                   "integer" % x)
                        table.append((k, j, int(x)))
            self._ad_basis.append(table)

    def _validate(self):
        cd = cartan_decomposition(self.rs, self.eps)
        if self.k_dim != cd.k_dim or self.p_dim != cd.p_dim:
            raise ConsistencyError("matrix k/p dims (%d, %d) disagree with the "
                                   "combinatorial ones (%d, %d)"
                                   % (self.k_dim, self.p_dim, cd.k_dim, cd.p_dim))
        # trace form nondegenerate on g: tr(b_i b_j) from the entries
        lookup = [{(a, b): v for a, b, v in entries} for entries in self._entries]
        gram = [[sum(v * other.get((b, a), 0) for a, b, v in entries)
                 for other in lookup] for entries in self._entries]
        if la.rank(gram) != self.dim:
            raise ConsistencyError("trace form degenerate on the realization")

    # -- primitives -----------------------------------------------------------------

    def theta(self, m):
        return [[self._mask[a][b] * m[a][b] for b in range(self.msize)]
                for a in range(self.msize)]

    def _coords(self, entries):
        """Coordinates of the matrix with nonzero entries {(a, b): x}, or None
        when it is not in g."""
        c = [F(0)] * self.dim
        diag = {}
        roots = set()  # the root vectors m has entries of
        for (a, b), x in entries.items():
            if a == b:
                diag[a] = x
                continue
            owner = self._owner.get((a, b))
            if owner is None:
                return None
            i, v = owner
            c[i] = x * v
            roots.add(i)
        for i in roots:
            if any(entries.get((a, b), 0) != c[i] * v for a, b, v in self._entries[i]):
                return None
        if diag:
            for j, read in enumerate(self._diag_read):
                c[j] = sum((diag.get(a, 0) * w for a, w in read), F(0))
            for a, terms in enumerate(self._diag_terms):
                if sum(c[j] * v for j, v in terms) != diag.get(a, 0):
                    return None
        return c

    def coords(self, m):
        """Coordinates of m on the basis, read off its entries; None unless m
        is in g."""
        return self._coords({(a, b): x for a, row in enumerate(m)
                             for b, x in enumerate(row) if x})

    def from_coords(self, vec):
        out = la.zeros(self.msize, self.msize)
        for c, entries in zip(vec, self._entries):
            if c:
                for a, b, v in entries:
                    out[a][b] += c * v
        return out

    def ad_matrix(self, z):
        """ad z on the basis: column j holds the coordinates of [z, b_j]."""
        zc = self.coords(z)
        if zc is None:
            raise InputError("element is not in g")
        out = [[F(0)] * self.dim for _ in range(self.dim)]
        for zi, table in zip(zc, self._ad_basis):
            if zi:
                for k, j, c in table:
                    out[k][j] += zi * c
        return out

    def in_p(self, m):
        return la.mat_eq(self.theta(m), la.mat_scale(-1, m))

    def in_k(self, m):
        return la.mat_eq(self.theta(m), m)

    def p_coords(self, m):
        """The p entries of coords(m), or None unless m is in p."""
        c = self.coords(m)
        if c is None or any(c[i] for i in self.k_index):
            return None
        return [c[i] for i in self.p_index]

    def from_p_coords(self, vec):
        """The element of p whose p_coords are vec."""
        full = [F(0)] * self.dim
        for i, c in zip(self.p_index, vec):
            full[i] = c
        return self.from_coords(full)

    def root_vector(self, root):
        return self.basis[self._root_index[root.coords]]

    def noncompact_roots(self):
        return [r for r in self.roots_order if self.eps.sign(r) == -1]

    def compact_roots(self):
        return [r for r in self.roots_order if self.eps.sign(r) == 1]

    def cartan_element_from_h(self, h_values):
        """Diagonal H with alpha_i(H) = h_i, rational entries."""
        n = self.n_e
        t = self.rs.type_label
        h = [F(x) for x in h_values]
        if t == "A":
            a = [F(0)] * n
            for j in range(n - 2, -1, -1):
                a[j] = a[j + 1] + h[j]
            mean = sum(a) / n
            a = [x - mean for x in a]
        elif t == "C":
            a = [F(0)] * n
            a[n - 1] = h[n - 1] / 2
            for j in range(n - 2, -1, -1):
                a[j] = a[j + 1] + h[j]
        elif t == "D":
            a = [F(0)] * n
            a[n - 2] = (h[n - 2] + h[n - 1]) / 2
            a[n - 1] = (h[n - 1] - h[n - 2]) / 2
            for j in range(n - 3, -1, -1):
                a[j] = a[j + 1] + h[j]
        else:
            raise OutOfScopeError("no matrix model for type %s" % t)
        m = la.zeros(self.msize, self.msize)
        if self.family == "sl":
            for j in range(n):
                m[j][j] = a[j]
        else:
            for j in range(n):
                m[j][j] = a[j]
                m[n + j][n + j] = -a[j]
        return m

    def weight_from_cartan_functional(self, values):
        """Weight (fw coords) of the functional with the given cartan-basis values."""
        t = self.rs.type_label
        vals = [F(v) for v in values]
        if t == "A":
            return Weight(tuple(vals))  # H_i is the i-th simple coroot
        n = self.n_e
        fw = []
        for i in range(n - 1):
            fw.append(vals[i] - vals[i + 1])
        if t == "C":
            fw.append(vals[n - 1])
        elif t == "D":
            fw[-1] = vals[n - 2] - vals[n - 1]
            fw.append(vals[n - 2] + vals[n - 1])
        return Weight(tuple(fw))


def _tau_for_sl(eps):
    """Fourth-root-of-unity exponents realizing eps as a diagonal conjugation."""
    tau = [0]
    for e in eps.epsilon:
        tau.append((tau[-1] + (0 if e == 1 else 2)) % 4)
    return tau


def _mask_sign(tau, rs, eps):
    for r in rs.positive_roots:
        ev = _e_coords_of_root(rs, r)
        exp = sum(int(c) * tau[j] for j, c in enumerate(ev)) % 4
        if exp % 2:
            return False
        if (1 if exp == 0 else -1) != eps.sign(r):
            return False
    return True


_REALIZE_CACHE = {}


def realize(name, eps=None):
    """Matrix model of a named catalog form, optionally in another sign convention."""
    rs, catalog_eps = standard_form_catalog(name)
    if eps is None:
        eps = catalog_eps
    elif not isinstance(eps, EqualRankInvolution):
        eps = EqualRankInvolution(tuple(eps))
    key = (name, eps.epsilon)
    if key in _REALIZE_CACHE:
        return _REALIZE_CACHE[key]
    real = _realize_uncached(name, rs, eps)
    _REALIZE_CACHE[key] = real
    return real


def _realize_uncached(name, rs, eps):
    t = rs.type_label
    if t == "A":
        return ClassicalRealization(name, rs, eps, "sl", rs.rank + 1,
                                    _tau_for_sl(eps))
    if t == "C":
        tau = _tau_for_bc(rs, eps)
        return ClassicalRealization(name, rs, eps, "sp", 2 * rs.rank, tau)
    if t == "D":
        tau = _tau_for_bc(rs, eps)
        return ClassicalRealization(name, rs, eps, "so", 2 * rs.rank, tau)
    raise OutOfScopeError("no matrix model for type %s" % t)


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


# ---------------------------------------------------------------------------
# sl(2) triples
# ---------------------------------------------------------------------------

@dataclass
class SL2Triple:
    H: list
    X: list
    Y: list

    def bracket_identities_hold(self, real):
        br = la.commutator
        return (la.mat_eq(br(self.H, self.X), la.mat_scale(2, self.X))
                and la.mat_eq(br(self.X, self.Y), self.H)
                and la.mat_eq(br(self.H, self.Y), la.mat_scale(-2, self.Y)))

    def normalized_identities_hold(self, real):
        return (self.bracket_identities_hold(real)
                and real.in_k(self.H)
                and real.in_p(self.X)
                and real.in_p(self.Y))


def _is_nilpotent(real, x):
    power = la.identity(real.msize)
    for _ in range(real.msize):
        power = la.mat_mul(power, x)
    return la.is_zero_matrix(power)


def jm_triple(real, x):
    """Complete a nonzero nilpotent to an sl(2) triple by two exact solves."""
    if la.is_zero_matrix(x):
        raise InputError("cannot build an sl(2) triple over zero")
    if not _is_nilpotent(real, x):
        raise InputError("element is not nilpotent")
    xc = real.coords(x)
    if xc is None:
        raise InputError("element is not in g")
    adx = real.ad_matrix(x)
    adx2 = la.mat_mul(adx, adx)
    # H must lie in the image of ad X:  -(ad X)^2 w = 2 x, H = [X, w]
    w = la.solve(la.mat_scale(-1, adx2), [2 * c for c in xc])
    if w is None:
        raise InputError("Jacobson-Morozov system inconsistent")
    hc = [sum(adx[i][j] * w[j] for j in range(real.dim)) for i in range(real.dim)]
    h = real.from_coords(hc)
    adh = real.ad_matrix(h)
    # Y solves [X, Y] = H and [H, Y] = -2 Y simultaneously.
    stacked = [adx[i] for i in range(real.dim)]
    shifted = la.mat_add(adh, la.mat_scale(2, la.identity(real.dim)))
    stacked = stacked + [shifted[i] for i in range(real.dim)]
    rhs = list(hc) + [F(0)] * real.dim
    yc = la.solve(stacked, rhs)
    if yc is None:
        raise ConsistencyError("no completing Y found for a nilpotent element")
    triple = SL2Triple(H=h, X=x, Y=real.from_coords(yc))
    if not triple.bracket_identities_hold(real):
        raise ConsistencyError("triple fails its bracket identities")
    return triple


def ks_normalize(real, triple):
    """Move a triple with X in p to one with H in k and X, Y in p.

    Replacing H by its k-part keeps [H, X] = 2X because the p-part of H
    brackets X into k; Y is then re-solved inside p.  All six identities
    are re-checked exactly.
    """
    if not real.in_p(triple.X):
        raise InputError("normalization needs X in p")
    hk = la.mat_scale(F(1, 2), la.mat_add(triple.H, real.theta(triple.H)))
    if not la.mat_eq(la.commutator(hk, triple.X), la.mat_scale(2, triple.X)):
        raise ConsistencyError("k-part of H lost the [H, X] = 2X relation")
    adx = real.ad_matrix(triple.X)
    shifted = la.mat_add(real.ad_matrix(hk), la.mat_scale(2, la.identity(real.dim)))
    stacked = [[row[j] for j in real.p_index] for row in adx + shifted]
    rhs = list(real.coords(hk)) + [F(0)] * real.dim
    c = la.solve(stacked, rhs)
    if c is None:
        raise ConsistencyError("no Y in p completes the normalized triple")
    out = SL2Triple(H=hk, X=triple.X, Y=real.from_p_coords(c))
    if not out.normalized_identities_hold(real):
        raise ConsistencyError("normalized triple fails an identity")
    return out


# ---------------------------------------------------------------------------
# Gradings, orbits, cone dimensions
# ---------------------------------------------------------------------------

def ad_layers(real, h):
    """{degree: (k indices, p indices)} of the basis under ad h, degrees ascending.

    h must be diagonal.  Then [h, m] = (h_aa - h_bb) m at each entry (a, b)
    of a basis matrix m, so m has degree d when every entry it has shares
    one value d, which must be an integer; otherwise InputError.
    """
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


def ad_grading_dims(real, h):
    """Exact (dim k_i, dim p_i) per ad H eigenvalue i, read off ad_layers."""
    return {d: (len(k), len(p)) for d, (k, p) in ad_layers(real, h).items()}


def _columns(mat, index):
    """The columns of mat at index, each as a list."""
    return [[row[j] for row in mat] for j in index]


def orbit_dimension(real, x):
    """dim K.x = dim k - dim ker(ad x: k -> p), by exact rank."""
    if not real.in_p(x):
        raise InputError("orbit_dimension expects x in p")
    if la.is_zero_matrix(x):
        return 0
    return la.rank(_columns(real.ad_matrix(x), real.k_index))


def dense_orbit_check(real, h, x):
    """Density of the parabolic orbit of x in the degree >= 2 part of p.

    True iff ad x maps the degree-0 part of k onto the degree-2 part of p
    and bracketing x with the positive-degree part of k spans the
    degree >= 3 part of p.
    """
    layers = ad_layers(real, h)
    _, p2 = layers.get(2, ([], []))
    xc = real.coords(x)
    if xc is None or any(c for i, c in enumerate(xc) if i not in p2):
        raise InputError("x is not in the degree-2 part of p")
    adx = real.ad_matrix(x)
    k0, _ = layers.get(0, ([], []))
    if la.rank(_columns(adx, k0)) != len(p2):
        return False
    uk = [i for d, (k, _) in layers.items() if d >= 1 for i in k]
    p_high = [i for d, (_, p) in layers.items() if d >= 3 for i in p]
    return la.rank(_columns(adx, uk)) == len(p_high)


def nilcone_dimension(real, seed):
    """dim p minus the dimension of a Cartan subspace of p.

    The Cartan subspace is found as the p-centralizer of a random rational
    element certified regular semisimple by a squarefree minimal polynomial;
    three certified trials must agree (the minimum is taken).
    """
    rng = random.Random("%s-nilcone" % (seed,))
    if real.p_dim == 0:
        return 0
    found = []
    for _ in range(80):
        s = real.from_p_coords([F(rng.randint(-4, 4)) for _ in range(real.p_dim)])
        if la.is_zero_matrix(s):
            continue
        if not _squarefree_minpoly(real, s):
            continue
        cent = real.p_dim - la.rank(_columns(real.ad_matrix(s), real.p_index))
        found.append(cent)
        if len(found) >= 3:
            return real.p_dim - min(found)
    raise DiagnosticError("no regular semisimple p-element found in budget",
                          partial=found)


def _squarefree_minpoly(real, s):
    """Whether the minimal polynomial of s is squarefree.

    One rref of the matrix whose columns are the flattened powers
    1, s, ..., s^n: its first non-pivot column d is the lowest power that
    depends on the ones below it, and that column of the rref holds the
    coefficients.
    """
    cur = la.identity(real.msize)
    powers = [la.flatten(cur)]
    for _ in range(real.msize):
        cur = la.mat_mul(cur, s)
        powers.append(la.flatten(cur))
    red, pivots = la.rref([list(col) for col in zip(*powers)])
    d = next((c for c, p in enumerate(pivots) if c != p), len(pivots))
    if d == len(powers):
        raise ConsistencyError("minimal polynomial not found")
    coeffs = [-red[r][d] for r in range(d)] + [F(1)]  # monic minimal polynomial
    deriv = [i * coeffs[i] for i in range(1, len(coeffs))]
    return _poly_gcd_degree(coeffs, deriv) == 0


def _poly_gcd_degree(a, b):
    a = _poly_trim(list(a))
    b = _poly_trim(list(b))
    while b:
        a, b = b, _poly_trim(_poly_mod(a, b))
    return len(a) - 1


def _poly_trim(p):
    while p and p[-1] == 0:
        p.pop()
    return p


def _poly_mod(a, b):
    a = list(a)
    while len(a) >= len(b) and a:
        f = a[-1] / b[-1]
        shift = len(a) - len(b)
        for i, c in enumerate(b):
            a[shift + i] -= f * c
        a = _poly_trim(a)
        if not a:
            break
    return a


def random_nilpotent(real, rng):
    """Seeded random nilpotent in p: noncompact root vectors in a half-space."""
    noncompact = real.noncompact_roots()
    if not noncompact:
        raise InputError("p = 0: the form has no nilpotent directions")
    patterns = [_e_coords_of_root(real.rs, r) for r in noncompact]
    while True:
        xi = [rng.randint(-6, 6) for _ in range(real.n_e)]
        vals = [sum(F(x) * e for x, e in zip(xi, pat)) for pat in patterns]
        if any(v == 0 for v in vals):
            continue
        x = la.zeros(real.msize, real.msize)
        used = 0
        for r, v in zip(noncompact, vals):
            if v > 0:
                c = rng.randint(-2, 2)
                if c:
                    x = la.mat_add(x, la.mat_scale(c, real.root_vector(r)))
                    used += 1
        if used == 0:
            continue
        if not _is_nilpotent(real, x):
            raise ConsistencyError("half-space sample was not nilpotent")
        return x


def principal_nilpotent_search(real, seed, trials=120):
    """A nilpotent in p of maximal K-orbit dimension, certified against the cone."""
    return _principal_search(real, seed, nilcone_dimension(real, seed), trials)


def _principal_search(real, seed, target, trials=120):
    """principal_nilpotent_search, given target = nilcone_dimension(real, seed)."""
    if real.p_dim == 0:
        raise InputError("p = 0: no principal nilpotent exists")
    rng = random.Random("%s-principal" % (seed,))
    best = None
    best_dim = -1
    for _ in range(trials):
        x = random_nilpotent(real, rng)
        d = orbit_dimension(real, x)
        if d > best_dim:
            best, best_dim = x, d
        if best_dim == target:
            return best
    raise DiagnosticError("principal search stalled at orbit dimension %d < %d"
                          % (best_dim, target), partial=best)


# ---------------------------------------------------------------------------
# Orbit sampling and coordinate rings
# ---------------------------------------------------------------------------

_TORUS_VALUES = (F(2), F(3), F(5), F(1, 2), F(1, 3), F(2, 3), F(3, 2), F(5, 2))


def _random_factor(real, rng):
    """One factor g of a group word, with g^-1: ("unipotent", U, -U) for
    g = exp(U) = 1 + U, U = cE given by its nonzero entries (a root vector E
    squares to 0), or ("torus", d, d^-1) for the diagonals of a rational
    torus element of K."""
    kind = rng.random()
    if kind < 0.6 and real.compact_roots():
        r = rng.choice(real.compact_roots())
        c = F(rng.choice([1, 2, 3, 4]) * rng.choice([1, -1]), rng.randint(1, 3))
        e = real._entries[real._root_index[r.coords]]
        return ("unipotent", {(a, b): c * v for a, b, v in e},
                {(a, b): -c * v for a, b, v in e})
    n = real.n_e
    entries = [rng.choice(_TORUS_VALUES) for _ in range(n)]
    if real.family == "sl":
        prod = F(1)
        for e in entries[:-1]:
            prod *= e
        entries[-1] = 1 / prod  # determinant one
        d = entries
    else:
        d = entries + [1 / e for e in entries]
    return "torus", d, [1 / e for e in d]


def _random_word(real, rng):
    """The factors g_1, ..., g_m of a random word g = g_1 ... g_m of two to
    five unipotent and torus factors."""
    return [_random_factor(real, rng) for _ in range(rng.randint(2, 5))]


def _conjugate(x, factor):
    """g x g^-1 for one factor of a word."""
    kind, u, v = factor
    if kind == "torus":
        return [[u[a] * y * v[b] if y else y for b, y in enumerate(row)]
                for a, row in enumerate(x)]
    y = [list(row) for row in x]  # (1 + U) x
    for (a, b), c in u.items():
        y[a] = [s + c * t for s, t in zip(y[a], x[b])]
    z = [list(row) for row in y]  # ((1 + U) x) (1 + V)
    for (a, b), c in v.items():
        for row, out in zip(y, z):
            if row[a]:
                out[b] += row[a] * c
    return z


def sample_orbit_points(real, x, count, rng):
    """Rational points Ad(g) x with g random words in unipotents and the torus.

    x is conjugated by one factor at a time, the last factor first.  The
    words, and so the draws from rng, do not depend on x.
    """
    pts = []
    for _ in range(count):
        pt = x
        for factor in reversed(_random_word(real, rng)):
            pt = _conjugate(pt, factor)
        pc = real.p_coords(pt)
        if pc is None:
            raise ConsistencyError("orbit sample left p")
        pts.append(pc)
    return pts


def _monomials(nvars, deg):
    return list(combinations_with_replacement(range(nvars), deg))


def _monomial_steps(nvars, k_max):
    """For degrees 1..k_max, each monomial m (in _monomials order) as the pair
    (index of m[:-1] among the monomials of one degree less, m[-1])."""
    steps = []
    index = {(): 0}
    for d in range(1, k_max + 1):
        mons = _monomials(nvars, d)
        steps.append([(index[m[:-1]], m[-1]) for m in mons])
        index = {m: j for j, m in enumerate(mons)}
    return steps


def _eval_rows(pt, steps):
    """Values of the monomials at pt, one row per degree of steps.

    pt holds integers for exact rows or residues mod la.PRIME for modular
    ones; each degree multiplies the previous degree's values by one
    coordinate.
    """
    rows = []
    prev = [1]
    for step in steps:
        prev = [prev[j] * pt[i] for j, i in step]
        rows.append(prev)
    return rows


def _residues(pt):
    return [la.residue(c) for c in pt]


def _exact_rows(points, steps, deg):
    """The degree-deg evaluation rows at points, over Q, each up to a nonzero
    factor (which changes no rank or span): a point is scaled to primitive
    integers first, so no Fraction is multiplied."""
    return [_eval_rows(la.primitive(pt), steps[:deg])[-1] for pt in points]


def coordinate_ring_dims(real, x, k_max, seed, upper=None, max_batches=30):
    """Lower bounds on the Hilbert function of the orbit closure, degrees 0..k_max.

    The value in degree d is the rank mod la.PRIME of the degree-d monomials
    evaluated at sampled orbit points.  It is at most their rank over Q, which
    is at most the Hilbert function of the closure in degree d, and equals it
    once the sample is large enough.  Points are added in batches until every
    degree's rank is unchanged for two consecutive batches; elimination state
    is kept incrementally so each new point costs one row reduction per
    degree.  When upper is given (the Hilbert series of the normalization,
    which bounds the closure's from above), every degree whose bound falls
    short of upper is re-ranked exactly over Q at the same points.
    """
    rng = random.Random("%s-coordring" % (seed,))
    if la.is_zero_matrix(x):
        return [1] + [0] * k_max
    steps = _monomial_steps(real.p_dim, k_max)
    trackers = [la.IncrementalRank(len(step)) for step in steps]
    fed = {}  # distinct points in the order fed; the values are unused

    def feed(points):
        for pt in points:
            key = tuple(pt)
            if key in fed:
                continue
            fed[key] = None
            for tracker, row in zip(trackers, _eval_rows(_residues(pt), steps)):
                tracker.add(row)

    feed([real.p_coords(x)])
    dims_prev = None
    stable = 0
    batch = max(8, (len(steps[-1]) + 7) // 8)
    for _ in range(max_batches):
        feed(sample_orbit_points(real, x, batch, rng))
        dims = [1] + [tracker.rank for tracker in trackers]
        if dims == dims_prev:
            stable += 1
            if stable >= 2:
                for d in range(1, k_max + 1):
                    if upper is not None and dims[d] < upper[d]:
                        dims[d] = la.rank(_exact_rows(fed, steps, d))
                return dims
        else:
            stable = 0
        dims_prev = dims
    raise DiagnosticError("evaluation ranks did not stabilize", partial=dims_prev)


_CLOSURE_CANDIDATE_WORDS = 4


class ClosureReference:
    """Evaluation ranks mod la.PRIME saturated on sampled points of K.x_ref.

    Built once per reference orbit and shared by every closure test against
    it.  Its points are the ones a test's "<seed>-closure" stream yields after
    the candidate's group words; those words do not depend on the candidate
    (see sample_orbit_points), so neither does the reference.
    """

    def __init__(self, real, x_ref, max_deg, seed):
        self.real = real
        self.seed = seed
        self.steps = _monomial_steps(real.p_dim, max_deg)
        self.trackers = [la.IncrementalRank(len(step)) for step in self.steps]
        self.points = []
        self._bases = {}  # degree -> la.EchelonBasis of the points' rows
        rng = random.Random("%s-closure" % (seed,))
        for _ in range(_CLOSURE_CANDIDATE_WORDS):
            _random_word(real, rng)
        self._feed([real.p_coords(x_ref)])
        prev = None
        stable = 0
        for _ in range(10):
            self._feed(sample_orbit_points(real, x_ref, 12, rng))
            ranks = [tracker.rank for tracker in self.trackers]
            if ranks == prev:
                stable += 1
                if stable >= 2:
                    break
            else:
                stable = 0
            prev = ranks

    def _feed(self, points):
        self.points += points
        for pt in points:
            for tracker, row in zip(self.trackers, _eval_rows(_residues(pt), self.steps)):
                tracker.add(row)

    def raises_over_q(self, pt, deg):
        """Whether pt's degree-deg row raises the rank over Q of the points'."""
        if deg not in self._bases:
            self._bases[deg] = la.EchelonBasis(_exact_rows(self.points, self.steps, deg))
        return self._bases[deg].raises(_exact_rows([pt], self.steps, deg)[0])


def not_in_closure_certificate(ref, x_other):
    """Whether a polynomial separates the sampled points of K.x_ref from x_other.

    True means a polynomial of degree at most ref's max_deg vanishes at every
    sampled point of the reference orbit but not at some point of K.x_other:
    found as a rank rise mod la.PRIME and confirmed by a rank over Q at the
    same points.  It certifies x_other outside the closure of K.x_ref only
    once the sampled rank has saturated, so that the polynomials vanishing on
    the sample are those vanishing on the orbit.  False is evidence only (no
    separating polynomial up to max_deg was found).
    """
    real = ref.real
    rng = random.Random("%s-closure" % (ref.seed,))
    other = [real.p_coords(x_other)] + sample_orbit_points(
        real, x_other, _CLOSURE_CANDIDATE_WORDS, rng)
    rows = [_eval_rows(_residues(pt), ref.steps) for pt in other]
    for deg, tracker in enumerate(ref.trackers, 1):
        for pt, pt_rows in zip(other, rows):
            if tracker.raises(pt_rows[deg - 1]) and ref.raises_over_q(pt, deg):
                return True
    return False


# ---------------------------------------------------------------------------
# Aggregated evidence and cross-checks
# ---------------------------------------------------------------------------

def canonical_weight_from_matrices(real, h):
    """Torus weight of the top exterior power of (u cap p) + (u cap k)*.

    Computed purely from the Cartan action on the basis matrices of positive
    ad H degree, read off the diagonal of ad t; independent of the root-sum
    bookkeeping it cross-checks.
    """
    layers = ad_layers(real, h)
    up = [i for d, (_, p) in layers.items() if d > 0 for i in p]
    uk = [i for d, (k, _) in layers.items() if d > 0 for i in k]
    values = []
    for t in real.cartan_mats:
        adt = real.ad_matrix(t)
        if any(adt[i][j] for i in range(real.dim) for j in range(real.dim) if i != j):
            raise ConsistencyError("ad of a Cartan matrix is not diagonal on the basis")
        values.append(sum(adt[i][i] for i in up) - sum(adt[i][i] for i in uk))
    return real.weight_from_cartan_functional(values)


def verify_grading_dims(real, h, gd):
    """Exact agreement of matrix and combinatorial graded dimensions."""
    matrix_side = ad_grading_dims(real, h)
    degrees = set(matrix_side) | set(gd.degrees)
    detail = {}
    ok = True
    for d in sorted(degrees):
        ms = matrix_side.get(d, (0, 0))
        cs = gd.dims(d)
        detail[d] = {"matrix": ms, "combinatorial": cs}
        if ms != cs:
            ok = False
    return ok, detail


def dense_confirmer(real, seed=0):
    """Matrix-level density check usable as the grading-search confirmer."""

    def confirm(gd):
        h = real.cartan_element_from_h(gd.H.h_values)
        rng = random.Random("%s-confirm-%s" % (seed, gd.H.h_values))
        for attempt in range(4):
            x = la.zeros(real.msize, real.msize)
            for r in gd.p2_roots:
                c = 1 if attempt == 0 else rng.randint(1, 5)
                x = la.mat_add(x, la.mat_scale(c, real.root_vector(r)))
            if la.is_zero_matrix(x):
                return False
            if dense_orbit_check(real, h, x):
                return True
        return False

    return confirm


def pinned_principal(real, h_values):
    """The pinned principal pair (H, X): H from h-values, X the sum of the
    degree-2 noncompact root vectors."""
    h = real.cartan_element_from_h(h_values)
    x = la.zeros(real.msize, real.msize)
    for r in real.noncompact_roots():
        deg = sum(F(e) * hv for e, hv in
                  zip(_e_coords_of_root(real.rs, r), _diag_values(real, h)))
        if deg == 2:
            x = la.mat_add(x, real.root_vector(r))
    return h, x


def _diag_values(real, h):
    return [h[j][j] for j in range(real.n_e)]


def even_grading_orbit_dims(real, seed=0, max_h=2):
    """Orbit dimension of the dense element of every confirmed even grading.

    These are exactly the orbits whose resolutions the package constructs;
    the even-dimension condition is only meaningful (and checkable) there.
    """
    from .grading import search_even_gradings
    confirm = dense_confirmer(real, seed)
    out = []
    for hit in search_even_gradings(real.rs, real.eps, max_h=max_h, confirm=confirm):
        if not hit.confirmed:
            continue
        h = real.cartan_element_from_h(hit.H.h_values)
        _, p2 = ad_layers(real, h).get(2, ([], []))
        x = la.zeros(real.msize, real.msize)
        for i in p2:
            x = la.mat_add(x, real.basis[i])
        out.append((hit.H.h_values, orbit_dimension(real, x)))
    return out


def qct_evidence(real, seed, n_samples=14, closure_deg=2, cone_dim=None):
    """Sampled evidence for the single-closure and even-dimension conditions.

    cone_dim is nilcone_dimension(real, seed), computed here unless given.
    """
    if real.p_dim == 0:
        return {"degenerate": True, "seed": seed}
    if cone_dim is None:
        cone_dim = nilcone_dimension(real, seed)
    principal = _principal_search(real, seed, cone_dim)
    rng = random.Random("%s-qct" % (seed,))
    samples = [principal]
    for _ in range(n_samples):
        samples.append(random_nilpotent(real, rng))
    dims = [orbit_dimension(real, s) for s in samples]
    reps = [principal]
    refs = []  # refs[i] saturates reps[i], built when a candidate first meets it
    for s, d in zip(samples[1:], dims[1:]):
        if d != cone_dim:
            continue
        for i, r in enumerate(reps):
            if i == len(refs):
                refs.append(ClosureReference(real, r, closure_deg, seed))
            if not not_in_closure_certificate(refs[i], s):
                break
        else:
            reps.append(s)
    return {
        "degenerate": False,
        "seed": seed,
        "nilcone_dim": cone_dim,
        "principal_orbit_dim": orbit_dimension(real, principal),
        "component_count": len(reps),
        "sampled_orbit_dims": dims,
        "even_grading_orbit_dims": even_grading_orbit_dims(real, seed),
    }
