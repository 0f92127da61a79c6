"""Independent ground truth from exact matrix models over Z and Q.

Each catalog form gets a concrete realization of (g, theta) inside gl(n,Q):
a basis of g made of the diagonal Cartan matrices and one root vector per
root, each read off one list of its nonzero entries, and theta is
conjugation by a diagonal +-1 matrix read off the simple root vectors (the
I_{p,q} picture).  That basis is an eigenbasis of theta and of ad H for
every diagonal H, so k, p and each graded piece are sets of basis indices,
read off the basis rather than solved for.  Coordinates are read off a
matrix's entries, and ad is a sum of the integer structure constants,
computed once per model.  Matrices hold ints until a value really is a
fraction: the basis, the sampled nilpotents, their coordinates and their
ad matrices are integer, and Fractions enter with half-integer Cartan
entries and with the output of an exact solve.  A Cartan element with
given simple-root values, and the weight of a functional on the Cartan
basis, are read off one dictionary per model: the inverse (la.inverse) of
the simple roots' values on the Cartan basis, and the simple coroots
[E_i, E_-i] on it.  Jacobson-Morozov triples and their Kostant-Sekiguchi
normalization are exact solves over Q (la.solve) of systems scaled to
integer rows; orbit dimensions and density checks are exact ranks over Q,
counted as the pivots of la.IncrementalRank's forward elimination over
integer rows, which is also the forward elimination of la.solve.  The cone
dimension is exact and read off the roots: dim p - dim a, with dim a the
size of a largest set of strongly orthogonal noncompact roots.  Hilbert
functions of orbit closures and closure separations both read one
OrbitSample: exact evaluation ranks over Q (la.IncrementalRank), one per
T-weight block of monomials, at x and generic integer points
Ad(u+ u- u+) x of its orbit.  Their sum is a certified lower bound on the
Hilbert function; a rank that still rises in the sample's confirming batch
raises DiagnosticError, which the verify pipeline reports as INCONCLUSIVE;
nothing is certified from it.

Randomness is always driven by an explicit seed and every probabilistic
certificate (genericity, rank stabilization) is reproducible from it.
"""

import random
from dataclasses import dataclass
from fractions import Fraction
from itertools import combinations_with_replacement
from operator import mul

from . import linalg as la
from .errors import ConsistencyError, DiagnosticError, InputError, OutOfScopeError
from .realform import (_normalize_name, cartan_decomposition,
                       standard_form_catalog)
from .rootdata import Root, Weight

F = Fraction

_FAMILIES = {"A": "sl", "C": "sp", "D": "so"}  # the matrix model of each type


def _int_if_integral(x):
    """x as an int when it is one, so integer data stays int arithmetic."""
    return x.numerator if x.denominator == 1 else x


class ClassicalRealization:
    """Matrix model of (g, theta) in exact arithmetic, integer where it can be.

    Every basis matrix is a diagonal Cartan matrix or an off-diagonal root
    vector with int entries +-1, and no position belongs to two root vectors.
    theta is conjugation by a diagonal +-1 matrix read off the simple root
    vectors: it multiplies entry (a, b) by s[a] s[b].
    An element with integer coordinates is an int matrix, and its
    coordinates and ad matrix are ints; Fractions appear only in elements
    that have fractional entries, such as a half-integer Cartan element.
    coords reads an element's root coordinates off its entries and its
    Cartan coordinates off its diagonal.  The structure constants
    [b_i, b_j] = sum_k c_ijk b_k are integers, built once (which checks that
    the basis closes under the bracket) and kept sparse; ad_matrix(z) is
    sum_i z_i C_i.
    """

    def __init__(self, rs, eps):
        if rs.type_label not in _FAMILIES:
            raise OutOfScopeError("no matrix model for type %s" % rs.type_label)
        self.rs = rs
        self.eps = eps
        self.family = _FAMILIES[rs.type_label]
        self.n_e = rs.rank + 1 if self.family == "sl" else rs.rank
        self.msize = self.n_e if self.family == "sl" else 2 * self.n_e
        self._build_basis()
        self._build_coords()
        self._build_theta()
        self._build_brackets()
        self._validate()

    # -- construction ---------------------------------------------------------------

    def _build_basis(self):
        n = self.n_e
        if self.family == "sl":
            cartan = [[(i, i, 1), (i + 1, i + 1, -1)] for i in range(n - 1)]
        else:
            cartan = [[(j, j, 1), (n + j, n + j, -1)] for j in range(n)]
        self.roots_order = list(self.rs.all_roots())
        # the nonzero entries (a, b, v) of each basis matrix, row-major
        self._entries = cartan + [self._root_entries(self.rs._e_coords(r))
                                  for r in self.roots_order]
        self.basis = []
        for entries in self._entries:
            m = la.zeros(self.msize, self.msize)
            for a, b, v in entries:
                m[a][b] = v
            self.basis.append(m)
        self.cartan_mats = self.basis[:len(cartan)]
        self.dim = len(self.basis)
        self._root_index = {r.coords: len(cartan) + i
                            for i, r in enumerate(self.roots_order)}

    def _root_entries(self, ev):
        """The entries (a, b, v) of the root vector of the root with Euclidean
        coordinates ev, in row-major order (a < b for the sp/so pairs)."""
        n = self.n_e
        if 1 in ev and -1 in ev:  # e_a - e_b
            a, b = ev.index(1), ev.index(-1)
            return [(a, b, 1)] if self.family == "sl" else [(a, b, 1), (n + b, n + a, -1)]
        support = [i for i, x in enumerate(ev) if x]
        a, b = support[0], support[-1]  # a == b for +-2e_a, only in sp
        sign = 1 if self.family == "sp" else -1
        if ev[a] > 0:  # e_a + e_b
            entries = [(a, n + b, 1), (b, n + a, sign)]
        else:  # -(e_a + e_b)
            entries = [(n + a, b, 1), (n + b, a, sign)]
        return entries[:1] if a == b else entries

    def _build_coords(self):
        """What coords reads: the position of each off-diagonal basis entry,
        and a left inverse of the Cartan matrices' diagonals.  Also the
        Cartan dictionary that cartan_element_from_h and
        weight_from_cartan_functional read: both go through la.inverse."""
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
        adj, den = la.inverse([[d[a] for d in diags] for a in rows])
        self._diag_read = [[(a, _int_if_integral(F(x, den)))
                            for a, x in zip(rows, row) if x] for row in adj]
        self._diag_terms = [[(j, d[a]) for j, d in enumerate(diags) if d[a]]
                            for a in range(size)]
        # The Cartan dictionary.  alpha_i(D_j) = D_j[a][a] - D_j[b][b] at an
        # entry (a, b) of the i-th simple root vector; H with alpha_i(H) = h_i
        # has diagonal entry a equal to _h_rows[a] . h / _h_den.
        simple = [self._entries[self._root_index[r.coords]][0]
                  for r in self.rs.simple_roots]
        adj, self._h_den = la.inverse([[d[a] - d[b] for d in diags]
                                       for a, b, _ in simple])
        self._h_rows = [[sum(d[a] * row[i] for d, row in zip(diags, adj))
                         for i in range(ncartan)] for a in range(size)]
        # each simple coroot [E_i, E_-i], scaled so that alpha_i is 2 on it,
        # on the Cartan basis: a functional's fw coordinates are its values
        # on these
        self._coroot_read = []
        for r, (a, b, _) in zip(self.rs.simple_roots, simple):
            c = self.coords(la.commutator(self.root_vector(r), self.root_vector(-r)))
            scale = F(2, sum(x * (d[a] - d[b]) for x, d in zip(c, diags)))
            self._coroot_read.append([_int_if_integral(scale * x) for x in c[:ncartan]])

    def _build_theta(self):
        """theta as conjugation by the diagonal sign matrix diag(s): s[0] = 1,
        and s[a] s[b] = eps.sign(r) at each entry (a, b) of a simple root
        vector, whose entries join every matrix index.  Every basis matrix is
        then checked to be fixed (k_index) or negated (p_index) by its sign;
        also the compact and noncompact roots."""
        s = [0] * self.msize
        s[0] = 1
        links = [(a, b, self.eps.sign(r)) for r in self.rs.simple_roots
                 for a, b, _ in self._entries[self._root_index[r.coords]]]
        for _ in range(self.msize):  # each sweep signs at least one more index
            for a, b, sign in links:
                s[a] = s[a] or s[b] * sign
                s[b] = s[b] or s[a] * sign
        self._signs = s
        signs = [1] * len(self.cartan_mats) + [self.eps.sign(r) for r in self.roots_order]
        for entries, sign in zip(self._entries, signs):
            if any(s[a] * s[b] != sign for a, b, _ in entries):
                raise ConsistencyError("theta does not act on a basis matrix by "
                                       "its root's sign")
        self.k_index = [i for i, sign in enumerate(signs) if sign == 1]
        self.p_index = [i for i, sign in enumerate(signs) if sign == -1]
        self.k_dim = len(self.k_index)
        self.p_dim = len(self.p_index)
        self._compact = [r for r in self.roots_order if self.eps.sign(r) == 1]
        self._noncompact = [r for r in self.roots_order if self.eps.sign(r) == -1]

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
                        if x.denominator != 1:
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
        if _column_rank(gram, range(self.dim)) != self.dim:
            raise ConsistencyError("trace form degenerate on the realization")

    # -- primitives -----------------------------------------------------------------

    def theta(self, m):
        s = self._signs
        return [[sa * sb * x for sb, x in zip(s, row)] for sa, row in zip(s, m)]

    def _coords(self, entries):
        """Coordinates of the matrix with nonzero entries {(a, b): x}, or None
        when it is not in g."""
        c = [0] * self.dim
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
                c[j] = sum(diag.get(a, 0) * w for a, w in read)
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
        out = [[0] * self.dim for _ in range(self.dim)]
        for zi, table in zip(zc, self._ad_basis):
            if zi:
                for k, j, c in table:
                    out[k][j] += zi * c
        return out

    def in_p(self, m):
        """Whether theta(m) = -m: theta negates every nonzero entry of m."""
        return self._theta_sign_is(m, -1)

    def in_k(self, m):
        """Whether theta(m) = m: theta fixes every nonzero entry of m."""
        return self._theta_sign_is(m, 1)

    def _theta_sign_is(self, m, sign):
        s = self._signs
        return all(sa * sb == sign for sa, row in zip(s, m)
                   for sb, x in zip(s, row) if x)

    def p_coords(self, m):
        """The p entries of coords(m), or None unless m is in p."""
        c = self.coords(m)
        if c is None or any(c[i] for i in self.k_index):
            return None
        return [c[i] for i in self.p_index]

    def root_vector(self, root):
        return self.basis[self._root_index[root.coords]]

    def noncompact_roots(self):
        return self._noncompact

    def compact_roots(self):
        return self._compact

    def cartan_element_from_h(self, h_values):
        """Diagonal H with alpha_i(H) = h_i, read off the Cartan dictionary;
        an entry is an int unless it is a fraction."""
        m = la.zeros(self.msize, self.msize)
        for a, row in enumerate(self._h_rows):
            m[a][a] = _int_if_integral(F(sum(map(mul, row, h_values)), self._h_den))
        return m

    def weight_from_cartan_functional(self, values):
        """Weight (fw coords) of the functional with the given cartan-basis
        values: its values on the simple coroots."""
        return Weight(tuple(sum(map(mul, row, values)) for row in self._coroot_read))


_REALIZE_CACHE = {}


def realize(name, eps=None):
    """Matrix model of a named catalog form in eps, an EqualRankInvolution,
    or in the catalog's sign convention when eps is None."""
    rs, catalog_eps = standard_form_catalog(name)
    if eps is None:
        eps = catalog_eps
    key = (_normalize_name(name), eps.epsilon)
    if key in _REALIZE_CACHE:
        return _REALIZE_CACHE[key]
    real = ClassicalRealization(rs, eps)
    _REALIZE_CACHE[key] = real
    return real


# ---------------------------------------------------------------------------
# sl(2) triples
# ---------------------------------------------------------------------------

def _add_to_diagonal(m, c):
    """m + c I, written into m, which is returned."""
    for i, row in enumerate(m):
        row[i] += c
    return m


@dataclass
class SL2Triple:
    H: list
    X: list
    Y: list

    def bracket_identities_hold(self):
        """[H, X] = 2X, [X, Y] = H and [H, Y] = -2Y, tested on the integer
        matrices H' = d_h H, X' = d_x X and Y' = d_y Y: [H', X'] = 2 d_h X',
        d_h [X', Y'] = d_x d_y H' and [H', Y'] = -2 d_h Y'."""
        br = la.commutator
        dh, h = la._scaled_to_ints(self.H)
        dx, x = la._scaled_to_ints(self.X)
        dy, y = la._scaled_to_ints(self.Y)
        return (la.mat_eq(br(h, x), la.mat_scale(2 * dh, x))
                and la.mat_eq(la.mat_scale(dh, br(x, y)), la.mat_scale(dx * dy, h))
                and la.mat_eq(br(h, y), la.mat_scale(-2 * dh, y)))

    def normalized_identities_hold(self, real):
        return (self.bracket_identities_hold()
                and real.in_k(self.H)
                and real.in_p(self.X)
                and real.in_p(self.Y))


def _is_nilpotent(real, x):
    """Whether x^msize = 0, by squaring x until the power is x^(2^k) with
    2^k >= msize: an msize x msize matrix is nilpotent iff that power is 0."""
    power = x
    for _ in range((real.msize - 1).bit_length()):
        power = la.mat_mul(power, power)
    return la.is_zero_matrix(power)


def jm_triple(real, x):
    """Complete a nonzero nilpotent to an sl(2) triple by two exact solves.

    Both systems are solved on integer rows: w over its common denominator
    d gives d H as an integer dot product with ad X, and the Y system is
    multiplied through by d, which leaves its solution unchanged.
    """
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
    den, (iw,) = la._scaled_to_ints([w])
    dw = [(j, c) for j, c in enumerate(iw) if c]
    dhc = [sum(row[j] * c for j, c in dw) for row in adx]  # coords of den H
    hc = [F(c, den) for c in dhc]
    h = real.from_coords(hc)
    # Y solves [X, Y] = H and [H, Y] = -2 Y simultaneously; times den.
    stacked = ([[den * a for a in row] for row in adx]
               + _add_to_diagonal(real.ad_matrix(real.from_coords(dhc)), 2 * den))
    yc = la.solve(stacked, dhc + [0] * real.dim)
    if yc is None:
        raise ConsistencyError("no completing Y found for a nilpotent element")
    triple = SL2Triple(H=h, X=x, Y=real.from_coords(yc))
    if not triple.bracket_identities_hold():
        raise ConsistencyError("triple fails its bracket identities")
    return triple


def ks_normalize(real, triple):
    """Move a triple with X in p to one with H in k and X, Y in p.

    Replacing H by its k-part keeps [H, X] = 2X because the p-part of H
    brackets X into k; Y is then re-solved inside p, on integer rows: the
    system is multiplied through by the common denominator d of the k-part.
    All six identities are re-checked exactly.
    """
    if not real.in_p(triple.X):
        raise InputError("normalization needs X in p")
    hk = la.mat_scale(F(1, 2), la.mat_add(triple.H, real.theta(triple.H)))
    den, dhk = la._scaled_to_ints(hk)
    if not la.mat_eq(la.commutator(dhk, triple.X), la.mat_scale(2 * den, triple.X)):
        raise ConsistencyError("k-part of H lost the [H, X] = 2X relation")
    adx = [[den * a for a in row] for row in real.ad_matrix(triple.X)]
    shifted = _add_to_diagonal(real.ad_matrix(dhk), 2 * den)
    stacked = [[row[j] for j in real.p_index] for row in adx + shifted]
    c = la.solve(stacked, real.coords(dhk) + [0] * real.dim)
    if c is None:
        raise ConsistencyError("no Y in p completes the normalized triple")
    out = SL2Triple(H=hk, X=triple.X, Y=_basis_sum(real, real.p_index, c))
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
    if any(x for a, row in enumerate(h) for b, x in enumerate(row) if a != b):
        raise InputError("H is not diagonal")
    diag = [row[a] for a, row in enumerate(h)]
    den, (diag,) = la._scaled_to_ints([diag])
    degree = []
    for entries in real._entries:
        found = {diag[a] - diag[b] for a, b, _ in entries}
        d = found.pop()
        if found or d % den:
            raise InputError("ad H does not act on the basis with integer degrees")
        degree.append(d // den)
    return {d: ([i for i in real.k_index if degree[i] == d],
                [i for i in real.p_index if degree[i] == d])
            for d in sorted(set(degree))}


def _columns(mat, index):
    """The columns of mat at index, each as a list."""
    return [[row[j] for row in mat] for j in index]


def _column_rank(mat, index):
    """The rank of mat's columns at index, exact: the pivots la.IncrementalRank
    finds by forward elimination, over the rows of mat that are nonzero at
    index.  Columns that span those rows reach full rank, and the rest are
    then skipped."""
    rows = [row for row in mat if any(map(row.__getitem__, index))]
    tracker = la.IncrementalRank(len(rows))
    for col in _columns(rows, index):
        tracker.add(col)
    return tracker.rank


def orbit_dimension(real, x):
    """dim K.x = dim k - dim ker(ad x: k -> p), by exact rank."""
    if not real.in_p(x):
        raise InputError("orbit_dimension expects x in p")
    if la.is_zero_matrix(x):
        return 0
    return _column_rank(real.ad_matrix(x), real.k_index)


def dense_orbit_check(real, layers, x):
    """Density of the parabolic orbit of x in the degree >= 2 part of p,
    for the grading whose ad_layers are layers.

    True iff ad x maps the degree-0 part of k onto the degree-2 part of p
    and bracketing x with the positive-degree part of k spans the
    degree >= 3 part of p.
    """
    _, p2 = layers.get(2, ([], []))
    xc = real.coords(x)
    if xc is None or any(c for i, c in enumerate(xc) if i not in p2):
        raise InputError("x is not in the degree-2 part of p")
    adx = real.ad_matrix(x)
    k0, _ = layers.get(0, ([], []))
    if _column_rank(adx, k0) != len(p2):
        return False
    uk = [i for d, (k, _) in layers.items() if d >= 1 for i in k]
    p_high = [i for d, (_, p) in layers.items() if d >= 3 for i in p]
    return _column_rank(adx, uk) == len(p_high)


def _strongly_orthogonal_rank(rs, eps):
    """The size of a largest set of pairwise strongly orthogonal noncompact
    positive roots (alpha + beta and alpha - beta both non-roots), by
    exhaustive search."""
    roots = [r for r in rs.positive_roots if eps.sign(r) == -1]

    def strongly_orthogonal(a, b):
        return not any(rs.is_root(Root(tuple(x + s * y for x, y in zip(a.coords, b.coords))))
                       for s in (1, -1))

    def largest(candidates):
        best = 0
        for i, a in enumerate(candidates):
            if best >= len(candidates) - i:
                break
            rest = [b for b in candidates[i + 1:] if strongly_orthogonal(a, b)]
            best = max(best, 1 + largest(rest))
        return best

    return largest(roots)


def nilcone_dimension(real, seed=None):
    """dim N_theta = dim p - dim a (Kostant-Rallis 1971), exact.

    For an equal-rank form, Cayley transforms by a set of pairwise strongly
    orthogonal noncompact roots reach every Cartan subalgebra up to
    conjugacy (Sugiura 1959), so dim a is the size of a largest such set.
    seed is ignored; nothing here is sampled.
    """
    return real.p_dim - _strongly_orthogonal_rank(real.rs, real.eps)


def random_nilpotent(real, rng):
    """Seeded random nilpotent in p: noncompact root vectors in a half-space."""
    noncompact = real.noncompact_roots()
    if not noncompact:
        raise InputError("p = 0: the form has no nilpotent directions")
    patterns = [real.rs._e_coords(r) for r in noncompact]
    index = [real._root_index[r.coords] for r in noncompact]
    while True:
        xi = [rng.randint(-6, 6) for _ in range(real.n_e)]
        vals = [sum(x * e for x, e in zip(xi, pat)) for pat in patterns]
        if any(v == 0 for v in vals):
            continue
        vec = [0] * real.dim
        for i, v in zip(index, vals):
            if v > 0:
                vec[i] = rng.randint(-2, 2)
        if not any(vec):
            continue
        x = real.from_coords(vec)
        if not _is_nilpotent(real, x):
            raise ConsistencyError("half-space sample was not nilpotent")
        return x


def principal_nilpotent_search(real, seed):
    """A seeded random nilpotent in p of maximal K-orbit dimension, that is
    of orbit dimension nilcone_dimension(real).

    A sampled orbit larger than the cone would contradict Kostant-Rallis and
    raises ConsistencyError at once.
    """
    if real.p_dim == 0:
        raise InputError("p = 0: no principal nilpotent exists")
    cone_dim = nilcone_dimension(real)
    rng = random.Random("%s-principal" % (seed,))
    best = None
    best_dim = -1
    for _ in range(120):
        x = random_nilpotent(real, rng)
        d = orbit_dimension(real, x)
        if d > best_dim:
            best, best_dim = x, d
        if best_dim > cone_dim:
            raise ConsistencyError("principal search found orbit dimension %d > "
                                   "nilcone dimension %d" % (best_dim, cone_dim))
        if best_dim == cone_dim:
            return best
    # the partial matrix in Fractions, which a report prints as strings
    raise DiagnosticError("principal search stalled at orbit dimension %d < %d"
                          % (best_dim, cone_dim),
                          partial=[[F(v) for v in row] for row in best])


# ---------------------------------------------------------------------------
# Orbit sampling and coordinate rings
# ---------------------------------------------------------------------------

def _word(real):
    """The compact root vectors of a word u+ u- u+, each by its nonzero entries
    (a, b, value): the positive compact roots, the negative ones, then the
    positive ones again."""
    positive = [r for r in real.compact_roots() if r.is_positive]
    return [real._entries[real._root_index[r.coords]]
            for r in positive + [-r for r in positive] + positive]


def _conjugate(x, entries, c):
    """g x g^-1 for g = exp(cE) = 1 + cE (E^2 = 0) and g^-1 = 1 - cE, with E
    given by its nonzero entries (a, b, value): an integer matrix for an
    integer matrix x and an integer c."""
    y = list(x)  # (1 + cE) x: only the rows a of E's entries change
    for a, b, v in entries:
        y[a] = [s + c * v * w for s, w in zip(y[a], x[b])]
    z = [list(row) for row in y]  # ((1 + cE) x) (1 - cE)
    for a, b, v in entries:
        for row, out in zip(y, z):
            if row[a]:
                out[b] -= c * v * row[a]
    return z


def sample_orbit_points(real, x, count, rng):
    """Points Ad(g) x for random g = u+ u- u+, as p-coordinates.

    Each of u+, u-, u+ is a product of exp(cE) over the positive (negative)
    compact root vectors E, in the order of _word, each c a nonzero integer
    in [-1024, 1024] drawn in that order.  x is scaled to an integer matrix
    once and conjugated by one factor at a time, the last factor first, so
    each point is integer over x's common denominator.  The draws from rng
    do not depend on x.
    """
    word = _word(real)
    den, xi = la._scaled_to_ints(x)
    pts = []
    for _ in range(count):
        params = [rng.randint(1, 1024) * rng.choice((1, -1)) for _ in word]
        pt = xi
        for entries, c in zip(reversed(word), reversed(params)):
            pt = _conjugate(pt, entries, c)
        pc = real.p_coords(pt)
        if pc is None:
            raise ConsistencyError("orbit sample left p")
        pts.append([F(c, den) for c in pc])
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


def _weight_blocks(real, steps):
    """For each degree of steps, the monomials' columns grouped by T-weight.

    Each p-coordinate is a noncompact root vector (p has no Cartan part for
    an equal-rank form), and a monomial's weight is the sum of its
    coordinates' roots.  The blocks of a degree are lists of columns in
    _monomials order.
    """
    roots = [real.roots_order[i - len(real.cartan_mats)].coords
             for i in real.p_index]
    blocks = []
    prev = [(0,) * real.rs.rank]
    for step in steps:
        weights = [tuple(a + b for a, b in zip(prev[j], roots[i])) for j, i in step]
        groups = {}
        for col, mu in enumerate(weights):
            groups.setdefault(mu, []).append(col)
        blocks.append(list(groups.values()))
        prev = weights
    return blocks


def _eval_rows(pt, steps):
    """Values of the monomials at pt, one row per degree of steps; each degree
    multiplies the previous degree's values by one coordinate."""
    rows = []
    prev = [1]
    for step in steps:
        prev = [prev[j] * pt[i] for j, i in step]
        rows.append(prev)
    return rows


class OrbitSample:
    """Exact evaluation ranks over Q of the monomials of degrees 1..max_deg at
    points of K.x, one rank per T-weight block.

    The orbit closure is T-stable, so its ideal is spanned by T-weight
    vectors and the Hilbert function in degree d is the sum over the
    weights mu of the rank of block mu at the points of K.x.  Each block's
    rank at sampled points is at most that, so dims is a certified lower
    bound.  The points are x, then w points of sample_orbit_points, w the
    widest block: at generic points a block of width at most w reaches its
    rank on K.x, so saturation relies on the points being generic.  One
    confirming batch of 3 more points follows; any block rank that rises
    there raises DiagnosticError with the earlier dims.

    The points lie on [K, K].x, without a torus factor: the torus scales a
    block's row by one character value, which changes no block rank, but it
    does change the rank of a whole degree's row, so only blocks are ranked.
    """

    def __init__(self, real, x, max_deg, rng):
        self.real = real
        self.steps = _monomial_steps(real.p_dim, max_deg)
        self.blocks = _weight_blocks(real, self.steps)
        self.trackers = [[la.IncrementalRank(len(cols)) for cols in blocks]
                         for blocks in self.blocks]
        self.feed([real.p_coords(x)])
        width = max((len(cols) for blocks in self.blocks for cols in blocks),
                    default=0)
        self.feed(sample_orbit_points(real, x, width, rng))
        dims = self.dims
        self.feed(sample_orbit_points(real, x, 3, rng))
        if self.dims != dims:
            raise DiagnosticError("evaluation ranks rose in the confirming batch",
                                  partial=dims)

    @property
    def dims(self):
        """1, then the sum of the block ranks of each degree 1..max_deg."""
        return [1] + [sum(t.rank for t in trackers) for trackers in self.trackers]

    def block_rows(self, pt):
        """pt's evaluation rows, per degree per block, up to one nonzero factor
        per degree (pt is scaled to primitive integers first)."""
        rows = _eval_rows(la.primitive(pt), self.steps)
        return [[[row[j] for j in cols] for cols in blocks]
                for row, blocks in zip(rows, self.blocks)]

    def feed(self, points):
        for pt in points:
            for trackers, rows in zip(self.trackers, self.block_rows(pt)):
                for tracker, row in zip(trackers, rows):
                    tracker.add(row)


def coordinate_ring_dims(real, x, k_max, seed):
    """Lower bounds on the Hilbert function of the orbit closure, degrees 0..k_max.

    The value in degree d is the OrbitSample's sum of exact block ranks in
    degree d, at most the Hilbert function of the closure in degree d and
    equal to it once the points are generic.  A negative k_max raises
    InputError.
    """
    if k_max < 0:
        raise InputError("degree bound k_max must be >= 0, got %d" % k_max)
    return OrbitSample(real, x, k_max, random.Random("%s-coordring" % (seed,))).dims


def not_in_closure_certificate(ref, x_other):
    """Whether a polynomial separates the sampled points of K.x_ref from x_other.

    ref is an OrbitSample of K.x_ref.  True means a T-weight polynomial of
    degree at most ref's max_deg vanishes at every point of ref but not at
    x_other: one of x_other's block rows raises the rank of ref's block.
    ref has saturated, so the polynomials vanishing on its points are taken
    for those vanishing on the orbit; that ideal is K-stable, so testing
    x_other tests its whole orbit.  False is evidence only (no separating
    polynomial up to max_deg was found).
    """
    rows = ref.block_rows(ref.real.p_coords(x_other))
    return any(tracker.raises(row)
               for trackers, deg_rows in zip(ref.trackers, rows)
               for tracker, row in zip(trackers, deg_rows))


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
    """Exact agreement of matrix and combinatorial graded dimensions, the
    matrix side read off ad_layers."""
    matrix_side = {d: (len(k), len(p)) for d, (k, p) in ad_layers(real, h).items()}
    detail = {d: {"matrix": matrix_side.get(d, (0, 0)), "combinatorial": gd.dims(d)}
              for d in sorted(set(matrix_side) | set(gd.degrees))}
    return all(v["matrix"] == v["combinatorial"] for v in detail.values()), detail


def _basis_sum(real, index, coeffs):
    """The sum of c b_i over the basis indices i and their coefficients c."""
    vec = [0] * real.dim
    for i, c in zip(index, coeffs):
        vec[i] = c
    return real.from_coords(vec)


def dense_element(real, h_values, seed):
    """(H, X, dense) for the grading with simple-root values h_values: H
    the Cartan element, X the element of degree-2 p that the resolution is
    built from, and dense whether dense_orbit_check passes it.

    X is the first that passes of the sum of the degree-2 p basis (in
    ad_layers order), then three sums with seeded random coefficients in
    1..5; when none passes, X is the first and dense is False.  H is
    graded once for all four.
    """
    h_values = tuple(h_values)
    h = real.cartan_element_from_h(h_values)
    layers = ad_layers(real, h)
    p2 = layers.get(2, ([], []))[1]
    first = _basis_sum(real, p2, [1] * len(p2))
    rng = random.Random("%s-confirm-%s" % (seed, h_values))
    for attempt in range(4):
        x = first if attempt == 0 else _basis_sum(real, p2, [rng.randint(1, 5) for _ in p2])
        if dense_orbit_check(real, layers, x):
            return h, x, True
    return h, first, False


def dense_confirmer(real, seed):
    """The grading-search confirmer: whether a grading has a dense element."""
    return lambda gd: dense_element(real, gd.H.h_values, seed)[2]


def even_grading_orbit_dims(real, seed):
    """Orbit dimension of the dense element of every confirmed even grading.

    These are exactly the orbits whose resolutions the package constructs;
    the even-dimension condition is only meaningful (and checkable) there.
    """
    from .grading import search_even_gradings
    elements = {}  # h_values -> the grading's element

    def confirm(gd):
        _, elements[gd.H.h_values], dense = dense_element(real, gd.H.h_values, seed)
        return dense

    return [(hit.H.h_values, orbit_dimension(real, elements[hit.H.h_values]))
            for hit in search_even_gradings(real.rs, real.eps, confirm=confirm)
            if hit.confirmed]


_CLOSURE_DEG = 2
_QCT_SAMPLES = 14


def qct_evidence(real, seed, grading_orbit_dims=None):
    """Sampled evidence for the single-closure (G1) and even-dimension (G2)
    conditions, as a report.

    Everything here is labeled EVIDENCE: full orbit enumeration is out of
    scope, so the report certifies non-membership where found and records
    sampled data otherwise.  grading_orbit_dims, when given, is
    even_grading_orbit_dims(real, seed), already computed by the caller;
    otherwise it is computed here.
    """
    if real.p_dim == 0:
        return {"label": "EVIDENCE", "degenerate": True,
                "note": "p = 0: the cone is a point; both conditions are vacuous"}
    cone_dim = nilcone_dimension(real)
    principal = principal_nilpotent_search(real, seed)
    rng = random.Random("%s-qct" % (seed,))
    samples = [principal]
    for _ in range(_QCT_SAMPLES):
        samples.append(random_nilpotent(real, rng))
    dims = [orbit_dimension(real, s) for s in samples]
    reps = [principal]
    refs = []  # refs[i] samples K.reps[i], built when a candidate first meets it
    for s, d in zip(samples[1:], dims[1:]):
        if d != cone_dim:
            continue
        for i, r in enumerate(reps):
            if i == len(refs):
                refs.append(OrbitSample(real, r, _CLOSURE_DEG,
                                        random.Random("%s-closure-ref" % (seed,))))
            if not not_in_closure_certificate(refs[i], s):
                break
        else:
            reps.append(s)
    if grading_orbit_dims is None:
        grading_orbit_dims = even_grading_orbit_dims(real, seed)
    sampled = sorted(dims)
    return {
        "label": "EVIDENCE",
        "degenerate": False,
        "seed": seed,
        "G1_evidence": {
            "principal_orbit_dim": dims[0],
            "nilcone_dim": cone_dim,
            "dims_equal": dims[0] == cone_dim,
            "component_count_evidence": len(reps),
            "single_component_evidence": len(reps) == 1,
        },
        "G2_evidence": {
            # in-scope orbits: the dense elements of the confirmed even gradings
            "even_grading_orbit_dims": [list(pair) for pair in grading_orbit_dims],
            "even_grading_all_even": all(d % 2 == 0 for _, d in grading_orbit_dims),
            # raw random nilpotents, reported but not asserted: odd orbits exist
            "sampled_orbit_dims": sampled,
            "parity_table": {d: sampled.count(d) for d in sorted(set(sampled))},
        },
    }
