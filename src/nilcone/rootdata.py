"""Exact root-system, weight-lattice and Weyl-group combinatorics.

Classical types A, B, C, D and G2 in the Bourbaki simple-root ordering:

    A_n : alpha_i = e_i - e_{i+1}
    B_n : alpha_i = e_i - e_{i+1} (i < n), alpha_n = e_n          (short last)
    C_n : alpha_i = e_i - e_{i+1} (i < n), alpha_n = 2 e_n        (long last)
    D_n : alpha_i = e_i - e_{i+1} (i < n), alpha_n = e_{n-1}+e_n
    G2  : alpha_1 short, alpha_2 long

Roots are stored in simple-root coordinates (integers).  A weight is stored
as the int tuple ``d2`` of twice its fundamental-weight coordinates: the
weights met here are half-integral at worst (rho_K of su(2,1) is), so
doubling keeps every coordinate an integer.  ``Weight.fw`` reads the exact
rationals back.  The Cartan matrix convention is
cartan[i][j] = <alpha_j, alpha_i^vee>, so the degree of a root c under the
i-th simple coroot is the i-th entry of cartan . c.  Coroots lie in the
coroot lattice, so every pairing, reflection, dominance test, Weyl
enumeration and Weyl dimension runs on ints; root coordinates of a weight
are an integer adjugate of the Cartan matrix and one exact division.
"""

from dataclasses import dataclass
from fractions import Fraction
from operator import add, mul, neg, sub as minus

from .errors import ConsistencyError, InputError

F = Fraction

_POSITIVE_COUNTS = {
    "A": lambda n: n * (n + 1) // 2,
    "B": lambda n: n * n,
    "C": lambda n: n * n,
    "D": lambda n: n * (n - 1),
    "G2": lambda n: 6,
}


@dataclass(frozen=True)
class Root:
    """A root in simple-root coordinates; all entries >= 0 or all <= 0."""

    coords: tuple

    def __neg__(self):
        return Root(tuple(-c for c in self.coords))

    @property
    def is_positive(self):
        return any(self.coords) and all(c >= 0 for c in self.coords)

    @property
    def height(self):
        return sum(self.coords)


class Weight:
    """A weight, stored as d2: the int tuple of twice its fundamental-weight
    coordinates.

    Weight(fw) takes the fundamental-weight coordinates (ints or Fractions)
    and raises InputError unless each is a multiple of 1/2.  Immutable and
    hashable; equal weights have equal d2.
    """

    __slots__ = ("d2",)

    def __init__(self, fw):
        d2 = []
        for c in fw:
            c2 = 2 * F(c)
            if c2.denominator != 1:
                raise InputError("weight coordinate %s is not a multiple of 1/2" % (c,))
            d2.append(c2.numerator)
        object.__setattr__(self, "d2", tuple(d2))

    def __setattr__(self, name, value):
        raise AttributeError("Weight is immutable")

    @property
    def fw(self):
        """Fundamental-weight coordinates, as exact rationals."""
        return tuple(F(x, 2) for x in self.d2)

    def __eq__(self, other):
        if other.__class__ is not Weight:
            return NotImplemented
        return self.d2 == other.d2

    def __hash__(self):
        return hash(self.d2)

    def __repr__(self):
        return "Weight(fw=[%s])" % ", ".join(str(c) for c in self.fw)

    def __reduce__(self):  # pickle and copy, which would set d2 by setattr
        return _weight_of, (self.d2,)

    def __add__(self, other):
        return _weight_of(tuple(map(add, self.d2, other.d2)))

    def __sub__(self, other):
        return _weight_of(tuple(map(minus, self.d2, other.d2)))

    def __neg__(self):
        return _weight_of(tuple(map(neg, self.d2)))

    def scale(self, c):
        c = F(c)
        return Weight(tuple(F(x, 2) * c for x in self.d2))

    @property
    def is_zero(self):
        return not any(self.d2)

    @property
    def is_integral(self):
        """True when every fundamental-weight coordinate is an integer."""
        return not any(x % 2 for x in self.d2)


_new = object.__new__
_set = object.__setattr__


def _weight_of(d2):
    """The Weight with doubled coordinates d2 (an int tuple), unchecked."""
    w = _new(Weight)
    _set(w, "d2", d2)
    return w


def weight(*coords):
    return Weight(coords)


def zero_weight(rank):
    return _weight_of((0,) * rank)


def require_integral(lam):
    """Raise InputError unless lam has integer fundamental-weight coordinates.

    Only such weights are characters of the torus, so only they define a
    line bundle O(lam).
    """
    if not lam.is_integral:
        raise InputError("weight (%s) is not integral: O(lambda) needs integer "
                         "fundamental-weight coordinates"
                         % ", ".join(str(c) for c in lam.fw))


def _cartan_data(type_label, rank):
    """Cartan matrix (row convention of the module docstring) and half-norms
    d_i = (alpha_i, alpha_i)/2."""
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
    elif type_label == "G2":
        a = [[2, -3], [-1, 2]]
        d = [F(1), F(3)]
    else:
        raise InputError("unknown type label %r" % (type_label,))
    return [tuple(row) for row in a], tuple(d)


def _adjugate(matrix):
    """(adj, det) of an integer matrix: matrix^-1 = adj / det, adj integral."""
    n = len(matrix)
    aug = [[F(x) for x in row] + [F(int(i == j)) for j in range(n)]
           for i, row in enumerate(matrix)]
    det = F(1)
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
    # det and det * inverse are integers for an integer matrix
    return [tuple(int(det * x) for x in row[n:]) for row in aug], int(det)


class RootSystem:
    """Finite root system with exact pairing, reflection and conversion data."""

    def __init__(self, type_label, rank):
        if type_label == "G" and rank == 2:
            type_label = "G2"
        if type_label not in _POSITIVE_COUNTS:
            raise InputError("unknown type label %r" % (type_label,))
        minimum = {"A": 1, "B": 2, "C": 2, "D": 3, "G2": 2}[type_label]
        if rank < minimum:
            raise InputError("type %s needs rank >= %d, got %d" % (type_label, minimum, rank))
        if type_label == "G2" and rank != 2:
            raise InputError("G2 has rank 2")
        self.type_label = type_label
        self.rank = rank
        self.cartan_matrix, self._d = _cartan_data(type_label, rank)
        # root coordinates of lam are (adj . lam.d2) / (2 det)
        self._adj, det = _adjugate(self.cartan_matrix)
        self._root_den = 2 * det
        # twice the Gram matrix of the simple roots: 2 (a_i, a_j) = 2 d_i cartan[i][j]
        self._gram2 = [tuple(int(2 * self._d[i]) * a for a in self.cartan_matrix[i])
                       for i in range(rank)]
        self.positive_roots = self._generate_positive_roots()
        self.simple_roots = self.positive_roots[: rank]
        expected = _POSITIVE_COUNTS[type_label](rank)
        if len(self.positive_roots) != expected:
            raise ConsistencyError("positive root count %d != %d for %s%d"
                                   % (len(self.positive_roots), expected, type_label, rank))
        self._root_set = frozenset(r.coords for r in self.positive_roots)
        self._root_set |= frozenset((-r).coords for r in self.positive_roots)
        self._coroot_cache = {}

    def _generate_positive_roots(self):
        n = self.rank
        simple = [Root(tuple(1 if j == i else 0 for j in range(n))) for i in range(n)]
        by_height = {1: list(simple)}
        known = {r.coords for r in simple}
        h = 1
        while by_height.get(h):
            for root in by_height[h]:
                for i in range(n):
                    # root string: root + alpha_i is a root iff p - <root, a_i^vee> > 0
                    # where p = max k with root - k alpha_i a root.
                    p = 0
                    c = list(root.coords)
                    while True:
                        c[i] -= 1
                        if tuple(c) in known or (all(x == 0 for x in c)):
                            if all(x == 0 for x in c):
                                p += 1
                                break
                            p += 1
                        else:
                            break
                    pairing = sum(self.cartan_matrix[i][j] * root.coords[j] for j in range(n))
                    if p - pairing > 0:
                        new = list(root.coords)
                        new[i] += 1
                        t = tuple(new)
                        if t not in known:
                            known.add(t)
                            by_height.setdefault(h + 1, []).append(Root(t))
            h += 1
        out = list(simple)  # simple roots first, in index order
        for hh in sorted(by_height):
            if hh == 1:
                continue
            out.extend(sorted(by_height[hh], key=lambda r: r.coords))
        return tuple(out)

    # -- membership and conversions -------------------------------------------------

    def is_root(self, root):
        return root.coords in self._root_set

    def all_roots(self):
        return tuple(self.positive_roots) + tuple(-r for r in self.positive_roots)

    def root_fw(self, root):
        """Fundamental-weight coordinates of a root (fw_i = <root, a_i^vee>)."""
        return _weight_of(tuple(2 * x for x in self._fw_of_root(root)))

    def _fw_of_root(self, root):
        """The fw coordinates of a root, as an int tuple (not doubled)."""
        c = root.coords
        return tuple(sum(map(mul, row, c)) for row in self.cartan_matrix)

    def _root_num(self, lam):
        """Root coordinates of lam times 2 det(cartan), as an int tuple."""
        d2 = lam.d2
        return tuple(sum(map(mul, row, d2)) for row in self._adj)

    def root_coords_of_weight(self, lam):
        """Exact rational coordinates of a weight over the simple roots."""
        den = self._root_den
        return tuple(F(x, den) for x in self._root_num(lam))

    def weight_from_root_coords(self, coords):
        coords = [F(c) for c in coords]
        return Weight(tuple(sum(map(mul, row, coords)) for row in self.cartan_matrix))

    def bilinear(self, lam, mu):
        """The W-invariant form, normalized by (a_i, a_i) = 2 d_i."""
        r1 = self._root_num(lam)
        r2 = self._root_num(mu)
        total = sum(x * sum(map(mul, row, r2)) for x, row in zip(r1, self._gram2) if x)
        return F(total, 2 * self._root_den ** 2)

    def coroot_vector(self, root):
        """Int vector v with <lam, root^vee> = sum v_i lam.fw[i].

        Coroots lie in the coroot lattice, so v is integral and
        2 <lam, root^vee> = sum v_i lam.d2[i] is an integer.
        """
        if root.coords in self._coroot_cache:
            return self._coroot_cache[root.coords]
        c = root.coords
        # v_j = c_j d_j / ((c, c) / 2), with 2 (c, c) = c . gram2 . c
        norm2 = sum(x * sum(map(mul, row, c)) for x, row in zip(c, self._gram2))
        v = []
        for j in range(self.rank):
            q, r = divmod(4 * c[j] * self._d[j], norm2)
            if r:
                raise ConsistencyError("coroot of %r is not integral" % (root,))
            v.append(int(q))
        v = tuple(v)
        self._coroot_cache[root.coords] = v
        return v

    def pairing(self, lam, root):
        """<lam, root^vee>, exact (an int whenever it is integral)."""
        if not self.is_root(root):
            raise InputError("not a root of %s%d: %r" % (self.type_label, self.rank, root))
        v2 = sum(map(mul, self.coroot_vector(root), lam.d2))
        return v2 // 2 if v2 % 2 == 0 else F(v2, 2)

    def rho(self):
        return _weight_of((2,) * self.rank)


_ROOT_SYSTEM_CACHE = {}


def build_root_system(type_label, rank):
    """Construct (and memoize) the root system of the given type and rank."""
    key = (type_label, rank)
    if key not in _ROOT_SYSTEM_CACHE:
        _ROOT_SYSTEM_CACHE[key] = RootSystem(type_label, rank)
    return _ROOT_SYSTEM_CACHE[key]


# ---------------------------------------------------------------------------
# Subsystems and their Weyl groups
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class WeylElement:
    """Reduced word in the simple reflections of a subsystem."""

    word: tuple

    @property
    def length(self):
        return len(self.word)


class Subsystem:
    """A closed subsystem with the positive system inherited from the ambient one.

    Used both for the full system and for the root system of K; most
    character-level operations (dominance, Bott, Freudenthal) are relative
    to a subsystem.
    """

    def __init__(self, rs, positive_roots):
        self.rs = rs
        self.positive_roots = tuple(sorted(positive_roots, key=lambda r: (r.height, r.coords)))
        pos_set = {r.coords for r in self.positive_roots}
        for r in self.positive_roots:
            if not rs.is_root(r):
                raise InputError("subsystem entry is not a root: %r" % (r,))
            if (-r).coords in pos_set:
                raise InputError("positive system contains a root and its negative")
        # closure under addition within the ambient system
        for a in self.positive_roots:
            for b in self.positive_roots:
                s = Root(tuple(x + y for x, y in zip(a.coords, b.coords)))
                if rs.is_root(s) and s.coords not in pos_set:
                    raise ConsistencyError("subsystem not closed: %r + %r" % (a, b))
        sums = set()
        for a in self.positive_roots:
            for b in self.positive_roots:
                sums.add(tuple(x + y for x, y in zip(a.coords, b.coords)))
        self.simple_roots = tuple(r for r in self.positive_roots if r.coords not in sums)
        # 2 rho_sub is the sum of the positive roots, so rho_sub.d2 is that sum in fw
        rho2 = (0,) * rs.rank
        for r in self.positive_roots:
            rho2 = tuple(map(add, rho2, rs._fw_of_root(r)))
        self.rho = _weight_of(rho2)
        # int coroot vectors (see RootSystem.coroot_vector) and fw of the roots
        self._simple_coroots = tuple(rs.coroot_vector(b) for b in self.simple_roots)
        self._simple_fw = tuple(rs._fw_of_root(b) for b in self.simple_roots)
        self._coroots = tuple(rs.coroot_vector(r) for r in self.positive_roots)

    @property
    def rank(self):
        return len(self.simple_roots)

    def _reflect2(self, d2, i):
        """The i-th simple reflection of doubled coordinates d2."""
        p = sum(map(mul, self._simple_coroots[i], d2))
        return tuple(x - p * a for x, a in zip(d2, self._simple_fw[i]))

    def is_dominant(self, lam):
        d2 = lam.d2
        return all(sum(map(mul, v, d2)) >= 0 for v in self._simple_coroots)

    def _to_dominant(self, d2):
        """Reflect doubled coordinates d2 into the dominant chamber.

        Returns the simple reflections applied, in order, and the image.
        """
        word = []
        moved = True
        while moved:
            moved = False
            for i, v in enumerate(self._simple_coroots):
                p = sum(map(mul, v, d2))
                if p < 0:
                    d2 = tuple(x - p * a for x, a in zip(d2, self._simple_fw[i]))
                    word.append(i)
                    moved = True
        return word, d2

    def dominant_representative(self, lam):
        """The unique dominant weight in the Weyl orbit of lam."""
        return _weight_of(self._to_dominant(lam.d2)[1])

    def apply(self, w, lam):
        """Action of a WeylElement: s_{w[0]} s_{w[1]} ... applied to lam."""
        d2 = lam.d2
        for i in reversed(w.word):
            d2 = self._reflect2(d2, i)
        return _weight_of(d2)


def full_subsystem(rs):
    return Subsystem(rs, rs.positive_roots)


def make_dominant(sub, lam):
    """Bott regularization step for lam relative to the subsystem.

    Returns (w, lam_dom, singular).  If lam + rho_sub lies on a wall,
    singular is True.  Otherwise w is the unique element with
    w(lam + rho_sub) strictly dominant and lam_dom = w(lam+rho) - rho.
    """
    rho2 = sub.rho.d2
    word, mu = sub._to_dominant(tuple(map(add, lam.d2, rho2)))
    if any(sum(map(mul, v, mu)) == 0 for v in sub._simple_coroots):
        return WeylElement(tuple(word)), None, True
    word.reverse()  # recorded right-to-left; apply() composes left on top
    return WeylElement(tuple(word)), _weight_of(tuple(map(minus, mu, rho2))), False


_MATERIALIZE_LIMIT = 10 ** 6


def weyl_elements(sub):
    """All Weyl group elements of the subsystem as reduced words, sorted by
    (length, word).

    BFS over simple reflections, deduplicated by the action on rho_sub.
    Each frontier element carries its image of rho_sub, so the candidate
    s_i w costs one simple reflection of the parent's image (Casselman,
    "Computation in Coxeter groups I", Electron. J. Combin. 2002).  Groups
    with more than 10^6 elements are never materialized.
    """
    identity = WeylElement(())
    seen = {sub.rho.d2: identity}
    frontier = [(identity, sub.rho.d2)]
    while frontier:
        nxt = []
        for w, img in frontier:
            for i in range(sub.rank):
                cand_img = sub._reflect2(img, i)
                if cand_img not in seen:
                    cand = WeylElement((i,) + w.word)
                    seen[cand_img] = cand
                    nxt.append((cand, cand_img))
        if len(seen) > _MATERIALIZE_LIMIT:
            raise ConsistencyError("refusing to materialize a Weyl group of "
                                   "more than 10^6 elements")
        frontier = sorted(nxt, key=lambda pair: pair[0].word)
    return sorted(seen.values(), key=lambda w: (w.length, w.word))


# ---------------------------------------------------------------------------
# Characters
# ---------------------------------------------------------------------------

class VirtualCharacter:
    """Integer-multiplicity map on dominant weights; zero terms are pruned."""

    def __init__(self, terms=None):
        self._terms = {}
        if terms:
            for w, m in terms.items():
                if m:
                    self._terms[w] = int(m)

    @classmethod
    def irreducible(cls, lam, mult=1):
        return cls({lam: mult})

    def items(self):
        return sorted(self._terms.items(), key=lambda kv: kv[0].d2)

    def mult(self, lam):
        return self._terms.get(lam, 0)

    @property
    def is_zero(self):
        return not self._terms

    def __add__(self, other):
        out = dict(self._terms)
        for w, m in other._terms.items():
            out[w] = out.get(w, 0) + m
        return VirtualCharacter(out)

    def __sub__(self, other):
        out = dict(self._terms)
        for w, m in other._terms.items():
            out[w] = out.get(w, 0) - m
        return VirtualCharacter(out)

    def __neg__(self):
        return VirtualCharacter({w: -m for w, m in self._terms.items()})

    def scale(self, c):
        return VirtualCharacter({w: c * m for w, m in self._terms.items()})

    def __eq__(self, other):
        return isinstance(other, VirtualCharacter) and self._terms == other._terms

    def __repr__(self):
        if not self._terms:
            return "VirtualCharacter(0)"
        bits = ["%+d*V%s" % (m, tuple(str(c) for c in w.fw)) for w, m in self.items()]
        return "VirtualCharacter(%s)" % " ".join(bits)

    def dimension(self, sub):
        return sum(m * weyl_dimension(sub, w) for w, m in self._terms.items())

    def dual(self, sub):
        """Contragredient: V_lam -> V_{-w0 lam}."""
        out = {}
        for w, m in self._terms.items():
            d = sub.dominant_representative(-w)
            out[d] = out.get(d, 0) + m
        return VirtualCharacter(out)

    def negatives(self):
        return [(w, m) for w, m in self.items() if m < 0]


def weyl_dimension(sub, lam):
    """Weyl dimension formula for the subsystem, evaluated exactly."""
    if not sub.is_dominant(lam):
        raise InputError("weight %r is not dominant for the subsystem" % (lam,))
    # doubled pairings: the factor 2 per root cancels in num / den
    rho2 = sub.rho.d2
    shifted = tuple(map(add, lam.d2, rho2))
    num = den = 1
    for v in sub._coroots:
        num *= sum(map(mul, v, shifted))
        den *= sum(map(mul, v, rho2))
    val, rem = divmod(num, den)
    if rem or val <= 0:
        raise ConsistencyError("Weyl dimension came out as %s" % (F(num, den),))
    return val


def weyl_orbit(sub, lam):
    """The Weyl orbit of a weight, as a list."""
    seen = {lam.d2}
    frontier = [lam.d2]
    while frontier:
        nxt = []
        for w in frontier:
            for i in range(sub.rank):
                r = sub._reflect2(w, i)
                if r not in seen:
                    seen.add(r)
                    nxt.append(r)
        frontier = nxt
    return [_weight_of(t) for t in sorted(seen)]


def freudenthal_multiplicities(sub, lam):
    """Dominant weight multiplicities of the irreducible with highest weight lam.

    Freudenthal's recursion; candidates are pruned by the exact norm bound
    (mu, mu) <= (lam, lam), so no cutoff is ever needed.
    """
    if not sub.is_dominant(lam):
        raise InputError("highest weight must be dominant")
    rs = sub.rs
    norm_lam = rs.bilinear(lam, lam)
    # collect dominant candidates lam - (sum of positive subsystem roots)
    candidates = {lam}
    frontier = [lam]
    while frontier:
        nxt = []
        for mu in frontier:
            for r in sub.positive_roots:
                nu = mu - rs.root_fw(r)
                if nu in candidates:
                    continue
                if rs.bilinear(nu, nu) > norm_lam:
                    continue
                candidates.add(nu)
                nxt.append(nu)
        frontier = nxt
    dominants = [mu for mu in candidates if sub.is_dominant(mu)]
    # height relative to the subsystem orders the recursion
    def depth(mu):
        return rs.bilinear(lam - mu, sub.rho.scale(2))

    dominants.sort(key=lambda mu: (depth(mu), mu.d2))
    mults = {}
    table = {}

    def mult_of(nu):
        d = sub.dominant_representative(nu)
        return table.get(d, 0)

    shifted_lam = lam + sub.rho
    denom_base = rs.bilinear(shifted_lam, shifted_lam)
    for mu in dominants:
        if mu == lam:
            table[mu] = 1
            mults[mu] = 1
            continue
        total = F(0)
        for r in sub.positive_roots:
            rfw = rs.root_fw(r)
            k = 1
            while True:
                nu = mu + rfw.scale(k)
                if rs.bilinear(nu, nu) > norm_lam:
                    break
                m = mult_of(nu)
                if m:
                    total += m * rs.bilinear(nu, rfw)
                k += 1
        shifted_mu = mu + sub.rho
        denom = denom_base - rs.bilinear(shifted_mu, shifted_mu)
        if denom == 0:
            continue  # not actually a weight of V_lam
        val = 2 * total / denom
        if val.denominator != 1 or val < 0:
            raise ConsistencyError("Freudenthal produced %r at %r" % (val, mu))
        if val:
            table[mu] = int(val)
            mults[mu] = int(val)
    return mults


def irreducible_weights(sub, lam):
    """All weights of V_lam with multiplicities (Weyl-orbit expansion)."""
    out = {}
    for mu, m in freudenthal_multiplicities(sub, lam).items():
        for nu in weyl_orbit(sub, mu):
            out[nu] = out.get(nu, 0) + m
    return out


def decompose_character(sub, weights):
    """Decompose a Weyl-invariant weight multiset into irreducible characters.

    Leading-term subtraction: repeatedly take a maximal weight (which must
    be dominant if the input is Weyl-invariant), subtract its full character,
    record the multiplicity.  The result reconstructs the input exactly.
    """
    if not isinstance(weights, dict):
        acc = {}
        for w in weights:
            acc[w] = acc.get(w, 0) + 1
        weights = acc
    remaining = {w: m for w, m in weights.items() if m}
    rs = sub.rs
    two_rho = sub.rho.scale(2)

    def height(w):
        return rs.bilinear(w, two_rho)

    out = {}
    guard = 0
    while remaining:
        guard += 1
        if guard > 10000:
            raise ConsistencyError("decomposition did not terminate")
        top = max(remaining, key=lambda w: (height(w), w.d2))
        if not sub.is_dominant(top):
            raise ConsistencyError("maximal weight %r is not dominant; input is "
                                   "not Weyl-invariant" % (top,))
        m = remaining[top]
        out[top] = out.get(top, 0) + m
        for nu, mult in irreducible_weights(sub, top).items():
            new = remaining.get(nu, 0) - m * mult
            if new:
                remaining[nu] = new
            else:
                remaining.pop(nu, None)
    return VirtualCharacter(out)


# ---------------------------------------------------------------------------
# Kostant partition function
# ---------------------------------------------------------------------------

def kostant_partition(rs, mu, gens):
    """Number of ways to write mu as a nonnegative integer combination of gens.

    gens is a multiset of weights, each of which must have positive height in
    root coordinates (true for the positive-root multisets this package
    feeds in); that makes the count finite and the recursion terminate.
    """
    # root coordinates scaled by the same positive integer 2 det(cartan), so
    # the recursion runs on ints and floor(h / gh) is unchanged
    gen_coords = []
    for g in gens:
        rc = rs._root_num(g)
        h = sum(rc)
        if h <= 0:
            raise InputError("kostant_partition needs generators of positive height")
        gen_coords.append((rc, h))
    memo = {}

    def count(t, i):
        if not any(t):
            return 1
        if i == len(gen_coords):
            return 0
        h = sum(t)
        if h < 0:
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

    return count(rs._root_num(mu), 0)


# ---------------------------------------------------------------------------
# JSON encoding of weights
# ---------------------------------------------------------------------------

def weight_to_json(lam, basis="fw", rs=None):
    if basis == "fw":
        coords = lam.fw
    elif basis == "root":
        if rs is None:
            raise InputError("root-basis encoding needs the root system")
        coords = rs.root_coords_of_weight(lam)
    else:
        raise InputError("unknown basis %r" % (basis,))
    enc = [int(c) if c.denominator == 1 else "%d/%d" % (c.numerator, c.denominator)
           for c in map(F, coords)]
    return {"basis": basis, "coords": enc}


def weight_from_json(data, rs=None):
    try:
        basis = data["basis"]
        coords = [F(c) if isinstance(c, int) else F(str(c)) for c in data["coords"]]
    except (KeyError, TypeError, ValueError) as exc:
        raise InputError("malformed weight encoding: %r" % (data,)) from exc
    if basis == "fw":
        return Weight(tuple(coords))
    if basis == "root":
        if rs is None:
            raise InputError("root-basis decoding needs the root system")
        return rs.weight_from_root_coords(coords)
    raise InputError("unknown basis %r" % (basis,))
