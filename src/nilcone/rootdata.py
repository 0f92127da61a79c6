"""Exact root-system, weight-lattice and Weyl-group combinatorics.

Classical types A, B, C, D and G2, each given by one table of Euclidean
simple roots in the Bourbaki ordering (Lie Groups and Lie Algebras,
ch. VI, plates I-IX):

    A_n : alpha_i = e_i - e_{i+1}                     (in R^{n+1})
    B_n : alpha_i = e_i - e_{i+1} (i < n), alpha_n = e_n          (short last)
    C_n : alpha_i = e_i - e_{i+1} (i < n), alpha_n = 2 e_n        (long last)
    D_n : alpha_i = e_i - e_{i+1} (i < n), alpha_n = e_{n-1}+e_n
    G2  : alpha_1 = e_1 - e_2 (short), alpha_2 = -2 e_1 + e_2 + e_3 (long)

Everything else is read off that table: the Cartan matrix
cartan[i][j] = <alpha_j, alpha_i^vee> = 2 (alpha_j, alpha_i) / (alpha_i, alpha_i),
the coroot of every root (an exact int division) and the Euclidean
coordinates of each root, off which nilcone.oracle reads its matrix
model's root vectors.

Roots are stored in simple-root coordinates (integers).  A weight is stored
as the int tuple ``d2`` of twice its fundamental-weight coordinates: the
weights met here are half-integral at worst (rho_K of su(2,1) is), so
doubling keeps every coordinate an integer.  ``Weight.fw`` reads the exact
rationals back.  The degree of a root c under the i-th simple coroot is
the i-th entry of cartan . c.  Coroots lie in the
coroot lattice, so every pairing, reflection, dominance test, Weyl
enumeration and Weyl dimension runs on ints, as does _phi, a linear form in
root coordinates: an int vector on d2, from the inverse Cartan matrix times
its least common denominator (nilcone.linalg.inverse).

Every Weyl-group action runs on packed weights (_Packing): the sweeps into
the dominant chamber (make_dominant, dominant_representative, each table
miss of the Bott sum in nilcone.bott), the Weyl-word BFS and the Blattner
walk of nilcone.series; the partition counter packs its remainders too.
A packed weight is one int whose fixed-width slots hold a weight's doubled
pairings with the simple coroots of a subsystem and its d2 coordinates.  A
simple reflection is one int update and a negative pairing is a clear top
bit of its slot.  nilcone.bott and nilcone.series pack their weights with
the same layout, and a VirtualCharacter holds its terms in it from the
moment it is built; a weight is unpacked only when a caller reads one.
"""

import struct
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from operator import add, mul, neg, sub as minus

from . import linalg as la
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


def _simple_roots(type_label, n):
    """The Euclidean simple roots of the module docstring, as int tuples."""
    if type_label == "G2":
        return ((1, -1, 0), (-2, 1, 1))
    last = {"A": {n - 1: 1, n: -1}, "B": {n - 1: 1}, "C": {n - 1: 2},
            "D": {n - 2: 1, n - 1: 1}}[type_label]
    terms = [{i: 1, i + 1: -1} for i in range(n - 1)] + [last]
    dim = n + 1 if type_label == "A" else n
    return tuple(tuple(t.get(k, 0) for k in range(dim)) for t in terms)


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
        self._simple_e = _simple_roots(type_label, rank)
        gram = [[sum(map(mul, a, b)) for b in self._simple_e] for a in self._simple_e]
        # cartan[i][j] = 2 (alpha_j, alpha_i) / (alpha_i, alpha_i), exact by the table
        self.cartan_matrix = [tuple(2 * x // row[i] for x in row)
                              for i, row in enumerate(gram)]
        # root coordinates of lam are (adj . lam.d2) / (2 den), cartan^-1 = adj / den
        self._adj = la.inverse(self.cartan_matrix)[0]
        self.positive_roots = self._generate_positive_roots()
        self.simple_roots = self.positive_roots[: rank]
        expected = _POSITIVE_COUNTS[type_label](rank)
        if len(self.positive_roots) != expected:
            raise ConsistencyError("positive root count %d != %d for %s%d"
                                   % (len(self.positive_roots), expected, type_label, rank))
        self._all_roots = self.positive_roots + tuple(-r for r in self.positive_roots)
        # root^vee = sum_j c_j (alpha_j, alpha_j) / (alpha, alpha) alpha_j^vee
        self._coroots = {}
        for r in self._all_roots:
            norm = sum(x * x for x in self._e_coords(r))
            v = [divmod(c * gram[j][j], norm) for j, c in enumerate(r.coords)]
            if any(rem for _, rem in v):
                raise ConsistencyError("coroot of %r is not integral" % (r,))
            self._coroots[r.coords] = tuple(q for q, _ in v)

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
                    p, c = 0, list(root.coords)
                    c[i] -= 1
                    while tuple(c) in known:
                        p += 1
                        c[i] -= 1
                    pairing = sum(self.cartan_matrix[i][j] * root.coords[j] for j in range(n))
                    if p - pairing > 0:
                        t = root.coords[:i] + (root.coords[i] + 1,) + root.coords[i + 1:]
                        if t not in known:
                            known.add(t)
                            by_height.setdefault(h + 1, []).append(Root(t))
            h += 1
        out = list(simple)  # simple roots first, in index order
        for hh in sorted(by_height)[1:]:
            out.extend(sorted(by_height[hh], key=lambda r: r.coords))
        return tuple(out)

    # -- membership and conversions -------------------------------------------------

    def is_root(self, root):
        return root.coords in self._coroots

    def all_roots(self):
        """The positive roots, then their negatives: one tuple, built once."""
        return self._all_roots

    def root_fw(self, root):
        """Fundamental-weight coordinates of a root (fw_i = <root, a_i^vee>)."""
        return _weight_of(tuple(2 * x for x in self._fw_of_root(root)))

    def _fw_of_root(self, root):
        """The fw coordinates of a root, as an int tuple (not doubled)."""
        c = root.coords
        return tuple(sum(map(mul, row, c)) for row in self.cartan_matrix)

    def _e_coords(self, root):
        """Euclidean coordinates sum c_i alpha_i of a root (module docstring)."""
        return tuple(sum(map(mul, root.coords, col)) for col in zip(*self._simple_e))

    def coroot_vector(self, root):
        """Int vector v with <lam, root^vee> = sum v_i lam.fw[i].

        Coroots lie in the coroot lattice, so v is integral and
        2 <lam, root^vee> = sum v_i lam.d2[i] is an integer.
        """
        try:
            return self._coroots[root.coords]
        except KeyError:
            raise InputError("not a root of %s%d: %r"
                             % (self.type_label, self.rank, root)) from None

    def pairing(self, lam, root):
        """<lam, root^vee>, exact (an int whenever it is integral)."""
        v2 = sum(map(mul, self.coroot_vector(root), lam.d2))
        return v2 // 2 if v2 % 2 == 0 else F(v2, 2)


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
    """Reduced word in the simple reflections of a subsystem: the element
    s_{word[0]} s_{word[1]} ..., so word[-1] acts first."""

    word: tuple

    @property
    def length(self):
        return len(self.word)


class Subsystem:
    """A closed subsystem with the positive system inherited from the ambient one.

    Used both for the full system and for the root system of K; most
    character-level operations (dominance, Bott, Weyl dimension) are relative
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
        sums = {tuple(map(add, a.coords, b.coords))
                for a in self.positive_roots for b in self.positive_roots}
        if any(s in rs._coroots and s not in pos_set for s in sums):
            raise ConsistencyError("subsystem not closed under addition")
        self.simple_roots = tuple(r for r in self.positive_roots if r.coords not in sums)
        # 2 rho_sub is the sum of the positive roots, so rho_sub.d2 is that sum in fw
        rho2 = (0,) * rs.rank
        for r in self.positive_roots:
            rho2 = tuple(map(add, rho2, rs._fw_of_root(r)))
        self.rho = _weight_of(rho2)
        # int coroot vectors (see RootSystem.coroot_vector) and fw of the roots
        self._simple_coroots = tuple(rs.coroot_vector(b) for b in self.simple_roots)
        self._simple_fw = tuple(rs._fw_of_root(b) for b in self.simple_roots)
        self._coroot_coeffs = self._simple_coroot_coefficients()
        # the Weyl denominator on doubled pairings: rho_sub pairs to 1 with
        # each simple coroot, so to sum(c) with the coroot of coefficients c
        self._weyl_den = 1
        for c in self._coroot_coeffs:
            self._weyl_den *= 2 * sum(c)
        # the height of G's highest coroot, the factor of _packing's slot
        # bound, and the packings made so far, by slot width
        self._coroot_height = max(sum(rs.coroot_vector(r)) for r in rs.positive_roots)
        self._packings = {}

    @property
    def rank(self):
        return len(self.simple_roots)

    def _simple_coroot_coefficients(self):
        """Each positive coroot beta^vee over the simple coroots, as an int
        tuple, in the order of positive_roots.

        A non-simple positive beta has a simple beta_i with
        <beta, beta_i^vee> > 0, and s_i beta is a positive root of lower
        height, so listed earlier; beta^vee = (s_i beta)^vee
        + <beta_i, beta^vee> beta_i^vee.
        """
        rs = self.rs
        n = self.rank
        simple = {b.coords: i for i, b in enumerate(self.simple_roots)}
        coeffs = {}
        for r in self.positive_roots:
            i = simple.get(r.coords)
            if i is not None:
                coeffs[r.coords] = tuple(int(j == i) for j in range(n))
                continue
            fw = rs._fw_of_root(r)
            pairings = [sum(map(mul, u, fw)) for u in self._simple_coroots]
            i = next(i for i, p in enumerate(pairings) if p > 0)
            lower = tuple(x - pairings[i] * y
                          for x, y in zip(r.coords, self.simple_roots[i].coords))
            c = list(coeffs[lower])
            # <beta_i, beta^vee>
            c[i] += sum(map(mul, rs.coroot_vector(r), self._simple_fw[i]))
            coeffs[r.coords] = tuple(c)
        return tuple(coeffs[r.coords] for r in self.positive_roots)

    def is_dominant(self, lam):
        d2 = lam.d2
        return all(sum(map(mul, v, d2)) >= 0 for v in self._simple_coroots)

    def dominant_representative(self, lam):
        """The unique dominant weight in the Weyl orbit of lam."""
        packing = _packing(self, _reach([lam.d2]))
        q = packing.sweep(packing.pack(lam.d2) + packing.zero)[0]
        return _weight_of(packing.unpack(q))


def make_dominant(sub, lam):
    """Bott regularization step for lam relative to the subsystem.

    Returns (w, lam_dom, singular).  If lam + rho_sub lies on a wall,
    singular is True.  Otherwise w is the unique element with
    w(lam + rho_sub) strictly dominant and lam_dom = w(lam+rho) - rho.
    """
    packing = _packing(sub, _reach([lam.d2]))
    q, word = packing.sweep(packing.pack(lam.d2) + packing.bias)
    if packing.on_wall(q):
        return WeylElement(tuple(word)), None, True
    word.reverse()  # recorded in the order applied; a word lists the last first
    return WeylElement(tuple(word)), _weight_of(packing.unpack(q)), False


# ---------------------------------------------------------------------------
# Packed weights
# ---------------------------------------------------------------------------

_FORMATS = {8: "b", 16: "h", 32: "i", 64: "q"}


def _width(bound):
    """The least power of two W >= 8 with bound < 2^(W-1)."""
    width = 8
    while bound >= 1 << (width - 1):
        width *= 2
    return width


class _Packing:
    """Weights of a rank-r root system as single ints, W-bit slots low first.

    pack(d2) is linear: slot i < len(coroots) holds the dot product of d2
    with coroots[i], slot len(coroots) holds 0 and slot len(coroots) + 1 + j
    holds d2[j].  Adding zero puts 2^(W-1) in each pairing and d2 slot and W
    in the middle slot; a slot value v with |v| < 2^(W-1) is then the W-bit
    digit v + 2^(W-1), and the top bit of a pairing digit is clear exactly
    when the pairing is negative.  bias is zero plus 2 in each pairing slot,
    rho_sub's doubled pairing: pack(lam.d2) + bias holds the pairings of
    lam + rho_sub and the coordinates of lam.  The caller picks W so that
    every slot value it packs is below 2^(W-1) in absolute value (_width of
    its bound; see _packing).  table, the Bott sum's regularization table
    (see regularize), lives with the packing: every Bott sum on the packing
    shares it, and each packing of a subsystem keeps its own.

    With fws, the fundamental-weight coordinates of the simple roots beta_i
    whose coroots are coroots, the simple reflection s_i acts on a packed
    weight q as q - p_i pack(fw(beta_i)), p_i read off slot i: packing is
    linear, and s_i moves d2 by -p_i fw(beta_i) and pairing j by
    -p_i <beta_i, beta_j^vee>.
    """

    def __init__(self, rank, width, coroots=(), fws=()):
        half = 1 << (width - 1)
        nk = len(coroots)
        self.width = width
        self.table = {}
        self._half, self._digit = half, (1 << width) - 1
        self.key_mask = (1 << (width * (nk + 1))) - 1
        self._units = [sum(v[j] << (width * i) for i, v in enumerate(coroots))
                       + (1 << (width * (nk + 1 + j))) for j in range(rank)]
        self._tops = sum(half << (width * i) for i in range(nk))
        self.zero = (self._tops + (width << (width * nk))
                     + sum(half << (width * (nk + 1 + j)) for j in range(rank)))
        self.bias = self.zero + sum(2 << (width * i) for i in range(nk))
        # the sweep: s_i as (shift of slot i, pack(fw(beta_i))); the top
        # bits of the pairing slots above slot i; slot i by its top bit
        self._reflections = [(width * i, self.pack(fw)) for i, fw in enumerate(fws)]
        self._above = [self._tops >> (width * (i + 1)) << (width * (i + 1))
                       for i in range(nk)]
        self._slot = {half << (width * i): i for i in range(nk)}
        self._walls = self._tops + sum(1 << (width * i) for i in range(nk))
        self._pairings_mask = (1 << (width * nk)) - 1
        self._d2_at = width * (nk + 1)
        self._signs = sum(half << (width * j) for j in range(rank))
        self._d2_slots = self._slots_reader(rank)
        self._pairing_slots = self._slots_reader(nk)

    def _slots_reader(self, count):
        """(number of bytes, struct or None) reading count W-bit slots."""
        fmt = _FORMATS.get(self.width)
        return (count * self.width // 8,
                struct.Struct("<%d%s" % (count, fmt)) if fmt else None)

    def _signed(self, x, slots):
        """The W-bit slots of x (of the given reader) as signed ints."""
        nbytes, reader = slots
        raw = x.to_bytes(nbytes, "little")
        if reader is not None:
            return reader.unpack(raw)
        n = self.width // 8
        return tuple(int.from_bytes(raw[i:i + n], "little", signed=True)
                     for i in range(0, nbytes, n))

    def pack(self, d2):
        return sum(map(mul, d2, self._units))

    def unpack(self, t):
        """The d2 tuple of a biased packed weight t.  XOR with the sign
        mask turns each digit v + 2^(W-1) into v as a signed W-bit int."""
        return self._signed((t >> self._d2_at) ^ self._signs, self._d2_slots)

    def pairings(self, t):
        """The doubled pairings <lam + rho_sub, beta_i^vee> of a biased
        packed weight t, read off its pairing slots as unpack reads d2."""
        return self._signed((t & self._pairings_mask) ^ self._tops,
                            self._pairing_slots)

    def reflect(self, q, i):
        """s_i of the biased packed weight q."""
        shift, root = self._reflections[i]
        return q - (((q >> shift) & self._digit) - self._half) * root

    def sweep(self, q):
        """Reflect the biased packed weight q into the dominant chamber.

        Each pass reflects, in ascending i, every s_i whose pairing is
        negative when its turn comes, until a pass finds none.  Returns the
        dominant image and the reflections in order: l(w) of them unless
        the image lies on a wall.  Every weight met is w'(lam + rho_sub) for
        some w' in the Weyl group, so _packing's slot bound covers it.  Only
        the pairing slots are read, so the slots above them may be any int
        (those of a key are 0) and may carry: packing is linear over Z.
        """
        word = []
        reflections, above, slot = self._reflections, self._above, self._slot
        digit, half = self._digit, self._half
        negative = self._tops & ~q
        while negative:
            while negative:
                i = slot[negative & -negative]
                shift, root = reflections[i]  # reflect(q, i), inlined
                q -= (((q >> shift) & digit) - half) * root
                word.append(i)
                negative = above[i] & ~q
            negative = self._tops & ~q
        return q, word

    def on_wall(self, q):
        """True when a pairing of the swept (dominant) q is 0: with every
        digit v + 2^(W-1), v >= 0, subtracting 2^(W-1) + 1 per slot borrows
        into a top bit exactly from the lowest slot with v = 0."""
        return bool(((q & self._pairings_mask) - self._walls) & self._tops)

    def regularize(self, key):
        """The table entry of a pairing key of the Bott sum: one int,
        (w.lam - lam packed) << 1 | l(w) % 2, or None when lam + rho_sub
        lies on a wall."""
        q, word = self.sweep(key)
        if self.on_wall(q):
            return None
        return (q - key) << 1 | len(word) & 1


def _reach(d2s):
    """The largest absolute entry of the d2 tuples d2s (0 for none)."""
    return max((abs(x) for d2 in d2s for x in d2), default=0)


def _packing(sub, reach):
    """The packing of the subsystem for weights lam + rho_sub whose lam has
    d2 entries at most reach in absolute value, made once per slot width.

    Every d2 entry of w(lam + rho_sub), w in the Weyl group, and every
    pairing with a simple coroot is the pairing of lam + rho_sub with a
    coroot of G, so at most the height of the highest coroot times the
    largest d2 entry of lam + rho_sub; that bounds every slot, the dominant
    terms and every weight a sweep passes through included.
    """
    rho = _reach([sub.rho.d2])
    width = _width(sub._coroot_height * (reach + rho) + rho)
    try:
        return sub._packings[width]
    except KeyError:
        packing = sub._packings[width] = _Packing(
            sub.rs.rank, width, sub._simple_coroots, sub._simple_fw)
        return packing


_MATERIALIZE_LIMIT = 10 ** 6


def weyl_elements(sub):
    """All Weyl group elements of the subsystem as reduced words, sorted by
    (length, word).

    BFS over simple reflections, deduplicated by the action on rho_sub.
    Each frontier element carries its image of rho_sub, packed (the bias of
    _packing(sub, 0): lam = 0), so the candidate s_i w costs one simple
    reflection of the parent's image (Casselman, "Computation in Coxeter
    groups I", Electron. J. Combin. 2002) and the dict is keyed on one int.
    Groups with more than 10^6 elements are never materialized.
    """
    packing = _packing(sub, 0)
    reflect = packing.reflect
    identity = WeylElement(())
    seen = {packing.bias: identity}
    frontier = [(identity, packing.bias)]
    while frontier:
        nxt = []
        for w, img in frontier:
            for i in range(sub.rank):
                cand_img = reflect(img, i)
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
    """Integer-multiplicity map on dominant weights, held packed.

    The terms are biased packed weights of a _Packing of a subsystem
    (pairing slots holding the doubled pairings of lam + rho_sub), each
    with its nonzero multiplicity, from the moment the character is built
    (the Bott sum and line_cohomology in nilcone.bott).  The dict of
    Weights is built on the first read of a weight (items, mult, ==,
    repr); negation, negatives() and dimension() read the packed ints, and
    negatives() unpacks only the negative terms.
    """

    def __init__(self, packing, packed):
        """packed, a dict of nonzero ints keyed by biased packed weights of
        packing, is taken over unchecked."""
        self._packing, self._packed = packing, packed

    @cached_property
    def _terms(self):
        """The terms as a dict Weight -> multiplicity, unpacked once."""
        unpack = self._packing.unpack
        return {_weight_of(unpack(q)): m for q, m in self._packed.items()}

    def items(self):
        return sorted(self._terms.items(), key=lambda kv: kv[0].d2)

    def mult(self, lam):
        return self._terms.get(lam, 0)

    def __neg__(self):
        return VirtualCharacter(self._packing, {q: -m for q, m in self._packed.items()})

    def __eq__(self, other):
        return isinstance(other, VirtualCharacter) and self._terms == other._terms

    def __repr__(self):
        if not self._packed:
            return "VirtualCharacter(0)"
        bits = ["%+d*V%s" % (m, tuple(str(c) for c in w.fw)) for w, m in self.items()]
        return "VirtualCharacter(%s)" % " ".join(bits)

    def dimension(self, sub):
        """Sum of multiplicity times Weyl dimension over the subsystem,
        which must own the character's packing: each term's doubled
        pairings with the simple coroots are read off its pairing slots
        (_weyl_product takes them as they are), with no Weight built."""
        packing = self._packing
        if sub._packings.get(packing.width) is not packing:
            raise ConsistencyError("the character is not packed for this subsystem")
        pairings = packing.pairings
        return sum(m * _weyl_product(sub, pairings(q)) for q, m in self._packed.items())

    def negatives(self):
        """The terms with negative multiplicity, sorted as items() is."""
        unpack = self._packing.unpack
        return sorted(((_weight_of(unpack(q)), m)
                       for q, m in self._packed.items() if m < 0),
                      key=lambda wm: wm[0].d2)


def weyl_dimension(sub, lam):
    """Weyl dimension formula for the subsystem, evaluated exactly."""
    if not sub.is_dominant(lam):
        raise InputError("weight %r is not dominant for the subsystem" % (lam,))
    shifted = tuple(map(add, lam.d2, sub.rho.d2))
    return _weyl_product(sub, [sum(map(mul, v, shifted)) for v in sub._simple_coroots])


def _weyl_product(sub, pairings):
    """The Weyl dimension of lam from the doubled pairings of lam + rho_sub
    with sub's simple coroots: each positive coroot's pairing is expanded
    over them (Subsystem._coroot_coeffs), and the factor 2 per root cancels
    against Subsystem._weyl_den.  The quotient must be a positive integer."""
    num = 1
    for c in sub._coroot_coeffs:
        num *= sum(map(mul, c, pairings))
    val, rem = divmod(num, sub._weyl_den)
    if rem or val <= 0:
        raise ConsistencyError("Weyl dimension came out as %s" % (F(num, sub._weyl_den),))
    return val


# ---------------------------------------------------------------------------
# Kostant partition function
# ---------------------------------------------------------------------------

def _phi(rs, scale):
    """sum_i scale_i (root coordinate i) times one positive integer, as an
    int vector on d2 (see RootSystem._adj); scale 1, ..., 1 is the height."""
    return [sum(map(mul, scale, col)) for col in zip(*rs._adj)]


def kostant_partition(rs, mu, gens):
    """Number of ways to write mu as a nonnegative integer combination of
    gens, a multiset of weights: the height view of _partition_counts, so
    each generator must have positive height (InputError otherwise)."""
    return _partition_counts([g.d2 for g in gens], _phi(rs, [1] * rs.rank), [mu.d2])[0]


def _partition_counts(gens, phi, args):
    """P(a) for each d2 tuple a in args: the number of ways to write a as a
    sum of the multiset gens of d2 tuples.  phi, an int vector on d2, must
    be positive on each generator (InputError otherwise), so a partition of
    a has at most phi(a) // min phi(g) parts and a branch whose remainder
    has phi < 0 is dropped.  Remainders are packed (no coroot slots) wide
    enough for any arg minus that many generators, where packing is
    injective, so the memo, one dict per generator index keyed on the
    packed remainder, is exact."""
    steps = [sum(map(mul, phi, g)) for g in gens]
    if any(s <= 0 for s in steps):
        raise InputError("partition counting needs generators on which phi is positive")
    values = [sum(map(mul, phi, a)) for a in args]
    parts = max((v for v in values if v >= 0), default=0) // min(steps, default=1)
    pack = _Packing(len(phi), _width(_reach(args) + parts * _reach(gens))).pack
    gens = [(pack(g), s) for g, s in zip(gens, steps)]
    last = len(gens)
    memos = [{} for _ in gens]

    def count(t, f, i):
        if not t:
            return 1
        if i == last:
            return 0
        memo = memos[i]
        total = memo.get(t)
        if total is None:
            (g, s), r, total = gens[i], t, 0
            while f >= 0:
                total += count(r, f, i + 1)
                r, f = r - g, f - s
            memo[t] = total
        return total

    return [count(pack(a), v, 0) if v >= 0 else 0 for a, v in zip(args, values)]


# ---------------------------------------------------------------------------
# JSON encoding of weights
# ---------------------------------------------------------------------------

def weight_to_json(lam):
    enc = [int(c) if c.denominator == 1 else "%d/%d" % (c.numerator, c.denominator)
           for c in map(F, lam.fw)]
    return {"basis": "fw", "coords": enc}
