"""Exact root-system, weight-lattice and Weyl-group combinatorics.

Classical types A, B, C, D and G2 in the Bourbaki simple-root ordering:

    A_n : alpha_i = e_i - e_{i+1}
    B_n : alpha_i = e_i - e_{i+1} (i < n), alpha_n = e_n          (short last)
    C_n : alpha_i = e_i - e_{i+1} (i < n), alpha_n = 2 e_n        (long last)
    D_n : alpha_i = e_i - e_{i+1} (i < n), alpha_n = e_{n-1}+e_n
    G2  : alpha_1 short, alpha_2 long

Roots are stored in simple-root coordinates (integers), weights in
fundamental-weight coordinates (exact rationals).  The Cartan matrix
convention is cartan[i][j] = <alpha_j, alpha_i^vee>, so the degree of a
root c under the i-th simple coroot is the i-th entry of cartan . c.
All arithmetic is exact.
"""

from dataclasses import dataclass
from fractions import Fraction

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


@dataclass(frozen=True)
class Weight:
    """A weight in fundamental-weight coordinates (exact rationals)."""

    fw: tuple

    def __add__(self, other):
        return Weight(tuple(a + b for a, b in zip(self.fw, other.fw)))

    def __sub__(self, other):
        return Weight(tuple(a - b for a, b in zip(self.fw, other.fw)))

    def __neg__(self):
        return Weight(tuple(-a for a in self.fw))

    def scale(self, c):
        c = F(c)
        return Weight(tuple(c * a for a in self.fw))

    @property
    def is_zero(self):
        return not any(self.fw)


def weight(*coords):
    return Weight(tuple(F(c) for c in coords))


def zero_weight(rank):
    return Weight((F(0),) * rank)


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


def _invert(matrix):
    n = len(matrix)
    aug = [[F(matrix[i][j]) for j in range(n)] + [F(1) if j == i else F(0) for j in range(n)]
           for i in range(n)]
    for c in range(n):
        piv = next(i for i in range(c, n) if aug[i][c])
        aug[c], aug[piv] = aug[piv], aug[c]
        inv = aug[c][c]
        aug[c] = [x / inv for x in aug[c]]
        for i in range(n):
            if i != c and aug[i][c]:
                f = aug[i][c]
                aug[i] = [x - f * y for x, y in zip(aug[i], aug[c])]
    return [tuple(row[n:]) for row in aug]


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
        self._cartan_inv = _invert(self.cartan_matrix)
        # Gram matrix of the simple roots: (a_i, a_j) = d_i * cartan[i][j].
        self._gram = [tuple(self._d[i] * self.cartan_matrix[i][j] for j in range(rank))
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
        return Weight(tuple(F(sum(self.cartan_matrix[i][j] * root.coords[j]
                                  for j in range(self.rank)))
                            for i in range(self.rank)))

    def root_coords_of_weight(self, lam):
        """Exact rational coordinates of a weight over the simple roots."""
        return tuple(sum(self._cartan_inv[i][j] * lam.fw[j] for j in range(self.rank))
                     for i in range(self.rank))

    def weight_from_root_coords(self, coords):
        return Weight(tuple(F(sum(self.cartan_matrix[i][j] * F(coords[j])
                                  for j in range(self.rank)))
                            for i in range(self.rank)))

    def bilinear(self, lam, mu):
        """The W-invariant form, normalized by (a_i, a_i) = 2 d_i."""
        r1 = self.root_coords_of_weight(lam)
        r2 = self.root_coords_of_weight(mu)
        total = F(0)
        for i in range(self.rank):
            if r1[i]:
                for j in range(self.rank):
                    if r2[j]:
                        total += r1[i] * self._gram[i][j] * r2[j]
        return total

    def coroot_vector(self, root):
        """Vector v with <lam, root^vee> = sum v_i lam.fw[i]."""
        if root.coords in self._coroot_cache:
            return self._coroot_cache[root.coords]
        c = root.coords
        norm_half = F(0)
        for i in range(self.rank):
            if c[i]:
                for j in range(self.rank):
                    if c[j]:
                        norm_half += c[i] * self._gram[i][j] * c[j]
        norm_half /= 2
        v = tuple(F(c[j]) * self._d[j] / norm_half for j in range(self.rank))
        self._coroot_cache[root.coords] = v
        return v

    def pairing(self, lam, root):
        """<lam, root^vee>, exact (integer on the weight lattice)."""
        if not self.is_root(root):
            raise InputError("not a root of %s%d: %r" % (self.type_label, self.rank, root))
        v = self.coroot_vector(root)
        val = sum(a * b for a, b in zip(v, lam.fw))
        return int(val) if val.denominator == 1 else val

    def reflect(self, lam, root):
        val = sum(a * b for a, b in zip(self.coroot_vector(root), lam.fw))
        return lam - self.root_fw(root).scale(val)

    def rho(self):
        return Weight((F(1),) * self.rank)


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
        half = F(1, 2)
        rho = zero_weight(rs.rank)
        for r in self.positive_roots:
            rho = rho + rs.root_fw(r)
        self.rho = rho.scale(half)
        self._simple_coroots = tuple(rs.coroot_vector(b) for b in self.simple_roots)
        self._simple_fw = tuple(rs.root_fw(b) for b in self.simple_roots)

    @property
    def rank(self):
        return len(self.simple_roots)

    def simple_pairing(self, lam, i):
        return sum(a * b for a, b in zip(self._simple_coroots[i], lam.fw))

    def reflect_simple(self, lam, i):
        val = self.simple_pairing(lam, i)
        return lam - self._simple_fw[i].scale(val)

    def is_dominant(self, lam):
        return all(self.simple_pairing(lam, i) >= 0 for i in range(self.rank))

    def dominant_representative(self, lam):
        """The unique dominant weight in the Weyl orbit of lam."""
        cur = lam
        moved = True
        while moved:
            moved = False
            for i in range(self.rank):
                if self.simple_pairing(cur, i) < 0:
                    cur = self.reflect_simple(cur, i)
                    moved = True
        return cur

    def apply(self, w, lam):
        """Action of a WeylElement: s_{w[0]} s_{w[1]} ... applied to lam."""
        cur = lam
        for i in reversed(w.word):
            cur = self.reflect_simple(cur, i)
        return cur


def full_subsystem(rs):
    return Subsystem(rs, rs.positive_roots)


def make_dominant(sub, lam):
    """Bott regularization step for lam relative to the subsystem.

    Returns (w, lam_dom, singular).  If lam + rho_sub lies on a wall,
    singular is True.  Otherwise w is the unique element with
    w(lam + rho_sub) strictly dominant and lam_dom = w(lam+rho) - rho.
    """
    mu = lam + sub.rho
    word = []
    moved = True
    while moved:
        moved = False
        for i in range(sub.rank):
            v = sub.simple_pairing(mu, i)
            if v < 0:
                mu = sub.reflect_simple(mu, i)
                word.append(i)
                moved = True
    if any(sub.simple_pairing(mu, i) == 0 for i in range(sub.rank)):
        return WeylElement(tuple(word)), None, True
    word.reverse()  # recorded right-to-left; apply() composes left on top
    return WeylElement(tuple(word)), mu - sub.rho, False


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
    seen = {sub.rho.fw: identity}
    frontier = [(identity, sub.rho)]
    while frontier:
        nxt = []
        for w, img in frontier:
            for i in range(sub.rank):
                cand_img = sub.reflect_simple(img, i)
                if cand_img.fw not in seen:
                    cand = WeylElement((i,) + w.word)
                    seen[cand_img.fw] = cand
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
        return sorted(self._terms.items(), key=lambda kv: kv[0].fw)

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
    num = F(1)
    den = F(1)
    shifted = lam + sub.rho
    for r in sub.positive_roots:
        v = sub.rs.coroot_vector(r)
        num *= sum(a * b for a, b in zip(v, shifted.fw))
        den *= sum(a * b for a, b in zip(v, sub.rho.fw))
    val = num / den
    if val.denominator != 1 or val <= 0:
        raise ConsistencyError("Weyl dimension came out as %r" % (val,))
    return int(val)


def weyl_orbit(sub, lam):
    """The Weyl orbit of a weight, as a list."""
    seen = {lam.fw}
    frontier = [lam]
    while frontier:
        nxt = []
        for w in frontier:
            for i in range(sub.rank):
                r = sub.reflect_simple(w, i)
                if r.fw not in seen:
                    seen.add(r.fw)
                    nxt.append(r)
        frontier = nxt
    return [Weight(t) for t in sorted(seen)]


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
    candidates = {lam.fw}
    frontier = [lam]
    while frontier:
        nxt = []
        for mu in frontier:
            for r in sub.positive_roots:
                nu = mu - rs.root_fw(r)
                if nu.fw in candidates:
                    continue
                if rs.bilinear(nu, nu) > norm_lam:
                    continue
                candidates.add(nu.fw)
                nxt.append(nu)
        frontier = nxt
    dominants = [Weight(t) for t in candidates if sub.is_dominant(Weight(t))]
    # height relative to the subsystem orders the recursion
    def depth(mu):
        return rs.bilinear(lam - mu, sub.rho.scale(2))

    dominants.sort(key=lambda mu: (depth(mu), mu.fw))
    mults = {}
    table = {}

    def mult_of(nu):
        d = sub.dominant_representative(nu)
        return table.get(d.fw, 0)

    shifted_lam = lam + sub.rho
    denom_base = rs.bilinear(shifted_lam, shifted_lam)
    for mu in dominants:
        if mu == lam:
            table[mu.fw] = 1
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
            table[mu.fw] = int(val)
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
        top = max(remaining, key=lambda w: (height(w), w.fw))
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
    gen_coords = []
    for g in gens:
        rc = rs.root_coords_of_weight(g)
        h = sum(rc)
        if h <= 0:
            raise InputError("kostant_partition needs generators of positive height")
        gen_coords.append((rc, h))
    target = rs.root_coords_of_weight(mu)
    memo = {}

    def count(t, i):
        if all(x == 0 for x in t):
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
        kmax = int(h // gh)
        cur = t
        for k in range(kmax + 1):
            total += count(cur, i + 1)
            cur = tuple(x - y for x, y in zip(cur, g))
        memo[key] = total
        return total

    return count(tuple(F(x) for x in target), 0)


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
