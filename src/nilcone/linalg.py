"""Dense linear algebra over the rationals, and rank mod a word-size prime.

Matrices are lists of lists of Fraction, vectors are lists of Fraction.
No floating point anywhere.  rref, rank, nullspace, solve and Span are
exact over Q; sizes stay small (ambient Lie algebras up to ~40 dims), so
plain Gaussian elimination is plenty.  IncrementalRank works mod PRIME: its
rank is a certified lower bound on the rank over Q of the rows it was given,
not the rank itself, and callers that need more re-rank over Q with rank.
"""

from bisect import insort
from fractions import Fraction

F = Fraction

PRIME = 2 ** 61 - 1


def frac_matrix(rows):
    return [[F(x) for x in row] for row in rows]


def zeros(nrows, ncols):
    return [[F(0)] * ncols for _ in range(nrows)]


def identity(n):
    m = zeros(n, n)
    for i in range(n):
        m[i][i] = F(1)
    return m


def mat_add(a, b):
    return [[x + y for x, y in zip(ra, rb)] for ra, rb in zip(a, b)]


def mat_sub(a, b):
    return [[x - y for x, y in zip(ra, rb)] for ra, rb in zip(a, b)]


def mat_scale(c, a):
    c = F(c)
    return [[c * x for x in row] for row in a]


def mat_mul(a, b):
    nb = len(b)
    ncols = len(b[0])
    out = []
    for row in a:
        acc = [F(0)] * ncols
        for k in range(nb):
            x = row[k]
            if x:
                bk = b[k]
                for j in range(ncols):
                    if bk[j]:
                        acc[j] += x * bk[j]
        out.append(acc)
    return out


def commutator(a, b):
    return mat_sub(mat_mul(a, b), mat_mul(b, a))


def is_zero_matrix(a):
    return all(not x for row in a for x in row)


def mat_eq(a, b):
    return is_zero_matrix(mat_sub(a, b))


def flatten(a):
    return [x for row in a for x in row]


def rref(rows):
    """Reduced row echelon form.  Returns (rref_rows, pivot_columns)."""
    m = [list(map(F, row)) for row in rows]
    if not m:
        return [], []
    nrows, ncols = len(m), len(m[0])
    pivots = []
    r = 0
    for c in range(ncols):
        piv = None
        for i in range(r, nrows):
            if m[i][c]:
                piv = i
                break
        if piv is None:
            continue
        m[r], m[piv] = m[piv], m[r]
        inv = m[r][c]
        m[r] = [x / inv for x in m[r]]
        for i in range(nrows):
            if i != r and m[i][c]:
                f = m[i][c]
                m[i] = [x - f * y for x, y in zip(m[i], m[r])]
        pivots.append(c)
        r += 1
        if r == nrows:
            break
    return m, pivots


def rank(rows):
    return len(rref(rows)[1])


def nullspace(rows):
    """Basis of {x : A x = 0} for A given by rows."""
    if not rows:
        return []
    ncols = len(rows[0])
    red, pivots = rref(rows)
    free = [c for c in range(ncols) if c not in pivots]
    basis = []
    for fc in free:
        v = [F(0)] * ncols
        v[fc] = F(1)
        for r, pc in enumerate(pivots):
            v[pc] = -red[r][fc]
        basis.append(v)
    return basis


def solve(rows, rhs):
    """One exact solution of A x = b, or None if inconsistent."""
    if not rows:
        return None
    ncols = len(rows[0])
    aug = [list(map(F, row)) + [F(b)] for row, b in zip(rows, rhs)]
    red, pivots = rref(aug)
    if ncols in pivots:
        return None
    x = [F(0)] * ncols
    for r, pc in enumerate(pivots):
        x[pc] = red[r][ncols]
    return x


def residue(x):
    """x mod PRIME for an int or a Fraction.

    A denominator divisible by PRIME has no inverse mod PRIME: it raises
    ZeroDivisionError rather than giving a wrong residue.
    """
    if x.denominator == 1:
        return x.numerator % PRIME
    d = x.denominator % PRIME
    if not d:
        raise ZeroDivisionError("denominator %d is divisible by PRIME" % x.denominator)
    return x.numerator * pow(d, -1, PRIME) % PRIME


class IncrementalRank:
    """Row rank mod PRIME maintained under row insertions (forward elimination).

    Rows are vectors of ints and Fractions.  A rank mod PRIME never exceeds
    the rank over Q, so rank is a certified lower bound on it; add and raises
    can miss a rise over Q (a row that is dependent only mod PRIME) and, once
    rank falls short of the rank over Q, report one that is not there.
    """

    def __init__(self, width):
        self.width = width
        self._rows = []  # (pivot, row[pivot:]) sorted by pivot, row[pivot] == 1

    def _reduce(self, row):
        v = [residue(x) for x in row]
        # Entries stay unreduced during the sweep (each step adds < PRIME**2);
        # a stored row is zero left of its pivot, so only the tail changes.
        for pivot, r in self._rows:
            f = v[pivot] % PRIME
            if f:
                v[pivot:] = [x - f * y for x, y in zip(v[pivot:], r)]
        return [x % PRIME for x in v]

    def add(self, row):
        """Insert a row; returns True when it increased the rank mod PRIME."""
        v = self._reduce(row)
        for c, x in enumerate(v):
            if x:
                inv = pow(x, -1, PRIME)
                insort(self._rows, (c, [y * inv % PRIME for y in v[c:]]))
                return True
        return False

    def raises(self, row):
        """Whether add(row) would increase the rank mod PRIME; changes nothing."""
        return any(self._reduce(row))

    @property
    def rank(self):
        return len(self._rows)


class Span:
    """Row span of a vector family with exact membership and coordinates."""

    def __init__(self, vectors):
        self.vectors = [list(map(F, v)) for v in vectors]
        n = len(self.vectors)
        width = len(self.vectors[0]) if self.vectors else 0
        # Row-reduce [M | I]; the identity block tracks how each reduced row
        # is built from the original vectors.
        aug = [self.vectors[i] + [F(1) if j == i else F(0) for j in range(n)]
               for i in range(n)]
        red, pivots = rref(aug)
        self._rows = []
        for r, pc in enumerate(pivots):
            if pc >= width:
                break  # dependency rows carry pivots only in the tracking block
            self._rows.append((red[r][:width], red[r][width:], pc))
        self.width = width
        self.dim = len(self._rows)

    def coords(self, v):
        """Coefficients expressing v over the original vectors, or None."""
        residual = list(map(F, v))
        n = len(self.vectors)
        acc = [F(0)] * n
        for row, track, pc in self._rows:
            f = residual[pc]
            if f:
                residual = [x - f * y for x, y in zip(residual, row)]
                acc = [x + f * y for x, y in zip(acc, track)]
        if any(residual):
            return None
        return acc

    def contains(self, v):
        return self.coords(v) is not None
