"""Dense linear algebra over the rationals, and rank mod a word-size prime.

Matrices are lists of lists of Fraction, vectors are lists of Fraction.
No floating point anywhere.  rref, rank, nullspace, solve, EchelonBasis and
Span are exact over Q: rref clears each row of denominators and content and
eliminates over primitive integer rows, so no Fraction arithmetic runs
inside the elimination.  IncrementalRank works mod PRIME: its rank is a
certified lower bound on the rank over Q of the rows it was given, not the
rank itself, and callers that need more re-rank over Q with rank or test
single rows against an EchelonBasis.
"""

from bisect import insort
from fractions import Fraction
from math import gcd, lcm

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


def primitive(row):
    """row scaled by a positive rational to coprime integers; zero stays zero.

    Entries are ints or Fractions.
    """
    den = lcm(*[x.denominator for x in row])
    ints = [x.numerator * (den // x.denominator) for x in row]
    g = gcd(*ints)
    return [x // g for x in ints] if g > 1 else ints


def _cancel(row, prow, c, start=0):
    """The primitive integer row a*row - b*prow whose column c is 0.

    Both rows are integer; the entries of both before start are 0.
    """
    g = gcd(prow[c], row[c])
    a, b = prow[c] // g, row[c] // g
    tail = [a * x - b * y for x, y in zip(row[start:], prow[start:])]
    g = gcd(*tail)
    if g > 1:
        tail = [x // g for x in tail]
    return row[:start] + tail


def rref(rows):
    """Reduced row echelon form.  Returns (rref_rows, pivot_columns).

    The rows are cleared of denominators and content, and eliminated as
    primitive integer rows: forward over the rows that are still zero left
    of the column, then back over the pivot rows.  Each row is divided by
    its pivot once, at the end.  The RREF is unique, so it is the one
    Fraction Gauss-Jordan gives; its rows are Fractions.
    """
    if not rows:
        return [], []
    nrows, ncols = len(rows), len(rows[0])
    live = [row for row in map(primitive, rows) if any(row)]
    prows, pivots = [], []
    for c in range(ncols):
        j = next((j for j, row in enumerate(live) if row[c]), None)
        if j is None:
            continue
        prow = live.pop(j)
        rest = []
        for row in live:
            if row[c]:
                row = _cancel(row, prow, c, c)
                if not any(row):
                    continue
            rest.append(row)
        live = rest
        prows.append(prow)
        pivots.append(c)
        if not live:
            break
    for k in range(len(prows) - 1, 0, -1):
        c = pivots[k]
        for j in range(k):
            if prows[j][c]:
                prows[j] = _cancel(prows[j], prows[k], c, pivots[j])
    out = [[F(x, row[c]) for x in row] for row, c in zip(prows, pivots)]
    out += [[F(0)] * ncols for _ in range(nrows - len(pivots))]
    return out, pivots


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


class EchelonBasis:
    """Row basis over Q of a fixed family of rows, for exact membership tests.

    Built by one rref; raises(row) then reduces only that row against the
    basis rows, instead of eliminating the family and the row together.
    """

    def __init__(self, rows):
        red, pivots = rref(rows)
        self._rows = [(c, primitive(row)) for row, c in zip(red, pivots)]

    @property
    def rank(self):
        return len(self._rows)

    def raises(self, row):
        """Whether appending row raises the rank over Q."""
        v = primitive(row)
        for c, prow in self._rows:
            if v[c]:
                v = _cancel(v, prow, c)
        return any(v)


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
