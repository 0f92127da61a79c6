"""Dense linear algebra over the rationals.

Matrices are lists of lists, and vectors lists, of ints and Fractions.  An
int matrix stays an int matrix through zeros, identity, mat_add, mat_sub,
mat_scale by an int and mat_mul; rref and nullspace return Fractions, and
solve eliminates integer rows and makes only its solution Fractions.  No
floating point anywhere.  rref, rank, nullspace, solve, IncrementalRank and
Span are exact over Q.  rref, solve and IncrementalRank clear each row of
denominators and content and eliminate over primitive integer rows
(_cancel), so no Fraction arithmetic runs inside the elimination; rref and
solve share one elimination of a whole matrix (_eliminate) and read it
differently; IncrementalRank takes rows one at a time, forward elimination
only, and tests single rows for a rise.  IncrementalRank is the rank engine
of nilcone.oracle; at full rank (rank == width) no row can raise it, so add
and raises return False at once.
"""

from bisect import insort
from fractions import Fraction
from math import gcd, lcm

F = Fraction


def zeros(nrows, ncols):
    return [[0] * ncols for _ in range(nrows)]


def identity(n):
    m = zeros(n, n)
    for i in range(n):
        m[i][i] = 1
    return m


def mat_add(a, b):
    return [[x + y for x, y in zip(ra, rb)] for ra, rb in zip(a, b)]


def mat_sub(a, b):
    return [[x - y for x, y in zip(ra, rb)] for ra, rb in zip(a, b)]


def mat_scale(c, a):
    return [[c * x for x in row] for row in a]


def mat_mul(a, b):
    nb = len(b)
    ncols = len(b[0])
    out = []
    for row in a:
        acc = [0] * ncols
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


def _cancel(row, prow, c, start):
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


def _eliminate(rows):
    """The integer Gauss-Jordan elimination behind rref and solve.

    Returns (prows, pivots, cols): cols lists the columns that are nonzero
    in some row, prows the primitive integer pivot rows restricted to cols,
    and pivots the index into cols of each row's pivot.  The rows are
    cleared of denominators and content, and eliminated as primitive
    integer rows: forward over the rows that are still zero left of the
    column, then back over the pivot rows, so each pivot column is zero in
    every other pivot row.  Dividing each row by its pivot gives the RREF.
    """
    live = [row for row in map(primitive, rows) if any(row)]
    cols = [j for j, col in enumerate(zip(*live)) if any(col)]
    live = [[row[j] for j in cols] for row in live]
    prows, pivots = [], []
    for c in range(len(cols)):
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
    return prows, pivots, cols


def rref(rows):
    """Reduced row echelon form.  Returns (rref_rows, pivot_columns).

    The elimination (_eliminate) runs on primitive integer rows; each row
    is divided by its pivot once, at the end.  The RREF is unique, so it
    is the one Fraction Gauss-Jordan gives; its rows are Fractions.  A
    column that is zero in every row stays zero, so only the other columns
    are eliminated.
    """
    if not rows:
        return [], []
    nrows, ncols = len(rows), len(rows[0])
    prows, pivots, cols = _eliminate(rows)
    out = []
    for row, c in zip(prows, pivots):
        full = [F(0)] * ncols
        for j, x in zip(cols, row):
            full[j] = F(x, row[c])
        out.append(full)
    out += [[F(0)] * ncols for _ in range(nrows - len(pivots))]
    return out, [cols[c] for c in pivots]


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
    """One exact solution of A x = b, or None if inconsistent.

    The solution RREF([A | b]) gives: each pivot variable is the pivot
    row's b entry over its pivot, and each free variable is 0.  Only those
    entries are made Fractions.
    """
    if not rows:
        return None
    ncols = len(rows[0])
    prows, pivots, cols = _eliminate([list(row) + [b] for row, b in zip(rows, rhs)])
    x = [F(0)] * ncols
    if cols and cols[-1] == ncols:  # b is nonzero: read its column
        if cols[pivots[-1]] == ncols:
            return None
        for row, c in zip(prows, pivots):
            x[cols[c]] = F(row[-1], row[c])
    return x


class IncrementalRank:
    """Row rank over Q maintained under row insertions (forward elimination).

    Rows are vectors of ints and Fractions, each cleared to a primitive
    integer row on entry.  Each stored row is (pivot, primitive integer row),
    zero left of its pivot, and the stored rows are sorted by pivot.  A row
    is reduced by the stored rows in pivot order with _cancel; it can be
    nonzero left of a pivot, so every cancellation runs over the whole row.
    """

    def __init__(self, width):
        self.width = width
        self._rows = []  # (pivot, primitive integer row) sorted by pivot

    def _reduce(self, row):
        """The primitive integer row of row minus the stored rows that clear
        its pivots."""
        v = primitive(row)
        for pivot, prow in self._rows:
            if v[pivot]:
                v = _cancel(v, prow, pivot, 0)
        return v

    def add(self, row):
        """Insert a row; returns True when it increased the rank.  At full
        rank (rank == width) no row can raise it, so none is reduced."""
        if len(self._rows) == self.width:
            return False
        v = self._reduce(row)
        for c, x in enumerate(v):
            if x:
                insort(self._rows, (c, v))
                return True
        return False

    def raises(self, row):
        """Whether add(row) would increase the rank; changes nothing."""
        return len(self._rows) < self.width and any(self._reduce(row))

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
