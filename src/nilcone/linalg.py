"""Dense linear algebra over the rationals.

Matrices are lists of lists, and vectors lists, of ints and Fractions.  An
int matrix stays an int matrix through zeros, mat_add, mat_sub,
mat_scale by an int and mat_mul; rref and nullspace return Fractions, and
solve eliminates integer rows and makes only its solution Fractions.  No
floating point anywhere.  rref, rank, nullspace, solve, inverse,
IncrementalRank and Span are exact over Q.

There is one forward elimination: IncrementalRank's.  It clears each row of
denominators and content and reduces it against the stored primitive
integer rows (_cancel), so no Fraction arithmetic runs inside it.  It is the
rank engine of nilcone.oracle; at full rank (rank == width) no row can raise
it, so add and raises return False at once.  rref and solve feed their rows
to one through _insert, another name of add that a wrapper of add does not
see, and back-substitute over its pivot rows (_eliminate); inverse solves
for each column of the inverse and scales the result to integers over one
denominator.
"""

from bisect import insort
from fractions import Fraction
from math import gcd, lcm

F = Fraction


def zeros(nrows, ncols):
    return [[0] * ncols for _ in range(nrows)]


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


def _scaled_to_ints(rows):
    """(den, den rows) for the least positive int den that makes every
    entry of rows (sequences of ints and Fractions) an integer."""
    den = lcm(*[x.denominator for row in rows for x in row])
    return den, [[x.numerator * (den // x.denominator) for x in row] for row in rows]


def primitive(row):
    """row scaled by a positive rational to coprime integers; zero stays zero.

    Entries are ints or Fractions.
    """
    ints = _scaled_to_ints([row])[1][0]
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


def _eliminate(rows, width):
    """The integer Gauss-Jordan elimination behind rref and solve.

    Returns (prows, pivots): the primitive integer pivot rows, sorted by
    pivot, and the pivot column of each.  The forward elimination is
    IncrementalRank's, fed the rows until its rank reaches width; then each
    pivot column is cleared from the rows above its own, so dividing each
    row by its pivot gives the RREF.
    """
    tracker = IncrementalRank(width)
    for row in rows:
        if tracker.rank == width:
            break
        tracker._insert(row)
    pivots = [c for c, _ in tracker._rows]
    prows = [row for _, row in tracker._rows]
    for k in range(len(prows) - 1, 0, -1):
        c = pivots[k]
        for j in range(k):
            if prows[j][c]:
                prows[j] = _cancel(prows[j], prows[k], c, pivots[j])
    return prows, pivots


def rref(rows):
    """Reduced row echelon form.  Returns (rref_rows, pivot_columns).

    The elimination (_eliminate) runs on primitive integer rows; each row
    is divided by its pivot once, at the end.  The RREF is unique, so it
    is the one Fraction Gauss-Jordan gives; its rows are Fractions.
    """
    if not rows:
        return [], []
    nrows, ncols = len(rows), len(rows[0])
    prows, pivots = _eliminate(rows, ncols)
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
    """One exact solution of A x = b, or None if inconsistent.

    The solution RREF([A | b]) gives: each pivot variable is the pivot
    row's b entry over its pivot, and each free variable is 0.  Only those
    entries are made Fractions.
    """
    if not rows:
        return None
    ncols = len(rows[0])
    prows, pivots = _eliminate([list(row) + [b] for row, b in zip(rows, rhs)], ncols + 1)
    if pivots and pivots[-1] == ncols:
        return None
    x = [F(0)] * ncols
    for row, c in zip(prows, pivots):
        x[c] = F(row[-1], row[c])
    return x


def inverse(square):
    """(adj, den) with square^-1 = adj / den: adj an int matrix and den the
    least positive int that makes it one.  Column k is solve(square, e_k);
    a singular square raises ValueError."""
    n = len(square)
    columns = [solve(square, [int(i == k) for i in range(n)]) for k in range(n)]
    if None in columns:
        raise ValueError("matrix is singular")
    den, adj = _scaled_to_ints(list(zip(*columns)))
    return adj, den


class IncrementalRank:
    """Row rank over Q maintained under row insertions (forward elimination).

    Rows are vectors of ints and Fractions, each cleared to a primitive
    integer row on entry.  Each stored row is (pivot, primitive integer row),
    zero left of its pivot, and the stored rows are sorted by pivot.  A row
    is reduced with _cancel by the stored row whose pivot is its first
    nonzero column, so it is zero left of every cancellation, until that
    column is no pivot (the row raises the rank) or the row is zero.
    """

    def __init__(self, width):
        self.width = width
        self._rows = []  # (pivot, primitive integer row) sorted by pivot

    def _reduce(self, row):
        """The primitive integer row of row, reduced by the stored rows until
        its first nonzero column is no pivot; zero when row is in their
        span."""
        v = primitive(row)
        done = 0  # v is zero left of done
        for pivot, prow in self._rows:
            if v[pivot]:
                if any(v[done:pivot]):  # v's first nonzero column is no pivot
                    break
                v = _cancel(v, prow, pivot, pivot)
                done = pivot + 1
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

    # add under the name rref and solve call, so that wrapping add (as a
    # tracer does) sees only the rank engine's own rows
    _insert = add

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
