"""Dense linear algebra over the rationals, and rank mod a word-size prime.

Matrices are lists of lists of Fraction, vectors are lists of Fraction.
No floating point anywhere.  rref, rank, nullspace, solve, EchelonBasis and
Span are exact over Q: rref clears each row of denominators and content and
eliminates over primitive integer rows, so no Fraction arithmetic runs
inside the elimination.  IncrementalRank works mod PRIME: its rank is a
certified lower bound on the rank over Q of the rows it was given, not the
rank itself; callers that need more build an EchelonBasis of the rows,
whose rank is exact and which tests single rows for a rise over Q.  It keeps
each row as one int of fixed-width slots, one per column, wide enough that
no carry crosses a slot during a sweep, so eliminating a pivot is one shift
and one big-int multiply-add rather than a loop over the columns.
"""

from bisect import insort
from fractions import Fraction
from math import gcd, lcm

F = Fraction

PRIME = 2 ** 61 - 1


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


def rref(rows):
    """Reduced row echelon form.  Returns (rref_rows, pivot_columns).

    The rows are cleared of denominators and content, and eliminated as
    primitive integer rows: forward over the rows that are still zero left
    of the column, then back over the pivot rows.  Each row is divided by
    its pivot once, at the end.  The RREF is unique, so it is the one
    Fraction Gauss-Jordan gives; its rows are Fractions.  A column that is
    zero in every row stays zero, so only the other columns are eliminated.
    """
    if not rows:
        return [], []
    nrows, ncols = len(rows), len(rows[0])
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
    The basis rows are kept as primitive integer rows b_k, by their nonzero
    entries.  Each is zero at every pivot but its own, p_k, so row v is in
    the span exactly when v - sum_k v[p_k] b_k / b_k[p_k] is zero, which is
    formed over the integers, scaled by the lcm L of the b_k[p_k].
    """

    def __init__(self, rows):
        red, pivots = rref(rows)
        prows = [primitive(row) for row in red[:len(pivots)]]
        self._scale = lcm(*[row[c] for row, c in zip(prows, pivots)])
        self._rows = [(c, self._scale // row[c],
                       [(j, x) for j, x in enumerate(row) if x])
                      for row, c in zip(prows, pivots)]

    @property
    def rank(self):
        return len(self._rows)

    def raises(self, row):
        """Whether appending row raises the rank over Q."""
        v = primitive(row)
        acc = [self._scale * x for x in v]
        for c, m, entries in self._rows:
            f = v[c] * m
            if f:
                for j, x in entries:
                    acc[j] -= f * x
        return any(acc)


class IncrementalRank:
    """Row rank mod PRIME maintained under row insertions (forward elimination).

    Rows are vectors of ints and Fractions.  A rank mod PRIME never exceeds
    the rank over Q, so rank is a certified lower bound on it; add and raises
    can miss a rise over Q (a row that is dependent only mod PRIME) and, once
    rank falls short of the rank over Q, report one that is not there.

    Each stored row y (pivot entry 1, reduced mod PRIME) is one int packing
    its entries from the pivot on: slot j, S bits wide, holds PRIME - y_j,
    which lies in 1..PRIME.  A row is swept as a packed int too: at each
    pivot the slot there is read as f (mod PRIME) and f times the stored row
    is added, which subtracts f*y mod PRIME with no borrow.  A slot starts
    below PRIME and gains f*(PRIME - y_j) < PRIME**2 at each pivot left of
    it, at most width times, so it stays below PRIME + width*PRIME**2 <
    2**(2*61 + bitlen(width) + 1) <= 2**S with S = 8*ceil((2*61 +
    bitlen(width) + 1)/8): no carry ever crosses a slot boundary.
    """

    def __init__(self, width):
        self.width = width
        self._bytes = (2 * PRIME.bit_length() + width.bit_length() + 8) // 8  # S / 8
        self._rows = []  # (pivot, packed row[pivot:]) sorted by pivot

    def _pack(self, values):
        size = self._bytes
        return int.from_bytes(b"".join(x.to_bytes(size, "little") for x in values),
                              "little")

    def _reduce(self, row):
        """The residues of row minus the stored rows that clear its pivots."""
        size = self._bytes
        bits = 8 * size
        slot = (1 << bits) - 1
        v = self._pack([residue(x) for x in row])
        done = []  # the slots left of the current pivot, which no row changes
        pos = 0  # the column of v's lowest slot
        for pivot, r in self._rows:
            if pivot > pos:
                drop = bits * (pivot - pos)
                done.append((v & ((1 << drop) - 1)).to_bytes(size * (pivot - pos),
                                                             "little"))
                v >>= drop
                pos = pivot
            f = (v & slot) % PRIME
            if f:
                v += f * r
        done.append(v.to_bytes(size * (self.width - pos), "little"))
        data = b"".join(done)
        return [int.from_bytes(data[i:i + size], "little") % PRIME
                for i in range(0, len(data), size)]

    def add(self, row):
        """Insert a row; returns True when it increased the rank mod PRIME."""
        v = self._reduce(row)
        for c, x in enumerate(v):
            if x:
                inv = pow(x, -1, PRIME)
                insort(self._rows, (c, self._pack([PRIME - y * inv % PRIME
                                                   for y in v[c:]])))
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
