import random
from fractions import Fraction
from math import gcd, lcm

import pytest

from nilcone import linalg as la
from nilcone import rootdata as rd

F = Fraction


def _random_matrix(rng, nrows, ncols, rank):
    """A rational nrows x ncols matrix of rank at most `rank` (a product)."""
    def entry():
        return F(rng.randint(-9, 9), rng.randint(1, 6))
    left = [[entry() for _ in range(rank)] for _ in range(nrows)]
    right = [[entry() for _ in range(ncols)] for _ in range(rank)]
    return la.mat_mul(left, right)


@pytest.mark.parametrize("seed", range(8))
def test_incremental_rank_agrees_with_exact_rank(seed):
    rng = random.Random(seed)
    nrows, ncols = rng.randint(1, 9), rng.randint(1, 9)
    rows = _random_matrix(rng, nrows, ncols, rng.randint(1, 6))
    tracker = la.IncrementalRank(ncols)
    raised = 0
    for row in rows:
        would = tracker.raises(row)
        assert tracker.raises(row) == would  # raises changes nothing
        assert tracker.add(row) == would
        raised += would
    assert tracker.rank == raised == la.rank(rows)


def _raises_changing_nothing(tracker, row):
    """tracker.raises(row), checked to change nothing."""
    before = [(c, list(r)) for c, r in tracker._rows]
    would = tracker.raises(row)
    assert [(c, list(r)) for c, r in tracker._rows] == before
    return would


@pytest.mark.parametrize("seed,width", [(0, 1), (1, 2), (2, 5), (3, 17), (4, 31),
                                        (5, 32), (6, 120), (7, 220), (8, 1540)])
def test_incremental_rank_matches_rank_on_wide_rows(seed, width):
    """Rank-deficient families of int and Fraction rows, entries up to and
    past 2**61, zero rows and repeated rows, ranked one row at a time."""
    rng = random.Random(seed)
    big = 2 ** 61
    rank = rng.randint(1, min(width, 8))
    basis = [[rng.choice([0, rng.randint(-9, 9), F(rng.randint(-9, 9), rng.randint(1, 7)),
                          rng.randint(big, 3 * big), rng.randint(-big * big, -big)])
              for _ in range(width)] for _ in range(rank)]
    rows = []
    for _ in range(rank + 6):
        pick = rng.random()
        if pick < 0.15:
            rows.append([0] * width)
        elif pick < 0.5:  # a combination of the basis, dependent over Q
            coeffs = [F(rng.randint(-3, 3), rng.randint(1, 2)) for _ in basis]
            rows.append([sum(c * r[j] for c, r in zip(coeffs, basis)) for j in range(width)])
        else:
            rows.append(rng.choice(basis))
    rng.shuffle(basis)
    rows += basis
    tracker = la.IncrementalRank(width)
    for k, row in enumerate(rows):
        would = _raises_changing_nothing(tracker, row)
        assert would == (la.rank(rows[:k + 1]) > tracker.rank)
        assert tracker.add(row) == would
    assert tracker.rank == la.rank(rows) == la.rank(basis)
    assert [c for c, _ in tracker._rows] == sorted(c for c, _ in tracker._rows)
    assert all(not any(r[:c]) and r[c] for c, r in tracker._rows)


def _gauss_jordan(rows):
    """Reference rref: plain Gauss-Jordan in Fraction arithmetic."""
    m = [[F(x) for x in row] for row in rows]
    pivots = []
    for c in range(len(m[0]) if m else 0):
        r = len(pivots)
        piv = next((i for i in range(r, len(m)) if m[i][c]), None)
        if piv is None:
            continue
        m[r], m[piv] = m[piv], m[r]
        m[r] = [x / m[r][c] for x in m[r]]
        for i in range(len(m)):
            if i != r and m[i][c]:
                f = m[i][c]
                m[i] = [x - f * y for x, y in zip(m[i], m[r])]
        pivots.append(c)
    return m, pivots


def _mixed_matrix(rng, nrows, ncols, rank):
    """A rank-deficient matrix with int and Fraction entries and zero rows."""
    rows = _random_matrix(rng, nrows, ncols, rank) if rank else \
        [[F(0)] * ncols for _ in range(nrows)]
    for row in rows:
        if rng.random() < 0.2:
            row[:] = [0] * ncols
        for j, x in enumerate(row):
            if x.denominator == 1 and rng.random() < 0.5:
                row[j] = int(x)
    return rows


_SHAPES = [(0, 1, 3, 0), (1, 3, 3, 0), (2, 1, 7, 1), (3, 7, 1, 1), (4, 12, 4, 3),
           (5, 9, 3, 2)] + [(seed, 1 + seed % 9, 1 + (3 * seed) % 9, seed % 5)
                            for seed in range(6, 18)]


@pytest.mark.parametrize("seed,nrows,ncols,rank", _SHAPES)
def test_rref_matches_fraction_gauss_jordan(seed, nrows, ncols, rank):
    rows = _mixed_matrix(random.Random(seed), nrows, ncols, rank)
    red, pivots = la.rref(rows)
    assert (red, pivots) == _gauss_jordan(rows)
    assert all(type(x) is F for row in red for x in row)
    assert la.rank(rows) == len(pivots) <= rank
    assert la.rref([]) == ([], [])


@pytest.mark.parametrize("seed", range(6))
def test_zero_columns_stay_zero(seed):
    rng = random.Random(seed)
    dense = _mixed_matrix(rng, rng.randint(1, 7), rng.randint(1, 6), rng.randint(0, 4))
    width = len(dense[0]) + rng.randint(1, 5)
    live = sorted(rng.sample(range(width), len(dense[0])))
    rows = [[0] * width for _ in dense]
    for row, values in zip(rows, dense):
        for j, x in zip(live, values):
            row[j] = x
    assert la.rref(rows) == _gauss_jordan(rows)
    tracker = la.IncrementalRank(width)
    for row in rows:
        tracker.add(row)
    for _ in range(6):
        coeffs = [F(rng.randint(-2, 2)) for _ in rows]
        row = [sum(c * r[j] for c, r in zip(coeffs, rows)) for j in range(width)]
        if rng.random() < 0.5:
            row[rng.randrange(width)] += F(1, rng.randint(1, 3))
        assert _raises_changing_nothing(tracker, row) == (la.rank(rows + [row]) > tracker.rank)


@pytest.mark.parametrize("seed", range(6))
def test_incremental_rank_raises_agrees_with_rank(seed):
    rng = random.Random(seed)
    ncols = rng.randint(1, 8)
    rows = _mixed_matrix(rng, rng.randint(1, 8), ncols, rng.randint(0, ncols))
    tracker = la.IncrementalRank(ncols)
    for row in rows:
        tracker.add(row)
    assert tracker.rank == la.rank(rows)
    for _ in range(6):
        row = _mixed_matrix(rng, 1, ncols, rng.randint(0, 1))[0]
        if rng.random() < 0.5:  # a combination of the rows
            coeffs = [F(rng.randint(-2, 2)) for _ in rows]
            row = [sum(c * r[j] for c, r in zip(coeffs, rows)) for j in range(ncols)]
        assert _raises_changing_nothing(tracker, row) == (la.rank(rows + [row]) > tracker.rank)


@pytest.mark.parametrize("seed", range(8))
def test_int_rows_give_the_results_of_their_fractions(seed):
    rng = random.Random(seed)
    nrows, ncols = rng.randint(1, 8), rng.randint(1, 8)
    rank = rng.randint(1, min(nrows, ncols))
    left = [[rng.randint(-3, 3) for _ in range(rank)] for _ in range(nrows)]
    right = [[rng.randint(-3, 3) for _ in range(ncols)] for _ in range(rank)]
    ints = la.mat_mul(left, right)
    assert all(type(x) is int for row in ints for x in row)
    fracs = [[F(x) for x in row] for row in ints]
    assert la.mat_mul(left, right) == la.mat_mul(
        [[F(x) for x in row] for row in left], [[F(x) for x in row] for row in right])
    assert la.rref(ints) == la.rref(fracs)
    assert all(type(x) is F for row in la.rref(ints)[0] for x in row)
    assert la.rank(ints) == la.rank(fracs) <= rank
    solvable = la.mat_mul(ints, [[rng.randint(-3, 3)] for _ in range(ncols)])
    arbitrary = [[rng.randint(-3, 3)] for _ in range(nrows)]
    for rhs in (solvable, arbitrary):
        rhs = [b for b, in rhs]
        x = la.solve(ints, rhs)
        assert x == la.solve(fracs, [F(b) for b in rhs])
        if x is not None:
            assert la.mat_mul(ints, [[c] for c in x]) == [[b] for b in rhs]
    assert la.solve(ints, [b for b, in solvable]) is not None
    assert all(type(x) is int for row in la.mat_scale(-2, ints) for x in row)


@pytest.mark.parametrize("seed", range(6))
def test_rank_counts_the_pivots_of_rref(seed):
    # seeded rank-deficient Fraction and int matrices of every shape class:
    # no rows, the zero matrix, 1 x n, n x 1, square, wide and tall
    rng = random.Random(seed)
    shapes = [(1, 7), (7, 1), (5, 5), (3, 8), (9, 3), (12, 4)]
    cases = [[], la.zeros(4, 6), la.zeros(1, 3)]
    for nrows, ncols in shapes:
        inner = rng.randint(1, max(1, min(nrows, ncols) - 1))
        left = [[rng.randint(-4, 4) for _ in range(inner)] for _ in range(nrows)]
        right = [[rng.randint(-4, 4) for _ in range(ncols)] for _ in range(inner)]
        cases += [_random_matrix(rng, nrows, ncols, inner),
                  la.mat_mul(left, right),  # an int matrix of rank <= inner
                  [[rng.randint(-3, 3) for _ in range(ncols)] for _ in range(nrows)]]
    for rows in cases:
        assert la.rank(rows) == len(la.rref(rows)[1])
    assert la.rank([]) == 0 and la.rank(la.zeros(4, 6)) == 0


class _UnsaturatedRank(la.IncrementalRank):
    """Reference: IncrementalRank without the full-rank return, so every row
    is reduced whatever the rank."""

    def add(self, row):
        v = self._reduce(row)
        for c, x in enumerate(v):
            if x:
                self._rows.append((c, v))
                self._rows.sort()
                return True
        return False

    def raises(self, row):
        return any(self._reduce(row))


@pytest.mark.parametrize("seed", range(8))
def test_full_rank_return_agrees_with_reducing_every_row(seed):
    # full-rank int and Fraction families, zero rows among them, then rows
    # past full rank: random rows, zero rows and combinations
    rng = random.Random(seed)
    width = rng.randint(1, 6)
    rows = _mixed_matrix(rng, rng.randint(width, 2 * width), width, width)
    rows += [[F(rng.randint(-9, 9), rng.randint(1, 4)) for _ in range(width)]
             for _ in range(width)]  # full rank, almost surely
    rows += [[0] * width, [F(0)] * width]
    rows += _mixed_matrix(rng, 4, width, rng.randint(0, width))
    rng.shuffle(rows)
    fast, slow = la.IncrementalRank(width), _UnsaturatedRank(width)
    for row in rows:
        probe = [rng.randint(-3, 3) for _ in range(width)]
        assert _raises_changing_nothing(fast, probe) == slow.raises(probe)
        assert fast.add(row) == slow.add(row)
        assert fast.rank == slow.rank
        assert _raises_changing_nothing(fast, row) is False and slow.raises(row) is False
    assert fast.rank == width == la.rank(rows)
    assert fast._rows == slow._rows
    fast._reduce = None  # at full rank no row is reduced, and none raises
    for row in rows + [[0] * width]:
        assert fast.raises(row) is False and fast.add(row) is False


def _reference_solve(rows, rhs):
    """Reference solve: Gauss-Jordan of [A | b] in Fraction arithmetic, each
    pivot variable read off b's column and each free variable 0."""
    ncols = len(rows[0])
    red, pivots = _gauss_jordan([list(row) + [b] for row, b in zip(rows, rhs)])
    if ncols in pivots:
        return None
    x = [F(0)] * ncols
    for row, c in zip(red, pivots):
        x[c] = row[ncols]
    return x


def _random_system(rng):
    """A seeded system A x = b: int or Fraction entries, square or not, with
    zero rows and zero columns, and b consistent, zero or random."""
    nrows, ncols = rng.randint(1, 8), rng.randint(1, 8)
    if rng.random() < 0.3:
        ncols = nrows  # square
    rows = _mixed_matrix(rng, nrows, ncols, rng.randint(0, min(nrows, ncols)))
    for j in rng.sample(range(ncols), rng.randint(0, ncols // 2)):
        for row in rows:
            row[j] = 0  # a zero column
    kind = rng.choice(["consistent", "zero", "random"])
    if kind == "zero":
        rhs = [rng.choice([0, F(0)]) for _ in rows]
    elif kind == "consistent":
        x = [rng.choice([rng.randint(-5, 5), F(rng.randint(-5, 5), rng.randint(1, 4))])
             for _ in range(ncols)]
        rhs = [sum(a * b for a, b in zip(row, x)) for row in rows]
    else:  # inconsistent whenever b leaves the column space
        rhs = [rng.choice([rng.randint(-9, 9), F(rng.randint(-9, 9), rng.randint(1, 5))])
               for _ in rows]
    return rows, rhs


@pytest.mark.parametrize("seed", range(200))
def test_solve_matches_fraction_gauss_jordan(seed):
    rows, rhs = _random_system(random.Random(seed))
    x = la.solve(rows, rhs)
    assert x == _reference_solve(rows, rhs)
    if x is not None:
        assert all(type(v) is F for v in x)
        assert [sum(a * b for a, b in zip(row, x)) for row in rows] == rhs
    aug = [list(row) + [b] for row, b in zip(rows, rhs)]
    assert la.rref(rows) == _gauss_jordan(rows)
    assert la.rref(aug) == _gauss_jordan(aug)


def test_solve_edge_systems():
    assert la.solve([], []) is None
    assert la.solve([[0, 0]], [0]) == [0, 0]
    assert la.solve([[0, 0]], [F(1, 2)]) is None  # a zero row, b nonzero
    assert la.solve([[2, 0], [0, 0]], [3, 0]) == [F(3, 2), 0]
    assert la.solve([[1, 1], [1, 1]], [1, 2]) is None


def test_rref_and_solve_on_degenerate_systems():
    # rows past full rank, duplicate rows, width 1 and a zero right-hand side
    cases = [
        [[1, 2], [3, 4], [5, 6], [F(1, 2), 7]],  # past full rank
        [[1, 2, 3], [1, 2, 3], [2, 4, 6], [0, 1, 1], [0, 1, 1]],  # duplicates
        [[2], [F(-3, 4)], [0], [5]],  # width 1, past full rank
        [[0], [0]],  # width 1, zero
        [[F(2, 3)]],  # 1 x 1
        [[1, 2, 3], [2, 4, 6]],  # one independent row, duplicated up to scale
    ]
    for rows in cases:
        assert la.rref(rows) == _gauss_jordan(rows)
        zero = [0] * len(rows)
        assert la.solve(rows, zero) == _reference_solve(rows, zero) == [0] * len(rows[0])
        for x in ([1] * len(rows[0]), [F(k + 1, 3) for k in range(len(rows[0]))]):
            rhs = [sum(a * b for a, b in zip(row, x)) for row in rows]
            got = la.solve(rows, rhs)
            assert got == _reference_solve(rows, rhs)
            assert [sum(a * b for a, b in zip(row, got)) for row in rows] == rhs
    assert la.solve([[2], [4]], [1, 3]) is None  # width 1, inconsistent
    assert la.solve([[1, 1], [1, 1], [1, 1]], [1, 1, 2]) is None  # a duplicate disagrees
    assert la.solve([[3]], [2]) == [F(2, 3)]


def _reference_inverse(square):
    """Reference inverse: Fraction Gauss-Jordan of [M | I], read off the
    identity block."""
    n = len(square)
    red, pivots = _gauss_jordan([list(row) + [int(i == j) for j in range(n)]
                                 for i, row in enumerate(square)])
    assert pivots[:n] == list(range(n))
    return [row[n:] for row in red]


def _check_inverse(square):
    adj, den = la.inverse(square)
    n = len(square)
    assert type(den) is int and den > 0
    assert all(type(x) is int for row in adj for x in row)
    scalar = [[den * int(i == j) for j in range(n)] for i in range(n)]
    assert la.mat_mul(adj, square) == la.mat_mul(square, adj) == scalar
    # den is least: no common factor of den and adj can be divided out
    assert gcd(den, *[x for row in adj for x in row]) == 1
    assert [[F(x, den) for x in row] for row in adj] == _reference_inverse(square)
    assert den == lcm(*[x.denominator for row in _reference_inverse(square) for x in row])


@pytest.mark.parametrize("seed", range(40))
def test_inverse_matches_fraction_gauss_jordan(seed):
    rng = random.Random(seed)
    n = 1 + seed % 6
    while True:
        square = _random_matrix(rng, n, n, n)
        if seed % 2:  # int entries
            square = [[int(x.numerator) for x in row] for row in square]
        if la.rank(square) == n:
            break
    _check_inverse(square)


@pytest.mark.parametrize("label,ranks", [("A", range(1, 8)), ("B", range(2, 7)),
                                         ("C", range(2, 7)), ("D", range(3, 8)),
                                         ("G2", [2])])
def test_inverse_of_cartan_matrices(label, ranks):
    for n in ranks:
        _check_inverse(rd.build_root_system(label, n).cartan_matrix)


def test_inverse_of_a_singular_matrix_raises():
    for square in ([[0]], [[1, 2], [2, 4]], [[1, 0, 1], [0, 1, 1], [1, 1, 2]]):
        with pytest.raises(ValueError):
            la.inverse(square)
    assert la.inverse([[F(-2, 3)]]) == ([[-3]], 2)
    assert la.inverse([[2]]) == ([[1]], 2)


def test_rref_and_solve_do_not_call_add(monkeypatch):
    # a wrapper of IncrementalRank.add (the benchmark's tracer) counts only
    # the rank engine's own rows, not those of rref, solve and inverse
    calls = []
    add = la.IncrementalRank.add

    def counting_add(self, row):
        calls.append(row)
        return add(self, row)

    monkeypatch.setattr(la.IncrementalRank, "add", counting_add)
    rows = [[1, 2, 3], [F(2, 3), F(4, 3), 2], [0, 1, F(-5, 7)]]
    assert len(la.rref(rows)[1]) == 2
    assert la.solve(rows, [1, F(2, 3), 0]) is not None
    assert la.inverse([[2, 1], [1, 1]]) == ([[1, -1], [-1, 2]], 1)
    assert calls == []
    tracker = la.IncrementalRank(3)
    assert [tracker.add(row) for row in rows] == [True, False, True]
    assert len(calls) == 3
