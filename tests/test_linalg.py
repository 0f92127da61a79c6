import random
from fractions import Fraction

import pytest

from nilcone import linalg as la

F = Fraction
P = la.PRIME


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


def test_rank_mod_p_is_a_lower_bound():
    rows = [[1, 1], [1, 1 + P]]
    tracker = la.IncrementalRank(2)
    assert [tracker.add(row) for row in rows] == [True, False]
    assert tracker.rank == 1 < la.rank(rows) == 2


def test_denominator_divisible_by_prime_raises():
    tracker = la.IncrementalRank(2)
    tracker.add([1, 0])
    for bad in ([0, F(1, P)], [F(3, 2 * P), 1]):
        with pytest.raises(ZeroDivisionError):
            tracker.add(bad)
        with pytest.raises(ZeroDivisionError):
            tracker.raises(bad)
    assert tracker.rank == 1
    assert la.residue(F(P, 2 * P)) == la.residue(F(1, 2))  # in lowest terms
    assert la.residue(F(-1, 2)) * 2 % P == P - 1


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
def test_echelon_basis_raises_agrees_with_rank(seed):
    rng = random.Random(seed)
    ncols = rng.randint(1, 8)
    rows = _mixed_matrix(rng, rng.randint(1, 8), ncols, rng.randint(0, ncols))
    basis = la.EchelonBasis(rows)
    assert basis.rank == la.rank(rows)
    for _ in range(6):
        row = _mixed_matrix(rng, 1, ncols, rng.randint(0, 1))[0]
        if rng.random() < 0.5:  # a combination of the rows
            row = [sum(F(rng.randint(-2, 2)) * r[j] for r in rows) for j in range(ncols)]
        assert basis.raises(row) == (la.rank(rows + [row]) > basis.rank)
