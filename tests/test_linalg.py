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
