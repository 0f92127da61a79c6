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


class _ListRank:
    """Reference tracker: the forward echelon form mod P with each stored row
    a list, swept one pivot at a time by a list comprehension."""

    def __init__(self):
        self.rows = []  # (pivot, row[pivot:]) sorted by pivot, row[pivot] == 1

    def _reduce(self, row):
        v = [la.residue(x) for x in row]
        for pivot, r in self.rows:
            f = v[pivot] % P
            if f:
                v[pivot:] = [x - f * y for x, y in zip(v[pivot:], r)]
        return [x % P for x in v]

    def add(self, row):
        v = self._reduce(row)
        for c, x in enumerate(v):
            if x:
                inv = pow(x, -1, P)
                self.rows.append((c, [y * inv % P for y in v[c:]]))
                self.rows.sort()
                return True
        return False

    def raises(self, row):
        return any(self._reduce(row))


def _unpacked(tracker):
    """The stored rows of an IncrementalRank as (pivot, row[pivot:]) lists:
    slot j of a packed row holds P - y_j."""
    size = tracker._bytes
    out = []
    for c, packed in tracker._rows:
        data = packed.to_bytes(size * (tracker.width - c), "little")
        out.append((c, [(P - int.from_bytes(data[i:i + size], "little")) % P
                        for i in range(0, len(data), size)]))
    return out


def _agrees_with_reference(width, rows):
    tracker, reference = la.IncrementalRank(width), _ListRank()
    for row in rows:
        assert tracker.raises(row) == reference.raises(row)
        assert tracker.add(row) == reference.add(row)
    assert tracker.rank == len(reference.rows)
    assert _unpacked(tracker) == reference.rows
    return tracker


@pytest.mark.parametrize("seed,width", [(0, 1), (1, 2), (2, 5), (3, 17), (4, 31),
                                        (5, 32), (6, 120), (7, 220), (8, 1540)])
def test_packed_rank_matches_the_list_reference(seed, width):
    rng = random.Random(seed)
    rank = rng.randint(1, min(width, 8))
    basis = [[rng.choice([0, rng.randint(-9, 9), F(rng.randint(-9, 9), rng.randint(1, 7)),
                          rng.randint(P, 3 * P), rng.randint(-P * P, -P)])
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
    assert _agrees_with_reference(width, rows + basis).rank <= rank


@pytest.mark.parametrize("width", [1, 2, 31, 32, 200])
@pytest.mark.parametrize("entry", [0, 1, P - 1])
def test_packed_slots_never_carry(width, entry):
    """width - 1 pivots whose rows hold entry right of the pivot, and a row
    that reads f = P - 1 at every pivot: every slot takes the most additions
    the width allows (entry 0 stores slots of P, the largest value)."""
    stored = [[0] * i + [1] + [entry] * (width - 1 - i) for i in range(width - 1)]
    for z in (0, 5):
        v = [(P - 1) * sum(r[j] for r in stored) % P for j in range(width)]
        v[-1] = (v[-1] + z) % P
        tracker = _agrees_with_reference(width, stored + [v])
        assert tracker.rank == width - 1 + (z != 0)
        if z:
            assert _unpacked(tracker)[-1] == (width - 1, [1])


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
    basis = la.EchelonBasis(rows)
    for _ in range(6):
        coeffs = [F(rng.randint(-2, 2)) for _ in rows]
        row = [sum(c * r[j] for c, r in zip(coeffs, rows)) for j in range(width)]
        if rng.random() < 0.5:
            row[rng.randrange(width)] += F(1, rng.randint(1, 3))
        assert basis.raises(row) == (la.rank(rows + [row]) > basis.rank)


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
            coeffs = [F(rng.randint(-2, 2)) for _ in rows]
            row = [sum(c * r[j] for c, r in zip(coeffs, rows)) for j in range(ncols)]
        assert basis.raises(row) == (la.rank(rows + [row]) > basis.rank)
