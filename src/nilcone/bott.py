"""Line-bundle cohomology on the flag variety of K, Bott style.

Convention, pinned operationally: a K-dominant input weight lam gives
H^0 = ch V_lam and nothing else; if lam + rho_K lies on a wall everything
vanishes; otherwise the unique w making w(lam + rho_K) strictly dominant
contributes ch V_{w.lam} in degree length(w).  Euler characteristics of
weight multisets are the signed sums of these contributions, which is the
additive extension of the Weyl character formula numerator.  w.lam - lam
depends only on lam's pairings with the simple coroots of K, so one table
keyed on those pairings, shared by a caller over many shifted multisets (a
box of twists, every degree of a series), regularizes each pairing once.

The sum runs on packed ints (_Packing): a weight is one int whose slots
hold its doubled pairings with the simple coroots of K and its d2
coordinates.  Packing is linear, so a shift is one int add, the pairing key
is one mask, the table stores w.lam - lam packed and the dominant term is
one more add.  Weights are unpacked only for the distinct terms of the sum.
"""

import struct
from collections import Counter
from dataclasses import dataclass, field
from operator import mul

from .rootdata import (VirtualCharacter, Weight, _weight_of, make_dominant,
                       require_integral)


@dataclass
class CohomologyResult:
    """Cohomology of one line bundle: at most one nonzero degree."""

    per_degree: dict = field(default_factory=dict)

    def total_dimension(self, sub):
        return sum(vc.dimension(sub) for vc in self.per_degree.values())


def line_cohomology(lam, kd):
    require_integral(lam)
    w, dom, singular = make_dominant(kd, lam)
    if singular:
        return CohomologyResult({})
    return CohomologyResult({w.length: VirtualCharacter.irreducible(dom)})


_FORMATS = {8: "b", 16: "h", 32: "i", 64: "q"}


class _Packing:
    """Weights of a rank-r root system as single ints, W-bit slots low first.

    pack(d2) is linear: slot i < len(coroots) holds the dot product of d2
    with coroots[i], slot len(coroots) holds 0 and slot len(coroots) + 1 + j
    holds d2[j].  Adding bias puts 2^(W-1) + 2 in each pairing slot (the +2
    is rho_K's doubled pairing), W in the middle slot and 2^(W-1) in each d2
    slot; a slot value v with |v| < 2^(W-1) is then the W-bit digit
    v + 2^(W-1).  W is the least power of two >= 8 with bound < 2^(W-1), so
    the caller's bound on every slot value it will bias must hold.  The
    middle slot is in the key (low slots), so keys of two packings of one K
    never coincide and a table shared across calls never mixes packings.
    """

    def __init__(self, rank, coroots, bound):
        width = 8
        while bound >= 1 << (width - 1):
            width *= 2
        half = 1 << (width - 1)
        nk = len(coroots)
        self.width = width
        self.key_mask = (1 << (width * (nk + 1))) - 1
        self._units = [sum(v[j] << (width * i) for i, v in enumerate(coroots))
                       + (1 << (width * (nk + 1 + j))) for j in range(rank)]
        self.bias = (sum((half + 2) << (width * i) for i in range(nk))
                     + (width << (width * nk))
                     + sum(half << (width * (nk + 1 + j)) for j in range(rank)))
        self._d2_at = width * (nk + 1)
        self._signs = sum(half << (width * j) for j in range(rank))
        self._nbytes = rank * width // 8
        fmt = _FORMATS.get(width)
        self._struct = struct.Struct("<%d%s" % (rank, fmt)) if fmt else None

    def pack(self, d2):
        return sum(map(mul, d2, self._units))

    def unpack(self, t):
        """The d2 tuple of a biased packed weight t.  XOR with the sign
        mask turns each digit v + 2^(W-1) into v as a signed W-bit int."""
        raw = ((t >> self._d2_at) ^ self._signs).to_bytes(self._nbytes, "little")
        if self._struct is not None:
            return self._struct.unpack(raw)
        n = self.width // 8
        return tuple(int.from_bytes(raw[i:i + n], "little", signed=True)
                     for i in range(0, len(raw), n))

    def regularize(self, kd, key):
        """The table entry of a pairing key: (w.lam - lam packed, (-1)^l(w)),
        or None when lam + rho_K lies on a wall.  Every miss of the Bott sum
        regularizes here."""
        width, half = self.width, 1 << (self.width - 1)
        digit = (1 << width) - 1
        p = [((key >> (width * i)) & digit) - half for i in range(kd.rank)]
        word, corr = kd._regularize(p)
        if 0 in p:
            return None
        return self.pack(corr), -1 if len(word) % 2 else 1


def _packing(kd, reach):
    """The Bott packing of K for shifted weights lam whose d2 entries are at
    most reach in absolute value.

    Every d2 entry of w(lam + rho_K), w in W_K, and every pairing with a
    simple coroot of K is the pairing of lam + rho_K with a coroot of G, so
    at most the height of the highest coroot times the largest d2 entry of
    lam + rho_K; that bounds every slot, the dominant terms included.
    """
    rs = kd.rs
    height = max(sum(rs.coroot_vector(r)) for r in rs.positive_roots)
    rho = max(map(abs, kd.rho.d2))
    return _Packing(rs.rank, kd._simple_coroots, height * (reach + rho) + rho)


class _Table(dict):
    """A regularization table bound to the packing of its keys: given as
    seen, it tells euler_of_weights that the weights come packed with it."""

    def __init__(self, packing):
        super().__init__()
        self.packing = packing


def _reach(d2s):
    """The largest absolute entry of the d2 tuples d2s (0 for none)."""
    return max((abs(x) for d2 in d2s for x in d2), default=0)


def euler_of_weights(weights, kd, shift=None, seen=None):
    """Signed Bott contribution summed over the multiset weights + shift.

    weights is a list or a Counter (weight -> multiplicity) of Weights or of
    their d2 int tuples; they are packed (see _Packing) with a width derived
    from them and the shift.  seen, owned by the caller, maps the packed
    simple-coroot pairings of a shifted weight to (its packed correction
    w.lam - lam, sign), or to None on a wall; _Packing.regularize runs once
    per key missing from it.  nilcone.series passes a _Table as seen and
    weights already packed with its packing, as a dict of multiplicities.
    """
    sd2 = (0,) * kd.rs.rank if shift is None else shift.d2
    if seen.__class__ is _Table:
        packing, packed = seen.packing, weights
    else:
        counts = Counter(weights)
        d2s = [lam.d2 if lam.__class__ is Weight else lam for lam in counts]
        packing = _packing(kd, _reach(d2s) + _reach([sd2]))
        packed = {}
        for d2, mult in zip(d2s, counts.values()):
            nu = packing.pack(d2)
            packed[nu] = packed.get(nu, 0) + mult
        if seen is None:
            seen = {}
    base = packing.pack(sd2) + packing.bias
    mask = packing.key_mask
    total = {}
    for nu, mult in packed.items():
        q = nu + base
        key = q & mask
        try:
            hit = seen[key]
        except KeyError:
            hit = seen[key] = packing.regularize(kd, key)
        if hit is not None:
            dom = q + hit[0]
            total[dom] = total.get(dom, 0) + hit[1] * mult
    unpack = packing.unpack
    return VirtualCharacter({_weight_of(unpack(dom)): m
                             for dom, m in total.items() if m})
