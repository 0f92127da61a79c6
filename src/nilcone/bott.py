"""Line-bundle cohomology on the flag variety of K, Bott style.

Convention, pinned operationally: a K-dominant input weight lam gives
H^0 = ch V_lam and nothing else; if lam + rho_K lies on a wall everything
vanishes; otherwise the unique w making w(lam + rho_K) strictly dominant
contributes ch V_{w.lam} in degree length(w).  Euler characteristics of
weight multisets are the signed sums of these contributions, which is the
additive extension of the Weyl character formula numerator.  w.lam - lam
depends only on lam's pairings with the simple coroots of K, so the
packing's table, keyed on those pairings and shared by every shifted
multiset on that packing (a box of twists, every degree of a series, every
series on one K), regularizes each pairing once.

euler_of_weights takes one form, the multiset packed (_Packing, in
nilcone.rootdata) as nilcone.series builds Sym^k: a weight is one int
whose slots hold its doubled pairings with the simple coroots of K and its
d2 coordinates.  Packing is linear, so a shift is one int add, the pairing
key is one mask, the table stores w.lam - lam packed above one bit for the
parity of l(w), and the dominant term is one more add.  A table miss
sweeps its key with the packed reflection kernel that make_dominant uses,
and its sign counts the reflections.

A character is packed from the moment it is built: the Bott sum's terms,
and the one term of line_cohomology, are packed weights of a packing of K,
held in a VirtualCharacter until a caller reads a weight.
"""

from dataclasses import dataclass

from .rootdata import (VirtualCharacter, _packing, _reach, make_dominant,
                       require_integral)


@dataclass
class CohomologyResult:
    """Cohomology of one line bundle: at most one nonzero degree."""

    per_degree: dict

    def total_dimension(self, sub):
        return sum(vc.dimension(sub) for vc in self.per_degree.values())


def line_cohomology(lam, kd):
    """H^*(K/B_K, O(lam)): the degree l(w) of make_dominant's w and its one
    term w.lam, packed with the packing of kd that holds lam (_packing's
    slot bound covers w(lam + rho_K) - rho_K), or nothing on a wall."""
    require_integral(lam)
    w, dom, singular = make_dominant(kd, lam)
    if singular:
        return CohomologyResult({})
    packing = _packing(kd, _reach([lam.d2]))
    return CohomologyResult(
        {w.length: VirtualCharacter(packing, {packing.pack(dom.d2) + packing.bias: 1})})


def euler_of_weights(packed, shift, packing):
    """Signed Bott contribution summed over the multiset packed + shift.

    packed maps weights packed with packing (see _Packing) to their
    multiplicities, and shift is a Weight; packing's width must hold every
    shifted weight.  packing.table maps the packed pairings of a shifted
    weight to its entry (see _Packing.regularize): the packed correction
    w.lam - lam shifted left once, the low bit set when l(w) is odd, or
    None on a wall; packing.regularize runs once per key missing from it.
    """
    base = packing.pack(shift.d2) + packing.bias
    mask, table = packing.key_mask, packing.table
    total = {}
    for nu, mult in packed.items():
        q = nu + base
        key = q & mask
        try:
            hit = table[key]
        except KeyError:
            hit = table[key] = packing.regularize(key)
        if hit is not None:
            dom = q + (hit >> 1)
            total[dom] = total.get(dom, 0) + (-mult if hit & 1 else mult)
    return VirtualCharacter(packing, {dom: m for dom, m in total.items() if m})
