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
"""

from collections import Counter
from dataclasses import dataclass, field
from operator import add, sub as minus

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


def euler_of_weights(weights, kd, shift=None, seen=None):
    """Signed Bott contribution summed over the multiset weights + shift.

    weights is a list or a Counter (weight -> multiplicity) of Weights or of
    their d2 int tuples.  seen, owned by the caller, maps the simple-coroot
    pairings of a shifted weight to (its d2 correction w.lam - lam, sign), or
    to None on a wall; make_dominant runs once per pairing missing from it.
    """
    if seen is None:
        seen = {}
    sd2 = (0,) * kd.rs.rank if shift is None else shift.d2
    total = {}
    for lam, mult in Counter(weights).items():
        d2 = tuple(map(add, lam.d2 if lam.__class__ is Weight else lam, sd2))
        key = tuple(kd._pairings(d2))
        if key not in seen:
            w, dom, singular = make_dominant(kd, _weight_of(d2))
            seen[key] = None if singular else (tuple(map(minus, dom.d2, d2)),
                                               -1 if w.length % 2 else 1)
        hit = seen[key]
        if hit is not None:
            dom = tuple(map(add, d2, hit[0]))
            total[dom] = total.get(dom, 0) + hit[1] * mult
    return VirtualCharacter({_weight_of(d): m for d, m in total.items()})
