"""Line-bundle cohomology on the flag variety of K, Bott style.

Convention, pinned operationally: a K-dominant input weight lam gives
H^0 = ch V_lam and nothing else; if lam + rho_K lies on a wall everything
vanishes; otherwise the unique w making w(lam + rho_K) strictly dominant
contributes ch V_{w.lam} in degree length(w).  Euler characteristics of
weight multisets are the signed sums of these contributions, which is the
additive extension of the Weyl character formula numerator.  A multiset is
taken as weight -> multiplicity, so each distinct weight is regularized
once and its contribution scaled by its multiplicity.  A caller that sums
many shifted multisets (a box of twists, every degree of a series) passes
one table of regularizations to every call, so each distinct shifted
weight is regularized once per caller, not once per multiset.
"""

from collections import Counter
from dataclasses import dataclass, field
from operator import add

from .rootdata import (VirtualCharacter, _weight_of, make_dominant,
                       require_integral)


@dataclass
class CohomologyResult:
    """Cohomology of one line bundle: at most one nonzero degree."""

    per_degree: dict = field(default_factory=dict)

    def degree(self):
        return next(iter(self.per_degree)) if self.per_degree else None

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

    weights is a list of weights or a Counter (weight -> multiplicity); both
    go through Counter(weights), so make_dominant runs at most once per
    distinct weight.  seen, owned by the caller, maps the d2 of a shifted
    weight to (d2 of its dominant weight, sign), or to None on a wall; a
    table reused across calls regularizes each shifted weight once.
    """
    if seen is None:
        seen = {}
    total = {}
    for lam, mult in Counter(weights).items():
        key = lam.d2 if shift is None else tuple(map(add, lam.d2, shift.d2))
        if key not in seen:
            w, dom, singular = make_dominant(kd, _weight_of(key))
            seen[key] = None if singular else (dom.d2, -1 if w.length % 2 else 1)
        hit = seen[key]
        if hit is not None:
            dom, sign = hit
            total[dom] = total.get(dom, 0) + sign * mult
    return VirtualCharacter({_weight_of(d): m for d, m in total.items()})
