"""Line-bundle cohomology on the flag variety of K, Bott style.

Convention, pinned operationally: a K-dominant input weight lam gives
H^0 = ch V_lam and nothing else; if lam + rho_K lies on a wall everything
vanishes; otherwise the unique w making w(lam + rho_K) strictly dominant
contributes ch V_{w.lam} in degree length(w).  Euler characteristics of
weight multisets are the signed sums of these contributions, which is the
additive extension of the Weyl character formula numerator.  A multiset is
taken as weight -> multiplicity, so each distinct weight is regularized
once and its contribution scaled by its multiplicity.
"""

from collections import Counter
from dataclasses import dataclass, field

from .rootdata import VirtualCharacter, make_dominant, require_integral


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


def euler_of_weights(weights, kd):
    """Signed Bott contribution summed over a weight multiset.

    weights is a list of weights or a Counter (weight -> multiplicity); both
    go through Counter(weights), so make_dominant runs once per distinct
    weight.
    """
    total = {}
    for lam, mult in Counter(weights).items():
        w, dom, singular = make_dominant(kd, lam)
        if singular:
            continue
        total[dom] = total.get(dom, 0) + (mult if w.length % 2 == 0 else -mult)
    return VirtualCharacter(total)
