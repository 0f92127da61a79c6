"""Graded character series of the resolution and its verdicts.

The degree-k piece of the function ring of the bundle K x_{Q cap K} (u cap p),
twisted by a character lam', is computed as the contragredient of the Euler
characteristic over the weight multiset Sym^k(u cap p) + lam'.  The pinned
one-line and rank-two examples fix the dualization placement uniquely; with
that convention the k = 0 piece of the untwisted series is the trivial
character and the degree-k dimensions reproduce the coordinate ring of the
normalized orbit closure.

Sym^0..Sym^N(u cap p) is built once per series as Counters (weight ->
multiplicity), each generator extending degree k from degree k - 1, so the
Bott step runs once per distinct weight of each degree, not once per
monomial.

Higher-cohomology vanishing is verified through its falsifiable consequence:
every graded Euler characteristic must have nonnegative multiplicities.
Twists must be integral weights: only those define a line bundle O(lam).
"""

from collections import Counter
from dataclasses import dataclass, field

from .bott import euler_of_weights
from .errors import InputError
from .grading import is_QK_dominant, parabolic
from .rootdata import (VirtualCharacter, kostant_partition, require_integral,
                       weyl_elements, zero_weight)

PASS = "PASS"
FAIL = "FAIL"
HYPOTHESIS_UNMET = "HYPOTHESIS-UNMET"


@dataclass
class GradedCharacterSeries:
    N: int
    chi: list  # chi[k] is a VirtualCharacter
    lam: object
    H: tuple
    form: str = ""

    def dims(self, kd):
        return [c.dimension(kd) for c in self.chi]


def sym_powers(weights, N, rank):
    """T-weights of Sym^0..Sym^N of a space with the given weight list, as
    Counters (weight -> multiplicity); Sym^0 is the zero weight of rank.

    For each weight g in turn, degree k gains g + (degree k - 1), taken in
    increasing k so that degree k - 1 already holds the powers of g.
    """
    sym = [Counter({zero_weight(rank): 1})] + [Counter() for _ in range(N)]
    for g in weights:
        for k in range(1, N + 1):
            cur = sym[k]
            for nu, m in sym[k - 1].items():
                cur[nu + g] += m
    return sym[:N + 1]


def sym_weights(weights, k):
    """T-weights of Sym^k of a space with the given weight multiset, listed
    with multiplicity."""
    if k < 0:
        raise InputError("negative symmetric power")
    rank = len(weights[0].d2) if weights else 0
    return list(sym_powers(weights, k, rank)[k].elements())


def euler_series(lam, gd, kd, N, form=""):
    """chi_k = dual(Euler(Sym^k(u cap p) + lam)) for k = 0..N."""
    require_integral(lam)
    chi = []
    for sym in sym_powers(gd.u_cap_p_weights(), N, gd.rs.rank):
        shifted = Counter({nu + lam: m for nu, m in sym.items()})
        chi.append(euler_of_weights(shifted, kd).dual(kd))
    return GradedCharacterSeries(N=N, chi=chi, lam=lam, H=gd.H.h_values, form=form)


@dataclass
class VanishingReport:
    status: str
    lam: object
    N: int
    violations: list = field(default_factory=list)
    series: GradedCharacterSeries = None

    @property
    def passed(self):
        return self.status == PASS


def verify_vanishing(lam, gd, kd, N, form=""):
    """Nonnegativity of every multiplicity in every chi_k, k <= N.

    Refuses (HYPOTHESIS-UNMET) when lam is not Q cap K dominant, since
    nothing is asserted outside that cone.  A non-integral lam defines no
    line bundle and raises InputError.
    """
    require_integral(lam)
    pd = parabolic(gd)
    if not is_QK_dominant(lam, pd, kd):
        return VanishingReport(status=HYPOTHESIS_UNMET, lam=lam, N=N)
    series = euler_series(lam, gd, kd, N, form=form)
    violations = []
    for k, chi in enumerate(series.chi):
        for w, m in chi.negatives():
            violations.append((k, w, m))
    status = PASS if not violations else FAIL
    return VanishingReport(status=status, lam=lam, N=N,
                           violations=violations, series=series)


def hilbert_series(gd, kd, N, form=""):
    """Dimensions of the graded pieces of the untwisted series."""
    lam = zero_weight(gd.rs.rank)
    return euler_series(lam, gd, kd, N, form=form).dims(kd)


@dataclass
class ComponentsResult:
    per_component: list
    total_chi: list
    total_dims: list


def components_split(gds, kd, N):
    """Per-component series and their direct sum.

    One graded decomposition per irreducible component; the normalization
    of a reducible cone is the disjoint union of the normalized components,
    so the total series is the termwise sum.
    """
    if not gds:
        raise InputError("components_split needs at least one component")
    per = [euler_series(zero_weight(gd.rs.rank), gd, kd, N) for gd in gds]
    total = []
    for k in range(N + 1):
        terms = Counter()
        for s in per:
            for w, m in s.chi[k].items():
                terms[w] += m
        total.append(VirtualCharacter(terms))
    dims = [c.dimension(kd) for c in total]
    return ComponentsResult(per_component=per, total_chi=total, total_dims=dims)


def blattner_multiplicity(mu, lam, gd, kd):
    """Total multiplicity of V_mu in the full series via an alternating sum.

    Convention (frozen after matching the series multiplicities on the two
    pinned rank <= 2 forms): with mu* the highest weight of the dual of
    V_mu,

        m(mu) = sum_w (-1)^len(w) P( w(mu* + rho_K) - rho_K - lam )

    where P counts partitions into the weights of u cap p.
    """
    if not kd.is_dominant(mu):
        raise InputError("mu must be K-dominant")
    require_integral(lam)
    rs = gd.rs
    ups = gd.u_cap_p_weights()
    mu_star = kd.dominant_representative(-mu)
    total = 0
    for w in weyl_elements(kd):
        arg = kd.apply(w, mu_star + kd.rho) - kd.rho - lam
        count = kostant_partition(rs, arg, ups)
        total += count if w.length % 2 == 0 else -count
    return total


def blattner_series_identity(gd, kd, lam, max_degree, form=""):
    """Cross-check the alternating sum against cumulative series multiplicities.

    The alternating sum counts every occurrence of a K-type in the full
    (untruncated) series, and a type can recur across degrees whenever the
    weights of u cap p have different heights.  For each type seen up to
    max_degree, the series is therefore extended past the last degree that
    could still contribute it before comparing.  Returns (ok, mismatches,
    number of types checked).
    """
    rs = gd.rs
    ups = gd.u_cap_p_weights()
    heights = [sum(rs.root_coords_of_weight(w)) for w in ups]
    min_h = min(heights) if heights else 1
    words = weyl_elements(kd)
    base = euler_series(lam, gd, kd, max_degree, form=form)
    mus = set()
    for chi in base.chi:
        mus.update(w for w, _ in chi.items())
    needed = {}
    k_far = max_degree
    for mu in mus:
        mu_star = kd.dominant_representative(-mu)
        k_mu = 0
        for w in words:
            nu = kd.apply(w, mu_star + kd.rho) - kd.rho - lam
            h = sum(rs.root_coords_of_weight(nu))
            if h >= 0:
                k_mu = max(k_mu, int(h // min_h))
        needed[mu] = k_mu
        k_far = max(k_far, k_mu)
    ext = euler_series(lam, gd, kd, k_far, form=form) if k_far > max_degree else base
    mismatches = []
    for mu in sorted(mus, key=lambda w: w.d2):
        cumulative = sum(chi.mult(mu) for chi in ext.chi[: needed[mu] + 1])
        alternating = blattner_multiplicity(mu, lam, gd, kd)
        if cumulative != alternating:
            mismatches.append((mu, cumulative, alternating))
    return not mismatches, mismatches, len(mus)


def qct_report(form, evidence):
    """Assemble single-orbit-closure and even-dimension evidence.

    Everything here is labeled EVIDENCE: full orbit enumeration is out of
    scope, so the report certifies non-membership where found and records
    sampled data otherwise.
    """
    if evidence.get("degenerate"):
        return {
            "form": form,
            "label": "EVIDENCE",
            "degenerate": True,
            "note": "p = 0: the cone is a point; both conditions are vacuous",
        }
    g1 = {
        "principal_orbit_dim": evidence["principal_orbit_dim"],
        "nilcone_dim": evidence["nilcone_dim"],
        "dims_equal": evidence["principal_orbit_dim"] == evidence["nilcone_dim"],
        "component_count_evidence": evidence["component_count"],
        "single_component_evidence": evidence["component_count"] == 1,
    }
    dims = sorted(evidence["sampled_orbit_dims"])
    even_grading = evidence.get("even_grading_orbit_dims", [])
    g2 = {
        # in-scope orbits: the dense elements of the confirmed even gradings
        "even_grading_orbit_dims": [list(pair) for pair in even_grading],
        "even_grading_all_even": all(d % 2 == 0 for _, d in even_grading),
        # raw random nilpotents, reported but not asserted: odd orbits exist
        "sampled_orbit_dims": dims,
        "parity_table": {d: dims.count(d) for d in sorted(set(dims))},
    }
    return {
        "form": form,
        "label": "EVIDENCE",
        "degenerate": False,
        "G1_evidence": g1,
        "G2_evidence": g2,
        "seed": evidence.get("seed"),
    }
