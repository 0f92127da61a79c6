"""Graded character series of the resolution and its verdicts.

The degree-k piece of the function ring of the bundle K x_{Q cap K} (u cap p),
twisted by a character lam', is the contragredient of the Euler
characteristic over the weight multiset Sym^k(u cap p) + lam'.  The pinned
one-line and rank-two examples fix the dualization placement uniquely; with
that convention the k = 0 piece of the untwisted series is the trivial
character and the degree-k dimensions reproduce the coordinate ring of the
normalized orbit closure.  By Serre duality dual(Euler(M)) = (-1)^{l(w0)}
Euler(-M - 2 rho_K), so the series is computed as the Euler characteristic
of Sym^k(-(u cap p)) shifted by -lam' - 2 rho_K, with no dualization.

Sym^0..Sym^N(-(u cap p)) is built once per call on weights packed as
single ints (see nilcone.bott), at a slot width derived from N, u cap p and
every twist of the call; a box of twists and the Blattner identity's P_k
read it, and the packing's table of Bott regularizations, keyed on packed
simple-coroot pairings, serves every twist and degree of the call and
every later call on the same K and slot width.

Higher-cohomology vanishing is verified through its falsifiable consequence:
every graded Euler characteristic must have nonnegative multiplicities.
Twists must be integral weights: only those define a line bundle O(lam).
"""

from dataclasses import dataclass, field
from operator import mul, neg

from .bott import euler_of_weights
from .errors import ConsistencyError, InputError
from .grading import _require_borel_of_k, is_QK_dominant, parabolic
from .rootdata import (_MATERIALIZE_LIMIT, _Packing, _packing, _partition_counts,
                       _phi, _reach, _weight_of, _width, require_integral,
                       zero_weight)

PASS = "PASS"
FAIL = "FAIL"
HYPOTHESIS_UNMET = "HYPOTHESIS-UNMET"


@dataclass
class GradedCharacterSeries:
    chi: list  # chi[k] is a VirtualCharacter
    form: str

    def dims(self, kd):
        return [c.dimension(kd) for c in self.chi]


def _sym(gens, N):
    """Sym^0..Sym^N of the packed generators gens, as dicts (packed weight
    -> multiplicity).  For each generator g in turn, degree k gains
    g + (degree k - 1), taken in increasing k so that degree k - 1 already
    holds the powers of g."""
    sym = [{0: 1}] + [{} for _ in range(N)]
    for g in gens:
        for k in range(1, N + 1):
            cur = sym[k]
            get = cur.get
            for nu, m in sym[k - 1].items():
                nu += g
                cur[nu] = get(nu, 0) + m
    return sym[:N + 1]


def sym_weights(weights, k):
    """T-weights of Sym^k of a space with the given weight multiset, listed
    with multiplicity."""
    if k < 0:
        raise InputError("negative symmetric power")
    d2s = [w.d2 for w in weights]
    packing = _Packing(len(d2s[0]) if d2s else 0, _width(k * _reach(d2s)))
    return [_weight_of(packing.unpack(nu + packing.bias))
            for nu, m in _sym(map(packing.pack, d2s), k)[k].items() for _ in range(m)]


def _series(lams, gd, kd, N, form):
    """(packing, syms, an iterator over the series of each twist in lams,
    in order; see the module docstring): syms is the one packed
    Sym^0..Sym^N(-(u cap p)), on a packing of K that bounds every Sym^k
    weight plus every shift of the call and whose table regularizes them.
    Each series is signed by (-1)^l(w0), l(w0) = |positive roots of K|.  A
    negative N, or an H whose Q cap K does not contain the Borel of K,
    raises InputError here, before any series."""
    if N < 0:
        raise InputError("degree bound N must be >= 0, got %d" % N)
    _require_borel_of_k(gd)
    gens = [tuple(map(neg, w.d2)) for w in gd.u_cap_p_weights()]
    two_rho = kd.rho + kd.rho
    shifts = [-lam - two_rho for lam in lams]
    packing = _packing(kd, N * _reach(gens) + _reach([s.d2 for s in shifts]))
    syms = _sym([packing.pack(g) for g in gens], N)
    odd = len(kd.positive_roots) % 2

    def series(shift):
        chi = [euler_of_weights(sym, shift, packing) for sym in syms]
        if odd:
            chi = [-c for c in chi]
        return GradedCharacterSeries(chi=chi, form=form)

    return packing, syms, map(series, shifts)


def euler_series(lam, gd, kd, N, form=""):
    """chi_k = dual(Euler(Sym^k(u cap p) + lam)) for k = 0..N."""
    require_integral(lam)
    return next(_series([lam], gd, kd, N, form)[2])


@dataclass
class VanishingReport:
    status: str
    lam: object
    violations: list = field(default_factory=list)
    series: GradedCharacterSeries = None


def verify_vanishing_box(lams, gd, kd, N, form=""):
    """The vanishing report of each twist in lams, yielded in input order.

    Every twist is checked for integrality here, before any report: a
    non-integral lam defines no line bundle and raises InputError.  A lam
    outside the Q cap K dominant cone is refused (HYPOTHESIS-UNMET), since
    nothing is asserted there; the others share one series engine.
    """
    lams = list(lams)
    for lam in lams:
        require_integral(lam)
    pd = parabolic(gd)
    inside = [is_QK_dominant(lam, pd, kd) for lam in lams]
    series = _series([lam for lam, ok in zip(lams, inside) if ok],
                     gd, kd, N, form)[2]
    return (_vanishing_report(lam, next(series) if ok else None)
            for lam, ok in zip(lams, inside))


def _vanishing_report(lam, series):
    if series is None:
        return VanishingReport(status=HYPOTHESIS_UNMET, lam=lam)
    violations = [(k, w, m) for k, chi in enumerate(series.chi)
                  for w, m in chi.negatives()]
    return VanishingReport(status=FAIL if violations else PASS, lam=lam,
                           violations=violations, series=series)


def verify_vanishing(lam, gd, kd, N, form=""):
    """Nonnegativity of every multiplicity in every chi_k, k <= N: the box
    of the one twist lam (see verify_vanishing_box)."""
    return next(verify_vanishing_box([lam], gd, kd, N, form))


def hilbert_series(gd, kd, N, form=""):
    """Dimensions of the graded pieces of the untwisted series."""
    lam = zero_weight(gd.rs.rank)
    return euler_series(lam, gd, kd, N, form=form).dims(kd)


@dataclass
class ComponentsResult:
    per_component: list
    total_dims: list


def components_split(gds, kd, N):
    """Per-component series and their direct sum.

    One graded decomposition per irreducible component; the normalization
    of a reducible cone is the disjoint union of the normalized components,
    so the total series is the termwise sum, and since a dimension is
    linear in the character, its dims are the sums of the components' dims.
    """
    if not gds:
        raise InputError("components_split needs at least one component")
    per = [euler_series(zero_weight(gd.rs.rank), gd, kd, N) for gd in gds]
    dims = [sum(d) for d in zip(*(s.dims(kd) for s in per))]
    return ComponentsResult(per_component=per, total_dims=dims)


def blattner_multiplicity(mu, lam, gd, kd):
    """Total multiplicity of V_mu in the full series via an alternating sum.

    Convention (frozen after matching the series multiplicities on the two
    pinned rank <= 2 forms): with mu* the highest weight of the dual of
    V_mu,

        m(mu) = sum_w (-1)^len(w) P( w(mu* + rho_K) - rho_K - lam )

    where P counts partitions into the weights of u cap p.  The sum walks
    W_K (_blattner_terms) from the identity up by length and skips every w
    whose argument a(w) has phi(a(w)) < 0, phi = M (H-degree) + height
    with M one more than the largest |height| of a weight of u cap p.  phi
    is positive on every weight of u cap p, so P(a(w)) = 0 there, and it
    only falls as the length rises, so every w whose term can be nonzero is
    reached: at mu = lam = 0 only the identity is.  One call of
    rootdata._partition_counts, pruned by the same phi, counts every P.
    """
    if not kd.is_dominant(mu):
        raise InputError("mu must be K-dominant")
    require_integral(lam)
    _require_borel_of_k(gd)
    terms = _blattner_terms(mu, lam, gd, kd)
    counts = _partition_counts([w.d2 for w in gd.u_cap_p_weights()], _walk_phi(gd),
                               [arg.d2 for arg, _ in terms])
    return sum(sign * p for (_, sign), p in zip(terms, counts))


def _walk_phi(gd):
    """phi of blattner_multiplicity, as an int vector on d2 (rootdata._phi)."""
    top = 1 + max((abs(sum(r.coords)) for r in gd.u_cap_p), default=0)
    return _phi(gd.rs, [top * h + 1 for h in gd.H.h_values])


def _blattner_terms(mu, lam, gd, kd):
    """The terms (a(w), (-1)^l(w)), a(w) = w(mu* + rho_K) - rho_K - lam, of
    the alternating sum over the w in W_K with phi(a(w)) >= 0 (see
    blattner_multiplicity): P and every P_k vanish at every other a(w).

    The walk starts at x = mu* + rho_K and goes breadth first by length,
    so the sign is the parity of the layer.  x is regular, so s_i w is
    longer than w exactly when p = <w x, beta_i^vee> > 0, and a(s_i w) =
    a(w) - p beta_i; phi(beta_i) > 0 (its degree is >= 0 under
    _require_borel_of_k, its height >= 1), so phi falls along every
    length-raising path, and each w with phi(a(w)) >= 0 is reached through
    elements that have it too.  A step lowers phi by 2p, read off the
    pairing slot, times phi(fw(beta_i)), so a child is reflected
    (_Packing.reflect; x is packed with zero, the linear action) only when
    it is kept; the next layer dedups on the packed image.  A walk keeping
    more than _MATERIALIZE_LIMIT images raises weyl_elements' error.
    """
    phi = _walk_phi(gd)
    steps = [sum(map(mul, phi, fw)) for fw in kd._simple_fw]
    mu_star = kd.dominant_representative(-mu)
    off = kd.rho + lam
    x = mu_star + kd.rho
    packing = _packing(kd, _reach([x.d2]))
    reflect, unpack, pairings = packing.reflect, packing.unpack, packing.pairings
    start = sum(map(mul, phi, (mu_star - lam).d2))  # phi(a(1))
    layer = {packing.pack(x.d2) + packing.zero: start} if start >= 0 else {}
    terms, sign, kept = [], 1, 0
    while layer:
        kept += len(layer)
        if kept > _MATERIALIZE_LIMIT:
            raise ConsistencyError("refusing to materialize a Weyl group of "
                                   "more than 10^6 elements")
        nxt = {}
        for q, f in layer.items():
            terms.append((_weight_of(unpack(q)) - off, sign))
            for i, p in enumerate(pairings(q)):
                if p > 0:
                    g = f - p * steps[i]
                    if g >= 0:
                        nxt[reflect(q, i)] = g
        layer, sign = nxt, -sign
    return terms


def blattner_series_identity(gd, kd, lam, max_degree, form=""):
    """Cross-check the series against the alternating sum, degree by degree.

    Degree k of the series is dual(Euler(Sym^k(u cap p) + lam)), so the
    multiplicity of V_mu there is blattner_multiplicity's sum with P
    replaced by P_k(a), the multiplicity of pack(-a) in the series' own
    packed Sym^k(-(u cap p)).  A term whose largest |d2| entry exceeds
    max_degree times that of u cap p is skipped: no weight of Sym^k lies
    that far out, and the packing is injective on the rest.  For each type
    seen in degrees 0..max_degree, its series multiplicity and its
    alternating sum are compared at each of those degrees on its own; no
    higher degree is covered.  Returns (ok, mismatches, number of types
    checked), a mismatch being (mu, series multiplicities by degree,
    alternating sums by degree).
    """
    require_integral(lam)
    packing, syms, one = _series([lam], gd, kd, max_degree, form)
    chi = next(one).chi
    bound = max_degree * _reach([w.d2 for w in gd.u_cap_p_weights()])
    mus = {w for c in chi for w, _ in c.items()}
    mismatches = []
    for mu in sorted(mus, key=lambda w: w.d2):
        keys = [(-packing.pack(a.d2), sign) for a, sign in _blattner_terms(mu, lam, gd, kd)
                if _reach([a.d2]) <= bound]
        series = [c.mult(mu) for c in chi]
        alternating = [sum(sign * sym.get(key, 0) for key, sign in keys) for sym in syms]
        if series != alternating:
            mismatches.append((mu, series, alternating))
    return not mismatches, mismatches, len(mus)
