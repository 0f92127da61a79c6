"""The benchmark's three workloads: set-up, jobs and output encoding.

Each workload's ``setup(program_seed)`` builds everything a job needs
before the clock starts: the root systems, graded decompositions, K root
data and (where the workload uses the matrix model) the ``oracle.realize``
model of every form.  It returns a list of ``Job``s.  ``Job.run`` calls the
public ``nilcone`` functions and returns their raw result; ``Job.encode``
turns that result into plain JSON data, which is what the pins store.

Only the library's public functions are called; nothing under ``src/`` is
edited or monkey-patched here (tracing lives in ``spans.py``).
"""

from dataclasses import dataclass
from fractions import Fraction
from itertools import product
from typing import Callable

from nilcone import cli
from nilcone import grading as gr
from nilcone import oracle as oc
from nilcone import series as se
from nilcone.realform import principal_presentation, standard_form_catalog
from nilcone.rootdata import Weight, zero_weight


@dataclass
class Job:
    name: str
    run: Callable[[], object]
    encode: Callable[[object], object]


def _fr(c):
    return str(c) if Fraction(c).denominator != 1 else int(c)


def _weight(lam):
    return [_fr(c) for c in lam.fw]


def _character(chi):
    return [[_weight(w), m] for w, m in chi.items()]


def _matrix(m):
    return [[str(v) for v in row] for row in m]


def qk_dominant_box(rs, pd, kd, bound=2):
    """Q cap K dominant twists with entries in [-bound, bound].

    The same box ``nilcone verify`` sweeps in its vanishing check; it is
    rebuilt here from public functions so that the benchmark's inputs do
    not move when the pipeline's private helpers do.
    """
    out = []
    for coords in product(range(-bound, bound + 1), repeat=rs.rank):
        lam = Weight(tuple(Fraction(c) for c in coords))
        if not gr.is_QK_dominant(lam, pd, kd):
            continue
        if any(kd.rs.pairing(lam, b) > 2 * bound for b in kd.simple_roots):
            continue
        out.append(lam)
    return out


# ---------------------------------------------------------------------------
# verify-pinned: the `nilcone verify` command on the four pinned forms
# ---------------------------------------------------------------------------

PINNED_FORMS = ("su(1,1)", "su(2,1)", "sp(4,R)", "su(2,2)")


def _strip_timings(report):
    out = dict(report)
    out["checks"] = [{k: v for k, v in c.items() if k != "seconds"}
                     for c in report["checks"]]
    return out


def setup_verify_pinned(program_seed, timings=False):
    jobs = []
    for form in PINNED_FORMS:
        rs, eps, h_values = principal_presentation(form)
        oc.realize(form, eps=eps)
        gr.grade(rs, eps, h_values).k_root_datum()

        def run(form=form):
            return cli.verify_form(form, N=6, seed=program_seed, kmax=3,
                                   timings=timings)

        jobs.append(Job("verify " + form, run, _strip_timings))
    return jobs


# ---------------------------------------------------------------------------
# characters: series, Bott and Weyl work with no matrix model
# ---------------------------------------------------------------------------

def _graded(form, h_values=None):
    if h_values is None:
        rs, eps, h_values = principal_presentation(form)
    else:
        rs, eps = standard_form_catalog(form)
    gd = gr.grade(rs, eps, h_values)
    return gd, gd.k_root_datum(), gr.parabolic(gd)


def _vanishing_reports(reports):
    out = []
    for rep in reports:
        out.append({
            "lambda": _weight(rep.lam),
            "status": rep.status,
            "violations": [[k, _weight(w), m] for k, w, m in rep.violations],
            "chi": [_character(c) for c in rep.series.chi],
        })
    return out


def _identity(result):
    ok, mismatches, count = result
    return {"ok": ok, "types_checked": count,
            "mismatches": [[_weight(mu), c, b] for mu, c, b in mismatches]}


def setup_characters(program_seed, timings=False):
    del program_seed, timings  # no randomness and no pipeline in this workload
    gd22, kd22, pd22 = _graded("su(2,2)")
    box22 = qk_dominant_box(gd22.rs, pd22, kd22)
    gd8, kd8, pd8 = _graded("so*(8)", (0, 0, 0, 2))
    box8 = qk_dominant_box(gd8.rs, pd8, kd8)
    gd44, kd44, _ = _graded("su(4,4)", (0, 0, 0, 2, 0, 0, 0))
    zero8 = zero_weight(4)
    zero44 = zero_weight(7)
    return [
        Job("vanishing su(2,2) box",
            lambda: [se.verify_vanishing(lam, gd22, kd22, 6, form="su(2,2)")
                     for lam in box22],
            _vanishing_reports),
        Job("vanishing so*(8) box",
            lambda: [se.verify_vanishing(lam, gd8, kd8, 6, form="so*(8)")
                     for lam in box8],
            _vanishing_reports),
        Job("hilbert su(2,2) N=14",
            lambda: se.hilbert_series(gd22, kd22, 14, form="su(2,2)"),
            list),
        Job("hilbert so*(8) N=10",
            lambda: se.hilbert_series(gd8, kd8, 10, form="so*(8)"),
            list),
        Job("blattner identity so*(8)",
            lambda: se.blattner_series_identity(gd8, kd8, zero8, 2,
                                                form="so*(8)"),
            _identity),
        Job("blattner su(4,4) mu=0",
            lambda: se.blattner_multiplicity(zero44, zero44, gd44, kd44),
            int),
    ]


# ---------------------------------------------------------------------------
# catalog-search: grading search, orbit dimensions and sl(2) triples
# ---------------------------------------------------------------------------

SEARCHED_FORMS = ("su(3,1)", "so*(6)", "sp(1,2)", "sp(6,R)", "su(3,2)")


def _catalog_form(form, rs, eps, real, seed):
    hits = gr.search_even_gradings(rs, eps,
                                   confirm=oc.dense_confirmer(real, seed))
    graded = []
    for hit in hits:
        if not hit.confirmed:
            continue
        h = real.cartan_element_from_h(hit.H.h_values)
        ok, detail = oc.verify_grading_dims(real, h, gr.grade(rs, eps, hit.H.h_values))
        graded.append((hit.H.h_values, ok, detail))
    cone_dim = oc.nilcone_dimension(real, seed)
    x = oc.principal_nilpotent_search(real, seed)
    orbit_dim = oc.orbit_dimension(real, x)
    triple = oc.ks_normalize(real, oc.jm_triple(real, x))
    return {
        "form": form,
        "hits": [[list(hit.H.h_values), hit.confirmed] for hit in hits],
        "graded": [{"H": list(h), "match": ok,
                    "layers": {str(d): [list(v["matrix"]), list(v["combinatorial"])]
                               for d, v in detail.items()}}
                   for h, ok, detail in graded],
        "nilcone_dim": cone_dim,
        "orbit_dim": orbit_dim,
        "identities_exact": triple.normalized_identities_hold(real),
        "H": _matrix(triple.H),
        "X": _matrix(triple.X),
        "Y": _matrix(triple.Y),
    }


def setup_catalog_search(program_seed, timings=False):
    del timings
    jobs = []
    for form in SEARCHED_FORMS:
        rs, eps = standard_form_catalog(form)
        real = oc.realize(form)
        gr.grade(rs, eps, (0,) * rs.rank).k_root_datum()
        jobs.append(Job("catalog " + form,
                        lambda a=(form, rs, eps, real, program_seed): _catalog_form(*a),
                        lambda out: out))
    return jobs


WORKLOADS = {
    "verify-pinned": setup_verify_pinned,
    "characters": setup_characters,
    "catalog-search": setup_catalog_search,
}

