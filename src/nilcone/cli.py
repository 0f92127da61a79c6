"""Command-line front end and the one-shot verification pipeline.

Subcommands mirror the library: grade, bott, verify-vanishing, hilbert,
blattner, components, qct-report, oracle (triple / hilbert / verify-grading),
verify (everything for one form), run (config file).  Output is JSON, and
hilbert --csv-out also writes a k,dim table.  Exit codes: 0 all checks
pass, 1 a violation was found, 2 inconclusive (a search ran out of budget),
hypothesis unmet or input error (an unwritable output path included).

Reports are bit-identical for identical (config, seed, version); wall-clock
timings are only included when --timings is passed.
"""

import argparse
import json
import sys
import time
from fractions import Fraction
from itertools import product
from operator import mul

from . import __version__
from . import bott as bott_mod
from . import grading as gr
from . import oracle as oc
from . import series as se
from .errors import DiagnosticError, InputError, OutOfScopeError
from .realform import (EqualRankInvolution, principal_presentation,
                       standard_form_catalog)
from .rootdata import (Root, Weight, _weight_of, build_root_system,
                       weight_to_json, zero_weight)

EXIT_PASS = 0
EXIT_FAIL = 1
EXIT_INPUT = 2

INCONCLUSIVE = "INCONCLUSIVE"


def _parse_ints(text):
    try:
        return tuple(int(x) for x in text.split(","))
    except (AttributeError, ValueError) as exc:
        raise InputError("expected comma-separated integers, got %r" % text) from exc


def _resolve_form(args):
    if args.form:
        return (args.form, *standard_form_catalog(args.form))
    if args.type:
        if args.rank is None:
            raise InputError("--type needs --rank")
        rs = build_root_system(args.type, args.rank)
        eps = EqualRankInvolution(_parse_ints(args.epsilon))
        if len(eps.epsilon) != rs.rank:
            raise InputError("epsilon length %d != rank %d" % (len(eps.epsilon), rs.rank))
        return "%s%d:%s" % (args.type, args.rank, args.epsilon), rs, eps
    raise InputError("specify --form or --type/--rank/--epsilon")


def _write(path, text):
    """The one writer of an output file; an unwritable path is an InputError."""
    try:
        with open(path, "w") as fh:
            fh.write(text)
    except OSError as exc:
        raise InputError("cannot write %s: %s" % (path, exc)) from exc


def _json(payload):
    """A report as stdout, --json-out and a job's out file hold it."""
    return json.dumps(payload, indent=2, sort_keys=True) + "\n"


def _emit(args, payload):
    text = _json(payload)
    if args.json_out:
        _write(args.json_out, text)
    print(text, end="")


def _vc_decomposition(vc):
    return [{"weight": weight_to_json(w), "mult": m} for w, m in vc.items()]


# ---------------------------------------------------------------------------
# subcommands
# ---------------------------------------------------------------------------

def cmd_grade(args):
    label, rs, eps = _resolve_form(args)
    gd = gr.grade(rs, eps, _parse_ints(args.H))
    pd = gr.parabolic(gd)
    layers = {}
    for d in gd.degrees:
        k_roots, p_roots = gd.layers[d]
        layers[str(d)] = {
            "k_roots": [list(r.coords) for r in k_roots],
            "p_roots": [list(r.coords) for r in p_roots],
            "dims": list(gd.dims(d)),
        }
    _emit(args, {
        "form": label,
        "H": list(gd.H.h_values),
        "layers": layers,
        "two_rho_u_p": weight_to_json(pd.two_rho_u_p),
        "two_rho_u_k": weight_to_json(pd.two_rho_u_k),
        "canonical_weight": weight_to_json(pd.canonical_weight),
    })
    return EXIT_PASS


def cmd_bott(args):
    label, rs, eps = _resolve_form(args)
    kd = gr.grade(rs, eps, (0,) * rs.rank).k_root_datum()
    lam = _integral_weight(_parse_ints(args.weight), rs.rank)
    res = bott_mod.line_cohomology(lam, kd)
    per_degree = {str(d): _vc_decomposition(vc) for d, vc in res.per_degree.items()}
    _emit(args, {"form": label, "weight": weight_to_json(lam),
                 "per_degree": per_degree,
                 "total_dim": res.total_dimension(kd)})
    return EXIT_PASS


def _series_context(args):
    label, rs, eps = _resolve_form(args)
    gd = gr.grade(rs, eps, _parse_ints(args.H))
    kd = gd.k_root_datum()
    return label, rs, eps, gd, kd


def cmd_verify_vanishing(args):
    label, rs, eps, gd, kd = _series_context(args)
    lam = _integral_weight(_parse_ints(args.lam), rs.rank)
    report = se.verify_vanishing(lam, gd, kd, args.N, form=label)
    payload = {
        "form": label,
        "H": list(gd.H.h_values),
        "lambda": weight_to_json(lam),
        "N": args.N,
        "verdict": report.status,
        "per_degree": [],
    }
    if report.series is not None:
        for k, chi in enumerate(report.series.chi):
            payload["per_degree"].append({
                "k": k,
                "dims": chi.dimension(kd),
                "decomposition": _vc_decomposition(chi),
                "violations": [[kk, weight_to_json(w), m]
                               for kk, w, m in report.violations if kk == k],
            })
    _emit(args, payload)
    return _exit_code(report.status)


def cmd_hilbert(args):
    label, rs, eps, gd, kd = _series_context(args)
    dims = se.hilbert_series(gd, kd, args.N, form=label)
    if args.csv_out:
        _write(args.csv_out, "k,dim\n" + "".join("%d,%d\n" % row
                                                  for row in enumerate(dims)))
    _emit(args, {"form": label, "H": list(gd.H.h_values), "N": args.N, "dims": dims})
    return EXIT_PASS


def cmd_blattner(args):
    label, rs, eps, gd, kd = _series_context(args)
    mu = _integral_weight(_parse_ints(args.mu), rs.rank)
    lam = _integral_weight(_parse_ints(args.lam), rs.rank)
    m = se.blattner_multiplicity(mu, lam, gd, kd)
    _emit(args, {"form": label, "mu": weight_to_json(mu),
                 "lambda": weight_to_json(lam), "multiplicity": m})
    return EXIT_PASS


def cmd_components(args):
    label, rs, eps = _resolve_form(args)
    gds = [gr.grade(rs, eps, _parse_ints(h)) for h in args.H]
    kd = gds[0].k_root_datum()
    result = se.components_split(gds, kd, args.N)
    _emit(args, {
        "form": label,
        "components": [list(g.H.h_values) for g in gds],
        "per_component_dims": [s.dims(kd) for s in result.per_component],
        "total_dims": result.total_dims,
    })
    return EXIT_PASS


def cmd_qct(args):
    _emit(args, dict(oc.qct_evidence(oc.realize(args.form), args.seed),
                     form=args.form))
    return EXIT_PASS


def cmd_oracle(args):
    label, real = args.form, oc.realize(args.form)
    if args.oracle_cmd == "triple":
        x = oc.principal_nilpotent_search(real, args.seed)
        triple = oc.ks_normalize(real, oc.jm_triple(real, x))
        _emit(args, {
            "form": label,
            "seed": args.seed,
            "orbit_dim": oc.orbit_dimension(real, x),
            "nilcone_dim": oc.nilcone_dimension(real),
            "identities_exact": triple.normalized_identities_hold(real),
            "H": [[str(v) for v in row] for row in triple.H],
            "X": [[str(v) for v in row] for row in triple.X],
            "Y": [[str(v) for v in row] for row in triple.Y],
        })
        return EXIT_PASS
    if args.oracle_cmd == "hilbert":
        if args.kmax < 0:  # refused before the search
            raise InputError("kmax must be >= 0, got %d" % args.kmax)
        x = oc.principal_nilpotent_search(real, args.seed)
        dims = oc.coordinate_ring_dims(real, x, args.kmax, args.seed)
        _emit(args, {"form": label, "seed": args.seed, "kmax": args.kmax,
                     "dims": dims})
        return EXIT_PASS
    # verify-grading, the last of the subcommands argparse accepts
    gd = gr.grade(real.rs, real.eps, _parse_ints(args.H))
    h = real.cartan_element_from_h(gd.H.h_values)
    ok, detail = oc.verify_grading_dims(real, h, gd)
    _emit(args, {"form": label, "H": list(gd.H.h_values), "match": ok,
                 "layers": {str(d): v for d, v in detail.items()}})
    return _exit_code("PASS" if ok else "FAIL")


# ---------------------------------------------------------------------------
# the one-shot pipeline
# ---------------------------------------------------------------------------

ALL_CHECKS = ("grading", "theta", "dense", "canonical", "vanishing",
              "hilbert", "blattner", "components", "qct")


def parse_checks(value):
    """The checks selected by "all", a comma-separated string or a list of
    names; an unknown name or an empty selection is an InputError."""
    names = value.split(",") if isinstance(value, str) else value
    try:
        names = [name.strip() for name in names]
    except (TypeError, AttributeError) as exc:
        raise InputError("checks must be \"all\", a comma-separated string or "
                         "a list of names, got %r" % (value,)) from exc
    if names == ["all"]:
        return ALL_CHECKS
    unknown = [name for name in names if name not in ALL_CHECKS]
    if unknown or not names:
        raise InputError("checks %r: choose from %s or all"
                         % (value, ",".join(ALL_CHECKS)))
    return tuple(names)


def _as_int(value, what):
    """value as an int: an int, or a string of one (never a truncated float)."""
    if isinstance(value, (int, str)) and not isinstance(value, bool):
        try:
            return int(value)
        except ValueError:
            pass
    raise InputError("%s must be an integer, got %r" % (what, value))


def verify_form(form, N=6, seed=7, kmax=3, checks=ALL_CHECKS, timings=False,
                H=None, lam_list=None):
    """Run every check for a named form and assemble a report.

    Its defaults are the only ones a job has.  checks is anything
    parse_checks accepts; N, seed and kmax are ints or strings of one, and
    a negative N or kmax is refused.  H is the explicit grading when
    supplied, else the form's pinned principal grading, else the best
    confirmed grading found by the even-grading search.  lam_list, when
    given, replaces the sampled weight box of the vanishing check; it must
    list rank integers (fundamental-weight coordinates), since only an
    integral weight defines a line bundle.  Malformed input is rejected
    before any check runs.
    """
    N, seed, kmax = _as_int(N, "N"), _as_int(seed, "seed"), _as_int(kmax, "kmax")
    for value, what in ((N, "N"), (kmax, "kmax")):
        if value < 0:
            raise InputError("%s must be >= 0, got %d" % (what, value))
    checks = parse_checks(checks)
    rs, eps = standard_form_catalog(form)
    lam_given = None if lam_list is None else _integral_weight(lam_list, rs.rank)
    real = oc.realize(form)
    orbit_dims = None  # the searched gradings' orbit dims, which qct reports too
    if H is not None:
        if not isinstance(H, (list, tuple)):
            raise InputError("H must be a list of integers, got %r" % (H,))
        h_values = tuple(_as_int(x, "H entry") for x in H)
        presentation = "config"
    else:
        try:
            h_values = principal_presentation(form)[2]
            presentation = "principal"
        except OutOfScopeError:
            orbit_dims = oc.even_grading_orbit_dims(real, seed)
            if not orbit_dims:
                raise InputError("no confirmed even grading found for %r" % form)
            # prefer gradings whose bundle dimension matches the orbit
            # dimension: that certifies the moment map is generically finite
            h_values = orbit_dims[-1][0]
            for h_c, orbit_dim in orbit_dims:
                gd_c = gr.grade(rs, eps, h_c)
                if orbit_dim == len(gd_c.u_cap_k) + len(gd_c.u_cap_p):
                    h_values = h_c
            presentation = "searched"
    gd = gr.grade(rs, eps, h_values)
    gr._require_borel_of_k(gd)
    kd = gd.k_root_datum()
    pd = gr.parabolic(gd)
    h_mat, x_mat, dense = oc.dense_element(real, h_values, seed)

    results = []
    evidence = {}  # the qct evidence, computed once

    def record(name, fn):
        if name not in checks:
            return
        t0 = time.perf_counter()
        try:
            verdict, detail = fn()
        except InputError as exc:
            # a refusal inside a check: its hypothesis is unmet, nothing failed
            verdict, detail = se.HYPOTHESIS_UNMET, {"error": str(exc)}
        except DiagnosticError as exc:
            verdict, detail = INCONCLUSIVE, {"error": str(exc),
                                             "partial": _json_data(exc.partial)}
        entry = {"check": name, "verdict": verdict, "detail": detail}
        if timings:
            entry["seconds"] = round(time.perf_counter() - t0, 3)
        results.append(entry)

    def check_grading():
        # dims(d) == dims(-d) holds by construction: grade() raises otherwise
        ok, detail = oc.verify_grading_dims(real, h_mat, gd)
        return ("PASS" if ok else "FAIL"), {"matrix_match": ok}

    def check_theta():
        roots = rs.all_roots()
        for a in roots:
            for b in roots:
                s = tuple(x + y for x, y in zip(a.coords, b.coords))
                if rs.is_root(Root(s)):
                    if eps.sign(Root(s)) != eps.sign(a) * eps.sign(b):
                        return "FAIL", {"pair": [list(a.coords), list(b.coords)]}
        return "PASS", {"pairs_checked": len(roots) ** 2}

    def check_dense():
        # PASS needs x dense in its grading's p_{>=2} and an orbit of the
        # cone's dimension: the closure of a smaller orbit is resolved, but
        # it is no component of N_theta, so the hypothesis is unmet
        detail = {"orbit_dim": oc.orbit_dimension(real, x_mat),
                  "nilcone_dim": oc.nilcone_dimension(real)}
        if dense and detail["orbit_dim"] == detail["nilcone_dim"]:
            return "PASS", detail
        if dense and detail["orbit_dim"] < detail["nilcone_dim"]:
            return se.HYPOTHESIS_UNMET, detail
        return "FAIL", detail

    def check_canonical():
        combinatorial = pd.canonical_weight
        matrix_side = oc.canonical_weight_from_matrices(real, h_mat)
        ok = combinatorial == matrix_side
        return ("PASS" if ok else "FAIL"), {
            "combinatorial": weight_to_json(combinatorial),
            "matrix": weight_to_json(matrix_side),
        }

    def check_vanishing():
        if lam_given is not None:
            lams = [lam_given]
        else:
            lams = _qk_dominant_box(rs, pd, kd)
        worst = "PASS"
        bad = []
        for rep in se.verify_vanishing_box(lams, gd, kd, N, form=form):
            if rep.status == se.HYPOTHESIS_UNMET:
                worst = se.HYPOTHESIS_UNMET if worst == "PASS" else worst
            elif rep.status == se.FAIL:
                worst = "FAIL"
                bad.append(weight_to_json(rep.lam))
        return worst, {"weights_checked": len(lams), "violations": bad}

    def check_hilbert():
        dims = se.hilbert_series(gd, kd, kmax, form=form)
        # the oracle dims are certified lower bounds (sums of exact block ranks
        # over Q), the series an upper bound
        oracle_dims = oc.coordinate_ring_dims(real, x_mat, kmax, seed)
        if dims == oracle_dims:
            return "PASS", {"series": dims, "oracle": oracle_dims}
        if all(o <= s for o, s in zip(oracle_dims, dims)):
            # strictly smaller oracle values flag a non-normal orbit closure,
            # not a failure: the series computes the normalization
            return "EVIDENCE", {"series": dims, "oracle": oracle_dims,
                                "note": "orbit closure not normal"}
        return "FAIL", {"series": dims, "oracle": oracle_dims}

    def check_blattner():
        ok, mismatches, count = se.blattner_series_identity(
            gd, kd, zero_weight(rs.rank), min(N, 3), form=form)
        if ok:
            return "PASS", {"types_checked": count}
        return "FAIL", {"mismatches": [[weight_to_json(mu), c, b]
                                       for mu, c, b in mismatches]}

    def _evidence():
        if "ev" not in evidence:
            evidence["ev"] = oc.qct_evidence(real, seed, orbit_dims)
        return evidence["ev"]

    def check_components():
        ev = _evidence()
        if ev["degenerate"]:
            return "EVIDENCE", {"degenerate": True}
        return "EVIDENCE", {"component_count":
                            ev["G1_evidence"]["component_count_evidence"]}

    def check_qct():
        return "EVIDENCE", dict(_evidence(), form=form)

    record("grading", check_grading)
    record("theta", check_theta)
    record("dense", check_dense)
    record("canonical", check_canonical)
    record("vanishing", check_vanishing)
    record("hilbert", check_hilbert)
    record("blattner", check_blattner)
    record("components", check_components)
    record("qct", check_qct)

    verdicts = {r["verdict"] for r in results}
    overall = next((v for v in ("FAIL", INCONCLUSIVE, se.HYPOTHESIS_UNMET)
                    if v in verdicts), "PASS")
    return {
        "form": form,
        "presentation": presentation,
        "H": list(h_values),
        "N": N,
        "seed": seed,
        "version": __version__,
        "checks": results,
        "verdict": overall,
    }


def _integral_weight(coords, rank):
    """The weight with the given fundamental-weight coordinates, which must
    be rank integers (ints or strings such as "3"): the one reader of a
    weight given by a user, in a config or on the command line."""
    try:
        fw = tuple(Fraction(c) for c in coords)
    except (TypeError, ValueError, ZeroDivisionError) as exc:
        raise InputError("malformed weight %r" % (coords,)) from exc
    if len(fw) != rank:
        raise InputError("weight needs %d coordinates, got %d" % (rank, len(fw)))
    if any(c.denominator != 1 for c in fw):
        raise InputError("weight %s is not integral: O(lambda) needs integer "
                         "fundamental-weight coordinates"
                         % [str(c) for c in fw])
    return Weight(fw)


def _qk_dominant_box(rs, pd, kd):
    """The Q cap K dominant twists with fundamental-weight coordinates in
    [-2, 2] and pairings at most 4 with the simple coroots of K, in product
    order: the sampled weight box of verify's vanishing check.

    <lam, beta^vee> is the dot product of beta's coroot vector with lam's
    fundamental-weight coordinates, so each candidate is tested as an int
    tuple and only those kept become Weights.
    """
    levi = {b.coords for b in pd.simple_l_k_roots}
    tests = [(kd.rs.coroot_vector(b), b.coords in levi) for b in kd.simple_roots]
    out = []
    for coords in product(range(-2, 3), repeat=rs.rank):
        for v, in_levi in tests:
            p = sum(map(mul, v, coords))
            if p < 0 or p > 4 or (in_levi and p):
                break
        else:
            out.append(_weight_of(tuple(2 * c for c in coords)))
    return out


def _json_data(value):
    """value with Fractions as strings and tuples as lists, for a report."""
    if isinstance(value, (list, tuple)):
        return [_json_data(v) for v in value]
    if isinstance(value, Fraction):
        return str(value)
    return value


def _exit_code(verdict):
    """0 for PASS, 1 for FAIL, 2 for anything else (INCONCLUSIVE,
    HYPOTHESIS-UNMET)."""
    return {"PASS": EXIT_PASS, "FAIL": EXIT_FAIL}.get(verdict, EXIT_INPUT)


# A job config's keys and the verify_form parameters they set ("out" is a
# file for the report)
_JOB_KEYS = {"form": "form", "H": "H", "lambda": "lam_list", "N": "N",
             "seed": "seed", "kmax": "kmax", "checks": "checks", "out": None}


def run(config, timings):
    """Run a job config dict, passing verify_form only the keys it has.  An
    unknown key, or a form or out that is no string, is an InputError
    before a check runs."""
    if not isinstance(config, dict) or not isinstance(config.get("form"), str):
        raise InputError("pipeline runs need a named catalog form")
    unknown = set(config) - set(_JOB_KEYS)
    if unknown:
        raise InputError("unknown config keys %s" % sorted(map(str, unknown)))
    if not isinstance(config.get("out", ""), str):
        raise InputError("out must be a file name, got %r" % (config["out"],))
    params = {_JOB_KEYS[key]: value for key, value in config.items() if _JOB_KEYS[key]}
    report = verify_form(timings=timings, **params)
    if config.get("out"):
        _write(config["out"], _json(report))
    return report


def cmd_run(args):
    """run --config, and verify, whose flags make the config."""
    if args.cmd == "verify":
        # an unset flag is absent from args
        config = {key: value for key, value in vars(args).items()
                  if key in ("form", "N", "seed", "kmax", "checks")}
    else:
        try:
            with open(args.config) as fh:
                config = json.load(fh)
        except (OSError, ValueError) as exc:
            raise InputError("cannot read config %s: %s" % (args.config, exc)) from exc
    report = run(config, timings=args.timings)
    _emit(args, report)
    return _exit_code(report["verdict"])


# ---------------------------------------------------------------------------

def build_parser():
    parser = argparse.ArgumentParser(
        prog="nilcone",
        description="verification engine for graded nilpotent-cone resolutions "
                    "of equal-rank classical real forms")
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="cmd", required=True)

    def add_form_args(p):
        p.add_argument("--form", help="catalog name, e.g. su(2,1)")
        p.add_argument("--type", help="root system type A/B/C/D/G2")
        p.add_argument("--rank", type=int)
        p.add_argument("--epsilon", help="comma-separated +-1 per simple root; "
                       "a value that starts with a dash needs =, as in --epsilon=-1,1")
        p.add_argument("--json-out", dest="json_out", help="also write JSON here")

    def add_catalog_args(p):
        p.add_argument("--form", required=True, help="catalog name, e.g. su(2,1)")
        p.add_argument("--json-out", dest="json_out", help="also write JSON here")

    p = sub.add_parser("grade", help="graded decomposition and parabolic weights")
    add_form_args(p)
    p.add_argument("--H", required=True, help="comma-separated h_i values")
    p.set_defaults(fn=cmd_grade)

    p = sub.add_parser("bott", help="line bundle cohomology on the flag variety of K")
    add_form_args(p)
    p.add_argument("--weight", required=True)
    p.set_defaults(fn=cmd_bott)

    p = sub.add_parser("verify-vanishing", help="positivity of the graded Euler series")
    add_form_args(p)
    p.add_argument("--H", required=True)
    p.add_argument("--lambda", dest="lam", required=True)
    p.add_argument("--N", type=int, default=6)
    p.set_defaults(fn=cmd_verify_vanishing)

    p = sub.add_parser("hilbert", help="dimensions of the graded function ring")
    add_form_args(p)
    p.add_argument("--H", required=True)
    p.add_argument("--N", type=int, default=6)
    p.add_argument("--csv-out", dest="csv_out", help="also write a k,dim table")
    p.set_defaults(fn=cmd_hilbert)

    p = sub.add_parser("blattner", help="alternating-sum multiplicity of one K-type")
    add_form_args(p)
    p.add_argument("--H", required=True)
    p.add_argument("--mu", required=True)
    p.add_argument("--lambda", dest="lam", required=True)
    p.set_defaults(fn=cmd_blattner)

    p = sub.add_parser("components", help="componentwise series and their sum")
    add_form_args(p)
    p.add_argument("--H", action="append", required=True,
                   help="repeatable, one grading per component (use --H=-2 for "
                        "opposite-chamber values)")
    p.add_argument("--N", type=int, default=4)
    p.set_defaults(fn=cmd_components)

    p = sub.add_parser("qct-report", help="single-closure / even-dimension evidence")
    add_catalog_args(p)
    p.add_argument("--seed", type=int, default=7)
    p.set_defaults(fn=cmd_qct)

    p = sub.add_parser("oracle", help="matrix-model computations")
    p.add_argument("oracle_cmd", choices=["triple", "hilbert", "verify-grading"])
    add_catalog_args(p)
    p.add_argument("--seed", type=int, default=7)
    p.add_argument("--kmax", type=int, default=4)
    p.add_argument("--H")
    p.set_defaults(fn=cmd_oracle)

    p = sub.add_parser("verify", help="run every check for a named form")
    add_catalog_args(p)
    p.add_argument("--N", type=int, default=argparse.SUPPRESS)
    p.add_argument("--seed", type=int, default=argparse.SUPPRESS)
    p.add_argument("--kmax", type=int, default=argparse.SUPPRESS)
    p.add_argument("--checks", default=argparse.SUPPRESS,
                   help="all, or a comma-separated subset of: %s" % ",".join(ALL_CHECKS))
    p.add_argument("--timings", action="store_true")
    p.set_defaults(fn=cmd_run)

    p = sub.add_parser("run", help="execute a JSON job config")
    p.add_argument("--config", required=True)
    p.add_argument("--timings", action="store_true")
    p.add_argument("--json-out", dest="json_out")
    p.set_defaults(fn=cmd_run)

    return parser


def main(argv=None):
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.fn(args)
    except (InputError, OutOfScopeError) as exc:
        print(json.dumps({"error": str(exc)}), file=sys.stderr)
        return EXIT_INPUT
    except DiagnosticError as exc:
        print(json.dumps({"error": str(exc), "partial": _json_data(exc.partial)}),
              file=sys.stderr)
        return EXIT_INPUT


if __name__ == "__main__":
    sys.exit(main())
