"""Command-line front end and the one-shot verification pipeline.

Subcommands mirror the library: grade, bott, verify-vanishing, hilbert,
blattner, components, qct-report, oracle (triple / hilbert / verify-grading),
verify (everything for one form), run (config file).  JSON is the only
machine-readable output.  Exit codes: 0 all checks pass, 1 a violation was
found, 2 inconclusive (a search ran out of budget), hypothesis unmet or
input error.

Reports are bit-identical for identical (config, seed, version); wall-clock
timings are only included when --timings is passed.
"""

import argparse
import json
import sys
import time
from fractions import Fraction

from . import __version__
from . import bott as bott_mod
from . import grading as gr
from . import oracle as oc
from . import series as se
from .errors import DiagnosticError, InputError, OutOfScopeError
from .realform import (parse_form_config, principal_presentation,
                       standard_form_catalog)
from .rootdata import Root, Weight, weight_to_json

EXIT_PASS = 0
EXIT_FAIL = 1
EXIT_INPUT = 2

INCONCLUSIVE = "INCONCLUSIVE"


def _parse_ints(text):
    try:
        return tuple(int(x) for x in text.split(","))
    except ValueError as exc:
        raise InputError("expected comma-separated integers, got %r" % text) from exc


def _resolve_form(args):
    if getattr(args, "form", None):
        rs, eps = parse_form_config({"form": args.form})
        return args.form, rs, eps
    if getattr(args, "type", None):
        rs, eps = parse_form_config({"type": args.type, "rank": args.rank,
                                     "epsilon": _parse_ints(args.epsilon)})
        return "%s%d:%s" % (args.type, args.rank, args.epsilon), rs, eps
    raise InputError("specify --form or --type/--rank/--epsilon")


def _weight_arg(text, rank):
    coords = _parse_ints(text)
    if len(coords) != rank:
        raise InputError("weight needs %d coordinates" % rank)
    return Weight(tuple(Fraction(c) for c in coords))


def _emit(args, payload):
    text = json.dumps(payload, indent=2, sort_keys=True)
    out = getattr(args, "json_out", None)
    if out:
        with open(out, "w") as fh:
            fh.write(text + "\n")
    print(text)


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
    lam = _weight_arg(args.weight, rs.rank)
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
    lam = _weight_arg(getattr(args, "lam"), rs.rank)
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
    if report.status == se.PASS:
        return EXIT_PASS
    if report.status == se.FAIL:
        return EXIT_FAIL
    return EXIT_INPUT


def cmd_hilbert(args):
    label, rs, eps, gd, kd = _series_context(args)
    dims = se.hilbert_series(gd, kd, args.N, form=label)
    if getattr(args, "csv_out", None):
        with open(args.csv_out, "w") as fh:
            fh.write("k,dim\n")
            for k, d in enumerate(dims):
                fh.write("%d,%d\n" % (k, d))
    _emit(args, {"form": label, "H": list(gd.H.h_values), "N": args.N, "dims": dims})
    return EXIT_PASS


def cmd_blattner(args):
    label, rs, eps, gd, kd = _series_context(args)
    mu = _weight_arg(args.mu, rs.rank)
    lam = _weight_arg(getattr(args, "lam"), rs.rank)
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
    if not args.form:
        raise InputError("qct-report needs a named catalog form")
    label, rs, eps = _resolve_form(args)
    real = oc.realize(args.form)
    evidence = oc.qct_evidence(real, args.seed)
    _emit(args, se.qct_report(label, evidence))
    return EXIT_PASS


def cmd_oracle(args):
    if not args.form:
        raise InputError("oracle subcommands need a named catalog form")
    label, rs, eps = _resolve_form(args)
    real = oc.realize(args.form)
    if args.oracle_cmd == "triple":
        x = oc.principal_nilpotent_search(real, args.seed)
        triple = oc.ks_normalize(real, oc.jm_triple(real, x))
        # the search returns only an x whose orbit has the nilcone's dimension
        orbit_dim = oc.orbit_dimension(real, x)
        _emit(args, {
            "form": label,
            "seed": args.seed,
            "orbit_dim": orbit_dim,
            "nilcone_dim": orbit_dim,
            "identities_exact": triple.normalized_identities_hold(real),
            "H": [[str(v) for v in row] for row in triple.H],
            "X": [[str(v) for v in row] for row in triple.X],
            "Y": [[str(v) for v in row] for row in triple.Y],
        })
        return EXIT_PASS
    if args.oracle_cmd == "hilbert":
        x = oc.principal_nilpotent_search(real, args.seed)
        dims = oc.coordinate_ring_dims(real, x, args.kmax, args.seed)
        _emit(args, {"form": label, "seed": args.seed, "kmax": args.kmax,
                     "dims": dims})
        return EXIT_PASS
    if args.oracle_cmd == "verify-grading":
        gd = gr.grade(rs, eps, _parse_ints(args.H))
        h = real.cartan_element_from_h(gd.H.h_values)
        ok, detail = oc.verify_grading_dims(real, h, gd)
        _emit(args, {"form": label, "H": list(gd.H.h_values), "match": ok,
                     "layers": {str(d): v for d, v in detail.items()}})
        return EXIT_PASS if ok else EXIT_FAIL
    raise InputError("unknown oracle subcommand")


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

    checks is anything parse_checks accepts.  Uses an explicit grading H
    when supplied, else the principal-aligned presentation when one is
    pinned for the form, else the best confirmed grading found by the
    even-grading search.  lam_list, when given, replaces the sampled weight
    box of the vanishing check; it must list rank integers
    (fundamental-weight coordinates), since only an integral weight defines
    a line bundle.  Malformed input is rejected before any check runs.
    """
    checks = parse_checks(checks)
    rs, catalog_eps = standard_form_catalog(form)
    lam_given = None if lam_list is None else _integral_weight(lam_list, rs.rank)
    if H is not None:
        eps = catalog_eps
        if not isinstance(H, (list, tuple)):
            raise InputError("H must be a list of integers or \"search\", got %r"
                             % (H,))
        h_values = tuple(_as_int(x, "H entry") for x in H)
        presentation = "config"
    else:
        try:
            rs, eps, h_values = principal_presentation(form)
            presentation = "principal"
        except OutOfScopeError:
            eps = catalog_eps
            real0 = oc.realize(form, eps=eps)
            hits = [hit for hit in
                    gr.search_even_gradings(rs, eps,
                                            confirm=oc.dense_confirmer(real0, seed))
                    if hit.confirmed]
            if not hits:
                raise InputError("no confirmed even grading found for %r" % form)
            # prefer gradings whose bundle dimension matches the orbit
            # dimension: that certifies the moment map is generically finite
            h_values = hits[-1].H.h_values
            for hit in hits:
                gd_c = gr.grade(rs, eps, hit.H.h_values)
                bundle_dim = len(gd_c.u_cap_k) + len(gd_c.u_cap_p)
                _, x_c = oc.pinned_principal(real0, hit.H.h_values)
                if oc.orbit_dimension(real0, x_c) == bundle_dim:
                    h_values = hit.H.h_values
            presentation = "searched"
    real = oc.realize(form, eps=eps)
    gd = gr.grade(rs, eps, h_values)
    kd = gd.k_root_datum()
    pd = gr.parabolic(gd)
    h_mat, x_mat = oc.pinned_principal(real, h_values)

    results = []
    evidence = {"seconds": 0.0}  # the qct evidence, once, and its time
    cone = {}  # nilcone_dimension(real, seed), once

    def record(name, fn):
        if name not in checks:
            return
        t0 = time.time()
        evidence_s = evidence["seconds"]
        try:
            verdict, detail = fn()
        except InputError as exc:
            verdict, detail = "FAIL", {"error": str(exc)}
        except DiagnosticError as exc:
            verdict, detail = INCONCLUSIVE, {"error": str(exc),
                                             "partial": _json_data(exc.partial)}
        entry = {"check": name, "verdict": verdict, "detail": detail}
        if timings:
            # the qct evidence is billed to qct, whichever check computed it
            seconds = time.time() - t0 - (evidence["seconds"] - evidence_s)
            if name == "qct":
                seconds += evidence["seconds"]
            entry["seconds"] = round(seconds, 3)
        results.append(entry)

    def check_grading():
        for d in gd.degrees:
            if gd.dims(d) != gd.dims(-d):
                return "FAIL", {"degree": d}
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

    def _cone_dim():
        if "dim" not in cone:
            cone["dim"] = oc.nilcone_dimension(real, seed)
        return cone["dim"]

    def check_dense():
        ok = oc.dense_orbit_check(real, h_mat, x_mat)
        return ("PASS" if ok else "FAIL"), {
            "orbit_dim": oc.orbit_dimension(real, x_mat),
            "nilcone_dim": _cone_dim(),
        }

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
            lams = _qk_dominant_box(rs, pd, kd, bound=2)
        worst = "PASS"
        bad = []
        for lam in lams:
            rep = se.verify_vanishing(lam, gd, kd, N, form=form)
            if rep.status == se.HYPOTHESIS_UNMET:
                worst = se.HYPOTHESIS_UNMET if worst == "PASS" else worst
            elif rep.status == se.FAIL:
                worst = "FAIL"
                bad.append(weight_to_json(lam))
        return worst, {"weights_checked": len(lams), "violations": bad}

    def check_hilbert():
        dims = se.hilbert_series(gd, kd, kmax, form=form)
        # the oracle dims are lower bounds; any below the series come from
        # exact ranks over Q
        oracle_dims = oc.coordinate_ring_dims(real, x_mat, kmax, seed, upper=dims)
        if dims == oracle_dims:
            return "PASS", {"series": dims, "oracle": oracle_dims}
        if all(o <= s for o, s in zip(oracle_dims, dims)):
            # strictly smaller oracle values flag a non-normal orbit closure,
            # not a failure: the series computes the normalization
            return "EVIDENCE", {"series": dims, "oracle": oracle_dims,
                                "note": "orbit closure not normal"}
        return "FAIL", {"series": dims, "oracle": oracle_dims}

    def check_blattner():
        zero = Weight((Fraction(0),) * rs.rank)
        ok, mismatches, count = se.blattner_series_identity(gd, kd, zero,
                                                            min(N, 3), form=form)
        if ok:
            return "PASS", {"types_checked": count}
        return "FAIL", {"mismatches": [[weight_to_json(mu), c, b]
                                       for mu, c, b in mismatches]}

    def _evidence():
        if "ev" not in evidence:
            t0 = time.time()
            try:
                evidence["ev"] = oc.qct_evidence(real, seed, cone_dim=_cone_dim())
            finally:
                evidence["seconds"] += time.time() - t0
        return evidence["ev"]

    def check_components():
        ev = _evidence()
        if ev.get("degenerate"):
            return "EVIDENCE", {"degenerate": True}
        return "EVIDENCE", {"component_count": ev["component_count"]}

    def check_qct():
        return "EVIDENCE", se.qct_report(form, _evidence())

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
    be rank integers (ints or strings such as "3")."""
    try:
        fw = tuple(Fraction(c) for c in coords)
    except (TypeError, ValueError, ZeroDivisionError) as exc:
        raise InputError("malformed lambda %r" % (coords,)) from exc
    if len(fw) != rank:
        raise InputError("lambda needs %d coordinates, got %d" % (rank, len(fw)))
    if any(c.denominator != 1 for c in fw):
        raise InputError("lambda %s is not integral: O(lambda) needs integer "
                         "fundamental-weight coordinates"
                         % [str(c) for c in fw])
    return Weight(fw)


def _qk_dominant_box(rs, pd, kd, bound=2):
    from itertools import product
    out = []
    for coords in product(range(-bound, bound + 1), repeat=rs.rank):
        lam = Weight(tuple(Fraction(c) for c in coords))
        if not gr.is_QK_dominant(lam, pd, kd):
            continue
        if any(kd.rs.pairing(lam, b) > 2 * bound for b in kd.simple_roots):
            continue
        out.append(lam)
    return out


def _json_data(value):
    """value with Fractions as strings and tuples as lists, for a report."""
    if isinstance(value, (list, tuple)):
        return [_json_data(v) for v in value]
    if isinstance(value, Fraction):
        return str(value)
    return value


def _exit_code(report):
    if report["verdict"] == "PASS":
        return EXIT_PASS
    if report["verdict"] == "FAIL":
        return EXIT_FAIL
    return EXIT_INPUT


def cmd_verify(args):
    report = verify_form(args.form, N=args.N, seed=args.seed, kmax=args.kmax,
                         checks=args.checks, timings=args.timings)
    _emit(args, report)
    return _exit_code(report)


def run(config, timings=False):
    """Execute a JobConfig dict: validate, run selected checks, return the report."""
    if not isinstance(config, dict) or "form" not in config:
        raise InputError("pipeline runs need a named catalog form")
    form = config["form"]
    h_conf = config.get("H")
    if h_conf == "search":
        h_conf = None
    report = verify_form(form,
                         N=_as_int(config.get("N", 6), "N"),
                         seed=_as_int(config.get("seed", 7), "seed"),
                         kmax=_as_int(config.get("kmax", 3), "kmax"),
                         checks=config.get("checks", "all"),
                         timings=timings,
                         H=h_conf,
                         lam_list=config.get("lambda"))
    out = config.get("out")
    if out:
        with open(out, "w") as fh:
            json.dump(report, fh, indent=2, sort_keys=True)
    return report


def cmd_run(args):
    try:
        with open(args.config) as fh:
            config = json.load(fh)
    except (OSError, ValueError) as exc:
        raise InputError("cannot read config %s: %s" % (args.config, exc)) from exc
    report = run(config, timings=args.timings)
    _emit(args, report)
    return _exit_code(report)


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
        p.add_argument("--epsilon", help="comma-separated +-1 per simple root")
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
    add_form_args(p)
    p.add_argument("--seed", type=int, default=7)
    p.set_defaults(fn=cmd_qct)

    p = sub.add_parser("oracle", help="matrix-model computations")
    p.add_argument("oracle_cmd", choices=["triple", "hilbert", "verify-grading"])
    add_form_args(p)
    p.add_argument("--seed", type=int, default=7)
    p.add_argument("--kmax", type=int, default=4)
    p.add_argument("--H")
    p.set_defaults(fn=cmd_oracle)

    p = sub.add_parser("verify", help="run every check for a named form")
    p.add_argument("--form", required=True)
    p.add_argument("--N", type=int, default=6)
    p.add_argument("--seed", type=int, default=7)
    p.add_argument("--kmax", type=int, default=3)
    p.add_argument("--checks", default="all",
                   help="all, or a comma-separated subset of: %s" % ",".join(ALL_CHECKS))
    p.add_argument("--timings", action="store_true")
    p.add_argument("--json-out", dest="json_out")
    p.set_defaults(fn=cmd_verify)

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
