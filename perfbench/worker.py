"""One benchmark process: set up a workload, run its jobs once, report.

Started by ``run.py`` in a fresh interpreter, so the module-level caches of
``nilcone`` start empty the way they do for a CLI user.  ``nilcone`` is
imported from ``src/`` of the checkout this file sits in, never from
site-packages.  Protocol on standard output: the line ``ready`` once set-up
is done (the parent times the process from spawn to this line), then, in
``pass`` and ``pin`` modes, one JSON line with the results.
"""

import argparse
import json
import random
import resource
import sys
import time
import traceback
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def _import_nilcone():
    sys.path.insert(0, str(ROOT / "src"))
    import nilcone
    from nilcone import rootdata
    where = Path(nilcone.__file__).resolve()
    if ROOT / "src" not in where.parents:
        raise SystemExit("nilcone imported from %s, not from this checkout" % where)
    # Hermetic: the optional Weyl word disk cache must stay off, so no run
    # reads or writes ~/.cache/nilcone (getattr: the cache is slated to go).
    cache_dir = getattr(rootdata, "_DEFAULT_CACHE_DIR", None)
    if cache_dir is not None:
        raise SystemExit("the Weyl disk cache is on: %r" % (cache_dir,))


def canonical(data):
    return json.dumps(data, sort_keys=True, separators=(",", ":"))


def pretty(data, depth=4, indent=""):
    """JSON with one line per value below ``depth`` levels of nesting."""
    if depth == 0 or not isinstance(data, (dict, list)) or not data or (
            isinstance(data, list) and not any(isinstance(v, (dict, list)) for v in data)):
        return json.dumps(data, sort_keys=True)
    inner = indent + " "
    if isinstance(data, dict):
        items = ["%s%s: %s" % (inner, json.dumps(k), pretty(data[k], depth - 1, inner))
                 for k in sorted(data)]
        return "{\n%s\n%s}" % (",\n".join(items), indent)
    items = [inner + pretty(v, depth - 1, inner) for v in data]
    return "[\n%s\n%s]" % (",\n".join(items), indent)


def first_difference(got, want, path="$"):
    """Path of the first field where two JSON values differ, or None."""
    if isinstance(got, dict) and isinstance(want, dict):
        for key in sorted(set(got) | set(want)):
            if key not in got or key not in want:
                return "%s.%s" % (path, key)
            diff = first_difference(got[key], want[key], "%s.%s" % (path, key))
            if diff:
                return diff
        return None
    if isinstance(got, list) and isinstance(want, list):
        for i, (g, w) in enumerate(zip(got, want)):
            diff = first_difference(g, w, "%s[%d]" % (path, i))
            if diff:
                return diff
        return None if len(got) == len(want) else "%s.length" % path
    return None if canonical(got) == canonical(want) else path


def verdict(output, pin):
    """None when the encoded output equals its pin, else the reason."""
    if pin is None:
        return "no pinned output"
    got = json.loads(canonical(output))
    if canonical(got) == canonical(pin):
        return None
    return "differs at " + first_difference(got, pin)


def run_jobs(jobs, order, pins, tracer=None, keep=False):
    """Run the jobs in the given order, one record per job index.

    Only ``job.run()`` is timed.  Each output is encoded and checked against
    its pin as soon as its job ends and is then dropped (kept only when
    ``keep``), so the heap a job starts from does not depend on the order.
    """
    records = {}
    for i in order:
        job = jobs[i]
        rec = records[i] = {"name": job.name}
        t0 = time.perf_counter()
        try:
            if tracer is None:
                result = job.run()
            else:
                with tracer.root(job.name):
                    result = job.run()
        except Exception:  # a job that raises counts as failed; keep going
            rec["seconds"] = time.perf_counter() - t0
            rec["failure"] = "raised: " + traceback.format_exc(limit=4).strip().splitlines()[-1]
            continue
        rec["seconds"] = time.perf_counter() - t0
        rec["check_seconds"] = check_seconds(result)
        output = job.encode(result)
        del result
        rec["failure"] = verdict(output, pins.get(job.name))
        if keep:
            rec["output"] = output
    return records


def check_seconds(result):
    """Seconds per check of a `verify --timings` report; empty otherwise."""
    if not isinstance(result, dict):
        return {}
    return {e["check"]: e["seconds"] for e in result.get("checks", ()) if "seconds" in e}


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--workload", required=True)
    ap.add_argument("--program-seed", type=int, required=True)
    ap.add_argument("--order-seed", type=int, default=0)
    ap.add_argument("--mode", choices=("setup", "pass", "pin"), default="pass")
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--pins", help="pinned outputs to compare with (or to write)")
    ap.add_argument("--spans-out")
    args = ap.parse_args(argv)

    _import_nilcone()
    import spans
    import workloads

    tracer = None
    if args.trace:
        tracer = spans.Tracer()
        spans.install(tracer)
    setup = workloads.WORKLOADS[args.workload]
    if tracer is None:
        jobs = setup(args.program_seed)
    else:
        with tracer.root("setup"):
            jobs = setup(args.program_seed, timings=True)
    print("ready", flush=True)
    if args.mode == "setup":
        return 0

    pins = {}
    if args.mode == "pass":
        with open(args.pins) as fh:
            pins = json.load(fh)["outputs"]
    order = list(range(len(jobs)))
    random.Random(args.order_seed).shuffle(order)
    cpu0 = resource.getrusage(resource.RUSAGE_SELF)
    records = run_jobs(jobs, order, pins, tracer, keep=args.mode == "pin")
    cpu1 = resource.getrusage(resource.RUSAGE_SELF)
    if tracer is not None:
        tracer.uninstall()

    if args.mode == "pin":
        bad = {r["name"]: r["failure"] for r in records.values() if "output" not in r}
        if bad:
            print(json.dumps({"error": bad}), file=sys.stderr)
            return 1
        outputs = {r["name"]: r.pop("output") for r in records.values()}
        Path(args.pins).parent.mkdir(exist_ok=True)
        with open(args.pins, "w") as fh:
            fh.write(pretty({"workload": args.workload,
                             "program_seed": args.program_seed,
                             "outputs": outputs}) + "\n")
        for r in records.values():
            r["failure"] = None
    jobs_out = [records[i] for i in range(len(jobs))]
    report = {
        "wall_s": sum(r["seconds"] for r in jobs_out),
        "cpu_s": (cpu1.ru_utime + cpu1.ru_stime) - (cpu0.ru_utime + cpu0.ru_stime),
        "maxrss_kib": cpu1.ru_maxrss,
        "order": [jobs[i].name for i in order],
        "jobs": jobs_out,
    }
    if tracer is not None:
        totals = {}
        for r in jobs_out:
            for check, sec in r.get("check_seconds", {}).items():
                totals[check] = totals.get(check, 0.0) + sec
        report["check_seconds"] = totals
        report["additivity"] = {job: list(v) for job, v in
                                spans.additivity(tracer.spans).items()}
        report["layers"] = spans.layer_metrics(tracer.spans, spans.LAYER_METRICS)
        if args.spans_out:
            with open(args.spans_out, "w") as fh:
                json.dump([s.as_list() for s in tracer.spans], fh)
    print(json.dumps(report), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
