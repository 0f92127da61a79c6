"""Benchmark of nilcone: `verify`, the character engine and the grading search.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout.  Each pass over a workload's jobs runs in
a fresh interpreter (``worker.py``), one process and one thread, the jobs in
order as a closed loop of one caller.  ``--seed`` is the workload seed: it
fixes the order the jobs run in.  The program seed handed to ``nilcone``
(orbit sampling, genericity) is ``--program-seed``, 7 by default; outputs
are pinned for 7 and for the held-out seed 11, because a different program
seed samples different points and changes both the reports and the work.

End-to-end metrics (``--trace 0``):
  wall_s        median over passes of one pass over the jobs, after set-up;
  setup_s       median over several fresh processes of the time from spawn
                to ready (import, root systems, K root data, matrix models);
  peak_rss_mib  median over passes of the pass process's maximum RSS.
``--trace 1`` runs one untraced and one traced pass and reports the
per-layer metrics of the traced one.  Every job's output is compared with
its pin in ``pins/``; a job that raises or differs is failed, and
``failed / attempted`` is printed as fail_ratio.  The last line of standard
output is the JSON result.  ``--pin`` rewrites the pins from the code as it
is (for a change that alters a report on purpose).
"""

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKER = HERE / "worker.py"
sys.path.insert(0, str(HERE))

import spans  # noqa: E402  (sibling module; imports nothing from nilcone)

WORKLOADS = ("verify-pinned", "characters", "catalog-search")
# Workloads whose outputs depend on the program seed; the other is pinned once.
SEEDED = ("verify-pinned", "catalog-search")
SETUP_SAMPLES = 5
CHILD_TIMEOUT = 170
CHECKS = ("grading", "theta", "dense", "canonical", "vanishing", "hilbert",
          "blattner", "components", "qct")
PER_LAYER = (spans.LAYER_METRICS
             + tuple("cli.check.%s.s" % c for c in CHECKS)
             + ("process.cpu_s", "trace.wall_s", "trace.overhead_s",
                "trace.bookkeeping_s"))


def pin_path(workload, program_seed):
    if workload in SEEDED:
        return HERE / "pins" / ("%s.seed%d.json" % (workload, program_seed))
    return HERE / "pins" / ("%s.json" % workload)


def unit_of(metric):
    if metric.endswith((".s", "_s")):
        return "s"
    if metric.endswith("bits_max"):
        return "bit"
    return "count"


class Child:
    """One worker process; ``ready_s`` is the time from spawn to ``ready``."""

    def __init__(self, args):
        cmd = [sys.executable, str(WORKER)] + args
        t0 = time.perf_counter()
        proc = subprocess.Popen(cmd, cwd=str(ROOT), stdout=subprocess.PIPE, text=True)
        try:
            first = proc.stdout.readline()
            self.ready_s = time.perf_counter() - t0
            rest, _ = proc.communicate(timeout=CHILD_TIMEOUT)
        finally:
            if proc.poll() is None:
                proc.kill()
                proc.wait()
        if first.strip() != "ready" or proc.returncode != 0:
            raise RuntimeError("worker %s exited with %s" % (args, proc.returncode))
        lines = rest.strip().splitlines()
        self.report = json.loads(lines[-1]) if lines else None


def worker_args(opts, mode, trace=0, spans_out=None):
    args = ["--workload", opts.workload, "--program-seed", str(opts.program_seed),
            "--order-seed", str(opts.seed), "--mode", mode, "--trace", str(trace),
            "--pins", str(pin_path(opts.workload, opts.program_seed))]
    if spans_out:
        args += ["--spans-out", spans_out]
    return args


def describe(report, label):
    for job in report["jobs"]:
        status = "ok" if job["failure"] is None else "FAIL " + job["failure"]
        print("  %-6s %-28s %8.3f s  %s" % (label, job["name"], job["seconds"], status))


def failures(reports):
    return sum(job["failure"] is not None for r in reports for job in r["jobs"])


def attempts(reports):
    return sum(len(r["jobs"]) for r in reports)


def run_untraced(opts):
    passes, setups = [], []
    t0 = time.monotonic()
    longest = 0.0
    while not passes or time.monotonic() - t0 + longest <= opts.seconds:
        started = time.monotonic()
        child = Child(worker_args(opts, "pass"))
        longest = max(longest, time.monotonic() - started)
        passes.append(child.report)
        setups.append(child.ready_s)
        describe(passes[-1], "pass %d" % len(passes))
    while len(setups) < SETUP_SAMPLES:
        setups.append(Child(worker_args(opts, "setup")).ready_s)
    metrics = {
        "wall_s": statistics.median(p["wall_s"] for p in passes),
        "setup_s": statistics.median(setups),
        "peak_rss_mib": statistics.median(p["maxrss_kib"] / 1024.0 for p in passes),
    }
    units = {"wall_s": "s", "setup_s": "s", "peak_rss_mib": "MiB"}
    print("workload %s: %d pass(es) of %d jobs, %d set-up samples"
          % (opts.workload, len(passes), len(passes[0]["jobs"]), len(setups)))
    return passes, metrics, units


def run_traced(opts):
    out_dir = ROOT / ".perfbench"
    out_dir.mkdir(exist_ok=True)
    spans_out = out_dir / ("spans-%s-seed%d.json" % (opts.workload, opts.seed))
    plain = Child(worker_args(opts, "pass")).report
    describe(plain, "plain")
    traced = Child(worker_args(opts, "pass", 1, str(spans_out))).report
    describe(traced, "traced")
    values = dict(traced["layers"])
    for check in CHECKS:
        values["cli.check.%s.s" % check] = traced["check_seconds"].get(check, 0.0)
    values.update({
        "process.cpu_s": plain["cpu_s"],
        "trace.wall_s": traced["wall_s"],
        "trace.overhead_s": traced["wall_s"] - plain["wall_s"],
        "trace.bookkeeping_s": sum(v[2] for v in traced["additivity"].values()),
    })
    metrics = {name: values[name] for name in PER_LAYER}
    print("additivity per job (wall = sum of self times + bookkeeping):")
    for job, (wall, own, book) in sorted(traced["additivity"].items()):
        print("  %-28s wall %9.4f  self %9.4f  bookkeeping %7.4f  residual %.1e"
              % (job, wall, own, book, wall - own - book))
    print("qct attribution: verify --timings bills components %.3f s and qct "
          "%.3f s; the trace bills oracle.qct_evidence %.3f s"
          % (metrics["cli.check.components.s"], metrics["cli.check.qct.s"],
             metrics["oracle.qct_evidence.s"]))
    print("tracing overhead: traced wall %.3f s - untraced wall %.3f s = %.3f s"
          % (traced["wall_s"], plain["wall_s"], metrics["trace.overhead_s"]))
    print("spans written to %s" % spans_out.relative_to(ROOT))
    return [plain, traced], metrics, {m: unit_of(m) for m in metrics}


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__,
                                 formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, default=0,
                    help="workload seed: the order the jobs run in")
    ap.add_argument("--seconds", type=float, default=40,
                    help="start another pass while it is expected to end within "
                         "this many seconds of the first (at least one pass)")
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--program-seed", type=int, default=7,
                    help="seed handed to nilcone; pinned for 7 and 11")
    ap.add_argument("--pin", action="store_true",
                    help="rewrite this workload's pins from the current code")
    opts = ap.parse_args(argv)

    if not (ROOT / "src" / "nilcone" / "__init__.py").is_file():
        print("no nilcone sources under %s" % (ROOT / "src"), file=sys.stderr)
        return 2
    if opts.pin:
        report = Child(worker_args(opts, "pin")).report
        describe(report, "pinned")
        print("wrote %s" % pin_path(opts.workload, opts.program_seed))
        return 0
    if not pin_path(opts.workload, opts.program_seed).is_file():
        print("no pinned outputs for %s at program seed %d"
              % (opts.workload, opts.program_seed), file=sys.stderr)
        return 2

    print("nproc %d, Python %s, program seed %d, workload seed %d"
          % (os.cpu_count(), platform.python_version(), opts.program_seed, opts.seed))
    if opts.trace:
        reports, metrics, units = run_traced(opts)
    else:
        reports, metrics, units = run_untraced(opts)
    failed, attempted = failures(reports), attempts(reports)
    for name, value in metrics.items():
        print("%-45s %14.6f %s" % (name, value, units[name]))
    print("%-45s %14.6f (%d failed of %d jobs attempted)"
          % ("fail_ratio", failed / attempted, failed, attempted))
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": units[name]}
                    for name, value in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
