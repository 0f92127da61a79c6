"""Tests of the benchmark itself: span arithmetic, wrappers and the pin gate.

    python3 -m pytest perfbench/tests -q
"""

import dataclasses
import json
import sys
from fractions import Fraction
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent.parent
ROOT = HERE.parent
sys.path[:0] = [str(HERE), str(ROOT / "src")]

import run  # noqa: E402
import spans  # noqa: E402
import worker  # noqa: E402
import workloads  # noqa: E402
from nilcone import linalg, series  # noqa: E402
from nilcone.rootdata import weight  # noqa: E402


class FakeClock:
    """Each reading advances time by one unit."""

    def __init__(self):
        self.now = 0.0

    def __call__(self):
        self.now += 1.0
        return self.now


def test_self_times_on_a_synthetic_tree():
    # job [0, 20] > a [1, 15] (bookkeeping to 16) > b [2, 6], c [7, 10] (to 12)
    #           > d [16, 19]
    tree = [("job", None, 0, 20, 20), ("a", 0, 1, 15, 16), ("b", 1, 2, 6, 6),
            ("c", 1, 7, 10, 12), ("d", 0, 16, 19, 19)]
    recorded = []
    for name, parent, t0, t1, t2 in tree:
        span = spans.Span(name, parent, "j")
        span.t0, span.t1, span.t2 = t0, t1, t2
        recorded.append(span)
    times = spans.self_times(recorded)
    assert [own for own, _ in times] == [20 - 15 - 3, 14 - 4 - 5, 4, 3, 3]
    assert [book for _, book in times] == [0, 1, 0, 2, 0]
    wall, own, book = spans.additivity(recorded)["j"]
    assert wall == 20 and own + book == wall


def test_wrapped_calls_add_up_to_the_job_wall_time():
    tracer = spans.Tracer(clock=FakeClock())

    def leaf(x):
        return x + 1

    leaf_w = tracer.wrap("leaf", leaf, counter=lambda a, r: {"n": r, "n_max": r})

    def mid(x):
        return leaf_w(x) + leaf_w(x + 1)

    mid_w = tracer.wrap("mid", mid)
    with tracer.root("job1"):
        assert mid_w(1) == 5
        assert mid_w(10) == 23
    wall, own, book = spans.additivity(tracer.spans)["job1"]
    assert own + book == wall
    stats = spans.aggregate(tracer.spans)
    assert stats["leaf"]["calls"] == 4 and stats["mid"]["calls"] == 2
    assert stats["leaf"]["n"] == 2 + 3 + 11 + 12 and stats["leaf"]["n_max"] == 12
    # each leaf reads the clock twice on the call and once after its counter
    assert stats["leaf"]["self_s"] == 4 * 1
    assert stats["mid"]["s"] == 2 * 7 and stats["mid"]["self_s"] == 2 * 3


@pytest.fixture
def traced():
    tracer = spans.Tracer()
    spans.install(tracer)
    try:
        yield tracer
    finally:
        tracer.uninstall()


def test_wrappers_return_exactly_what_the_library_returns(traced):
    rank_w = linalg.rank
    rows = [[1, 2, 3], [Fraction(2, 3), Fraction(4, 3), 2], [0, 1, Fraction(-5, 7)]]
    assert rank_w(rows) == rank_w.__wrapped__(rows) == 2

    ups = [weight(1, 0), weight(0, 1), weight(1, -1), weight(1, 0)]
    got = series.sym_weights(ups, 3)
    assert got == series.sym_weights.__wrapped__(ups, 3)

    traced_rank = linalg.IncrementalRank(3)
    plain_rank = linalg.IncrementalRank(3)
    plain_add = linalg.IncrementalRank.add.__wrapped__
    for row in rows + [[0, 0, 1], [5, 5, 5]]:
        assert traced_rank.add(row) == plain_add(plain_rank, row)
    assert traced_rank._rows == plain_rank._rows and traced_rank.rank == 3

    stats = spans.aggregate(traced.spans)
    # rank.__wrapped__ is not traced itself, but it calls the traced rref
    assert stats["linalg.rank"]["calls"] == 1 and stats["linalg.rref"]["calls"] == 2
    assert stats["linalg.rref"]["pivots"] == 4 and stats["linalg.rref"]["cells"] == 18
    assert stats["linalg.rref"]["entry_bits_max"] == 3  # -5/7
    assert stats["series.sym_weights"]["weights"] == len(got) == 20
    assert stats["linalg.IncrementalRank.add"]["raised"] == 3
    assert stats["linalg.IncrementalRank.add"]["width_max"] == 3


def test_uninstall_restores_every_patched_name():
    originals = (linalg.rank, linalg.rref, series.euler_of_weights,
                 linalg.IncrementalRank.__dict__["add"])
    tracer = spans.Tracer()
    spans.install(tracer)
    assert series.euler_of_weights is not originals[2]  # patched where imported
    tracer.uninstall()
    assert (linalg.rank, linalg.rref, series.euler_of_weights,
            linalg.IncrementalRank.__dict__["add"]) == originals


def test_an_altered_pin_is_one_failure_out_of_the_workload_base():
    jobs = workloads.setup_characters(7)
    pins = json.loads(run.pin_path("characters", 7).read_text())["outputs"]
    cheap = next(i for i, j in enumerate(jobs) if j.name == "hilbert su(2,2) N=14")
    # Run the cheapest job for real; stand in the pinned outputs for the rest.
    stand_ins = [job if i == cheap else dataclasses.replace(job, run=(
        lambda out=pins[job.name]: out), encode=lambda out: out)
        for i, job in enumerate(jobs)]
    order = list(range(len(jobs)))
    records = worker.run_jobs(stand_ins, order, pins)
    assert [r["failure"] for r in records.values()] == [None] * len(jobs)

    altered = dict(pins)
    altered[jobs[cheap].name] = list(pins[jobs[cheap].name])
    altered[jobs[cheap].name][3] += 1
    records = worker.run_jobs(stand_ins, order, altered)
    assert records[cheap]["failure"] == "differs at $[3]"
    report = {"jobs": list(records.values())}
    assert (run.failures([report]), run.attempts([report])) == (1, 6)


def test_a_job_that_raises_counts_as_failed():
    def boom():
        raise ZeroDivisionError("boom")

    jobs = [workloads.Job("ok", lambda: 1, int), workloads.Job("bad", boom, int)]
    records = worker.run_jobs(jobs, [1, 0], {"ok": 1, "bad": 1})
    assert records[0]["failure"] is None
    assert records[1]["failure"].startswith("raised: ZeroDivisionError")


def test_first_difference_names_the_field_that_moved():
    want = {"checks": [{"verdict": "PASS"}, {"verdict": "PASS"}], "H": [2, 2]}
    got = {"checks": [{"verdict": "PASS"}, {"verdict": "FAIL"}], "H": [2, 2]}
    assert worker.first_difference(got, want) == "$.checks[1].verdict"
    assert worker.first_difference(want, want) is None


def test_benchmark_json_names_what_run_py_reports():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [m["name"] for m in spec["per_layer"]] == list(run.PER_LAYER)
    assert [m["unit"] for m in spec["per_layer"]] == [run.unit_of(m)
                                                      for m in run.PER_LAYER]
    assert {m["name"] for m in spec["end_to_end"]} == {"wall_s", "setup_s",
                                                       "peak_rss_mib"}
    assert [w["name"] for w in spec["workloads"]] == list(run.WORKLOADS)
