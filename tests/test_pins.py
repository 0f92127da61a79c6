"""The outputs of the benchmark's three workloads, byte for byte against
its pins: a change to the sampling, rank or character engine that moves an
output fails here, not only in the benchmark.  The jobs are built by
``perfbench/workloads.py``; the pins are read, never written."""

import json
import sys
from pathlib import Path

import pytest

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"
sys.path.insert(0, str(PERFBENCH))
import workloads  # noqa: E402


def _canonical(data):
    return json.dumps(data, sort_keys=True, separators=(",", ":"))


def _assert_outputs_match(name, pin):
    pins = json.loads((PERFBENCH / "pins" / pin).read_text())
    jobs = workloads.WORKLOADS[name](pins["program_seed"])
    assert sorted(job.name for job in jobs) == sorted(pins["outputs"])
    for job in jobs:
        got = _canonical(job.encode(job.run()))
        assert got == _canonical(pins["outputs"][job.name]), job.name


@pytest.mark.parametrize("seed", [7, 11])
def test_verify_reports_match_the_benchmark_pins(seed):
    _assert_outputs_match("verify-pinned", "verify-pinned.seed%d.json" % seed)


@pytest.mark.parametrize("name,pin", [
    ("characters", "characters.json"),
    ("catalog-search", "catalog-search.seed7.json"),
    ("catalog-search", "catalog-search.seed11.json"),
])
def test_workload_outputs_match_the_benchmark_pins(name, pin):
    _assert_outputs_match(name, pin)
