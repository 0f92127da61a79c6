"""The verify reports of the four pinned forms, byte for byte against the
benchmark's pins: a change to the sampling or rank engine that moves a
report fails here, not only in the benchmark.  The pins are read, never
written."""

import json
from pathlib import Path

import pytest

from nilcone import cli

PINS = Path(__file__).resolve().parents[1] / "perfbench" / "pins"
FORMS = ("su(1,1)", "su(2,1)", "sp(4,R)", "su(2,2)")


def _canonical(data):
    return json.dumps(data, sort_keys=True, separators=(",", ":"))


@pytest.mark.parametrize("seed", [7, 11])
def test_verify_reports_match_the_benchmark_pins(seed):
    pins = json.loads((PINS / ("verify-pinned.seed%d.json" % seed)).read_text())
    for form in FORMS:
        report = cli.verify_form(form, N=6, seed=seed, kmax=3)
        assert _canonical(report) == _canonical(pins["outputs"]["verify " + form]), form
