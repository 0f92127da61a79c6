"""perfbench's worker, started the way ``perfbench/run.py`` starts it.

``run.py`` gives up on a workload when a worker dies, exits non-zero,
prints anything but ``ready`` first, or outlives the child timeout.  The pin
tests run the jobs in-process and see none of that, so here each workload
makes one pass in a fresh interpreter, with run.py's own arguments, at
program seed 7 and against its pins.
"""

import argparse
import json
import subprocess
import sys
from pathlib import Path

import pytest

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"
sys.path.insert(0, str(PERFBENCH))
import run  # noqa: E402


@pytest.mark.parametrize("workload", run.WORKLOADS)
def test_a_worker_pass_is_ready_and_matches_its_pins(workload):
    opts = argparse.Namespace(workload=workload, program_seed=7, seed=0)
    proc = subprocess.run([sys.executable, str(run.WORKER)] + run.worker_args(opts, "pass"),
                          cwd=str(run.ROOT), capture_output=True, text=True,
                          timeout=run.CHILD_TIMEOUT)
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.splitlines()
    assert lines[0] == "ready"
    jobs = json.loads(lines[-1])["jobs"]
    assert jobs and {job["name"]: job["failure"] for job in jobs} == \
        {job["name"]: None for job in jobs}
