"""Two traced runs of one seed must agree on every count exactly.

Run from the repository root (about three minutes)::

    python3 -m pytest perfbench/tests -q

Each workload runs at reduced size: ``--seconds 1`` plans the smallest
run a workload allows (two check rounds, one faults campaign and its
re-runs, repairs of D9, C2 and D9 and the re-runs, two blocks of first
requests per serve client).
"""

import json
import os
import subprocess
import sys

import pytest

ROOT = os.path.dirname(os.path.dirname(os.path.dirname(
    os.path.abspath(__file__))))
RUN = os.path.join(ROOT, "perfbench", "run.py")
WORKLOADS = ("check-testbed", "faults-campaign", "repair-d9-c2", "serve-mix")


def traced_run(workload, seed):
    proc = subprocess.run(
        [sys.executable, RUN, "--workload", workload, "--seed", str(seed),
         "--seconds", "1", "--trace", "1"],
        cwd=ROOT, stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True,
        timeout=300,
    )
    assert proc.returncode == 0, proc.stderr[-2000:]
    return json.loads(proc.stdout.strip().splitlines()[-1])


@pytest.mark.parametrize("workload", WORKLOADS)
def test_counts_repeat_exactly(workload):
    first, second = traced_run(workload, 3), traced_run(workload, 3)
    for result in (first, second):
        assert result["correct"] and result["failed"] == 0
    counts = {
        name for name, metric in first["metrics"].items()
        if metric["unit"] == "count"
    }
    assert counts, "no count metrics reported"
    differing = {
        name: (first["metrics"][name]["value"],
               second["metrics"][name]["value"])
        for name in sorted(counts)
        if first["metrics"][name] != second["metrics"][name]
    }
    assert not differing
    assert first["attempted"] == second["attempted"]
