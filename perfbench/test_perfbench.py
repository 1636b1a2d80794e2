"""Checks on the benchmark itself: determinism, gates and workload roles.

Run with ``python3 -m pytest perfbench -q``; it takes a few minutes
because every case runs the real workloads through ``run.py``.
"""

from __future__ import annotations

import json
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))
sys.path.insert(0, str(HERE))

import tracing  # noqa: E402
from workloads import WORKLOADS, round_rng  # noqa: E402


def bench(workload: str, seed: int, trace: int) -> dict:
    """One shortest run (the fewest rounds the mode allows)."""
    out = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", "1", "--trace", str(trace)],
        cwd=HERE.parent, capture_output=True, text=True, timeout=600,
        check=True)
    result = json.loads(out.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    return result


@pytest.mark.parametrize("workload", sorted(WORKLOADS))
def test_traced_counts_repeat_and_confirm_the_workload_role(workload):
    first = bench(workload, 1, 1)
    second = bench(workload, 1, 1)
    for run in (first, second):
        assert run["correct"] and run["failed"] == 0
    m = {k: v["value"] for k, v in first["metrics"].items()}
    again = {k: v["value"] for k, v in second["metrics"].items()}
    for name in tracing.COUNT_METRICS:
        assert m[name] == again[name], name
    assert m["trace.overhead_s"] > 0.0

    if workload == "point-late":
        assert m["flow.scalar_s"] >= 0.9 * m["trace.wall_s"]
        assert m["flow.batch_marches"] == 0
        assert 0.0 < m["period.invert_hit_ratio"] < 1.0
    elif workload == "design-profile":
        assert m["shooting.batch_rounds"] > 0
        assert m["flow.scalar_marches"] == 0
    else:
        assert m["flow.scalar_marches"] == 0
        assert m["shooting.solves"] == 0


@pytest.mark.parametrize("workload", sorted(WORKLOADS))
def test_second_seed_changes_inputs_and_passes_every_gate(workload):
    wl = WORKLOADS[workload]
    a = wl.inputs(round_rng(1, 0))
    b = wl.inputs(round_rng(2, 0))
    assert a != b
    assert wl.inputs(round_rng(1, 0)) == a

    run = bench(workload, 2, 0)
    assert run["correct"] and run["failed"] == 0 and run["attempted"] > 0
    assert all(v["value"] > 0.0 for v in run["metrics"].values())
