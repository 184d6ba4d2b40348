"""Smoke test of the benchmark harness: a short all-refs-demo run, untraced
and traced, must check its outputs as correct and report every metric that
BENCHMARK.json declares."""

import json
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).parent.parent


@pytest.mark.parametrize("trace", ["0", "1"])
def test_short_run_reports_every_declared_metric(trace):
    run = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "all-refs-demo", "--seed", "1",
         "--seconds", "1", "--trace", trace],
        cwd=ROOT, capture_output=True, text=True, timeout=300,
    )
    assert run.returncode == 0, run.stderr
    result = json.loads(run.stdout.splitlines()[-1])
    assert result["correct"] is True
    assert result["failed"] == 0
    declared = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    wanted = declared["per_layer"] if trace == "1" else declared["end_to_end"]
    assert {entry["name"] for entry in wanted} <= result["metrics"].keys()
