"""The benchmark harness still runs against the package (its tracer wraps
the public functions that exist, and a hook reads `fundamental_matrix(...).grid`)."""

import json
import os
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def test_perfbench_smoke_run():
    proc = subprocess.run([sys.executable, "perfbench/run.py", "--smoke"], cwd=ROOT,
                          capture_output=True, text=True, timeout=600)
    assert proc.returncode == 0, proc.stdout[-2000:] + proc.stderr[-2000:]
    assert json.loads(proc.stdout.strip().splitlines()[-1])["smoke"] == "ok"
    # Every smoke workload runs clean at both traces: node_batch's probes are
    # minimal chains (PBH) whose monomial Krylov matrix loses rank, and both
    # gauge_equivalence and extract_null_pole must accept them.
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        names = [w["name"] for w in json.load(fh)["workloads"]]
    assert "node_batch" in names
    for name in names:
        for trace in (0, 1):
            path = os.path.join(ROOT, ".perfbench_out", f"{name}-seed0-trace{trace}.json")
            with open(path, encoding="utf-8") as fh:
                assert json.load(fh)["details"]["failures"] == [], (name, trace)
