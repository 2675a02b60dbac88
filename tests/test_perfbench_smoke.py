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
    # The node_batch probes are minimal chains (PBH) whose monomial Krylov
    # matrix loses rank: gauge_equivalence must accept them, and the only
    # failures left are extract_null_pole refusing them on its monomial gate.
    for trace in (0, 1):
        path = os.path.join(ROOT, ".perfbench_out", f"node_batch-seed0-trace{trace}.json")
        with open(path, encoding="utf-8") as fh:
            failures = json.load(fh)["details"]["failures"]
        assert [(f["op"], f["kind"]) for f in failures] == [
            ("probe_n16_m2.extract_null_pole", "known defect"),
            ("probe_n20_m4.extract_null_pole", "known defect")]
