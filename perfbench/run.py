"""vesselkit benchmark: three closed-loop workloads, end-to-end and per-layer metrics.

Run from the root of a checkout (vesselkit is imported from its src/):

    python3 perfbench/run.py --workload node_batch --seed 1 --seconds 30 --trace 0
    python3 perfbench/run.py --smoke

Workloads (see BENCHMARK.json for why each was chosen): cli_pipeline,
node_batch, lambda_sweep.  One client runs iterations back to back, each on
fresh inputs drawn from (--seed, iteration); inputs are made and outputs
checked outside the timed part of the iteration.

With --trace 0 the last stdout line carries the end-to-end metrics; with
--trace 1 it carries the per-layer metrics of a run whose odd iterations are
traced (see spans.py) and whose even ones are not, so tracing overhead is
their difference.  The line before it holds the details (environment, tail
percentile and sample count, failure reasons, per-operation medians), and
both, plus any spans, are also written to .perfbench_out/ in the checkout.

--smoke runs every workload once at tiny sizes, traced and untraced, checks
that every metric of BENCHMARK.json is emitted with its unit, and checks that
the correctness gate fires on a vessel with a perturbed A1.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
from collections import Counter, defaultdict

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(ROOT, ".perfbench_out")
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
SETUP_SAMPLES = 5


def pin_threads() -> None:
    """One BLAS thread, set before numpy loads; child processes inherit it."""
    for var in THREAD_VARS:
        os.environ[var] = "1"


def import_program() -> None:
    """Import vesselkit from this checkout's src/ and from nowhere else."""
    package = os.path.join(SRC, "vesselkit")
    if not os.path.isfile(os.path.join(package, "cli.py")):
        sys.exit(f"perfbench: no vesselkit sources at {package}")
    sys.path.insert(0, SRC)
    import vesselkit.cli

    if os.path.dirname(os.path.abspath(vesselkit.cli.__file__)) != package:
        sys.exit(f"perfbench: imported vesselkit from {vesselkit.cli.__file__}, not {package}")


def load_spec() -> dict:
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        return json.load(fh)


def make_workdir() -> str:
    path = os.path.join(OUT, f"work-{os.getpid()}")
    os.makedirs(path, exist_ok=True)
    return path


def warm_up(wl, workdir) -> None:
    """One pass at tiny sizes, so lazy imports and first-call set-up are done."""
    import inputs
    import workloads

    wl.ops(wl.make(inputs.fixed_rng(1), "smoke", workdir), workloads.Outcome())


def setup_probe(name: str, seed: int, size: str) -> int:
    """Child process of measure_setup: import, make inputs, warm up, report ready."""
    import inputs
    import workloads

    wl = workloads.WORKLOADS[name]
    workdir = make_workdir()
    try:
        wl.make(inputs.rng_for(seed, 0), size, workdir)
        warm_up(wl, workdir)
        print("ready", flush=True)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    return 0


def measure_setup(name: str, seed: int, size: str, count: int) -> list[float]:
    """Wall time from starting a fresh process to its first timed iteration."""
    samples = []
    for _ in range(count):
        start = time.perf_counter()
        proc = subprocess.Popen(
            [sys.executable, os.path.abspath(__file__), "--setup-probe", "--workload", name,
             "--seed", str(seed), "--size", size],
            cwd=ROOT, stdout=subprocess.PIPE, text=True)
        line = proc.stdout.readline()
        samples.append(time.perf_counter() - start)
        proc.communicate(timeout=120)
        if proc.returncode != 0 or line.strip() != "ready":
            raise RuntimeError(f"set-up probe exited with {proc.returncode}")
    return samples


class Ledger:
    """Operations attempted and failed over a run, with the reasons."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.unexpected = 0
        self.counts = Counter()
        self.examples: dict[tuple, str] = {}

    def add(self, outcome) -> None:
        for op, reason in outcome.status.items():
            self.attempted += 1
            if reason is None:
                continue
            self.failed += 1
            known = op in outcome.known
            self.unexpected += not known
            key = (op.split("[")[0], "known defect" if known else "unexpected")
            self.counts[key] += 1
            self.examples.setdefault(key, outcome.known.get(op, reason))

    def report(self) -> list[dict]:
        return [{"op": op, "kind": kind, "count": n, "example": self.examples[(op, kind)]}
                for (op, kind), n in sorted(self.counts.items())]


def tail(samples: list[float]) -> tuple[float, float, int]:
    """Highest percentile with at least 10 samples beyond it.

    Runs with fewer than 40 samples use a quarter of them instead of 10, so a
    short run still reports a tail rather than its maximum.
    """
    ordered = sorted(samples)
    n = len(ordered)
    beyond = min(10, n // 4)
    return ordered[n - 1 - beyond], 100.0 * (n - beyond) / n, beyond


def environment() -> dict:
    import numpy
    import scipy

    def blas(mod):
        try:
            return mod.show_config(mode="dicts")["Build Dependencies"]["blas"].get("version")
        except (AttributeError, KeyError, TypeError):
            return None

    return {
        "nproc": os.cpu_count(),
        "usable_cpus": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "numpy_openblas": blas(numpy),
        "scipy_openblas": blas(scipy),
        "blas_threads": {var: os.environ.get(var) for var in THREAD_VARS},
    }


def run(name: str, seed: int, seconds: float, trace: bool, spec: dict,
        size: str = "full", setup_samples: int = SETUP_SAMPLES) -> dict:
    import inputs
    import workloads
    from spans import Tracer

    wl = workloads.WORKLOADS[name]
    setup = [] if trace else measure_setup(name, seed, size, setup_samples)
    workdir = make_workdir()
    tracer = None
    ledger = Ledger()
    times = {False: [], True: []}
    op_ms = defaultdict(list)
    worst = None
    try:
        warm_up(wl, workdir)
        tracer = Tracer() if trace else None
        start = time.perf_counter()
        it = 0
        while True:
            traced = trace and it % 2 == 1
            inp = wl.make(inputs.rng_for(seed, it), size, workdir)
            outcome = workloads.Outcome()
            if traced:
                tracer.install(it)
            t0 = time.perf_counter()
            try:
                out = wl.ops(inp, outcome)
            finally:
                elapsed = time.perf_counter() - t0
                if traced:
                    tracer.uninstall()
            wl.check(inp, out, outcome)
            ledger.add(outcome)
            times[traced].append(1000.0 * elapsed)
            if not traced:
                for op, ms in outcome.op_ms.items():
                    op_ms[op].append(ms)
            it += 1
            if (time.perf_counter() - start >= seconds
                    and (not trace or (times[True] and times[False]))):
                break
        if not trace:
            # Fixed inputs, independent of --seed, so the ratio repeats exactly.
            fixed = workloads.Outcome()
            inp = wl.make(inputs.fixed_rng(0), size, workdir)
            wl.check(inp, wl.ops(inp, fixed), fixed)
            ledger.add(fixed)
            worst = fixed.worst
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    untraced = times[False]
    details = {
        "workload": name, "seed": seed, "seconds": seconds, "trace": int(trace), "size": size,
        "iterations": {"untraced": len(untraced), "traced": len(times[True])},
        "fail_ratio": ledger.failed / ledger.attempted,
        "failures": ledger.report(),
        "op_p50_ms": {op: statistics.median(v) for op, v in op_ms.items()},
        "environment": environment(),
    }
    if trace:
        metrics = tracer.metrics()
        metrics["trace.overhead_ms"] = statistics.median(times[True]) - statistics.median(untraced)
        details["traced_iter_p50_ms"] = statistics.median(times[True])
        details["untraced_iter_p50_ms"] = statistics.median(untraced)
        details["spans_file"] = os.path.join(OUT, f"spans-{name}-seed{seed}.json")
        details["spans_dropped"] = tracer.dropped
        tracer.dump(details["spans_file"])
        wanted = spec["per_layer"]
    else:
        tail_ms, pct, beyond = tail(untraced)
        details["iter_tail"] = {"percentile": pct, "samples_beyond": beyond,
                                "sample_count": len(untraced)}
        details["setup_samples_s"] = setup
        details["worst_residual"] = {"ratio": worst[0], "check": worst[1]}
        metrics = {
            "setup_s": statistics.median(setup),
            "iter_p50_ms": statistics.median(untraced),
            "iter_tail_ms": tail_ms,
            "pass_ratio": 1.0 - ledger.failed / ledger.attempted,
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
            "worst_residual_ratio": worst[0],
        }
        wanted = spec["end_to_end"]
    units = {m["name"]: m["unit"] for m in wanted}
    if set(metrics) != set(units):
        raise RuntimeError(f"metrics {sorted(set(metrics) ^ set(units))} "
                           "differ from BENCHMARK.json")
    final = {
        "correct": ledger.unexpected == 0,
        "attempted": ledger.attempted,
        "failed": ledger.failed,
        "metrics": {k: {"value": float(metrics[k]), "unit": units[k]} for k in units},
    }
    with open(os.path.join(OUT, f"{name}-seed{seed}-trace{int(trace)}.json"), "w",
              encoding="utf-8") as fh:
        json.dump({"details": details, "result": final}, fh, indent=1)
    return {"details": details, "final": final}


def smoke(spec: dict) -> int:
    import inputs
    import workloads

    problems = []
    for name in workloads.WORKLOADS:
        for trace in (False, True):
            res = run(name, 0, 0.0, trace, spec, size="smoke", setup_samples=1)
            if not res["final"]["correct"]:
                problems.append(f"{name} trace={int(trace)}: {res['details']['failures']}")
    wl = workloads.WORKLOADS["cli_pipeline"]
    workdir = make_workdir()
    try:
        inp = wl.make(inputs.fixed_rng(0), "smoke", workdir)
        wl.ops(inp, workloads.Outcome())
        gate = workloads.Outcome()
        code = wl.perturbed_verify(inp, gate)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    ledger = Ledger()
    ledger.add(gate)
    if code != 3 or ledger.failed != 1:
        problems.append(f"perturbed A1: verify exited {code}, {ledger.failed} failure(s) counted")
    print(json.dumps({"smoke": "ok" if not problems else "failed", "problems": problems}))
    return 0 if not problems else 1


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", choices=("cli_pipeline", "node_batch", "lambda_sweep"))
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=10.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--smoke", action="store_true")
    ap.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    ap.add_argument("--size", choices=("full", "smoke"), default="full", help=argparse.SUPPRESS)
    args = ap.parse_args(argv)
    if not args.smoke and not args.workload:
        ap.error("--workload is required")
    pin_threads()
    import_program()
    if args.setup_probe:
        return setup_probe(args.workload, args.seed, args.size)
    spec = load_spec()
    os.makedirs(OUT, exist_ok=True)
    if args.smoke:
        return smoke(spec)
    res = run(args.workload, args.seed, args.seconds, bool(args.trace), spec)
    print(json.dumps({"details": res["details"]}))
    print(json.dumps(res["final"]))
    return 0


if __name__ == "__main__":
    sys.exit(main())
