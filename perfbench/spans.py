"""Span tracer for the traced run, installed from outside the package.

`Tracer.install()` replaces every public function of the six vesselkit modules
(plus the CLI codec helpers) with a timing wrapper, in every namespace that
holds it: the defining module, each module that imported the name, and the
package.  Function-local imports (`from .matrix_kernel import resolvent`
inside a closure) read the module attribute at call time, so they see the
wrapper too.  `uninstall()` puts the originals back, so untraced iterations
run the unmodified code.

Each span records its name, start, end, parent and iteration.  Spans are kept
in memory (up to MAX_SPANS) and written out by `dump()`; per-name and
per-module totals are accumulated for every call, kept or not.
"""

from __future__ import annotations

import functools
import inspect
import json
import os
import sys
import time
from collections import defaultdict

MAX_SPANS = 200_000  # spans kept for dump(); totals count every call
MODULES = ("cli", "vessel_core", "ode_engine", "matrix_kernel",
           "spectral_synthesis", "interpolation")
CODEC = {
    "load_json": "load_json",
    "vessel_from_document": "decode",
    "_dec_family": "decode",
    "vessel_to_document": "encode",
    "_enc_family": "encode",
    "dump_json": "dump_json",
}


class Tracer:
    def __init__(self):
        self.modules = {name: sys.modules[f"vesselkit.{name}"] for name in MODULES}
        self.namespaces = list(self.modules.values()) + [sys.modules["vesselkit"]]
        self.names: list[str] = []
        self.spans: list[tuple] = []
        self.dropped = 0
        self.iteration = -1
        self.iterations = 0
        self.calls = defaultdict(int)
        self.busy = defaultdict(float)      # inclusive time per function
        self.self_time = defaultdict(float)  # exclusive time per module
        self.errors = defaultdict(int)       # raises originating in a module
        self.category = defaultdict(float)   # outermost codec time per category
        self.counters = defaultdict(float)
        self._depth = defaultdict(int)
        self._stack: list[list] = []
        self._next_id = 0
        self._last_exc = None
        self._operands: set = set()
        hooks = self._hooks()
        self._wrapped = {fn: self._wrap(fn, mod, name, hooks.get(f"{mod}.{name}"))
                         for fn, (mod, name) in self._collect().items()}

    def _collect(self) -> dict:
        found = {}
        for mod_name, mod in self.modules.items():
            for attr, obj in vars(mod).items():
                if (inspect.isfunction(obj) and obj.__module__ == mod.__name__
                        and (not attr.startswith("_") or attr in CODEC)):
                    found[obj] = (mod_name, attr)
        return found

    def install(self, iteration: int) -> None:
        self.iteration = iteration
        self.iterations += 1
        self._operands.clear()
        self._swap(self._wrapped)

    def uninstall(self) -> None:
        self._swap({w: fn for fn, w in self._wrapped.items()})
        self.counters["matrix_kernel.resolvent.distinct"] += len(self._operands)

    def _swap(self, table: dict) -> None:
        for ns in self.namespaces:
            for attr, obj in list(vars(ns).items()):
                if inspect.isfunction(obj) and obj in table:
                    setattr(ns, attr, table[obj])

    def _wrap(self, fn, module: str, name: str, hook):
        key = f"{module}.{name}"
        name_id = len(self.names)
        self.names.append(key)
        cat = CODEC.get(name) if module == "cli" else None
        clock = time.perf_counter

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            stack = self._stack
            frame = [clock(), 0.0, self._next_id]
            self._next_id += 1
            parent = stack[-1] if stack else None
            stack.append(frame)
            if cat:
                self._depth[cat] += 1
            try:
                result = fn(*args, **kwargs)
            except BaseException as exc:
                if exc is not self._last_exc:
                    self.errors[module] += 1
                    self._last_exc = exc
                raise
            else:
                if hook:
                    hook(args, kwargs, result)
                return result
            finally:
                end = clock()
                stack.pop()
                dur = end - frame[0]
                self.calls[key] += 1
                self.busy[key] += dur
                self.self_time[module] += dur - frame[1]
                if parent is not None:
                    parent[1] += dur
                if cat:
                    self._depth[cat] -= 1
                    if self._depth[cat] == 0:
                        self.category[cat] += dur
                if len(self.spans) < MAX_SPANS:
                    self.spans.append((frame[2], name_id, frame[0], end,
                                       parent[2] if parent else -1, self.iteration))
                else:
                    self.dropped += 1

        return wrapper

    def _hooks(self) -> dict:
        counters = self.counters

        def load_json(args, kwargs, result):
            counters["cli.bytes_in"] += os.path.getsize(args[0])

        def dump_json(args, kwargs, result):
            counters["cli.bytes_out"] += len(result.encode("utf-8"))

        def resolvent(args, kwargs, result):
            a = args[0]
            self._operands.add((getattr(a, "shape", None), hash(a.tobytes())
                                if hasattr(a, "tobytes") else id(a)))

        def march(args, kwargs, result):
            counters["ode_engine.march_steps"] += result.grid.n_steps

        return {
            "cli.load_json": load_json,
            "cli.dump_json": dump_json,
            "matrix_kernel.resolvent": resolvent,
            "ode_engine.fundamental_matrix": march,
            "ode_engine.integrate_linear_ode": march,
        }

    def metrics(self) -> dict:
        """Per-iteration layer metrics, named as in BENCHMARK.json."""
        k = max(self.iterations, 1)
        out = {}

        def ms(key):
            return 1000.0 * self.busy[key] / k

        def calls(key):
            return self.calls[key] / k

        cat_ms = {c: 1000.0 * self.category[c] / k
                  for c in ("load_json", "decode", "encode", "dump_json")}
        main_ms = ms("cli.main")
        codec_ms = sum(cat_ms.values())
        for c, v in cat_ms.items():
            out[f"cli.{c}.ms"] = v
        out["cli.compute.ms"] = max(main_ms - codec_ms, 0.0)
        out["cli.codec_share"] = codec_ms / main_ms if main_ms > 0 else 0.0
        out["cli.bytes_in"] = self.counters["cli.bytes_in"] / k
        out["cli.bytes_out"] = self.counters["cli.bytes_out"] / k
        for f in ("verify_vessel", "couple", "simulate", "gauge_equivalence"):
            out[f"vessel_core.{f}.ms"] = ms(f"vessel_core.{f}")
        for f in ("eval_transfer", "transfer_pde_residual"):
            out[f"vessel_core.{f}.calls"] = calls(f"vessel_core.{f}")
            out[f"vessel_core.{f}.ms"] = ms(f"vessel_core.{f}")
        out["ode_engine.fundamental_matrix.calls"] = calls("ode_engine.fundamental_matrix")
        out["ode_engine.fundamental_matrix.ms"] = ms("ode_engine.fundamental_matrix")
        out["ode_engine.integrate_linear_ode.ms"] = ms("ode_engine.integrate_linear_ode")
        out["ode_engine.march_steps"] = self.counters["ode_engine.march_steps"] / k
        for f in ("resolvent", "solve_sylvester", "matrix_exp"):
            out[f"matrix_kernel.{f}.calls"] = calls(f"matrix_kernel.{f}")
            out[f"matrix_kernel.{f}.ms"] = ms(f"matrix_kernel.{f}")
        distinct = self.counters["matrix_kernel.resolvent.distinct"]
        out["matrix_kernel.resolvent.operand_reuse"] = (
            self.calls["matrix_kernel.resolvent"] / distinct if distinct else 0.0)
        out["matrix_kernel.hermitian_sqrt.ms"] = ms("matrix_kernel.hermitian_sqrt")
        for f in ("build_discrete", "extract_elementary", "mult_integral",
                  "continuous_model_evolve"):
            out[f"spectral_synthesis.{f}.ms"] = ms(f"spectral_synthesis.{f}")
        out["spectral_synthesis.build_elementary.calls"] = calls(
            "spectral_synthesis.build_elementary")
        for f in ("extract_null_pole", "zero_pole_realize", "hermitian_realize",
                  "evolve_coupling"):
            out[f"interpolation.{f}.ms"] = ms(f"interpolation.{f}")
        for module in MODULES:
            out[f"{module}.self_ms"] = 1000.0 * self.self_time[module] / k
            out[f"{module}.errors"] = self.errors[module] / k
        return out

    def dump(self, path: str) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            json.dump({"names": self.names,
                       "fields": ["id", "name", "start", "end", "parent", "iteration"],
                       "spans": self.spans, "dropped": self.dropped}, fh)
