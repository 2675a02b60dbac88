"""Command-line surface: JSON documents in, JSON reports out.

Exit codes: 0 all checks pass, 1 input/validation error, 2 numerical failure
(an errors.NumericalFailure: spectrum clash, singular sigma1, ...), 3 condition
failure: some report row {name, value, bound, passed} failed value <= bound (a
non-finite value or bound is written as null, and fails).  stdout carries the
result document, written compactly on one line; stderr carries the human log,
ending in one line of stage times (load, decode, compute, encode, emit) and the
exit code.  All randomized probe choices are drawn from --seed (default 0), so
reports are byte-identical across runs.
"""
from __future__ import annotations

import argparse
import contextlib
import json
import sys
import time

import numpy as np

from . import spectral_synthesis as synth
from . import vessel_core as core
from .config import load_config
from .errors import GridMismatch, NumericalFailure, ShapeMismatch, VesselKitError
from .interpolation import (
    NullPoleTriple,
    evolve_coupling,
    sylvester_residuals,
    zero_pole_realize,
)
from .ode_engine import GridOperatorFamily, TimeGrid, _is_constant, fundamental_matrix

SCHEMA_VERSION = "vesselkit/1"
_OPERATOR_KEYS = ("A1", "A2", "B", "sigma1", "sigma2", "gamma", "gamma_star")
_PER_NODE_KEYS = ("A1", "B")  # the realization: every transfer evaluation reads it node by node

_EXIT_OK = 0
_EXIT_INPUT = 1
_EXIT_NUMERICAL = 2
_EXIT_CONDITION = 3


class InputError(Exception):
    pass


# ---------------------------------------------------------------------------
# JSON codecs: each operator array crosses the JSON boundary in one numpy
# conversion, complex entries as a trailing [re, im] axis.


def _enc_array(a) -> list:
    """Complex array (or scalar) as nested lists ending in [re, im] pairs."""
    a = np.asarray(a, dtype=complex)
    return np.stack([a.real, a.imag], -1).tolist()


def _enc_family(fam: GridOperatorFamily) -> list:
    """One matrix if every node holds the same bits, else the node matrices:
    the shortest form `_dec_family` reads back."""
    return _enc_array(fam.data[0] if _is_constant(fam.data) else fam.data)


def _dec_array(value, name: str) -> np.ndarray:
    """One JSON array as a float ndarray: rectangular, numeric, non-empty, finite."""
    try:
        arr = np.array(value)
    except ValueError as exc:
        raise InputError(f"{name}: ragged array, or bare reals mixed with [re, im] pairs") from exc
    if arr.dtype.kind not in "iuf":  # "b": all true/false (mixed with numbers, they read as floats)
        raise InputError(f"{name}: entries must be numbers, not true/false "
                         "(integers within the 64-bit range)")
    if arr.size == 0:
        raise InputError(f"{name}: empty array")
    arr = arr.astype(float, copy=False)
    if not np.all(np.isfinite(arr)):
        raise InputError(f"{name}: non-finite entry")
    return arr


def _as_complex(arr: np.ndarray, rank: int, name: str) -> np.ndarray:
    """`rank`-axis complex array from bare reals or from trailing [re, im] pairs."""
    if arr.ndim == rank:
        return arr.astype(complex)
    if arr.ndim != rank + 1 or arr.shape[-1] != 2:
        raise InputError(f"{name}: need {rank} axes of reals or of [re, im] pairs, "
                         f"got shape {arr.shape}")
    return np.ascontiguousarray(arr).view(complex)[..., 0]  # keeps -0.0 bit for bit


def _dec_complex(value, rank: int, name: str) -> np.ndarray:
    return _as_complex(_dec_array(value, name), rank, name)


def _dec_family(nodes, grid: TimeGrid, name: str) -> GridOperatorFamily:
    """Operator array: list of node matrices, or one matrix for a constant family."""
    arr = _dec_array(nodes, name)
    if arr.ndim == 4:  # [node][row][col][re, im]
        if arr.shape[0] != grid.n_nodes:
            raise InputError(f"{name}: need {grid.n_nodes} node matrices, got {arr.shape[0]}")
        return GridOperatorFamily(grid, _as_complex(arr, 3, name))
    if arr.ndim in (2, 3):  # [row][col] real or [row][col][re, im] constant shorthand
        return GridOperatorFamily.constant(_as_complex(arr, 2, name), grid)
    raise InputError(f"{name}: cannot interpret operator array of rank {arr.ndim}")


def _dec_number(doc, key: str, name: str, integer: bool = False):
    """Field `key` of the JSON object `doc` called `name`: a JSON integer if
    `integer`, else any JSON number (true and false are neither)."""
    if not isinstance(doc, dict) or key not in doc:
        raise InputError(f"missing field {name}.{key}")
    value = doc[key]
    if type(value) not in ((int,) if integer else (int, float)):
        raise InputError(f"{name}.{key} must be a JSON {'integer' if integer else 'number'}, "
                         f"got {value!r}")
    return value


def _dec_grid(doc, name: str = "grid") -> TimeGrid:
    t_start, t_end = (_dec_number(doc, key, name) for key in ("t_start", "t_end"))
    n_steps = _dec_number(doc, "n_steps", name, integer=True)
    try:
        return TimeGrid(float(t_start), float(t_end), n_steps)
    except (OverflowError, ShapeMismatch) as exc:
        raise InputError(f"{name}: {exc}") from exc


def _field(doc: dict, key: str):
    """Field `key` of a spec document; a missing field is an input error naming it."""
    try:
        return doc[key]
    except KeyError:
        raise InputError(f"missing field {key!r}") from None


def vessel_to_document(v: core.DifferentialVessel) -> dict:
    doc = {
        "schema_version": SCHEMA_VERSION,
        "dims": {"n": v.state_dim, "m": v.signal_dim},
        "grid": {
            "t_start": v.grid.t_start,
            "t_end": v.grid.t_end,
            "n_steps": v.grid.n_steps,
        },
    }
    for key in _OPERATOR_KEYS:
        fam = getattr(v, key)
        doc[key] = _enc_array(fam.data) if key in _PER_NODE_KEYS else _enc_family(fam)
    return doc


def vessel_from_document(doc) -> core.DifferentialVessel:
    if not isinstance(doc, dict):
        raise InputError("vessel document must be a JSON object")
    if doc.get("schema_version") != SCHEMA_VERSION:
        raise InputError(f"unsupported schema_version {doc.get('schema_version')!r}")
    n, m = (_dec_number(doc.get("dims"), key, "dims", integer=True) for key in ("n", "m"))
    grid = _dec_grid(doc.get("grid", {}))
    fams = {}
    for key in _OPERATOR_KEYS:
        if key not in doc:
            raise InputError(f"missing operator array {key!r}")
        fams[key] = _dec_family(doc[key], grid, key)
    if fams["B"].shape != (n, m):
        raise InputError(f"B shape {fams['B'].shape} inconsistent with dims ({n}, {m})")
    try:
        return core.DifferentialVessel(**fams)
    except VesselKitError as exc:
        raise InputError(str(exc)) from exc


def dump_json(doc) -> str:
    return json.dumps(doc, separators=(",", ":"), allow_nan=False) + "\n"


def load_json(path: str):
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return json.load(
                fh,
                parse_constant=lambda s: (_ for _ in ()).throw(InputError(f"non-finite number {s}")),
            )
    except OSError as exc:
        raise InputError(f"cannot read {path}: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise InputError(f"malformed JSON in {path}: {exc}") from exc


# ---------------------------------------------------------------------------
# stages and report assembly


class Stages:
    """Wall time of one command's stages; `compute` is the time outside the others."""

    def __init__(self):
        self.start = time.perf_counter()
        self.ms = dict.fromkeys(("load", "decode", "compute", "encode", "emit"), 0.0)

    @contextlib.contextmanager
    def __call__(self, name: str):
        t = time.perf_counter()
        try:
            yield
        finally:
            self.ms[name] += 1000.0 * (time.perf_counter() - t)

    def elapsed(self) -> float:
        """Seconds since the clock started."""
        return time.perf_counter() - self.start

    def line(self, command: str | None, code: int) -> str:
        ms = dict(self.ms, compute=1000.0 * self.elapsed() - sum(self.ms.values()))
        return (" ".join(filter(None, ("vesselkit", command))) + ": "
                + ", ".join(f"{k} {v:.1f} ms" for k, v in ms.items()) + f"; exit {code}")


def _read_object(path: str, what: str, stages: Stages) -> dict:
    with stages("load"):
        doc = load_json(path)
    if not isinstance(doc, dict):
        raise InputError(f"{what} must be a JSON object")
    return doc


def _read_vessel(path: str, stages: Stages) -> core.DifferentialVessel:
    with stages("load"):
        doc = load_json(path)
    with stages("decode"):
        return vessel_from_document(doc)


def _report(command: str, tolerances: dict, checks, probes: dict) -> dict:
    """The report document of `checks`; `main` fills in `timing` under --timing."""
    return {
        "schema_version": SCHEMA_VERSION,
        "command": command,
        "tolerances": tolerances,
        "residuals": [{"name": c.name, "value": _finite_or_none(c.value),
                       "bound": _finite_or_none(c.bound), "passed": c.passed} for c in checks],
        "probes": probes,
        "timing": {"seconds": None},
    }


def _finite_or_none(x) -> float | None:
    return float(x) if np.isfinite(x) else None


def _emit(doc, out, stages: Stages) -> None:
    with stages("emit"):
        text = dump_json(doc)
        if not out:
            sys.stdout.write(text)
            return
        try:
            with open(out, "w", encoding="utf-8") as fh:
                fh.write(text)
        except OSError as exc:
            raise InputError(f"cannot write {out}: {exc}") from exc


def _probe_lambdas(args, scale: float) -> list[complex]:
    if args.lam:
        return [_parse_complex(s) for s in args.lam]
    rng = np.random.default_rng(args.seed)
    out = []
    for _ in range(args.probes):
        out.append(complex(rng.uniform(0.8, 2.5) * max(scale, 1.0),
                           rng.uniform(-2.0, 2.0) * max(scale, 1.0)))
    return out


def _lam(args, default: complex) -> complex:
    """The first --lambda, or `default` when none is given."""
    return _parse_complex(args.lam[0]) if args.lam else default


def _parse_complex(s: str) -> complex:
    try:
        re, im = (float(p) for p in s.split(","))
    except ValueError as exc:
        raise InputError(f"--lambda wants 're,im', got {s!r}") from exc
    return complex(re, im)


def _node(args, grid: TimeGrid) -> int:
    try:
        return int(grid.node_indices(args.node))
    except GridMismatch as exc:
        raise InputError(f"--node {args.node}: {exc}") from None


# ---------------------------------------------------------------------------
# commands: each decodes its input, computes, and returns its document


def cmd_verify(args, stages: Stages) -> dict:
    v = _read_vessel(args.vessel, stages)
    report = core.verify_vessel(v, tol=args.tol)
    lambdas = _probe_lambdas(args, v.A1.max_norm())
    rng = np.random.default_rng(args.seed)
    nodes = sorted(int(x) for x in rng.integers(0, v.grid.n_nodes, size=min(args.probes, 5)))
    pde_worst = core.transfer_pde_residual_values(core.transfer_sweep(v, lambdas), v.sigma1,
                                                  v.sigma2, v.gamma, v.gamma_star, lambdas, v.grid)
    stencil = args.tol + report.h2_allowance
    checks = report.checks + (
        core.Check("adjoint_symmetry", core.adjoint_symmetry_residual(v, lambdas, nodes), stencil),
        core.Check("transfer_pde", pde_worst, stencil),
    )
    with stages("encode"):
        return _report("verify", {"tol": args.tol, "h2_allowance": report.h2_allowance},
                       checks, {"lambdas": _enc_array(lambdas), "nodes": nodes})


def cmd_synthesize(args, stages: Stages) -> dict:
    spec = _read_object(args.spec, "synthesis spec", stages)
    with stages("decode"):
        grid = _dec_grid(_field(spec, "grid"))
        sigma1, sigma2, gamma0 = (_dec_family(_field(spec, k), grid, k)
                                  for k in ("sigma1", "sigma2", "gamma0"))
        raw_data = _field(spec, "data")
        if not isinstance(raw_data, list) or not raw_data:
            raise InputError("data must be a non-empty list of {z, b0, theta?}")
        data = []
        for item in raw_data:
            theta = None
            if "theta" in item:
                theta = _dec_family(item["theta"], grid, "theta")
            data.append(
                synth.SpectralDatum(
                    z=complex(_dec_complex(_field(item, "z"), 0, "z")),
                    b0=_dec_complex(_field(item, "b0"), 1, "b0"),
                    theta=theta,
                )
            )
    v = synth.build_discrete(data, gamma0, sigma1, sigma2, grid, normalize=args.normalize)
    with stages("encode"):
        return vessel_to_document(v)


def cmd_transfer(args, stages: Stages) -> dict:
    v = _read_vessel(args.vessel, stages)
    node = _node(args, v.grid)
    lambdas = _probe_lambdas(args, v.A1.max_norm())
    sweep = core.transfer_sweep(v, lambdas, node)[:, 0]
    with stages("encode"):
        values = [
            {"lambda": lam, "node": node, "matrix": s}
            for lam, s in zip(_enc_array(lambdas), _enc_array(sweep))
        ]
    return {"schema_version": SCHEMA_VERSION, "command": "transfer", "values": values}


def cmd_couple(args, stages: Stages) -> dict:
    v1 = _read_vessel(args.first, stages)
    v2 = _read_vessel(args.second, stages)
    v = core.couple(v1, v2, tol=args.tol)
    with stages("encode"):
        return vessel_to_document(v)


def cmd_simulate(args, stages: Stages) -> dict:
    v = _read_vessel(args.vessel, stages)
    with stages("decode"):
        try:
            u0 = _dec_complex(json.loads(args.u0), 1, "--u0")
        except json.JSONDecodeError as exc:
            raise InputError(f"--u0 must be JSON like [[re,im],...]: {exc}") from exc
    lam = _lam(args, 1.0 + 0.5j)
    traj = core.simulate(v, lam, u0)
    checks = (
        core.Check("energy_defect_t1", np.max(np.abs(traj.energy_defect_t1)), args.tol),
        core.Check("energy_defect_t2", traj.energy_defect_t2,
                   args.tol + (v.grid.h ** 2) * 100),
    )
    with stages("encode"):
        doc = _report("simulate", {"tol": args.tol}, checks,
                      {"lambdas": [_enc_array(lam)], "nodes": []})
        doc["y"] = _enc_array(traj.y.data)
    return doc


def cmd_fundamental(args, stages: Stages) -> dict:
    spec = _read_object(args.coefficients, "coefficient document", stages)
    key = "gamma_star" if args.side == "output" else "gamma"
    with stages("decode"):
        grid = _dec_grid(_field(spec, "grid"))
        sigma1, sigma2, gamma = (_dec_family(_field(spec, k), grid, k)
                                 for k in ("sigma1", "sigma2", key))
    lam = _lam(args, 1.0 + 0.0j)
    node = _node(args, grid)
    phi = fundamental_matrix(lam, sigma1, sigma2, gamma, grid, side=args.side, base_index=node)
    with stages("encode"):
        return {
            "schema_version": SCHEMA_VERSION,
            "command": "fundamental",
            "lambda": _enc_array(lam),
            "side": args.side,
            "base_index": node,
            "samples": _enc_array(phi.family.data),
        }


def cmd_multint(args, stages: Stages) -> dict:
    spec = _read_object(args.kernel, "kernel document", stages)
    with stages("decode"):
        grid = _dec_grid(_field(spec, "s_grid"), "s_grid")
        kernel = _dec_family(_field(spec, "K"), grid, "K")
        c = _dec_complex(_field(spec, "c"), 1, "c")
    lam = _lam(args, 1.0 + 0.0j)
    s_upper = grid.n_steps if args.s_upper is None else args.s_upper
    w = synth.mult_integral(kernel, c, lam, s_upper)
    with stages("encode"):
        return {
            "schema_version": SCHEMA_VERSION,
            "command": "multint",
            "lambda": _enc_array(lam),
            "s_upper": s_upper,
            "matrix": _enc_array(w),
        }


def cmd_factor(args, stages: Stages) -> dict:
    v = _read_vessel(args.vessel, stages)
    _node(args, v.grid)
    which = _parse_complex(args.which) if "," in args.which else int(args.which)
    result = synth.extract_elementary(v, which, node_ref=args.node, tol=args.tol)
    # A zero tol would put the contour on the eigenvalue itself: floor it at eps.
    radius = max(args.tol, np.finfo(float).eps) ** 0.25 * 1e-1
    res = synth.residue_norm(lambda lam: result.quotient_transfer(lam, args.node),
                             result.eigenvalue, radius=radius)
    checks = (core.Check("quotient_residue", res, args.tol),
              core.Check("eigvec_transport", result.eigvec_residual, 1e-6))
    with stages("encode"):
        doc = _report("factor", {"tol": args.tol}, checks, {"lambdas": [], "nodes": [args.node]})
        doc["factor"] = vessel_to_document(result.factor)
    return doc


def cmd_realize(args, stages: Stages) -> dict:
    spec = _read_object(args.triple, "null-pole triple document", stages)
    with stages("decode"):
        grid = _dec_grid(_field(spec, "grid"))
        sigma1, sigma2, gamma_star, c, bn = (
            _dec_family(_field(spec, k), grid, k)
            for k in ("sigma1", "sigma2", "gamma_star", "C", "Bn"))
        a_pi, a_xi = (_dec_complex(_field(spec, k), 2, k) for k in ("A_pi", "A_xi"))
        x = _dec_family(spec["X"], grid, "X") if "X" in spec else None
        x0 = _dec_complex(_field(spec, "X0"), 2, "X0") if x is None else None
    if x is None:
        x = evolve_coupling(c, a_pi, a_xi, bn, x0, sigma1, sigma2, gamma_star, grid, tol=args.tol)
    triple = NullPoleTriple(C=c, A_pi=a_pi, A_xi=a_xi, Bn=bn, X=x)
    realized = zero_pole_realize(triple, gamma_star, sigma1, sigma2)
    res = sylvester_residuals(triple, sigma1)
    lambdas = _probe_lambdas(args, float(np.max(np.abs(np.linalg.eigvals(a_pi)))))
    every_node = np.arange(grid.n_nodes)
    pde = core.transfer_pde_residual_values(realized.transfer(lambdas, every_node), sigma1, sigma2,
                                            realized.gamma, gamma_star, lambdas, grid)
    allowance = (grid.h ** 2) * max(1.0, c.max_norm() + bn.max_norm()) ** 3
    checks = (core.Check("sylvester_max", res.max(), args.tol + allowance),
              core.Check("transfer_pde", pde, args.tol + allowance))
    with stages("encode"):
        doc = _report("realize", {"tol": args.tol, "h2_allowance": allowance}, checks,
                      {"lambdas": _enc_array(lambdas), "nodes": []})
        doc["vessel"] = vessel_to_document(realized.vessel)
        doc["singular_nodes"] = list(realized.singular_nodes)
    return doc


def cmd_gauge(args, stages: Stages) -> dict:
    v1 = _read_vessel(args.first, stages)
    v2 = _read_vessel(args.second, stages)
    _node(args, v1.grid)
    verdict = core.gauge_equivalence(v1, v2, node=args.node, probes=args.probes,
                                     tol=args.tol, seed=args.seed)
    equivalent = not isinstance(verdict, core.NotEquivalent)
    check = core.Check("gauge_equivalence", 0.0 if equivalent else verdict.defect, args.tol)
    with stages("encode"):
        doc = _report("gauge", {"tol": args.tol}, [check], {"lambdas": [], "nodes": [args.node]})
        doc["equivalent"] = equivalent
        if equivalent:
            doc["U"] = _enc_array(verdict.U.data)
        else:
            doc["reason"] = verdict.reason
    return doc


# ---------------------------------------------------------------------------
# parser: each subcommand accepts the options its function reads, and -o


_COMMANDS = {  # name: (function, help, positional arguments, options)
    "verify": (cmd_verify, "run every vessel condition as a residual report",
               ("vessel",), ("tol", "lambda", "probes", "seed", "timing")),
    "synthesize": (cmd_synthesize, "build a vessel from discrete spectral data",
                   ("spec",), ("normalize",)),
    "transfer": (cmd_transfer, "evaluate the transfer function",
                 ("vessel",), ("node", "lambda", "probes", "seed")),
    "couple": (cmd_couple, "cascade two vessels", ("first", "second"), ("tol",)),
    "simulate": (cmd_simulate, "separated-variables trajectory with energy balance",
                 ("vessel",), ("u0", "lambda", "tol", "timing")),
    "fundamental": (cmd_fundamental, "fundamental matrix of the input/output ODE",
                    ("coefficients",), ("side", "lambda", "node")),
    "multint": (cmd_multint, "left-ordered multiplicative integral",
                ("kernel",), ("lambda", "s-upper")),
    "factor": (cmd_factor, "extract one elementary Blaschke-type factor",
               ("vessel",), ("node", "which", "tol", "timing")),
    "realize": (cmd_realize, "unique transfer function from a null-pole triple",
                ("triple",), ("tol", "lambda", "probes", "seed", "timing")),
    "gauge": (cmd_gauge, "test gauge equivalence of two vessels",
              ("first", "second"), ("node", "probes", "tol", "seed", "timing")),
}


def build_parser() -> argparse.ArgumentParser:
    try:
        cfg = load_config()
    except (OSError, ValueError) as exc:
        raise InputError(f"config file: {exc}") from exc
    options = {
        "tol": {"type": float, "default": cfg.tol},
        "lambda": {"dest": "lam", "action": "append", "metavar": "RE,IM",
                   "help": "spectral parameter; repeatable"},
        "node": {"type": int, "default": 0},
        "probes": {"type": int, "default": cfg.probes},
        "seed": {"type": int, "default": cfg.seed},
        "timing": {"action": "store_true", "help": "include the wall time in the report"},
        "normalize": {"action": "store_true"},
        "u0": {"required": True, "help": "JSON list of [re,im] entries"},
        "side": {"choices": ("input", "output"), "default": "input"},
        "s-upper": {"type": int, "default": None},
        "which": {"default": "0", "help": "eigenvalue index or 're,im' target"},
    }
    ap = argparse.ArgumentParser(prog="vesselkit", description=__doc__,
                                 formatter_class=argparse.RawDescriptionHelpFormatter)
    sub = ap.add_subparsers(dest="command", required=True)
    for name, (fn, help_text, positionals, flags) in _COMMANDS.items():
        p = sub.add_parser(name, help=help_text)
        for arg in positionals:
            p.add_argument(arg)
        for flag in flags:
            p.add_argument("--" + flag, **options[flag])
        p.add_argument("-o", "--output", default=None, help="write the result document to a file")
        p.set_defaults(fn=fn)
    return ap


def main(argv=None) -> int:
    """Run one command: its document goes to stdout or -o, and the exit code is
    3 iff some `residuals` row of the document failed."""
    stages = Stages()
    command = None
    try:
        args = build_parser().parse_args(argv)
        command = args.command
        if not 0.0 <= getattr(args, "tol", 0.0) < np.inf:
            raise InputError(f"--tol must be finite and non-negative, got {args.tol!r}")
        if getattr(args, "probes", 0) < 0:
            raise InputError(f"--probes must be non-negative, got {args.probes!r}")
        if getattr(args, "seed", 0) < 0:
            raise InputError(f"--seed must be non-negative, got {args.seed!r}")
        doc = args.fn(args, stages)
        if getattr(args, "timing", False):
            doc["timing"]["seconds"] = round(stages.elapsed(), 6)
        _emit(doc, args.output, stages)
        failed = any(not row["passed"] for row in doc.get("residuals", ()))
        code = _EXIT_CONDITION if failed else _EXIT_OK
    except SystemExit as exc:  # argparse has written its usage message
        return _EXIT_INPUT if exc.code not in (0, None) else 0
    except InputError as exc:
        _emit_error("input", str(exc))
        code = _EXIT_INPUT
    except VesselKitError as exc:
        kind = type(exc).__name__
        _emit_error(kind, str(exc))
        code = _EXIT_NUMERICAL if isinstance(exc, NumericalFailure) else _EXIT_INPUT
    except (KeyError, TypeError, ValueError) as exc:
        # malformed document structure surfacing past the codecs
        _emit_error("input", f"{type(exc).__name__}: {exc}")
        code = _EXIT_INPUT
    print(stages.line(command, code), file=sys.stderr)
    return code


def _emit_error(kind: str, message: str) -> None:
    sys.stdout.write(dump_json({"schema_version": SCHEMA_VERSION, "error": {"kind": kind, "message": message}}))
    print(f"error[{kind}]: {message}", file=sys.stderr)


if __name__ == "__main__":
    sys.exit(main())
