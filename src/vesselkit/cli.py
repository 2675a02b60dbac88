"""Command-line surface: JSON documents in, JSON reports out.

Exit codes: 0 all checks pass, 1 input/validation error, 2 numerical failure
(spectrum clash, singular sigma1, ...), 3 condition failure.  stdout carries
the result document, stderr the human log.  All randomized probe choices are
drawn from --seed (default 0), so reports are byte-identical across runs.
"""

from __future__ import annotations

import argparse
import json
import sys
import time

import numpy as np

from . import spectral_synthesis as synth
from . import vessel_core as core
from .config import load_config
from .errors import VesselKitError, NonFinite, ShapeMismatch
from .interpolation import (
    NullPoleTriple,
    evolve_coupling,
    sylvester_residuals,
    zero_pole_realize,
)
from .ode_engine import GridOperatorFamily, TimeGrid, fundamental_matrix

SCHEMA_VERSION = "vesselkit/1"
_OPERATOR_KEYS = ("A1", "A2", "B", "sigma1", "sigma2", "gamma", "gamma_star")

_EXIT_OK = 0
_EXIT_INPUT = 1
_EXIT_NUMERICAL = 2
_EXIT_CONDITION = 3

_NUMERICAL_ERRORS = (
    "SpectrumClash",
    "SingularSigma1",
    "SingularSystem",
    "NonFinite",
    "NotPositiveDefinite",
    "DegenerateB",
    "DegenerateEigenvalue",
    "TransportBreakdown",
    "CouplingSingular",
    "NotMinimal",
)


class InputError(Exception):
    pass


# ---------------------------------------------------------------------------
# JSON codecs


def _enc_complex(z: complex) -> list[float]:
    return [float(np.real(z)), float(np.imag(z))]


def _enc_matrix(m) -> list:
    arr = np.asarray(m, dtype=complex)
    return [[_enc_complex(arr[i, j]) for j in range(arr.shape[1])] for i in range(arr.shape[0])]


def _enc_family(fam: GridOperatorFamily) -> list:
    return [_enc_matrix(fam[i]) for i in range(len(fam))]


def _dec_complex(v) -> complex:
    if isinstance(v, (int, float)):
        return complex(v)
    if not (isinstance(v, list) and len(v) == 2):
        raise InputError(f"complex scalar must be [re, im], got {v!r}")
    re, im = v
    if not all(isinstance(x, (int, float)) for x in (re, im)):
        raise InputError(f"complex scalar must hold numbers, got {v!r}")
    return complex(re, im)


def _dec_matrix(rows, name: str) -> np.ndarray:
    if not isinstance(rows, list) or not rows:
        raise InputError(f"{name}: matrix must be a non-empty list of rows")
    if not all(isinstance(row, list) and row for row in rows):
        raise InputError(f"{name}: every matrix row must be a non-empty list")
    if len({len(row) for row in rows}) != 1:
        raise InputError(f"{name}: ragged matrix rows")
    mat = np.array([[_dec_complex(e) for e in row] for row in rows], dtype=complex)
    if not np.all(np.isfinite(mat.real) & np.isfinite(mat.imag)):
        raise InputError(f"{name}: non-finite entry")
    return mat


def _list_depth(v, limit: int = 5) -> int:
    d = 0
    while isinstance(v, list) and d < limit:
        if not v:
            break
        v = v[0]
        d += 1
    return d


def _dec_family(nodes, grid: TimeGrid, name: str) -> GridOperatorFamily:
    """Operator array: list of node matrices, or one matrix for a constant family."""
    if not isinstance(nodes, list) or not nodes:
        raise InputError(f"{name}: operator array must be a non-empty list")
    depth = _list_depth(nodes)
    if depth == 4:  # [node][row][col][re, im]
        mats = [_dec_matrix(node, name) for node in nodes]
        if len(mats) != grid.n_nodes:
            raise InputError(f"{name}: need {grid.n_nodes} node matrices, got {len(mats)}")
        try:
            return GridOperatorFamily(grid, np.stack(mats))
        except (ShapeMismatch, NonFinite, ValueError) as exc:
            raise InputError(f"{name}: {exc}") from exc
    if depth == 3:  # [row][col][re, im] constant shorthand
        return GridOperatorFamily.constant(_dec_matrix(nodes, name), grid)
    if depth == 2:  # [row][col] real constant shorthand
        return GridOperatorFamily.constant(_dec_matrix(nodes, name), grid)
    raise InputError(f"{name}: cannot interpret operator array of nesting depth {depth}")


def _dec_grid(doc, name: str = "grid", override_steps=None) -> TimeGrid:
    try:
        n_steps = int(doc["n_steps"]) if override_steps is None else int(override_steps)
        return TimeGrid(float(doc["t_start"]), float(doc["t_end"]), n_steps)
    except (KeyError, TypeError, ValueError, ShapeMismatch) as exc:
        raise InputError(f"{name}: {exc}") from exc


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
        doc[key] = _enc_family(getattr(v, key))
    return doc


def vessel_from_document(doc) -> core.DifferentialVessel:
    if not isinstance(doc, dict):
        raise InputError("vessel document must be a JSON object")
    if doc.get("schema_version") != SCHEMA_VERSION:
        raise InputError(f"unsupported schema_version {doc.get('schema_version')!r}")
    dims = doc.get("dims")
    if not isinstance(dims, dict) or "n" not in dims or "m" not in dims:
        raise InputError("missing dims {n, m}")
    grid = _dec_grid(doc.get("grid", {}))
    fams = {}
    for key in _OPERATOR_KEYS:
        if key not in doc:
            raise InputError(f"missing operator array {key!r}")
        fams[key] = _dec_family(doc[key], grid, key)
    n, m = int(dims["n"]), int(dims["m"])
    if fams["B"].shape != (n, m):
        raise InputError(f"B shape {fams['B'].shape} inconsistent with dims ({n}, {m})")
    try:
        return core.DifferentialVessel(**fams)
    except VesselKitError as exc:
        raise InputError(str(exc)) from exc


def dump_json(doc) -> str:
    return json.dumps(doc, indent=1, allow_nan=False) + "\n"


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
# report assembly


def _report(command: str, tolerances: dict, residual_rows: list, probes: dict, timing) -> dict:
    return {
        "schema_version": SCHEMA_VERSION,
        "command": command,
        "tolerances": tolerances,
        "residuals": residual_rows,
        "probes": probes,
        "timing": {"seconds": timing},
    }


def _emit(doc, out=None) -> None:
    text = dump_json(doc)
    if out:
        with open(out, "w", encoding="utf-8") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def _probe_lambdas(args, scale: float) -> list[complex]:
    if args.lam:
        return [_parse_complex(s) for s in args.lam]
    rng = np.random.default_rng(args.seed)
    out = []
    for _ in range(args.probes):
        out.append(complex(rng.uniform(0.8, 2.5) * max(scale, 1.0),
                           rng.uniform(-2.0, 2.0) * max(scale, 1.0)))
    return out


def _parse_complex(s: str) -> complex:
    try:
        re, im = (float(p) for p in s.split(","))
    except ValueError as exc:
        raise InputError(f"--lambda wants 're,im', got {s!r}") from exc
    return complex(re, im)


# ---------------------------------------------------------------------------
# commands


def cmd_verify(args) -> int:
    t0 = time.monotonic()
    v = vessel_from_document(load_json(args.vessel))
    report = core.verify_vessel(v, tol=args.tol)
    lambdas = _probe_lambdas(args, v.A1.max_norm())
    rng = np.random.default_rng(args.seed)
    nodes = sorted(int(x) for x in rng.integers(0, v.grid.n_nodes, size=min(args.probes, 5)))
    rows = [
        {"name": k, "value": report.residuals[k], "passed": bool(report.passed[k])}
        for k in report.residuals
    ]
    sweep = core.transfer_sweep(v, lambdas)
    pde_worst = max((core.transfer_pde_residual_values(s, v.sigma1, v.sigma2, v.gamma,
                                                       v.gamma_star, lam, v.grid)
                     for s, lam in zip(sweep, lambdas)), default=0.0)
    sym_worst = core.adjoint_symmetry_residual(v, lambdas, nodes)
    sym_pass = sym_worst <= args.tol + report.h2_allowance
    pde_pass = pde_worst <= args.tol + report.h2_allowance
    rows.append({"name": "adjoint_symmetry", "value": sym_worst, "passed": bool(sym_pass)})
    rows.append({"name": "transfer_pde", "value": pde_worst, "passed": bool(pde_pass)})
    doc = _report(
        "verify",
        {"tol": args.tol, "h2_allowance": report.h2_allowance},
        rows,
        {"lambdas": [_enc_complex(l) for l in lambdas], "nodes": nodes},
        _timing(t0, args),
    )
    _emit(doc, args.output)
    return _EXIT_OK if all(r["passed"] for r in rows) else _EXIT_CONDITION


def cmd_synthesize(args) -> int:
    spec = load_json(args.spec)
    if not isinstance(spec, dict):
        raise InputError("synthesis spec must be a JSON object")
    grid = _dec_grid(spec.get("grid", {}), override_steps=args.steps)
    try:
        sigma1 = _dec_family(spec["sigma1"], grid, "sigma1")
        sigma2 = _dec_family(spec["sigma2"], grid, "sigma2")
        gamma0 = _dec_family(spec["gamma0"], grid, "gamma0")
        raw_data = spec["data"]
    except KeyError as exc:
        raise InputError(f"missing field {exc}") from exc
    if not isinstance(raw_data, list) or not raw_data:
        raise InputError("data must be a non-empty list of {z, b0, theta?}")
    data = []
    for item in raw_data:
        theta = None
        if "theta" in item:
            theta = _dec_family(item["theta"], grid, "theta")
        data.append(
            synth.SpectralDatum(
                z=_dec_complex(item["z"]),
                b0=np.array([_dec_complex(x) for x in item["b0"]]),
                theta=theta,
            )
        )
    v = synth.build_discrete(data, gamma0, sigma1, sigma2, grid, normalize=args.normalize)
    _emit(vessel_to_document(v), args.output)
    return _EXIT_OK


def cmd_transfer(args) -> int:
    v = vessel_from_document(load_json(args.vessel))
    node = _node(args, v.grid)
    lambdas = _probe_lambdas(args, v.A1.max_norm())
    sweep = core.transfer_sweep(v, lambdas, node)[:, 0]
    values = [
        {"lambda": _enc_complex(lam), "node": node, "matrix": _enc_matrix(s)}
        for lam, s in zip(lambdas, sweep)
    ]
    _emit({"schema_version": SCHEMA_VERSION, "command": "transfer", "values": values}, args.output)
    return _EXIT_OK


def cmd_couple(args) -> int:
    v1 = vessel_from_document(load_json(args.first))
    v2 = vessel_from_document(load_json(args.second))
    v = core.couple(v1, v2, tol=args.tol)
    _emit(vessel_to_document(v), args.output)
    return _EXIT_OK


def cmd_simulate(args) -> int:
    t0 = time.monotonic()
    v = vessel_from_document(load_json(args.vessel))
    try:
        u0 = [_dec_complex(x) for x in json.loads(args.u0)]
    except json.JSONDecodeError as exc:
        raise InputError(f"--u0 must be JSON like [[re,im],...]: {exc}") from exc
    lam = _parse_complex(args.lam[0]) if args.lam else 1.0 + 0.5j
    traj = core.simulate(v, lam, u0)
    rows = [
        {"name": "energy_defect_t1", "value": float(np.max(np.abs(traj.energy_defect_t1))),
         "passed": bool(np.max(np.abs(traj.energy_defect_t1)) <= args.tol)},
        {"name": "energy_defect_t2", "value": traj.energy_defect_t2,
         "passed": bool(traj.energy_defect_t2 <= args.tol + (v.grid.h ** 2) * 100)},
    ]
    doc = _report("simulate", {"tol": args.tol}, rows,
                  {"lambdas": [_enc_complex(lam)], "nodes": []}, _timing(t0, args))
    doc["y"] = _enc_family(traj.y)
    _emit(doc, args.output)
    return _EXIT_OK if all(r["passed"] for r in rows) else _EXIT_CONDITION


def cmd_fundamental(args) -> int:
    spec = load_json(args.coefficients)
    grid = _dec_grid(spec.get("grid", {}), override_steps=args.steps)
    sigma1 = _dec_family(spec["sigma1"], grid, "sigma1")
    sigma2 = _dec_family(spec["sigma2"], grid, "sigma2")
    key = "gamma_star" if args.side == "output" else "gamma"
    gamma = _dec_family(spec[key], grid, key)
    lam = _parse_complex(args.lam[0]) if args.lam else 1.0 + 0.0j
    phi = fundamental_matrix(lam, sigma1, sigma2, gamma, grid, side=args.side, base_index=args.node)
    doc = {
        "schema_version": SCHEMA_VERSION,
        "command": "fundamental",
        "lambda": _enc_complex(lam),
        "side": args.side,
        "base_index": args.node,
        "samples": _enc_family(phi.family),
    }
    _emit(doc, args.output)
    return _EXIT_OK


def cmd_multint(args) -> int:
    spec = load_json(args.kernel)
    grid = _dec_grid(spec.get("s_grid", {}), "s_grid", override_steps=args.steps)
    kernel = _dec_family(spec["K"], grid, "K")
    c = [float(_dec_complex(x).real) for x in spec["c"]]
    lam = _parse_complex(args.lam[0]) if args.lam else 1.0 + 0.0j
    s_upper = grid.n_steps if args.s_upper is None else args.s_upper
    w = synth.mult_integral(kernel, c, lam, s_upper)
    doc = {
        "schema_version": SCHEMA_VERSION,
        "command": "multint",
        "lambda": _enc_complex(lam),
        "s_upper": s_upper,
        "matrix": _enc_matrix(w),
    }
    _emit(doc, args.output)
    return _EXIT_OK


def cmd_factor(args) -> int:
    t0 = time.monotonic()
    v = vessel_from_document(load_json(args.vessel))
    _node(args, v.grid)
    which = _parse_complex(args.which) if "," in args.which else int(args.which)
    result = synth.extract_elementary(v, which, node_ref=args.node, tol=args.tol)
    res = synth.residue_norm(lambda lam: result.quotient_transfer(lam, args.node),
                             result.eigenvalue, radius=args.tol ** 0.25 * 1e-1)
    rows = [
        {"name": "quotient_residue", "value": float(res), "passed": bool(res <= args.tol)},
        {"name": "eigvec_transport", "value": result.eigvec_residual,
         "passed": bool(result.eigvec_residual <= 1e-6)},
    ]
    doc = _report("factor", {"tol": args.tol}, rows,
                  {"lambdas": [], "nodes": [args.node]}, _timing(t0, args))
    doc["factor"] = vessel_to_document(result.factor)
    _emit(doc, args.output)
    return _EXIT_OK if all(r["passed"] for r in rows) else _EXIT_CONDITION


def cmd_realize(args) -> int:
    t0 = time.monotonic()
    spec = load_json(args.triple)
    grid = _dec_grid(spec.get("grid", {}))
    sigma1 = _dec_family(spec["sigma1"], grid, "sigma1")
    sigma2 = _dec_family(spec["sigma2"], grid, "sigma2")
    gamma_star = _dec_family(spec["gamma_star"], grid, "gamma_star")
    c = _dec_family(spec["C"], grid, "C")
    bn = _dec_family(spec["Bn"], grid, "Bn")
    a_pi = _dec_matrix(spec["A_pi"], "A_pi")
    a_xi = _dec_matrix(spec["A_xi"], "A_xi")
    if "X" in spec:
        x = _dec_family(spec["X"], grid, "X")
    else:
        x = evolve_coupling(c, a_pi, a_xi, bn, _dec_matrix(spec["X0"], "X0"),
                            sigma1, sigma2, gamma_star, grid, tol=args.tol)
    triple = NullPoleTriple(C=c, A_pi=a_pi, A_xi=a_xi, Bn=bn, X=x)
    realized = zero_pole_realize(triple, gamma_star, sigma1, sigma2)
    res = sylvester_residuals(triple, sigma1)
    lambdas = _probe_lambdas(args, float(np.max(np.abs(np.linalg.eigvals(a_pi)))))
    every_node = np.arange(grid.n_nodes)
    pde = max(
        core.transfer_pde_residual_values(
            realized.transfer(lam, every_node),
            sigma1, sigma2, realized.gamma, gamma_star, lam, grid,
        )
        for lam in lambdas
    )
    allowance = (grid.h ** 2) * max(1.0, c.max_norm() + bn.max_norm()) ** 3
    rows = [
        {"name": "sylvester_max", "value": float(res.max()),
         "passed": bool(res.max() <= args.tol + allowance)},
        {"name": "transfer_pde", "value": float(pde), "passed": bool(pde <= args.tol + allowance)},
    ]
    doc = _report("realize", {"tol": args.tol, "h2_allowance": allowance}, rows,
                  {"lambdas": [_enc_complex(l) for l in lambdas], "nodes": []}, _timing(t0, args))
    doc["vessel"] = vessel_to_document(realized.vessel)
    doc["singular_nodes"] = list(realized.singular_nodes)
    _emit(doc, args.output)
    return _EXIT_OK if all(r["passed"] for r in rows) else _EXIT_CONDITION


def cmd_gauge(args) -> int:
    t0 = time.monotonic()
    v1 = vessel_from_document(load_json(args.first))
    v2 = vessel_from_document(load_json(args.second))
    _node(args, v1.grid)
    verdict = core.gauge_equivalence(v1, v2, node=args.node, probes=args.probes,
                                     tol=args.tol, seed=args.seed)
    if isinstance(verdict, core.NotEquivalent):
        rows = [{"name": "gauge_equivalence", "value": float(verdict.defect), "passed": False}]
        doc = _report("gauge", {"tol": args.tol}, rows, {"lambdas": [], "nodes": [args.node]},
                      _timing(t0, args))
        doc["equivalent"] = False
        doc["reason"] = verdict.reason
        _emit(doc, args.output)
        return _EXIT_CONDITION
    rows = [{"name": "gauge_equivalence", "value": 0.0, "passed": True}]
    doc = _report("gauge", {"tol": args.tol}, rows, {"lambdas": [], "nodes": [args.node]},
                  _timing(t0, args))
    doc["equivalent"] = True
    doc["U"] = _enc_family(verdict.U)
    _emit(doc, args.output)
    return _EXIT_OK


def _node(args, grid: TimeGrid) -> int:
    if not 0 <= args.node <= grid.n_steps:
        raise InputError(f"--node {args.node} outside the grid nodes [0, {grid.n_steps}]")
    return args.node


def _timing(t0: float, args) -> float | None:
    return round(time.monotonic() - t0, 6) if args.timing else None


# ---------------------------------------------------------------------------
# parser


def _add_common(p: argparse.ArgumentParser, cfg) -> None:
    p.add_argument("--tol", type=float, default=cfg.tol)
    p.add_argument("--lambda", dest="lam", action="append", metavar="RE,IM",
                   help="spectral parameter; repeatable")
    p.add_argument("--node", type=int, default=0)
    p.add_argument("--steps", type=int, default=None,
                   help="override the document's n_steps (constant-family documents only)")
    p.add_argument("--probes", type=int, default=cfg.probes)
    p.add_argument("--seed", type=int, default=cfg.seed)
    p.add_argument("--timing", action="store_true", help="include wall time in the report")
    p.add_argument("-o", "--output", default=None, help="write the result document to a file")


def build_parser() -> argparse.ArgumentParser:
    cfg = load_config()
    ap = argparse.ArgumentParser(prog="vesselkit", description=__doc__,
                                 formatter_class=argparse.RawDescriptionHelpFormatter)
    sub = ap.add_subparsers(dest="command", required=True)

    p = sub.add_parser("verify", help="run every vessel condition as a residual report")
    p.add_argument("vessel")
    _add_common(p, cfg)
    p.set_defaults(fn=cmd_verify)

    p = sub.add_parser("synthesize", help="build a vessel from discrete spectral data")
    p.add_argument("spec")
    p.add_argument("--normalize", action="store_true")
    _add_common(p, cfg)
    p.set_defaults(fn=cmd_synthesize)

    p = sub.add_parser("transfer", help="evaluate the transfer function")
    p.add_argument("vessel")
    _add_common(p, cfg)
    p.set_defaults(fn=cmd_transfer)

    p = sub.add_parser("couple", help="cascade two vessels")
    p.add_argument("first")
    p.add_argument("second")
    _add_common(p, cfg)
    p.set_defaults(fn=cmd_couple)

    p = sub.add_parser("simulate", help="separated-variables trajectory with energy balance")
    p.add_argument("vessel")
    p.add_argument("--u0", required=True, help="JSON list of [re,im] entries")
    _add_common(p, cfg)
    p.set_defaults(fn=cmd_simulate)

    p = sub.add_parser("fundamental", help="fundamental matrix of the input/output ODE")
    p.add_argument("coefficients")
    p.add_argument("--side", choices=("input", "output"), default="input")
    _add_common(p, cfg)
    p.set_defaults(fn=cmd_fundamental)

    p = sub.add_parser("multint", help="left-ordered multiplicative integral")
    p.add_argument("kernel")
    p.add_argument("--s-upper", type=int, default=None)
    _add_common(p, cfg)
    p.set_defaults(fn=cmd_multint)

    p = sub.add_parser("factor", help="extract one elementary Blaschke-type factor")
    p.add_argument("vessel")
    p.add_argument("--which", default="0", help="eigenvalue index or 're,im' target")
    _add_common(p, cfg)
    p.set_defaults(fn=cmd_factor)

    p = sub.add_parser("realize", help="unique transfer function from a null-pole triple")
    p.add_argument("triple")
    _add_common(p, cfg)
    p.set_defaults(fn=cmd_realize)

    p = sub.add_parser("gauge", help="test gauge equivalence of two vessels")
    p.add_argument("first")
    p.add_argument("second")
    _add_common(p, cfg)
    p.set_defaults(fn=cmd_gauge)

    return ap


def main(argv=None) -> int:
    ap = build_parser()
    try:
        args = ap.parse_args(argv)
    except SystemExit as exc:
        return _EXIT_INPUT if exc.code not in (0, None) else 0
    try:
        return args.fn(args)
    except InputError as exc:
        _emit_error("input", str(exc))
        return _EXIT_INPUT
    except VesselKitError as exc:
        kind = type(exc).__name__
        _emit_error(kind, str(exc))
        return _EXIT_NUMERICAL if kind in _NUMERICAL_ERRORS else _EXIT_INPUT
    except (KeyError, TypeError, ValueError) as exc:
        # malformed document structure surfacing past the codecs
        _emit_error("input", f"{type(exc).__name__}: {exc}")
        return _EXIT_INPUT


def _emit_error(kind: str, message: str) -> None:
    sys.stdout.write(dump_json({"schema_version": SCHEMA_VERSION, "error": {"kind": kind, "message": message}}))
    print(f"error[{kind}]: {message}", file=sys.stderr)


if __name__ == "__main__":
    sys.exit(main())
