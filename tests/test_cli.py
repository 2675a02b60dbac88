import argparse
import contextlib
import io
import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import vesselkit as vk
from vesselkit import cli
from vesselkit.config import Config, load_config

from helpers import const, skew_chain_vessel


def run_cli(args):
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        code = cli.main(args)
    return code, buf.getvalue()


@pytest.fixture(scope="module")
def vessel_and_doc():
    grid = vk.TimeGrid(0.0, 1.0, 40)
    v, data = skew_chain_vessel(grid, seed=5, n_points=2)
    return v, data, cli.dump_json(cli.vessel_to_document(v))


@pytest.fixture()
def vessel_file(vessel_and_doc, tmp_path):
    _, _, text = vessel_and_doc
    path = tmp_path / "vessel.json"
    path.write_text(text)
    return str(path)


class TestSerialization:
    def test_round_trip_bit_exact(self, vessel_and_doc):
        v, _, text = vessel_and_doc
        v2 = cli.vessel_from_document(json.loads(text))
        assert cli.dump_json(cli.vessel_to_document(v2)) == text
        assert np.array_equal(v2.A1.data, v.A1.data)
        assert np.array_equal(v2.B.data, v.B.data)

    def test_rejects_non_finite(self):
        doc = {"schema_version": cli.SCHEMA_VERSION,
               "dims": {"n": 1, "m": 1},
               "grid": {"t_start": 0.0, "t_end": 1.0, "n_steps": 1}}
        for key in cli._OPERATOR_KEYS:
            doc[key] = [[[1.0, 0.0]]]
        doc["A1"] = [[[float("nan"), 0.0]]]
        text = json.dumps(doc).replace("NaN", "NaN")
        with pytest.raises(cli.InputError):
            cli.vessel_from_document(json.loads(text, parse_constant=lambda s: float("nan")))

    def test_rejects_wrong_schema(self):
        with pytest.raises(cli.InputError):
            cli.vessel_from_document({"schema_version": "other/9"})

    def test_rejects_missing_operator(self, vessel_and_doc):
        _, _, text = vessel_and_doc
        doc = json.loads(text)
        del doc["gamma_star"]
        with pytest.raises(cli.InputError):
            cli.vessel_from_document(doc)

    def test_constant_shorthand_accepted(self, vessel_and_doc):
        _, _, text = vessel_and_doc
        doc = json.loads(text)
        doc["sigma1"] = [[[1.0, 0.0], [0.0, 0.0]], [[0.0, 0.0], [-1.0, 0.0]]]
        v = cli.vessel_from_document(doc)
        assert np.allclose(v.sigma1[0], np.diag([1.0, -1.0]))


class TestExitCodes:
    def test_verify_pass_is_zero(self, vessel_file):
        code, out = run_cli(["verify", vessel_file])
        assert code == 0
        rep = json.loads(out)
        names = [r["name"] for r in rep["residuals"]]
        for key in ("lax", "colligation1", "colligation2", "input_vessel",
                    "output_vessel", "linkage"):
            assert names.count(key) == 1

    def test_verify_condition_failure_is_three(self, vessel_and_doc, tmp_path):
        v, _, _ = vessel_and_doc
        b_data = v.B.data.copy()
        b_data[:, 0, 0] += 0.05
        broken = vk.DifferentialVessel(
            A1=v.A1, A2=v.A2, B=vk.GridOperatorFamily(v.grid, b_data),
            sigma1=v.sigma1, sigma2=v.sigma2, gamma=v.gamma, gamma_star=v.gamma_star,
        )
        path = tmp_path / "broken.json"
        path.write_text(cli.dump_json(cli.vessel_to_document(broken)))
        code, out = run_cli(["verify", str(path)])
        assert code == 3
        rep = json.loads(out)  # report still emitted
        assert any(not r["passed"] for r in rep["residuals"])

    def test_malformed_json_is_one(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text("{this is not json")
        code, out = run_cli(["verify", str(path)])
        assert code == 1
        assert json.loads(out)["error"]["kind"] == "input"

    def test_numerical_failure_is_two(self, vessel_and_doc, vessel_file):
        _, data, _ = vessel_and_doc
        z = data[0].z
        code, out = run_cli(["transfer", vessel_file, f"--lambda={z.real},{z.imag}"])
        assert code == 2
        assert json.loads(out)["error"]["kind"] == "SpectrumClash"

    def test_singular_sigma1_is_two(self, tmp_path):
        """A singular sigma1 is a numerical failure, not an input error."""
        zero = cli._enc_array(np.zeros((2, 2)))
        spec = {"grid": {"t_start": 0.0, "t_end": 1.0, "n_steps": 20},
                "sigma1": cli._enc_array(np.array([[1.0, 1j], [-1j, 1.0]])),
                "sigma2": zero, "gamma0": zero,
                "data": [{"z": [-0.48, 0.3], "b0": [[1.0, 0.0], [0.0, 0.2]]}]}
        path = tmp_path / "spec.json"
        path.write_text(cli.dump_json(spec))
        code, out = run_cli(["synthesize", str(path)])
        assert code == 2
        assert json.loads(out)["error"]["kind"] == "SingularSigma1"

    def test_missing_file_is_one(self):
        code, out = run_cli(["verify", "/nonexistent/v.json"])
        assert code == 1


class TestCommands:
    def test_transfer_value(self, vessel_and_doc, vessel_file):
        v, _, _ = vessel_and_doc
        code, out = run_cli(["transfer", vessel_file, "--lambda", "2.0,0.5", "--node", "3"])
        assert code == 0
        got = np.array([[complex(re, im) for re, im in row]
                        for row in json.loads(out)["values"][0]["matrix"]])
        assert np.allclose(got, vk.eval_transfer(v, 2.0 + 0.5j, 3))

    def test_synthesize_writes_vessel(self, vessel_and_doc, tmp_path):
        v, data, _ = vessel_and_doc
        spec = {
            "grid": {"t_start": 0.0, "t_end": 1.0, "n_steps": 40},
            "sigma1": cli._enc_array(v.sigma1[0]),
            "sigma2": cli._enc_array(v.sigma2[0]),
            "gamma0": cli._enc_array(v.gamma[0]),
            "data": [
                {"z": [d.z.real, d.z.imag],
                 "b0": [[x.real, x.imag] for x in d.b0]}
                for d in data
            ],
        }
        spec_path = tmp_path / "spec.json"
        spec_path.write_text(cli.dump_json(spec))
        out_path = tmp_path / "vessel.json"
        code, _ = run_cli(["synthesize", str(spec_path), "-o", str(out_path)])
        assert code == 0
        v2 = cli.vessel_from_document(json.loads(out_path.read_text()))
        assert np.allclose(v2.B.data, v.B.data)
        # emitted A1 is lower triangular at every node
        for i in (0, 20, 40):
            assert np.allclose(np.triu(v2.A1[i], 1), 0.0)
        # verify passes at t_start (exit 0 on the whole corpus here)
        code_v, _ = run_cli(["verify", str(out_path)])
        assert code_v == 0

    def test_synthesize_empty_data_is_one(self, vessel_and_doc, tmp_path):
        v, _, _ = vessel_and_doc
        spec = {
            "grid": {"t_start": 0.0, "t_end": 1.0, "n_steps": 40},
            "sigma1": cli._enc_array(v.sigma1[0]),
            "sigma2": cli._enc_array(v.sigma2[0]),
            "gamma0": cli._enc_array(v.gamma[0]),
            "data": [],
        }
        spec_path = tmp_path / "spec.json"
        spec_path.write_text(cli.dump_json(spec))
        code, _ = run_cli(["synthesize", str(spec_path)])
        assert code == 1

    def test_couple_trivial_keeps_transfer(self, vessel_and_doc, vessel_file, tmp_path):
        v, _, _ = vessel_and_doc
        grid = v.grid
        z = np.zeros((2, 2))
        trivial = vk.DifferentialVessel(
            A1=const([[-0.5, 0.0], [0.1, -0.8]], grid), A2=const(z, grid),
            B=const(np.zeros((2, 2)), grid),
            sigma1=v.sigma1, sigma2=v.sigma2,
            gamma=v.gamma_star, gamma_star=v.gamma_star,
        )
        t_path = tmp_path / "trivial.json"
        t_path.write_text(cli.dump_json(cli.vessel_to_document(trivial)))
        out_path = tmp_path / "coupled.json"
        code, _ = run_cli(["couple", vessel_file, str(t_path), "-o", str(out_path)])
        assert code == 0
        coupled = cli.vessel_from_document(json.loads(out_path.read_text()))
        lam = 1.8 + 0.6j
        assert np.allclose(vk.eval_transfer(coupled, lam, 11),
                           vk.eval_transfer(v, lam, 11), atol=1e-12)

    def test_simulate(self, vessel_file):
        code, out = run_cli(["simulate", vessel_file, "--u0", "[[1.0,0.0],[0.3,-0.7]]",
                             "--lambda", "1.2,0.7"])
        assert code == 0
        rep = json.loads(out)
        assert all(r["passed"] for r in rep["residuals"])

    def test_fundamental_scalar_exponential(self, tmp_path):
        doc = {"grid": {"t_start": 0.0, "t_end": 1.0, "n_steps": 100},
               "sigma1": [[[1.0, 0.0]]], "sigma2": [[[1.0, 0.0]]],
               "gamma": [[[0.0, 0.0]]]}
        path = tmp_path / "coeff.json"
        path.write_text(cli.dump_json(doc))
        code, out = run_cli(["fundamental", str(path), "--lambda", "1.0,0.0"])
        assert code == 0
        sam = json.loads(out)["samples"]
        assert abs(complex(*sam[-1][0][0]) - np.e) < 1e-8

    @pytest.mark.parametrize("node", ["101", "-1"])
    def test_fundamental_node_outside_grid_is_input_error(self, tmp_path, node):
        """--node of `fundamental` is read by the same rule as every other --node."""
        doc = {"grid": {"t_start": 0.0, "t_end": 1.0, "n_steps": 100},
               "sigma1": [[[1.0, 0.0]]], "sigma2": [[[1.0, 0.0]]],
               "gamma": [[[0.0, 0.0]]]}
        path = tmp_path / "coeff.json"
        path.write_text(cli.dump_json(doc))
        code, out = run_cli(["fundamental", str(path), f"--node={node}"])
        assert code == 1
        err = json.loads(out)["error"]
        assert err["kind"] == "input" and f"--node {node}" in err["message"]

    @pytest.mark.parametrize("lam", ["inf,0", "nan,0", "0,-inf"])
    def test_non_finite_lambda_is_named(self, vessel_file, tmp_path, capsys, lam):
        """fundamental and simulate refuse a non-finite --lambda before any
        arithmetic: exit 2, NonFinite naming lambda, no numpy warning."""
        doc = {"grid": {"t_start": 0.0, "t_end": 1.0, "n_steps": 10},
               "sigma1": [[[1.0, 0.0]]], "sigma2": [[[1.0, 0.0]]], "gamma": [[[0.0, 0.0]]]}
        path = tmp_path / "coeff.json"
        path.write_text(cli.dump_json(doc))
        z = complex(*(float(x) for x in lam.split(",")))
        for argv in (["fundamental", str(path), f"--lambda={lam}"],
                     ["simulate", vessel_file, "--u0", "[[1.0,0.0],[0.3,-0.7]]",
                      f"--lambda={lam}"]):
            code, out = run_cli(argv)
            assert code == 2
            err = json.loads(out)["error"]
            assert err["kind"] == "NonFinite"
            assert err["message"] == f"spectral parameter lambda={z} is not finite"
            assert "Warning" not in capsys.readouterr().err

    def test_multint_constant_kernel(self, tmp_path):
        n_steps = 200
        doc = {"s_grid": {"t_start": 0.0, "t_end": 2.0, "n_steps": n_steps},
               "K": [[[0.0, 1.0]]],
               "c": [[0.0, 0.0]] * (n_steps + 1)}
        path = tmp_path / "kernel.json"
        path.write_text(cli.dump_json(doc))
        code, out = run_cli(["multint", str(path), "--lambda", "1.5,0.0"])
        assert code == 0
        w = complex(*json.loads(out)["matrix"][0][0])
        assert abs(w - np.exp(2j / 1.5)) < 1e-3

    def test_factor(self, vessel_file):
        code, out = run_cli(["factor", vessel_file, "--which", "0", "--node", "5"])
        assert code == 0
        rep = json.loads(out)
        assert all(r["passed"] for r in rep["residuals"])
        factor = cli.vessel_from_document(rep["factor"])
        assert factor.state_dim == 1

    def test_factor_at_zero_tol_writes_a_report(self, vessel_file):
        """--tol 0 floors the residue contour's radius at eps**0.25 / 10: a radius
        of 0 would put every contour point on the eigenvalue (SpectrumClash, exit
        2).  The residue is finite and judged against 0, so the row fails."""
        code, out = run_cli(["factor", vessel_file, "--which", "0", "--node", "5",
                             "--tol", "0"])
        assert code == 3
        row = json.loads(out)["residuals"][0]
        assert (row["name"], row["bound"], row["passed"]) == ("quotient_residue", 0.0, False)
        assert 0.0 < row["value"] < 1e-12

    @pytest.mark.parametrize("which", ["7", "-1"])
    def test_factor_index_outside_the_spectrum(self, vessel_file, capsys, which):
        code, out = run_cli(["factor", vessel_file, "--which", which])
        assert code == 1
        assert json.loads(out)["error"] == {
            "kind": "ShapeMismatch", "message": f"eigenvalue index {which} outside [0, 2)"}
        assert capsys.readouterr().err.splitlines()[-1].endswith("; exit 1")

    def test_realize(self, vessel_and_doc, tmp_path):
        v, _, _ = vessel_and_doc
        triple = vk.extract_null_pole(v, node_ref=0)
        doc = {
            "grid": {"t_start": 0.0, "t_end": 1.0, "n_steps": 40},
            "sigma1": cli._enc_array(v.sigma1[0]),
            "sigma2": cli._enc_array(v.sigma2[0]),
            "gamma_star": cli._enc_family(v.gamma_star),
            "C": cli._enc_family(triple.C),
            "Bn": cli._enc_family(triple.Bn),
            "A_pi": cli._enc_array(triple.A_pi),
            "A_xi": cli._enc_array(triple.A_xi),
            "X0": cli._enc_array(triple.X[0]),
        }
        path = tmp_path / "triple.json"
        path.write_text(cli.dump_json(doc))
        code, out = run_cli(["realize", str(path), "--probes", "4"])
        assert code == 0
        rep = json.loads(out)
        assert all(r["passed"] for r in rep["residuals"])
        realized = cli.vessel_from_document(rep["vessel"])
        lam = 1.9 + 0.4j
        assert np.allclose(vk.eval_transfer(realized, lam, 13),
                           vk.eval_transfer(v, lam, 13), atol=1e-8)

    def test_realize_names_a_misshapen_x0(self, vessel_and_doc, tmp_path):
        """A 3 x 3 X0 for a triple of state dimension 2 is a ShapeMismatch
        naming X0, not numpy's matmul text."""
        v, _, _ = vessel_and_doc
        doc = triple_document(v)
        doc["X0"] = cli._enc_array(np.eye(3))
        path = tmp_path / "triple.json"
        path.write_text(cli.dump_json(doc))
        code, out = run_cli(["realize", str(path)])
        assert code == 1
        assert json.loads(out)["error"] == {"kind": "ShapeMismatch",
                                            "message": "X0 must be 2 x 2, got 3 x 3"}

    def test_gauge_equivalent_and_not(self, vessel_and_doc, vessel_file, tmp_path):
        v, _, _ = vessel_and_doc
        rng = np.random.default_rng(1)
        q, _ = np.linalg.qr(rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2)))
        vg = vk.gauge_transform(v, vk.GaugeMap.from_family(const(q, v.grid)))
        g_path = tmp_path / "gauged.json"
        g_path.write_text(cli.dump_json(cli.vessel_to_document(vg)))
        code, out = run_cli(["gauge", vessel_file, str(g_path), "--node", "3"])
        assert code == 0
        assert json.loads(out)["equivalent"] is True

        b_data = v.B.data.copy()
        b_data[:, 0, 0] += 0.05
        vbad = vk.DifferentialVessel(
            A1=v.A1, A2=v.A2, B=vk.GridOperatorFamily(v.grid, b_data),
            sigma1=v.sigma1, sigma2=v.sigma2, gamma=v.gamma, gamma_star=v.gamma_star,
        )
        b_path = tmp_path / "perturbed.json"
        b_path.write_text(cli.dump_json(cli.vessel_to_document(vbad)))
        code2, out2 = run_cli(["gauge", vessel_file, str(b_path), "--node", "3"])
        assert code2 == 3
        assert json.loads(out2)["equivalent"] is False


class TestDeterminism:
    def test_seeded_reports_byte_identical(self, vessel_file):
        code1, out1 = run_cli(["verify", vessel_file, "--seed", "7"])
        code2, out2 = run_cli(["verify", vessel_file, "--seed", "7"])
        assert (code1, out1) == (code2, out2)

    def test_different_seed_changes_probes(self, vessel_file):
        _, out1 = run_cli(["verify", vessel_file, "--seed", "7"])
        _, out2 = run_cli(["verify", vessel_file, "--seed", "8"])
        assert json.loads(out1)["probes"] != json.loads(out2)["probes"]

    def test_config_file_override(self, vessel_file, tmp_path, monkeypatch):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"probes": 3}))
        monkeypatch.setenv("VESSELKIT_CONFIG", str(cfg))
        _, out = run_cli(["verify", vessel_file])
        assert len(json.loads(out)["probes"]["lambdas"]) == 3


def triple_document(v, n_steps=40):
    triple = vk.extract_null_pole(v, node_ref=0)
    return {
        "grid": {"t_start": 0.0, "t_end": 1.0, "n_steps": n_steps},
        "sigma1": cli._enc_array(v.sigma1[0]),
        "sigma2": cli._enc_array(v.sigma2[0]),
        "gamma_star": cli._enc_family(v.gamma_star),
        "C": cli._enc_family(triple.C),
        "Bn": cli._enc_family(triple.Bn),
        "A_pi": cli._enc_array(triple.A_pi),
        "A_xi": cli._enc_array(triple.A_xi),
        "X0": cli._enc_array(triple.X[0]),
    }


def expected_bound(command, row, tol, h2, h):
    """The bound each report row is judged against (the table perfbench's
    cli_pipeline re-derives from the tolerances of a report)."""
    if command == "verify":
        return tol if row in ("colligation1", "colligation2", "linkage") else tol + h2
    if command == "simulate":
        return tol if row == "energy_defect_t1" else tol + h * h * 100
    if command == "factor":
        return tol if row == "quotient_residue" else 1e-6
    if command == "realize":
        return tol + h2
    return tol


class TestReportRows:
    """Every row is a check {name, value, bound, passed}: passed is
    value <= bound, and the exit code is 3 iff some row fails."""

    @pytest.fixture()
    def paths(self, vessel_and_doc, vessel_file, tmp_path):
        v, _, _ = vessel_and_doc
        rng = np.random.default_rng(1)
        q, _ = np.linalg.qr(rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2)))
        gauged = tmp_path / "gauged.json"
        gauged.write_text(cli.dump_json(cli.vessel_to_document(
            vk.gauge_transform(v, vk.GaugeMap.from_family(const(q, v.grid))))))
        triple = tmp_path / "triple.json"
        triple.write_text(cli.dump_json(triple_document(v)))
        return {"vessel": vessel_file, "gauged": str(gauged), "triple": str(triple)}

    @pytest.mark.parametrize("tol", ["1e-8", "1e-14"])
    @pytest.mark.parametrize("command, args", [
        ("verify", ["{vessel}", "--probes", "4"]),
        ("simulate", ["{vessel}", "--u0", "[[1.0,0.0],[0.3,-0.7]]", "--lambda", "1.2,0.7"]),
        ("factor", ["{vessel}", "--which", "0", "--node", "5"]),
        ("realize", ["{triple}", "--probes", "4"]),
        ("gauge", ["{vessel}", "{gauged}", "--node", "3"]),
    ])
    def test_bounds_pinned(self, paths, command, args, tol):
        code, out = run_cli([command] + [a.format(**paths) for a in args] + ["--tol", tol])
        rep = json.loads(out)
        tols = rep["tolerances"]
        assert tols["tol"] == float(tol)
        rows = rep["residuals"]
        assert rows and all(list(r) == ["name", "value", "bound", "passed"] for r in rows)
        for r in rows:
            want = expected_bound(command, r["name"], tols["tol"], tols.get("h2_allowance", 0.0),
                                  1.0 / 40)
            assert r["bound"] == want, r["name"]
            assert r["passed"] == (r["value"] <= r["bound"])
        assert code == (0 if all(r["passed"] for r in rows) else 3)
        if tol == "1e-8":
            assert code == 0

    def test_transfer_pde_rows_are_the_per_lambda_max(self, paths):
        """verify's and realize's one stacked call give the row a per-lambda
        loop over the reported probes gives, bit for bit."""
        v = cli.vessel_from_document(json.loads(Path(paths["vessel"]).read_text()))
        _, out = run_cli(["verify", paths["vessel"], "--probes", "6"])
        rep = json.loads(out)
        lams = [complex(*lam) for lam in rep["probes"]["lambdas"]]
        want = max(vk.transfer_pde_residual_values(vk.transfer_at_nodes(v, lam), v.sigma1,
                                                    v.sigma2, v.gamma, v.gamma_star, lam, v.grid)
                   for lam in lams)
        assert [r["value"] for r in rep["residuals"] if r["name"] == "transfer_pde"] == [want]

        spec = json.loads(Path(paths["triple"]).read_text())
        grid = cli._dec_grid(spec["grid"])
        s1, s2, gs, c, bn = (cli._dec_family(spec[k], grid, k)
                             for k in ("sigma1", "sigma2", "gamma_star", "C", "Bn"))
        a_pi, a_xi, x0 = (cli._dec_complex(spec[k], 2, k) for k in ("A_pi", "A_xi", "X0"))
        x = vk.evolve_coupling(c, a_pi, a_xi, bn, x0, s1, s2, gs, grid)
        real = vk.zero_pole_realize(vk.NullPoleTriple(C=c, A_pi=a_pi, A_xi=a_xi, Bn=bn, X=x),
                                    gs, s1, s2)
        _, out = run_cli(["realize", paths["triple"], "--probes", "6"])
        rep = json.loads(out)
        lams = [complex(*lam) for lam in rep["probes"]["lambdas"]]
        every = np.arange(grid.n_nodes)
        want = max(vk.transfer_pde_residual_values(real.transfer(lam, every), s1, s2, real.gamma,
                                                    gs, lam, grid) for lam in lams)
        assert [r["value"] for r in rep["residuals"] if r["name"] == "transfer_pde"] == [want]

    def test_failed_row_exits_three(self, vessel_and_doc, tmp_path):
        v, _, _ = vessel_and_doc
        b_data = v.B.data.copy()
        b_data[:, 0, 0] += 0.05
        broken = vk.DifferentialVessel(
            A1=v.A1, A2=v.A2, B=vk.GridOperatorFamily(v.grid, b_data),
            sigma1=v.sigma1, sigma2=v.sigma2, gamma=v.gamma, gamma_star=v.gamma_star,
        )
        path = tmp_path / "broken.json"
        path.write_text(cli.dump_json(cli.vessel_to_document(broken)))
        code, out = run_cli(["verify", str(path)])
        rows = json.loads(out)["residuals"]
        failed = [r["name"] for r in rows if not r["passed"]]
        assert code == 3 and "colligation1" in failed
        assert all(r["passed"] == (r["value"] <= r["bound"]) for r in rows)

    def test_non_finite_defect_is_null_and_fails(self, vessel_file, tmp_path):
        """A NotEquivalent from a rank or dimension mismatch has defect inf:
        the row carries null and fails, and the report is still written."""
        v3, _ = skew_chain_vessel(vk.TimeGrid(0.0, 1.0, 40), seed=5, n_points=3)
        path = tmp_path / "three.json"
        path.write_text(cli.dump_json(cli.vessel_to_document(v3)))
        code, out = run_cli(["gauge", vessel_file, str(path)])
        assert code == 3
        rep = json.loads(out)
        assert rep["equivalent"] is False
        assert rep["reason"] == "state or signal dimensions differ"
        assert rep["residuals"] == [{"name": "gauge_equivalence", "value": None,
                                     "bound": 1e-8, "passed": False}]


class TestTolValidation:
    @pytest.mark.parametrize("tol", ["nan", "inf", "-inf", "-1", "-1e-300"])
    def test_bad_tol_is_input_error_before_any_work(self, tol):
        code, out = run_cli(["verify", "/nonexistent/v.json", f"--tol={tol}"])
        assert code == 1
        err = json.loads(out)["error"]
        assert err["kind"] == "input" and "--tol" in err["message"]

    def test_bad_tol_from_config_file(self, vessel_file, tmp_path, monkeypatch):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"tol": -1.0}))
        monkeypatch.setenv("VESSELKIT_CONFIG", str(cfg))
        code, out = run_cli(["verify", vessel_file])
        assert code == 1
        assert "--tol" in json.loads(out)["error"]["message"]

    def test_zero_tol_is_accepted(self, vessel_file):
        code, out = run_cli(["verify", vessel_file, "--tol", "0"])
        rows = json.loads(out)["residuals"]
        assert code == 3  # round-off residuals exceed a zero bound, a report is written
        assert rows[1] == {"name": "colligation1", "value": rows[1]["value"], "bound": 0.0,
                           "passed": False}


class TestProbesValidation:
    @pytest.mark.parametrize("command, args", [
        ("verify", ["/nonexistent/v.json", "--probes", "-1"]),
        ("gauge", ["/nonexistent/a.json", "/nonexistent/b.json", "--probes", "-2"]),
        ("verify", ["/nonexistent/v.json", "--seed", "-1"]),
        ("transfer", ["/nonexistent/v.json", "--seed", "-1"]),
        ("realize", ["/nonexistent/t.json", "--seed", "-1"]),
        ("gauge", ["/nonexistent/a.json", "/nonexistent/b.json", "--seed", "-3"]),
    ])
    def test_negative_probes_is_input_error_before_any_work(self, command, args):
        """A negative probe count, or a negative seed drawing the probes, is
        named by its flag before any document is read."""
        code, out = run_cli([command] + args)
        assert code == 1
        err = json.loads(out)["error"]
        assert err == {"kind": "input",
                       "message": f"{args[-2]} must be non-negative, got {args[-1]}"}

    def test_realize_without_probes_has_a_zero_pde_row(self, vessel_and_doc, tmp_path):
        v, _, _ = vessel_and_doc
        path = tmp_path / "triple.json"
        path.write_text(cli.dump_json(triple_document(v)))
        code, out = run_cli(["realize", str(path), "--probes", "0"])
        assert code == 0
        rep = json.loads(out)
        assert rep["probes"]["lambdas"] == []
        assert [r["value"] for r in rep["residuals"] if r["name"] == "transfer_pde"] == [0.0]


class TestTiming:
    def test_seconds_only_with_timing(self, vessel_file):
        _, out = run_cli(["verify", vessel_file, "--probes", "2", "--timing"])
        seconds = json.loads(out)["timing"]["seconds"]
        assert isinstance(seconds, float) and 0.0 <= seconds < np.inf
        _, out = run_cli(["verify", vessel_file, "--probes", "2"])
        assert json.loads(out)["timing"]["seconds"] is None


class TestOptions:
    def test_each_subcommand_accepts_the_options_it_reads(self):
        sub = next(a for a in cli.build_parser()._actions
                   if isinstance(a, argparse._SubParsersAction))
        accepted = {name: {o for a in p._actions for o in a.option_strings
                           if o.startswith("--") and o != "--help"}
                    for name, p in sub.choices.items()}
        assert accepted == {
            "verify": {"--tol", "--lambda", "--probes", "--seed", "--timing", "--output"},
            "synthesize": {"--normalize", "--output"},
            "transfer": {"--node", "--lambda", "--probes", "--seed", "--output"},
            "couple": {"--tol", "--output"},
            "simulate": {"--u0", "--lambda", "--tol", "--timing", "--output"},
            "fundamental": {"--side", "--lambda", "--node", "--output"},
            "multint": {"--lambda", "--s-upper", "--output"},
            "factor": {"--node", "--which", "--tol", "--timing", "--output"},
            "realize": {"--tol", "--lambda", "--probes", "--seed", "--timing", "--output"},
            "gauge": {"--node", "--probes", "--tol", "--seed", "--timing", "--output"},
        }
        assert sum(map(len, accepted.values())) == 44

    @pytest.mark.parametrize("args", [
        ["couple", "{vessel}", "{vessel}", "--lambda", "1,0"],
        ["synthesize", "{vessel}", "--tol", "1e-6"],
        ["verify", "{vessel}", "--node", "3"],
    ])
    def test_unread_option_is_rejected(self, vessel_file, capsys, args):
        code, out = run_cli([a.format(vessel=vessel_file) for a in args])
        assert code == 1 and out == ""
        assert "unrecognized arguments" in capsys.readouterr().err

    def test_unwritable_output_is_input_error(self, vessel_file, tmp_path, capsys):
        target = tmp_path / "missing" / "out.json"
        code, out = run_cli(["verify", vessel_file, "--probes", "2", "-o", str(target)])
        assert code == 1 and not target.exists()
        err = json.loads(out)["error"]
        assert err["kind"] == "input" and str(target) in err["message"]
        assert capsys.readouterr().err.splitlines()[-1].startswith("vesselkit verify: load")


def spec_documents(v):
    """One valid spec document per spec-reading command, with its fields."""
    grid = {"t_start": 0.0, "t_end": 1.0, "n_steps": 40}
    return {
        "synthesize": {"grid": grid, "sigma1": cli._enc_array(v.sigma1[0]),
                       "sigma2": cli._enc_array(v.sigma2[0]),
                       "gamma0": cli._enc_array(v.gamma[0]),
                       "data": [{"z": [-0.48, 0.3], "b0": [[1.0, 0.0], [0.0, 0.2]]}]},
        "fundamental": {"grid": grid, "sigma1": [[[1.0, 0.0]]], "sigma2": [[[1.0, 0.0]]],
                        "gamma": [[[0.0, 0.0]]]},
        "multint": {"s_grid": grid, "K": [[[0.0, 1.0]]], "c": [0.0] * 41},
        "realize": triple_document(v),
    }


@pytest.mark.parametrize("command, field", [
    (command, field) for command, fields in (
        ("synthesize", ("grid", "sigma1", "sigma2", "gamma0", "data")),
        ("fundamental", ("grid", "sigma1", "sigma2", "gamma")),
        ("multint", ("s_grid", "K", "c")),
        ("realize", ("grid", "sigma1", "sigma2", "gamma_star", "C", "Bn", "A_pi", "A_xi",
                     "X0")),
    ) for field in fields
])
def test_missing_field_is_input_error(vessel_and_doc, tmp_path, command, field):
    v, _, _ = vessel_and_doc
    doc = spec_documents(v)[command]
    path = tmp_path / "spec.json"
    path.write_text(cli.dump_json(doc))
    code, _ = run_cli([command, str(path)])
    assert code == 0
    del doc[field]
    path.write_text(cli.dump_json(doc))
    code, out = run_cli([command, str(path)])
    assert code == 1
    assert json.loads(out)["error"] == {"kind": "input", "message": f"missing field {field!r}"}


@pytest.mark.parametrize("command, field", [("realize", "sigma1"), ("synthesize", "sigma2")])
def test_a_misshapen_channel_matrix_is_named(vessel_and_doc, tmp_path, command, field):
    """A 3 x 3 channel matrix for m = 2 exits 1 as a ShapeMismatch naming it,
    not as an input error carrying numpy's matmul text."""
    v, _, _ = vessel_and_doc
    doc = spec_documents(v)[command]
    doc[field] = cli._enc_array(np.eye(3))
    path = tmp_path / "spec.json"
    path.write_text(cli.dump_json(doc))
    code, out = run_cli([command, str(path)])
    assert code == 1
    assert json.loads(out)["error"] == {"kind": "ShapeMismatch",
                                        "message": f"{field} must be 2 x 2, got 3 x 3"}


class TestConfigErrors:
    @pytest.mark.parametrize("text, message", [
        ('{"probes": 3, "colour": 1}', "unknown config keys: ['colour']"),
        ('{"steps_per_unit": 200}', "unknown config keys: ['steps_per_unit']"),
        ('{"eps_spec_rel": 1e-9}', "unknown config keys: ['eps_spec_rel']"),
        ('{"probes": 3', "Expecting"),
        ('[1, 2]', "must hold a JSON object"),
        ('{"probes": 2.5}', "'probes', the default of --probes, must be a non-negative integer,"
                            " got 2.5"),
        ('{"probes": true}', "'probes', the default of --probes, must be a non-negative integer,"
                             " got True"),
        ('{"probes": -1}', "'probes', the default of --probes, must be a non-negative integer"),
        ('{"seed": 1.5}', "'seed', the default of --seed, must be a non-negative integer,"
                          " got 1.5"),
        ('{"seed": false}', "'seed', the default of --seed, must be a non-negative integer,"
                            " got False"),
        ('{"seed": -4}', "'seed', the default of --seed, must be a non-negative integer"),
        ('{"tol": "1e-8"}', "'tol', the default of --tol, must be a finite, non-negative real"),
        ('{"tol": true}', "'tol', the default of --tol, must be a finite, non-negative real"),
        ('{"tol": 1e999}', "'tol', the default of --tol, must be a finite, non-negative real"),
    ])
    def test_bad_config_is_input_error(self, vessel_file, tmp_path, monkeypatch, capsys,
                                       text, message):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(text)
        monkeypatch.setenv("VESSELKIT_CONFIG", str(cfg))
        code, out = run_cli(["verify", vessel_file])
        assert code == 1
        err = json.loads(out)["error"]
        assert err["kind"] == "input" and message in err["message"]
        assert capsys.readouterr().err.splitlines()[-1].endswith("; exit 1")

    def test_config_values_are_kept_or_named(self, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"tol": 0, "probes": 0, "seed": 4}))
        assert load_config(str(cfg)) == Config(tol=0, probes=0, seed=4)
        cfg.write_text('{"tol": 1' + "0" * 400 + "}")  # an integer beyond every float
        with pytest.raises(ValueError, match="'tol', the default of --tol, must be a finite"):
            load_config(str(cfg))

    def test_unreadable_config_is_input_error(self, vessel_file, tmp_path, monkeypatch):
        monkeypatch.setenv("VESSELKIT_CONFIG", str(tmp_path / "missing.json"))
        code, out = run_cli(["verify", vessel_file])
        assert code == 1
        assert "config file" in json.loads(out)["error"]["message"]


def test_multint_overflow_is_numerical_failure(tmp_path):
    """exp(1000 ds) per step overflows the product near s step 142."""
    doc = {"s_grid": {"t_start": 0.0, "t_end": 1.0, "n_steps": 200},
           "K": cli._enc_array(1000.0 * np.eye(2)), "c": [0.0] * 201}
    path = tmp_path / "kernel.json"
    path.write_text(cli.dump_json(doc))
    code, out = run_cli(["multint", str(path), "--lambda", "1.0,0.0"])
    assert code == 2
    err = json.loads(out)["error"]
    assert err["kind"] == "NonFinite" and "s nodes 141 and 142" in err["message"]


def test_cli_import_leaves_scipy_out():
    """The runtime needs numpy only: a fresh interpreter that imports the CLI
    has not loaded scipy."""
    env = dict(os.environ, PYTHONPATH=str(Path(__file__).resolve().parents[1] / "src"))
    probe = "import vesselkit.cli, sys; print('scipy' in sys.modules)"
    out = subprocess.run([sys.executable, "-c", probe], env=env, capture_output=True, text=True,
                         check=True).stdout
    assert out.strip() == "False"


_GRID_CASES = [  # (field, JSON literal, error message)
    ("n_steps", "20.7", "grid.n_steps must be a JSON integer, got 20.7"),
    ("n_steps", "20.0", "grid.n_steps must be a JSON integer, got 20.0"),
    ("n_steps", "true", "grid.n_steps must be a JSON integer, got True"),
    ("n_steps", '"20"', "grid.n_steps must be a JSON integer, got '20'"),
    ("n_steps", "0", "grid: n_steps must be >= 1, got 0"),
    ("t_start", '"0.0"', "grid.t_start must be a JSON number, got '0.0'"),
    ("t_end", "false", "grid.t_end must be a JSON number, got False"),
    ("t_end", "1e400", "grid: t_end must be finite, got inf"),
    ("t_end", "1" + "0" * 400, "grid: int too large to convert to float"),
]


@pytest.mark.parametrize("key, literal, message", _GRID_CASES,
                         ids=[f"{key}={literal[:8]}" for key, literal, _ in _GRID_CASES])
@pytest.mark.parametrize("command", ["synthesize", "verify"])
def test_grid_is_what_the_document_says(vessel_and_doc, tmp_path, command, key, literal,
                                        message):
    """A spec grid and a vessel grid alike need a JSON integer n_steps >= 1
    and finite numeric endpoints; anything else exits 1 naming the field."""
    v, _, text = vessel_and_doc
    doc = spec_documents(v)["synthesize"] if command == "synthesize" else json.loads(text)
    doc["grid"] = dict(doc["grid"], **{key: "@"})
    path = tmp_path / "doc.json"
    path.write_text(cli.dump_json(doc).replace('"@"', literal))
    code, out = run_cli([command, str(path)])
    assert code == 1
    assert json.loads(out)["error"] == {"kind": "input", "message": message}


@pytest.mark.parametrize("key, value", [("n", 2.0), ("m", True), ("n", "2"), ("m", None)])
def test_dims_are_json_integers(vessel_and_doc, key, value):
    _, _, text = vessel_and_doc
    doc = json.loads(text)
    doc["dims"][key] = value
    with pytest.raises(cli.InputError, match=f"^dims.{key} must be a JSON integer, got "):
        cli.vessel_from_document(doc)
    del doc["dims"][key]
    with pytest.raises(cli.InputError, match=f"^missing field dims.{key}$"):
        cli.vessel_from_document(doc)


def test_multint_rejects_an_imaginary_c(tmp_path):
    """c is real: an imaginary part is an input error naming c, not dropped."""
    doc = {"s_grid": {"t_start": 0.0, "t_end": 1.0, "n_steps": 4},
           "K": [[[0.0, 1.0]]], "c": [[0.5, 0.0]] * 5}
    path = tmp_path / "kernel.json"
    path.write_text(cli.dump_json(doc))
    code, real_out = run_cli(["multint", str(path)])
    assert code == 0
    doc["c"][3] = [0.5, 7.0]
    path.write_text(cli.dump_json(doc))
    code, out = run_cli(["multint", str(path)])
    assert code == 1
    assert json.loads(out)["error"] == {"kind": "ShapeMismatch",
                                        "message": "c must be real, got (0.5+7j) at s node 3"}
    doc["c"] = [0.5] * 5  # bare reals write the same document as zero imaginary parts
    path.write_text(cli.dump_json(doc))
    assert run_cli(["multint", str(path)]) == (0, real_out)


_NUMERICAL = {"NumericalFailure", "SpectrumClash", "SingularSigma1", "SingularSystem",
              "NonFinite", "NotPositiveDefinite", "DegenerateB", "DegenerateEigenvalue",
              "TransportBreakdown", "CouplingSingular", "NotMinimal"}
_INPUT = {"VesselKitError", "NotHermitian", "GridMismatch", "ShapeMismatch", "ChainMismatch",
          "InconsistentInitialData"}


def test_every_library_error_has_a_pinned_exit_code(vessel_file, monkeypatch):
    """Exit 2 for a NumericalFailure, 1 for every other VesselKitError, decided
    on the type: a new error class fails here until it is pinned."""
    from vesselkit import errors

    classes = {c for c in vars(errors).values()
               if isinstance(c, type) and issubclass(c, errors.VesselKitError)}
    assert {c.__name__ for c in classes} == _NUMERICAL | _INPUT
    for cls in classes:
        def fail(path, cls=cls):
            raise cls(f"{cls.__name__} raised")
        monkeypatch.setattr(cli, "load_json", fail)
        code, out = run_cli(["verify", vessel_file])
        assert code == (2 if cls.__name__ in _NUMERICAL else 1), cls.__name__
        assert json.loads(out)["error"] == {"kind": cls.__name__,
                                            "message": f"{cls.__name__} raised"}
