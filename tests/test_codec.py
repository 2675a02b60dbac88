"""The CLI's JSON codec: whole-array encode/decode, rejections, output layout."""

import contextlib
import io
import json
import re

import numpy as np
import pytest

import vesselkit as vk
from vesselkit import cli

from helpers import consistent_triple_data, rand_complex, skew_chain_vessel


def run_cli(args):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.main(args)
    return code, out.getvalue(), err.getvalue()


# Per-entry reference decoder: one Python call per complex entry.
def _ref_entry(v) -> complex:
    if isinstance(v, (int, float)):
        return complex(v)
    re_, im_ = v
    return complex(re_, im_)


def _ref_matrix(rows) -> np.ndarray:
    return np.array([[_ref_entry(e) for e in row] for row in rows], dtype=complex)


def _ref_family(nodes, grid) -> np.ndarray:
    depth, probe = 0, nodes
    while isinstance(probe, list):
        probe, depth = probe[0], depth + 1
    if depth == 4:
        return np.stack([_ref_matrix(node) for node in nodes])
    return np.broadcast_to(_ref_matrix(nodes), (grid.n_nodes,) + _ref_matrix(nodes).shape)


def _signed_zero_document(grid, n=3, m=2, seed=11):
    """Vessel document whose every operator holds -0.0 in real and imaginary parts."""
    rng = np.random.default_rng(seed)
    shapes = {"A1": (n, n), "A2": (n, n), "B": (n, m), "gamma": (m, m), "gamma_star": (m, m)}
    ops = {k: rand_complex(rng, (grid.n_nodes,) + s) for k, s in shapes.items()}
    ops["sigma1"] = np.broadcast_to(np.diag([1.0, -1.0]).astype(complex), (grid.n_nodes, m, m))
    ops["sigma2"] = np.zeros((grid.n_nodes, m, m), dtype=complex)
    doc = {"schema_version": cli.SCHEMA_VERSION, "dims": {"n": n, "m": m},
           "grid": {"t_start": grid.t_start, "t_end": grid.t_end, "n_steps": grid.n_steps}}
    for key in cli._OPERATOR_KEYS:
        pairs = np.stack([ops[key].real, ops[key].imag], -1)
        pairs[..., 1] = np.where(pairs[..., 1] == 0.0, -0.0, pairs[..., 1])
        pairs[:, 0, -1, :] = -0.0  # an off-diagonal entry of every operator: -0.0 - 0.0j
        doc[key] = pairs.tolist()
    return doc


@pytest.fixture(scope="module")
def grid():
    return vk.TimeGrid(0.0, 1.0, 12)


@pytest.fixture(scope="module")
def vessel_text():
    v, _ = skew_chain_vessel(vk.TimeGrid(0.0, 1.0, 40), seed=5, n_points=2)
    return cli.dump_json(cli.vessel_to_document(v))


class TestRoundTrip:
    def test_signed_zeros_round_trip_bit_for_bit(self, grid):
        doc = _signed_zero_document(grid)
        text = cli.dump_json(doc)
        v = cli.vessel_from_document(json.loads(text))
        for key in cli._OPERATOR_KEYS:
            data = getattr(v, key).data
            want = np.array(doc[key], dtype=float)
            assert np.array_equal(data.view(float).reshape(want.shape), want)
            assert np.array_equal(np.signbit(data.view(float)).reshape(want.shape),
                                  np.signbit(want))
            assert np.signbit(data[:, 0, -1].real).all() and np.signbit(data[:, 0, -1].imag).all()
        canonical = cli.dump_json(cli.vessel_to_document(v))
        again = cli.vessel_from_document(json.loads(canonical))
        assert cli.dump_json(cli.vessel_to_document(again)) == canonical

    def test_decoder_matches_per_entry_reference(self, grid):
        rng = np.random.default_rng(3)
        doc = _signed_zero_document(grid, seed=4)
        doc["A1"] = [[[[float(x), int(k)] for x, k in zip(rng.normal(size=3), rng.integers(-5, 5, 3))]
                      for _ in range(3)] for _ in range(grid.n_nodes)]  # integer entries
        doc["gamma"] = rng.normal(size=(2, 2)).tolist()  # real constant shorthand
        doc["sigma1"] = [[[1, 0], [0.0, -0.0]], [[-0.0, 0], [-1, 0]]]  # complex constant
        v = cli.vessel_from_document(doc)
        for key in cli._OPERATOR_KEYS:
            ref = _ref_family(doc[key], grid)
            got = getattr(v, key).data
            assert got.shape == ref.shape
            assert got.tobytes() == np.ascontiguousarray(ref).tobytes(), key

    def test_encoder_matches_per_entry_lists(self):
        a = rand_complex(np.random.default_rng(8), (4, 3, 2))
        a[0, 0, 0] = complex(-0.0, -0.0)
        want = [[[[float(z.real), float(z.imag)] for z in row] for row in mat] for mat in a]
        assert cli._enc_array(a) == want
        assert repr(cli._enc_array(a)) == repr(want)
        assert cli._enc_array(1.5 - 0.0j) == [1.5, -0.0]
        assert cli._enc_array([]) == []

    def test_constant_shorthands_accepted(self, vessel_text):
        full = json.loads(vessel_text)
        base = cli.vessel_from_document(full)
        doc = json.loads(vessel_text)
        doc["sigma1"] = [[[1.0, 0.0], [0.0, 0.0]], [[0.0, 0.0], [-1.0, 0.0]]]  # rank 3
        doc["sigma2"] = [[0, 0], [0, 0.0]]  # rank 2, real
        v = cli.vessel_from_document(doc)
        assert np.array_equal(v.sigma1.data, base.sigma1.data)
        assert np.array_equal(v.sigma2.data, base.sigma2.data)


def _per_node_document(v) -> dict:
    """Reference encoding: every family as its node matrices, as documents were
    written before constant families were shortened."""
    doc = cli.vessel_to_document(v)
    for key in cli._OPERATOR_KEYS:
        doc[key] = cli._enc_array(getattr(v, key).data)
    return doc


@pytest.fixture(scope="module")
def command_vessels():
    """The vessels the synthesize, couple, factor and realize commands write."""
    va, _ = skew_chain_vessel(vk.TimeGrid(0.0, 1.0, 40), seed=5, n_points=2)
    vb, _ = skew_chain_vessel(vk.TimeGrid(0.0, 1.0, 40), seed=5, n_points=3)
    grid, s1, s2, gs, a_pi, a_xi, c, bn, x0 = consistent_triple_data(40)
    x = vk.evolve_coupling(c, a_pi, a_xi, bn, x0, s1, s2, gs, grid)
    triple = vk.NullPoleTriple(C=c, A_pi=a_pi, A_xi=a_xi, Bn=bn, X=x)
    return {
        "synthesize": va,
        "couple": vk.couple(va, vb),
        "factor": vk.extract_elementary(vb, 0, node_ref=3).factor,
        "realize": vk.zero_pole_realize(triple, gs, s1, s2).vessel,
    }


class TestShortestDocument:
    """A family constant to the bit is written as one matrix; A1 and B never are."""

    def test_one_signed_zero_keeps_the_node_matrices(self, grid):
        data = np.broadcast_to(np.array([[0.0, 1.5 - 2.0j]]), (grid.n_nodes, 1, 2)).copy()
        data[5, 0, 0] = complex(-0.0, 0.0)
        fam = vk.GridOperatorFamily(grid, data)
        written = cli._enc_family(fam)
        assert written == cli._enc_array(data)
        assert repr(written[5][0][0]) == "[-0.0, 0.0]" and repr(written[4][0][0]) == "[0.0, 0.0]"
        back = cli._dec_family(json.loads(json.dumps(written)), grid, "sigma2")
        assert back.data.tobytes() == data.tobytes()

    def test_bit_equal_nodes_become_one_matrix(self, grid):
        matrix = np.array([[-0.0 + 1.0j, 2.5], [0.0, -1e-300 - 0.0j]])
        fam = vk.GridOperatorFamily(grid, np.broadcast_to(matrix, (grid.n_nodes, 2, 2)))
        written = cli._enc_family(fam)
        assert written == cli._enc_array(matrix)
        assert repr(written) == repr(cli._enc_array(matrix))  # -0.0 kept in the one matrix
        back = cli._dec_family(json.loads(json.dumps(written)), grid, "gamma")
        assert back.data.tobytes() == fam.data.tobytes()

    def test_realization_stays_per_node(self, command_vessels):
        v = command_vessels["realize"]
        a1 = v.A1.data.view(np.int64)
        assert (a1 == a1[:1]).all()  # zero_pole_realize's A1 is A_pi at every node
        doc = cli.vessel_to_document(v)
        for key in ("A1", "B"):
            assert doc[key] == cli._enc_array(getattr(v, key).data), key
        assert doc["A2"] == cli._enc_array(v.A2.data[0])

    @pytest.mark.parametrize("command", ["synthesize", "couple", "factor", "realize"])
    def test_decodes_like_the_per_node_document(self, command_vessels, command):
        v = command_vessels[command]
        doc = json.loads(cli.dump_json(cli.vessel_to_document(v)))
        ref = cli.vessel_from_document(json.loads(cli.dump_json(_per_node_document(v))))
        got = cli.vessel_from_document(doc)
        shortened = set()
        for key in cli._OPERATOR_KEYS:
            assert getattr(got, key).data.tobytes() == getattr(ref, key).data.tobytes(), key
            assert getattr(got, key).data.tobytes() == getattr(v, key).data.tobytes(), key
            if len(doc[key]) != v.grid.n_nodes:
                shortened.add(key)
        assert not shortened & {"A1", "B"}
        assert {"sigma1", "sigma2", "gamma_star"} <= shortened  # constant in every such vessel

    @pytest.mark.parametrize("command", ["synthesize", "couple", "factor", "realize"])
    def test_encode_decode_encode_is_a_fixed_point(self, command_vessels, command):
        text = cli.dump_json(cli.vessel_to_document(command_vessels[command]))
        again = cli.vessel_from_document(json.loads(text))
        assert cli.dump_json(cli.vessel_to_document(again)) == text
        assert len(text) < len(cli.dump_json(_per_node_document(command_vessels[command])))


class TestRejections:
    @pytest.mark.parametrize("case", [
        "ragged_rows", "string_entry", "empty_row", "pair_length", "non_finite",
        "mixed_scalar_pair", "node_count", "int_beyond_64_bits", "rank_one",
    ])
    def test_bad_operator_array_exits_one(self, vessel_text, tmp_path, case):
        doc = json.loads(vessel_text)
        a1 = doc["A1"]
        if case == "ragged_rows":
            a1[3][0].append([0.0, 0.0])
        elif case == "string_entry":
            a1[3][0][1] = ["1.0", 0.0]
        elif case == "empty_row":
            doc["sigma1"] = [[], []]
        elif case == "pair_length":
            doc["gamma"] = [[[0.0, 0.0, 0.0], [0.5, 0.0, 0.0]], [[-0.5, 0.0, 0.0], [0.0, 0.0, 0.0]]]
        elif case == "non_finite":
            a1[2][1][0] = [1.0, "INF"]
        elif case == "mixed_scalar_pair":
            a1[5][0][0] = 0.25
        elif case == "node_count":
            del a1[-1]
        elif case == "int_beyond_64_bits":
            a1[0][0][0] = [2 ** 70, 0]
        elif case == "rank_one":
            doc["sigma2"] = [0.0, 0.0]
        text = json.dumps(doc)
        if case == "non_finite":
            text = text.replace('"INF"', "1e400")  # parses to inf
        path = tmp_path / "bad.json"
        path.write_text(text)
        code, out, _ = run_cli(["verify", str(path)])
        assert code == 1
        err = json.loads(out)["error"]
        assert err["kind"] == "input"

    @pytest.mark.parametrize("command, field", [("multint", "c"), ("verify", "sigma2")])
    def test_json_booleans_are_not_numbers(self, vessel_text, tmp_path, command, field):
        """An all-boolean operator array is an input error naming its field."""
        if command == "multint":
            doc = {"s_grid": {"t_start": 0.0, "t_end": 1.0, "n_steps": 2},
                   "K": [[[0.0, 1.0]]], "c": [True, False, True]}
        else:
            doc = json.loads(vessel_text)
            doc["sigma2"] = [[False, False], [False, False]]
        path = tmp_path / "bools.json"
        path.write_text(json.dumps(doc))
        code, out, err = run_cli([command, str(path)])
        assert code == 1
        error = json.loads(out)["error"]
        assert error["kind"] == "input"
        assert error["message"].startswith(f"{field}: entries must be numbers, not true/false")
        assert err.endswith("; exit 1\n")

    def test_messages_name_the_operator(self):
        with pytest.raises(cli.InputError, match="B: ragged"):
            cli._dec_array([[1.0, [1.0, 0.0]]], "B")
        with pytest.raises(cli.InputError, match="B: empty"):
            cli._dec_array([[]], "B")
        with pytest.raises(cli.InputError, match="B: entries must be numbers"):
            cli._dec_array([[None, 1.0]], "B")
        with pytest.raises(cli.InputError, match="B: non-finite"):
            cli._dec_array([[float("nan"), 1.0]], "B")
        with pytest.raises(cli.InputError, match=r"got shape \(2, 2, 3\)"):
            cli._dec_complex([[[0, 0, 0]] * 2] * 2, 2, "B")

    @pytest.mark.parametrize("command", ["synthesize", "fundamental", "multint", "realize"])
    def test_non_object_spec_exits_one(self, tmp_path, command):
        path = tmp_path / "list.json"
        path.write_text("[1, 2]")
        code, out, err = run_cli([command, str(path)])
        assert code == 1
        assert "must be a JSON object" in json.loads(out)["error"]["message"]
        assert "Traceback" not in err


class TestOutput:
    def test_one_line_and_byte_identical(self, vessel_text, tmp_path):
        path = tmp_path / "v.json"
        path.write_text(vessel_text)
        assert vessel_text.count("\n") == 1 and vessel_text.endswith("\n")
        for args in (["verify", str(path), "--seed", "2"], ["couple", str(path), str(path)],
                     ["transfer", str(path), "--probes", "3", "--node", "4"]):
            code1, out1, _ = run_cli(args)
            code2, out2, _ = run_cli(args)
            assert code1 == code2 == 0
            assert out1 == out2
            assert out1.count("\n") == 1 and out1.endswith("\n")
            assert json.loads(out1)

    def test_stage_line_on_stderr(self, vessel_text, tmp_path):
        path = tmp_path / "v.json"
        path.write_text(vessel_text)
        out_path = tmp_path / "report.json"
        code, out, err = run_cli(["verify", str(path), "--seed", "2"])
        code_o, out_o, err_o = run_cli(["verify", str(path), "--seed", "2", "-o", str(out_path)])
        assert code == code_o == 0
        assert out_o == "" and out_path.read_text() == out
        assert json.loads(out)["timing"]["seconds"] is None
        pattern = (r"vesselkit verify: load [\d.]+ ms, decode [\d.]+ ms, compute [\d.]+ ms, "
                   r"encode [\d.]+ ms, emit [\d.]+ ms; exit 0\n")
        assert re.fullmatch(pattern, err)
        assert re.fullmatch(pattern, err_o)

    def test_stage_line_carries_exit_code(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text("{broken")
        code, _, err = run_cli(["verify", str(path)])
        assert code == 1
        lines = err.splitlines()
        assert lines[0].startswith("error[input]")
        assert lines[-1].startswith("vesselkit verify: load") and lines[-1].endswith("; exit 1")
