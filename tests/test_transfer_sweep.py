import contextlib
import dataclasses
import io
import json
import sys
import threading

import numpy as np
import pytest

import vesselkit as vk
from vesselkit import cli
import vesselkit.vessel_core as core
from vesselkit.errors import (GridMismatch, NonFinite, NotHermitian, ShapeMismatch, SingularSigma1,
                               SpectrumClash)
from vesselkit.matrix_kernel import frob, max_frob, shifted_solve

from helpers import (SIGMA1_INDEFINITE, assert_stacked_equals_loop, colligation_datum, const,
                     observable_stable_pair, rand_complex, rand_hermitian, rand_skew,
                     skew_chain_vessel)


def run_cli(args):
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        code = cli.main(args)
    return code, buf.getvalue()


def _family(grid, data):
    return vk.GridOperatorFamily(grid, data)


@pytest.fixture(scope="module")
def moving_vessel():
    """Vessel whose A1 and B change along the grid (no condition enforced)."""
    grid = vk.TimeGrid(0.0, 1.0, 30)
    rng = np.random.default_rng(3)
    n, m = 3, 2
    t = grid.nodes()[:, None, None]
    a1 = rand_complex(rng, (1, n, n)) - 2.0 * np.eye(n) + t * rand_complex(rng, (1, n, n))
    b = rand_complex(rng, (1, n, m)) + t * rand_complex(rng, (1, n, m))
    zero = const(np.zeros((m, m)), grid)
    return vk.DifferentialVessel(
        A1=_family(grid, a1), A2=const(np.zeros((n, n)), grid), B=_family(grid, b),
        sigma1=const(SIGMA1_INDEFINITE, grid), sigma2=zero, gamma=zero, gamma_star=zero,
    )


EPS = np.finfo(float).eps
SLACK = 64.0  # round-off units allowed per unit of the cond-scaled bound


def _reference(v, lam, node):
    """Node-by-node S(lam, node), in the arithmetic order of the batched sweep."""
    a, b = v.A1[node], v.B[node]
    x = np.linalg.solve(lam * np.eye(a.shape[0]) - a, b @ v.sigma1[node])
    return np.eye(v.signal_dim, dtype=complex) - b.conj().T @ x


def assert_near_inverse_form(got, a, lam, rhs, lhs=None):
    """`got` is lhs (lam I - a)^(-1) rhs (lhs = I if None) to round-off, against
    the inverse-then-multiply form: SLACK eps cond(lam I - a) |lhs| |R| |rhs|."""
    shifted = lam * np.eye(a.shape[0]) - a
    r = np.linalg.solve(shifted, np.eye(a.shape[0], dtype=complex))
    lhs = np.eye(a.shape[0]) if lhs is None else lhs
    bound = SLACK * EPS * frob(shifted) * frob(r) * frob(lhs) * frob(r) * frob(rhs)
    assert frob(got - lhs @ r @ rhs) <= bound


class TestTransferSweep:
    def test_bit_identical_to_node_by_node(self, moving_vessel):
        v = moving_vessel
        lams = [1.5 + 0.5j, -0.3 + 2.0j, 4.0]
        sweep = vk.transfer_sweep(v, lams)
        for k, lam in enumerate(lams):
            for node in range(v.grid.n_nodes):
                assert np.array_equal(sweep[k, node], _reference(v, lam, node))
                b = v.B[node]
                assert_near_inverse_form(np.eye(v.signal_dim) - sweep[k, node], v.A1[node], lam,
                                         b @ v.sigma1[node], lhs=b.conj().T)

    def test_shapes(self, moving_vessel):
        v = moving_vessel
        nn, m = v.grid.n_nodes, v.signal_dim
        assert vk.transfer_sweep(v, [1.0, 2.0, 3.0]).shape == (3, nn, m, m)
        assert vk.transfer_sweep(v, [1.0, 2.0], [0, 7, 30]).shape == (2, 3, m, m)
        assert vk.transfer_sweep(v, 1.0 + 1.0j, 4).shape == (1, 1, m, m)
        assert vk.transfer_sweep(v, [1.0 + 1.0j], [4]).shape == (1, 1, m, m)

    def test_wrappers_are_sweep_entries(self, moving_vessel):
        v = moving_vessel
        lam = 0.7 - 1.1j
        sweep = vk.transfer_sweep(v, [lam])[0]
        assert np.array_equal(vk.transfer_at_nodes(v, lam), sweep)
        assert np.array_equal(vk.eval_transfer(v, lam, 11), sweep[11])

    def test_clash_at_one_pair_names_the_node(self, moving_vessel):
        v = moving_vessel
        node = 17
        lam = complex(np.linalg.eigvals(v.A1[node])[0])
        others = [i for i in range(v.grid.n_nodes) if i != node]
        vk.transfer_sweep(v, [lam], others)  # every other node is clear of lam
        vk.transfer_sweep(v, [lam + 0.5], [node])
        with pytest.raises(SpectrumClash, match=f"at node {node} "):
            vk.transfer_sweep(v, [1.0 + 0.2j, lam])
        with pytest.raises(SpectrumClash):
            vk.eval_transfer(v, lam, node)

    @pytest.mark.parametrize("nodes", [[-1], [31], [0, 99999]])
    def test_out_of_range_nodes_rejected(self, moving_vessel, nodes):
        with pytest.raises(GridMismatch):
            vk.transfer_sweep(moving_vessel, [1.0], nodes)

    def test_symmetry_residual_over_sequences_is_the_max(self):
        grid = vk.TimeGrid(0.0, 1.0, 40)
        v, _ = skew_chain_vessel(grid, seed=5, n_points=2)
        lams, nodes = [1.3 + 0.4j, 0.2 - 1.7j], [0, 9, 40]
        single = [vk.adjoint_symmetry_residual(v, lam, node) for lam in lams for node in nodes]
        assert vk.adjoint_symmetry_residual(v, lams, nodes) == max(single)
        assert vk.adjoint_symmetry_residual(v, [], []) == 0.0


class TestBatchedResiduals:
    def test_pde_residual_matches_node_loop(self, moving_vessel):
        v = moving_vessel
        lam = 1.2 + 0.3j
        s = vk.transfer_at_nodes(v, lam)
        worst = 0.0
        for i in range(1, v.grid.n_nodes - 1):
            ds = (s[i + 1] - s[i - 1]) / (2.0 * v.grid.h)
            left = np.linalg.solve(v.sigma1[i], lam * v.sigma2[i] + v.gamma_star[i]) @ s[i]
            right = s[i] @ np.linalg.solve(v.sigma1[i], lam * v.sigma2[i] + v.gamma[i])
            worst = max(worst, frob(ds - left + right))
        got = vk.transfer_pde_residual_values(list(s), v.sigma1, v.sigma2, v.gamma,
                                              v.gamma_star, lam, v.grid)
        assert got == worst
        assert vk.transfer_pde_residual(v, lam) == worst

    def test_simulate_matches_node_loop(self, moving_vessel):
        v = moving_vessel
        lam, u0 = 0.9 + 0.6j, np.array([1.0, -0.4 + 0.3j])
        traj = vk.simulate(v, lam, u0)
        phi = vk.input_fundamental(v, lam)
        for i in range(v.grid.n_nodes):
            u = phi[i] @ u0.reshape(-1, 1)
            rhs = v.B[i] @ v.sigma1[i] @ u
            x = np.linalg.solve(lam * np.eye(v.state_dim) - v.A1[i], rhs)
            assert_near_inverse_form(x, v.A1[i], lam, rhs)
            y = u - v.B[i].conj().T @ x
            drive = v.A1[i] @ x + v.B[i] @ v.sigma1[i] @ u
            defect = (2.0 * np.real(np.vdot(x, drive)) + np.real(np.vdot(y, v.sigma1[i] @ y))
                      - np.real(np.vdot(u, v.sigma1[i] @ u)))
            assert np.array_equal(traj.x[i], x)
            assert np.array_equal(traj.y[i], y)
            assert traj.energy_defect_t1[i] == defect

    def test_max_frob_is_exact(self):
        rng = np.random.default_rng(8)
        stack = rand_complex(rng, (5, 40, 3, 3))
        assert max_frob(stack) == max(frob(a) for a in stack.reshape(-1, 3, 3))
        assert max_frob(np.zeros((0, 2, 2))) == 0.0
        assert max_frob(np.zeros((4, 2, 2))) == 0.0

    def test_shifted_solve_is_solve_per_operand(self, moving_vessel):
        a, b = moving_vessel.A1.data, moving_vessel.B.data
        lam, spectra = 0.4 + 0.9j, np.linalg.eigvals(a)
        x = shifted_solve(a, lam, b, spectra)
        for k in range(len(a)):
            alone = shifted_solve(a[k:k + 1], lam, b[k:k + 1], spectra[k:k + 1])[0]
            assert same_bits(x[k], alone)
            assert same_bits(x[k], np.linalg.solve(lam * np.eye(3) - a[k], b[k]))

    def test_resolvent_keeps_the_inverse_bits(self, moving_vessel):
        """The resolvent as the identity-rhs shifted solve of one operand has the
        bits of the one (1, n, n) LAPACK solve against I."""
        lam, eye = 0.4 + 0.9j, np.eye(3, dtype=complex)
        for a in moving_vessel.A1.data:
            inverse = np.linalg.solve((lam * np.eye(3) - a)[None], eye)[0]
            resolvent = shifted_solve(a[None], lam, eye[None], np.linalg.eigvals(a)[None])[0]
            assert same_bits(resolvent, inverse)


class TestReroutedCallersMatchInverseForm:
    """Every transfer path solves against its right-hand side; each agrees with
    the inverse-then-multiply form at the cond-scaled round-off bound."""

    lams = (1.3 + 0.4j, -0.7 + 1.1j, 2.5)

    def test_expansivity_factor_form(self, moving_vessel):
        v = moving_vessel
        for lam in self.lams:
            for node in (0, 12, 30):
                a, bs1 = v.A1[node], v.B[node] @ v.sigma1[node]
                shifted = lam * np.eye(3) - a
                r = np.linalg.inv(shifted)
                m = r @ bs1
                bound = (4.0 * abs(lam.real) * SLACK * EPS * frob(shifted) * frob(r)
                         * (frob(r) * frob(bs1)) ** 2)
                got = vk.expansivity_factor_form(v, lam, node)
                assert frob(got + 2.0 * lam.real * (m.conj().T @ m)) <= bound

    def test_zero_pole_transfer(self):
        grid = vk.TimeGrid(0.0, 1.0, 20)
        v, _ = skew_chain_vessel(grid, seed=5, n_points=3)
        triple = vk.extract_null_pole(v)
        real = vk.zero_pole_realize(triple, v.gamma_star, v.sigma1, v.sigma2)
        b_tilde, s1 = real.vessel.B.data, v.sigma1.data
        for lam in self.lams:
            s = real.transfer(lam, np.arange(grid.n_nodes))
            for i in range(grid.n_nodes):
                assert_near_inverse_form(s[i] - np.eye(2), triple.A_pi, lam,
                                         b_tilde[i] @ s1[i], lhs=triple.C[i])

    def test_hermitian_transfer(self):
        grid = vk.TimeGrid(0.0, 1.0, 10)
        rng = np.random.default_rng(1)
        c = _family(grid, rand_complex(rng, (grid.n_nodes, 2, 3)))
        a1 = np.diag([-1.0, -2.0 + 1j, -0.5 - 0.3j]) + 0.1 * rand_complex(rng, (3, 3))
        s1 = const(np.eye(2), grid)
        hr = vk.hermitian_realize(c, a1, s1)
        for lam in self.lams:
            for i in (0, 4, 10):
                rhs = np.linalg.solve(hr.X[i], c[i].conj().T @ s1[i])
                assert_near_inverse_form(hr.transfer(lam, i) - np.eye(2), -a1, lam, rhs,
                                         lhs=c[i])


def same_bits(a, b) -> bool:
    a, b = np.asarray(a), np.asarray(b)
    return a.shape == b.shape and a.tobytes() == b.tobytes()


def sweep_reference(v, lams, nodes):
    """transfer_sweep without the spectra store: eigvals of the requested nodes."""
    nodes = np.asarray(nodes, np.intp).reshape(-1)
    a1, b, s1 = v.A1.data[nodes], v.B.data[nodes], v.sigma1.data[nodes]
    spectra = np.linalg.eigvals(a1)
    eye = np.eye(v.signal_dim, dtype=complex)
    return np.stack([eye - b.conj().transpose(0, 2, 1)
                     @ shifted_solve(a1, lam, b @ s1, spectra, nodes=nodes) for lam in lams])


def fresh(v):
    """The same vessel with an empty spectra store."""
    return dataclasses.replace(v)


def counting_eigvals(monkeypatch):
    calls = []
    eigvals = np.linalg.eigvals
    monkeypatch.setattr(np.linalg, "eigvals", lambda a: calls.append(len(a)) or eigvals(a))
    return calls


class TestSpectraStore:
    """The eigenvalues of A1 are kept on the vessel per node; every result is
    bit for bit the result of a fresh eigvals pass over the requested nodes."""

    lams = (1.5 + 0.5j, -0.3 + 2.0j, 4.0)

    def test_sweep_cold_and_warm(self, moving_vessel):
        v = fresh(moving_vessel)
        every = np.arange(v.grid.n_nodes)
        some = [3, 17, 3, 30]
        assert same_bits(vk.transfer_sweep(v, self.lams, some),
                         sweep_reference(v, self.lams, some))  # cold
        assert same_bits(vk.transfer_sweep(v, self.lams), sweep_reference(v, self.lams, every))
        assert same_bits(vk.transfer_sweep(v, self.lams, some),
                         sweep_reference(v, self.lams, some))  # warm

    def test_eval_transfer_cold_and_warm(self, moving_vessel):
        v = fresh(moving_vessel)
        for node in (11, 11, 0, 30):
            for lam in self.lams:
                assert same_bits(vk.eval_transfer(v, lam, node),
                                 sweep_reference(v, [lam], [node])[0, 0])

    def test_simulate_cold_and_warm(self, moving_vessel):
        lam, u0 = 0.9 + 0.6j, np.array([1.0, -0.4 + 0.3j])
        v = fresh(moving_vessel)
        a1, b, s1 = v.A1.data, v.B.data, v.sigma1.data
        u = vk.input_fundamental(v, lam).family.data @ u0.reshape(-1, 1)
        x = shifted_solve(a1, lam, b @ s1 @ u, np.linalg.eigvals(a1), nodes=range(len(a1)))
        y = u - b.conj().transpose(0, 2, 1) @ x
        for _ in ("cold", "warm"):
            traj = vk.simulate(v, lam, u0)
            assert same_bits(traj.x.data, x) and same_bits(traj.y.data, y)

    def test_one_eigvals_pass_per_vessel(self, moving_vessel, monkeypatch):
        v = fresh(moving_vessel)
        calls = counting_eigvals(monkeypatch)
        rng = np.random.default_rng(4)
        for lam in rng.uniform(1.0, 3.0, 64) + 1j * rng.uniform(-2.0, 2.0, 64):
            vk.transfer_at_nodes(v, lam)
        assert calls == [v.grid.n_nodes]
        vk.eval_transfer(v, 2.0 + 1.0j, 12)
        vk.adjoint_symmetry_residual(v, [1.0 + 1.0j, 2.0], [0, 12, 30])
        assert calls == [v.grid.n_nodes]

    def test_only_unknown_nodes_are_computed(self, moving_vessel, monkeypatch):
        v = fresh(moving_vessel)
        calls = counting_eigvals(monkeypatch)
        vk.eval_transfer(v, 2.0, 5)
        vk.transfer_sweep(v, [2.0], [5, 9, 9, 5, 20])
        vk.eval_transfer(v, 3.0, 20)
        assert calls == [1, 2]

    def test_warm_clash_names_the_same_node_and_threshold(self, moving_vessel):
        node = 17
        lam = complex(np.linalg.eigvals(moving_vessel.A1[node])[0])
        with pytest.raises(SpectrumClash, match=f"at node {node} ") as ref:
            sweep_reference(moving_vessel, [lam], np.arange(moving_vessel.grid.n_nodes))
        v = fresh(moving_vessel)
        for _ in ("cold", "warm"):
            with pytest.raises(SpectrumClash) as exc:
                vk.transfer_sweep(v, [1.0 + 0.2j, lam])
            assert str(exc.value) == str(ref.value)

    def test_concurrent_fills_agree(self, moving_vessel):
        """Eight threads fill one store at once; every sweep reads the values of
        a fresh eigvals pass (a node marked known before its value is written
        would break this)."""
        v = fresh(moving_vessel)
        rng = np.random.default_rng(9)
        picks = [rng.choice(v.grid.n_nodes, size=5) for _ in range(64)]
        results, errors = {}, []

        def work(first):
            try:
                for i in range(first, len(picks), 8):
                    results[i] = vk.transfer_sweep(v, self.lams, picks[i])
            except Exception as exc:  # reported by the assertion below
                errors.append(exc)

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threads = [threading.Thread(target=work, args=(k,)) for k in range(8)]
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(t.is_alive() for t in threads) and errors == []
        for i, nodes in enumerate(picks):
            assert same_bits(results[i], sweep_reference(v, self.lams, nodes))

    def test_derived_vessels_get_their_own_spectra(self, moving_vessel):
        v = fresh(moving_vessel)
        vk.transfer_at_nodes(v, 2.0)  # warm the source
        rng = np.random.default_rng(6)
        k = rand_skew(rng, 3, 0.7)
        u = np.stack([np.linalg.qr(np.eye(3) + t * k)[0] for t in v.grid.nodes()])
        gauged = vk.gauge_transform(v, vk.GaugeMap.from_family(_family(v.grid, u)))
        for derived in (gauged, vk.couple(v, v), dataclasses.replace(v)):
            values, known = derived._spectra_store
            assert values is not v._spectra_store[0] and not known.any()
            every = np.arange(v.grid.n_nodes)
            assert same_bits(vk.transfer_sweep(derived, self.lams),
                             sweep_reference(derived, self.lams, every))


class TestVesselValidation:
    def test_non_hermitian_sigma_raises_not_hermitian(self, moving_vessel):
        v = moving_vessel
        grid = v.grid
        s2 = np.zeros((grid.n_nodes, 2, 2), dtype=complex)
        s2[5, 0, 1] = 1.0
        with pytest.raises(NotHermitian, match="sigma2 not Hermitian at node 5"):
            vk.DifferentialVessel(A1=v.A1, A2=v.A2, B=v.B, sigma1=v.sigma1,
                                  sigma2=_family(grid, s2), gamma=v.gamma,
                                  gamma_star=v.gamma_star)
        # An overflowing norm would make the relative test compare inf with inf.
        s2[7, 0, 1] = 1e200
        with pytest.raises(NonFinite, match="sigma2 norm overflows at node 7"):
            vk.DifferentialVessel(A1=v.A1, A2=v.A2, B=v.B, sigma1=v.sigma1,
                                  sigma2=_family(grid, s2), gamma=v.gamma,
                                  gamma_star=v.gamma_star)

    def test_singular_sigma1_names_first_node(self, moving_vessel):
        v = moving_vessel
        grid = v.grid
        s1 = np.broadcast_to(np.eye(2, dtype=complex), (grid.n_nodes, 2, 2)).copy()
        s1[[8, 20], 1, 1] = 0.0
        sigma1 = _family(grid, s1)
        with pytest.raises(SingularSigma1, match="at node 8:"):
            vk.DifferentialVessel(A1=v.A1, A2=v.A2, B=v.B, sigma1=sigma1, sigma2=v.sigma2,
                                  gamma=v.gamma, gamma_star=v.gamma_star)
        with pytest.raises(SingularSigma1, match="at node 8:"):
            vk.fundamental_matrix(1.0, sigma1, v.sigma2, v.gamma, grid)

    def test_cli_non_hermitian_sigma1_is_input_error(self, moving_vessel, tmp_path):
        doc = cli.vessel_to_document(moving_vessel)
        doc["sigma1"] = [[[1.0, 0.0], [1.0, 0.0]], [[0.0, 0.0], [-1.0, 0.0]]]
        path = tmp_path / "bad.json"
        path.write_text(cli.dump_json(doc))
        code, out = run_cli(["verify", str(path)])
        assert code == 1
        assert "not Hermitian" in json.loads(out)["error"]["message"]


def _triple(grid, x_matrix, n, m=2, seed=2):
    rng = np.random.default_rng(seed)
    a_pi = -np.eye(n) + 0.1 * rand_skew(rng, n)
    return vk.NullPoleTriple(
        C=const(rand_complex(rng, (m, n)), grid), A_pi=a_pi, A_xi=-a_pi.conj().T,
        Bn=const(rand_complex(rng, (n, m)), grid), X=const(x_matrix, grid))


class TestCouplingSingularityIsRelative:
    def setup_method(self):
        self.grid = vk.TimeGrid(0.0, 1.0, 6)
        zero = const(np.zeros((2, 2)), self.grid)
        self.coeffs = (zero, const(SIGMA1_INDEFINITE, self.grid), zero)

    def test_small_well_conditioned_x_is_regular(self):
        real = vk.zero_pole_realize(_triple(self.grid, 0.005 * np.eye(5), 5), *self.coeffs)
        assert real.singular_nodes == ()
        assert np.all(np.isfinite(real.transfer(1.5 + 0.5j, 3)))

    def test_huge_condition_number_is_singular(self):
        x = np.diag([1e6, 1e6, 1e6, 1e6, 1e-12])
        real = vk.zero_pole_realize(_triple(self.grid, x, 5), *self.coeffs)
        assert real.singular_nodes == tuple(range(self.grid.n_nodes))
        with pytest.raises(vk.CouplingSingular):
            real.transfer(1.5 + 0.5j, 3)
        with pytest.raises(vk.CouplingSingular):
            real.transfer([1.5 + 0.5j, 2.0], [3])
        assert real.transfer([], 3).shape == (0, 2, 2)  # nothing evaluated there

    def test_rtol_argument(self):
        triple = _triple(self.grid, np.diag([1.0, 1e-6]), 2)
        assert vk.zero_pole_realize(triple, *self.coeffs).singular_nodes == ()
        strict = vk.zero_pole_realize(triple, *self.coeffs, rtol=1e-5)
        assert strict.singular_nodes == tuple(range(self.grid.n_nodes))

    def test_stacked_transfer_is_per_node_transfer(self):
        real = vk.zero_pole_realize(_triple(self.grid, np.diag([2.0, 0.5, 1.0]), 3),
                                    *self.coeffs)
        lam = 0.8 - 0.6j
        stack = real.transfer(lam, np.arange(self.grid.n_nodes))
        for i in range(self.grid.n_nodes):
            assert np.array_equal(stack[i], real.transfer(lam, i))


@pytest.fixture(scope="module")
def chain_doc():
    grid = vk.TimeGrid(0.0, 1.0, 40)
    v, data = skew_chain_vessel(grid, seed=5, n_points=2)
    return v, data, cli.dump_json(cli.vessel_to_document(v))


@pytest.fixture()
def chain_file(chain_doc, tmp_path):
    path = tmp_path / "vessel.json"
    path.write_text(chain_doc[2])
    return str(path)


class TestCliNodesAndClashes:
    @pytest.mark.parametrize("node", ["99999", "-1"])
    @pytest.mark.parametrize("command", ["transfer", "factor", "gauge"])
    def test_node_outside_grid_is_input_error(self, chain_file, command, node):
        args = [command, chain_file] + ([chain_file] if command == "gauge" else [])
        code, out = run_cli(args + [f"--node={node}"])
        assert code == 1
        err = json.loads(out)["error"]
        assert err["kind"] == "input"
        assert f"--node {node}" in err["message"]

    def test_transfer_reports_every_lambda_at_the_node(self, chain_doc, chain_file):
        v = chain_doc[0]
        code, out = run_cli(["transfer", chain_file, "--lambda", "2.0,0.5",
                             "--lambda=-1.0,0.3", "--node", "40"])
        assert code == 0
        values = json.loads(out)["values"]
        assert [item["node"] for item in values] == [40, 40]
        for item, lam in zip(values, (2.0 + 0.5j, -1.0 + 0.3j)):
            got = np.array([[complex(*e) for e in row] for row in item["matrix"]])
            assert np.array_equal(got, vk.eval_transfer(v, lam, 40))

    def test_verify_clash_is_numerical(self, chain_doc, chain_file):
        z = chain_doc[1][0].z
        code, out = run_cli(["verify", chain_file, f"--lambda={z.real},{z.imag}"])
        assert code == 2
        assert json.loads(out)["error"]["kind"] == "SpectrumClash"

    def test_realize_clash_is_numerical(self, chain_doc, tmp_path):
        v = chain_doc[0]
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
        z = complex(np.linalg.eigvals(triple.A_pi)[0])
        code, out = run_cli(["realize", str(path), f"--lambda={z.real},{z.imag}"])
        assert code == 2
        assert json.loads(out)["error"]["kind"] == "SpectrumClash"


def varying_vessel(n, m=2, n_steps=20, seed=0):
    """Vessel of state dimension n whose A1, B and sigma1 all change along the
    grid (no condition enforced)."""
    grid = vk.TimeGrid(0.0, 1.0, n_steps)
    rng = np.random.default_rng(seed)
    t = grid.nodes()[:, None, None]
    a1 = rand_complex(rng, (1, n, n)) - 2.0 * np.eye(n) + t * rand_complex(rng, (1, n, n))
    b = rand_complex(rng, (1, n, m)) + t * rand_complex(rng, (1, n, m))
    s1 = SIGMA1_INDEFINITE + t * rand_hermitian(rng, m, 0.2)
    zero = const(np.zeros((m, m)), grid)
    return vk.DifferentialVessel(
        A1=_family(grid, a1), A2=const(np.zeros((n, n)), grid), B=_family(grid, b),
        sigma1=_family(grid, s1), sigma2=zero, gamma=zero, gamma_star=zero,
    )


def lu_reference(v, lams, nodes):
    """S(lam, node) from the operands of each node, formed anew for each
    (lam, node): one LU per pair."""
    return np.array([[_reference(v, lam, node) for node in nodes] for lam in lams])


class TestTransferOperands:
    """A1, B^H, B sigma1 and the scales of the solve's guards are kept on the
    vessel; every transfer is bit for bit the one from per-call operands."""

    lams = (1.5 + 0.5j, -0.3 + 2.0j, 4.0, 0.2 - 3.1j)

    @pytest.mark.parametrize("n", [1, 2, 12])
    def test_matches_per_call_lu(self, n):
        v = varying_vessel(n)
        every = range(v.grid.n_nodes)
        for nodes in (None, [5, 0, 17, 5], [9]):
            want = lu_reference(v, self.lams, every if nodes is None else nodes)
            assert same_bits(vk.transfer_sweep(v, self.lams, nodes), want)
        for k, lam in enumerate(self.lams):
            assert same_bits(vk.transfer_at_nodes(v, lam), lu_reference(v, [lam], every)[0])
            assert same_bits(vk.eval_transfer(v, lam, 13), lu_reference(v, [lam], [13])[0, 0])

    def test_vessel_decoded_from_a_shorthand_document(self):
        """A document writes its constant families as one matrix; the decoded
        vessel's transfer is still the per-call one, bit for bit."""
        v, _ = skew_chain_vessel(vk.TimeGrid(0.0, 1.0, 24), seed=3, n_points=3)
        doc = json.loads(cli.dump_json(cli.vessel_to_document(v)))
        assert np.ndim(doc["sigma1"]) == 3 and np.ndim(doc["gamma"]) == 3  # one matrix each
        w = cli.vessel_from_document(doc)
        assert same_bits(vk.transfer_sweep(w, self.lams),
                         lu_reference(w, self.lams, range(w.grid.n_nodes)))
        assert same_bits(vk.transfer_sweep(w, self.lams, [24, 3]),
                         lu_reference(w, self.lams, [24, 3]))

    def test_operands_are_made_once_per_vessel(self, monkeypatch):
        calls = []
        guard = core._spectral_guard
        monkeypatch.setattr(core, "_spectral_guard", lambda a: calls.append(len(a)) or guard(a))
        v = varying_vessel(3)
        for lam in self.lams:
            vk.transfer_at_nodes(v, lam)
            vk.eval_transfer(v, lam, 4)
        vk.transfer_sweep(v, self.lams, [1, 2])
        assert calls == [v.grid.n_nodes]

    def test_full_sweep_solves_against_a1_itself(self, monkeypatch):
        """No copy of A1 is made when every node is swept; a node subset is indexed."""
        seen = []
        solve = core._shifted_solve
        monkeypatch.setattr(core, "_shifted_solve", lambda a, *rest: seen.append(a) or solve(a, *rest))
        v = varying_vessel(3)
        vk.transfer_at_nodes(v, 1.0 + 1.0j)
        vk.eval_transfer(v, 1.0 + 1.0j, 6)
        assert seen[0] is v.A1.data
        assert same_bits(seen[1], v.A1.data[[6]])

    def test_two_vessels_never_share_operands(self):
        v = varying_vessel(3, seed=1)
        w = dataclasses.replace(v, A1=_family(v.grid, v.A1.data[::-1]),
                                B=_family(v.grid, 2.0 * v.B.data))
        lam = 0.8 + 1.7j
        for first, second in ((v, w), (w, v)):
            for u in (first, second, dataclasses.replace(first)):
                assert same_bits(vk.transfer_at_nodes(u, lam),
                                 lu_reference(u, [lam], range(u.grid.n_nodes))[0])
        assert v._transfer_operands is not dataclasses.replace(v)._transfer_operands

    def test_kept_guard_scale_is_the_per_call_one(self):
        """A lam just inside the clash threshold of node 8 clashes there, with the
        message of a shifted solve whose operands are made in the call."""
        v = varying_vessel(3)
        a = v.A1.data[[8]]
        eps = 1e-9 * max(frob(a[0]), 1.0)
        lam = complex(np.linalg.eigvals(a[0])[1]) + 0.5 * eps
        with pytest.raises(SpectrumClash) as want:
            shifted_solve(a, lam, v.B.data[[8]] @ v.sigma1.data[[8]], np.linalg.eigvals(a), [8])
        for call in (lambda: vk.transfer_sweep(v, [lam], [8]), lambda: vk.eval_transfer(v, lam, 8),
                     lambda: vk.transfer_at_nodes(v, lam)):
            with pytest.raises(SpectrumClash) as got:
                call()
            assert str(got.value) == str(want.value)

    @pytest.mark.parametrize("lam, node, message", [
        ([1.0 + 1.0j, 2.0], 0, r"^one lambda expected, got shape \(2,\)$"),
        (1.0 + 1.0j, [2, 3], "^eval_transfer takes one node"),
        ([], 0, r"^one lambda expected, got shape \(0,\)$"),
        (1.0, [], "^eval_transfer takes one node")])
    def test_eval_transfer_takes_one_lambda_and_one_node(self, lam, node, message):
        v = varying_vessel(2)
        with pytest.raises(ShapeMismatch, match=message):
            vk.eval_transfer(v, lam, node)

    @pytest.mark.parametrize("lam", [[1.0 + 1.0j, 2.0], []])
    def test_transfer_at_nodes_takes_one_lambda(self, lam):
        v = varying_vessel(2)
        with pytest.raises(ShapeMismatch, match="^one lambda expected, got shape"):
            vk.transfer_at_nodes(v, lam)


def chain_vessel(n, n_steps=16, seed=21):
    """Discrete vessel of n elementary factors (sigma2 = 0, skew gamma): every
    condition holds, so its null-pole triple and an elementary factor extract."""
    grid = vk.TimeGrid(0.0, 1.0, n_steps)
    rng = np.random.default_rng(seed)
    ims = np.linspace(-1.5, 1.5, n) + 0.05 * rng.normal(size=n)
    data = [colligation_datum(rand_complex(rng, 2), im, SIGMA1_INDEFINITE) for im in ims]
    zero = const(np.zeros((2, 2)), grid)
    return vk.build_discrete(data, const(rand_skew(rng, 2, 0.5), grid),
                             const(SIGMA1_INDEFINITE, grid), zero, grid)


class TestOneLambdaLoop:
    """Every lambda-stacked form is, bit for bit, its per-lambda loop at n = 1,
    2 and 12, and a clash at one lambda raises the loop's SpectrumClash."""

    lams = (1.5 + 0.5j, -0.3 + 2.0j, 4.0, 0.2 - 3.1j)

    @pytest.fixture(scope="class", params=[1, 2, 12])
    def forms(self, request):
        n = request.param
        v = chain_vessel(n)
        rng = np.random.default_rng(n)
        a1, c = observable_stable_pair(rng, n, 2)
        t = v.grid.nodes()[:, None, None]
        c = _family(v.grid, c + 0.3 * t * rand_complex(rng, (1, 2, n)))
        triple = vk.extract_null_pole(v)
        return {
            "v": v, "a1": a1, "triple": triple,
            "zero_pole": vk.zero_pole_realize(triple, v.gamma_star, v.sigma1, v.sigma2),
            "hermitian": vk.hermitian_realize(c, a1, const(np.diag([1.0, 2.0]), v.grid)),
            "extraction": vk.extract_elementary(v, 0),
        }

    @staticmethod
    def transfer(forms, form):
        if form == "quotient":
            return forms["extraction"].quotient_transfer
        return forms[form].transfer

    @pytest.mark.parametrize("form", ["zero_pole", "hermitian", "quotient"])
    @pytest.mark.parametrize("nodes", [7, [5, 0, 5], None], ids=["one", "some", "every"])
    def test_transfer_callbacks(self, forms, form, nodes):
        nodes = np.arange(forms["v"].grid.n_nodes) if nodes is None else nodes
        fn = self.transfer(forms, form)
        assert assert_stacked_equals_loop(lambda lam: fn(lam, nodes), self.lams) is None
        assert fn(self.lams[0], nodes).shape == np.shape(nodes) + (2, 2)
        grid_of_lams = np.reshape(self.lams, (2, 2))
        assert same_bits(fn(grid_of_lams, nodes), fn(self.lams, nodes).reshape(
            (2, 2) + np.shape(nodes) + (2, 2)))

    def test_quotient_keeps_its_per_call_bits(self, forms):
        v, ex = forms["v"], forms["extraction"]
        for lam in self.lams:
            s_full, s_fac = vk.eval_transfer(v, lam, 7), vk.eval_transfer(ex.factor, lam, 7)
            want = np.linalg.solve(s_fac.conj().T, s_full.conj().T).conj().T
            assert same_bits(ex.quotient_transfer(lam, 7), want)

    @pytest.mark.parametrize("form", ["zero_pole", "hermitian", "quotient"])
    def test_clash_at_one_lambda(self, forms, form):
        pole = {"zero_pole": lambda: np.linalg.eigvals(forms["triple"].A_pi)[0],
                "hermitian": lambda: np.linalg.eigvals(-forms["a1"])[0],
                "quotient": lambda: np.linalg.eigvals(forms["v"].A1[3])[-1]}[form]()
        fn = self.transfer(forms, form)
        err = assert_stacked_equals_loop(lambda lam: fn(lam, [7, 3]),
                                         (1.5 + 0.5j, complex(pole), 4.0))
        assert isinstance(err, SpectrumClash)

    def test_pde_residual(self, forms):
        """One stacked residual is the max of the per-lambda residuals: on the
        vessel's and the realization's transfers (constant sigmas, one solve of
        node 0 per lambda) and on a vessel whose sigma1 moves."""
        v, real = forms["v"], forms["zero_pole"]
        every = np.arange(v.grid.n_nodes)
        moving = varying_vessel(forms["a1"].shape[0])
        for u in (v, moving):
            assert_stacked_equals_loop(lambda lam, u=u: vk.transfer_pde_residual_values(
                vk.transfer_sweep(u, lam).reshape(np.shape(lam) + (-1, 2, 2)), u.sigma1,
                u.sigma2, u.gamma, u.gamma_star, lam, u.grid), self.lams, combine=max)
        assert_stacked_equals_loop(lambda lam: vk.transfer_pde_residual_values(
            real.transfer(lam, every), v.sigma1, v.sigma2, real.gamma, v.gamma_star, lam,
            v.grid), self.lams, combine=max)

    def test_residue_norm(self, forms):
        """The 16 contour points in one call, against the per-point sum."""
        ex = forms["extraction"]
        z0, radius = ex.eigenvalue, 1e-8 ** 0.25 * 1e-1
        q = lambda lam: ex.quotient_transfer(lam, 7)  # noqa: E731
        points = (z0 + radius * np.exp(2j * np.pi * k / 16) for k in range(16))
        want = frob(sum(q(lam) * (lam - z0) for lam in points) / 16)
        assert vk.residue_norm(q, z0, radius) == want
