import numpy as np
import pytest

import vesselkit as vk
from vesselkit.errors import ChainMismatch, NotMinimal, SpectrumClash
from vesselkit.matrix_kernel import frob, max_frob

from helpers import (
    SIGMA1_INDEFINITE,
    colligation_datum,
    const,
    constant_sigma2_vessel,
    rand_complex,
    rand_hermitian,
    rand_skew,
    random_vessel,
    skew_chain_vessel,
)


@pytest.fixture(scope="module")
def chain_vessel():
    grid = vk.TimeGrid(0.0, 1.0, 200)
    v, data = skew_chain_vessel(grid, seed=5, n_points=2)
    return v, data


@pytest.fixture(scope="module")
def trivial_vessel():
    grid = vk.TimeGrid(0.0, 1.0, 20)
    m = 2
    z = np.zeros((m, m))
    return vk.DifferentialVessel(
        A1=const([[-0.5, 0.0], [0.1, -0.8]], grid),
        A2=const(np.zeros((2, 2)), grid),
        B=const(np.zeros((2, m)), grid),
        sigma1=const(np.eye(m), grid),
        sigma2=const(z, grid),
        gamma=const(z, grid),
        gamma_star=const(z, grid),
    )


class TestEvalTransfer:
    def test_zero_b_gives_identity(self, trivial_vessel):
        s = vk.eval_transfer(trivial_vessel, 1.7 - 0.4j, 3)
        assert np.allclose(s, np.eye(2))

    def test_blaschke_closed_form(self):
        grid = vk.TimeGrid(0.0, 1.0, 40)
        b = np.array([1.2])
        z = complex(-abs(b[0]) ** 2 / 2.0, 0.4)
        v = vk.build_elementary(
            vk.SpectralDatum(z=z, b0=b),
            const(np.zeros((1, 1)), grid),
            const(np.eye(1), grid),
            const(np.zeros((1, 1)), grid),
            grid,
        )
        for lam in (1.3 + 0.2j, -0.2 + 1.1j, 3.0):
            s = vk.eval_transfer(v, lam, 17)[0, 0]
            assert s == pytest.approx((lam + np.conj(z)) / (lam - z), abs=1e-12)

    def test_identity_at_large_lambda(self, chain_vessel):
        v, _ = chain_vessel
        lam = 1e6 * v.A1.max_norm()
        assert frob(vk.eval_transfer(v, lam, 50) - np.eye(2)) < 1e-5

    def test_identity_envelope_bound(self, chain_vessel):
        # ||S - I|| <= ||B||^2 ||sigma1|| / (|lam| - ||A1||) beyond 2 ||A1||.
        v, _ = chain_vessel
        node = 50
        a_norm = frob(v.A1[node])
        envelope_scale = frob(v.B[node]) ** 2 * frob(v.sigma1[node])
        for factor in (2.5, 5.0, 20.0, 100.0):
            lam = factor * a_norm
            defect = frob(vk.eval_transfer(v, lam, node) - np.eye(2))
            assert defect <= envelope_scale / (abs(lam) - a_norm)

    def test_spectrum_clash(self, chain_vessel):
        v, data = chain_vessel
        with pytest.raises(SpectrumClash):
            vk.eval_transfer(v, data[0].z, 0)


class TestVerifyVessel:
    def test_constant_colligation_exact(self, trivial_vessel):
        # B = 0 with constant operators: every derivative vanishes and all
        # conditions reduce to the colligations of A1, A2.
        grid = trivial_vessel.grid
        rng = np.random.default_rng(7)
        b = rand_complex(rng, (2, 2), 0.7)
        a1 = -0.5 * b @ np.eye(2) @ b.conj().T + rand_skew(rng, 2)
        v = vk.DifferentialVessel(
            A1=const(a1, grid),
            A2=const(np.zeros((2, 2)), grid),
            B=const(b, grid),
            sigma1=const(np.eye(2), grid),
            sigma2=const(np.zeros((2, 2)), grid),
            gamma=const(np.zeros((2, 2)), grid),
            gamma_star=const(np.zeros((2, 2)), grid),
        )
        rep = vk.verify_vessel(v, tol=1e-12)
        assert rep.residuals["colligation1"] < 1e-12
        assert rep.residuals["lax"] < 1e-12
        assert rep.residuals["linkage"] < 1e-12
        assert rep.all_passed

    def test_chain_vessel_passes(self, chain_vessel):
        v, _ = chain_vessel
        rep = vk.verify_vessel(v, tol=1e-8)
        assert rep.all_passed
        assert rep.residuals["linkage"] < 1e-12
        # derivative conditions only carry the O(h^2) stencil error
        assert rep.residuals["input_vessel"] < 100.0 * v.grid.h ** 2

    def test_constant_sigma2_vessel_passes(self):
        v = constant_sigma2_vessel(vk.TimeGrid(0.0, 1.0, 50))
        rep = vk.verify_vessel(v, tol=1e-10)
        assert rep.all_passed
        assert max(rep.residuals.values()) < 1e-12

    def test_perturbation_detected(self):
        # sigma2 != 0 so the linkage condition actually sees B.
        v = constant_sigma2_vessel(vk.TimeGrid(0.0, 1.0, 50))
        b_data = v.B.data.copy()
        b_data[7, 0, 0] += 1e-3
        broken = vk.DifferentialVessel(
            A1=v.A1, A2=v.A2, B=vk.GridOperatorFamily(v.grid, b_data),
            sigma1=v.sigma1, sigma2=v.sigma2, gamma=v.gamma, gamma_star=v.gamma_star,
        )
        rep = vk.verify_vessel(broken, tol=1e-8)
        assert rep.residuals["linkage"] >= 1e-4
        assert not rep.passed["linkage"]

    def test_never_raises_on_garbage(self):
        grid = vk.TimeGrid(0.0, 1.0, 4)
        rng = np.random.default_rng(8)
        v = random_vessel(3, 2, grid, const(np.eye(2), grid), const(np.eye(2), grid),
                          const(rand_skew(rng, 2), grid), seed=8)
        rep = vk.verify_vessel(v)
        assert all(np.isfinite(x) for x in rep.residuals.values())
        assert not rep.all_passed

    def test_checks_carry_their_bounds(self, chain_vessel):
        """Derivative-bearing conditions are judged at tol plus the O(h^2)
        allowance, the algebraic ones at tol; the dict views follow the checks."""
        v, _ = chain_vessel
        rep = vk.verify_vessel(v, tol=1e-8)
        stencil = 1e-8 + rep.h2_allowance
        assert [(c.name, c.bound) for c in rep.checks] == [
            ("lax", stencil), ("colligation1", 1e-8), ("colligation2", 1e-8),
            ("input_vessel", stencil), ("output_vessel", stencil), ("linkage", 1e-8)]
        assert rep.residuals == {c.name: c.value for c in rep.checks}
        assert rep.passed == {c.name: c.value <= c.bound for c in rep.checks}


class TestCheck:
    @pytest.mark.parametrize("value, bound, passed", [
        (1.0, 1.0, True), (0.0, 0.0, True), (1.0, 0.5, False),
        (np.nan, 1.0, False), (np.inf, 1.0, False),
        (1.0, np.inf, False), (1.0, np.nan, False),  # an overflowed bound fails
    ])
    def test_passed_is_value_at_most_a_finite_bound(self, value, bound, passed):
        assert vk.Check("c", value, bound).passed is passed


class TestCouple:
    def test_trivial_second_factor(self, chain_vessel, trivial_vessel):
        v, _ = chain_vessel
        grid = v.grid
        z = np.zeros((2, 2))
        trivial = vk.DifferentialVessel(
            A1=const([[-0.5, 0.0], [0.1, -0.8]], grid),
            A2=const(z, grid),
            B=const(np.zeros((2, 2)), grid),
            sigma1=v.sigma1, sigma2=v.sigma2,
            gamma=v.gamma_star, gamma_star=v.gamma_star,
        )
        coupled = vk.couple(v, trivial)
        for lam in (1.5 + 0.4j, 2.0 - 1.0j):
            for node in (0, 100, 200):
                assert frob(vk.eval_transfer(coupled, lam, node)
                            - vk.eval_transfer(v, lam, node)) < 1e-12

    def test_identical_scalar_factors_square(self):
        grid = vk.TimeGrid(0.0, 1.0, 30)
        one = const(np.eye(1), grid)
        zero = const(np.zeros((1, 1)), grid)
        b = np.array([0.9])
        z = complex(-abs(b[0]) ** 2 / 2.0, 0.0)
        f1 = vk.build_elementary(vk.SpectralDatum(z=z, b0=b), zero, one, zero, grid)
        f2 = vk.build_elementary(vk.SpectralDatum(z=z, b0=b), f1.gamma_star, one, zero, grid)
        coupled = vk.couple(f1, f2)
        lam = 1.1 + 0.3j
        blaschke = (lam + np.conj(z)) / (lam - z)
        assert vk.eval_transfer(coupled, lam, 11)[0, 0] == pytest.approx(blaschke ** 2, abs=1e-12)

    def test_multiplicativity_random_pairs(self):
        # Exact block-resolvent algebra: no grid dependence at all.
        grid = vk.TimeGrid(0.0, 1.0, 8)
        rng = np.random.default_rng(9)
        m = 2
        s1 = const(np.diag([1.0, -1.0]) + 0.2 * np.eye(2), grid)
        s2 = const(np.array([[0.4, 0.1], [0.1, -0.2]]), grid)
        for trial in range(5):
            gam = const(rand_skew(rng, m), grid)
            va = random_vessel(3, m, grid, s1, s2, gam, seed=100 + trial)
            vb = random_vessel(2, m, grid, s1, s2, va.gamma_star, seed=200 + trial)
            coupled = vk.couple(va, vb)
            for _ in range(4):
                lam = complex(rng.uniform(2.0, 4.0), rng.uniform(-2, 2))
                node = int(rng.integers(0, grid.n_nodes))
                lhs = vk.eval_transfer(coupled, lam, node)
                rhs = vk.eval_transfer(vb, lam, node) @ vk.eval_transfer(va, lam, node)
                assert frob(lhs - rhs) < 1e-11

    @pytest.mark.parametrize("n1, n2", [(3, 2), (1, 3)])
    def test_block_assembly_matches_two_block_reference(self, n1, n2):
        """The transfer function cannot see A2 or a misplaced block, so the
        operators are compared with the former two-block assembly directly:
        the same lower blocks to 8 u m ||B||^2 ||sigma|| per entry, and the
        factors' blocks, a zero upper block and B bit for bit."""
        grid = vk.TimeGrid(0.0, 1.0, 12)
        rng = np.random.default_rng(40 + n1)
        m = 2
        t = grid.nodes()[:, None, None]
        s1 = const(np.diag([1.0, -1.0]) + 0.2 * np.eye(2), grid)
        s2 = vk.GridOperatorFamily(grid, rand_hermitian(rng, m)[None] + t * rand_hermitian(rng, m))
        va = random_vessel(n1, m, grid, s1, s2, const(rand_skew(rng, m), grid), seed=300 + n1)
        vb = random_vessel(n2, m, grid, s1, s2, va.gamma_star, seed=400 + n2)
        coupled = vk.couple(va, vb)
        b = coupled.B.data
        assert b.tobytes() == np.concatenate([va.B.data, vb.B.data], axis=1).tobytes()
        u = np.finfo(float).eps / 2
        for name, sigma in (("A1", s1), ("A2", s2)):
            got = getattr(coupled, name).data
            ref = np.zeros_like(got)
            ref[:, :n1, :n1] = getattr(va, name).data
            ref[:, n1:, n1:] = getattr(vb, name).data
            ref[:, n1:, :n1] = -vb.B.data @ sigma.data @ va.B.data.conj().transpose(0, 2, 1)
            bound = 8 * u * m * max_frob(b) ** 2 * sigma.max_norm()
            assert np.max(np.abs(got - ref)) <= bound < 1e-6 * np.max(np.abs(ref[:, n1:, :n1]))
            assert not np.any(got[:, :n1, n1:])
            assert got[:, :n1, :n1].tobytes() == getattr(va, name).data.tobytes()
            assert got[:, n1:, n1:].tobytes() == getattr(vb, name).data.tobytes()
        assert coupled.gamma is va.gamma and coupled.gamma_star is vb.gamma_star
        assert coupled.sigma1 is va.sigma1 and coupled.sigma2 is va.sigma2

    def test_chain_mismatch(self, chain_vessel):
        v, _ = chain_vessel
        grid = v.grid
        rng = np.random.default_rng(10)
        other = random_vessel(2, 2, grid, v.sigma1, v.sigma2,
                              const(rand_skew(rng, 2), grid), seed=11)
        with pytest.raises(ChainMismatch):
            vk.couple(v, other)


class TestAdjointSymmetry:
    def test_colligation_exact_any_lambda(self, chain_vessel):
        v, _ = chain_vessel
        rng = np.random.default_rng(11)
        for _ in range(6):
            lam = complex(rng.uniform(-3, 3), rng.uniform(-3, 3))
            node = int(rng.integers(0, v.grid.n_nodes))
            try:
                r = vk.adjoint_symmetry_residual(v, lam, node)
            except SpectrumClash:
                continue
            assert r < 1e-11

    def test_imaginary_axis_j_unitarity(self, chain_vessel):
        v, _ = chain_vessel
        lam = 0.9j
        s = vk.eval_transfer(v, lam, 60)
        s1 = v.sigma1[60]
        assert frob(s.conj().T @ s1 @ s - s1) < 1e-11

    def test_zero_b_exact(self, trivial_vessel):
        assert vk.adjoint_symmetry_residual(trivial_vessel, 1.1 + 0.1j, 2) < 1e-15


class TestExpansivity:
    def test_axis_defect_vanishes(self, chain_vessel):
        v, _ = chain_vessel
        d = vk.expansivity_check(v, 1.3j, 40)
        assert frob(d) < 1e-11

    def test_right_half_plane_contractive(self, chain_vessel):
        # Under the first colligation the defect equals -2 Re(lam) times a
        # PSD Gram factor: nonpositive for Re lam > 0, nonnegative for < 0.
        v, _ = chain_vessel
        d = vk.expansivity_check(v, 1.0 + 0.2j, 40)
        assert np.max(np.linalg.eigvalsh(d)) <= 1e-10
        d_left = vk.expansivity_check(v, -1.0 + 0.2j, 40)
        assert np.min(np.linalg.eigvalsh(d_left)) >= -1e-10

    def test_factor_form_cross_check(self, chain_vessel):
        v, _ = chain_vessel
        lam = 0.8 - 0.6j
        d = vk.expansivity_check(v, lam, 25)
        ff = vk.expansivity_factor_form(v, lam, 25)
        assert frob(d - ff) < 1e-10 * max(1.0, frob(d))

    def test_decay_at_large_real_lambda(self, chain_vessel):
        v, _ = chain_vessel
        norms = [frob(vk.expansivity_check(v, lam, 10)) for lam in (1e2, 1e3)]
        assert norms[1] < norms[0] / 5.0


class TestTransferPde:
    def test_constant_vessel_zero(self, trivial_vessel):
        assert vk.transfer_pde_residual(trivial_vessel, 1.5 + 0.2j) < 1e-12

    def test_chain_vessel_o_h2(self, chain_vessel):
        v, _ = chain_vessel
        assert vk.transfer_pde_residual(v, 1.4 + 0.8j) < 100.0 * v.grid.h ** 2

    def test_intertwining(self, chain_vessel):
        v, _ = chain_vessel
        lam = 1.9 - 0.5j
        svals = vk.transfer_at_nodes(v, lam)
        phi = vk.input_fundamental(v, lam)
        phi_star = vk.output_fundamental(v, lam)
        assert vk.intertwining_residual(svals, phi, phi_star) < 1e-5


class TestSimulate:
    def test_zero_input(self, chain_vessel):
        v, _ = chain_vessel
        traj = vk.simulate(v, 1.0 + 0.5j, np.zeros(2))
        assert frob(traj.x.data[50]) == 0.0
        assert frob(traj.y.data[50]) == 0.0
        assert np.max(np.abs(traj.energy_defect_t1)) == 0.0

    def test_t1_energy_balance_algebraic(self, chain_vessel):
        v, _ = chain_vessel
        traj = vk.simulate(v, 1.2 + 0.7j, np.array([1.0, -0.5 + 0.2j]))
        assert np.max(np.abs(traj.energy_defect_t1)) < 1e-11

    def test_t2_balance_second_order(self):
        lam = 0.9 + 0.4j
        u0 = np.array([1.0, 0.3 - 0.7j])
        defects = []
        for n_steps in (200, 400):
            v = constant_sigma2_vessel(vk.TimeGrid(0.0, 1.0, n_steps))
            defects.append(vk.simulate(v, lam, u0).energy_defect_t2)
        assert defects[0] < 100.0 * (1.0 / 200) ** 2
        assert 3.0 <= defects[0] / defects[1] <= 5.5

    def test_axis_unimodular_output(self):
        # Scalar factor with Re lam = 0: |y| = |u| at every node.
        grid = vk.TimeGrid(0.0, 1.0, 60)
        one = const(np.eye(1), grid)
        zero = const(np.zeros((1, 1)), grid)
        b = np.array([1.1])
        z = complex(-abs(b[0]) ** 2 / 2.0, 0.7)
        v = vk.build_elementary(vk.SpectralDatum(z=z, b0=b), zero, one, zero, grid)
        traj = vk.simulate(v, 0.8j, np.array([1.0]))
        mags = np.abs(traj.y.data[:, 0, 0]) - np.abs(traj.u.data[:, 0, 0])
        assert np.max(np.abs(mags)) < 1e-10


class TestGauge:
    def test_identity_map_fixes_vessel(self, chain_vessel):
        v, _ = chain_vessel
        gmap = vk.GaugeMap.identity(v.state_dim, v.grid)
        vg = vk.gauge_transform(v, gmap)
        assert np.allclose(vg.A1.data, v.A1.data)
        assert np.allclose(vg.A2.data, v.A2.data)
        assert np.allclose(vg.B.data, v.B.data)

    def test_scalar_phase_leaves_transfer(self, chain_vessel):
        v, _ = chain_vessel
        grid = v.grid
        n = v.state_dim
        u_fam = vk.GridOperatorFamily.from_callable(
            lambda t: np.exp(1j * (0.3 + 0.8 * t)) * np.eye(n), grid
        )
        vg = vk.gauge_transform(v, vk.GaugeMap.from_family(u_fam))
        for lam in (1.6 + 0.4j, -2.0 + 0.9j):
            for node in (0, 77, 200):
                assert frob(vk.eval_transfer(vg, lam, node)
                            - vk.eval_transfer(v, lam, node)) < 1e-10

    def test_constant_unitary_preserves_residuals(self, chain_vessel):
        v, _ = chain_vessel
        rng = np.random.default_rng(13)
        q, _ = np.linalg.qr(rand_complex(rng, (v.state_dim, v.state_dim)))
        vg = vk.gauge_transform(v, vk.GaugeMap.from_family(const(q, v.grid)))
        r0 = vk.verify_vessel(v).residuals
        r1 = vk.verify_vessel(vg).residuals
        for key in r0:
            assert r1[key] <= 2.0 * r0[key] + 1e-12

    def test_equivalence_round_trip(self, chain_vessel):
        v, _ = chain_vessel
        rng = np.random.default_rng(14)
        q, _ = np.linalg.qr(rand_complex(rng, (v.state_dim, v.state_dim)))
        vg = vk.gauge_transform(v, vk.GaugeMap.from_family(const(q, v.grid)))
        verdict = vk.gauge_equivalence(v, vg, node=0)
        assert isinstance(verdict, vk.GaugeMap)
        defect = max(
            frob(verdict.U[i] @ v.A1[i] @ verdict.U[i].conj().T - vg.A1[i])
            for i in (0, 50, 150, 200)
        )
        assert defect < 1e-8

    def test_self_equivalence_is_identity(self, chain_vessel):
        v, _ = chain_vessel
        verdict = vk.gauge_equivalence(v, v, node=0)
        assert isinstance(verdict, vk.GaugeMap)
        assert frob(verdict.U[0] - np.eye(v.state_dim)) < 1e-10

    def test_perturbed_not_equivalent(self, chain_vessel):
        v, _ = chain_vessel
        b_data = v.B.data.copy()
        b_data[:, 0, 0] += 0.05
        vbad = vk.DifferentialVessel(
            A1=v.A1, A2=v.A2, B=vk.GridOperatorFamily(v.grid, b_data),
            sigma1=v.sigma1, sigma2=v.sigma2, gamma=v.gamma, gamma_star=v.gamma_star,
        )
        assert isinstance(vk.gauge_equivalence(v, vbad, node=0), vk.NotEquivalent)

    def test_probe_clash_skips_one_node_only(self, monkeypatch):
        """The one probe lambda clashes with the spectrum at node 0 only, and v2
        differs from v1 at node N only: the probe is skipped at node 0 and
        still compares node N (skipping the whole lambda would see nothing)."""
        grid = vk.TimeGrid(0.0, 1.0, 10)
        rng = np.random.default_rng(31)
        n, m = 3, 2
        t = grid.nodes()[:, None, None]
        a1 = rand_complex(rng, (1, n, n)) + t * rand_complex(rng, (1, n, n))
        b = rand_complex(rng, (1, n, m)) + t * rand_complex(rng, (1, n, m))
        b2 = b.copy()
        b2[-1] *= 2.0
        zero = const(np.zeros((m, m)), grid)
        v1, v2 = (vk.DifferentialVessel(
            A1=vk.GridOperatorFamily(grid, a1), A2=const(np.zeros((n, n)), grid),
            B=vk.GridOperatorFamily(grid, bb), sigma1=const(SIGMA1_INDEFINITE, grid),
            sigma2=zero, gamma=zero, gamma_star=zero) for bb in (b, b2))
        z = complex(np.linalg.eigvals(a1[0])[0])
        scale = max(v1.A1.max_norm(), 1.0)
        draws = iter([0.25, z.real / scale, z.imag / scale])  # sign +1, then lam = z

        class Draws:
            def uniform(self, low=0.0, high=1.0):
                return next(draws)

        monkeypatch.setattr(np.random, "default_rng", lambda seed: Draws())
        verdict = vk.gauge_equivalence(v1, v2, node=0, probes=1)
        lam = complex(z.real / scale * scale, z.imag / scale * scale)
        with pytest.raises(SpectrumClash, match="at node 0 "):
            vk.eval_transfer(v1, lam, 0)
        assert frob(vk.eval_transfer(v1, lam, 10) - vk.eval_transfer(v2, lam, 10)) > 1e-3
        assert isinstance(verdict, vk.NotEquivalent)
        assert verdict.reason == "transfer functions disagree at probes"

    def test_not_minimal(self, trivial_vessel):
        with pytest.raises(NotMinimal) as info:
            vk.gauge_equivalence(trivial_vessel, trivial_vessel, node=0)
        assert info.value.rank == 0


class TestMinimality:
    def test_rank_node_independent_for_synthesized(self, chain_vessel):
        v, _ = chain_vessel
        r0 = vk.krylov_rank(v.A1[0], v.B[0])
        r_last = vk.krylov_rank(v.A1[v.grid.n_steps], v.B[v.grid.n_steps])
        assert r0 == r_last == v.state_dim
