import numpy as np
import pytest

import vesselkit as vk
from vesselkit.errors import (
    CouplingSingular,
    InconsistentInitialData,
    NotMinimal,
    NotPositiveDefinite,
    SpectrumClash,
)
from vesselkit.matrix_kernel import frob

from helpers import (
    SIGMA1_INDEFINITE,
    const,
    consistent_triple_data,
    observable_stable_pair,
    rand_complex,
    skew_chain_vessel,
)


class TestEvolveCoupling:
    def test_sigma2_zero_keeps_x_constant(self):
        grid, s1, _, gs, a_pi, a_xi, c, bn, x0 = consistent_triple_data(50, scale=0.0)
        s2 = const(np.zeros((2, 2)), grid)
        x = vk.evolve_coupling(c, a_pi, a_xi, bn, x0, s1, s2, gs, grid)
        assert np.max(np.abs(x.data - x0)) < 1e-12

    def test_scalar_quadrature_closed_form(self):
        grid = vk.TimeGrid(0.0, 1.0, 64)
        one = const(np.eye(1), grid)
        s2 = const(0.5 * np.eye(1), grid)
        gs = const(np.zeros((1, 1)), grid)
        a_pi = np.array([[0.3 + 0.2j]])
        a_xi = np.array([[-0.7 + 0.9j]])
        c0 = np.array([[1.2]])
        bn0 = np.array([[0.8]])
        c = vk.evolve_pole_pair(c0, a_pi, gs, one, s2, grid)
        bn = vk.evolve_null_pair(bn0, a_xi, gs, one, s2, grid)
        x0 = vk.solve_sylvester(a_pi, a_xi, bn0 @ c0)
        x = vk.evolve_coupling(c, a_pi, a_xi, bn, x0, one, s2, gs, grid)
        # scalar: C(t) = c0 exp(0.5 a_pi t), Bn(t) = bn0 exp(-0.5 a_xi t);
        # X(t) = x0 + 0.5 c0 bn0 (exp(0.5 (a_pi - a_xi) t) - 1)/(a_pi - a_xi) * ... ;
        # integrate the closed-form product directly instead.
        ap, ax = a_pi[0, 0], a_xi[0, 0]
        t = grid.node(64)
        integral = 0.5 * c0[0, 0] * bn0[0, 0] * (np.exp(0.5 * (ap - ax) * t) - 1.0) \
            / (0.5 * (ap - ax))
        assert abs(x[64][0, 0] - (x0[0, 0] + integral)) < 100.0 * grid.h ** 4

    def test_sylvester_conservation(self):
        grid, s1, s2, gs, a_pi, a_xi, c, bn, x0 = consistent_triple_data(400)
        x = vk.evolve_coupling(c, a_pi, a_xi, bn, x0, s1, s2, gs, grid)
        triple = vk.NullPoleTriple(C=c, A_pi=a_pi, A_xi=a_xi, Bn=bn, X=x)
        res = vk.sylvester_residuals(triple, s1)
        scale = (frob(a_pi) + frob(a_xi)) * max(1.0, x.max_norm()) \
            * max(1.0, c.max_norm() * bn.max_norm())
        assert res.max() <= res[0] + 100.0 * grid.h ** 4 * scale

    def test_inconsistent_x0_rejected(self):
        grid, s1, s2, gs, a_pi, a_xi, c, bn, x0 = consistent_triple_data(30)
        with pytest.raises(InconsistentInitialData):
            vk.evolve_coupling(c, a_pi, a_xi, bn, x0 + 0.5 * np.eye(3), s1, s2, gs, grid)

    def test_inconsistent_pair_rejected(self):
        grid, s1, s2, gs, a_pi, a_xi, c, bn, x0 = consistent_triple_data(30)
        bad_c = vk.GridOperatorFamily(grid, c.data * np.exp(0.5 * grid.nodes())[:, None, None])
        x0_bad = vk.solve_sylvester(a_pi, a_xi, bn[0] @ s1[0] @ bad_c[0])
        with pytest.raises(InconsistentInitialData):
            vk.evolve_coupling(bad_c, a_pi, a_xi, bn, x0_bad, s1, s2, gs, grid)

    @pytest.mark.filterwarnings("ignore:overflow encountered:RuntimeWarning")
    def test_overflowing_pair_rejected(self):
        """C times 1e160 from node 23 on: the pair-ODE residual and its bound
        both overflow to inf, which fails the check instead of passing it."""
        grid, s1, s2, gs, a_pi, a_xi, c, bn, x0 = consistent_triple_data(40)
        big_c = vk.GridOperatorFamily(grid, np.concatenate([c.data[:23], 1e160 * c.data[23:]]))
        with pytest.raises(InconsistentInitialData, match="ODE residual inf"):
            vk.evolve_coupling(big_c, a_pi, a_xi, bn, x0, s1, s2, gs, grid)

    @pytest.mark.filterwarnings("ignore:overflow encountered:RuntimeWarning")
    def test_overflowing_x0_rejected(self):
        grid, s1, s2, gs, a_pi, a_xi, c, bn, x0 = consistent_triple_data(40)
        with pytest.raises(InconsistentInitialData, match="residual inf"):
            vk.evolve_coupling(c, a_pi, a_xi, bn, 1e160 * x0, s1, s2, gs, grid)


class TestZeroPoleRealize:
    def test_constant_data_trivial_pde(self):
        grid = vk.TimeGrid(0.0, 1.0, 40)
        m, n = 2, 2
        rng = np.random.default_rng(0)
        s1 = const(SIGMA1_INDEFINITE, grid)
        s2 = const(np.zeros((m, m)), grid)
        gs = const(np.zeros((m, m)), grid)
        a_pi = np.diag([-0.4 + 0.3j, -0.9 - 0.2j])
        a_xi = np.diag([0.5 + 0.1j, 0.8 - 0.6j])
        c = const(rand_complex(rng, (m, n)), grid)
        bn = const(rand_complex(rng, (n, m)), grid)
        x = const(vk.solve_sylvester(a_pi, a_xi, bn[0] @ s1[0] @ c[0]), grid)
        real = vk.zero_pole_realize(vk.NullPoleTriple(C=c, A_pi=a_pi, A_xi=a_xi, Bn=bn, X=x),
                                    gs, s1, s2)
        lam = 1.7 + 0.8j
        svals = [real.transfer(lam, i) for i in range(grid.n_nodes)]
        assert all(frob(s - svals[0]) < 1e-13 for s in svals)
        assert vk.transfer_pde_residual_values(svals, s1, s2, real.gamma, gs, lam, grid) < 1e-12

    def test_scalar_blaschke_triple(self):
        grid = vk.TimeGrid(0.0, 1.0, 20)
        one = const(np.eye(1), grid)
        zero = const(np.zeros((1, 1)), grid)
        b = 1.1
        z = complex(-abs(b) ** 2 / 2.0, 0.4)
        c = const([[np.conj(b)]], grid)
        bn = const([[-b]], grid)
        x = const([[1.0]], grid)
        triple = vk.NullPoleTriple(C=c, A_pi=np.array([[z]]),
                                   A_xi=np.array([[-np.conj(z)]]), Bn=bn, X=x)
        real = vk.zero_pole_realize(triple, zero, one, zero)
        for lam in (0.9 + 0.3j, 2.5, -1.0 + 1.2j):
            got = real.transfer(lam, 10)[0, 0]
            assert got == pytest.approx((lam + np.conj(z)) / (lam - z), abs=1e-12)

    def test_evolved_data_pde_residual(self):
        grid, s1, s2, gs, a_pi, a_xi, c, bn, x0 = consistent_triple_data(400)
        x = vk.evolve_coupling(c, a_pi, a_xi, bn, x0, s1, s2, gs, grid)
        real = vk.zero_pole_realize(vk.NullPoleTriple(C=c, A_pi=a_pi, A_xi=a_xi, Bn=bn, X=x),
                                    gs, s1, s2)
        rng = np.random.default_rng(1)
        for _ in range(3):
            lam = complex(rng.uniform(1.4, 2.2), rng.uniform(-1.5, 1.5))
            svals = [real.transfer(lam, i) for i in range(grid.n_nodes)]
            assert vk.transfer_pde_residual_values(
                svals, s1, s2, real.gamma, gs, lam, grid) < 1e-5

    def test_singular_coupling_reported(self):
        grid = vk.TimeGrid(0.0, 1.0, 4)
        one = const(np.eye(1), grid)
        zero = const(np.zeros((1, 1)), grid)
        # X passes through zero at the middle node
        x = vk.GridOperatorFamily(grid, (grid.nodes() - 0.5)[:, None, None].astype(complex))
        triple = vk.NullPoleTriple(C=const([[1.0]], grid), A_pi=np.array([[-0.5]]),
                                   A_xi=np.array([[0.5]]), Bn=const([[1.0]], grid), X=x)
        real = vk.zero_pole_realize(triple, zero, one, zero)
        assert real.singular_nodes == (2,)
        real.transfer(1.5, 0)  # fine away from the singular node
        with pytest.raises(CouplingSingular) as info:
            real.transfer(1.5, 2)
        assert info.value.nodes == [2]


class TestExtractNullPole:
    def test_round_trip_reproduces_transfer(self):
        grid = vk.TimeGrid(0.0, 1.0, 100)
        v, _ = skew_chain_vessel(grid, seed=5, n_points=2)
        triple = vk.extract_null_pole(v, node_ref=0)
        real = vk.zero_pole_realize(triple, v.gamma_star, v.sigma1, v.sigma2)
        rng = np.random.default_rng(2)
        for _ in range(20):
            lam = complex(rng.uniform(1.2, 3.0), rng.uniform(-2, 2))
            node = int(rng.integers(0, grid.n_nodes))
            assert frob(real.transfer(lam, node) - vk.eval_transfer(v, lam, node)) < 1e-8

    def test_blaschke_null_pair_location(self):
        grid = vk.TimeGrid(0.0, 1.0, 20)
        v, data = skew_chain_vessel(grid, seed=5, n_points=1)
        triple = vk.extract_null_pole(v, node_ref=0)
        # pole at z, zero at -conj(z)
        assert np.linalg.eigvals(triple.A_pi)[0] == pytest.approx(data[0].z)
        assert np.linalg.eigvals(triple.A_xi)[0] == pytest.approx(-np.conj(data[0].z), abs=1e-12)

    def test_zero_b_not_minimal(self):
        grid = vk.TimeGrid(0.0, 1.0, 10)
        m = 2
        z = np.zeros((m, m))
        v = vk.DifferentialVessel(
            A1=const([[-0.5, 0.0], [0.0, -0.8]], grid), A2=const(z, grid),
            B=const(np.zeros((2, m)), grid),
            sigma1=const(np.eye(m), grid), sigma2=const(z, grid),
            gamma=const(z, grid), gamma_star=const(z, grid),
        )
        with pytest.raises(NotMinimal):
            vk.extract_null_pole(v)

    def test_sylvester_residual_reported_zero(self):
        grid = vk.TimeGrid(0.0, 1.0, 30)
        v, _ = skew_chain_vessel(grid, seed=5, n_points=2)
        triple = vk.extract_null_pole(v, node_ref=0)
        assert vk.sylvester_residuals(triple, v.sigma1).max() < 1e-12

    def test_similar_triples_same_transfer(self):
        # The transfer function, not the triple, is the invariant.
        grid = vk.TimeGrid(0.0, 1.0, 20)
        v, _ = skew_chain_vessel(grid, seed=5, n_points=2)
        triple = vk.extract_null_pole(v, node_ref=0)
        rng = np.random.default_rng(3)
        t = rand_complex(rng, (2, 2)) + 2.0 * np.eye(2)
        tinv = np.linalg.inv(t)
        sim = vk.NullPoleTriple(
            C=vk.GridOperatorFamily(grid, np.stack([triple.C[i] @ tinv for i in range(grid.n_nodes)])),
            A_pi=t @ triple.A_pi @ tinv,
            A_xi=triple.A_xi,
            Bn=triple.Bn,
            X=vk.GridOperatorFamily(grid, np.stack([triple.X[i] @ tinv for i in range(grid.n_nodes)])),
        )
        real_a = vk.zero_pole_realize(triple, v.gamma_star, v.sigma1, v.sigma2)
        real_b = vk.zero_pole_realize(sim, v.gamma_star, v.sigma1, v.sigma2)
        for lam in (1.5 + 0.4j, 2.2 - 0.9j):
            for node in (0, 10, 20):
                assert frob(real_a.transfer(lam, node) - real_b.transfer(lam, node)) < 1e-10

    def test_realized_vessel_passes_differential_conditions(self):
        grid = vk.TimeGrid(0.0, 1.0, 200)
        v, _ = skew_chain_vessel(grid, seed=5, n_points=2)
        triple = vk.extract_null_pole(v, node_ref=0)
        x = vk.evolve_coupling(triple.C, triple.A_pi, triple.A_xi, triple.Bn,
                               triple.X[0], v.sigma1, v.sigma2, v.gamma_star, grid)
        real = vk.zero_pole_realize(
            vk.NullPoleTriple(C=triple.C, A_pi=triple.A_pi, A_xi=triple.A_xi,
                              Bn=triple.Bn, X=x),
            v.gamma_star, v.sigma1, v.sigma2)
        rep = vk.verify_vessel(real.vessel, tol=1e-8)
        allowance = 100.0 * grid.h ** 2
        assert rep.residuals["input_vessel"] < allowance
        assert rep.residuals["output_vessel"] < allowance
        assert rep.residuals["linkage"] < 1e-10

    def test_extract_realize_extract_similar_spectra(self):
        grid = vk.TimeGrid(0.0, 1.0, 40)
        v, _ = skew_chain_vessel(grid, seed=5, n_points=2)
        t1 = vk.extract_null_pole(v, node_ref=0)
        real = vk.zero_pole_realize(t1, v.gamma_star, v.sigma1, v.sigma2)
        t2 = vk.extract_null_pole(real.vessel, node_ref=0)
        e1 = sorted(np.linalg.eigvals(t1.A_pi), key=lambda z: (z.real, z.imag))
        e2 = sorted(np.linalg.eigvals(t2.A_pi), key=lambda z: (z.real, z.imag))
        assert np.allclose(e1, e2, atol=1e-8)
        z1 = sorted(np.linalg.eigvals(t1.A_xi), key=lambda z: (z.real, z.imag))
        z2 = sorted(np.linalg.eigvals(t2.A_xi), key=lambda z: (z.real, z.imag))
        assert np.allclose(z1, z2, atol=1e-8)


class TestHermitianRealize:
    def test_scalar_closed_form(self):
        z = 0.6 + 0.3j  # transfer pole at z, so the state matrix is -z
        c_val = np.sqrt(2.0 * z.real) * np.exp(0.3j)
        grid = vk.TimeGrid(0.0, 1.0, 10)
        hr = vk.hermitian_realize(const([[c_val]], grid), np.array([[-z]]),
                                  const(np.eye(1), grid))
        assert hr.X[3][0, 0] == pytest.approx(abs(c_val) ** 2 / (2.0 * z.real))
        for lam in (1.4 + 0.7j, 2.0 - 0.3j):
            got = hr.transfer(lam, 3)[0, 0]
            assert got == pytest.approx((lam + np.conj(z)) / (lam - z), abs=1e-12)

    def test_zero_c_rejected(self):
        grid = vk.TimeGrid(0.0, 1.0, 5)
        with pytest.raises(NotMinimal):
            vk.hermitian_realize(const(np.zeros((2, 3)), grid), np.diag([-1.0, -2.0, -3.0]),
                                 const(np.eye(2), grid))

    def test_random_observable_symmetry_and_colligation(self):
        rng = np.random.default_rng(4)
        grid = vk.TimeGrid(0.0, 1.0, 8)
        n, m = 4, 2
        s1m = np.diag([1.0, 2.0])
        for trial in range(5):
            a1, cmat = observable_stable_pair(rng, n, m)
            hr = vk.hermitian_realize(const(cmat, grid), a1, const(s1m, grid))
            assert hr.min_eig_X > 0
            assert hr.colligation_residual < 1e-9
            s1inv = np.linalg.inv(s1m)
            for _ in range(3):
                lam = complex(rng.uniform(0.5, 2.0), rng.uniform(-2, 2))
                s = hr.transfer(lam, 3)
                s_ref = hr.transfer(-np.conj(lam), 3)
                assert frob(s @ s1inv @ s_ref.conj().T - s1inv) < 1e-10

    def test_tilde_realization_matches(self):
        rng = np.random.default_rng(5)
        grid = vk.TimeGrid(0.0, 1.0, 6)
        a1, cmat = observable_stable_pair(rng, 3, 2)
        s1m = np.eye(2)
        hr = vk.hermitian_realize(const(cmat, grid), a1, const(s1m, grid))
        lam = 1.2 + 0.8j
        node = 2
        ct = hr.C_tilde[node]
        at = hr.A1_tilde[node]
        tilde = np.eye(2) + ct @ np.linalg.inv(lam * np.eye(3) + at) @ ct.conj().T @ s1m
        assert frob(hr.transfer(lam, node) - tilde) < 1e-10

    def test_sqrt_consistency(self):
        rng = np.random.default_rng(6)
        grid = vk.TimeGrid(0.0, 1.0, 4)
        a1, cmat = observable_stable_pair(rng, 3, 2)
        hr = vk.hermitian_realize(const(cmat, grid), a1, const(np.eye(2), grid))
        for i in (0, 2, 4):
            assert frob(hr.Y[i] @ hr.Y[i] - hr.X[i]) < 1e-10 * max(1.0, frob(hr.X[i]))

    def test_indefinite_metric_can_fail_pd(self):
        rng = np.random.default_rng(7)
        grid = vk.TimeGrid(0.0, 1.0, 4)
        a1, cmat = observable_stable_pair(rng, 3, 2)
        with pytest.raises(NotPositiveDefinite):
            vk.hermitian_realize(const(cmat, grid), a1, const(SIGMA1_INDEFINITE, grid))

    def test_imaginary_axis_spectrum_rejected(self):
        grid = vk.TimeGrid(0.0, 1.0, 4)
        a1 = np.array([[1j]])  # spectra of A1 and -A1^H coincide
        with pytest.raises(SpectrumClash):
            vk.hermitian_realize(const([[1.0]], grid), a1, const(np.eye(1), grid))
