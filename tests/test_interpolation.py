import numpy as np
import pytest
import scipy.linalg

import vesselkit as vk
import vesselkit.interpolation as interp
from vesselkit.errors import (
    CouplingSingular,
    InconsistentInitialData,
    NotMinimal,
    NotPositiveDefinite,
    ShapeMismatch,
    SpectrumClash,
)
from vesselkit.matrix_kernel import frob

from helpers import (
    SIGMA1_INDEFINITE,
    const,
    consistent_triple_data,
    constant_sigma2_vessel,
    observable_stable_pair,
    perfbench_modules,
    rand_complex,
    rand_skew,
    skew_chain_vessel,
)


def forbid_sylvester(monkeypatch):
    """Make every solve_sylvester call of the interpolation module fail."""
    def forbidden(*_):
        raise AssertionError("solve_sylvester called")

    monkeypatch.setattr(interp, "solve_sylvester", forbidden)


def gauged_chain_vessel(grid):
    """skew_chain_vessel in the moving frame U(t) = exp(t K), K skew: sigma2 = 0
    but A2 = U' U^H != 0, and A1 = U A1 U^H moves along the grid."""
    v, _ = skew_chain_vessel(grid, seed=5, n_points=2)
    k = np.array([[0.0, 0.7 + 0.2j], [-0.7 + 0.2j, 0.3j]])
    u = np.stack([scipy.linalg.expm(t * k) for t in grid.nodes()])
    return vk.gauge_transform(v, vk.GaugeMap.from_family(vk.GridOperatorFamily(grid, u)))


def sweep_vessel(monkeypatch, tmp_path, n_steps=200):
    """lambda_sweep's vessel of rng_for(3005, 0) on `n_steps` steps: sigma2 =
    alpha sigma1, A2 = alpha A1 + K, and A1 moving along the grid."""
    inputs, workloads = perfbench_modules(monkeypatch)
    sweep = workloads.LambdaSweep()
    sweep.sizes = {"full": dict(sweep.sizes["full"], steps=n_steps)}
    return sweep.make(inputs.rng_for(3005, 0), "full", str(tmp_path))["v"]


def round_trip_miss(v, node_ref, nodes, lam=1.5 + 0.4j):
    """Largest miss of the realized null-pole transfer against the vessel's at `nodes`."""
    real = vk.zero_pole_realize(vk.extract_null_pole(v, node_ref=node_ref),
                                v.gamma_star, v.sigma1, v.sigma2)
    return max(frob(real.transfer(lam, i) - vk.eval_transfer(v, lam, i)) for i in nodes)


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

    @pytest.mark.parametrize("factor", [1.01, 10.0, 1000.0])
    def test_scaled_pair_rejected(self, factor):
        """C times `factor` from node 23 on breaks the pole pair's ODE there.
        Judged in C's own units the defect is caught at every factor; a bound
        that grew with the norms of C accepted the factor 1000 (3.8e4 against
        5.1e6)."""
        grid, s1, s2, gs, a_pi, a_xi, c, bn, x0 = consistent_triple_data(40)
        bad_c = vk.GridOperatorFamily(grid, np.concatenate([c.data[:23], factor * c.data[23:]]))
        with pytest.raises(InconsistentInitialData, match="pair ODE residual"):
            vk.evolve_coupling(bad_c, a_pi, a_xi, bn, x0, s1, s2, gs, grid)

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


class TestShapes:
    """A matrix of the wrong shape is a ShapeMismatch naming it, not numpy's
    matmul error (n = k = 3, m = 2 here)."""

    cases = {
        "pole C0 rows": (vk.evolve_pole_pair, "c0", np.ones((3, 3)), "C0 must be 2 x 3, got 3 x 3"),
        "pole A_pi": (vk.evolve_pole_pair, "a_pi", np.eye(2), "A_pi must be 3 x 3, got 2 x 2"),
        "null Bn0 columns": (vk.evolve_null_pair, "bn0", np.ones((3, 3)),
                             "Bn0 must be 3 x 2, got 3 x 3"),
        "null A_xi": (vk.evolve_null_pair, "a_xi", np.ones((3, 2)),
                      "A_xi must be 3 x 3, got 3 x 2"),
        "coupling A_pi": (vk.evolve_coupling, "a_pi", np.eye(2), "A_pi must be 3 x 3, got 2 x 2"),
        "coupling A_xi": (vk.evolve_coupling, "a_xi", np.ones((3, 2)),
                          "A_xi must be 3 x 3, got 3 x 2"),
        "coupling Bn": (vk.evolve_coupling, "bn", np.ones((3, 3)), "Bn must be 3 x 2, got 3 x 3"),
        "coupling X0": (vk.evolve_coupling, "x0", np.ones((2, 3)), "X0 must be 3 x 3, got 2 x 3"),
    }

    @pytest.mark.parametrize("case", cases)
    def test_wrong_shape_is_named(self, case):
        evolve, name, value, message = self.cases[case]
        grid, s1, s2, gs, a_pi, a_xi, c, bn, x0 = consistent_triple_data(10)
        args = {"c": c, "a_pi": a_pi, "a_xi": a_xi, "bn": bn, "x0": x0}
        if evolve is not vk.evolve_coupling:
            args = {"c0": c[0], "a_pi": a_pi} if evolve is vk.evolve_pole_pair else \
                {"bn0": bn[0], "a_xi": a_xi}
        args[name] = const(value, grid) if name == "bn" else value
        with pytest.raises(ShapeMismatch, match=f"^{message}$"):
            evolve(**args, sigma1=s1, sigma2=s2, gamma_star=gs, grid=grid)


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

    @pytest.mark.parametrize("node_ref", [0, 7, 30])
    def test_identity_frame_without_a_solve(self, node_ref, monkeypatch):
        """sigma2 = A2 = 0: the frame U is I, so nothing is solved, C = -B^H
        and Bn = B keep their bits, and X is I bit for bit at every node."""
        grid = vk.TimeGrid(0.0, 1.0, 30)
        v, _ = skew_chain_vessel(grid, seed=5, n_points=2)
        forbid_sylvester(monkeypatch)
        triple = vk.extract_null_pole(v, node_ref=node_ref)
        assert triple.C.data.tobytes() == (-v.B.data.conj().transpose(0, 2, 1)).tobytes()
        assert triple.Bn.data.tobytes() == v.B.data.tobytes()
        assert triple.X.data.tobytes() == np.broadcast_to(
            np.eye(2, dtype=complex), triple.X.data.shape).tobytes()

    @pytest.mark.parametrize("make", [constant_sigma2_vessel, gauged_chain_vessel])
    def test_moving_frame_without_a_solve(self, make, monkeypatch):
        """sigma2 != 0 (the constant vessel) or A2 != 0 (a chain in a moving
        frame, whose A1 moves): nothing is solved either.  The Sylvester
        residual is then the vessel's own defect carried by the frame: round-off
        on the exact constant vessel, and the data's O(h^2) on the gauged chain,
        whose A2 is a finite-difference U' U^H."""
        forbid_sylvester(monkeypatch)
        res = [vk.sylvester_residuals(vk.extract_null_pole(v, node_ref=7), v.sigma1).max()
               for v in (make(vk.TimeGrid(0.0, 1.0, n)) for n in (30, 60))]
        assert res[1] < 1e-13 or res[0] / res[1] > 3.0

    def test_constant_sigma2_vessel_round_trip(self):
        """sigma2 != 0 with A2 != 0: X obeys the coupling ODE X' = Bn sigma2 C
        from X[node_ref], and the realized transfer is the vessel's at the last
        node."""
        grid = vk.TimeGrid(0.0, 1.0, 50)
        v = constant_sigma2_vessel(grid)
        triple = vk.extract_null_pole(v, node_ref=0)
        x = vk.evolve_coupling(triple.C, triple.A_pi, triple.A_xi, triple.Bn, triple.X[0],
                               v.sigma1, v.sigma2, v.gamma_star, grid)
        assert np.max(np.abs(x.data - triple.X.data)) < 1e-9
        assert vk.sylvester_residuals(triple, v.sigma1).max() < 1e-14
        real = vk.zero_pole_realize(triple, v.gamma_star, v.sigma1, v.sigma2)
        for lam in (1.5 + 0.4j, -2.2 - 0.9j):
            want = vk.eval_transfer(v, lam, grid.n_steps)
            assert frob(real.transfer(lam, grid.n_steps) - want) < 1e-12

    @pytest.mark.parametrize("node_ref", [0, 30])
    def test_gauged_chain_round_trip(self, node_ref):
        """sigma2 = 0, A2 != 0 and A1 moving: read in the frame U' = A2 U, the
        triple realizes the vessel's transfer to the data's own O(h^2) (7e-6 and
        1.6e-5 from node 0).  A1(node_ref) paired with -B(t)^H missed by 4.87
        and 1.73."""
        grid = vk.TimeGrid(0.0, 1.0, 60)
        assert round_trip_miss(gauged_chain_vessel(grid), node_ref, (30, 60)) < 1e-4

    @pytest.mark.parametrize("node_ref", [0, 100])
    def test_sweep_vessel_round_trip(self, node_ref, monkeypatch, tmp_path):
        """lambda_sweep's vessel (sigma2 = alpha sigma1, A1 moving) at 200 steps:
        the miss is 9e-11 at node N (from node 0).  A1(node_ref) paired with
        -B(t)^H missed by 0.949 and 1.38 at nodes N/2 and N, with a per-node
        Sylvester residual of 3.3e-14."""
        v = sweep_vessel(monkeypatch, tmp_path)
        assert round_trip_miss(v, node_ref, (100, 200)) <= 1e-9

    def test_sweep_vessel_fourth_order(self, monkeypatch, tmp_path):
        """The frame's Magnus steps are 4th order: on lambda_sweep's vessel the
        miss at node N falls about 16-fold per halving of h."""
        miss = [round_trip_miss(sweep_vessel(monkeypatch, tmp_path, n), 0, (n,))
                for n in (100, 200, 400)]
        assert miss[0] / miss[1] > 12.0 and miss[1] / miss[2] > 12.0

    @pytest.mark.parametrize("make", ["gauged", "sweep"])
    def test_extracted_triple_evolves(self, make, monkeypatch, tmp_path):
        """C and Bn of the extracted triple obey their matrix-parameter ODEs, so
        evolve_coupling accepts them, and its X follows the frame's U^H U (the
        constant vessel is the round trip above).  A1(node_ref) paired with
        -B(t)^H left pair-ODE residuals of 1.18 and 14.1."""
        v = {"gauged": lambda: gauged_chain_vessel(vk.TimeGrid(0.0, 1.0, 30)),
             "sweep": lambda: sweep_vessel(monkeypatch, tmp_path)}[make]()
        triple = vk.extract_null_pole(v, node_ref=0)
        x = vk.evolve_coupling(triple.C, triple.A_pi, triple.A_xi, triple.Bn, triple.X[0],
                               v.sigma1, v.sigma2, v.gamma_star, v.grid)
        assert np.max(np.abs(x.data - triple.X.data)) < 1e-6

    @pytest.mark.parametrize("node_ref", [0, 17])
    def test_skew_frame_keeps_identity_coupling(self, node_ref):
        """sigma2 = 0 and A2 = K1 + t K2 exactly skew (n = 12): the Magnus frame
        is unitary to round-off, so X = U^H U is I to 1e-13 (RK4 steps drift
        about 1e-5 here)."""
        rng = np.random.default_rng(1)
        grid = vk.TimeGrid(0.0, 1.0, 30)
        n, zero = 12, const(np.zeros((2, 2)), grid)
        k1, k2 = rand_skew(rng, n), rand_skew(rng, n)
        v = vk.DifferentialVessel(
            A1=const(rand_complex(rng, (n, n)), grid),
            A2=vk.GridOperatorFamily(grid, k1 + grid.nodes()[:, None, None] * k2),
            B=const(rand_complex(rng, (n, 2)), grid), sigma1=const(SIGMA1_INDEFINITE, grid),
            sigma2=zero, gamma=zero, gamma_star=zero)
        x = vk.extract_null_pole(v, node_ref=node_ref).X.data
        assert np.max(np.abs(x - np.eye(n))) <= 1e-13

    def test_node_batch_draw_matches_its_source(self, monkeypatch, tmp_path):
        """The node_batch draw of inputs.rng_for(4242, 10): with a coupling
        solved at every node, the realized transfer missed the source vessel's
        by 1.151e-8 on this draw."""
        inputs, workloads = perfbench_modules(monkeypatch)
        inp = workloads.NodeBatch().make(inputs.rng_for(4242, 10), "full", str(tmp_path))
        v = vk.build_discrete(inp["data"], inp["gamma0"], inp["sigma1"], inp["sigma2"],
                              inp["grid"])
        real = vk.zero_pole_realize(vk.extract_null_pole(v), v.gamma_star, v.sigma1, v.sigma2)
        worst = max(frob(real.transfer(lam, i) - inputs.transfer(v.A1[i], v.B[i], inp["s1m"], lam))
                    for i in (0, 400, 800) for lam in inp["check_lams"])
        assert worst <= 1e-8

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

    def test_transfer_takes_an_array_of_nodes(self):
        """One node or an array of them, as zero_pole_realize's transfer: a stack
        of the single-node values, in the shape of the nodes."""
        rng = np.random.default_rng(8)
        grid = vk.TimeGrid(0.0, 1.0, 6)
        a1, cmat = observable_stable_pair(rng, 4, 2)
        c = vk.GridOperatorFamily.from_callable(lambda t: cmat * (1.0 + 0.3 * t), grid)
        hr = vk.hermitian_realize(c, a1, const(np.diag([1.0, 2.0]), grid))
        lam = 1.3 - 0.4j
        nodes = np.array([[0, 3, 6], [6, 3, 1]])
        got = hr.transfer(lam, nodes)
        assert got.shape == (2, 3, 2, 2)
        for k in np.ndindex(nodes.shape):
            assert frob(got[k] - hr.transfer(lam, int(nodes[k]))) <= 1e-14 * frob(got[k])
        assert hr.transfer(lam, [2]).shape == (1, 2, 2)

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
