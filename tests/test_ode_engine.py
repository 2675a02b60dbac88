import re

import numpy as np
import pytest

import vesselkit as vk
from vesselkit.errors import GridMismatch, NonFinite, ShapeMismatch, SingularSigma1
from vesselkit.matrix_kernel import frob

from helpers import const, rand_complex, rand_hermitian, rand_skew, skew_chain_vessel


def coefficient_fixture(n_steps, m=2, seed=8, sigma2_scale=0.25, gamma_scale=0.3):
    """Constant sigma1 with skew gamma: the reflection identities hold exactly."""
    rng = np.random.default_rng(seed)
    grid = vk.TimeGrid(0.0, 1.0, n_steps)
    s1 = const(np.diag([1.0, -1.0]), grid)
    s2 = const(rand_hermitian(rng, m, sigma2_scale), grid)
    g = const(rand_skew(rng, m, gamma_scale), grid)
    return grid, s1, s2, g


class TestIntegrateLinearOde:
    def test_zero_coefficient(self):
        grid = vk.TimeGrid(0.0, 1.0, 10)
        fam = vk.integrate_linear_ode(const(np.zeros((2, 2)), grid), np.eye(2), grid)
        assert all(np.allclose(fam[i], np.eye(2)) for i in range(11))

    def test_constant_coefficient_matches_exponential(self):
        rng = np.random.default_rng(0)
        k = rand_complex(rng, (3, 3), 0.4)
        grid = vk.TimeGrid(0.0, 1.0, 64)
        fam = vk.integrate_linear_ode(const(k, grid), np.eye(3), grid)
        assert frob(fam[64] - vk.matrix_exp(k)) < 1e-8

    def test_richardson_order(self):
        rng = np.random.default_rng(1)
        k = rand_complex(rng, (3, 3))
        k = 0.6 * k / frob(k)
        ref = vk.matrix_exp(k)
        errs = []
        for n_steps in (16, 32):
            grid = vk.TimeGrid(0.0, 1.0, n_steps)
            fam = vk.integrate_linear_ode(const(k, grid), np.eye(3), grid)
            errs.append(frob(fam[n_steps] - ref))
        assert 12.0 <= errs[0] / errs[1] <= 20.0

    def test_backward_inverts_forward(self):
        rng = np.random.default_rng(2)
        grid = vk.TimeGrid(0.0, 1.0, 50)
        coeff = vk.GridOperatorFamily.from_callable(
            lambda t: 0.4 * np.array([[1j * t, 0.3], [-0.3, -0.5j * t]]), grid
        )
        fwd = vk.integrate_linear_ode(coeff, np.eye(2), grid, "forward")
        bwd = vk.integrate_linear_ode(coeff, fwd[50], grid, "backward")
        assert frob(bwd[0] - np.eye(2)) < 1e-9

    def test_determinism(self):
        rng = np.random.default_rng(3)
        k = rand_complex(rng, (2, 2))
        grid = vk.TimeGrid(0.0, 1.0, 30)
        a = vk.integrate_linear_ode(const(k, grid), np.eye(2), grid)
        b = vk.integrate_linear_ode(const(k, grid), np.eye(2), grid)
        assert np.array_equal(a.data, b.data)

    def test_blowup_raises(self):
        grid = vk.TimeGrid(0.0, 100.0, 100)
        with pytest.raises(NonFinite):
            vk.integrate_linear_ode(const(1e6 * np.eye(1), grid), np.array([[1.0]]), grid)


class TestFundamentalMatrix:
    def test_constant_coefficient_closed_form(self):
        rng = np.random.default_rng(4)
        grid = vk.TimeGrid(0.0, 1.0, 100)
        m = 2
        g = rand_skew(rng, m, 0.5)
        lam = 0.4 + 0.3j
        phi = vk.fundamental_matrix(lam, const(np.eye(m), grid), const(np.eye(m), grid),
                                    const(g, grid), grid)
        ref = vk.matrix_exp((lam * np.eye(m) + g) * 1.0)
        assert frob(phi[100] - ref) < 1e-8

    def test_identity_at_base(self):
        grid, s1, s2, g = coefficient_fixture(40)
        phi = vk.fundamental_matrix(1.0 + 2.0j, s1, s2, g, grid, base_index=17)
        assert frob(phi[17] - np.eye(2)) == 0.0

    def test_scalar_exponential(self):
        grid = vk.TimeGrid(0.0, 1.0, 200)
        one = const(np.eye(1), grid)
        zero = const(np.zeros((1, 1)), grid)
        phi = vk.fundamental_matrix(1.0, one, one, zero, grid)
        assert abs(phi[200][0, 0] - np.e) < 1e-8

    def test_singular_sigma1(self):
        grid = vk.TimeGrid(0.0, 1.0, 10)
        s1 = const(np.diag([1.0, 0.0]), grid)
        with pytest.raises(SingularSigma1):
            vk.fundamental_matrix(1.0, s1, s1, s1, grid)

    def test_sigma1_is_judged_against_its_own_size(self):
        """sigma1 = diag(1, -1) 2^-31 has min singular value 4.7e-10, under the
        bare EPS_SPEC_REL = 1e-9 but a well-conditioned sigma1 all the same."""
        grid, s1, s2, g = coefficient_fixture(20)
        tiny = 2.0 ** -31
        phi = vk.fundamental_matrix(0.8 + 0.3j, s1, s2, g, grid)
        scaled = (vk.GridOperatorFamily(grid, tiny * f.data) for f in (s1, s2, g))
        assert vk.fundamental_matrix(0.8 + 0.3j, *scaled, grid).family.data.tobytes() \
            == phi.family.data.tobytes()
        for k in (-40, 0, 40):
            near = const(2.0 ** k * np.diag([1.0, 1e-10]), grid)
            with pytest.raises(SingularSigma1, match="at node 0:"):
                vk.fundamental_matrix(1.0, near, s2, g, grid)

    def test_cocycle(self):
        grid, s1, s2, g = coefficient_fixture(100)
        lam = 0.8 + 0.3j
        phi = vk.fundamental_matrix(lam, s1, s2, g, grid)
        phi_mid = vk.fundamental_matrix(lam, s1, s2, g, grid, base_index=50)
        defect = frob(phi[100] - phi_mid[100] @ phi[50])
        assert defect < 100.0 * grid.h ** 4


class TestPhiSymmetry:
    def test_skew_gamma_small_residual(self):
        grid, s1, s2, g = coefficient_fixture(200)
        lam = 0.4 + 0.3j
        phi = vk.fundamental_matrix(lam, s1, s2, g, grid)
        phic = vk.fundamental_matrix(-np.conj(lam), s1, s2, g, grid)
        assert vk.phi_symmetry_residual(phi, phic, s1) < 1e-7

    def test_base_node_contributes_zero(self):
        grid, s1, s2, g = coefficient_fixture(20)
        lam = 1.0 + 1.0j
        phi = vk.fundamental_matrix(lam, s1, s2, g, grid)
        phic = vk.fundamental_matrix(-np.conj(lam), s1, s2, g, grid)
        lhs = s1[0] @ phi[0]
        rhs = np.linalg.inv(phic[0]).conj().T @ s1[0]
        assert frob(lhs - rhs) == 0.0

    def test_imaginary_lambda_self_paired(self):
        grid, s1, s2, g = coefficient_fixture(200)
        lam = 0.9j
        phi = vk.fundamental_matrix(lam, s1, s2, g, grid)
        assert vk.phi_symmetry_residual(phi, phi, s1) < 1e-7

    def test_wrong_pairing_rejected(self):
        grid, s1, s2, g = coefficient_fixture(20)
        phi = vk.fundamental_matrix(1.0 + 1.0j, s1, s2, g, grid)
        other = vk.fundamental_matrix(2.0 + 1.0j, s1, s2, g, grid)
        with pytest.raises(GridMismatch):
            vk.phi_symmetry_residual(phi, other, s1)

    def test_constant_coefficients_machine_exact(self):
        # For constant coefficients the one-step polynomial preserves the
        # reflection identity to O(h^6) per step; the residual is noise.
        grid, s1, s2, g = coefficient_fixture(100)
        lam = 0.4 + 0.3j
        phi = vk.fundamental_matrix(lam, s1, s2, g, grid)
        phic = vk.fundamental_matrix(-np.conj(lam), s1, s2, g, grid)
        assert vk.phi_symmetry_residual(phi, phic, s1) < 1e-12

    def test_convergence_order_varying_gamma(self):
        # Interpolated skew coefficients stay skew, so the integrator
        # preserves the identity at (at least) its own order even for
        # time-varying gamma; assert strong decay under halving.
        rng = np.random.default_rng(12)
        skew = rand_skew(rng, 2, 0.4)
        herm = rand_hermitian(rng, 2, 0.25)
        lam = 0.4 + 0.3j
        res = []
        for n_steps in (50, 100):
            grid = vk.TimeGrid(0.0, 1.0, n_steps)
            s1 = const(np.diag([1.0, -1.0]), grid)
            s2 = const(herm, grid)
            g = vk.GridOperatorFamily.from_callable(
                lambda t: (1.0 + 0.4 * np.sin(3.0 * t)) * skew, grid
            )
            phi = vk.fundamental_matrix(lam, s1, s2, g, grid)
            phic = vk.fundamental_matrix(-np.conj(lam), s1, s2, g, grid)
            res.append(vk.phi_symmetry_residual(phi, phic, s1))
        assert res[1] < res[0] / 8.0


class TestPhiBilinear:
    def test_reflected_pair_is_conserved(self):
        grid, s1, s2, g = coefficient_fixture(200)
        lam = 0.4 + 0.3j
        phi = vk.fundamental_matrix(lam, s1, s2, g, grid)
        phic = vk.fundamental_matrix(-np.conj(lam), s1, s2, g, grid)
        # mu = -conj(lam) makes Phi(mu)^H sigma1 Phi(lam) constant, so the
        # bilinear residual reduces to finite-difference noise.
        assert vk.phi_bilinear_residual(phic, phi, s1, s2) < 1e-6

    def test_sigma2_zero_conserved(self):
        rng = np.random.default_rng(9)
        grid = vk.TimeGrid(0.0, 1.0, 200)
        s1 = const(np.diag([1.0, -1.0]), grid)
        s2 = const(np.zeros((2, 2)), grid)
        g = const(rand_skew(rng, 2, 0.4), grid)
        phi = vk.fundamental_matrix(1.2 + 0.4j, s1, s2, g, grid)
        phim = vk.fundamental_matrix(-0.3 + 0.8j, s1, s2, g, grid)
        assert vk.phi_bilinear_residual(phim, phi, s1, s2) < 1e-6

    def test_scalar_constant_coefficients_analytic(self):
        grid = vk.TimeGrid(0.0, 1.0, 400)
        s1 = const(np.eye(1), grid)
        s2 = const(0.5 * np.eye(1), grid)
        g = const(0.3j * np.eye(1), grid)
        lam, mu = 0.7 + 0.2j, -0.1 + 0.6j
        phi = vk.fundamental_matrix(lam, s1, s2, g, grid)
        phim = vk.fundamental_matrix(mu, s1, s2, g, grid)
        # d/dt [conj(Phi(mu)) Phi(lam)] = (lam + conj(mu)) * 0.5 * conj(Phi(mu)) Phi(lam)
        assert vk.phi_bilinear_residual(phim, phi, s1, s2) < 1e-6

    def test_generic_pair_residual(self):
        grid, s1, s2, g = coefficient_fixture(400)
        phi = vk.fundamental_matrix(0.4 + 0.3j, s1, s2, g, grid)
        phim = vk.fundamental_matrix(-0.2 + 0.5j, s1, s2, g, grid)
        assert vk.phi_bilinear_residual(phim, phi, s1, s2) < 1e-6

    def test_central_difference_order(self):
        # The bilinear residual is dominated by the O(h^2) derivative stencil.
        lam, mu = 0.7 + 0.2j, -0.1 + 0.6j
        res = []
        for n_steps in (100, 200):
            grid, s1, s2, g = coefficient_fixture(n_steps)
            phi = vk.fundamental_matrix(lam, s1, s2, g, grid)
            phim = vk.fundamental_matrix(mu, s1, s2, g, grid)
            res.append(vk.phi_bilinear_residual(phim, phi, s1, s2))
        assert 3.0 <= res[0] / res[1] <= 5.5


class TestGridTypes:
    def test_grid_nodes(self):
        grid = vk.TimeGrid(0.0, 2.0, 4)
        assert np.allclose(grid.nodes(), [0.0, 0.5, 1.0, 1.5, 2.0])
        assert grid.h == 0.5

    @pytest.mark.parametrize("t_start, t_end, n_steps, message", [
        (0.0, 1.0, 2.5, "n_steps must be an integer, got 2.5"),
        (0.0, 1.0, True, "n_steps must be an integer, got True"),
        (0.0, 1.0, "20", "n_steps must be an integer, got '20'"),
        (0.0, 1.0, np.float64(20.0), "n_steps must be an integer"),
        (0.0, 1.0, 0, "n_steps must be >= 1, got 0"),
        (0.0, np.inf, 10, "t_end must be finite, got inf"),
        (-np.inf, 0.0, 10, "t_start must be finite, got -inf"),
        (-1e308, 1e308, 10, "h must be finite, got inf"),
        pytest.param(np.float64(-1e308), np.float64(1e308), 10, "h must be finite, got inf",
                     id="numpy_float_span_overflows"),
    ])
    def test_grid_must_be_what_it_says(self, t_start, t_end, n_steps, message):
        """An integer n_steps >= 1 (not bool), finite endpoints and a finite h."""
        from vesselkit.errors import ShapeMismatch

        with pytest.raises(ShapeMismatch, match=message.replace(".", r"\.")):
            vk.TimeGrid(t_start, t_end, n_steps)

    def test_far_apart_grids_compare_without_a_warning(self):
        """Endpoints whose difference overflows compare as incompatible."""
        low = vk.TimeGrid(np.float64(-1.7e308), np.float64(-1.6e308), 10)
        high = vk.TimeGrid(np.float64(1.6e308), np.float64(1.7e308), 10)
        assert not low.compatible(high) and not high.compatible(low)
        assert low.compatible(vk.TimeGrid(-1.7e308, -1.6e308, 10))

    def test_numpy_integer_steps_accepted(self):
        grid = vk.TimeGrid(0.0, 2.0, np.int64(4))
        assert grid.n_nodes == 5 and grid.h == 0.5

    def test_family_shape_validation(self):
        grid = vk.TimeGrid(0.0, 1.0, 2)
        from vesselkit.errors import ShapeMismatch

        with pytest.raises(ShapeMismatch):
            vk.GridOperatorFamily(grid, np.zeros((2, 2, 2)))  # needs 3 samples

    @pytest.mark.parametrize("bad", [np.nan, complex(0.0, np.inf), complex(0.0, -np.inf)])
    def test_family_rejects_non_finite_samples(self, bad):
        """inf or NaN in either part of one entry, the imaginary part alone included."""
        grid = vk.TimeGrid(0.0, 1.0, 2)
        data = np.zeros((3, 2, 2), dtype=complex)
        data[2, 1, 0] = bad
        with pytest.raises(NonFinite, match="^family contains NaN or Inf$"):
            vk.GridOperatorFamily(grid, data)

    def test_family_data_readonly(self):
        grid = vk.TimeGrid(0.0, 1.0, 2)
        fam = const(np.eye(2), grid)
        with pytest.raises(ValueError):
            fam.data[0, 0, 0] = 5.0

    def test_family_derivative_linear_exact(self):
        grid = vk.TimeGrid(0.0, 1.0, 10)
        fam = vk.GridOperatorFamily.from_callable(lambda t: np.array([[2.0 * t]]), grid)
        d = vk.family_derivative(fam)
        assert all(abs(d[i][0, 0] - 2.0) < 1e-12 for i in range(11))

    @pytest.mark.parametrize("n_steps", [1, 2, 8])
    def test_family_derivative_stencil_bits(self, n_steps):
        """Interior (x[i+1] - x[i-1]) / 2h, one-sided second-order ends, and
        the chord over the span on a one-step grid, bit for bit."""
        grid = vk.TimeGrid(0.3, 1.7, n_steps)
        x = rand_complex(np.random.default_rng(n_steps), (grid.n_nodes, 2, 2))
        d = vk.family_derivative(vk.GridOperatorFamily(grid, x)).data
        h2 = 2.0 * grid.h
        want = [(x[i + 1] - x[i - 1]) / h2 for i in range(1, n_steps)]
        if n_steps == 1:
            want = [(x[1] - x[0]) / (grid.t_end - grid.t_start)] * 2
        else:
            want = ([(-3.0 * x[0] + 4.0 * x[1] - x[2]) / h2] + want
                    + [(3.0 * x[-1] - 4.0 * x[-2] + x[-3]) / h2])
        assert np.stack(want).tobytes() == d.tobytes()

    def test_compatible_is_relative_to_the_span(self):
        """Endpoints are compared against 1e-12 of the span, so two grids five
        times apart in length never read compatible; span-1 grids read as
        they did against an absolute 1e-12."""
        assert not vk.TimeGrid(0.0, 1e-13, 10).compatible(vk.TimeGrid(0.0, 5e-13, 10))
        assert not vk.TimeGrid(0.0, 5e-13, 10).compatible(vk.TimeGrid(0.0, 1e-13, 10))
        grid = vk.TimeGrid(0.0, 1.0, 10)
        assert grid.compatible(vk.TimeGrid(5e-13, 1.0 + 5e-13, 10))
        assert not grid.compatible(vk.TimeGrid(2e-12, 1.0, 10))
        assert not grid.compatible(vk.TimeGrid(0.0, 1.0 + 2e-12, 10))
        assert not grid.compatible(vk.TimeGrid(0.0, 1.0, 11))
        short = vk.TimeGrid(0.0, 1e-6, 10)
        assert short.compatible(vk.TimeGrid(5e-19, 1e-6, 10))
        assert not short.compatible(vk.TimeGrid(2e-18, 1e-6, 10))


# Hermitian with eigenvalues 0 and 2; its transpose is Hermitian too, and not
# C-contiguous, so an int64 view of its bits needs a copy first.
SINGULAR_SIGMA1 = np.array([[1.0, 1j], [-1j, 1.0]])


def _checked_entries():
    """The public entries that check sigma1 only since the one channel rule,
    as f(sigma1 matrix) -> call."""
    grid = vk.TimeGrid(0.0, 1.0, 10)
    n, m = 2, 2
    zero_m, eye_m = const(np.zeros((m, m)), grid), const(np.eye(m), grid)
    c, bn = const(np.ones((m, n)), grid), const(np.ones((n, m)), grid)
    triple = vk.NullPoleTriple(C=c, A_pi=-np.eye(n), A_xi=np.eye(n), Bn=bn,
                               X=const(np.eye(n), grid))
    phi, phi_conj = (vk.fundamental_matrix(lam, eye_m, zero_m, zero_m, grid) for lam in (1.0, -1.0))
    return {
        "evolve_coupling": lambda s1: vk.evolve_coupling(
            c, -np.eye(n), np.eye(n), bn, np.eye(n), const(s1, grid), zero_m, zero_m, grid),
        "zero_pole_realize": lambda s1: vk.zero_pole_realize(
            triple, zero_m, const(s1, grid), zero_m),
        "sylvester_residuals": lambda s1: vk.sylvester_residuals(triple, const(s1, grid)),
        "phi_symmetry_residual": lambda s1: vk.phi_symmetry_residual(
            phi, phi_conj, const(s1, grid)),
        "phi_bilinear_residual": lambda s1: vk.phi_bilinear_residual(
            phi, phi, const(s1, grid), zero_m),
        "hermitian_realize": lambda s1: vk.hermitian_realize(
            c, np.diag([-1.0, -2.0]), const(s1, grid)),
    }


def _sigma1_entries():
    """Every public entry that checks sigma1, as f(sigma1 matrix) -> call."""
    grid = vk.TimeGrid(0.0, 1.0, 10)
    n, m = 2, 2
    zero_n, zero_m = const(np.zeros((n, n)), grid), const(np.zeros((m, m)), grid)
    b = const(np.ones((n, m)), grid)
    eye_stack = np.broadcast_to(np.eye(m), (grid.n_nodes, m, m))
    s_grid = vk.TimeGrid(0.0, 1.0, 8)
    beta0 = np.ones((s_grid.n_nodes, m, 1), dtype=complex)
    c = np.full(s_grid.n_nodes, 0.4)
    model = vk.ContinuousSpectrumModel(s_grid=s_grid, c=c, beta=beta0,
                                       gamma_s=np.zeros((s_grid.n_nodes, m, m)))
    datum = vk.SpectralDatum(z=-0.5 + 0.3j, b0=np.array([1.0, 0.2j]))
    return {
        "build_discrete": lambda s1: vk.build_discrete(
            [datum], zero_m, const(s1, grid), zero_m, grid),
        "build_elementary": lambda s1: vk.build_elementary(
            datum, zero_m, const(s1, grid), zero_m, grid),
        "discrete_chain": lambda s1: vk.discrete_chain(
            [datum], zero_m, const(s1, grid), zero_m, grid),
        "DifferentialVessel": lambda s1: vk.DifferentialVessel(
            A1=zero_n, A2=zero_n, B=b, sigma1=const(s1, grid), sigma2=zero_m, gamma=zero_m,
            gamma_star=zero_m),
        "fundamental_matrix": lambda s1: vk.fundamental_matrix(
            1.0, const(s1, grid), zero_m, zero_m, grid),
        "transfer_pde_residual_values": lambda s1: vk.transfer_pde_residual_values(
            eye_stack, const(s1, grid), zero_m, zero_m, zero_m, 1.0, grid),
        "evolve_pole_pair": lambda s1: vk.evolve_pole_pair(
            np.ones((m, n)), -np.eye(n), zero_m, const(s1, grid), zero_m, grid),
        "evolve_null_pair": lambda s1: vk.evolve_null_pair(
            np.ones((n, m)), np.eye(n), zero_m, const(s1, grid), zero_m, grid),
        "consistent_gamma_s": lambda s1: vk.consistent_gamma_s(
            beta0, c, s1, np.zeros((m, m)), np.zeros((m, m)), s_grid),
        "continuous_model_evolve": lambda s1: vk.continuous_model_evolve(
            model, s1, np.zeros((m, m)), grid),
        **_checked_entries(),
    }


class TestOneSigma1Check:
    @pytest.mark.parametrize("layout", ["contiguous", "transposed"])
    @pytest.mark.parametrize("entry", sorted(_sigma1_entries()))
    def test_singular_sigma1_raises_at_every_entry(self, entry, layout):
        s1 = SINGULAR_SIGMA1 if layout == "contiguous" else SINGULAR_SIGMA1.T
        assert s1.flags.c_contiguous == (layout == "contiguous")
        with pytest.raises(SingularSigma1, match="at node 0:"):
            _sigma1_entries()[entry](s1)

    @pytest.mark.parametrize("entry", sorted(_checked_entries()))
    def test_sigma1_is_checked_at_entry(self, entry):
        """A singular sigma1 that is not Hermitian either is a SingularSigma1 at
        entry: not a failed Sylvester guard, a silent result or, from the
        vessel zero_pole_realize builds last, NotHermitian."""
        with pytest.raises(SingularSigma1, match="^sigma1 not invertible at node 0:"):
            _checked_entries()[entry](np.array([[0.0, 1.0], [0.0, 0.0]]))

    def test_constant_sigma1_takes_one_svd_of_one_node(self, monkeypatch):
        grid = vk.TimeGrid(0.0, 1.0, 800)
        v, _ = skew_chain_vessel(grid)
        shapes = []
        svd = np.linalg.svd

        def recording_svd(a, *args, **kwargs):
            shapes.append(np.shape(a))
            return svd(a, *args, **kwargs)

        monkeypatch.setattr(np.linalg, "svd", recording_svd)
        lams = 0.5 + 0.3j + 0.05 * np.arange(64)
        for lam in lams:
            vk.input_fundamental(v, lam)
        assert shapes and (801, 2, 2) not in shapes
        # A sigma1 that varies by node is judged node by node.
        varying = vk.GridOperatorFamily(grid, (1.0 + 0.1 * grid.nodes())[:, None, None]
                                        * v.sigma1.data)
        moved = vk.DifferentialVessel(A1=v.A1, A2=v.A2, B=v.B, sigma1=varying,
                                      sigma2=v.sigma2, gamma=v.gamma, gamma_star=v.gamma_star)
        shapes.clear()
        vk.input_fundamental(moved, lams[0])
        assert (801, 2, 2) in shapes


RAGGED = "family data must be an (N, r, c) array of numbers"


def _shape_entries():
    """Every entry that reads channel families, given one of them 3 x 3 where
    m = 2, and the entries that read shapes beside them, as name -> (call, the
    whole ShapeMismatch message)."""
    grid, s_grid = vk.TimeGrid(0.0, 1.0, 10), vk.TimeGrid(0.0, 1.0, 8)
    n, m = 2, 2
    zero_n, zero_m = const(np.zeros((n, n)), grid), const(np.zeros((m, m)), grid)
    eye_m, big = const(np.eye(m), grid), const(np.eye(3), grid)
    c, bn = const(np.ones((m, n)), grid), const(np.ones((n, m)), grid)
    triple = vk.NullPoleTriple(C=c, A_pi=-np.eye(n), A_xi=np.eye(n), Bn=bn,
                               X=const(np.eye(n), grid))
    phi, phi_conj = (vk.fundamental_matrix(lam, eye_m, zero_m, zero_m, grid) for lam in (1.0, -1.0))
    zero_3 = const(np.zeros((3, 3)), grid)
    phi_3, phi_3_conj = (vk.fundamental_matrix(lam, big, zero_3, zero_3, grid)
                         for lam in (1.0, -1.0))
    vessel = vk.DifferentialVessel(A1=zero_n, A2=zero_n, B=bn, sigma1=eye_m, sigma2=zero_m,
                                   gamma=zero_m, gamma_star=zero_m)
    datum = vk.SpectralDatum(z=-0.5 + 0.3j, b0=np.array([1.0, 0.2j]))
    beta0, c_s = np.ones((s_grid.n_nodes, m, 1), dtype=complex), np.full(s_grid.n_nodes, 0.4)
    model = vk.ContinuousSpectrumModel(s_grid=s_grid, c=c_s, beta=beta0,
                                       gamma_s=np.zeros((s_grid.n_nodes, m, m)))

    def wrong(name):
        return f"{name} must be 2 x 2, got 3 x 3"

    return {
        "fundamental_matrix": (
            lambda: vk.fundamental_matrix(1.0, eye_m, big, zero_m, grid), wrong("sigma2")),
        "evolve_pole_pair": (lambda: vk.evolve_pole_pair(
            np.ones((m, n)), -np.eye(n), big, eye_m, zero_m, grid), wrong("gamma_star")),
        "evolve_null_pair": (lambda: vk.evolve_null_pair(
            np.ones((n, m)), np.eye(n), zero_m, eye_m, big, grid), wrong("sigma2")),
        "build_discrete": (
            lambda: vk.build_discrete([datum], zero_m, eye_m, big, grid), wrong("sigma2")),
        "discrete_chain": (
            lambda: vk.discrete_chain([datum], big, eye_m, zero_m, grid), wrong("gamma")),
        "build_elementary": (
            lambda: vk.build_elementary(datum, zero_m, eye_m, big, grid), wrong("sigma2")),
        "evolve_coupling": (lambda: vk.evolve_coupling(
            c, -np.eye(n), np.eye(n), bn, np.eye(n), big, zero_m, zero_m, grid), wrong("sigma1")),
        "zero_pole_realize": (
            lambda: vk.zero_pole_realize(triple, zero_m, eye_m, big), wrong("sigma2")),
        "sylvester_residuals": (lambda: vk.sylvester_residuals(triple, big), wrong("sigma1")),
        "hermitian_realize": (
            lambda: vk.hermitian_realize(c, np.diag([-1.0, -2.0]), big), wrong("sigma1")),
        "transfer_pde_residual_values": (lambda: vk.transfer_pde_residual_values(
            np.broadcast_to(np.eye(m), (grid.n_nodes, m, m)), eye_m, zero_m, big, zero_m, 1.0,
            grid), wrong("gamma")),
        "phi_symmetry_residual": (
            lambda: vk.phi_symmetry_residual(phi, phi_conj, big), wrong("sigma1")),
        "phi_bilinear_residual": (
            lambda: vk.phi_bilinear_residual(phi, phi, eye_m, big), wrong("sigma2")),
        "phi_symmetry_residual phi_conj": (
            lambda: vk.phi_symmetry_residual(phi, phi_3_conj, eye_m), wrong("phi_conj")),
        "phi_bilinear_residual phi_lam": (
            lambda: vk.phi_bilinear_residual(phi, phi_3, eye_m, zero_m), wrong("phi_lam")),
        "hermitian_realize A1": (lambda: vk.hermitian_realize(c, np.ones((2, 3)), eye_m),
                                 "A1 must be 2 x 2, got 2 x 3"),
        "solve_sylvester": (lambda: vk.solve_sylvester(-np.eye(2), np.eye(3), np.ones((2, 2))),
                            "q must be 3 x 2, got 2 x 2"),
        "hermitian_sqrt": (lambda: vk.hermitian_sqrt(np.ones((2, 3))),
                           "hermitian_sqrt operand must be 2 x 2, got 2 x 3"),
        "matrix_exp": (lambda: vk.matrix_exp(np.ones((4, 2, 3))),
                       "matrix_exp operand must be 2 x 2, got 2 x 3"),
        "consistent_gamma_s": (lambda: vk.consistent_gamma_s(
            beta0, c_s, np.eye(m), np.eye(3), np.zeros((m, m)), s_grid), wrong("sigma2")),
        "consistent_gamma_s gamma_origin": (lambda: vk.consistent_gamma_s(
            beta0, c_s, np.eye(m), np.eye(m), np.eye(3), s_grid), wrong("gamma_origin")),
        "continuous_model_evolve": (lambda: vk.continuous_model_evolve(
            model, np.eye(3), np.zeros((m, m)), grid), wrong("sigma1")),
        "consistent_gamma_s beta0": (lambda: vk.consistent_gamma_s(
            np.ones(s_grid.n_nodes), c_s, np.eye(m), np.eye(m), np.eye(m), s_grid),
            "beta0 must be (n_s_nodes, m, p), got shape (9,)"),
        "ContinuousSpectrumModel": (lambda: vk.ContinuousSpectrumModel(
            s_grid=s_grid, c=c_s, beta=beta0, gamma_s=np.zeros((s_grid.n_nodes, 3, 3))),
            "gamma_s must be (n_s_nodes, m, m)"),
        "DifferentialVessel": (lambda: vk.DifferentialVessel(
            A1=zero_n, A2=zero_n, B=bn, sigma1=eye_m, sigma2=zero_m, gamma=big,
            gamma_star=zero_m), wrong("gamma")),
        "integrate_linear_ode": (lambda: vk.integrate_linear_ode(zero_m, np.eye(3), grid),
                                 "m0 must be 2 x 3, got 3 x 3"),
        "GaugeMap.from_family": (lambda: vk.GaugeMap.from_family(const(np.ones((2, 3)), grid)),
                                 "u_family must be 2 x 2, got 2 x 3"),
        "gauge_transform": (lambda: vk.gauge_transform(vessel, vk.GaugeMap.identity(3, grid)),
                            "gmap must be 2 x 2, got 3 x 3"),
        "mult_integral": (lambda: vk.mult_integral(const(np.ones((2, 3)), s_grid), c_s, 1.0, 3),
                          "kernel must be 2 x 2, got 2 x 3"),
        "intertwining_residual": (lambda: vk.intertwining_residual(
            np.ones((grid.n_nodes, 3, 3)), phi, phi), "s_values must be 2 x 2, got 3 x 3"),
        "GridOperatorFamily": (
            lambda: vk.GridOperatorFamily(grid, [np.eye(2)] * 10 + [np.eye(3)]), RAGGED),
        "GridOperatorFamily.from_callable": (lambda: vk.GridOperatorFamily.from_callable(
            lambda t: np.eye(3 if t > 0.5 else 2), grid), RAGGED),
    }


class TestOneChannelRule:
    @pytest.mark.parametrize("entry", sorted(_shape_entries()))
    def test_wrong_shape_is_named(self, entry):
        """A misshapen family is a ShapeMismatch naming it in the one shape
        message, not numpy's ValueError from the first product that reads it."""
        call, message = _shape_entries()[entry]
        with pytest.raises(ShapeMismatch, match=f"^{re.escape(message)}$"):
            call()
