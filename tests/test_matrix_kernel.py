import re

import numpy as np
import pytest

import vesselkit as vk
from vesselkit.errors import (
    NonFinite,
    NotHermitian,
    NotPositiveDefinite,
    ShapeMismatch,
    SpectrumClash,
)
from vesselkit.matrix_kernel import as_hermitian, frob, shifted_solve

from helpers import rand_complex, rand_hermitian, skew_chain_vessel


def resolvent(a, lam):
    """(lam I - a)^(-1) as the shifted solve against the identity."""
    a = np.asarray(a, dtype=complex)
    eye = np.eye(len(a), dtype=complex)
    return shifted_solve(a[None], lam, eye[None], np.linalg.eigvals(a)[None])[0]


class TestResolvent:
    def test_zero_matrix(self):
        r = resolvent(np.zeros((1, 1)), 2.0)
        assert r[0, 0] == pytest.approx(0.5)

    def test_diagonal(self):
        z = np.array([0.3 + 1j, -0.7, 2.0 - 0.5j])
        lam = 1.5 + 0.25j
        r = resolvent(np.diag(z), lam)
        assert np.allclose(np.diagonal(r), 1.0 / (lam - z))

    def test_residual_oracle_random(self):
        rng = np.random.default_rng(0)
        a = rand_complex(rng, (5, 5))
        lam = 10.0 + 3.0j
        r = resolvent(a, lam)
        assert frob((lam * np.eye(5) - a) @ r - np.eye(5)) < 1e-10
        assert frob(r @ (lam * np.eye(5) - a) - np.eye(5)) < 1e-10

    def test_spectrum_clash(self):
        a = np.diag([1.0 + 0.0j, 2.0])
        with pytest.raises(SpectrumClash):
            resolvent(a, 1.0)

    def test_non_finite_input(self):
        for lam, text in ((complex(np.nan, 0.0), r"\(nan\+0j\)"), (complex(0.0, np.inf), "infj")):
            with pytest.raises(NonFinite, match=f"^spectral parameter lambda={text} is not finite$"):
                resolvent(np.eye(2), lam)


class TestNonFiniteLambda:
    """Every per-lambda entry runs the one lambda check before any arithmetic:
    NonFinite naming lambda, and no numpy warning (warnings are errors here)."""

    bad = (complex(np.inf, 0.0), complex(np.nan, 0.0), complex(0.0, -np.inf), np.nan)

    def message(self, lam):
        return "^" + re.escape(f"spectral parameter lambda={complex(lam)} is not finite") + "$"

    def test_fundamentals_simulate_and_transfer_pde(self):
        v, _ = skew_chain_vessel(vk.TimeGrid(0.0, 1.0, 20), seed=5, n_points=2)
        for lam in self.bad:
            for call in (lambda: vk.input_fundamental(v, lam), lambda: vk.output_fundamental(v, lam),
                         lambda: vk.simulate(v, lam, [1.0, 0.0]),
                         lambda: vk.transfer_pde_residual(v, lam),
                         lambda: vk.transfer_pde_residual_values(
                             vk.transfer_at_nodes(v, 2.0), v.sigma1, v.sigma2, v.gamma,
                             v.gamma_star, lam, v.grid)):
                with pytest.raises(NonFinite, match=self.message(lam)):
                    call()

    def test_mult_integral_and_model_probes(self):
        grid = vk.TimeGrid(0.0, 1.0, 10)
        kernel = vk.GridOperatorFamily(grid, np.broadcast_to(np.eye(2), (11, 2, 2)))
        beta0 = np.ones((11, 2, 1), dtype=complex)
        model = vk.ContinuousSpectrumModel(s_grid=grid, c=np.ones(11), beta=beta0,
                                           gamma_s=np.zeros((11, 2, 2)))
        for lam in self.bad:
            with pytest.raises(NonFinite, match=self.message(lam)):
                vk.mult_integral(kernel, np.zeros(11), lam, 10)
            with pytest.raises(NonFinite, match=self.message(lam)):
                vk.continuous_model_evolve(model, np.eye(2), np.zeros((2, 2)), grid,
                                           probe_lambdas=(2.0, lam), consistency_tol=1e3)


class TestHermitianSqrt:
    def test_identity(self):
        assert np.allclose(vk.hermitian_sqrt(np.eye(3)), np.eye(3))

    def test_diagonal(self):
        assert np.allclose(vk.hermitian_sqrt(np.diag([4.0, 9.0])), np.diag([2.0, 3.0]))

    def test_resquare_oracle(self):
        rng = np.random.default_rng(1)
        m = rand_complex(rng, (4, 4))
        x = m.conj().T @ m + np.eye(4)
        y = vk.hermitian_sqrt(x, require_pd=True)
        assert frob(y @ y - x) / frob(x) < 1e-10
        assert frob(y - y.conj().T) < 1e-12

    def test_eigenvalues_are_roots(self):
        rng = np.random.default_rng(2)
        m = rand_complex(rng, (3, 3))
        x = m.conj().T @ m + 0.5 * np.eye(3)
        wx = np.linalg.eigvalsh(x)
        wy = np.linalg.eigvalsh(vk.hermitian_sqrt(x))
        assert np.allclose(wy, np.sqrt(wx))

    def test_not_positive_definite(self):
        with pytest.raises(NotPositiveDefinite):
            vk.hermitian_sqrt(np.diag([1.0, -1.0]), require_pd=True)
        with pytest.raises(NotPositiveDefinite):
            vk.hermitian_sqrt(np.diag([1.0, -1.0]))

    def test_grid_lipschitz_stable_under_halving(self):
        # Square root along a Hermitian line stays Lipschitz on the grid:
        # the estimated constant must not blow up as the step halves.
        x0 = np.array([[2.0, 0.3 + 0.1j], [0.3 - 0.1j, 1.5]])
        d = np.array([[0.5, -0.2j], [0.2j, 0.8]])

        def k_est(h):
            ts = np.arange(0.0, 1.0 + 1e-12, h)
            roots = [vk.hermitian_sqrt(x0 + t * d) for t in ts]
            return max(frob(roots[i + 1] - roots[i]) / h for i in range(len(ts) - 1))

        k1, k2 = k_est(0.05), k_est(0.025)
        assert np.isfinite(k2)
        assert k2 <= 2.0 * k1


class TestSolveSylvester:
    def test_scalar(self):
        x = vk.solve_sylvester(np.array([[1.0]]), np.array([[-1.0]]), np.array([[2.0]]))
        assert x[0, 0] == pytest.approx(1.0)

    def test_zero_rhs_forces_zero(self):
        a_pi = np.diag([1.0, 2.0]).astype(complex)
        a_xi = np.diag([-1.0 + 0.5j, -3.0])
        x = vk.solve_sylvester(a_pi, a_xi, np.zeros((2, 2)))
        assert frob(x) < 1e-14

    def test_residual_oracle(self):
        rng = np.random.default_rng(3)
        a_pi = rand_complex(rng, (3, 3)) + 3.0 * np.eye(3)
        a_xi = rand_complex(rng, (2, 2)) - 3.0 * np.eye(2)
        q = rand_complex(rng, (2, 3))
        x = vk.solve_sylvester(a_pi, a_xi, q)
        assert frob(x @ a_pi - a_xi @ x - q) < 1e-10 * (frob(a_pi) + frob(a_xi)) * max(frob(x), 1)

    def test_row_permutation_uniqueness(self):
        rng = np.random.default_rng(4)
        a_pi = rand_complex(rng, (3, 3)) + 2.5 * np.eye(3)
        a_xi = rand_complex(rng, (3, 3)) - 2.5 * np.eye(3)
        q = rand_complex(rng, (3, 3))
        perm = np.array([2, 0, 1])
        x = vk.solve_sylvester(a_pi, a_xi, q)
        x_perm = vk.solve_sylvester(a_pi, a_xi[perm][:, perm], q[perm])
        assert frob(x_perm[np.argsort(perm)] - x) < 1e-12 * max(frob(x), 1.0)

    def test_overlapping_spectra_rejected(self):
        a = np.diag([1.0, 2.0]).astype(complex)
        with pytest.raises(SpectrumClash):
            vk.solve_sylvester(a, a, np.eye(2))


class TestMatrixExp:
    def test_zero(self):
        assert np.allclose(vk.matrix_exp(np.zeros((3, 3))), np.eye(3))

    def test_euler_identity(self):
        assert vk.matrix_exp(np.array([[1j * np.pi]]))[0, 0] == pytest.approx(-1.0, abs=1e-12)

    def test_nilpotent(self):
        n = np.array([[0.0, 1.0], [0.0, 0.0]])
        assert np.allclose(vk.matrix_exp(n), np.array([[1.0, 1.0], [0.0, 1.0]]))

    def test_non_finite(self):
        with pytest.raises(NonFinite):
            vk.matrix_exp(np.array([[np.inf]]))

    def test_relative_accuracy_moderate_norm(self):
        rng = np.random.default_rng(5)
        m = rand_complex(rng, (4, 4))
        m = 10.0 * m / frob(m)
        w, v = np.linalg.eig(m)
        ref = v @ np.diag(np.exp(w)) @ np.linalg.inv(v)
        assert frob(vk.matrix_exp(m) - ref) / frob(ref) < 1e-10


class TestValidation:
    def test_degenerate_dimension_rejected(self):
        empty = np.zeros((0, 0))
        for call in (lambda: vk.matrix_exp(empty), lambda: vk.hermitian_sqrt(empty),
                     lambda: vk.solve_sylvester(empty, np.eye(1), np.zeros((1, 0)))):
            with pytest.raises(ShapeMismatch, match="must have positive dimensions"):
                call()

    def test_hermitian_projection(self):
        rng = np.random.default_rng(6)
        x = rand_hermitian(rng, 3)
        noisy = x + 1e-14 * rand_complex(rng, (3, 3))
        proj = as_hermitian(noisy)
        assert frob(proj - proj.conj().T) == 0.0

    def test_hermitian_rejects_asymmetric(self):
        with pytest.raises(NotHermitian):
            as_hermitian(np.array([[1.0, 2.0], [0.0, 1.0]]))
        # An overflowing norm would make the relative test compare inf with inf.
        huge = np.array([[0.0, 1e200], [0.0, 0.0]])
        with pytest.raises(NonFinite, match="^matrix norm overflows$"):
            as_hermitian(huge)
        with pytest.raises(NonFinite, match="^sigma norm overflows at node 2$"):
            as_hermitian(np.stack([np.eye(2), np.eye(2), huge, huge]), "sigma")


def vessel_sigma2_guard(s2):
    """The vessel's Hermitian guard on a sigma2 stack (rtol 1e-9)."""
    v, _ = skew_chain_vessel(vk.TimeGrid(0.0, 1.0, len(s2) - 1))
    vk.DifferentialVessel(A1=v.A1, A2=v.A2, B=v.B, sigma1=v.sigma1,
                          sigma2=vk.GridOperatorFamily(v.grid, s2), gamma=v.gamma,
                          gamma_star=v.gamma_star)


@pytest.mark.parametrize("guard,rtol", [(vessel_sigma2_guard, 1e-9),
                                        (lambda s2: as_hermitian(s2, "sigma2"), 1e-12)])
def test_one_hermitian_guard_at_two_thresholds(guard, rtol):
    """The vessel and as_hermitian run one Hermitian check at their own rtol: a
    defect of 1e-10 relative at node 3 passes the vessel and fails as_hermitian,
    one 100 times past each rtol fails at node 3, one 100 times inside passes,
    and an overflowing norm raises the same NonFinite in both."""
    def stack(defect, node=3):
        s2 = np.stack([np.diag([1.0, -1.0]).astype(complex)] * 11)
        s2[node, 0, 1] = defect  # ||s2 - s2^H||_F = sqrt(2) defect, ||s2||_F ~ sqrt(2)
        return s2

    fails = f"^sigma2 not Hermitian at node 3: defect .* > {rtol:.1e} \\* "
    for defect in (1e-10, 1e-2 * rtol, 1e2 * rtol):
        if defect <= rtol:
            guard(stack(defect))
        else:
            with pytest.raises(NotHermitian, match=fails):
                guard(stack(defect))
    with pytest.raises(NonFinite, match="^sigma2 norm overflows at node 7$"):
        guard(stack(1e200, node=7))
