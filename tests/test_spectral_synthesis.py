import numpy as np
import pytest

import vesselkit as vk
import vesselkit.spectral_synthesis as synth
from vesselkit.errors import (DegenerateB, DegenerateEigenvalue, InconsistentInitialData,
                              NonFinite, ShapeMismatch, SpectrumClash)
from vesselkit.matrix_kernel import frob

from helpers import (
    SIGMA1_INDEFINITE,
    colligation_datum,
    const,
    fold_couple,
    perfbench_modules,
    rand_hermitian,
    rand_skew,
    skew_chain_vessel,
)
from test_march import doubling_reference


FAMILIES = ("A1", "A2", "B", "sigma1", "sigma2", "gamma", "gamma_star")


def assert_same_vessel(v, ref):
    for name in FAMILIES:
        got, want = getattr(v, name).data, getattr(ref, name).data
        assert got.shape == want.shape and got.tobytes() == want.tobytes(), name


def factor_reference(grid, z, row, a2, gamma, sigma1, sigma2):
    """One elementary vessel assembled on its own, as every factor once was:
    A1 = z, A2 = `a2` (N,), B = `row` (b^H) and the linkage's gamma_star."""
    bbh = row.conj().transpose(0, 2, 1) * row
    s1, s2 = sigma1.data, sigma2.data
    return vk.DifferentialVessel(
        A1=vk.GridOperatorFamily(grid, np.full((grid.n_nodes, 1, 1), z, dtype=complex)),
        A2=vk.GridOperatorFamily(grid, a2[:, None, None]),
        B=vk.GridOperatorFamily(grid, row),
        sigma1=sigma1,
        sigma2=sigma2,
        gamma=gamma,
        gamma_star=vk.GridOperatorFamily(gamma.grid, gamma.data + s2 @ bbh @ s1 - s1 @ bbh @ s2),
    )


def elementary_reference(datum, gamma, sigma1, sigma2, grid, normalize=False):
    """The per-factor elementary vessel: b from sigma1 b' = (z sigma2 + gamma) b,
    whose coefficient C is constant in these setups, as the powers of one
    exponential exp(h C) filled by doubling; A2 = -(b^H sigma2 b)/(2 b^H sigma1 b)
    + i theta'."""
    b0 = datum.b0
    if normalize:
        b0 = b0 / np.sqrt(float(np.real(b0.conj() @ sigma1[0] @ b0)))
    z = complex(datum.z)
    coeff = np.linalg.solve(sigma1.data, z * sigma2.data + gamma.data)
    assert np.array_equal(coeff, np.broadcast_to(coeff[0], coeff.shape))
    col = doubling_reference(vk.matrix_exp(grid.h * coeff[0]), b0.reshape(-1, 1), grid.n_steps)
    theta_prime = np.zeros(grid.n_nodes)
    if datum.theta is not None:
        theta_prime = np.real(vk.family_derivative(datum.theta).data[:, 0, 0])
    row = col.conj().transpose(0, 2, 1)
    p = (row @ sigma1.data @ col)[:, 0, 0]
    q = (row @ sigma2.data @ col)[:, 0, 0]
    return factor_reference(grid, z, row, -q / (2.0 * p) + 1j * theta_prime,
                            gamma, sigma1, sigma2)


def sigma2_setup(n_steps=40):
    """A grid, sigma1 = diag(1, -1), a Hermitian sigma2 != 0, a skew gamma, a
    theta family and two data, the first with and without theta."""
    grid = vk.TimeGrid(0.0, 1.0, n_steps)
    rng = np.random.default_rng(1)
    s1 = const(SIGMA1_INDEFINITE, grid)
    s2 = const(rand_hermitian(rng, 2, 0.3), grid)
    gam = const(rand_skew(rng, 2, 0.4), grid)
    theta = vk.GridOperatorFamily(grid, (0.3 * grid.nodes() ** 2)[:, None, None])
    d = colligation_datum([1.0, 0.3], 0.2, SIGMA1_INDEFINITE)
    first = (d, vk.SpectralDatum(z=d.z, b0=d.b0, theta=theta))
    return grid, s1, s2, gam, first, colligation_datum([1.0, 0.5j], -0.6, SIGMA1_INDEFINITE)


def scalar_setup(n_steps=40):
    grid = vk.TimeGrid(0.0, 1.0, n_steps)
    one = const(np.eye(1), grid)
    zero = const(np.zeros((1, 1)), grid)
    return grid, one, zero


class TestBuildElementary:
    def test_blaschke_closed_form(self):
        grid, one, zero = scalar_setup()
        b = np.array([1.3])
        z = complex(-abs(b[0]) ** 2 / 2.0, -0.8)
        v = vk.build_elementary(vk.SpectralDatum(z=z, b0=b), zero, one, zero, grid)
        # sigma2 = 0 with zero gamma keeps b constant
        assert np.allclose(v.B.data, v.B.data[0])
        for lam in (0.9 + 0.1j, 2.4 - 1.0j):
            s = vk.eval_transfer(v, lam, 20)[0, 0]
            assert s == pytest.approx((lam + np.conj(z)) / (lam - z), abs=1e-12)

    def test_theta_shifts_a2_only(self):
        rng = np.random.default_rng(0)
        grid = vk.TimeGrid(0.0, 1.0, 50)
        m = 2
        s1 = const(SIGMA1_INDEFINITE, grid)
        s2 = const(rand_hermitian(rng, m, 0.4), grid)
        gam = const(rand_skew(rng, m, 0.4), grid)
        theta = vk.GridOperatorFamily.from_callable(lambda t: np.array([[0.7 * t]]), grid)
        d0 = colligation_datum([1.0, 0.2j], 0.5, SIGMA1_INDEFINITE)
        base = vk.build_elementary(d0, gam, s1, s2, grid)
        shifted = vk.build_elementary(
            vk.SpectralDatum(z=d0.z, b0=d0.b0, theta=theta), gam, s1, s2, grid
        )
        assert np.allclose(shifted.A2.data - base.A2.data, 0.7j)
        for lam in (1.2 + 0.4j, -0.9 + 1.3j):
            assert frob(vk.eval_transfer(shifted, lam, 33)
                        - vk.eval_transfer(base, lam, 33)) < 1e-12

    def test_b0_phase_invariance(self):
        grid, one, zero = scalar_setup()
        b = np.array([0.8])
        z = complex(-0.32, 0.6)
        v1 = vk.build_elementary(vk.SpectralDatum(z=z, b0=b), zero, one, zero, grid)
        v2 = vk.build_elementary(vk.SpectralDatum(z=z, b0=np.exp(0.9j) * b), zero, one, zero, grid)
        lam = 1.5 - 0.2j
        assert frob(vk.eval_transfer(v1, lam, 7) - vk.eval_transfer(v2, lam, 7)) < 1e-14

    def test_degenerate_b_rejected(self):
        grid = vk.TimeGrid(0.0, 1.0, 10)
        s1 = const(SIGMA1_INDEFINITE, grid)
        zero = const(np.zeros((2, 2)), grid)
        # On the null cone of the indefinite metric: b^H sigma1 b = 0.
        with pytest.raises(DegenerateB):
            vk.build_elementary(vk.SpectralDatum(z=-0.5 + 0j, b0=np.array([1.0, 1.0])),
                                zero, s1, zero, grid)

    def test_normalization_mode(self):
        grid = vk.TimeGrid(0.0, 1.0, 30)
        s1 = const(np.eye(2), grid)
        zero = const(np.zeros((2, 2)), grid)
        v = vk.build_elementary(
            vk.SpectralDatum(z=-0.5 + 0.1j, b0=np.array([3.0, 4.0])),
            zero, s1, zero, grid, normalize=True,
        )
        b0 = v.B[0][0].conj()
        assert float(np.real(b0.conj() @ s1[0] @ b0)) == pytest.approx(1.0)


class TestBuildDiscrete:
    def test_single_datum_matches_elementary(self):
        """build_elementary and build_discrete of one datum against the
        per-factor assembly, bit for bit, with theta, normalize and sigma2 != 0."""
        grid, s1, s2, gam, first, _ = sigma2_setup()
        for d in first:
            for normalize in (False, True):
                ref = elementary_reference(d, gam, s1, s2, grid, normalize)
                assert_same_vessel(vk.build_elementary(d, gam, s1, s2, grid, normalize), ref)
                assert_same_vessel(vk.build_discrete([d], gam, s1, s2, grid, normalize), ref)

    def test_chain_columns_fourth_order(self):
        """sigma2 != 0: the second datum's coefficient moves with the first
        datum's column, and its 4th-order Magnus steps cut the error of B about
        16-fold per halving of h (exponential midpoint steps cut it 4-fold)."""
        def chain_b(n_steps):
            grid, s1, s2, gam, first, second = sigma2_setup(n_steps)
            return vk.build_discrete([first[0], second], gam, s1, s2, grid).B.data

        ref = chain_b(640)
        err = [np.max(np.abs(chain_b(n) - ref[::640 // n])) for n in (20, 40)]
        assert err[1] < 1e-8 and err[0] / err[1] > 12.0

    @pytest.mark.parametrize("seed", [0, 5, 14])
    def test_probe_vessels_keep_colligation1(self, seed, monkeypatch, tmp_path):
        """node_batch's 10-step probe chains (n = 16 and 20, sigma2 = 0, skew
        gamma): the exponential steps keep every b^H sigma1 b, and with them
        the first colligation, at round-off on this coarse grid."""
        inputs, workloads = perfbench_modules(monkeypatch)
        probes = workloads.NodeBatch().make(inputs.rng_for(seed, 0), "full", str(tmp_path))
        for _, v, _ in probes["probes"]:
            res = vk.verify_vessel(v).residuals["colligation1"]
            assert res <= 1e-12 * max(v.A1.max_norm(), 1.0)

    def test_extracted_factor_matches_per_factor_assembly(self, monkeypatch):
        """extract_elementary's factor is the per-factor assembly of (z, g^H B,
        g^H A2 g) on the transported unit vector g, bit for bit."""
        grid, s1, s2, gam, first, second = sigma2_setup()
        marched = []
        march = synth._magnus_march
        monkeypatch.setattr(synth, "_magnus_march",
                            lambda *a: marched.append(march(*a)) or marched[-1])
        for d in first:
            for normalize in (False, True):
                v = vk.build_discrete([d, second], gam, s1, s2, grid, normalize)
                res = vk.extract_elementary(v, d.z)
                g = marched[-1] / frob(marched[-1])[:, None, None]
                gh = g.conj().transpose(0, 2, 1)
                ref = factor_reference(grid, res.eigenvalue, gh @ v.B.data,
                                       (gh @ v.A2.data @ g)[:, 0, 0], v.gamma, s1, s2)
                assert_same_vessel(res.factor, ref)

    def test_one_vessel_per_call(self, monkeypatch):
        grid, s1, s2, gam, first, second = sigma2_setup()
        built = []
        post_init = vk.DifferentialVessel.__post_init__
        monkeypatch.setattr(vk.DifferentialVessel, "__post_init__",
                            lambda self: built.append(self) or post_init(self))
        vk.build_discrete([first[0], second, first[1]], gam, s1, s2, grid)
        assert len(built) == 1
        vk.build_elementary(first[1], gam, s1, s2, grid)
        assert len(built) == 2

    def test_matches_couple_fold(self):
        grid = vk.TimeGrid(0.0, 1.0, 60)
        v, data = skew_chain_vessel(grid, seed=5, n_points=3)
        s1 = v.sigma1
        s2 = v.sigma2
        f1 = vk.build_elementary(data[0], v.gamma, s1, s2, grid)
        f2 = vk.build_elementary(data[1], f1.gamma_star, s1, s2, grid)
        f3 = vk.build_elementary(data[2], f2.gamma_star, s1, s2, grid)
        folded = fold_couple([f1, f2, f3])
        for name in ("A1", "A2", "B", "gamma", "gamma_star"):
            assert np.max(np.abs(getattr(v, name).data - getattr(folded, name).data)) < 1e-12

    def test_triangular_spectrum(self):
        grid = vk.TimeGrid(0.0, 1.0, 20)
        v, data = skew_chain_vessel(grid, seed=5, n_points=3)
        eigs = np.linalg.eigvals(v.A1[13])
        want = sorted((d.z for d in data), key=lambda z: (z.real, z.imag))
        got = sorted(eigs, key=lambda z: (z.real, z.imag))
        assert np.allclose(got, want)

    def test_transfer_is_product_of_factors(self):
        grid = vk.TimeGrid(0.0, 1.0, 50)
        v, data = skew_chain_vessel(grid, seed=5, n_points=3)
        f1 = vk.build_elementary(data[0], v.gamma, v.sigma1, v.sigma2, grid)
        f2 = vk.build_elementary(data[1], f1.gamma_star, v.sigma1, v.sigma2, grid)
        f3 = vk.build_elementary(data[2], f2.gamma_star, v.sigma1, v.sigma2, grid)
        rng = np.random.default_rng(2)
        for _ in range(5):
            lam = complex(rng.uniform(1.5, 3.0), rng.uniform(-2, 2))
            node = int(rng.integers(0, grid.n_nodes))
            prod = (vk.eval_transfer(f3, lam, node)
                    @ vk.eval_transfer(f2, lam, node)
                    @ vk.eval_transfer(f1, lam, node))
            assert frob(vk.eval_transfer(v, lam, node) - prod) < 1e-10

    def test_gamma_chain_telescopes(self):
        grid = vk.TimeGrid(0.0, 1.0, 30)
        v, data = skew_chain_vessel(grid, seed=5, n_points=3)
        for i in (0, 15, 30):
            s1 = v.sigma1[i]
            s2 = v.sigma2[i]
            acc = np.zeros_like(s1)
            for h in range(3):
                b = v.B[i][h].conj()
                bbh = np.outer(b, b.conj())
                acc = acc + s2 @ bbh @ s1 - s1 @ bbh @ s2
            assert frob(v.gamma_star[i] - v.gamma[i] - acc) < 1e-12

    def test_chain_state_recurrence(self):
        grid = vk.TimeGrid(0.0, 1.0, 25)
        v, data = skew_chain_vessel(grid, seed=5, n_points=3)
        state = vk.discrete_chain(data, v.gamma, v.sigma1, v.sigma2, grid)
        assert len(state.gamma_chain) == 4 and len(state.b_evolved) == 3
        for h in range(3):
            for i in (0, 12, 25):
                b = state.b_evolved[h][i][:, 0]
                bbh = np.outer(b, b.conj())
                step = (v.sigma2[i] @ bbh @ v.sigma1[i]
                        - v.sigma1[i] @ bbh @ v.sigma2[i])
                assert frob(state.gamma_chain[h + 1][i]
                            - state.gamma_chain[h][i] - step) < 1e-12


class TestExtractElementary:
    def test_full_extraction_of_single_factor(self):
        grid = vk.TimeGrid(0.0, 1.0, 40)
        v, data = skew_chain_vessel(grid, seed=5, n_points=1)
        res = vk.extract_elementary(v, 0, node_ref=0)
        for lam in (1.4 + 0.3j, 2.2 - 0.7j):
            q = res.quotient_transfer(lam, 23)
            assert frob(q - np.eye(v.signal_dim)) < 1e-10

    def test_two_data_quotient_matches_second_factor(self):
        grid = vk.TimeGrid(0.0, 1.0, 80)
        v, data = skew_chain_vessel(grid, seed=5, n_points=2)
        res = vk.extract_elementary(v, data[0].z, node_ref=0)
        assert res.eigenvalue == pytest.approx(data[0].z)
        f1 = vk.build_elementary(data[0], v.gamma, v.sigma1, v.sigma2, grid)
        f2 = vk.build_elementary(data[1], f1.gamma_star, v.sigma1, v.sigma2, grid)
        for lam in (1.3 + 0.4j, -1.5 + 0.8j):
            for node in (0, 40, 80):
                assert frob(res.quotient_transfer(lam, node)
                            - vk.eval_transfer(f2, lam, node)) < 1e-8

    def test_extraction_recoupling_round_trip(self):
        grid = vk.TimeGrid(0.0, 1.0, 60)
        v, data = skew_chain_vessel(grid, seed=5, n_points=3)
        res = vk.extract_elementary(v, data[0].z, node_ref=0)
        rest = vk.build_discrete(data[1:], res.factor.gamma_star, v.sigma1, v.sigma2, grid)
        recoupled = vk.couple(res.factor, rest)
        rng = np.random.default_rng(3)
        for _ in range(10):
            lam = complex(rng.uniform(1.5, 3.5), rng.uniform(-2, 2))
            node = int(rng.integers(0, grid.n_nodes))
            assert frob(vk.eval_transfer(recoupled, lam, node)
                        - vk.eval_transfer(v, lam, node)) < 1e-8

    def test_quotient_pole_removed(self):
        grid = vk.TimeGrid(0.0, 1.0, 40)
        v, data = skew_chain_vessel(grid, seed=5, n_points=2)
        res = vk.extract_elementary(v, data[0].z, node_ref=0)
        r = vk.residue_norm(lambda lam: res.quotient_transfer(lam, 25), res.eigenvalue,
                            radius=1e-3)
        assert r < 1e-10

    def test_degenerate_eigenvalue_rejected(self):
        grid = vk.TimeGrid(0.0, 1.0, 20)
        m = 2
        s1 = const(np.eye(m), grid)
        zero = const(np.zeros((m, m)), grid)
        d = vk.SpectralDatum(z=-0.5 + 0.3j, b0=np.array([1.0, 0.0]))
        d2 = vk.SpectralDatum(z=-0.5 + 0.3j, b0=np.array([0.0, 1.0]))
        v = vk.build_discrete([d, d2], zero, s1, zero, grid)
        with pytest.raises(DegenerateEigenvalue):
            vk.extract_elementary(v, d.z, node_ref=0)

    @pytest.mark.parametrize("which", [7, 2, -1, np.int64(-3)], ids=["7", "2", "-1", "int64-3"])
    def test_index_outside_the_spectrum_rejected(self, which):
        grid = vk.TimeGrid(0.0, 1.0, 40)
        v, _ = skew_chain_vessel(grid, seed=5, n_points=2)
        with pytest.raises(ShapeMismatch, match=rf"index {which} outside \[0, 2\)"):
            vk.extract_elementary(v, which, node_ref=0)
        assert vk.extract_elementary(v, 1, node_ref=0).eigenvalue is not None


class TestMultIntegral:
    def test_empty_product(self):
        grid = vk.TimeGrid(0.0, 1.0, 10)
        k = const(np.eye(2), grid)
        w = vk.mult_integral(k, np.zeros(11), 2.0, 0)
        assert np.allclose(w, np.eye(2))

    def test_constant_scalar_kernel_exponential(self):
        # Commuting factors: the ordered product telescopes to one exponential.
        grid = vk.TimeGrid(0.0, 2.0, 2000)
        k = const(np.array([[1j]]), grid)
        lam = 1.5
        w = vk.mult_integral(k, np.zeros(grid.n_nodes), lam, grid.n_steps)
        assert abs(w[0, 0] - np.exp(2j / lam)) < 1e-3

    def test_constant_matrix_kernel_matches_exp(self):
        rng = np.random.default_rng(4)
        grid = vk.TimeGrid(0.0, 1.0, 500)
        km = rand_skew(rng, 2, 0.8)
        k = const(km, grid)
        lam = 2.0 + 0.5j
        w = vk.mult_integral(k, np.zeros(grid.n_nodes), lam, grid.n_steps)
        assert frob(w - vk.matrix_exp(km / lam)) < 1e-10

    def test_noncommuting_first_order_refinement(self):
        def product(n_steps):
            g = vk.TimeGrid(0.0, 1.0, n_steps)
            s = g.nodes()
            kd = np.stack([np.array([[1j, 0.5 * t], [-0.5 * t, 0.5j]]) for t in s])
            return vk.mult_integral(vk.GridOperatorFamily(g, kd), 0.3 * s, 1.2 + 0.4j,
                                    g.n_steps)

        ref = product(6400)
        e1 = frob(product(400) - ref)
        e2 = frob(product(800) - ref)
        assert 1.8 <= e1 / e2 <= 2.2

    def test_pole_hit_rejected(self):
        grid = vk.TimeGrid(0.0, 1.0, 10)
        k = const(np.eye(1), grid)
        c = np.linspace(0.0, 1.0, 11)
        with pytest.raises(SpectrumClash):
            vk.mult_integral(k, c, -0.5, 10)


class TestPotapovHalves:
    """The two halves of Potapov's formula meet on sigma1 = I, sigma2 = gamma = 0:
    the discrete chain of N data b_k = beta(s_k) sqrt(ds) and z_k = i a(s_k) -
    |b_k|^2 / 2, at the midpoints s_k of [0, 1], has the transfer of the
    left-ordered product of exp(-beta beta^H sigma1 ds / (lam - i a(s_k))),
    factor 0 rightmost.  The product is taken here: mult_integral's c is real."""

    lam = 1.0 + 0.3j

    def misses(self, n):
        """The chain's transfer against the left- and the right-ordered product."""
        ds = 1.0 / n
        s = (np.arange(n) + 0.5) * ds
        beta = np.stack([np.cos(s), 0.4 + 0.3j * s], axis=1)
        a = 0.5 + s
        b = beta * np.sqrt(ds)
        z = 1j * a - np.sum(np.abs(b) ** 2, axis=1) / 2.0
        grid = vk.TimeGrid(0.0, 1.0, 4)
        zero = const(np.zeros((2, 2)), grid)
        v = vk.build_discrete([vk.SpectralDatum(z=zk, b0=bk) for zk, bk in zip(z, b)],
                              zero, const(np.eye(2), grid), zero, grid)
        assert max(vk.verify_vessel(v).residuals.values()) <= 1e-13
        factors = vk.matrix_exp(-np.einsum("ki,kj->kij", beta, beta.conj())
                                * (ds / (self.lam - 1j * a))[:, None, None])
        left, right = np.eye(2, dtype=complex), np.eye(2, dtype=complex)
        for f in factors:
            left, right = f @ left, right @ f
        s_chain = vk.eval_transfer(v, self.lam, 0)
        return frob(s_chain - left), frob(s_chain - right)

    def test_chain_transfer_meets_the_left_ordered_product(self):
        """The miss falls about 4-fold per doubling of N (9.3e-6, 2.3e-6, 5.8e-7);
        the right-ordered product stays 3.5e-2 away."""
        left, right = zip(*(self.misses(n) for n in (50, 100, 200)))
        assert left[0] < 1e-5
        assert all(left[i] / left[i + 1] >= 3.5 for i in range(2))
        assert all(r > 1e-2 for r in right)


class TestRealC:
    """c is real: an imaginary part raises ShapeMismatch naming c (it used to
    be dropped with a ComplexWarning), and a zero one changes no bit."""

    grid = vk.TimeGrid(0.0, 1.0, 10)
    c = np.linspace(0.0, 1.0, 11)

    def model(self, c):
        beta = np.ones((self.grid.n_nodes, 2, 1), dtype=complex)
        return vk.ContinuousSpectrumModel(s_grid=self.grid, c=c, beta=beta,
                                          gamma_s=np.zeros((self.grid.n_nodes, 2, 2)))

    def test_imaginary_part_rejected(self):
        k = const(np.array([[1.0, 0.5j], [-0.5j, 0.3]]), self.grid)
        c = self.c.astype(complex)
        c[4] += 7j
        with pytest.raises(ShapeMismatch, match=r"^c must be real, got \(0\.4\+7j\) at s node 4$"):
            vk.mult_integral(k, c, 2.0 + 0.5j, 10)
        with pytest.raises(ShapeMismatch, match=r"^c must be real, got .* at s node 4$"):
            self.model(c)

    def test_zero_imaginary_part_is_the_real_c(self):
        k = const(np.array([[1.0, 0.5j], [-0.5j, 0.3]]), self.grid)
        as_complex = self.c.astype(complex)
        w_real, w_complex = (vk.mult_integral(k, c, 2.0 + 0.5j, 10) for c in (self.c, as_complex))
        assert w_real.tobytes() == w_complex.tobytes()
        assert self.model(as_complex).c.tobytes() == self.model(list(self.c)).c.tobytes()
        assert self.model(as_complex).c.dtype == float


class TestNonFiniteContinuousData:
    """NaN or Inf in c, beta or gamma_s raises NonFinite naming the field (and
    the s node of c); an infinite c used to be a silent identity step."""

    grid = vk.TimeGrid(0.0, 1.0, 10)

    def fields(self):
        return {"c": np.linspace(0.0, 1.0, 11), "beta": np.ones((11, 2, 1), dtype=complex),
                "gamma_s": np.zeros((11, 2, 2), dtype=complex)}

    @pytest.mark.parametrize("bad", [np.inf, np.nan, complex(0.0, np.nan)])
    def test_c(self, bad):
        c = self.fields()["c"].astype(complex)
        c[6] = bad
        with pytest.raises(NonFinite, match="^c contains NaN or Inf at s node 6$"):
            vk.mult_integral(const(np.eye(2), self.grid), c, 2.0 + 0.5j, 10)
        with pytest.raises(NonFinite, match="^c contains NaN or Inf at s node 6$"):
            vk.ContinuousSpectrumModel(s_grid=self.grid, **{**self.fields(), "c": c})

    @pytest.mark.parametrize("name", ["beta", "gamma_s"])
    def test_beta_and_gamma_s(self, name):
        fields = self.fields()
        fields[name][4, 1, 0] = np.nan
        with pytest.raises(NonFinite, match=f"^{name} contains NaN or Inf$"):
            vk.ContinuousSpectrumModel(s_grid=self.grid, **fields)

    def test_a_nan_consistency_bound_fails_the_guard(self):
        model = vk.ContinuousSpectrumModel(s_grid=self.grid, **self.fields())
        with pytest.raises(InconsistentInitialData):
            vk.continuous_model_evolve(model, np.eye(2), np.zeros((2, 2)), self.grid,
                                       consistency_tol=np.nan)


class TestContinuousModel:
    def decoupled_model(self, n_s, m=2, seed=6):
        rng = np.random.default_rng(seed)
        s_grid = vk.TimeGrid(0.0, 1.0, n_s)
        g_const = rand_skew(rng, m, 0.4)
        beta0 = np.stack(
            [np.array([[np.cos(s)], [np.sin(s) + 0.3j]]) for s in s_grid.nodes()]
        )
        model = vk.ContinuousSpectrumModel(
            s_grid=s_grid,
            c=0.5 * s_grid.nodes(),
            beta=beta0,
            gamma_s=np.broadcast_to(g_const, (s_grid.n_nodes, m, m)).copy(),
        )
        return model, g_const

    def test_decoupled_evolution_closed_form(self):
        model, g_const = self.decoupled_model(100)
        t_grid = vk.TimeGrid(0.0, 1.0, 100)
        s1 = np.eye(2)
        s2 = np.zeros((2, 2))
        evolved, res = vk.continuous_model_evolve(model, s1, s2, t_grid,
                                                  probe_lambdas=(1.1 + 0.6j,))
        # beta(t, s) = exp(gamma (t - t0)) beta(t0, s) when sigma2 = 0
        t = t_grid.node(40)
        ref = vk.matrix_exp(g_const * t) @ model.beta[17]
        assert frob(evolved.beta[40, 17] - ref) < 1e-10
        assert res.gamma_s_equation < 1e-10

    def test_kernel_evolution_residual(self):
        model, _ = self.decoupled_model(100)
        t_grid = vk.TimeGrid(0.0, 1.0, 100)
        _, res = vk.continuous_model_evolve(model, np.eye(2), np.zeros((2, 2)), t_grid,
                                            probe_lambdas=(1.1 + 0.6j,))
        assert res.kernel_evolution < 1e-4
        assert res.product_derivative < 0.05
        assert res.mixed_partials < 0.05

    def test_scalar_quadrature_oracle(self):
        # m = 1: the product integral is the exponential of a plain integral.
        n_s = 400
        s_grid = vk.TimeGrid(0.0, 1.0, n_s)
        beta0 = np.stack([np.array([[1.0 + 0.2 * s]]) for s in s_grid.nodes()])
        model = vk.ContinuousSpectrumModel(
            s_grid=s_grid, c=0.3 * s_grid.nodes(), beta=beta0,
            gamma_s=np.zeros((s_grid.n_nodes, 1, 1)),
        )
        lam = 1.4 + 0.2j
        k = model.kernel_at(None, np.eye(1))
        w = vk.mult_integral(vk.GridOperatorFamily(s_grid, k), model.c, lam, n_s)
        # left-endpoint quadrature of the scalar integral
        ds = s_grid.h
        integral = sum(k[j, 0, 0] / (lam + model.c[j]) * ds for j in range(n_s))
        assert abs(w[0, 0] - np.exp(integral)) < 5.0 * ds

    def test_decoupled_mixed_partials_vanish(self):
        # Constant coefficient in s: the kernel cross-difference is exact.
        model, _ = self.decoupled_model(50)
        _, res = vk.continuous_model_evolve(model, np.eye(2), np.zeros((2, 2)),
                                            vk.TimeGrid(0.0, 1.0, 50),
                                            probe_lambdas=(1.1 + 0.6j,))
        assert res.mixed_partials < 1e-12

    def coupled_compatible_model(self, n, seed=8):
        rng = np.random.default_rng(seed)
        m = 2
        s_grid = vk.TimeGrid(0.0, 1.0, n)
        beta0 = np.stack([np.array([[np.cos(s)], [0.4 + 0.3j * s]]) for s in s_grid.nodes()])
        s1 = np.eye(m)
        s2 = np.array([[0.3, 0.1], [0.1, -0.2]])
        c_const = 0.4
        gamma0 = rand_skew(rng, m, 0.3) + c_const * s2
        c_arr = np.full(n + 1, c_const)
        gamma_s = vk.consistent_gamma_s(beta0, c_arr, s1, s2, gamma0, s_grid)
        model = vk.ContinuousSpectrumModel(s_grid=s_grid, c=c_arr, beta=beta0,
                                           gamma_s=gamma_s)
        return model, s1, s2

    def test_mixed_partials_second_order(self):
        resids = []
        for n in (100, 200):
            model, s1, s2 = self.coupled_compatible_model(n)
            _, res = vk.continuous_model_evolve(model, s1, s2, vk.TimeGrid(0.0, 1.0, n),
                                                probe_lambdas=(1.3 + 0.5j,),
                                                consistency_tol=1e-4)
            resids.append(res.mixed_partials)
        assert 3.0 <= resids[0] / resids[1] <= 5.0

    def test_inconsistent_gamma_s_rejected(self):
        from vesselkit.errors import InconsistentInitialData

        rng = np.random.default_rng(7)
        n_s = 50
        s_grid = vk.TimeGrid(0.0, 1.0, n_s)
        beta0 = np.stack([np.array([[1.0], [0.5 * s]]) for s in s_grid.nodes()])
        # wildly s-dependent gamma_s that does not satisfy its equation
        gamma_s = np.stack([np.sin(5 * s) * np.array([[0.0, 1.0], [-1.0, 0.0]])
                            for s in s_grid.nodes()])
        model = vk.ContinuousSpectrumModel(s_grid=s_grid, c=np.zeros(n_s + 1),
                                           beta=beta0, gamma_s=gamma_s)
        s2 = np.array([[0.3, 0.0], [0.0, -0.2]])
        with pytest.raises(InconsistentInitialData):
            vk.continuous_model_evolve(model, np.eye(2), s2, vk.TimeGrid(0.0, 1.0, 20),
                                       consistency_tol=1e-8)

    def test_consistent_gamma_s_builder(self):
        # Coupled sigma2 with constant c: the builder makes the gamma_s
        # equation hold at t_start (the precondition check passes) and the
        # compatibility gamma0 + gamma0^H = 2 c sigma2 keeps the kernel
        # evolution law exact; away from t_start the gamma_s residual is a
        # report of model drift for synthetic data, not an assertion.
        rng = np.random.default_rng(8)
        n_s = 200
        s_grid = vk.TimeGrid(0.0, 1.0, n_s)
        m = 2
        beta0 = np.stack([np.array([[np.cos(s)], [0.4 + 0.3j * s]]) for s in s_grid.nodes()])
        s1 = np.eye(m)
        s2 = np.array([[0.3, 0.1], [0.1, -0.2]])
        c_const = 0.4
        gamma0 = rand_skew(rng, m, 0.3) + c_const * s2
        c_arr = np.full(n_s + 1, c_const)
        gamma_s = vk.consistent_gamma_s(beta0, c_arr, s1, s2, gamma0, s_grid)
        model = vk.ContinuousSpectrumModel(s_grid=s_grid, c=c_arr,
                                           beta=beta0, gamma_s=gamma_s)
        evolved, res = vk.continuous_model_evolve(model, s1, s2,
                                                  vk.TimeGrid(0.0, 1.0, 100),
                                                  probe_lambdas=(1.3 + 0.5j,),
                                                  consistency_tol=1e-4)
        assert res.kernel_evolution < 1e-4
        assert np.isfinite(res.gamma_s_equation)

    def test_kernel_at_evolved_model_takes_a_t_node(self):
        model, _ = self.decoupled_model(20)
        evolved, _ = vk.continuous_model_evolve(model, np.eye(2), np.zeros((2, 2)),
                                                vk.TimeGrid(0.0, 1.0, 10))
        beta = evolved.beta[3]
        ref = np.einsum("sij,skj->sik", beta, beta.conj())
        assert np.array_equal(evolved.kernel_at(3, np.eye(2)), ref @ np.eye(2))
        with pytest.raises(ShapeMismatch, match="model is evolved: pass a t node"):
            evolved.kernel_at(None, np.eye(2))

    def test_kernel_at_model_not_evolved_takes_none(self):
        model, _ = self.decoupled_model(20)
        with pytest.raises(ShapeMismatch, match="model is not evolved: pass t_index=None"):
            model.kernel_at(3, np.eye(2))

    def test_gamma_s_residual_matches_inverse_form(self):
        """The gamma_s residual applies sigma1^(-1) by one LU; against the
        inverse-times-product form it agrees to round-off on a sigma1 that is
        not the identity (where the two forms round differently)."""
        model, _, s2 = self.coupled_compatible_model(40)
        s1 = np.array([[2.0, 0.3j], [-0.3j, -1.5]])
        evolved, res = vk.continuous_model_evolve(model, s1, s2, vk.TimeGrid(0.0, 1.0, 20),
                                                  probe_lambdas=(1.3 + 0.5j,),
                                                  consistency_tol=1.0)
        s1_inv = np.linalg.inv(s1)
        kern = np.einsum("tsij,tskj->tsik", evolved.beta, evolved.beta.conj())[:, 1:-1] @ s1
        dgam = vk.family_derivative(vk.GridOperatorFamily(model.s_grid, model.gamma_s)).data
        ref = s1_inv @ dgam[1:-1] + s1_inv @ s2 @ kern - kern @ s1_inv @ s2
        want = np.max(np.linalg.norm(ref, axis=(-2, -1)))
        assert abs(res.gamma_s_equation - want) <= 64 * np.finfo(float).eps * want
