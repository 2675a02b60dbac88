"""One two-way march, one ordered product, one ODE coefficient, one coupling
quadrature: each shared helper against the loop it replaced, kept here as the
reference, bit for bit."""

import numpy as np
import pytest
import scipy.linalg

import vesselkit as vk
import vesselkit.spectral_synthesis as synth
import vesselkit.vessel_core as core
from vesselkit.config import DEFAULTS
from vesselkit.errors import NonFinite, ShapeMismatch, SpectrumClash
from vesselkit.matrix_kernel import frob, max_frob
from vesselkit.ode_engine import _interp, _interp4, _rk4_path

from helpers import const, rand_complex, rand_hermitian, rand_skew, skew_chain_vessel


def same_bits(a, b) -> bool:
    a, b = np.asarray(a), np.asarray(b)
    return a.shape == b.shape and a.tobytes() == b.tobytes()


def splice_reference(cdata, m0, grid, base):
    """The hand-spliced march: forward from `base`, then backward, reversed."""

    def rhs(pos, mat):
        return _interp(cdata, pos) @ mat

    out = np.empty((grid.n_nodes,) + m0.shape, dtype=complex)
    out[base:] = np.stack(_rk4_path(rhs, m0, grid, base, grid.n_steps))
    if base > 0:
        out[: base + 1] = np.stack(_rk4_path(rhs, m0, grid, base, 0)[::-1])
    return out


def varying_coefficients(grid, m=3, seed=21):
    """sigma1, sigma2, gamma that all vary along the grid; sigma1 stays invertible."""
    rng = np.random.default_rng(seed)
    t = grid.nodes()[:, None, None]
    s1 = rand_hermitian(rng, m) + 4.0 * np.eye(m) + t * rand_hermitian(rng, m, 0.5)
    s2 = rand_hermitian(rng, m, 0.4) * np.cos(t)
    g = rand_skew(rng, m, 0.5) + t ** 2 * rand_complex(rng, (m, m), 0.2)
    return tuple(vk.GridOperatorFamily(grid, x) for x in (s1, s2, g))


class TestTwoWayMarch:
    grid = vk.TimeGrid(0.0, 1.0, 30)

    @pytest.mark.parametrize("base", [0, 11, 30])
    def test_fundamental_matrix_matches_splice(self, base):
        s1, s2, g = varying_coefficients(self.grid)
        lam = 0.7 - 1.3j
        coeff = np.stack([np.linalg.solve(s1[i], lam * s2[i] + g[i])
                          for i in range(self.grid.n_nodes)])
        ref = splice_reference(coeff, np.eye(3, dtype=complex), self.grid, base)
        phi = vk.fundamental_matrix(lam, s1, s2, g, self.grid, base_index=base)
        assert same_bits(phi.family.data, ref)

    @pytest.mark.parametrize("direction, base", [("forward", 0), ("backward", 30)])
    def test_integrate_linear_ode_matches_one_way_path(self, direction, base):
        coeff = varying_coefficients(self.grid)[2]
        m0 = rand_complex(np.random.default_rng(3), (3, 2))
        fam = vk.integrate_linear_ode(coeff, m0, self.grid, direction)
        assert same_bits(fam.data, splice_reference(coeff.data, m0, self.grid, base))

    def test_extract_elementary_transport_from_interior_node(self):
        grid = vk.TimeGrid(0.0, 1.0, 24)
        v, _ = skew_chain_vessel(grid, n_points=3)
        node_ref = 9
        res = vk.extract_elementary(v, 1, node_ref=node_ref)
        # Reference transport: g' = -A2^H g both ways from node_ref, per column.
        eigs, vl = np.linalg.eig(v.A1[node_ref].conj().T)
        g0 = vl[:, synth._select_eigenvalue(eigs.conj(), 1)]
        g0 = g0 / np.linalg.norm(g0)
        raw = splice_reference(-v.A2.data.conj().transpose(0, 2, 1), g0.reshape(-1, 1),
                               grid, node_ref)[:, :, 0]
        g = (raw / frob(raw[:, None, :])[:, None])[:, :, None]
        assert same_bits(res.factor.B.data, g.conj().transpose(0, 2, 1) @ v.B.data)
        assert same_bits(res.factor.A2.data, g.conj().transpose(0, 2, 1) @ v.A2.data @ g)


def mult_integral_reference(kernel, c, lam, s_upper):
    """The per-factor loop: one exponential and one product per s step."""
    eps_spec = DEFAULTS.eps_spec_rel * max(kernel.max_norm(), 1.0)
    ds = kernel.grid.h
    w = np.eye(kernel.shape[0], dtype=complex)
    for j in range(s_upper):
        denom = lam + c[j]
        if abs(denom) <= eps_spec:
            raise SpectrumClash(f"lambda + c(s_{j}) = {denom} too close to zero")
        w = scipy.linalg.expm(kernel[j] * (ds / denom)) @ w
    return w


class TestOrderedProduct:
    grid = vk.TimeGrid(0.0, 1.0, 200)

    def kernel(self, seed=4):
        rng = np.random.default_rng(seed)
        s = self.grid.nodes()[:, None, None]
        k = rand_complex(rng, (2, 2), 0.8) + np.sin(3.0 * s) * rand_complex(rng, (2, 2), 0.5)
        return vk.GridOperatorFamily(self.grid, k), 0.3 + 0.7 * np.sin(2.0 * s[:, 0, 0])

    @pytest.mark.parametrize("s_upper", [0, 1, 77, 200])
    def test_matches_per_factor_loop(self, s_upper):
        kernel, c = self.kernel()
        for lam in (1.2 + 0.4j, -0.35 + 0.9j, 2.0, 0.8 - 1.7j):
            ref = mult_integral_reference(kernel, c, lam, s_upper)
            assert same_bits(vk.mult_integral(kernel, c, lam, s_upper), ref)

    def test_clash_names_first_step(self):
        kernel, _ = self.kernel()
        c = np.linspace(0.0, 1.0, self.grid.n_nodes)
        c[[150, 60]] = 0.5  # lambda = -0.5 clashes at s_60 first, then at s_100 and s_150
        with pytest.raises(SpectrumClash) as ref:
            mult_integral_reference(kernel, c, -0.5, 200)
        with pytest.raises(SpectrumClash, match=r"c\(s_60\)") as got:
            vk.mult_integral(kernel, c, -0.5, 200)
        assert str(got.value) == str(ref.value)
        assert same_bits(vk.mult_integral(kernel, c, -0.5, 60),
                         mult_integral_reference(kernel, c, -0.5, 60))

    def test_overflow_before_the_clash_is_reported_first(self):
        """As in the loop, the steps before a clash are exponentiated first."""
        grid = vk.TimeGrid(0.0, 1.0, 10)
        c = np.zeros(11)
        c[[2, 5]] = 1e-4 - 0.5, -0.5  # exp(0.1 / 1e-4) overflows at s_2; s_5 clashes
        with pytest.raises(NonFinite, match="at node 2$"):
            vk.mult_integral(const(np.eye(1), grid), c, 0.5, 10)
        c[2] = 0.0
        with pytest.raises(SpectrumClash, match=r"c\(s_5\)"):
            vk.mult_integral(const(np.eye(1), grid), c, 0.5, 10)


class TestContinuousModelSteps:
    def model(self, n_s=30, m=2, seed=12):
        rng = np.random.default_rng(seed)
        sg = vk.TimeGrid(0.0, 1.0, n_s)
        s = sg.nodes()
        beta0 = np.stack([np.array([[np.cos(x) + 0.2j], [0.4 + 0.3j * x]]) for x in s])
        s1 = rand_hermitian(rng, m) + 3.0 * np.eye(m)
        s2 = rand_hermitian(rng, m, 0.3)
        c = 0.4 + 0.3 * s
        gamma_s = vk.consistent_gamma_s(beta0, c, s1, s2, rand_skew(rng, m, 0.3), sg)
        return vk.ContinuousSpectrumModel(s_grid=sg, c=c, beta=beta0, gamma_s=gamma_s), s1, s2

    def test_consistent_gamma_s_matches_trapezoid_loop(self):
        model, s1, s2 = self.model()
        k = model.kernel_at(None, s1)
        rhs = [s1 @ k[j] @ np.linalg.solve(s1, s2) - s2 @ k[j] for j in range(len(k))]
        ref = np.empty_like(model.gamma_s)
        ref[0] = model.gamma_s[0]
        for j in range(len(k) - 1):
            ref[j + 1] = ref[j] + 0.5 * model.s_grid.h * (rhs[j] + rhs[j + 1])
        assert same_bits(model.gamma_s, ref)

    def test_evolution_matches_per_s_t_exact_step(self):
        model, s1, s2 = self.model()
        t_grid = vk.TimeGrid(0.0, 1.0, 17)
        evolved, _ = vk.continuous_model_evolve(model, s1, s2, t_grid, consistency_tol=1e3)
        ref = np.empty_like(evolved.beta)
        ref[0] = model.beta
        for j in range(model.s_grid.n_nodes):
            coeff = np.linalg.solve(s1, -model.c[j] * s2 + model.gamma_s[j])
            step = scipy.linalg.expm(coeff * t_grid.h)
            for i in range(t_grid.n_steps):
                ref[i + 1, j] = step @ ref[i, j]
        assert same_bits(evolved.beta, ref)

    def test_probe_guard_is_relative_to_the_kernel(self):
        """|lam + c_3| = 1e-8 clears the bare eps_spec_rel = 1e-9 but not
        eps_spec_rel * ||K|| (about 1.7e-8 here): the probe clashes as
        mult_integral over the same kernel does."""
        sg = vk.TimeGrid(0.0, 1.0, 20)
        beta0 = 4.0 * np.stack([np.array([[np.cos(x)], [np.sin(x) + 0.3j]]) for x in sg.nodes()])
        gamma = np.broadcast_to(rand_skew(np.random.default_rng(2), 2, 0.4), (21, 2, 2))
        model = vk.ContinuousSpectrumModel(s_grid=sg, c=0.5 * sg.nodes(), beta=beta0,
                                           gamma_s=gamma.copy())
        kernel = vk.GridOperatorFamily(sg, model.kernel_at(None, np.eye(2)))
        lam = -model.c[3] + 1e-8j
        assert DEFAULTS.eps_spec_rel < 1e-8 <= DEFAULTS.eps_spec_rel * kernel.max_norm()
        with pytest.raises(SpectrumClash) as ref:
            vk.mult_integral(kernel, model.c, lam, sg.n_steps)
        with pytest.raises(SpectrumClash, match=r"^lambda \+ c\(s_3\) = .* too close") as got:
            vk.continuous_model_evolve(model, np.eye(2), np.zeros((2, 2)), vk.TimeGrid(0, 1, 10),
                                       probe_lambdas=(lam,))
        assert str(got.value) == str(ref.value)

    def test_probe_products_only_at_the_probe_slices(self, monkeypatch):
        """One exponential for the t step, then one ordered product per probe
        lambda at each of the three probe slices t = 0, nt // 2, nt - 1."""
        model, s1, s2 = self.model()
        calls = []
        matrix_exp = synth.matrix_exp
        monkeypatch.setattr(synth, "matrix_exp", lambda m: calls.append(1) or matrix_exp(m))
        lams = (2.0 + 0.7j, 1.1 - 0.4j)
        _, res = vk.continuous_model_evolve(model, s1, s2, vk.TimeGrid(0.0, 1.0, 17),
                                            probe_lambdas=lams, consistency_tol=1e3)
        assert len(calls) == 1 + 3 * len(lams)
        assert np.isfinite(res.product_derivative)

    @pytest.mark.parametrize("name, length", [("beta0", 30), ("beta0", 33), ("c", 30),
                                              ("c", 32)])
    def test_gamma_s_rejects_lengths_off_the_s_grid(self, name, length):
        model, s1, s2 = self.model()  # 31 s nodes
        args = {"beta0": model.beta, "c": model.c}
        args[name] = np.resize(args[name], (length,) + args[name].shape[1:])
        with pytest.raises(ShapeMismatch, match=f"^{name} needs one entry per s node \\(31\\), "
                                                f"got shape \\({length},"):
            vk.consistent_gamma_s(args["beta0"], args["c"], s1, s2, model.gamma_s[0],
                                  model.s_grid)

    def test_gamma_s_rejects_a_scalar_c(self):
        model, s1, s2 = self.model()
        with pytest.raises(ShapeMismatch, match=r"^c needs .* got shape \(\)$"):
            vk.consistent_gamma_s(model.beta, 0.5, s1, s2, model.gamma_s[0], model.s_grid)


def interp4_reference(data, pos):
    """Cubic interpolation at one fractional node position, as a scalar loop."""
    if pos == float(int(pos)):
        return data[int(pos)]
    n = data.shape[0]
    if n < 4:
        return _interp(data, pos)
    start = min(max(int(np.floor(pos)) - 1, 0), n - 4)
    x = pos - start
    out = np.zeros_like(data[0])
    for j in range(4):
        w = 1.0
        for k in range(4):
            if k != j:
                w *= (x - k) / (j - k)
        out = out + w * data[start + j]
    return out


def coupling_reference(c, bn, s2, x0, grid):
    """The stage-form march of X' = Bn sigma2 C, cubic midpoints, per step."""

    def rhs(pos, _x):
        return (interp4_reference(bn.data, pos) @ interp4_reference(s2.data, pos)
                @ interp4_reference(c.data, pos))

    return np.stack(_rk4_path(rhs, x0, grid, 0, grid.n_steps))


def coupling_data(n_steps, n=3, m=2, seed=31):
    """C, Bn and sigma2 that all vary along the grid (no ODE enforced)."""
    rng = np.random.default_rng(seed)
    grid = vk.TimeGrid(0.0, 1.0, n_steps)
    t = grid.nodes()[:, None, None]
    c = rand_complex(rng, (m, n)) + np.sin(3.0 * t) * rand_complex(rng, (m, n))
    bn = rand_complex(rng, (n, m)) + np.exp(t) * rand_complex(rng, (n, m), 0.5)
    s2 = rand_hermitian(rng, m) * np.cos(2.0 * t)
    return grid, *(vk.GridOperatorFamily(grid, x) for x in (c, bn, s2))


class TestCouplingQuadrature:
    """evolve_coupling's right-hand side never reads X: its march is a stacked
    quadrature, bit for bit the stage form.  tol = inf switches off its input
    checks, which these arbitrary families would fail."""

    @staticmethod
    def evolve(grid, c, bn, s2, x0):
        a = np.eye(x0.shape[1])
        s1 = const(np.diag([1.0, -1.0]), grid)
        return vk.evolve_coupling(c, a, np.eye(x0.shape[0]), bn, x0, s1, s2, s2, grid,
                                  tol=np.inf)

    @pytest.mark.parametrize("n_steps", [1, 2, 3, 800])
    def test_matches_stage_form(self, n_steps):
        grid, c, bn, s2 = coupling_data(n_steps)
        x0 = rand_complex(np.random.default_rng(5), (3, 3))
        got = self.evolve(grid, c, bn, s2, x0)
        assert same_bits(got.data, coupling_reference(c, bn, s2, x0, grid))

    def test_blow_up_names_the_reference_step(self):
        grid, c, bn, s2 = coupling_data(40)
        # Bn sigma2 C overflows from node 23 on, and the cubic midpoint 21.5 reads node 23.
        c, bn = (vk.GridOperatorFamily(grid, np.concatenate([f.data[:23], 1e200 * f.data[23:]]))
                 for f in (c, bn))
        x0 = np.eye(3, dtype=complex)
        with pytest.raises(NonFinite) as ref:
            coupling_reference(c, bn, s2, x0, grid)
        with pytest.raises(NonFinite, match="between nodes 21 and 22$") as got:
            self.evolve(grid, c, bn, s2, x0)
        assert str(got.value) == str(ref.value)

    @pytest.mark.parametrize("n_nodes", [2, 3, 4, 11])
    def test_interp4_position_array_matches_scalar_calls(self, n_nodes):
        rng = np.random.default_rng(n_nodes)
        data = rand_complex(rng, (n_nodes, 2, 3))
        data[:, 0, 0] = -0.0  # a node sample is returned as it is, signed zeros too
        data[1, 1, 2] = complex(-0.0, 1.0)
        last = n_nodes - 1
        pos = np.concatenate([np.arange(n_nodes), np.arange(last) + 0.5,
                              rng.uniform(0.0, last, 20), [0.25, last - 0.25, 1e-9]])
        stacked = _interp4(data, pos)  # linear below 4 nodes
        assert same_bits(stacked, np.stack([interp4_reference(data, float(p)) for p in pos]))

    @pytest.mark.parametrize("n_steps", [2, 3, 40])
    def test_pole_and_null_pairs_match_scalar_midpoints(self, n_steps):
        """The pair marches read their midpoints from one stacked evaluation."""
        grid, c, bn, s2 = coupling_data(n_steps)
        s1 = vk.GridOperatorFamily(grid, np.diag([2.0, -1.0]) + 0.1 * s2.data)
        gs = vk.GridOperatorFamily(grid, 0.3j * s2.data)
        rng = np.random.default_rng(8)
        a, c0, bn0 = rand_complex(rng, (3, 3)), c[0], bn[0]

        def at(fam, pos):
            return interp4_reference(fam.data, pos)

        def pole(pos, m):
            return np.linalg.solve(at(s1, pos), at(s2, pos) @ m @ a + at(gs, pos) @ m)

        def null(pos, m):
            return np.linalg.solve(at(s1, pos).T, (-a @ m @ at(s2, pos) - m @ at(gs, pos)).T).T

        for got, rhs, m0 in ((vk.evolve_pole_pair(c0, a, gs, s1, s2, grid), pole, c0),
                             (vk.evolve_null_pair(bn0, a, gs, s1, s2, grid), null, bn0)):
            assert same_bits(got.data, np.stack(_rk4_path(rhs, m0, grid, 0, n_steps)))


class TestMatrixExpStack:
    def test_stack_matches_per_slice(self):
        rng = np.random.default_rng(9)
        stack = rand_complex(rng, (40, 3, 3)) * np.geomspace(1e-3, 8.0, 40)[:, None, None]
        out = vk.matrix_exp(stack)
        assert same_bits(out, np.stack([vk.matrix_exp(x) for x in stack]))
        assert same_bits(out, np.stack([scipy.linalg.expm(x) for x in stack]))

    def test_empty_stack(self):
        out = vk.matrix_exp(np.zeros((0, 2, 2)))
        assert out.shape == (0, 2, 2) and out.dtype == complex

    def test_overflowing_slice_is_named(self):
        stack = np.zeros((4, 2, 2), dtype=complex)
        stack[2] = 800.0 * np.eye(2)
        with pytest.raises(NonFinite, match="at node 2$"):
            vk.matrix_exp(stack)
        with pytest.raises(NonFinite):
            vk.matrix_exp(stack[2])


def test_tiny_b_vessel_is_gauge_equivalent_to_itself():
    """B scaled by 1e-12 at one node: full Krylov rank relative to its own
    scale, so the frames read it full rank and the vessel maps to itself.
    A B of exactly zero there still reads rank 0."""
    grid = vk.TimeGrid(0.0, 1.0, 12)
    rng = np.random.default_rng(1)
    a1 = vk.GridOperatorFamily(grid, rand_complex(rng, (13, 3, 3)))
    b = rand_complex(rng, (13, 3, 2))
    b[4] *= 1e-12
    zeros = const(np.zeros((2, 2)), grid)
    v = vk.DifferentialVessel(A1=a1, A2=const(np.zeros((3, 3)), grid),
                              B=vk.GridOperatorFamily(grid, b),
                              sigma1=const(np.diag([1.0, -1.0]), grid),
                              sigma2=zeros, gamma=zeros, gamma_star=zeros)
    for node in (0, 4):
        got = vk.gauge_equivalence(v, v, node, probes=0)
        assert isinstance(got, vk.GaugeMap)
        assert np.allclose(got.U.data, np.eye(3), rtol=0, atol=1e-8)
    b[4] = 0.0
    assert list(core._krylov_basis(a1.data, b)[1]) == [3] * 4 + [0] + [3] * 8
