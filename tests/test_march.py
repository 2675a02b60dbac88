"""One two-way march, one ordered product, one ODE coefficient, one coupling
quadrature: each shared helper against the loop it replaced, kept here as the
reference, bit for bit.  The march is the one exception: it matches the RK4
stage form it replaced to round-off, and an in-test propagator loop bit for
bit.  Every march whose steps hold the same bits (a fundamental matrix,
integrate_linear_ode, a synthesis column, an extraction transport, the
continuous model's beta, an s-constant ordered product) fills its samples as
powers of one step by doubling: bit for bit the in-test doubling loop, and
the sequential product to round-off.  The pole/null pair march matches an
in-test loop of its arithmetic (sigma1 solved once per sample) bit for bit,
and the RK4 stage form `rk4_path` (sigma1 solved in every stage) to
round-off."""

import dataclasses
import itertools
import tracemalloc

import numpy as np
import pytest
import scipy.linalg

import vesselkit as vk
import vesselkit.matrix_kernel as mk
import vesselkit.ode_engine as oe
import vesselkit.spectral_synthesis as synth
import vesselkit.vessel_core as core
from vesselkit.config import EPS_SPEC_REL
from vesselkit.errors import NonFinite, ShapeMismatch, SpectrumClash
from vesselkit.matrix_kernel import frob, max_frob
from vesselkit.ode_engine import _interp4

from helpers import (assert_stacked_equals_loop, const, rand_complex, rand_hermitian, rand_skew,
                     skew_chain_vessel)

EPS = np.finfo(float).eps
SLACK = 64.0  # round-off units allowed per unit of a norm-scaled bound


def same_bits(a, b) -> bool:
    a, b = np.asarray(a), np.asarray(b)
    return a.shape == b.shape and a.tobytes() == b.tobytes()


def _interp(data, pos):
    """Linear interpolation of node samples at a fractional node position."""
    left = min(max(int(np.floor(pos)), 0), data.shape[0] - 2)
    w = pos - left
    if w == 0.0:
        return data[left]
    if w == 1.0:
        return data[left + 1]
    return (1.0 - w) * data[left] + w * data[left + 1]


def rk4_path(rhs, m0, grid, start, stop):
    """The RK4 stage form: march m' = rhs(pos, m) from node `start` to node
    `stop` (either order), `pos` the fractional node index whose coefficients
    are wanted.  The samples at the visited nodes, m0 first; NonFinite names
    the first step into a sample that is not finite."""
    step = 1 if stop >= start else -1
    h = grid.h * step
    out = [m0]
    m = m0
    with np.errstate(over="ignore", invalid="ignore"):
        for i in range(start, stop, step):
            k1 = rhs(float(i), m)
            k2 = rhs(i + 0.5 * step, m + 0.5 * h * k1)
            k3 = rhs(i + 0.5 * step, m + 0.5 * h * k2)
            k4 = rhs(float(i + step), m + h * k3)
            m = m + (h / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
            if not np.isfinite(m).all():
                raise NonFinite(f"integration blew up between nodes {i} and {i + step}")
            out.append(m)
    return out


def splice_reference(cdata, m0, grid, base):
    """The stage-form march: forward from `base`, then backward, reversed."""

    def rhs(pos, mat):
        return _interp(cdata, pos) @ mat

    out = np.empty((grid.n_nodes,) + m0.shape, dtype=complex)
    out[base:] = np.stack(rk4_path(rhs, m0, grid, base, grid.n_steps))
    if base > 0:
        out[: base + 1] = np.stack(rk4_path(rhs, m0, grid, base, 0)[::-1])
    return out


def rk4_propagator(c0, cm, c1, h):
    """P = I + h/6 (C_0 + 2 K_2 + 2 K_3 + K_4) from the node, midpoint and
    next-node coefficients: one RK4 step of M' = C M is M_next = P M."""
    eye = np.eye(c0.shape[-1])
    k2 = cm @ (eye + (0.5 * h) * c0)
    k3 = cm @ (eye + (0.5 * h) * k2)
    k4 = c1 @ (eye + h * k3)
    return eye + (h / 6.0) * (c0 + 2.0 * k2 + 2.0 * k3 + k4)


def propagator_reference(cdata, m0, grid, base):
    """The propagator form one step at a time: M_next = P M with the RK4
    propagator of each step; forward from `base`, then backward with -h."""

    def leg(stop, step):
        h = step * grid.h
        path = [m0]
        for i in range(base, stop, step):
            p = rk4_propagator(cdata[i], _interp(cdata, i + 0.5 * step), cdata[i + step], h)
            path.append(p @ path[-1])
        return path

    out = np.empty((grid.n_nodes,) + m0.shape, dtype=complex)
    out[base:] = np.stack(leg(grid.n_steps, 1))
    if base > 0:
        out[: base + 1] = np.stack(leg(0, -1)[::-1])
    return out


def sequential_reference(p, m0, count):
    """P^j m0 for j = 0..count, one product per step."""
    w = [m0]
    for _ in range(count):
        w.append(p @ w[-1])
    return np.stack(w)


def doubling_reference(p, m0, count):
    """P^j m0 for j = 0..count by doubling: W[k:2k] = P^k W[0:k], with P^k
    squared between rounds."""
    w = np.empty((count + 1,) + np.shape(m0), dtype=complex)
    w[0] = m0
    k = 1
    while k <= count:
        n = min(k, count + 1 - k)
        np.matmul(p, w[:n], out=w[k:k + n])
        k *= 2
        if k <= count:
            p = p @ p
    return w


def two_way(reference, p_forward, p_backward, m0, n_steps, base):
    """`reference` of the forward powers from node `base` up and of the
    backward ones from it down, as one sample family over the grid."""
    out = np.empty((n_steps + 1,) + np.shape(m0), dtype=complex)
    out[base:] = reference(p_forward, m0, n_steps - base)
    out[base::-1] = reference(p_backward, m0, base)
    return out


def rk4_powers(c, m0, grid, base):
    """The doubling march of a constant coefficient `c`: the powers of its
    forward and backward RK4 propagators from `base`."""
    return two_way(doubling_reference, rk4_propagator(c, c, c, grid.h),
                   rk4_propagator(c, c, c, -grid.h), m0, grid.n_steps, base)


def first_blow_up(samples, base):
    """The march's NonFinite message for the first non-finite sample in march
    order, forward leg first: the step into it from its neighbour nearer `base`."""
    finite = np.isfinite(samples).all(axis=(1, 2))
    for step, leg in ((1, range(base + 1, len(samples))), (-1, range(base - 1, -1, -1))):
        for j in leg:
            if not finite[j]:
                return f"integration blew up between nodes {j - step} and {j}"
    return None


def assert_march_round_off(got, ref, n_steps):
    """The propagator and stage forms are the same RK4 step in exact arithmetic
    and round differently by a few ulps per step: allow one eps per step,
    relative to the largest sample (the cases here use at most 0.2 of it)."""
    assert max_frob(got - ref) <= n_steps * EPS * max_frob(ref)


def varying_coefficients(grid, m=3, seed=21):
    """sigma1, sigma2, gamma that all vary along the grid; sigma1 stays invertible."""
    rng = np.random.default_rng(seed)
    t = grid.nodes()[:, None, None]
    s1 = rand_hermitian(rng, m) + 4.0 * np.eye(m) + t * rand_hermitian(rng, m, 0.5)
    s2 = rand_hermitian(rng, m, 0.4) * np.cos(t)
    g = rand_skew(rng, m, 0.5) + t ** 2 * rand_complex(rng, (m, m), 0.2)
    return tuple(vk.GridOperatorFamily(grid, x) for x in (s1, s2, g))


def node_coefficients(s1, s2, g, lam):
    return np.stack([np.linalg.solve(s1[i], lam * s2[i] + g[i]) for i in range(len(s1))])


class TestTwoWayMarch:
    grid = vk.TimeGrid(0.0, 1.0, 30)
    lam = 0.7 - 1.3j

    @pytest.mark.parametrize("base", [0, 11, 30])
    def test_fundamental_matrix_matches_splice(self, base):
        """The stage form to round-off, the propagator loop bit for bit."""
        s1, s2, g = varying_coefficients(self.grid)
        coeff = node_coefficients(s1, s2, g, self.lam)
        eye = np.eye(3, dtype=complex)
        phi = vk.fundamental_matrix(self.lam, s1, s2, g, self.grid, base_index=base)
        assert_march_round_off(phi.family.data, splice_reference(coeff, eye, self.grid, base),
                               self.grid.n_steps)
        assert same_bits(phi.family.data, propagator_reference(coeff, eye, self.grid, base))

    @pytest.mark.parametrize("direction, base", [("forward", 0), ("backward", 30)])
    def test_integrate_linear_ode_matches_one_way_path(self, direction, base):
        coeff = varying_coefficients(self.grid)[2]
        m0 = rand_complex(np.random.default_rng(3), (3, 2))
        fam = vk.integrate_linear_ode(coeff, m0, self.grid, direction)
        assert_march_round_off(fam.data, splice_reference(coeff.data, m0, self.grid, base),
                               self.grid.n_steps)
        assert same_bits(fam.data, propagator_reference(coeff.data, m0, self.grid, base))

    @pytest.mark.parametrize("base, blown, step", [
        (0, slice(17, None), "between nodes 16 and 17$"),   # forward
        (30, slice(None, 9), "between nodes 9 and 8$"),     # backward
        (11, slice(None, 4), "between nodes 4 and 3$"),     # interior, backward leg only
        (11, np.r_[:4, 25:31], "between nodes 24 and 25$"),  # interior: forward leg first
    ])
    def test_blow_up_names_the_reference_step(self, base, blown, step):
        """gamma times 1e200 on the `blown` nodes: the first non-finite sample in
        march order is named, forward leg before backward, as in the stage form.
        The step into a blown node already overflows (its midpoint squared)."""
        s1, s2, g = varying_coefficients(self.grid)
        gdata = g.data.copy()
        gdata[blown] *= 1e200
        g = vk.GridOperatorFamily(self.grid, gdata)
        coeff = node_coefficients(s1, s2, g, self.lam)
        with pytest.raises(NonFinite) as ref:
            splice_reference(coeff, np.eye(3, dtype=complex), self.grid, base)
        with pytest.raises(NonFinite, match=step) as got:
            vk.fundamental_matrix(self.lam, s1, s2, g, self.grid, base_index=base)
        assert str(got.value) == str(ref.value)

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


def constant_coefficients(grid, m, seed=23):
    """Time-invariant sigma1, sigma2, gamma with |C| below 1: sigma1 = diag(+-(2..3))
    plus a small Hermitian part, so that it stays invertible."""
    rng = np.random.default_rng(seed)
    signs = np.diag(rng.choice([-1.0, 1.0], m) * rng.uniform(2.0, 3.0, m))
    return tuple(const(x, grid) for x in (signs + rand_hermitian(rng, m, 0.2),
                                          rand_hermitian(rng, m, 0.4), rand_skew(rng, m, 0.5)))


class TestPowerMarch:
    """A march whose steps hold the same bits takes its samples as powers of
    one step, by doubling; every other march keeps the sequential product,
    bit for bit."""

    lam = 0.7 - 1.3j

    @pytest.mark.parametrize("m", [1, 2, 4])
    @pytest.mark.parametrize("n_steps", [1, 2, 3, 7, 800])
    @pytest.mark.parametrize("where", ["start", "interior", "end"])
    def test_matches_sequential_march(self, n_steps, m, where):
        """Within the march round-off bound (these cases use at most 0.32 of it)."""
        grid = vk.TimeGrid(0.0, 1.0, n_steps)
        base = {"start": 0, "interior": n_steps // 3, "end": n_steps}[where]
        s1, s2, g = constant_coefficients(grid, m)
        coeff = node_coefficients(s1, s2, g, self.lam)
        phi = vk.fundamental_matrix(self.lam, s1, s2, g, grid, base_index=base)
        ref = propagator_reference(coeff, np.eye(m, dtype=complex), grid, base)
        assert_march_round_off(phi.family.data, ref, n_steps)
        assert same_bits(phi[base], np.eye(m, dtype=complex))

    @pytest.mark.parametrize("varying", ["every node", "last node only"])
    def test_varying_coefficient_keeps_the_sequential_bits(self, varying):
        """Each leg decides on its own steps: from node 300, a coefficient one
        bit off at the last node only leaves the backward leg's steps equal."""
        grid = vk.TimeGrid(0.0, 1.0, 800)
        s1, s2, g = constant_coefficients(grid, 3)
        gdata = g.data.copy()
        if varying == "every node":
            gdata = gdata + grid.nodes()[:, None, None] * gdata
        else:
            gdata[-1] = np.nextafter(gdata[-1].real, np.inf) + 1j * gdata[-1].imag
        g = vk.GridOperatorFamily(grid, gdata)
        coeff = node_coefficients(s1, s2, g, self.lam)
        eye = np.eye(3, dtype=complex)
        for base in (0, 300, 800):
            phi = vk.fundamental_matrix(self.lam, s1, s2, g, grid, base_index=base)
            want = propagator_reference(coeff, eye, grid, base)
            if varying == "last node only" and base == 300:  # the backward leg's steps repeat
                c = coeff[0]
                want[300::-1] = doubling_reference(rk4_propagator(c, c, c, -grid.h), eye, 300)
            assert same_bits(phi.family.data, want)

    @pytest.mark.parametrize("base, step", [
        (0, "between nodes 56 and 57$"),      # forward
        (120, "between nodes 63 and 62$"),    # backward
        (60, "between nodes 116 and 117$"),   # interior: both legs blow up, forward first
    ])
    def test_blow_up_names_the_reference_step(self, base, step):
        """C = 5000 (I + a small skew part) on h = 1/100: about e^12.5 of growth
        per RK4 step either way, so the last finite and the first overflowing
        sample of the sequential propagator product each sit a factor e^3 or
        more from the overflow threshold, far beyond round-off.  (The stage
        form overflows in its stages one step early on the backward leg.)
        integrate_linear_ode names the same step."""
        grid = vk.TimeGrid(0.0, 1.2, 120)
        rng = np.random.default_rng(4)
        eye = np.eye(2)
        s1, s2 = const(eye, grid), const(np.zeros((2, 2)), grid)
        g = const(5000.0 * (eye + rand_skew(rng, 2, 1e-3)), grid)
        coeff = node_coefficients(s1, s2, g, 1.0)
        with np.errstate(over="ignore", invalid="ignore"):
            ref = first_blow_up(propagator_reference(coeff, np.eye(2, dtype=complex), grid, base),
                                base)
        with pytest.raises(NonFinite, match=step) as got:
            vk.fundamental_matrix(1.0, s1, s2, g, grid, base_index=base)
        assert str(got.value) == ref
        if base in (0, 120):
            with pytest.raises(NonFinite) as got:
                vk.integrate_linear_ode(vk.GridOperatorFamily(grid, coeff), eye, grid,
                                        "forward" if base == 0 else "backward")
            assert str(got.value) == ref

    @pytest.mark.parametrize("direction", ["forward", "backward", "interior"])
    def test_rk4_march_doubles(self, direction):
        """integrate_linear_ode both ways, and fundamental_matrix from an
        interior node, at N = 800: the doubling loop bit for bit, the
        sequential product to round-off."""
        grid = vk.TimeGrid(0.0, 1.0, 800)
        s1, s2, g = constant_coefficients(grid, 3)
        coeff = node_coefficients(s1, s2, g, self.lam)
        if direction == "interior":
            base, m0 = 300, np.eye(3, dtype=complex)
            got = vk.fundamental_matrix(self.lam, s1, s2, g, grid, base_index=base).family.data
        else:
            base = 0 if direction == "forward" else 800
            m0 = rand_complex(np.random.default_rng(6), (3, 1))
            got = vk.integrate_linear_ode(vk.GridOperatorFamily(grid, coeff), m0, grid,
                                          direction).data
        assert same_bits(got, rk4_powers(coeff[0], m0, grid, base))
        assert_march_round_off(got, propagator_reference(coeff, m0, grid, base), 800)

    def test_synthesis_column_doubles(self):
        """A synthesis column on a constant coefficient at N = 800: powers of
        exp(h C) from b0."""
        grid = vk.TimeGrid(0.0, 1.0, 800)
        s1, s2, g = constant_coefficients(grid, 2)
        datum = vk.SpectralDatum(z=-0.4 + 0.6j, b0=np.array([1.0, 0.3j]))
        col = vk.build_elementary(datum, g, s1, s2, grid).B.data.conj().transpose(0, 2, 1)
        step = vk.matrix_exp(grid.h * node_coefficients(s1, s2, g, datum.z)[0])
        b0 = datum.b0[:, None]
        assert same_bits(col, doubling_reference(step, b0, 800))
        assert_march_round_off(col, sequential_reference(step, b0, 800), 800)

    def test_extraction_transport_doubles(self, monkeypatch):
        """extract_elementary's transport g' = -A2^H g of a constant A2 from an
        interior node at N = 800: powers of exp(+-h C) both ways."""
        grid = vk.TimeGrid(0.0, 1.0, 800)
        v, _ = skew_chain_vessel(grid)
        v = dataclasses.replace(v, A2=const(0.4 * v.A1[0], grid))
        marched = []
        march = synth._magnus_march
        monkeypatch.setattr(synth, "_magnus_march",
                            lambda *a: marched.append(march(*a)) or marched[-1])
        vk.extract_elementary(v, 1, node_ref=300)
        c = -v.A2[0].conj().T
        g0 = marched[0][300]
        steps = vk.matrix_exp(grid.h * c), vk.matrix_exp(-(grid.h * c))
        assert same_bits(marched[0], two_way(doubling_reference, *steps, g0, 800, 300))
        assert_march_round_off(marched[0], two_way(sequential_reference, *steps, g0, 800, 300),
                               800)

    def test_model_beta_doubles(self):
        """continuous_model_evolve's beta on 800 t steps: at every s node, the
        powers of its one exponential step."""
        model, s1, s2 = TestContinuousModelSteps().model()
        t_grid = vk.TimeGrid(0.0, 1.0, 800)
        evolved, _ = vk.continuous_model_evolve(model, s1, s2, t_grid, consistency_tol=1e3)
        coeff = np.linalg.solve(s1, -model.c[:, None, None] * s2 + model.gamma_s)
        step = vk.matrix_exp(coeff * t_grid.h)
        assert same_bits(evolved.beta, doubling_reference(step, model.beta, 800))
        assert_march_round_off(evolved.beta, sequential_reference(step, model.beta, 800), 800)

    def test_s_constant_ordered_product_doubles(self):
        """mult_integral of a kernel and c that hold the same bits at every s
        node, over 800 steps: the 800th power of its one factor."""
        grid = vk.TimeGrid(0.0, 1.0, 800)
        kernel = const(rand_complex(np.random.default_rng(7), (2, 2), 0.8), grid)
        c, lam = np.full(801, 0.3), 1.2 + 0.4j
        got = vk.mult_integral(kernel, c, lam, 800)
        step = vk.matrix_exp(kernel[0] * (grid.h / (lam + 0.3)))
        eye = np.eye(2, dtype=complex)
        assert same_bits(got, doubling_reference(step, eye, 800)[-1])
        assert_march_round_off(got, mult_integral_reference(kernel, c, lam, 800)[0], 800)


def mult_integral_reference(kernel, c, lam, s_upper, expm=vk.matrix_exp):
    """The per-factor loop: one exponential and one product per s step.  Also
    returns the product of the factor norms, which scales how far factors that
    differ by round-off move the product (`assert_near_oracle`)."""
    eps_spec = EPS_SPEC_REL * max(kernel.max_norm(), 1.0)
    ds = kernel.grid.h
    w, norms = np.eye(kernel.shape[0], dtype=complex), 1.0
    for j in range(s_upper):
        denom = lam + c[j]
        if abs(denom) <= eps_spec:
            raise SpectrumClash(f"lambda + c(s_{j}) = {denom} too close to zero "
                                f"for lambda={complex(lam)}")
        step = expm(kernel[j] * (ds / denom))
        w = step @ w
        norms *= frob(step)
    return w, norms


def assert_near_oracle(got, ref, n_steps, norms):
    """A product of exponentials against the same product of scipy's: the two
    exponentials of each factor differ by a few eps of its norm, and each
    difference is carried by the other factors, so allow SLACK eps per step
    times the product of the factor norms."""
    assert frob(got - ref) <= SLACK * EPS * max(n_steps, 1) * norms


def exp_calls(monkeypatch):
    """The operand counts of every synth.matrix_exp call from here on."""
    calls, matrix_exp = [], synth.matrix_exp
    monkeypatch.setattr(synth, "matrix_exp", lambda m: calls.append(len(m)) or matrix_exp(m))
    return calls


class TestOrderedProduct:
    grid = vk.TimeGrid(0.0, 1.0, 200)
    lams = (1.2 + 0.4j, -0.35 + 0.9j, 2.0 + 0j, 0.8 - 1.7j)

    def kernel(self, seed=4, m=2):
        rng = np.random.default_rng(seed)
        s = self.grid.nodes()[:, None, None]
        k = rand_complex(rng, (m, m), 0.8) + np.sin(3.0 * s) * rand_complex(rng, (m, m), 0.5)
        return vk.GridOperatorFamily(self.grid, k), 0.3 + 0.7 * np.sin(2.0 * s[:, 0, 0])

    @pytest.mark.parametrize("s_upper", [0, 1, 77, 200])
    def test_matches_per_factor_loop(self, s_upper):
        """Bit for bit the loop over vk.matrix_exp; near the loop over scipy's."""
        kernel, c = self.kernel()
        for lam in (1.2 + 0.4j, -0.35 + 0.9j, 2.0, 0.8 - 1.7j):
            got = vk.mult_integral(kernel, c, lam, s_upper)
            ref, _ = mult_integral_reference(kernel, c, lam, s_upper)
            assert same_bits(got, ref)
            oracle, norms = mult_integral_reference(kernel, c, lam, s_upper, scipy.linalg.expm)
            assert_near_oracle(got, oracle, s_upper, norms)

    def test_clash_names_first_step(self):
        kernel, _ = self.kernel()
        c = np.linspace(0.0, 1.0, self.grid.n_nodes)
        c[[150, 60]] = 0.5  # lambda = -0.5 clashes at s_60 first, then at s_100 and s_150
        with pytest.raises(SpectrumClash) as ref:
            mult_integral_reference(kernel, c, -0.5, 200)
        with pytest.raises(SpectrumClash, match=r"c\(s_60\)") as got:
            vk.mult_integral(kernel, c, -0.5, 200)
        assert str(got.value) == str(ref.value)
        head = vk.mult_integral(kernel, c, -0.5, 60)
        assert same_bits(head, mult_integral_reference(kernel, c, -0.5, 60)[0])
        assert_near_oracle(head, *mult_integral_reference(kernel, c, -0.5, 60, scipy.linalg.expm),
                           60)

    def test_a_clash_is_reported_before_any_exponential(self, monkeypatch):
        """Every step is checked before the first exponential: the clash at s_5
        wins over the overflow of the step before it, and no exponential is
        taken.  Without the clash, one exponential call names the overflow."""
        grid = vk.TimeGrid(0.0, 1.0, 10)
        c = np.zeros(11)
        c[[2, 5]] = 1e-4 - 0.5, -0.5  # exp(0.1 / 1e-4) overflows at s_2; s_5 clashes
        calls = exp_calls(monkeypatch)
        with pytest.raises(SpectrumClash, match=r"^lambda \+ c\(s_5\) = 0\.0 too close to zero "
                                                r"for lambda=\(0\.5\+0j\)$"):
            vk.mult_integral(const(np.eye(1), grid), c, 0.5, 10)
        assert calls == []
        c[5] = 0.0
        with pytest.raises(NonFinite, match=r"^matrix_exp overflowed at s step 2 "
                                            r"for lambda=\(0\.5\+0j\)$"):
            vk.mult_integral(const(np.eye(1), grid), c, 0.5, 10)
        assert calls == [10]

    def test_an_overflowing_scaled_step_names_its_lambda(self):
        """K ds / (lam + c) = 1e3 * 1e305 / 1e-3 overflows before the
        exponential: NonFinite names lam and the step, and numpy warns nothing."""
        kernel = const(1e3 * np.eye(1), vk.TimeGrid(0.0, 1e305, 1))
        with pytest.raises(NonFinite, match=r"^matrix_exp overflowed at s step 0 "
                                            r"for lambda=\(0\.001\+0j\)$"):
            vk.mult_integral(kernel, np.zeros(2), [2.0 + 0j, 1e-3], 1)

    @pytest.mark.parametrize("m", [1, 2, 3])
    def test_lambda_arrays_stack_the_per_lambda_products(self, m):
        """A lambda array is one stacked call with the bits of the per-lambda
        loop, shaped np.shape(lam) + (m, m); an empty array gives no product."""
        kernel, c = self.kernel(m=m)
        fn = lambda lam: vk.mult_integral(kernel, c, lam, 150)  # noqa: E731
        assert assert_stacked_equals_loop(fn, self.lams) is None
        assert assert_stacked_equals_loop(fn, np.reshape(self.lams, (2, 2)).tolist()) is None
        assert fn(np.array([], dtype=complex)).shape == (0, m, m)
        assert fn(np.zeros((0, 3))).shape == (0, 3, m, m)

    @pytest.mark.parametrize("m", [1, 2, 3])
    def test_a_clash_at_one_lambda(self, m):
        kernel, c = self.kernel(m=m)
        lams = (1.2 + 0.4j, complex(-c[77]), 2.0 + 0j)
        err = assert_stacked_equals_loop(lambda lam: vk.mult_integral(kernel, c, lam, 150), lams)
        assert isinstance(err, SpectrumClash) and "c(s_77)" in str(err)

    def test_overflowing_product_names_its_step(self):
        """Each factor exp(1000 ds) = exp(5) is finite; their product passes
        the largest double at step 141 -> 142 and raises there, not NaN."""
        grid = vk.TimeGrid(0.0, 1.0, 200)
        with pytest.raises(NonFinite, match="between s nodes 141 and 142$"):
            vk.mult_integral(const(1000.0 * np.eye(2), grid), np.zeros(201), 1.0, 200)


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
        for expm in (vk.matrix_exp, scipy.linalg.expm):
            ref = np.empty_like(evolved.beta)
            ref[0] = model.beta
            for j in range(model.s_grid.n_nodes):
                coeff = np.linalg.solve(s1, -model.c[j] * s2 + model.gamma_s[j])
                step = expm(coeff * t_grid.h)
                for i in range(t_grid.n_steps):
                    ref[i + 1, j] = step @ ref[i, j]
                    # i + 1 equal factors carry the initial column
                    assert_near_oracle(evolved.beta[i + 1, j], ref[i + 1, j], i + 1,
                                       frob(step) ** (i + 1) * frob(model.beta[j]))
        coeff = np.linalg.solve(s1, -model.c[:, None, None] * s2 + model.gamma_s)
        step = vk.matrix_exp(coeff * t_grid.h)
        assert same_bits(evolved.beta, doubling_reference(step, model.beta, t_grid.n_steps))

    def test_overflowing_evolution_names_its_step(self):
        """beta' = 100 beta with t steps of 1: exp(100) per step, and the
        product passes the largest double (about e^709.8) at step 7 -> 8."""
        sg = vk.TimeGrid(0.0, 1.0, 8)
        beta0 = np.ones((9, 2, 1), dtype=complex)
        s1, s2 = np.eye(2), -100.0 * np.eye(2)
        gamma_s = vk.consistent_gamma_s(beta0, np.ones(9), s1, s2, np.zeros((2, 2)), sg)
        model = vk.ContinuousSpectrumModel(s_grid=sg, c=np.ones(9), beta=beta0, gamma_s=gamma_s)
        with pytest.raises(NonFinite, match="between t nodes 7 and 8$"):
            vk.continuous_model_evolve(model, s1, s2, vk.TimeGrid(0.0, 10.0, 10))

    def test_probe_guard_is_relative_to_the_kernel(self):
        """|lam + c_3| = 1e-8 clears the bare EPS_SPEC_REL = 1e-9 but not
        EPS_SPEC_REL * ||K|| (about 1.7e-8 here): the probe clashes as
        mult_integral over the same kernel does."""
        sg = vk.TimeGrid(0.0, 1.0, 20)
        beta0 = 4.0 * np.stack([np.array([[np.cos(x)], [np.sin(x) + 0.3j]]) for x in sg.nodes()])
        gamma = np.broadcast_to(rand_skew(np.random.default_rng(2), 2, 0.4), (21, 2, 2))
        model = vk.ContinuousSpectrumModel(s_grid=sg, c=0.5 * sg.nodes(), beta=beta0,
                                           gamma_s=gamma.copy())
        kernel = vk.GridOperatorFamily(sg, model.kernel_at(None, np.eye(2)))
        lam = -model.c[3] + 1e-8j
        assert EPS_SPEC_REL < 1e-8 <= EPS_SPEC_REL * kernel.max_norm()
        with pytest.raises(SpectrumClash) as ref:
            vk.mult_integral(kernel, model.c, lam, sg.n_steps)
        with pytest.raises(SpectrumClash, match=r"^lambda \+ c\(s_3\) = .* too close") as got:
            vk.continuous_model_evolve(model, np.eye(2), np.zeros((2, 2)), vk.TimeGrid(0, 1, 10),
                                       probe_lambdas=(lam,))
        assert str(got.value) == str(ref.value)

    def test_probe_products_only_at_the_probe_slices(self, monkeypatch):
        """One exponential call for the t step, then the exponentials of one
        ordered product per probe lambda at each of the three probe slices
        t = 0, nt // 2, nt - 1: one per s step."""
        model, s1, s2 = self.model()
        sizes = []
        matrix_exp = synth.matrix_exp
        monkeypatch.setattr(synth, "matrix_exp", lambda m: sizes.append(len(m)) or matrix_exp(m))
        lams = (2.0 + 0.7j, 1.1 - 0.4j)
        _, res = vk.continuous_model_evolve(model, s1, s2, vk.TimeGrid(0.0, 1.0, 17),
                                            probe_lambdas=lams, consistency_tol=1e3)
        assert sizes[0] == model.s_grid.n_nodes  # the t step
        assert sum(sizes[1:]) == 3 * len(lams) * model.s_grid.n_steps
        assert np.isfinite(res.product_derivative)

    @pytest.mark.parametrize("rows", [1, 5, 16])
    @pytest.mark.parametrize("n_t", [1, 2, 16, 17, 40])
    def test_blocked_residuals_match_kernel_sized_products(self, monkeypatch, rows, n_t):
        """The gamma_s and kernel-evolution residuals, taken over blocks of t
        rows with one GEMM per product, against kernel-sized per-matrix
        products: equal to round-off (the left products round apart)."""
        monkeypatch.setattr(synth, "_T_ROWS", rows)
        model, s1, s2 = self.model()
        t_grid = vk.TimeGrid(0.0, 1.0, n_t)
        evolved, res = vk.continuous_model_evolve(model, s1, s2, t_grid, consistency_tol=1e3)
        kern = np.einsum("tsij,tskj->tsik", evolved.beta, evolved.beta.conj()) @ s1
        coeff = np.linalg.solve(s1, -model.c[:, None, None] * s2 + model.gamma_s)
        p = np.linalg.solve(s1, s2)
        dgam = vk.family_derivative(vk.GridOperatorFamily(model.s_grid, model.gamma_s)).data
        k = kern[:, 1:-1]
        gamma_s = max_frob(np.linalg.solve(s1, dgam[1:-1]) + p @ k - k @ p)
        d_kern = (kern[2:] - kern[:-2]) / (2.0 * t_grid.h)
        evolution = max_frob(d_kern - (coeff @ kern - kern @ coeff)[1:-1])
        scale = SLACK * EPS * max_frob(kern)
        assert abs(res.gamma_s_equation - gamma_s) <= scale * frob(p)
        assert abs(res.kernel_evolution - evolution) <= scale * max_frob(coeff)
        assert (res.kernel_evolution == 0.0) == (n_t == 1)

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


def probe_reference(kern, c, lam, ds):
    """One probe's ordered product W_0 = I, W_(j+1) = exp(K_j ds / (lam + c_j)) W_j
    over `kern` (S, m, m): one exponential and one product per step."""
    w = [np.eye(kern.shape[1], dtype=complex)]
    for j, k in enumerate(kern):
        w.append(vk.matrix_exp(k * (ds / (lam + c[j]))) @ w[-1])
    return np.stack(w)


def stack_error(kern, c, lams, ds, n_s):
    """The error of the products of `lams` (lam-major) over the first `n_s` s
    steps of the slices of `kern` (T, S, m, m): the first clash in (lam, slice,
    step) order, else the first overflowing exponential in that order, else the
    first step after which some product is not finite; None if none fails."""
    eps = [EPS_SPEC_REL * max(max_frob(k), 1.0) for k in kern]
    order = [(lam, t, j) for lam in lams for t in range(len(kern)) for j in range(n_s)]
    for lam, t, j in order:
        if abs(lam + c[j]) <= eps[t]:
            return SpectrumClash(f"lambda + c(s_{j}) = {lam + c[j]} too close to zero "
                                 f"for lambda={complex(lam)}")
    for lam, t, j in order:
        try:
            vk.matrix_exp(kern[t, j] * (ds / (lam + c[j])))
        except NonFinite:
            return NonFinite(f"matrix_exp overflowed at s step {j} for lambda={complex(lam)}")
    first = n_s
    with np.errstate(over="ignore", invalid="ignore"):
        for lam, t, j in order:
            w = vk.matrix_exp(kern[t, j] * (ds / (lam + c[j]))) @ (w if j else np.eye(kern.shape[-1]))
            if not np.isfinite(w).all():
                first = min(first, j)
    if first < n_s:
        return NonFinite(f"multiplicative integral blew up between s nodes {first} and {first + 1}")
    return None


# K = 10 on 10 steps of ds = 0.1, c = 0 but for c_3 = -3 and c_5 = -2: lam = 2
# clashes at s_5, lam = 3 + 1e-5 overflows the exponential of s_3 (e^(1e5)),
# lam = 0.01 overflows the product (e^100 per step) and lam = 1 passes.
FAILING_PROBES = {"passes": 1.0, "clash": 2.0, "exponential overflow": 3.0 + 1e-5,
                  "product overflow": 0.01}


class TestStackedProbes:
    """The probe products of continuous_model_evolve are one matrix_exp and one
    running product over every (lambda, t slice); each keeps the bits of its
    own product.  Every (lambda, slice, step) is checked for a clash before
    the first exponential, so errors are those of the whole stack."""

    lams = (2.0 + 0.7j, 1.1 - 0.4j, -0.2 + 1.5j, 3.0)

    def kernels(self, m, n_t=3, n_s=40, seed=8):
        rng = np.random.default_rng(seed)
        s = np.linspace(0.0, 1.0, n_s + 1)[:, None, None]
        kern = np.stack([rand_complex(rng, (m, m), 0.8) + np.sin(3.0 * s) * rand_complex(rng, (m, m))
                         for _ in range(n_t)])
        return kern, 0.3 + 0.7 * np.sin(2.0 * s[:, 0, 0])

    @pytest.mark.parametrize("m", [1, 2, 3])
    def test_stack_matches_each_probe(self, m):
        kern, c = self.kernels(m)
        w = synth._ordered_products(kern, c, self.lams, 0.025, 40)
        assert w.shape == (41, len(self.lams) * 3, m, m)
        for p, (lam, t) in enumerate((lam, t) for lam in self.lams for t in range(3)):
            assert same_bits(w[:, p], probe_reference(kern[t, :40], c, lam, 0.025))
        assert same_bits(synth._ordered_products(kern, c, self.lams, 0.025, 25), w[:26])

    def test_product_derivative_matches_the_loop_over_probes(self):
        model, s1, s2 = TestContinuousModelSteps().model()
        evolved, res = vk.continuous_model_evolve(model, s1, s2, vk.TimeGrid(0.0, 1.0, 17),
                                                  probe_lambdas=self.lams, consistency_tol=1e3)
        ds, c, want = model.s_grid.h, model.c, 0.0
        for lam in self.lams:
            for i in (0, 9, 17):
                k = evolved.kernel_at(i, s1)
                w = probe_reference(k[:-1], c, lam, ds)
                law = k[:-1] / (lam + c[:-1, None, None]) @ w[:-1]
                want = max(want, max_frob((w[1:] - w[:-1]) / ds - law))
        assert res.product_derivative == want

    def test_one_exponential_call_for_every_probe(self, monkeypatch):
        model, s1, s2 = TestContinuousModelSteps().model()
        sizes = exp_calls(monkeypatch)
        vk.continuous_model_evolve(model, s1, s2, vk.TimeGrid(0.0, 1.0, 17),
                                   probe_lambdas=self.lams, consistency_tol=1e3)
        assert sizes == [model.s_grid.n_nodes, 3 * len(self.lams) * model.s_grid.n_steps]

    probes = FAILING_PROBES

    def failing_kernel(self):
        c = np.zeros(11)
        c[3], c[5] = -3.0, -2.0
        return np.full((1, 11, 1, 1), 10.0, dtype=complex), c

    @pytest.mark.parametrize("order", [order for r in range(1, 5)
                                       for order in itertools.permutations(FAILING_PROBES, r)])
    def test_the_stack_raises_its_first_failure(self, order):
        kern, c = self.failing_kernel()
        lams = [self.probes[name] for name in order]
        want = stack_error(kern, c, lams, 0.1, 10)
        if want is None:
            assert np.isfinite(synth._ordered_products(kern, c, lams, 0.1, 10)).all()
            return
        with pytest.raises(type(want)) as got:
            synth._ordered_products(kern, c, lams, 0.1, 10)
        assert str(got.value) == str(want)

    def test_each_slice_has_its_own_threshold(self):
        """|lam + c_3| = 5e-8 clashes only with the slice of norm 100 (threshold
        1e-7), |lam + c_7| = 5e-10 with both: slice 0's step 7 comes first in
        stack order."""
        kern = np.stack([np.full((11, 1, 1), 0.5 + 0j), np.full((11, 1, 1), 100.0 + 0j)])
        c = np.zeros(11)
        c[3], c[7] = -1.0 + 5e-8, -1.0 + 5e-10
        want = stack_error(kern, c, [1.0], 0.1, 10)
        assert "c(s_7)" in str(want)
        with pytest.raises(SpectrumClash) as got:
            synth._ordered_products(kern, c, [1.0], 0.1, 10)
        assert str(got.value) == str(want)
        with pytest.raises(SpectrumClash, match=r"c\(s_3\)"):
            synth._ordered_products(kern[1:], c, [1.0], 0.1, 10)
        with pytest.raises(NonFinite, match="at s step 3 "):  # no clash: exp(1e6) overflows
            synth._ordered_products(kern[:1], c, [1.0], 0.1, 5)

    def test_a_clash_anywhere_wins_before_any_exponential(self, monkeypatch):
        """A clash raises before the first exponential, whatever overflows
        before it; an overflowing exponential raises from the one matrix_exp
        call, before any product is taken."""
        kern, c = self.failing_kernel()
        p = self.probes
        calls = exp_calls(monkeypatch)
        for first in ("passes", "exponential overflow", "product overflow"):
            with pytest.raises(SpectrumClash, match=r"^lambda \+ c\(s_5\) = 0\.0 too close to "
                                                    r"zero for lambda=\(2\+0j\)$"):
                synth._ordered_products(kern, c, [p[first], p["clash"]], 0.1, 10)
        assert calls == []
        with pytest.raises(NonFinite, match=r"^matrix_exp overflowed at s step 3 "
                                            r"for lambda=\(3\.00001\+0j\)$"):
            synth._ordered_products(kern, c, [p["product overflow"], p["exponential overflow"]],
                                    0.1, 10)
        assert calls == [20]
        with pytest.raises(NonFinite, match="between s nodes 9 and 10$"):
            synth._ordered_products(kern, c, [p["passes"], p["product overflow"]], 0.1, 10)
        assert calls == [20, 20]


def test_model_evolution_peak_memory():
    """One continuous_model_evolve call at 200 s steps and 200 t steps peaks at
    no more traced memory than the 11,780,920 bytes measured with the
    kernel-sized commutator and gamma_s defect it replaced (numpy 2.4)."""
    sg = vk.TimeGrid(0.0, 1.0, 200)
    s = sg.nodes()
    beta0 = np.stack([np.array([[np.cos(0.9 * x + 0.2)], [0.4 + 0.3j * x]]) for x in s])
    s2 = np.array([[0.2, 0.05 - 0.1j], [0.05 + 0.1j, -0.15]])
    g0 = np.array([[0.1j, 0.2 + 0.05j], [-0.2 + 0.05j, -0.3j]]) + 0.4 * s2
    c = np.full(201, 0.4)
    gamma_s = vk.consistent_gamma_s(beta0, c, np.eye(2), s2, g0, sg)
    model = vk.ContinuousSpectrumModel(s_grid=sg, c=c, beta=beta0, gamma_s=gamma_s)
    lams = tuple(complex(1.0 + 0.3 * k, 0.5 - 0.2 * k) for k in range(8))
    t_grid = vk.TimeGrid(0.0, 1.0, 200)
    vk.continuous_model_evolve(model, np.eye(2), s2, t_grid, probe_lambdas=lams,
                               consistency_tol=1e-4)
    tracemalloc.start()
    try:
        vk.continuous_model_evolve(model, np.eye(2), s2, t_grid, probe_lambdas=lams,
                                   consistency_tol=1e-4)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 11_780_920


class TestConstantCoefficient:
    """sigma1^(-1) (lam sigma2 + gamma) of families that each hold the same bits
    at every node is solved at one node, bit for bit the N-node solve."""

    lam = 0.7 - 1.3j

    def solve_sizes(self, monkeypatch, *args):
        sizes = []
        solve = np.linalg.solve
        monkeypatch.setattr(np.linalg, "solve", lambda a, b: sizes.append(len(a)) or solve(a, b))
        got = oe._coefficient(*args)
        monkeypatch.undo()
        return got, sizes

    @pytest.mark.parametrize("m", [1, 2, 4])
    def test_one_node_solve_is_the_node_stack_solve(self, monkeypatch, m):
        s1, s2, g = (f.data for f in constant_coefficients(vk.TimeGrid(0.0, 1.0, 50), m))
        got, sizes = self.solve_sizes(monkeypatch, s1, s2, g, self.lam)
        assert sizes == [1]
        assert same_bits(got, np.linalg.solve(s1, self.lam * s2 + g))

    def test_one_bit_off_at_the_last_node_solves_every_node(self, monkeypatch):
        s1, s2, g = (f.data.copy() for f in constant_coefficients(vk.TimeGrid(0.0, 1.0, 50), 2))
        g[-1, 0, 0] = np.nextafter(g[-1, 0, 0].real, np.inf) + 1j * g[-1, 0, 0].imag
        got, sizes = self.solve_sizes(monkeypatch, s1, s2, g, self.lam)
        assert sizes == [51]
        assert same_bits(got, np.linalg.solve(s1, self.lam * s2 + g))

    def test_fundamental_matrix_keeps_its_bits(self):
        grid = vk.TimeGrid(0.0, 1.0, 64)
        s1, s2, g = constant_coefficients(grid, 3)
        coeff = np.linalg.solve(s1.data, self.lam * s2.data + g.data)
        for base in (0, 21, 64):
            phi = vk.fundamental_matrix(self.lam, s1, s2, g, grid, base_index=base)
            assert same_bits(phi.family.data,
                             rk4_powers(coeff[0], np.eye(3, dtype=complex), grid, base))

    def test_a_broadcast_is_constant_without_reading_it(self, monkeypatch):
        """A stack broadcast along its first axis is constant at once; a copy
        of it is read, and one bit off at its last node is not constant."""
        stack = np.broadcast_to(rand_complex(np.random.default_rng(2), (1, 3, 3)), (50, 3, 3))
        reads = []
        contiguous = np.ascontiguousarray
        monkeypatch.setattr(np, "ascontiguousarray", lambda a: reads.append(a) or contiguous(a))
        assert oe._is_constant(stack) and not reads
        copy = stack.copy()
        assert oe._is_constant(copy) and len(reads) == 1
        copy[-1, 0, 0] = np.nextafter(copy[-1, 0, 0].real, np.inf) + 1j * copy[-1, 0, 0].imag
        assert not oe._is_constant(copy)


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

    return np.stack(rk4_path(rhs, x0, grid, 0, grid.n_steps))


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


def pair_stage_forms(s1, s2, gs, a):
    """The pole and null pairs' right-hand sides in stage form, sigma1 solved
    in every stage at the cubic samples."""

    def at(fam, pos):
        return interp4_reference(fam.data, pos)

    def pole(pos, m):
        return np.linalg.solve(at(s1, pos), at(s2, pos) @ m @ a + at(gs, pos) @ m)

    def null(pos, m):
        return np.linalg.solve(at(s1, pos).T, (-a @ m @ at(s2, pos) - m @ at(gs, pos)).T).T

    return pole, null


def hoisted_reference(s1, s2, gs, a, m0, grid):
    """RK4 on s1 M' = s2 M a + gs M, one step at a time, with P = s1^(-1) s2
    and G = s1^(-1) gs solved once per sample at positions 0, 0.5, ..., N."""
    pos = [0.5 * j for j in range(2 * grid.n_steps + 1)]
    p, g = ([np.linalg.solve(interp4_reference(s1, x), interp4_reference(d, x)) for x in pos]
            for d in (s2, gs))
    h = grid.h
    path = [m0]
    m = m0
    with np.errstate(over="ignore", invalid="ignore"):
        for j in range(0, 2 * grid.n_steps, 2):
            k1 = p[j] @ m @ a + g[j] @ m
            y = m + (0.5 * h) * k1
            k2 = p[j + 1] @ y @ a + g[j + 1] @ y
            y = m + (0.5 * h) * k2
            k3 = p[j + 1] @ y @ a + g[j + 1] @ y
            y = m + h * k3
            k4 = p[j + 2] @ y @ a + g[j + 2] @ y
            m = m + (h / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
            path.append(m)
    return np.stack(path)


def pair_data(n_steps):
    """sigma1, sigma2 and gamma_star that all vary along the grid, a state
    matrix and the two pairs' initial values."""
    grid, c, bn, s2 = coupling_data(n_steps)
    s1 = vk.GridOperatorFamily(grid, np.diag([2.0, -1.0]) + 0.1 * s2.data)
    gs = vk.GridOperatorFamily(grid, 0.3j * s2.data)
    a = rand_complex(np.random.default_rng(8), (3, 3))
    return grid, s1, s2, gs, a, c[0], bn[0]


class TestPairMarch:
    """Both pairs take one two-sided RK4 march, the null pair on the
    transposes; sigma1 is solved once per sample, not in every stage."""

    @pytest.mark.parametrize("n_steps", [2, 3, 40])
    def test_pairs_match_the_hoisted_reference(self, n_steps):
        """Bit for bit the hoisted arithmetic; within round-off of the stage
        form: moving the solve from the stages to the samples rounds each
        stage by a few ulps times the condition of sigma1, so allow
        cond(sigma1) eps per step, relative to the largest sample."""
        grid, s1, s2, gs, a, c0, bn0 = pair_data(n_steps)
        pole, null = pair_stage_forms(s1, s2, gs, a)
        tr = [f.data.transpose(0, 2, 1) for f in (s1, s2, gs)]
        cond = max(np.linalg.cond(s1.data))
        for got, ref, rhs, m0 in (
                (vk.evolve_pole_pair(c0, a, gs, s1, s2, grid),
                 hoisted_reference(s1.data, s2.data, gs.data, a, c0, grid), pole, c0),
                (vk.evolve_null_pair(bn0, a, gs, s1, s2, grid),
                 hoisted_reference(tr[0], -tr[1], -tr[2], a.T, bn0.T, grid)
                 .transpose(0, 2, 1), null, bn0)):
            assert same_bits(got.data, ref)
            stage = np.stack(rk4_path(rhs, m0, grid, 0, n_steps))
            assert max_frob(got.data - stage) <= n_steps * cond * EPS * max_frob(stage)

    def test_fourth_order_on_time_varying_data(self):
        """Scalar closed form: sigma1 = 1 + t^2/2, gamma_star = 0.4i sin 3t and
        a sigma2 = (sigma1 phi' - gamma_star) / a give C = c0 exp(phi) and, with
        A_xi = a, Bn = bn0 exp(-phi).  Both errors fall at least 12-fold per
        halving of h (16 at 4th order)."""
        a, c0, bn0 = 0.3 + 0.2j, 1.2 - 0.4j, 0.8 + 0.1j

        def phi(t):
            return 0.5 * np.sin(2.0 * t) + 0.3j * t ** 2

        errors = []
        for n_steps in (20, 40, 80):
            grid = vk.TimeGrid(0.0, 1.0, n_steps)
            t = grid.nodes()
            s1 = 1.0 + 0.5 * t ** 2
            gs = 0.4j * np.sin(3.0 * t)
            s2 = (s1 * (np.cos(2.0 * t) + 0.6j * t) - gs) / a
            fams = [vk.GridOperatorFamily(grid, x[:, None, None]) for x in (gs, s1, s2)]
            c = vk.evolve_pole_pair([[c0]], [[a]], *fams, grid).data[:, 0, 0]
            bn = vk.evolve_null_pair([[bn0]], [[a]], *fams, grid).data[:, 0, 0]
            errors.append([np.max(np.abs(c - c0 * np.exp(phi(t)))),
                           np.max(np.abs(bn - bn0 * np.exp(-phi(t))))])
        errors = np.array(errors)
        assert (errors[:-1] >= 12.0 * errors[1:]).all(), errors

    def test_blow_up_names_the_stage_form_step(self):
        """sigma2 grows by 1e200 from node 23 on, and the cubic midpoint 21.5
        reads node 23: both pairs overflow on the step into node 22, as the stage
        form does."""
        grid, s1, s2, gs, a, c0, bn0 = pair_data(40)
        s2 = vk.GridOperatorFamily(grid, np.concatenate([s2.data[:23], 1e200 * s2.data[23:]]))
        pole, null = pair_stage_forms(s1, s2, gs, a)
        for evolve, rhs, m0 in ((vk.evolve_pole_pair, pole, c0), (vk.evolve_null_pair, null, bn0)):
            with pytest.raises(NonFinite) as ref:
                rk4_path(rhs, m0, grid, 0, grid.n_steps)
            with pytest.raises(NonFinite, match="between nodes 21 and 22$") as got:
                evolve(m0, a, gs, s1, s2, grid)
            assert str(got.value) == str(ref.value)


def assert_near_expm(out, stack):
    """Each slice against scipy's exponential: the relative condition number of
    exp at A is ||A|| for normal A, so allow SLACK eps times (1 + ||A||_1)."""
    ref = np.stack([scipy.linalg.expm(x) for x in stack])
    norm1 = np.abs(stack).sum(axis=1).max(axis=1)
    assert np.all(frob(out - ref) <= SLACK * EPS * (1.0 + norm1) * frob(ref))


class TestMatrixExpStack:
    def test_stack_matches_per_slice(self):
        rng = np.random.default_rng(9)
        stack = rand_complex(rng, (40, 3, 3)) * np.geomspace(1e-3, 8.0, 40)[:, None, None]
        out = vk.matrix_exp(stack)
        assert same_bits(out, np.stack([vk.matrix_exp(x) for x in stack]))
        assert_near_expm(out, stack)

    @pytest.mark.parametrize("n", [1, 2, 4, 12])
    def test_every_degree_and_scaling_matches_per_slice(self, n):
        """1-norms just below and above each theta_m, and the m = 13 scalings
        s = 1..4 (theta_13 2^s), in one shuffled stack: every (degree, scaling)
        group sits beside the others, and each slice matches itself alone."""
        rng = np.random.default_rng(n)
        x = rand_complex(rng, (1, n, n))
        edges = [t * 2.0 ** s for t in mk._THETA.values() for s in range(5 if t > 5 else 1)]
        norms = np.array([e * f for e in edges for f in (1 - 1e-9, 1 + 1e-9)] + [0.0])
        stack = rng.permutation(x * (norms / np.abs(x).sum(axis=1).max())[:, None, None])
        out = vk.matrix_exp(stack)
        assert same_bits(out, np.stack([vk.matrix_exp(a) for a in stack]))
        assert_near_expm(out, stack)

    def test_overflowing_norm_is_named(self):
        """Entries near the largest double: the slice is finite, its 1-norm is
        not.  NonFinite names it; no scaling is derived from the infinite norm."""
        stack = np.zeros((3, 2, 2), dtype=complex)
        stack[1] = np.full((2, 2), 1e308)
        with pytest.raises(NonFinite, match="at node 1$"):
            vk.matrix_exp(stack)
        with pytest.raises(NonFinite, match="overflowed$"):
            vk.matrix_exp(stack[1])

    def test_empty_stack(self):
        out = vk.matrix_exp(np.zeros((0, 2, 2)))
        assert out.shape == (0, 2, 2) and out.dtype == complex

    @pytest.mark.parametrize("z, dim", [(800.0, 2), (710.0 + 0.5j * np.pi, 1)])
    def test_overflowing_slice_is_named(self, z, dim):
        """Also when the slice overflows in its imaginary part alone: the
        exponential of the 1 x 1 slice 710 + i pi/2 has a finite real part."""
        stack = np.zeros((4, dim, dim), dtype=complex)
        stack[2] = z * np.eye(dim)
        with pytest.raises(NonFinite, match="at node 2$") as got:
            vk.matrix_exp(stack)
        assert got.value.index == 2
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
