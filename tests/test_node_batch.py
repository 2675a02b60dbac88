"""The grid node as a batch axis: stacked kernels against per-slice calls, and
the batched node-axis code paths against node-by-node references kept here."""

import re

import numpy as np
import pytest
import scipy.linalg
from hypothesis import given, settings
from hypothesis import strategies as st

import vesselkit as vk
import vesselkit.vessel_core as core
from vesselkit.errors import (
    DegenerateB,
    GridMismatch,
    NotHermitian,
    NotMinimal,
    NotPositiveDefinite,
    SingularSystem,
    SpectrumClash,
)
from vesselkit.matrix_kernel import frob, hermitian_part, hermitian_sqrt, max_frob, solve_sylvester

from helpers import SIGMA1_INDEFINITE, const, rand_complex, rand_hermitian, skew_chain_vessel


def same_bits(a, b) -> bool:
    a, b = np.asarray(a), np.asarray(b)
    return a.shape == b.shape and a.tobytes() == b.tobytes()


def node_of(exc) -> int:
    return int(re.search(r"at node (\d+)", str(exc.value)).group(1))


def sylvester_data(rng, n=12, k=12, count=20):
    a_pi = rand_complex(rng, (n, n)) + 4.0 * np.eye(n)
    a_xi = rand_complex(rng, (k, k)) - 4.0 * np.eye(k)
    return a_pi, a_xi, rand_complex(rng, (count, k, n))


class TestStackedKernels:
    @pytest.mark.parametrize("n,k", [(12, 12), (3, 5), (1, 1)])
    def test_sylvester_stack_equals_slices(self, n, k):
        a_pi, a_xi, q = sylvester_data(np.random.default_rng(n + k), n, k)
        x = solve_sylvester(a_pi, a_xi, q)
        assert x.shape == q.shape
        assert all(same_bits(x[i], solve_sylvester(a_pi, a_xi, q[i])) for i in range(len(q)))
        assert same_bits(solve_sylvester(a_pi, a_xi, q[:1])[0], x[0])

    @pytest.mark.parametrize("require_pd", [False, True])
    def test_hermitian_sqrt_stack_equals_slices(self, require_pd):
        rng = np.random.default_rng(2)
        g = rand_complex(rng, (15, 6, 6))
        x = g @ g.conj().transpose(0, 2, 1) + 0.1 * np.eye(6)
        roots = hermitian_sqrt(x, require_pd=require_pd)
        assert all(same_bits(roots[i], hermitian_sqrt(x[i], require_pd=require_pd))
                   for i in range(len(x)))

    def test_sylvester_spectral_check_runs_once_per_stack(self, monkeypatch):
        a_pi, _, q = sylvester_data(np.random.default_rng(3), 4, 4, count=50)
        calls = []
        eigvals = np.linalg.eigvals
        monkeypatch.setattr(np.linalg, "eigvals", lambda a: calls.append(1) or eigvals(a))
        with pytest.raises(SpectrumClash) as exc:
            solve_sylvester(a_pi, a_pi, q)
        assert len(calls) == 2
        assert "node" not in str(exc.value)

    def test_sylvester_names_first_bad_slice(self, monkeypatch):
        a_pi, a_xi, q = sylvester_data(np.random.default_rng(4), 3, 3)
        solve = np.linalg.solve

        def corrupt(a, b):  # spoil the solutions of slices 5 and 9 only
            out = solve(a, b)
            out[:, [5, 9]] += 1.0
            return out

        monkeypatch.setattr(np.linalg, "solve", corrupt)
        with pytest.raises(SingularSystem) as exc:
            solve_sylvester(a_pi, a_xi, q)
        assert node_of(exc) == 5

    def test_hermitian_sqrt_names_first_bad_slice(self):
        x = np.stack([np.eye(3, dtype=complex)] * 8)
        x[6] = np.diag([1.0, -1.0, 1.0])
        x[2] = np.diag([1.0, 1.0, -1.0])
        for require_pd in (False, True):
            with pytest.raises(NotPositiveDefinite) as exc:
                hermitian_sqrt(x, require_pd=require_pd)
            assert node_of(exc) == 2
        x[2] = np.eye(3)
        x[1, 0, 2] = 1.0
        with pytest.raises(NotHermitian) as exc:
            hermitian_sqrt(x)
        assert node_of(exc) == 1

    def test_frob_of_stack_equals_slices(self):
        a = rand_complex(np.random.default_rng(5), (9, 4, 7))
        for stack in (a, a.transpose(0, 2, 1), a.real):
            assert same_bits(frob(stack), [frob(s) for s in stack])

    def test_max_frob_on_constant_family(self):
        grid = vk.TimeGrid(0.0, 1.0, 800)
        s1 = rand_hermitian(np.random.default_rng(6), 3)
        assert max_frob(const(s1, grid).data) == frob(s1)


@given(seed=st.integers(0, 2**32 - 1), n=st.integers(1, 4), k=st.integers(1, 4),
       count=st.integers(1, 5), log_gap=st.floats(-14.0, 0.0), power=st.integers(-30, 30))
@settings(max_examples=80, deadline=None, derandomize=True, database=None)
def test_sylvester_stack_property(seed, n, k, count, log_gap, power):
    """Stacked solves equal per-slice solves; scaling every operand by c > 0
    fires the same guards.  One eigenvalue of a_xi sits 10**log_gap times the
    operand scale away from the spectrum of a_pi, so both outcomes occur.
    c is a power of two, so the scaled problem is the same problem exactly."""
    rng = np.random.default_rng(seed)
    a_pi = rand_complex(rng, (n, n))
    a_xi = rand_complex(rng, (k, k))
    scale = frob(a_pi) + frob(a_xi)
    shift = np.linalg.eigvals(a_pi)[0] - np.linalg.eigvals(a_xi)[0] + 10.0**log_gap * scale
    a_xi = a_xi + shift * np.eye(k)
    q = rand_complex(rng, (count, k, n))

    def outcome(c):
        try:
            return solve_sylvester(c * a_pi, c * a_xi, c * q)
        except (SpectrumClash, SingularSystem) as exc:
            return type(exc)

    x, scaled = outcome(1.0), outcome(2.0**power)
    if isinstance(x, type):
        assert scaled is x
        return
    assert not isinstance(scaled, type)
    assert all(same_bits(x[i], solve_sylvester(a_pi, a_xi, q[i])) for i in range(count))


def hermitian_reference(c, a1, sigma1):
    """The node-by-node hermitian_realize pass: (exception type, node, message
    start) of the first failure, or the per-node X, Y, C~, A1~ and the three
    reported scalars."""
    out = {"X": [], "Y": [], "C_tilde": [], "A1_tilde": []}
    coll, min_eig = 0.0, np.inf
    for i in range(len(c)):
        x = hermitian_part(solve_sylvester(a1, -a1.conj().T, -(c[i].conj().T @ sigma1[i] @ c[i])))
        min_eig = min(min_eig, float(np.linalg.eigh(x)[0][0]))
        try:  # an indefinite X fails the same eps_pd test as a tiny one
            y = hermitian_sqrt(x, require_pd=True)
        except NotPositiveDefinite as exc:
            return NotPositiveDefinite, i, str(exc)
        yinv = np.linalg.inv(y)
        ct, at = c[i] @ yinv, y @ a1 @ yinv
        coll = max(coll, frob(at + at.conj().T + ct.conj().T @ sigma1[i] @ ct))
        for key, value in zip(out, (x, y, ct, at)):
            out[key].append(value)
    out = {key: np.stack(value) for key, value in out.items()}
    jumps = [frob(out["X"][i + 1] - out["X"][i]) for i in range(len(c) - 1)]
    return out, (coll, min_eig, max(jumps))


class TestHermitianRealize:
    grid = vk.TimeGrid(0.0, 1.0, 10)

    def realize(self, tiny=(), negative=()):
        """A1 = -I, so X = C^H sigma1 C / 2 exactly: a tiny second entry of C
        leaves X positive but below eps_pd, a sign flip in sigma1 makes X
        indefinite."""
        c = np.stack([np.diag([1.0, 1.0 + 0.1 * i]) for i in range(self.grid.n_nodes)])
        s1 = np.stack([np.eye(2)] * self.grid.n_nodes)
        for i in tiny:
            c[i, 1, 1] = 1e-7
        for i in negative:
            s1[i, 1, 1] = -1.0
        args = (vk.GridOperatorFamily(self.grid, c), -np.eye(2),
                vk.GridOperatorFamily(self.grid, s1))
        return hermitian_reference(*args), args

    def test_matches_node_loop(self):
        rng = np.random.default_rng(8)
        nn = self.grid.n_nodes
        args = (vk.GridOperatorFamily(self.grid, rand_complex(rng, (nn, 2, 4))),
                rand_complex(rng, (4, 4)) - 4.0 * np.eye(4),
                vk.GridOperatorFamily(self.grid, np.stack([np.diag([1.0, 2.0])] * nn)))
        arrays, scalars = hermitian_reference(*args)
        hr = vk.hermitian_realize(*args)
        for key, value in arrays.items():
            assert same_bits(getattr(hr, key).data, value)
        assert (hr.colligation_residual, hr.min_eig_X, hr.max_step_jump) == scalars

    @pytest.mark.parametrize("tiny,negative", [((), (6,)), ((3,), ()), ((3,), (6,)),
                                               ((7,), (2, 5)), ((0,), (0,))])
    def test_first_failing_node_matches_node_loop(self, tiny, negative):
        ref, args = self.realize(tiny, negative)
        with pytest.raises(NotPositiveDefinite) as exc:
            vk.hermitian_realize(*args)
        assert ref[:2] == (NotPositiveDefinite, node_of(exc))
        assert str(exc.value).startswith(ref[2])


def frames_reference(v1, v2, node):
    """The node-by-node frame loop of gauge_equivalence, with scipy's QR of the
    monomial Krylov matrix.  Its frames equal the block-Arnoldi ones only in
    exact arithmetic, so U is compared at FRAME_ROUND_OFF."""
    n = v1.state_dim
    for v in (v1, v2):
        if vk.krylov_rank(v.A1[node], v.B[node]) < n:
            return NotMinimal, node
    u = []
    for i in range(v1.grid.n_nodes):
        frames = []
        for v in (v1, v2):
            blocks = [v.B[i]]
            for _ in range(n - 1):
                blocks.append(v.A1[i] @ blocks[-1])
            q, r = scipy.linalg.qr(np.hstack(blocks), mode="economic")
            diag = np.diagonal(r)[:n]
            if np.sum(np.abs(diag) > 1e-10 * np.max(np.abs(diag))) < n:
                return (NotMinimal if i == node else vk.NotEquivalent), i
            frames.append(q * (diag / np.abs(diag)).conj())
        u.append(frames[1] @ frames[0].conj().T)
    return np.stack(u)


# Entries of U are those of a unitary; the two frame rules differ by the
# round-off of orthogonalizing 3 x 6 well-conditioned Krylov matrices.
FRAME_ROUND_OFF = 32 * np.finfo(float).eps


def same_frames(got, ref) -> bool:
    return got.shape == ref.shape and np.max(np.abs(got - ref)) <= FRAME_ROUND_OFF


class TestGaugeFrames:
    grid = vk.TimeGrid(0.0, 1.0, 12)

    def vessel(self, seed, zero=(), tiny=()):
        """Unconstrained A1 and B; B vanishes at `zero` nodes and is 1e-12 at
        `tiny` ones (full rank relatively, and so in the frames)."""
        rng = np.random.default_rng(seed)
        nn = self.grid.n_nodes
        b = rand_complex(rng, (nn, 3, 2))
        b[list(zero)] = 0.0
        b[list(tiny)] *= 1e-12
        a1 = vk.GridOperatorFamily(self.grid, rand_complex(rng, (nn, 3, 3)))
        zeros = const(np.zeros((2, 2)), self.grid)
        return vk.DifferentialVessel(A1=a1, A2=const(np.zeros((3, 3)), self.grid),
                                     B=vk.GridOperatorFamily(self.grid, b),
                                     sigma1=const(SIGMA1_INDEFINITE, self.grid),
                                     sigma2=zeros, gamma=zeros, gamma_star=zeros)

    def outcome(self, v1, v2, node):
        try:
            got = vk.gauge_equivalence(v1, v2, node, probes=0)
        except NotMinimal as exc:
            return NotMinimal, int(re.search(r"(?:node (\d+))?$", str(exc)).group(1) or node)
        if isinstance(got, vk.NotEquivalent):
            return vk.NotEquivalent, int(re.search(r"at node (\d+)", got.reason).group(1))
        return got.U.data

    def test_u_matches_node_loop(self):
        v = self.vessel(1)
        assert same_frames(self.outcome(v, v, 3), frames_reference(v, v, 3))

    @pytest.mark.parametrize("node", [0, 4, 7, 12])
    def test_first_deficient_node_matches_node_loop(self, node):
        v1 = self.vessel(2, zero=(7,), tiny=(4,))
        v2 = self.vessel(3, tiny=(9,))
        for a, b in ((v1, v1), (v1, v2), (v2, v1), (v2, v2)):
            got, ref = self.outcome(a, b, node), frames_reference(a, b, node)
            assert same_frames(got, ref) if isinstance(ref, np.ndarray) else got == ref


def test_degenerate_b_names_first_node():
    """b stays (1, 1)/sqrt(2) with gamma = 0, so b^H sigma1 b = (1 - s)/2
    vanishes exactly where sigma1 = diag(1, -s) has s = 1."""
    grid = vk.TimeGrid(0.0, 1.0, 10)
    s1 = np.stack([np.diag([1.0, -2.0])] * grid.n_nodes).astype(complex)
    s1[[6, 4], 1, 1] = -1.0
    zeros = const(np.zeros((2, 2)), grid)
    datum = vk.SpectralDatum(z=-0.5, b0=np.array([1.0, 1.0]) / np.sqrt(2.0))
    with pytest.raises(DegenerateB, match="at node 4$"):
        vk.build_elementary(datum, zeros, vk.GridOperatorFamily(grid, s1), zeros, grid)


def test_build_discrete_matches_node_loop():
    """Stacked assembly against the node-by-node one: bit for bit with a
    signature sigma1 and sigma2 = 0, to round-off for a general sigma2."""
    grid = vk.TimeGrid(0.0, 1.0, 40)
    v, data = skew_chain_vessel(grid, n_points=4)
    rng = np.random.default_rng(7)
    for s2, exact in ((v.sigma2, True), (const(rand_hermitian(rng, 2, 0.3), grid), False)):
        w = vk.build_discrete(data, v.gamma, v.sigma1, s2, grid)
        factors = vk.discrete_chain(data, v.gamma, v.sigma1, s2, grid)
        a1, a2 = np.zeros_like(w.A1.data), np.zeros_like(w.A2.data)
        for i in range(grid.n_nodes):
            bs = [b[i][:, 0].conj() for b in factors.b_evolved]
            for hi in range(len(bs)):
                for hj in range(hi):
                    a1[i, hi, hj] = -(bs[hi] @ v.sigma1[i] @ bs[hj].conj())
                    a2[i, hi, hj] = -(bs[hi] @ s2[i] @ bs[hj].conj())
        diag = np.arange(len(bs))
        a1[:, diag, diag], a2[:, diag, diag] = w.A1.data[:, diag, diag], w.A2.data[:, diag, diag]
        if exact:
            assert same_bits(w.A1.data, a1) and same_bits(w.A2.data, a2)
        assert np.allclose(w.A1.data, a1, rtol=0, atol=1e-14)
        assert np.allclose(w.A2.data, a2, rtol=0, atol=1e-14)
        assert same_bits(w.gamma_star.data, factors.gamma_chain[-1].data)


class TestNodeArguments:
    grid = vk.TimeGrid(0.0, 1.0, 8)
    bad_nodes = [-1, 9]

    @pytest.fixture(scope="class")
    def vessel(self):
        return skew_chain_vessel(self.grid)[0]

    @pytest.mark.parametrize("node", bad_nodes)
    def test_gauge_equivalence(self, vessel, node, monkeypatch):
        monkeypatch.setattr(core, "_krylov_basis", None)  # never reached
        with pytest.raises(GridMismatch):
            vk.gauge_equivalence(vessel, vessel, node)

    @pytest.mark.parametrize("node", bad_nodes)
    def test_extract_null_pole(self, vessel, node):
        with pytest.raises(GridMismatch):
            vk.extract_null_pole(vessel, node)

    @pytest.mark.parametrize("node", bad_nodes)
    def test_extract_elementary(self, vessel, node):
        with pytest.raises(GridMismatch):
            vk.extract_elementary(vessel, 0, node)

    @pytest.mark.parametrize("node", bad_nodes)
    def test_zero_pole_transfer(self, vessel, node):
        realized = vk.zero_pole_realize(vk.extract_null_pole(vessel), vessel.gamma_star,
                                        vessel.sigma1, vessel.sigma2)
        assert realized.transfer(2.0, 8).shape == (2, 2)
        with pytest.raises(GridMismatch):
            realized.transfer(2.0, node)
        with pytest.raises(GridMismatch):
            realized.transfer(2.0, [0, node])

    @pytest.mark.parametrize("node", bad_nodes)
    def test_hermitian_transfer(self, node):
        hr = vk.hermitian_realize(const(np.eye(2), self.grid), -np.eye(2),
                                  const(np.eye(2), self.grid))
        assert hr.transfer(2.0, 8).shape == (2, 2)
        with pytest.raises(GridMismatch):
            hr.transfer(2.0, node)
