"""Minimality from one orthonormal Krylov basis (block Arnoldi), checked
against the PBH test as an independent oracle: probe-style chains whose
monomial Krylov matrix loses numerical rank read full rank, deliberately
non-minimal pairs read their true rank, and a gauge is recovered from the
frames."""

import importlib
import os

import numpy as np
import pytest

import vesselkit as vk
import vesselkit.vessel_core as core
from vesselkit.errors import NotMinimal
from vesselkit.matrix_kernel import max_frob, solve_sylvester

from helpers import const, rand_complex

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))

# Q Q^H against I for an orthonormal Q of size n <= 20.
ROUND_OFF = 64 * np.finfo(float).eps


def signature(m):
    return np.diag([1.0 if k % 2 == 0 else -1.0 for k in range(m)]).astype(complex)


def vessel_of(a1, b):
    """Constant families of (A1, B) on a short grid; the rank tests read only these."""
    grid = vk.TimeGrid(0.0, 1.0, 2)
    n, m = b.shape
    zeros = const(np.zeros((m, m)), grid)
    return vk.DifferentialVessel(A1=const(a1, grid), A2=const(np.zeros((n, n)), grid),
                                 B=const(b, grid), sigma1=const(signature(m), grid),
                                 sigma2=zeros, gamma=zeros, gamma_star=zeros)


def pbh_margin(a1, b):
    """min over eigenvalues z of A1 of sigma_min([zI - A1, B]); > 0 means minimal."""
    n = len(a1)
    return min(np.linalg.svd(np.hstack([z * np.eye(n) - a1, b]), compute_uv=False)[-1]
               for z in np.linalg.eigvals(a1))


def monomial_rank(a1, b, rtol=1e-10):
    blocks = [b]
    for _ in range(len(a1) - 1):
        blocks.append(a1 @ blocks[-1])
    sv = np.linalg.svd(np.hstack(blocks), compute_uv=False)
    return int(np.sum(sv > rtol * sv[0]))


def probe_chain(seed, n, m):
    """Closed-form chain (A1, B) at one node with unnormalised b0, drawn until
    PBH finds it minimal with margin >= 0.1 and the monomial Krylov matrix
    has numerical rank below n."""
    rng = np.random.default_rng(seed)
    s1 = signature(m)
    while True:
        rows = []
        while len(rows) < n:
            b0 = rand_complex(rng, m)
            if np.real(b0.conj() @ s1 @ b0) > 0.2:
                rows.append(b0)
        b0 = np.stack(rows)
        a1 = np.tril(-(b0.conj() @ s1 @ b0.T), -1)
        p = np.real(np.einsum("hi,ij,hj->h", b0.conj(), s1, b0))
        a1[np.diag_indices(n)] = -p / 2.0 + 1j * rng.uniform(-1.0, 1.0, n)
        b = b0.conj()  # rows b_h^H
        margin = pbh_margin(a1, b)
        if margin >= 0.1 and monomial_rank(a1, b) < n:
            return a1, b, margin


def non_minimal_pair(seed, n, r, m=2):
    """(A1, B) whose Krylov space is a random r-dimensional subspace: block
    triangular in a random unitary frame, B inside the leading block."""
    rng = np.random.default_rng(seed)
    w = np.linalg.qr(rand_complex(rng, (n, n)))[0]
    a = rand_complex(rng, (n, n))
    a[r:, :r] = 0.0
    b = np.zeros((n, m), dtype=complex)
    b[:r] = rand_complex(rng, (r, m))
    return w @ a @ w.conj().T, w @ b


@pytest.mark.parametrize("seed", [0, 1, 2])
@pytest.mark.parametrize("n,m", [(16, 2), (20, 4)])
def test_pbh_minimal_probe_chains_read_full_rank(n, m, seed):
    a1, b, margin = probe_chain(seed, n, m)
    assert margin >= 0.1 and monomial_rank(a1, b) < n
    assert vk.krylov_rank(a1, b) == n
    v = vessel_of(a1, b)
    got = vk.gauge_equivalence(v, v, 0)
    assert isinstance(got, vk.GaugeMap)
    assert np.max(np.abs(got.U.data - np.eye(n))) <= ROUND_OFF
    # extract_null_pole keeps its stricter monomial gate on these chains.
    with pytest.raises(NotMinimal, match=f"^monomial Krylov rank {monomial_rank(a1, b)} < {n}"):
        vk.extract_null_pole(v)


@pytest.mark.parametrize("n,m", [(16, 2), (20, 4)])
def test_gauge_recovered_from_frames(n, m):
    """Every step of the basis is unitarily invariant, so (W A1 W^H, W B)
    gives the frames W Q and Q2 Q1^H recovers W."""
    a1, b, _ = probe_chain(7, n, m)
    w = np.linalg.qr(rand_complex(np.random.default_rng(8), (n, n)))[0]
    v1 = vessel_of(a1, b)
    v2 = vk.gauge_transform(v1, vk.GaugeMap.from_family(const(w, v1.grid)))
    got = vk.gauge_equivalence(v1, v2, 1)
    assert isinstance(got, vk.GaugeMap)
    assert np.max(np.abs(got.U.data - w)) <= 1e-11


def test_dependent_b_columns_are_minimal_and_self_equivalent():
    """B = [b1, 2 b1]: the second column deflates, and the frames still fill
    the state space, so a vessel is gauge equivalent to itself."""
    rng = np.random.default_rng(3)
    a1 = rand_complex(rng, (4, 4))
    b1 = rand_complex(rng, (4, 1))
    b = np.hstack([b1, 2.0 * b1])
    assert pbh_margin(a1, b) > 0.1
    assert vk.krylov_rank(a1, b) == 4
    v = vessel_of(a1, b)
    got = vk.gauge_equivalence(v, v, 0)
    assert isinstance(got, vk.GaugeMap)
    assert np.max(np.abs(got.U.data - np.eye(4))) <= ROUND_OFF


@pytest.mark.parametrize("n,r", [(6, 3), (16, 10), (16, 13), (20, 7)])
def test_non_minimal_pairs_raise_with_their_true_rank(n, r):
    a1, b = non_minimal_pair(n + r, n, r)
    assert vk.krylov_rank(a1, b) == r
    v = vessel_of(a1, b)
    for call in (lambda: vk.gauge_equivalence(v, v, 0), lambda: vk.extract_null_pole(v),
                 lambda: vk.hermitian_realize(const(b.conj().T, v.grid), a1.conj().T,
                                              v.sigma1)):
        with pytest.raises(NotMinimal, match=f"Krylov rank {r} < {n}") as info:
            call()
        assert info.value.rank == r


@pytest.mark.parametrize("order", [(0, 1), (1, 0)])
def test_gauge_reports_the_rank_of_v1_first(order):
    """Both vessels deficient at the node (ranks 2 and 1): v1's rank is named."""
    va, vb = (vessel_of(*non_minimal_pair(r, 5, r)) for r in (2, 1))
    v1, v2 = ((va, vb)[k] for k in order)
    with pytest.raises(NotMinimal) as info:
        vk.gauge_equivalence(v1, v2, 0)
    assert info.value.rank == (2, 1)[order[0]]


def test_basis_spans_an_invariant_subspace():
    """Per node: orthonormal first `rank` columns, zeros after, B inside their
    span and A1 mapping the span into itself."""
    rng = np.random.default_rng(4)
    pairs = [non_minimal_pair(k, 7, r) for k, r in enumerate((0, 1, 4, 7))]
    a1 = np.stack([a for a, _ in pairs])
    b = np.stack([b for _, b in pairs])
    b[3, :, 1] = 0.0  # one zero column at a minimal node
    a1 = np.concatenate([a1, rand_complex(rng, (1, 7, 7))])
    b = np.concatenate([b, np.zeros((1, 7, 2))])
    q, rank = core._krylov_basis(a1, b)
    assert list(rank) == [0, 1, 4, 7, 0]
    for qi, ai, bi, ri in zip(q, a1, b, rank):
        basis = qi[:, :ri]
        assert np.all(qi[:, ri:] == 0.0)
        assert np.allclose(basis.conj().T @ basis, np.eye(ri), rtol=0, atol=1e-14)
        proj = basis @ basis.conj().T
        assert np.allclose(proj @ bi, bi, rtol=0, atol=1e-13)
        assert np.allclose(proj @ ai @ basis, ai @ basis, rtol=0, atol=1e-13)


def test_monomial_gate_refuses_an_ill_conditioned_probe(monkeypatch, tmp_path):
    """The benchmark's probe_n20_m4 vessel of inputs.rng_for(14, 0): its
    coupling Sylvester solve at node 0 gives |X| above 1e6 (1.4e15 when this
    test was written), so the monomial gate of extract_null_pole must keep
    refusing it until solve_sylvester guards its conditioning."""
    monkeypatch.syspath_prepend(os.path.join(ROOT, "perfbench"))
    inputs = importlib.import_module("inputs")
    workloads = importlib.import_module("workloads")
    probes = workloads.NodeBatch().make(inputs.rng_for(14, 0), "full", str(tmp_path))["probes"]
    v = {label: pv for label, pv, _ in probes}["probe_n20_m4"]
    with pytest.raises(NotMinimal, match=r"^monomial Krylov rank 9 < 20 at node 0$"):
        vk.extract_null_pole(v)
    a_pi, b_ref, s1 = v.A1[0], v.B[0], v.sigma1[0]
    a_xi = a_pi + b_ref @ s1 @ b_ref.conj().T
    c_data = -v.B.data.conj().transpose(0, 2, 1)
    assert max_frob(solve_sylvester(a_pi, a_xi, v.B.data @ v.sigma1.data @ c_data)) > 1e6
