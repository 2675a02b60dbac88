"""Property tests of the paper's transfer-function identities on small random
chain vessels: reflection symmetry, coupling multiplicativity and gauge
invariance.  Each identity is checked once on a cold spectra store and once on
the warm one (the two sweeps agree bit for bit), against a round-off bound
scaled by the norms that carry the error of S: the condition number of
lam I - A1 and the size of B^H (lam I - A1)^(-1) B sigma1.  Last, the Krylov
rank rule is scale invariant.
"""

import numpy as np
import pytest
import scipy.linalg
from hypothesis import assume, given, settings
from hypothesis import strategies as st

import vesselkit as vk
import vesselkit.vessel_core as core
from vesselkit.matrix_kernel import frob

from helpers import SIGMA1_INDEFINITE, const, rand_complex, rand_skew

EPS = np.finfo(float).eps
SLACK = 64.0  # round-off units allowed per unit of the norm-scaled bound

SETTINGS = settings(max_examples=40, deadline=None, derandomize=True, database=None)
seeds = st.integers(0, 2**32 - 1)
sizes = st.integers(1, 3)
steps = st.integers(1, 6)
parts = st.floats(-3.0, 3.0)


def chain_vessel(seed, n, n_steps, gamma=None):
    """Closed-form chain vessel with sigma2 = 0 and constant skew gamma.

    b_h(t) = exp(t sigma1^-1 gamma) b_h(0), a sigma1-unitary flow, so
    b_i^H sigma1 b_j is constant in t.  A1 is lower triangular with the
    diagonal z_h = -b_h^H sigma1 b_h / 2 + i y_h and the strictly lower
    entries -b_i^H sigma1 b_j; B stacks the rows b_h^H.  The first
    colligation then holds to round-off at every node.
    """
    rng = np.random.default_rng(seed)
    grid = vk.TimeGrid(0.0, 1.0, n_steps)
    s1m = SIGMA1_INDEFINITE
    if gamma is None:
        gamma = rand_skew(rng, 2, 0.5)
    b0 = rand_complex(rng, (2, n))  # columns b_h(0)
    flow = scipy.linalg.expm(grid.nodes()[:, None, None] * np.linalg.solve(s1m, gamma))
    b = (flow @ b0).conj().transpose(0, 2, 1)
    p = np.real(np.einsum("ih,ij,jh->h", b0.conj(), s1m, b0))
    a1 = np.tril(-(b @ s1m @ b.conj().transpose(0, 2, 1)), -1)
    a1[:, np.arange(n), np.arange(n)] = -p / 2.0 + 1j * rng.uniform(-2.0, 2.0, n)
    zero = const(np.zeros((2, 2)), grid)
    return vk.DifferentialVessel(
        A1=vk.GridOperatorFamily(grid, a1), A2=const(np.zeros((n, n)), grid),
        B=vk.GridOperatorFamily(grid, b), sigma1=const(s1m, grid), sigma2=zero,
        gamma=const(gamma, grid), gamma_star=const(gamma, grid))


def scale(v, lam):
    """Per node: cond(lam I - A1) and 1 + |B|^2 |sigma1| |(lam I - A1)^-1|."""
    shifted = lam * np.eye(v.state_dim) - v.A1.data
    r = np.linalg.inv(shifted)
    return frob(shifted) * frob(r), 1.0 + frob(v.B.data) ** 2 * frob(v.sigma1.data) * frob(r)


def clear_of_spectrum(lam, *vessels):
    """lam at a distance of at least 0.1 from every eigenvalue of every A1."""
    return all(np.min(np.abs(np.linalg.eigvals(v.A1.data) - lam)) > 0.1 for v in vessels)


def sweeps(v, lams):
    """transfer_sweep on the cold store, then on the warm one."""
    cold = vk.transfer_sweep(v, lams)
    warm = vk.transfer_sweep(v, lams)
    assert cold.tobytes() == warm.tobytes()
    return cold, warm


@SETTINGS
@given(seed=seeds, n=sizes, n_steps=steps, re=parts, im=parts)
def test_reflection_symmetry(seed, n, n_steps, re, im):
    """S(-conj(lam))^H sigma1 S(lam) = sigma1 at every node."""
    v = chain_vessel(seed, n, n_steps)
    lam = complex(re, im)
    mu = -np.conj(lam)
    assume(clear_of_spectrum(lam, v) and clear_of_spectrum(mu, v))
    s1 = v.sigma1.data
    (k_lam, g_lam), (k_mu, g_mu) = scale(v, lam), scale(v, mu)
    bound = SLACK * EPS * frob(s1) * g_lam * g_mu * (k_lam + k_mu)
    for s in sweeps(v, [lam, mu]):
        defect = s[1].conj().transpose(0, 2, 1) @ s1 @ s[0] - s1
        assert np.all(frob(defect) <= bound)


@SETTINGS
@given(seed=seeds, n1=sizes, n2=sizes, n_steps=steps, re=parts, im=parts)
def test_coupling_multiplicativity(seed, n1, n2, n_steps, re, im):
    """S_couple(v1, v2) = S_v2 S_v1 at every node."""
    gamma = rand_skew(np.random.default_rng(seed), 2, 0.5)
    v1 = chain_vessel(seed, n1, n_steps, gamma)
    v2 = chain_vessel(seed + 1, n2, n_steps, gamma)
    coupled = vk.couple(v1, v2)
    lam = complex(re, im)
    assume(clear_of_spectrum(lam, v1, v2))
    (k1, g1), (k2, g2), (kc, gc) = (scale(v, lam) for v in (v1, v2, coupled))
    bound = SLACK * EPS * (gc * kc + g1 * g2 * (k1 + k2))
    for s_c, s_1, s_2 in zip(*(sweeps(v, [lam]) for v in (coupled, v1, v2))):
        assert np.all(frob(s_c[0] - s_2[0] @ s_1[0]) <= bound)


@SETTINGS
@given(seed=seeds, n=sizes, n_steps=steps, re=parts, im=parts)
def test_gauge_invariance(seed, n, n_steps, re, im):
    """A unitary change of state frame U(t) = exp(t K), K skew, leaves S unchanged."""
    v = chain_vessel(seed, n, n_steps)
    k = rand_skew(np.random.default_rng(seed + 7), n, 1.5)
    u = scipy.linalg.expm(v.grid.nodes()[:, None, None] * k)
    gauged = vk.gauge_transform(v, vk.GaugeMap.from_family(vk.GridOperatorFamily(v.grid, u)))
    lam = complex(re, im)
    assume(clear_of_spectrum(lam, v))
    (k_v, g_v), (k_g, g_g) = scale(v, lam), scale(gauged, lam)
    bound = SLACK * EPS * (g_v * k_v + g_g * k_g)
    for s_g, s_v in zip(sweeps(gauged, [lam]), sweeps(v, [lam])):
        assert np.all(frob(s_g[0] - s_v[0]) <= bound)


@pytest.mark.parametrize("sign", [1.0, -1.0])
def test_reflection_symmetry_fails_off_the_colligation(sign):
    """The bound is tight enough to see a colligation defect of 1e-6."""
    v = chain_vessel(3, 2, 4)
    a1 = v.A1.data + sign * 1e-6 * np.eye(2)
    broken = vk.DifferentialVessel(A1=vk.GridOperatorFamily(v.grid, a1), A2=v.A2, B=v.B,
                                   sigma1=v.sigma1, sigma2=v.sigma2, gamma=v.gamma,
                                   gamma_star=v.gamma_star)
    lam = 1.3 + 0.4j
    mu = -np.conj(lam)
    s = vk.transfer_sweep(broken, [lam, mu])
    s1 = v.sigma1.data
    (k_lam, g_lam), (k_mu, g_mu) = scale(broken, lam), scale(broken, mu)
    bound = SLACK * EPS * frob(s1) * g_lam * g_mu * (k_lam + k_mu)
    assert np.all(frob(s[1].conj().transpose(0, 2, 1) @ s1 @ s[0] - s1) > bound)


@SETTINGS
@given(seed=seeds, n=st.integers(1, 8), m=st.integers(1, 3), shift_a=st.integers(-40, 40),
       shift_b=st.integers(-40, 40))
def test_krylov_rank_is_scale_invariant(seed, n, m, shift_a, shift_b):
    """Scaling A1 by 2^shift_a and B by 2^shift_b scales every Arnoldi
    candidate by a power of two, so each node keeps its rank, and its frame
    bit for bit.  The nodes have Krylov spaces of random dimension r (block
    triangular A1 in a random unitary frame, B in the leading block)."""
    rng = np.random.default_rng(seed)
    nodes = 6
    ranks = rng.integers(0, n + 1, nodes)
    w = np.linalg.qr(rand_complex(rng, (nodes, n, n)))[0]
    a = rand_complex(rng, (nodes, n, n))
    b = rand_complex(rng, (nodes, n, m))
    for i, r in enumerate(ranks):
        a[i, r:, :r] = 0.0
        b[i, r:] = 0.0
    a1, b = w @ a @ w.conj().transpose(0, 2, 1), w @ b
    q, rank = core._krylov_basis(a1, b)
    q_scaled, rank_scaled = core._krylov_basis(2.0 ** shift_a * a1, 2.0 ** shift_b * b)
    assert list(rank) == list(ranks)
    assert list(rank_scaled) == list(ranks)
    assert q_scaled.tobytes() == q.tobytes()
