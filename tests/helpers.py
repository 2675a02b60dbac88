"""Shared fixture builders for the vesselkit test suite."""

from __future__ import annotations

import importlib
import os

import numpy as np

import vesselkit as vk

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))

SIGMA1_INDEFINITE = np.diag([1.0, -1.0]).astype(complex)


def rand_hermitian(rng, m, scale=1.0):
    a = rng.normal(size=(m, m)) + 1j * rng.normal(size=(m, m))
    return scale * 0.5 * (a + a.conj().T)


def rand_skew(rng, m, scale=1.0):
    a = rng.normal(size=(m, m)) + 1j * rng.normal(size=(m, m))
    return scale * 0.5 * (a - a.conj().T)


def rand_complex(rng, shape, scale=1.0):
    return scale * (rng.normal(size=shape) + 1j * rng.normal(size=shape))


def const(matrix, grid):
    return vk.GridOperatorFamily.constant(np.asarray(matrix, dtype=complex), grid)


def colligation_datum(b0, im_part, sigma1_matrix):
    """Spectral datum whose z makes the first colligation exact at t_start."""
    b0 = np.asarray(b0, dtype=complex)
    p = float(np.real(b0.conj() @ sigma1_matrix @ b0))
    return vk.SpectralDatum(z=complex(-p / 2.0, im_part), b0=b0)


def skew_chain_vessel(grid, seed=5, n_points=3, sigma1_matrix=None):
    """Discrete vessel with sigma2 = 0 and constant skew gamma.

    These satisfy every vessel condition: the chain keeps b^H sigma1 b
    constant, so the first colligation persists along the grid.
    """
    rng = np.random.default_rng(seed)
    s1m = SIGMA1_INDEFINITE if sigma1_matrix is None else sigma1_matrix
    m = s1m.shape[0]
    s1 = const(s1m, grid)
    s2 = const(np.zeros((m, m)), grid)
    gam = const(rand_skew(rng, m, 0.5), grid)
    seeds = [np.array([1.0, 0.2j]), np.array([0.3, 1.0]), np.array([1.0, 0.5]),
             np.array([0.4, -0.8j])]
    ims = [0.3, -0.6, 0.9, -0.2]
    data = [colligation_datum(seeds[k], ims[k], s1m) for k in range(n_points)]
    return vk.build_discrete(data, gam, s1, s2, grid), data


def fold_couple(factors):
    """Left fold of couple(): the reference path for build_discrete."""
    out = factors[0]
    for f in factors[1:]:
        out = vk.couple(out, f)
    return out


def constant_sigma2_vessel(grid):
    """Constant one-dimensional vessel with sigma2 != 0, all conditions exact.

    gamma is solved from the algebraic input/output constraints (a row and a
    column condition that are mutually consistent under the colligations).
    """
    m = 2
    sigma1 = SIGMA1_INDEFINITE
    sigma2 = np.array([[0.5, 0.2 - 0.1j], [0.2 + 0.1j, -0.3]])
    b = np.array([1.0, 0.5 + 0.2j])
    p = float(np.real(b.conj() @ sigma1 @ b))
    q = float(np.real(b.conj() @ sigma2 @ b))
    z = complex(-p / 2.0, 0.4)
    w = complex(-q / 2.0, -0.25)
    col = -np.conj(w) * sigma1 @ b + np.conj(z) * sigma2 @ b
    row = b.conj() @ (w * sigma1 - z * sigma2)
    beta = float(np.real(b.conj() @ b))
    gam = (np.outer(col, b.conj()) / beta + np.outer(b, row) / beta
           - (row @ b) * np.outer(b, b.conj()) / beta**2)
    bbh = np.outer(b, b.conj())
    gam_star = gam + sigma2 @ bbh @ sigma1 - sigma1 @ bbh @ sigma2
    return vk.DifferentialVessel(
        A1=const([[z]], grid),
        A2=const([[w]], grid),
        B=const(b.conj()[None, :], grid),
        sigma1=const(sigma1, grid),
        sigma2=const(sigma2, grid),
        gamma=const(gam, grid),
        gamma_star=const(gam_star, grid),
    )


def random_vessel(n, m, grid, sigma1, sigma2, gamma, seed):
    """Arbitrary smooth vessel data (no conditions enforced), valid gamma chain."""
    rng = np.random.default_rng(seed)
    t = grid.nodes()[:, None, None]
    a1 = rand_complex(rng, (1, n, n)) + 0.2 * t * rand_complex(rng, (1, n, n))
    a2 = rand_complex(rng, (1, n, n)) + 0.2 * t * rand_complex(rng, (1, n, n))
    b = rand_complex(rng, (1, n, m)) + 0.1 * t * rand_complex(rng, (1, n, m))
    gs = gamma.data + 0.2 * t.real * rand_skew(rng, m)[None, :, :]
    return vk.DifferentialVessel(
        A1=vk.GridOperatorFamily(grid, a1),
        A2=vk.GridOperatorFamily(grid, a2),
        B=vk.GridOperatorFamily(grid, b),
        sigma1=sigma1,
        sigma2=sigma2,
        gamma=gamma,
        gamma_star=vk.GridOperatorFamily(grid, gs),
    )


def consistent_triple_data(n_steps, scale=0.15, amp=0.7, seed=11, n=3, m=2):
    """Null-pole data with the pole/null pairs integrated from their ODEs."""
    rng = np.random.default_rng(seed)
    grid = vk.TimeGrid(0.0, 1.0, n_steps)
    s1 = const(SIGMA1_INDEFINITE, grid)
    s2 = const(rand_hermitian(rng, m, scale), grid)
    gs = const(rand_skew(rng, m, scale), grid)
    a_pi = np.diag([-0.5 + 0.4j, -0.8 - 0.3j, -0.3 + 0.9j])[:n, :n] \
        + scale * 0.2 * rng.normal(size=(n, n))
    a_xi = np.diag([0.6 + 0.2j, 0.4 - 0.7j, 0.9 + 0.5j])[:n, :n] \
        + scale * 0.2 * rng.normal(size=(n, n))
    c0 = rand_complex(rng, (m, n), amp)
    bn0 = rand_complex(rng, (n, m), amp)
    c = vk.evolve_pole_pair(c0, a_pi, gs, s1, s2, grid)
    bn = vk.evolve_null_pair(bn0, a_xi, gs, s1, s2, grid)
    x0 = vk.solve_sylvester(a_pi, a_xi, bn0 @ s1[0] @ c0)
    return grid, s1, s2, gs, a_pi, a_xi, c, bn, x0


def observable_stable_pair(rng, n, m):
    """Random (A1, C) with A1 + A1^H negative definite."""
    a1 = rand_complex(rng, (n, n))
    shift = np.max(np.linalg.eigvalsh(a1 + a1.conj().T)) / 2.0 + 0.5
    a1 = a1 - shift * np.eye(n)
    c = rand_complex(rng, (m, n))
    return a1, c


def probe_lambdas(rng, count, scale=1.0, re_min=0.8, re_max=2.5):
    return [complex(rng.uniform(re_min, re_max) * scale, rng.uniform(-2.0, 2.0) * scale)
            for _ in range(count)]


def perfbench_modules(monkeypatch):
    """The benchmark's input generators and workloads (perfbench/inputs.py and
    perfbench/workloads.py), imported as the benchmark imports them."""
    monkeypatch.syspath_prepend(os.path.join(ROOT, "perfbench"))
    return importlib.import_module("inputs"), importlib.import_module("workloads")
