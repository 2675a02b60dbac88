"""Seeded input generators for the benchmark workloads.

Every generator draws from a numpy Generator, so one (seed, iteration) pair
always gives the same inputs.  The vessels are discrete chain vessels with
sigma2 = 0 and a constant skew gamma (the family the test suite uses): they
satisfy every vessel condition, so any failed check is the program's fault.
Their auxiliary vectors have the closed form b(t) = expm(t sigma1^-1 gamma) b0,
which the generators use to build reference data without calling the program.
"""

from __future__ import annotations

import numpy as np
import scipy.linalg


def sigma1_matrix(m: int) -> np.ndarray:
    """Indefinite signature diag(1, -1, 1, -1, ...)."""
    return np.diag([1.0 if k % 2 == 0 else -1.0 for k in range(m)]).astype(complex)


def rng_for(seed: int, iteration: int) -> np.random.Generator:
    return np.random.default_rng([seed, iteration])


def fixed_rng(index: int) -> np.random.Generator:
    """Inputs that do not depend on --seed (worst_residual_ratio repeats exactly)."""
    return np.random.default_rng([20081223, index, 7])


def skew(rng, m: int, scale: float) -> np.ndarray:
    a = rng.normal(size=(m, m)) + 1j * rng.normal(size=(m, m))
    return scale * 0.5 * (a - a.conj().T)


def hermitian(rng, m: int, scale: float) -> np.ndarray:
    a = rng.normal(size=(m, m)) + 1j * rng.normal(size=(m, m))
    return scale * 0.5 * (a + a.conj().T)


def lambdas(rng, count: int) -> list[complex]:
    """Probe points right of the spectrum (every spectrum here has Re z < 0)."""
    return [complex(rng.uniform(0.8, 2.5), rng.uniform(-2.0, 2.0)) for _ in range(count)]


def chain_data(rng, n: int, s1m: np.ndarray, spread: float = 1.5):
    """n spectral points (z, b0) with unit b0, b0^H sigma1 b0 >= 0.3 and
    z = -b0^H sigma1 b0 / 2 + i y, the y spread evenly over [-spread, spread].

    This keeps the spectrum well separated and of modulus near 1, the regime
    where a monomial Krylov test of minimality is reliable.
    """
    m = s1m.shape[0]
    ys = np.linspace(-spread, spread, n) + rng.uniform(-0.05, 0.05, n)
    rng.shuffle(ys)
    out = []
    for y in ys:
        while True:
            b0 = rng.normal(size=m) + 1j * rng.normal(size=m)
            b0 = b0 / np.linalg.norm(b0)
            p = float(np.real(b0.conj() @ s1m @ b0))
            if p >= 0.3:
                break
        out.append((complex(-p / 2.0, y), b0))
    return out


def chain_operators(points, gamma0: np.ndarray, s1m: np.ndarray, nodes: np.ndarray):
    """Closed-form A1 (constant, n x n) and B (per node, n x m) of the chain vessel."""
    n = len(points)
    b0 = np.stack([b for _, b in points])  # rows b_h0 (not conjugated)
    a1 = np.zeros((n, n), dtype=complex)
    for i in range(n):
        a1[i, i] = points[i][0]
        for j in range(i):
            a1[i, j] = -(b0[i].conj() @ s1m @ b0[j])
    coeff = np.linalg.solve(s1m, gamma0)
    flow = scipy.linalg.expm((nodes - nodes[0])[:, None, None] * coeff)  # b(t) = flow b0
    b_cols = np.einsum("tij,hj->thi", flow, b0)
    return a1, b_cols.conj()


def transfer(a1: np.ndarray, b: np.ndarray, s1m: np.ndarray, lam: complex) -> np.ndarray:
    """S = I - B^H (lam I - A1)^-1 B sigma1, evaluated independently of the program."""
    n, m = b.shape
    return np.eye(m) - b.conj().T @ np.linalg.solve(lam * np.eye(n) - a1, b @ s1m)


def monomial_rank(a1: np.ndarray, b: np.ndarray, rtol: float = 1e-10) -> int:
    blocks = [b]
    for _ in range(a1.shape[0] - 1):
        blocks.append(a1 @ blocks[-1])
    sv = np.linalg.svd(np.hstack(blocks), compute_uv=False)
    return int(np.sum(sv > rtol * sv[0]))


def pbh_margin(a1: np.ndarray, b: np.ndarray) -> float:
    """min over eigenvalues z of sigma_min([zI - A1, B]); > 0 means minimal."""
    n = a1.shape[0]
    return min(
        float(np.linalg.svd(np.hstack([z * np.eye(n) - a1, b]), compute_uv=False)[-1])
        for z in np.linalg.eigvals(a1)
    )


def defect_probe_data(rng, n: int, m: int):
    """Spectral data of a minimal chain vessel that a monomial Krylov test
    wrongly finds rank deficient.

    b0 is drawn unnormalised, which spreads |z| and the row norms of B; draws
    repeat until the PBH margin is at least 0.1 (the vessel is minimal) and the
    monomial Krylov matrix has numerical rank below n at rtol 1e-10.
    """
    s1m = sigma1_matrix(m)
    while True:
        points = []
        for _ in range(n):
            while True:
                b0 = rng.normal(size=m) + 1j * rng.normal(size=m)
                p = float(np.real(b0.conj() @ s1m @ b0))
                if p > 0.2:
                    break
            points.append((complex(-p / 2.0, rng.uniform(-1.0, 1.0)), b0))
        gamma0 = skew(rng, m, 0.5)
        a1, b = chain_operators(points, gamma0, s1m, np.zeros(1))
        rank = monomial_rank(a1, b[0])
        margin = pbh_margin(a1, b[0])
        if rank < n and margin >= 0.1:
            return points, gamma0, {"monomial_rank": rank, "pbh_margin": margin}


def continuous_model_data(rng, n_s: int):
    """Kernel data of a continuous-spectrum model that is compatible in s and t
    (sigma1 = I, constant c, gamma0 + gamma0^H = 2 c sigma2)."""
    m = 2
    s = np.linspace(0.0, 1.0, n_s + 1)
    a, ph = rng.uniform(0.8, 1.2), rng.uniform(0.0, 0.5)
    c0, c1 = rng.uniform(0.3, 0.5), rng.uniform(0.2, 0.4)
    beta0 = np.stack([np.array([[np.cos(a * x + ph)], [c0 + 1j * c1 * x]]) for x in s])
    s2 = hermitian(rng, m, 0.3)
    c_const = rng.uniform(0.3, 0.5)
    gamma0 = skew(rng, m, 0.3) + c_const * s2
    return beta0, np.full(n_s + 1, c_const), np.eye(m, dtype=complex), s2, gamma0
