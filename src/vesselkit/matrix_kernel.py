"""Dense complex matrix primitives used by every other module.

All routines work on plain ``numpy.ndarray`` values with dtype complex128 and
need numpy only.  Inputs are validated (finite entries, nonzero dimensions)
and all residual bounds are relative to Frobenius norms.  Matrix exponentials
are by scaling and squaring with a Pade degree chosen per slice from its
1-norm (Higham 2005); slices of equal degree and scaling are one stack.
Everything here is a pure function of its arguments, hence safe to call
concurrently.
"""

from __future__ import annotations

from math import factorial

import numpy as np

from .config import EPS_PD_REL, EPS_SPEC_REL
from .errors import (
    NonFinite,
    NotHermitian,
    NotPositiveDefinite,
    ShapeMismatch,
    SingularSystem,
    SpectrumClash,
)

__all__ = [
    "as_matrix",
    "as_hermitian",
    "frob",
    "max_frob",
    "hermitian_part",
    "shifted_solve",
    "hermitian_sqrt",
    "solve_sylvester",
    "matrix_exp",
]


def as_matrix(a, name: str = "matrix") -> np.ndarray:
    """Validate and return `a` as a 2-D complex array with finite entries."""
    m = np.asarray(a, dtype=complex)
    if m.ndim != 2:
        raise ShapeMismatch(f"{name} must be 2-D, got ndim={m.ndim}")
    if m.shape[0] < 1 or m.shape[1] < 1:
        raise ShapeMismatch(f"{name} must have positive dimensions, got {m.shape}")
    if not np.isfinite(m).all():
        raise NonFinite(f"{name} contains NaN or Inf")
    return m


def _shapes(**named) -> None:
    """The one shape message: ShapeMismatch naming the first of `named`, each a
    matrix, family or (N, r, c) stack with its wanted (rows, columns), whose
    matrices are not of the wanted shape."""
    for name, (x, (r, c)) in named.items():
        if tuple(x.shape[-2:]) != (r, c):
            raise ShapeMismatch(f"{name} must be {r} x {c}, got {x.shape[-2]} x {x.shape[-1]}")


def frob(a):
    """Frobenius norm of a matrix, or the (N,) norms of an (N, r, c) stack.

    Each norm of a stack is bit for bit the norm of its matrix alone: both
    take the same two BLAS dot products over the entries in memory order.  A
    norm whose square overflows is inf, without a warning; callers judge it.
    """
    a = np.asarray(a)
    with np.errstate(over="ignore"):
        if a.ndim == 2:
            return float(np.linalg.norm(a, "fro"))
        if a.strides[-2] < a.strides[-1]:  # column-major matrices: keep memory order
            a = a.swapaxes(-1, -2)
        flat = np.ascontiguousarray(a).reshape(a.shape[0], 1, a.shape[1] * a.shape[2])
        re, im = flat.real, flat.imag
        return np.sqrt((re @ re.transpose(0, 2, 1) + im @ im.transpose(0, 2, 1))[:, 0, 0])


def hermitian_part(a) -> np.ndarray:
    return 0.5 * (a + np.swapaxes(a.conj(), -1, -2))


def _as_stack(a, name: str):
    """`a` as an (N, r, c) stack, validated as by :func:`as_matrix` (a matrix is
    the N = 1 case; N = 0 is allowed), and the labels naming a failing slice
    (None for a matrix)."""
    m = np.asarray(a, dtype=complex)
    if m.ndim != 3:
        return as_matrix(m, name)[None], None
    if min(m.shape[1:]) < 1:
        raise ShapeMismatch(f"{name} must have positive dimensions, got {m.shape}")
    finite = np.isfinite(m).all(axis=(1, 2))
    if not finite.all():
        raise NonFinite(f"{name} contains NaN or Inf", int(np.argmin(finite)))
    return m, range(len(m))


def _check_hermitian(m: np.ndarray, name: str, nodes, rtol: float) -> None:
    """The one Hermitian guard, on an (N, n, n) stack: NonFinite for the first
    slice whose norm overflows, then NotHermitian for the first whose defect
    ``||m_k - m_k^H||_F`` exceeds ``rtol * max(||m_k||_F, 1)``."""
    norm = frob(m)
    over = np.flatnonzero(np.isinf(norm))
    if over.size:
        raise NonFinite(f"{name} norm overflows{_at(nodes, over[0])}")
    defect = frob(m - np.swapaxes(m.conj(), 1, 2))
    scale = np.maximum(norm, 1.0)
    bad = np.flatnonzero(defect > rtol * scale)
    if bad.size:
        k = bad[0]
        raise NotHermitian(f"{name} not Hermitian{_at(nodes, k)}: defect {defect[k]:.3e} > "
                           f"{rtol:.1e} * {scale[k]:.3e}")


def as_hermitian(a, name: str = "matrix") -> np.ndarray:
    """Project `a` onto its Hermitian part after checking it is Hermitian to 1e-12
    relative.

    The projection removes round-off level asymmetry; genuinely non-Hermitian
    input raises :class:`NotHermitian`, and a matrix whose norm overflows
    raises :class:`NonFinite` first.  `a` may be an (N, n, n) stack, each
    matrix checked on its own scale; the first failing one is named by node.
    """
    m, nodes = _as_stack(a, name)
    _shapes(**{name: (m, m.shape[1:2] * 2)})
    _check_hermitian(m, name, nodes, 1e-12)
    out = hermitian_part(m)
    return out[0] if nodes is None else out


def max_frob(stack) -> float:
    """Largest :func:`frob` over a stack of matrices, bit for bit (0.0 if empty)."""
    return float(frob(np.reshape(stack, (-1,) + np.shape(stack)[-2:])).max(initial=0.0))


def shifted_solve(a, lam: complex, rhs, spectra, nodes=None) -> np.ndarray:
    """X[k] solving (lam*I - a[k]) X[k] = rhs[k] by LU, never forming an inverse,
    for a stack `a` (N, n, n) or one operand (1, n, n) serving every rhs.

    `spectra` (N, n) are the eigenvalues of the operands, computed once by a
    caller that sweeps lam.  ShapeMismatch for several lams, NonFinite for one
    not finite, SpectrumClash for lam within ``EPS_SPEC_REL * max(||a[k]||_F, 1)``
    of the spectrum, SingularSystem for a residual above ``1e-10 * max(||rhs[k]||,
    ||X[k]|| ||lam*I - a[k]||)``; both name ``nodes[k]``.
    """
    lam = _one_lambda(lam)
    return _shifted_solve(a, lam, rhs, spectra, _spectral_guard(a), frob(rhs), nodes)


def _spectral_guard(a) -> np.ndarray:
    """The SpectrumClash threshold of :func:`shifted_solve` for each operand of
    the (N, n, n) stack `a`: ``EPS_SPEC_REL * max(||a[k]||_F, 1)``."""
    return EPS_SPEC_REL * np.maximum(np.linalg.norm(a, axis=(1, 2)), 1.0)


def _clash(spectra, lam, eps_spec):
    """The one SpectrumClash predicate: the distance of `lam` (which may
    broadcast) to each spectrum, the last axis of `spectra`, and dist <= eps_spec."""
    dist = np.min(np.abs(spectra - lam), axis=-1)
    return dist, dist <= eps_spec


def _shifted_solve(a, lam, rhs, spectra, eps_spec, rhs_norm, nodes) -> np.ndarray:
    """:func:`shifted_solve` of a checked lam, given the lam-independent scales of
    its guards: `eps_spec` from :func:`_spectral_guard` and `rhs_norm` = frob(rhs)."""
    lam = complex(lam)
    dist, clash = _clash(spectra, lam, eps_spec)
    if clash.any():
        k = np.flatnonzero(clash)[0]
        raise SpectrumClash(f"lambda={lam} lies within {dist[k]:.3e} of the spectrum"
                            f"{_at(nodes, k)} (threshold {eps_spec[k]:.3e})")
    shifted = lam * np.eye(a.shape[-1]) - a
    try:
        x = np.linalg.solve(shifted, rhs)
    except np.linalg.LinAlgError as exc:  # pragma: no cover - guarded by dist check
        raise SingularSystem(f"shifted solve failed: {exc}") from exc
    residual = frob(shifted @ x - rhs)
    bound = 1e-10 * np.maximum(rhs_norm, frob(x) * frob(shifted))
    if not (residual <= bound).all():
        k = np.flatnonzero(~(residual <= bound))[0]
        raise SingularSystem(f"shifted solve residual {residual[k]:.3e} exceeds {bound[k]:.3e}"
                             f"{_at(nodes, k)}")
    return x


def _check_lambda(lam) -> None:
    """The one check of spectral parameters: NonFinite naming the first value
    of `lam`, one value or an array, whose real and imaginary parts are not
    both finite."""
    z = np.asarray(lam, dtype=complex).reshape(-1)
    finite = np.isfinite(z)
    if not finite.all():
        raise NonFinite(f"spectral parameter lambda={complex(z[~finite][0])} is not finite")


def _one_lambda(lam) -> complex:
    """The one-lambda rule: `lam` as one checked complex value, else ShapeMismatch."""
    if np.size(lam) != 1:
        raise ShapeMismatch(f"one lambda expected, got shape {np.shape(lam)}")
    _check_lambda(lam)
    return np.asarray(lam, dtype=complex).item()


def _fold(stack, mat) -> np.ndarray:
    """stack @ mat with the rows of the stacked matrices folded into one GEMM
    per matrix of `mat`: a matrix (k, c) multiplies every matrix of the stack,
    an (S, k, c) stack multiplies the matrices of stack[s] (S, ..., r, k).
    Bit for bit the per-matrix product (numpy loops over the matrices)."""
    stack = np.ascontiguousarray(stack)
    lead = stack.shape[:np.ndim(mat) - 2]
    out = stack.reshape(lead + (-1, stack.shape[-1])) @ mat
    return out.reshape(stack.shape[:-1] + out.shape[-1:])


def _fold_left(mat, stack) -> np.ndarray:
    """mat @ stack as :func:`_fold` of the transposes, (stack^T mat^T)^T: one
    GEMM in place of one per matrix.  Equal to the per-matrix product to
    round-off, not bit for bit (OpenBLAS rounds some small products apart)."""
    return _fold(np.swapaxes(stack, -1, -2), np.swapaxes(mat, -1, -2)).swapaxes(-1, -2)


def _at(nodes, k: int) -> str:
    return "" if nodes is None else f" at node {nodes[k]}"


def hermitian_sqrt(x, require_pd: bool = False) -> np.ndarray:
    """Principal square root of a Hermitian positive (semi)definite matrix.

    Computed through the eigendecomposition of the Hermitian part.  With
    ``require_pd`` the smallest eigenvalue must clear ``eps_pd =
    EPS_PD_REL * max(||x||_F, 1)``; without it, eigenvalues down to
    ``-eps_pd`` are clamped to zero and anything more negative is rejected,
    since the principal root of an indefinite Hermitian matrix is not
    Hermitian.  `x` may be an (N, n, n) stack: each matrix gets its own
    ``eps_pd``, and the first failing one is named by its node.
    """
    return _sqrt_eigh(x, require_pd)[0]


def _sqrt_eigh(x, require_pd: bool):
    """:func:`hermitian_sqrt` of `x`, and the (N, n) ascending ``eigh``
    eigenvalues it was taken from, before clamping (N = 1 for a matrix)."""
    m = as_hermitian(x, name="hermitian_sqrt operand")
    nodes = None if m.ndim == 2 else range(len(m))
    m = m.reshape((-1,) + m.shape[-2:])
    eps_pd = EPS_PD_REL * np.maximum(frob(m), 1.0)
    w, v = np.linalg.eigh(m)
    low = w[:, 0]
    bad = np.flatnonzero(low <= eps_pd if require_pd else low < -eps_pd)
    if bad.size:
        k = bad[0]
        raise NotPositiveDefinite(
            f"min eigenvalue {low[k]:.3e} <= eps_pd {eps_pd[k]:.3e}{_at(nodes, k)}" if require_pd
            else f"matrix has negative eigenvalue {low[k]:.3e}{_at(nodes, k)}"
        )
    root = hermitian_part((v * np.sqrt(w.clip(0.0))[:, None, :]) @ np.swapaxes(v.conj(), 1, 2))
    return root[0] if nodes is None else root, w


def solve_sylvester(a_pi, a_xi, q) -> np.ndarray:
    """Solve X @ a_pi - a_xi @ X = q for X, by the vectorized dense system.

    `a_pi` is n-by-n, `a_xi` is k-by-k, `q` and the result are k-by-n, or
    (N, k, n) stacks: one factorization of the system then serves all N
    right-hand sides, and the first slice whose residual fails is named by
    its node.  The spectra of the two coefficient matrices must be disjoint
    with a gap above ``EPS_SPEC_REL * (||a_pi||_F + ||a_xi||_F)``, which is
    what makes the solution unique.
    Both guards are relative, so scaling a_pi, a_xi and q by c > 0 fires the
    same ones.  Desk scale only (n*k up to a few hundred): the kron system is
    exact and simple, and that is worth more here than a Bartels-Stewart
    factorization.
    """
    ap = as_matrix(a_pi, "a_pi")
    ax = as_matrix(a_xi, "a_xi")
    qs, nodes = _as_stack(q, "q")
    n, k = ap.shape[0], ax.shape[0]
    _shapes(a_pi=(ap, (n, n)), a_xi=(ax, (k, k)), q=(qs, (k, n)))
    scale = frob(ap) + frob(ax)
    eps_spec = EPS_SPEC_REL * scale
    ev_pi = np.linalg.eigvals(ap)
    ev_xi = np.linalg.eigvals(ax)
    gap = float(np.min(np.abs(ev_pi[None, :] - ev_xi[:, None])))
    if gap <= eps_spec:
        raise SpectrumClash(
            f"spectra of a_pi and a_xi overlap within {gap:.3e} (threshold {eps_spec:.3e})"
        )
    # Column-stacking vec: vec(X a_pi) = (a_pi^T (x) I_k) vec X,
    # vec(a_xi X) = (I_n (x) a_xi) vec X.  Column j of the right-hand side is
    # vec q[j].  LAPACK (OpenBLAS) solves a single column by another path
    # than several, with other rounding, so a zero column pads N = 1: a
    # matrix then solves bit for bit as it does inside any stack.
    system = np.kron(ap.T, np.eye(k)) - np.kron(np.eye(n), ax)
    rhs = np.zeros((k * n, max(len(qs), 2)), dtype=complex)
    rhs[:, : len(qs)] = qs.transpose(0, 2, 1).reshape(len(qs), k * n).T
    try:
        vec_x = np.linalg.solve(system, rhs)
    except np.linalg.LinAlgError as exc:
        raise SingularSystem(f"sylvester solve failed: {exc}") from exc
    x = np.ascontiguousarray(vec_x[:, : len(qs)].T.reshape(len(qs), n, k).transpose(0, 2, 1))
    residual = frob(x @ ap - ax @ x - qs)
    bound = 1e-10 * np.maximum(scale * frob(x), frob(qs))
    bad = np.flatnonzero(~(residual <= bound))
    if bad.size:
        i = bad[0]
        raise SingularSystem(f"sylvester residual {residual[i]:.3e} exceeds {bound[i]:.3e}"
                             f"{_at(nodes, i)}")
    return x[0] if nodes is None else x


# Pade degrees m with Higham's theta_m (SIAM J. Matrix Anal. Appl. 26(4), 2005,
# Table 2.3): r_m(A) meets double precision backward error for ||A||_1 <= theta_m.
_THETA = {3: 1.495585217958292e-2, 5: 2.539398330063230e-1, 7: 9.504178996162932e-1,
          9: 2.097847961257068, 13: 5.371920351148152}
# Numerator coefficients b_j = (2m - j)! / (j! (m - j)!) of r_m, exact integers.
_PADE = {m: [float(factorial(2 * m - j) // (factorial(j) * factorial(m - j)))
             for j in range(m + 1)] for m in _THETA}


def _pade(a: np.ndarray, m: int) -> np.ndarray:
    """The degree-m Pade approximant r_m(a) over a stack: one stacked solve of
    (V - U) R = V + U, with U the odd and V the even part of the numerator."""
    b = _PADE[m]
    eye = np.eye(a.shape[-1])
    a2 = a @ a
    if m == 13:
        a4 = a2 @ a2
        a6 = a4 @ a2
        u = a @ (a6 @ (b[13] * a6 + b[11] * a4 + b[9] * a2)
                 + b[7] * a6 + b[5] * a4 + b[3] * a2 + b[1] * eye)
        v = (a6 @ (b[12] * a6 + b[10] * a4 + b[8] * a2)
             + b[6] * a6 + b[4] * a4 + b[2] * a2 + b[0] * eye)
    else:
        powers = [eye, a2]
        while len(powers) <= m // 2:
            powers.append(powers[-1] @ a2)
        u = a @ sum(b[2 * k + 1] * p for k, p in enumerate(powers))
        v = sum(b[2 * k] * p for k, p in enumerate(powers))
    return np.linalg.solve(v - u, v + u)


def matrix_exp(m) -> np.ndarray:
    """Matrix exponential by scaling and squaring with a Pade approximant.

    Each slice gets its own degree (3, 5, 7, 9 or 13) and scaling 2^-s from its
    1-norm (Higham 2005); the slices of equal degree and scaling are evaluated
    as one stack.  `m` may be an (N, n, n) stack (N = 0 allowed): each slice
    comes out bit for bit as on its own, and the first one that overflows, or
    whose 1-norm does, is named by its node and carried in NonFinite.index.
    """
    mm, nodes = _as_stack(m, "matrix_exp operand")
    _shapes(**{"matrix_exp operand": (mm, mm.shape[1:2] * 2)})
    out = np.empty_like(mm)
    with np.errstate(over="ignore", invalid="ignore"):
        norm = np.abs(mm).sum(axis=1).max(axis=1)
        degree = np.select([norm <= _THETA[d] for d in (3, 5, 7, 9)], [3, 5, 7, 9], 13)
        scaling = np.ceil(np.log2(np.maximum(norm, _THETA[13]) / _THETA[13]))
        finite = np.isfinite(norm)
        for d, s in set(zip(degree[finite].tolist(), scaling[finite].astype(int).tolist())):
            group = np.flatnonzero(finite & (degree == d) & (scaling == s))
            r = _pade(mm[group] * 2.0 ** -s, d)
            for _ in range(s):
                r = r @ r
            out[group] = r
    bad = np.flatnonzero(~(finite & np.isfinite(out).all(axis=(1, 2))))
    if bad.size:
        raise NonFinite(f"matrix_exp overflowed{_at(nodes, bad[0])}", int(bad[0]))
    return out[0] if nodes is None else out
