"""Dense complex matrix primitives used by every other module.

All routines work on plain ``numpy.ndarray`` values with dtype complex128.
Inputs are validated (finite entries, nonzero dimensions) and all residual
bounds are relative to Frobenius norms.  Everything here is a pure function
of its arguments, hence safe to call concurrently.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import scipy.linalg

from .config import DEFAULTS
from .errors import (
    NonFinite,
    NotHermitian,
    NotPositiveDefinite,
    ShapeMismatch,
    SingularSystem,
    SpectrumClash,
)

__all__ = [
    "SpectrumReport",
    "as_matrix",
    "as_hermitian",
    "frob",
    "max_frob",
    "hermitian_part",
    "spectrum_report",
    "resolvent",
    "resolvent_stack",
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
    if not np.all(np.isfinite(m.real) & np.isfinite(m.imag)):
        raise NonFinite(f"{name} contains NaN or Inf")
    return m


def frob(a) -> float:
    """Frobenius norm."""
    return float(np.linalg.norm(np.asarray(a), "fro"))


def hermitian_part(a) -> np.ndarray:
    return 0.5 * (a + a.conj().T)


def as_hermitian(a, rtol: float = 1e-12, name: str = "matrix") -> np.ndarray:
    """Project `a` onto its Hermitian part after checking it is Hermitian to `rtol`.

    The projection removes round-off level asymmetry; genuinely non-Hermitian
    input raises :class:`NotHermitian`.
    """
    m = as_matrix(a, name)
    if m.shape[0] != m.shape[1]:
        raise ShapeMismatch(f"{name} must be square, got {m.shape}")
    defect = frob(m - m.conj().T)
    scale = max(frob(m), 1.0)
    if defect > rtol * scale:
        raise NotHermitian(f"{name} is not Hermitian: defect {defect:.3e} > {rtol:.1e} * {scale:.3e}")
    return hermitian_part(m)


@dataclass(frozen=True)
class SpectrumReport:
    """Eigenvalues of a square matrix plus the minimal pairwise gap."""

    eigenvalues: tuple[complex, ...]
    min_pairwise_gap: float


def spectrum_report(a) -> SpectrumReport:
    m = as_matrix(a)
    if m.shape[0] != m.shape[1]:
        raise ShapeMismatch(f"spectrum_report needs a square matrix, got {m.shape}")
    ev = np.linalg.eigvals(m)
    ev = ev[np.lexsort((ev.imag, ev.real))]
    if len(ev) < 2:
        gap = np.inf
    else:
        diff = ev[:, None] - ev[None, :]
        off = np.abs(diff[~np.eye(len(ev), dtype=bool)])
        gap = float(off.min())
    return SpectrumReport(tuple(complex(z) for z in ev), float(gap))


def max_frob(stack) -> float:
    """Largest :func:`frob` over a stack of matrices, bit for bit (0.0 if empty).

    The batched norm sums in another order, so it only shortlists the
    matrices within 1e-12 relative of the top; :func:`frob` decides.
    """
    flat = np.asarray(stack).reshape((-1,) + np.shape(stack)[-2:])
    est = np.linalg.norm(flat, axis=(1, 2))
    top = est.max(initial=0.0)
    if top == 0.0:
        return 0.0
    return max(frob(flat[k]) for k in np.flatnonzero(est >= top * (1.0 - 1e-12)))


def resolvent_stack(a, lam: complex, spectra, eps_spec=None, nodes=None) -> np.ndarray:
    """(lam*I - a[k])^(-1) for a stack `a` (N, n, n), guarded per operand as in
    :func:`resolvent`, whose default ``eps_spec`` is taken per operand.

    `spectra` (N, n) are the eigenvalues of the operands, computed once by a
    caller that sweeps lam.  A failing operand is named by ``nodes[k]``.
    """
    lam = complex(lam)
    if not (np.isfinite(lam.real) and np.isfinite(lam.imag)):
        raise NonFinite("resolvent spectral parameter is not finite")
    if eps_spec is None:
        eps_spec = DEFAULTS.eps_spec_rel * np.maximum(np.linalg.norm(a, axis=(1, 2)), 1.0)
    eps_spec = np.broadcast_to(eps_spec, a.shape[:1])
    dist = np.min(np.abs(spectra - lam), axis=1)
    clash = np.flatnonzero(dist <= eps_spec)
    if clash.size:
        k = clash[0]
        raise SpectrumClash(f"lambda={lam} lies within {dist[k]:.3e} of the spectrum"
                            f"{_at(nodes, k)} (threshold {eps_spec[k]:.3e})")
    n = a.shape[-1]
    shifted = lam * np.eye(n) - a
    try:
        r = np.linalg.solve(shifted, np.eye(n, dtype=complex))
    except np.linalg.LinAlgError as exc:  # pragma: no cover - guarded by dist check
        raise SingularSystem(f"resolvent solve failed: {exc}") from exc
    residual = np.linalg.norm(shifted @ r - np.eye(n), axis=(1, 2))
    scale = np.linalg.norm(r, axis=(1, 2)) * np.linalg.norm(shifted, axis=(1, 2))
    bad = np.flatnonzero(residual > 1e-10 * np.maximum(1.0, scale))
    if bad.size:
        k = bad[0]
        raise SingularSystem(f"resolvent residual {residual[k]:.3e} too large{_at(nodes, k)} "
                             "(ill conditioning)")
    return r


def _at(nodes, k: int) -> str:
    return "" if nodes is None else f" at node {nodes[k]}"


def resolvent(a, lam: complex, eps_spec: float | None = None) -> np.ndarray:
    """(lam*I - a)^(-1), guarded against lam sitting on the spectrum of `a`.

    Raises :class:`SpectrumClash` when the distance from `lam` to the spectrum
    is below ``eps_spec`` (default ``eps_spec_rel * ||a||_F``, floored at the
    absolute value of ``eps_spec_rel`` for tiny matrices).
    """
    m = as_matrix(a, "resolvent operand")
    if m.shape[0] != m.shape[1]:
        raise ShapeMismatch(f"resolvent needs a square matrix, got {m.shape}")
    return resolvent_stack(m[None], lam, np.linalg.eigvals(m)[None], eps_spec)[0]


def hermitian_sqrt(x, require_pd: bool = False, eps_pd: float | None = None) -> np.ndarray:
    """Principal square root of a Hermitian positive (semi)definite matrix.

    Computed through the eigendecomposition of the Hermitian part.  With
    ``require_pd`` the smallest eigenvalue must clear ``eps_pd`` (default
    ``eps_pd_rel * ||x||_F``); without it, eigenvalues down to ``-eps_pd``
    are clamped to zero and anything more negative is rejected, since the
    principal root of an indefinite Hermitian matrix is not Hermitian.
    """
    m = as_hermitian(x, rtol=1e-12, name="hermitian_sqrt operand")
    if eps_pd is None:
        eps_pd = DEFAULTS.eps_pd_rel * max(frob(m), 1.0)
    w, v = np.linalg.eigh(m)
    if require_pd:
        if w[0] <= eps_pd:
            raise NotPositiveDefinite(
                f"min eigenvalue {w[0]:.3e} <= eps_pd {eps_pd:.3e}"
            )
    elif w[0] < -eps_pd:
        raise NotPositiveDefinite(f"matrix has negative eigenvalue {w[0]:.3e}")
    w = np.clip(w, 0.0, None)
    root = (v * np.sqrt(w)) @ v.conj().T
    return hermitian_part(root)


def solve_sylvester(a_pi, a_xi, q, eps_spec: float | None = None) -> np.ndarray:
    """Solve X @ a_pi - a_xi @ X = q for X, by the vectorized dense system.

    `a_pi` is n-by-n, `a_xi` is k-by-k, `q` and the result are k-by-n.  The
    spectra of the two coefficient matrices must be disjoint with a gap above
    ``eps_spec``, which is what makes the solution unique.  Desk scale only
    (n*k up to a few hundred): the kron system is exact and simple, and that
    is worth more here than a Bartels-Stewart factorization.
    """
    ap = as_matrix(a_pi, "a_pi")
    ax = as_matrix(a_xi, "a_xi")
    qq = as_matrix(q, "q")
    if ap.shape[0] != ap.shape[1] or ax.shape[0] != ax.shape[1]:
        raise ShapeMismatch("a_pi and a_xi must be square")
    n, k = ap.shape[0], ax.shape[0]
    if qq.shape != (k, n):
        raise ShapeMismatch(f"q must be {k}x{n}, got {qq.shape}")
    if eps_spec is None:
        eps_spec = DEFAULTS.eps_spec_rel * max(frob(ap) + frob(ax), 1.0)
    ev_pi = np.linalg.eigvals(ap)
    ev_xi = np.linalg.eigvals(ax)
    gap = float(np.min(np.abs(ev_pi[None, :] - ev_xi[:, None])))
    if gap <= eps_spec:
        raise SpectrumClash(
            f"spectra of a_pi and a_xi overlap within {gap:.3e} (threshold {eps_spec:.3e})"
        )
    # Column-stacking vec: vec(X a_pi) = (a_pi^T (x) I_k) vec X,
    # vec(a_xi X) = (I_n (x) a_xi) vec X.
    system = np.kron(ap.T, np.eye(k)) - np.kron(np.eye(n), ax)
    try:
        vec_x = np.linalg.solve(system, qq.reshape(k * n, order="F"))
    except np.linalg.LinAlgError as exc:
        raise SingularSystem(f"sylvester solve failed: {exc}") from exc
    x = vec_x.reshape((k, n), order="F")
    residual = frob(x @ ap - ax @ x - qq)
    bound = 1e-10 * max((frob(ap) + frob(ax)) * max(frob(x), 1.0), frob(qq), 1.0)
    if residual > bound:
        raise SingularSystem(f"sylvester residual {residual:.3e} exceeds {bound:.3e}")
    return x


def matrix_exp(m) -> np.ndarray:
    """Matrix exponential (scaling-and-squaring with Pade approximation)."""
    mm = as_matrix(m, "matrix_exp operand")
    if mm.shape[0] != mm.shape[1]:
        raise ShapeMismatch(f"matrix_exp needs a square matrix, got {mm.shape}")
    out = scipy.linalg.expm(mm)
    if not np.all(np.isfinite(out.real) & np.isfinite(out.imag)):
        raise NonFinite("matrix_exp overflowed")
    return out
