"""Zero/pole interpolation: coupling matrices, unique realization, Hermitian case.

A null-pole triple bundles a right pole pair (C(t), A_pi) and a left null
pair (A_xi, Bn(t)), both with constant state matrices, plus the coupling
family X(t) solving

    X A_pi - A_xi X = Bn sigma1 C        (per node).

When C and Bn obey their matrix-parameter ODEs

    sigma1 C' = sigma2 C A_pi + gamma_star C,
    Bn' sigma1 = -A_xi Bn sigma2 - Bn gamma_star,

the coupling family also obeys X' = Bn sigma2 C, and conversely integrating
that ODE from consistent initial data conserves the algebraic equation up to
the integrator order.  Both pairs take one RK4 march, the null pair as the
pole pair's on the transposes,

    sigma1^T Bn^T' = -sigma2^T Bn^T A_xi^T - gamma_star^T Bn^T,

with sigma1^(-1) sigma2 and sigma1^(-1) gamma_star solved once per stage
sample, at the nodes and the cubic midpoints, which hold the 4th order on
time-varying data.  The coupling evolution reads the same cubic midpoints, as
a Simpson quadrature (its right-hand side never reads X).  The realized
transfer function

    S(lam, t) = I + C (lam I - A_pi)^(-1) X^(-1) Bn sigma1

is the unique intertwining solution with identity at infinity, with the input
coefficient recovered from the linkage formula.

Convention note (pinned by the round-trip tests): a vessel maps to a triple in
the frame U' = A2 U, U(node_ref) = I, as A_pi = A1(node_ref), C = -B^H U,
A_xi = (A1 + B sigma1 B^H)(node_ref), Bn = U^H B and X = U^H U, with nothing
solved.  With sigma2 = 0, A2 is skew and X = I; with A2 = 0 too, U = I.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from .config import DEFAULTS, EPS_COUPLING_REL
from .errors import (
    CouplingSingular,
    InconsistentInitialData,
    NotMinimal,
    ShapeMismatch,
)
from .matrix_kernel import (
    _shapes,
    _spectral_guard,
    _sqrt_eigh,
    as_matrix,
    frob,
    hermitian_part,
    max_frob,
    solve_sylvester,
)
from .ode_engine import (GridOperatorFamily, TimeGrid, _channel, _check_path, _interp4,
                         _leg_blew_up, _magnus_march, _on_grid, family_derivative)
from .vessel_core import DifferentialVessel, _transfer_stack, krylov_rank

__all__ = [
    "NullPoleTriple",
    "HermitianRealization",
    "RealizedTransfer",
    "evolve_pole_pair",
    "evolve_null_pair",
    "evolve_coupling",
    "sylvester_residuals",
    "zero_pole_realize",
    "extract_null_pole",
    "hermitian_realize",
]


@dataclass(frozen=True)
class NullPoleTriple:
    """Null-pole data (C, A_pi; A_xi, Bn) with coupling family X."""

    C: GridOperatorFamily
    A_pi: np.ndarray
    A_xi: np.ndarray
    Bn: GridOperatorFamily
    X: GridOperatorFamily

    def __post_init__(self):
        a_pi = as_matrix(self.A_pi, "A_pi")
        a_xi = as_matrix(self.A_xi, "A_xi")
        object.__setattr__(self, "A_pi", a_pi)
        object.__setattr__(self, "A_xi", a_xi)
        n, k, m = a_pi.shape[0], a_xi.shape[0], self.C.shape[0]
        _shapes(A_pi=(a_pi, (n, n)), A_xi=(a_xi, (k, k)), C=(self.C, (m, n)),
                Bn=(self.Bn, (k, m)), X=(self.X, (k, n)))
        _on_grid(self.C.grid, Bn=self.Bn, X=self.X)

    @property
    def grid(self) -> TimeGrid:
        return self.C.grid


@dataclass(frozen=True)
class RealizedTransfer:
    """Output of zero_pole_realize."""

    transfer: Callable[..., np.ndarray]
    gamma: GridOperatorFamily
    vessel: DifferentialVessel
    singular_nodes: tuple[int, ...]


@dataclass(frozen=True)
class HermitianRealization:
    """Balanced realization with PD coupling family and its square root."""

    C: GridOperatorFamily
    A1: np.ndarray
    X: GridOperatorFamily = field(repr=False)
    Y: GridOperatorFamily = field(repr=False)
    C_tilde: GridOperatorFamily = field(repr=False)
    A1_tilde: GridOperatorFamily = field(repr=False)
    transfer: Callable[..., np.ndarray] = field(repr=False)
    colligation_residual: float = 0.0
    min_eig_X: float = 0.0
    max_step_jump: float = 0.0


def _pair_march(s1, s2, gs, a, m0, grid: TimeGrid) -> np.ndarray:
    """Samples at every node of s1 M' = s2 M a + gs M from M = m0 at t_start, by RK4.

    s1^(-1) s2 and s1^(-1) gs are solved once per stage sample, at positions
    0, 0.5, ..., N (nodes as they are, midpoints cubic), so the steps
    M' = P M a + G M solve nothing.  M is multiplied from both sides, so a
    step is no left factor and this march is no running product.
    """
    pos = 0.5 * np.arange(2 * grid.n_steps + 1)
    s1 = _interp4(s1, pos)
    p, g = (np.linalg.solve(s1, _interp4(x, pos)) for x in (s2, gs))
    h = grid.h
    out = np.empty((grid.n_nodes,) + m0.shape, dtype=complex)
    out[0] = m = m0
    # Overflow is reported as NonFinite, not as a numpy warning.
    with np.errstate(over="ignore", invalid="ignore"):
        for i in range(grid.n_steps):
            j = 2 * i
            k1 = p[j] @ m @ a + g[j] @ m
            y = m + (0.5 * h) * k1
            k2 = p[j + 1] @ y @ a + g[j + 1] @ y
            y = m + (0.5 * h) * k2
            k3 = p[j + 1] @ y @ a + g[j + 1] @ y
            y = m + h * k3
            k4 = p[j + 2] @ y @ a + g[j + 2] @ y
            out[i + 1] = m = m + (h / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
    return _check_path(out, _leg_blew_up(0, 1))


def evolve_pole_pair(
    c0,
    a_pi,
    gamma_star: GridOperatorFamily,
    sigma1: GridOperatorFamily,
    sigma2: GridOperatorFamily,
    grid: TimeGrid,
) -> GridOperatorFamily:
    """Integrate sigma1 C' = sigma2 C A_pi + gamma_star C from C(t_start)."""
    c0, a_pi = as_matrix(c0, "C0"), as_matrix(a_pi, "A_pi")
    m, n = sigma1.shape[0], c0.shape[1]
    _channel(grid, m, gamma_star=gamma_star, sigma1=sigma1, sigma2=sigma2)
    _shapes(C0=(c0, (m, n)), A_pi=(a_pi, (n, n)))
    return GridOperatorFamily(grid, _pair_march(sigma1.data, sigma2.data, gamma_star.data,
                                                a_pi, c0, grid))


def evolve_null_pair(
    bn0,
    a_xi,
    gamma_star: GridOperatorFamily,
    sigma1: GridOperatorFamily,
    sigma2: GridOperatorFamily,
    grid: TimeGrid,
) -> GridOperatorFamily:
    """Integrate Bn' sigma1 = -A_xi Bn sigma2 - Bn gamma_star from Bn(t_start),
    as the pole pair's march of the transposes."""
    bn0, a_xi = as_matrix(bn0, "Bn0"), as_matrix(a_xi, "A_xi")
    k, m = bn0.shape[0], sigma1.shape[0]
    _channel(grid, m, gamma_star=gamma_star, sigma1=sigma1, sigma2=sigma2)
    _shapes(Bn0=(bn0, (k, m)), A_xi=(a_xi, (k, k)))
    s1, s2, gs = (f.data.transpose(0, 2, 1) for f in (sigma1, sigma2, gamma_star))
    return GridOperatorFamily(grid, _pair_march(s1, -s2, -gs, a_xi.T, bn0.T, grid)
                              .transpose(0, 2, 1))


def sylvester_residuals(triple: NullPoleTriple, sigma1: GridOperatorFamily) -> np.ndarray:
    """Per-node Frobenius residual of X A_pi - A_xi X = Bn sigma1 C."""
    _channel(triple.grid, triple.C.shape[0], sigma1=sigma1)
    x = triple.X.data
    return frob(x @ triple.A_pi - triple.A_xi @ x - triple.Bn.data @ sigma1.data @ triple.C.data)


def evolve_coupling(
    c: GridOperatorFamily,
    a_pi,
    a_xi,
    bn: GridOperatorFamily,
    x0,
    sigma1: GridOperatorFamily,
    sigma2: GridOperatorFamily,
    gamma_star: GridOperatorFamily,
    grid: TimeGrid,
    tol: float | None = None,
) -> GridOperatorFamily:
    """Integrate X' = Bn sigma2 C from a Sylvester-consistent X(t_start).

    Checks that X0 satisfies the algebraic equation at t_start within
    tol (||A_pi|| + ||A_xi||) ||X0||, a bound that scales with C and X0, and
    that the pole and null pairs each satisfy their ODE in their own units,
    within (tol + h^2 k^3) max ||C|| (max ||Bn||), k the rate of the pairs' ODEs;
    the Sylvester residual is then conserved along the evolution up to the
    integrator order.  A residual or bound that overflows fails its check;
    tol = inf switches both off.
    """
    if tol is None:
        tol = DEFAULTS.tol
    a_pi = as_matrix(a_pi, "A_pi")
    a_xi = as_matrix(a_xi, "A_xi")
    x0 = as_matrix(x0, "X0")
    _on_grid(grid, c=c, bn=bn)
    (m, n), k = c.shape, bn.shape[0]
    _channel(grid, m, sigma1=sigma1, sigma2=sigma2, gamma_star=gamma_star)
    _shapes(A_pi=(a_pi, (n, n)), A_xi=(a_xi, (k, k)), Bn=(bn, (k, m)), X0=(x0, (k, n)))
    res0 = frob(x0 @ a_pi - a_xi @ x0 - bn[0] @ sigma1[0] @ c[0])
    scale = (frob(a_pi) + frob(a_xi)) * frob(x0)
    if tol < np.inf and not res0 <= tol * scale < np.inf:
        raise InconsistentInitialData(
            f"X0 violates the Sylvester equation: residual {res0:.3e}"
        )
    s1, s2, gs, cc, bb = (f.data for f in (sigma1, sigma2, gamma_star, c, bn))
    rc = s1 @ family_derivative(c).data - s2 @ cc @ a_pi - gs @ cc
    rb = family_derivative(bn).data @ s1 + a_xi @ bb @ s2 + bb @ gs
    k = max(sigma2.max_norm() * (frob(a_pi) + frob(a_xi)) + gamma_star.max_norm(), 1.0)
    unit = tol + grid.h ** 2 * k ** 3
    for r, fam in ((rc, c), (rb, bn)):
        ode_res = max_frob(r)
        if tol < np.inf and not ode_res <= unit * fam.max_norm() < np.inf:
            raise InconsistentInitialData(f"pole/null pair ODE residual {ode_res:.3e} "
                                          "exceeds tolerance")

    # The right-hand side never reads X, so the RK4 march is a quadrature:
    # Simpson increments from the nodes and the cubic midpoints (both midpoint
    # stages are one value), summed in step order from X0.
    h = grid.h
    mids = np.arange(grid.n_steps) + 0.5
    with np.errstate(over="ignore", invalid="ignore"):
        f = bb @ s2 @ cc
        f_m = _interp4(bb, mids) @ _interp4(s2, mids) @ _interp4(cc, mids)
        steps = (h / 6.0) * (f[:-1] + 2.0 * f_m + 2.0 * f_m + f[1:])
        x = np.add.accumulate(np.concatenate([x0[None], steps]), axis=0)
    return GridOperatorFamily(grid, _check_path(x, _leg_blew_up(0, 1)))


def zero_pole_realize(
    triple: NullPoleTriple,
    gamma_star: GridOperatorFamily,
    sigma1: GridOperatorFamily,
    sigma2: GridOperatorFamily,
    rtol: float = EPS_COUPLING_REL,
) -> RealizedTransfer:
    """Unique intertwining transfer function realized from a null-pole triple.

    transfer(lam, node) = I + C (lam I - A_pi)^(-1) X^(-1) Bn sigma1, with the
    input coefficient from the linkage formula

        gamma = sigma2 C Xinv Bn sigma1 - sigma1 C Xinv Bn sigma2 + gamma_star.

    `lam` and `node` are each one value or an array, and the result has shape
    np.shape(lam) + np.shape(node) + (m, m); the spectrum of A_pi and the
    solve's guard scales are computed once per realization.  Nodes where the
    smallest singular value of X is at most `rtol` times its largest are
    reported in `singular_nodes` and only fail on evaluation there (loss of
    invertibility along the line is genuine behavior of coupling families,
    not an error of the data).
    The returned vessel carries A1 = A_pi, A2 = 0 and B = X^(-1) Bn; its own
    transfer matches the callback exactly when the triple is reflection
    symmetric (C = -B^H), which is the conservative case.
    """
    n, k = triple.A_pi.shape[0], triple.A_xi.shape[0]
    if n != k:
        raise ShapeMismatch("realization needs square coupling (n == k)")
    grid = triple.grid
    m = triple.C.shape[0]
    _channel(grid, m, gamma_star=gamma_star, sigma1=sigma1, sigma2=sigma2)
    sv = np.linalg.svd(triple.X.data, compute_uv=False)
    regular = sv[:, -1] > rtol * sv[:, 0]
    singular = np.flatnonzero(~regular).tolist()
    xinv = np.zeros_like(triple.X.data)
    xinv[regular] = np.linalg.inv(triple.X.data[regular])
    on = regular[:, None, None]
    b_tilde = np.where(on, xinv @ triple.Bn.data, 0.0)
    cb = triple.C.data @ b_tilde
    s1, s2, gs = sigma1.data, sigma2.data, gamma_star.data
    gam = np.where(on, s2 @ cb @ s1 - s1 @ cb @ s2 + gs, gs)
    rhs, a_pi, spectrum = b_tilde @ s1, triple.A_pi[None], np.linalg.eigvals(triple.A_pi)[None]
    eps_spec, rhs_norm = _spectral_guard(a_pi), frob(rhs)

    def transfer(lam, node) -> np.ndarray:
        idx = grid.node_indices(node)
        at = idx.reshape(-1)
        s = _transfer_stack(lam, a_pi, triple.C.data[at], rhs[at], spectrum, eps_spec,
                            rhs_norm[at])
        hit = np.intersect1d(at, singular)
        if hit.size and s.size:
            raise CouplingSingular(f"coupling matrix singular at node {hit[0]}",
                                   nodes=list(singular))
        return s.reshape(np.shape(lam) + idx.shape + (m, m))

    gamma_fam = GridOperatorFamily(grid, gam)
    vessel = DifferentialVessel(
        A1=GridOperatorFamily.constant(triple.A_pi, grid),
        A2=GridOperatorFamily.constant(np.zeros((n, n)), grid),
        B=GridOperatorFamily(grid, b_tilde),
        sigma1=sigma1,
        sigma2=sigma2,
        gamma=gamma_fam,
        gamma_star=gamma_star,
    )
    return RealizedTransfer(
        transfer=transfer,
        gamma=gamma_fam,
        vessel=vessel,
        singular_nodes=tuple(singular),
    )


def extract_null_pole(v: DifferentialVessel, node_ref: int = 0) -> NullPoleTriple:
    """Null-pole triple of a vessel's transfer function, read in one frame.

    The frame is U' = A2 U, U(node_ref) = I.  The Lax equation gives A1 = U
    A1(node_ref) U^(-1), and the second colligation makes U^(-H) the frame of
    the inverse vessel (its A2 is A2 + B sigma2 B^H = -A2^H).  So A_pi =
    A1(node_ref), C = -B^H U, A_xi = (A1 + B sigma1 B^H)(node_ref), Bn = U^H B
    and X = U^H U realize the transfer at every node, with X' = Bn sigma2 C
    and nothing solved; sylvester_residuals is the vessel's own defect.  Where
    A2 vanishes, U = I is not marched.  NotMinimal when krylov_rank is below
    n at node_ref; GridMismatch for a node_ref off the grid.
    """
    node_ref = int(v.grid.node_indices(node_ref))
    n = v.state_dim
    a_pi = v.A1[node_ref]
    b_ref = v.B[node_ref]
    rank = krylov_rank(a_pi, b_ref)
    if rank < n:
        raise NotMinimal(f"Krylov rank {rank} < {n} at node {node_ref}", rank=rank)
    a_xi = a_pi + b_ref @ v.sigma1[node_ref] @ b_ref.conj().T
    b = v.B.data
    c, bn, x = -b.conj().transpose(0, 2, 1), b, np.broadcast_to(np.eye(n), (len(b), n, n))
    if np.any(v.A2.data):
        u = _magnus_march(v.A2.data, np.eye(n, dtype=complex), v.grid, node_ref)
        uh = u.conj().transpose(0, 2, 1)
        c, bn, x = c @ u, uh @ b, uh @ u
    return NullPoleTriple(C=GridOperatorFamily(v.grid, c), A_pi=a_pi, A_xi=a_xi,
                          Bn=GridOperatorFamily(v.grid, bn), X=GridOperatorFamily(v.grid, x))


def hermitian_realize(
    c: GridOperatorFamily,
    a1,
    sigma1: GridOperatorFamily,
) -> HermitianRealization:
    """Balanced conservative realization of S = I + C (lam I + A1)^(-1) X^(-1) C^H sigma1.

    Per node the Lyapunov equation X A1 + A1^H X = -C^H sigma1 C is solved
    (unique for spectra of A1 and -A1^H disjoint), X must come out positive
    definite, and with Y = sqrt(X) the kinematic transforms

        C~ = C Y^(-1),        A1~ = Y A1 Y^(-1)

    satisfy A1~ + A1~^H + C~^H sigma1 C~ = 0 exactly and leave the transfer
    untouched.  The transfer then obeys S(lam) sigma1^(-1) S(-conj(lam))^H =
    sigma1^(-1).  X is solved independently per node, from one factorization
    shared by all nodes; the maximal step jump of X is reported as a
    smoothness cross-check.  One eigendecomposition of X per node gives Y and
    ``min_eig_X``; the first node whose smallest eigenvalue is at most ``eps_pd
    = EPS_PD_REL * max(||X||_F, 1)`` (an indefinite X included) raises
    NotPositiveDefinite.  `transfer(lam, node)` takes one lam or an array, and
    one grid index or an array of them, as zero_pole_realize's does, solving
    X^(-1) C^H sigma1 once per call, at those nodes only.
    """
    a1 = as_matrix(a1, "A1")
    n, m = a1.shape[0], c.shape[0]
    _shapes(A1=(a1, (n, n)), C=(c, (m, n)))
    _channel(c.grid, m, sigma1=sigma1)
    rank = krylov_rank(a1.conj().T, c[0].conj().T)
    if rank < n:
        raise NotMinimal(f"(A1, C) not observable: Krylov rank {rank} < {n}", rank=rank)
    grid = c.grid
    cd, s1 = c.data, sigma1.data
    # Stacks go straight into their families (which copy them): none is held twice.
    x = GridOperatorFamily(grid, hermitian_part(
        solve_sylvester(a1, -a1.conj().T, -(cd.conj().transpose(0, 2, 1) @ s1 @ cd))))
    y, w = _sqrt_eigh(x.data, require_pd=True)
    y = GridOperatorFamily(grid, y)
    yinv = np.linalg.inv(y.data)
    ct = GridOperatorFamily(grid, cd @ yinv)
    at = GridOperatorFamily(grid, y.data @ a1 @ yinv)
    minus_a1, spectrum = -a1[None], np.linalg.eigvals(-a1)[None]
    eps_spec = _spectral_guard(minus_a1)

    def transfer(lam, node) -> np.ndarray:
        idx = grid.node_indices(node)
        at = idx.reshape(-1)
        rhs = np.linalg.solve(x.data[at], cd[at].conj().swapaxes(-1, -2) @ s1[at])
        s = _transfer_stack(lam, minus_a1, cd[at], rhs, spectrum, eps_spec, frob(rhs))
        return s.reshape(np.shape(lam) + idx.shape + (m, m))

    return HermitianRealization(
        C=c,
        A1=a1,
        X=x,
        Y=y,
        C_tilde=ct,
        A1_tilde=at,
        transfer=transfer,
        colligation_residual=max_frob(at.data + at.data.conj().transpose(0, 2, 1)
                                      + ct.data.conj().transpose(0, 2, 1) @ s1 @ ct.data),
        min_eig_X=float(w[:, 0].min()),
        max_step_jump=max_frob(np.diff(x.data, axis=0)),
    )
