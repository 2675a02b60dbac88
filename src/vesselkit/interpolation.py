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
the integrator order.  The realized transfer function

    S(lam, t) = I + C (lam I - A_pi)^(-1) X^(-1) Bn sigma1

is the unique intertwining solution with identity at infinity, with the input
coefficient recovered from the linkage formula.

Convention note (pinned by the round-trip test): a conservative vessel maps
to a triple as A_pi = A1(node_ref), C = -B^H, A_xi = -A1(node_ref)^H,
Bn = B; its coupling family is then the per-node Sylvester solution: the
identity up to the vessel's colligation residual, amplified by the inverse
norm of the Sylvester operator (near 1e15 on strongly non-normal chains).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from .config import DEFAULTS, EPS_COUPLING_REL
from .errors import (
    CouplingSingular,
    GridMismatch,
    InconsistentInitialData,
    NonFinite,
    NotMinimal,
    ShapeMismatch,
)
from .matrix_kernel import (
    _sqrt_eigh,
    as_matrix,
    frob,
    hermitian_part,
    max_frob,
    shifted_solve,
    solve_sylvester,
)
from .ode_engine import GridOperatorFamily, TimeGrid, _interp4, _rk4_path, family_derivative
from .vessel_core import DifferentialVessel, krylov_rank

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
        n = a_pi.shape[0]
        k = a_xi.shape[0]
        if a_pi.shape != (n, n) or a_xi.shape != (k, k):
            raise ShapeMismatch("A_pi and A_xi must be square")
        m = self.C.shape[0]
        if self.C.shape != (m, n):
            raise ShapeMismatch(f"C must be m x {n}")
        if self.Bn.shape != (k, m):
            raise ShapeMismatch(f"Bn must be {k} x {m}")
        if self.X.shape != (k, n):
            raise ShapeMismatch(f"X must be {k} x {n}")
        for fam in (self.Bn, self.X):
            if not fam.grid.compatible(self.C.grid):
                raise GridMismatch("triple families live on different grids")

    @property
    def grid(self) -> TimeGrid:
        return self.C.grid


@dataclass(frozen=True)
class RealizedTransfer:
    """Output of zero_pole_realize."""

    transfer: Callable[[complex, int], np.ndarray]
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
    transfer: Callable[[complex, int], np.ndarray] = field(repr=False)
    colligation_residual: float = 0.0
    min_eig_X: float = 0.0
    max_step_jump: float = 0.0


def _rhs_family(fams: dict[str, GridOperatorFamily]):
    # Cubic node interpolation: the evolutions below must hold their 4th
    # order, and midpoint coefficients sampled linearly would cap them at 2.
    # A march asks for nodes and step midpoints only; the midpoints are
    # interpolated once, up front.
    data = {k: f.data for k, f in fams.items()}
    mids = {k: _interp4(d, np.arange(len(d) - 1) + 0.5) for k, d in data.items()}

    def at(name: str, pos: float) -> np.ndarray:
        i = int(pos)
        return data[name][i] if pos == i else mids[name][i]

    return at


def evolve_pole_pair(
    c0,
    a_pi,
    gamma_star: GridOperatorFamily,
    sigma1: GridOperatorFamily,
    sigma2: GridOperatorFamily,
    grid: TimeGrid,
) -> GridOperatorFamily:
    """Integrate sigma1 C' = sigma2 C A_pi + gamma_star C from C(t_start)."""
    c0 = as_matrix(c0, "C0")
    a_pi = as_matrix(a_pi, "A_pi")
    at = _rhs_family({"s1": sigma1, "s2": sigma2, "gs": gamma_star})

    def rhs(pos, c):
        return np.linalg.solve(at("s1", pos), at("s2", pos) @ c @ a_pi + at("gs", pos) @ c)

    samples = _rk4_path(rhs, c0, grid, 0, grid.n_steps)
    return GridOperatorFamily(grid, np.stack(samples))


def evolve_null_pair(
    bn0,
    a_xi,
    gamma_star: GridOperatorFamily,
    sigma1: GridOperatorFamily,
    sigma2: GridOperatorFamily,
    grid: TimeGrid,
) -> GridOperatorFamily:
    """Integrate Bn' sigma1 = -A_xi Bn sigma2 - Bn gamma_star from Bn(t_start)."""
    bn0 = as_matrix(bn0, "Bn0")
    a_xi = as_matrix(a_xi, "A_xi")
    at = _rhs_family({"s1": sigma1, "s2": sigma2, "gs": gamma_star})

    def rhs(pos, bn):
        s1 = at("s1", pos)
        return np.linalg.solve(s1.T, (-a_xi @ bn @ at("s2", pos) - bn @ at("gs", pos)).T).T

    samples = _rk4_path(rhs, bn0, grid, 0, grid.n_steps)
    return GridOperatorFamily(grid, np.stack(samples))


def sylvester_residuals(triple: NullPoleTriple, sigma1: GridOperatorFamily) -> np.ndarray:
    """Per-node Frobenius residual of X A_pi - A_xi X = Bn sigma1 C."""
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

    Checks that X0 satisfies the algebraic equation at t_start and that the
    pole/null pairs satisfy their matrix-parameter ODEs (both within `tol`
    plus an O(h^2) finite-difference allowance); the Sylvester residual is
    then conserved along the evolution up to the integrator order.  A residual
    or bound that overflows fails its check; tol = inf switches both off.
    """
    if tol is None:
        tol = DEFAULTS.tol
    a_pi = as_matrix(a_pi, "A_pi")
    a_xi = as_matrix(a_xi, "A_xi")
    x0 = as_matrix(x0, "X0")
    res0 = frob(x0 @ a_pi - a_xi @ x0 - bn[0] @ sigma1[0] @ c[0])
    scale = max(frob(a_pi) + frob(a_xi), 1.0) * max(frob(x0), 1.0)
    if tol < np.inf and not res0 <= tol * scale < np.inf:
        raise InconsistentInitialData(
            f"X0 violates the Sylvester equation: residual {res0:.3e}"
        )
    s1, s2, gs, cc, bb = (f.data for f in (sigma1, sigma2, gamma_star, c, bn))
    rc = s1 @ family_derivative(c).data - s2 @ cc @ a_pi - gs @ cc
    rb = family_derivative(bn).data @ s1 + a_xi @ bb @ s2 + bb @ gs
    ode_res = max(max_frob(rc), max_frob(rb))
    norms = max(c.max_norm(), bn.max_norm(), sigma2.max_norm(), gamma_star.max_norm(), 1.0)
    allowance = (grid.h ** 2) * norms ** 3
    if tol < np.inf and not ode_res <= tol * norms + allowance < np.inf:
        raise InconsistentInitialData(
            f"pole/null pair ODE residual {ode_res:.3e} exceeds tolerance"
        )

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
    bad = np.flatnonzero(~np.all(np.isfinite(x.real) & np.isfinite(x.imag), axis=(1, 2)))
    if bad.size:
        i = bad[0]
        raise NonFinite(f"integration blew up between nodes {i - 1} and {i}")
    return GridOperatorFamily(grid, x)


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

    `node` is one grid index or an array of them (then the result is a
    stack; the spectrum of A_pi is computed once per realization).  Nodes where the
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

    def transfer(lam: complex, node) -> np.ndarray:
        idx = grid.node_indices(node)
        x = shifted_solve(a_pi, lam, rhs[idx].reshape(-1, n, m), spectrum)
        hit = np.intersect1d(idx, singular)
        if hit.size:
            raise CouplingSingular(f"coupling matrix singular at node {hit[0]}",
                                   nodes=list(singular))
        return np.eye(m, dtype=complex) + triple.C.data[idx] @ x.reshape(idx.shape + (n, m))

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


def _monomial_rank(a1: np.ndarray, b: np.ndarray) -> int:
    """Numerical rank of [B, A1 B, ..., A1^(n-1) B] at 1e-10 relative to its
    largest singular value: below krylov_rank on minimal pairs with a strongly
    non-normal A1, where extract_null_pole's coupling Sylvester problem can be
    numerically singular, so extract_null_pole still refuses those."""
    blocks = [b]
    for _ in range(len(a1) - 1):
        blocks.append(a1 @ blocks[-1])
    sv = np.linalg.svd(np.hstack(blocks), compute_uv=False)
    return int(np.sum(sv > 1e-10 * sv[0]))


def extract_null_pole(v: DifferentialVessel, node_ref: int = 0) -> NullPoleTriple:
    """Null-pole triple of a vessel's transfer function.

    Right pole pair (C, A_pi) = (-B^H, A1(node_ref)).  The inverse transfer is
    I + B^H (lam I - A1 - B sigma1 B^H)^(-1) B sigma1, so the left null pair
    is (A_xi, Bn) = (A1 + B sigma1 B^H at node_ref, B); under the first
    colligation A_xi equals -A1(node_ref)^H.  The coupling family solves the
    Sylvester equation at every node, all nodes sharing one factorization
    (the identity, at node_ref exactly).  NotMinimal when krylov_rank or,
    stricter, _monomial_rank is below n at node_ref; GridMismatch for a
    node_ref off the grid.
    """
    node_ref = int(v.grid.node_indices(node_ref))
    n = v.state_dim
    a_pi = v.A1[node_ref]
    b_ref = v.B[node_ref]
    for rule, rank_of in (("", krylov_rank), ("monomial ", _monomial_rank)):
        rank = rank_of(a_pi, b_ref)
        if rank < n:
            raise NotMinimal(f"{rule}Krylov rank {rank} < {n} at node {node_ref}", rank=rank)
    a_xi = a_pi + b_ref @ v.sigma1[node_ref] @ b_ref.conj().T
    c_data = -v.B.data.conj().transpose(0, 2, 1)
    return NullPoleTriple(
        C=GridOperatorFamily(v.grid, c_data),
        A_pi=a_pi,
        A_xi=a_xi,
        Bn=v.B,
        X=GridOperatorFamily(
            v.grid, solve_sylvester(a_pi, a_xi, v.B.data @ v.sigma1.data @ c_data)),
    )


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
    NotPositiveDefinite.
    """
    a1 = as_matrix(a1, "A1")
    n = a1.shape[0]
    m = c.shape[0]
    if c.shape != (m, n):
        raise ShapeMismatch(f"C must be m x {n}")
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

    def transfer(lam: complex, node: int) -> np.ndarray:
        i = int(grid.node_indices(node))
        rhs = np.linalg.solve(x[i], c[i].conj().T @ sigma1[i])[None]  # X^(-1) C^H sigma1
        return np.eye(m, dtype=complex) + c[i] @ shifted_solve(minus_a1, lam, rhs, spectrum)[0]

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
