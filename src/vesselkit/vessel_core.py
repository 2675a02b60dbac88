"""Differential-form vessels: verification, transfer functions, coupling, gauge.

A vessel collects grid-sampled operators (A1, A2, B; sigma1, sigma2, gamma,
gamma_star) over a uniform grid in the slow variable.  The output map is
always y = u - B^H x (conservative normalization with identity feedthrough),
so the transfer function is

    S(lam, t) = I - B(t)^H (lam I - A1(t))^(-1) B(t) sigma1(t).

Sign conventions used throughout (documented once, here):

* first colligation       A1 + A1^H + B sigma1 B^H = 0
* second colligation      A2 + A2^H + B sigma2 B^H = 0
* Lax equation            dA1/dt = A2 A1 - A1 A2
* input condition         d(B sigma1)/dt - A2 B sigma1 + A1 B sigma2 + B gamma = 0
* output condition        sigma1 d(B^H)/dt + sigma1 B^H A2 - sigma2 B^H A1 - gamma_star B^H = 0
* linkage                 gamma_star = gamma + sigma2 B^H B sigma1 - sigma1 B^H B sigma2

Under the first colligation the transfer function satisfies the exact
reflection symmetry S(-conj(lam))^H sigma1 S(lam) = sigma1 and is
sigma1-contractive for Re lam >= 0 (the defect S^H sigma1 S - sigma1 equals
-2 Re(lam) times a PSD Gram factor, so it is negative semidefinite on the
right half-plane and vanishes on the imaginary axis).

Verification never raises on condition failure: residuals are data, so
deliberately broken inputs still produce reports.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass, field

import numpy as np

from .config import DEFAULTS
from .errors import (
    ChainMismatch,
    GridMismatch,
    NotMinimal,
    ShapeMismatch,
    SingularSystem,
    SpectrumClash,
)
from .matrix_kernel import (
    _check_hermitian,
    _check_lambda,
    _fold,
    _shifted_solve,
    _spectral_guard,
    frob,
    hermitian_part,
    max_frob,
    shifted_solve,
)
from .ode_engine import (
    FundamentalMatrix,
    GridOperatorFamily,
    TimeGrid,
    _check_sigma1,
    _coefficient,
    _node_derivative,
    _on_grid,
    family_derivative,
    fundamental_matrix,
)

__all__ = [
    "DifferentialVessel",
    "Check",
    "ConditionReport",
    "Trajectory",
    "GaugeMap",
    "NotEquivalent",
    "eval_transfer",
    "transfer_at_nodes",
    "transfer_sweep",
    "verify_vessel",
    "couple",
    "adjoint_symmetry_residual",
    "expansivity_check",
    "expansivity_factor_form",
    "transfer_pde_residual",
    "transfer_pde_residual_values",
    "intertwining_residual",
    "simulate",
    "gauge_transform",
    "gauge_equivalence",
    "krylov_rank",
    "input_fundamental",
    "output_fundamental",
]

@dataclass(frozen=True)
class DifferentialVessel:
    """Grid-sampled vessel (A1, A2, B; sigma1, sigma2, gamma, gamma_star)."""

    A1: GridOperatorFamily
    A2: GridOperatorFamily
    B: GridOperatorFamily
    sigma1: GridOperatorFamily
    sigma2: GridOperatorFamily
    gamma: GridOperatorFamily
    gamma_star: GridOperatorFamily

    def __post_init__(self):
        n, m = self.B.shape
        grid = self.grid
        expected = {
            "A1": (n, n),
            "A2": (n, n),
            "B": (n, m),
            "sigma1": (m, m),
            "sigma2": (m, m),
            "gamma": (m, m),
            "gamma_star": (m, m),
        }
        fams = {name: getattr(self, name) for name in expected}
        for name, shape in expected.items():
            if fams[name].shape != shape:
                raise ShapeMismatch(f"{name} must be {shape}, got {fams[name].shape}")
        _on_grid(grid, **fams)
        for name in ("sigma1", "sigma2"):
            _check_hermitian(getattr(self, name).data, name, range(grid.n_nodes), 1e-9)
        _check_sigma1(self.sigma1.data)

    @property
    def grid(self) -> TimeGrid:
        return self.B.grid

    @property
    def state_dim(self) -> int:
        return self.B.shape[0]

    @property
    def signal_dim(self) -> int:
        return self.B.shape[1]

    @functools.cached_property
    def _spectra_store(self) -> tuple[np.ndarray, np.ndarray]:
        """Eigenvalues of A1 per node (n_nodes, n), and the mask of nodes filled."""
        nn = self.grid.n_nodes
        return np.empty((nn, self.state_dim), dtype=complex), np.zeros(nn, dtype=bool)

    @functools.cached_property
    def _transfer_operands(self) -> tuple[np.ndarray, ...]:
        """The lam-independent operands of :func:`transfer_sweep` at every node,
        computed on first use: A1, B^H, B sigma1, the SpectrumClash threshold
        of each A1 and ||B sigma1||_F.  Like the spectra, they derive from
        read-only data and never go stale."""
        a1, b = self.A1.data, self.B.data
        bs1 = b @ self.sigma1.data
        return a1, b.conj().transpose(0, 2, 1), bs1, _spectral_guard(a1), frob(bs1)

    def _spectra(self, nodes: np.ndarray) -> np.ndarray:
        """Eigenvalues of A1 at the node indices `nodes`, each node computed on
        its first request only.  The families are read-only, so a stored value
        never goes stale; a value is written before its node is marked known,
        and concurrent fills write the same values."""
        values, known = self._spectra_store
        unknown = ~known[nodes]
        if unknown.any():
            todo = np.unique(nodes[unknown])
            values[todo] = np.linalg.eigvals(self.A1.data[todo])
            known[todo] = True
        return values[nodes]


@dataclass(frozen=True)
class Check:
    """A judged residual and its bound: passed is value <= bound with a finite
    bound, so a NaN value and an overflowed bound both fail."""

    name: str
    value: float
    bound: float

    @property
    def passed(self) -> bool:
        return bool(self.value <= self.bound < np.inf)


@dataclass(frozen=True)
class ConditionReport:
    """Max-over-nodes Frobenius residual of each vessel condition, as checks."""

    checks: tuple[Check, ...]
    tol: float
    h2_allowance: float

    @property
    def residuals(self) -> dict[str, float]:
        return {c.name: c.value for c in self.checks}

    @property
    def passed(self) -> dict[str, bool]:
        return {c.name: c.passed for c in self.checks}

    @property
    def all_passed(self) -> bool:
        return all(c.passed for c in self.checks)


@dataclass(frozen=True)
class Trajectory:
    """Separated-variables trajectory (u, x, y) at one spectral parameter."""

    lam: complex
    u: GridOperatorFamily
    x: GridOperatorFamily
    y: GridOperatorFamily
    energy_defect_t1: np.ndarray
    energy_defect_t2: float


@dataclass(frozen=True)
class GaugeMap:
    """Unitary state-frame family with its finite-difference derivative."""

    U: GridOperatorFamily
    dU: GridOperatorFamily = field(repr=False)

    @classmethod
    def from_family(cls, u_family: GridOperatorFamily) -> "GaugeMap":
        """Gauge map of a family unitary to ``||U^H U - I||_F <= 1e-8`` at every node:
        an absolute bound on purpose, as U^H U - I has no scale (``||U||_2 = 1``)."""
        n = u_family.shape[0]
        if u_family.shape != (n, n):
            raise ShapeMismatch("gauge family must be square")
        u = u_family.data
        bad = np.flatnonzero(frob(u.conj().transpose(0, 2, 1) @ u - np.eye(n)) > 1e-8)
        if bad.size:
            raise ShapeMismatch(f"gauge family not unitary at node {bad[0]}")
        return cls(U=u_family, dU=family_derivative(u_family))

    @classmethod
    def identity(cls, n: int, grid: TimeGrid) -> "GaugeMap":
        return cls.from_family(GridOperatorFamily.constant(np.eye(n), grid))


@dataclass(frozen=True)
class NotEquivalent:
    """Negative gauge-equivalence verdict, with the deciding defect."""

    reason: str
    defect: float


def transfer_sweep(v: DifferentialVessel, lams, nodes=None) -> np.ndarray:
    """S(lam, node) = I - B^H (lam I - A1)^(-1) B sigma1, shape (L, N, m, m),
    for the L values `lams` at the N grid indices `nodes` (default: all).

    The spectra of A1 are kept on the vessel, per node, from first use, and so
    are the operands that do not depend on lam (A1, B^H, B sigma1 and the
    scales of the solve's guards); each lam then costs one guarded shifted
    solve against B sigma1 over the nodes.  Raises GridMismatch for a node
    outside [0, n_steps]; SpectrumClash names the first node a lam hits.
    """
    lams = np.asarray(lams, dtype=complex).reshape(-1)
    operands = v._transfer_operands
    if nodes is None:
        nodes = np.arange(v.grid.n_nodes)
    else:
        nodes = v.grid.node_indices(nodes).reshape(-1)
        operands = tuple(x[nodes] for x in operands)
    a1, bh, bs1, eps_spec, bs1_norm = operands
    spectra = v._spectra(nodes)
    eye = np.eye(v.signal_dim, dtype=complex)
    out = np.empty((lams.size, nodes.size) + v.sigma1.shape, dtype=complex)
    for k, lam in enumerate(lams):
        out[k] = eye - bh @ _shifted_solve(a1, lam, bs1, spectra, eps_spec, bs1_norm, nodes)
    return out


def eval_transfer(v: DifferentialVessel, lam: complex, node: int) -> np.ndarray:
    """S(lam, node) at one grid node, for one lam and one node: ShapeMismatch
    for several (:func:`transfer_sweep` sweeps them)."""
    if np.size(lam) != 1 or np.size(node) != 1:
        raise ShapeMismatch("eval_transfer takes one lambda and one node; "
                            "transfer_sweep takes several")
    return transfer_sweep(v, lam, node)[0, 0]


def transfer_at_nodes(v: DifferentialVessel, lam: complex) -> np.ndarray:
    """S(lam, node) at every grid node, shape (n_nodes, m, m), for one lam:
    ShapeMismatch for several (:func:`transfer_sweep` sweeps them)."""
    if np.size(lam) != 1:
        raise ShapeMismatch("transfer_at_nodes takes one lambda; transfer_sweep takes several")
    return transfer_sweep(v, lam)[0]


def verify_vessel(v: DifferentialVessel, tol: float | None = None) -> ConditionReport:
    """Residuals of all vessel conditions, derivatives by central differences
    (one-sided second-order stencils at the endpoints).

    Derivative-bearing conditions pass at tol plus an O(h^2) allowance that
    absorbs the stencil truncation with a norm-based constant; the algebraic
    conditions (colligations, linkage) are judged against tol alone.
    """
    if v.grid.n_steps < 2:
        raise GridMismatch("verification needs n_steps >= 2 for central differences")
    if tol is None:
        tol = DEFAULTS.tol
    a1, a2, b = v.A1.data, v.A2.data, v.B.data
    s1, s2, g, gs = v.sigma1.data, v.sigma2.data, v.gamma.data, v.gamma_star.data
    bh = b.conj().transpose(0, 2, 1)
    da1, dbs1, dbh = (_node_derivative(x, v.grid.h) for x in (a1, b @ s1, bh))
    # Truncation allowance: third derivatives of operator products scale like
    # the cube of the largest coefficient norm.  Only the conditions that
    # contain a d/dt actually carry the stencil error; the algebraic ones
    # (colligations, linkage) are judged against tol alone.
    scale = max(*(f.max_norm() for f in (v.A1, v.A2, v.B, v.sigma1, v.sigma2, v.gamma,
                                          v.gamma_star)), 1.0)
    allowance = (v.grid.h ** 2) * scale ** 3
    stencil = tol + allowance
    checks = (
        Check("lax", max_frob(da1 - (a2 @ a1 - a1 @ a2)), stencil),
        Check("colligation1", max_frob(a1 + a1.conj().transpose(0, 2, 1) + b @ s1 @ bh), tol),
        Check("colligation2", max_frob(a2 + a2.conj().transpose(0, 2, 1) + b @ s2 @ bh), tol),
        Check("input_vessel", max_frob(dbs1 - a2 @ b @ s1 + a1 @ b @ s2 + b @ g), stencil),
        Check("output_vessel", max_frob(s1 @ dbh + s1 @ bh @ a2 - s2 @ bh @ a1 - gs @ bh),
              stencil),
        Check("linkage", max_frob(gs - g - s2 @ bh @ b @ s1 + s1 @ bh @ b @ s2), tol),
    )
    return ConditionReport(checks=checks, tol=tol, h2_allowance=allowance)


def couple(v_first: DifferentialVessel, v_second: DifferentialVessel,
           tol: float | None = None) -> DifferentialVessel:
    """Cascade two vessels; the coupled transfer is S_second @ S_first.

    Requires matching signal space, grid and sigmas, plus the chaining
    condition gamma_second == gamma_star_first at every node.
    """
    if tol is None:
        tol = DEFAULTS.tol
    if v_first.signal_dim != v_second.signal_dim:
        raise ShapeMismatch("coupled vessels must share the signal dimension")
    if not v_first.grid.compatible(v_second.grid):
        raise GridMismatch("coupled vessels must share the grid")
    for name in ("sigma1", "sigma2"):
        if not getattr(v_first, name).allclose(getattr(v_second, name), tol):
            raise ShapeMismatch(f"coupled vessels must share {name}")
    chain_defect = max_frob(v_second.gamma.data - v_first.gamma_star.data)
    if chain_defect > tol:
        raise ChainMismatch(
            f"gamma of the second vessel differs from gamma_star of the first by {chain_defect:.3e}"
        )
    return _coupling(v_first.grid, [(v.A1.data, v.A2.data, v.B.data) for v in (v_first, v_second)],
                     v_first.sigma1, v_first.sigma2, v_first.gamma, v_second.gamma_star)


def _coupling(grid, blocks, sigma1, sigma2, gamma, gamma_star) -> DifferentialVessel:
    """The coupling of the vessels `blocks`, (A1_k, A2_k, B_k) node stacks
    first to last, as one vessel from `gamma` to `gamma_star`: B stacks the
    rows B_k, and A1 (A2) is block lower triangular with A1_k (A2_k) on its
    block diagonal and -B_i sigma1 B_j^H (sigma2) in block (i, j), i > j."""
    b = np.concatenate([bk for _, _, bk in blocks], axis=1)
    bh = b.conj().transpose(0, 2, 1)
    sizes = [bk.shape[1] for _, _, bk in blocks]
    owner = np.repeat(np.arange(len(sizes)), sizes)  # block of each state index
    spans = [slice(end - size, end) for size, end in zip(sizes, np.cumsum(sizes))]
    ops = []
    for j, sigma in enumerate((sigma1, sigma2)):
        a = np.where(owner[:, None] > owner[None, :], -(b @ sigma.data @ bh), 0)
        for span, block in zip(spans, blocks):
            a[:, span, span] = block[j]
        ops.append(GridOperatorFamily(grid, a))
    return DifferentialVessel(A1=ops[0], A2=ops[1], B=GridOperatorFamily(grid, b),
                              sigma1=sigma1, sigma2=sigma2, gamma=gamma, gamma_star=gamma_star)


def adjoint_symmetry_residual(v: DifferentialVessel, lam, node) -> float:
    """|| S(-conj(lam))^H sigma1 S(lam) - sigma1 ||_F, maximized over lam x node.

    `lam` and `node` are each one value or a sequence.  Exactly zero in exact
    arithmetic whenever the first colligation holds at the node, for every
    admissible lam.
    """
    lams = np.asarray(lam, dtype=complex).reshape(-1)
    s_lam = transfer_sweep(v, lams, node)
    s_ref = transfer_sweep(v, -np.conj(lams), node)
    s1 = v.sigma1.data[np.asarray(node, np.intp).reshape(-1)]
    return max_frob(s_ref.conj().transpose(0, 1, 3, 2) @ s1 @ s_lam - s1)


def expansivity_factor_form(v: DifferentialVessel, lam: complex, node: int) -> np.ndarray:
    """Gram closed form of the metric defect, valid under the first colligation.

    Returns -2 Re(lam) * sigma1 B^H (conj(lam) I - A1^H)^(-1) (lam I - A1)^(-1) B sigma1,
    which is what S^H sigma1 S - sigma1 collapses to once
    B sigma1 B^H = -(A1 + A1^H) is substituted.
    """
    idx = v.grid.node_indices([node])
    m = shifted_solve(v.A1.data[idx], lam, v.B.data[idx] @ v.sigma1.data[idx], v._spectra(idx),
                      nodes=idx)[0]
    return -2.0 * np.real(lam) * (m.conj().T @ m)


def expansivity_check(v: DifferentialVessel, lam: complex, node: int) -> np.ndarray:
    """Hermitian metric defect D = S(lam)^H sigma1 S(lam) - sigma1 at one node.

    D vanishes on the imaginary axis and, under the first colligation, is
    negative semidefinite for Re lam >= 0 (sigma1-contractive right
    half-plane) and positive semidefinite for Re lam <= 0.  When the vessel
    satisfies the first colligation at the node, D is cross-checked against
    the Gram closed form to 1e-10 relative.
    """
    s = eval_transfer(v, lam, node)
    s1 = v.sigma1[node]
    d = hermitian_part(s.conj().T @ s1 @ s - s1)
    coll1 = v.A1[node] + v.A1[node].conj().T + v.B[node] @ s1 @ v.B[node].conj().T
    if frob(coll1) <= 1e-8 * max(frob(v.A1[node]), 1.0):
        ff = expansivity_factor_form(v, lam, node)
        defect = frob(d - ff)
        if defect > 1e-10 * max(1.0, frob(d), frob(ff)):
            raise SingularSystem(f"metric defect disagrees with its Gram form by {defect:.3e}")
    return d


def transfer_pde_residual_values(
    s_values,
    sigma1: GridOperatorFamily,
    sigma2: GridOperatorFamily,
    gamma: GridOperatorFamily,
    gamma_star: GridOperatorFamily,
    lam: complex,
    grid: TimeGrid,
) -> float:
    """Central-difference defect of the evolution equation of S(lam, .).

    Max over interior nodes of
    || dS/dt - sigma1^(-1)(sigma2 lam + gamma_star) S + S sigma1^(-1)(sigma2 lam + gamma) ||_F.
    `s_values` holds one sample per node, as a sequence or an (N, m, m) stack.
    """
    _check_lambda(lam)
    if len(s_values) != grid.n_nodes:
        raise GridMismatch("need one transfer sample per node")
    _on_grid(grid, sigma1=sigma1, sigma2=sigma2, gamma=gamma, gamma_star=gamma_star)
    _check_sigma1(sigma1.data)
    s = GridOperatorFamily(grid, s_values).data
    mid = slice(1, grid.n_nodes - 1)
    s1, s2 = sigma1.data[mid], sigma2.data[mid]
    ds = _node_derivative(s, grid.h)[mid]
    left = _coefficient(s1, s2, gamma_star.data[mid], lam) @ s[mid]
    right = s[mid] @ _coefficient(s1, s2, gamma.data[mid], lam)
    return max_frob(ds - left + right)


def transfer_pde_residual(v: DifferentialVessel, lam: complex) -> float:
    """PDE defect of the vessel's own transfer function (see values variant)."""
    return transfer_pde_residual_values(
        transfer_at_nodes(v, lam), v.sigma1, v.sigma2, v.gamma, v.gamma_star, lam, v.grid
    )


def input_fundamental(v: DifferentialVessel, lam: complex, base_index: int = 0) -> FundamentalMatrix:
    return fundamental_matrix(lam, v.sigma1, v.sigma2, v.gamma, v.grid,
                              side="input", base_index=base_index)


def output_fundamental(v: DifferentialVessel, lam: complex, base_index: int = 0) -> FundamentalMatrix:
    return fundamental_matrix(lam, v.sigma1, v.sigma2, v.gamma_star, v.grid,
                              side="output", base_index=base_index)


def intertwining_residual(
    s_values,
    phi: FundamentalMatrix,
    phi_star: FundamentalMatrix,
) -> float:
    """Max over nodes of || S(t) Phi(t, base) - Phi_star(t, base) S(base) ||_F."""
    if not phi.grid.compatible(phi_star.grid) or phi.base_index != phi_star.base_index:
        raise GridMismatch("fundamental matrices are incompatible")
    s = GridOperatorFamily(phi.grid, s_values).data
    return max_frob(s @ phi.family.data - _fold(phi_star.family.data, s[phi.base_index]))


def simulate(v: DifferentialVessel, lam: complex, u0) -> Trajectory:
    """Separated-variables trajectory driven by the input ODE.

    u is evolved by the input fundamental matrix, x solves (lam I - A1) x =
    B sigma1 u, and y = u - B^H x.  The t1-energy defect
    2 Re<A1 x + B sigma1 u, x> + <sigma1 y, y> - <sigma1 u, u>
    vanishes identically under the first colligation; the t2 defect compares
    the central difference of <x, x> against <sigma2 u, u> - <sigma2 y, y>.
    """
    u0 = np.asarray(u0, dtype=complex).reshape(-1)
    if u0.shape[0] != v.signal_dim:
        raise ShapeMismatch(f"u0 must have length {v.signal_dim}")
    phi = input_fundamental(v, lam)
    u = phi.family.data @ u0.reshape(-1, 1)
    a1, b, s1, s2 = v.A1.data, v.B.data, v.sigma1.data, v.sigma2.data
    every = np.arange(len(a1))
    bs1u = b @ s1 @ u
    x = shifted_solve(a1, lam, bs1u, v._spectra(every), nodes=every)
    y = u - b.conj().transpose(0, 2, 1) @ x
    drive = a1 @ x + bs1u
    defect_t1 = 2.0 * _re_inner(x, drive) + _re_inner(y, s1 @ y) - _re_inner(u, s1 @ u)
    xx = _re_inner(x, x)
    mid = slice(1, len(a1) - 1)
    dxx = _node_derivative(xx, v.grid.h)[mid]
    balance = _re_inner(u[mid], s2[mid] @ u[mid]) - _re_inner(y[mid], s2[mid] @ y[mid])
    defect_t2 = np.max(np.abs(dxx - balance), initial=0.0)
    grid = v.grid
    return Trajectory(
        lam=complex(lam),
        u=GridOperatorFamily(grid, u),
        x=GridOperatorFamily(grid, x),
        y=GridOperatorFamily(grid, y),
        energy_defect_t1=defect_t1,
        energy_defect_t2=float(defect_t2),
    )


def _re_inner(p: np.ndarray, q: np.ndarray) -> np.ndarray:
    """Re <p[i], q[i]> for stacks of column vectors, one value per node."""
    return np.real(p.conj().transpose(0, 2, 1) @ q)[:, 0, 0]


def gauge_transform(v: DifferentialVessel, gmap: GaugeMap) -> DifferentialVessel:
    """Change of state frame: A1 -> U A1 U^H, B -> U B, A2 -> U A2 U^H + dU U^H."""
    n = v.state_dim
    if gmap.U.shape != (n, n):
        raise ShapeMismatch(f"gauge map must be {n}x{n}, got {gmap.U.shape}")
    _on_grid(v.grid, gmap=gmap.U)
    u = gmap.U.data
    uh = u.conj().transpose(0, 2, 1)
    return DifferentialVessel(
        A1=GridOperatorFamily(v.grid, u @ v.A1.data @ uh),
        A2=GridOperatorFamily(v.grid, u @ v.A2.data @ uh + gmap.dU.data @ uh),
        B=GridOperatorFamily(v.grid, u @ v.B.data),
        sigma1=v.sigma1,
        sigma2=v.sigma2,
        gamma=v.gamma,
        gamma_star=v.gamma_star,
    )


def _krylov_basis(a1: np.ndarray, b: np.ndarray):
    """Block Arnoldi on (N, n, n) and (N, n, m) node stacks: per node, the
    orthonormal basis Q (N, n, n) of the Krylov space of (A1, B) in its first
    `rank` columns (zeros after), and the rank (N,).

    Candidates come in monomial order, the columns of B and then A1 times each
    accepted column; each gets two Gram-Schmidt passes and is dropped when at
    most 1e-10 of its own norm is left.  Candidate j >= m is A1 times column
    j - m, which is zero at a node that accepted fewer columns, so it is
    dropped there, and n + m steps exhaust every node."""
    nn, n, m = b.shape
    q = np.zeros((nn, n, n), dtype=complex)
    rank = np.zeros(nn, dtype=np.intp)
    for j in range(n + m):
        c = b[:, :, j] if j < m else (a1 @ q[:, :, j - m, None])[..., 0]
        r = c
        for _ in range(2):
            r = r - (q @ (q.conj().transpose(0, 2, 1) @ r[..., None]))[..., 0]
        left = np.linalg.norm(r, axis=-1)
        new = np.flatnonzero((rank < n) & (left > 1e-10 * np.linalg.norm(c, axis=-1)))
        q[new, :, rank[new]] = r[new] / left[new, None]
        rank[new] += 1
    return q, rank


def krylov_rank(a1: np.ndarray, b: np.ndarray) -> int:
    """Dimension of the Krylov space of (A1, B) at one node (see _krylov_basis)."""
    return int(_krylov_basis(a1[None], b[None])[1][0])


def gauge_equivalence(
    v1: DifferentialVessel,
    v2: DifferentialVessel,
    node: int,
    probes: int | None = None,
    tol: float = 1e-8,
    seed: int | None = None,
):
    """Recover a unitary gauge family linking two minimal vessels, or refuse.

    The per-node unitary is Q2 Q1^H from the block-Arnoldi Krylov frames (see
    _krylov_basis).  Returns a GaugeMap when the frames are unitary to `tol`
    and the transfer functions agree at the probe points; returns
    NotEquivalent otherwise, naming the first rank-deficient node if there is
    one.  Raises NotMinimal when v1 or v2 (in that order) is rank deficient at
    `node`, and GridMismatch for a `node` off the grid.
    """
    if v1.signal_dim != v2.signal_dim or v1.state_dim != v2.state_dim:
        return NotEquivalent("state or signal dimensions differ", defect=np.inf)
    if not v1.grid.compatible(v2.grid):
        raise GridMismatch("vessels live on different grids")
    node = int(v1.grid.node_indices(node))
    if probes is None:
        probes = DEFAULTS.probes
    if seed is None:
        seed = DEFAULTS.seed
    n = v1.state_dim
    (q1, rank1), (q2, rank2) = (_krylov_basis(v.A1.data, v.B.data) for v in (v1, v2))
    rank = np.where(rank1 < n, rank1, rank2)  # v1's rank where it is deficient
    if rank[node] < n:
        raise NotMinimal(f"Krylov rank {rank[node]} < {n} at node {node}", rank=int(rank[node]))
    deficient = np.flatnonzero(rank < n)
    if deficient.size:
        i = deficient[0]
        return NotEquivalent(f"Krylov rank {rank[i]} < {n} at node {i}", defect=np.inf)
    u_data = q2 @ q1.conj().transpose(0, 2, 1)
    unitary_defect = max_frob(u_data.conj().transpose(0, 2, 1) @ u_data - np.eye(n))
    if unitary_defect > tol:
        return NotEquivalent("gauge frame is not unitary", defect=unitary_defect)

    nn = v1.grid.n_nodes
    rng = np.random.default_rng(seed)
    scale = max(v1.A1.max_norm(), v2.A1.max_norm(), 1.0)
    transfer_defect = 0.0
    for _ in range(probes):
        sign = 1.0 if rng.uniform() < 0.5 else -1.0
        lam = complex(rng.uniform(1.0, 2.5) * scale * sign,
                      rng.uniform(-2.0, 2.0) * scale)
        for probe_node in sorted({0, node, nn - 1}):
            try:
                d = frob(eval_transfer(v1, lam, probe_node) - eval_transfer(v2, lam, probe_node))
            except SpectrumClash:
                continue
            transfer_defect = max(transfer_defect, d)
    if transfer_defect > tol:
        return NotEquivalent("transfer functions disagree at probes", defect=transfer_defect)
    u = GridOperatorFamily(v1.grid, u_data)
    return GaugeMap(U=u, dU=family_derivative(u))
