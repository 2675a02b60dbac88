"""Fixed-grid integration of matrix-valued linear ODEs in the slow variable.

Two 4th-order one-step schemes march M' = C M on a uniform grid, both ways
from a base node, as running products of step matrices built over the node
stack at once.  RK4 (fundamental matrices, integrate_linear_ode) reads
coefficients between nodes by linear interpolation, the simplest model for
merely absolutely continuous coefficients: O(h^4) at constant coefficients,
O(h^2) at genuinely time-varying ones.  The Magnus march (the extractions'
transported frames, the synthesis columns) takes exponential steps from cubic
interpolation: O(h^4) on both, and a skew-Hermitian coefficient's flow stays
unitary to round-off.  Every march, and every ordered product, is one running
product of its steps; steps that hold the same bits (a time-invariant
coefficient) are the powers P^j of one step, filled by repeated squaring in
about log2 N products, equal to the sequential product to round-off.  Grid
nodes are read by one rule (TimeGrid.node_indices: integers in [0, n_steps],
not floats or bools) and grid-bound families are checked by one rule
(_on_grid), each raising GridMismatch; the channel families (sigma1, sigma2,
gamma, gamma_star) by one rule (_channel): on the grid, m x m, sigma1
invertible.  All checks are evaluated at grid nodes; there is no dense output,
no adaptivity and no stiffness handling.  Identical inputs produce
bit-identical sample families.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from .config import EPS_SPEC_REL
from .errors import GridMismatch, NonFinite, ShapeMismatch, SingularSigma1
from .matrix_kernel import _check_lambda, _shapes, as_matrix, matrix_exp, max_frob

__all__ = [
    "TimeGrid",
    "GridOperatorFamily",
    "FundamentalMatrix",
    "integrate_linear_ode",
    "fundamental_matrix",
    "phi_symmetry_residual",
    "phi_bilinear_residual",
    "family_derivative",
]


@dataclass(frozen=True)
class TimeGrid:
    """Uniform grid node(i) = t_start + i*h, h = (t_end - t_start)/n_steps:
    an integer n_steps >= 1 (bool is no integer), and finite t_start < t_end
    with a finite h."""

    t_start: float
    t_end: float
    n_steps: int

    def __post_init__(self):
        if isinstance(self.n_steps, bool) or not isinstance(self.n_steps, (int, np.integer)):
            raise ShapeMismatch(f"n_steps must be an integer, got {self.n_steps!r}")
        if self.n_steps < 1:
            raise ShapeMismatch(f"n_steps must be >= 1, got {self.n_steps}")
        if not (self.t_end > self.t_start):
            raise ShapeMismatch("t_end must exceed t_start")
        for name in ("t_start", "t_end", "h"):
            if not np.isfinite(getattr(self, name)):
                raise ShapeMismatch(f"{name} must be finite, got {getattr(self, name)!r}")

    @property
    def h(self) -> float:
        # In Python floats an overflowing span is inf (then rejected as such), not a numpy warning.
        return (float(self.t_end) - float(self.t_start)) / self.n_steps

    @property
    def n_nodes(self) -> int:
        return self.n_steps + 1

    def node(self, i: int) -> float:
        return self.t_start + i * self.h

    def nodes(self) -> np.ndarray:
        return self.t_start + self.h * np.arange(self.n_nodes)

    def node_indices(self, nodes) -> np.ndarray:
        """`nodes` (one index or several) as intp.  GridMismatch for an index that
        is not an integer (a float or a bool) and for any outside [0, n_steps]."""
        idx = np.asarray(nodes)
        bools = isinstance(nodes, (list, tuple)) and any(
            isinstance(x, (bool, np.bool_)) for x in nodes)
        if bools or (idx.size and idx.dtype.kind not in "iu"):  # numpy reads [0, True] as int
            raise GridMismatch(f"node indices must be integers, got {nodes!r}")
        idx = idx.astype(np.intp, copy=False)
        outside = idx[(idx < 0) | (idx > self.n_steps)]
        if outside.size:
            raise GridMismatch(f"node {outside[0]} outside the grid nodes [0, {self.n_steps}]")
        return idx

    def compatible(self, other: "TimeGrid") -> bool:
        """Same step count, endpoints within 1e-12 of the longer span."""
        a0, a1, b0, b1 = map(float, (self.t_start, self.t_end, other.t_start, other.t_end))
        tol = 1e-12 * max(a1 - a0, b1 - b0)
        return self.n_steps == other.n_steps and abs(a0 - b0) < tol and abs(a1 - b1) < tol


def _on_grid(grid: TimeGrid, **families: "GridOperatorFamily") -> None:
    """GridMismatch naming the first of `families` whose grid is not compatible with `grid`."""
    for name, fam in families.items():
        if not fam.grid.compatible(grid):
            raise GridMismatch(f"{name} lives on a different grid")


class GridOperatorFamily:
    """One matrix sample per grid node, all of the same shape."""

    __slots__ = ("grid", "data")

    def __init__(self, grid: TimeGrid, data):
        try:
            arr = np.asarray(data, dtype=complex)
        except ValueError:  # ragged samples, or entries that are no numbers
            raise ShapeMismatch("family data must be an (N, r, c) array of numbers") from None
        if arr.ndim != 3:
            raise ShapeMismatch(f"family data must be 3-D, got ndim={arr.ndim}")
        if arr.shape[0] != grid.n_nodes:
            raise ShapeMismatch(
                f"family needs {grid.n_nodes} samples, got {arr.shape[0]}"
            )
        if not np.isfinite(arr).all():
            raise NonFinite("family contains NaN or Inf")
        arr = arr.copy()
        arr.setflags(write=False)
        self.grid = grid
        self.data = arr

    @classmethod
    def constant(cls, matrix, grid: TimeGrid) -> "GridOperatorFamily":
        m = as_matrix(matrix)
        return cls(grid, np.broadcast_to(m, (grid.n_nodes,) + m.shape))

    @classmethod
    def from_callable(cls, fn: Callable[[float], np.ndarray], grid: TimeGrid) -> "GridOperatorFamily":
        return cls(grid, [as_matrix(fn(t)) for t in grid.nodes()])

    @property
    def shape(self) -> tuple[int, int]:
        return self.data.shape[1:]

    def __getitem__(self, i: int) -> np.ndarray:
        return self.data[i]

    def __len__(self) -> int:
        return self.data.shape[0]

    def allclose(self, other: "GridOperatorFamily", tol: float = 1e-12) -> bool:
        return (
            self.grid.compatible(other.grid)
            and self.shape == other.shape
            and float(np.max(np.abs(self.data - other.data))) <= tol
        )

    def max_norm(self) -> float:
        return max_frob(self.data)


def _node_derivative(data: np.ndarray, h: float) -> np.ndarray:
    """d/dt of samples at step h along the first axis: central differences
    (x[i+1] - x[i-1]) / 2h at interior nodes, one-sided 2nd order ends."""
    d = np.empty_like(data)
    d[1:-1] = (data[2:] - data[:-2]) / (2.0 * h)
    if len(data) >= 3:
        d[0] = (-3.0 * data[0] + 4.0 * data[1] - data[2]) / (2.0 * h)
        d[-1] = (3.0 * data[-1] - 4.0 * data[-2] + data[-3]) / (2.0 * h)
    else:
        d[0] = d[-1] = (data[-1] - data[0]) / h
    return d


def family_derivative(fam: GridOperatorFamily) -> GridOperatorFamily:
    """d/dt of a sampled family: central differences, one-sided 2nd order ends."""
    return GridOperatorFamily(fam.grid, _node_derivative(fam.data, fam.grid.h))


def _interp4(data: np.ndarray, pos: np.ndarray) -> np.ndarray:
    """Cubic (4-point Lagrange) interpolation at an array of fractional node
    positions, one sample per position (linear below 4 nodes); a whole
    position returns its node sample as it is.

    Node-accurate to O(h^4); used where a one-step method must not lose its
    order to coefficient sampling (the Magnus steps, the pole/null pair march,
    the coupling-matrix quadrature).
    """
    n = data.shape[0]
    whole = np.trunc(pos).astype(np.intp)
    shape = (-1,) + (1,) * (data.ndim - 1)
    if n < 4:
        left = np.clip(np.floor(pos).astype(np.intp), 0, n - 2)
        w = np.reshape(pos - left, shape)
        out = (1.0 - w) * data[left] + w * data[left + 1]
    else:
        start = np.clip(np.floor(pos).astype(np.intp) - 1, 0, n - 4)
        x = pos - start
        out = np.zeros((len(pos),) + data.shape[1:], dtype=data.dtype)
        for j in range(4):
            w = 1.0
            for k in range(4):
                if k != j:
                    w *= (x - k) / (j - k)
            out = out + np.reshape(w, shape) * data[start + j]
    return np.where(np.reshape(pos == whole, shape), data[whole], out)


def _rk4_steps(c0: np.ndarray, cm: np.ndarray, c1: np.ndarray, h: float) -> np.ndarray:
    """RK4 step propagators P = I + h/6 (C_0 + 2 K_2 + 2 K_3 + K_4) over a stack of
    steps, from the coefficients at each step's start, midpoint and end; one step
    of M' = C M is then M_next = P M."""
    eye = np.eye(c0.shape[-1])
    k2 = cm @ (eye + (0.5 * h) * c0)
    k3 = cm @ (eye + (0.5 * h) * k2)
    k4 = c1 @ (eye + h * k3)
    return eye + (h / 6.0) * (c0 + 2.0 * k2 + 2.0 * k3 + k4)


def _check_path(w: np.ndarray, blew_up: Callable[[int], str]) -> np.ndarray:
    """`w` itself; NonFinite(blew_up(j)) for the first j whose w[j + 1] is not finite."""
    bad = np.flatnonzero(~np.isfinite(w[1:]).all(axis=tuple(range(1, w.ndim))))
    if bad.size:
        raise NonFinite(blew_up(int(bad[0])))
    return w


def _running_product(steps: np.ndarray, m0: np.ndarray,
                     blew_up: Callable[[int], str]) -> np.ndarray:
    """W_0 = m0, W_(j+1) = steps[j] @ W_j: the ordered product of a transition
    stack; NonFinite(blew_up(j)) for the first j whose W_(j+1) is not finite.

    Steps that all hold the same bits are the powers of one P: the samples are
    filled by doubling, W[k:2k] = P^k W[0:k] with P^k squared between rounds,
    in ceil(log2 N) batched products in place of N and about log2 j products
    (not j) in sample j, equal to the sequential product to round-off
    (Higham, Functions of Matrices, 2008, sec. 4.1).
    """
    w = np.empty((len(steps) + 1,) + m0.shape, dtype=complex)
    w[0] = m0
    # Overflow is reported as NonFinite, not as a numpy warning.
    with np.errstate(over="ignore", invalid="ignore"):
        if _is_constant(steps):
            k = 1
            while k < len(w):
                p = steps[0] if k == 1 else p @ p
                n = min(k, len(w) - k)
                np.matmul(p, w[:n], out=w[k:k + n])
                k *= 2
        else:
            # np.dot is a cheaper call than np.matmul on 2-D operands, with the same bits.
            product = np.dot if m0.ndim == 2 else np.matmul
            for step, prev, nxt in zip(steps, w[:-1], w[1:]):
                product(step, prev, out=nxt)
    return _check_path(w, blew_up)


def _leg_blew_up(b: int, step: int) -> Callable[[int], str]:
    """The NonFinite message of step j of the leg that leaves node b by `step`."""
    return lambda j: f"integration blew up between nodes {b + step * j} and {b + step * (j + 1)}"


def _legs(forward: np.ndarray, backward: np.ndarray, m0: np.ndarray, b: int) -> np.ndarray:
    """Samples at every node from m0 at node b: the running products of the
    `forward` steps (from b up) and the `backward` ones (from b down), forward
    first; NonFinite names the step into the first non-finite sample."""
    out = np.empty((len(forward) + len(backward) + 1,) + m0.shape, dtype=complex)
    for step, steps in ((1, forward), (-1, backward)):
        if len(steps):  # an empty leg leaves m0 at b to the other
            out[b::step] = _running_product(steps, m0, _leg_blew_up(b, step))
    return out


def _march(cdata: np.ndarray, m0: np.ndarray, grid: TimeGrid, base_index: int) -> np.ndarray:
    """Samples of M' = cdata M at every node, from M = m0 at `base_index` both
    ways: RK4 step propagators from the node and midpoint coefficients (the
    mean of two nodes), with h forward and -h backward, then _legs.  A
    coefficient that holds the same bits at every node takes one propagator
    per direction."""
    b, h = base_index, grid.h
    with np.errstate(over="ignore", invalid="ignore"):
        if _is_constant(cdata):
            c = cdata[:1]
            forward, backward = (np.broadcast_to(_rk4_steps(c, c, c, step), (n,) + c.shape[1:])
                                 if n else c[:0] for step, n in ((h, grid.n_steps - b), (-h, b)))
        else:
            mid = 0.5 * cdata[:-1] + 0.5 * cdata[1:]
            forward = _rk4_steps(cdata[b:-1], mid[b:], cdata[b + 1:], h)
            backward = _rk4_steps(cdata[1:b + 1][::-1], mid[:b][::-1], cdata[:b][::-1], -h)
    return _legs(forward, backward, m0, b)


def _magnus_march(cdata: np.ndarray, m0: np.ndarray, grid: TimeGrid,
                  base_index: int) -> np.ndarray:
    """_march in 4th-order Magnus steps exp(Omega), Omega from the coefficient at
    the step's two Gauss points (Blanes, Casas, Oteo & Ros, Phys. Rep. 470,
    2009); a backward step is exp(-Omega) of the same step.  A coefficient that
    holds the same bits at every node takes one exponential per direction."""
    b, h = base_index, grid.h
    constant = _is_constant(cdata)
    if constant:
        omega = np.broadcast_to(h * cdata[:1], (grid.n_steps,) + cdata.shape[1:])
    else:
        gauss = np.arange(grid.n_steps) + 0.5
        c1, c2 = _interp4(cdata, gauss - 3 ** 0.5 / 6), _interp4(cdata, gauss + 3 ** 0.5 / 6)
        omega = (0.5 * h) * (c1 + c2) + (3 ** 0.5 / 12 * h ** 2) * (c2 @ c1 - c1 @ c2)
    forward, backward = (np.broadcast_to(matrix_exp(leg[:1] if constant else leg), leg.shape)
                         if len(leg) else leg for leg in (omega[b:], -omega[:b][::-1]))
    return _legs(forward, backward, m0, b)


def _coefficient(sigma1: np.ndarray, sigma2: np.ndarray, gamma: np.ndarray, lam) -> np.ndarray:
    """sigma1^(-1) (lam sigma2 + gamma) over node stacks; `lam` may broadcast.

    For a scalar lam and (N, m, m) stacks that each hold the same bits at
    every node (a time-invariant vessel), node 0 is solved once and broadcast
    to the N nodes as a read-only view: LAPACK gives equal inputs equal bits,
    so this is the N-node solve bit for bit.
    """
    stacks = (sigma1, sigma2, gamma)
    if np.ndim(lam) == 0 and all(np.ndim(x) == 3 and _is_constant(x) for x in stacks):
        one = np.linalg.solve(sigma1[:1], lam * sigma2[:1] + gamma[:1])
        return np.broadcast_to(one, np.broadcast_shapes(*(np.shape(x) for x in stacks)))
    return np.linalg.solve(sigma1, lam * sigma2 + gamma)


def integrate_linear_ode(
    coeff: GridOperatorFamily,
    m0,
    grid: TimeGrid,
    direction: str = "forward",
) -> GridOperatorFamily:
    """Integrate M' = coeff(t) @ M over the grid by RK4.

    `coeff` is a GridOperatorFamily of p-by-p matrices; `m0` is the value at
    t_start (forward) or at t_end (backward).  Backward evolution integrates
    the reversed ODE rather than inverting forward samples.  A coefficient
    that holds the same bits at every node has one step propagator, whose
    powers are taken by repeated squaring (see _running_product).
    """
    m = as_matrix(m0, "m0")
    _on_grid(grid, coeff=coeff)
    p = coeff.shape[0]
    _shapes(coeff=(coeff, (p, p)), m0=(m, (p, m.shape[1])))
    if direction not in ("forward", "backward"):
        raise ShapeMismatch(f"direction must be 'forward' or 'backward', got {direction!r}")
    base = 0 if direction == "forward" else grid.n_steps
    return GridOperatorFamily(grid, _march(coeff.data, m, grid, base))


@dataclass(frozen=True)
class FundamentalMatrix:
    """Grid-sampled normalized solution of an input or output ODE.

    ``family.data[base_index]`` is the identity; `side` records whether the
    coefficient gamma or gamma_star was used.
    """

    lam: complex
    base_index: int
    side: str
    family: GridOperatorFamily = field(repr=False)

    @property
    def grid(self) -> TimeGrid:
        return self.family.grid

    def __getitem__(self, i: int) -> np.ndarray:
        return self.family[i]


def _is_constant(stack: np.ndarray) -> bool:
    """Every slice along the first axis holds the same bits as the first (so
    -0.0 is not 0.0); at once for a broadcast along it."""
    if stack.strides[0] == 0:
        return True
    bits = np.ascontiguousarray(stack).view(np.int64)
    return bool((bits == bits[:1]).all())


def _check_sigma1(stack: np.ndarray) -> None:
    """The one sigma1 invertibility check: SingularSigma1 at the first node of
    the (N, m, m) stack with sigma_min <= EPS_SPEC_REL * its largest Frobenius
    norm.  A constant stack takes one SVD, of node 0."""
    if _is_constant(stack):
        stack = stack[:1]
    eps = EPS_SPEC_REL * max_frob(stack)
    smin = np.linalg.svd(stack, compute_uv=False)[:, -1]
    if (smin <= eps).any():
        i = np.flatnonzero(smin <= eps)[0]
        raise SingularSigma1(f"sigma1 not invertible at node {i}: min singular value {smin[i]:.3e}")


def _channel(grid: TimeGrid, m: int, **families: GridOperatorFamily) -> None:
    """The one check of channel families (sigma1, sigma2, gamma, gamma_star), m
    from the caller's own data: each on `grid` (_on_grid) and m x m (_shapes),
    and sigma1, when passed, invertible (_check_sigma1)."""
    _on_grid(grid, **families)
    _shapes(**{name: (fam, (m, m)) for name, fam in families.items()})
    if "sigma1" in families:
        _check_sigma1(families["sigma1"].data)


def fundamental_matrix(
    lam: complex,
    sigma1: GridOperatorFamily,
    sigma2: GridOperatorFamily,
    gamma: GridOperatorFamily,
    grid: TimeGrid,
    side: str = "input",
    base_index: int = 0,
) -> FundamentalMatrix:
    """Fundamental matrix of  lam*sigma2*u - sigma1*u' + gamma*u = 0.

    Integrates u' = sigma1^(-1) (lam*sigma2 + gamma) u by RK4 with the
    identity at `base_index` (a grid node: an integer, not a float or a bool);
    pass gamma_star (side="output") for the output equation.  A coefficient
    that holds the same bits at every node (a time-invariant vessel) is
    marched as integrate_linear_ode marches one, and is solved at one node
    only when sigma1, sigma2 and gamma each hold the same bits at every node
    (see _coefficient).  NonFinite for a lam that is not finite.
    """
    _check_lambda(lam)
    m = sigma1.shape[0]
    _channel(grid, m, sigma1=sigma1, sigma2=sigma2, gamma=gamma)
    base_index = int(grid.node_indices(base_index))

    data = _march(_coefficient(sigma1.data, sigma2.data, gamma.data, lam),
                  np.eye(m, dtype=complex), grid, base_index)
    return FundamentalMatrix(
        lam=complex(lam), base_index=base_index, side=side, family=GridOperatorFamily(grid, data)
    )


def _check_pair(a: FundamentalMatrix, b: FundamentalMatrix, name: str) -> None:
    if not a.grid.compatible(b.grid):
        raise GridMismatch("fundamental matrices live on different grids")
    if a.base_index != b.base_index:
        raise GridMismatch("fundamental matrices have different base points")
    if a.side != b.side:
        raise GridMismatch("fundamental matrices belong to different sides")
    _shapes(**{name: (b.family, a.family.shape)})


def phi_symmetry_residual(
    phi: FundamentalMatrix,
    phi_conj: FundamentalMatrix,
    sigma1: GridOperatorFamily,
) -> float:
    """Defect of the reflection identity pairing lambda with -conj(lambda).

    Max over nodes of || sigma1(t) Phi(lam,t) - Phi(-conj(lam),t)^(-H) sigma1(base) ||_F.
    """
    _check_pair(phi, phi_conj, "phi_conj")
    if abs(phi_conj.lam + np.conj(phi.lam)) > 1e-12 * max(1.0, abs(phi.lam)):
        raise GridMismatch("phi_conj must be sampled at -conj(lambda)")
    _channel(phi.grid, phi.family.shape[0], sigma1=sigma1)
    rhs = np.linalg.inv(phi_conj.family.data).conj().transpose(0, 2, 1) @ sigma1[phi.base_index]
    return max_frob(sigma1.data @ phi.family.data - rhs)


def phi_bilinear_residual(
    phi_mu: FundamentalMatrix,
    phi_lam: FundamentalMatrix,
    sigma1: GridOperatorFamily,
    sigma2: GridOperatorFamily,
) -> float:
    """Defect of d/dt [Phi(mu)^H sigma1 Phi(lam)] = (lam + conj(mu)) Phi(mu)^H sigma2 Phi(lam).

    The derivative is a central difference over interior nodes, so the
    residual carries an O(h^2) floor even on exact data.
    """
    _check_pair(phi_mu, phi_lam, "phi_lam")
    _channel(phi_mu.grid, phi_mu.family.shape[0], sigma1=sigma1, sigma2=sigma2)
    h = phi_mu.grid.h
    lam = phi_lam.lam
    mu = phi_mu.lam
    mu_h = phi_mu.family.data.conj().transpose(0, 2, 1)
    g = mu_h @ sigma1.data @ phi_lam.family.data
    mid = slice(1, len(sigma1) - 1)
    rhs = (lam + np.conj(mu)) * (mu_h[mid] @ sigma2.data[mid] @ phi_lam.family.data[mid])
    return max_frob(_node_derivative(g, h)[mid] - rhs)
