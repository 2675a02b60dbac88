"""Vessels from spectral data: elementary factors, finite couplings, and the
continuous-spectrum multiplicative-integral model.

An elementary vessel has a one-dimensional state space sitting at a single
spectrum point z; its transfer function is a matrix Blaschke-type factor.
Finite families of spectral data chain through the gamma recurrence

    gamma_{h+1} = gamma_h + sigma2 b b^H sigma1 - sigma1 b b^H sigma2

and couple into a vessel with lower-triangular state operators.  The
continuous spectrum is modelled by a kernel K(t, s) = beta beta^H sigma1
whose left-ordered exponential product realizes the transfer function.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from .config import EPS_SPEC_REL
from .errors import (
    DegenerateB,
    DegenerateEigenvalue,
    InconsistentInitialData,
    NonFinite,
    ShapeMismatch,
    SpectrumClash,
    TransportBreakdown,
)
from .matrix_kernel import (_check_lambda, _fold, _fold_left, _shapes, as_matrix, frob, matrix_exp,
                            max_frob)
from .ode_engine import (
    GridOperatorFamily,
    TimeGrid,
    _channel,
    _check_sigma1,
    _coefficient,
    _magnus_march,
    _node_derivative,
    _running_product,
    family_derivative,
)
from .vessel_core import DifferentialVessel, _coupling, eval_transfer

# t rows per block of continuous_model_evolve's kernel-wide residuals, so each
# temporary is a small part of the kernel.
_T_ROWS = 16

__all__ = [
    "SpectralDatum",
    "ExtractionResult",
    "DiscreteSynthesisState",
    "discrete_chain",
    "ContinuousSpectrumModel",
    "ContinuousModelResiduals",
    "build_elementary",
    "build_discrete",
    "extract_elementary",
    "mult_integral",
    "continuous_model_evolve",
    "consistent_gamma_s",
    "residue_norm",
]


@dataclass(frozen=True)
class SpectralDatum:
    """One discrete spectrum point z with its auxiliary vector b0 at t_start.

    `theta` is the optional scalar gauge phase family (defaults to zero); its
    derivative enters the elementary A2 as an imaginary shift and leaves the
    transfer function untouched.
    """

    z: complex
    b0: np.ndarray
    theta: GridOperatorFamily | None = None

    def __post_init__(self):
        b = np.asarray(self.b0, dtype=complex).reshape(-1)
        if b.shape[0] < 1 or not np.any(b):
            raise DegenerateB("b0 must be a nonzero vector")
        object.__setattr__(self, "b0", b)


@dataclass(frozen=True)
class ExtractionResult:
    """One extracted elementary factor and the transfer quotient callback."""

    factor: DifferentialVessel
    quotient_transfer: Callable[[complex, int], np.ndarray]
    eigenvalue: complex
    eigvec_residual: float


@dataclass(frozen=True)
class DiscreteSynthesisState:
    """Gamma chain and evolved auxiliary vectors of a discrete synthesis.

    ``gamma_chain[0]`` is the input gamma; each following entry adds
    sigma2 b b^H sigma1 - sigma1 b b^H sigma2 for the corresponding evolved
    vector, so the recurrence holds by construction at every node.
    """

    gamma_chain: tuple[GridOperatorFamily, ...]
    b_evolved: tuple[GridOperatorFamily, ...]


def build_elementary(
    datum: SpectralDatum,
    gamma: GridOperatorFamily,
    sigma1: GridOperatorFamily,
    sigma2: GridOperatorFamily,
    grid: TimeGrid,
    normalize: bool = False,
) -> DifferentialVessel:
    """One-dimensional vessel at spectrum point z, :func:`build_discrete` of one datum.

    b evolves by sigma1 b' = (z sigma2 + gamma) b from b0, in 4th-order Magnus
    steps (one exponential for a constant coefficient), which keep b^H sigma1 b
    when sigma2 = 0 and gamma is skew; the vessel is A1 = z, B = b^H (row),
    A2 = -(b^H sigma2 b)/(2 b^H sigma1 b) + i theta',
    gamma_star = gamma + sigma2 b b^H sigma1 - sigma1 b b^H sigma2.

    With `normalize`, b0 is rescaled so b^H sigma1 b = 1 at t_start, the only
    regime in which A2 also satisfies the second colligation.  Colligation
    residuals are always left to verification, never assumed here.
    """
    return build_discrete([datum], gamma, sigma1, sigma2, grid, normalize=normalize)


def _elementary(datum: SpectralDatum, gamma, sigma1, sigma2, grid, normalize: bool):
    """The coupling block (z, A2 entry (N, 1, 1), row b^H (N, 1, m)) of the
    elementary factor of `datum` on `gamma`, as documented in :func:`build_elementary`."""
    m = sigma1.shape[0]
    b0 = datum.b0
    if b0.shape[0] != m:
        raise ShapeMismatch(f"b0 must have length {m}")
    if normalize:
        p0 = float(np.real(b0.conj() @ sigma1[0] @ b0))
        if p0 <= 0:
            raise DegenerateB(f"cannot normalize: b0^H sigma1 b0 = {p0:.3e} <= 0")
        b0 = b0 / np.sqrt(p0)

    s1, s2 = sigma1.data, sigma2.data
    col = _magnus_march(_coefficient(s1, s2, gamma.data, complex(datum.z)), b0[:, None], grid, 0)
    theta_prime = np.zeros(grid.n_nodes)
    if datum.theta is not None:
        if datum.theta.shape != (1, 1) or not datum.theta.grid.compatible(grid):
            raise ShapeMismatch("theta must be a scalar family on the same grid")
        theta_prime = np.real(family_derivative(datum.theta).data[:, 0, 0])

    row = col.conj().transpose(0, 2, 1)  # b^H
    p = (row @ s1 @ col)[:, 0, 0]
    q = (row @ s2 @ col)[:, 0, 0]
    eps = EPS_SPEC_REL * max(sigma1.max_norm(), 1.0)
    bad = np.flatnonzero(np.abs(p) <= eps)
    if bad.size:
        raise DegenerateB(f"b^H sigma1 b vanished at node {bad[0]}")
    return datum.z, (-q / (2.0 * p) + 1j * theta_prime)[:, None, None], row


def _gamma_star(gamma, sigma1, sigma2, row: np.ndarray) -> GridOperatorFamily:
    """gamma + sigma2 b b^H sigma1 - sigma1 b b^H sigma2 at every node, `row` holding b^H."""
    bbh = row.conj().transpose(0, 2, 1) * row
    s1, s2 = sigma1.data, sigma2.data
    return GridOperatorFamily(gamma.grid, gamma.data + s2 @ bbh @ s1 - s1 @ bbh @ s2)


def _chain(data, gamma0, sigma1, sigma2, grid, normalize: bool):
    """The gammas (gamma0 first) and the coupling blocks (z_h, A2 entry, row
    b_h^H) of the elementary factors of `data`, each built on the gamma_star
    of the one before."""
    _channel(grid, sigma1.shape[0], gamma=gamma0, sigma1=sigma1, sigma2=sigma2)
    gammas, blocks = [gamma0], []
    for datum in data:
        blocks.append(_elementary(datum, gammas[-1], sigma1, sigma2, grid, normalize))
        gammas.append(_gamma_star(gammas[-1], sigma1, sigma2, blocks[-1][2]))
    return gammas, blocks


def discrete_chain(
    data,
    gamma0: GridOperatorFamily,
    sigma1: GridOperatorFamily,
    sigma2: GridOperatorFamily,
    grid: TimeGrid,
    normalize: bool = False,
) -> DiscreteSynthesisState:
    """Evolve every auxiliary vector along the chained gamma recurrence."""
    gammas, blocks = _chain(data, gamma0, sigma1, sigma2, grid, normalize)
    return DiscreteSynthesisState(
        gamma_chain=tuple(gammas),
        b_evolved=tuple(GridOperatorFamily(grid, row.conj().transpose(0, 2, 1))
                        for *_, row in blocks),
    )


def build_discrete(
    data,
    gamma0: GridOperatorFamily,
    sigma1: GridOperatorFamily,
    sigma2: GridOperatorFamily,
    grid: TimeGrid,
    normalize: bool = False,
) -> DifferentialVessel:
    """Couple elementary vessels for a finite list of spectral data.

    Gammas chain through the elementary linkage; the assembled operators are
    lower triangular with diagonal z_h, strictly lower entries
    -b_i^H sigma1 b_j in A1 (sigma2 in A2) and the rows b_h^H stacked in B.
    The result coincides with a left fold of couple() to round-off.  One
    vessel is built and validated, not one per factor.
    """
    data = list(data)
    if not data:
        raise ShapeMismatch("need at least one spectral datum")
    gammas, blocks = _chain(data, gamma0, sigma1, sigma2, grid, normalize)
    return _coupling(grid, blocks, sigma1, sigma2, gamma0, gammas[-1])


def _select_eigenvalue(eigs: np.ndarray, which) -> int:
    if isinstance(which, (int, np.integer)):
        if not 0 <= which < len(eigs):
            raise ShapeMismatch(f"eigenvalue index {which} outside [0, {len(eigs)})")
        return int(np.lexsort((eigs.imag, eigs.real))[which])
    target = complex(which)
    return int(np.argmin(np.abs(eigs - target)))


def extract_elementary(
    v: DifferentialVessel,
    which,
    node_ref: int = 0,
    tol: float = 1e-8,
) -> ExtractionResult:
    """Split off the innermost elementary factor at a simple eigenvalue.

    `which` selects the eigenvalue of A1(node_ref): an integer in [0, n)
    indexes the lexicographically sorted spectrum (ShapeMismatch outside),
    a complex value picks the nearest point.  The unit left eigenvector g is
    continued across nodes by the transport g' = -A2^H g (renormalized per
    node), the factor is the compression (z, g^H B) of the vessel to that
    direction, and

        quotient_transfer(lam, node) = S(lam, node) @ S_factor(lam, node)^(-1)

    drops the extracted point from the pole set.  GridMismatch for a
    node_ref off the grid.
    """
    node_ref = int(v.grid.node_indices(node_ref))
    n = v.state_dim
    a1_ref = v.A1[node_ref]
    eigs, vl = np.linalg.eig(a1_ref.conj().T)
    eigs = eigs.conj()  # left eigenvalues of A1
    idx = _select_eigenvalue(eigs, which)
    z = complex(eigs[idx])
    if n > 1:
        others = np.delete(eigs, idx)
        gap = float(np.min(np.abs(others - z)))
        eps = EPS_SPEC_REL * max(frob(a1_ref), 1.0)
        if gap <= max(eps, tol):
            raise DegenerateEigenvalue(
                f"eigenvalue {z} has spectral gap {gap:.3e} below tolerance"
            )
    g0 = vl[:, idx]
    g0 = g0 / np.linalg.norm(g0)
    raw = _magnus_march(-v.A2.data.conj().transpose(0, 2, 1), g0[:, None], v.grid, node_ref)
    norm = frob(raw)
    bad = np.flatnonzero(norm < 1e-8)
    if bad.size:
        raise TransportBreakdown(f"eigenvector norm collapsed at node {bad[0]}")
    g = raw / norm[:, None, None]
    gh = g.conj().transpose(0, 2, 1)
    worst_drift = max_frob(gh @ v.A1.data - z * gh)
    scale = max(v.A1.max_norm(), 1.0)
    if worst_drift > 1e-6 * scale:
        raise TransportBreakdown(
            f"transported vector stopped being a left eigenvector (drift {worst_drift:.3e})"
        )

    bf = gh @ v.B.data
    factor = _coupling(v.grid, [(z, gh @ v.A2.data @ g, bf)], v.sigma1, v.sigma2, v.gamma,
                       _gamma_star(v.gamma, v.sigma1, v.sigma2, bf))

    def quotient(lam: complex, node: int) -> np.ndarray:
        s_full = eval_transfer(v, lam, node)
        s_fac = eval_transfer(factor, lam, node)
        return np.linalg.solve(s_fac.conj().T, s_full.conj().T).conj().T

    return ExtractionResult(
        factor=factor, quotient_transfer=quotient, eigenvalue=z, eigvec_residual=worst_drift
    )


def residue_norm(fn, z0: complex, radius: float = 1e-3) -> float:
    """Frobenius norm of the contour residue of a matrix function at z0, by the
    16-point trapezoid rule on the circle of `radius` around it."""
    lams = (z0 + radius * np.exp(2j * np.pi * k / 16) for k in range(16))
    return frob(sum(fn(lam) * (lam - z0) for lam in lams) / 16)


def mult_integral(
    kernel: GridOperatorFamily,
    c,
    lam: complex,
    s_upper: int,
) -> np.ndarray:
    """Left-ordered exponential product of the first `s_upper` grid intervals.

    W = exp(K(s_{j}) ds / (lam + c(s_j))) * ... * exp(K(s_0) ds / (lam + c(s_0)))
    with the rightmost factor first; kernel values are taken left-continuous
    at the nodes.  First-order product steps only: the step defect against
    the true product integral is O(ds).  `c` must be real (ShapeMismatch at
    its first nonzero imaginary part).  SpectrumClash where |lam + c(s_j)| <=
    EPS_SPEC_REL * max(max_norm(K), 1); NonFinite for a lam that is not
    finite, and naming an overflowing step.
    """
    _check_lambda(lam)
    _shapes(kernel=(kernel, kernel.shape[:1] * 2))
    c_arr = _real_c(c)
    if c_arr.shape[0] != len(kernel):
        raise ShapeMismatch("c must have one value per s node")
    s_upper = int(kernel.grid.node_indices(s_upper))
    eps_spec = EPS_SPEC_REL * max(kernel.max_norm(), 1.0)
    return _ordered_products(kernel.data[None, :s_upper], c_arr, [lam], kernel.grid.h,
                             [eps_spec])[-1, 0]


def _real_c(c) -> np.ndarray:
    """`c` as a flat float array; ShapeMismatch at its first nonzero imaginary part."""
    c = np.asarray(c).reshape(-1)
    bad = np.flatnonzero(np.imag(c))
    if bad.size:
        raise ShapeMismatch(f"c must be real, got {c[bad[0]]} at s node {bad[0]}")
    return np.real(c).astype(float)


def _ordered_products(kern: np.ndarray, c: np.ndarray, lams, ds: float, eps_spec) -> np.ndarray:
    """Running products W_0 = I, W_(j+1) = exp(K_j ds / (lam + c_j)) W_j over the
    s steps of each kernel slice of `kern` (T, S, m, m), for each of `lams`:
    one (S + 1, L T, m, m) stack, lam-major, from one matrix_exp and one
    running product.  `eps_spec` (T,) is the clash threshold of each slice.

    Errors are those of the L T products taken one at a time in that order.
    The first that fails raises SpectrumClash at its first j with |lam + c_j|
    <= eps_spec, once the steps before it are exponentiated, so an overflow
    there raises NonFinite first; or NonFinite naming its overflowing step.
    Each step factor takes one scalar division: numpy's vectorised complex
    division rounds some of them differently.
    """
    n_t, n_s, m = kern.shape[:3]
    one = len(lams) * n_t == 1
    cs, eps = c.tolist(), max(eps_spec)
    scales = []
    for lam in lams:
        for j in range(n_s):
            denom = lam + cs[j]
            if abs(denom) <= eps:
                clash = SpectrumClash(f"lambda + c(s_{j}) = {denom} too close to zero")
                if one:
                    matrix_exp(kern[0, :j] * np.array(scales, dtype=complex)[:, None, None])
                else:  # the slice with the largest eps clashes
                    _each_product(kern, c, lams, ds, eps_spec)
                raise clash
            scales.append(ds / denom)
    scales = np.array(scales, dtype=complex).reshape(len(lams), 1, n_s, 1, 1)
    eye = np.eye(m, dtype=complex)
    try:
        exps = matrix_exp((kern * scales).reshape(-1, m, m))
        exps = exps.reshape(len(lams) * n_t, n_s, m, m).swapaxes(0, 1)
        if one:  # 2-D steps take np.dot
            return _running_product(exps[:, 0], eye, _product_blew_up)[:, None]
        return _running_product(exps, np.broadcast_to(eye, exps.shape[1:]), _product_blew_up)
    except NonFinite:
        if not one:
            _each_product(kern, c, lams, ds, eps_spec)
        raise


def _each_product(kern, c, lams, ds, eps_spec) -> None:
    """:func:`_ordered_products` one product at a time, in its order, for a
    stack in which some product fails: the first that fails raises its error."""
    for lam in lams:
        for t in range(len(kern)):
            _ordered_products(kern[t:t + 1], c, [lam], ds, eps_spec[t:t + 1])


def _product_blew_up(j: int) -> str:
    return f"multiplicative integral blew up between s nodes {j} and {j + 1}"


def _kernel(beta: np.ndarray, sigma1: np.ndarray) -> np.ndarray:
    """K = beta beta^H sigma1 over any leading (t and) s axes of beta."""
    return _fold(np.einsum("...ij,...kj->...ik", beta, beta.conj()), sigma1)


def _gamma_s_defect(q: np.ndarray, kern: np.ndarray, p: np.ndarray) -> np.ndarray:
    """q + P K - K P: the gamma_s defect sigma1^(-1) d(gamma_s)/ds + P K - K P, with
    q = sigma1^(-1) d(gamma_s)/ds at the s nodes of `kern` (any t axis before
    them) and P = sigma1^(-1) sigma2; each product is one GEMM."""
    return q + _fold_left(p, kern) - _fold(kern, p)


def _commutator(coeff: np.ndarray, kern: np.ndarray) -> np.ndarray:
    """[coeff, K] = coeff K - K coeff over kern (T, S, m, m), coeff (S, m, m) at the
    same s nodes: for each s, each product is one GEMM over the T rows."""
    x = kern.swapaxes(0, 1)
    return (_fold_left(coeff, x) - _fold(x, coeff)).swapaxes(0, 1)


@dataclass(frozen=True)
class ContinuousSpectrumModel:
    """Kernel data (beta, c, gamma_s) over the spectral axis s in [0, L].

    Before evolution `beta` has shape (n_s_nodes, m, p) sampled at t_start;
    after evolution it gains a leading t axis.  `c` is real per s node
    (left-continuous convention) and `gamma_s` is an m-by-m family over s.
    """

    s_grid: TimeGrid
    c: np.ndarray
    beta: np.ndarray = field(repr=False)
    gamma_s: np.ndarray = field(repr=False)
    t_grid: TimeGrid | None = None

    def __post_init__(self):
        c = _real_c(self.c)
        beta = np.asarray(self.beta, dtype=complex)
        gam = np.asarray(self.gamma_s, dtype=complex)
        ns = self.s_grid.n_nodes
        if c.shape[0] != ns:
            raise ShapeMismatch("c needs one value per s node")
        if self.t_grid is None:
            if beta.ndim != 3 or beta.shape[0] != ns:
                raise ShapeMismatch("beta must be (n_s_nodes, m, p) before evolution")
        elif beta.ndim != 4 or beta.shape[1] != ns or beta.shape[0] != self.t_grid.n_nodes:
            raise ShapeMismatch("evolved beta must be (n_t_nodes, n_s_nodes, m, p)")
        if gam.shape != (ns,) + beta.shape[-2:-1] * 2:
            raise ShapeMismatch("gamma_s must be (n_s_nodes, m, m)")
        object.__setattr__(self, "c", c)
        object.__setattr__(self, "beta", beta)
        object.__setattr__(self, "gamma_s", gam)

    def kernel_at(self, t_index: int | None, sigma1: np.ndarray) -> np.ndarray:
        """K(t, s) = beta beta^H sigma1 for all s: at t node `t_index` of an
        evolved model, at t_start (`t_index` None) of one that is not."""
        if (t_index is None) != (self.t_grid is None):
            state = ("evolved: pass a t node" if self.t_grid is not None
                     else "not evolved: pass t_index=None")
            raise ShapeMismatch(f"model is {state}, got t_index={t_index!r}")
        beta = self.beta if t_index is None else self.beta[self.t_grid.node_indices(t_index)]
        return _kernel(beta, sigma1)


@dataclass(frozen=True)
class ContinuousModelResiduals:
    gamma_s_equation: float
    kernel_evolution: float
    product_derivative: float
    mixed_partials: float


def consistent_gamma_s(
    beta0: np.ndarray,
    c,
    sigma1: np.ndarray,
    sigma2: np.ndarray,
    gamma_origin: np.ndarray,
    s_grid: TimeGrid,
) -> np.ndarray:
    """Integrate d(gamma)/ds = sigma1 K sigma1^(-1) sigma2 - sigma2 K from s=0.

    Trapezoid accumulation, consistent to O(ds^2) with the central-difference
    check used for verification.  `c` does not enter this equation; it is
    only checked, as `beta0` is, to have one entry per s node (ShapeMismatch
    naming the argument otherwise); sigma1, sigma2 and gamma_origin are m x m.
    """
    for name, arg in (("beta0", beta0), ("c", c)):
        if np.shape(arg)[:1] != (s_grid.n_nodes,):
            raise ShapeMismatch(f"{name} needs one entry per s node ({s_grid.n_nodes}), "
                                f"got shape {np.shape(arg)}")
    if np.ndim(beta0) != 3:
        raise ShapeMismatch(f"beta0 must be (n_s_nodes, m, p), got shape {np.shape(beta0)}")
    s1, s2, g0 = (as_matrix(x, name) for x, name in
                  ((sigma1, "sigma1"), (sigma2, "sigma2"), (gamma_origin, "gamma_origin")))
    m = np.shape(beta0)[1]
    _shapes(sigma1=(s1, (m, m)), sigma2=(s2, (m, m)), gamma_origin=(g0, (m, m)))
    _check_sigma1(s1[None])
    k = _kernel(beta0, s1)
    rhs = s1 @ k @ np.linalg.solve(s1, s2) - s2 @ k
    steps = 0.5 * s_grid.h * (rhs[:-1] + rhs[1:])
    return np.cumsum(np.concatenate([g0[None], steps]), axis=0)


def continuous_model_evolve(
    model: ContinuousSpectrumModel,
    sigma1,
    sigma2,
    t_grid: TimeGrid,
    probe_lambdas=(2.0 + 0.7j,),
    consistency_tol: float = 1e-6,
) -> tuple[ContinuousSpectrumModel, ContinuousModelResiduals]:
    """Evolve the kernel data in the slow variable and report consistency.

    Per s node the column family obeys beta' = sigma1^(-1)(-c(s) sigma2 +
    gamma_s(s)) beta; the coefficient is constant along t, so each step is the
    exact one-step exponential.  Returned residuals: the gamma_s equation
    (central differences in s, all t), the kernel evolution equation (central
    differences in t, all s), the product-derivative law at the probe points,
    and the mixed-partial cross check of the two-variable product.  NonFinite
    for a probe lambda that is not finite.
    """
    if model.t_grid is not None:
        raise ShapeMismatch("model is already evolved")
    probe_lambdas = tuple(probe_lambdas)
    for lam in probe_lambdas:
        _check_lambda(lam)
    s1, s2 = as_matrix(sigma1, "sigma1"), as_matrix(sigma2, "sigma2")
    m = model.beta.shape[1]
    _shapes(sigma1=(s1, (m, m)), sigma2=(s2, (m, m)))
    _check_sigma1(s1[None])
    ns = model.s_grid.n_nodes
    nt = t_grid.n_nodes
    ds = model.s_grid.h
    mid = slice(1, ns - 1)

    # Initial-data consistency with the gamma_s equation, checked in s.
    q = np.linalg.solve(s1, _node_derivative(model.gamma_s, ds)[mid])
    p = np.linalg.solve(s1, s2)
    k0 = model.kernel_at(None, s1)
    worst0 = max_frob(_gamma_s_defect(q, k0[mid], p))
    allowance = (ds ** 2) * max(1.0, float(np.max(np.abs(k0))) ** 2)
    if worst0 > consistency_tol + allowance:
        raise InconsistentInitialData(
            f"gamma_s equation residual {worst0:.3e} at t_start exceeds tolerance"
        )

    coeff = _coefficient(s1, s2, model.gamma_s, -model.c[:, None, None])
    h = t_grid.h
    step = matrix_exp(coeff * h)
    beta = _running_product(np.broadcast_to(step, (nt - 1,) + step.shape), model.beta,
                            lambda j: f"beta blew up between t nodes {j} and {j + 1}")

    evolved = ContinuousSpectrumModel(
        s_grid=model.s_grid, c=model.c, beta=beta, gamma_s=model.gamma_s, t_grid=t_grid
    )

    kern = _kernel(beta, s1)

    # (a) gamma_s equation at every (t, interior s), and (b) kernel evolution
    # in t at every (interior t, s) against the analytic t-derivative
    # [coeff, K], both over blocks of t rows: no temporary is kernel-sized.
    res_a, res_b = [0.0], [0.0]
    for t0 in range(0, nt, _T_ROWS):
        rows = slice(t0, min(t0 + _T_ROWS, nt))
        res_a.append(max_frob(_gamma_s_defect(q, kern[rows, mid], p)))
        lo, hi = max(rows.start, 1), min(rows.stop, nt - 1)
        if lo < hi:
            dk = _node_derivative(kern[lo - 1:hi + 1], h)[1:-1]
            res_b.append(max_frob(dk - _commutator(coeff, kern[lo:hi])))

    # (c) product-derivative law at the probe points.  Each product and its
    # guard are those of mult_integral over the kernel at that t; the products
    # of every probe lambda and t form one stack.
    res_c = 0.0
    t_slices = sorted({0, nt // 2, nt - 1})
    if probe_lambdas:
        kp = kern[t_slices, :-1]
        eps_spec = [EPS_SPEC_REL * max(max_frob(kern[i]), 1.0) for i in t_slices]
        w = _ordered_products(kp, model.c, probe_lambdas, ds, eps_spec)
        lam_c = np.reshape(probe_lambdas, (-1, 1, 1, 1, 1)) + model.c[:-1, None, None]
        law = (kp / lam_c).reshape(-1, ns - 1, m, m).swapaxes(0, 1) @ w[:-1]
        res_c = max_frob((w[1:] - w[:-1]) / ds - law)

    # Mixed partials at the kernel level: the s-difference of the analytic
    # t-derivative against the product-rule expansion with s-differenced
    # factors.  Both are O(ds^2) stencils of the same continuum object, so
    # their disagreement shrinks at second order on compatible data.  (For
    # the product W itself pure finite differences commute identically, and
    # mixing in the first-order product law would cap the agreement at
    # O(ds); the kernel form is the meaningful second-order statement.)
    res_mixed = 0.0
    if ns > 2 and nt > 2:
        dcoeff = _node_derivative(coeff, ds)[mid]
        cm = coeff[mid]
        for i in t_slices:
            comm = coeff @ kern[i] - kern[i] @ coeff
            dk = _node_derivative(kern[i], ds)[mid]
            ki = kern[i, mid]
            m2 = dcoeff @ ki + cm @ dk - dk @ cm - ki @ dcoeff
            res_mixed = max(res_mixed, max_frob(_node_derivative(comm, ds)[mid] - m2))

    residuals = ContinuousModelResiduals(
        gamma_s_equation=float(np.max(res_a)),
        kernel_evolution=float(np.max(res_b)),
        product_derivative=float(res_c),
        mixed_partials=float(res_mixed),
    )
    return evolved, residuals
