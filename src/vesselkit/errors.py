"""Exception types shared by all vesselkit modules."""

from __future__ import annotations


class VesselKitError(Exception):
    """Base class for all library errors."""


class NumericalFailure(VesselKitError):
    """Base of the errors of a computation that failed on valid input (CLI exit 2)."""


class NonFinite(NumericalFailure):
    """An input or an intermediate stage produced NaN or Inf."""


class NotHermitian(VesselKitError):
    """A matrix required to be Hermitian is not, beyond tolerance."""


class SpectrumClash(NumericalFailure):
    """A spectral-parameter value is too close to a forbidden spectrum."""


class NotPositiveDefinite(NumericalFailure):
    """A Hermitian matrix required to be positive definite is not."""


class SingularSystem(NumericalFailure):
    """A dense linear solve failed or left an unacceptable residual."""


class SingularSigma1(NumericalFailure):
    """The channel metric sigma1 is not invertible at some grid node."""


class GridMismatch(VesselKitError):
    """Two grid-sampled objects do not live on compatible grids."""


class ShapeMismatch(VesselKitError):
    """Operator dimensions are inconsistent."""


class ChainMismatch(VesselKitError):
    """Coupling precondition gamma_second == gamma_star_first violated."""


class NotMinimal(NumericalFailure):
    """Krylov span of the state operator and input operator is defective.

    Carries the observed rank in ``rank``.
    """

    def __init__(self, message: str, rank: int | None = None):
        super().__init__(message)
        self.rank = rank


class DegenerateB(NumericalFailure):
    """b^H sigma1 b vanished at a node; the elementary builder divides by it."""


class DegenerateEigenvalue(NumericalFailure):
    """Requested eigenvalue is not simple within the spectral gap tolerance."""


class TransportBreakdown(NumericalFailure):
    """Eigenvector continuation lost normalization or eigenvector property."""


class CouplingSingular(NumericalFailure):
    """The coupling matrix X lost invertibility at some nodes.

    Carries the offending node indices in ``nodes``.
    """

    def __init__(self, message: str, nodes: list[int] | None = None):
        super().__init__(message)
        self.nodes = nodes or []


class InconsistentInitialData(VesselKitError):
    """Initial data violates its algebraic compatibility requirement."""
