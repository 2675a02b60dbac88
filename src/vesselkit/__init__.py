"""vesselkit: finite-dimensional conservative vessels of overdetermined
2D time-invariant systems.

Build vessels from spectral data, evaluate and factor their transfer
functions, verify every vessel condition as a quantitative residual, and
solve zero/pole and Hermitian realization problems.
"""

from .config import Config, load_config
from .errors import (
    ChainMismatch,
    CouplingSingular,
    DegenerateB,
    DegenerateEigenvalue,
    GridMismatch,
    InconsistentInitialData,
    NonFinite,
    NotHermitian,
    NotMinimal,
    NotPositiveDefinite,
    NumericalFailure,
    ShapeMismatch,
    SingularSigma1,
    SingularSystem,
    SpectrumClash,
    TransportBreakdown,
    VesselKitError,
)
from .interpolation import (
    HermitianRealization,
    NullPoleTriple,
    RealizedTransfer,
    evolve_coupling,
    evolve_null_pair,
    evolve_pole_pair,
    extract_null_pole,
    hermitian_realize,
    sylvester_residuals,
    zero_pole_realize,
)
from .matrix_kernel import (
    hermitian_sqrt,
    matrix_exp,
    solve_sylvester,
)
from .ode_engine import (
    FundamentalMatrix,
    GridOperatorFamily,
    TimeGrid,
    family_derivative,
    fundamental_matrix,
    integrate_linear_ode,
    phi_bilinear_residual,
    phi_symmetry_residual,
)
from .spectral_synthesis import (
    ContinuousModelResiduals,
    ContinuousSpectrumModel,
    DiscreteSynthesisState,
    ExtractionResult,
    SpectralDatum,
    build_discrete,
    build_elementary,
    consistent_gamma_s,
    discrete_chain,
    continuous_model_evolve,
    extract_elementary,
    mult_integral,
    residue_norm,
)
from .vessel_core import (
    Check,
    ConditionReport,
    DifferentialVessel,
    GaugeMap,
    NotEquivalent,
    Trajectory,
    adjoint_symmetry_residual,
    couple,
    eval_transfer,
    expansivity_check,
    expansivity_factor_form,
    gauge_equivalence,
    gauge_transform,
    input_fundamental,
    intertwining_residual,
    krylov_rank,
    output_fundamental,
    simulate,
    transfer_at_nodes,
    transfer_pde_residual,
    transfer_pde_residual_values,
    transfer_sweep,
    verify_vessel,
)

__version__ = "0.1.0"
