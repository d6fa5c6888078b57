"""Local bifurcation of steady periodic water waves over rotational flows.

Computes laminar flow families with fixed mean depth, the principal
eigenvalue curve of the associated mode equation, the bifurcation point
where small-amplitude waves branch off, closed-form onset criteria for
constant and layered vorticity, and first-order reconstructed wave fields
with weak-form residual diagnostics.
"""

__version__ = "0.1.0"

from .bifurcation import (
    BifurcationPoint,
    NoBifurcation,
    OnsetCurve,
    OnsetPoint,
    check_bed_layer,
    check_constant_vorticity,
    check_continuous_sufficient,
    check_general_sufficient,
    check_surface_layer,
    find_lambda_star,
    onset_curve,
    transversality_integral,
)
from .errors import (
    BracketFailure,
    ConfigError,
    DegenerateConstraint,
    EigenFailure,
    Error,
    InvalidParameter,
    InvalidWavelength,
    NoModeSolution,
    NonAdmissibleLambda,
    NonConvergence,
    NoSignChange,
    NoSolution,
    OutOfDomain,
    StagnationAtAmplitude,
    ZeroDenominator,
)
from .laminar import (
    LaminarFlow,
    ScaledParameters,
    calibrate_mass_flux,
    hydraulic_head,
    lambda_of_min_head,
    laminar_height,
    scale_to_unit_wavenumber,
    surface_relative_speed,
)
from .numerics import RootSpec, bracketed_root
from .reconstruct import (
    WaveField,
    build_wave,
    nonstagnation_check,
    physical_fields,
    residual_slope,
    surface_profile,
    weak_residual,
)
from .spectral import (
    ModeSolution,
    MuCurve,
    mode_k_solution,
    mu_curve,
    principal_eigen,
    rayleigh_quotient,
    shooting_mu,
)
from .vorticity import (
    FlowParameters,
    GammaProfile,
    VorticityDistribution,
    gamma_eval,
    holder_seminorm,
)
