"""Local bifurcation of steady periodic water waves over rotational flows.

Computes laminar flow families with fixed mean depth, the principal
eigenvalue mu(lambda) of the associated mode equation, the bifurcation point
where small-amplitude waves branch off, closed-form onset criteria for
constant and layered vorticity, and first-order reconstructed wave fields
with weak-form residual diagnostics.

A ``Branch`` is one laminar family, at fixed p0 or with p0 recalibrated at
each lambda to fixed mean depth: called with lambda it returns (flow,
ModeSolution), solving each lambda once, seeded from the two nearest
lambdas solved.  ``find_lambda_star`` reads every mu through a branch of fixed p0
and returns it on its result, where ``analyze`` reads the mu_curve.csv grid.

The supported interface is the ``rotwave`` command line (``rotwave.cli``)
and the layer functions its commands call, exported here.  Four functions
no command calls are kept as independent checks of what the commands
compute: ``spectral.shooting_mu`` (Pruefer shooting), ``spectral.assemble``
(the finite element pencil), ``spectral.rayleigh_quotient`` (the quotient
of a nodal P1 function) and ``laminar.scale_to_unit_wavenumber``.
"""

__version__ = "0.1.0"

from .bifurcation import (
    BifurcationPoint,
    Branch,
    NoBifurcation,
    check_bed_layer,
    check_constant_vorticity,
    check_continuous_sufficient,
    check_general_sufficient,
    check_surface_layer,
    find_lambda_star,
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
    NonAdmissibleLambda,
    NonConvergence,
    NoSignChange,
    NoSolution,
    OutOfDomain,
    StagnationAtAmplitude,
    ZeroDenominator,
)
from .laminar import (
    ScaledParameters,
    calibrate_mass_flux,
    hydraulic_head,
    lambda_of_min_head,
    scale_to_unit_wavenumber,
)
from .numerics import bracketed_root
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
    principal_eigen,
    rayleigh_quotient,
    shooting_mu,
)
from .vorticity import (
    FlowParameters,
    GammaProfile,
    VorticityDistribution,
    holder_seminorm,
)
