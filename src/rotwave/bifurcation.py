"""Bifurcation point location, closed-form onset criteria, transversality.

Waves branch off the laminar family at the unique lambda* where the
principal eigenvalue crosses mu(lambda*) = -1.  Because mu is strictly
increasing wherever it is negative and mu(lambda0) = 0 at the head
minimizer lambda0, the crossing is bracketed by probing lambda just above
the admissibility floor and root-solving on (floor, lambda0).  Flows whose
eigenvalue never reaches -1 yield a NoBifurcation result (an ordinary
outcome, not an error).  Every mu is read through a Branch, the map
lambda -> (flow, mode) of one laminar family: at fixed p0, or with p0
calibrated at each lambda to fixed mean depth.
"""

from __future__ import annotations

import heapq
import math
from dataclasses import dataclass
from typing import Optional, Union

import numpy as np

from .laminar import (
    calibrate_mass_flux,
    hydraulic_head,
    lambda_of_min_head,
)
from .numerics import bracketed_root
from .spectral import ModeSolution, _energies, principal_eigen
from .vorticity import (
    FlowParameters,
    GammaProfile,
    VorticityDistribution,
    holder_seminorm,
)

DEFAULT_MARGINS = (1e-2, 1e-3, 1e-4, 1e-5, 1e-6, 1e-7, 1e-8)


class Branch:
    """The laminar flows of one vorticity distribution at depth d and gravity
    g, by lambda, with the principal eigenpair of the mode equation on each.

    With ``p0`` given every lambda has the flow (d, g, p0), built once as
    ``flow`` and ``profile``.  Without it p0 is calibrated at each lambda to
    the unit-depth normalization (calibrate_mass_flux): the family of fixed
    mean depth.  Called with lambda, it returns (flow, ModeSolution) there,
    mode.mu_refined being mu(lambda).  Each lambda is solved once, its eigen
    solve seeded (``near``) from the modes of the two solved lambdas nearest
    to it, nearest first, whose secant predicts its mode (principal_eigen);
    the calibrated p0 depends on lambda alone.  Every flow is the one
    shape of the distribution at its own scale 2 d^2 / p0, so the
    calibration's piece geometry is built once per distribution, and the
    eigen solves' mesh levels once per distribution, mesh size and grading:
    every lambda, depth and gravity of every branch of it shares them.
    ``solved`` maps every lambda solved so far to its (flow, ModeSolution).
    A failed calibration or solve raises and stores nothing; for
    gamma == 0 calibration raises at every lambda (DegenerateConstraint at
    lambda = 1, where every p0 satisfies the constraint).
    """

    def __init__(
        self, dist: VorticityDistribution, d: float, g: float, mesh_points: int, p0: Optional[float] = None
    ):
        self.dist = dist
        self.d = d
        self.g = g
        self.mesh_points = mesh_points
        self.p0 = p0
        self.solved = {}
        if p0 is not None:
            self.flow = FlowParameters(d=d, g=g, p0=p0)
            self.profile = GammaProfile.from_distribution(dist, self.flow)

    def __call__(self, lam: float) -> tuple[FlowParameters, ModeSolution]:
        hit = self.solved.get(lam)
        if hit is None:
            if self.p0 is None:
                flow = FlowParameters(d=self.d, g=self.g, p0=calibrate_mass_flux(self.dist, self.d, lam))
                profile = GammaProfile.from_distribution(self.dist, flow)
            else:
                flow, profile = self.flow, self.profile
            near = heapq.nsmallest(2, (mode for _, mode in self.solved.values()), key=lambda m: abs(m.lam - lam))
            mode = principal_eigen(profile, flow, lam, mesh_points=self.mesh_points, near=near)
            hit = self.solved[lam] = flow, mode
        return hit


@dataclass(frozen=True)
class BifurcationPoint:
    """Location and mode of the laminar-to-wave crossing; ``lambda_lo`` is
    the lower end of the bracket (lambda_lo, lambda0) the root was solved on."""

    lambda_star: float
    lambda0: float
    lambda_lo: float
    Q_star: float
    mode: ModeSolution
    mu_residual: float
    mu_at_lambda0: float
    branch: Branch


@dataclass(frozen=True)
class NoBifurcation:
    """Outcome when mu stays above -1 on the admissible range; ``lambda_lo``
    is the first probe, the largest lambda probed below lambda0."""

    lambda0: float
    lambda_lo: float
    inf_mu: float
    lambda_at_inf: float
    mu_at_lambda0: float
    branch: Branch


def find_lambda_star(branch: Branch, root_tol: float = 1e-10) -> Union[BifurcationPoint, NoBifurcation]:
    """Solve mu(lambda*) = -1 on (floor, lambda0) of a branch of fixed p0,
    or report NoBifurcation.

    mu is probed at floor + eps for the decreasing DEFAULT_MARGINS; the
    first probe with mu <= -1 gives the lower bracket end (monotonicity of
    mu where negative makes the left edge the infimum, so deeper probes
    cannot be missed).  A probe that fails raises its error: a numerical
    failure is never reported as NoBifurcation.  Every mu is read through
    ``branch``, which the result carries, so no lambda is solved twice and
    callers can read or extend what the search solved.
    """
    profile, flow = branch.profile, branch.flow
    lam0 = lambda_of_min_head(profile, flow, root_tol=root_tol)
    floor = profile.min_lambda

    def mu(lam):
        return branch(lam)[1].mu_refined

    mu_at_lam0 = mu(lam0)
    probes = [floor + min(eps, 0.5 * (lam0 - floor)) for eps in DEFAULT_MARGINS]
    lam_lo = None
    inf_mu = math.inf
    lam_at_inf = lam0
    for cand in probes:
        mu_lo = mu(cand)
        if mu_lo < inf_mu:
            inf_mu = mu_lo
            lam_at_inf = cand
        if mu_lo <= -1.0:
            lam_lo = cand
            break
    if lam_lo is None:
        return NoBifurcation(
            lambda0=lam0,
            lambda_lo=probes[0],
            inf_mu=min(inf_mu, mu_at_lam0),
            lambda_at_inf=lam_at_inf,
            mu_at_lambda0=mu_at_lam0,
            branch=branch,
        )

    x_tol = root_tol * max(1.0, lam0)
    lam_star = bracketed_root(lambda lam: mu(lam) + 1.0, lam_lo, lam0, x_tol, f_tol=1e-10)
    _, mode = branch(lam_star)
    return BifurcationPoint(
        lambda_star=lam_star,
        lambda0=lam0,
        lambda_lo=lam_lo,
        Q_star=hydraulic_head(profile, flow, lam_star),
        mode=mode,
        mu_residual=abs(mode.mu_refined + 1.0),
        mu_at_lambda0=mu_at_lam0,
        branch=branch,
    )


# -- closed-form onset criteria ---------------------------------------------
# Each check returns its margin; the criterion holds where the margin is > 0.


def check_general_sufficient(
    profile: GammaProfile,
    flow: FlowParameters,
    alpha: float,
    theta: Optional[float] = None,
) -> float:
    """Margin of the Hoelder-seminorm sufficient condition for onset.

    Compares g against a threshold built from theta, the alpha-seminorm of
    Gamma at its last minimizer p1.  theta may be supplied explicitly
    (e.g. the Lipschitz bound 2 d^2 gamma_inf / |p0|); otherwise it is
    computed from the profile.  theta == 0 gives the margin g regardless
    of p1.
    """
    if theta is None:
        theta = holder_seminorm(profile, alpha)
    if theta == 0.0:
        return flow.g
    d = flow.d
    p0 = abs(flow.p0)
    p1 = abs(profile.p1)
    e1 = 1.5 * alpha - 1.0
    e2 = 0.5 * alpha + 1.0
    if p1 == 0.0 and e1 < 0.0:
        return -math.inf
    rhs = theta**1.5 * p0**2 * p1**e1 / (6.0 * alpha * d**3)
    rhs += theta**0.5 * p0**2 * p1**e2 / ((2.0 + 0.5 * alpha) * d)
    return flow.g - rhs


def check_continuous_sufficient(profile: GammaProfile, flow: FlowParameters) -> float:
    """Margin of the bounded-vorticity sufficient condition for onset."""
    gamma_inf = profile.source.sup_norm()
    p0 = abs(flow.p0)
    p1 = abs(profile.p1)
    lhs = (math.sqrt(2.0) / 3.0) * gamma_inf**1.5 * p0**0.5 * p1**0.5
    lhs += (2.0 * math.sqrt(2.0) / 5.0) * gamma_inf**0.5 * p0**1.5 * p1**1.5
    return flow.g - lhs


def check_constant_vorticity(gamma: float, d: float, g: float) -> float:
    """Constant-vorticity onset predicate: gamma^2 d^2 < (g + gamma^2 d) tanh d.

    Necessary and sufficient for constant gamma < 0 on the depth-normalized
    family; for gamma >= 0 onset always occurs regardless of this formula.
    """
    lhs = gamma * gamma * d * d
    rhs = (g + gamma * gamma * d) * math.tanh(d)
    return rhs - lhs


def check_surface_layer(gamma: float, depth_frak: float, g: float) -> float:
    """Onset predicate for a vorticity layer of depth depth_frak at the
    surface: gamma^2 D (D - tanh D) < g tanh D.  Stated for gamma < 0.  At
    depth_frak == d it coincides with the constant-vorticity predicate.
    """
    t = math.tanh(depth_frak)
    lhs = gamma * gamma * depth_frak * (depth_frak - t)
    rhs = g * t
    return rhs - lhs


def check_bed_layer(gamma: float, d: float, depth_frak: float, g: float) -> float:
    """Onset predicate for a vorticity layer occupying the bed region below
    depth depth_frak.  Stated for gamma < 0.

    A NaN margin flags a non-positive radicand, where the closed form is
    not defined (distinct from the condition failing).
    """
    dd = d - depth_frak
    if dd <= 0.0:
        return math.nan
    num_rad = g * (math.sinh(d) * dd - math.sinh(depth_frak) * math.sinh(dd))
    den_rad = dd * math.cosh(d) - gamma * gamma * math.cosh(depth_frak) * math.sinh(dd)
    if den_rad <= 0.0 or num_rad < 0.0:
        return math.nan
    rhs = math.sqrt(num_rad) / (dd * math.sqrt(den_rad))
    return rhs - abs(gamma)


def transversality_integral(point: BifurcationPoint) -> float:
    """Crossing diagnostic at the bifurcation point; strictly negative.

    T = -(pi/2) int a^-1 M^2 dp - (3 pi / d^2) int a M_p^2 dp, the
    quadratic form certifying that the eigenvalue crosses -1 transversally
    (the factors pi are the q-averages of cos^2 and sin^2 over a period).
    Both integrals are element energies (spectral._energies) of the element
    integrals of a and a^-1 N_i N_j, taken by the pencil's kernel
    (ElementRule.integrals), on the rule the mode was solved on.
    """
    mode = point.mode
    rule = mode._rule
    a, a_sub = rule.a(point.lambda_star, point.branch.profile._scale)
    ints = rule.integrals(a, 1.0 / a, a_sub, 1.0 / a_sub)
    stiff, mass = _energies(ints, np.diff(mode.nodes), mode.M)
    return -0.5 * math.pi * mass - 3.0 * math.pi * stiff / point.branch.d**2
