"""Bifurcation point location, closed-form onset criteria, transversality.

Waves branch off the laminar family at the unique lambda* where the
principal eigenvalue crosses mu(lambda*) = -1.  Because mu is strictly
increasing wherever it is negative and mu(lambda0) = 0 at the head
minimizer lambda0, the crossing is bracketed by probing lambda just above
the admissibility floor and root-solving on (floor, lambda0).  Flows whose
eigenvalue never reaches -1 yield a NoBifurcation result (an ordinary
outcome, not an error).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional, Sequence, Union

import numpy as np

from .laminar import (
    calibrate_mass_flux,
    hydraulic_head,
    lambda_of_min_head,
)
from .numerics import bracketed_root
from .spectral import ModeSolution, Solves, principal_eigen
from .vorticity import (
    ElementRule,
    FlowParameters,
    GammaProfile,
    VorticityDistribution,
    holder_seminorm,
)

DEFAULT_MARGINS = (1e-2, 1e-3, 1e-4, 1e-5, 1e-6, 1e-7, 1e-8)


@dataclass(frozen=True)
class BifurcationPoint:
    """Location and mode of the laminar-to-wave crossing."""

    lambda_star: float
    lambda0: float
    Q_star: float
    mode: ModeSolution
    bracket: tuple
    mu_residual: float
    mu_at_lambda0: float
    profile: GammaProfile
    flow: FlowParameters
    solves: Solves


@dataclass(frozen=True)
class NoBifurcation:
    """Outcome when mu stays above -1 on the admissible range."""

    lambda0: float
    inf_mu: float
    lambda_at_inf: float
    mu_at_lambda0: float
    solves: Solves


def find_lambda_star(
    profile: GammaProfile,
    flow: FlowParameters,
    mesh_points: int = 2001,
    root_tol: float = 1e-10,
    margin_schedule: Sequence[float] = DEFAULT_MARGINS,
) -> Union[BifurcationPoint, NoBifurcation]:
    """Solve mu(lambda*) = -1 on (floor, lambda0), or report NoBifurcation.

    mu is probed at floor + eps for the decreasing margin schedule; the
    first probe with mu <= -1 gives the lower bracket end (monotonicity of
    mu where negative makes the left edge the infimum, so deeper probes
    cannot be missed).  A probe that fails raises its error: a numerical
    failure is never reported as NoBifurcation.  Every solve goes through
    the memo ``solves`` on the result, so no lambda is solved twice and
    callers can read or extend what the search solved.
    """
    lam0 = lambda_of_min_head(profile, flow, root_tol=root_tol)
    floor = profile.min_lambda
    solves = Solves(profile, flow, mesh_points)
    mu_at_lam0 = solves(lam0).mu_refined

    lam_lo = None
    inf_mu = math.inf
    lam_at_inf = lam0
    for eps in margin_schedule:
        cand = floor + min(eps, 0.5 * (lam0 - floor))
        mu_lo = solves(cand).mu_refined
        if mu_lo < inf_mu:
            inf_mu = mu_lo
            lam_at_inf = cand
        if mu_lo <= -1.0:
            lam_lo = cand
            break
    if lam_lo is None:
        return NoBifurcation(
            lambda0=lam0,
            inf_mu=min(inf_mu, mu_at_lam0),
            lambda_at_inf=lam_at_inf,
            mu_at_lambda0=mu_at_lam0,
            solves=solves,
        )

    x_tol = root_tol * max(1.0, lam0)
    lam_star = bracketed_root(lambda lam: solves(lam).mu_refined + 1.0, lam_lo, lam0, x_tol, f_tol=1e-10)
    mode = solves(lam_star)
    return BifurcationPoint(
        lambda_star=lam_star,
        lambda0=lam0,
        Q_star=hydraulic_head(profile, flow, lam_star),
        mode=mode,
        bracket=(lam_lo, lam0),
        mu_residual=abs(mode.mu_refined + 1.0),
        mu_at_lambda0=mu_at_lam0,
        profile=profile,
        flow=flow,
        solves=solves,
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
    """
    lam = point.lambda_star
    nodes = point.mode.nodes
    M = point.mode.M
    slope = np.diff(M) / np.diff(nodes)

    def weighted(q):
        a = np.sqrt(lam + q.gamma)
        m = M[:-1][q.elements] * q.n0 + M[1:][q.elements] * (1.0 - q.n0)
        yield q.w * m * m / a
        yield q.w * a

    int_inv, int_a = ElementRule(point.profile, nodes).integrate(weighted)
    i1 = float(np.sum(int_inv))
    i2 = float(np.sum(int_a * slope * slope))
    return -0.5 * math.pi * i1 - 3.0 * math.pi * i2 / point.flow.d**2


# -- fixed-mean-depth family: one point -----------------------------------------


def onset_point(
    dist: VorticityDistribution, d: float, g: float, lam: float, mesh_points: int, near=None
) -> tuple[float, ModeSolution]:
    """(p0, mode) at lambda on the family with p0 calibrated to the unit-depth
    normalization; mode.mu_refined is mu(lambda).

    The mass flux p0 is calibrated at this lambda, then mu(lambda) solved on
    the profile it gives, seeded from the ModeSolution ``near`` as
    principal_eigen is.  A failure of either step raises; for gamma == 0
    calibration raises at every lambda (DegenerateConstraint at lambda = 1,
    where every p0 satisfies the constraint).
    """
    p0 = calibrate_mass_flux(dist, d, lam)
    flow = FlowParameters(d=d, g=g, p0=p0)
    profile = GammaProfile.from_distribution(dist, flow)
    return p0, principal_eigen(profile, flow, lam, mesh_points=mesh_points, near=near)
