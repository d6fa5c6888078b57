"""Laminar (wave-free) flows: height profile H(p), head Q, and calibrations.

All integrals involve (lambda + Gamma(s))^(-1/2) or ^(-3/2), which develop a
kink at every vorticity jump and an integrable endpoint singularity at p1,
the last minimizer of Gamma, as lambda approaches -Gamma_min.  Quadratures
therefore split at p1 and at the jumps, and declare p1 as a singular
endpoint so adaptive_quad applies its square-root substitution there.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .errors import (
    BracketFailure,
    DegenerateConstraint,
    InvalidWavelength,
    NonAdmissibleLambda,
    NonConvergence,
    NoSolution,
)
from .numerics import QuadratureSpec, RootSpec, adaptive_quad, bracketed_root
from .vorticity import ElementRule, FlowParameters, GammaProfile, VorticityDistribution


def _integral_of_power(
    profile: GammaProfile,
    lam: float,
    expo: float,
    lo: float = -1.0,
    hi: float = 0.0,
    abs_tol: float = 1e-12,
    rel_tol: float = 1e-10,
) -> float:
    """integral_lo^hi (lambda + Gamma(s))^expo ds with breakpoint handling."""
    if hi <= lo:
        return 0.0

    def f(s):
        return (lam + profile.primitive(s)) ** expo

    mins = profile.minimizers or (profile.p1,)
    edges = sorted({lo, hi, *(m for m in mins if lo < m < hi)})
    total = 0.0
    for a, b in zip(edges[:-1], edges[1:]):
        bps = {j for j in profile.jump_points if a < j < b}
        if any(abs(a - m) < 1e-14 for m in mins):
            bps.add(a)
        if any(abs(b - m) < 1e-14 for m in mins):
            bps.add(b)
        spec = QuadratureSpec(
            abs_tol=abs_tol, rel_tol=rel_tol, breakpoints=tuple(sorted(bps))
        )
        total += adaptive_quad(f, a, b, spec)
    return total


def laminar_height(profile: GammaProfile, lam: float, p: float) -> float:
    """H(p; lambda) = integral_{-1}^p (lambda + Gamma)^(-1/2) ds - (p + 1)."""
    profile.require_admissible(lam)
    p = float(p)
    if p <= -1.0:
        return 0.0
    return _integral_of_power(profile, lam, -0.5, -1.0, p) - (p + 1.0)


def height_on_mesh(profile: GammaProfile, lam: float, nodes: np.ndarray) -> np.ndarray:
    """H at every mesh node via cumulative per-element quadrature."""
    profile.require_admissible(lam)
    nodes = np.asarray(nodes, dtype=float)
    rule = ElementRule(profile, nodes)
    (seg,) = rule.integrate(lambda q: [q.w * (lam + q.gamma) ** (-0.5)])
    return np.concatenate([[0.0], np.cumsum(seg)]) - (nodes + 1.0)


def hydraulic_head(profile: GammaProfile, flow: FlowParameters, lam: float) -> float:
    """Q(lambda) = 2 g d * integral (lambda+Gamma)^(-1/2) + p0^2 lambda / d^2."""
    profile.require_admissible(lam)
    integral = _integral_of_power(profile, lam, -0.5)
    return 2.0 * flow.g * flow.d * integral + flow.p0**2 * lam / flow.d**2


def lambda_of_min_head(
    profile: GammaProfile,
    flow: FlowParameters,
    root_tol: float = 1e-10,
) -> float:
    """The unique head minimizer lambda0.

    Solves integral (lambda0 + Gamma)^(-3/2) ds = p0^2 / (g d^3); the left
    side decreases strictly from +infinity to 0, so a bracket always exists.
    """
    target = flow.p0**2 / (flow.g * flow.d**3)
    floor = profile.min_lambda

    def f(lam):
        return _integral_of_power(profile, lam, -1.5, abs_tol=1e-13) - target

    lo = None
    eps = 1e-2 * max(1.0, abs(floor))
    while eps > 1e-13 * max(1.0, abs(floor)):
        cand = floor + eps
        if f(cand) > 0.0:
            lo = cand
            break
        eps *= 0.1
    if lo is None:
        raise BracketFailure("no lower bracket for the head minimizer")

    hi = floor + max(1.0, eps)
    cap = max(1e12, abs(floor) * 1e12)
    while f(hi) > 0.0:
        hi = floor + (hi - floor) * 4.0
        if hi - floor > cap:
            raise BracketFailure("no sign change up to the expansion cap")
    spec = RootSpec(x_tol=root_tol * max(1.0, abs(hi)), f_tol=0.0, max_iter=200)
    return bracketed_root(f, lo, hi, spec)


def surface_relative_speed(lam: float, flow: FlowParameters):
    """(sqrt(lambda), relative surface velocity u - c) of the flat flow.

    sqrt(lambda) = d (u - c) / p0 at the surface, so u - c = p0 sqrt(lambda)/d,
    always negative.
    """
    if not lam > 0.0:
        raise NonAdmissibleLambda("lambda must be positive")
    root = math.sqrt(lam)
    return root, flow.p0 * root / flow.d


@dataclass(frozen=True)
class LaminarFlow:
    """A wave-free solution H(p; lambda) with its hydraulic head Q."""

    profile: GammaProfile
    flow: FlowParameters
    lam: float
    Q: float

    @classmethod
    def solve(cls, profile: GammaProfile, flow: FlowParameters, lam: float) -> "LaminarFlow":
        return cls(profile, flow, lam, hydraulic_head(profile, flow, lam))

    def height(self, p: float) -> float:
        return laminar_height(self.profile, self.lam, p)

    def height_slope(self, p):
        """H_p = 1/a - 1; H_p + 1 > 0 expresses non-stagnation."""
        return 1.0 / self.profile.a(self.lam, p) - 1.0


def calibrate_mass_flux(
    dist: VorticityDistribution,
    d: float,
    lam: float,
    residual_tol: float = 1e-10,
) -> float:
    """p0 < 0 enforcing the unit-depth normalization of the laminar flow.

    Solves phi(p0) = integral (lambda + Gamma(s; p0))^(-1/2) ds - 1 = 0,
    where Gamma depends on p0 through its 2 d^2 / p0 prefactor.  For
    gamma == 0 the constraint is independent of p0: it then holds for every
    p0 exactly when lambda = 1 (DegenerateConstraint) and for no p0
    otherwise (NoSolution).
    """
    if not lam > 0.0:
        raise NonAdmissibleLambda("lambda must be positive")
    if dist.is_zero():
        residual = lam**-0.5 - 1.0
        if abs(residual) <= 1e-12:
            raise DegenerateConstraint(
                "gamma == 0: the constraint holds for every p0 < 0",
                residual=residual,
            )
        raise NoSolution(
            f"gamma == 0: constraint residual {residual!r} for every p0"
        )

    def phi(b):
        flow = FlowParameters(d=d, g=1.0, p0=-b)
        prof = GammaProfile.from_distribution(dist, flow)
        if lam <= prof.min_lambda:
            return math.nan
        return _integral_of_power(prof, lam, -0.5) - 1.0

    # Gamma scales as 1/b, so admissibility requires b > b_min with
    # b_min = -Gamma_min(b=1)/lambda; phi often changes sign in a thin shell
    # just above b_min, so the scan starts with relative offsets from it.
    ref = GammaProfile.from_distribution(dist, FlowParameters(d=d, g=1.0, p0=-1.0))
    b_min = max(ref.min_lambda / lam, 0.0)
    b_vals = []
    if b_min > 0.0:
        b_vals.extend(b_min * (1.0 + off) for off in
                      (1e-9, 1e-7, 1e-5, 1e-3, 1e-2, 0.05, 0.2, 0.5))
    start = max(b_min, 1e-9)
    b = start
    while b < 1e12 * max(1.0, start):
        b *= 1.5
        b_vals.append(b)
    b_vals = sorted(b_vals)
    prev_b = prev_f = None
    bracket = None
    for b in b_vals:
        try:
            val = phi(b)
        except NonConvergence:
            # Probes hugging b_min can defeat the quadrature; like a
            # non-admissible probe, such a probe only breaks the scan.
            val = math.nan
        if math.isnan(val):
            prev_b = prev_f = None
            continue
        if prev_f is not None and prev_f * val <= 0.0:
            bracket = (prev_b, b)
            break
        prev_b, prev_f = b, val
    if bracket is None:
        raise NoSolution("no p0 produces the unit-depth laminar flow")
    spec = RootSpec(x_tol=1e-13 * max(1.0, bracket[1]), f_tol=1e-13, max_iter=300)
    b_root = bracketed_root(phi, bracket[0], bracket[1], spec)
    if abs(phi(b_root)) > residual_tol:
        raise NoSolution(f"calibration residual above {residual_tol!r}")
    return -b_root


@dataclass(frozen=True)
class ScaledParameters:
    """Output of the wavelength scaling: quantities in 2*pi-periodic units."""

    kappa: float
    d: float
    g: float
    vorticity: Optional[VorticityDistribution]
    c: Optional[float]
    p0: Optional[float]


def scale_to_unit_wavenumber(
    wavelength: float,
    d: float,
    g: float,
    dist: Optional[VorticityDistribution] = None,
    c: Optional[float] = None,
    p0: Optional[float] = None,
) -> ScaledParameters:
    """Rescale physical inputs of wavelength L to the unit-wavenumber frame.

    With kappa = 2 pi / L: lengths scale by kappa, gravity and vorticity by
    1/kappa, velocities are unchanged; the mass flux (an integral of velocity
    over depth) scales by kappa.
    """
    if not (isinstance(wavelength, (int, float)) and math.isfinite(wavelength) and wavelength > 0.0):
        raise InvalidWavelength(f"wavelength {wavelength!r} must be positive and finite")
    kappa = 2.0 * math.pi / wavelength
    scaled_dist = None
    if dist is not None:
        if dist.kind == "constant":
            scaled_dist = VorticityDistribution.const(dist.constant / kappa)
        elif dist.kind == "piecewise_constant":
            scaled_dist = VorticityDistribution.piecewise_constant(
                dist.breakpoints, [v / kappa for v in dist.values]
            )
        else:
            scaled_dist = VorticityDistribution.tabulated(
                dist.nodes, [v / kappa for v in dist.values]
            )
    return ScaledParameters(
        kappa=kappa,
        d=kappa * d,
        g=g / kappa,
        vorticity=scaled_dist,
        c=c,
        p0=None if p0 is None else kappa * p0,
    )
