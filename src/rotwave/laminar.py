"""Laminar (wave-free) flows: height profile H(p), head Q, and calibrations.

Every laminar integral is built from exact integrals of (lambda + Gamma)^(-1/2)
and (lambda + Gamma)^(-3/2) over the pieces between break points (knots and
interior zeros of gamma).  On a piece of width h, Gamma is one monotone
polynomial of degree <= 2; with R = r^2 = lambda + Gamma and u = Gamma' =
(2 d^2 / p0) gamma at its two ends, oriented so that u >= 0, and
a = Gamma'' / 2 = (d^2 / p0) gamma' (Gradshteyn and Ryzhik 2.261, 2.264),
the forms used are free of cancellation:

* linear pieces (a = 0): 2h / (r1 + r2) for the -1/2 power and
  2h / (r1 r2 (r1 + r2)) for the -3/2 power;
* quadratic pieces, -3/2 power: h (u1 + u2) / (r1 r2 (u2 r1 + u1 r2));
* quadratic pieces, -1/2 power, a > 0:
  log1p(h sqrt(a) ((u1 + u2)/(r1 + r2) + 2 sqrt(a)) / (2 sqrt(a) r1 + u1)) / sqrt(a);
* quadratic pieces, -1/2 power, a < 0:
  -atan2(2 sqrt(-a) X, 4 (-a) r1 r2 + u1 u2) / sqrt(-a), where
  X = u2 r1 - u1 r2 = (4 a R1 - u1^2) h (u1 + u2) / (2 (u2 r1 + u1 r2)).

Near the admissibility floor r is small at a minimizer of Gamma.  These
forms keep full relative accuracy there, given R at the ends with full
relative accuracy, which is why R is lambda + Gamma(p1) plus the rises of
Gamma summed outward from p1, not lambda + Gamma(p).
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
    NoSolution,
)
from .numerics import bracketed_root
from .vorticity import FlowParameters, GammaProfile, VorticityDistribution, _check_domain


class _Pieces:
    """The p0-free part of a profile's exact piece integrals: the pieces
    between its break points and ``points`` (``edges``) with gamma and gamma'
    on them, Gamma(p1) unscaled, and the largest unscaled Gamma at a break
    point, which the scale 2 d^2 / p0 < 0 makes Gamma_min.  Only ``values``
    applies the scale, so one geometry serves every p0 with the same p1."""

    def __init__(self, profile: GammaProfile, points=()):
        self.edges = edges = np.union1d(profile._breaks, points)
        lo, hi, self.h = edges[:-1], edges[1:], np.diff(edges)
        knots, g0, g1 = profile._knots, profile._g0, profile._g1
        j = np.searchsorted(knots, lo, side="right") - 1

        def gamma(p):
            """gamma on the piece's interval, from its nearer knot, so that it
            is exact at knots: next to a minimizer, where R is tiny, the
            integrals are sensitive to it."""
            left, right = p - knots[j], knots[j + 1] - p
            return np.where(left <= right, g0[j] + g1[j] * left, profile._g_end[j] - g1[j] * right)

        self.gamma1, self.gamma2, self.slope = gamma(lo), gamma(hi), g1[j]
        self.k = np.searchsorted(edges, profile.p1)
        self.unscaled_p1 = profile._unscaled(profile.p1)
        self.unscaled_max = np.max(profile._unscaled(profile._breaks))

    def values(self, scale: float, lam: float, expo: float) -> np.ndarray:
        """The exact integral of (lambda + Gamma)^expo over each piece, for
        expo = -1/2 or -3/2 and admissible lambda; see the module docstring."""
        h, k = self.h, self.k
        u1, u2 = scale * self.gamma1, scale * self.gamma2
        a = 0.5 * scale * self.slope
        # R at the edges from the exact rises h (u1 + u2) / 2 of the pieces,
        # never below its least value lambda + Gamma_min.
        rise = 0.5 * h * (u1 + u2)
        above = np.concatenate([-np.cumsum(rise[:k][::-1])[::-1], [0.0], np.cumsum(rise[k:])])
        R = np.maximum((lam + scale * self.unscaled_p1) + above, lam + scale * self.unscaled_max)
        r = np.sqrt(R)
        # Orient every piece so that Gamma rises along it.  At a zero of gamma
        # u is round-off and may keep either sign.
        flip = u1 + u2 < 0.0
        R1 = np.where(flip, R[1:], R[:-1])
        r1, r2 = np.where(flip, r[1:], r[:-1]), np.where(flip, r[:-1], r[1:])
        u1, u2 = np.where(flip, -u2, u1), np.where(flip, -u1, u2)

        out = 2.0 * h / (r1 + r2)
        if expo == -1.5:
            out /= r1 * r2
        # The linear forms are exact to round-off where |a| h^2 <= eps R1, and
        # the quadratic ones could underflow there.  A genuine quadratic piece
        # has u1 + u2 >= 2 |a| h > 0; one narrower than round-off may not.
        q = (np.abs(a) * h * h > np.finfo(float).eps * R1) & (u1 + u2 > 0.0)
        h, R1, r1, r2, u1, u2, a = (x[q] for x in (h, R1, r1, r2, u1, u2, a))
        if expo == -1.5:
            out[q] = h * (u1 + u2) / (r1 * r2 * (u2 * r1 + u1 * r2))
        else:
            s = np.sqrt(np.abs(a))
            rising = np.log1p(h * s * ((u1 + u2) / (r1 + r2) + 2.0 * s) / (2.0 * s * r1 + u1)) / s
            x = np.where(
                u1 * u2 < 0.0,
                u2 * r1 - u1 * r2,
                (4.0 * a * R1 - u1 * u1) * h * (u1 + u2) / (2.0 * (u2 * r1 + u1 * r2)),
            )
            falling = -np.arctan2(2.0 * s * x, 4.0 * s * s * r1 * r2 + u1 * u2) / s
            out[q] = np.where(a > 0.0, rising, falling)
        return out


def _integral(profile: GammaProfile, lam: float, expo: float) -> float:
    """integral_{-1}^0 (lambda + Gamma)^expo exactly, for expo = -1/2 or -3/2."""
    return float(np.sum(_Pieces(profile).values(profile._scale, lam, expo)))


def height_on_mesh(profile: GammaProfile, lam: float, nodes: np.ndarray) -> np.ndarray:
    """H at every node, by a cumulative sum of exact pieces."""
    profile.require_admissible(lam)
    nodes = _check_domain(nodes)
    pieces = _Pieces(profile, nodes)
    cumulative = np.concatenate([[0.0], np.cumsum(pieces.values(profile._scale, lam, -0.5))])
    return cumulative[np.searchsorted(pieces.edges, nodes)] - (nodes + 1.0)


def hydraulic_head(profile: GammaProfile, flow: FlowParameters, lam: float) -> float:
    """Q(lambda) = 2 g d * integral (lambda+Gamma)^(-1/2) + p0^2 lambda / d^2."""
    profile.require_admissible(lam)
    integral = _integral(profile, lam, -0.5)
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
    pieces = _Pieces(profile)

    def f(lam):
        return float(np.sum(pieces.values(profile._scale, lam, -1.5))) - target

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
    return bracketed_root(f, lo, hi, x_tol=root_tol * max(1.0, abs(hi)))


def calibrate_mass_flux(
    dist: VorticityDistribution,
    d: float,
    lam: float,
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
                "degenerate: gamma == 0: the constraint holds for every p0 < 0"
            )
        raise NoSolution(
            f"gamma == 0: constraint residual {residual!r} for every p0"
        )

    # Gamma scales as 1/b, so admissibility requires b > b_min with
    # b_min = -Gamma_min(b=1)/lambda; phi often changes sign in a thin shell
    # just above b_min, so the scan starts with relative offsets from it.
    # One piece geometry serves every probe; each applies only its scale.
    ref = GammaProfile.from_distribution(dist, FlowParameters(d=d, g=1.0, p0=-1.0))
    pieces = _Pieces(ref)

    def phi(b):
        scale = 2.0 * d**2 / -b
        if lam <= -scale * pieces.unscaled_max:
            return math.nan
        return float(np.sum(pieces.values(scale, lam, -0.5))) - 1.0

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
        val = phi(b)
        if math.isnan(val):
            prev_b = prev_f = None
            continue
        if prev_f is not None and prev_f * val <= 0.0:
            bracket = (prev_b, b)
            break
        prev_b, prev_f = b, val
    if bracket is None:
        raise NoSolution("no p0 produces the unit-depth laminar flow")
    x_tol = 1e-13 * max(1.0, bracket[1])
    b_root = bracketed_root(phi, bracket[0], bracket[1], x_tol, f_tol=1e-13, max_iter=300)
    if abs(phi(b_root)) > 1e-10:
        raise NoSolution("calibration residual above 1e-10")
    return -b_root


@dataclass(frozen=True)
class ScaledParameters:
    """Output of the wavelength scaling: quantities in 2*pi-periodic units."""

    kappa: float
    d: float
    g: float
    vorticity: Optional[VorticityDistribution]
    p0: Optional[float]


def scale_to_unit_wavenumber(
    wavelength: float,
    d: float,
    g: float,
    dist: Optional[VorticityDistribution] = None,
    p0: Optional[float] = None,
) -> ScaledParameters:
    """Rescale physical inputs of wavelength L to the unit-wavenumber frame.

    With kappa = 2 pi / L: lengths scale by kappa, gravity and vorticity by
    1/kappa; the mass flux (an integral of velocity over depth) scales by
    kappa.
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
        p0=None if p0 is None else kappa * p0,
    )
