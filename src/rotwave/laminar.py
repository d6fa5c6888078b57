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
import numbers
from dataclasses import dataclass, replace
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
from .vorticity import FlowParameters, GammaProfile, VorticityDistribution, _check_domain, _Shape


class _Pieces:
    """The p0-free part of the exact piece integrals of a distribution's
    shape: the pieces between its break points and ``points`` (``edges``)
    with gamma and gamma' on them, U(p1) and max U.  Only ``powers``
    applies the scale 2 d^2 / p0, so one geometry serves every flow of the
    distribution; the one without ``points`` is built once per shape
    (``_pieces``)."""

    def __init__(self, shape: _Shape, points=()):
        self.edges = edges = np.union1d(shape.breaks, points)
        lo, hi, self.h = edges[:-1], edges[1:], np.diff(edges)
        knots, g0, g1 = shape.knots, shape.g0, shape.g1
        j = np.searchsorted(knots, lo, side="right") - 1

        def gamma(p):
            """gamma on the piece's interval, from its nearer knot, so that it
            is exact at knots: next to a minimizer, where R is tiny, the
            integrals are sensitive to it."""
            left, right = p - knots[j], knots[j + 1] - p
            return np.where(left <= right, g0[j] + g1[j] * left, shape.g_end[j] - g1[j] * right)

        self.gamma1, self.gamma2, self.slope = gamma(lo), gamma(hi), g1[j]
        self.k = np.searchsorted(edges, shape.p1)
        self.unscaled_p1 = shape.unscaled(shape.p1)
        self.unscaled_max = shape.u_max

    def values(self, scale: float, lam: float, expo: float) -> np.ndarray:
        """The exact integral of (lambda + Gamma)^expo over each piece, for
        expo = -1/2 or -3/2 and admissible lambda; see the module docstring."""
        return self.powers(scale, lam, (expo,))[0]

    def powers(self, scale: float, lam: float, expos, least: Optional[float] = None) -> list:
        """``values`` for each of ``expos`` from one pass over the pieces.
        ``least`` is lambda + Gamma_min where the caller knows it more
        accurately than the sum of its two terms."""
        h, k = self.h, self.k
        u1, u2 = scale * self.gamma1, scale * self.gamma2
        a = 0.5 * scale * self.slope
        # R at the edges from the exact rises h (u1 + u2) / 2 of the pieces,
        # never below its least value lambda + Gamma_min.
        rise = 0.5 * h * (u1 + u2)
        above = np.concatenate([-np.cumsum(rise[:k][::-1])[::-1], [0.0], np.cumsum(rise[k:])])
        if least is None:
            base, least = lam + scale * self.unscaled_p1, lam + scale * self.unscaled_max
        else:
            base = least + scale * (self.unscaled_p1 - self.unscaled_max)
        R = np.maximum(base + above, least)
        r = np.sqrt(R)
        # Orient every piece so that Gamma rises along it.  At a zero of gamma
        # u is round-off and may keep either sign.
        flip = u1 + u2 < 0.0
        R1 = np.where(flip, R[1:], R[:-1])
        r1, r2 = np.where(flip, r[1:], r[:-1]), np.where(flip, r[:-1], r[1:])
        u1, u2 = np.where(flip, -u2, u1), np.where(flip, -u1, u2)

        linear = 2.0 * h / (r1 + r2)
        ends = r1 * r2 if -1.5 in expos else None
        # The linear forms are exact to round-off where |a| h^2 <= eps R1, and
        # the quadratic ones could underflow there.  A genuine quadratic piece
        # has u1 + u2 >= 2 |a| h > 0; one narrower than round-off may not.
        q = (np.abs(a) * h * h > np.finfo(float).eps * R1) & (u1 + u2 > 0.0)
        h, R1, r1, r2, u1, u2, a = (x[q] for x in (h, R1, r1, r2, u1, u2, a))
        out = []
        for expo in expos:
            if expo == -1.5:
                piece = linear / ends
                piece[q] = h * (u1 + u2) / (r1 * r2 * (u2 * r1 + u1 * r2))
            else:
                piece, s = linear.copy(), np.sqrt(np.abs(a))
                rising = np.log1p(h * s * ((u1 + u2) / (r1 + r2) + 2.0 * s) / (2.0 * s * r1 + u1)) / s
                x = np.where(
                    u1 * u2 < 0.0,
                    u2 * r1 - u1 * r2,
                    (4.0 * a * R1 - u1 * u1) * h * (u1 + u2) / (2.0 * (u2 * r1 + u1 * r2)),
                )
                falling = -np.arctan2(2.0 * s * x, 4.0 * s * s * r1 * r2 + u1 * u2) / s
                piece[q] = np.where(a > 0.0, rising, falling)
            out.append(piece)
        return out


def _pieces(shape: _Shape) -> _Pieces:
    """The shape's piece geometry without extra points, built once per shape."""
    pieces = shape.cache.get("pieces")
    if pieces is None:
        pieces = shape.cache["pieces"] = _Pieces(shape)
    return pieces


def height_on_mesh(profile: GammaProfile, lam: float, nodes: np.ndarray) -> np.ndarray:
    """H at every node, by a cumulative sum of exact pieces."""
    profile.require_admissible(lam)
    nodes = _check_domain(nodes)
    pieces = _Pieces(profile._shape, nodes)
    cumulative = np.concatenate([[0.0], np.cumsum(pieces.values(profile._scale, lam, -0.5))])
    return cumulative[np.searchsorted(pieces.edges, nodes)] - (nodes + 1.0)


def hydraulic_head(profile: GammaProfile, flow: FlowParameters, lam: float) -> float:
    """Q(lambda) = 2 g d * integral (lambda+Gamma)^(-1/2) + p0^2 lambda / d^2."""
    profile.require_admissible(lam)
    integral = float(np.sum(_pieces(profile._shape).values(profile._scale, lam, -0.5)))
    return 2.0 * flow.g * flow.d * integral + flow.p0**2 * lam / flow.d**2


def lambda_of_min_head(
    profile: GammaProfile,
    flow: FlowParameters,
    root_tol: float = 1e-10,
) -> float:
    """The unique head minimizer lambda0.

    Solves integral (lambda0 + Gamma)^(-3/2) ds = p0^2 / (g d^3); the left
    side decreases strictly from +infinity to 0, so a bracket always exists.
    Brent stops at root_tol max(1, |hi|), or at 1e-6 of the bracket's lower
    end above the floor where finer, so lambda0 - floor keeps its digits.
    """
    target = flow.p0**2 / (flow.g * flow.d**3)
    floor = profile.min_lambda
    pieces = _pieces(profile._shape)

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
    return bracketed_root(f, lo, hi, x_tol=min(root_tol * max(1.0, abs(hi)), 1e-6 * (lo - floor)))


class _DepthConstraint:
    """phi = integral_{-1}^0 (lambda + Gamma)^(-1/2) dp - 1 at one lambda, for
    t = -1/p0 in (0, t_end].

    With U = integral_0^p gamma, Gamma = -2 d^2 t U.  Where max U > 0, t_end
    is the admissibility edge t_max = lambda / (2 d^2 max U), and
    lambda + Gamma_min = lambda (1 - t / t_max).  Where max U = 0 there is no
    edge: Gamma_min = 0 at every t, and t_end is any t > 0.

    A point is given by x = sqrt(1 - y) or by y = t / t_end.  Near the
    edge x keeps t and lambda + Gamma_min = lambda x^2 (passed to the pieces
    as it is, not as a difference that cancels) to full relative accuracy,
    and near t = 0 y does.  phi falls like sqrt(t_max - t) at the edge but is
    about linear in x there, and x resolves roots far closer to the edge
    than a float t can.
    """

    def __init__(self, shape: _Shape, d: float, lam: float, t_end: Optional[float] = None):
        self.pieces, self.flat, self.lam, self.c = _pieces(shape), shape.flat, lam, 2.0 * d * d
        self.edge = t_end is None
        self.t_end = lam / (self.c * shape.u_max) if self.edge else t_end

    def point(self, v: float, in_y: bool = False) -> tuple:
        """(t, lambda + Gamma_min, dt/dv) at x = v, or at y = v with ``in_y``."""
        if in_y:
            t, gap, dt = self.t_end * v, 1.0 - v, self.t_end
        else:
            t, gap, dt = self.t_end * ((1.0 - v) * (1.0 + v)), v * v, -2.0 * self.t_end * v
        return t, self.lam * gap if self.edge else self.lam, dt

    def __call__(self, v: float, in_y: bool = False, slope: bool = True):
        """phi at the point v and, with ``slope``, dphi/dv, from
        dphi/dt = -(I_1/2 - lambda I_3/2) / (2t), I_e being the integral of
        (lambda + Gamma)^e: both from one pass over the pieces.

        Next to a zero of gamma, u is round-off, and within (u / 2 sqrt(a))^2
        of the edge lambda + Gamma dips below lambda + Gamma_min inside the
        piece: there the -1/2 power is NaN, and phi is +inf, as past the
        edge.  Where lambda + Gamma_min is below about 1e-205 the powers
        overflow to +inf."""
        t, least, dt = self.point(v, in_y)
        expos = (-0.5, -1.5) if slope else (-0.5,)
        with np.errstate(all="ignore"):
            sums = [np.sum(p) for p in self.pieces.powers(-self.c * t, self.lam, expos, least)]
            f = math.inf if math.isnan(sums[0]) else float(sums[0]) - 1.0
            if not slope:
                return f
            return f, float((sums[0] - self.lam * sums[1]) / (-2.0 * t) * dt)

    def at_end(self) -> float:
        """phi at x = 0.  At the edge that is its limit there: finite, or +inf
        where lambda + Gamma does not rise linearly on a side of a minimizer
        of Gamma (the shape's ``flat``).  gamma of order 1e-300 at the
        minimizer may overflow the finite limit to +inf."""
        if self.edge and self.flat:
            return math.inf
        return self(0.0, slope=False)


def _newton(phi: _DepthConstraint, pos: float, neg: float) -> tuple:
    """The root of phi between x = pos, where phi > 0, and x = neg, where
    phi < 0, as (v, in_y) (see _DepthConstraint.point): Newton steps in x
    from the midpoint, bisecting where a step leaves the bracket, until a
    step is below 2^-20 of the distance to the nearer end of [0, 1] or the
    bracket is too narrow to bisect.  One
    more step from the last point then lands within round-off; where
    x^2 > 1/2 it is taken in y, which resolves t near 0 and x does not."""
    x, last = 0.5 * (pos + neg), math.inf
    for _ in range(200):
        f, fx = phi(x)
        if f > 0.0:
            pos = x
        else:
            neg = x
        lo, hi = min(pos, neg), max(pos, neg)
        step = f / fx if fx != 0.0 else math.inf
        mid = 0.5 * (lo + hi)
        if f == 0.0 or last <= 2.0**-20 * min(x, 1.0 - x) or not lo < mid < hi:
            if x * x <= 0.5:
                return (x - step if lo < x - step < hi else x), False
            y = (1.0 - x) * (1.0 + x)
            y_step = step * -2.0 * x  # dphi/dy = (dphi/dx) / (dy/dx)
            return (y - y_step if 0.0 < y - y_step < 1.0 else y), True
        x, last = (x - step, abs(step)) if lo < x - step < hi else (mid, 0.5 * (hi - lo))
    raise NoSolution("the calibration did not converge")


def _below_zero(phi: _DepthConstraint, at_zero: float) -> float:
    """An x where phi <= 0, given phi >= 0 at both ends of [0, t_max].

    phi is convex in y = t / t_max, so it can dip below 0 only around its
    minimizer.  Each probe keeps the side of the minimizer that the sign of
    dphi/dy gives, and goes where the tangents at the two ends meet (the
    midpoint while an end has no tangent): under them lies a lower bound of
    phi on the bracket, and NoSolution is raised once that bound is above 0.
    """
    lo, hi = (0.0, at_zero, None), (1.0, None, None)  # (y, phi, dphi/dy)
    y = 0.5
    for _ in range(200):
        x = math.sqrt(1.0 - y)
        f, fx = phi(x)
        if f <= 0.0:
            return x
        probe = ((1.0 - x) * (1.0 + x), f, fx / (-2.0 * x) if f < math.inf else None)
        if f == math.inf or probe[2] > 0.0:
            hi = probe
        else:
            lo = probe
        (ya, fa, sa), (yb, fb, sb) = lo, hi
        y, bound = 0.5 * (ya + yb), -math.inf
        if sa is not None and sb is not None:
            meet = (fb - fa + sa * ya - sb * yb) / (sa - sb)
            if ya < meet < yb:
                y, bound = meet, fa + sa * (meet - ya)
        elif sb is not None:
            bound = fb + sb * (ya - yb)
        elif sa is not None:
            bound = fa + sa * (yb - ya)
        if bound > 0.0 or yb - ya <= 1e-13:
            break
    raise NoSolution("no p0 produces the unit-depth laminar flow: phi stays above 0")


def calibrate_mass_flux(dist: VorticityDistribution, d: float, lam: float) -> float:
    """p0 < 0 enforcing the unit-depth normalization of the laminar flow.

    The constraint is solved in t = -1/p0 > 0.  With U = integral_0^p gamma,
    Gamma = -2 d^2 t U and

        phi(t) = integral_{-1}^0 (lambda - 2 d^2 t U)^(-1/2) dp - 1,

    which is convex in t, with phi(0) = lambda^(-1/2) - 1 exactly and
    dphi/dt = -(I_1/2 - lambda I_3/2) / (2t), I_e the integral of
    (lambda + Gamma)^e.  Admissibility bounds t by t_max =
    lambda / (2 d^2 max U) where max U > 0.  A convex phi has at most two
    roots; the largest t is returned, so the bracket needs no scan:

    * phi(t_max) > 0 and phi(0) < 0: the one upward crossing, on (0, t_max);
    * phi(t_max) > 0 and phi(0) >= 0: the upward crossing right of the
      minimizer of phi, found from the sign of dphi/dt, or NoSolution where
      the minimum is above 0;
    * phi(t_max) < 0 < phi(0): the one downward crossing;
    * otherwise NoSolution.  Where max U = 0, phi falls from phi(0) towards
      -1 with no edge, and has a root only where phi(0) > 0.

    Newton steps solve in x = sqrt(1 - t/t_max) (see _DepthConstraint) from
    the middle of the bracket, so p0 depends on lambda alone, not on the
    lambdas calibrated before it.  Near lambda = 1, where phi(0) tends to 0,
    round-off in phi sets p0 only to about 1e-16 / (lambda - 1), relative.
    phi reads the distribution's shape, built once, at the scale -2 d^2 t:
    its piece geometry serves every d, lambda and t.

    NoSolution is raised for a residual |phi| above 1e-10, for a root so
    close to the admissibility edge that the flow at the nearest float p0
    is not admissible, and where max U is so small that t_max, or Gamma' at
    the edge, leaves the float range.  For gamma == 0 the constraint is independent of p0:
    it then holds for every p0 exactly when lambda = 1
    (DegenerateConstraint) and for no p0 otherwise (NoSolution).
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

    shape = dist._shape
    at_zero, top = lam**-0.5 - 1.0, shape.u_max
    if top > 0.0:
        # Beyond these, t_max or |Gamma'| at the edge, lambda max|gamma| / max U,
        # leaves the float range of the piece forms.
        if not (lam * dist.sup_norm() < 1e150 * top and lam < 1e300 * d * d * top):
            raise NoSolution("max U is too small: the piece forms overflow at the edge")
        phi = _DepthConstraint(shape, d, lam)
        at_edge = phi.at_end()
        if at_edge > 0.0:
            pos, neg = 0.0, 1.0 if at_zero < 0.0 else _below_zero(phi, at_zero)
        elif at_edge < 0.0 < at_zero:
            pos, neg = 1.0, 0.0
        else:
            raise NoSolution("no p0 produces the unit-depth laminar flow")
    elif at_zero > 0.0:
        phi = _DepthConstraint(shape, d, lam, 1.0)
        while phi.at_end() >= 0.0:
            if phi.t_end > 1e12:
                raise NoSolution("no p0 produces the unit-depth laminar flow")
            phi = _DepthConstraint(shape, d, lam, 4.0 * phi.t_end)
        pos, neg = 1.0, 0.0
    else:
        raise NoSolution("no p0 produces the unit-depth laminar flow")

    v, in_y = _newton(phi, pos, neg)
    if not abs(phi(v, in_y, slope=False)) <= 1e-10:
        raise NoSolution("calibration residual above 1e-10")
    t, least, _ = phi.point(v, in_y)
    p0 = -1.0 / t
    # lambda + Gamma_min of the flow at the float p0, as its profile has it.
    gap = lam + 2.0 * d**2 / p0 * top
    if not 0.5 * least < gap < 2.0 * least:
        raise NoSolution("the root lies within round-off of the admissibility edge")
    return p0


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
    kappa.  L may be any real number but a bool; one that is not positive
    and finite raises InvalidWavelength.
    """
    real = isinstance(wavelength, numbers.Real) and not isinstance(wavelength, bool)
    if not (real and 0.0 < wavelength < math.inf):
        raise InvalidWavelength(f"wavelength {wavelength!r} must be positive and finite")
    kappa = 2.0 * math.pi / float(wavelength)
    scaled_dist = None
    if dist is not None:
        scaled_dist = replace(
            dist,
            constant=None if dist.constant is None else dist.constant / kappa,
            values=tuple(v / kappa for v in dist.values),
        )
    return ScaledParameters(
        kappa=kappa,
        d=kappa * d,
        g=g / kappa,
        vorticity=scaled_dist,
        p0=None if p0 is None else kappa * p0,
    )
