"""Vorticity profiles gamma(p) on [-1, 0] and their scaled primitive.

The primitive Gamma(p) = (2 d^2 / p0) * integral_0^p gamma(s) ds is kept in
closed form: gamma is polynomial (degree 0 or 1) on each knot interval, so
Gamma is piecewise linear or quadratic and every downstream integral sees
exact coefficient values.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import Optional, Sequence

import numpy as np

from .errors import InvalidParameter, NonAdmissibleLambda, OutOfDomain

_DOMAIN_SLACK = 1e-12

# Element quadrature: 8-point Gauss on every element, and 12-point Gauss in
# t = sqrt(|p - p*|) on an element with an end within _TOUCH of a minimizer p*.
_GAUSS_X, _GAUSS_W = np.polynomial.legendre.leggauss(8)
_SUB_X, _SUB_W = np.polynomial.legendre.leggauss(12)
_TOUCH = 1e-14


@dataclass(frozen=True)
class FlowParameters:
    """Scaled physical constants of the flow.

    d: mean depth (> 0); g: gravity (> 0); p0: relative mass flux (< 0).
    Units assume the 2*pi-periodic scaling (wavenumber 1).
    """

    d: float
    g: float
    p0: float

    def __post_init__(self):
        if not self.d > 0.0:
            raise InvalidParameter("d must be > 0", "d")
        if not self.g > 0.0:
            raise InvalidParameter("g must be > 0", "g")
        if not self.p0 < 0.0:
            raise InvalidParameter("p0 must be < 0", "p0")


@dataclass(frozen=True)
class VorticityDistribution:
    """gamma(p) on [-1, 0]: constant, piecewise constant, or tabulated.

    Piecewise-constant values are right-continuous at the breakpoints.
    Tabulated profiles interpolate linearly between strictly increasing
    nodes running from -1 to 0.  A broken rule raises InvalidParameter
    naming the field.
    """

    kind: str
    constant: Optional[float] = None
    breakpoints: tuple = ()
    values: tuple = ()
    nodes: tuple = ()

    @classmethod
    def const(cls, gamma: float) -> "VorticityDistribution":
        return cls(kind="constant", constant=float(gamma))

    @classmethod
    def piecewise_constant(
        cls, breakpoints: Sequence[float], values: Sequence[float]
    ) -> "VorticityDistribution":
        return cls(
            kind="piecewise_constant",
            breakpoints=tuple(float(b) for b in breakpoints),
            values=tuple(float(v) for v in values),
        )

    @classmethod
    def tabulated(
        cls, nodes: Sequence[float], values: Sequence[float]
    ) -> "VorticityDistribution":
        return cls(
            kind="tabulated",
            nodes=tuple(float(p) for p in nodes),
            values=tuple(float(v) for v in values),
        )

    def __post_init__(self):
        if self.kind == "constant":
            if self.constant is None:
                raise InvalidParameter("constant profile needs a gamma value", "gamma")
        elif self.kind == "piecewise_constant":
            bps = self.breakpoints
            if len(self.values) != len(bps) + 1:
                raise InvalidParameter("need len(values) == len(breakpoints) + 1", "values")
            if any(b2 <= b1 for b1, b2 in zip(bps, bps[1:])):
                raise InvalidParameter("breakpoints must be strictly increasing", "breakpoints")
            if bps and not (-1.0 < bps[0] and bps[-1] < 0.0):
                raise InvalidParameter("breakpoints must lie inside (-1, 0)", "breakpoints")
        elif self.kind == "tabulated":
            nds = self.nodes
            if len(nds) < 2 or len(self.values) != len(nds):
                raise InvalidParameter("tabulated profile needs matching nodes/values", "nodes")
            if any(n2 <= n1 for n1, n2 in zip(nds, nds[1:])):
                raise InvalidParameter("nodes must be strictly increasing", "nodes")
            if nds[0] != -1.0 or nds[-1] != 0.0:
                raise InvalidParameter("tabulated nodes must run from -1 to 0", "nodes")
        else:
            raise InvalidParameter(
                "kind must be one of constant, piecewise_constant, tabulated", "kind"
            )

    def sup_norm(self) -> float:
        """sup over [-1, 0] of |gamma|; exact for all three kinds."""
        if self.kind == "constant":
            return abs(self.constant)
        return float(np.max(np.abs(self.values)))

    def is_zero(self) -> bool:
        if self.kind == "constant":
            return self.constant == 0.0
        return all(v == 0.0 for v in self.values)

    def jump_points(self) -> tuple:
        return self.breakpoints if self.kind == "piecewise_constant" else ()


def _check_domain(p):
    p = np.asarray(p, dtype=float)
    if np.any(p < -1.0 - _DOMAIN_SLACK) or np.any(p > _DOMAIN_SLACK):
        raise OutOfDomain(f"p={p!r} outside [-1, 0]")
    return np.clip(p, -1.0, 0.0)


@dataclass(frozen=True)
class GammaProfile:
    """Closed-form evaluator for Gamma and a = sqrt(Gamma + lambda).

    gamma_min is min Gamma over [-1, 0] and p1 the largest minimizer.
    """

    source: VorticityDistribution
    flow: FlowParameters
    gamma_min: float
    p1: float
    jump_points: tuple
    minimizers: tuple = ()
    # Knot tables: gamma(p) = g0[j] + g1[j] * (p - knots[j]) on interval j,
    # with the exact value g_end[j] at its right end,
    # J(p) = integral_{-1}^p gamma, Gamma = scale * (J(p) - J(0)).
    _knots: np.ndarray = field(repr=False, default=None)
    _g0: np.ndarray = field(repr=False, default=None)
    _g1: np.ndarray = field(repr=False, default=None)
    _g_end: np.ndarray = field(repr=False, default=None)
    _jknots: np.ndarray = field(repr=False, default=None)
    _scale: float = field(repr=False, default=0.0)
    # Knots and interior zeros of gamma: between two consecutive ones Gamma
    # is a single monotone polynomial piece.
    _breaks: np.ndarray = field(repr=False, default=None)
    # Mesh levels of spectral.principal_eigen, which do not depend on lambda;
    # they live and die with the profile.
    _mesh_levels: dict = field(default_factory=dict, init=False, repr=False, compare=False)

    @classmethod
    def from_distribution(
        cls,
        dist: VorticityDistribution,
        flow: FlowParameters,
    ) -> "GammaProfile":
        knots, g0, g1, g_end = _poly_tables(dist)
        h = np.diff(knots)
        increments = g0 * h + 0.5 * g1 * h * h
        jknots = np.concatenate([[0.0], np.cumsum(increments)])
        scale = 2.0 * flow.d**2 / flow.p0
        profile = cls(
            source=dist,
            flow=flow,
            gamma_min=0.0,
            p1=0.0,
            jump_points=dist.jump_points(),
            _knots=knots,
            _g0=g0,
            _g1=g1,
            _g_end=g_end,
            _jknots=jknots,
            _scale=scale,
        )
        gmin, p1, minimizers, breaks = _exact_minimum(profile)
        return replace(profile, gamma_min=gmin, p1=p1, minimizers=minimizers, _breaks=breaks)

    # -- evaluation ---------------------------------------------------------

    def primitive(self, p):
        """Gamma(p) = (2 d^2 / p0) * integral_0^p gamma; Gamma(0) = 0 exactly."""
        p = _check_domain(p)
        idx = np.clip(
            np.searchsorted(self._knots, p, side="right") - 1,
            0,
            len(self._g0) - 1,
        )
        dp = p - self._knots[idx]
        # Summed as the increments of _jknots are, so that Gamma(0) is 0.
        j = self._jknots[idx] + (self._g0[idx] * dp + 0.5 * self._g1[idx] * dp * dp)
        out = self._scale * (j - self._jknots[-1])
        return float(out) if out.ndim == 0 else out

    def a(self, lam: float, p):
        """Coefficient sqrt(Gamma(p) + lambda) > 0."""
        val = self.primitive(p) + lam
        if np.any(np.asarray(val) <= 0.0):
            raise NonAdmissibleLambda(
                f"lambda={lam!r} gives nonpositive Gamma + lambda (min Gamma={self.gamma_min!r})"
            )
        return np.sqrt(val)

    @property
    def min_lambda(self) -> float:
        """Admissibility floor: lambda must exceed -gamma_min."""
        return -self.gamma_min

    def require_admissible(self, lam: float):
        if not lam > self.min_lambda:
            raise NonAdmissibleLambda(
                f"lambda={lam!r} not above admissibility floor {self.min_lambda!r}"
            )


@dataclass(frozen=True)
class QuadraturePoints:
    """Quadrature points of some elements, one row per element.

    ``w`` holds the weights (Jacobian included), ``gamma`` Gamma at the
    points, ``n0`` and ``n1`` the P1 basis functions of the element's left
    and right node.
    """

    elements: np.ndarray
    w: np.ndarray
    gamma: np.ndarray
    n0: np.ndarray
    n1: np.ndarray


class ElementRule:
    """The quadrature for every per-element integral on a mesh of [-1, 0].

    Integrands depend on lambda only through lambda + Gamma, whose square
    root a has a kink at every vorticity jump (a mesh node) and behaves like
    sqrt(|p - p*|) at a minimizer p* of Gamma as lambda nears the floor.
    Each element gets 8-point Gauss; an element that ends at a minimizer
    gets 12-point Gauss in t = sqrt(|p - p*|) instead.  Nothing stored
    depends on lambda.
    """

    def __init__(self, profile: GammaProfile, nodes):
        nodes = np.asarray(nodes, dtype=float)
        lo, hi = nodes[:-1], nodes[1:]
        h = hi - lo
        mins = np.asarray(profile.minimizers or (profile.p1,))
        left = np.min(np.abs(lo[:, None] - mins), axis=1) < _TOUCH
        right = np.min(np.abs(hi[:, None] - mins), axis=1) < _TOUCH
        sub = np.nonzero(left | right)[0]

        x = 0.5 * (lo + hi)[:, None] + 0.5 * h[:, None] * _GAUSS_X
        w = 0.5 * h[:, None] * _GAUSS_W
        self.regular = _points(profile, np.arange(len(h)), x, w, lo, hi, h)

        width = np.sqrt(h[sub])[:, None]
        t = 0.5 * width * (_SUB_X + 1.0)
        x = np.where(left[sub, None], lo[sub, None] + t * t, hi[sub, None] - t * t)
        w = 0.5 * width * _SUB_W * 2.0 * t
        self.substituted = _points(profile, sub, x, w, lo[sub], hi[sub], h[sub])

    def integrate(self, weighted) -> np.ndarray:
        """Per-element integrals, one row per integrand.

        ``weighted(q)`` yields, integrand by integrand, weight times
        integrand at the points of a QuadraturePoints ``q``.
        """
        out = np.array([np.sum(v, axis=-1) for v in weighted(self.regular)])
        sub = self.substituted
        if len(sub.elements):
            out[:, sub.elements] = [np.sum(v, axis=-1) for v in weighted(sub)]
        return out


def _points(profile, elements, x, w, lo, hi, h) -> QuadraturePoints:
    return QuadraturePoints(
        elements=elements,
        w=w,
        gamma=profile.primitive(x),
        n0=(hi[:, None] - x) / h[:, None],
        n1=(x - lo[:, None]) / h[:, None],
    )


def _poly_tables(dist: VorticityDistribution):
    """Per-interval polynomial coefficients of gamma on its knot grid, and
    the exact value of gamma at the right end of each interval."""
    if dist.kind == "constant":
        knots = np.array([-1.0, 0.0])
        g0 = np.array([dist.constant])
        g1 = np.zeros(1)
    elif dist.kind == "piecewise_constant":
        knots = np.array([-1.0, *dist.breakpoints, 0.0])
        g0 = np.asarray(dist.values, dtype=float)
        g1 = np.zeros(len(g0))
    else:
        knots = np.asarray(dist.nodes, dtype=float)
        vals = np.asarray(dist.values, dtype=float)
        g0 = vals[:-1]
        g1 = np.diff(vals) / np.diff(knots)
        return knots, g0, g1, vals[1:]
    return knots, g0, g1, g0


def _exact_minimum(profile: GammaProfile):
    """(Gamma_min, p1, all minimizers, break points) from exact candidates.

    Gamma is piecewise polynomial of degree <= 2 with Gamma' = scale * gamma,
    so the minimum sits at a break point: a knot or an interior zero of
    gamma.  p1 is the largest minimizer; the full minimizer tuple drives
    singularity handling in the element quadrature.
    """
    candidates = list(profile._knots)
    for j in range(len(profile._g0)):
        # Strict sign change: a zero at a knot adds no round-off neighbour.
        ends = (profile._g0[j], profile._g_end[j])
        if min(ends) < 0.0 < max(ends):
            z = profile._knots[j] - profile._g0[j] / profile._g1[j]
            if profile._knots[j] < z < profile._knots[j + 1]:
                candidates.append(z)
    cand = np.array(sorted(candidates))
    vals = np.atleast_1d(profile.primitive(cand))
    gmin = float(np.min(vals))
    tol = 1e-14 * max(1.0, abs(gmin))
    mins = cand[vals <= gmin + tol]
    p1 = float(np.max(mins))
    return gmin, p1, tuple(float(p) for p in mins), cand


# -- module-level operations (spec surface) ---------------------------------


def gamma_eval(dist: VorticityDistribution, p):
    """gamma(p) straight from a distribution (right limit at jumps)."""
    p = _check_domain(p)
    if dist.kind == "constant":
        out = np.full_like(np.asarray(p, dtype=float), dist.constant)
    elif dist.kind == "piecewise_constant":
        idx = np.searchsorted(np.asarray(dist.breakpoints), p, side="right")
        out = np.asarray(dist.values, dtype=float)[idx]
    else:
        out = np.interp(p, dist.nodes, dist.values)
    out = np.asarray(out)
    return float(out) if out.ndim == 0 else out


def holder_seminorm(profile: GammaProfile, alpha: float) -> float:
    """theta = sup_{p != p1} |Gamma(p) - Gamma(p1)| / |p - p1|^alpha.

    Exact candidates (knots, and for alpha = 1 the one-sided slopes at p1)
    are combined with a doubling grid sup refined until stable to 1e-8.
    """
    if not 0.0 < alpha <= 1.0:
        raise ValueError("alpha must be in (0, 1]")
    p1 = profile.p1
    gmin = profile.gamma_min

    def ratio(p):
        p = np.asarray(p, dtype=float)
        num = profile.primitive(p) - gmin
        den = np.abs(p - p1) ** alpha
        mask = np.abs(p - p1) > 1e-14
        out = np.zeros_like(np.atleast_1d(num), dtype=float)
        out[np.atleast_1d(mask)] = (
            np.atleast_1d(num)[np.atleast_1d(mask)]
            / np.atleast_1d(den)[np.atleast_1d(mask)]
        )
        return out

    theta = float(np.max(ratio(profile._knots)))
    piecewise_linear = bool(np.all(profile._g1 == 0.0))
    if alpha == 1.0:
        # Limit of the ratio as p -> p1 is the one-sided |Gamma'| there.
        scale = abs(profile._scale)
        knots = profile._knots
        j_right = np.searchsorted(knots, p1, side="right") - 1
        if 0 <= j_right < len(profile._g0):
            theta = max(
                theta,
                scale * abs(profile._g0[j_right] + profile._g1[j_right] * (p1 - knots[j_right])),
            )
        j_left = np.searchsorted(knots, p1, side="left") - 1
        if 0 <= j_left < len(profile._g0):
            theta = max(
                theta,
                scale * abs(profile._g0[j_left] + profile._g1[j_left] * (p1 - knots[j_left])),
            )
        if piecewise_linear:
            # The ratio is monotone between knots for piecewise-linear
            # Gamma, so the knot/limit candidates are already the exact sup.
            return theta

    m = 256
    while True:
        grid = np.linspace(-1.0, 0.0, m + 1)
        cand = float(np.max(ratio(grid)))
        new_theta = max(theta, cand)
        if abs(new_theta - theta) <= 1e-8 * max(1.0, new_theta) and m >= 4096:
            return new_theta
        theta = new_theta
        if m >= 1 << 20:
            return theta
        m *= 2
