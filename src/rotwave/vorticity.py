"""Vorticity profiles gamma(p) on [-1, 0] and their scaled primitive.

The primitive Gamma(p) = (2 d^2 / p0) * U(p), U(p) = integral_0^p gamma(s) ds,
is kept in closed form: gamma is polynomial (degree 0 or 1) on each knot
interval, so U is piecewise linear or quadratic and every downstream
integral sees exact coefficient values.  Only the scale 2 d^2 / p0 depends
on the flow: everything about U, its break points and maximizers among them,
is built once per distribution, as its shape (_Shape), and each
GammaProfile is that shape at one scale.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import cached_property
from typing import Optional, Sequence

import numpy as np

from .errors import InvalidParameter, NonAdmissibleLambda, OutOfDomain

_DOMAIN_SLACK = 1e-12

# Element quadrature: 8-point Gauss on every element, and 12-point Gauss in
# t = sqrt(|p - p*|) on an element with an end within _TOUCH of a minimizer p*.
_GAUSS_X, _GAUSS_W = np.polynomial.legendre.leggauss(8)
_SUB_X, _SUB_W = np.polynomial.legendre.leggauss(12)
_REF_N0, _REF_N1 = 0.5 * (1.0 - _GAUSS_X), 0.5 * (1.0 + _GAUSS_X)  # P1 basis at _GAUSS_X
_TOUCH = 1e-14


def _require_finite(numbers, name: str):
    if not all(math.isfinite(x) for x in numbers):
        raise InvalidParameter(f"{name} must be finite", name)


@dataclass(frozen=True)
class FlowParameters:
    """Scaled physical constants of the flow.

    d: mean depth (> 0); g: gravity (> 0); p0: relative mass flux (< 0);
    all finite.  Units assume the 2*pi-periodic scaling (wavenumber 1).
    """

    d: float
    g: float
    p0: float

    def __post_init__(self):
        if not 0.0 < self.d < math.inf:
            raise InvalidParameter("d must be finite and > 0", "d")
        if not 0.0 < self.g < math.inf:
            raise InvalidParameter("g must be finite and > 0", "g")
        if not -math.inf < self.p0 < 0.0:
            raise InvalidParameter("p0 must be finite and < 0", "p0")


@dataclass(frozen=True)
class VorticityDistribution:
    """gamma(p) on [-1, 0]: constant, piecewise constant, or tabulated.

    Piecewise-constant values are right-continuous at the breakpoints,
    which lie at least 1e-9 apart: closer jumps leave a sliver element.
    Tabulated profiles interpolate linearly between strictly increasing
    nodes running from -1 to 0.  Every number must be finite.  A broken
    rule raises InvalidParameter naming the field.  ``_shape``, built on
    first use, holds what every flow of the distribution shares.
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
            _require_finite((self.constant,), "gamma")
        elif self.kind == "piecewise_constant":
            bps = self.breakpoints
            if len(self.values) != len(bps) + 1:
                raise InvalidParameter("need len(values) == len(breakpoints) + 1", "values")
            _require_finite(bps, "breakpoints")
            _require_finite(self.values, "values")
            if any(b2 - b1 < 1e-9 for b1, b2 in zip(bps, bps[1:])):
                raise InvalidParameter("breakpoints must increase by at least 1e-9", "breakpoints")
            if bps and not (-1.0 < bps[0] and bps[-1] < 0.0):
                raise InvalidParameter("breakpoints must lie inside (-1, 0)", "breakpoints")
        elif self.kind == "tabulated":
            nds = self.nodes
            if len(nds) < 2 or len(self.values) != len(nds):
                raise InvalidParameter("tabulated profile needs matching nodes/values", "nodes")
            _require_finite(nds, "nodes")
            _require_finite(self.values, "values")
            if any(n2 <= n1 for n1, n2 in zip(nds, nds[1:])):
                raise InvalidParameter("nodes must be strictly increasing", "nodes")
            if nds[0] != -1.0 or nds[-1] != 0.0:
                raise InvalidParameter("tabulated nodes must run from -1 to 0", "nodes")
        else:
            raise InvalidParameter(
                "kind must be one of constant, piecewise_constant, tabulated", "kind"
            )

    @cached_property
    def _shape(self) -> "_Shape":
        return _Shape(self)

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


class _Shape:
    """U = integral_0^p gamma, the primitive Gamma = (2 d^2 / p0) U without
    its scale: all that the flows of one distribution share.

    gamma(p) = g0[j] + g1[j] (p - knots[j]) on knot interval j, with the
    exact value g_end[j] at its right end.  U is ``uknots`` at the knots,
    summed from the surface, where it is 0, and on each interval it is
    anchored at the right knot, so that U keeps its relative accuracy where
    it is much smaller than integral_{-1}^0 |gamma|.  ``breaks`` are the
    knots and the interior zeros of gamma: between two consecutive ones U
    is one monotone polynomial piece, so its largest value ``u_max`` sits at
    a break point.  The scale is < 0 for every d and p0, so the maximizers
    of U (those within 1e-14 of u_max, relative) are the ``minimizers`` of
    Gamma, p1 the largest of them, and Gamma_min is the scale times u_max:
    rounding is monotone, so that is the least Gamma at a break point to
    the bit.  ``flat``: whether lambda + Gamma fails to rise linearly away
    from a minimizer on a side, at an interior zero of gamma or at a knot
    where gamma is not > 0 on its left or not < 0 on its right (Gamma' has
    the sign of -gamma); at the admissibility floor it then vanishes there
    to second order, or on an interval.  ``cache`` keeps, by key, what other
    layers build from the shape alone: spectral's mesh levels and laminar's
    piece geometry.
    """

    def __init__(self, dist: VorticityDistribution):
        self.knots, self.g0, self.g1, self.g_end = knots, g0, g1, g_end = _poly_tables(dist)
        h = np.diff(knots)
        rise = g_end * h - 0.5 * g1 * h * h  # integral of gamma over each interval
        self.uknots = np.concatenate([-np.cumsum(rise[::-1])[::-1], [0.0]])
        breaks = list(knots)
        for j in range(len(g0)):
            # Strict sign change: a zero at a knot adds no round-off neighbour.
            if min(g0[j], g_end[j]) < 0.0 < max(g0[j], g_end[j]):
                z = knots[j] - g0[j] / g1[j]
                if knots[j] < z < knots[j + 1]:
                    breaks.append(z)
        self.breaks = np.array(sorted(breaks))
        u = self.unscaled(self.breaks)
        self.u_max = float(np.max(u))
        mins = self.breaks[u >= self.u_max - 1e-14 * max(1.0, self.u_max)]
        self.minimizers = tuple(float(p) for p in mins)
        self.p1 = self.minimizers[-1]
        k = np.searchsorted(knots, mins)
        left = np.concatenate([[1.0], g_end])[k]  # none left of the bed
        right = np.concatenate([g0, [-1.0]])[k]  # none right of the surface
        self.flat = bool(np.any((knots[k] != mins) | (left <= 0.0) | (right >= 0.0)))
        self.cache = {}

    def unscaled(self, p):
        """U(p), as an array: U at the right knot of p's interval less
        integral_p^knot gamma, so U is ``uknots`` at every knot to the bit."""
        p = _check_domain(p)
        idx = np.clip(np.searchsorted(self.knots, p, side="left") - 1, 0, len(self.g0) - 1)
        e = self.knots[idx + 1] - p
        return self.uknots[idx + 1] - (self.g_end[idx] * e - 0.5 * self.g1[idx] * e * e)


@dataclass(frozen=True)
class GammaProfile:
    """Closed-form evaluator for Gamma and a = sqrt(Gamma + lambda): the
    shape of its distribution at the scale 2 d^2 / p0 of its flow.

    gamma_min is min Gamma over [-1, 0] and p1 the largest minimizer.
    """

    source: VorticityDistribution
    flow: FlowParameters
    gamma_min: float
    p1: float
    jump_points: tuple
    minimizers: tuple
    _shape: _Shape = field(repr=False)
    _scale: float = field(repr=False)

    @classmethod
    def from_distribution(
        cls,
        dist: VorticityDistribution,
        flow: FlowParameters,
    ) -> "GammaProfile":
        shape, scale = dist._shape, 2.0 * flow.d**2 / flow.p0
        return cls(
            source=dist,
            flow=flow,
            gamma_min=scale * shape.u_max,
            p1=shape.p1,
            jump_points=dist.jump_points(),
            minimizers=shape.minimizers,
            _shape=shape,
            _scale=scale,
        )

    # -- evaluation ---------------------------------------------------------

    def primitive(self, p):
        """Gamma(p) = (2 d^2 / p0) * integral_0^p gamma; Gamma(0) = 0 exactly."""
        out = self._scale * self._shape.unscaled(p)
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


class ElementRule:
    """The quadrature for every per-element integral on a mesh of [-1, 0].

    Integrands depend on lambda only through lambda + Gamma, whose square
    root a has a kink at every vorticity jump (a mesh node) and behaves like
    sqrt(|p - p*|) at a minimizer p* of Gamma as lambda nears the floor.
    Each element gets 8-point Gauss; an element that ends at a minimizer
    gets 12-point Gauss in t = sqrt(|p - p*|) instead.  Nothing stored
    depends on lambda, d or p0: ``unscaled`` holds integral_0^p gamma at the
    points, one row per Gauss point and one column per element, and Gamma
    there is the profile's scale 2 d^2 / p0 times it, formed in ``a``, so
    one rule serves every flow of its distribution.  The ``sub`` elements,
    next to a minimizer, keep their own points: ``sub_w`` the weights
    (Jacobian included), ``sub_mass`` the lambda-free mass weights
    w N0 N0, w N0 N1 and w N1 N1, and ``sub_unscaled``, all of shape
    (points, len(sub)).  ``integrals`` is the one kernel: every
    per-element integral, of the pencil and of transversality, is its
    contraction of integrand values at these points.

    A regular element is the reference element scaled by its width ``h``,
    so for f at its points the integral of f over element e is
    h[e] (``weights`` @ f)[e], with weights half the Gauss weights, and that
    of f N_i N_j is h[e] times row (i, j) = (0, 0), (0, 1), (1, 1) of
    ``mass_weights`` @ f, which holds the reference basis (1 - xi) / 2 and
    (1 + xi) / 2 at the Gauss nodes xi exactly.
    """

    weights = 0.5 * _GAUSS_W
    mass_weights = weights * np.stack([_REF_N0 * _REF_N0, _REF_N0 * _REF_N1, _REF_N1 * _REF_N1])

    def __init__(self, profile: GammaProfile, nodes):
        nodes = np.asarray(nodes, dtype=float)
        lo, hi = nodes[:-1], nodes[1:]
        self.h = h = hi - lo
        mins = np.asarray(profile.minimizers)
        left = np.min(np.abs(lo[:, None] - mins), axis=1) < _TOUCH
        right = np.min(np.abs(hi[:, None] - mins), axis=1) < _TOUCH
        self.sub = sub = np.nonzero(left | right)[0]
        self.unscaled = profile._shape.unscaled(0.5 * (lo + hi) + 0.5 * h * _GAUSS_X[:, None])

        lo, hi, h = lo[sub], hi[sub], h[sub]
        width = np.sqrt(h)
        t = 0.5 * width * (_SUB_X[:, None] + 1.0)
        x = np.where(left[sub], lo + t * t, hi - t * t)
        self.sub_w = w = width * _SUB_W[:, None] * t
        n0, n1 = (hi - x) / h, (x - lo) / h
        self.sub_mass = np.stack([w * n0 * n0, w * n0 * n1, w * n1 * n1])
        self.sub_unscaled = profile._shape.unscaled(x)

    def a(self, lam: float, scale: float):
        """a = sqrt(lambda + scale U) at the regular and at the substituted
        points, rounded as lambda + GammaProfile.primitive is."""
        a = scale * self.unscaled
        a += lam
        np.sqrt(a, out=a)
        return a, np.sqrt(lam + scale * self.sub_unscaled)

    def integrals(self, f, g, f_sub, g_sub) -> np.ndarray:
        """The rows (int f, int g N0 N0, int g N0 N1, int g N1 N1) on each
        element, from integrands f and g at the regular points and f_sub and
        g_sub at the substituted ones."""
        out = np.empty((4, len(self.h)))
        out[1:] = self.mass_weights @ g
        out[0] = self.weights @ f
        out *= self.h
        if len(self.sub):
            out[0, self.sub] = np.sum(self.sub_w * f_sub, axis=0)
            out[1:, self.sub] = np.sum(self.sub_mass * g_sub, axis=1)
        return out


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


def holder_seminorm(profile: GammaProfile, alpha: float) -> float:
    """theta = sup_{p != p1} (Gamma(p) - Gamma_min) / |p - p1|^alpha, exactly.

    On a knot interval [k, k + h], Gamma(k + t) - Gamma_min = n0 + n1 t +
    n2 t^2, and the ratio is stationary where (p - p1) Gamma'(p) =
    alpha (Gamma(p) - Gamma_min).  With e = k - p1 that is the quadratic

        (2 - alpha) n2 t^2 + ((1 - alpha) n1 + 2 n2 e) t + e n1 - alpha n0 = 0,

    so theta is the largest ratio at the knots and at the roots inside the
    intervals; for alpha = 1 the one-sided slopes |Gamma'| at p1, the
    ratio's limits there, are candidates too.
    """
    if not 0.0 < alpha <= 1.0:
        raise ValueError("alpha must be in (0, 1]")
    p1, shape = profile.p1, profile._shape
    knots, g0, g1 = shape.knots, shape.g0, shape.g1
    lo, h = knots[:-1], np.diff(knots)
    n0 = profile.primitive(lo) - profile.gamma_min
    n1, n2 = profile._scale * g0, 0.5 * profile._scale * g1
    A = (2.0 - alpha) * n2
    B = (1.0 - alpha) * n1 + 2.0 * n2 * (lo - p1)
    C = (lo - p1) * n1 - alpha * n0
    # Both roots in the cancellation-free form.  No real root gives NaN, and
    # a degenerate equation an infinite or NaN root; none lies in (0, h).
    with np.errstate(divide="ignore", invalid="ignore"):
        q = -0.5 * (B + np.copysign(np.sqrt(B * B - 4.0 * A * C), B))
        t = np.stack([q / A, C / q])
    p = np.concatenate([knots, (lo + t)[(t > 0.0) & (t < h)]])
    x = np.abs(p - p1)
    keep = x > 1e-14
    ratios = [(profile.primitive(p[keep]) - profile.gamma_min) / x[keep] ** alpha]
    if alpha == 1.0:
        j = np.clip([np.searchsorted(knots, p1, side) - 1 for side in ("left", "right")], 0, len(g0) - 1)
        ratios.append(np.abs(profile._scale * (g0[j] + g1[j] * (p1 - knots[j]))))
    return float(np.max(np.concatenate(ratios), initial=0.0))
