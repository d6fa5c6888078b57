"""Reference values for the benchmark's checks, computed apart from rotwave.

Nothing here imports rotwave.  The scaled primitive
Gamma(p) = (2 d^2 / p0) * integral_0^p gamma(s) ds is rebuilt from the raw
config, and every quantity the checks compare against comes from a closed
form, from scipy quadrature, or from a Pruefer-angle shooting written here.
"""

from __future__ import annotations

import math

import numpy as np
from scipy.integrate import quad, solve_ivp
from scipy.optimize import brentq


class Primitive:
    """Gamma(p) on [-1, 0] for one vorticity config and one (d, p0).

    gamma is stored per knot interval as gamma(p) = g0 + g1 * (p - knot), so
    Gamma is exact: piecewise linear for constant and piecewise-constant
    gamma, piecewise quadratic for tabulated gamma.
    """

    def __init__(self, vorticity: dict, d: float, p0: float):
        kind = vorticity["kind"]
        if kind == "constant":
            knots = [-1.0, 0.0]
            g0 = [float(vorticity["gamma"])]
            g1 = [0.0]
        elif kind == "piecewise_constant":
            knots = [-1.0, *map(float, vorticity["breakpoints"]), 0.0]
            g0 = [float(v) for v in vorticity["values"]]
            g1 = [0.0] * len(g0)
        elif kind == "tabulated":
            knots = [float(x) for x in vorticity["nodes"]]
            vals = [float(v) for v in vorticity["values"]]
            g0 = vals[:-1]
            g1 = [(b - a) / (x1 - x0) for a, b, x0, x1 in zip(vals, vals[1:], knots, knots[1:])]
        else:
            raise ValueError(f"unknown vorticity kind {kind!r}")
        self.knots = np.array(knots)
        self.g0 = np.array(g0)
        self.g1 = np.array(g1)
        self.scale = 2.0 * d * d / p0
        # G(p) = integral_0^p gamma, accumulated downward from G(0) = 0.
        width = np.diff(self.knots)
        piece = self.g0 * width + 0.5 * self.g1 * width * width
        self.g_knots = -np.concatenate([np.cumsum(piece[::-1])[::-1], [0.0]])

    @property
    def piecewise_linear(self) -> bool:
        return bool(np.all(self.g1 == 0.0))

    def __call__(self, p):
        p = np.asarray(p, dtype=float)
        j = np.clip(np.searchsorted(self.knots, p, side="right") - 1, 0, len(self.g0) - 1)
        t = p - self.knots[j]
        return self.scale * (self.g_knots[j] + self.g0[j] * t + 0.5 * self.g1[j] * t * t)

    def minimum(self) -> float:
        """min Gamma over [-1, 0]: at a knot or at an interior zero of gamma."""
        cand = list(self.knots)
        for j in range(len(self.g0)):
            if self.g1[j] != 0.0:
                z = self.knots[j] - self.g0[j] / self.g1[j]
                if self.knots[j] < z < self.knots[j + 1]:
                    cand.append(z)
        return float(np.min(self(np.array(cand))))

    def floor(self) -> float:
        """Admissibility floor: lambda must exceed -min Gamma."""
        return -self.minimum()


def power_integral_linear(prim: Primitive, lam: float, expo: float) -> float:
    """Closed-form integral_{-1}^0 (lambda + Gamma)^expo for expo -1/2 or -3/2.

    Needs piecewise-linear Gamma.  With u0, u1 the values of lambda + Gamma
    at the ends of an interval of width L, the exact integrals are
    2 L / (r0 + r1) and 2 L / ((r0 + r1) r0 r1) with r = sqrt(u), forms that
    need no division by the slope of Gamma.
    """
    if not prim.piecewise_linear:
        raise ValueError("closed form needs piecewise-linear Gamma")
    u = lam + prim(prim.knots)
    if np.any(u <= 0.0):
        raise ValueError("lambda below the admissibility floor")
    r = np.sqrt(u)
    width = np.diff(prim.knots)
    s = r[:-1] + r[1:]
    if expo == -0.5:
        return float(np.sum(2.0 * width / s))
    if expo == -1.5:
        return float(np.sum(2.0 * width / (s * r[:-1] * r[1:])))
    raise ValueError("expo must be -1/2 or -3/2")


def lambda0_linear(prim: Primitive, g: float, d: float, p0: float) -> float:
    """Head minimizer: integral (lambda0 + Gamma)^(-3/2) = p0^2 / (g d^3)."""
    target = p0 * p0 / (g * d**3)
    floor = prim.floor()
    f = lambda lam: power_integral_linear(prim, lam, -1.5) - target
    width = 1.0
    while f(floor + width) > 0.0:
        width *= 2.0
    lo = floor + width
    while f(lo) < 0.0:
        lo = floor + 0.5 * (lo - floor)
    return brentq(f, lo, floor + width, xtol=1e-15, rtol=4.0 * np.finfo(float).eps)


def head_linear(prim: Primitive, lam: float, g: float, d: float, p0: float) -> float:
    """Q(lambda) = 2 g d integral (lambda + Gamma)^(-1/2) + p0^2 lambda / d^2."""
    return 2.0 * g * d * power_integral_linear(prim, lam, -0.5) + p0 * p0 * lam / (d * d)


def irrotational_lambda_star(g: float, d: float, p0: float) -> float:
    """gamma = 0: the crossing solves lambda d = (g d^3 / p0^2) tanh(d / sqrt(lambda)).

    With Gamma = 0 the mode equation at mu = -1 is M'' = (d^2 / lambda) M, so
    M = sinh(d (p + 1) / sqrt(lambda)); the surface condition gives the
    relation above, whose left side increases and right side decreases.
    """
    c = g * d**3 / (p0 * p0)
    f = lambda lam: lam * d - c * math.tanh(d / math.sqrt(lam))
    hi = 1.0
    while f(hi) < 0.0:
        hi *= 2.0
    return brentq(f, 1e-300, hi, xtol=1e-15, rtol=4.0 * np.finfo(float).eps)


def irrotational_lambda0(g: float, d: float, p0: float) -> float:
    """gamma = 0: lambda0^(-3/2) = p0^2 / (g d^3)."""
    return (g * d**3 / (p0 * p0)) ** (2.0 / 3.0)


def unit_depth_integral(prim: Primitive, lam: float) -> float:
    """integral_{-1}^0 (lambda + Gamma)^(-1/2) by scipy quadrature per knot interval."""
    total = 0.0
    for a, b in zip(prim.knots[:-1], prim.knots[1:]):
        val, _err = quad(
            lambda s: (lam + float(prim(s))) ** -0.5, a, b, epsabs=1e-14, epsrel=1e-12, limit=200
        )
        total += val
    return total


def prufer_angle(prim: Primitive, lam: float, mu: float, d: float) -> float:
    """theta(0) of theta' = cos^2 theta / a^3 + mu d^2 a sin^2 theta, theta(-1) = 0.

    M = r sin theta and a^3 M' = r cos theta turn (a^3 M')' = -mu d^2 a M
    into this first-order equation.  Integration restarts at every knot,
    where gamma may jump.
    """
    d2 = d * d

    def rhs(p, th):
        a = math.sqrt(lam + float(prim(p)))
        s, c = math.sin(th[0]), math.cos(th[0])
        return [c * c / (a * a * a) + mu * d2 * a * s * s]

    theta = 0.0
    for a, b in zip(prim.knots[:-1], prim.knots[1:]):
        sol = solve_ivp(rhs, (a, b), [theta], method="RK45", rtol=1e-11, atol=1e-13)
        if not sol.success:
            raise ArithmeticError(f"angle integration failed on [{a}, {b}]")
        theta = float(sol.y[0, -1])
    return theta


def principal_mu_within(
    prim: Primitive, lam: float, mu: float, delta: float, g: float, d: float, p0: float
) -> bool:
    """True when the principal eigenvalue at lambda lies in (mu - delta, mu + delta).

    theta(0) grows strictly with mu, and the principal eigenvalue is where it
    equals atan(p0^2 / (g d^3)); the next eigenvalue is a further pi up.  So
    the claim holds exactly when the angle at mu - delta is below that
    target and the angle at mu + delta lies between it and target + pi.
    """
    target = math.atan2(p0 * p0, g * d**3)
    below = prufer_angle(prim, lam, mu - delta, d)
    above = prufer_angle(prim, lam, mu + delta, d)
    return below < target < above < target + math.pi
