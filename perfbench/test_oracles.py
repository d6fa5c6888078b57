"""Each oracle of the benchmark on a case that can be checked by hand."""

import math

import pytest

import oracles

C1 = {"kind": "constant", "gamma": -1.0}
P = {"kind": "piecewise_constant", "breakpoints": [-0.5], "values": [0.5, -2.0]}
RAMP = {"kind": "tabulated", "nodes": [-1.0, 0.0], "values": [0.0, 2.0]}


def test_primitive_constant():
    # d = 1, p0 = -2: Gamma(p) = (2 / -2) * (-1) * p = p.
    prim = oracles.Primitive(C1, 1.0, -2.0)
    assert prim(-1.0) == -1.0 and prim(-0.25) == -0.25 and prim(0.0) == 0.0
    assert prim.floor() == 1.0


def test_primitive_piecewise():
    # d = 1, p0 = -1: Gamma = -2 G with G(-0.5) = 1, G(-1) = 1 - 0.25.
    prim = oracles.Primitive(P, 1.0, -1.0)
    assert prim(-0.5) == pytest.approx(-2.0)
    assert prim(-1.0) == pytest.approx(-1.5)
    assert prim.floor() == pytest.approx(2.0)


def test_primitive_tabulated():
    # gamma = 2 (p + 1): G = (p + 1)^2 - 1 and Gamma = 1 - (p + 1)^2 for p0 = -2.
    prim = oracles.Primitive(RAMP, 1.0, -2.0)
    assert prim(-0.5) == pytest.approx(0.75)
    assert prim(-1.0) == pytest.approx(1.0)
    assert prim.floor() == 0.0


def test_power_integrals_of_linear_gamma():
    prim = oracles.Primitive(C1, 1.0, -2.0)  # lambda + Gamma = 2 + p
    assert oracles.power_integral_linear(prim, 2.0, -0.5) == pytest.approx(2.0 * (math.sqrt(2.0) - 1.0))
    assert oracles.power_integral_linear(prim, 2.0, -1.5) == pytest.approx(2.0 * (1.0 - 1.0 / math.sqrt(2.0)))


def test_lambda0_and_head_irrotational():
    # gamma = 0, g = 8, d = 1, p0 = -1: lambda0^(-3/2) = 1/8, so lambda0 = 4.
    prim = oracles.Primitive({"kind": "constant", "gamma": 0.0}, 1.0, -1.0)
    assert oracles.irrotational_lambda0(8.0, 1.0, -1.0) == pytest.approx(4.0)
    assert oracles.lambda0_linear(prim, 8.0, 1.0, -1.0) == pytest.approx(4.0, rel=1e-14)
    # Q = 2 g d / sqrt(lambda) + p0^2 lambda / d^2 = 8 + 4.
    assert oracles.head_linear(prim, 4.0, 8.0, 1.0, -1.0) == pytest.approx(12.0)


def test_irrotational_lambda_star_pinned():
    # p0^2 = tanh 1 with g = d = 1 puts the crossing at lambda = 1.
    p0 = -math.sqrt(math.tanh(1.0))
    assert oracles.irrotational_lambda_star(1.0, 1.0, p0) == pytest.approx(1.0, rel=1e-14)


def test_unit_depth_integral():
    prim = oracles.Primitive(C1, 1.0, -2.0)
    assert oracles.unit_depth_integral(prim, 2.0) == pytest.approx(2.0 * (math.sqrt(2.0) - 1.0), rel=1e-12)
    # lambda = 1 and Gamma = 1 - (p + 1)^2: integral_0^1 (2 - t^2)^(-1/2) dt = asin(1/sqrt 2).
    ramp = oracles.Primitive(RAMP, 1.0, -2.0)
    assert oracles.unit_depth_integral(ramp, 1.0) == pytest.approx(math.pi / 4.0, rel=1e-12)


def test_shooting_brackets_the_irrotational_eigenvalue():
    # gamma = 0 at lambda: mu = -kappa^2 lambda / d^2 with lambda^(3/2) kappa = c tanh kappa.
    g, d, p0, lam = 1.0, 1.0, -1.0, 0.5
    c = g * d**3 / p0**2
    kappa = 2.0
    for _ in range(100):
        kappa = c * math.tanh(kappa) / lam**1.5
    mu = -kappa * kappa * lam / d**2
    prim = oracles.Primitive({"kind": "constant", "gamma": 0.0}, d, p0)
    assert oracles.principal_mu_within(prim, lam, mu, 1e-7, g, d, p0)
    assert not oracles.principal_mu_within(prim, lam, mu + 1e-3, 1e-4, g, d, p0)
    assert not oracles.principal_mu_within(prim, lam, mu - 1e-3, 1e-4, g, d, p0)
