import math

import numpy as np
import pytest
import scipy.integrate
import scipy.optimize

from rotwave import (
    VorticityDistribution,
    calibrate_mass_flux,
    hydraulic_head,
    lambda_of_min_head,
    scale_to_unit_wavenumber,
)
from rotwave.errors import (
    DegenerateConstraint,
    InvalidWavelength,
    NonAdmissibleLambda,
    NoSolution,
)
from rotwave.laminar import height_on_mesh

from conftest import make_profile


# -- height_on_mesh ------------------------------------------------------------


def test_height_constant_integrand():
    prof, _ = make_profile(0.0)
    # H(p) = (p + 1)(lambda^(-1/2) - 1)
    assert height_on_mesh(prof, 4.0, [0.0])[0] == pytest.approx(-0.5, abs=1e-12)


def test_height_identity_flow():
    prof, _ = make_profile(0.0)
    for p in (-1.0, -0.6, -0.2, 0.0):
        assert height_on_mesh(prof, 1.0, [p])[0] == pytest.approx(0.0, abs=1e-12)


def test_height_linear_gamma_closed_form():
    # Gamma = 2p: antiderivative of (lam + 2s)^(-1/2) is sqrt(lam + 2s)
    prof, _ = make_profile(-1.0)
    exact = (math.sqrt(3.0) - 1.0) - 1.0
    assert height_on_mesh(prof, 3.0, [0.0])[0] == pytest.approx(exact, abs=1e-11)


def test_height_bed_zero_various_profiles():
    rng = np.random.default_rng(2)
    for _ in range(5):
        vals = rng.uniform(-1.5, 1.5, 2)
        dist = VorticityDistribution.piecewise_constant([-0.5], vals)
        prof, _ = make_profile(dist, p0=-float(rng.uniform(0.6, 1.4)))
        lam = prof.min_lambda + float(rng.uniform(0.2, 2.0))
        assert height_on_mesh(prof, lam, [-1.0])[0] == pytest.approx(0.0, abs=1e-12)


def test_height_non_admissible():
    prof, _ = make_profile(-1.0)  # floor at lambda = 2
    with pytest.raises(NonAdmissibleLambda):
        height_on_mesh(prof, 1.9, [0.0])


def test_height_on_mesh_matches_pointwise():
    prof, _ = make_profile(-1.0)
    nodes = np.linspace(-1.0, 0.0, 401)
    H = height_on_mesh(prof, 3.0, nodes)
    assert H[0] == 0.0
    exact = np.sqrt(3.0 + 2.0 * nodes) - 1.0 - (nodes + 1.0)
    assert H == pytest.approx(exact, abs=1e-11)


# -- hydraulic_head --------------------------------------------------------------


def test_head_irrotational_values():
    prof, flow = make_profile(0.0)
    assert hydraulic_head(prof, flow, 1.0) == pytest.approx(3.0, abs=1e-11)
    assert hydraulic_head(prof, flow, 4.0) == pytest.approx(5.0, abs=1e-11)


def test_head_linear_gamma():
    prof, flow = make_profile(-1.0)
    exact = 2.0 * (math.sqrt(3.0) - 1.0) + 3.0
    assert hydraulic_head(prof, flow, 3.0) == pytest.approx(exact, abs=1e-11)


def test_head_positive_and_convex():
    prof, flow = make_profile(-0.8, d=1.1, p0=-0.9)
    lam_grid = prof.min_lambda + np.linspace(0.05, 3.0, 25)
    q = np.array([hydraulic_head(prof, flow, lam) for lam in lam_grid])
    assert np.all(q > 0.0)
    second = np.diff(q, 2)
    assert np.all(second >= -1e-8)


# -- lambda_of_min_head -----------------------------------------------------------


def test_lambda0_irrotational_unit():
    prof, flow = make_profile(0.0)
    assert lambda_of_min_head(prof, flow) == pytest.approx(1.0, abs=1e-9)


def test_lambda0_irrotational_tanh(pinned_profile, pinned_flow):
    exact = math.tanh(1.0) ** (-2.0 / 3.0)
    assert lambda_of_min_head(pinned_profile, pinned_flow) == pytest.approx(exact, abs=1e-5)


def test_lambda0_linear_gamma_closed_form():
    prof, flow = make_profile(-1.0)
    # integral (lam + 2s)^(-3/2) ds = 1/sqrt(lam - 2) - 1/sqrt(lam)
    f = lambda lam: 1.0 / math.sqrt(lam - 2.0) - 1.0 / math.sqrt(lam) - 1.0
    exact = scipy.optimize.brentq(f, 2.05, 4.0, xtol=1e-13)
    lam0 = lambda_of_min_head(prof, flow)
    assert lam0 == pytest.approx(exact, abs=1e-8)
    assert lam0 == pytest.approx(2.3673, abs=1e-3)


def test_head_flat_at_minimizer():
    prof, flow = make_profile(-1.0, d=1.2, g=0.9, p0=-1.1)
    lam0 = lambda_of_min_head(prof, flow)
    q0 = hydraulic_head(prof, flow, lam0)
    delta = 1e-4 * lam0
    slope = (
        hydraulic_head(prof, flow, lam0 + delta)
        - hydraulic_head(prof, flow, lam0 - delta)
    ) / (2.0 * delta)
    assert abs(slope) <= 1e-6 * q0


# -- calibrate_mass_flux -------------------------------------------------------------


def test_calibrate_degenerate_identity():
    with pytest.raises(DegenerateConstraint):
        calibrate_mass_flux(VorticityDistribution.const(0.0), 1.0, 1.0)


def test_calibrate_degenerate_no_solution():
    with pytest.raises(NoSolution):
        calibrate_mass_flux(VorticityDistribution.const(0.0), 1.0, 4.0)


def test_calibrate_constant_negative_gamma():
    # gamma = -1, d = 1, lambda = 3: Gamma(s; p0) = -2s/p0 and the unit-depth
    # constraint has the closed form (2/c)(sqrt(3) - sqrt(3 - c)) = 1, c = -2/p0.
    p0 = calibrate_mass_flux(VorticityDistribution.const(-1.0), 1.0, 3.0)
    assert p0 < 0.0
    c = -2.0 / p0
    residual = (2.0 / c) * (math.sqrt(3.0) - math.sqrt(3.0 - c)) - 1.0
    assert abs(residual) <= 1e-10


def test_calibrate_near_family_endpoint():
    # at lambda close to 4 the admissible root sits in a thin shell just
    # above the smallest admissible |p0|
    p0 = calibrate_mass_flux(VorticityDistribution.const(-1.0), 1.0, 3.9)
    c = -2.0 / p0
    residual = (2.0 / c) * (math.sqrt(3.9) - math.sqrt(3.9 - c)) - 1.0
    assert abs(residual) <= 1e-10


def test_calibrate_where_gamma_is_least_between_nodes():
    # Gamma is least between nodes, at the zero of gamma in (-0.3, 0), where
    # lambda + Gamma vanishes to second order at the admissibility edge:
    # phi is +inf there, and the Newton solve brackets the root below it.
    nodes = [-1.0, -0.6, -0.3, 0.0]
    values = [1.0, -0.5, 0.8, -1.0]
    lam = 1.5
    p0 = calibrate_mass_flux(VorticityDistribution.tabulated(nodes, values), 1.0, lam)
    assert p0 == pytest.approx(-0.127, abs=5e-4)

    def gamma_integral(p):
        xs = [x for x in nodes if x < p] + [p]
        return np.trapezoid(np.interp(xs, nodes, values), xs)

    def Gamma(p):
        return (2.0 / p0) * (gamma_integral(p) - gamma_integral(0.0))

    p_min = -0.3 + 0.3 * 0.8 / 1.8
    depth, _ = scipy.integrate.quad(
        lambda p: (lam + Gamma(p)) ** -0.5,
        -1.0,
        0.0,
        points=[-0.6, -0.3, p_min],
        limit=200,
        epsabs=1e-13,
        epsrel=1e-13,
    )
    assert depth == pytest.approx(1.0, abs=1e-8)


GAMMA_C = -1.787324  # gamma^2 d (d - tanh d) = g tanh d at d = g = 1


@pytest.mark.parametrize(
    "gamma, lam",
    [(g, lam) for g in (-1.0, 0.9 * GAMMA_C) for lam in (1.5, 3.0, 3.9, 3.999748, 3.9999999)]
    + [(g, lam) for g in (0.5, 2.0) for lam in (0.25, 0.5, 0.9)],
)
def test_calibrate_constant_gamma_matches_closed_form(gamma, lam):
    # With k = 2 d^2 gamma / p0 the constraint is (2/k)(sqrt(lambda) -
    # sqrt(lambda - k)) = 1, so p0 = d^2 gamma / (2 (sqrt(lambda) - 1)) on
    # 1 < lambda < 4 for gamma < 0, and on 0 < lambda < 1 for gamma > 0.
    # For gamma < 0, near 4 the root sits (sqrt(lambda) - 2)^2 / 2 below the
    # admissibility edge in t = -1/p0: 2e-9 at 3.999748, 3e-16 at 3.9999999.
    # For gamma > 0 there is no edge (Gamma_min = 0 at every p0), and the
    # bracket end in t grows by 4 until phi < 0 there.
    exact = gamma / (2.0 * (math.sqrt(lam) - 1.0))
    assert abs(calibrate_mass_flux(VorticityDistribution.const(gamma), 1.0, lam) / exact - 1.0) <= 1e-12


@pytest.mark.parametrize(
    "gamma, lam",
    [(g, lam) for g in (-1.0, 0.9 * GAMMA_C) for lam in (0.5, 4.0, 5.0)] + [(1.0, 1.0), (1.0, 1.5)],
)
def test_calibrate_constant_gamma_has_no_root_outside_its_window(gamma, lam):
    with pytest.raises(NoSolution):
        calibrate_mass_flux(VorticityDistribution.const(gamma), 1.0, lam)


@pytest.mark.parametrize(
    "gamma, lam",
    [
        ((0.0, -2.2250738585072014e-308), 1.5),  # t_max = lambda / (2 d^2 max U) overflows
        ((1.0, -1e-200), 1.5),  # max U is round-off of J(0) - J(p)
        ((-1.0, -1.0), 1e-300),  # lambda + Gamma_min underflows the powers
    ],
)
def test_calibrate_out_of_float_range_has_no_solution(gamma, lam):
    # NoSolution, and no numpy warning, which pytest turns into an error.
    with pytest.raises(NoSolution):
        calibrate_mass_flux(VorticityDistribution.piecewise_constant((-0.5,), gamma), 1.0, lam)


# -- scale_to_unit_wavenumber ----------------------------------------------------------


def test_scaling_identity():
    out = scale_to_unit_wavenumber(2.0 * math.pi, d=1.0, g=9.81,
                                   dist=VorticityDistribution.const(-1.0))
    assert out.kappa == pytest.approx(1.0)
    assert out.d == pytest.approx(1.0)
    assert out.g == pytest.approx(9.81)
    assert out.vorticity.constant == pytest.approx(-1.0)


def test_scaling_half_wavelength():
    out = scale_to_unit_wavenumber(math.pi, d=1.0, g=9.81)
    assert out.kappa == pytest.approx(2.0)
    assert out.d == pytest.approx(2.0)
    assert out.g == pytest.approx(4.905)


def test_scaling_invalid():
    with pytest.raises(InvalidWavelength):
        scale_to_unit_wavenumber(0.0, d=1.0, g=1.0)
    with pytest.raises(InvalidWavelength):
        scale_to_unit_wavenumber(math.inf, d=1.0, g=1.0)
    with pytest.raises(InvalidWavelength):
        scale_to_unit_wavenumber(True, d=1.0, g=1.0)


def test_scaling_takes_any_real_wavelength():
    dist = VorticityDistribution.piecewise_constant([-0.5], [1.0, -2.0])
    out = scale_to_unit_wavenumber(np.float32(2.0), d=1.0, g=9.81, dist=dist, p0=-1.0)
    assert (out.kappa, out.d, out.p0) == (math.pi, math.pi, -math.pi)
    assert out.vorticity == VorticityDistribution.piecewise_constant([-0.5], [1.0 / math.pi, -2.0 / math.pi])
