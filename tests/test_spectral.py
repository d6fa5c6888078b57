import math

import numpy as np
import pytest
import scipy.linalg

from rotwave import (
    FlowParameters,
    VorticityDistribution,
    lambda_of_min_head,
    mode_k_solution,
    mu_curve,
    principal_eigen,
    rayleigh_quotient,
    shooting_mu,
)
from rotwave import spectral
from rotwave.errors import EigenFailure, NoModeSolution, NonAdmissibleLambda, ZeroDenominator
from rotwave.numerics import RootSpec, bracketed_root, smallest_eigenpair_tridiagonal
from rotwave.spectral import _solve_level, assemble, build_mesh, flux_jump_defect, refine_mesh
from rotwave.vorticity import ElementRule

from conftest import make_profile


def _pinned():
    p0 = -math.sqrt(math.tanh(1.0))
    flow = FlowParameters(d=1.0, g=1.0, p0=p0)
    return make_profile(VorticityDistribution.const(0.0), p0=p0)[0], flow


# -- rayleigh_quotient -----------------------------------------------------------


def test_quotient_cancelling_numerator():
    prof, flow = make_profile(0.0)  # p0^2 = 1
    val = rayleigh_quotient(prof, flow, 1.0, lambda p: p + 1.0, lambda p: 1.0)
    assert val == pytest.approx(0.0, abs=1e-10)


def test_quotient_affine_test_function():
    prof, flow = _pinned()
    # closed form: (p0^2 - g) / (p0^2 d^2 / 3) with int phi_p^2 = 1, int phi^2 = 1/3
    p0sq = flow.p0**2
    exact = 3.0 * (p0sq - 1.0) / p0sq
    val = rayleigh_quotient(prof, flow, 1.0, lambda p: p + 1.0, lambda p: 1.0)
    assert val == pytest.approx(exact, abs=1e-10)


def test_quotient_exact_minimizer():
    prof, flow = _pinned()
    val = rayleigh_quotient(
        prof,
        flow,
        1.0,
        lambda p: math.sinh(p + 1.0) / math.sinh(1.0),
        lambda p: math.cosh(p + 1.0) / math.sinh(1.0),
    )
    assert val == pytest.approx(-1.0, abs=1e-8)


def test_quotient_zero_denominator():
    prof, flow = _pinned()
    with pytest.raises(ZeroDenominator):
        rayleigh_quotient(prof, flow, 1.0, lambda p: 0.0, lambda p: 0.0)


# -- principal_eigen --------------------------------------------------------------


def test_principal_pinned_case():
    prof, flow = _pinned()
    sol = principal_eigen(prof, flow, 1.0)
    assert sol.mu_refined == pytest.approx(-1.0, abs=1e-6)
    m_mid = np.interp(-0.5, sol.nodes, sol.M)
    assert m_mid == pytest.approx(math.sinh(0.5) / math.sinh(1.0), abs=1e-5)
    assert sol.M[0] == 0.0
    assert sol.M[-1] == pytest.approx(1.0)


def test_principal_vanishes_at_head_minimizer():
    prof, flow = _pinned()
    lam0 = lambda_of_min_head(prof, flow)
    sol = principal_eigen(prof, flow, lam0)
    assert sol.mu_refined == pytest.approx(0.0, abs=1e-6)
    # independent confirmation through the shooting oracle
    assert shooting_mu(prof, flow, lam0) == pytest.approx(0.0, abs=1e-6)


def test_principal_affine_eigenfunction_at_unit_flux():
    prof, flow = make_profile(0.0)  # p0^2 = 1 so lambda0 = 1 and mu(1) = 0
    sol = principal_eigen(prof, flow, 1.0)
    assert sol.mu_refined == pytest.approx(0.0, abs=1e-6)
    ratio = sol.M[1:] / (sol.nodes[1:] + 1.0)
    assert np.ptp(ratio) <= 1e-8


def test_principal_quotient_identity():
    prof, flow = _pinned()
    sol = principal_eigen(prof, flow, 0.7)
    quotient = rayleigh_quotient(prof, flow, 0.7, sol)
    assert quotient == pytest.approx(sol.mu, rel=1e-8)


def test_principal_no_interior_sign_change():
    dist = VorticityDistribution.piecewise_constant([-0.6, -0.25], [0.8, -1.1, 0.3])
    prof, flow = make_profile(dist, p0=-0.9)
    sol = principal_eigen(prof, flow, prof.min_lambda + 0.6)
    assert np.all(sol.M[1:] > 0.0)


def test_principal_non_admissible():
    prof, flow = make_profile(-1.0)
    with pytest.raises(NonAdmissibleLambda):
        principal_eigen(prof, flow, 1.0)


# -- shooting oracle ---------------------------------------------------------------


def test_shooting_pinned():
    prof, flow = _pinned()
    assert shooting_mu(prof, flow, 1.0) == pytest.approx(-1.0, abs=1e-8)


def test_shooting_transcendental_identity():
    # constant-coefficient reduction at lambda = 4 (mu > 0 regime):
    # M = sin(rho (p+1)) with rho = sqrt(mu/lambda) d and
    # lambda^(3/2) rho cos(rho) = (g d^3/p0^2) sin(rho)
    prof, flow = _pinned()
    lam = 4.0
    mu = shooting_mu(prof, flow, lam)
    rho = math.sqrt(mu / lam)
    lhs = lam**1.5 * rho * math.cos(rho)
    rhs = (flow.g / flow.p0**2) * math.sin(rho)
    assert lhs == pytest.approx(rhs, abs=1e-8)


def test_shooting_matches_fem_piecewise():
    dist = VorticityDistribution.piecewise_constant([-0.4], [-1.0, 0.5])
    prof, flow = make_profile(dist)
    lam = prof.min_lambda + 0.8
    fem = principal_eigen(prof, flow, lam).mu_refined
    assert shooting_mu(prof, flow, lam) == pytest.approx(fem, abs=1e-6)


def test_shooting_index_one():
    # the index-1 eigenvalue matches the second root of the constant-
    # coefficient dispersion relation, and exceeds the principal one
    prof, flow = _pinned()
    mu0 = shooting_mu(prof, flow, 1.0, k=0)
    mu1 = shooting_mu(prof, flow, 1.0, k=1)
    assert mu1 > mu0
    rho = math.sqrt(mu1)
    lhs = rho * math.cos(rho)
    rhs = (flow.g / flow.p0**2) * math.sin(rho)
    assert lhs == pytest.approx(rhs, abs=1e-6)


def test_shooting_tries_the_step_past_the_cap(monkeypatch):
    # C0 at lambda = 1e-4 has mu = -6.01e8 in closed form; a fake angle with
    # its root at -6e8 stands in for the slow integration there.
    prof, flow = make_profile(0.0, d=1.0, g=9.81, p0=-2.0)
    target = math.atan2(1.0, flow.g * flow.d**3 / flow.p0**2)
    monkeypatch.setattr(
        spectral, "_prufer_angle", lambda profile, flow, lam, mu: target + (mu + 6e8) * 1e-9
    )
    assert shooting_mu(prof, flow, 1e-4) == pytest.approx(-6e8, rel=1e-12)


@pytest.mark.parametrize(
    "dist, g, p0",
    [
        (VorticityDistribution.const(-1.0), 9.81, -2.0),
        (VorticityDistribution.piecewise_constant([-0.5], [0.5, -2.0]), 1.0, -1.0),
        (VorticityDistribution.tabulated([-1.0, -0.5, 0.0], [-1.2, -0.3, -1.5]), 9.81, -2.0),
    ],
    ids=["C1", "P", "T"],
)
def test_shooting_gamma_is_the_primitive_bit_for_bit(dist, g, p0):
    prof, _flow = make_profile(dist, g=g, p0=p0)
    knots = np.asarray(prof._knots, dtype=float)
    ulp_off = np.concatenate([np.nextafter(knots, -2.0), np.nextafter(knots, 1.0)])
    p = np.concatenate(
        [[-1.0, 0.0], knots, ulp_off, np.random.default_rng(0).uniform(-1.0, 0.0, 20003)]
    )
    p = p[(p >= -1.0) & (p <= 0.0)]
    gamma_of = spectral._scalar_gamma_primitive(prof)
    assert [gamma_of(x) for x in p.tolist()] == prof.primitive(p).tolist()


# -- mode_k_solution ----------------------------------------------------------------


def test_mode_one_exists_pinned():
    prof, flow = _pinned()
    sol = mode_k_solution(prof, flow, 1.0, 1)
    assert sol.k == 1
    m_mid = np.interp(-0.5, sol.nodes, sol.M)
    assert m_mid == pytest.approx(math.sinh(0.5) / math.sinh(1.0), abs=1e-5)


def test_mode_two_missing_at_unit_lambda():
    prof, flow = _pinned()
    with pytest.raises(NoModeSolution):
        mode_k_solution(prof, flow, 1.0, 2)


def test_mode_zero_trivial():
    prof, flow = _pinned()
    with pytest.raises(NoModeSolution):
        mode_k_solution(prof, flow, 1.0, 0)


def test_mode_two_at_matched_lambda():
    prof, flow = _pinned()
    f = lambda lam: principal_eigen(prof, flow, lam, mesh_points=1001).mu_refined + 4.0
    lam2 = bracketed_root(f, 0.1, 1.0, RootSpec(x_tol=1e-9, f_tol=1e-8))
    sol = mode_k_solution(prof, flow, lam2, 2, mesh_points=4001)
    assert sol.k == 2
    assert rayleigh_quotient(prof, flow, lam2, sol) == pytest.approx(-4.0, abs=1e-6)


# -- mu_curve ------------------------------------------------------------------------


def test_mu_curve_monotone_where_negative():
    prof, flow = _pinned()
    curve = mu_curve(prof, flow, [0.25, 0.5, 1.0])
    mus = [mu for _, mu in curve.points]
    assert mus[0] < mus[1] < mus[2]
    assert mus[2] == pytest.approx(-1.0, abs=1e-6)
    assert curve.monotonicity_violations == ()


def test_mu_curve_includes_head_minimizer():
    prof, flow = _pinned()
    lam0 = lambda_of_min_head(prof, flow)
    curve = mu_curve(prof, flow, [lam0])
    assert curve.points[0][1] == pytest.approx(0.0, abs=1e-6)


def test_mu_curve_empty():
    prof, flow = _pinned()
    assert mu_curve(prof, flow, []).points == ()


# -- flux continuity -----------------------------------------------------------------


def test_flux_continuity_at_jumps():
    dist = VorticityDistribution.piecewise_constant([-0.55, -0.2], [1.0, -1.5, 0.4])
    prof, flow = make_profile(dist, p0=-0.8)
    lam = prof.min_lambda + 0.7
    sol = principal_eigen(prof, flow, lam)
    defect, width = flux_jump_defect(sol, prof)
    assert defect <= 10.0 * width
    # stored nodal flux stays close to the element fluxes
    assert sol.flux.shape == sol.nodes.shape


# -- mesh and level solve ------------------------------------------------------------


@pytest.mark.parametrize(
    "gamma, lam, most",
    [(-1.0, 1.01, 6), (0.0, 0.01, 20)],  # 90 and 43 before the residual stop
)
def test_principal_eigen_banded_solves(monkeypatch, gamma, lam, most):
    # The iteration stops at the first iterate whose residual is at round-off.
    prof, flow = make_profile(gamma, d=1.0, g=9.81, p0=-2.0)
    solves = []
    solve = scipy.linalg.solve_banded

    def counted(*args, **kwargs):
        solves.append(args)
        return solve(*args, **kwargs)

    monkeypatch.setattr(scipy.linalg, "solve_banded", counted)
    principal_eigen(prof, flow, lam, mesh_points=2001)
    assert len(solves) <= most


def test_mesh_segments_end_on_jumps():
    # -1 + (-0.4701 - -1) is one ulp away from -0.4701: the segment used to
    # end there and leave a sliver element next to the jump.
    dist = VorticityDistribution.piecewise_constant([-0.4701], [0.5837, -1.6481])
    prof, _ = make_profile(dist, p0=-1.0)
    for margin in (1.0, 1e-6):  # uniform and graded segments
        nodes = refine_mesh(build_mesh(prof, prof.min_lambda + margin, 201))
        assert -0.4701 in nodes
        assert np.min(np.diff(nodes)) > 1e-6


@pytest.mark.parametrize("mesh_points", [1001, 2001])
def test_level_solve_matches_dense_near_floor(mesh_points):
    # Irrotational C0 at lambda = 0.01: seeded from the coarse level, the
    # iteration settles on a larger eigenvalue, and the level solve has to
    # restart from a bisection of its own pencil.
    prof, flow = make_profile(0.0, d=1.0, g=9.81, p0=-2.0)
    lam = 0.01
    coarse = build_mesh(prof, lam, 201)
    mu_c, m_c = _solve_level(flow, lam, coarse, ElementRule(prof, coarse))
    nodes = build_mesh(prof, lam, mesh_points)
    seed = (mu_c, np.interp(nodes[1:], coarse, m_c))
    dA, eA, dB, eB = (band[1:] for band in assemble(prof, flow, lam, nodes))
    with pytest.raises(EigenFailure):
        smallest_eigenpair_tridiagonal(dA, eA, dB, eB, *seed)

    mu, M = _solve_level(flow, lam, nodes, ElementRule(prof, nodes), seed)
    A = np.diag(dA) + np.diag(eA, 1) + np.diag(eA, -1)
    B = np.diag(dB) + np.diag(eB, 1) + np.diag(eB, -1)
    ref = scipy.linalg.eigh(A, B, eigvals_only=True, subset_by_index=[0, 0])[0]
    assert mu == pytest.approx(ref, rel=1e-9)
    assert M[0] == 0.0 and M[-1] == 1.0
