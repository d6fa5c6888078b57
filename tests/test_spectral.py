import math
from unittest import mock

import numpy as np
import pytest
import scipy.linalg
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from rotwave import (
    Branch,
    FlowParameters,
    VorticityDistribution,
    find_lambda_star,
    lambda_of_min_head,
    principal_eigen,
    rayleigh_quotient,
    shooting_mu,
)
from rotwave import bifurcation, numerics, spectral
from rotwave.errors import NonAdmissibleLambda, ZeroDenominator
from rotwave.numerics import bracketed_root
from rotwave.spectral import (
    ModeSolution,
    _element_integrals,
    _restrict,
    _solve_level,
    assemble,
    build_mesh,
    refine_mesh,
)
from rotwave.vorticity import ElementRule

from conftest import certified_levels, make_branch, make_profile, pencil_bands, spaced_breakpoints


def _pinned():
    p0 = -math.sqrt(math.tanh(1.0))
    flow = FlowParameters(d=1.0, g=1.0, p0=p0)
    return make_profile(VorticityDistribution.const(0.0), p0=p0)[0], flow


def _pinned_branch(mesh_points):
    prof, flow = _pinned()
    return Branch(prof.source, flow.d, flow.g, mesh_points, flow.p0)


# -- rayleigh_quotient -----------------------------------------------------------


def _quotient(prof, flow, lam, phi):
    """Quotient of the P1 interpolant of phi on the 2001-point mesh."""
    nodes = build_mesh(prof, lam, 2001)
    return rayleigh_quotient(prof, flow, lam, nodes, phi(nodes))


def test_quotient_cancelling_numerator():
    prof, flow = make_profile(0.0)  # p0^2 = 1
    val = _quotient(prof, flow, 1.0, lambda p: p + 1.0)
    assert val == pytest.approx(0.0, abs=1e-10)


def test_quotient_affine_test_function():
    prof, flow = _pinned()
    # closed form: (p0^2 - g) / (p0^2 d^2 / 3) with int phi_p^2 = 1, int phi^2 = 1/3
    p0sq = flow.p0**2
    exact = 3.0 * (p0sq - 1.0) / p0sq
    val = _quotient(prof, flow, 1.0, lambda p: p + 1.0)
    assert val == pytest.approx(exact, abs=1e-10)


def test_quotient_exact_minimizer():
    prof, flow = _pinned()
    val = _quotient(prof, flow, 1.0, lambda p: np.sinh(p + 1.0) / math.sinh(1.0))
    # The P1 interpolant is O(h^2) off the minimizer: 2.1e-8 here.
    assert val == pytest.approx(-1.0, abs=1e-7)


def test_quotient_zero_denominator():
    prof, flow = _pinned()
    with pytest.raises(ZeroDenominator):
        _quotient(prof, flow, 1.0, np.zeros_like)


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
    quotient = rayleigh_quotient(prof, flow, 0.7, sol.nodes, sol.M)
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
    knots = prof._shape.knots
    ulp_off = np.concatenate([np.nextafter(knots, -2.0), np.nextafter(knots, 1.0)])
    p = np.concatenate(
        [[-1.0, 0.0], knots, ulp_off, np.random.default_rng(0).uniform(-1.0, 0.0, 20003)]
    )
    p = p[(p >= -1.0) & (p <= 0.0)]
    gamma_of = spectral._scalar_gamma_primitive(prof)
    assert [gamma_of(x) for x in p.tolist()] == prof.primitive(p).tolist()


# -- the wavenumber-two mode ---------------------------------------------------------


def test_mode_two_at_matched_lambda():
    prof, flow = _pinned()
    f = lambda lam: principal_eigen(prof, flow, lam, mesh_points=1001).mu_refined + 4.0
    lam2 = bracketed_root(f, 0.1, 1.0, x_tol=1e-9, f_tol=1e-8)
    sol = principal_eigen(prof, flow, lam2, mesh_points=4001)
    assert sol.mu_refined == pytest.approx(-4.0, abs=1e-6)
    assert rayleigh_quotient(prof, flow, lam2, sol.nodes, sol.M) == pytest.approx(-4.0, abs=1e-6)


# -- the Branch memo -----------------------------------------------------------------


def test_mu_curve_monotone_where_negative():
    branch = _pinned_branch(2001)
    mus = [branch(lam)[1].mu_refined for lam in (0.25, 0.5, 1.0)]
    assert mus[0] < mus[1] < mus[2]
    assert mus[2] == pytest.approx(-1.0, abs=1e-6)


def test_mu_curve_includes_head_minimizer():
    branch = _pinned_branch(2001)
    lam0 = lambda_of_min_head(branch.profile, branch.flow)
    assert branch(lam0)[1].mu_refined == pytest.approx(0.0, abs=1e-6)


def test_solves_each_lambda_once_seeded_from_the_nearest(monkeypatch):
    calls = []
    solve = bifurcation.principal_eigen

    def recorded(profile, flow, lam, **kwargs):
        calls.append((lam, [mode.lam for mode in kwargs["near"]]))
        return solve(profile, flow, lam, **kwargs)

    monkeypatch.setattr(bifurcation, "principal_eigen", recorded)
    branch = _pinned_branch(201)
    first = branch(1.0)
    for lam in (0.5, 0.9, 1.0, 0.5, 0.6):
        branch(lam)
    # The two nearest solved lambdas, nearest first.
    assert calls == [(1.0, []), (0.5, [1.0]), (0.9, [1.0, 0.5]), (0.6, [0.5, 0.9])]
    assert list(branch.solved) == [1.0, 0.5, 0.9, 0.6]
    assert branch(1.0) is first


# -- flux continuity -----------------------------------------------------------------


def test_flux_continuity_at_jumps():
    dist = VorticityDistribution.piecewise_constant([-0.55, -0.2], [1.0, -1.5, 0.4])
    prof, flow = make_profile(dist, p0=-0.8)
    lam = prof.min_lambda + 0.7
    sol = principal_eigen(prof, flow, lam)
    # a^3 M_p on each element, a at the element midpoint: the one-sided
    # fluxes at a jump differ by O(h), since the true flux is continuous.
    nodes, h = sol.nodes, np.diff(sol.nodes)
    a_mid = np.sqrt(lam + prof.primitive(0.5 * (nodes[:-1] + nodes[1:])))
    flux = a_mid**3 * np.diff(sol.M) / h
    defect = width = 0.0
    for jump in prof.jump_points:
        i = int(np.argmin(np.abs(nodes - jump)))
        defect = max(defect, abs(flux[i] - flux[i - 1]))
        width = max(width, h[i - 1], h[i])
    assert width > 0.0
    assert defect <= 10.0 * width


# -- mesh and level solve ------------------------------------------------------------


@pytest.mark.parametrize(
    "gamma, lam, most",
    # 7 and 11; with a coarse level and inertia counts, 4 and 15 solves.
    [(-1.0, 1.01, 10), (0.0, 0.01, 20)],
)
def test_principal_eigen_banded_solves(monkeypatch, gamma, lam, most):
    # The secular iteration stops where the step it predicts is at
    # round-off (6 solves on C1), and the refined level's iteration at the
    # first iterate whose residual is.
    prof, flow = make_profile(gamma, d=1.0, g=9.81, p0=-2.0)
    solves = []
    solve = numerics._solve_tridiagonal

    def counted(*args, **kwargs):
        solves.append(args)
        return solve(*args, **kwargs)

    for module in (numerics, spectral):
        monkeypatch.setattr(module, "_solve_tridiagonal", counted)
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
    # Irrotational C0 at lambda = 0.01: seeded from the solution on a
    # 201-point mesh, the iteration settles on a larger eigenvalue, and the
    # level solve falls back to the secular equation of its own pencil.
    prof, flow = make_profile(0.0, d=1.0, g=9.81, p0=-2.0)
    lam = 0.01
    coarse = build_mesh(prof, lam, 201)
    mu_c, m_c = _solve_level(flow, coarse, _element_integrals(ElementRule(prof, coarse), lam, prof._scale))
    nodes = build_mesh(prof, lam, mesh_points)
    seed = (mu_c, np.interp(nodes[1:], coarse, m_c))
    dA, eA, dB, eB = (band[1:] for band in assemble(prof, flow, lam, nodes))
    with certified_levels() as levels:
        mu, M = spectral._solve_level(flow, nodes, _element_integrals(ElementRule(prof, nodes), lam, prof._scale), seed)
    assert levels[0]["secular"]
    A = np.diag(dA) + np.diag(eA, 1) + np.diag(eA, -1)
    B = np.diag(dB) + np.diag(eB, 1) + np.diag(eB, -1)
    ref = scipy.linalg.eigh(A, B, eigvals_only=True, subset_by_index=[0, 0])[0]
    assert mu == pytest.approx(ref, rel=1e-9)
    assert M[0] == 0.0 and M[-1] == 1.0


# -- element integrals ----------------------------------------------------------------

# (distribution, p0, lambda above the floor): C1, P and T, and C1 at 1e-6
# above the floor, where build_mesh grades toward the minimizer at the bed.
_INTEGRAL_CASES = {
    "C1": (VorticityDistribution.const(-1.0), -2.0, 1.0),
    "P": (VorticityDistribution.piecewise_constant([-0.5], [0.5, -2.0]), -1.0, 0.5),
    "T": (VorticityDistribution.tabulated([-1.0, -0.5, 0.0], [-1.2, -0.3, -1.5]), -2.0, 0.3),
    "C1_graded": (VorticityDistribution.const(-1.0), -2.0, 1e-6),
}


def _integral_case(name, mesh_points=401):
    dist, p0, margin = _INTEGRAL_CASES[name]
    prof, _flow = make_profile(dist, g=9.81, p0=p0)
    lam = prof.min_lambda + margin
    nodes = build_mesh(prof, lam, mesh_points)
    assert spectral._graded(prof, lam) == name.endswith("graded")
    return prof, lam, nodes


_GAUSS_X, _GAUSS_W = np.polynomial.legendre.leggauss(8)


def _point_sums(prof, lam, nodes):
    """Weight times integrand summed point by point on each element, at the
    points of _half: the rows a^3 and a N_i N_j, and the indices of the
    substituted elements.

    On regular elements N_0 = (1 - xi) / 2 at the Gauss nodes xi; (hi - x) / h
    at the rounded points would be off by ulp(x) / h, 1e-11 relative on the
    graded elements next to the floor.  Substituted elements take
    (hi - x) / h, as their mass weights do.
    """
    rows, substituted = [], []
    for lo, hi in zip(nodes[:-1], nodes[1:]):
        x, w, _ = _half(prof, lo, hi)
        substituted.append(len(x) != len(_GAUSS_X))
        n0 = (hi - x) / (hi - lo) if substituted[-1] else 0.5 * (1.0 - _GAUSS_X)
        a, n1 = prof.a(lam, x), 1.0 - n0
        rows.append([np.sum(w * f) for f in (a**3, n0 * n0 * a, n0 * n1 * a, n1 * n1 * a)])
    return np.array(rows).T, np.nonzero(substituted)[0]


@pytest.mark.parametrize("name", list(_INTEGRAL_CASES))
def test_contracted_element_integrals_are_the_point_sums(name):
    # Regular elements contract the reference element's weights and scale
    # by h; substituted ones (an end at a minimizer) sum point by point.
    prof, lam, nodes = _integral_case(name)
    rule = ElementRule(prof, nodes)
    ref, sub = _point_sums(prof, lam, nodes)
    assert len(sub) > 0 and np.array_equal(rule.sub, sub)
    ints = _element_integrals(rule, lam, prof._scale)
    assert np.all(ref > 0.0)
    assert np.all(np.abs(ints - ref) <= 1e-12 * ref)


def _half(prof, lo, hi):
    """Points and weights on [lo, hi], placed as ElementRule places them
    (8-point Gauss, or 12-point Gauss in t = sqrt(|p - p*|) next to a
    minimizer p*), and their coordinate s = (p - lo) / (hi - lo), taken
    without cancellation."""
    h = hi - lo
    left, right = (min(abs(end - m) for m in prof.minimizers) < 1e-14 for end in (lo, hi))
    if left or right:
        t_x, t_w = np.polynomial.legendre.leggauss(12)
        t = 0.5 * math.sqrt(h) * (t_x + 1.0)
        w = 0.5 * math.sqrt(h) * t_w * 2.0 * t
        return (lo + t * t, w, t * t / h) if left else (hi - t * t, w, 1.0 - t * t / h)
    return 0.5 * (lo + hi) + 0.5 * h * _GAUSS_X, 0.5 * h * _GAUSS_W, 0.5 * (1.0 + _GAUSS_X)


def _composite(prof, lam, lo, mid, hi):
    """Integrals of a^3 and a Phi_i Phi_j over [lo, hi] by a composite
    rule on its halves, for its hats Phi_0 and Phi_1 = 1 - Phi_0, linear on
    [lo, hi] and so 1/2 at mid."""
    (xl, wl, sl), (xr, wr, sr) = _half(prof, lo, mid), _half(prof, mid, hi)
    x, w, phi1 = np.concatenate([xl, xr]), np.concatenate([wl, wr]), np.concatenate([0.5 * sl, 0.5 + 0.5 * sr])
    a, phi0 = prof.a(lam, x), 1.0 - phi1
    return [np.sum(w * f) for f in (a**3, phi0 * phi0 * a, phi0 * phi1 * a, phi1 * phi1 * a)]


@pytest.mark.parametrize("name", list(_INTEGRAL_CASES))
def test_restricted_integrals_are_the_composite_rule_on_the_working_mesh(name):
    # Working element e is refined elements 2e and 2e + 1, and its hats are
    # 1/2 at their shared node: its integrals are sums of theirs.
    prof, lam, nodes = _integral_case(name, 201)
    finer = refine_mesh(nodes)
    restricted = _restrict(_element_integrals(ElementRule(prof, finer), lam, prof._scale))
    ref = np.array([_composite(prof, lam, *finer[2 * e : 2 * e + 3]) for e in range(len(nodes) - 1)]).T
    assert restricted.shape == ref.shape
    assert np.all(ref > 0.0)
    assert np.all(np.abs(restricted - ref) <= 1e-12 * ref)


# -- neighbour seeds and level residuals -----------------------------------------------

_PROFILES = {
    "C1": (-1.0, dict(d=1.0, g=9.81, p0=-2.0)),
    "C0": (0.0, dict(d=1.0, g=9.81, p0=-2.0)),
    "P": (
        VorticityDistribution.piecewise_constant([-0.5], [0.5, -2.0]),
        dict(d=1.0, g=1.0, p0=-1.0),
    ),
    "T": (
        VorticityDistribution.tabulated([-1.0, -0.5, 0.0], [-1.2, -0.3, -1.5]),
        dict(d=1.0, g=9.81, p0=-2.0),
    ),
}


def _same_eigen(a, b):
    for name in ("mu", "mu_refined"):
        x, y = getattr(a, name), getattr(b, name)
        assert abs(x - y) <= 1e-14 * max(1.0, abs(x)), name


@pytest.mark.parametrize("name", _PROFILES)
def test_seeded_solve_equals_unseeded(name):
    # Near the floor, at lambda* and at lambda0, seeded from each of the three
    # and from a close neighbour, the seed moves mu by no more than round-off.
    gamma, flow_args = _PROFILES[name]
    prof, flow = make_profile(gamma, **flow_args)
    pt = find_lambda_star(make_branch(gamma, **flow_args))
    lams = (prof.min_lambda + 1e-3, pt.lambda_star, pt.lambda0)
    plain = {lam: principal_eigen(prof, flow, lam) for lam in lams}
    for lam in lams:
        close = principal_eigen(prof, flow, lam + 1e-3)
        for near in (*plain.values(), close):
            _same_eigen(principal_eigen(prof, flow, lam, near=(near,)), plain[lam])


@st.composite
def _two_neighbours(draw):
    """(profile, flow, lambda, its two neighbours, nearest first, and
    whether they share its mesh): both above or both below it, one on each
    side, or both across the grading switch of build_mesh from it."""
    gamma, flow_args = _PROFILES[draw(st.sampled_from(sorted(_PROFILES)))]
    prof, flow = make_profile(gamma, **flow_args)
    scale = max(1.0, abs(prof.min_lambda))
    steps = [draw(st.floats(0.005, 0.2)) for _ in range(2)]
    case = draw(st.sampled_from(["above", "below", "each side", "across"]))
    if case == "across":
        # The switch sits 1e-3 scale above the floor (spectral._graded).
        side = draw(st.sampled_from([-1.0, 1.0]))
        margins = [1e-3 * scale * (1.0 + side * x) for x in (draw(st.floats(0.005, 0.3)), *steps)]
        margins[1:] = [2e-3 * scale - m for m in margins[1:]]
    else:
        m = 10.0 ** draw(st.floats(-5.0, 0.5)) * scale
        signs = {"above": (1, 1), "below": (-1, -1), "each side": (-1, 1)}[case]
        margins = [m, m * (1.0 + signs[0] * steps[0]), m * (1.0 + signs[1] * (steps[0] + steps[1]))]
    lam, *others = (prof.min_lambda + m for m in margins)
    same_mesh = [spectral._graded(prof, x) for x in others] == [spectral._graded(prof, lam)] * 2
    assume(same_mesh == (case != "across"))
    return prof, flow, lam, sorted(others, key=lambda x: abs(x - lam)), same_mesh


@settings(max_examples=40, deadline=None, derandomize=True, database=None)
@given(_two_neighbours())
def test_secant_seeded_solve_equals_unseeded(case):
    # Two neighbours on this lambda's mesh seed its working level with the
    # secant of their modes; across the grading switch the nearest one is
    # interpolated instead.  Either way the result is the unseeded one to
    # the stopping tolerances.
    prof, flow, lam, others, same_mesh = case
    plain = principal_eigen(prof, flow, lam, mesh_points=401)
    near = [principal_eigen(prof, flow, x, mesh_points=401) for x in others]
    assert all((mode.nodes is plain.nodes) == same_mesh for mode in near)
    _same_eigen(principal_eigen(prof, flow, lam, mesh_points=401, near=near), plain)


def _record_secular(monkeypatch):
    """Record the number of unknowns of each level that the secular
    equation solves."""
    sizes = []
    secular = spectral._secular_level

    def recorded(flow, ints, h, *rest):
        sizes.append(len(h))
        return secular(flow, ints, h, *rest)

    monkeypatch.setattr(spectral, "_secular_level", recorded)
    return sizes


def test_misleading_seed_takes_the_fallback(monkeypatch):
    # A mode of another profile, a vector with interior zeros, or the mode
    # at lambda0 seeding C0 just above its floor leads the working level's
    # iteration astray; that level then falls back to the secular equation
    # of its own pencil and finds the principal pair, which then seeds the
    # refined level.
    sizes = _record_secular(monkeypatch)
    c1, flow = make_profile(-1.0, d=1.0, g=9.81, p0=-2.0)
    c0, _ = make_profile(0.0, d=1.0, g=9.81, p0=-2.0)
    lam = c1.min_lambda + 1e-3
    other = principal_eigen(c0, flow, 0.01)
    nodes = other.nodes
    wavy = ModeSolution(
        lam=lam, mu=0.0, mu_refined=0.0, nodes=nodes, M=np.sin(2.5 * np.pi * (nodes + 1.0))
    )
    cases = [(c1, lam, other), (c1, lam, wavy), (c0, 1e-3, principal_eigen(c0, flow, 1.8))]
    for prof, lam, near in cases:
        plain = principal_eigen(prof, flow, lam)
        sizes.clear()
        _same_eigen(principal_eigen(prof, flow, lam, near=(near,)), plain)
        assert sizes[0] == 2000


def test_restart_narrows_its_one_bracket_to_1e12(monkeypatch):
    # Constant gamma = 1 (d = g = 1, p0 = -1) at 1e-5 above its floor, seeded
    # from its mode at lambda = 1, on 1001 points: the working level's
    # iteration fails from the seed, and that level restarts once, by the
    # secular equation from the iteration's least Rayleigh quotient (below
    # 0), whose bracket narrows until a step is at most 1e-14 of mu.
    # Starting from that quotient, rather than from 0 as an unseeded level
    # does, costs no more shifted solves.
    prof, flow = make_profile(1.0, d=1.0, g=1.0, p0=-1.0)
    lam = prof.min_lambda + 1e-5 * max(1.0, abs(prof.min_lambda))
    near = principal_eigen(prof, flow, prof.min_lambda + 1.0, mesh_points=1001)
    starts, solves = [], []
    secular, solve = spectral._secular_level, spectral._solve_tridiagonal

    def recorded(flow, ints, h, dA0, eA, dB, eB, start=0.0):
        starts.append((len(h), start))
        solves.append(0)
        with mock.patch.object(spectral, "_solve_tridiagonal", counted):
            return secular(flow, ints, h, dA0, eA, dB, eB, start)

    def counted(*args):
        solves[-1] += 1
        return solve(*args)

    monkeypatch.setattr(spectral, "_secular_level", recorded)
    plain = principal_eigen(prof, flow, lam, mesh_points=1001)
    assert starts[0] == (1000, 0.0)
    fresh = solves[0]
    starts.clear()
    solves.clear()
    _same_eigen(principal_eigen(prof, flow, lam, mesh_points=1001, near=(near,)), plain)
    assert starts[0][0] == 1000 and starts[0][1] < 0.0
    assert solves[0] <= fresh


_LAYER_VALUES = st.floats(-3.0, 3.0, allow_subnormal=False)


@st.composite
def _layered_levels(draw):
    """(flow, nodes, element integrals) of a level of a random constant or
    piecewise-constant profile, at lambda from 1e-6 to 10 times
    max(1, |floor|) above the floor, on the solver's meshes."""
    if draw(st.booleans()):
        dist = VorticityDistribution.const(draw(_LAYER_VALUES))
    else:
        bps = draw(spaced_breakpoints())
        values = draw(st.lists(_LAYER_VALUES, min_size=len(bps) + 1, max_size=len(bps) + 1))
        dist = VorticityDistribution.piecewise_constant(bps, values)
    prof, flow = make_profile(
        dist, d=draw(st.floats(0.5, 1.5)), g=draw(st.floats(0.1, 10.0)), p0=-draw(st.floats(0.3, 3.0))
    )
    lam = prof.min_lambda + 10.0 ** draw(st.floats(-6.0, 1.0)) * max(1.0, abs(prof.min_lambda))
    nodes = build_mesh(prof, lam, draw(st.sampled_from([201, 401])))
    return flow, nodes, _element_integrals(ElementRule(prof, nodes), lam, prof._scale)


def _dense(d, e):
    return np.diag(d) + np.diag(e, 1) + np.diag(e, -1)


def _secular_quotients(flow, nodes, ints):
    """(mu, M) of the secular level solve, and the quotient of every
    definite shift, in order."""
    h = np.diff(nodes)
    bands = [band[1:] for band in spectral._bands_from_integrals(ints, h, flow)]
    quotient, quotients = spectral._quotient_from_integrals, []

    def recorded(*args):
        quotients.append(quotient(*args))
        return quotients[-1]

    with mock.patch.object(spectral, "_quotient_from_integrals", recorded):
        mu, M = spectral._secular_level(flow, ints, h, *bands)
    return mu, M, quotients


def _dense_spectrum(flow, nodes, ints):
    """(mu_1, mu_2) of the pencil, and the least and the largest
    eigenvalues of (A0, B), by dense eigh."""
    dA0, eA, dB, eB = (band[1:] for band in spectral._bands_from_integrals(ints, np.diff(nodes), flow))
    A0, B = _dense(dA0, eA), _dense(dB, eB)
    A = A0.copy()
    A[-1, -1] -= flow.g * flow.d**3
    mu1, mu2 = scipy.linalg.eigh(A, B, eigvals_only=True, subset_by_index=[0, 1])
    w0 = scipy.linalg.eigh(A0, B, eigvals_only=True)
    return mu1, mu2, w0[0], w0[-1]


@settings(max_examples=60, deadline=None, derandomize=True, database=None)
@given(_layered_levels())
def test_secular_level_matches_dense_eigh(level):
    # A = p0^2 K - g d^3 e_n e_n^T with K positive definite: a rank-one
    # negative part, so mu_1 <= lambda_1(A0) <= mu_2 and the pencil has at
    # most one negative eigenvalue.  The secular root is mu_1, and its
    # quotients never rise nor fall below mu_1.  Dense eigh is itself off
    # by about eps times the largest eigenvalue: 5e-10 of mu_1 and 8e-17 of
    # the largest were seen where the secular root and the tridiagonal
    # iteration agreed to 1e-15.
    mu1, mu2, lam1, top = _dense_spectrum(*level)
    tol = 1e-10 * max(1.0, abs(mu1)) + 1e-15 * top
    assert mu1 <= lam1 + tol and lam1 <= mu2 + tol
    mu, M, quotients = _secular_quotients(*level)
    assert abs(mu - mu1) <= tol
    assert M[0] == 0.0 and M[-1] == 1.0
    assert min(quotients) >= mu1 - tol
    assert all(b <= a + 1e-14 * max(1.0, abs(a)) for a, b in zip(quotients, quotients[1:]))


@settings(max_examples=60, deadline=None, derandomize=True, database=None)
@given(_layered_levels())
def test_certified_level_matches_dense_eigh(level):
    # Seeded from the principal vector of dense eigh, scaled by 1 + p/100,
    # the Rayleigh-quotient iteration converges to mu_1 and the certificate
    # keeps its pair: mu_1 lies in [q - rho, q] and mu_2 above q + rho.  The
    # tolerance is the secular test's.
    flow, nodes, ints = level
    mu1, mu2, _lam1, top = _dense_spectrum(*level)
    tol = 1e-10 * max(1.0, abs(mu1)) + 1e-15 * top
    dA, eA, dB, eB = pencil_bands(flow, nodes, ints)
    v1 = scipy.linalg.eigh(_dense(dA, eA), _dense(dB, eB), subset_by_index=[0, 0])[1][:, 0]
    seed = (None, v1 / v1[-1] * (1.0 + 1e-2 * nodes[1:]))
    with certified_levels() as levels:
        mu, M = spectral._solve_level(flow, nodes, ints, seed)
    [record] = levels
    assert not record["secular"]
    q, rho = record["pair"]
    assert abs(mu - mu1) <= tol and abs(q - mu1) <= tol
    assert q - rho <= mu1 + tol
    assert mu2 > q + rho
    assert M[0] == 0.0 and M[-1] == 1.0


def test_secular_level_stops_on_its_predicted_step():
    # C1 at lambda = 1.01, the working level of 2001 points, unseeded: the
    # quotients fall to -8.5590717295555 and -8.5590717295622 in 6 solves.
    # That last step squared over the one before is far below the 1e-14
    # tolerance, so Newton's quadratic rate makes a seventh solve, at the
    # returned mu, only confirm it to round-off.
    prof, flow = make_profile(-1.0, d=1.0, g=9.81, p0=-2.0)
    fine, (_finer, rule) = spectral._mesh_levels(prof, 1.01, 2001)
    ints = _restrict(_element_integrals(rule, 1.01, prof._scale))
    mu, _M, quotients = _secular_quotients(flow, fine, ints)
    assert len(quotients) == 6 and mu == quotients[-1]
    h = np.diff(fine)
    dA0, eA, dB, eB = (band[1:] for band in spectral._bands_from_integrals(ints, h, flow))
    e_n = np.zeros(len(dA0))
    e_n[-1] = 1.0
    x, negatives = numerics._solve_tridiagonal(dA0 - mu * dB, eA - mu * eB, e_n)
    q = spectral._quotient_from_integrals(ints, h, np.concatenate([[0.0], x / x[-1]]), flow)
    assert negatives == 0 and abs(q - mu) <= 1e-14 * abs(mu)


def test_pair_at_mu_zero_is_certified_by_one_pivot_count():
    # C0 at lambda0, where mu = 0: the refined level's iteration converges to
    # q = -2.1e-9 with rho = 2.0e-8, so q + rho lies above 0 and above its
    # one shift, the working level's mu = 9.9e-16, and neither bounds mu_2
    # from above it.  The reduction of A - (q + 2 rho) B has one negative
    # pivot, which puts mu_2 above q + 2 rho: the level keeps its pair
    # rather than paying the secular fallback.
    prof, flow = make_profile(0.0, d=1.0, g=9.81, p0=-2.0)
    lam0 = lambda_of_min_head(prof, flow)
    with certified_levels() as levels:
        mode = principal_eigen(prof, flow, lam0)
    working, refined = levels
    q, rho = refined["pair"]
    assert working["secular"] and not refined["secular"]
    assert q + rho > max(0.0, mode.mu)
    assert abs(mode.mu_refined) <= 1e-14


def test_secular_level_brackets_a_root_next_to_the_pole(monkeypatch):
    # gamma = 0, d = 0.5, g = 1, p0 = -2 at lambda = 1: mu_1 = 9.618 lies
    # just under lambda_1(A0) = 9.870, the pole of s.  Newton's step from 0
    # lands past the pole twice, where A0 - mu B is indefinite, and halving
    # mu without a bracket oscillated; the bracket bisects instead.
    prof, flow = make_profile(0.0, d=0.5, g=1.0, p0=-2.0)
    nodes = build_mesh(prof, 1.0, 201)
    ints = _element_integrals(ElementRule(prof, nodes), 1.0, prof._scale)
    mu1, _mu2, lam1, _top = _dense_spectrum(flow, nodes, ints)
    assert 9.6 < mu1 < lam1 < 9.9
    solve, definite = spectral._solve_tridiagonal, []

    def recorded(*args):
        x, negatives = solve(*args)
        definite.append(negatives == 0)
        return x, negatives

    monkeypatch.setattr(spectral, "_solve_tridiagonal", recorded)
    mu, _M, quotients = _secular_quotients(flow, nodes, ints)
    assert abs(mu - mu1) <= 1e-10 * mu1
    assert definite.count(False) == 2 and quotients[0] > lam1
    assert all(b <= a for a, b in zip(quotients, quotients[1:]))


@pytest.mark.parametrize("name, lam", [("C0", 0.01), ("C1", 1.01), ("P", None), ("T", None)])
def test_every_level_returns_a_converged_pair(monkeypatch, name, lam):
    # On C0 at lambda = 0.01 LAPACK met an exact zero pivot on the
    # 4000-unknown level, and the iterate kept had a relative residual of
    # 1e-11.  Both levels, the secular one and the iterated one, return a
    # pair at round-off.
    gamma, flow_args = _PROFILES[name]
    prof, flow = make_profile(gamma, **flow_args)
    if lam is None:
        lam = find_lambda_star(make_branch(gamma, **flow_args)).lambda_star
    residuals = []
    solve = spectral._solve_level

    def recorded(flow, nodes, ints, *seed):
        mu, M = solve(flow, nodes, ints, *seed)
        dA, eA, dB, eB = (band[1:] for band in spectral._bands_from_integrals(ints, np.diff(nodes), flow))
        dA[-1] -= flow.g * flow.d**3
        v = M[1:] / np.linalg.norm(M[1:])
        r = numerics._tridiag_matvec(dA, eA, v) - mu * numerics._tridiag_matvec(dB, eB, v)
        norm_a = np.max(np.abs(dA)) + 2.0 * np.max(np.abs(eA))
        norm_b = np.max(np.abs(dB)) + 2.0 * np.max(np.abs(eB))
        residuals.append(np.linalg.norm(r) / (norm_a + abs(mu) * norm_b))
        return mu, M

    monkeypatch.setattr(spectral, "_solve_level", recorded)
    principal_eigen(prof, flow, lam)
    assert len(residuals) == 2
    assert max(residuals) <= 1e-14
