"""Exact laminar integrals against mpmath at 40 digits, down to 1e-13 above
the admissibility floor, and the exact Hoelder seminorm, on random profiles
of all three kinds."""

from unittest import mock

import mpmath as mp
import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from rotwave import (
    FlowParameters,
    GammaProfile,
    VorticityDistribution,
    calibrate_mass_flux,
    holder_seminorm,
    hydraulic_head,
    laminar,
    lambda_of_min_head,
    spectral,
)
from rotwave.errors import DegenerateConstraint, NoSolution
from rotwave.laminar import _DepthConstraint, _pieces, _Pieces

from conftest import spaced_breakpoints

mp.mp.dps = 40

PROPERTY = settings(max_examples=25, deadline=None, derandomize=True, database=None)


def _mp_primitive(dist, d, p0):
    """Gamma(p) = (2 d^2 / p0) integral_0^p gamma in mpmath, from the exact
    inputs, with the interior zeros of gamma."""
    if dist.kind == "constant":
        knots, g0, g1 = [-1, 0], [dist.constant], [0]
    elif dist.kind == "piecewise_constant":
        knots, g0, g1 = [-1, *dist.breakpoints, 0], list(dist.values), [0] * len(dist.values)
    else:
        knots, v = list(dist.nodes), [mp.mpf(x) for x in dist.values]
        g0 = v[:-1]
        g1 = [(v[i + 1] - v[i]) / (mp.mpf(knots[i + 1]) - knots[i]) for i in range(len(g0))]
    knots = [mp.mpf(k) for k in knots]
    g0 = [mp.mpf(x) for x in g0]
    jk = [mp.mpf(0)]
    for i in range(len(g0)):
        h = knots[i + 1] - knots[i]
        jk.append(jk[-1] + g0[i] * h + g1[i] * h * h / 2)
    scale = 2 * mp.mpf(d) ** 2 / mp.mpf(p0)

    def gamma_of(p):
        i = max(0, min(len(g0) - 1, sum(1 for k in knots if k <= p) - 1))
        dp = p - knots[i]
        return scale * (jk[i] + g0[i] * dp + g1[i] * dp * dp / 2 - jk[-1])

    zeros = [
        knots[i] - g0[i] / g1[i]
        for i in range(len(g0))
        if g1[i] != 0 and knots[i] < knots[i] - g0[i] / g1[i] < knots[i + 1]
    ]
    return gamma_of, knots + zeros


def _reference(prof, lam, expo):
    """integral_{-1}^0 (lambda + Gamma)^expo in mpmath, conditioned as the
    code is: lambda + Gamma(p1) is taken in floating point and only
    Gamma - Gamma(p1) in mpmath."""
    gamma_of, _ = _mp_primitive(prof.source, prof.flow.d, prof.flow.p0)
    base = mp.mpf(lam + prof.primitive(prof.p1))
    at_p1 = gamma_of(mp.mpf(prof.p1))
    edges = [mp.mpf(float(e)) for e in prof._shape.breaks]
    return mp.quad(lambda p: (base + gamma_of(p) - at_p1) ** mp.mpf(expo), edges)


@st.composite
def profiles(draw):
    values = st.floats(-3.0, 3.0, allow_subnormal=False)
    interior = st.floats(-0.95, -0.05, allow_subnormal=False)
    kind = draw(st.sampled_from(["constant", "piecewise_constant", "tabulated"]))
    if kind == "constant":
        dist = VorticityDistribution.const(draw(values))
    elif kind == "piecewise_constant":
        bps = draw(spaced_breakpoints())
        dist = VorticityDistribution.piecewise_constant(
            bps, draw(st.lists(values, min_size=len(bps) + 1, max_size=len(bps) + 1))
        )
    else:
        nodes = [-1.0, *sorted(draw(st.lists(interior, max_size=4, unique=True))), 0.0]
        dist = VorticityDistribution.tabulated(
            nodes, draw(st.lists(values, min_size=len(nodes), max_size=len(nodes)))
        )
    flow = FlowParameters(d=draw(st.floats(0.5, 1.5)), g=1.0, p0=-draw(st.floats(0.5, 2.0)))
    return GammaProfile.from_distribution(dist, flow)


margins = st.floats(-13.0, 0.0).map(lambda e: 10.0**e)


def _integral(prof, lam, expo):
    """integral_{-1}^0 (lambda + Gamma)^expo from the pieces of the profile's
    shape, summed as hydraulic_head and lambda_of_min_head sum them."""
    return float(np.sum(_pieces(prof._shape).values(prof._scale, lam, expo)))


@PROPERTY
@given(profiles(), margins)
def test_both_powers_match_mpmath(prof, margin):
    lam = prof.min_lambda + margin
    for expo in (-0.5, -1.5):
        ref = _reference(prof, lam, expo)
        assert abs(_integral(prof, lam, expo) - ref) <= 1e-14 * abs(ref)


@PROPERTY
@given(profiles(), margins, st.floats(-1.0, 0.0))
def test_integrals_add_up_over_a_split(prof, margin, p):
    lam = prof.min_lambda + margin
    for expo in (-0.5, -1.5):
        split = _Pieces(prof._shape, [p])
        edges, pieces = split.edges, split.values(prof._scale, lam, expo)
        below = np.sum(pieces[edges[1:] <= p])
        above = np.sum(pieces[edges[:-1] >= p])
        whole = _integral(prof, lam, expo)
        assert below + above == pytest.approx(whole, rel=1e-14)


@PROPERTY
@given(profiles())
def test_surface_value_and_minimizers_are_exact(prof):
    assert prof.primitive(0.0) == 0.0
    gamma_of, candidates = _mp_primitive(prof.source, prof.flow.d, prof.flow.p0)
    true_min = min(gamma_of(c) for c in candidates)
    tol = 1e-14 * max(1.0, abs(float(true_min)))
    assert abs(prof.gamma_min - true_min) <= tol
    assert prof.p1 in prof.minimizers
    for m in prof.minimizers:
        assert gamma_of(mp.mpf(m)) - true_min <= tol
    grid = np.linspace(-1.0, 0.0, 2001)
    assert np.all(prof.primitive(grid) >= prof.gamma_min - tol)


def _holder_reference(prof, alpha):
    """sup over p != p1 of (Gamma(p) - Gamma(p1)) / |p - p1|^alpha in mpmath,
    interval by interval: the ends, with the limit at p1 taken 1e-40 away
    from it at 100 digits, then a golden-section search around the best of
    16 interior samples."""
    gamma_of, _ = _mp_primitive(prof.source, prof.flow.d, prof.flow.p0)
    p1 = mp.mpf(prof.p1)

    def ratio(p, base):
        return (gamma_of(p) - base) / abs(p - p1) ** alpha

    edges = sorted({mp.mpf(float(k)) for k in prof._shape.knots} | {p1})
    best = mp.mpf(0)
    with mp.workdps(100):
        step, base = mp.mpf(10) ** -40, gamma_of(p1)
        for lo, hi in zip(edges[:-1], edges[1:]):
            best = max(best, ratio(lo + step if lo == p1 else lo, base), ratio(hi - step if hi == p1 else hi, base))
    base, golden = gamma_of(p1), (mp.sqrt(5) - 1) / 2
    for lo, hi in zip(edges[:-1], edges[1:]):
        t = [lo + (hi - lo) * i / 17 for i in range(18)]
        k = max(range(1, 17), key=lambda i: ratio(t[i], base))
        a, b = t[k - 1], t[k + 1]
        for _ in range(60):
            x, y = b - golden * (b - a), a + golden * (b - a)
            if ratio(x, base) >= ratio(y, base):
                b = y
            else:
                a = x
        best = max(best, ratio(t[k], base), ratio((a + b) / 2, base))
    return +best


@PROPERTY
@given(profiles())
def test_holder_seminorm_matches_mpmath(prof):
    for alpha in (0.3, 0.5, 0.8, 1.0):
        ref = _holder_reference(prof, alpha)
        assert abs(holder_seminorm(prof, alpha) - ref) <= 1e-14 * ref


# -- p0-free work shared across profiles, to the bit ---------------------------------

layered = profiles().filter(lambda prof: prof.source.kind != "constant").map(lambda prof: prof.source)
depths = st.floats(0.5, 1.5)
fluxes = st.floats(0.05, 20.0)


def _admissible(prof, margin):
    lam = prof.min_lambda + margin * max(1.0, prof.min_lambda)
    assume(lam > prof.min_lambda)
    return lam


@PROPERTY
@given(layered, depths, st.lists(fluxes, min_size=8, max_size=8), margins)
def test_calibration_probe_is_the_integral_of_its_profile(dist, d, fluxes, margin):
    # calibrate_mass_flux reads the piece geometry of the distribution's
    # shape, and phi at p0 = -b only applies the scale 2 d^2 / p0.
    pieces = _Pieces(dist._shape)
    for b in fluxes:
        prof = GammaProfile.from_distribution(dist, FlowParameters(d, 1.0, -b))
        scale = 2.0 * d**2 / -b
        assert -scale * pieces.unscaled_max == prof.min_lambda
        lam = _admissible(prof, margin)
        assert float(np.sum(pieces.values(scale, lam, -0.5))) == _integral(prof, lam, -0.5)


@PROPERTY
@given(layered, st.lists(st.tuples(depths, fluxes), min_size=2, max_size=3), margins)
def test_shared_mesh_levels_hold_each_profiles_primitive(dist, flows, margin):
    # The levels are built once per key in the cache of the distribution's
    # shape; at each profile's scale, Gamma is its primitive at every
    # quadrature point.  Knots a few ulps apart give build_mesh a sliver
    # element (see CHANGES.md).
    shape = dist._shape
    assume(np.min(np.diff(shape.knots)) > 1e-6)
    unscaled, at = shape.unscaled, {}

    def recording(p):
        out = unscaled(p)
        at[id(out)] = p, out  # holding out keeps its id unique
        return out

    for d, b in flows:
        prof = GammaProfile.from_distribution(dist, FlowParameters(d, 1.0, -b))
        lam = _admissible(prof, margin)
        with mock.patch.object(shape, "unscaled", recording):
            _, (_, rule) = spectral._mesh_levels(prof, lam, 201)
        for u in (rule.unscaled, rule.sub_unscaled):
            assert np.all(prof._scale * u == prof.primitive(at[id(u)][0]))
    assert len(at) == 2 * len(shape.cache)


@PROPERTY
@given(profiles(), st.lists(st.tuples(depths, fluxes), min_size=1, max_size=2))
def test_every_flow_of_a_distribution_is_one_shape_at_its_scale(prof, flows):
    # Gamma = (2 d^2 / p0) U with a scale < 0: the maximizers of U minimize
    # Gamma for every d and p0, and scale * max U is the least scaled Gamma
    # at a break point, to the bit.
    dist = prof.source
    for d, b in flows:
        other = GammaProfile.from_distribution(dist, FlowParameters(d, 1.0, -b))
        for p in (prof, other):
            assert p._shape is dist._shape
            assert (p.minimizers, p.p1) == (dist._shape.minimizers, dist._shape.p1)
            least = np.min(p.primitive(dist._shape.breaks))
            assert np.float64(p.gamma_min).tobytes() == least.tobytes()


@PROPERTY
@given(layered, depths, fluxes, margins)
def test_working_level_mu_is_not_below_the_refined_one(dist, d, b, margin):
    # The working level's element integrals are restricted from the refined
    # level's, so its pencil is P^T A P, P^T B P for the nested P1 spaces and
    # its smallest eigenvalue is not below the refined one: Richardson can
    # only lower mu.  Tabulated break points (knots and zeros of gamma) a
    # few ulps apart give build_mesh a sliver element (see CHANGES.md).
    assume(np.min(np.diff(dist._shape.breaks)) > 1e-6)
    prof = GammaProfile.from_distribution(dist, FlowParameters(d, 1.0, -b))
    lam = _admissible(prof, margin)
    solve, mus = spectral._solve_level, []

    def recording(flow, nodes, *rest):
        mu, M = solve(flow, nodes, *rest)
        mus.append(mu)
        return mu, M

    with mock.patch.object(spectral, "_solve_level", recording):
        sol = spectral.principal_eigen(prof, prof.flow, lam, mesh_points=201)
    mu_working, mu_refined_level = mus[-2:]
    assert mu_refined_level == sol.mu
    assert mu_working >= sol.mu - 1e-14 * max(1.0, abs(sol.mu))
    assert sol.mu_refined <= sol.mu + 1e-14 * max(1.0, abs(sol.mu))


# -- fixed cases near the floor --------------------------------------------------


def _c1(g):
    flow = FlowParameters(d=1.0, g=g, p0=-2.0)
    return GammaProfile.from_distribution(VorticityDistribution.const(-1.0), flow), flow


def test_lambda0_near_the_floor_matches_closed_form():
    # Gamma = p: 2 (1/sqrt(lambda0 - 1) - 1/sqrt(lambda0)) = p0^2 / g = 4/g
    # puts lambda0 = 1 + x^2 2.5e-9 and 2.5e-11 above the floor.  Brent's
    # stop scales with lambda0's distance from the floor, so lambda0 - 1
    # keeps its digits: off by 2e-8 and 1.2e-6 relative, the second near
    # the 2 eps |lambda0| that Brent's own step allows.  With a stop at
    # root_tol alone they were off by 1.8% and 60%.
    for g, rel in [(1e-4, 1e-6), (1e-5, 2e-5)]:
        prof, flow = _c1(g)
        root = mp.findroot(
            lambda x: 2 * (1 / x - 1 / mp.sqrt(1 + x * x)) - 4 / mp.mpf(g), (0.4 * g, 0.6 * g), solver="anderson"
        )
        assert abs((mp.mpf(lambda_of_min_head(prof, flow)) - 1) / root**2 - 1) <= rel


def test_head_at_1e13_above_the_floor_matches_closed_form():
    prof, flow = _c1(9.81)
    lam = 1.0 + 1e-13
    m = mp.mpf(lam)
    exact = 2 * mp.mpf(flow.g) * 2 * (mp.sqrt(m) - mp.sqrt(m - 1)) + 4 * m
    assert abs(hydraulic_head(prof, flow, lam) - exact) <= 1e-15 * exact


ONSET_SEED_0 = VorticityDistribution.tabulated(
    [k / 8.0 - 1.0 for k in range(9)],
    [-0.5206, -0.8277, -0.6773, -0.5629, -1.2663, -0.4984, -1.0659, -1.4152, -0.5376],
)
INTERIOR_MINIMUM = VorticityDistribution.tabulated([-1.0, -0.6, -0.3, 0.0], [1.0, -0.5, 0.8, -1.0])


@pytest.mark.parametrize(
    "dist, lam",
    [(ONSET_SEED_0, lam) for lam in np.linspace(1.2, 2.0, 9)] + [(INTERIOR_MINIMUM, 1.5)],
)
def test_calibrated_p0_meets_the_unit_depth_constraint(dist, lam):
    p0 = calibrate_mass_flux(dist, 1.0, lam)
    gamma_of, candidates = _mp_primitive(dist, 1.0, p0)
    depth = mp.quad(lambda p: (mp.mpf(lam) + gamma_of(p)) ** -0.5, sorted(candidates))
    assert abs(depth - 1) <= 1e-13


# -- the unit-depth constraint at the admissibility edge, and below lambda = 1 ----------


def _constraint(dist, lam):
    return _DepthConstraint(dist._shape, 1.0, lam)


@pytest.mark.parametrize("lam", [0.5, 1.5, 3.0, 3.999748])
def test_constraint_at_the_edge_is_its_limit(lam):
    # Constant gamma: at t_max, lambda - k = 0 in (2/k)(sqrt(lambda) -
    # sqrt(lambda - k)), and phi is 2/sqrt(lambda) - 1, evaluated exactly
    # there, not as lambda + Gamma_min rounded to a tiny negative number.
    edge = _constraint(VorticityDistribution.const(-1.0), lam).at_end()
    assert edge == pytest.approx(2.0 / np.sqrt(lam) - 1.0, rel=1e-15)


@pytest.mark.parametrize("lam", [0.5, 1.5, 3.0])
def test_constraint_at_the_edge_is_infinite_where_gamma_vanishes_at_the_minimizer(lam):
    # Gamma is least at the interior zero of gamma in (-0.3, 0): lambda + Gamma
    # vanishes there to second order at t_max, and phi is +inf, not NaN.
    phi = _constraint(INTERIOR_MINIMUM, lam)
    assert phi.at_end() == np.inf
    # Just inside the edge, phi is finite and large: the exact integrals
    # take lambda + Gamma_min = lambda x^2 as it is.
    assert 1.0 < phi(1e-12, slope=False) < np.inf


def _depth_excess(dist, d, lam, p0):
    """phi at p0 in mpmath, +inf past the admissibility edge."""
    gamma_of, candidates = _mp_primitive(dist, d, p0)
    if min(lam + gamma_of(c) for c in candidates) <= 0:
        return mp.inf
    return mp.quad(lambda p: (mp.mpf(lam) + gamma_of(p)) ** -0.5, sorted(candidates)) - 1


# INTERIOR_MINIMUM with more gamma at depth: integral U dp < 0, so from
# phi(0) > 0 below lambda = 1 phi dips below 0 before it rises to +inf at
# the edge.
DIPPING = VorticityDistribution.tabulated([-1.0, -0.6, -0.3, 0.0], [3.0, 1.0, 0.8, -1.0])


@pytest.mark.parametrize("lam", [0.9, 0.99])
def test_calibration_below_lambda_1_finds_the_dip(lam):
    # phi >= 0 at both ends of the bracket: the search for a point of phi
    # below 0 brackets the upward crossing, the larger root in t.
    with mock.patch.object(laminar, "_below_zero", wraps=laminar._below_zero) as below_zero:
        p0 = calibrate_mass_flux(DIPPING, 1.0, lam)
    below_zero.assert_called_once()
    assert abs(_depth_excess(DIPPING, 1.0, lam, p0)) <= 1e-13
    # phi < 0 at a smaller t, between the two roots: p0 is the upward crossing.
    assert _depth_excess(DIPPING, 1.0, lam, 1.01 * p0) < 0


@pytest.mark.parametrize("lam", [0.5, 0.9])
def test_calibration_below_lambda_1_without_a_dip_has_no_solution(lam):
    # integral U dp > 0: phi rises from phi(0) > 0 and never reaches 0.
    with pytest.raises(NoSolution, match="phi stays above 0"):
        calibrate_mass_flux(INTERIOR_MINIMUM, 1.0, lam)


@PROPERTY
@given(layered, depths, st.floats(1.0, 3.0, exclude_min=True))
def test_calibrated_p0_meets_the_constraint_on_layered_profiles(dist, d, lam):
    # Near lambda = 1 round-off in phi sets p0 only to about 1e-16 /
    # (lambda - 1), relative, but phi moves by only about (lambda - 1) / 2
    # per unit of relative change in p0 there, so the constraint still holds.
    # gamma == 0 at lambda within 1e-12 of 1 is DegenerateConstraint.
    try:
        p0 = calibrate_mass_flux(dist, d, lam)
    except (NoSolution, DegenerateConstraint):
        return
    # Within about 1e-8 of the admissibility edge phi moves by more than
    # 1e-13 across one ulp of p0; the closed form of constant gamma checks p0
    # there (test_laminar.py).
    prof = GammaProfile.from_distribution(dist, FlowParameters(d, 1.0, p0))
    if lam - prof.min_lambda > 1e-8 * lam:
        excess = _depth_excess(dist, d, lam, p0)
        if abs(excess) > 1e-13:
            step = mp.mpf(2) ** -48 * p0
            assert _depth_excess(dist, d, lam, p0 - step) * _depth_excess(dist, d, lam, p0 + step) <= 0
