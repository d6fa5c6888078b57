import json
import math
from dataclasses import replace

import numpy as np
import pytest

from rotwave import (
    BifurcationPoint,
    Branch,
    FlowParameters,
    GammaProfile,
    NoBifurcation,
    VorticityDistribution,
    check_bed_layer,
    check_constant_vorticity,
    check_continuous_sufficient,
    check_general_sufficient,
    check_surface_layer,
    find_lambda_star,
    holder_seminorm,
    principal_eigen,
    transversality_integral,
)

from rotwave import spectral
from rotwave.cli import build_criteria_report, main, parse_config
from rotwave.errors import DegenerateConstraint, EigenFailure, NoSolution
from rotwave.vorticity import ElementRule

from conftest import make_branch, make_profile


def _pinned_point():
    p0 = -math.sqrt(math.tanh(1.0))
    branch = make_branch(VorticityDistribution.const(0.0), p0=p0)
    pt = find_lambda_star(branch)
    assert isinstance(pt, BifurcationPoint)
    return pt, branch.profile, branch.flow


# -- find_lambda_star -------------------------------------------------------------


def test_pinned_crossing():
    pt, prof, flow = _pinned_point()
    assert pt.lambda_star == pytest.approx(1.0, abs=1e-6)
    assert pt.lambda0 == pytest.approx(math.tanh(1.0) ** (-2.0 / 3.0), abs=1e-5)
    assert pt.Q_star == pytest.approx(2.0 + math.tanh(1.0), abs=1e-8)
    assert pt.mu_residual <= 1e-8
    assert pt.mode.lam == pt.lambda_star
    m_mid = np.interp(-0.5, pt.mode.nodes, pt.mode.M)
    assert m_mid == pytest.approx(math.sinh(0.5) / math.sinh(1.0), abs=1e-5)


def test_failed_probe_raises(failing_probes):
    # At the parent a failed probe ended the search as NoBifurcation.
    with pytest.raises(EigenFailure):
        find_lambda_star(make_branch(-1.0, d=1.0, g=9.81, p0=-2.0, mesh_points=201))


def test_search_builds_each_mesh_level_once(monkeypatch):
    # Two levels with a rule, coarse and refined, each at most once graded
    # toward the floor and once not; the working level's integrals are
    # restricted from the refined level's.
    built = []
    init = ElementRule.__init__

    def counted(self, *args):
        built.append(args)
        init(self, *args)

    monkeypatch.setattr(ElementRule, "__init__", counted)
    pt = find_lambda_star(make_branch(-1.0, d=1.0, g=9.81, p0=-2.0))
    assert isinstance(pt, BifurcationPoint)
    assert len(built) <= 4


def test_search_returns_every_mu_it_solved():
    pt = find_lambda_star(make_branch(-1.0, d=1.0, g=9.81, p0=-2.0, mesh_points=201))
    solved = pt.branch.solved
    assert solved[pt.lambda0][1].mu_refined == pt.mu_at_lambda0
    assert solved[pt.lambda_star][1] is pt.mode
    assert pt.lambda_lo in solved
    # A lambda the search solved is read back, not solved again.
    n = len(solved)
    assert pt.branch(pt.lambda_lo) is solved[pt.lambda_lo]
    assert len(solved) == n


def test_crossing_below_head_minimizer():
    pt, prof, flow = _pinned_point()
    assert prof.min_lambda < pt.lambda_star < pt.lambda0
    assert abs(pt.mu_at_lambda0) <= 1e-6


def test_crossing_unique_in_bracket():
    pt, prof, flow = _pinned_point()
    delta = 1e-3 * (pt.lambda0 - pt.lambda_star)
    below = principal_eigen(prof, flow, pt.lambda_star - delta).mu_refined
    above = principal_eigen(prof, flow, pt.lambda_star + delta).mu_refined
    assert below < -1.0 < above


def test_positive_vorticity_always_bifurcates():
    branch = make_branch(0.5)
    prof, flow = branch.profile, branch.flow
    pt = find_lambda_star(branch)
    assert isinstance(pt, BifurcationPoint)
    # cross-check the located eigenvalue with the shooting oracle
    from rotwave import shooting_mu

    assert shooting_mu(prof, flow, pt.lambda_star) == pytest.approx(-1.0, abs=1e-6)


def test_no_bifurcation_weak_gravity():
    # with g = 0.05 the surface term is too weak for mu to reach -1
    branch = make_branch(-1.0, g=0.05)
    result = find_lambda_star(branch)
    assert isinstance(result, NoBifurcation)
    assert result.inf_mu > -1.0
    assert result.lambda0 > branch.profile.min_lambda


# -- closed-form criteria ------------------------------------------------------------


def test_general_sufficient_examples():
    prof, flow = make_profile(-1.0)  # theta = 2, p1 = -1
    margin = check_general_sufficient(prof, flow, 1.0)
    expected_rhs = 2.0**1.5 / 6.0 + 2.0**0.5 / 2.5
    assert margin <= 0.0
    assert margin == pytest.approx(1.0 - expected_rhs, abs=1e-12)

    prof2, flow2 = make_profile(-1.0, g=2.0)
    margin2 = check_general_sufficient(prof2, flow2, 1.0)
    assert margin2 > 0.0
    assert margin2 == pytest.approx(2.0 - expected_rhs, abs=1e-12)


def test_general_sufficient_zero_theta():
    prof, flow = make_profile(0.0, g=1.7)
    margin = check_general_sufficient(prof, flow, 1.0)
    assert margin > 0.0
    assert margin == pytest.approx(1.7)


def test_general_sufficient_returns_plain_bool():
    # Every verdict of the report is a plain bool, or None where the margin is NaN.
    undefined = []
    for vorticity, n_criteria in [
        # theta comes from a one-sided slope at p1 here, a numpy float.
        ({"kind": "tabulated", "nodes": [-1.0, -0.5, 0.0], "values": [-1.2, -0.3, -1.5]}, 2),
        # All five criteria; the bed layer's radicand is undefined at gamma = -3.
        ({"kind": "constant", "gamma": -3.0}, 5),
        ({"kind": "constant", "gamma": -0.5}, 5),
    ]:
        raw = {"flow": {"d": 1.0, "g": 9.81, "p0": -2.0}, "vorticity": vorticity}
        config = parse_config(json.dumps({**raw, "criteria": {"depth_frak": 0.5}}))
        prof = GammaProfile.from_distribution(config.vorticity, config.flow)
        report = build_criteria_report(config, prof)
        entries = [entry for entry in report.values() if isinstance(entry, dict)]
        assert len(entries) == n_criteria
        for entry in entries:
            if math.isnan(entry["margin"]):
                assert entry["holds"] is None
                undefined.append(vorticity.get("gamma"))
            else:
                assert type(entry["holds"]) is bool
                assert entry["holds"] == (entry["margin"] > 0.0)
    assert undefined == [-3.0]


def test_continuous_sufficient_examples():
    prof, flow = make_profile(-1.0)
    margin = check_continuous_sufficient(prof, flow)
    lhs = math.sqrt(2.0) / 3.0 + 2.0 * math.sqrt(2.0) / 5.0
    assert margin <= 0.0
    assert margin == pytest.approx(1.0 - lhs, abs=1e-12)

    prof2, flow2 = make_profile(-1.0, g=1.1)
    margin2 = check_continuous_sufficient(prof2, flow2)
    assert margin2 > 0.0
    assert margin2 == pytest.approx(1.1 - lhs, abs=1e-12)

    prof3, flow3 = make_profile(0.0)
    margin3 = check_continuous_sufficient(prof3, flow3)
    assert margin3 > 0.0 and margin3 == pytest.approx(1.0)


def test_constant_vorticity_examples():
    margin = check_constant_vorticity(0.0, 1.0, 1.0)
    assert margin > 0.0 and margin == pytest.approx(math.tanh(1.0))
    margin = check_constant_vorticity(-1.0, 1.0, 1.0)
    assert margin > 0.0
    assert margin == pytest.approx(2.0 * math.tanh(1.0) - 1.0, abs=1e-12)
    margin = check_constant_vorticity(-2.0, 1.0, 1.0)
    assert margin <= 0.0
    assert margin == pytest.approx(5.0 * math.tanh(1.0) - 4.0, abs=1e-12)


def test_surface_layer_examples():
    margin = check_surface_layer(0.0, 0.7, 1.0)
    assert margin > 0.0 and margin == pytest.approx(math.tanh(0.7))
    t = math.tanh(0.5)
    margin = check_surface_layer(-1.0, 0.5, 1.0)
    assert margin > 0.0
    assert margin == pytest.approx(t - 0.5 * (0.5 - t), abs=1e-12)
    t2 = math.tanh(2.0)
    margin = check_surface_layer(-10.0, 2.0, 1.0)
    assert margin <= 0.0
    assert margin == pytest.approx(t2 - 100.0 * 2.0 * (2.0 - t2), abs=1e-9)


def test_bed_layer_example():
    margin = check_bed_layer(-0.5, 1.0, 0.5, 1.0)
    num = math.sqrt(1.0 * (math.sinh(1.0) * 0.5 - math.sinh(0.5) * math.sinh(0.5)))
    den = 0.5 * math.sqrt(0.5 * math.cosh(1.0) - 0.25 * math.cosh(0.5) * math.sinh(0.5))
    assert margin > 0.0
    assert margin == pytest.approx(num / den - 0.5, abs=1e-12)


def test_bed_layer_undefined_radicand():
    # NaN, not a sign: the closed form is undefined here.
    margin = check_bed_layer(-3.0, 1.0, 0.5, 1.0)
    assert math.isnan(margin)


def test_bed_layer_zero_gamma():
    margin = check_bed_layer(0.0, 1.0, 0.5, 1.0)
    assert margin > 0.0


def test_surface_layer_reduces_to_constant_vorticity():
    rng = np.random.default_rng(17)
    for _ in range(100):
        gamma = float(rng.uniform(-3.0, 3.0))
        d = float(rng.uniform(0.2, 3.0))
        g = float(rng.uniform(0.2, 5.0))
        m1 = check_surface_layer(gamma, d, g)
        m2 = check_constant_vorticity(gamma, d, g)
        assert (m1 > 0.0) == (m2 > 0.0)
        assert m1 == pytest.approx(m2, abs=1e-12 * max(1.0, abs(m1)))


def test_criteria_equivalence_with_lipschitz_theta():
    # alpha = 1 with theta replaced by 2 d^2 gamma_inf/|p0| makes the general
    # and the bounded-vorticity margins coincide term by term
    rng = np.random.default_rng(23)
    for _ in range(100):
        gamma = float(rng.uniform(-2.0, -0.05))
        d = float(rng.uniform(0.4, 2.0))
        g = float(rng.uniform(0.3, 4.0))
        p0 = -float(rng.uniform(0.4, 2.0))
        prof, flow = make_profile(gamma, d=d, g=g, p0=p0)
        theta_lip = 2.0 * d * d * abs(gamma) / abs(p0)
        m_general = check_general_sufficient(prof, flow, 1.0, theta=theta_lip)
        m_continuous = check_continuous_sufficient(prof, flow)
        assert m_general == pytest.approx(m_continuous, abs=1e-12 * max(1.0, abs(m_general)))


def test_sufficient_criteria_imply_crossing():
    rng = np.random.default_rng(31)
    found = 0
    while found < 8:
        gamma = float(rng.uniform(-0.8, 0.8))
        d = float(rng.uniform(0.7, 1.3))
        g = float(rng.uniform(1.0, 3.0))
        p0 = -float(rng.uniform(0.6, 1.2))
        prof, flow = make_profile(gamma, d=d, g=g, p0=p0)
        g_ok = check_general_sufficient(prof, flow, 1.0) > 0.0
        c_ok = check_continuous_sufficient(prof, flow) > 0.0
        if not (g_ok or c_ok):
            continue
        found += 1
        result = find_lambda_star(make_branch(gamma, d=d, g=g, p0=p0, mesh_points=801))
        assert isinstance(result, BifurcationPoint)


# -- transversality ----------------------------------------------------------------


def test_transversality_pinned_value():
    pt, prof, flow = _pinned_point()
    T = transversality_integral(pt)
    s2 = math.sinh(2.0)
    sh1sq = math.sinh(1.0) ** 2
    exact = -(math.pi / 2.0) * ((s2 / 4.0 - 0.5) / sh1sq) - 3.0 * math.pi * (
        (s2 / 4.0 + 0.5) / sh1sq
    )
    assert T < 0.0
    assert T == pytest.approx(exact, abs=1e-6)


def test_transversality_quadratic_scaling():
    pt, prof, flow = _pinned_point()
    T1 = transversality_integral(pt)
    doubled = replace(pt, mode=replace(pt.mode, M=2.0 * pt.mode.M))
    T4 = transversality_integral(doubled)
    assert T4 == pytest.approx(4.0 * T1, rel=1e-12)
    assert T4 < 0.0


def test_transversality_negative_rotational():
    pt = find_lambda_star(make_branch(0.5, g=1.5, mesh_points=801))
    assert isinstance(pt, BifurcationPoint)
    assert transversality_integral(pt) < 0.0


def test_transversality_reuses_the_refined_rule(monkeypatch):
    # The mode carries the refined level's rule, the one the eigen solve
    # cached: no ElementRule is built, and T is the one a rule built afresh
    # on the mode's nodes gives, bit for bit.
    pt = find_lambda_star(make_branch(-1.0, g=9.81, p0=-2.0, mesh_points=801))
    nodes = pt.mode.nodes
    assert pt.mode._rule is spectral._mesh_levels(pt.branch.profile, pt.lambda_star, 801)[1][1]
    fresh = ElementRule(pt.branch.profile, nodes)
    init = ElementRule.__init__
    built = []

    def counted(self, *args):
        built.append(args)
        init(self, *args)

    monkeypatch.setattr(ElementRule, "__init__", counted)
    T = transversality_integral(pt)
    assert built == []
    # The rule is no part of the mode's value.
    rebuilt = replace(pt, mode=replace(pt.mode, _rule=fresh))
    assert rebuilt.mode == pt.mode
    assert transversality_integral(rebuilt) == T
    assert built == []


_GAUSS_X, _GAUSS_W = np.polynomial.legendre.leggauss(8)
_SUB_X, _SUB_W = np.polynomial.legendre.leggauss(12)


def _transversality_by_points(point):
    """T summed point by point: weight times a^-1 m^2 and a M'^2 at the
    points ElementRule places (8-point Gauss, or 12-point Gauss in
    t = sqrt(|p - p*|) on an element with an end at a minimizer p*), with
    the mode's P1 interpolant m = M0 n0 + M1 (1 - n0), n0 = (hi - x) / h."""
    branch, lam, M = point.branch, point.lambda_star, point.mode.M
    profile, nodes = branch.profile, point.mode.nodes
    lo, hi = nodes[:-1], nodes[1:]
    h = hi - lo
    mins = np.asarray(profile.minimizers)
    left = np.min(np.abs(lo[:, None] - mins), axis=1) < 1e-14
    right = np.min(np.abs(hi[:, None] - mins), axis=1) < 1e-14
    x = 0.5 * (lo + hi) + 0.5 * h * _GAUSS_X[:, None]
    w = 0.5 * h * _GAUSS_W[:, None]
    t = 0.5 * np.sqrt(h) * (_SUB_X[:, None] + 1.0)
    x_sub = np.where(left, lo + t * t, hi - t * t)
    w_sub = 0.5 * np.sqrt(h) * _SUB_W[:, None] * 2.0 * t
    inv, stiff = 0.0, 0.0
    for e in range(len(h)):
        xe, we = (x_sub[:, e], w_sub[:, e]) if left[e] or right[e] else (x[:, e], w[:, e])
        a = profile.a(lam, xe)
        n0 = (hi[e] - xe) / h[e]
        m = M[e] * n0 + M[e + 1] * (1.0 - n0)
        inv += np.sum(we * m * m / a)
        stiff += np.sum(we * a) * ((M[e + 1] - M[e]) / h[e]) ** 2
    return -0.5 * math.pi * inv - 3.0 * math.pi * stiff / branch.d**2


_TRANSVERSALITY_CASES = {
    "C1": (-1.0, dict(d=1.0, g=9.81, p0=-2.0)),
    "P": (VorticityDistribution.piecewise_constant([-0.5], [0.5, -2.0]), dict(d=1.0, g=1.0, p0=-1.0)),
    "T": (VorticityDistribution.tabulated([-1.0, -0.5, 0.0], [-1.2, -0.3, -1.5]), dict(d=1.0, g=9.81, p0=-2.0)),
    "C1_graded": (-1.0, dict(d=1.0, g=9.81, p0=-2.0)),
}


@pytest.mark.parametrize("name", list(_TRANSVERSALITY_CASES))
def test_transversality_is_the_point_sum(name):
    # The contracted element integrals of a and 1/a N_i N_j give T as the
    # point sums over the interpolated mode do.  C1_graded takes the mode 1e-6
    # above the floor, where the mesh is graded toward the minimizer at the
    # bed, in place of the crossing's.
    gamma, flow = _TRANSVERSALITY_CASES[name]
    pt = find_lambda_star(make_branch(gamma, mesh_points=401, **flow))
    assert isinstance(pt, BifurcationPoint)
    if name.endswith("graded"):
        lam = pt.branch.profile.min_lambda + 1e-6
        pt = replace(pt, lambda_star=lam, mode=pt.branch(lam)[1])
    rule = pt.mode._rule
    assert rule is spectral._mesh_levels(pt.branch.profile, pt.lambda_star, 401)[1][1]
    assert len(rule.sub) > 0
    assert spectral._graded(pt.branch.profile, pt.lambda_star) == name.endswith("graded")
    ref = _transversality_by_points(pt)
    assert ref < 0.0
    assert abs(transversality_integral(pt) - ref) <= 1e-14 * abs(ref)


# -- fixed-mean-depth family ---------------------------------------------------------


def test_onset_irrotational_degenerate():
    branch = Branch(VorticityDistribution.const(0.0), 1.0, 1.0, 1201)
    # lambda != 1: the p0-independent constraint has no solution
    for lam in (0.5, 2.0):
        with pytest.raises(NoSolution, match="^gamma == 0"):
            branch(lam)
    # lambda = 1: the constraint holds for every p0 (degenerate success)
    with pytest.raises(DegenerateConstraint, match="^degenerate: gamma == 0"):
        branch(1.0)
    assert branch.solved == {}


def test_onset_empty_grid(tmp_path):
    config = tmp_path / "config.json"
    config.write_text(json.dumps({
        "flow": {"d": 1, "g": 1, "p0": -1}, "vorticity": {"kind": "constant", "gamma": -1},
    }))
    out = tmp_path / "out"
    argv = ["sweep", "--config", str(config), "--param", "lambda:1:2:0", "--quantity", "onset"]
    assert main([*argv, "--out", str(out)]) == 0
    assert (out / "sweep.csv").read_text() == "lambda,p0,mu,error\n"


def test_onset_crossing_for_moderate_vorticity():
    dist = VorticityDistribution.const(-1.0)
    branch = Branch(dist, 1.0, 1.0, 801)
    mus = np.array([branch(lam)[1].mu_refined for lam in np.linspace(1.1, 3.9, 15)])
    assert min(mus) < -1.0 < max(mus)
    # mu + 1 changes sign between two neighbouring grid points.
    assert np.any((mus[:-1] + 1.0) * (mus[1:] + 1.0) <= 0.0)
