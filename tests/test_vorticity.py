import math

import numpy as np
import pytest

from rotwave import (
    FlowParameters,
    GammaProfile,
    VorticityDistribution,
    gamma_eval,
    holder_seminorm,
)
from rotwave.errors import InvalidParameter, NonAdmissibleLambda, OutOfDomain

from conftest import make_profile


# -- gamma_eval ----------------------------------------------------------------


def test_eval_constant():
    dist = VorticityDistribution.const(-1.0)
    assert gamma_eval(dist, -0.3) == -1.0


def test_eval_piecewise_right_continuous():
    dist = VorticityDistribution.piecewise_constant([-0.4], [-1.0, 0.0])
    assert gamma_eval(dist, -0.4) == 0.0
    assert gamma_eval(dist, -0.4000001) == -1.0


def test_eval_tabulated_linear():
    dist = VorticityDistribution.tabulated([-1.0, 0.0], [0.0, 2.0])
    assert gamma_eval(dist, -0.5) == pytest.approx(1.0)


def test_eval_out_of_domain():
    dist = VorticityDistribution.const(0.0)
    with pytest.raises(OutOfDomain):
        gamma_eval(dist, 0.5)


def test_distribution_validation():
    with pytest.raises(ValueError):
        VorticityDistribution.piecewise_constant([-0.5, -0.7], [1.0, 2.0, 3.0])
    with pytest.raises(ValueError):
        VorticityDistribution.piecewise_constant([-0.5], [1.0])
    with pytest.raises(ValueError):
        VorticityDistribution.tabulated([-1.0, 0.5], [0.0, 1.0])


@pytest.mark.parametrize(
    "build, field",
    [
        (lambda: FlowParameters(d=1.0, g=0.0, p0=-1.0), "g"),
        (lambda: VorticityDistribution.piecewise_constant([-1.0], [1.0, 2.0]), "breakpoints"),
        (lambda: VorticityDistribution.piecewise_constant([], [1.0, 2.0]), "values"),
        (lambda: VorticityDistribution.tabulated([-1.0, -0.5], [0.0, 1.0]), "nodes"),
        (lambda: VorticityDistribution(kind="spiral"), "kind"),
    ],
)
def test_value_errors_name_their_field(build, field):
    with pytest.raises(InvalidParameter) as info:
        build()
    assert info.value.field == field


# -- GammaProfile.primitive -----------------------------------------------------


def test_primitive_constant():
    # gamma = -1, d = 1, p0 = -1: Gamma(p) = 2p
    prof, _ = make_profile(-1.0)
    assert prof.primitive(-0.5) == pytest.approx(-1.0, abs=1e-14)


def test_primitive_zero_at_surface():
    for gamma in (-1.0, 0.0, 2.5):
        prof, _ = make_profile(gamma)
        assert prof.primitive(0.0) == 0.0


def test_primitive_piecewise_by_hand():
    # gamma = -1 on [-1, -0.5), 0 on [-0.5, 0], d = 1, p0 = -1:
    # int_0^{-1} gamma = +0.5, Gamma(-1) = (2/-1) * 0.5 = -1
    dist = VorticityDistribution.piecewise_constant([-0.5], [-1.0, 0.0])
    prof, _ = make_profile(dist)
    assert prof.primitive(-1.0) == pytest.approx(-1.0, abs=1e-14)
    assert prof.primitive(-0.5) == pytest.approx(0.0, abs=1e-14)


def test_primitive_tabulated_quadratic():
    # gamma(p) = 2p + 2 (linear): int_0^p gamma = p^2 + 2p, Gamma = -2(p^2 + 2p)
    dist = VorticityDistribution.tabulated([-1.0, 0.0], [0.0, 2.0])
    prof, _ = make_profile(dist)
    p = np.linspace(-1.0, 0.0, 11)
    expected = -2.0 * (p * p + 2.0 * p)
    assert prof.primitive(p) == pytest.approx(expected, abs=1e-14)


# -- GammaProfile.gamma_min and p1 -----------------------------------------------


def test_min_increasing():
    prof, _ = make_profile(-1.0)  # Gamma = 2p
    assert (prof.gamma_min, prof.p1) == (pytest.approx(-2.0), pytest.approx(-1.0))


def test_min_flat():
    prof, _ = make_profile(0.0)
    gmin, p1 = prof.gamma_min, prof.p1
    assert gmin == 0.0
    assert p1 == 0.0  # largest point of the flat argmin set


def test_min_decreasing():
    prof, _ = make_profile(1.0)  # Gamma = -2p, minimum at p = 0
    assert (prof.gamma_min, prof.p1) == (pytest.approx(0.0), pytest.approx(0.0))


def test_min_interior_tabulated():
    # gamma(p) = 2p + 1 crosses zero at p = -1/2; Gamma = -(2)(p^2 + p) has
    # a kink-free interior minimum... Gamma(p) = -2(p^2 + p), minimized where
    # gamma = 0 under the negative scale: Gamma' = -2(2p + 1) = 0 at p = -0.5,
    # Gamma(-0.5) = -2(0.25 - 0.5) = 0.5 (a max); minimum at the endpoints:
    # Gamma(-1) = Gamma(0) = 0, so p1 = 0.
    dist = VorticityDistribution.tabulated([-1.0, 0.0], [-1.0, 1.0])
    prof, _ = make_profile(dist)
    gmin, p1 = prof.gamma_min, prof.p1
    assert gmin == pytest.approx(0.0, abs=1e-14)
    assert p1 == 0.0
    # sampled values never undercut the reported minimum
    samples = prof.primitive(np.linspace(-1.0, 0.0, 20001))
    assert np.min(samples) >= gmin - 1e-12


def test_min_no_sample_below_random_piecewise():
    rng = np.random.default_rng(11)
    for _ in range(20):
        k = rng.integers(1, 4)
        bps = np.sort(rng.uniform(-0.9, -0.1, k))
        vals = rng.uniform(-2.0, 2.0, k + 1)
        dist = VorticityDistribution.piecewise_constant(bps, vals)
        prof, _ = make_profile(dist, p0=-float(rng.uniform(0.5, 2.0)))
        gmin, p1 = prof.gamma_min, prof.p1
        samples = prof.primitive(np.linspace(-1.0, 0.0, 4001))
        assert np.min(samples) >= gmin - 1e-12
        assert prof.primitive(p1) == pytest.approx(gmin, abs=1e-13)


def test_profile_build_does_no_holder_work(monkeypatch):
    import rotwave.vorticity

    def forbidden(*args, **kwargs):
        raise AssertionError("holder_seminorm called")

    monkeypatch.setattr(rotwave.vorticity, "holder_seminorm", forbidden)
    dist = VorticityDistribution.tabulated([-1.0, -0.5, 0.0], [-1.2, -0.3, -1.5])
    prof = GammaProfile.from_distribution(dist, FlowParameters(d=1.0, g=9.81, p0=-2.0))
    assert prof.p1 == -1.0


# -- holder_seminorm -------------------------------------------------------------


def test_holder_linear_alpha1():
    prof, _ = make_profile(-1.0)  # Gamma = 2p, p1 = -1
    assert holder_seminorm(prof, 1.0) == pytest.approx(2.0, abs=1e-12)


def test_holder_zero():
    prof, _ = make_profile(0.0)
    assert holder_seminorm(prof, 0.5) == 0.0
    assert holder_seminorm(prof, 1.0) == 0.0


def test_holder_linear_alpha_half():
    # sup of 2|p + 1|^(1/2) over [-1, 0] is 2 at p = 0
    prof, _ = make_profile(-1.0)
    assert holder_seminorm(prof, 0.5) == pytest.approx(2.0, abs=1e-7)


def test_holder_alpha_validation():
    prof, _ = make_profile(-1.0)
    with pytest.raises(ValueError):
        holder_seminorm(prof, 0.0)
    with pytest.raises(ValueError):
        holder_seminorm(prof, 1.5)


# -- GammaProfile.a --------------------------------------------------------------


def test_coefficient_examples():
    prof, _ = make_profile(-1.0)  # Gamma = 2p
    assert prof.a(3.0, -1.0) == pytest.approx(1.0)
    assert prof.a(2.5, -0.5) == pytest.approx(math.sqrt(1.5))
    prof0, _ = make_profile(0.0)
    assert prof0.a(4.0, -0.77) == pytest.approx(2.0)


def test_coefficient_non_admissible():
    prof, _ = make_profile(-1.0)
    with pytest.raises(NonAdmissibleLambda):
        prof.a(1.5, -1.0)  # 1.5 + Gamma(-1) = -0.5


def test_coefficient_identity_a_squared():
    prof, _ = make_profile(-0.7, d=1.3, p0=-0.8)
    p = np.linspace(-1.0, 0.0, 57)
    lam = prof.min_lambda + 0.9
    a = prof.a(lam, p)
    assert a * a - lam == pytest.approx(prof.primitive(p), abs=1e-12)


# -- profile invariants ----------------------------------------------------------


def test_lipschitz_bound():
    rng = np.random.default_rng(5)
    for _ in range(10):
        vals = rng.uniform(-3.0, 3.0, 3)
        dist = VorticityDistribution.piecewise_constant([-0.6, -0.2], vals)
        d = float(rng.uniform(0.5, 2.0))
        p0 = -float(rng.uniform(0.5, 2.0))
        prof, flow = make_profile(dist, d=d, p0=p0)
        lip = 2.0 * d * d * dist.sup_norm() / abs(p0)
        p = np.linspace(-1.0, 0.0, 101)
        gam = prof.primitive(p)
        steps = np.abs(np.diff(gam)) / np.diff(p)
        assert np.all(steps <= lip + 1e-10)


def test_nonnegative_gamma_gives_p1_zero():
    rng = np.random.default_rng(9)
    for _ in range(10):
        vals = rng.uniform(0.0, 2.0, 3)
        dist = VorticityDistribution.piecewise_constant([-0.7, -0.3], vals)
        prof, _ = make_profile(dist, p0=-float(rng.uniform(0.5, 2.0)))
        assert prof.p1 == 0.0
        assert np.all(prof.primitive(np.linspace(-1, 0, 101)) >= -1e-14)


def test_flow_parameter_validation():
    with pytest.raises(ValueError):
        FlowParameters(d=0.0, g=1.0, p0=-1.0)
    with pytest.raises(ValueError):
        FlowParameters(d=1.0, g=-1.0, p0=-1.0)
    with pytest.raises(ValueError):
        FlowParameters(d=1.0, g=1.0, p0=1.0)
