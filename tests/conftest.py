import math

import pytest

from rotwave import Branch, FlowParameters, GammaProfile, VorticityDistribution, bifurcation
from rotwave.errors import EigenFailure


@pytest.fixture
def pinned_flow():
    """Irrotational flow with p0^2 = tanh(1): the crossing sits at lambda = 1."""
    return FlowParameters(d=1.0, g=1.0, p0=-math.sqrt(math.tanh(1.0)))


@pytest.fixture
def pinned_profile(pinned_flow):
    return GammaProfile.from_distribution(VorticityDistribution.const(0.0), pinned_flow)


def make_profile(gamma=-1.0, d=1.0, g=1.0, p0=-1.0):
    flow = FlowParameters(d=d, g=g, p0=p0)
    if isinstance(gamma, VorticityDistribution):
        dist = gamma
    else:
        dist = VorticityDistribution.const(gamma)
    return GammaProfile.from_distribution(dist, flow), flow


def make_branch(gamma=-1.0, d=1.0, g=1.0, p0=-1.0, mesh_points=2001):
    """The branch of fixed p0 through make_profile's flow."""
    profile, _flow = make_profile(gamma, d=d, g=g, p0=p0)
    return Branch(profile.source, d, g, mesh_points, p0)


@pytest.fixture
def failing_probes(monkeypatch):
    """Make every principal_eigen solve within 0.05 of the admissibility floor fail."""
    solve = bifurcation.principal_eigen

    def failing(profile, flow, lam, **kwargs):
        if lam < profile.min_lambda + 0.05:
            raise EigenFailure("solve failed near the floor")
        return solve(profile, flow, lam, **kwargs)

    monkeypatch.setattr(bifurcation, "principal_eigen", failing)


def spaced_breakpoints():
    """Hypothesis strategy: one to three sorted piecewise-constant break
    points in [-0.95, -0.05], at least the 1e-9 apart that
    VorticityDistribution asks of them."""
    from hypothesis import strategies as st

    interior = st.floats(-0.95, -0.05, allow_subnormal=False)
    return (
        st.lists(interior, min_size=1, max_size=3, unique=True)
        .map(sorted)
        .filter(lambda bps: all(b - a >= 1e-9 for a, b in zip(bps, bps[1:])))
    )
