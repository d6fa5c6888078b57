import contextlib
import math
from unittest import mock

import numpy as np
import pytest

from rotwave import Branch, FlowParameters, GammaProfile, VorticityDistribution, bifurcation, numerics, spectral
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


def pencil_bands(flow, nodes, ints):
    """Bands (dA, eA, dB, eB) of a level's pencil (A, B), bed node left out."""
    dA, eA, dB, eB = (band[1:] for band in spectral._bands_from_integrals(ints, np.diff(nodes), flow))
    dA[-1] -= flow.g * flow.d**3
    return dA, eA, dB, eB


@contextlib.contextmanager
def certified_levels():
    """Record every spectral level solve made in the block: the bands
    (dA, eA, dB, eB) of its pencil (A, B), the matvec quotient q and the
    residual bound rho of the pair its Rayleigh-quotient iteration converged
    to (None without one), and whether the secular equation solved it."""
    levels = []
    solve_level, residual_bound, secular_level = (
        spectral._solve_level,
        spectral._residual_bound,
        spectral._secular_level,
    )

    def level(flow, nodes, ints, seed=None):
        levels.append(dict(bands=pencil_bands(flow, nodes, ints), pair=None, secular=False))
        return solve_level(flow, nodes, ints, seed)

    def bound(flow, ints, v, r):
        dA, eA, dB, eB = levels[-1]["bands"]
        q = (v @ numerics._tridiag_matvec(dA, eA, v)) / (v @ numerics._tridiag_matvec(dB, eB, v))
        rho = residual_bound(flow, ints, v, r)
        levels[-1]["pair"] = (q, rho)
        return rho

    def secular(*args):
        levels[-1]["secular"] = True
        return secular_level(*args)

    with mock.patch.multiple(spectral, _solve_level=level, _residual_bound=bound, _secular_level=secular):
        yield levels
