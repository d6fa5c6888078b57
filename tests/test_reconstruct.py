import dataclasses
import math

import numpy as np
import pytest

from rotwave import (
    BifurcationPoint,
    VorticityDistribution,
    build_wave,
    find_lambda_star,
    hydraulic_head,
    nonstagnation_check,
    physical_fields,
    residual_slope,
    surface_profile,
    weak_residual,
)
from rotwave import reconstruct
from rotwave.errors import StagnationAtAmplitude
from rotwave.laminar import height_on_mesh

from conftest import make_branch, make_profile


def _pinned_point():
    p0 = -math.sqrt(math.tanh(1.0))
    branch = make_branch(VorticityDistribution.const(0.0), p0=p0)
    pt = find_lambda_star(branch)
    assert isinstance(pt, BifurcationPoint)
    return pt, branch.profile, branch.flow


# -- build_wave ---------------------------------------------------------------


def test_build_zero_amplitude_is_laminar():
    pt, prof, flow = _pinned_point()
    field = build_wave(pt, 0.0, 64)
    assert np.ptp(field.h, axis=0) == pytest.approx(np.zeros(len(field.p_nodes)), abs=1e-15)
    assert nonstagnation_check(field) == pytest.approx(1.0, abs=1e-9)


def test_build_pinned_amplitude():
    pt, prof, flow = _pinned_point()
    field = build_wave(pt, 0.05, 64)
    iq0 = int(np.argmin(np.abs(field.q_nodes)))
    assert field.q_nodes[iq0] == pytest.approx(0.0, abs=1e-14)
    assert field.h[iq0, -1] == pytest.approx(0.05, abs=1e-9)
    assert field.h[0, -1] == pytest.approx(-0.05, abs=1e-9)  # q = -pi column


def test_build_bed_row_zero():
    pt, prof, flow = _pinned_point()
    field = build_wave(pt, 0.07, 32)
    assert np.all(field.h[:, 0] == 0.0)


def test_build_even_and_periodic():
    pt, prof, flow = _pinned_point()
    for n in (16, 64, 256):
        field = build_wave(pt, 0.03, n)
        # q grid is -pi + 2 pi i / n: index i and n - i mirror each other, and
        # the -pi row is its own mirror; evenness holds bit for bit
        for i in range(1, n // 2):
            assert np.array_equal(field.h[i], field.h[n - i])
            assert np.array_equal(field.h_p[i], field.h_p[n - i])
            assert np.array_equal(field.h_q[i], -field.h_q[n - i])


def test_build_rejects_small_grid():
    pt, prof, flow = _pinned_point()
    with pytest.raises(ValueError):
        build_wave(pt, 0.01, 8)


def test_stagnation_amplitude_bound():
    pt, prof, flow = _pinned_point()
    # max |M_p| = cosh(1)/sinh(1) so the necessary bound is tanh(1)
    with pytest.raises(StagnationAtAmplitude) as err:
        build_wave(pt, 0.9, 64)
    assert err.value.critical_s == pytest.approx(math.tanh(1.0), abs=1e-4)


def test_nonstagnation_linear_amplitude_decay():
    pt, prof, flow = _pinned_point()
    s = 0.04
    field = build_wave(pt, s, 128)
    expected = 1.0 - s * math.cosh(1.0) / math.sinh(1.0)
    assert nonstagnation_check(field) == pytest.approx(expected, abs=1e-6)


# -- physical_fields ---------------------------------------------------------------


def test_physical_map_laminar_rows():
    pt, prof, flow = _pinned_point()
    field = build_wave(pt, 0.0, 32)
    y, _u_rel, _v = physical_fields(field, flow)
    # H == 0 at lambda* = 1, so streamlines sit at y = d p
    assert y == pytest.approx(np.broadcast_to(field.p_nodes, y.shape), abs=1e-9)
    assert np.all(y[:, 0] == -flow.d)


def test_physical_map_surface_elevation():
    pt, prof, flow = _pinned_point()
    field = build_wave(pt, 0.05, 64)
    eta, _mean = surface_profile(field, flow)
    iq0 = int(np.argmin(np.abs(field.q_nodes)))
    assert eta[iq0] == pytest.approx(0.05, abs=1e-9)


def test_velocity_laminar_uniform():
    pt, prof, flow = _pinned_point()
    _y, u_rel, v = physical_fields(build_wave(pt, 0.0, 32), flow)
    assert u_rel == pytest.approx(np.full_like(u_rel, flow.p0), abs=1e-9)
    assert v == pytest.approx(np.zeros_like(v), abs=1e-15)


def test_velocity_surface_dispersion_identity():
    # laminar flow at any admissible lambda: d u_rel / p0 = sqrt(lambda) on p = 0
    prof, flow = make_profile(-1.0, d=1.3, p0=-0.9)
    lam = prof.min_lambda + 1.1
    a_surf = prof.a(lam, 0.0)
    u_surf = flow.p0 / (flow.d * (1.0 / a_surf))
    assert flow.d * u_surf / flow.p0 == pytest.approx(math.sqrt(lam), abs=1e-12)


def test_velocity_first_order_sample():
    pt, prof, flow = _pinned_point()
    field = build_wave(pt, 0.05, 128)
    _y, _u_rel, v = physical_fields(field, flow)
    iq = int(np.argmin(np.abs(field.q_nodes - math.pi / 2.0)))
    # h_q = -s M(0) sin(q), h_p = s M_p(0) cos(q) ~ 0 at q = pi/2
    expected = flow.p0 * (-0.05) / 1.0
    assert v[iq, -1] == pytest.approx(expected, abs=1e-6)


def test_velocity_streamline_duality():
    pt, prof, flow = _pinned_point()
    field = build_wave(pt, 0.06, 64)
    _y, u_rel, v = physical_fields(field, flow)
    # v = (u - c) d h_q exactly, the streamline-slope identity
    assert v == pytest.approx(u_rel * flow.d * field.h_q, abs=1e-14)


def test_kinematic_surface_condition_first_order():
    pt, prof, flow = _pinned_point()
    s = 0.02
    field = build_wave(pt, s, 512)
    _y, u_rel, v = physical_fields(field, flow)
    eta, _mean = surface_profile(field, flow)
    dq = field.q_nodes[1] - field.q_nodes[0]
    eta_x = (np.roll(eta, -1) - np.roll(eta, 1)) / (2.0 * dq)
    defect = v[:, -1] - u_rel[:, -1] * eta_x
    # O(s^2) from the dropped branch remainder + O(dq^2) from differencing
    assert np.max(np.abs(defect)) <= 5.0 * (s * s + dq * dq)


def test_wave_field_is_frozen():
    pt, prof, flow = _pinned_point()
    field = build_wave(pt, 0.01, 16)
    with pytest.raises(dataclasses.FrozenInstanceError):
        field.h = field.h_q


# -- surface_profile ---------------------------------------------------------------


def test_surface_mean_zero_pinned():
    pt, prof, flow = _pinned_point()
    field = build_wave(pt, 0.37, 256)
    _eta, mean = surface_profile(field, flow)
    assert mean == pytest.approx(0.0, abs=1e-12)


def test_surface_mean_matches_laminar_height():
    # without the depth normalization the mean equals d H(0; lambda); build
    # a synthetic point at lambda = 3 to exercise the laminar mean directly
    branch = make_branch(-1.0)
    prof, flow = branch.profile, branch.flow
    point = BifurcationPoint(
        lambda_star=3.0,
        lambda0=3.0,
        lambda_lo=2.5,
        Q_star=hydraulic_head(prof, flow, 3.0),
        mode=branch(3.0)[1],
        mu_residual=0.0,
        mu_at_lambda0=0.0,
        branch=branch,
    )
    field = build_wave(point, 0.0, 128)
    _eta, mean = surface_profile(field, flow)
    assert mean == pytest.approx((math.sqrt(3.0) - 1.0) - 1.0, abs=1e-9)
    assert mean == pytest.approx(flow.d * height_on_mesh(prof, 3.0, [0.0])[0], abs=1e-9)


# -- weak_residual -----------------------------------------------------------------


def test_residual_laminar_baseline():
    pt, prof, flow = _pinned_point()
    field = build_wave(pt, 0.0, 128)
    interior, boundary = weak_residual(field, prof, flow, pt.Q_star)
    assert interior <= 1e-12
    assert boundary <= 1e-10


def test_residual_laminar_rotational_baseline():
    branch = make_branch(-1.0)
    prof, flow = branch.profile, branch.flow
    point = BifurcationPoint(
        lambda_star=3.0,
        lambda0=3.0,
        lambda_lo=2.5,
        Q_star=hydraulic_head(prof, flow, 3.0),
        mode=branch(3.0)[1],
        mu_residual=0.0,
        mu_at_lambda0=0.0,
        branch=branch,
    )
    for n_q in (64, 128):
        field = build_wave(point, 0.0, n_q)
        interior, boundary = weak_residual(field, prof, flow, point.Q_star)
        assert interior <= 1e-11
        assert boundary <= 1e-9


def test_residual_quadratic_in_amplitude():
    pt, prof, flow = _pinned_point()
    norms = []
    amps = [0.01, 0.02, 0.04]
    for s in amps:
        field = build_wave(pt, s, 512)
        interior, boundary = weak_residual(field, prof, flow, pt.Q_star)
        norms.append(interior)
    slope = residual_slope(amps, norms)
    assert 1.8 <= slope <= 2.2


def _whole_grid_residual(field, profile, flow, Q):
    """weak_residual's interior norm as one expression over the whole grid:
    the reference the blocks of q rows must match bit for bit."""
    d = flow.d
    n_q = len(field.q_nodes)
    dq = 2.0 * math.pi / n_q
    dp = np.diff(field.p_nodes)
    gamma_term = profile.primitive(field.p_nodes)[None, :] / (2.0 * d * d)
    one_hp = 1.0 + field.h_p
    f1 = field.h_q / one_hp
    f2 = -(1.0 + d * d * field.h_q**2) / (2.0 * d * d * one_hp**2) + gamma_term
    f1r = np.roll(f1, -1, axis=0)
    f2r = np.roll(f2, -1, axis=0)
    flux_q = 0.5 * ((f1r[:, :-1] + f1r[:, 1:]) - (f1[:, :-1] + f1[:, 1:])) * dp[None, :]
    flux_p = 0.5 * ((f2[:, 1:] + f2r[:, 1:]) - (f2[:, :-1] + f2r[:, :-1])) * dq
    area = dq * dp[None, :]
    div = (flux_q + flux_p) / area
    return math.sqrt(float(np.sum(div * div * area)))


def _crossing_point(name):
    """The crossing of C1, P (one jump at mid-depth) or T (tabulated) at 201 points."""
    gamma, g, p0 = {
        "C1": (-1.0, 9.81, -2.0),
        "P": (VorticityDistribution.piecewise_constant([-0.5], [0.5, -2.0]), 1.0, -1.0),
        "T": (VorticityDistribution.tabulated([-1.0, -0.5, 0.0], [-1.2, -0.3, -1.5]), 9.81, -2.0),
    }[name]
    branch = make_branch(gamma, g=g, p0=p0, mesh_points=201)
    point = find_lambda_star(branch)
    assert isinstance(point, BifurcationPoint)
    return point, branch.profile, branch.flow


def _bits(a):
    return np.asarray(a, dtype=float).view(np.int64)


@pytest.mark.parametrize("name", ["C1", "P", "T"])
def test_in_place_arithmetic_keeps_every_bit(monkeypatch, name):
    """build_wave, physical_fields, nonstagnation_check and weak_residual
    against the whole-grid expressions they replace, bit for bit: blocks of
    1, 5 (which divides none of the n_q), n_q - 1 (a last block of one row,
    whose rolled row is row 0) and n_q rows (the q wrap inside one block),
    and the default size."""
    point, profile, flow = _crossing_point(name)
    nodes, M = point.mode.nodes, point.mode.M
    M_p = np.gradient(M, nodes, edge_order=2)
    H = height_on_mesh(profile, point.lambda_star, nodes)
    H_p = 1.0 / profile.a(point.lambda_star, nodes) - 1.0
    for n_q in (16, 17, 33):
        for s in (0.0, 0.01):
            field = build_wave(point, s, n_q)
            k = np.arange(n_q)
            mirror = np.minimum(k, n_q - k)
            cosq = np.cos(field.q_nodes[mirror])[:, None]
            h = H[None, :] + s * cosq * M[None, :]
            h[:, 0] = 0.0
            assert np.array_equal(_bits(field.h), _bits(h))
            assert np.array_equal(_bits(field.h_p), _bits(H_p[None, :] + s * cosq * M_p[None, :]))
            assert _bits(nonstagnation_check(field)) == _bits(np.min(1.0 + field.h_p))

            y, u_rel, v = physical_fields(field, flow)
            y_ref = flow.d * (field.h + field.p_nodes[None, :])
            y_ref[:, 0] = -flow.d
            denom = 1.0 + field.h_p
            for got, ref in ((y, y_ref), (u_rel, flow.p0 / (flow.d * denom)), (v, flow.p0 * field.h_q / denom)):
                assert np.array_equal(_bits(got), _bits(ref))

            reference = _whole_grid_residual(field, profile, flow, point.Q_star)
            boundary = weak_residual(field, profile, flow, point.Q_star)[1]
            for rows in (None, 1, 5, n_q - 1, n_q):
                if rows is not None:
                    monkeypatch.setattr(reconstruct, "_BLOCK_CELLS", rows * len(nodes))
                got = weak_residual(field, profile, flow, point.Q_star)
                assert (got[0].hex(), got[1].hex()) == (reference.hex(), boundary.hex())
            monkeypatch.undo()


def test_residual_slope_helper():
    s = [0.01, 0.02, 0.04]
    assert residual_slope(s, [x**2 for x in s]) == pytest.approx(2.0, abs=1e-12)
