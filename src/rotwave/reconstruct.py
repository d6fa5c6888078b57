"""First-order wave fields h = H + s M cos q and their diagnostics.

The reconstruction lives on the flattened rectangle [-pi, pi] x [-1, 0]:
q is a uniform periodic grid (the +pi column is identified with -pi and
omitted), p is inherited from the eigenfunction mesh so M is never
interpolated.  A WaveField is a frozen value: h, h_q and h_p on that grid,
exactly even (h, h_p) and odd (h_q) in q.  The rest is derived, not stored:
the inverse semi-hodograph map x = q, y = d (h + p), the stream function
psi = p0 p, and the velocities u - c = p0 / (d (1 + h_p)) and
v = p0 h_q / (1 + h_p), which satisfy v = (u - c) d h_q exactly (the
streamline-slope identity) and the kinematic surface condition to first
order.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .bifurcation import BifurcationPoint
from .errors import StagnationAtAmplitude
from .laminar import height_on_mesh
from .vorticity import FlowParameters, GammaProfile


@dataclass(frozen=True)
class WaveField:
    """Grid arrays of the reconstructed wave, shape (n_q, n_p).

    h is 2*pi-periodic, h(q, -1) = 0, and h and h_p are even in q and h_q
    odd, all exactly: rows k and n_q - k agree bit for bit.  Nothing
    else is stored: x = q and psi = p0 p are the grid itself, and
    physical_fields derives y, u - c and v.  field.csv relies on the
    symmetry to reuse the text of row k in row n_q - k, but checks it pair
    by pair, so a field built by hand is written correctly too.  Rows k and
    n_q - k are always formatted by the same process, one per CPU, so the
    file's bytes do not depend on how many CPUs share its rows.
    """

    lam: float
    q_nodes: np.ndarray
    p_nodes: np.ndarray
    h: np.ndarray
    h_q: np.ndarray
    h_p: np.ndarray


def build_wave(point: BifurcationPoint, s: float, n_q: int = 256) -> WaveField:
    """First-order field h(q, p) = H(p) + s M(p) cos q at the crossing.

    The o(s) remainder of the branch is dropped; its size is what the weak
    residuals measure.  Raises StagnationAtAmplitude (with a necessary
    amplitude bound) when min(h_p + 1) <= 0 on the grid.
    """
    if n_q < 16:
        raise ValueError("n_q must be >= 16")
    profile = point.branch.profile
    lam = point.lambda_star
    nodes = point.mode.nodes
    M = point.mode.M
    M_p = np.gradient(M, nodes, edge_order=2)
    H = height_on_mesh(profile, lam, nodes)
    H_p = 1.0 / profile.a(lam, nodes) - 1.0

    k = np.arange(n_q)
    q = -math.pi + 2.0 * math.pi * k / n_q
    # q_{n_q - k} = -q_k, but not in floating point: cos and sin are taken at
    # the mirror index, so h and h_p are exactly even in q and h_q exactly odd.
    mirror = np.minimum(k, n_q - k)
    cosq = np.cos(q[mirror])[:, None]
    sinq = (np.where(k > mirror, -1.0, 1.0) * np.sin(q[mirror]))[:, None]
    h = H[None, :] + s * cosq * M[None, :]
    h[:, 0] = 0.0
    h_q = -s * sinq * M[None, :]
    h_p = H_p[None, :] + s * cosq * M_p[None, :]
    field = WaveField(lam=lam, q_nodes=q, p_nodes=nodes.copy(), h=h, h_q=h_q, h_p=h_p)
    floor = nonstagnation_check(field)
    if floor <= 0.0:
        # 1 + H_p + s M_p cos q > 0 for all q needs s < (1 + H_p) / |M_p|.
        slope = np.abs(M_p)
        bound = (1.0 + H_p[slope > 1e-300]) / slope[slope > 1e-300]
        raise StagnationAtAmplitude(
            f"min(h_p + 1) = {floor!r} <= 0 at amplitude {s!r}",
            critical_s=float(np.min(bound, initial=math.inf)),
        )
    return field


def physical_fields(field: WaveField, flow: FlowParameters):
    """(y, u - c, v) on the grid of field, each of shape (n_q, n_p).

    y = d (h + p) with the bed row exactly -d; u - c = p0 / (d (1 + h_p)),
    which is < 0 since build_wave rejected stagnation; v = p0 h_q / (1 + h_p)
    = (u - c) d h_q.
    """
    d = flow.d
    y = d * (field.h + field.p_nodes[None, :])
    y[:, 0] = -d
    denom = 1.0 + field.h_p
    return y, flow.p0 / (d * denom), flow.p0 * field.h_q / denom


def surface_profile(field: WaveField, flow: FlowParameters):
    """(eta samples, mean over one period).

    On the uniform periodic grid the trapezoidal mean reduces to the plain
    average, which integrates the s M(0) cos q part to zero exactly; the
    remaining mean is d H(0) at first order.
    """
    eta = flow.d * field.h[:, -1]
    return eta, float(np.mean(eta))


def nonstagnation_check(field: WaveField) -> float:
    """min over the grid of h_p + 1; positive means no stagnation."""
    return float(np.min(1.0 + field.h_p))


def weak_residual(
    field: WaveField,
    profile: GammaProfile,
    flow: FlowParameters,
    Q: float,
):
    """Discrete L2 norms of the flux-form interior and surface defects.

    Interior: net flux of (F1, F2) = (h_q/(1+h_p),
    -(1+d^2 h_q^2)/(2 d^2 (1+h_p)^2) + Gamma(p)/(2 d^2)) through each cell
    boundary divided by the cell area, with Gamma evaluated exactly at the
    flux faces (Gamma is continuous across vorticity jumps, so faces on
    jump rows are unambiguous).  Surface: the head condition with the
    supplied Q, sampled at the surface nodes.
    """
    d = flow.d
    p0 = flow.p0
    q = field.q_nodes
    p = field.p_nodes
    n_q = len(q)
    dq = 2.0 * math.pi / n_q
    dp = np.diff(p)

    gamma_term = profile.primitive(p)[None, :] / (2.0 * d * d)
    one_hp = 1.0 + field.h_p
    f1 = field.h_q / one_hp
    f2 = -(1.0 + d * d * field.h_q**2) / (2.0 * d * d * one_hp**2) + gamma_term

    # Cell [q_i, q_{i+1}] x [p_j, p_{j+1}]; the q direction wraps.
    f1r = np.roll(f1, -1, axis=0)
    f2r = np.roll(f2, -1, axis=0)
    flux_q = 0.5 * ((f1r[:, :-1] + f1r[:, 1:]) - (f1[:, :-1] + f1[:, 1:])) * dp[None, :]
    flux_p = 0.5 * ((f2[:, 1:] + f2r[:, 1:]) - (f2[:, :-1] + f2r[:, :-1])) * dq
    area = dq * dp[None, :]
    div = (flux_q + flux_p) / area
    interior = math.sqrt(float(np.sum(div * div * area)))

    hp_surf = one_hp[:, -1]
    hq_surf = field.h_q[:, -1]
    h_surf = field.h[:, -1]
    r_surf = (
        -(1.0 + d * d * hq_surf**2) / (2.0 * d * d * hp_surf**2)
        - flow.g * d * (h_surf + 1.0) / p0**2
        + Q / (2.0 * p0**2)
    )
    boundary = math.sqrt(float(np.sum(r_surf * r_surf) * dq))
    return interior, boundary


def residual_slope(s_values, norms) -> float:
    """Log-log slope of residual norms against amplitude."""
    s = np.asarray(s_values, dtype=float)
    r = np.asarray(norms, dtype=float)
    return float(np.polyfit(np.log(s), np.log(r), 1)[0])
