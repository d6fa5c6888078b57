"""First-order wave fields h = H + s M cos q and their diagnostics.

The reconstruction lives on the flattened rectangle [-pi, pi] x [-1, 0]:
q is a uniform periodic grid (the +pi column is identified with -pi and
omitted), p is inherited from the eigenfunction's refined mesh so M is
never interpolated.  field.csv samples that grid at its even p indices,
the nodes of the working mesh (cli._FieldRows); the residuals and the
surface profile read the whole grid.  A WaveField is a frozen value: h, h_q and h_p on that grid,
exactly even (h, h_p) and odd (h_q) in q.  The rest is derived, not stored:
the inverse semi-hodograph map x = q, y = d (h + p), the stream function
psi = p0 p, and the velocities u - c = p0 / (d (1 + h_p)) and
v = p0 h_q / (1 + h_p), which satisfy v = (u - c) d h_q exactly (the
streamline-slope identity) and the kinematic surface condition to first
order.

Memory is one field plus one integrand array: build_wave and
physical_fields make no full-grid array but those they return, and
weak_residual keeps one (n_q, n_p - 1) array of cell integrands beside the
field while it forms the fluxes a block of q rows at a time.
cli.run_reconstruct holds one field at a time.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .bifurcation import BifurcationPoint
from .errors import StagnationAtAmplitude
from .laminar import height_on_mesh
from .vorticity import FlowParameters, GammaProfile

# Cells per block of q rows in weak_residual: the block's temporaries stay
# small beside the field, and each numpy call still has work to amortise.
_BLOCK_CELLS = 1 << 14


@dataclass(frozen=True)
class WaveField:
    """Grid arrays of the reconstructed wave, shape (n_q, n_p).

    h is 2*pi-periodic, h(q, -1) = 0, and h and h_p are even in q and h_q
    odd, all exactly: rows k and n_q - k agree bit for bit.  Nothing
    else is stored: x = q and psi = p0 p are the grid itself, and
    physical_fields derives y, u - c and v.  field.csv relies on the
    symmetry to write row n_q - k from the text of row k, and refuses a
    field without it.
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
    # Each array is its one product, then the laminar part added in place:
    # x + H is H + x bit for bit, and no full-grid temporary is made.
    s_cosq = s * cosq
    h = s_cosq * M[None, :]
    h += H
    h[:, 0] = 0.0
    h_q = -s * sinq * M[None, :]
    h_p = s_cosq * M_p[None, :]
    h_p += H_p
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
    # In place, each product with its factors swapped, which keeps its bits:
    # the three results are the only full-grid arrays made.
    y = field.h + field.p_nodes[None, :]
    y *= d
    y[:, 0] = -d
    denom = 1.0 + field.h_p
    v = flow.p0 * field.h_q
    v /= denom
    denom *= d
    return y, np.divide(flow.p0, denom, out=denom), v


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
    # Rounding is monotone, so 1 + min(h_p) is min(1 + h_p) bit for bit.
    return float(1.0 + np.min(field.h_p))


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

    Memory: the field plus one integrand array.  The fluxes are formed in
    blocks of q rows of about _BLOCK_CELLS cells each, and only div^2 times
    the cell area is kept, in one (n_q, n_p - 1) array summed once at the
    end: the same array, so the same summation order and the same bits, as
    forming the whole grid at once.
    """
    d = flow.d
    p0 = flow.p0
    p = field.p_nodes
    n_q = len(field.q_nodes)
    dq = 2.0 * math.pi / n_q
    dp = np.diff(p)
    area = dq * dp
    gamma_term = profile.primitive(p) / (2.0 * d * d)

    # Cell [q_i, q_{i+1}] x [p_j, p_{j+1}]; the q direction wraps, so the
    # last block reads row 0 as its row n_q.
    density = np.empty((n_q, len(dp)))
    rows = max(1, _BLOCK_CELLS // len(p))
    for i in range(0, n_q, rows):
        j = min(i + rows, n_q)
        h_q = np.take(field.h_q, range(i, j + 1), axis=0, mode="wrap")
        one_hp = 1.0 + np.take(field.h_p, range(i, j + 1), axis=0, mode="wrap")
        f1 = h_q / one_hp
        f2 = -(1.0 + d * d * h_q**2) / (2.0 * d * d * one_hp**2) + gamma_term
        # Rows i .. j - 1 and, rolled by one, i + 1 .. j.
        f1, f1r, f2, f2r = f1[:-1], f1[1:], f2[:-1], f2[1:]
        flux_q = 0.5 * ((f1r[:, :-1] + f1r[:, 1:]) - (f1[:, :-1] + f1[:, 1:])) * dp
        flux_p = 0.5 * ((f2[:, 1:] + f2r[:, 1:]) - (f2[:, :-1] + f2r[:, :-1])) * dq
        div = (flux_q + flux_p) / area
        density[i:j] = div * div * area
    interior = math.sqrt(float(np.sum(density)))

    hp_surf = 1.0 + field.h_p[:, -1]
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
