"""Weighted Sturm-Liouville solves for the wave-mode equation.

Two independent routes to the principal eigenvalue mu(lambda) of

    (a^3 M')' = -mu d^2 a M on (-1, 0),   a^3 M'(0) = (g d^3 / p0^2) M(0),
    M(-1) = 0,           with a(lambda, p) = sqrt(Gamma(p) + lambda):

* a piecewise-linear finite element discretization of the variational
  quotient, with every vorticity jump and every minimizer of Gamma placed
  on the mesh, Richardson extrapolation over a nested refinement, and a
  tridiagonal Rayleigh-quotient iteration seeded by Sylvester-count
  bisection on a coarse mesh;

* a Pruefer-angle shooting method integrating theta' = cos^2(theta)/a^3 +
  mu d^2 a sin^2(theta) from theta(-1) = 0.  The surface condition pins
  theta(0) = atan(p0^2 / (g d^3)) modulo pi, theta(0) grows strictly with
  mu, and floor(theta(0)/pi) counts interior zeros, so the bracketed root
  is guaranteed to be the eigenvalue of the requested index.

A wave mode with integer wavenumber k >= 1 exists at lambda exactly when
mu(lambda) = -k^2.
"""

from __future__ import annotations

import bisect
import math
from dataclasses import dataclass, replace
from typing import Callable, Sequence

import numpy as np

from .errors import (
    BracketFailure,
    EigenFailure,
    NoModeSolution,
    ZeroDenominator,
)
from .numerics import (
    RootSpec,
    bracketed_root,
    count_pencil_eigenvalues_below,
    smallest_eigenpair_tridiagonal,
)
from .vorticity import ElementRule, FlowParameters, GammaProfile

_COARSE_POINTS = 201


@dataclass(frozen=True)
class ModeSolution:
    """Eigenpair of the mode equation at fixed lambda.

    ``mu`` is the Rayleigh quotient of the stored nodal eigenfunction M
    (so the quotient identity holds to round-off); ``mu_refined`` is the
    Richardson-extrapolated eigenvalue used for curves and root finding.
    ``k`` is the associated wavenumber for pinned mode solves, 0 otherwise.
    ``flux`` holds the conserved combination a^3 M_p at the nodes.
    """

    lam: float
    k: int
    mu: float
    mu_refined: float
    nodes: np.ndarray
    M: np.ndarray
    flux: np.ndarray


def _graded(profile: GammaProfile, lam: float) -> bool:
    """Whether build_mesh grades toward the minimizers at this lambda, the
    one way in which the mesh depends on lambda."""
    return lam - profile.min_lambda < 1e-3 * max(1.0, abs(profile.gamma_min))


def build_mesh(profile: GammaProfile, lam: float, n_points: int) -> np.ndarray:
    """Mesh on [-1, 0] containing every jump and minimizer of Gamma.

    When lambda sits close to the admissibility floor the segments touching
    a minimizer are graded quadratically toward it.  Every segment starts
    and ends exactly on its anchors, so no round-off sliver element can
    appear next to a jump.
    """
    anchors = sorted({-1.0, 0.0, *profile.jump_points, *profile.minimizers})
    grade = _graded(profile, lam)
    mins = set(profile.minimizers)
    total = anchors[-1] - anchors[0]
    pieces = []
    for aL, aR in zip(anchors[:-1], anchors[1:]):
        n_seg = max(4, int(round((n_points - 1) * (aR - aL) / total)))
        u = np.linspace(0.0, 1.0, n_seg + 1)
        if grade and aL in mins and aR in mins:
            half = np.linspace(0.0, 1.0, (n_seg + 1) // 2 + 1)
            left = aL + 0.5 * (aR - aL) * half**2
            right = aR - 0.5 * (aR - aL) * half[::-1] ** 2
            x = np.concatenate([left[:-1], right])
        elif grade and aL in mins:
            x = aL + (aR - aL) * u**2
        elif grade and aR in mins:
            x = aR - (aR - aL) * (1.0 - u) ** 2
        else:
            x = aL + (aR - aL) * u
        x[0] = aL
        x[-1] = aR
        pieces.append(x)
    return np.unique(np.concatenate(pieces))


def refine_mesh(nodes: np.ndarray) -> np.ndarray:
    mids = 0.5 * (nodes[:-1] + nodes[1:])
    return np.sort(np.concatenate([nodes, mids]))


def _mesh_levels(profile: GammaProfile, lam: float, mesh_points: int):
    """The (nodes, ElementRule) pairs of the coarse, working and refined
    levels of principal_eigen.

    They depend on lambda only through the grading of build_mesh, so they
    are built once per (mesh_points, grading) and kept on the profile.  The
    node arrays are shared by every ModeSolution on them, so read-only.
    """
    key = (mesh_points, _graded(profile, lam))
    levels = profile._mesh_levels.get(key)
    if levels is None:
        coarse = build_mesh(profile, lam, min(_COARSE_POINTS, mesh_points))
        fine = build_mesh(profile, lam, mesh_points)
        levels = []
        for nodes in (coarse, fine, refine_mesh(fine)):
            nodes.setflags(write=False)
            levels.append((nodes, ElementRule(profile, nodes)))
        profile._mesh_levels[key] = levels
    return levels


def _element_integrals(rule: ElementRule, lam: float):
    """Per-element integrals of a^3 and of a against the P1 basis products.

    Returns the rows (s1, m00, m01, m11) with s1 = int a^3 and
    m.. = int a N_i N_j on each element.
    """

    def weighted(q):
        a = np.sqrt(lam + q.gamma)
        w_a = q.w * a
        yield q.w * a**3
        yield w_a * q.n0 * q.n0
        yield w_a * q.n0 * q.n1
        yield w_a * q.n1 * q.n1

    return rule.integrate(weighted)


def _bands_from_integrals(ints, h: np.ndarray, flow: FlowParameters):
    """Tridiagonal (A, B) bands from per-element integrals.

    A = p0^2 * (a^3-weighted stiffness) - g d^3 at the surface node;
    B = p0^2 d^2 * (a-weighted mass).  Node 0 (the bed) is still included;
    solvers drop it to enforce M(-1) = 0.
    """
    s1, m00, m01, m11 = ints
    n = len(h) + 1
    k_e = s1 / (h * h)
    dK = np.zeros(n)
    dK[:-1] += k_e
    dK[1:] += k_e
    eK = -k_e
    dM = np.zeros(n)
    dM[:-1] += m00
    dM[1:] += m11
    eM = m01.copy()

    p0sq = flow.p0**2
    dA = p0sq * dK
    eA = p0sq * eK
    dA[-1] -= flow.g * flow.d**3
    dB = p0sq * flow.d**2 * dM
    eB = p0sq * flow.d**2 * eM
    return dA, eA, dB, eB


def assemble(
    profile: GammaProfile, flow: FlowParameters, lam: float, nodes: np.ndarray
):
    """Tridiagonal (A, B) bands of the quotient on the given mesh."""
    nodes = np.asarray(nodes, dtype=float)
    ints = _element_integrals(ElementRule(profile, nodes), lam)
    return _bands_from_integrals(ints, np.diff(nodes), flow)


def _quotient_from_integrals(ints, h, M, flow) -> float:
    """Quotient of a nodal P1 function from element-wise energies.

    Summing positive per-element energies avoids the cancellation that the
    assembled 1/h-scaled matrix entries would introduce.
    """
    s1, m00, m01, m11 = ints
    slope = np.diff(M) / h
    stiff = float(np.sum(s1 * slope * slope))
    v0 = M[:-1]
    v1 = M[1:]
    mass = float(np.sum(m00 * v0 * v0 + 2.0 * m01 * v0 * v1 + m11 * v1 * v1))
    if mass <= 1e-300:
        raise ZeroDenominator("mass quadratic form vanished")
    p0sq = flow.p0**2
    num = p0sq * stiff - flow.g * flow.d**3 * M[-1] ** 2
    return num / (p0sq * flow.d**2 * mass)


def _bisect_smallest(dA, eA, dB, eB, rel_tol=1e-3):
    """Smallest pencil eigenvalue by Sylvester-count bisection.

    O(n) per step and BLAS-free.  The default tolerance seeds the Rayleigh
    quotient iteration inside its basin of attraction; a tight one places
    the shift next to the smallest eigenvalue when a seed from a coarser
    mesh led the iteration to a larger one.
    """
    def count(tau):
        return count_pencil_eigenvalues_below(dA, eA, dB, eB, tau)

    if count(0.0) >= 1:
        hi = 0.0
        lo = -1.0
        while count(lo) >= 1:
            hi = lo
            lo *= 4.0
            if lo < -1e14:
                raise EigenFailure("bisection found no lower bound on the spectrum")
    else:
        lo = 0.0
        hi = 1.0
        while count(hi) < 1:
            lo = hi
            hi *= 4.0
            if hi > 1e14:
                raise EigenFailure("bisection found no upper bound on the spectrum")
    while hi - lo > rel_tol * max(1.0, abs(lo), abs(hi)):
        mid = 0.5 * (lo + hi)
        if count(mid) >= 1:
            hi = mid
        else:
            lo = mid
    return 0.5 * (lo + hi)


def _solve_level(flow, lam, nodes, rule, seed=None):
    """One mesh level: banded Rayleigh-quotient iteration on its pencil.

    ``seed`` is (sigma0, v0) from a coarser level.  Without one, the shift
    comes from a rough bisection of this level's pencil.  When the
    iteration fails its residual or inertia check, it is restarted from a
    bisection of this level's pencil to 1e-12 relative.  Returns (mu,
    M_full) where mu is the element-energy quotient of the
    surface-normalized eigenfunction (the value whose Rayleigh identity is
    exact) and M_full includes the bed node M(-1) = 0.
    """
    h = np.diff(nodes)
    ints = _element_integrals(rule, lam)
    pencil = [band[1:] for band in _bands_from_integrals(ints, h, flow)]
    if seed is None:
        seed = (_bisect_smallest(*pencil), None)
    try:
        _, v = smallest_eigenpair_tridiagonal(*pencil, *seed)
    except EigenFailure:
        sigma = _bisect_smallest(*pencil, rel_tol=1e-12)
        _, v = smallest_eigenpair_tridiagonal(*pencil, sigma, None)
    M = np.concatenate([[0.0], v])
    return _quotient_from_integrals(ints, h, M, flow), M


def _element_flux(profile, lam, nodes, M):
    """a^3 M_p on each element, with a taken at the element midpoint."""
    mid = 0.5 * (nodes[:-1] + nodes[1:])
    a_mid = np.sqrt(lam + profile.primitive(mid))
    return a_mid**3 * np.diff(M) / np.diff(nodes)


def _nodal_flux(profile, lam, nodes, M):
    """a^3 M_p at the nodes from element fluxes, averaged at interior nodes."""
    w_el = _element_flux(profile, lam, nodes, M)
    w = np.empty(len(nodes))
    w[0] = w_el[0]
    w[-1] = w_el[-1]
    w[1:-1] = 0.5 * (w_el[:-1] + w_el[1:])
    return w


def principal_eigen(
    profile: GammaProfile,
    flow: FlowParameters,
    lam: float,
    mesh_points: int = 2001,
) -> ModeSolution:
    """Principal eigenpair (mu(lambda), M) of the mode-equation quotient.

    A coarse inertia-count bisection seeds a tridiagonal Rayleigh-quotient
    iteration on the working mesh and its uniform refinement; the two
    levels give a Richardson-extrapolated ``mu_refined`` while the stored M
    and ``mu`` come from the finer level.  M is normalized to M(0) = 1.
    The three mesh levels and their element quadrature are built once per
    profile (and grading near the floor), not once per lambda.
    """
    profile.require_admissible(lam)
    (coarse, rule_c), (fine, rule_f), (finer, rule_2) = _mesh_levels(profile, lam, mesh_points)
    mu_c, m_c = _solve_level(flow, lam, coarse, rule_c)
    mu_f, m_f = _solve_level(
        flow, lam, fine, rule_f, (mu_c, np.interp(fine[1:], coarse, m_c))
    )
    mu_2, m_2 = _solve_level(
        flow, lam, finer, rule_2, (mu_f, np.interp(finer[1:], fine, m_f))
    )
    mu_refined = mu_2 + (mu_2 - mu_f) / 3.0

    flux = _nodal_flux(profile, lam, finer, m_2)
    return ModeSolution(
        lam=lam,
        k=0,
        mu=mu_2,
        mu_refined=mu_refined,
        nodes=finer,
        M=m_2,
        flux=flux,
    )


def rayleigh_quotient(
    profile: GammaProfile,
    flow: FlowParameters,
    lam: float,
    phi,
    phi_p: Callable[[float], float] | None = None,
) -> float:
    """Quotient F(lambda, phi) whose infimum over {phi(-1)=0} is mu(lambda).

    ``phi`` may be a ModeSolution (evaluated through the same element
    quadrature as the solver, so the identity F(M) == mu is exact to
    round-off) or a scalar callable with optional analytic derivative
    ``phi_p`` (central differences otherwise), evaluated at the points of
    the element quadrature on build_mesh(profile, lam, 2001).
    """
    profile.require_admissible(lam)
    if isinstance(phi, ModeSolution):
        ints = _element_integrals(ElementRule(profile, phi.nodes), lam)
        return _quotient_from_integrals(ints, np.diff(phi.nodes), phi.M, flow)

    if phi_p is None:
        def phi_p(p, _h=1e-6):
            x = min(max(p, -1.0 + _h), -_h)
            return (phi(x + _h) - phi(x - _h)) / (2.0 * _h)

    nodes = build_mesh(profile, lam, 2001)
    lo, h = nodes[:-1], np.diff(nodes)

    def weighted(q):
        x = lo[q.elements, None] + q.n1 * h[q.elements, None]
        a = np.sqrt(lam + q.gamma)
        dphi = np.vectorize(phi_p, otypes=[float])(x)
        val = np.vectorize(phi, otypes=[float])(x)
        return [q.w * a**3 * dphi * dphi, q.w * a * val * val]

    stiff, mass = ElementRule(profile, nodes).integrate(weighted).sum(axis=1)
    if mass <= 1e-30:
        raise ZeroDenominator("integral of a*phi^2 is numerically zero")
    p0sq = flow.p0**2
    num = -flow.g * flow.d**3 * float(phi(0.0)) ** 2 + p0sq * stiff
    return num / (p0sq * flow.d**2 * mass)


def _scalar_gamma_primitive(profile: GammaProfile):
    """Fast scalar closure for Gamma(p), for ODE right-hand sides."""
    knots = [float(x) for x in profile._knots]
    g0 = [float(x) for x in profile._g0]
    g1 = [float(x) for x in profile._g1]
    jk = [float(x) for x in profile._jknots]
    scale = profile._scale
    j_end = jk[-1]
    nmax = len(g0) - 1

    def gamma_of(p: float) -> float:
        j = bisect.bisect_right(knots, p) - 1
        if j < 0:
            j = 0
        elif j > nmax:
            j = nmax
        dp = p - knots[j]
        # Summed as GammaProfile.primitive sums, so both give the same floats.
        return scale * (jk[j] + (g0[j] * dp + 0.5 * g1[j] * dp * dp) - j_end)

    return gamma_of


def _prufer_angle(profile, flow, lam, mu) -> float:
    """theta(0) for the angle ODE started at theta(-1) = 0.

    Integration restarts at every vorticity jump and Gamma minimizer so the
    one-step method never crosses a kink of the coefficients.
    """
    from scipy.integrate import solve_ivp  # only shooting needs it; keeps CLI start-up light

    gamma_of = _scalar_gamma_primitive(profile)
    d2 = flow.d**2
    stops = sorted(
        {-1.0, 0.0}
        | {float(j) for j in profile.jump_points}
        | {float(m) for m in profile.minimizers if -1.0 < m < 0.0}
    )

    def rhs(p, th):
        a = math.sqrt(lam + gamma_of(p))
        s = math.sin(th[0])
        c = math.cos(th[0])
        return [c * c / (a * a * a) + mu * d2 * a * s * s]

    theta = 0.0
    for aL, aR in zip(stops[:-1], stops[1:]):
        sol = solve_ivp(
            rhs,
            (aL, aR),
            [theta],
            method="DOP853",
            rtol=1e-11,
            atol=1e-12,
        )
        if not sol.success:
            raise EigenFailure(f"angle integration failed on [{aL}, {aR}]")
        theta = float(sol.y[0, -1])
    return theta


def shooting_mu(
    profile: GammaProfile,
    flow: FlowParameters,
    lam: float,
    k: int = 0,
) -> float:
    """Eigenvalue of index ``k`` (0 = principal) by Pruefer shooting.

    Independent of the finite element route: an initial value problem in
    the Pruefer angle plus a bracketed root solve in mu.  The angle at the
    surface increases strictly with mu and equals
    atan(p0^2/(g d^3)) + k pi exactly at the index-k eigenvalue, which also
    certifies that the eigenfunction has k interior zeros.
    """
    profile.require_admissible(lam)
    if k < 0:
        raise ValueError("k must be >= 0")
    c_surf = flow.g * flow.d**3 / flow.p0**2
    target = math.atan2(1.0, c_surf) + k * math.pi

    def mismatch(mu):
        return _prufer_angle(profile, flow, lam, mu) - target

    r0 = mismatch(0.0)
    if r0 == 0.0:
        return 0.0
    if r0 < 0.0:
        lo, f_lo = 0.0, r0
        step = 1.0
        while True:
            hi = step
            f_hi = mismatch(hi)
            if f_hi >= 0.0:
                break
            if step > 1e9:
                raise BracketFailure("no eigenvalue bracket below mu = 1e9")
            lo, f_lo = hi, f_hi
            step *= 4.0
    else:
        hi, f_hi = 0.0, r0
        step = -1.0
        while True:
            lo = step
            f_lo = mismatch(lo)
            if f_lo <= 0.0:
                break
            if step < -1e9:
                raise BracketFailure("no eigenvalue bracket above mu = -1e9")
            hi, f_hi = lo, f_lo
            step *= 4.0
    spec = RootSpec(x_tol=1e-12 * max(1.0, abs(lo), abs(hi)), f_tol=1e-10, max_iter=300)
    mu = bracketed_root(mismatch, lo, hi, spec)
    zeros = int(math.floor((_prufer_angle(profile, flow, lam, mu) + 1e-9) / math.pi))
    if zeros != k:
        raise EigenFailure(
            f"shooting converged with {zeros} interior zeros, expected {k}"
        )
    return mu


def mode_k_solution(
    profile: GammaProfile,
    flow: FlowParameters,
    lam: float,
    k: int,
    mesh_points: int = 2001,
    tol: float = 1e-6,
) -> ModeSolution:
    """The wave mode of wavenumber k at lambda, when it exists.

    Exists exactly when the principal eigenvalue equals -k^2; the k = 0
    mode is always trivial (M == 0) and reported as NoModeSolution.
    """
    if k < 0:
        raise ValueError("k must be >= 0")
    if k == 0:
        raise NoModeSolution("the zero mode admits only M == 0")
    sol = principal_eigen(profile, flow, lam, mesh_points=mesh_points)
    if abs(sol.mu_refined + k * k) > tol * max(1.0, float(k * k)):
        raise NoModeSolution(
            f"principal eigenvalue {sol.mu_refined!r} != -{k * k} at lambda={lam!r}",
            mu=sol.mu_refined,
        )
    return replace(sol, k=k)


@dataclass(frozen=True)
class MuCurve:
    """Sampled (lambda, mu) pairs plus any monotonicity violations found."""

    points: tuple
    monotonicity_violations: tuple


def mu_curve(
    profile: GammaProfile,
    flow: FlowParameters,
    lambda_grid: Sequence[float],
    mesh_points: int = 2001,
    known: Sequence[tuple] = (),
) -> MuCurve:
    """mu(lambda) on a grid; flags non-monotone steps where mu < 0.

    ``known`` holds (lambda, mu) pairs already solved on this profile and
    mesh, such as a search's ``mu_samples``; grid points among them are not
    solved again.
    """
    known = dict(known)
    pts = []
    for lam in lambda_grid:
        mu = known.get(lam)
        if mu is None:
            mu = principal_eigen(profile, flow, lam, mesh_points=mesh_points).mu_refined
        pts.append((float(lam), mu))
    pts.sort(key=lambda t: t[0])
    violations = []
    for (l1, m1), (l2, m2) in zip(pts[:-1], pts[1:]):
        if m1 < 0.0 and m2 < 0.0 and m2 <= m1 - 1e-10 * max(1.0, abs(m1)):
            violations.append((l1, l2, m1, m2))
    return MuCurve(points=tuple(pts), monotonicity_violations=tuple(violations))


def flux_jump_defect(mode: ModeSolution, profile: GammaProfile):
    """Largest mismatch of the one-sided fluxes a^3 M_p at vorticity jumps.

    Returns (max defect, widest element adjacent to a jump); the defect
    shrinks linearly with the mesh because the true flux is continuous.
    """
    nodes = mode.nodes
    h = np.diff(nodes)
    w_el = _element_flux(profile, mode.lam, nodes, mode.M)
    worst = 0.0
    width = 0.0
    for j in profile.jump_points:
        i = int(np.argmin(np.abs(nodes - j)))
        if not 0 < i < len(nodes) - 1:
            continue
        worst = max(worst, abs(w_el[i] - w_el[i - 1]))
        width = max(width, h[i - 1], h[i])
    return worst, width
