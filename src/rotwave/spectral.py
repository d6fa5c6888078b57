"""Weighted Sturm-Liouville solves for the wave-mode equation.

Two independent routes to the principal eigenvalue mu(lambda) of

    (a^3 M')' = -mu d^2 a M on (-1, 0),   a^3 M'(0) = (g d^3 / p0^2) M(0),
    M(-1) = 0,           with a(lambda, p) = sqrt(Gamma(p) + lambda):

* a piecewise-linear finite element discretization of the variational
  quotient, with every vorticity jump and every minimizer of Gamma placed
  on the mesh, and Richardson extrapolation over a nested refinement.  A
  level is solved by the secular equation of the pencil's rank-one surface
  term (Golub, SIAM Rev. 15, 1973), unless a seed's Rayleigh-quotient
  iteration gives a pair certified principal (_solve_level).  The working
  level is seeded from the modes of neighbouring lambdas, by their secant
  where two share its mesh (_working_seed), and the refined level from the
  working pair's P1 prolongation.  The element integrals of a^3 and
  a N_i N_j are taken once per lambda, on the refined mesh, by
  ElementRule.integrals, the one element-integral kernel (transversality
  uses it too), whose p0-free points serve every flow of the
  distribution; the working mesh sums them over the two halves of each of
  its elements;

* a Pruefer-angle shooting method integrating theta' = cos^2(theta)/a^3 +
  mu d^2 a sin^2(theta) from theta(-1) = 0.  The surface condition pins
  theta(0) = atan(p0^2 / (g d^3)) modulo pi, theta(0) grows strictly with
  mu, and floor(theta(0)/pi) counts interior zeros, so the bracketed root
  is guaranteed to be the eigenvalue of the requested index.

Waves of unit wavenumber branch off where mu(lambda) = -1, the crossing that
bifurcation.find_lambda_star solves for.
"""

from __future__ import annotations

import bisect
import math
from dataclasses import dataclass, field
from typing import Optional, Sequence

import numpy as np

from .errors import EigenFailure, ZeroDenominator
from .numerics import _solve_tridiagonal, _tridiag_matvec, bracket_turn, bracketed_root
from .vorticity import ElementRule, FlowParameters, GammaProfile


@dataclass(frozen=True)
class ModeSolution:
    """Eigenpair of the mode equation at fixed lambda.

    ``mu`` is the Rayleigh quotient of the stored nodal eigenfunction M
    (so the quotient identity holds to round-off); ``mu_refined`` is the
    Richardson-extrapolated eigenvalue used for curves and root finding.
    M holds the P1 eigenfunction at ``nodes``, bed node M(-1) = 0 included.
    ``_rule`` is the ElementRule of ``nodes`` that the solve integrated on,
    kept for transversality; it takes no part in equality or repr.
    """

    lam: float
    mu: float
    mu_refined: float
    nodes: np.ndarray
    M: np.ndarray
    _rule: Optional[ElementRule] = field(default=None, compare=False, repr=False)


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
    """The levels of principal_eigen: the working nodes and (refined nodes,
    their ElementRule).

    The working level needs no rule of its own: its element integrals are
    restricted from the refined level's (_restrict).  The levels depend on
    lambda only through the grading of build_mesh and not on d or p0 (the
    rule holds the p0-free primitive, which _element_integrals scales), so
    they are kept in the cache of the distribution's shape per
    (mesh_points, grading).  The node arrays are shared by every
    ModeSolution on them, so read-only.
    """
    key = ("mesh levels", mesh_points, _graded(profile, lam))
    cache = profile._shape.cache
    levels = cache.get(key)
    if levels is None:
        fine = build_mesh(profile, lam, mesh_points)
        finer = refine_mesh(fine)
        for nodes in (fine, finer):
            nodes.setflags(write=False)
        levels = cache[key] = (fine, (finer, ElementRule(profile, finer)))
    return levels


def _element_integrals(rule: ElementRule, lam: float, scale: float) -> np.ndarray:
    """Per-element integrals of a^3 and of a against the P1 basis products,
    for the profile of ``rule``'s distribution with scale 2 d^2 / p0: the
    rows (s1, m00, m01, m11) of ElementRule.integrals, with s1 = int a^3
    and m.. = int a N_i N_j on each element.
    """
    a, a_sub = rule.a(lam, scale)
    return rule.integrals(a * a * a, a, a_sub * a_sub * a_sub, a_sub)


def _restrict(ints: np.ndarray) -> np.ndarray:
    """The working level's element integrals from the refined level's
    ``ints``: P^T A P for the nested P1 spaces.

    refine_mesh splits working element e into refined elements L = 2e and
    R = 2e + 1, and the working hats are N0_L + N1_L / 2 and N1_L / 2 on L,
    N0_R / 2 and N0_R / 2 + N1_R on R, so each integral over e is an exact
    sum of refined ones.
    """
    (s1L, m00L, m01L, m11L), (s1R, m00R, m01R, m11R) = ints[:, 0::2], ints[:, 1::2]
    mid = 0.25 * (m11L + m00R)
    return np.array([s1L + s1R, m00L + m01L + mid, 0.5 * (m01L + m01R) + mid, mid + m01R + m11R])


def _bands_from_integrals(ints, h: np.ndarray, flow: FlowParameters):
    """Tridiagonal (A0, B) bands from per-element integrals.

    A0 = p0^2 * (a^3-weighted stiffness), A0 - g d^3 at the surface node
    being the pencil's A; B = p0^2 d^2 * (a-weighted mass).  Node 0 (the
    bed) is still included; solvers drop it to enforce M(-1) = 0.
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
    dB = p0sq * flow.d**2 * dM
    eB = p0sq * flow.d**2 * eM
    return dA, eA, dB, eB


def assemble(
    profile: GammaProfile, flow: FlowParameters, lam: float, nodes: np.ndarray
):
    """Tridiagonal (A, B) bands of the quotient on the given mesh."""
    nodes = np.asarray(nodes, dtype=float)
    ints = _element_integrals(ElementRule(profile, nodes), lam, profile._scale)
    dA, eA, dB, eB = _bands_from_integrals(ints, np.diff(nodes), flow)
    dA[-1] -= flow.g * flow.d**3
    return dA, eA, dB, eB


def _energies(ints, h, M) -> tuple[float, float]:
    """(int f M'^2, int g M^2) of the nodal P1 function M from the rows
    (int f, int g N0 N0, int g N0 N1, int g N1 N1) of ElementRule.integrals.

    Summing positive per-element energies avoids the cancellation that the
    assembled 1/h-scaled matrix entries would introduce.
    """
    s1, m00, m01, m11 = ints
    slope = np.diff(M) / h
    stiff = float(np.sum(s1 * slope * slope))
    v0 = M[:-1]
    v1 = M[1:]
    return stiff, float(np.sum(m00 * v0 * v0 + 2.0 * m01 * v0 * v1 + m11 * v1 * v1))


def _quotient_from_integrals(ints, h, M, flow) -> float:
    """Quotient of a nodal P1 function from element-wise energies (_energies)."""
    stiff, mass = _energies(ints, h, M)
    if mass <= 1e-300:
        raise ZeroDenominator("mass quadratic form vanished")
    p0sq = flow.p0**2
    num = p0sq * stiff - flow.g * flow.d**3 * M[-1] ** 2
    return num / (p0sq * flow.d**2 * mass)


def _secular_level(flow, ints, h, dA0, eA, dB, eB, start=0.0):
    """(mu, M) of one level by the secular equation of its surface term;
    (dA0, eA, dB, eB) are the bands of (A0, B) without the bed node.

    With c = g d^3 and s(mu) = e_n^T (A0 - mu B)^-1 e_n, mu_1 is the root of
    c s = 1 below lambda_1(A0, B), and by interlacing mu_1 <= lambda_1(A0,
    B) <= mu_2.  A step solves (A0 - mu B) x = e_n and moves to the
    element-energy quotient q of x: Newton's step on 1/s - c, q = mu +
    (s - c s^2) / s', without that cancellation.  Every q is a Rayleigh
    quotient, so q >= mu_1, and 1/s is concave and decreasing, so from above
    the iterates fall monotonically to mu_1.  A bracket guards the steps:
    lo is a shift where A0 - mu B is positive definite (by the pivots of
    _solve_tridiagonal) and q > mu, so lo < mu_1; at hi the matrix is
    indefinite or q <= mu, so hi >= mu_1.  A step that leaves the bracket
    bisects it.  The iteration starts at ``start`` <= 0, where A0 - mu B is
    positive definite.  It stops when the step it predicts after the one
    just found, that step times its ratio to the step before (or the step
    itself, if it did not shrink), is at most 1e-14 max(1, |mu|): Newton's
    steps shrink quadratically, so the next quotient would agree with q to
    round-off, and that confirming solve is saved.  It returns the last
    solve's q and the surface-normalized x with the bed node M(-1) = 0,
    and gives up after 200 solves.
    """
    e_n = np.zeros(len(dA0))
    e_n[-1] = 1.0
    mu, lo, hi, pair, last = start, -np.inf, np.inf, None, 0.0
    for _ in range(200):
        try:
            x, negatives = _solve_tridiagonal(dA0 - mu * dB, eA - mu * eB, e_n)
            definite = negatives == 0
        except FloatingPointError:
            definite = False
        if definite:
            M = np.concatenate([[0.0], x / x[-1]])
            pair = (_quotient_from_integrals(ints, h, M, flow), M)
        if definite and pair[0] > mu:
            lo = mu
        else:
            hi = mu
        new = pair[0] if definite and lo <= pair[0] <= hi else 0.5 * (lo + hi)
        if not np.isfinite(new):
            raise EigenFailure(f"secular iteration lost its bracket at mu = {mu!r}")
        step = new - mu
        if pair is not None and step * step <= 1e-14 * max(1.0, abs(mu)) * max(abs(last), abs(step)):
            return pair
        mu, last = new, step
    raise EigenFailure("secular iteration did not converge in 200 solves")


def _residual_bound(flow, ints, v, r) -> float:
    """rho = (sum r_i^2 / beta_i / sum beta_i v_i^2)^(1/2): for r = A v - q B v
    on a level's pencil (A, B), some eigenvalue lies within rho of q.

    That distance is at most ||r||_(B^-1) / ||v||_B (Parlett, The Symmetric
    Eigenvalue Problem, 1998, Thm 4.5.1, for L^-1 A L^-T with B = L L^T),
    and B >= diag(beta), beta_i summing the least eigenvalues of the element
    mass matrices at node i.
    """
    m00, m01, m11 = ints[1:]  # B assembles these times p0^2 d^2
    least = 0.5 * (m00 + m11 - np.sqrt((m00 - m11) ** 2 + 4.0 * m01 * m01))
    beta = least + np.append(least[1:], 0.0)
    return math.sqrt((r * r / beta).sum() / (beta @ (v * v))) / (flow.p0**2 * flow.d**2)


def _solve_level(flow, nodes, ints, seed=None):
    """(mu, M) of one mesh level, whose pencil comes from its element
    integrals ``ints``: mu is the element-energy quotient of the
    surface-normalized M (so its Rayleigh identity is exact), and M
    includes the bed node M(-1) = 0.

    ``seed`` is (sigma0, v0) from the working level or neighbouring lambdas
    (sigma0 None: the Rayleigh quotient of v0), and starts a
    Rayleigh-quotient iteration of at most 30 solves.  It stops at the first
    unit iterate v with |A v - q B v| <= 1e-14 (|A| + |q| |B|), round-off
    being near 4e-17, and keeps the pair when q + rho < L (rho from
    _residual_bound, L the largest of 0 and the shifts whose reduction has
    one negative pivot).  Both bound mu_2 from below: 0 by interlacing (see
    _secular_level; A0 is positive definite), such a shift by Sylvester's
    law of inertia.  So the eigenvalue within rho of q is mu_1, and as q >=
    mu_1, mu_1 lies in [q - rho, q].  When q + rho >= L, one more reduction,
    of A - (q + 2 rho) B, puts q + 2 rho into L if it has one negative
    pivot.  A shift whose reduction has more than one lies above mu_2, so
    the iteration heads for another pair and stops there.  Otherwise, and
    with no seed, as just above the admissibility floor, where the mode is a
    layer that a mode at another lambda cannot resolve, the secular equation
    solves the level, from the iteration's least Rayleigh quotient (an upper
    bound of mu_1) where that is below 0.
    """
    h = np.diff(nodes)
    dA0, eA, dB, eB = (band[1:] for band in _bands_from_integrals(ints, h, flow))
    least = 0.0
    if seed is not None:
        dA = dA0.copy()
        dA[-1] -= flow.g * flow.d**3
        norm_a = np.max(np.abs(dA)) + 2.0 * np.max(np.abs(eA))
        norm_b = np.max(np.abs(dB)) + 2.0 * np.max(np.abs(eB))
        sigma, v = seed
        v = v / np.linalg.norm(v)
        av, bv = _tridiag_matvec(dA, eA, v), _tridiag_matvec(dB, eB, v)
        if sigma is None:
            sigma = float(v @ av) / float(v @ bv)
            least = min(least, sigma)
        bound = 0.0
        for _ in range(30):
            try:
                x, negatives = _solve_tridiagonal(dA - sigma * dB, eA - sigma * eB, bv)
            except FloatingPointError:
                break
            if negatives > 1:
                break
            if negatives == 1:
                bound = max(bound, sigma)
            v = x / np.linalg.norm(x)
            av, bv = _tridiag_matvec(dA, eA, v), _tridiag_matvec(dB, eB, v)
            sigma = float(v @ av) / float(v @ bv)
            least = min(least, sigma)
            r = av - sigma * bv
            if np.linalg.norm(r) / (norm_a + abs(sigma) * norm_b) <= 1e-14:
                rho = _residual_bound(flow, ints, v, r)
                above = sigma + 2.0 * rho
                if sigma + rho >= bound:
                    try:
                        if _solve_tridiagonal(dA - above * dB, eA - above * eB, bv)[1] == 1:
                            bound = above
                    except FloatingPointError:
                        pass
                if sigma + rho < bound:
                    M = np.concatenate([[0.0], v / v[-1]])
                    return _quotient_from_integrals(ints, h, M, flow), M
                break
    return _secular_level(flow, ints, h, dA0, eA, dB, eB, least)


def _working_seed(lam, fine, finer, near):
    """Seed (None, v0) of the working level ``fine`` from the modes ``near``
    (nearest lambda first), or None without one.

    Two modes a and b on this lambda's refined mesh ``finer`` (the very
    array, as the mesh levels' cache shares it) give the secant prediction

        M(lambda) = M_a + (lambda - lambda_a) (M_a - M_b) / (lambda_a - lambda_b)

    (Allgower & Georg, Introduction to Numerical Continuation Methods,
    1990), read at the working nodes, which refine_mesh keeps at even
    indices.  Otherwise, as across the grading switch near the floor, the
    nearest mode interpolated to the working nodes seeds the level.
    """
    if len(near) > 1 and near[0].nodes is finer and near[1].nodes is finer and near[0].lam != near[1].lam:
        a, b = near[0].M[2::2], near[1].M[2::2]
        return None, a + (lam - near[0].lam) / (near[0].lam - near[1].lam) * (a - b)
    if near:
        return None, np.interp(fine[1:], near[0].nodes, near[0].M)
    return None


def principal_eigen(
    profile: GammaProfile,
    flow: FlowParameters,
    lam: float,
    mesh_points: int = 2001,
    near: Sequence[ModeSolution] = (),
) -> ModeSolution:
    """Principal eigenpair (mu(lambda), M) of the mode-equation quotient.

    The working mesh is solved from ``near`` (_working_seed) or, without
    it, by the secular equation, and the exact P1 prolongation of its pair
    (the P of _restrict: midpoint averages) seeds its uniform refinement;
    each level's pair is proven principal (_solve_level).  The two levels
    give a Richardson-extrapolated ``mu_refined``, while the stored M
    (M(0) = 1) and ``mu`` come from the finer level.  Each lambda takes one
    quadrature pass, on the refined level: the working level's element
    integrals are restricted from it (_restrict), so its pencil is the
    refined one's on the nested P1 space, its eigenvalue is not below the
    refined one, and ``mu_refined`` <= ``mu``.  The mesh levels and the
    refined element quadrature are built once per distribution, mesh size
    and grading (see _mesh_levels), not once per lambda or flow.

    ``near`` holds up to two solutions at neighbouring lambdas, nearest
    first, on this profile or others of the family (a branch at fixed
    mean depth changes p0 with lambda).  They only ever seed, so they
    change the result by no more than the iterations' stopping tolerances.
    """
    profile.require_admissible(lam)
    fine, (finer, rule) = _mesh_levels(profile, lam, mesh_points)
    ints_2 = _element_integrals(rule, lam, profile._scale)
    mu_f, m_f = _solve_level(flow, fine, _restrict(ints_2), _working_seed(lam, fine, finer, near))
    prolonged = np.empty(len(finer))
    prolonged[0::2] = m_f
    prolonged[1::2] = 0.5 * (m_f[:-1] + m_f[1:])
    mu_2, m_2 = _solve_level(flow, finer, ints_2, (mu_f, prolonged[1:]))
    mu_refined = mu_2 + (mu_2 - mu_f) / 3.0
    return ModeSolution(lam=lam, mu=mu_2, mu_refined=mu_refined, nodes=finer, M=m_2, _rule=rule)


def rayleigh_quotient(
    profile: GammaProfile,
    flow: FlowParameters,
    lam: float,
    nodes: np.ndarray,
    M: np.ndarray,
) -> float:
    """Quotient F(lambda, M) of the P1 function with values M at ``nodes``;
    its infimum over {M(-1) = 0} is mu(lambda).

    Evaluated through the solver's element quadrature, so for the nodes and
    M of a ModeSolution it returns that solution's ``mu`` to round-off.
    """
    profile.require_admissible(lam)
    nodes = np.asarray(nodes, dtype=float)
    ints = _element_integrals(ElementRule(profile, nodes), lam, profile._scale)
    return _quotient_from_integrals(ints, np.diff(nodes), np.asarray(M, dtype=float), flow)


def _scalar_gamma_primitive(profile: GammaProfile):
    """Fast scalar closure for Gamma(p), for ODE right-hand sides."""
    shape = profile._shape
    knots, g_end, g1, uk = (x.tolist() for x in (shape.knots, shape.g_end, shape.g1, shape.uknots))
    scale = profile._scale
    nmax = len(g1) - 1

    def gamma_of(p: float) -> float:
        j = bisect.bisect_left(knots, p) - 1
        if j < 0:
            j = 0
        elif j > nmax:
            j = nmax
        e = knots[j + 1] - p
        # Summed as GammaProfile.primitive sums, so both give the same floats.
        return scale * (uk[j + 1] - (g_end[j] * e - 0.5 * g1[j] * e * e))

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

    lo, hi = bracket_turn(lambda mu: mismatch(mu) >= 0.0, 1e9)
    x_tol = 1e-12 * max(1.0, abs(lo), abs(hi))
    mu = bracketed_root(mismatch, lo, hi, x_tol, f_tol=1e-10, max_iter=300)
    zeros = int(math.floor((_prufer_angle(profile, flow, lam, mu) + 1e-9) / math.pi))
    if zeros != k:
        raise EigenFailure(
            f"shooting converged with {zeros} interior zeros, expected {k}"
        )
    return mu
