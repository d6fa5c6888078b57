"""Scalar numerics: adaptive quadrature, bracketed roots, tridiagonal eigenpairs.

The quadrature is a 15-point Gauss-Kronrod rule with global bisection
refinement.  Declared breakpoints are never straddled by a panel: interior
breakpoints force panel boundaries, while a breakpoint equal to an endpoint
of the integration interval declares an integrable endpoint singularity and
switches the adjacent panel to the substitution t = sqrt(x - a) (resp.
sqrt(b - x)), which restores convergence for (x - a)^(-1/2)-type behaviour.
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np
import scipy.linalg

from .errors import EigenFailure, NonConvergence, NoSignChange

_EPS = float(np.finfo(float).eps)

# Rayleigh quotient iteration: stop and accept on the residual relative to
# ||A|| + |sigma| ||B||, and give up after a fixed number of shifted solves.
_RQI_STOP_TOL = 1e-14
_RQI_ACCEPT_TOL = 1e-9
_RQI_MAX_SOLVES = 30

# 15-point Kronrod nodes (positive half) and weights, with the embedded
# 7-point Gauss weights interleaved at the even Kronrod positions.
_XGK = np.array([
    0.991455371120812639206854697526329,
    0.949107912342758524526189684047851,
    0.864864423359769072789712788640926,
    0.741531185599394439863864773280788,
    0.586087235467691130294144838258730,
    0.405845151377397166906606412076961,
    0.207784955007898467600689403773245,
    0.0,
])
_WGK = np.array([
    0.022935322010529224963732008058970,
    0.063092092629978553290700663189204,
    0.104790010322250183839876322541518,
    0.140653259715525918745189590510238,
    0.169004726639267902826583426598550,
    0.190350578064785409913256402421014,
    0.204432940075298892414161999234649,
    0.209482141084727828012999174891714,
])
_WG = np.array([
    0.129484966168869693270611432679082,
    0.279705391489276667901467771423780,
    0.381830050505118944950369775488975,
    0.417959183673469387755102040816327,
])

_NODES = np.concatenate([-_XGK[:-1], [0.0], _XGK[-2::-1]])
_W_KRONROD = np.concatenate([_WGK[:-1], [_WGK[-1]], _WGK[-2::-1]])
# Gauss weights sit on nodes 1, 3, 5, ... of the Kronrod set.
_W_GAUSS = np.zeros(15)
_W_GAUSS[1:-1:2] = np.concatenate([_WG[:-1], [_WG[-1]], _WG[-2::-1]])


@dataclass(frozen=True)
class QuadratureSpec:
    """Tolerances and structure hints for adaptive_quad.

    ``breakpoints`` must be strictly increasing and lie inside [a, b];
    a breakpoint equal to a or b marks that endpoint as singular.
    """

    abs_tol: float = 1e-12
    rel_tol: float = 1e-10
    breakpoints: tuple = ()
    max_subdivisions: int = 4000

    def __post_init__(self):
        if not self.abs_tol > 0.0:
            raise ValueError("abs_tol must be > 0")
        bps = tuple(float(b) for b in self.breakpoints)
        if any(b2 <= b1 for b1, b2 in zip(bps, bps[1:])):
            raise ValueError("breakpoints must be strictly increasing")
        object.__setattr__(self, "breakpoints", bps)


@dataclass(frozen=True)
class RootSpec:
    """Stopping rules for bracketed_root."""

    x_tol: float = 1e-10
    f_tol: float = 0.0
    max_iter: int = 200

    def __post_init__(self):
        if not self.x_tol > 0.0:
            raise ValueError("x_tol must be > 0")
        if self.max_iter < 1:
            raise ValueError("max_iter must be >= 1")


def _eval_nodes(f: Callable[[float], float], x: np.ndarray) -> np.ndarray:
    """Evaluate f on an array, falling back to a scalar loop."""
    try:
        y = np.asarray(f(x), dtype=float)
        if y.shape == x.shape:
            return y
    except (TypeError, ValueError, IndexError):
        pass
    return np.array([float(f(xi)) for xi in x], dtype=float)


def _gk15(f, a: float, b: float):
    """One Gauss-Kronrod 15 pass on [a, b]: (integral, error estimate)."""
    hl = 0.5 * (b - a)
    x = 0.5 * (a + b) + hl * _NODES
    y = _eval_nodes(f, x)
    k = float(_W_KRONROD @ y)
    g = float(_W_GAUSS @ y)
    resabs = float(_W_KRONROD @ np.abs(y))
    resasc = float(_W_KRONROD @ np.abs(y - 0.5 * k))
    diff = abs(k - g)
    if resasc > 0.0:
        err = resasc * min(1.0, (200.0 * diff / resasc) ** 1.5)
    else:
        err = diff
    err = hl * max(err, 50.0 * _EPS * resabs)
    return hl * k, err


def adaptive_quad(
    f: Callable[[float], float],
    a: float,
    b: float,
    spec: QuadratureSpec = QuadratureSpec(),
) -> float:
    """Integrate f over [a, b] to max(abs_tol, rel_tol * |I|).

    Panels never straddle a breakpoint; breakpoints coinciding with a or b
    declare integrable endpoint singularities handled by a square-root
    substitution.  Raises NonConvergence when max_subdivisions panels are
    not enough.
    """
    a = float(a)
    b = float(b)
    if not a < b:
        raise ValueError("require a < b")
    span = b - a
    edge = 1e-13 * max(span, abs(a), abs(b), 1.0)
    sing_left = any(abs(bp - a) <= edge for bp in spec.breakpoints)
    sing_right = any(abs(bp - b) <= edge for bp in spec.breakpoints)
    interior = [bp for bp in spec.breakpoints if a + edge < bp < b - edge]

    edges = [a] + interior + [b]
    if len(edges) == 2 and sing_left and sing_right:
        edges = [a, 0.5 * (a + b), b]

    # Each work item integrates a transformed panel: (fun, lo, hi) in its
    # own coordinate; singular panels are parameterised by t with
    # x = x_sing -/+ t^2 so that dx = 2t dt absorbs the singularity.
    items = []
    for lo, hi in zip(edges[:-1], edges[1:]):
        if sing_left and lo == edges[0]:
            w = np.sqrt(hi - lo)
            items.append(((lambda t, lo=lo: f(lo + t * t) * 2.0 * t), 0.0, w))
        elif sing_right and hi == edges[-1]:
            w = np.sqrt(hi - lo)
            items.append(((lambda t, hi=hi: f(hi - t * t) * 2.0 * t), 0.0, w))
        else:
            items.append((f, lo, hi))

    heap = []
    total_i = 0.0
    total_err = 0.0
    for idx, (fun, lo, hi) in enumerate(items):
        val, err = _gk15(fun, lo, hi)
        total_i += val
        total_err += err
        heapq.heappush(heap, (-err, idx, lo, hi, val, fun))

    n_sub = len(items)
    while total_err > max(spec.abs_tol, spec.rel_tol * abs(total_i)):
        if n_sub >= spec.max_subdivisions:
            raise NonConvergence(
                f"quadrature tolerance not met after {n_sub} panels "
                f"(estimate {total_i!r}, error {total_err!r})",
                best=total_i,
                error=total_err,
            )
        neg_err, _, lo, hi, val, fun = heapq.heappop(heap)
        mid = 0.5 * (lo + hi)
        if mid <= lo or mid >= hi:
            # Panel at round-off width: keep its estimate and stop splitting.
            heapq.heappush(heap, (0.0, n_sub, lo, hi, val, fun))
            n_sub += 1
            continue
        v1, e1 = _gk15(fun, lo, mid)
        v2, e2 = _gk15(fun, mid, hi)
        total_i += v1 + v2 - val
        total_err += e1 + e2 - (-neg_err)
        heapq.heappush(heap, (-e1, n_sub, lo, mid, v1, fun))
        heapq.heappush(heap, (-e2, n_sub + 1, mid, hi, v2, fun))
        n_sub += 2
    return total_i


def bracketed_root(
    f: Callable[[float], float],
    lo: float,
    hi: float,
    spec: RootSpec = RootSpec(),
) -> float:
    """Find a root of f in [lo, hi] by Brent's method.

    Stops when the bracket width drops below x_tol or |f| below f_tol.
    The sign condition f(lo) * f(hi) <= 0 is required.
    """
    a = float(lo)
    b = float(hi)
    fa = float(f(a))
    fb = float(f(b))
    if fa == 0.0:
        return a
    if fb == 0.0:
        return b
    if fa * fb > 0.0:
        raise NoSignChange(f"f({a!r})={fa!r} and f({b!r})={fb!r} have the same sign")

    c, fc = a, fa
    d = e = b - a
    for _ in range(spec.max_iter):
        if abs(fc) < abs(fb):
            a, b, c = b, c, b
            fa, fb, fc = fb, fc, fb
        tol = 2.0 * _EPS * abs(b) + 0.5 * spec.x_tol
        m = 0.5 * (c - b)
        if abs(m) <= tol or fb == 0.0 or abs(fb) <= spec.f_tol:
            return b
        if abs(e) < tol or abs(fa) <= abs(fb):
            d = e = m
        else:
            s = fb / fa
            if a == c:
                p = 2.0 * m * s
                q = 1.0 - s
            else:
                q = fa / fc
                r = fb / fc
                p = s * (2.0 * m * q * (q - r) - (b - a) * (r - 1.0))
                q = (q - 1.0) * (r - 1.0) * (s - 1.0)
            if p > 0.0:
                q = -q
            else:
                p = -p
            s, e = e, d
            if 2.0 * p < 3.0 * m * q - abs(tol * q) and p < abs(0.5 * s * q):
                d = p / q
            else:
                d = e = m
        a, fa = b, fb
        if abs(d) > tol:
            b += d
        else:
            b += tol if m > 0.0 else -tol
        fb = float(f(b))
        if (fb > 0.0) == (fc > 0.0):
            c, fc = a, fa
            d = e = b - a
    raise NonConvergence(f"no root to tolerance within {spec.max_iter} iterations", best=b)


def _normalize_surface(v: np.ndarray) -> np.ndarray:
    """Scale so the last entry is 1 when it is not (numerically) zero."""
    v = np.asarray(v, dtype=float)
    if abs(v[-1]) > 1e-12 * np.max(np.abs(v)):
        return v / v[-1]
    v = v / np.linalg.norm(v)
    if v[np.argmax(np.abs(v))] < 0:
        v = -v
    return v


def _tridiag_matvec(d: np.ndarray, e: np.ndarray, v: np.ndarray) -> np.ndarray:
    y = d * v
    y[:-1] += e * v[1:]
    y[1:] += e * v[:-1]
    return y


def count_pencil_eigenvalues_below(
    dA: np.ndarray, eA: np.ndarray, dB: np.ndarray, eB: np.ndarray, tau: float
) -> int:
    """Number of eigenvalues of the tridiagonal pencil (A, B) below tau.

    Sylvester inertia of A - tau B through an LDL^T sweep; B must be SPD.
    The sweep runs on Python floats, the same IEEE arithmetic as numpy
    scalars at a third of the cost.
    """
    d = (dA - tau * dB).tolist()
    e = (eA - tau * eB).tolist()
    count = 0
    prev = d[0]
    if prev == 0.0:
        prev = 1e-300
    if prev < 0.0:
        count += 1
    for di, ei in zip(d[1:], e):
        cur = di - ei * ei / prev
        if cur == 0.0:
            cur = 1e-300
        if cur < 0.0:
            count += 1
        prev = cur
    return count


def _m_matrix_certificate(eA, eB, sigma, delta, v, av, bv) -> bool:
    """Whether (sigma, v) passes the three tests of the M-matrix certificate
    stated in smallest_eigenpair_tridiagonal."""
    if v[-1] < 0.0:
        v, av, bv = -v, -av, -bv
    return bool(
        np.all(eA - (sigma - delta) * eB < 0.0)
        and np.all(v > 0.0)
        and np.all(np.abs(av - sigma * bv) < delta * bv)
    )


def smallest_eigenpair_tridiagonal(
    dA: np.ndarray,
    eA: np.ndarray,
    dB: np.ndarray,
    eB: np.ndarray,
    sigma0: float,
    v0: np.ndarray | None = None,
):
    """Smallest eigenpair of a symmetric tridiagonal pencil by Rayleigh
    quotient iteration.

    ``sigma0`` (and optionally ``v0``) must come from a trustworthy coarse
    approximation of the smallest eigenvalue.  The iteration stops at the
    first unit iterate v with ||A v - sigma B v|| <= 1e-14 (||A|| + |sigma|
    ||B||), where round-off sits near 4e-17, or when a shifted solve fails
    (a zero pivot, a division by zero, a non-finite or zero solution), since
    sigma is then an eigenvalue to working precision; it gives up after 30
    solves.  EigenFailure is raised unless the residual is within 1e-9 of
    that scale and sigma is certified to be the smallest eigenvalue, so
    callers can restart from a sharper shift.

    The certificate is that no eigenvalue lies below sigma - delta and at
    least one below sigma + delta, with delta = 1e-6 max(1, |sigma|).  With
    v signed so that v[-1] > 0 and r = A v - sigma B v, it holds when three
    entry-wise tests pass: (i) every off-diagonal of A - (sigma - delta) B
    is < 0, (ii) v > 0 and (iii) |r| < delta B v.  Then A - (sigma - delta) B
    is a Z-matrix that maps v > 0 to r + delta B v > 0, hence a nonsingular
    M-matrix, and being symmetric it is positive definite (Berman and
    Plemmons, Nonnegative Matrices in the Mathematical Sciences, 1994,
    ch. 6); and v^T (A - (sigma + delta) B) v = sum v_i (r_i - delta (B v)_i)
    < 0.  The tests are as exact in floating point as the LDL^T inertia
    counts they stand in for.  When one fails, as for a converged higher
    eigenpair, whose v changes sign, the two inertia counts decide.
    """
    n = len(dA)
    v = np.ones(n) / np.sqrt(n) if v0 is None else np.asarray(v0, float)
    nrm = np.linalg.norm(v)
    if nrm == 0.0:
        raise ValueError("v0 must be nonzero")
    v = v / nrm
    sigma = float(sigma0)
    norm_a = np.max(np.abs(dA)) + 2.0 * np.max(np.abs(eA), initial=0.0)
    norm_b = np.max(np.abs(dB)) + 2.0 * np.max(np.abs(eB), initial=0.0)

    def residual(sigma, av, bv):
        """||A v - sigma B v|| relative to ||A|| + |sigma| ||B||."""
        return np.linalg.norm(av - sigma * bv) / (norm_a + abs(sigma) * norm_b + 1e-300)

    av = _tridiag_matvec(dA, eA, v)
    bv = _tridiag_matvec(dB, eB, v)
    res = residual(sigma, av, bv)
    ab = np.zeros((3, n))
    for _ in range(_RQI_MAX_SOLVES):
        ab[0, 1:] = eA - sigma * eB
        ab[1, :] = dA - sigma * dB
        ab[2, :-1] = ab[0, 1:]
        try:
            with np.errstate(divide="raise", invalid="raise"):
                x = scipy.linalg.solve_banded((1, 1), ab, bv)
        except (np.linalg.LinAlgError, FloatingPointError):
            break  # sigma is an eigenvalue to working precision
        xn = np.linalg.norm(x)
        if not np.isfinite(xn) or xn == 0.0:
            break  # likewise
        v = x / xn
        av = _tridiag_matvec(dA, eA, v)
        bv = _tridiag_matvec(dB, eB, v)
        sigma = float(v @ av) / float(v @ bv)
        res = residual(sigma, av, bv)
        if res <= _RQI_STOP_TOL:
            break

    if res > _RQI_ACCEPT_TOL:
        raise EigenFailure(f"RQI relative residual {res!r} exceeds tolerance")
    delta = 1e-6 * max(1.0, abs(sigma))
    if _m_matrix_certificate(eA, eB, sigma, delta, v, av, bv):
        return sigma, _normalize_surface(v)
    if count_pencil_eigenvalues_below(dA, eA, dB, eB, sigma - delta) != 0:
        raise EigenFailure("RQI converged above the smallest eigenvalue")
    if count_pencil_eigenvalues_below(dA, eA, dB, eB, sigma + delta) < 1:
        raise EigenFailure("inertia count does not confirm the eigenvalue")
    return sigma, _normalize_surface(v)
