"""Scalar numerics: brackets, bracketed roots and tridiagonal eigenpairs.

Shifted tridiagonal systems are solved by odd-even cyclic reduction
(Hockney, J. ACM 12, 1965; Buzbee, Golub and Nielson, SIAM J. Numer. Anal.
7, 1970), vectorised in numpy, so no command imports scipy.linalg.  The
reduction does not pivot, and the signs of its pivots tell whether the
matrix is positive definite; a zero pivot, an overflow or a non-finite
entry raises FloatingPointError.

Integrals are not computed here: the laminar integrals have exact piecewise
forms (laminar.py) and every per-element integral goes through
vorticity.ElementRule.
"""

from __future__ import annotations

from typing import Callable

import numpy as np

from .errors import BracketFailure, EigenFailure, NonConvergence, NoSignChange

_EPS = float(np.finfo(float).eps)

# Rayleigh quotient iteration: stop and accept on the residual relative to
# ||A|| + |sigma| ||B||, and give up after a fixed number of shifted solves.
_RQI_STOP_TOL = 1e-14
_RQI_ACCEPT_TOL = 1e-9
_RQI_MAX_SOLVES = 30


def bracket_turn(turned: Callable[[float], bool], cap: float) -> tuple[float, float]:
    """Adjacent points (lo, hi) of the walk 0, +-1, +-4, +-16, ... with
    turned(lo) false and turned(hi) true.

    turned must be false below some point and true above it.  The walk
    probes 0, then goes up while turned is false or down while it is true,
    and raises BracketFailure once a step past cap has not turned.
    """
    up = not turned(0.0)
    prev, step = 0.0, (1.0 if up else -1.0)
    while turned(step) != up:
        if abs(step) > cap:
            raise BracketFailure(f"no bracket within {cap:g} of 0")
        prev, step = step, 4.0 * step
    return (prev, step) if up else (step, prev)


def bracketed_root(
    f: Callable[[float], float],
    lo: float,
    hi: float,
    x_tol: float = 1e-10,
    f_tol: float = 0.0,
    max_iter: int = 200,
) -> float:
    """Find a root of f in [lo, hi] by Brent's method.

    Stops when the bracket width drops below x_tol or |f| below f_tol.
    The sign condition f(lo) * f(hi) <= 0 is required.
    """
    if not x_tol > 0.0:
        raise ValueError("x_tol must be > 0")
    if max_iter < 1:
        raise ValueError("max_iter must be >= 1")
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
    for _ in range(max_iter):
        if abs(fc) < abs(fb):
            a, b, c = b, c, b
            fa, fb, fc = fb, fc, fb
        tol = 2.0 * _EPS * abs(b) + 0.5 * x_tol
        m = 0.5 * (c - b)
        if abs(m) <= tol or fb == 0.0 or abs(fb) <= f_tol:
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
    raise NonConvergence(f"no root to tolerance within {max_iter} iterations")


def _solve_tridiagonal(d: np.ndarray, e: np.ndarray, f: np.ndarray) -> tuple[np.ndarray, bool]:
    """(x, definite): T x = f solved for the symmetric tridiagonal T with
    diagonal d and off-diagonal e by odd-even cyclic reduction without
    pivoting, and whether T is positive definite.

    The system is padded with identity rows to 2^k - 1 unknowns, so that
    every level keeps the odd-numbered unknowns of the one before and has
    2^j - 1 of them.  A level is a block LDL^T step on the even-numbered
    unknowns, so by Haynsworth's inertia additivity T is positive definite
    exactly when every pivot is > 0.  Call under np.errstate(divide="raise",
    invalid="raise", over="raise") to turn a zero pivot into
    FloatingPointError.
    """
    n = len(d)
    m = (1 << n.bit_length()) - 1
    d = np.concatenate([d, np.ones(m - n)])
    e = np.concatenate([e, np.zeros(m - n)])
    f = np.concatenate([f, np.zeros(m - n)])
    levels = []
    while len(d) > 1:
        # Unknown 2i + 1 couples to 2i through el[i] and to 2i + 2 through er[i].
        el, er = e[0::2], e[1::2]
        d_even, f_even = d[0::2], f[0::2]
        rl = el / d_even[:-1]
        rr = er / d_even[1:]
        levels.append((d_even, f_even, el, er))
        d = d[1::2] - rl * el - rr * er
        f = f[1::2] - rl * f_even[:-1] - rr * f_even[1:]
        e = -rr[:-1] * el[1:]
    definite = bool(np.concatenate([d, *(level[0] for level in levels)]).min() > 0.0)
    x = f / d
    for d_even, f_even, el, er in reversed(levels):
        x_even = f_even.copy()
        x_even[:-1] -= el * x
        x_even[1:] -= er * x
        x_even /= d_even
        out = np.empty(2 * len(x) + 1)
        out[0::2] = x_even
        out[1::2] = x
        x = out
    return x[:n], definite


def _tridiag_matvec(d: np.ndarray, e: np.ndarray, v: np.ndarray) -> np.ndarray:
    y = d * v
    y[:-1] += e * v[1:]
    y[1:] += e * v[:-1]
    return y


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
    sigma0: float | None,
    v0: np.ndarray | None = None,
):
    """Smallest eigenpair (sigma, v) of a symmetric tridiagonal pencil by
    Rayleigh quotient iteration, v[-1] = 1, accepted only with a certificate.

    ``sigma0`` and ``v0`` come from a close approximation; with ``sigma0``
    None the first shift is the Rayleigh quotient of ``v0``.  The iteration
    stops at the first unit iterate v with ||A v - sigma B v|| <= 1e-14
    (||A|| + |sigma| ||B||), where round-off sits near 4e-17, or when a
    shifted solve (_solve_tridiagonal) fails: FloatingPointError, or a
    non-finite or zero solution, since sigma is then an eigenvalue to
    working precision.  It gives up after 30 solves.  EigenFailure is raised
    unless the residual is within 1e-9 of that scale and the M-matrix
    certificate proves sigma the smallest eigenvalue; it carries the least
    Rayleigh quotient met (inf if none), an upper bound of the smallest
    eigenvalue, for the caller's fallback to start from.

    The certificate is that no eigenvalue lies below sigma - delta and at
    least one below sigma + delta, with delta = 1e-6 max(1, |sigma|).  With
    v signed so that v[-1] > 0 and r = A v - sigma B v, it holds when three
    entry-wise tests pass: (i) every off-diagonal of A - (sigma - delta) B
    is < 0, (ii) v > 0 and (iii) |r| < delta B v.  Then A - (sigma - delta) B
    is a Z-matrix that maps v > 0 to r + delta B v > 0, hence a nonsingular
    M-matrix, and being symmetric it is positive definite (Berman and
    Plemmons, Nonnegative Matrices in the Mathematical Sciences, 1994,
    ch. 6); and v^T (A - (sigma + delta) B) v = sum v_i (r_i - delta (B v)_i)
    < 0.  A converged higher eigenpair, whose v changes sign, fails (ii),
    and (ii) makes v[-1] > 0.
    """
    n = len(dA)
    v = np.ones(n) / np.sqrt(n) if v0 is None else np.asarray(v0, float)
    nrm = np.linalg.norm(v)
    if nrm == 0.0:
        raise ValueError("v0 must be nonzero")
    v = v / nrm
    norm_a = np.max(np.abs(dA)) + 2.0 * np.max(np.abs(eA), initial=0.0)
    norm_b = np.max(np.abs(dB)) + 2.0 * np.max(np.abs(eB), initial=0.0)

    def residual(sigma, av, bv):
        """||A v - sigma B v|| relative to ||A|| + |sigma| ||B||."""
        return np.linalg.norm(av - sigma * bv) / (norm_a + abs(sigma) * norm_b + 1e-300)

    av = _tridiag_matvec(dA, eA, v)
    bv = _tridiag_matvec(dB, eB, v)
    sigma = float(v @ av) / float(v @ bv) if sigma0 is None else float(sigma0)
    least = sigma if sigma0 is None else np.inf  # the least Rayleigh quotient
    res = residual(sigma, av, bv)
    for _ in range(_RQI_MAX_SOLVES):
        try:
            with np.errstate(divide="raise", invalid="raise", over="raise"):
                x, _ = _solve_tridiagonal(dA - sigma * dB, eA - sigma * eB, bv)
        except FloatingPointError:
            break  # a zero pivot: sigma is an eigenvalue to working precision
        xn = np.linalg.norm(x)
        if not np.isfinite(xn) or xn == 0.0:
            break  # likewise
        v = x / xn
        av = _tridiag_matvec(dA, eA, v)
        bv = _tridiag_matvec(dB, eB, v)
        sigma = float(v @ av) / float(v @ bv)
        least = min(least, sigma)
        res = residual(sigma, av, bv)
        if res <= _RQI_STOP_TOL:
            break

    if res > _RQI_ACCEPT_TOL:
        raise EigenFailure(f"RQI relative residual {res!r} exceeds tolerance", least)
    delta = 1e-6 * max(1.0, abs(sigma))
    if not _m_matrix_certificate(eA, eB, sigma, delta, v, av, bv):
        raise EigenFailure("no M-matrix certificate that RQI found the smallest eigenvalue", least)
    return sigma, v / v[-1]
