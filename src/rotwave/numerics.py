"""Scalar numerics: brackets, bracketed roots and shifted tridiagonal solves.

Shifted tridiagonal systems are solved by odd-even cyclic reduction
(Hockney, J. ACM 12, 1965; Buzbee, Golub and Nielson, SIAM J. Numer. Anal.
7, 1970), vectorised in numpy, so no command imports scipy.linalg.  The
reduction does not pivot, and it counts the matrix's negative eigenvalues
as its negative pivots; a zero pivot, an overflow or a non-finite entry
raises FloatingPointError.

Integrals are not computed here: the laminar integrals have exact piecewise
forms (laminar.py) and every per-element integral goes through
vorticity.ElementRule.
"""

from __future__ import annotations

from typing import Callable

import numpy as np

from .errors import BracketFailure, NonConvergence, NoSignChange

_EPS = float(np.finfo(float).eps)


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


@np.errstate(divide="raise", invalid="raise", over="raise")
def _solve_tridiagonal(d: np.ndarray, e: np.ndarray, f: np.ndarray) -> tuple[np.ndarray, int]:
    """(x, negatives): T x = f solved for the symmetric tridiagonal T with
    diagonal d and off-diagonal e by odd-even cyclic reduction without
    pivoting, and the number of negative eigenvalues of T.

    The system is padded with identity rows to 2^k - 1 unknowns, so that
    every level keeps the odd-numbered unknowns of the one before and has
    2^j - 1 of them.  A level is a block LDL^T step on the even-numbered
    unknowns, so by Haynsworth's inertia additivity T has as many negative
    eigenvalues as negative pivots.  A zero pivot raises FloatingPointError.
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
    negatives = int(np.count_nonzero(np.concatenate([d, *(level[0] for level in levels)]) < 0.0))
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
    return x[:n], negatives


def _tridiag_matvec(d: np.ndarray, e: np.ndarray, v: np.ndarray) -> np.ndarray:
    y = d * v
    y[:-1] += e * v[1:]
    y[1:] += e * v[:-1]
    return y
