import math
import warnings

import numpy as np
import pytest
import scipy.integrate
import scipy.linalg
import scipy.optimize

from rotwave.errors import NonConvergence, NoSignChange
from rotwave.numerics import (
    QuadratureSpec,
    RootSpec,
    adaptive_quad,
    bracketed_root,
    count_pencil_eigenvalues_below,
    smallest_eigenpair_tridiagonal,
)


# -- adaptive_quad -----------------------------------------------------------


def test_quad_linear_exact():
    assert adaptive_quad(lambda x: x, 0.0, 1.0) == pytest.approx(0.5, abs=1e-14)


def test_quad_constant_with_breakpoint():
    spec = QuadratureSpec(breakpoints=(0.3,))
    val = adaptive_quad(lambda x: np.ones_like(x), 0.0, 1.0, spec)
    assert val == pytest.approx(1.0, abs=1e-14)


def test_quad_inverse_sqrt_closed_form():
    # antiderivative of (1 + 2s)^(-1/2) is sqrt(1 + 2s)
    exact = 1.0 - math.sqrt(0.002)
    val = adaptive_quad(lambda s: (1.0 + 2.0 * s) ** -0.5, -0.499, 0.0)
    assert val == pytest.approx(exact, abs=1e-11)
    ref, _ = scipy.integrate.quad(lambda s: (1.0 + 2.0 * s) ** -0.5, -0.499, 0.0)
    assert val == pytest.approx(ref, abs=1e-10)


@pytest.mark.parametrize("degree", [13, 22])
def test_quad_polynomial_exactness(degree):
    # Gauss-7 is exact through degree 13, Kronrod-15 through degree 22.
    coeffs = np.arange(1, degree + 2, dtype=float)

    def poly(x):
        return np.polyval(coeffs, x)

    exact = np.polyval(np.polyint(coeffs), 1.0) - np.polyval(np.polyint(coeffs), -1.0)
    val = adaptive_quad(poly, -1.0, 1.0, QuadratureSpec(abs_tol=1e-10))
    assert val == pytest.approx(exact, rel=1e-13)


def test_quad_redundant_breakpoints_invariance():
    f = lambda x: np.exp(x) * np.sin(3 * x)
    base = adaptive_quad(f, 0.0, 2.0)
    spread = adaptive_quad(f, 0.0, 2.0, QuadratureSpec(breakpoints=(0.3, 0.7, 1.1, 1.9)))
    assert abs(base - spread) <= 1e-12


def test_quad_declared_endpoint_singularity():
    # integrand ~ (x - a)^(-1/2): exact integral 2 sqrt(b - a)
    spec = QuadratureSpec(breakpoints=(0.0,))
    val = adaptive_quad(lambda x: x**-0.5, 0.0, 4.0, spec)
    assert val == pytest.approx(4.0, rel=1e-10)


def test_quad_nonconvergence():
    spec = QuadratureSpec(abs_tol=1e-14, rel_tol=1e-14, max_subdivisions=8)
    with pytest.raises(NonConvergence):
        adaptive_quad(lambda x: np.abs(x - 0.123456789) ** -0.5, 0.0, 1.0, spec)


def test_quad_spec_validation():
    with pytest.raises(ValueError):
        QuadratureSpec(abs_tol=0.0)
    with pytest.raises(ValueError):
        QuadratureSpec(breakpoints=(0.5, 0.2))


# -- bracketed_root ----------------------------------------------------------


def test_root_sqrt2():
    x = bracketed_root(lambda x: x * x - 2.0, 1.0, 2.0)
    assert x == pytest.approx(math.sqrt(2.0), abs=1e-10)


def test_root_identity():
    assert bracketed_root(lambda x: x, -1.0, 1.0) == pytest.approx(0.0, abs=1e-10)


def test_root_head_minimizer_equation():
    # closed-form head-minimizer equation for Gamma(p) = 2p
    f = lambda lam: 1.0 / math.sqrt(lam - 2.0) - 1.0 / math.sqrt(lam) - 1.0
    x = bracketed_root(f, 2.1, 3.0, RootSpec(x_tol=1e-12))
    ref = scipy.optimize.brentq(f, 2.1, 3.0, xtol=1e-13)
    assert x == pytest.approx(ref, abs=1e-10)
    assert x == pytest.approx(2.3673, abs=1e-3)


def test_root_sign_symmetric():
    f = lambda x: math.cos(x) - x
    a = bracketed_root(f, 0.0, 1.0, RootSpec(x_tol=1e-12))
    b = bracketed_root(lambda x: -f(x), 0.0, 1.0, RootSpec(x_tol=1e-12))
    assert a == pytest.approx(b, abs=1e-10)


def test_root_no_sign_change():
    with pytest.raises(NoSignChange):
        bracketed_root(lambda x: x * x + 1.0, -1.0, 1.0)


def test_root_f_tol_stop():
    calls = []

    def f(x):
        calls.append(x)
        return x**3

    x = bracketed_root(f, -2.0, 3.0, RootSpec(x_tol=1e-15, f_tol=1e-6, max_iter=500))
    assert abs(x**3) <= 1e-6


def test_root_spec_validation():
    with pytest.raises(ValueError):
        RootSpec(x_tol=0.0)
    with pytest.raises(ValueError):
        RootSpec(max_iter=0)


# -- smallest_eigenpair_tridiagonal ------------------------------------------


def _bands(m):
    return np.diag(m).copy(), np.diag(m, 1).copy()


def _dense(d, e):
    return np.diag(d) + np.diag(e, 1) + np.diag(e, -1)


def test_eigen_1x1():
    mu, v = smallest_eigenpair_tridiagonal(
        np.array([2.0]), np.zeros(0), np.array([1.0]), np.zeros(0), 1.9
    )
    assert mu == pytest.approx(2.0)
    assert v == pytest.approx([1.0])


def test_eigen_1x1_stops_at_a_singular_shift(monkeypatch):
    solves = []
    solve = scipy.linalg.solve_banded

    def counted(*args, **kwargs):
        solves.append(args)
        return solve(*args, **kwargs)

    monkeypatch.setattr(scipy.linalg, "solve_banded", counted)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        mu, v = smallest_eigenpair_tridiagonal(
            np.array([2.0]), np.zeros(0), np.array([1.0]), np.zeros(0), 2.0
        )
    assert mu == 2.0
    assert v == pytest.approx([1.0])
    assert len(solves) == 1


def test_eigen_diagonal():
    mu, v = smallest_eigenpair_tridiagonal(
        np.array([1.0, 5.0]), np.zeros(1), np.ones(2), np.zeros(1), 0.9
    )
    assert mu == pytest.approx(1.0)
    assert abs(v[0]) == pytest.approx(1.0)
    assert v[1] == pytest.approx(0.0, abs=1e-12)


def _p2_pair_dirichlet():
    """3x3 stiffness/mass of -u'' = mu u on (0, 1), u(0) = u(1) = 0,
    discretized with two quadratic elements (3 interior nodes); both
    matrices are tridiagonal."""
    h = 0.5
    k_loc = np.array([[7.0, -8.0, 1.0], [-8.0, 16.0, -8.0], [1.0, -8.0, 7.0]]) / (3.0 * h)
    m_loc = np.array([[4.0, 2.0, -1.0], [2.0, 16.0, 2.0], [-1.0, 2.0, 4.0]]) * h / 30.0
    K = np.zeros((5, 5))
    M = np.zeros((5, 5))
    for e, sl in ((0, slice(0, 3)), (1, slice(2, 5))):
        K[sl, sl] += k_loc
        M[sl, sl] += m_loc
    return K[1:4, 1:4], M[1:4, 1:4]


def test_eigen_dirichlet_laplacian_vs_pi_squared():
    K, M = _p2_pair_dirichlet()
    mu, v = smallest_eigenpair_tridiagonal(*_bands(K), *_bands(M), 9.0)
    # independent oracle: dense solve of the same pencil
    ref = np.min(scipy.linalg.eigh(K, M, eigvals_only=True))
    assert mu == pytest.approx(ref, rel=1e-12)
    assert abs(mu - math.pi**2) <= 0.05 * math.pi**2


def test_eigen_scaling_invariance():
    K, M = _p2_pair_dirichlet()
    mu1, _ = smallest_eigenpair_tridiagonal(*_bands(K), *_bands(M), 9.0)
    mu2, _ = smallest_eigenpair_tridiagonal(*_bands(4.0 * K), *_bands(4.0 * M), 9.0)
    assert mu1 == pytest.approx(mu2, rel=1e-12)


def test_eigen_surface_normalization():
    rng = np.random.default_rng(7)
    dA = rng.standard_normal(6)
    eA = rng.standard_normal(5)
    dB = np.ones(6)
    eB = np.zeros(5)
    A = _dense(dA, eA)
    ref = scipy.linalg.eigh(A, eigvals_only=True)[0]
    mu, v = smallest_eigenpair_tridiagonal(dA, eA, dB, eB, ref + 1e-3)
    assert v[-1] == pytest.approx(1.0)
    res = np.linalg.norm(A @ v - mu * v)
    assert res <= 1e-8 * np.linalg.norm(A, np.inf) * np.linalg.norm(v)


def test_tridiagonal_matches_dense():
    rng = np.random.default_rng(3)
    n = 50
    dA = rng.uniform(1.0, 2.0, n)
    eA = rng.uniform(-0.5, 0.5, n - 1)
    dB = rng.uniform(0.5, 1.5, n)
    eB = np.zeros(n - 1)
    ref = scipy.linalg.eigh(
        _dense(dA, eA), np.diag(dB), eigvals_only=True, subset_by_index=[0, 0]
    )[0]
    mu, v = smallest_eigenpair_tridiagonal(dA, eA, dB, eB, ref + 1e-3)
    assert mu == pytest.approx(ref, rel=1e-10)
    below = count_pencil_eigenvalues_below(dA, eA, dB, eB, mu - 1e-8)
    assert below == 0


def test_count_pencil_eigenvalues():
    dA = np.array([1.0, 2.0, 3.0])
    eA = np.zeros(2)
    dB = np.ones(3)
    eB = np.zeros(2)
    assert count_pencil_eigenvalues_below(dA, eA, dB, eB, 0.5) == 0
    assert count_pencil_eigenvalues_below(dA, eA, dB, eB, 2.5) == 2
    assert count_pencil_eigenvalues_below(dA, eA, dB, eB, 10.0) == 3
