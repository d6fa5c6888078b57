import math
import warnings

import numpy as np
import pytest
import scipy.linalg
import scipy.optimize

from rotwave import VorticityDistribution, find_lambda_star, lambda_of_min_head, numerics, spectral
from rotwave.errors import BracketFailure, EigenFailure, NoSignChange
from rotwave.numerics import bracket_turn, bracketed_root, smallest_eigenpair_tridiagonal

from conftest import make_branch, make_profile


# -- bracketed_root ----------------------------------------------------------


def test_root_sqrt2():
    x = bracketed_root(lambda x: x * x - 2.0, 1.0, 2.0)
    assert x == pytest.approx(math.sqrt(2.0), abs=1e-10)


def test_root_identity():
    assert bracketed_root(lambda x: x, -1.0, 1.0) == pytest.approx(0.0, abs=1e-10)


def test_root_head_minimizer_equation():
    # closed-form head-minimizer equation for Gamma(p) = 2p
    f = lambda lam: 1.0 / math.sqrt(lam - 2.0) - 1.0 / math.sqrt(lam) - 1.0
    x = bracketed_root(f, 2.1, 3.0, x_tol=1e-12)
    ref = scipy.optimize.brentq(f, 2.1, 3.0, xtol=1e-13)
    assert x == pytest.approx(ref, abs=1e-10)
    assert x == pytest.approx(2.3673, abs=1e-3)


def test_root_sign_symmetric():
    f = lambda x: math.cos(x) - x
    a = bracketed_root(f, 0.0, 1.0, x_tol=1e-12)
    b = bracketed_root(lambda x: -f(x), 0.0, 1.0, x_tol=1e-12)
    assert a == pytest.approx(b, abs=1e-10)


def test_root_no_sign_change():
    with pytest.raises(NoSignChange):
        bracketed_root(lambda x: x * x + 1.0, -1.0, 1.0)


def test_root_f_tol_stop():
    calls = []

    def f(x):
        calls.append(x)
        return x**3

    x = bracketed_root(f, -2.0, 3.0, x_tol=1e-15, f_tol=1e-6, max_iter=500)
    assert abs(x**3) <= 1e-6


def test_root_spec_validation():
    with pytest.raises(ValueError):
        bracketed_root(lambda x: x, -1.0, 1.0, x_tol=0.0)
    with pytest.raises(ValueError):
        bracketed_root(lambda x: x, -1.0, 1.0, max_iter=0)


# -- bracket_turn ------------------------------------------------------------


def test_bracket_turn_walks_by_four_from_zero():
    for turn, bracket, probes in [
        (5.0, (4.0, 16.0), [0.0, 1.0, 4.0, 16.0]),
        (-5.0, (-16.0, -4.0), [0.0, -1.0, -4.0, -16.0]),
        (0.0, (-1.0, 0.0), [0.0, -1.0]),
    ]:
        seen = []

        def turned(x):
            seen.append(x)
            return x >= turn

        assert bracket_turn(turned, 1e9) == bracket
        assert seen == probes


def test_bracket_turn_probes_the_step_past_the_cap():
    seen = []
    with pytest.raises(BracketFailure):
        bracket_turn(lambda x: seen.append(x) or False, 100.0)
    assert seen == [0.0, 1.0, 4.0, 16.0, 64.0, 256.0]
    assert bracket_turn(lambda x: x >= 200.0, 100.0) == (64.0, 256.0)


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
    solve = numerics._solve_tridiagonal

    def counted(*args, **kwargs):
        solves.append(args)
        return solve(*args, **kwargs)

    monkeypatch.setattr(numerics, "_solve_tridiagonal", counted)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        mu, v = smallest_eigenpair_tridiagonal(
            np.array([2.0]), np.zeros(0), np.array([1.0]), np.zeros(0), 2.0
        )
    assert mu == 2.0
    assert v == pytest.approx([1.0])
    assert len(solves) == 1


# -- cyclic reduction ------------------------------------------------------------


def _stiffness_pencil(n):
    """P1 stiffness on a random mesh, bed node removed, and a lumped mass."""
    rng = np.random.default_rng(n)
    h = rng.uniform(0.5, 1.5, n) / n
    k = rng.uniform(0.5, 2.0, n) / h
    dA = k.copy()
    dA[:-1] += k[1:]
    dB = rng.uniform(0.5, 2.0, n) / n
    return dA, -k[1:], dB, rng.normal(size=n)


@pytest.mark.parametrize("n", [1, 2, 3, 7, 8, 9, 200, 4000])
def test_solve_tridiagonal_matches_lapack(n):
    # Each side of the padding to 2^k - 1 unknowns.  The SPD stiffness, and
    # the same pencil shifted just above its smallest eigenvalue, as the
    # Rayleigh quotient iteration shifts it: there the solution is nearly
    # an eigenvector, whose direction must come out right.  The unshifted
    # stiffness is reported positive definite.
    dA, eA, dB, f = _stiffness_pencil(n)
    s = 1.0 / np.sqrt(dB)
    lowest = scipy.linalg.eigh_tridiagonal(
        s * dA * s, s[:-1] * eA * s[1:], eigvals_only=True, select="i", select_range=(0, 0)
    )[0]
    for sigma in (0.0, lowest * (1.0 + 1e-8), lowest * (1.0 + 1e-12)):
        d = dA - sigma * dB
        with np.errstate(divide="raise", invalid="raise", over="raise"):
            x, definite = numerics._solve_tridiagonal(d, eA, f)
        assert definite or sigma != 0.0
        if n <= 200:
            ref = np.linalg.solve(_dense(d, eA), f)
        else:  # the dense matrix would take 128 MB
            bands = np.array([np.r_[0.0, eA], d, np.r_[eA, 0.0]])
            ref = scipy.linalg.solve_banded((1, 1), bands, f)
        tx = numerics._tridiag_matvec(d, eA, x)
        norm = np.max(np.abs(d)) + 2.0 * np.max(np.abs(eA), initial=0.0)
        assert np.max(np.abs(tx - f)) <= 1e-15 * norm * np.max(np.abs(x))
        x, ref = x / np.linalg.norm(x), ref / np.linalg.norm(ref)
        assert np.max(np.abs(x - ref)) <= 1e-12


@pytest.mark.parametrize(
    "d, e, f",
    [
        ([0.0], [], [1.0]),  # 1 x 1: division by zero
        ([0.0], [], [0.0]),  # 0 / 0
        ([0.0, 1.0], [1.0], [1.0, 1.0]),  # zero pivot on the first level
        ([1.0, 2.0, 1.0], [1.0, 1.0], [1.0, 2.0, 3.0]),  # zero pivot on the last level
    ],
)
def test_solve_tridiagonal_zero_pivot_raises(d, e, f):
    # No pivoting: a zero pivot raises under the errstate the iteration uses.
    args = (np.array(d), np.array(e), np.array(f))
    with np.errstate(divide="raise", invalid="raise", over="raise"):
        with pytest.raises(FloatingPointError):
            numerics._solve_tridiagonal(*args)


def test_eigen_diagonal():
    # Zero off-diagonals fail the certificate's strict Z-matrix test (i):
    # the iteration converges to 1, and the failure carries that quotient
    # for the caller's fallback to start from.
    with pytest.raises(EigenFailure, match="no M-matrix certificate") as failure:
        smallest_eigenpair_tridiagonal(np.array([1.0, 5.0]), np.zeros(1), np.ones(2), np.zeros(1), 0.9)
    assert failure.value.sigma == pytest.approx(1.0, rel=1e-14)


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
    eA = -np.abs(rng.standard_normal(5))  # a Z-matrix, as the finite element A is
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
    eA = rng.uniform(-0.5, -0.01, n - 1)
    dB = rng.uniform(0.5, 1.5, n)
    eB = np.zeros(n - 1)
    ref = scipy.linalg.eigh(
        _dense(dA, eA), np.diag(dB), eigvals_only=True, subset_by_index=[0, 0]
    )[0]
    mu, v = smallest_eigenpair_tridiagonal(dA, eA, dB, eB, ref + 1e-3)
    assert mu == pytest.approx(ref, rel=1e-10)
    assert _definite(dA, eA, dB, eB, mu - 1e-8)


def _definite(dA, eA, dB, eB, tau):
    """Whether A - tau B is positive definite, by the pivots of the cyclic
    reduction; a zero pivot counts as not definite."""
    try:
        with np.errstate(divide="raise", invalid="raise", over="raise"):
            return numerics._solve_tridiagonal(dA - tau * dB, eA - tau * eB, np.ones(len(dA)))[1]
    except FloatingPointError:
        return False


@pytest.mark.parametrize("n", [1, 2, 3, 7, 8, 9, 64, 300])
def test_pivot_signs_match_dense_inertia(n):
    # The reduction is LDL^T of a symmetric permutation, so its pivots are
    # all > 0 exactly when the dense spectrum is: at shifts between
    # eigenvalues, below all of them and above all of them.
    dA, eA, dB, _ = _stiffness_pencil(n)
    w = scipy.linalg.eigh(_dense(dA, eA), np.diag(dB), eigvals_only=True)
    gaps = 0.5 * (w[:-1] + w[1:])
    for tau in (w[0] - 1.0, *gaps[:3], w[-1] + 1.0):
        assert _definite(dA, eA, dB, np.zeros(n - 1), tau) == (tau < w[0])
    # a diagonal pencil with eigenvalues 1, 2, 3
    d, e = np.array([1.0, 2.0, 3.0]), np.zeros(2)
    assert [_definite(d, e, np.ones(3), e, tau) for tau in (0.5, 1.5, 2.5, 10.0)] == [True, False, False, False]


# -- the M-matrix certificate ---------------------------------------------------


@pytest.fixture
def certificates(monkeypatch):
    """(accepted, sigma) of every certificate the eigen solver asks for."""
    seen = []
    certify = numerics._m_matrix_certificate

    def recorded(eA, eB, sigma, *rest):
        ok = certify(eA, eB, sigma, *rest)
        seen.append((ok, sigma))
        return ok

    monkeypatch.setattr(numerics, "_m_matrix_certificate", recorded)
    return seen


def _c1_pencil():
    prof, flow = make_profile(-1.0, d=1.0, g=9.81, p0=-2.0)
    lam = 1.5
    nodes = spectral.build_mesh(prof, lam, 201)
    return [band[1:] for band in spectral.assemble(prof, flow, lam, nodes)]


@pytest.mark.parametrize("pencil", ["p2", "c1"])
def test_certificate_declines_a_second_eigenpair(pencil, certificates):
    if pencil == "p2":
        K, M = _p2_pair_dirichlet()
        bands = [*_bands(K), *_bands(M)]
    else:
        bands = _c1_pencil()
    w, vecs = scipy.linalg.eigh(_dense(bands[0], bands[1]), _dense(bands[2], bands[3]))
    second, v0 = w[1], vecs[:, 1] / np.linalg.norm(vecs[:, 1])
    with pytest.raises(EigenFailure, match="no M-matrix certificate") as failure:
        smallest_eigenpair_tridiagonal(*bands, second * (1.0 + 1e-6), v0 + 1e-3)
    assert failure.value.sigma == pytest.approx(second, rel=1e-10)
    [(ok, sigma)] = certificates
    assert not ok
    assert sigma == pytest.approx(second, rel=1e-10)


_PROFILES = {
    "C1": (-1.0, dict(d=1.0, g=9.81, p0=-2.0)),
    "C0": (0.0, dict(d=1.0, g=9.81, p0=-2.0)),
    "P": (
        VorticityDistribution.piecewise_constant([-0.5], [0.5, -2.0]),
        dict(d=1.0, g=1.0, p0=-1.0),
    ),
    "T": (
        VorticityDistribution.tabulated([-1.0, -0.5, 0.0], [-1.2, -0.3, -1.5]),
        dict(d=1.0, g=9.81, p0=-2.0),
    ),
}


@pytest.mark.parametrize("name", sorted(_PROFILES))
def test_certificate_agrees_with_inertia_counts(name, monkeypatch, certificates):
    # Unseeded, principal_eigen solves its 2001-node level by the secular
    # equation and runs the iteration on the 4001-node level alone.  What a
    # certificate accepts, the inertia of A - (sigma -+ delta) B confirms,
    # read from the signs of the cyclic reduction's pivots.
    gamma, flow_kwargs = _PROFILES[name]
    prof, flow = make_profile(gamma, **flow_kwargs)
    result = find_lambda_star(make_branch(gamma, **flow_kwargs))
    lambdas = (prof.min_lambda + 1e-3, result.lambda_star, lambda_of_min_head(prof, flow))

    pencils = []
    solve = spectral.smallest_eigenpair_tridiagonal

    def solving(*args):
        pencils.append(args[:4])
        return solve(*args)

    monkeypatch.setattr(spectral, "smallest_eigenpair_tridiagonal", solving)
    certificates.clear()
    for lam in lambdas:
        spectral.principal_eigen(prof, flow, lam)
    assert len(pencils) == len(certificates)
    accepted = [(p, sigma) for p, (ok, sigma) in zip(pencils, certificates) if ok]
    assert len(accepted) >= len(pencils) // 2
    assert {len(p[0]) for p, _ in accepted} == {4000}
    for pencil, sigma in accepted:
        delta = 1e-6 * max(1.0, abs(sigma))
        assert _definite(*pencil, sigma - delta)
        assert not _definite(*pencil, sigma + delta)
