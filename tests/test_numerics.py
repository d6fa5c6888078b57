import math

import numpy as np
import pytest
import scipy.linalg
import scipy.optimize

from rotwave import VorticityDistribution, find_lambda_star, lambda_of_min_head, numerics, spectral
from rotwave.errors import BracketFailure, NoSignChange
from rotwave.numerics import bracket_turn, bracketed_root
from rotwave.vorticity import ElementRule

from conftest import certified_levels, make_branch, make_profile, pencil_bands


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


# -- cyclic reduction ------------------------------------------------------------


def _dense(d, e):
    return np.diag(d) + np.diag(e, 1) + np.diag(e, -1)


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
    # stiffness has no negative pivot.
    dA, eA, dB, f = _stiffness_pencil(n)
    s = 1.0 / np.sqrt(dB)
    lowest = scipy.linalg.eigh_tridiagonal(
        s * dA * s, s[:-1] * eA * s[1:], eigvals_only=True, select="i", select_range=(0, 0)
    )[0]
    for sigma in (0.0, lowest * (1.0 + 1e-8), lowest * (1.0 + 1e-12)):
        d = dA - sigma * dB
        x, negatives = numerics._solve_tridiagonal(d, eA, f)
        assert negatives == 0 or sigma != 0.0
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
    # No pivoting: a zero pivot raises, whatever the caller's errstate.
    args = (np.array(d), np.array(e), np.array(f))
    with pytest.raises(FloatingPointError):
        numerics._solve_tridiagonal(*args)


def _negatives(dA, eA, dB, eB, tau):
    """Negative pivots of the cyclic reduction of A - tau B; None at a zero
    pivot."""
    try:
        return numerics._solve_tridiagonal(dA - tau * dB, eA - tau * eB, np.ones(len(dA)))[1]
    except FloatingPointError:
        return None


@pytest.mark.parametrize("n", [1, 2, 3, 7, 8, 9, 64, 300])
def test_pivot_signs_match_dense_inertia(n):
    # The reduction is LDL^T of a symmetric permutation, so it has as many
    # negative pivots as the pencil has eigenvalues below the shift: below
    # all of them, between any two neighbours and above all of them.
    dA, eA, dB, _ = _stiffness_pencil(n)
    w = scipy.linalg.eigh(_dense(dA, eA), np.diag(dB), eigvals_only=True)
    for tau in (w[0] - 1.0, *(0.5 * (w[:-1] + w[1:])), w[-1] + 1.0):
        assert _negatives(dA, eA, dB, np.zeros(n - 1), tau) == np.count_nonzero(w < tau)
    # a diagonal pencil with eigenvalues 1, 2, 3
    d, e = np.array([1.0, 2.0, 3.0]), np.zeros(2)
    assert [_negatives(d, e, np.ones(3), e, tau) for tau in (0.5, 1.5, 2.5, 10.0)] == [0, 1, 2, 3]


# -- the certificate of the principal pair ----------------------------------------


def _level(name):
    """(flow, nodes, element integrals) of a 201-point level: C1 at
    lambda = 1.5, or P (one jump) at 0.5 above its floor."""
    if name == "c1":
        prof, flow = make_profile(-1.0, d=1.0, g=9.81, p0=-2.0)
        lam = 1.5
    else:
        prof, flow = make_profile(VorticityDistribution.piecewise_constant([-0.5], [0.5, -2.0]), p0=-1.0)
        lam = prof.min_lambda + 0.5
    nodes = spectral.build_mesh(prof, lam, 201)
    return flow, nodes, spectral._element_integrals(ElementRule(prof, nodes), lam, prof._scale)


@pytest.mark.parametrize("name", ["c1", "p"])
def test_certificate_declines_a_second_eigenpair(name):
    # Seeded just below the second eigenpair, every shift has one negative
    # pivot and the iteration converges to that pair.  Its quotient lies
    # within rho of mu_2, so no shift below mu_2 bounds it from above, nor
    # does q + 2 rho, whose reduction has two negative pivots, and the
    # secular equation returns mu_1 instead.
    flow, nodes, ints = _level(name)
    dA, eA, dB, eB = pencil_bands(flow, nodes, ints)
    w, vecs = scipy.linalg.eigh(_dense(dA, eA), _dense(dB, eB))
    second, v0 = w[1], vecs[:, 1] / np.linalg.norm(vecs[:, 1])
    with certified_levels() as levels:
        mu, M = spectral._solve_level(flow, nodes, ints, (second - 1e-6 * abs(second), v0 + 1e-6))
    [level] = levels
    q, rho = level["pair"]
    assert q == pytest.approx(second, rel=1e-10)
    assert _negatives(dA, eA, dB, eB, q + 2.0 * rho) == 2
    assert level["secular"]
    assert mu == pytest.approx(w[0], rel=1e-10)
    assert M[0] == 0.0 and M[-1] == 1.0


@pytest.mark.parametrize("name", ["c1", "p"])
def test_iteration_stops_at_a_shift_above_the_second_eigenvalue(name):
    # Seeded just above mu_2, the first reduction has two negative pivots:
    # the iteration is heading for a pair other than the principal one, so
    # it stops there, without converging, and the secular equation returns
    # mu_1.
    flow, nodes, ints = _level(name)
    dA, eA, dB, eB = pencil_bands(flow, nodes, ints)
    w, vecs = scipy.linalg.eigh(_dense(dA, eA), _dense(dB, eB))
    second, v0 = w[1], vecs[:, 1] / np.linalg.norm(vecs[:, 1])
    assert _negatives(dA, eA, dB, eB, second + 1e-6 * abs(second)) == 2
    with certified_levels() as levels:
        mu, M = spectral._solve_level(flow, nodes, ints, (second + 1e-6 * abs(second), v0 + 1e-3))
    [level] = levels
    assert level["pair"] is None and level["secular"]
    assert mu == pytest.approx(w[0], rel=1e-10)
    assert M[0] == 0.0 and M[-1] == 1.0


def _seeded_from_dense(name):
    """The level of ``name``, its dense pencil (A, B) and mu_1 by dense eigh,
    and (mu, M) and the record of its level solve seeded 1e-3 above mu_1
    with the principal vector shifted by 1e-3."""
    flow, nodes, ints = _level(name)
    dA, eA, dB, eB = pencil_bands(flow, nodes, ints)
    A, B = _dense(dA, eA), _dense(dB, eB)
    w, vecs = scipy.linalg.eigh(A, B, subset_by_index=[0, 0])
    v0 = vecs[:, 0] / np.linalg.norm(vecs[:, 0])
    with certified_levels() as levels:
        mu, M = spectral._solve_level(flow, nodes, ints, (w[0] + 1e-3, v0 + 1e-3))
    [level] = levels
    return A, B, w[0], mu, M, level


def test_eigen_surface_normalization():
    # The certified pair comes back normalized at the surface, M(0) = 1,
    # with the bed node M(-1) = 0, and M is an eigenvector of the pencil.
    for name in ("c1", "p"):
        A, B, _ref, mu, M, level = _seeded_from_dense(name)
        assert not level["secular"]
        assert M[-1] == 1.0 and M[0] == 0.0
        v = M[1:]
        res = np.linalg.norm(A @ v - mu * (B @ v))
        scale = np.linalg.norm(A, np.inf) + abs(mu) * np.linalg.norm(B, np.inf)
        assert res <= 1e-8 * scale * np.linalg.norm(v)


def test_tridiagonal_matches_dense():
    # The iteration converges to the least eigenvalue of dense eigh, and the
    # inertia of A - tau B puts no eigenvalue below mu and one just above.
    for name in ("c1", "p"):
        A, B, ref, mu, _M, level = _seeded_from_dense(name)
        assert not level["secular"]
        assert mu == pytest.approx(ref, rel=1e-10)
        delta = 1e-8 * max(1.0, abs(mu))
        bands = level["bands"]
        assert _negatives(*bands, mu - delta) == 0
        assert _negatives(*bands, mu + delta) == 1


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
def test_certificate_agrees_with_inertia_counts(name):
    # Unseeded, principal_eigen solves its 2001-node level by the secular
    # equation and runs the iteration on the 4001-node level alone, which
    # converges every time.  What a certificate accepts, mu_1 in
    # [q - rho, q] and mu_2 > q + rho, the inertia of A - (q -+ (rho +
    # delta)) B confirms, read from the negative pivots of the cyclic
    # reduction.
    gamma, flow_kwargs = _PROFILES[name]
    prof, flow = make_profile(gamma, **flow_kwargs)
    result = find_lambda_star(make_branch(gamma, **flow_kwargs))
    lambdas = (prof.min_lambda + 1e-3, result.lambda_star, lambda_of_min_head(prof, flow))
    with certified_levels() as levels:
        for lam in lambdas:
            spectral.principal_eigen(prof, flow, lam)
    assert [len(level["bands"][0]) for level in levels] == [2000, 4000] * len(lambdas)
    iterated = levels[1::2]
    assert all(level["pair"] is not None for level in iterated)
    accepted = [level for level in iterated if not level["secular"]]
    assert len(accepted) >= len(iterated) // 2
    for level in accepted:
        q, rho = level["pair"]
        delta = 1e-6 * max(1.0, abs(q))
        assert _negatives(*level["bands"], q - rho - delta) == 0
        assert _negatives(*level["bands"], q + rho + delta) == 1
