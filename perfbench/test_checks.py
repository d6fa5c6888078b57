"""The output checks on small hand-made outputs: each passes on a consistent
output and catches one broken property."""

import json
import math

import numpy as np
import pytest

import checks
import oracles

# Irrotational flow with p0^2 = tanh 1 and g = d = 1: lambda* = 1 exactly.
PINNED = {
    "flow": {"d": 1.0, "g": 1.0, "p0": -math.sqrt(math.tanh(1.0))},
    "vorticity": {"kind": "constant", "gamma": 0.0},
}


def _write_csv(path, header, rows):
    path.write_text("\n".join([",".join(header)] + [",".join(repr(float(v)) for v in r) for r in rows]) + "\n")


def _analyze_output(tmp_path, mu=None, transversality=-1.0):
    g, d, p0 = 1.0, 1.0, PINNED["flow"]["p0"]
    prim = oracles.Primitive(PINNED["vorticity"], d, p0)
    lam0 = oracles.lambda0_linear(prim, g, d, p0)
    report = {
        "status": "bifurcation",
        "lambda0": lam0,
        "lambda_star": 1.0,
        "Q_star": oracles.head_linear(prim, 1.0, g, d, p0),
        "mu_residual": 0.0,
        "mu_at_lambda0": 0.0,
        "transversality": transversality,
        "criteria": {"constant_vorticity": {"holds": True}},
    }
    (tmp_path / "report.json").write_text(json.dumps(report))
    lam = np.linspace(0.5, lam0, 21)
    lam[-1] = lam0
    mu = np.linspace(-1.0, 0.0, 21) if mu is None else mu
    _write_csv(tmp_path / "mu_curve.csv", ["lambda", "mu"], zip(lam, mu))
    return str(tmp_path)


def test_analyze_checks(tmp_path):
    checks.check_analyze(PINNED, ("analyze",), _analyze_output(tmp_path))


def test_analyze_catches_a_decreasing_mu_curve(tmp_path):
    mu = np.linspace(-1.0, 0.0, 21)
    mu[[3, 4]] = mu[[4, 3]]
    with pytest.raises(checks.CheckFailure, match="not increasing"):
        checks.check_analyze(PINNED, ("analyze",), _analyze_output(tmp_path, mu=mu))


def test_analyze_catches_a_positive_transversality(tmp_path):
    with pytest.raises(checks.CheckFailure, match="transversality"):
        checks.check_analyze(PINNED, ("analyze",), _analyze_output(tmp_path, transversality=0.5))


def _reconstruct_output(tmp_path, break_evenness=False):
    d, p0, n_q = 1.0, -2.0, 16
    q = -math.pi + 2.0 * math.pi * np.arange(n_q) / n_q
    p = np.linspace(-1.0, 0.0, 11)
    h = 0.2 * (p + 1.0)[None, :] + 0.01 * np.cos(q)[:, None] * (p + 1.0)[None, :]
    if break_evenness:
        h[3, 5] += 1e-6
    h_p = 0.2 + 0.01 * np.cos(q)[:, None] + 0.0 * p[None, :]
    rows = []
    for i in range(n_q):
        for j in range(len(p)):
            y = -d if j == 0 else d * (h[i, j] + p[j])
            rows.append((q[i], p[j], q[i], y, h[i, j], p0 / (d * (1.0 + h_p[i, j])), 0.0, p0 * p[j]))
    _write_csv(tmp_path / "field.csv", ["q", "p", "x", "y", "h", "u_rel", "v", "psi"], rows)
    _write_csv(tmp_path / "surface.csv", ["x", "eta"], zip(q, d * h[:, -1]))
    residuals = {
        "amplitudes": [
            {"s": 0.01, "interior_norm": 1e-4, "boundary_norm": 2e-4},
            {"s": 0.02, "interior_norm": 4e-4, "boundary_norm": 8e-4},
        ],
        "slope_fit": {"interior": 2.0, "boundary": 2.0},
    }
    (tmp_path / "residuals.json").write_text(json.dumps(residuals))
    config = {"flow": {"d": d, "g": 9.81, "p0": p0}, "reconstruct": {"n_q": n_q}}
    return config, ("reconstruct", "--amplitude", "0.01", "--amplitude", "0.02"), str(tmp_path)


def test_reconstruct_checks(tmp_path):
    checks.check_reconstruct(*_reconstruct_output(tmp_path))


def test_reconstruct_catches_an_uneven_field(tmp_path):
    with pytest.raises(checks.CheckFailure, match="not even"):
        checks.check_reconstruct(*_reconstruct_output(tmp_path, break_evenness=True))
