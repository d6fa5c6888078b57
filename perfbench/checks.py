"""Checks of one command's output files against the oracles.

Each check reads the files a command wrote and raises CheckFailure at the
first disagreement.  The numbers compared against come from oracles.py,
never from a stored copy of earlier output.
"""

from __future__ import annotations

import csv
import json
import math
import os

import numpy as np

import oracles

# mu(lambda*) = -1 is certified by the shooting oracle to within this much.
MU_DELTA = 1e-6


class CheckFailure(Exception):
    pass


def _require(cond: bool, what: str):
    if not cond:
        raise CheckFailure(what)


def _close(value: float, reference: float, rel: float, what: str):
    _require(
        abs(value - reference) <= rel * max(1.0, abs(reference)),
        f"{what}: {value!r} differs from the oracle's {reference!r}",
    )


def _read_csv(path: str):
    with open(path, newline="") as fh:
        rows = list(csv.reader(fh))
    return rows[0], rows[1:]


def _param_values(argv, name: str) -> list:
    spec = argv[list(argv).index("--param") + 1]
    pname, lo, hi, n = spec.split(":")
    _require(pname == name, f"expected a {name} sweep, got {spec}")
    return list(np.linspace(float(lo), float(hi), int(n)))


def _flow(config: dict):
    flow = config["flow"]
    return float(flow["g"]), float(flow["d"]), float(flow["p0"])


def check_analyze(config: dict, argv, out: str):
    g, d, p0 = _flow(config)
    prim = oracles.Primitive(config["vorticity"], d, p0)
    with open(os.path.join(out, "report.json")) as fh:
        rep = json.load(fh)
    _require(rep["status"] == "bifurcation", f"status {rep['status']!r}")
    lam0 = rep["lambda0"]
    lam_star = rep["lambda_star"]
    _close(lam0, oracles.lambda0_linear(prim, g, d, p0), 1e-9, "lambda0")
    _require(prim.floor() < lam_star < lam0, f"lambda* {lam_star!r} not in (floor, lambda0)")
    _close(rep["Q_star"], oracles.head_linear(prim, lam_star, g, d, p0), 1e-9, "Q_star")
    _require(rep["mu_residual"] <= 1e-8, f"mu_residual {rep['mu_residual']!r}")
    _require(abs(rep["mu_at_lambda0"]) <= 1e-6, f"mu(lambda0) = {rep['mu_at_lambda0']!r}, not 0")
    _require(rep["transversality"] < 0.0, f"transversality {rep['transversality']!r} >= 0")
    _require(
        oracles.principal_mu_within(prim, lam_star, -1.0, MU_DELTA, g, d, p0),
        f"shooting puts mu(lambda*) outside -1 +- {MU_DELTA}",
    )
    vort = config["vorticity"]
    if vort["kind"] == "constant":
        gamma = float(vort["gamma"])
        holds = gamma * gamma * d * d < (g + gamma * gamma * d) * math.tanh(d)
        _require(
            rep["criteria"]["constant_vorticity"]["holds"] is holds,
            "constant-vorticity criterion disagrees with gamma^2 d^2 < (g + gamma^2 d) tanh d",
        )

    header, rows = _read_csv(os.path.join(out, "mu_curve.csv"))
    _require(header == ["lambda", "mu"], f"mu_curve.csv header {header}")
    lam = np.array([float(r[0]) for r in rows])
    mu = np.array([float(r[1]) for r in rows])
    _require(len(rows) == 21, f"mu_curve.csv has {len(rows)} rows, not 21")
    _require(bool(np.all(np.diff(lam) > 0.0)), "mu_curve.csv lambdas not increasing")
    _require(lam[0] > prim.floor() and lam[-1] == lam0, "mu_curve.csv does not span (floor, lambda0]")
    _close(mu[-1], rep["mu_at_lambda0"], 1e-9, "mu_curve.csv at lambda0")
    neg = (mu[:-1] < 0.0) & (mu[1:] < 0.0)
    _require(bool(np.all(np.diff(mu)[neg] > 0.0)), "mu_curve.csv not increasing where mu < 0")


def check_sweep_lambda_star(config: dict, argv, out: str):
    g, d, p0 = _flow(config)
    header, rows = _read_csv(os.path.join(out, "sweep.csv"))
    _require(header == ["gamma", "lambda_star", "lambda0", "mu_residual", "error"], f"header {header}")
    gammas = _param_values(argv, "gamma")
    _require(len(rows) == len(gammas), f"{len(rows)} rows for {len(gammas)} gammas")
    for gamma, row in zip(gammas, rows):
        _require(row[4] == "", f"gamma={gamma}: error {row[4]!r}")
        _close(float(row[0]), gamma, 0.0, "gamma column")
        lam_star, lam0, residual = map(float, row[1:4])
        prim = oracles.Primitive({"kind": "constant", "gamma": gamma}, d, p0)
        _require(prim.floor() < lam_star < lam0, f"gamma={gamma}: lambda* not in (floor, lambda0)")
        _require(residual <= 1e-8, f"gamma={gamma}: mu_residual {residual!r}")
        if gamma == 0.0:
            _close(lam0, oracles.irrotational_lambda0(g, d, p0), 1e-9, "gamma=0 lambda0")
            _close(lam_star, oracles.irrotational_lambda_star(g, d, p0), 1e-9, "gamma=0 lambda*")
        else:
            _close(lam0, oracles.lambda0_linear(prim, g, d, p0), 1e-9, f"gamma={gamma} lambda0")
            _require(
                oracles.principal_mu_within(prim, lam_star, -1.0, MU_DELTA, g, d, p0),
                f"gamma={gamma}: shooting puts mu(lambda*) outside -1 +- {MU_DELTA}",
            )


def check_reconstruct(config: dict, argv, out: str):
    _g, d, p0 = _flow(config)
    n_q = int(config["reconstruct"]["n_q"])
    amplitudes = [float(argv[i + 1]) for i, a in enumerate(argv) if a == "--amplitude"]

    with open(os.path.join(out, "residuals.json")) as fh:
        res = json.load(fh)
    entries = res["amplitudes"]
    _require([e["s"] for e in entries] == amplitudes, "residuals.json amplitudes differ from the command")
    for key in ("interior_norm", "boundary_norm"):
        norms = [e[key] for e in entries]
        _require(0.0 < norms[0] < norms[1], f"{key} not positive and growing with s")
    for key in ("interior", "boundary"):
        slope = res["slope_fit"][key]
        _require(abs(slope - 2.0) <= 0.1, f"{key} residual slope {slope!r}, not ~2")

    header, _ = _read_csv(os.path.join(out, "surface.csv"))
    _require(header == ["x", "eta"], f"surface.csv header {header}")
    surface = np.loadtxt(os.path.join(out, "surface.csv"), delimiter=",", skiprows=1, ndmin=2)
    with open(os.path.join(out, "field.csv")) as fh:
        header = fh.readline().strip().split(",")
    _require(header == ["q", "p", "x", "y", "h", "u_rel", "v", "psi"], f"field.csv header {header}")
    data = np.loadtxt(os.path.join(out, "field.csv"), delimiter=",", skiprows=1)
    _require(data.shape[0] % n_q == 0, f"{data.shape[0]} field rows is not a multiple of n_q")
    f = data.reshape(n_q, -1, 8)
    q, p, x, y, h, u_rel, _v, psi = (f[:, :, k] for k in range(8))

    q_grid = -math.pi + 2.0 * math.pi * np.arange(n_q) / n_q
    _require(bool(np.allclose(q[:, 0], q_grid, rtol=0.0, atol=1e-15)), "q is not the uniform periodic grid")
    _require(bool(np.all(q == q[:, :1]) and np.all(p == p[:1, :])), "field.csv is not a q-major grid")
    p_nodes = p[0]
    _require(p_nodes[0] == -1.0 and p_nodes[-1] == 0.0, "p does not run from -1 to 0")
    _require(bool(np.all(np.diff(p_nodes) > 0.0)), "p nodes not increasing")
    _require(bool(np.all(x == q)), "x != q")
    _require(bool(np.all(h[:, 0] == 0.0)), "h(q, -1) != 0")
    _require(bool(np.allclose(psi, p0 * p, rtol=1e-15, atol=0.0)), "psi != p0 p")
    _require(bool(np.allclose(y[:, 1:], d * (h[:, 1:] + p[:, 1:]), rtol=1e-13, atol=1e-15)), "y != d (h + p)")
    _require(bool(np.all(y[:, 0] == -d)), "bed not at y = -d")
    mirror = h[(-np.arange(n_q)) % n_q]
    _require(bool(np.allclose(h, mirror, rtol=0.0, atol=1e-12)), "h not even in q")
    _require(bool(np.all(u_rel < 0.0)), "u - c >= 0 somewhere: stagnation")
    _require(bool(np.all(surface[:, 0] == q[:, 0])), "surface.csv x is not the q grid")
    _require(bool(np.allclose(surface[:, 1], d * h[:, -1], rtol=1e-15, atol=1e-17)), "eta != d h(q, 0)")


def check_onset(config: dict, argv, out: str):
    g, d, _p0 = _flow(config)
    header, rows = _read_csv(os.path.join(out, "sweep.csv"))
    _require(header == ["lambda", "p0", "mu", "error"], f"header {header}")
    lams = _param_values(argv, "lambda")
    _require(len(rows) == len(lams), f"{len(rows)} rows for {len(lams)} lambdas")
    for lam, row in zip(lams, rows):
        _require(row[3] == "", f"lambda={lam}: error {row[3]!r}")
        _close(float(row[0]), lam, 0.0, "lambda column")
        p0, mu = float(row[1]), float(row[2])
        _require(p0 < 0.0 and math.isfinite(mu), f"lambda={lam}: p0={p0!r}, mu={mu!r}")
        prim = oracles.Primitive(config["vorticity"], d, p0)
        _require(lam > prim.floor(), f"lambda={lam}: calibrated p0 puts lambda below the floor")
        depth = oracles.unit_depth_integral(prim, lam)
        _require(abs(depth - 1.0) <= 1e-8, f"lambda={lam}: unit-depth integral {depth!r}, not 1")
        delta = MU_DELTA * max(1.0, abs(mu))
        _require(
            oracles.principal_mu_within(prim, lam, mu, delta, g, d, p0),
            f"lambda={lam}: shooting puts mu outside {mu!r} +- {delta!r}",
        )


def check(workload: str, config: dict, argv, out: str):
    {
        "analyze": check_analyze,
        "sweep": check_sweep_lambda_star,
        "reconstruct": check_reconstruct,
        "onset": check_onset,
    }[workload](config, argv, out)
