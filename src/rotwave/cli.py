"""Config parsing, pipeline orchestration, and deterministic file emission.

Identical config bytes produce byte-identical outputs: floats are written
in shortest round-trip form, line endings are '\\n', files are staged to a
temporary path and atomically renamed, and reports carry no timestamps.

Exit codes: 0 success, 2 no bifurcation, 3 config error, 4 numerical
failure.
"""

from __future__ import annotations

import argparse
import itertools
import json
import math
import os
import sys
import tempfile
from dataclasses import dataclass, field
from typing import Optional, Sequence

import numpy as np
import scipy

from . import __version__
from .bifurcation import (
    DEFAULT_MARGINS,
    BifurcationPoint,
    NoBifurcation,
    check_bed_layer,
    check_constant_vorticity,
    check_continuous_sufficient,
    check_general_sufficient,
    check_surface_layer,
    find_lambda_star,
    onset_curve,
    transversality_integral,
)
from .errors import ConfigError, Error, StagnationAtAmplitude
from .reconstruct import (
    build_wave,
    physical_map,
    residual_slope,
    surface_profile,
    velocity_field,
    weak_residual,
)
from .spectral import principal_eigen
from .vorticity import FlowParameters, GammaProfile, VorticityDistribution, holder_seminorm

_SWEEP_PARAMS = ("gamma", "d", "g", "p0", "depth_frak", "lambda")


@dataclass(frozen=True)
class NumericsOptions:
    mesh_points: int = 2001
    quad_abs_tol: float = 1e-12
    root_tol: float = 1e-10
    lambda_margin_schedule: tuple = DEFAULT_MARGINS


@dataclass(frozen=True)
class ReconstructOptions:
    amplitude: float = 0.0
    n_q: int = 256


@dataclass(frozen=True)
class CriteriaOptions:
    alpha: float = 1.0
    depth_frak: Optional[float] = None


@dataclass(frozen=True)
class OutputOptions:
    directory: Optional[str] = None
    formats: tuple = ("json", "csv")


@dataclass(frozen=True)
class RunConfig:
    flow: FlowParameters
    vorticity: VorticityDistribution
    numerics: NumericsOptions = NumericsOptions()
    reconstruct: ReconstructOptions = ReconstructOptions()
    criteria: CriteriaOptions = CriteriaOptions()
    outputs: OutputOptions = OutputOptions()

    def resolved(self) -> dict:
        """Full config echo with defaults applied, for provenance."""
        flow = {"d": self.flow.d, "g": self.flow.g, "p0": self.flow.p0}
        if self.flow.c is not None:
            flow["c"] = self.flow.c
        v = self.vorticity
        if v.kind == "constant":
            vort = {"kind": "constant", "gamma": v.constant}
        elif v.kind == "piecewise_constant":
            vort = {
                "kind": "piecewise_constant",
                "breakpoints": list(v.breakpoints),
                "values": list(v.values),
            }
        else:
            vort = {"kind": "tabulated", "nodes": list(v.nodes), "values": list(v.values)}
        out = {
            "flow": flow,
            "vorticity": vort,
            "numerics": {
                "mesh_points": self.numerics.mesh_points,
                "quad_abs_tol": self.numerics.quad_abs_tol,
                "root_tol": self.numerics.root_tol,
                "lambda_margin_schedule": list(self.numerics.lambda_margin_schedule),
            },
            "reconstruct": {
                "amplitude": self.reconstruct.amplitude,
                "n_q": self.reconstruct.n_q,
            },
            "criteria": {"alpha": self.criteria.alpha},
            "outputs": {
                "formats": list(self.outputs.formats),
            },
        }
        if self.criteria.depth_frak is not None:
            out["criteria"]["depth_frak"] = self.criteria.depth_frak
        if self.outputs.directory is not None:
            out["outputs"]["directory"] = self.outputs.directory
        return out


# -- strict config parsing ---------------------------------------------------


def _need(obj, key, path, typ, check=None, message=None):
    if key not in obj:
        raise ConfigError("missing required field", f"{path}/{key}")
    return _coerce(obj[key], f"{path}/{key}", typ, check, message)


def _opt(obj, key, path, typ, default, check=None, message=None):
    if key not in obj:
        return default
    return _coerce(obj[key], f"{path}/{key}", typ, check, message)


def _coerce(val, path, typ, check, message):
    if typ is float:
        if not isinstance(val, (int, float)) or isinstance(val, bool):
            raise ConfigError("must be a number", path)
        val = float(val)
    elif typ is int:
        if not isinstance(val, int) or isinstance(val, bool):
            raise ConfigError("must be an integer", path)
    elif typ is str:
        if not isinstance(val, str):
            raise ConfigError("must be a string", path)
    elif typ is list:
        if not isinstance(val, list):
            raise ConfigError("must be an array", path)
    elif typ is dict:
        if not isinstance(val, dict):
            raise ConfigError("must be an object", path)
    if check is not None and not check(val):
        raise ConfigError(message or "invalid value", path)
    return val


def _reject_unknown(obj, allowed, path):
    for key in obj:
        if key not in allowed:
            raise ConfigError("unknown key", f"{path}/{key}")


def _float_list(val, path):
    out = []
    for i, x in enumerate(val):
        if not isinstance(x, (int, float)) or isinstance(x, bool):
            raise ConfigError("must be a number", f"{path}/{i}")
        out.append(float(x))
    return out


def parse_config(text) -> RunConfig:
    """Strict JSON config parser; unknown keys are fatal.

    Raises ConfigError carrying a JSON-pointer path to the offending field.
    """
    if isinstance(text, bytes):
        try:
            text = text.decode("utf-8")
        except UnicodeDecodeError as exc:
            raise ConfigError(f"not valid UTF-8: {exc}") from exc
    try:
        raw = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ConfigError(f"not valid JSON: {exc}") from exc
    if not isinstance(raw, dict):
        raise ConfigError("config root must be an object", "")
    _reject_unknown(
        raw, {"flow", "vorticity", "numerics", "reconstruct", "criteria", "outputs"}, ""
    )

    flow_raw = _need(raw, "flow", "", dict)
    _reject_unknown(flow_raw, {"d", "g", "p0", "c"}, "/flow")
    d = _need(flow_raw, "d", "/flow", float, lambda x: x > 0, "must be positive")
    g = _need(flow_raw, "g", "/flow", float, lambda x: x > 0, "must be positive")
    p0 = _need(flow_raw, "p0", "/flow", float, lambda x: x < 0, "must be negative")
    c = _opt(flow_raw, "c", "/flow", float, None, lambda x: x > 0, "must be positive")
    flow = FlowParameters(d=d, g=g, p0=p0, c=c)

    vort_raw = _need(raw, "vorticity", "", dict)
    kind = _need(vort_raw, "kind", "/vorticity", str)
    if kind == "constant":
        _reject_unknown(vort_raw, {"kind", "gamma"}, "/vorticity")
        gamma = _need(vort_raw, "gamma", "/vorticity", float)
        vorticity = VorticityDistribution.const(gamma)
    elif kind == "piecewise_constant":
        _reject_unknown(vort_raw, {"kind", "breakpoints", "values"}, "/vorticity")
        bps = _float_list(
            _need(vort_raw, "breakpoints", "/vorticity", list), "/vorticity/breakpoints"
        )
        vals = _float_list(
            _need(vort_raw, "values", "/vorticity", list), "/vorticity/values"
        )
        if len(vals) != len(bps) + 1:
            raise ConfigError(
                "values length must be breakpoints length + 1", "/vorticity/values"
            )
        if any(b2 <= b1 for b1, b2 in zip(bps, bps[1:])) or (
            bps and not (-1.0 < bps[0] and bps[-1] < 0.0)
        ):
            raise ConfigError(
                "breakpoints must be strictly increasing inside (-1, 0)",
                "/vorticity/breakpoints",
            )
        vorticity = VorticityDistribution.piecewise_constant(bps, vals)
    elif kind == "tabulated":
        _reject_unknown(vort_raw, {"kind", "nodes", "values"}, "/vorticity")
        nodes = _float_list(
            _need(vort_raw, "nodes", "/vorticity", list), "/vorticity/nodes"
        )
        vals = _float_list(
            _need(vort_raw, "values", "/vorticity", list), "/vorticity/values"
        )
        if len(nodes) != len(vals) or len(nodes) < 2:
            raise ConfigError("nodes and values must have equal length >= 2", "/vorticity/nodes")
        if nodes[0] != -1.0 or nodes[-1] != 0.0 or any(
            n2 <= n1 for n1, n2 in zip(nodes, nodes[1:])
        ):
            raise ConfigError(
                "nodes must increase strictly from -1 to 0", "/vorticity/nodes"
            )
        vorticity = VorticityDistribution.tabulated(nodes, vals)
    else:
        raise ConfigError(
            "must be one of constant, piecewise_constant, tabulated", "/vorticity/kind"
        )

    num_raw = _opt(raw, "numerics", "", dict, {})
    _reject_unknown(
        num_raw,
        {"mesh_points", "quad_abs_tol", "root_tol", "lambda_margin_schedule"},
        "/numerics",
    )
    mesh_points = _opt(
        num_raw,
        "mesh_points",
        "/numerics",
        int,
        2001,
        lambda x: x >= 201 and x % 2 == 1,
        "must be an odd integer >= 201",
    )
    quad_abs_tol = _opt(
        num_raw, "quad_abs_tol", "/numerics", float, 1e-12, lambda x: x > 0, "must be positive"
    )
    root_tol = _opt(
        num_raw, "root_tol", "/numerics", float, 1e-10, lambda x: x > 0, "must be positive"
    )
    schedule = _opt(num_raw, "lambda_margin_schedule", "/numerics", list, None)
    if schedule is None:
        schedule = DEFAULT_MARGINS
    else:
        schedule = tuple(_float_list(schedule, "/numerics/lambda_margin_schedule"))
        if not schedule or any(x <= 0 for x in schedule) or any(
            b >= a for a, b in zip(schedule, schedule[1:])
        ):
            raise ConfigError(
                "must be a decreasing list of positive margins",
                "/numerics/lambda_margin_schedule",
            )
    numerics = NumericsOptions(
        mesh_points=mesh_points,
        quad_abs_tol=quad_abs_tol,
        root_tol=root_tol,
        lambda_margin_schedule=tuple(schedule),
    )

    rec_raw = _opt(raw, "reconstruct", "", dict, {})
    _reject_unknown(rec_raw, {"amplitude", "n_q"}, "/reconstruct")
    amplitude = _opt(
        rec_raw, "amplitude", "/reconstruct", float, 0.0, lambda x: x >= 0, "must be >= 0"
    )
    n_q = _opt(rec_raw, "n_q", "/reconstruct", int, 256, lambda x: x >= 16, "must be >= 16")
    rec = ReconstructOptions(amplitude=amplitude, n_q=n_q)

    crit_raw = _opt(raw, "criteria", "", dict, {})
    _reject_unknown(crit_raw, {"alpha", "depth_frak"}, "/criteria")
    alpha = _opt(
        crit_raw, "alpha", "/criteria", float, 1.0, lambda x: 0 < x <= 1, "must be in (0, 1]"
    )
    depth_frak = _opt(
        crit_raw, "depth_frak", "/criteria", float, None, lambda x: x > 0, "must be positive"
    )
    crit = CriteriaOptions(alpha=alpha, depth_frak=depth_frak)

    out_raw = _opt(raw, "outputs", "", dict, {})
    _reject_unknown(out_raw, {"directory", "formats"}, "/outputs")
    directory = _opt(out_raw, "directory", "/outputs", str, None)
    formats = _opt(out_raw, "formats", "/outputs", list, None)
    if formats is None:
        formats = ("json", "csv")
    else:
        for i, f in enumerate(formats):
            if f not in ("json", "csv"):
                raise ConfigError("must be 'json' or 'csv'", f"/outputs/formats/{i}")
        formats = tuple(formats)
    outputs = OutputOptions(directory=directory, formats=formats)

    return RunConfig(
        flow=flow,
        vorticity=vorticity,
        numerics=numerics,
        reconstruct=rec,
        criteria=crit,
        outputs=outputs,
    )


# -- deterministic serialization ---------------------------------------------


def _fmt(value) -> str:
    """Shortest round-trip text for one CSV cell."""
    # Floats, numpy.float64 among them, are nearly every cell: test them first.
    if not isinstance(value, float):
        if value is None:
            return ""
        if isinstance(value, (bool, np.bool_)):
            return "true" if value else "false"
        if isinstance(value, str):
            return value
        if isinstance(value, (int, np.integer)):
            return str(int(value))
    x = float(value)
    if math.isnan(x):
        return "nan"
    if math.isinf(x):
        return "inf" if x > 0 else "-inf"
    return repr(x)


def _jsonable(obj):
    if isinstance(obj, dict):
        return {k: _jsonable(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_jsonable(v) for v in obj]
    if isinstance(obj, (bool, type(None), str, int)):
        return obj
    if isinstance(obj, np.bool_):
        return bool(obj)
    if isinstance(obj, (float, np.floating)):
        x = float(obj)
        if math.isnan(x) or math.isinf(x):
            return _fmt(x)
        return x
    if isinstance(obj, np.integer):
        return int(obj)
    raise TypeError(f"not JSON-serializable: {type(obj)}")


def _atomic_write(path: str, text: str):
    directory = os.path.dirname(os.path.abspath(path))
    os.makedirs(directory, exist_ok=True)
    fd, tmp = tempfile.mkstemp(dir=directory, prefix=".tmp_", suffix=".part")
    try:
        # mkstemp creates the file 0600; give it the mode open() would.
        umask = os.umask(0)
        os.umask(umask)
        os.fchmod(fd, 0o666 & ~umask)
        with os.fdopen(fd, "w", newline="") as fh:
            fh.write(text)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def write_json(path: str, obj):
    _atomic_write(path, json.dumps(_jsonable(obj), indent=2, sort_keys=True) + "\n")


def write_csv(path: str, header: Sequence[str], rows):
    lines = [",".join(header)]
    for row in rows:
        lines.append(",".join(_fmt(v) for v in row))
    _atomic_write(path, "\n".join(lines) + "\n")


# -- pipelines ----------------------------------------------------------------


def _versions() -> dict:
    return {
        "rotwave": __version__,
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "python": ".".join(str(v) for v in sys.version_info[:3]),
    }


def build_criteria_report(config: RunConfig, profile: GammaProfile) -> dict:
    """Every applicable closed-form onset criterion plus its inputs."""
    flow = config.flow
    alpha = config.criteria.alpha
    depth_frak = config.criteria.depth_frak
    theta = holder_seminorm(profile, alpha)
    gamma_inf = config.vorticity.sup_norm()
    g_holds, g_margin = check_general_sufficient(profile, flow, alpha, theta=theta)
    c_holds, c_margin = check_continuous_sufficient(profile, flow)
    report = {
        "alpha": alpha,
        "theta": theta,
        "p1": profile.p1,
        "gamma_inf": gamma_inf,
        "depth_frak": depth_frak,
        "general_sufficient": {"holds": g_holds, "margin": g_margin},
        "continuous_sufficient": {"holds": c_holds, "margin": c_margin},
        "constant_vorticity": None,
        "surface_layer": None,
        "bed_layer": None,
    }
    if config.vorticity.kind == "constant":
        gamma = config.vorticity.constant
        holds, margin = check_constant_vorticity(gamma, flow.d, flow.g)
        report["constant_vorticity"] = {"holds": holds, "margin": margin}
        if depth_frak is not None:
            holds, margin = check_surface_layer(gamma, depth_frak, flow.g)
            report["surface_layer"] = {"holds": holds, "margin": margin}
            holds, margin = check_bed_layer(gamma, flow.d, depth_frak, flow.g)
            report["bed_layer"] = {
                "holds": holds,
                "margin": margin,
                "undefined_radicand": holds is None,
            }
    return report


def _analysis(config: RunConfig):
    profile = GammaProfile.from_distribution(config.vorticity, config.flow)
    result = find_lambda_star(
        profile,
        config.flow,
        mesh_points=config.numerics.mesh_points,
        root_tol=config.numerics.root_tol,
        margin_schedule=config.numerics.lambda_margin_schedule,
    )
    return profile, result


def _mu_grid(profile, config, result) -> list:
    if isinstance(result, BifurcationPoint):
        lo = result.bracket[0]
    else:
        floor = profile.min_lambda
        lo = floor + min(
            config.numerics.lambda_margin_schedule[0], 0.5 * (result.lambda0 - floor)
        )
    return list(np.linspace(lo, result.lambda0, 21))


def run_analyze(config: RunConfig, out_dir: str) -> int:
    """Locate the crossing, evaluate criteria, emit report.json + mu_curve.csv."""
    profile, result = _analysis(config)
    criteria = build_criteria_report(config, profile)
    grid = _mu_grid(profile, config, result)
    curve = []
    for lam in grid:
        sol = principal_eigen(
            profile, config.flow, lam, mesh_points=config.numerics.mesh_points
        )
        curve.append((lam, sol.mu_refined))

    report = {
        "status": "bifurcation" if isinstance(result, BifurcationPoint) else "no_bifurcation",
        "lambda0": result.lambda0,
        "mu_at_lambda0": result.mu_at_lambda0,
        "criteria": criteria,
        "provenance": {"config": config.resolved(), "versions": _versions()},
    }
    if isinstance(result, BifurcationPoint):
        report.update(
            {
                "lambda_star": result.lambda_star,
                "Q_star": result.Q_star,
                "mu_residual": result.mu_residual,
                "transversality": transversality_integral(result),
                "no_bifurcation": None,
            }
        )
    else:
        report.update(
            {
                "lambda_star": None,
                "Q_star": None,
                "mu_residual": None,
                "transversality": None,
                "no_bifurcation": {
                    "inf_mu": result.inf_mu,
                    "lambda_at_inf": result.lambda_at_inf,
                },
            }
        )
    write_json(os.path.join(out_dir, "report.json"), report)
    write_csv(
        os.path.join(out_dir, "mu_curve.csv"),
        ["lambda", "mu"],
        [(lam, mu) for lam, mu in curve],
    )
    return 0 if isinstance(result, BifurcationPoint) else 2


def run_reconstruct(config: RunConfig, amplitudes: Sequence[float], out_dir: str) -> int:
    """Build first-order fields and emit field.csv, surface.csv, residuals.json.

    field.csv and surface.csv describe the first requested amplitude;
    residuals.json lists the weak-form defect norms for every amplitude and
    a log-log slope fit when several positive amplitudes are given.
    """
    profile, result = _analysis(config)
    if isinstance(result, NoBifurcation):
        return 2
    amplitudes = list(amplitudes) if amplitudes else [config.reconstruct.amplitude]
    n_q = config.reconstruct.n_q
    flow = config.flow

    entries = []
    first_field = None
    for s in amplitudes:
        fld = build_wave(result, s, n_q)
        physical_map(fld, flow)
        velocity_field(fld, flow)
        interior, boundary = weak_residual(fld, profile, flow, result.Q_star)
        entries.append({"s": s, "interior_norm": interior, "boundary_norm": boundary})
        if first_field is None:
            first_field = fld

    residuals = {"amplitudes": entries, "slope_fit": None}
    positive = [e for e in entries if e["s"] > 0]
    if len(positive) >= 2:
        residuals["slope_fit"] = {
            "interior": residual_slope(
                [e["s"] for e in positive], [e["interior_norm"] for e in positive]
            ),
            "boundary": residual_slope(
                [e["s"] for e in positive], [e["boundary_norm"] for e in positive]
            ),
        }

    fld = first_field
    rows = []
    for i, q in enumerate(fld.q_nodes):
        for j, p in enumerate(fld.p_nodes):
            rows.append(
                (
                    q,
                    p,
                    fld.x[i, j],
                    fld.y[i, j],
                    fld.h[i, j],
                    fld.u_rel[i, j],
                    fld.v[i, j],
                    fld.psi[i, j],
                )
            )
    write_csv(
        os.path.join(out_dir, "field.csv"),
        ["q", "p", "x", "y", "h", "u_rel", "v", "psi"],
        rows,
    )
    eta, _mean = surface_profile(fld, flow)
    write_csv(
        os.path.join(out_dir, "surface.csv"),
        ["x", "eta"],
        list(zip(fld.q_nodes, eta)),
    )
    write_json(os.path.join(out_dir, "residuals.json"), residuals)
    return 0


def _parse_param(spec_text: str):
    parts = spec_text.split(":")
    if len(parts) != 4:
        raise ConfigError("expected name:lo:hi:n", "/sweep/param")
    name, lo, hi, n = parts
    if name not in _SWEEP_PARAMS:
        raise ConfigError(f"unknown sweep parameter {name!r}", "/sweep/param")
    try:
        lo = float(lo)
        hi = float(hi)
        n = int(n)
    except ValueError as exc:
        raise ConfigError(f"bad numeric field: {exc}", "/sweep/param") from exc
    if n < 0:
        raise ConfigError("point count must be >= 0", "/sweep/param")
    if n == 0:
        values = []
    elif n == 1:
        values = [lo]
    else:
        values = list(np.linspace(lo, hi, n))
    return name, values


_CRITERIA_COLUMNS = [
    "theta",
    "p1",
    "general_holds",
    "general_margin",
    "continuous_holds",
    "continuous_margin",
    "constant_holds",
    "constant_margin",
    "surface_holds",
    "surface_margin",
    "bed_holds",
    "bed_margin",
]


def _sweep_row_config(config: RunConfig, overrides: dict) -> RunConfig:
    flow_kw = {
        "d": overrides.get("d", config.flow.d),
        "g": overrides.get("g", config.flow.g),
        "p0": overrides.get("p0", config.flow.p0),
        "c": config.flow.c,
    }
    vorticity = config.vorticity
    if "gamma" in overrides:
        if vorticity.kind != "constant":
            raise ConfigError(
                "gamma sweeps require constant vorticity", "/vorticity/kind"
            )
        vorticity = VorticityDistribution.const(overrides["gamma"])
    criteria = config.criteria
    if "depth_frak" in overrides:
        criteria = CriteriaOptions(
            alpha=config.criteria.alpha, depth_frak=overrides["depth_frak"]
        )
    return RunConfig(
        flow=FlowParameters(**flow_kw),
        vorticity=vorticity,
        numerics=config.numerics,
        reconstruct=config.reconstruct,
        criteria=criteria,
        outputs=config.outputs,
    )


def run_sweep(config: RunConfig, param_specs: Sequence[str], quantity: Optional[str], out_dir: str) -> int:
    """Evaluate a quantity over a 1- or 2-parameter grid into sweep.csv.

    Rows follow lexicographic grid order (first parameter outermost);
    failures land in the per-row error column and do not abort the sweep.
    """
    if not 1 <= len(param_specs) <= 2:
        raise ConfigError("sweep needs one or two --param specs", "/sweep/param")
    parsed = [_parse_param(s) for s in param_specs]
    names = [name for name, _ in parsed]
    if len(set(names)) != len(names):
        raise ConfigError("sweep parameters must be distinct", "/sweep/param")
    if quantity is None:
        quantity = "mu" if "lambda" in names else "criteria"
    if quantity not in ("mu", "criteria", "lambda_star", "onset"):
        raise ConfigError(f"unknown quantity {quantity!r}", "/sweep/quantity")
    if quantity in ("mu", "onset") and "lambda" not in names:
        raise ConfigError(f"quantity {quantity!r} requires a lambda sweep", "/sweep/param")
    if quantity == "onset" and "p0" in names:
        raise ConfigError(
            "onset calibrates p0 for each lambda; it cannot be swept", "/sweep/param"
        )

    if quantity == "mu":
        value_cols = ["mu"]
    elif quantity == "onset":
        value_cols = ["p0", "mu"]
    elif quantity == "lambda_star":
        value_cols = ["lambda_star", "lambda0", "mu_residual"]
    else:
        value_cols = _CRITERIA_COLUMNS
    header = names + value_cols + ["error"]

    rows = []
    n_ok = 0
    for combo in itertools.product(*(vals for _, vals in parsed)):
        overrides = dict(zip(names, combo))
        lam = overrides.pop("lambda", None)
        try:
            row_cfg = _sweep_row_config(config, overrides)
            values = _sweep_values(row_cfg, quantity, lam)
            rows.append(list(combo) + values + [None])
            n_ok += 1
        except (Error, ValueError) as exc:
            rows.append(list(combo) + [None] * len(value_cols) + [str(exc)])
    write_csv(os.path.join(out_dir, "sweep.csv"), header, rows)
    if rows and n_ok == 0:
        return 4
    return 0


def _sweep_values(row_cfg: RunConfig, quantity: str, lam):
    flow = row_cfg.flow
    if quantity == "criteria":
        profile = GammaProfile.from_distribution(row_cfg.vorticity, flow)
        rep = build_criteria_report(row_cfg, profile)
        const = rep["constant_vorticity"]
        depth_frak = row_cfg.criteria.depth_frak
        surface = bed = (None, None)
        if row_cfg.vorticity.kind == "constant" and depth_frak is not None:
            gamma = row_cfg.vorticity.constant
            surface = check_surface_layer(gamma, depth_frak, flow.g)
            bed = check_bed_layer(gamma, flow.d, depth_frak, flow.g)
        return [
            rep["theta"],
            rep["p1"],
            rep["general_sufficient"]["holds"],
            rep["general_sufficient"]["margin"],
            rep["continuous_sufficient"]["holds"],
            rep["continuous_sufficient"]["margin"],
            None if const is None else const["holds"],
            None if const is None else const["margin"],
            surface[0],
            surface[1],
            "undefined" if (bed[0] is None and bed[1] is not None and math.isnan(bed[1])) else bed[0],
            bed[1],
        ]
    if quantity == "mu":
        profile = GammaProfile.from_distribution(row_cfg.vorticity, flow)
        sol = principal_eigen(
            profile, flow, float(lam), mesh_points=row_cfg.numerics.mesh_points
        )
        return [sol.mu_refined]
    if quantity == "onset":
        curve = onset_curve(
            row_cfg.vorticity,
            flow.d,
            flow.g,
            [float(lam)],
            mesh_points=min(row_cfg.numerics.mesh_points, 1201),
        )
        pt = curve.points[0]
        if pt.error is not None:
            raise Error(pt.error)
        return [pt.p0, pt.mu]
    profile = GammaProfile.from_distribution(row_cfg.vorticity, flow)
    result = find_lambda_star(
        profile,
        flow,
        mesh_points=row_cfg.numerics.mesh_points,
        root_tol=row_cfg.numerics.root_tol,
        margin_schedule=row_cfg.numerics.lambda_margin_schedule,
    )
    if isinstance(result, NoBifurcation):
        return [None, result.lambda0, None]
    return [result.lambda_star, result.lambda0, result.mu_residual]


def run_criteria(config: RunConfig) -> int:
    """Print the criteria report as JSON on stdout."""
    profile = GammaProfile.from_distribution(config.vorticity, config.flow)
    report = build_criteria_report(config, profile)
    sys.stdout.write(json.dumps(_jsonable(report), indent=2, sort_keys=True) + "\n")
    return 0


# -- entry point ---------------------------------------------------------------


def _load_config(path: str) -> RunConfig:
    try:
        with open(path, "rb") as fh:
            return parse_config(fh.read())
    except OSError as exc:
        raise ConfigError(f"cannot read config: {exc}") from exc


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = argparse.ArgumentParser(
        prog="rotwave",
        description="Local bifurcation of steady periodic rotational water waves",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_an = sub.add_parser("analyze", help="locate the bifurcation point")
    p_an.add_argument("--config", required=True)
    p_an.add_argument("--out", required=True)

    p_re = sub.add_parser("reconstruct", help="build first-order wave fields")
    p_re.add_argument("--config", required=True)
    p_re.add_argument("--amplitude", action="append", type=float, default=None)
    p_re.add_argument("--out", required=True)

    p_sw = sub.add_parser("sweep", help="parameter sweeps to sweep.csv")
    p_sw.add_argument("--config", required=True)
    p_sw.add_argument("--param", action="append", required=True, metavar="name:lo:hi:n")
    p_sw.add_argument(
        "--quantity", choices=["mu", "criteria", "lambda_star", "onset"], default=None
    )
    p_sw.add_argument("--out", required=True)

    p_cr = sub.add_parser("criteria", help="print the criteria report as JSON")
    p_cr.add_argument("--config", required=True)

    args = parser.parse_args(argv)
    try:
        config = _load_config(args.config)
        if args.command == "analyze":
            return run_analyze(config, args.out)
        if args.command == "reconstruct":
            return run_reconstruct(config, args.amplitude, args.out)
        if args.command == "sweep":
            return run_sweep(config, args.param, args.quantity, args.out)
        return run_criteria(config)
    except ConfigError as exc:
        sys.stderr.write(f"config error: {exc}\n")
        return 3
    except StagnationAtAmplitude as exc:
        sys.stderr.write(
            json.dumps({"error": "stagnation", "critical_s": exc.critical_s}) + "\n"
        )
        return 4
    except Error as exc:
        sys.stderr.write(f"numerical failure: {exc}\n")
        return 4


if __name__ == "__main__":
    sys.exit(main())
