"""The command-line contract: exit codes, config errors, deterministic files."""

import json
import math
import os
import stat

import pytest

from rotwave.cli import main, parse_config, write_json
from rotwave.errors import ConfigError

C1 = {
    "flow": {"d": 1, "g": 9.81, "p0": -2},
    "vorticity": {"kind": "constant", "gamma": -1},
    "numerics": {"mesh_points": 201},
}
# Gravity too weak for mu to reach -1: no bifurcation.
WEAK = {
    "flow": {"d": 1, "g": 0.05, "p0": -1},
    "vorticity": {"kind": "constant", "gamma": -1},
    "numerics": {"mesh_points": 201},
}
# A tabulated profile whose Hoelder seminorm comes from a one-sided slope.
TABULATED = {
    "flow": {"d": 1, "g": 9.81, "p0": -2},
    "vorticity": {"kind": "tabulated", "nodes": [-1, -0.5, 0], "values": [-1.2, -0.3, -1.5]},
}


def _run(tmp_path, config, *argv):
    path = tmp_path / "config.json"
    path.write_text(json.dumps(config))
    return main([argv[0], "--config", str(path), *argv[1:]])


def _read_csv(path):
    lines = path.read_text().splitlines()
    header = lines[0].split(",")
    return [dict(zip(header, line.split(","))) for line in lines[1:]]


def _files(directory):
    return {name: (directory / name).read_bytes() for name in sorted(os.listdir(directory))}


# -- exit codes ----------------------------------------------------------------


def test_analyze_bifurcation_exits_0(tmp_path):
    out = tmp_path / "out"
    assert _run(tmp_path, C1, "analyze", "--out", str(out)) == 0
    report = json.loads((out / "report.json").read_text())
    assert report["status"] == "bifurcation"
    assert report["lambda_star"] is not None
    assert len(_read_csv(out / "mu_curve.csv")) == 21


def test_analyze_no_bifurcation_exits_2(tmp_path):
    out = tmp_path / "out"
    assert _run(tmp_path, WEAK, "analyze", "--out", str(out)) == 2
    report = json.loads((out / "report.json").read_text())
    assert report["status"] == "no_bifurcation"
    assert report["no_bifurcation"]["inf_mu"] > -1.0


def test_config_error_exits_3(tmp_path, capsys):
    bad = dict(C1, flow={"d": 1, "g": 9.81, "p0": 2})
    assert _run(tmp_path, bad, "analyze", "--out", str(tmp_path / "out")) == 3
    assert "/flow/p0" in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


def test_sweep_with_every_row_failing_exits_4(tmp_path):
    out = tmp_path / "out"
    argv = ("sweep", "--param", "lambda:0.1:0.2:2", "--quantity", "mu", "--out", str(out))
    assert _run(tmp_path, C1, *argv) == 4
    rows = _read_csv(out / "sweep.csv")
    assert len(rows) == 2
    assert all(row["mu"] == "" and "floor" in row["error"] for row in rows)


# -- config errors carry JSON pointers ----------------------------------------------


@pytest.mark.parametrize(
    "config, pointer",
    [
        ({"flow": {"d": 1, "g": 1, "p0": -1}}, "/vorticity"),
        (dict(C1, extra=1), "/extra"),
        (dict(C1, flow={"d": 1, "g": 1}), "/flow/p0"),
        (dict(C1, flow={"d": "1", "g": 1, "p0": -1}), "/flow/d"),
        (dict(C1, vorticity={"kind": "spiral"}), "/vorticity/kind"),
        (
            dict(C1, vorticity={
                "kind": "piecewise_constant", "breakpoints": [-0.5, "x"], "values": [1, 2, 3],
            }),
            "/vorticity/breakpoints/1",
        ),
        (dict(C1, numerics={"mesh_points": 200}), "/numerics/mesh_points"),
        (
            dict(C1, numerics={"lambda_margin_schedule": [1e-3, 1e-2]}),
            "/numerics/lambda_margin_schedule",
        ),
        (dict(C1, outputs={"formats": ["json", "csv"]}), "/outputs"),
        (dict(C1, flow={"d": 0, "g": 9.81, "p0": -2}), "/flow/d"),
        (dict(C1, flow={"d": 1, "g": -1, "p0": -2}), "/flow/g"),
        (
            dict(C1, vorticity={"kind": "piecewise_constant", "breakpoints": [-0.5], "values": [1]}),
            "/vorticity/values",
        ),
        (
            dict(C1, vorticity={
                "kind": "piecewise_constant", "breakpoints": [-0.2, -0.5], "values": [1, 2, 3],
            }),
            "/vorticity/breakpoints",
        ),
        (
            dict(C1, vorticity={"kind": "piecewise_constant", "breakpoints": [-1.0], "values": [1, 2]}),
            "/vorticity/breakpoints",
        ),
        (
            dict(C1, vorticity={"kind": "tabulated", "nodes": [-1, -0.5], "values": [1, 2]}),
            "/vorticity/nodes",
        ),
        (dict(C1, numerics={"quad_abs_tol": 1e-12}), "/numerics/quad_abs_tol"),
        (dict(C1, flow={"d": 1, "g": 9.81, "p0": -2, "c": 2}), "/flow/c"),
        (dict(C1, numerics={"root_tol": math.inf}), "/numerics/root_tol"),
        (dict(C1, vorticity={"kind": "constant", "gamma": math.nan}), "/vorticity/gamma"),
        (dict(C1, flow={"d": 1, "g": math.inf, "p0": -2}), "/flow/g"),
        (
            dict(C1, vorticity={
                "kind": "piecewise_constant", "breakpoints": [-0.5], "values": [math.nan, -1],
            }),
            "/vorticity/values/0",
        ),
    ],
)
def test_config_error_pointers(config, pointer):
    with pytest.raises(ConfigError) as info:
        parse_config(json.dumps(config))
    assert info.value.path == pointer


@pytest.mark.parametrize(
    "params, pointer",
    [
        (("bogus:0:1:2",), "/sweep/param"),
        (("g:1:2",), "/sweep/param"),
        (("g:1:2:2", "g:1:2:2"), "/sweep/param"),
        (("gamma:nan:-1:2",), "/sweep/param"),
        (("g:1:inf:2",), "/sweep/param"),
    ],
)
def test_sweep_param_errors_exit_3(tmp_path, capsys, params, pointer):
    argv = ["sweep"]
    for p in params:
        argv += ["--param", p]
    assert _run(tmp_path, C1, *argv, "--out", str(tmp_path / "out")) == 3
    assert pointer in capsys.readouterr().err


def test_onset_sweep_rejects_p0(tmp_path, capsys):
    argv = (
        "sweep", "--param", "lambda:1.3:1.5:2", "--param", "p0:-1:-2:2",
        "--quantity", "onset", "--out", str(tmp_path / "out"),
    )
    assert _run(tmp_path, TABULATED, *argv) == 3
    assert "/sweep/param" in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


# -- deterministic, atomic files ------------------------------------------------------


def test_reruns_are_byte_identical(tmp_path):
    first, second = tmp_path / "first", tmp_path / "second"
    assert _run(tmp_path, C1, "analyze", "--out", str(first)) == 0
    assert _run(tmp_path, C1, "analyze", "--out", str(second)) == 0
    assert _files(first) == _files(second)
    assert set(_files(first)) == {"report.json", "mu_curve.csv"}


def test_failed_write_leaves_no_part_file(tmp_path):
    (tmp_path / "report.json").mkdir()  # the rename onto it must fail
    with pytest.raises(OSError):
        write_json(str(tmp_path / "report.json"), {"a": 1})
    assert sorted(os.listdir(tmp_path)) == ["report.json"]


def test_outputs_follow_the_umask(tmp_path):
    old = os.umask(0o027)
    try:
        write_json(str(tmp_path / "report.json"), {"a": 1})
    finally:
        os.umask(old)
    assert stat.S_IMODE(os.stat(tmp_path / "report.json").st_mode) == 0o640


# -- profiles that used to crash the CLI -------------------------------------------------


def test_analyze_with_a_jump_off_the_binary_grid(tmp_path):
    config = {
        "flow": {"d": 1, "g": 1, "p0": -1},
        "vorticity": {
            "kind": "piecewise_constant", "breakpoints": [-0.4701], "values": [0.5837, -1.6481],
        },
    }
    assert _run(tmp_path, config, "analyze", "--out", str(tmp_path / "out")) == 0


def test_criteria_with_numpy_scalars(tmp_path, capsys):
    assert _run(tmp_path, TABULATED, "criteria") == 0
    report = json.loads(capsys.readouterr().out)
    assert report["general_sufficient"]["holds"] is True
    assert report["theta"] == pytest.approx(1.2)


def test_criteria_sweep_writes_booleans(tmp_path):
    out = tmp_path / "out"
    argv = ("sweep", "--param", "g:1:9:2", "--quantity", "criteria", "--out", str(out))
    assert _run(tmp_path, TABULATED, *argv) == 0
    rows = _read_csv(out / "sweep.csv")
    assert [row["general_holds"] for row in rows] == ["false", "true"]
    assert [row["continuous_holds"] for row in rows] == ["false", "true"]


# -- every config key changes an output file -------------------------------------------


def _with(config, section, key, value):
    changed = json.loads(json.dumps(config))
    changed.setdefault(section, {})[key] = value
    return changed


ANALYZE = ("analyze",)
RECONSTRUCT = ("reconstruct",)
CRITERIA_SWEEP = ("sweep", "--param", "g:1:9:2", "--quantity", "criteria")


@pytest.mark.parametrize(
    "config, argv, section, key, value",
    [
        (C1, ANALYZE, "numerics", "mesh_points", 203),
        (C1, ANALYZE, "numerics", "root_tol", 1e-3),
        (WEAK, ANALYZE, "numerics", "lambda_margin_schedule", [0.1]),
        (C1, RECONSTRUCT, "reconstruct", "amplitude", 0.01),
        (dict(C1, reconstruct={"amplitude": 0.01}), RECONSTRUCT, "reconstruct", "n_q", 16),
        (dict(TABULATED, numerics={"mesh_points": 201}), CRITERIA_SWEEP, "criteria", "alpha", 0.5),
        (C1, CRITERIA_SWEEP, "criteria", "depth_frak", 0.5),
    ],
)
def test_config_key_changes_an_output(tmp_path, config, argv, section, key, value):
    base, changed = tmp_path / "base", tmp_path / "changed"
    _run(tmp_path, config, *argv, "--out", str(base))
    _run(tmp_path, _with(config, section, key, value), *argv, "--out", str(changed))
    first, second = _files(base), _files(changed)
    assert first.keys() == second.keys() and first
    assert any(first[name] != second[name] for name in first)
