"""The command-line contract: exit codes, config errors, deterministic files."""

import json
import math
import os
import stat
import subprocess
import sys
import tempfile
import tracemalloc
from collections import Counter
from dataclasses import replace

import numpy as np
import pytest

from rotwave import bifurcation, cli, spectral
from rotwave.cli import main, parse_config, write_csv, write_json
from rotwave.errors import ConfigError
from rotwave.reconstruct import build_wave, physical_fields

C1 = {
    "flow": {"d": 1, "g": 9.81, "p0": -2},
    "vorticity": {"kind": "constant", "gamma": -1},
    "numerics": {"mesh_points": 201},
}
# One vorticity jump at mid-depth.
PIECEWISE = {
    "flow": {"d": 1, "g": 1, "p0": -1},
    "vorticity": {"kind": "piecewise_constant", "breakpoints": [-0.5], "values": [0.5, -2]},
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


def test_analyze_near_the_floor_exits_2(tmp_path):
    # lambda0 sits 2.5e-9 above the floor; the constant-vorticity criterion,
    # necessary and sufficient here, does not hold.
    config = dict(C1, flow={"d": 1, "g": 1e-4, "p0": -2})
    out = tmp_path / "out"
    assert _run(tmp_path, config, "analyze", "--out", str(out)) == 2
    report = json.loads((out / "report.json").read_text())
    assert report["status"] == "no_bifurcation"
    assert not bifurcation.check_constant_vorticity(-1.0, 1.0, 1e-4)[0]
    assert not report["criteria"]["constant_vorticity"]["holds"]


def test_analyze_with_a_zero_at_a_knot_exits_0(tmp_path):
    # gamma is 0 at the surface knot; no round-off neighbour of that knot
    # joins the mesh anchors as a second minimizer.
    config = dict(
        C1,
        flow={"d": 1, "g": 9.81, "p0": -1},
        vorticity={
            "kind": "tabulated",
            "nodes": [-1.0, -0.5, -0.05687337765627676, 0.0],
            "values": [0.0, 0.0, 1.0625, 0.0],
        },
    )
    assert _run(tmp_path, config, "analyze", "--out", str(tmp_path / "out")) == 0


def test_config_error_exits_3(tmp_path, capsys):
    bad = dict(C1, flow={"d": 1, "g": 9.81, "p0": 2})
    assert _run(tmp_path, bad, "analyze", "--out", str(tmp_path / "out")) == 3
    assert "/flow/p0" in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("command", ["analyze", "reconstruct"])
def test_unusable_out_exits_3(tmp_path, capsys, monkeypatch, command):
    # A file where the output directory should be: refused before any solve.
    (tmp_path / "file").write_text("")
    out = str(tmp_path / "file" / "sub")
    monkeypatch.setattr(cli, "_analysis", lambda config: pytest.fail("solved first"))
    assert _run(tmp_path, C1, command, "--out", out) == 3
    err = capsys.readouterr().err
    assert err.startswith(f"output error: {out}: ") and err.count("\n") == 1

    # An output file that cannot be replaced: refused once it is written.
    monkeypatch.undo()
    out = tmp_path / "out"
    (out / ("report.json" if command == "analyze" else "field.csv")).mkdir(parents=True)
    assert _run(tmp_path, C1, command, "--out", str(out)) == 3
    err = capsys.readouterr().err
    assert err.startswith(f"output error: {out}: ") and err.count("\n") == 1


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


@pytest.mark.parametrize("amplitude", ["nan", "-0.5", "inf"])
def test_reconstruct_amplitude_flag_is_checked(tmp_path, capsys, amplitude):
    argv = ("reconstruct", "--amplitude", "0.01", "--amplitude", amplitude)
    assert _run(tmp_path, C1, *argv, "--out", str(tmp_path / "out")) == 3
    assert "/reconstruct/amplitude" in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


def test_failed_probe_exits_4(tmp_path, capsys, failing_probes):
    # A probe that fails is a numerical failure, not a flow without waves.
    assert _run(tmp_path, C1, "analyze", "--out", str(tmp_path / "out")) == 4
    assert "numerical failure" in capsys.readouterr().err


# -- deterministic, atomic files ------------------------------------------------------


def test_reruns_are_byte_identical(tmp_path):
    first, second = tmp_path / "first", tmp_path / "second"
    assert _run(tmp_path, C1, "analyze", "--out", str(first)) == 0
    assert _run(tmp_path, C1, "analyze", "--out", str(second)) == 0
    assert _files(first) == _files(second)
    assert set(_files(first)) == {"report.json", "mu_curve.csv"}


def test_reconstruct_reruns_are_byte_identical(tmp_path):
    first, second = tmp_path / "first", tmp_path / "second"
    config = dict(C1, reconstruct={"n_q": 16})
    argv = ("reconstruct", "--amplitude", "0.01", "--amplitude", "0.02")
    assert _run(tmp_path, config, *argv, "--out", str(first)) == 0
    assert _run(tmp_path, config, *argv, "--out", str(second)) == 0
    assert _files(first) == _files(second)
    assert set(_files(first)) == {"field.csv", "surface.csv", "residuals.json"}


def test_csv_cells(tmp_path):
    path = tmp_path / "cells.csv"
    row = [math.nan, math.inf, -math.inf, -0.0, np.float64(0.1), None]
    row += [True, np.bool_(False), 3, np.int64(4), "s"]
    write_csv(str(path), ["c"] * len(row), [row])
    assert path.read_text().splitlines()[1] == "nan,inf,-inf,-0.0,0.1,,true,false,3,4,s"


def test_failed_write_leaves_no_part_file(tmp_path, monkeypatch):
    (tmp_path / "report.json").mkdir()  # the rename onto it must fail
    with pytest.raises(OSError):
        write_json(str(tmp_path / "report.json"), {"a": 1})
    assert sorted(os.listdir(tmp_path)) == ["report.json"]

    # A row that fails after the first has been streamed to the staged file.
    def rows():
        yield [1.0]
        raise RuntimeError("row failed")

    (tmp_path / "field.csv").write_text("old\n")
    with pytest.raises(RuntimeError):
        write_csv(str(tmp_path / "field.csv"), ["c"], rows())
    assert sorted(os.listdir(tmp_path)) == ["field.csv", "report.json"]
    assert (tmp_path / "field.csv").read_text() == "old\n"

    # field.csv rows that fail once a mirrored block is in the side file.
    side_files = []

    def recording(**kwargs):
        side_files.append(make_side_file(**kwargs))
        return side_files[-1]

    make_side_file = tempfile.TemporaryFile
    monkeypatch.setattr(tempfile, "TemporaryFile", recording)

    class FailingRows(cli._FieldRows):
        def __iter__(self):
            for i, block in enumerate(super().__iter__()):
                if i == 2:  # rows 0 and 1 written, row n_q - 1 staged
                    assert side_files[0].tell() > 0
                    raise RuntimeError("block failed")
                yield block

    fld, flow = _c1_wave(16)
    with pytest.raises(RuntimeError, match="block failed"):
        write_csv(str(tmp_path / "field.csv"), ["c"], FailingRows(fld, flow, str(tmp_path)))
    assert sorted(os.listdir(tmp_path)) == ["field.csv", "report.json"]
    assert (tmp_path / "field.csv").read_text() == "old\n"


FIELD_HEADER = ["q", "p", "x", "y", "h", "u_rel", "v", "psi"]


def _field_lines(fld, flow):
    """field.csv's lines below the header, made cell by cell with _fmt."""
    y, u_rel, v = physical_fields(fld, flow)
    return [
        ",".join(
            cli._fmt(c)
            for c in (q, p, q, y[i, j], fld.h[i, j], u_rel[i, j], v[i, j], flow.p0 * p)
        )
        for i, q in enumerate(fld.q_nodes)
        for j, p in enumerate(fld.p_nodes)
    ]


def _read_lines(path, header):
    first, *lines, last = path.read_text().split("\n")
    assert first == header and last == ""
    return lines


@pytest.mark.parametrize("config", [C1, PIECEWISE], ids=["C1", "P"])
def test_field_csv_is_the_field_cell_by_cell(tmp_path, monkeypatch, config):
    rows_counted = {}

    def counting(path, header, rows):
        rows_counted[os.path.basename(path)] = len(rows)
        return write_csv(path, header, rows)

    monkeypatch.setattr(cli, "write_csv", counting)
    # Odd n_q has no q = 0 row; amplitude 0 makes every v cell 0.0 or -0.0.
    for n_q, s in [(16, 0.02), (17, 0.0), (17, 0.02), (33, 0.02)]:
        case = dict(config, reconstruct={"n_q": n_q})
        out = tmp_path / f"out_{n_q}_{s}"
        argv = ("reconstruct", "--amplitude", str(s), "--amplitude", "0.01", "--out", str(out))
        assert _run(tmp_path, case, *argv) == 0

        # The first amplitude's field, built apart from run_reconstruct.
        _profile, result = cli._analysis(parse_config(json.dumps(case)))
        flow = result.flow
        fld = build_wave(result, s, n_q)
        lines = _read_lines(out / "field.csv", ",".join(FIELD_HEADER))
        assert lines == _field_lines(fld, flow)
        assert rows_counted["field.csv"] == len(lines)
        if s == 0:
            assert {line.split(",")[6] for line in lines} == {"0.0", "-0.0"}

        # surface.csv: x = q and eta = d h(q, 0), one row per q.
        expected = [
            f"{cli._fmt(q)},{cli._fmt(flow.d * h)}" for q, h in zip(fld.q_nodes, fld.h[:, -1])
        ]
        assert _read_lines(out / "surface.csv", "x,eta") == expected

    # A hand-built field one ulp off in row n_q - 3 only: the pair (3, n_q - 3)
    # no longer mirrors, and row n_q - 3 must not reuse the text of row 3.
    # The pair (5, n_q - 5) has v = nan and -nan, whose text is "nan" in both.
    h = fld.h.copy()
    h[n_q - 3] = np.nextafter(h[n_q - 3], np.inf)
    h_q = fld.h_q.copy()
    h_q[5, 1], h_q[n_q - 5, 1] = math.nan, -math.nan
    fld = replace(fld, h=h, h_q=h_q)
    path = tmp_path / "uneven.csv"
    write_csv(str(path), FIELD_HEADER, cli._FieldRows(fld, flow, str(tmp_path)))
    assert _read_lines(path, ",".join(FIELD_HEADER)) == _field_lines(fld, flow)


def _c1_wave(n_q, mesh_points=201):
    config = dict(C1, numerics={"mesh_points": mesh_points})
    _profile, result = cli._analysis(parse_config(json.dumps(config)))
    return build_wave(result, 0.01, n_q), result.flow


def test_field_csv_memory_is_about_one_block(tmp_path):
    """Peak memory of writing field.csv stays within a few q-blocks of text."""
    n_q = 64
    fld, flow = _c1_wave(n_q, mesh_points=2001)
    rows = cli._FieldRows(fld, flow, str(tmp_path))
    path = tmp_path / "field.csv"
    tracemalloc.start()
    try:
        write_csv(str(path), FIELD_HEADER, rows)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    block = (os.path.getsize(path) - len(",".join(FIELD_HEADER)) - 1) / n_q
    assert block > 0.5e6
    # Holding the mirrored rows' text in memory, not in the side file, breaks this.
    assert peak < 8 * block


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


# -- work done once --------------------------------------------------------------------


@pytest.fixture
def eigen_solves(monkeypatch):
    """Count principal_eigen solves by (vorticity, lambda) at every module that binds it."""
    solves = Counter()
    solve = spectral.principal_eigen

    def counted(profile, flow, lam, **kwargs):
        solves[profile.source, float(lam)] += 1
        return solve(profile, flow, lam, **kwargs)

    for module in (spectral, bifurcation, cli):
        monkeypatch.setattr(module, "principal_eigen", counted)
    return solves


@pytest.mark.parametrize(
    "argv",
    [ANALYZE, ("sweep", "--param", "gamma:-1:1:3", "--quantity", "lambda_star")],
)
def test_no_lambda_is_solved_twice(tmp_path, eigen_solves, argv):
    assert _run(tmp_path, C1, *argv, "--out", str(tmp_path / "out")) == 0
    assert eigen_solves
    assert max(eigen_solves.values()) == 1


def test_cli_import_leaves_out_scipy_integrate():
    # Only the shooting route integrates ODEs; no command needs it at start-up.
    code = "import sys, rotwave.cli; print('scipy.integrate' in sys.modules)"
    out = subprocess.run(
        [sys.executable, "-c", code],
        capture_output=True,
        text=True,
        check=True,
        env={**os.environ, "PYTHONPATH": os.path.dirname(os.path.dirname(cli.__file__))},
    )
    assert out.stdout.strip() == "False"
