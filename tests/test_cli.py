"""The command-line contract: exit codes, config errors, deterministic files."""

import errno
import json
import math
import os
import signal
import stat
import subprocess
import sys
import tempfile
import time
import tracemalloc
from collections import Counter
from dataclasses import replace

import numpy as np
import pytest

from rotwave import bifurcation, cli, laminar, numerics, spectral, vorticity
from rotwave.cli import main, parse_config, write_csv, write_json
from rotwave.errors import ConfigError
from rotwave.reconstruct import build_wave, physical_fields
from rotwave.vorticity import GammaProfile

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
    assert bifurcation.check_constant_vorticity(-1.0, 1.0, 1e-4) <= 0.0
    assert not report["criteria"]["constant_vorticity"]["holds"]


def test_reconstruct_without_a_bifurcation_says_so(tmp_path, capsys):
    # The same config as above: reconstruct exits 2, writes no file and
    # prints the inf_mu and lambda_at_inf that analyze reports.
    config = dict(C1, flow={"d": 1, "g": 1e-4, "p0": -2})
    assert _run(tmp_path, config, "analyze", "--out", str(tmp_path / "analyzed")) == 2
    report = json.loads((tmp_path / "analyzed" / "report.json").read_text())
    capsys.readouterr()
    out = tmp_path / "out"
    assert _run(tmp_path, config, "reconstruct", "--out", str(out)) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert json.loads(captured.err) == {"status": "no_bifurcation", **report["no_bifurcation"]}
    assert captured.err.count("\n") == 1
    assert os.listdir(out) == []


# C1 at the default mesh: the stagnation bound of build_wave is the same for
# every even n_q, whose grid holds q = 0 and q = -pi where cos q = +-1.
C1_CRITICAL_S = 0.6424715853802794


def test_reconstruct_past_the_stagnation_bound_exits_4(tmp_path, capsys):
    config = {key: C1[key] for key in ("flow", "vorticity")}
    out = tmp_path / "out"
    argv = ("reconstruct", "--amplitude", repr(1.01 * C1_CRITICAL_S), "--out", str(out))
    assert _run(tmp_path, config, *argv) == 4
    assert capsys.readouterr().err == '{"error": "stagnation", "critical_s": 0.6424715853802794}\n'
    assert os.listdir(out) == []


def test_reconstruct_below_the_stagnation_bound_exits_0(tmp_path):
    config = {"flow": C1["flow"], "vorticity": C1["vorticity"], "reconstruct": {"n_q": 16}}
    out = tmp_path / "out"
    argv = ("reconstruct", "--amplitude", repr(0.99 * C1_CRITICAL_S), "--out", str(out))
    assert _run(tmp_path, config, *argv) == 0
    assert sorted(os.listdir(out)) == ["field.csv", "residuals.json", "surface.csv"]


def test_lambda_star_sweep_row_without_a_bifurcation(tmp_path):
    out = tmp_path / "out"
    argv = ("sweep", "--param", "g:0.0001:9.81:2", "--quantity", "lambda_star", "--out", str(out))
    assert _run(tmp_path, C1, *argv) == 0
    weak, strong = _read_csv(out / "sweep.csv")
    assert weak == {
        "g": "0.0001", "lambda_star": "", "lambda0": "1.0000000024554268", "mu_residual": "", "error": ""
    }
    assert strong["lambda_star"] != "" and strong["error"] == ""


def test_one_point_sweep_writes_its_lower_bound(tmp_path):
    out = tmp_path / "out"
    assert _run(tmp_path, C1, "sweep", "--param", "g:1:2:1", "--out", str(out)) == 0
    rows = _read_csv(out / "sweep.csv")
    assert [(row["g"], row["error"]) for row in rows] == [("1.0", "")]


def test_mu_sweep_without_lambda_exits_3(tmp_path, capsys):
    out = tmp_path / "out"
    argv = ("sweep", "--param", "g:1:2:2", "--quantity", "mu", "--out", str(out))
    assert _run(tmp_path, C1, *argv) == 3
    assert "/sweep/param" in capsys.readouterr().err
    assert not out.exists()


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


# A child process whose stdout cannot take a byte: every write raises ENOSPC.
_FULL_STDOUT = """
import errno, sys
from rotwave.cli import main

class Full:
    def write(self, text):
        raise OSError(errno.ENOSPC, "No space left on device")

    def flush(self):
        pass

sys.stdout = Full()
sys.exit(main(["criteria", "--config", sys.argv[1]]))
"""


def test_criteria_on_full_stdout_exits_3(tmp_path):
    # The OSError used to escape main: a traceback and exit 1.
    path = tmp_path / "config.json"
    path.write_text(json.dumps(C1))
    env = {**os.environ, "PYTHONPATH": os.path.dirname(os.path.dirname(cli.__file__))}
    runs = [subprocess.run(
        [sys.executable, "-c", _FULL_STDOUT, str(path)], capture_output=True, text=True, env=env
    )]
    if os.path.exists("/dev/full"):
        with open("/dev/full", "w") as full:
            runs.append(subprocess.run(
                [sys.executable, "-m", "rotwave.cli", "criteria", "--config", str(path)],
                stdout=full, stderr=subprocess.PIPE, text=True, env=env,
            ))
    for run in runs:
        assert run.returncode == 3
        assert run.stderr == "output error: stdout: [Errno 28] No space left on device\n"


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


@pytest.mark.parametrize(
    "params, quantity",
    [
        (("lambda:1.05:1.5:2",), "lambda_star"),
        (("lambda:1.05:1.5:2",), "criteria"),
        (("depth_frak:0.2:0.8:2",), "lambda_star"),
        (("lambda:1:1.5:2", "depth_frak:0.2:0.8:2"), "mu"),
        (("lambda:1.3:1.5:2", "depth_frak:0.2:0.8:2"), "onset"),
    ],
)
def test_sweep_rejects_a_parameter_its_quantity_does_not_read(tmp_path, capsys, params, quantity):
    # Every row would be the same: the quantity never reads the parameter.
    argv = ["sweep"]
    for p in params:
        argv += ["--param", p]
    argv += ["--quantity", quantity, "--out", str(tmp_path / "out")]
    assert _run(tmp_path, C1, *argv) == 3
    assert "/sweep/param" in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


def test_gamma_sweep_needs_constant_vorticity(tmp_path, capsys):
    # A config error, not a file of failed rows with exit 4 (numerical failure).
    argv = ("sweep", "--param", "gamma:-1:1:2", "--out", str(tmp_path / "out"))
    assert _run(tmp_path, PIECEWISE, *argv) == 3
    assert "/vorticity/kind" in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


def test_irrotational_onset_sweep_says_why_each_row_failed(tmp_path):
    # gamma = 0: the unit-depth constraint does not depend on p0.
    out = tmp_path / "out"
    argv = ("sweep", "--param", "lambda:0.5:2:4", "--quantity", "onset", "--out", str(out))
    config = dict(C1, vorticity={"kind": "constant", "gamma": 0})
    assert _run(tmp_path, config, *argv) == 4
    assert (out / "sweep.csv").read_text() == (
        "lambda,p0,mu,error\n"
        "0.5,,,gamma == 0: constraint residual 0.41421356237309515 for every p0\n"
        "1.0,,,degenerate: gamma == 0: the constraint holds for every p0 < 0\n"
        "1.5,,,gamma == 0: constraint residual -0.18350341907227397 for every p0\n"
        "2.0,,,gamma == 0: constraint residual -0.2928932188134524 for every p0\n"
    )


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


@pytest.mark.parametrize("config", [C1, PIECEWISE], ids=["C1", "P"])
def test_mu_curve_rows_match_unseeded_solves(tmp_path, config):
    # The grid is read from the search's memo, each new lambda seeded from
    # the nearest one solved; a seed may move mu only within the iteration's
    # stopping tolerance.
    out = tmp_path / "out"
    assert _run(tmp_path, config, "analyze", "--out", str(out)) == 0
    cfg = parse_config(json.dumps(config))
    profile = GammaProfile.from_distribution(cfg.vorticity, cfg.flow)
    rows = _read_csv(out / "mu_curve.csv")
    assert len(rows) == 21
    for row in rows:
        lam, mu = float(row["lambda"]), float(row["mu"])
        ref = spectral.principal_eigen(profile, cfg.flow, lam, mesh_points=201).mu_refined
        assert abs(mu - ref) <= 1e-14 * max(1.0, abs(ref))


def test_reruns_are_byte_identical(tmp_path):
    first, second = tmp_path / "first", tmp_path / "second"
    assert _run(tmp_path, C1, "analyze", "--out", str(first)) == 0
    assert _run(tmp_path, C1, "analyze", "--out", str(second)) == 0
    assert _files(first) == _files(second)
    assert set(_files(first)) == {"report.json", "mu_curve.csv"}


def test_analyze_is_byte_identical_across_blas_threads(tmp_path):
    # The element integrals contract with the reference element's weights
    # by matrix products, which OpenBLAS may split over threads.
    path = tmp_path / "config.json"
    path.write_text(json.dumps(C1))
    outs = {}
    for threads in ("1", "2"):
        env = {
            **os.environ,
            "PYTHONPATH": os.path.dirname(os.path.dirname(cli.__file__)),
            "OPENBLAS_NUM_THREADS": threads,
        }
        outs[threads] = out = tmp_path / f"threads_{threads}"
        argv = ["analyze", "--config", str(path), "--out", str(out)]
        run = subprocess.run([sys.executable, "-m", "rotwave.cli", *argv], capture_output=True, text=True, env=env)
        assert run.returncode == 0, run.stderr
    assert set(_files(outs["1"])) == {"report.json", "mu_curve.csv"}
    assert _files(outs["1"]) == _files(outs["2"])


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
        result = cli._analysis(parse_config(json.dumps(case)))
        flow = result.branch.flow
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
    result = cli._analysis(parse_config(json.dumps(config)))
    return build_wave(result, 0.01, n_q), result.branch.flow


def test_field_csv_memory_is_about_one_block(tmp_path, monkeypatch):
    """Peak memory of writing field.csv stays within a few q-blocks of text,
    whether this process formats every row or reads a child's blocks back."""
    n_q = 64
    fld, flow = _c1_wave(n_q, mesh_points=2001)
    path = tmp_path / "field.csv"
    for cpus in (1, 3):
        _use_cpus(monkeypatch, cpus)
        rows = cli._FieldRows(fld, flow, str(tmp_path))
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


# -- field.csv on several CPUs ---------------------------------------------------


def _use_cpus(monkeypatch, n):
    """Make _FieldRows split its rows into n ranges, n - 1 of them forked."""
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(n)), raising=False)
    assert cli._usable_cpus() == n


def _no_child_left():
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)
    return True


def _in_child(action):
    """cli._mirrors that does action() first in a forked formatter only."""
    mirrors = cli._mirrors
    parent = os.getpid()

    def patched(*args):
        if os.getpid() != parent:
            action()
        return mirrors(*args)

    return patched


def test_row_ranges():
    assert cli._row_ranges(9, 2) == [range(0, 4), range(4, 9)]
    assert cli._row_ranges(9, 3) == [range(0, 3), range(3, 6), range(6, 9)]
    assert cli._row_ranges(3, 8) == [range(0, 1), range(1, 2), range(2, 3)]
    assert cli._row_ranges(9, 0) == [range(0, 9)]


def test_row_ranges_without_fork(monkeypatch):
    monkeypatch.delattr(os, "fork")
    assert cli._row_ranges(9, 4) == [range(0, 9)]


@pytest.mark.parametrize("n_q", [16, 17, 32, 33])
def test_field_csv_is_the_same_on_any_cpu_count(tmp_path, monkeypatch, n_q):
    fld, flow = _c1_wave(n_q)
    files = set()
    for cpus in (1, 2, 3):
        _use_cpus(monkeypatch, cpus)
        path = tmp_path / f"field_{cpus}.csv"
        write_csv(str(path), FIELD_HEADER, cli._FieldRows(fld, flow, str(tmp_path)))
        files.add(path.read_bytes())
    assert len(files) == 1
    assert _read_lines(path, ",".join(FIELD_HEADER)) == _field_lines(fld, flow)
    assert sorted(os.listdir(tmp_path)) == ["field_1.csv", "field_2.csv", "field_3.csv"]
    assert _no_child_left()


def test_uneven_field_is_the_same_on_any_cpu_count(tmp_path, monkeypatch):
    # Rows 0 .. 8 are formatted: ranges 0-3 and 4-8 on two CPUs, 0-2, 3-5 and
    # 6-8 on three.  The pairs (1, 15) and (6, 10) fail the mirror check, one
    # in this process's range and one in a child's; (5, 11) has v = nan and
    # -nan, whose text is "nan" in both.
    n_q = 16
    fld, flow = _c1_wave(n_q)
    h, h_q = fld.h.copy(), fld.h_q.copy()
    for m in (15, 10):
        h[m] = np.nextafter(h[m], np.inf)
    h_q[5, 1], h_q[11, 1] = math.nan, -math.nan
    fld = replace(fld, h=h, h_q=h_q)
    expected = _field_lines(fld, flow)
    for cpus in (1, 2, 3):
        _use_cpus(monkeypatch, cpus)
        path = tmp_path / "uneven.csv"
        write_csv(str(path), FIELD_HEADER, cli._FieldRows(fld, flow, str(tmp_path)))
        assert _read_lines(path, ",".join(FIELD_HEADER)) == expected
    assert _no_child_left()


def _raise():
    raise RuntimeError("formatter failed")


def _kill():
    os.kill(os.getpid(), signal.SIGKILL)


@pytest.mark.parametrize("action, how", [(_raise, "exited with status 1"), (_kill, "killed by signal 9")])
def test_failed_formatter_child_exits_3(tmp_path, monkeypatch, capsys, action, how):
    _use_cpus(monkeypatch, 3)
    monkeypatch.setattr(cli, "_mirrors", _in_child(action))
    out = tmp_path / "out"
    argv = ("reconstruct", "--amplitude", "0.01", "--out", str(out))
    assert _run(tmp_path, dict(C1, reconstruct={"n_q": 16}), *argv) == 3
    err = capsys.readouterr().err
    assert err.startswith(f"output error: {out}: the formatter of field.csv rows q")
    assert how in err
    assert os.listdir(out) == []  # no field.csv, no .tmp_* file
    assert _no_child_left()


def test_early_close_kills_the_formatter_children(tmp_path, monkeypatch):
    _use_cpus(monkeypatch, 3)
    monkeypatch.setattr(cli, "_mirrors", _in_child(lambda: time.sleep(60)))
    fld, flow = _c1_wave(16)
    blocks = iter(cli._FieldRows(fld, flow, str(tmp_path)))
    t0 = time.perf_counter()
    next(blocks)
    blocks.close()
    assert time.perf_counter() - t0 < 30
    assert _no_child_left()
    assert os.listdir(tmp_path) == []


def test_failed_write_of_field_csv_leaves_no_child(tmp_path, monkeypatch):
    _use_cpus(monkeypatch, 3)
    fdopen = os.fdopen

    class Full:
        """The staged file, full once two chunks are written."""

        def __init__(self, fh):
            self.fh = fh

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            self.fh.close()

        def writelines(self, chunks):
            for i, chunk in enumerate(chunks):
                if i == 2:
                    raise OSError(errno.ENOSPC, "No space left on device")
                self.fh.write(chunk)

    monkeypatch.setattr(os, "fdopen", lambda *args, **kwargs: Full(fdopen(*args, **kwargs)))
    fld, flow = _c1_wave(16)
    # The exception, held here, keeps the frames of the write alive: the
    # children must be gone all the same.
    with pytest.raises(OSError, match="No space") as excinfo:
        write_csv(str(tmp_path / "field.csv"), FIELD_HEADER, cli._FieldRows(fld, flow, str(tmp_path)))
    assert excinfo.traceback
    assert _no_child_left()
    assert os.listdir(tmp_path) == []


def test_failed_rename_of_field_csv_leaves_no_child(tmp_path, monkeypatch, capsys):
    _use_cpus(monkeypatch, 3)

    def failing(src, dst):
        raise OSError("rename failed")

    monkeypatch.setattr(os, "replace", failing)
    out = tmp_path / "out"
    argv = ("reconstruct", "--amplitude", "0.01", "--out", str(out))
    assert _run(tmp_path, dict(C1, reconstruct={"n_q": 16}), *argv) == 3
    assert capsys.readouterr().err == f"output error: {out}: rename failed\n"
    assert os.listdir(out) == []
    assert _no_child_left()


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

    for module in (spectral, bifurcation):
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


# The seed-0 onset configs of the benchmark (perfbench/workloads.py).
ONSET_TABULATED = {
    "flow": {"d": 1.0, "g": 9.81, "p0": -1.0},
    "vorticity": {
        "kind": "tabulated",
        "nodes": [k / 8.0 - 1.0 for k in range(9)],
        "values": [-0.5206, -0.8277, -0.6773, -0.5629, -1.2663, -0.4984, -1.0659, -1.4152, -0.5376],
    },
}
ONSET_PIECEWISE = {
    "flow": {"d": 1.0, "g": 1.0, "p0": -1.0},
    "vorticity": {"kind": "piecewise_constant", "breakpoints": [-0.546875], "values": [0.625, -2.390625]},
}


@pytest.fixture
def reuse(monkeypatch):
    """Count ElementRule builds, GammaProfile builds, the mesh gradings asked
    for, coarse bisections, laminar piece geometries and passes over their
    pieces, and the most passes one calibration took."""
    counts, gradings = Counter(), set()
    init, bisect, graded = vorticity.ElementRule.__init__, spectral._bisect_smallest, spectral._graded
    from_distribution = vars(GammaProfile)["from_distribution"].__func__
    pieces, powers, calibrate = laminar._Pieces.__init__, laminar._Pieces.powers, bifurcation.calibrate_mass_flux

    def counted_pieces(self, *args):
        counts["pieces"] += 1
        pieces(self, *args)

    def counted_powers(self, *args):
        counts["passes"] += 1
        return powers(self, *args)

    def counted_calibrate(*args):
        before = counts["passes"]
        p0 = calibrate(*args)
        counts["calibration_passes"] = max(counts["calibration_passes"], counts["passes"] - before)
        return p0

    def counted_init(self, *args):
        counts["rules"] += 1
        init(self, *args)

    def counted_bisect(*args):
        # A generator too, so a bisection counts once its first shift is taken.
        counts["bisections"] += 1
        yield from bisect(*args)

    def counted_profile(cls, *args):
        counts["profiles"] += 1
        return from_distribution(cls, *args)

    def recorded_graded(profile, lam):
        grade = graded(profile, lam)
        gradings.add(grade)
        return grade

    monkeypatch.setattr(vorticity.ElementRule, "__init__", counted_init)
    monkeypatch.setattr(spectral, "_bisect_smallest", counted_bisect)
    monkeypatch.setattr(spectral, "_graded", recorded_graded)
    monkeypatch.setattr(GammaProfile, "from_distribution", classmethod(counted_profile))
    monkeypatch.setattr(laminar._Pieces, "__init__", counted_pieces)
    monkeypatch.setattr(laminar._Pieces, "powers", counted_powers)
    monkeypatch.setattr(bifurcation, "calibrate_mass_flux", counted_calibrate)
    return counts, gradings


def _rows_match_unseeded_solves(config, rows, mesh_points):
    for row in rows:
        assert row["error"] == ""
        cfg = parse_config(json.dumps(config))  # its own distribution: no shared levels
        lam = float(row["lambda"])
        flow = replace(cfg.flow, **{k: float(row[k]) for k in ("d", "g", "p0") if k in row})
        dist = vorticity.VorticityDistribution.const(float(row["gamma"])) if "gamma" in row else cfg.vorticity
        profile = GammaProfile.from_distribution(dist, flow)
        ref = spectral.principal_eigen(profile, flow, lam, mesh_points=mesh_points).mu_refined
        assert abs(float(row["mu"]) - ref) <= 1e-14 * max(1.0, abs(ref))


def _sweep(tmp_path, config, grids, *quantity):
    out = tmp_path / "out"
    params = [arg for grid in grids for arg in ("--param", grid)]
    assert _run(tmp_path, config, "sweep", *params, *quantity, "--out", str(out)) == 0
    return _read_csv(out / "sweep.csv")


@pytest.mark.parametrize(
    "config, grids, n_rows, n_branches",
    [
        (ONSET_TABULATED, ["lambda:1.2:2:9"], 9, 1),
        (ONSET_PIECEWISE, ["lambda:1.5:2.5:17"], 17, 1),
        (ONSET_PIECEWISE, ["lambda:1.5:2.5:5", "g:0.5:1.5:2"], 10, 2),
        (ONSET_TABULATED, ["lambda:1.2:2:5", "d:0.8:1.2:3"], 15, 3),
    ],
    ids=["tabulated", "piecewise", "piecewise_by_g", "tabulated_by_d"],
)
def test_onset_rows_share_mesh_levels_and_seed_each_other(tmp_path, reuse, config, grids, n_rows, n_branches):
    # Rows of one g and d differ only in lambda: they are one branch, whose
    # first lambda alone runs a coarse bisection, every other one being
    # seeded from the eigenpair of the nearest lambda solved on it.  Every
    # branch shares the mesh levels of the distribution's shape (2 rules per
    # grading: the working level has none) and the calibration's piece geometry, built once for every
    # depth: one GammaProfile per row, no reference flow.  Each calibration
    # takes at most 8 passes over the pieces: the edge value, the Newton
    # steps and the residual.
    counts, gradings = reuse
    rows = _sweep(tmp_path, config, grids, "--quantity", "onset")
    assert counts["rules"] <= 2 * len(gradings)
    assert counts["bisections"] == n_branches
    assert counts["pieces"] == 1
    assert counts["profiles"] == n_rows
    assert 0 < counts["calibration_passes"] <= 8
    assert len(rows) == n_rows
    _rows_match_unseeded_solves(config, rows, 1201)


def test_onset_rows_do_not_depend_on_the_sweep_direction(tmp_path):
    # Each row's eigen solve is seeded from its neighbour on the other side
    # in the two directions, and its p0 depends on lambda alone.
    # np.linspace puts the second point an ulp apart in the two directions
    # (1.3 and 1.3000000000000003), so 8 of the 9 lambdas are shared.
    runs = {}
    for grid in ("lambda:1.2:2:9", "lambda:2:1.2:9"):
        (tmp_path / grid).mkdir()
        runs[grid] = _sweep(tmp_path / grid, ONSET_TABULATED, [grid], "--quantity", "onset")
    up, down = runs.values()
    down = {row["lambda"]: row for row in down}
    shared = [(row, down[row["lambda"]]) for row in up if row["lambda"] in down]
    assert len(shared) == 8
    for a, b in shared:
        assert b["p0"] == a["p0"]
        assert float(b["mu"]) == pytest.approx(float(a["mu"]), rel=1e-14)


def test_mu_sweep_rows_seed_each_other(tmp_path, reuse):
    # One branch per gamma, in either parameter order: one GammaProfile, one
    # coarse bisection and 3 rules per grading each.
    counts, gradings = reuse
    for grids, n_rows, n_branches in [
        (["lambda:1.05:1.5:5"], 5, 1),
        (["lambda:1.25:1.5:4", "gamma:-1.2:-0.8:3"], 12, 3),
        (["gamma:-1.2:-0.8:3", "lambda:1.25:1.5:4"], 12, 3),
    ]:
        counts.clear()
        gradings.clear()
        rows = _sweep(tmp_path, C1, grids)
        assert counts["profiles"] == n_branches
        assert counts["rules"] <= 2 * len(gradings) * n_branches
        assert counts["bisections"] == n_branches
        assert len(rows) == n_rows
        _rows_match_unseeded_solves(C1, rows, C1["numerics"]["mesh_points"])


def test_onset_caps_mesh_points_at_1201(tmp_path):
    files = {}
    for mesh_points in (801, 1201, 2001):
        config = {**ONSET_PIECEWISE, "numerics": {"mesh_points": mesh_points}}
        out = tmp_path / str(mesh_points)
        argv = ("sweep", "--param", "lambda:1.5:2.5:3", "--quantity", "onset", "--out", str(out))
        assert _run(tmp_path, config, *argv) == 0
        files[mesh_points] = (out / "sweep.csv").read_bytes()
    assert files[2001] == files[1201]
    assert files[801] != files[1201]


_SCIPY_LINALG = """
import sys
import rotwave.cli
print("scipy.linalg" in sys.modules)
code = rotwave.cli.main(["analyze", "--config", sys.argv[1], "--out", sys.argv[2]])
print("scipy.linalg" in sys.modules, code)
"""


def test_cli_import_leaves_out_scipy_linalg(tmp_path):
    # The shifted tridiagonal solves are numpy; scipy.linalg alone took about
    # 0.3 s of every command's start-up.
    path = tmp_path / "config.json"
    path.write_text(json.dumps(C1))
    out = subprocess.run(
        [sys.executable, "-c", _SCIPY_LINALG, str(path), str(tmp_path / "out")],
        capture_output=True,
        text=True,
        check=True,
        env={**os.environ, "PYTHONPATH": os.path.dirname(os.path.dirname(cli.__file__))},
    )
    assert out.stdout.split("\n") == ["False", "False 0", ""]


_NO_MULTIPROCESSING = """
import sys
import rotwave.cli

def loaded():
    return sorted(m for m in ("multiprocessing", "concurrent.futures") if m in sys.modules)

before = loaded()
argv = ["reconstruct", "--config", sys.argv[1], "--amplitude", "0.01", "--out", sys.argv[2]]
code = rotwave.cli.main(argv)
print(before, loaded(), code)
"""


def test_reconstruct_leaves_out_multiprocessing(tmp_path):
    # field.csv is formatted in children forked with os alone: neither
    # package is loaded at start-up or by a reconstruct run.
    path = tmp_path / "config.json"
    path.write_text(json.dumps(dict(C1, reconstruct={"n_q": 16})))
    out = subprocess.run(
        [sys.executable, "-c", _NO_MULTIPROCESSING, str(path), str(tmp_path / "out")],
        capture_output=True,
        text=True,
        check=True,
        env={**os.environ, "PYTHONPATH": os.path.dirname(os.path.dirname(cli.__file__))},
    )
    assert out.stdout == "[] [] 0\n"
    assert (tmp_path / "out" / "field.csv").exists()


def _inertia_sweeps(monkeypatch, tmp_path, config, *argv):
    """Inertia sweeps of one command, which must exit 0."""
    sweeps = []
    count = numerics.count_pencil_eigenvalues_below

    def counted(*args):
        sweeps.append(args[-1])
        return count(*args)

    for module in (numerics, spectral):
        monkeypatch.setattr(module, "count_pencil_eigenvalues_below", counted)
    assert _run(tmp_path, config, *argv, "--out", str(tmp_path / "out")) == 0
    return len(sweeps)


def test_analyze_inertia_sweeps(monkeypatch, tmp_path):
    # Neighbour seeds skip the coarse bisection of every solve but the first
    # of the command, grid included: 12 sweeps here, 343 when every solve
    # began with one.
    assert _inertia_sweeps(monkeypatch, tmp_path, C1, *ANALYZE) <= 20


@pytest.mark.parametrize(
    "config, argv, cap",
    [
        (
            dict(C1, numerics={"mesh_points": 1001}),
            ("sweep", "--param", "gamma:-1:1:3", "--quantity", "lambda_star"),
            90,
        ),
        (dict(C1, vorticity={"kind": "constant", "gamma": 0}, numerics={}), ANALYZE, 80),
    ],
    ids=["gamma_sweep", "irrotational"],
)
def test_near_floor_restarts_inertia_sweeps(monkeypatch, tmp_path, config, argv, cap):
    # For gamma >= 0 the probe just above the floor fails its iteration from
    # the neighbour seed, its mode being a thin surface layer.  Its restart
    # stops at the 1e-3 bisection of the level's pencil: 88 and 78 sweeps,
    # against 148 and 172 when every restart narrowed to 1e-12.
    assert _inertia_sweeps(monkeypatch, tmp_path, config, *argv) <= cap


_NO_SCIPY = """
import sys
import rotwave.cli

def loaded():
    return [m for m in sys.modules if m == "scipy" or m.startswith("scipy.")]

before = loaded()
code = rotwave.cli.main(["criteria", "--config", sys.argv[1]])
print(before, loaded(), code, file=sys.stderr)
"""


def test_cli_import_leaves_out_scipy_integrate(tmp_path):
    # No command needs scipy at start-up: only the shooting route integrates
    # ODEs, and report.json reads scipy's version when it is written.
    path = tmp_path / "config.json"
    path.write_text(json.dumps(C1))
    out = subprocess.run(
        [sys.executable, "-c", _NO_SCIPY, str(path)],
        capture_output=True,
        text=True,
        check=True,
        env={**os.environ, "PYTHONPATH": os.path.dirname(os.path.dirname(cli.__file__))},
    )
    assert out.stderr.strip() == "[] [] 0"
