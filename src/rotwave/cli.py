"""Config parsing, pipeline orchestration, and deterministic file emission.

Identical config bytes produce byte-identical outputs: floats are written
in shortest round-trip form, line endings are '\\n', files are staged to a
temporary path and atomically renamed, and reports carry no timestamps.

Exit codes: 0 success, 2 no bifurcation, 3 config error, an output
directory that cannot be created or written, a forked formatter of
field.csv that fails or is killed (see _FieldRows) or, for criteria, a
stdout that cannot be written, 4 numerical failure.  Among the config
errors of sweep, raised before the output directory is made: a swept
parameter that the quantity does not read (lambda for criteria or
lambda_star, depth_frak for mu, lambda_star or onset, p0 for onset; see
run_sweep), and a gamma sweep on a profile that is not of constant
vorticity.
"""

from __future__ import annotations

import argparse
import itertools
import json
import math
import os
import sys
import tempfile
from dataclasses import asdict, dataclass, replace
from typing import Optional, Sequence

import numpy as np

from . import __version__
from .bifurcation import (
    DEFAULT_MARGINS,
    BifurcationPoint,
    Branch,
    NoBifurcation,
    check_bed_layer,
    check_constant_vorticity,
    check_continuous_sufficient,
    check_general_sufficient,
    check_surface_layer,
    find_lambda_star,
    transversality_integral,
)
from .errors import ConfigError, Error, InvalidParameter, StagnationAtAmplitude
from .reconstruct import (
    build_wave,
    physical_fields,
    residual_slope,
    surface_profile,
    weak_residual,
)
from .vorticity import FlowParameters, GammaProfile, VorticityDistribution, holder_seminorm


@dataclass(frozen=True)
class NumericsOptions:
    mesh_points: int = 2001
    root_tol: float = 1e-10
    lambda_margin_schedule: tuple = DEFAULT_MARGINS

    def __post_init__(self):
        if not (self.mesh_points >= 201 and self.mesh_points % 2 == 1):
            raise InvalidParameter("mesh_points must be an odd integer >= 201", "mesh_points")
        if not self.root_tol > 0.0:
            raise InvalidParameter("root_tol must be > 0", "root_tol")
        margins = self.lambda_margin_schedule
        if not margins or any(not m > 0.0 for m in margins) or any(
            b >= a for a, b in zip(margins, margins[1:])
        ):
            raise InvalidParameter(
                "lambda_margin_schedule must be a decreasing list of positive margins",
                "lambda_margin_schedule",
            )


@dataclass(frozen=True)
class ReconstructOptions:
    amplitude: float = 0.0
    n_q: int = 256

    def __post_init__(self):
        if not 0.0 <= self.amplitude < math.inf:
            raise InvalidParameter("amplitude must be finite and >= 0", "amplitude")
        if not self.n_q >= 16:
            raise InvalidParameter("n_q must be >= 16", "n_q")


@dataclass(frozen=True)
class CriteriaOptions:
    alpha: float = 1.0
    depth_frak: Optional[float] = None

    def __post_init__(self):
        if not 0.0 < self.alpha <= 1.0:
            raise InvalidParameter("alpha must be in (0, 1]", "alpha")
        if self.depth_frak is not None and not self.depth_frak > 0.0:
            raise InvalidParameter("depth_frak must be > 0", "depth_frak")


# The JSON type of every config key, by section and by vorticity kind; a
# list is a list of numbers.  The value rules live in the constructors.
_SECTIONS = {
    "flow": (FlowParameters, {"d": float, "g": float, "p0": float}),
    "numerics": (
        NumericsOptions,
        {"mesh_points": int, "root_tol": float, "lambda_margin_schedule": list},
    ),
    "reconstruct": (ReconstructOptions, {"amplitude": float, "n_q": int}),
    "criteria": (CriteriaOptions, {"alpha": float, "depth_frak": float}),
}
_VORTICITY = {
    "constant": (VorticityDistribution.const, {"gamma": float}),
    "piecewise_constant": (
        VorticityDistribution.piecewise_constant,
        {"breakpoints": list, "values": list},
    ),
    "tabulated": (VorticityDistribution.tabulated, {"nodes": list, "values": list}),
}


@dataclass(frozen=True)
class RunConfig:
    flow: FlowParameters
    vorticity: VorticityDistribution
    numerics: NumericsOptions = NumericsOptions()
    reconstruct: ReconstructOptions = ReconstructOptions()
    criteria: CriteriaOptions = CriteriaOptions()

    def resolved(self) -> dict:
        """Full config echo with defaults applied, for provenance."""
        out = {
            name: {k: v for k, v in asdict(getattr(self, name)).items() if v is not None}
            for name in _SECTIONS
        }
        v = self.vorticity
        if v.kind == "constant":
            out["vorticity"] = {"kind": v.kind, "gamma": v.constant}
        else:
            out["vorticity"] = {"kind": v.kind, **{k: getattr(v, k) for k in _VORTICITY[v.kind][1]}}
        return out


# -- strict config parsing ---------------------------------------------------


def _coerce(val, path, typ):
    """val as a value of JSON type typ, or a ConfigError at path."""
    if typ is float:
        number = isinstance(val, (int, float)) and not isinstance(val, bool)
        if not (number and abs(val) <= sys.float_info.max):  # NaN fails too
            raise ConfigError("must be a finite number", path)
        return float(val)
    if typ is list:
        if not isinstance(val, list):
            raise ConfigError("must be an array", path)
        return tuple(_coerce(x, f"{path}/{i}", float) for i, x in enumerate(val))
    if not isinstance(val, typ) or isinstance(val, bool):
        kind = {int: "an integer", str: "a string", dict: "an object"}[typ]
        raise ConfigError(f"must be {kind}", path)
    return val


def _fields(obj, path, types, required=()):
    """The keys of one config object, each of its JSON type."""
    for key in obj:
        if key not in types:
            raise ConfigError("unknown key", f"{path}/{key}")
    out = {}
    for key, typ in types.items():
        if key in obj:
            out[key] = _coerce(obj[key], f"{path}/{key}", typ)
        elif key in required:
            raise ConfigError("missing required field", f"{path}/{key}")
    return out


def _build(make, path, fields):
    """make(**fields), with a broken value rule as a ConfigError at its key."""
    try:
        return make(**fields)
    except InvalidParameter as exc:
        raise ConfigError(str(exc), f"{path}/{exc.field}") from exc


def parse_config(text) -> RunConfig:
    """Strict JSON config parser; unknown keys are fatal.

    The accepted keys, with their defaults and ranges; every number must be
    finite:

    flow (required)
        d, g    mean depth and gravity, > 0
        p0      relative mass flux, < 0
    vorticity (required), by its kind
        constant            gamma: any number
        piecewise_constant  breakpoints: strictly increasing inside (-1, 0);
                            values: one more than the breakpoints
        tabulated           nodes: at least two, strictly increasing from -1
                            to 0; values: one per node
    numerics
        mesh_points             2001; odd, >= 201; sweep --quantity onset
                                caps it at 1201
        root_tol                1e-10; > 0
        lambda_margin_schedule  [1e-2, 1e-3, ..., 1e-8]; positive, strictly
                                decreasing
    reconstruct
        amplitude   0.0; >= 0; the default and the rule for --amplitude
        n_q         256; >= 16
    criteria
        alpha       1.0; in (0, 1]
        depth_frak  unset; > 0

    The parser checks the JSON shape; the ranges are the rules of the
    constructors it calls.  Raises ConfigError carrying a JSON-pointer path
    to the offending field.
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
    top = _fields(raw, "", dict.fromkeys(["vorticity", *_SECTIONS], dict), ("flow", "vorticity"))

    built = {}
    for name, (make, types) in _SECTIONS.items():
        required = types if name == "flow" else ()
        fields = _fields(top.get(name, {}), f"/{name}", types, required)
        built[name] = _build(make, f"/{name}", fields)

    vort_raw = top["vorticity"]
    if "kind" not in vort_raw:
        raise ConfigError("missing required field", "/vorticity/kind")
    kind = _coerce(vort_raw["kind"], "/vorticity/kind", str)
    if kind not in _VORTICITY:  # the constructor names the kinds and raises
        _build(VorticityDistribution, "/vorticity", {"kind": kind})
    make, types = _VORTICITY[kind]
    fields = _fields(vort_raw, "/vorticity", {"kind": str, **types}, ["kind", *types])
    del fields["kind"]
    return RunConfig(vorticity=_build(make, "/vorticity", fields), **built)


# -- deterministic serialization ---------------------------------------------


def _fmt(value) -> str:
    """Shortest round-trip text for one CSV cell; repr writes nan, inf and -0.0."""
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
    return repr(float(value))


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


def _atomic_write(path: str, chunks):
    """Write an iterable of text chunks to path, all or nothing.

    The chunks are streamed to a temporary file beside path, which is then
    renamed onto it; if a chunk or the rename fails, the temporary file is
    removed and path keeps its old bytes.
    """
    directory = os.path.dirname(os.path.abspath(path))
    fd, tmp = tempfile.mkstemp(dir=directory, prefix=".tmp_", suffix=".part")
    try:
        # mkstemp creates the file 0600; give it the mode open() would.
        umask = os.umask(0)
        os.umask(umask)
        os.fchmod(fd, 0o666 & ~umask)
        with os.fdopen(fd, "w", newline="") as fh:
            fh.writelines(chunks)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def write_json(path: str, obj):
    _atomic_write(path, [json.dumps(_jsonable(obj), indent=2, sort_keys=True) + "\n"])


def write_csv(path: str, header: Sequence[str], rows):
    """Stream a CSV file to path: the header line, then each item of rows.

    An item is either a sequence of cells, written as one line of _fmt text,
    or a str of finished lines, each ending in '\\n', written verbatim.
    Lines go to the staged file as they are made; the text is never held
    whole.
    """

    def line(row):
        return row if isinstance(row, str) else ",".join(map(_fmt, row)) + "\n"

    rows = iter(rows)
    try:
        # map keeps no reference to a line once it is written.
        _atomic_write(path, itertools.chain([",".join(header) + "\n"], map(line, rows)))
    finally:
        # A generator of rows stops here even when a write fails, so the
        # children of _FieldRows are gone before write_csv returns or raises.
        getattr(rows, "close", lambda: None)()


# -- pipelines ----------------------------------------------------------------


def _versions() -> dict:
    import scipy  # for its version string only; keeps it out of start-up

    return {
        "rotwave": __version__,
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "python": ".".join(str(v) for v in sys.version_info[:3]),
    }


def _verdict(margin: float) -> dict:
    """A criterion's report entry: it holds where its margin is > 0, and
    holds is None where the margin is NaN, the criterion undefined."""
    return {"holds": None if math.isnan(margin) else bool(margin > 0.0), "margin": margin}


def build_criteria_report(config: RunConfig, profile: GammaProfile) -> dict:
    """Every applicable closed-form onset criterion plus its inputs."""
    flow = config.flow
    alpha = config.criteria.alpha
    depth_frak = config.criteria.depth_frak
    theta = holder_seminorm(profile, alpha)
    report = {
        "alpha": alpha,
        "theta": theta,
        "p1": profile.p1,
        "gamma_inf": config.vorticity.sup_norm(),
        "depth_frak": depth_frak,
        "general_sufficient": _verdict(check_general_sufficient(profile, flow, alpha, theta=theta)),
        "continuous_sufficient": _verdict(check_continuous_sufficient(profile, flow)),
        "constant_vorticity": None,
        "surface_layer": None,
        "bed_layer": None,
    }
    if config.vorticity.kind == "constant":
        gamma = config.vorticity.constant
        report["constant_vorticity"] = _verdict(check_constant_vorticity(gamma, flow.d, flow.g))
        if depth_frak is not None:
            report["surface_layer"] = _verdict(check_surface_layer(gamma, depth_frak, flow.g))
            bed = _verdict(check_bed_layer(gamma, flow.d, depth_frak, flow.g))
            report["bed_layer"] = {**bed, "undefined_radicand": bed["holds"] is None}
    return report


def _analysis(config: RunConfig):
    flow = config.flow
    branch = Branch(config.vorticity, flow.d, flow.g, config.numerics.mesh_points, flow.p0)
    return find_lambda_star(
        branch,
        root_tol=config.numerics.root_tol,
        margin_schedule=config.numerics.lambda_margin_schedule,
    )


def run_analyze(config: RunConfig, out_dir: str) -> int:
    """Locate the crossing, evaluate criteria, emit report.json + mu_curve.csv."""
    os.makedirs(out_dir, exist_ok=True)
    result = _analysis(config)
    criteria = build_criteria_report(config, result.branch.profile)
    curve = [
        (float(lam), result.branch(lam)[1].mu_refined)
        for lam in np.linspace(result.lambda_lo, result.lambda0, 21)
    ]

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
    write_csv(os.path.join(out_dir, "mu_curve.csv"), ["lambda", "mu"], curve)
    return 0 if isinstance(result, BifurcationPoint) else 2


class _FieldRows:
    """field.csv rows as finished text, one q-block of n_p lines at a time.

    Cells are the shortest round-trip text of _fmt, formatted by column from
    one call of physical_fields.  q is constant within a block, so its text
    is formatted once per block and written in both the q and the x cell
    (x = q); p and psi = p0 p are the same row in every block, so each is
    formatted once per file.

    Rows k and n_q - k mirror each other (q_{n_q - k} = -q_k), and
    build_wave makes y, h and u - c even in q and v odd, bit for bit.  So
    only rows 0 .. n_q // 2 are formatted: once a pair is checked bit for
    bit, row n_q - k reuses row k's y, h and u_rel text and its v text with
    the sign flipped.  A pair that fails the check, as in a hand-built
    field, is formatted afresh.

    The formatted rows are split into one contiguous range per usable CPU
    (_usable_cpus; one range where os.fork does not exist).  This process
    yields the blocks of the first range as it makes them; each further
    range is formatted by a forked child, which writes its blocks to
    unlinked temporary files in directory and exits.  The mirrored blocks
    are made in the order n_q - 1, n_q - 2, ..., so they too go to such a
    file and are read back in reverse.  Every file is read back one block at
    a time, so memory stays at about one block.  A child that fails or is
    killed raises OSError once it is reaped; a child still running when the
    iteration stops early is killed.  No child outlives the iteration.
    The children are forked, not spawned: a fresh interpreter would import
    numpy and rotwave again, about 0.28 s, which is more than they save, and
    a forked child shares the columns without copying them.  A child runs
    this formatting only, with no BLAS call, and leaves by os._exit.

    len() is the row count: perfbench's tracer counts the rows given to
    write_csv with len(), and a block of text does not say how many rows it
    holds.
    """

    def __init__(self, fld, flow, directory):
        self.fld = fld
        self.p0 = flow.p0
        self.directory = directory
        self.columns = physical_fields(fld, flow)

    def __len__(self):
        return self.fld.h.size

    def __iter__(self):
        fld = self.fld
        y, u_rel, v = self.columns
        even = (y, fld.h, u_rel)
        p = list(map(repr, fld.p_nodes.tolist()))
        # psi is the last cell, so its text carries the line end.
        psi = [f"{t}\n" for t in map(repr, (self.p0 * fld.p_nodes).tolist())]
        q = list(map(repr, fld.q_nodes.tolist()))
        n_q = len(q)

        def text(i):
            # Held while row n_q - i is made from it.  The y, h and u_rel
            # cells, which the two rows share, are one string a line: half
            # as many objects held at once.
            cells = zip(*(map(repr, c[i].tolist()) for c in even))
            return list(map(",".join, cells)), list(map(repr, v[i].tolist()))

        def mirror(k, m, columns):
            """Row m's text: row k's, with v's sign flipped, where the pair checks out."""
            if not _mirrors(even, v, k, m):
                return text(m)
            same, v_text = columns
            return same, (t[1:] if t[0] == "-" else "-" + t for t in v_text)

        def block(i, columns):
            cells = zip(itertools.repeat(q[i]), p, itertools.repeat(q[i]), *columns, psi)
            return "".join(map(",".join, cells))

        def formatted(rows, side):
            """The blocks of rows, in order; their mirrored blocks go to side."""
            for k in rows:
                columns = text(k)
                yield block(k, columns)
                m = n_q - k
                if 0 < k < m:
                    side.append(block(m, mirror(k, m, columns)))

        first, *rest = _row_ranges(n_q // 2 + 1, _usable_cpus())
        files = []  # this process's mirrored blocks, then each child's blocks and mirrored blocks
        children = {}  # pid -> its rows, until reaped
        try:
            # Every file is made before the first fork, while none has a
            # buffer holding data.
            for _ in range(1 + 2 * len(rest)):
                files.append(_BlockFile(self.directory))
            forked = list(zip(files[1::2], files[2::2]))  # (direct, mirrored) of each child
            for rows, (direct, side) in zip(rest, forked):
                children[_fork_formatter(formatted, rows, direct, side)] = rows
            yield from formatted(first, files[0])
            for pid, (direct, side) in zip(list(children), forked):
                _check_child(os.waitpid(pid, 0)[1], children.pop(pid))
                direct.load_ends()
                side.load_ends()
                yield from direct.blocks()
            # From row n_q - 1 down: the last range's mirrored blocks first.
            for side in reversed(files[::2]):
                yield from side.blocks(reverse=True)
        finally:
            if children:
                import signal  # only to stop the children of an early close

                for pid in children:
                    try:
                        os.kill(pid, signal.SIGKILL)
                        os.waitpid(pid, 0)
                    except OSError:  # reaped already, by a wait on any child
                        pass
            for f in files:
                f.file.close()


def _usable_cpus() -> int:
    """The CPUs this process may run on; field.csv is formatted on each."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # not on Linux
        return os.cpu_count() or 1


def _row_ranges(n_rows, n_cpus):
    """n_rows split into contiguous ranges, one per CPU and at most one a row;
    a single range where os.fork does not exist."""
    n = max(1, min(n_cpus, n_rows)) if hasattr(os, "fork") else 1
    bounds = [n_rows * i // n for i in range(n + 1)]
    return [range(a, b) for a, b in itertools.pairwise(bounds)]


class _BlockFile:
    """Blocks of text in an unlinked temporary file, read back one at a time.

    ends holds the offset at which each block ends.  A forked child writes
    them after its blocks, with their count last, so that the parent can
    read them back (load_ends).
    """

    def __init__(self, directory):
        self.file = tempfile.TemporaryFile(dir=directory)
        self.ends = []

    def append(self, block: str):
        self.file.write(block.encode())
        self.ends.append(self.file.tell())

    def save_ends(self):
        self.file.write(np.array([*self.ends, len(self.ends)], np.int64).tobytes())
        self.file.flush()

    def load_ends(self):
        self.file.seek(-8, os.SEEK_END)
        n = int(np.frombuffer(self.file.read(8), np.int64)[0])
        self.file.seek(-8 * (n + 1), os.SEEK_END)
        self.ends = np.frombuffer(self.file.read(8 * n), np.int64).tolist()

    def blocks(self, reverse=False):
        spans = list(itertools.pairwise([0, *self.ends]))
        for start, end in reversed(spans) if reverse else spans:
            self.file.seek(start)
            yield self.file.read(end - start).decode()


def _fork_formatter(formatted, rows, direct, side) -> int:
    """Fork a child that writes the blocks of rows to direct, their mirrored
    blocks to side and then the ends of both, and exits; returns its pid.

    The child never returns into the caller and never flushes the stdio
    buffers it inherits: it leaves by os._exit, with status 0 once its
    files are complete and 1 on any error.
    """
    pid = os.fork()
    if pid:
        return pid
    status = 1
    try:
        for text in formatted(rows, side):
            direct.append(text)
        direct.save_ends()
        side.save_ends()
        status = 0
    finally:
        os._exit(status)


def _check_child(status, rows):
    """OSError unless the formatter child of rows exited with status 0."""
    code = os.waitstatus_to_exitcode(status)
    if code:
        how = f"exited with status {code}" if code > 0 else f"was killed by signal {-code}"
        raise OSError(f"the formatter of field.csv rows q{rows.start}..q{rows.stop - 1} {how}")


def _mirrors(even, odd, k, m) -> bool:
    """Whether row m of each even array equals row k bit for bit, and row m
    of odd is row k negated bit for bit (no NaN: its text has no sign)."""

    def same(a, b):
        return np.array_equal(a.view(np.int64), b.view(np.int64))

    return (
        all(same(c[k], c[m]) for c in even)
        and not np.isnan(odd[k]).any()
        and same(odd[k], -odd[m])
    )


def run_reconstruct(config: RunConfig, amplitudes: Sequence[float], out_dir: str) -> int:
    """Build first-order fields and emit field.csv, surface.csv, residuals.json.

    field.csv and surface.csv describe the first requested amplitude;
    residuals.json lists the weak-form defect norms for every amplitude and
    a log-log slope fit when several positive amplitudes are given.  Without
    a bifurcation it writes no file, only inf_mu and lambda_at_inf to stderr.
    """
    n_q = config.reconstruct.n_q
    amplitudes = [
        _build(ReconstructOptions, "/reconstruct", {"amplitude": s, "n_q": n_q}).amplitude
        for s in amplitudes or [config.reconstruct.amplitude]
    ]
    os.makedirs(out_dir, exist_ok=True)
    result = _analysis(config)
    if isinstance(result, NoBifurcation):
        line = {"status": "no_bifurcation", "inf_mu": result.inf_mu, "lambda_at_inf": result.lambda_at_inf}
        sys.stderr.write(json.dumps(_jsonable(line)) + "\n")
        return 2
    flow = config.flow

    # Only the first field is written; the residuals read h, h_q and h_p.
    entries = []
    first_field = None
    for s in amplitudes:
        fld = build_wave(result, s, n_q)
        interior, boundary = weak_residual(fld, result.branch.profile, flow, result.Q_star)
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

    write_csv(
        os.path.join(out_dir, "field.csv"),
        ["q", "p", "x", "y", "h", "u_rel", "v", "psi"],
        _FieldRows(first_field, flow, out_dir),
    )
    eta, _mean = surface_profile(first_field, flow)
    write_csv(
        os.path.join(out_dir, "surface.csv"),
        ["x", "eta"],
        list(zip(first_field.q_nodes, eta)),
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
    if not (math.isfinite(lo) and math.isfinite(hi)):
        raise ConfigError("bounds must be finite numbers", "/sweep/param")
    if n < 0:
        raise ConfigError("point count must be >= 0", "/sweep/param")
    if n == 0:
        values = []
    elif n == 1:
        values = [lo]
    else:
        values = list(np.linspace(lo, hi, n))
    return name, values


# The criteria report's entries, by the prefix of their sweep columns.
_CRITERIA = {
    "general": "general_sufficient",
    "continuous": "continuous_sufficient",
    "constant": "constant_vorticity",
    "surface": "surface_layer",
    "bed": "bed_layer",
}
_CRITERIA_COLUMNS = ["theta", "p1", *(f"{c}_{part}" for c in _CRITERIA for part in ("holds", "margin"))]

# Each sweep quantity: the parameters it reads, then its value columns.  A
# quantity that reads lambda is evaluated at each swept lambda, so it needs a
# lambda sweep; sweeping a parameter the quantity does not read is an error.
_SWEEP_QUANTITIES = {
    "mu": (("lambda", "gamma", "d", "g", "p0"), ["mu"]),
    "criteria": (("gamma", "d", "g", "p0", "depth_frak"), _CRITERIA_COLUMNS),
    "lambda_star": (("gamma", "d", "g", "p0"), ["lambda_star", "lambda0", "mu_residual"]),
    # p0 is calibrated at each lambda.
    "onset": (("lambda", "gamma", "d", "g"), ["p0", "mu"]),
}
_SWEEP_PARAMS = {name for reads, _ in _SWEEP_QUANTITIES.values() for name in reads}


def _sweep_row_config(config: RunConfig, overrides: dict) -> RunConfig:
    flow = replace(config.flow, **{k: v for k, v in overrides.items() if k in ("d", "g", "p0")})
    vorticity = config.vorticity
    if "gamma" in overrides:
        vorticity = VorticityDistribution.const(overrides["gamma"])
    criteria = config.criteria
    if "depth_frak" in overrides:
        criteria = replace(criteria, depth_frak=overrides["depth_frak"])
    return replace(config, flow=flow, vorticity=vorticity, criteria=criteria)


def run_sweep(config: RunConfig, param_specs: Sequence[str], quantity: Optional[str], out_dir: str) -> int:
    """Evaluate a quantity over a 1- or 2-parameter grid into sweep.csv.

    Rows follow lexicographic grid order (first parameter outermost);
    failures land in the per-row error column and do not abort the sweep.

    The quantity (default mu with a lambda sweep, else criteria) and the
    parameters it accepts:

        mu           lambda (required), gamma, d, g, p0
        criteria     gamma, d, g, p0, depth_frak
        lambda_star  gamma, d, g, p0
        onset        lambda (required), gamma, d, g; p0 is calibrated, and
                     mesh_points is capped at 1201

    Any other parameter, and a gamma sweep on a profile that is not of
    constant vorticity, is a ConfigError raised before any row is solved.
    A mu or onset row is a lambda of the Branch of its row config, at fixed
    p0 for mu and calibrated for onset: rows that differ only in lambda
    share a branch, and each is seeded from the nearest lambda solved on it.
    """
    if not 1 <= len(param_specs) <= 2:
        raise ConfigError("sweep needs one or two --param specs", "/sweep/param")
    parsed = [_parse_param(s) for s in param_specs]
    names = [name for name, _ in parsed]
    if len(set(names)) != len(names):
        raise ConfigError("sweep parameters must be distinct", "/sweep/param")
    if quantity is None:
        quantity = "mu" if "lambda" in names else "criteria"
    if quantity not in _SWEEP_QUANTITIES:
        raise ConfigError(f"unknown quantity {quantity!r}", "/sweep/quantity")
    reads, value_cols = _SWEEP_QUANTITIES[quantity]
    for name in names:
        if name not in reads:
            raise ConfigError(
                f"quantity {quantity!r} does not read {name!r}; it reads {', '.join(reads)}",
                "/sweep/param",
            )
    if "lambda" in reads and "lambda" not in names:
        raise ConfigError(f"quantity {quantity!r} requires a lambda sweep", "/sweep/param")
    if "gamma" in names and config.vorticity.kind != "constant":
        raise ConfigError("gamma sweeps require constant vorticity", "/vorticity/kind")
    header = names + value_cols + ["error"]
    os.makedirs(out_dir, exist_ok=True)

    rows = []
    n_ok = 0
    branches = {}
    for combo in itertools.product(*(vals for _, vals in parsed)):
        overrides = dict(zip(names, combo))
        lam = overrides.pop("lambda", None)
        try:
            row_cfg = _sweep_row_config(config, overrides)
            values = _sweep_values(row_cfg, quantity, lam, branches)
            rows.append(list(combo) + values + [None])
            n_ok += 1
        except (Error, ValueError) as exc:
            rows.append(list(combo) + [None] * len(value_cols) + [str(exc)])
    write_csv(os.path.join(out_dir, "sweep.csv"), header, rows)
    if rows and n_ok == 0:
        return 4
    return 0


def _sweep_values(row_cfg: RunConfig, quantity: str, lam, branches: dict) -> list:
    """The row's value columns; ``branches`` holds the Branch of each row
    config a mu or onset row has been solved on."""
    flow = row_cfg.flow
    if quantity == "criteria":
        profile = GammaProfile.from_distribution(row_cfg.vorticity, flow)
        rep = build_criteria_report(row_cfg, profile)
        values = [rep["theta"], rep["p1"]]
        for entry in map(rep.get, _CRITERIA.values()):
            if entry is None:  # not applicable: empty cells
                values += [None, None]
            else:
                values += ["undefined" if entry["holds"] is None else entry["holds"], entry["margin"]]
        return values
    if quantity == "lambda_star":
        result = _analysis(row_cfg)
        if isinstance(result, NoBifurcation):
            return [None, result.lambda0, None]
        return [result.lambda_star, result.lambda0, result.mu_residual]
    branch = branches.get(row_cfg)
    if branch is None:
        if quantity == "mu":
            branch = Branch(row_cfg.vorticity, flow.d, flow.g, row_cfg.numerics.mesh_points, flow.p0)
        else:  # onset: p0 is calibrated at each lambda
            branch = Branch(row_cfg.vorticity, flow.d, flow.g, min(row_cfg.numerics.mesh_points, 1201))
        branches[row_cfg] = branch
    lam_flow, mode = branch(float(lam))
    return [mode.mu_refined] if quantity == "mu" else [lam_flow.p0, mode.mu_refined]


def run_criteria(config: RunConfig) -> int:
    """Print the criteria report as JSON on stdout, flushed, so that a
    stdout that cannot be written raises here."""
    profile = GammaProfile.from_distribution(config.vorticity, config.flow)
    report = build_criteria_report(config, profile)
    sys.stdout.write(json.dumps(_jsonable(report), indent=2, sort_keys=True) + "\n")
    sys.stdout.flush()
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
        "--quantity", choices=list(_SWEEP_QUANTITIES), default=None
    )
    p_sw.add_argument("--out", required=True)

    p_cr = sub.add_parser("criteria", help="print the criteria report as JSON")
    p_cr.add_argument("--config", required=True)

    args = parser.parse_args(argv)
    target = "stdout" if args.command == "criteria" else args.out
    try:
        config = _load_config(args.config)
        try:
            if args.command == "criteria":
                return run_criteria(config)
            if args.command == "analyze":
                return run_analyze(config, args.out)
            if args.command == "reconstruct":
                return run_reconstruct(config, args.amplitude, args.out)
            return run_sweep(config, args.param, args.quantity, args.out)
        except OSError as exc:
            sys.stderr.write(f"output error: {target}: {exc}\n")
            return 3
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
