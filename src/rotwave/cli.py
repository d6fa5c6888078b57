"""Config parsing, pipeline orchestration, and deterministic file emission.

Identical config bytes produce byte-identical outputs: floats are written
in shortest round-trip form, line endings are '\\n', files are staged to a
temporary path and atomically renamed, and reports carry no timestamps.

Exit codes: 0 success, 2 no bifurcation, 3 config error, an output
directory that cannot be created or written or, for criteria, a stdout
that cannot be written, 4 numerical failure.  Among the config
errors of sweep, raised before the output directory is made: a swept
parameter that the quantity does not read (lambda for criteria or
lambda_star, depth_frak for mu, lambda_star or onset, p0 for onset; see
run_sweep), and a gamma sweep on a profile that is not of constant
vorticity.  A forked sweep worker that fails or is killed changes no exit
code: its rows are solved again in the calling process (see run_sweep).
Forked sweep workers hand their text back in unlinked temporary files that
carry their own block lengths (_BlockFile).  field.csv is formatted in the
calling process alone (see _FieldRows).
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

    def __post_init__(self):
        if not (self.mesh_points >= 201 and self.mesh_points % 2 == 1):
            raise InvalidParameter("mesh_points must be an odd integer >= 201", "mesh_points")
        if not self.root_tol > 0.0:
            raise InvalidParameter("root_tol must be > 0", "root_tol")


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
    "numerics": (NumericsOptions, {"mesh_points": int, "root_tol": float}),
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
        piecewise_constant  breakpoints: increasing by at least 1e-9,
                            inside (-1, 0);
                            values: one more than the breakpoints
        tabulated           nodes: at least two, strictly increasing from -1
                            to 0; values: one per node
    numerics
        mesh_points 2001; odd, >= 201; the nodes in p of the working mesh,
                    which the eigen solve refines once, and the p-node
                    count of field.csv; sweep --quantity onset caps it at
                    1201
        root_tol    1e-10; > 0
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
        # side file of _FieldRows is closed before write_csv returns or raises.
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
    return find_lambda_star(branch, root_tol=config.numerics.root_tol)


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

    The rows are on the working mesh, the mesh_points nodes of build_mesh:
    refine_mesh keeps them bit for bit at the even p indices of the
    refined mesh that the field lives on.  So columns 0, 2, 4, ... of the
    field are written, each cell the field's own at its (q, p).  Only what
    is written is kept, on the working mesh: h and the y, u_rel and v of
    one call of physical_fields, not the field itself, so the caller's
    reference is the field's last.

    Cells are the shortest round-trip text of _fmt, formatted by column.  q
    is constant within a block, so its text is formatted once per block and
    written in both the q and the x cell (x = q); p and psi = p0 p are the
    same row in every block, so each is formatted once per file.

    Rows k and n_q - k mirror each other (q_{n_q - k} = -q_k), and
    build_wave makes y, h and u - c even in q and v odd, bit for bit.  So
    only rows 0 .. n_q // 2 are formatted, and row n_q - k is written from
    row k's y, h and u_rel text and its v text with the sign flipped.  The
    constructor refuses with ValueError a field whose mirrored rows differ
    in any bit of a written column, or whose written v holds a NaN, whose
    text has no sign to flip.

    The mirrored blocks are made in the order n_q - 1, n_q - 2, ..., so they
    go to an unlinked temporary file in directory (_BlockFile) and are read
    back in reverse, one block at a time: memory stays at about one block.
    The file is closed when the iteration ends or is stopped early.

    len() is the row count: perfbench's tracer counts the rows given to
    write_csv with len(), and a block of text does not say how many rows it
    holds.
    """

    def __init__(self, fld, flow, directory):
        columns = {name: getattr(fld, name)[:, ::2] for name in ("h", "h_q", "h_p")}
        working = replace(fld, p_nodes=fld.p_nodes[::2], **columns)
        self.q_nodes, self.p_nodes = working.q_nodes, working.p_nodes
        self.p0 = flow.p0
        self.directory = directory
        self.columns = y, u_rel, v = physical_fields(working, flow)
        # A copy: a view of the field's h would keep all of it alive.
        self.h = h = working.h.copy()
        # Rows k = 1, 2, ... against their mirrors n_q - k, for every 0 < k < n_q - k.
        k, m = slice(1, (len(y) + 1) // 2), slice(None, len(y) // 2, -1)
        pairs = [(c[k], c[m]) for c in (y, h, u_rel)] + [(v[k], -v[m])]
        if np.isnan(v).any() or not all(np.array_equal(a.view(np.int64), b.view(np.int64)) for a, b in pairs):
            raise ValueError("field.csv needs y, h and u_rel even in q bit for bit, and v odd without NaN")

    def __len__(self):
        return self.h.size

    def __iter__(self):
        h = self.h
        y, u_rel, v = self.columns
        p = list(map(repr, self.p_nodes.tolist()))
        # psi is the last cell, so its text carries the line end.
        psi = [f"{t}\n" for t in map(repr, (self.p0 * self.p_nodes).tolist())]
        q = list(map(repr, self.q_nodes.tolist()))
        n_q = len(q)

        def block(i, same, v_text):
            cells = zip(itertools.repeat(q[i]), p, itertools.repeat(q[i]), same, v_text, psi)
            return "".join(map(",".join, cells))

        side = _BlockFile(self.directory)
        with side.file:
            for k in range(n_q // 2 + 1):
                # Held while row n_q - k is made from it.  The y, h and u_rel
                # cells, which the two rows share, are one string a line: half
                # as many objects held at once.
                same = list(map(",".join, zip(*(map(repr, c[k].tolist()) for c in (y, h, u_rel)))))
                v_text = list(map(repr, v[k].tolist()))
                yield block(k, same, v_text)
                if 0 < k < n_q - k:
                    side.append(block(n_q - k, same, (t[1:] if t[0] == "-" else "-" + t for t in v_text)))
            # From row n_q - 1 down.
            yield from side.blocks(reverse=True)


def _usable_cpus() -> int:
    """The CPUs this process may run on; sweep rows use each."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # not on Linux
        return os.cpu_count() or 1


def _n_workers(n_jobs, n_cpus) -> int:
    """One per CPU and at most one a job; one where os.fork does not exist."""
    return max(1, min(n_cpus, n_jobs)) if hasattr(os, "fork") else 1


class _Children:
    """Forked children, each with the text that names it in an error, and
    the temporary files they write.

    On leaving the with block, every child not yet joined is killed and
    reaped and every file is closed, whether the work that forked them
    returns, raises or, as a generator, is closed early.
    """

    def __init__(self):
        self.names = {}  # pid -> name, until joined
        self.files = []

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        if self.names:
            import signal  # only to stop the children of an early stop

            for pid in self.names:
                try:
                    os.kill(pid, signal.SIGKILL)
                    os.waitpid(pid, 0)
                except OSError:  # reaped already, by a wait on any child
                    pass
        for f in self.files:
            f.file.close()

    def block_file(self, directory):
        """A new _BlockFile in directory.  Make each one before the first
        fork, while none has a buffer holding data: every child flushes
        them all as it leaves."""
        self.files.append(_BlockFile(directory))
        return self.files[-1]

    def fork(self, name, work, *args) -> int:
        """Fork a child that calls work(*args) and exits; returns its pid.

        The child never returns into the caller and never flushes the stdio
        buffers it inherits: it leaves by os._exit, with status 0 once work
        has returned and the block files are flushed, so that the parent
        reads what work appended to them, and 1 on any error.
        """
        pid = os.fork()
        if pid:
            self.names[pid] = name
            return pid
        status = 1
        try:
            work(*args)
            for f in self.files:
                f.file.flush()
            status = 0
        finally:
            os._exit(status)

    def join(self, pid):
        """Reap child pid; OSError naming it unless it exited with status 0."""
        code = os.waitstatus_to_exitcode(os.waitpid(pid, 0)[1])
        name = self.names.pop(pid)
        if code:
            how = f"exited with status {code}" if code > 0 else f"was killed by signal {-code}"
            raise OSError(f"{name} {how}")


class _BlockFile:
    """Blocks of text in an unlinked temporary file, read back one at a time.

    Each block is stored as its UTF-8 bytes followed by their count in 8
    bytes, so the file describes itself: blocks() walks the counts back
    from its end.  A file that a forked child has written and flushed is
    read as one written here, with no second step.
    """

    def __init__(self, directory):
        self.file = tempfile.TemporaryFile(dir=directory)

    def append(self, block: str):
        """Add block at the end, also after a read."""
        data = block.encode()
        self.file.seek(0, os.SEEK_END)
        self.file.writelines([data, len(data).to_bytes(8, "little")])

    def blocks(self, reverse=False):
        """The blocks, first to last or, with reverse, last to first."""
        # Where each block's record ends, from the last one back to 0.
        ends = [self.file.seek(0, os.SEEK_END)]
        while ends[-1]:
            self.file.seek(ends[-1] - 8)
            ends.append(ends[-1] - 8 - int.from_bytes(self.file.read(8), "little"))
        spans = [(start, end - 8) for end, start in itertools.pairwise(ends)]
        for start, end in spans if reverse else reversed(spans):
            self.file.seek(start)
            yield self.file.read(end - start).decode()


def run_reconstruct(config: RunConfig, amplitudes: Sequence[float], out_dir: str) -> int:
    """Build first-order fields and emit field.csv, surface.csv, residuals.json.

    field.csv and surface.csv describe the first requested amplitude;
    residuals.json lists the weak-form defect norms for every amplitude, in
    the order given, and a log-log slope fit when several positive
    amplitudes are given.  Without a bifurcation it writes no file, only
    inf_mu and lambda_at_inf to stderr.

    Memory is one field plus one integrand array: one WaveField is alive at a
    time, the written one built last, and weak_residual adds one array of
    cell integrands.  surface.csv's rows are made and _FieldRows keeps the
    working-mesh columns it writes before the field is let go, so the files
    are written from what they hold alone.
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

    # Only the first field is written, so it is built last; each field is
    # let go before the next one is built.
    entries = [None] * len(amplitudes)
    for i in [*range(1, len(amplitudes)), 0]:
        fld = None
        fld = build_wave(result, amplitudes[i], n_q)
        interior, boundary = weak_residual(fld, result.branch.profile, flow, result.Q_star)
        entries[i] = {"s": amplitudes[i], "interior_norm": interior, "boundary_norm": boundary}

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

    eta, _mean = surface_profile(fld, flow)
    surface = list(zip(fld.q_nodes, eta))
    field_rows = _FieldRows(fld, flow, out_dir)
    del fld
    write_csv(os.path.join(out_dir, "field.csv"), ["q", "p", "x", "y", "h", "u_rel", "v", "psi"], field_rows)
    write_csv(os.path.join(out_dir, "surface.csv"), ["x", "eta"], surface)
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
# mu, lambda_star and onset rows are spread over the usable CPUs (run_sweep).
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
    share a branch, and each is seeded from the two nearest lambdas solved
    on it.

    Rows that solve eigenproblems are spread over the usable CPUs in groups:
    each lambda_star row, an independent search, is a group, and mu and
    onset rows are grouped by branch, whose rows one process solves in grid
    order with the seeds of a serial run.  The groups are dealt round-robin
    to one worker per CPU, at most one a group (_n_workers): this process
    is the first, and each other one a forked child that writes its rows,
    as finished _fmt lines with their ok flags, to an unlinked temporary
    file in out_dir.  The lines are merged by row index, so sweep.csv is
    byte-identical on any CPU count.  The rows of a worker that fails or is
    killed are solved again here: it never changes what the sweep writes or
    raises.  criteria rows, closed forms cheaper than a fork, never fork.
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

    rows = []  # (swept values, lambda, row config, error), in grid order
    groups = {}  # group key -> indices of its rows
    for combo in itertools.product(*(vals for _, vals in parsed)):
        overrides = dict(zip(names, combo))
        lam = overrides.pop("lambda", None)
        try:
            row_cfg, error = _sweep_row_config(config, overrides), None
        except (Error, ValueError) as exc:
            row_cfg, error = None, str(exc)
        # A lambda_star row is a group of its own; other rows group by branch.
        key = len(rows) if quantity == "lambda_star" or row_cfg is None else row_cfg
        groups.setdefault(key, []).append(len(rows))
        rows.append((combo, lam, row_cfg, error))

    def solve(indices):
        """(ok, line) of each row of indices, in order."""
        branches = {}
        for i in indices:
            combo, lam, row_cfg, error = rows[i]
            values = [None] * len(value_cols)
            if error is None:
                try:
                    values = _sweep_values(row_cfg, quantity, lam, branches)
                except (Error, ValueError) as exc:
                    error = str(exc)
            yield error is None, ",".join(map(_fmt, [*combo, *values, error])) + "\n"

    def fill(indices, out):
        """A child's work: its rows' lines, each after its ok flag."""
        for ok, line in solve(indices):
            out.append(f"{ok:d}{line}")

    groups = list(groups.values())
    n = 1 if quantity == "criteria" else _n_workers(len(groups), _usable_cpus())
    mine, *theirs = [[i for group in groups[w::n] for i in group] for w in range(n)]
    results = [None] * len(rows)
    with _Children() as children:
        files = [children.block_file(out_dir) for _ in theirs]
        pids = [children.fork("a sweep worker", fill, *job) for job in zip(theirs, files)]
        for i, result in zip(mine, solve(mine)):
            results[i] = result
        for pid, indices, out in zip(pids, theirs, files):
            try:
                children.join(pid)
                done = [(block[0] == "1", block[1:]) for block in out.blocks()]
            except OSError:  # a failed worker: its rows are solved here
                done = solve(indices)
            for i, result in zip(indices, done):
                results[i] = result
    write_csv(os.path.join(out_dir, "sweep.csv"), header, [line for _, line in results])
    return 4 if rows and not any(ok for ok, _ in results) else 0


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
