"""Benchmark of the rotwave CLI, end to end and layer by layer.

    python3 perfbench/run.py --workload analyze --seed 0 --seconds 28 --trace 0

Run from the root of a rotwave source tree; the benchmark imports the
package from ./src and nowhere else.  One process runs one workload: it
writes the seeded configs, runs a warm-up round whose outputs are checked
against the oracles, runs whole rounds of CLI commands in-process for most
of --seconds, and spends the rest on set-up launches in fresh interpreters.
Every later command's files must be byte-identical to the warm-up's.  The
end-to-end times are scaled by a host-speed probe run between the timed
steps (see host_probe and README.md).  The last line of standard output is
a JSON object with the metrics: end-to-end ones with --trace 0, per-layer
ones with --trace 1.
"""

import os

# One BLAS thread.  On a 2-vCPU VM with OpenBLAS's default two threads, the
# lambda* search of a gamma = 0 sweep row took 1.67 s of CPU in 0.88 s of wall
# time, against 0.83 s of both with one thread: the threads compete with each
# other and with the host and gain nothing.  Must be set before numpy loads.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse
import hashlib
import json
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
from collections import Counter
from time import perf_counter, process_time

import numpy as np

import checks
import workloads
from tracer import LAYERS, Tracer

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
RUN_DIR = os.path.join(ROOT, ".perfbench_run")
MB = 1e6
# Share of a run spent on rounds of commands; set-up launches fill the rest.
SETUP_FROM = 0.8
MIN_SETUP_SAMPLES = 5
# host_probe's median time on the VM described in README.md.  wall_s and
# setup_s are scaled to a host on which the probe takes this long.
PROBE_REF_S = 0.06

# Per-layer metrics that are pure counts: they must repeat exactly.
COUNT_METRICS = (
    "numerics.dense_fallbacks",
    "numerics.rqi.calls",
    "numerics.banded_solves",
    "numerics.inertia_sweeps",
    "spectral.principal_eigen.calls",
    "spectral.principal_eigen.repeats",
    "bifurcation.find_lambda_star.mu_evals",
    "numerics.adaptive_quad.calls",
    "numerics.bracketed_root.f_evals",
    "vorticity.from_distribution.calls",
    "vorticity.holder_seminorm.calls",
    "vorticity.primitive.points",
    "cli.write_csv.rows",
    "cli.write_csv.mb",
)

# Per-layer times: metric name -> traced function whose inclusive time it is.
TIME_METRICS = {
    "numerics.dense.s": "numerics.smallest_generalized_eigenpair",
    "numerics.rqi.s": "numerics.smallest_eigenpair_tridiagonal",
    "numerics.inertia.s": "numerics.count_pencil_eigenvalues_below",
    "spectral.principal_eigen.s": "spectral.principal_eigen",
    "bifurcation.find_lambda_star.s": "bifurcation.find_lambda_star",
    "bifurcation.transversality_integral.s": "bifurcation.transversality_integral",
    "bifurcation.onset_curve.s": "bifurcation.onset_curve",
    "laminar.calibrate_mass_flux.s": "laminar.calibrate_mass_flux",
    "laminar.lambda_of_min_head.s": "laminar.lambda_of_min_head",
    "laminar.hydraulic_head.s": "laminar.hydraulic_head",
    "laminar.height_on_mesh.s": "laminar.height_on_mesh",
    "numerics.adaptive_quad.s": "numerics.adaptive_quad",
    "vorticity.from_distribution.s": "vorticity.from_distribution",
    "vorticity.primitive.s": "vorticity.primitive",
    "cli.write_csv.s": "cli.write_csv",
    "cli.write_json.s": "cli.write_json",
    "reconstruct.build_wave.s": "reconstruct.build_wave",
    "reconstruct.physical_map.s": "reconstruct.physical_map",
    "reconstruct.velocity_field.s": "reconstruct.velocity_field",
    "reconstruct.weak_residual.s": "reconstruct.weak_residual",
}


def _load_rotwave():
    """Import rotwave from ./src of this tree, or exit without a result."""
    if not os.path.isfile(os.path.join(SRC, "rotwave", "cli.py")):
        sys.stderr.write(f"perfbench: no rotwave sources under {SRC}\n")
        sys.exit(2)
    sys.path.insert(0, SRC)
    import rotwave
    import rotwave.cli

    if os.path.dirname(os.path.dirname(os.path.abspath(rotwave.__file__))) != SRC:
        sys.stderr.write(f"perfbench: imported rotwave from {rotwave.__file__}, not {SRC}\n")
        sys.exit(2)
    return rotwave


def _digest(directory: str) -> dict:
    out = {}
    for name in sorted(os.listdir(directory)):
        with open(os.path.join(directory, name), "rb") as fh:
            out[name] = hashlib.sha256(fh.read()).hexdigest()
    return out


def _csv_bytes(directory: str) -> int:
    return sum(
        os.path.getsize(os.path.join(directory, n)) for n in os.listdir(directory) if n.endswith(".csv")
    )


def host_probe() -> float:
    """Seconds a fixed piece of work takes on this host right now.

    The work imports nothing from rotwave and mixes what the workloads do:
    formatting floats into CSV text, small numpy array operations, and a
    scalar Python recurrence like the inertia sweeps.  The host's speed
    drifts by up to 30% over minutes, and the probe and the commands slow
    down together (correlation 0.72 to 0.74 over 150 s records).
    """
    t0 = perf_counter()
    xs = [i * 1.000001 + 0.1 for i in range(40000)]
    text = "\n".join(",".join(repr(x) for x in xs[i : i + 8]) for i in range(0, len(xs), 8))
    a = np.linspace(1.0, 2.0, 4000)
    for _ in range(400):
        a = np.sqrt(a * a + 1.0) - 0.5
    prev, negative = 1.0, 0
    for x in xs:
        prev = (x - 0.25 / prev) or 1e-300
        negative += prev < 0.0
    elapsed = perf_counter() - t0
    if not (text and np.isfinite(a).all() and negative < len(xs)):
        raise RuntimeError("host probe computed nonsense")
    return elapsed


def probe_setup(config_paths) -> tuple:
    """(wall, import, parse) seconds of one fresh interpreter that imports
    rotwave.cli and parses the configs."""
    cmd = [sys.executable, os.path.join(HERE, "setup_probe.py"), SRC, *config_paths]
    t0 = perf_counter()
    proc = subprocess.run(cmd, capture_output=True, text=True, check=True, cwd=ROOT)
    wall = perf_counter() - t0
    probe = json.loads(proc.stdout.strip().splitlines()[-1])
    if not os.path.abspath(probe["module"]).startswith(SRC + os.sep):
        raise RuntimeError(f"set-up probe imported {probe['module']}")
    return wall, probe["import_s"], probe["parse_s"]


class Bench:
    """Runs a workload's rounds in this process and checks every output."""

    def __init__(self, rotwave, workload, configs, commands, config_paths, work_dir):
        self.rotwave = rotwave
        self.workload = workload
        self.configs = configs
        self.commands = commands
        self.config_paths = config_paths
        self.work_dir = work_dir
        self.reference = {}
        self.csv_bytes = {}
        self.attempted = 0
        self.failed = 0
        self.problems = []

    def run_command(self, cmd, verify: bool) -> tuple:
        """(wall seconds, CPU seconds) of one command; checks its files."""
        out = tempfile.mkdtemp(dir=self.work_dir, prefix="out-")
        argv = [cmd.argv[0], "--config", self.config_paths[cmd.config], *cmd.argv[1:], "--out", out]
        self.attempted += 1
        c0 = process_time()
        t0 = perf_counter()
        try:
            rc = self.rotwave.cli.main(argv)
        except Exception as exc:  # a crash is a failed command, not a lost run
            rc = f"{type(exc).__name__}: {exc}"
        wall = perf_counter() - t0
        cpu = process_time() - c0
        try:
            if rc != 0:
                self.failed += 1
                sys.stderr.write(f"perfbench: {cmd.name} failed: exit {rc}\n")
            elif verify:
                try:
                    checks.check(self.workload, self.configs[cmd.config], cmd.argv, out)
                except checks.CheckFailure as exc:
                    self.problems.append(f"{cmd.name}: {exc}")
                self.reference[cmd.name] = _digest(out)
                self.csv_bytes[cmd.name] = _csv_bytes(out)
            elif _digest(out) != self.reference.get(cmd.name):
                self.problems.append(f"{cmd.name}: output differs from the checked run")
        finally:
            shutil.rmtree(out)
        return wall, cpu

    def run_round(self, verify=False) -> tuple:
        """(mean wall seconds, mean CPU seconds) per command of one round."""
        walls, cpus = zip(*(self.run_command(c, verify) for c in self.commands))
        return sum(walls) / len(walls), sum(cpus) / len(cpus)

    def run_traced_round(self, tracer: Tracer) -> tuple:
        """(mean wall seconds per command, per-command layer metrics)."""
        totals = Counter()
        walls = []
        tracer.install(self.rotwave)
        try:
            for cmd in self.commands:
                tracer.reset()
                walls.append(self.run_command(cmd, verify=False)[0])
                totals.update(_layer_metrics(tracer.summary()))
        finally:
            tracer.uninstall()
        n = len(self.commands)
        return sum(walls) / n, {k: v / n for k, v in totals.items()}


def _layer_metrics(s: dict) -> dict:
    calls, total, counts = s["calls"], s["total_s"], s["counts"]
    out = {
        "numerics.dense_fallbacks": calls["numerics.smallest_generalized_eigenpair"],
        "numerics.rqi.calls": calls["numerics.smallest_eigenpair_tridiagonal"],
        "numerics.banded_solves": calls["numerics.solve_banded"],
        "numerics.inertia_sweeps": calls["numerics.count_pencil_eigenvalues_below"],
        "spectral.principal_eigen.calls": calls["spectral.principal_eigen"],
        "spectral.principal_eigen.repeats": counts["principal_eigen_repeats"],
        "bifurcation.find_lambda_star.mu_evals": counts["mu_evals_in_find_lambda_star"],
        "numerics.adaptive_quad.calls": calls["numerics.adaptive_quad"],
        "numerics.bracketed_root.f_evals": counts["bracketed_root_f_evals"],
        "vorticity.from_distribution.calls": calls["vorticity.from_distribution"],
        "vorticity.holder_seminorm.calls": calls["vorticity.holder_seminorm"],
        "vorticity.primitive.points": counts["primitive_points"],
        "cli.write_csv.rows": counts["write_csv_rows"],
        "cli.write_csv.mb": counts["write_csv_bytes"] / MB,
    }
    for metric, fn in TIME_METRICS.items():
        out[metric] = total.get(fn, 0.0)
    for layer in LAYERS:
        out[f"{layer}.self_s"] = s["layer_self_s"][layer]
    return out


def measure(bench: Bench, seconds: float, tracer=None) -> dict:
    """Whole rounds for most of ``seconds``, then set-up launches for the rest.

    With ``tracer``, a traced round follows each untraced one.  Set-up
    launches come last because a command that runs right after a launch is
    about 4% slower than one that runs after another command.  host_probe
    runs between any two timed steps; each step is paired with the mean of
    the probes on either side of it.
    """
    keys = ("wall", "wall_probe", "cpu", "traced", "layers", "setup", "setup_probe", "import", "parse")
    samples = {k: [] for k in keys}
    probe = host_probe()
    start = perf_counter()
    while not samples["wall"] or perf_counter() - start < SETUP_FROM * seconds:
        wall, cpu = bench.run_round()
        after = host_probe()
        samples["wall"].append(wall)
        samples["wall_probe"].append(0.5 * (probe + after))
        samples["cpu"].append(cpu)
        probe = after
        if tracer is not None:
            wall, layers = bench.run_traced_round(tracer)
            samples["traced"].append(wall)
            samples["layers"].append(layers)
            probe = host_probe()
    while len(samples["setup"]) < MIN_SETUP_SAMPLES or perf_counter() - start < seconds:
        wall, import_s, parse_s = probe_setup(list(bench.config_paths.values()))
        after = host_probe()
        samples["setup"].append(wall)
        samples["setup_probe"].append(0.5 * (probe + after))
        samples["import"].append(import_s)
        samples["parse"].append(parse_s)
        probe = after
    return samples


def _scaled(times, probes) -> float:
    """Median of times scaled to a host where host_probe takes PROBE_REF_S."""
    return statistics.median(t / p for t, p in zip(times, probes)) * PROBE_REF_S


def end_to_end_metrics(bench: Bench, samples: dict) -> dict:
    return {
        "wall_s": (_scaled(samples["wall"], samples["wall_probe"]), "s"),
        "setup_s": (_scaled(samples["setup"], samples["setup_probe"]), "s"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss * 1024 / MB, "MB"),
        "output_mb": (sum(bench.csv_bytes.values()) / len(bench.commands) / MB, "MB"),
    }


def layer_metrics(bench: Bench, samples: dict) -> dict:
    rounds = samples["layers"]
    metrics = {}
    for name in rounds[0]:
        values = [r[name] for r in rounds]
        if name in COUNT_METRICS:
            if len(set(values)) != 1:
                bench.problems.append(f"count {name} differs between rounds: {values}")
            metrics[name] = (values[0], "MB" if name.endswith(".mb") else "count")
        else:
            metrics[name] = (statistics.median(values), "s")
    # Each traced round runs right after an untraced one; the ratio within a
    # pair cancels most of the host's drift, which moves both alike.
    pairs = [t / w for t, w in zip(samples["traced"], samples["wall"])]
    overhead = 100.0 * (statistics.median(pairs) - 1.0)
    metrics["trace.overhead_pct"] = (overhead, "%")
    metrics["process.cpu_s"] = (statistics.median(samples["cpu"]), "s")
    metrics["process.wall_s"] = (statistics.median(samples["wall"]), "s")
    metrics["host.probe_s"] = (statistics.median(samples["wall_probe"]), "s")
    metrics["setup.import_s"] = (statistics.median(samples["import"]), "s")
    metrics["cli.parse_config.s"] = (statistics.median(samples["parse"]), "s")
    return metrics


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=28.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    rotwave = _load_rotwave()
    configs, commands = workloads.build(args.workload, args.seed)
    os.makedirs(RUN_DIR, exist_ok=True)
    work_dir = tempfile.mkdtemp(dir=RUN_DIR, prefix=f"{args.workload}-{args.seed}-")
    try:
        config_paths = {}
        for name, cfg in configs.items():
            config_paths[name] = os.path.join(work_dir, f"{name}.json")
            with open(config_paths[name], "w") as fh:
                json.dump(cfg, fh, indent=2)
        bench = Bench(rotwave, args.workload, configs, commands, config_paths, work_dir)
        bench.run_round(verify=True)  # warm-up: checked against the oracles, not timed
        samples = measure(bench, args.seconds, Tracer() if args.trace else None)
    finally:
        shutil.rmtree(work_dir, ignore_errors=True)
        try:
            os.rmdir(RUN_DIR)
        except OSError:
            pass  # another run still uses it

    for problem in bench.problems:
        sys.stderr.write(f"perfbench: {problem}\n")
    metrics = layer_metrics(bench, samples) if args.trace else end_to_end_metrics(bench, samples)
    print(
        f"# {args.workload} seed {args.seed}: medians of {len(samples['wall'])} rounds of "
        f"{len(commands)} command(s) and of {len(samples['setup'])} set-up launches; unscaled "
        f"wall {statistics.median(samples['wall']):.4f} s, set-up {statistics.median(samples['setup']):.4f} s, "
        f"host probe {statistics.median(samples['wall_probe'] + samples['setup_probe']):.4f} s"
        + (f"; tracing overhead {metrics['trace.overhead_pct'][0]:.1f}%" if args.trace else "")
    )
    result = {
        "correct": not bench.problems,
        "attempted": bench.attempted,
        "failed": bench.failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in sorted(metrics.items())},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
