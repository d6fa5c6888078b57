"""The traced benchmark (perfbench/run.py --trace 1) still runs on the package.

perfbench's tracer wraps rotwave's functions from outside the package and
reads some of their parameters by name, so a change in src can break it while
every other test passes.  This runs every seed-0 command of the benchmark's
workloads through the CLI with the tracer installed, in two rounds as the
benchmark does: run.py flags a command whose files differ from its checked
run and a count that differs between rounds.  The tracer counts only this
process's calls, not those of forked sweep workers, so a count or a file
that moves between rounds is work that depends on earlier commands or on
timing.
"""

import importlib.util
import inspect
import json
import os
import sys

import scipy.linalg

import rotwave
from rotwave.cli import main

PERFBENCH = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "perfbench")


def _load(monkeypatch, name, as_name=None):
    """perfbench/<name>.py as the module ``as_name`` (default ``name``),
    registered while the test runs: its dataclasses look their module up in
    sys.modules, and run.py imports its siblings by name."""
    spec = importlib.util.spec_from_file_location(as_name or name, os.path.join(PERFBENCH, f"{name}.py"))
    module = importlib.util.module_from_spec(spec)
    monkeypatch.setitem(sys.modules, spec.name, module)
    spec.loader.exec_module(module)
    return module


def _load_run(monkeypatch):
    """perfbench/run.py with the siblings it imports; the BLAS thread counts
    it sets are restored after the test."""
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        monkeypatch.setenv(var, "1")
    for name in ("oracles", "checks", "workloads", "tracer"):
        _load(monkeypatch, name)
    return _load(monkeypatch, "run", "perfbench_run")


def _bindings():
    """Every function object bound in a rotwave module, by (module, name),
    with the two GammaProfile attributes and scipy's banded solver that the
    tracer also replaces."""
    out = {
        (mod_name, attr): val
        for mod_name, mod in sys.modules.items()
        if mod_name == "rotwave" or mod_name.startswith("rotwave.")
        for attr, val in vars(mod).items()
        if inspect.isfunction(val)
    }
    for attr in ("from_distribution", "primitive"):
        out[("GammaProfile", attr)] = vars(rotwave.GammaProfile)[attr]
    out[("scipy.linalg", "solve_banded")] = scipy.linalg.solve_banded
    return out


def test_tracer_runs_every_seed_0_workload_command(tmp_path, monkeypatch):
    run = _load_run(monkeypatch)
    before = _bindings()
    tracer = run.Tracer()
    tracer.install(rotwave)
    try:
        for workload in run.workloads.WORKLOADS:
            configs, commands = run.workloads.build(workload, 0)
            rounds = []
            for k in range(2):
                seen = {}
                for command in commands:
                    path = tmp_path / f"{workload}_{command.config}.json"
                    path.write_text(json.dumps(configs[command.config]))
                    out = tmp_path / f"{workload}_{command.name}_{k}"
                    argv = [command.argv[0], "--config", str(path), *command.argv[1:], "--out", str(out)]
                    tracer.reset()
                    assert main(argv) == 0, (workload, command.name)
                    summary = tracer.summary()
                    assert summary["calls"]["spectral.principal_eigen"] > 0, (workload, command.name)
                    assert summary["counts"]["write_csv_rows"] > 0, (workload, command.name)
                    metrics = run._layer_metrics(summary)
                    seen[command.name] = {m: metrics[m] for m in run.COUNT_METRICS}, run._digest(str(out))
                rounds.append(seen)
            assert rounds[0] == rounds[1], workload
    finally:
        tracer.uninstall()
    after = _bindings()
    assert after.keys() == before.keys()
    assert [key for key in before if after[key] is not before[key]] == []
