"""Spans and counts around rotwave's layers, recorded from outside the package.

``Tracer.install`` replaces every public function of the seven layer modules
by a wrapper, at every module that binds the function: ``from .spectral
import principal_eigen`` leaves copies in ``bifurcation`` and ``cli``, and a
wrapper placed only in ``spectral`` would miss their calls.  It also wraps
``GammaProfile.from_distribution`` and ``GammaProfile.primitive`` and, for
the banded solves of the Rayleigh-quotient iteration,
``scipy.linalg.solve_banded``.  ``uninstall`` puts every original back.

A span is (id, parent id, name, start, end); spans stay in memory until the
caller folds them into totals with ``summary``.  A span's self time is its
duration minus the durations of its direct children, and a layer's self
time is the sum over its spans, so the seven layers' self times add up to
the time of the outermost span.
"""

from __future__ import annotations

import functools
import inspect
import os
import sys
from collections import Counter, defaultdict
from time import perf_counter

import scipy.linalg

LAYERS = ("cli", "reconstruct", "bifurcation", "spectral", "numerics", "laminar", "vorticity")


class Tracer:
    def __init__(self):
        self.spans = []
        self.counts = Counter()
        self._stack = [0]
        self._next_id = 1
        self._solved = set()
        self._patches = []

    # -- recording ------------------------------------------------------------

    def reset(self):
        """Drop recorded spans and counts; call between commands."""
        self.spans = []
        self.counts = Counter()
        self._solved = set()

    def _wrap(self, name, fn, before=None, after=None):
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if before is not None:
                args, kwargs = before(tracer, args, kwargs)
            sid = tracer._next_id
            tracer._next_id += 1
            parent = tracer._stack[-1]
            tracer._stack.append(sid)
            t0 = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = perf_counter()
                tracer._stack.pop()
                tracer.spans.append((sid, parent, name, t0, t1))
            if after is not None:
                after(tracer, args, kwargs)
            return result

        return traced

    # -- installing -----------------------------------------------------------

    def install(self, package):
        """Wrap the layer functions of an imported rotwave package."""
        spectral = sys.modules[f"{package.__name__}.spectral"]
        self._principal_eigen_sig = inspect.signature(spectral.principal_eigen)
        modules = [m for n, m in sys.modules.items() if n == package.__name__ or n.startswith(package.__name__ + ".")]
        for layer in LAYERS:
            mod = sys.modules[f"{package.__name__}.{layer}"]
            for attr, fn in list(vars(mod).items()):
                if attr.startswith("_") or not inspect.isfunction(fn) or fn.__module__ != mod.__name__:
                    continue
                wrapper = self._wrap(f"{layer}.{attr}", fn, *_HOOKS.get(f"{layer}.{attr}", ()))
                for other in modules:
                    for name, val in list(vars(other).items()):
                        if val is fn:
                            self._patch(other, name, wrapper)

        profile_cls = sys.modules[f"{package.__name__}.vorticity"].GammaProfile
        from_dist = vars(profile_cls)["from_distribution"]
        self._patch(
            profile_cls,
            "from_distribution",
            classmethod(self._wrap("vorticity.from_distribution", from_dist.__func__)),
        )
        self._patch(
            profile_cls,
            "primitive",
            self._wrap("vorticity.primitive", vars(profile_cls)["primitive"], _count_points),
        )
        self._patch(
            scipy.linalg, "solve_banded", self._wrap("numerics.solve_banded", scipy.linalg.solve_banded)
        )

    def _patch(self, owner, name, value):
        self._patches.append((owner, name, vars(owner)[name]))
        setattr(owner, name, value)

    def uninstall(self):
        for owner, name, original in reversed(self._patches):
            setattr(owner, name, original)
        self._patches = []

    # -- folding ----------------------------------------------------------------

    def summary(self) -> dict:
        """Per-function calls and total seconds, per-layer self seconds, and
        the counts, among them the principal_eigen calls made inside
        find_lambda_star."""
        child = defaultdict(float)
        names = {}
        parents = {}
        for sid, parent, name, t0, t1 in self.spans:
            child[parent] += t1 - t0
            names[sid] = name
            parents[sid] = parent
        calls = Counter()
        total = defaultdict(float)
        layer_self = {layer: 0.0 for layer in LAYERS}
        for sid, _parent, name, t0, t1 in self.spans:
            calls[name] += 1
            total[name] += t1 - t0
            layer_self[name.split(".", 1)[0]] += t1 - t0 - child[sid]
        mu_evals = 0
        for sid, name in names.items():
            if name != "spectral.principal_eigen":
                continue
            up = parents[sid]
            while up:
                if names[up] == "bifurcation.find_lambda_star":
                    mu_evals += 1
                    break
                up = parents[up]
        return {
            "calls": calls,
            "total_s": total,
            "layer_self_s": layer_self,
            "counts": Counter(self.counts, mu_evals_in_find_lambda_star=mu_evals),
        }


# -- counting hooks -------------------------------------------------------------


def _count_points(tracer, args, kwargs):
    p = args[1] if len(args) > 1 else kwargs["p"]
    tracer.counts["primitive_points"] += int(getattr(p, "size", 1))
    return args, kwargs


def _principal_eigen_repeat(tracer, args, kwargs):
    bound = tracer._principal_eigen_sig.bind(*args, **kwargs)
    bound.apply_defaults()
    profile, flow, lam = bound.arguments["profile"], bound.arguments["flow"], bound.arguments["lam"]
    key = (profile.source, flow, float(lam), int(bound.arguments["mesh_points"]))
    if key in tracer._solved:
        tracer.counts["principal_eigen_repeats"] += 1
    tracer._solved.add(key)
    return args, kwargs


def _count_root_evals(tracer, args, kwargs):
    f = args[0]

    def counted(x):
        tracer.counts["bracketed_root_f_evals"] += 1
        return f(x)

    return (counted, *args[1:]), kwargs


def _csv_rows(tracer, args, kwargs):
    tracer.counts["write_csv_rows"] += len(args[2])
    return args, kwargs


def _csv_bytes(tracer, args, kwargs):
    tracer.counts["write_csv_bytes"] += os.path.getsize(args[0])


_HOOKS = {
    "spectral.principal_eigen": (_principal_eigen_repeat,),
    "numerics.bracketed_root": (_count_root_evals,),
    "cli.write_csv": (_csv_rows, _csv_bytes),
}
