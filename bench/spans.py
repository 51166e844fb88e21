"""In-memory spans around the calls into temperhmc's public functions.

A span records its name, layer, start, end and parent; every span of one
run carries the tracer's run id.  Spans stay in memory and are written out
once, when the run ends.

The package imports most public names by name (``from .hmc import
hmc_trajectory``), so tracing imports every temperhmc module and replaces
each module attribute that is the traced object, wherever it was imported.
``dataset_energy_fns`` closures look ``energy`` and ``energy_gradient`` up
in ``temperhmc.network`` globals, so patching that module covers them.
"""

from __future__ import annotations

import contextlib
import functools
import importlib
import itertools
import json
import os
import pkgutil
import time


class Span:
    __slots__ = ("id", "parent", "name", "layer", "t0", "t1", "attrs")

    def __init__(self, id, parent, name, layer, t0, t1=None, attrs=None):
        self.id = id
        self.parent = parent
        self.name = name
        self.layer = layer
        self.t0 = t0
        self.t1 = t1
        self.attrs = attrs

    @property
    def duration(self):
        return self.t1 - self.t0


def _uphill_steps(n_steps, result_trace, dt0):
    # rmin grows dt by an increment after a downhill step and shrinks it by
    # a factor below 1 after an uphill one, so a falling dt marks a rejection
    uphill, prev = 0, dt0
    for _, _, dt in result_trace[:n_steps]:
        uphill += dt < prev
        prev = dt
    return uphill


def _network_attrs(args, kwargs, out):
    return {"sizes": args[0].layer_sizes, "rows": len(args[3]),
            "head": args[0].head}


def _trajectory_attrs(args, kwargs, out):
    return {"accepted": bool(out.accepted)}


def _rmin_attrs(args, kwargs, out):
    from temperhmc.minimize import RMinConfig

    cfg = (args[3] if len(args) > 3 else kwargs.get("cfg")) or RMinConfig()
    dt0 = cfg.dt0
    return {"steps": out.n_steps, "energy": float(out.energy),
            "uphill": _uphill_steps(out.n_steps, out.trace, dt0)}


def _swap_attrs(args, kwargs, out):
    return {"pair": args[0].index, "accepted": bool(out)}


def _sweep_attrs(args, kwargs, out):
    return {"identities": [int(i) for i in args[4]]}


def _checkpoint_attrs(args, kwargs, out):
    return {"bytes": os.path.getsize(args[0])}


def _stiffness_attrs(args, kwargs, out):
    return {"frac_outside_box": float(out.frac_outside_box),
            "degenerate": int(len(out.degenerate))}


# (defining module, attribute path, layer, attribute extractor).  The span
# is named after the attribute path.
TARGETS = [
    ("temperhmc.network", "energy", "network", _network_attrs),
    ("temperhmc.network", "energy_gradient", "network", _network_attrs),
    ("temperhmc.hmc", "hmc_trajectory", "hmc", _trajectory_attrs),
    ("temperhmc.hmc", "measure_acceptance", "hmc", None),
    ("temperhmc.hmc", "tune_step_size", "hmc", None),
    ("temperhmc.minimize", "rmin", "minimize", _rmin_attrs),
    ("temperhmc.replica", "init_replica", "replica", None),
    ("temperhmc.replica", "run_remd", "replica", None),
    ("temperhmc.replica", "RunTrace.append_sweep", "replica", _sweep_attrs),
    ("temperhmc.replica", "attempt_swap", "replica", _swap_attrs),
    ("temperhmc.replica", "save_checkpoint", "replica", _checkpoint_attrs),
    ("temperhmc.ti", "fit_stiffness", "ti", _stiffness_attrs),
    ("temperhmc.ti", "bridge_energy_fns", "ti", None),
    ("temperhmc.ti", "ti_observable", "ti", None),
    ("temperhmc.ti", "run_ti", "ti", None),
    ("temperhmc.harness", "baseline_optimize", "harness", None),
    ("temperhmc.data", "DatasetStore.load", "data", None),
    # the CLI's writers
    ("temperhmc.cli", "write_manifest", "cli", None),
    ("temperhmc.network", "save_params", "cli", None),
    ("temperhmc.harness", "write_sweep_csv", "cli", None),
    ("temperhmc.replica", "RunTrace.write_csv", "cli", None),
]


def _package_modules():
    """Every temperhmc module, imported."""
    import temperhmc

    return [temperhmc] + [importlib.import_module(f"temperhmc.{m.name}")
                          for m in pkgutil.iter_modules(temperhmc.__path__)]


class Tracer:
    """Collects spans for one run; ``patched()`` installs it into temperhmc."""

    def __init__(self, run_id):
        self.run_id = run_id
        self.spans = []
        self._stack = []
        self._ids = itertools.count(1)

    def start(self, name, layer):
        parent = self._stack[-1].id if self._stack else None
        span = Span(next(self._ids), parent, name, layer, time.perf_counter())
        self.spans.append(span)
        self._stack.append(span)
        return span

    def end(self, span):
        span.t1 = time.perf_counter()
        top = self._stack.pop()
        if top is not span:
            raise RuntimeError(f"span {span.name} closed out of order")

    @contextlib.contextmanager
    def span(self, name, layer):
        s = self.start(name, layer)
        try:
            yield s
        finally:
            self.end(s)

    def wrap(self, fn, name, layer, attrs=None):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            s = self.start(name, layer)
            try:
                out = fn(*args, **kwargs)
            except BaseException as exc:
                s.attrs = {"error": type(exc).__name__}
                raise
            finally:
                self.end(s)
            if attrs is not None:
                s.attrs = attrs(args, kwargs, out)
            return out
        return traced

    @contextlib.contextmanager
    def patched(self):
        """Replace every binding of each target with a traced wrapper.

        A target's bindings are its own attribute and every attribute of a
        temperhmc module that is the same object.  All are restored on exit.
        """
        modules = _package_modules()
        saved = []
        try:
            for module_name, path, layer, attrs in TARGETS:
                owner = importlib.import_module(module_name)
                *parents, attr = path.split(".")
                for p in parents:
                    owner = getattr(owner, p)
                original = getattr(owner, attr)
                wrapper = self.wrap(original, path, layer, attrs)
                sites = {(id(owner), attr): (owner, attr)}
                for module in modules:
                    for name, value in vars(module).items():
                        if value is original:
                            sites[id(module), name] = (module, name)
                for site, name in sites.values():
                    saved.append((site, name, original))
                    setattr(site, name, wrapper)
            yield self
        finally:
            for site, name, original in reversed(saved):
                setattr(site, name, original)

    def write(self, path):
        """One JSON object per line: the run header, then every span."""
        with open(path, "w") as fh:
            fh.write(json.dumps({"run_id": self.run_id, "spans": len(self.spans)}) + "\n")
            for s in self.spans:
                fh.write(json.dumps({
                    "run_id": self.run_id, "id": s.id, "parent": s.parent,
                    "name": s.name, "layer": s.layer, "start": s.t0, "end": s.t1,
                    "attrs": s.attrs,
                }) + "\n")


def self_times(spans):
    """Map span id -> duration minus the part its child spans cover."""
    children = {}
    for s in spans:
        if s.parent is not None:
            children.setdefault(s.parent, []).append((s.t0, s.t1))
    out = {}
    for s in spans:
        covered, end = 0.0, s.t0
        for c0, c1 in sorted(children.get(s.id, ())):
            c0, c1 = max(c0, end), min(c1, s.t1)
            if c1 > c0:
                covered += c1 - c0
                end = c1
        out[s.id] = s.duration - covered
    return out
