"""Span tracing of iiblab's public functions, driven from outside the package.

``install`` wraps each traced public name in place: module functions in
every loaded ``iiblab`` module (and module-level dict) that holds them,
so names imported with ``from .x import y`` are traced where they are
looked up; methods and ``ChernPackage`` cached properties on their class.
A target that does not exist in the program being measured is skipped
and listed, so the benchmark keeps running when the program changes.

Each span is ``[name, parent, start, end, attr]``: ``parent`` is the index
of the enclosing span or -1, times are ``perf_counter`` seconds and
``attr`` is a number for the few spans that carry one.  Spans stay in
memory and are written out once, at exit.  ``layer_metrics`` turns a
span list into the per-layer metrics named in ``BENCHMARK.json``.
"""

from __future__ import annotations

import functools
import importlib
import json
import math
import os
import sys
from time import perf_counter

SPECTRAL = "spectral"

# (module, function, span name); "verify" entries come from the registries.
FUNCTIONS = [
    ("metrics", "check_positive", "metrics.check_positive"),
    ("metrics", "min_eigenvalue", "metrics.min_eigenvalue"),
    ("accel", "gamma_from_dg", "accel.gamma_from_dg"),
    ("accel", "second_ricci", "accel.second_ricci"),
    ("accel", "ttbar_matrix", "accel.ttbar_matrix"),
    ("forms", "wedge", "forms.wedge"),
    ("forms", "wedge_power", "forms.wedge_power"),
    ("flow", "weighted_velocity", "flow.weighted_velocity"),
    ("flow", "anchor_velocity", "flow.anchor_velocity"),
    ("flow", "run_flow", "flow.run_flow"),
    ("diagnostics", "compute_diagnostics", "diagnostics.compute_diagnostics"),
    ("snapshot", "save_snapshot", "snapshot.save_snapshot"),
    ("runconfig", "resolve_config", "runconfig.resolve_config"),
]

# (module, class, method, span name)
METHODS = [
    ("grid", "TorusGrid", "real_derivative", "grid.real_derivative"),
    ("grid", "TorusGrid", "holomorphic_gradient", None),  # named by scheme
    ("grid", "TorusGrid", "top_band_fraction", "grid.top_band_fraction"),
    ("forms", "DifferentialForm", "del_", "forms.del_"),
    ("forms", "DifferentialForm", "delbar", "forms.delbar"),
    ("chern", "ChernPackage", "__init__", "chern.package"),
    ("chern", "ChernPackage", "covd", "chern.covd"),
    ("chern", "ChernPackage", "covd_bar", "chern.covd"),
]

CACHED_PROPERTIES = ["ginv", "dg", "gamma", "curvature", "second_ricci", "ttbar"]

VERIFY_REGISTRIES = ["SPATIAL_REGISTRY", "EVOLUTION_REGISTRY"]

# Registry keys of the identities whose self time is reported.
VERIFY_KEYS = [
    "connection-difference", "bianchi", "commutator", "quasilinear",
    "trh", "dilaton", "s-evolution",
]


def _gradient_name(args, kwargs):
    scheme = args[2] if len(args) > 2 else kwargs.get("scheme", SPECTRAL)
    return "grid.spectral_gradient" if scheme == SPECTRAL else "grid.fd_gradient"


def _inactive_axis(args, kwargs, out):
    grid = args[0]
    axis = args[2] if len(args) > 2 else kwargs["real_axis"]
    return 1 if grid.axis_position(axis) is None else 0


def _bytes_held(args, kwargs, traj):
    return sum(s.nbytes for s in getattr(traj, "snapshots", ()))


def _bytes_written(args, kwargs, out):
    path = args[0] if args else kwargs["path"]
    return os.path.getsize(path)


ATTRS = {
    "grid.real_derivative": _inactive_axis,
    "flow.run_flow": _bytes_held,
    "snapshot.save_snapshot": _bytes_written,
}


class Tracer:
    """Records nested spans of wrapped callables in one thread."""

    def __init__(self):
        self.spans: list[list] = []
        self._stack: list[int] = []
        self.skipped: list[str] = []

    def wrap(self, fn, name):
        spans, stack = self.spans, self._stack
        attr_fn = ATTRS.get(name)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            label = name(args, kwargs) if callable(name) else name
            rec = [label, stack[-1] if stack else -1, perf_counter(), 0.0, None]
            stack.append(len(spans))
            spans.append(rec)
            try:
                out = fn(*args, **kwargs)
            finally:
                stack.pop()
                rec[3] = perf_counter()
            if attr_fn is not None:
                rec[4] = attr_fn(args, kwargs, out)
            return out

        return traced

    def write(self, path):
        with open(path, "w", encoding="utf-8") as fh:
            json.dump({"spans": self.spans, "skipped": self.skipped}, fh)


def _module(name):
    try:
        return importlib.import_module(f"iiblab.{name}")
    except ImportError:
        return None


def _replace_everywhere(orig, wrapped):
    """Rebind ``orig`` to ``wrapped`` in every iiblab module and module dict."""
    for modname, mod in list(sys.modules.items()):
        if mod is None or not (modname == "iiblab" or modname.startswith("iiblab.")):
            continue
        for key, value in list(vars(mod).items()):
            if value is orig:
                setattr(mod, key, wrapped)
            elif isinstance(value, dict):
                for k, v in list(value.items()):
                    if v is orig:
                        value[k] = wrapped


def install(tracer: Tracer) -> None:
    """Wrap every traced target of the already importable iiblab package."""
    import iiblab  # noqa: F401  (loads every module the package imports)

    def patch_function(modname, attr, name):
        mod = _module(modname)
        orig = getattr(mod, attr, None) if mod is not None else None
        if orig is None:
            tracer.skipped.append(name)
            return
        _replace_everywhere(orig, tracer.wrap(orig, name))

    for modname, attr, name in FUNCTIONS:
        patch_function(modname, attr, name)

    verify = _module("verify")
    for reg in VERIFY_REGISTRIES:
        for key, fn in dict(getattr(verify, reg, {})).items():
            _replace_everywhere(fn, tracer.wrap(fn, f"verify.{key}"))

    for modname, clsname, attr, name in METHODS:
        cls = getattr(_module(modname), clsname, None)
        orig = getattr(cls, "__dict__", {}).get(attr)
        if orig is None:
            tracer.skipped.append(name or f"{modname}.{attr}")
            continue
        setattr(cls, attr, tracer.wrap(orig, name or _gradient_name))

    cls = getattr(_module("chern"), "ChernPackage", None)
    for prop in CACHED_PROPERTIES:
        cp = getattr(cls, "__dict__", {}).get(prop)
        if not isinstance(cp, functools.cached_property):
            tracer.skipped.append(f"chern.{prop}")
            continue
        new = functools.cached_property(tracer.wrap(cp.func, f"chern.{prop}"))
        new.__set_name__(cls, prop)
        setattr(cls, prop, new)


# -- span list -> per-layer metrics --------------------------------------------


def _percentile(values, q):
    """Nearest-rank percentile; 0 for an empty list."""
    if not values:
        return 0.0
    ordered = sorted(values)
    return ordered[max(0, math.ceil(q * len(ordered)) - 1)]


def layer_metrics(spans) -> dict:
    """Per-layer values (without ``trace.overhead_frac``) from one traced run."""
    child_time = [0.0] * len(spans)
    for name, parent, start, end, _ in spans:
        if parent >= 0:
            child_time[parent] += end - start

    calls: dict[str, int] = {}
    self_s: dict[str, float] = {}
    durations: dict[str, list[float]] = {}
    attr_sum: dict[str, float] = {}
    attr_max: dict[str, float] = {}
    for i, (name, parent, start, end, attr) in enumerate(spans):
        calls[name] = calls.get(name, 0) + 1
        self_s[name] = self_s.get(name, 0.0) + (end - start) - child_time[i]
        durations.setdefault(name, []).append(end - start)
        if attr is not None:
            attr_sum[name] = attr_sum.get(name, 0) + attr
            attr_max[name] = max(attr_max.get(name, 0), attr)

    # ChernPackage builds made inside a diagnostics record
    diag_builds = 0
    for name, parent, *_ in spans:
        if name != "chern.package":
            continue
        while parent >= 0 and spans[parent][0] != "diagnostics.compute_diagnostics":
            parent = spans[parent][1]
        diag_builds += parent >= 0

    def c(name):
        return calls.get(name, 0)

    def s(name):
        return self_s.get(name, 0.0)

    def ms(name, q):
        return 1e3 * _percentile(durations.get(name, []), q)

    out = {}
    for name in ("grid.spectral_gradient", "grid.fd_gradient", "grid.top_band_fraction",
                 "metrics.check_positive", "forms.wedge", "forms.wedge_power",
                 "forms.del_", "forms.delbar", "snapshot.save_snapshot"):
        out[f"{name}.calls"] = c(name)
        out[f"{name}.self_s"] = s(name)
    out["grid.real_derivative.calls"] = c("grid.real_derivative")
    out["grid.real_derivative.inactive_frac"] = (
        attr_sum.get("grid.real_derivative", 0) / c("grid.real_derivative")
        if c("grid.real_derivative") else 0.0
    )
    out["metrics.min_eigenvalue.calls"] = c("metrics.min_eigenvalue")
    out["chern.package.builds"] = c("chern.package")
    for prop in CACHED_PROPERTIES + ["covd"]:
        out[f"chern.{prop}.self_s"] = s(f"chern.{prop}")
    for fn in ("gamma_from_dg", "second_ricci", "ttbar_matrix"):
        out[f"accel.{fn}.self_s"] = s(f"accel.{fn}")
    for name in ("flow.weighted_velocity", "flow.anchor_velocity"):
        out[f"{name}.calls"] = c(name)
        out[f"{name}.p50_ms"] = ms(name, 0.50)
        out[f"{name}.p99_ms"] = ms(name, 0.99)
    out["flow.anchor_velocity.self_s"] = s("flow.anchor_velocity")
    out["flow.run_flow.self_s"] = s("flow.run_flow")
    out["flow.trajectory.bytes_held"] = attr_max.get("flow.run_flow", 0)
    name = "diagnostics.compute_diagnostics"
    out[f"{name}.calls"] = c(name)
    out[f"{name}.p50_ms"] = ms(name, 0.50)
    out[f"{name}.self_s"] = s(name)
    out["diagnostics.chern_builds_per_record"] = diag_builds / c(name) if c(name) else 0.0
    out["snapshot.bytes_written"] = attr_sum.get("snapshot.save_snapshot", 0)
    for key in VERIFY_KEYS:
        out[f"verify.{key}.self_s"] = s(f"verify.{key}")
    out["runconfig.resolve_config.self_s"] = s("runconfig.resolve_config")
    out["cli.main.self_s"] = s("cli.main")
    return out
