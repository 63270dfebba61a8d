"""Span recording around the package's public functions, and per-layer metrics.

The package binds functions by name (``from .spdc import joint_momentum_rate``),
so patching the defining module is not enough: ``install`` replaces every
binding of each public function in every loaded ``gsmspdc`` module, including
values of module-level dicts such as ``cli.EXPERIMENTS``, and public methods
of the package's classes.  Nothing inside ``src/`` is changed.

A span is a dict with an ``id``, the ``parent`` span id (0 at the top), the
``trace`` it belongs to (one per experiment call), its ``layer`` (the module
name), the function ``name``, start and end in ``perf_counter_ns`` units, and
``counts`` of work done, taken from the call's arguments and result.
"""

import functools
import inspect
import os
import sys
import time
from statistics import median

import numpy as np

LAYERS = ("cli", "config", "pump", "spdc", "profiles", "interference",
          "analysis", "counting", "iofmt", "records")

# name, unit, better: the per-layer metrics, all computed from spans
LAYER_METRICS = (
    ("profiles.ns_per_pixel", "ns", "lower"),
    ("profiles.self_s", "s", "lower"),
    ("profiles.evals_per_pixel", "count", "lower"),
    ("spdc.rate_calls", "count", "lower"),
    ("spdc.rate_evals", "count", "lower"),
    ("spdc.ns_per_eval", "ns", "lower"),
    ("spdc.max_evals_per_call", "count", "lower"),
    ("pump.csd_calls", "count", "lower"),
    ("interference.fringe_calls", "count", "lower"),
    ("interference.ns_per_sample", "ns", "lower"),
    ("interference.self_s", "s", "lower"),
    ("analysis.fit_visibility_s", "s", "lower"),
    ("analysis.fit_visibility_calls", "count", "lower"),
    ("analysis.fit_gaussian_s", "s", "lower"),
    ("counting.us_per_frame", "us", "lower"),
    ("counting.save_s", "s", "lower"),
    ("counting.load_s", "s", "lower"),
    ("counting.us_per_column", "us", "lower"),
    ("counting.bytes_moved", "bytes-computed", "lower"),
    ("iofmt.write_s", "s", "lower"),
    ("iofmt.manifest_s", "s", "lower"),
    ("iofmt.bytes_written", "bytes", "lower"),
    ("config.resolve_s", "s", "lower"),
    ("cli.self_s", "s", "lower"),
    ("trace.overhead_s", "s", "lower"),
)


def _file_bytes(path):
    return {"bytes": os.path.getsize(path)}


def _conditional_map_counts(args, kwargs, scan):
    stack = args[0] if args else kwargs["stack"]
    # the fixed pixel's series plus one series per scanned column, u16 each
    return {"columns": scan.xs.size,
            "bytes": stack.n_frames * (scan.xs.size + 1) * stack.frames.itemsize}


def _singles_counts(args, kwargs, prof):
    both = prof.meta["kind"] == "II" and prof.meta["which"] == "both"
    return {"pixels": prof.grid.size, "rings": 2 if both else 1}


# work done per call, from (args, kwargs, result); the rest count calls only
COUNTERS = {
    "spdc.joint_momentum_rate": lambda a, k, r: {"evals": int(np.size(r))},
    "profiles.singles_profile": _singles_counts,
    "interference.fringe_profile": lambda a, k, r: {"samples": r.xs.size},
    "counting.synth_frames": lambda a, k, r: {"frames": r.n_frames,
                                              "bytes": r.frames.nbytes},
    "counting.save_frames": lambda a, k, r: {
        "bytes": (a[0] if a else k["stack"]).frames.nbytes},
    "counting.load_frames": lambda a, k, r: {"bytes": r.frames.nbytes},
    "counting.conditional_map": _conditional_map_counts,
    "iofmt.write_csv": lambda a, k, r: _file_bytes(a[0] if a else k["path"]),
    "iofmt.write_pgm16": lambda a, k, r: _file_bytes(a[0] if a else k["path"]),
    "iofmt.write_json": lambda a, k, r: _file_bytes(a[0] if a else k["path"]),
    "iofmt.write_manifest": lambda a, k, r: _file_bytes(r),
}


class Recorder:
    """Keeps spans in memory; ``trace`` names the experiment call under way."""

    def __init__(self):
        self.spans = []
        self.trace = None
        self._stack = []
        self._next_id = 1

    def wrap(self, layer, name, fn):
        counter = COUNTERS.get(f"{layer}.{name}")

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = {"id": self._next_id,
                    "parent": self._stack[-1] if self._stack else 0,
                    "trace": self.trace, "layer": layer, "name": name}
            self._next_id += 1
            self._stack.append(span["id"])
            span["t0"] = time.perf_counter_ns()
            try:
                result = fn(*args, **kwargs)
            finally:
                span["t1"] = time.perf_counter_ns()
                self._stack.pop()
                self.spans.append(span)
            if counter is not None:
                span["counts"] = counter(args, kwargs, result)
            return result

        return traced


def install(recorder):
    """Wrap every public function and method of the loaded package modules."""
    modules = [m for name, m in sys.modules.items()
               if m is not None and (name == "gsmspdc"
                                     or name.startswith("gsmspdc."))]
    wrapped = {}  # id(original) -> wrapper
    for module in modules:
        layer = module.__name__.rpartition(".")[2]
        if layer not in LAYERS:
            continue
        for name, obj in vars(module).items():
            if name.startswith("_"):
                continue
            if inspect.isfunction(obj) and obj.__module__ == module.__name__:
                wrapped[id(obj)] = recorder.wrap(layer, name, obj)
            elif inspect.isclass(obj) and obj.__module__ == module.__name__:
                for attr, member in list(vars(obj).items()):
                    if not attr.startswith("_") and inspect.isfunction(member):
                        setattr(obj, attr, recorder.wrap(
                            layer, f"{name}.{attr}", member))
    for module in modules:
        for name, obj in list(vars(module).items()):
            if id(obj) in wrapped:
                setattr(module, name, wrapped[id(obj)])
            elif isinstance(obj, dict):
                for key, value in list(obj.items()):
                    if id(value) in wrapped:
                        obj[key] = wrapped[id(value)]


class SpanIndex:
    """Durations, self times and ancestry over one list of spans."""

    def __init__(self, spans):
        self.spans = spans
        self.by_id = {s["id"]: s for s in spans}
        covered = {}
        for s in spans:
            if s["parent"]:
                covered[s["parent"]] = covered.get(s["parent"], 0) + _dur(s)
        self.self_ns = {s["id"]: _dur(s) - covered.get(s["id"], 0)
                        for s in spans}

    def ancestors(self, span):
        parent = self.by_id.get(span["parent"])
        while parent is not None:
            yield parent
            parent = self.by_id.get(parent["parent"])

    def named(self, layer, name):
        return [s for s in self.spans
                if s["layer"] == layer and s["name"] == name]

    def layer_self_s(self, layer):
        return sum(self.self_ns[s["id"]] for s in self.spans
                   if s["layer"] == layer) / 1e9

    def outermost(self, layer):
        """Spans of a layer that no other span of the same layer encloses."""
        return [s for s in self.spans if s["layer"] == layer
                and not any(a["layer"] == layer for a in self.ancestors(s))]


def _dur(span):
    return span["t1"] - span["t0"]


def _total(spans, key):
    return sum(s.get("counts", {}).get(key, 0) for s in spans)


def _per(numerator, denominator):
    return numerator / denominator if denominator else 0.0


def layer_metrics(spans):
    """Per-layer metrics of one traced run (without ``trace.overhead_s``)."""
    ix = SpanIndex(spans)
    singles = ix.named("profiles", "singles_profile")
    singles_ids = {s["id"] for s in singles}
    rates = ix.named("spdc", "joint_momentum_rate")
    rate_evals = _total(rates, "evals")
    pixel_rings = sum(s["counts"]["pixels"] * s["counts"]["rings"]
                      for s in singles)
    singles_evals = _total([r for r in rates if any(
        a["id"] in singles_ids for a in ix.ancestors(r))], "evals")
    fringes = ix.named("interference", "fringe_profile")
    synth = ix.named("counting", "synth_frames")
    cmaps = ix.named("counting", "conditional_map")
    fits_v = ix.named("analysis", "fit_visibility")
    io_outer = ix.outermost("iofmt")
    return {
        "profiles.ns_per_pixel": _per(sum(map(_dur, singles)), pixel_rings),
        "profiles.self_s": ix.layer_self_s("profiles"),
        "profiles.evals_per_pixel": _per(singles_evals, pixel_rings),
        "spdc.rate_calls": len(rates),
        "spdc.rate_evals": rate_evals,
        "spdc.ns_per_eval": _per(ix.layer_self_s("spdc") * 1e9, rate_evals),
        "spdc.max_evals_per_call": max(
            (r["counts"]["evals"] for r in rates), default=0),
        "pump.csd_calls": len(ix.named("pump", "csd_coefficients")),
        "interference.fringe_calls": len(fringes),
        "interference.ns_per_sample": _per(
            ix.layer_self_s("interference") * 1e9, _total(fringes, "samples")),
        "interference.self_s": ix.layer_self_s("interference"),
        "analysis.fit_visibility_s": sum(map(_dur, fits_v)) / 1e9,
        "analysis.fit_visibility_calls": len(fits_v),
        "analysis.fit_gaussian_s": sum(
            map(_dur, ix.named("analysis", "fit_gaussian"))) / 1e9,
        "counting.us_per_frame": _per(sum(map(_dur, synth)) / 1e3,
                                      _total(synth, "frames")),
        "counting.save_s": sum(
            map(_dur, ix.named("counting", "save_frames"))) / 1e9,
        "counting.load_s": sum(
            map(_dur, ix.named("counting", "load_frames"))) / 1e9,
        "counting.us_per_column": _per(sum(map(_dur, cmaps)) / 1e3,
                                       _total(cmaps, "columns")),
        "counting.bytes_moved": _total(
            [s for s in spans if s["layer"] == "counting"], "bytes"),
        "iofmt.write_s": sum(_dur(s) for s in io_outer
                             if s["name"] != "write_manifest") / 1e9,
        "iofmt.manifest_s": sum(
            map(_dur, ix.named("iofmt", "write_manifest"))) / 1e9,
        "iofmt.bytes_written": _total(io_outer, "bytes"),
        "config.resolve_s": sum(map(_dur, ix.outermost("config"))) / 1e9,
        "cli.self_s": ix.layer_self_s("cli"),
    }


def median_metrics(per_run):
    """Median of each metric over several traced runs."""
    return {name: median(run[name] for run in per_run) for name in per_run[0]}
