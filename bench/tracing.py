"""Spans and counters recorded around mtmlab's public functions.

A traced pass replaces module attributes at the call sites the workloads
reach (``mtmlab.stability.minimize``, ``mtmlab.evolution.step``, ...) with
wrappers that record a span, and restores the originals afterwards.  No file
of the package changes.  Spans stay in memory until ``write_spans``.
"""

from __future__ import annotations

import importlib
import json
import os
import statistics
import time
from collections import defaultdict

MB = 1e6


class Tracer:
    """In-memory spans (name, start, end, parent index, item id) and counters."""

    def __init__(self):
        self.spans: list[list] = []
        self.stack: list[int] = []
        self.counts: dict[str, float] = defaultdict(float)
        self.item = None

    def open(self, name: str) -> int:
        idx = len(self.spans)
        parent = self.stack[-1] if self.stack else -1
        self.spans.append([name, time.perf_counter(), 0.0, parent, self.item])
        self.stack.append(idx)
        return idx

    def close(self, idx: int) -> None:
        self.spans[idx][2] = time.perf_counter()
        self.stack.pop()

    def totals(self) -> dict[str, dict[str, float]]:
        """Per span name: calls, busy time and self time (busy minus child spans)."""
        child = [0.0] * len(self.spans)
        for name, start, end, parent, _ in self.spans:
            if parent >= 0:
                child[parent] += end - start
        out: dict[str, dict[str, float]] = defaultdict(
            lambda: {"calls": 0, "busy": 0.0, "self": 0.0})
        for k, (name, start, end, _, _) in enumerate(self.spans):
            t = out[name]
            t["calls"] += 1
            t["busy"] += end - start
            t["self"] += end - start - child[k]
        return out

    def write_spans(self, path: str) -> None:
        with open(path, "w") as fh:
            for name, start, end, parent, item in self.spans:
                fh.write(json.dumps({"name": name, "start": start, "end": end,
                                     "parent": parent, "item": item}) + "\n")


def _file_mb(arg_index: int, key: str):
    """Counter hook: add the size of the path argument to `key` (computed MB)."""
    def hook(tracer: Tracer, args, kwargs, _result) -> None:
        tracer.counts[key] += os.path.getsize(args[arg_index]) / MB
    return hook


def _fit_status(tracer: Tracer, _args, _kwargs, opt) -> None:
    tracer.counts["stability.fit.nfev"] += opt.nfev
    tracer.counts["stability.fit.converged" if opt.success
                  else "stability.fit.not_converged"] += 1


_WRITE = _file_mb(1, "fields.write_csv.mb")
_READ = _file_mb(0, "fields.read_csv.mb")

# (module, attribute, span name, hook run on the result)
SPAN_SITES = (
    ("mtmlab.cli", "main", "cli.command", None),
    ("mtmlab.stability", "run_experiment", "stability.run_experiment", None),
    ("mtmlab.stability", "evolve", "evolution.evolve", None),
    ("mtmlab.cli", "evolve", "evolution.evolve", None),
    ("mtmlab.evolution", "step", "evolution.step", None),
    ("mtmlab.stability", "modulated_distance", "stability.modulated_distance", None),
    ("mtmlab.stability", "minimize", "stability.fit", _fit_status),
    ("mtmlab.stability", "up_map", "backlund.up_map", None),
    ("mtmlab.cli", "up_map", "backlund.up_map", None),
    ("mtmlab.stability", "down_map", "backlund.down_map", None),
    ("mtmlab.backlund", "down_map", "backlund.down_map", None),
    ("mtmlab.cli", "backlund_transform", "backlund.transform", None),
    ("mtmlab.stability", "find_eigenvalue", "lax.find_eigenvalue", None),
    ("mtmlab.cli", "find_eigenvalue", "lax.find_eigenvalue", None),
    ("mtmlab.lax", "find_eigenvalue", "lax.find_eigenvalue", None),
    ("mtmlab.lax", "evans_function", "lax.evans_function", None),
    ("mtmlab.lax", "solve_jost", "lax.solve_jost", None),
    ("mtmlab.stability", "solve_time_bvp", "lax.solve_time_bvp", None),
    ("mtmlab.cli", "solve_time_bvp", "lax.solve_time_bvp", None),
    ("mtmlab.cli", "write_field_csv", "fields.write_csv", _WRITE),
    ("mtmlab.cli", "write_lax_csv", "fields.write_csv", _WRITE),
    ("mtmlab.cli", "read_field_csv", "fields.read_csv", _READ),
    ("mtmlab.cli", "read_lax_csv", "fields.read_csv", _READ),
    ("mtmlab.fields", "read_field_csv", "fields.read_csv", _READ),
    ("mtmlab.cli", "file_digest", "cli.file_digest", _file_mb(0, "cli.file_digest.mb")),
)

# (module, attribute, counter): hot leaf functions that get a call count only
COUNT_SITES = (
    ("mtmlab.solitons", "csech", "solitons.csech.calls"),
    ("mtmlab.lax", "csech", "solitons.csech.calls"),
)


def _span(tracer: Tracer, name: str, fn, hook):
    def wrapped(*args, **kwargs):
        idx = tracer.open(name)
        try:
            result = fn(*args, **kwargs)
        finally:
            tracer.close(idx)
        if hook is not None:
            hook(tracer, args, kwargs, result)
        return result
    return wrapped


def _counter(tracer: Tracer, key: str, fn):
    counts = tracer.counts

    def wrapped(*args, **kwargs):
        counts[key] += 1
        return fn(*args, **kwargs)
    return wrapped


def install(tracer: Tracer):
    """Wrap every call site; returns a function that restores the originals."""
    saved = []
    for mod_name, attr, name, hook in SPAN_SITES:
        mod = importlib.import_module(mod_name)
        fn = getattr(mod, attr)
        saved.append((mod, attr, fn))
        setattr(mod, attr, _span(tracer, name, fn, hook))
    for mod_name, attr, key in COUNT_SITES:
        mod = importlib.import_module(mod_name)
        fn = getattr(mod, attr)
        saved.append((mod, attr, fn))
        setattr(mod, attr, _counter(tracer, key, fn))

    def restore() -> None:
        for mod, attr, fn in reversed(saved):
            setattr(mod, attr, fn)
    return restore


def layer_metrics(tracer: Tracer, traced_walls: list[float],
                  untraced_walls: list[float]) -> dict[str, float]:
    """Per-layer metrics as means per traced pass.

    Shares and the self-time sum are taken against the mean traced pass;
    ``trace.wall_s`` and the overhead compare per-pass medians.
    """
    n_passes = len(traced_walls)
    wall = sum(traced_walls) / n_passes
    tot = tracer.totals()
    c = tracer.counts

    def get(name, field):
        return tot[name][field] / n_passes if name in tot else 0.0

    def ratio(a, b):
        return a / b if b else 0.0

    fit_calls = get("stability.fit", "calls")
    m = {
        "evolution.evolve.busy_s": get("evolution.evolve", "busy"),
        "evolution.step.calls": get("evolution.step", "calls"),
        "evolution.step.mean_us": 1e6 * ratio(get("evolution.step", "busy"),
                                              get("evolution.step", "calls")),
        "stability.modulated_distance.calls": get("stability.modulated_distance", "calls"),
        "stability.modulated_distance.busy_s": get("stability.modulated_distance", "busy"),
        "stability.modulated_distance.self_s": get("stability.modulated_distance", "self"),
        "solitons.csech.calls": c["solitons.csech.calls"] / n_passes,
        "stability.fit.calls": fit_calls,
        "stability.fit.busy_s": get("stability.fit", "busy"),
        "stability.fit.nfev": c["stability.fit.nfev"] / n_passes,
        "stability.fit.converged_ratio": ratio(c["stability.fit.converged"] / n_passes,
                                               fit_calls),
        "stability.fit.not_converged": c["stability.fit.not_converged"] / n_passes,
        "backlund.up_map.calls": get("backlund.up_map", "calls"),
        "backlund.up_map.busy_s": get("backlund.up_map", "busy"),
        "lax.find_eigenvalue.calls": get("lax.find_eigenvalue", "calls"),
        "lax.find_eigenvalue.busy_s": get("lax.find_eigenvalue", "busy"),
        "lax.find_eigenvalue.self_s": get("lax.find_eigenvalue", "self"),
        "lax.evans_function.calls": get("lax.evans_function", "calls"),
        "lax.evans_per_solve": ratio(get("lax.evans_function", "calls"),
                                     get("lax.find_eigenvalue", "calls")),
        "lax.solve_jost.calls": get("lax.solve_jost", "calls"),
        "lax.solve_jost.mean_ms": 1e3 * ratio(get("lax.solve_jost", "busy"),
                                              get("lax.solve_jost", "calls")),
        "lax.solve_time_bvp.busy_s": get("lax.solve_time_bvp", "busy"),
        "backlund.down_map.busy_s": get("backlund.down_map", "busy"),
        "fields.write_csv.calls": get("fields.write_csv", "calls"),
        "fields.write_csv.busy_s": get("fields.write_csv", "busy"),
        "fields.write_csv.mb_per_s": ratio(c["fields.write_csv.mb"] / n_passes,
                                           get("fields.write_csv", "busy")),
        "fields.read_csv.calls": get("fields.read_csv", "calls"),
        "fields.read_csv.busy_s": get("fields.read_csv", "busy"),
        "fields.read_csv.mb_per_s": ratio(c["fields.read_csv.mb"] / n_passes,
                                          get("fields.read_csv", "busy")),
        "cli.file_digest.busy_s": get("cli.file_digest", "busy"),
        "cli.file_digest.mb": c["cli.file_digest.mb"] / n_passes,
        "cli.command.self_s": get("cli.command", "self"),
    }
    evolution_self = get("evolution.evolve", "self") + get("evolution.step", "self")
    io_busy = (m["fields.write_csv.busy_s"] + m["fields.read_csv.busy_s"]
               + m["cli.file_digest.busy_s"])
    self_sum = sum(t["self"] for t in tot.values()) / n_passes
    m.update({
        "share.evolution": ratio(evolution_self, wall),
        "share.orbit_fit": ratio(m["stability.modulated_distance.busy_s"]
                                 + m["stability.fit.busy_s"], wall),
        "share.lax_eigen": ratio(m["lax.find_eigenvalue.busy_s"], wall),
        "share.io": ratio(io_busy, wall),
        "trace.wall_s": statistics.median(traced_walls),
        "trace.overhead_frac": (statistics.median(traced_walls)
                                / statistics.median(untraced_walls) - 1.0),
        "trace.self_sum_frac": ratio(self_sum, wall),
        "trace.unattributed_frac": ratio(get("bench.item", "self"), wall),
        "trace.spans_per_pass": len(tracer.spans) / n_passes,
    })
    return m


def unit_of(name: str) -> str:
    """Unit of a per-layer metric, from its name."""
    for suffix, unit in ((".mb_per_s", "MB/s-computed"), (".mb", "MB-computed"),
                         ("_us", "us"), ("_ms", "ms"), ("_s", "s"), ("_ok", "bool"),
                         (".bit_identical", "bool")):
        if name.endswith(suffix):
            return unit
    if name.startswith("share.") or name.endswith(("_frac", "_ratio", "_dev")):
        return "ratio"
    return "count"
