"""Spans and counts around calls into the seakit modules, kept in memory.

``Tracer.instrument`` wraps, from outside the package, every public
function that a seakit module defines (the functions named in its
``__all__``), and points every module namespace that holds one of them
at the wrapper.  A wrapper records a span [name, start, end, parent,
operation] and, for the functions in ``_COUNTERS``, adds counts read
from the arguments or the result.  ``restore`` puts the originals back.
Nothing inside the package is edited.
"""

from __future__ import annotations

import inspect
import json
import os
import sys
import time
import tracemalloc

import numpy as np

SIMULATE = ("simulate_torque_loop", "simulate_impedance", "simulate_free_response")
MODULES = ("simulation", "identify", "transfer", "synthesis", "polynomials",
           "plant", "svgplot", "config", "presets")
PRESETS = ("fig6", "fig9", "fig10", "fig10_narrow", "fig11")


def _count_sim(tracer, args, trace):
    tracer.add("simulation.calls", 1)
    tracer.add("simulation.steps", trace.n_samples - 1)
    u = trace.channel("u_presat")
    tracer.add("simulation.clamped_samples",
               int(np.count_nonzero(trace.channel("omega_d") != u)))


def _count_csv(tracer, args, _):
    tracer.add("simulation.trace_to_csv.rows", args[0].n_samples)
    tracer.add("simulation.trace_to_csv.bytes", os.path.getsize(args[1]))


def _count_frf(tracer, args, _):
    tracer.add("identify.estimate_frf.calls", 1)
    tracer.add("identify.estimate_frf.samples", len(args[0]))


def _count_response(tracer, args, _):
    tracer.add("transfer.frequency_response.calls", 1)
    tracer.add("transfer.frequency_response.points", len(args[1]))


def _count_roots(tracer, args, _):
    tracer.add("polynomials.roots.calls", 1)


def _count_svg(tracer, args, _):
    tracer.add("svgplot.bytes", os.path.getsize(args[0]))


# Counts read at the boundary of these functions; each reads its
# arguments positionally, which is how the package calls them.
_COUNTERS = {
    **{f"simulation.{name}": _count_sim for name in SIMULATE},
    "simulation.trace_to_csv": _count_csv,
    "identify.estimate_frf": _count_frf,
    "transfer.frequency_response": _count_response,
    "polynomials.roots": _count_roots,
    "svgplot.plot_lines": _count_svg,
    "svgplot.plot_bode": _count_svg,
}


class Tracer:
    """Spans and counts of one traced run, tagged by operation."""

    def __init__(self):
        self.spans: list[list] = []  # [name, start, end, parent, op]
        self.counts: dict[tuple[int, str], float] = {}
        self.op = -1
        self._stack: list[int] = []
        self._patched: list = []

    def add(self, name: str, value: float) -> None:
        key = (self.op, name)
        self.counts[key] = self.counts.get(key, 0) + value

    def wrap(self, name: str, fn, count=None):
        spans, stack, clock = self.spans, self._stack, time.perf_counter
        per_preset = name == "presets.run_preset"

        def traced(*args, **kwargs):
            label = f"presets.{args[0]}" if per_preset else name
            idx = len(spans)
            spans.append([label, clock(), 0.0, stack[-1] if stack else -1, self.op])
            stack.append(idx)
            try:
                result = fn(*args, **kwargs)
            finally:
                spans[idx][2] = clock()
                stack.pop()
            if count is not None:
                count(self, args, result)
            return result

        traced.__wrapped__ = fn
        return traced

    def instrument(self, package) -> None:
        def make(name, fn):
            return self.wrap(name, fn, _COUNTERS.get(name))

        self._patched = patch(package, make)

    def restore(self) -> None:
        unpatch(self._patched)

    def write(self, path: str) -> None:
        os.makedirs(os.path.dirname(path), exist_ok=True)
        with open(path, "w") as fh:
            json.dump({
                "fields": ["name", "start", "end", "parent", "op"],
                "spans": self.spans,
                "counts": [[op, name, v] for (op, name), v in sorted(self.counts.items())],
            }, fh)


def patch(package, make, names=None) -> list:
    """Point every reference to a public function of the package at a wrapper.

    make(name, fn) builds the wrapper for the function ``module.attr``
    named ``name``; names, when given, limits which functions get one.
    Returns what ``unpatch`` needs to put the originals back.
    """
    prefix = package.__name__ + "."
    modules = [m for n, m in sys.modules.items()
               if n == package.__name__ or n.startswith(prefix)]
    wrappers = {}
    for mod in modules:
        short = mod.__name__.rpartition(".")[2]
        for attr in getattr(mod, "__all__", ()):
            fn = getattr(mod, attr)
            name = f"{short}.{attr}"
            if (inspect.isfunction(fn) and fn.__module__ == mod.__name__
                    and (names is None or name in names)):
                wrappers[id(fn)] = (fn, make(name, fn))
    patched = []
    for mod in modules:
        ns = vars(mod)
        for attr, value in list(ns.items()):
            hit = wrappers.get(id(value))
            if hit is not None and hit[0] is value:
                patched.append((ns, attr, value))
                ns[attr] = hit[1]
    return patched


def unpatch(patched: list) -> None:
    for ns, attr, value in reversed(patched):
        ns[attr] = value


def peak_alloc_mb(package, run) -> float:
    """Largest tracemalloc peak over the simulate calls made by run().

    tracemalloc slows the integrator loop several times over, so it runs
    only here, never in a timed or traced phase.
    """
    peaks = [0.0]

    def make(name, fn):
        def measured(*args, **kwargs):
            tracemalloc.start()
            try:
                return fn(*args, **kwargs)
            finally:
                peaks.append(tracemalloc.get_traced_memory()[1] / 2**20)
                tracemalloc.stop()
        return measured

    patched = patch(package, make, {f"simulation.{n}" for n in SIMULATE})
    try:
        run()
    finally:
        unpatch(patched)
    return max(peaks)


def self_times(spans) -> list[float]:
    """Each span's duration minus the time its direct children cover.

    Children run inside their parent and one after another, so their
    durations add up to the time they cover.
    """
    own = [end - start for _, start, end, _, _ in spans]
    for _, start, end, parent, _ in spans:
        if parent >= 0:
            own[parent] -= end - start
    return own


def busy_time(spans, match, ops) -> float:
    """Time inside the spans of the given operations whose name satisfies
    match, a span nested in another matching one counted once."""
    inside = [False] * len(spans)
    total = 0.0
    for i, (name, start, end, parent, op) in enumerate(spans):
        enclosed = parent >= 0 and inside[parent]
        hit = match(name)
        inside[i] = enclosed or hit
        if hit and not enclosed and op in ops:
            total += end - start
    return total


def layer_metrics(tracer: Tracer, ops: list[int]) -> dict[str, float]:
    """Per-layer figures per operation, over the given operations."""
    wanted = set(ops)
    spans = tracer.spans
    per = 1.0 / max(len(wanted), 1)
    counts: dict[str, float] = {}
    for (op, name), value in tracer.counts.items():
        if op in wanted:
            counts[name] = counts.get(name, 0.0) + value

    def busy(*names):
        return per * busy_time(spans, lambda n: n in names, wanted)

    out = {name: per * counts.get(name, 0.0) for name in (
        "simulation.calls", "simulation.steps", "simulation.clamped_samples",
        "simulation.trace_to_csv.rows", "simulation.trace_to_csv.bytes",
        "identify.estimate_frf.calls", "identify.estimate_frf.samples",
        "transfer.frequency_response.calls", "transfer.frequency_response.points",
        "polynomials.roots.calls", "svgplot.bytes")}
    out["simulation.busy_s"] = busy(*(f"simulation.{n}" for n in SIMULATE))
    steps = out["simulation.steps"]
    out["simulation.us_per_step"] = 1e6 * out["simulation.busy_s"] / steps if steps else 0.0
    out["simulation.trace_to_csv.busy_s"] = busy("simulation.trace_to_csv")
    csv_s = out["simulation.trace_to_csv.busy_s"]
    out["simulation.trace_to_csv.rows_per_s"] = (
        out["simulation.trace_to_csv.rows"] / csv_s if csv_s else 0.0)
    for name in ("identify.estimate_frf", "identify.bandwidth_3db",
                 "identify.phase_at", "identify.loop_margins",
                 "synthesis.h2_synthesize", "synthesis.coprime_factorize",
                 "synthesis.torque_loop_maps", "polynomials.roots",
                 "plant.build_plant", "config.write_csv"):
        out[f"{name}.busy_s"] = busy(name)
    out["svgplot.busy_s"] = per * busy_time(
        spans, lambda n: n.startswith("svgplot."), wanted)
    for preset in PRESETS:
        out[f"presets.{preset}.wall_s"] = busy(f"presets.{preset}")
    own = self_times(spans)
    for mod in MODULES:
        out[f"{mod}.self_s"] = per * sum(
            t for s, t in zip(spans, own)
            if s[4] in wanted and s[0].partition(".")[0] == mod)
    return out
