"""Spans and counters recorded from the benchmark's side of each layer.

The program is not edited: :func:`install` replaces the public names each
caller looks up (``spinclock.cli.spectrum_sweep``, ``numpy.linalg.eigh``, ...)
with wrappers that record a span around the call.  A name is wrapped only if
it exists, so the traced run survives the removal of a layer; the layer is
then reported as absent.

A span's self time is its duration minus the time covered by its direct
child spans.  A span name's total counts only spans whose parent has another
name, so a hook reached through another hook of the same name
(``Preset.from_config`` calling ``params_from_config``) is not counted twice.
"""

from __future__ import annotations

import functools
import importlib
import time
import tracemalloc
from collections import Counter, defaultdict

# (module, attribute, span name).  Each entry is one place a caller looks a
# name up; the same function can appear under several callers' names.
HOOKS = (
    ("spinclock.cli", "main", "cli.main"),
    ("spinclock.presets", "Preset.from_config", "params.config"),
    ("spinclock.presets", "params_from_config", "params.config"),
    ("spinclock.presets", "params_to_config", "params.config"),
    ("spinclock.cli", "figure_setup", "figures.setup"),
    ("spinclock.cli", "spectrum_sweep", "transmission.sweep"),
    ("spinclock.transmission", "spectrum_sweep", "transmission.sweep"),
    ("spinclock.transmission", "transmission_grid", "kernels.grid"),
    ("spinclock.cli", "operating_point_numeric", "polariton.operating_point"),
    ("spinclock.polariton", "operating_point_numeric",
     "polariton.operating_point"),
    ("spinclock.polariton", "brentq", "scipy.brentq"),
    ("numpy.linalg", "eigh", "numpy.eigh"),
    ("numpy.linalg", "eigvalsh", "numpy.eigh"),
    ("spinclock.cli", "environmental_floors", "stability.floors"),
    ("spinclock.stability", "environmental_floors", "stability.floors"),
    ("spinclock.cli", "stability_curve", "stability.curve"),
)

# One record per eigen-solve would dominate the span dump; these spans are
# aggregated but not kept individually.
_LEAF_SPANS = {"numpy.eigh"}


class _Frame:
    __slots__ = ("name", "t0", "child", "index")

    def __init__(self, name, t0, index):
        self.name = name
        self.t0 = t0
        self.child = 0.0
        self.index = index


class Tracer:
    """Span stack, per-name aggregates and counters for one workload child."""

    def __init__(self):
        self.on = False
        self.op = 0
        self.live: dict[str, bool] = {}
        self.spans: list[tuple] = []      # (name, op, t0, t1, parent index)
        self.total = defaultdict(float)   # outermost duration per name
        self.self_time = defaultdict(float)
        self.calls = Counter()
        self.counts = Counter()
        self.peaks: list[tuple[int, int]] = []  # (alloc peak, result bytes)
        self._stack: list[_Frame] = []

    def _run(self, name, fn, args, kwargs):
        stack = self._stack
        parent = stack[-1] if stack else None
        index = -1
        if name not in _LEAF_SPANS:
            index = len(self.spans)
            self.spans.append(None)
        frame = _Frame(name, time.perf_counter(), index)
        stack.append(frame)
        try:
            return fn(*args, **kwargs)
        finally:
            t1 = time.perf_counter()
            stack.pop()
            duration = t1 - frame.t0
            self.calls[name] += 1
            self.self_time[name] += duration - frame.child
            if parent is None or parent.name != name:
                self.total[name] += duration
            if parent is not None:
                parent.child += duration
            if index >= 0:
                self.spans[index] = (name, self.op, frame.t0, t1,
                                     parent.index if parent else -1)

    def wrap(self, name, fn):
        tracer = self
        counter = _COUNTERS.get(name)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if not tracer.on:
                return fn(*args, **kwargs)
            result = tracer._run(name, fn, args, kwargs)
            if counter is not None:
                counter(tracer, args, result)
            return result

        if name == "transmission.sweep":
            return self._with_alloc_peak(wrapper)
        return wrapper

    def _with_alloc_peak(self, wrapper):
        """tracemalloc peak around each sweep, kept outside its span."""
        tracer = self

        @functools.wraps(wrapper)
        def measured(*args, **kwargs):
            if not tracer.on or tracemalloc.is_tracing():
                return wrapper(*args, **kwargs)
            tracemalloc.start()
            try:
                result = wrapper(*args, **kwargs)
                _, peak = tracemalloc.get_traced_memory()
            finally:
                tracemalloc.stop()
            tracer.peaks.append((peak, result.t.nbytes))
            return result

        return measured


def _count_eigh(tracer, args, result):
    a = args[0]
    stacked = getattr(a, "shape", (3, 3))[:-2]
    matrices = 1
    for n in stacked:
        matrices *= n
    tracer.counts["eigh_matrices"] += matrices


def _count_grid(tracer, args, result):
    inputs = sum(getattr(a, "nbytes", 0) for a in args[:4])
    tracer.counts["grid_points"] += result.size
    tracer.counts["grid_bytes"] += inputs + result.nbytes


def _count_sweep(tracer, args, result):
    tracer.counts["sweep_points"] += result.t.size


_COUNTERS = {
    "numpy.eigh": _count_eigh,
    "kernels.grid": _count_grid,
    "transmission.sweep": _count_sweep,
}


def _resolve(module_name, attr):
    """(owner object, attribute name, raw attribute) or None if absent."""
    try:
        owner = importlib.import_module(module_name)
    except ImportError:
        return None
    *path, leaf = attr.split(".")
    for part in path:
        owner = getattr(owner, part, None)
        if owner is None:
            return None
    if isinstance(owner, type):
        raw = owner.__dict__.get(leaf)
    else:
        raw = getattr(owner, leaf, None)
    if raw is None:
        return None
    return owner, leaf, raw


def install(tracer: Tracer) -> None:
    """Wrap every hook target that exists; record which were live."""
    for module_name, attr, span in HOOKS:
        key = f"{module_name}.{attr}"
        found = _resolve(module_name, attr)
        tracer.live[key] = found is not None
        if found is None:
            continue
        owner, leaf, raw = found
        if isinstance(raw, classmethod):
            setattr(owner, leaf, classmethod(tracer.wrap(span, raw.__func__)))
        else:
            setattr(owner, leaf, tracer.wrap(span, raw))


def layer_metrics(tracer: Tracer, ops: int) -> dict:
    """Per-layer values per traced operation, keyed by BENCHMARK.json name."""
    per_op = 1.0 / ops
    total, self_t, calls, counts = (tracer.total, tracer.self_time,
                                    tracer.calls, tracer.counts)
    grid_s = total["kernels.grid"]
    peak, result_bytes = max(tracer.peaks, default=(0, 0))
    return {
        "cli.self_s": self_t["cli.main"] * per_op,
        "cli.output_bytes": counts["cli_bytes"] * per_op,
        "params.config_s": total["params.config"] * per_op,
        "params.config_calls": calls["params.config"] * per_op,
        "figures.setup_s": total["figures.setup"] * per_op,
        "transmission.sweep_s": total["transmission.sweep"] * per_op,
        "transmission.self_s": self_t["transmission.sweep"] * per_op,
        "transmission.points": counts["sweep_points"] * per_op,
        "transmission.peak_alloc_mb": peak / 2 ** 20,
        "transmission.alloc_ratio": peak / result_bytes if result_bytes else 0.0,
        "kernels.grid_s": grid_s * per_op,
        "kernels.points_per_s": counts["grid_points"] / grid_s if grid_s else 0.0,
        "kernels.bytes_computed": counts["grid_bytes"] * per_op,
        "polariton.operating_point_s":
            total["polariton.operating_point"] * per_op,
        "polariton.self_s": self_t["polariton.operating_point"] * per_op,
        "polariton.brentq_s": total["scipy.brentq"] * per_op,
        "polariton.eigh_s": total["numpy.eigh"] * per_op,
        "polariton.eigh_calls": calls["numpy.eigh"] * per_op,
        "polariton.eigh_matrices": counts["eigh_matrices"] * per_op,
        "stability.floors_s": total["stability.floors"] * per_op,
        "stability.curve_self_s": self_t["stability.curve"] * per_op,
    }


def absent_spans(tracer: Tracer) -> list[str]:
    """Span names none of whose hooks could be installed."""
    live_spans = defaultdict(bool)
    for module_name, attr, span in HOOKS:
        live_spans[span] |= tracer.live.get(f"{module_name}.{attr}", False)
    return sorted(name for name, live in live_spans.items() if not live)
