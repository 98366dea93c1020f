"""End-to-end, layer-by-layer benchmark of spinclock.

    python3 perfbench/run.py --workload fig2a_csv|sweep_eval|design_mix \
        --seed N --seconds S --trace 0|1

Run from the root of a source checkout; the package is used from ``src``
(there is nothing to build: the numpy fallback kernel is the one that runs
when the optional compiled kernel is not built).  Each run:

1. times set-up (import plus workload inputs) in fresh interpreters, half
   before and half after the workload, and reports the median as ``setup_s``;
2. with ``--trace 1``, splits the import time by ``python -X importtime``;
3. runs the workload in one child process (``workloads.py``) with a pinned
   environment, and checks every operation's output;
4. prints every metric by name with its unit, then, as the last line, one
   JSON object: end-to-end metrics with ``--trace 0``, per-layer metrics with
   ``--trace 1``.

Exits non-zero without a result line when the checkout has no ``src``
package or a child fails.  Outputs go to ``.perfbench/`` in the checkout.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
BENCH = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8")) \
    if (ROOT / "BENCHMARK.json").is_file() else None

# Set-up probes run half before and half after the workload, so their median
# samples the host at both ends of the run.
SETUP_PROBES = 6
DEADLINE_S = 170.0      # the whole run ends within this
TAIL_MIN_BEYOND = 10    # samples required above the reported tail percentile
TAIL_LADDER = (99.9, 99.0, 95.0, 90.0, 75.0)
# Printed with the end-to-end metrics but not bounded in BENCHMARK.json:
# between runs on a shared host they swing by more than any usable bound.
UNBOUNDED_UNITS = {"latency_p50_ms": "ms", "latency_tail_ms": "ms",
                   "throughput_ops_per_s": "1/s"}

# Variables that change how spinclock or the BLAS runs are pinned: the
# SPINCLOCK_* switches are removed and every BLAS uses one thread.
_UNSET = ("SPINCLOCK_FORCE_PYTHON", "SPINCLOCK_THREADS")
_ONE_THREAD = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")


class BenchError(RuntimeError):
    pass


def _child_env() -> dict:
    env = {k: v for k, v in os.environ.items() if k not in _UNSET}
    env.update({name: "1" for name in _ONE_THREAD})
    env["PYTHONPATH"] = str(ROOT / "src")
    return env


def _remaining(start: float) -> float:
    left = DEADLINE_S - (time.perf_counter() - start)
    if left <= 0:
        raise BenchError("run exceeded its deadline")
    return left


def _child(args: list[str], start: float) -> subprocess.CompletedProcess:
    try:
        return subprocess.run(
            [sys.executable, *args], cwd=ROOT, env=_child_env(),
            capture_output=True, text=True, timeout=_remaining(start))
    except subprocess.TimeoutExpired:  # run() has killed and reaped the child
        raise BenchError(f"child timed out: {' '.join(args[:3])}") from None


def _setup_times(common: list[str], start: float, probes: int) -> list[float]:
    """Time from before the spawn until 'ready' in fresh interpreters."""
    times = []
    for _ in range(probes):
        t0 = time.monotonic()
        proc = _child([str(HERE / "workloads.py"), *common, "--setup-only"],
                      start)
        word, _, ready = proc.stdout.strip().partition(" ")
        if proc.returncode != 0 or word != "ready":
            raise BenchError("set-up probe failed:\n" + proc.stderr[-2000:])
        times.append(float(ready) - t0)
    return times


def _outermost(entries, prefix, packages=("numpy", "scipy")):
    """Cumulative import time of the outermost `prefix` modules.

    A module counts for the first of `packages` in its chain of importers,
    so numpy modules that scipy pulls in count as scipy time.
    """
    def under(name, package):
        return name == package or name.startswith(package + ".")

    total = 0
    stack = []  # (depth, name) of the importers of the current entry
    # importtime prints children before parents; walk parents first
    for depth, name, cumulative in reversed(entries):
        while stack and stack[-1][0] >= depth:
            stack.pop()
        claimed = any(under(n, p) for _, n in stack
                      for p in (prefix, *packages))
        if under(name, prefix) and not claimed:
            total += cumulative
        stack.append((depth, name))
    return total * 1e-6


def _import_split(start: float) -> dict:
    proc = _child(["-X", "importtime", "-c", "import spinclock"], start)
    if proc.returncode != 0:
        raise BenchError("import spinclock failed:\n" + proc.stderr[-2000:])
    entries = []
    for line in proc.stderr.splitlines():
        if not line.startswith("import time:") or "[us]" in line:
            continue
        _, cumulative, name = line.split("|")
        depth = (len(name) - len(name.lstrip())) // 2
        entries.append((depth, name.strip(), int(cumulative)))
    return {f"import.{mod}_s": _outermost(entries, mod)
            for mod in ("numpy", "scipy", "spinclock")}


def _nearest_rank(values, pct: float) -> float:
    ordered = sorted(values)
    return ordered[max(1, math.ceil(len(ordered) * pct / 100)) - 1]


def _tail(latencies: list[float]):
    """(percentile, value) of the highest ladder percentile with at least
    TAIL_MIN_BEYOND samples beyond it; None when the run is too short."""
    n = len(latencies)
    for pct in TAIL_LADDER:
        if n - math.ceil(n * pct / 100) >= TAIL_MIN_BEYOND:
            return pct, _nearest_rank(latencies, pct)
    return None


def _best(rounds: list[list[float]]) -> float:
    """Mean over batch positions of each position's fastest round.

    Every round is the same batch, so a position is the same operation in
    every round.  Contention from other tenants of the host only ever slows
    an operation down, and it comes and goes within seconds, so the fastest
    round of each operation shows the program's own speed.
    """
    return statistics.mean(min(position) for position in zip(*rounds))


def _rounds(raw: dict, traced: bool) -> list[list[float]]:
    return [r["latencies_s"] for r in raw["rounds"] if r["traced"] == traced]


def _end_to_end(raw: dict, setup: list[float]) -> tuple[dict, list[str]]:
    rounds = _rounds(raw, traced=False)
    lat = [x for r in rounds for x in r]
    if not lat:
        raise BenchError("no timed operation completed")
    metrics = {
        "setup_s": statistics.median(setup),
        "latency_best_ms": _best(rounds) * 1e3,
        "latency_p50_ms": statistics.median(lat) * 1e3,
        "throughput_ops_per_s": len(lat) / sum(lat),
        "peak_rss_mb": raw["peak_rss_mb"],
    }
    notes = [f"setup_s: median of {len(setup)} fresh interpreters",
             f"latency: {len(lat)} timed operations in {len(rounds)} rounds "
             "(warm-up excluded); latency_best_ms is the mean over batch "
             "positions of each position's fastest round",
             "throughput: timed operations per second of operation time"]
    tail = _tail(lat)
    if tail is None:
        notes.append(f"latency_tail_ms: not reported, {len(lat)} samples "
                     f"leave fewer than {TAIL_MIN_BEYOND} beyond "
                     f"p{TAIL_LADDER[-1]:g}")
    else:
        pct, value = tail
        metrics["latency_tail_ms"] = value * 1e3
        notes.append(f"latency_tail_ms is p{pct:g} of {len(lat)} samples")
    return metrics, notes


def _per_layer(raw: dict, imports: dict) -> tuple[dict, list[str]]:
    metrics = dict(imports)
    metrics.update(raw["layers"])
    plain, traced = _rounds(raw, traced=False), _rounds(raw, traced=True)
    overhead = _best(traced) / _best(plain) - 1.0 if traced else 0.0
    metrics["trace.overhead_frac"] = overhead
    live = sorted(k for k, v in raw["hooks_live"].items() if v)
    notes = [f"per-layer values are per traced operation; {len(traced)} "
             f"traced and {len(plain)} untraced rounds alternate, and "
             "trace.overhead_frac compares their latency_best",
             f"hooks live: {', '.join(live)}",
             "absent spans: " + (", ".join(raw["absent_spans"]) or "none"),
             "kernels.bytes_computed is computed from array sizes"]
    return metrics, notes


def _units(kind: str) -> dict:
    if BENCH is None:
        raise BenchError("BENCHMARK.json not found beside the benchmark")
    return {m["name"]: m["unit"] for m in BENCH[kind]}


def _write_trace(path: Path, args, raw: dict) -> None:
    path.parent.mkdir(parents=True, exist_ok=True)
    doc = {"workload": args.workload, "seed": args.seed,
           "environment": raw["environment"], "hooks_live": raw["hooks_live"],
           "span_fields": ["name", "op", "t0", "t1", "parent"],
           "spans": raw["spans"]}
    path.write_text(json.dumps(doc) + "\n", encoding="utf-8")


def run(args) -> dict:
    start = time.perf_counter()
    if not (ROOT / "src" / "spinclock" / "__init__.py").is_file():
        raise BenchError(f"no spinclock sources under {ROOT / 'src'}")
    out_dir = ROOT / ".perfbench"
    workdir = out_dir / f"work-{os.getpid()}"
    common = ["--workload", args.workload, "--seed", str(args.seed),
              "--workdir", str(workdir)]
    try:
        # set-up time is an end-to-end metric, the import split a layer one
        probes = 0 if args.trace else SETUP_PROBES // 2
        setup = _setup_times(common, start, probes)
        imports = _import_split(start) if args.trace else {}
        proc = _child([str(HERE / "workloads.py"), *common,
                       "--seconds", str(args.seconds),
                       "--trace", str(args.trace)], start)
        if proc.returncode != 0 or not proc.stdout.strip():
            raise BenchError("workload child failed:\n" + proc.stderr[-4000:])
        setup += _setup_times(common, start, probes)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    raw = json.loads(proc.stdout.strip().splitlines()[-1])

    failures = raw["failures"]
    failed = sum(failures.values())
    unexpected = sorted(set(failures) - set(raw["known_defects"]))
    env = raw["environment"]
    print(f"spinclock benchmark: workload={args.workload} seed={args.seed} "
          f"seconds={args.seconds} trace={args.trace}")
    print(f"environment: python {env['python']}, numpy {env['numpy']}, "
          f"scipy {env['scipy']}, backend {env['backend']}, "
          f"nproc {os.cpu_count()}, BLAS threads 1")
    if args.trace:
        metrics, notes = _per_layer(raw, imports)
        units = _units("per_layer")
        trace_path = out_dir / f"trace-{args.workload}-{args.seed}.json"
        _write_trace(trace_path, args, raw)
        notes.append(f"spans written to {trace_path.relative_to(ROOT)}")
    else:
        metrics, notes = _end_to_end(raw, setup)
        units = _units("end_to_end")
    missing = sorted(set(units) - set(metrics))
    if missing:
        raise BenchError(f"metrics not measured: {', '.join(missing)}")
    for name in units:
        print(f"  {name:<30} {metrics[name]:>16.6g} {units[name]}")
    for name, unit in UNBOUNDED_UNITS.items():
        if not args.trace and name in metrics:
            print(f"  {name:<30} {metrics[name]:>16.6g} {unit} (unbounded)")
    print(f"  {'ops_attempted':<30} {raw['attempted']:>16d}")
    print(f"  {'ops_failed':<30} {failed:>16d}")
    print(f"  {'ops_failed_frac':<30} {failed / raw['attempted']:>16.6g}")
    for reason, count in sorted(failures.items()):
        known = " (known defect)" if reason in raw["known_defects"] else ""
        print(f"    failed[{reason}] = {count}{known}")
    for note in notes:
        print("  # " + note)
    return {
        "correct": not unexpected,
        "attempted": raw["attempted"],
        "failed": failed,
        "metrics": {name: {"value": metrics[name], "unit": units[name]}
                    for name in units},
    }


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True,
                    choices=("fig2a_csv", "sweep_eval", "design_mix"))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    try:
        result = run(args)
    except BenchError as exc:
        print(f"benchmark error: {exc}", file=sys.stderr)
        return 1
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
