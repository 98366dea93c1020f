"""Workload child: build one workload from a seed, run it, check every operation.

    python3 perfbench/workloads.py --workload design_mix --seed 1 \
        --seconds 20 --trace 0 [--setup-only]

Run from the root of a source checkout with ``src`` on ``PYTHONPATH``;
``run.py`` starts it with a pinned environment.  Each workload is a closed
loop: one client issues the next call as soon as the previous one returns.
The calls come in rounds, each round the same seeded batch, so per-operation
counts repeat exactly for a seed.  Warm-up rounds run first; their latencies
are dropped but their operations are checked and counted.

The last line of stdout is one JSON object with the raw measurements.
``--setup-only`` stops after the imports and the inputs are built and prints
``ready <time.monotonic()>``; the system-wide monotonic clock lets the parent
time set-up from before the spawn in a fresh interpreter.
"""

from __future__ import annotations

import argparse
import contextlib
import csv
import dataclasses
import hashlib
import io
import json
import math
import random
import resource
import sys
import time
from pathlib import Path

import numpy as np

import spinclock
import spinclock.cli
import spinclock.transmission
from spinclock.figures import figure_setup
from spinclock.params import instantaneous_frequencies
from spinclock.units import from_hz

POINTS = 1001          # sweep_eval grid per axis, as in the figure panels
FIG2A_POINTS = 301     # fig2a_csv grid per axis; see Fig2aCsv
RTOL = 1e-12
T_MAX = 1.0 + 1e-15     # |t| <= 1, with one rounding step of slack
D_RTOL = 0.02           # acceptance criterion 2's tolerance on D

# sha256 of `spectrum --figure 2a --points 301 --format csv`; the CSV does not
# depend on --seed (only the sidecar records it).
FIG2A_SHA256 = "d177a643c109b48f335fb923ce31dc863c4c31d719dd96b2010c2c2cd80c7b06"

# Failures the program is known to produce.  They are counted in `failed` but
# do not make the run incorrect: `closed_form_field` is the lower-branch
# `closed_form_delta_rel` of 2.0 from `cli._operating_point_doc`, which
# compares the signed lower root with abs() of the upper one.
KNOWN_DEFECTS = frozenset({"closed_form_field"})


def _cli(argv: list[str]) -> int:
    """In-process CLI call with its stdout and stderr captured."""
    sink = io.StringIO()
    with contextlib.redirect_stdout(sink), contextlib.redirect_stderr(sink):
        return spinclock.cli.main(argv)


def _scalar_t(setup, v1: float, v2: float) -> complex:
    """Reference t at one grid point from the scalar per-point path."""
    spins, cavity, env = setup.spins, setup.cavity, setup.env
    variable = setup.axis1.variable
    if variable == "cavity_offset":
        cavity = dataclasses.replace(cavity, omega_c_ref=spins.omega_zfs + v1)
    elif variable == "delta_T":
        env = dataclasses.replace(env, delta_T=v1)
    else:
        env = dataclasses.replace(env, B_field=v1)
    omega = spins.omega_zfs + v2
    _, _, omega_c = instantaneous_frequencies(spins, cavity, env)
    c = spinclock.transmission.susceptibility(spins, env, omega)
    return complex(spinclock.transmission.transmission_amplitude(
        cavity, c, omega, omega_c))


def _matches(value: complex, ref: complex) -> bool:
    return abs(value - ref) <= RTOL * abs(ref) and abs(value) <= T_MAX


def _sha256(path: Path) -> str:
    digest = hashlib.sha256()
    with path.open("rb") as fh:
        for block in iter(lambda: fh.read(1 << 20), b""):
            digest.update(block)
    return digest.hexdigest()


class Fig2aCsv:
    """The documented figure run, through the in-process CLI.

    At the default 1001 points one call takes 6-10 s, so a run holds only 3-4
    calls and a slow stretch of the host covers all of them.  At 301 points
    the CLI does the same work in the same proportions (the CSV writer ~95%)
    in under a second, and a run holds enough calls to measure steadily.
    """

    samples = 24
    # Each call builds and writes everything afresh and the first call is
    # no slower than later ones, so no warm-up round is spent on it.
    warmup_rounds = 0

    def __init__(self, seed: int, workdir: Path):
        rng = random.Random(seed)
        self.out = workdir / "fig2a.csv"
        self.argv = ["spectrum", "--figure", "2a", "--points",
                     str(FIG2A_POINTS),
                     "--format", "csv", "--out", str(self.out),
                     "--seed", str(seed)]
        self.rows = sorted(rng.sample(range(FIG2A_POINTS ** 2), self.samples))
        self.setup = figure_setup("2a", points=FIG2A_POINTS)
        self.rows_checked = False

    def batch(self):
        return [None]

    def output_bytes(self, op):
        return _size(self.out, _sidecar(self.out))

    def run(self, op):
        return _cli(self.argv)

    def check(self, op, rc):
        if rc != 0:
            return "exit_code"
        if not _sidecar(self.out).is_file():
            return "sidecar_missing"
        if _sha256(self.out) != FIG2A_SHA256:
            return "sha256"
        if not self.rows_checked:
            self.rows_checked = True
            return self._check_rows()
        return None

    def _check_rows(self):
        """Parse seeded rows and compare them with the scalar path."""
        wanted = iter(self.rows)
        target = next(wanted)
        with self.out.open(encoding="utf-8") as fh:
            next(fh)
            for index, line in enumerate(fh):
                if index != target:
                    continue
                v1, v2, re_t, im_t, abs_t = map(float, line.split(","))
                ref = _scalar_t(self.setup, from_hz(v1), from_hz(v2))
                if not (_matches(complex(re_t, im_t), ref)
                        and abs(abs_t - abs(ref)) <= RTOL * abs(ref)):
                    return "csv_value"
                target = next(wanted, None)
                if target is None:
                    return None
        return "csv_rows"


def _sidecar(out: Path) -> Path:
    return out.with_name(out.name + ".provenance.json")


def _size(*paths: Path) -> int:
    return sum(p.stat().st_size for p in paths if p.is_file())


class SweepEval:
    """Library `spectrum_sweep` on the pinned 2a/2c/2d setups, no file output."""

    figures = ("2a", "2c", "2d")
    samples = 16
    warmup_rounds = 1

    def __init__(self, seed: int, workdir: Path):
        rng = random.Random(seed)
        self.setups = {name: figure_setup(name, points=POINTS)
                       for name in self.figures}
        order = list(self.figures) * 2
        rng.shuffle(order)
        self.ops = [
            (name, [(rng.randrange(POINTS), rng.randrange(POINTS))
                    for _ in range(self.samples)])
            for name in order
        ]

    def batch(self):
        return self.ops

    def output_bytes(self, op):
        return 0

    def run(self, op):
        s = self.setups[op[0]]
        result = spinclock.transmission.spectrum_sweep(
            s.spins, s.cavity, s.env, s.axis1, s.axis2)
        row = None
        if s.slice_axis1_value is not None:
            row = result.row_trace(s.slice_axis1_value)
        return result, row

    def check(self, op, outcome):
        name, points = op
        s = self.setups[name]
        result, row = outcome
        if result.t.shape != (POINTS, POINTS):
            return "shape"
        if not float(np.abs(result.t).max()) <= T_MAX:
            return "t_above_one"
        for i, j in points:
            ref = _scalar_t(s, result.values1[i], result.values2[j])
            if not _matches(complex(result.t[i, j]), ref):
                return "sweep_value"
        if row is not None:
            value, grid2, t_row = row
            i = int(np.argmin(np.abs(result.values1 - s.slice_axis1_value)))
            if value != result.values1[i] or not np.array_equal(t_row,
                                                                result.t[i]):
                return "row_trace"
            for _, j in points[:4]:
                if not _matches(complex(t_row[j]),
                                _scalar_t(s, value, grid2[j])):
                    return "row_trace"
        return None


@dataclasses.dataclass
class Request:
    kind: str             # operating-point | stability | replay | no-root
    argv: list
    out: Path
    expect: dict


class DesignMix:
    """A seeded stream of small CLI requests of a designer's session."""

    # Requests per round.  Replays re-run the latest sidecar written before
    # them in the round; no-root requests have R >= 0 and must exit 3.
    mix = {"upper": 8, "lower": 8, "stability": 14, "replay": 6, "no-root": 4}
    warmup_rounds = 1

    def __init__(self, seed: int, workdir: Path):
        rng = random.Random(seed)
        kinds = [k for k, n in self.mix.items() for _ in range(n)]
        rng.shuffle(kinds)
        # a replay needs a written sidecar before it
        first = next(i for i, k in enumerate(kinds)
                     if k in ("upper", "lower", "stability"))
        kinds.insert(0, kinds.pop(first))
        self.requests = []
        last_written = None
        for index, kind in enumerate(kinds):
            if kind == "replay":
                out = workdir / f"r{index}_replay{last_written.out.suffix}"
                argv = ["replay", str(_sidecar(last_written.out)),
                        "--out", str(out)]
                req = Request(kind, argv, out, {"original": last_written.out})
            elif kind == "stability":
                req = self._stability(rng, workdir / f"r{index}.csv")
                last_written = req
            else:
                req = self._operating_point(rng, kind,
                                            workdir / f"r{index}.json")
                if kind != "no-root":
                    last_written = req
            self.requests.append(req)

    @staticmethod
    def _operating_point(rng, kind, out):
        g_hz = 10 ** rng.uniform(6.0, 7.0)
        if kind == "no-root":
            r = rng.uniform(0.05, 0.5)
            branch = rng.choice(("upper", "lower"))
        else:
            r = -rng.uniform(0.03, 0.6)
            branch = kind
        argv = ["operating-point", "--preset",
                rng.choice(("current", "outlook")),
                "--branch", branch, "--g-hz", repr(g_hz), "--R", repr(r),
                "--kappa-hz", repr(10 ** rng.uniform(math.log10(5e4), 6.0)),
                "--dT-mk", repr(rng.uniform(0.5, 20.0)),
                "--B-nt", repr(rng.uniform(0.0, 100.0)),
                "--out", str(out)]
        root = math.sqrt(2.0) * g_hz * (math.sqrt(-r) - 1 / math.sqrt(-r)) \
            if r < 0 else None
        expect = {"D_hz": -root if branch == "upper" else root} \
            if root is not None else {}
        return Request(kind if kind == "no-root" else "operating-point",
                       argv, out, expect)

    @staticmethod
    def _stability(rng, out):
        lo = 10 ** rng.uniform(-2.0, 0.0)
        hi = 10 ** rng.uniform(3.0, 5.0)
        points = rng.randrange(41, 162)
        argv = ["stability", "--preset", rng.choice(("current", "outlook")),
                "--tau", f"{lo!r}..{hi!r}", "--tau-points", str(points),
                "--dT-mk", repr(10 ** rng.uniform(-1.0, math.log10(20.0))),
                "--B-nt", repr(rng.uniform(0.0, 200.0)),
                "--power-photons-per-s", repr(10 ** rng.uniform(16.0, 20.0))]
        if rng.random() < 0.5:
            argv += ["--g-hz", repr(10 ** rng.uniform(6.0, 7.0))]
        argv += ["--out", str(out)]
        return Request("stability", argv, out,
                       {"tau": (lo, hi), "points": points})

    def batch(self):
        return self.requests

    def output_bytes(self, req):
        return _size(req.out, _sidecar(req.out))

    def run(self, req):
        return _cli(req.argv)

    def check(self, req, rc):
        if req.kind == "no-root":
            return None if rc == 3 else "no_root_exit"
        if rc != 0:
            return "exit_code"
        if req.kind == "replay":
            same = req.out.read_bytes() == req.expect["original"].read_bytes()
            return None if same else "replay_bytes"
        if req.kind == "stability":
            return _check_stability(req)
        report = json.loads(req.out.read_text(encoding="utf-8"))
        want = req.expect["D_hz"]
        if not abs(report["D_hz"] - want) <= D_RTOL * abs(want):
            return "operating_point"
        if not report.get("closed_form_delta_rel", math.inf) <= D_RTOL:
            return "closed_form_field"
        return None


def _check_stability(req):
    with req.out.open(encoding="utf-8", newline="") as fh:
        rows = [[float(v) for v in row] for row in list(csv.reader(fh))[1:]]
    lo, hi = req.expect["tau"]
    if (len(rows) != req.expect["points"]
            or not math.isclose(rows[0][0], lo, rel_tol=RTOL)
            or not math.isclose(rows[-1][0], hi, rel_tol=RTOL)):
        return "tau_grid"
    previous = math.inf
    for _, sigma, _, thermal, magnetic, pump in rows:
        if sigma > previous:
            return "sigma_increasing"
        if sigma < math.sqrt(thermal ** 2 + magnetic ** 2 + pump ** 2):
            return "below_floor"
        previous = sigma
    return None


WORKLOADS = {"fig2a_csv": Fig2aCsv, "sweep_eval": SweepEval,
             "design_mix": DesignMix}


def _environment() -> dict:
    """Versions and backend; scipy and active_backend may be removed."""
    try:
        import scipy
        scipy_version = scipy.__version__
    except ImportError:
        scipy_version = "absent"
    backend = getattr(spinclock, "active_backend", None)
    return {
        "python": sys.version.split()[0],
        "numpy": np.__version__,
        "scipy": scipy_version,
        "backend": backend() if backend else "absent",
        "spinclock_file": spinclock.__file__,
    }


def run_workload(workload, seconds: float, tracer) -> dict:
    """Warm-up rounds, then whole rounds until `seconds` have passed.

    Returns the latencies of each timed round, in batch order, so that the
    parent can compare the same operation across rounds.
    """
    failures: dict[str, int] = {}
    attempted = 0

    def one_round(traced):
        nonlocal attempted
        latencies = []
        for op in workload.batch():
            if tracer is not None:
                tracer.on = traced
                tracer.op += traced
            t0 = time.perf_counter()
            try:
                outcome = workload.run(op)
                reason = None
            except Exception as exc:  # an operation that raises is failed
                reason = "exception:" + type(exc).__name__
            latencies.append(time.perf_counter() - t0)
            if tracer is not None:
                tracer.on = False
            if reason is None:
                reason = workload.check(op, outcome)
                del outcome  # a sweep result is not kept alive into the next
            attempted += 1
            if reason is not None:
                failures[reason] = failures.get(reason, 0) + 1
            if traced:
                tracer.counts["cli_bytes"] += workload.output_bytes(op)
        return latencies

    for _ in range(workload.warmup_rounds):
        one_round(traced=False)
    rounds = []
    start = time.perf_counter()
    while time.perf_counter() - start < seconds:
        # traced runs alternate untraced and traced rounds, which gives the
        # tracing overhead from the same operations
        traced = tracer is not None and len(rounds) % 2 == 1
        rounds.append({"traced": traced, "latencies_s": one_round(traced)})
    return {"rounds": rounds, "attempted": attempted, "failures": failures,
            "known_defects": sorted(KNOWN_DEFECTS)}


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", choices=WORKLOADS, required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, default=20.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--workdir", required=True)
    ap.add_argument("--setup-only", action="store_true")
    args = ap.parse_args(argv)

    workdir = Path(args.workdir)
    workdir.mkdir(parents=True, exist_ok=True)
    workload = WORKLOADS[args.workload](args.seed, workdir)
    if args.setup_only:
        print(f"ready {time.monotonic()!r}")
        return 0

    tracer = None
    if args.trace:
        import tracing

        tracer = tracing.Tracer()
        tracing.install(tracer)
    result = run_workload(workload, args.seconds, tracer)
    result["peak_rss_mb"] = \
        resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    result["environment"] = _environment()
    if tracer is not None:
        result["layers"] = tracing.layer_metrics(tracer, max(tracer.op, 1))
        result["hooks_live"] = tracer.live
        result["absent_spans"] = tracing.absent_spans(tracer)
        result["spans"] = tracer.spans
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
