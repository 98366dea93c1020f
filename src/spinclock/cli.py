"""Command-line front end: sweeps, operating-point reports, stability curves.

Every run writes its fully resolved configuration to a JSON provenance
sidecar next to the output; ``spinclock replay sidecar.json --out X``
re-executes from the sidecar and reproduces the output byte for byte.
Outputs contain no timestamps and write each value as ``repr`` of its
Python float, the shortest round-trip text, so identical configurations give
identical bytes.  CSV and JSON tables are streamed to the file in blocks of
rows, so the memory a write takes does not grow with the grid.

Every file is opened through ``_open_output``.  An existing output or sidecar
is replaced by a new file, not truncated: a hard link to the old file keeps
the old bytes, and the new file gets the default permissions.  A symlinked
``--out`` is written through to its target.

Exit codes: 0 success, 2 configuration error, 3 solver failure.  An output
that would hold a NaN or an infinity is a configuration error: nothing is
written, not even the sidecar.  So is any path of the run (``--out``, the
2c/2d slice, the sidecar) that cannot be opened, such as a directory.
"""

from __future__ import annotations

import argparse
import dataclasses
import functools
import json
import math
import os
import re
import stat
import sys
from pathlib import Path

import numpy as np

from . import __version__
from .figures import FIGURE_NAMES, figure_setup
from .params import ConfigError, _is_finite_number
from .polariton import (
    BRANCHES,
    NoOperatingPointError,
    operating_point_closed_form,
    operating_point_numeric,
)
from .presets import PRESET_NAMES, Preset, table1_preset
from .stability import environmental_floors, stability_curve
from .transmission import SweepAxis, quadrature_of, spectrum_sweep
from .units import from_hz, to_hz

# Unit of each sweep variable in documents and outputs; the model holds an
# "hz" variable in rad/s and the others as they are.
_AXIS_UNIT = {
    "probe_offset": "hz",
    "cavity_offset": "hz",
    "delta_T": "k",
    "B_field": "t",
}


def _axis_out(variable: str, value):
    """A model value (or array) of sweep ``variable`` in its document unit."""
    return to_hz(value) if _AXIS_UNIT[variable] == "hz" else value


def _axis_in(variable: str, value):
    """A document value of sweep ``variable`` in the model's unit."""
    return from_hz(value) if _AXIS_UNIT[variable] == "hz" else value


def _open_output(path: Path):
    """``path`` opened for writing UTF-8 text: the one place the CLI opens a
    file to write.

    An existing regular file is unlinked and the path created afresh, so a
    rewrite is a new file (see the module docstring): truncating a
    just-written file instead makes ext4 free its blocks and force their
    delayed allocation, which takes longer than a small request's
    computation.  A symlink or a non-regular target (a FIFO, ``/dev/stdout``)
    is written through.  The directory is created only when the open finds
    it missing.  A path that cannot be opened is a ConfigError.
    """
    try:
        try:
            if stat.S_ISREG(os.lstat(path).st_mode):
                os.unlink(path)
        except FileNotFoundError:
            pass
        try:
            return open(path, "w", encoding="utf-8")
        except FileNotFoundError:
            path.parent.mkdir(parents=True, exist_ok=True)
            return open(path, "w", encoding="utf-8")
    except OSError as exc:
        # mkdir names the parent it failed on, which need not be the output
        culprit = os.fspath(exc.filename or path)
        reason = exc.strerror if culprit == os.fspath(path) \
            else f"{culprit}: {exc.strerror}"
        raise ConfigError(f"--out: cannot write {path}: {reason}") from None


def _open_outputs(paths: list) -> list:
    """Each of ``paths`` opened through ``_open_output``, or none: on a
    failure the regular files already opened, which ``_open_output``
    created, are removed (a symlink's target is left, emptied)."""
    files = []
    try:
        for path in paths:
            files.append(_open_output(path))
    except ConfigError:
        for path, out in zip(paths, files):
            out.close()
            if stat.S_ISREG(os.lstat(path).st_mode):
                os.unlink(path)
        raise
    return files


def _text(text: str):
    """A writer of ``text`` to an open file."""
    return lambda out: out.write(text)


def _require_finite_output(values: dict) -> None:
    """ConfigError naming the first entry of ``values`` with a NaN or infinity.

    Runs before anything is written, so a run that overflows leaves neither
    an output nor a sidecar behind.
    """
    for name, value in values.items():
        if not np.isfinite(value).all():
            raise ConfigError(f"output {name!r} is not finite (an input "
                              "overflows the model); nothing written")


# Rows per table block: large enough that numpy's per-call cost is small,
# small enough that one block's strings take about a megabyte.
_BLOCK_ROWS = 4096


def _block_text(block: np.ndarray) -> list:
    """``repr`` of each value of a column block, formatting each distinct
    value once; values are keyed on their bit patterns, so -0.0 and 0.0 keep
    their own text."""
    bits, inverse = np.unique(block.view(np.int64), return_inverse=True)
    text = np.array(list(map(repr, bits.view(np.float64).tolist())),
                    dtype=object)
    return text[inverse].tolist()


def _table(header, columns, fmt: str):
    """A writer of named columns as CSV or JSON to an open file, once every
    value is checked finite."""
    _require_finite_output(dict(zip(header, columns)))
    columns = [np.asarray(col, dtype=np.float64) for col in columns]
    return functools.partial(_write_table, header=header, columns=columns,
                             fmt=fmt)


def _write_table(out, header, columns, fmt: str) -> None:
    """Write named float64 columns to the open file ``out`` as CSV or JSON,
    each value as ``repr(float(v))``.

    Both formats are written one block of ``_BLOCK_ROWS`` values per column
    at a time, so the memory a write takes does not grow with the table.
    JSON holds the bytes of ``json.dumps(table, sort_keys=True, indent=1)``,
    which also writes a float as its ``repr``: one sorted key per column.
    """
    blocks = range(0, columns[0].size, _BLOCK_ROWS)
    if fmt == "json":
        table = dict(zip(header, columns))
        out.write("{")
        for i, name in enumerate(sorted(table)):
            out.write(f"{',' if i else ''}\n {json.dumps(name)}: [")
            for start in blocks:
                out.write((",\n  " if start else "\n  ") + ",\n  ".join(
                    _block_text(table[name][start:start + _BLOCK_ROWS])))
            out.write("\n ]")
        out.write("\n}\n")
        return
    out.write(",".join(header) + "\n")
    for start in blocks:
        cells = [_block_text(col[start:start + _BLOCK_ROWS])
                 for col in columns]
        out.write("\n".join(map(",".join, zip(*cells))) + "\n")


def _axis_to_doc(axis: SweepAxis) -> dict:
    return {
        "variable": axis.variable,
        "start": _axis_out(axis.variable, axis.start),
        "stop": _axis_out(axis.variable, axis.stop),
        "points": axis.points,
        "unit": _AXIS_UNIT[axis.variable],
    }


def _axis_from_doc(doc: dict) -> SweepAxis:
    variable = doc["variable"]
    return SweepAxis(variable, float(_axis_in(variable, doc["start"])),
                     float(_axis_in(variable, doc["stop"])), doc["points"])


# --- configuration resolution ---------------------------------------------


def _base_preset(args) -> Preset:
    return table1_preset(getattr(args, "preset", None) or "current")


def _apply_overrides(preset: Preset, args, stability_mode: bool) -> Preset:
    spins, cavity, env, probe = preset.spins, preset.cavity, preset.env, preset.probe
    dT_stab = preset.dT_stab
    if getattr(args, "g_hz", None) is not None:
        spins = dataclasses.replace(spins, g_collective=from_hz(args.g_hz))
    if getattr(args, "kappa_hz", None) is not None:
        cavity = dataclasses.replace(cavity, kappa_out=from_hz(args.kappa_hz))
    if getattr(args, "R", None) is not None:
        env = dataclasses.replace(env, R_ratio=args.R)
    if getattr(args, "power_photons_per_s", None) is not None:
        flux = args.power_photons_per_s
        if flux <= 0:
            raise ConfigError("--power-photons-per-s must be > 0")
        probe = dataclasses.replace(probe, photon_flux=flux)
    if getattr(args, "dT_mk", None) is not None:
        if stability_mode:
            dT_stab = args.dT_mk * 1e-3
        else:
            env = dataclasses.replace(env, delta_T=args.dT_mk * 1e-3)
    if getattr(args, "B_nt", None) is not None and not stability_mode:
        env = dataclasses.replace(env, B_field=args.B_nt * 1e-9)
    return Preset(preset.name, spins, cavity, env, probe, dT_stab)


def _finite_flag(value: float, flag: str) -> float:
    if not math.isfinite(value):
        raise ConfigError(f"{flag} must be finite, got {value}")
    return value


def _db_stab(args) -> float:
    """Magnetic stability magnitude (T) from --B-nt in stability mode."""
    return _finite_flag(args.B_nt or 0.0, "--B-nt") * 1e-9


def _provenance(command: str, preset: Preset, args, extra: dict) -> dict:
    doc = {
        "tool": "spinclock",
        "version": __version__,
        "command": command,
        "seed": getattr(args, "seed", None),
        "config": preset.to_config(),
    }
    doc.update(extra)
    return doc


# --- spectrum ---------------------------------------------------------------


def _spectrum_from_doc(doc: dict, out: Path) -> dict:
    preset = Preset.from_config(doc["config"])
    axis1 = _axis_from_doc(doc["axis1"])
    axis2 = _axis_from_doc(doc["axis2"])
    result = spectrum_sweep(preset.spins, preset.cavity, preset.env,
                            axis1, axis2)

    v1 = _axis_out(axis1.variable, result.values1)
    v2 = _axis_out(axis2.variable, result.values2)
    n1, n2 = v1.size, v2.size
    flat = result.t.reshape(-1)
    writers = {out: _table(
        ("axis1", "axis2", "re_t", "im_t", "abs_t"),
        (
            np.repeat(v1, n2),
            np.tile(v2, n1),
            flat.real,
            flat.imag,
            np.abs(flat),
        ),
        doc["format"],
    )}

    slice_value = doc.get("slice_axis1_value")
    if slice_value is not None:
        _, grid2, row = result.row_trace(_axis_in(axis1.variable, slice_value))
        writers[_slice_path(out)] = _table(
            ("axis2", "re_t", "im_t", "abs_t", "quadrature"),
            (_axis_out(axis2.variable, grid2), row.real, row.imag,
             np.abs(row), quadrature_of(row, doc["quadrature_phase_rad"])),
            doc["format"],
        )
    return writers


def _slice_path(out: Path) -> Path:
    return out.with_name(out.stem + "_slice" + out.suffix)


def _cmd_spectrum(args) -> int:
    phase = math.radians(_finite_flag(args.quadrature_deg, "--quadrature-deg"))
    points = args.points

    if args.figure is not None:
        setup = figure_setup(args.figure, points=points)
        preset = Preset("figure-" + args.figure, setup.spins, setup.cavity,
                        setup.env, table1_preset("current").probe, 0.0)
        preset = _apply_overrides(preset, args, stability_mode=False)
        axis1, axis2 = setup.axis1, setup.axis2
        slice_value = setup.slice_axis1_value
    else:
        preset = _apply_overrides(_base_preset(args), args, stability_mode=False)
        axis1 = _parse_axis(args.axis1, points, "--axis1")
        axis2 = _parse_axis(args.axis2, points, "--axis2")
        slice_value = None

    doc = _provenance(
        "spectrum", preset, args,
        {
            "format": args.format,
            "quadrature_phase_rad": phase,
            "axis1": _axis_to_doc(axis1),
            "axis2": _axis_to_doc(axis2),
            "slice_axis1_value": (
                None if slice_value is None
                else _axis_out(axis1.variable, slice_value)
            ),
        },
    )
    return _emit(doc, Path(args.out))


def _parse_axis(spec: str | None, points: int, flag: str) -> SweepAxis:
    if spec is None:
        raise ConfigError(f"{flag} is required unless --figure is given "
                          "(format: variable:start:stop, external units)")
    parts = spec.split(":")
    if len(parts) not in (3, 4):
        raise ConfigError(f"{flag} must be variable:start:stop[:points]")
    variable = parts[0]
    if variable not in _AXIS_UNIT:
        raise ConfigError(
            f"{flag}: unknown variable {variable!r}; "
            f"choose from {', '.join(_AXIS_UNIT)}"
        )
    try:
        start, stop = float(parts[1]), float(parts[2])
        n = int(parts[3]) if len(parts) == 4 else points
    except ValueError as exc:
        raise ConfigError(f"{flag}: {exc}") from None
    return _axis_from_doc(
        {"variable": variable, "start": start, "stop": stop, "points": n})


# --- operating point ---------------------------------------------------------


def _operating_point_report(doc: dict) -> str:
    """The operating-point report of ``doc`` as JSON text."""
    preset = Preset.from_config(doc["config"])
    op = operating_point_numeric(preset.spins, preset.env, branch=doc["branch"])
    budget = environmental_floors(
        preset.spins, preset.env, op,
        dT_stab=preset.dT_stab, dB_stab=doc["db_stab_t"],
    )
    report = {
        "D_hz": to_hz(op.detuning_D),
        "branch": op.branch,
        "dnudT_residual_hz_per_K": to_hz(op.dnudT_residual),
        "curvature_hz_per_K2": to_hz(op.curvature_T),
        "curvature_hz_per_T2": to_hz(op.curvature_B),
        "thermal_floor_fractional": budget.thermal_floor,
        "magnetic_floor_fractional": budget.magnetic_floor,
        "params": doc["config"],
    }
    if preset.env.R_ratio < 0 and doc["branch"] != "middle":
        # signed (lower, upper) roots; the middle branch has no closed form
        lower, upper = operating_point_closed_form(
            preset.spins.branch_coupling, preset.env.R_ratio)
        d_closed = lower if doc["branch"] == "lower" else upper
        report["closed_form_D_hz"] = to_hz(d_closed)
        if d_closed:  # |R| = 1 puts it at 0, where no relative delta exists
            report["closed_form_delta_rel"] = \
                abs(op.detuning_D - d_closed) / abs(d_closed)
    _require_finite_output(
        {k: v for k, v in report.items() if isinstance(v, float)})
    return json.dumps(report, sort_keys=True, indent=1) + "\n"


def _cmd_operating_point(args) -> int:
    preset = _apply_overrides(_base_preset(args), args, stability_mode=True)
    doc = _provenance(
        "operating-point", preset, args,
        {"branch": args.branch, "db_stab_t": _db_stab(args)},
    )
    if args.out:
        return _emit(doc, Path(args.out))
    sys.stdout.write(_operating_point_report(doc))
    return 0


# --- stability ----------------------------------------------------------------


def _stability_from_doc(doc: dict, out: Path) -> dict:
    preset = Preset.from_config(doc["config"])
    try:
        taus = np.logspace(math.log10(doc["tau_start_s"]),
                           math.log10(doc["tau_stop_s"]), doc["tau_points"])
    except MemoryError:
        raise ConfigError(f"tau_points = {doc['tau_points']} does not fit "
                          "in memory") from None
    curve = stability_curve(preset, taus=taus, dB_stab=doc["db_stab_t"])
    n = curve.taus.size
    return {out: _table(
        ("tau_s", "sigma_total", "sigma_shot",
         "floor_thermal", "floor_magnetic", "floor_pump"),
        (
            curve.taus,
            curve.sigma_y,
            curve.sigma_shot,
            np.full(n, curve.budget.thermal_floor),
            np.full(n, curve.budget.magnetic_floor),
            np.full(n, curve.budget.pump_floor),
        ),
        doc["format"],
    )}


def _parse_tau_range(spec: str) -> tuple[float, float]:
    try:
        lo, hi = spec.split("..")
        lo, hi = float(lo), float(hi)
    except ValueError:
        raise ConfigError("--tau must look like 0.1..1e4") from None
    if not 0 < lo < hi < math.inf:
        raise ConfigError("--tau range must be positive, finite and increasing")
    return lo, hi


def _cmd_stability(args) -> int:
    preset = _apply_overrides(_base_preset(args), args, stability_mode=True)
    lo, hi = _parse_tau_range(args.tau)
    if args.tau_points < 1:
        raise ConfigError(f"--tau-points must be >= 1, got {args.tau_points}")
    doc = _provenance(
        "stability", preset, args,
        {
            "format": args.format,
            "tau_start_s": lo,
            "tau_stop_s": hi,
            "tau_points": args.tau_points,
            "db_stab_t": _db_stab(args),
        },
    )
    return _emit(doc, Path(args.out))


# --- replay -------------------------------------------------------------------


# Each sidecar value kind is a predicate with its description.
_NUMBER = (_is_finite_number, "a finite number")
_POSITIVE = (lambda v: _is_finite_number(v) and v > 0, "a finite number > 0")
_NUMBER_OR_NULL = (lambda v: v is None or _is_finite_number(v),
                   "a finite number or null")
_COUNT = (lambda v: isinstance(v, int) and not isinstance(v, bool) and v >= 1,
          "an integer >= 1")
_OBJECT = (lambda v: isinstance(v, dict), "a JSON object")


def _one_of(*values):
    return (lambda v: v in values), "one of " + ", ".join(map(repr, values))


_FORMAT = _one_of("csv", "json")
_SIDECAR_KEYS = {
    "spectrum": dict(format=_FORMAT, quadrature_phase_rad=_NUMBER, axis1=_OBJECT,
                     axis2=_OBJECT, slice_axis1_value=_NUMBER_OR_NULL),
    "stability": dict(format=_FORMAT, tau_start_s=_POSITIVE,
                      tau_stop_s=_POSITIVE, tau_points=_COUNT,
                      db_stab_t=_NUMBER),
    "operating-point": dict(branch=_one_of(*BRANCHES), db_stab_t=_NUMBER),
}
_AXIS_KEYS = dict(variable=_one_of(*_AXIS_UNIT), start=_NUMBER, stop=_NUMBER,
                  points=_COUNT)


def _require(doc: dict, where: str, kinds: dict) -> None:
    """ConfigError naming the first key of ``kinds`` missing or of another kind."""
    for key, (ok, expected) in kinds.items():
        if key not in doc:
            raise ConfigError(f"{where} has no {key!r}")
        if not ok(doc[key]):
            raise ConfigError(
                f"{where} {key!r} must be {expected}, got {doc[key]!r}")


def _finite_json_number(text: str) -> float:
    """A JSON number token as a float; NaN, Infinity and overflows are
    rejected, so the sidecar written back can hold every value read."""
    value = float(text)
    if not math.isfinite(value):
        raise ConfigError(f"{text} is not a finite number")
    return value


def _read_sidecar(path: Path) -> dict:
    """Load a sidecar and check its version and the keys its command reads."""
    try:
        doc = json.loads(path.read_text(encoding="utf-8"),
                         parse_float=_finite_json_number,
                         parse_constant=_finite_json_number)
    except (OSError, ValueError) as exc:
        raise ConfigError(f"cannot read sidecar {path}: {exc}") from None
    if not isinstance(doc, dict):
        raise ConfigError(f"sidecar {path} is not a JSON object")
    where = f"sidecar {path}"
    _require(doc, where, {"version": _one_of(__version__),
                          "command": _one_of(*_SIDECAR_KEYS), "config": _OBJECT})
    _require(doc, where, _SIDECAR_KEYS[doc["command"]])
    if doc["command"] == "spectrum":
        for axis in ("axis1", "axis2"):
            _require(doc[axis], f"{where} {axis}", _AXIS_KEYS)
    return doc


def _cmd_replay(args) -> int:
    return _emit(_read_sidecar(Path(args.sidecar)), Path(args.out))


# --- output -------------------------------------------------------------------


# Each command's runner computes the files of a document's run into ``out``:
# a writer to an open file for each path, the output's first.
_RUNNERS = {
    "spectrum": _spectrum_from_doc,
    "stability": _stability_from_doc,
    "operating-point": lambda doc, out: {
        out: _text(_operating_point_report(doc))},
}


def _emit(doc: dict, out: Path) -> int:
    """Run ``doc`` into ``out`` and its sidecar, shared by fresh runs and
    ``replay``: every file is computed, and every path opened, before the
    first byte is written, so a run that fails writes nothing."""
    writers = _RUNNERS[doc["command"]](doc, out)
    sidecar = json.dumps(doc, sort_keys=True, indent=1, allow_nan=False)
    writers[out.with_name(out.name + ".provenance.json")] = \
        _text(sidecar + "\n")
    paths = list(writers)
    for path, file in zip(paths, _open_outputs(paths)):
        with file:
            writers.pop(path)(file)  # frees a table's columns once written
    print(f"wrote {out}")
    return 0


# --- parser -------------------------------------------------------------------


def _add_common(p: argparse.ArgumentParser, stability: bool) -> None:
    p.add_argument("--preset", choices=PRESET_NAMES, default=None,
                   help="base parameter set (default: current)")
    p.add_argument("--g-hz", type=float, dest="g_hz",
                   help="override ensemble coupling g (Hz)")
    p.add_argument("--kappa-hz", type=float, dest="kappa_hz",
                   help="override cavity output rate kappa (Hz)")
    p.add_argument("--R", type=float, dest="R",
                   help="override cavity/spin thermal-coefficient ratio")
    p.add_argument("--power-photons-per-s", type=float,
                   dest="power_photons_per_s", help="override source power I")
    p.add_argument("--dT-mk", type=float, dest="dT_mk",
                   help=("temperature stability (mK)" if stability
                         else "static temperature offset (mK)"))
    p.add_argument("--B-nt", type=float, dest="B_nt",
                   help=("magnetic stability (nT)" if stability
                         else "static axial field (nT)"))
    p.add_argument("--seed", type=int, default=None,
                   help="recorded in the provenance sidecar only; "
                        "no computation uses it")


_NEGATIVE_NUMBER = re.compile(r"^-(\.?\d|inf|nan)", re.IGNORECASE)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="spinclock",
        description="Coupled spin-cavity clock model: spectra, operating "
                    "points, stability curves.",
    )
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)

    sp = sub.add_parser(
        "spectrum", help="2-D transmission sweep",
        description="Transmission grid over two swept variables. "
                    "--figure pins the reference panels: 2a/2b probe vs "
                    "cavity offset at +/-10 / +/-1 MHz spin splitting "
                    "(kappa=500 kHz, Gamma=3 MHz, g=5 MHz, probe and cavity "
                    "axes +/-25 MHz); 2c probe vs dT in [-200, 200] K at "
                    "|R|=0.3 with the cavity at the insensitive detuning; "
                    "2d probe vs B in [-500, 500] uT at the pinned "
                    "9.25 MHz detuning. 2c/2d also write a *_slice file "
                    "(the operating-point trace).",
    )
    sp.add_argument("--figure", choices=FIGURE_NAMES)
    sp.add_argument("--axis1", help="variable:start:stop[:points], "
                    "units Hz / K / T")
    sp.add_argument("--axis2", help="variable:start:stop[:points]")
    sp.add_argument("--points", type=int, default=1001,
                    help="grid points per axis (default 1001)")
    sp.add_argument("--quadrature-deg", type=float, default=90.0,
                    dest="quadrature_deg",
                    help="homodyne phase in degrees (90 = Im[t])")
    sp.add_argument("--out", required=True)
    sp.add_argument("--format", choices=("csv", "json"), default="csv")
    _add_common(sp, stability=False)
    sp.set_defaults(func=_cmd_spectrum)

    op = sub.add_parser("operating-point",
                        help="find the temperature-insensitive detuning")
    op.add_argument("--branch", choices=("lower", "middle", "upper"),
                    default="upper")
    op.add_argument("--out", default=None,
                    help="report path (default: stdout)")
    _add_common(op, stability=True)
    op.set_defaults(func=_cmd_operating_point)

    st = sub.add_parser("stability",
                        help="fractional frequency deviation vs time")
    st.add_argument("--tau", default="0.1..1e4",
                    help="integration-time range, e.g. 0.1..1e4")
    st.add_argument("--tau-points", type=int, default=81, dest="tau_points")
    st.add_argument("--out", required=True)
    st.add_argument("--format", choices=("csv", "json"), default="csv")
    _add_common(st, stability=True)
    st.set_defaults(func=_cmd_stability)

    rp = sub.add_parser("replay", help="re-run from a provenance sidecar")
    rp.add_argument("sidecar")
    rp.add_argument("--out", required=True)
    rp.set_defaults(func=_cmd_replay)

    # argparse takes "-1e-3" and "-inf" for options, since its own pattern
    # of a negative number has no exponent; no option here starts this way
    for p in (parser, sp, op, st, rp):
        p._negative_number_matcher = _NEGATIVE_NUMBER
    return parser


@functools.cache
def _parser() -> argparse.ArgumentParser:
    """The parser ``main`` uses, built on its first call.

    Building it makes one help formatter per argument, which costs more than
    a small request; parsing leaves the parser as it was, so one serves every
    call in the process.
    """
    return build_parser()


def main(argv=None) -> int:
    args = _parser().parse_args(argv)
    try:
        # an overflow surfaces as a non-finite output, which exits 2 naming
        # the column; numpy's warnings about it would only precede that line
        with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
            return args.func(args)
    except ConfigError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except NoOperatingPointError as exc:
        print(f"solver error: {exc}", file=sys.stderr)
        return 3
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
