"""Command-line front end: sweeps, operating-point reports, stability curves.

Every run is a document, the JSON that its provenance sidecar next to the
output records: a fresh run turns its flags into one, and ``spinclock
replay sidecar.json --out X`` reads one and reproduces the output byte for
byte.  Either way the document is checked in one place, ``_check_document``,
and then computed, so a bad value fails alike from a flag or a sidecar, with
a message that starts with the document's name, the command or ``sidecar
<path>``, and names the document key (``--B-nt inf`` names the config key
``db_stab_t``).
A ``--figure`` run starts from its panel's stored document, and every
spectrum document is read by ``figures.read_spectrum``.
Each value's rule is a row of this module, of ``params._FIELDS`` or of
``transmission._AXIS_KEYS``, checked by ``params._require``; so a config
value out of range names its key too (``--kappa-hz 0`` names
``kappa_out_hz``), as does one that overflows only in rad/s.  A key that no
run reads exits 2.  Each flag shared by the commands sets a config key,
recorded as typed (``--g-hz 3.3e6`` is ``g_collective_hz: 3300000.0``); only
``--dT-mk`` and ``--B-nt`` are scaled, from mK and nT.
Outputs contain no timestamps and write each value as ``repr`` of its
Python float, the shortest round-trip text, so identical configurations give
identical bytes.  A CSV or JSON table is written by ``_table.write_table``,
whose docstring says how its memory grows.

Every file is opened through ``_open_output``.  An existing output or sidecar
is replaced by a new file, not truncated: a hard link to the old file keeps
the old bytes, and the new file gets the default permissions.  A symlinked
``--out`` is written through to its target.

Exit codes: 0 success, 2 configuration error, 3 solver failure.  An output
that would hold a NaN or an infinity is a configuration error: nothing is
written, not even the sidecar.  So is any path of the run (``--out``, the
2c/2d slice, the sidecar) that cannot be opened, such as a directory; a
directory fails the run before any file already in place is removed.
"""

from __future__ import annotations

import argparse
import errno
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
from ._table import write_table
from .figures import (_AXIS_UNIT, FIGURE_NAMES, _axis_out, panel_document,
                      read_spectrum)
from .params import (_COUNT, _NUMBER, _POSITIVE, ConfigError, Preset, _one_of,
                     _or_null, _require)
from .polariton import (
    BRANCHES,
    NoOperatingPointError,
    operating_point_closed_form,
    operating_point_numeric,
)
from .presets import PRESET_NAMES, table1_preset
from .stability import environmental_floors, stability_curve
from .transmission import _AXIS_KEYS, quadrature_of, spectrum_sweep
from .units import to_hz

# The output formats of spectrum and stability
_FORMATS = ("csv", "json")


def _open_output(path: Path):
    """``path`` opened for writing bytes, which every writer hands it: the
    one place the CLI opens a file to write.

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
            return open(path, "wb")
        except FileNotFoundError:
            path.parent.mkdir(parents=True, exist_ok=True)
            return open(path, "wb")
    except OSError as exc:
        # mkdir names the parent it failed on, which need not be the output
        culprit = os.fspath(exc.filename or path)
        reason = exc.strerror if culprit == os.fspath(path) \
            else f"{culprit}: {exc.strerror}"
        raise _cannot_write(path, reason) from None


def _cannot_write(path: Path, reason: str) -> ConfigError:
    return ConfigError(f"--out: cannot write {path}: {reason}")


def _open_outputs(paths: list) -> list:
    """Each of ``paths`` opened through ``_open_output``, or none: on a
    failure the regular files already opened, which ``_open_output``
    created, are removed (a symlink's target is left, emptied).  A path
    that is a directory fails before the first is opened, so that no file
    already at a path of the run is unlinked."""
    for path in paths:
        if os.path.isdir(path):
            raise _cannot_write(path, os.strerror(errno.EISDIR))
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
    """A writer of ASCII ``text``, as ``json.dumps`` gives, to a file."""
    return lambda out: out.write(text.encode())


def _require_finite_output(values: dict) -> None:
    """ConfigError naming the first entry of ``values`` with a NaN or infinity.

    Runs before anything is written, so a run that overflows leaves neither
    an output nor a sidecar behind.
    """
    for name, value in values.items():
        if not np.isfinite(value).all():
            raise ConfigError(f"output {name!r} is not finite (an input "
                              "overflows the model); nothing written")


def _table(header, columns, fmt: str):
    """A writer of named columns as CSV or JSON to an open file, once every
    value is checked finite."""
    _require_finite_output(dict(zip(header, columns)))
    columns = [np.asarray(col, dtype=np.float64) for col in columns]
    return functools.partial(write_table, header=header, columns=columns,
                             fmt=fmt)


# --- documents ----------------------------------------------------------------


# Each document value's rule besides those of params: a predicate with its
# description
_OBJECT = (lambda v: isinstance(v, dict), "a JSON object")
_SEED = (lambda v: v is None or isinstance(v, int) and not isinstance(v, bool),
         "an integer or null")
_FORMAT = _one_of(*_FORMATS)
# The keys of each command's document besides _HEADER's
_SIDECAR_KEYS = {
    "spectrum": dict(format=_FORMAT, quadrature_phase_rad=_NUMBER, axis1=_OBJECT,
                     axis2=_OBJECT, slice_axis1_value=_or_null(_NUMBER)),
    "stability": dict(format=_FORMAT, tau_start_s=_POSITIVE,
                      tau_stop_s=_POSITIVE, tau_points=_COUNT),
    "operating-point": dict(branch=_one_of(*BRANCHES)),
}
_HEADER = dict(version=_one_of(__version__), command=_one_of(*_SIDECAR_KEYS),
               config=_OBJECT)
# Keys that no computation reads, checked when present
_OPTIONAL = dict(tool=_one_of("spinclock"), seed=_SEED)


def _check_document(doc, where: str) -> None:
    """ConfigError unless ``doc`` holds the keys its command reads, each
    keeping its rule, and no other key; ``where`` names the document.

    Every run, fresh or replayed, is checked here.  Its config and the
    rules between keys are checked later, by the command's runner
    (``Preset.from_config``, ``read_spectrum``, ``spectrum_sweep``), before
    any file is opened; ``_run`` puts ``where`` in front of their errors.
    """
    if not isinstance(doc, dict):
        raise ConfigError(f"{where} is not a JSON object")
    _require(doc, where, _HEADER)
    _require(doc, where, {**_HEADER, **_SIDECAR_KEYS[doc["command"]]},
             _OPTIONAL)
    if doc["command"] != "spectrum":
        return
    for name in ("axis1", "axis2"):
        axis, at = doc[name], f"{where} {name}"
        _require(axis, at, _AXIS_KEYS)
        _require(axis, at, _AXIS_KEYS,
                 dict(unit=_one_of(_AXIS_UNIT[axis["variable"]])))


# --- spectrum ---------------------------------------------------------------


def _spectrum_from_doc(doc: dict, out: Path) -> dict:
    setup = read_spectrum(doc)
    axis1, axis2 = setup.axis1, setup.axis2
    result = spectrum_sweep(setup.spins, setup.cavity, setup.env, axis1, axis2)

    t = result.t
    v1 = _axis_out(axis1.variable, result.values1)
    v2 = _axis_out(axis2.variable, result.values2)
    writers = {out: _table(
        ("axis1", "axis2", "re_t", "im_t", "abs_t"),
        (
            np.broadcast_to(v1[:, None], t.shape),
            np.broadcast_to(v2, t.shape),
            t.real,
            t.imag,
            np.abs(t),
        ),
        doc["format"],
    )}

    if setup.slice_axis1_value is not None:
        _, grid2, row = result.row_trace(setup.slice_axis1_value)
        writers[_slice_path(out)] = _table(
            ("axis2", "re_t", "im_t", "abs_t", "quadrature"),
            (_axis_out(axis2.variable, grid2), row.real, row.imag,
             np.abs(row), quadrature_of(row, doc["quadrature_phase_rad"])),
            doc["format"],
        )
    return writers


def _slice_path(out: Path) -> Path:
    return out.with_name(out.stem + "_slice" + out.suffix)


# --- operating point ---------------------------------------------------------


def _operating_point_report(doc: dict) -> str:
    """The operating-point report of ``doc`` as JSON text."""
    preset = Preset.from_config(doc["config"])
    op = operating_point_numeric(preset.spins, preset.env, branch=doc["branch"])
    budget = environmental_floors(preset, op)
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
    if doc["branch"] != "middle":
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


# --- stability ----------------------------------------------------------------


def _stability_from_doc(doc: dict, out: Path) -> dict:
    preset = Preset.from_config(doc["config"])
    lo, hi = doc["tau_start_s"], doc["tau_stop_s"]
    if not lo < hi:
        raise ConfigError(f"tau_start_s must be < tau_stop_s, got {lo!r} "
                          f"and {hi!r}")
    try:
        taus = np.logspace(math.log10(lo), math.log10(hi), doc["tau_points"])
    except MemoryError:
        raise ConfigError(f"tau_points = {doc['tau_points']} does not fit "
                          "in memory") from None
    curve = stability_curve(preset, taus=taus)
    n = curve.taus.size
    # the floors as broadcast views, which the writer formats once
    return {out: _table(
        ("tau_s", "sigma_total", "sigma_shot",
         "floor_thermal", "floor_magnetic", "floor_pump"),
        (
            curve.taus,
            curve.sigma_y,
            curve.sigma_shot,
            np.broadcast_to(curve.budget.thermal_floor, n),
            np.broadcast_to(curve.budget.magnetic_floor, n),
            np.broadcast_to(curve.budget.pump_floor, n),
        ),
        doc["format"],
    )}


# --- fresh runs ------------------------------------------------------------------
#
# A fresh run only turns its flags into its document; every check is made on
# the document, as for a replay.


# The flags every fresh run takes, each with the config key it sets (its
# argparse dest) and its help: in spectrum, then in operating-point and
# stability.
_COMMON_FLAGS = {
    "--g-hz": [("g_collective_hz", "ensemble coupling g (Hz)")] * 2,
    "--kappa-hz": [("kappa_out_hz", "cavity output rate kappa (Hz)")] * 2,
    "--R": [("r_ratio", "cavity/spin thermal-coefficient ratio")] * 2,
    "--power-photons-per-s": [("photon_flux_per_s",
                               "source power I (photons/s)")] * 2,
    "--dT-mk": [("delta_t_k", "static temperature offset (mK)"),
                ("dt_stab_k", "temperature stability (mK)")],
    "--B-nt": [("b_field_t", "static axial field (nT)"),
               ("db_stab_t", "magnetic stability (nT)")],
}
# The flags typed in another unit than their key's; the rest are recorded
# as typed
_FLAG_SCALE = {"--dT-mk": 1e-3, "--B-nt": 1e-9}


def _document(args, preset: Preset, **keys) -> dict:
    """A fresh run's document: ``keys`` beside the preset's config, and
    each common flag given written over the config key it sets."""
    doc = {"tool": "spinclock", "version": __version__,
           "command": args.command, "seed": args.seed,
           "config": preset.to_config(), **keys}
    for flag, modes in _COMMON_FLAGS.items():
        key = modes[args.command != "spectrum"][0]
        value = getattr(args, key)
        if value is not None:
            doc["config"][key] = value * _FLAG_SCALE.get(flag, 1.0)
    return doc


def _spectrum_document(args) -> dict:
    if args.figure is None:
        preset = table1_preset(args.preset or "current")
        sweep = {"axis1": _parse_axis(args.axis1, args.points, "--axis1"),
                 "axis2": _parse_axis(args.axis2, args.points, "--axis2"),
                 "slice_axis1_value": None}
    else:
        # a figure fixes its parameters and axes
        for flag in ("--preset", "--axis1", "--axis2"):
            if getattr(args, flag.lstrip("-")) is not None:
                raise ConfigError(f"{flag} cannot be combined with --figure")
        # --points goes into the axis documents, checked like a sidecar's
        sweep = panel_document(args.figure, args.points)
        preset = Preset.from_config(sweep.pop("config"))
    return _document(args, preset, format=args.format,
                     quadrature_phase_rad=math.radians(args.quadrature_deg),
                     **sweep)


def _parse_axis(spec: str | None, points: int, flag: str) -> dict:
    """The axis document of ``--axis1`` / ``--axis2``, as typed."""
    if spec is None:
        raise ConfigError(f"{flag} is required unless --figure is given "
                          "(format: variable:start:stop, external units)")
    parts = spec.split(":")
    if len(parts) not in (3, 4):
        raise ConfigError(f"{flag} must be variable:start:stop[:points]")
    try:
        start, stop = float(parts[1]), float(parts[2])
        n = int(parts[3]) if len(parts) == 4 else points
    except ValueError as exc:
        raise ConfigError(f"{flag}: {exc}") from None
    return {"variable": parts[0], "start": start, "stop": stop, "points": n,
            "unit": _AXIS_UNIT.get(parts[0])}


def _operating_point_document(args) -> dict:
    return _document(args, table1_preset(args.preset), branch=args.branch)


def _stability_document(args) -> dict:
    try:
        lo, hi = args.tau.split("..")
        lo, hi = float(lo), float(hi)
    except ValueError:
        raise ConfigError("--tau must look like 0.1..1e4") from None
    return _document(args, table1_preset(args.preset), format=args.format,
                     tau_start_s=lo, tau_stop_s=hi,
                     tau_points=args.tau_points)


def _replay_document(args):
    """The sidecar's document as JSON reads it; ``_check_document`` checks
    it like any other."""
    path = Path(args.sidecar)
    try:
        return json.loads(path.read_text(encoding="utf-8"))
    except (OSError, ValueError, RecursionError) as exc:
        raise ConfigError(f"cannot read sidecar {path}: {exc}") from None


# --- output -------------------------------------------------------------------


# Each command's runner computes the files of a document's run into ``out``:
# a writer to an open file for each path, the output's first.
_RUNNERS = {
    "spectrum": _spectrum_from_doc,
    "stability": _stability_from_doc,
    "operating-point": lambda doc, out: {
        out: _text(_operating_point_report(doc))},
}


def _run(args) -> int:
    """Every run's one path: its document is checked, then computed into its
    files, and every path is opened before the first byte is written, so a
    run that fails writes nothing; an operating-point report without
    ``--out`` goes to stdout.  A ConfigError of the check or the computation
    starts with the document's name, the command or ``sidecar <path>``."""
    doc = args.document(args)
    where = f"sidecar {Path(args.sidecar)}" if args.command == "replay" \
        else args.command
    _check_document(doc, where)
    try:
        if args.out is None:
            sys.stdout.write(_operating_point_report(doc))
            return 0
        out = Path(args.out)
        writers = _RUNNERS[doc["command"]](doc, out)
    except ConfigError as exc:
        raise ConfigError(f"{where} {exc}") from None
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
    p.add_argument("--preset", choices=PRESET_NAMES, default="current",
                   help="base parameter set (default: current)")
    for flag, modes in _COMMON_FLAGS.items():
        key, text = modes[stability]
        p.add_argument(flag, type=float, dest=key, help=f"{text}; sets {key}",
                       metavar=flag.lstrip("-").replace("-", "_").upper())
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
                    "--figure runs a reference panel, a stored spectrum "
                    "document read like a replayed sidecar: 2a/2b probe vs "
                    "cavity offset at +/-10 / +/-1 MHz spin splitting "
                    "(kappa=500 kHz, Gamma=3 MHz, g=5 MHz, probe and cavity "
                    "axes +/-25 MHz); 2c probe vs dT in [-200, 200] K at "
                    "|R|=0.3 with the cavity at the insensitive detuning; "
                    "2d probe vs B in [-500, 500] uT at the pinned "
                    "9.25 MHz detuning. 2c/2d also write a *_slice file "
                    "(the operating-point trace at dT = 0 / B = 0), so "
                    "their --points must be odd. --power-photons-per-s "
                    "reaches only the sidecar; no spectrum output reads it.",
    )
    sp.add_argument("--figure", choices=FIGURE_NAMES,
                    help="a reference panel; it fixes the parameters and "
                         "axes, so --preset, --axis1 and --axis2 exit 2")
    sp.add_argument("--axis1", help="variable:start:stop[:points], "
                    "units Hz / K / T")
    sp.add_argument("--axis2", help="variable:start:stop[:points]")
    sp.add_argument("--points", type=int, default=1001,
                    help="grid points per axis (default 1001); 2c/2d need "
                         "an odd count, which puts a grid row on their "
                         "slice, and exit 2 otherwise")
    sp.add_argument("--quadrature-deg", type=float, default=90.0,
                    dest="quadrature_deg",
                    help="homodyne phase in degrees (90 = Im[t]); sets "
                         "quadrature_phase_rad")
    sp.add_argument("--out", required=True)
    sp.add_argument("--format", choices=_FORMATS, default="csv")
    _add_common(sp, stability=False)
    # None tells an omitted --preset, which --figure rejects, from a typed one
    sp.set_defaults(document=_spectrum_document, preset=None)

    op = sub.add_parser(
        "operating-point", help="find the temperature-insensitive detuning",
        description="Temperature-insensitive detuning of one branch, its "
                    "curvatures and environmental floors, as a JSON report. "
                    "--kappa-hz and --power-photons-per-s reach only the "
                    "sidecar and the report's params echo; stability reads "
                    "both.",
    )
    op.add_argument("--branch", choices=BRANCHES, default="upper")
    op.add_argument("--out", default=None,
                    help="report path (default: stdout)")
    _add_common(op, stability=True)
    op.set_defaults(document=_operating_point_document)

    st = sub.add_parser("stability",
                        help="fractional frequency deviation vs time")
    st.add_argument("--tau", default="0.1..1e4",
                    help="integration-time range, e.g. 0.1..1e4; sets "
                         "tau_start_s and tau_stop_s")
    st.add_argument("--tau-points", type=int, default=81, dest="tau_points")
    st.add_argument("--out", required=True)
    st.add_argument("--format", choices=_FORMATS, default="csv")
    _add_common(st, stability=True)
    st.set_defaults(document=_stability_document)

    rp = sub.add_parser("replay", help="re-run from a provenance sidecar")
    rp.add_argument("sidecar")
    rp.add_argument("--out", required=True)
    rp.set_defaults(document=_replay_document)

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
            return _run(args)
    except NoOperatingPointError as exc:
        print(f"solver error: {exc}", file=sys.stderr)
        return 3
    except ValueError as exc:  # a ConfigError among them
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
