"""Spectrum documents: their one reader, and the reference panels as data.

A spectrum document is what a ``spectrum`` sidecar records: a flat
``config``, the axis documents ``axis1`` and ``axis2`` and
``slice_axis1_value``, the axis1 value of a 1-D cut or null, each in its
document unit.  ``read_spectrum`` turns one into a ``FigureSetup`` in the
model's units; every CLI spectrum run and every ``figure_setup`` call goes
through it.

The four panels are stored as such documents, their axes without
``points`` and their configs holding only what differs from the ``params``
defaults: kappa = 500 kHz, g = 5 MHz per branch, no pumping and R = -0.3
(Gamma = 3 MHz is the default), and what is swept:

    2a  probe vs cavity offset, spin branches split to +/-10 MHz
    2b  probe vs cavity offset, branches nearly degenerate (+/-1 MHz)
    2c  probe vs temperature offset (+/-200 K), cavity parked at the
        closed-form insensitive detuning of g and R; 1-D slice at dT = 0
    2d  probe vs magnetic field at the insensitive detuning (pinned at
        9.25 MHz; the closed form gives 9.04 MHz, and downstream checks
        accept the whole 8.9-9.3 MHz band); 1-D slice at B = 0

Each value is written as a sidecar records it, so a 25 MHz axis end is
25 MHz through rad/s and back.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .params import (CavityParams, ConfigError, EnvironmentState, Preset,
                     SpinEnsembleParams)
from .transmission import AXIS_VARIABLES, SweepAxis
from .units import from_hz, to_hz

# Unit of each sweep variable in documents and outputs; the model holds an
# "hz" variable in rad/s and the others as they are.
_AXIS_UNIT = dict(zip(AXIS_VARIABLES, ("hz", "hz", "k", "t"), strict=True))
# A slice may sit this far, as a fraction of the axis span, from the axis1
# grid value it is cut at
_SLICE_RTOL = 1e-9


def _axis_out(variable: str, value):
    """A model value (or array) of sweep ``variable`` in its document unit."""
    return to_hz(value) if _AXIS_UNIT[variable] == "hz" else value


def _axis_in(variable: str, value):
    """A document value of sweep ``variable`` in the model's unit."""
    return from_hz(value) if _AXIS_UNIT[variable] == "hz" else value


def _axis_from_doc(doc: dict, name: str) -> SweepAxis:
    """The sweep axis of document key ``name``, or a ConfigError naming the
    key of an end that overflows in the model's unit, as typed."""
    variable = doc["variable"]
    ends = {}
    for key in ("start", "stop"):
        ends[key] = float(_axis_in(variable, doc[key]))
        if not math.isfinite(ends[key]):
            raise ConfigError(f"{name} {key!r} = {doc[key]!r} {doc['unit']} "
                              "overflows in rad/s")
    if not doc["start"] <= doc["stop"]:
        raise ConfigError(f"{name} 'start' must be <= 'stop', got "
                          f"{doc['start']!r} and {doc['stop']!r}")
    return SweepAxis(variable, ends["start"], ends["stop"], doc["points"])


@dataclass(frozen=True)
class FigureSetup:
    spins: SpinEnsembleParams
    cavity: CavityParams
    env: EnvironmentState
    axis1: SweepAxis
    axis2: SweepAxis
    slice_axis1_value: float | None  # emit row_trace() here when set


def read_spectrum(doc: dict) -> FigureSetup:
    """The parameters, axes and slice of spectrum document ``doc``, in the
    model's units.  A ConfigError names what breaks, be it a
    ``slice_axis1_value`` off the axis1 grid, as an even point count puts
    the middle of a symmetric axis.  Two axes over one variable are left
    to ``spectrum_sweep``, which rejects them."""
    preset = Preset.from_config(doc["config"])
    axis1 = _axis_from_doc(doc["axis1"], "axis1")
    axis2 = _axis_from_doc(doc["axis2"], "axis2")
    value = doc["slice_axis1_value"]
    if value is not None:
        value = _axis_in(axis1.variable, value)
        grid = axis1.grid()
        nearest = float(grid[np.argmin(np.abs(grid - value))])
        span = axis1.stop - axis1.start
        if not abs(nearest - value) <= _SLICE_RTOL * span:
            raise ConfigError(
                f"slice_axis1_value = {doc['slice_axis1_value']!r} "
                f"{doc['axis1']['unit']} is off the axis1 grid, whose nearest "
                f"value is {_axis_out(axis1.variable, nearest)!r}; a slice "
                "at the middle of an axis needs an odd point count")
    return FigureSetup(preset.spins, preset.cavity, preset.env, axis1, axis2,
                       value)


# 25 MHz through rad/s and back, as a sidecar records an axis end
_HZ_25M = 24999999.999999996


def _axis(variable: str, end: float, unit: str) -> dict:
    return {"variable": variable, "start": -end, "stop": end, "unit": unit}


def _panel(name: str, config: dict, axis1: dict, slice_value) -> dict:
    return {"config": {"preset_name": "figure-" + name, "gamma_pump_hz": 0.0,
                       "g_collective_hz": 5e6, "kappa_out_hz": 500e3,
                       "r_ratio": -0.3, **config},
            "axis1": axis1, "axis2": _axis("probe_offset", _HZ_25M, "hz"),
            "slice_axis1_value": slice_value}


_PANELS = {
    "2a": _panel("2a", {"b_field_t": 0.00035714285714285714},
                 _axis("cavity_offset", _HZ_25M, "hz"), None),
    "2b": _panel("2b", {"b_field_t": 3.571428571428572e-05},
                 _axis("cavity_offset", _HZ_25M, "hz"), None),
    "2c": _panel("2c", {"omega_c_ref_hz": 2879036961.1411505},
                 _axis("delta_T", 200.0, "k"), 0.0),
    "2d": _panel("2d", {"omega_c_ref_hz": 2879250000.0},
                 _axis("B_field", 500e-6, "t"), 0.0),
}

FIGURE_NAMES = tuple(_PANELS)


def panel_document(name: str, points: int) -> dict:
    """The spectrum document of panel ``name`` with ``points`` per axis; a
    fresh dict, which its caller may change."""
    if name not in _PANELS:
        raise ValueError(f"unknown figure {name!r}; choose from {FIGURE_NAMES}")
    panel = _PANELS[name]
    return {**panel, "config": dict(panel["config"]),
            "axis1": {**panel["axis1"], "points": points},
            "axis2": {**panel["axis2"], "points": points}}


def figure_setup(name: str, points: int = 1001) -> FigureSetup:
    """Sweep specification reproducing one spectrum panel."""
    return read_spectrum(panel_document(name, points))


__all__ = ["FIGURE_NAMES", "FigureSetup", "figure_setup", "panel_document",
           "read_spectrum"]
