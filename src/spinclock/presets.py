"""Built-in parameter sets.

``table1_preset`` returns the two reference configurations used throughout
(the demonstrated "current" hardware set and the projected "outlook" set).
The ensemble coupling g is pinned explicitly in both; g0*sqrt(N) lands within
a factor ~1.6 of it and the discrepancy is reported via
``SpinEnsembleParams.coupling_consistency_ratio`` rather than enforced.

Rates the reference sets leave open (optical pump rate, intrinsic 1/T1) are
pinned here: microsecond-scale pumping and a 10 ms ensemble lifetime.
"""

from __future__ import annotations

import functools

from .params import (
    CavityParams,
    ConfigError,
    EnvironmentState,
    Preset,
    ProbeParams,
    SpinEnsembleParams,
)
from .units import from_hz

_T1_SECONDS = 10e-3


def _build(name, kappa_hz, Gamma_hz, g_hz, R, g0_hz, n_spins, flux, dT_stab):
    omega_zfs = from_hz(2.87e9)
    spins = SpinEnsembleParams(
        omega_zfs=omega_zfs,
        gamma_pump=from_hz(1e6),
        Gamma_deph=from_hz(Gamma_hz),
        gamma_0=1.0 / _T1_SECONDS,
        g0_single=from_hz(g0_hz),
        n_spins=n_spins,
        g_collective=from_hz(g_hz),
    )
    cavity = CavityParams(
        omega_c_ref=omega_zfs,
        kappa_out=from_hz(kappa_hz),
        kappa_loss=0.0,
    )
    env = EnvironmentState(R_ratio=R)
    # flux is the source power I of the precision formula; how the source
    # splits between the probe and the local oscillator reaches no output,
    # so no split is stored
    return Preset(name, spins, cavity, env, ProbeParams(flux), dT_stab)


_PRESETS = {
    "current": dict(
        kappa_hz=200e3, Gamma_hz=3e6, g_hz=1e6, R=-0.1,
        g0_hz=0.1, n_spins=2.5e14, flux=1e18, dT_stab=10e-3,
    ),
    "outlook": dict(
        kappa_hz=50e3, Gamma_hz=1e6, g_hz=5e6, R=-0.05,
        g0_hz=0.3, n_spins=4e14, flux=1e20, dT_stab=1e-3,
    ),
}

PRESET_NAMES = tuple(_PRESETS)


@functools.cache
def table1_preset(which: str) -> Preset:
    """Return the named reference parameter set ('current' or 'outlook'),
    built and checked once per process: every part of a Preset is frozen,
    so its callers can share it."""
    try:
        spec = _PRESETS[which]
    except KeyError:
        raise ConfigError(
            f"unknown preset {which!r}; choose from {', '.join(_PRESETS)}"
        ) from None
    return _build(which, **spec)


__all__ = ["PRESET_NAMES", "table1_preset"]
