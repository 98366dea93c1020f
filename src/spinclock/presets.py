"""Built-in parameter sets.

``table1_preset`` returns the two reference configurations used throughout
(the demonstrated "current" hardware set and the projected "outlook" set).
Each is stored as a flat config holding only the keys that differ from the
``params`` defaults, which ``Preset.from_config`` fills in.  The ensemble
coupling g is pinned explicitly in both; g0*sqrt(N) lands within a factor
~1.6 of it.  The discrepancy is not enforced; the library property
``SpinEnsembleParams.coupling_consistency_ratio`` gives it, and no command
prints it.

Rates the reference sets leave open are the ``params`` defaults, which both
presets inherit: microsecond-scale optical pumping (1 MHz) and a 10 ms
ensemble lifetime (gamma_0 = 100 rad/s).  The photon flux is the source
power I of the precision formula; how the source splits between the probe
and the local oscillator reaches no output, so no split is stored.
"""

from __future__ import annotations

import functools

from .params import ConfigError, Preset

_PRESETS = {
    "current": {"preset_name": "current", "g_collective_hz": 1e6,
                "dt_stab_k": 10e-3},
    "outlook": {"preset_name": "outlook", "kappa_out_hz": 50e3,
                "gamma_dephasing_hz": 1e6, "g_collective_hz": 5e6,
                "r_ratio": -0.05, "g0_single_hz": 0.3, "n_spins": 4e14,
                "photon_flux_per_s": 1e20, "dt_stab_k": 1e-3},
}

PRESET_NAMES = tuple(_PRESETS)


@functools.cache
def table1_preset(which: str) -> Preset:
    """Return the named reference parameter set ('current' or 'outlook'),
    built and checked once per process: every part of a Preset is frozen,
    so its callers can share it."""
    try:
        config = _PRESETS[which]
    except KeyError:
        raise ConfigError(
            f"unknown preset {which!r}; choose from {', '.join(_PRESETS)}"
        ) from None
    return Preset.from_config(config)


__all__ = ["PRESET_NAMES", "table1_preset"]
