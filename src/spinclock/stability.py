"""Measurement precision, probe bounds, noise floors and stability budgets.

Shot-noise-limited precision of a homodyne frequency measurement:

    dnu = (kappa / sqrt(tau * I)) * sqrt(1 + xi^2 / 2),   xi = kappa_l / kappa

with I the source power in photons/s and tau the integration time.
``shot_noise_fractional`` gives the 1 s value divided by the carrier (the
zero-field line center); ``stability_curve`` scales it by 1/sqrt(tau) over
its integration times.

The probe amplitude must stay low enough that the ensemble remains
polarized; per spin, beta << sqrt(kappa * gamma * (gamma + Gamma)) / (4 g0 |t|).

Environmental floors are the actual polariton shifts for static offsets of
the stabilization magnitudes, the preset's ``dT_stab`` and ``dB_stab``
(config keys ``dt_stab_k`` and ``db_stab_t``), which
``polariton.branch_shifts`` takes from the operating point's own eigenpairs,
exact to rounding of their own size; they combine with shot noise in
quadrature.  Like every eigen entry point, they refuse a spin ensemble that
the eigen model would fold.

The pump floor is the branch's shift for a relative change
``_LASER_STABILITY`` of the optical pump rate gamma.  Pumping against the
relaxation rate gamma_0 holds the fraction P = gamma / (gamma + gamma_0) of
the ensemble polarized, and g tracks sqrt(P), so

    dg/g = gamma dP/dgamma / (2 P)
         = 0.5 * (gamma_0 / (gamma + gamma_0)^2 * gamma) / P

per dgamma/gamma, and 0 where P is 0 (no pumping).  Both presets give
7.96e-6, not the nominal 1e-8 design figure.  It takes (gamma + gamma_0)^2
finite and > 0: both rates 0 leave P undefined, and rates that square to 0
or to infinity would give a wrong floor, so ``environmental_floors`` raises
a ConfigError naming ``gamma_pump_hz`` and ``gamma_relax_hz``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .params import (CavityParams, ConfigError, Preset, ProbeParams,
                     SpinEnsembleParams)
from .polariton import OperatingPoint, branch_shifts, operating_point_numeric


# Relative stability of the optical pump's power, behind the pump floor
_LASER_STABILITY = 1e-6


def _square(x: float) -> float:
    """``x ** 2``, or infinity where the square overflows a float."""
    try:
        return x ** 2
    except OverflowError:
        return math.inf


@dataclass(frozen=True)
class NoiseBudget:
    """Fractional-frequency environmental floors; floor_total is their
    quadrature sum."""

    thermal_floor: float
    magnetic_floor: float
    pump_floor: float

    @property
    def floor_total(self) -> float:
        return math.sqrt(_square(self.thermal_floor)
                         + _square(self.magnetic_floor)
                         + _square(self.pump_floor))


@dataclass(frozen=True)
class BetaBound:
    """Low-excitation probe amplitude bound."""

    beta_max: float        # sqrt(photons/s)
    beta_sq_max: float     # photons/s
    unbounded: bool


@dataclass(frozen=True)
class StabilityCurve:
    """Fractional frequency deviation vs integration time."""

    taus: np.ndarray
    sigma_y: np.ndarray
    sigma_shot: np.ndarray
    budget: NoiseBudget

    @property
    def floor_total(self) -> float:
        return self.budget.floor_total

    @property
    def crossover_tau(self) -> float:
        """Integration time where shot noise meets the environmental floor."""
        floor = self.floor_total
        if floor <= 0:
            return math.inf
        return float((self.sigma_shot[0] * math.sqrt(self.taus[0]) / floor) ** 2)


def shot_noise_fractional(
    cavity: CavityParams, probe: ProbeParams, carrier: float
) -> float:
    """dnu / nu after integrating for 1 s, against the given carrier
    frequency (rad/s), with dnu = kappa / sqrt(I) * sqrt(1 + xi^2 / 2)."""
    xi = cavity.loss_ratio
    return (cavity.kappa_out / math.sqrt(probe.photon_flux)) \
        * math.sqrt(1.0 + 0.5 * _square(xi)) / carrier


def low_excitation_bound(
    spins: SpinEnsembleParams, cavity: CavityParams, t_mag: float = 1.0
) -> BetaBound:
    """Largest probe amplitude keeping every spin class weakly excited."""
    g0 = spins.g0_single
    gamma = spins.gamma_pump
    if g0 == 0 or t_mag == 0:
        return BetaBound(math.inf, math.inf, True)
    numerator = math.sqrt(cavity.kappa_out * gamma * (gamma + spins.Gamma_deph))
    beta = numerator / (4.0 * g0 * abs(t_mag))
    return BetaBound(beta, beta ** 2, False)


def environmental_floors(preset: Preset, op: OperatingPoint) -> NoiseBudget:
    """Fractional floors for static offsets of the preset's stabilization
    magnitudes.

    Thermal and magnetic floors are the exact branch shifts for offsets of
    ``preset.dT_stab`` / ``preset.dB_stab`` from ``polariton.branch_shifts``
    (so ``op`` must come from the preset's spins and env); the pump floor
    converts laser power fluctuations of ``_LASER_STABILITY`` into a
    coupling shift through the closed form of the module docstring,
    dg/g = 0.5 * (gamma_0 / (gamma + gamma_0)^2 * gamma) / P per dgamma/gamma,
    with P = gamma / (gamma + gamma_0), and 0 where P is 0.  Unless
    (gamma + gamma_0)^2 is finite and > 0, a ConfigError names
    ``gamma_pump_hz`` and ``gamma_relax_hz``.
    """
    spins = preset.spins
    # Shifts are taken in the line-center frame (no carrier rounding), then
    # normalized by the absolute branch frequency.
    nu0, d_thermal, d_magnetic, dnu_dg = branch_shifts(
        spins, preset.env, op, preset.dT_stab, preset.dB_stab)
    thermal = abs(d_thermal) / nu0
    magnetic = abs(d_magnetic) / nu0

    gamma, gamma_0 = spins.gamma_pump, spins.gamma_0
    rates_sq = _square(gamma + gamma_0)
    if not 0 < rates_sq < math.inf:
        raise ConfigError(
            "gamma_pump_hz and gamma_relax_hz: the pump floor needs "
            "(gamma + gamma_0)^2 finite and > 0, got gamma + gamma_0 = "
            f"{gamma + gamma_0!r} rad/s")
    # in this order: the reduced gamma_0 / (2 (gamma + gamma_0)) differs in
    # the last bit for a third or more of random rate pairs
    p = gamma / (gamma + gamma_0)
    dg_over_g = 0.5 * (gamma_0 / rates_sq * gamma) / p if p > 0 else 0.0
    # Hellmann-Feynman coupling sensitivity dL/dg at the operating point.
    dg = dg_over_g * _LASER_STABILITY * spins.branch_coupling
    pump = abs(dnu_dg) * dg / nu0

    return NoiseBudget(
        thermal_floor=float(thermal),
        magnetic_floor=float(magnetic),
        pump_floor=float(pump),
    )


def stability_curve(preset: Preset, taus=None) -> StabilityCurve:
    """Fractional frequency deviation vs integration time for a preset.

    sigma_y(tau) = sqrt(sigma_shot(tau)^2 + floor^2); the shot term follows
    the exact tau^(-1/2) law, the floor is the quadrature sum of the
    environmental components at the preset's operating point.
    """
    if taus is None:
        taus = np.logspace(-1, 4, 81)
    taus = np.asarray(taus, dtype=np.float64)
    if not np.all(np.isfinite(taus) & (taus > 0)):
        raise ValueError("integration times must be finite and > 0")

    op = operating_point_numeric(preset.spins, preset.env)
    budget = environmental_floors(preset, op)
    carrier = preset.spins.omega_zfs
    sigma_1s = shot_noise_fractional(preset.cavity, preset.probe, carrier)
    sigma_shot = sigma_1s / np.sqrt(taus)
    floor = budget.floor_total
    sigma_y = np.sqrt(sigma_shot ** 2 + floor ** 2)
    return StabilityCurve(
        taus=taus, sigma_y=sigma_y, sigma_shot=sigma_shot, budget=budget
    )


__all__ = [
    "NoiseBudget",
    "BetaBound",
    "StabilityCurve",
    "shot_noise_fractional",
    "low_excitation_bound",
    "environmental_floors",
    "stability_curve",
]
