import dataclasses
import math
import random
from fractions import Fraction

import numpy as np
import pytest

from spinclock.params import (
    CavityParams,
    ConfigError,
    EnvironmentState,
    ProbeParams,
    SpinEnsembleParams,
)
from spinclock.polariton import (BRANCHES, _coupling_pattern, _dH_dB, _dH_dT,
                                 _solve, branch_shifts, mode_matrix,
                                 operating_point_numeric)
from spinclock.presets import table1_preset
from spinclock.stability import (
    _LASER_STABILITY,
    environmental_floors,
    low_excitation_bound,
    shot_noise_fractional,
    stability_curve,
)
from spinclock.units import from_hz, to_hz

from _oracles import exact_eigenvalue


def test_shot_noise_current_parameters():
    # kappa = 200 kHz, I = 1e18 /s, tau = 1 s, lossless cavity
    cavity = CavityParams(kappa_out=from_hz(200e3))
    probe = ProbeParams(photon_flux=1e18)
    dnu = shot_noise_fractional(cavity, probe, 1.0)  # rad/s on a unit carrier
    assert dnu == pytest.approx(from_hz(200e3) / 1e9, rel=1e-12)
    frac = shot_noise_fractional(cavity, probe, from_hz(2.87e9))
    assert frac == pytest.approx(7.0e-14, rel=0.01)


def test_shot_noise_matched_loss_factor():
    cavity_0 = CavityParams(kappa_out=from_hz(200e3))
    cavity_1 = CavityParams(kappa_out=from_hz(200e3), kappa_loss=from_hz(200e3))
    probe = ProbeParams(photon_flux=1e18)
    ratio = (shot_noise_fractional(cavity_1, probe, 1.0)
             / shot_noise_fractional(cavity_0, probe, 1.0))
    assert ratio == pytest.approx(math.sqrt(1.5), rel=1e-12)


def test_shot_noise_outlook_level():
    cavity = CavityParams(kappa_out=from_hz(50e3))
    probe = ProbeParams(photon_flux=1e20)
    frac = shot_noise_fractional(cavity, probe, from_hz(2.87e9))
    assert frac == pytest.approx(1.7e-15, rel=0.03)


def test_beta_bound_unbounded_cases():
    spins = SpinEnsembleParams()
    cavity = CavityParams()
    assert low_excitation_bound(spins, cavity, t_mag=0.0).unbounded
    free = SpinEnsembleParams(g0_single=0.0)
    assert low_excitation_bound(free, cavity).unbounded


def test_beta_bound_scalings():
    spins = SpinEnsembleParams()
    cavity = CavityParams()
    base = low_excitation_bound(spins, cavity).beta_max

    double_g0 = SpinEnsembleParams(g0_single=2 * spins.g0_single)
    assert low_excitation_bound(double_g0, cavity).beta_max \
        == pytest.approx(base / 2, rel=1e-12)

    quad_kappa = CavityParams(kappa_out=4 * cavity.kappa_out)
    assert low_excitation_bound(spins, quad_kappa).beta_max \
        == pytest.approx(2 * base, rel=1e-12)

    # gamma * (gamma + Gamma) scaling
    g, G = spins.gamma_pump, spins.Gamma_deph
    scaled = SpinEnsembleParams(gamma_pump=2 * g, Gamma_deph=G)
    expect = base * math.sqrt(2 * g * (2 * g + G) / (g * (g + G)))
    assert low_excitation_bound(scaled, cavity).beta_max \
        == pytest.approx(expect, rel=1e-12)


def test_beta_bound_magnitude_near_1e20():
    p = table1_preset("current")
    bound = low_excitation_bound(p.spins, p.cavity, t_mag=1.0)
    assert 1e19 <= bound.beta_sq_max <= 1e21


def _pump_budget(preset, **rates):
    """The floors of ``preset`` with its pump and relaxation rates replaced,
    at its own operating point."""
    spins = dataclasses.replace(preset.spins, **rates)
    return environmental_floors(dataclasses.replace(preset, spins=spins),
                                operating_point_numeric(spins, preset.env))


def test_pump_sensitivity_is_small_and_positive():
    # dg/g per dgamma/gamma, read back from the pump floor through the
    # branch's own slope in g; the rate model gives gamma_0 / (2 (gamma +
    # gamma_0)), 7.96e-6 for a 10 ms lifetime against microsecond pumping
    p = table1_preset("current")
    op = operating_point_numeric(p.spins, p.env)
    nu0, _, _, dnu_dg = branch_shifts(p.spins, p.env, op, 0.0, 0.0)
    computed = environmental_floors(p, op).pump_floor * nu0 \
        / (abs(dnu_dg) * _LASER_STABILITY * p.spins.branch_coupling)
    assert 0 < computed < 1e-3
    gamma, gamma_0 = p.spins.gamma_pump, p.spins.gamma_0
    assert computed == pytest.approx(gamma_0 / (2 * (gamma + gamma_0)),
                                     rel=1e-12)


def test_pump_floor_without_pumping_is_zero():
    # nothing polarized, P = 0: the pump's power has no coupling to move
    p = table1_preset("current")
    assert _pump_budget(p, gamma_pump=0.0).pump_floor == 0.0


@pytest.mark.parametrize("rate_hz", [0.0, 1e-170, 1e300])
def test_pump_rates_out_of_the_rate_model_are_config_error(rate_hz):
    # both rates 0 leave P undefined; (gamma + gamma_0)^2 underflows to 0 at
    # 1e-170 Hz and overflows at 1e300 Hz, where the floor would read 0
    p = table1_preset("current")
    with pytest.raises(ConfigError,
                       match="^gamma_pump_hz and gamma_relax_hz: "):
        _pump_budget(p, gamma_pump=from_hz(rate_hz), gamma_0=from_hz(rate_hz))


def test_floors_vanish_without_instability():
    # with no intrinsic relaxation dP/dgamma is 0, so the pump's power
    # fluctuations leave the coupling, and the pump floor, exactly alone
    p = table1_preset("current")
    spins = dataclasses.replace(p.spins, gamma_0=0.0)
    steady = dataclasses.replace(p, spins=spins, dT_stab=0.0, dB_stab=0.0)
    op = operating_point_numeric(spins, p.env)
    budget = environmental_floors(steady, op)
    assert budget.thermal_floor == 0.0
    assert budget.magnetic_floor == 0.0
    assert budget.pump_floor == 0.0
    assert budget.floor_total == 0.0
    # shot noise never meets a zero floor
    curve = stability_curve(steady)
    assert curve.floor_total == 0.0 and curve.crossover_tau == math.inf


def test_floors_scale_quadratically():
    p = table1_preset("current")
    op = operating_point_numeric(p.spins, p.env)
    b1 = environmental_floors(
        dataclasses.replace(p, dT_stab=10e-3, dB_stab=10e-9), op)
    b2 = environmental_floors(
        dataclasses.replace(p, dT_stab=20e-3, dB_stab=20e-9), op)
    assert b2.thermal_floor / b1.thermal_floor == pytest.approx(4.0, rel=0.01)
    assert b2.magnetic_floor / b1.magnetic_floor == pytest.approx(4.0, rel=0.01)


def test_budget_composition_and_ordering():
    p = table1_preset("current")
    op = operating_point_numeric(p.spins, p.env)
    b = environmental_floors(
        dataclasses.replace(p, dT_stab=10e-3, dB_stab=10e-9), op)
    comp_sq = b.thermal_floor ** 2 + b.magnetic_floor ** 2 + b.pump_floor ** 2
    assert b.floor_total ** 2 == pytest.approx(comp_sq, rel=1e-14)
    assert b.floor_total >= max(b.thermal_floor, b.magnetic_floor,
                                b.pump_floor)
    assert all(x >= 0 for x in (b.thermal_floor, b.magnetic_floor, b.pump_floor))


def _exact_floor(spins, env, op, dh, offset):
    """|L(H0 + offset dH) - L(H0)| / nu0, H0 the float matrix of the solve at
    the operating point taken as exact rationals, the offset added exactly
    (no rounding at ulp(D), which the float path cannot avoid)."""
    idx = BRANCHES.index(op.branch)
    p, m = _coupling_pattern(spins)
    g = spins.branch_coupling
    thermal = env.dwa_dT * env.delta_T
    zeeman = env.gyromagnetic * env.B_field
    h0 = mode_matrix(op.detuning_D + env.R_ratio * thermal, thermal + zeeman,
                     thermal - zeeman, g * p, g * m)
    exact0 = [[Fraction(x) for x in row] for row in h0.tolist()]
    exact1 = [[exact0[i][j] + Fraction(offset) * Fraction(dh[i][j])
               for j in range(3)] for i in range(3)]
    lams = np.linalg.eigvalsh(h0)
    width = 1e-3 * min(abs(lams[idx] - lams[j]) for j in range(3) if j != idx)
    l0 = exact_eigenvalue(exact0, lams[idx], width)
    l1 = exact_eigenvalue(exact1, lams[idx], width)
    return float(abs(l1 - l0) / (Fraction(spins.omega_zfs) + l0))


@pytest.mark.parametrize("name", ["current", "outlook"])
def test_floors_match_exact_rational_shift(name):
    # the floors are shifts of ~1e-5..1e-1 rad/s on eigenvalues of ~1e8
    # rad/s: against exact arithmetic they must hold to 1e-9 of themselves
    # (a difference of two displaced solves is off by up to 9e-4 on outlook)
    p = table1_preset(name)
    op = operating_point_numeric(p.spins, p.env)
    db = 10e-9
    b = environmental_floors(dataclasses.replace(p, dB_stab=db), op)
    thermal = _exact_floor(p.spins, p.env, op, _dH_dT(p.env), p.dT_stab)
    magnetic = _exact_floor(p.spins, p.env, op, _dH_dB(p.env), db)
    assert b.thermal_floor == pytest.approx(thermal, rel=1e-9, abs=0)
    assert b.magnetic_floor == pytest.approx(magnetic, rel=1e-9, abs=0)


@pytest.mark.parametrize("name", ["current", "outlook"])
def test_floors_do_not_move_with_one_ulp_of_detuning(name):
    p = table1_preset(name)
    op = operating_point_numeric(p.spins, p.env)
    p = dataclasses.replace(p, dB_stab=10e-9)
    base = environmental_floors(p, op)
    for d in (np.nextafter(op.detuning_D, -np.inf),
              np.nextafter(op.detuning_D, np.inf)):
        lam, vec = _solve(p.spins, p.env, d, p.env.delta_T, p.env.B_field,
                          _coupling_pattern(p.spins))
        moved = dataclasses.replace(op, detuning_D=float(d),
                                    lambdas_rel=lam, eigvecs=vec)
        b = environmental_floors(p, moved)
        assert b.thermal_floor == pytest.approx(base.thermal_floor, rel=1e-9)
        assert b.magnetic_floor == pytest.approx(base.magnetic_floor, rel=1e-9)


def test_operating_point_and_floors_solve_few_matrices(monkeypatch):
    # the root in closed form and floors from the root's eigenpairs: one
    # solve in all; a bracket or scan before the root, or a displaced solve
    # in the floors, fails here
    matrices = []
    eigh = np.linalg.eigh

    def counting_eigh(a):
        matrices.append(np.asarray(a).size // 9)
        return eigh(a)

    monkeypatch.setattr(np.linalg, "eigh", counting_eigh)
    rng = random.Random(7)
    cases = [(table1_preset(name), "upper", 10e-9)
             for name in ("current", "outlook")]
    for _ in range(40):  # the design_mix ranges of g, R and dB
        p = table1_preset(rng.choice(("current", "outlook")))
        p = dataclasses.replace(
            p,
            spins=dataclasses.replace(
                p.spins, g_collective=from_hz(10 ** rng.uniform(6.0, 7.0))),
            env=dataclasses.replace(p.env, R_ratio=-rng.uniform(0.03, 0.6),
                                    B_field=rng.uniform(0.0, 100e-9)))
        cases.append((p, rng.choice(("upper", "lower")),
                      rng.uniform(0.0, 100e-9)))
    for p, branch, db in cases:
        matrices.clear()
        op = operating_point_numeric(p.spins, p.env, branch)
        environmental_floors(dataclasses.replace(p, dB_stab=db), op)
        assert matrices == [1], (branch, matrices)


def test_error_floor_decreases_with_coupling_in_mhz_range():
    # stronger coupling flattens the branch: lower thermal error, mHz scale
    env = EnvironmentState(R_ratio=-0.1)
    shifts = []
    for g_hz in (1e6, 2e6, 5e6):
        spins = SpinEnsembleParams(g_collective=from_hz(g_hz), gamma_pump=0.0)
        op = operating_point_numeric(spins, env)
        shift_hz = to_hz(op.curvature_T) * 0.5 * (1e-3) ** 2  # 1 mK offset
        shifts.append(shift_hz)
    assert shifts[0] > shifts[1] > shifts[2]
    assert all(1e-6 < s < 1.0 for s in shifts)  # sub-Hz, reaching mHz scale


def test_curve_follows_inverse_sqrt_tau():
    p = table1_preset("current")
    taus = np.array([1.0, 100.0, 10000.0])
    curve = stability_curve(p, taus=taus)
    # shot-noise component scales exactly
    assert curve.sigma_shot[1] == pytest.approx(curve.sigma_shot[0] / 10,
                                                rel=1e-12)
    assert curve.sigma_shot[2] == pytest.approx(curve.sigma_shot[0] / 100,
                                                rel=1e-12)
    assert np.all(np.diff(curve.sigma_y) <= 0)


def test_curve_sigma_at_one_second_current():
    p = table1_preset("current")
    curve = stability_curve(p, taus=np.array([1.0]))
    assert curve.sigma_shot[0] == pytest.approx(7.0e-14, rel=0.01)


def test_curve_total_at_one_second_current():
    # The abstract's "below 1e-13 at 1 s" holds for the shot noise alone
    # (6.97e-14, criterion 1).  The total sits at the 10 mK thermal floor,
    # 4.1935e-12, which outweighs the shot noise 60-fold at 1 s and
    # dominates from about 0.28 ms on; the magnetic floor is 0 at
    # dB_stab = 0 and the pump floor is 2.3e-15.
    p = table1_preset("current")
    curve = stability_curve(p, taus=np.array([1.0]))
    assert curve.budget.thermal_floor == pytest.approx(4.1935e-12, rel=1e-4)
    assert curve.sigma_y[0] == pytest.approx(4.194e-12, rel=1e-3)


def test_curve_monotonic_in_power_and_kappa():
    import dataclasses

    p = table1_preset("current")
    tau = np.array([1.0])
    base = stability_curve(p, taus=tau).sigma_shot[0]

    more_power = dataclasses.replace(
        p, probe=dataclasses.replace(p.probe, photon_flux=4e18)
    )
    assert stability_curve(more_power, taus=tau).sigma_shot[0] \
        == pytest.approx(base / 2, rel=1e-12)

    wider = dataclasses.replace(
        p, cavity=dataclasses.replace(p.cavity, kappa_out=2 * p.cavity.kappa_out)
    )
    assert stability_curve(wider, taus=tau).sigma_shot[0] \
        == pytest.approx(2 * base, rel=1e-12)


def test_curve_flattens_at_floor():
    p = table1_preset("outlook")
    curve = stability_curve(p)
    floor = curve.floor_total
    assert floor > 0
    assert curve.sigma_y[-1] == pytest.approx(floor, rel=1e-4)
    assert math.isfinite(curve.crossover_tau) and curve.crossover_tau > 0


def test_curve_rejects_bad_tau():
    p = table1_preset("current")
    with pytest.raises(ValueError):
        stability_curve(p, taus=np.array([0.0, 1.0]))


@pytest.mark.parametrize("tau", [math.nan, math.inf])
def test_curve_rejects_non_finite_tau(tau):
    # a NaN passes a "<= 0" test, and an infinite time gives a point that
    # is the floor alone
    with pytest.raises(ValueError, match="finite and > 0"):
        stability_curve(table1_preset("current"), taus=[tau, 1.0])
