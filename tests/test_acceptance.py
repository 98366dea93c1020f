"""Acceptance suite: one test per release criterion, one printed verdict each.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the verdict lines
and the recorded (non-asserted) comparisons.
"""

import math
import time

import numpy as np
import pytest

from spinclock.cli import main as cli_main
from spinclock.params import (
    CavityParams,
    EnvironmentState,
    SpinEnsembleParams,
)
from spinclock.figures import figure_setup
from spinclock.polariton import (
    mode_matrix,
    operating_point_closed_form,
    operating_point_numeric,
)
from spinclock.presets import table1_preset
from spinclock.stability import (
    low_excitation_bound,
    shot_noise_fractional,
    stability_curve,
)
from spinclock.transmission import spectrum_sweep
from spinclock.units import from_hz, to_hz

from _oracles import (
    branch_frequency_at,
    dnu_dT,
    dnu_dT_central_difference,
    eigenfrequencies,
    magnetic_response,
    polariton_energies_degenerate,
)

ZFS = from_hz(2.87e9)


def _verdict(num, ok, detail):
    print(f"CRITERION {num:2d} {'PASS' if ok else 'FAIL'} - {detail}")
    assert ok, f"criterion {num}: {detail}"


def test_criterion_01_shot_noise_level_and_runtime():
    p = table1_preset("current")
    assert p.cavity.kappa_loss == 0.0
    shot_noise_fractional(p.cavity, p.probe, p.spins.omega_zfs)  # warm up
    t0 = time.perf_counter()
    frac = shot_noise_fractional(p.cavity, p.probe, p.spins.omega_zfs)
    elapsed = time.perf_counter() - t0
    ok = (abs(frac - 7.0e-14) <= 0.2 * 7.0e-14) and frac < 1e-13 \
        and elapsed < 1e-3
    _verdict(1, ok,
             f"sigma(1 s) = {frac:.3e} (target 7.0e-14 +/-20%, < 1e-13), "
             f"runtime {elapsed * 1e6:.1f} us")


def test_criterion_02_operating_point_location():
    spins = SpinEnsembleParams(g_collective=from_hz(5e6), gamma_pump=0.0)
    env = EnvironmentState(R_ratio=-0.3)
    op = operating_point_numeric(spins, env)
    d_hz = to_hz(op.detuning_D)
    d_closed = abs(operating_point_closed_form(spins.branch_coupling, -0.3)[0])
    rel = abs(op.detuning_D - d_closed) / d_closed
    ok = 8.9e6 <= d_hz <= 9.3e6 and rel <= 0.02
    _verdict(2, ok,
             f"root D = {d_hz / 1e6:.4f} MHz in [8.9, 9.3], "
             f"closed-form delta {rel * 100:.3f}% (<= 2%)")


def test_criterion_03_first_order_cancellation_and_recovery():
    spins = SpinEnsembleParams(g_collective=from_hz(5e6), gamma_pump=0.0)
    env = EnvironmentState(R_ratio=-0.3)
    a = from_hz(77e3)
    op = operating_point_numeric(spins, env)
    resid = abs(op.dnudT_residual)

    def slope_at(d):
        cavity = CavityParams(omega_c_ref=ZFS + d, kappa_out=1.0)
        return abs(dnu_dT(spins, cavity, env, "upper"))

    away_hi = slope_at(op.detuning_D + from_hz(10e6))
    away_lo = slope_at(op.detuning_D - from_hz(10e6))
    ok = resid <= 1e-6 * a and away_hi >= 0.1 * a and away_lo >= 0.1 * a
    _verdict(3, ok,
             f"|dnu/dT| at D: {resid / a:.2e} x bare (<= 1e-6); "
             f"+/-10 MHz away: {away_lo / a:.2f}, {away_hi / a:.2f} x bare "
             f"(>= 0.1)")


def test_criterion_04_magnetic_insensitivity():
    p = table1_preset("current")
    op = operating_point_numeric(p.spins, p.env)
    cavity = CavityParams(omega_c_ref=ZFS + op.detuning_D,
                          kappa_out=p.cavity.kappa_out)
    slope, curv = magnetic_response(p.spins, cavity, p.env, "upper")
    slope_rel = abs(slope) / p.env.gyromagnetic

    nu0 = branch_frequency_at(p.spins, p.env, op.detuning_D, "upper")
    ratios = []
    for b in np.geomspace(10e-9, 100e-9, 6):
        shift = branch_frequency_at(p.spins, p.env, op.detuning_D, "upper",
                                    b_field=b) - nu0
        ratios.append(shift / b ** 2)
    quad_dev = max(abs(r / ratios[0] - 1.0) for r in ratios)
    shift_10nt_hz = to_hz(ratios[0] * (10e-9) ** 2)
    ok = slope_rel <= 1e-9 and quad_dev <= 0.01
    _verdict(4, ok,
             f"dnu/dB(0)/gyro = {slope_rel:.1e} (<= 1e-9); quadratic over "
             f"[10, 100] nT to {quad_dev * 100:.2f}% (<= 1%); "
             f"shift(10 nT) = {shift_10nt_hz * 1e3:.2f} mHz")


def test_criterion_05_eigen_closed_form_equivalence():
    rng = np.random.default_rng(2024)
    worst = 0.0
    for _ in range(1000):
        omega_a = from_hz(rng.uniform(1e9, 5e9))
        omega_c = omega_a + from_hz(rng.uniform(-50e6, 50e6))
        g = from_hz(rng.uniform(0.1e6, 10e6))
        lam = np.linalg.eigvalsh(mode_matrix(
            omega_c - omega_a, 0.0, 0.0, g, g))
        nu_p, nu_m = polariton_energies_degenerate(omega_c, omega_a, g, g)
        worst = max(worst,
                    abs(lam[2] + omega_a - nu_p) / nu_p,
                    abs(lam[0] + omega_a - nu_m) / nu_m)

    g = from_hz(1e6)
    spins = SpinEnsembleParams(g_collective=g, gamma_pump=0.0)
    sol = eigenfrequencies(spins, CavityParams(omega_c_ref=ZFS, kappa_out=1.0),
                           EnvironmentState())
    split = sol.branch("upper") - sol.branch("lower")
    split_rel = abs(split - 2 * math.sqrt(2) * g) / (2 * math.sqrt(2) * g)
    ok = worst <= 1e-10 and split_rel <= 1e-9
    _verdict(5, ok,
             f"worst eigen-vs-closed-form over 1000 draws: {worst:.2e} "
             f"(<= 1e-10); resonant splitting off 2*sqrt(2)g by "
             f"{split_rel:.2e} (<= 1e-9)")


def test_criterion_06_derivative_oracle():
    rng = np.random.default_rng(99)
    worst = 0.0
    checked = 0
    while checked < 100:
        off = from_hz(rng.uniform(-40e6, 40e6))
        g_hz = rng.uniform(1e6, 8e6)
        r = rng.uniform(-1.0, 1.0)
        branch = ("lower", "upper")[checked % 2]
        env = EnvironmentState(R_ratio=r)
        spins = SpinEnsembleParams(g_collective=from_hz(g_hz), gamma_pump=0.0)
        cavity = CavityParams(omega_c_ref=ZFS + off, kappa_out=1.0)
        analytic = dnu_dT(spins, cavity, env, branch)
        if abs(analytic) < 0.01 * env.dwa_dT:
            continue  # exact-cancellation region is criterion 3's job
        for h in (1e-4, 1e-3, 1e-2):
            fd = dnu_dT_central_difference(spins, env, off, branch, h)
            worst = max(worst, abs(fd - analytic) / abs(analytic))
        checked += 1
    ok = worst <= 1e-6
    _verdict(6, ok,
             f"worst analytic-vs-central-difference over {checked} draws x "
             f"3 decades of step: {worst:.2e} (<= 1e-6)")


def test_criterion_07_peaks_track_eigenvalues():
    setup = figure_setup("2a", points=801)
    sub = 41  # detuning rows actually scanned
    res = spectrum_sweep(setup.spins, setup.cavity, setup.env,
                         setup.axis1, setup.axis2)
    halfwidth = setup.spins.halfwidth
    stride = max(1, res.values1.size // sub)
    worst = 0.0
    peaks = 0
    for i in range(0, res.values1.size, stride):
        cavity = CavityParams(
            omega_c_ref=setup.spins.omega_zfs + res.values1[i],
            kappa_out=setup.cavity.kappa_out,
        )
        lam = eigenfrequencies(setup.spins, cavity, setup.env).lambdas
        row = res.abs_t[i]
        for j in range(1, row.size - 1):
            if row[j] > row[j - 1] and row[j] > row[j + 1]:
                omega = setup.spins.omega_zfs + res.values2[j]
                worst = max(worst, np.abs(lam - omega).min())
                peaks += 1
    ok = peaks > 0 and worst <= halfwidth
    _verdict(7, ok,
             f"{peaks} |t| maxima, worst eigenvalue distance "
             f"{to_hz(worst) / 1e6:.3f} MHz (<= {to_hz(halfwidth) / 1e6:.2f})")


def test_criterion_08_outlook_floor_and_flattening():
    p = table1_preset("outlook")
    assert p.dT_stab == pytest.approx(1e-3)
    curve = stability_curve(p)
    thermal = curve.budget.thermal_floor
    floor = curve.floor_total
    flattened = curve.sigma_y[-1] <= floor * 1.01
    ok = thermal < 1e-13 and floor < 1e-13 and flattened \
        and curve.crossover_tau < curve.taus[-1]
    _verdict(8, ok,
             f"thermal floor {thermal:.2e} (< 1e-13), total floor "
             f"{floor:.2e}, flattens by tau = {curve.crossover_tau:.3f} s")
    # recorded, not asserted: the design target is a floor below 1e-14
    # reached after a few hundred seconds; floor composition differs
    print(f"  recorded: floor {floor:.2e} vs target 'below 1e-14'; "
          f"shot = floor at tau = {curve.crossover_tau:.3f} s vs "
          f"'a few hundred seconds'")


def test_criterion_09_probe_bound_magnitude_and_scaling():
    p = table1_preset("current")
    bound = low_excitation_bound(p.spins, p.cavity, t_mag=1.0)
    within_decade = 1e19 <= bound.beta_sq_max <= 1e21

    import dataclasses
    double_g0 = dataclasses.replace(p.spins, g0_single=2 * p.spins.g0_single)
    halves = low_excitation_bound(double_g0, p.cavity).beta_max \
        == pytest.approx(bound.beta_max / 2, rel=1e-12)
    quad_kappa = dataclasses.replace(p.cavity, kappa_out=4 * p.cavity.kappa_out)
    doubles = low_excitation_bound(p.spins, quad_kappa).beta_max \
        == pytest.approx(2 * bound.beta_max, rel=1e-12)
    ok = within_decade and halves and doubles
    _verdict(9, ok,
             f"beta^2_max = {bound.beta_sq_max:.2e} /s (within 10x of 1e20); "
             f"scalings 1/g0 and sqrt(kappa) exact")


def test_criterion_10_provenance_determinism(tmp_path):
    out = tmp_path / "run.csv"
    rc = cli_main(["spectrum", "--figure", "2c", "--points", "31",
                   "--out", str(out)])
    assert rc == 0
    replay = tmp_path / "replay.csv"
    rc = cli_main(["replay", str(tmp_path / "run.csv.provenance.json"),
                   "--out", str(replay)])
    assert rc == 0
    grid_same = out.read_bytes() == replay.read_bytes()
    slice_same = (tmp_path / "run_slice.csv").read_bytes() \
        == (tmp_path / "replay_slice.csv").read_bytes()

    out2 = tmp_path / "op.json"
    cli_main(["operating-point", "--preset", "outlook", "--out", str(out2)])
    replay2 = tmp_path / "op2.json"
    cli_main(["replay", str(tmp_path / "op.json.provenance.json"),
              "--out", str(replay2)])
    report_same = out2.read_bytes() == replay2.read_bytes()
    ok = grid_same and slice_same and report_same
    _verdict(10, ok,
             "replay from provenance sidecars reproduced grid, slice and "
             "report byte-for-byte")
