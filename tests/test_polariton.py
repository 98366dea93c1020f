import dataclasses
import math
import os
import subprocess
import sys
import types
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import spinclock

from spinclock.params import (
    Branch,
    CavityParams,
    ConfigError,
    EnvironmentState,
    Preset,
    SpinClass,
    SpinEnsembleParams,
)
from spinclock.polariton import (
    BRANCHES,
    NoOperatingPointError,
    _coupling_pattern,
    _dH_dT,
    _slope,
    _solve,
    branch_shifts,
    mode_matrix,
    operating_point_closed_form,
    operating_point_numeric,
)
from spinclock.presets import table1_preset
from spinclock.stability import environmental_floors, stability_curve
from spinclock.units import from_hz, to_hz

from _oracles import (
    branch_frequency_at,
    curvature_T_degenerate,
    dnu_dT,
    dnu_dT_central_difference,
    dnu_dT_degenerate,
    eigenfrequencies,
    exact_eigenvalue,
    magnetic_response,
    polariton_energies_degenerate,
)

ZFS = from_hz(2.87e9)


def _spins(g_hz, **kw):
    return SpinEnsembleParams(g_collective=from_hz(g_hz), gamma_pump=0.0, **kw)


def _cavity(offset_hz):
    return CavityParams(omega_c_ref=ZFS + from_hz(offset_hz), kappa_out=1.0)


def test_decoupled_limit_returns_bare_frequencies():
    spins = _spins(0.0)
    env = EnvironmentState(B_field=10e6 / 28e9)
    sol = eigenfrequencies(spins, _cavity(3e6), env)
    bare = sorted([ZFS - from_hz(10e6), ZFS + from_hz(3e6), ZFS + from_hz(10e6)])
    assert np.allclose(sol.lambdas, bare, rtol=1e-14)


def test_symmetric_resonance_splits_by_sqrt2_g():
    g = from_hz(2e6)
    spins = _spins(2e6)
    sol = eigenfrequencies(spins, _cavity(0.0), EnvironmentState())
    expect = np.array([ZFS - math.sqrt(2) * g, ZFS, ZFS + math.sqrt(2) * g])
    assert np.allclose(sol.lambdas, expect, rtol=1e-12)
    # dark state sits exactly on the line center
    assert sol.branch("middle") == pytest.approx(ZFS, rel=1e-14)


def test_eigenvalues_match_degenerate_closed_form():
    spins = _spins(5e6)
    cavity = _cavity(9.04e6)
    sol = eigenfrequencies(spins, cavity, EnvironmentState())
    nu_p, nu_m = polariton_energies_degenerate(
        cavity.omega_c_ref, ZFS, spins.branch_coupling, spins.branch_coupling
    )
    assert sol.branch("upper") == pytest.approx(nu_p, rel=1e-12)
    assert sol.branch("lower") == pytest.approx(nu_m, rel=1e-12)


def test_closed_form_trivial_limits():
    nu_p, nu_m = polariton_energies_degenerate(ZFS, ZFS, from_hz(1e6), from_hz(1e6))
    assert nu_p - nu_m == pytest.approx(2 * math.sqrt(2) * from_hz(1e6), rel=1e-12)
    nu_p, nu_m = polariton_energies_degenerate(ZFS + 5.0, ZFS, 0.0, 0.0)
    assert (nu_p, nu_m) == (ZFS + 5.0, ZFS)


def test_eigen_residual_and_trace_over_random_draws():
    rng = np.random.default_rng(7)
    for _ in range(300):
        wc = ZFS + from_hz(rng.uniform(-50e6, 50e6))
        wp = ZFS + from_hz(rng.uniform(-20e6, 20e6))
        wm = ZFS + from_hz(rng.uniform(-20e6, 20e6))
        gp = from_hz(rng.uniform(0, 10e6))
        gm = from_hz(rng.uniform(0, 10e6))
        h = mode_matrix(wc, wp, wm, gp, gm)
        lam, vec = np.linalg.eigh(h)
        norm = np.linalg.norm(h)
        for j in range(3):
            assert np.linalg.norm(h @ vec[:, j] - lam[j] * vec[:, j]) <= 1e-10 * norm
        assert lam.sum() == pytest.approx(wc + wp + wm, rel=1e-10)


@settings(max_examples=40, deadline=None)
@given(scale=st.floats(0.25, 4.0), off_hz=st.floats(-30e6, 30e6),
       g_hz=st.floats(0.0, 10e6))
def test_scaling_property(scale, off_hz, g_hz):
    """Multiplying every frequency and coupling by s scales each branch by s."""
    wc, wp, wm = ZFS + from_hz(off_hz), ZFS, ZFS
    g = from_hz(g_hz)
    lam1, _ = np.linalg.eigh(mode_matrix(wc, wp, wm, g, g))
    lam2, _ = np.linalg.eigh(mode_matrix(scale * wc, scale * wp, scale * wm,
                                         scale * g, scale * g))
    assert np.allclose(lam2, scale * lam1, rtol=1e-12)


def test_mode_matrix_stack_matches_scalar_builds():
    rng = np.random.default_rng(3)
    wc, wp, wm = from_hz(rng.uniform(-30e6, 30e6, (3, 4, 5)))
    g = from_hz(2e6)
    stack = mode_matrix(wc, wp, wm, g, 0.5 * g)
    assert stack.shape == (4, 5, 3, 3)
    lam = np.linalg.eigvalsh(stack)
    for i, j in np.ndindex(4, 5):
        single = mode_matrix(wc[i, j], wp[i, j], wm[i, j], g, 0.5 * g)
        assert np.array_equal(stack[i, j], single)
        assert np.array_equal(lam[i, j], np.linalg.eigvalsh(single))


def test_dnu_dT_equal_ratio_gives_bare_coefficient():
    # R = 1: both modes drift together, every branch follows dwa/dT
    env = EnvironmentState(R_ratio=1.0)
    spins = _spins(3e6)
    for branch in ("lower", "middle", "upper"):
        slope = dnu_dT(spins, _cavity(4e6), env, branch)
        assert slope == pytest.approx(env.dwa_dT, rel=1e-9)
    closed = dnu_dT_degenerate(ZFS + from_hz(4e6), ZFS, from_hz(3e6), 1.0,
                               env.dwa_dT, "upper")
    assert closed == pytest.approx(env.dwa_dT, rel=1e-12)


def test_dnu_dT_decoupled_upper_branch_is_cavity_like():
    env = EnvironmentState(R_ratio=-0.3)
    closed = dnu_dT_degenerate(ZFS + from_hz(8e6), ZFS, 0.0, -0.3,
                               env.dwa_dT, "upper")
    assert closed == pytest.approx(-0.3 * env.dwa_dT, rel=1e-12)
    slope = dnu_dT(_spins(1e-3), _cavity(8e6), env, "upper")
    assert slope == pytest.approx(-0.3 * env.dwa_dT, rel=1e-6)


def test_closed_form_slope_matches_hellmann_feynman_and_differences():
    # draws within 1% of an exact cancellation are skipped: there the
    # relative comparison is ill-posed, and the cancellation itself is
    # pinned to 1e-12 by test_slope_cancels_at_closed_form_detuning
    rng = np.random.default_rng(11)
    for _ in range(50):
        off_hz = rng.uniform(-40e6, 40e6)
        g_hz = rng.uniform(0.5e6, 8e6)
        r = rng.uniform(-1.5, 1.5)
        env = EnvironmentState(R_ratio=r)
        spins = _spins(g_hz)
        for branch in ("lower", "upper"):
            analytic = dnu_dT(spins, _cavity(off_hz), env, branch)
            closed = dnu_dT_degenerate(ZFS + from_hz(off_hz), ZFS,
                                       from_hz(g_hz), r, env.dwa_dT, branch)
            assert analytic == pytest.approx(closed, rel=1e-9)
            if abs(analytic) < 0.01 * env.dwa_dT:
                continue
            for h in (1e-4, 1e-3, 1e-2):
                fd = dnu_dT_central_difference(spins, env, from_hz(off_hz),
                                               branch, h)
                assert fd == pytest.approx(analytic, rel=1e-6)


def test_operating_point_closed_form_values():
    d_p, d_m = operating_point_closed_form(from_hz(5e6), -0.3)
    assert abs(to_hz(d_p)) == pytest.approx(9.0370e6, rel=1e-3)
    assert d_m == -d_p
    d_p, _ = operating_point_closed_form(from_hz(1e6), -0.1)
    assert abs(to_hz(d_p)) == pytest.approx(4.0249e6, rel=1e-3)
    # |R| = 1 puts the operating point at exact resonance
    d_p, d_m = operating_point_closed_form(from_hz(5e6), -1.0)
    assert d_p == 0.0 and d_m == 0.0


def test_operating_point_requires_opposite_thermal_signs():
    with pytest.raises(NoOperatingPointError):
        operating_point_closed_form(from_hz(5e6), 0.0)
    with pytest.raises(NoOperatingPointError):
        operating_point_closed_form(from_hz(5e6), 0.3)


def test_slope_cancels_at_closed_form_detuning():
    # plugging the closed-form root back into the slope formula gives zero
    for g_hz, r in ((5e6, -0.3), (1e6, -0.1), (5e6, -0.05), (2e6, -0.9)):
        g = from_hz(g_hz)
        a = from_hz(77e3)
        for d, branch in zip(operating_point_closed_form(g, r),
                             ("lower", "upper")):
            slope = dnu_dT_degenerate(ZFS + d, ZFS, g, r, a, branch)
            assert abs(slope) <= 1e-12 * a


def test_numeric_operating_point_matches_closed_form():
    env = EnvironmentState(R_ratio=-0.3)
    spins = _spins(5e6)
    op = operating_point_numeric(spins, env)
    d_expect = abs(operating_point_closed_form(spins.branch_coupling, -0.3)[0])
    assert op.detuning_D == pytest.approx(d_expect, rel=0.02)
    assert abs(op.dnudT_residual) <= 1e-6 * env.dwa_dT
    assert math.isfinite(op.curvature_T) and op.curvature_T != 0.0


def test_numeric_operating_point_within_polish_tolerance_of_closed_form():
    # at B = 0 with equal couplings the numeric root, the general closed
    # form of _insensitive_detunings, and the signed root of
    # operating_point_closed_form are two forms of one expression: they
    # must agree to 1e-3 rad/s, far above the rounding of either
    rng = np.random.default_rng(5)
    for k in range(40):
        g = from_hz(rng.uniform(0.5e6, 10e6))
        r = -rng.uniform(0.02, 3.0)
        lower, upper = operating_point_closed_form(g, r)
        branch = ("lower", "upper")[k % 2]
        env = EnvironmentState(R_ratio=r)
        op = operating_point_numeric(_spins(to_hz(g)), env, branch=branch)
        expect = lower if branch == "lower" else upper
        assert abs(op.detuning_D - expect) <= 1e-3
        assert abs(op.dnudT_residual) <= 1e-6 * env.dwa_dT


def test_polish_stops_where_detuning_ulp_exceeds_tolerance():
    # at |D| ~ 2e13 rad/s one ulp is ~4e-3 rad/s, coarser than the 1e-3
    # rad/s the test above allows: the closed form takes no steps, so it
    # still lands within 1e-12 relative of operating_point_closed_form's root
    g = from_hz(2e12)
    env = EnvironmentState(R_ratio=-0.3)
    op = operating_point_numeric(_spins(2e12), env)
    assert np.spacing(op.detuning_D) > 1e-3
    assert op.detuning_D == pytest.approx(
        operating_point_closed_form(g, -0.3)[1], rel=1e-12)


_SCAN_POINTS = 241  # reference grid over +/-20 g
_XTOL = 1e-3        # rad/s, width of the reference's final bracket


def _scan_root(spins, env, branch):
    """Reference root: the first zero of dnu/dT on a _SCAN_POINTS grid over
    +/-20 g, bisected in its bracket; None if the grid shows none."""
    idx = BRANCHES.index(branch)
    dh = _dH_dT(env)
    pattern = _coupling_pattern(spins)

    def slope(d):
        _, vec = _solve(spins, env, d, env.delta_T, env.B_field, pattern)
        return _slope(vec, idx, dh)

    g = spins.branch_coupling
    grid = np.linspace(-20.0 * g, 20.0 * g, _SCAN_POINTS)
    ys = slope(grid)
    for i in range(_SCAN_POINTS):
        if ys[i] == 0:
            return grid[i]
        if i + 1 < _SCAN_POINTS and ys[i] * ys[i + 1] < 0:
            a, b, fa = grid[i], grid[i + 1], ys[i]
            while b - a > _XTOL:
                mid = 0.5 * (a + b)
                if not a < mid < b:
                    break  # one float wide
                f = slope(mid)
                if f == 0:
                    return mid
                if (f > 0) == (fa > 0):
                    a, fa = mid, f
                else:
                    b = mid
            return 0.5 * (a + b)
    return None


def test_seeded_bracket_finds_the_scan_root():
    # operating_point_closed_form holds only for equal couplings at B = 0;
    # the general closed form of _insensitive_detunings must give the root
    # an independent 241-point scan finds at fields up to 3 mT, on both
    # presets and on the middle branch, and fail where the scan finds none
    rng = np.random.default_rng(11)
    fields = (lambda: 0.0, lambda: rng.uniform(0.0, 100e-9),
              lambda: rng.uniform(0.0, 1e-4), lambda: rng.uniform(0.0, 3e-3))
    outcomes = set()
    for k in range(200):
        p = table1_preset(("current", "outlook")[k % 2])
        spins = dataclasses.replace(
            p.spins, g_collective=from_hz(10 ** rng.uniform(math.log10(3e5),
                                                            math.log10(3e7))))
        env = dataclasses.replace(p.env, R_ratio=-rng.uniform(0.02, 3.0),
                                  B_field=fields[k % 4]())
        branch = BRANCHES[k % 3]
        want = _scan_root(spins, env, branch)
        try:
            got = operating_point_numeric(spins, env, branch).detuning_D
        except NoOperatingPointError:
            got = None
        assert (got is None) == (want is None), (k, branch, env)
        if got is not None:
            assert abs(got - want) <= _XTOL, (k, branch, env)
        outcomes.add((branch, got is None))
    # at 3 mT the bright branches also lose their root: both outcomes occur
    assert outcomes == {(b, none) for b in BRANCHES for none in (False, True)}


def _exact_cavity_weight_excess(spins, env, idx, detuning):
    """v_c^2 - 1/(1 - R) of branch ``idx`` at the rational ``detuning``.

    H is taken in exact rationals from the float thermal and Zeeman shifts
    the solve uses; L is bisected from its characteristic polynomial and
    v ~ (1, g+/(L - w+), g-/(L - w-)) gives v_c^2 = 1 / (1 + S), S the sum
    of g_k^2 / (L - w_k)^2.  The slope a (1 - (1 - R) v_c^2) has the
    opposite sign to the result (a > 0).
    """
    g = Fraction(spins.branch_coupling)
    thermal = Fraction(env.dwa_dT * env.delta_T)
    zeeman = Fraction(env.gyromagnetic * env.B_field)
    r_ratio = Fraction(env.R_ratio)
    diag = (detuning + r_ratio * thermal, thermal + zeeman, thermal - zeeman)
    coupling = [g * int(c) for c in _coupling_pattern(spins)]
    h = [[diag[0], coupling[0], coupling[1]],
         [coupling[0], diag[1], 0],
         [coupling[1], 0, diag[2]]]
    lams = np.linalg.eigvalsh(np.array([[float(x) for x in row] for row in h]))
    width = 1e-3 * min(abs(lams[idx] - lams[j]) for j in range(3) if j != idx)
    lam = exact_eigenvalue(h, lams[idx], width)
    s = sum(c * c / (lam - w) ** 2 for c, w in zip(coupling, diag[1:]) if c)
    return 1 / (1 + s) - 1 / (1 - r_ratio)


def test_operating_point_matches_exact_oracle():
    # 4 ulp of max(|D|, g) either side of the returned root, the branch's
    # exact cavity weight lies on opposite sides of 1/(1 - R), where the
    # thermal slope vanishes: the exact root is within 4 ulp.  Both presets,
    # fields up to 3 mT, temperature offsets up to 10 mK, every branch; every
    # fifth draw keeps one spin line only
    rng = np.random.default_rng(29)
    fields = (lambda: 0.0, lambda: rng.uniform(0.0, 100e-9),
              lambda: rng.uniform(0.0, 1e-4), lambda: rng.uniform(0.0, 3e-3))
    one_line = ((SpinClass(0.0, 1.0, Branch.PLUS),),
                (SpinClass(0.0, 1.0, Branch.MINUS),))
    found = set()
    for k in range(90):
        p = table1_preset(("current", "outlook")[k % 2])
        spins = dataclasses.replace(
            p.spins, g_collective=from_hz(10 ** rng.uniform(math.log10(3e5),
                                                            math.log10(3e7))))
        if k % 5 == 4:
            spins = dataclasses.replace(spins,
                                        spin_classes=one_line[k // 5 % 2])
        env = dataclasses.replace(p.env, R_ratio=-rng.uniform(0.02, 3.0),
                                  B_field=fields[k % 4](),
                                  delta_T=rng.uniform(-10e-3, 10e-3))
        idx = k % 3
        try:
            op = operating_point_numeric(spins, env, BRANCHES[idx])
        except NoOperatingPointError:
            continue
        found.add((idx, k % 5 == 4))
        d = Fraction(op.detuning_D)
        step = 4 * Fraction(float(np.spacing(max(abs(op.detuning_D),
                                                 spins.branch_coupling))))
        below, above = (_exact_cavity_weight_excess(spins, env, idx, x)
                        for x in (d - step, d + step))
        assert below * above < 0, (k, BRANCHES[idx], env)
    assert found == {(i, one) for i in range(3) for one in (False, True)}


@pytest.mark.parametrize("branch_classes,branch,want", [
    (Branch.PLUS, "middle", 1.357790e8),
    (Branch.MINUS, "middle", -1.357790e8),
    (Branch.PLUS, "upper", 2.160793e8),
    (Branch.PLUS, "lower", None),
], ids=["plus-middle", "minus-middle", "plus-upper", "plus-lower"])
def test_one_line_ensemble_operating_point(branch_classes, branch, want):
    # one coupled line at +/-gyro B: its pair with the cavity roots at
    # D = +/-gyro B +/- g (1 - r) / sqrt(r), and the bare other line decides
    # which branch each root is on.  Inputs are numpy scalars, as a
    # parameter grid hands them over
    spins = SpinEnsembleParams(
        spin_classes=(SpinClass(0.0, 1.0, branch_classes),),
        gamma_pump=0.0, g_collective=np.float64(from_hz(5e6)))
    env = EnvironmentState(R_ratio=np.float64(-0.3), B_field=np.float64(1e-3))
    if want is None:
        with pytest.raises(NoOperatingPointError, match="no sign change"):
            operating_point_numeric(spins, env, branch)
        return
    op = operating_point_numeric(spins, env, branch)
    assert op.detuning_D == pytest.approx(want, rel=1e-6)
    assert abs(op.dnudT_residual) <= 1e-6 * env.dwa_dT


_TRIPLET = [-2.16e6, 0.0, 2.16e6]  # the 14N hyperfine lines, Hz


@pytest.mark.parametrize("r", [-0.1, 0.0, 0.3])
@pytest.mark.parametrize("classes,key", [
    (dict(class_offsets_plus_hz=_TRIPLET, class_weights_plus=[1 / 3] * 3,
          class_offsets_minus_hz=_TRIPLET, class_weights_minus=[1 / 3] * 3),
     "class_offsets_plus_hz"),
    (dict(class_offsets_minus_hz=[1e3]), "class_offsets_minus_hz"),
    (dict(class_offsets_plus_hz=[0.0, 0.0], class_weights_plus=[0.5, 0.5]),
     "class_offsets_plus_hz"),
], ids=["hyperfine-triplet", "off-center", "two-at-center"])
def test_every_eigen_entry_point_refuses_a_folded_ensemble(r, classes, key):
    # the solve folds each branch into one line at its center: with the
    # triplet resolved it gave the unresolved D (4024922.36 Hz) and
    # sigma_y(1 s) = 4.194e-12.  Each entry point, and the tests' readers
    # of the solve, refuse such a branch, before the solver errors of R >= 0
    # and of zero coupling
    base = table1_preset("current")
    preset = Preset.from_config({**base.to_config(), **classes,
                                 "r_ratio": r})
    spins, env = preset.spins, preset.env
    one_line = operating_point_numeric(base.spins, base.env)
    no_coupling = dataclasses.replace(spins, g_collective=0.0)
    calls = [
        lambda: operating_point_numeric(spins, env),
        lambda: operating_point_numeric(no_coupling, env, "middle"),
        lambda: environmental_floors(
            dataclasses.replace(preset, dT_stab=1e-3, dB_stab=1e-9), one_line),
        lambda: branch_shifts(spins, env, one_line, 1e-3, 1e-9),
        lambda: stability_curve(preset),
        lambda: branch_frequency_at(spins, env, np.zeros(3), "upper"),
    ]
    message = (f"{key}: the eigen model solves each branch as one line at "
               "its center, so it takes one spin class per branch, at "
               "offset 0")
    for call in calls:
        with pytest.raises(ConfigError) as info:
            call()
        assert str(info.value) == message


def test_zero_coupling_has_no_operating_point():
    with pytest.raises(NoOperatingPointError, match="coupling g = 0"):
        operating_point_numeric(_spins(0.0), EnvironmentState(R_ratio=-0.3))


def test_numeric_operating_point_rejects_unknown_branch_and_no_classes():
    env = EnvironmentState(R_ratio=-0.3)
    with pytest.raises(ValueError, match="unknown branch 'sideways'"):
        operating_point_numeric(_spins(5e6), env, branch="sideways")
    # no spin class on either branch: no line mixes with the cavity
    with pytest.raises(NoOperatingPointError, match="no sign change"):
        operating_point_numeric(_spins(5e6, spin_classes=()), env)


def test_numeric_operating_point_rejects_positive_R():
    env = EnvironmentState(R_ratio=0.3)
    with pytest.raises(NoOperatingPointError, match="R >= 0"):
        operating_point_numeric(_spins(5e6), env)
    # without a thermal response every slope is exactly zero: no root either
    env = EnvironmentState(R_ratio=-0.3, dwa_dT=0.0)
    with pytest.raises(NoOperatingPointError, match="no thermal response"):
        operating_point_numeric(_spins(5e6), env)


def test_numeric_curvature_matches_analytic():
    # outlook-like: g = 5 MHz, R = -0.05
    env = EnvironmentState(R_ratio=-0.05)
    spins = _spins(5e6)
    op = operating_point_numeric(spins, env)
    analytic = curvature_T_degenerate(op.detuning_D, spins.branch_coupling,
                                      env.R_ratio, env.dwa_dT)
    assert op.curvature_T == pytest.approx(analytic, rel=1e-9)


def test_numeric_curvature_B_matches_second_difference():
    # current preset, upper branch at its operating point (the criterion 4
    # geometry); at 100 nT the quartic term and the rounding of absolute GHz
    # frequencies each stay near 1e-5 of the curvature, under the 1e-4 bound
    p = table1_preset("current")
    op = operating_point_numeric(p.spins, p.env)
    h = 100e-9
    f = [branch_frequency_at(p.spins, p.env, op.detuning_D, "upper", b_field=b)
         for b in (-h, 0.0, h)]
    second_difference = (f[0] - 2.0 * f[1] + f[2]) / h ** 2
    cavity = CavityParams(omega_c_ref=ZFS + op.detuning_D,
                          kappa_out=p.cavity.kappa_out)
    _, curv = magnetic_response(p.spins, cavity, p.env, "upper")
    assert op.curvature_B == pytest.approx(second_difference, rel=1e-4)
    assert curv == pytest.approx(second_difference, rel=1e-4)


def test_magnetic_response_vanishes_at_zero_field():
    spins = _spins(1e6)
    env = EnvironmentState(R_ratio=-0.1)
    op = operating_point_numeric(spins, env)
    cavity = CavityParams(omega_c_ref=ZFS + op.detuning_D, kappa_out=1.0)
    for branch in ("lower", "middle", "upper"):
        slope, curv = magnetic_response(spins, cavity, env, branch)
        assert abs(slope) <= 1e-9 * env.gyromagnetic
        assert math.isfinite(curv)


def test_magnetic_response_nonzero_for_asymmetric_couplings():
    # single-branch ensemble: g- = 0 breaks the +/- symmetry
    spins = SpinEnsembleParams(
        spin_classes=(SpinClass(0.0, 1.0, Branch.PLUS),),
        gamma_pump=0.0,
        g_collective=from_hz(1e6),
    )
    cavity = _cavity(0.0)
    slope, _ = magnetic_response(spins, cavity, EnvironmentState(), "upper")
    assert abs(slope) > 1e-3 * EnvironmentState().gyromagnetic


def test_field_shift_is_quadratic_over_a_decade():
    spins = _spins(1e6)
    env = EnvironmentState(R_ratio=-0.1)
    op = operating_point_numeric(spins, env)
    nu0 = branch_frequency_at(spins, env, op.detuning_D, "upper")
    ratios = []
    for b in np.geomspace(10e-9, 100e-9, 5):
        shift = branch_frequency_at(spins, env, op.detuning_D, "upper",
                                    b_field=b) - nu0
        ratios.append(shift / b ** 2)
    ratios = np.array(ratios)
    assert np.all(np.abs(ratios / ratios[0] - 1.0) < 0.01)


def test_minimum_branch_separation_is_2sqrt2_g():
    g = from_hz(3e6)
    spins = _spins(3e6)
    env = EnvironmentState()
    seps = []
    for off in np.linspace(-from_hz(20e6), from_hz(20e6), 81):
        sol = eigenfrequencies(
            spins, CavityParams(omega_c_ref=ZFS + off, kappa_out=1.0), env
        )
        seps.append(sol.branch("upper") - sol.branch("lower"))
    assert min(seps) == pytest.approx(2 * math.sqrt(2) * g, rel=1e-9)


def test_sub_hundred_mhz_shift_at_10_nt():
    # nanotesla-scale fields perturb the locked branch at the mHz level
    spins = _spins(1e6)
    env = EnvironmentState(R_ratio=-0.1)
    op = operating_point_numeric(spins, env)
    nu0 = branch_frequency_at(spins, env, op.detuning_D, "upper")
    nu_b = branch_frequency_at(spins, env, op.detuning_D, "upper", b_field=10e-9)
    shift_hz = abs(to_hz(nu_b - nu0))
    assert 0.0 < shift_hz < 0.1


def test_import_leaves_scipy_unloaded():
    src = Path(spinclock.__file__).resolve().parents[1]
    env = dict(os.environ, PYTHONPATH=str(src))
    code = "import sys, spinclock; assert 'scipy' not in sys.modules"
    subprocess.run([sys.executable, "-c", code], env=env, check=True,
                   timeout=60)


def test_package_public_surface_is_pinned():
    # every public name of the package, modules aside; a new one is a
    # deliberate edit of this set
    surface = {name for name, value in vars(spinclock).items()
               if not name.startswith("_")
               and not isinstance(value, types.ModuleType)}
    assert surface == {
        "BetaBound", "Branch", "CavityParams", "ConfigError",
        "EnvironmentState", "NoOperatingPointError", "NoiseBudget",
        "OperatingPoint", "Preset", "ProbeParams",
        "SpinClass", "SpinEnsembleParams", "StabilityCurve", "SweepAxis",
        "SweepResult", "environmental_floors", "from_hz",
        "instantaneous_frequencies", "low_excitation_bound",
        "operating_point_closed_form", "operating_point_numeric",
        "shot_noise_fractional",
        "spectrum_sweep", "stability_curve", "susceptibility",
        "table1_preset", "to_hz",
    }
