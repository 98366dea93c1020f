import copy
import dataclasses
import hashlib
import itertools
import math
import re
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from _oracles import class_sum_per_class, sweep_reference
from hypothesis import strategies as st

from spinclock import transmission
from spinclock.cli import main
from spinclock.figures import figure_setup
from spinclock.params import (
    Branch,
    CavityParams,
    ConfigError,
    EnvironmentState,
    SpinClass,
    SpinEnsembleParams,
    instantaneous_frequencies,
)
from spinclock.polariton import operating_point_closed_form
from spinclock.transmission import (
    _BLOCK_POINTS,
    AXIS_VARIABLES,
    SweepAxis,
    quadrature_of,
    spectrum_sweep,
    susceptibility,
    transmission_amplitude,
)
from spinclock.units import from_hz

ZFS = from_hz(2.87e9)


def _single_line(g_hz, total_width_hz):
    # one class on the plus branch only; Gamma carries the whole linewidth
    return SpinEnsembleParams(
        spin_classes=(SpinClass(0.0, 1.0, Branch.PLUS),),
        gamma_pump=0.0,
        Gamma_deph=from_hz(total_width_hz),
        g_collective=from_hz(g_hz),
    )


def test_susceptibility_on_resonance_is_real():
    spins = _single_line(1e6, 8e6)
    c = susceptibility(spins, EnvironmentState(), ZFS)
    expected = from_hz(1e6) ** 2 / (from_hz(8e6) / 2)
    assert c.imag == pytest.approx(0.0, abs=1e-6)
    assert c.real == pytest.approx(expected, rel=1e-12)


def test_susceptibility_vanishes_without_coupling():
    spins = SpinEnsembleParams(g_collective=0.0)
    omegas = ZFS + np.linspace(-from_hz(20e6), from_hz(20e6), 7)
    c = susceptibility(spins, EnvironmentState(), omegas)
    assert np.all(c == 0)


def test_susceptibility_antisymmetric_at_midpoint():
    # two branches at +/-10 MHz with equal coupling: Im C = 0 midway
    spins = SpinEnsembleParams(g_collective=from_hz(1e6))
    env = EnvironmentState(B_field=10e6 / 28e9)
    c_mid = susceptibility(spins, env, ZFS)
    assert abs(c_mid.imag) <= 1e-9 * abs(c_mid.real)
    # and antisymmetric about the midpoint
    delta = from_hz(3e6)
    c_hi = susceptibility(spins, env, ZFS + delta)
    c_lo = susceptibility(spins, env, ZFS - delta)
    assert c_hi.imag == pytest.approx(-c_lo.imag, rel=1e-9)
    assert c_hi.real == pytest.approx(c_lo.real, rel=1e-9)


def test_zero_linewidth_rejected():
    spins = SpinEnsembleParams(gamma_pump=0.0, Gamma_deph=0.0)
    with pytest.raises(ConfigError):
        susceptibility(spins, EnvironmentState(), ZFS)


def test_transmit_unit_on_resonance_lossless():
    cavity = CavityParams(omega_c_ref=ZFS, kappa_out=from_hz(200e3))
    t = transmission_amplitude(cavity, 0.0, ZFS, cavity.omega_c_ref)
    assert complex(t) == pytest.approx(1.0 + 0j)


def test_transmit_matched_loss_is_half():
    kappa = from_hz(200e3)
    cavity = CavityParams(omega_c_ref=ZFS, kappa_out=kappa, kappa_loss=kappa)
    t = transmission_amplitude(cavity, 0.0, ZFS, cavity.omega_c_ref)
    assert complex(t) == pytest.approx(0.5 + 0j)


def test_transmit_halfwidth_detuning():
    kappa = from_hz(200e3)
    cavity = CavityParams(omega_c_ref=ZFS + kappa, kappa_out=kappa)
    t = complex(transmission_amplitude(cavity, 0.0, ZFS, cavity.omega_c_ref))
    assert t == pytest.approx(1.0 / (1.0 + 1.0j), rel=1e-12)
    assert abs(t) ** 2 == pytest.approx(0.5, rel=1e-12)


def test_quadrature_selects_imaginary_part_by_default():
    cavity = CavityParams(omega_c_ref=ZFS + from_hz(100e3), kappa_out=from_hz(200e3))
    t = complex(transmission_amplitude(cavity, 0.0, ZFS, cavity.omega_c_ref))
    assert quadrature_of(t, math.pi / 2) == pytest.approx(t.imag, rel=1e-12)
    assert quadrature_of(t, 0.0) == pytest.approx(t.real, rel=1e-12)


@settings(max_examples=60, deadline=None)
@given(
    g_hz=st.floats(0.0, 20e6),
    width_hz=st.floats(1e3, 20e6),
    kappa_hz=st.floats(1e3, 5e6),
    loss_ratio=st.floats(0.0, 3.0),
    split_hz=st.floats(0.0, 30e6),
    probe_off_hz=st.floats(-60e6, 60e6),
    cav_off_hz=st.floats(-40e6, 40e6),
)
# g^2 is subnormal here
@example(g_hz=3.660704346617545e-161, width_hz=1e3, kappa_hz=1e3,
         loss_ratio=0.0, split_hz=0.0, probe_off_hz=0.0, cav_off_hz=0.0)
def test_passivity_property(g_hz, width_hz, kappa_hz, loss_ratio,
                            split_hz, probe_off_hz, cav_off_hz):
    """|t| <= 1 for any passive ensemble and lossy cavity."""
    spins = SpinEnsembleParams(
        gamma_pump=0.0, Gamma_deph=from_hz(width_hz), g_collective=from_hz(g_hz)
    )
    kappa = from_hz(kappa_hz)
    cavity = CavityParams(
        omega_c_ref=ZFS + from_hz(cav_off_hz),
        kappa_out=kappa,
        kappa_loss=loss_ratio * kappa,
    )
    env = EnvironmentState(B_field=split_hz / 28e9)
    t = _scalar_t(spins, cavity, env, ZFS + from_hz(probe_off_hz), ())
    assert abs(t) <= 1.0 + 1e-12
    c = susceptibility(spins, env, ZFS + from_hz(probe_off_hz))
    assert c.real >= 0.0


def test_quadrature_completeness_on_grid():
    setup = figure_setup("2a", points=61)
    res = spectrum_sweep(setup.spins, setup.cavity, setup.env,
                         setup.axis1, setup.axis2)
    lhs = res.t.real ** 2 + res.t.imag ** 2
    assert np.allclose(lhs, res.abs_t ** 2, rtol=1e-12, atol=0)


def test_reciprocity_in_probe_detuning():
    # symmetric lines, cavity on the line center: |t| even in probe offset
    spins = SpinEnsembleParams(g_collective=from_hz(2e6), gamma_pump=0.0)
    cavity = CavityParams(omega_c_ref=ZFS, kappa_out=from_hz(500e3))
    env = EnvironmentState(B_field=5e6 / 28e9)
    offsets = np.linspace(from_hz(0.1e6), from_hz(20e6), 40)
    t_hi = [_scalar_t(spins, cavity, env, ZFS + o, ()) for o in offsets]
    t_lo = [_scalar_t(spins, cavity, env, ZFS - o, ()) for o in offsets]
    assert np.allclose(np.abs(t_hi), np.abs(t_lo), rtol=1e-10)


def _visible_peaks(row, floor=0.05):
    peaks = []
    for j in range(1, row.size - 1):
        if row[j] > row[j - 1] and row[j] > row[j + 1] and row[j] >= floor:
            peaks.append(j)
    return peaks


def test_panel_2a_shows_three_branches():
    setup = figure_setup("2a", points=601)
    res = spectrum_sweep(setup.spins, setup.cavity, setup.env,
                         setup.axis1, setup.axis2)
    row = res.abs_t[np.argmin(np.abs(res.values1))]
    assert len(_visible_peaks(row)) == 3


def test_panel_2b_shows_two_branches():
    # nearly degenerate transitions: the dark middle feature drops out
    setup = figure_setup("2b", points=601)
    res = spectrum_sweep(setup.spins, setup.cavity, setup.env,
                         setup.axis1, setup.axis2)
    row = res.abs_t[np.argmin(np.abs(res.values1))]
    assert len(_visible_peaks(row)) == 2


def test_panel_2d_even_in_field():
    setup = figure_setup("2d", points=201)
    res = spectrum_sweep(setup.spins, setup.cavity, setup.env,
                         setup.axis1, setup.axis2)
    # axis1 is the field: |t|(B) == |t|(-B) columnwise
    assert np.allclose(res.abs_t, res.abs_t[::-1], rtol=1e-9, atol=1e-12)


def test_panel_cavities_sit_at_their_detunings():
    # the panels are stored as literals; these are the values they encode
    g = from_hz(5e6)
    setup = figure_setup("2c", points=3)
    assert setup.spins.branch_coupling == g and setup.env.R_ratio == -0.3
    d_op = abs(operating_point_closed_form(g, -0.3)[0])
    assert setup.cavity.omega_c_ref == setup.spins.omega_zfs + d_op
    setup = figure_setup("2d", points=3)
    assert setup.cavity.omega_c_ref == setup.spins.omega_zfs + from_hz(9.25e6)


@pytest.mark.parametrize("name,split_hz", [("2a", 10e6), ("2b", 1e6)])
def test_panel_splittings(name, split_hz):
    setup = figure_setup(name, points=3)
    assert setup.env.gyromagnetic * setup.env.B_field \
        == pytest.approx(from_hz(split_hz), rel=1e-15)
    assert setup.cavity.omega_c_ref == setup.spins.omega_zfs


def test_panel_slice_needs_a_grid_row():
    with pytest.raises(ConfigError, match="slice_axis1_value"):
        figure_setup("2c", points=4)


def test_unknown_panel_is_value_error():
    with pytest.raises(ValueError, match="unknown figure '2e'"):
        figure_setup("2e")


def test_operating_point_slice_trace():
    setup = figure_setup("2c", points=101)
    res = spectrum_sweep(setup.spins, setup.cavity, setup.env,
                         setup.axis1, setup.axis2)
    value, grid, row = res.row_trace(0.0)
    assert value == 0.0
    assert grid.size == row.size == 101
    # the slice keeps a sharp phase response: quadrature swings sign
    quad = quadrature_of(row, math.pi / 2)
    assert quad.max() > 0.05 and quad.min() < -0.05


def _interpolated_peak(values, row):
    j = int(np.argmax(row))
    if j in (0, row.size - 1):
        return values[j]
    # parabolic refinement through the three points around the maximum
    y0, y1, y2 = row[j - 1], row[j], row[j + 1]
    denom = y0 - 2 * y1 + y2
    frac = 0.5 * (y0 - y2) / denom if denom != 0 else 0.0
    step = values[1] - values[0]
    return values[j] + frac * step


def test_panel_2c_peak_frozen_against_temperature():
    # at the insensitive detuning the branch moves quadratically: over
    # +/-50 K the peak shifts by a few hundred kHz while the bare line
    # moves by 77 kHz/K * 50 K = 3.85 MHz
    setup = figure_setup("2c", points=601)
    res = spectrum_sweep(setup.spins, setup.cavity, setup.env,
                         setup.axis1, setup.axis2)
    i0 = int(np.argmin(np.abs(res.values1)))
    i_hi = int(np.argmin(np.abs(res.values1 - 50.0)))
    peak0 = _interpolated_peak(res.values2, res.abs_t[i0])
    peak_hi = _interpolated_peak(res.values2, res.abs_t[i_hi])
    bare_shift = setup.env.dwa_dT * 50.0
    assert abs(peak_hi - peak0) < 0.15 * bare_shift


def test_sweep_rejects_empty_axis_and_duplicates():
    with pytest.raises(ConfigError):
        SweepAxis("probe_offset", 0.0, 1.0, 0)
    with pytest.raises(ConfigError):
        SweepAxis("nonsense", 0.0, 1.0, 5)
    with pytest.raises(ConfigError, match="stop >= start"):
        SweepAxis("probe_offset", 1.0, -1.0, 3)
    for start, stop in ((0.0, math.inf), (-math.inf, 0.0), (math.nan, 1.0)):
        with pytest.raises(ConfigError):
            SweepAxis("delta_T", start, stop, 5)
    spins = SpinEnsembleParams()
    cavity = CavityParams()
    ax = SweepAxis("probe_offset", -1.0, 1.0, 3)
    with pytest.raises(ConfigError):
        spectrum_sweep(spins, cavity, EnvironmentState(), ax, ax)


def test_non_probe_sweep_axes():
    # temperature vs field grid with the probe at the line center
    spins = SpinEnsembleParams(g_collective=from_hz(1e6), gamma_pump=0.0)
    cavity = CavityParams(omega_c_ref=ZFS + from_hz(5e6), kappa_out=from_hz(500e3))
    ax1 = SweepAxis("delta_T", -10.0, 10.0, 5)
    ax2 = SweepAxis("B_field", -1e-4, 1e-4, 7)
    res = spectrum_sweep(spins, cavity, EnvironmentState(R_ratio=-0.3),
                         ax1, ax2)
    assert res.t.shape == (5, 7)
    assert np.all(np.abs(res.t) <= 1.0)


# --- spectrum_sweep against the scalar per-point path ----------------------

_AXIS_RANGES = {
    "probe_offset": (-from_hz(30e6), from_hz(30e6)),
    "cavity_offset": (-from_hz(30e6), from_hz(30e6)),
    "delta_T": (-50.0, 50.0),
    "B_field": (-400e-6, 400e-6),
}

_MULTI_CLASS = SpinEnsembleParams(
    spin_classes=(
        SpinClass(-from_hz(0.8e6), 0.25, Branch.PLUS),
        SpinClass(0.0, 0.5, Branch.PLUS),
        SpinClass(from_hz(1.3e6), 0.25, Branch.PLUS),
        SpinClass(-from_hz(0.4e6), 0.6, Branch.MINUS),
        SpinClass(from_hz(0.5e6), 0.4, Branch.MINUS),
    ),
    gamma_pump=from_hz(0.5e6),
    Gamma_deph=from_hz(2e6),
    g_collective=from_hz(4e6),
)


def test_susceptibility_sums_weighted_class_lines():
    # C = sum_j w_j g^2 / (hw + i(omega_j - omega)), with each class at its
    # offset from the thermally shifted, branch-signed Zeeman center
    spins = _MULTI_CLASS
    env = EnvironmentState(delta_T=2.5, B_field=60e-6)
    g, hw = spins.branch_coupling, spins.halfwidth
    omegas = ZFS + from_hz(np.linspace(-8e6, 8e6, 9))
    expected = np.zeros(omegas.size, dtype=complex)
    for cls in spins.spin_classes:
        sign = 1.0 if cls.branch is Branch.PLUS else -1.0
        center = (ZFS + cls.detuning_offset + env.dwa_dT * env.delta_T
                  + sign * env.gyromagnetic * env.B_field)
        expected += cls.weight * g ** 2 / (hw + 1j * (center - omegas))
    assert np.allclose(susceptibility(spins, env, omegas), expected,
                       rtol=1e-12, atol=0)
    assert susceptibility(spins, env, omegas[3]) == pytest.approx(
        expected[3], rel=1e-12)


# --- the distinct-line class sum against one division per class ------------

_LINE_ENSEMBLES = {
    "two-class": SpinEnsembleParams(g_collective=from_hz(3e6)),
    # the 14N triplet on both branches: at zero field class j and class j + 3
    # sit on one line, with two other lines between them in class order
    "triplet": SpinEnsembleParams(
        spin_classes=tuple(SpinClass(from_hz(offset), 1 / 3, branch)
                           for branch in Branch
                           for offset in (-2.16e6, 0.0, 2.16e6)),
        gamma_pump=0.0, Gamma_deph=from_hz(0.5e6), g_collective=from_hz(3e6)),
    # one offset with two couplings per branch: only equal couplings merge
    "unequal-weights": SpinEnsembleParams(
        spin_classes=(SpinClass(0.0, 0.25, Branch.PLUS),
                      SpinClass(0.0, 0.75, Branch.PLUS),
                      SpinClass(0.0, 0.75, Branch.MINUS),
                      SpinClass(0.0, 0.25, Branch.MINUS)),
        g_collective=from_hz(3e6)),
    # every term is 0 / den, with a -0.0 real part wherever Im den < 0: a
    # sum started at 0.0 has none, one started at the first term keeps them
    "zero-coupling": SpinEnsembleParams(g_collective=0.0),
}
_LINE_FIELDS = {"zero-field": 0.0, "minus-zero-field": -0.0, "split": 60e-6}


def _bits(c):
    return np.array(c, dtype=np.complex128, ndmin=1).view(np.uint64)


@pytest.mark.parametrize("b_field", _LINE_FIELDS.values(), ids=_LINE_FIELDS)
@pytest.mark.parametrize("spins", _LINE_ENSEMBLES.values(),
                         ids=_LINE_ENSEMBLES)
def test_susceptibility_is_the_per_class_sum_bit_for_bit(spins, b_field):
    env = EnvironmentState(delta_T=2.5, B_field=b_field)
    thermal, zeeman = env.dwa_dT * env.delta_T, env.gyromagnetic * env.B_field
    omegas = ZFS + from_hz(np.linspace(-8e6, 8e6, 41))
    assert np.array_equal(
        _bits(susceptibility(spins, env, omegas)),
        _bits(class_sum_per_class(spins, thermal, zeeman, omegas)))
    assert np.array_equal(
        _bits(susceptibility(spins, env, omegas[7])),
        _bits(class_sum_per_class(spins, thermal, zeeman,
                                  np.asarray(omegas[7]))))


def _line_sweeps():
    probe = SweepAxis("probe_offset", -from_hz(8e6), from_hz(8e6), 9)
    temperature = SweepAxis("delta_T", -50.0, 50.0, 5)
    sweeps = {name: (b_field, temperature, probe)
              for name, b_field in _LINE_FIELDS.items()}
    # a B = 0 row in one block with the others, and then one axis1 row per
    # block, so the block of the B = 0 row alone is at zero field
    field = SweepAxis("B_field", -1e-4, 1e-4, 3)
    assert field.grid()[1] == 0.0
    sweeps["field-axis-through-zero"] = (0.0, field, probe)
    sweeps["field-axis-through-zero-row-blocks"] = (
        0.0, field, dataclasses.replace(probe, points=_BLOCK_POINTS + 1))
    return sweeps


_LINE_SWEEPS = _line_sweeps()


@pytest.mark.parametrize("b_field,ax1,ax2", _LINE_SWEEPS.values(),
                         ids=_LINE_SWEEPS)
@pytest.mark.parametrize("spins", _LINE_ENSEMBLES.values(),
                         ids=_LINE_ENSEMBLES)
def test_sweep_is_the_per_class_sum_bit_for_bit(monkeypatch, spins, b_field,
                                                ax1, ax2):
    cavity = CavityParams(omega_c_ref=ZFS + from_hz(4e6),
                          kappa_out=from_hz(500e3), kappa_loss=from_hz(120e3))
    env = EnvironmentState(delta_T=3.5, B_field=b_field, R_ratio=-0.3)
    res = spectrum_sweep(spins, cavity, env, ax1, ax2)
    monkeypatch.setattr(transmission, "_class_sum", class_sum_per_class)
    ref = spectrum_sweep(spins, cavity, env, ax1, ax2)
    assert np.array_equal(_bits(res.t), _bits(ref.t))


def _random_axis(rng, variable):
    lo, hi = _AXIS_RANGES[variable]
    start, stop = np.sort(rng.uniform(lo, hi, 2))
    return SweepAxis(variable, float(start), float(stop), int(rng.integers(2, 7)))


def _scalar_t(spins, cavity, env, omega_probe, overrides):
    """t at one grid point from susceptibility + transmission_amplitude."""
    for variable, value in overrides:
        if variable == "probe_offset":
            omega_probe = spins.omega_zfs + value
        elif variable == "cavity_offset":
            cavity = dataclasses.replace(
                cavity, omega_c_ref=spins.omega_zfs + value)
        elif variable == "delta_T":
            env = dataclasses.replace(env, delta_T=value)
        else:
            env = dataclasses.replace(env, B_field=value)
    _, _, omega_c = instantaneous_frequencies(spins, cavity, env)
    c = susceptibility(spins, env, omega_probe)
    return complex(transmission_amplitude(cavity, c, omega_probe, omega_c))


@pytest.mark.parametrize("spins", [
    SpinEnsembleParams(g_collective=from_hz(3e6)),
    _MULTI_CLASS,
], ids=["two-class", "multi-class"])
@pytest.mark.parametrize("var1,var2", list(itertools.permutations(AXIS_VARIABLES, 2)))
def test_sweep_matches_scalar_path(spins, var1, var2):
    rng = np.random.default_rng(
        [AXIS_VARIABLES.index(var1), AXIS_VARIABLES.index(var2)])
    cavity = CavityParams(omega_c_ref=ZFS + from_hz(4e6),
                          kappa_out=from_hz(500e3), kappa_loss=from_hz(120e3))
    env = EnvironmentState(delta_T=3.5, B_field=40e-6, R_ratio=-0.3)
    probe = ZFS  # where the sweep holds the probe when it is not an axis
    ax1, ax2 = _random_axis(rng, var1), _random_axis(rng, var2)
    res = spectrum_sweep(spins, cavity, env, ax1, ax2)
    assert res.t.shape == (ax1.points, ax2.points)
    ref = np.array([
        [_scalar_t(spins, cavity, env, probe, ((var1, v1), (var2, v2)))
         for v2 in res.values2]
        for v1 in res.values1
    ])
    assert np.allclose(res.t, ref, rtol=1e-13, atol=0)


def _block_shapes():
    # several blocks with a partial last one, and rows wider than a block
    n2 = _BLOCK_POINTS // 5 + 1
    rows = _BLOCK_POINTS // n2
    return [(2 * rows + 3, n2), (3, _BLOCK_POINTS + 1)]


@pytest.mark.parametrize("spins", [
    SpinEnsembleParams(g_collective=from_hz(3e6)),
    _MULTI_CLASS,
], ids=["two-class", "multi-class"])
@pytest.mark.parametrize("var1,var2", list(itertools.permutations(AXIS_VARIABLES, 2)))
def test_sweep_rows_do_not_depend_on_blocks(spins, var1, var2):
    cavity = CavityParams(omega_c_ref=ZFS + from_hz(4e6),
                          kappa_out=from_hz(500e3), kappa_loss=from_hz(120e3))
    env = EnvironmentState(delta_T=3.5, B_field=40e-6, R_ratio=-0.3)
    for n1, n2 in _block_shapes():
        ax1 = SweepAxis(var1, *_AXIS_RANGES[var1], n1)
        ax2 = SweepAxis(var2, *_AXIS_RANGES[var2], n2)
        res = spectrum_sweep(spins, cavity, env, ax1, ax2)
        for v1, row in zip(res.values1, res.t):
            one = spectrum_sweep(spins, cavity, env, SweepAxis(var1, v1, v1, 1),
                                 ax2)
            assert np.array_equal(one.t[0].view(np.int64), row.view(np.int64))


@pytest.mark.parametrize("b_field", _LINE_FIELDS.values(), ids=_LINE_FIELDS)
@pytest.mark.parametrize("spins", _LINE_ENSEMBLES.values(),
                         ids=_LINE_ENSEMBLES)
@pytest.mark.parametrize("var1,var2", list(itertools.permutations(AXIS_VARIABLES, 2)))
def test_sweep_is_the_direct_form_bit_for_bit(spins, b_field, var1, var2):
    # the factor-form denominators against kappa + kappa_l + i(omega_c -
    # omega) + C and hw + i(omega_j - omega), each built in the whole grid;
    # the 5 x 7 grid puts a field axis through B = 0, and the others span
    # several blocks or rows wider than one
    cavity = CavityParams(omega_c_ref=ZFS + from_hz(4e6),
                          kappa_out=from_hz(500e3), kappa_loss=from_hz(120e3))
    env = EnvironmentState(delta_T=3.5, B_field=b_field, R_ratio=-0.3)
    for n1, n2 in [(5, 7), *_block_shapes()]:
        ax1 = SweepAxis(var1, *_AXIS_RANGES[var1], n1)
        ax2 = SweepAxis(var2, *_AXIS_RANGES[var2], n2)
        res = spectrum_sweep(spins, cavity, env, ax1, ax2)
        assert np.array_equal(_bits(res.t),
                              _bits(sweep_reference(spins, cavity, env,
                                                    ax1, ax2))), (n1, n2)


def test_transmission_amplitude_leaves_its_inputs_unchanged():
    # the denominator is built in place: never in the caller's arrays
    rng = np.random.default_rng(5)
    cavity = CavityParams(omega_c_ref=ZFS, kappa_out=from_hz(500e3),
                          kappa_loss=from_hz(120e3))
    c_value = from_hz(rng.uniform(0.1e6, 2e6, (4, 6))
                      + 1j * rng.uniform(-2e6, 2e6, (4, 6)))
    omega_probe = ZFS + from_hz(rng.uniform(-5e6, 5e6, (1, 6)))
    omega_c = ZFS + from_hz(rng.uniform(-5e6, 5e6, (4, 1)))
    inputs = (c_value, omega_probe, omega_c)
    before = [x.copy() for x in inputs]
    expected = cavity.kappa_out / (cavity.kappa_out + cavity.kappa_loss
                                   + 1j * (omega_c - omega_probe) + c_value)
    for out in (None, np.empty((4, 6), dtype=np.complex128)):
        t = transmission_amplitude(cavity, c_value, omega_probe, omega_c,
                                   out=out)
        assert out is None or t is out
        assert np.array_equal(_bits(t), _bits(expected))
        for x, x0 in zip(inputs, before):
            assert np.array_equal(x.view(np.uint64), x0.view(np.uint64))


@pytest.mark.parametrize("name", ["2a", "2b", "2c", "2d"])
def test_sweep_leaves_its_inputs_unchanged(monkeypatch, name):
    # a block's C, probe and cavity arrays, which later blocks may share,
    # leave transmission_amplitude as they went in, and so do the
    # caller's parameters
    setup = figure_setup(name, points=41)
    before = copy.deepcopy(setup)
    amplitude = transmission.transmission_amplitude
    calls = []

    def checked(cavity, *arrays, out=None):
        copies = [np.array(x, copy=True) for x in arrays]
        t = amplitude(cavity, *arrays, out=out)
        for x, x0 in zip(arrays, copies):
            assert np.array_equal(_bits(x), _bits(x0))
        calls.append(out.shape)
        return t

    monkeypatch.setattr(transmission, "transmission_amplitude", checked)
    monkeypatch.setattr(transmission, "_BLOCK_POINTS", 41 * 8)
    spectrum_sweep(setup.spins, setup.cavity, setup.env, setup.axis1,
                   setup.axis2)
    assert calls == [(8, 41)] * 5 + [(1, 41)]
    assert setup == before


def test_bare_cavity_sweep_spans_both_axes():
    # no spin classes: t does not depend on the field, yet keeps its rows
    spins = SpinEnsembleParams(spin_classes=())
    probe = SweepAxis("probe_offset", -from_hz(1e6), from_hz(1e6), 4)
    res = spectrum_sweep(spins, CavityParams(omega_c_ref=ZFS),
                         EnvironmentState(),
                         SweepAxis("B_field", -1e-4, 1e-4, 3), probe)
    assert res.t.shape == (3, 4)
    assert np.array_equal(res.t, np.broadcast_to(res.t[0], (3, 4)))


def test_sweep_memory_is_output_plus_one_block():
    for name in ("2a", "2c", "2d"):
        setup = figure_setup(name, points=1001)
        tracemalloc.start()
        try:
            res = spectrum_sweep(setup.spins, setup.cavity, setup.env,
                                 setup.axis1, setup.axis2)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        # a whole-grid evaluation peaks near three times the output
        assert peak < res.t.nbytes + 4 * 2 ** 20, (name, peak)


_FIG2A_301_SHA256 = ("d177a643c109b48f335fb923ce31dc86"
                     "3c4c31d719dd96b2010c2c2cd80c7b06")


def test_perfbench_checks_the_pinned_fig2a_digest():
    # perfbench's fig2a_csv counts a run whose CSV has another sha256 as
    # failed; its constant must stay the digest pinned below
    source = (Path(__file__).resolve().parents[1] / "perfbench"
              / "workloads.py").read_text(encoding="utf-8")
    pinned = re.search(r'^FIG2A_SHA256 = "([0-9a-f]{64})"$', source, re.M)
    assert pinned and pinned.group(1) == _FIG2A_301_SHA256
    assert re.search(r"^FIG2A_POINTS = 301\b", source, re.M)


@pytest.mark.parametrize("argv,digests", [
    # recorded with the flat-grid evaluator that the broadcast sweep replaced
    (["spectrum", "--figure", "2a", "--points", "61", "--format", "csv"],
     {"out.csv": "51ad4becd42e45796d0d8288297fa637"
                 "c01f1ad739f2939b442c469ba6ecb754"}),
    # the digest perfbench's fig2a_csv checks (FIG2A_SHA256), and a 2a JSON
    # of two table blocks; both recorded with the per-block text writer
    (["spectrum", "--figure", "2a", "--points", "301"],
     {"out.csv": _FIG2A_301_SHA256}),
    (["spectrum", "--figure", "2a", "--points", "81", "--format", "json"],
     {"out.json": "18fd821c9cb8e8f0b2fb0467f23bc946"
                  "0bcf8a702c9c2850649d25bf95605d1c"}),
    # a JSON of several table blocks with its slice, and a stability table
    # whose texts come partly from the vectorised formatter and partly from
    # repr; both recorded with the per-file text table, before the writer
    # formatted magnitudes with the vectorised kernel
    (["spectrum", "--figure", "2c", "--points", "101", "--format", "json"],
     {"out.json": "1f71d733713f46b81d94a8bb1cef76f1"
                  "1127ba0ebe7e414bf0dbf7ec62df0234",
      "out_slice.json": "767cb12d89e47f9778de4a45d900c638"
                        "040b8580aa060b56855ab43ee9373976"}),
    (["stability", "--preset", "outlook", "--tau", "1e-3..1e5",
      "--tau-points", "3000"],
     {"out.csv": "be2cc4aed452d550cced26f0fe85c26e"
                 "2d0b38ddf172fd6afa1e28330c2b970e"}),
    # the rest were recorded with the row-at-a-time table writer
    (["spectrum", "--figure", "2c", "--points", "41"],
     {"out.csv": "efc5fc914fa4fb1f0a5b2ec7eda42201"
                 "630b6c207062c2769a789723ca3bafe6",
      "out_slice.csv": "5d6b5b3c46af7adaadf38aaf5eb122d6"
                       "5f7af713975a72aa6308381ee7e7084e"}),
    # 301 rows span three sweep blocks; recorded with one division per spin
    # class and a block-sized copy into the grid
    (["spectrum", "--figure", "2c", "--points", "301"],
     {"out.csv": "61b174fd4fa3dd8b5ee5e4fc510074a9"
                 "ed12c9c2fc25520d0db52fe4fca1afd7",
      "out_slice.csv": "44f84e2762e09034aeea61bdc934663e"
                       "bf016ded91a2de16a4fe374933695bdb",
      "out.csv.provenance.json": "1955f50cbd2f0b3f83df6e58f8aca435"
                                 "9702dc648c71bee64a7c47bd68f2dc03"}),
    (["spectrum", "--figure", "2d", "--points", "301"],
     {"out.csv": "6ab327933e244ee33dec571c523cca6b"
                 "8311e46d93a2d0725f0b2fa20aaa70e8",
      "out_slice.csv": "c943fd7d2ddea38b23cd48fa7698509f"
                       "6191f28a785e60e66e9acaaf99d95169",
      "out.csv.provenance.json": "eda81ac535a37bfdf84f4ffa96b39677"
                                 "51f155d47e592b96c636c47c15ee0ee9"}),
    # recorded with the whole-grid sweep; 201 rows span two sweep blocks
    (["spectrum", "--figure", "2d", "--points", "201"],
     {"out.csv": "bab20f38e348cdbd4eacb32f21f0b865"
                 "9e20f857de72ca7c47a7a9c2ad237e7f",
      "out_slice.csv": "60475405ffedb5963accc7d2737f67fa"
                       "72d883719e0dcb3d5aa81ac5d6992e1e"}),
    # the nearly degenerate panel, recorded with its parameters and axes
    # still built in code
    (["spectrum", "--figure", "2b", "--points", "301"],
     {"out.csv": "398f37be44937a21080d6b275569ccbe"
                 "6d1ed36315de5761981fe4a6938d9a8a",
      "out.csv.provenance.json": "3fc63eacc66b77851c0238ccf615ce14"
                                 "996a5ccfde745402eb1e210defb626d8"}),
    # recorded with the floors as Schur-complement shifts; the thermal floor
    # moved by 8.9e-4 to within 1e-10 of the exact-rational shift
    # (test_stability.py::test_floors_match_exact_rational_shift)
    (["stability", "--preset", "outlook", "--tau-points", "81"],
     {"out.csv": "57055628e55b48063771da4736913edc"
                 "cd00ea76bde7160914b3bb3090107c9d"}),
    (["stability", "--preset", "outlook", "--tau-points", "81",
      "--format", "json"],
     {"out.json": "26851e3b32aba71778ed34553338a6c1"
                  "7cf3e0e9113489063a9743c4aee50fc2"}),
    # they pin the report and sidecar formats, K and T axes included.  The
    # report's D is 0.43 ulp from the exact root
    # (test_polariton.py::test_operating_point_matches_exact_oracle).  The
    # sidecars and the report's params echo were re-recorded without the
    # probe keys no output read (omega_probe_hz, beta_amplitude_sqrt_per_s,
    # quadrature_phase_rad, tau_s); every other key and value is unchanged.
    # Every sidecar digest in this list, and the report's, was re-recorded
    # with the magnetic stability db_stab_t as a config key: it moved from a
    # sidecar's top level into its config (a spectrum sidecar's config
    # gained it at 0.0), and the params echo gained it; nothing else moved
    (["operating-point", "--preset", "outlook", "--branch", "lower",
      "--g-hz", "2.5e6", "--R", "-0.37", "--kappa-hz", "1e5", "--dT-mk", "4",
      "--B-nt", "30"],
     {"out.json": "a4c91408d77c0a36865a521053cadfd8"
                  "20d83b85716ba48a87c723511d9615e2",
      "out.json.provenance.json": "a3d8a2051008bec5271f66ce6286c7ac"
                                  "df060a777c9750378b5ee2c3fbbda734"}),
    (["spectrum", "--axis1", "delta_T:-1:1", "--axis2", "B_field:-1e-6:1e-6:7",
      "--points", "9", "--format", "json"],
     {"out.json": "6134016d4472172dc0fc949d48044dad"
                  "e7d730d1c8146ef9d7741b2e2910cc2a",
      "out.json.provenance.json": "9c4af19c2b4b1c00ce46e7c42e06d80b"
                                  "11f24d46a7632e841944a29692b6b44d"}),
    (["stability", "--preset", "current", "--g-hz", "2e6", "--dT-mk", "5",
      "--B-nt", "20", "--format", "json"],
     {"out.json": "b53f296cc60340fc69621f3fc82ad8654"
                  "c939067fe5b0b04bef056a8722d3fb1",
      "out.json.provenance.json": "eaedb3371744f1532f8b6c03b374fcf3"
                                  "dd1b290cf45078e09a420baac7b26c8b"}),
], ids=["fig2a-61", "fig2a-301-perfbench", "fig2a-81-json", "fig2c-101-json",
        "stability-outlook-3000", "fig2c-41", "fig2c-301", "fig2d-301",
        "fig2d-201", "fig2b-301",
        "stability-outlook-csv",
        "stability-outlook-json", "operating-point-report-sidecar",
        "spectrum-kelvin-tesla-sidecar", "stability-sidecar"])
def test_fig2a_csv_bytes_unchanged(tmp_path, argv, digests):
    out = tmp_path / next(iter(digests))
    assert main([*argv, "--out", str(out)]) == 0
    for name, digest in digests.items():
        assert hashlib.sha256(
            (tmp_path / name).read_bytes()).hexdigest() == digest, name
