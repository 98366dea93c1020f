import dataclasses
import json
import math

import numpy as np
import pytest

from spinclock.params import (
    _CONFIG_RULES,
    _FIELDS,
    Branch,
    CavityParams,
    KNOWN_CONFIG_KEYS,
    ConfigError,
    EnvironmentState,
    ProbeParams,
    SpinClass,
    SpinEnsembleParams,
    Preset,
    instantaneous_frequencies,
)
from spinclock.presets import table1_preset
from spinclock.transmission import SweepAxis
from spinclock.units import from_hz, to_hz

TWO_PI = 2.0 * math.pi


def test_identity_environment():
    spins = SpinEnsembleParams()
    cavity = CavityParams()
    env = EnvironmentState()
    wp, wm, wc = instantaneous_frequencies(spins, cavity, env)
    assert wp == spins.omega_zfs
    assert wm == spins.omega_zfs
    assert wc == cavity.omega_c_ref


def test_one_kelvin_shifts_both_branches_by_77_khz():
    # tolerance set by representing a kHz shift on a ~2.87 GHz carrier
    spins = SpinEnsembleParams()
    cavity = CavityParams()
    env = EnvironmentState(delta_T=1.0, dwa_dT=from_hz(77e3))
    wp, wm, _ = instantaneous_frequencies(spins, cavity, env)
    assert wp - spins.omega_zfs == pytest.approx(from_hz(77e3), rel=1e-9)
    assert wm - spins.omega_zfs == pytest.approx(from_hz(77e3), rel=1e-9)


def test_357_microtesla_gives_20_mhz_branch_splitting():
    # B = 10 MHz / (28 GHz/T) puts the transitions at +/-10 MHz
    b = 10e6 / 28e9
    env = EnvironmentState(B_field=b)
    wp, wm, _ = instantaneous_frequencies(SpinEnsembleParams(), CavityParams(), env)
    assert wp - wm == pytest.approx(from_hz(20e6), rel=1e-12)
    assert b == pytest.approx(357.1e-6, rel=1e-3)


def test_affine_slopes_match_coefficients():
    # affine in dT, so the step is free; 32 K keeps the GHz-carrier
    # cancellation error below the 1e-12 relative target
    spins = SpinEnsembleParams()
    cavity = CavityParams()
    base = EnvironmentState(R_ratio=-0.3)
    h = 32.0
    up = instantaneous_frequencies(spins, cavity,
                                   EnvironmentState(delta_T=h, R_ratio=-0.3))
    dn = instantaneous_frequencies(spins, cavity,
                                   EnvironmentState(delta_T=-h, R_ratio=-0.3))
    slope_spin = (up[0] - dn[0]) / (2 * h)
    slope_cav = (up[2] - dn[2]) / (2 * h)
    assert slope_spin == pytest.approx(base.dwa_dT, rel=1e-12)
    assert slope_cav == pytest.approx(base.R_ratio * base.dwa_dT, rel=1e-12)


def test_branch_symmetry_in_field():
    spins = SpinEnsembleParams()
    cavity = CavityParams()
    for b in (1e-6, 3.5e-4, 2e-3):
        env = EnvironmentState(delta_T=12.0, B_field=b)
        wp, wm, _ = instantaneous_frequencies(spins, cavity, env)
        center = spins.omega_zfs + env.dwa_dT * env.delta_T
        assert wp - center == pytest.approx(-(wm - center), rel=1e-12)


def test_bad_weights_rejected():
    classes = (
        SpinClass(0.0, 0.5, Branch.PLUS),
        SpinClass(0.0, 0.4, Branch.PLUS),
        SpinClass(0.0, 1.0, Branch.MINUS),
    )
    with pytest.raises(ConfigError):
        SpinEnsembleParams(spin_classes=classes)


@pytest.mark.parametrize("field,value", [
    ("omega_zfs", -1.0),
    ("gamma_pump", -1.0),
    ("Gamma_deph", -0.1),
    ("gamma_0", -5.0),
    ("g0_single", -2.0),
    ("n_spins", 0.0),
    ("omega_zfs", math.nan),
    ("n_spins", math.inf),
    ("gamma_pump", math.inf),
    ("g_collective", math.nan),
])
def test_invalid_spin_params_rejected(field, value):
    with pytest.raises(ConfigError, match=field):
        SpinEnsembleParams(**{field: value})


def test_cavity_and_probe_validation():
    with pytest.raises(ConfigError):
        CavityParams(kappa_out=0.0)
    with pytest.raises(ConfigError):
        CavityParams(kappa_loss=-1.0)
    for cls, field in ((CavityParams, "kappa_out"), (CavityParams, "kappa_loss"),
                       (CavityParams, "omega_c_ref"), (ProbeParams, "photon_flux")):
        for value in (math.inf, math.nan):
            with pytest.raises(ConfigError, match=field):
                cls(**{field: value})
    with pytest.raises(ConfigError, match=r"photon_flux must be a finite "
                       r"number > 0, got 0\.0 \(config key 'photon_flux_per_s'\)"):
        ProbeParams(photon_flux=0.0)
    p = table1_preset("current")
    with pytest.raises(ConfigError, match="dT_stab"):
        Preset(p.name, p.spins, p.cavity, p.env, p.probe, math.nan)


def test_numpy_scalars_construct():
    # a numpy scalar keeps the rule that its Python number keeps
    p = table1_preset("current")
    for obj in (p.spins, p.cavity, p.env, p.probe, p):
        scalars = {f.name: np.float64(getattr(obj, f.name))
                   for f in dataclasses.fields(obj)
                   if isinstance(getattr(obj, f.name), float)}
        if obj is p.spins:
            scalars["n_spins"] = np.int64(obj.n_spins)
        assert dataclasses.replace(obj, **scalars) == obj
    axis = SweepAxis("delta_T", np.float64(-1.0), np.float64(1.0),
                     np.int64(5))
    assert axis.grid().tolist() == [-1.0, -0.5, 0.0, 0.5, 1.0]


def test_every_config_key_has_a_rule():
    # each row of the table holds a rule, a predicate with its description;
    # it takes the preset's value and no NaN, infinity or bool, nor a
    # string unless it is the name's
    assert all(len(row) == 4 for row in _FIELDS.values())
    assert set(_CONFIG_RULES) == KNOWN_CONFIG_KEYS
    cfg = table1_preset("current").to_config()
    for key, (ok, expected) in _CONFIG_RULES.items():
        assert callable(ok) and isinstance(expected, str), key
        assert ok(cfg[key]), key
        bad = [math.nan, math.inf, -math.inf, True, np.float64(math.nan)]
        if key != "preset_name":
            bad.append("1.0")
        if key.startswith("class_"):
            bad += [[value] for value in bad]
        for value in bad:
            assert not ok(value), (key, value)


def test_table1_current_values():
    p = table1_preset("current")
    assert to_hz(p.cavity.kappa_out) == pytest.approx(200e3, rel=1e-12)
    assert to_hz(p.spins.Gamma_deph) == pytest.approx(3e6, rel=1e-12)
    assert to_hz(p.spins.branch_coupling) == pytest.approx(1e6, rel=1e-12)
    assert p.env.R_ratio == -0.1
    assert to_hz(p.spins.g0_single) == pytest.approx(0.1, rel=1e-12)
    assert p.spins.n_spins == 2.5e14
    assert p.probe.photon_flux == 1e18
    assert p.dT_stab == pytest.approx(10e-3)


def test_table1_outlook_values():
    p = table1_preset("outlook")
    assert to_hz(p.cavity.kappa_out) == pytest.approx(50e3, rel=1e-12)
    assert to_hz(p.spins.Gamma_deph) == pytest.approx(1e6, rel=1e-12)
    assert to_hz(p.spins.branch_coupling) == pytest.approx(5e6, rel=1e-12)
    assert p.env.R_ratio == -0.05
    assert to_hz(p.spins.g0_single) == pytest.approx(0.3, rel=1e-12)
    assert p.spins.n_spins == 4e14
    assert p.probe.photon_flux == 1e20
    assert p.dT_stab == pytest.approx(1e-3)


def test_current_coupling_consistency_ratio():
    # g0*sqrt(N) = 0.1*sqrt(2.5e14) Hz ~ 1.58 MHz vs the pinned 1 MHz
    p = table1_preset("current")
    assert p.spins.coupling_consistency_ratio == pytest.approx(1.5811, rel=1e-3)


@pytest.mark.parametrize("name", ["current", "outlook"])
def test_preset_roundtrip_bit_exact(name):
    p = table1_preset(name)
    q = Preset.from_config(p.to_config())
    assert q == p  # dataclass equality is fieldwise and exact


def test_config_roundtrip_of_custom_params():
    spins = SpinEnsembleParams(
        gamma_pump=from_hz(0.7e6), g_collective=from_hz(3.3e6)
    )
    cavity = CavityParams(kappa_out=from_hz(123e3), kappa_loss=from_hz(11e3))
    env = EnvironmentState(delta_T=0.25, B_field=2e-7, R_ratio=-0.21)
    probe = ProbeParams(photon_flux=3e17)
    p = Preset("custom-test", spins, cavity, env, probe, dT_stab=2.5e-3)
    assert Preset.from_config(p.to_config()) == p


def test_unknown_config_keys_rejected():
    cfg = table1_preset("current").to_config()
    cfg["kappa_typo_hz"] = 1.0
    with pytest.raises(ConfigError, match="kappa_typo_hz"):
        Preset.from_config(cfg)


def test_unknown_preset_name():
    with pytest.raises(ConfigError):
        table1_preset("futuristic")


def test_config_file_roundtrip():
    p = table1_preset("outlook")
    text = json.dumps(p.to_config(), sort_keys=True, indent=1)
    assert Preset.from_config(json.loads(text)) == p


@pytest.mark.parametrize("key,value", [
    ("kappa_out_hz", "200e3"),
    ("n_spins", True),
    ("r_ratio", None),
    ("omega_zfs_hz", math.inf),
    ("class_weights_plus", [0.5, "0.5"]),
    ("class_offsets_minus_hz", 0.0),
    ("dt_stab_k", "0.01"),
])
def test_config_values_must_be_finite_numbers(key, value):
    cfg = table1_preset("current").to_config()
    cfg[key] = value
    with pytest.raises(ConfigError, match=key):
        Preset.from_config(cfg)


def test_every_config_key_is_read():
    # a key that passes the unknown-key check must reach its field: set to
    # a value unlike both the preset's and the default, it comes back
    cfg = table1_preset("current").to_config()
    default = Preset.from_config({}).to_config()
    for key in sorted(KNOWN_CONFIG_KEYS):
        changed = dict(cfg)
        if key == "preset_name":
            changed[key] = "renamed"
        elif key.startswith("class_weights_"):
            offsets = key.replace("class_weights_", "class_offsets_") + "_hz"
            changed[offsets] = [0.0, 0.0]
            changed[key] = [0.25, 0.75]
        elif key.startswith("class_offsets_"):
            changed[key] = [1e3]
        else:
            changed[key] = 0.75 * cfg[key] if cfg[key] else 0.5
        assert changed[key] not in (cfg[key], default[key]), key
        back = Preset.from_config(changed).to_config()[key]
        if "_hz" in key:  # through rad/s and back
            assert back == pytest.approx(changed[key], rel=1e-15), key
        else:
            assert back == changed[key], key
