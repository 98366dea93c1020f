import contextlib
import copy
import functools
import io
import json
import math
import os
import subprocess
import sys
import tempfile
import tracemalloc
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import spinclock
from spinclock import __version__, cli, params, polariton
from spinclock._table import _BLOCK_ROWS, write_table
from spinclock.cli import _parser, main
from spinclock.params import _CLASS_KEYS, _FIELDS, KNOWN_CONFIG_KEYS
from spinclock.presets import table1_preset


def _run(*argv):
    return main(list(argv))


def test_module_prints_its_version():
    # the __main__ module, run as a program, ends at argparse's version action
    src = Path(spinclock.__file__).resolve().parents[1]
    env = dict(os.environ, PYTHONPATH=str(src))
    done = subprocess.run([sys.executable, "-m", "spinclock", "--version"],
                          env=env, capture_output=True, text=True,
                          timeout=60)
    assert (done.returncode, done.stdout, done.stderr) == \
        (0, f"{__version__}\n", "")


def test_spectrum_figure_writes_grid_and_sidecar(tmp_path):
    out = tmp_path / "f2a.csv"
    assert _run("spectrum", "--figure", "2a", "--points", "21",
                "--out", str(out)) == 0
    lines = out.read_text().splitlines()
    assert lines[0] == "axis1,axis2,re_t,im_t,abs_t"
    assert len(lines) == 1 + 21 * 21
    sidecar = tmp_path / "f2a.csv.provenance.json"
    doc = json.loads(sidecar.read_text())
    assert doc["command"] == "spectrum"
    assert doc["config"]["g_collective_hz"] == 5e6
    assert doc["axis1"]["points"] == 21


def test_spectrum_rerun_is_byte_identical(tmp_path):
    a, b = tmp_path / "a.csv", tmp_path / "b.csv"
    for out in (a, b):
        assert _run("spectrum", "--figure", "2b", "--points", "15",
                    "--out", str(out)) == 0
    assert a.read_bytes() == b.read_bytes()


def test_replay_reproduces_output(tmp_path):
    out = tmp_path / "orig.csv"
    assert _run("spectrum", "--figure", "2c", "--points", "15",
                "--out", str(out)) == 0
    replay = tmp_path / "replayed.csv"
    assert _run("replay", str(tmp_path / "orig.csv.provenance.json"),
                "--out", str(replay)) == 0
    assert out.read_bytes() == replay.read_bytes()
    # the 2c run also emits the operating-point slice, reproduced as well
    assert (tmp_path / "orig_slice.csv").read_bytes() \
        == (tmp_path / "replayed_slice.csv").read_bytes()


@pytest.mark.parametrize("flag,value", [
    ("--preset", "outlook"), ("--preset", "current"),
    ("--axis1", "delta_T:0:1"), ("--axis2", "probe_offset:-1e6:1e6:3"),
])
def test_spectrum_figure_rejects_preset_and_axes(tmp_path, flag, value):
    # a figure fixes its parameters and axes, so these flags would not move
    # the run; naming the default preset is refused too
    rc, err = _quiet_main(["spectrum", "--figure", "2a", "--points", "3",
                           flag, value, "--out", str(tmp_path / "a.csv")])
    assert rc == 2
    assert f"{flag} cannot be combined with --figure" in err
    assert list(tmp_path.iterdir()) == []


def test_spectrum_slice_contains_quadrature(tmp_path):
    out = tmp_path / "f2d.csv"
    assert _run("spectrum", "--figure", "2d", "--points", "11",
                "--out", str(out)) == 0
    header = (tmp_path / "f2d_slice.csv").read_text().splitlines()[0]
    assert header == "axis2,re_t,im_t,abs_t,quadrature"


@pytest.mark.parametrize("figure,points", [("2c", 4), ("2d", 1000)])
def test_slice_off_the_axis1_grid_is_config_error(tmp_path, figure, points):
    # an even count has no grid row at dT = 0 / B = 0; the nearest row
    # would be a silently different slice
    rc, err = _quiet_main(["spectrum", "--figure", figure, "--points",
                           str(points), "--out", str(tmp_path / "x.csv")])
    assert rc == 2
    assert "slice_axis1_value" in err and "Traceback" not in err
    assert list(tmp_path.iterdir()) == []


def test_replayed_slice_off_the_axis1_range_is_config_error(tmp_path):
    doc = copy.deepcopy(_valid_sidecars()["spectrum-figure"])
    doc["slice_axis1_value"] = 1e6
    sidecar = tmp_path / "in.json"
    sidecar.write_text(json.dumps(doc), encoding="utf-8")
    rc, err = _quiet_main(["replay", str(sidecar), "--out",
                           str(tmp_path / "out" / "x.csv")])
    assert rc == 2
    assert "slice_axis1_value" in err and "Traceback" not in err
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("figure", ["2c", "2d"])
@pytest.mark.parametrize("points", [3, 23, 301])
def test_odd_point_counts_write_the_slice(tmp_path, figure, points):
    # at 23 points the middle dT grid value is 2.8e-14 K, not 0: the slice
    # is taken within a tolerance, not by equality
    out = tmp_path / "x.csv"
    assert _quiet_main(["spectrum", "--figure", figure, "--points",
                        str(points), "--out", str(out)])[0] == 0
    rows = (tmp_path / "x_slice.csv").read_text().splitlines()
    assert len(rows) == 1 + points


def test_spectrum_custom_axes_and_json_format(tmp_path):
    out = tmp_path / "grid.json"
    assert _run("spectrum", "--preset", "current",
                "--axis1", "cavity_offset:-5e6:5e6:7",
                "--axis2", "probe_offset:-5e6:5e6:9",
                "--format", "json", "--out", str(out)) == 0
    doc = json.loads(out.read_text())
    assert len(doc["abs_t"]) == 63
    assert max(doc["abs_t"]) <= 1.0


def test_spectrum_zero_points_is_config_error(tmp_path):
    rc = _run("spectrum", "--figure", "2a", "--points", "0",
              "--out", str(tmp_path / "x.csv"))
    assert rc == 2


def test_spectrum_bad_axis_variable(tmp_path):
    rc = _run("spectrum", "--axis1", "warp_factor:0:1:5",
              "--axis2", "probe_offset:0:1:5",
              "--out", str(tmp_path / "x.csv"))
    assert rc == 2


def test_operating_point_report(tmp_path, capsys):
    out = tmp_path / "op.json"
    assert _run("operating-point", "--preset", "current",
                "--out", str(out)) == 0
    doc = json.loads(out.read_text())
    assert doc["branch"] == "upper"
    assert doc["D_hz"] == pytest.approx(4.025e6, rel=0.01)
    assert abs(doc["dnudT_residual_hz_per_K"]) <= 1e-6 * 77e3
    assert doc["curvature_hz_per_K2"] == pytest.approx(241.0, rel=0.01)
    assert np.isfinite(doc["curvature_hz_per_T2"])
    assert doc["params"]["preset_name"] == "current"
    assert doc["closed_form_delta_rel"] < 0.02


def test_operating_point_stdout_when_no_out(capsys):
    assert _run("operating-point", "--preset", "outlook") == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["D_hz"] == pytest.approx(30.04e6, rel=0.01)


def test_operating_point_positive_R_is_solver_error(capsys):
    rc = _run("operating-point", "--preset", "current", "--R", "0.3")
    assert rc == 3
    assert "no operating point" not in capsys.readouterr().out
    # message lands on stderr via the solver-error path


@pytest.mark.parametrize("branch", ["upper", "lower"])
def test_operating_point_at_unit_ratio_is_resonance(capsys, branch):
    # |R| = 1 puts the root at D = 0, where the slope is exactly 0.0: a
    # sample with a zero slope is the root, not a missed sign change
    assert _run("operating-point", "--R", "-1", "--branch", branch) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["D_hz"] == 0
    assert doc["closed_form_D_hz"] == 0


@pytest.mark.parametrize("r", ["-0.001", "-300"])
def test_operating_point_outside_the_scan_is_solver_error(capsys, r):
    # the closed-form root lies beyond +/-20 g: the seed must not be
    # returned unchecked
    assert _run("operating-point", "--R", r) == 3
    assert "no sign change" in capsys.readouterr().err


def test_operating_point_off_the_closed_form_root_is_solver_error(
        capsys, monkeypatch):
    # the closed form is checked by one solve at its root: a root 1% off
    # leaves a thermal slope the residual guard refuses
    exact = polariton._insensitive_detunings
    monkeypatch.setattr(polariton, "_insensitive_detunings",
                        lambda *a: [1.01 * d for d in exact(*a)])
    assert _run("operating-point") == 3
    out, err = capsys.readouterr()
    assert out == ""
    assert err.startswith("solver error: |dnu/dT| = "), err
    assert "at the closed-form root" in err


def test_operating_point_replay(tmp_path):
    out = tmp_path / "op.json"
    assert _run("operating-point", "--preset", "outlook",
                "--out", str(out)) == 0
    replay = tmp_path / "op2.json"
    assert _run("replay", str(tmp_path / "op.json.provenance.json"),
                "--out", str(replay)) == 0
    assert out.read_bytes() == replay.read_bytes()


def test_stability_csv_and_replay(tmp_path):
    out = tmp_path / "stab.csv"
    assert _run("stability", "--preset", "current", "--tau", "0.1..1e4",
                "--tau-points", "21", "--out", str(out)) == 0
    lines = out.read_text().splitlines()
    assert lines[0] == ("tau_s,sigma_total,sigma_shot,"
                        "floor_thermal,floor_magnetic,floor_pump")
    assert len(lines) == 22
    row1 = dict(zip(lines[0].split(","), map(float, lines[11].split(","))))
    assert row1["sigma_total"] >= row1["sigma_shot"]

    replay = tmp_path / "stab2.csv"
    assert _run("replay", str(tmp_path / "stab.csv.provenance.json"),
                "--out", str(replay)) == 0
    assert out.read_bytes() == replay.read_bytes()


def test_stability_sigma_at_one_second(tmp_path):
    out = tmp_path / "stab.csv"
    assert _run("stability", "--preset", "current", "--tau", "1..1e4",
                "--tau-points", "5", "--out", str(out)) == 0
    first = out.read_text().splitlines()[1].split(",")
    tau, sigma_shot = float(first[0]), float(first[2])
    assert tau == 1.0
    assert sigma_shot == pytest.approx(7.0e-14, rel=0.01)


def test_stability_zero_power_is_config_error(tmp_path):
    rc = _run("stability", "--preset", "current",
              "--power-photons-per-s", "0",
              "--out", str(tmp_path / "x.csv"))
    assert rc == 2


def test_stability_bad_tau_range(tmp_path):
    rc = _run("stability", "--tau", "5..1", "--out", str(tmp_path / "x.csv"))
    assert rc == 2


def test_overrides_recorded_in_provenance(tmp_path):
    out = tmp_path / "s.csv"
    assert _run("stability", "--preset", "current", "--g-hz", "2e6",
                "--dT-mk", "5", "--B-nt", "20", "--seed", "42",
                "--out", str(out)) == 0
    doc = json.loads((tmp_path / "s.csv.provenance.json").read_text())
    assert doc["config"]["g_collective_hz"] == 2e6
    assert doc["config"]["dt_stab_k"] == pytest.approx(5e-3)
    assert doc["config"]["db_stab_t"] == pytest.approx(20e-9)
    assert doc["seed"] == 42


def test_magnetic_stability_is_a_config_key(tmp_path):
    # --B-nt sets db_stab_t in the config, as --dT-mk sets dt_stab_k: a
    # sidecar whose config alone holds it replays to the same report, whose
    # params echo shows it, and it gives a magnetic floor at B = 0
    fresh = tmp_path / "a.json"
    assert _run("operating-point", "--B-nt", "10", "--out", str(fresh)) == 0
    plain = tmp_path / "plain.json"
    assert _run("operating-point", "--out", str(plain)) == 0
    doc = json.loads((tmp_path / "plain.json.provenance.json").read_text())
    assert "db_stab_t" not in doc and doc["config"]["db_stab_t"] == 0.0
    doc["config"]["db_stab_t"] = 10 * 1e-9  # --B-nt's scaling from nT
    sidecar = tmp_path / "in.json"
    sidecar.write_text(json.dumps(doc), encoding="utf-8")
    replayed = tmp_path / "r.json"
    assert _run("replay", str(sidecar), "--out", str(replayed)) == 0
    assert replayed.read_bytes() == fresh.read_bytes()
    report = json.loads(fresh.read_text())
    assert report["params"]["db_stab_t"] == pytest.approx(10e-9)
    assert report["params"]["b_field_t"] == 0.0
    assert report["magnetic_floor_fractional"] > 0
    assert json.loads(plain.read_text())["magnetic_floor_fractional"] == 0.0


def test_shared_parser_keeps_no_state_between_calls(tmp_path):
    def outputs(directory):
        return [(directory / name).read_bytes()
                for name in ("s.csv", "s.csv.provenance.json")]

    plain = ["stability", "--tau-points", "9"]
    _parser.cache_clear()  # the plain call on a fresh parser
    assert _run(*plain, "--out", str(tmp_path / "alone" / "s.csv")) == 0
    _parser.cache_clear()
    assert _run(*plain, "--preset", "outlook", "--g-hz", "2e6", "--dT-mk",
                "5", "--out", str(tmp_path / "first" / "s.csv")) == 0
    assert _run(*plain, "--out", str(tmp_path / "after" / "s.csv")) == 0
    assert outputs(tmp_path / "after") == outputs(tmp_path / "alone")
    assert outputs(tmp_path / "first") != outputs(tmp_path / "alone")


def test_operating_point_lower_branch_closed_form(tmp_path):
    out = tmp_path / "op.json"
    assert _run("operating-point", "--preset", "current", "--branch", "lower",
                "--out", str(out)) == 0
    doc = json.loads(out.read_text())
    assert doc["branch"] == "lower"
    assert doc["D_hz"] == pytest.approx(-4.025e6, rel=0.01)
    assert doc["closed_form_D_hz"] == pytest.approx(doc["D_hz"], rel=0.02)
    assert doc["closed_form_delta_rel"] < 0.02


@pytest.mark.parametrize("content", [None, "{not json", "[" * 100_000],
                         ids=["missing", "invalid-json", "deep-nesting"])
def test_replay_bad_sidecar_is_config_error(tmp_path, capsys, content):
    sidecar = tmp_path / "sidecar.json"
    if content is not None:
        sidecar.write_text(content, encoding="utf-8")
    rc = _run("replay", str(sidecar), "--out", str(tmp_path / "x.csv"))
    assert rc == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and str(sidecar) in err
    assert not (tmp_path / "x.csv").exists()


_AXIS = {"variable": "probe_offset", "start": -1e6, "stop": 1e6, "points": 5}


@pytest.mark.parametrize("doc,key", [
    ({"command": "spectrum"}, "version"),
    ({"command": "stability", "config": {}}, "version"),
    ({"version": __version__, "command": "spectrum"}, "config"),
    ({"version": __version__, "command": "stability", "config": {},
      "format": "csv"}, "tau_start_s"),
    ({"version": __version__, "command": "operating-point",
      "config": {"kappa_out_hz": "200e3"}, "branch": "upper"},
     "kappa_out_hz"),
    ({"version": __version__, "command": "spectrum", "config": {},
      "format": "csv", "quadrature_phase_rad": 1.5,
      "axis1": dict(_AXIS, variable="cavity_offset"),
      "axis2": dict(_AXIS, points="5"), "slice_axis1_value": None}, "points"),
    ({"version": __version__, "command": "operating-point",
      "config": {"n_spins": True}, "branch": "upper"}, "n_spins"),
    ({"version": "0.0.0", "command": "operating-point", "config": {},
      "branch": "upper"}, "version"),
    ({"version": __version__, "command": "stability", "config": {},
      "format": "csv", "tau_start_s": 0.1, "tau_stop_s": 10.0,
      "tau_points": 0}, "tau_points"),
    ([], "is not a JSON object"),
    ({"version": __version__, "command": "operating-point",
      "config": {"class_offsets_plus_hz": [0.0, 0.0],
                 "class_weights_plus": [1.0]},
      "branch": "upper"},
     "class_offsets_plus_hz and class_weights_plus differ in length"),
], ids=["no-version", "stability-no-version", "no-config", "no-tau-start",
        "string-kappa", "string-axis-points", "bool-n-spins", "other-version",
        "zero-tau-points", "array", "class-lists-differ-in-length"])
def test_replay_malformed_sidecar_is_config_error(tmp_path, capsys, doc, key):
    sidecar = tmp_path / "sidecar.json"
    sidecar.write_text(json.dumps(doc), encoding="utf-8")
    out = tmp_path / "x.csv"
    assert _run("replay", str(sidecar), "--out", str(out)) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and key in err
    assert not out.exists()


@pytest.mark.parametrize("argv,code,field", [
    (["operating-point", "--kappa-hz", "inf"], 2, "kappa_out"),
    (["operating-point", "--kappa-hz", "nan"], 2, "kappa_out"),
    (["stability", "--power-photons-per-s", "inf"], 2, "photon_flux"),
    (["spectrum", "--figure", "2a", "--points", "5",
      "--quadrature-deg", "nan"], 2, "quadrature_phase_rad"),
    (["operating-point", "--dT-mk", "nan"], 2, "dt_stab_k"),
    (["spectrum", "--figure", "2c", "--points", "5", "--dT-mk", "nan"], 2,
     "delta_t_k"),
    (["operating-point", "--g-hz", "nan"], 2, "g_collective"),
    (["operating-point", "--g-hz", "0"], 3, "coupling g = 0"),
    (["stability", "--B-nt", "inf"], 2, "db_stab_t"),
    # a stability is a magnitude, so a negative one is out of range
    (["operating-point", "--dT-mk", "-10"], 2, "dt_stab_k"),
    (["stability", "--B-nt", "-5"], 2, "db_stab_t"),
    (["stability", "--tau", "0.1..inf"], 2, "tau_stop_s"),
    (["stability", "--tau-points", "0"], 2, "tau_points"),
    # an axis end finite in Hz but not in rad/s, named as typed
    (["spectrum", "--axis1", "delta_T:0:1e308:3",
      "--axis2", "probe_offset:-1e308:1e308:3"], 2,
     "axis2 'start' = -1e+308 hz"),
    (["spectrum", "--axis1", "cavity_offset:0:1e308:3",
      "--axis2", "B_field:0:1e-6:3"], 2, "axis1 'stop' = 1e+308 hz"),
    # finite frequencies whose difference overflows, which a denominator
    # built in the grid made NaN
    (["spectrum", "--axis1", "cavity_offset:0:2e307:3",
      "--axis2", "probe_offset:-2e307:0:3"], 2,
     "cavity_offset x probe_offset sweep puts the cavity and probe"),
    (["spectrum", "--axis1", "delta_T:0:2e302:3",
      "--axis2", "probe_offset:-2e307:0:3"], 2,
     "delta_T x probe_offset sweep puts the spin line and probe"),
    # a malformed axis or tau range, named by its flag
    (["spectrum", "--points", "3"], 2,
     "--axis1 is required unless --figure is given"),
    (["spectrum", "--axis1", "probe_offset:1", "--axis2", "delta_T:-1:1:3"],
     2, "--axis1 must be variable:start:stop[:points]"),
    (["spectrum", "--axis1", "probe_offset:a:1", "--axis2", "delta_T:-1:1:3"],
     2, "--axis1: could not convert string to float: 'a'"),
    (["spectrum", "--axis1", "probe_offset:-1:1:x",
      "--axis2", "delta_T:-1:1:3"], 2,
     "--axis1: invalid literal for int() with base 10: 'x'"),
    (["stability", "--tau", "1-10"], 2, "--tau must look like 0.1..1e4"),
], ids=["kappa-inf", "kappa-nan", "power-inf", "quadrature-nan", "dT-nan",
        "spectrum-dT-nan", "g-nan", "g-zero", "B-inf", "dT-negative",
        "B-negative", "tau-inf",
        "tau-points-zero", "axis2-start-overflow", "axis1-stop-overflow",
        "cavity-probe-difference-overflow", "line-probe-difference-overflow",
        "no-axis1", "axis1-two-fields", "axis1-bad-start", "axis1-bad-points",
        "tau-not-a-range"])
def test_non_finite_flags_are_rejected(tmp_path, capsys, argv, code, field):
    assert _run(*argv, "--out", str(tmp_path / "out.csv")) == code
    assert field in capsys.readouterr().err
    assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize("argv,column", [
    (["spectrum", "--axis1", "delta_T:0:1e308:3",
      "--axis2", "probe_offset:-1e6:1e6:3"], "re_t"),
    (["spectrum", "--axis1", "delta_T:0:1e308:3",
      "--axis2", "probe_offset:-1e6:1e6:3", "--format", "json"], "re_t"),
    (["spectrum", "--axis1", "delta_T:-1e308:1e308:3",
      "--axis2", "probe_offset:-1e6:1e6:3"], "axis1"),
    (["spectrum", "--figure", "2a", "--points", "5", "--g-hz", "1e160"],
     "re_t"),
    (["stability", "--dT-mk", "1e308"], "sigma_total"),
    (["operating-point", "--dT-mk", "1e308"], "thermal_floor_fractional"),
    (["stability", "--B-nt", "1e300"], "sigma_total"),
], ids=["delta-T-overflow", "delta-T-overflow-json", "axis-overflow",
        "g-overflow", "stability-dT-overflow", "operating-point-dT-overflow",
        "stability-B-overflow"])
def test_non_finite_output_is_not_written(tmp_path, capsys, argv, column):
    # a numpy floating-point warning raised on the way would end the run
    # with an exception instead of the one error line
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        rc = _run(*argv, "--out", str(tmp_path / "out.csv"))
    assert rc == 2
    err = capsys.readouterr().err
    assert repr(column) in err
    assert "Warning" not in err and "Traceback" not in err
    assert list(tmp_path.iterdir()) == []


def test_fresh_runs_build_each_preset_once(monkeypatch):
    # a fresh run's preset is built and checked once per process; after
    # that, each run builds only the one parameter set its config gives
    checked = []
    check = params._check_fields
    monkeypatch.setattr(params, "_check_fields",
                        lambda obj: checked.append(type(obj)) or check(obj))
    table1_preset.cache_clear()
    counts = []
    for _ in range(2):
        checked.clear()
        assert _quiet_main(["operating-point", "--preset", "outlook"])[0] == 0
        counts.append(len(checked))
    one_set = 5  # the four parameter objects and the Preset
    assert counts == [2 * one_set, one_set], counts


def test_huge_coupling_shows_no_traceback(capsys):
    # g^2 overflows a float here: the run must end in a report, not raise
    assert _run("operating-point", "--g-hz", "1e160") == 0
    assert np.isfinite(json.loads(capsys.readouterr().out)["D_hz"])


def _expected_csv(header, columns):
    return (",".join(header) + "\n" + "".join(
        ",".join(repr(float(v)) for v in row) + "\n"
        for row in zip(*columns))).encode()


def _expected_json(header, columns):
    doc = {name: [float(v) for v in col] for name, col in zip(header, columns)}
    return (json.dumps(doc, sort_keys=True, indent=1) + "\n").encode()


def _edge_columns():
    """Columns over 2 blocks plus 3 rows, with the values repr treats
    specially: signed zeros, subnormals, both sides of its exponent
    switches, its longest text, and one value repeated across the block
    boundary.  Magnitudes recur with both signs in every block, and 0.0 and
    -0.0 fall in blocks of their own as well as in one block together."""
    n = 2 * _BLOCK_ROWS + 3
    rng = np.random.default_rng(5)
    specials = np.array([
        -0.0, 0.0, 5e-324, -5e-324, 2.225073858507201e-308, 1e-300,
        1e16, np.nextafter(1e16, 0), -1e16, 1e-5, 1e-4,
        np.nextafter(1e-4, 0), 0.1, 1.0, -2.5, 1.7976931348623157e308,
    ])
    signed_zero = np.where(np.arange(n) % 2, 0.0, -0.0)
    picks = rng.choice(specials, n)
    boundary = np.full(n, 0.1)
    boundary[_BLOCK_ROWS - 2:_BLOCK_ROWS + 2] = 3.0000000000000004
    bits = rng.integers(-2**63, 2**63 - 1, n, dtype=np.int64).view(np.float64)
    bits = np.where(np.isfinite(bits), bits, 1.5)
    subnormal = rng.integers(-2**52 + 1, 2**52, n).astype(np.int64)
    subnormal = np.abs(subnormal).view(np.float64) * np.sign(subnormal)
    signs = rng.choice([-1.0, 1.0], n)
    zeros = np.zeros(n)
    zeros[_BLOCK_ROWS // 2 + _BLOCK_ROWS:] = -0.0
    wide = 2.2250738585072014e-308 * signs
    return ("zero", "special", "boundary", "bits", "subnormal", "signed",
            "zeros", "wide"), (
        signed_zero, picks, boundary, bits, subnormal, picks * signs, zeros,
        wide)


@pytest.mark.parametrize("rows", [None, 0, 1, _BLOCK_ROWS],
                         ids=["blocks-plus-three", "no-rows", "one-row",
                              "one-block"])
def test_write_table_matches_repr_of_each_value(tmp_path, rows):
    # one text per magnitude serves both signs, -0.0 included
    header, columns = _edge_columns()
    columns = [col[:rows] for col in columns]
    for fmt, expected in (("csv", _expected_csv), ("json", _expected_json)):
        out = tmp_path / f"t.{fmt}"
        with open(out, "wb") as f:
            write_table(f, header, columns, fmt)
        assert out.read_bytes() == expected(header, columns), fmt


@pytest.mark.parametrize("shape", [(3, 5), (7, _BLOCK_ROWS // 3),
                                   (2, _BLOCK_ROWS + 5)],
                         ids=["one-block", "rows-per-block", "long-rows"])
def test_write_table_writes_grids_in_row_order(tmp_path, shape):
    # 2-D columns, broadcast views included, are written as their C-order
    # flattening, whether a block holds whole rows or part of one
    n1, n2 = shape
    rng = np.random.default_rng(3)
    grids = (np.broadcast_to(np.linspace(-1.0, 1.0, n1)[:, None], shape),
             np.broadcast_to(np.linspace(-3.0, 3.0, n2), shape),
             rng.standard_normal(shape))
    header = ("a", "b", "c")
    flat = [grid.reshape(-1) for grid in grids]
    for fmt, expected in (("csv", _expected_csv), ("json", _expected_json)):
        out = tmp_path / f"t.{fmt}"
        with open(out, "wb") as f:
            write_table(f, header, grids, fmt)
        assert out.read_bytes() == expected(header, flat), fmt


def test_write_table_writes_bytes_to_any_binary_file(tmp_path):
    # the writer needs only a write of bytes: an io.BytesIO gets the bytes
    # a file gets
    header, columns = _edge_columns()
    for fmt in ("csv", "json"):
        path, memory = tmp_path / f"t.{fmt}", io.BytesIO()
        with open(path, "wb") as f:
            write_table(f, header, columns, fmt)
        write_table(memory, header, columns, fmt)
        assert memory.getvalue() == path.read_bytes(), fmt


def _write_table_peaks(tmp_path, data) -> list:
    """The tracemalloc peaks of writing a sweep-shaped table as CSV and as
    JSON at 20,000 and 100,000 rows (25 blocks): two repeating axis columns
    and three data columns of ``data(n)``."""
    peaks = []
    for n in (20_000, 100_000):
        columns = [np.repeat(np.linspace(-1.0, 1.0, n // 100), 100),
                   np.tile(np.linspace(0.0, 3.0, 100), n // 100),
                   data(n), data(n), data(n)]
        for fmt in ("csv", "json"):
            tracemalloc.start()
            try:
                with open(tmp_path / f"t.{fmt}", "wb") as f:
                    write_table(f, "abcde", columns, fmt)
                peaks.append((n, fmt, tracemalloc.get_traced_memory()[1]))
            finally:
                tracemalloc.stop()
    return peaks


def test_write_table_memory_does_not_grow_with_rows(tmp_path):
    # the data are drawn from a pool of 256 values
    rng = np.random.default_rng(9)
    pool = rng.standard_normal(256)
    peaks = _write_table_peaks(tmp_path, lambda n: rng.choice(pool, n))
    assert max(peak for *_, peak in peaks) < 4e6, peaks


def test_write_table_memory_of_distinct_values_does_not_grow_with_rows(
        tmp_path):
    # every data value distinct: each block is formatted where it stands,
    # so the peak is one block's at any row count
    rng = np.random.default_rng(10)
    peaks = _write_table_peaks(tmp_path, rng.standard_normal)
    assert max(peak for *_, peak in peaks) < 4e6, peaks


# Flag values a user can type: ordinary ones, both signs of zero, the
# non-finite ones and the extremes of a float.
_FLAG_VALUES = st.one_of(
    st.floats(allow_nan=True, allow_infinity=True),
    st.sampled_from([0.0, -0.0, 1.0, -1.0, 5e-324, 1e-300, 1e300, -1e300,
                     1.7976931348623157e308, -1.7976931348623157e308]),
    st.floats(-1e9, 1e9),
)
_FUZZ_FLAGS = ("--g-hz", "--R", "--kappa-hz", "--dT-mk", "--B-nt",
               "--power-photons-per-s", "--quadrature-deg")
_FUZZ_COMMANDS = {
    "operating-point": ["operating-point"],
    "stability": ["stability", "--tau-points", "5"],
    "spectrum": ["spectrum", "--figure", "2a", "--points", "5"],
}


def _quiet_main(argv):
    """``main(argv)`` with stdout dropped; returns (exit code, stderr)."""
    err = io.StringIO()
    with contextlib.redirect_stdout(io.StringIO()), \
            contextlib.redirect_stderr(err):
        rc = main(argv)
    return rc, err.getvalue()


@settings(max_examples=150, deadline=None, derandomize=True)
@given(command=st.sampled_from(sorted(_FUZZ_COMMANDS)),
       flags=st.dictionaries(st.sampled_from(_FUZZ_FLAGS), _FLAG_VALUES,
                             max_size=len(_FUZZ_FLAGS)))
@example(command="operating-point", flags={"--g-hz": 1.0, "--R": -1.0})
@example(command="operating-point", flags={"--g-hz": -1e16})
def test_flag_fuzz_ends_in_a_documented_exit(command, flags):
    # any value of any flag ends in success, a configuration error or a
    # solver error, never in a traceback or a warning; values are passed
    # as separate arguments, so a negative one must not read as an option
    argv = [*_FUZZ_COMMANDS[command],
            *(arg for flag, value in flags.items()
              if command == "spectrum" or flag != "--quadrature-deg"
              for arg in (flag, repr(value)))]
    with tempfile.TemporaryDirectory() as tmp:
        rc, err = _quiet_main([*argv, "--out", str(Path(tmp) / "out.csv")])
    assert rc in (0, 2, 3), argv
    assert "Traceback" not in err, argv
    assert "Warning" not in err, argv


@pytest.mark.parametrize("argv", [
    ["operating-point", "--R", "-1e-3"],
    ["operating-point", "--R", "-1E+2"],
    ["operating-point", "--g-hz", "-inf"],
    ["spectrum", "--figure", "2a", "--points", "5",
     "--quadrature-deg", "-1e1"],
], ids=["R-exponent", "R-capital-exponent", "g-minus-inf",
        "quadrature-exponent"])
def test_negative_flag_value_in_exponent_form(tmp_path, argv):
    # "--flag -1e-3" must mean the same as "--flag=-1e-3"
    *head, flag, value = argv
    out = tmp_path / "out.csv"
    results = []
    for form in (argv, [*head, f"{flag}={value}"]):
        rc, err = _quiet_main([*form, "--out", str(out)])
        files = {f.name: f.read_bytes() for f in tmp_path.iterdir()}
        for f in tmp_path.iterdir():
            f.unlink()
        results.append((rc, err, files))
    assert results[0] == results[1]
    assert results[0][0] in (0, 2, 3)


def test_oversized_sweep_grid_is_config_error(tmp_path, capsys):
    # 3e6 x 3e6 complex points are beyond any address space: the grid
    # allocation fails at once, before a block runs or a file opens
    assert _run("spectrum", "--figure", "2a", "--points", "3000000",
                "--out", str(tmp_path / "out.csv")) == 2
    err = capsys.readouterr().err
    assert "3000000 x 3000000" in err and "Traceback" not in err
    assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize("argv,sidecar,place,key", [
    (["stability", "--tau-points", str(10 ** 14)], "stability", "top",
     "tau_points"),
    (["spectrum", "--axis1", f"probe_offset:-1e6:1e6:{10 ** 14}",
      "--axis2", "cavity_offset:-1e6:1e6:3"], "spectrum-axes", "axis1",
     "points"),
], ids=["tau-points", "axis-points"])
def test_oversized_point_count_is_config_error(tmp_path, argv, sidecar,
                                               place, key):
    # 10**14 float64 points are beyond any address space, so the allocation
    # fails at once; from a flag or a replayed sidecar the run exits 2
    # naming the count and writes nothing
    doc = copy.deepcopy(_valid_sidecars()[sidecar])
    (doc if place == "top" else doc[place])[key] = 10 ** 14
    (tmp_path / "in.json").write_text(json.dumps(doc), encoding="utf-8")
    out = tmp_path / "out" / "out.csv"
    for run in (argv, ["replay", str(tmp_path / "in.json")]):
        rc, err = _quiet_main([*run, "--out", str(out)])
        assert rc == 2, (run, err)
        assert str(10 ** 14) in err and "Traceback" not in err, err
        assert not out.parent.exists()


# The custom-axes run of _valid_sidecars
_AXES_RUN = ["spectrum", "--axis1", "B_field:-1e-6:1e-6", "--axis2",
             "cavity_offset:-1e6:1e6", "--points", "3", "--format", "json",
             "--seed", "4"]


@functools.cache
def _valid_sidecars() -> dict:
    """A valid sidecar document of each command, written by a fresh run."""
    runs = {
        "spectrum-figure": ["spectrum", "--figure", "2c", "--points", "3"],
        "spectrum-axes": _AXES_RUN,
        "stability": ["stability", "--tau-points", "3", "--B-nt", "5"],
        "operating-point": ["operating-point", "--branch", "lower"],
    }
    docs = {}
    with tempfile.TemporaryDirectory() as tmp:
        for name, argv in runs.items():
            out = Path(tmp) / "out.csv"
            assert _quiet_main([*argv, "--out", str(out)])[0] == 0
            docs[name] = json.loads(
                (Path(tmp) / "out.csv.provenance.json").read_text())
    return docs


# JSON values of every kind; floats include NaN and the infinities (written
# as the NaN / Infinity tokens), +/-1e308 and an integer no float can hold.
_JSON_SCALARS = st.one_of(
    st.none(), st.booleans(), st.text(max_size=6),
    st.integers(-2 ** 70, 2 ** 70), st.just(10 ** 400),
    st.floats(allow_nan=True, allow_infinity=True),
    st.sampled_from([1e308, -1e308, 0.0, -0.0, 5e-324,
                     1.3407807929942597e+154, -1.3407807929942597e+154]),
)
_JSON_VALUES = st.one_of(
    _JSON_SCALARS,
    st.lists(_JSON_SCALARS, max_size=3),
    st.dictionaries(st.text(max_size=4), _JSON_SCALARS, max_size=2),
)
_DROP = object()  # a mutation that removes the key


@st.composite
def _mutations(draw):
    """(sidecar, place, key, new value or _DROP) for one of the valid
    sidecars; the place is the top level, the config or an axis, and the
    key one of the place's or a new one."""
    name = draw(st.sampled_from(sorted(_valid_sidecars())))
    doc = _valid_sidecars()[name]
    place = draw(st.sampled_from(
        ["top", "config", *(axis for axis in ("axis1", "axis2")
                            if axis in doc)]))
    key = draw(st.one_of(
        st.sampled_from(sorted(doc if place == "top" else doc[place])),
        st.text(min_size=1, max_size=6)))
    if key in ("points", "tau_points"):
        # a count stays small, so no draw allocates a large grid
        values = _JSON_VALUES.filter(
            lambda v: not isinstance(v, int) or isinstance(v, bool) or v <= 64)
    else:
        values = _JSON_VALUES
    return name, place, key, draw(st.one_of(st.just(_DROP), values))


@settings(max_examples=200, deadline=None, derandomize=True)
@given(mutation=_mutations())
@example(mutation=("stability", "top", "seed", math.nan))
@example(mutation=("operating-point", "top", "tool", math.inf))
@example(mutation=("stability", "config", "kappa_loss_hz", 1e300))
@example(mutation=("stability", "top", "tau_start_s", -1.0))
@example(mutation=("spectrum-figure", "config", "g_collective_hz",
                   1.3407807929942597e+154))
@example(mutation=("operating-point", "config", "gamma_pump_hz",
                   1.3407807929942597e+154))
@example(mutation=("stability", "top", "db_stab", 5))
@example(mutation=("spectrum-axes", "axis1", "extra", 1))
@example(mutation=("spectrum-figure", "top", "command", ["spectrum"]))
def test_replay_fuzz_ends_in_a_documented_exit(mutation):
    # a sidecar with one key dropped, added or replaced ends in success, a
    # configuration error or a solver error; a failed run writes nothing
    name, place, key, value = mutation
    doc = copy.deepcopy(_valid_sidecars()[name])
    target = doc if place == "top" else doc[place]
    if value is _DROP:
        target.pop(key, None)
    else:
        target[key] = value
    with tempfile.TemporaryDirectory() as tmp:
        sidecar = Path(tmp) / "in.json"
        sidecar.write_text(json.dumps(doc), encoding="utf-8")
        out = Path(tmp) / "out" / "out.csv"
        rc, err = _quiet_main(["replay", str(sidecar), "--out", str(out)])
        written = list(out.parent.iterdir()) if out.parent.exists() else []
    assert rc in (0, 2, 3), mutation
    assert "Traceback" not in err and "Warning" not in err, (mutation, err)
    if rc:
        assert written == [], (mutation, err)


def _replayed_outputs(doc: dict, directory: Path) -> dict:
    """What replaying ``doc`` into ``directory`` writes besides its sidecar;
    the operating-point report is parsed and its ``params`` echo dropped."""
    directory.mkdir()
    sidecar = directory / "in.json"
    sidecar.write_text(json.dumps(doc), encoding="utf-8")
    out = directory / "out.txt"
    rc, err = _quiet_main(["replay", str(sidecar), "--out", str(out)])
    assert rc == 0, err
    outputs = {f.name: f.read_bytes() for f in directory.iterdir()
               if f.name.startswith("out")
               and not f.name.endswith(".provenance.json")}
    if doc["command"] == "operating-point":
        report = json.loads(outputs[out.name])
        del report["params"]
        outputs[out.name] = report
    return outputs


# preset_name is the label of the parameter set: only the sidecar and the
# operating-point report's params echo carry it
@pytest.mark.parametrize("key", sorted(KNOWN_CONFIG_KEYS - {"preset_name"}))
def test_every_config_key_changes_an_output(tmp_path, key):
    # a setting that no output reads would be ignored without a word: a
    # changed value of each config key must change some output of some
    # command.  g0 and N set the coupling only when g_collective_hz is null,
    # and a class weight acts only between classes at different offsets
    for name, doc in _valid_sidecars().items():
        base = copy.deepcopy(doc)
        config = base["config"]
        if key in ("g0_single_hz", "n_spins"):
            config["g_collective_hz"] = None
        moved = copy.deepcopy(base)
        if key.startswith("class_weights_"):
            offsets = key.replace("class_weights_", "class_offsets_") + "_hz"
            for cfg, weights in ((config, [0.5, 0.5]),
                                 (moved["config"], [0.25, 0.75])):
                cfg[offsets], cfg[key] = [0.0, 1e5], weights
        elif key.startswith("class_offsets_"):
            moved["config"][key] = [1e3]
        else:
            moved["config"][key] = 0.75 * config[key] if config[key] else 1e-3
        if _replayed_outputs(base, tmp_path / f"{name}-base") \
                != _replayed_outputs(moved, tmp_path / f"{name}-moved"):
            return
    pytest.fail(f"no output of any command reads {key}")


@pytest.mark.parametrize("key", ["omega_probe_hz", "beta_amplitude_sqrt_per_s",
                                 "quadrature_phase_rad", "tau_s"])
def test_sidecar_with_a_removed_probe_key_is_config_error(tmp_path, key):
    # the probe keys that no output read are gone; a sidecar that still
    # carries one exits 2 naming it and writes nothing
    for name, doc in _valid_sidecars().items():
        doc = copy.deepcopy(doc)
        doc["config"][key] = 1.0
        sidecar = tmp_path / f"{name}.json"
        sidecar.write_text(json.dumps(doc), encoding="utf-8")
        out = tmp_path / name / "out.csv"
        rc, err = _quiet_main(["replay", str(sidecar), "--out", str(out)])
        assert rc == 2, (name, err)
        assert f"config has unknown key(s): {key}" in err, err
        assert "Traceback" not in err and not out.parent.exists()


def _write_doc(path: Path, doc: dict) -> Path:
    path.write_text(json.dumps(doc), encoding="utf-8")
    return path


@pytest.mark.parametrize("name,place,key,value,named", [
    ("stability", "top", "db_stab", 5, "unknown key(s): db_stab"),
    # the magnetic stability is a config key; a sidecar that holds it at the
    # top level, as older sidecars do, exits 2 naming it
    ("stability", "top", "db_stab_t", 5e-9, "unknown key(s): db_stab_t"),
    ("operating-point", "top", "db_stab_t", 0.0,
     "unknown key(s): db_stab_t"),
    ("spectrum-axes", "axis1", "extra", 1, "axis1 has unknown key(s): extra"),
    ("spectrum-axes", "axis2", "unit", "k", "axis2 'unit' must be one of 'hz'"),
    ("spectrum-figure", "axis1", "unit", "hz", "axis1 'unit'"),
    ("operating-point", "top", "tool", "other", "'tool'"),
    ("stability", "top", "seed", 1.5, "'seed'"),
    ("spectrum-axes", "top", "seed", True, "'seed'"),
], ids=["top-level-key", "stability-top-level-db-stab-t",
        "operating-point-top-level-db-stab-t", "axis-key", "hz-axis-in-kelvin",
        "kelvin-axis-in-hz", "other-tool", "float-seed", "bool-seed"])
def test_replay_rejects_what_no_run_writes(tmp_path, name, place, key, value,
                                          named):
    # a key that no run reads, or a tool, seed or axis unit that no run
    # writes, exits 2 naming it and writes nothing, so it cannot reach the
    # new sidecar
    doc = copy.deepcopy(_valid_sidecars()[name])
    (doc if place == "top" else doc[place])[key] = value
    sidecar = _write_doc(tmp_path / "in.json", doc)
    out = tmp_path / "out" / "out.csv"
    rc, err = _quiet_main(["replay", str(sidecar), "--out", str(out)])
    assert rc == 2, err
    assert err.startswith(f"error: sidecar {sidecar} ") and named in err, err
    assert not out.parent.exists()


@pytest.mark.parametrize("name", ["spectrum-figure", "spectrum-axes",
                                  "stability", "operating-point"])
def test_replay_without_tool_seed_and_units(tmp_path, name):
    # no computation reads these keys, so a hand-written sidecar may leave
    # them out and replays to the same outputs
    doc = copy.deepcopy(_valid_sidecars()[name])
    full = _replayed_outputs(doc, tmp_path / "full")
    for target in (doc, doc.get("axis1", {}), doc.get("axis2", {})):
        for key in ("tool", "seed", "unit"):
            target.pop(key, None)
    assert _replayed_outputs(doc, tmp_path / "bare") == full


# A value out of its key's range for every config key whose rule bounds it,
# and for the class lists
_OUT_OF_RANGE = {
    "omega_zfs_hz": 0.0, "gamma_pump_hz": -1.0, "gamma_dephasing_hz": -1.0,
    "gamma_relax_hz": -5.0, "g0_single_hz": -1.0, "g_collective_hz": -1.0,
    "n_spins": 0.5, "kappa_out_hz": 0.0, "kappa_loss_hz": -1.0,
    "dt_stab_k": -1e-3, "db_stab_t": -1e-9,
    "photon_flux_per_s": 0.0, "class_offsets_plus_hz": [math.nan],
    "class_offsets_minus_hz": [math.inf], "class_weights_plus": [1.5],
    "class_weights_minus": [-0.5],
}
# An Hz value of 1e308 is finite, and infinite in rad/s
_OVERFLOWING = {**{key: 1e308 for key, (_, _, hz, _) in _FIELDS.items() if hz},
                **{offsets: [1e308] for offsets, _ in _CLASS_KEYS.values()}}


def test_every_bounded_config_key_has_an_out_of_range_case():
    unbounded = {key for key, (*_, (_, expected)) in _FIELDS.items()
                 if expected in ("a finite number", "a string")}
    assert set(_OUT_OF_RANGE) == KNOWN_CONFIG_KEYS - unbounded


@pytest.mark.parametrize("key,value", [*_OUT_OF_RANGE.items(),
                                       *_OVERFLOWING.items()])
def test_replay_out_of_range_config_value_names_its_key(tmp_path, key, value):
    # a value that breaks its key's rule, read from a sidecar or overflowing
    # when turned into rad/s, exits 2 naming the key and writes nothing
    doc = copy.deepcopy(_valid_sidecars()["stability"])
    doc["config"][key] = value
    sidecar = _write_doc(tmp_path / "in.json", doc)
    out = tmp_path / "out" / "out.csv"
    rc, err = _quiet_main(["replay", str(sidecar), "--out", str(out)])
    assert rc == 2, err
    assert err.startswith("error: ") and key in err, err
    assert "Traceback" not in err and not out.parent.exists()


_THIRD = [1 / 3] * 3


@pytest.mark.parametrize("name", ["operating-point", "stability"])
@pytest.mark.parametrize("config,named", [
    ({"class_offsets_plus_hz": [-2.16e6, 0.0, 2.16e6],
      "class_weights_plus": _THIRD,
      "class_offsets_minus_hz": [-2.16e6, 0.0, 2.16e6],
      "class_weights_minus": _THIRD}, "class_offsets_plus_hz"),
    ({"class_offsets_minus_hz": [1e3]}, "class_offsets_minus_hz"),
    ({"class_offsets_plus_hz": [0.0, 0.0], "class_weights_plus": [0.5, 0.5]},
     "class_offsets_plus_hz"),
    ({"class_offsets_minus_hz": [], "class_weights_minus": []}, None),
], ids=["hyperfine-triplet", "off-center", "two-at-center", "one-line"])
def test_replay_with_spin_classes_is_config_error(tmp_path, name, config,
                                                  named):
    # the eigen solve folds each branch into one line at its center, so with
    # the 14N triplet resolved it reported the unresolved D (4024922.36 Hz);
    # a branch of one class at its center, or none, is what it solves
    doc = copy.deepcopy(_valid_sidecars()[name])
    doc["config"].update(config)
    sidecar = _write_doc(tmp_path / "in.json", doc)
    out = tmp_path / "out" / "out.csv"
    rc, err = _quiet_main(["replay", str(sidecar), "--out", str(out)])
    if named is None:
        assert rc == 0, err
        return
    assert rc == 2, err
    assert err == (f"error: sidecar {sidecar} {named}: the eigen model "
                   "solves each branch as one line at its center, so it "
                   "takes one spin class per branch, at offset 0\n"), err
    assert not out.parent.exists()


_LINE_KEYS = ("gamma_dephasing_hz", "gamma_pump_hz")
_PUMP_KEYS = ("gamma_pump_hz", "gamma_relax_hz")
_PUMP_CASES = {f"{name}-pump-rates-{hz!r}": (name, hz)
               for name in ("operating-point", "stability")
               for hz in (0.0, 1e-170, 1e300)}


@pytest.mark.parametrize("name,config,named", [
    ("stability", {"db_stab_t": math.inf}, ["config 'db_stab_t'"]),
    ("stability", {"kappa_out_hz": 1e308}, ["kappa_out_hz"]),
    ("spectrum-axes", dict.fromkeys(_LINE_KEYS, 0.0), _LINE_KEYS),
    *((name, dict.fromkeys(_PUMP_KEYS, hz), _PUMP_KEYS)
      for name, hz in _PUMP_CASES.values()),
], ids=["infinite-field-noise", "kappa-overflows", "zero-linewidth",
        *_PUMP_CASES])
def test_replayed_config_error_names_the_sidecar(tmp_path, name, config,
                                                 named):
    # a config value that the runner rejects, out of range or overflowing
    # in rad/s, names the sidecar it came from, as a key at the sidecar's
    # top level does (test_replay_with_spin_classes_is_config_error checks
    # the same of the eigen model's one-line rule); a pair of rates the
    # model cannot take, a zero spin linewidth or pump and relaxation rates
    # whose sum squares to 0 or to infinity, names both keys
    doc = copy.deepcopy(_valid_sidecars()[name])
    doc["config"].update(config)
    sidecar = _write_doc(tmp_path / "in.json", doc)
    out = tmp_path / "out" / "out.csv"
    rc, err = _quiet_main(["replay", str(sidecar), "--out", str(out)])
    assert rc == 2, err
    assert err.startswith(f"error: sidecar {sidecar} "), err
    assert all(key in err for key in named), err
    assert not out.parent.exists()


def test_stdout_report_error_names_the_command(capsys):
    # the report that goes to stdout is computed under the same name
    assert main(["operating-point", "--B-nt", "inf"]) == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert err.startswith("error: operating-point config 'db_stab_t' "), err


@pytest.mark.parametrize("argv,name,top,config,named", [
    (["stability", "--tau", "5..1"], "stability",
     {"tau_start_s": 5.0, "tau_stop_s": 1.0}, {}, "tau_start_s"),
    (["stability", "--tau", "5..5"], "stability",
     {"tau_start_s": 5.0, "tau_stop_s": 5.0}, {}, "tau_start_s"),
    (["stability", "--tau-points", "0"], "stability", {"tau_points": 0}, {},
     "tau_points"),
    (["spectrum", "--figure", "2c", "--points", "3",
      "--power-photons-per-s", "0"], "spectrum-figure", {},
     {"photon_flux_per_s": 0.0}, "photon_flux_per_s"),
    (["stability", "--B-nt", "inf"], "stability", {}, {"db_stab_t": math.inf},
     "db_stab_t"),
    (["spectrum", "--figure", "2c", "--points", "0"], "spectrum-figure",
     {"axis1": {"points": 0}, "axis2": {"points": 0}}, {}, "axis1 'points'"),
    ([*_AXES_RUN[:4], "cavity_offset:1e6:-1e6", *_AXES_RUN[5:]],
     "spectrum-axes", {"axis2": {"start": 1e6, "stop": -1e6}}, {},
     "axis2 'start'"),
    ([*_AXES_RUN[:4], "B_field:-1e-6:1e-6", *_AXES_RUN[5:]], "spectrum-axes",
     {"axis2": {"variable": "B_field", "start": -1e-6, "stop": 1e-6,
                "unit": "t"}}, {}, "axis1 and axis2"),
], ids=["reversed-tau", "empty-tau", "no-tau-points", "spectrum-zero-power",
        "infinite-field-noise", "figure-zero-points", "reversed-axis",
        "one-variable-twice"])
def test_flags_and_sidecar_fail_alike(tmp_path, argv, name, top, config,
                                      named):
    # a value given by a flag and the same value in a valid sidecar exit 2
    # with the same message after the name of the document, which names the
    # document key, writing nothing
    doc = copy.deepcopy(_valid_sidecars()[name])
    for key, value in top.items():  # an axis takes the fields given
        doc[key] = {**doc[key], **value} if isinstance(value, dict) else value
    doc["config"].update(config)
    sidecar = _write_doc(tmp_path / "in.json", doc)
    out = tmp_path / "out" / "out.csv"
    fresh = _quiet_main([*argv, "--out", str(out)])
    replay = _quiet_main(["replay", str(sidecar), "--out", str(out)])
    assert fresh[0] == replay[0] == 2, (fresh, replay)
    assert fresh[1].removeprefix(f"error: {argv[0]} ") \
        == replay[1].removeprefix(f"error: sidecar {sidecar} "), \
        (fresh, replay)
    assert named in fresh[1] and named in replay[1], (named, fresh, replay)
    assert not out.parent.exists()


@pytest.mark.parametrize("axes,message", [
    (["probe_offset:1e6:-1e6", "cavity_offset:-1e6:1e6"],
     "axis1 'start' must be <= 'stop', got 1000000.0 and -1000000.0"),
    (["delta_T:-1:1", "probe_offset:5e6:-5e6"],
     "axis2 'start' must be <= 'stop', got 5000000.0 and -5000000.0"),
    (["probe_offset:-1e6:1e6", "probe_offset:-2e6:2e6"],
     "axis1 and axis2 must sweep different variables, got 'probe_offset' "
     "twice"),
], ids=["axis1-reversed", "axis2-reversed", "one-variable-twice"])
def test_spectrum_axis_errors_name_their_keys(tmp_path, axes, message):
    # a rule between the fields of the axes names the document keys and
    # gives the values as typed, in Hz, not as the model holds them
    out = tmp_path / "x.csv"
    rc, err = _quiet_main(["spectrum", "--axis1", axes[0], "--axis2", axes[1],
                           "--points", "3", "--out", str(out)])
    assert (rc, err) == (2, f"error: spectrum {message}\n")
    assert not out.exists()


def test_hz_flag_is_recorded_as_typed(tmp_path):
    # the flag's value goes into the document as typed, not through rad/s
    # and back (which gives 3300000.0000000005)
    out = tmp_path / "op.json"
    assert _run("operating-point", "--g-hz", "3.3e6", "--out", str(out)) == 0
    sidecar = json.loads((tmp_path / "op.json.provenance.json").read_text())
    assert sidecar["config"]["g_collective_hz"] == 3300000.0
    assert json.loads(out.read_text())["params"]["g_collective_hz"] \
        == 3300000.0


def test_operating_point_has_no_format_flag(capsys):
    # the report is always JSON
    with pytest.raises(SystemExit) as exc:
        main(["operating-point", "--format", "csv"])
    assert exc.value.code == 2
    assert "--format" in capsys.readouterr().err


# --- writing outputs -----------------------------------------------------------


# A small run of each output kind and the name of its --out; the JSON
# spectrum also writes a slice.
_OUTPUT_KINDS = {
    "csv-table": (["stability", "--tau-points", "5"], "out.csv"),
    "json-table": (["spectrum", "--figure", "2c", "--points", "5",
                    "--format", "json"], "out.json"),
    "report": (["operating-point"], "out.json"),
}


def _contents(directory: Path) -> dict:
    return {f.name: f.read_bytes() for f in directory.iterdir()}


@pytest.mark.parametrize("kind", sorted(_OUTPUT_KINDS))
def test_rewrite_over_longer_files_leaves_no_stale_tail(tmp_path, kind):
    # every path a run writes already holds a longer file: afterwards each
    # holds exactly the bytes of a run into an empty directory
    argv, name = _OUTPUT_KINDS[kind]
    fresh, reused = tmp_path / "fresh", tmp_path / "reused"
    assert _quiet_main([*argv, "--out", str(fresh / name)])[0] == 0
    reused.mkdir()
    for f in fresh.iterdir():
        (reused / f.name).write_bytes(b"x" * (f.stat().st_size + 4096))
    assert _quiet_main([*argv, "--out", str(reused / name)])[0] == 0
    assert _contents(reused) == _contents(fresh)


@pytest.mark.parametrize("kind", sorted(_OUTPUT_KINDS))
def test_symlinked_out_is_written_through(tmp_path, kind):
    argv, name = _OUTPUT_KINDS[kind]
    fresh = tmp_path / "fresh" / name
    assert _quiet_main([*argv, "--out", str(fresh)])[0] == 0
    target = tmp_path / "target"
    target.write_bytes(b"x" * (fresh.stat().st_size + 4096))
    link = tmp_path / name
    link.symlink_to(target)
    assert _quiet_main([*argv, "--out", str(link)])[0] == 0
    assert link.is_symlink() and link.resolve() == target.resolve()
    assert target.read_bytes() == fresh.read_bytes()


@pytest.mark.parametrize("kind", sorted(_OUTPUT_KINDS))
def test_rewrite_replaces_the_file_instead_of_truncating(tmp_path, kind):
    # truncating a just-written file makes ext4 free its blocks and force
    # their allocation, which costs more than a small request's
    # computation: a rewritten output is a new inode.  A hard link to each
    # old file keeps its inode number from being reused, and keeps the old
    # bytes (the rerun's --seed changes the sidecar)
    argv, name = _OUTPUT_KINDS[kind]
    out, old = tmp_path / "out", tmp_path / "old"
    assert _quiet_main([*argv, "--out", str(out / name)])[0] == 0
    old.mkdir()
    before = _contents(out)
    for f in out.iterdir():
        os.link(f, old / f.name)
    assert _quiet_main([*argv, "--seed", "7", "--out", str(out / name)])[0] \
        == 0
    assert sorted(before) == sorted(_contents(out))
    for f in out.iterdir():
        assert f.stat().st_ino != (old / f.name).stat().st_ino, f.name
    assert _contents(old) == before
    sidecar = name + ".provenance.json"
    assert json.loads(_contents(out)[sidecar])["seed"] == 7
    assert json.loads(before[sidecar])["seed"] is None


def test_each_run_opens_only_its_outputs(tmp_path, monkeypatch):
    # a fresh run, a rerun over its files and a replay of each command
    # open exactly the output, its sidecar and a 2c/2d slice, each once,
    # and leave no file the opener did not open
    opened = []
    real = cli._open_output

    def counting(path):
        opened.append(path.name)
        return real(path)

    monkeypatch.setattr(cli, "_open_output", counting)
    runs = {
        "spectrum": (["spectrum", "--figure", "2d", "--points", "5"],
                     "s.csv", ["s_slice.csv"]),
        "stability": (["stability", "--tau-points", "5"], "t.csv", []),
        "operating-point": (["operating-point"], "o.json", []),
    }
    for command, (argv, name, extra) in runs.items():
        expected = sorted([name, name + ".provenance.json", *extra])
        sidecar = tmp_path / command / (name + ".provenance.json")
        for directory, run in ((command, argv), (command, argv),
                               ("replay-" + command,
                                ["replay", str(sidecar)])):
            opened.clear()
            out = tmp_path / directory / name
            assert _quiet_main([*run, "--out", str(out)])[0] == 0
            assert sorted(opened) == expected, (command, run)
            assert sorted(_contents(out.parent)) == expected, (command, run)


@pytest.mark.parametrize("argv,blocked", [
    (["stability", "--tau-points", "3"], "o.csv.provenance.json"),
    (["spectrum", "--figure", "2c", "--points", "3"], "o_slice.csv"),
], ids=["sidecar", "slice"])
def test_unwritable_path_of_a_run_writes_nothing(tmp_path, argv, blocked):
    # every path of a run is opened before its first byte is written: a
    # directory in the way of the sidecar or the 2c/2d slice exits 2
    # naming it, and leaves no output behind
    (tmp_path / blocked).mkdir()
    rc, err = _quiet_main([*argv, "--out", str(tmp_path / "o.csv")])
    assert rc == 2, err
    assert err.startswith(f"error: --out: cannot write {tmp_path / blocked}")
    assert "Traceback" not in err
    assert [f.name for f in tmp_path.iterdir()] == [blocked]


def test_unopenable_sidecar_removes_the_output_opened(tmp_path):
    # an --out name that fits the directory's limit, whose sidecar name,
    # 16 bytes longer, does not: the output is opened first, so its file
    # is closed and removed again, and the run leaves nothing
    name = "o" * (os.pathconf(tmp_path, "PC_NAME_MAX") - 4) + ".csv"
    out = tmp_path / name
    rc, err = _quiet_main(["stability", "--tau-points", "3",
                           "--out", str(out)])
    assert (rc, err) == (2, f"error: --out: cannot write {out}.provenance"
                            ".json: File name too long\n")
    assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize("argv,blocked", [
    (["stability", "--tau-points", "3"], "o.csv.provenance.json"),
    (["spectrum", "--figure", "2c", "--points", "3"], "o_slice.csv"),
], ids=["sidecar", "slice"])
def test_failed_rerun_leaves_the_files_in_place(tmp_path, argv, blocked):
    # a rerun with a directory where one of its files was exits 2 before it
    # removes any file at the run's other paths: each keeps bytes and inode
    out = tmp_path / "o.csv"
    assert _quiet_main([*argv, "--out", str(out)])[0] == 0
    (tmp_path / blocked).unlink()
    (tmp_path / blocked).mkdir()
    before = {f.name: (f.read_bytes(), f.stat().st_ino)
              for f in tmp_path.iterdir() if f.is_file()}
    assert "o.csv" in before
    rc, err = _quiet_main([*argv, "--out", str(out)])
    assert (rc, err) == (2, f"error: --out: cannot write {tmp_path / blocked}"
                            ": Is a directory\n")
    assert {f.name: (f.read_bytes(), f.stat().st_ino)
            for f in tmp_path.iterdir() if f.is_file()} == before


def test_out_below_a_dangling_symlink_is_config_error(tmp_path, monkeypatch):
    # the open finds no directory, and creating it stops at the link, which
    # exists but is no directory: the error names the link, not the output
    monkeypatch.chdir(tmp_path)
    Path("dl").mkdir()
    Path("dl/link").symlink_to("missing")
    rc, err = _quiet_main(["stability", "--tau-points", "3",
                           "--out", "dl/link/a/s.csv"])
    assert (rc, err) == (2, "error: --out: cannot write dl/link/a/s.csv: "
                            "dl/link: File exists\n")
    assert sorted(p.name for p in tmp_path.rglob("*")) == ["dl", "link"]


def test_out_in_new_nested_directories(tmp_path):
    out = tmp_path / "a" / "b" / "o.csv"
    assert _quiet_main(["stability", "--tau-points", "3",
                        "--out", str(out)])[0] == 0
    assert sorted(_contents(out.parent)) == ["o.csv", "o.csv.provenance.json"]


@pytest.mark.parametrize("form", ["directory", "under-a-file"])
@pytest.mark.parametrize("command", ["spectrum", "stability",
                                     "operating-point", "replay"])
def test_unwritable_out_is_config_error(tmp_path, command, form):
    # an --out that names a directory, or a path below a regular file,
    # exits 2 naming --out and the path, with no traceback and no file
    sidecar = tmp_path / "in.json"
    sidecar.write_text(json.dumps(_valid_sidecars()["stability"]),
                       encoding="utf-8")
    argv = {"spectrum": ["spectrum", "--figure", "2c", "--points", "3"],
            "stability": ["stability", "--tau-points", "3"],
            "operating-point": ["operating-point"],
            "replay": ["replay", str(sidecar)]}[command]
    work = tmp_path / "work"
    work.mkdir()
    if form == "directory":
        out = work / "out.csv"
        out.mkdir()
    else:
        (work / "file").write_bytes(b"")
        out = work / "file" / "out.csv"
    rc, err = _quiet_main([*argv, "--out", str(out)])
    assert rc == 2, err
    assert err.startswith(f"error: --out: cannot write {out}"), err
    assert "Traceback" not in err
    assert sorted(p.name for p in work.rglob("*")) == \
        (["out.csv"] if form == "directory" else ["file"])
