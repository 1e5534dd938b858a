import copy
import io
import json
import math
import os
import re
import subprocess
import sys
import tempfile
from contextlib import redirect_stderr, redirect_stdout
from unittest import mock

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import bridgeosc
from bridgeosc import _rk, cli, ode4, truebeam
from bridgeosc.cli import main
from bridgeosc.scenarios import BUILTINS, list_builtins


def test_list_builtins_contains_required(capsys):
    assert main(["list"]) == 0
    names = capsys.readouterr().out.split()
    for required in ("figure12", "figure13", "figure16-eps0.1",
                     "tacoma-eigen-625", "flutter-doubling"):
        assert required in names
    assert len(names) == len(set(names))


def test_builtin_tacoma_eigen(tmp_path, capsys):
    assert main(["run", "--builtin", "tacoma-eigen-625",
                 "--out", str(tmp_path)]) == 0
    csv = (tmp_path / "tacoma-eigen-625.csv").read_text().splitlines()
    assert csv[0] == "family,m,n,lambda"
    pairs = sorted(tuple(map(int, line.split(",")[1:3])) for line in csv[1:])
    assert pairs == [(7, 24), (15, 20), (20, 15), (24, 7)]


def test_builtin_flutter_doubling(tmp_path):
    assert main(["run", "--builtin", "flutter-doubling",
                 "--out", str(tmp_path)]) == 0
    payload = json.loads((tmp_path / "flutter-doubling.json").read_text())
    assert payload["ratio"] == pytest.approx(2.0, rel=1e-12)


def test_unknown_builtin(tmp_path, capsys):
    assert main(["run", "--builtin", "nope", "--out", str(tmp_path)]) == 2


def test_malformed_config_no_partial_artifacts(tmp_path):
    cfg = tmp_path / "bad.json"
    cfg.write_text("{not json")
    out = tmp_path / "out"
    assert main(["run", str(cfg), "--out", str(out)]) == 2
    assert not out.exists() or not any(out.iterdir())

    cfg2 = tmp_path / "bad2.json"
    cfg2.write_text(json.dumps({"name": "x", "model": "warp",
                                "parameters": {}}))
    assert main(["run", str(cfg2), "--out", str(out)]) == 2
    assert not out.exists() or not any(out.iterdir())


def test_precondition_violation_exit_code(tmp_path):
    cfg = tmp_path / "pre.json"
    cfg.write_text(json.dumps({
        "name": "bad-nl", "model": "ode4",
        "parameters": {
            "family": {"kind": "canonical", "k_coef": 1.0,
                       "nl": {"kind": "mckenna_cubic",
                              "params": {"d_cub": -1.0}}},
            "state0": [1, 0, 0, 0], "t_end": 1.0,
        }}))
    assert main(["run", str(cfg), "--out", str(tmp_path / "o")]) == 3


def test_an_unknown_force_law_kind_is_named_before_its_parameters(tmp_path, capsys):
    cfg = tmp_path / "kind.json"
    cfg.write_text(json.dumps({
        "name": "bogus-nl", "model": "ode4",
        "parameters": {
            "family": {"kind": "canonical", "k_coef": 1.0,
                       "nl": {"kind": "bogus", "params": {"epsilon": 1}}},
            "state0": [1, 0, 0, 0], "t_end": 1.0}}))
    out = tmp_path / "o"
    assert main(["run", str(cfg), "--out", str(out)]) == 3
    err = capsys.readouterr().err
    assert "unknown nonlinearity kind 'bogus'" in err and "epsilon" not in err
    assert not out.exists() or not any(out.iterdir())


@pytest.mark.parametrize("name", ["", None, 7, ["tiny"]])
def test_a_scenario_name_that_is_not_a_non_empty_string_exits_2(
        tmp_path, capsys, name):
    # the name names the output files: "" would write .csv, .json and .svg
    cfg = tmp_path / "noname.json"
    cfg.write_text(json.dumps({**_tiny_ode4_config(), "name": name}))
    out = tmp_path / "o"
    assert main(["run", str(cfg), "--out", str(out)]) == 2
    assert "name" in capsys.readouterr().err
    assert not out.exists() or not any(out.iterdir())


def _tiny_ode4_config(name="tiny"):
    return {
        "name": name, "model": "ode4",
        "parameters": {
            "family": {"kind": "canonical", "k_coef": 3.0,
                       "nl": {"kind": "linear", "params": {}}},
            "state0": [1.0, 0.0, 0.0, 0.0],
            "t_end": 5.0, "rel_tol": 1e-8, "abs_tol": 1e-8,
        }}


def test_run_config_and_determinism(tmp_path):
    cfg = tmp_path / "tiny.json"
    cfg.write_text(json.dumps(_tiny_ode4_config()))
    out1, out2 = tmp_path / "o1", tmp_path / "o2"
    assert main(["run", str(cfg), "--out", str(out1)]) == 0
    assert main(["run", str(cfg), "--out", str(out2)]) == 0
    for fname in ("tiny.csv", "tiny.json", "tiny.svg"):
        b1 = (out1 / fname).read_bytes()
        b2 = (out2 / fname).read_bytes()
        assert b1 == b2 and len(b1) > 0


def test_bridge_out_env(tmp_path, monkeypatch):
    monkeypatch.setenv("BRIDGE_OUT", str(tmp_path / "envout"))
    monkeypatch.chdir(tmp_path)
    assert main(["run", "--builtin", "flutter-doubling"]) == 0
    assert (tmp_path / "envout" / "flutter-doubling.json").exists()


def test_sweep(tmp_path):
    cfg = tmp_path / "tiny.json"
    cfg.write_text(json.dumps(_tiny_ode4_config("sw")))
    out = tmp_path / "sweep"
    assert main(["sweep", str(cfg), "--param", "family.k_coef=2:4:1",
                 "--out", str(out)]) == 0
    for k in (2, 3, 4):
        assert (out / f"sw_family.k-coef={k}.csv").exists() or \
            (out / f"sw_family-k_coef={k}.csv").exists()


def test_outputs_override_paths(tmp_path):
    cfg_dict = _tiny_ode4_config("named")
    cfg_dict["outputs"] = [{"csv_path": "traj/custom.csv",
                            "svg_path": "plots/custom.svg"}]
    cfg = tmp_path / "named.json"
    cfg.write_text(json.dumps(cfg_dict))
    out = tmp_path / "o"
    (out / "traj").mkdir(parents=True)
    (out / "plots").mkdir()
    assert main(["run", str(cfg), "--out", str(out)]) == 0
    assert (out / "traj" / "custom.csv").exists()
    assert (out / "plots" / "custom.svg").exists()


def test_sweep_parallel_jobs(tmp_path):
    cfg = tmp_path / "tiny.json"
    cfg.write_text(json.dumps(_tiny_ode4_config("pp")))
    out = tmp_path / "par"
    assert main(["sweep", str(cfg), "--param", "family.k_coef=2:3:0.5",
                 "--jobs", "2", "--out", str(out)]) == 0
    assert len(list(out.glob("pp_*.csv"))) == 3


def test_sweep_bare_parameter_name(tmp_path):
    # bare names resolve into nested parameter objects when unique
    cfg = tmp_path / "tiny.json"
    cfg.write_text(json.dumps(_tiny_ode4_config("bn")))
    out = tmp_path / "bare"
    assert main(["sweep", str(cfg), "--param", "k_coef=2:4:1",
                 "--out", str(out)]) == 0
    assert len(list(out.glob("bn_*.csv"))) == 3


def test_sweep_bad_spec(tmp_path):
    cfg = tmp_path / "tiny.json"
    cfg.write_text(json.dumps(_tiny_ode4_config()))
    assert main(["sweep", str(cfg), "--param", "k=4:2:1",
                 "--out", str(tmp_path / "x")]) == 2
    assert main(["sweep", str(cfg), "--param", "nylon",
                 "--out", str(tmp_path / "x")]) == 2
    assert main(["sweep", str(cfg), "--param", "no_such_param=1:2:1",
                 "--out", str(tmp_path / "x")]) == 2
    # a non-finite bound or step made the grid endless
    for spec in ("k=1:inf:1", "k=1:nan:1", "k=1:2:nan"):
        assert main(["sweep", str(cfg), "--param", spec,
                     "--out", str(tmp_path / "x")]) == 2
    # a finite grid of 1e12 points was built in full before any point ran:
    # run it apart, under a timeout
    src = os.path.dirname(os.path.dirname(bridgeosc.__file__))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [src, os.environ.get("PYTHONPATH", "")]))
    proc = subprocess.run(
        [sys.executable, "-m", "bridgeosc.cli", "sweep", str(cfg),
         "--param", "k_coef=0:1e12:1", "--out", str(tmp_path / "x")],
        capture_output=True, text=True, env=env, timeout=60)
    assert proc.returncode == 2, proc.stderr
    assert "bad --param spec" in proc.stderr
    assert not (tmp_path / "x").exists()


def test_scanlan_scenario(tmp_path):
    cfg = tmp_path / "sc.json"
    cfg.write_text(json.dumps({
        "name": "sc", "model": "scanlan",
        "parameters": {"inertia_I": 1.0, "zeta": 0.05, "omega_n": 1.0,
                       "A_lift": 0.5, "B_lift": 0.0, "t_end": 30.0},
    }))
    assert main(["run", str(cfg), "--out", str(tmp_path / "o")]) == 0
    payload = json.loads((tmp_path / "o" / "sc.json").read_text())
    assert payload["growth_exponent"] > 0.0


def test_truebeam_scenario(tmp_path):
    cfg = tmp_path / "tb.json"
    cfg.write_text(json.dumps({
        "name": "tb", "model": "truebeam",
        "parameters": {
            "geom": {"length_L": math.pi, "half_width_l": math.pi / 2},
            "nl": {"kind": "linear", "params": {}},
            "threshold_Ebar": math.pi ** 2 / 4.0,
            "forcing": {"breakpoints": [[0.0, 0.0], [10.0, 1.0]],
                        "profile": "uniform"},
            "modes_M": 1, "t_end": 6.0,
            "state0": {"a": [0.5]},
        }}))
    assert main(["run", str(cfg), "--out", str(tmp_path / "o")]) == 0
    events = json.loads((tmp_path / "o" / "tb.json").read_text())
    assert len(events) == 1
    assert events[0]["t_switch"] == pytest.approx(5.0, abs=1e-6)


def test_miosyst_scenario_outputs(tmp_path):
    cfg = tmp_path / "mio.json"
    cfg.write_text(json.dumps({
        "name": "mio", "model": "miosyst",
        "parameters": {
            "beta": -1.0, "delta": 1.0,
            "nl": {"kind": "cubic", "params": {"epsilon": 0.1}},
            "state0": [1.0, 1.0, 0.0, -1.0],
            "t_end": 10.0, "rel_tol": 1e-8, "abs_tol": 1e-8,
        }}))
    assert main(["run", str(cfg), "--out", str(tmp_path / "o")]) == 0
    report = json.loads((tmp_path / "o" / "mio.json").read_text())
    assert report["blew_up"] is True
    assert abs(report["R_est"] - 4.041) < 0.05
    assert (tmp_path / "o" / "mio_reduced.csv").exists()


def test_energy_scenario(tmp_path):
    cfg = tmp_path / "en.json"
    cfg.write_text(json.dumps({
        "name": "en", "model": "energy",
        "parameters": {"total_E": 2.5, "schedule": [1.0, 2.0, 3.0]},
    }))
    assert main(["run", str(cfg), "--out", str(tmp_path / "o")]) == 0
    payload = json.loads((tmp_path / "o" / "en.json").read_text())
    assert payload == {"total_E": 2.5, "threshold_Ebar": 3.0, "switch": 1,
                       "active_modes": 3, "torsional_active": False}


def test_builtins_are_well_formed():
    for name, cfg in BUILTINS.items():
        assert cfg["name"] == name
        assert cfg["model"] in ("ode4", "miosyst", "modes", "flutter")
        assert isinstance(cfg["parameters"], dict)
    assert list_builtins() == sorted(BUILTINS)


def test_every_builtin_completes_quickly(tmp_path):
    import time
    for name in list_builtins():
        t0 = time.perf_counter()
        assert main(["run", "--builtin", name, "--out", str(tmp_path)]) == 0
        assert time.perf_counter() - t0 < 60.0


def test_builtin_figure12_byte_deterministic(tmp_path):
    out1, out2 = tmp_path / "a", tmp_path / "b"
    assert main(["run", "--builtin", "figure12", "--out", str(out1)]) == 0
    assert main(["run", "--builtin", "figure12", "--out", str(out2)]) == 0
    for fname in ("figure12.csv", "figure12.json", "figure12.svg"):
        assert (out1 / fname).read_bytes() == (out2 / fname).read_bytes()
    report = json.loads((out1 / "figure12.json").read_text())
    assert report["blew_up"] is True
    assert report["R_est"] == pytest.approx(8.164, abs=0.1)


def test_flutter_equal_frequencies_writes_standard_json(tmp_path):
    # omega_T == omega_B puts V_c at 0, so the doubling ratio has no value
    cfg = tmp_path / "flat.json"
    cfg.write_text(json.dumps({
        "name": "flutter-flat", "model": "flutter",
        "parameters": {"half_width_l": 6.0, "gyration_r": 4.0,
                       "omega_B": 1.3, "omega_T": 1.3, "alpha_mass": 0.02,
                       "doubling_check": True}}))
    assert main(["run", str(cfg), "--out", str(tmp_path)]) == 0

    def reject(name):
        raise ValueError(f"non-standard JSON constant {name}")

    payload = json.loads((tmp_path / "flutter-flat.json").read_text(),
                         parse_constant=reject)
    assert payload == {"V_c": 0.0, "V_c_doubled_width": 0.0, "ratio": None}


def test_sweep_names_stay_distinct_below_g_precision(tmp_path):
    cfg = tmp_path / "tiny.json"
    cfg.write_text(json.dumps(_tiny_ode4_config("fine")))
    out = tmp_path / "fine"
    assert main(["sweep", str(cfg), "--param", "k_coef=3:3.000005:0.000001",
                 "--out", str(out)]) == 0
    for ext in ("csv", "json", "svg"):
        assert len(list(out.glob(f"fine_*.{ext}"))) == 6
    assert (out / "fine_k_coef=3.csv").exists()
    assert (out / "fine_k_coef=3.000001.csv").exists()


@pytest.mark.parametrize("name, outputs", [
    ("../x", lambda tmp: []),
    ("ok", lambda tmp: [{"csv_path": "../x.csv"}]),
    ("ok", lambda tmp: [{"json_path": str(tmp / "abs.json")}]),
], ids=["name", "relative-path", "absolute-path"])
def test_outputs_must_stay_inside_out_dir(tmp_path, name, outputs):
    cfg_dict = _tiny_ode4_config(name)
    cfg_dict["outputs"] = outputs(tmp_path)
    cfg = tmp_path / "esc.json"
    cfg.write_text(json.dumps(cfg_dict))
    out = tmp_path / "o"
    before = sorted(p.name for p in tmp_path.iterdir())
    assert main(["run", str(cfg), "--out", str(out)]) == 2
    assert sorted(p.name for p in tmp_path.iterdir()) == before
    assert not (tmp_path / "x.csv").exists()


@pytest.mark.parametrize("key, value", [
    ("t_end", math.nan), ("t_end", math.inf), ("rel_tol", math.nan),
    ("max_step", math.nan), ("blowup_threshold", math.nan)])
def test_non_finite_integrator_inputs_exit_3(tmp_path, key, value):
    cfg_dict = _tiny_ode4_config("nf")
    cfg_dict["parameters"][key] = value
    cfg = tmp_path / "nf.json"
    cfg.write_text(json.dumps(cfg_dict))  # NaN / Infinity literals
    assert main(["run", str(cfg), "--out", str(tmp_path / "o")]) == 3


@pytest.mark.parametrize("run", ["ode4", "miosyst", "truebeam"])
@pytest.mark.parametrize("key", ["rel_tol", "abs_tol"])
def test_infinite_tolerance_exits_3_and_names_it(tmp_path, capsys, run, key):
    # 1e999 parses as inf; it was exit 3 with "step size underflow before
    # any progress", which points away from the setting
    text = json.dumps({"name": "tol", "model": run,
                       "parameters": {**MODEL_RUNS[run][0], key: 1.5e-7}})
    cfg = tmp_path / "tol.json"
    cfg.write_text(text.replace("1.5e-07", "1e999"))
    out = tmp_path / "o"
    assert main(["run", str(cfg), "--out", str(out)]) == 3
    assert "tolerances must be finite and positive" in capsys.readouterr().err
    assert not out.exists() or not any(out.iterdir())



@pytest.mark.parametrize("run", ["ode4", "miosyst", "truebeam"])
@pytest.mark.parametrize("rel_tol", [2.0 ** 70, 10.0, 1.0], ids=["2^70", "10", "1"])
def test_a_relative_tolerance_of_1_or_more_exits_3(tmp_path, capsys, run, rel_tol):
    # 2^70 ran and then failed writing its JSON (exit 1); 10 ran to exit 0,
    # with figure12's R_est at 9.38 for 8.164
    cfg = tmp_path / "tol.json"
    cfg.write_text(json.dumps({"name": "tol", "model": run, "parameters": {
        **MODEL_RUNS[run][0], "rel_tol": rel_tol}}))
    out = tmp_path / "o"
    assert main(["run", str(cfg), "--out", str(out)]) == 3
    assert ("tolerances must be finite and positive, rel_tol below 1"
            in capsys.readouterr().err)
    assert not out.exists() or not any(out.iterdir())

@pytest.mark.parametrize("freeze", [0, 2, 1.0, -1.0])
def test_truebeam_freeze_switch_outside_plus_minus_one_exits_3(tmp_path, freeze):
    cfg = tmp_path / "fz.json"
    cfg.write_text(json.dumps({
        "name": "fz", "model": "truebeam",
        "parameters": {
            "geom": {"length_L": math.pi, "half_width_l": math.pi / 2},
            "nl": {"kind": "linear", "params": {}},
            "threshold_Ebar": 1.0, "t_end": 1.0, "state0": {"b": [1.0]},
            "freeze_switch": freeze}}))
    out = tmp_path / "o"
    assert main(["run", str(cfg), "--out", str(out)]) == 3
    assert not any(out.iterdir())


@pytest.mark.parametrize("t_end", [math.nan, math.inf])
def test_scanlan_non_finite_t_end_exits_3(tmp_path, t_end):
    cfg = tmp_path / "sc.json"
    cfg.write_text(json.dumps({
        "name": "sc", "model": "scanlan",
        "parameters": {"inertia_I": 1.0, "zeta": 0.05, "omega_n": 1.0,
                       "A_lift": 0.5, "B_lift": 0.0, "t_end": t_end},
    }))  # NaN / Infinity literals
    out = tmp_path / "o"
    assert main(["run", str(cfg), "--out", str(out)]) == 3
    assert not (out / "sc.csv").exists()


def test_non_finite_initial_slope_exits_3(tmp_path):
    # inf - inf in the hanger forces makes the first slope NaN, on which the
    # run used to hang: run it apart, under a timeout
    cfg = tmp_path / "hang.json"
    cfg.write_text(json.dumps({
        "name": "hang", "model": "coupled",
        "parameters": {"nl": {"kind": "exponential",
                              "params": {"a_coef": 1.0, "b_coef": 1000.0}},
                       "state0": [0.1, 0.0, 1.0, 0.0], "t_end": 1.0}}))
    src = os.path.dirname(os.path.dirname(bridgeosc.__file__))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [src, os.environ.get("PYTHONPATH", "")]))
    proc = subprocess.run(
        [sys.executable, "-m", "bridgeosc.cli", "run", str(cfg),
         "--out", str(tmp_path / "o")],
        capture_output=True, text=True, env=env, timeout=60)
    assert proc.returncode == 3, proc.stderr


def test_parallel_sweep_prints_one_line_per_point_in_order(tmp_path):
    # worker processes must not write to the shared stdout themselves
    cfg = tmp_path / "pl.json"
    cfg.write_text(json.dumps(_tiny_ode4_config("pl")))
    src = os.path.dirname(os.path.dirname(bridgeosc.__file__))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [src, os.environ.get("PYTHONPATH", "")]))
    proc = subprocess.run(
        [sys.executable, "-m", "bridgeosc.cli", "sweep", str(cfg),
         "--param", "family.k_coef=2:3:0.25", "--jobs", "2",
         "--out", str(tmp_path / "o")],
        capture_output=True, text=True, env=env, timeout=120)
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.splitlines()
    parsed = [re.fullmatch(r"(\S+): termination=(\w+) .*", ln) for ln in lines]
    assert all(parsed), lines
    assert [m.group(1) for m in parsed] == [
        f"pl_family-k_coef={k}" for k in ("2", "2.25", "2.5", "2.75", "3")]
    assert {m.group(2) for m in parsed} == {"reached_t_end"}


def test_import_leaves_scipy_out():
    # scipy is a test-only oracle; the package and its CLI must not load it
    src = os.path.dirname(os.path.dirname(bridgeosc.__file__))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [src, os.environ.get("PYTHONPATH", "")]))
    proc = subprocess.run(
        [sys.executable, "-c", "import sys, bridgeosc, bridgeosc.cli; "
         "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))"],
        capture_output=True, text=True, env=env, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "[]"


def test_ode_run_leaves_numpy_polynomial_out(tmp_path):
    # the energy-rate ratios use literal Gauss nodes, so a blow-up run does not
    # pay for loading numpy.polynomial (about 1 MB of resident memory)
    src = os.path.dirname(os.path.dirname(bridgeosc.__file__))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [src, os.environ.get("PYTHONPATH", "")]))
    proc = subprocess.run(
        [sys.executable, "-c", "import sys; from bridgeosc.cli import main; "
         f"code = main(['run', '--builtin', 'figure13', '--out', {str(tmp_path)!r}]); "
         "print(code, 'numpy.polynomial' in sys.modules)"],
        capture_output=True, text=True, env=env, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.splitlines()[-1] == "0 False", proc.stdout


_LINEAR = {"kind": "linear", "params": {}}
_CUBIC = {"kind": "cubic", "params": {"epsilon": 0.1}}
_SQUARE_GEOM = {"length_L": math.pi, "half_width_l": math.pi / 2}

# one small config per model, and the artifacts that the README lists for it
MODEL_RUNS = {
    "ode4": (_tiny_ode4_config("m")["parameters"], (".csv", ".json", ".svg")),
    "coupled": ({"nl": _CUBIC, "state0": [0.1, 0.0, 0.5, 0.0], "t_end": 2.0},
                (".csv", ".svg")),
    "truesystem": ({"nl": _CUBIC, "state0": [0.1, 0.0, 0.5, 0.0],
                    "t_end": 2.0}, (".csv", ".svg")),
    "miosyst": ({"beta": -1.0, "delta": 1.0, "nl": _CUBIC,
                 "state0": [1.0, 1.0, 0.0, -1.0], "t_end": 10.0,
                 "rel_tol": 1e-8, "abs_tol": 1e-8},
                (".csv", "_reduced.csv", ".json", ".svg")),
    "scanlan": ({"inertia_I": 1.0, "zeta": 0.05, "omega_n": 1.0,
                 "A_lift": 0.5, "B_lift": 0.0, "t_end": 10.0},
                (".csv", ".json", ".svg")),
    "truebeam": ({"geom": _SQUARE_GEOM, "nl": _LINEAR,
                  "threshold_Ebar": math.pi ** 2 / 4.0, "modes_M": 1,
                  "forcing": {"breakpoints": [[0.0, 0.0], [2.0, 1.0],
                                              [4.0, 0.0]]},
                  "t_end": 5.0, "state0": {"a": [0.5]}},
                 (".csv", ".json", ".svg")),
    "modes": ({"navier_S": 25}, (".csv",)),
    "modes-geom": ({"geom": _SQUARE_GEOM, "m_max": 2}, (".csv",)),
    "flutter": ({"half_width_l": 6.0, "gyration_r": 4.0, "omega_B": 1.0,
                 "omega_T": 1.6, "alpha_mass": 0.02, "doubling_check": True},
                (".json",)),
    "energy": ({"total_E": 2.5, "schedule": [1.0, 2.0]}, (".json",)),
}


def test_model_runs_cover_every_model():
    from bridgeosc.scenarios import MODELS
    assert {run.split("-")[0] for run in MODEL_RUNS} == set(MODELS)


def _reject_constant(name):
    raise ValueError(f"non-standard JSON constant {name}")


@pytest.mark.parametrize("run", sorted(MODEL_RUNS))
def test_every_model_writes_its_artifacts_as_standard_json(tmp_path, run):
    parameters, suffixes = MODEL_RUNS[run]
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"name": "m", "model": run.split("-")[0],
                               "parameters": parameters}))
    out = tmp_path / "o"
    assert main(["run", str(cfg), "--out", str(out)]) == 0
    assert {p.name for p in out.iterdir()} == {"m" + s for s in suffixes}
    for path in out.glob("*.json"):
        json.loads(path.read_text(), parse_constant=_reject_constant)


def _with(run, **changes):
    """(run, a copy of its MODEL_RUNS parameters with changes); a dict value
    updates the nested object of that name."""
    p = json.loads(json.dumps(MODEL_RUNS[run][0]))
    for key, value in changes.items():
        if isinstance(value, dict):
            p[key] = {**p[key], **value}
        else:
            p[key] = value
    return run, p


@pytest.mark.parametrize("run, parameters", [
    _with("energy", total_E=math.nan),
    _with("energy", total_E=math.inf),
    _with("scanlan", zeta=math.nan),
    _with("scanlan", A_lift=math.inf),
    _with("scanlan", theta0=math.nan),
    _with("modes-geom", geom={"length_L": math.nan}),
    _with("flutter", half_width_l=math.nan),
    _with("flutter", omega_T=1e200),  # finite, but its square overflows
    # finite squares, but V_c itself overflows
    _with("flutter", half_width_l=1e150, gyration_r=1e150, alpha_mass=1e-10),
    _with("coupled", mass_m=math.nan),
    _with("truebeam", damping_delta=math.nan),
    _with("truebeam", geom={"half_width_l": math.inf}),
    _with("truebeam", forcing={"breakpoints": [[0.0, 0.0], [1.0, math.nan]]}),
    # settings that the model never reads
    _with("ode4", family={"nl": {"kind": "cubic",
                                       "params": {"d_cub": 1.0}}}),
    _with("ode4", family={"k2": 3.0}),
    _with("ode4", rel_tl=1e-12),
    _with("coupled", omega2=2.0),  # a key that truesystem reads
    _with("truebeam", forcing={"profil": "vertical"}),
    _with("truebeam", state0={"add": [0.1]}),
    # finite settings whose closed form does not fit in a float
    _with("scanlan", A_lift=0.0, omega_n=1e200),
    _with("scanlan", A_lift=0.0, zeta=1e300, omega_n=1e10),
    _with("scanlan", A_lift=0.0, zeta=0.0, B_lift=10.0, t_end=400.0),
], ids=["energy-nan", "energy-inf", "scanlan-nan", "scanlan-inf",
        "scanlan-theta0-nan", "modes-nan", "flutter-nan", "flutter-overflow",
        "flutter-speed-overflow", "coupled-nan",
        "truebeam-nan", "truebeam-inf", "truebeam-forcing-nan", "cubic-d_cub",
        "canonical-k2", "ode4-rel_tl", "coupled-omega2", "truebeam-forcing-profil",
        "truebeam-state0-add", "scanlan-omega_n-overflow", "scanlan-roots-overflow",
        "scanlan-theta-overflow"])
def test_rejected_settings_exit_3_and_write_nothing(tmp_path, run, parameters):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"name": "bad", "model": run.split("-")[0],
                               "parameters": parameters}))  # NaN literals
    out = tmp_path / "o"
    assert main(["run", str(cfg), "--out", str(out)]) == 3
    assert not out.exists() or not any(out.iterdir())


@pytest.mark.parametrize("run, parameters, key", [
    (*_with("ode4", family={"k_coef": True}), "k_coef"),
    (*_with("ode4", family={"k_coef": "3"}), "k_coef"),
    (*_with("ode4", family={"nl": {"kind": "cubic", "params": {"epsilon": True}}}),
     "epsilon"),
    (*_with("ode4", family={"nl": {"kind": "cubic", "params": {"epsilon": "1"}}}),
     "epsilon"),
    (*_with("ode4", state0=[True, 0, 0, 0]), "state0"),
    (*_with("ode4", t_end=True), "t_end"),
    (*_with("ode4", t_end="20"), "t_end"),
    (*_with("coupled", mass_m=True), "mass_m"),
    (*_with("truesystem", omega2="3"), "omega2"),
    (*_with("scanlan", theta0=True), "theta0"),
    (*_with("scanlan", t_end="10"), "t_end"),
    (*_with("modes-geom", geom={"length_L": True}), "length_L"),
    (*_with("flutter", omega_B="1"), "omega_B"),
    (*_with("energy", total_E=True), "total_E"),
    (*_with("energy", schedule=[1.0, "2"]), "schedule"),
    (*_with("truebeam", modes_M=True), "modes_M"),
    (*_with("truebeam", freeze_switch=True), "freeze_switch"),
    (*_with("truebeam", forcing={"breakpoints": [[0.0, 0.0], [2.0, True]]}),
     "breakpoints"),
    (*_with("truebeam", state0={"a": ["0.5"]}), "state0.a"),
    (*_with("truebeam", rel_tol=True), "rel_tol"),
    (*_with("truebeam", t_end="5"), "t_end"),
])
def test_a_bool_or_a_string_for_a_number_exits_3_naming_its_key(
        tmp_path, capsys, run, parameters, key):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"name": "bad", "model": run.split("-")[0],
                               "parameters": parameters}))
    out = tmp_path / "o"
    assert main(["run", str(cfg), "--out", str(out)]) == 3
    assert key in capsys.readouterr().err
    assert not out.exists() or not any(out.iterdir())


@pytest.mark.parametrize("run, parameters, key", [
    (*_with("ode4", t_end=10 ** 400), "t_end"),
    (*_with("ode4", family={"k_coef": -10 ** 400}), "k_coef"),
    (*_with("ode4", family={"nl": {"kind": "cubic", "params": {"epsilon": 10 ** 400}}}),
     "epsilon"),
    (*_with("truebeam", forcing={"breakpoints": [[0.0, 0.0], [2.0, 10 ** 400]]}),
     "breakpoints"),
    (*_with("energy", total_E=10 ** 400), "total_E"),
])
def test_an_integer_beyond_float_range_exits_3_naming_its_key(
        tmp_path, capsys, run, parameters, key):
    # JSON integers have no range: a 401-digit one reaches float() intact
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"name": "big", "model": run,
                               "parameters": parameters}))
    out = tmp_path / "o"
    assert main(["run", str(cfg), "--out", str(out)]) == 3
    assert key in capsys.readouterr().err
    assert not out.exists() or not any(out.iterdir())


@pytest.mark.parametrize("run, value", [
    ("ode4", math.nan), ("coupled", math.inf), ("truebeam", -math.inf)])
def test_a_non_finite_force_law_parameter_exits_3(tmp_path, capsys, run, value):
    # mckenna_cubic's checks read d_cub alone: a NaN sigma_f made f NaN
    law = {"kind": "mckenna_cubic", "params": {"sigma_f": value}}
    _, params = _with(run, **({"family": {"nl": law}} if run == "ode4"
                              else {"nl": law}))
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"name": "nan", "model": run,
                               "parameters": params}))  # NaN/Infinity literals
    out = tmp_path / "o"
    assert main(["run", str(cfg), "--out", str(out)]) == 3
    # refused as a parameter, not by the solver's check of its first rhs
    assert "mckenna_cubic parameters must be finite" in capsys.readouterr().err
    assert not out.exists() or not any(out.iterdir())


def test_modes_with_navier_s_reads_no_other_key(tmp_path, capsys):
    # the Navier search would run and drop geom (its negative length too)
    # and m_max unread
    params = {"navier_S": 25, "m_max": 3,
              "geom": {"length_L": -1.0, "half_width_l": 0.5}}
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"name": "m", "model": "modes",
                               "parameters": params}))
    out = tmp_path / "o"
    assert main(["run", str(cfg), "--out", str(out)]) == 3
    assert ("modes with navier_S does not read ['geom', 'm_max']"
            in capsys.readouterr().err)
    assert not out.exists() or not any(out.iterdir())


@pytest.mark.parametrize("run, key, fraction", [
    ("truebeam", "modes_M", 1.7), ("scanlan", "n_samples", 10.9),
    ("modes-geom", "m_max", 2.5), ("modes", "navier_S", 25.5)])
def test_int_settings_are_checked_not_truncated(tmp_path, run, key, fraction):
    # a fraction or 1e400 (inf) is exit 3 with nothing written; an integral
    # float writes what the int writes
    params, cfg = MODEL_RUNS[run][0], tmp_path / "cfg.json"
    for text, code in ((repr(fraction), 3), ("1e400", 3),
                       (str(int(fraction)), 0), (f"{int(fraction)}.0", 0)):
        cfg.write_text(json.dumps({"name": "m", "model": run.split("-")[0],
                                   "parameters": {**params, key: "V"}})
                       .replace('"V"', text))
        out = tmp_path / text
        assert main(["run", str(cfg), "--out", str(out)]) == code, text
        assert code == 0 or not out.exists() or not any(out.iterdir())
    assert _files(tmp_path / str(int(fraction))) == _files(
        tmp_path / f"{int(fraction)}.0")


@pytest.mark.parametrize("run, key", [
    ("truebeam", "modes_M"), ("truebeam", "profile_m"), ("scanlan", "n_samples"),
    ("modes-geom", "m_max"), ("modes", "navier_S")])
def test_int_settings_out_of_their_range_exit_3_before_the_run(
        tmp_path, monkeypatch, run, key):
    # navier_S = 10^30 would search ~10^15 values of m, and a 401-digit
    # modes_M would fail in numpy: each is refused before any solver runs
    from bridgeosc import plate, systems, truebeam
    from bridgeosc.scenarios import _INT_RANGES

    def refuse(*args, **kwargs):
        raise RuntimeError("the solver ran")

    for module, name in ((plate, "navier_square_search"), (plate, "analytic_modes"),
                         (systems, "solve_scanlan"), (truebeam, "integrate_truebeam")):
        monkeypatch.setattr(module, name, refuse)
    lo, hi = _INT_RANGES[key]
    for value in (lo - 1, hi + 1, 10 ** 30, 10 ** 400):
        _, params = _with(run, **({"forcing": {key: value}} if key == "profile_m"
                                  else {key: value}))
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"name": "m", "model": run.split("-")[0],
                                   "parameters": params}))
        out = tmp_path / "o"
        assert main(["run", str(cfg), "--out", str(out)]) == 3, value
        assert not out.exists() or not any(out.iterdir())


def test_a_truebeam_sample_grid_above_its_bound_exits_3_before_the_run(
        tmp_path, monkeypatch, capsys):
    # the benchmark's plate at modes_M = 64 and t_end = 3: at least 1.24
    # million sample rows of 256 values
    from bridgeosc import truebeam

    def refuse(*args, **kwargs):
        raise RuntimeError("the solver ran")

    monkeypatch.setattr(truebeam, "integrate_adaptive", refuse)
    _, params = _with("truebeam", geom={"length_L": 0.5, "half_width_l": 0.05},
                      modes_M=64, t_end=3.0)
    assert _run_config(tmp_path, {"name": "big", "model": "truebeam",
                                  "parameters": params}) == 3
    err = capsys.readouterr().err
    assert "modes_M = 64" in err and "t_end = 3" in err
    out = tmp_path / "o"
    assert not out.exists() or not any(out.iterdir())


_TORSIONAL_GUST = {"breakpoints": [[0.0, 0.0], [2.0, 1.0], [4.0, 0.0]],
                   "profile": "torsional"}


@pytest.mark.parametrize("run, geom, forcing, quantity", [
    ("modes-geom", {"length_L": 1e-80}, None, "(m pi / L)^4 at m = 1"),
    ("truebeam", {"length_L": 1e300, "half_width_l": 1e300}, None, "(M pi / L)^4"),
    ("truebeam", {"length_L": 1.0, "half_width_l": 1e150}, None, "L l^3 / 3"),
    ("truebeam", {"half_width_l": 1e-120}, _TORSIONAL_GUST, "L l^3 / 3"),
    ("truebeam", {"length_L": 1e-80}, None, "(M pi / L)^4"),
    ("truebeam", {"half_width_l": 1e-120}, "absent", "L l^3 / 3"),
], ids=["modes-L-tiny", "truebeam-L-l-huge", "truebeam-l-cubed-huge",
        "truebeam-l-tiny-torsional", "truebeam-L-tiny", "truebeam-l-tiny-unforced"])
def test_a_plate_quantity_beyond_float_range_exits_3_before_the_run(
        tmp_path, monkeypatch, capsys, run, geom, forcing, quantity):
    # an eigenvalue or family norm that overflows or underflows a float was
    # exit 1 (OverflowError, division by zero) or a numpy warning and a
    # misleading stepper error: each is refused, naming it, before any solver
    from bridgeosc import plate, truebeam

    def refuse(*args, **kwargs):
        raise RuntimeError("the solver ran")

    monkeypatch.setattr(plate, "verify_mode", refuse)
    monkeypatch.setattr(truebeam, "integrate_truebeam", refuse)
    _, params = _with(run, geom=geom, **({"forcing": forcing} if forcing else {}))
    if forcing == "absent":
        del params["forcing"]
    assert _run_config(tmp_path, {"name": "big", "model": run.split("-")[0],
                                  "parameters": params}) == 3
    err = capsys.readouterr().err
    assert f"{quantity} is " in err and "overflows or underflows a float" in err
    out = tmp_path / "o"
    assert not out.exists() or not any(out.iterdir())


@pytest.mark.parametrize("run, changes, message", [
    ("ode4", {"state0": [1.0, 0.0, 1e308, 0.0]}, "rhs at the initial state must be finite"),
    ("truebeam", {"forcing": {"breakpoints": [[0.0, 0.0], [2.0, 1e308]]}},
     "the gust's peak energy overflows a float"),
    ("modes-geom", {"geom": {"half_width_l": 1e308}},
     "plate dimensions must be finite and positive"),
    ("truebeam", {"t_end": 1e308}, "t_end = 1e+308 take at least inf sample rows"),
], ids=["ode4-rhs-overflow", "truebeam-gust-energy", "modes-width", "truebeam-horizon"])
def test_a_value_near_float_max_exits_3_without_a_warning(tmp_path, capsys, run,
                                                          changes, message):
    # each was a numpy overflow warning (exit 1 where warnings are errors): at
    # the first rhs, in the gust energy and in the plate's x2 grid; a horizon
    # whose sample count overflows to inf ran a million exponential steps
    _, params = _with(run, **changes)
    assert _run_config(tmp_path, {"name": "big", "model": run.split("-")[0],
                                  "parameters": params}) == 3
    assert message in capsys.readouterr().err
    out = tmp_path / "o"
    assert not out.exists() or not any(out.iterdir())


def test_a_sweep_whose_parameters_are_not_an_object_exits_2(tmp_path, capsys):
    # it was an AttributeError traceback from the bare-name lookup
    config = {**_tiny_ode4_config("s"), "parameters": ""}
    cfg = tmp_path / "c.json"
    cfg.write_text(json.dumps(config))
    out = tmp_path / "o"
    assert main(["sweep", str(cfg), "--param", "k_coef=2:3:1", "--out", str(out)]) == 2
    assert "parameter path 'k_coef' not found" in capsys.readouterr().err
    assert not out.exists()


def test_run_without_config_or_builtin_exits_2(tmp_path, capsys):
    assert main(["run", "--out", str(tmp_path / "o")]) == 2
    assert "config path or --builtin" in capsys.readouterr().err
    assert not (tmp_path / "o").exists()


def test_sweep_over_a_single_value(tmp_path, capsys):
    cfg = tmp_path / "tiny.json"
    cfg.write_text(json.dumps(_tiny_ode4_config("one")))
    out = tmp_path / "o"
    assert main(["sweep", str(cfg), "--param", "k_coef=3", "--out", str(out)]) == 0
    assert capsys.readouterr().out.startswith("one_k_coef=3: ")
    assert sorted(p.name for p in out.iterdir()) == [
        "one_k_coef=3.csv", "one_k_coef=3.json", "one_k_coef=3.svg"]


def _blowup_sweep_config(name):
    """A canonical cubic config whose k grid mixes blow-up and not."""
    return {"name": name, "model": "ode4", "parameters": {
        "family": {"kind": "canonical", "k_coef": 2.5,
                   "nl": {"kind": "cubic", "params": {"epsilon": 1.0}}},
        "state0": [1.0, 0.0, 0.0, 0.0], "t_end": 20.0,
        "rel_tol": 1e-9, "abs_tol": 1e-9}}


def _files(root):
    return {p.name: p.read_bytes() for p in sorted(root.iterdir())}


def test_sweep_artifacts_equal_across_jobs_and_single_runs(tmp_path, capsys):
    # the ode4 points step as lanes of one state (--jobs 1) or of one state
    # per worker (--jobs 2); each point's files are those of its own run
    cfg = tmp_path / "ln.json"
    cfg.write_text(json.dumps(_blowup_sweep_config("ln")))
    spec = "family.k_coef=2.5:3.7:0.3"
    outs = {}
    for jobs in ("1", "2"):
        assert main(["sweep", str(cfg), "--param", spec, "--jobs", jobs,
                     "--out", str(tmp_path / jobs)]) == 0
        outs[jobs] = capsys.readouterr().out
    one = tmp_path / "one"
    lines = []
    for k in ("2.5", "2.8", "3.1", "3.4", "3.7"):
        point = _blowup_sweep_config(f"ln_family-k_coef={k}")
        point["parameters"]["family"]["k_coef"] = float(k)
        (tmp_path / "pt.json").write_text(json.dumps(point))
        assert main(["run", str(tmp_path / "pt.json"), "--out", str(one)]) == 0
        lines.append(capsys.readouterr().out)
    assert outs["1"] == outs["2"] == "".join(lines)
    assert {"blowup_detected", "reached_t_end"} <= set(
        re.findall(r"termination=(\w+)", outs["1"]))
    assert len(_files(one)) == 15
    assert _files(tmp_path / "1") == _files(tmp_path / "2") == _files(one)


def test_sweep_over_a_list_entry_equals_single_runs(tmp_path, capsys):
    # state0.0 is w(0); each point's files are those of its own run, and a
    # negative or out-of-range index is no path
    cfg = tmp_path / "w0.json"
    cfg.write_text(json.dumps(_blowup_sweep_config("w0")))
    outs = {}
    for jobs in ("1", "2"):
        assert main(["sweep", str(cfg), "--param", "state0.0=0.9:1:0.1",
                     "--jobs", jobs, "--out", str(tmp_path / jobs)]) == 0
        outs[jobs] = capsys.readouterr().out
    one, lines = tmp_path / "one", []
    for w0 in ("0.9", "1"):
        point = _blowup_sweep_config(f"w0_state0-0={w0}")
        point["parameters"]["state0"][0] = float(w0)
        (tmp_path / "pt.json").write_text(json.dumps(point))
        assert main(["run", str(tmp_path / "pt.json"), "--out", str(one)]) == 0
        lines.append(capsys.readouterr().out)
    assert outs["1"] == outs["2"] == "".join(lines)
    assert len(_files(one)) == 6
    assert _files(tmp_path / "1") == _files(tmp_path / "2") == _files(one)
    for name in ("state0.-1", "state0.4", "state0.0.0", "family.kind.0"):
        assert main(["sweep", str(cfg), "--param", f"{name}=1",
                     "--out", str(tmp_path / "x")]) == 2
        assert f"parameter path {name!r} not found" in capsys.readouterr().err
    assert not (tmp_path / "x").exists()


def test_sweep_longer_than_a_batch(tmp_path, capsys, monkeypatch):
    # 20 points: batches of BATCH_POINTS and the rest (--jobs 1), or one per
    # worker (--jobs 3); each point's files are those of a batch of one
    cfg = tmp_path / "many.json"
    cfg.write_text(json.dumps(_tiny_ode4_config("many")))
    spec = "k_coef=2:3.9:0.1"
    outs = {}
    for jobs in ("3", "1"):
        assert main(["sweep", str(cfg), "--param", spec, "--jobs", jobs,
                     "--out", str(tmp_path / jobs)]) == 0
        outs[jobs] = capsys.readouterr().out
    sizes = []  # in-process batches only: a worker cannot unpickle the spy
    real_batch = cli._run_batch
    monkeypatch.setattr(cli, "_run_batch", lambda configs, out_dir: (
        sizes.append(len(configs)) or real_batch(configs, out_dir)))
    full = cli.BATCH_POINTS
    for batch in (full, 1):
        monkeypatch.setattr(cli, "BATCH_POINTS", batch)
        assert main(["sweep", str(cfg), "--param", spec, "--out",
                     str(tmp_path / f"b{batch}")]) == 0
        assert capsys.readouterr().out == outs["3"] == outs["1"]
    assert sizes == [full, 20 - full] + [1] * 20
    assert len(outs["1"].splitlines()) == 20 and len(_files(tmp_path / "1")) == 60
    assert _files(tmp_path / "1") == _files(tmp_path / "3") == _files(
        tmp_path / f"b{full}") == _files(tmp_path / "b1")


def test_sweep_point_with_inconsistent_tolerances_fails_alone(tmp_path, capsys):
    # k = 1e280 cannot be stepped at tolerance 1e-13: that point is exit 3,
    # the lane beside it runs to the end and writes its files
    cfg_dict = _tiny_ode4_config("tol")
    cfg_dict["parameters"].update(state0=[1.0, 0.0, 1.0, 0.0], t_end=1.0,
                                  rel_tol=1e-13, abs_tol=1e-13)
    cfg = tmp_path / "tol.json"
    cfg.write_text(json.dumps(cfg_dict))
    out = tmp_path / "o"
    assert main(["sweep", str(cfg), "--param", "k_coef=3:1e280:1e280",
                 "--out", str(out)]) == 3
    captured = capsys.readouterr()
    assert captured.out.startswith("tol_k_coef=3: termination=reached_t_end")
    assert captured.err.strip() == (
        "precondition violation: step size underflow before any progress; "
        "tolerances are inconsistent with the problem scale")
    assert sorted(p.name for p in out.iterdir()) == [
        "tol_k_coef=3.csv", "tol_k_coef=3.json", "tol_k_coef=3.svg"]


@pytest.mark.parametrize("outputs, code", [
    ([{"cvs_path": "typo.csv"}], 3),
    ([{"csv_path": "a.csv"}, {"csv_path": "b.csv"}], 2),
    ({"csv_path": "a.csv"}, 2),
    ([{"csv_path": "p.csv", "svg_path": "nodir/p.svg"}], 2),
], ids=["unknown-key", "second-entry", "not-a-list", "missing-directory"])
def test_outputs_entries_are_checked_before_anything_is_written(
        tmp_path, outputs, code):
    cfg_dict = _tiny_ode4_config("part")
    cfg_dict["outputs"] = outputs
    cfg = tmp_path / "part.json"
    cfg.write_text(json.dumps(cfg_dict))
    out = tmp_path / "o"
    assert main(["run", str(cfg), "--out", str(out)]) == code
    assert not out.exists() or not any(out.iterdir())


def test_sweep_points_writing_one_path_are_refused(tmp_path, capsys):
    cfg_dict = _tiny_ode4_config("same")
    cfg_dict["outputs"] = [{"csv_path": "same.csv"}]
    cfg = tmp_path / "same.json"
    cfg.write_text(json.dumps(cfg_dict))
    out = tmp_path / "o"
    for jobs in ("1", "2"):
        assert main(["sweep", str(cfg), "--param", "k_coef=2:3:1",
                     "--jobs", jobs, "--out", str(out)]) == 2
        assert "same_k_coef=2 and same_k_coef=3 both write" in \
            capsys.readouterr().err
        assert not out.exists()


@pytest.mark.parametrize("model", ["ode4", "coupled", "truesystem"])
def test_step_budget_ends_an_endless_scenario(tmp_path, capsys, monkeypatch, model):
    monkeypatch.setattr(_rk, "MAX_STEPS", 120)
    cfg = tmp_path / "budget.json"
    cfg.write_text(json.dumps({"name": "budget", "model": model, "parameters": dict(
        MODEL_RUNS[model][0], t_end=1e300)}))
    out = tmp_path / "o"
    assert main(["run", str(cfg), "--out", str(out)]) == 0
    assert capsys.readouterr().out.startswith("budget: termination=step_budget")
    assert len((out / "budget.csv").read_text().splitlines()) <= 1 + 121


def test_step_budget_is_not_a_scenario_key(tmp_path):
    cfg_dict = _tiny_ode4_config("budget")
    cfg_dict["parameters"]["max_steps"] = 100
    cfg = tmp_path / "budget.json"
    cfg.write_text(json.dumps(cfg_dict))
    assert main(["run", str(cfg), "--out", str(tmp_path / "o")]) == 3


@pytest.mark.parametrize("svg_path, fail_svg", [("d", False), (None, True)],
                         ids=["rename-onto-a-directory", "failed-write"])
def test_a_failed_write_leaves_no_artifact(tmp_path, capsys, monkeypatch,
                                           svg_path, fail_svg):
    # the .svg is written last: its target is an existing directory, or its
    # writer fails; the .csv and .json written before it do not stay, and
    # neither do the temporary files
    cfg_dict = _tiny_ode4_config("part")
    if svg_path:
        cfg_dict["outputs"] = [{"svg_path": svg_path}]
    if fail_svg:
        def full(path, *args, **kwargs):
            raise OSError("No space left on device")
        monkeypatch.setattr("bridgeosc.scenarios.svg_line_plot", full)
    cfg = tmp_path / "part.json"
    cfg.write_text(json.dumps(cfg_dict))
    out = tmp_path / "o"
    (out / "d").mkdir(parents=True)
    assert main(["run", str(cfg), "--out", str(out)]) == 1
    assert "runtime failure" in capsys.readouterr().err
    assert [p.name for p in out.iterdir()] == ["d"]
    assert not any((out / "d").iterdir())


def test_sweep_jobs_are_at_least_one_and_at_most_the_usable_cpus(
        tmp_path, capsys, monkeypatch):
    cfg = tmp_path / "tiny.json"
    cfg.write_text(json.dumps(_tiny_ode4_config("jobs")))
    sweep = ["sweep", str(cfg), "--param", "k_coef=2:2.7:0.1", "--out"]
    for jobs in ("0", "-3"):
        assert main(sweep + [str(tmp_path / jobs), "--jobs", jobs]) == 2
        assert "--jobs must be >= 1" in capsys.readouterr().err
        assert not (tmp_path / jobs).exists()
    workers = []

    class Pool:  # records max_workers and maps in this process: no worker starts
        def __init__(self, max_workers):
            workers.append(max_workers)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def map(self, fn, *iterables):
            return map(fn, *iterables)

    monkeypatch.setattr("concurrent.futures.ProcessPoolExecutor", Pool)
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1, 2},
                        raising=False)
    for jobs in ("5000", "2"):  # 8 points on 3 usable CPUs
        assert main(sweep + [str(tmp_path / jobs), "--jobs", jobs]) == 0
        assert len(capsys.readouterr().out.splitlines()) == 8
    monkeypatch.delattr(os, "sched_getaffinity")  # then os.cpu_count() bounds
    monkeypatch.setattr(os, "cpu_count", lambda: 5)
    assert main(sweep + [str(tmp_path / "cpu_count"), "--jobs", "5000"]) == 0
    assert workers == [3, 2, 5]
    assert _files(tmp_path / "5000") == _files(tmp_path / "2") == _files(
        tmp_path / "cpu_count")


def _run_config(tmp_path, config, out="o"):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps(config))
    return main(["run", str(cfg), "--out", str(tmp_path / out)])


@pytest.mark.parametrize("forcing", [{}, [], {"profile": "vertical"}],
                         ids=["empty-object", "empty-list", "no-breakpoints"])
def test_a_truebeam_forcing_without_breakpoints_exits_2(tmp_path, capsys, forcing):
    # only an absent or null forcing is the zero gust
    _, params = _with("truebeam", forcing=None)
    params["forcing"] = forcing
    assert _run_config(tmp_path, {"name": "f", "model": "truebeam",
                                  "parameters": params}) == 2
    assert "config error" in capsys.readouterr().err
    out = tmp_path / "o"
    assert not out.exists() or not any(out.iterdir())


def _law_cases(run):
    """Bad shapes of a force law, at its place in run's parameters."""
    nl = "family.nl" if run == "ode4" else "nl"
    place = ((lambda v: {"family": {"nl": v}}) if run == "ode4"
             else (lambda v: {"nl": v}))
    bad_params = {"kind": "cubic", "params": "ab"}
    return [(*_with(run, **place("cubic")), nl),
            (*_with(run, **place([1])), nl),
            (*_with(run, **place(bad_params)), nl + ".params")]


@pytest.mark.parametrize("run, parameters, key", [
    (*_with("truebeam", geom="ab"), "geom"),
    (*_with("truebeam", geom=[1, 2]), "geom"),
    (*_with("truebeam", geom=3), "geom"),
    (*_with("modes-geom", geom="ab"), "geom"),
    (*_with("truebeam", state0="ab"), "state0"),
    (*_with("truebeam", state0=0.5), "state0"),
    (*_with("truebeam", state0={"a": 5}), "state0.a"),
    (*_with("truebeam", forcing="abc"), "forcing"),
    (*_with("truebeam", forcing=5), "forcing"),
    (*_with("truebeam", forcing=[]), "forcing"),
    (*_with("truebeam", forcing={"breakpoints": "ab"}), "breakpoints"),
    (*_with("truebeam", forcing={"breakpoints": [0, 1]}), "breakpoints"),
    (*_with("truebeam", forcing={"breakpoints": [[0, 1, 2]]}), "breakpoints"),
    (*_with("ode4", family="ab"), "family"),
    (*_with("ode4", family=[1]), "family"),
    (*_with("ode4", state0="ab"), "state0"),
    (*_with("coupled", state0=5), "state0"),
    *[case for run in ("ode4", "coupled", "truesystem", "miosyst", "truebeam")
      for case in _law_cases(run)],
])
def test_a_config_object_or_list_of_the_wrong_shape_exits_2_naming_its_key(
        tmp_path, capsys, monkeypatch, run, parameters, key):
    from bridgeosc import ode4, plate, systems, truebeam

    def refuse(*args, **kwargs):
        raise RuntimeError("the solver ran")

    for owner, name in ((ode4, "integrate"), (systems, "integrate_coupled"),
                        (systems, "integrate_truesystem"),
                        (systems, "integrate_miosyst"),
                        (truebeam, "integrate_truebeam"),
                        (plate, "analytic_modes")):
        monkeypatch.setattr(owner, name, refuse)
    assert _run_config(tmp_path, {"name": "s", "model": run.split("-")[0],
                                  "parameters": parameters}) == 2
    err = capsys.readouterr().err
    assert f"config error: {key} must be " in err
    out = tmp_path / "o"
    assert not out.exists() or not any(out.iterdir())


def test_a_null_truebeam_forcing_is_an_absent_one(tmp_path):
    _, params = _with("truebeam", forcing=None)
    assert _run_config(tmp_path, {"name": "f", "model": "truebeam",
                                  "parameters": params}, "null") == 0
    del params["forcing"]
    assert _run_config(tmp_path, {"name": "f", "model": "truebeam",
                                  "parameters": params}, "absent") == 0
    assert _files(tmp_path / "null") == _files(tmp_path / "absent")


@pytest.mark.parametrize("key", ["a", "bd"])
def test_a_truebeam_state0_longer_than_modes_m_exits_3_before_the_run(
        tmp_path, capsys, monkeypatch, key):
    from bridgeosc import truebeam

    def refuse(*args, **kwargs):
        raise RuntimeError("the solver ran")

    monkeypatch.setattr(truebeam, "integrate_truebeam", refuse)
    _, params = _with("truebeam", state0={key: [0.1, 0.2, 0.3]})
    assert _run_config(tmp_path, {"name": "s", "model": "truebeam",
                                  "parameters": params}) == 3
    assert (f"state0.{key} has 3 entries, more than modes_M = 1"
            in capsys.readouterr().err)
    out = tmp_path / "o"
    assert not out.exists() or not any(out.iterdir())


def test_a_truebeam_state0_shorter_than_modes_m_is_zero_padded(tmp_path):
    _, params = _with("truebeam", modes_M=3, state0={"a": [0.5, 0.25]})
    assert _run_config(tmp_path, {"name": "s", "model": "truebeam",
                                  "parameters": params}) == 0
    rows = (tmp_path / "o" / "s.csv").read_text().splitlines()
    assert rows[0] == "t,switch,a1,a2,a3,b1,b2,b3"
    assert [float(v) for v in rows[1].split(",")] == [
        0.0, 1.0, 0.5, 0.25, 0.0, 0.0, 0.0, 0.0]


def test_a_sweep_grid_above_max_sweep_points_exits_2_before_any_output(
        tmp_path, capsys):
    cfg = tmp_path / "tiny.json"
    cfg.write_text(json.dumps(_tiny_ode4_config("big")))
    out = tmp_path / "o"
    assert main(["sweep", str(cfg), "--param", "k_coef=0:1e6:1",
                 "--out", str(out)]) == 2
    assert "the grid has more than 100000 points" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("config, message", [
    ({"name": "x", "parameters": {}}, "missing required key: 'model'"),
    ({"name": "x", "model": "energy", "parameters": [2.5, [1.0, 2.0]]},
     "parameters must be an object"),
], ids=["no-model", "list-parameters"])
def test_a_config_without_model_or_with_list_parameters_exits_2(
        tmp_path, capsys, config, message):
    assert _run_config(tmp_path, config) == 2
    assert message in capsys.readouterr().err
    out = tmp_path / "o"
    assert not out.exists() or not any(out.iterdir())


@pytest.mark.parametrize("error", [ValueError, KeyError, TypeError])
@pytest.mark.parametrize("model, module, solver", [
    ("ode4", "ode4", "integrate"), ("miosyst", "systems", "integrate_miosyst"),
    ("truebeam", "truebeam", "integrate_truebeam")])
def test_a_failure_inside_a_run_exits_1_with_nothing_written(
        tmp_path, capsys, monkeypatch, model, module, solver, error):
    # a ValueError, KeyError or TypeError raised inside a solver is a
    # runtime failure of a valid config, not a config error
    def fail(*args, **kwargs):
        raise error("inside the solver")

    monkeypatch.setattr(f"bridgeosc.{module}.{solver}", fail)
    assert _run_config(tmp_path, {"name": "r", "model": model,
                                  "parameters": MODEL_RUNS[model][0]}) == 1
    assert "runtime failure: " in capsys.readouterr().err
    out = tmp_path / "o"
    assert not out.exists() or not any(out.iterdir())


def test_import_leaves_multiprocessing_out():
    # only a sweep's worker pool needs multiprocessing; `bridge run` and a
    # bench set-up do not load it
    src = os.path.dirname(os.path.dirname(bridgeosc.__file__))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [src, os.environ.get("PYTHONPATH", "")]))
    proc = subprocess.run(
        [sys.executable, "-c", "import sys, bridgeosc.cli; "
         "print('multiprocessing' in sys.modules)"],
        capture_output=True, text=True, env=env, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "False"


@pytest.mark.parametrize("config, code, message", [
    ({"name": "u", "model": ["ode4"], "parameters": {}}, 2,
     "config error: unknown model ['ode4']"),
    ({"name": "u", "model": "coupled", "parameters": {
        **MODEL_RUNS["coupled"][0], "nl": {"kind": ["cubic"]}}}, 3,
     "unknown nonlinearity kind ['cubic']"),
], ids=["model", "nl-kind"])
def test_an_unhashable_model_or_force_law_kind_is_unknown(
        tmp_path, capsys, config, code, message):
    # a list where a name belongs is a bad config, not a runtime failure
    assert _run_config(tmp_path, config) == code
    assert message in capsys.readouterr().err
    out = tmp_path / "o"
    assert not out.exists() or not any(out.iterdir())


@pytest.mark.parametrize("alone_fails", [False, True], ids=["lanes", "lanes-and-alone"])
def test_a_failure_in_a_sweep_batch_stays_with_its_points(tmp_path, capsys, monkeypatch,
                                                          alone_fails):
    # the lanes call raised out of the whole sweep: now each point runs on
    # its own and prints its line, and one that fails alone too is exit 1
    def boom(*args):
        raise ValueError("boom")

    monkeypatch.setattr(ode4, "integrate_lanes", boom)
    if alone_fails:
        monkeypatch.setattr(ode4, "integrate", boom)
    cfg = tmp_path / "b.json"
    cfg.write_text(json.dumps(_tiny_ode4_config("b")))
    out = tmp_path / "o"
    code = main(["sweep", str(cfg), "--param", "k_coef=2:2.2:0.1", "--out", str(out)])
    captured = capsys.readouterr()
    assert "Traceback" not in captured.err
    if alone_fails:
        assert code == 1
        assert captured.err.splitlines() == ["runtime failure: boom"] * 3
        assert not out.exists() or not any(out.iterdir())
    else:
        assert code == 0
        assert [line.split(":")[0] for line in captured.out.splitlines()] == [
            "b_k_coef=2", "b_k_coef=2.1", "b_k_coef=2.2"]
        assert len(_files(out)) == 9


@pytest.mark.parametrize("config", [[1, 2], 3, "ode4", None],
                         ids=["list", "number", "string", "null"])
def test_a_sweep_config_that_is_not_an_object_exits_2(tmp_path, capsys, config):
    # a list used to end the sweep in an AttributeError traceback
    cfg = tmp_path / "c.json"
    cfg.write_text(json.dumps(config))
    out = tmp_path / "o"
    assert main(["run", str(cfg), "--out", str(out)]) == 2
    ran = capsys.readouterr().err
    assert main(["sweep", str(cfg), "--param", "k_coef=1:2:1", "--out", str(out)]) == 2
    assert capsys.readouterr().err == ran == (
        "config error: scenario config must be an object\n")
    assert not out.exists()


@pytest.mark.parametrize("kind", [["canonical"], {"canonical": 1}], ids=["list", "dict"])
def test_a_family_kind_that_is_not_a_string_exits_3(tmp_path, capsys, kind):
    # it was exit 1, "runtime failure: unhashable type: 'list'"
    config = _tiny_ode4_config("fk")
    config["parameters"]["family"]["kind"] = kind
    assert _run_config(tmp_path, config) == 3
    assert f"unknown family kind {kind!r}" in capsys.readouterr().err
    out = tmp_path / "o"
    assert not out.exists() or not any(out.iterdir())


# --- the exit-code contract under mutated configs ---------------------------
# Each example takes a builtin, a MODEL_RUNS config or a sweep config with its
# --param spec, and replaces one or two values anywhere in it (an object or a
# list included) with one of _ODD_VALUES, or deletes an object key.

_ODD_VALUES = [None, True, False, 0, -1, 1.5, 1e308, "", [], {}, [1], 2 ** 70,
               math.nan]
_SWEEPS = [("ode4", "k_coef=2:3:0.5"), ("ode4", "state0.0=0.5:1:0.5"),
           ("coupled", "t_end=1:2:1"), ("truebeam", "threshold_Ebar=2:3:1"),
           ("scanlan", "zeta=0:0.1:0.05")]
_FUZZ_BASES = (
    [("run", BUILTINS[name], None) for name in sorted(BUILTINS)]
    + [("run", {"name": "m", "model": run.split("-")[0], "parameters": params}, None)
       for run, (params, _) in sorted(MODEL_RUNS.items())]
    + [("sweep", {"name": "s", "model": run, "parameters": MODEL_RUNS[run][0]}, spec)
       for run, spec in _SWEEPS])


def _paths(node, at=()):
    """The path of each value below node: object keys and list indices."""
    entries = node.items() if isinstance(node, dict) else (
        enumerate(node) if isinstance(node, list) else ())
    for key, value in entries:
        yield at + (key,)
        yield from _paths(value, at + (key,))


@st.composite
def _mutated(draw):
    """(command, a mutated copy of a _FUZZ_BASES config, spec)."""
    command, config, spec = draw(st.sampled_from(_FUZZ_BASES))
    config = json.loads(json.dumps(config))
    for _ in range(draw(st.integers(1, 2))):
        paths = list(_paths(config))
        if not paths:
            break
        *parents, key = draw(st.sampled_from(paths))
        node = config
        for name in parents:
            node = node[name]
        if isinstance(node, dict) and draw(st.booleans()):
            del node[key]
        else:  # a copy: a later mutation may reach inside it
            node[key] = copy.deepcopy(draw(st.sampled_from(_ODD_VALUES)))
    return command, config, spec


def _wide_plate(run, key):
    """A run whose plate key is 1e308: exit 1 before the plate's quantities
    were checked (an eigenvalue that underflows, l^3 or the width 2 l that
    overflows)."""
    _, params = _with(run, geom={key: 1e308})
    return "run", {"name": "m", "model": run.split("-")[0], "parameters": params}, None


@settings(max_examples=200, deadline=None)
@example(_wide_plate("truebeam", "length_L"))
@example(_wide_plate("truebeam", "half_width_l"))
@example(_wide_plate("modes-geom", "half_width_l"))
@given(_mutated())
def test_a_mutated_config_exits_0_2_or_3_and_a_failure_writes_nothing(mutated):
    # every outcome of bridge run and bridge sweep on odd values is success,
    # a config error or a precondition failure (exit 1, a runtime failure, is
    # a fault), with no traceback; a failed run writes nothing, and a sweep
    # only the files of its points that succeeded. Step budget and sample
    # bound are cut so that 2^70 or 1e308 as a horizon ends quickly
    command, config, spec = mutated
    with tempfile.TemporaryDirectory() as tmp, \
            mock.patch.object(_rk, "MAX_STEPS", 5000), \
            mock.patch.object(truebeam, "MAX_SAMPLE_VALUES", 200_000), \
            redirect_stdout(io.StringIO()) as out, redirect_stderr(io.StringIO()) as err:
        cfg, out_dir = os.path.join(tmp, "cfg.json"), os.path.join(tmp, "o")
        with open(cfg, "w") as fh:
            json.dump(config, fh)
        argv = [command, cfg, "--out", out_dir] + (["--param", spec] if spec else [])
        code = main(argv)
        written = set(os.listdir(out_dir)) if os.path.isdir(out_dir) else set()
    assert code in (0, 2, 3), err.getvalue()
    assert "Traceback" not in err.getvalue()
    assert code == 0 or command == "sweep" or not written
    done = {line.split(": ")[0] for line in out.getvalue().splitlines()}
    assert written <= {point + suffix for point in done
                       for suffix in (".csv", "_reduced.csv", ".json", ".svg")}
