import json
import math

import pytest

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
