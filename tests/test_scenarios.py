"""Scenario parameters reach the solvers as the records whose fields they
name: every field set in a config arrives at the solver entry unchanged."""
import dataclasses
import pathlib
import re

import pytest

from bridgeosc import energy, ode4, plate, scenarios, systems, truebeam
from bridgeosc.errors import ConfigError, InvalidParameterError
from bridgeosc.nonlin import make_nonlinearity

CUBIC = {"kind": "cubic", "params": {"epsilon": 0.5}}
INTEGRATOR = {"t_end": 2.5, "rel_tol": 1e-7, "abs_tol": 1e-8,
              "max_step": 0.25, "blowup_threshold": 1e4}


class _Reached(Exception):
    """Raised by a captured solver entry to stop the run there."""


def _capture(monkeypatch, owner, attr, ret=None):
    """Replace owner.attr by a recorder of its calls; it returns ret, or
    stops the run when ret is None."""
    calls = []

    def entry(*args, **kwargs):
        calls.append((args, kwargs))
        if ret is None:
            raise _Reached
        return ret

    monkeypatch.setattr(owner, attr, entry)
    return calls


def _run(tmp_path, model, parameters):
    config = {"name": model, "model": model, "parameters": parameters}
    with pytest.raises(_Reached):
        scenarios.run_scenario(config, str(tmp_path))


def _non_default(record):
    """The record, after checking that no field holds its default."""
    for f in dataclasses.fields(record):
        assert f.default is dataclasses.MISSING or \
            getattr(record, f.name) != f.default, f.name
    return record


def test_ode4_integrator_config(tmp_path, monkeypatch):
    calls = _capture(monkeypatch, ode4, "integrate")
    _run(tmp_path, "ode4", {
        "family": {"kind": "canonical", "k_coef": 3.0, "nl": CUBIC},
        "state0": [1, 0, 0, 0], **INTEGRATOR})
    (_, _, cfg), _ = calls[0]
    assert cfg == _non_default(ode4.IntegratorConfig(**INTEGRATOR))


def test_coupled_params(tmp_path, monkeypatch):
    calls = _capture(monkeypatch, systems, "integrate_coupled")
    _run(tmp_path, "coupled", {"nl": CUBIC, "state0": [0.3, 0, 0.2, 0],
                               "mass_m": 2.0, "half_width_l": 0.7,
                               **INTEGRATOR})
    (params, nl, _, cfg), _ = calls[0]
    assert params == _non_default(systems.McKennaParams(2.0, 0.7))
    assert nl == make_nonlinearity("cubic", epsilon=0.5)
    assert cfg == ode4.IntegratorConfig(**INTEGRATOR)


def test_miosyst_params(tmp_path, monkeypatch):
    calls = _capture(monkeypatch, systems, "integrate_miosyst")
    _run(tmp_path, "miosyst", {"nl": CUBIC, "state0": [1, 1, 0, -1],
                               "beta": -1.5, "delta": 0.5, **INTEGRATOR})
    (params, _, _, cfg), _ = calls[0]
    assert params == systems.MiosystParams(-1.5, 0.5)
    assert cfg == ode4.IntegratorConfig(**INTEGRATOR)


def test_scanlan_params(tmp_path, monkeypatch):
    calls = _capture(monkeypatch, systems, "solve_scanlan")
    fields = {"inertia_I": 2.0, "zeta": 0.1, "omega_n": 1.5, "A_lift": 0.2,
              "B_lift": 0.3}
    _run(tmp_path, "scanlan", {**fields, "t_end": 20.0})
    (params, *_), _ = calls[0]
    assert params == systems.ScanlanParams(**fields)


def test_flutter_params_and_doubled_width(tmp_path, monkeypatch):
    calls = _capture(monkeypatch, energy, "flutter_speed", ret=1.0)
    fields = {"half_width_l": 5.0, "gyration_r": 3.0, "omega_B": 1.1,
              "omega_T": 1.9, "alpha_mass": 0.03}
    scenarios.run_scenario({"name": "fl", "model": "flutter",
                            "parameters": {**fields, "doubling_check": True}},
                           str(tmp_path))
    assert [args[0] for args, _ in calls] == [
        energy.FlutterParams(**fields),
        energy.FlutterParams(**{**fields, "half_width_l": 10.0,
                                "gyration_r": 6.0})]


def test_truebeam_config_forcing_and_tolerances(tmp_path, monkeypatch):
    calls = _capture(monkeypatch, truebeam, "integrate_truebeam")
    params = {
        "geom": {"length_L": 3.0, "half_width_l": 0.5, "poisson_sigma": 0.3},
        "nl": CUBIC, "threshold_Ebar": 2.0, "damping_delta": 0.3,
        "modes_M": 2, "bc_penalty_kappa": 50.0, "t_end": 1.5,
        "forcing": {"breakpoints": [[0, 0], [1, 2]], "profile": "vertical",
                    "profile_m": 2},
        "freeze_switch": -1, "rel_tol": 1e-7, "abs_tol": 1e-8}
    _run(tmp_path, "truebeam", params)
    (cfg, state0, t_end), kwargs = calls[0]
    forcing = _non_default(truebeam.GustForcing(
        breakpoints=((0.0, 0.0), (1.0, 2.0)), profile="vertical", profile_m=2))
    assert cfg == _non_default(truebeam.TrueBeamConfig(
        geom=_non_default(plate.PlateGeom(3.0, 0.5, 0.3)),
        nl=make_nonlinearity("cubic", epsilon=0.5), threshold_Ebar=2.0,
        damping_delta=0.3, forcing=forcing, modes_M=2, bc_penalty_kappa=50.0))
    assert state0.a.size == 2 and t_end == 1.5
    assert kwargs == {"freeze_switch": -1, "rel_tol": 1e-7, "abs_tol": 1e-8}

    # absent tolerances keep the solver's own defaults
    for key in ("rel_tol", "abs_tol", "freeze_switch"):
        del params[key]
    _run(tmp_path, "truebeam", params)
    assert calls[1][1] == {"freeze_switch": None}


def test_unknown_keys_are_rejected_flat_and_nested(tmp_path):
    base = {"nl": CUBIC, "state0": [0.3, 0, 0.2, 0], "t_end": 0.5,
            "not_a_field": 1}
    out = tmp_path / "o"
    with pytest.raises(InvalidParameterError,
                       match=r"coupled does not read \['not_a_field'\]"):
        scenarios.run_scenario({"name": "c", "model": "coupled",
                                "parameters": base}, str(out))
    assert not out.exists()
    with pytest.raises(ConfigError, match="bogus"):
        scenarios.run_scenario({"name": "m", "model": "modes", "parameters": {
            "geom": {"length_L": 1.0, "half_width_l": 0.5, "bogus": 1}}},
            str(tmp_path))


def test_readme_model_table_names_every_record_and_key():
    readme = pathlib.Path(__file__).resolve().parents[1] / "README.md"
    rows = {model: row for model, row in re.findall(
        r"^\| `(\w+)` \|(.*)$", readme.read_text(), re.MULTILINE)
        if model in scenarios.MODELS}
    assert set(rows) == set(scenarios.MODELS)
    for model, (_, records, keys) in scenarios._MODELS.items():
        for name in [r.__name__ for r in records] + list(keys):
            assert f"`{name}`" in rows[model], (model, name)
