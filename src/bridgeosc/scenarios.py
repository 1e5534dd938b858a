"""Scenario configs: parsing, builtins, and dispatch to the solvers.

A scenario is {"name", "model", "parameters", "outputs"?}. A runner solves
and returns its one-line summary and its artifacts as (suffix, writer) pairs,
which run_scenario writes last: a config rejected anywhere writes no file.
"""
from __future__ import annotations

import json
import math
import os
from contextlib import suppress
from dataclasses import dataclass, field, fields, replace
from pathlib import Path
from typing import Dict, List

import numpy as np

from . import energy, ode4, plate, systems, truebeam
from .errors import InvalidParameterError, _count, _number
from .io import svg_line_plot
from .nonlin import nonlinearity_from_config


@dataclass
class Scenario:
    name: str
    model: str
    parameters: dict
    outputs: List[dict] = field(default_factory=list)


@dataclass
class ScenarioResult:
    name: str
    summary: str
    artifacts: List[str]


def parse_scenario(cfg: dict) -> Scenario:
    try:
        name, model, parameters = cfg["name"], cfg["model"], cfg["parameters"]
    except (KeyError, TypeError) as exc:
        raise ValueError(f"scenario config missing required key: {exc}") from exc
    if not (isinstance(name, str) and name):  # it names the output files
        raise ValueError(f"name must be a non-empty string, got {name!r}")
    if model not in _MODELS:
        raise ValueError(f"unknown model {model!r}; expected one of {MODELS}")
    if not isinstance(parameters, dict):
        raise ValueError("parameters must be an object")
    outputs = cfg.get("outputs", [])
    if not (isinstance(outputs, list) and len(outputs) <= 1
            and all(isinstance(o, dict) for o in outputs)):
        raise ValueError("outputs must be a list of at most one object")
    return Scenario(name, model, parameters, outputs)


# the range of each int key, which bounds the work and memory of a run
_INT_RANGES = {"modes_M": (1, 64), "profile_m": (1, 1000), "m_max": (1, 1000),
               "n_samples": (2, 10**6), "navier_S": (2, 10**12)}


def _int(p: dict, key: str, default=None) -> int:
    """p[key] (or default) as an int in key's _INT_RANGES entry: 7 or 7.0,
    but not 1.7, inf or NaN."""
    value = _count(p.get(key, default), key)
    lo, hi = _INT_RANGES[key]
    if not lo <= value <= hi:
        raise InvalidParameterError(f"{key} must be from {lo} to {hi}")
    return value


def _record(cls, p: dict, **given):
    """cls built from the entries of p named like its fields, each int or
    float field checked as one (cls checks the others); given entries pass
    as they are, and fields absent from both keep the dataclass default."""
    kw = {f.name: _int(p, f.name) if f.type == "int" else _number(p[f.name], f.name)
          if f.type == "float" else p[f.name]
          for f in fields(cls) if f.name in p and f.name not in given}
    return cls(**kw, **given)


# JSON shapes a config key may be required to have, by name
_SHAPES = {"an object": lambda v: isinstance(v, dict),
           "a list": lambda v: isinstance(v, list),
           "a list of [t, a] pairs": lambda v: isinstance(v, list) and all(
               isinstance(pair, list) and len(pair) == 2 for pair in v)}


def _shaped(value, key: str, shape: str = "an object"):
    """value, if it has the shape named (a _SHAPES key); else a config
    error (exit 2) naming key, met before anything runs."""
    if not _SHAPES[shape](value):
        raise ValueError(f"{key} must be {shape}")
    return value


def _law(nl, key: str):
    """The force law of the nl object at key, whose params is an object too."""
    _shaped(_shaped(nl, key).get("params", {}), key + ".params")
    return nonlinearity_from_config(nl)


def _check_read(what: str, given, records=(), keys=()) -> None:
    """Reject each key of given that is neither a field of records nor in keys."""
    known = {f.name for r in records for f in fields(r)}.union(keys)
    unread = sorted(set(given) - known)
    if unread:
        raise InvalidParameterError(f"{what} does not read {unread}")


def out_paths(sc: Scenario, out_dir: str) -> Dict[str, str]:
    """Artifact paths by suffix (<name>.<ext> or the outputs entry's <ext>_path,
    _reduced.csv beside the .csv), each in out_dir or a directory there."""
    given, exts = (sc.outputs or [{}])[0], ("csv", "svg", "json")
    _check_read("outputs", given, keys=[f"{ext}_path" for ext in exts])
    paths = {"." + ext: os.path.join(out_dir, given.get(f"{ext}_path")
                                     or f"{sc.name}.{ext}") for ext in exts}
    paths["_reduced.csv"] = os.path.splitext(paths[".csv"])[0] + "_reduced.csv"
    root = os.path.realpath(out_dir)
    for path in paths.values():
        where = os.path.dirname(os.path.realpath(path))
        if os.path.commonpath([root, where]) != root:
            raise ValueError(f"output path {path!r} leaves the output directory")
        if where != root and not os.path.isdir(where):
            raise ValueError(f"output path {path!r} is in no existing directory")
    return paths


def _text(line: str):
    return lambda path: Path(path).write_text(line + "\n")


def _plot(ts, series, labels, title: str):
    return lambda path: svg_line_plot(path, ts, series, labels, title=title)


def _blowup(traj: ode4.Trajectory) -> tuple:
    """Summary text and .json artifact of the blow-up diagnostics of traj."""
    report = ode4.detect_blowup(traj)
    r = "none" if report.R_est is None else f"{report.R_est:.6g}"
    return f"R_est={r} events={len(traj.events)}", (".json", _text(report.to_json()))


def _ode4_run(p: dict) -> tuple:
    """The (family, state0, cfg) of an ode4 scenario's parameters."""
    fam = _shaped(p["family"], "family")
    nl = _law(fam["nl"], "family.nl") if "nl" in fam else None
    kw = {k: _number(v, k) for k, v in fam.items() if k not in ("kind", "nl")}
    state0 = [_number(v, "state0") for v in _shaped(p["state0"], "state0", "a list")]
    return (ode4.OdeFamily(kind=fam["kind"], nl=nl, **kw), state0,
            _record(ode4.IntegratorConfig, p))


def _run_ode4(sc: Scenario, traj=None) -> tuple:
    if isinstance(traj, Exception):
        raise traj
    traj = traj or ode4.integrate(*_ode4_run(sc.parameters))
    blowup, report = _blowup(traj)
    return (f"termination={traj.termination} {blowup}",
            [(".csv", traj.to_csv), report,
             (".svg", _plot(traj.ts, [traj.states[:, 0]], ["w"], sc.name))])


def _run_system(sc: Scenario) -> tuple:
    p = sc.parameters
    nl = _law(p["nl"], "nl")
    cfg = _record(ode4.IntegratorConfig, p)
    s0 = [_number(v, "state0") for v in _shaped(p["state0"], "state0", "a list")]
    if sc.model == "coupled":
        traj = systems.integrate_coupled(_record(systems.McKennaParams, p), nl, s0, cfg)
    elif sc.model == "truesystem":
        traj = systems.integrate_truesystem(_number(p.get("omega2", 3.0), "omega2"),
                                            nl, s0, cfg)
    else:
        params = _record(systems.MiosystParams, p)
        traj = systems.integrate_miosyst(params, nl, s0, cfg)
    summary = f"termination={traj.termination}"
    artifacts = [(".csv", traj.to_csv),
                 (".svg", _plot(traj.ts, [traj.states[:, 0], traj.states[:, 2]],
                                ["x", "y"], sc.name))]
    if sc.model == "miosyst":
        reduced = systems.to_fourth_order(params, nl, traj)
        blowup, report = _blowup(reduced)
        summary += " " + blowup
        artifacts += [("_reduced.csv", reduced.to_csv), report]
    return summary, artifacts


def _run_scanlan(sc: Scenario) -> tuple:
    p = sc.parameters
    sol = systems.solve_scanlan(
        _record(systems.ScanlanParams, p), _number(p.get("theta0", 1.0), "theta0"),
        _number(p.get("thetad0", 0.0), "thetad0"), _number(p["t_end"], "t_end"),
        _int(p, "n_samples", 2001))
    payload = json.dumps({"growth_exponent": sol.growth_exponent,
                          "roots": [[r.real, r.imag] for r in sol.roots]},
                         allow_nan=False)
    return (f"growth_exponent={sol.growth_exponent:.6g}",
            [(".csv", sol.to_csv), (".json", _text(payload)),
             (".svg", _plot(sol.ts, [sol.theta], ["theta"], sc.name))])


def _run_modes(sc: Scenario) -> tuple:
    p = sc.parameters
    if "navier_S" in p:
        _check_read("modes with navier_S", p, keys=["navier_S"])
        modes = plate.navier_square_search(_int(p, "navier_S"))
        summary = (f"navier S={p['navier_S']}: {len(modes)} modes "
                   + " ".join(f"({m.m_index},{m.n_index})" for m in modes))
    else:
        geom = plate.PlateGeom(**{k: _number(v, k)
                                  for k, v in _shaped(p["geom"], "geom").items()})
        modes = plate.analytic_modes(geom, _int(p, "m_max", 4))
        worst = max(plate.verify_mode(geom, md, bc, 32).max_residual
                    for md in modes for bc in ("eigen1", "eigen2"))
        summary = f"{len(modes)} modes, max residual {worst:.3g}"
    return summary, [(".csv", lambda path: plate.write_modes_csv(path, modes))]


def _run_flutter(sc: Scenario) -> tuple:
    p = sc.parameters
    params = _record(energy.FlutterParams, p)
    vc = energy.flutter_speed(params)
    payload = {"V_c": vc}
    if p.get("doubling_check"):
        doubled = replace(params, half_width_l=2.0 * params.half_width_l,
                          gyration_r=2.0 * params.gyration_r)
        payload["V_c_doubled_width"] = energy.flutter_speed(doubled)
        # equal frequencies give V_c = 0 and no finite ratio
        payload["ratio"] = payload["V_c_doubled_width"] / vc if vc else None
    return f"V_c={vc:.6g}", [(".json", _text(json.dumps(payload, allow_nan=False)))]


def _run_energy(sc: Scenario) -> tuple:
    p = sc.parameters
    payload = energy.ledger_report(energy.make_ledger(p["total_E"], p["schedule"]))
    return (f"switch={payload['switch']} active_modes={payload['active_modes']}",
            [(".json", _text(json.dumps(payload, allow_nan=False)))])


def _run_truebeam(sc: Scenario) -> tuple:
    p = sc.parameters
    geom = plate.PlateGeom(**{k: _number(v, k)
                              for k, v in _shaped(p["geom"], "geom").items()})
    nl = _law(p["nl"], "nl")
    fc, forcing = p.get("forcing"), None  # absent or null: the zero gust
    if fc is not None:
        _check_read("forcing", _shaped(fc, "forcing"), [truebeam.GustForcing])
        forcing = _record(truebeam.GustForcing, fc, breakpoints=tuple(
            (_number(t, "breakpoints"), _number(a, "breakpoints")) for t, a in
            _shaped(fc["breakpoints"], "breakpoints", "a list of [t, a] pairs")))
    cfg = _record(truebeam.TrueBeamConfig, p, geom=geom, nl=nl, forcing=forcing)
    M = cfg.modes_M
    arrs = {key: np.zeros(M) for key in ("a", "ad", "b", "bd")}
    s0 = _shaped(p.get("state0", {}), "state0")
    _check_read("state0", s0, keys=arrs)
    for key, vals in s0.items():
        if len(_shaped(vals, f"state0.{key}", "a list")) > M:
            raise InvalidParameterError(
                f"state0.{key} has {len(vals)} entries, more than modes_M = {M}")
        arrs[key][:len(vals)] = [_number(v, f"state0.{key}") for v in vals]
    traj = truebeam.integrate_truebeam(
        cfg, truebeam.ModalState(0.0, **arrs), _number(p["t_end"], "t_end"),
        freeze_switch=p.get("freeze_switch"),
        **{k: _number(p[k], k) for k in ("rel_tol", "abs_tol") if k in p})
    return (f"termination={traj.termination} switch_events={len(traj.events)}",
            [(".csv", traj.to_csv), (".json", _text(traj.events_json())),
             (".svg", _plot(traj.ts, [traj.ys[:, 0], traj.ys[:, 2 * M]],
                            ["a1", "b1"], sc.name))])


# model: (runner, records built from its parameters, its other keys)
_MODELS = {
    "ode4": (_run_ode4, [ode4.IntegratorConfig], ("family", "state0")),
    "coupled": (_run_system, [ode4.IntegratorConfig, systems.McKennaParams],
                ("nl", "state0")),
    "truesystem": (_run_system, [ode4.IntegratorConfig], ("omega2", "nl", "state0")),
    "miosyst": (_run_system, [ode4.IntegratorConfig, systems.MiosystParams],
                ("nl", "state0")),
    "scanlan": (_run_scanlan, [systems.ScanlanParams],
                ("t_end", "theta0", "thetad0", "n_samples")),
    "truebeam": (_run_truebeam, [truebeam.TrueBeamConfig],
                 ("t_end", "state0", "rel_tol", "abs_tol", "freeze_switch")),
    "modes": (_run_modes, [], ("navier_S", "geom", "m_max")),
    "flutter": (_run_flutter, [energy.FlutterParams], ("doubling_check",)),
    "energy": (_run_energy, [], ("total_E", "schedule")),
}
MODELS = tuple(_MODELS)


def integrate_ode4(configs: List[dict]) -> list:
    """Per config, run_scenario's integrated: an ode4 run's trajectory or its
    InvalidParameterError, all from one ode4.integrate_lanes call, else None."""
    runs = {}
    for i, config in enumerate(configs):
        try:  # run_scenario makes the other checks, and meets these errors again
            sc = parse_scenario(config)
            if sc.model == "ode4":
                runs[i] = _ode4_run(sc.parameters)
        except Exception:
            pass
    done = dict(zip(runs, ode4.integrate_lanes(list(runs.values()))))
    return [done.get(i) for i in range(len(configs))]


def run_scenario(config: dict, out_dir: str, integrated=None) -> ScenarioResult:
    """Validate and execute one scenario (an ode4 one may come integrated,
    see integrate_ode4); artifacts land in out_dir, all or nothing: each is
    written beside its target under a temporary name, and they are renamed
    into place once every write has succeeded."""
    sc = parse_scenario(config)
    run, records, keys = _MODELS[sc.model]
    _check_read(sc.model, sc.parameters, records, keys)
    out = out_paths(sc, out_dir)
    os.makedirs(out_dir, exist_ok=True)
    summary, artifacts = run(sc) if integrated is None else run(sc, integrated)
    paths, placed = [out[suffix] for suffix, _ in artifacts], 0
    try:
        for (_, write), path in zip(artifacts, paths):
            write(path + ".tmp")
        for placed, path in enumerate(paths):  # paths[:placed] are in place
            os.replace(path + ".tmp", path)
    except BaseException:  # the temporary files go, and the renamed ones
        for path in paths[:placed] + [path + ".tmp" for path in paths[placed:]]:
            with suppress(OSError):
                os.remove(path)
        raise
    return ScenarioResult(sc.name, summary, paths)


BUILTINS: Dict[str, dict] = {
    "figure12": {
        "name": "figure12",
        "model": "ode4",
        "parameters": {
            "family": {"kind": "canonical", "k_coef": 3.0,
                       "nl": {"kind": "cubic", "params": {"epsilon": 1.0}}},
            "state0": [1.0, 0.0, 0.0, 0.0],
            "t_end": 20.0, "rel_tol": 1e-10, "abs_tol": 1e-10,
        },
    },
    "figure13": {
        "name": "figure13",
        "model": "ode4",
        "parameters": {
            "family": {"kind": "canonical", "k_coef": 3.6,
                       "nl": {"kind": "cubic", "params": {"epsilon": 1.0}}},
            "state0": [0.9, 0.0, 0.0, 0.0],
            "t_end": 120.0, "rel_tol": 1e-10, "abs_tol": 1e-10,
        },
    },
    "figure16-eps0.1": {
        "name": "figure16-eps0.1",
        "model": "miosyst",
        "parameters": {
            "beta": -1.0, "delta": 1.0,
            "nl": {"kind": "cubic", "params": {"epsilon": 0.1}},
            "state0": [1.0, 1.0, 0.0, -1.0],
            "t_end": 10.0, "rel_tol": 1e-10, "abs_tol": 1e-10,
        },
    },
    "tacoma-eigen-625": {
        "name": "tacoma-eigen-625",
        "model": "modes",
        "parameters": {"navier_S": 625},
    },
    "flutter-doubling": {
        "name": "flutter-doubling",
        "model": "flutter",
        "parameters": {
            "half_width_l": 6.0, "gyration_r": 6.0 / math.sqrt(2.0),
            "omega_B": 1.0, "omega_T": 1.6, "alpha_mass": 0.02,
            "doubling_check": True,
        },
    },
}


def list_builtins() -> List[str]:
    return sorted(BUILTINS)
