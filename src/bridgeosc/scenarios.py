"""Scenario configs: parsing, builtins, and dispatch to the solvers.

A scenario is {"name", "model", "parameters", "outputs"?}; runners write
CSV/JSON/SVG artifacts into the output directory and return a one-line
summary. Parameter validation happens before any file is written.
"""
from __future__ import annotations

import json
import math
import os
from dataclasses import dataclass, field, fields, replace
from typing import Dict, List

import numpy as np

from . import energy, ode4, plate, systems, truebeam
from .io import svg_line_plot
from .nonlin import nonlinearity_from_config

MODELS = ("ode4", "coupled", "truesystem", "miosyst", "scanlan", "truebeam",
          "modes", "flutter", "energy")


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
        name = cfg["name"]
        model = cfg["model"]
        parameters = cfg["parameters"]
    except (KeyError, TypeError) as exc:
        raise ValueError(f"scenario config missing required key: {exc}") from exc
    if model not in MODELS:
        raise ValueError(f"unknown model {model!r}; expected one of {MODELS}")
    if not isinstance(parameters, dict):
        raise ValueError("parameters must be an object")
    return Scenario(str(name), model, parameters, list(cfg.get("outputs", [])))


_CASTS = {"float": float, "int": int, "str": str}


def _record(cls, p: dict, **given):
    """cls built from the entries of p named like its fields, each cast by
    the field's annotated type; given entries pass as they are, and fields
    absent from both keep the dataclass default."""
    kw = {f.name: _CASTS[f.type](p[f.name]) for f in fields(cls)
          if f.name in p and f.name not in given}
    return cls(**kw, **given)


def _out_paths(sc: Scenario, out_dir: str) -> Dict[str, str]:
    """Artifact paths: <name>.<ext>, or the first outputs entry's
    <ext>_path, each required to resolve inside out_dir."""
    first = sc.outputs[0] if sc.outputs else {}
    root = os.path.realpath(out_dir)
    paths = {}
    for ext in ("csv", "svg", "json"):
        path = os.path.join(out_dir, first.get(f"{ext}_path") or f"{sc.name}.{ext}")
        if os.path.commonpath([root, os.path.realpath(path)]) != root:
            raise ValueError(f"output path {path!r} leaves the output directory")
        paths[ext] = path
    return paths


def _write_line(path: str, text: str) -> None:
    with open(path, "w") as fh:
        fh.write(text + "\n")


def _blowup_summary(report: ode4.BlowupReport, traj: ode4.Trajectory) -> str:
    r_txt = "none" if report.R_est is None else f"{report.R_est:.6g}"
    return f"R_est={r_txt} events={len(traj.events)}"


def _family_from_config(p: dict) -> ode4.OdeFamily:
    fam = p["family"]
    kind = fam["kind"]
    nl = nonlinearity_from_config(fam["nl"]) if "nl" in fam else None
    kw = {k: float(v) for k, v in fam.items() if k not in ("kind", "nl")}
    return ode4.OdeFamily(kind=kind, nl=nl, **kw)


def _run_ode4(sc: Scenario, out: Dict[str, str]) -> ScenarioResult:
    p = sc.parameters
    family = _family_from_config(p)
    cfg = _record(ode4.IntegratorConfig, p)
    traj = ode4.integrate(family, [float(v) for v in p["state0"]], cfg)
    report = ode4.detect_blowup(traj)
    _write_line(out["json"], report.to_json())
    traj.to_csv(out["csv"])
    svg_line_plot(out["svg"], traj.ts, [traj.states[:, 0]], ["w"],
                  title=sc.name)
    return ScenarioResult(sc.name, f"termination={traj.termination} "
                          f"{_blowup_summary(report, traj)}",
                          [out["csv"], out["json"], out["svg"]])


def _run_system(sc: Scenario, out: Dict[str, str]) -> ScenarioResult:
    p = sc.parameters
    nl = nonlinearity_from_config(p["nl"])
    cfg = _record(ode4.IntegratorConfig, p)
    s0 = [float(v) for v in p["state0"]]
    artifacts = [out["csv"], out["svg"]]
    extra = ""
    if sc.model == "coupled":
        traj = systems.integrate_coupled(_record(systems.McKennaParams, p),
                                         nl, s0, cfg)
    elif sc.model == "truesystem":
        traj = systems.integrate_truesystem(float(p.get("omega2", 3.0)), nl,
                                            s0, cfg)
    else:
        params = _record(systems.MiosystParams, p)
        traj = systems.integrate_miosyst(params, nl, s0, cfg)
        reduced = systems.to_fourth_order(params, nl, traj)
        report = ode4.detect_blowup(reduced)
        _write_line(out["json"], report.to_json())
        red_csv = os.path.splitext(out["csv"])[0] + "_reduced.csv"
        reduced.to_csv(red_csv)
        artifacts += [red_csv, out["json"]]
        extra = " " + _blowup_summary(report, reduced)
    traj.to_csv(out["csv"])
    svg_line_plot(out["svg"], traj.ts,
                  [traj.states[:, 0], traj.states[:, 2]], ["x", "y"],
                  title=sc.name)
    return ScenarioResult(sc.name, f"termination={traj.termination}{extra}",
                          artifacts)


def _run_scanlan(sc: Scenario, out: Dict[str, str]) -> ScenarioResult:
    p = sc.parameters
    sol = systems.solve_scanlan(_record(systems.ScanlanParams, p),
                                float(p.get("theta0", 1.0)),
                                float(p.get("thetad0", 0.0)),
                                float(p["t_end"]),
                                int(p.get("n_samples", 2001)))
    _write_line(out["json"], json.dumps(
        {"growth_exponent": sol.growth_exponent,
         "roots": [[r.real, r.imag] for r in sol.roots]}, allow_nan=False))
    sol.to_csv(out["csv"])
    svg_line_plot(out["svg"], sol.ts, [sol.theta], ["theta"], title=sc.name)
    return ScenarioResult(sc.name,
                          f"growth_exponent={sol.growth_exponent:.6g}",
                          [out["csv"], out["json"], out["svg"]])


def _run_modes(sc: Scenario, out: Dict[str, str]) -> ScenarioResult:
    p = sc.parameters
    if "navier_S" in p:
        modes = plate.navier_square_search(int(p["navier_S"]))
        summary = (f"navier S={p['navier_S']}: {len(modes)} modes "
                   + " ".join(f"({m.m_index},{m.n_index})" for m in modes))
    else:
        geom = plate.PlateGeom(**{k: float(v) for k, v in p["geom"].items()})
        modes = plate.analytic_modes(geom, int(p.get("m_max", 4)))
        worst = max(plate.verify_mode(geom, md, bc, 32).max_residual
                    for md in modes for bc in ("eigen1", "eigen2"))
        summary = f"{len(modes)} modes, max residual {worst:.3g}"
    plate.write_modes_csv(out["csv"], modes)
    return ScenarioResult(sc.name, summary, [out["csv"]])


def _run_flutter(sc: Scenario, out: Dict[str, str]) -> ScenarioResult:
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
    _write_line(out["json"], json.dumps(payload, allow_nan=False))
    return ScenarioResult(sc.name, f"V_c={vc:.6g}", [out["json"]])


def _run_energy(sc: Scenario, out: Dict[str, str]) -> ScenarioResult:
    p = sc.parameters
    ledger = energy.make_ledger(p["total_E"], p["schedule"])
    payload = energy.ledger_report(ledger)
    _write_line(out["json"], json.dumps(payload, allow_nan=False))
    return ScenarioResult(sc.name,
                          f"switch={payload['switch']} "
                          f"active_modes={payload['active_modes']}",
                          [out["json"]])


def _run_truebeam(sc: Scenario, out: Dict[str, str]) -> ScenarioResult:
    p = sc.parameters
    geom = plate.PlateGeom(**{k: float(v) for k, v in p["geom"].items()})
    nl = nonlinearity_from_config(p["nl"])
    forcing = None
    if p.get("forcing"):
        fc = p["forcing"]
        forcing = _record(truebeam.GustForcing, fc, breakpoints=tuple(
            (float(t), float(a)) for t, a in fc["breakpoints"]))
    cfg = _record(truebeam.TrueBeamConfig, p, geom=geom, nl=nl, forcing=forcing)
    M = cfg.modes_M

    def arr(key):
        vals = p.get("state0", {}).get(key, [])
        out_v = np.zeros(M)
        out_v[:len(vals)] = [float(v) for v in vals]
        return out_v

    state0 = truebeam.ModalState(0.0, arr("a"), arr("ad"), arr("b"), arr("bd"))
    traj = truebeam.integrate_truebeam(
        cfg, state0, float(p["t_end"]), freeze_switch=p.get("freeze_switch"),
        **{k: float(p[k]) for k in ("rel_tol", "abs_tol") if k in p})
    _write_line(out["json"], traj.events_json())
    traj.to_csv(out["csv"])
    svg_line_plot(out["svg"], traj.ts, [traj.ys[:, 0], traj.ys[:, 2 * M]],
                  ["a1", "b1"], title=sc.name)
    return ScenarioResult(sc.name,
                          f"termination={traj.termination} "
                          f"switch_events={len(traj.events)}",
                          [out["csv"], out["json"], out["svg"]])


_RUNNERS = {
    "ode4": _run_ode4,
    "coupled": _run_system,
    "truesystem": _run_system,
    "miosyst": _run_system,
    "scanlan": _run_scanlan,
    "modes": _run_modes,
    "flutter": _run_flutter,
    "energy": _run_energy,
    "truebeam": _run_truebeam,
}


def run_scenario(config: dict, out_dir: str) -> ScenarioResult:
    """Validate and execute one scenario; artifacts land in out_dir."""
    sc = parse_scenario(config)
    out = _out_paths(sc, out_dir)
    os.makedirs(out_dir, exist_ok=True)
    return _RUNNERS[sc.model](sc, out)


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
