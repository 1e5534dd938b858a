"""Scenario configs: parsing, builtins, and dispatch to the solvers.

A scenario is {"name", "model", "parameters", "outputs"?}; runners write
CSV/JSON/SVG artifacts into the output directory and return a one-line
summary. Parameter validation happens before any file is written.
"""
from __future__ import annotations

import json
import math
import os
from dataclasses import dataclass, field
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


def _integrator_config(p: dict) -> ode4.IntegratorConfig:
    return ode4.IntegratorConfig(
        t_end=float(p["t_end"]),
        rel_tol=float(p.get("rel_tol", 1e-10)),
        abs_tol=float(p.get("abs_tol", 1e-10)),
        max_step=float(p.get("max_step", math.inf)),
        blowup_threshold=float(p.get("blowup_threshold", 1e6)))


def _out_paths(sc: Scenario, out_dir: str) -> Dict[str, str]:
    base = os.path.join(out_dir, sc.name)
    paths = {"csv": base + ".csv", "svg": base + ".svg", "json": base + ".json"}
    if sc.outputs:
        first = sc.outputs[0]
        if first.get("csv_path"):
            paths["csv"] = os.path.join(out_dir, first["csv_path"])
        if first.get("svg_path"):
            paths["svg"] = os.path.join(out_dir, first["svg_path"])
        if first.get("json_path"):
            paths["json"] = os.path.join(out_dir, first["json_path"])
    return paths


def _family_from_config(p: dict) -> ode4.OdeFamily:
    fam = p["family"]
    kind = fam["kind"]
    nl = nonlinearity_from_config(fam["nl"]) if "nl" in fam else None
    kw = {k: float(v) for k, v in fam.items() if k not in ("kind", "nl")}
    return ode4.OdeFamily(kind=kind, nl=nl, **kw)


def _run_ode4(sc: Scenario, out: Dict[str, str]) -> ScenarioResult:
    p = sc.parameters
    family = _family_from_config(p)
    cfg = _integrator_config(p)
    traj = ode4.integrate(family, [float(v) for v in p["state0"]], cfg)
    report = ode4.detect_blowup(traj, cfg)
    traj.to_csv(out["csv"])
    with open(out["json"], "w") as fh:
        fh.write(report.to_json() + "\n")
    svg_line_plot(out["svg"], traj.ts, [traj.states[:, 0]], ["w"],
                  title=sc.name)
    r_txt = "none" if report.R_est is None else f"{report.R_est:.6g}"
    return ScenarioResult(sc.name,
                          f"termination={traj.termination} R_est={r_txt} "
                          f"events={len(traj.events)}",
                          [out["csv"], out["json"], out["svg"]])


def _run_system(sc: Scenario, out: Dict[str, str]) -> ScenarioResult:
    p = sc.parameters
    nl = nonlinearity_from_config(p["nl"])
    cfg = _integrator_config(p)
    s0 = [float(v) for v in p["state0"]]
    artifacts = [out["csv"], out["svg"]]
    if sc.model == "coupled":
        params = systems.McKennaParams(
            mass_m=float(p.get("mass_m", 1.0)),
            half_width_l=float(p.get("half_width_l", 1.0)))
        traj = systems.integrate_coupled(params, nl, s0, cfg)
        extra = ""
    elif sc.model == "truesystem":
        traj = systems.integrate_truesystem(float(p.get("omega2", 3.0)), nl,
                                            s0, cfg)
        extra = ""
    else:
        params = systems.MiosystParams(beta=float(p["beta"]),
                                       delta=float(p["delta"]))
        traj = systems.integrate_miosyst(params, nl, s0, cfg)
        reduced = systems.to_fourth_order(params, nl, traj)
        report = ode4.detect_blowup(reduced, cfg)
        red_csv = out["csv"].replace(".csv", "_reduced.csv")
        reduced.to_csv(red_csv)
        with open(out["json"], "w") as fh:
            fh.write(report.to_json() + "\n")
        artifacts += [red_csv, out["json"]]
        r_txt = "none" if report.R_est is None else f"{report.R_est:.6g}"
        extra = f" R_est={r_txt} events={len(reduced.events)}"
    traj.to_csv(out["csv"])
    svg_line_plot(out["svg"], traj.ts,
                  [traj.states[:, 0], traj.states[:, 2]], ["x", "y"],
                  title=sc.name)
    return ScenarioResult(sc.name, f"termination={traj.termination}{extra}",
                          artifacts)


def _run_scanlan(sc: Scenario, out: Dict[str, str]) -> ScenarioResult:
    p = sc.parameters
    params = systems.ScanlanParams(
        inertia_I=float(p["inertia_I"]), zeta=float(p["zeta"]),
        omega_n=float(p["omega_n"]), A_lift=float(p["A_lift"]),
        B_lift=float(p["B_lift"]))
    sol = systems.solve_scanlan(params, float(p.get("theta0", 1.0)),
                                float(p.get("thetad0", 0.0)),
                                float(p["t_end"]),
                                int(p.get("n_samples", 2001)))
    sol.to_csv(out["csv"])
    with open(out["json"], "w") as fh:
        json.dump({"growth_exponent": sol.growth_exponent,
                   "roots": [[r.real, r.imag] for r in sol.roots]}, fh)
        fh.write("\n")
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
    params = energy.FlutterParams(
        half_width_l=float(p["half_width_l"]),
        gyration_r=float(p["gyration_r"]), omega_B=float(p["omega_B"]),
        omega_T=float(p["omega_T"]), alpha_mass=float(p["alpha_mass"]))
    vc = energy.flutter_speed(params)
    payload = {"V_c": vc}
    if p.get("doubling_check"):
        doubled = energy.FlutterParams(
            half_width_l=2.0 * params.half_width_l,
            gyration_r=2.0 * params.gyration_r, omega_B=params.omega_B,
            omega_T=params.omega_T, alpha_mass=params.alpha_mass)
        payload["V_c_doubled_width"] = energy.flutter_speed(doubled)
        # equal frequencies give V_c = 0 and no finite ratio
        payload["ratio"] = payload["V_c_doubled_width"] / vc if vc else None
    with open(out["json"], "w") as fh:
        json.dump(payload, fh, allow_nan=False)
        fh.write("\n")
    return ScenarioResult(sc.name, f"V_c={vc:.6g}", [out["json"]])


def _run_energy(sc: Scenario, out: Dict[str, str]) -> ScenarioResult:
    p = sc.parameters
    ledger = energy.make_ledger(float(p["total_E"]),
                                [float(v) for v in p["schedule"]])
    payload = energy.ledger_report(ledger)
    with open(out["json"], "w") as fh:
        json.dump(payload, fh)
        fh.write("\n")
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
        forcing = truebeam.GustForcing(
            breakpoints=tuple((float(t), float(a))
                              for t, a in fc["breakpoints"]),
            profile=fc.get("profile", "uniform"),
            profile_m=int(fc.get("profile_m", 1)))
    cfg = truebeam.TrueBeamConfig(
        geom=geom, nl=nl, threshold_Ebar=float(p["threshold_Ebar"]),
        damping_delta=float(p.get("damping_delta", 0.0)), forcing=forcing,
        modes_M=int(p.get("modes_M", 1)),
        bc_penalty_kappa=float(p.get("bc_penalty_kappa", 100.0)))
    M = cfg.modes_M

    def arr(key):
        vals = p.get("state0", {}).get(key, [])
        out_v = np.zeros(M)
        out_v[:len(vals)] = [float(v) for v in vals]
        return out_v

    state0 = truebeam.ModalState(0.0, arr("a"), arr("ad"), arr("b"), arr("bd"))
    traj = truebeam.integrate_truebeam(
        cfg, state0, float(p["t_end"]),
        rel_tol=float(p.get("rel_tol", 1e-9)),
        abs_tol=float(p.get("abs_tol", 1e-9)),
        freeze_switch=p.get("freeze_switch"))
    traj.to_csv(out["csv"])
    with open(out["json"], "w") as fh:
        fh.write(traj.events_json() + "\n")
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
    os.makedirs(out_dir, exist_ok=True)
    out = _out_paths(sc, out_dir)
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
