"""The benchmark workloads: seeded inputs, the timed call, and the untimed
check of every run's outputs.

Each workload is a closed loop with one client: the next run starts when the
previous one has returned. Inputs are made from the seed alone, and the
program receives only the generated scenario configs and initial states.

A workload yields its inputs in blocks of (label, group, payload) items. A
block is the smallest mix that represents the workload (the five builtins
plus seeded scenarios, or one initial state at every mode count), and a
timed phase always ends on a block boundary so every run sees the same mix.
"""
from __future__ import annotations

import contextlib
import io
import json
import math
import os
import shutil
import xml.etree.ElementTree as ET

import numpy as np

from bridgeosc import cli, ode4, plate, truebeam
from bridgeosc.nonlin import make_nonlinearity


def lowdisc(seed, stream, dim):
    """Endless additive-recurrence sequence in [0, 1)^dim, shifted by the seed.

    Every prefix covers the cube evenly, so a time-bounded run draws nearly
    the same parameter mix, and so nearly the same cost, whatever the seed.
    """
    g = 2.0
    for _ in range(60):  # g = the root > 1 of x^(dim+1) = x + 1
        g = (1.0 + g) ** (1.0 / (dim + 1))
    alpha = g ** -np.arange(1.0, dim + 1.0)
    x = np.random.default_rng([seed, stream]).random(dim)
    while True:
        x = (x + alpha) % 1.0
        yield x.copy()


def _cli(argv):
    """bridge <argv> in-process; returns (exit code, stdout, stderr)."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.main(argv)
    return code, out.getvalue(), err.getvalue().strip()


def _write_json(path, obj):
    with open(path, "w") as fh:
        json.dump(obj, fh)


def _read_csv(path):
    """(header, data rows) of a CSV whose columns, except a mode family
    name, parse as floats; raises ValueError on a malformed file."""
    with open(path) as fh:
        lines = fh.read().splitlines()
    if not lines:
        raise ValueError("empty file")
    header = lines[0].split(",")
    numeric = [i for i, col in enumerate(header) if col != "family"]
    rows = [line.split(",") for line in lines[1:]]
    for cols in rows:
        if len(cols) != len(header):
            raise ValueError(f"ragged row {cols!r}")
        for i in numeric:
            float(cols[i])
    return header, rows


def _read_artifacts(paths, problems):
    """Parse each artifact by its extension; returns ({path: parsed}, fingerprint).

    The fingerprint lists every artifact's byte size, the data rows of each
    CSV and the zero count of each blow-up report: counts that must repeat
    exactly for the same input and code.
    """
    parsed, fp = {}, []
    for path in paths:
        name = os.path.basename(path)
        if not os.path.isfile(path):
            problems.append(f"{name} missing")
            continue
        fp.append(os.path.getsize(path))
        try:
            if path.endswith(".csv"):
                parsed[path] = _read_csv(path)
                fp.append(len(parsed[path][1]))
            elif path.endswith(".json"):
                with open(path) as fh:
                    parsed[path] = json.load(fh)
                if isinstance(parsed[path], dict) and "zeros" in parsed[path]:
                    fp.append(len(parsed[path]["zeros"]))
            else:
                parsed[path] = ET.parse(path).getroot()
        except (ValueError, ET.ParseError) as exc:
            problems.append(f"{name} does not parse: {exc}")
    return parsed, fp


def check_blowup(report, problems, window=None):
    """A blow-up report must say blew_up with a finite R_est past its last
    zero, inside window=(lo, hi) when given."""
    r_est, zeros = report.get("R_est"), report.get("zeros", [])
    if not report.get("blew_up"):
        problems.append("no blow-up detected")
    elif r_est is None or not math.isfinite(r_est):
        problems.append(f"R_est {r_est!r} is not finite")
    elif zeros and r_est <= zeros[-1]:
        problems.append(f"R_est {r_est} is not past the last zero {zeros[-1]}")
    elif window and not window[0] <= r_est <= window[1]:
        problems.append(f"R_est {r_est} outside {window}")


NAVIER_625 = {(7, 24), (15, 20), (20, 15), (24, 7)}


def _tolerances(u):
    """rel_tol = abs_tol log-uniform in [1e-12, 1e-9].

    Step counts scale as tol^(-1/5), so run costs spread smoothly over about
    4x (roughly 1k to 4k steps); a latency quantile then moves in proportion
    when the host slows for part of a run, instead of jumping between two
    narrow clusters of costs.
    """
    tol = 10.0 ** (-9.0 - 3.0 * u)
    return {"rel_tol": tol, "abs_tol": tol}


class ScenarioRuns:
    """`bridge run` on the builtins and on seeded blow-up scenarios."""

    name = "scenario-runs"
    units_per_run = 1
    trace_block_s = 6.5  # untraced + traced pass of one block, 2-vCPU Xeon
    recheck = 6          # the builtins and the first seeded scenario
    BUILTINS = ("figure12", "figure13", "figure16-eps0.1", "tacoma-eigen-625",
                "flutter-doubling")
    N_CUBIC, N_MIOSYST = 8, 4

    def __init__(self, seed, workdir):
        self.seed = seed
        self.out = os.path.join(workdir, "out")
        self.cfg_dir = os.path.join(workdir, "configs")
        os.makedirs(self.cfg_dir, exist_ok=True)

    def _config_item(self, cfg):
        path = os.path.join(self.cfg_dir, cfg["name"] + ".json")
        _write_json(path, cfg)
        return (cfg["name"], cfg["model"], [path])

    def blocks(self):
        cubic = lowdisc(self.seed, 1, 3)
        mio = lowdisc(self.seed, 2, 4)
        n = 0
        while True:
            block = [(b, b, ["--builtin", b]) for b in self.BUILTINS]
            for _ in range(self.N_CUBIC):
                u = next(cubic)
                k = 2.5 + 1.1 * u[0]
                # above k ~ 3.1 small data can stay dormant for a long time or
                # never blow up; the floor on w(0) keeps every run blowing up
                w_min = 0.8 + 0.5 * max(0.0, k - 3.05)
                w0 = w_min + (1.2 - w_min) * u[1]
                block.append(self._config_item({
                    "name": f"cubic-{n:05d}", "model": "ode4",
                    "parameters": {
                        "family": {"kind": "canonical", "k_coef": k,
                                   "nl": {"kind": "cubic",
                                          "params": {"epsilon": 1.0}}},
                        "state0": [w0, 0.0, 0.0, 0.0], "t_end": 60.0,
                        **_tolerances(u[2])}}))
                n += 1
            for _ in range(self.N_MIOSYST):
                u = next(mio)
                block.append(self._config_item({
                    "name": f"miosyst-{n:05d}", "model": "miosyst",
                    "parameters": {
                        "beta": -1.5 + 1.3 * u[0], "delta": 0.2 + 1.3 * u[1],
                        "nl": {"kind": "cubic",
                               "params": {"epsilon": 0.05 + 0.15 * u[2]}},
                        "state0": [1.0, 1.0, 0.0, -1.0], "t_end": 15.0,
                        **_tolerances(u[3])}}))
                n += 1
            yield block

    def warm_up(self):
        for b in ("figure12", "figure16-eps0.1", "tacoma-eigen-625",
                  "flutter-doubling"):  # one run per model
            self.inspect(b, ["--builtin", b], self.run(["--builtin", b]))

    def run(self, src):
        return _cli(["run", *src, "--out", self.out])

    def _artifacts(self, name):
        base = os.path.join(self.out, name)
        if name == "tacoma-eigen-625":
            return [base + ".csv"]
        if name == "flutter-doubling":
            return [base + ".json"]
        if name.startswith("miosyst") or name == "figure16-eps0.1":
            return [base + ".csv", base + "_reduced.csv", base + ".json",
                    base + ".svg"]
        return [base + ".csv", base + ".json", base + ".svg"]

    def inspect(self, label, src, output):
        code, summary, err = output
        problems = [] if code == 0 else [f"exit {code}: {err}"]
        paths = self._artifacts(label)
        parsed, fp = _read_artifacts(paths, problems)
        base = os.path.join(self.out, label)
        report = parsed.get(base + ".json")
        if label == "tacoma-eigen-625":
            if base + ".csv" in parsed:
                pairs = {(int(float(r[1])), int(float(r[2])))
                         for r in parsed[base + ".csv"][1]}
                if pairs != NAVIER_625:
                    problems.append(f"S = 625 pairs {sorted(pairs)}")
        elif label == "flutter-doubling":
            if report is not None and abs(report.get("ratio", 0.0) - 2.0) > 1e-9:
                problems.append(f"flutter ratio {report.get('ratio')} != 2")
        elif report is not None:
            if "termination=blowup_detected" not in summary:
                problems.append(f"run summary {summary.strip()!r}")
            check_blowup(report, problems, {
                "figure12": (8.064, 8.264), "figure13": (95.0, 98.0),
                "figure16-eps0.1": (3.991, 4.091)}.get(label))
        for path in paths:
            if os.path.exists(path):
                os.remove(path)
        return [f"{label}: {p}" for p in problems], fp


class ExistenceEnsemble:
    """Acceptance criterion 7: piecewise-linear force, no blow-up to t = 500.

    One run is one seeded initial state integrated at k = 0 and at k = 2, so
    every run costs about the same (k = 0 alone takes ~1/40 of k = 2).
    """

    name = "existence-ensemble"
    units_per_run = 1
    trace_block_s = 1.8
    recheck = 1
    KS = (0.0, 2.0)

    def __init__(self, seed, workdir):
        self.seed = seed
        nl = make_nonlinearity("piecewise")
        self.families = [ode4.canonical(k, nl) for k in self.KS]
        self.cfg = ode4.IntegratorConfig(t_end=500.0, rel_tol=1e-7,
                                         abs_tol=1e-7, blowup_threshold=1e300)

    def blocks(self):
        states = lowdisc(self.seed, 3, 5)
        n = 0
        while True:
            u = next(states)
            s0 = 2.0 * u[:4] - 1.0
            s0 *= (0.1 + 9.9 * u[4]) / max(np.linalg.norm(s0), 1e-3)
            yield [(f"state-{n:05d}", None, s0)]
            n += 1

    def warm_up(self):
        s0 = np.array([0.5, 0.0, 0.0, 0.0])
        self.inspect("warm-up", s0, self.run(s0))

    def run(self, s0):
        return [ode4.integrate(fam, s0, self.cfg) for fam in self.families]

    def inspect(self, label, s0, trajs):
        problems, fp = [], []
        for k, traj in zip(self.KS, trajs):
            if traj.termination != "reached_t_end":
                problems.append(f"{label} k={k}: {traj.termination} at t={traj.t_end}")
            fp += [len(traj.ts) - 1, traj._raw.n_rejected, len(traj.events)]
        return problems, fp


class TruebeamSwitching:
    """The switching modal plate solver at M = 1, 4 and 8 under a gust ramp
    that crosses the energy threshold twice."""

    name = "truebeam-switching"
    units_per_run = 1
    trace_block_s = 8.0
    recheck = 1  # the M = 1 run
    MODES = (1, 4, 8)
    GEOM = plate.PlateGeom(0.5, 0.05, 0.2)
    EBAR = 1.25
    T_END = 3.0
    RAMP = ((0.0, 0.0), (1.0, 10.0), (2.0, 0.0))

    def __init__(self, seed, workdir):
        self.seed = seed
        nl = make_nonlinearity("cubic", epsilon=1.0)
        forcing = truebeam.GustForcing(breakpoints=self.RAMP)
        self.cfgs = {M: truebeam.TrueBeamConfig(
            geom=self.GEOM, nl=nl, threshold_Ebar=self.EBAR, damping_delta=0.5,
            forcing=forcing, modes_M=M) for M in self.MODES}
        self.flips = expected_flips(self.RAMP, self.EBAR,
                                    2.0 * self.GEOM.length_L * self.GEOM.half_width_l,
                                    self.T_END)

    def _state0(self, M, u):
        a, b = np.zeros(M), np.zeros(M)
        # step counts grow with the amplitudes; a narrow band keeps the
        # per-M cost nearly seed-independent
        a[0], b[0] = 0.75 + 0.5 * u[0], 0.75 + 0.5 * u[1]
        if M > 1:
            a[1], b[1] = 0.2 * u[2] - 0.1, 0.2 * u[3] - 0.1
        return truebeam.ModalState(0.0, a, np.zeros(M), b, np.zeros(M))

    def blocks(self):
        amps = lowdisc(self.seed, 4, 4)
        n = 0
        while True:
            u = next(amps)
            yield [(f"plate-{n:05d}-m{M}", f"m{M}", (M, self._state0(M, u)))
                   for M in self.MODES]
            n += 1

    def warm_up(self):
        item = (1, self._state0(1, np.full(4, 0.5)))
        self.inspect("warm-up", item, self.run(item))

    def run(self, item):
        M, state0 = item
        return truebeam.integrate_truebeam(self.cfgs[M], state0, self.T_END)

    def inspect(self, label, item, traj):
        problems = []
        if traj.termination != "reached_t_end":
            problems.append(f"{traj.termination} at t={traj.ts[-1]}")
        got = [(ev.t_switch, ev.direction) for ev in traj.events]
        if (len(got) != len(self.flips)
                or any(abs(t - te) > 1e-6 or d != de
                       for (t, d), (te, de) in zip(got, self.flips))):
            problems.append(f"switch flips {got}, expected {self.flips}")
        if not np.all(np.isfinite(traj.ys[-1])):
            problems.append("end state is not finite")
        fp = [len(traj.ts) - 1, sum(seg.n_rejected for seg in traj._segments),
              len(traj.events)]
        return [f"{label}: {p}" for p in problems], fp


def expected_flips(ramp, ebar, profile_norm2, t_end):
    """Closed-form switch flips of a piecewise-linear gust amplitude: the
    times in (0, t_end) where amp(t)^2 * profile_norm2 crosses ebar, with the
    switch value entered (-1 above the threshold, +1 below)."""
    level = math.sqrt(ebar / profile_norm2)
    flips = []
    for (t0, v0), (t1, v1) in zip(ramp, ramp[1:]):
        for target in (level, -level):
            if (v0 - target) * (v1 - target) < 0.0:
                t = t0 + (target - v0) / (v1 - v0) * (t1 - t0)
                outward = (v1 - v0) * target > 0.0
                if 0.0 < t < t_end:
                    flips.append((t, -1 if outward else 1))
    return sorted(flips)


class SweepFanout:
    """`bridge sweep --jobs 2` over a seeded k grid of the canonical cubic."""

    name = "sweep-fanout"
    POINTS = 16
    units_per_run = POINTS
    trace_block_s = 7.5  # serial, traced serial and --jobs 2 pass of one sweep
    recheck = 1
    K_LO, K_HI = 2.5, 3.6

    def __init__(self, seed, workdir):
        self.seed = seed
        self.jobs = 2
        self.work = workdir
        os.makedirs(workdir, exist_ok=True)

    def _sweep(self, name, k0, w0):
        step = (self.K_HI - self.K_LO) / self.POINTS
        cfg_path = os.path.join(self.work, name + ".json")
        _write_json(cfg_path, {
            "name": name, "model": "ode4",
            "parameters": {
                "family": {"kind": "canonical", "k_coef": k0,
                           "nl": {"kind": "cubic", "params": {"epsilon": 1.0}}},
                "state0": [w0, 0.0, 0.0, 0.0],
                "t_end": 60.0, "rel_tol": 1e-10, "abs_tol": 1e-10}})
        spec = f"k_coef={k0!r}:{k0 + (self.POINTS - 0.5) * step!r}:{step!r}"
        return (name, None, (cfg_path, spec, os.path.join(self.work, name)))

    def blocks(self):
        grid = lowdisc(self.seed, 5, 2)
        n = 0
        while True:
            u = next(grid)
            step = (self.K_HI - self.K_LO) / self.POINTS
            yield [self._sweep(f"sweep{n:04d}", float(self.K_LO + step * u[0]),
                               float(1.1 + 0.1 * u[1]))]
            n += 1

    def warm_up(self):
        cfg_path, _, out = self._sweep("warm-up", 3.0, 1.2)[2]
        _cli(["run", cfg_path, "--out", out])
        shutil.rmtree(out, ignore_errors=True)

    def run(self, item):
        cfg_path, spec, out = item
        return _cli(["sweep", cfg_path, "--param", spec, "--jobs",
                     str(self.jobs), "--out", out])

    def inspect(self, label, item, output):
        code, _, err = output
        out = item[2]
        problems = [] if code == 0 else [f"exit {code}: {err}"]
        names = sorted(os.listdir(out)) if os.path.isdir(out) else []
        stems = {}
        for nm in names:
            stem, ext = os.path.splitext(nm)
            stems.setdefault(stem, set()).add(ext)
        # a name collision between points leaves fewer artifact sets
        if len(stems) != self.POINTS or any(
                exts != {".csv", ".json", ".svg"} for exts in stems.values()):
            problems.append(f"{len(names)} artifacts in {len(stems)} sets; "
                            f"expected 3 for each of {self.POINTS} points")
        _, fp = _read_artifacts([os.path.join(out, nm) for nm in names], problems)
        shutil.rmtree(out, ignore_errors=True)
        return [f"{label}: {p}" for p in problems], fp


WORKLOADS = {cls.name: cls for cls in
             (ScenarioRuns, ExistenceEnsemble, TruebeamSwitching, SweepFanout)}
