"""In-memory span tracer for the benchmark's traced runs.

`instrument(tracer)` wraps the public entry points of the bridgeosc modules
by attribute (nothing under src/ is edited) and returns a function that puts
the originals back. Coarse calls (an integration, a writer, a scenario) are
recorded as spans; hot calls that happen thousands of times per run (the rhs
handed to the stepper, `Nonlinearity.f`, `GustForcing.amp`) are only
aggregated into call counts and times, so the span list stays small.
"""
from __future__ import annotations

import json
import os
import time


class Tracer:
    """Spans (id, name, start, end, parent id, run id) plus per-name totals.

    A name's self time is its duration minus the time covered by its child
    calls, spans and aggregated calls alike. Calls nest strictly (one thread),
    so the covered time is the sum of the children's durations.
    """

    def __init__(self, clock=time.perf_counter):
        self.clock = clock
        self.spans = []
        self.totals = {}  # name -> [calls, total_s, self_s]
        self.counts = {}  # name -> count or summed amount
        self.run_id = None
        self._stack = []  # open calls: [span id or None, child_s]
        self._next_id = 0

    def wrap(self, name, fn, record=True):
        """fn with each call timed under name; record=False aggregates only."""
        def traced(*args, **kwargs):
            parent = next((f[0] for f in reversed(self._stack)
                           if f[0] is not None), None)
            sid = None
            if record:
                sid = self._next_id
                self._next_id += 1
            frame = [sid, 0.0]
            self._stack.append(frame)
            t0 = self.clock()
            try:
                return fn(*args, **kwargs)
            finally:
                t1 = self.clock()
                self._stack.pop()
                dur = t1 - t0
                if self._stack:
                    self._stack[-1][1] += dur
                tot = self.totals.setdefault(name, [0, 0.0, 0.0])
                tot[0] += 1
                tot[1] += dur
                tot[2] += dur - frame[1]
                if record:
                    self.spans.append((sid, name, t0, t1, parent, self.run_id))
        return traced

    def add(self, name, n):
        self.counts[name] = self.counts.get(name, 0) + n

    def calls(self, name):
        return self.totals.get(name, [0, 0.0, 0.0])[0]

    def total_s(self, name):
        return self.totals.get(name, [0, 0.0, 0.0])[1]

    def self_s(self, name):
        return self.totals.get(name, [0, 0.0, 0.0])[2]

    def write(self, path):
        """Write the spans as JSON lines (times in seconds on the tracer clock)."""
        os.makedirs(os.path.dirname(path) or ".", exist_ok=True)
        with open(path, "w") as fh:
            for sid, name, t0, t1, parent, run in self.spans:
                fh.write(json.dumps({"id": sid, "name": name, "start": t0,
                                     "end": t1, "parent": parent,
                                     "run": run}) + "\n")


def _file_bytes(path):
    try:
        return os.path.getsize(path)
    except OSError:
        return 0


def instrument(tracer):
    """Wrap the bridgeosc entry points; returns a function undoing it."""
    from bridgeosc import (_rk, cli, energy, nonlin, ode4, plate, scenarios,
                           systems, truebeam)

    undo = []

    def patch(owner, attr, new):
        undo.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, new)

    # the stepper, under each name it is imported as
    stepper = tracer.wrap("rk.integrate_adaptive", _rk.integrate_adaptive)

    def integrate_adaptive(rhs, *args, **kwargs):
        raw = stepper(tracer.wrap("rk.rhs", rhs, record=False), *args, **kwargs)
        tracer.add("rk.accepted_steps", len(raw.ts) - 1)
        tracer.add("rk.rejected_steps", raw.n_rejected)
        return raw

    for mod in (ode4, systems, truebeam):
        patch(mod, "integrate_adaptive", integrate_adaptive)

    patch(nonlin.Nonlinearity, "f",
          tracer.wrap("nonlin.f", nonlin.Nonlinearity.f, record=False))

    zero_find = tracer.wrap("ode4.zero_find", _rk.RawTrajectory.component_zeros)

    def component_zeros(*args, **kwargs):
        zs = zero_find(*args, **kwargs)
        tracer.add("ode4.zeros", len(zs))
        return zs

    patch(_rk.RawTrajectory, "component_zeros", component_zeros)
    patch(ode4, "detect_blowup",
          tracer.wrap("ode4.detect_blowup", ode4.detect_blowup))

    for attr in ("integrate_coupled", "integrate_truesystem", "integrate_miosyst"):
        patch(systems, attr, tracer.wrap("systems.integrate", getattr(systems, attr)))
    patch(systems, "to_fourth_order",
          tracer.wrap("systems.to_fourth_order", systems.to_fourth_order))

    beam = tracer.wrap("truebeam.integrate", truebeam.integrate_truebeam)

    def integrate_truebeam(cfg, *args, **kwargs):
        # attribute this call's stepper work to its mode count
        before = (tracer.counts.get("rk.accepted_steps", 0),
                  tracer.counts.get("rk.rejected_steps", 0),
                  tracer.total_s("rk.integrate_adaptive"))
        traj = beam(cfg, *args, **kwargs)
        tag = f"truebeam.m{cfg.modes_M}"
        tracer.add(tag + ".accepted_steps",
                   tracer.counts.get("rk.accepted_steps", 0) - before[0])
        tracer.add(tag + ".rejected_steps",
                   tracer.counts.get("rk.rejected_steps", 0) - before[1])
        tracer.add(tag + ".rk_s", tracer.total_s("rk.integrate_adaptive") - before[2])
        tracer.add("truebeam.switch_events", len(traj.events))
        return traj

    patch(truebeam, "integrate_truebeam", integrate_truebeam)
    patch(truebeam.GustForcing, "amp",
          tracer.wrap("truebeam.gust_amp", truebeam.GustForcing.amp, record=False))
    gust = tracer.wrap("energy.gust_energy", energy.gust_energy)
    for mod in (energy, truebeam):
        patch(mod, "gust_energy", gust)

    def writer(name, fn, path_arg):
        timed = tracer.wrap(name, fn)

        def write(*args, **kwargs):
            timed(*args, **kwargs)
            tracer.add(name + "_bytes", _file_bytes(args[path_arg]))
        return write

    for cls in (ode4.Trajectory, systems.SysTrajectory,
                systems.ScanlanSolution, truebeam.ModalTrajectory):
        patch(cls, "to_csv", writer("io.csv", cls.to_csv, 1))
    patch(plate, "write_modes_csv", writer("io.csv", plate.write_modes_csv, 0))
    patch(scenarios, "svg_line_plot", writer("io.svg", scenarios.svg_line_plot, 0))

    run = tracer.wrap("scenarios.run", cli.run_scenario)

    def run_scenario(*args, **kwargs):
        result = run(*args, **kwargs)
        tracer.add("io.json_bytes", sum(_file_bytes(p) for p in result.artifacts
                                        if p.endswith(".json")))
        return result

    patch(cli, "run_scenario", run_scenario)
    patch(cli, "main", tracer.wrap("cli.main", cli.main))

    def restore():
        for owner, attr, orig in reversed(undo):
            setattr(owner, attr, orig)
    return restore
