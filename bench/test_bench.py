"""Tests of the benchmark's own helpers: python -m pytest bench"""
import json
import os
import sys

import numpy as np
import pytest

sys.path.insert(0, os.path.join(os.path.dirname(os.path.abspath(__file__)), "..", "src"))

import run  # noqa: E402
from hostspeed import REF_MS, scaled, scaled_runs  # noqa: E402
from stats import fail_rate, percentile, tail_percentile  # noqa: E402
from tracer import Tracer  # noqa: E402
from workloads import (ScenarioRuns, SweepFanout, TruebeamSwitching,  # noqa: E402
                       expected_flips)


@pytest.mark.parametrize("n, p", [(0, 50), (5, 50), (20, 50), (25, 60),
                                  (40, 75), (100, 90), (170, 94), (1000, 99),
                                  (10 ** 6, 99)])
def test_tail_percentile_leaves_ten_runs_beyond(n, p):
    assert tail_percentile(n) == p
    if p > 50:
        assert n * (100 - p) / 100 >= 10
        if p < 99:  # the next percentile up would leave fewer than ten
            assert n * (100 - p - 1) / 100 < 10


def test_percentile_matches_numpy():
    xs = list(np.random.default_rng(7).exponential(size=37))
    for p in (0, 12.5, 50, 90, 100):
        assert percentile(xs, p) == pytest.approx(np.percentile(xs, p))


def test_run_times_scale_by_the_kernel_timed_around_them():
    # a run timed while the kernel took twice REF_MS counts half its wall time
    assert scaled(100.0, 2.0 * REF_MS) == pytest.approx(50.0)
    # run i sits between kernel timings i and i + 1; the median of those
    # and one more on each side scales it
    refs = [k * REF_MS for k in (0.5, 1.5, 3.0, 1.0, 2.0)]
    got = scaled_runs([30.0, 60.0, 90.0, 120.0], refs)
    assert got == pytest.approx([30.0 / 1.5, 60.0 / 1.25, 90.0 / 1.75, 120.0 / 2.0])


class _FakeWorkload:
    """Runs return their payload; a payload of None is a bad output."""

    def run(self, payload):
        if payload == "raise":
            raise RuntimeError("boom")
        return payload

    def inspect(self, label, payload, output):
        return ([] if output is not None else [f"{label}: bad output"]), [output]


def test_fail_rate_counts_bad_outputs_and_raising_runs():
    wl = _FakeWorkload()
    items = [("a", None, 1), ("b", None, None), ("c", None, 3),
             ("d", None, "raise")]
    runs = [run.execute(wl, it) for it in items]
    failed = sum(1 for r in runs if r.problems)
    assert failed == 2
    assert fail_rate(failed, len(runs)) == 0.5
    assert runs[3].problems == ["d: raised RuntimeError('boom')"]


def test_tampered_blowup_report_fails_its_check(tmp_path):
    wl = ScenarioRuns(1, str(tmp_path))
    src = ["--builtin", "figure12"]
    output = wl.run(src)
    report = tmp_path / "out" / "figure12.json"
    data = json.loads(report.read_text())
    assert wl.inspect("figure12", src, output)[0] == []
    output = wl.run(src)
    data["R_est"] = 9.0
    report.write_text(json.dumps(data))
    problems, _ = wl.inspect("figure12", src, output)
    assert problems and "R_est 9.0 outside" in problems[0]


def test_sweep_name_collision_fails_its_check(tmp_path):
    wl = SweepFanout(1, str(tmp_path))
    out = tmp_path / "sweep"
    out.mkdir()
    for i in range(wl.POINTS - 1):  # two points wrote to the same names
        for ext in ("csv", "json", "svg"):
            (out / f"p{i}.{ext}").write_text("")
    problems, _ = wl.inspect("sweep", (None, None, str(out)), (0, "", ""))
    assert any(f"expected 3 for each of {wl.POINTS} points" in p for p in problems)


def test_expected_flips_of_the_gust_ramp():
    flips = expected_flips(TruebeamSwitching.RAMP, 1.25, 0.05, 3.0)
    assert flips == [(pytest.approx(0.5), -1), (pytest.approx(1.5), 1)]
    # a ramp through zero crosses the level on both signs
    flips = expected_flips(((0.0, -10.0), (2.0, 10.0)), 1.0, 1.0, 3.0)
    assert [d for _, d in flips] == [1, -1]
    assert [t for t, _ in flips] == pytest.approx([0.9, 1.1])


class _Clock:
    def __init__(self):
        self.t = 0.0

    def __call__(self):
        return self.t


def test_self_time_is_duration_minus_children():
    clock = _Clock()
    tr = Tracer(clock=clock)

    def leaf(dt):
        clock.t += dt

    def child(dt_own, dt_leaf):
        clock.t += dt_own
        tr.wrap("leaf", leaf, record=False)(dt_leaf)

    def outer():
        clock.t += 1.0
        tr.wrap("child", child)(2.0, 0.5)
        clock.t += 1.0
        tr.wrap("child", child)(1.0, 0.25)
        tr.wrap("leaf", leaf, record=False)(0.125)

    tr.wrap("outer", outer)()
    assert tr.total_s("outer") == pytest.approx(5.875)
    assert tr.self_s("outer") == pytest.approx(5.875 - 3.75 - 0.125)
    assert tr.total_s("child") == pytest.approx(3.75)
    assert tr.self_s("child") == pytest.approx(3.0)
    assert tr.calls("leaf") == 3
    assert tr.self_s("leaf") == tr.total_s("leaf") == pytest.approx(0.875)
    # only recorded calls become spans, children closing first
    names = [(s[1], s[4]) for s in tr.spans]
    assert names == [("child", 0), ("child", 0), ("outer", None)]


def test_instrument_counts_stepper_work_and_restores_originals():
    from bridgeosc import _rk, nonlin, ode4
    from tracer import instrument

    originals = (ode4.integrate_adaptive, nonlin.Nonlinearity.f,
                 _rk.RawTrajectory.component_zeros)
    fam = ode4.canonical(3.0, nonlin.make_nonlinearity("cubic", epsilon=1.0))
    cfg = ode4.IntegratorConfig(t_end=20.0)
    tr = Tracer()
    restore = instrument(tr)
    try:
        traj = ode4.integrate(fam, [1.0, 0.0, 0.0, 0.0], cfg)
    finally:
        restore()
    assert (ode4.integrate_adaptive, nonlin.Nonlinearity.f,
            _rk.RawTrajectory.component_zeros) == originals
    assert tr.calls("rk.integrate_adaptive") == 1
    assert tr.counts["rk.accepted_steps"] == len(traj.ts) - 1
    assert tr.counts["rk.rejected_steps"] == traj._raw.n_rejected
    assert tr.counts["ode4.zeros"] == len(traj.events)
    # the canonical rhs calls f once per evaluation
    assert tr.calls("nonlin.f") == tr.calls("rk.rhs") > 6 * len(traj.ts)
    assert 0.0 < tr.self_s("rk.integrate_adaptive") < tr.total_s("rk.integrate_adaptive")
