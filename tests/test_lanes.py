"""DOP853 lanes: many states stepped as the rows of one (L, n) state, each
bit for bit its own run, and the step budget that bounds every run."""
import numpy as np
import pytest

import bridgeosc as bo
from bridgeosc import _rk, ode4
from bridgeosc._rk import (STEP_BUDGET, Lane, LinearBlocks, integrate_adaptive,
                           integrate_lanes)
from bridgeosc.errors import InvalidParameterError


def _assert_same_run(lane, alone):
    assert lane.termination == alone.termination
    assert lane.n_rejected == alone.n_rejected
    for name in ("ts", "ys", "_rcont"):
        a, b = getattr(lane, name), getattr(alone, name)
        assert a.shape == b.shape and a.tobytes() == b.tobytes(), name
    assert getattr(lane, "events", None) == getattr(alone, "events", None)


def _assert_lanes_equal_their_runs(runs):
    lanes = ode4.integrate_lanes(runs)
    assert len(lanes) == len(runs)
    for lane, run in zip(lanes, runs):
        _assert_same_run(lane, ode4.integrate(*run))
    return lanes


LAWS = {"linear": {}, "cubic": {"epsilon": 0.7}, "power": {"epsilon": 0.5},
        "piecewise": {}, "exponential": {"a_coef": 0.5, "b_coef": 0.8},
        "mckenna_cubic": {"sigma_f": 1.0, "c_quad": 0.3, "d_cub": 0.6}}


def _nl(kind, scale):
    """A force law of kind with each parameter moved by scale."""
    return bo.make_nonlinearity(kind, **{k: v * scale for k, v in LAWS[kind].items()})


def _states(count):
    rng = np.random.default_rng(7)
    return rng.uniform(-1.2, 1.2, size=(count, 4))


CFG = bo.IntegratorConfig(t_end=6.0, rel_tol=1e-8, abs_tol=1e-8,
                          blowup_threshold=1e5)


@pytest.mark.parametrize("law", sorted(LAWS))
@pytest.mark.parametrize("make", [
    lambda nl, j: bo.canonical(2.0 + 0.5 * j, nl),
    lambda nl, j: bo.pedestrian_wave(1.0 + 0.25 * j, 1.5, 0.1 * j, nl)],
    ids=["canonical", "pedestrian_wave"])
def test_each_lane_is_its_own_run_for_every_force_law(law, make):
    # the law's parameters differ between some lanes and agree in others
    runs = [(make(_nl(law, 1.0 + 0.5 * (j % 2)), j), s0, CFG)
            for j, s0 in enumerate(_states(4))]
    _assert_lanes_equal_their_runs(runs)


def test_each_lane_is_its_own_run_for_rocard_and_general():
    s0 = _states(6)
    _assert_lanes_equal_their_runs(
        [(bo.rocard_wave(0.2 * j, -1.0 - 0.3 * j), s, CFG) for j, s in enumerate(s0)]
        # two exponents, each stepped as its own batch
        + [(bo.general(0.1 * j, 2.0, 0.05 * j, 1.0, q), s, CFG)
           for j, s in enumerate(s0) for q in (1.5, 2.0)])


def test_lanes_with_different_settings_and_start_times():
    cubic = bo.make_nonlinearity("cubic", epsilon=1.0)
    runs = [(bo.canonical(3.0, cubic), bo.State4(0.5 * j, 1.0, 0.0, 0.0, 0.0),
             bo.IntegratorConfig(t_end=8.0 + j, rel_tol=10.0 ** (-7 - j),
                                 abs_tol=10.0 ** (-8 - j), max_step=1.0 / (j + 1),
                                 blowup_threshold=10.0 ** (3 + j)))
            for j in range(4)]
    _assert_lanes_equal_their_runs(runs)


def test_one_batch_ends_each_lane_its_own_way(monkeypatch):
    monkeypatch.setattr(_rk, "MAX_STEPS", 1500)  # above the other lanes' attempts
    cubic = bo.make_nonlinearity("cubic", epsilon=1.0)
    fig12 = bo.canonical(3.0, cubic)
    runs = [
        (fig12, [1.0, 0.0, 0.0, 0.0], bo.IntegratorConfig(t_end=20.0)),
        (fig12, [0.1, 0.0, 0.0, 0.0], bo.IntegratorConfig(t_end=3.0)),
        (fig12, [1.0, 0.0, 0.0, 0.0],
         bo.IntegratorConfig(t_end=20.0, blowup_threshold=np.inf)),
        (fig12, [0.1, 0.0, 0.0, 0.0], bo.IntegratorConfig(t_end=1e300)),
        # cubic force overflows at the start
        (fig12, [1e200, 0.0, 0.0, 0.0], bo.IntegratorConfig(t_end=1.0)),
        # tolerances far below the scale of k: underflow before progress
        (bo.canonical(1e280, cubic), [1.0, 0.0, 1.0, 0.0],
         bo.IntegratorConfig(t_end=1.0, rel_tol=1e-13, abs_tol=1e-13)),
        (fig12, [1.0, 0.0, 0.0], bo.IntegratorConfig(t_end=1.0)),  # 3 components
    ]
    lanes = ode4.integrate_lanes(runs)
    assert [getattr(r, "termination", None) for r in lanes[:4]] == [
        "blowup_detected", "reached_t_end", "step_underflow", "step_budget"]
    for lane, run in zip(lanes, runs):
        if isinstance(lane, InvalidParameterError):
            with pytest.raises(InvalidParameterError, match=str(lane)):
                ode4.integrate(*run)
        else:
            _assert_same_run(lane, ode4.integrate(*run))
    assert [str(r) for r in lanes[4:]] == [
        "rhs at the initial state must be finite",
        "step size underflow before any progress; tolerances are "
        "inconsistent with the problem scale",
        "need a State4 or 4 components"]


def test_criterion_7_ensemble_as_one_batch():
    # the 40 runs of acceptance criterion 7 as lanes; the serial k = 2 runs
    # cost ~0.1 s each, so every k = 0 run and two k = 2 runs are compared
    pw = bo.make_nonlinearity("piecewise")
    rng = np.random.default_rng(20260808)
    states = rng.uniform(-1.0, 1.0, size=(20, 4))
    states *= (rng.uniform(0.1, 10.0, size=(20, 1))
               / np.linalg.norm(states, axis=1, keepdims=True))
    cfg = bo.IntegratorConfig(t_end=500.0, rel_tol=1e-7, abs_tol=1e-7,
                              blowup_threshold=1e300)
    runs = [(bo.canonical(k, pw), s0, cfg) for k in (0.0, 2.0) for s0 in states]
    lanes = ode4.integrate_lanes(runs)
    assert all(lane.termination == "reached_t_end" for lane in lanes)
    for i in [*range(20), 27, 39]:
        _assert_same_run(lanes[i], ode4.integrate(*runs[i]))


def _oscillators(cols):
    """y'' = -k y for the lanes cols: k per column, or one lane's own k,
    which also serves a bare state."""
    k = np.array([1.0, 4.0, 9.0])[cols]
    k = k[0] if len(cols) == 1 else k
    return lambda t, y: np.array([y[1], -k * y[0]])


def test_rk_lanes_of_a_plain_rhs_and_their_dense_stages():
    # lanes that end at different times; a lane's start and dense stages
    # take its own rhs, the steps that of all lanes
    seen = []

    def rhs_of(cols):
        seen.append(list(cols))
        return _oscillators(cols)

    lanes = [Lane(0.0, [1.0, 0.0], t_end) for t_end in (2.0, 5.0, 9.0)]
    runs = integrate_lanes(rhs_of, lanes)
    for j, (run, lane) in enumerate(zip(runs, lanes)):
        alone = integrate_adaptive(_oscillators([j]), 0.0, [1.0, 0.0], lane.t_end)
        _assert_same_run(run, alone)
    assert [0, 1, 2] in seen and all([j] in seen for j in range(3))


def _counted(log):
    """rhs_of for lanes 0-2 of _oscillators and a lane 3 of y'' = y^3, which
    blows up near t = 1.85, logging each evaluation's t by lane in log; the
    cube is y * y * y, as ** 3 on a column rounds apart from a scalar's."""
    def rhs_of(cols):
        k, c = np.array([[1.0, 4.0, 9.0, 0.0], [0.0, 0.0, 0.0, 1.0]])[:, cols]
        k, c = (k[0], c[0]) if len(cols) == 1 else (k, c)

        def rhs(t, y):
            columns = np.shape(y)[1:] or (1,)
            for j, tj in zip(np.broadcast_to(cols, columns).tolist(),
                             np.broadcast_to(t, columns).tolist()):
                log.setdefault(j, []).append(tj)
            return np.array([y[1], -k * y[0] + c * (y[0] * y[0] * y[0])])
        return rhs
    return rhs_of


def test_no_lane_is_stepped_after_it_ends():
    # each lane's rhs evaluations while stepping are those of its own run,
    # at the same times: none once it has ended
    lanes = [Lane(0.0, [1.0, 0.0], t_end) for t_end in (2.0, 5.0, 9.0)]
    lanes.append(Lane(0.0, [1.0, 0.0], 9.0, stop_threshold=1e3))
    batch = {}
    runs = integrate_lanes(_counted(batch), lanes, (0,))
    assert [run.termination for run in runs] == [
        "reached_t_end", "reached_t_end", "reached_t_end", "blowup_detected"]
    for j, lane in enumerate(lanes):
        alone = {}
        integrate_adaptive(_counted(alone)([j]), *lane[:3],
                           stop_indices=(0,), stop_threshold=lane.stop_threshold)
        assert len(batch[j]) == len(alone[j]), j
        assert batch[j] == alone[j], j


def test_a_batch_that_shrinks_to_one_lane():
    # figure12-like lanes blow up by t = 8 beside one lane to t = 60; the
    # long lane then steps alone, as a bare state
    fig12 = bo.canonical(3.0, bo.make_nonlinearity("cubic", epsilon=1.0))
    runs = [(fig12, [0.9 + 0.1 * j, 0.0, 0.0, 0.0],
             bo.IntegratorConfig(t_end=20.0, rel_tol=1e-9, abs_tol=1e-9))
            for j in range(3)]
    runs.append((fig12, [0.1, 0.0, 0.0, 0.0],
                 bo.IntegratorConfig(t_end=60.0, rel_tol=1e-9, abs_tol=1e-9)))
    lanes = _assert_lanes_equal_their_runs(runs)
    assert [lane.termination for lane in lanes] == ["blowup_detected"] * 3 + [
        "reached_t_end"]
    assert all(lane.events for lane in lanes)


def test_a_group_merges_its_families_once(monkeypatch):
    # lanes of two groups end one by one: each step-method rebuild narrows
    # the group's one merged record to the lanes left, bit for bit, also
    # once the lanes left share their force law (j >= 3) and k (j >= 4)
    merges, merged = [], ode4._merged

    def counted(records):
        if isinstance(records[0], ode4.OdeFamily):
            merges.append(len(records))
        return merged(records)

    runs = [(bo.canonical(2.0 + 0.25 * (j < 4), _nl("cubic", 1.0 + (j < 3))),
             [0.5 + 0.1 * j, 0.0, 0.0, 0.0], bo.IntegratorConfig(t_end=1.0 + j))
            for j in range(6)]
    runs += [(bo.general(0.1, 2.0, 0.05 * j, 1.0, 1.5), [0.3, 0.0, 0.0, 0.0],
              bo.IntegratorConfig(t_end=2.0 + j)) for j in range(3)]
    monkeypatch.setattr(ode4, "_merged", counted)
    lanes = ode4.integrate_lanes(runs)
    assert merges == [6, 3]
    monkeypatch.undo()
    for lane, run in zip(lanes, runs):
        _assert_same_run(lane, ode4.integrate(*run))


def test_step_budget_ends_a_run_that_would_not_end(monkeypatch):
    monkeypatch.setattr(_rk, "MAX_STEPS", 300)
    linear = bo.make_nonlinearity("linear")
    cfg = bo.IntegratorConfig(t_end=1e300)
    traj = bo.integrate(bo.canonical(2.0, linear), [0.1, 0.0, 0.0, 0.0], cfg)
    assert traj.termination == STEP_BUDGET
    assert len(traj.ts) - 1 + traj.n_rejected == 300
    assert not bo.detect_blowup(traj).blew_up


def test_step_budget_counts_rejected_attempts_and_bounds_the_exponential_path(
        monkeypatch):
    monkeypatch.setattr(_rk, "MAX_STEPS", 200)
    def decay(t, y):  # y' = -y; a long step overshoots below 0, where it is NaN
        return -y if y[0] >= 0.0 else y * np.nan

    raw = integrate_adaptive(decay, 0.0, [1.0], 1e6, rtol=1e-6, atol=1e-6)
    assert raw.termination == STEP_BUDGET and raw.n_rejected > 10
    assert len(raw.ts) - 1 + raw.n_rejected == 200
    monkeypatch.setattr(_rk, "MAX_STEPS", 25)
    exp = integrate_adaptive(lambda t, y: np.array([0.0, -0.5 * y[0] ** 3]),
                             0.0, [1.0, 0.0], 1e6, linear=LinearBlocks([[1.0]], [[0.0]]))
    assert exp.termination == STEP_BUDGET
    assert (len(exp.ts) - 1) // 2 + exp.n_rejected == 25  # two pieces a step


def test_terminations_name_the_budget():
    assert STEP_BUDGET == "step_budget" and STEP_BUDGET in ode4.TERMINATIONS
