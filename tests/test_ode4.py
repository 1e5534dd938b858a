import math
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import bridgeosc as bo
from bridgeosc import ode4, systems
from bridgeosc.errors import (EmptyTrajectoryError, InvalidParameterError,
                              UnsupportedFamilyError)


def test_family_rhs_algebra():
    nl = bo.make_nonlinearity("cubic", epsilon=1.0)
    y = np.array([0.5, -1.0, 2.0, 3.0])
    can = bo.canonical(3.0, nl).rhs()(0.0, y)
    assert np.allclose(can, [-1.0, 2.0, 3.0, -3.0 * 2.0 - nl.f(0.5)])
    roc = bo.rocard_wave(2.0, -1.0).rhs()(0.0, y)
    assert np.allclose(roc, [-1.0, 2.0, 3.0, (2.0 * 0.5 - 1.0) * 2.0 - 0.5])
    ped = bo.pedestrian_wave(2.0, 3.0, 0.5, nl).rhs()(0.0, y)
    assert np.allclose(ped, [-1.0, 2.0, 3.0,
                             (-9.0 * 2.0 - 0.5 * 3.0 * -1.0 - nl.f(0.5)) / 2.0])
    gen = bo.general(1.0, 2.0, 3.0, 4.0, 2.0).rhs()(0.0, y)
    assert np.allclose(gen, [-1.0, 2.0, 3.0,
                             -3.0 - 4.0 - (-3.0) - 2.0 - 0.25 * 0.5])


class _Handed(Exception):
    """Carries the rhs a systems integrator hands its stepper."""


def _handed_rhs(integrate, *args):
    """The rhs that integrate(*args) hands its stepper, which is not run."""
    def hand(rhs, *rest, **kwargs):
        raise _Handed(rhs)
    with mock.patch.object(systems, "integrate_adaptive", hand):
        with pytest.raises(_Handed) as handed:
            integrate(*args)
    return handed.value.args[0]


_S0, _CFG = [0.1, 0.0, 0.2, 0.0], bo.IntegratorConfig(t_end=1.0)
# name -> the rhs under a force law (miosyst reads only the cubic laws)
_RHS = {
    "canonical": lambda nl: bo.canonical(2.0, nl).rhs(),
    "rocard_wave": lambda nl: bo.rocard_wave(0.3, -1.2).rhs(),
    "pedestrian_wave": lambda nl: bo.pedestrian_wave(1.5, 0.8, 0.2, nl).rhs(),
    "general": lambda nl: bo.general(0.1, 2.0, 0.3, 1.0, 1.5).rhs(),
    "coupled": lambda nl: _handed_rhs(systems.integrate_coupled,
                                      systems.McKennaParams(1.3, 0.7), nl, _S0, _CFG),
    "truesystem": lambda nl: _handed_rhs(systems.integrate_truesystem, 1.7, nl,
                                         _S0, _CFG),
    "miosyst": lambda nl: _handed_rhs(systems.integrate_miosyst,
                                      systems.MiosystParams(-1.0, 1.0), nl, _S0, _CFG)}
_LAWS = {"linear": {}, "cubic": {"epsilon": 0.7}, "power": {"epsilon": 0.5, "p_exp": 2.5},
         "piecewise": {}, "exponential": {"a_coef": 0.5, "b_coef": 0.8},
         "mckenna_cubic": {"sigma_f": 1.0, "c_quad": 0.3, "d_cub": 0.6}}
_ENTRY = st.one_of(st.floats(-1e3, 1e3),
                   st.sampled_from([math.inf, -math.inf, math.nan, 1e200, -1e200]))


@pytest.mark.parametrize("name", sorted(_RHS))
@settings(max_examples=60, deadline=None)
@given(law=st.sampled_from(sorted(_LAWS)), y=st.lists(_ENTRY, min_size=4, max_size=4),
       t=st.floats(-10.0, 10.0))
def test_bare_state_rhs_equals_its_column_bit_for_bit(name, law, y, t):
    # a bare state is read as Python floats, a column as (1,) arrays; a lone
    # lane's rhs also sees the non-finite stage inputs of rejected attempts,
    # and returns there without raising
    if name == "miosyst" and law not in ("cubic", "mckenna_cubic"):
        law = "cubic"
    rhs = _RHS[name](bo.make_nonlinearity(law, **_LAWS[law]))
    y = np.array(y)
    with np.errstate(all="ignore"):  # as while stepping
        bare, column = (np.asarray(rhs(t, y)),
                        np.asarray(rhs(np.array([t]), y[:, None])))
    assert bare.shape == (4,) and column.shape == (4, 1)
    # NaN's sign bit can differ between float and array arithmetic (the
    # coupled rhs at theta = inf, y = NaN); any NaN rejects an attempt alike
    nan = np.isnan(bare)
    assert np.array_equal(nan, np.isnan(column[:, 0]))
    assert bare[~nan].tobytes() == column[~nan, 0].tobytes()


@pytest.mark.parametrize("law", sorted(_LAWS))
@pytest.mark.parametrize("name", sorted(_RHS))
def test_each_package_rhs_returns_its_components_as_a_list(name, law):
    # the stepper writes the list straight into its stage rows
    if name == "miosyst" and law not in ("cubic", "mckenna_cubic"):
        law = "cubic"
    rhs = _RHS[name](bo.make_nonlinearity(law, **_LAWS[law]))
    bare = rhs(0.3, np.array([0.4, -0.2, 0.7, 1.1]))
    assert type(bare) is list and len(bare) == 4
    assert all(isinstance(v, float) for v in bare)
    columns = rhs(np.array([0.3, 0.5, 0.9]), np.linspace(-1.0, 1.0, 12).reshape(4, 3))
    assert type(columns) is list and len(columns) == 4
    assert all(isinstance(v, np.ndarray) and v.shape == (3,) for v in columns)



@pytest.mark.parametrize("law", sorted(_LAWS))
@pytest.mark.parametrize("name", sorted(_RHS))
def test_each_package_rhs_takes_and_returns_floats(name, law):
    # the one-state attempt calls it on a list of floats; a numpy scalar in
    # its answer would carry numpy arithmetic into every later stage
    if name == "miosyst" and law not in ("cubic", "mckenna_cubic"):
        law = "cubic"
    rhs = _RHS[name](bo.make_nonlinearity(law, **_LAWS[law]))
    state = [0.4, -0.2, 0.7, 1.1]
    floats = rhs(0.3, state)
    assert [type(v) for v in floats] == [float] * 4
    assert np.array(floats).tobytes() == np.array(rhs(0.3, np.array(state))).tobytes()

def _as_array_rhs(rhs):
    return lambda t, y: np.array(rhs(t, y))


def _assert_bitwise_equal_runs(a, b):
    assert a.termination == b.termination and a.n_rejected == b.n_rejected
    for name in ("ts", "ys", "_rcont"):
        x, y = getattr(a, name), getattr(b, name)
        assert x.shape == y.shape and x.tobytes() == y.tobytes(), name
    assert a.events == b.events


def test_list_rhs_runs_equal_array_rhs_runs_bit_for_bit():
    # the same runs with each rhs returning np.array(list): a lone run, a
    # 3-lane batch (dense stages as columns) and a systems run
    family_rhs = bo.OdeFamily.rhs
    cubic = bo.make_nonlinearity("cubic", epsilon=1.0)
    lone = (bo.canonical(3.0, cubic), [1.0, 0.0, 0.0, 0.0],
            bo.IntegratorConfig(t_end=20.0))
    piecewise = bo.make_nonlinearity("piecewise")
    lanes = [(bo.canonical(k, piecewise), [w0, 0.0, 0.0, 0.0],
              bo.IntegratorConfig(t_end=40.0, rel_tol=1e-7, abs_tol=1e-7))
             for k, w0 in ((0.0, 1.5), (2.0, 0.8), (2.0, -1.2))]
    params = systems.MiosystParams(-1.0, 1.0)
    mckenna = bo.make_nonlinearity("mckenna_cubic", sigma_f=1.0, c_quad=0.5,
                                   d_cub=1.0)

    def runs():
        mio = systems.integrate_miosyst(params, mckenna, [1.0, 1.0, 0.0, -1.0],
                                        bo.IntegratorConfig(t_end=20.0))
        mio.events = systems.to_fourth_order(params, mckenna, mio).events
        return [bo.integrate(*lone), *ode4.integrate_lanes(lanes), mio]

    with_lists = runs()
    sys_integrate = systems.integrate_adaptive
    with mock.patch.object(bo.OdeFamily, "rhs",
                           lambda self: _as_array_rhs(family_rhs(self))), \
            mock.patch.object(systems, "integrate_adaptive",
                              lambda rhs, *a, **kw: sys_integrate(
                                  _as_array_rhs(rhs), *a, **kw)):
        with_arrays = runs()
    assert with_lists[0].termination == "blowup_detected"
    assert with_lists[-1].termination == "blowup_detected"
    assert sum(run.n_rejected for run in with_lists) > 0
    for a, b in zip(with_lists, with_arrays):
        _assert_bitwise_equal_runs(a, b)


def test_family_validation():
    with pytest.raises(InvalidParameterError):
        bo.OdeFamily(kind="canonical", k_coef=1.0)  # needs nl
    with pytest.raises(InvalidParameterError):
        bo.OdeFamily(kind="warp")
    with pytest.raises(InvalidParameterError):
        bo.pedestrian_wave(0.0, 1.0, 0.1, bo.make_nonlinearity("linear"))


def test_integrator_config_validation():
    with pytest.raises(InvalidParameterError):
        bo.IntegratorConfig(t_end=1.0, rel_tol=0.0)
    with pytest.raises(InvalidParameterError):
        bo.IntegratorConfig(t_end=1.0, blowup_threshold=1.0)
    with pytest.raises(InvalidParameterError):
        bo.IntegratorConfig(t_end=1.0, max_step=0.0)
    with pytest.raises(InvalidParameterError):
        bo.State4(0.0, np.inf, 0.0, 0.0, 0.0)


@pytest.mark.parametrize("key", ["rel_tol", "abs_tol"])
@pytest.mark.parametrize("value", [math.inf, math.nan, 0.0, -1e-8])
def test_integrator_config_tolerances_must_be_finite_and_positive(key, value):
    with pytest.raises(InvalidParameterError,
                       match="tolerances must be finite and positive"):
        bo.IntegratorConfig(t_end=1.0, **{key: value})


def test_zero_state_is_equilibrium():
    nl = bo.make_nonlinearity("cubic", epsilon=1.0)
    cfg = bo.IntegratorConfig(t_end=5.0, rel_tol=1e-9, abs_tol=1e-9)
    traj = bo.integrate(bo.canonical(3.0, nl), [0.0, 0.0, 0.0, 0.0], cfg)
    assert traj.termination == "reached_t_end"
    assert np.max(np.abs(traj.states)) == 0.0
    assert traj.events == []
    rep = bo.detect_blowup(traj)
    assert not rep.blew_up and rep.R_est is None and rep.zeros == []


def test_linear_family_bounded_quasi_periodic():
    # mu^4 + 3 mu^2 + 1 = 0 has purely imaginary roots; the run must follow
    # w(t) = A cos(w1 t) + B cos(w2 t) and stay bounded to t = 1000
    nl = bo.make_nonlinearity("linear")
    cfg = bo.IntegratorConfig(t_end=1000.0, rel_tol=1e-9, abs_tol=1e-9)
    traj = bo.integrate(bo.canonical(3.0, nl), [1.0, 0.0, 0.0, 0.0], cfg)
    assert traj.termination == "reached_t_end"
    s5 = math.sqrt(5.0)
    w1 = math.sqrt((3.0 - s5) / 2.0)
    w2 = math.sqrt((3.0 + s5) / 2.0)
    A = (3.0 + s5) / (2.0 * s5)
    B = -(3.0 - s5) / (2.0 * s5)
    exact = A * np.cos(w1 * traj.ts) + B * np.cos(w2 * traj.ts)
    assert np.max(np.abs(traj.states[:, 0] - exact)) < 1e-4
    assert np.max(np.abs(traj.states[:, 0])) <= abs(A) + abs(B) + 1e-6


def test_fig12_blowup(fig12):
    _family, _cfg, traj, report = fig12
    assert traj.termination == "blowup_detected"
    assert report.blew_up
    assert report.R_est == pytest.approx(8.164, abs=0.1)
    assert report.zeros == sorted(report.zeros)
    # sign-interval ratio decay: each of the last three rho1 below each of
    # the first three
    r1 = [r[0] for r in report.ratios]
    assert len(r1) >= 6
    assert max(r1[-3:]) < min(r1[:3])


def test_fig13_dormant_then_blowup(fig13):
    _family, _cfg, traj, report = fig13
    assert report.blew_up
    assert 95.0 <= report.R_est <= 98.0
    assert sum(1 for z in report.zeros if z <= 80.0) >= 20


def test_oscillatory_blowup_structure_fig13(fig13):
    _family, cfg, traj, _rep = fig13
    half = cfg.blowup_threshold / 2.0
    win = traj.ts >= 0.95 * traj.t_end
    w = traj.states[win, 0]
    assert w.max() > half and w.min() < -half


@pytest.mark.xfail(strict=True, reason=(
    "the positive peak preceding the final negative spike is ~3.6e5 < "
    "threshold/2; consecutive blow-up peaks grow by ~(gap ratio)^-2 per "
    "sign interval, so the opposite-side extremum inside the final 5% "
    "window depends on the overshoot phase and can sit below threshold/2"))
def test_oscillatory_blowup_structure_fig12(fig12):
    _family, cfg, traj, _rep = fig12
    half = cfg.blowup_threshold / 2.0
    win = traj.ts >= 0.95 * traj.t_end
    w = traj.states[win, 0]
    assert w.max() > half and w.min() < -half


def test_hamiltonian_values():
    nl = bo.make_nonlinearity("cubic", epsilon=1.0)
    fam = bo.canonical(3.0, nl)
    assert bo.hamiltonian(fam, [0.0, 0.0, 0.0, 0.0]) == 0.0
    assert bo.hamiltonian(fam, [1.0, 0.0, 0.0, 0.0]) == pytest.approx(0.75)


def test_hamiltonian_unsupported_families():
    nl = bo.make_nonlinearity("cubic", epsilon=1.0)
    with pytest.raises(UnsupportedFamilyError):
        bo.hamiltonian(bo.pedestrian_wave(1.0, 1.0, 0.5, nl), [1, 0, 0, 0])
    with pytest.raises(UnsupportedFamilyError):
        bo.hamiltonian(bo.general(1.0, 2.0, 0.5, 1.0, 2.0), [1, 0, 0, 0])
    with pytest.raises(UnsupportedFamilyError):
        bo.hamiltonian(bo.rocard_wave(1.0, 1.0), [1, 0, 0, 0])


def test_hamiltonian_general_conservative():
    # a = b = 0 leaves the first integral intact on the pre-blow-up window
    fam = bo.general(0.0, 2.0, 0.0, 1.0, 2.0)
    cfg = bo.IntegratorConfig(t_end=5.0)
    traj = bo.integrate(fam, [0.5, 0.0, 0.0, 0.0], cfg)
    assert traj.termination == "reached_t_end"
    H = [bo.hamiltonian(fam, s) for s in traj.states]
    assert np.max(np.abs(np.array(H) - H[0])) < 1e-8


# conservative families from (k, p, q): p is epsilon, a_coef or c, q is
# b_coef or the general family's exponent
CONSERVATIVE = {
    "cubic": lambda k, p, q: bo.canonical(
        k, bo.make_nonlinearity("cubic", epsilon=p)),
    "piecewise": lambda k, p, q: bo.canonical(k, bo.make_nonlinearity("piecewise")),
    "exponential": lambda k, p, q: bo.canonical(
        k, bo.make_nonlinearity("exponential", a_coef=p, b_coef=q)),
    "general": lambda k, p, q: bo.general(0.0, k, 0.0, p, q),
}


@pytest.mark.parametrize("kind", sorted(CONSERVATIVE))
@settings(max_examples=20, deadline=None)
@given(k=st.floats(-3.0, 3.0), p=st.floats(0.1, 3.0), q=st.floats(0.5, 3.0),
       state0=st.lists(st.floats(-1.0, 1.0), min_size=4, max_size=4))
def test_hamiltonian_is_conserved_over_random_settings(kind, k, p, q, state0):
    family = CONSERVATIVE[kind](k, p, q)
    cfg = bo.IntegratorConfig(t_end=10.0, rel_tol=1e-10, abs_tol=1e-10)
    traj = bo.integrate(family, state0, cfg)
    _abs_drift, rel_drift = bo.hamiltonian_drift(family, traj, w_cap=1e3)
    assert rel_drift <= 1e-6


def test_general_family_superlinear_blowup():
    fam = bo.general(0.0, 2.0, 0.0, 1.0, 2.0)
    cfg = bo.IntegratorConfig(t_end=20.0)
    traj = bo.integrate(fam, [0.5, 0.0, 0.0, 0.0], cfg)
    rep = bo.detect_blowup(traj)
    assert rep.blew_up


def test_hamiltonian_drift_fig12(fig12):
    family, _cfg, traj, _rep = fig12
    # |H| terms reach ~1e12 inside the |w| <= 1e3 window; conservation is
    # asserted relative to that term scale, the best float64 can resolve
    _abs_drift, rel_drift = bo.hamiltonian_drift(family, traj, w_cap=1e3)
    assert rel_drift <= 1e-6
    # on the mild early window the plain drift is resolvable and tiny
    abs_early, _ = bo.hamiltonian_drift(family, traj, w_cap=10.0)
    H0 = bo.hamiltonian(family, traj.states[0])
    assert abs_early <= 1e-6 * (1.0 + abs(H0))


def test_check_tech_examples():
    assert not bo.check_tech(5.0, [1.0, 0.0, 0.0, 0.0])
    assert bo.check_tech(5.0, [0.0, 1.0, 1.0, 0.0])
    assert bo.check_tech(-1.0, [1.0, 1.0, 0.0, 0.0])


def test_state_readers_refuse_other_records_and_shapes():
    fam = bo.canonical(3.0, bo.make_nonlinearity("cubic", epsilon=1.0))
    sys_state = bo.SysState(0.0, 1.0, 0.0, 2.0, 0.0)  # (x, xd, y, yd)
    for bad in (sys_state, [1.0, 0.0, 0.0], np.zeros((2, 4))):
        with pytest.raises(InvalidParameterError):
            bo.hamiltonian(fam, bad)
        with pytest.raises(InvalidParameterError):
            bo.check_tech(5.0, bad)
    state = bo.State4(0.0, 1.0, 0.0, 0.0, 0.0)
    assert bo.hamiltonian(fam, state) == bo.hamiltonian(fam, [1.0, 0.0, 0.0, 0.0])


def test_detect_blowup_requires_samples():
    nl = bo.make_nonlinearity("linear")
    cfg = bo.IntegratorConfig(t_end=1.0)
    traj = bo.integrate(bo.canonical(0.0, nl), [1.0, 0, 0, 0], cfg)
    traj._raw.ts = traj._raw.ts[:1]
    with pytest.raises(EmptyTrajectoryError):
        bo.detect_blowup(traj)


def test_r_est_insensitive_to_tolerance(fig12, cubic1):
    _family, _cfg, _traj, report = fig12
    cfg2 = bo.IntegratorConfig(t_end=20.0, rel_tol=5e-11, abs_tol=5e-11)
    traj2 = bo.integrate(bo.canonical(3.0, cubic1), [1, 0, 0, 0], cfg2)
    rep2 = bo.detect_blowup(traj2)
    assert abs(rep2.R_est - report.R_est) < 1e-3


def test_global_existence_threshold_semantics():
    # with a near-inf threshold a genuine blow-up still terminates, via
    # step underflow at the singular time, and is classified as blow-up
    nl = bo.make_nonlinearity("cubic", epsilon=1.0)
    cfg = bo.IntegratorConfig(t_end=20.0, blowup_threshold=1e300)
    traj = bo.integrate(bo.canonical(3.0, nl), [1, 0, 0, 0], cfg)
    assert traj.termination == "step_underflow"
    rep = bo.detect_blowup(traj)
    assert rep.blew_up
    assert rep.R_est == pytest.approx(8.164, abs=0.01)


def test_pedestrian_wave_damping_delays_blowup():
    # with the cubic force the damped traveling wave still blows up, only
    # later than the undamped one (damping competes but does not win)
    nl = bo.make_nonlinearity("cubic", epsilon=1.0)
    cfg = bo.IntegratorConfig(t_end=60.0, rel_tol=1e-9, abs_tol=1e-9)
    undamped = bo.integrate(bo.pedestrian_wave(1.0, 1.0, 0.0, nl),
                            [0.5, 0.0, 0.0, 0.0], cfg)
    damped = bo.integrate(bo.pedestrian_wave(1.0, 1.0, 0.5, nl),
                          [0.5, 0.0, 0.0, 0.0], cfg)
    r0 = bo.detect_blowup(undamped)
    r1 = bo.detect_blowup(damped)
    assert r0.blew_up and r1.blew_up
    assert r1.R_est > r0.R_est


def test_pedestrian_wave_linear_growth_matches_roots():
    # odd-derivative damping does not stabilize the fourth-order equation:
    # mu^4 + mu^2 + 0.5 mu + 1 has a root pair with real part ~ +0.514, so
    # the linear solution grows exponentially (but never in finite time)
    nl = bo.make_nonlinearity("linear")
    fam = bo.pedestrian_wave(1.0, 1.0, 0.5, nl)
    cfg = bo.IntegratorConfig(t_end=30.0, rel_tol=1e-9, abs_tol=1e-9)
    traj = bo.integrate(fam, [0.5, 0.0, 0.0, 0.0], cfg)
    assert traj.termination == "reached_t_end"
    rate = np.roots([1.0, 0.0, 1.0, 0.5, 1.0]).real.max()
    grew = np.abs(traj.states[-1]).max()
    assert np.log(grew / 0.5) == pytest.approx(rate * 30.0, rel=0.1)


def test_blowup_time_monotone_in_k_and_height(cubic1):
    # stiffer k delays the blow-up; taller initial displacement hastens it
    def r_est(k, w0):
        cfg = bo.IntegratorConfig(t_end=60.0, rel_tol=1e-9, abs_tol=1e-9)
        traj = bo.integrate(bo.canonical(k, cubic1), [w0, 0.0, 0.0, 0.0], cfg)
        rep = bo.detect_blowup(traj)
        assert rep.blew_up
        return rep.R_est

    rs = [r_est(k, 1.0) for k in (2.0, 2.5, 3.0, 3.2)]
    assert rs == sorted(rs)
    assert r_est(3.0, 2.0) < r_est(3.0, 1.5) < r_est(3.0, 1.0)


def test_rocard_wave_integrates():
    fam = bo.rocard_wave(1.0, 0.5)
    cfg = bo.IntegratorConfig(t_end=10.0, rel_tol=1e-9, abs_tol=1e-9)
    traj = bo.integrate(fam, [0.1, 0.0, 0.0, 0.0], cfg)
    assert traj.termination in ode4_terminations()
    assert np.all(np.isfinite(traj.states))


def ode4_terminations():
    from bridgeosc.ode4 import TERMINATIONS
    return TERMINATIONS


def test_integrate_from_state4_with_offset_time(cubic1):
    s0 = bo.State4(t=1.0, w=0.5, w1=0.0, w2=0.0, w3=0.0)
    cfg = bo.IntegratorConfig(t_end=2.0, rel_tol=1e-9, abs_tol=1e-9)
    traj = bo.integrate(bo.canonical(3.0, cubic1), s0, cfg)
    assert traj.ts[0] == 1.0
    assert traj.samples[0].w == 0.5
    assert bo.hamiltonian(bo.canonical(3.0, cubic1), traj.samples[0]) == \
        pytest.approx(cubic1.F(0.5))


def test_event_bracketing(fig12):
    _family, _cfg, traj, _rep = fig12
    for z in traj.events:
        i = np.searchsorted(traj.ts, z)
        assert 0 < i < len(traj.ts)
        assert traj.states[i - 1, 0] * traj.states[i, 0] <= 0.0


def test_trajectory_csv_round_trip(tmp_path, fig12):
    _family, _cfg, traj, _rep = fig12
    path = tmp_path / "w.csv"
    traj.to_csv(path)
    lines = path.read_text().splitlines()
    assert lines[0] == "t,w,w1,w2,w3"
    row = np.array([float(v) for v in lines[-1].split(",")])
    assert row[0] == traj.ts[-1]
    assert np.allclose(row[1:], traj.states[-1])


def test_blowup_report_json(fig12):
    import json
    _f, _c, _t, report = fig12
    payload = json.loads(report.to_json())
    assert payload["blew_up"] is True
    assert payload["R_est"] == report.R_est
    assert len(payload["ratios"][0]) == 2


def test_interval_ratios_match_the_closed_form():
    # mu^4 + 2.5 mu^2 + 1 = 0: w = A cos(w1 t) + B cos(w2 t) with w1^2 = 1/2,
    # w2^2 = 2, and from (1, 0, 0, 0) A = 4/3, B = -1/3
    integrate = pytest.importorskip("scipy.integrate")
    optimize = pytest.importorskip("scipy.optimize")
    A, B, w1, w2 = 4.0 / 3.0, -1.0 / 3.0, math.sqrt(0.5), math.sqrt(2.0)
    derivs = [lambda t, p=p: A * w1**p * math.cos(w1 * t + p * math.pi / 2.0)
              + B * w2**p * math.cos(w2 * t + p * math.pi / 2.0)
              for p in range(3)]
    cfg = bo.IntegratorConfig(t_end=40.0, rel_tol=1e-12, abs_tol=1e-12)
    traj = bo.integrate(bo.canonical(2.5, bo.make_nonlinearity("linear")),
                        [1.0, 0.0, 0.0, 0.0], cfg)
    report = bo.detect_blowup(traj)
    zeros = [optimize.brentq(derivs[0], z - 1e-3, z + 1e-3, xtol=1e-15)
             for z in report.zeros[:7]]
    for z0, z1, got in zip(zeros, zeros[1:], report.ratios):
        i_w, i_w1, i_w2 = (integrate.quad(lambda t, d=d: d(t) ** 2, z0, z1,
                                          epsabs=0.0, epsrel=1e-13)[0]
                           for d in derivs)
        assert got == pytest.approx((i_w / i_w2, i_w1 / i_w2), rel=1e-10, abs=0.0)


def test_interval_ratios_are_exact_on_the_interpolant(fig12):
    integrate = pytest.importorskip("scipy.integrate")
    _f, _c, traj, report = fig12
    zs = report.zeros
    for z0, z1, got in zip(zs, zs[1:], report.ratios):
        inner = traj.ts[(traj.ts > z0) & (traj.ts < z1)]
        i_w, i_w1, i_w2 = (integrate.quad(
            lambda t, j=j: traj.eval(t)[j] ** 2, z0, z1, points=inner,
            limit=4 * len(inner) + 50, epsabs=0.0, epsrel=1e-13)[0]
            for j in range(3))
        assert got == pytest.approx((i_w / i_w2, i_w1 / i_w2), rel=1e-12, abs=0.0)


def test_literal_gauss_rule_equals_leggauss_to_the_bit():
    from bridgeosc._quad import GAUSS_8_UNIT, gauss_nodes_1d
    for literal, computed in zip(GAUSS_8_UNIT, gauss_nodes_1d(0.0, 1.0, 8)):
        assert literal.dtype == computed.dtype and literal.shape == (8,)
        assert literal.tobytes() == computed.tobytes()


@pytest.mark.parametrize("n", [1, 3, 8, 12, 37])
def test_gauss_rules_are_computed_once_read_only_with_leggauss_bits(n, monkeypatch):
    from bridgeosc import _quad
    leggauss = np.polynomial.legendre.leggauss
    calls = []

    def counted(deg):
        calls.append(deg)
        return leggauss(deg)

    monkeypatch.setattr(_quad, "_UNIT_RULES", {})
    monkeypatch.setattr(np.polynomial.legendre, "leggauss", counted)
    x, w = leggauss(n)
    for a, b in ((0.0, 1.0), (-0.3, 2.5), (0.0, 1.0)):
        got = _quad.gauss_nodes_1d(a, b, n)
        half = 0.5 * (b - a)
        for have, want in zip(got, (a + half * (x + 1.0), half * w)):
            assert have.tobytes() == want.tobytes()
        got[0][:] = got[1][:] = 7.0  # the caller's copies, not the cache
    assert calls == [n]
    for unit, want in zip(_quad._UNIT_RULES[n], (x, w)):
        assert unit.tobytes() == want.tobytes()
        with pytest.raises(ValueError, match="read-only"):
            unit[0] = 7.0


def test_detect_blowup_memory_on_a_fresh_figure13_run(cubic1):
    import tracemalloc
    traj = bo.integrate(bo.canonical(3.6, cubic1), [0.9, 0.0, 0.0, 0.0],
                        bo.IntegratorConfig(t_end=120.0))
    tracemalloc.start()
    try:
        report = bo.detect_blowup(traj)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert len(report.ratios) == 32
    assert peak <= 750 * 1024, peak


@pytest.mark.parametrize("field, value", [
    ("t_end", math.nan), ("t_end", math.inf), ("t_end", -math.inf),
    ("rel_tol", math.nan), ("abs_tol", math.nan), ("max_step", math.nan),
    ("blowup_threshold", math.nan)])
def test_integrator_config_rejects_non_finite_inputs(field, value):
    with pytest.raises(InvalidParameterError):
        bo.IntegratorConfig(**{"t_end": 1.0, field: value})


def test_integrator_config_keeps_unbounded_step_and_threshold():
    cfg = bo.IntegratorConfig(t_end=1.0, max_step=math.inf,
                              blowup_threshold=math.inf)
    assert cfg.max_step == math.inf and cfg.blowup_threshold == math.inf


# the fields each family's rhs reads; any other field must keep its default
FAMILY_READS = {
    "canonical": {"nl", "k_coef"},
    "rocard_wave": {"alpha_r", "beta_r"},
    "pedestrian_wave": {"nl", "gamma_p", "c_speed", "delta_damp"},
    "general": {"a3", "k2", "b1", "c0", "q_exp"},
}
FAMILY_FIELDS = ("nl", "k_coef", "alpha_r", "beta_r", "gamma_p", "c_speed",
                 "delta_damp", "a3", "b1", "c0", "k2", "q_exp")


def test_family_fields_are_the_read_ones():
    import dataclasses
    assert tuple(f.name for f in dataclasses.fields(bo.OdeFamily))[1:] == \
        FAMILY_FIELDS
    assert sum(map(len, FAMILY_READS.values())) == 13


@pytest.mark.parametrize("kind, field", [
    (kind, f) for kind, read in FAMILY_READS.items()
    for f in FAMILY_FIELDS if f not in read])
def test_unread_family_field_is_rejected(kind, field):
    nl = bo.make_nonlinearity("linear")
    given = {"nl": nl} if "nl" in FAMILY_READS[kind] else {}
    bo.OdeFamily(kind=kind, **given)  # the read fields alone are accepted
    given[field] = nl if field == "nl" else 3.0
    with pytest.raises(InvalidParameterError, match=field):
        bo.OdeFamily(kind=kind, **given)


def _blowup_trajectory(ts, w):
    """A blowup_detected Trajectory through the samples w of its first
    component at ts, linear on each step (contd8 coefficients c0 = w_i,
    c1 = w_(i+1) - w_i, the rest 0); the other components are 0."""
    from bridgeosc._rk import BLOWUP_DETECTED, RawTrajectory
    ts, w = np.asarray(ts, dtype=float), np.asarray(w, dtype=float)
    ys = np.zeros((len(ts), 4))
    ys[:, 0] = w
    rcont = np.zeros((len(ts) - 1, 8, 4))
    rcont[:, 0, 0], rcont[:, 1, 0] = w[:-1], np.diff(w)
    return bo.Trajectory(RawTrajectory(ts, ys, rcont, BLOWUP_DETECTED))


@pytest.mark.parametrize("n_zeros", [0, 3, 6])
def test_r_est_secant_is_exact_on_reciprocal_growth(n_zeros):
    # w = 1/(R - t) after n_zeros unit-spaced sign changes: with fewer than
    # 4 zeros, or with a last gap ratio of 1 >= 0.95, R_est comes from the
    # secant of 1/|w| through the last two samples, exact on this w
    R = 9.75
    head = np.arange(n_zeros + 1, dtype=float)
    tail = np.linspace(n_zeros + 1, R - 0.5, 30)
    w = np.concatenate([(-1.0) ** (n_zeros - head), 1.0 / (R - tail)])
    traj = _blowup_trajectory(np.concatenate([head, tail]), w)
    assert len(traj.events) == n_zeros
    if n_zeros >= 4:
        gaps = np.diff(traj.events)
        assert gaps[-1] / gaps[-2] >= 0.95
    report = bo.detect_blowup(traj)
    assert report.blew_up
    assert abs(report.R_est - R) <= 1e-12 * R


@pytest.mark.parametrize("ts, w", [
    ([0.0, 1.0, 2.0, 3.0], [4.0, 3.0, 2.5, 2.0]),   # no zero, |w| shrinking
    ([0.0, 1.0, 2.0, 3.0], [-1.0, 1.0, 1.0, 1.0]),  # one zero, then flat
])
def test_r_est_falls_back_to_the_end_time_without_growth_or_zeros(ts, w):
    report = bo.detect_blowup(_blowup_trajectory(ts, w))
    assert report.blew_up and report.R_est == 3.0
