import warnings

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

import bridgeosc as bo
from bridgeosc import systems
from bridgeosc._rk import integrate_adaptive
from bridgeosc.errors import InvalidParameterError


def _cfg(t_end, tol=1e-10, thresh=1e6):
    return bo.IntegratorConfig(t_end=t_end, rel_tol=tol, abs_tol=tol,
                               blowup_threshold=thresh)


def test_equilibria():
    nl = bo.make_nonlinearity("cubic", epsilon=1.0)
    zero = [0.0, 0.0, 0.0, 0.0]
    for traj in (
        systems.integrate_coupled(systems.McKennaParams(), nl, zero, _cfg(3.0)),
        systems.integrate_truesystem(1.0, nl, zero, _cfg(3.0)),
        systems.integrate_miosyst(systems.MiosystParams(-1.0, 1.0), nl, zero,
                                  _cfg(3.0)),
    ):
        assert traj.termination == "reached_t_end"
        assert np.max(np.abs(traj.states)) == 0.0


def test_truesystem_symmetric_data_stays_vertical():
    nl = bo.make_nonlinearity("cubic", epsilon=1.0)
    traj = systems.integrate_truesystem(1.0, nl, [0.0, 0.0, 1.0, 0.0],
                                        _cfg(10.0))
    assert np.max(np.abs(traj.states[:, 0])) < 1e-12
    assert np.max(np.abs(traj.states[:, 1])) < 1e-12
    # with x == 0 the vertical motion solves y'' + 2 f(y) = 0
    scalar = integrate_adaptive(
        lambda t, s: np.array([s[1], -2.0 * nl.f(s[0])]), 0.0, [1.0, 0.0],
        10.0, rtol=1e-10, atol=1e-10)
    y_ref = scalar.eval(traj.ts)[:, 0]
    assert np.max(np.abs(traj.states[:, 2] - y_ref)) < 1e-8


def test_coupled_small_angle_matches_truesystem():
    nl = bo.make_nonlinearity("cubic", epsilon=1.0)
    theta0 = 1e-3
    params = systems.McKennaParams(mass_m=1.0, half_width_l=1.0)
    cpl = systems.integrate_coupled(params, nl, [theta0, 0.0, 0.1, 0.0],
                                    _cfg(10.0))
    true = systems.integrate_truesystem(3.0, nl, [theta0, 0.0, 0.1, 0.0],
                                        _cfg(10.0))
    # x = l*theta with l = 1; small-angle error is O(theta^3)
    x_true = true.eval(cpl.ts)[:, 0]
    assert np.max(np.abs(cpl.states[:, 0] - x_true)) <= 1e-6


def test_coupled_matches_expanded_cubic_form():
    # for f(s) = s + eps s^3 the hanger-force difference collapses to
    # -2 l sin(th) (1 + 3 eps y^2 + eps l^2 sin^2 th); check the rhs against
    # that closed form along a trajectory
    eps = 1.0
    nl = bo.make_nonlinearity("cubic", epsilon=eps)
    m, ell = 2.0, 0.7
    params = systems.McKennaParams(mass_m=m, half_width_l=ell)
    traj = systems.integrate_coupled(params, nl, [0.3, 0.0, 0.4, -0.1],
                                     _cfg(5.0))
    th = traj.states[:, 0]
    y = traj.states[:, 2]
    st, ct = np.sin(th), np.cos(th)
    thdd = 3.0 * ct * (nl.f(y - ell * st) - nl.f(y + ell * st)) / (m * ell)
    mia_first = (m * ell ** 2 / 3.0) * thdd + 2.0 * ell ** 2 * ct * st * (
        1.0 + 3.0 * eps * y ** 2 + eps * ell ** 2 * st ** 2)
    ydd = -(nl.f(y - ell * st) + nl.f(y + ell * st)) / m
    mia_second = m * ydd + 2.0 * (1.0 + 3.0 * eps * ell ** 2 * st ** 2) * y \
        + 2.0 * eps * y ** 3
    assert np.max(np.abs(mia_first)) <= 1e-8
    assert np.max(np.abs(mia_second)) <= 1e-8


def test_miosyst_requires_cubic_family():
    nl = bo.make_nonlinearity("piecewise")
    with pytest.raises(InvalidParameterError):
        systems.integrate_miosyst(systems.MiosystParams(-1.0, 1.0), nl,
                                  [1.0, 0.0, 0.0, 0.0], _cfg(1.0))


def test_miosyst_eps0_closed_form():
    # for eps = 0 and (x0, y0, x1, y1) = (1, 0, 1, -1):
    # x(t) = e^t cos t, y(t) = -e^t sin t
    nl = bo.make_nonlinearity("cubic", epsilon=0.0)
    params = systems.MiosystParams(-1.0, 1.0)
    traj = systems.integrate_miosyst(params, nl, [1.0, 1.0, 0.0, -1.0],
                                     _cfg(5.0))
    t = traj.ts
    ex = np.exp(t)
    assert np.max(np.abs(traj.states[:, 0] - ex * np.cos(t))) < 1e-7
    assert np.max(np.abs(traj.states[:, 2] + ex * np.sin(t))) < 1e-7
    # reduced variable w = y - x = -e^t (sin t + cos t)
    red = systems.to_fourth_order(params, nl, traj)
    w_exact = -ex * (np.sin(t) + np.cos(t))
    assert np.max(np.abs(red.states[:, 0] - w_exact)) < 1e-7


def test_fig16_blowup_time(fig16):
    _params, _nl, _cfg16, traj, reduced, report = fig16
    assert traj.termination == "blowup_detected"
    assert report.blew_up
    assert report.R_est == pytest.approx(4.041, abs=0.05)


def test_fig16_coordinates_synchronize_near_blowup(fig16):
    # x and y grow almost together: their difference w = y - x lags two
    # orders of magnitude behind the common part by the time the threshold
    # fires
    _params, _nl, _cfg16, traj, reduced, _rep = fig16
    final = traj.states[-1]
    big = max(abs(final[0]), abs(final[2]))
    assert abs(reduced.states[-1, 0]) <= 0.05 * big


def test_parameter_window_oscillating_blowup():
    # beta < delta <= -beta, c^2 <= 2 d sigma, initial condition fulfilled:
    # blow-up with both coordinates swinging past +-1e3 near the end
    nl = bo.make_nonlinearity("mckenna_cubic", sigma_f=1.0, c_quad=0.5,
                              d_cub=1.0)
    params = systems.MiosystParams(-1.0, 1.0)
    assert params.blowup_window()
    s0 = [1.0, 1.0, 0.0, -1.0]
    assert systems.check_initial_oscill(params, s0)
    traj = systems.integrate_miosyst(params, nl, s0, _cfg(20.0))
    assert traj.termination == "blowup_detected"
    win = traj.ts >= 0.95 * traj.t_end
    x, y = traj.states[win, 0], traj.states[win, 2]
    assert x.max() > 1e3 and x.min() < -1e3
    assert y.max() > 1e3 and y.min() < -1e3


def test_reduction_mapping_and_residual(fig16):
    params, nl, _cfg16, traj, reduced, report = fig16
    d = params.delta - params.beta
    # mapping formulas hold sample-by-sample
    assert np.allclose(reduced.states[:, 0],
                       traj.states[:, 2] - traj.states[:, 0], atol=0)
    assert np.allclose(reduced.states[:, 2],
                       -d * (traj.states[:, 2] + traj.states[:, 0]), atol=0)
    res = systems.reduction_residual(params, nl, traj)
    i_end = np.searchsorted(traj.ts, 0.9 * report.R_est)
    assert np.max(np.abs(res[:i_end])) <= 1e-6


def test_reduction_fd_oracle(fig16):
    # independent check: finite-difference fourth derivative of the dense w
    # matches -(beta+delta) w'' - 2(delta-beta) f(w) on a smooth window
    params, nl, _cfg16, traj, reduced, _rep = fig16
    h = 2e-2
    tq = np.linspace(1.0, 2.0, 41)
    stencil = np.array([1.0, -4.0, 6.0, -4.0, 1.0])
    w4 = np.array([
        np.dot(stencil, [reduced.eval(t + k * h)[0] for k in (-2, -1, 0, 1, 2)])
        for t in tq]) / h ** 4
    states = reduced.eval(tq)
    rhs = -(params.beta + params.delta) * states[:, 2] \
        - 2.0 * (params.delta - params.beta) * np.asarray(nl.f(states[:, 0]))
    assert np.max(np.abs(w4 - rhs)) <= 1e-3 * (1.0 + np.max(np.abs(rhs)))


def test_degenerate_reduction_raises(fig16):
    _params, nl, _cfg16, traj, _reduced, _rep = fig16
    with pytest.raises(InvalidParameterError):
        systems.to_fourth_order(systems.MiosystParams(1.0, 1.0), nl, traj)


def test_first_integral_values():
    nl = bo.make_nonlinearity("cubic", epsilon=0.1)
    params = systems.MiosystParams(-1.0, 1.0)
    assert systems.first_integral_E(params, nl, [0.0, 0.0, 0.0, 0.0]) == 0.0
    got = systems.first_integral_E(params, nl, [1.0, 0.0, 2.0, 0.0])
    assert got == pytest.approx(0.1, abs=1e-14)


def test_first_integral_refuses_a_system_state_and_a_wrong_shape():
    nl = bo.make_nonlinearity("cubic", epsilon=0.1)
    params = systems.MiosystParams(-1.0, 1.0)
    # a SysState holds (x, xd, y, yd), not (w, w', w'', w''')
    sys_state = systems.SysState(0.0, 1.0, 0.0, 2.0, 0.0)
    for bad in (sys_state, [1.0, 0.0, 2.0], np.zeros((2, 4))):
        with pytest.raises(InvalidParameterError):
            systems.first_integral_E(params, nl, bad)
    state = bo.State4(0.0, 1.0, 0.0, 2.0, 0.0)
    assert systems.first_integral_E(params, nl, state) == \
        systems.first_integral_E(params, nl, [1.0, 0.0, 2.0, 0.0])


def test_first_integral_conserved(fig16):
    params, nl, _cfg16, _traj, reduced, _rep = fig16
    _abs_d, rel_d = systems.first_integral_drift(params, nl, reduced, cap=1e3)
    assert rel_d <= 1e-6
    E0 = systems.first_integral_E(params, nl, reduced.states[0])
    abs_d, _ = systems.first_integral_drift(params, nl, reduced, cap=1e3)
    assert abs_d <= 1e-6 * (1.0 + abs(E0)) * 10.0  # mild absolute bound too


@settings(max_examples=20, deadline=None)
@given(beta=st.floats(-3.0, 3.0), delta=st.floats(-3.0, 3.0),
       eps=st.floats(0.1, 3.0),
       s0=st.lists(st.floats(-1.0, 1.0), min_size=4, max_size=4))
def test_first_integral_is_conserved_over_random_settings(beta, delta, eps, s0):
    assume(abs(delta - beta) > 0.1)  # the reduction needs delta != beta
    params = systems.MiosystParams(beta, delta)
    nl = bo.make_nonlinearity("cubic", epsilon=eps)
    traj = systems.integrate_miosyst(params, nl, s0, _cfg(10.0))
    reduced = systems.to_fourth_order(params, nl, traj)
    _abs_d, rel_d = systems.first_integral_drift(params, nl, reduced, cap=1e3)
    assert rel_d <= 1e-6


def test_check_initial_oscill_examples():
    params = systems.MiosystParams(-1.0, 1.0)
    assert systems.check_initial_oscill(params, [1.0, 1.0, 0.0, -1.0])
    assert not systems.check_initial_oscill(params, [1.0, -1.0, 0.0, 1.0])
    assert not systems.check_initial_oscill(params, [0.0, 0.0, 0.0, 0.0])


@settings(max_examples=60, deadline=None)
@given(beta=st.floats(-3.0, 3.0), delta=st.floats(-3.0, 3.0),
       s0=st.tuples(*(st.floats(-5.0, 5.0) for _ in range(4))))
def test_initial_condition_equals_mapped_tech_condition(beta, delta, s0):
    # the initial-data condition is exactly the scalar sign condition
    # w'w'' - w w''' - (beta+delta) w w' > 0 of the mapped state
    if delta == beta:
        return
    params = systems.MiosystParams(beta, delta)
    x0, x1, y0, y1 = s0
    d = delta - beta
    mapped = [y0 - x0, y1 - x1, -d * (y0 + x0), -d * (y1 + x1)]
    expr = ((3 * beta - delta) * x0 * y1 + (3 * delta - beta) * x1 * y0
            - (beta + delta) * (x0 * x1 + y0 * y1))
    if abs(expr) < 1e-9:  # too close to the boundary to compare roundings
        return
    assert systems.check_initial_oscill(params, [x0, x1, y0, y1]) == \
        bo.check_tech(beta + delta, mapped)


def test_classify_f0():
    c = systems.classify_f0(-1.0, 1.0)
    assert (c.A_sum, c.B_diff, c.Delta_disc) == (0.0, 4.0, -16.0)
    assert c.regime == "oscillatory"
    c2 = systems.classify_f0(2.0, 2.0)
    assert c2.B_diff == 0.0 and c2.Delta_disc == 16.0
    assert c2.regime == "real_exponential"
    c3 = systems.classify_f0(0.0, 2.0)
    assert (c3.A_sum, c3.B_diff, c3.Delta_disc) == (2.0, 4.0, -12.0)
    assert c3.regime == "oscillatory"
    assert systems.classify_f0(0.0, 0.0).regime == "double_root"


def test_scanlan_damped_and_pure_cosine():
    p = systems.ScanlanParams(inertia_I=1.0, zeta=0.1, omega_n=2.0,
                              A_lift=0.0, B_lift=0.0)
    sol = systems.solve_scanlan(p, 1.0, 0.0, 10.0)
    assert sol.growth_exponent == pytest.approx(-0.2, rel=1e-12)
    p0 = systems.ScanlanParams(inertia_I=1.0, zeta=0.0, omega_n=1.0,
                               A_lift=0.0, B_lift=0.0)
    sol0 = systems.solve_scanlan(p0, 1.0, 0.0, 10.0, n_samples=101)
    assert np.max(np.abs(sol0.theta - np.cos(sol0.ts))) < 1e-12


def test_scanlan_negative_damping_grows_exponentially():
    p = systems.ScanlanParams(inertia_I=1.0, zeta=0.05, omega_n=1.0,
                              A_lift=0.5, B_lift=0.0)
    assert p.A_lift > 2.0 * p.zeta * p.omega_n * p.inertia_I
    sol = systems.solve_scanlan(p, 1.0, 0.0, 60.0, n_samples=6001)
    assert sol.growth_exponent > 0.0
    fit = systems.log_amplitude_fit(sol)
    assert fit.r_squared > 0.99
    assert fit.slope == pytest.approx(sol.growth_exponent, rel=0.05)
    # linear model: bounded by C exp(lambda t), no finite-time escape
    bound = np.abs(sol.theta) <= 2.0 * np.exp(sol.growth_exponent * sol.ts)
    assert bound.all()


def test_scanlan_double_root_branch():
    # zeta = 1, A = B = 0 gives a repeated root at -omega
    p = systems.ScanlanParams(inertia_I=1.0, zeta=1.0, omega_n=1.0,
                              A_lift=0.0, B_lift=0.0)
    sol = systems.solve_scanlan(p, 1.0, 0.0, 5.0, n_samples=51)
    exact = (1.0 + sol.ts) * np.exp(-sol.ts)
    assert np.max(np.abs(sol.theta - exact)) < 1e-12


def test_param_validation():
    with pytest.raises(InvalidParameterError):
        systems.McKennaParams(mass_m=-1.0)
    with pytest.raises(InvalidParameterError):
        systems.ScanlanParams(inertia_I=0.0, zeta=0.1, omega_n=1.0,
                              A_lift=0.0, B_lift=0.0)
    with pytest.raises(InvalidParameterError):
        systems.SysState(0.0, np.inf, 0.0, 0.0, 0.0)


def test_sys_csv_and_samples(tmp_path, fig16):
    _p, _nl, _c, traj, _red, _rep = fig16
    path = tmp_path / "sys.csv"
    traj.to_csv(path)
    lines = path.read_text().splitlines()
    assert lines[0] == "t,x,xd,y,yd"
    assert len(lines) == len(traj.ts) + 1
    first = traj.samples[0]
    assert (first.t, first.x, first.xd, first.y, first.yd) == \
        (0.0, 1.0, 1.0, 0.0, -1.0)


@pytest.mark.parametrize("t_end", [np.nan, np.inf, 0.0])
def test_scanlan_rejects_non_finite_or_non_positive_t_end(t_end):
    p = systems.ScanlanParams(inertia_I=1.0, zeta=0.05, omega_n=1.0,
                              A_lift=0.5, B_lift=0.0)
    with pytest.raises(InvalidParameterError):
        systems.solve_scanlan(p, 1.0, 0.0, t_end, 5)


@pytest.mark.parametrize("fields, t_end, names", [
    ({"omega_n": 1e200}, 10.0, "omega_n"),           # omega_n^2 overflows
    ({"zeta": 1e300, "omega_n": 1e10}, 10.0, "zeta"),  # so does the damping
    ({"zeta": 0.0, "B_lift": 10.0}, 400.0, "t_end"),   # exp(3 t) past t = 236.6
], ids=["omega_n", "damping", "theta"])
def test_scanlan_closed_form_that_overflows_is_rejected_without_warning(
        fields, t_end, names):
    p = systems.ScanlanParams(**{"inertia_I": 1.0, "zeta": 0.05, "omega_n": 1.0,
                                 "A_lift": 0.0, "B_lift": 0.0, **fields})
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(InvalidParameterError, match=names):
            systems.solve_scanlan(p, 1.0, 0.0, t_end)


def test_scanlan_growth_is_sampled_while_it_fits_a_float():
    p = systems.ScanlanParams(inertia_I=1.0, zeta=0.0, omega_n=1.0,
                              A_lift=0.0, B_lift=10.0)
    sol = systems.solve_scanlan(p, 1.0, 0.0, 230.0)
    assert sol.growth_exponent == 3.0 and np.isfinite(sol.theta).all()


def test_systems_run_from_a_state_record_as_from_its_components():
    nl = bo.make_nonlinearity("cubic", epsilon=1.0)
    s0 = [0.3, 0.1, 0.2, -0.1]
    for integrate in (
            lambda s: systems.integrate_coupled(systems.McKennaParams(), nl, s,
                                                _cfg(2.0, tol=1e-8)),
            lambda s: systems.integrate_truesystem(3.0, nl, s, _cfg(2.0, tol=1e-8)),
            lambda s: systems.integrate_miosyst(systems.MiosystParams(-1.0, 1.0),
                                                nl, s, _cfg(2.0, tol=1e-8))):
        bare = integrate(s0)
        rec = integrate(systems.SysState(0.0, *s0))
        assert np.array_equal(rec.ts, bare.ts) and np.array_equal(rec.ys, bare.ys)


def test_first_integral_drift_is_zero_when_the_first_state_exceeds_cap(fig16):
    params, nl, _c, _traj, reduced, _rep = fig16
    assert np.max(np.abs(reduced.states[0])) > 0.5
    assert systems.first_integral_drift(params, nl, reduced, cap=0.5) == (0.0, 0.0)


def test_log_amplitude_fit_needs_three_peaks():
    # critically damped: |theta| decays without a single peak
    p = systems.ScanlanParams(inertia_I=1.0, zeta=1.0, omega_n=1.0,
                              A_lift=0.0, B_lift=0.0)
    with pytest.raises(InvalidParameterError, match="3 envelope peaks"):
        systems.log_amplitude_fit(systems.solve_scanlan(p, 1.0, 0.0, 5.0, 51))
