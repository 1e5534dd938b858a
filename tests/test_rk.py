import numpy as np
import pytest

import bridgeosc as bo
from bridgeosc import _rk, ode4, plate, truebeam
from bridgeosc._rk import (BLOWUP_DETECTED, REACHED_T_END, STEP_UNDERFLOW,
                           bisect, integrate_adaptive)
from bridgeosc.errors import InvalidParameterError


def rhs_oscillator(t, y):
    return np.array([y[1], -y[0]])


def test_reaches_end_and_accuracy():
    raw = integrate_adaptive(rhs_oscillator, 0.0, [1.0, 0.0], 10.0)
    assert raw.termination == REACHED_T_END
    assert raw.ts[-1] == 10.0
    assert abs(raw.ys[-1, 0] - np.cos(10.0)) < 1e-8


def test_dense_output_matches_solution():
    raw = integrate_adaptive(rhs_oscillator, 0.0, [1.0, 0.0], 10.0)
    tq = np.linspace(0.3, 9.7, 301)
    vals = raw.eval(tq)
    assert np.max(np.abs(vals[:, 0] - np.cos(tq))) < 1e-8
    # endpoints reproduce the accepted samples
    mid = len(raw.ts) // 2
    assert np.allclose(raw.eval(raw.ts[mid]), raw.ys[mid], rtol=0, atol=1e-12)


def test_component_zeros_of_cosine():
    raw = integrate_adaptive(rhs_oscillator, 0.0, [1.0, 0.0], 10.0)
    zs = raw.component_zeros(0, tol=1e-10)
    expect = [np.pi / 2 + k * np.pi for k in range(3)]
    assert len(zs) == 3
    assert np.max(np.abs(np.array(zs) - expect)) < 1e-8


def test_map_linear_commutes_with_eval():
    raw = integrate_adaptive(rhs_oscillator, 0.0, [1.0, 0.0], 5.0)
    M = np.array([[2.0, 1.0], [0.0, -1.0], [1.0, 1.0]])
    mapped = raw.map_linear(M)
    tq = np.linspace(0.1, 4.9, 57)
    assert np.allclose(mapped.eval(tq), raw.eval(tq) @ M.T, atol=1e-13)


def test_blowup_stop_on_riccati():
    # y' = y^2 from 1 blows up at t = 1
    raw = integrate_adaptive(lambda t, y: y * y, 0.0, [1.0], 2.0,
                             stop_indices=(0,), stop_threshold=1e6)
    assert raw.termination == BLOWUP_DETECTED
    assert abs(raw.ts[-1] - 1.0) < 1e-4


def test_underflow_before_progress_raises():
    def rhs(t, y):
        return 1e280 * y

    with pytest.raises(InvalidParameterError):
        integrate_adaptive(rhs, 0.0, [1.0], 10.0, rtol=1e-13, atol=1e-13)


def test_rejects_bad_inputs():
    with pytest.raises(InvalidParameterError):
        integrate_adaptive(rhs_oscillator, 0.0, [np.nan, 0.0], 1.0)
    with pytest.raises(InvalidParameterError):
        integrate_adaptive(rhs_oscillator, 0.0, [1.0, 0.0], 0.0)
    with pytest.raises(InvalidParameterError):
        integrate_adaptive(rhs_oscillator, 0.0, [1.0, 0.0], 1.0, rtol=0.0)


def test_bisect_root():
    assert abs(bisect(np.cos, 0.0, 3.0, tol=1e-12) - np.pi / 2) < 1e-11
    with pytest.raises(ValueError):
        bisect(np.cos, 0.0, 1.0)


def test_max_step_honored():
    raw = integrate_adaptive(rhs_oscillator, 0.0, [1.0, 0.0], 5.0,
                             rtol=1e-6, atol=1e-6, max_step=0.01)
    assert np.max(np.diff(raw.ts)) <= 0.01 + 1e-12


def test_tolerance_scaling():
    # halving tolerances should not move the endpoint state appreciably
    a = integrate_adaptive(rhs_oscillator, 0.0, [1.0, 0.0], 20.0,
                           rtol=1e-8, atol=1e-8)
    b = integrate_adaptive(rhs_oscillator, 0.0, [1.0, 0.0], 20.0,
                           rtol=1e-10, atol=1e-10)
    assert abs(a.ys[-1, 0] - b.ys[-1, 0]) < 1e-6


@pytest.mark.parametrize("t_end", [np.nan, np.inf])
def test_non_finite_t_end_rejected(t_end):
    with pytest.raises(InvalidParameterError):
        integrate_adaptive(rhs_oscillator, 0.0, [1.0, 0.0], t_end)


# --- reference step loop --------------------------------------------------
# The plain loop, stacking each accepted step's dense-output block as it goes
# (input checks left out). integrate_adaptive must call the rhs the same way,
# take exactly the same steps and produce the same samples and interpolation
# coefficients, bit for bit.

def _reference_integrate_adaptive(rhs, t0, y0, t_end, rtol=1e-10, atol=1e-10,
                                  max_step=np.inf, stop_indices=(),
                                  stop_threshold=np.inf):
    y = np.array(y0, dtype=float)
    n = y.size
    t = float(t0)
    t_end = float(t_end)
    f = np.asarray(rhs(t, y), dtype=float)
    h = _rk._initial_step(rhs, t, y, f, t_end, rtol, atol, max_step)
    ts = [t]
    ys = [y.copy()]
    rconts = []
    K = np.empty((7, n))
    termination = REACHED_T_END
    n_rejected = 0

    stop_indices = tuple(stop_indices)
    while t < t_end:
        h = min(h, t_end - t)
        if h <= 1e-14 * max(1.0, abs(t)):
            termination = STEP_UNDERFLOW
            break

        K[0] = f
        failed = False
        for i in range(1, 7):
            yi = y + h * (K[:i].T @ _rk._A[i - 1])
            if not np.all(np.isfinite(yi)):
                failed = True
                break
            K[i] = rhs(t + _rk._C[i] * h, yi)
        if failed or not np.all(np.isfinite(K)):
            n_rejected += 1
            h *= 0.5
            continue

        y_new = y + h * (K.T @ _rk._B)
        err = h * (K.T @ _rk._E)
        sc = atol + rtol * np.maximum(np.abs(y), np.abs(y_new))
        err_norm = np.sqrt(np.mean((err / sc) ** 2))
        if not np.isfinite(err_norm):
            n_rejected += 1
            h *= 0.5
            continue

        if err_norm <= 1.0:
            ydiff = y_new - y
            bspl = h * K[0] - ydiff
            rconts.append(np.stack([y.copy(), ydiff, bspl,
                                    ydiff - h * K[6] - bspl,
                                    h * (K.T @ _rk._D)]))
            t += h
            y = y_new
            f = K[6].copy()
            ts.append(t)
            ys.append(y.copy())
            if stop_indices and max(abs(y[i]) for i in stop_indices) >= stop_threshold:
                termination = BLOWUP_DETECTED
                break
        else:
            n_rejected += 1

        factor = _rk._MAX_FACTOR if err_norm == 0.0 else _rk._SAFETY * err_norm ** -0.2
        h *= min(_rk._MAX_FACTOR, max(_rk._MIN_FACTOR, factor))
        h = min(h, max_step)

    rcont = np.asarray(rconts) if rconts else np.empty((0, 5, n))
    return _rk.RawTrajectory(np.asarray(ts), np.asarray(ys), rcont,
                             termination, n_rejected)


class _CountingRhs:
    """rhs wrapper counting its calls; returns NaN on the given (1-based)
    calls, to spoil chosen stages."""

    def __init__(self, fun, bad_calls=()):
        self.fun, self.bad_calls, self.calls = fun, set(bad_calls), 0

    def __call__(self, t, y):
        self.calls += 1
        out = self.fun(t, y)
        return out * np.nan if self.calls in self.bad_calls else out


def _assert_same_run(raw, ref):
    assert raw.termination == ref.termination
    assert raw.n_rejected == ref.n_rejected
    for name in ("ts", "ys", "_rcont"):
        a, b = getattr(raw, name), getattr(ref, name)
        assert a.shape == b.shape, name
        # bitwise, so -0.0 != 0.0 and equal NaNs count as equal
        assert a.tobytes() == b.tobytes(), name


def _assert_matches_reference_run(fun, *args, bad_calls=(), **kwargs):
    """Run fun through integrate_adaptive and the reference loop; require
    the same rhs calls and a bitwise identical result. Returns the run."""
    rhs, ref_rhs = _CountingRhs(fun, bad_calls), _CountingRhs(fun, bad_calls)
    raw = integrate_adaptive(rhs, *args, **kwargs)
    _assert_same_run(raw, _reference_integrate_adaptive(ref_rhs, *args, **kwargs))
    assert rhs.calls == ref_rhs.calls
    return raw


def _captured_stepper_calls(monkeypatch, module):
    """Record (rhs, args, kwargs) of each integrate_adaptive call made
    through module."""
    calls = []

    def recording(rhs, *args, **kwargs):
        calls.append((rhs, args, kwargs))
        return integrate_adaptive(rhs, *args, **kwargs)

    monkeypatch.setattr(module, "integrate_adaptive", recording)
    return calls


def _assert_matches_reference(calls):
    assert calls
    for rhs, args, kwargs in calls:
        _assert_matches_reference_run(rhs, *args, **kwargs)


def test_step_loop_matches_reference_on_criterion_7_run(monkeypatch):
    calls = _captured_stepper_calls(monkeypatch, ode4)
    pw = bo.make_nonlinearity("piecewise")
    cfg = bo.IntegratorConfig(t_end=500.0, rel_tol=1e-7, abs_tol=1e-7,
                              blowup_threshold=1e300)
    traj = bo.integrate(bo.canonical(2.0, pw), [0.9, -3.1, 2.2, -0.4], cfg)
    assert traj.termination == REACHED_T_END and len(traj.ts) > 1000
    _assert_matches_reference(calls)


@pytest.mark.parametrize("threshold, termination", [
    (1e6, BLOWUP_DETECTED), (np.inf, STEP_UNDERFLOW)])
def test_step_loop_matches_reference_on_figure12_run(monkeypatch, threshold,
                                                     termination):
    calls = _captured_stepper_calls(monkeypatch, ode4)
    cubic = bo.make_nonlinearity("cubic", epsilon=1.0)
    cfg = bo.IntegratorConfig(t_end=20.0, blowup_threshold=threshold)
    traj = bo.integrate(bo.canonical(3.0, cubic), [1.0, 0.0, 0.0, 0.0], cfg)
    assert traj.termination == termination
    _assert_matches_reference(calls)


def test_step_loop_matches_reference_with_max_step():
    _assert_matches_reference_run(rhs_oscillator, 0.0, [1.0, 0.0], 5.0,
                                  rtol=1e-6, atol=1e-6, max_step=0.01)


def test_step_loop_matches_reference_on_non_finite_stages():
    # call 2 + 6 j + i computes K[i] of attempt j + 1 while no attempt is cut
    # short: 26 spoils K[6] of attempt 4 (caught by the check on K), 45 spoils
    # K[1] of attempt 8 (caught on the next stage's input, before the rhs
    # sees it)
    raw = _assert_matches_reference_run(rhs_oscillator, 0.0, [1.0, 0.0], 10.0,
                                        bad_calls=(26, 45), rtol=1e-8, atol=1e-8)
    assert raw.termination == REACHED_T_END and raw.n_rejected >= 2


def test_step_loop_matches_reference_on_truebeam_segment(monkeypatch):
    calls = _captured_stepper_calls(monkeypatch, truebeam)
    M = 4
    cfg = truebeam.TrueBeamConfig(
        geom=plate.PlateGeom(0.5, 0.05, 0.2),
        nl=bo.make_nonlinearity("cubic", epsilon=1.0), threshold_Ebar=1.0,
        damping_delta=0.5, forcing=None, modes_M=M)
    st0 = truebeam.ModalState(0.0, np.linspace(0.4, 0.1, M), np.zeros(M),
                              np.linspace(0.3, -0.1, M), np.zeros(M))
    truebeam.integrate_truebeam(cfg, st0, 0.2, freeze_switch=1)
    assert len(calls) == 1
    assert calls[0][2]["stop_indices"] == tuple(range(4 * M))
    _assert_matches_reference(calls)


# --- oracles independent of the stepper -----------------------------------

def _linear_canonical_exact(k, y0, t):
    """Closed form of w'''' + k w'' + w = 0 from the eigen-decomposition of
    its companion matrix."""
    A = np.array([[0.0, 1.0, 0.0, 0.0], [0.0, 0.0, 1.0, 0.0],
                  [0.0, 0.0, 0.0, 1.0], [-1.0, 0.0, -k, 0.0]])
    lam, V = np.linalg.eig(A)
    c = np.linalg.solve(V, np.asarray(y0, dtype=complex))
    return (V @ (c * np.exp(lam * t))).real


def test_observed_order_on_linear_canonical_family():
    k, y0, t_end = 3.0, [1.0, 0.0, -0.5, 0.0], 20.0
    rhs = bo.canonical(k, bo.make_nonlinearity("linear")).rhs()
    exact = _linear_canonical_exact(k, y0, t_end)
    steps, errors = [], []
    for tol in (1e-6, 1e-7, 1e-8, 1e-9, 1e-10):
        raw = integrate_adaptive(rhs, 0.0, y0, t_end, rtol=tol, atol=tol)
        assert raw.ts[-1] == t_end
        steps.append(len(raw.ts) - 1)
        errors.append(np.max(np.abs(raw.ys[-1] - exact)))
    slope = np.polyfit(np.log(steps), np.log(errors), 1)[0]
    assert 4.0 <= -slope <= 6.0, (steps, errors)


def test_dense_output_is_continuous_and_hits_the_samples(fig12):
    raw = fig12[2]
    # at each sample: the value there, from the step that starts there
    assert raw.eval(raw.ts[:-1]).tobytes() == raw.ys[:-1].tobytes()
    # the left limit: each step's interpolant at theta = 1 (where eval's
    # formula reduces to the first two coefficients) lands on the next
    # sample, to rounding in the sample's own scale
    left = raw._rcont[:, 0] + raw._rcont[:, 1]
    scale = np.maximum(np.abs(raw.ys[:-1]), np.abs(raw.ys[1:]))
    assert np.all(np.abs(left - raw.ys[1:]) <= 4 * np.spacing(scale))
    assert np.allclose(raw.eval(raw.ts[-1]), raw.ys[-1], rtol=1e-15, atol=0)


def test_component_zeros_finds_every_fine_sampling_sign_change(fig12):
    raw = fig12[2]
    theta = np.linspace(0.0, 1.0, 65)[:-1]
    tt = np.append(raw.ts[:-1, None] + np.diff(raw.ts)[:, None] * theta,
                   raw.ts[-1])
    w = raw.eval(tt)[:, 0]
    nz = w != 0.0
    w, tt = w[nz], tt[nz]
    flips = np.flatnonzero(np.sign(w[1:]) != np.sign(w[:-1]))
    zs = np.asarray(raw.component_zeros(0))
    assert len(zs) == len(flips) > 5
    # each fine-grid sign change brackets exactly the zero found for it
    assert np.all((tt[flips] <= zs) & (zs <= tt[flips + 1]))
