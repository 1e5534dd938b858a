import math
import types

import numpy as np
import pytest

import bridgeosc as bo
from bridgeosc import _rk, ode4, plate, systems, truebeam
from bridgeosc._rk import (BLOWUP_DETECTED, REACHED_T_END, STEP_UNDERFLOW,
                           integrate_adaptive)
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


# The oscillator p'' = -p through each step method: whole as the rhs of the
# Dormand-Prince method, or as the linear part of the exponential method
# with a nonlinear part of zero. The controller rules are the same for both.
OSCILLATOR_BLOCKS = _rk.LinearBlocks([[1.0]], [[0.0]])
METHODS = [(rhs_oscillator, None), (lambda t, y: 0.0 * y, OSCILLATOR_BLOCKS)]
both_methods = pytest.mark.parametrize("rhs, linear", METHODS,
                                       ids=["dop853", "exponential"])


@pytest.mark.parametrize("linear", [None, OSCILLATOR_BLOCKS],
                         ids=["dop853", "exponential"])
def test_underflow_before_progress_raises(linear):
    def rhs(t, y):
        return 1e280 * y

    with pytest.raises(InvalidParameterError):
        integrate_adaptive(rhs, 0.0, [1.0, 0.0], 10.0, rtol=1e-13, atol=1e-13,
                           linear=linear)


@both_methods
def test_rejects_bad_inputs(rhs, linear):
    with pytest.raises(InvalidParameterError):
        integrate_adaptive(rhs, 0.0, [np.nan, 0.0], 1.0, linear=linear)
    with pytest.raises(InvalidParameterError):
        integrate_adaptive(rhs, 0.0, [1.0, 0.0], 0.0, linear=linear)
    with pytest.raises(InvalidParameterError):
        integrate_adaptive(rhs, 0.0, [1.0, 0.0], 1.0, rtol=0.0, linear=linear)
    for max_step in (np.nan, 0.0, -1.0):
        with pytest.raises(InvalidParameterError, match="max_step must be > 0"):
            integrate_adaptive(rhs, 0.0, [1.0, 0.0], 1.0, max_step=max_step,
                               linear=linear)


@both_methods
@pytest.mark.parametrize("key", ["rtol", "atol"])
def test_non_finite_tolerances_are_named(rhs, linear, key):
    # an infinite tolerance made every error norm 0 and then a NaN step
    # size, reported as step size underflow before any progress
    for value in (np.inf, np.nan, -np.inf):
        with pytest.raises(InvalidParameterError,
                           match="tolerances must be finite and positive"):
            integrate_adaptive(rhs, 0.0, [1.0, 0.0], 1.0, linear=linear,
                               **{key: value})


@both_methods
def test_non_finite_initial_slope_rejected(rhs, linear):
    # a NaN slope made the first step size NaN, and halving a rejected NaN
    # step never ended the run
    with pytest.raises(InvalidParameterError, match="initial state"):
        integrate_adaptive(lambda t, y: rhs(t, y) * np.nan, 0.0, [1.0, 0.0],
                           1.0, linear=linear)


def test_nan_initial_step_counts_as_underflow():
    # tolerances of 1e-320 against a state of 1e300 overflow the initial
    # step estimate to NaN from a finite slope
    with pytest.raises(InvalidParameterError, match="underflow"):
        integrate_adaptive(rhs_oscillator, 0.0, [1e300, 1e300], 1.0,
                           rtol=1e-320, atol=1e-320)


def _piecewise_linear(ts, w):
    """A one-component trajectory through the samples w at ts, linear on
    each step: contd8 coefficients c0 = w_i, c1 = w_(i+1) - w_i, the rest 0."""
    ts, w = np.asarray(ts, dtype=float), np.asarray(w, dtype=float)
    rcont = np.zeros((len(ts) - 1, 8, 1))
    rcont[:, 0, 0], rcont[:, 1, 0] = w[:-1], np.diff(w)
    return _rk.RawTrajectory(ts, w[:, None], rcont, REACHED_T_END)


def test_component_zeros_at_exact_zero_samples():
    # a zero sample counts where w changes sign across it (t = 2) or ends
    # the run (t = 7), not where w only touches zero (t = 4); the sign
    # change of the step [5, 6] is bisected
    raw = _piecewise_linear(np.arange(8.0), [0, 1, 0, -1, 0, -2, 3, 0])
    assert raw.component_zeros(0, tol=1e-12) == [2.0, 5.400000000000091, 7.0]


def test_component_zeros_stop_at_adjacent_floats():
    # near 1e8 the floats are 1.5e-8 apart, far coarser than tol
    raw = _piecewise_linear([1e8, 1e8 + 1.0], [-0.3, 0.7])
    assert raw.component_zeros(0, tol=1e-12) == [100000000.30000001]


@both_methods
def test_max_step_honored(rhs, linear):
    raw = integrate_adaptive(rhs, 0.0, [1.0, 0.0], 5.0, rtol=1e-6, atol=1e-6,
                             max_step=0.01, linear=linear)
    assert raw.ts[-1] == 5.0
    assert np.max(np.diff(raw.ts)) <= 0.01 + 1e-12


def test_tolerance_scaling():
    # halving tolerances should not move the endpoint state appreciably
    a = integrate_adaptive(rhs_oscillator, 0.0, [1.0, 0.0], 20.0,
                           rtol=1e-8, atol=1e-8)
    b = integrate_adaptive(rhs_oscillator, 0.0, [1.0, 0.0], 20.0,
                           rtol=1e-10, atol=1e-10)
    assert abs(a.ys[-1, 0] - b.ys[-1, 0]) < 1e-6


@pytest.mark.parametrize("t_end, rhs, linear", [
    (t_end, rhs, linear) for rhs, linear in METHODS
    for t_end in (np.nan, np.inf)],
    ids=["nan", "inf", "exponential-nan", "exponential-inf"])
def test_non_finite_t_end_rejected(t_end, rhs, linear):
    with pytest.raises(InvalidParameterError):
        integrate_adaptive(rhs, 0.0, [1.0, 0.0], t_end, linear=linear)


@pytest.mark.parametrize("t0, rhs, linear", [
    (t0, rhs, linear) for rhs, linear in METHODS
    for t0 in (np.nan, np.inf, -np.inf)],
    ids=["nan", "inf", "-inf", "exponential-nan", "exponential-inf",
         "exponential--inf"])
def test_non_finite_t0_rejected(t0, rhs, linear):
    # a NaN t0 ended at once as reached_t_end, and -inf as an underflow
    with pytest.raises(InvalidParameterError, match="t0 must be finite"):
        integrate_adaptive(rhs, t0, [1.0, 0.0], 1.0, linear=linear)


# --- reference step loop --------------------------------------------------
# The plain loop, keeping each accepted step's stages, then the dense-output
# block of every step, its three dense stages evaluated after the loop and
# not checked (input checks left out). integrate_adaptive must call the rhs
# the same way once its trajectory's coefficients are all read, take exactly
# the same steps and produce the same samples and interpolation
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
    kept = []  # (t, h, y, K) of each accepted step
    K = np.empty((16, n))
    termination = REACHED_T_END
    n_rejected = 0
    rejected = False  # the last attempt was

    def stages(lo, hi):
        # K[lo:hi], every stage evaluated; the last stage input, or None
        # if any stage input is not finite
        finite = True
        for i in range(lo, hi):
            yi = y + h * _rk._A[i].dot(K[:i])
            finite = finite and np.all(np.isfinite(yi))
            K[i] = rhs(t + _rk._C[i] * h, yi)
        return yi if finite else None

    stop_indices = tuple(stop_indices)
    while t < t_end:
        h = min(h, t_end - t)
        if h <= 1e-14 * max(1.0, abs(t)):
            termination = STEP_UNDERFLOW
            break

        K[0] = f
        y_new = stages(1, 13)
        if y_new is None or not np.all(np.isfinite(K[:13])):
            n_rejected += 1
            h *= 0.5
            rejected = True
            continue

        sc = atol + rtol * np.maximum(np.abs(y), np.abs(y_new))
        err5 = np.sum((_rk._E5.dot(K[:12]) / sc) ** 2)
        err3 = np.sum((_rk._E3.dot(K[:12]) / sc) ** 2)
        if err5 == 0.0 and err3 == 0.0:
            err_norm = 0.0
        else:
            err_norm = h * err5 / np.sqrt((err5 + 0.01 * err3) * n)
        if not np.isfinite(err_norm):
            n_rejected += 1
            h *= 0.5
            rejected = True
            continue

        if err_norm <= 1.0:
            kept.append((t, h, y.copy(), K.copy()))
            t += h
            y = y_new
            f = K[12].copy()
            ts.append(t)
            ys.append(y.copy())
            if stop_indices and max(abs(y[i]) for i in stop_indices) >= stop_threshold:
                termination = BLOWUP_DETECTED
                break
        else:
            n_rejected += 1

        factor = (_rk._MAX_FACTOR if err_norm == 0.0
                  else _rk._SAFETY * err_norm ** -0.125)
        # as in Hairer's DOP853, h does not grow right after a rejection
        h *= min(1.0 if rejected else _rk._MAX_FACTOR,
                 max(_rk._MIN_FACTOR, factor))
        h = min(h, max_step)
        rejected = err_norm > 1.0

    rconts = []
    for (t, h, y, K), y_new in zip(kept, ys[1:]):
        for i in range(13, 16):
            K[i] = rhs(t + _rk._C[i] * h, y + h * _rk._A[i].dot(K[:i]))
        ydiff = y_new - y
        rconts.append(np.concatenate([
            [y.copy(), ydiff, h * K[0] - ydiff,
             2.0 * ydiff - h * (K[12] + K[0])], h * _rk._D.dot(K)]))
    rcont = np.asarray(rconts) if rconts else np.empty((0, 8, n))
    return _rk.RawTrajectory(np.asarray(ts), np.asarray(ys), rcont,
                             termination, n_rejected)


# The plain step loop of the exponential method (input checks left out).
# integrate_adaptive with linear must take exactly the same steps and
# produce the same samples and interpolation data, bit for bit, with the
# same rhs calls but one: this loop evaluates N after every accepted step,
# also after the last one of a run that then underflows, and the
# controller leaves that call out. Every stage of an attempt is evaluated,
# and then any non-finite stage input or stage rejects it.

def _reference_ho5_step(N, half, whole, t, y, f, h, t_new, blocks, seen):
    """One Hochbruck-Ostermann step as _rk._ho5_step, from the phi matrices
    at h/2 and h: each weight formed as the method's formulas name it, and
    each stage input and D1, D2 as a sum from 0.0 of the products weight x
    row and weight x swapped row, in the order of the rows of the step's
    buffer; the step end is read from the interpolant at theta = 1. Each
    stage input and stage is appended to seen."""
    swap = _rk._swap(blocks)

    def summed(terms):
        acc = np.zeros(len(y))
        for term in terms:
            acc = acc + term
        return acc

    def weighted(*pairs):
        return summed(w[j] * (x[swap] if j else x)
                      for w, x in pairs for j in (0, 1))

    def stage(ti, ui):
        out = np.asarray(N(ti, ui), dtype=float)
        seen.extend((ui, out))
        return out

    e_h, p1_h, p2_h, p3_h = half
    e, p1, p2, p3 = whole
    a52 = 0.5 * p2_h - p3 + 0.25 * p2 - 0.5 * p3_h
    a54 = 0.25 * p2_h - a52
    t_mid = t + 0.5 * h
    n2 = stage(t_mid, weighted((e_h, y), ((0.5 * h) * p1_h, f)))
    n3 = stage(t_mid, weighted((h * p2_h, n2), (e_h, y),
                               (h * (0.5 * p1_h - p2_h), f)))
    n4 = stage(t_new, weighted((h * p2, n3), (h * p2, n2), (e, y),
                               (h * (p1 - 2.0 * p2), f)))
    n5 = stage(t_mid, weighted((h * a54, n4), (h * a52, n3), (h * a52, n2),
                               (e_h, y), (h * (0.5 * p1_h - 2.0 * a52 - a54), f)))
    rows = (n5, n4, n3, n2, y, f)
    d1, d2 = (summed(c * x for c, x in zip(coef, rows))
              for coef in ([4.0, -1.0, 0.0, 0.0, 0.0, -3.0],
                           [-8.0, 4.0, 0.0, 0.0, 0.0, 4.0]))
    step = np.array([f, d1, d2])
    weights = np.array([[e, h * p1, h * p2, h * p3]])
    end = _rk._exp_step_end(weights, y[None], step[None], np.ones(1),
                            blocks.stiffness.shape)
    return end[0], step


def _reference_integrate_exponential(rhs, t0, y0, t_end, rtol=1e-10,
                                     atol=1e-10, max_step=np.inf,
                                     stop_indices=(), stop_threshold=np.inf,
                                     linear=None):
    y = np.array(y0, dtype=float)
    t = float(t0)
    t_end = float(t_end)
    k = np.asarray(linear.stiffness, dtype=float)
    blocks = _rk.LinearBlocks(k, np.broadcast_to(
        np.asarray(linear.damping, dtype=float), k.shape),
        tuple(sorted(linear.kinks)))
    n = y.size
    stops = [tk for tk in blocks.kinks if t < tk < t_end] + [t_end]
    stop_idx = np.array(stop_indices, dtype=np.intp)
    f = np.asarray(rhs(t, y), dtype=float)
    h = _rk._initial_step(rhs, t, y, f, t_end, rtol, atol, max_step)
    ts, ys, hs, stages = [t], [y], [], []
    termination = REACHED_T_END
    n_rejected = 0
    abs_y = np.abs(y)
    phi_of_rung = {}

    while t < t_end:
        while t >= stops[0]:
            stops.pop(0)
        rung = math.floor(_rk._RUNGS * math.log2(h))
        if _rk._rung(rung) > h:
            rung -= 1
        if _rk._rung(rung) < stops[0] - t:
            h = _rk._rung(rung)
            t_new = t + h
        else:
            t_new, rung = stops[0], None
            h = t_new - t
        if h <= 1e-14 * max(1.0, abs(t)):
            termination = STEP_UNDERFLOW
            break

        if rung is None:
            quarter, half, whole = np.moveaxis(_rk._phi_matrices(
                blocks, h * np.array([0.25, 0.5, 1.0])[:, None, None]), 2, 0)
        else:
            R = _rk._RUNGS
            need = [r for r in (rung - 2 * R, rung - R, rung)
                    if r not in phi_of_rung]
            if need:
                taus = np.array([_rk._rung(r) for r in need])[:, None, None]
                phi_of_rung.update(zip(need, np.moveaxis(
                    _rk._phi_matrices(blocks, taus), 2, 0)))
            quarter, half, whole = (phi_of_rung[r]
                                    for r in (rung - 2 * R, rung - R, rung))
        t_mid = t + 0.5 * h
        seen = [f]
        full = _reference_ho5_step(rhs, half, whole, t, y, f, h, t_new, blocks,
                                   seen)
        first = _reference_ho5_step(rhs, quarter, half, t, y, f, 0.5 * h, t_mid,
                                    blocks, seen)
        f_mid = np.asarray(rhs(t_mid, first[0]), dtype=float)
        seen.extend((first[0], f_mid))
        second = _reference_ho5_step(rhs, quarter, half, t_mid, first[0], f_mid,
                                     0.5 * h, t_new, blocks, seen)
        if not all(np.all(np.isfinite(x)) for x in seen):
            n_rejected += 1
            h *= 0.5
            continue

        y_new = second[0]
        abs_new = np.abs(y_new)
        q = (y_new - full[0]) / (15.0 * (atol + rtol * np.maximum(abs_y, abs_new)))
        err_norm = math.sqrt(float(np.add.reduce(q * q)) / n)
        if not math.isfinite(err_norm):
            n_rejected += 1
            h *= 0.5
            continue

        if err_norm <= 1.0:
            for t_i, (y_i, stage_i) in ((t_mid, first), (t_new, second)):
                ts.append(t_i)
                ys.append(y_i)
                hs.append(0.5 * h)
                stages.append(stage_i)
                if stop_idx.size and np.abs(y_i[stop_idx]).max() >= stop_threshold:
                    termination = BLOWUP_DETECTED
                    break
            if termination == BLOWUP_DETECTED:
                break
            t, y, abs_y = t_new, y_new, abs_new
            if t < t_end:
                f = np.asarray(rhs(t, y), dtype=float)
        else:
            n_rejected += 1

        factor = (_rk._MAX_FACTOR if err_norm == 0.0
                  else _rk._SAFETY * err_norm ** -0.2)
        h *= min(_rk._MAX_FACTOR, max(_rk._MIN_FACTOR, factor))
        h = min(h, max_step)

    stages = np.array(stages) if stages else np.empty((0, 3, n))
    return _rk.ExpTrajectory(np.asarray(ts), np.array(ys), np.asarray(hs),
                             stages, blocks, termination, n_rejected)


class _CountingRhs:
    """rhs wrapper counting the states it evaluates, a call on (n, S)
    columns as S; returns NaN for the given (1-based) evaluations, to spoil
    chosen stages."""

    def __init__(self, fun, bad_calls=()):
        self.fun, self.bad_calls, self.calls = fun, set(bad_calls), 0

    def __call__(self, t, y):
        first = self.calls + 1
        self.calls += 1 if np.ndim(y) == 1 else np.shape(y)[1]
        out = self.fun(t, y)
        spoiled = [c - first for c in range(first, self.calls + 1)
                   if c in self.bad_calls]
        if not spoiled:
            return out
        out = np.array(out, dtype=float)
        if out.ndim == 1:
            return out * np.nan
        out[:, spoiled] = np.nan
        return out


def _assert_same_run(raw, ref, fields=("ts", "ys", "_rcont")):
    assert raw.termination == ref.termination
    assert raw.n_rejected == ref.n_rejected
    for name in fields:
        a, b = getattr(raw, name), getattr(ref, name)
        assert a.shape == b.shape, name
        # bitwise, so -0.0 != 0.0 and equal NaNs count as equal
        assert a.tobytes() == b.tobytes(), name


def _assert_matches_reference_run(fun, *args, bad_calls=(), **kwargs):
    """Run fun through integrate_adaptive and the reference loop of its
    method; require the same rhs calls and a bitwise identical result.
    Returns the run."""
    rhs, ref_rhs = _CountingRhs(fun, bad_calls), _CountingRhs(fun, bad_calls)
    raw = integrate_adaptive(rhs, *args, **kwargs)
    if kwargs.get("linear") is None:
        _assert_same_run(raw, _reference_integrate_adaptive(ref_rhs, *args, **kwargs))
        assert rhs.calls == ref_rhs.calls
    else:
        _assert_same_run(raw, _reference_integrate_exponential(
            ref_rhs, *args, **kwargs), ("ts", "ys", "_hs", "_stages"))
        assert rhs.calls == ref_rhs.calls or (
            raw.termination == STEP_UNDERFLOW and rhs.calls == ref_rhs.calls - 1)
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
    assert traj.termination == REACHED_T_END
    # accepted and rejected steps as literals, so that no edit of the
    # reference loop can hide a change of steps
    assert (len(traj.ts) - 1, traj.n_rejected) == (1004, 169)
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
    # accepted and rejected steps, as literals like the criterion-7 run's
    assert (len(traj.ts) - 1, traj.n_rejected) == {
        BLOWUP_DETECTED: (199, 55), STEP_UNDERFLOW: (728, 211)}[termination]
    _assert_matches_reference(calls)


def test_step_loop_matches_reference_with_max_step():
    _assert_matches_reference_run(rhs_oscillator, 0.0, [1.0, 0.0], 5.0,
                                  rtol=1e-6, atol=1e-6, max_step=0.01)


def test_step_loop_matches_reference_on_non_finite_stages():
    # call 2 + 12 j + i computes K[i] of attempt j + 1, as every attempt
    # evaluates its 12 stages; the dense stages come after the loop. 26
    # spoils K[12] of attempt 2, and 63 spoils K[1] of attempt 6, whose
    # later stage inputs and stages are then NaN: the rhs still sees them,
    # and the check after stage 12 rejects each attempt
    raw = _assert_matches_reference_run(rhs_oscillator, 0.0, [1.0, 0.0], 10.0,
                                        bad_calls=(26, 63), rtol=1e-8,
                                        atol=1e-8)
    assert raw.termination == REACHED_T_END and raw.n_rejected == 2


# --- no step growth right after a rejection ---------------------------------
# DOP853 caps the controller factor at 1 on the accepted step that follows a
# rejected attempt; the exponential method keeps the plain rule.

def _logged_attempts(monkeypatch, method):
    """Each attempt of integrate_adaptive with the step method method
    ("_dop853" or "_exponential"), as (h, err_norm); err_norm is None where
    a value was not finite."""
    log = []
    make = getattr(_rk, method)

    def logging(*args):
        size, attempt, *rest = make(*args)

        def logged(t, y, h, t_new):
            err_norm, pieces = attempt(t, y, h, t_new)
            log.append((h, err_norm))
            return err_norm, pieces

        return (size, logged, *rest)

    monkeypatch.setattr(_rk, method, logging)
    return log


def _after_rejections(log):
    """(h, the next attempt's h) of each accepted attempt that follows a
    rejected one, and its rejections by kind (non-finite, error norm)."""
    ok = [e is not None and e <= 1.0 for _, e in log]
    pairs = [(log[i][0], log[i + 1][0]) for i in range(1, len(log) - 1)
             if ok[i] and not ok[i - 1]]
    return pairs, (sum(e is None for _, e in log),
                   sum(e is not None and e > 1.0 for _, e in log))


def _decay_with_nan_below_zero(t, y):
    # y' = -y stays positive; stage inputs of a long step overshoot below 0
    return -y if y[0] >= 0.0 else y * np.nan


# kind: the rejections each run makes, 0 non-finite and 1 by the error norm
@pytest.mark.parametrize("rhs, args, tol, kind", [
    (_decay_with_nan_below_zero, (0.0, [1.0], 200.0), 1e-6, 0),
    (bo.canonical(2.0, bo.make_nonlinearity("piecewise")).rhs(),
     (0.0, [0.9, -3.1, 2.2, -0.4], 100.0), 1e-7, 1)],
    ids=["nan-region", "error-norm"])
def test_dop853_step_does_not_grow_right_after_a_rejection(monkeypatch, rhs,
                                                           args, tol, kind):
    log = _logged_attempts(monkeypatch, "_dop853")
    raw = integrate_adaptive(rhs, *args, rtol=tol, atol=tol)
    assert raw.termination == REACHED_T_END
    pairs, rejections = _after_rejections(log)
    assert rejections[kind] > 20
    assert len(pairs) > 20
    assert all(h_next <= h for h, h_next in pairs), pairs


def _column_by_column(funs):
    """rhs_of for _rk.integrate_lanes from one bare-state rhs per lane:
    a call on (n, S) columns evaluates each column alone, in order."""
    def rhs_of(cols):
        def rhs(t, y):
            if y.ndim == 1:
                return funs[cols[0]](t, y)
            shape = y.shape[1:]
            return np.column_stack([funs[c](tj, yj) for c, tj, yj in zip(
                np.broadcast_to(cols, shape).tolist(),
                np.broadcast_to(t, shape).tolist(), y.T)])
        return rhs
    return rhs_of


@pytest.mark.parametrize("make, args, tol", [
    (lambda: _CountingRhs(_decay_with_nan_below_zero), (0.0, [1.0], 200.0), 1e-6),
    (lambda: _CountingRhs(rhs_oscillator, bad_calls=(26, 63)),
     (0.0, [1.0, 0.0], 10.0), 1e-8)],
    ids=["nan-region", "spoiled-calls"])
def test_lone_run_equals_its_lane_of_a_batch(make, args, tol):
    # a lone lane and a batched one reject by one rule, all 12 stages
    # evaluated first, so they take the same steps and make the same rhs
    # calls; the other lane runs longer, so this one is batched to its end
    t0, y0, t_end = args
    alone_rhs, lane_rhs = make(), make()
    alone = integrate_adaptive(alone_rhs, *args, rtol=tol, atol=tol)
    lanes = [_rk.Lane(t0, y0, t_end, tol, tol),
             _rk.Lane(t0, [0.5 * v for v in y0], 2.0 * t_end, tol, tol)]
    run, other = _rk.integrate_lanes(_column_by_column([lane_rhs, make()]), lanes)
    assert run.termination == other.termination == REACHED_T_END
    assert run.n_rejected == alone.n_rejected > 0
    for name in ("ts", "ys"):
        assert getattr(run, name).tobytes() == getattr(alone, name).tobytes(), name
    assert lane_rhs.calls == alone_rhs.calls


def _cubic_with_nan_outside_the_orbit(t, y):
    # N of p'' = -p - p^3 / 2 from p = 1, v = 0, where |p| <= 1
    return np.array([0.0, -0.5 * y[0] ** 3 if abs(y[0]) <= 1.0001 else np.nan])


def _cubic_with_a_forcing_jump(t, y):
    return np.array([0.0, -y[0] ** 3 + (np.sin(5.0 * t) if t > 3.0 else 0.0)])


@pytest.mark.parametrize("rhs, y0, t_end, blocks", [
    (_cubic_with_nan_outside_the_orbit, [1.0, 0.0], 20.0, OSCILLATOR_BLOCKS),
    (_cubic_with_a_forcing_jump, [0.8, 0.0], 10.0,
     _rk.LinearBlocks([[1.0]], [[0.3]]))],
    ids=["nan-region", "error-norm"])
def test_exponential_steps_keep_growing_after_a_rejection(monkeypatch, rhs, y0,
                                                          t_end, blocks):
    # the plain rule of the reference loop, bit for bit, and h does grow
    # right after some rejection
    log = _logged_attempts(monkeypatch, "_exponential")
    raw = _assert_matches_reference_run(rhs, 0.0, y0, t_end, rtol=1e-6,
                                        atol=1e-6, linear=blocks)
    assert raw.termination == REACHED_T_END
    pairs, _ = _after_rejections(log)
    assert any(h_next > h for h, h_next in pairs), pairs


def test_exponential_rhs_calls_are_fixed_by_the_method(monkeypatch):
    # the nan-region run, pinned at its steps so that no edit of the
    # reference loop can hide a change of them: 2 calls before the first
    # attempt (N at t0, the initial step's probe), 13 in every attempt,
    # however it ends, and N at the start of each attempt after an accepted one
    args = (0.0, [1.0, 0.0], 20.0)
    kwargs = dict(rtol=1e-6, atol=1e-6, linear=OSCILLATOR_BLOCKS)
    log = _logged_attempts(monkeypatch, "_exponential")
    rhs = _CountingRhs(_cubic_with_nan_outside_the_orbit)
    raw = integrate_adaptive(rhs, *args, **kwargs)
    assert (len(raw.ts) - 1, raw.n_rejected) == (138, 1)
    accepted = [e is not None and e <= 1.0 for _, e in log]
    assert rhs.calls == 2 + 13 * len(log) + sum(accepted[:-1]) == 980
    _assert_matches_reference_run(_cubic_with_nan_outside_the_orbit, *args,
                                  **kwargs)


def test_exponential_attempt_rejects_a_stage_input_that_n_clamps(monkeypatch):
    # N is finite everywhere, as it maps a non-finite state to 0. The last
    # two stages of attempt 1's first half step (calls 9 and 10) are 1e308;
    # D1 = 4 n5 - n4 - 3 f overflows, and so does that step's end, the input
    # of N at the midpoint (call 11) and of the second half step's stages.
    # Only the one non-finite check rejects that attempt: its stages are
    # finite, and the step ends on the linear flow
    calls = []

    def clamped(t, y):
        calls.append(t)
        if not np.all(np.isfinite(y)):
            return np.zeros(2)
        return np.array([0.0, 1e308 if len(calls) in (9, 10) else 0.0])

    log = _logged_attempts(monkeypatch, "_exponential")
    raw = integrate_adaptive(clamped, 0.0, [1.0, 0.0], 1.0, rtol=1e-6,
                             atol=1e-6, linear=OSCILLATOR_BLOCKS)
    assert log[0][1] is None and [e for _, e in log[1:]].count(None) == 0
    assert raw.termination == REACHED_T_END and raw.n_rejected == 1


def test_exponential_size_rounds_down_where_log2_rounds_up():
    # the float just below a rung, where math.log2 rounds up to the rung
    # for 188 of the rungs -200 .. 39, is on the rung below
    blocks = _rk.LinearBlocks(np.ones((1, 1)), np.zeros((1, 1)))
    size, *_ = _rk._exponential(None, np.zeros(2), np.zeros(2), 1e-6, 1e-6,
                                blocks)
    below = {r: math.nextafter(_rk._rung(r), 0.0) for r in range(-200, 40)}
    rounded_up = [r for r, h in below.items()
                  if math.floor(_rk._RUNGS * math.log2(h)) == r]
    assert len(rounded_up) == 188 and 39 in rounded_up
    for r in rounded_up:
        assert size(0.0, below[r], math.inf) == (_rk._rung(r - 1),) * 2


def _modal_system(cfg, y0, switch):
    """One switch segment of the unforced modal system: its nonlinear part
    N, its linear blocks and the whole rhs L y + N."""
    M = cfg.modes_M
    proj, _err = truebeam._make_projector(cfg, y0)
    nonlinear = truebeam._make_rhs(cfg, proj, lambda t: 0.0, np.zeros((2, M)))
    blocks = truebeam._linear_blocks(cfg, switch, ())
    k = blocks.stiffness
    c = np.broadcast_to(blocks.damping, k.shape)

    def full(t, y):
        if y.ndim == 2:  # (n, S) columns, as the dense stages ask, one at a time
            return np.stack([full(*arg) for arg in zip(t, y.T)], axis=1)
        p, v = y.reshape(2, 2, M)[:, 0], y.reshape(2, 2, M)[:, 1]
        return np.stack([v, -k * p - c * v], axis=1).reshape(-1) + nonlinear(t, y)

    return nonlinear, blocks, full


def test_step_loop_matches_reference_on_truebeam_segment():
    # the stiff 16-state modal system of a switch segment as one rhs
    # (truebeam itself takes the exponential path)
    M = 4
    cfg = truebeam.TrueBeamConfig(
        geom=plate.PlateGeom(0.5, 0.05, 0.2),
        nl=bo.make_nonlinearity("cubic", epsilon=1.0), threshold_Ebar=1.0,
        damping_delta=0.5, forcing=None, modes_M=M)
    st0 = truebeam.ModalState(0.0, np.linspace(0.4, 0.1, M), np.zeros(M),
                              np.linspace(0.3, -0.1, M), np.zeros(M))
    _, _, full = _modal_system(cfg, st0.packed, 1)
    raw = _assert_matches_reference_run(
        full, 0.0, st0.packed, 0.2, rtol=1e-9, atol=1e-9,
        stop_indices=tuple(range(4 * M)),
        stop_threshold=truebeam.BLOWUP_MODAL_NORM)
    assert raw.termination == REACHED_T_END and len(raw.ts) > 200


def _truebeam_switching(M):
    """The benchmark's truebeam-switching run at M, from a_1 = b_1 = 1."""
    ramp = ((0.0, 0.0), (1.0, 10.0), (2.0, 0.0))
    cfg = truebeam.TrueBeamConfig(
        geom=plate.PlateGeom(0.5, 0.05, 0.2),
        nl=bo.make_nonlinearity("cubic", epsilon=1.0), threshold_Ebar=1.25,
        damping_delta=0.5, forcing=truebeam.GustForcing(breakpoints=ramp),
        modes_M=M)
    a, b = np.zeros(M), np.zeros(M)
    a[0] = b[0] = 1.0
    return truebeam.integrate_truebeam(
        cfg, truebeam.ModalState(0.0, a, np.zeros(M), b, np.zeros(M)), 3.0)


@pytest.mark.parametrize("M", [1, 4, 8])
def test_exponential_loop_matches_reference_on_truebeam_switching(monkeypatch, M):
    # the benchmark's truebeam-switching run: three switch segments, of
    # which the last two hold a kink of the gust ramp
    calls = _captured_stepper_calls(monkeypatch, truebeam)
    traj = _truebeam_switching(M)
    assert traj.termination == REACHED_T_END and len(traj.events) == 2
    assert [any(lo < tk < hi for tk in kw["linear"].kinks)
            for _, (lo, _, hi), kw in calls] == [False, True, True]
    _assert_matches_reference(calls)


@pytest.mark.parametrize("M", [1, 4, 8])
def test_exponential_loop_matches_reference_on_a_warm_rung_store(monkeypatch, M):
    # the same runs, their rungs' phis and weights read from the store that
    # runs at every M filled before (the reference loop builds its own)
    for m in (1, 4, 8):
        _truebeam_switching(m)
    calls = _captured_stepper_calls(monkeypatch, truebeam)
    assert _truebeam_switching(M).termination == REACHED_T_END
    _assert_matches_reference(calls)


def test_the_rung_store_tells_block_shapes_apart():
    # stiffness [[1, 4]] and [[1], [4]] (and their damping) have the same
    # bytes but lay the state out differently: a run on either, after one
    # on the other, is its run on an empty store
    def run(k):
        return integrate_adaptive(
            lambda t, y: -0.5 * y ** 3, 0.0, [1.0, 0.5, 0.0, -0.5], 5.0,
            rtol=1e-8, atol=1e-8, linear=_rk.LinearBlocks(k, [[0.1]]))

    shapes = ([[1.0, 4.0]], [[1.0], [4.0]])
    cold = []
    for k in shapes:
        _rk._shared_weights.cache_clear()
        cold.append(run(k))
    for k, first in zip(shapes[::-1], cold[::-1]):
        _assert_same_run(run(k), first, ("ts", "ys", "_hs", "_stages"))
    assert _rk._shared_weights.cache_info().currsize == 2


def test_a_cold_first_rung_builds_two_octaves_of_weights_in_one_batch(
        monkeypatch):
    # on an empty store, the first attempt's rung brings the weights of every
    # rung of its octave and of the octave below, from one batch of phis at
    # their sizes and half sizes; the last step, cut short at t_end, builds
    # its own, which stay out of the shared store
    def on_the_ladder(h):
        return math.ldexp(h, 1 - math.frexp(h)[1]) in _rk._LADDER

    batches, built = [], []  # taus of each phi batch; (batches before, h)
    phi_matrices, ho5_weights = _rk._phi_matrices, _rk._ho5_weights

    def counted_phi(blocks, tau):
        batches.append(tau.ravel().tolist())
        return phi_matrices(blocks, tau)

    def counted_weights(half, whole, h):
        built.append((len(batches), h))
        return ho5_weights(half, whole, h)

    monkeypatch.setattr(_rk, "_phi_matrices", counted_phi)
    monkeypatch.setattr(_rk, "_ho5_weights", counted_weights)
    k, c = np.array([[1.0, 4.0]]), np.full((1, 2), 0.1)
    raw = integrate_adaptive(
        lambda t, y: -0.5 * y ** 3, 0.0, [1.0, 0.5, 0.0, -0.5], 5.0,
        rtol=1e-8, atol=1e-8, linear=_rk.LinearBlocks(k, c))
    assert raw.termination == REACHED_T_END
    first = [h for batch, h in built if batch == 1]
    octave = math.frexp(first[0])[1] - 1
    assert first == [math.ldexp(x, octave - below) for below in (0, 1)
                     for x in _rk._LADDER]
    assert sorted(batches[0]) == sorted({tau for h in first for tau in (h, 0.5 * h)})
    store = _rk._shared_weights(k.shape, k.tobytes(), c.tobytes())
    cut = {2.0 * h for h in raw._hs.tolist() if not on_the_ladder(h)}
    assert cut and cut <= {h for _, h in built}
    assert set(first) <= set(store) and all(map(on_the_ladder, store))


@pytest.mark.parametrize("threshold, termination", [
    (1e6, BLOWUP_DETECTED), (np.inf, STEP_UNDERFLOW)])
def test_exponential_loop_matches_reference_on_cubic_blowup(threshold,
                                                            termination):
    # p'' = -p + p^3 from p = 2 blows up in finite time
    raw = _assert_matches_reference_run(
        lambda t, y: np.array([0.0, y[0] ** 3]), 0.0, [2.0, 0.0], 5.0,
        linear=OSCILLATOR_BLOCKS, stop_indices=(0,), stop_threshold=threshold)
    assert raw.termination == termination


def test_exponential_loop_matches_reference_on_non_finite_stages():
    # p'' = -p - 0.3 p' - p^3 + sin 3t. While every attempt is rejected,
    # attempt j + 1 makes calls 3 + 13 j + i: i = 0-3 are the stages of the
    # whole step, 4-7 those of the first half step, 8 is N at its end and
    # 9-12 are the stages of the second half step (an attempt after an
    # accepted one first makes one more call, N at its start). Every stage
    # is evaluated, so 5 spoils stage 2 of the whole step of attempt 1, 22
    # stage 2 of the first half step of attempt 2, 37 N at the midpoint in
    # attempt 3 and 53 stage 2 of the second half step of attempt 4
    blocks = _rk.LinearBlocks([[1.0]], [[0.3]])
    raw = _assert_matches_reference_run(
        lambda t, y: np.array([0.0, -y[0] ** 3 + np.sin(3.0 * t)]), 0.0,
        [0.8, 0.0], 2.0, bad_calls=(5, 22, 37, 53), rtol=1e-8, atol=1e-8,
        linear=blocks)
    assert raw.termination == REACHED_T_END and raw.n_rejected == 4


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
    assert 7.5 <= -slope <= 10.0, (steps, errors)


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


def _bisect(fun, a, b, tol):
    """Root of a sign-changing scalar function on [a, b] to absolute tol in t,
    or to adjacent floats where tol is below their spacing; the reference
    for component_zeros."""
    fa, fb = fun(a), fun(b)
    if fa == 0.0:
        return a
    if fb == 0.0:
        return b
    if fa * fb > 0.0:
        raise ValueError("bisect needs a sign change")
    while b - a > tol:
        m = 0.5 * (a + b)
        if not a < m < b:
            break
        fm = fun(m)
        if fm == 0.0:
            return m
        if fa * fm < 0.0:
            b = m
        else:
            a, fa = m, fm
    return 0.5 * (a + b)


def test_component_zeros_equal_bisection_of_the_full_state(fig12):
    # each zero bisects one component of its own step's interpolant; the
    # midpoints stay inside the step and the arithmetic is elementwise, so
    # bisecting the full-state eval gives the same zeros bit for bit
    traj = fig12[2]
    w = traj.ys[:, 0]
    steps = np.flatnonzero(w[:-1] * w[1:] < 0.0)
    full = [_bisect(lambda t: traj.eval(t)[0], traj.ts[i], traj.ts[i + 1],
                    traj.ZERO_TOL) for i in steps]
    assert len(full) > 5
    assert np.array(traj.events).tobytes() == np.array(full).tobytes()


# --- scipy DOP853 oracles -------------------------------------------------

def _captured_run(monkeypatch, module, run):
    """run() with module's stepper calls recorded: its result, and the rhs
    and arguments of its one stepper call."""
    calls = _captured_stepper_calls(monkeypatch, module)
    result = run()
    assert len(calls) == 1
    return result, calls[0]


def _figure12(monkeypatch):
    return _captured_run(monkeypatch, ode4, lambda: bo.integrate(
        bo.canonical(3.0, bo.make_nonlinearity("cubic", epsilon=1.0)),
        [1.0, 0.0, 0.0, 0.0], bo.IntegratorConfig(t_end=20.0)))


def _figure13(monkeypatch):
    return _captured_run(monkeypatch, ode4, lambda: bo.integrate(
        bo.canonical(3.6, bo.make_nonlinearity("cubic", epsilon=1.0)),
        [0.9, 0.0, 0.0, 0.0], bo.IntegratorConfig(t_end=120.0)))


def _criterion_7(monkeypatch):
    cfg = bo.IntegratorConfig(t_end=500.0, rel_tol=1e-7, abs_tol=1e-7,
                              blowup_threshold=1e300)
    return _captured_run(monkeypatch, ode4, lambda: bo.integrate(
        bo.canonical(2.0, bo.make_nonlinearity("piecewise")),
        [0.9, -3.1, 2.2, -0.4], cfg))


def _scipy_dop853(call, tol=None, w=lambda y: y[0]):
    """scipy's DOP853 on a recorded stepper call, at the call's tolerances
    or at rtol = atol = tol, stopped where the call's threshold is reached;
    the zeros of w(y) are its first events."""
    integrate = pytest.importorskip("scipy.integrate")
    rhs, (t0, y0, t_end), kw = call
    tol = tol or kw["rtol"]
    stop_idx = list(kw["stop_indices"])

    def stop(t, y):
        return np.abs(y[stop_idx]).max() - kw["stop_threshold"]

    stop.terminal = True
    return integrate.solve_ivp(rhs, (t0, t_end), y0, method="DOP853",
                               rtol=tol, atol=tol,
                               events=[lambda t, y: w(y), stop])


@pytest.mark.parametrize("run", [_figure12, _figure13, _criterion_7],
                         ids=["figure12", "figure13", "criterion-7"])
def test_accepted_steps_match_scipy_dop853(monkeypatch, run):
    traj, call = run(monkeypatch)
    sol = _scipy_dop853(call)
    # 1: stopped by the threshold event, 0: reached t_end
    assert sol.status == int(traj.termination == BLOWUP_DETECTED)
    steps, ref = len(traj.ts) - 1, len(sol.t) - 1
    assert abs(steps - ref) <= 0.05 * ref, (steps, ref)


def test_criterion_7_rejects_no_more_than_scipy_dop853(monkeypatch):
    integrate = pytest.importorskip("scipy.integrate")
    traj, (rhs, (t0, y0, t_end), kw) = _criterion_7(monkeypatch)
    # no events, so scipy calls rhs once for the first slope, once for its
    # initial step and 12 times per attempt
    sol = integrate.solve_ivp(rhs, (t0, t_end), y0, method="DOP853",
                              rtol=kw["rtol"], atol=kw["atol"])
    ref = (sol.nfev - 2) // 12 - (len(sol.t) - 1)
    assert traj.n_rejected <= 1.1 * ref, (traj.n_rejected, ref)


def _assert_blowup_near_reference(report, sol):
    """R_est and the zeros against a tight scipy run whose event zeros go
    through the same estimator; the Dormand-Prince 5(4) pair met this too."""
    zeros = list(sol.t_events[0])
    ref = ode4._estimate_blowup_time(
        types.SimpleNamespace(t_end=sol.t[-1], ts=sol.t, states=sol.y.T), zeros)
    assert len(report.zeros) == len(zeros) >= 4
    assert np.abs(np.array(report.zeros) - zeros).max() <= 2e-9
    assert abs(report.R_est - ref) <= 2e-9, (report.R_est, ref)


def test_figure12_blowup_time_matches_tight_scipy_dop853(monkeypatch):
    traj, call = _figure12(monkeypatch)
    sol = _scipy_dop853(call, tol=1e-13)
    _assert_blowup_near_reference(bo.detect_blowup(traj), sol)


def test_figure16_blowup_time_matches_tight_scipy_dop853(monkeypatch):
    params = systems.MiosystParams(beta=-1.0, delta=1.0)
    nl = bo.make_nonlinearity("cubic", epsilon=0.1)
    traj, call = _captured_run(
        monkeypatch, systems, lambda: systems.integrate_miosyst(
            params, nl, [1.0, 1.0, 0.0, -1.0], bo.IntegratorConfig(t_end=10.0)))
    mat = systems.reduction_matrix(params)
    sol = _scipy_dop853(call, tol=1e-13, w=lambda y: mat[0] @ y)
    sol.y = mat @ sol.y  # the reduced (w, w', w'', w''')
    reduced = systems.to_fourth_order(params, nl, traj)
    _assert_blowup_near_reference(bo.detect_blowup(reduced), sol)


# --- dense output built on read ----------------------------------------------
# A step's three dense stages are rhs calls made the first time something
# reads the step, never in the step loop.

def _loop_calls(raw):
    """rhs calls of a DOP853 run whose attempts all make their 12 stages:
    the first slope, the initial-step probe and 12 per attempt."""
    return 2 + 12 * (len(raw.ts) - 1 + raw.n_rejected)


def _counted_runs(monkeypatch, module):
    """Each integrate_adaptive call made through module, its rhs counted:
    a list of (_CountingRhs, result)."""
    runs = []

    def counting(rhs, *args, **kwargs):
        counter = _CountingRhs(rhs)
        runs.append((counter, integrate_adaptive(counter, *args, **kwargs)))
        return runs[-1][1]

    monkeypatch.setattr(module, "integrate_adaptive", counting)
    return runs


def test_run_without_sign_change_makes_no_dense_stage_calls(monkeypatch):
    runs = _counted_runs(monkeypatch, ode4)
    # w = 1 - t^4 / 24 + ... stays positive up to t = 0.5
    traj = bo.integrate(bo.canonical(3.0, bo.make_nonlinearity("linear")),
                        [1.0, 0.0, 0.0, 0.0], bo.IntegratorConfig(t_end=0.5))
    report = bo.detect_blowup(traj)
    [(rhs, raw)] = runs
    assert traj.events == [] and not report.blew_up and len(traj.ts) > 3
    assert rhs.calls == _loop_calls(raw)


def test_component_zeros_builds_each_bracketing_step_once():
    rhs = _CountingRhs(rhs_oscillator)
    raw = integrate_adaptive(rhs, 0.0, [1.0, 0.0], 10.0)
    loop = rhs.calls
    assert loop == _loop_calls(raw)
    w = raw.ys[:, 0]
    brackets = np.count_nonzero(w[:-1] * w[1:] < 0.0)
    zs = raw.component_zeros(0)
    assert len(zs) == brackets == 3 and rhs.calls == loop + 3 * brackets
    assert raw.component_zeros(0) == zs and rhs.calls == loop + 3 * brackets


def test_detect_blowup_builds_the_steps_it_reads_in_one_pass(monkeypatch):
    runs = _counted_runs(monkeypatch, ode4)
    traj = bo.integrate(bo.canonical(3.0, bo.make_nonlinearity("cubic", epsilon=1.0)),
                        [1.0, 0.0, 0.0, 0.0], bo.IntegratorConfig(t_end=20.0))
    [(rhs, raw)] = runs
    w = traj.ys[:, 0]
    assert rhs.calls == _loop_calls(raw) + 3 * np.count_nonzero(w[:-1] * w[1:] < 0.0)
    built, build = [], traj._build
    traj._build = lambda steps: built.append(len(steps)) or build(steps)
    before = rhs.calls
    first = bo.detect_blowup(traj)
    assert len(built) == 1 and rhs.calls == before + 3 * built[0]
    # the zero intervals cover all but the steps before the first zero and
    # after the last one
    assert 0 < built[0] + len(traj.events) < len(traj.ts) - 1
    assert bo.detect_blowup(traj) == first and len(built) == 1
    assert rhs.calls == before + 3 * built[0]


def test_step_buffers_grow_without_a_throwaway_copy():
    # 8 uncoupled oscillators over ~1,100 steps: the buffers double once
    # from 1,024 rows, which holds the old rows and the new buffer (3 old
    # sizes); concatenating an empty block first held 4
    import tracemalloc
    n = 16

    def rhs(t, y):
        return np.concatenate([y[n // 2:], -y[:n // 2]])

    tracemalloc.start()
    try:
        raw = integrate_adaptive(rhs, 0.0, np.ones(n), 11.0, rtol=1e-3,
                                 atol=1e-3, max_step=0.01)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert 1024 < len(raw.ts) < 2048
    old = 1024 * (1 + 9) * n * 8  # the rows of Y and R before the doubling
    assert peak < 3.5 * old, peak / old


def test_spoiled_dense_stage_reads_as_nan_on_its_step_only():
    # as in Hairer's code the dense stages go unchecked: a spoiled one makes
    # its step's interpolant NaN once the step is read, and no other one
    args = (0.0, [1.0, 0.0], 10.0)
    clean = integrate_adaptive(rhs_oscillator, *args, rtol=1e-8, atol=1e-8)
    rhs = _CountingRhs(rhs_oscillator)
    raw = integrate_adaptive(rhs, *args, rtol=1e-8, atol=1e-8)
    loop = rhs.calls
    rhs.bad_calls = {loop + 2}  # stage 14 of the first step read
    s = len(raw.ts) // 2
    with np.errstate(all="raise"):
        assert np.all(np.isnan(raw.eval(0.5 * (raw.ts[s] + raw.ts[s + 1]))))
    assert rhs.calls == loop + 3
    others = np.delete(np.arange(len(raw.ts) - 1), s)
    assert np.all(np.isnan(raw._rcont[s, 4:]))
    assert raw._rcont[others].tobytes() == clean._rcont[others].tobytes()
    tq = np.linspace(0.0, 10.0, 101)
    tq = tq[(tq < raw.ts[s]) | (tq > raw.ts[s + 1])]
    assert raw.eval(tq).tobytes() == clean.eval(tq).tobytes()
    assert raw.ys.tobytes() == clean.ys.tobytes()


def _miosyst(monkeypatch):
    params = systems.MiosystParams(beta=-1.0, delta=1.0)
    nl = bo.make_nonlinearity("cubic", epsilon=0.1)
    return _captured_run(monkeypatch, systems, lambda: systems.integrate_miosyst(
        params, nl, [1.0, 1.0, 0.0, -1.0], bo.IntegratorConfig(t_end=10.0)))


@pytest.mark.parametrize("run", [_figure12, _criterion_7, _miosyst],
                         ids=["figure12", "criterion-7", "miosyst"])
def test_steps_built_in_any_order_equal_the_eager_coefficients(monkeypatch, run):
    # a step's coefficients are the same bits whether built alone, in a
    # batch or with all steps at once in order. For miosyst this is checked
    # on the reduced trajectory of w = y - x, whose einsum over some steps
    # must match the einsum over the whole array.
    _, (rhs, args, kwargs) = run(monkeypatch)
    mat = systems.reduction_matrix(systems.MiosystParams(beta=-1.0, delta=1.0))
    mapped = run is _miosyst

    def fresh():
        raw = integrate_adaptive(rhs, *args, **kwargs)
        return raw.map_linear(mat) if mapped else raw

    eager = integrate_adaptive(rhs, *args, **kwargs)._rcont
    if mapped:
        eager = np.einsum("skn,mn->skm", eager, mat)
    steps = len(eager)
    assert steps > 80
    rng = np.random.default_rng(11)
    shuffled = rng.permutation(steps)
    cuts = np.sort(rng.choice(np.arange(1, steps), 9, replace=False))
    for batches in ([[i] for i in range(steps)[::-1]], np.split(shuffled, cuts)):
        traj = fresh()
        for batch in batches:
            traj._coefficients(np.asarray(batch))
        assert not traj._todo.any()
        assert traj._rcont.tobytes() == eager.tobytes()


# --- the exponential path -------------------------------------------------

def _phis(k, c, tau):
    """phi_0 .. phi_3 of tau [[0, 1], [-k, -c]] as (4, 2, 2) matrices."""
    blocks = _rk.LinearBlocks(np.array([[k]]), np.array([[c]]))
    (d0, d1), (o0, o1) = np.moveaxis(_rk._phi_matrices(blocks, np.array(tau)),
                                     1, 0).transpose(0, 2, 1)
    return np.array([[d0, o0], [o1, d1]]).transpose(2, 0, 1)


@pytest.mark.parametrize("k, c, tau", [
    (1.0, 0.5, 1e-9), (1.0, 0.5, 0.01), (4.0, 4.0, 1e-3), (4.0, 4.0, 2.0),
    (1558.5, 0.5, 0.05), (101.0, 100.0, 0.3), (1.0, 100.5, 10.0),
    (6.4e6, 100.5, 0.1), (2500.0, 100.0, 0.7)])
def test_phi_matrices_against_closed_forms(k, c, tau):
    A = np.array([[0.0, 1.0], [-k, -c]])
    Z = tau * A
    phi = _phis(k, c, tau)
    # e^Z in closed form: under-, over- and exactly critically damped
    s, d2 = -0.5 * c * tau, (0.25 * c * c - k) * tau * tau
    B = Z - s * np.eye(2)
    if d2 < 0.0:
        w = np.sqrt(-d2)
        expZ = np.exp(s) * (np.cos(w) * np.eye(2) + np.sin(w) / w * B)
    elif d2 > 0.0:
        d = np.sqrt(d2)
        expZ = np.exp(s) * (np.cosh(d) * np.eye(2) + np.sinh(d) / d * B)
    else:
        expZ = np.exp(s) * (np.eye(2) + B)
    scale = np.abs(expZ).max()
    assert np.abs(phi[0] - expZ).max() <= 1e-12 * scale
    # Z phi_(j+1) = phi_j - I / j!, checked in the scale of its terms
    for j in range(3):
        lhs = Z @ phi[j + 1]
        rhs = phi[j] - np.eye(2) / math.factorial(j)
        size = np.abs(Z).max() * np.abs(phi[j + 1]).max() + np.abs(phi[j]).max()
        assert np.abs(lhs - rhs).max() <= 1e-13 * size
    # small Z: the leading Taylor terms I / j! + Z / (j + 1)!
    if np.abs(Z).max() < 1e-6:
        for j in range(4):
            taylor = np.eye(2) / math.factorial(j) + Z / math.factorial(j + 1)
            assert np.abs(phi[j] - taylor).max() <= 1e-15


def test_phi_matrices_at_exact_critical_damping():
    # c^2 = 4 k: A = -c/2 I + N with N nilpotent, so e^(tau A) =
    # e^(-c tau/2) (I + tau N) and phi_1(Z) = phi_1(z) I + phi_1'(z) tau N
    k, c, tau = 100.0, 20.0, 0.3
    N = np.array([[0.0, 1.0], [-k, -c]]) + 0.5 * c * np.eye(2)
    assert np.all(N @ N == 0.0)
    z = -0.5 * c * tau
    phi1 = (math.exp(z) - 1.0) / z
    dphi1 = (math.exp(z) - phi1) / z
    phi = _phis(k, c, tau)
    assert np.allclose(phi[0], math.exp(z) * (np.eye(2) + tau * N),
                       rtol=0.0, atol=1e-15)
    assert np.allclose(phi[1], phi1 * np.eye(2) + dphi1 * tau * N,
                       rtol=0.0, atol=1e-15)


def test_phi_matrices_do_not_depend_on_the_batch():
    blocks = _rk.LinearBlocks(np.array([[1.0, 4.0e4], [101.0, 4.01e4]]),
                              np.array([[0.5], [100.5]]))
    taus = np.array([1e-7, 0.003, 0.05, 0.4])
    batch = _rk._phi_matrices(blocks, taus[:, None, None])
    for i, tau in enumerate(taus):
        one = _rk._phi_matrices(blocks, np.array([[[tau]]]))
        assert one[:, :, 0].tobytes() == batch[:, :, i].tobytes()


def test_exp_interpolate_computes_phi_once_per_distinct_tau(monkeypatch):
    # 12 steps of 4 sizes, 150 samples each at the fractions j / 150 (as
    # truebeam._sample lays them out), visited in a shuffled order: each
    # tau recurs on the 3 steps of its size, and the ~600 distinct ones
    # take three phi batches, each applied to its samples in slices
    blocks = _rk.LinearBlocks(np.array([[1.0, 40.0, 900.0], [2.0, 300.0, 4e4]]),
                              np.array([[0.5], [1.5]]))
    rng = np.random.default_rng(11)
    hs = np.tile([0.004, 0.01, 0.013, 0.04], 3)
    n = 12
    traj = _rk.ExpTrajectory(np.concatenate([[0.0], np.cumsum(hs)]),
                             rng.standard_normal((13, n)), hs,
                             rng.standard_normal((12, 3, n)), blocks,
                             REACHED_T_END, 0)
    parts = 150
    idx = np.repeat(np.arange(12), parts)
    theta = np.tile(np.arange(parts) / parts, 12)
    order = rng.permutation(idx.size)
    idx, theta = idx[order], theta[order]

    want = np.empty((idx.size, n))
    for row, (i, th) in enumerate(zip(idx, theta)):
        tau = th * hs[i]
        weights = _rk._phi_matrices(blocks, np.array([[[tau]]]))[:, :, 0]
        weights[1:] *= tau  # e, tau phi_1, tau phi_2, tau phi_3
        want[row] = _rk._exp_step_end(weights[None], traj.ys[i][None],
                                      traj._stages[i][None], np.array([th]),
                                      blocks.stiffness.shape)[0]

    taus, rows = [], []
    phi_matrices, exp_step_end = _rk._phi_matrices, _rk._exp_step_end

    def counted_phi(blocks, tau):
        taus.append(tau.ravel().copy())
        return phi_matrices(blocks, tau)

    def counted_end(phis, y, *args):
        rows.append(len(y))
        return exp_step_end(phis, y, *args)

    monkeypatch.setattr(_rk, "_phi_matrices", counted_phi)
    monkeypatch.setattr(_rk, "_exp_step_end", counted_end)
    got = traj._interpolate(idx, theta)
    assert got.tobytes() == want.tobytes()
    assert sum(rows) == idx.size and max(rows) <= _rk._EVAL_CHUNK
    distinct = np.unique(theta * hs[idx])
    assert distinct.size > 2 * _rk._EVAL_CHUNK
    assert len(taus) == -(-distinct.size // _rk._EVAL_CHUNK)
    assert all(t.size <= _rk._EVAL_CHUNK for t in taus)
    assert np.array_equal(np.concatenate(taus), distinct)


def _critical_cfg():
    # the square plate has lambda_1 = 1 exactly; kappa = 3 and delta = 1
    # give the constrained (torsional) block (delta + kappa)^2 = 4 (1 + kappa)
    geom = plate.PlateGeom(np.pi, np.pi / 2.0, 0.2)
    cfg = truebeam.TrueBeamConfig(
        geom=geom, nl=bo.make_nonlinearity("cubic", epsilon=0.5),
        threshold_Ebar=1.0, damping_delta=1.0, modes_M=1, bc_penalty_kappa=3.0)
    lam = cfg.lambdas()[0]
    assert lam == 1.0 and (1.0 + 3.0) ** 2 == 4.0 * (lam + 3.0)
    return cfg


def test_exponential_path_at_critical_damping_matches_dormand_prince():
    cfg = _critical_cfg()
    y0 = np.array([0.8, 0.0, 0.6, -0.5])
    nonlinear, blocks, full = _modal_system(cfg, y0, 1)
    ref = integrate_adaptive(full, 0.0, y0, 4.0, rtol=1e-12, atol=1e-12)
    raw = integrate_adaptive(nonlinear, 0.0, y0, 4.0, rtol=1e-10, atol=1e-10,
                             linear=blocks)
    assert raw.termination == REACHED_T_END and raw.ts[-1] == 4.0
    assert np.abs(raw.eval(ref.ts) - ref.ys).max() <= 1e-8
    # the interpolant meets every accepted step, and ends the last one on
    # the step's own result
    assert raw.eval(raw.ts[:-1]).tobytes() == raw.ys[:-1].tobytes()
    assert raw.eval(raw.ts[-1]).tobytes() == raw.ys[-1].tobytes()


def test_exponential_step_is_fourth_order_at_fixed_steps():
    # p'' = -p - 0.3 p' - p^3 + sin 3t; the error falls 16-fold per halving
    blocks = _rk.LinearBlocks(np.array([[1.0]]), np.array([[0.3]]))
    swap = _rk._swap(blocks)

    def nonlinear(t, y):
        return np.array([0.0, -y[0] ** 3 + np.sin(3.0 * t)])

    def full(t, y):
        return np.array([y[1], -y[0] - 0.3 * y[1]]) + nonlinear(t, y)

    exact = integrate_adaptive(full, 0.0, [0.8, 0.0], 2.0, rtol=1e-13,
                               atol=1e-13).ys[-1]
    errors = []
    X, U = np.empty((8, 2, 2)), np.empty((4, 2))
    for n in (20, 40, 80, 160):
        h, t, y = 2.0 / n, 0.0, np.array([0.8, 0.0])
        weights = _rk._ho5_weights(*np.moveaxis(_rk._phi_matrices(
            blocks, h * np.array([0.5, 1.0])[:, None, None]), 2, 0), h)
        for _ in range(n):
            y = _rk._ho5_step(nonlinear, weights, t, y, nonlinear(t, y), h,
                              t + h, X, U, swap)
            t += h
        errors.append(np.abs(y - exact).max())
    orders = np.log2(np.array(errors[:-1]) / errors[1:])
    assert np.all((3.9 <= orders) & (orders <= 4.1)), errors


def _factored_ho5_step(N, half, whole, t, y, f, h, swap):
    """One Hochbruck-Ostermann step in the factored form the method is
    written in: phi matrices applied to stage differences, summed as the
    formulas group them. Returns the new state and (f, D1, D2)."""
    def apply(mat, x):
        return mat[0] * x + mat[1] * x[swap]

    e_h, p1_h, p2_h, p3_h = half
    e, p1, p2, p3 = whole
    a52 = 0.5 * p2_h - p3 + 0.25 * p2 - 0.5 * p3_h
    a54 = 0.25 * p2_h - a52
    ey_h, p1f_h, t_mid = apply(e_h, y), apply(p1_h, f), t + 0.5 * h
    n2 = N(t_mid, ey_h + (0.5 * h) * p1f_h)
    n3 = N(t_mid, ey_h + h * (0.5 * p1f_h + apply(p2_h, n2 - f)))
    d23 = n2 + n3 - 2.0 * f
    n4 = N(t + h, apply(e, y) + h * (apply(p1, f) + apply(p2, d23)))
    n5 = N(t_mid, ey_h + h * (0.5 * p1f_h + apply(a52, d23) + apply(a54, n4 - f)))
    d1, d2 = 4.0 * n5 - 3.0 * f - n4, 4.0 * (f - 2.0 * n5 + n4)
    return (apply(e, y) + h * (apply(p1, f) + apply(p2, d1) + apply(p3, d2)),
            np.array([f, d1, d2]))


@pytest.mark.parametrize("M", [1, 4, 8])
def test_weighted_sum_step_matches_the_factored_formulas(M):
    # the bench geometry under its gust ramp, from a random state, at three
    # rungs of the ladder and on a step cut short at the ramp's kink t = 1
    ramp = ((0.0, 0.0), (1.0, 10.0), (2.0, 0.0))
    cfg = truebeam.TrueBeamConfig(
        geom=plate.PlateGeom(0.5, 0.05, 0.2),
        nl=bo.make_nonlinearity("cubic", epsilon=1.0), threshold_Ebar=1.25,
        damping_delta=0.5, forcing=truebeam.GustForcing(breakpoints=ramp),
        modes_M=M)
    y = np.random.default_rng(M).standard_normal(4 * M)
    proj, _err = truebeam._make_projector(cfg, y)
    N = truebeam._make_rhs(cfg, proj, cfg.forcing.amp, cfg.forcing.modal_load(M))
    blocks = truebeam._linear_blocks(cfg, -1, ())
    swap = _rk._swap(blocks)
    X, U = np.empty((8, 2, 4 * M)), np.empty((4, 4 * M))
    cut = 0.7 * _rk._rung(-64)
    for t, h in [(0.3, _rk._rung(r)) for r in (-72, -64, -56)] + [(1.0 - cut, cut)]:
        half, whole = np.moveaxis(_rk._phi_matrices(
            blocks, h * np.array([0.5, 1.0])[:, None, None]), 2, 0)
        f = N(t, y)
        want, record = _factored_ho5_step(N, half, whole, t, y, f, h, swap)
        got = _rk._ho5_step(N, _rk._ho5_weights(half, whole, h), t, y, f, h,
                            t + h, X, U, swap)
        assert np.abs(got - want).max() <= 1e-13 * np.abs(want).max(), h
        assert np.abs(X[5:, 0] - record).max() <= 1e-13 * np.abs(record).max(), h


def test_exponential_path_observed_order_on_a_smooth_cubic_run():
    M = 2
    cfg = truebeam.TrueBeamConfig(
        geom=plate.PlateGeom(np.pi, np.pi / 2.0, 0.2),
        nl=bo.make_nonlinearity("cubic", epsilon=1.0), threshold_Ebar=1.0,
        damping_delta=0.5, modes_M=M)
    y0 = np.array([0.8, 0.1, 0.0, 0.0, 0.6, -0.05, 0.0, 0.0])
    nonlinear, blocks, full = _modal_system(cfg, y0, 1)
    exact = integrate_adaptive(full, 0.0, y0, 8.0, rtol=1e-13, atol=1e-13).ys[-1]
    steps, errors = [], []
    for tol in (1e-6, 1e-7, 1e-8, 1e-9, 1e-10):
        raw = integrate_adaptive(nonlinear, 0.0, y0, 8.0, rtol=tol, atol=tol,
                                 linear=blocks)
        steps.append(len(raw.ts) - 1)
        errors.append(np.abs(raw.ys[-1] - exact).max())
    slope = np.polyfit(np.log(steps), np.log(errors), 1)[0]
    assert -slope >= 4.0, (steps, errors)


def test_exponential_path_stops_on_blowup_and_underflow():
    # p'' = -p + p^3 from p = 2 blows up in finite time
    blocks = _rk.LinearBlocks(np.array([[1.0]]), np.array([[0.0]]))

    def cube(t, y):
        return np.array([0.0, y[0] ** 3])

    raw = integrate_adaptive(cube, 0.0, [2.0, 0.0], 5.0, linear=blocks,
                             stop_indices=(0,), stop_threshold=1e6)
    assert raw.termination == BLOWUP_DETECTED and raw.ts[-1] < 5.0
    assert np.abs(raw.ys[-1, 0]) >= 1e6 > np.abs(raw.ys[-2, 0])
    raw = integrate_adaptive(cube, 0.0, [2.0, 0.0], 5.0, linear=blocks)
    assert raw.termination == STEP_UNDERFLOW
    assert np.all(np.isfinite(raw.ys)) and np.abs(raw.ys[-1, 0]) > 1e6


def test_exponential_path_rejects_blocks_that_do_not_fit_the_state():
    blocks = _rk.LinearBlocks(np.ones((1, 2)), np.zeros((1, 2)))
    with pytest.raises(InvalidParameterError):
        integrate_adaptive(lambda t, y: 0.0 * y, 0.0, np.zeros(6), 1.0,
                           linear=blocks)


def test_exponential_path_takes_one_lane():
    lanes = [_rk.Lane(0.0, [1.0, 0.0], 1.0), _rk.Lane(0.0, [0.5, 0.0], 1.0)]
    with pytest.raises(InvalidParameterError, match="one lane"):
        _rk.integrate_lanes(lambda idx: lambda t, y: 0.0 * y, lanes,
                            linear=OSCILLATOR_BLOCKS)
