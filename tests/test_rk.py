import numpy as np
import pytest

from bridgeosc._rk import (BLOWUP_DETECTED, REACHED_T_END, bisect,
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
