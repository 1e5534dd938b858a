"""A fixed reference kernel that tracks how fast the host runs right now.

On a shared host the same integration can take 120 ms in one minute and
220 ms in the next, in CPU time as well as wall time, because neighbours
contend for the cores and caches. A medians-of-wall-time metric then
measures the neighbours. The reference kernel below does the same kinds of
work as the program and slows down with it, so the ratio of a run's time
to the kernel's time, taken next to each other, stays put when the host's
speed drifts. Times are reported scaled to a host on which the kernel takes
REF_MS milliseconds.

The kernel lives in the benchmark, not in the program, so no change to the
program can change it.
"""
from __future__ import annotations

import statistics
import time

import numpy as np

# defines the reference host: about the kernel's time on a 2-vCPU Xeon
# shared with other tenants, so scaled times stay close to wall times there
REF_MS = 25.0
_A = np.array([[0.0, 1.0, 0.0, 0.0], [0.0, 0.0, 1.0, 0.0],
               [0.0, 0.0, 0.0, 1.0], [-1.0, 0.0, -2.0, 0.0]])
_M = np.random.default_rng(0).random((8, 8))
_GRID = np.linspace(-1.0, 1.0, 64)


class _Body:
    __slots__ = ("x", "v")

    def __init__(self, x, v):
        self.x, self.v = x, v


def _kernel():
    """Three parts of about equal time, one per kind of work the program
    does: a stepper on 4-vectors (the ODE solvers), plain Python objects
    and floats (the CLI, scenarios and writers), and 8-mode matrix and
    64-point grid arithmetic (the modal plate solver)."""
    y, h = np.array([1.0, 0.0, 0.0, 0.0]), 1e-3
    for _ in range(700):
        k1 = _A @ y
        k2 = _A @ (y + 0.5 * h * k1)
        k3 = _A @ (y + 0.5 * h * k2)
        k4 = _A @ (y + h * k3)
        y = y + h / 6.0 * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
    bodies, seen, acc = [_Body(float(i), 0.5) for i in range(50)], {}, 0.0
    for it in range(800):
        for b in bodies:
            b.v = b.v * 0.999 - 1e-3 * b.x
            b.x += 1e-3 * b.v
            acc += b.x if b.x > 0.0 else -b.x
        seen[it % 17] = acc
    z, s = np.ones(8), 0.0
    for _ in range(450):
        z = np.tanh(_M @ z) + 0.01 * z
        w = np.polyval([1.0, -0.5, 0.25], _GRID) * z.sum()
        s += float(np.dot(w, w)) ** 0.5
    return float(y[0]) + acc + s


def reference_ms():
    """Wall time of one kernel call, in ms."""
    t0 = time.perf_counter()
    _kernel()
    return (time.perf_counter() - t0) * 1e3


def scaled(ms, kernel_ms):
    """A time scaled to the reference host: ms * REF_MS / kernel_ms, with
    kernel_ms the kernel's time measured next to it."""
    return ms * REF_MS / kernel_ms


def scaled_runs(ms, refs):
    """Run times ms[i], each timed between kernel timings refs[i] and
    refs[i + 1], scaled by the median of those two and the one further out
    on each side: one 25 ms kernel timing jitters by about 20 %, the host's
    speed drifts over seconds."""
    return [scaled(t, statistics.median(refs[max(0, i - 1):i + 3]))
            for i, t in enumerate(ms)]
