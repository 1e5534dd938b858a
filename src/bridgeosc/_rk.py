"""Adaptive Dormand-Prince 5(4) stepper with dense output.

Fifth-order propagation with an embedded fourth-order error estimate and the
classic quartic continuous extension. Built for stiff amplitude growth near
finite-time blow-up: steps are rejected on non-finite stage values and the
run terminates cleanly when a monitored component crosses a threshold or the
accepted step underflows.
"""
from __future__ import annotations

import math

import numpy as np

from .errors import InvalidParameterError
from .io import write_csv

REACHED_T_END = "reached_t_end"
BLOWUP_DETECTED = "blowup_detected"
STEP_UNDERFLOW = "step_underflow"

# Dormand-Prince 5(4) tableau
_C = np.array([0.0, 1 / 5, 3 / 10, 4 / 5, 8 / 9, 1.0, 1.0])
_A = (
    np.array([1 / 5]),
    np.array([3 / 40, 9 / 40]),
    np.array([44 / 45, -56 / 15, 32 / 9]),
    np.array([19372 / 6561, -25360 / 2187, 64448 / 6561, -212 / 729]),
    np.array([9017 / 3168, -355 / 33, 46732 / 5247, 49 / 176, -5103 / 18656]),
    np.array([35 / 384, 0.0, 500 / 1113, 125 / 192, -2187 / 6784, 11 / 84]),
)
_B = np.array([35 / 384, 0.0, 500 / 1113, 125 / 192, -2187 / 6784, 11 / 84, 0.0])
_E = np.array([71 / 57600, 0.0, -71 / 16695, 71 / 1920, -17253 / 339200,
               22 / 525, -1 / 40])
# dense-output weights (Hairer's contd5)
_D = np.array([-12715105075 / 11282082432, 0.0, 87487479700 / 32700410799,
               -10690763975 / 1880347072, 701980252875 / 199316789632,
               -1453857185 / 822651844, 69997945 / 29380423])

_MIN_FACTOR = 0.2
_MAX_FACTOR = 5.0
_SAFETY = 0.9


class RawTrajectory:
    """Accepted samples plus per-step interpolation coefficients.

    The ODE, system and modal solvers return subclasses of it that name
    the state columns and add their own records.

    ts          (N,) strictly increasing accepted times
    ys, states  (N, n) accepted states
    termination one of reached_t_end / blowup_detected / step_underflow
    columns     CSV names of the n state columns, set by each subclass
    """

    columns: tuple = ()

    def __init__(self, ts, ys, rcont, termination, n_rejected=0):
        self.ts = ts
        self.ys = ys
        self._rcont = rcont  # (N-1, 5, n)
        self.termination = termination
        self.n_rejected = n_rejected

    def __len__(self):
        return len(self.ts)

    @property
    def states(self) -> np.ndarray:
        return self.ys

    @property
    def t_end(self) -> float:
        return float(self.ts[-1])

    def to_csv(self, path) -> None:
        """One row per accepted sample: t and the state columns."""
        write_csv(path, ["t", *self.columns], np.column_stack([self.ts, self.ys]))

    def eval(self, t):
        """Dense evaluation of the full state at time(s) t within the span."""
        t_arr = np.atleast_1d(np.asarray(t, dtype=float))
        if self._rcont.shape[0] == 0:
            out = np.broadcast_to(self.ys[0], (t_arr.size, self.ys.shape[1])).copy()
        else:
            idx = np.clip(np.searchsorted(self.ts, t_arr, side="right") - 1,
                          0, self._rcont.shape[0] - 1)
            h = self.ts[idx + 1] - self.ts[idx]
            th = ((t_arr - self.ts[idx]) / h)[:, None]
            rc = self._rcont[idx]
            out = rc[:, 0] + th * (rc[:, 1] + (1.0 - th)
                                   * (rc[:, 2] + th * (rc[:, 3] + (1.0 - th) * rc[:, 4])))
        return out[0] if np.isscalar(t) or np.ndim(t) == 0 else out

    def map_linear(self, mat):
        """New trajectory whose state is mat @ y; exact for the interpolant."""
        mat = np.asarray(mat, dtype=float)
        ys = self.ys @ mat.T
        rcont = np.einsum("skn,mn->skm", self._rcont, mat)
        return RawTrajectory(self.ts, ys, rcont, self.termination, self.n_rejected)

    def component_zeros(self, idx, tol=1e-9):
        """Times where component idx crosses zero, by bisection on the dense
        output between accepted samples of opposite sign."""
        w = self.ys[:, idx]
        zs = []
        for i in range(len(w) - 1):
            a, b = w[i], w[i + 1]
            if a == 0.0:
                continue
            if a * b < 0.0:
                zs.append(bisect(lambda t: self.eval(t)[idx],
                                 self.ts[i], self.ts[i + 1], tol))
            elif b == 0.0 and (i + 2 == len(w) or a * w[i + 2] < 0.0):
                zs.append(self.ts[i + 1])
        return zs


def bisect(fun, a, b, tol=1e-9):
    """Root of a sign-changing scalar function on [a, b] to absolute tol in t."""
    fa, fb = fun(a), fun(b)
    if fa == 0.0:
        return a
    if fb == 0.0:
        return b
    if fa * fb > 0.0:
        raise ValueError("bisect needs a sign change")
    while b - a > tol:
        m = 0.5 * (a + b)
        fm = fun(m)
        if fm == 0.0:
            return m
        if fa * fm < 0.0:
            b = m
        else:
            a, fa = m, fm
    return 0.5 * (a + b)


def _initial_step(rhs, t0, y0, f0, t_end, rtol, atol, max_step):
    # overflow here is benign: an inf slope estimate collapses h toward 0,
    # which the caller reports as inconsistent tolerances
    with np.errstate(over="ignore", invalid="ignore"):
        sc = atol + rtol * np.abs(y0)
        d0 = np.sqrt(np.mean((y0 / sc) ** 2))
        d1 = np.sqrt(np.mean((f0 / sc) ** 2))
        h0 = 1e-6 if (d0 < 1e-5 or d1 < 1e-5) else 0.01 * d0 / d1
        y1 = y0 + h0 * f0
        f1 = rhs(t0 + h0, y1)
        d2 = np.sqrt(np.mean(((f1 - f0) / sc) ** 2)) / h0
        if max(d1, d2) <= 1e-15:
            h1 = max(1e-6, h0 * 1e-3)
        else:
            h1 = (0.01 / max(d1, d2)) ** 0.2
    return min(100.0 * h0, h1, max_step, t_end - t0)


def _doubled(buf):
    """A copy of buf with room for as many rows again."""
    out = np.empty((2 * len(buf),) + buf.shape[1:])
    out[:len(buf)] = buf
    return out


def _dense_coefficients(ys, fs, hs, dks):
    """(N-1, 5, n) contd5 coefficients of every accepted step, from the
    accepted states ys, their rhs values fs, the step sizes hs and the
    per-step K.T @ _D; elementwise the same operations as one step at a time."""
    rcont = np.empty((len(hs), 5, ys.shape[1]))
    h = hs[:, None]
    y0, ydiff, bspl, c3, c4 = (rcont[:, j] for j in range(5))
    y0[...] = ys[:-1]
    np.subtract(ys[1:], ys[:-1], out=ydiff)
    np.multiply(h, fs[:-1], out=bspl)
    bspl -= ydiff                      # h*f0 - ydiff
    np.multiply(h, fs[1:], out=c3)
    np.subtract(ydiff, c3, out=c3)
    c3 -= bspl                         # ydiff - h*f1 - bspl
    np.multiply(h, dks, out=c4)        # h*dk
    return rcont


def integrate_adaptive(rhs, t0, y0, t_end, rtol=1e-10, atol=1e-10,
                       max_step=np.inf, stop_indices=(), stop_threshold=np.inf):
    """Integrate y' = rhs(t, y) from t0 to t_end with adaptive steps.

    Terminates early with blowup_detected once max over stop_indices of |y_i|
    reaches stop_threshold, or with step_underflow when the step size can no
    longer advance t. Underflow before any accepted step raises
    InvalidParameterError (inconsistent tolerances).
    """
    if not (rtol > 0.0 and atol > 0.0):
        raise InvalidParameterError("tolerances must be positive")
    y = np.array(y0, dtype=float)
    if not np.all(np.isfinite(y)):
        raise InvalidParameterError("initial state must be finite")
    n = y.size
    t = float(t0)
    t_end = float(t_end)
    if not np.isfinite(t_end):
        raise InvalidParameterError("t_end must be finite")
    if t_end <= t:
        raise InvalidParameterError("t_end must exceed t0")

    f = np.asarray(rhs(t, y), dtype=float)
    h = _initial_step(rhs, t, y, f, t_end, rtol, atol, max_step)
    ts = [t]
    hs = []  # accepted step sizes
    # row j: accepted state j, the rhs there (the FSAL stage) and K.T @ _D
    # of step j; grown by doubling, so a run holds no per-step arrays
    Y, F, DK = np.empty((3, 256, n))
    Y[0], F[0] = y, f
    K = np.empty((7, n))
    KT = K.T
    K_flat = K.reshape(-1)  # a view: it follows K
    # x * 0.0 is 0.0 for finite x and NaN for inf or NaN, so a dot product
    # with zeros is 0.0 exactly when every entry is finite (and is several
    # times cheaper than isfinite().all() on a handful of entries)
    zeros, zeros_K = np.zeros(n), np.zeros(7 * n)
    # stage i: (c_i, view of the earlier stages, tableau row), in order
    stages = [(float(_C[i]), K[:i].T, _A[i - 1]) for i in range(1, 7)]
    termination = REACHED_T_END
    n_rejected = 0

    stop_idx = np.array(stop_indices, dtype=np.intp)
    abs_y = np.abs(y)
    while t < t_end:
        h = min(h, t_end - t)
        if h <= 1e-14 * max(1.0, abs(t)):
            if len(ts) == 1:
                raise InvalidParameterError(
                    "step size underflow before any progress; tolerances "
                    "are inconsistent with the problem scale")
            termination = STEP_UNDERFLOW
            break

        K[0] = f
        failed = False
        for i, (c, k_prev, a) in enumerate(stages, 1):
            yi = y + h * (k_prev @ a)
            if yi.dot(zeros) != 0.0:
                failed = True
                break
            K[i] = rhs(t + c * h, yi)
        if failed or K_flat.dot(zeros_K) != 0.0:
            n_rejected += 1
            h *= 0.5
            continue

        y_new = y + h * (KT @ _B)
        abs_new = np.abs(y_new)
        q = h * (KT @ _E)
        q /= atol + rtol * np.maximum(abs_y, abs_new)
        # == np.sqrt(np.mean(q ** 2)) bitwise: the same pairwise sum over n
        err_norm = math.sqrt(float(np.add.reduce(q * q)) / n)
        if not math.isfinite(err_norm):
            n_rejected += 1
            h *= 0.5
            continue

        if err_norm <= 1.0:
            j = len(ts)
            if j == len(Y):
                Y, F, DK = (_doubled(b) for b in (Y, F, DK))
            DK[j - 1] = KT @ _D
            Y[j] = y_new
            F[j] = K[6]
            hs.append(h)
            t += h
            y, abs_y, f = y_new, abs_new, F[j]  # f: FSAL
            ts.append(t)
            if stop_idx.size and abs_y[stop_idx].max() >= stop_threshold:
                termination = BLOWUP_DETECTED
                break
        else:
            n_rejected += 1

        factor = _MAX_FACTOR if err_norm == 0.0 else _SAFETY * err_norm ** -0.2
        h *= min(_MAX_FACTOR, max(_MIN_FACTOR, factor))
        h = min(h, max_step)

    N = len(ts)
    rcont = _dense_coefficients(Y[:N], F[:N], np.asarray(hs), DK[:N - 1])
    return RawTrajectory(np.asarray(ts), Y[:N].copy(), rcont, termination,
                         n_rejected)
