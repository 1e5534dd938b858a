"""One adaptive step controller with two step methods: Dormand-Prince
8(5,3) with dense output, and an exponential Runge-Kutta method for
semilinear systems.

The controller, integrate_lanes, owns the step size and its acceptance,
rejects steps with non-finite values, and ends a run cleanly at a threshold
on monitored components, on step underflow or on its step budget. The
Dormand-Prince method (Hairer's DOP853) propagates at eighth order, blends
its embedded 5th- and 3rd-order error estimators and has a degree-7
continuous extension, whose three stages are left out of the step loop as in
Hairer's code: a trajectory evaluates them for the steps something reads,
one rhs call over those steps a stage. It also steps states as the lanes of
one (L, n) state, each bit for bit its own run. Given the linear part of
y' = L y + N(t, y) as damped 2x2 oscillator blocks, the five-stage
exponential method of Hochbruck and Ostermann (stiff order 4) solves the
linear flow exactly, so the step size follows N alone and not the stiffness
of L. Both methods keep one non-finite rule: an attempt evaluates all its
stages, and any non-finite stage input or stage then rejects it. Zeros of a
component are bisected on each bracketing step's interpolant.
"""
from __future__ import annotations

import math
from collections import namedtuple
from functools import lru_cache, partial
from typing import NamedTuple

import numpy as np

from .errors import InvalidParameterError
from .io import write_csv

REACHED_T_END = "reached_t_end"
BLOWUP_DETECTED = "blowup_detected"
STEP_UNDERFLOW = "step_underflow"
STEP_BUDGET = "step_budget"
MAX_STEPS = 1_000_000  # attempts of any run: ~850x criterion 7's k = 2 run

# Dormand-Prince 8(5,3), Hairer's DOP853. Stages 0-11 make the step; _A[12]
# is _B, so stage 12 is the rhs at the new state (the next step's stage 0);
# stages 13-15 serve only the degree-7 dense output (contd8). _A[i] weighs
# stages 0 .. i-1 in the input of stage i; stages 1-4 weigh 0 in stages 13-15
# and in _D.
_C = np.array([0.0, 0.05260015195876773, 0.0789002279381516, 0.1183503419072274,
               0.2816496580927726, 0.3333333333333333, 0.25, 0.3076923076923077,
               0.6512820512820513, 0.6, 0.8571428571428571, 1.0, 1.0, 0.1, 0.2,
               0.7777777777777778])
_A = [None] + [np.array(row) for row in (
    [0.05260015195876773],
    [0.0197250569845379, 0.0591751709536137],
    [0.02958758547680685, 0.0, 0.08876275643042054],
    [0.2413651341592667, 0.0, -0.8845494793282861, 0.924834003261792],
    [0.037037037037037035, 0.0, 0.0, 0.17082860872947386, 0.12546768756682242],
    [0.037109375, 0.0, 0.0, 0.17025221101954405, 0.06021653898045596, -0.017578125],
    [0.03709200011850479, 0.0, 0.0, 0.17038392571223998, 0.10726203044637328,
     -0.015319437748624402, 0.008273789163814023],
    [0.6241109587160757, 0.0, 0.0, -3.3608926294469414, -0.868219346841726,
     27.59209969944671, 20.154067550477894, -43.48988418106996],
    [0.47766253643826434, 0.0, 0.0, -2.4881146199716677, -0.590290826836843,
     21.230051448181193, 15.279233632882423, -33.28821096898486, -0.020331201708508627],
    [-0.9371424300859873, 0.0, 0.0, 5.186372428844064, 1.0914373489967295,
     -8.149787010746927, -18.52006565999696, 22.739487099350505, 2.4936055526796523,
     -3.0467644718982196],
    [2.273310147516538, 0.0, 0.0, -10.53449546673725, -2.0008720582248625,
     -17.9589318631188, 27.94888452941996, -2.8589982771350235, -8.87285693353063,
     12.360567175794303, 0.6433927460157636],
    [0.054293734116568765, 0.0, 0.0, 0.0, 0.0, 4.450312892752409, 1.8915178993145003,
     -5.801203960010585, 0.3111643669578199, -0.1521609496625161, 0.20136540080403034,
     0.04471061572777259],
    [0.056167502283047954, 0.0, 0.0, 0.0, 0.0, 0.0, 0.25350021021662483,
     -0.2462390374708025, -0.12419142326381637, 0.15329179827876568,
     0.00820105229563469, 0.007567897660545699, -0.008298],
    [0.03183464816350214, 0.0, 0.0, 0.0, 0.0, 0.028300909672366776,
     0.053541988307438566, -0.05492374857139099, 0.0, 0.0, -0.00010834732869724932,
     0.0003825710908356584, -0.00034046500868740456, 0.1413124436746325],
    [-0.42889630158379194, 0.0, 0.0, 0.0, 0.0, -4.697621415361164, 7.683421196062599,
     4.06898981839711, 0.3567271874552811, 0.0, 0.0, 0.0, -0.0013990241651590145,
     2.9475147891527724, -9.15095847217987])]
_B = _A[12]
_KEPT = [0, *range(5, 13)]  # the stages a step record keeps
# the 5th- and 3rd-order error estimators
_E5 = np.array([0.01312004499419488, 0.0, 0.0, 0.0, 0.0, -1.2251564463762044,
                -0.4957589496572502, 1.6643771824549864, -0.35032884874997366,
                0.3341791187130175, 0.08192320648511571, -0.022355307863886294])
_E3 = _B.copy()
_E3[[0, 8, 11]] -= [0.2440944881889764, 0.7338466882816118, 0.022058823529411766]
# contd8: the last four dense-output coefficients of a step are h * _D @ K
_D = np.array([
    [-8.428938276109013, 0.0, 0.0, 0.0, 0.0, 0.5667149535193777, -3.0689499459498917,
     2.38466765651207, 2.117034582445028, -0.871391583777973, 2.2404374302607883,
     0.6315787787694688, -0.08899033645133331, 18.148505520854727, -9.194632392478356,
     -4.436036387594894],
    [10.427508642579134, 0.0, 0.0, 0.0, 0.0, 242.28349177525817, 165.20045171727028,
     -374.5467547226902, -22.113666853125306, 7.733432668472264, -30.674084731089398,
     -9.332130526430229, 15.697238121770845, -31.139403219565178, -9.35292435884448,
     35.81684148639408],
    [19.985053242002433, 0.0, 0.0, 0.0, 0.0, -387.0373087493518, -189.17813819516758,
     527.8081592054236, -11.57390253995963, 6.8812326946963, -1.0006050966910838,
     0.7777137798053443, -2.778205752353508, -60.19669523126412, 84.32040550667716,
     11.99229113618279],
    [-25.69393346270375, 0.0, 0.0, 0.0, 0.0, -154.18974869023643, -231.5293791760455,
     357.6391179106141, 93.40532418362432, -37.45832313645163, 104.0996495089623,
     29.8402934266605, -43.53345659001114, 96.32455395918828, -39.17726167561544,
     -149.72683625798564]])


_MIN_FACTOR = 0.2
_MAX_FACTOR = 5.0
_SAFETY = 0.9

# Taylor terms of the phi functions at a spectral radius below 1: the first
# term left out is below 1 / 19! < 1e-17
_PHI_TERMS = 16
_INV_FACT = [1.0 / math.factorial(i) for i in range(_PHI_TERMS + 4)]
# dense-output points, or phi offsets tau, evaluated at once, which bounds
# their temporaries
_EVAL_CHUNK = 256
# exponential steps per octave of step size
_RUNGS = 8
_LADDER = [2.0 ** (j / _RUNGS) for j in range(_RUNGS)]
# block sets whose rung weights _shared_weights holds
_SHARED_SETS = 8


class LinearBlocks(NamedTuple):
    """Linear part L of y' = L y + N(t, y) for the exponential stepper.

    L is block-diagonal in damped oscillators p' = v, v' = -k p - c v with k
    from stiffness, of shape (G, M), and c from damping, which broadcasts to
    it: the state, reshaped to (G, 2, M), holds in each row the positions of
    that row's blocks and then their velocities. kinks are the times at which N
    is not smooth in t; no step crosses one.
    """

    stiffness: np.ndarray
    damping: np.ndarray
    kinks: tuple = ()


class RawTrajectory:
    """Accepted samples plus per-step interpolation coefficients.

    The ODE, system and modal solvers return subclasses of it that name
    the state columns and add their own records.

    ts          (N,) strictly increasing accepted times
    ys, states  (N, n) accepted states
    termination how the run ended (ode4.TERMINATIONS)
    columns     CSV names of the n state columns, set by each subclass

    rcont is the (N-1, 8, n) array of the steps' contd8 coefficients, or a
    function returning those of given steps (sorted distinct indices): then
    a step's coefficients are built the first time it is read, and kept.
    A DOP853 run builds them with its rhs: a pure function of (t, y) that
    also takes y as (n, S) columns, t as (S,), each column as if alone, and
    returns the n components as a list (floats, or (S,) rows for columns)
    or as an array, which the stepper writes straight into a stage row.
    The stepper may call it on the non-finite stage inputs of an attempt
    that it then rejects, and it must return there without raising.
    """

    columns: tuple = ()

    def __init__(self, ts, ys, rcont, termination, n_rejected=0):
        self.ts = ts
        self.ys = ys
        lazy = callable(rcont)
        self._build, self._todo = rcont, np.full(len(ts) - 1, lazy)  # unbuilt
        self._coef = np.empty((len(ts) - 1, 8, ys.shape[1])) if lazy else rcont
        self.termination = termination
        self.n_rejected = n_rejected

    def _coefficients(self, steps):
        """The (N-1, 8, n) coefficient array, built at least at steps."""
        # the unbuilt ones, sorted and distinct (the first np.unique call of
        # a process adds 1.7 MB of resident memory under numpy 2.4)
        new = np.zeros_like(self._todo)
        new[steps] = True
        new = np.flatnonzero(new & self._todo)
        if new.size:
            self._coef[new] = self._build(new)
            self._todo[new] = False
        return self._coef

    @property
    def _rcont(self):
        """The coefficients of every step, built where not read yet."""
        return self._coefficients(np.arange(len(self.ts) - 1))

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
        idx = np.clip(np.searchsorted(self.ts, t_arr, side="right") - 1,
                      0, len(self.ts) - 2)
        h = self.ts[idx + 1] - self.ts[idx]
        out = self._interpolate(idx, (t_arr - self.ts[idx]) / h)
        return out[0] if np.isscalar(t) or np.ndim(t) == 0 else out

    def _interpolate(self, idx, theta):
        """States at fractions theta of the steps idx, _EVAL_CHUNK at a time."""
        coef = self._coefficients(idx)
        out = np.empty((len(idx), self.ys.shape[1]))
        for lo in range(0, len(idx), _EVAL_CHUNK):
            at = slice(lo, lo + _EVAL_CHUNK)
            out[at] = _contd8(np.moveaxis(coef[idx[at]], 1, 0), theta[at, None])
        return out

    def map_linear(self, mat):
        """New trajectory whose state is mat @ y; exact for the interpolant,
        whose coefficients it maps step by step as they are read."""
        mat = np.asarray(mat, dtype=float)
        ys = self.ys @ mat.T
        return RawTrajectory(self.ts, ys, lambda steps: np.einsum(
            "skn,mn->skm", self._coefficients(steps)[steps], mat),
            self.termination, self.n_rejected)

    def component_zeros(self, idx, tol=1e-9):
        """Times where component idx crosses zero, in order: roots bisected
        to absolute tol in t (or to adjacent floats) on the interpolant of
        each step whose samples have opposite signs, and exactly-zero
        samples after a nonzero one that it crosses or that end the run."""
        w = self.ys[:, idx]
        ends_on_zero = (w[1:] == 0.0) & (w[:-1] != 0.0) & np.append(
            w[:-2] * w[2:] < 0.0, True)
        steps = np.flatnonzero((w[:-1] * w[1:] < 0.0) | ends_on_zero)
        rcont = self._coefficients(steps[w[steps + 1] != 0.0])  # the bisected
        ts, w = self.ts.tolist(), w.tolist()
        zs = []
        for i in steps.tolist():
            t0, t1 = lo, hi = ts[i], ts[i + 1]
            if w[i + 1] == 0.0:
                zs.append(t1)
                continue
            coef, f_lo = rcont[i, :, idx].tolist(), w[i]
            while hi - lo > tol:
                mid = 0.5 * (lo + hi)
                if not lo < mid < hi:
                    break
                f_mid = _contd8(coef, (mid - t0) / (t1 - t0))
                if f_mid == 0.0:
                    lo = hi = mid  # an exact root: 0.5 * (mid + mid) is mid
                elif f_lo * f_mid < 0.0:
                    hi = mid
                else:
                    lo, f_lo = mid, f_mid
            zs.append(0.5 * (lo + hi))
        return zs


class ExpTrajectory(RawTrajectory):
    """Accepted steps of the exponential stepper; eval is its interpolant,
    exact for the linear flow and third order in the variation of N."""

    def __init__(self, ts, ys, hs, stages, blocks, termination, n_rejected):
        super().__init__(ts, ys, None, termination, n_rejected)
        self._hs = hs  # (N-1,) the sizes the steps were taken with
        self._stages = stages  # (N-1, 3, n): N at the step start, D1, D2
        self.blocks = blocks

    def _coefficients(self, *args):  # not contd8, so component_zeros and _rcont fail
        raise TypeError(f"{type(self).__name__} has no contd8 coefficients")
    map_linear = _coefficients

    def _interpolate(self, idx, theta, out=None):
        if out is None:
            out = np.empty((len(idx), self.ys.shape[1]))
        # steps of one size share their sample offsets: phi once per distinct
        # tau = theta h, for at most _EVAL_CHUNK taus and then samples at a time
        tau, where = np.unique(theta * self._hs[idx], return_inverse=True)
        order = np.argsort(where, kind="stable")
        batches = range(0, len(tau), _EVAL_CHUNK)
        cuts = np.searchsorted(where[order], [*batches, len(tau)])
        for lo, start, stop in zip(batches, cuts, cuts[1:]):
            taus = tau[lo:lo + _EVAL_CHUNK]
            # e, tau phi_1, tau phi_2 and tau phi_3 at each tau
            weights = np.moveaxis(_phi_matrices(
                self.blocks, taus[:, None, None]), 2, 0).copy()
            weights[:, 1:] *= taus[:, None, None, None]
            for at in range(start, stop, _EVAL_CHUNK):
                rows = order[at:min(at + _EVAL_CHUNK, stop)]
                i = idx[rows]
                out[rows] = _exp_step_end(weights[where[rows] - lo], self.ys[i],
                                          self._stages[i], theta[rows],
                                          self.blocks.stiffness.shape)
        return out


def _contd8(c, th):
    """Hairer's contd8 polynomial at fractions th of a step, from its eight
    coefficients c[0] .. c[7]; c[0] is the state at the step start."""
    s = 1.0 - th
    return c[0] + th * (c[1] + s * (c[2] + th * (c[3] + s * (
        c[4] + th * (c[5] + s * (c[6] + th * c[7]))))))


def _initial_step(rhs, t0, y0, f0, t_end, rtol, atol, max_step):
    # overflow here is benign: an inf slope estimate collapses h toward 0,
    # which the caller reports as inconsistent tolerances
    with np.errstate(over="ignore", invalid="ignore"):
        sc = atol + rtol * np.abs(y0)
        d0 = np.sqrt(np.mean((y0 / sc) ** 2))
        d1 = np.sqrt(np.mean((f0 / sc) ** 2))
        h0 = 1e-6 if (d0 < 1e-5 or d1 < 1e-5) else 0.01 * d0 / d1
        y1 = y0 + h0 * f0
        f1 = np.asarray(rhs(t0 + h0, y1))
        d2 = np.sqrt(np.mean(((f1 - f0) / sc) ** 2)) / h0
        if max(d1, d2) <= 1e-15:
            h1 = max(1e-6, h0 * 1e-3)
        else:
            # 0.2, not DOP853's 1/8: 1/8 took figure12 from 199 to 197 steps
            # but criterion 7's rejected steps from 3,805 to 4,197
            h1 = (0.01 / max(d1, d2)) ** 0.2
    return min(100.0 * h0, h1, max_step, t_end - t0)


def _dop853_dense(rhs, ts, ys, hs, recs):
    """The function returning the (S, 8, n) contd8 coefficients of S given
    steps of a _dop853 run, from its samples ts, ys, its step sizes hs and
    its step records. A dense stage is one rhs call on up to _EVAL_CHUNK
    steps as columns; matmul makes each step's own products, bit for bit."""
    n = ys.shape[1]

    def build(steps):
        rcont = np.empty((len(steps), 8, n))
        dk = rcont[:, 4:]  # _D @ K of each step, then scaled by h
        for lo in range(0, len(steps), _EVAL_CHUNK):
            at = steps[lo:lo + _EVAL_CHUNK]
            K = np.zeros((len(at), 16, n))  # stages 1-4 stay 0.0
            K[:, 0], K[:, 5:13] = recs[at, 0], recs[at, 1:]
            K_in = K.transpose(1, 2, 0)  # stage j as rhs returns it, (n, S)
            t, y, h = ts[at], ys[at], hs[at]
            for j in range(13, 16):
                u = y + h[:, None] * np.matmul(_A[j], K[:, :j])
                K_in[j] = rhs(t + _C[j] * h, u.T)
            np.matmul(_D, K, out=dk[lo:lo + _EVAL_CHUNK])
        h = hs[steps, None]
        f0, f1 = recs[steps, 0], recs[steps, 8]
        y0, ydiff, c2, c3 = (rcont[:, j] for j in range(4))
        y0[...] = ys[steps]
        np.subtract(ys[steps + 1], y0, out=ydiff)
        np.multiply(h, f0, out=c2)
        c2 -= ydiff                        # h*f0 - ydiff
        np.add(f1, f0, out=c3)
        c3 *= h
        np.subtract(ydiff + ydiff, c3, out=c3)  # 2*ydiff - h*(f1 + f0)
        dk *= h[:, None]
        return rcont

    return build


Lane = namedtuple("Lane", "t0 y0 t_end rtol atol max_step stop_threshold",
                  defaults=(1e-10, 1e-10, np.inf, np.inf))  # one state's run


def integrate_adaptive(rhs, t0, y0, t_end, rtol=1e-10, atol=1e-10,
                       max_step=np.inf, stop_indices=(), stop_threshold=np.inf,
                       linear=None):
    """Integrate y' = rhs(t, y) from t0 to t_end with adaptive steps; with
    linear (a LinearBlocks), y' = L y + rhs(t, y) by the exponential stepper
    into an ExpTrajectory. Ends early with blowup_detected once max over
    stop_indices of |y_i| reaches stop_threshold, with step_underflow when h
    can no longer advance t, or with step_budget after MAX_STEPS attempts.
    Underflow before any accepted step (inconsistent tolerances), a max_step
    that is not positive or a non-finite rhs at y0 raise InvalidParameterError."""
    lane = Lane(t0, y0, t_end, rtol, atol, max_step, stop_threshold)
    [run] = integrate_lanes(lambda lanes: rhs, [lane], stop_indices, linear)
    if isinstance(run, InvalidParameterError):
        raise run
    return run


class _Stepping:
    """A lane's settings, step state, end (termination or error), start rhs f and
    steps: state j and the record of step j in row j of Y and R, grown by doubling."""

    __slots__ = ("index", "lane", "t", "h", "t_new", "t_end", "max_step", "threshold",
                 "grow", "attempts", "n_rejected", "end", "ts", "hs", "Y", "R", "f")

    def __init__(self, index, lane, h, f):
        self.index, self.lane, self.t, self.h, self.t_new, self.t_end = (
            index, lane, lane.t0, h, lane.t0, lane.t_end)
        self.max_step, self.threshold = lane.max_step, lane.stop_threshold
        self.grow, self.attempts, self.n_rejected, self.end = _MAX_FACTOR, 0, 0, None
        self.ts, self.hs, self.f, n = [lane.t0], [], f, lane.y0.size
        self.Y, self.R = np.empty((256, n)), np.empty((256, 0, n))
        self.Y[0] = lane.y0

    def last(self):
        """Last state, rhs there (start f or last record's stage 12), rtol, atol."""
        j, lane = len(self.ts) - 1, self.lane
        return self.Y[j], self.R[j - 1, -1] if j else self.f, lane.rtol, lane.atol

    def sized(self, size):
        """Whether the lane makes another attempt, h and t_new set by the
        method's size; else it ends at t_end, on underflow or on budget."""
        t = self.t
        if not t < self.t_end:
            self.end = REACHED_T_END
        else:
            self.h, self.t_new = size(t, self.h, self.t_end)
            if not self.h > 1e-14 * max(1.0, abs(t)):  # NaN included
                self.end = STEP_UNDERFLOW if len(self.ts) > 1 else \
                    InvalidParameterError(
                        "step size underflow before any progress; "
                        "tolerances are inconsistent with the problem scale")
            elif self.attempts == MAX_STEPS:
                self.end = STEP_BUDGET
        return self.end is None

    def add(self, t, h, y, rec):
        j = len(self.ts)
        if j == 1:  # the first record shapes R's rows
            self.R = np.empty((len(self.Y), *rec.shape))
        elif j == len(self.Y):  # copied into buffers of twice the rows
            grown = [np.empty((2 * j, *b.shape[1:])) for b in (self.Y, self.R)]
            grown[0][:j], grown[1][:j] = self.Y, self.R
            self.Y, self.R = grown
        self.Y[j], self.R[j - 1] = y, rec
        self.ts.append(t)
        self.hs.append(h)

    def result(self, rhs_of, blocks):  # the trajectory, or the error that ended it
        if isinstance(self.end, InvalidParameterError):
            return self.end
        ts, hs = np.asarray(self.ts), np.asarray(self.hs)
        ys, recs = self.Y[:len(ts)].copy(), self.R[:len(hs)]
        if blocks is None:
            dense = _dop853_dense(rhs_of([self.index]), ts, ys, hs, recs)
            return RawTrajectory(ts, ys, dense, self.end, self.n_rejected)
        return ExpTrajectory(ts, ys, hs, recs.copy(), blocks, self.end, self.n_rejected)


def integrate_lanes(rhs_of, lanes, stop_indices=(), linear=None):
    """Integrate the Lane records lanes as the rows of one (L, n) state: a
    stage is one call of rhs_of(idx), the rhs of lanes idx, on (n, L) columns
    with t as (L,), or on one lane's bare (n,) state, whose n components (a
    list of (L,) rows or of floats, or an array) go straight into the stage's
    row (see RawTrajectory for the rhs contract). Each lane keeps its own
    t, h, control and termination, bit for bit its integrate_adaptive run, and
    leaves the state when it ends; returns its trajectory or InvalidParameterError.
    The step method (_dop853, or _exponential given linear, for one lane
    only) gives size(t, h, t_end) -> (h, t_new); attempt(t, y, h, t_new) ->
    (err_norm, pieces), err_norm <= 1 accepting the (t, h, y, record) pieces
    and None or NaN marking a non-finite value (over lanes: lists, y updated
    in place); its control exponent; factor cap after a rejection. Both mark
    it by one rule: any non-finite stage input or stage, once all are in."""
    runs, live = [None] * len(lanes), []
    if linear is not None:
        k = np.asarray(linear.stiffness, dtype=float)
        try:  # damping that does not broadcast to k fails too
            if len(lanes) != 1 or k.ndim != 2 or 2 * k.size != np.size(lanes[0].y0):
                raise ValueError
            linear = LinearBlocks(k, np.broadcast_to(np.asarray(
                linear.damping, dtype=float), k.shape), tuple(linear.kinks))
        except ValueError:
            raise InvalidParameterError(
                "linear blocks take one lane and match its state") from None
    for b, lane in enumerate(lanes):
        try:  # each lane starts as it does alone
            y, t = np.array(lane.y0, dtype=float), float(lane.t0)
            t_end = float(lane.t_end)
            for ok, message in (  # in this order; NaN fails each
                    (0.0 < lane.rtol < np.inf and 0.0 < lane.atol < np.inf,
                     "tolerances must be finite and positive"),
                    (lane.max_step > 0.0, "max_step must be > 0"),
                    (np.all(np.isfinite(y)), "initial state must be finite"),
                    (math.isfinite(t), "t0 must be finite"),
                    (np.isfinite(t_end), "t_end must be finite"),
                    (not t_end <= t, "t_end must exceed t0")):
                if not ok:
                    raise InvalidParameterError(message)
            lane = lane._replace(t0=t, y0=y, t_end=t_end)
            rhs = rhs_of([b])
            f = np.asarray(rhs(t, y), dtype=float)
            if not np.all(np.isfinite(f)):
                raise InvalidParameterError("rhs at the initial state must be finite")
            live.append(_Stepping(b, lane, float(_initial_step(
                rhs, t, y, f, t_end, lane.rtol, lane.atol, lane.max_step)), f))
        except InvalidParameterError as exc:
            runs[b] = exc
    stop, errs, pieces = np.array(stop_indices, dtype=np.intp).tolist(), (), ()
    with np.errstate(all="ignore"):  # a rejected attempt's stages may be inf/NaN
        while live:
            if not errs:  # at the start and once a lane has ended
                lone, one, idx = len(live) == 1, live[0], [run.index for run in live]
                y, f, rtol, atol = one.last() if lone else (  # tolerances (L, 1)
                    np.array(c).reshape(len(live), -1)
                    for c in zip(*map(_Stepping.last, live)))
                size, attempt, exponent, regrowth = (
                    _dop853(rhs_of(idx), y, f, rtol, atol) if linear is None else
                    _exponential(rhs_of(idx), y, f, rtol, atol, linear))
            for run, err, accepted in zip(live, errs, pieces):  # each lane's control
                run.attempts += 1
                if err is not None and err <= 1.0:
                    for t, h, y_new, rec in accepted:
                        run.add(t, h, y_new, rec)
                        # the stop components as Python floats, from one
                        # tolist: their max beats numpy's on a few entries
                        if stop and max(map(abs, map(y_new.tolist().__getitem__, stop))
                                        ) >= run.threshold:
                            run.end = BLOWUP_DETECTED
                            break
                    run.t = t
                    if lone:
                        y = y_new
                else:
                    run.n_rejected += 1
                if err is None or not math.isfinite(err):
                    run.h, run.grow = 0.5 * run.h, regrowth
                else:
                    factor = _MAX_FACTOR if err == 0.0 else _SAFETY * err ** exponent
                    run.h = min(run.h * min(run.grow, max(_MIN_FACTOR, factor)),
                                run.max_step)
                    run.grow = regrowth if err > 1.0 else _MAX_FACTOR
            ended = False
            for run in live:  # each lane's next size (after a rebuild, the one it has)
                if run.end is None and run.sized(size):
                    continue
                runs[run.index], ended = run.result(rhs_of, linear), True
            if ended:  # the ended lanes leave
                live, errs = [run for run in live if run.end is None], ()
            elif lone:  # zip makes 1-tuples of the one lane's pair
                errs, pieces = zip(attempt(one.t, y, one.h, one.t_new))
            else:
                errs, pieces = attempt([r.t for r in live], y, [r.h for r in live],
                                       [r.t_new for r in live])
    return runs


def _dop853(rhs, y0, f0, rtol, atol):
    """The Dormand-Prince 8(5,3) step method, on one state (n,) or on lanes
    (L, n) with per-lane tolerances. Every attempt evaluates its 12 stages;
    one check after the last then rejects (a lane's) step if any stage
    input or stage is not finite. A record is K[0] and K[5] .. K[12], read
    by contd8."""
    lanes, n = y0.ndim == 2, y0.shape[-1]
    K = np.empty((*y0.shape[:-1], 13, n))
    K[..., 0, :] = f0
    K_in = K.transpose(1, 2, 0) if lanes else K  # stage i as rhs returns it
    K_flat, K_err = K.reshape(*y0.shape[:-1], -1), K[..., :12, :]  # views
    # row.dot(stages) is the cheapest call; matmul makes it per lane, bitwise
    mix = (lambda row: partial(np.matmul, row)) if lanes else (lambda row: row.dot)
    # x * 0.0 is NaN for inf or NaN x, so a dot product with zeros is 0.0 (per
    # lane) when all is finite, faster than isfinite().all() on a few entries
    zeros, zeros_K, zeros_U = np.zeros(n), np.zeros(13 * n), np.zeros(12 * n)
    U_flat = np.empty(12 * n)  # one state's stage inputs 1-12, the last its new state
    U = U_flat.reshape(12, n)
    # stage i: (i, c_i, earlier stages, row product, input row); stage 12 is
    # at the new state
    step = [(i, float(_C[i]), K[..., :i, :], mix(_A[i]), U[i - 1]) for i in range(1, 13)]
    e5_of, e3_of = mix(_E5), mix(_E3)
    rec, abs_y = np.empty((9, n)), np.abs(y0)
    E = np.empty((2, n))  # one state's 5th- and 3rd-order error estimates

    def size(t, h, t_end):
        h = min(h, t_end - t)
        return h, t + h

    def attempt(t, y, h, t_new):
        nonlocal abs_y
        h_arr = np.array(h)  # a 0-d array multiplies faster than a float
        for i, c, k_prev, stage_sum, u in step:
            stage_sum(k_prev, u)  # then h * u + y, bitwise y + h * (A_i . K)
            u *= h_arr
            u += y
            K[i] = rhs(t + c * h, u)
        # every stage is in, so the rule is attempt_lanes': any non-finite
        # stage input or stage rejects
        if U_flat.dot(zeros_U) + K_flat.dot(zeros_K) != 0.0:
            return None, None
        y_new = U[11]
        abs_new = np.abs(y_new)
        sc = atol + rtol * np.maximum(abs_y, abs_new)
        e5_of(K_err, E[0])
        e3_of(K_err, E[1])
        np.divide(E, sc, out=E)
        np.multiply(E, E, out=E)
        # == np.sum(e ** 2) of each bitwise: a row's pairwise sum, as alone
        s5, s3 = np.add.reduce(E, axis=1).tolist()
        den = s5 + 0.01 * s3
        err_norm = h * s5 / math.sqrt(den * n) if den else 0.0
        if not err_norm <= 1.0:
            return err_norm, None
        rec[0], rec[1:], abs_y = K[0], K[5:], abs_new
        K[0] = K[12]  # FSAL: stage 12 is the next step's stage 0
        return err_norm, ((t_new, h, y_new.copy(), rec),)  # U is overwritten

    def attempt_lanes(t, y, h, t_new):  # t, h, t_new lists; y updated in place
        t_arr, h_arr = np.array(t), np.array(h)
        h_col, bad = h_arr[:, None], 0.0  # bad: per lane, NaN once not finite
        for i, c, k_prev, stage_sum, _ in step:
            y_new = y + h_col * stage_sum(k_prev)
            bad = bad + y_new.dot(zeros)
            K_in[i] = rhs(t_arr + c * h_arr, y_new.T)
        abs_new = np.abs(y_new)
        sc = atol + rtol * np.maximum(abs_y, abs_new)
        e5, e3 = e5_of(K_err) / sc, e3_of(K_err) / sc
        # a lane's sums run along its row, as when alone
        s5, s3 = np.add.reduce(e5 * e5, axis=1), np.add.reduce(e3 * e3, axis=1)
        den = s5 + 0.01 * s3
        err = (np.where(den == 0, 0.0, h_arr * s5 / np.sqrt(den * n))
               + bad + K_flat.dot(zeros_K))
        ok, kept = (err <= 1.0)[:, None], K[:, _KEPT]
        for to, new in ((K[:, 0], K[:, 12]), (abs_y, abs_new), (y, y_new)):
            np.copyto(to, new, where=ok)
        return err.tolist(), [acc and ((t_new[j], h[j], y_new[j], kept[j]),)
                              for j, acc in enumerate(ok[:, 0].tolist())]

    return size, attempt_lanes if lanes else attempt, -0.125, 1.0


# --- exponential Runge-Kutta -----------------------------------------------
# Every function of one 2x2 block Z = tau A, A = [[0, 1], [-k, -c]], is
# alpha I + beta Z (Cayley-Hamilton, Z^2 = tr Z - det I), so the phi
# functions are carried as such pairs of arrays: elementwise arithmetic with
# no eigenvectors, which needs no special case at critical damping.

def _phi_matrices(blocks, tau):
    """phi_0 .. phi_3 of tau A for each block, as (4, 2, ..., n) arrays: for
    each phi, its diagonal entries and its off-diagonal entries laid out like
    the state, so that mat applied to x is mat[0] * x + mat[1] * x[_swap],
    tau broadcasting against the blocks' shape.

    Scaling and squaring: a Taylor series at Z / 2^s, whose spectral radius
    is below 1, then s doublings of each entry's own s, so an entry does
    not depend on the others in the batch.
    """
    k, c = blocks.stiffness, blocks.damping
    tr = -tau * c
    det = tau * tau * k
    # a bound on the spectral radius of Z
    radius = 0.5 * np.abs(tr) + np.sqrt(0.25 * tr * tr + np.abs(det))
    s = np.maximum(np.frexp(radius)[1], 0)
    tr, det = np.ldexp(tr, -s), np.ldexp(det, -2 * s)
    # Horner: phi_3 = sum_i Z^i / (i + 3)!, then phi_j = Z phi_(j+1) + I / j!,
    # with (a I + b Z) Z = -b det I + (a + b tr) Z
    a, b = np.full(tr.shape, _INV_FACT[_PHI_TERMS + 3]), np.zeros(tr.shape)
    A, B = [], []
    for i in range(_PHI_TERMS + 2, -1, -1):
        a, b = _INV_FACT[i] - b * det, a + b * tr
        if i <= 3:
            A.insert(0, a)
            B.insert(0, b)
    A, B = np.array(A), np.array(B)
    halving = np.array([1.0, 0.5, 0.25, 0.125]).reshape((4,) + (1,) * tr.ndim)
    for step in range(int(s.max(initial=0))):
        # phi_j(2 Z) from the top row of the squared augmented exponential:
        # e^2, (e phi_1 + phi_1) / 2, (e phi_2 + phi_1 + phi_2) / 4 and
        # (e phi_3 + phi_1 / 2 + phi_2 + phi_3) / 8
        ea, eb = A[0], B[0]
        ebd, ebt = eb * det, eb * tr
        new_a = ea * A - ebd * B
        new_b = ea * B + eb * A + ebt * B
        for X, new in ((A, new_a), (B, new_b)):
            new[1:] += X[1]
            new[2:] += X[2]
            new[3] += X[3] - 0.5 * X[1]
        more = step < s
        A = np.where(more, halving * new_a, A)
        B = np.where(more, 0.5 * halving * new_b, B)  # beta of 2 Z is half
        tr, det = np.where(more, 2.0 * tr, tr), np.where(more, 4.0 * det, det)
    Bt = B * tau
    mats = np.stack([np.stack([A, A - Bt * c], axis=-2),
                     np.stack([Bt, -Bt * k], axis=-2)], axis=1)
    return mats.reshape(mats.shape[:-3] + (-1,))


def _swap(blocks):
    """Index array exchanging positions and velocities in the state."""
    G, M = blocks.stiffness.shape
    return np.arange(2 * G * M).reshape(G, 2, M)[:, ::-1].reshape(-1)


# D1, D2 over a step's rows n5, n4, n3, n2, y, f: the step end's weights
# phi_1 - 3 phi_2 + 4 phi_3, -phi_2 + 4 phi_3 and 4 phi_2 - 8 phi_3 on f, n4
# and n5 regrouped as phi_1 f + phi_2 D1 + phi_3 D2, by powers of theta
_D_OF_STAGES = np.array([[4.0, -1.0, 0.0, 0.0, 0.0, -3.0],
                         [-8.0, 4.0, 0.0, 0.0, 0.0, 4.0]])[:, :, None]


def _exp_step_end(weights, y, stages, theta, shape):
    """The states at fractions theta (S,) of steps from y (S, n), whose
    records are stages (S, 3, n), given weights (S, 4, 2, n): e, tau phi_1,
    tau phi_2 and tau phi_3 at tau = theta h. That is
    e y + tau (phi_1 N0 + theta phi_2 D1 + theta^2 phi_3 D2), summed as
    _ho5_step sums the step end: over y, N0, theta D1 and theta^2 D2, each
    beside its swap, the reversed middle axis of the state's (G, 2, M)
    view, shape = (G, M). At theta = 1 the weights and the rows are the
    step end's, so the state is the step's own, bit for bit."""
    S, (G, M) = len(y), shape
    X = np.concatenate([y[:, None], stages], axis=1)
    X[:, 2] *= theta[:, None]
    X[:, 3] *= (theta * theta)[:, None]
    X = X.reshape(S, 4, 1, G, 2, M)
    terms = np.concatenate([X, X[..., ::-1, :]], axis=2).reshape(weights.shape)
    terms *= weights
    return np.add.reduce(terms.reshape(S, 8, -1), axis=1)


def _rung(r):
    """Step size r of the ladder 2^(r / _RUNGS); rung r - _RUNGS is half
    of it, exactly."""
    return math.ldexp(_LADDER[r % _RUNGS], r // _RUNGS)


def _ho5_weights(half, whole, h):
    """The weights of one Hochbruck-Ostermann step of size h, from the phi
    matrices at h/2 and at h: for each stage input, then the step end, a
    (k, 2, n) array over the k rows of X that its sum reads (see _ho5_step)."""
    e_h, p1_h, p2_h, p3_h = half
    e, p1, p2, p3 = whole
    a52 = 0.5 * p2_h - p3 + 0.25 * p2 - 0.5 * p3_h
    a54 = 0.25 * p2_h - a52
    return (np.array([e_h, (0.5 * h) * p1_h]),
            np.array([h * p2_h, e_h, h * (0.5 * p1_h - p2_h)]),
            np.array([h * p2, h * p2, e, h * (p1 - 2.0 * p2)]),
            np.array([h * a54, h * a52, h * a52, e_h,
                      h * (0.5 * p1_h - 2.0 * a52 - a54)]),
            np.array([e, h * p1, h * p2, h * p3]))


def _ho5_step(N, weights, t, y, f, h, t_new, X, U, swap):
    """One step of Hochbruck and Ostermann's five-stage exponential method
    (stiff order 4) from (t, y), f = N(t, y), to t_new = t + h, with weights
    from _ho5_weights. X (8, 2, n) holds the rows n5, n4, n3, n2, y, f, D1,
    D2, each beside itself with positions and velocities swapped, so that a
    stage input is one weighted sum over X[i:6] (i = 4, 3, 2, 1) into its
    row of U (4, n), and N there goes unchecked to X[i - 1]; the new state
    is the sum over X[4:], whose rows 5-7 are then the step's record."""
    n, t_mid = len(y), t + 0.5 * h
    X[4, 0], X[5, 0], X[4, 1], X[5, 1] = y, f, y[swap], f[swap]
    for i, w, u, t_i in zip((4, 3, 2, 1), weights, U, (t_mid, t_mid, t_new, t_mid)):
        np.add.reduce((w * X[i:6]).reshape(-1, n), axis=0, out=u)
        row = X[i - 1]
        row[0] = N(t_i, u)
        row[1] = row[0][swap]
    D = X[6:, 0]
    np.add.reduce(_D_OF_STAGES * X[:6, 0], axis=1, out=D)
    X[6:, 1] = D[:, swap]
    return np.add.reduce((weights[4] * X[4:]).reshape(-1, n), axis=0)


@lru_cache(_SHARED_SETS)
def _shared_weights(shape, stiffness, damping):
    """The step weights by step size of ladder rungs on the linear blocks of
    this shape and these stiffness and damping bytes, for every run on them."""
    return {}


def _exponential(rhs, y0, f0, rtol, atol, blocks):
    """Hochbruck and Ostermann's exponential step method of
    integrate_adaptive, with step doubling: each attempt takes one step of
    size h and two of size h/2, and an accepted attempt stores the two half
    steps, whose error is the difference over 2^4 - 1. A step's record is
    its interpolation data (N at its start, D1, D2). size rounds h down to a
    ladder of _RUNGS sizes per octave and cuts a step short at a kink or at
    t_end. The step weights of a rung are computed once per set of blocks
    and shared across segments and runs (_shared_weights); those of a step
    cut short stay the run's own, so the shared store grows with the rung
    range, not with the runs. Each phi entry has its own scaling and the
    weights are elementwise, so a shared entry is bit for bit the one a run
    would compute. An attempt evaluates all its 13 stages (and N at its
    start after an accepted one) and is rejected by _dop853's one non-finite
    check, over the three steps' X and stage inputs."""
    n, swap, zeros = y0.size, _swap(blocks), np.zeros(60 * y0.size)
    # step weights by step size: of rungs, shared; of steps cut short, own
    shared, own = _shared_weights(blocks.stiffness.shape, blocks.stiffness.tobytes(),
                                  blocks.damping.tobytes()), {}
    buf = np.empty(60 * n)  # X (8, 2, n) and U (4, n) of each step
    X, U = buf[:48 * n].reshape(3, 8, 2, n), buf[48 * n:].reshape(3, 4, n)
    f, stale, abs_y = f0, False, np.abs(y0)

    def size(t, h, t_end):
        stop = min([tk for tk in blocks.kinks if tk > t] + [t_end])
        if not h > 0.0:  # no rung; the controller's underflow rule ends the run
            return h, t + h
        rung = math.floor(_RUNGS * math.log2(h))
        if _rung(rung) > h:  # log2 rounded up
            rung -= 1
        h = _rung(rung)
        return (h, t + h) if h < stop - t else (stop - t, stop)

    def weights(h):
        """The step weights at h/2 and h. A miss builds, from one batch of
        phis at their sizes and half sizes, the weights of every size the
        store lacks: for a rung of the ladder, of its octave and the octave
        below; for a step cut short at a kink or t_end, its own two. 0.5 h
        is an exact scaling, so a tau shared by two sizes has one entry, and
        it is a rung if and only if h is."""
        octave = math.frexp(h)[1] - 1  # 2^octave <= h < 2^(octave + 1)
        rung = math.ldexp(h, -octave) in _LADDER
        mats = shared if rung else own
        if 0.5 * h not in mats or h not in mats:
            sizes = [math.ldexp(x, octave - below) for below in (0, 1)
                     for x in _LADDER] if rung else [h, 0.5 * h]
            sizes = [hk for hk in sizes if hk not in mats]
            taus = list(dict.fromkeys(tau for hk in sizes for tau in (0.5 * hk, hk)))
            phis = dict(zip(taus, np.moveaxis(_phi_matrices(
                blocks, np.array(taus)[:, None, None]), 2, 0)))
            for hk in sizes:
                mats[hk] = _ho5_weights(phis[0.5 * hk], phis[hk], hk)
        return mats[0.5 * h], mats[h]

    def attempt(t, y, h, t_new):
        nonlocal f, stale, abs_y
        if stale:
            f, stale = rhs(t, y), False
        halves, whole = weights(h)
        t_mid = t + 0.5 * h
        full = _ho5_step(rhs, whole, t, y, f, h, t_new, X[0], U[0], swap)
        y_mid = _ho5_step(rhs, halves, t, y, f, 0.5 * h, t_mid, X[1], U[1], swap)
        y_new = _ho5_step(rhs, halves, t_mid, y_mid, rhs(t_mid, y_mid), 0.5 * h,
                          t_new, X[2], U[2], swap)
        if buf.dot(zeros) != 0.0:  # x * 0.0 is NaN for inf or NaN x
            return None, None
        abs_new = np.abs(y_new)
        q = (y_new - full) / (15.0 * (atol + rtol * np.maximum(abs_y, abs_new)))
        err_norm = math.sqrt(float(np.add.reduce(q * q)) / n)
        if err_norm <= 1.0:
            stale, abs_y = True, abs_new
        return err_norm, ((t_mid, 0.5 * h, y_mid, X[1, 5:, 0]),
                          (t_new, 0.5 * h, y_new, X[2, 5:, 0]))

    return size, attempt, -0.2, _MAX_FACTOR
