"""Fourth-order ODE families with finite-time blow-up diagnostics.

Families are integrated as first-order systems in (w, w', w'', w''') with the
adaptive Dormand-Prince 8(5,3) stepper (DOP853). Blow-up runs terminate on a
displacement threshold (or step underflow when the threshold is effectively
infinite); the report extracts the zero sequence of w, estimates the blow-up
time from the geometric accumulation of those zeros, and integrates the
energy-rate ratios of each sign interval exactly on the interpolant (Gauss).
"""
from __future__ import annotations

import json
from dataclasses import dataclass, field, fields, is_dataclass
from types import SimpleNamespace
from typing import Callable, List, Optional, Sequence, Tuple

import numpy as np

from . import _rk
from ._quad import GAUSS_8_UNIT
from ._rk import (BLOWUP_DETECTED, REACHED_T_END, STEP_BUDGET, STEP_UNDERFLOW,
                  Lane, RawTrajectory, integrate_adaptive)
from .errors import EmptyTrajectoryError, InvalidParameterError, UnsupportedFamilyError
from .nonlin import Nonlinearity

# family kind -> the fields its rhs reads; every other field keeps its default
FAMILY_KINDS = {"canonical": ("nl", "k_coef"), "rocard_wave": ("alpha_r", "beta_r"),
                "pedestrian_wave": ("nl", "gamma_p", "c_speed", "delta_damp"),
                "general": ("a3", "k2", "b1", "c0", "q_exp")}
TERMINATIONS = (REACHED_T_END, BLOWUP_DETECTED, STEP_UNDERFLOW, STEP_BUDGET)


@dataclass(frozen=True)
class OdeFamily:
    """One of the fourth-order scalar equations, as w'''' = rhs(w, w', w'', w''').

    canonical        w'''' = -k w'' - f(w)
    rocard_wave      w'''' = (alpha w + beta) w'' - w
    pedestrian_wave  gamma w'''' = -c^2 w'' - delta c w' - f(w)
    general          w'''' = -a w''' - k w'' - b w' - c w - |w|^q w
    """

    kind: str
    nl: Optional[Nonlinearity] = None
    k_coef: float = 0.0
    alpha_r: float = 0.0
    beta_r: float = 0.0
    gamma_p: float = 1.0
    c_speed: float = 0.0
    delta_damp: float = 0.0
    a3: float = 0.0
    b1: float = 0.0
    c0: float = 0.0
    k2: float = 0.0
    q_exp: float = 1.0

    def __post_init__(self):
        if self.kind not in FAMILY_KINDS:
            raise InvalidParameterError(f"unknown family kind {self.kind!r}")
        read = FAMILY_KINDS[self.kind]
        unread = [f.name for f in fields(self) if f.name not in read + ("kind",)
                  and getattr(self, f.name) != f.default]
        if unread:
            raise InvalidParameterError(f"{self.kind} family does not read {unread}")
        if "nl" in read and self.nl is None:
            raise InvalidParameterError(f"{self.kind} family needs a nonlinearity")
        if self.kind == "pedestrian_wave" and not self.gamma_p > 0.0:
            raise InvalidParameterError("pedestrian_wave needs gamma_p > 0")

    def rhs(self):
        """First-order system derivative for (w, w', w'', w'''); run on a
        record of (L,) arrays, it takes L families' states as (4, L) columns.
        A bare (4,) state is read as Python floats, with the same arithmetic."""
        kind = self.kind
        if kind == "canonical":
            k, f = self.k_coef, self.nl.f
            def deriv(t, y):
                w, w1, w2, w3 = y.tolist() if y.ndim == 1 else y
                return np.array([w1, w2, w3, -k * w2 - f(w)])
        elif kind == "rocard_wave":
            al, be = self.alpha_r, self.beta_r
            def deriv(t, y):
                w, w1, w2, w3 = y.tolist() if y.ndim == 1 else y
                return np.array([w1, w2, w3, (al * w + be) * w2 - w])
        elif kind == "pedestrian_wave":
            g, c, d, f = self.gamma_p, self.c_speed, self.delta_damp, self.nl.f
            def deriv(t, y):
                w, w1, w2, w3 = y.tolist() if y.ndim == 1 else y
                return np.array([w1, w2, w3, (-c * c * w2 - d * c * w1 - f(w)) / g])
        else:
            a, k, b, c, q = self.a3, self.k2, self.b1, self.c0, self.q_exp
            def deriv(t, y):
                w, w1, w2, w3 = y.tolist() if y.ndim == 1 else y
                # np.power: on one float, ** rounds apart from arrays
                return np.array([w1, w2, w3, -a * w3 - k * w2 - b * w1 - c * w
                                 - np.power(abs(w), q) * w])
        return deriv


def _merged(records):
    """A record of records' fields: each a shared value (one record's own, nl
    included), which rounds as equal entries would, else an (L,) array."""
    def merged(name):
        values = [getattr(r, name) for r in records]
        if all(v == values[0] for v in values):
            return values[0]
        return (Nonlinearity(**vars(_merged(values))) if name == "nl"
                else np.array(values, dtype=float))
    return SimpleNamespace(**{f.name: merged(f.name) for f in fields(records[0])})


def canonical(k: float, nl: Nonlinearity) -> OdeFamily:
    return OdeFamily(kind="canonical", k_coef=k, nl=nl)


def rocard_wave(alpha: float, beta: float) -> OdeFamily:
    return OdeFamily(kind="rocard_wave", alpha_r=alpha, beta_r=beta)


def pedestrian_wave(gamma: float, c: float, delta: float,
                    nl: Nonlinearity) -> OdeFamily:
    return OdeFamily(kind="pedestrian_wave", gamma_p=gamma, c_speed=c,
                     delta_damp=delta, nl=nl)


def general(a: float, k: float, b: float, c: float, q: float) -> OdeFamily:
    return OdeFamily(kind="general", a3=a, k2=k, b1=b, c0=c, q_exp=q)


@dataclass(frozen=True)
class State4:
    """Displacement and its first three derivatives at time t."""

    t: float
    w: float
    w1: float
    w2: float
    w3: float

    def __post_init__(self):
        if not all(np.isfinite([self.t, self.w, self.w1, self.w2, self.w3])):
            raise InvalidParameterError("State4 entries must be finite")

    @property
    def array(self) -> np.ndarray:
        return np.array([self.w, self.w1, self.w2, self.w3])


@dataclass(frozen=True)
class IntegratorConfig:
    t_end: float
    rel_tol: float = 1e-10
    abs_tol: float = 1e-10
    max_step: float = np.inf
    blowup_threshold: float = 1e6

    def __post_init__(self):
        # written so that NaN fails every check
        if not np.isfinite(self.t_end):
            raise InvalidParameterError("t_end must be finite")
        if not (0.0 < self.rel_tol < np.inf and 0.0 < self.abs_tol < np.inf):
            raise InvalidParameterError("tolerances must be finite and positive")
        if not self.blowup_threshold > 1.0:
            raise InvalidParameterError("blowup_threshold must exceed 1")
        if not self.max_step > 0.0:
            raise InvalidParameterError("max_step must be > 0")


class Trajectory(RawTrajectory):
    """Dense ODE solution with located zero crossings of w.

    states       (N, 4) array of (w, w', w'', w''') at the accepted steps
    samples      the same rows as a list of State4
    events       zero-crossing times of w, each bracketed by samples of
                 opposite sign
    termination  how the run ended, one of TERMINATIONS
    """

    ZERO_TOL = 1e-12
    columns = ("w", "w1", "w2", "w3")

    def __init__(self, raw: RawTrajectory):
        vars(self).update(vars(raw))  # the stepper record, built steps and all
        self.events: List[float] = self.component_zeros(0, tol=self.ZERO_TOL)

    @property
    def _raw(self) -> RawTrajectory:
        """The stepper record (ts, ys, n_rejected, ...), which is self."""
        return self

    @property
    def samples(self) -> List[State4]:
        return [State4(t, *row) for t, row in zip(self.ts, self.ys)]


def _initial_state(state0, record=State4) -> Tuple[float, np.ndarray]:
    """(t, y) from a state record, or from 4 bare components at t = 0."""
    if isinstance(state0, record):
        return state0.t, state0.array
    arr = np.asarray(() if is_dataclass(state0) else state0, dtype=float)
    if arr.shape != (4,):  # another record is refused, not read as 4 numbers
        raise InvalidParameterError(f"need a {record.__name__} or 4 components")
    return 0.0, arr


def integrate(family: OdeFamily, state0, cfg: IntegratorConfig) -> Trajectory:
    """Adaptively integrate the family from state0 until cfg.t_end, the
    blow-up threshold, step underflow or the step budget."""
    t0, y0 = _initial_state(state0)
    raw = integrate_adaptive(family.rhs(), t0, y0, cfg.t_end,
                             rtol=cfg.rel_tol, atol=cfg.abs_tol,
                             max_step=cfg.max_step, stop_indices=(0,),
                             stop_threshold=cfg.blowup_threshold)
    return Trajectory(raw)


def integrate_lanes(runs) -> list:
    """integrate(family, state0, cfg) of each triple of runs, as lanes of
    one DOP853 state for runs of one family kind, force law and exponent,
    each bit for bit its integrate() run: its Trajectory or its error. The
    rhs of the live lanes is that of their families' _merged record."""
    out, groups = [None] * len(runs), {}
    for i, (family, state0, cfg) in enumerate(runs):
        try:
            lane = Lane(*_initial_state(state0), cfg.t_end, cfg.rel_tol, cfg.abs_tol,
                        cfg.max_step, cfg.blowup_threshold)
            nl = family.nl  # np.power over an array of exponents rounds apart
            groups.setdefault((family.kind, family.q_exp, nl and (nl.kind, nl.p_exp)),
                              []).append((i, family, lane))
        except InvalidParameterError as exc:
            out[i] = exc
    for members in groups.values():
        at, families, lanes = zip(*members)
        def rhs_of(cols, families=families):
            return OdeFamily.rhs(_merged([families[c] for c in cols]))
        for i, raw in zip(at, _rk.integrate_lanes(rhs_of, lanes, (0,))):
            out[i] = raw if isinstance(raw, InvalidParameterError) else Trajectory(raw)
    return out


@dataclass(frozen=True)
class BlowupReport:
    """Blow-up diagnostics for one trajectory.

    zeros   located zero-crossing times of w
    ratios  per sign-interval pairs (rho1, rho2) with
            rho1 = int w^2 / int w''^2 and rho2 = int w'^2 / int w''^2
    R_est   estimated blow-up time (None when no blow-up)
    """

    blew_up: bool
    R_est: Optional[float]
    zeros: List[float] = field(default_factory=list)
    ratios: List[Tuple[float, float]] = field(default_factory=list)

    def to_json(self) -> str:
        return json.dumps({"blew_up": self.blew_up, "R_est": self.R_est,
                           "zeros": list(self.zeros),
                           "ratios": [list(r) for r in self.ratios]},
                          allow_nan=False)


def _interval_ratios(traj: Trajectory,
                     zeros: Sequence[float]) -> List[Tuple[float, float]]:
    """(int w^2 / int w''^2, int w'^2 / int w''^2) between consecutive zeros,
    (0.0, 0.0) where int w''^2 = 0. Exact on the interpolant: the zeros and
    samples cut the span into pieces in one step each, where the squares have
    degree 14, and 8 Gauss nodes a piece, read in one eval, integrate them."""
    if len(zeros) < 2:
        return []
    ts, n = traj.ts, len(zeros) - 1
    # np.sort, not np.unique (+1.7 MB RSS): a repeated cut is a width-0 piece
    cuts = np.sort(np.concatenate([zeros, ts[(ts > zeros[0]) & (ts < zeros[-1])]]))
    x, wt = GAUSS_8_UNIT
    width = np.diff(cuts)[:, None]
    Y = traj.eval((cuts[:-1, None] + width * x).ravel())[:, :3]
    pieces = wt @ (Y * Y).reshape(-1, 8, 3) * width
    gap = np.searchsorted(zeros, cuts[:-1], side="right") - 1
    sums = [np.bincount(gap, p, n)[:n].tolist() for p in pieces.T]  # w, w', w''
    return [(a / c, b / c) if c != 0.0 else (0.0, 0.0) for a, b, c in zip(*sums)]


def _estimate_blowup_time(traj: Trajectory, zeros: Sequence[float]) -> float:
    """Blow-up time from the geometric accumulation of the zeros z_j -> R.

    Consecutive gaps shrink nearly geometrically; summing the tail of the
    geometric series lands within a fraction of the final gap of the true R.
    Falls back to a secant extrapolation of 1/|w| toward zero on the final
    monotone stretch when fewer than four zeros are available.
    """
    if len(zeros) >= 4:
        g_prev = zeros[-2] - zeros[-3]
        g_last = zeros[-1] - zeros[-2]
        if g_prev > 0.0 and g_last > 0.0:
            r = g_last / g_prev
            if 0.0 < r < 0.95:
                return zeros[-1] + g_last * r / (1.0 - r)
    # reciprocal-amplitude secant on the post-last-zero growth stretch
    ts, states = traj.ts, traj.states
    start = np.searchsorted(ts, zeros[-1]) if zeros else 0
    w_tail = np.abs(states[start:, 0])
    t_tail = ts[start:]
    if len(w_tail) >= 2 and w_tail[-1] > w_tail[-2] > 0.0:
        u1, u2 = 1.0 / w_tail[-2], 1.0 / w_tail[-1]
        dt = t_tail[-1] - t_tail[-2]
        return float(t_tail[-1] + u2 * dt / (u1 - u2))
    return float(traj.t_end)


def detect_blowup(traj: Trajectory) -> BlowupReport:
    """Classify a trajectory and extract the blow-up diagnostics.

    Blow-up means threshold termination, or step underflow with |w| still
    growing at the end (the integrator stalling against the singularity).
    """
    if len(traj.ts) < 2:
        raise EmptyTrajectoryError("trajectory holds no integration steps")
    zeros = list(traj.events)
    ratios = _interval_ratios(traj, zeros)
    term = traj.termination
    w_abs = np.abs(traj.states[:, 0])
    if term == BLOWUP_DETECTED:
        blew_up = True
    elif term == STEP_UNDERFLOW:
        head = w_abs[: max(2, len(w_abs) // 2)]
        blew_up = bool(w_abs[-1] > 10.0 * (1.0 + np.median(head)))
    else:
        blew_up = False
    if not blew_up:
        return BlowupReport(False, None, zeros, ratios)
    r_est = _estimate_blowup_time(traj, zeros)
    if zeros:
        r_est = max(r_est, zeros[-1] + Trajectory.ZERO_TOL)
    return BlowupReport(True, float(r_est), zeros, ratios)


def _hamiltonian_terms(family: OdeFamily, states: np.ndarray):
    """The four terms of H, whose sum is H, along an (N, 4) state array.

    Only conservative families admit H: canonical, and general with no
    odd-derivative terms (a = b = 0), whose restoring force integrates to
    c w^2/2 + |w|^(q+2)/(q+2).
    """
    w, w1, w2, w3 = states.T
    if family.kind == "canonical":
        k = family.k_coef
        Fw = np.asarray(family.nl.F(w))
    elif family.kind == "general" and family.a3 == 0.0 and family.b1 == 0.0:
        k = family.k2
        q = family.q_exp
        Fw = family.c0 * w * w / 2.0 + np.abs(w) ** (q + 2.0) / (q + 2.0)
    else:
        raise UnsupportedFamilyError(
            f"no first integral for family {family.kind!r} with odd-derivative "
            "or displacement-dependent stiffness terms")
    return w1 * w3, -0.5 * w2 * w2, 0.5 * k * w1 * w1, Fw


def hamiltonian(family: OdeFamily, state) -> float:
    """First integral H = w' w''' - (w'')^2/2 + k (w')^2/2 + F(w)."""
    arr = _initial_state(state)[1]
    return float(sum(_hamiltonian_terms(family, arr[None, :]))[0])


def _integral_drift(terms_of: Callable, states: np.ndarray,
                    beyond: np.ndarray) -> Tuple[float, float]:
    """(max |I - I0|, the same relative to 1 + the largest term magnitude)
    for the first integral I = sum(terms_of(rows)), over the rows of states
    before the first one beyond the cap; (0, 0) for fewer than two rows."""
    over = np.flatnonzero(beyond)
    rows = states[:over[0] if len(over) else len(states)]
    if len(rows) < 2:
        return 0.0, 0.0
    terms = terms_of(rows)
    values = sum(terms)
    drift = float(np.max(np.abs(values - values[0])))
    return drift, drift / (1.0 + float(np.max(sum(np.abs(t) for t in terms))))


def hamiltonian_drift(family: OdeFamily, traj: Trajectory,
                      w_cap: float = np.inf) -> Tuple[float, float]:
    """(max |H - H0|, drift relative to the running magnitude of H's terms)
    over the initial window where |w| stays within w_cap.

    Near blow-up the individual terms of H reach ~1e12 while H itself stays
    O(1); float64 can only resolve conservation relative to that term scale,
    so the relative figure uses 1 + max term magnitude as denominator.
    """
    return _integral_drift(lambda rows: _hamiltonian_terms(family, rows),
                           traj.states, np.abs(traj.states[:, 0]) > w_cap)


def check_tech(k: float, state0) -> bool:
    """Strict sign condition w'(0)w''(0) - w(0)w'''(0) - k w(0)w'(0) > 0."""
    w, w1, w2, w3 = _initial_state(state0)[1]
    return bool(w1 * w2 - w * w3 - k * w * w1 > 0.0)
