"""Fourth-order ODE families with finite-time blow-up diagnostics.

Families are integrated as first-order systems in (w, w', w'', w''') with the
adaptive Dormand-Prince pair. Blow-up runs terminate on a displacement
threshold (or step underflow when the threshold is effectively infinite);
the report extracts the zero sequence of w, estimates the blow-up time from
the geometric accumulation of those zeros, and computes the energy-rate
ratios between consecutive sign intervals.
"""
from __future__ import annotations

import json
from dataclasses import dataclass, field
from typing import List, Optional, Sequence, Tuple

import numpy as np

from ._quad import simpson_uniform
from ._rk import (BLOWUP_DETECTED, REACHED_T_END, STEP_UNDERFLOW,
                  RawTrajectory, integrate_adaptive)
from .errors import EmptyTrajectoryError, InvalidParameterError, UnsupportedFamilyError
from .nonlin import Nonlinearity

FAMILY_KINDS = ("canonical", "rocard_wave", "pedestrian_wave", "general")
TERMINATIONS = (REACHED_T_END, BLOWUP_DETECTED, STEP_UNDERFLOW)


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
        if self.kind in ("canonical", "pedestrian_wave") and self.nl is None:
            raise InvalidParameterError(f"{self.kind} family needs a nonlinearity")
        if self.kind == "pedestrian_wave" and self.gamma_p <= 0.0:
            raise InvalidParameterError("pedestrian_wave needs gamma_p > 0")

    def rhs(self):
        """First-order system derivative for (w, w', w'', w''')."""
        kind = self.kind
        if kind == "canonical":
            k, f = self.k_coef, self.nl.f
            def deriv(t, y):
                return np.array([y[1], y[2], y[3], -k * y[2] - f(y[0])])
        elif kind == "rocard_wave":
            al, be = self.alpha_r, self.beta_r
            def deriv(t, y):
                return np.array([y[1], y[2], y[3],
                                 (al * y[0] + be) * y[2] - y[0]])
        elif kind == "pedestrian_wave":
            g, c, d, f = self.gamma_p, self.c_speed, self.delta_damp, self.nl.f
            def deriv(t, y):
                return np.array([y[1], y[2], y[3],
                                 (-c * c * y[2] - d * c * y[1] - f(y[0])) / g])
        else:
            a, k, b, c, q = self.a3, self.k2, self.b1, self.c0, self.q_exp
            def deriv(t, y):
                w = y[0]
                return np.array([y[1], y[2], y[3],
                                 -a * y[3] - k * y[2] - b * y[1] - c * w
                                 - abs(w) ** q * w])
        return deriv


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
        if self.rel_tol <= 0.0 or self.abs_tol <= 0.0:
            raise InvalidParameterError("tolerances must be > 0")
        if self.blowup_threshold <= 1.0:
            raise InvalidParameterError("blowup_threshold must exceed 1")
        if self.max_step <= 0.0:
            raise InvalidParameterError("max_step must be > 0")


class Trajectory(RawTrajectory):
    """Dense ODE solution with located zero crossings of w.

    states       (N, 4) array of (w, w', w'', w''') at the accepted steps
    samples      the same rows as a list of State4
    events       zero-crossing times of w, each bracketed by samples of
                 opposite sign
    termination  reached_t_end | blowup_detected | step_underflow
    """

    ZERO_TOL = 1e-9
    columns = ("w", "w1", "w2", "w3")

    def __init__(self, raw: RawTrajectory, w_index: int = 0):
        super().__init__(raw.ts, raw.ys, raw._rcont, raw.termination,
                         raw.n_rejected)
        self.w_index = w_index
        self.events: List[float] = self.component_zeros(w_index, tol=self.ZERO_TOL)

    @property
    def _raw(self) -> RawTrajectory:
        """The stepper record (ts, ys, n_rejected, ...), which is self."""
        return self

    @property
    def samples(self) -> List[State4]:
        return [State4(t, *row) for t, row in zip(self.ts, self.ys)]


def _initial_state(state0, record=State4) -> Tuple[float, np.ndarray]:
    """(t0, y0) from a state record, or from 4 bare components at t0 = 0."""
    if isinstance(state0, record):
        return state0.t, state0.array
    arr = np.asarray(state0, dtype=float)
    if arr.shape != (4,):
        raise InvalidParameterError("initial state must have 4 components")
    return 0.0, arr


def integrate(family: OdeFamily, state0, cfg: IntegratorConfig) -> Trajectory:
    """Adaptively integrate the family from state0 until cfg.t_end, the
    blow-up threshold, or step underflow."""
    t0, y0 = _initial_state(state0)
    raw = integrate_adaptive(family.rhs(), t0, y0, cfg.t_end,
                             rtol=cfg.rel_tol, atol=cfg.abs_tol,
                             max_step=cfg.max_step, stop_indices=(0,),
                             stop_threshold=cfg.blowup_threshold)
    return Trajectory(raw)


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
                           "ratios": [list(r) for r in self.ratios]})


def _interval_ratios(traj: Trajectory, zeros: Sequence[float],
                     points_per_interval: int = 512) -> List[Tuple[float, float]]:
    out = []
    npts = points_per_interval + 1  # even interval count for Simpson
    for z0, z1 in zip(zeros[:-1], zeros[1:]):
        tt = np.linspace(z0, z1, npts)
        Y = traj.eval(tt)
        h = (z1 - z0) / (npts - 1)
        i_w = simpson_uniform(Y[:, 0] ** 2, h)
        i_w1 = simpson_uniform(Y[:, 1] ** 2, h)
        i_w2 = simpson_uniform(Y[:, 2] ** 2, h)
        if i_w2 == 0.0:
            out.append((0.0, 0.0))
        else:
            out.append((i_w / i_w2, i_w1 / i_w2))
    return out


def _estimate_blowup_time(traj: Trajectory, zeros: Sequence[float]) -> float:
    """Blow-up time from the geometric accumulation of the zeros z_j -> R.

    Consecutive gaps shrink nearly geometrically; summing the tail of the
    geometric series lands within a fraction of the final gap of the true R.
    Falls back to a secant extrapolation of 1/|w| toward zero on the final
    monotone stretch when fewer than four zeros are available.
    """
    t_last = traj.t_end
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
    w_tail = np.abs(states[start:, traj.w_index])
    t_tail = ts[start:]
    if len(w_tail) >= 2 and w_tail[-1] > w_tail[-2] > 0.0:
        u1, u2 = 1.0 / w_tail[-2], 1.0 / w_tail[-1]
        dt = t_tail[-1] - t_tail[-2]
        return float(t_tail[-1] + u2 * dt / (u1 - u2))
    return float(t_last)


def detect_blowup(traj: Trajectory, cfg: Optional[IntegratorConfig] = None,
                  points_per_interval: int = 512) -> BlowupReport:
    """Classify a trajectory and extract the blow-up diagnostics.

    Blow-up means threshold termination, or step underflow with |w| still
    growing at the end (the integrator stalling against the singularity).
    """
    if len(traj.ts) < 2:
        raise EmptyTrajectoryError("trajectory holds no integration steps")
    zeros = list(traj.events)
    ratios = _interval_ratios(traj, zeros, points_per_interval)
    term = traj.termination
    w_abs = np.abs(traj.states[:, traj.w_index])
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
    arr = state.array if isinstance(state, State4) else np.asarray(state, float)
    return float(sum(_hamiltonian_terms(family, arr[None, :]))[0])


def _integral_drift(terms) -> Tuple[float, float]:
    """(max |I - I0|, the same relative to 1 + the largest term magnitude)
    for a first integral I given as the sum of its term arrays."""
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
    states = traj.states
    over = np.where(np.abs(states[:, 0]) > w_cap)[0]
    end = over[0] if len(over) else len(states)
    if end < 2:
        return 0.0, 0.0
    return _integral_drift(_hamiltonian_terms(family, states[:end]))


def check_tech(k: float, state0) -> bool:
    """Strict sign condition w'(0)w''(0) - w(0)w'''(0) - k w(0)w'(0) > 0."""
    arr = state0.array if isinstance(state0, State4) else np.asarray(state0, float)
    w, w1, w2, w3 = arr
    return bool(w1 * w2 - w * w3 - k * w * w1 > 0.0)
