"""Coupled torsional/vertical second-order systems and their diagnostics.

Covers the full trigonometric hanger system, its small-angle reduction, the
modified linear-plus-restoring system whose difference variable satisfies a
fourth-order blow-up equation, the linear-limit classifier, and the linear
aeroelastic comparison model solved in closed form.
"""
from __future__ import annotations

import cmath
from dataclasses import astuple, dataclass
from typing import List, Tuple

import numpy as np

from ._rk import RawTrajectory, integrate_adaptive
from .errors import InvalidParameterError
from .io import write_csv
from .nonlin import Nonlinearity
from .ode4 import (IntegratorConfig, Trajectory, _initial_state,
                   _integral_drift)


@dataclass(frozen=True)
class SysState:
    """Torsional coordinate x, vertical coordinate y and their velocities."""

    t: float
    x: float
    xd: float
    y: float
    yd: float

    def __post_init__(self):
        if not all(np.isfinite([self.t, self.x, self.xd, self.y, self.yd])):
            raise InvalidParameterError("SysState entries must be finite")

    @property
    def array(self) -> np.ndarray:
        return np.array([self.x, self.xd, self.y, self.yd])


@dataclass(frozen=True)
class McKennaParams:
    """Cross-section model: mass and half roadway width."""

    mass_m: float = 1.0
    half_width_l: float = 1.0

    def __post_init__(self):
        if not (0.0 < self.mass_m < np.inf and 0.0 < self.half_width_l < np.inf):
            raise InvalidParameterError("mass_m and half_width_l must be finite, > 0")


@dataclass(frozen=True)
class MiosystParams:
    beta: float
    delta: float

    def blowup_window(self) -> bool:
        """Parameter window beta < delta <= -beta where oscillating blow-up
        is guaranteed for admissible cubic forces and initial data."""
        return self.beta < self.delta <= -self.beta


@dataclass(frozen=True)
class ScanlanParams:
    """Linear torsional flutter model I(th'' + 2 zeta w th' + w^2 th) = A th' + B th."""

    inertia_I: float
    zeta: float
    omega_n: float
    A_lift: float
    B_lift: float

    def __post_init__(self):
        if not (np.all(np.isfinite(astuple(self))) and self.inertia_I > 0.0
                and self.omega_n > 0.0 and self.zeta >= 0.0):
            raise InvalidParameterError(
                "need finite fields with inertia_I > 0, omega_n > 0, zeta >= 0")


class SysTrajectory(RawTrajectory):
    """Dense solution of one of the 2x2 systems; state order (x, xd, y, yd).

    samples holds the same rows as SysState records.
    """

    columns = ("x", "xd", "y", "yd")

    def __init__(self, raw: RawTrajectory):
        vars(self).update(vars(raw))  # the stepper record, built steps and all

    @property
    def samples(self) -> List[SysState]:
        return [SysState(t, *row) for t, row in zip(self.ts, self.ys)]


def _integrate_sys(rhs, s0, cfg: IntegratorConfig) -> SysTrajectory:
    t0, y0 = _initial_state(s0, SysState)
    raw = integrate_adaptive(rhs, t0, y0, cfg.t_end, rtol=cfg.rel_tol,
                             atol=cfg.abs_tol, max_step=cfg.max_step,
                             stop_indices=(0, 2),
                             stop_threshold=cfg.blowup_threshold)
    return SysTrajectory(raw)


def integrate_coupled(params: McKennaParams, nl: Nonlinearity, s0,
                      cfg: IntegratorConfig) -> SysTrajectory:
    """Full trigonometric hanger system; x is the torsion angle theta here.

    (m l^2/3) th'' = l cos(th) (f(y - l sin th) - f(y + l sin th))
    m y''          = -(f(y - l sin th) + f(y + l sin th))
    """
    m, ell, f = params.mass_m, params.half_width_l, nl.f

    def rhs(t, s):
        th, thd, y, yd = s
        st, ct = np.sin(th), np.cos(th)
        if type(th) is float:  # numpy floats would carry the stepper's floats
            st, ct = float(st), float(ct)
        f_minus = f(y - ell * st)
        f_plus = f(y + ell * st)
        return [thd, 3.0 * ct * (f_minus - f_plus) / (m * ell),
                yd, -(f_minus + f_plus) / m]

    return _integrate_sys(rhs, s0, cfg)


def integrate_truesystem(omega2: float, nl: Nonlinearity, s0,
                         cfg: IntegratorConfig) -> SysTrajectory:
    """Small-angle reduction: x'' + w2 (f(y+x) - f(y-x)) = 0,
    y'' + f(y+x) + f(y-x) = 0."""
    f = nl.f

    def rhs(t, s):
        x, xd, y, yd = s
        f_plus = f(y + x)
        f_minus = f(y - x)
        return [xd, omega2 * (f_minus - f_plus), yd, -(f_plus + f_minus)]

    return _integrate_sys(rhs, s0, cfg)


def integrate_miosyst(params: MiosystParams, nl: Nonlinearity, s0,
                      cfg: IntegratorConfig) -> SysTrajectory:
    """x'' - f(y-x) + beta (y+x) = 0, y'' - f(y-x) + delta (y+x) = 0."""
    if nl.kind not in ("cubic", "mckenna_cubic"):
        raise InvalidParameterError(
            "integrate_miosyst expects a cubic or mckenna_cubic nonlinearity")
    beta, delta, f = params.beta, params.delta, nl.f

    def rhs(t, s):
        x, xd, y, yd = s
        fw = f(y - x)
        z = y + x
        return [xd, fw - beta * z, yd, fw - delta * z]

    return _integrate_sys(rhs, s0, cfg)


def reduction_matrix(params: MiosystParams) -> np.ndarray:
    """Linear map (x, xd, y, yd) -> (w, w', w'', w''') with w = y - x,
    w'' = -(delta-beta)(y+x)."""
    d = params.delta - params.beta
    if d == 0.0:
        raise InvalidParameterError("reduction is degenerate for delta == beta")
    return np.array([[-1.0, 0.0, 1.0, 0.0],
                     [0.0, -1.0, 0.0, 1.0],
                     [-d, 0.0, -d, 0.0],
                     [0.0, -d, 0.0, -d]])


def to_fourth_order(params: MiosystParams, nl: Nonlinearity,
                    sys_traj: SysTrajectory) -> Trajectory:
    """Map a miosyst trajectory onto the fourth-order variable w = y - x.

    The map is linear and exact on the dense output; the image satisfies
    w'''' + (beta+delta) w'' + 2(delta-beta) f(w) = 0 with the given nl.
    """
    mat = reduction_matrix(params)
    return Trajectory(sys_traj.map_linear(mat))


def reduction_residual(params: MiosystParams, nl: Nonlinearity,
                  sys_traj: SysTrajectory, ts=None) -> np.ndarray:
    """Pointwise residual of the reduced fourth-order equation.

    w'''' comes from the system dynamics (z'' chain rule on the raw samples),
    the remaining terms from the to_fourth_order mapping; differencing of
    samples is never used.
    """
    mat = reduction_matrix(params)  # raises for the degenerate delta == beta
    beta, delta = params.beta, params.delta
    d = delta - beta
    tt = sys_traj.ts if ts is None else np.asarray(ts, dtype=float)
    sys_states = sys_traj.eval(tt) if ts is not None else sys_traj.states
    x, y = sys_states[:, 0], sys_states[:, 2]
    z = y + x
    w4 = -d * (2.0 * np.asarray(nl.f(y - x)) - (beta + delta) * z)
    mapped = sys_states @ mat.T
    return w4 + (beta + delta) * mapped[:, 2] + 2.0 * d * np.asarray(nl.f(mapped[:, 0]))


def _first_integral_terms(params: MiosystParams, nl: Nonlinearity,
                          states: np.ndarray):
    """The four terms of E, whose sum is E, along an (N, 4) array of
    (w, w', w'', w''')."""
    w, w1, w2, w3 = states.T
    b, d = params.beta, params.delta
    return ((b + d) / 2.0 * w1 * w1, w1 * w3,
            2.0 * (d - b) * np.asarray(nl.F(w)), -0.5 * w2 * w2)


def first_integral_E(params: MiosystParams, nl: Nonlinearity, state4) -> float:
    """E = (beta+delta)/2 (w')^2 + w' w''' + 2(delta-beta) F(w) - (w'')^2/2."""
    arr = _initial_state(state4)[1]  # a State4 or (w, w', w'', w''')
    return float(sum(_first_integral_terms(params, nl, arr[None, :]))[0])


def first_integral_drift(params: MiosystParams, nl: Nonlinearity,
                         traj: Trajectory, cap: float = np.inf
                         ) -> Tuple[float, float]:
    """(max |E - E0|, same relative to the running term magnitude) over the
    initial window where |w|, |w'|, |w''|, |w'''| all stay within cap."""
    return _integral_drift(lambda rows: _first_integral_terms(params, nl, rows),
                           traj.states, np.max(np.abs(traj.states), axis=1) > cap)


def check_initial_oscill(params: MiosystParams, s0) -> bool:
    """Initial-data sign condition that triggers the oscillating blow-up:
    (3b-d) x0 y1 + (3d-b) x1 y0 > (b+d)(x0 x1 + y0 y1)."""
    _, arr = _initial_state(s0, SysState)
    x0, x1, y0, y1 = arr
    b, d = params.beta, params.delta
    return bool((3.0 * b - d) * x0 * y1 + (3.0 * d - b) * x1 * y0
                > (b + d) * (x0 * x1 + y0 * y1))


@dataclass(frozen=True)
class F0Classification:
    """Linear-limit regime from A = b+d, B = 2(d-b), Delta = A^2 + 8(b-d)."""

    A_sum: float
    B_diff: float
    Delta_disc: float
    regime: str  # oscillatory | double_root | real_exponential


def classify_f0(beta: float, delta: float) -> F0Classification:
    A = beta + delta
    B = 2.0 * (delta - beta)
    disc = A * A + 8.0 * (beta - delta)
    if disc < 0.0:
        regime = "oscillatory"
    elif disc == 0.0:
        regime = "double_root"
    else:
        regime = "real_exponential"
    return F0Classification(A, B, disc, regime)


@dataclass(frozen=True)
class ScanlanSolution:
    """Closed-form solution of the linear model on a uniform grid.

    Amplitudes are bounded by C exp(growth_exponent * t): growth in infinite
    time at most, never a finite-time singularity.
    """

    ts: np.ndarray
    theta: np.ndarray
    theta_dot: np.ndarray
    roots: Tuple[complex, complex]
    growth_exponent: float

    def to_csv(self, path) -> None:
        write_csv(path, ["t", "theta", "theta_dot"],
                  np.column_stack([self.ts, self.theta, self.theta_dot]))


def solve_scanlan(params: ScanlanParams, theta0: float, thetad0: float,
                  t_end: float, n_samples: int = 2001) -> ScanlanSolution:
    """Solve I th'' + (2 zeta w I - A) th' + (w^2 I - B) th = 0 exactly.

    Characteristic roots of the quadratic give the trajectory in closed form;
    growth_exponent is the largest real part.
    """
    if not (0.0 < t_end < np.inf and np.all(np.isfinite([theta0, thetad0]))
            and n_samples >= 2):
        raise InvalidParameterError(
            "need finite theta0, thetad0 and t_end > 0, and n_samples >= 2")
    I = params.inertia_I
    c1 = 2.0 * params.zeta * params.omega_n * I - params.A_lift
    c0 = params.omega_n * params.omega_n * I - params.B_lift
    disc = cmath.sqrt(c1 * c1 - 4.0 * I * c0)
    r1 = (-c1 + disc) / (2.0 * I)
    r2 = (-c1 - disc) / (2.0 * I)
    if not np.all(np.isfinite([c1, c0, r1, r2])):
        raise InvalidParameterError("inertia_I, zeta, omega_n, A_lift and B_lift "
                                    "give roots that overflow a float")
    ts = np.linspace(0.0, t_end, n_samples)
    with np.errstate(all="ignore"):  # overflow is rejected below, not warned
        if abs(r1 - r2) > 1e-14 * max(1.0, abs(r1), abs(r2)):
            c_a = (thetad0 - r2 * theta0) / (r1 - r2)
            c_b = theta0 - c_a
            th = c_a * np.exp(r1 * ts) + c_b * np.exp(r2 * ts)
            thd = c_a * r1 * np.exp(r1 * ts) + c_b * r2 * np.exp(r2 * ts)
        else:
            c_a, c_b = theta0, thetad0 - r1 * theta0
            th = (c_a + c_b * ts) * np.exp(r1 * ts)
            thd = (c_b + r1 * (c_a + c_b * ts)) * np.exp(r1 * ts)
    if not (np.all(np.isfinite(th.real)) and np.all(np.isfinite(thd.real))):
        raise InvalidParameterError("theta overflows a float before t_end")
    return ScanlanSolution(ts, th.real.astype(float), thd.real.astype(float),
                           (complex(r1), complex(r2)),
                           float(max(r1.real, r2.real)))


@dataclass(frozen=True)
class EnvelopeFit:
    slope: float
    intercept: float
    r_squared: float
    n_peaks: int


def log_amplitude_fit(sol: ScanlanSolution) -> EnvelopeFit:
    """Least-squares fit of log |theta| at the oscillation peaks against t.

    The slope estimates the growth exponent; R^2 near 1 certifies a clean
    exponential envelope.
    """
    a = np.abs(sol.theta)
    peaks = np.where((a[1:-1] > a[:-2]) & (a[1:-1] >= a[2:]) & (a[1:-1] > 0.0))[0] + 1
    if len(peaks) < 3:
        raise InvalidParameterError("need at least 3 envelope peaks to fit")
    tp = sol.ts[peaks]
    lp = np.log(a[peaks])
    slope, intercept = np.polyfit(tp, lp, 1)
    pred = slope * tp + intercept
    ss_res = float(np.sum((lp - pred) ** 2))
    ss_tot = float(np.sum((lp - np.mean(lp)) ** 2))
    r2 = 1.0 if ss_tot == 0.0 else 1.0 - ss_res / ss_tot
    return EnvelopeFit(float(slope), float(intercept), r2, len(peaks))
