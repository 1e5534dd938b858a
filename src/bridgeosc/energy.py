"""Flutter threshold, wind-energy input, the switch law, and the energy
functionals that drive the mode-threshold bookkeeping.

Quantities here are pure functions over supplied fields and parameter
records; nothing holds mutable state.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Sequence, Tuple

import numpy as np

from ._quad import adaptive_simpson, tensor_grid
from .errors import InvalidParameterError


@dataclass(frozen=True)
class FlutterParams:
    """Inputs of the undamped critical-speed formula."""

    half_width_l: float
    gyration_r: float
    omega_B: float
    omega_T: float
    alpha_mass: float

    def __post_init__(self):
        for name in ("half_width_l", "gyration_r", "omega_B", "omega_T",
                     "alpha_mass"):
            if getattr(self, name) <= 0.0:
                raise InvalidParameterError(f"{name} must be positive")


def flutter_speed(params: FlutterParams) -> float:
    """Critical wind speed V_c with
    V_c^2 = (2 r^2 l^2 / (2 r^2 + l^2)) (omega_T^2 - omega_B^2) / alpha.

    Raises when omega_T < omega_B: the radicand turns negative and the
    formula defines no flutter threshold.

    Historical calibration (the original Tacoma Narrows deck, where this
    formula lands within ~10% of the collapse wind speed) needs measured
    modal frequencies that are not bundled here; tests pin the algebraic
    structure instead: V_c = 0 at equal frequencies and exact degree-1
    homogeneity in (l, r).
    """
    r2 = params.gyration_r ** 2
    l2 = params.half_width_l ** 2
    gap = params.omega_T ** 2 - params.omega_B ** 2
    if gap < 0.0:
        raise InvalidParameterError(
            "omega_T < omega_B: negative radicand, no flutter threshold")
    return math.sqrt(2.0 * r2 * l2 / (2.0 * r2 + l2) * gap / params.alpha_mass)


def gust_energy(phi_field: Callable, geom, t: float,
                quadrature_n: int = 32) -> float:
    """Total squared gust amplitude int_Omega phi(x, t)^2 dx by tensor
    Gauss quadrature on (0, L) x (-l, l)."""
    if quadrature_n < 8:
        raise InvalidParameterError("quadrature_n must be >= 8 per axis")
    X1, X2, W = tensor_grid((0.0, geom.length_L),
                            (-geom.half_width_l, geom.half_width_l),
                            quadrature_n, quadrature_n)
    vals = np.asarray(phi_field(X1, X2, t), dtype=float)
    return float(np.sum(W * np.broadcast_to(vals, X1.shape) ** 2))


def switch_value(total_E: float, threshold_Ebar: float) -> int:
    """Switch law: +1 while the energy stays at or below the critical
    threshold, -1 above it."""
    return 1 if total_E <= threshold_Ebar else -1


@dataclass(frozen=True)
class EnergyLedger:
    """Bookkeeping of the total energy against the mode thresholds.

    schedule lists the ascending thresholds E_1 < ... < E_mu; the last entry
    is the critical threshold Ebar at which the switch flips.
    """

    total_E: float
    threshold_Ebar: float
    schedule: Tuple[float, ...]
    switch: int

    def __post_init__(self):
        if not self.schedule:
            raise InvalidParameterError("schedule must be nonempty")
        diffs = np.diff(self.schedule)
        if len(diffs) and not np.all(diffs > 0.0):
            raise InvalidParameterError("schedule must be strictly ascending")
        if self.schedule[-1] != self.threshold_Ebar:
            raise InvalidParameterError("threshold_Ebar must equal the last threshold")
        if self.switch != switch_value(self.total_E, self.threshold_Ebar):
            raise InvalidParameterError("switch disagrees with the energy level")

    @property
    def torsional_active(self) -> bool:
        return self.total_E > self.schedule[-1]


def make_ledger(total_E: float, schedule: Sequence[float]) -> EnergyLedger:
    sched = tuple(float(s) for s in schedule)
    if not sched:
        raise InvalidParameterError("schedule must be nonempty")
    return EnergyLedger(total_E=float(total_E), threshold_Ebar=sched[-1],
                        schedule=sched, switch=switch_value(total_E, sched[-1]))


def switch_state(ledger: EnergyLedger) -> int:
    return switch_value(ledger.total_E, ledger.threshold_Ebar)


def active_mode_count(ledger: EnergyLedger) -> int:
    """Number of engaged modes: the always-active first one plus one per
    threshold strictly below the current energy."""
    return 1 + int(sum(1 for e in ledger.schedule if e < ledger.total_E))


def ledger_report(ledger: EnergyLedger) -> dict:
    return {
        "total_E": ledger.total_E,
        "threshold_Ebar": ledger.threshold_Ebar,
        "switch": switch_state(ledger),
        "active_modes": active_mode_count(ledger),
        "torsional_active": ledger.torsional_active,
    }


@dataclass(frozen=True)
class NetInputParams:
    """Coefficients of the per-cycle net energy input balance."""

    weight_w: float
    H_w: float
    EA_stiff: float
    length_L: float
    damp_C: float

    def __post_init__(self):
        for name in ("weight_w", "H_w", "EA_stiff", "length_L", "damp_C"):
            if getattr(self, name) <= 0.0:
                raise InvalidParameterError(f"{name} must be positive")


def _trapezoid(values: np.ndarray, dx: float) -> float:
    return float(dx * (np.sum(values) - 0.5 * (values[0] + values[-1])))


def net_energy_input(eta_samples, params: NetInputParams) -> float:
    """Net input per cycle A = (w^2/H_w^2)(EA/L) int eta - C int eta^2,
    with eta sampled uniformly over [0, L] (trapezoid quadrature)."""
    eta = np.asarray(eta_samples, dtype=float)
    if eta.ndim != 1 or eta.size < 2:
        raise InvalidParameterError("eta_samples must be a 1-D array of >= 2 values")
    dx = params.length_L / (eta.size - 1)
    gain = params.weight_w ** 2 / params.H_w ** 2 * params.EA_stiff / params.length_L
    return gain * _trapezoid(eta, dx) - params.damp_C * _trapezoid(eta * eta, dx)


def elongation_mode(a_m: float, m: int, L: float, tol: float = 1e-10) -> float:
    """Axial elongation of the m-th vertical mode at amplitude a_m:
    int_0^L (sqrt(1 + (m pi/L)^2 a_m^2 cos^2(m pi x/L)) - 1) dx."""
    if m < 1 or L <= 0.0:
        raise InvalidParameterError("need m >= 1 and L > 0")
    if a_m == 0.0:
        return 0.0
    k = m * math.pi / L
    c = (k * a_m) ** 2

    def integrand(x):
        return math.sqrt(1.0 + c * math.cos(k * x) ** 2) - 1.0

    return adaptive_simpson(integrand, 0.0, L, tol=tol)


def _field_eval(field, x1, x2, dx1=0, dx2=0):
    """Evaluate a field object (with .eval) or a plain callable (values only)
    on the broadcast shape of x1 and x2; a None field is zero."""
    shape = np.broadcast(x1, x2).shape
    if field is None:
        return np.zeros(shape)
    if hasattr(field, "eval"):
        vals = field.eval(x1, x2, dx1, dx2)
    elif dx1 or dx2:
        raise InvalidParameterError(
            "plain callables provide no derivatives; pass an object with "
            "an eval(x1, x2, dx1, dx2) method")
    else:
        vals = field(x1, x2)
    return np.broadcast_to(np.asarray(vals, dtype=float), shape)


def local_energy(u_field, ut_field, F: Callable, sigma: float, region,
                 quadrature_n: int = 32) -> float:
    """Instantaneous energy over a subregion omega = (a1, b1) x (a2, b2):
    int [ (Delta u)^2/2 + (sigma-1) det(D^2 u) + u_t^2/2 + F(u) ].

    u_field must expose second derivatives; ut_field may be None for a
    plate at rest.
    """
    a1, b1, a2, b2 = region
    X1, X2, W = tensor_grid((a1, b1), (a2, b2), quadrature_n, quadrature_n)
    u11 = _field_eval(u_field, X1, X2, 2, 0)
    u22 = _field_eval(u_field, X1, X2, 0, 2)
    u12 = _field_eval(u_field, X1, X2, 1, 1)
    lap = u11 + u22
    det = u11 * u22 - u12 ** 2
    uval = _field_eval(u_field, X1, X2)
    ut = _field_eval(ut_field, X1, X2)
    integrand = (0.5 * lap ** 2 + (sigma - 1.0) * det + 0.5 * ut ** 2
                 + np.asarray(F(uval), dtype=float))
    return float(np.sum(W * integrand))


def stretching_energy(u_field, region, quadrature_n: int = 32) -> float:
    """Surface-increase energy int (sqrt(1 + |grad u|^2) - 1) over region."""
    a1, b1, a2, b2 = region
    X1, X2, W = tensor_grid((a1, b1), (a2, b2), quadrature_n, quadrature_n)
    g1 = _field_eval(u_field, X1, X2, 1, 0)
    g2 = _field_eval(u_field, X1, X2, 0, 1)
    return float(np.sum(W * (np.sqrt(1.0 + g1 ** 2 + g2 ** 2) - 1.0)))
