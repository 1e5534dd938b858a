"""Flutter threshold, wind-energy input, the switch law, and the energy
functionals that drive the mode-threshold bookkeeping.

Quantities here are pure functions over supplied fields and parameter
records; nothing holds mutable state.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, fields
from typing import Callable, Sequence, Tuple

import numpy as np

from ._quad import tensor_grid
from .errors import InvalidParameterError, _number


@dataclass(frozen=True)
class FlutterParams:
    """Inputs of the undamped critical-speed formula."""

    half_width_l: float
    gyration_r: float
    omega_B: float
    omega_T: float
    alpha_mass: float

    def __post_init__(self):
        for f in fields(self):
            if not 0.0 < getattr(self, f.name) < math.inf:
                raise InvalidParameterError(f"{f.name} must be finite and positive")


def _square(params, name: str) -> float:
    try:
        return getattr(params, name) ** 2
    except OverflowError:
        raise InvalidParameterError(f"{name} is too large: its square "
                                    "overflows a float") from None


def flutter_speed(params: FlutterParams) -> float:
    """Critical wind speed V_c with
    V_c^2 = (2 r^2 l^2 / (2 r^2 + l^2)) (omega_T^2 - omega_B^2) / alpha.

    Raises when omega_T < omega_B: the radicand turns negative and the
    formula defines no flutter threshold.

    Historical calibration (the original Tacoma Narrows deck, where this
    formula lands within ~10% of the collapse wind speed) needs measured
    modal frequencies that are not bundled here; tests pin the algebraic
    structure instead: V_c = 0 at equal frequencies and exact degree-1
    homogeneity in (l, r). Raises when V_c itself overflows a float.
    """
    r2, l2, wT2, wB2 = (_square(params, name) for name in (
        "gyration_r", "half_width_l", "omega_T", "omega_B"))
    gap = wT2 - wB2
    if gap < 0.0:
        raise InvalidParameterError(
            "omega_T < omega_B: negative radicand, no flutter threshold")
    # the ratio first, so that r^2 l^2 cannot overflow where V_c^2 does not
    v_c = math.sqrt(2.0 * r2 / (2.0 * r2 + l2) * l2 * gap / params.alpha_mass)
    if not v_c < math.inf:
        raise InvalidParameterError("V_c is not a finite float for these fields")
    return v_c


def gust_energy(phi_field: Callable, geom, t: float,
                quadrature_n: int = 32) -> float:
    """Total squared gust amplitude int_Omega phi(x, t)^2 dx by tensor
    Gauss quadrature on (0, L) x (-l, l)."""
    if quadrature_n < 8:
        raise InvalidParameterError("quadrature_n must be >= 8 per axis")
    X1, X2, W = tensor_grid((0.0, geom.length_L, -geom.half_width_l,
                             geom.half_width_l), quadrature_n)
    vals = np.asarray(phi_field(X1, X2, t), dtype=float)
    return float(np.sum(W * np.broadcast_to(vals, X1.shape) ** 2))


def switch_value(total_E, threshold_Ebar: float):
    """Switch law: +1 while the energy stays at or below the critical
    threshold, -1 above it; elementwise, with an int for a scalar energy."""
    s = np.where(np.asarray(total_E) <= threshold_Ebar, 1, -1)
    return int(s) if s.ndim == 0 else s


@dataclass(frozen=True)
class EnergyLedger:
    """Bookkeeping of the total energy against the mode thresholds.

    schedule lists the ascending thresholds E_1 < ... < E_mu; the last entry
    is the critical threshold Ebar at which the switch flips.
    """

    total_E: float
    schedule: Tuple[float, ...]

    def __post_init__(self):
        if not self.schedule:
            raise InvalidParameterError("schedule must be nonempty")
        if not np.all(np.isfinite([self.total_E, *self.schedule])):
            raise InvalidParameterError("total_E and the schedule must be finite")
        if not np.all(np.diff(self.schedule) > 0.0):
            raise InvalidParameterError("schedule must be strictly ascending")

    @property
    def threshold_Ebar(self) -> float:
        return self.schedule[-1]

    @property
    def switch(self) -> int:
        return switch_value(self.total_E, self.threshold_Ebar)

    @property
    def torsional_active(self) -> bool:
        return self.total_E > self.threshold_Ebar


def make_ledger(total_E: float, schedule: Sequence[float]) -> EnergyLedger:
    return EnergyLedger(_number(total_E, "total_E"),
                        tuple(_number(s, "schedule") for s in schedule))


def switch_state(ledger: EnergyLedger) -> int:
    return ledger.switch


def active_mode_count(ledger: EnergyLedger) -> int:
    """Number of engaged modes: the always-active first one plus one per
    threshold strictly below the current energy."""
    return 1 + int(sum(1 for e in ledger.schedule if e < ledger.total_E))


def ledger_report(ledger: EnergyLedger) -> dict:
    return {
        "total_E": ledger.total_E,
        "threshold_Ebar": ledger.threshold_Ebar,
        "switch": ledger.switch,
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
        for f in fields(self):
            if not 0.0 < getattr(self, f.name) < math.inf:
                raise InvalidParameterError(f"{f.name} must be finite and positive")


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
    int_0^L (sqrt(1 + (m pi/L)^2 a_m^2 cos^2(m pi x/L)) - 1) dx.

    With c = (m pi a_m / L)^2 it is (2L/pi) sqrt(1 + c) E(c / (1 + c)) - L,
    E complete of the second kind, here L (a^2 - S) / AGM(a, 1) - L with
    a^2 = 1 + c and S = sum_n 2^(n-1) c_n^2 (Gauss-Kummer); the mean
    iterates until its last half gap c_n is within tol of a, relative
    (at least 1e-15). Below c = 0.1, where subtracting L costs digits, it is
    the binomial series L sum_k binom(1/2, k) binom(2k, k) (c/4)^k, summed
    until a term no longer changes the sum: L (c/4 - 3c^2/64 + ...)."""
    if m < 1 or L <= 0.0:
        raise InvalidParameterError("need m >= 1 and L > 0")
    slope = m * math.pi * a_m / L
    c = slope * slope
    if not c < math.inf:
        raise InvalidParameterError("(m pi a_m / L)^2 must be finite")
    if c < 0.1:
        k, term, total = 1, 0.25 * c, 0.0
        while total + term != total:
            k, total = k + 1, total + term
            term *= -(2 * k - 3) * (2 * k - 1) / (4.0 * k * k) * c
        return L * total
    a, b, weight, total, gap = math.sqrt(1.0 + c), 1.0, 0.5, 0.5 * c, math.inf
    while gap > max(1e-15, tol) * a:
        gap = 0.5 * (a - b)
        a, b, weight = a - gap, math.sqrt(a * b), 2.0 * weight
        total += weight * gap * gap
    return L * ((1.0 + c - total) / a - 1.0)


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
    X1, X2, W = tensor_grid(region, quadrature_n)
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
    X1, X2, W = tensor_grid(region, quadrature_n)
    g1 = _field_eval(u_field, X1, X2, 1, 0)
    g2 = _field_eval(u_field, X1, X2, 0, 1)
    return float(np.sum(W * (np.sqrt(1.0 + g1 ** 2 + g2 ** 2) - 1.0)))
