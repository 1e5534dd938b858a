"""Galerkin solver for the switching plate-wave model.

The displacement is truncated onto the two analytic mode families,
u ~ sum_m (a_m(t) + b_m(t) x2) sin(m pi x1 / L), which diagonalizes the
biharmonic term and splits vertical (a) from torsional (b) dynamics. The
dynamic boundary law is imposed as a stiff linear penalty on the family the
switch currently constrains; the switch itself is a function of the gust
energy alone, so its flip times are located independently of the state.
"""
from __future__ import annotations

import functools
import json
import math
from dataclasses import dataclass
from typing import Callable, List, Optional, Tuple

import numpy as np

from ._quad import gauss_nodes_1d
from ._rk import REACHED_T_END, RawTrajectory, bisect, integrate_adaptive
from .energy import _field_eval, gust_energy, switch_value
from .errors import InvalidParameterError
from .io import write_csv
from .nonlin import Nonlinearity
from .plate import PlateGeom, _sin_deriv

BLOWUP_MODAL_NORM = 1e6


@dataclass(frozen=True)
class GustForcing:
    """Separable gust phi(x, t) = amp(t) * profile(x).

    amp follows the breakpoints by linear interpolation and stays constant
    outside their span. profile is one of uniform / vertical / torsional,
    the modal ones indexed by profile_m.
    """

    breakpoints: Tuple[Tuple[float, float], ...]
    profile: str = "uniform"
    profile_m: int = 1

    def __post_init__(self):
        if not self.breakpoints:
            raise InvalidParameterError("forcing needs at least one breakpoint")
        tp = [t for t, _ in self.breakpoints]
        if any(t1 >= t2 for t1, t2 in zip(tp, tp[1:])):
            raise InvalidParameterError("breakpoint times must be ascending")
        if self.profile not in ("uniform", "vertical", "torsional"):
            raise InvalidParameterError(f"unknown profile {self.profile!r}")
        if self.profile_m < 1:
            raise InvalidParameterError("profile_m must be >= 1")

    def amp(self, t):
        tp = np.array([p[0] for p in self.breakpoints])
        vp = np.array([p[1] for p in self.breakpoints])
        return np.interp(t, tp, vp)

    def profile_values(self, geom: PlateGeom, x1, x2):
        x1 = np.asarray(x1, dtype=float)
        x2 = np.asarray(x2, dtype=float)
        if self.profile == "uniform":
            return np.ones(np.broadcast(x1, x2).shape)
        k = self.profile_m * math.pi / geom.length_L
        base = np.sin(k * x1)
        if self.profile == "vertical":
            return np.broadcast_to(base, np.broadcast(x1, x2).shape).copy()
        return x2 * base

    def phi(self, geom: PlateGeom) -> Callable:
        def fun(x1, x2, t):
            return self.amp(t) * self.profile_values(geom, x1, x2)
        return fun

    def profile_norm2(self, geom: PlateGeom, quadrature_n: int = 32) -> float:
        """|profile|^2 = int profile^2 over the plate."""
        return gust_energy(lambda a, b, _t: self.profile_values(geom, a, b),
                           geom, 0.0, quadrature_n)

    def energy(self, geom: PlateGeom, t, quadrature_n: int = 32):
        """Gust energy int phi^2; separability makes it amp(t)^2 * |profile|^2."""
        return np.asarray(self.amp(t)) ** 2 * self.profile_norm2(geom, quadrature_n)

    def threshold_crossings(self, geom: PlateGeom, threshold: float,
                            t0: float, t1: float,
                            quadrature_n: int = 32) -> List[float]:
        """Times in (t0, t1) where the gust energy crosses the threshold,
        bisection-located on each monotone piece of the envelope."""
        # piecewise-linear amp: g(t) = amp(t)^2 * |profile|^2 - threshold is
        # piecewise quadratic; splitting pieces where amp changes sign makes
        # every part monotone, so one bisection per sign change suffices
        prof_norm2 = self.profile_norm2(geom, quadrature_n)

        def g(t):
            return float(self.amp(t)) ** 2 * prof_norm2 - threshold

        knots = [t0] + [t for t, _ in self.breakpoints if t0 < t < t1] + [t1]
        refined = []
        for lo, hi in zip(knots[:-1], knots[1:]):
            a_lo, a_hi = float(self.amp(lo)), float(self.amp(hi))
            refined.append(lo)
            if a_lo * a_hi < 0.0:  # amp crosses zero inside the piece
                refined.append(lo + (hi - lo) * a_lo / (a_lo - a_hi))
        refined.append(t1)
        out = []
        for lo, hi in zip(refined[:-1], refined[1:]):
            if hi - lo <= 0.0:
                continue
            if g(lo) * g(hi) < 0.0:
                out.append(bisect(g, lo, hi, tol=1e-12))
        return out


@dataclass(frozen=True)
class TrueBeamConfig:
    geom: PlateGeom
    nl: Nonlinearity
    threshold_Ebar: float
    damping_delta: float = 0.0
    forcing: Optional[GustForcing] = None
    modes_M: int = 1
    bc_penalty_kappa: float = 100.0

    def __post_init__(self):
        if self.modes_M < 1:
            raise InvalidParameterError("modes_M must be >= 1")
        if self.bc_penalty_kappa <= 0.0:
            raise InvalidParameterError("bc_penalty_kappa must be > 0")
        if self.damping_delta < 0.0:
            raise InvalidParameterError("damping_delta must be >= 0")
        if self.threshold_Ebar <= 0.0:
            raise InvalidParameterError("threshold_Ebar must be > 0")

    def lambdas(self) -> np.ndarray:
        m = np.arange(1, self.modes_M + 1)
        return (m * math.pi / self.geom.length_L) ** 4


@dataclass(frozen=True)
class ModalState:
    """Truncated modal coefficients and velocities at time t."""

    t: float
    a: np.ndarray
    ad: np.ndarray
    b: np.ndarray
    bd: np.ndarray
    switch: int = 1

    def __post_init__(self):
        arrs = (self.a, self.ad, self.b, self.bd)
        if len({arr.shape for arr in arrs}) != 1:
            raise InvalidParameterError("modal arrays must share one length")
        if not all(np.all(np.isfinite(arr)) for arr in arrs):
            raise InvalidParameterError("modal state must be finite")

    @property
    def packed(self) -> np.ndarray:
        return np.concatenate([self.a, self.ad, self.b, self.bd])


def zero_modal_state(M: int, t: float = 0.0) -> ModalState:
    z = np.zeros(M)
    return ModalState(t, z.copy(), z.copy(), z.copy(), z.copy())


@dataclass(frozen=True)
class SwitchEvent:
    t_switch: float
    direction: int  # the switch value entered at t_switch


class ModalField:
    """Reconstruction u(x1, x2) = sum (a_m + b_m x2) sin(m pi x1/L) with
    closed-form derivatives; u_x2x2 vanishes identically by the ansatz."""

    def __init__(self, geom: PlateGeom, a: np.ndarray, b: np.ndarray):
        self.geom = geom
        self.a = np.asarray(a, dtype=float)
        self.b = np.asarray(b, dtype=float)

    def eval(self, x1, x2, dx1: int = 0, dx2: int = 0):
        x2 = np.asarray(x2, dtype=float)
        out = np.zeros(np.broadcast(x1, x2).shape)
        if dx2 >= 2:
            return out
        for m in range(1, len(self.a) + 1):
            smx = _sin_deriv(m * math.pi / self.geom.length_L, x1, dx1)
            coef = self.b[m - 1] if dx2 else self.a[m - 1] + self.b[m - 1] * x2
            out = out + coef * smx
        return out


class ModalTrajectory(RawTrajectory):
    """Stitched modal solution with per-sample switch values and flip events.

    The segments between flips join into one dense output, in which a flip
    time belongs to the segment starting there; switch_of(t) gives the
    switch at each sample, and samples holds the rows as ModalStates.
    """

    def __init__(self, cfg: TrueBeamConfig, segments, switch_of: Callable,
                 events: List[SwitchEvent], termination: str):
        super().__init__(
            np.concatenate([segments[0].ts] + [seg.ts[1:] for seg in segments[1:]]),
            np.vstack([segments[0].ys] + [seg.ys[1:] for seg in segments[1:]]),
            None, termination, sum(seg.n_rejected for seg in segments))
        del self._rcont  # joined on first use, below
        self.cfg = cfg
        self._segments = segments  # list of RawTrajectory
        self.switch = np.array([switch_of(float(t)) for t in self.ts], dtype=int)
        self.events = events

    @functools.cached_property
    def _rcont(self) -> np.ndarray:
        """The segments' dense-output coefficients, joined on first use so
        that a run never evaluated between samples holds one copy of them."""
        return np.concatenate([seg._rcont for seg in self._segments])

    @property
    def M(self) -> int:
        return self.ys.shape[1] // 4

    def state_at(self, i: int) -> ModalState:
        M = self.M
        row = self.ys[i]
        return ModalState(float(self.ts[i]), row[:M].copy(), row[M:2 * M].copy(),
                          row[2 * M:3 * M].copy(), row[3 * M:].copy(),
                          int(self.switch[i]))

    @property
    def samples(self) -> List[ModalState]:
        return [self.state_at(i) for i in range(len(self.ts))]

    def field_at(self, i: int) -> ModalField:
        st = self.state_at(i)
        return ModalField(self.cfg.geom, st.a, st.b)

    def to_csv(self, path) -> None:
        """Columns t, switch, a1..aM, b1..bM; velocities are left out."""
        M = self.M
        head = (["t", "switch"] + [f"a{m}" for m in range(1, M + 1)]
                + [f"b{m}" for m in range(1, M + 1)])
        write_csv(path, head, np.column_stack(
            [self.ts, self.switch, self.ys[:, :M], self.ys[:, 2 * M:3 * M]]))

    def events_json(self) -> str:
        return json.dumps([{"t_switch": ev.t_switch, "direction": ev.direction}
                           for ev in self.events])


class _Projector:
    """Gauss tensor grid, basis samples and projection weights."""

    def __init__(self, geom: PlateGeom, M: int, nq1: int, nq2: int):
        L, ell = geom.length_L, geom.half_width_l
        self.x1, self.w1 = gauss_nodes_1d(0.0, L, nq1)
        self.x2, self.w2 = gauss_nodes_1d(-ell, ell, nq2)
        m = np.arange(1, M + 1)[:, None]
        self.SIN = np.sin(m * math.pi / L * self.x1[None, :])  # (M, nq1)
        self.norm_v = L * ell
        self.norm_t = L * ell ** 3 / 3.0

    def surface(self, a: np.ndarray, b: np.ndarray) -> np.ndarray:
        sa = a @ self.SIN
        sb = b @ self.SIN
        return sa[:, None] + sb[:, None] * self.x2[None, :]

    def project(self, G: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
        """Vertical/torsional projections of a surface sampled on the grid."""
        g0 = G @ self.w2
        g1 = G @ (self.w2 * self.x2)
        pv = self.SIN @ (self.w1 * g0) / self.norm_v
        pt = self.SIN @ (self.w1 * g1) / self.norm_t
        return pv, pt

    def integral(self, G: np.ndarray) -> float:
        return float(self.w1 @ G @ self.w2)


def _make_projector(cfg: TrueBeamConfig, y0: np.ndarray) -> _Projector:
    """Projection grid of (4M) x 8 Gauss points, doubled (at most twice)
    until the projected nonlinearity is grid-converged to 1e-8."""
    M = cfg.modes_M
    nq1, nq2 = max(16, 4 * M), 8
    proj = _Projector(cfg.geom, M, nq1, nq2)
    for _ in range(2):
        finer = _Projector(cfg.geom, M, 2 * nq1, 2 * nq2)
        a, b = y0[:M], y0[2 * M:3 * M]
        pv0, pt0 = proj.project(np.asarray(cfg.nl.f(proj.surface(a, b))))
        pv1, pt1 = finer.project(np.asarray(cfg.nl.f(finer.surface(a, b))))
        err = max(np.max(np.abs(pv0 - pv1), initial=0.0),
                  np.max(np.abs(pt0 - pt1), initial=0.0))
        if err <= 1e-8:
            break
        nq1, nq2 = 2 * nq1, 2 * nq2
        proj = finer
    return proj


def project_initial(u0_field, u1_field, geom: PlateGeom, M: int,
                    quadrature_n: Optional[int] = None) -> ModalState:
    """Least-squares modal coefficients of the initial fields, computed by
    quadrature against the mutually orthogonal basis families."""
    if M < 1:
        raise InvalidParameterError("M must be >= 1")
    proj = _Projector(geom, M, quadrature_n or max(32, 4 * M), 8)
    X1, X2 = np.meshgrid(proj.x1, proj.x2, indexing="ij")

    def coeffs(fld):
        if fld is None:
            return np.zeros(M), np.zeros(M)
        return proj.project(_field_eval(fld, X1, X2))

    a, b = coeffs(u0_field)
    ad, bd = coeffs(u1_field)
    return ModalState(0.0, a, ad, b, bd, switch=1)


def check_compatibility(u0_field, u1_field, E0: int, geom: PlateGeom,
                        grid_n: int = 201) -> float:
    """Max violation of (u1+u0)(x1,-l) = E0 (u1+u0)(x1,l) over an x1-grid."""
    if E0 not in (1, -1):
        raise InvalidParameterError("E0 must be +1 or -1")
    x1 = np.linspace(0.0, geom.length_L, grid_n)
    ell = geom.half_width_l
    lo = _field_eval(u1_field, x1, -ell) + _field_eval(u0_field, x1, -ell)
    hi = _field_eval(u1_field, x1, ell) + _field_eval(u0_field, x1, ell)
    return float(np.max(np.abs(lo - E0 * hi)))


def _make_rhs(cfg: TrueBeamConfig, proj: _Projector, switch: int,
              amp: Callable, pv_profile: np.ndarray, pt_profile: np.ndarray):
    M = cfg.modes_M
    lam = cfg.lambdas()
    delta = cfg.damping_delta
    kappa = cfg.bc_penalty_kappa
    pen_a = kappa if switch == -1 else 0.0
    pen_b = kappa if switch == +1 else 0.0
    f = cfg.nl.f

    def rhs(t, y):
        a, ad = y[:M], y[M:2 * M]
        b, bd = y[2 * M:3 * M], y[3 * M:]
        pv, pt = proj.project(np.asarray(f(proj.surface(a, b))))
        g = amp(t)
        add = -lam * a - delta * ad - pv + g * pv_profile - pen_a * (ad + a)
        bdd = -lam * b - delta * bd - pt + g * pt_profile - pen_b * (bd + b)
        return np.concatenate([ad, add, bd, bdd])

    return rhs


def integrate_truebeam(cfg: TrueBeamConfig, state0: ModalState, t_end: float,
                       rel_tol: float = 1e-9, abs_tol: float = 1e-9,
                       freeze_switch: Optional[int] = None) -> ModalTrajectory:
    """Integrate the truncated modal system up to t_end.

    The switch is a pure function of the configured gust, so its flip times
    are located up front (bisection on the energy envelope); integration
    restarts at each flip with the penalty moved to the newly constrained
    family. freeze_switch pins the switch for diagnostic runs.
    """
    M = cfg.modes_M
    if state0.a.size != M:
        raise InvalidParameterError("state0 truncation disagrees with modes_M")
    y0 = state0.packed
    t0 = state0.t
    if t_end <= t0:
        raise InvalidParameterError("t_end must exceed the initial time")
    proj = _make_projector(cfg, y0)

    if cfg.forcing is not None:
        forcing = cfg.forcing
        amp = lambda t: float(forcing.amp(t))
        pvp, ptp = proj.project(forcing.profile_values(
            cfg.geom, proj.x1[:, None], proj.x2[None, :]))
        prof_norm2 = forcing.profile_norm2(cfg.geom)
    else:
        amp = lambda t: 0.0
        pvp = np.zeros(M)
        ptp = np.zeros(M)
        prof_norm2 = 0.0

    def energy_at(t):
        return amp(t) ** 2 * prof_norm2

    if freeze_switch is not None:
        crossings: List[float] = []

        def switch_of(t):
            return int(freeze_switch)
    else:
        crossings = (cfg.forcing.threshold_crossings(
            cfg.geom, cfg.threshold_Ebar, t0, t_end)
            if cfg.forcing is not None else [])

        def switch_of(t):
            return switch_value(energy_at(t), cfg.threshold_Ebar)

    bounds = [t0] + [c for c in crossings if t0 < c < t_end] + [t_end]
    segments = []
    events: List[SwitchEvent] = []
    termination = REACHED_T_END
    y = y0
    for k in range(len(bounds) - 1):
        lo, hi = bounds[k], bounds[k + 1]
        if hi <= lo:
            continue
        seg_switch = switch_of(0.5 * (lo + hi))
        if k > 0:
            events.append(SwitchEvent(float(lo), int(seg_switch)))
        raw = integrate_adaptive(
            _make_rhs(cfg, proj, seg_switch, amp, pvp, ptp), lo, y, hi,
            rtol=rel_tol, atol=abs_tol, stop_indices=tuple(range(4 * M)),
            stop_threshold=BLOWUP_MODAL_NORM)
        segments.append(raw)
        y = raw.ys[-1]
        if raw.termination != REACHED_T_END:
            termination = raw.termination
            break
    return ModalTrajectory(cfg, segments, switch_of, events, termination)


def modal_energy(cfg: TrueBeamConfig, state: ModalState,
                 include_penalty: bool = False,
                 switch: Optional[int] = None) -> float:
    """Discrete energy of the truncated system:
    kinetic + bending (family-normalized) + int F(u), optionally plus the
    penalty stiffness of the currently constrained family."""
    lam = cfg.lambdas()
    proj = _Projector(cfg.geom, cfg.modes_M, max(16, 4 * cfg.modes_M), 8)
    nv, nt = proj.norm_v, proj.norm_t
    quad_F = proj.integral(np.asarray(cfg.nl.F(proj.surface(state.a, state.b))))
    e = 0.5 * nv * float(np.sum(state.ad ** 2 + lam * state.a ** 2)) \
        + 0.5 * nt * float(np.sum(state.bd ** 2 + lam * state.b ** 2)) + quad_F
    if include_penalty:
        sw = state.switch if switch is None else switch
        if sw == +1:
            e += 0.5 * cfg.bc_penalty_kappa * nt * float(np.sum(state.b ** 2))
        else:
            e += 0.5 * cfg.bc_penalty_kappa * nv * float(np.sum(state.a ** 2))
    return e
