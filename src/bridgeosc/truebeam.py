"""Galerkin solver for the switching plate-wave model.

The displacement is truncated onto the two analytic mode families,
u ~ sum_m (a_m(t) + b_m(t) x2) sin(m pi x1 / L), which diagonalizes the
biharmonic term and splits vertical (a) from torsional (b) dynamics. The
dynamic boundary law is imposed as a stiff linear penalty on the family the
switch currently constrains; the switch itself is a function of the gust
energy alone, so its flip times are located independently of the state.
"""
from __future__ import annotations

import bisect
import functools
import json
import math
from dataclasses import dataclass
from typing import Callable, List, Optional, Tuple

import numpy as np

from ._quad import gauss_nodes_1d
from ._rk import (REACHED_T_END, ExpTrajectory, LinearBlocks, RawTrajectory,
                  integrate_adaptive)
from .energy import _field_eval, gust_energy, switch_value
from .errors import InvalidParameterError, _count
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
        if not (self.breakpoints and np.all(np.isfinite(self.breakpoints))):
            raise InvalidParameterError("forcing needs one or more finite breakpoints")
        tp = [t for t, _ in self.breakpoints]
        if any(t1 >= t2 for t1, t2 in zip(tp, tp[1:])):
            raise InvalidParameterError("breakpoint times must be ascending")
        if self.profile not in ("uniform", "vertical", "torsional"):
            raise InvalidParameterError(f"unknown profile {self.profile!r}")
        object.__setattr__(self, "profile_m", _count(self.profile_m, "profile_m"))

    @functools.cached_property
    def _table(self) -> np.ndarray:
        """(2, K) breakpoint times and values, built on first use."""
        return np.array(self.breakpoints, dtype=float).T.copy()

    @functools.cached_property
    def _pieces(self) -> tuple:
        """Breakpoint times, values and the slopes between, as Python floats."""
        tp, ap = self._table.tolist()
        return tp, ap, [(a1 - a0) / (t1 - t0)
                        for t0, t1, a0, a1 in zip(tp, tp[1:], ap, ap[1:])]

    def amp(self, t):
        if isinstance(t, float) and math.isfinite(t):  # numpy float64 too
            # np.interp's own arithmetic, without its call overhead
            tp, ap, slopes = self._pieces
            j = bisect.bisect_right(tp, t) - 1
            if j < 0:
                return ap[0]
            if j == len(slopes) or tp[j] == t:
                return ap[j]
            value = slopes[j] * (t - tp[j]) + ap[j]
            if value == value:  # else np.interp's way round a NaN
                return value
        return np.interp(t, *self._table)

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

    def profile_norm2(self, geom: PlateGeom) -> float:
        """|profile|^2 = int profile^2 over the plate."""
        return gust_energy(lambda a, b, _t: self.profile_values(geom, a, b),
                           geom, 0.0)

    def energy(self, geom: PlateGeom, t):
        """Gust energy int phi^2; separability makes it amp(t)^2 * |profile|^2."""
        return np.asarray(self.amp(t)) ** 2 * self.profile_norm2(geom)

    def threshold_crossings(self, geom: PlateGeom, threshold: float,
                            t0: float, t1: float) -> List[float]:
        """Times in (t0, t1) where the gust energy amp(t)^2 |profile|^2
        crosses the threshold: where a linear piece of amp passes
        +-level = +-sqrt(threshold / |profile|^2), solved in closed form."""
        level = math.sqrt(threshold / self.profile_norm2(geom))
        out = []
        for (ta, va), (tb, vb) in zip(self.breakpoints, self.breakpoints[1:]):
            for sign in (1.0, -1.0):
                # the switch law gives -1 exactly while sign * amp > level
                if (sign * va > level) != (sign * vb > level):
                    t = ta + (sign * level - va) / (vb - va) * (tb - ta)
                    if t0 < t < t1:
                        out.append(t)
        return sorted(out)


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
        # written so that NaN fails every check
        object.__setattr__(self, "modes_M", _count(self.modes_M, "modes_M"))
        if not 0.0 < self.bc_penalty_kappa < math.inf:
            raise InvalidParameterError("bc_penalty_kappa must be finite and > 0")
        if not 0.0 <= self.damping_delta < math.inf:
            raise InvalidParameterError("damping_delta must be finite and >= 0")
        if not 0.0 < self.threshold_Ebar < math.inf:
            raise InvalidParameterError("threshold_Ebar must be finite and > 0")

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
        if not all(np.all(np.isfinite(x)) for x in (self.t, *arrs)):
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

    The samples are each segment's accepted steps plus dense-output points
    between them, at most 1/16 of the segment's shortest linear period
    apart, so that the rows resolve every mode's oscillation. eval uses the
    interpolant of the segment holding t, in which a flip time belongs to
    the segment starting there. switch_of(ts) gives the switch at the
    samples, and samples holds the rows as ModalStates.

    projection_grid is the (x1, x2) Gauss grid of the projected
    nonlinearity and projection_error its last grid-convergence error.
    """
    _coefficients = map_linear = ExpTrajectory._coefficients  # no contd8 either

    def __init__(self, segments, switch_of: Callable,
                 events: List[SwitchEvent], termination: str,
                 projection_grid: Tuple[int, int], projection_error: float):
        ts, ys = _sample(segments)
        super().__init__(ts, ys, None, termination,
                         sum(seg.n_rejected for seg in segments))
        self._segments = segments  # one ExpTrajectory per switch interval
        self._starts = np.array([seg.ts[0] for seg in segments[1:]])
        self.switch = np.broadcast_to(switch_of(self.ts), self.ts.shape).astype(int)
        self.events = events
        self.projection_grid = projection_grid
        self.projection_error = projection_error

    def eval(self, t):
        t_arr = np.atleast_1d(np.asarray(t, dtype=float))
        which = np.searchsorted(self._starts, t_arr, side="right")
        out = np.empty((t_arr.size, self.ys.shape[1]))
        for k in np.unique(which):
            sel = which == k
            out[sel] = self._segments[k].eval(t_arr[sel])
        return out[0] if np.isscalar(t) or np.ndim(t) == 0 else out

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

    def to_csv(self, path) -> None:
        """Columns t, switch, a1..aM, b1..bM; velocities are left out."""
        M = self.M
        head = (["t", "switch"] + [f"a{m}" for m in range(1, M + 1)]
                + [f"b{m}" for m in range(1, M + 1)])
        write_csv(path, head, np.column_stack(
            [self.ts, self.switch, self.ys[:, :M], self.ys[:, 2 * M:3 * M]]))

    def events_json(self) -> str:
        return json.dumps([{"t_switch": ev.t_switch, "direction": ev.direction}
                           for ev in self.events], allow_nan=False)


def _sample(segments):
    """Sample times and states of the stitched run: every accepted step
    split into equal parts no longer than 1/16 of the shortest linear period
    of its segment's blocks, evaluated on the segment's interpolant."""
    grids = []
    for seg in segments:
        spacing = 0.125 * math.pi / math.sqrt(float(np.max(seg.blocks.stiffness)))
        h = np.diff(seg.ts)
        parts = np.maximum(np.ceil(h / spacing), 1.0).astype(np.intp)
        idx = np.repeat(np.arange(len(h)), parts)
        first = np.cumsum(parts) - parts
        grids.append((idx, (np.arange(idx.size) - first[idx]) / parts[idx], h[idx]))
    size = sum(len(idx) for idx, _, _ in grids) + 1
    ts, ys = np.empty(size), np.empty((size, segments[0].ys.shape[1]))
    lo = 0
    for seg, (idx, theta, h) in zip(segments, grids):
        sl = slice(lo, lo + len(idx))
        ts[sl] = seg.ts[idx] + theta * h
        seg._interpolate(idx, theta, out=ys[sl])
        lo += len(idx)
    ts[-1], ys[-1] = segments[-1].ts[-1], segments[-1].ys[-1]
    return ts, ys


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
        self._lift = np.array([np.ones(nq2), self.x2])       # (2, nq2)
        self._weigh = np.array([self.w2, self.w2 * self.x2]).T  # (nq2, 2)
        self._SINW = self.SIN * self.w1                      # (M, nq1)
        self._norms = np.array([[self.norm_v], [self.norm_t]])

    def surface(self, ab: np.ndarray) -> np.ndarray:
        """The surface sum_m (a_m + b_m x2) sin(m pi x1 / L) on the grid,
        from ab = (a, b) stacked as (2, M)."""
        return (ab @ self.SIN).T @ self._lift

    def project(self, G: np.ndarray) -> np.ndarray:
        """Vertical/torsional projections (2, M) of a surface sampled on the
        grid."""
        return (self._SINW @ (G @ self._weigh)).T / self._norms

    def integral(self, G: np.ndarray) -> float:
        return float(self.w1 @ G @ self.w2)


def _make_projector(cfg: TrueBeamConfig, y0: np.ndarray) -> Tuple[_Projector, float]:
    """Projection grid of (4M) x 8 Gauss points, doubled (at most twice)
    until the projected nonlinearity is grid-converged to 1e-8; returns the
    grid and its last convergence error, which stays above 1e-8 when two
    doublings were not enough."""
    M = cfg.modes_M
    nq1, nq2 = max(16, 4 * M), 8
    proj = _Projector(cfg.geom, M, nq1, nq2)
    err = 0.0
    for _ in range(2):
        finer = _Projector(cfg.geom, M, 2 * nq1, 2 * nq2)
        ab = y0.reshape(2, 2, M)[:, 0]
        pv0, pt0 = proj.project(np.asarray(cfg.nl.f(proj.surface(ab))))
        pv1, pt1 = finer.project(np.asarray(cfg.nl.f(finer.surface(ab))))
        err = max(np.max(np.abs(pv0 - pv1), initial=0.0),
                  np.max(np.abs(pt0 - pt1), initial=0.0))
        if err <= 1e-8:
            break
        nq1, nq2 = 2 * nq1, 2 * nq2
        proj = finer
    return proj, err


def project_initial(u0_field, u1_field, geom: PlateGeom, M: int) -> ModalState:
    """Least-squares modal coefficients of the initial fields, computed by
    quadrature against the mutually orthogonal basis families."""
    M = _count(M, "M")
    proj = _Projector(geom, M, max(32, 4 * M), 8)
    X1, X2 = np.meshgrid(proj.x1, proj.x2, indexing="ij")

    def coeffs(fld):
        if fld is None:
            return np.zeros(M), np.zeros(M)
        return proj.project(_field_eval(fld, X1, X2))

    a, b = coeffs(u0_field)
    ad, bd = coeffs(u1_field)
    return ModalState(0.0, a, ad, b, bd, switch=1)


def check_compatibility(u0_field, u1_field, E0: int, geom: PlateGeom) -> float:
    """Max violation of (u1+u0)(x1,-l) = E0 (u1+u0)(x1,l) over 201 x1 points."""
    if E0 not in (1, -1):
        raise InvalidParameterError("E0 must be +1 or -1")
    x1 = np.linspace(0.0, geom.length_L, 201)
    ell = geom.half_width_l
    lo = _field_eval(u1_field, x1, -ell) + _field_eval(u0_field, x1, -ell)
    hi = _field_eval(u1_field, x1, ell) + _field_eval(u0_field, x1, ell)
    return float(np.max(np.abs(lo - E0 * hi)))


def _linear_blocks(cfg: TrueBeamConfig, switch: int, kinks) -> LinearBlocks:
    """Bending, damping and the boundary penalty of the family the switch
    constrains, as one oscillator block per (family, mode)."""
    pen = np.array([[cfg.bc_penalty_kappa if switch == -1 else 0.0],
                    [cfg.bc_penalty_kappa if switch == +1 else 0.0]])
    return LinearBlocks(cfg.lambdas() + pen, cfg.damping_delta + pen,
                        tuple(kinks))


def _make_rhs(cfg: TrueBeamConfig, proj: _Projector, amp: Callable,
              profile: np.ndarray):
    """The nonlinear part N of the modal system: the projected f(u) and the
    gust (profile holds its projections, (2, M)), on the velocity rows; the
    linear part is _linear_blocks."""
    M = cfg.modes_M
    f = cfg.nl.f

    def rhs(t, y):
        out = np.zeros((2, 2, M))
        out[:, 1] = amp(t) * profile - proj.project(
            np.asarray(f(proj.surface(y.reshape(2, 2, M)[:, 0]))))
        return out.reshape(-1)

    return rhs


def integrate_truebeam(cfg: TrueBeamConfig, state0: ModalState, t_end: float,
                       rel_tol: float = 1e-9, abs_tol: float = 1e-9,
                       freeze_switch: Optional[int] = None) -> ModalTrajectory:
    """Integrate the truncated modal system up to t_end.

    The switch is a pure function of the configured gust, so its flip times
    are located up front, in closed form; integration restarts at each flip
    with the penalty moved to the newly constrained family. A config without
    forcing runs the zero gust, one breakpoint at state0.t. freeze_switch
    (+1 or -1, not a bool) pins the switch for diagnostic runs.
    """
    if isinstance(freeze_switch, bool) or freeze_switch not in (None, 1, -1):
        raise InvalidParameterError("freeze_switch must be None, +1 or -1")
    M = cfg.modes_M
    if state0.a.size != M:
        raise InvalidParameterError("state0 truncation disagrees with modes_M")
    y0 = state0.packed
    t0 = state0.t
    if t_end <= t0:
        raise InvalidParameterError("t_end must exceed the initial time")
    proj, proj_err = _make_projector(cfg, y0)

    forcing = cfg.forcing or GustForcing(((t0, 0.0),))  # no kink, no crossing
    amp = lambda t: float(forcing.amp(t))
    profile = proj.project(forcing.profile_values(
        cfg.geom, proj.x1[:, None], proj.x2[None, :]))
    prof_norm2 = forcing.profile_norm2(cfg.geom)
    crossings = [] if freeze_switch is not None else forcing.threshold_crossings(
        cfg.geom, cfg.threshold_Ebar, t0, t_end)
    kinks = [tb for tb, _ in forcing.breakpoints]

    def switch_of(t):
        """Switch value(s) at time(s) t: pinned, or the law on the gust energy."""
        if freeze_switch is not None:
            return int(freeze_switch)
        return switch_value(np.square(forcing.amp(t)) * prof_norm2,
                            cfg.threshold_Ebar)

    rhs = _make_rhs(cfg, proj, amp, profile)
    bounds = [t0] + crossings + [t_end]
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
            rhs, lo, y, hi, rtol=rel_tol, atol=abs_tol,
            stop_indices=tuple(range(4 * M)), stop_threshold=BLOWUP_MODAL_NORM,
            linear=_linear_blocks(cfg, seg_switch, kinks))
        segments.append(raw)
        y = raw.ys[-1]
        if raw.termination != REACHED_T_END:
            termination = raw.termination
            break
    return ModalTrajectory(segments, switch_of, events, termination,
                           (len(proj.x1), len(proj.x2)), proj_err)


def modal_energy(cfg: TrueBeamConfig, state: ModalState,
                 include_penalty: bool = False,
                 switch: Optional[int] = None) -> float:
    """Discrete energy of the truncated system:
    kinetic + bending (family-normalized) + int F(u), optionally plus the
    penalty stiffness of the currently constrained family."""
    lam = cfg.lambdas()
    proj = _Projector(cfg.geom, cfg.modes_M, max(16, 4 * cfg.modes_M), 8)
    nv, nt = proj.norm_v, proj.norm_t
    quad_F = proj.integral(np.asarray(cfg.nl.F(proj.surface(
        np.array([state.a, state.b])))))
    e = 0.5 * nv * float(np.sum(state.ad ** 2 + lam * state.a ** 2)) \
        + 0.5 * nt * float(np.sum(state.bd ** 2 + lam * state.b ** 2)) + quad_F
    if include_penalty:
        sw = state.switch if switch is None else switch
        if sw == +1:
            e += 0.5 * cfg.bc_penalty_kappa * nt * float(np.sum(state.b ** 2))
        else:
            e += 0.5 * cfg.bc_penalty_kappa * nv * float(np.sum(state.a ** 2))
    return e
