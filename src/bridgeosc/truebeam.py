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
# gust_energy is not called here: the bench tracer patches it under this name
from .energy import _field_eval, gust_energy, switch_value  # noqa: F401
from .errors import InvalidParameterError, _count, _normal
from .io import write_csv
from .nonlin import Nonlinearity
from .plate import PlateGeom

BLOWUP_MODAL_NORM = 1e6
# the most values a run's samples may hold (80 MB of ys)
MAX_SAMPLE_VALUES = 10_000_000


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
    def _pieces(self) -> tuple:
        """Breakpoint times, values and the slopes between, as Python floats."""
        tp, ap = ([float(v) for v in col] for col in zip(*self.breakpoints))
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
        return np.interp(t, *self._pieces[:2])

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
        return lambda x1, x2, t: self.amp(t) * self.profile_values(geom, x1, x2)

    def profile_norm2(self, geom: PlateGeom) -> float:
        """|profile|^2 = int profile^2 over the plate, in closed form: sin^2
        of any index averages 1/2 over (0, L), and x2^2 integrates to 2 l^3/3."""
        L, ell = geom.length_L, geom.half_width_l
        return {"uniform": 2.0 * L * ell, "vertical": L * ell,
                "torsional": L * ell ** 3 / 3.0}[self.profile]

    def modal_load(self, M: int) -> np.ndarray:
        """Vertical/torsional projections (2, M) of the profile, in closed
        form; a modal profile above M loads no retained mode."""
        load = np.zeros((2, M))
        if self.profile == "uniform":
            m = np.arange(1, M + 1)
            load[0] = 2.0 * (1.0 - (-1.0) ** m) / (m * math.pi)
        elif self.profile_m <= M:
            load[int(self.profile == "torsional"), self.profile_m - 1] = 1.0
        return load

    def energy(self, geom: PlateGeom, t):
        """Gust energy int phi^2; separability makes it amp(t)^2 * |profile|^2."""
        return np.asarray(self.amp(t)) ** 2 * self.profile_norm2(geom)

    def threshold_crossings(self, geom: PlateGeom, threshold: float,
                            t0: float, t1: float) -> List[float]:
        """Times in (t0, t1) where the gust energy amp(t)^2 |profile|^2
        crosses the threshold: where a linear piece of amp passes
        +-level = +-sqrt(threshold / |profile|^2), solved in closed form;
        a touch of the level from above at a breakpoint is a pair that cancels."""
        level = math.sqrt(threshold / self.profile_norm2(geom))
        out = []
        for (ta, va), (tb, vb) in zip(self.breakpoints, self.breakpoints[1:]):
            for sign in (1.0, -1.0):
                # the switch law gives -1 exactly while sign * amp > level
                if (sign * va > level) != (sign * vb > level):
                    t = ta + (sign * level - va) / (vb - va) * (tb - ta)
                    if t0 < t < t1:
                        out.append(t)
        return sorted({t for t in out if out.count(t) % 2})


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
        # the eigenvalues at both ends and the two families' norms
        L, ell, M = self.geom.length_L, self.geom.half_width_l, self.modes_M
        for name, m in (("(M pi / L)^4", M), ("(pi / L)^4", 1)):
            _normal(name, lambda: (m * math.pi / L) ** 4)
        _normal("L l", lambda: L * ell)
        _normal("L l^3 / 3", lambda: L * ell ** 3 / 3.0)
        if self.forcing is not None:  # its peak energy, max a^2 |profile|^2
            peak = max(a * a for _, a in self.forcing.breakpoints)
            if not peak * self.forcing.profile_norm2(self.geom) < math.inf:
                raise InvalidParameterError("the gust's peak energy overflows a float")

    def lambdas(self) -> np.ndarray:
        m = np.arange(1, self.modes_M + 1)
        return (m * math.pi / self.geom.length_L) ** 4

    @functools.cached_property
    def _midpoints(self) -> "_Projector":
        """The (2M + 1) x 3 midpoint grid, exact for the odd laws of degree
        <= 3 (see _exact_law), built on first use."""
        return _Projector(self.geom, self.modes_M, 2 * self.modes_M + 1, 3,
                          midpoints=True)

    @functools.cached_property
    def _gauss(self) -> "_Projector":
        """The max(16, 4M) x 8 Gauss grid of the other laws, built on first use."""
        return _Projector(self.geom, self.modes_M, max(16, 4 * self.modes_M), 8)


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


class ModalTrajectory(RawTrajectory):
    """Stitched modal solution with per-sample switch values and flip events.

    The samples are each segment's accepted steps plus dense-output points
    between them, at most 1/16 of the segment's shortest linear period
    apart, so that the rows resolve every mode's oscillation. A flip time
    belongs to the segment starting there, whose switch (of switches, one
    per segment) its sample, its event, eval and state_at all read.
    samples holds the rows as ModalStates.

    projection_grid holds the (x1, x2) point counts of the grid that
    projects f(u) and projection_error its convergence error (see
    _make_projector): 0.0 on the exact midpoint grid of an odd cubic law.
    """
    _coefficients = map_linear = ExpTrajectory._coefficients  # no contd8 either

    def __init__(self, segments, switches: List[int], termination: str,
                 projection_grid: Tuple[int, int], projection_error: float):
        ts, ys, counts = _sample(segments)
        super().__init__(ts, ys, None, termination,
                         sum(seg.n_rejected for seg in segments))
        self._segments = segments  # one ExpTrajectory per switch interval
        self.switch = np.repeat(switches, counts)
        self.events = [SwitchEvent(float(seg.ts[0]), s)
                       for seg, s in zip(segments[1:], switches[1:])]
        self._starts = np.array([ev.t_switch for ev in self.events])
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


def _spacing(stiffest: float) -> float:
    """The sample spacing: 1/16 of the period 2 pi / sqrt(stiffest) of the
    stiffest linear block."""
    return 0.125 * math.pi / math.sqrt(stiffest)


def _sample(segments):
    """Sample times, states and per-segment counts (the final sample is the
    last segment's): each accepted step split into equal parts at most
    _spacing of its blocks apart, on its segment's interpolant."""
    grids = []
    for seg in segments:
        spacing = _spacing(float(np.max(seg.blocks.stiffness)))
        h = np.diff(seg.ts)
        parts = np.maximum(np.ceil(h / spacing), 1.0).astype(np.intp)
        idx = np.repeat(np.arange(len(h)), parts)
        first = np.cumsum(parts) - parts
        grids.append((idx, (np.arange(idx.size) - first[idx]) / parts[idx], h[idx]))
    counts = [len(idx) for idx, _, _ in grids]
    counts[-1] += 1
    size = sum(counts)
    ts, ys = np.empty(size), np.empty((size, segments[0].ys.shape[1]))
    lo = 0
    for seg, (idx, theta, h) in zip(segments, grids):
        sl = slice(lo, lo + len(idx))
        ts[sl] = seg.ts[idx] + theta * h
        seg._interpolate(idx, theta, out=ys[sl])
        lo += len(idx)
    ts[-1], ys[-1] = segments[-1].ts[-1], segments[-1].ys[-1]
    return ts, ys, counts


class _Projector:
    """Tensor grid (Gauss, or midpoints in x1), basis samples and projection weights."""

    def __init__(self, geom: PlateGeom, M: int, nq1: int, nq2: int, midpoints=False):
        L, ell = geom.length_L, geom.half_width_l
        if midpoints:  # nq2 = 3: the Gauss rule in closed form
            self.x1, self.w1 = (np.arange(nq1) + 0.5) * (L / nq1), np.full(nq1, L / nq1)
            self.x2 = ell * np.array([-math.sqrt(0.6), 0.0, math.sqrt(0.6)])
            self.w2 = ell * np.array([5.0, 8.0, 5.0]) / 9.0
        else:
            self.x1, self.w1 = gauss_nodes_1d(0.0, L, nq1)
            self.x2, self.w2 = gauss_nodes_1d(-ell, ell, nq2)
        self.midpoints = midpoints
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


def _exact_law(nl: Nonlinearity) -> bool:
    """Whether f is odd of degree <= 3, so that F is even of degree <= 4: on
    the midpoint grid, f(u) sin(m pi x1 / L) and F(u) are then cosines of
    frequency at most 4M times quartics in x2, which 2M + 1 midpoints by 3
    Gauss points integrate exactly (see the README)."""
    return nl.kind in ("linear", "cubic") or (nl.kind == "mckenna_cubic"
                                              and nl.c_quad == 0.0)


def _make_projector(cfg: TrueBeamConfig, y0: np.ndarray) -> Tuple[_Projector, float]:
    """Projection grid of f(u) and its convergence error: for an exact law,
    the config's midpoint grid (error 0.0); else its Gauss grid, doubled
    at most twice until the projection at y0 converges to 1e-8 (else the
    error stays above)."""
    M, nl = cfg.modes_M, cfg.nl
    if _exact_law(nl):
        return cfg._midpoints, 0.0
    base = proj = cfg._gauss
    ab = y0.reshape(2, 2, M)[:, 0]
    for k in (2, 4):
        finer = _Projector(cfg.geom, M, k * len(base.x1), k * len(base.x2))
        err = np.max(np.abs(proj.project(np.asarray(nl.f(proj.surface(ab))))
                            - finer.project(np.asarray(nl.f(finer.surface(ab))))))
        if err <= 1e-8:
            break
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


def _check_sign(value, name: str) -> None:
    """Refuse all but the integer +1 or -1: a Python or numpy int, not a
    bool or a float (1.0 == 1 would pass a membership test alone)."""
    if isinstance(value, bool) or not isinstance(value, (int, np.integer)) \
            or value not in (1, -1):
        raise InvalidParameterError(f"{name} must be the integer +1 or -1")


def check_compatibility(u0_field, u1_field, E0: int, geom: PlateGeom) -> float:
    """Max violation of (u1+u0)(x1,-l) = E0 (u1+u0)(x1,l) over 201 x1 points.
    E0 is an integer +1 or -1 (a Python or numpy int, not a bool or float)."""
    _check_sign(E0, "E0")
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
              load: np.ndarray):
    """The nonlinear part N of the modal system: the projected f(u) and the
    gust (load is its modal_load), on the velocity rows; the linear part is
    _linear_blocks."""
    M = cfg.modes_M
    f = cfg.nl.f
    if proj.midpoints:  # two dense (2M, 3 nq1) products, the norms in P
        S = np.kron(proj._lift, proj.SIN)  # columns x2-major: f is pointwise
        P = np.kron(proj._weigh.T / proj._norms, proj._SINW)
        pos = np.r_[0:M, 2 * M:3 * M]
        vel, load = pos + M, load.reshape(-1)

        def rhs(t, y):
            out = np.zeros(4 * M)
            out[vel] = amp(t) * load - P @ f(y[pos] @ S)
            return out
        return rhs

    def rhs(t, y):
        out = np.zeros((2, 2, M))
        out[:, 1] = amp(t) * load - proj.project(
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
    (the integer +1 or -1: a Python or numpy int, not a bool or float) pins
    the switch for diagnostic runs. A run whose samples would hold over
    MAX_SAMPLE_VALUES values is refused before it runs.
    """
    if freeze_switch is not None:
        _check_sign(freeze_switch, "freeze_switch")
    M = cfg.modes_M
    if state0.a.size != M:
        raise InvalidParameterError("state0 truncation disagrees with modes_M")
    y0 = state0.packed
    t0 = state0.t
    if t_end <= t0:
        raise InvalidParameterError("t_end must exceed the initial time")
    # _sample's rows are at most _spacing apart; their count may overflow to
    # inf for a finite t_end (a non-finite t_end is the stepper's error)
    rows = (t_end - t0) / _spacing(cfg.lambdas()[-1] + cfg.bc_penalty_kappa)
    if math.isfinite(t_end) and not rows * 4 * M <= MAX_SAMPLE_VALUES:
        raise InvalidParameterError(
            f"modes_M = {M} and t_end = {t_end:g} take at least {rows:.3g} sample "
            f"rows of {4 * M} values, above {MAX_SAMPLE_VALUES:.0e}")
    proj, proj_err = _make_projector(cfg, y0)

    forcing = cfg.forcing or GustForcing(((t0, 0.0),))  # no kink, no crossing
    crossings = [] if freeze_switch is not None else forcing.threshold_crossings(
        cfg.geom, cfg.threshold_Ebar, t0, t_end)
    kinks = [tb for tb, _ in forcing.breakpoints]
    rhs = _make_rhs(cfg, proj, forcing.amp, forcing.modal_load(M))
    bounds = [t0] + crossings + [t_end]  # ascending: every segment is non-empty
    segments, switches = [], []
    termination = REACHED_T_END
    y = y0
    for lo, hi in zip(bounds, bounds[1:]):
        # pinned, or the law at the midpoint: the switch is constant in (lo, hi)
        switches.append(int(freeze_switch or switch_value(
            forcing.energy(cfg.geom, 0.5 * (lo + hi)), cfg.threshold_Ebar)))
        raw = integrate_adaptive(
            rhs, lo, y, hi, rtol=rel_tol, atol=abs_tol,
            stop_indices=tuple(range(4 * M)), stop_threshold=BLOWUP_MODAL_NORM,
            linear=_linear_blocks(cfg, switches[-1], kinks))
        segments.append(raw)
        y = raw.ys[-1]
        if raw.termination != REACHED_T_END:
            termination = raw.termination
            break
    return ModalTrajectory(segments, switches, termination,
                           (len(proj.x1), len(proj.x2)), proj_err)


def modal_energy(cfg: TrueBeamConfig, state: ModalState,
                 include_penalty: bool = False,
                 switch: Optional[int] = None) -> float:
    """Discrete energy of the truncated system:
    kinetic + bending (family-normalized) + int F(u), optionally plus the
    penalty stiffness of the currently constrained family. int F(u) is exact
    on the midpoint grid for an exact law (see _exact_law)."""
    lam = cfg.lambdas()
    proj = cfg._midpoints if _exact_law(cfg.nl) else cfg._gauss
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
