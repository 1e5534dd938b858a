"""Analytic eigenmodes of the rectangular roadway plate.

The vertical family sin(m pi x1/L) and the torsional family
x2 sin(m pi x1/L) share the eigenvalue (m pi/L)^4 of the biharmonic
operator under both candidate boundary-condition sets on the long sides.
The fully simply supported square admits high-multiplicity eigenvalues
indexed by sum-of-two-squares representations.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from typing import List

import numpy as np

from .errors import InvalidParameterError, _count, _normal

NAVIER_L = math.pi            # navier_square modes live on (0, pi) x (-pi/2, pi/2)
NAVIER_HALF_WIDTH = math.pi / 2.0


@dataclass(frozen=True)
class PlateGeom:
    """Roadway plate (0, L) x (-l, l) with Poisson ratio sigma."""

    length_L: float
    half_width_l: float
    poisson_sigma: float = 0.2

    def __post_init__(self):
        # the width 2 l too: the plate spans (-l, l)
        if not all(0.0 < v < math.inf for v in (self.length_L, 2.0 * self.half_width_l)):
            raise InvalidParameterError("plate dimensions must be finite and positive")
        if not 0.0 <= self.poisson_sigma < 0.5:
            raise InvalidParameterError("Poisson ratio must satisfy 0 <= sigma < 1/2")


def _sin_deriv(k: float, x, order: int):
    """d^order/dx^order of sin(k x), cycling sin/cos exactly so that the
    fourth derivative reproduces k^4 sin(k x) bitwise."""
    kx = k * np.asarray(x, dtype=float)
    r = order % 4
    base = np.sin(kx) if r % 2 == 0 else np.cos(kx)
    sign = -1.0 if r in (2, 3) else 1.0
    return (k ** order * sign) * base


def _navier_axial_deriv(m: int, x1, order: int):
    """d^order of sin(m x1) on (0, pi), evaluated past the midpoint through
    the exact shift sin(m x1) = (-1)^m sin(m (x1 - pi)) so that x1 = pi sits
    on an exact float zero."""
    x1 = np.asarray(x1, dtype=float)
    right = x1 > NAVIER_L / 2.0
    shifted = np.where(right, x1 - NAVIER_L, x1)
    base = _sin_deriv(float(m), shifted, order)
    sign = np.where(right, (-1.0) ** m, 1.0)
    return sign * base


def _navier_transverse_deriv(n: int, x2, order: int):
    """d^order of the transverse factor cos(n x2) (odd n) / sin(n x2)
    (even n), written as sigma_n sin(n(|x2| - pi/2)) with parity reflection.

    The rewrite is an exact identity and places x2 = +-pi/2 on an exact
    float zero of sin, so u and u_x2x2 vanish there bitwise.
    """
    x2 = np.asarray(x2, dtype=float)
    sigma = (1.0, -1.0, -1.0, 1.0)[n % 4]
    parity = 1.0 if n % 2 == 1 else -1.0  # cos is even, sin is odd in x2
    theta = np.abs(x2) - NAVIER_HALF_WIDTH
    base = sigma * _sin_deriv(float(n), theta, order)
    reflect = np.where(x2 >= 0.0, 1.0, parity * (-1.0) ** order)
    return reflect * base


@dataclass(frozen=True)
class Mode:
    """A closed-form eigenfunction with derivatives of any order.

    family      vertical | torsional | navier_square
    m_index     axial half-wave count
    n_index     transverse index (navier_square only; 0 otherwise)
    lam         eigenvalue of the biharmonic operator, Delta^2 u = lam u
    length_L    axial length of the supporting rectangle
    """

    family: str
    m_index: int
    n_index: int
    lam: float
    length_L: float

    def eval(self, x1, x2, dx1: int = 0, dx2: int = 0):
        """Partial derivative d^(dx1+dx2) u / dx1^dx1 dx2^dx2, vectorized."""
        x1 = np.asarray(x1, dtype=float)
        x2 = np.asarray(x2, dtype=float)
        k = self.m_index * math.pi / self.length_L
        if self.family == "vertical":
            if dx2 > 0:
                out = np.zeros(np.broadcast(x1, x2).shape)
            else:
                out = np.broadcast_to(_sin_deriv(k, x1, dx1),
                                      np.broadcast(x1, x2).shape).copy()
        elif self.family == "torsional":
            if dx2 == 0:
                out = x2 * _sin_deriv(k, x1, dx1)
            elif dx2 == 1:
                out = np.broadcast_to(_sin_deriv(k, x1, dx1),
                                      np.broadcast(x1, x2).shape).copy()
            else:
                out = np.zeros(np.broadcast(x1, x2).shape)
        elif self.family == "navier_square":
            # transverse factor: cos(n x2) for odd n, sin(n x2) for even n,
            # both vanishing with their second derivative at x2 = +-pi/2
            ax = _navier_axial_deriv(self.m_index, x1, dx1)
            tr = _navier_transverse_deriv(self.n_index, x2, dx2)
            out = ax * tr
        else:
            raise InvalidParameterError(f"unknown mode family {self.family!r}")
        return float(out) if out.ndim == 0 else out

    def biharmonic(self, x1, x2):
        """Delta^2 u evaluated from the closed-form fourth derivatives."""
        return (self.eval(x1, x2, 4, 0) + 2.0 * self.eval(x1, x2, 2, 2)
                + self.eval(x1, x2, 0, 4))

    @property
    def sqrt_lambda(self) -> float:
        return math.sqrt(self.lam)


def _eigenvalue(geom: PlateGeom, m: int) -> float:
    """(m pi / L)^4, which both families share at m."""
    return _normal(f"(m pi / L)^4 at m = {m}",
                   lambda: (m * math.pi / geom.length_L) ** 4)


def vertical_mode(geom: PlateGeom, m: int) -> Mode:
    return Mode("vertical", m, 0, _eigenvalue(geom, m), geom.length_L)


def torsional_mode(geom: PlateGeom, m: int) -> Mode:
    return Mode("torsional", m, 0, _eigenvalue(geom, m), geom.length_L)


def analytic_modes(geom: PlateGeom, m_max: int) -> List[Mode]:
    """Vertical and torsional families for m = 1..m_max; per m the two
    share the eigenvalue (m pi / L)^4 exactly."""
    return [mode(geom, m) for m in range(1, _count(m_max, "m_max") + 1)
            for mode in (vertical_mode, torsional_mode)]


@dataclass(frozen=True)
class ModeResidualReport:
    """Max-norm residuals of the eigen equation and boundary conditions."""

    interior: float        # |Delta^2 u - lam u| inside the rectangle
    end_u: float           # |u| on x1 in {0, L}
    end_uxx: float         # |u_x1x1| on x1 in {0, L}
    side_uxx: float        # |u_x2x2| on x2 = +-l
    side_extra: float      # nonlocal identity (eigen1) or |u_x2x2x2| (eigen2)

    @property
    def max_residual(self) -> float:
        return max(self.interior, self.end_u, self.end_uxx,
                   self.side_uxx, self.side_extra)


def verify_mode(geom: PlateGeom, mode: Mode, bc_kind: str,
                grid_n: int = 32) -> ModeResidualReport:
    """Evaluate all closed-form residuals of the eigen problem on a grid.

    bc_kind selects the long-side conditions: "eigen1" checks u_x2x2 = 0 plus
    the nonlocal identity 2 l u_x2(x1, +-l) = u(x1, l) - u(x1, -l);
    "eigen2" checks u_x2x2 = u_x2x2x2 = 0.
    """
    if bc_kind not in ("eigen1", "eigen2"):
        raise InvalidParameterError("bc_kind must be 'eigen1' or 'eigen2'")
    if grid_n < 16:
        raise InvalidParameterError("grid_n must be >= 16")
    L, ell = geom.length_L, geom.half_width_l
    x1 = np.linspace(0.0, L, grid_n)
    x2 = np.linspace(-ell, ell, grid_n)
    X1, X2 = np.meshgrid(x1, x2, indexing="ij")

    interior = float(np.max(np.abs(mode.biharmonic(X1, X2) - mode.lam
                                   * mode.eval(X1, X2))))
    ends = np.array([0.0, L])
    E1, E2 = np.meshgrid(ends, x2, indexing="ij")
    end_u = float(np.max(np.abs(mode.eval(E1, E2))))
    end_uxx = float(np.max(np.abs(mode.eval(E1, E2, 2, 0))))

    side_uxx = max(float(np.max(np.abs(mode.eval(x1, ell, 0, 2)))),
                   float(np.max(np.abs(mode.eval(x1, -ell, 0, 2)))))
    if bc_kind == "eigen1":
        jump = mode.eval(x1, ell) - mode.eval(x1, -ell)
        extra = max(
            float(np.max(np.abs(2.0 * ell * mode.eval(x1, ell, 0, 1) - jump))),
            float(np.max(np.abs(2.0 * ell * mode.eval(x1, -ell, 0, 1) - jump))))
    else:
        extra = max(float(np.max(np.abs(mode.eval(x1, ell, 0, 3)))),
                    float(np.max(np.abs(mode.eval(x1, -ell, 0, 3)))))
    return ModeResidualReport(interior, end_u, end_uxx, side_uxx, extra)


def navier_residuals(mode: Mode, grid_n: int = 32):
    """(interior, boundary) residual maxima of a navier_square mode:
    |Delta^2 u - lam u| inside and |u|, |u_x2x2| on all four sides of
    (0, pi) x (-pi/2, pi/2)."""
    if mode.family != "navier_square":
        raise InvalidParameterError("navier_residuals expects a navier_square mode")
    x1 = np.linspace(0.0, NAVIER_L, grid_n)
    x2 = np.linspace(-NAVIER_HALF_WIDTH, NAVIER_HALF_WIDTH, grid_n)
    X1, X2 = np.meshgrid(x1, x2, indexing="ij")
    interior = float(np.max(np.abs(mode.biharmonic(X1, X2)
                                   - mode.lam * mode.eval(X1, X2))))
    bdry = 0.0
    for xe in (0.0, NAVIER_L):
        bdry = max(bdry, float(np.max(np.abs(mode.eval(xe, x2)))),
                   float(np.max(np.abs(mode.eval(xe, x2, 0, 2)))))
    for ye in (-NAVIER_HALF_WIDTH, NAVIER_HALF_WIDTH):
        bdry = max(bdry, float(np.max(np.abs(mode.eval(x1, ye)))),
                   float(np.max(np.abs(mode.eval(x1, ye, 0, 2)))))
    return interior, bdry


def navier_square_search(S: int) -> List[Mode]:
    """All modes sin(m x1) T_n(x2) with m^2 + n^2 = S on the square plate.

    Every representation of S as a sum of two positive squares yields one
    eigenfunction of Delta^2 with eigenvalue S^2; the transverse factor
    alternates cos/sin with the parity of n so the Navier conditions hold.
    """
    if not isinstance(S, (int, np.integer)) or S < 2:
        raise InvalidParameterError("S must be an integer >= 2")
    out: List[Mode] = []
    for m in range(1, math.isqrt(S - 1) + 1):
        rest = S - m * m
        n = math.isqrt(rest)
        if n >= 1 and n * n == rest:
            out.append(Mode("navier_square", m, n, float(S) ** 2, NAVIER_L))
    return out


def write_modes_csv(path, modes: List[Mode]) -> None:
    with open(path, "w", newline="") as fh:
        fh.write("family,m,n,lambda\n")
        for md in modes:
            fh.write(f"{md.family},{md.m_index},{md.n_index},{md.lam:.17g}\n")
