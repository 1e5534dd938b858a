"""Restoring-force nonlinearities and numeric checks of their structural hypotheses.

One table keyed by kind holds each force law: the parameters it reads, f,
F (the antiderivative with F(0) = 0), f', its parameter checks and its exact
answers to the structural hypotheses. f runs the same arithmetic on one
float (numpy float64 included) as on an array. The hypothesis checker
combines those exact answers with a sampled safety net on a symmetric grid.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, fields
from typing import Callable, NamedTuple, Optional, Tuple

import numpy as np

from .errors import InvalidParameterError, _number


def _holds(nl):
    return True


class _Law(NamedTuple):
    """One force law. f, F and fprime map (nl, s) to the value at s; each
    check is a (test of nl, message) pair, written so that NaN fails it.
    The exact answers of check_hypotheses map nl to whether f(s) s > 0 away
    from 0 (sign), whether f grows at most linearly on one side (ff3) and
    whether f' >= 0 (mono), and f2 to its growth certificate or None."""

    params: Tuple[str, ...]
    f: Callable
    F: Callable
    fprime: Callable
    checks: tuple = ()
    ff3: Callable = _holds
    f2: Callable = lambda nl: None
    sign: Callable = _holds
    mono: Callable = _holds


_EPSILON_CHECK = (lambda nl: nl.epsilon >= 0.0, "epsilon must be >= 0")


def _no_epsilon(nl):
    return nl.epsilon == 0.0


def _mckenna_f2(nl):
    """For sigma*s + c*s^2 + d*s^3 with d > 0 and c^2 <= 2*d*sigma the
    constants rho=d/2, p=3, alpha=2*sigma, q=1, beta=3*d work; the two
    polynomial inequalities reduce to quadratics with non-positive
    discriminants."""
    sig, c, d = nl.sigma_f, nl.c_quad, nl.d_cub
    if c == 0.0 and sig >= 0.0:
        return (d, 3.0, sig, 1.0, d)
    if c * c <= 2.0 * d * sig:
        return (d / 2.0, 3.0, 2.0 * sig, 1.0, 3.0 * d)
    return None


def _mckenna_sign(nl):
    sig, c, d = nl.sigma_f, nl.c_quad, nl.d_cub
    return (sig > 0.0 and c * c < 4.0 * d * sig) or (sig == 0.0 and c == 0.0)


_LAWS = {
    "linear": _Law((), lambda nl, s: +s, lambda nl, s: s**2 / 2.0,  # +s: array copy
                   lambda nl, s: np.ones_like(s)),
    "cubic": _Law(
        ("epsilon",), lambda nl, s: s + nl.epsilon * (s * s * s),
        lambda nl, s: s**2 / 2.0 + nl.epsilon * s**4 / 4.0,
        lambda nl, s: 1.0 + 3.0 * nl.epsilon * s**2, (_EPSILON_CHECK,), _no_epsilon,
        lambda nl: (nl.epsilon / 2.0, 3.0, 2.0, 1.0, 3.0 * nl.epsilon)
        if nl.epsilon > 0.0 else None),
    # np.power: on a float, ** rounds apart from the array loop and can raise
    "power": _Law(
        ("epsilon", "p_exp"),
        lambda nl, s: s + nl.epsilon * np.power(np.abs(s), nl.p_exp - 1.0) * s,
        lambda nl, s: s**2 / 2.0 + (nl.epsilon * np.abs(s) ** (nl.p_exp + 1.0)
                                    / (nl.p_exp + 1.0)),
        lambda nl, s: 1.0 + nl.epsilon * nl.p_exp * np.abs(s) ** (nl.p_exp - 1.0),
        (_EPSILON_CHECK, (lambda nl: nl.p_exp > 1.0, "p_exp must be > 1")),
        _no_epsilon, lambda nl: (nl.epsilon, nl.p_exp, 1.0, 1.0, nl.epsilon)
        if nl.epsilon > 0.0 else None),
    # Lazer & McKenna's slackening cable; (s > -1) * (s + 1) would turn -inf
    # into NaN. Like exponential, f(s)/s -> 0 as s -> -inf.
    "piecewise": _Law(
        (), lambda nl, s: np.maximum(s + 1.0, 0.0) - 1.0,
        lambda nl, s: np.where(s >= -1.0, s**2 / 2.0, -s - 0.5),
        lambda nl, s: np.where(s >= -1.0, 1.0, 0.0)),
    "exponential": _Law(
        ("a_coef", "b_coef"), lambda nl, s: nl.a_coef * np.expm1(nl.b_coef * s),
        lambda nl, s: nl.a_coef * (np.expm1(nl.b_coef * s) / nl.b_coef - s),
        lambda nl, s: nl.a_coef * nl.b_coef * np.exp(nl.b_coef * s),
        ((lambda nl: nl.a_coef > 0.0 and nl.b_coef > 0.0,
          "exponential needs a_coef > 0 and b_coef > 0"),)),
    "mckenna_cubic": _Law(
        ("sigma_f", "c_quad", "d_cub"),
        lambda nl, s: nl.sigma_f * s + nl.c_quad * (s * s) + nl.d_cub * (s * s * s),
        lambda nl, s: (nl.sigma_f * s**2 / 2.0 + nl.c_quad * s**3 / 3.0
                       + nl.d_cub * s**4 / 4.0),
        lambda nl, s: nl.sigma_f + 2.0 * nl.c_quad * s + 3.0 * nl.d_cub * s**2,
        ((lambda nl: nl.d_cub > 0.0, "mckenna_cubic needs d_cub > 0"),),
        lambda nl: False, _mckenna_f2, _mckenna_sign,  # f(s)/s -> +inf both ways
        lambda nl: nl.c_quad**2 <= 3.0 * nl.d_cub * nl.sigma_f),  # f' discriminant
}

# kind -> the parameters its f, F and f' read; no other parameter is settable
KINDS = {kind: law.params for kind, law in _LAWS.items()}


def _as_float(fn):
    return lambda nl, s: float(fn(nl, s))


# kind -> f on one Python float, returning one: the law's own f where its
# arithmetic does, else through float(); piecewise as a branch, ~6x faster
# than np.maximum on a float and NaN for NaN as np.maximum is
_ON_FLOAT = {**{k: law.f for k, law in _LAWS.items()},
             "power": _as_float(_LAWS["power"].f),
             "exponential": _as_float(_LAWS["exponential"].f),
             "piecewise": lambda nl, s: (s + 1.0 if not s <= -1.0 else 0.0) - 1.0}


def _on_array(fn, nl, s):
    out = fn(nl, np.asarray(s, dtype=float))
    return float(out) if out.ndim == 0 else out


@dataclass(frozen=True)
class Nonlinearity:
    """A restoring force f with closed-form antiderivative and derivative.

    kind selects the family:
      linear        f(s) = s
      cubic         f(s) = s + epsilon*s^3
      power         f(s) = s + epsilon*|s|^(p-1)*s   (odd extension, p > 1)
      piecewise     f(s) = (s+1)^+ - 1
      exponential   f(s) = a*(exp(b*s) - 1)
      mckenna_cubic f(s) = sigma*s + c*s^2 + d*s^3
    """

    kind: str
    epsilon: float = 0.0
    p_exp: float = 3.0
    a_coef: float = 1.0
    b_coef: float = 1.0
    sigma_f: float = 1.0
    c_quad: float = 0.0
    d_cub: float = 1.0

    def __post_init__(self):
        if self.kind not in KINDS:
            raise InvalidParameterError(f"unknown nonlinearity kind {self.kind!r}")
        # bound once: the stepper calls f on one float thousands of times a run
        object.__setattr__(self, "_on_float", _ON_FLOAT[self.kind])

    def __reduce__(self):  # pickled by its fields; __init__ binds _on_float
        return type(self), tuple(getattr(self, f.name) for f in fields(self))

    def f(self, s):
        if type(s) is float:
            return self._on_float(self, s)
        if isinstance(s, float):  # numpy float64, run as a Python float
            return self._on_float(self, float(s))
        return _on_array(_LAWS[self.kind].f, self, s)

    def F(self, s):
        """Antiderivative of f with F(0) = 0."""
        return _on_array(_LAWS[self.kind].F, self, s)

    def fprime(self, s):
        return _on_array(_LAWS[self.kind].fprime, self, s)

    def to_config(self) -> dict:
        """Scenario-config form: {"kind": ..., "params": {...}}."""
        return {"kind": self.kind,
                "params": {k: getattr(self, k) for k in KINDS[self.kind]}}


def make_nonlinearity(kind: str, params: Optional[dict] = None, **kw) -> Nonlinearity:
    """Build a validated Nonlinearity from the parameters its kind reads;
    raises InvalidParameterError on any other parameter or a bad value,
    a bool, a str, NaN or inf included."""
    if not isinstance(kind, str) or kind not in KINDS:  # before its parameters
        raise InvalidParameterError(f"unknown nonlinearity kind {kind!r}")
    given = {**(params or {}), **kw}
    unknown = set(given) - set(KINDS[kind])
    if unknown:
        raise InvalidParameterError(f"{kind} does not read {sorted(unknown)}")
    values = {k: _number(v, k) for k, v in given.items()}
    if not all(map(math.isfinite, values.values())):
        raise InvalidParameterError(f"{kind} parameters must be finite, got {values}")
    nl = Nonlinearity(kind=kind, **values)
    for ok, message in _LAWS[kind].checks:
        if not ok(nl):
            raise InvalidParameterError(message)
    return nl


def nonlinearity_from_config(cfg: dict) -> Nonlinearity:
    return make_nonlinearity(cfg["kind"], cfg.get("params", {}))


@dataclass(frozen=True)
class HypothesisReport:
    """Which structural hypotheses a nonlinearity satisfies.

    holds_f      sign condition f(s)*s > 0 away from 0
    holds_ff3    one-sided at most linear growth
    holds_fmono  f'(s) >= 0 everywhere
    holds_f2     two-sided power growth with certificate constants
                 rho*|s|^(p+1) <= f(s)*s <= alpha*|s|^(q+1) + beta*|s|^(p+1)
    """

    holds_f: bool
    holds_ff3: bool
    holds_fmono: bool
    holds_f2: bool
    f2_rho: Optional[float] = None
    f2_p: Optional[float] = None
    f2_alpha: Optional[float] = None
    f2_q: Optional[float] = None
    f2_beta: Optional[float] = None


def default_sample_grid(n: int = 2000, s_min: float = 1e-8,
                        s_max: float = 100.0) -> np.ndarray:
    """Symmetric log-spaced grid on [-s_max, s_max] excluding 0.

    n/2 points per side; symmetry about 0 with 0 excluded forces an even count.
    """
    half = max(1, n // 2)
    pos = np.logspace(math.log10(s_min), math.log10(s_max), half)
    return np.concatenate([-pos[::-1], pos])


def _validate_grid(grid: np.ndarray) -> np.ndarray:
    g = np.asarray(grid, dtype=float)
    if g.size == 0:
        raise InvalidParameterError("sample grid is empty")
    if np.any(g == 0.0):
        raise InvalidParameterError("sample grid must exclude 0")
    gs = np.sort(g)
    if not np.allclose(gs, -gs[::-1], rtol=0.0, atol=1e-12 * np.max(np.abs(gs))):
        raise InvalidParameterError("sample grid must be symmetric about 0")
    return gs


def check_hypotheses(nl: Nonlinearity, sample_grid=None) -> HypothesisReport:
    """Report which of the sign/growth/monotonicity hypotheses hold for nl.

    Each flag combines the exact per-kind answer with a conjunction of the
    corresponding inequality over the sample grid; the grid acts as a safety
    net for parameterized families.
    """
    grid = _validate_grid(default_sample_grid() if sample_grid is None else sample_grid)
    fs = nl.f(grid)
    fps = nl.fprime(grid)

    law = _LAWS[nl.kind]
    holds_f = law.sign(nl) and bool(np.all(fs * grid > 0.0))
    holds_fmono = law.mono(nl) and bool(np.all(fps >= 0.0))
    cert = law.f2(nl)
    if cert is not None:
        rho, p, alpha, q, beta = cert
        lower = rho * np.abs(grid) ** (p + 1.0)
        upper = alpha * np.abs(grid) ** (q + 1.0) + beta * np.abs(grid) ** (p + 1.0)
        prod = fs * grid
        slack = 1e-12 * np.maximum(1.0, upper)
        if not (np.all(prod >= lower - slack) and np.all(prod <= upper + slack)):
            cert = None
    if cert is None:
        return HypothesisReport(holds_f, law.ff3(nl), holds_fmono, False)
    rho, p, alpha, q, beta = cert
    return HypothesisReport(holds_f, law.ff3(nl), holds_fmono, True,
                            f2_rho=rho, f2_p=p, f2_alpha=alpha, f2_q=q, f2_beta=beta)
