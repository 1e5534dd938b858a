import copy
import math
import pickle

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import bridgeosc as bo
from bridgeosc import nonlin
from bridgeosc.errors import InvalidParameterError

ALL_KINDS = [
    bo.make_nonlinearity("linear"),
    bo.make_nonlinearity("cubic", epsilon=1.0),
    bo.make_nonlinearity("cubic", epsilon=0.01),
    bo.make_nonlinearity("power", epsilon=0.5, p_exp=2.5),
    bo.make_nonlinearity("piecewise"),
    bo.make_nonlinearity("exponential", a_coef=1.0, b_coef=1.0),
    bo.make_nonlinearity("mckenna_cubic", sigma_f=1.0, c_quad=0.5, d_cub=1.0),
]


def test_pointwise_values():
    assert bo.make_nonlinearity("cubic", epsilon=1.0).f(2.0) == 10.0
    assert bo.make_nonlinearity("piecewise").f(-2.0) == -1.0
    assert bo.make_nonlinearity("exponential", a_coef=1.0, b_coef=1.0).f(0.0) == 0.0
    assert bo.make_nonlinearity("linear").f(3.5) == 3.5
    mck = bo.make_nonlinearity("mckenna_cubic", sigma_f=2.0, c_quad=1.0, d_cub=3.0)
    assert mck.f(1.0) == 2.0 + 1.0 + 3.0


@pytest.mark.parametrize("nl", ALL_KINDS, ids=lambda n: n.kind)
def test_antiderivative_consistency(nl):
    # central difference of F reproduces f; O(h^2) for the smooth kinds,
    # O(h) within h of the piecewise kink
    h = 1e-4
    s = np.linspace(-10.0, 10.0, 401)
    diff = (nl.F(s + h) - nl.F(s - h)) / (2.0 * h)
    fs = nl.f(s)
    scale = 1.0 + np.abs(fs) + np.abs(nl.fprime(s))
    tol = h if nl.kind == "piecewise" else 100.0 * h * h
    assert np.max(np.abs(diff - fs) / scale) <= tol


@pytest.mark.parametrize("nl", ALL_KINDS, ids=lambda n: n.kind)
def test_derivative_consistency(nl):
    h = 1e-4
    s = np.linspace(-10.0, 10.0, 401)
    if nl.kind == "piecewise":
        s = s[np.abs(s + 1.0) > 0.01]  # f' jumps at the kink
    diff = (nl.f(s + h) - nl.f(s - h)) / (2.0 * h)
    fps = nl.fprime(s)
    scale = 1.0 + np.abs(fps) * 10.0
    assert np.max(np.abs(diff - fps) / scale) <= 100.0 * h * h


def test_f_zero_is_zero():
    for nl in ALL_KINDS:
        assert nl.f(0.0) == 0.0
        assert nl.F(0.0) == 0.0


@pytest.mark.parametrize("nl", ALL_KINDS, ids=lambda n: n.kind)
def test_sign_property_on_grid(nl):
    rep = bo.check_hypotheses(nl)
    grid = nonlin.default_sample_grid(1000)
    if rep.holds_f:
        assert np.all(grid * nl.f(grid) > 0.0)


def test_hypotheses_cubic_small_eps():
    rep = bo.check_hypotheses(bo.make_nonlinearity("cubic", epsilon=0.01))
    assert rep.holds_f and rep.holds_fmono and rep.holds_f2
    assert rep.f2_p == 3.0 and rep.f2_q == 1.0
    assert not rep.holds_ff3


def test_hypotheses_piecewise_one_sided_linear():
    rep = bo.check_hypotheses(bo.make_nonlinearity("piecewise"))
    assert rep.holds_ff3
    assert rep.holds_f
    assert not rep.holds_f2


def test_hypotheses_exponential():
    rep = bo.check_hypotheses(bo.make_nonlinearity("exponential",
                                                   a_coef=2.0, b_coef=0.5))
    assert rep.holds_f and rep.holds_fmono and rep.holds_ff3
    assert not rep.holds_f2


def test_hypotheses_mckenna_nonmonotone():
    # f'(s) = 1 + 4s + 3s^2 has real roots (discriminant 16 - 12 > 0)
    nl = bo.make_nonlinearity("mckenna_cubic", sigma_f=1.0, c_quad=2.0, d_cub=1.0)
    rep = bo.check_hypotheses(nl)
    assert not rep.holds_fmono


def test_mckenna_monotone_window():
    # c^2 <= 2 d sigma forces f' >= 0 everywhere
    nl = bo.make_nonlinearity("mckenna_cubic", sigma_f=1.0, c_quad=1.0, d_cub=1.0)
    rep = bo.check_hypotheses(nl)
    assert rep.holds_fmono
    grid = nonlin.default_sample_grid(1000)
    assert np.all(nl.fprime(grid) >= 0.0)


def test_f2_certificate_inequality():
    for nl in ALL_KINDS:
        rep = bo.check_hypotheses(nl)
        if not rep.holds_f2:
            continue
        assert rep.f2_p > rep.f2_q >= 1.0
        assert rep.f2_alpha >= 0.0
        assert 0.0 < rep.f2_rho <= rep.f2_beta
        s = nonlin.default_sample_grid(2000)
        prod = nl.f(s) * s
        lower = rep.f2_rho * np.abs(s) ** (rep.f2_p + 1.0)
        upper = (rep.f2_alpha * np.abs(s) ** (rep.f2_q + 1.0)
                 + rep.f2_beta * np.abs(s) ** (rep.f2_p + 1.0))
        slack = 1e-10 * np.maximum(1.0, upper)
        assert np.all(prod >= lower - slack)
        assert np.all(prod <= upper + slack)


def test_linear_has_no_f2():
    assert not bo.check_hypotheses(bo.make_nonlinearity("linear")).holds_f2


def test_invalid_parameters():
    with pytest.raises(InvalidParameterError):
        bo.make_nonlinearity("mckenna_cubic", d_cub=-1.0)
    with pytest.raises(InvalidParameterError):
        bo.make_nonlinearity("exponential", a_coef=1.0, b_coef=0.0)
    with pytest.raises(InvalidParameterError):
        bo.make_nonlinearity("cubic", epsilon=-0.5)
    with pytest.raises(InvalidParameterError):
        bo.make_nonlinearity("power", epsilon=1.0, p_exp=1.0)
    with pytest.raises(InvalidParameterError):
        bo.make_nonlinearity("spline")
    with pytest.raises(InvalidParameterError):
        bo.make_nonlinearity("cubic", weird=2.0)


def test_grid_validation():
    nl = bo.make_nonlinearity("cubic", epsilon=1.0)
    with pytest.raises(InvalidParameterError):
        bo.check_hypotheses(nl, sample_grid=[])
    with pytest.raises(InvalidParameterError):
        bo.check_hypotheses(nl, sample_grid=[-1.0, 0.0, 1.0])
    with pytest.raises(InvalidParameterError):
        bo.check_hypotheses(nl, sample_grid=[-2.0, 1.0])


def test_config_round_trip():
    nl = bo.make_nonlinearity("mckenna_cubic", sigma_f=1.5, c_quad=0.25,
                              d_cub=2.0)
    back = nonlin.nonlinearity_from_config(nl.to_config())
    assert back == nl


@settings(max_examples=40, deadline=None)
@given(eps=st.floats(1e-6, 10.0), s=st.floats(-30.0, 30.0))
def test_cubic_structure_properties(eps, s):
    nl = bo.make_nonlinearity("cubic", epsilon=eps)
    assert nl.f(s) == pytest.approx(s + eps * s**3, rel=1e-12, abs=1e-12)
    if abs(s) > 1e-150:  # below that, f(s)*s underflows float64
        assert nl.f(s) * s > 0.0
    rep = bo.check_hypotheses(nl)
    assert rep.holds_f and rep.holds_fmono and rep.holds_f2


@pytest.mark.parametrize("eps", [1e-3, 0.1, 1.0, 250.0])
def test_cubic_array_path_multiplies_and_agrees_with_the_scalar_path(eps):
    rng = np.random.default_rng(5)
    s = rng.standard_normal(2000) * 10.0 ** rng.uniform(-4.0, 4.0, 2000)
    nl = bo.make_nonlinearity("cubic", epsilon=eps)
    out = nl.f(s)
    assert out.tobytes() == (s + eps * (s * s * s)).tobytes()
    scalar = np.array([nl.f(float(x)) for x in s])
    assert scalar.tobytes() == out.tobytes()


def _float_grid():
    """100,000 log-spread values of both signs over 1e-300..1e300, then
    +-0, +-1e308, +-inf, NaN, -1 and the two floats next to -1."""
    rng = np.random.default_rng(5)
    s = rng.choice([-1.0, 1.0], 100_000) * 10.0 ** rng.uniform(-300.0, 300.0,
                                                               100_000)
    return np.concatenate([s, [0.0, -0.0, 1e308, -1e308, math.inf, -math.inf,
                               math.nan, -1.0, np.nextafter(-1.0, 0.0),
                               np.nextafter(-1.0, -2.0)]])


FLOAT_GRID = _float_grid()
# every kind, and power also at p = 3, where |s|^(p-1) is a square
GRID_KINDS = ALL_KINDS + [bo.make_nonlinearity("power", epsilon=0.5, p_exp=3.0)]


@pytest.mark.parametrize("nl", GRID_KINDS, ids=lambda n: n.kind)
def test_f_on_one_float_is_the_array_f_byte_for_byte(nl):
    # the stepper calls f on one float, the checks and the modal projection
    # on arrays: they must be one function, down to the last bit
    with np.errstate(all="ignore"):
        out = nl.f(FLOAT_GRID)
        scalar = np.fromiter(map(nl.f, FLOAT_GRID.tolist()), float)
        # numpy float64 takes the float path too
        f64 = np.fromiter(map(nl.f, FLOAT_GRID[-10_010:]), float)
    assert scalar.tobytes() == out.tobytes()
    assert f64.tobytes() == out[-10_010:].tobytes()
    assert type(nl.f(np.float64(0.5))) is float


@pytest.mark.parametrize("nl", GRID_KINDS, ids=lambda n: n.kind)
def test_a_nonlinearity_pickles_and_copies_with_its_float_path(nl):
    # the float path is bound at construction, and a sweep worker or a copy
    # must bind it again
    for twin in (pickle.loads(pickle.dumps(nl)), copy.deepcopy(nl), copy.copy(nl)):
        assert twin == nl and hash(twin) == hash(nl)
        assert type(twin.f(0.5)) is float and twin.f(-1.5) == nl.f(-1.5)


# f (array path), F and f' as written before each law was one table entry,
# kept as the reference arithmetic
REFERENCE = {
    "linear": (lambda nl, s: s.copy(), lambda nl, s: s**2 / 2.0,
               lambda nl, s: np.ones_like(s)),
    "cubic": (lambda nl, s: s + nl.epsilon * (s * s * s),
              lambda nl, s: s**2 / 2.0 + nl.epsilon * s**4 / 4.0,
              lambda nl, s: 1.0 + 3.0 * nl.epsilon * s**2),
    "power": (lambda nl, s: s + nl.epsilon * np.abs(s) ** (nl.p_exp - 1.0) * s,
              lambda nl, s: (s**2 / 2.0 + nl.epsilon
                             * np.abs(s) ** (nl.p_exp + 1.0) / (nl.p_exp + 1.0)),
              lambda nl, s: (1.0 + nl.epsilon * nl.p_exp
                             * np.abs(s) ** (nl.p_exp - 1.0))),
    "piecewise": (lambda nl, s: np.maximum(s + 1.0, 0.0) - 1.0,
                  lambda nl, s: np.where(s >= -1.0, s**2 / 2.0, -s - 0.5),
                  lambda nl, s: np.where(s >= -1.0, 1.0, 0.0)),
    "exponential": (
        lambda nl, s: nl.a_coef * np.expm1(nl.b_coef * s),
        lambda nl, s: nl.a_coef * (np.expm1(nl.b_coef * s) / nl.b_coef - s),
        lambda nl, s: nl.a_coef * nl.b_coef * np.exp(nl.b_coef * s)),
    "mckenna_cubic": (
        lambda nl, s: nl.sigma_f * s + nl.c_quad * s**2 + nl.d_cub * s**3,
        lambda nl, s: (nl.sigma_f * s**2 / 2.0 + nl.c_quad * s**3 / 3.0
                       + nl.d_cub * s**4 / 4.0),
        lambda nl, s: nl.sigma_f + 2.0 * nl.c_quad * s + 3.0 * nl.d_cub * s**2),
}


@pytest.mark.parametrize("nl", GRID_KINDS, ids=lambda n: n.kind)
def test_f_F_and_fprime_keep_the_reference_arithmetic(nl):
    f_ref, F_ref, fprime_ref = REFERENCE[nl.kind]
    s = FLOAT_GRID
    with np.errstate(all="ignore"):
        assert nl.F(s).tobytes() == F_ref(nl, s).tobytes()
        assert nl.fprime(s).tobytes() == fprime_ref(nl, s).tobytes()
        if nl.kind != "mckenna_cubic":
            assert nl.f(s).tobytes() == f_ref(nl, s).tobytes()
            return
        # the reference cubed through np.power, f multiplies: they agree to
        # the rounding of the terms
        x = s[np.abs(s) < 1e100]
        terms = (np.abs(nl.sigma_f * x) + np.abs(nl.c_quad * x * x)
                 + np.abs(nl.d_cub * x * x * x))
        assert np.all(np.abs(nl.f(x) - f_ref(nl, x)) <= 4.0 * np.spacing(terms))


@settings(max_examples=40, deadline=None)
@given(sig=st.floats(0.1, 5.0), c=st.floats(-3.0, 3.0), d=st.floats(0.05, 5.0))
def test_mckenna_monotonicity_matches_discriminant(sig, c, d):
    nl = bo.make_nonlinearity("mckenna_cubic", sigma_f=sig, c_quad=c, d_cub=d)
    rep = bo.check_hypotheses(nl)
    assert rep.holds_fmono == (c * c <= 3.0 * d * sig)


# the parameters each kind's f, F and f' read; no other one is settable
NL_READS = {
    "linear": set(), "cubic": {"epsilon"}, "power": {"epsilon", "p_exp"},
    "piecewise": set(), "exponential": {"a_coef", "b_coef"},
    "mckenna_cubic": {"sigma_f", "c_quad", "d_cub"},
}
NL_PARAMS = ("epsilon", "p_exp", "a_coef", "b_coef", "sigma_f", "c_quad", "d_cub")


def test_nonlinearity_parameters_are_the_read_ones():
    import dataclasses
    assert tuple(f.name for f in dataclasses.fields(bo.Nonlinearity))[1:] == \
        NL_PARAMS
    assert sum(map(len, NL_READS.values())) == 8
    for kind, read in NL_READS.items():
        assert set(bo.make_nonlinearity(kind).to_config()["params"]) == read


@pytest.mark.parametrize("kind, param", [
    (kind, p) for kind, read in NL_READS.items()
    for p in NL_PARAMS if p not in read])
def test_unread_parameter_is_rejected(kind, param):
    # 1.0 is d_cub's default: a parameter is refused by name, whatever its
    # value, so that d_cub on a cubic cannot quietly drop the cubic term
    with pytest.raises(InvalidParameterError, match=param):
        bo.make_nonlinearity(kind, {param: 1.0})


def test_unknown_kind_is_rejected_on_construction():
    with pytest.raises(InvalidParameterError, match="bogus"):
        nonlin.Nonlinearity(kind="bogus")


@pytest.mark.parametrize("kind, params", [
    ("cubic", {"epsilon": math.nan}), ("power", {"p_exp": math.nan}),
    ("exponential", {"a_coef": math.nan}), ("exponential", {"b_coef": math.nan}),
    ("mckenna_cubic", {"d_cub": math.nan})])
def test_nan_parameter_fails_its_check(kind, params):
    with pytest.raises(InvalidParameterError):
        bo.make_nonlinearity(kind, params)


@pytest.mark.parametrize("kind, param", [
    (kind, param) for kind, params in nonlin.KINDS.items() for param in params])
def test_a_non_finite_parameter_is_refused_whatever_its_checks_read(kind, param):
    # mckenna_cubic's checks read d_cub alone, so sigma_f = NaN made f(0.5) NaN
    for value in (math.nan, math.inf, -math.inf):
        with pytest.raises(InvalidParameterError, match="must be finite"):
            bo.make_nonlinearity(kind, {param: value})
