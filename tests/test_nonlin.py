import math

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
    # the scalar path cubes through np.power, which rounds once
    scalar = np.array([nl.f(float(x)) for x in s])
    assert np.all(np.abs(out - scalar) <= 2.0 * np.spacing(np.abs(scalar)))


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
