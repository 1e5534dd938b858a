import math
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bridgeosc import energy, plate
from bridgeosc.errors import InvalidParameterError


def _fp(l, r, wb, wt, al=0.02):
    return energy.FlutterParams(half_width_l=l, gyration_r=r, omega_B=wb,
                                omega_T=wt, alpha_mass=al)


def test_flutter_zero_gap():
    assert energy.flutter_speed(_fp(6.0, 4.0, 1.3, 1.3)) == 0.0


def test_flutter_formula_with_gyration_ratio():
    # r = l/sqrt(2) collapses the prefactor to l^2/2
    l = 6.0
    p = _fp(l, l / math.sqrt(2.0), 1.0, 1.5)
    expect = math.sqrt(l * l / 2.0 * (1.5 ** 2 - 1.0) / 0.02)
    assert energy.flutter_speed(p) == pytest.approx(expect, rel=1e-14)


def test_flutter_doubling():
    l = 6.0
    p1 = _fp(l, l / math.sqrt(2.0), 1.0, 1.5)
    p2 = _fp(2 * l, 2 * l / math.sqrt(2.0), 1.0, 1.5)
    v1, v2 = energy.flutter_speed(p1), energy.flutter_speed(p2)
    assert v2 == pytest.approx(2.0 * v1, rel=1e-12)


def test_flutter_negative_radicand():
    with pytest.raises(InvalidParameterError):
        energy.flutter_speed(_fp(6.0, 4.0, 2.0, 1.0))
    with pytest.raises(InvalidParameterError):
        _fp(-1.0, 4.0, 1.0, 2.0)


@pytest.mark.parametrize("field", ["half_width_l", "gyration_r", "omega_B",
                                   "omega_T"])
def test_flutter_square_overflow_names_the_field(field):
    params = replace(_fp(6.0, 4.0, 1.0, 1.6), **{field: 1e200})
    with pytest.raises(InvalidParameterError, match=field):
        energy.flutter_speed(params)


def test_flutter_large_lengths_keep_a_finite_speed():
    # r^2 l^2 = 1e400 overflows, but V_c^2 = (2/3) 1e200 * 1.56 / 0.02 does not
    v_c = energy.flutter_speed(_fp(1e100, 1e100, 1.0, 1.6))
    assert v_c == pytest.approx(math.sqrt(52.0) * 1e100, rel=1e-14)


def test_flutter_speed_that_overflows_is_rejected():
    # every square is finite, V_c^2 = (2/3) 1e300 * 1.56 / 1e-10 is not
    with pytest.raises(InvalidParameterError, match="V_c"):
        energy.flutter_speed(_fp(1e150, 1e150, 1.0, 1.6, al=1e-10))


@settings(max_examples=50, deadline=None)
@given(c=st.floats(0.1, 50.0), l=st.floats(0.5, 20.0), r=st.floats(0.5, 20.0))
def test_flutter_homogeneous_degree_one(c, l, r):
    p = _fp(l, r, 1.0, 2.0)
    pc = _fp(c * l, c * r, 1.0, 2.0)
    assert energy.flutter_speed(pc) == pytest.approx(
        c * energy.flutter_speed(p), rel=1e-12)


SQUARE = plate.PlateGeom(math.pi, math.pi / 2.0)


def test_gust_energy_basics():
    assert energy.gust_energy(lambda x1, x2, t: 0.0 * x1, SQUARE, 0.0) == 0.0
    area = energy.gust_energy(lambda x1, x2, t: np.ones_like(x1), SQUARE, 0.0)
    assert area == pytest.approx(math.pi ** 2, rel=1e-12)
    half = energy.gust_energy(lambda x1, x2, t: np.sin(x1), SQUARE, 0.0)
    assert half == pytest.approx(math.pi ** 2 / 2.0, rel=1e-10)
    with pytest.raises(InvalidParameterError):
        energy.gust_energy(lambda x1, x2, t: x1, SQUARE, 0.0, quadrature_n=4)


def test_gust_energy_nonnegative_and_converged():
    f = lambda x1, x2, t: np.sin(2 * x1) * x2
    v32 = energy.gust_energy(f, SQUARE, 0.0, 32)
    v64 = energy.gust_energy(f, SQUARE, 0.0, 64)
    assert v32 >= 0.0
    assert v64 == pytest.approx(v32, rel=1e-10)


def test_switch_law():
    assert energy.switch_value(0.0, 1.0) == 1
    assert energy.switch_value(2.0, 1.0) == -1
    assert energy.switch_value(1.0, 1.0) == 1  # boundary belongs to +1


def test_ledger_and_mode_count():
    led = energy.make_ledger(0.5, [1.0, 2.0, 3.0])
    assert energy.switch_state(led) == 1
    assert energy.active_mode_count(led) == 1
    assert not led.torsional_active
    led2 = energy.make_ledger(2.5, [1.0, 2.0, 3.0])
    assert energy.active_mode_count(led2) == 3
    assert energy.switch_state(led2) == 1
    led3 = energy.make_ledger(5.0, [1.0, 2.0, 3.0])
    assert energy.switch_state(led3) == -1
    assert led3.torsional_active
    assert energy.active_mode_count(led3) == 4
    # torsional activation coincides with the switch flipping negative
    for led_k in (led, led2, led3):
        assert led_k.torsional_active == (energy.switch_state(led_k) == -1)
    assert energy.active_mode_count(energy.make_ledger(0.0, [1.0])) == 1


def test_ledger_validation():
    with pytest.raises(InvalidParameterError):
        energy.make_ledger(1.0, [])
    with pytest.raises(InvalidParameterError):
        energy.make_ledger(1.0, [2.0, 1.0])
    rep = energy.ledger_report(energy.make_ledger(2.0, [1.0]))
    assert rep["switch"] == -1 and rep["torsional_active"] is True


def test_net_energy_input():
    p = energy.NetInputParams(weight_w=1.0, H_w=1.0, EA_stiff=1.0,
                              length_L=1.0, damp_C=1.0)
    ones = np.ones(101)
    assert energy.net_energy_input(ones, p) == pytest.approx(0.0, abs=1e-14)
    assert energy.net_energy_input(2.0 * ones, p) == pytest.approx(-2.0,
                                                                   rel=1e-14)
    assert energy.net_energy_input(np.zeros(11), p) == 0.0
    with pytest.raises(InvalidParameterError):
        energy.net_energy_input(np.ones(1), p)


def test_elongation_mode():
    assert energy.elongation_mode(0.0, 1, math.pi) == 0.0
    for a in (math.nan, math.inf, 1e200):  # (m pi a / L)^2 is not finite
        with pytest.raises(InvalidParameterError):
            energy.elongation_mode(a, 1, 1.0)
    g1 = energy.elongation_mode(1.0, 1, math.pi)
    oracle = energy.elongation_mode(1.0, 1, math.pi, tol=1e-12)
    assert g1 == pytest.approx(oracle, abs=1e-8)
    # strictly increasing in the mode index at fixed amplitude
    gs = [energy.elongation_mode(0.7, m, math.pi) for m in range(1, 5)]
    assert all(a < b for a, b in zip(gs, gs[1:]))
    # and strictly increasing in |a|
    amps = [energy.elongation_mode(a, 2, math.pi) for a in (0.1, 0.5, 1.0)]
    assert amps[0] < amps[1] < amps[2]


# (a, m, L); the last two have slopes k a of about 2e6 and 3e6
ELLIPTIC_CASES = [(a, m, math.pi) for a in (0.1, 0.7, 1.0, 10.0, 1000.0)
                  for m in (1, 3)] + [(1e5, 7, 1.0), (1e6, 1, 1.0)]


@pytest.mark.parametrize("a, m, L", ELLIPTIC_CASES, ids=[
    f"{a}-{m}" if L == math.pi else f"{a}-{m}-{L}" for a, m, L in ELLIPTIC_CASES])
def test_elongation_mode_matches_elliptic_closed_form(a, m, L):
    # with c = (m pi a / L)^2 the integral is
    # (2L/pi) sqrt(1 + c) E(c / (1 + c)) - L, E complete of the second kind
    ellipe = pytest.importorskip("scipy.special").ellipe
    c = (m * math.pi * a / L) ** 2
    exact = 2.0 * L / math.pi * math.sqrt(1.0 + c) * ellipe(c / (1.0 + c)) - L
    assert abs(energy.elongation_mode(a, m, L) - exact) <= 1e-12 * max(1.0, exact)


# (a, m, L): small slopes, then c = (pi a)^2 just below and above 0.1,
# where the binomial series hands over to the elliptic closed form
SMALL_SLOPES = [(a, m, L) for a in (1e-9, 1e-7, 1e-5, 1e-3)
                for m, L in ((1, 1.0), (3, math.pi))] + [
    (math.sqrt(0.1) / math.pi * (1.0 + d), 1, 1.0) for d in (-1e-9, 1e-9)]


@pytest.mark.parametrize("a, m, L", SMALL_SLOPES)
def test_elongation_mode_is_relative_accurate_at_small_slopes(a, m, L):
    mpmath = pytest.importorskip("mpmath")
    slope = m * math.pi * a / L
    with mpmath.workdps(50):
        c = mpmath.mpf(slope * slope)
        exact = float(L * (2 / mpmath.pi * mpmath.sqrt(1 + c)
                           * mpmath.ellipe(c / (1 + c)) - 1))
    assert abs(energy.elongation_mode(a, m, L) - exact) <= 1e-13 * exact


@pytest.mark.parametrize("record, kw", [
    (energy.NetInputParams, {"weight_w": math.nan}),
    (energy.NetInputParams, {"damp_C": math.inf}),
    (energy.FlutterParams, {"half_width_l": math.nan}),
    (energy.FlutterParams, {"alpha_mass": math.inf})])
def test_non_finite_record_fields_are_rejected(record, kw):
    base = {f: 1.0 for f in record.__dataclass_fields__}
    with pytest.raises(InvalidParameterError):
        record(**{**base, **kw})


@pytest.mark.parametrize("total_E, schedule", [
    (math.nan, [1.0]), (math.inf, [1.0]), (1.0, [math.nan]),
    (1.0, [0.5, math.nan])])
def test_ledger_rejects_non_finite_values(total_E, schedule):
    with pytest.raises(InvalidParameterError):
        energy.make_ledger(total_E, schedule)


class _PlaneField:
    """u = c1 x1 + c2 x2, with exact derivatives."""

    def __init__(self, c1, c2):
        self.c1, self.c2 = c1, c2

    def eval(self, x1, x2, dx1=0, dx2=0):
        x1 = np.asarray(x1, dtype=float)
        x2 = np.asarray(x2, dtype=float)
        shape = np.broadcast(x1, x2).shape
        if dx1 == 0 and dx2 == 0:
            return self.c1 * x1 + self.c2 * x2
        if (dx1, dx2) == (1, 0):
            return np.full(shape, self.c1)
        if (dx1, dx2) == (0, 1):
            return np.full(shape, self.c2)
        return np.zeros(shape)


def test_local_energy_cases():
    geom = plate.PlateGeom(math.pi, 0.5)
    region = (0.0, math.pi, -0.5, 0.5)
    zero = _PlaneField(0.0, 0.0)
    F = lambda s: np.zeros_like(np.asarray(s, dtype=float))
    assert energy.local_energy(zero, None, F, 0.2, region) == 0.0
    # resting plate with uniform velocity c: energy = c^2/2 * area
    c = 3.0
    got = energy.local_energy(zero, lambda x1, x2: c + 0.0 * x1, F, 0.2,
                              region)
    assert got == pytest.approx(0.5 * c * c * math.pi, rel=1e-12)
    # first vertical mode: det(D^2 u) = 0, so sigma drops out and the
    # bending term integrates to pi/4
    md = plate.vertical_mode(geom, 1)
    for sigma in (0.0, 0.3):
        got = energy.local_energy(md, None, F, sigma, region)
        assert got == pytest.approx(math.pi / 4.0, rel=1e-10)


def test_local_energy_includes_restoring_potential():
    geom = plate.PlateGeom(math.pi, 0.5)
    region = (0.0, math.pi, -0.5, 0.5)
    md = plate.vertical_mode(geom, 1)
    F = lambda s: np.asarray(s, dtype=float) ** 2 / 2.0
    base = energy.local_energy(md, None, lambda s: 0.0 * np.asarray(s), 0.2,
                               region)
    with_f = energy.local_energy(md, None, F, 0.2, region)
    # int F(sin x1) = pi/4 over the strip
    assert with_f - base == pytest.approx(math.pi / 4.0, rel=1e-10)


def test_stretching_energy():
    region = (0.0, 1.0, 0.0, 1.0)
    assert energy.stretching_energy(_PlaneField(0.0, 0.0), region) == 0.0
    got = energy.stretching_energy(_PlaneField(1.0, 0.0), region)
    assert got == pytest.approx(math.sqrt(2.0) - 1.0, rel=1e-12)
    md = plate.vertical_mode(plate.PlateGeom(math.pi, 0.5), 2)
    a = energy.stretching_energy(md, (0.0, math.pi, -0.5, 0.5), 64)
    b = energy.stretching_energy(md, (0.0, math.pi, -0.5, 0.5), 256)
    assert a == pytest.approx(b, abs=1e-8)


def test_plain_callable_rejects_derivatives():
    with pytest.raises(InvalidParameterError):
        energy.stretching_energy(lambda x1, x2: x1, (0, 1, 0, 1))


@pytest.mark.parametrize("m, L", [(0, math.pi), (1, 0.0)])
def test_elongation_mode_needs_a_mode_and_a_length(m, L):
    with pytest.raises(InvalidParameterError, match="m >= 1 and L > 0"):
        energy.elongation_mode(1.0, m, L)
