import math

import numpy as np
import pytest

import bridgeosc as bo
from bridgeosc import plate, truebeam
from bridgeosc.errors import InvalidParameterError

NARROW = plate.PlateGeom(0.5, 0.05, 0.2)   # lambda_m = (2 m pi)^4, all large
SQUARE = plate.PlateGeom(math.pi, math.pi / 2.0, 0.2)


def _cfg(geom=NARROW, nl=None, Ebar=1.0, M=1, delta=0.0, forcing=None,
         kappa=100.0):
    return truebeam.TrueBeamConfig(
        geom=geom, nl=nl or bo.make_nonlinearity("linear"),
        threshold_Ebar=Ebar, damping_delta=delta, forcing=forcing,
        modes_M=M, bc_penalty_kappa=kappa)


def test_config_validation():
    with pytest.raises(InvalidParameterError):
        _cfg(M=0)
    with pytest.raises(InvalidParameterError):
        _cfg(kappa=0.0)
    with pytest.raises(InvalidParameterError):
        _cfg(delta=-1.0)
    with pytest.raises(InvalidParameterError):
        truebeam.GustForcing(breakpoints=())
    with pytest.raises(InvalidParameterError):
        truebeam.GustForcing(breakpoints=((1.0, 0.0), (0.5, 1.0)))
    with pytest.raises(InvalidParameterError):
        truebeam.GustForcing(breakpoints=((0.0, 1.0),), profile="swirl")


def test_project_initial_orthogonality():
    geom = SQUARE
    zero = truebeam.project_initial(None, None, geom, 3)
    assert np.all(zero.packed == 0.0)

    u0 = lambda x1, x2: np.sin(x1)  # first vertical mode
    st = truebeam.project_initial(u0, None, geom, 3)
    assert st.a[0] == pytest.approx(1.0, abs=1e-10)
    assert np.max(np.abs(st.a[1:])) < 1e-10
    assert np.max(np.abs(st.b)) < 1e-10
    assert np.max(np.abs(st.ad)) == 0.0

    tors = lambda x1, x2: x2 * np.sin(2.0 * x1)  # second torsional mode
    st2 = truebeam.project_initial(tors, None, geom, 3)
    assert st2.b[1] == pytest.approx(1.0, abs=1e-10)
    assert abs(st2.b[0]) < 1e-10 and abs(st2.b[2]) < 1e-10
    assert np.max(np.abs(st2.a)) < 1e-10


def test_check_compatibility():
    geom = SQUARE
    assert truebeam.check_compatibility(None, None, 1, geom) == 0.0
    u0 = lambda x1, x2: np.sin(x1) + 0.0 * x2
    assert truebeam.check_compatibility(u0, None, 1, geom) == \
        pytest.approx(0.0, abs=1e-15)
    assert truebeam.check_compatibility(u0, None, -1, geom) == \
        pytest.approx(2.0, abs=1e-12)
    with pytest.raises(InvalidParameterError):
        truebeam.check_compatibility(u0, None, 0, geom)


def test_zero_data_zero_solution():
    cfg = _cfg(M=2)
    traj = truebeam.integrate_truebeam(cfg, truebeam.zero_modal_state(2), 1.0)
    assert traj.termination == "reached_t_end"
    assert np.max(np.abs(traj.ys)) == 0.0
    assert traj.events == []


def test_linear_modal_frequencies():
    # undamped, no forcing, no torsion: each a_m oscillates at
    # sqrt(lambda_m + 1) (the +1 from f(u) = u); with the narrow geometry
    # lambda_m >> 1 so this matches sqrt(lambda_m) to well under 0.1%
    cfg = _cfg(M=2)
    lam = cfg.lambdas()
    st0 = truebeam.ModalState(0.0, np.array([1.0, 0.5]), np.zeros(2),
                              np.zeros(2), np.zeros(2))
    horizon = 10.5 * 2.0 * math.pi / math.sqrt(lam[0])  # ~10 periods of a_1
    traj = truebeam.integrate_truebeam(cfg, st0, horizon)
    # b never activates (only Gauss-weight cancellation noise)
    assert np.max(np.abs(traj.ys[:, 4:8])) <= 1e-12
    for m in (0, 1):
        a = traj.ys[:, m]
        sgn = np.sign(a)
        idx = np.where(sgn[:-1] * sgn[1:] < 0)[0]
        zs = []
        for i in idx:
            t0, t1 = traj.ts[i], traj.ts[i + 1]
            f0, f1 = a[i], a[i + 1]
            zs.append(t0 - f0 * (t1 - t0) / (f1 - f0))
        period = 2.0 * np.mean(np.diff(zs))
        assert period == pytest.approx(2.0 * math.pi / math.sqrt(lam[m] + 1.0),
                                       rel=1e-5)
        assert period == pytest.approx(2.0 * math.pi / math.sqrt(lam[m]),
                                       rel=1e-3)


def test_frozen_switch_damps_torsion():
    # switch pinned at +1: the penalty relaxes (d/dt + 1) b_m to 0, so the
    # torsional amplitude is wiped out by t = 5
    cfg = _cfg(geom=SQUARE, M=1, kappa=100.0)
    st0 = truebeam.ModalState(0.0, np.zeros(1), np.zeros(1),
                              np.array([1.0]), np.zeros(1))
    traj = truebeam.integrate_truebeam(cfg, st0, 5.0, freeze_switch=1)
    assert abs(traj.ys[-1, 2]) <= 0.05
    # torsional envelope decays at least like e^-t (up to 1/kappa slack)
    b_env = np.abs(traj.ys[:, 2]) * np.exp(traj.ts)
    assert np.all(b_env <= b_env[0] + 1.0 / cfg.bc_penalty_kappa + 1e-9)


def test_frozen_switch_minus_damps_vertical_and_spares_torsion():
    cfg = _cfg(geom=SQUARE, M=1, kappa=100.0)
    st0 = truebeam.ModalState(0.0, np.array([1.0]), np.zeros(1),
                              np.array([1.0]), np.zeros(1))
    traj = truebeam.integrate_truebeam(cfg, st0, 5.0, freeze_switch=-1)
    assert abs(traj.ys[-1, 0]) <= 0.05
    # with the penalty on the vertical family, the torsional oscillator is
    # conservative and keeps its amplitude
    late = traj.ts >= 4.0
    assert np.max(np.abs(traj.ys[late, 2])) >= 0.8


def test_penalty_hands_off_at_switch_flip():
    # ramp gust crossing the threshold at t* = 5: before the flip the
    # torsional amplitude is wiped out by the boundary law, after it the
    # torsional family is left alone (the penalty moves to the vertical one)
    forcing = truebeam.GustForcing(breakpoints=((0.0, 0.0), (10.0, 1.0)),
                                   profile="uniform")
    cfg = _cfg(geom=SQUARE, Ebar=math.pi ** 2 / 4.0, M=1, forcing=forcing,
               kappa=100.0)
    st0 = truebeam.ModalState(0.0, np.zeros(1), np.zeros(1),
                              np.array([1.0]), np.zeros(1))
    traj = truebeam.integrate_truebeam(cfg, st0, 8.0)
    assert len(traj.events) == 1 and traj.events[0].direction == -1
    b = np.abs(traj.ys[:, 2])

    def env(t_lo, t_hi):
        sel = (traj.ts >= t_lo) & (traj.ts <= t_hi)
        return float(np.max(b[sel]))

    assert env(4.0, 5.0) <= 0.1 * env(0.0, 1.0)   # decays while switch = +1
    assert env(6.0, 8.0) >= 0.5 * env(5.0, 6.0)   # no longer damped after


def test_switch_event_at_configured_crossing():
    # amp(t) = t/10 with a uniform profile on the square: gust energy
    # (t/10)^2 pi^2 crosses Ebar = pi^2/4 exactly at t* = 5
    forcing = truebeam.GustForcing(breakpoints=((0.0, 0.0), (10.0, 1.0)),
                                   profile="uniform")
    cfg = _cfg(geom=SQUARE, Ebar=math.pi ** 2 / 4.0, M=1, forcing=forcing,
               delta=0.1)
    traj = truebeam.integrate_truebeam(cfg, truebeam.zero_modal_state(1), 8.0)
    assert len(traj.events) == 1
    ev = traj.events[0]
    assert ev.t_switch == pytest.approx(5.0, abs=1e-6)
    assert ev.direction == -1
    # per-sample switch agrees with the energy law
    E = forcing.energy(cfg.geom, traj.ts)
    expect = np.where(E <= cfg.threshold_Ebar, 1, -1)
    assert np.array_equal(traj.switch, expect)


def test_switch_events_round_trip_json():
    import json
    forcing = truebeam.GustForcing(
        breakpoints=((0.0, 0.0), (2.0, 1.0), (4.0, 0.0)), profile="uniform")
    cfg = _cfg(geom=SQUARE, Ebar=math.pi ** 2 / 4.0, M=1, forcing=forcing)
    traj = truebeam.integrate_truebeam(cfg, truebeam.zero_modal_state(1), 4.0)
    # ramp up crosses at t=1, ramp down re-crosses at t=3
    assert len(traj.events) == 2
    assert traj.events[0].t_switch == pytest.approx(1.0, abs=1e-6)
    assert traj.events[1].t_switch == pytest.approx(3.0, abs=1e-6)
    assert [e.direction for e in traj.events] == [-1, 1]
    payload = json.loads(traj.events_json())
    assert payload[0]["direction"] == -1


def test_energy_dissipation_with_damping():
    # phi = 0, delta > 0, switch frozen: the penalty-augmented discrete
    # energy must not increase between samples
    nl = bo.make_nonlinearity("cubic", epsilon=0.5)
    cfg = _cfg(geom=SQUARE, nl=nl, M=2, delta=0.3, kappa=50.0)
    st0 = truebeam.ModalState(0.0, np.array([0.8, 0.2]), np.zeros(2),
                              np.array([0.3, -0.1]), np.zeros(2))
    traj = truebeam.integrate_truebeam(cfg, st0, 4.0, freeze_switch=1)
    E = np.array([truebeam.modal_energy(cfg, traj.state_at(i),
                                        include_penalty=True, switch=1)
                  for i in range(len(traj.ts))])
    assert np.all(np.diff(E) <= 1e-8)
    # pure vertical start: the plain discrete energy itself dissipates
    st1 = truebeam.ModalState(0.0, np.array([0.8, 0.2]), np.zeros(2),
                              np.zeros(2), np.zeros(2))
    traj1 = truebeam.integrate_truebeam(cfg, st1, 4.0, freeze_switch=1)
    E1 = np.array([truebeam.modal_energy(cfg, traj1.state_at(i))
                   for i in range(len(traj1.ts))])
    assert np.all(np.diff(E1) <= 1e-8)


def test_truncation_consistency():
    nl = bo.make_nonlinearity("cubic", epsilon=0.2)
    u0 = lambda x1, x2: 0.5 * np.sin(x1) + 0.1 * x2 * np.sin(x1)
    out = {}
    for M in (2, 4):
        cfg = _cfg(geom=SQUARE, nl=nl, M=M)
        st0 = truebeam.project_initial(u0, None, SQUARE, M)
        traj = truebeam.integrate_truebeam(cfg, st0, 5.0, freeze_switch=1)
        tq = np.linspace(0.0, 5.0, 201)
        vals = np.array([traj.eval(t) for t in tq])
        out[M] = (vals[:, 0], vals[:, 2 * M])
    scale = np.max(np.abs(out[2][0]))
    assert np.max(np.abs(out[2][0] - out[4][0])) <= 0.01 * scale
    assert np.max(np.abs(out[2][1] - out[4][1])) <= 0.01 * max(scale, 1.0)


def test_reconstruction_is_linear_in_x2():
    fld = truebeam.ModalField(SQUARE, np.array([1.0, 0.3]),
                              np.array([0.2, -0.4]))
    x1 = np.linspace(0.0, math.pi, 7)
    x2 = np.linspace(-1.0, 1.0, 5)
    X1, X2 = np.meshgrid(x1, x2, indexing="ij")
    assert np.all(fld.eval(X1, X2, 0, 2) == 0.0)
    assert np.all(fld.eval(X1, X2, 0, 3) == 0.0)
    # u_x2 is x2-independent: equal at the two edges
    top = fld.eval(x1, SQUARE.half_width_l, 0, 1)
    bot = fld.eval(x1, -SQUARE.half_width_l, 0, 1)
    assert np.allclose(top, bot, rtol=0.0, atol=0.0)


def test_modal_blowup_termination():
    # an absurdly strong steady gust pumps the first vertical mode past the
    # modal norm cap
    forcing = truebeam.GustForcing(breakpoints=((0.0, 1e7),),
                                   profile="vertical", profile_m=1)
    cfg = _cfg(geom=SQUARE, Ebar=1e20, M=1, forcing=forcing)
    traj = truebeam.integrate_truebeam(cfg, truebeam.zero_modal_state(1), 50.0)
    assert traj.termination == "blowup_detected"
    assert traj.ts[-1] < 50.0


def test_forcing_phi_composes_with_gust_energy():
    from bridgeosc.energy import gust_energy
    forcing = truebeam.GustForcing(breakpoints=((0.0, 0.5), (4.0, 2.0)),
                                   profile="vertical", profile_m=2)
    for t in (0.0, 1.7, 4.0, 9.0):
        direct = gust_energy(forcing.phi(SQUARE), SQUARE, t)
        assert direct == pytest.approx(float(forcing.energy(SQUARE, t)),
                                       rel=1e-12)


def test_modal_csv(tmp_path):
    cfg = _cfg(geom=SQUARE, M=2)
    st0 = truebeam.ModalState(0.0, np.array([1.0, 0.0]), np.zeros(2),
                              np.array([0.0, 0.5]), np.zeros(2))
    traj = truebeam.integrate_truebeam(cfg, st0, 0.5, freeze_switch=1)
    path = tmp_path / "modal.csv"
    traj.to_csv(path)
    lines = path.read_text().splitlines()
    assert lines[0] == "t,switch,a1,a2,b1,b2"
    first = lines[1].split(",")
    assert float(first[0]) == 0.0 and first[1] == "1"
    assert float(first[2]) == 1.0 and float(first[5]) == 0.5


# |profile|^2 in closed form: 2 L l (uniform), L l (vertical), L l^3 / 3
# (torsional), for the sine profiles of any index
_PROFILE_NORM2 = {
    "uniform": lambda g: 2.0 * g.length_L * g.half_width_l,
    "vertical": lambda g: g.length_L * g.half_width_l,
    "torsional": lambda g: g.length_L * g.half_width_l ** 3 / 3.0,
}
_RAMPS = (((0.0, 0.0), (1.0, 10.0), (2.0, 0.0)),
          ((0.0, -3.0), (1.0, 4.0), (2.5, -5.0), (4.0, 0.5)))


def _analytic_flips(ramp, level, t0, t1):
    """Times in (t0, t1) where the linear pieces of amp reach +-level."""
    out = []
    for (ta, va), (tb, vb) in zip(ramp, ramp[1:]):
        for target in (level, -level):
            s = (target - va) / (vb - va) if vb != va else -1.0
            if 0.0 < s < 1.0 and t0 < ta + s * (tb - ta) < t1:
                out.append(ta + s * (tb - ta))
    return sorted(out)


@pytest.mark.parametrize("profile", ["uniform", "vertical", "torsional"])
@pytest.mark.parametrize("ramp", _RAMPS)
def test_threshold_crossings_match_closed_form(profile, ramp):
    geom = NARROW
    forcing = truebeam.GustForcing(breakpoints=ramp, profile=profile,
                                   profile_m=2)
    norm2 = _PROFILE_NORM2[profile](geom)
    peak = max(abs(v) for _, v in ramp)
    for ebar in (0.3 * peak ** 2 * norm2, 0.01 * peak ** 2 * norm2):
        for t0, t1 in ((0.0, 4.0), (0.6, 3.0)):
            got = forcing.threshold_crossings(geom, ebar, t0, t1)
            want = _analytic_flips(ramp, math.sqrt(ebar / norm2), t0, t1)
            assert len(got) == len(want) > 0
            assert np.max(np.abs(np.subtract(got, want))) <= 1e-12
            # the gust energy sits at the threshold there and changes side
            E = forcing.energy(geom, np.array(got))
            assert np.allclose(E, ebar, rtol=1e-12)
            ts = np.linspace(t0, t1, 20001)[1:-1]
            side = forcing.energy(geom, ts) > ebar
            assert np.count_nonzero(side[1:] != side[:-1]) == len(got)


def test_threshold_crossings_outside_the_breakpoint_span():
    forcing = truebeam.GustForcing(breakpoints=((1.0, 5.0), (2.0, 5.0)))
    assert forcing.threshold_crossings(NARROW, 1e-3, 0.0, 3.0) == []


def test_threshold_crossing_at_a_breakpoint():
    # amp reaches the level exactly at t = 1 and passes it: the energy is at
    # the threshold (+1) there and above it (-1) just after, so t = 1 flips;
    # touching the level and turning back flips nothing
    through = truebeam.GustForcing(breakpoints=((0.0, 0.0), (1.0, 1.0),
                                                (2.0, 2.0), (3.0, -2.0)))
    ebar = through.profile_norm2(NARROW)  # level sqrt(ebar / |profile|^2) = 1
    assert through.threshold_crossings(NARROW, ebar, 0.0, 4.0) == [
        1.0, 2.25, 2.75]
    touch = truebeam.GustForcing(breakpoints=((0.0, 0.0), (1.0, 1.0),
                                              (2.0, 0.0)))
    assert touch.threshold_crossings(NARROW, ebar, 0.0, 4.0) == []


def test_per_sample_switch_follows_the_scalar_law():
    from bridgeosc.energy import switch_value
    gust = truebeam.GustForcing(breakpoints=((0.0, 0.0), (1.0, 10.0),
                                             (2.0, 0.0)))
    nl = bo.make_nonlinearity("cubic", epsilon=1.0)
    forced = _cfg(nl=nl, Ebar=1.25, delta=0.5, forcing=gust)
    st0 = truebeam.ModalState(0.0, np.array([1.0]), np.zeros(1),
                              np.array([1.0]), np.zeros(1))
    traj = truebeam.integrate_truebeam(forced, st0, 3.0)
    assert len(traj.events) == 2
    # the scalar law, sample by sample (energy() is elementwise in t)
    law = [switch_value(float(e), 1.25)
           for e in gust.energy(forced.geom, traj.ts)]
    assert traj.switch.tolist() == law and set(law) == {1, -1}

    frozen = truebeam.integrate_truebeam(forced, st0, 0.5, freeze_switch=-1)
    assert np.all(frozen.switch == -1)
    unforced = _cfg(nl=nl)
    calm = truebeam.integrate_truebeam(unforced, st0, 0.5)
    assert np.all(calm.switch == switch_value(0.0, unforced.threshold_Ebar))


@pytest.mark.parametrize("freeze", [0, 2, 0.5])
def test_freeze_switch_only_plus_or_minus_one(freeze):
    with pytest.raises(InvalidParameterError):
        truebeam.integrate_truebeam(_cfg(), truebeam.zero_modal_state(1), 1.0,
                                    freeze_switch=freeze)


@pytest.mark.parametrize("freeze", [None, 1, -1])
@pytest.mark.parametrize("t0", [0.0, -0.5])
@pytest.mark.parametrize("a0", [0.0, 0.4])
def test_a_run_without_forcing_is_the_run_of_the_zero_gust(a0, t0, freeze):
    # the zero gust: one breakpoint at the start time, so no kink inside the
    # run and no threshold crossing
    nl = bo.make_nonlinearity("cubic", epsilon=1.0)
    st0 = truebeam.ModalState(t0, np.array([a0, -0.5 * a0]), np.zeros(2),
                              np.array([a0, 0.0]), np.array([0.0, a0]))
    bare, zero = (truebeam.integrate_truebeam(
        _cfg(nl=nl, M=2, delta=0.3, forcing=forcing), st0, t0 + 1.0,
        freeze_switch=freeze)
        for forcing in (None, truebeam.GustForcing(((t0, 0.0),))))
    for name in ("ts", "ys", "switch"):
        a, b = getattr(bare, name), getattr(zero, name)
        assert a.shape == b.shape and a.tobytes() == b.tobytes(), name
    assert bare.events == zero.events
    assert bare.termination == zero.termination


@pytest.mark.parametrize("t0", [math.nan, math.inf, -math.inf])
def test_a_modal_state_at_a_non_finite_time_is_refused(t0):
    with pytest.raises(InvalidParameterError, match="modal state must be finite"):
        truebeam.zero_modal_state(1, t0)


def test_a_bool_is_no_count_and_no_switch_value():
    with pytest.raises(InvalidParameterError, match="modes_M"):
        _cfg(M=True)
    for freeze in (True, False):
        with pytest.raises(InvalidParameterError, match="freeze_switch"):
            truebeam.integrate_truebeam(_cfg(), truebeam.zero_modal_state(1), 1.0,
                                        freeze_switch=freeze)


@pytest.mark.parametrize("t_end", [math.nan, math.inf])
def test_truebeam_rejects_non_finite_t_end(t_end):
    with pytest.raises(InvalidParameterError):
        truebeam.integrate_truebeam(_cfg(), truebeam.zero_modal_state(1), t_end)


def test_switch_value_is_elementwise_with_int_scalars():
    from bridgeosc.energy import switch_value
    assert type(switch_value(0.5, 1.0)) is int
    assert np.array_equal(switch_value(np.array([0.5, 1.0, 1.5]), 1.0),
                          [1, 1, -1])


def _forced_linear_mode(x0, v0, K, c, P, ramp, t):
    """a'' + c a' + K a = P amp(t) for the piecewise-linear amp of ramp (and
    constant beyond it), from (x0, v0) at t = 0, by variation of constants
    on each linear piece: a linear particular solution plus the damped
    homogeneous one."""
    knots = [tk for tk, _ in ramp if tk > 0.0]
    wd = math.sqrt(K - 0.25 * c * c)
    out = np.empty_like(t)
    t0 = 0.0
    for t1 in knots + [np.inf]:
        g0 = float(np.interp(t0, *np.array(ramp).T))
        slope = (float(np.interp(t1, *np.array(ramp).T)) - g0) / (t1 - t0) \
            if np.isfinite(t1) else 0.0
        alpha, beta = P * g0, P * slope
        B = beta / K
        A = (alpha - c * B) / K
        C1 = x0 - A
        C2 = (v0 - B + 0.5 * c * C1) / wd

        def x(tau):
            return A + B * tau + np.exp(-0.5 * c * tau) * (
                C1 * np.cos(wd * tau) + C2 * np.sin(wd * tau))

        sel = (t >= t0) & (t <= t1)
        out[sel] = x(t[sel] - t0)
        if np.isfinite(t1):
            tau = t1 - t0
            e = np.exp(-0.5 * c * tau)
            x0 = x(tau)
            v0 = B + e * ((-0.5 * c * C1 + wd * C2) * np.cos(wd * tau)
                          + (-0.5 * c * C2 - wd * C1) * np.sin(wd * tau))
        t0 = t1
    return out


def test_forced_linear_mode_matches_variation_of_constants():
    # one stiff mode, f(u) = u, under a ramp gust whose kinks at t = 1 and
    # t = 2 fall inside the single switch segment (the threshold is never
    # reached): a'' + delta a' + (lambda_1 + 1) a = (4/pi) amp(t), since the
    # uniform profile projects to 4/pi on the first vertical mode
    ramp = ((0.0, 0.0), (1.0, 10.0), (2.0, 0.0))
    forcing = truebeam.GustForcing(breakpoints=ramp, profile="uniform")
    cfg = _cfg(M=1, delta=0.5, forcing=forcing, Ebar=1e20)
    st0 = truebeam.ModalState(0.0, np.array([0.3]), np.array([2.0]),
                              np.zeros(1), np.zeros(1))
    traj = truebeam.integrate_truebeam(cfg, st0, 3.0)
    assert traj.events == [] and len(traj._segments) == 1
    lam = cfg.lambdas()[0]
    want = _forced_linear_mode(0.3, 2.0, lam + 1.0, 0.5, 4.0 / math.pi, ramp,
                               traj.ts)
    assert np.abs(traj.ys[:, 0] - want).max() <= 1e-7
    assert np.abs(traj.ys[:, 2]).max() <= 1e-12
    # the kinks are step boundaries, and the samples resolve the fastest
    # block (the penalised torsional one) at 16 per period
    assert {1.0, 2.0} <= set(traj._segments[0].ts)
    period = 2.0 * math.pi / math.sqrt(lam + cfg.bc_penalty_kappa)
    assert np.diff(traj.ts).max() <= period / 16.0 * (1.0 + 1e-12)


def test_steps_do_not_grow_with_the_mode_count():
    # the benchmark's switching run: narrow plate, cubic f, a ramp gust that
    # flips the switch twice
    ramp = ((0.0, 0.0), (1.0, 10.0), (2.0, 0.0))
    steps = {}
    for M in (1, 8):
        cfg = _cfg(nl=bo.make_nonlinearity("cubic", epsilon=1.0), Ebar=1.25,
                   M=M, delta=0.5, forcing=truebeam.GustForcing(breakpoints=ramp))
        a, b = np.zeros(M), np.zeros(M)
        a[0], b[0] = 1.0, 1.0
        if M > 1:
            a[1], b[1] = 0.08, -0.08
        traj = truebeam.integrate_truebeam(
            cfg, truebeam.ModalState(0.0, a, np.zeros(M), b, np.zeros(M)), 3.0)
        assert traj.termination == "reached_t_end" and len(traj.events) == 2
        assert len(traj._segments) == 3
        steps[M] = sum(len(seg.ts) - 1 for seg in traj._segments)
    assert steps[8] <= 2 * steps[1], steps


def test_phi_builds_of_a_switching_run_come_an_octave_at_a_time(monkeypatch):
    # the benchmark's M = 8 switching run: each ladder rung brings the phis of
    # its whole octave, so a run of a few octaves, with its steps cut short at
    # the ramp's kinks and the flips, and its samples, takes few phi builds
    from bridgeosc import _rk
    calls, phi_matrices = [], _rk._phi_matrices

    def counted(blocks, tau):
        calls.append(tau.size)
        return phi_matrices(blocks, tau)

    monkeypatch.setattr(_rk, "_phi_matrices", counted)
    M = 8
    cfg = _cfg(nl=bo.make_nonlinearity("cubic", epsilon=1.0), Ebar=1.25, M=M,
               delta=0.5, forcing=truebeam.GustForcing(
                   breakpoints=((0.0, 0.0), (1.0, 10.0), (2.0, 0.0))))
    a, b = np.zeros(M), np.zeros(M)
    a[0], b[0] = 1.0, 1.0
    traj = truebeam.integrate_truebeam(
        cfg, truebeam.ModalState(0.0, a, np.zeros(M), b, np.zeros(M)), 3.0)
    assert traj.termination == "reached_t_end" and len(traj.events) == 2
    assert len(calls) <= 30, calls
    assert max(calls) >= 3 * _rk._RUNGS  # an octave's h, h/2 and h/4 at once


@pytest.mark.parametrize("count", [1, 2, 5])
def test_gust_amp_on_floats_is_np_interp_bit_for_bit(monkeypatch, count):
    rng = np.random.default_rng(count)
    tp = np.cumsum(rng.uniform(0.05, 2.0, count)) - 1.0
    ap = 10.0 * rng.standard_normal(count)
    gust = truebeam.GustForcing(breakpoints=tuple(zip(tp.tolist(), ap.tolist())))
    span = tp[-1] - tp[0] + 1.0
    ts = np.concatenate([rng.uniform(tp[0] - span, tp[-1] + span, 4000), tp,
                         np.nextafter(tp, -np.inf), np.nextafter(tp, np.inf)])
    want = [np.interp(t, tp, ap) for t in ts]
    interp, interp_calls = np.interp, []

    def counted(*args):
        interp_calls.append(args[0])
        return interp(*args)

    monkeypatch.setattr(np, "interp", counted)
    for t, w in zip(ts.tolist(), want):  # Python floats, then numpy float64
        assert np.float64(gust.amp(t)).tobytes() == w.tobytes(), t
    for t, w in zip(ts, want):
        assert np.float64(gust.amp(t)).tobytes() == w.tobytes(), t
    assert interp_calls == []  # no finite float went through np.interp
    # arrays and non-finite times are np.interp's
    assert gust.amp(ts).tobytes() == np.array(want).tobytes()
    for t in (-math.inf, math.inf, math.nan):
        assert np.float64(gust.amp(t)).tobytes() == interp(t, tp, ap).tobytes()
    # np.interp gives one breakpoint's value at NaN too
    assert math.isnan(gust.amp(math.nan)) == (count > 1)


def test_gust_amp_takes_np_interp_way_round_a_nan():
    # t - t_0 overflows, so slope * (t - t_0) is 0 * inf: np.interp then
    # interpolates from the right end, and so does amp
    tp, ap = [-1e308, 1.5e308], [5.0, 5.0]
    gust = truebeam.GustForcing(breakpoints=tuple(zip(tp, ap)))
    assert gust.amp(1e308) == np.interp(1e308, tp, ap) == 5.0


def test_projection_grid_and_its_convergence_error_are_recorded():
    smooth = _cfg(geom=SQUARE, nl=bo.make_nonlinearity("cubic", epsilon=0.5),
                  M=2)
    st0 = truebeam.ModalState(0.0, np.array([0.5, 0.15]), np.zeros(2),
                              np.array([0.5, -0.1]), np.zeros(2))
    traj = truebeam.integrate_truebeam(smooth, st0, 0.05)
    assert traj.projection_grid == (16, 8) and traj.projection_error <= 1e-8
    # the kink of the piecewise f at u = -1 inside the plate keeps the
    # projection from converging within two doublings
    kinked = _cfg(geom=SQUARE, nl=bo.make_nonlinearity("piecewise"), M=2)
    st1 = truebeam.ModalState(0.0, np.array([3.0, 0.9]), np.zeros(2),
                              np.array([3.0, -0.6]), np.zeros(2))
    traj = truebeam.integrate_truebeam(kinked, st1, 0.05)
    assert traj.projection_grid == (64, 32) and traj.projection_error > 1e-8


def test_record_validation_rejects_each_bad_field():
    with pytest.raises(InvalidParameterError, match="profile_m"):
        truebeam.GustForcing(breakpoints=((0.0, 1.0),), profile_m=0)
    with pytest.raises(InvalidParameterError, match="threshold_Ebar"):
        _cfg(Ebar=math.nan)
    z = np.zeros(2)
    with pytest.raises(InvalidParameterError, match="one length"):
        truebeam.ModalState(0.0, z, z, np.zeros(3), z)
    with pytest.raises(InvalidParameterError, match="finite"):
        truebeam.ModalState(0.0, z, z, np.array([0.0, math.nan]), z)
    with pytest.raises(InvalidParameterError, match="M must be"):
        truebeam.project_initial(None, None, SQUARE, 0)


def test_integrate_truebeam_rejects_a_wrong_truncation_and_a_past_t_end():
    cfg = _cfg(M=2)
    with pytest.raises(InvalidParameterError, match="truncation"):
        truebeam.integrate_truebeam(cfg, truebeam.project_initial(
            None, None, NARROW, 1), 1.0)
    later = truebeam.ModalState(2.0, *(np.zeros(2) for _ in range(4)))
    for t_end in (2.0, 1.0):
        with pytest.raises(InvalidParameterError, match="initial time"):
            truebeam.integrate_truebeam(cfg, later, t_end)


def test_count_fields_take_integral_values_only():
    # 4.0 and np.int64(4) are the int 4; a fraction, NaN or inf is refused
    # (profile_m = 1.5 was a profile sin(1.5 pi x1 / L) that is not a mode)
    ramp = ((0.0, 0.0), (1.0, 1.0))
    u0 = lambda x1, x2: np.sin(math.pi * x1 / SQUARE.length_L)
    for good in (4, 4.0, np.int64(4)):
        forcing = truebeam.GustForcing(ramp, profile_m=good)
        assert type(forcing.profile_m) is int and forcing.profile_m == 4
        assert type(_cfg(M=good).modes_M) is int and _cfg(M=good).modes_M == 4
        assert truebeam.project_initial(u0, None, SQUARE, good).a.shape == (4,)
        assert len(plate.analytic_modes(SQUARE, good)) == 8
    for bad in (1.5, math.nan, math.inf):
        with pytest.raises(InvalidParameterError, match="profile_m"):
            truebeam.GustForcing(ramp, profile_m=bad)
        with pytest.raises(InvalidParameterError, match="modes_M"):
            _cfg(M=bad)
        for fields in ((u0, None), (u0, u0), (None, None)):
            with pytest.raises(InvalidParameterError, match="M must be"):
                truebeam.project_initial(*fields, SQUARE, bad)
        with pytest.raises(InvalidParameterError, match="m_max"):
            plate.analytic_modes(SQUARE, bad)
