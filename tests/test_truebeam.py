import itertools
import math
import sys

import numpy as np
import pytest

import bridgeosc as bo
from bridgeosc import _rk, plate, truebeam
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


@pytest.mark.parametrize("E0", [True, False, 1.0, -1.0, np.float64(1.0),
                                np.bool_(True), "1", None])
def test_check_compatibility_refuses_an_E0_that_is_not_an_int(E0):
    # True == 1 and 1.0 == 1, so a membership test alone let them through
    with pytest.raises(InvalidParameterError, match="E0"):
        truebeam.check_compatibility(None, None, E0, SQUARE)


@pytest.mark.parametrize("E0", [np.int64(1), np.int32(-1), np.int8(1)])
def test_check_compatibility_accepts_a_numpy_integer_E0(E0):
    u0 = lambda x1, x2: np.sin(x1) + 0.0 * x2
    want = 0.0 if E0 == 1 else 2.0
    assert truebeam.check_compatibility(u0, None, E0, SQUARE) == \
        pytest.approx(want, abs=1e-12)


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
    # each sample reads its segment's switch: the sample at t* (where the
    # energy is at Ebar) is the first row of the -1 segment
    assert np.array_equal(traj.switch, np.where(traj.ts < ev.t_switch, 1, -1))


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


@pytest.mark.parametrize("freeze", [1, -1])
def test_energy_dissipation_with_damping(freeze):
    # phi = 0, delta > 0, switch frozen: the penalty-augmented discrete
    # energy (the penalty of each sample's own switch) must not increase
    # between samples
    nl = bo.make_nonlinearity("cubic", epsilon=0.5)
    cfg = _cfg(geom=SQUARE, nl=nl, M=2, delta=0.3, kappa=50.0)
    st0 = truebeam.ModalState(0.0, np.array([0.8, 0.2]), np.zeros(2),
                              np.array([0.3, -0.1]), np.zeros(2))
    traj = truebeam.integrate_truebeam(cfg, st0, 4.0, freeze_switch=freeze)
    assert np.all(traj.switch == freeze)
    E = np.array([truebeam.modal_energy(cfg, traj.state_at(i),
                                        include_penalty=True)
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
    # _Projector.surface, which evaluates u in every run, is the modal sum
    # sum_m (a_m + b_m x2) sin(m pi x1 / L) on both grids: affine in x2
    a, b = np.array([1.0, 0.3, -0.2]), np.array([0.2, -0.4, 0.1])
    m = np.arange(1, 4)[:, None]
    for proj in (truebeam._Projector(SQUARE, 3, 16, 8),
                 truebeam._Projector(SQUARE, 3, 7, 3, midpoints=True)):
        sines = np.sin(m * math.pi / SQUARE.length_L * proj.x1)  # (M, nq1)
        want = (a @ sines)[:, None] + (b @ sines)[:, None] * proj.x2
        got = proj.surface(np.array([a, b]))
        assert got.shape == want.shape == (proj.x1.size, proj.x2.size)
        assert np.abs(got - want).max() <= 1e-15 * np.abs(want).max()


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
    norm2 = _PROFILE_NORM2[profile](geom)
    peak = max(abs(v) for _, v in ramp)
    for profile_m, ebar in itertools.product(
            (2, 32, 64), (0.3 * peak ** 2 * norm2, 0.01 * peak ** 2 * norm2)):
        forcing = truebeam.GustForcing(breakpoints=ramp, profile=profile,
                                       profile_m=profile_m)
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


@pytest.mark.parametrize("profile", ["uniform", "vertical", "torsional"])
@pytest.mark.parametrize("profile_m", [1, 2, 16, 32, 64, 100, 1000])
def test_profile_norm2_is_the_closed_form(profile, profile_m):
    # a Gauss rule of fixed size cannot integrate sin^2 of a high index
    forcing = truebeam.GustForcing(((0.0, 1.0),), profile, profile_m)
    for geom in (NARROW, SQUARE):
        want = _PROFILE_NORM2[profile](geom)
        assert forcing.profile_norm2(geom) == pytest.approx(want, rel=1e-15)


@pytest.mark.parametrize("profile", ["uniform", "vertical", "torsional"])
@pytest.mark.parametrize("M", [1, 4, 8])
def test_modal_load_matches_a_fine_projection(profile, M):
    for geom, profile_m in itertools.product((NARROW, SQUARE), range(1, M + 1)):
        forcing = truebeam.GustForcing(((0.0, 1.0),), profile, profile_m)
        proj = truebeam._Projector(geom, M, 64, 8)
        want = proj.project(forcing.profile_values(geom, proj.x1[:, None],
                                                   proj.x2[None, :]))
        load = forcing.modal_load(M)
        assert load.shape == (2, M) and np.max(np.abs(load - want)) <= 1e-13


def test_a_profile_mode_above_the_truncation_loads_no_mode():
    # sin(100 pi x1 / L) is orthogonal to the four retained modes, so a
    # strong steady gust of it leaves the plate at rest; a projection on
    # the 16-point grid would alias it onto them. Its energy still sets the
    # switch.
    gust = truebeam.GustForcing(((0.0, 1e3),), "vertical", 100)
    traj = truebeam.integrate_truebeam(_cfg(M=4, forcing=gust),
                                       truebeam.zero_modal_state(4), 1.0)
    assert traj.termination == "reached_t_end"
    assert np.all(traj.ys == 0.0) and np.all(traj.switch == -1)


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
    # touching the level from above at t = 2 keeps the switch at -1 on
    # both sides: no flip, no event and no empty segment there
    above = truebeam.GustForcing(breakpoints=((0.0, 0.0), (1.0, 2.0),
                                              (2.0, 1.0), (3.0, 2.0)))
    assert above.threshold_crossings(NARROW, ebar, 0.0, 4.0) == [0.5]
    traj = truebeam.integrate_truebeam(_cfg(Ebar=ebar, forcing=above),
                                       truebeam.zero_modal_state(1), 3.0)
    assert traj.events == [truebeam.SwitchEvent(0.5, -1)]
    assert len(traj._segments) == 2


def test_per_sample_switch_is_its_segments():
    from bridgeosc.energy import switch_value
    gust = truebeam.GustForcing(breakpoints=((0.0, 0.0), (1.0, 10.0),
                                             (2.0, 0.0)))
    nl = bo.make_nonlinearity("cubic", epsilon=1.0)
    forced = _cfg(nl=nl, Ebar=1.25, delta=0.5, forcing=gust)
    st0 = truebeam.ModalState(0.0, np.array([1.0]), np.zeros(1),
                              np.array([1.0]), np.zeros(1))
    traj = truebeam.integrate_truebeam(forced, st0, 3.0)
    assert len(traj.events) == 2
    # the scalar law, sample by sample (energy() is elementwise in t), but
    # at a flip time the direction its event enters
    flips = {ev.t_switch: ev.direction for ev in traj.events}
    assert set(flips) <= set(traj.ts.tolist())
    law = [flips.get(t, switch_value(e, 1.25)) for t, e in
           zip(traj.ts.tolist(), gust.energy(forced.geom, traj.ts).tolist())]
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


def test_freeze_switch_is_an_integer_not_a_float():
    # 1.0 == 1, so a membership test alone let a float pin the switch
    st0, cfg = truebeam.zero_modal_state(1), _cfg()
    for freeze in (1.0, -1.0, np.float64(-1.0), np.float64(1.0)):
        with pytest.raises(InvalidParameterError, match="the integer"):
            truebeam.integrate_truebeam(cfg, st0, 1.0, freeze_switch=freeze)
    pinned = truebeam.integrate_truebeam(cfg, st0, 1.0, freeze_switch=np.int64(1))
    plain = truebeam.integrate_truebeam(cfg, st0, 1.0, freeze_switch=1)
    assert np.all(pinned.switch == 1)
    assert pinned.ts.tobytes() == plain.ts.tobytes()
    assert pinned.ys.tobytes() == plain.ys.tobytes()


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


def test_switch_value_is_an_int():
    from bridgeosc.energy import switch_value
    assert type(switch_value(0.5, 1.0)) is int
    assert switch_value(1.0, 1.0) == 1  # the threshold belongs to +1
    assert switch_value(math.nan, 1.0) == -1


def test_a_touch_of_the_level_from_above_keeps_the_switch_at_minus_one():
    # amp falls to the level at the breakpoint t = 2 and rises again: the
    # sample there lies inside the -1 segment, where there is no event
    above = truebeam.GustForcing(breakpoints=((0.0, 0.0), (1.0, 2.0),
                                              (2.0, 1.0), (3.0, 2.0)))
    ebar = above.profile_norm2(NARROW)  # level 1
    traj = truebeam.integrate_truebeam(_cfg(Ebar=ebar, M=2, forcing=above),
                                       truebeam.zero_modal_state(2), 3.0)
    assert traj.events == [truebeam.SwitchEvent(0.5, -1)]
    at2 = traj.ts.tolist().index(2.0)
    assert traj.switch[at2] == traj.state_at(at2).switch == -1
    assert np.array_equal(traj.switch, np.where(traj.ts < 0.5, 1, -1))


def test_each_sample_reads_the_switch_of_the_segment_eval_reads(monkeypatch):
    # the energy sits exactly at Ebar at both flips, t = 1 and t = 3
    gust = truebeam.GustForcing(((0.0, 0.0), (2.0, 1.0), (4.0, 0.0)))
    cfg = _cfg(geom=SQUARE, nl=bo.make_nonlinearity("cubic", epsilon=1.0),
               Ebar=math.pi ** 2 / 4.0, M=2, delta=0.2, forcing=gust)
    st0 = truebeam.ModalState(0.0, np.array([0.5, 0.1]), np.zeros(2),
                              np.array([0.5, -0.2]), np.zeros(2))
    traj = truebeam.integrate_truebeam(cfg, st0, 4.0)
    assert [(ev.t_switch, ev.direction) for ev in traj.events] == [
        (1.0, -1), (3.0, 1)]
    read = {}  # sample time -> the segment whose interpolant eval reads there
    for k, seg in enumerate(traj._segments):
        monkeypatch.setattr(seg, "eval", lambda t, k=k, inner=seg.eval: (
            read.update(dict.fromkeys(np.atleast_1d(t).tolist(), k)), inner(t))[1])
    traj.eval(traj.ts)
    # a segment's switch is where its blocks put the penalty: vertical at -1
    penalised = [-1 if seg.blocks.stiffness[0, 0] > cfg.lambdas()[0] else 1
                 for seg in traj._segments]
    assert penalised == [1, -1, 1]
    for i, t in enumerate(traj.ts.tolist()):
        assert traj.switch[i] == traj.state_at(i).switch == penalised[read[t]], t


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


@pytest.mark.parametrize("M, accepted, rejected, rows", [
    (1, [140, 76, 100], [7, 4, 11], 481),
    (4, [236, 68, 92], [17, 6, 10], 5041),
    (8, [222, 64, 84], [17, 4, 7], 19451)])
def test_switching_runs_keep_their_steps_and_flips(M, accepted, rejected, rows):
    # the benchmark's switching runs from a1 = b1 = 1: each segment's
    # accepted and rejected steps and the two closed-form flips, pinned so
    # that a change of the step arithmetic shows as rounding only; every
    # step's interpolant meets its end bit for bit
    cfg = _cfg(nl=bo.make_nonlinearity("cubic", epsilon=1.0), Ebar=1.25, M=M,
               delta=0.5, forcing=truebeam.GustForcing(
                   breakpoints=((0.0, 0.0), (1.0, 10.0), (2.0, 0.0))))
    a, b = np.zeros(M), np.zeros(M)
    a[0], b[0] = 1.0, 1.0
    traj = truebeam.integrate_truebeam(
        cfg, truebeam.ModalState(0.0, a, np.zeros(M), b, np.zeros(M)), 3.0)
    assert traj.termination == "reached_t_end" and len(traj.ts) == rows
    assert [len(seg.ts) - 1 for seg in traj._segments] == accepted
    assert [seg.n_rejected for seg in traj._segments] == rejected
    assert [(ev.t_switch, ev.direction) for ev in traj.events] == [(0.5, -1), (1.5, 1)]
    for seg in traj._segments:
        steps = np.arange(len(seg.ts) - 1)
        ends = seg._interpolate(steps, np.ones(steps.size))
        assert ends.tobytes() == seg.ys[1:].tobytes()


def test_a_sample_grid_above_the_bound_is_refused_before_the_run(monkeypatch):
    # on the benchmark's geometry at t_end = 3, M = 64 takes at least 1.24
    # million sample rows of 256 values; M = 16 takes 77,375 rows of 64
    def cfg(M):
        return _cfg(nl=bo.make_nonlinearity("cubic", epsilon=1.0), Ebar=1.25,
                    M=M, delta=0.5, forcing=truebeam.GustForcing(
                        breakpoints=((0.0, 0.0), (1.0, 10.0), (2.0, 0.0))))

    def refuse(*args, **kwargs):
        raise RuntimeError("the solver ran")

    with monkeypatch.context() as patched:
        for name in ("integrate_adaptive", "_make_projector"):
            patched.setattr(truebeam, name, refuse)
        with pytest.raises(InvalidParameterError,
                           match=r"modes_M = 64 and t_end = 3 .* 1\.24e\+06"):
            truebeam.integrate_truebeam(cfg(64), truebeam.zero_modal_state(64), 3.0)
    a, b = np.zeros(16), np.zeros(16)
    a[0], b[0] = 1.0, 1.0
    traj = truebeam.integrate_truebeam(
        cfg(16), truebeam.ModalState(0.0, a, np.zeros(16), b, np.zeros(16)), 3.0)
    assert traj.ys.shape == (77375, 64)
    assert traj.ys.size <= truebeam.MAX_SAMPLE_VALUES


def _ramp_run(M, kappa=100.0, t_end=3.0, delta=0.5):
    """The benchmark's switching run at M, from a_1 = b_1 = 1: the gust ramp
    crosses the energy threshold twice before t = 3."""
    cfg = _cfg(nl=bo.make_nonlinearity("cubic", epsilon=1.0), Ebar=1.25, M=M,
               delta=delta, kappa=kappa, forcing=truebeam.GustForcing(
                   breakpoints=((0.0, 0.0), (1.0, 10.0), (2.0, 0.0))))
    a, b = np.zeros(M), np.zeros(M)
    a[0], b[0] = 1.0, 1.0
    return truebeam.integrate_truebeam(
        cfg, truebeam.ModalState(0.0, a, np.zeros(M), b, np.zeros(M)), t_end)


def _on_the_ladder(h):
    """Whether step size h is a rung of the exponential stepper's ladder."""
    return math.ldexp(h, 1 - math.frexp(h)[1]) in _rk._LADDER


def _phi_callers(monkeypatch):
    """Record (calling function, taus) of each _phi_matrices call."""
    calls, phi_matrices = [], _rk._phi_matrices

    def counted(blocks, tau):
        calls.append((sys._getframe(1).f_code.co_name, tau.ravel().tolist()))
        return phi_matrices(blocks, tau)

    monkeypatch.setattr(_rk, "_phi_matrices", counted)
    return calls


def test_phi_builds_of_a_switching_run_come_an_octave_at_a_time(monkeypatch):
    # the benchmark's M = 8 switching run: each ladder rung brings the phis of
    # its whole octave, so a run of a few octaves, with its steps cut short at
    # the ramp's kinks and the flips, and its samples, takes few phi builds
    # (on an empty rung store: the conftest fixture empties it)
    log = _phi_callers(monkeypatch)
    traj = _ramp_run(8)
    assert traj.termination == "reached_t_end" and len(traj.events) == 2
    calls = [len(taus) for _, taus in log]
    assert len(calls) <= 30, calls
    assert max(calls) >= 3 * _rk._RUNGS  # an octave's h, h/2 and h/4 at once


def test_a_warm_rung_store_gives_the_cold_run_bit_for_bit(monkeypatch):
    # the M = 8 run, then M = 4 and M = 8 runs of another penalty (stiffness
    # and damping differ) and of another damping (only damping differs),
    # each on the store the runs before it filled, then the M = 8 run again:
    # each has the samples, switch, events and interpolant of its run on an
    # empty store, and the rerun builds phis only for its steps cut short
    # (h/4, h/2 and h off the ladder) and for its samples
    def fingerprint(traj):
        return (traj.ts.tobytes(), traj.ys.tobytes(), traj.switch.tobytes(),
                traj.events, traj.eval(np.linspace(0.0, 3.0, 61)).tobytes())

    runs = [dict(M=8), dict(M=4), dict(M=8, kappa=60.0), dict(M=8, delta=0.3)]
    cold = []
    for kwargs in runs:
        _rk._shared_weights.cache_clear()
        cold.append(fingerprint(_ramp_run(**kwargs)))
    _rk._shared_weights.cache_clear()
    assert [fingerprint(_ramp_run(**kwargs)) for kwargs in runs] == cold
    calls = _phi_callers(monkeypatch)
    assert fingerprint(_ramp_run(8)) == cold[0]
    built = [taus for caller, taus in calls if caller == "weights"]
    assert {caller for caller, _ in calls} == {"weights", "_interpolate"}
    assert built and all(len(taus) == 3 and not any(map(_on_the_ladder, taus))
                         for taus in built), built


def test_the_rung_store_holds_rungs_only_of_at_most_eight_block_sets(
        monkeypatch):
    # each block set's weights by step size, as the runs read them
    stores, shared = {}, _rk._shared_weights

    def kept(*key):
        stores[key] = shared(*key)
        return stores[key]

    monkeypatch.setattr(_rk, "_shared_weights", kept)
    # the last step cut short at t_end, at a different size for each t_end
    hs = set()
    for t_end in (2.3, 2.71, 3.0):
        traj = _ramp_run(1, t_end=t_end)
        hs.update(h for seg in traj._segments for h in seg._hs.tolist())
    assert not all(map(_on_the_ladder, hs))
    sizes = [h for weights in stores.values() for h in weights]
    assert sizes and all(map(_on_the_ladder, sizes))
    # two block sets (switch +1 and -1) per penalty, 20 in all
    for kappa in np.linspace(50.0, 150.0, 10):
        traj = _ramp_run(1, kappa=kappa, t_end=0.6)
        assert len(traj.events) == 1
    assert len(stores) == 22
    assert shared.cache_info().currsize == _rk._SHARED_SETS
    # the least recently used go first: kappa 200's sets, read again once
    # 250-350 have filled the store, outlast 250's when 400's come in
    for kappa in (200.0, 250.0, 300.0, 350.0, 200.0, 400.0):
        _ramp_run(1, kappa=kappa, t_end=0.6)
    calls = _phi_callers(monkeypatch)
    _ramp_run(1, kappa=200.0, t_end=0.6)
    assert all(not any(map(_on_the_ladder, taus))
               for caller, taus in calls if caller == "weights")


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
    assert traj.projection_grid == (5, 3) and traj.projection_error == 0.0
    # the kink of the piecewise f at u = -1 inside the plate keeps the
    # projection from converging within two doublings
    kinked = _cfg(geom=SQUARE, nl=bo.make_nonlinearity("piecewise"), M=2)
    st1 = truebeam.ModalState(0.0, np.array([3.0, 0.9]), np.zeros(2),
                              np.array([3.0, -0.6]), np.zeros(2))
    traj = truebeam.integrate_truebeam(kinked, st1, 0.05)
    assert traj.projection_grid == (64, 32) and traj.projection_error > 1e-8


_ODD_CUBIC_LAWS = {
    "linear": bo.make_nonlinearity("linear"),
    "cubic": bo.make_nonlinearity("cubic", epsilon=1.0),
    "mckenna_cubic": bo.make_nonlinearity("mckenna_cubic", sigma_f=0.5,
                                          c_quad=0.0, d_cub=2.0),
}


def _random_position(M, seed):
    """A packed modal state with random positions, zero velocities, and
    its (2, M) positions."""
    ab = np.random.default_rng(seed).standard_normal((2, M)) / np.arange(1, M + 1)
    y = np.zeros((2, 2, M))
    y[:, 0] = ab
    return y.reshape(-1), ab


def _gauss_projection(geom, nl, ab, nq1):
    fine = truebeam._Projector(geom, ab.shape[1], nq1, 12)
    return fine.project(nl.f(fine.surface(ab)))


@pytest.mark.parametrize("kind", sorted(_ODD_CUBIC_LAWS))
@pytest.mark.parametrize("M", [1, 4, 8, 16, 64])
def test_odd_cubic_laws_project_exactly_on_the_midpoint_grid(kind, M):
    # f(u) sin(m pi x1 / L) is a sum of cosines of frequency at most 4M times
    # a quartic in x2: 2M + 1 midpoints and 3 Gauss points integrate it
    nl = _ODD_CUBIC_LAWS[kind]
    for seed, geom in enumerate((NARROW, SQUARE)):
        y, ab = _random_position(M, seed)
        proj, err = truebeam._make_projector(_cfg(geom=geom, nl=nl, M=M), y)
        assert (proj.x1.size, proj.x2.size, err) == (2 * M + 1, 3, 0.0)
        want = _gauss_projection(geom, nl, ab, 800 if M == 64 else 400)
        got = proj.project(nl.f(proj.surface(ab)))
        assert np.max(np.abs(got - want)) <= 1e-12 * np.max(np.abs(want))


@pytest.mark.parametrize("kind", sorted(_ODD_CUBIC_LAWS))
@pytest.mark.parametrize("M", [1, 4, 8])
def test_modal_energy_of_an_odd_cubic_law_is_exact(kind, M):
    # F(u) of these laws is a sum of cosines of frequency at most 4M times a
    # quartic in x2, which the midpoint grid integrates exactly: the energy
    # matches the one with int F(u) on an 800 x 12 Gauss grid
    nl = _ODD_CUBIC_LAWS[kind]
    cfg = _cfg(nl=nl, M=M)
    a, ad, b, bd = np.random.default_rng(M).standard_normal((4, M))
    fine = truebeam._Projector(NARROW, M, 800, 12)
    lam, nv, nt = cfg.lambdas(), fine.norm_v, fine.norm_t
    want = (0.5 * nv * np.sum(ad ** 2 + lam * a ** 2)
            + 0.5 * nt * np.sum(bd ** 2 + lam * b ** 2)
            + fine.integral(nl.F(fine.surface(np.array([a, b])))))
    got = truebeam.modal_energy(cfg, truebeam.ModalState(0.0, a, ad, b, bd))
    assert abs(got - want) <= 1e-12 * abs(want)


def test_a_quadratic_term_keeps_the_checked_gauss_grid():
    # sin^3 has no exact midpoint sum: the grid of the odd laws would be
    # ~4e-3 (relative) off at M = 1
    nl = bo.make_nonlinearity("mckenna_cubic", sigma_f=1.0, c_quad=1.0, d_cub=1.0)
    y, ab = _random_position(1, 0)
    proj, err = truebeam._make_projector(_cfg(geom=SQUARE, nl=nl), y)
    assert not proj.midpoints and proj.x1.size >= 16 and err <= 1e-8
    want = _gauss_projection(SQUARE, nl, ab, 400)
    scale = np.max(np.abs(want))
    assert np.max(np.abs(proj.project(nl.f(proj.surface(ab))) - want)) <= 1e-8 * scale
    mid = truebeam._Projector(SQUARE, 1, 3, 3, midpoints=True)
    assert np.max(np.abs(mid.project(nl.f(mid.surface(ab))) - want)) > 1e-3 * scale


@pytest.mark.parametrize("M", [1, 4, 8, 64])
def test_dense_products_match_the_factored_ones(M, monkeypatch):
    nl = _ODD_CUBIC_LAWS["cubic"]
    cfg = _cfg(nl=nl, M=M)
    y, ab = _random_position(M, M)
    proj, _ = truebeam._make_projector(cfg, y)
    load = np.random.default_rng(M).standard_normal((2, M))
    calls = {"f": 0, "amp": 0}
    f = bo.Nonlinearity.f

    def counted_f(self, s):
        calls["f"] += 1
        return f(self, s)

    def amp(t):
        calls["amp"] += 1
        return 0.75

    monkeypatch.setattr(bo.Nonlinearity, "f", counted_f)
    rhs = truebeam._make_rhs(cfg, proj, amp, load)
    calls.update(f=0, amp=0)
    got = [rhs(0.1 * k, y).reshape(2, 2, M) for k in range(3)]
    assert calls == {"f": 3, "amp": 3}  # one of each per evaluation
    monkeypatch.undo()
    want = 0.75 * load - proj.project(nl.f(proj.surface(ab)))
    for out in got:
        assert np.all(out[:, 0] == 0.0)
        assert np.max(np.abs(out[:, 1] - want)) <= 1e-14 * np.max(np.abs(want))


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
