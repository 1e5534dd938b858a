"""The shared trajectory type: CSV layout, stitched modal dense output and
the vectorised first integrals, each checked against a per-row reference."""
import numpy as np
import pytest

import bridgeosc as bo
from bridgeosc import plate, systems, truebeam
from bridgeosc._rk import RawTrajectory

NARROW = plate.PlateGeom(0.5, 0.05, 0.2)
RAMP = ((0.0, 0.0), (1.0, 10.0), (2.0, 0.0))  # crosses Ebar = 1.25 twice


# per-row CSV writers: the reference layout, one f-string per row
def _ref_rows_csv(path, header, ts, states):
    with open(path, "w", newline="") as fh:
        fh.write(header + "\n")
        for t, row in zip(ts, states):
            fh.write(f"{t:.17g}," + ",".join(f"{v:.17g}" for v in row) + "\n")


def _ref_scanlan_csv(path, sol):
    with open(path, "w", newline="") as fh:
        fh.write("t,theta,theta_dot\n")
        for t, th, thd in zip(sol.ts, sol.theta, sol.theta_dot):
            fh.write(f"{t:.17g},{th:.17g},{thd:.17g}\n")


def _ref_modal_csv(path, traj):
    M = traj.M
    head = ",".join(["t", "switch"] + [f"a{m}" for m in range(1, M + 1)]
                    + [f"b{m}" for m in range(1, M + 1)])
    with open(path, "w", newline="") as fh:
        fh.write(head + "\n")
        for t, sw, row in zip(traj.ts, traj.switch, traj.ys):
            cols = [f"{t:.17g}", str(int(sw))]
            cols += [f"{v:.17g}" for v in row[:M]]
            cols += [f"{v:.17g}" for v in row[2 * M:3 * M]]
            fh.write(",".join(cols) + "\n")


def _same_bytes(tmp_path, write, write_ref):
    got, ref = tmp_path / "got.csv", tmp_path / "ref.csv"
    write(got)
    write_ref(ref)
    assert got.read_bytes() == ref.read_bytes()
    return got.read_text().splitlines()


@pytest.fixture(scope="module")
def switching():
    """Modal runs at M = 1 and M = 2 through two switch flips."""
    nl = bo.make_nonlinearity("cubic", epsilon=1.0)
    out = {}
    for M in (1, 2):
        cfg = truebeam.TrueBeamConfig(
            geom=NARROW, nl=nl, threshold_Ebar=1.25, damping_delta=0.5,
            forcing=truebeam.GustForcing(breakpoints=RAMP), modes_M=M)
        a, b = np.zeros(M), np.zeros(M)
        a[0], b[0] = 1.0, 1.0
        if M > 1:
            a[1], b[1] = 0.05, -0.05
        st0 = truebeam.ModalState(0.0, a, np.zeros(M), b, np.zeros(M))
        out[M] = truebeam.integrate_truebeam(cfg, st0, 2.0)
    return out


def test_trajectory_csv_matches_per_row_writer(tmp_path, fig12, fig16):
    traj = fig12[2]
    lines = _same_bytes(tmp_path, traj.to_csv, lambda p: _ref_rows_csv(
        p, "t,w,w1,w2,w3", traj.ts, traj.states))
    assert len(lines) == len(traj.ts) + 1
    _params, _nl, _cfg, sys_traj, reduced, _report = fig16
    _same_bytes(tmp_path, sys_traj.to_csv, lambda p: _ref_rows_csv(
        p, "t,x,xd,y,yd", sys_traj.ts, sys_traj.states))
    _same_bytes(tmp_path, reduced.to_csv, lambda p: _ref_rows_csv(
        p, "t,w,w1,w2,w3", reduced.ts, reduced.states))


def test_scanlan_csv_matches_per_row_writer(tmp_path):
    params = systems.ScanlanParams(inertia_I=1.0, zeta=0.01, omega_n=2.0,
                                   A_lift=0.1, B_lift=0.5)
    sol = systems.solve_scanlan(params, 1.0, -0.25, 20.0, 301)
    _same_bytes(tmp_path, sol.to_csv, lambda p: _ref_scanlan_csv(p, sol))


@pytest.mark.parametrize("M", [1, 2])
def test_modal_csv_matches_per_row_writer(tmp_path, switching, M):
    traj = switching[M]
    assert [ev.direction for ev in traj.events] == [-1, 1]
    lines = _same_bytes(tmp_path, traj.to_csv,
                        lambda p: _ref_modal_csv(p, traj))
    switch_col = {line.split(",")[1] for line in lines[1:]}
    assert switch_col == {"1", "-1"}
    assert len(lines[0].split(",")) == 2 + 2 * M


def test_mapped_trajectory_keeps_the_shared_fields(fig12):
    traj = fig12[2]
    raw = traj.map_linear(np.eye(4)[:2])
    assert type(raw) is RawTrajectory and raw.states.shape == (len(traj), 2)
    assert type(raw.t_end) is float and raw.t_end == traj.t_end
    assert np.array_equal(raw.eval(traj.ts[3]), traj.eval(traj.ts[3])[:2])


def test_stitched_modal_eval_matches_segments(switching):
    traj = switching[2]
    segs = traj._segments
    assert len(segs) == 3
    assert np.array_equal(traj.states, traj.ys)
    assert len(traj.samples) == len(traj.ts)
    assert traj.samples[-1].switch == traj.switch[-1]
    for k, seg in enumerate(segs):
        # accepted samples and the midpoints between them, up to the
        # segment's last step; a flip time starts the next segment
        mids = 0.5 * (seg.ts[:-1] + seg.ts[1:])
        tq = np.sort(np.concatenate([seg.ts[:-1], mids]))
        want = np.array([seg.eval(t) for t in tq])
        assert np.array_equal(traj.eval(tq), want)
        assert all(np.array_equal(traj.eval(t), w) for t, w in zip(tq, want))
        if k > 0:
            flip = seg.ts[0]
            assert flip == traj.events[k - 1].t_switch
            assert np.array_equal(traj.eval(flip), seg.eval(flip))
            assert np.array_equal(traj.eval(flip), segs[k - 1].ys[-1])
            # the ending segment's interpolant meets it to rounding
            assert np.allclose(segs[k - 1].eval(flip), traj.eval(flip),
                               rtol=1e-14, atol=1e-14)
    assert np.array_equal(traj.eval(traj.t_end), segs[-1].eval(traj.t_end))
    assert traj.n_rejected == sum(seg.n_rejected for seg in segs)


def _old_hamiltonian(family, row):
    w, w1, w2, w3 = row
    if family.kind == "canonical":
        k, Fw = family.k_coef, family.nl.F(w)
    else:
        k, q = family.k2, family.q_exp
        Fw = family.c0 * w * w / 2.0 + abs(w) ** (q + 2.0) / (q + 2.0)
    return float(w1 * w3 - 0.5 * w2 * w2 + 0.5 * k * w1 * w1 + Fw), \
        abs(w1 * w3) + 0.5 * w2 ** 2 + 0.5 * abs(k) * w1 ** 2 + abs(Fw)


def _old_first_integral(params, nl, row):
    w, w1, w2, w3 = row
    b, d = params.beta, params.delta
    return (float((b + d) / 2.0 * w1 * w1 + w1 * w3
                  + 2.0 * (d - b) * nl.F(w) - 0.5 * w2 * w2),
            abs(b + d) / 2.0 * w1 ** 2 + abs(w1 * w3)
            + 2.0 * abs(d - b) * abs(nl.F(w)) + 0.5 * w2 ** 2)


def _check_drift(got, values, ref_values, ref_scale):
    drift = float(np.max(np.abs(values - values[0])))
    assert got[0] == drift
    ref_drift = float(np.max(np.abs(ref_values - ref_values[0])))
    assert got[0] == pytest.approx(ref_drift, rel=1e-12,
                                   abs=1e-12 * np.max(ref_scale))
    ref_rel = ref_drift / (1.0 + float(np.max(ref_scale)))
    assert got[1] == pytest.approx(ref_rel, rel=1e-12, abs=1e-15)


@pytest.mark.parametrize("w_cap", [np.inf, 1e3, 10.0])
def test_vectorised_hamiltonian_drift_matches_per_row(fig12, w_cap):
    family, _cfg, traj, _report = fig12
    over = np.where(np.abs(traj.states[:, 0]) > w_cap)[0]
    win = traj.states[:over[0] if len(over) else len(traj.states)]
    H = np.array([bo.hamiltonian(family, row) for row in win])
    old = np.array([_old_hamiltonian(family, row) for row in win])
    assert np.array_equal(H, old[:, 0])  # canonical: bitwise the old formula
    _check_drift(bo.hamiltonian_drift(family, traj, w_cap=w_cap), H,
                 old[:, 0], old[:, 1])


def test_vectorised_hamiltonian_drift_general_family():
    family = bo.general(0.0, 1.5, 0.0, 0.5, 1.5)
    traj = bo.integrate(family, [0.8, 0.1, -0.2, 0.0],
                        bo.IntegratorConfig(t_end=10.0, rel_tol=1e-8,
                                            abs_tol=1e-8))
    H = np.array([bo.hamiltonian(family, row) for row in traj.states])
    old = np.array([_old_hamiltonian(family, row) for row in traj.states])
    assert np.allclose(H, old[:, 0], rtol=0.0, atol=1e-14 * np.max(old[:, 1]))
    _check_drift(bo.hamiltonian_drift(family, traj), H, old[:, 0], old[:, 1])
    assert bo.hamiltonian_drift(family, traj, w_cap=1e-3) == (0.0, 0.0)
    with pytest.raises(bo.UnsupportedFamilyError):
        bo.hamiltonian_drift(bo.general(1.0, 1.5, 0.0, 0.5, 1.5), traj)


@pytest.mark.parametrize("cap", [np.inf, 1e3])
def test_vectorised_first_integral_drift_matches_per_row(fig16, cap):
    params, nl, _cfg, _traj, reduced, _report = fig16
    states = reduced.states
    over = np.where(np.max(np.abs(states), axis=1) > cap)[0]
    win = states[:over[0] if len(over) else len(states)]
    E = np.array([systems.first_integral_E(params, nl, row) for row in win])
    old = np.array([_old_first_integral(params, nl, row) for row in win])
    assert np.array_equal(E, old[:, 0])
    _check_drift(systems.first_integral_drift(params, nl, reduced, cap=cap),
                 E, old[:, 0], old[:, 1])
