import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bridgeosc import plate
from bridgeosc.errors import InvalidParameterError


def brute_force_two_squares(S):
    return sorted((m, n) for m in range(1, math.isqrt(S) + 1)
                  for n in range(1, math.isqrt(S) + 1) if m * m + n * n == S)


def test_geom_validation():
    with pytest.raises(InvalidParameterError):
        plate.PlateGeom(0.0, 1.0)
    with pytest.raises(InvalidParameterError):
        plate.PlateGeom(1.0, 1.0, poisson_sigma=0.5)
    plate.PlateGeom(10.0, 1.0, poisson_sigma=0.0)


def test_eigenvalue_formula():
    geom = plate.PlateGeom(math.pi, 0.5)
    modes = plate.analytic_modes(geom, 2)
    v1, t1, v2, t2 = modes
    assert v1.lam == pytest.approx(1.0, rel=1e-15)
    assert v2.lam == pytest.approx(16.0, rel=1e-15)
    assert v1.lam == t1.lam and v2.lam == t2.lam  # shared per m, exactly
    wide = plate.PlateGeom(2.0 * math.pi, 0.5)
    assert plate.analytic_modes(wide, 1)[0].lam == pytest.approx(1.0 / 16.0,
                                                                 rel=1e-15)


def test_vertical_mode_passes_both_bc_kinds():
    geom = plate.PlateGeom(math.pi, 0.4)
    for m in (1, 3, 5):
        md = plate.vertical_mode(geom, m)
        for bc in ("eigen1", "eigen2"):
            rep = plate.verify_mode(geom, md, bc, 32)
            assert rep.max_residual <= 1e-12 * (1.0 + md.lam)


def test_torsional_mode_nonlocal_identity():
    geom = plate.PlateGeom(math.pi, 0.4)
    for m in (1, 2, 4):
        md = plate.torsional_mode(geom, m)
        rep1 = plate.verify_mode(geom, md, "eigen1", 32)
        assert rep1.side_extra <= 1e-12  # 2 l u_x2 = u(l) - u(-l) exactly
        assert rep1.max_residual <= 1e-12 * (1.0 + md.lam)
        rep2 = plate.verify_mode(geom, md, "eigen2", 32)
        assert rep2.side_uxx == 0.0 and rep2.side_extra == 0.0


def test_verify_mode_guardrails():
    geom = plate.PlateGeom(math.pi, 0.4)
    md = plate.vertical_mode(geom, 1)
    with pytest.raises(InvalidParameterError):
        plate.verify_mode(geom, md, "navier", 32)
    with pytest.raises(InvalidParameterError):
        plate.verify_mode(geom, md, "eigen1", 8)


def test_mode_derivative_consistency():
    # closed-form derivatives against central differences
    geom = plate.PlateGeom(2.0, 0.3)
    h = 1e-5
    pts = [(0.37, 0.11), (1.53, -0.21)]
    for md in (plate.vertical_mode(geom, 2), plate.torsional_mode(geom, 3),
               plate.Mode("navier_square", 3, 2, 169.0, plate.NAVIER_L)):
        for x1, x2 in pts:
            d1 = (md.eval(x1 + h, x2) - md.eval(x1 - h, x2)) / (2 * h)
            assert d1 == pytest.approx(md.eval(x1, x2, 1, 0), rel=1e-7,
                                       abs=1e-7)
            d2 = (md.eval(x1, x2 + h) - md.eval(x1, x2 - h)) / (2 * h)
            assert d2 == pytest.approx(md.eval(x1, x2, 0, 1), rel=1e-7,
                                       abs=1e-7)


def test_navier_search_625():
    pairs = sorted((m.m_index, m.n_index)
                   for m in plate.navier_square_search(625))
    assert pairs == [(7, 24), (15, 20), (20, 15), (24, 7)]
    for md in plate.navier_square_search(625):
        assert md.lam == 625.0 ** 2
        assert md.sqrt_lambda == 625.0


def test_navier_search_small_cases():
    assert [(m.m_index, m.n_index) for m in plate.navier_square_search(2)] \
        == [(1, 1)]
    assert plate.navier_square_search(3) == []
    with pytest.raises(InvalidParameterError):
        plate.navier_square_search(1)


def test_navier_boundary_exact():
    for md in plate.navier_square_search(625):
        interior, boundary = plate.navier_residuals(md, 64)
        assert boundary <= 1e-12
        assert interior <= 1e-9 * (1.0 + md.lam)


@settings(max_examples=60, deadline=None)
@given(S=st.integers(2, 3000))
def test_navier_search_matches_brute_force(S):
    got = sorted((m.m_index, m.n_index) for m in plate.navier_square_search(S))
    assert got == brute_force_two_squares(S)


def test_modes_csv(tmp_path):
    geom = plate.PlateGeom(math.pi, 0.4)
    path = tmp_path / "modes.csv"
    plate.write_modes_csv(path, plate.analytic_modes(geom, 2))
    lines = path.read_text().splitlines()
    assert lines[0] == "family,m,n,lambda"
    assert lines[1].startswith("vertical,1,0,")
    assert len(lines) == 5


def test_mode_and_family_guardrails():
    geom = plate.PlateGeom(math.pi, 0.4)
    with pytest.raises(InvalidParameterError, match="mode family"):
        plate.Mode("bogus", 1, 0, 1.0, math.pi).eval(0.5, 0.0)
    with pytest.raises(InvalidParameterError, match="m_max"):
        plate.analytic_modes(geom, 0)
    with pytest.raises(InvalidParameterError, match="navier_square"):
        plate.navier_residuals(plate.vertical_mode(geom, 1))
