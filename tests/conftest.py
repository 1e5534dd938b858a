"""Shared reference runs; session-scoped because the tight-tolerance
integrations are the expensive part of the suite."""
import pytest

import bridgeosc as bo
from bridgeosc import _rk, systems


@pytest.fixture(autouse=True)
def empty_rung_store():
    """Each test starts with no shared exponential-step weights, so what a
    test counts or compares does not depend on the tests before it."""
    _rk._shared_weights.cache_clear()


@pytest.fixture(scope="session")
def cubic1():
    return bo.make_nonlinearity("cubic", epsilon=1.0)


@pytest.fixture(scope="session")
def fig12(cubic1):
    family = bo.canonical(3.0, cubic1)
    cfg = bo.IntegratorConfig(t_end=20.0)
    traj = bo.integrate(family, [1.0, 0.0, 0.0, 0.0], cfg)
    report = bo.detect_blowup(traj)
    return family, cfg, traj, report


@pytest.fixture(scope="session")
def fig13(cubic1):
    family = bo.canonical(3.6, cubic1)
    cfg = bo.IntegratorConfig(t_end=120.0)
    traj = bo.integrate(family, [0.9, 0.0, 0.0, 0.0], cfg)
    report = bo.detect_blowup(traj)
    return family, cfg, traj, report


@pytest.fixture(scope="session")
def fig16():
    nl = bo.make_nonlinearity("cubic", epsilon=0.1)
    params = systems.MiosystParams(beta=-1.0, delta=1.0)
    cfg = bo.IntegratorConfig(t_end=10.0)
    traj = systems.integrate_miosyst(params, nl, [1.0, 1.0, 0.0, -1.0], cfg)
    reduced = systems.to_fourth_order(params, nl, traj)
    report = bo.detect_blowup(reduced)
    return params, nl, cfg, traj, reduced, report


@pytest.fixture(scope="session")
def fig16_deep():
    # the default system threshold stops before the zero sequence of w has
    # built up; the interval statistics need a deeper window
    nl = bo.make_nonlinearity("cubic", epsilon=0.1)
    params = systems.MiosystParams(beta=-1.0, delta=1.0)
    cfg = bo.IntegratorConfig(t_end=10.0, blowup_threshold=1e12)
    traj = systems.integrate_miosyst(params, nl, [1.0, 1.0, 0.0, -1.0], cfg)
    reduced = systems.to_fourth_order(params, nl, traj)
    report = bo.detect_blowup(reduced)
    return params, nl, cfg, traj, reduced, report
