"""Batched lsv backward orbits: a tail built alone equals the same tail built
inside a batch bit for bit, every tail stays within 1e-14 (relative) of the
scalar Newton loop with the same length, and the paper's quenched
intermittent setting passes a local-limit and a walk-versus-map check."""

import math

import numpy as np
import pytest

import walklab as wl
import walklab.environment as env_mod
from walklab.environment import _LONE_ORBITS, _ORBIT_REL_TOL, _lsv_tails


def scalar_tail(params, n_cap, tail_tol):
    """The per-value orbit loop the batch replaced (Python floats), kept as
    the reference."""
    kappa, alpha = params.kappa, params.alpha
    slope = kappa * (alpha + 1.0)

    def invert(target):
        y = target
        excess = (y - target) + kappa * y ** (alpha + 1.0)
        while True:
            step = excess / (1.0 + slope * y ** alpha)
            if step <= _ORBIT_REL_TOL * y:
                return y - step if step > 0.0 else y
            y -= step
            excess = (y - target) + kappa * y ** (alpha + 1.0)

    values = [1.0, params.c]
    while values[-1] > tail_tol and len(values) - 1 < n_cap:
        values.append(invert(values[-1]))
    return np.array(values), invert(values[-1]), values[-1] > tail_tol


def assert_same_bits(a, b):
    assert a.values.tobytes() == b.values.tobytes()
    assert np.float64(a.deficit).tobytes() == np.float64(b.deficit).tobytes()
    assert a.cap_reached == b.cap_reached


def test_site_built_alone_equals_site_built_in_batch():
    model = wl.RandomEnvModel(kind="iid", family="lsv", seed=11, low=0.2, high=0.45)
    batch = wl.sample_environment(model, 60, tail_tol=1e-6).environment
    grown = wl.sample_environment(model, 3, tail_tol=1e-6).environment
    grown.ensure(60)  # sites 4..60 built by one factory call, a batch of their own
    assert len(batch.tails) == 61
    for x in range(61):
        assert_same_bits(grown.site(x), batch.site(x))


@pytest.mark.parametrize("n_cap, tail_tol", [(100_000, 1e-7), (40, 1e-10), (1, 1e-3)])
def test_lsv_tail_sequence_equals_its_batch_lane(n_cap, tail_tol):
    params = [wl.LsvParams.from_alpha_c(a, c) for a in (0.2, 0.27, 0.33, 0.45)
              for c in (0.3, 0.5, 0.8)]
    assert len(params) >= _LONE_ORBITS  # stepped as one batch
    batch = _lsv_tails(params, n_cap, tail_tol)
    for p, tail in zip(params, batch):
        assert_same_bits(wl.lsv_tail_sequence(p, n_cap, tail_tol), tail)


@pytest.mark.parametrize("count", [_LONE_ORBITS - 1, _LONE_ORBITS + 1])
def test_last_live_orbits_continue_alone(count, monkeypatch):
    # fewer than _LONE_ORBITS orbits are stepped alone from c_1; a larger call
    # hands its last live orbits to the lone loop mid-orbit, once two have
    # stopped, and every tail keeps the bits of an orbit stepped alone
    starts = []
    lone = env_mod._lone_steps
    monkeypatch.setattr(env_mod, "_lone_steps",
                        lambda p, y, k, *rest: starts.append(k) or lone(p, y, k, *rest))
    params = [wl.LsvParams.from_alpha_c(float(a), 0.5) for a in np.linspace(0.2, 0.4, count)]
    tails = _lsv_tails(params, 100_000, 1e-7)
    assert len(starts) == _LONE_ORBITS - 1
    assert all(k == 1 for k in starts) if count < _LONE_ORBITS else min(starts) > 1
    for p, tail in zip(params, tails):
        assert_same_bits(tail, wl.lsv_tail_sequence(p, 100_000, 1e-7))


@pytest.mark.parametrize("n_cap, tail_tol", [(100_000, 1e-10), (25, 1e-10), (1, 0.5)])
def test_batch_matches_scalar_loop(n_cap, tail_tol):
    # numpy's pow and Python's ** may differ in the last ulp, so values agree
    # to a few ulps, and every orbit has the same length and cap flag
    alphas = np.linspace(0.2, 0.35, 23)
    params = [wl.LsvParams.from_alpha_c(float(a), 0.5) for a in alphas]
    for p, tail in zip(params, _lsv_tails(params, n_cap, tail_tol)):
        values, deficit, capped = scalar_tail(p, n_cap, tail_tol)
        assert tail.values.size == values.size and tail.cap_reached == capped
        np.testing.assert_allclose(tail.values, values, rtol=1e-14, atol=0)
        assert tail.deficit == pytest.approx(deficit, rel=1e-14, abs=0)


def test_quenched_lsv_llt_and_extended_map():
    """The paper's setting: an i.i.d. intermittent environment, alpha uniform
    on [0.2, 0.35].  sup_err_scaled falls along n, and the extended map's
    position law matches the walk's exact law in TV."""
    model = wl.RandomEnvModel(kind="iid", family="lsv", seed=3, low=0.2, high=0.35)
    env = wl.sample_environment(model, 1200, tail_tol=1e-8).environment
    diag = wl.diagnostics(env, env.model["beta_diag"])
    params = wl.fit_limit_params(diag).params
    sups = []
    for n in (250, 500, 1000):
        rep = wl.llt_report(env, params, diag, n, trunc_tol=1e-10, deficit_budget=1e-4)
        assert math.isfinite(rep.sup_err_scaled)
        sups.append(rep.sup_err_scaled)
    assert sups[0] > sups[1] > sups[2]

    traj = wl.simulate_trajectories(env, wl.TrajectoryConfig(paths=20_000, horizon=250, seed=1907),
                                    times=[50, 250])
    for n in (50, 250):
        exact = wl.position_distribution(env, n, trunc_tol=1e-10, deficit_budget=1e-4)
        tv = wl.tv_distance(exact, traj.cell_counts[n], traj.contributing[n])
        assert tv <= wl.mc_tv_tolerance(n, traj.contributing[n]), (n, tv)
