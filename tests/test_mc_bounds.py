"""The three simulators against exact position laws within a TV bound that
holds with probability 1 - delta per check (``oracles.mc_tv_bound``, delta =
1e-6), on an environment of two distinct geometric tails, so that the
walks' per-tail draws are gathered and the extended map steps one group per
tail.  The checks here are 7, so correct simulators fail one of them with
probability at most 7e-6.  A walk on a nearby environment must fail the
same bound (negative control)."""

import numpy as np
import pytest

import walklab as wl
from oracles import mc_tv_bound

DELTA = 1e-6
PATHS = 200_000
N = 50
TIMES = [10, 25, N]


@pytest.fixture(scope="module")
def two_tail_env():
    """iid geometric sites with r in {0.3, 0.7}."""
    model = wl.RandomEnvModel(kind="iid", family="geometric", seed=5, choices=(0.3, 0.7))
    env = wl.sample_environment(model, N, tail_tol=1e-14).environment
    assert len(env.tails) == 2
    return env


def assert_within_bound(env, t, counts, paths, flagged=0.0):
    exact = wl.position_distribution(env, t)
    tv = wl.tv_distance(exact, counts, paths)
    # X_t lies in 0..t
    assert tv <= mc_tv_bound(t + 1, paths, DELTA, exact.deficit, flagged)


@pytest.mark.parametrize("method,times", [("sojourn", None), ("sojourn", TIMES),
                                          ("chain", None)])
def test_walks_within_the_tv_bound(two_tail_env, method, times):
    sample = wl.simulate_paths(two_tail_env, wl.McConfig(PATHS, N, seed=41),
                               method=method, times=times)
    assert_within_bound(two_tail_env, N, sample.endpoint_counts(), PATHS)
    for i, t in enumerate(times or []):
        assert_within_bound(two_tail_env, t, np.bincount(sample.x_at_times[:, i]), PATHS)


def test_extended_map_within_the_tv_bound(two_tail_env):
    sample = wl.simulate_trajectories(two_tail_env, wl.TrajectoryConfig(PATHS, N, seed=43))
    assert_within_bound(two_tail_env, N, sample.cell_counts[N], sample.contributing[N],
                        flagged=sample.flagged / PATHS)


def test_nearby_environment_fails_the_tv_bound():
    # r = 0.505 against the exact r = 0.5 law: the laws are 0.028 apart in TV
    # at n = 50, the bound is 0.011
    exact = wl.position_distribution(wl.env_geometric(0.5, N, tail_tol=1e-14), N)
    sample = wl.simulate_paths(wl.env_geometric(0.505, N, tail_tol=1e-14),
                               wl.McConfig(PATHS, N, seed=47))
    tv = wl.tv_distance(exact, sample.endpoint_counts(), PATHS)
    assert tv > mc_tv_bound(N + 1, PATHS, DELTA, exact.deficit)
