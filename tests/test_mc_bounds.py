"""The three simulators against exact position laws within a TV bound that
holds with probability 1 - delta per check (``oracles.mc_tv_bound``, delta =
1e-6), on an environment of two distinct geometric tails, so that the
walks' per-tail draws are gathered and the extended map steps one group per
tail.  On the power-law beta = 3 walk at n = 200, whose 201 outcomes make
the TV bound loose, the chain walk's endpoint CDF is held to the DKW bound
(``oracles.mc_ks_bound``) instead.  The checks here are 8, so correct
simulators fail one of them with probability at most 8e-6.  A walk on a
nearby environment must fail each bound (negative controls)."""

import numpy as np
import pytest

import walklab as wl
from oracles import mc_ks_bound, mc_tv_bound

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


KS_PATHS = 20_000
KS_N = 200


@pytest.fixture(scope="module")
def powerlaw_law():
    """The beta = 3 power-law walk's exact position law at n = 200."""
    return wl.position_distribution(wl.env_from_powerlaw(3.0, KS_N, tail_tol=1e-10), KS_N)


def ks_distance(exact, counts, paths):
    """sup_x |F_hat(x) - F(x)| over x = 0..n for counts indexed from 0."""
    law = np.zeros(KS_N + 1)
    law[exact.offset : exact.end + 1] = exact.probs
    emp = np.zeros(KS_N + 1)
    emp[: counts.size] = counts / paths
    return float(np.abs(np.cumsum(emp) - np.cumsum(law)).max())


def test_chain_walk_within_the_ks_bound(powerlaw_law):
    env = wl.env_from_powerlaw(3.0, KS_N, tail_tol=1e-10)
    sample = wl.simulate_paths(env, wl.McConfig(KS_PATHS, KS_N, seed=53), method="chain")
    ks = ks_distance(powerlaw_law, sample.endpoint_counts(), KS_PATHS)
    assert ks <= mc_ks_bound(KS_PATHS, DELTA, powerlaw_law.deficit)


def test_nearby_powerlaw_fails_the_ks_bound(powerlaw_law):
    # beta = 3.03 against the exact beta = 3 law: the laws are 0.041 apart in
    # Kolmogorov distance (and in TV) at n = 200; the DKW bound is 0.019, the
    # TV bound 0.062, so only the DKW check tells the two apart
    env = wl.env_from_powerlaw(3.03, KS_N, tail_tol=1e-10)
    sample = wl.simulate_paths(env, wl.McConfig(KS_PATHS, KS_N, seed=59), method="chain")
    counts = sample.endpoint_counts()
    assert ks_distance(powerlaw_law, counts, KS_PATHS) > mc_ks_bound(
        KS_PATHS, DELTA, powerlaw_law.deficit)
    assert wl.tv_distance(powerlaw_law, counts, KS_PATHS) <= mc_tv_bound(
        KS_N + 1, KS_PATHS, DELTA, powerlaw_law.deficit)
