"""The simulators rank every key of a step in its site's table of one
guide; ``oracles`` steps the same draws site by site.  The chain walk and
the extended map must reproduce those loops bit for bit, the chain walk,
the sojourn method and the map keep their recorded bytes, a run of several
tails sorts nothing, and no simulator may read an environment past the
sites a run needs."""

import dataclasses
import hashlib
import warnings
from functools import partial

import numpy as np
import pytest

import walklab as wl
from walklab import dynsys, streams, walk
from walklab.streams import CHUNK
from oracles import chain_chunk_per_site, level_states_per_site, step_batch_per_site


# ---------------------------------------------------------------------------
# helpers
# ---------------------------------------------------------------------------

def assert_identical(a, b):
    """Equal values of equal types, arrays down to their dtype."""
    assert type(a) is type(b)
    if isinstance(a, np.ndarray):
        assert a.dtype == b.dtype and a.shape == b.shape
        np.testing.assert_array_equal(a, b)
    elif isinstance(a, dict):
        assert a.keys() == b.keys()
        for key in a:
            assert_identical(a[key], b[key])
    elif isinstance(a, (list, tuple)):
        assert len(a) == len(b)
        for u, v in zip(a, b):
            assert_identical(u, v)
    elif dataclasses.is_dataclass(a):
        for f in dataclasses.fields(a):
            assert_identical(getattr(a, f.name), getattr(b, f.name))
    else:
        assert a == b


def two_point_env(sites):
    """Tails alternating at random between two exponents, as `--choices` builds."""
    model = wl.RandomEnvModel(kind="iid", family="powerlaw", seed=17, choices=(2.5, 3.5))
    return wl.sample_environment(model, sites - 1, tail_tol=1e-6).environment


def alternating_lossy_env(sites):
    """Two coarse tails in turn: draws fall in the deficit and paths get flagged."""
    a = wl.TailSequence([1.0, 0.6, 0.3], deficit=0.1)
    b = wl.TailSequence([1.0, 0.5], deficit=0.2)
    return wl.Environment([a, b] * (sites // 2) + [a] * (sites % 2))


def geometric_env(sites):
    """One geometric r = 0.5 tail at every site, coarse enough to flag paths."""
    return wl.env_geometric(0.5, sites - 1, tail_tol=1e-3)


def zero_width_env(sites):
    """One tail whose deficit equals its last value, so level 2 is empty; 40%
    of the points fall below it at each site, and by t = 30 every path of
    both chunks is flagged."""
    return wl.Environment([wl.TailSequence([1.0, 0.5, 0.4], deficit=0.4)] * sites)


def powerlaw_env(sites):
    """The beta = 3 power-law tail (2155-atom sojourns) at every site."""
    return wl.env_from_powerlaw(3.0, sites - 1, tail_tol=1e-10)


class WatchedEnvironment(wl.Environment):
    """Records the largest site index read or ensured."""

    reach = -1

    def ensure(self, x_max):
        self.reach = max(self.reach, x_max)
        super().ensure(x_max)

    def site(self, x):
        self.reach = max(self.reach, x)
        return super().site(x)


# ---------------------------------------------------------------------------
# tests
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("make_env", [two_point_env, alternating_lossy_env, geometric_env])
@pytest.mark.parametrize("record", ["endpoint-only", "full-path"])
def test_grouped_chain_matches_per_site_oracle(monkeypatch, make_env, record):
    horizon = 30
    env = make_env(horizon + 1)
    assert len(env.tails) == (1 if make_env is geometric_env else 2)
    # two chunks, so the stream of the second one is checked too
    cfg = wl.McConfig(paths=CHUNK + 900, horizon=horizon, seed=29, record=record)
    grouped = wl.simulate_paths(env, cfg, method="chain", times=[4, 17, 30])
    monkeypatch.setattr(walk, "_chain_chunk", lambda cfg, rng, size, times, draw:
                        chain_chunk_per_site(env, cfg, rng, size, times))
    per_site = wl.simulate_paths(env, cfg, method="chain", times=[4, 17, 30])
    assert_identical(grouped, per_site)
    if make_env is not two_point_env:
        assert grouped.truncated_draws > 0


# ids name the simulator's arithmetic, double precision
@pytest.mark.parametrize("make_env", [two_point_env, alternating_lossy_env, geometric_env,
                                      zero_width_env], ids=lambda make: f"double-{make.__name__}")
def test_grouped_trajectories_match_per_site_oracle(monkeypatch, make_env):
    horizon = 30
    env = make_env(horizon + 1)
    cfg = wl.TrajectoryConfig(paths=CHUNK + 900, horizon=horizon, seed=31)
    kwargs = dict(times=[0, 9, 30], levels=True, keep_positions_at=[9])
    with warnings.catch_warnings():
        warnings.simplefilter("error")  # e.g. no division by an empty level's width
        grouped = wl.simulate_trajectories(env, cfg, **kwargs)
    monkeypatch.setattr(dynsys, "_step_batch",
                        lambda run, u, alive: step_batch_per_site(env, u, alive))
    monkeypatch.setattr(dynsys, "_level_states",
                        lambda run, u: level_states_per_site(env, u))
    per_site = wl.simulate_trajectories(env, cfg, **kwargs)
    assert_identical(grouped, per_site)
    if make_env is not two_point_env:
        assert grouped.flagged > 0
    if make_env is zero_width_env:
        assert grouped.contributing[30] == 0 < grouped.contributing[9]


def test_step_batch_freezes_flagged_points():
    # the batch steps every path: already flagged points must keep their value
    # and flag, as in the per-site loop that steps only the live ones
    env = alternating_lossy_env(8)
    run = dynsys._level_tables(env, 7)
    rng = np.random.default_rng(5)
    u = 7.0 * rng.random(3000)
    alive = rng.random(3000) < 0.7
    grouped = dynsys._step_batch(run, u.copy(), alive.copy())
    per_site = step_batch_per_site(env, u.copy(), alive.copy())
    assert_identical(grouped, per_site)
    assert np.count_nonzero(alive & ~grouped[1]) > 0  # some live points were flagged


def plain_rank(self, keys, tails=0, out=None):
    """Guide.rank by searchsorted on every key (a raw word as the double
    Generator.random makes of it) in its table ``tails``, into ``out`` if
    given, clipped to [lo, hi], with the flat indices of the clipped ranks."""
    if keys.dtype == np.uint64:
        keys = (keys >> 11) * 2.0**-53
    of = np.broadcast_to(tails, keys.shape)
    ranks = np.empty(keys.shape, dtype=np.intp)
    for t, values in enumerate(self.values):
        ranks[of == t] = np.searchsorted(values, keys[of == t], side="right")
    hi = self.hi[of]
    clipped = np.flatnonzero((ranks < self.lo) | (ranks > hi))
    np.clip(ranks, self.lo, hi, out=ranks)
    if out is None:
        return ranks, clipped
    out[...] = ranks
    return out, clipped


@pytest.mark.parametrize("make_env", [alternating_lossy_env, powerlaw_env])
@pytest.mark.parametrize("method,record,times", [
    ("sojourn", "endpoint-only", None),
    ("sojourn", "endpoint-only", [4, 17, 30]),
    ("sojourn", "hitting-times", None),
    ("chain", "endpoint-only", None),
    ("chain", "full-path", None),
])
def test_guide_tables_match_searchsorted(monkeypatch, make_env, method, record, times):
    # the walks invert each tail's CDF through a guide table; with the lookup
    # put back to plain searchsorted every output, truncated draws included,
    # must stay the same bit for bit
    horizon = 30
    env = make_env(horizon + 1)
    cfg = wl.McConfig(paths=CHUNK + 900, horizon=horizon, seed=37, record=record)
    batches = []
    rank = streams.Guide.rank
    monkeypatch.setattr(streams.Guide, "rank", lambda self, keys, tails=0, out=None:
                        batches.append(keys.size) or rank(self, keys, tails, out=out))
    guided = wl.simulate_paths(env, cfg, method=method, times=times)
    assert max(batches) >= streams._GUIDED_MIN_KEYS  # the tables answered
    monkeypatch.setattr(streams.Guide, "rank", plain_rank)
    plain = wl.simulate_paths(env, cfg, method=method, times=times)
    assert_identical(guided, plain)
    if make_env is alternating_lossy_env:
        assert guided.truncated_draws > 0


@pytest.mark.parametrize("method,record,sites", [
    ("chain", "endpoint-only", 41),
    ("sojourn", "endpoint-only", 41),
    ("sojourn", "hitting-times", 40),
    ("dynsys", None, 41),
])
def test_finite_environment_read_only_up_to_the_horizon(method, record, sites):
    # a file environment has no generator: a run may use sites 0..horizon
    # (0..horizon-1 for hitting times) and must not reach any further
    horizon = 40
    full = two_point_env(sites)
    env = WatchedEnvironment(full.sites(), model=full.model)
    if method == "dynsys":
        wl.simulate_trajectories(env, wl.TrajectoryConfig(paths=3000, horizon=horizon, seed=3),
                                 levels=True)
    else:
        cfg = wl.McConfig(paths=3000, horizon=horizon, seed=3, record=record)
        wl.simulate_paths(env, cfg, method=method,
                          times=[10, horizon] if record == "endpoint-only" else None)
    assert env.reach == sites - 1


def sample_digest(sample):
    h = hashlib.sha256()
    for key in ("x_final", "y_final", "x_at_times", "hitting", "full_x", "full_y"):
        value = getattr(sample, key)
        if value is not None:
            h.update(key.encode() + value.astype(np.int64).tobytes())
    h.update(str(sample.truncated_draws).encode())
    return h.hexdigest()


# sha256 of the sojourn method's records, recorded before the simulator summed
# narrow blocks row by row; 3000 and 2000 paths start in blocks of 21 and 32
# sites, 200 and 150 paths in blocks of 327 and 200 (``walk._ROW_SUMS_WIDTH``)
SOJOURN_DIGESTS = {
    (3, "endpoint", 3000):
        "3db1cd2a8b77e8be35bb66eee85c81657bcc9bd5e461e4ce234eb68dc1dee495",
    (3, "endpoint", 200):
        "f4a5863c7c9910f066b97c1dd983b3a369f5ac8e46189ab3742b43e0119aa450",
    (3, "hitting", 2000):
        "efe44fa626fbbaa4b081cb54d64d562717b7243ceb0959f7159c3e9192fb981a",
    (3, "hitting", 150):
        "40f50c5957af97f062090e7ff3ef2332b87487e264887a743df8cf3f4272fba6",
    (11, "endpoint", 3000):
        "13037d79e8c6db47c4175d516d90a02e78d88302dc04076655df00918704de91",
    (11, "endpoint", 200):
        "fc088b345065580f226f6e681e9f8cca257addb6c8f0035ee1ba8d8ca625a8bb",
    (11, "hitting", 2000):
        "3479ac818d8269c33d35ccc25926c5acfae7479b7caa79df655325505cf71c92",
    (11, "hitting", 150):
        "48749ff31123ff4c22fcc5ad42525fa99c3968f4c01816c24c0f90b856660f5f",
}


@pytest.mark.parametrize("seed,record,paths", list(SOJOURN_DIGESTS))
def test_sojourn_records_keep_their_bytes(seed, record, paths):
    if record == "endpoint":  # checkpoints, endpoints and levels
        env = two_point_env(201)
        cfg = wl.McConfig(paths=paths, horizon=150, seed=seed)
        times = [10, 60, 150]
    else:  # the lossy tails put truncated draws in the digest
        env = alternating_lossy_env(201)
        cfg = wl.McConfig(paths=paths, horizon=200, seed=seed, record="hitting-times")
        times = None
    sample = wl.simulate_paths(env, cfg, method="sojourn", times=times)
    assert sample_digest(sample) == SOJOURN_DIGESTS[seed, record, paths]


# sha256 of the chain method's records, recorded when each step came to hand
# its words to the jumping paths in path order
CHAIN_DIGESTS = {
    (5, "endpoint"):
        "393675c051b00c29f639c55f24fe66aef2ac94396aceda816d2d5021c1cf887e",
    (5, "full-path"):
        "634d730e40fc5e09cc2d04f67132ee2c98ce182fda3ca2da5c1a00dd33d24aa2",
    (13, "endpoint"):
        "f82a9d304df3c75d88dae406adea9dcf64a31fd2b379313efff174aae0e06fe3",
    (13, "full-path"):
        "bfcc139c94db49a49adea41446fd391e892a16b390ebbc21da249d3b676b2e47",
}


@pytest.mark.parametrize("seed,record", list(CHAIN_DIGESTS))
def test_chain_records_keep_their_bytes(seed, record):
    if record == "endpoint":  # checkpoints, endpoints and levels
        env = two_point_env(151)
        cfg = wl.McConfig(paths=3000, horizon=150, seed=seed)
        times = [10, 60, 150]
    else:  # every site and level, and the lossy tails' truncated draws
        env = alternating_lossy_env(201)
        cfg = wl.McConfig(paths=2000, horizon=200, seed=seed, record="full-path")
        times = None
    sample = wl.simulate_paths(env, cfg, method="chain", times=times)
    assert sample_digest(sample) == CHAIN_DIGESTS[seed, record]


def trajectory_digest(sample):
    h = hashlib.sha256()
    for t in sample.times.tolist():
        h.update(sample.cell_counts[t].astype(np.int64).tobytes())
        for part in sample.level_counts[t]:
            h.update(part.astype(np.int64).tobytes())
        h.update(str(sample.contributing[t]).encode())
    for t, positions in sample.positions.items():
        h.update(str(t).encode() + positions.tobytes())
    h.update(str(sample.flagged).encode())
    return h.hexdigest()


# sha256 of the extended map's histograms, kept positions and flags.  The
# geometric r = 0.5 ones were recorded when the top level had its own image
# 1 + (f - omega_1) / (1 - omega_1), which rounds as the general formula does
# where 1 / (1 - omega_1) is exact; the others when every level came to map
# by ext[y] + slope[y] (f - ext[y+1]).
TRAJECTORY_DIGESTS = {
    ("geometric_env", 5):
        "cd03b19685f03299c0df2db5076268add5f39811084c60aaf054167ad1a02a00",
    ("geometric_env", 13):
        "aaf8a3d14f117cd0f1624522def3c86e7b58f8c934c51355e614fc4d5a7cba67",
    ("two_point_env", 5):
        "4538a212534678c9b8b8b708a00c4c66c352952e93e6fcdc502b019121a15ef5",
    ("two_point_env", 13):
        "534b5e795f7290f7d1cb5064d1510bb935aa73b8668128f5dfe7e2f7935bcbe9",
    ("powerlaw_env", 5):
        "cc08498931a407eb8bf91d8d2703194dcf3e6b397fd06d4221650d1665576beb",
    ("powerlaw_env", 13):
        "afb777ffbbbcf6c618acf904345b9cd7bf0035d7cbcbfef9316f41d78bac40e6",
}


@pytest.mark.parametrize("make_env,seed", list(TRAJECTORY_DIGESTS))
def test_trajectory_records_keep_their_bytes(make_env, seed):
    env = globals()[make_env](31)
    cfg = wl.TrajectoryConfig(paths=3000, horizon=30, seed=seed)
    sample = wl.simulate_trajectories(env, cfg, times=[5, 15, 30], levels=True,
                                      keep_positions_at=[30])
    assert trajectory_digest(sample) == TRAJECTORY_DIGESTS[make_env, seed]
    assert (sample.flagged > 0) == (make_env == "geometric_env")


@pytest.mark.parametrize("method", ["chain", "sojourn", "dynsys"])
def test_two_tail_runs_sort_nothing(monkeypatch, method):
    # every key is ranked in its own site's table: a run of several tails
    # sorts no batch of keys by tail
    env = two_point_env(51)
    assert len(env.tails) == 2
    calls = []
    argsort = np.argsort
    monkeypatch.setattr(np, "argsort", lambda *args, **kwargs:
                        calls.append(1) or argsort(*args, **kwargs))
    if method == "dynsys":
        sample = wl.simulate_trajectories(env, wl.TrajectoryConfig(paths=3000, horizon=50, seed=23),
                                          times=[10, 50], levels=True)
        assert sample.contributing[50] == 3000
    else:
        sample = wl.simulate_paths(env, wl.McConfig(paths=3000, horizon=50, seed=23),
                                   method=method)
        assert sample.x_final.size == 3000
    assert not calls


@pytest.mark.parametrize("method", ["chain", "sojourn", "dynsys"])
def test_tails_past_the_reach_leave_the_outputs(monkeypatch, method):
    # the sites past a run's reach carry new, longer tails; tails are numbered
    # in order of first appearance, so the run builds the tables of tails
    # 0..max of the sites it reaches only, and gives the outputs of the cut env
    module = dynsys if method == "dynsys" else walk
    guide, tables = module.Guide, []
    monkeypatch.setattr(module, "Guide", lambda values, **kwargs:
                        tables.append(len(values)) or guide(values, **kwargs))
    horizon = 30
    cut = two_point_env(horizon + 1)
    longer = [wl.geometric_tail_sequence(r, tail_tol=1e-12) for r in (0.9, 0.95)]
    env = wl.Environment(cut.sites() + longer * 3)
    assert len(cut.tails) == 2 and len(env.tails) == 4
    if method == "dynsys":
        cfg = wl.TrajectoryConfig(paths=3000, horizon=horizon, seed=23)
        run = partial(wl.simulate_trajectories, cfg=cfg, times=[5, 15, 30], levels=True,
                      keep_positions_at=[30])
    else:
        cfg = wl.McConfig(paths=3000, horizon=horizon, seed=23)
        run = partial(wl.simulate_paths, cfg=cfg, method=method, times=[9, 30])
    assert_identical(run(env), run(cut))
    assert tables == [2, 2]
