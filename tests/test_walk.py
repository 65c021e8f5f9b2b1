import itertools
import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import walklab as wl
from walklab import walk
from walklab.errors import DeficitBudgetError, ValidationError
from walklab.streams import CHUNK, stream
from walklab.walk import _BLOCK, _state_counts, hitting_time_scan
from oracles import sample_sojourn


# ---------------------------------------------------------------------------
# distributions
# ---------------------------------------------------------------------------

def test_distribution_canonical_trimming():
    d = wl.DiscreteDistribution(offset=3, probs=np.array([0.0, 0.5, 0.5, 0.0]))
    assert d.offset == 4
    assert d.end == 5
    assert d.mass() == 1.0


def test_distribution_validation():
    with pytest.raises(ValidationError):
        wl.DiscreteDistribution(0, np.array([0.5, -0.1, 0.6]))
    with pytest.raises(ValidationError):
        wl.DiscreteDistribution(0, np.array([0.5, 0.4]))  # mass gap
    with pytest.raises(ValidationError):
        wl.DiscreteDistribution(0, np.array([0.0, 0.0]))
    # a NaN atom, deficit or beyond makes the total NaN, which is refused
    with pytest.raises(ValidationError):
        wl.DiscreteDistribution(0, np.array([0.5, np.nan, 0.5]))
    with pytest.raises(ValidationError):
        wl.DiscreteDistribution(0, np.array([0.5, 0.5]), deficit=np.nan)
    with pytest.raises(ValidationError):
        wl.DiscreteDistribution(0, np.array([0.5, 0.5]), beyond=np.nan)


def test_convolve_trims_contiguous_tail_into_deficit():
    a = wl.DiscreteDistribution(1, np.array([0.5, 0.3, 0.15, 0.05]))
    b = a.convolve(a, trunc_tol=0.01)
    assert b.offset == 2
    # support stays contiguous and trimmed mass is accounted exactly
    assert abs(b.mass() + b.deficit - 1.0) < 1e-12
    assert 0.0 < b.deficit <= 0.01
    full = np.convolve(a.probs, a.probs)
    np.testing.assert_allclose(b.probs, full[: b.probs.size], rtol=0, atol=0)


def test_convolve_clips_to_horizon_as_exact_mass():
    a = wl.DiscreteDistribution(1, np.array([0.5, 0.3, 0.15, 0.05]))
    full = np.convolve(a.probs, a.probs)
    b = a.convolve(a, horizon=4)
    assert (b.offset, b.end, b.deficit) == (2, 4, 0.0)
    np.testing.assert_array_equal(b.probs, full[:3])
    assert b.beyond == pytest.approx(full[3:].sum(), abs=1e-16)
    # a trim counts the mass beyond as part of the tail, as the full law does:
    # no trim below beyond = 0.2025, and at horizon 7 the top atom 0.015 plus
    # beyond = 0.0025 exceeds 0.016, so it stays
    assert a.convolve(a, trunc_tol=0.02, horizon=4).probs.size == 3
    np.testing.assert_array_equal(a.convolve(a, trunc_tol=0.016, horizon=7).probs,
                                  a.convolve(a, trunc_tol=0.016).probs)
    # every atom lies beyond the horizon: one zero atom carries the offset
    c = a.convolve(a, horizon=1)
    assert (c.offset, c.mass(), c.beyond) == (2, 0.0, 1.0)
    assert c.convolve(a, horizon=1).beyond == 1.0


# ---------------------------------------------------------------------------
# sojourn laws
# ---------------------------------------------------------------------------

def test_sojourn_pmf_exact_site(exact_site):
    pmf = wl.sojourn_pmf(exact_site)
    assert pmf.offset == 1
    np.testing.assert_allclose(pmf.probs, [0.5, 0.25, 0.25], atol=0)
    assert pmf.deficit == 0.0


def test_sojourn_pmf_geometric(geometric_env):
    pmf = wl.sojourn_pmf(geometric_env.site(0))
    n = np.arange(1, 8)
    np.testing.assert_allclose(pmf.probs[:7], 0.5**n, rtol=1e-15)


def test_sojourn_tail_identity(geometric_env):
    # P(tau >= n) = omega_{n-1}
    site = geometric_env.site(0)
    pmf = wl.sojourn_pmf(site)
    for n in (1, 2, 5, 10):
        tail = pmf.mass() - pmf.cdf_at(n - 1) + pmf.deficit
        assert tail == pytest.approx(site.values[n - 1], rel=1e-12)


def test_sample_sojourn_examples(geometric_env):
    site = geometric_env.site(0)
    assert sample_sojourn(site, 0.0) == (1, False)
    assert sample_sojourn(site, 0.6) == (2, False)
    n_last = site.last_index
    # boundary uniform 1 - omega_N starts the next half-open interval
    draw = sample_sojourn(site, 1.0 - site.values[n_last])
    assert draw == (n_last + 1, False)
    # deficit region maps to the last representable value with a flag
    draw = sample_sojourn(site, 1.0 - site.deficit / 2)
    assert draw == (n_last + 1, True)


def test_sample_sojourn_matches_pmf(geometric_env):
    site = geometric_env.site(0)
    rng = np.random.default_rng(0)
    u = rng.random(200_000)
    draws = np.array([sample_sojourn(site, v).n for v in u[:1000]])
    # distributional sanity at coarse scale
    assert np.mean(draws == 1) == pytest.approx(0.5, abs=0.05)
    assert np.mean(draws) == pytest.approx(2.0, abs=0.15)


# ---------------------------------------------------------------------------
# hitting-time laws
# ---------------------------------------------------------------------------

def test_hitting_time_x0_is_point_mass(geometric_env):
    for trunc_tol in (wl.walk.DEFAULT_TRUNC_TOL, 0.0):
        d = wl.hitting_time_distribution(geometric_env, 0, trunc_tol)
        assert d.offset == 0 and d.probs.size == 1 and d.probs[0] == 1.0
        assert d.deficit == d.beyond == 0.0


def test_hitting_time_geometric_closed_form(geometric_env):
    # T_x is a sum of x independent dyadic geometrics: P(T_x = k) = C(k-1, x-1) 2^-k
    for x in (2, 5):
        d = wl.hitting_time_distribution(geometric_env, x, trunc_tol=0.0)
        ks = d.support[:40]
        oracle = np.array([math.comb(k - 1, x - 1) * 0.5**k for k in ks])
        np.testing.assert_allclose(d.probs[:40], oracle, rtol=1e-12)
    d2 = wl.hitting_time_distribution(geometric_env, 2, trunc_tol=0.0)
    assert d2.prob_at(2) == pytest.approx(0.25, abs=1e-15)
    assert d2.prob_at(3) == pytest.approx(0.25, abs=1e-15)
    assert d2.prob_at(4) == pytest.approx(3.0 / 16.0, abs=1e-15)


def test_hitting_time_moments_match_diagnostics(geometric_env):
    x = 20
    diag = wl.diagnostics(geometric_env, 3.0)
    d = wl.hitting_time_distribution(geometric_env, x, trunc_tol=1e-14)
    slack = 1e-8 + d.deficit * (d.end + 1)
    assert abs(d.mean() - diag.mu[x]) <= slack
    assert abs(d.variance() - diag.sigma2[x]) <= 1e-6


def test_hitting_time_matches_brute_force_enumeration(geometric_env):
    # sojourns clipped to {1..6}; exhaustive enumeration over tuples
    clipped = wl.TailSequence(geometric_env.site(0).values[:6],
                              deficit=geometric_env.site(0).values[6])
    env = wl.Environment([clipped] * 4)
    x = 3
    pmf = wl.sojourn_pmf(clipped)
    table = {}
    for combo in itertools.product(range(1, 7), repeat=x):
        table[sum(combo)] = table.get(sum(combo), 0.0) + np.prod(
            [pmf.prob_at(v) for v in combo]
        )
    d = wl.hitting_time_distribution(env, x, trunc_tol=0.0, deficit_budget=1.0)
    for k, p in table.items():
        assert abs(d.prob_at(k) - p) < 1e-12


def test_deficit_budget_enforced(geometric_env):
    with pytest.raises(DeficitBudgetError):
        wl.hitting_time_distribution(geometric_env, 40, trunc_tol=1e-4,
                                     deficit_budget=1e-6)


@pytest.mark.parametrize("budget", [math.nan, -1e-6])
def test_deficit_budget_must_be_non_negative(geometric_env, budget):
    # NaN would switch the budget off, a negative one fail at site 1 as exceeded
    with pytest.raises(ValidationError, match="deficit_budget must be >= 0"):
        next(hitting_time_scan(geometric_env, 40, 1e-4, budget))


@pytest.mark.parametrize("x, trunc_tol, budget, message", [
    (-1, 1e-4, 1e-6, "x must be >= 0"),
    (40, 2.0, 1e-6, "trunc_tol must lie in"),
    (40, -1.0, 1e-6, "trunc_tol must lie in"),
    (40, math.nan, 1e-6, "trunc_tol must lie in"),
    (40, 1e-4, math.nan, "deficit_budget must be >= 0"),
    (40, 1e-4, -1e-6, "deficit_budget must be >= 0"),
])
def test_hitting_laws_refuse_bad_input(geometric_env, x, trunc_tol, budget, message):
    with pytest.raises(ValidationError, match=message):
        wl.hitting_time_distribution(geometric_env, x, trunc_tol, budget)
    # clt_report's sites are max(1, round(n / mu)): only a time below 1 gives x < 1
    params = wl.LimitParams(mu=2.0, sigma2=2.0)
    n_grid, message = ([-2], "positive times") if x < 0 else ([2 * x], message)
    with pytest.raises(ValidationError, match=message):
        wl.clt_report(geometric_env, params, n_grid, trunc_tol, budget)


# ---------------------------------------------------------------------------
# position laws
# ---------------------------------------------------------------------------

def test_position_n0_point_mass(geometric_env):
    d = wl.position_distribution(geometric_env, 0)
    assert d.offset == 0 and d.probs.size == 1


def test_position_geometric_n2(geometric_env):
    d = wl.position_distribution(geometric_env, 2, trunc_tol=0.0)
    np.testing.assert_allclose(d.probs, [0.25, 0.5, 0.25], atol=1e-15)


def test_position_small_x_equals_tail(geometric_env):
    # P(X_n = 0) = omega^0_n
    d = wl.position_distribution(geometric_env, 7, trunc_tol=0.0)
    assert d.prob_at(0) == pytest.approx(0.5**7, rel=1e-12)


def test_position_support_and_mass(geometric_env, powerlaw_env):
    for env, n in ((geometric_env, 15), (powerlaw_env, 9)):
        d = wl.position_distribution(env, n, trunc_tol=1e-13)
        assert d.offset >= 0 and d.end <= n
        assert abs(d.mass() + d.deficit - 1.0) < 1e-9


def position_law_from_hitting_cdf(env, n, trunc_tol, deficit_budget=1e-6, stop_tol=None):
    """Unclipped oracle via {X_n = x} = {T_x <= n < T_{x+1}}:
    P(X_n = x) = P(T_x <= n) - P(T_{x+1} <= n)."""
    stop_tol = trunc_tol if stop_tol is None else stop_tol
    cdfs = []
    for _, dist in hitting_time_scan(env, n + 1, trunc_tol, deficit_budget):
        cdfs.append(dist.cdf_at(n))
        if cdfs[-1] < stop_tol:
            break
    cdfs.append(0.0)
    rows = np.maximum(0.0, -np.diff(np.array(cdfs)))
    return wl.DiscreteDistribution(0, rows, max(0.0, 1.0 - float(rows.sum())))


def test_position_two_routes_agree(geometric_env, powerlaw_env, lsv_env):
    # powerlaw_env is beta = 3: at n = 12 the clipped ladder keeps 13 of
    # about 10^4 sojourn atoms per site
    for env in (geometric_env, powerlaw_env, lsv_env):
        a = wl.position_distribution(env, 12, trunc_tol=1e-13)
        b = position_law_from_hitting_cdf(env, 12, trunc_tol=1e-13)
        lo = min(a.offset, b.offset)
        hi = max(a.end, b.end)
        for k in range(lo, hi + 1):
            assert abs(a.prob_at(k) - b.prob_at(k)) < 1e-11


def test_degenerate_env_walks_deterministically():
    site = wl.TailSequence(np.array([1.0, 1e-15]), deficit=0.0)
    env = wl.Environment([site] * 25)
    cfg = wl.McConfig(paths=200, horizon=20, seed=4)
    sample = wl.simulate_paths(env, cfg, method="sojourn")
    assert np.all(sample.x_final == 20)


# ---------------------------------------------------------------------------
# simulators
# ---------------------------------------------------------------------------

def test_mcconfig_validation():
    with pytest.raises(ValidationError):
        wl.McConfig(paths=0, horizon=5, seed=1)
    with pytest.raises(ValidationError):
        wl.McConfig(paths=1, horizon=5, seed=1, record="everything")


@pytest.mark.parametrize("record, method", [("hitting-times", "chain"),
                                            ("full-path", "sojourn")])
def test_record_needs_its_method(geometric_env, record, method):
    cfg = wl.McConfig(paths=5, horizon=4, seed=1, record=record)
    with pytest.raises(ValidationError, match="records require the"):
        wl.simulate_paths(geometric_env, cfg, method=method)


def test_simulators_reproducible(geometric_env):
    cfg = wl.McConfig(paths=5000, horizon=12, seed=11)
    a = wl.simulate_paths(geometric_env, cfg, method="chain")
    b = wl.simulate_paths(geometric_env, cfg, method="chain")
    np.testing.assert_array_equal(a.x_final, b.x_final)
    np.testing.assert_array_equal(a.y_final, b.y_final)
    other = wl.McConfig(paths=5000, horizon=12, seed=12)
    c = wl.simulate_paths(geometric_env, other, method="chain")
    assert not np.array_equal(a.x_final, c.x_final)


def test_endpoint_matches_exact_law(geometric_env):
    paths = 100_000
    cfg = wl.McConfig(paths=paths, horizon=2, seed=21)
    for method in ("chain", "sojourn"):
        sample = wl.simulate_paths(geometric_env, cfg, method=method)
        freq1 = np.mean(sample.x_final == 1)
        assert abs(freq1 - 0.5) < 3.0 * math.sqrt(0.25 / paths)


def test_chain_and_sojourn_agree_in_distribution(geometric_env):
    paths = 100_000
    n = 20
    cfg = wl.McConfig(paths=paths, horizon=n, seed=31)
    a = wl.simulate_paths(geometric_env, cfg, method="chain")
    b = wl.simulate_paths(geometric_env, cfg, method="sojourn")
    ca, cb = a.endpoint_counts(), b.endpoint_counts()
    size = max(ca.size, cb.size)
    ca = np.pad(ca, (0, size - ca.size)) / paths
    cb = np.pad(cb, (0, size - cb.size)) / paths
    tv = 0.5 * np.abs(ca - cb).sum()
    assert tv <= wl.mc_tv_tolerance(size, paths)
    # levels agree too: both simulators expose (x, y) endpoints
    _, ya, na = a.level_counts()
    _, yb, nb = b.level_counts()
    assert abs(np.average(ya, weights=na) - np.average(yb, weights=nb)) < 0.05


@pytest.mark.parametrize("size", [5000, 1, 0])
def test_state_counts_match_unique_rows(size):
    # one int64 key per state gives np.unique(axis=0)'s rows, order and dtypes
    rng = np.random.default_rng(size)
    x = rng.integers(0, 60, size)
    y = rng.integers(0, 40, size)
    width = int(y.max(initial=0)) + 1
    uniq, counts = np.unique(np.stack([x, y], 1), axis=0, return_counts=True)
    expected = (uniq[:, 0], uniq[:, 1], counts)
    for got, want in zip(_state_counts(x * width + y, width), expected):
        assert got.dtype == want.dtype
        np.testing.assert_array_equal(got, want)


def test_hitting_record_mean(geometric_env):
    paths = 20_000
    x = 12
    cfg = wl.McConfig(paths=paths, horizon=x, seed=41, record="hitting-times")
    sample = wl.simulate_paths(geometric_env, cfg)
    diag = wl.diagnostics(geometric_env, 3.0)
    emp = sample.hitting[:, x].mean()
    se = sample.hitting[:, x].std() / math.sqrt(paths)
    assert abs(emp - diag.mu[x]) <= 3.0 * se


def test_full_path_record(geometric_env):
    cfg = wl.McConfig(paths=50, horizon=10, seed=51, record="full-path")
    sample = wl.simulate_paths(geometric_env, cfg)
    assert sample.full_x.shape == (50, 11)
    # x is non-decreasing along every path and increments by at most 1
    steps = np.diff(sample.full_x, axis=1)
    assert steps.min() >= 0 and steps.max() <= 1
    # y decreases by exactly 1 between steps within a site
    same_site = steps == 0
    dy = np.diff(sample.full_y, axis=1)
    assert np.all(dy[same_site] == -1)


def test_checkpoint_records(geometric_env):
    # enough paths that each block spans few sites and paths drift apart
    cfg = wl.McConfig(paths=20_000, horizon=40, seed=61)
    times = [3, 10, 20, 40]
    sample = wl.simulate_paths(geometric_env, cfg, method="sojourn", times=times)
    assert sample.x_at_times.shape == (20_000, 4)
    assert np.all(np.diff(sample.x_at_times, axis=1) >= 0)
    np.testing.assert_array_equal(sample.x_at_times[:, -1], sample.x_final)
    # every checkpoint column follows the exact law of X_t
    for i, t in enumerate(times):
        exact = wl.position_distribution(geometric_env, t)
        tv = wl.tv_distance(exact, np.bincount(sample.x_at_times[:, i]), cfg.paths)
        assert tv <= wl.mc_tv_tolerance(exact.probs.size, cfg.paths)


@pytest.mark.parametrize("method", ["sojourn", "chain"])
def test_endpoints_recorded_when_times_leave_out_the_horizon(geometric_env, method):
    # every path runs to the horizon, so X and Y there are recorded whatever
    # the times, and equal those of a run without times
    cfg = wl.McConfig(paths=CHUNK + 500, horizon=12, seed=67)
    sample = wl.simulate_paths(geometric_env, cfg, method=method, times=[2, 3])
    plain = wl.simulate_paths(geometric_env, cfg, method=method)
    assert sample.x_at_times.shape == (cfg.paths, 2)
    assert sample.endpoint_counts().sum() == cfg.paths
    for key in ("x_final", "y_final"):
        got, want = getattr(sample, key), getattr(plain, key)
        assert got.dtype == want.dtype and got.tobytes() == want.tobytes()


def test_sojourn_draws_allocate_no_block_temporaries():
    # a chunk's memory is its draw buffer and each block's raw words, which
    # then hold the sums (16 bytes a key; four buffers took 25), and a few
    # path-length int64 arrays; ranking each block's draws outside its
    # buffers holds 512 KB temporaries on top
    env = wl.env_from_powerlaw(3.0, 200, tail_tol=1e-10)
    cfg = wl.McConfig(paths=CHUNK, horizon=200, seed=7)
    tracemalloc.start()
    try:
        sample = wl.simulate_paths(env, cfg, method="sojourn")
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert sample.x_final.size == CHUNK
    assert peak <= _BLOCK * (8 + 8 + 1 + 8) + 12 * CHUNK * 8


def test_chain_chunk_draws_one_word_per_entry_and_jump(monkeypatch):
    # a chain chunk takes one raw word for each path's entry draw and one for
    # each jump, truncated draws included, and no other: its generator's next
    # word is word size + #jumps of a fresh stream
    a = wl.TailSequence([1.0, 0.6, 0.3], deficit=0.1)
    b = wl.TailSequence([1.0, 0.5], deficit=0.2)
    env = wl.Environment([a, b] * 21)
    cfg = wl.McConfig(paths=3000, horizon=40, seed=19, record="full-path")
    generators = []
    monkeypatch.setattr(walk, "stream", lambda *key: generators.append(stream(*key))
                        or generators[-1])
    sample = wl.simulate_paths(env, cfg, method="chain")
    assert len(generators) == 1 and sample.truncated_draws > 0
    jumps = np.count_nonzero(np.diff(sample.full_x, axis=1))
    words = stream(19, "walk-mc", 0).bit_generator.random_raw(cfg.paths + jumps + 1)
    assert generators[0].bit_generator.random_raw() == words[-1]


def test_chain_walk_on_one_tail_sorts_nothing(monkeypatch):
    # each step hands its words to the jumping paths in path order: a run of
    # one tail makes no per-step sort of the jumping paths by site
    env = wl.env_from_powerlaw(3.0, 50, tail_tol=1e-10)
    calls = []
    argsort = np.argsort
    monkeypatch.setattr(np, "argsort", lambda *args, **kwargs:
                        calls.append(1) or argsort(*args, **kwargs))
    sample = wl.simulate_paths(env, wl.McConfig(paths=3000, horizon=50, seed=23),
                               method="chain")
    assert sample.x_final.size == 3000 and not calls


def test_truncated_draws_counted():
    # every hitting-times path draws one sojourn at each of the first H sites
    paths, sites = 2000, 10
    cfg = wl.McConfig(paths=paths, horizon=sites, seed=71, record="hitting-times")
    lossy = wl.Environment([wl.TailSequence([1.0, 0.5], deficit=0.25)] * sites)
    draws = paths * sites
    share = wl.simulate_paths(lossy, cfg).truncated_draws / draws
    assert abs(share - 0.25) <= 4.0 * math.sqrt(0.25 * 0.75 / draws)
    exact = wl.Environment([wl.TailSequence([1.0, 0.5], deficit=0.0)] * sites)
    assert wl.simulate_paths(exact, cfg).truncated_draws == 0


@pytest.mark.parametrize("method,times", [("sojourn", None), ("sojourn", [5, 20]),
                                          ("chain", None)])
def test_truncated_draws_count_only_used_draws(method, times):
    # a path uses one draw per site it enters, sites 0..X_n, whichever the
    # method; block draws made past a path's stop must not count
    paths, horizon = 3000, 20
    cfg = wl.McConfig(paths=paths, horizon=horizon, seed=73)
    lossy = wl.Environment([wl.TailSequence([1.0, 0.5], deficit=0.25)] * (horizon + 1))
    sample = wl.simulate_paths(lossy, cfg, method=method, times=times)
    used = int((sample.x_final + 1).sum())
    share = sample.truncated_draws / used
    assert abs(share - 0.25) <= 4.0 * math.sqrt(0.25 * 0.75 / used)
    exact = wl.Environment([wl.TailSequence([1.0, 0.5], deficit=0.0)] * (horizon + 1))
    assert wl.simulate_paths(exact, cfg, method=method, times=times).truncated_draws == 0


def test_tv_distance_helper():
    d = wl.DiscreteDistribution(0, np.array([0.5, 0.5]))
    counts = np.array([40, 60])
    assert wl.tv_distance(d, counts, 100) == pytest.approx(0.1)


# ---------------------------------------------------------------------------
# randomized properties
# ---------------------------------------------------------------------------

def random_tail(rng):
    length = rng.integers(2, 40)
    drops = rng.uniform(0.05, 1.0, size=length)
    vals = np.concatenate(([1.0], 1.0 * np.cumprod(1.0 - drops * rng.uniform(0.2, 0.9))))
    vals = np.unique(vals)[::-1]
    deficit = float(vals[-1] * rng.uniform(0.0, 1.0))
    return wl.TailSequence(vals, deficit=deficit)


def test_property_mass_conservation_through_convolutions():
    rng = np.random.default_rng(1234)
    for _ in range(25):
        sites = [random_tail(rng) for _ in range(8)]
        env = wl.Environment(sites)
        dist = wl.hitting_time_distribution(env, 4, trunc_tol=1e-9, deficit_budget=1.0)
        assert abs(dist.mass() + dist.deficit - 1.0) < 1e-9
        assert np.all(dist.probs >= 0.0)
        n = int(rng.integers(0, 8))
        pos = wl.position_distribution(env, n, trunc_tol=1e-9, deficit_budget=1.0)
        assert abs(pos.mass() + pos.deficit - 1.0) < 1e-9
        assert pos.end <= n


def test_property_sampler_consistent_with_pmf_intervals():
    rng = np.random.default_rng(99)
    for _ in range(10):
        site = random_tail(rng)
        pmf = wl.sojourn_pmf(site)
        cdf = np.concatenate(([0.0], np.cumsum(pmf.probs)))
        for u in rng.uniform(0.0, 1.0 - site.deficit - 1e-12, size=20):
            n, truncated = sample_sojourn(site, float(u))
            assert not truncated
            assert cdf[n - 1] <= u < cdf[n] + 1e-15


@st.composite
def small_environments(draw):
    """Up to 25 geometric or power-law sites with short stored tails."""
    tails = []
    for _ in range(draw(st.integers(1, 25))):
        if draw(st.booleans()):
            r = draw(st.floats(0.1, 0.8))
            tails.append(wl.geometric_tail_sequence(r, tail_tol=1e-8))
        else:
            beta = draw(st.floats(1.5, 4.0))
            tails.append(wl.powerlaw_tail_sequence(beta, tail_tol=1e-4))
    return wl.Environment(tails)


def unclipped_position_rows(env, n, trunc_tol):
    """P(X_n = x) = sum_k P(T_x = k) omega^x_{n-k} from the unclipped ladder."""
    rows = []
    for x, dist in hitting_time_scan(env, n, trunc_tol, deficit_budget=1.0):
        ext = env.site(x).extended()
        rows.append(sum(dist.prob_at(k) * ext[n - k]
                        for k in range(max(0, n - ext.size + 1), n + 1)))
        if x == n or dist.cdf_at(n) < trunc_tol:
            break
    return np.array(rows)


@settings(max_examples=60, deadline=None)
@given(env=small_environments(), n=st.integers(0, 40),
       trunc_tol=st.sampled_from([0.0, 1e-13, 1e-9]))
def test_property_clipped_ladder_is_exact_below_horizon(env, n, trunc_tol):
    x_stop = len(env) - 1
    full = hitting_time_scan(env, x_stop, trunc_tol, deficit_budget=1.0)
    clip = hitting_time_scan(env, x_stop, trunc_tol, deficit_budget=1.0, horizon=n)
    for (x, u), (_, c) in zip(full, clip):
        assert np.all(c.probs >= 0.0) and (c.end <= n or c.mass() == 0.0)
        assert abs(c.mass() + c.beyond + c.deficit - 1.0) <= 1e-12
        # the clipped ladder trims no more than the unclipped one, and what
        # only the unclipped one trims is in its extra deficit
        slack = u.deficit - c.deficit
        assert slack >= -1e-15
        ks = range(n + 1)
        np.testing.assert_allclose([c.prob_at(k) for k in ks], [u.prob_at(k) for k in ks],
                                   rtol=1e-12, atol=slack + 1e-300)
        assert abs(c.mass() - u.cdf_at(n)) <= slack + 1e-12 * u.cdf_at(n)
        tail = u.mass() - u.cdf_at(n)
        assert abs(c.beyond - tail) <= slack + 1e-12 * tail + 1e-15
        if trunc_tol == 0.0:
            assert slack == 0.0


@settings(max_examples=40, deadline=None)
@given(env=small_environments(), data=st.data())
def test_property_clipped_position_scan_matches_unclipped(env, data):
    n = data.draw(st.integers(0, len(env) - 1), label="n")
    scan = wl.position_scan(env, n, trunc_tol=0.0, deficit_budget=1.0)
    np.testing.assert_allclose(scan.prob, unclipped_position_rows(env, n, 0.0),
                               rtol=1e-12, atol=1e-300)
    # the oracle books all of site x's tail deficit in row x; the scan books
    # it at lag N+1 only
    oracle = position_law_from_hitting_cdf(env, n, trunc_tol=0.0, deficit_budget=1.0)
    gap = np.abs(scan.prob[: oracle.probs.size] - oracle.probs)
    assert np.all(gap <= [env.site(x).deficit + 1e-13 for x in range(gap.size)])


@pytest.mark.parametrize("record,times,kept", [
    ("endpoint-only", None, 2),  # X and Y at the horizon
    ("endpoint-only", [3, 9], 4),  # and X at each time
    ("full-path", None, 2 + 10),  # and the record's n + 1 cells
    ("hitting-times", None, 10),  # the record only
])
def test_simulate_paths_caps_kept_cells_and_steps(monkeypatch, record, times, kept):
    # one site and no generator: a run let through ends in the site check,
    # so a cap's message means nothing was built or drawn before it
    env = wl.Environment([wl.TailSequence([1.0, 0.5], deficit=0.0)])
    monkeypatch.setattr(walk, "stream", lambda *args: pytest.fail("a refused run drew"))
    method = "chain" if record == "full-path" else "sojourn"

    def refusal(paths):
        cfg = wl.McConfig(paths=paths, horizon=9, seed=1, record=record)
        with pytest.raises(ValidationError) as info:
            wl.simulate_paths(env, cfg, method=method, times=times)
        return str(info.value)

    monkeypatch.setattr(walk, "_MAX_RECORD_CELLS", 7 * kept)
    assert "beyond the materialized range" in refusal(7)
    if record == "hitting-times":  # its kept cells are the record's own cap
        assert refusal(8) == f"hitting-times record of 80 cells exceeds {7 * kept}; " \
            "lower paths or horizon"
    else:
        assert refusal(8).startswith(f"8 paths x {kept} kept cells = {8 * kept} exceeds")
    monkeypatch.setattr(walk, "_MAX_RECORD_CELLS", 10**6)
    monkeypatch.setattr(walk, "_MAX_PATH_STEPS", 70)
    assert "beyond the materialized range" in refusal(7)
    assert refusal(8).startswith("8 paths x 10 steps = 80 exceeds 70")
