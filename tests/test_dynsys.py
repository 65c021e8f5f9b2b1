import math

import numpy as np
import pytest
from scipy import stats

import walklab as wl
from walklab import dynsys, walk
from walklab.errors import TailTruncationError, ValidationError
from oracles import cell_interval, global_step, local_map


def test_local_map_branch_endpoints(geometric_env):
    site = geometric_env.site(0)
    # left endpoint of the top branch maps to the cell boundary
    assert local_map(site, 0.5) == 1.0
    # left endpoint of branch y maps exactly onto omega_y
    for y in (1, 2, 3):
        assert local_map(site, site.values[y + 1]) == pytest.approx(
            site.values[y], rel=4e-16
        )


def test_local_map_mid_branch_values(geometric_env):
    site = geometric_env.site(0)
    # u in [omega_2, omega_1): slope (1 - 1/2)/(1/2 - 1/4) = 2
    assert local_map(site, 0.375) == pytest.approx(0.75, abs=0)
    # u in [omega_1, 1): affine onto [1, 2)
    assert local_map(site, 0.9) == pytest.approx(1.8, rel=1e-15)


def test_local_map_strictly_increasing_on_branches(geometric_env):
    site = geometric_env.site(0)
    for lo, hi in ((0.25, 0.5), (0.5, 1.0)):
        grid = np.linspace(lo, hi, 50, endpoint=False)
        images = [local_map(site, u) for u in grid]
        assert np.all(np.diff(images) > 0)


def test_local_map_below_tail_raises(geometric_env):
    site = geometric_env.site(0)
    with pytest.raises(TailTruncationError):
        local_map(site, site.deficit / 4)
    with pytest.raises(ValidationError):
        local_map(site, 1.0)


def test_global_step(geometric_env):
    site = geometric_env.site(0)
    # u = x + omega_1 jumps to the next cell's left edge
    assert global_step(geometric_env, 3.5) == 4.0
    # two-step hand trace from [omega_2, omega_1)
    u1 = global_step(geometric_env, 0.3)
    assert u1 == pytest.approx(0.6, abs=1e-15)  # 0.5 + 2 * (0.3 - 0.25)
    u2 = global_step(geometric_env, u1)
    assert 1.0 <= u2 < 2.0  # next step enters cell 1


def test_global_step_out_of_range():
    env = wl.Environment([wl.geometric_tail_sequence(0.5)])
    with pytest.raises(ValidationError):
        global_step(env, 5.3)


def test_global_step_integer_point_exact_tail(exact_site):
    # with a zero deficit the cell's left edge belongs to the deepest branch
    env = wl.Environment([exact_site] * 4)
    assert global_step(env, 2.0) == 2.25
    # with a positive deficit the same point is below the stored tail
    coarse = wl.Environment([wl.geometric_tail_sequence(0.5, tail_tol=1e-6)] * 4)
    with pytest.raises(TailTruncationError):
        global_step(coarse, 2.0)


def test_cell_interval_tiling(geometric_env):
    site = geometric_env.site(2)
    intervals = [cell_interval(geometric_env, 2, y) for y in range(site.last_index + 1)]
    uppers = sorted(iv.upper for iv in intervals)
    assert uppers[-1] == 3.0
    widths = sum(iv.width for iv in intervals)
    assert widths == pytest.approx(1.0 - site.deficit, rel=1e-12)
    with pytest.raises(ValidationError):
        cell_interval(geometric_env, 2, site.last_index + 1)


def test_trajectories_start_in_cell_zero(geometric_env):
    cfg = wl.TrajectoryConfig(paths=500, horizon=0, seed=7)
    sample = wl.simulate_trajectories(geometric_env, cfg, times=[0])
    counts = sample.cell_counts[0]
    assert counts[0] == 500 and counts[1:].sum() == 0


def test_trajectories_match_exact_law(geometric_env):
    paths = 100_000
    cfg = wl.TrajectoryConfig(paths=paths, horizon=2, seed=17)
    sample = wl.simulate_trajectories(geometric_env, cfg, times=[2])
    freq1 = sample.cell_counts[2][1] / sample.contributing[2]
    assert abs(freq1 - 0.5) <= 3.0 * math.sqrt(0.25 / paths)


def test_levels_match_matched_chain_simulation(geometric_env):
    paths = 60_000
    n = 5
    traj = wl.simulate_trajectories(
        geometric_env, wl.TrajectoryConfig(paths=paths, horizon=n, seed=27), times=[n],
        levels=True,
    )
    chain = wl.simulate_paths(
        geometric_env, wl.McConfig(paths=paths, horizon=n, seed=27), method="chain"
    )
    tx, ty, tc = traj.level_counts[n]
    cx, cy, cc = chain.level_counts()
    table: dict[tuple[int, int], float] = {}
    for x, y, c in zip(tx, ty, tc):
        table[(x, y)] = table.get((x, y), 0.0) + c / traj.contributing[n]
    for x, y, c in zip(cx, cy, cc):
        table[(x, y)] = table.get((x, y), 0.0) - c / paths
    tv = 0.5 * sum(abs(v) for v in table.values())
    assert tv <= wl.mc_tv_tolerance(len(table), paths)


def test_conditional_uniformity_within_intervals(geometric_env):
    # positions inside one level interval are uniform on it
    paths = 120_000
    n = 3
    sample = wl.simulate_trajectories(
        geometric_env, wl.TrajectoryConfig(paths=paths, horizon=n, seed=37),
        times=[n], keep_positions_at=[n],
    )
    u = sample.positions[n]
    iv = cell_interval(geometric_env, 1, 1)
    inside = u[(u >= iv.lower) & (u < iv.upper)]
    assert inside.size > 2000
    rescaled = (inside - iv.lower) / iv.width
    ks = stats.kstest(rescaled, "uniform")
    assert ks.statistic < 2.0 / math.sqrt(inside.size)


def test_flagged_paths_reported_not_continued():
    # a coarse tail makes the deficit region wide enough to be hit often
    site = wl.TailSequence(np.array([1.0, 0.5]), deficit=0.4)
    env = wl.Environment([site] * 30)
    cfg = wl.TrajectoryConfig(paths=4000, horizon=6, seed=47)
    sample = wl.simulate_trajectories(env, cfg, times=[6])
    assert sample.flagged > 0
    assert sample.contributing[6] == cfg.paths - sample.flagged
    assert sample.cell_counts[6].sum() == sample.contributing[6]


def test_trajectory_config_validation():
    with pytest.raises(ValidationError):
        wl.TrajectoryConfig(paths=0, horizon=5, seed=1)
    with pytest.raises(ValidationError):
        wl.TrajectoryConfig(paths=1, horizon=-1, seed=1)


@pytest.mark.parametrize("levels,keep,kept", [
    (False, None, 0),
    (True, None, 3),  # a level key at each time
    (True, [4], 4),  # and a position at each kept time
    (False, [4, 9], 2),
])
def test_simulate_trajectories_caps_kept_cells_and_steps(monkeypatch, levels, keep, kept):
    # one site and no generator: a run let through ends in the site check,
    # so a cap's message means nothing was built or drawn before it
    env = wl.Environment([wl.TailSequence([1.0, 0.5], deficit=0.0)])
    monkeypatch.setattr(dynsys, "stream", lambda *args: pytest.fail("a refused run drew"))

    def refusal(paths):
        cfg = wl.TrajectoryConfig(paths=paths, horizon=9, seed=1)
        with pytest.raises(ValidationError) as info:
            wl.simulate_trajectories(env, cfg, times=[0, 4, 9], levels=levels,
                                     keep_positions_at=keep)
        return str(info.value)

    monkeypatch.setattr(walk, "_MAX_RECORD_CELLS", 7 * kept)
    assert "beyond the materialized range" in refusal(7)
    if kept:
        assert refusal(8).startswith(f"8 paths x {kept} kept cells = {8 * kept} exceeds")
    monkeypatch.setattr(walk, "_MAX_RECORD_CELLS", 10**6)
    monkeypatch.setattr(walk, "_MAX_PATH_STEPS", 70)
    assert "beyond the materialized range" in refusal(7)
    assert refusal(8).startswith("8 paths x 10 steps = 80 exceeds 70")
