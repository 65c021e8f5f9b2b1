"""Acceptance suite: one test per criterion, each printing a PASS line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
lines; every tolerance is pinned explicitly in the assertions.
"""

import itertools
import json
import math

import numpy as np
import pytest
from oracles import hitting_density_sup_gap, mean, moment, prob_at

import walklab as wl
from walklab.cli import main
from walklab.errors import NonConvergentVarianceError


def announce(num: int, text: str) -> None:
    print(f"\n[PASS] criterion {num}: {text}")


@pytest.fixture(scope="module")
def geo():
    env = wl.env_geometric(0.5, 60, tail_tol=1e-14)
    params = wl.LimitParams(mu=2.0, sigma2=2.0)
    return env, params


@pytest.fixture(scope="module")
def geo_diag(geo):
    env, _ = geo
    env.ensure(4600)
    return wl.diagnostics(env, 3.0)


# ---------------------------------------------------------------------------
# 1. oracle equivalence of the hitting-time convolution
# ---------------------------------------------------------------------------

def test_criterion_01_oracle_equivalence():
    environments = {
        "geometric": wl.env_geometric(0.5, 5, tail_tol=1e-14),
        "powerlaw": wl.env_from_powerlaw(3.0, 5, tail_tol=1e-12),
        "lsv": wl.env_from_lsv(wl.LsvParams.from_alpha_c(0.33, 0.5), 5),
    }
    worst = 0.0
    for name, env in environments.items():
        clipped = [
            wl.TailSequence(env.site(x).values[:6], deficit=env.site(x).values[6])
            for x in range(5)
        ]
        clipped_env = wl.Environment(clipped)
        pmfs = [wl.sojourn_pmf(s) for s in clipped]
        for x in range(1, 5):
            table: dict[int, float] = {}
            for combo in itertools.product(range(1, 7), repeat=x):
                p = 1.0
                for w, v in enumerate(combo):
                    p *= prob_at(pmfs[w], v)
                table[sum(combo)] = table.get(sum(combo), 0.0) + p
            dist = wl.hitting_time_distribution(clipped_env, x, trunc_tol=0.0,
                                                deficit_budget=1.0)
            for k in range(x, 6 * x + 1):
                gap = abs(prob_at(dist, k) - table.get(k, 0.0))
                worst = max(worst, gap)
                assert gap < 1e-12, (name, x, k)
    announce(1, f"convolution vs brute force, max atom gap {worst:.2e} < 1e-12")


# ---------------------------------------------------------------------------
# 2. moment identities and the shifted-form flag
# ---------------------------------------------------------------------------

def test_criterion_02_moment_identities(geo):
    env, _ = geo
    diag = wl.diagnostics(env, 3.0)
    site = env.site(0)

    pmf_mean = mean(wl.sojourn_pmf(site))
    assert abs(diag.m[0] - pmf_mean) <= 1e-10 + site.deficit

    exact = wl.TailSequence(np.array([1.0, 0.5, 0.25]), deficit=0.0)
    exact_diag = wl.diagnostics(wl.Environment([exact]), 3.0)
    assert exact_diag.m2[0] == 3.75
    assert moment(wl.sojourn_pmf(exact), 2) == 3.75
    assert diag.m2[0] == pytest.approx(6.0, abs=1e-9)

    # the shifted tail-sum form overshoots by exactly twice the mean
    assert exact_diag.m2_alt[0] == pytest.approx(7.25, abs=0)
    np.testing.assert_allclose(diag.m2_alt - diag.m2, 2.0 * diag.m, rtol=1e-12)
    announce(2, "tail-sum vs pmf moments agree; shifted form flagged at +2m")


# ---------------------------------------------------------------------------
# 3. walk-dynamics equivalence
# ---------------------------------------------------------------------------

def test_criterion_03_walk_dynamics_equivalence(geo):
    env, _ = geo
    paths = 200_000
    cfg = wl.TrajectoryConfig(paths=paths, horizon=50, seed=1903)
    traj = wl.simulate_trajectories(env, cfg, times=[10, 50], levels=True)
    tvs = {}
    for n in (10, 50):
        exact = wl.position_distribution(env, n, trunc_tol=1e-14)
        tv = wl.tv_distance(exact, traj.cell_counts[n], traj.contributing[n])
        tol = wl.mc_tv_tolerance(n, traj.contributing[n])
        assert tv <= tol, (n, tv, tol)
        tvs[n] = tv

    # level-resolved identity at n = 10 against a matched chain simulation
    chain = wl.simulate_paths(
        env, wl.McConfig(paths=paths, horizon=10, seed=411), method="chain"
    )
    table: dict[tuple[int, int], float] = {}
    tx, ty, tc = traj.level_counts[10]
    for x, y, c in zip(tx, ty, tc):
        table[(x, y)] = table.get((x, y), 0.0) + c / traj.contributing[10]
    cx, cy, cc = chain.level_counts()
    for x, y, c in zip(cx, cy, cc):
        table[(x, y)] = table.get((x, y), 0.0) - c / paths
    tv_levels = 0.5 * sum(abs(v) for v in table.values())
    tol_levels = wl.mc_tv_tolerance(len(table), paths)
    assert tv_levels <= tol_levels
    announce(3, f"TV(10)={tvs[10]:.4f}, TV(50)={tvs[50]:.4f}, "
                f"levels {tv_levels:.4f} <= {tol_levels:.4f}")


# ---------------------------------------------------------------------------
# 4. central limit theorem distances
# ---------------------------------------------------------------------------

def test_criterion_04_clt(geo):
    env, params = geo
    rep = wl.clt_report(env, params, [250, 4000], trunc_tol=1e-14)
    k250, k4000 = rep.dist_position
    assert k4000 < 0.02
    assert k4000 < k250
    announce(4, f"Kolmogorov distance {k4000:.4f} < 0.02 at n=4000, "
                f"below {k250:.4f} at n=250")


# ---------------------------------------------------------------------------
# 5. local limit theorem error, geometric and power-law
# ---------------------------------------------------------------------------

def test_criterion_05_llt_grid(geo, geo_diag):
    env, params = geo
    sups = []
    for n in (500, 2000, 8000):
        rep = wl.llt_report(env, params, geo_diag, n, trunc_tol=1e-14)
        sups.append(rep.sup_err_scaled)
        assert math.isfinite(rep.sup_err_scaled)
        tol = 0.05 + rep.max_halfwidth_scaled
        if n == 8000:
            assert rep.sup_err_scaled < tol
    assert sups[0] > sups[1] > sups[2]

    pl_env = wl.env_from_powerlaw(3.0, 10, tail_tol=1e-10)
    pl_env.ensure(7600)
    pl_diag = wl.diagnostics(pl_env, 3.0)
    pl_params = wl.fit_limit_params(pl_diag).params
    pl_sups = []
    for n in (500, 2000, 8000):
        rep = wl.llt_report(pl_env, pl_params, pl_diag, n,
                            trunc_tol=1e-10, deficit_budget=1e-4)
        assert math.isfinite(rep.sup_err_scaled)
        pl_sups.append(rep.sup_err_scaled)
    assert pl_sups[0] > pl_sups[1] > pl_sups[2]
    announce(5, "sup_err_scaled geometric "
                + " > ".join(f"{s:.4f}" for s in sups)
                + " (< 0.05 at n=8000); power-law "
                + " > ".join(f"{s:.4f}" for s in pl_sups))


# ---------------------------------------------------------------------------
# 6. error decomposition: telescoping and the E1 trend
# ---------------------------------------------------------------------------

def test_criterion_06_llt_error_decomposition(geo, geo_diag):
    env, params = geo
    for n in (40, 120):
        rep = wl.llt_report(env, params, geo_diag, n, trunc_tol=1e-14)
        p_hit = wl.position_scan(env, n, trunc_tol=1e-14).hitting_at_n
        h_term = (1 / params.mu) * wl.normal_density(geo_diag.M[n], n * params.sigma_tilde2, rep.x)
        resid = rep.e1 + rep.e2 + rep.e3 - (p_hit - h_term)
        assert np.nanmax(np.abs(resid)) <= 1e-15

    gaps = [
        math.sqrt(x) * hitting_density_sup_gap(env, geo_diag, x, trunc_tol=1e-14)
        for x in (50, 200, 800)
    ]
    assert gaps[0] > gaps[1] > gaps[2]
    announce(6, "telescoping exact to 1e-15; sqrt(x) sup|E1| = "
                + " > ".join(f"{g:.4f}" for g in gaps))


# ---------------------------------------------------------------------------
# 7. strong law of large numbers
# ---------------------------------------------------------------------------

def test_criterion_07_slln(geo):
    env, params = geo
    horizon = 100_000
    times = np.unique(np.linspace(1, horizon, 24, dtype=np.int64))
    cfg = wl.McConfig(paths=1000, horizon=horizon, seed=1907)
    sample = wl.simulate_paths(env, cfg, method="sojourn", times=times)
    rep = wl.slln_report(env, params, sample, tol=0.02)
    assert rep.final_frac_within >= 0.99
    announce(7, f"|X_n/n - 1/2| < 0.02 at the horizon on "
                f"{100 * rep.final_frac_within:.1f}% of 1000 paths")


# ---------------------------------------------------------------------------
# 8. backward-orbit bounds
# ---------------------------------------------------------------------------

def test_criterion_08_lsv_bounds():
    for alpha in (0.25, 0.33, 0.45):
        params = wl.LsvParams.from_alpha_c(alpha, 0.5)
        c = params.c
        cn = wl.lsv_tail_sequence(params, n_cap=400, tail_tol=1e-300).values[1:]
        n = np.arange(1, cn.size + 1, dtype=np.float64)
        level_bound = c + c * (c / (1 - c)) ** (1 / alpha) * 2 ** (1 / alpha + 1 / alpha**2)
        assert np.all(n ** (1 / alpha) * cn <= level_bound)
        diffs = np.concatenate(([1.0 - cn[0]], -np.diff(cn)))
        diff_bound = (1 - c) + c * (c / (1 - c)) ** (1 / alpha) * 2 ** (
            1 + 2 / alpha + 1 / alpha**2
        )
        assert np.all(n ** (1 / alpha + 1) * diffs <= diff_bound)
    announce(8, "both printed backward-orbit bounds hold for alpha in {0.25, 0.33, 0.45}")


# ---------------------------------------------------------------------------
# 9. quenched reproducibility
# ---------------------------------------------------------------------------

def test_criterion_09_quenched_reproducibility(tmp_path):
    def pipeline(tag: str) -> bytes:
        env_path = tmp_path / f"{tag}.json"
        llt_path = tmp_path / f"{tag}-llt.json"
        assert main(["env", "--random", "iid-powerlaw", "--choices", "2.5,3.5",
                     "--seed", "7", "--xmax", "220", "--tail-tol", "1e-8",
                     "--out", str(env_path)]) == 0
        assert main(["llt", "--env", str(env_path), "--n-grid", "60",
                     "--out", str(llt_path)]) == 0
        return (env_path.read_bytes()
                + (tmp_path / f"{tag}-diagnostics.csv").read_bytes()
                + llt_path.read_bytes())

    assert pipeline("run1") == pipeline("run2")

    model = wl.RandomEnvModel(kind="iid", family="powerlaw", seed=7,
                              choices=(2.5, 3.5))
    small = wl.sample_environment(model, 40, tail_tol=1e-8)
    large = wl.sample_environment(model, 41, tail_tol=1e-8)
    np.testing.assert_array_equal(small.parameter_trace, large.parameter_trace[:41])
    announce(9, "two pipeline runs byte-identical; shift-consistent across x_max")


# ---------------------------------------------------------------------------
# 10. hypothesis-violation detection
# ---------------------------------------------------------------------------

def test_criterion_10_hypothesis_violation():
    env = wl.env_from_powerlaw(1.5, 150, tail_tol=1e-8)
    diag = wl.diagnostics(env, 1.5)
    assert not diag.variance_converged
    with pytest.raises(NonConvergentVarianceError):
        wl.fit_limit_params(diag)
    announce(10, "beta = 1.5 environment flags non-convergent variance, no fit emitted")
