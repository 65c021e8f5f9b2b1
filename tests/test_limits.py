import math

import mpmath
import numpy as np
import pytest
from oracles import hitting_density_sup_gap

import walklab as wl
from walklab import limits
from walklab.errors import (
    HypothesisError,
    NonConvergentVarianceError,
    ValidationError,
)


@pytest.fixture(scope="module")
def geo_setup(geometric_env):
    geometric_env.ensure(700)
    diag = wl.diagnostics(geometric_env, 3.0)
    params = wl.LimitParams(mu=2.0, sigma2=2.0)
    return geometric_env, diag, params


# ---------------------------------------------------------------------------
# densities and params
# ---------------------------------------------------------------------------

def test_normal_density_values():
    assert wl.normal_density(0.0, 1.0, 0.0) == pytest.approx(0.3989422804, abs=1e-9)
    assert wl.normal_density(3.0, 4.0, 3.0) == pytest.approx(1.0 / math.sqrt(8 * math.pi))
    assert wl.normal_density(1.0, 2.0, 1.7) == wl.normal_density(1.0, 2.0, 0.3)
    with pytest.raises(ValidationError):
        wl.normal_density(0.0, 0.0, 1.0)


def test_limit_params_validation():
    params = wl.LimitParams(mu=2.0, sigma2=2.0)
    assert params.sigma_tilde2 == 0.25
    with pytest.raises(HypothesisError):
        wl.LimitParams(mu=1.0, sigma2=1.0)
    with pytest.raises(HypothesisError):
        wl.LimitParams(mu=2.0, sigma2=0.0)


def test_fit_constant_geometric(geo_setup):
    env, diag, _ = geo_setup
    fit = wl.fit_limit_params(diag)
    assert fit.params.mu == pytest.approx(2.0, abs=1e-10)
    assert fit.params.sigma2 == pytest.approx(2.0, abs=1e-9)
    assert fit.params.source == "fitted"
    assert np.nanmax(np.abs(fit.theta1[1:])) < 1e-10
    # the residual scale is sqrt(log x)
    assert fit.scaled_theta1.shape == fit.theta1.shape


def test_fit_requires_long_prefix():
    env = wl.env_geometric(0.5, 20)
    diag = wl.diagnostics(env, 3.0)
    with pytest.raises(ValidationError):
        wl.fit_limit_params(diag)


def test_fit_flags_divergent_variance():
    env = wl.env_from_powerlaw(1.5, 150, tail_tol=1e-8)
    diag = wl.diagnostics(env, 1.5)
    with pytest.raises(NonConvergentVarianceError):
        wl.fit_limit_params(diag)


def test_degenerate_env_rejected():
    site = wl.TailSequence(np.array([1.0]), deficit=0.0)
    env = wl.Environment([site] * 150)
    diag = wl.diagnostics(env, 3.0)
    with pytest.raises(HypothesisError):
        wl.fit_limit_params(diag)


# ---------------------------------------------------------------------------
# local limit predictor and decomposition
# ---------------------------------------------------------------------------

def test_predictor_single_term_at_n1(geo_setup):
    env, diag, params = geo_setup
    pred = wl.llt_predictor(env, params, diag, 1, x_values=range(4))
    st2 = params.sigma_tilde2
    for i, x in enumerate(range(4)):
        closed = wl.normal_density(diag.M[1], st2, float(x)) / params.mu
        assert pred.lo[i] == pytest.approx(closed, rel=1e-14)
        assert pred.hi[i] == pred.lo[i]


def predictor_per_site(env, params, diag, n, x_values):
    """The earlier llt_predictor loop, every term formed again for each x."""
    st2, mu_inv = params.sigma_tilde2, 1.0 / params.mu
    bound = 2.0 * math.sqrt(n) / math.sqrt(2.0 * math.pi * st2)
    lo, hi = np.empty(len(x_values)), np.empty(len(x_values))
    for i, x in enumerate(x_values):
        site = env.site(int(x))
        ells = np.arange(max(1, n - site.last_index), n + 1)
        h = wl.normal_density(diag.M[ells], ells * st2, float(x))
        lo[i] = hi[i] = mu_inv * float(h @ site.values[n - ells])
        if n - site.last_index >= 2 and site.deficit > 0.0:
            hi[i] += mu_inv * site.deficit * bound
    return lo, hi


@pytest.mark.parametrize("n", [5, 40, 300])
def test_predictor_matches_per_site_loop(n):
    # three distinct tails, two of them too short to reach n
    model = wl.RandomEnvModel(kind="iid", family="powerlaw", seed=5, choices=(2.5, 3.0, 4.0))
    env = wl.sample_environment(model, 400, tail_tol=1e-4).environment
    diag = wl.diagnostics(env, 2.5)
    params = wl.LimitParams(mu=1.6, sigma2=0.9)
    xs = [7, 0, 3, 3, 150, 42, 399]
    pred = wl.llt_predictor(env, params, diag, n, x_values=xs)
    lo, hi = predictor_per_site(env, params, diag, n, xs)
    assert pred.lo.tobytes() == lo.tobytes() and pred.hi.tobytes() == hi.tobytes()
    assert len({id(env.site(x)) for x in xs}) == 3
    with pytest.raises(ValidationError):
        wl.llt_predictor(env, params, diag, n, x_values=[2, -1])


def three_tail_setup():
    model = wl.RandomEnvModel(kind="iid", family="powerlaw", seed=5, choices=(2.5, 3.0, 4.0))
    env = wl.sample_environment(model, 400, tail_tol=1e-4).environment
    return env, wl.diagnostics(env, 2.5), wl.LimitParams(mu=1.6, sigma2=0.9), 300


def powerlaw_setup():
    env = wl.env_from_powerlaw(3.0, 1300, tail_tol=1e-10)
    diag = wl.diagnostics(env, 3.0)
    return env, diag, wl.fit_limit_params(diag).params, 1000


@pytest.mark.parametrize("setup", [three_tail_setup, powerlaw_setup])
def test_predictor_matches_per_site_loop_over_scan_rows(setup):
    env, diag, params, n = setup()
    xs = wl.position_scan(env, n, deficit_budget=1.0).x  # coarse tails: a wide budget
    pred = wl.llt_predictor(env, params, diag, n, x_values=xs)
    lo, hi = predictor_per_site(env, params, diag, n, xs)
    assert pred.lo.tobytes() == lo.tobytes() and pred.hi.tobytes() == hi.tobytes()
    if setup is powerlaw_setup:
        # the rows split into chunks, and some terms are taken as +0
        ells = np.arange(max(1, n - env.site(0).last_index), n + 1)
        assert xs.size * ells.size > 8 * limits._PREDICTOR_CHUNK
        z = -((xs[:, None] - diag.M[ells]) ** 2) / (2.0 * ells * params.sigma_tilde2)
        assert 0.1 < np.mean(z < limits._EXP_ZERO) < 0.5


def test_predictor_matches_per_site_loop_past_blas_thread_split():
    # 12000 lags: OpenBLAS splits a ddot this long across threads, and each
    # row must still be summed as the per-site 1-D dot sums it
    env = wl.env_from_powerlaw(3.0, 10100, tail_tol=1e-13)
    diag = wl.diagnostics(env, 3.0)
    params, n = wl.fit_limit_params(diag).params, 12000
    assert env.site(0).last_index > n
    c = int(n / params.mu)
    xs = [c + 3, c - 40, c, c + 3, c - 7, c + 25, c]
    pred = wl.llt_predictor(env, params, diag, n, x_values=xs)
    lo, hi = predictor_per_site(env, params, diag, n, xs)
    assert pred.lo.tobytes() == lo.tobytes() and pred.hi.tobytes() == hi.tobytes()
    assert pred.lo.min() > 1e-3


def test_predictor_mass_approaches_one(geo_setup):
    env, diag, params = geo_setup
    masses = []
    for n in (60, 400):
        pred = wl.llt_predictor(env, params, diag, n)
        masses.append(pred.mid.sum())
    assert abs(masses[1] - 1.0) <= abs(masses[0] - 1.0) + 1e-9
    assert masses[1] == pytest.approx(1.0, abs=1e-3)


def test_telescoping_identity(geo_setup):
    env, diag, params = geo_setup
    n = 60
    rep = wl.llt_report(env, params, diag, n)
    p_hit = wl.position_scan(env, n).hitting_at_n
    h_term = (1 / params.mu) * wl.normal_density(diag.M[n], n * params.sigma_tilde2, rep.x)
    resid = rep.e1 + rep.e2 + rep.e3 - (p_hit - h_term)
    assert np.nanmax(np.abs(resid)) < 1e-15


def test_e3_centering_bound_constant_env(geo_setup):
    # with identical sites, |(n - mu_x) - mu (M_n - x)| <= mu for all n
    _, diag, params = geo_setup
    for n in range(1, 400):
        lhs = abs((n - diag.mu[n // 3 + 1]) - params.mu * (diag.M[n] - (n // 3 + 1)))
        assert lhs <= params.mu + 1e-9


def test_e1_gap_shrinks_along_sites(geo_setup):
    env, diag, params = geo_setup
    gaps = [math.sqrt(x) * hitting_density_sup_gap(env, diag, x) for x in (25, 100)]
    assert gaps[1] < gaps[0]


def test_llt_report_small(geo_setup):
    env, diag, params = geo_setup
    rep = wl.llt_report(env, params, diag, 120, trunc_tol=1e-14)
    assert rep.sup_err_scaled < 0.2
    assert rep.exact.sum() == pytest.approx(1.0, abs=1e-9)
    assert np.all(rep.pred_hi >= rep.pred_lo)
    payload = wl.llt_report_json(rep)
    assert set(payload) == {"n", "sup_err_scaled", "max_halfwidth_scaled",
                            "exact_deficit", "rows"}
    assert set(payload["rows"][0]) == {"x", "exact", "pred_lo", "pred_hi",
                                       "E1", "E2", "E3"}
    assert payload["rows"][0]["E1"] is None  # x = 0 has no density comparison


def test_llt_predictor_requires_levels(geo_setup):
    env, diag, params = geo_setup
    with pytest.raises(ValidationError):
        wl.llt_predictor(env, params, diag, 10**7)


# ---------------------------------------------------------------------------
# distance reports
# ---------------------------------------------------------------------------

def test_kolmogorov_distance_basics():
    d = wl.DiscreteDistribution(0, np.array([0.5, 0.5]))
    k = wl.kolmogorov_distance_to_normal(d, 0.5, 0.5)
    assert 0.0 <= k <= 1.0
    with pytest.raises(ValidationError):
        wl.kolmogorov_distance_to_normal(d, 0.0, 0.0)


def test_normal_cdf_against_mpmath():
    z = np.concatenate((np.linspace(-38.0, 38.0, 761), np.linspace(-1e-3, 1e-3, 41),
                        [-37.99, 37.99, -8.3, 8.3, -1e-17, 1e-17, -5e-324, 5e-324]))
    phi = limits._normal_cdf(z)
    with mpmath.workdps(40):
        err = max(abs(mpmath.mpf(float(p)) - mpmath.ncdf(mpmath.mpf(float(v))))
                  for p, v in zip(phi, z))
    assert err <= 2.2e-16


@pytest.mark.parametrize("center, scale", [(5.1, 1.3), (4.0, 0.2), (30.0, 0.8)])
def test_kolmogorov_distance_against_mpmath(center, scale):
    # the sup of |F - Phi| by brute force: both sides of every atom, and between
    d = wl.DiscreteDistribution(3, np.array([0.1, 0.25, 0.3, 0.2, 0.15]))
    with mpmath.workdps(40):
        cdf, gaps = mpmath.mpf(0), []
        for k, p in zip(d.support.tolist(), d.probs.tolist()):
            for t in (k - mpmath.mpf("0.5"), k):
                phi = mpmath.ncdf((t - mpmath.mpf(center)) / mpmath.mpf(scale))
                gaps.append(abs(cdf - phi))
            cdf += mpmath.mpf(p)
            gaps.append(abs(cdf - phi))
        expected = float(max(gaps))
    assert abs(wl.kolmogorov_distance_to_normal(d, center, scale) - expected) <= 1e-15


def test_clt_report_trend(geo_setup):
    env, _, params = geo_setup
    rep = wl.clt_report(env, params, [64, 400], trunc_tol=1e-14)
    assert rep.dist_position[1] < rep.dist_position[0]
    assert rep.dist_hitting[1] < rep.dist_hitting[0]
    assert np.all(rep.dist_position <= 1.0)


def test_clt_zero_variance_guard():
    site = wl.TailSequence(np.array([1.0]), deficit=0.0)
    env = wl.Environment([site] * 40)
    params = wl.LimitParams(mu=2.0, sigma2=2.0)  # deliberately wrong constants
    with pytest.raises(HypothesisError):
        wl.clt_report(env, params, [16])


def test_slln_report_and_regression(geo_setup):
    env, _, params = geo_setup
    horizon = 20_000
    times = np.unique(np.linspace(1, horizon, 16, dtype=np.int64))
    cfg = wl.McConfig(paths=300, horizon=horizon, seed=71)
    sample = wl.simulate_paths(env, cfg, method="sojourn", times=times)
    rep = wl.slln_report(env, params, sample)
    assert rep.speed == 0.5
    assert rep.final_frac_within == pytest.approx(1.0, abs=0.02)
    assert rep.max_tail_deviation < 0.005
    # mean-path regression slope recovers the speed within 1 percent
    mean_path = sample.x_at_times.mean(axis=0)
    slope = np.polyfit(times, mean_path, 1)[0]
    assert abs(1.0 / slope - params.mu) < 0.01 * params.mu


def test_slln_needs_checkpoints(geo_setup):
    env, _, params = geo_setup
    cfg = wl.McConfig(paths=10, horizon=100, seed=81)
    sample = wl.simulate_paths(env, cfg, method="sojourn")
    with pytest.raises(ValidationError):
        wl.slln_report(env, params, sample)
