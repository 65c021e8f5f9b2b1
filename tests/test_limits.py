import math

import numpy as np
import pytest

import walklab as wl
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


def test_limit_params_validation(geo_setup):
    params = wl.LimitParams(mu=2.0, sigma2=2.0)
    assert params.sigma_tilde2 == 0.25
    with pytest.raises(HypothesisError):
        wl.LimitParams(mu=1.0, sigma2=1.0)
    with pytest.raises(HypothesisError):
        wl.LimitParams(mu=2.0, sigma2=0.0)
    # the residual rate exponent is only used, and checked, by the fit
    with pytest.raises(ValidationError):
        wl.fit_limit_params(geo_setup[1], eta=0.5)


def test_fit_constant_geometric(geo_setup):
    env, diag, _ = geo_setup
    fit = wl.fit_limit_params(diag)
    assert fit.params.mu == pytest.approx(2.0, abs=1e-10)
    assert fit.params.sigma2 == pytest.approx(2.0, abs=1e-9)
    assert fit.params.source == "fitted"
    assert np.nanmax(np.abs(fit.theta1[1:])) < 1e-10
    # eta = 0 keeps the residual scale sqrt(log x) only
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
    table = wl.llt_error_decomposition(env, params, diag, n, range(1, 40))
    h_term = table.predictor_term
    resid = table.e1 + table.e2 + table.e3 - (table.p_hit - h_term)
    assert np.nanmax(np.abs(resid)) < 1e-15


def test_e3_centering_bound_constant_env(geo_setup):
    # with identical sites, |(n - mu_x) - mu (M_n - x)| <= mu for all n
    _, diag, params = geo_setup
    for n in range(1, 400):
        lhs = abs((n - diag.mu[n // 3 + 1]) - params.mu * (diag.M[n] - (n // 3 + 1)))
        assert lhs <= params.mu + 1e-9


def test_e1_gap_shrinks_along_sites(geo_setup):
    env, diag, params = geo_setup
    gaps = [math.sqrt(x) * wl.hitting_density_sup_gap(env, diag, x) for x in (25, 100)]
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
