import json
import math

import numpy as np
import pytest

import walklab as wl
from walklab.errors import ValidationError

from conftest import bisect_root

GOLDEN = (math.sqrt(5.0) - 1.0) / 2.0


# ---------------------------------------------------------------------------
# tail sequence construction
# ---------------------------------------------------------------------------

def test_tail_sequence_invariants():
    with pytest.raises(ValidationError):
        wl.TailSequence(np.array([0.9, 0.5]))  # must start at 1
    with pytest.raises(ValidationError):
        wl.TailSequence(np.array([1.0, 0.5, 0.5]))  # strictly decreasing
    with pytest.raises(ValidationError):
        wl.TailSequence(np.array([1.0, 0.5]), deficit=0.6)  # deficit <= last value
    with pytest.raises(ValidationError):
        wl.TailSequence(np.array([1.0, -0.1]))


def test_sojourn_probs_sum_to_one_minus_deficit(geometric_env, powerlaw_env, lsv_env, exact_site):
    for env in (geometric_env, powerlaw_env, lsv_env):
        site = env.site(0)
        total = site.sojourn_probs().sum() + site.deficit
        assert abs(total - 1.0) < 1e-9
    assert exact_site.sojourn_probs().sum() == 1.0


def test_geometric_tail_values():
    site = wl.geometric_tail_sequence(0.5, tail_tol=1e-14)
    assert site.values[0] == 1.0
    assert site.values[1] == 0.5
    assert site.values[-1] <= 1e-14
    assert site.deficit == site.values[-1] / 2
    assert not site.cap_reached


def test_powerlaw_tail_values():
    site = wl.powerlaw_tail_sequence(3.0, tail_tol=1e-12)
    assert site.values[1] == pytest.approx(1.0 / 8.0, abs=0)
    assert site.values[2] == pytest.approx(1.0 / 27.0, abs=0)
    n_last = site.last_index
    assert site.deficit == (n_last + 2.0) ** -3.0
    assert np.all(np.diff(site.values) < 0)


def test_cap_reported():
    site = wl.powerlaw_tail_sequence(3.0, n_cap=5, tail_tol=1e-12)
    assert site.cap_reached
    assert site.last_index == 5


# ---------------------------------------------------------------------------
# slow-branch parameters and backward orbit
# ---------------------------------------------------------------------------

def test_lsv_params_alpha_one_gives_golden_ratio():
    params = wl.LsvParams.from_alpha_kappa(1.0, 1.0)
    assert params.c == pytest.approx(GOLDEN, abs=1e-14)
    assert abs(params.c + params.kappa * params.c**2 - 1.0) <= 1e-12


def test_lsv_params_validation():
    with pytest.raises(ValidationError):
        wl.LsvParams(alpha=0.0, c=0.5, kappa=2.0)
    with pytest.raises(ValidationError):
        wl.LsvParams(alpha=1.5, c=0.5, kappa=2.0)
    with pytest.raises(ValidationError):
        wl.LsvParams(alpha=0.5, c=0.5, kappa=1.0)  # constraint violated
    with pytest.raises(ValidationError):
        wl.LsvParams.from_alpha_c(0.5, 1.2)


def test_cn_first_value_is_c_exactly():
    params = wl.LsvParams.from_alpha_kappa(1.0, 1.0)
    cn = wl.lsv_cn_sequence(params, 1)
    assert cn[0] == params.c


def test_cn_second_value_against_bisection_oracle():
    params = wl.LsvParams.from_alpha_kappa(1.0, 1.0)
    cn = wl.lsv_cn_sequence(params, 2)
    oracle = bisect_root(lambda y: y + y * y - cn[0], 0.0, cn[0])
    assert cn[1] == pytest.approx(0.4316836, abs=1e-6)
    assert cn[1] == pytest.approx(oracle, abs=1e-9)


def test_cn_strictly_decreasing():
    params = wl.LsvParams.from_alpha_c(0.33, 0.5)
    cn = wl.lsv_cn_sequence(params, 200)
    assert np.all(np.diff(cn) < 0)


@pytest.mark.parametrize("alpha", [0.25, 0.33, 0.45])
def test_cn_printed_bounds(alpha):
    params = wl.LsvParams.from_alpha_c(alpha, 0.5)
    c = params.c
    cn = wl.lsv_cn_sequence(params, 300)
    n = np.arange(1, cn.size + 1, dtype=np.float64)
    level_bound = c + c * (c / (1 - c)) ** (1 / alpha) * 2 ** (1 / alpha + 1 / alpha**2)
    assert np.all(n ** (1 / alpha) * cn <= level_bound)
    diffs = np.concatenate(([1.0 - cn[0]], -np.diff(cn)))  # c_{n-1} - c_n with c_0 = 1
    diff_bound = (1 - c) + c * (c / (1 - c)) ** (1 / alpha) * 2 ** (1 + 2 / alpha + 1 / alpha**2)
    assert np.all(n ** (1 / alpha + 1) * diffs[: cn.size] <= diff_bound)


def test_root_finder_iteration_cap():
    from walklab.environment import _invert_branch
    params = wl.LsvParams.from_alpha_c(0.33, 0.5)
    with pytest.raises(wl.RootFindError):
        _invert_branch(params, params.c, params.c, rel_tol=1e-15, max_iter=3)


def test_root_find_failure_carries_site_index(monkeypatch):
    import walklab.environment as env_mod

    def broken(params, n_cap, tail_tol):
        raise wl.RootFindError("did not converge")

    monkeypatch.setattr(env_mod, "lsv_tail_sequence", broken)
    with pytest.raises(wl.RootFindError, match="site 0"):
        env_mod.env_from_lsv(wl.LsvParams.from_alpha_c(0.33, 0.5), 3)


def test_env_sites_match_cn_sequence(lsv_env):
    params = wl.LsvParams.from_alpha_c(0.33, 0.5)
    site = lsv_env.site(0)
    cn = wl.lsv_cn_sequence(params, site.last_index)
    np.testing.assert_allclose(site.values[1:], cn, rtol=1e-12)


def test_env_from_lsv_ncap_three():
    params = wl.LsvParams.from_alpha_kappa(1.0, 1.0)
    env = wl.env_from_lsv(params, 0, n_cap=3, tail_tol=1e-12)
    site = env.site(0)
    c3 = bisect_root(lambda y: y + y * y - 0.4316836, 0.0, 0.5, tol=1e-10)
    assert site.values == pytest.approx([1.0, 0.618034, 0.431684, c3], abs=1e-5)
    assert np.all(np.diff(site.values) < 0)
    assert site.cap_reached
    # the deficit equals the next (omitted) backward-orbit value
    c4 = bisect_root(lambda y: y + y * y - site.values[3], 0.0, site.values[3], tol=1e-13)
    assert site.deficit == pytest.approx(c4, rel=1e-9)


# ---------------------------------------------------------------------------
# diagnostics
# ---------------------------------------------------------------------------

def test_diagnostics_of_exact_site(exact_site):
    env = wl.Environment([exact_site] * 5)
    diag = wl.diagnostics(env, 3.0)
    assert diag.m[0] == pytest.approx(1.75, abs=0)
    assert diag.m2[0] == pytest.approx(3.75, abs=0)
    assert diag.m2_alt[0] == pytest.approx(7.25, abs=0)
    assert diag.s2[0] == pytest.approx(3.75 - 1.75**2, abs=1e-15)


def test_second_moment_forms_differ_by_twice_mean(geometric_env, powerlaw_env):
    for env in (geometric_env, powerlaw_env):
        diag = wl.diagnostics(env, 3.0)
        np.testing.assert_allclose(diag.m2_alt - diag.m2, 2.0 * diag.m, rtol=1e-12)


def test_geometric_moments_closed_form(geometric_env):
    diag = wl.diagnostics(geometric_env, 3.0)
    site = geometric_env.site(0)
    n = np.arange(site.values.size)
    assert diag.m[0] == pytest.approx(2.0, abs=1e-10)
    assert diag.m2[0] == pytest.approx(6.0, abs=1e-9)
    assert diag.s2[0] == pytest.approx(2.0, abs=1e-9)
    assert diag.m[0] == pytest.approx(float(site.values.sum()), abs=0)
    assert diag.m2[0] == pytest.approx(float(((2 * n + 1) * site.values).sum()), abs=0)


def test_geometric_K_is_one(geometric_env):
    diag = wl.diagnostics(geometric_env, 3.0)
    assert diag.K[0] == pytest.approx(1.0, abs=1e-12)


def test_powerlaw_A_clamps_to_one(powerlaw_env):
    diag = wl.diagnostics(powerlaw_env, 3.0)
    assert diag.A[0] == 1.0
    assert diag.A_prime[0] > 1.0


def test_powerlaw_mean_near_aperys_constant():
    env = wl.env_from_powerlaw(3.0, 0, n_cap=10_000, tail_tol=1e-30)
    diag = wl.diagnostics(env, 3.0)
    zeta3 = float(np.sum((np.arange(1, 3_000_000, dtype=np.float64)) ** -3.0))
    assert diag.m[0] <= zeta3 <= diag.m[0] + diag.m_tail_bound[0]
    assert diag.m[0] == pytest.approx(1.2020569, abs=1e-7)


def test_m_tail_sum_matches_pmf_mean(geometric_env, powerlaw_env, lsv_env):
    for env in (geometric_env, powerlaw_env, lsv_env):
        site = env.site(0)
        diag = wl.diagnostics(env, 3.0)
        pmf_mean = wl.sojourn_pmf(site).mean()
        slack = 1e-10 + (site.last_index + 1) * site.deficit
        assert abs(diag.m[0] - pmf_mean) <= slack


def test_constant_geometric_cumulatives(geometric_env):
    diag = wl.diagnostics(geometric_env, 3.0)
    np.testing.assert_allclose(diag.mu[:10], 2.0 * np.arange(10), atol=1e-9)
    assert diag.M[0] == 0
    n = np.arange(diag.M.size)
    np.testing.assert_array_equal(diag.M, np.ceil(n / 2.0).astype(int))


def test_generalized_inverse_laws(geometric_env, powerlaw_env):
    for env in (geometric_env, powerlaw_env):
        diag = wl.diagnostics(env, 3.0)
        n = np.arange(diag.M.size)
        assert np.all(diag.M <= n)
        assert np.all(diag.mu_upper[diag.M] >= n - 1e-9)
        mu_int = np.floor(diag.mu_upper[:-1] + 1e-9).astype(int)
        valid = mu_int < diag.M.size
        assert np.all(diag.M[mu_int[valid]] <= diag.x[valid])


def test_A_Aprime_inequality(geometric_env, powerlaw_env, lsv_env):
    for env, beta in ((geometric_env, 3.0), (powerlaw_env, 3.0), (lsv_env, 1 / 0.33)):
        diag = wl.diagnostics(env, beta)
        bound = np.maximum(diag.A_prime * (1.0 + 1.0 / diag.beta_star), 1.0)
        assert np.all(diag.A <= bound + 1e-12)


def test_truncation_flag_on_coarse_tail():
    site = wl.TailSequence(np.array([1.0, 0.5]), deficit=0.5)
    env = wl.Environment([site])
    diag = wl.diagnostics(env, 3.0)
    # stored sup gives A = 1 but the first omitted term could reach 2^3 * 0.5
    assert diag.A[0] == 1.0
    assert diag.A_truncation_flagged[0]


def test_diagnostics_validation(geometric_env):
    with pytest.raises(ValidationError):
        wl.diagnostics(geometric_env, 1.0)


def test_variance_tail_divergence_flagged():
    env = wl.env_from_powerlaw(1.5, 50, tail_tol=1e-8)
    diag = wl.diagnostics(env, 1.5)
    assert not diag.variance_converged
    assert np.all(np.isinf(diag.s2_tail_bound))


# ---------------------------------------------------------------------------
# window fluctuation
# ---------------------------------------------------------------------------

def test_window_fluctuation_constant_env(geometric_env):
    assert wl.window_fluctuation(geometric_env, 10, 2.0, mu=2.0) == pytest.approx(0.0, abs=1e-9)


def test_window_fluctuation_single_perturbed_site():
    base = wl.geometric_tail_sequence(0.5, tail_tol=1e-14)
    bumped = wl.geometric_tail_sequence(0.6, tail_tol=1e-14)  # m = 2.5
    sites = [base] * 40
    sites[12] = bumped
    env = wl.Environment(sites)
    delta = bumped.stored_mean() - 2.0
    assert wl.window_fluctuation(env, 10, 1.2, mu=2.0) == pytest.approx(delta, abs=1e-9)


def test_window_fluctuation_matches_brute_force():
    rng = np.random.default_rng(3)
    ratios = rng.uniform(0.3, 0.7, size=200)
    env = wl.Environment([wl.geometric_tail_sequence(r, tail_tol=1e-14) for r in ratios])
    mu = float(np.mean([env.site(w).stored_mean() for w in range(200)]))
    x, u = 60, 1.5
    span = int(math.floor(u * math.sqrt(x * math.log(x))))
    m = np.array([env.site(w).stored_mean() for w in range(200)])
    best = 0.0
    for ell in range(-span, span + 1):
        if ell >= 0:
            window = range(x, x + ell)
        else:
            window = range(max(0, x + ell - 1), x + 1)
        best = max(best, abs(sum(m[w] - mu for w in window)))
    assert wl.window_fluctuation(env, x, u, mu=mu) == pytest.approx(best, rel=1e-12)


def test_window_fluctuation_validation(geometric_env):
    with pytest.raises(ValidationError):
        wl.window_fluctuation(geometric_env, 1, 1.0, mu=2.0)
    with pytest.raises(ValidationError):
        wl.window_fluctuation(geometric_env, 10, 0.0, mu=2.0)


# ---------------------------------------------------------------------------
# environment container and file format
# ---------------------------------------------------------------------------

def test_environment_extension_and_bounds(geometric_env):
    env = wl.env_geometric(0.5, 5)
    assert env.x_max == 5
    env.site(20)  # factory extends
    assert env.x_max >= 20
    loaded = wl.Environment(env.sites()[:3])
    with pytest.raises(ValidationError):
        loaded.site(10)


def test_env_file_round_trip(tmp_path, lsv_env):
    path = tmp_path / "env.json"
    wl.write_env_file(lsv_env, str(path))
    loaded = wl.load_env_file(str(path))
    assert len(loaded) == len(lsv_env)
    d1 = wl.diagnostics(lsv_env, 1 / 0.33)
    d2 = wl.diagnostics(loaded, 1 / 0.33)
    np.testing.assert_array_equal(d1.m, d2.m)
    np.testing.assert_array_equal(d1.A, d2.A)
    np.testing.assert_array_equal(d1.mu, d2.mu)


def test_env_file_full_precision(tmp_path):
    env = wl.env_from_lsv(wl.LsvParams.from_alpha_kappa(1.0, 1.0), 0, n_cap=4)
    text = wl.env_json_text(env)
    payload = json.loads(text)
    stored = payload["sites"][0]["omega"][1]
    assert stored == env.site(0).values[1]  # exact round trip
    assert "0.61803398874989" in text


def test_write_refuses_overwrite(tmp_path, geometric_env):
    path = tmp_path / "env.json"
    wl.write_env_file(geometric_env, str(path))
    with pytest.raises(FileExistsError):
        wl.write_env_file(geometric_env, str(path))
    wl.write_env_file(geometric_env, str(path), force=True)
