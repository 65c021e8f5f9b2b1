import json
import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import walklab as wl
from walklab import environment
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


@pytest.mark.parametrize("values, deficit", [
    ([], 0.0),                                # empty
    ([[1.0, 0.5], [0.4, 0.3]], 0.0),          # 2-D
    ([0.9, 0.5], 0.0),                        # first value not 1
    ([math.nan, 0.5], 0.0),
    ([1.0, 0.5, 0.0], 0.0),                   # last value not positive
    ([1.0, 0.5, -0.0], 0.0),
    ([1.0, 0.5, -math.inf], 0.0),
    ([1.0, 0.5, 0.5, 0.25], 0.0),             # equal neighbours
    ([1.0, 0.5, 0.6, 0.25], 0.0),             # one increase
    ([1.0, 0.5, math.nan, 0.25], 0.0),        # NaN inside
    ([1.0, math.nan], 0.0),
    ([1.0, math.inf, 0.5], 0.0),              # +inf
    ([1.0, 0.5, math.inf], 0.0),
    ([1.0, 0.5], -1e-300),                    # deficit below 0
    ([1.0, 0.5], 0.5000000000000001),         # deficit above the last value
    ([1.0, 0.5], math.nan),
    ([1.0], math.inf),
])
def test_tail_sequence_refusals(values, deficit):
    with pytest.raises(ValidationError):
        wl.TailSequence(np.array(values, dtype=np.float64), deficit=deficit)


def test_tail_sequence_keeps_its_own_copy():
    strided = np.array([1.0, 9.0, 0.5, 9.0, 0.25])[::2]
    for raw in (np.array([1.0, 0.5, 0.25]), [1.0, 0.5, 0.25], strided):
        site = wl.TailSequence(raw, deficit=0.125)
        assert not site.values.flags.writeable
        raw[1] = 0.75
        assert site.values.tolist() == [1.0, 0.5, 0.25]
    # one value, or a deficit equal to the last value, is a tail
    assert wl.TailSequence([1.0], deficit=1.0).sojourn_probs().tolist() == [0.0]


def test_sojourn_probs_sum_to_one_minus_deficit(geometric_env, powerlaw_env, lsv_env, exact_site):
    for env in (geometric_env, powerlaw_env, lsv_env):
        site = env.site(0)
        total = site.sojourn_probs().sum() + site.deficit
        assert abs(total - 1.0) < 1e-9
    assert exact_site.sojourn_probs().sum() == 1.0


def test_sojourn_probs_bytes_equal_negated_diff(powerlaw_env, lsv_env):
    # a deficit equal to the last value gives the last atom as -0.0
    for site in (wl.TailSequence([1.0, 0.5, 0.4], deficit=0.4), powerlaw_env.site(0),
                 lsv_env.site(0)):
        expected = -np.diff(np.append(site.values, site.deficit))
        assert site.sojourn_probs().tobytes() == expected.tobytes()


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


def test_powerlaw_tail_refuses_nan_beta():
    with pytest.raises(ValidationError, match="exponent beta"):
        wl.powerlaw_tail_sequence(math.nan)


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
    with pytest.raises(ValidationError, match="kappa"):
        wl.LsvParams(alpha=0.5, c=0.5, kappa=math.nan)
    with pytest.raises(ValidationError, match="kappa"):
        wl.LsvParams.from_alpha_kappa(0.5, math.nan)


def cn_sequence(params, count):
    """The backward orbit c_1..c_count of 1, the lsv tail without omega_0 = 1."""
    return wl.lsv_tail_sequence(params, n_cap=count, tail_tol=1e-300).values[1:]


def test_cn_first_value_is_c_exactly():
    params = wl.LsvParams.from_alpha_kappa(1.0, 1.0)
    cn = cn_sequence(params, 1)
    assert cn[0] == params.c


def test_cn_second_value_against_bisection_oracle():
    params = wl.LsvParams.from_alpha_kappa(1.0, 1.0)
    cn = cn_sequence(params, 2)
    oracle = bisect_root(lambda y: y + y * y - cn[0], 0.0, cn[0])
    assert cn[1] == pytest.approx(0.4316836, abs=1e-6)
    assert cn[1] == pytest.approx(oracle, abs=1e-9)


@pytest.mark.parametrize("alpha", [0.25, 0.33, 0.45])
def test_cn_steps_against_mpmath_oracle(alpha):
    # each value solves branch(y) = previous value to double precision
    mpmath = pytest.importorskip("mpmath")
    params = wl.LsvParams.from_alpha_c(alpha, 0.5)
    cn = cn_sequence(params, 200)
    with mpmath.workdps(40):
        kappa, power = mpmath.mpf(params.kappa), mpmath.mpf(params.alpha) + 1
        for prev, value in zip(cn[:-1], cn[1:]):
            root = mpmath.findroot(lambda y: y + kappa * y**power - mpmath.mpf(prev),
                                   mpmath.mpf(value))
            assert abs(mpmath.mpf(value) / root - 1) <= 1e-15


def test_cn_strictly_decreasing():
    params = wl.LsvParams.from_alpha_c(0.33, 0.5)
    cn = cn_sequence(params, 200)
    assert np.all(np.diff(cn) < 0)


@pytest.mark.parametrize("alpha", [0.25, 0.33, 0.45])
def test_cn_printed_bounds(alpha):
    params = wl.LsvParams.from_alpha_c(alpha, 0.5)
    c = params.c
    cn = cn_sequence(params, 300)
    n = np.arange(1, cn.size + 1, dtype=np.float64)
    level_bound = c + c * (c / (1 - c)) ** (1 / alpha) * 2 ** (1 / alpha + 1 / alpha**2)
    assert np.all(n ** (1 / alpha) * cn <= level_bound)
    diffs = np.concatenate(([1.0 - cn[0]], -np.diff(cn)))  # c_{n-1} - c_n with c_0 = 1
    diff_bound = (1 - c) + c * (c / (1 - c)) ** (1 / alpha) * 2 ** (1 + 2 / alpha + 1 / alpha**2)
    assert np.all(n ** (1 / alpha + 1) * diffs[: cn.size] <= diff_bound)


def test_root_finder_iteration_cap(monkeypatch):
    # no Newton step is ever small enough, so both orbit loops hit the cap
    import walklab.environment as env_mod
    monkeypatch.setattr(env_mod, "_NEWTON_MAX_ITER", 3)
    monkeypatch.setattr(env_mod, "_ORBIT_REL_TOL", -1.0)
    params = [wl.LsvParams.from_alpha_c(float(a), 0.5)
              for a in np.linspace(0.2, 0.4, env_mod._LONE_ORBITS)]
    with pytest.raises(wl.RootFindError, match="within 3 iterations"):
        wl.lsv_tail_sequence(params[0], 100, 1e-6)  # the lone orbit
    monkeypatch.setattr(env_mod, "_lone_steps", lambda *args: pytest.fail("lone loop reached"))
    with pytest.raises(wl.RootFindError, match="within 3 iterations"):
        env_mod._lsv_tails(params, 100, 1e-6)  # the batch loop, before any orbit leaves it


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
    cn = cn_sequence(params, site.last_index)
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


def cumulative_moments_per_site(env, x):
    """The earlier per-site loop, kept as an oracle."""
    mu_x = 0.0
    var_x = 0.0
    for w in range(x):
        site = env.site(w)
        m_w = site.stored_mean()
        mu_x += m_w
        var_x += site.stored_second_moment() - m_w * m_w
    return mu_x, var_x


def test_cumulative_hitting_moments_match_per_site_loop():
    model = wl.RandomEnvModel(kind="iid", family="powerlaw", seed=5, choices=(2.5, 3.0, 4.0))
    env = wl.sample_environment(model, 300, tail_tol=1e-8).environment
    assert len(env.tails) == 3
    for x in [0, 1, 2, 7, 150, 301]:
        assert wl.cumulative_hitting_moments(env, x) == cumulative_moments_per_site(env, x)
    # a generator-backed environment is materialized as far as x needs
    env = wl.env_from_powerlaw(3.0, 10, tail_tol=1e-8)
    assert wl.cumulative_hitting_moments(env, 40) == cumulative_moments_per_site(env, 40)
    assert len(env) == 40


@pytest.mark.parametrize("seed", range(5))
def test_cumulative_hitting_moments_equal_diagnostics(seed):
    # one tail per site, so every sojourn mean is squared on its own
    model = wl.RandomEnvModel(kind="iid", family="powerlaw", seed=seed, low=2.5, high=4.0)
    env = wl.sample_environment(model, 400, tail_tol=1e-8).environment
    diag = wl.diagnostics(env, 2.5)
    for x in range(len(env) + 1):
        assert wl.cumulative_hitting_moments(env, x) == (diag.mu[x], diag.sigma2[x])


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
    # beta_diag read from an env file: one value per site, finite numbers only
    for beta in ([3.0] * (len(geometric_env) + 1), "steep", math.nan, math.inf,
                 [3.0] * (len(geometric_env) - 1) + [math.nan]):
        with pytest.raises(ValidationError):
            wl.diagnostics(geometric_env, beta)


def test_diagnostics_caps_the_m_table(geometric_env, monkeypatch):
    top = wl.diagnostics(geometric_env, 3.0).mu_upper[-1]
    assert top != math.floor(top)
    monkeypatch.setattr(environment, "_M_TABLE_CAP", math.ceil(top))
    assert wl.diagnostics(geometric_env, 3.0).M.size == math.ceil(top)
    monkeypatch.setattr(environment, "_M_TABLE_CAP", math.floor(top))
    with pytest.raises(ValidationError, match=f"hold {math.ceil(top)} entries.*beta_diag"):
        wl.diagnostics(geometric_env, 3.0)
    for bound in (math.inf, math.nan):
        monkeypatch.setattr(environment, "_tail_mean_bound", lambda site, beta: bound)
        with pytest.raises(ValidationError, match=f"hold {bound} entries"):
            wl.diagnostics(geometric_env, 3.0)


def test_diagnostics_rows_group_by_tail_and_beta():
    """Tail a meets betas 1.5 and 2.5, tails a and b share beta 2.5, tail b
    also meets 4.0: every column equals the per-site row bit for bit."""
    a = wl.powerlaw_tail_sequence(2.5, tail_tol=1e-6)
    b = wl.geometric_tail_sequence(0.6, n_cap=8, tail_tol=1e-14)
    env = wl.Environment([a, b, a, b, a, b, b])
    betas = np.array([1.5, 2.5, 2.5, 2.5, 1.5, 4.0, 2.5])
    diag = wl.diagnostics(env, betas)
    rows = [environment._diagnostic_row(env.site(x), betas[x]) for x in range(len(env))]
    names = ["A", "A_truncation_flagged", "A_prime", "A_prime_truncation_flagged", "K",
             "m_tail_bound", "s2_tail_bound", "cap_reached"]
    for name, column in zip(names, zip(*rows)):
        got = getattr(diag, name)
        assert got.tobytes() == np.array(column).tobytes(), name
    assert diag.beta.tobytes() == betas.tobytes()
    assert np.isinf(diag.s2_tail_bound[0]) and diag.cap_reached[1]  # both kinds of row occur


def test_variance_tail_divergence_flagged():
    env = wl.env_from_powerlaw(1.5, 50, tail_tol=1e-8)
    diag = wl.diagnostics(env, 1.5)
    assert not diag.variance_converged
    assert np.all(np.isinf(diag.s2_tail_bound))


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


def test_ensure_calls_the_range_factory_once_per_extension():
    tail = wl.TailSequence([1.0, 0.5, 0.25], deficit=0.0)
    calls = []

    def factory(start, stop):
        calls.append((start, stop))
        return [tail] * (stop - start)

    env = wl.Environment([tail], factory=factory)
    env.ensure(10)
    env.site(5)
    env.site(12)
    assert calls == [(1, 11), (11, 13)]
    assert len(env) == 13 and env.tails == [tail]


@pytest.mark.parametrize("build", [
    lambda: wl.env_geometric(0.5, 5),
    lambda: wl.env_from_powerlaw(3.0, 5, tail_tol=1e-6),
    lambda: wl.env_from_lsv(wl.LsvParams.from_alpha_c(0.33, 0.5), 5, tail_tol=1e-6),
], ids=["geometric", "powerlaw", "lsv"])
def test_constant_env_extension_holds_its_shared_tail(build):
    env = build()
    shared = env.site(0)
    env.ensure(40)
    assert len(env) == 41 and len(env.tails) == 1 and env.tails[0] is shared
    assert all(site is shared for site in env.sites())


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


def test_env_file_back_references_shared_tail(tmp_path, geometric_env):
    text = wl.env_json_text(geometric_env)
    assert text.count('"omega"') == 1
    assert json.loads(text)["sites"][1:] == [0] * geometric_env.x_max
    path = tmp_path / "env.json"
    path.write_text(text)
    loaded = wl.load_env_file(str(path))
    assert len(loaded) == len(geometric_env)
    assert len({id(site) for site in loaded.sites()}) == 1
    original = geometric_env.site(0)
    assert loaded.site(0).values.tobytes() == original.values.tobytes()
    assert loaded.site(0).deficit == original.deficit


def test_env_file_old_schema_still_loads(tmp_path):
    # every site written out in full, as files without back-references are
    site = '{"omega": [1.0, 0.5, 0.25], "deficit": 0.125}'
    path = tmp_path / "old.json"
    path.write_text('{"model": {"beta_diag": 3.0}, "sites": [' + ", ".join([site] * 3) + "]}")
    loaded = wl.load_env_file(str(path))
    assert len(loaded) == 3
    for x in range(3):
        assert loaded.site(x).values.tolist() == [1.0, 0.5, 0.25]
        assert loaded.site(x).deficit == 0.125
    # separate tail objects give the same diagnostics as one shared object
    shared = wl.Environment([loaded.site(0)] * 3)
    d_old, d_shared = wl.diagnostics(loaded, 3.0), wl.diagnostics(shared, 3.0)
    for field in ("A", "A_prime", "K", "m", "m_tail_bound", "s2", "mu", "sigma2"):
        np.testing.assert_array_equal(getattr(d_old, field), getattr(d_shared, field))


def test_env_file_load_peak_memory(tmp_path):
    # distinct tails, so the file is nearly all decimals: reading it holds the
    # bytes and the decoded text at once (2x its size), and each site's floats
    # must become an array before the next site is decoded
    tails = [wl.powerlaw_tail_sequence(2.5 + 0.01 * k, tail_tol=1e-9) for k in range(20)]
    path = tmp_path / "env.json"
    wl.write_env_file(wl.Environment(tails), str(path))
    tracemalloc.start()
    try:
        loaded = wl.load_env_file(str(path))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 2.1 * path.stat().st_size
    for site, tail in zip(loaded.sites(), tails):
        assert site.values.tobytes() == tail.values.tobytes()
        assert site.deficit == tail.deficit


@pytest.mark.parametrize("omega", ['"abc"', '["a"]', "[[1.0, 0.5]]", "[1.0, null]",
                                   '{"a": 1}', "[]", "[1.0, 0.5, 0.75]", "[1.0, true]"])
def test_env_file_malformed_omega(tmp_path, omega, capsys):
    from walklab.cli import main

    path = tmp_path / "bad.json"
    path.write_text('{"model": {}, "sites": [{"omega": ' + omega + ', "deficit": 0.0}]}')
    with pytest.raises(ValidationError):
        wl.load_env_file(str(path))
    out = tmp_path / "o.csv"
    assert main(["exact", "--env", str(path), "--n", "3", "--out", str(out)]) == 2
    assert capsys.readouterr().err.startswith("error: ")
    assert not out.exists()


@pytest.mark.parametrize("reference", ["true", "-1", "2", "7", "1.0"])
def test_env_file_malformed_back_reference(tmp_path, reference, capsys):
    from walklab.cli import main

    site = '{"omega": [1.0, 0.5], "deficit": 0.25}'
    path = tmp_path / "bad.json"
    path.write_text('{"model": {}, "sites": [' + site + ", 0, " + reference + "]}")
    with pytest.raises(ValidationError):
        wl.load_env_file(str(path))
    out = tmp_path / "o.csv"
    assert main(["exact", "--env", str(path), "--n", "3", "--out", str(out)]) == 2
    assert capsys.readouterr().err.startswith("error: ")
    assert not out.exists()


def per_key_tail_groups(env, sites):
    """The per-key scan tail_groups replaced, kept as the reference."""
    of = env.tail_index[sites]
    keys = np.unique(of).tolist() if len(env.tails) > 1 else [0]
    for k in keys:
        yield k, (slice(None) if len(keys) == 1 else np.flatnonzero(of == k))


@settings(max_examples=200, deadline=None)
@given(st.lists(st.integers(0, 5), min_size=1, max_size=40), st.data())
def test_tail_groups_match_per_key_scan(keys, data):
    tails = [wl.TailSequence([1.0, 0.5 ** (k + 1)], deficit=0.0) for k in range(max(keys) + 1)]
    env = wl.Environment([tails[k] for k in keys])
    n = len(env)
    sites = data.draw(st.one_of(
        st.lists(st.integers(0, n - 1), max_size=60).map(lambda s: np.array(s, dtype=np.int64)),
        st.builds(slice, st.integers(0, n), st.integers(0, n)),
    ))
    got = list(env.tail_groups(sites))
    want = list(per_key_tail_groups(env, sites))
    assert [k for k, _ in got] == [k for k, _ in want]
    for (_, a), (_, b) in zip(got, want):
        if isinstance(b, slice):
            assert a == b
        else:
            assert a.dtype == b.dtype
            np.testing.assert_array_equal(a, b)


@pytest.mark.parametrize("length", [0, 1, 6, 7, 8, 50])
def test_text_written_in_slices_round_trips(tmp_path, monkeypatch, length):
    # slices of 7 characters: none, one, a part and several, a ragged last one
    monkeypatch.setattr(environment, "_WRITE_SLICE", 7)
    text = "".join(f"{i % 10}\n" if i % 5 == 4 else str(i % 10) for i in range(length))
    path = tmp_path / "out.txt"
    environment._write_text(str(path), text, force=False)
    assert path.read_bytes() == text.encode()
    assert [p.name for p in tmp_path.iterdir()] == ["out.txt"]
