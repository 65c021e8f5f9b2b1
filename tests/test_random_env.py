import numpy as np
import pytest
from scipy import stats

import walklab as wl
from walklab import random_env
from walklab.errors import ValidationError


def iid_powerlaw_model(seed=7, choices=(2.5, 3.5)):
    return wl.RandomEnvModel(kind="iid", family="powerlaw", seed=seed, choices=choices)


def test_model_validation():
    with pytest.raises(ValidationError):
        wl.RandomEnvModel(kind="iid", family="powerlaw", seed=1, choices=(0.9, 3.0))
    with pytest.raises(ValidationError):
        wl.RandomEnvModel(kind="iid", family="lsv", seed=1, low=0.1, high=0.7)
    with pytest.raises(ValidationError):
        wl.RandomEnvModel(kind="weekly", family="powerlaw", seed=1, choices=(2.0,))
    with pytest.raises(ValidationError):
        wl.RandomEnvModel(kind="iid", family="powerlaw", seed=1, choices=(2.5,),
                          window=3)
    with pytest.raises(ValidationError):
        wl.RandomEnvModel(kind="markov", family="powerlaw", seed=1)


def test_iid_sampling_deterministic():
    a = wl.sample_environment(iid_powerlaw_model(), 50, tail_tol=1e-8)
    b = wl.sample_environment(iid_powerlaw_model(), 50, tail_tol=1e-8)
    np.testing.assert_array_equal(a.parameter_trace, b.parameter_trace)
    for x in range(51):
        np.testing.assert_array_equal(a.environment.site(x).values,
                                      b.environment.site(x).values)
    assert wl.env_json_text(a.environment) == wl.env_json_text(b.environment)


def test_shift_consistency_across_x_max():
    small = wl.sample_environment(iid_powerlaw_model(), 30, tail_tol=1e-8)
    large = wl.sample_environment(iid_powerlaw_model(), 31, tail_tol=1e-8)
    np.testing.assert_array_equal(small.parameter_trace,
                                  large.parameter_trace[:31])
    # lazily extending the small sample reproduces the large one
    np.testing.assert_array_equal(small.environment.site(31).values,
                                  large.environment.site(31).values)


GROWN_MODELS = {
    "iid-lsv": lambda: wl.RandomEnvModel(kind="iid", family="lsv", seed=3, low=0.2, high=0.35),
    "mdep-powerlaw": lambda: wl.RandomEnvModel(kind="m-dependent", family="powerlaw", seed=5,
                                               low=2.2, high=3.8, window=2),
    "markov-geometric": lambda: wl.RandomEnvModel(
        kind="markov", family="geometric", seed=21,
        chain=wl.MarkovChainSpec(states=(0.3, 0.6), transition=np.array([[0.8, 0.2], [0.3, 0.7]]))),
    "iid-choices": lambda: iid_powerlaw_model(choices=(2.5, 3.0, 3.5)),
}


@pytest.mark.parametrize("name", list(GROWN_MODELS))
def test_grown_environment_equals_direct_sample(name):
    model = GROWN_MODELS[name]()
    direct = wl.sample_environment(model, 80, tail_tol=1e-7).environment
    grown = wl.sample_environment(model, 3, tail_tol=1e-7).environment
    grown.ensure(30)  # growth in two ranges
    grown.ensure(80)
    np.testing.assert_array_equal(grown.tail_index, direct.tail_index)  # same sharing
    assert len(grown.tails) == len(direct.tails)
    for a, b in zip(grown.tails, direct.tails):
        assert a.values.tobytes() == b.values.tobytes()
        assert np.float64(a.deficit).tobytes() == np.float64(b.deficit).tobytes()
        assert a.cap_reached == b.cap_reached


def test_extension_steps_new_lsv_values_in_one_batch(monkeypatch):
    calls = []
    batch = random_env._lsv_tails
    monkeypatch.setattr(random_env, "_lsv_tails",
                        lambda params, *rest: calls.append(len(params)) or batch(params, *rest))
    model = wl.RandomEnvModel(kind="iid", family="lsv", seed=3, low=0.2, high=0.35)
    env = wl.sample_environment(model, 3, tail_tol=1e-6).environment
    env.ensure(40)
    assert calls == [4, 37]  # the sample, then sites 4..40 in one call
    two_point = wl.RandomEnvModel(kind="iid", family="lsv", seed=3, choices=(0.2, 0.35))
    env = wl.sample_environment(two_point, 30, tail_tol=1e-6).environment
    assert len(env.tails) == 2
    env.ensure(60)  # no new value, so no batch
    assert calls == [4, 37, 2] and len(env.tails) == 2


def test_seed_changes_sample():
    a = wl.sample_environment(iid_powerlaw_model(seed=7), 30, tail_tol=1e-8)
    b = wl.sample_environment(iid_powerlaw_model(seed=8), 30, tail_tol=1e-8)
    assert not np.array_equal(a.parameter_trace, b.parameter_trace)


def test_parameters_land_in_declared_set():
    sample = wl.sample_environment(iid_powerlaw_model(), 400, tail_tol=1e-6)
    assert set(np.unique(sample.parameter_trace)) <= {2.5, 3.5}
    model = wl.RandomEnvModel(kind="iid", family="lsv", seed=3, low=0.2, high=0.4)
    sample = wl.sample_environment(model, 100, tail_tol=1e-8)
    assert sample.parameter_trace.min() > 0.2
    assert sample.parameter_trace.max() < 0.4


def test_mdependent_locality():
    model = wl.RandomEnvModel(kind="m-dependent", family="powerlaw", seed=5,
                              low=2.2, high=3.8, window=2)
    sample = wl.sample_environment(model, 40, tail_tol=1e-6)
    # the site-x parameter is a function of the noise at sites x..x+2 only
    for x in range(41):
        window = [model._noise(x + j) for j in range(3)]
        expected = model._from_unit(sum(window) / 3.0)
        assert sample.parameter_trace[x] == expected
    assert model.mixing_descriptor() == {"type": "zero-beyond-lag", "lag": 2}


def test_mdependent_noise_drawn_once(monkeypatch):
    model = wl.RandomEnvModel(kind="m-dependent", family="powerlaw", seed=5,
                              low=2.2, high=3.8, window=3)
    drawn = []
    noise = wl.RandomEnvModel._noise
    monkeypatch.setattr(wl.RandomEnvModel, "_noise",
                        lambda self, x: drawn.append(x) or noise(self, x))
    sample = wl.sample_environment(model, 60, tail_tol=1e-6)
    assert sorted(drawn) == list(range(64))  # sites 0..60 plus the window beyond
    # the per-site formula at every site, the factory extension included
    for x in range(71):
        theta = model._from_unit(sum(noise(model, x + j) for j in range(4)) / 4.0)
        tail = wl.powerlaw_tail_sequence(theta, tail_tol=1e-6)
        assert sample.environment.site(x).values.tobytes() == tail.values.tobytes()


def test_iid_two_point_mean_matches_series_oracle():
    n_sites = 10_000
    sample = wl.sample_environment(iid_powerlaw_model(seed=12), n_sites - 1,
                                   n_cap=500, tail_tol=1e-14)
    diag = wl.diagnostics(sample.environment, sample.environment.model["beta_diag"])
    # direct series summation oracle for the two exponents, same truncation
    n = np.arange(501, dtype=np.float64) + 1.0
    m_lo, m_hi = float(np.sum(n**-2.5)), float(np.sum(n**-3.5))
    target = 0.5 * (m_lo + m_hi)
    spread = 0.5 * abs(m_lo - m_hi)
    se = spread / np.sqrt(n_sites)
    assert abs(diag.m.mean() - target) <= 3.0 * se


def test_stationarity_two_sample_ks():
    model = wl.RandomEnvModel(kind="iid", family="powerlaw", seed=9, low=2.0, high=4.0)
    sample = wl.sample_environment(model, 3999, n_cap=3, tail_tol=0.5)
    half = 2000
    ks = stats.ks_2samp(sample.parameter_trace[:half], sample.parameter_trace[half:])
    assert ks.statistic < 2.5 * np.sqrt(2.0 / half)


def test_markov_chain_model():
    spec = wl.MarkovChainSpec(states=(2.5, 3.5),
                              transition=np.array([[0.8, 0.2], [0.3, 0.7]]))
    assert spec.stationary() == pytest.approx([0.6, 0.4])
    assert 0.0 < spec.geometric_rate() < 1.0
    model = wl.RandomEnvModel(kind="markov", family="powerlaw", seed=21, chain=spec)
    a = wl.sample_environment(model, 60, tail_tol=1e-6)
    b = wl.sample_environment(model, 80, tail_tol=1e-6)
    np.testing.assert_array_equal(a.parameter_trace, b.parameter_trace[:61])
    assert set(np.unique(a.parameter_trace)) <= {2.5, 3.5}
    # long-run occupation approaches the stationary law
    big = wl.sample_environment(model, 5000, n_cap=3, tail_tol=0.5)
    frac = np.mean(big.parameter_trace == 2.5)
    assert abs(frac - 0.6) < 0.05
    assert model.mixing_descriptor()["type"] == "geometric"


@pytest.mark.parametrize("kind", ["iid", "markov"])
def test_equal_parameters_share_one_tail(kind):
    states = (2.5, 3.5)
    if kind == "markov":
        chain = wl.MarkovChainSpec(states=states,
                                   transition=np.array([[0.8, 0.2], [0.3, 0.7]]))
        model = wl.RandomEnvModel(kind=kind, family="powerlaw", seed=21, chain=chain)
    else:
        model = iid_powerlaw_model(choices=states)
    sample = wl.sample_environment(model, 60, tail_tol=1e-8)
    env = sample.environment
    tails = {theta: wl.powerlaw_tail_sequence(theta, tail_tol=1e-8) for theta in states}
    for theta, site in zip(sample.parameter_trace, env.sites()):
        assert site.values.tobytes() == tails[theta].values.tobytes()
        assert site.deficit == tails[theta].deficit
    assert wl.env_json_text(env).count('"omega"') == 2  # each distinct tail once
    env.site(90)  # factory extension reuses the same two tails
    assert len({id(site) for site in env.sites()}) == 2


def test_markov_spec_validation():
    with pytest.raises(ValidationError):
        wl.MarkovChainSpec(states=(2.5,), transition=np.array([[1.0]]))
    with pytest.raises(ValidationError):
        wl.MarkovChainSpec(states=(2.5, 3.5),
                           transition=np.array([[1.0, 0.0], [0.3, 0.7]]))


def test_moment_report_constant_model():
    model = wl.RandomEnvModel(kind="iid", family="powerlaw", seed=2, choices=(3.0,))
    sample = wl.sample_environment(model, 200, tail_tol=1e-10)
    rep = wl.moment_report(sample, q=9.0)
    diag = wl.diagnostics(sample.environment, 3.0)
    assert rep.a_moment == pytest.approx(float(diag.A[0] ** 9.0), rel=1e-12)
    assert rep.q_above_8 and rep.mixing_ok
    assert rep.b_kind == "A_prime"  # beta_star = 3 is in the heavy regime
    assert rep.required_v == pytest.approx(18.0)


def test_moment_report_bounded_model_passes_any_q():
    sample = wl.sample_environment(iid_powerlaw_model(seed=4, choices=(3.2, 3.8)),
                                   300, tail_tol=1e-10)
    rep = wl.moment_report(sample, q=12.0)
    assert np.isfinite(rep.a_moment) and np.isfinite(rep.b_moment)
    assert rep.b_kind == "A"  # beta_star > 3
    assert np.isfinite(rep.k_mean)
    assert rep.mixing_ok


def test_moment_report_mdependent_mixing():
    model = wl.RandomEnvModel(kind="m-dependent", family="powerlaw", seed=6,
                              low=2.5, high=3.5, window=3)
    sample = wl.sample_environment(model, 150, tail_tol=1e-8)
    rep = wl.moment_report(sample, q=9.0)
    assert rep.mixing ==  {"type": "zero-beyond-lag", "lag": 3}
    assert rep.mixing_ok
    low_q = wl.moment_report(sample, q=4.0)
    assert not low_q.q_above_8 and not low_q.mixing_ok


def test_mdependent_unit_noise_is_bates():
    # the mean of m+1 uniforms has variance 1/(12(m+1)): uniform only at m = 0
    for m in (0, 3):
        model = wl.RandomEnvModel(kind="m-dependent", family="powerlaw", seed=8,
                                  low=2.0, high=4.0, window=m)
        unit = (np.array([model.site_parameter(x) for x in range(4000)]) - 2.0) / 2.0
        assert unit.var() == pytest.approx(1.0 / (12.0 * (m + 1)), rel=0.1)
