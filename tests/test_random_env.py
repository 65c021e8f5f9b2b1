import numpy as np
import pytest
from scipy import stats

import walklab as wl
from walklab import cli, environment, random_env
from walklab.errors import ValidationError
from walklab.streams import stream


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


def random_model(kind, family):
    low, high = {"powerlaw": (2.2, 3.8), "geometric": (0.3, 0.6), "lsv": (0.2, 0.35)}[family]
    if kind == "markov":
        return wl.RandomEnvModel(kind=kind, family=family, seed=13, chain=wl.MarkovChainSpec(
            states=(low, high), transition=np.array([[0.8, 0.2], [0.3, 0.7]])))
    return wl.RandomEnvModel(kind=kind, family=family, seed=13, low=low, high=high,
                             window=2 if kind == "m-dependent" else 0)


def random_builder(kind, family, n_cap=wl.DEFAULT_N_CAP):
    return lambda x_max, tail_tol=1e-6: wl.sample_environment(
        random_model(kind, family), x_max, n_cap=n_cap, tail_tol=tail_tol).environment


# (x_max, tail_tol) -> environment, each family's constant builder and every random model
BUILDERS = {
    "geometric": lambda x_max, tail_tol=1e-6: wl.env_geometric(0.5, x_max, tail_tol=tail_tol),
    "geometric-capped": lambda x_max, tail_tol=1e-6: wl.env_geometric(
        0.5, x_max, n_cap=5, tail_tol=tail_tol),
    "powerlaw": lambda x_max, tail_tol=1e-6: wl.env_from_powerlaw(3.0, x_max, tail_tol=tail_tol),
    "lsv": lambda x_max, tail_tol=1e-6: wl.env_from_lsv(
        wl.LsvParams.from_alpha_c(0.33, 0.5), x_max, tail_tol=tail_tol),
    **{f"{kind}-{family}": random_builder(kind, family)
       for kind in ("iid", "m-dependent", "markov") for family in ("powerlaw", "geometric", "lsv")},
    # beta below 3 needs more than 100 values at tail_tol 1e-6, so some sites are capped
    "iid-powerlaw-capped": random_builder("iid", "powerlaw", n_cap=100),
}


@pytest.mark.parametrize("name", list(BUILDERS))
def test_grown_environment_file_equals_direct_build(name):
    grown = BUILDERS[name](3)
    grown.ensure(20)
    grown.ensure(40)
    assert wl.env_json_text(grown) == wl.env_json_text(BUILDERS[name](40))
    if name.endswith("-capped"):
        assert grown.model["capped_sites"]


@pytest.mark.parametrize("name", ["geometric", "iid-geometric", "markov-geometric"])
def test_reports_run_on_a_grown_environment_file(tmp_path, name):
    env = BUILDERS[name](3, tail_tol=1e-14)
    env.ensure(40)
    path = tmp_path / "grown.json"
    wl.write_env_file(env, str(path))
    for command in ("llt", "clt"):
        assert cli.main([command, "--env", str(path), "--n-grid", "10,20", "--mu", "2",
                         "--sigma2", "2", "--trunc-tol", "1e-8",
                         "--out", str(tmp_path / command)]) == 0


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


def noise(seed, x):
    """The per-site definition of a sampled site's noise."""
    return stream(seed, "env-noise", x).random()


def test_mdependent_locality():
    model = wl.RandomEnvModel(kind="m-dependent", family="powerlaw", seed=5,
                              low=2.2, high=3.8, window=2)
    sample = wl.sample_environment(model, 40, tail_tol=1e-6)
    # the site-x parameter is a function of the noise at sites x..x+2 only
    for x in range(41):
        unit = sum(noise(5, x + j) for j in range(3)) / 3.0
        assert sample.parameter_trace[x] == 2.2 + (3.8 - 2.2) * unit
    assert model.mixing_descriptor() == {"type": "zero-beyond-lag", "lag": 2}


NOISE_MODELS = {
    "iid": dict(kind="iid", family="powerlaw", seed=5, choices=(2.2, 3.0, 3.8)),
    "m-dependent": dict(kind="m-dependent", family="powerlaw", seed=5, low=2.2, high=3.8,
                        window=3),
    "markov": dict(kind="markov", family="powerlaw", seed=5, chain=wl.MarkovChainSpec(
        states=(2.2, 3.8), transition=np.array([[0.8, 0.2], [0.3, 0.7]]))),
}


def per_site_parameters(model, x_max):
    """Sites 0..x_max's parameters from the per-site noise, one site at a time."""
    if model.kind == "markov":
        spec, state = model.chain, None
        out = []
        for x in range(x_max + 1):
            law = spec.stationary() if state is None else spec.transition[state]
            state = min(int(np.searchsorted(np.cumsum(law), noise(model.seed, x), side="right")),
                        len(spec.states) - 1)
            out.append(spec.states[state])
        return out
    m = model.window
    units = [sum(noise(model.seed, x + j) for j in range(m + 1)) / (m + 1)
             for x in range(x_max + 1)]
    if model.choices is None:
        return [model.low + (model.high - model.low) * v for v in units]
    k = len(model.choices)
    return [model.choices[min(int(v * k), k - 1)] for v in units]


@pytest.mark.parametrize("name", list(NOISE_MODELS))
def test_noise_drawn_once(monkeypatch, name):
    model = wl.RandomEnvModel(**NOISE_MODELS[name])
    drawn = []
    batch = random_env._first_uniforms
    monkeypatch.setattr(random_env, "_first_uniforms",
                        lambda seed, component, xs: drawn.append(list(xs)) or batch(seed, component, xs))
    sample = wl.sample_environment(model, 60, tail_tol=1e-6)
    m = model.window
    assert drawn == [list(range(61 + m))]  # sites 0..60 plus the window beyond, in one batch
    # the per-site definition at every site, the factory extension included
    theta = per_site_parameters(model, 70)
    assert sample.parameter_trace.tolist() == theta[:61]
    for x in range(71):
        tail = wl.powerlaw_tail_sequence(theta[x], tail_tol=1e-6)
        assert sample.environment.site(x).values.tobytes() == tail.values.tobytes()
    # each site of the extension (one range per site here) drew only the noise it lacked
    assert len(drawn) == 11 and sum(drawn, []) == list(range(71 + m))


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


def test_markov_states_of_one_value_follow_the_declared_chain():
    # states 0 and 1 both hold 2.5: the next site's law is the row of the
    # state, not of the first state holding its value (which gives 0.80 here)
    spec = wl.MarkovChainSpec(states=(2.5, 2.5, 3.5), transition=np.array(
        [[0.1, 0.1, 0.8], [0.1, 0.8, 0.1], [0.45, 0.45, 0.1]]))
    model = wl.RandomEnvModel(kind="markov", family="powerlaw", seed=3, chain=spec)
    trace = wl.sample_environment(model, 19_999, tail_tol=1e-6).parameter_trace
    pi = spec.stationary()
    lumped = (0.8 * pi[0] + 0.1 * pi[1]) / (pi[0] + pi[1])  # P(3.5 | 2.5) = 0.262
    after = trace[1:][trace[:-1] == 2.5]
    # each within 5 standard deviations of a binomial over the sites it counts
    assert abs(np.mean(after == 3.5) - lumped) <= 5 * np.sqrt(lumped * (1 - lumped) / after.size)
    share = np.mean(trace == 3.5)
    assert abs(share - pi[2]) <= 5 * np.sqrt(pi[2] * (1 - pi[2]) / trace.size)


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


def test_mdependent_unit_noise_is_bates():
    # the mean of m+1 uniforms has variance 1/(12(m+1)): uniform only at m = 0
    for m in (0, 3):
        model = wl.RandomEnvModel(kind="m-dependent", family="powerlaw", seed=8,
                                  low=2.0, high=4.0, window=m)
        trace = wl.sample_environment(model, 3999, n_cap=3, tail_tol=0.5).parameter_trace
        unit = (trace - 2.0) / 2.0
        assert unit.var() == pytest.approx(1.0 / (12.0 * (m + 1)), rel=0.1)


# sha256 of the tails (environment._tails_sha256) of sites 0..50 at tail_tol 1e-6: the
# first six recorded when every site's noise came from its own stream(seed, "env-noise", x),
# the last three when the Markov kind still did so and the other kinds drew it per range
TWO_STATE = np.array([[0.8, 0.2], [0.3, 0.7]])
GOLDEN_MODELS = {
    "iid-powerlaw": (dict(kind="iid", family="powerlaw", seed=3, low=2.2, high=3.8),
                     "dd409d737c1264274f5c465abd584b38a90d9571a983f417a3a57c45b8ceaab0"),
    "iid-lsv": (dict(kind="iid", family="lsv", seed=4, low=0.2, high=0.35),
                "fd59bb0d784a97025bac53f1e0710bea5c0302c50e799cd9f846d6a4c54471ad"),
    "m-dependent-geometric": (
        dict(kind="m-dependent", family="geometric", seed=5, low=0.3, high=0.6, window=2),
        "131a401c040abc6abef0143705f3620c625f5344346dd4c9c3d38bc0cef96100"),
    "m-dependent-lsv": (
        dict(kind="m-dependent", family="lsv", seed=6, low=0.2, high=0.35, window=3),
        "74fc63671438edeb1937e8410451bee968cb26cbe4da50b30c87599101808aed"),
    "markov-powerlaw": (
        dict(kind="markov", family="powerlaw", seed=7,
             chain=wl.MarkovChainSpec(states=(2.5, 3.5), transition=TWO_STATE)),
        "06c009ac248d3d64350f183a3e0ee30abec05f560efbb0503e43250acd31316a"),
    "markov-geometric": (
        dict(kind="markov", family="geometric", seed=8,
             chain=wl.MarkovChainSpec(states=(0.3, 0.6), transition=TWO_STATE)),
        "87d9cd014fb0a5b9dd4a6944428342ab9e18803efd2048b10a52d5e38111e63b"),
    "iid-choices": (dict(kind="iid", family="powerlaw", seed=9, choices=(2.5, 3.0, 3.5)),
                    "9c504a5e90ffb6f7b0a8e4ee7d79847237e486da78753a04665768e74aa164fc"),
    "m-dependent-choices": (
        dict(kind="m-dependent", family="geometric", seed=10, choices=(0.3, 0.45, 0.6), window=2),
        "bdb737b6cb15832c60128755a1a80d53be4679ae61620bed27512fc1ad9fae46"),
    "markov-repeated-state": (
        dict(kind="markov", family="powerlaw", seed=11, chain=wl.MarkovChainSpec(
            states=(2.5, 2.5, 3.5),
            transition=np.array([[0.1, 0.1, 0.8], [0.1, 0.8, 0.1], [0.45, 0.45, 0.1]]))),
        "87621272b339517b3f3bd4528ef99f3f7c628cc149fa448b230e4e253fe9a78f"),
}


@pytest.mark.parametrize("name", list(GOLDEN_MODELS))
def test_sampled_tails_keep_their_golden_digest(name):
    kwargs, digest = GOLDEN_MODELS[name]
    env = wl.sample_environment(wl.RandomEnvModel(**kwargs), 50, tail_tol=1e-6).environment
    assert environment._tails_sha256(env) == digest
