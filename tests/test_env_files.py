"""Environment files of a builder descriptor and a tails digest: `walklab env`
writes them, ``load_env_file`` rebuilds them bit for bit, and reports read
them as they read files of values.  A file that does not rebuild to its
digest exits 3; a malformed descriptor exits 2."""

import json

import numpy as np
import pytest

import walklab as wl
from walklab import environment
from walklab.cli import main
from walklab.errors import RebuildError


def run(*argv):
    return main([str(a) for a in argv])


def markov(family, states, seed):
    trans = np.array([[0.6, 0.4], [0.4, 0.6]])  # `--stay 0.6` over two states
    return wl.RandomEnvModel(kind="markov", family=family, seed=seed,
                             chain=wl.MarkovChainSpec(states, trans))


def sampled(model, x_max, tail_tol):
    return lambda: wl.sample_environment(model, x_max, tail_tol=tail_tol).environment


def geometric(r, x_max, beta_diag):
    env = wl.env_geometric(r, x_max, tail_tol=1e-14)
    env.model["beta_diag"] = beta_diag  # as `walklab env` records it
    return env


RANDOM = ["--xmax", "20", "--tail-tol", "1e-9", "--seed", "5"]
RANDOM_LSV = ["--xmax", "20", "--tail-tol", "1e-6", "--seed", "5"]  # lsv tails are long

# argv of `walklab env` without --out, and the same environment built directly
CASES = {
    "geometric": (["--family", "geometric", "--r", "0.5", "--xmax", "120", "--tail-tol", "1e-14"],
                  lambda: geometric(0.5, 120, 3.0)),
    "geometric-beta-diag": (["--family", "geometric", "--r", "0.3", "--xmax", "4",
                             "--tail-tol", "1e-14", "--beta-diag", "4.5"],
                            lambda: geometric(0.3, 4, 4.5)),
    "powerlaw-capped": (["--family", "powerlaw", "--beta", "2.5", "--xmax", "10", "--ncap", "40",
                         "--tail-tol", "1e-9"],
                        lambda: wl.env_from_powerlaw(2.5, 10, n_cap=40, tail_tol=1e-9)),
    "lsv-c": (["--family", "lsv", "--alpha", "0.33", "--c", "0.5", "--xmax", "5",
               "--tail-tol", "1e-6"],
              lambda: wl.env_from_lsv(wl.LsvParams.from_alpha_c(0.33, 0.5), 5, tail_tol=1e-6)),
    "lsv-kappa": (["--family", "lsv", "--alpha", "0.5", "--kappa", "1.5", "--xmax", "5",
                   "--tail-tol", "1e-6"],
                  lambda: wl.env_from_lsv(wl.LsvParams.from_alpha_kappa(0.5, 1.5), 5,
                                          tail_tol=1e-6)),
    "iid-powerlaw": (["--random", "iid-powerlaw", "--range", "2.5,3.5", *RANDOM],
                     sampled(wl.RandomEnvModel(kind="iid", family="powerlaw", seed=5,
                                               low=2.5, high=3.5), 20, 1e-9)),
    "iid-geometric": (["--random", "iid-geometric", "--choices", "0.3,0.6", *RANDOM],
                      sampled(wl.RandomEnvModel(kind="iid", family="geometric", seed=5,
                                                choices=(0.3, 0.6)), 20, 1e-9)),
    "iid-lsv": (["--random", "iid-lsv", "--range", "0.3,0.4", *RANDOM_LSV],
                sampled(wl.RandomEnvModel(kind="iid", family="lsv", seed=5,
                                          low=0.3, high=0.4), 20, 1e-6)),
    "mdep-powerlaw": (["--random", "mdep-powerlaw", "--range", "2.5,3.5", "--window", "3",
                       *RANDOM],
                      sampled(wl.RandomEnvModel(kind="m-dependent", family="powerlaw", seed=5,
                                                low=2.5, high=3.5, window=3), 20, 1e-9)),
    "mdep-geometric": (["--random", "mdep-geometric", "--range", "0.2,0.7", "--window", "2",
                        "--beta-diag", "5", *RANDOM],
                       sampled(wl.RandomEnvModel(kind="m-dependent", family="geometric", seed=5,
                                                 low=0.2, high=0.7, window=2, beta_diag=5.0),
                               20, 1e-9)),
    "mdep-lsv": (["--random", "mdep-lsv", "--range", "0.3,0.4", "--window", "1", "--c", "0.4",
                  *RANDOM_LSV],
                 sampled(wl.RandomEnvModel(kind="m-dependent", family="lsv", seed=5, low=0.3,
                                           high=0.4, window=1, lsv_c=0.4), 20, 1e-6)),
    "markov-powerlaw": (["--random", "markov-powerlaw", "--choices", "2.5,3.5", *RANDOM],
                        sampled(markov("powerlaw", (2.5, 3.5), 5), 20, 1e-9)),
    "markov-geometric": (["--random", "markov-geometric", "--choices", "0.3,0.6", *RANDOM],
                         sampled(markov("geometric", (0.3, 0.6), 5), 20, 1e-9)),
    "markov-lsv": (["--random", "markov-lsv", "--choices", "0.3,0.4", *RANDOM_LSV],
                   sampled(markov("lsv", (0.3, 0.4), 5), 20, 1e-6)),
}


def env_file(tmp_path, name):
    path = tmp_path / f"{name}.json"
    assert run("env", *CASES[name][0], "--out", path) == 0
    return path


def assert_same(loaded, built):
    assert loaded.model == built.model
    assert loaded.tail_index.tolist() == built.tail_index.tolist()
    assert len(loaded.tails) == len(built.tails)
    for s, t in zip(loaded.tails, built.tails):
        assert s.values.tobytes() == t.values.tobytes()
        assert np.float64(s.deficit).tobytes() == np.float64(t.deficit).tobytes()
        assert s.cap_reached == t.cap_reached


@pytest.mark.parametrize("name", list(CASES))
def test_descriptor_file_rebuilds_the_direct_build(tmp_path, name):
    path = env_file(tmp_path, name)
    payload = json.loads(path.read_text())
    assert set(payload) == {"model", "tails_sha256"}
    loaded = wl.load_env_file(str(path))
    built = CASES[name][1]()
    assert_same(loaded, built)
    # like a file of values, a rebuilt environment has no generator
    with pytest.raises(wl.ValidationError, match="beyond the materialized range"):
        loaded.site(len(loaded))


def test_capped_sites_survive_the_rebuild(tmp_path):
    loaded = wl.load_env_file(str(env_file(tmp_path, "powerlaw-capped")))
    assert loaded.model["capped_sites"] == "all" and loaded.site(3).cap_reached


def value_file(tmp_path, path):
    """A file of values of the environment in the descriptor file ``path``."""
    values = tmp_path / f"{path.stem}-values.json"
    values.write_text(wl.env_json_text(wl.load_env_file(str(path))))
    assert "sites" in json.loads(values.read_text())
    return values


@pytest.mark.parametrize("name", ["geometric", "mdep-powerlaw", "markov-geometric"])
def test_exact_writes_the_same_bytes_from_both_forms(tmp_path, name):
    path = env_file(tmp_path, name)
    outputs = []
    for source in (path, value_file(tmp_path, path)):
        out = tmp_path / f"{source.stem}.csv"
        assert run("exact", "--env", source, "--n", "12", "--out", out) == 0
        outputs.append(out.read_bytes())
    assert outputs[0] == outputs[1]


REPORTS = {
    "llt": ["--n-grid", "20,40"],
    "clt": ["--n-grid", "20,40"],
    "mc": ["--paths", "50", "--n", "20", "--seed", "3"],
    "slln": ["--paths", "20", "--horizon", "30", "--seed", "3"],
}


@pytest.mark.parametrize("command", list(REPORTS))
def test_reports_write_the_same_bytes_from_both_forms(tmp_path, command):
    path = env_file(tmp_path, "geometric")
    outputs = []
    for source in (path, value_file(tmp_path, path)):
        out = tmp_path / f"{source.stem}.{command}"
        assert run(command, "--env", source, *REPORTS[command], "--out", out) == 0
        outputs.append(out.read_bytes())
    assert outputs[0] == outputs[1]


def test_dynsys_writes_the_same_bytes_from_both_forms(tmp_path):
    path = env_file(tmp_path, "geometric")
    outputs = []
    for source in (path, value_file(tmp_path, path)):
        names = [tmp_path / f"{source.stem}-{kind}" for kind in ("hist", "levels", "summary")]
        assert run("dynsys", "--env", source, "--paths", "40", "--n", "10", "--seed", "2",
                   "--out-hist", names[0], "--out-levels", names[1],
                   "--out-summary", names[2]) == 0
        outputs.append([p.read_bytes() for p in names])
    assert outputs[0] == outputs[1]


def edit(path, change):
    payload = json.loads(path.read_text())
    change(payload)
    path.write_text(json.dumps(payload))


def flip_digit(payload):
    digest = payload["tails_sha256"]
    payload["tails_sha256"] = ("1" if digest[0] != "1" else "2") + digest[1:]


def new_seed(payload):
    payload["model"]["random"]["seed"] += 1


def new_beta_diag(payload):
    payload["model"]["beta_diag"][3] += 0.25


def stray_key(payload):
    payload["model"]["note"] = "kept"


@pytest.mark.parametrize("name, change", [
    ("geometric", flip_digit), ("mdep-powerlaw", flip_digit), ("iid-powerlaw", new_seed),
    ("mdep-powerlaw", new_beta_diag), ("lsv-c", stray_key),
])
def test_file_that_does_not_rebuild_exits_3(tmp_path, capsys, name, change):
    path = env_file(tmp_path, name)
    edit(path, change)
    out = tmp_path / "o.csv"
    capsys.readouterr()
    assert run("exact", "--env", path, "--n", "5", "--out", out) == 3
    err = capsys.readouterr().err
    assert err.startswith("error: ") and str(path) in err
    assert not out.exists()
    with pytest.raises(RebuildError):
        wl.load_env_file(str(path))


def model_entry(**entries):
    return lambda payload: payload["model"].update(entries)


def drop_x_max(payload):
    del payload["model"]["x_max"]


def chain_entry(**entries):
    return lambda payload: payload["model"]["random"]["chain"].update(entries)


def string_seed(payload):
    payload["model"]["random"]["seed"] = str(payload["model"]["random"]["seed"])


@pytest.mark.parametrize("name, change", [
    ("geometric", drop_x_max),
    ("geometric", model_entry(x_max=-1)),
    ("lsv-c", model_entry(x_max=True)),
    ("powerlaw-capped", model_entry(family="cauchy")),
    ("iid-geometric", string_seed),
    ("geometric", lambda payload: payload.update(model=[1, 2])),
    ("markov-powerlaw", chain_entry(transition=[[0.6, 0.4], [0.4]])),
    ("markov-powerlaw", chain_entry(states=["a", 3.5])),
    ("iid-geometric", lambda payload: payload["model"]["random"].update(choices=["a", 0.6])),
    ("geometric", model_entry(r="x")),
], ids=["missing-x_max", "negative-x_max", "bool-x_max", "unknown-family", "string-seed",
        "model-not-object", "ragged-transition", "text-states", "text-choices", "text-r"])
def test_malformed_descriptor_exits_2(tmp_path, capsys, name, change):
    path = env_file(tmp_path, name)
    edit(path, change)
    out = tmp_path / "o.csv"
    capsys.readouterr()
    assert run("exact", "--env", path, "--n", "5", "--out", out) == 2
    assert capsys.readouterr().err.startswith("error: ")
    assert not out.exists()
    with pytest.raises(wl.ValidationError):
        wl.load_env_file(str(path))


def test_missing_beta_diag_is_found_before_the_build(tmp_path, monkeypatch):
    # a file may state any x_max, so a key it lacks is found before the long build
    path = env_file(tmp_path, "geometric")
    edit(path, lambda payload: payload["model"].pop("beta_diag"))

    def build(*args):
        raise AssertionError("the environment was built before its descriptor was read")

    monkeypatch.setattr(environment, "env_geometric", build)
    with pytest.raises(wl.ValidationError, match="beta_diag"):
        wl.load_env_file(str(path))


def test_environment_without_a_builder_writes_values(tmp_path):
    tails = [wl.TailSequence([1.0, 0.5, 0.25], deficit=0.125), wl.TailSequence([1.0, 0.25])]
    env = wl.Environment([tails[0], tails[1], tails[0]], model={"beta_diag": 3.0})
    path = tmp_path / "hand.json"
    wl.write_env_file(env, str(path))
    payload = json.loads(path.read_text())
    assert "tails_sha256" not in payload and payload["sites"][2] == 0
    loaded = wl.load_env_file(str(path))
    assert loaded.tail_index.tolist() == [0, 1, 0]
    assert loaded.site(0).deficit == 0.125 and loaded.site(1).values.tolist() == [1.0, 0.25]
