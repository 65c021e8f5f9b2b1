import hashlib
import json
import os
import stat
import subprocess
import sys
import threading
import time

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from walklab import environment, load_env_file, position_distribution
from walklab import cli
from walklab.cli import main


def run(*argv):
    return main([str(a) for a in argv])


SCALARS = st.one_of(st.none(), st.booleans(), st.integers(), st.floats(), st.text())
PAYLOADS = st.recursive(SCALARS, lambda inner: st.one_of(
    st.lists(inner, max_size=5), st.lists(inner, max_size=5).map(tuple),
    st.dictionaries(st.text(), inner, max_size=5),
    st.dictionaries(st.integers() | st.floats(allow_nan=False), inner, max_size=5),
    st.dictionaries(st.booleans(), inner)), max_leaves=20)


@settings(max_examples=100, deadline=None)
@given(payload=PAYLOADS)
@example(payload=[[], {}, [[]], {"a": {}}, [float("nan"), -float("inf")]])
@example(payload={"b": [1, {"c": None}], "a": "\\\"\n\u00e9", "": True})
def test_json_text_equals_indented_dumps(payload):
    # NaN, infinities, None, bools, escaped strings, scalar keys, empty
    # containers, at any depth: the bytes of json.dumps(indent=1)
    assert cli._json_text(payload) == json.dumps(payload, sort_keys=True, indent=1)


@pytest.fixture()
def geo_env_file(tmp_path):
    path = tmp_path / "geo.json"
    assert run("env", "--family", "geometric", "--r", "0.5", "--xmax", "100",
               "--tail-tol", "1e-14", "--out", path) == 0
    return path


@pytest.fixture()
def geo_big_env_file(tmp_path):
    # report commands walk sites well past n/mu; give them room
    path = tmp_path / "geobig.json"
    assert run("env", "--family", "geometric", "--r", "0.5", "--xmax", "1200",
               "--tail-tol", "1e-14", "--out", path) == 0
    return path


def test_env_geometric_outputs(tmp_path, geo_env_file):
    assert geo_env_file.exists()
    payload = json.loads(geo_env_file.read_text())
    assert "sites" not in payload and payload["model"]["x_max"] == 100
    loaded = load_env_file(str(geo_env_file))
    assert len(loaded) == 101
    assert loaded.site(0).values[1] == 0.5
    diag_path = tmp_path / "geo-diagnostics.csv"
    lines = diag_path.read_text().splitlines()
    assert lines[0] == "x,A,A_prime,K,m,s2,mu,sigma2"
    assert len(lines) == 102
    mtable = (tmp_path / "geo-mtable.csv").read_text().splitlines()
    assert mtable[0] == "n,M"
    assert mtable[1] == "0,0"


def test_env_lsv_solves_kappa(tmp_path):
    path = tmp_path / "lsv.json"
    assert run("env", "--family", "lsv", "--alpha", "0.33", "--c", "0.5",
               "--xmax", "10", "--out", path) == 0
    payload = json.loads(path.read_text())
    kappa = payload["model"]["params"]["kappa"]
    assert abs(0.5 + kappa * 0.5 ** 1.33 - 1.0) < 1e-12


def test_env_random_byte_identical(tmp_path):
    out1, out2 = tmp_path / "a.json", tmp_path / "b.json"
    args = ("env", "--random", "iid-powerlaw", "--choices", "2.5,3.5",
            "--seed", "7", "--xmax", "60", "--tail-tol", "1e-8")
    assert run(*args, "--out", out1) == 0
    assert run(*args, "--out", out2) == 0
    assert out1.read_bytes() == out2.read_bytes()
    d1 = (tmp_path / "a-diagnostics.csv").read_bytes()
    d2 = (tmp_path / "b-diagnostics.csv").read_bytes()
    assert d1 == d2


def test_env_random_requires_seed(tmp_path):
    code = run("env", "--random", "iid-powerlaw", "--choices", "2.5,3.5",
               "--xmax", "10", "--out", tmp_path / "x.json")
    assert code == 2


def test_exact_n0(tmp_path, geo_env_file):
    out = tmp_path / "x0.csv"
    assert run("exact", "--env", geo_env_file, "--n", "0", "--out", out) == 0
    lines = out.read_text().splitlines()
    assert lines == ["x,prob,deficit_bound", "0,1,0"]


def test_exact_matches_library(tmp_path, geo_env_file):
    out = tmp_path / "x2.csv"
    assert run("exact", "--env", geo_env_file, "--n", "2", "--out", out) == 0
    rows = out.read_text().splitlines()[1:]
    probs = [float(r.split(",")[1]) for r in rows]
    assert probs == pytest.approx([0.25, 0.5, 0.25], abs=1e-12)


def test_mc_requires_seed(tmp_path, geo_env_file):
    with pytest.raises(SystemExit) as err:
        run("mc", "--env", geo_env_file, "--paths", "10", "--n", "5",
            "--out", tmp_path / "mc.csv")
    assert err.value.code == 2


def test_mc_endpoint(tmp_path, geo_env_file):
    out = tmp_path / "mc.csv"
    assert run("mc", "--env", geo_env_file, "--paths", "2000", "--n", "2",
               "--seed", "3", "--out", out) == 0
    rows = out.read_text().splitlines()
    assert rows[0] == "x,count,paths"
    counts = {int(r.split(",")[0]): int(r.split(",")[1]) for r in rows[1:]}
    assert sum(counts.values()) == 2000
    assert abs(counts[1] / 2000 - 0.5) < 0.05


def test_dynsys_summary(tmp_path, geo_env_file):
    hist, levels, summary = (tmp_path / n for n in ("h.csv", "l.csv", "s.json"))
    assert run("dynsys", "--env", geo_env_file, "--paths", "20000", "--n", "10",
               "--seed", "5", "--out-hist", hist, "--out-levels", levels,
               "--out-summary", summary) == 0
    payload = json.loads(summary.read_text())
    row = payload["rows"][0]
    assert row["tv_cells"] <= row["tolerance"]
    assert hist.read_text().splitlines()[0] == "n,x,count,paths"
    assert levels.read_text().splitlines()[0] == "n,x,y,count,paths"


def test_llt_report_file(tmp_path, geo_big_env_file):
    out = tmp_path / "llt.json"
    assert run("llt", "--env", geo_big_env_file, "--n-grid", "40,160",
               "--mu", "2", "--sigma2", "2", "--trunc-tol", "1e-14",
               "--out", out) == 0
    reports = json.loads(out.read_text())
    assert [r["n"] for r in reports] == [40, 160]
    assert reports[1]["sup_err_scaled"] < reports[0]["sup_err_scaled"]
    assert {"x", "exact", "pred_lo", "pred_hi", "E1", "E2", "E3"} <= set(reports[0]["rows"][1])


def test_clt_report_file(tmp_path, geo_big_env_file):
    out = tmp_path / "clt.csv"
    assert run("clt", "--env", geo_big_env_file, "--n-grid", "32,128",
               "--mu", "2", "--sigma2", "2", "--out", out) == 0
    lines = out.read_text().splitlines()
    assert lines[0] == "n,kolmogorov_X,x,kolmogorov_T"
    k32 = float(lines[1].split(",")[1])
    k128 = float(lines[2].split(",")[1])
    assert k128 < k32


def test_slln_report_file(tmp_path, geo_big_env_file):
    out = tmp_path / "slln.csv"
    assert run("slln", "--env", geo_big_env_file, "--paths", "200", "--horizon", "1200",
               "--seed", "9", "--mu", "2", "--sigma2", "2", "--out", out) == 0
    lines = out.read_text().splitlines()
    assert lines[0] == "n,mean_ratio,frac_within"
    final = lines[-1].split(",")
    assert abs(float(final[1]) - 0.5) < 0.02
    # the exact P(|X_n/n - 1/2| < 0.02) is only ~0.825 at this short horizon,
    # so check the fraction two-sided against it, within 4 sigma of 200 paths
    law = position_distribution(load_env_file(geo_big_env_file), 1200)
    p = float(law.probs[np.abs(law.support / 1200 - 0.5) < 0.02].sum())
    assert abs(float(final[2]) - p) <= 4.0 * np.sqrt(p * (1.0 - p) / 200)


def test_exit_code_validation(tmp_path):
    assert run("env", "--family", "geometric", "--r", "1.5", "--xmax", "5",
               "--out", tmp_path / "bad.json") == 2
    assert run("env", "--family", "geometric", "--xmax", "5",
               "--out", tmp_path / "bad.json") == 2
    for bounds in ("2.5,3,3.5", "2.5"):
        assert run("env", "--random", "iid-powerlaw", "--range", bounds, "--seed", "1",
                   "--xmax", "5", "--out", tmp_path / "r.json") == 2
    assert not (tmp_path / "r.json").exists()


@pytest.mark.parametrize("beta", ["nan", "inf"])
def test_env_refuses_non_finite_beta_diag(tmp_path, capsys, beta):
    assert run("env", "--family", "geometric", "--r", "0.5", "--xmax", "5",
               "--beta-diag", beta, "--out", tmp_path / "g.json") == 2
    assert "error: beta(x) must be finite and exceed 1" in capsys.readouterr().err
    assert list(tmp_path.iterdir()) == []


def test_env_refuses_oversized_m_table(tmp_path, capsys):
    # beta_diag 1 + 1e-7 bounds the unstored tail means at about 1e7 per site:
    # the M table would take 839 MiB, twice over, before the CSV
    start = time.perf_counter()
    assert run("env", "--family", "powerlaw", "--beta", "1.0000001", "--xmax", "10",
               "--out", tmp_path / "p.json") == 2
    assert time.perf_counter() - start <= 2.0
    err = capsys.readouterr().err
    assert "error: the M table would hold 109,998,907 entries" in err and "beta_diag" in err
    assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize("argv, error", [
    (["--family", "powerlaw", "--beta", "nan"], "power-law exponent beta must exceed 1"),
    (["--random", "iid-powerlaw", "--choices", "3,nan", "--seed", "1"],
     "powerlaw parameters must lie in (1.0, inf)"),
    (["--random", "markov-lsv", "--choices", "nan,0.3", "--seed", "1"],
     "lsv parameters must lie in (0.0, 0.5)"),
    (["--family", "lsv", "--alpha", "0.3", "--kappa", "nan"], "kappa must be positive"),
], ids=["beta", "choices", "markov-choices", "kappa"])
def test_env_refuses_nan_parameters(tmp_path, capsys, argv, error):
    assert run("env", *argv, "--xmax", "5", "--out", tmp_path / "e.json") == 2
    assert f"error: {error}" in capsys.readouterr().err
    assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize("tol", ["2", "-1", "nan"])
def test_exact_refuses_trunc_tol_out_of_range(tmp_path, geo_env_file, capsys, tol):
    out = tmp_path / "x.csv"
    assert run("exact", "--env", geo_env_file, "--n", "5", "--trunc-tol", tol,
               "--out", out) == 2
    assert "error: trunc_tol must lie in [0, 1)" in capsys.readouterr().err
    assert not out.exists()


def test_mc_hitting_times_refuses_chain(tmp_path, geo_env_file, capsys):
    out = tmp_path / "mc.csv"
    assert run("mc", "--env", geo_env_file, "--paths", "5", "--n", "4", "--seed", "1",
               "--record", "hitting-times", "--method", "chain", "--out", out) == 2
    assert "error: hitting-times records require the sojourn method" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("record", ["full-path", "hitting-times"])
def test_mc_refuses_oversized_per_path_record(tmp_path, geo_env_file, capsys, record):
    # paths x (n + 1) int64 cells per record; n lies past the 101 sites of the
    # file, so a request the cap let through would end in the site check
    # before allocating anything either
    out = tmp_path / "mc.csv"
    for paths, n in [(1_000_000, 100_000), (500, 100_000)]:
        start = time.perf_counter()
        assert run("mc", "--env", geo_env_file, "--paths", paths, "--n", n, "--seed", "1",
                   "--record", record, "--out", out) == 2
        assert time.perf_counter() - start < 5.0
        err = capsys.readouterr().err
        assert f"error: {record} record of {paths * (n + 1)} cells exceeds 50000000" in err
        assert not out.exists()
    # one path fewer is under the cap and reaches the site check
    assert run("mc", "--env", geo_env_file, "--paths", 499, "--n", 100_000, "--seed", "1",
               "--record", record, "--out", out) == 2
    assert "beyond the materialized range" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("command, flag", [("llt", "--mu"), ("llt", "--sigma2"),
                                           ("clt", "--mu"), ("clt", "--sigma2")])
def test_lone_mu_or_sigma2_refused(tmp_path, geo_env_file, capsys, command, flag):
    out = tmp_path / "o.out"
    assert run(command, "--env", geo_env_file, "--n-grid", "10", flag, "3",
               "--out", out) == 2
    assert "error: --mu and --sigma2 go together" in capsys.readouterr().err
    assert not out.exists()


def test_slln_has_no_trunc_tol(tmp_path, geo_env_file):
    with pytest.raises(SystemExit) as err:
        run("slln", "--env", geo_env_file, "--paths", "10", "--horizon", "20",
            "--seed", "1", "--trunc-tol", "1e-12", "--out", tmp_path / "s.csv")
    assert err.value.code == 2


def test_exit_code_missing_file(tmp_path):
    assert run("exact", "--env", tmp_path / "missing.json", "--n", "3",
               "--out", tmp_path / "o.csv") == 4


def test_exit_code_malformed_env_file(tmp_path):
    bad = tmp_path / "bad.json"
    bad.write_text("not json at all {")
    assert run("exact", "--env", bad, "--n", "3", "--out", tmp_path / "o.csv") == 2
    bad.write_text('{"model": {}, "sites": [{"nope": 1}]}')
    assert run("exact", "--env", bad, "--n", "3", "--out", tmp_path / "o2.csv") == 2
    for payload in ('{"model": [1, 2], "sites": [{"omega": [1.0, 0.5]}]}',
                    '{"model": {}, "sites": [{"omega": ["a"]}]}',
                    '{"model": {}, "sites": [{"omega": [1.0, 0.5], "deficit": "x"}]}'):
        bad.write_text(payload)
        assert run("exact", "--env", bad, "--n", "3", "--out", tmp_path / "o3.csv") == 2
    assert not (tmp_path / "o3.csv").exists()


def test_exit_code_bad_grid(tmp_path, geo_env_file):
    assert run("llt", "--env", geo_env_file, "--n-grid", "ten,20",
               "--mu", "2", "--sigma2", "2", "--out", tmp_path / "o.json") == 2


def test_exit_code_overwrite(tmp_path, geo_env_file):
    out = tmp_path / "x.csv"
    assert run("exact", "--env", geo_env_file, "--n", "1", "--out", out) == 0
    assert run("exact", "--env", geo_env_file, "--n", "1", "--out", out) == 4
    assert run("exact", "--env", geo_env_file, "--n", "1", "--out", out,
               "--force") == 0


@pytest.mark.parametrize("command, compute, argv", [
    ("exact", "position_distribution", ["--n", "8000"]),
    ("mc", "simulate_paths", ["--paths", "10", "--n", "5", "--seed", "1"]),
    ("llt", "llt_report", ["--n-grid", "8000"]),
    ("clt", "clt_report", ["--n-grid", "250"]),
    ("slln", "simulate_paths", ["--paths", "10", "--horizon", "20", "--seed", "1"]),
])
def test_existing_output_refused_before_any_work(tmp_path, geo_env_file, monkeypatch, capsys,
                                                 command, compute, argv):
    def refuse(*args, **kwargs):
        raise AssertionError("ran before the overwrite check")

    monkeypatch.setattr(cli, compute, refuse)
    monkeypatch.setattr(cli, "load_env_file", refuse)
    out = tmp_path / "o.out"
    out.write_text("kept\n")
    assert run(command, "--env", geo_env_file, *argv, "--out", out) == 4
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "refusing to overwrite" in captured.err
    assert out.read_text() == "kept\n"


@pytest.mark.parametrize("value", ["inf", "nan"])
@pytest.mark.parametrize("flag", ["--mu", "--sigma2"])
@pytest.mark.parametrize("command", ["llt", "clt", "slln"])
def test_non_finite_limit_constants_refused(tmp_path, geo_env_file, capsys, command, flag, value):
    constants = {"--mu": "2", "--sigma2": "2", flag: value}
    argv = (["--paths", "10", "--horizon", "20", "--seed", "1"] if command == "slln"
            else ["--n-grid", "10"])
    out = tmp_path / "o.out"
    assert run(command, "--env", geo_env_file, *argv, *sum(constants.items(), ()),
               "--out", out) == 2
    captured = capsys.readouterr()
    assert f"error: {flag[2:]} must be finite" in captured.err
    assert captured.out == "" and not out.exists()


def test_env_refuses_before_any_write(tmp_path):
    (tmp_path / "g-diagnostics.csv").write_text("kept\n")
    assert run("env", "--family", "geometric", "--r", "0.5", "--xmax", "10",
               "--out", tmp_path / "g.json") == 4
    assert sorted(p.name for p in tmp_path.iterdir()) == ["g-diagnostics.csv"]
    assert (tmp_path / "g-diagnostics.csv").read_text() == "kept\n"


def test_dynsys_refuses_before_any_write(tmp_path, geo_env_file, monkeypatch):
    outdir = tmp_path / "reports"
    outdir.mkdir()
    (outdir / "summary.json").write_text("{}")
    monkeypatch.setenv("WALKLAB_OUT_DIR", str(outdir))
    assert run("dynsys", "--env", geo_env_file, "--paths", "100", "--n", "5",
               "--seed", "1", "--out-hist", "hist.csv", "--out-levels", "levels.csv",
               "--out-summary", "summary.json") == 4
    assert sorted(p.name for p in outdir.iterdir()) == ["summary.json"]


@pytest.mark.parametrize("command", ["env", "dynsys"])
def test_failed_write_leaves_no_file(tmp_path, geo_env_file, monkeypatch, command):
    # the second output's temporary file is half written when the disk fails
    stage, staged = environment._stage, []

    def failing_stage(path, text):
        staged.append(path)
        if len(staged) == 2:
            stage(path, text[: len(text) // 2])
            raise OSError("no space left on device")
        stage(path, text)

    monkeypatch.setattr(environment, "_stage", failing_stage)
    outdir = tmp_path / "reports"
    outdir.mkdir()
    if command == "env":
        argv = ("env", "--family", "geometric", "--r", "0.5", "--xmax", "10",
                "--out", outdir / "g.json")
    else:
        argv = ("dynsys", "--env", geo_env_file, "--paths", "100", "--n", "5", "--seed", "1",
                "--out-hist", outdir / "h.csv", "--out-levels", outdir / "l.csv",
                "--out-summary", outdir / "s.json")
    assert run(*argv) == 4
    assert len(staged) == 2
    assert list(outdir.iterdir()) == []
    monkeypatch.setattr(environment, "_stage", stage)
    assert run(*argv) == 0
    assert len(list(outdir.iterdir())) == 3


def test_single_output_replaces_through_temporary_file(tmp_path, geo_env_file):
    out = tmp_path / "x.csv"
    out.write_text("old\n")
    assert run("exact", "--env", geo_env_file, "--n", "3", "--out", out, "--force") == 0
    assert out.read_text().startswith("x,prob,deficit_bound\n")
    assert not [p.name for p in tmp_path.iterdir() if p.name.startswith(".")]


def test_output_to_a_pipe_is_written_not_replaced(tmp_path, geo_env_file):
    pipe = tmp_path / "pipe"
    os.mkfifo(pipe)
    received = []
    reader = threading.Thread(target=lambda: received.append(pipe.read_text()), daemon=True)
    reader.start()
    assert run("exact", "--env", geo_env_file, "--n", "3", "--out", pipe, "--force") == 0
    reader.join(timeout=30)
    assert received and received[0].startswith("x,prob,deficit_bound\n")
    assert stat.S_ISFIFO(os.stat(pipe).st_mode)


def test_import_loads_no_scipy():
    # scipy alone doubled the start-up time and memory of every command
    src = os.path.dirname(os.path.dirname(os.path.abspath(cli.__file__)))
    code = ("import sys, walklab, walklab.cli\n"
            "print([m for m in sys.modules if m == 'scipy' or m.startswith('scipy.')])")
    env = dict(os.environ, PYTHONPATH=src)
    done = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                          env=env, check=True, timeout=60)
    assert done.stdout.strip() == "[]"


def test_dynsys_checks_trunc_tol_before_simulating(tmp_path, geo_env_file, monkeypatch):
    def simulate(*args, **kwargs):
        raise AssertionError("simulate_trajectories ran")

    monkeypatch.setattr(cli, "simulate_trajectories", simulate)
    outputs = [tmp_path / n for n in ("h.csv", "l.csv", "s.json")]
    assert run("dynsys", "--env", geo_env_file, "--paths", "50", "--n", "5", "--seed", "1",
               "--trunc-tol", "2", "--out-hist", outputs[0], "--out-levels", outputs[1],
               "--out-summary", outputs[2]) == 2
    assert not any(p.exists() for p in outputs)


def test_dynsys_refuses_out_of_range_times_before_any_exact_law(tmp_path, geo_env_file,
                                                                monkeypatch, capsys):
    def exact(*args, **kwargs):
        raise AssertionError("position_distribution ran")

    monkeypatch.setattr(cli, "position_distribution", exact)
    outputs = [tmp_path / n for n in ("h.csv", "l.csv", "s.json")]
    assert run("dynsys", "--env", geo_env_file, "--paths", "50", "--n", "5", "--seed", "1",
               "--times", "3,99", "--out-hist", outputs[0], "--out-levels", outputs[1],
               "--out-summary", outputs[2]) == 2
    assert "times must be non-empty and lie in [0, horizon]" in capsys.readouterr().err
    assert not any(p.exists() for p in outputs)


def test_dynsys_with_every_path_flagged_exits_3(tmp_path, geo_env_file, capsys):
    # slope-2 branches use up a double's 53 fraction bits, so by n = 60 every
    # path has fallen below the stored tail
    outputs = [tmp_path / n for n in ("h.csv", "l.csv", "s.json")]
    assert run("dynsys", "--env", geo_env_file, "--paths", "200", "--n", "60", "--seed", "1",
               "--times", "10,60", "--out-hist", outputs[0], "--out-levels", outputs[1],
               "--out-summary", outputs[2]) == 3
    err = capsys.readouterr().err
    assert ("all 200 trajectories are flagged by n = 60: their points fell below the "
            "stored tail") in err
    assert "not a longer tail" in err and "N_cap" not in err  # no advice that cannot help
    assert not any(p.exists() for p in outputs)


def test_exit_code_deficit_budget(tmp_path, geo_env_file):
    # coarse trim tolerance exhausts the deficit budget mid-scan
    out = tmp_path / "big.csv"
    assert run("exact", "--env", geo_env_file, "--n", "90", "--trunc-tol", "1e-3",
               "--out", out) == 3


def test_output_dir_env_var(tmp_path, geo_env_file, monkeypatch):
    outdir = tmp_path / "reports"
    outdir.mkdir()
    monkeypatch.setenv("WALKLAB_OUT_DIR", str(outdir))
    monkeypatch.chdir(tmp_path)
    assert run("exact", "--env", geo_env_file, "--n", "1", "--out", "x1.csv") == 0
    assert (outdir / "x1.csv").exists()
    assert not (tmp_path / "x1.csv").exists()


def test_round_trip_diagnostics_stable(tmp_path, geo_env_file):
    # rebuilding the diagnostics from the written file is byte-stable
    d1 = (tmp_path / "geo-diagnostics.csv").read_bytes()
    out2 = tmp_path / "geo2.json"
    assert run("env", "--family", "geometric", "--r", "0.5", "--xmax", "100",
               "--tail-tol", "1e-14", "--out", out2) == 0
    assert (tmp_path / "geo2-diagnostics.csv").read_bytes() == d1


# walklab env on three environments at smoke size, then exact (n = 20) and llt
# (n = 10, 40) read back from each file: the sha256 of every output, recorded
# while cli.main still built a parser per call and the tail checks and diagnostic
# rows still formed their temporary arrays
GOLDEN_ENVS = {
    "mdep": ("--random", "mdep-powerlaw", "--range", "2.5,3.5", "--window", "3",
             "--seed", "1", "--xmax", "100", "--tail-tol", "1e-9"),
    "lsv": ("--random", "iid-lsv", "--range", "0.3,0.4", "--seed", "1",
            "--xmax", "100", "--tail-tol", "1e-8"),
    "geometric": ("--family", "geometric", "--r", "0.5", "--xmax", "300", "--tail-tol", "1e-14"),
}
GOLDEN_SHA256 = {
    "mdep": {
        ".json": "92f06da9e154af8f2a57c6eaa77d66c715e6951c734b151d2d86ca2aa931a76a",
        "-diagnostics.csv": "130631b49264eab8b8cfc5fa7c8c2a28e3d59ad05176af1b32e617be28304774",
        "-mtable.csv": "4d4d82f6080fbb12721f3d619040a06cdf907e607ead403a41435cf931dda51f",
        "-exact.csv": "7c8bcf39c8b63698d7d49fbce6fb8a23335aee6cbf9c58f0efddff0f943c3514",
        "-llt.json": "49fe1c43afa159546229300d71eb2eb1c33d3dc73d299d5d8e4459988e831d83",
    },
    "lsv": {
        ".json": "4c39b05a0f8ebb800dd7ccdb9ad3163b236163e40b6190452343d6e99e0f9d39",
        "-diagnostics.csv": "673898a50bd2851059eee62dce23f5768e4e6b9fc0838c725aab1f1395762e33",
        "-mtable.csv": "b2b959a2de90e7c5a360c3d15a16f33c220076c4f1435b26b8cfe319dd779c3f",
        "-exact.csv": "9b9f403af107892adb2ec0a746fb753795d1b4b49b33c8d968dcc46d5a37b94a",
        "-llt.json": "0232b32f6d0c9109eec8493770a24d7af38872d3d129b92b8a917e0dfbae5748",
    },
    "geometric": {
        ".json": "c4b5d8419fc5e7c3d36708d52513de2bb5674cbe68373730e1e86069748f8fb6",
        "-diagnostics.csv": "88997d67a8c435f4f2f0f79ac94ad1ab416b14cb33b8a4ab1302395cf96f3185",
        "-mtable.csv": "7f2c60dc01e7965113e395a69459789c96555a95ba996ae0322375f887e1b4f0",
        "-exact.csv": "8821bf0a64a61f8886cc63d332ae5adb401208feecd47cb4f43bd78f80d143d0",
        "-llt.json": "57776d1da37dab11096880eb8dffd22aa975042aad731ab926d454c782451ffe",
    },
}


@pytest.mark.parametrize("label", list(GOLDEN_ENVS))
def test_env_file_commands_keep_their_golden_bytes(tmp_path, label):
    path = tmp_path / f"{label}.json"
    assert run("env", *GOLDEN_ENVS[label], "--out", path) == 0
    assert run("exact", "--env", path, "--n", "20", "--out", tmp_path / f"{label}-exact.csv") == 0
    assert run("llt", "--env", path, "--n-grid", "10,40", "--out", tmp_path / f"{label}-llt.json") == 0
    have = {suffix: hashlib.sha256((tmp_path / f"{label}{suffix}").read_bytes()).hexdigest()
            for suffix in GOLDEN_SHA256[label]}
    assert have == GOLDEN_SHA256[label]


def run_session(directory, monkeypatch, capsys):
    """env, exact, llt, a call argparse refuses, ``env -h`` and env again, in one
    process from ``directory``: each call's exit code, stdout and stderr, and the
    bytes of every file written."""
    monkeypatch.chdir(directory)
    calls = [("env", *GOLDEN_ENVS["geometric"], "--out", "geo.json"),
             ("exact", "--env", "geo.json", "--n", "20", "--out", "exact.csv"),
             ("llt", "--env", "geo.json", "--n-grid", "10,40", "--out", "llt.json"),
             ("exact", "--env", "geo.json", "--n", "20"),  # no --out
             ("env", "-h"),
             ("env", *GOLDEN_ENVS["mdep"], "--out", "mdep.json")]
    seen = []
    for argv in calls:
        try:
            code = main(list(argv))
        except SystemExit as exc:
            code = ("SystemExit", exc.code)
        seen.append((code, *capsys.readouterr()))
    files = {p.name: p.read_bytes() for p in sorted(directory.iterdir())}
    return seen, files


def test_one_parser_serves_many_commands(tmp_path, monkeypatch, capsys):
    (tmp_path / "fresh").mkdir()
    (tmp_path / "shared").mkdir()
    with monkeypatch.context() as m:
        m.setattr(cli, "_parser", cli.build_parser)  # a new parser for every call
        fresh = run_session(tmp_path / "fresh", m, capsys)
    built = []
    build = cli.build_parser
    monkeypatch.setattr(cli, "build_parser", lambda: built.append(1) or build())
    cli._parser.cache_clear()
    try:
        shared = run_session(tmp_path / "shared", monkeypatch, capsys)
    finally:
        cli._parser.cache_clear()
    assert len(built) == 1
    codes = [call[0] for call in shared[0]]
    assert codes == [0, 0, 0, ("SystemExit", 2), ("SystemExit", 0), 0]
    assert "required: --out" in shared[0][3][2] and "--xmax" in shared[0][4][1]
    assert shared == fresh
    assert len(shared[1]) == 8


@pytest.mark.parametrize("argv", [
    ["mc", "--paths", 10**12, "--n", 50, "--out", "mc.csv"],
    ["dynsys", "--paths", 10**11, "--n", 50, "--out-hist", "h.csv", "--out-levels", "l.csv",
     "--out-summary", "s.json"],
    ["slln", "--paths", 10**9, "--horizon", 4000, "--out", "slln.csv"],
], ids=["mc", "dynsys", "slln"])
def test_oversized_simulations_refused_up_front(tmp_path, monkeypatch, geo_env_file, capsys,
                                                argv):
    # paths x (horizon + 1) past walk._MAX_PATH_STEPS ends before any draw
    monkeypatch.chdir(tmp_path)
    before = set(os.listdir(tmp_path))
    start = time.perf_counter()
    assert run(argv[0], "--env", geo_env_file, "--seed", 1, *argv[1:]) == 2
    assert time.perf_counter() - start < 2.0
    assert f"error: {argv[2]} paths x {argv[4] + 1} steps" in capsys.readouterr().err
    assert set(os.listdir(tmp_path)) == before
