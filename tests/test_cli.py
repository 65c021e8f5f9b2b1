import json
import os

import numpy as np
import pytest

from walklab.cli import main


def run(*argv):
    return main([str(a) for a in argv])


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
    assert len(payload["sites"]) == 101
    assert payload["sites"][0]["omega"][1] == 0.5
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
    # the 0.02 band is only ~2 sigma at this short horizon
    assert float(final[2]) >= 0.85


def test_exit_code_validation(tmp_path):
    assert run("env", "--family", "geometric", "--r", "1.5", "--xmax", "5",
               "--out", tmp_path / "bad.json") == 2
    assert run("env", "--family", "geometric", "--xmax", "5",
               "--out", tmp_path / "bad.json") == 2


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
