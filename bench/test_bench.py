"""Self-tests of the benchmark at smoke sizes: every check passes on correct
outputs and fails on corrupted ones, traced counts repeat, and the result
line matches BENCHMARK.json."""

import dataclasses
import json
import os
import shutil
import subprocess
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, os.path.join(ROOT, "src"))

import spans  # noqa: E402
import worker  # noqa: E402
import workloads  # noqa: E402

with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
    BENCHMARK = json.load(fh)


def smoke(name, tmp_path, seed=7):
    workload = workloads.WORKLOADS[name](seed, "smoke", str(tmp_path))
    workload.setup()
    return workload


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_smoke_pass_is_correct(name, tmp_path):
    workload = smoke(name, tmp_path)
    report = worker.run_passes(workload, seconds=0.0)
    workload.close()
    assert report["problems"] == []
    assert report["failed"] == 0
    assert report["attempted"] == len(report["groups"]) * len(report["passes"])


def _corrupt(name, result):
    if name == "exact":
        if isinstance(result, workloads.limits.LltReport):
            return dataclasses.replace(result, sup_err_scaled=result.sup_err_scaled + 1e-6)
        return None
    if name == "simulate":
        if isinstance(result, workloads.walk.WalkSample):
            halved = {key: getattr(result, key) // 2 for key in ("x_final", "x_at_times")
                      if getattr(result, key) is not None}
            return dataclasses.replace(result, **halved)
        return None
    bad = result[0] + ".bad"  # a copy with one digit changed mid-file; later ops read the original
    with open(result[0], "rb") as fh:
        text = bytearray(fh.read())
    at = next(i for i in range(len(text) // 2, 0, -1) if chr(text[i]).isdigit())
    text[at] = ord("1") if text[at] != ord("1") else ord("2")
    with open(bad, "wb") as fh:
        fh.write(text)
    return [bad] + result[1:]


def fails(op, result) -> bool:
    """Whether the op's check rejects ``result``; a check that raises rejects."""
    try:
        return op.check(result) is not None
    except Exception:
        return True


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_check_rejects_corrupted_output(name, tmp_path):
    workload = smoke(name, tmp_path)
    corrupted = 0
    for op in workload.ops():
        result = op.run()
        assert not fails(op, result), op.label
        bad = _corrupt(name, result)
        if bad is not None:
            assert fails(op, bad), op.label
            corrupted += 1
    workload.close()
    assert corrupted >= 2


def test_corrupted_output_counts_as_failed_op(tmp_path):
    workload = smoke("exact", tmp_path)
    honest_ops = workload.ops

    def ops():
        out = honest_ops()
        for op in out:
            if "llt" in op.label:
                run = op.run
                op.run = lambda run=run: _corrupt("exact", run())
        return out

    workload.ops = ops
    report = worker.run_passes(workload, seconds=0.0)
    llt_ops = sum("llt" in label for label in report["groups"])
    assert report["failed"] == llt_ops
    assert all("sup_err_scaled" in p for p in report["problems"])


def test_traced_counts_repeat_between_runs(tmp_path):
    counted = [name for name, unit in spans.LAYER_UNITS.items() if unit in ("count", "MAC")]
    runs = []
    for _ in range(2):
        workload = smoke("env-files", tmp_path)
        tracer = spans.Tracer("env-files", 7)
        report = worker.run_passes(workload, seconds=0.0, tracer=tracer)
        workload.close()
        assert report["failed"] == 0
        report["properties"] = workload.properties
        metrics, detail = worker.per_layer(report)
        assert set(metrics) == set(spans.LAYER_UNITS)
        assert detail["counts_repeat"]
        runs.append({name: metrics[name]["value"] for name in counted})
    assert runs[0] == runs[1]
    assert runs[0]["walk.hitting_time_scan.passes"] == 3
    assert runs[0]["environment.diagnostics.calls"] == 5
    # tracing restores every patched name
    assert workloads.walk.DiscreteDistribution.convolve.__qualname__ == \
        "DiscreteDistribution.convolve"
    assert workloads.limits.position_scan is workloads.walk.position_scan
    assert not hasattr(workloads.cli.diagnostics, "__wrapped__")


def test_benchmark_json_names_what_the_benchmark_reports():
    assert [w["name"] for w in BENCHMARK["workloads"]] == list(workloads.WORKLOADS)
    assert {m["name"]: m["unit"] for m in BENCHMARK["per_layer"]} == spans.LAYER_UNITS
    assert BENCHMARK["paths"] == ["bench"]


def test_run_reports_end_to_end_metrics():
    out = subprocess.run(
        [sys.executable, os.path.join(HERE, "run.py"), "--workload", "simulate", "--seed", "3",
         "--seconds", "0", "--trace", "0", "--size", "smoke"],
        capture_output=True, text=True, timeout=120, check=True)
    result = json.loads(out.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0
    assert {name: m["unit"] for name, m in result["metrics"].items()} == \
        {m["name"]: m["unit"] for m in BENCHMARK["end_to_end"]}
    assert all(m["value"] > 0 for m in result["metrics"].values())


def test_run_fails_without_the_sources(tmp_path):
    shutil.copytree(HERE, tmp_path / "bench", ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    out = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "exact", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert out.returncode != 0
    assert out.stdout == ""
