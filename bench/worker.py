"""One workload process: set up, run timed passes, check the outputs, report.

``run.py`` starts this file once per set-up sample and once for the measured
run.  It prints a single JSON line: the CLOCK_MONOTONIC time at which set-up
ended (the parent took the same clock just before starting the process) and,
unless ``--setup-only``, the pass timings, per-operation failures, output
digests, input properties and, with ``--trace 1``, the per-layer metrics.
Passes run until ``--seconds`` of pass time is used, at least one pass (two
with tracing: traced and untraced passes alternate, so the tracing overhead
is measured in the same process).
"""

from __future__ import annotations

import argparse
import ctypes
import glob
import json
import os
import platform
import resource
import shutil
import statistics
import sys
import tempfile
import time
from collections import defaultdict
from time import perf_counter

import numpy as np

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")
MAX_PROBLEMS = 20
# the span whose time a simulator op's path-steps are divided by
SIMULATOR_SPANS = {
    "sojourn_steps_per_s": "walk.simulate_paths.sojourn",
    "chain_steps_per_s": "walk.simulate_paths.chain",
    "dynsys_steps_per_s": "dynsys.simulate_trajectories",
}
# Calibration: after each op, fixed chunks of interpreter and numpy work run
# for this share of the op's time.  The vCPUs of a shared machine change speed
# by tens of percent within seconds, with no steal time to show it; an op's
# time times CAL_REF_S over the mean chunk time measured right after it (its
# time in reference seconds: at the speed where one chunk takes CAL_REF_S)
# cancels most of that.  The chunk mixes a tight loop, numpy kernels and float
# parsing and formatting, which tracked both compute-bound and
# allocation-heavy ops.
CAL_FRACTION = 0.15
CAL_REF_S = 0.003
_CAL_A = np.linspace(0.0, 1.0, 4000)
_CAL_B = np.linspace(1.0, 0.0, 500)
_CAL_FLOATS = (np.linspace(0.001, 1.0, 2000) ** 3).tolist()
_CAL_JSON = json.dumps(_CAL_FLOATS)


def _monotonic() -> float:
    return time.clock_gettime(time.CLOCK_MONOTONIC)


def provenance() -> dict:
    import scipy

    cpu = platform.processor()
    try:
        with open("/proc/cpuinfo") as fh:
            cpu = next((line.split(":", 1)[1].strip() for line in fh
                        if line.startswith("model name")), cpu)
    except OSError:
        pass
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "cpu": cpu,
        "ram_bytes": os.sysconf("SC_PAGE_SIZE") * os.sysconf("SC_PHYS_PAGES"),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "openblas_threads": _openblas_threads(),
    }


def _openblas_threads() -> int | None:
    """Thread count of the OpenBLAS bundled with numpy, if it can be asked."""
    libs = os.path.join(os.path.dirname(os.path.dirname(np.__file__)), "numpy.libs")
    for path in glob.glob(os.path.join(libs, "*openblas*")):
        handle = ctypes.CDLL(path)
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                       "openblas_get_num_threads"):
            fn = getattr(handle, symbol, None)
            if fn is not None:
                return int(fn())
    return None


def calibration_chunk() -> float:
    """Seconds taken by one fixed chunk of mixed interpreter and numpy work."""
    start = perf_counter()
    total = 0.0
    for i in range(20000):
        total += i * 0.5
    np.convolve(_CAL_A, _CAL_B).sum()
    np.searchsorted(_CAL_A, _CAL_B)
    json.loads(_CAL_JSON)
    ",".join(format(v, ".17g") for v in _CAL_FLOATS[:500])
    return perf_counter() - start


def calibrate(seconds: float) -> float:
    """Mean chunk time over at least ``seconds`` of chunks."""
    spent, chunks = 0.0, 0
    while chunks == 0 or spent < seconds:
        spent += calibration_chunk()
        chunks += 1
    return spent / chunks


def _timed_pass(workload, ops, index, failures, tracer, useful):
    """Run and time one pass; with a tracer, spans are recorded meanwhile."""
    results, times, cal = {}, {}, {}
    if tracer is not None:
        tracer.start_pass(index)
        tracer.install()
        untraced_span, workload.span = workload.span, tracer.span
    try:
        for op in ops:
            t0 = perf_counter()
            try:
                results[op.label] = op.run()
            except Exception as exc:  # an op that raises counts as failed
                failures[op.label].append(f"pass {index}: {type(exc).__name__}: {exc}")
            times[op.label] = perf_counter() - t0
            if tracer is not None:
                useful[op.label] = tracer.take_case_counts()
            cal[op.label] = calibrate(CAL_FRACTION * times[op.label])
    finally:
        if tracer is not None:
            tracer.uninstall()
            workload.span = untraced_span
    return results, times, cal


def run_passes(workload, seconds: float, tracer=None) -> dict:
    """Time passes of ``workload`` until ``seconds`` of pass time is used."""
    passes = []  # {"pass_s", "ops": {label: s}, "cal": {label: chunk s}, "traced"}
    first_ops, first_results, first_digests = [], {}, {}
    failures: dict[str, list[str]] = defaultdict(list)
    attempted = 0
    layer_passes = []
    useful: dict[str, dict] = {}
    while True:
        index = len(passes)
        traced = tracer is not None and index % 2 == 1
        ops = workload.ops()
        results, times, cal = _timed_pass(workload, ops, index, failures,
                                          tracer if traced else None, useful)
        pass_s = sum(times.values())
        attempted += len(ops)

        counts: dict[str, float] = defaultdict(float)
        for op in ops:
            if op.label not in results:
                continue
            for key, value in op.counts(results[op.label]).items():
                counts[key] += value
            sha = workload.digest(op, results[op.label])
            if index == 0:
                first_digests[op.label] = sha
            elif sha != first_digests.get(op.label):
                failures[op.label].append(f"pass {index}: output differs from pass 0")
        if index == 0:
            first_ops, first_results = ops, results
        if traced:
            layer_passes.append(_traced_pass(tracer, ops, counts, pass_s))
        passes.append({"pass_s": pass_s, "ops": times, "cal": cal, "traced": traced})
        workload.end_pass(index)

        used = sum(p["pass_s"] for p in passes)
        enough = index >= 1 or tracer is None
        if enough and used + pass_s > seconds:
            break

    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    for op in first_ops:
        if op.label in first_results:
            try:
                problem = op.check(first_results[op.label])
            except Exception as exc:  # a check that cannot run is a failed check
                problem = f"check raised {type(exc).__name__}: {exc}"
            if problem:
                failures[op.label].append(f"pass 0: {problem}")
    failed = sum(len(v) for v in failures.values())
    problems = [f"{label}: {msg}" for label, msgs in failures.items() for msg in msgs]
    return {
        "passes": passes,
        "groups": {op.label: op.group for op in first_ops},
        "steps": {op.label: op.steps for op in first_ops},
        "attempted": attempted,
        "failed": failed,
        "problems": problems[:MAX_PROBLEMS],
        "digests": first_digests,
        "peak_rss_mb": peak_rss_mb,
        "layer_passes": layer_passes,
        "useful_frac_by_op": {label: c["useful"] / c["atoms"]
                              for label, c in useful.items() if c.get("atoms")},
    }


def _traced_pass(tracer, ops, counts, pass_s) -> dict:
    import spans

    counts = dict(counts)
    counts.update(tracer.counts)
    counts["cli.llt.diagnostics"] = tracer.calls_within("environment.diagnostics", "cli.llt")
    steps: dict[str, float] = defaultdict(float)
    for op in ops:
        if op.group in SIMULATOR_SPANS:
            steps[SIMULATOR_SPANS[op.group]] += op.steps
    metrics = spans.layer_metrics(tracer.pass_summary(), counts, steps)
    return {"pass_s": pass_s, "metrics": metrics}


def reference_seconds(passes: list[dict]) -> dict:
    """Each op's median time over ``passes``, in reference seconds."""
    return {label: statistics.median(p["ops"][label] * CAL_REF_S / p["cal"][label]
                                     for p in passes)
            for label in passes[0]["ops"]}


def per_layer(report: dict) -> tuple[dict, dict]:
    """Medians over traced passes, and the overhead against untraced ones."""
    import spans

    traced = report["layer_passes"]
    # overhead in reference seconds, per-op medians summed, as for pass_s
    overhead = sum(reference_seconds([p for p in report["passes"] if p["traced"]]).values()) / \
        sum(reference_seconds([p for p in report["passes"] if not p["traced"]]).values()) - 1.0
    values = {name: statistics.median(p["metrics"][name] for p in traced)
              for name in traced[0]["metrics"]}
    for family in ("geometric", "powerlaw", "mdep", "lsv"):
        shape = report["properties"].get(f"env.{family}")
        values[f"environment.distinct_tail_frac.{family}"] = (
            shape["distinct_tail_frac"] if shape else 0.0)
    values["trace.overhead_frac"] = overhead
    metrics = {name: {"value": values[name], "unit": unit}
               for name, unit in spans.LAYER_UNITS.items()}
    counts_repeat = all(
        p["metrics"][name] == traced[0]["metrics"][name]
        for p in traced for name, unit in spans.LAYER_UNITS.items()
        if unit in ("count", "MAC", "bytes") and name in p["metrics"])
    return metrics, {"traced_passes": len(traced), "counts_repeat": counts_repeat,
                     "useful_frac_by_op": report["useful_frac_by_op"],
                     "spans_file": report.get("spans_file")}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--size", choices=("full", "smoke"), default="full")
    parser.add_argument("--setup-only", action="store_true")
    args = parser.parse_args(argv)

    sys.path.insert(0, SRC)
    import walklab

    if not os.path.abspath(walklab.__file__).startswith(SRC + os.sep):
        print(f"error: imported walklab from {walklab.__file__}, not {SRC}", file=sys.stderr)
        return 2
    from workloads import WORKLOADS

    workdir = os.path.join(ROOT, ".bench_work")
    os.makedirs(workdir, exist_ok=True)
    workdir = tempfile.mkdtemp(prefix=f"{args.workload}-", dir=workdir)
    try:
        workload = WORKLOADS[args.workload](args.seed, args.size, workdir)
        workload.setup()
        ready = _monotonic()
        if args.setup_only:
            print(json.dumps({"ready": ready}))
            return 0
        tracer = None
        if args.trace:
            import spans

            tracer = spans.Tracer(args.workload, args.seed)
        out = run_passes(workload, args.seconds, tracer)
        workload.close()
        out.update(ready=ready, provenance=provenance(), properties=workload.properties)
        if tracer is not None:
            path = os.path.join(ROOT, ".bench_out", f"spans-{args.workload}-{args.seed}.jsonl")
            tracer.write(path)
            out["spans_file"] = os.path.relpath(path, ROOT)
            out["layers"], out["layers_detail"] = per_layer(out)
            del out["layer_passes"]
        print(json.dumps(out))
        return 0
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


if __name__ == "__main__":
    sys.exit(main())
