"""walklab benchmark: three workloads timed end to end, and per layer when traced.

    python3 bench/run.py --workload exact --seed 1 --seconds 30 --trace 0

Workloads (see workloads.py): ``exact`` (the convolution ladder behind
llt_report/clt_report), ``simulate`` (walk Monte Carlo and the extended map),
``env-files`` (``walklab env/exact/llt`` through ``cli.main``).  Each runs in
its own process, built from the sources under ``src/`` of this checkout.

With ``--trace 0`` the end-to-end metrics are reported:

* ``pass_s``: time of one pass of the workload, the sum over its operations
  of each one's median over passes;
* ``setup_s``: median over several processes of the time from starting the
  process to the first timed call (interpreter, ``import walklab``, inputs);
* ``peak_rss_mb``: peak resident memory of the measured process.

Both times are in reference seconds: a fixed chunk of interpreter and numpy
work runs next to every timed interval (after each operation, before and after
each set-up process), and the interval is scaled by CAL_REF_S over the chunk's
mean time, i.e. to the speed at which one chunk takes CAL_REF_S.  The vCPUs of
a shared machine change speed by tens of percent for minutes at a time; raw
wall-clock seconds are kept in the detail record.

With ``--trace 1`` every traced pass records spans around walklab's public
functions (spans.py) and the per-layer metrics are reported, as medians over
traced passes, together with the tracing overhead against the untraced passes
of the same run.  Spans are written to ``.bench_out/``.

Every operation's output is checked; ``attempted`` counts operations and
``failed`` those that raised or failed their check.  The lines before the last
one hold a JSON detail record: machine and library versions, per-group timings
with sample counts, output sha256 digests and input-property shares.  The last
line is the result: {"correct", "attempted", "failed", "metrics"}.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKER = os.path.join(HERE, "worker.py")
sys.path.insert(0, HERE)
from worker import CAL_REF_S, calibrate, reference_seconds  # noqa: E402
WORKLOAD_NAMES = ("exact", "simulate", "env-files")
SETUP_SAMPLES = 5
SETUP_CAL_S = 0.05  # calibration before and after each set-up process
TIME_LIMIT_S = 170.0  # the whole run, set-up samples included


def summarize(values: list[float]) -> dict:
    """Median, sample count, and the highest percentile (nearest rank) that
    has at least ten samples beyond it, when there is one."""
    ordered = sorted(values)
    k = len(ordered)
    out = {"median": statistics.median(ordered), "samples": k, "values": values}
    if k >= 20:
        p = math.floor(100 * (k - 10) / k)
        out[f"p{p}"] = ordered[math.ceil(p * k / 100) - 1]
    return out


def start_worker(args, setup_only: bool, deadline: float) -> tuple[float, dict]:
    """Run one worker process; return its set-up time and its JSON report."""
    cmd = [sys.executable, WORKER, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace), "--size", args.size]
    if setup_only:
        cmd.append("--setup-only")
    env = dict(os.environ)
    threads = str(len(os.sched_getaffinity(0)))
    env.setdefault("OPENBLAS_NUM_THREADS", threads)
    env.setdefault("OMP_NUM_THREADS", threads)
    started = time.clock_gettime(time.CLOCK_MONOTONIC)
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True, env=env, cwd=ROOT)
    try:
        stdout, _ = proc.communicate(timeout=max(1.0, deadline - time.monotonic()))
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.communicate()
        raise RuntimeError("worker exceeded the time limit") from None
    if proc.returncode != 0:
        raise RuntimeError(f"worker exited with {proc.returncode}")
    report = json.loads(stdout.strip().splitlines()[-1])
    return report["ready"] - started, report


def end_to_end(report: dict, setup: list[float], setup_raw: list[float]) -> tuple[dict, dict]:
    """Per-op medians resist a shared machine's speed swings better than the
    median of whole passes; group values in the detail are sums of them."""
    passes = report["passes"]
    labels = list(report["groups"])
    op_ref = reference_seconds(passes)
    metrics = {
        "pass_s": {"value": sum(op_ref.values()), "unit": "s"},
        "setup_s": {"value": statistics.median(setup), "unit": "s"},
        "peak_rss_mb": {"value": report["peak_rss_mb"], "unit": "MB"},
    }
    groups = {}
    for group in sorted(set(report["groups"].values())):
        members = [label for label in labels if report["groups"][label] == group]
        wall = [sum(p["ops"][label] for label in members) for p in passes]
        ref = sum(op_ref[label] for label in members)
        steps = sum(report["steps"][label] for label in members)
        if steps:  # simulator throughput, path-steps per second
            groups[group] = {"value": steps / ref, "wall": summarize([steps / s for s in wall])}
        else:
            groups[group] = {"value": ref, "wall": summarize(wall)}
    detail = {
        "pass_wall_s": summarize([p["pass_s"] for p in passes]),
        "cal_chunk_s": summarize([c for p in passes for c in p["cal"].values()]),
        "setup_s": summarize(setup),
        "setup_wall_s": summarize(setup_raw),
        "groups": groups,
        "ops_s": op_ref,
        "ops_wall_s": {label: statistics.median(p["ops"][label] for p in passes)
                       for label in labels},
    }
    return metrics, detail


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--size", choices=("full", "smoke"), default="full",
                        help="smoke: the same operations and checks at toy sizes")
    args = parser.parse_args(argv)
    if not os.path.isfile(os.path.join(ROOT, "src", "walklab", "__init__.py")):
        print(f"error: no walklab sources under {os.path.join(ROOT, 'src')}", file=sys.stderr)
        return 2

    deadline = time.monotonic() + TIME_LIMIT_S
    try:
        setup, setup_raw = [], []
        if not args.trace:
            for _ in range(SETUP_SAMPLES):
                before = calibrate(SETUP_CAL_S)
                seconds = start_worker(args, True, deadline)[0]
                chunk = 0.5 * (before + calibrate(SETUP_CAL_S))
                setup_raw.append(seconds)
                setup.append(seconds * CAL_REF_S / chunk)
        report = start_worker(args, False, deadline)[1]
    except (RuntimeError, ValueError, KeyError, IndexError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1

    if args.trace:
        metrics, extra = report["layers"], report["layers_detail"]
    else:
        metrics, extra = end_to_end(report, setup, setup_raw)
    detail = {
        "workload": args.workload, "seed": args.seed, "size": args.size,
        "seconds": args.seconds, "trace": args.trace,
        "provenance": report["provenance"],
        "passes": len(report["passes"]),
        "ops_failed_frac": report["failed"] / report["attempted"],
        "problems": report["problems"],
        "peak_rss_mb": report["peak_rss_mb"],
        "properties": report["properties"],
        "digests": report["digests"],
        **extra,
    }
    print(json.dumps(detail, indent=1, sort_keys=True))
    print(json.dumps({
        "correct": report["failed"] == 0,
        "attempted": report["attempted"],
        "failed": report["failed"],
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
