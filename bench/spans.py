"""In-memory spans around walklab's public functions, for the traced run.

``Tracer.install`` replaces each public function at the module names through
which it is called (``walklab.limits.position_scan``, ``walklab.cli.diagnostics``,
``DiscreteDistribution.convolve``, ...) with a wrapper that records a span and
passes arguments and results through unchanged; ``uninstall`` puts the
originals back.  A span is (name, start, end, parent, pass); a layer's self
time is its duration minus the time its child spans cover.  Counts observed at
the same boundaries (ladder atoms, multiply-adds, tail values, bytes) are kept
per pass, so they repeat exactly between runs of one seed.
"""

from __future__ import annotations

import contextlib
import functools
import inspect
import json
import os
from collections import defaultdict
from time import perf_counter

from walklab import cli, dynsys, environment, limits, random_env, walk


def _observe_convolve(tracer, args, kwargs, result):
    left, right = args[0], args[1]
    count = tracer.counts
    count["walk.ladder.steps"] += 1
    count["walk.ladder.macs"] += float(left.probs.size) * float(right.probs.size)
    count["walk.ladder.sojourn_atoms"] += right.probs.size
    count["walk.ladder.atoms"] += result.probs.size
    if tracer.horizon is None:
        useful = result.probs.size
    else:
        useful = max(0, min(result.end, tracer.horizon) - result.offset + 1)
    count["walk.ladder.useful_atoms"] += useful
    tracer.case_counts["atoms"] += result.probs.size
    tracer.case_counts["useful"] += useful


def _observe_tail(tracer, args, kwargs, result):
    tracer.counts["environment.tail_gen.values"] += result.values.size


def _observe_lsv(tracer, args, kwargs, result):
    tracer.counts["environment.lsv_tail_sequence.values"] += result.values.size
    _observe_tail(tracer, args, kwargs, result)


def _observe_diagnostics(tracer, args, kwargs, result):
    tracer.counts["environment.diagnostics.sites"] += result.x.size


def _observe_json_text(tracer, args, kwargs, result):
    tracer.counts["environment.env_json_text.bytes"] += len(result)


def _observe_load(tracer, args, kwargs, result):
    tracer.counts["environment.load_env_file.bytes"] += os.path.getsize(args[0])


def _observe_sample_env(tracer, args, kwargs, result):
    tracer.counts["random_env.sample_environment.sites"] += len(result.environment)


def _simulate_paths_name(args, kwargs) -> str:
    method = kwargs.get("method", args[2] if len(args) > 2 else None)
    if method is None:
        method = "chain" if args[1].record == "full-path" else "sojourn"
    return f"walk.simulate_paths.{method}"


# (module, attribute, span name or callable (args, kwargs) -> name, observer)
_SITES = [
    (walk, "hitting_time_scan", "walk.hitting_time_scan", None),
    (walk, "position_scan", "walk.position_scan", None),
    (walk, "position_distribution", "walk.position_distribution", None),
    (walk, "hitting_time_distribution", "walk.hitting_time_distribution", None),
    (walk, "simulate_paths", _simulate_paths_name, None),
    (walk, "stream", "streams.stream", None),
    (limits, "hitting_time_scan", "walk.hitting_time_scan", None),
    (limits, "position_scan", "walk.position_scan", None),
    (limits, "position_distribution", "walk.position_distribution", None),
    (limits, "hitting_time_distribution", "walk.hitting_time_distribution", None),
    (limits, "cumulative_hitting_moments", "limits.cumulative_hitting_moments", None),
    (limits, "llt_predictor", "limits.llt_predictor", None),
    (limits, "llt_report", "limits.llt_report", None),
    (limits, "llt_report_json", "limits.llt_report_json", None),
    (limits, "clt_report", "limits.clt_report", None),
    (limits, "slln_report", "limits.slln_report", None),
    (limits, "fit_limit_params", "limits.fit_limit_params", None),
    (limits, "kolmogorov_distance_to_normal", "limits.kolmogorov_distance_to_normal", None),
    (environment, "geometric_tail_sequence", "environment.tail_gen", _observe_tail),
    (environment, "powerlaw_tail_sequence", "environment.tail_gen", _observe_tail),
    (environment, "lsv_tail_sequence", "environment.lsv_tail_sequence", _observe_lsv),
    (environment, "diagnostics", "environment.diagnostics", _observe_diagnostics),
    (environment, "env_json_text", "environment.env_json_text", _observe_json_text),
    (environment, "write_env_file", "environment.write_env_file", None),
    (environment, "load_env_file", "environment.load_env_file", _observe_load),
    (random_env, "geometric_tail_sequence", "environment.tail_gen", _observe_tail),
    (random_env, "powerlaw_tail_sequence", "environment.tail_gen", _observe_tail),
    (random_env, "lsv_tail_sequence", "environment.lsv_tail_sequence", _observe_lsv),
    (random_env, "diagnostics", "environment.diagnostics", _observe_diagnostics),
    (random_env, "sample_environment", "random_env.sample_environment", _observe_sample_env),
    (random_env, "stream", "streams.stream", None),
    (dynsys, "simulate_trajectories", "dynsys.simulate_trajectories", None),
    (dynsys, "stream", "streams.stream", None),
    (cli, "diagnostics", "environment.diagnostics", _observe_diagnostics),
    (cli, "env_geometric", "environment.env_geometric", None),
    (cli, "env_from_powerlaw", "environment.env_from_powerlaw", None),
    (cli, "env_from_lsv", "environment.env_from_lsv", None),
    (cli, "load_env_file", "environment.load_env_file", _observe_load),
    (cli, "write_env_file", "environment.write_env_file", None),
    (cli, "clt_report", "limits.clt_report", None),
    (cli, "fit_limit_params", "limits.fit_limit_params", None),
    (cli, "llt_report", "limits.llt_report", None),
    (cli, "llt_report_json", "limits.llt_report_json", None),
    (cli, "slln_report", "limits.slln_report", None),
    (cli, "position_distribution", "walk.position_distribution", None),
    (cli, "simulate_paths", _simulate_paths_name, None),
    (cli, "tv_distance", "walk.tv_distance", None),
    (cli, "simulate_trajectories", "dynsys.simulate_trajectories", None),
    (walk.DiscreteDistribution, "convolve", "walk.convolve", _observe_convolve),
]


class Tracer:
    """Span and count recorder; spans stay in memory until ``write``."""

    def __init__(self, workload: str, seed: int):
        self.workload = workload
        self.seed = seed
        self.spans: list[list] = []  # [name, start, end, parent, pass]
        self.stack: list[int] = []
        self.pass_index = -1
        self.pass_first = 0
        self.counts: dict[str, float] = defaultdict(float)
        self.horizon: int | None = None
        self.case_counts: dict[str, float] = defaultdict(float)
        self._saved: list[tuple[object, str, object]] = []

    # -- spans ---------------------------------------------------------------

    def open(self, name: str) -> list:
        parent = self.stack[-1] if self.stack else -1
        record = [name, 0.0, 0.0, parent, self.pass_index]
        self.stack.append(len(self.spans))
        self.spans.append(record)
        record[1] = perf_counter()
        return record

    def close(self, record: list) -> None:
        record[2] = perf_counter()
        self.stack.pop()

    @contextlib.contextmanager
    def span(self, name: str):
        record = self.open(name)
        try:
            yield
        finally:
            self.close(record)

    def _wrap(self, fn, name, observe):
        if inspect.isgeneratorfunction(fn):
            return self._wrap_scan(fn, name)
        tracer = self
        naming = name if callable(name) else (lambda args, kwargs: name)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            record = tracer.open(naming(args, kwargs))
            horizon = tracer.horizon
            if record[0] == "walk.position_scan":
                tracer.horizon = int(kwargs.get("n", args[1] if len(args) > 1 else 0))
            elif record[0] == "walk.hitting_time_distribution":
                tracer.horizon = None
            try:
                result = fn(*args, **kwargs)
            finally:
                tracer.horizon = horizon
                tracer.close(record)
            if observe is not None:
                observe(tracer, args, kwargs, result)
            return result

        return traced

    def _wrap_scan(self, fn, name):
        """The convolution ladder is a generator: each advance is one
        ``walk.ladder`` span, so consumer work between yields is not counted."""
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            tracer.counts[f"{name}.passes"] += 1
            inner = fn(*args, **kwargs)
            try:
                while True:
                    record = tracer.open("walk.ladder")
                    try:
                        item = next(inner)
                    except StopIteration:
                        return
                    finally:
                        tracer.close(record)
                    yield item
            finally:
                inner.close()

        return traced

    def install(self) -> None:
        wrapped: dict[int, object] = {}
        for owner, attr, name, observe in _SITES:
            original = owner.__dict__[attr]
            if id(original) not in wrapped:
                wrapped[id(original)] = self._wrap(original, name, observe)
            self._saved.append((owner, attr, original))
            setattr(owner, attr, wrapped[id(original)])

    def uninstall(self) -> None:
        while self._saved:
            owner, attr, original = self._saved.pop()
            setattr(owner, attr, original)

    # -- per-pass aggregation ------------------------------------------------

    def start_pass(self, index: int) -> None:
        self.pass_index = index
        self.pass_first = len(self.spans)
        self.counts = defaultdict(float)

    def pass_summary(self) -> dict:
        """Per-name totals of this pass: {name: [seconds, self seconds, calls]}."""
        mine = range(self.pass_first, len(self.spans))
        covered: dict[int, float] = defaultdict(float)
        for i in mine:
            name, start, end, parent, _ = self.spans[i]
            if parent >= 0:
                covered[parent] += end - start
        totals: dict[str, list] = defaultdict(lambda: [0.0, 0.0, 0])
        for i in mine:
            name, start, end, _, _ = self.spans[i]
            entry = totals[name]
            entry[0] += end - start
            entry[1] += end - start - covered[i]
            entry[2] += 1
        return dict(totals)

    def calls_within(self, name: str, ancestor: str) -> int:
        """Spans of ``name`` in this pass that run inside an ``ancestor`` span."""
        found = 0
        for i in range(self.pass_first, len(self.spans)):
            if self.spans[i][0] != name:
                continue
            parent = self.spans[i][3]
            while parent >= 0 and self.spans[parent][0] != ancestor:
                parent = self.spans[parent][3]
            found += parent >= 0
        return found

    def take_case_counts(self) -> dict:
        counts, self.case_counts = dict(self.case_counts), defaultdict(float)
        return counts

    def write(self, path: str) -> None:
        """Write every span as one JSON line, with workload and seed."""
        os.makedirs(os.path.dirname(path), exist_ok=True)
        with open(path, "w") as fh:
            for name, start, end, parent, index in self.spans:
                fh.write(json.dumps({
                    "name": name, "start": start, "end": end, "parent": parent,
                    "pass": index, "workload": self.workload, "seed": self.seed,
                }) + "\n")



# per-layer metrics of one traced pass: name -> unit
LAYER_UNITS = {
    "walk.ladder.s": "s",
    "walk.ladder.steps": "count",
    "walk.ladder.atoms": "count",
    "walk.ladder.macs": "MAC",
    "walk.ladder.macs_per_s": "MAC/s",
    "walk.ladder.useful_frac": "ratio",
    "walk.ladder.sojourn_atoms": "count",
    "walk.convolve.s": "s",
    "walk.hitting_time_scan.passes": "count",
    "walk.position_scan.s": "s",
    "walk.position_scan.self_s": "s",
    "walk.hitting_time_distribution.s": "s",
    "walk.simulate_paths.sojourn.s": "s",
    "walk.simulate_paths.sojourn.steps_per_s": "steps/s",
    "walk.draws": "count",
    "walk.draws_ok_frac": "ratio",
    "walk.simulate_paths.chain.s": "s",
    "walk.simulate_paths.chain.steps_per_s": "steps/s",
    "dynsys.simulate_trajectories.s": "s",
    "dynsys.simulate_trajectories.steps_per_s": "steps/s",
    "dynsys.contributing_frac": "ratio",
    "limits.llt_report.s": "s",
    "limits.llt_report.self_s": "s",
    "limits.llt_predictor.s": "s",
    "limits.fit_limit_params.s": "s",
    "limits.clt_report.s": "s",
    "limits.clt_report.self_s": "s",
    "limits.cumulative_hitting_moments.s": "s",
    "limits.kolmogorov_distance_to_normal.s": "s",
    "environment.diagnostics.s": "s",
    "environment.diagnostics.calls": "count",
    "environment.diagnostics.sites": "count",
    "environment.tail_gen.s": "s",
    "environment.tail_gen.values": "count",
    "environment.lsv_tail_sequence.s": "s",
    "environment.lsv_tail_sequence.values": "count",
    "environment.env_json_text.s": "s",
    "environment.env_json_text.bytes": "bytes",
    "environment.write_env_file.self_s": "s",
    "environment.load_env_file.s": "s",
    "environment.load_env_file.bytes": "bytes",
    "environment.distinct_tail_frac.geometric": "ratio",
    "environment.distinct_tail_frac.powerlaw": "ratio",
    "environment.distinct_tail_frac.mdep": "ratio",
    "environment.distinct_tail_frac.lsv": "ratio",
    "random_env.sample_environment.s": "s",
    "random_env.sample_environment.sites": "count",
    "streams.stream.calls": "count",
    "streams.stream.s": "s",
    "cli.main.self_s": "s",
    "cli.env.s": "s",
    "cli.exact.s": "s",
    "cli.llt.s": "s",
    "cli.output.bytes": "bytes",
    "cli.diagnostics_per_llt": "ratio",
    "trace.overhead_frac": "ratio",
}

CLI_COMMANDS = ("cli.env", "cli.exact", "cli.llt")


def _ratio(a: float, b: float) -> float:
    return a / b if b else 0.0


def layer_metrics(summary: dict, counts: dict, steps: dict) -> dict:
    """Per-layer values of one traced pass, except the distinct-tail shares
    and the tracing overhead, which the caller adds.

    ``summary`` is ``Tracer.pass_summary()``; ``counts`` merges the tracer's
    counts with those derived from the outputs; ``steps`` maps a simulator
    span name to the path-steps its calls performed.
    """
    def s(name):
        return summary.get(name, (0.0, 0.0, 0))[0]

    def self_s(name):
        return summary.get(name, (0.0, 0.0, 0))[1]

    def calls(name):
        return float(summary.get(name, (0.0, 0.0, 0))[2])

    def c(key):
        return float(counts.get(key, 0.0))

    sojourn = "walk.simulate_paths.sojourn"
    chain = "walk.simulate_paths.chain"
    trajectories = "dynsys.simulate_trajectories"
    return {
        "walk.ladder.s": s("walk.ladder"),
        "walk.ladder.steps": c("walk.ladder.steps"),
        "walk.ladder.atoms": c("walk.ladder.atoms"),
        "walk.ladder.macs": c("walk.ladder.macs"),
        "walk.ladder.macs_per_s": _ratio(c("walk.ladder.macs"), s("walk.convolve")),
        "walk.ladder.useful_frac": _ratio(c("walk.ladder.useful_atoms"), c("walk.ladder.atoms")),
        "walk.ladder.sojourn_atoms": _ratio(c("walk.ladder.sojourn_atoms"), c("walk.ladder.steps")),
        "walk.convolve.s": s("walk.convolve"),
        "walk.hitting_time_scan.passes": c("walk.hitting_time_scan.passes"),
        "walk.position_scan.s": s("walk.position_scan"),
        "walk.position_scan.self_s": self_s("walk.position_scan"),
        "walk.hitting_time_distribution.s": s("walk.hitting_time_distribution"),
        f"{sojourn}.s": s(sojourn),
        f"{sojourn}.steps_per_s": _ratio(steps.get(sojourn, 0), s(sojourn)),
        "walk.draws": c("walk.draws"),
        "walk.draws_ok_frac": 1.0 - _ratio(c("walk.truncated_draws"), c("walk.draws"))
        if c("walk.draws") else 0.0,
        f"{chain}.s": s(chain),
        f"{chain}.steps_per_s": _ratio(steps.get(chain, 0), s(chain)),
        f"{trajectories}.s": s(trajectories),
        f"{trajectories}.steps_per_s": _ratio(steps.get(trajectories, 0), s(trajectories)),
        "dynsys.contributing_frac": _ratio(c("dynsys.contributing"), c("dynsys.paths")),
        "limits.llt_report.s": s("limits.llt_report"),
        "limits.llt_report.self_s": self_s("limits.llt_report"),
        "limits.llt_predictor.s": s("limits.llt_predictor"),
        "limits.fit_limit_params.s": s("limits.fit_limit_params"),
        "limits.clt_report.s": s("limits.clt_report"),
        "limits.clt_report.self_s": self_s("limits.clt_report"),
        "limits.cumulative_hitting_moments.s": s("limits.cumulative_hitting_moments"),
        "limits.kolmogorov_distance_to_normal.s": s("limits.kolmogorov_distance_to_normal"),
        "environment.diagnostics.s": s("environment.diagnostics"),
        "environment.diagnostics.calls": calls("environment.diagnostics"),
        "environment.diagnostics.sites": c("environment.diagnostics.sites"),
        "environment.tail_gen.s": s("environment.tail_gen") + s("environment.lsv_tail_sequence"),
        "environment.tail_gen.values": c("environment.tail_gen.values"),
        "environment.lsv_tail_sequence.s": s("environment.lsv_tail_sequence"),
        "environment.lsv_tail_sequence.values": c("environment.lsv_tail_sequence.values"),
        "environment.env_json_text.s": s("environment.env_json_text"),
        "environment.env_json_text.bytes": c("environment.env_json_text.bytes"),
        "environment.write_env_file.self_s": self_s("environment.write_env_file"),
        "environment.load_env_file.s": s("environment.load_env_file"),
        "environment.load_env_file.bytes": c("environment.load_env_file.bytes"),
        "random_env.sample_environment.s": s("random_env.sample_environment"),
        "random_env.sample_environment.sites": c("random_env.sample_environment.sites"),
        "streams.stream.calls": calls("streams.stream"),
        "streams.stream.s": s("streams.stream"),
        "cli.main.self_s": sum(self_s(name) for name in CLI_COMMANDS),
        "cli.env.s": s("cli.env"),
        "cli.exact.s": s("cli.exact"),
        "cli.llt.s": s("cli.llt"),
        "cli.output.bytes": c("cli.output.bytes"),
        "cli.diagnostics_per_llt": _ratio(c("cli.llt.diagnostics"), calls("cli.llt")),
    }
