"""The benchmark's three workloads and the checks on their outputs.

A workload builds its inputs from the seed in ``setup`` (untimed) and lists
the operations of one timed pass in ``ops``.  Every operation's output is
checked: the first pass in full, against library results or against reference
values recorded from the library (``reference.json``), and every later pass by
sha256 against the first.  Library functions are looked up on their modules
at call time (``walk.simulate_paths``), so the traced run sees each call at
the name ``spans.py`` patches.

Sizes are scaled so that one pass takes a few seconds on a 2-CPU machine while
keeping the input property each workload exists for; ``smoke`` sizes run the
same operations and checks in well under a second.
"""

from __future__ import annotations

import contextlib
import dataclasses
import hashlib
import io
import json
import os
import shutil
import tempfile
from dataclasses import dataclass, field
from functools import partial
from typing import Callable

import numpy as np

from walklab import cli, dynsys, environment, limits, random_env, walk

REFERENCE_PATH = os.path.join(os.path.dirname(os.path.abspath(__file__)), "reference.json")
# absolute tolerance on fitted constants, sup_err_scaled and Kolmogorov distances
REFERENCE_TOL = 1e-9
MASS_TOL = 1e-9


@dataclass
class Op:
    """One timed operation of a pass.

    ``check`` returns a problem description, or None when the output is right;
    ``counts`` derives per-layer counts from the output after the pass.
    ``steps`` is the number of path-steps a simulator op performs.
    """

    label: str
    group: str
    run: Callable[[], object]
    check: Callable[[object], str | None]
    counts: Callable[[object], dict] = field(default=lambda result: {})
    steps: int = 0


def digest(obj) -> str:
    """sha256 over the arrays and scalars of a result, in a fixed order."""
    h = hashlib.sha256()
    _feed(h, obj)
    return h.hexdigest()


def _feed(h, obj) -> None:
    if isinstance(obj, np.ndarray):
        h.update(str(obj.dtype).encode())
        h.update(np.ascontiguousarray(obj).tobytes())
    elif isinstance(obj, dict):
        for key in sorted(obj, key=repr):
            h.update(repr(key).encode())
            _feed(h, obj[key])
    elif isinstance(obj, (list, tuple)):
        for item in obj:
            _feed(h, item)
    elif dataclasses.is_dataclass(obj):
        _feed(h, {f.name: getattr(obj, f.name) for f in dataclasses.fields(obj)})
    else:
        h.update(repr(obj).encode())


def tail_shape(env) -> dict:
    """Input properties of an environment: distinct tails and sojourn supports."""
    sites = env.sites()
    atoms = np.array([s.values.size for s in sites])
    distinct = {(s.values.tobytes(), s.deficit) for s in sites}
    return {
        "sites": len(sites),
        "distinct_tail_frac": len(distinct) / len(sites),
        "sojourn_atoms_mean": float(atoms.mean()),
        "sojourn_atoms_max": int(atoms.max()),
    }


def _no_span(name):
    return contextlib.nullcontext()


class Workload:
    name = ""
    sizes: dict = {}

    def __init__(self, seed: int, size: str = "full", workdir: str | None = None):
        self.seed = seed
        self.size = size
        self.cfg = self.sizes[size]
        self.workdir = workdir
        self.span = _no_span
        self.properties: dict = {}

    def setup(self) -> None:
        raise NotImplementedError

    def ops(self) -> list[Op]:
        raise NotImplementedError

    def digest(self, op: Op, result) -> str:
        return digest(result)

    def end_pass(self, index: int) -> None:
        """Release what pass ``index`` left behind (its outputs are digested)."""

    def close(self) -> None:
        """Release everything; called once after the checks."""


# ---------------------------------------------------------------------------
# exact: the convolution ladder behind llt_report and clt_report
# ---------------------------------------------------------------------------

class Exact(Workload):
    """diagnostics, the fit, llt_report over an n-grid and clt_report, on a
    power-law beta=3 environment (2155-atom sojourns) and a geometric r=0.5
    environment (48-atom sojourns).  The n-grids run from a ladder that
    produces almost only atoms beyond n (power-law, n=12) to one that produces
    almost only atoms below n (geometric, largest n).  No Monte Carlo, no file
    I/O; the inputs do not depend on the seed."""

    name = "exact"
    sizes = {
        "full": {
            "powerlaw": {"x_max": 1300, "llt": (12, 400, 1000), "clt": (200, 500)},
            "geometric": {"x_max": 2500, "llt": (250, 1000, 4000), "clt": (250, 2000)},
        },
        "smoke": {
            "powerlaw": {"x_max": 150, "llt": (12, 60), "clt": (40,)},
            "geometric": {"x_max": 250, "llt": (50, 200), "clt": (50, 200)},
        },
    }

    def setup(self) -> None:
        self.envs = {
            "powerlaw": environment.env_from_powerlaw(
                3.0, self.cfg["powerlaw"]["x_max"], tail_tol=1e-10),
            "geometric": environment.env_geometric(
                0.5, self.cfg["geometric"]["x_max"], tail_tol=1e-14),
        }
        self.properties = {f"env.{k}": tail_shape(env) for k, env in self.envs.items()}

    def ops(self) -> list[Op]:
        state: dict = {}
        out = []
        for family, case in self.cfg.items():
            env = self.envs[family]
            out.append(Op(f"{family} diagnostics", "llt_s",
                          partial(self._diagnostics, env, family, state),
                          partial(self._check_diagnostics, env)))
            label = f"{family} fit"
            out.append(Op(label, "llt_s", partial(self._fit, family, state),
                          partial(self.check_reference, label)))
            for n in case["llt"]:
                label = f"{family} llt n={n}"
                out.append(Op(label, "llt_s", partial(self._llt, env, family, state, n),
                              partial(self._check_llt, label)))
        for family, case in self.cfg.items():
            label = f"{family} clt n={','.join(map(str, case['clt']))}"
            out.append(Op(label, "clt_s",
                          partial(self._clt, self.envs[family], family, state, case["clt"]),
                          partial(self.check_reference, label)))
        return out

    @staticmethod
    def _diagnostics(env, family, state):
        state[family, "diag"] = environment.diagnostics(env, env.model["beta_diag"])
        return state[family, "diag"]

    @staticmethod
    def _fit(family, state):
        state[family, "params"] = limits.fit_limit_params(state[family, "diag"]).params
        return state[family, "params"]

    @staticmethod
    def _llt(env, family, state, n):
        return limits.llt_report(env, state[family, "params"], state[family, "diag"], n)

    @staticmethod
    def _clt(env, family, state, grid):
        return limits.clt_report(env, state[family, "params"], grid)

    @staticmethod
    def _check_diagnostics(env, diag) -> str | None:
        if diag.x.size != len(env) or not np.all(np.isfinite(diag.mu)):
            return "diagnostics do not cover every site with finite moments"
        return None

    def _check_llt(self, label, report) -> str | None:
        mass = float(report.exact.sum()) + report.exact_deficit
        if abs(mass - 1.0) > MASS_TOL:
            return f"position law mass + deficit = {mass!r}"
        return self.check_reference(label, report)

    @staticmethod
    def reference_values(result) -> dict:
        """The numbers of an op's output that are compared with reference.json."""
        if isinstance(result, limits.LimitParams):
            return {"mu": float(result.mu), "sigma2": float(result.sigma2)}
        if isinstance(result, limits.LltReport):
            return {"sup_err_scaled": result.sup_err_scaled}
        return {"dist_position": result.dist_position.tolist(),
                "dist_hitting": result.dist_hitting.tolist()}

    def check_reference(self, label, result) -> str | None:
        with open(REFERENCE_PATH) as fh:
            expected = json.load(fh).get(self.size, {}).get(label)
        if expected is None:
            return f"no reference value recorded for {label!r}"
        got = self.reference_values(result)
        for key, want in expected.items():
            have = np.atleast_1d(got[key])
            want = np.atleast_1d(want)
            if have.shape != want.shape or np.max(np.abs(have - want)) > REFERENCE_TOL:
                return f"{key} = {have.tolist()}, reference {want.tolist()}"
        return None


# ---------------------------------------------------------------------------
# simulate: the walk Monte Carlo and the extended map
# ---------------------------------------------------------------------------

GEOMETRIC_MU = 2.0  # sum of 0.5**n
GEOMETRIC_SIGMA2 = 2.0  # r / (1 - r)**2 at r = 0.5
SLLN_CHECKPOINTS = 32


class Simulate(Workload):
    """simulate_paths with the sojourn method (the slln shape with checkpoints,
    and endpoint-only), with the chain method, and simulate_trajectories with
    level histograms, on geometric r=0.5 and power-law beta=3.  On geometric
    r=0.5 about 6% of extended-map paths are flagged (the exactly binary slopes
    run out of fraction bits); on power-law none are.  The ladder only runs in
    the checks, outside the timed part."""

    name = "simulate"
    # (kind, family, paths, horizon); kind "slln" is the sojourn method with checkpoints
    sizes = {
        "full": [
            ("slln", "geometric", 1000, 4000),
            ("sojourn", "powerlaw", 30_000, 200),
            ("chain", "geometric", 40_000, 50),
            ("chain", "powerlaw", 15_000, 200),
            ("dynsys", "geometric", 40_000, 50),
            ("dynsys", "powerlaw", 10_000, 200),
        ],
        "smoke": [
            ("slln", "geometric", 200, 500),
            ("sojourn", "powerlaw", 2000, 50),
            ("chain", "geometric", 2000, 50),
            ("chain", "powerlaw", 1000, 50),
            ("dynsys", "geometric", 2000, 50),
            ("dynsys", "powerlaw", 1000, 50),
        ],
    }

    def setup(self) -> None:
        reach = {f: max(h for _, g, _, h in self.cfg if g == f) for _, f, _, _ in self.cfg}
        self.envs = {
            "geometric": environment.env_geometric(0.5, reach["geometric"], tail_tol=1e-14),
            "powerlaw": environment.env_from_powerlaw(3.0, reach["powerlaw"], tail_tol=1e-10),
        }
        self.exact: dict = {}
        self.properties = {f"env.{k}": tail_shape(env) for k, env in self.envs.items()}

    def ops(self) -> list[Op]:
        out = []
        for kind, family, paths, horizon in self.cfg:
            env = self.envs[family]
            label = f"{kind} {family} {paths}x{horizon}"
            if kind == "dynsys":
                cfg = dynsys.TrajectoryConfig(paths=paths, horizon=horizon, seed=self.seed)
                out.append(Op(label, "dynsys_steps_per_s",
                              partial(_trajectories, env, cfg),
                              partial(self._check_cells, env, horizon),
                              _trajectory_counts, paths * horizon))
                continue
            cfg = walk.McConfig(paths=paths, horizon=horizon, seed=self.seed)
            if kind == "slln":
                times = np.unique(np.linspace(1, horizon, num=SLLN_CHECKPOINTS, dtype=np.int64))
                run = partial(_paths, env, cfg, "sojourn", times)
                check = partial(_check_slln, env)
            else:
                run = partial(_paths, env, cfg, kind, None)
                check = partial(self._check_endpoint, env, horizon, paths)
            if kind == "chain":
                out.append(Op(label, "chain_steps_per_s", run, check, steps=paths * horizon))
            else:
                out.append(Op(label, "sojourn_steps_per_s", run, check, _draw_counts,
                              paths * horizon))
        return out

    def _exact_law(self, env, horizon):
        key = (id(env), horizon)
        if key not in self.exact:
            self.exact[key] = walk.position_distribution(env, horizon)
        return self.exact[key]

    def _check_endpoint(self, env, horizon, paths, sample) -> str | None:
        exact = self._exact_law(env, horizon)
        return _tv_problem(exact, sample.endpoint_counts(), paths)

    def _check_cells(self, env, horizon, sample) -> str | None:
        exact = self._exact_law(env, horizon)
        return _tv_problem(exact, sample.cell_counts[horizon], sample.contributing[horizon])


def _paths(env, cfg, method, times):
    return walk.simulate_paths(env, cfg, method=method, times=times)


def _trajectories(env, cfg):
    return dynsys.simulate_trajectories(env, cfg, levels=True)


def _tv_problem(exact, counts, paths) -> str | None:
    tv = walk.tv_distance(exact, counts, paths)
    tol = walk.mc_tv_tolerance(exact.probs.size, paths)
    return None if tv <= tol else f"TV {tv:.4g} above mc_tv_tolerance {tol:.4g}"


def _check_slln(env, sample) -> str | None:
    params = limits.LimitParams(mu=GEOMETRIC_MU, sigma2=GEOMETRIC_SIGMA2)
    report = limits.slln_report(env, params, sample)
    gap = abs(float(report.mean_ratio[-1]) - report.speed)
    return None if gap < report.tol else f"mean X_n/n off 1/mu by {gap:.4g} (tol {report.tol})"


def _draw_counts(sample) -> dict:
    # a sojourn path draws at sites 0..X_n: one draw more than its endpoint
    x_end = sample.x_final if sample.x_final is not None else sample.x_at_times[:, -1]
    return {"walk.draws": float(x_end.sum() + x_end.size),
            "walk.truncated_draws": float(sample.truncated_draws)}


def _trajectory_counts(sample) -> dict:
    horizon = int(sample.times[-1])
    return {"dynsys.paths": float(sample.paths),
            "dynsys.contributing": float(sample.contributing[horizon])}


# ---------------------------------------------------------------------------
# env-files: the CLI writing and reading environment files
# ---------------------------------------------------------------------------

class EnvFiles(Workload):
    """``walklab env`` for a constant geometric environment (every site shares
    one tail), an m-dependent power-law environment and an i.i.d. lsv
    environment (every tail distinct, the lsv tails generated by backward
    orbits); then ``walklab exact`` and ``walklab llt`` read the files back,
    ``llt`` without --mu/--sigma2 so it fits them.  Runs through ``cli.main``
    in-process, into a directory under the checkout."""

    name = "env-files"
    sizes = {
        "full": {"geo_x_max": 4000, "mdep_x_max": 500, "mdep_tail_tol": 1e-9,
                 "lsv_x_max": 100, "lsv_tail_tol": 1e-6, "exact_n": 150,
                 "llt_grid": (500, 2000)},
        "smoke": {"geo_x_max": 300, "mdep_x_max": 30, "mdep_tail_tol": 1e-9,
                  "lsv_x_max": 3, "lsv_tail_tol": 1e-6, "exact_n": 20,
                  "llt_grid": (50, 200)},
    }

    def setup(self) -> None:
        c = self.cfg
        seed = str(self.seed)
        self.argv = {
            "geometric": ["env", "--family", "geometric", "--r", "0.5",
                          "--xmax", str(c["geo_x_max"]), "--tail-tol", "1e-14"],
            "mdep": ["env", "--random", "mdep-powerlaw", "--range", "2.5,3.5", "--window", "3",
                     "--xmax", str(c["mdep_x_max"]), "--tail-tol", repr(c["mdep_tail_tol"]),
                     "--seed", seed],
            "lsv": ["env", "--random", "iid-lsv", "--range", "0.3,0.4",
                    "--xmax", str(c["lsv_x_max"]), "--tail-tol", repr(c["lsv_tail_tol"]),
                    "--seed", seed],
        }
        self.pass_dirs: list[str] = []
        self.reference: dict = {}

    def ops(self) -> list[Op]:
        d = tempfile.mkdtemp(prefix="pass-", dir=self.workdir)
        self.pass_dirs.append(d)
        out = []
        files = {}
        for label, argv in self.argv.items():
            path = os.path.join(d, f"{label}.json")
            files[label] = path
            outputs = [path, os.path.join(d, f"{label}-diagnostics.csv"),
                       os.path.join(d, f"{label}-mtable.csv")]
            out.append(Op(f"env {label}", "env_cmd_s",
                          partial(self._cli, argv + ["--out", path], outputs),
                          partial(self._check_env, label), _output_bytes))
        csv_path = os.path.join(d, "exact.csv")
        out.append(Op("exact mdep", "report_cmd_s",
                      partial(self._cli, ["exact", "--env", files["mdep"], "--n",
                                          str(self.cfg["exact_n"]), "--out", csv_path],
                              [csv_path]),
                      self._check_exact, _output_bytes))
        llt_path = os.path.join(d, "llt.json")
        grid = ",".join(map(str, self.cfg["llt_grid"]))
        out.append(Op("llt geometric", "report_cmd_s",
                      partial(self._cli, ["llt", "--env", files["geometric"], "--n-grid", grid,
                                          "--out", llt_path], [llt_path]),
                      self._check_llt, _output_bytes))
        return out

    def _cli(self, argv, outputs):
        with self.span(f"cli.{argv[0]}"), contextlib.redirect_stdout(io.StringIO()):
            code = cli.main(argv)
        if code != 0:
            raise RuntimeError(f"walklab {argv[0]} exited with {code}")
        return outputs

    def digest(self, op: Op, result) -> str:
        files = {}
        for path in result:
            with open(path, "rb") as fh:
                files[os.path.basename(path)] = hashlib.sha256(fh.read()).hexdigest()
        return digest(files)

    def end_pass(self, index: int) -> None:
        if index > 0:
            shutil.rmtree(self.pass_dirs[index], ignore_errors=True)

    def close(self) -> None:
        for d in self.pass_dirs:
            shutil.rmtree(d, ignore_errors=True)

    # -- references built from the library, outside the timed part ----------

    def _reference_env(self, label):
        if label not in self.reference:
            c = self.cfg
            if label == "geometric":
                env = environment.env_geometric(0.5, c["geo_x_max"], tail_tol=1e-14)
                env.model["beta_diag"] = 3.0  # what `walklab env` records
            elif label == "mdep":
                model = random_env.RandomEnvModel(kind="m-dependent", family="powerlaw",
                                                  seed=self.seed, low=2.5, high=3.5, window=3)
                env = random_env.sample_environment(
                    model, c["mdep_x_max"], tail_tol=c["mdep_tail_tol"]).environment
            else:
                model = random_env.RandomEnvModel(kind="iid", family="lsv",
                                                  seed=self.seed, low=0.3, high=0.4)
                env = random_env.sample_environment(
                    model, c["lsv_x_max"], tail_tol=c["lsv_tail_tol"]).environment
            self.reference[label] = env
        return self.reference[label]

    def _check_env(self, label, outputs) -> str | None:
        loaded = environment.load_env_file(outputs[0])
        self.properties[f"env.{label}"] = tail_shape(loaded)
        return env_difference(loaded, self._reference_env(label))

    def _check_exact(self, outputs) -> str | None:
        law = walk.position_distribution(self._reference_env("mdep"), self.cfg["exact_n"],
                                         trunc_tol=1e-14)
        with open(outputs[0]) as fh:
            header, *rows = fh.read().splitlines()
        if header != "x,prob,deficit_bound" or len(rows) != law.probs.size:
            return f"exact CSV has {len(rows)} rows, the library law {law.probs.size} atoms"
        for row, x, p in zip(rows, law.support, law.probs):
            fx, fp, fd = row.split(",")
            if int(fx) != x or float(fp) != p or float(fd) != law.deficit:
                return f"exact CSV row {row!r} differs from the library law at x={x}"
        return None

    def _check_llt(self, outputs) -> str | None:
        env = self._reference_env("geometric")
        diag = environment.diagnostics(env, 3.0)
        params = limits.fit_limit_params(diag).params
        want = [limits.llt_report_json(limits.llt_report(env, params, diag, n, trunc_tol=1e-12))
                for n in self.cfg["llt_grid"]]
        with open(outputs[0]) as fh:
            have = json.load(fh)
        if have != json.loads(json.dumps(want)):
            return "llt JSON differs from the library llt_report"
        return None


def _output_bytes(outputs) -> dict:
    return {"cli.output.bytes": float(sum(os.path.getsize(p) for p in outputs))}


def env_difference(a, b) -> str | None:
    """None when two environments are equal bit for bit, else the first difference."""
    if len(a) != len(b):
        return f"{len(a)} sites, expected {len(b)}"
    if json.loads(json.dumps(a.model, sort_keys=True)) != json.loads(
            json.dumps(b.model, sort_keys=True)):
        return "model descriptors differ"
    for x, (s, t) in enumerate(zip(a.sites(), b.sites())):
        if s.values.tobytes() != t.values.tobytes() or \
                np.float64(s.deficit).tobytes() != np.float64(t.deficit).tobytes():
            return f"site {x} differs"
    return None


WORKLOADS = {w.name: w for w in (Exact, Simulate, EnvFiles)}
