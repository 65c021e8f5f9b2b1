"""Batch experiment harness.

Subcommands: env, exact, mc, dynsys, llt, clt, slln.  Every stochastic
command requires an explicit --seed, all randomness derives from it through
component-keyed streams, and output files are never overwritten without
--force.  Exit codes: 0 success, 2 validation, 3 numeric budget or an
environment file whose tails do not rebuild, 4 I/O.
"""

from __future__ import annotations

import argparse
import functools
import json
import os
import sys

import numpy as np

from . import random_env
from .environment import (
    DEFAULT_N_CAP,
    DEFAULT_TAIL_TOL,
    Environment,
    LsvParams,
    _all_or_nothing,
    _refuse_overwrite,
    _write_text,
    diagnostics,
    env_from_lsv,
    env_from_powerlaw,
    env_geometric,
    load_env_file,
    write_env_file,
)
from .errors import DeficitBudgetError, RebuildError, TailTruncationError, ValidationError
from .limits import (
    LimitParams,
    clt_report,
    fit_limit_params,
    llt_report,
    llt_report_json,
    slln_report,
)
from .walk import (
    DEFAULT_TRUNC_TOL,
    McConfig,
    _check_times,
    mc_tv_tolerance,
    position_distribution,
    simulate_paths,
    tv_distance,
)
from .dynsys import TrajectoryConfig, simulate_trajectories

# The --trunc-tol default of dynsys, llt and clt.  It is coarser than exact's
# DEFAULT_TRUNC_TOL only because the benchmark's llt check pins its outputs at
# 1e-12; one default for all four commands waits for a benchmark change.
_REPORT_TRUNC_TOL = 1e-12


def _out_path(path: str) -> str:
    """Relative output paths land in $WALKLAB_OUT_DIR when it is set."""
    base = os.environ.get("WALKLAB_OUT_DIR")
    if base and not os.path.isabs(path):
        return os.path.join(base, path)
    return path


def _cells(column) -> list[str]:
    """The cells of one CSV column: a float column as format(x, ".17g") (a
    NaN cell empty), any other through ``str`` (a None cell empty)."""
    values = np.asarray(column)
    if values.dtype.kind in "biu":
        return list(map(str, values.tolist()))
    if values.dtype.kind != "f":
        return ["" if v is None else str(v) for v in values.tolist()]
    # each distinct value is formatted once; by its bits, so 0.0 and -0.0 stay apart
    bits, inverse = np.unique(values.astype(np.float64).view(np.int64), return_inverse=True)
    cells = ["" if v != v else format(v, ".17g") for v in bits.view(np.float64).tolist()]
    return [cells[k] for k in inverse.tolist()]


def _write_csv(path: str, columns: dict, force: bool) -> None:
    """Write the columns (name -> equal-length sequence) as a CSV table."""
    lines = [",".join(columns)]
    lines += map(",".join, zip(*map(_cells, columns.values())))
    _write_text(_out_path(path), "\n".join(lines) + "\n", force)


_JSON_ITEMS = json.JSONEncoder(sort_keys=True, separators=(",\n", ": "))  # in C, an item a line


def _json_text(obj, depth: int = 0) -> str:
    """``json.dumps(obj, sort_keys=True, indent=1)``, each container of scalars
    encoded in C (no scalar's JSON holds a newline to indent)."""
    pad, is_dict = "\n" + " " * (depth + 1), isinstance(obj, dict)
    values = obj.values() if is_dict else obj if isinstance(obj, (list, tuple)) else ()
    if not any(isinstance(v, (dict, list, tuple)) for v in values):
        text = _JSON_ITEMS.encode(obj).replace("\n", pad)  # a scalar, [] or {} if empty
        return text[0] + pad + text[1:-1] + pad[:-1] + text[-1] if values else text
    items = ((json.dumps(k if isinstance(k, str) else json.dumps(k)) + ": ", v)  # as json keys
             for k, v in sorted(obj.items())) if is_dict else (("", v) for v in obj)
    body = ("," + pad).join(key + _json_text(v, depth + 1) for key, v in items)
    return "{["[not is_dict] + pad + body + pad[:-1] + "}]"[not is_dict]


def _write_json(path: str, payload, force: bool) -> None:
    _write_text(_out_path(path), _json_text(payload) + "\n", force)


def _parse_list(text: str, kind=float) -> list:
    try:
        return [kind(v) for v in text.split(",") if v != ""]
    except ValueError as exc:
        raise ValidationError(
            f"expected comma-separated {kind.__name__} values, got {text!r}") from exc


# ---------------------------------------------------------------------------
# env command
# ---------------------------------------------------------------------------

def _build_random_model(args) -> random_env.RandomEnvModel:
    kind, _, family = args.random.partition("-")
    kind = {"iid": "iid", "mdep": "m-dependent", "markov": "markov"}.get(kind)
    if kind is None or family not in ("powerlaw", "geometric", "lsv"):
        raise ValidationError(f"unknown random model {args.random!r}")
    common = dict(kind=kind, family=family, seed=args.seed,
                  window=args.window if kind == "m-dependent" else 0,
                  lsv_c=args.c if args.c is not None else 0.5,
                  beta_diag=args.beta_diag)
    if kind == "markov":
        choices = _parse_list(args.choices or "")
        if len(choices) < 2:
            raise ValidationError("markov models need --choices with >= 2 states")
        k = len(choices)
        stay = args.stay
        if not 0.0 < stay < 1.0:
            raise ValidationError("--stay must lie in (0, 1)")
        trans = np.full((k, k), (1.0 - stay) / (k - 1))
        np.fill_diagonal(trans, stay)
        return random_env.RandomEnvModel(
            chain=random_env.MarkovChainSpec(tuple(choices), trans), **common
        )
    if args.choices:
        return random_env.RandomEnvModel(choices=tuple(_parse_list(args.choices)), **common)
    if args.range:
        bounds = _parse_list(args.range)
        if len(bounds) != 2:
            raise ValidationError(f"--range needs exactly two values low,high, got {args.range!r}")
        return random_env.RandomEnvModel(low=bounds[0], high=bounds[1], **common)
    raise ValidationError("random models need --choices or --range")


def _env_outputs(args) -> tuple:
    return (args.out, args.diagnostics_out or _suffixed(args.out, "-diagnostics.csv"),
            args.m_table_out or _suffixed(args.out, "-mtable.csv"))


def _cmd_env(args) -> int:
    outputs = _env_outputs(args)
    if args.random:
        if args.seed is None:
            raise ValidationError("sampling commands require --seed")
        sample = random_env.sample_environment(
            _build_random_model(args), args.xmax, args.ncap, args.tail_tol
        )
        env = sample.environment
    elif args.family == "geometric":
        if args.r is None:
            raise ValidationError("geometric family requires --r")
        env = env_geometric(args.r, args.xmax, args.ncap, args.tail_tol)
        env.model["beta_diag"] = args.beta_diag
    elif args.family == "powerlaw":
        if args.beta is None:
            raise ValidationError("powerlaw family requires --beta")
        env = env_from_powerlaw(args.beta, args.xmax, args.ncap, args.tail_tol)
    elif args.family == "lsv":
        if args.alpha is None:
            raise ValidationError("lsv family requires --alpha")
        if args.c is not None:
            params = LsvParams.from_alpha_c(args.alpha, args.c)
        elif args.kappa is not None:
            params = LsvParams.from_alpha_kappa(args.alpha, args.kappa)
        else:
            raise ValidationError("lsv family requires --c or --kappa")
        env = env_from_lsv(params, args.xmax, args.ncap, args.tail_tol)
    else:
        raise ValidationError("env needs --family or --random")

    diag = diagnostics(env, _beta_diag(env))
    with _all_or_nothing():
        write_env_file(env, _out_path(args.out), force=args.force)
        _write_csv(outputs[1], {
            "x": diag.x, "A": diag.A, "A_prime": diag.A_prime, "K": diag.K, "m": diag.m,
            "s2": diag.s2, "mu": diag.mu[:-1], "sigma2": diag.sigma2[:-1],
        }, args.force)
        _write_csv(outputs[2], {"n": np.arange(diag.M.size), "M": diag.M}, args.force)
    print(f"env: {len(env)} sites -> {args.out}")
    return 0


def _suffixed(path: str, suffix: str) -> str:
    stem, _ = os.path.splitext(path)
    return stem + suffix


def _beta_diag(env: Environment):
    beta = env.model.get("beta_diag")
    if beta is None:
        raise ValidationError(
            "environment carries no diagnostic beta; rebuild it with a family "
            "command or pass a model descriptor with beta_diag"
        )
    return beta


def _limit_params(env: Environment, args) -> LimitParams:
    if (args.mu is None) != (args.sigma2 is None):
        raise ValidationError("--mu and --sigma2 go together: pass both or neither")
    if args.mu is not None:
        return LimitParams(mu=args.mu, sigma2=args.sigma2)
    diag = diagnostics(env, _beta_diag(env))
    return fit_limit_params(diag).params


# ---------------------------------------------------------------------------
# report commands
# ---------------------------------------------------------------------------

def _cmd_exact(args) -> int:
    env = load_env_file(args.env)
    dist = position_distribution(env, args.n, args.trunc_tol)
    _write_csv(args.out, {
        "x": dist.support, "prob": dist.probs,
        "deficit_bound": np.full(dist.support.size, dist.deficit),
    }, args.force)
    print(f"exact: law of X_{args.n} -> {args.out}")
    return 0


def _cmd_mc(args) -> int:
    env = load_env_file(args.env)
    cfg = McConfig(paths=args.paths, horizon=args.n, seed=args.seed, record=args.record)
    sample = simulate_paths(env, cfg, method=args.method)
    if args.record == "endpoint-only":
        counts = sample.endpoint_counts()
        x = np.flatnonzero(counts)
        _write_csv(args.out, {"x": x, "count": counts[x], "paths": np.full(x.size, args.paths)},
                   args.force)
    elif args.record == "full-path":
        steps = args.n + 1
        _write_csv(args.out, {
            "path": np.repeat(np.arange(args.paths), steps), "n": np.tile(np.arange(steps), args.paths),
            "x": sample.full_x.ravel(), "y": sample.full_y.ravel(),
        }, args.force)
    else:
        sites = sample.hitting.shape[1]
        _write_csv(args.out, {
            "path": np.repeat(np.arange(args.paths), sites), "x": np.tile(np.arange(sites), args.paths),
            "T": sample.hitting.ravel(),
        }, args.force)
    print(f"mc: {args.paths} paths, record={args.record} -> {args.out}")
    return 0


def _cmd_dynsys(args) -> int:
    env = load_env_file(args.env)
    cfg = TrajectoryConfig(paths=args.paths, horizon=args.n, seed=args.seed)
    times = _check_times(_parse_list(args.times, int) if args.times else [args.n], args.n)
    # exact laws first, so a bad --trunc-tol or budget ends it before simulating
    exact = {t: position_distribution(env, t, args.trunc_tol) for t in np.unique(times).tolist()}
    sample = simulate_trajectories(env, cfg, times=times, levels=True)
    # one 2-D block per time, its rows the CSV columns
    hist = [np.empty((4, 0), dtype=np.int64)]
    levels = [np.empty((5, 0), dtype=np.int64)]
    summary = []
    for t in sorted(sample.cell_counts):
        counts = sample.cell_counts[t]
        x = np.flatnonzero(counts)
        hist.append(np.stack([np.full(x.size, t), x, counts[x], np.full(x.size, args.paths)]))
        xs, ys, cs = sample.level_counts[t]
        levels.append(np.stack([np.full(len(xs), t), xs, ys, cs, np.full(len(xs), args.paths)]))
        contributing = sample.contributing[t]
        if not contributing:
            raise TailTruncationError(
                f"all {args.paths} trajectories are flagged by n = {t}: their "
                "points fell below the stored tail, so no path is left to compare; with "
                "power-of-two slopes (geometric r = 0.5) each step uses up one bit of "
                "a point's fraction, and only earlier times help, not a longer tail")
        summary.append({
            "n": t,
            "contributing_paths": contributing,
            "tv_cells": tv_distance(exact[t], counts, contributing),
            "tolerance": mc_tv_tolerance(max(t, 1), contributing),
        })
    with _all_or_nothing():
        _write_csv(args.out_hist, dict(zip(["n", "x", "count", "paths"],
                                           np.concatenate(hist, axis=1))), args.force)
        _write_csv(args.out_levels, dict(zip(["n", "x", "y", "count", "paths"],
                                             np.concatenate(levels, axis=1))), args.force)
        _write_json(args.out_summary, {
            "paths": args.paths, "seed": args.seed,
            "flagged_paths": sample.flagged, "rows": summary,
        }, args.force)
    print(f"dynsys: {args.paths} trajectories -> {args.out_summary}")
    return 0


def _cmd_llt(args) -> int:
    env = load_env_file(args.env)
    params = _limit_params(env, args)
    diag = diagnostics(env, _beta_diag(env))
    reports = []
    for n in _parse_list(args.n_grid, int):
        rep = llt_report(env, params, diag, n, trunc_tol=args.trunc_tol)
        reports.append(llt_report_json(rep))
        print(f"llt: n={n} sup_err_scaled={rep.sup_err_scaled:.6g}")
    _write_json(args.out, reports, args.force)
    return 0


def _cmd_clt(args) -> int:
    env = load_env_file(args.env)
    params = _limit_params(env, args)
    rep = clt_report(env, params, _parse_list(args.n_grid, int), trunc_tol=args.trunc_tol)
    _write_csv(args.out, {"n": rep.n, "kolmogorov_X": rep.dist_position,
                          "x": rep.hitting_x, "kolmogorov_T": rep.dist_hitting}, args.force)
    print(f"clt: grid {args.n_grid} -> {args.out}")
    return 0


def _cmd_slln(args) -> int:
    env = load_env_file(args.env)
    params = _limit_params(env, args)
    times = np.unique(np.linspace(1, args.horizon, num=min(args.horizon, 32), dtype=np.int64))
    cfg = McConfig(paths=args.paths, horizon=args.horizon, seed=args.seed)
    sample = simulate_paths(env, cfg, method="sojourn", times=times)
    rep = slln_report(env, params, sample, tol=args.tol)
    _write_csv(args.out, {"n": rep.times, "mean_ratio": rep.mean_ratio,
                          "frac_within": rep.frac_within}, args.force)
    print(
        f"slln: speed={rep.speed:.6g} final_frac_within={rep.final_frac_within:.4f} "
        f"-> {args.out}"
    )
    return 0


# ---------------------------------------------------------------------------
# parser
# ---------------------------------------------------------------------------

def _add_common(p, seed_required: bool) -> None:
    p.add_argument("--seed", type=int, required=seed_required,
                   help="stream seed (required for stochastic commands)")
    p.add_argument("--force", action="store_true", help="overwrite existing outputs")
    p.set_defaults(outputs=lambda args: (args.out,))  # the command's output paths


def _add_params_flags(p) -> None:
    p.add_argument("--mu", type=float, help="override the fitted mean sojourn")
    p.add_argument("--sigma2", type=float, help="override the fitted sojourn variance")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="walklab", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("env", help="build or sample an environment file")
    p.add_argument("--family", choices=["geometric", "powerlaw", "lsv"])
    p.add_argument("--random", help="random model, e.g. iid-powerlaw, mdep-powerlaw, markov-powerlaw")
    p.add_argument("--r", type=float, help="geometric ratio")
    p.add_argument("--beta", type=float, help="power-law exponent")
    p.add_argument("--alpha", type=float, help="neutral-branch exponent")
    p.add_argument("--c", type=float, help="branch cut point")
    p.add_argument("--kappa", type=float, help="branch coefficient")
    p.add_argument("--choices", help="comma-separated parameter states")
    p.add_argument("--range", help="comma-separated low,high parameter range")
    p.add_argument("--window", type=int, default=0, help="m-dependence window")
    p.add_argument("--stay", type=float, default=0.6, help="markov stay probability")
    p.add_argument("--beta-diag", type=float, default=3.0, dest="beta_diag",
                   help="diagnostic tail exponent for super-polynomial families")
    p.add_argument("--xmax", type=int, required=True)
    p.add_argument("--ncap", type=int, default=DEFAULT_N_CAP)
    p.add_argument("--tail-tol", type=float, default=DEFAULT_TAIL_TOL, dest="tail_tol")
    p.add_argument("--out", required=True)
    p.add_argument("--diagnostics-out", dest="diagnostics_out")
    p.add_argument("--m-table-out", dest="m_table_out")
    _add_common(p, seed_required=False)
    p.set_defaults(run=_cmd_env, outputs=_env_outputs)

    p = sub.add_parser("exact", help="exact law of the position at time n")
    p.add_argument("--env", required=True)
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--trunc-tol", type=float, default=DEFAULT_TRUNC_TOL, dest="trunc_tol")
    p.add_argument("--out", required=True)
    _add_common(p, seed_required=False)
    p.set_defaults(run=_cmd_exact)

    p = sub.add_parser("mc", help="Monte Carlo walk paths")
    p.add_argument("--env", required=True)
    p.add_argument("--paths", type=int, required=True)
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--record", default="endpoint-only",
                   choices=["endpoint-only", "full-path", "hitting-times"])
    p.add_argument("--method", choices=["chain", "sojourn"])
    p.add_argument("--out", required=True)
    _add_common(p, seed_required=True)
    p.set_defaults(run=_cmd_mc)

    p = sub.add_parser("dynsys", help="trajectory histograms vs exact laws")
    p.add_argument("--env", required=True)
    p.add_argument("--paths", type=int, required=True)
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--times", help="comma-separated record times (default: n)")
    p.add_argument("--trunc-tol", type=float, default=_REPORT_TRUNC_TOL, dest="trunc_tol")
    p.add_argument("--out-hist", required=True, dest="out_hist")
    p.add_argument("--out-levels", required=True, dest="out_levels")
    p.add_argument("--out-summary", required=True, dest="out_summary")
    _add_common(p, seed_required=True)
    p.set_defaults(run=_cmd_dynsys,
                   outputs=lambda args: (args.out_hist, args.out_levels, args.out_summary))

    p = sub.add_parser("llt", help="pointwise comparison against the local predictor")
    p.add_argument("--env", required=True)
    p.add_argument("--n-grid", required=True, dest="n_grid")
    p.add_argument("--trunc-tol", type=float, default=_REPORT_TRUNC_TOL,
                   dest="trunc_tol", help="per-convolution trim tolerance")
    p.add_argument("--out", required=True)
    _add_params_flags(p)
    _add_common(p, seed_required=False)
    p.set_defaults(run=_cmd_llt)

    p = sub.add_parser("clt", help="Kolmogorov distances of standardized laws")
    p.add_argument("--env", required=True)
    p.add_argument("--n-grid", required=True, dest="n_grid")
    p.add_argument("--trunc-tol", type=float, default=_REPORT_TRUNC_TOL,
                   dest="trunc_tol", help="per-convolution trim tolerance")
    p.add_argument("--out", required=True)
    _add_params_flags(p)
    _add_common(p, seed_required=False)
    p.set_defaults(run=_cmd_clt)

    p = sub.add_parser("slln", help="path-speed report")
    p.add_argument("--env", required=True)
    p.add_argument("--paths", type=int, required=True)
    p.add_argument("--horizon", type=int, required=True)
    p.add_argument("--tol", type=float, default=0.02)
    p.add_argument("--out", required=True)
    _add_params_flags(p)
    _add_common(p, seed_required=True)
    p.set_defaults(run=_cmd_slln)

    return parser


@functools.cache
def _parser() -> argparse.ArgumentParser:
    """The parser ``main`` reuses: built on the first call, not at import."""
    return build_parser()


def main(argv=None) -> int:
    args = _parser().parse_args(argv)
    try:
        # all or nothing: refuse before any work if an output exists
        _refuse_overwrite([_out_path(p) for p in args.outputs(args)], args.force)
        return args.run(args)
    except ValidationError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except (DeficitBudgetError, TailTruncationError) as exc:
        # each message names its own remedy; no one hint fits both errors
        print(f"numeric budget exceeded: {exc}", file=sys.stderr)
        return 3
    except RebuildError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    except OSError as exc:
        print(f"i/o error: {exc}", file=sys.stderr)
        return 4


if __name__ == "__main__":
    sys.exit(main())
