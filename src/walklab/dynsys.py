"""Piecewise-linear extended dynamics on the half line.

Each unit cell [x, x+1) is partitioned by the site tail into level intervals
I_(x,y) = [x + omega_{y+1}, x + omega_y).  The local map sends level y to
level y-1 affinely for y >= 1 and sends the top interval [omega_1, 1) affinely
into the next cell.  With a uniform initial state in [0, 1), the cell index
floor(u_n) is distributed exactly like the walk position X_n; the trajectory
simulator here estimates those cell (and level) occupations so the identity
can be checked against the exact laws in ``walk``.

Trajectories whose fractional part falls below a site's stored tail are
flagged and frozen rather than silently continued; the flagged count is part
of the sample.  A run's distinct tails lie end to end: a point's level is
its rank in its site's table of one guide (``streams.Guide``), clipped at 1,
so a step ranks every point in one call and only the points below the tail,
a short list, are flagged.  Every level maps by ext[y] + slope[y]
(f - ext[y+1]) with ext[-1] := 2; at the top level that rounds as
1 + (f - omega_1) / (1 - omega_1) only where 1 / (1 - omega_1) is exact.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .environment import Environment
from .errors import ValidationError
from .streams import CHUNK, Guide, stream
from .walk import _check_run_size, _check_times, _state_counts

__all__ = ["TrajectoryConfig", "TrajectorySample", "simulate_trajectories"]


def _slopes(ext: np.ndarray) -> np.ndarray:
    """Branch slopes by level, (ext[y-1] - ext[y]) / (ext[y] - ext[y+1]) with
    ext[-1] := 2; 0 at empty levels and at the last value, which is no level."""
    slope = np.zeros_like(ext)
    above = np.concatenate(([2.0], ext[:-2]))
    np.divide(above - ext[:-1], ext[:-1] - ext[1:], out=slope[:-1], where=ext[:-1] > ext[1:])
    return slope


def _apply_local(ext: np.ndarray, slope: np.ndarray, f: np.ndarray, i: np.ndarray) -> np.ndarray:
    """Affine branch images ext[i] + slope[i] * (f - ext[i+1]) of points f at
    levels i of extended tails laid end to end in ext, slope their
    ``_slopes``: each level maps onto the one above it, level 0 onto [1, 2)."""
    out = ext[1:].take(i)
    np.subtract(f, out, out=out)
    np.multiply(slope.take(i), out, out=out)
    np.add(ext.take(i), out, out=out)
    return out


def _level_tables(env: Environment, horizon: int) -> tuple:
    """The map's tables on sites 0..horizon: their tails' extended values end
    to end (ext), their ``_slopes``, one guide over them reversed with ranks
    clipped at 1, each site's table (None on one tail), and each table's last
    index in ext and deepest level.  Rank r in table t is level top[t] - r,
    at index last[t] - r of ext.  Tails are numbered in order of first
    appearance, so the tables are those of tails 0..max of the sites."""
    tails = env.tail_index[: horizon + 1]
    exts = [tail.extended() for tail in env.tails[: tails.max() + 1]]
    top = np.array([e.size - 1 for e in exts])
    return (np.concatenate(exts), np.concatenate([_slopes(e) for e in exts]),
            Guide([e[::-1].copy() for e in exts], lo=1), tails if len(exts) > 1 else None,
            np.cumsum(top + 1) - 1, top)


@dataclass(frozen=True)
class TrajectoryConfig:
    """Path count, horizon and seed for trajectory runs."""

    paths: int
    horizon: int
    seed: int

    def __post_init__(self):
        if self.paths < 1:
            raise ValidationError(f"paths must be >= 1, got {self.paths}")
        if self.horizon < 0:
            raise ValidationError(f"horizon must be >= 0, got {self.horizon}")


@dataclass(eq=False)
class TrajectorySample:
    """Histograms of trajectory states at the recorded times.

    ``contributing[t]`` is the number of still-unflagged paths behind the
    time-t histograms; empirical frequencies should be normalized by it.
    """

    paths: int
    seed: int
    times: np.ndarray
    cell_counts: dict[int, np.ndarray] = field(default_factory=dict)
    level_counts: dict[int, tuple[np.ndarray, np.ndarray, np.ndarray]] = field(default_factory=dict)
    positions: dict[int, np.ndarray] = field(default_factory=dict)
    contributing: dict[int, int] = field(default_factory=dict)
    flagged: int = 0


def simulate_trajectories(
    env: Environment,
    cfg: TrajectoryConfig,
    times=None,
    levels: bool = False,
    keep_positions_at=None,
) -> TrajectorySample:
    """Iterate the extended map from uniform starts and histogram the cells.

    ``times`` defaults to the horizon only.  With ``levels`` the (cell, level)
    resolved histogram is recorded as well; ``keep_positions_at`` keeps the raw
    positions at the given times (for within-interval uniformity checks).
    A path is flagged by the first step that starts from a point below its
    site's stored tail, and stops contributing from then on; a point that has
    just landed below the tail still counts at a recorded time (in its cell,
    and at the deepest level with ``levels``) until its next step flags it.
    Runs past ``walk._check_run_size``'s caps are refused before any site is
    built.
    """
    if times is None:
        times = [cfg.horizon]
    times = np.unique(_check_times(times, cfg.horizon))
    keep_at = set() if keep_positions_at is None else {int(t) for t in keep_positions_at}
    if not keep_at <= set(times.tolist()):
        raise ValidationError("keep_positions_at must be a subset of times")
    # a level key a path at each time, a position at each kept time
    _check_run_size(cfg.paths, cfg.horizon, (times.size if levels else 0) + len(keep_at))
    env.ensure(cfg.horizon)

    run = _level_tables(env, cfg.horizon)
    width = int(run[-1].max())  # levels y < width
    sample = TrajectorySample(paths=cfg.paths, seed=cfg.seed, times=times)
    lvl_keys: dict[int, list[np.ndarray]] = {t: [] for t in times.tolist()}  # x * width + y
    pos: dict[int, list[np.ndarray]] = {t: [] for t in keep_at}

    for index, start in enumerate(range(0, cfg.paths, CHUNK)):
        size = min(CHUNK, cfg.paths - start)
        u = stream(cfg.seed, "dynsys-mc", index).random(size)
        alive = np.ones(size, dtype=bool)
        for t in range(cfg.horizon + 1):
            if t > 0 and alive.any():  # a chunk with every path flagged stops stepping
                u, alive = _step_batch(run, u, alive)
            if t in lvl_keys:
                live = u[alive]
                sample.contributing[t] = sample.contributing.get(t, 0) + live.size
                sample.cell_counts[t] = sample.cell_counts.get(t, 0) + np.bincount(
                    live.astype(np.int64), minlength=cfg.horizon + 2)
                if levels:
                    states = _level_states(run, live)
                    lvl_keys[t].append(states[:, 0] * width + states[:, 1])
                if t in pos:
                    pos[t].append(live)
        sample.flagged += int(np.count_nonzero(~alive))

    if levels:
        sample.level_counts = {t: _state_counts(np.concatenate(keys), width)
                               for t, keys in lvl_keys.items()}
    sample.positions = {t: np.concatenate(p) for t, p in pos.items()}
    return sample


def _step_batch(run: tuple, u: np.ndarray, alive: np.ndarray):
    """Advance a chunk of paths one step, each point ranked in its site's
    table of ``run`` (``_level_tables``) in one call.  A flagged point keeps
    its value and flag; a live one that falls below its site's tail is flagged."""
    ext, slope, guide, tails, last, _ = run
    x = u.astype(np.int64)  # floor, as u >= 0
    f = u - x
    t = 0 if tails is None else tails[x]
    pos, below = guide.rank(f, t)
    image = _apply_local(ext, slope, f, np.subtract(last[t], pos, out=pos))
    np.add(x, image, out=image)
    alive[below] = False
    np.copyto(u, image, where=alive)
    return u, alive


def _level_states(run: tuple, u: np.ndarray) -> np.ndarray:
    """(x, y) states of positions, stacked as rows."""
    _, _, guide, tails, _, top = run
    x = u.astype(np.int64)  # floor, as u >= 0
    t = 0 if tails is None else tails[x]
    return np.stack([x, top[t] - guide.rank(u - x, t)[0]], axis=1)
