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
of the sample.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .environment import Environment
from .errors import ValidationError
from .streams import CHUNK, Guide, stream
from .walk import _check_times, _state_counts

__all__ = ["TrajectoryConfig", "TrajectorySample", "simulate_trajectories"]


def _branch_batch(size: int, pos: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Level indices y with omega_{y+1} <= f < omega_y, from the ranks pos of f
    in the extended tail (``size`` values) reversed, and a below-tail mask;
    below-tail points get the deepest level, size - 2."""
    return size - 1 - np.maximum(pos, 1), pos == 0


def _slopes(ext: np.ndarray) -> np.ndarray:
    """Branch slopes by level, (ext[y-1] - ext[y]) / (ext[y] - ext[y+1]);
    0 at level 0, which has its own image, and at empty levels."""
    slope = np.zeros_like(ext[1:])
    np.divide(ext[:-2] - ext[1:-1], ext[1:-1] - ext[2:], out=slope[1:], where=ext[1:-1] > ext[2:])
    return slope


def _apply_local(ext: np.ndarray, slope: np.ndarray, f: np.ndarray, y: np.ndarray) -> np.ndarray:
    """Affine branch images; ext is the extended tail, slope its
    ``_slopes`` and y valid levels.  Level y >= 1 maps onto level y-1, level 0
    onto [1, 2) by its own formula, computed for its points only."""
    out = ext.take(y) + slope.take(y) * (f - ext[1:].take(y))
    top = np.flatnonzero(y == 0)
    out[top] = 1.0 + (f[top] - ext[1]) / (1.0 - ext[1])
    return out


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
    """
    if times is None:
        times = [cfg.horizon]
    times = np.unique(_check_times(times, cfg.horizon))
    keep_at = set() if keep_positions_at is None else {int(t) for t in keep_positions_at}
    if not keep_at <= set(times.tolist()):
        raise ValidationError("keep_positions_at must be a subset of times")
    env.ensure(cfg.horizon)

    # each tail's extended values, slope table and ascending guide, once per call
    levels_of = {}
    for k in np.unique(env.tail_index[: cfg.horizon + 1]).tolist():
        ext = env.tails[k].extended()
        levels_of[k] = ext, _slopes(ext), Guide(ext[::-1].copy())
    width = max(ext.size for ext, _, _ in levels_of.values()) - 1  # levels y < width
    sample = TrajectorySample(paths=cfg.paths, seed=cfg.seed, times=times)
    lvl_keys: dict[int, list[np.ndarray]] = {t: [] for t in times.tolist()}  # x * width + y
    pos: dict[int, list[np.ndarray]] = {t: [] for t in keep_at}

    for index, start in enumerate(range(0, cfg.paths, CHUNK)):
        size = min(CHUNK, cfg.paths - start)
        u = stream(cfg.seed, "dynsys-mc", index).random(size)
        alive = np.ones(size, dtype=bool)
        for t in range(cfg.horizon + 1):
            if t > 0 and alive.any():  # a chunk with every path flagged stops stepping
                u, alive = _step_batch(env, levels_of, u, alive)
            if t in lvl_keys:
                live = u[alive]
                sample.contributing[t] = sample.contributing.get(t, 0) + live.size
                sample.cell_counts[t] = sample.cell_counts.get(t, 0) + np.bincount(
                    np.floor(live).astype(np.int64), minlength=cfg.horizon + 2)
                if levels:
                    states = _level_states(env, levels_of, live)
                    lvl_keys[t].append(states[:, 0] * width + states[:, 1])
                if t in pos:
                    pos[t].append(live)
        sample.flagged += int(np.count_nonzero(~alive))

    if levels:
        sample.level_counts = {t: _state_counts(np.concatenate(keys), width)
                               for t, keys in lvl_keys.items()}
    sample.positions = {t: np.concatenate(p) for t, p in pos.items()}
    return sample


def _step_batch(env: Environment, levels_of: dict, u: np.ndarray, alive: np.ndarray):
    """Advance a chunk of paths one step, one group per distinct tail.  Every
    path is stepped; a flagged point keeps its value and flag, and a live one
    that falls below its site's tail is flagged."""
    x = np.floor(u)
    f = u - x
    image, below = np.empty_like(u), np.empty(u.size, dtype=bool)
    for k, sel in env.tail_groups(x.astype(np.int64)):
        ext, slope, guide = levels_of[k]
        y, below[sel] = _branch_batch(ext.size, guide.rank(f[sel]))
        image[sel] = x[sel] + _apply_local(ext, slope, f[sel], y)
    alive &= ~below
    np.copyto(u, image, where=alive)
    return u, alive


def _level_states(env: Environment, levels_of: dict, u: np.ndarray) -> np.ndarray:
    """(x, y) states of positions, stacked as rows."""
    x = np.floor(u).astype(np.int64)
    f = u - x
    ys = np.empty_like(x)
    for k, sel in env.tail_groups(x):
        ext, _, guide = levels_of[k]
        ys[sel] = _branch_batch(ext.size, guide.rank(f[sel]))[0]
    return np.stack([x, ys], axis=1)
