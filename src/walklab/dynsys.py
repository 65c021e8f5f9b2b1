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

import math
from dataclasses import dataclass, field

import numpy as np

from .environment import Environment, TailSequence
from .errors import TailTruncationError, ValidationError
from .streams import CHUNK, stream

__all__ = [
    "CellInterval",
    "TrajectoryConfig",
    "TrajectorySample",
    "cell_interval",
    "local_map",
    "global_step",
    "simulate_trajectories",
]


@dataclass(frozen=True)
class CellInterval:
    """The sub-interval of cell x carrying level y."""

    x: int
    y: int
    lower: float
    upper: float

    def __post_init__(self):
        if not self.lower < self.upper:
            raise ValidationError(f"degenerate cell interval {self}")

    @property
    def width(self) -> float:
        return self.upper - self.lower


def cell_interval(env: Environment, x: int, y: int) -> CellInterval:
    site = env.site(x)
    if not 0 <= y <= site.last_index:
        raise ValidationError(
            f"level {y} outside stored range 0..{site.last_index} at site {x}"
        )
    ext = site.extended()
    return CellInterval(x=x, y=y, lower=x + ext[y + 1], upper=x + ext[y])


def _branch_batch(site: TailSequence, f: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Level indices y with omega_{y+1} <= f < omega_y, and a below-tail mask."""
    ext = site.extended()
    ascending = ext[::-1].astype(f.dtype, copy=False)
    pos = np.searchsorted(ascending, f, side="right")
    y = ext.size - 1 - pos
    return y, y > site.last_index


def _apply_local(site: TailSequence, f: np.ndarray, y: np.ndarray) -> np.ndarray:
    """Affine branch images; y must be valid levels for this site."""
    ext = site.extended().astype(f.dtype)
    out = np.empty_like(f)
    top = y == 0
    if np.any(top):
        out[top] = 1.0 + (f[top] - ext[1]) / (1.0 - ext[1])
    rest = ~top
    if np.any(rest):
        yr = y[rest]
        slope = (ext[yr - 1] - ext[yr]) / (ext[yr] - ext[yr + 1])
        out[rest] = ext[yr] + slope * (f[rest] - ext[yr + 1])
    return out


def local_map(site: TailSequence, u: float) -> float:
    """Image in [0, 2) of a point of [0, 1) under the site's local map.

    Level y >= 1 intervals map onto the next level up,
    [omega_{y+1}, omega_y) -> [omega_y, omega_{y-1}), and the top interval
    [omega_1, 1) maps onto [1, 2); branch lookup is half-open so boundary
    points belong to the interval they start.
    """
    if not 0.0 <= u < 1.0:
        raise ValidationError(f"u must lie in [0, 1), got {u}")
    f = np.array([u])
    y, below = _branch_batch(site, f)
    if below[0]:
        raise TailTruncationError(
            f"point {u} lies below the stored tail (deficit region); "
            "rebuild the environment with a larger N_cap or smaller tail_tol"
        )
    return float(_apply_local(site, f, y)[0])


def global_step(env: Environment, u: float) -> float:
    """One step of the extended map: cell index plus local image."""
    if u < 0.0:
        raise ValidationError(f"u must be non-negative, got {u}")
    x = int(math.floor(u))
    return x + local_map(env.site(x), u - x)


@dataclass(frozen=True)
class TrajectoryConfig:
    """Path count, horizon, seed, and float precision for trajectory runs.

    ``precision`` is "double" or "extended" (long-double accumulation for
    endpoint-sensitive experiments).
    """

    paths: int
    horizon: int
    seed: int
    precision: str = "double"

    def __post_init__(self):
        if self.paths < 1:
            raise ValidationError(f"paths must be >= 1, got {self.paths}")
        if self.horizon < 0:
            raise ValidationError(f"horizon must be >= 0, got {self.horizon}")
        if self.precision not in ("double", "extended"):
            raise ValidationError(f"unknown precision mode {self.precision!r}")


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

    @property
    def flagged_fraction(self) -> float:
        return self.flagged / self.paths


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
    Flagged paths (fractional part below the stored tail) stop contributing
    from the moment they are flagged.
    """
    if times is None:
        times = [cfg.horizon]
    times = np.asarray(sorted({int(t) for t in times}), dtype=np.int64)
    if times.size == 0 or times[0] < 0 or times[-1] > cfg.horizon:
        raise ValidationError("times must be non-empty and lie in [0, horizon]")
    keep_at = set() if keep_positions_at is None else {int(t) for t in keep_positions_at}
    if not keep_at <= set(times.tolist()):
        raise ValidationError("keep_positions_at must be a subset of times")
    env.ensure(cfg.horizon)

    dtype = np.float64 if cfg.precision == "double" else np.longdouble
    sample = TrajectorySample(paths=cfg.paths, seed=cfg.seed, times=times)
    cells: dict[int, list[np.ndarray]] = {int(t): [] for t in times}
    lvl_pairs: dict[int, list[np.ndarray]] = {int(t): [] for t in times}
    pos: dict[int, list[np.ndarray]] = {t: [] for t in keep_at}
    contributing = {int(t): 0 for t in times}

    for index, start in enumerate(range(0, cfg.paths, CHUNK)):
        size = min(CHUNK, cfg.paths - start)
        rng = stream(cfg.seed, "dynsys-mc", index)
        if dtype is np.float64:
            u = rng.random(size)
        else:
            # two draws per path so the extended mantissa actually carries
            # entropy; with 53-bit starts, exactly dyadic slopes would deplete
            # the fractional bits just as fast as in double precision
            u = rng.random(size).astype(dtype)
            u += rng.random(size).astype(dtype) * np.longdouble(2.0) ** -53
            u = np.minimum(u, np.nextafter(dtype(1.0), dtype(0.0)))
        alive = np.ones(size, dtype=bool)
        for t in range(cfg.horizon + 1):
            if t > 0:
                u, alive = _step_batch(env, u, alive)
            if t in cells:
                live = u[alive].astype(np.float64)
                contributing[t] += live.size
                cells[t].append(np.bincount(np.floor(live).astype(np.int64),
                                            minlength=cfg.horizon + 2))
                if levels:
                    lvl_pairs[t].append(_level_states(env, live))
                if t in pos:
                    pos[t].append(live)
        sample.flagged += int(np.count_nonzero(~alive))

    for t in cells:
        sample.cell_counts[t] = np.sum(cells[t], axis=0)
        sample.contributing[t] = contributing[t]
        if levels:
            pairs = np.concatenate(lvl_pairs[t], axis=0)
            uniq, counts = np.unique(pairs, axis=0, return_counts=True)
            sample.level_counts[t] = (uniq[:, 0], uniq[:, 1], counts)
    for t in pos:
        sample.positions[t] = np.concatenate(pos[t])
    return sample


def _step_batch(env: Environment, u: np.ndarray, alive: np.ndarray):
    """Advance live paths one step; newly below-tail paths become dead.

    Arithmetic stays in u's dtype so the extended-precision mode is effective.
    """
    live_idx = np.flatnonzero(alive)
    if live_idx.size == 0:
        return u, alive
    x = np.floor(u[live_idx]).astype(np.int64)
    f = u[live_idx] - x
    out = np.empty(live_idx.size, dtype=u.dtype)
    dead_local = np.zeros(live_idx.size, dtype=bool)
    for site_idx in np.unique(x):
        in_site = np.flatnonzero(x == site_idx)
        site = env.site(int(site_idx))
        y, below = _branch_batch(site, f[in_site])
        if np.any(below):
            dead_local[in_site[below]] = True
            in_site = in_site[~below]
            y = y[~below]
        out[in_site] = site_idx + _apply_local(site, f[in_site], y).astype(u.dtype)
    keep = ~dead_local
    u[live_idx[keep]] = out[keep]
    alive[live_idx[dead_local]] = False
    return u, alive


def _level_states(env: Environment, u: np.ndarray) -> np.ndarray:
    """(x, y) states of positions, stacked as rows."""
    x = np.floor(u).astype(np.int64)
    f = u - x
    ys = np.empty_like(x)
    for site_idx in np.unique(x):
        in_site = x == site_idx
        y, below = _branch_batch(env.site(int(site_idx)), f[in_site])
        # below-tail points were already flagged during stepping; clamp defensively
        ys[in_site] = np.minimum(y, env.site(int(site_idx)).last_index)
    return np.stack([x, ys], axis=1)
