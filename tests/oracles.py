"""Test-side versions of jobs the package does in batches.

* Scalar steps of the extended map (``local_map``, ``global_step``) and the
  level intervals they act on (``cell_interval``).  They call the package's
  branch lookup, slope table and affine images (``dynsys._branch_batch``,
  ``dynsys._slopes``, ``dynsys._apply_local``) on one point, so map-geometry
  tests exercise the code the trajectory simulator runs.
* Inverse-CDF sojourn draws (``sample_sojourn``) by plain ``searchsorted``,
  the lookup the simulators' guide tables reproduce.
* The site-by-site simulator loops that grouped stepping replaced
  (``chain_chunk_per_site``, ``step_batch_per_site``,
  ``level_states_per_site``), with the per-site branch lookup and images
  they use.  The grouped simulators must match them bit for bit.
* The block scan's row loop (``scan_rows_per_row``), each block's rows
  handed out one at a time as before blocks came as arrays; the scan must
  match it bit for bit.
"""

import math
from dataclasses import dataclass
from functools import lru_cache
from typing import NamedTuple

import numpy as np

from walklab import dynsys, walk
from walklab.errors import TailTruncationError, ValidationError


# ---------------------------------------------------------------------------
# the extended map, one point at a time
# ---------------------------------------------------------------------------

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


def cell_interval(env, x, y):
    site = env.site(x)
    if not 0 <= y <= site.last_index:
        raise ValidationError(
            f"level {y} outside stored range 0..{site.last_index} at site {x}"
        )
    ext = site.extended()
    return CellInterval(x=x, y=y, lower=x + ext[y + 1], upper=x + ext[y])


def local_map(site, u):
    """Image in [0, 2) of a point of [0, 1) under the site's local map.

    Level y >= 1 intervals map onto the next level up,
    [omega_{y+1}, omega_y) -> [omega_y, omega_{y-1}), and the top interval
    [omega_1, 1) maps onto [1, 2); branch lookup is half-open so boundary
    points belong to the interval they start.
    """
    if not 0.0 <= u < 1.0:
        raise ValidationError(f"u must lie in [0, 1), got {u}")
    f = np.array([u])
    ext = site.extended()
    y, below = dynsys._branch_batch(ext.size, np.searchsorted(ext[::-1], f, side="right"))
    if below[0]:
        raise TailTruncationError(f"point {u} lies below the stored tail (deficit region)")
    return float(dynsys._apply_local(ext, dynsys._slopes(ext), f, y)[0])


def global_step(env, u):
    """One step of the extended map: cell index plus local image."""
    if u < 0.0:
        raise ValidationError(f"u must be non-negative, got {u}")
    x = int(math.floor(u))
    return x + local_map(env.site(x), u - x)


# ---------------------------------------------------------------------------
# sojourn draws
# ---------------------------------------------------------------------------

class SojournDraw(NamedTuple):
    n: np.ndarray  # numpy scalars for a scalar uniform
    truncated: np.ndarray


def sample_sojourn(site, u):
    """Inverse-CDF draws for a uniform or an array of them: the unique n with
    1 - omega_{n-1} <= u < 1 - omega_n.

    Intervals are half-open on the right, so every uniform maps to exactly one
    n.  A uniform at or beyond 1 - deficit falls in the truncated region and
    maps to the last representable value N+1 with ``truncated`` set.
    """
    cdf = 1.0 - site.extended()
    idx = np.searchsorted(cdf, u, side="right")
    n_bound = site.last_index + 1
    return SojournDraw(np.minimum(idx, n_bound).astype(np.int64), idx > n_bound)


# ---------------------------------------------------------------------------
# site-by-site simulator loops
# ---------------------------------------------------------------------------

def entry_levels(site, rng, count):
    draws, truncated = sample_sojourn(site, rng.random(count))
    return draws - 1, int(np.count_nonzero(truncated))


def chain_chunk_per_site(env, cfg, rng, size, times):
    x = np.zeros(size, dtype=np.int64)
    y, truncated = entry_levels(env.site(0), rng, size)
    full_x = full_y = None
    if cfg.record == "full-path":
        full_x = np.zeros((size, cfg.horizon + 1), dtype=np.int64)
        full_y = np.zeros((size, cfg.horizon + 1), dtype=np.int64)
        full_y[:, 0] = y
    x_at = None
    if times is not None:
        x_at = np.zeros((size, times.size), dtype=np.int64)
    for t in range(1, cfg.horizon + 1):
        descending = y > 0
        y[descending] -= 1
        jumping = np.flatnonzero(~descending)
        if jumping.size:
            new_x = x[jumping] + 1
            for site_idx in np.unique(new_x):
                group = jumping[new_x == site_idx]
                levels, trunc = entry_levels(env.site(int(site_idx)), rng, group.size)
                y[group] = levels
                truncated += trunc
            x[jumping] = new_x
        if full_x is not None:
            full_x[:, t] = x
            full_y[:, t] = y
        if x_at is not None:
            hit = np.flatnonzero(times == t)
            if hit.size:
                x_at[:, hit] = x[:, None]
    return {"x_final": x, "y_final": y, "x_at_times": x_at,
            "full_x": full_x, "full_y": full_y, "truncated": truncated}


def branch_batch_per_site(site, f):
    ext = site.extended()
    pos = np.searchsorted(ext[::-1], f, side="right")
    y = ext.size - 1 - pos
    return y, y > site.last_index


def apply_local_per_site(site, f, y):
    ext = site.extended()
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


def step_batch_per_site(env, u, alive):
    live_idx = np.flatnonzero(alive)
    if live_idx.size == 0:
        return u, alive
    x = np.floor(u[live_idx]).astype(np.int64)
    f = u[live_idx] - x
    out = np.empty(live_idx.size)
    dead_local = np.zeros(live_idx.size, dtype=bool)
    for site_idx in np.unique(x):
        in_site = np.flatnonzero(x == site_idx)
        site = env.site(int(site_idx))
        y, below = branch_batch_per_site(site, f[in_site])
        if np.any(below):
            dead_local[in_site[below]] = True
            in_site = in_site[~below]
            y = y[~below]
        out[in_site] = site_idx + apply_local_per_site(site, f[in_site], y)
    keep = ~dead_local
    u[live_idx[keep]] = out[keep]
    alive[live_idx[dead_local]] = False
    return u, alive


def level_states_per_site(env, u):
    x = np.floor(u).astype(np.int64)
    f = u - x
    ys = np.empty_like(x)
    for site_idx in np.unique(x):
        in_site = x == site_idx
        y, below = branch_batch_per_site(env.site(int(site_idx)), f[in_site])
        ys[in_site] = np.minimum(y, env.site(int(site_idx)).last_index)
    return np.stack([x, ys], axis=1)


# ---------------------------------------------------------------------------
# the position scan's rows, one at a time
# ---------------------------------------------------------------------------

def scan_rows_per_row(env, n, trunc_tol, deficit_budget, x, law, x_hi, sojourn_of):
    """``walk._scan_rows`` with every row of a block yielded on its own, each
    site built and its tail checked as its row is reached."""
    reversed_of = lru_cache(walk._RECENT_TAILS)(lambda k: walk._reversed_tail(env.tails[k]))
    starts, known = np.flatnonzero(np.diff(env.tail_index)) + 1, len(env)
    steps = []
    tail = -1
    for x, (offset, probs, mass, _, _) in walk.hitting_time_scan(
            env, n, trunc_tol, deficit_budget, horizon=n, _raw=True,
            _start=(x, law, lambda _: steps.pop())):
        site = env.site(x)
        if env.tail_index[x] != tail:
            tail = int(env.tail_index[x])
            rev = reversed_of(tail)
            j = rev.size - 1 - n
            i = int(np.searchsorted(starts, x, side="right"))
            end = min(int(starts[i]) if i < starts.size else known, x_hi + 1,
                      x + n - offset + 1)
            size = math.isqrt(max(end - x, 0)) if trunc_tol > 0.0 else 1
            if size < walk._MIN_BLOCK:
                size = 1
            else:
                powers, table, lags, upper = walk._baby_steps(
                    sojourn_of(tail), rev[::-1], size, trunc_tol, n - offset)
        k_lo = max(offset, n - site.last_index - 1)
        k_hi = min(n, offset + probs.size - 1)
        row = 0.0
        if k_lo <= k_hi:
            row = float(probs[k_lo - offset : k_hi - offset + 1] @ rev[k_lo + j : k_hi + j + 1])
        block = [(row, float(probs[-1]) if k_hi == n else 0.0, mass)]
        if size > 1:
            k_lo = max(offset, n - lags)
            k_end = max(offset + probs.size, k_lo)
            values = (table[:, n + 1 - k_end : n + 1 - k_lo]
                      @ probs[k_lo - offset : k_end - offset][::-1]).reshape(-1, 3)
            block += zip(values[:, 0].tolist(), values[:, 1].tolist(),
                         (upper * mass - values[:, 2]).tolist())
        for r, (row, at_n, below_n) in enumerate(block):
            if r:
                env.site(x + r)
                if env.tail_index[x + r] != tail:
                    break
            yield (row,), (at_n,)
            if x + r == n or below_n < trunc_tol:
                return
        else:
            r = size
        steps.append((x + r, powers[r] if size > 1 else sojourn_of(tail)))
