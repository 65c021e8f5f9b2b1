"""Test-side versions of jobs the package does in batches.

* Scalar steps of the extended map (``local_map``, ``global_step``) and the
  level intervals they act on (``cell_interval``).  They call the package's
  slope table and affine images (``dynsys._slopes``, ``dynsys._apply_local``)
  on one point, so map-geometry tests exercise the code the trajectory
  simulator runs; the branch lookup (``branch_batch``) is the one the
  simulator's guide tables reproduce with ranks clipped to 1.
* Inverse-CDF sojourn draws (``sample_sojourn``) by plain ``searchsorted``,
  the lookup the simulators' guide tables reproduce, and ``Guide.rank`` the
  same way on every key (``plain_rank``).
* Site-by-site simulator loops (``chain_chunk_per_site``,
  ``step_batch_per_site``, ``level_states_per_site``), with the per-site
  branch lookup and images they use; the images give level 0 the general
  formula too, its slope (2 - ext[0]) / (ext[0] - ext[1]).  The chain loop
  draws one uniform a jumping path per step, in path order, and inverts each
  site's share by ``searchsorted``.  The simulators, which rank every key of
  a step in its site's table at once, must match them bit for bit.
* The sojourn method path by path (``sojourn_chunk_per_path``): the same
  blocks of uniforms, each inverted by ``searchsorted``, and each path's sums
  formed and read one draw at a time.
* The block scan's row loop (``scan_rows_per_row``), each block's rows
  handed out one at a time as before blocks came as arrays; the scan must
  match it bit for bit.
* Loss-free hitting laws by J.C.P. Miller's recurrence for a power of a
  power series (``power_by_recurrence``, ``hitting_law_by_recurrence``),
  sharing nothing with the ladder's products.
* The sup gap between a hitting law and its matched normal density
  (``hitting_density_sup_gap``), the E1 term of the local error.
* Monte Carlo TV and Kolmogorov bounds with a stated false-alarm rate
  (``mc_tv_bound``, ``mc_ks_bound``), for simulator checks against exact
  laws.
* Atoms, CDF values and moments of a ``DiscreteDistribution`` over its
  stored atoms (``prob_at``, ``cdf_at``, ``moment``, ``mean``,
  ``variance``), which only tests read.
"""

import math
from dataclasses import dataclass
from bisect import bisect_right
from functools import lru_cache
from typing import NamedTuple

import numpy as np

from walklab import dynsys, limits, walk
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


def branch_batch(size, pos):
    """Level indices y with omega_{y+1} <= f < omega_y, from the ranks pos of f
    in the extended tail (``size`` values) reversed, and a below-tail mask;
    below-tail points get the deepest level, size - 2."""
    return size - 1 - np.maximum(pos, 1), pos == 0


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
    y, below = branch_batch(ext.size, np.searchsorted(ext[::-1], f, side="right"))
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


def plain_rank(self, keys, tails=0, out=None):
    """Guide.rank by searchsorted on every key (a raw word as the double
    Generator.random makes of it) in its table ``tails``, into ``out`` if
    given, clipped to [lo, hi], with the flat indices of the clipped ranks."""
    if keys.dtype == np.uint64:
        keys = (keys >> 11) * 2.0**-53
    of = np.broadcast_to(tails, keys.shape)
    ranks = np.empty(keys.shape, dtype=np.intp)
    for t, values in enumerate(self.values):
        ranks[of == t] = np.searchsorted(values, keys[of == t], side="right")
    hi = self.hi[of]
    clipped = np.flatnonzero((ranks < self.lo) | (ranks > hi))
    np.clip(ranks, self.lo, hi, out=ranks)
    if out is None:
        return ranks, clipped
    out[...] = ranks
    return out, clipped


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
            u = rng.random(jumping.size)  # one uniform a jumping path, in path order
            for site_idx in np.unique(new_x):
                mine = new_x == site_idx
                draws, trunc = sample_sojourn(env.site(int(site_idx)), u[mine])
                y[jumping[mine]] = draws - 1
                truncated += int(np.count_nonzero(trunc))
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


def sojourn_chunk_per_path(env, cfg, rng, size, times):
    """``walk._sojourn_chunk`` one path at a time.  Each block takes width x
    live uniforms by the simulator's width rule, row j at site site + j and
    column i for the i-th live path, and inverts each by ``sample_sojourn``.
    Each live path then adds its column to its sums T_1, T_2, ... one draw at
    a time, counting the truncated ones, and stops at its first sum past the
    horizon (hitting times run over sites 0..horizon-1 and never stop); X_t
    is #{x >= 1: T_x <= t}."""
    hitting_mode = cfg.record == "hitting-times"
    n_sites = cfg.horizon if hitting_mode else cfg.horizon + 1
    sums = [[] for _ in range(size)]
    live = list(range(size))
    truncated = site = 0
    while live and site < n_sites:
        width = min(n_sites - site, max(1, walk._BLOCK // len(live)))
        u = rng.random(width * len(live)).reshape(width, len(live))
        rows = [sample_sojourn(env.site(site + j), u[j]) for j in range(width)]
        draws = np.array([row.n for row in rows]).T.tolist()
        flags = np.array([row.truncated for row in rows]).T.tolist()
        still = []
        for path, column, flagged in zip(live, draws, flags):
            mine = sums[path]
            total = mine[-1] if mine else 0
            for n, flag in zip(column, flagged):
                total += n
                mine.append(total)
                truncated += flag
                if total > cfg.horizon and not hitting_mode:
                    break
            else:
                still.append(path)
        live = still
        site += width
    if hitting_mode:
        hitting = np.zeros((size, cfg.horizon + 1), dtype=np.int64)
        hitting[:, 1:] = sums
        return {"hitting": hitting, "truncated": truncated}
    x_at = None
    if times is not None:
        x_at = np.array([[bisect_right(mine, t) for t in times.tolist()] for mine in sums],
                        dtype=np.int64)
    return {"x_final": np.array([len(mine) - 1 for mine in sums], dtype=np.int64),
            "y_final": np.array([mine[-1] - 1 - cfg.horizon for mine in sums], dtype=np.int64),
            "x_at_times": x_at, "truncated": truncated}


def branch_batch_per_site(site, f):
    ext = site.extended()
    pos = np.searchsorted(ext[::-1], f, side="right")
    y = ext.size - 1 - pos
    return y, y > site.last_index


def apply_local_per_site(site, f, y):
    ext = site.extended()
    above = np.concatenate(([2.0], ext))  # above[y] is ext[y - 1], and 2 at y = 0
    slope = (above[y] - ext[y]) / (ext[y] - ext[y + 1])
    return ext[y] + slope * (f - ext[y + 1])


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
    for x, law in walk.hitting_time_scan(env, n, trunc_tol, deficit_budget, horizon=n,
                                         _start=(x, law, lambda _: steps.pop())):
        offset, probs, mass = law.offset, law.probs, law.mass()
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


# ---------------------------------------------------------------------------
# loss-free hitting laws by a recurrence
# ---------------------------------------------------------------------------

def power_by_recurrence(probs, x, length):
    """The first ``length`` atoms of the x-fold convolution power of the atoms
    q = ``probs`` (q_0 > 0, N = probs.size - 1), by J.C.P. Miller's recurrence
    for a power of a power series (Henrici, Applied and Computational Complex
    Analysis I, 1974, sec. 1.6; De Pril, ASTIN Bull. 15 (1985) 135-139):

        f_0 = q_0^x,  f_k = (k q_0)^-1 sum_{j=1}^{min(k,N)} ((x+1) j - k) q_j f_{k-j}.

    Its weights change sign, so no a-priori bound covers its roundoff; the
    tests check it against the ladder and against mpmath."""
    q = np.asarray(probs, dtype=np.float64)
    j = np.arange(q.size)
    f = np.zeros(length)
    f[0] = q[0] ** x
    for k in range(1, length):
        m = min(k, q.size - 1)
        f[k] = (((x + 1) * j[1 : m + 1] - k) * q[1 : m + 1]) @ f[k - m : k][::-1] / (k * q[0])
    return f


class RecurrenceLaw(NamedTuple):
    """Atoms from ``offset`` on, as the recurrence leaves them: far in the
    tail, where they fall below 1e-150, its roundoff may make them negative."""

    offset: int
    probs: np.ndarray
    deficit: float
    beyond: float = 0.0

    @property
    def end(self) -> int:
        return self.offset + self.probs.size - 1


def hitting_law_by_recurrence(env, x, length):
    """The loss-free law of T_x on its first ``length`` atoms: over the tails
    of sites 0..x-1, each sojourn law to the power of its site count by
    ``power_by_recurrence`` on its support, the powers multiplied directly;
    the deficit is 1 - prod (1 - deficit)^count, the mass the sojourn laws
    leave out."""
    probs, log_kept = np.ones(1), 0.0
    for tail, count in zip(env.tails, np.bincount(env.tail_index[:x]).tolist()):
        sojourn = walk.sojourn_pmf(tail)
        support = count * (sojourn.probs.size - 1) + 1
        power = power_by_recurrence(sojourn.probs, count, min(length, support))
        probs = np.convolve(probs, power)[:length]
        log_kept += count * math.log1p(-sojourn.deficit)
    return RecurrenceLaw(x, probs, -math.expm1(log_kept))


# ---------------------------------------------------------------------------
# the hitting side of the local error
# ---------------------------------------------------------------------------

def hitting_density_sup_gap(env, diag, x, trunc_tol=walk.DEFAULT_TRUNC_TOL):
    """sup over n of |P(T_x = n) - f_x(n)| with f_x the matched normal density."""
    if x < 1:
        raise ValidationError(f"x must be >= 1, got {x}")
    dist = walk.hitting_time_distribution(env, x, trunc_tol)
    mu_x = diag.mu[x]
    sig_x = math.sqrt(diag.sigma2[x])
    lo = max(0, min(dist.offset, int(mu_x - 10.0 * sig_x)))
    ns = np.arange(lo, max(dist.end, int(mu_x + 10.0 * sig_x)) + 1)
    pmf = np.zeros(ns.size)
    pmf[dist.offset - lo : dist.end - lo + 1] = dist.probs
    dens = limits.normal_density(mu_x, diag.sigma2[x], ns.astype(np.float64))
    return float(np.max(np.abs(pmf - dens)))


# ---------------------------------------------------------------------------
# Monte Carlo TV and Kolmogorov bounds
# ---------------------------------------------------------------------------

def mc_tv_bound(outcomes, paths, delta, deficit=0.0, flagged=0.0):
    """TV between an exact law and ``paths`` draws of a simulator of that law,
    over ``outcomes`` possible values, exceeds this with probability at most
    ``delta``.  An empirical law p_hat of N draws from p over k values has
    P(||p_hat - p||_1 >= eps) <= (2^k - 2) exp(-N eps^2 / 2) (Weissman,
    Ordentlich, Seroussi, Verdu and Weinberger 2003), so TV <= 1/2 sqrt(2 (k
    ln 2 + ln 1/delta) / N).  The exact law's ``deficit`` and, for the
    extended map, the ``flagged`` share of paths (TV(law | unflagged, law) <=
    flagged share) are added as fully mismatched mass."""
    spread = 0.5 * math.sqrt(2.0 * (outcomes * math.log(2.0) + math.log(1.0 / delta)) / paths)
    return spread + deficit + flagged


def mc_ks_bound(paths, delta, deficit=0.0):
    """Kolmogorov distance sup_x |F_hat(x) - F(x)| between an exact CDF and the
    empirical CDF of ``paths`` draws of a simulator of that law exceeds this
    with probability at most ``delta``.  The DKW inequality with Massart's
    constant (1990), P(sup |F_hat - F| > eps) <= 2 exp(-2 N eps^2), gives eps
    = sqrt(ln(2 / delta) / (2 N)) whatever the support, where ``mc_tv_bound``
    grows with it.  The exact law's ``deficit`` is added as fully mismatched
    mass, which moves no CDF value by more."""
    return math.sqrt(math.log(2.0 / delta) / (2.0 * paths)) + deficit


# ---------------------------------------------------------------------------
# a law's atoms and moments
# ---------------------------------------------------------------------------

def prob_at(law, k):
    """P(value = k) over the stored atoms of ``law``."""
    if law.offset <= k <= law.end:
        return float(law.probs[k - law.offset])
    return 0.0


def cdf_at(law, k):
    """P(value <= k) over the stored atoms of ``law``."""
    if k < law.offset:
        return 0.0
    if k >= law.end:
        return law.mass()
    return float(law.probs[: k - law.offset + 1].sum())


def moment(law, order):
    return float((law.support.astype(np.float64) ** order * law.probs).sum())


def mean(law):
    return moment(law, 1)


def variance(law):
    return moment(law, 2) - mean(law) ** 2
