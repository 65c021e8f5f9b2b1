"""Exact laws and Monte Carlo simulation of the site/level chain.

The chain descends one level per step and, on hitting level 0 at site x,
jumps to site x+1 with a fresh level drawn from that site's tail.  The
horizontal coordinate X_n is therefore a renewal-style walk whose sojourn at
site x has pmf omega_{n-1} - omega_n, and the first-passage time of site x is
the convolution of the sojourns at sites 0..x-1.

Exact computations use direct pmf convolution (never FFT, so atoms stay
certifiably non-negative) with contiguous upper-tail trimming into an explicit
deficit.  Position laws at time n come from

    P(X_n = x) = sum_k P(T_x = k) * omega^x_{n-k},

with the x = 0 convention T_0 = 0.  Two independent simulators are provided:
a step-by-step chain simulator and an inverse-CDF sojourn-sum simulator; their
outputs agree in distribution and are cross-checked in the test suite.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterator, NamedTuple

import numpy as np

from .environment import Environment, TailSequence
from .errors import DeficitBudgetError, ValidationError
from .streams import CHUNK, stream

DEFAULT_TRUNC_TOL = 1e-14
DEFAULT_DEFICIT_BUDGET = 1e-6

__all__ = [
    "DiscreteDistribution",
    "McConfig",
    "WalkSample",
    "SojournDraw",
    "PositionScan",
    "sojourn_pmf",
    "sample_sojourn",
    "hitting_time_distribution",
    "position_distribution",
    "position_scan",
    "hitting_time_scan",
    "simulate_paths",
    "tv_distance",
    "mc_tv_tolerance",
]


# ---------------------------------------------------------------------------
# distributions
# ---------------------------------------------------------------------------

@dataclass(frozen=True, eq=False)
class DiscreteDistribution:
    """Pmf on a contiguous block of integers plus two kinds of missing mass.

    ``beyond`` is exact mass known to lie above the horizon the block was
    clipped to; ``deficit`` bounds mass lost to truncation, whose position is
    unknown.  The stored block is canonical: leading and trailing exact zeros
    are stripped (shifting ``offset``), every stored atom is non-negative, and
    mass + beyond + deficit stays within 1e-9 of one.  A law whose whole mass
    lies beyond its horizon stores one zero atom.
    """

    offset: int
    probs: np.ndarray
    deficit: float = 0.0
    beyond: float = 0.0

    def __post_init__(self):
        arr = np.asarray(self.probs, dtype=np.float64).copy()
        if arr.ndim != 1 or arr.size == 0:
            raise ValidationError("probs must be a non-empty 1-D array")
        if np.any(arr < 0.0):
            raise ValidationError("probabilities must be non-negative")
        beyond = float(self.beyond)
        if beyond < 0.0:
            raise ValidationError(f"beyond must be non-negative, got {beyond}")
        nz = np.flatnonzero(arr)
        if nz.size == 0:
            if beyond == 0.0:
                raise ValidationError("distribution has no positive atom")
            nz = np.zeros(1, dtype=np.intp)
        first, last = int(nz[0]), int(nz[-1])
        offset = int(self.offset) + first
        arr = arr[first : last + 1]
        deficit = float(self.deficit)
        if deficit < -1e-12:
            raise ValidationError(f"deficit must be non-negative, got {deficit}")
        deficit = max(deficit, 0.0)
        total = float(arr.sum()) + beyond + deficit
        if abs(total - 1.0) > 1e-9:
            raise ValidationError(
                f"mass + beyond + deficit = {total!r}, expected 1 within 1e-9")
        arr.setflags(write=False)
        object.__setattr__(self, "probs", arr)
        object.__setattr__(self, "offset", offset)
        object.__setattr__(self, "deficit", deficit)
        object.__setattr__(self, "beyond", beyond)

    @classmethod
    def point_mass(cls, k: int) -> "DiscreteDistribution":
        return cls(offset=k, probs=np.array([1.0]))

    @property
    def end(self) -> int:
        """Largest stored support point."""
        return self.offset + self.probs.size - 1

    @property
    def support(self) -> np.ndarray:
        return np.arange(self.offset, self.end + 1)

    def mass(self) -> float:
        return float(self.probs.sum())

    def prob_at(self, k: int) -> float:
        if self.offset <= k <= self.end:
            return float(self.probs[k - self.offset])
        return 0.0

    def cdf_at(self, k: int) -> float:
        """P(value <= k) over stored atoms."""
        if k < self.offset:
            return 0.0
        if k >= self.end:
            return self.mass()
        return float(self.probs[: k - self.offset + 1].sum())

    def moment(self, order: int) -> float:
        return float((self.support.astype(np.float64) ** order * self.probs).sum())

    def mean(self) -> float:
        return self.moment(1)

    def variance(self) -> float:
        mean = self.mean()
        return self.moment(2) - mean**2

    def convolve(self, other: "DiscreteDistribution", trunc_tol: float = 0.0,
                 horizon: int | None = None) -> "DiscreteDistribution":
        """Exact pmf convolution, then contiguous upper-tail trim into deficit.

        With a ``horizon`` only atoms up to it are formed; the product mass
        above it is added to ``beyond`` exactly.  Only the largest stored
        points are trimmed, and only while they and ``beyond`` together hold
        at most ``trunc_tol``, so the support stays contiguous and the stored
        law is stochastically dominated by the true one.
        """
        offset = self.offset + other.offset
        a, b = self.probs, other.probs
        beyond = self.beyond * (other.mass() + other.beyond) + self.mass() * other.beyond
        if horizon is None:
            probs = np.convolve(a, b)
        else:
            keep = horizon - offset + 1
            if keep > 0:
                probs = np.convolve(a[:keep], b[:keep])[:keep]
            else:
                probs = np.zeros(1)
            # a_i * b_j lands above the horizon iff j >= keep - i; atoms of a
            # before keep - b.size never do
            start = min(max(keep - b.size, 0), a.size)
            rest = np.append(np.cumsum(b[::-1])[::-1], 0.0)
            lags = np.maximum(keep - np.arange(start, a.size), 0)
            beyond += float(a[start:] @ rest[lags])
        deficit = self.deficit + other.deficit - self.deficit * other.deficit
        if trunc_tol > beyond and probs.size > 1:
            rev = np.cumsum(probs[::-1])
            cut = int(np.searchsorted(rev, trunc_tol - beyond, side="right"))
            cut = min(cut, probs.size - 1)
            if cut > 0:
                deficit += float(rev[cut - 1])
                probs = probs[:-cut]
        return DiscreteDistribution(offset, probs, deficit, beyond)


def sojourn_pmf(site: TailSequence) -> DiscreteDistribution:
    """Law of the sojourn time at a site: P(tau = n) = omega_{n-1} - omega_n."""
    return DiscreteDistribution(offset=1, probs=site.sojourn_probs(), deficit=site.deficit)


class SojournDraw(NamedTuple):
    n: int
    truncated: bool


def sample_sojourn(site: TailSequence, uniform: float) -> SojournDraw:
    """Inverse-CDF draw: the unique n with 1 - omega_{n-1} <= uniform < 1 - omega_n.

    Intervals are half-open on the right, so every uniform maps to exactly one
    n.  A uniform at or beyond 1 - deficit falls in the truncated region and
    maps to the last representable value N+1 with ``truncated`` set.
    """
    if not 0.0 <= uniform < 1.0:
        raise ValidationError(f"uniform must lie in [0, 1), got {uniform}")
    values, truncated = _sample_sojourn_batch(site, np.array([uniform]))
    return SojournDraw(int(values[0]), truncated > 0)


def _sample_sojourn_batch(site: TailSequence, u: np.ndarray) -> tuple[np.ndarray, int]:
    cdf = 1.0 - site.extended()
    idx = np.searchsorted(cdf, u, side="right")
    n_bound = site.last_index + 1
    truncated = int(np.count_nonzero(idx > n_bound))
    return np.minimum(idx, n_bound).astype(np.int64), truncated


# ---------------------------------------------------------------------------
# exact laws
# ---------------------------------------------------------------------------

def hitting_time_scan(
    env: Environment,
    x_stop: int,
    trunc_tol: float = DEFAULT_TRUNC_TOL,
    deficit_budget: float = DEFAULT_DEFICIT_BUDGET,
    horizon: int | None = None,
) -> Iterator[tuple[int, DiscreteDistribution]]:
    """Yield (x, law of T_x) for x = 0..x_stop, convolving one site at a time.

    With a ``horizon`` n each law keeps only its atoms up to n and carries
    P(T_x > n) in ``beyond``.  This is exact for every atom up to n: a
    sojourn lasts at least one step, so no atom above n ever comes back
    below it.  ``deficit_budget`` applies to the truncation deficit alone.
    """
    if x_stop < 0:
        raise ValidationError(f"x_stop must be >= 0, got {x_stop}")
    dist = DiscreteDistribution.point_mass(0)
    yield 0, dist
    site = None
    for x in range(1, x_stop + 1):
        if env.site(x - 1) is not site:  # sites often share one tail object
            site = env.site(x - 1)
            sojourn = sojourn_pmf(site)
        dist = dist.convolve(sojourn, trunc_tol, horizon)
        if dist.deficit > deficit_budget:
            raise DeficitBudgetError(
                f"accumulated deficit {dist.deficit:.3e} exceeds budget "
                f"{deficit_budget:.3e} at site {x}; increase N_cap, tighten "
                f"tail_tol, or coarsen trunc_tol"
            )
        yield x, dist


def hitting_time_distribution(
    env: Environment,
    x: int,
    trunc_tol: float = DEFAULT_TRUNC_TOL,
    deficit_budget: float = DEFAULT_DEFICIT_BUDGET,
) -> DiscreteDistribution:
    """Law of the first-passage time of site x (point mass at 0 for x = 0)."""
    for _, dist in hitting_time_scan(env, x, trunc_tol, deficit_budget):
        pass
    return dist


@dataclass(frozen=True, eq=False)
class PositionScan:
    """Per-site rows of the time-n position law.

    ``prob[x]`` is P(X_n = x) and ``hitting_at_n[x]`` is P(T_x = n) for
    x = 0..x_stop; sites beyond x_stop hold at most ``deficit`` mass in total.
    """

    n: int
    x: np.ndarray
    prob: np.ndarray
    hitting_at_n: np.ndarray
    deficit: float


def position_scan(
    env: Environment,
    n: int,
    trunc_tol: float = DEFAULT_TRUNC_TOL,
    deficit_budget: float = DEFAULT_DEFICIT_BUDGET,
    stop_tol: float | None = None,
) -> PositionScan:
    """Exact position law at time n via the hitting-time convolution ladder.

    The ladder is clipped to the horizon n.  The scan over sites stops once
    P(T_x <= n) drops below ``stop_tol`` (the remaining sites can hold at
    most that much mass, which is folded into the deficit).  A row uses the
    site deficit as its weight at lag N+1, one past the stored tail, and 0 at
    larger lags.  The deficit is at least omega^x_{N+1} and 0 is at most the
    dropped weights, so a row is neither an upper nor a lower bound.
    """
    if n < 0:
        raise ValidationError(f"n must be >= 0, got {n}")
    if stop_tol is None:
        stop_tol = trunc_tol
    rows: list[float] = []
    hit: list[float] = []
    site = None
    for x, dist in hitting_time_scan(env, n, trunc_tol, deficit_budget, horizon=n):
        if env.site(x) is not site:
            site = env.site(x)
            ext = site.extended()
        k_lo = max(dist.offset, n - site.last_index - 1)
        k_hi = min(n, dist.end)
        if k_lo > k_hi:
            rows.append(0.0)
        else:
            ks = np.arange(k_lo, k_hi + 1)
            rows.append(float(dist.probs[ks - dist.offset] @ ext[n - ks]))
        hit.append(dist.prob_at(n))
        if x == n or dist.cdf_at(n) < stop_tol:
            break
    prob = np.array(rows)
    deficit = max(0.0, 1.0 - float(prob.sum()))
    return PositionScan(
        n=n,
        x=np.arange(prob.size),
        prob=prob,
        hitting_at_n=np.array(hit),
        deficit=deficit,
    )


def position_distribution(
    env: Environment,
    n: int,
    trunc_tol: float = DEFAULT_TRUNC_TOL,
    deficit_budget: float = DEFAULT_DEFICIT_BUDGET,
    stop_tol: float | None = None,
) -> DiscreteDistribution:
    """Law of X_n; support is contained in [0, n]."""
    scan = position_scan(env, n, trunc_tol, deficit_budget, stop_tol)
    return DiscreteDistribution(offset=0, probs=scan.prob, deficit=scan.deficit)


# ---------------------------------------------------------------------------
# Monte Carlo
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class McConfig:
    """Path count, horizon, seed, and record mode for walk simulation.

    ``record`` is one of ``endpoint-only``, ``full-path``, ``hitting-times``.
    In hitting-times mode ``horizon`` is the largest site index whose hitting
    time is recorded.
    """

    paths: int
    horizon: int
    seed: int
    record: str = "endpoint-only"

    def __post_init__(self):
        if self.paths < 1:
            raise ValidationError(f"paths must be >= 1, got {self.paths}")
        if self.horizon < 0:
            raise ValidationError(f"horizon must be >= 0, got {self.horizon}")
        if self.record not in ("endpoint-only", "full-path", "hitting-times"):
            raise ValidationError(f"unknown record mode {self.record!r}")


@dataclass(eq=False)
class WalkSample:
    """Simulation output; populated fields depend on the record mode."""

    method: str
    record: str
    paths: int
    seed: int
    times: np.ndarray | None = None
    x_final: np.ndarray | None = None
    y_final: np.ndarray | None = None
    x_at_times: np.ndarray | None = None
    full_x: np.ndarray | None = None
    full_y: np.ndarray | None = None
    hitting: np.ndarray | None = None
    truncated_draws: int = 0

    def endpoint_counts(self) -> np.ndarray:
        """Histogram of X at the horizon (length max+1, offset 0)."""
        if self.x_final is None:
            raise ValidationError("sample has no endpoint record")
        return np.bincount(self.x_final)

    def level_counts(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Distinct (x, y) endpoint states with their counts."""
        if self.x_final is None or self.y_final is None:
            raise ValidationError("sample has no (x, y) endpoint record")
        states = np.stack([self.x_final, self.y_final], axis=1)
        uniq, counts = np.unique(states, axis=0, return_counts=True)
        return uniq[:, 0], uniq[:, 1], counts


def simulate_paths(
    env: Environment,
    cfg: McConfig,
    method: str | None = None,
    times=None,
) -> WalkSample:
    """Simulate chain paths; ``method`` is "chain" or "sojourn".

    The chain method steps the (site, level) kernel directly; the sojourn
    method draws i.i.d. sojourn times by inverse CDF and accumulates their
    partial sums.  Both produce the same laws and default sensibly: full-path
    records require the chain method, everything else uses the faster sojourn
    route.
    """
    if method is None:
        method = "chain" if cfg.record == "full-path" else "sojourn"
    if method not in ("chain", "sojourn"):
        raise ValidationError(f"unknown method {method!r}")
    if cfg.record == "full-path":
        if method != "chain":
            raise ValidationError("full-path records require the chain method")
        if cfg.paths * (cfg.horizon + 1) > 50_000_000:
            raise ValidationError("full-path record too large; lower paths or horizon")
    if times is not None:
        times = np.asarray(sorted(int(t) for t in times), dtype=np.int64)
        if times.size == 0 or times[0] < 0 or times[-1] > cfg.horizon:
            raise ValidationError("times must be non-empty and lie in [0, horizon]")

    # fail early and deterministically if the environment cannot cover the run
    # (a path visits at most one site per step, so horizon sites always suffice)
    env.ensure(max(0, cfg.horizon - 1) if cfg.record == "hitting-times" else cfg.horizon)

    sample = WalkSample(method=method, record=cfg.record, paths=cfg.paths,
                        seed=cfg.seed, times=times)
    chunks = []
    for index, start in enumerate(range(0, cfg.paths, CHUNK)):
        size = min(CHUNK, cfg.paths - start)
        rng = stream(cfg.seed, "walk-mc", index)
        if method == "chain":
            chunks.append(_chain_chunk(env, cfg, rng, size, times))
        else:
            chunks.append(_sojourn_chunk(env, cfg, rng, size, times))
    for key in ("x_final", "y_final", "x_at_times", "full_x", "full_y", "hitting"):
        parts = [c[key] for c in chunks if c[key] is not None]
        if parts:
            setattr(sample, key, np.concatenate(parts, axis=0))
    sample.truncated_draws = sum(c["truncated"] for c in chunks)
    return sample


def _entry_levels(site: TailSequence, rng, count: int) -> tuple[np.ndarray, int]:
    draws, truncated = _sample_sojourn_batch(site, rng.random(count))
    return draws - 1, truncated


def _chain_chunk(env, cfg, rng, size, times):
    x = np.zeros(size, dtype=np.int64)
    y, truncated = _entry_levels(env.site(0), rng, size)
    full_x = full_y = None
    if cfg.record == "full-path":
        full_x = np.zeros((size, cfg.horizon + 1), dtype=np.int64)
        full_y = np.zeros((size, cfg.horizon + 1), dtype=np.int64)
        full_y[:, 0] = y
    x_at = None
    if times is not None:
        x_at = np.zeros((size, times.size), dtype=np.int64)
        x_at[:, times == 0] = 0
    for t in range(1, cfg.horizon + 1):
        descending = y > 0
        y[descending] -= 1
        jumping = np.flatnonzero(~descending)
        if jumping.size:
            new_x = x[jumping] + 1
            for site_idx in np.unique(new_x):
                group = jumping[new_x == site_idx]
                levels, trunc = _entry_levels(env.site(int(site_idx)), rng, group.size)
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
    return {
        "x_final": x, "y_final": y, "x_at_times": x_at,
        "full_x": full_x, "full_y": full_y, "hitting": None,
        "truncated": truncated,
    }


def _sojourn_chunk(env, cfg, rng, size, times):
    truncated = 0
    if cfg.record == "hitting-times":
        target = cfg.horizon
        hitting = np.zeros((size, target + 1), dtype=np.int64)
        total = np.zeros(size, dtype=np.int64)
        for site_idx in range(target):
            draws, trunc = _sample_sojourn_batch(env.site(site_idx), rng.random(size))
            truncated += trunc
            total += draws
            hitting[:, site_idx + 1] = total
        return {"x_final": None, "y_final": None, "x_at_times": None,
                "full_x": None, "full_y": None, "hitting": hitting,
                "truncated": truncated}

    horizon = cfg.horizon
    record_times = times if times is not None else np.array([horizon], dtype=np.int64)
    x_at = np.zeros((size, record_times.size), dtype=np.int64)
    total = np.zeros(size, dtype=np.int64)
    final_total = np.zeros(size, dtype=np.int64)
    active = np.arange(size)
    site_idx = 0
    while active.size:
        draws, trunc = _sample_sojourn_batch(env.site(site_idx), rng.random(active.size))
        truncated += trunc
        total[active] += draws
        x_at[active] += (total[active, None] <= record_times[None, :]).astype(np.int64)
        done = total[active] > horizon
        final_total[active[done]] = total[active[done]]
        active = active[~done]
        site_idx += 1
    out = {
        "x_final": x_at[:, -1] if record_times[-1] == horizon else None,
        "y_final": (final_total - 1 - horizon).astype(np.int64)
        if record_times[-1] == horizon else None,
        "x_at_times": x_at if times is not None else None,
        "full_x": None, "full_y": None, "hitting": None,
        "truncated": truncated,
    }
    return out


# ---------------------------------------------------------------------------
# Monte Carlo comparison helpers
# ---------------------------------------------------------------------------

def tv_distance(dist: DiscreteDistribution, counts: np.ndarray, paths: int) -> float:
    """Total-variation distance between an exact law and empirical counts
    indexed from 0.

    The exact law's deficit is counted as fully mismatched mass, so the result
    is an upper bound.
    """
    if paths <= 0:
        raise ValidationError("paths must be positive")
    counts = np.asarray(counts, dtype=np.float64)
    lo = min(dist.offset, 0)
    hi = max(dist.end, counts.size - 1)
    exact = np.zeros(hi - lo + 1)
    exact[dist.offset - lo : dist.end - lo + 1] = dist.probs
    emp = np.zeros_like(exact)
    emp[-lo : counts.size - lo] = counts / paths
    return 0.5 * float(np.abs(exact - emp).sum()) + 0.5 * dist.deficit


def mc_tv_tolerance(atoms: int, paths: int) -> float:
    """Desk-scale Monte Carlo tolerance 4 * sqrt(atoms / paths)."""
    return 4.0 * math.sqrt(atoms / paths)
