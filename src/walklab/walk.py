"""Exact laws and Monte Carlo simulation of the site/level chain.

The chain descends one level per step and, on hitting level 0 at site x,
jumps to site x+1 with a fresh level drawn from that site's tail.  The
horizontal coordinate X_n is therefore a renewal-style walk whose sojourn at
site x has pmf omega_{n-1} - omega_n, and the first-passage time of site x is
the convolution of the sojourns at sites 0..x-1.

Exact computations convolve pmfs one ladder step at a time, each step one
``DiscreteDistribution.convolve`` that returns a law.  A ladder allowed to
trim (``trunc_tol > 0``) books in an explicit deficit its trimmed upper
tails, its floored lower tails and the roundoff bound of its FFT products
(see ``convolve``); with ``trunc_tol = 0`` every product is direct and
loss-free.  A hitting law is a product of powered sojourn laws
(``_power``); with ``trunc_tol > 0`` a position scan starts at the window
around n/mu and walks each run of sites of one tail in blocks of about
sqrt(rows) sites: one ladder step per block, each row a dot product with
tables built once per run (``position_scan``; the grouping is Paterson and
Stockmeyer's, SIAM J. Comput. 2(1), 1973).  Position laws come from

    P(X_n = x) = sum_k P(T_x = k) * omega^x_{n-k},

with the x = 0 convention T_0 = 0.  Two independent simulators are provided:
a step-by-step chain simulator and an inverse-CDF sojourn-sum simulator; their
outputs agree in distribution and are cross-checked in the test suite.  Both
build one table per distinct tail, not per site, and rank every draw of a
step or block in its site's table in one call.  The chain method hands each
step's random numbers to the jumping paths in path order, and the sojourn
method draws blocks of sites x paths, so the outputs of both for a seed differ
from the site-by-site draws they replaced (the laws are the same).
Both take raw Philox words where they took uniforms, the word w standing for
``Generator.random``'s double (w >> 11) 2^-53, and invert CDFs through guide
tables (``streams.Guide``): a word's bucket is its top bits, its index is by
construction the ``searchsorted`` one capped at N+1, and only the few words
that go to ``searchsorted`` become doubles, so outputs for a seed are
unchanged.  The capped draws come back as a list of indices, which gives the
truncated-draw count without a mask.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache, partial
from typing import Iterator

import numpy as np

from .environment import Environment, TailSequence, _sojourn_moments
from .errors import DeficitBudgetError, ValidationError
from .streams import CHUNK, Guide, stream

DEFAULT_TRUNC_TOL = 1e-14
DEFAULT_DEFICIT_BUDGET = 1e-6
# largest block of raw words the sojourn simulator draws at once
_BLOCK = 1 << 16
# The sojourn simulator sums blocks of at most this many sites row by row, one
# add a row, wider ones by a cumsum.  Per 2^16 draws on a 2-vCPU Xeon, numpy
# 2.4, rows against cumsum: 0.03-0.04 vs 0.38-0.6 ms at width 2-16, 0.06 vs
# 0.35 at 32, 0.10 vs 0.22-0.35 at 64-65, 0.17-0.19 vs 0.34-0.37 at 128, 0.19-
# 0.21 vs 0.21-0.22 at 160, 0.30-0.32 vs 0.30-0.31 at 256, 0.38 vs 0.18-0.20 at 320.
_ROW_SUMS_WIDTH = 256
# int64 cells a simulation keeps over all paths: paths x (horizon + 1) of a
# full-path or hitting-times record, plus the endpoints and checkpoint columns
_MAX_RECORD_CELLS = 50_000_000
# paths x (horizon + 1) of a simulation
_MAX_PATH_STEPS = 10_000_000_000
# A product of at least _FFT_MIN_MACS multiply-adds, both factors at least
# _FFT_MIN_ATOMS long, goes through the FFT when the ladder may trim.  Direct
# time over FFT time, measured on a 2-vCPU Xeon with numpy 2.4: 1.0 at
# 750 x 750, 1.1 at 800 x 800, 1.3 at 3000 x 500, 1.5 at 1000 x 1000, 2.4 at
# 2329 x 2155; 0.7-0.8 at 1000 x 500 and 2000 x 300, 0.4-0.6 with a 48- or
# 64-atom factor.
_FFT_MIN_MACS = 600_000
_FFT_MIN_ATOMS = 500
# Per-stage relative error of an FFT butterfly pass, in units of the float64
# unit roundoff u: Higham's eta = mu + gamma_4 (sqrt(2) + mu) is 1 + 4 sqrt(2)
# = 6.66 u with twiddle factors accurate to mu = u (Accuracy and Stability of
# Numerical Algorithms, 2nd ed., Thm 24.2); 8 covers it and the O(u) terms of
# the pointwise product, the 1/m scaling and the final subtraction.
_FFT_C = 8.0
_U = 2.0**-53
_TINY = float(np.finfo(np.float64).tiny)
# A trimming ladder moves a law's leading atoms below 2^-958 (2^64 x the smallest
# normal) to its deficit, so their products with sojourn atoms >= 2^-64 stay normal.
_FLOOR = 2.0**-958
# A ladder scan keeps the per-tail terms (sojourn law, reversed tail) of this
# many tails it met last, so tails that alternate are built once each; more
# would only hold memory when each site has its own tail.
_RECENT_TAILS = 4
# A position scan steps a run of one tail in blocks of B >= _MIN_BLOCK sites.
# A run of R rows in blocks of B = sqrt(R) sites makes about 3 B products (B
# baby steps, B row tables, R / B block steps) against R site steps, so runs
# of fewer than 16 rows save a few products at most and keep the ladder's rows.
_MIN_BLOCK = 4

__all__ = [
    "DiscreteDistribution",
    "McConfig",
    "WalkSample",
    "PositionScan",
    "sojourn_pmf",
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
    clipped to; ``deficit`` bounds mass lost to truncation, the underflow
    floor or the roundoff bound of FFT steps, whose position is unknown.
    The stored block is canonical: leading and trailing exact zeros are
    stripped (shifting ``offset``), every stored atom is non-negative, and
    mass + beyond + deficit stays within 1e-9 of one.  A law whose whole
    mass lies beyond its horizon stores one zero atom.
    """

    offset: int
    probs: np.ndarray
    deficit: float = 0.0
    beyond: float = 0.0

    def __post_init__(self):
        arr = np.array(self.probs, dtype=np.float64)
        if arr.ndim != 1 or arr.size == 0:
            raise ValidationError("probs must be a non-empty 1-D array")
        if (arr < 0.0).any():
            raise ValidationError("probabilities must be non-negative")
        beyond = float(self.beyond)
        if beyond < 0.0:
            raise ValidationError(f"beyond must be non-negative, got {beyond}")
        offset, arr = _strip_zeros(int(self.offset), arr, beyond)
        deficit = float(self.deficit)
        if deficit < -1e-12:
            raise ValidationError(f"deficit must be non-negative, got {deficit}")
        deficit = max(deficit, 0.0)
        self._store(offset, arr, float(arr.sum()), deficit, beyond)

    def _store(self, offset, probs, mass, deficit, beyond):
        total = mass + beyond + deficit
        if not abs(total - 1.0) <= 1e-9:  # NaN fails it too
            raise ValidationError(
                f"mass + beyond + deficit = {total!r}, expected 1 within 1e-9")
        probs.setflags(write=False)
        vars(self).update(offset=offset, probs=probs, deficit=deficit, beyond=beyond, _mass=mass)

    @classmethod
    def _of(cls, *raw) -> "DiscreteDistribution":
        """A law from ``convolve``'s canonical block (offset, probs, mass, deficit,
        beyond), uncopied: only the mass check runs."""
        law = object.__new__(cls)
        law._store(*raw)
        return law

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
        return self._mass

    def _reversed_sums(self, length: int) -> np.ndarray:
        """rev[j] = probs[size - j:].sum() for j <= size and the whole sum up
        to j < length: upper sums, reversed, kept per law, grown on demand."""
        rev = vars(self).get("_rev")
        if rev is None or rev.size < length:
            rest = np.cumsum(self.probs[::-1])
            pad = np.full(max(length - rest.size - 1, 0), rest[-1])
            rev = vars(self)["_rev"] = np.concatenate(([0.0], rest, pad))
        return rev

    def _spectrum(self, m: int) -> tuple[np.ndarray, float]:
        """rfft(probs, m) and the 2-norm of probs, kept for the last m asked."""
        if vars(self).get("_spectra", (None,))[0] != m:
            vars(self)["_spectra"] = (m, np.fft.rfft(self.probs, m), _norm2(self.probs))
        return self._spectra[1:]

    def convolve(self, other: "DiscreteDistribution", trunc_tol: float = 0.0,
                 horizon: int | None = None) -> "DiscreteDistribution":
        """Pmf convolution, then contiguous upper-tail trim into deficit.

        With a ``horizon`` only atoms up to it are formed; the product mass
        above it is added to ``beyond`` exactly.  Only the largest stored
        points are trimmed, and only while they and ``beyond`` together hold
        at most ``trunc_tol``, so the support stays contiguous.

        With ``trunc_tol > 0`` the leading atoms below ``_FLOOR`` (2^-958),
        but the last, go to ``deficit`` too: this underflow floor is a deficit
        source beside trimming and FFT roundoff, and through it a stored law
        is not stochastically dominated by the true one.

        Products are formed directly, except that with ``trunc_tol > 0`` a
        product of at least ``_FFT_MIN_MACS`` multiply-adds, both factors at
        least ``_FFT_MIN_ATOMS`` long, is formed by FFT.  Each FFT atom is
        lowered by a rigorous bound on its roundoff (``_fft_product``), so it
        is a lower bound on the true atom, and the mass this removes is booked
        in ``deficit``.  With ``trunc_tol = 0`` every product is direct.
        """
        offset, a, b = self.offset + other.offset, self.probs, other.probs
        mass_a, mass_b, deficit_a = self._mass, other._mass, self.deficit
        beyond = self.beyond * (mass_b + other.beyond) + mass_a * other.beyond
        above = 0.0  # mass of the stored atoms' product above the horizon
        if horizon is None:
            keep = a.size + b.size - 1
        else:
            keep = horizon - offset + 1
            # a_i * b_j lands above the horizon iff j >= keep - i, so a_i carries
            # rev[b.size - keep + i]; atoms of a before keep - b.size never do
            start = min(max(keep - b.size, 0), a.size)
            first = min(b.size - keep + start, b.size)
            rev = other._reversed_sums(first + a.size - start)
            above = float(a[start:] @ rev[first : first + a.size - start])
            beyond += above
            a, b = a[:keep], b[:keep]
        deficit = deficit_a + other.deficit - deficit_a * other.deficit
        if keep <= 0:
            probs = np.zeros(1)
        elif trunc_tol > 0.0 and _by_fft(a.size, b.size):
            spectrum = other._spectrum if b.size == other.probs.size else None
            probs = _fft_product(a, b, keep, mass_a, mass_b, spectrum)
            # the atoms below the horizon hold mass_a mass_b - above in truth
            deficit += max(mass_a * mass_b - above - float(probs.sum()), 0.0)
        else:
            probs = np.convolve(a, b)[:keep]
        if trunc_tol > beyond and probs.size > 1:
            target = trunc_tol - beyond
            # a cumsum is sequential, so that of the last 64 atoms is the start
            # of the whole reversed one; most trims stop within it
            rev = np.cumsum(probs[::-1][:64])
            if rev[-1] <= target and rev.size < probs.size:
                rev = np.cumsum(probs[::-1])
            cut = min(int(np.searchsorted(rev, target, side="right")), probs.size - 1)
            if cut > 0:
                deficit += float(rev[cut - 1])
                probs = probs[:-cut]
        offset, probs = _strip_zeros(offset, probs, beyond)
        if trunc_tol > 0.0 and probs[0] < _FLOOR and probs.size > 1:
            # argmax is 0 when no atom reaches the floor: keep the last one then
            cut = int(np.argmax(probs >= _FLOOR)) or probs.size - 1
            deficit += float(probs[:cut].sum())
            offset, probs = offset + cut, probs[cut:]
        return DiscreteDistribution._of(offset, probs, float(probs.sum()), deficit, beyond)


def _by_fft(size_a: int, size_b: int) -> bool:
    """Whether a trimming ladder forms a product of these sizes by FFT."""
    return size_a * size_b >= _FFT_MIN_MACS and min(size_a, size_b) >= _FFT_MIN_ATOMS


def _strip_zeros(offset: int, probs: np.ndarray, beyond: float) -> tuple[int, np.ndarray]:
    """Strip a block's zero ends (one zero stays if all its mass is beyond)."""
    if probs[0] == 0.0 or probs[-1] == 0.0:
        nz = np.flatnonzero(probs)
        if nz.size == 0:
            if beyond == 0.0:
                raise ValidationError("distribution has no positive atom")
            nz = np.zeros(1, dtype=np.intp)
        offset += int(nz[0])
        probs = probs[nz[0] : nz[-1] + 1]
    return offset, probs


@lru_cache(maxsize=256)
def _fft_length(size: int) -> int:
    """Smallest 5-smooth integer >= size."""
    best = 1 << (size - 1).bit_length()
    p5 = 1
    while p5 < best:
        p35 = p5
        while p35 < best:
            best = min(best, p35 << max(0, (-(-size // p35) - 1).bit_length()))
            p35 *= 3
        p5 *= 5
    return best


def _fft_product(a: np.ndarray, b: np.ndarray, keep: int, mass_a: float,
                 mass_b: float, spectrum=None) -> np.ndarray:
    """First ``keep`` atoms of a * b by FFT, each lowered to a certified lower
    bound max(c~ - eps, 0) of the true atom; ``mass_a`` and ``mass_b`` bound
    the l1 norms of a and b.  ``spectrum(m)``, if given, returns rfft(b, m)
    and the 2-norm of b, as b's law keeps them (``_spectrum``).

    For the transform length m (5-smooth, at least a.size + b.size - 1, so no
    atom wraps around), t = ceil(log2 m) butterfly stages and the per-stage
    bound eta = _FFT_C u (see there), each transform's 2-norm error is at most
    t eta times its exact 2-norm (Higham, Thm 24.2).  The two forward
    transforms then move every output atom by at most 2 t eta |a|_2 |b|_2
    (Cauchy-Schwarz on the spectra), and the inverse by at most t eta |a*b|_2,
    where |a*b|_2 <= min(|a|_1 |b|_2, |a|_2 |b|_1) (Young).  So

        eps = _FFT_C u t (2 |a|_2 |b|_2 + min(|a|_1 |b|_2, |a|_2 |b|_1)) + m tiny,

    the last term covering gradual underflow.  Norms are taken on scaled
    copies, so atoms near the underflow threshold do not vanish from them.
    """
    size = a.size + b.size - 1
    m = _fft_length(size)
    spectrum_b, norm_b = (np.fft.rfft(b, m), _norm2(b)) if spectrum is None else spectrum(m)
    c = np.fft.irfft(np.fft.rfft(a, m) * spectrum_b, m)[: min(keep, size)]
    norm_a = _norm2(a)
    t = (m - 1).bit_length()
    eps = (_FFT_C * _U * t * (2.0 * norm_a * norm_b + min(mass_a * norm_b, norm_a * mass_b))
           + m * _TINY)
    c -= eps
    return np.maximum(c, 0.0, out=c)


def _norm2(v: np.ndarray) -> float:
    """Euclidean norm of a non-negative vector without underflow."""
    scale = float(v.max())
    if scale == 0.0:
        return 0.0
    w = v / scale
    return scale * math.sqrt(float(w @ w))


def sojourn_pmf(site: TailSequence) -> DiscreteDistribution:
    """Law of the sojourn time at a site: P(tau = n) = omega_{n-1} - omega_n."""
    return DiscreteDistribution(offset=1, probs=site.sojourn_probs(), deficit=site.deficit)


def _draw(guide: Guide, tails, u: np.ndarray, sites, out=None, paths=None) -> tuple:
    """Sojourns for raw Philox words u (uniforms (u >> 11) 2^-53), row i
    drawn at site s = sites[i] (sites[paths[i]] given ``paths``) by inverting
    the CDF 1 - extended() of its tail, table tails[s] of ``guide`` (table 0,
    no site read, when ``tails`` is None), capped at N+1, into ``out`` if
    given; and the flat indices into u, ascending, of the truncated draws."""
    t = 0 if tails is None else tails[sites if paths is None else sites[paths]].reshape(
        (-1,) + (1,) * (u.ndim - 1))  # a block's rows are its sites
    return guide.rank(u, t, out=out)


# ---------------------------------------------------------------------------
# exact laws
# ---------------------------------------------------------------------------

def _reversed_tail(site: TailSequence) -> np.ndarray:
    """extended() reversed: the weights omega_{n-k} of k = k_lo..k_hi are
    rev[k_lo + j : k_hi + j + 1] with j = rev.size - 1 - n."""
    return site.extended()[::-1].copy()


def _sojourn_cache(env: Environment):
    return lru_cache(_RECENT_TAILS)(lambda k: sojourn_pmf(env.tails[k]))


def _power(env: Environment, x: int, trunc_tol: float, horizon: int | None,
           sojourn_of) -> DiscreteDistribution:
    """Law of T_x, a sum of independent sojourns: over the tails k of sites
    0..x-1, which are 0..K-1 by their numbering in order of first appearance,
    ``sojourn_of(k)`` to the power #{sites with tail k}, by squaring in
    O(log x) steps, each trimmed and clipped as a ladder step."""
    env.ensure(x - 1)
    law = DiscreteDistribution.point_mass(0)
    for k, count in enumerate(np.bincount(env.tail_index[:x]).tolist()):
        base = sojourn_of(k)
        while count:
            if count & 1:
                law = law.convolve(base, trunc_tol, horizon)
            count >>= 1
            if count:
                base = base.convolve(base, trunc_tol, horizon)
    return law


def _check_ladder(name: str, x: int, trunc_tol: float, deficit_budget: float) -> None:
    """Refuses a site ``name`` = x below 0, a ``trunc_tol`` outside [0, 1) and a
    ``deficit_budget`` below 0 or NaN (no deficit would ever exceed NaN)."""
    if x < 0:
        raise ValidationError(f"{name} must be >= 0, got {x}")
    if not 0.0 <= trunc_tol < 1.0:
        raise ValidationError(f"trunc_tol must lie in [0, 1), got {trunc_tol}")
    if not deficit_budget >= 0.0:
        raise ValidationError(f"deficit_budget must be >= 0, got {deficit_budget}")


def _within_budget(law: DiscreteDistribution, deficit_budget: float,
                   x: int) -> DiscreteDistribution:
    if law.deficit > deficit_budget:
        raise DeficitBudgetError(
            f"accumulated deficit {law.deficit:.3e} exceeds budget "
            f"{deficit_budget:.3e} at site {x}; increase N_cap, tighten "
            f"tail_tol, or coarsen trunc_tol"
        )
    return law


def hitting_time_scan(
    env: Environment,
    x_stop: int,
    trunc_tol: float = DEFAULT_TRUNC_TOL,
    deficit_budget: float = DEFAULT_DEFICIT_BUDGET,
    horizon: int | None = None,
    *, _start: tuple | None = None,
) -> Iterator[tuple[int, DiscreteDistribution]]:
    """Yield (x, law of T_x) for x = 0..x_stop, convolving one site at a time.

    With a ``horizon`` n each law keeps only its atoms up to n and carries
    P(T_x > n) in ``beyond``.  This is exact for every atom up to n: a
    sojourn lasts at least one step, so no atom above n ever comes back
    below it.  ``deficit_budget``, at least 0, applies to the deficit alone
    (truncation, the underflow floor and FFT roundoff), not to ``beyond``.
    ``trunc_tol``, the mass one trim may drop, must lie in [0, 1).  Each
    step is one ``DiscreteDistribution.convolve``.
    ``_start`` = (x, law of T_x, advance) starts the scan there, and
    ``advance(x)`` returns (y, law of T_y - T_x): the scan yields T_y next.
    """
    _check_ladder("x_stop", x_stop, trunc_tol, deficit_budget)
    if _start is None:
        sojourn_of = _sojourn_cache(env)

        def advance(x):
            env.site(x)
            return x + 1, sojourn_of(int(env.tail_index[x]))

        _start = (0, DiscreteDistribution.point_mass(0), advance)
    x, law, advance = _start
    yield x, _within_budget(law, deficit_budget, x)
    while x < x_stop:
        x, factor = advance(x)
        law = _within_budget(law.convolve(factor, trunc_tol, horizon), deficit_budget, x)
        yield x, law


def hitting_time_distribution(
    env: Environment,
    x: int,
    trunc_tol: float = DEFAULT_TRUNC_TOL,
    deficit_budget: float = DEFAULT_DEFICIT_BUDGET,
) -> DiscreteDistribution:
    """Law of the first-passage time of site x (point mass at 0 for x = 0):
    the product of powered sojourn laws (``_power``), which trims O(log x)
    times, not x times; with ``trunc_tol = 0`` every product is direct and
    loss-free, so only the stored tails' deficits remain."""
    _check_ladder("x", x, trunc_tol, deficit_budget)
    return _within_budget(_power(env, x, trunc_tol, None, _sojourn_cache(env)), deficit_budget, x)


@dataclass(frozen=True, eq=False)
class PositionScan:
    """Per-site rows of the time-n position law.

    ``prob[i]`` is P(X_n = x) and ``hitting_at_n[i]`` is P(T_x = n) for x =
    ``x[i]`` = x_lo..x_stop; other sites hold at most ``deficit`` mass in total.
    Rows from block products (``position_scan``) agree with the site-by-site
    ladder's within both deficits; with B = 1 (short runs, ``trunc_tol = 0``)
    they are its rows bit for bit.
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
) -> PositionScan:
    """Exact position law at time n via the hitting-time convolution ladder.

    The ladder is clipped to the horizon n.  With ``trunc_tol > 0`` it starts
    at x_lo, the largest materialized site with mu_x + 9 sigma_x <= n, from
    the law of T_{x_lo} as a product of powered sojourn laws (``_power``),
    if that law's exact ``beyond`` = P(X_n < x_lo) is at most ``trunc_tol``;
    the rows below x_lo are left out and count in the deficit.  Else it
    starts at 0.  The scan stops once P(T_x <= n) drops below ``trunc_tol``
    (the remaining sites can hold at most that much mass, which is folded
    into the deficit).  A row uses the site deficit as its weight at lag
    N+1, one past the stored tail, and 0 at larger lags.  The deficit is at
    least omega^x_{N+1} and 0 is at most the dropped weights, so a row is
    neither an upper nor a lower bound.

    With ``trunc_tol > 0`` the ladder's FFT products and underflow floor put
    mass in the deficit too (see ``DiscreteDistribution.convolve``), and a run
    of materialized sites that share one tail and hold at least
    ``_MIN_BLOCK``**2 rows is scanned in blocks of B ~ sqrt(rows) sites: one
    ladder step per block, and each row a dot product of the block's first
    law with a table built once per run (``_baby_steps``).  So a scan of R
    rows makes O(sqrt(R)) products instead of R.  Elsewhere, and always with
    ``trunc_tol = 0``, B = 1: the site-by-site ladder, row for row.
    """
    if n < 0:
        raise ValidationError(f"n must be >= 0, got {n}")
    sojourn_of = _sojourn_cache(env)
    x_start, law = 0, DiscreteDistribution.point_mass(0)
    x_hi = n  # T_x >= x: no site past n holds mass at time n
    stop = min(len(env) - 1, n)  # x_lo is a materialized site: none is added to find it
    if 0.0 < trunc_tol < 1.0 and stop >= 1:
        m, m2 = _sojourn_moments(env, stop)
        mean = np.cumsum(m)
        spread = 9.0 * np.sqrt(np.maximum(np.cumsum(m2 - m * m), 0.0))
        x_lo = int(np.count_nonzero(mean + spread <= n))  # reach grows with x
        reached = int(np.count_nonzero(mean - spread <= n))
        if reached < stop:  # the scan stops near the first site whose T_x lies past n
            x_hi = reached
        # with more tails below x_lo (numbered 0..K-1) there is little to
        # power, and the scan's cache would build their sojourn laws again
        if x_lo and env.tail_index[:x_lo].max() < _RECENT_TAILS:
            product = _power(env, x_lo, trunc_tol, n, sojourn_of)
            if product.beyond <= trunc_tol:
                x_start, law = x_lo, product
    prob, hit = (np.concatenate(parts) for parts in zip(
        *_scan_rows(env, n, trunc_tol, deficit_budget, x_start, law, x_hi, sojourn_of)))
    return PositionScan(
        n=n,
        x=np.arange(x_start, x_start + prob.size),
        prob=prob,
        hitting_at_n=hit,
        deficit=max(0.0, 1.0 - float(prob.sum())),
    )


def _scan_rows(env: Environment, n: int, trunc_tol: float, deficit_budget: float,
               x: int, law: DiscreteDistribution, x_hi: int, sojourn_of) -> Iterator[tuple]:
    """(P(X_n = y), P(T_y = n)) for y = x, x+1, ... from the law of T_x,
    clipped to n, until ``position_scan``'s stop rule; a run of sites of one
    tail goes in blocks of B sites, B fixed per run from the rows it can hold
    among the materialized sites (at most x_hi).  Rows come in pairs of
    arrays, a block's at once; a block ends at the last built site, and the
    scan goes site by site (B = 1) from there."""
    reversed_of = lru_cache(_RECENT_TAILS)(lambda k: _reversed_tail(env.tails[k]))
    # the sites where a run of one tail starts, and the end of the known ones
    starts, known = np.flatnonzero(np.diff(env.tail_index)) + 1, len(env)
    steps = []  # the ladder step after a block: (site, law of its sojourns)
    tail = -1
    for x, law in hitting_time_scan(env, n, trunc_tol, deficit_budget, horizon=n,
                                    _start=(x, law, lambda _: steps.pop())):
        offset, probs, mass = law.offset, law.probs, law.mass()
        site = env.site(x)
        if env.tail_index[x] != tail:  # a run starts at x
            tail = int(env.tail_index[x])
            rev = reversed_of(tail)
            j = rev.size - 1 - n
            i = int(np.searchsorted(starts, x, side="right"))
            # T_{x+r} >= offset + r: no row past x + n - offset holds mass
            end = min(int(starts[i]) if i < starts.size else known, x_hi + 1,
                      x + n - offset + 1)
            size = math.isqrt(max(end - x, 0)) if trunc_tol > 0.0 else 1
            if size < _MIN_BLOCK:
                size = 1
            else:
                powers, table, lags, upper = _baby_steps(sojourn_of(tail), rev[::-1], size,
                                                         trunc_tol, n - offset)
        # the block's first row is the law of T_x itself, as the ladder forms it
        k_lo = max(offset, n - site.last_index - 1)
        k_hi = min(n, offset + probs.size - 1)
        row = 0.0
        if k_lo <= k_hi:
            row = float(probs[k_lo - offset : k_hi - offset + 1] @ rev[k_lo + j : k_hi + j + 1])
        at_n = float(probs[-1]) if k_hi == n else 0.0  # a law ending past n is 0
        if size == 1:  # the ladder's row
            yield (row,), (at_n,)
            if x == n or mass < trunc_tol:  # clipped to n: P(T_x <= n)
                return
            steps.append((x + 1, sojourn_of(tail)))
            continue
        # column m of the table is lag m: it meets the atom at k = n - m
        k_lo = max(offset, n - lags)
        k_end = max(offset + probs.size, k_lo)
        values = (table[:, n + 1 - k_end : n + 1 - k_lo]
                  @ probs[k_lo - offset : k_end - offset][::-1]).reshape(-1, 3)
        values[:, 2] = upper * mass - values[:, 2]
        block = np.concatenate(([(row, at_n, mass)], values))
        r = min(size, len(env) - x)  # the rows of built sites
        change = np.flatnonzero(env.tail_index[x + 1 : x + r] != tail)
        if change.size:  # the run ends inside the block
            r = int(change[0]) + 1
        elif r < size:  # the block ends at the last built site: site by site from there
            tail = -1
        # the stop rule: P(T_y <= n) below trunc_tol, or y = n
        stop = np.flatnonzero((block[:r, 2] < trunc_tol) | (np.arange(x, x + r) == n))
        rows = block[: int(stop[0]) + 1 if stop.size else r]
        yield rows[:, 0], rows[:, 1]
        if stop.size:
            return
        steps.append((x + r, powers[r]))


def _baby_steps(sojourn: DiscreteDistribution, ext: np.ndarray, size: int,
                trunc_tol: float, reach: int) -> tuple:
    """The per-run terms of a block scan of ``size`` >= 2 sites of one tail.

    ``powers[r]`` is P_r, the law of r sojourns clipped to ``reach`` (r = 1..
    size, the first being ``sojourn`` itself).  For r = 1..size-1, rows
    3(r-1), 3(r-1)+1, 3(r-1)+2 of ``table`` hold at column m, lag m = 0..lags:
    G_r = P_r * ext (the row weights of the r-th site of a block), P_r (its
    P(T = n)) and the mass of P_r above that lag (its P(T > n)); ``upper``
    holds the mass of each P_r.  Lags stop at ``reach``, n minus the offset
    of the run's first law, past which no dot product of the run reads.
    """
    powers = [None, sojourn]
    for _ in range(size - 1):
        powers.append(powers[-1].convolve(sojourn, trunc_tol, reach))
    lags = min(reach, max(p.end for p in powers[1:size]) + ext.size - 1)
    table = np.zeros((size - 1, 3, lags + 1))
    upper = np.empty(size - 1)
    weights, l1 = ext[: lags + 1], float(ext.sum())
    spectrum = lru_cache(None)(lambda m: (np.fft.rfft(weights, m), _norm2(weights)))
    for r, p in enumerate(powers[1:size]):
        above = np.cumsum(p.probs[::-1])[::-1]  # above[i]: mass at lags >= offset + i
        table[r, 2, : p.offset] = upper[r] = above[0]
        keep = lags + 1 - p.offset
        if keep <= 0:  # P_r lies past every lag read
            continue
        a = p.probs[:keep]
        if _by_fft(a.size, weights.size):
            g = _fft_product(a, weights, keep, p._mass, l1, spectrum)
        else:
            g = np.convolve(a, weights)[:keep]
        table[r, 0, p.offset : p.offset + g.size] = g
        table[r, 1, p.offset : p.offset + a.size] = a
        table[r, 2, p.offset : p.offset + a.size] = np.append(above[1:], 0.0)[: a.size]
    return powers, table.reshape(3 * (size - 1), lags + 1), lags, upper


def position_distribution(
    env: Environment,
    n: int,
    trunc_tol: float = DEFAULT_TRUNC_TOL,
    deficit_budget: float = DEFAULT_DEFICIT_BUDGET,
) -> DiscreteDistribution:
    """Law of X_n; support is contained in [x_lo, n] (see ``position_scan``)."""
    scan = position_scan(env, n, trunc_tol, deficit_budget)
    return DiscreteDistribution(offset=int(scan.x[0]), probs=scan.prob, deficit=scan.deficit)


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
        width = int(self.y_final.max(initial=0)) + 1
        return _state_counts(self.x_final * width + self.y_final, width)


def _state_counts(keys: np.ndarray, width: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Distinct states (x, y) in ``np.unique(axis=0)``'s order, with their counts,
    from int64 keys x * width + y of states with x >= 0 and 0 <= y < width."""
    uniq, counts = np.unique(keys, return_counts=True)
    return uniq // width, uniq % width, counts


def _check_times(times, horizon: int) -> np.ndarray:
    """Recorded times as a sorted int64 array, repeats kept; refuses an empty
    list and times outside [0, horizon]."""
    times = np.asarray(sorted(int(t) for t in times), dtype=np.int64)
    if times.size == 0 or times[0] < 0 or times[-1] > horizon:
        raise ValidationError("times must be non-empty and lie in [0, horizon]")
    return times


def _check_run_size(paths: int, horizon: int, kept: int) -> None:
    """Refuse a run of paths x (horizon + 1) above _MAX_PATH_STEPS, or one
    keeping ``kept`` int64 cells a path, above _MAX_RECORD_CELLS in all."""
    steps = paths * (horizon + 1)
    if steps > _MAX_PATH_STEPS:
        raise ValidationError(f"{paths} paths x {horizon + 1} steps = {steps} exceeds "
                              f"{_MAX_PATH_STEPS}; lower paths or horizon")
    if paths * kept > _MAX_RECORD_CELLS:
        raise ValidationError(f"{paths} paths x {kept} kept cells = {paths * kept} exceeds "
                              f"{_MAX_RECORD_CELLS}; lower paths or the recorded times")


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
    records require the chain method, hitting-times records the sojourn
    method, and everything else uses the faster sojourn route.  Both per-path
    records are refused above ``_MAX_RECORD_CELLS`` cells, and so is any run
    past ``_check_run_size``'s caps, before any site is built.
    """
    if method is None:
        method = "chain" if cfg.record == "full-path" else "sojourn"
    if method not in ("chain", "sojourn"):
        raise ValidationError(f"unknown method {method!r}")
    if cfg.record == "hitting-times" and method != "sojourn":
        raise ValidationError("hitting-times records require the sojourn method")
    if cfg.record == "full-path" and method != "chain":
        raise ValidationError("full-path records require the chain method")
    cells = cfg.paths * (cfg.horizon + 1)
    if cfg.record != "endpoint-only" and cells > _MAX_RECORD_CELLS:
        raise ValidationError(f"{cfg.record} record of {cells} cells exceeds "
                              f"{_MAX_RECORD_CELLS}; lower paths or horizon")
    if times is not None:
        times = _check_times(times, cfg.horizon)
    kept = cfg.horizon + 1 if cfg.record != "endpoint-only" else 0
    if cfg.record != "hitting-times":  # X and Y at the horizon, X at each time
        kept += 2 + (0 if times is None else times.size)
    _check_run_size(cfg.paths, cfg.horizon, kept)

    # fail early and deterministically if the environment cannot cover the run
    # (a path visits at most one site per step, so horizon sites always suffice)
    reach = max(0, cfg.horizon - 1) if cfg.record == "hitting-times" else cfg.horizon
    env.ensure(reach)
    # one guide over the run's tail CDFs, formed once per call, and each
    # site's table in it; a clipped rank is a truncated draw
    # tails are numbered in order of first appearance: the run's are 0..max
    tails = env.tail_index[: reach + 1]
    cdfs = [1.0 - tail.extended() for tail in env.tails[: tails.max() + 1]]
    guide = Guide(cdfs, hi=[cdf.size - 1 for cdf in cdfs])
    draw = partial(_draw, guide, tails if len(cdfs) > 1 else None)

    sample = WalkSample(method=method, record=cfg.record, paths=cfg.paths,
                        seed=cfg.seed, times=times)
    chunk = _chain_chunk if method == "chain" else _sojourn_chunk
    chunks = []
    for index, start in enumerate(range(0, cfg.paths, CHUNK)):
        size = min(CHUNK, cfg.paths - start)
        chunks.append(chunk(cfg, stream(cfg.seed, "walk-mc", index), size, times, draw))
    for key in ("x_final", "y_final", "x_at_times", "full_x", "full_y", "hitting"):
        parts = [c[key] for c in chunks if c.get(key) is not None]
        if parts:
            setattr(sample, key, np.concatenate(parts, axis=0))
    sample.truncated_draws = sum(c["truncated"] for c in chunks)
    return sample


def _chain_chunk(cfg, rng, size, times, draw):
    """Chain paths kept as their site and the time of their next jump, ``due``
    (the level at time t is due - (t + 1), formed only where recorded).  Each
    step hands one raw word to each jumping path, in path order, and the path
    jumps again after the sojourn drawn at its new site.  A step adds its mask
    due == t to the sites, and its draw reads them only on several tails."""
    x = np.zeros(size, dtype=np.int64)
    bitgen = rng.bit_generator
    due, over = draw(bitgen.random_raw(size), slice(0, 1))
    truncated = over.size
    full_x = full_y = None
    if cfg.record == "full-path":
        full_x = np.zeros((size, cfg.horizon + 1), dtype=np.int64)
        full_y = np.zeros((size, cfg.horizon + 1), dtype=np.int64)
        full_y[:, 0] = due - 1
    x_at = None if times is None else np.zeros((size, times.size), dtype=np.int64)
    jump = np.empty(size, dtype=bool)
    for t in range(1, cfg.horizon + 1):
        jumping = np.flatnonzero(np.equal(due, t, out=jump))
        if jumping.size:
            x += jump
            sojourns, over = draw(bitgen.random_raw(jumping.size), x, paths=jumping)
            due[jumping] = np.add(sojourns, t, out=sojourns)
            truncated += over.size
        if full_x is not None:
            full_x[:, t] = x
            full_y[:, t] = due - (t + 1)
        if x_at is not None:
            x_at[:, times == t] = x[:, None]
    return {"x_final": x, "y_final": due - (cfg.horizon + 1), "x_at_times": x_at,
            "full_x": full_x, "full_y": full_y, "truncated": truncated}


def _sojourn_chunk(cfg, rng, size, times, draw):
    """Sojourn sums T_x from blocks of at most _BLOCK raw words, row j of a
    block holding every live path's draw at one site, added to the live paths'
    sums ``before``.  A path stops once its sum passes the horizon (hitting
    times run over sites 0..horizon-1): the paths that finish in a block are
    those whose last row passes it, and only the draws they made up to that
    are used, or count as truncated.  A time t reads the paths with before <= t < last."""
    hitting_mode = cfg.record == "hitting-times"
    horizon = cfg.horizon
    n_sites, stop = (horizon, np.iinfo(np.int64).max) if hitting_mode else (horizon + 1, horizon)
    hitting = np.zeros((size, horizon + 1), dtype=np.int64) if hitting_mode else None
    x_at = None if times is None else np.zeros((size, times.size), dtype=np.int64)
    x_final, final_total = np.zeros(size, dtype=np.int64), np.zeros(size, dtype=np.int64)
    active, before = np.arange(size), np.zeros(size, dtype=np.int64)
    truncated = 0
    site = 0
    buffer = np.empty(max(_BLOCK, size), dtype=np.int64)
    while active.size and site < n_sites:
        width = min(n_sites - site, max(1, _BLOCK // active.size))
        draws = buffer[: width * active.size].reshape(width, -1)
        words = rng.bit_generator.random_raw(width * active.size).reshape(width, -1)
        over = draw(words, slice(site, site + width), out=draws)[1]
        sums = words.view(np.int64)  # the ranked words' array holds the block's sums
        if width <= _ROW_SUMS_WIDTH:
            for j in range(width):
                np.add(sums[j - 1] if j else before, draws[j], out=sums[j])
        else:
            np.cumsum(draws, axis=0, out=sums)
            sums += before
        last = sums[-1]
        done = np.flatnonzero(last > stop)  # X = site + within for these paths
        within = np.count_nonzero(sums[:, done] <= stop, axis=0)
        if over.size:  # a live path uses all its draws, a finishing one within + 1
            reached = np.full(active.size, width)
            reached[done] = within
            row, path = np.divmod(over, active.size)
            truncated += int(np.count_nonzero(row <= reached[path]))
        if hitting_mode:
            hitting[:, site + 1 : site + width + 1] = sums.T
        elif times is not None:  # X_t = site + #{block sums <= t} where the block passes t
            for i in np.flatnonzero((times >= before.min()) & (times < last.max())):
                passes = np.flatnonzero((before <= times[i]) & (times[i] < last))
                count = np.count_nonzero(sums[:, passes] <= times[i], axis=0)
                x_at[active[passes], i] = site + count
        x_final[active[done]] = site + within
        final_total[active[done]] = sums[within, done]
        live = last <= stop
        before, active = last[live], active[live]
        site += width
        del words, sums, last  # freed before the next block's words are drawn
    if hitting_mode:
        return {"hitting": hitting, "truncated": truncated}
    return {"x_final": x_final, "y_final": final_total - 1 - horizon, "x_at_times": x_at,
            "truncated": truncated}


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
