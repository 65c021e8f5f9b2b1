"""Site environments built from monotone tail sequences, and their diagnostics.

A site is described by a strictly decreasing tail (omega_n) with omega_0 = 1
and omega_n -> 0.  The walk sojourns at the site for n steps with probability
omega_{n-1} - omega_n, so the tail doubles as the survival function of the
sojourn time.  Environments are families of such tails indexed by site, stored
to a finite truncation point with an explicit ``deficit`` bounding the first
omitted value; every downstream moment and probability carries that deficit as
an interval bound rather than pretending the tail is complete.

Three builders of constant environments are provided, each taking one
parameter shared by every site:

* ``env_geometric``     -- omega_n = r**n (all moments in closed form),
* ``env_from_powerlaw`` -- omega_n = (n+1)**(-beta) (polynomial tails),
* ``env_from_lsv``      -- omega_n equals the n-th preimage of 1 under the
  slow branch y -> y + kappa * y**(alpha+1) of a two-branch interval map with
  a neutral fixed point at the origin, each preimage solved by Newton's
  method from above.

Environments whose parameter varies by site come from
``random_env.sample_environment``.

``diagnostics`` evaluates the quantities the limit-theorem hypotheses are
phrased in: the polynomial envelope suprema A_x and A'_x, the aperiodicity
statistic K_x, sojourn moments m_x and Var(tau_x), cumulative hitting moments
mu_x and sigma_x^2 and the generalized inverse M_n of (mu_x).  The limit fit
and its residuals theta_1, theta_2 live in ``limits.fit_limit_params``.

Work scales with distinct tails, not with sites: a constant environment holds
one tail object at every site, ``diagnostics`` computes one row per shared
tail and beta, and a file of values prints a shared tail once and refers
back to it by site index.  ``Environment`` keeps the sharing as a tail table
(its distinct tails and a site -> tail index) that every consumer reads.

An environment a builder made is filed as its builder descriptor and a
sha256 of its tails, not as values: loading builds it again and refuses
tails that hash otherwise.
"""

from __future__ import annotations

import contextlib
import contextvars
import hashlib
import json
import math
import os
from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from .errors import RebuildError, RootFindError, ValidationError

DEFAULT_N_CAP = 100_000
DEFAULT_TAIL_TOL = 1e-12
# relative Newton step tolerance of each backward-orbit preimage
_ORBIT_REL_TOL = 1e-13
_NEWTON_MAX_ITER = 200  # guards pathological tolerances only
# a batch orbit step costs as much as ~12 lone ones (76-80 us at 1-24 live lanes against
# 6.4 us; alpha 0.33, c 0.5, tail_tol 1e-10, 2-vCPU Xeon, numpy 2.4.6): fewer live orbits
# go on alone (bench env-files' last ones; no timed workload makes a smaller call)
_LONE_ORBITS = 12
_WRITE_SLICE = 1 << 20  # characters an output file is written in at a time
_M_TABLE_CAP = 1 << 24  # highest level n that diagnostics builds the M table to (128 MiB)
_FAMILIES = ("powerlaw", "geometric", "lsv")  # the tail families the builders make

__all__ = [
    "DEFAULT_N_CAP",
    "DEFAULT_TAIL_TOL",
    "TailSequence",
    "LsvParams",
    "Environment",
    "EnvDiagnostics",
    "geometric_tail_sequence",
    "powerlaw_tail_sequence",
    "lsv_tail_sequence",
    "env_geometric",
    "env_from_powerlaw",
    "env_from_lsv",
    "diagnostics",
    "cumulative_hitting_moments",
    "env_json_text",
    "write_env_file",
    "load_env_file",
]


# ---------------------------------------------------------------------------
# tail sequences
# ---------------------------------------------------------------------------

@dataclass(frozen=True, eq=False)
class TailSequence:
    """One site's stored tail (omega_0, ..., omega_N) plus truncation deficit.

    ``deficit`` is an upper bound on the first omitted value omega_{N+1}; the
    generators set it to the exactly computed next value.  ``deficit == 0``
    means the tail is exactly zero beyond the stored values.
    """

    values: np.ndarray
    deficit: float = 0.0
    cap_reached: bool = False

    def __post_init__(self):
        arr = np.array(self.values, dtype=np.float64)
        if arr.ndim != 1 or arr.size == 0:
            raise ValidationError("tail sequence must be a non-empty 1-D array")
        if arr[0] != 1.0:
            raise ValidationError(f"tail sequence must start at 1.0, got {arr[0]!r}")
        if arr[-1] <= 0.0:
            raise ValidationError("tail values must be positive")
        if not (arr[1:] < arr[:-1]).all():  # NaN and inf fail it too
            raise ValidationError("tail values must be strictly decreasing")
        d = float(self.deficit)
        if not 0.0 <= d <= arr[-1]:
            raise ValidationError(
                f"deficit must lie in [0, {arr[-1]!r}], got {d!r}"
            )
        arr.setflags(write=False)
        object.__setattr__(self, "values", arr)
        object.__setattr__(self, "deficit", d)

    @property
    def last_index(self) -> int:
        """Largest stored index N."""
        return self.values.size - 1

    def extended(self) -> np.ndarray:
        """Stored values with the deficit appended as the omega_{N+1} stand-in."""
        return np.append(self.values, self.deficit)

    def sojourn_probs(self) -> np.ndarray:
        """P(tau = n) for n = 1..N+1; sums to 1 - deficit exactly."""
        v, d = self.values, np.empty(self.values.size)
        np.subtract(v[:-1], v[1:], out=d[:-1])
        d[-1] = -(self.deficit - v[-1])  # -0.0 when the deficit is the last value, as -diff gives
        return d

    def stored_mean(self) -> float:
        """Sum of stored omega_n (mean sojourn, truncated)."""
        return float(self.values.sum())

    def stored_second_moment(self) -> float:
        """Sum of (2n+1) * omega_n over stored indices (second sojourn moment)."""
        n = np.arange(self.values.size, dtype=np.float64)
        return float(((2.0 * n + 1.0) * self.values).sum())


def geometric_tail_sequence(
    r: float,
    n_cap: int = DEFAULT_N_CAP,
    tail_tol: float = DEFAULT_TAIL_TOL,
) -> TailSequence:
    """Tail omega_n = r**n, stored until it drops below ``tail_tol``."""
    if not 0.0 < r < 1.0:
        raise ValidationError(f"geometric ratio must lie in (0, 1), got {r}")
    _check_truncation(n_cap, tail_tol)
    n_needed = max(1, math.ceil(math.log(tail_tol) / math.log(r)))
    n_last = min(n_cap, n_needed)
    values = r ** np.arange(n_last + 1, dtype=np.float64)
    return TailSequence(
        values,
        deficit=r ** (n_last + 1),
        cap_reached=n_needed > n_cap,
    )


def powerlaw_tail_sequence(
    beta: float,
    n_cap: int = DEFAULT_N_CAP,
    tail_tol: float = DEFAULT_TAIL_TOL,
) -> TailSequence:
    """Tail omega_n = (n+1)**(-beta); deficit is the next value (N+2)**(-beta)."""
    if not beta > 1.0:  # NaN included
        raise ValidationError(f"power-law exponent beta must exceed 1, got {beta}")
    _check_truncation(n_cap, tail_tol)
    n_needed = max(1, math.ceil(tail_tol ** (-1.0 / beta)) - 1)
    n_last = min(n_cap, n_needed)
    values = np.arange(1.0, n_last + 2.0) ** (-beta)
    return TailSequence(
        values,
        deficit=float(n_last + 2.0) ** (-beta),
        cap_reached=n_needed > n_cap,
    )


def _check_x_max(x_max: int) -> None:
    if isinstance(x_max, bool) or not isinstance(x_max, (int, np.integer)):
        raise ValidationError(f"x_max must be an integer, got {x_max!r}")
    if x_max < 0:
        raise ValidationError(f"x_max must be >= 0, got {x_max}")


def _check_truncation(n_cap: int, tail_tol: float) -> None:
    if n_cap < 1:
        raise ValidationError(f"n_cap must be >= 1, got {n_cap}")
    if not 0.0 < tail_tol < 1.0:
        raise ValidationError(f"tail_tol must lie in (0, 1), got {tail_tol}")


# ---------------------------------------------------------------------------
# two-branch neutral-fixed-point map family
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class LsvParams:
    """Parameters (alpha, c, kappa) of the slow branch y + kappa*y**(alpha+1).

    The branch maps [0, c] onto [0, 1], which pins the parameters together via
    c + kappa * c**(alpha+1) = 1; constructors solve for the missing one.
    alpha = 1 is admitted for the analytic test family y + y**2.
    """

    alpha: float
    c: float
    kappa: float

    def __post_init__(self):
        if not 0.0 < self.alpha <= 1.0:
            raise ValidationError(f"alpha must lie in (0, 1], got {self.alpha}")
        if not 0.0 < self.c < 1.0:
            raise ValidationError(f"c must lie in (0, 1), got {self.c}")
        if not self.kappa > 0.0:  # NaN included
            raise ValidationError(f"kappa must be positive, got {self.kappa}")
        residual = self.c + self.kappa * self.c ** (self.alpha + 1.0) - 1.0
        if not abs(residual) <= 1e-12:
            raise ValidationError(
                f"parameters violate c + kappa*c^(alpha+1) = 1 (residual {residual:.3e})"
            )

    @classmethod
    def from_alpha_c(cls, alpha: float, c: float) -> "LsvParams":
        if not 0.0 < c < 1.0:
            raise ValidationError(f"c must lie in (0, 1), got {c}")
        return cls(alpha=alpha, c=c, kappa=(1.0 - c) / c ** (alpha + 1.0))

    @classmethod
    def from_alpha_kappa(cls, alpha: float, kappa: float) -> "LsvParams":
        if not kappa > 0.0:
            raise ValidationError(f"kappa must be positive, got {kappa}")
        # c + kappa*c^(alpha+1) is increasing in c, 0 at 0 and 1 + kappa at 1.
        lo, hi = 0.0, 1.0
        for _ in range(200):
            mid = 0.5 * (lo + hi)
            if mid + kappa * mid ** (alpha + 1.0) < 1.0:
                lo = mid
            else:
                hi = mid
        return cls(alpha=alpha, c=0.5 * (lo + hi), kappa=kappa)


def _lsv_tails(params: Sequence[LsvParams], n_cap: int, tail_tol: float) -> list[TailSequence]:
    """The tails of ``lsv_tail_sequence`` for many parameter values, their
    backward orbits stepped together as arrays; callers check n_cap and
    tail_tol.

    Each step solves branch(y) = c_k for every live orbit by Newton's method
    from y = c_k.  The branch is strictly increasing and convex, so the
    iterates decrease monotonically onto the root and need no bracketing
    safeguard.  An orbit stops iterating at its first step of at most
    _ORBIT_REL_TOL * y, taking that step when it is positive, and leaves the
    batch at its own stop (tail_tol or n_cap) with its deficit solved, so
    its values do not depend on the batch it is stepped in.  Once fewer than
    _LONE_ORBITS orbits are live, each goes on in ``_lone_steps`` (same bits).
    """
    alpha, kappa = np.array([(p.alpha, p.kappa) for p in params]).T
    power = alpha + 1.0
    coef = np.stack([alpha, power, kappa, kappa * power])  # one column per live orbit
    lanes = np.arange(len(params))
    y = np.array([p.c for p in params])
    steps = [(lanes, y)]  # orbit values c_1, c_2, ... of the live lanes, step by step
    size = np.empty(len(params), dtype=np.intp)  # N + 2 for 1, c_1..c_N, deficit
    k = 1  # every live orbit holds c_1..c_k
    while lanes.size >= _LONE_ORBITS:
        stop = (y <= tail_tol) | (k >= n_cap)  # the next value is the deficit
        alpha, power, kappa, slope = coef
        root, todo = y, np.ones(y.size, dtype=bool)
        for _ in range(_NEWTON_MAX_ITER):
            # branch(root) - c_k over the slope, with root - c_k exact near the root
            step = ((root - y) + kappa * root ** power) / (1.0 + slope * root ** alpha)
            done = step <= _ORBIT_REL_TOL * root
            root = np.where(todo & ((step > 0.0) | ~done), root - step, root)
            todo &= ~done
            if not todo.any():
                break
        else:
            raise RootFindError(f"Newton's method did not reach relative tolerance "
                                f"{_ORBIT_REL_TOL} within {_NEWTON_MAX_ITER} iterations")
        y = root
        steps.append((lanes, y))
        if stop.any():
            size[lanes[stop]] = k + 2
            coef, lanes, y = coef[:, ~stop], lanes[~stop], y[~stop]
        k += 1
    rests = [_lone_steps(params[i], c, k, n_cap, tail_tol) for i, c in zip(lanes.tolist(), y.tolist())]
    size[lanes] = [k + 1 + len(rest) for rest in rests]
    start = np.concatenate(([0], np.cumsum(size)[:-1]))
    flat = np.ones(size.sum())
    for t, (live, values) in enumerate(steps):
        flat[start[live] + 1 + t] = values
    for a, rest in zip(start[lanes].tolist(), rests):
        flat[a + k + 1 : a + k + 1 + len(rest)] = rest
    return [
        TailSequence(flat[a : a + m - 1], deficit=flat[a + m - 1], cap_reached=flat[a + m - 2] > tail_tol)
        for a, m in zip(start.tolist(), size.tolist())
    ]


def _lone_steps(params: LsvParams, y: float, k: int, n_cap: int, tail_tol: float) -> list:
    """The rest c_{k+1}, ..., c_N, deficit of one ``_lsv_tails`` orbit from
    y = c_k, step for step on Python floats.  Both powers of an iterate come
    from one numpy array pow, whose bits are the batch's (Python's ``**``
    differs from it in the last bit now and then)."""
    kappa, slope = params.kappa, params.kappa * (params.alpha + 1.0)
    exponents, powers = np.array([params.alpha, params.alpha + 1.0]), np.empty(2)
    rest = []
    while True:
        stop = y <= tail_tol or k + len(rest) >= n_cap  # the next value is the deficit
        target = y
        for _ in range(_NEWTON_MAX_ITER):
            y_alpha, y_power = np.power(y, exponents, powers).tolist()
            step = ((y - target) + kappa * y_power) / (1.0 + slope * y_alpha)
            if step <= _ORBIT_REL_TOL * y:
                break
            y -= step
        else:
            raise RootFindError(f"Newton's method did not reach relative tolerance "
                                f"{_ORBIT_REL_TOL} within {_NEWTON_MAX_ITER} iterations")
        y -= max(step, 0.0)
        rest.append(y)
        if stop:
            return rest


def lsv_tail_sequence(
    params: LsvParams,
    n_cap: int = DEFAULT_N_CAP,
    tail_tol: float = DEFAULT_TAIL_TOL,
) -> TailSequence:
    """Tail omega_n = c_n (with c_0 = 1); deficit is the next preimage c_{N+1}.

    The orbit is stepped by ``_lsv_tails``, the routine that builds the tails
    of a quenched environment together, so this tail equals, bit for bit,
    the same parameter's tail built inside a batch.
    """
    _check_truncation(n_cap, tail_tol)
    return _lsv_tails([params], n_cap, tail_tol)[0]


# ---------------------------------------------------------------------------
# environments
# ---------------------------------------------------------------------------

class Environment:
    """Site-indexed family of tail sequences, kept as a tail table: ``tails``
    holds the distinct tail objects in order of first appearance and
    ``tail_index[x]`` is site x's position in it.

    Sites 0..x_max are materialized eagerly; a range ``factory``, when
    present, extends the family on demand: ``factory(start, stop)`` returns
    the tails of sites start..stop-1 (append-only, ascending order).  The
    ``model`` descriptor is kept as given, not copied, so a factory that
    records its sites there describes every materialized site.
    Materialized sites are immutable and safe to share across readers.
    """

    def __init__(
        self,
        sites: Sequence[TailSequence],
        model: dict | None = None,
        factory: Callable[[int, int], list[TailSequence]] | None = None,
    ):
        self.tails: list[TailSequence] = []  # append-only
        self._position: dict[int, int] = {}  # id of a tail -> its index in tails
        self._index = np.zeros(16, dtype=np.intp)  # grown by doubling
        self._size = 0
        self._extend(sites)
        if not self._size:
            raise ValidationError("environment needs at least one site")
        self.model = {} if model is None else model
        self._factory = factory

    def _extend(self, sites) -> None:
        keys = []
        for site in sites:
            if not isinstance(site, TailSequence):
                raise ValidationError(f"not a TailSequence: {site!r}")
            keys.append(self._position.setdefault(id(site), len(self.tails)))
            if keys[-1] == len(self.tails):
                self.tails.append(site)
        end = self._size + len(keys)
        if end > self._index.size:
            self._index = np.resize(self._index, max(end, 2 * self._index.size))
        self._index[self._size : end] = keys
        self._size = end
        # read-only: the index into ``tails`` of each materialized site
        self.tail_index = self._index[:end]
        self.tail_index.flags.writeable = False

    def __len__(self) -> int:
        return self._size

    @property
    def x_max(self) -> int:
        return self._size - 1

    def tail_groups(self, sites):
        """Yield (k, sel) for each distinct tail k of the materialized ``sites``
        (an index array or a slice), in ascending k: sites[sel] are those with
        tail k, sel ascending, and sel is slice(None) when all of them share
        one tail."""
        if len(self.tails) == 1:
            yield 0, slice(None)
            return
        of = self.tail_index[sites]
        # one stable sort gives every group, each in ascending site order;
        # numpy sorts keys of up to 16 bits by radix
        order = np.argsort(of.astype(np.min_scalar_type(len(self.tails) - 1)), kind="stable")
        keys = of[order]
        cuts = np.flatnonzero(keys[1:] != keys[:-1]) + 1
        if not cuts.size:
            if keys.size:
                yield int(keys[0]), slice(None)
            return
        yield from zip(keys[np.append(0, cuts)].tolist(), np.split(order, cuts))

    def ensure(self, x_max: int) -> None:
        """Materialize sites through ``x_max`` with one factory call."""
        if x_max <= self.x_max:
            return
        if self._factory is None:
            raise ValidationError(
                f"site {x_max} is beyond the materialized range 0..{self.x_max} "
                "and this environment has no generator"
            )
        self._extend(self._factory(self._size, x_max + 1))

    def site(self, x: int) -> TailSequence:
        if x < 0:
            raise ValidationError(f"site index must be non-negative, got {x}")
        if x > self.x_max:
            self.ensure(x)
        return self.tails[self._index[x]]

    def sites(self) -> list[TailSequence]:
        return [self.tails[k] for k in self.tail_index.tolist()]


def _constant_env(tail, param, x_max: int, n_cap: int, tail_tol: float,
                  model: dict) -> Environment:
    """Sites 0..x_max, and every site the factory adds later, share one tail.
    One range function builds sites 0..x_max and is the factory; it sets
    ``x_max`` in ``model`` (``capped_sites``, "all" or [], holds as it grows)."""
    _check_x_max(x_max)
    try:
        shared = tail(param, n_cap, tail_tol)
    except RootFindError as exc:
        raise RootFindError(f"site 0: {exc}") from exc
    model.update(n_cap=n_cap, tail_tol=tail_tol,
                 capped_sites="all" if shared.cap_reached else [])

    def grow(start: int, stop: int) -> list[TailSequence]:
        model["x_max"] = stop - 1
        return [shared] * (stop - start)

    return Environment(grow(0, x_max + 1), model=model, factory=grow)


def env_geometric(
    r: float,
    x_max: int,
    n_cap: int = DEFAULT_N_CAP,
    tail_tol: float = DEFAULT_TAIL_TOL,
) -> Environment:
    """Constant environment: every site has the geometric tail r**n."""
    return _constant_env(geometric_tail_sequence, r, x_max, n_cap, tail_tol,
                         {"family": "geometric", "r": float(r), "beta_diag": 3.0})


def env_from_powerlaw(
    beta: float,
    x_max: int,
    n_cap: int = DEFAULT_N_CAP,
    tail_tol: float = DEFAULT_TAIL_TOL,
) -> Environment:
    """Constant environment: every site has the power-law tail (n+1)**(-beta)."""
    return _constant_env(powerlaw_tail_sequence, beta, x_max, n_cap, tail_tol,
                         {"family": "powerlaw", "beta": float(beta), "beta_diag": float(beta)})


def env_from_lsv(
    params: LsvParams,
    x_max: int,
    n_cap: int = DEFAULT_N_CAP,
    tail_tol: float = DEFAULT_TAIL_TOL,
) -> Environment:
    """Constant environment: every site has the backward orbit of the slow
    branch of ``params`` as its tail; a root-finder failure names site 0."""
    descriptor = {"alpha": params.alpha, "c": params.c, "kappa": params.kappa}
    return _constant_env(lsv_tail_sequence, params, x_max, n_cap, tail_tol,
                         {"family": "lsv", "params": descriptor, "beta_diag": 1.0 / params.alpha})


# ---------------------------------------------------------------------------
# diagnostics
# ---------------------------------------------------------------------------

def _tail_mean_bound(site: TailSequence, beta: float) -> float:
    """Bound on the unstored part of sum(omega_n), extrapolating the tail at
    rate n**(-beta) through the deficit point."""
    if site.deficit == 0.0:
        return 0.0
    n_last = site.last_index
    return site.deficit * (n_last + 1.0) ** beta * n_last ** (1.0 - beta) / (beta - 1.0)


def _tail_second_moment_bound(site: TailSequence, beta: float) -> float:
    """Bound on the unstored part of sum((2n+1) * omega_n); infinite for beta <= 2."""
    if site.deficit == 0.0:
        return 0.0
    if beta <= 2.0:
        return math.inf
    n_last = site.last_index
    scale = site.deficit * (n_last + 1.0) ** beta
    return scale * (2.0 * n_last ** (2.0 - beta) / (beta - 2.0)
                    + n_last ** (1.0 - beta) / (beta - 1.0))


@dataclass(frozen=True, eq=False)
class EnvDiagnostics:
    """Per-site and cumulative quantities entering the limit-theorem hypotheses.

    Arrays are indexed by site over ``x``; ``mu`` and ``sigma2`` have one extra
    leading entry so that mu[x] is the mean hitting time of site x (sum over
    sites w < x).  ``M`` holds the generalized inverse M_n for n = 0..floor(mu[-1]).
    """

    x: np.ndarray
    beta: np.ndarray
    beta_star: float
    A: np.ndarray
    A_prime: np.ndarray
    K: np.ndarray
    m: np.ndarray
    m_tail_bound: np.ndarray
    m2: np.ndarray
    m2_alt: np.ndarray
    s2: np.ndarray
    s2_tail_bound: np.ndarray
    mu: np.ndarray
    mu_upper: np.ndarray
    sigma2: np.ndarray
    M: np.ndarray
    A_truncation_flagged: np.ndarray
    A_prime_truncation_flagged: np.ndarray
    cap_reached: np.ndarray
    variance_converged: bool


def _diagnostic_row(site: TailSequence, b) -> tuple:
    """One site's (A, A flag, A', A' flag, K, m tail, s2 tail, capped)."""
    v = site.values
    n_last = site.last_index
    diffs = site.sojourn_probs()  # P(tau = n), n = 1..N+1
    n_idx = np.arange(1.0, n_last + 2.0)  # n = 1..N+1; its first N entries for A

    A = max((n_idx[:n_last] ** b * v[1:]).max(), 1.0) if n_last >= 1 else 1.0
    A_flag = (n_last + 1.0) ** b * site.deficit > A

    A_prime = max((n_idx ** (b + 1.0) * diffs).max(), 1.0)
    Ap_flag = (n_last + 2.0) ** (b + 1.0) * site.deficit > A_prime

    if n_last >= 1 and diffs[1] > 0.0:
        high = (diffs[2:] / diffs[1]).max() if n_last >= 2 else 0.0
        K = high + diffs[1] / (1.0 - v[1])
    else:
        K = math.nan

    return (A, A_flag, A_prime, Ap_flag, K,
            _tail_mean_bound(site, b), _tail_second_moment_bound(site, b), site.cap_reached)


def _sojourn_moments(env: Environment, stop: int) -> np.ndarray:
    """Rows m and m2: the stored sojourn mean and second moment of each site
    0..stop-1, formed once per distinct tail and spread over its sites."""
    env.ensure(stop - 1)
    keys, of_site = np.unique(env.tail_index[:stop], return_inverse=True)
    return np.array([(env.tails[k].stored_mean(), env.tails[k].stored_second_moment())
                     for k in keys.tolist()]).T[:, of_site]


def diagnostics(env: Environment, beta) -> EnvDiagnostics:
    """Compute hypothesis diagnostics over every materialized site.

    ``beta`` is caller-supplied, a scalar or one value per site; the library
    never infers it from data.  When the declared beta makes the variance
    tail bound infinite (beta <= 2 somewhere), ``variance_converged`` is
    False and ``limits.fit_limit_params`` refuses to fit a variance.  Sites
    that share one tail object and one beta share one computed row.
    """
    xs = np.arange(len(env))
    try:
        betas = np.array(beta, dtype=np.float64)
    except (TypeError, ValueError) as exc:
        raise ValidationError(f"beta must be a number or a list of numbers: {exc}") from exc
    if betas.ndim == 0:
        betas = np.full(xs.size, betas)
    elif betas.shape != xs.shape:
        raise ValidationError(
            f"beta needs a scalar or one value per site ({xs.size}), got shape {betas.shape}"
        )
    if not np.all((betas > 1.0) & np.isfinite(betas)):
        raise ValidationError("beta(x) must be finite and exceed 1 at every site")

    # one row per distinct (tail, beta) pair, keyed tail * n_beta + beta's code,
    # spread over its sites
    beta_values, beta_code = np.unique(betas, return_inverse=True)
    pairs, inverse = np.unique(env.tail_index * beta_values.size + beta_code,
                               return_inverse=True)
    rows = [_diagnostic_row(env.tails[k], beta_values[b])
            for k, b in zip(*np.divmod(pairs, beta_values.size))]
    A, A_flag, A_prime, Ap_flag, K, m_tail, s2_tail, capped = (
        np.array(column)[inverse.ravel()] for column in zip(*rows))
    m, m2 = _sojourn_moments(env, xs.size)

    s2 = m2 - m * m
    mu = np.concatenate(([0.0], np.cumsum(m)))
    # The true per-site mean lies in [m, m + m_tail_bound]; the generalized
    # inverse M is taken on the upper end so analytic lattice crossings
    # (e.g. mu_x exactly integer) are not missed because of truncation.
    mu_upper = np.concatenate(([0.0], np.cumsum(m + m_tail)))
    if not mu_upper[-1] <= _M_TABLE_CAP:  # inf and NaN are refused too
        raise ValidationError(
            f"the M table would hold {np.floor(mu_upper[-1] + 1e-9) + 1:,.0f} entries, over "
            f"the cap of {_M_TABLE_CAP + 1:,}: use fewer sites, or a beta_diag (here "
            f"{float(betas.min())!r}) further above 1, which bounds the unstored tail means")
    sigma2 = np.concatenate(([0.0], np.cumsum(s2)))
    n_max = int(math.floor(mu_upper[-1] + 1e-9))
    M = np.searchsorted(mu_upper, np.arange(n_max + 1), side="left")

    variance_converged = bool(np.all(np.isfinite(s2_tail)))
    return EnvDiagnostics(
        x=xs, beta=betas, beta_star=float(betas.min()),
        A=A, A_prime=A_prime, K=K,
        m=m, m_tail_bound=m_tail, m2=m2, m2_alt=m2 + 2.0 * m,
        s2=s2, s2_tail_bound=s2_tail,
        mu=mu, mu_upper=mu_upper, sigma2=sigma2, M=M,
        A_truncation_flagged=A_flag, A_prime_truncation_flagged=Ap_flag,
        cap_reached=capped, variance_converged=variance_converged,
    )


def cumulative_hitting_moments(env: Environment, x: int) -> tuple[float, float]:
    """(mu_x, sigma_x^2): mean and variance of the hitting time of site x.

    The sums over sites 0..x-1 add the sojourn mean m and variance
    m2 - m^2 in site order.
    """
    if x <= 0:
        return 0.0, 0.0
    m, m2 = _sojourn_moments(env, x)
    # np.cumsum adds sequentially, as diagnostics does, so these are its mu[x] and sigma2[x]
    return float(np.cumsum(m)[-1]), float(np.cumsum(m2 - m * m)[-1])


# ---------------------------------------------------------------------------
# file format
# ---------------------------------------------------------------------------

def env_json_text(env: Environment) -> str:
    """The text of ``env`` as a file of values, the form ``write_env_file``
    gives an environment that no builder made.

    Every omega and deficit is written as format(x, ".17g"), which reads back
    to the same float64.  A site holding the same tail object as an earlier
    site is written as that earlier site's index, so a shared tail is
    printed once.
    """
    pieces = ['{"model": ' + json.dumps(env.model, sort_keys=True) + ', "sites": [\n']
    # tails are numbered in order of first appearance, so first[k] is tail k's first site
    _, first = np.unique(env.tail_index, return_index=True)
    for x, k in enumerate(env.tail_index.tolist()):
        if x:
            pieces.append(",\n")
        if first[k] < x:
            pieces.append(str(first[k]))
            continue
        tail = env.tails[k]
        omegas = ", ".join([format(v, ".17g") for v in tail.values.tolist()])
        pieces.append('{"omega": [' + omegas + '], "deficit": ' + format(tail.deficit, ".17g") + "}")
    pieces.append("\n]}\n")
    return "".join(pieces)


def _tails_sha256(env: Environment) -> str:
    """sha256 over each distinct tail's float64 values and deficit bytes, in
    order of first appearance, then the site -> tail index as int64."""
    digest = hashlib.sha256()
    for tail in env.tails:
        digest.update(tail.values)
        digest.update(np.float64(tail.deficit).tobytes())
    digest.update(env.tail_index.astype(np.int64).tobytes())
    return digest.hexdigest()


def _refuse_overwrite(paths, force: bool) -> None:
    """Raise before anything is written if any target exists and ``force`` is off."""
    for path in paths:
        if os.path.exists(path) and not force:
            raise FileExistsError(f"refusing to overwrite {path}; pass force/--force")


# (temporary file, target) pairs of the output set open in this context
_staged = contextvars.ContextVar("walklab_staged_outputs", default=None)


@contextlib.contextmanager
def _all_or_nothing():
    """An output set, scoped like ``np.errstate``: every ``_write_text``
    inside the block writes its text to a temporary file beside its target at
    once, and the temporary files are renamed onto their targets
    (``os.replace``) only when the block ends normally.  If it raises, they
    are removed, so an error partway through leaves no new file.  A nested
    block joins the enclosing set."""
    if _staged.get() is not None:
        yield
        return
    staged: list[tuple[str, str]] = []
    token = _staged.set(staged)
    try:
        yield
        while staged:
            os.replace(*staged[0])
            del staged[0]
    finally:
        _staged.reset(token)
        for tmp, _ in staged:
            with contextlib.suppress(OSError):
                os.unlink(tmp)


def _stage(path: str, text: str) -> None:
    """Write text to a new temporary file in path's directory, as a member
    of the open output set.  The text goes out in slices of _WRITE_SLICE
    characters, so the encoded copy a write makes stays that small."""
    if os.path.exists(path) and not os.path.isfile(path):
        # a device or pipe such as /dev/stdout is written to, never replaced
        target, mode = path, "w"
    else:
        head, name = os.path.split(path)
        target, mode = os.path.join(head, f".{name}.{os.urandom(4).hex()}.tmp"), "x"
        _staged.get().append((target, path))
    with open(target, mode) as fh:
        for start in range(0, len(text), _WRITE_SLICE):
            fh.write(text[start : start + _WRITE_SLICE])


def _write_text(path: str, text: str, force: bool) -> None:
    with _all_or_nothing():
        _refuse_overwrite([path], force)
        _stage(path, text)


def write_env_file(env: Environment, path: str, force: bool = False) -> None:
    """Write ``env`` as an environment file.  An environment a builder made
    (it has the builder's factory and descriptor) is written as its
    descriptor and the sha256 of its tails, from which ``load_env_file``
    rebuilds it; any other is written value by value (``env_json_text``)."""
    if env._factory is not None and env.model.get("family") in _FAMILIES:
        text = json.dumps({"model": env.model, "tails_sha256": _tails_sha256(env)},
                          sort_keys=True) + "\n"
    else:
        text = env_json_text(env)
    _write_text(path, text, force)


def _site_arrays(obj: dict) -> dict:
    """json object hook: a site entry's omega list becomes a float64 array as
    soon as it is decoded, so the Python floats of one site at most are alive
    at a time.  A list that does not convert is left for load_env_file to
    refuse."""
    if obj.keys() == {"omega", "deficit"}:
        try:
            obj["omega"] = np.asarray(obj["omega"], dtype=np.float64)
        except (TypeError, ValueError):
            pass
    return obj


def load_env_file(path: str) -> Environment:
    """Read an environment file; the result has no generator for extension.

    A file of a descriptor and a digest is rebuilt by its builder.  In a file
    of values, an integer site entry refers back to an earlier site, whose
    tail object the site then shares.
    """
    with open(path) as fh:
        try:
            payload = json.load(fh, object_hook=_site_arrays)
        except json.JSONDecodeError as exc:
            raise ValidationError(f"{path} is not valid JSON: {exc}") from exc
    if not isinstance(payload, dict):
        raise ValidationError(f"{path} is not an environment file")
    model = payload.get("model", {})
    if not isinstance(model, dict):
        raise ValidationError(f"{path} has a model entry that is not an object")
    if "tails_sha256" in payload:
        return _rebuild(path, model, payload["tails_sha256"])
    if not isinstance(payload.get("sites"), list):
        raise ValidationError(f"{path} is not an environment file")
    sites: list[TailSequence] = []
    for x, entry in enumerate(payload["sites"]):
        if isinstance(entry, int) and not isinstance(entry, bool):
            if not 0 <= entry < x:
                raise ValidationError(
                    f"{path}: site {x} refers to site {entry}, not an earlier site")
            sites.append(sites[entry])
            continue
        try:
            sites.append(TailSequence(np.asarray(entry["omega"], dtype=np.float64),
                                      deficit=float(entry.get("deficit", 0.0))))
        except (KeyError, TypeError, ValueError) as exc:
            raise ValidationError(f"{path} has a malformed site entry: {exc}") from exc
    return Environment(sites, model=model, factory=None)


def _rebuild(path: str, model: dict, digest) -> Environment:
    """The environment of a descriptor file, built again by the builder its
    model names.  Its tails must hash to ``digest`` and its descriptor must
    equal ``model``, or RebuildError; like a file of values, it does not grow."""
    from . import random_env  # here, as random_env imports this module
    try:
        x_max, n_cap, tail_tol = model["x_max"], model["n_cap"], model["tail_tol"]
        if "random" in model:
            spec = random_env.RandomEnvModel.from_descriptor(model["random"])
            env = random_env.sample_environment(spec, x_max, n_cap, tail_tol).environment
        elif model["family"] == "geometric":
            beta_diag = model["beta_diag"]  # read before a build that may take long
            env = env_geometric(model["r"], x_max, n_cap, tail_tol)
            env.model["beta_diag"] = beta_diag  # `walklab env --beta-diag`
        elif model["family"] == "powerlaw":
            env = env_from_powerlaw(model["beta"], x_max, n_cap, tail_tol)
        elif model["family"] == "lsv":
            env = env_from_lsv(LsvParams(**model["params"]), x_max, n_cap, tail_tol)
        else:
            raise ValidationError(f"unknown family {model['family']!r}")
    except KeyError as exc:
        raise ValidationError(f"{path}: the model descriptor has no {exc} entry") from exc
    except (TypeError, ValueError, AttributeError) as exc:  # ValidationError included
        raise ValidationError(f"{path} has a malformed model descriptor: {exc}") from exc
    if _tails_sha256(env) != digest:
        raise RebuildError(f"{path}: the tails its model descriptor builds here do not "
                           "match its tails_sha256 digest")
    if env.model != model:
        raise RebuildError(f"{path}: its model descriptor differs from the one its "
                           "builder records")
    env._factory = None
    return env
