"""Site environments built from monotone tail sequences, and their diagnostics.

A site is described by a strictly decreasing tail (omega_n) with omega_0 = 1
and omega_n -> 0.  The walk sojourns at the site for n steps with probability
omega_{n-1} - omega_n, so the tail doubles as the survival function of the
sojourn time.  Environments are families of such tails indexed by site, stored
to a finite truncation point with an explicit ``deficit`` bounding the first
omitted value; every downstream moment and probability carries that deficit as
an interval bound rather than pretending the tail is complete.

Three generators are provided:

* ``env_geometric``     -- omega_n = r**n (all moments in closed form),
* ``env_from_powerlaw`` -- omega_n = (n+1)**(-beta) (polynomial tails),
* ``env_from_lsv``      -- omega_n equals the n-th preimage of 1 under the
  slow branch y -> y + kappa * y**(alpha+1) of a two-branch interval map with
  a neutral fixed point at the origin, computed by bisection.

``diagnostics`` evaluates the quantities the limit-theorem hypotheses are
phrased in: the polynomial envelope suprema A_x and A'_x, the aperiodicity
statistic K_x, sojourn moments m_x and Var(tau_x), cumulative hitting moments
mu_x and sigma_x^2 and the generalized inverse M_n of (mu_x).  The limit fit
and its residuals theta_1, theta_2 live in ``limits.fit_limit_params``.
"""

from __future__ import annotations

import json
import math
import os
from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from .errors import RootFindError, ValidationError

DEFAULT_N_CAP = 100_000
DEFAULT_TAIL_TOL = 1e-12

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
    "lsv_cn_sequence",
    "env_geometric",
    "env_from_powerlaw",
    "env_from_lsv",
    "diagnostics",
    "window_fluctuation",
    "cumulative_hitting_moments",
    "tail_mean_bound",
    "tail_second_moment_bound",
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
    generator_tag: str = "custom"
    cap_reached: bool = False

    def __post_init__(self):
        arr = np.asarray(self.values, dtype=np.float64).copy()
        if arr.ndim != 1 or arr.size == 0:
            raise ValidationError("tail sequence must be a non-empty 1-D array")
        if arr[0] != 1.0:
            raise ValidationError(f"tail sequence must start at 1.0, got {arr[0]!r}")
        if arr[-1] <= 0.0:
            raise ValidationError("tail values must be positive")
        if arr.size > 1 and not np.all(np.diff(arr) < 0):
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
        return -np.diff(self.extended())

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
        generator_tag=f"geometric(r={r!r})",
        cap_reached=n_needed > n_cap,
    )


def powerlaw_tail_sequence(
    beta: float,
    n_cap: int = DEFAULT_N_CAP,
    tail_tol: float = DEFAULT_TAIL_TOL,
) -> TailSequence:
    """Tail omega_n = (n+1)**(-beta); deficit is the next value (N+2)**(-beta)."""
    if beta <= 1.0:
        raise ValidationError(f"power-law exponent must exceed 1, got {beta}")
    _check_truncation(n_cap, tail_tol)
    n_needed = max(1, math.ceil(tail_tol ** (-1.0 / beta)) - 1)
    n_last = min(n_cap, n_needed)
    values = (np.arange(n_last + 1, dtype=np.float64) + 1.0) ** (-beta)
    return TailSequence(
        values,
        deficit=float(n_last + 2.0) ** (-beta),
        generator_tag=f"powerlaw(beta={beta!r})",
        cap_reached=n_needed > n_cap,
    )


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
        if self.kappa <= 0.0:
            raise ValidationError(f"kappa must be positive, got {self.kappa}")
        residual = self.c + self.kappa * self.c ** (self.alpha + 1.0) - 1.0
        if abs(residual) > 1e-12:
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
        if kappa <= 0.0:
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

    def branch(self, y: float) -> float:
        """Slow-branch value y + kappa * y**(alpha+1)."""
        return y + self.kappa * y ** (self.alpha + 1.0)


def _invert_branch(
    params: LsvParams,
    target: float,
    hi: float,
    rel_tol: float,
    max_iter: int = 200,
) -> float:
    """Solve branch(y) = target for y in (0, hi] by bisection plus Newton polish.

    The branch is strictly increasing and continuous with branch(hi) >= target
    whenever target <= hi's image, so bisection cannot fail; the iteration cap
    only guards pathological tolerances.
    """
    lo = 0.0
    if params.branch(hi) < target:
        raise RootFindError(f"no root in (0, {hi}]: branch({hi}) < {target}")
    iterations = 0
    while hi - lo > rel_tol * hi:
        iterations += 1
        if iterations > max_iter:
            raise RootFindError(
                f"bisection did not reach relative tolerance {rel_tol} "
                f"within {max_iter} iterations"
            )
        mid = 0.5 * (lo + hi)
        if mid <= lo or mid >= hi:
            break
        if params.branch(mid) < target:
            lo = mid
        else:
            hi = mid
    y = 0.5 * (lo + hi)
    for _ in range(2):
        deriv = 1.0 + params.kappa * (params.alpha + 1.0) * y ** params.alpha
        step = (params.branch(y) - target) / deriv
        candidate = y - step
        if lo <= candidate <= hi:
            y = candidate
    return y


def lsv_cn_sequence(params: LsvParams, count: int, rel_tol: float = 1e-13) -> np.ndarray:
    """Backward orbit c_1..c_count of 1 under the slow branch: branch(c_{n+1}) = c_n.

    c_1 equals params.c exactly since branch(c) = 1 by the parameter constraint.
    """
    if count < 1:
        raise ValidationError(f"count must be >= 1, got {count}")
    if not 1e-16 <= rel_tol < 1.0:
        raise ValidationError(f"rel_tol must lie in [1e-16, 1), got {rel_tol}")
    out = np.empty(count, dtype=np.float64)
    out[0] = params.c
    for i in range(1, count):
        out[i] = _invert_branch(params, out[i - 1], out[i - 1], rel_tol)
    return out


def lsv_tail_sequence(
    params: LsvParams,
    n_cap: int = DEFAULT_N_CAP,
    tail_tol: float = DEFAULT_TAIL_TOL,
    rel_tol: float = 1e-13,
) -> TailSequence:
    """Tail omega_n = c_n (with c_0 = 1); deficit is the next preimage c_{N+1}."""
    _check_truncation(n_cap, tail_tol)
    values = [1.0, params.c]
    while values[-1] > tail_tol and len(values) - 1 < n_cap:
        values.append(_invert_branch(params, values[-1], values[-1], rel_tol))
    deficit = _invert_branch(params, values[-1], values[-1], rel_tol)
    return TailSequence(
        np.array(values),
        deficit=deficit,
        generator_tag=f"lsv(alpha={params.alpha!r},c={params.c!r})",
        cap_reached=values[-1] > tail_tol,
    )


# ---------------------------------------------------------------------------
# environments
# ---------------------------------------------------------------------------

class Environment:
    """Site-indexed family of tail sequences.

    Sites 0..x_max are materialized eagerly; a ``factory`` callable, when
    present, extends the family on demand (append-only, ascending order).
    Materialized sites are immutable and safe to share across readers.
    """

    def __init__(
        self,
        sites: Sequence[TailSequence],
        model: dict | None = None,
        factory: Callable[[int], TailSequence] | None = None,
    ):
        sites = list(sites)
        if not sites:
            raise ValidationError("environment needs at least one site")
        for s in sites:
            if not isinstance(s, TailSequence):
                raise ValidationError(f"not a TailSequence: {s!r}")
        self._sites = sites
        self.model = dict(model or {})
        self._factory = factory

    def __len__(self) -> int:
        return len(self._sites)

    @property
    def x_max(self) -> int:
        return len(self._sites) - 1

    def ensure(self, x_max: int) -> None:
        """Materialize sites through ``x_max`` using the factory."""
        if x_max <= self.x_max:
            return
        if self._factory is None:
            raise ValidationError(
                f"site {x_max} is beyond the materialized range 0..{self.x_max} "
                "and this environment has no generator"
            )
        for x in range(len(self._sites), x_max + 1):
            self._sites.append(self._factory(x))

    def site(self, x: int) -> TailSequence:
        if x < 0:
            raise ValidationError(f"site index must be non-negative, got {x}")
        if x > self.x_max:
            self.ensure(x)
        return self._sites[x]

    def sites(self) -> list[TailSequence]:
        return list(self._sites)


def _site_spec(spec, x: int):
    """Resolve a per-site parameter given as scalar, sequence, or callable."""
    if callable(spec):
        return spec(x)
    if isinstance(spec, (list, tuple, np.ndarray)):
        if x >= len(spec):
            raise ValidationError(
                f"per-site parameter sequence has length {len(spec)}, need site {x}"
            )
        return spec[x]
    return spec


def _build_env(builder, spec, x_max, model):
    def built(x: int) -> TailSequence:
        try:
            return builder(_site_spec(spec, x))
        except RootFindError as exc:
            raise RootFindError(f"site {x}: {exc}") from exc

    constant = not callable(spec) and not isinstance(spec, (list, tuple, np.ndarray))
    if constant:
        shared = built(0)
        sites = [shared] * (x_max + 1)
        factory = lambda x: shared  # noqa: E731
    else:
        sites = [built(x) for x in range(x_max + 1)]
        factory = built if callable(spec) else None
    model = dict(model)
    model["capped_sites"] = [x for x in range(x_max + 1) if sites[x].cap_reached]
    if constant and sites[0].cap_reached:
        model["capped_sites"] = "all"
    return Environment(sites, model=model, factory=factory)


def env_geometric(
    r,
    x_max: int,
    n_cap: int = DEFAULT_N_CAP,
    tail_tol: float = DEFAULT_TAIL_TOL,
) -> Environment:
    """Environment with geometric tails; ``r`` may vary per site."""
    _validate_x_max(x_max)
    model = {"family": "geometric", "r": _spec_descriptor(r),
             "x_max": x_max, "n_cap": n_cap, "tail_tol": tail_tol,
             "beta_diag": 3.0}
    return _build_env(lambda v: geometric_tail_sequence(v, n_cap, tail_tol), r, x_max, model)


def env_from_powerlaw(
    beta,
    x_max: int,
    n_cap: int = DEFAULT_N_CAP,
    tail_tol: float = DEFAULT_TAIL_TOL,
) -> Environment:
    """Environment with power-law tails; ``beta`` may vary per site."""
    _validate_x_max(x_max)
    model = {"family": "powerlaw", "beta": _spec_descriptor(beta),
             "x_max": x_max, "n_cap": n_cap, "tail_tol": tail_tol,
             "beta_diag": _spec_descriptor(beta)}
    return _build_env(lambda v: powerlaw_tail_sequence(v, n_cap, tail_tol), beta, x_max, model)


def env_from_lsv(
    site_params,
    x_max: int,
    n_cap: int = DEFAULT_N_CAP,
    tail_tol: float = DEFAULT_TAIL_TOL,
) -> Environment:
    """Environment whose site tails are backward orbits of the slow branch.

    ``site_params`` is an LsvParams, a sequence of them, or a callable
    site -> LsvParams.  Root-finder failures carry the site index.
    """
    _validate_x_max(x_max)
    if isinstance(site_params, LsvParams):
        beta_diag = 1.0 / site_params.alpha
        descriptor = {"alpha": site_params.alpha, "c": site_params.c,
                      "kappa": site_params.kappa}
    else:
        beta_diag = None
        descriptor = "per-site"
    model = {"family": "lsv", "params": descriptor, "x_max": x_max,
             "n_cap": n_cap, "tail_tol": tail_tol, "beta_diag": beta_diag}
    return _build_env(lambda p: lsv_tail_sequence(p, n_cap, tail_tol),
                      site_params, x_max, model)


def _validate_x_max(x_max: int) -> None:
    if x_max < 0:
        raise ValidationError(f"x_max must be >= 0, got {x_max}")


def _spec_descriptor(spec):
    if callable(spec):
        return "callable"
    if isinstance(spec, (list, tuple, np.ndarray)):
        return [float(v) for v in spec]
    return float(spec)


# ---------------------------------------------------------------------------
# diagnostics
# ---------------------------------------------------------------------------

def tail_mean_bound(site: TailSequence, beta: float) -> float:
    """Bound on the unstored part of sum(omega_n), extrapolating the tail at
    rate n**(-beta) through the deficit point."""
    if site.deficit == 0.0:
        return 0.0
    n_last = site.last_index
    return site.deficit * (n_last + 1.0) ** beta * n_last ** (1.0 - beta) / (beta - 1.0)


def tail_second_moment_bound(site: TailSequence, beta: float) -> float:
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


def diagnostics(env: Environment, beta) -> EnvDiagnostics:
    """Compute hypothesis diagnostics over every materialized site.

    ``beta`` is caller-supplied (scalar, per-site sequence, or callable); the
    library never infers it from data.  When the declared beta makes the
    variance tail bound infinite (beta <= 2 somewhere), ``variance_converged``
    is False and ``limits.fit_limit_params`` refuses to fit a variance.
    """
    xs = np.arange(len(env))
    betas = np.array([float(_site_spec(beta, int(x))) for x in xs])
    if np.any(betas <= 1.0):
        raise ValidationError("beta(x) must exceed 1 at every site")

    count = xs.size
    A = np.empty(count)
    A_prime = np.empty(count)
    K = np.empty(count)
    m = np.empty(count)
    m_tail = np.empty(count)
    m2 = np.empty(count)
    s2_tail = np.empty(count)
    A_flag = np.zeros(count, dtype=bool)
    Ap_flag = np.zeros(count, dtype=bool)
    capped = np.zeros(count, dtype=bool)

    for x in xs:
        site = env.site(int(x))
        b = betas[x]
        v = site.values
        n_last = site.last_index
        ext = site.extended()
        diffs = -np.diff(ext)  # P(tau = n), n = 1..N+1

        if n_last >= 1:
            n_idx = np.arange(1, n_last + 1, dtype=np.float64)
            sup_a = float(np.max(n_idx ** b * v[1:]))
        else:
            sup_a = 0.0
        A[x] = max(sup_a, 1.0)
        A_flag[x] = (n_last + 1.0) ** b * site.deficit > A[x]

        n_idx = np.arange(1, n_last + 2, dtype=np.float64)
        A_prime[x] = max(float(np.max(n_idx ** (b + 1.0) * diffs)), 1.0)
        Ap_flag[x] = (n_last + 2.0) ** (b + 1.0) * site.deficit > A_prime[x]

        if n_last >= 1 and diffs[1] > 0.0:
            high = float(np.max(diffs[2:] / diffs[1])) if n_last >= 2 else 0.0
            K[x] = high + diffs[1] / (1.0 - v[1])
        else:
            K[x] = math.nan

        m[x] = site.stored_mean()
        m_tail[x] = tail_mean_bound(site, b)
        m2[x] = site.stored_second_moment()
        s2_tail[x] = tail_second_moment_bound(site, b)
        capped[x] = site.cap_reached

    s2 = m2 - m**2
    mu = np.concatenate(([0.0], np.cumsum(m)))
    # The true per-site mean lies in [m, m + m_tail_bound]; the generalized
    # inverse M is taken on the upper end so analytic lattice crossings
    # (e.g. mu_x exactly integer) are not missed because of truncation.
    mu_upper = np.concatenate(([0.0], np.cumsum(m + m_tail)))
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
    """(mu_x, sigma_x^2): mean and variance of the hitting time of site x."""
    mu_x = 0.0
    var_x = 0.0
    for w in range(x):
        site = env.site(w)
        m_w = site.stored_mean()
        mu_x += m_w
        var_x += site.stored_second_moment() - m_w**2
    return mu_x, var_x


def window_fluctuation(env: Environment, x: int, u: float, mu: float) -> float:
    """Largest |sum over a window adjacent to x of (m_w - mu)| over window
    lengths |l| <= u * sqrt(x log x).

    Windows extend to the right ([x, x+l-1]) for l >= 0 and to the left
    ([x+l-1, x]) for l < 0, clipped at site 0.
    """
    if x < 2:
        raise ValidationError(f"x must be >= 2, got {x}")
    if u <= 0.0:
        raise ValidationError(f"u must be positive, got {u}")
    span = int(math.floor(u * math.sqrt(x * math.log(x))))
    w_lo = max(0, x - span - 1)
    w_hi = x + span - 1
    env.ensure(w_hi)
    centered = np.array(
        [env.site(w).stored_mean() - mu for w in range(w_lo, w_hi + 1)]
    )
    csum = np.concatenate(([0.0], np.cumsum(centered)))

    def window_sum(a: int, b: int) -> float:
        # inclusive site range [a, b] within [w_lo, w_hi]
        return csum[b - w_lo + 1] - csum[a - w_lo]

    best = 0.0
    for ell in range(1, span + 1):
        best = max(best, abs(window_sum(x, x + ell - 1)))
        best = max(best, abs(window_sum(max(0, x - ell - 1), x)))
    return best


# ---------------------------------------------------------------------------
# file format
# ---------------------------------------------------------------------------

def env_json_text(env: Environment) -> str:
    """Serialize to the environment file schema with full-precision decimals."""
    site_chunks = []
    for site in env.sites():
        omegas = ", ".join(format(v, ".17g") for v in site.values.tolist())
        site_chunks.append(
            '{"omega": [' + omegas + '], "deficit": ' + format(site.deficit, ".17g") + "}"
        )
    model = json.dumps(env.model, sort_keys=True)
    return '{"model": ' + model + ', "sites": [\n' + ",\n".join(site_chunks) + "\n]}\n"


def _refuse_overwrite(paths, force: bool) -> None:
    """Raise before anything is written if any target exists and ``force`` is off."""
    for path in paths:
        if os.path.exists(path) and not force:
            raise FileExistsError(f"refusing to overwrite {path}; pass force/--force")


def _write_text(path: str, text: str, force: bool) -> None:
    _refuse_overwrite([path], force)
    with open(path, "w") as fh:
        fh.write(text)


def write_env_file(env: Environment, path: str, force: bool = False) -> None:
    _write_text(path, env_json_text(env), force)


def load_env_file(path: str) -> Environment:
    """Read an environment file; the result has no generator for extension."""
    with open(path) as fh:
        try:
            payload = json.load(fh)
        except json.JSONDecodeError as exc:
            raise ValidationError(f"{path} is not valid JSON: {exc}") from exc
    if not isinstance(payload, dict) or "sites" not in payload:
        raise ValidationError(f"{path} is not an environment file")
    model = payload.get("model", {})
    if not isinstance(model, dict):
        raise ValidationError(f"{path} has a model entry that is not an object")
    tag = model.get("family", "file")
    try:
        sites = [
            TailSequence(np.asarray(entry["omega"], dtype=np.float64),
                         deficit=float(entry.get("deficit", 0.0)),
                         generator_tag=tag)
            for entry in payload["sites"]
        ]
    except (KeyError, TypeError, ValueError) as exc:
        raise ValidationError(f"{path} has a malformed site entry: {exc}") from exc
    return Environment(sites, model=model, factory=None)
