"""Limit-theorem predictions and quantitative error reports.

For an environment with average sojourn mean mu > 1 and average sojourn
variance sigma^2 > 0, the walk satisfies a law of large numbers
X_n / n -> 1/mu, a central limit theorem with variance parameter
sigma_tilde^2 = sigma^2 / mu^3, and a pointwise (local) approximation

    P(X_n = x)  ~=  mu^{-1} * sum_{l=1..n} h_l(x) * omega^x_{n-l},

where h_l is the N(M_l, l * sigma_tilde^2) density and M_l is the generalized
inverse of the cumulative mean hitting times.  This module evaluates those
predictions against the exact laws from ``walk`` and decomposes the hitting
side of the local error into three telescoping pieces, per (x, n):

    E1 = P(T_x = n) - f_x(n)          f_x = density of N(mu_x, sigma_x^2)
    E2 = f_x(n) - g_x(n)              g_x = density of N(mu_x, n sigma^2 / mu)
    E3 = g_x(n) - mu^{-1} h_n(x)

whose sum telescopes exactly to P(T_x = n) - mu^{-1} h_n(x).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .environment import EnvDiagnostics, Environment, cumulative_hitting_moments
from .errors import HypothesisError, NonConvergentVarianceError, ValidationError
from .walk import (
    DEFAULT_DEFICIT_BUDGET,
    DEFAULT_TRUNC_TOL,
    DiscreteDistribution,
    WalkSample,
    hitting_time_distribution,
    hitting_time_scan,  # unused here; wrapped by bench/spans.py by name
    position_distribution,
    position_scan,
)

__all__ = [
    "LimitParams",
    "LimitFit",
    "LltReport",
    "PredictorInterval",
    "CltReport",
    "SllnReport",
    "normal_density",
    "fit_limit_params",
    "llt_predictor",
    "llt_report",
    "llt_report_json",
    "clt_report",
    "slln_report",
    "kolmogorov_distance_to_normal",
]


def normal_density(mean, variance, z):
    """Density of N(mean, variance) at z (vectorized in any argument)."""
    two_var, scale = _normal_terms(variance)
    z = np.asarray(z, dtype=np.float64)
    out = np.exp(-((z - mean) ** 2) / two_var) / scale
    return float(out) if out.ndim == 0 else out


def _normal_terms(variance):
    """2 variance and sqrt(2 pi variance), the variance terms of a normal density."""
    variance = np.asarray(variance, dtype=np.float64)
    if np.any(variance <= 0.0):
        raise ValidationError("variance must be positive")
    return 2.0 * variance, np.sqrt(2.0 * math.pi * variance)


@dataclass(frozen=True)
class LimitParams:
    """Limit constants (mu, sigma^2) with the derived sigma_tilde^2 = sigma^2/mu^3."""

    mu: float
    sigma2: float
    source: str = "supplied"

    def __post_init__(self):
        if not 1.0 < self.mu < math.inf:
            raise HypothesisError(f"mu must be finite and exceed 1, got {self.mu}")
        if not 0.0 < self.sigma2 < math.inf:
            raise HypothesisError(f"sigma2 must be finite and positive, got {self.sigma2}")

    @property
    def sigma_tilde2(self) -> float:
        return self.sigma2 / self.mu**3


@dataclass(frozen=True, eq=False)
class LimitFit:
    """Fitted limit constants plus the residual curves behind them."""

    params: LimitParams
    x: np.ndarray
    theta1: np.ndarray
    theta2: np.ndarray
    scaled_theta1: np.ndarray
    scaled_theta2: np.ndarray


_MIN_FIT_SITES = 100


def fit_limit_params(diag: EnvDiagnostics) -> LimitFit:
    """Fit (mu, sigma^2) from the largest materialized prefix.

    mu_hat = mu_X / X and sigma2_hat = sigma2_X / X at the prefix end.  The
    residuals theta_i(x) (NaN at x = 0) and their scaled versions
    sqrt(log x) * theta_i(x) are returned for hypothesis inspection; this is
    the only place they are formed.  Environments whose declared beta makes
    the variance tail divergent are rejected with
    ``NonConvergentVarianceError`` instead of producing a variance fit.
    """
    count = diag.x.size
    if count < _MIN_FIT_SITES:
        raise ValidationError(f"need at least {_MIN_FIT_SITES} sites to fit, got {count}")
    if not diag.variance_converged:
        raise NonConvergentVarianceError(
            "per-site variance tail bound is divergent for the declared beta "
            f"(beta_star = {diag.beta_star}); no variance fit is emitted"
        )
    mu_hat = diag.mu[-1] / count
    sigma2_hat = diag.sigma2[-1] / count
    if mu_hat <= 1.0:
        raise HypothesisError(
            f"fitted mu = {mu_hat} is not > 1; environment is outside the "
            "ballistic hypothesis"
        )
    if sigma2_hat <= 0.0:
        raise HypothesisError(f"fitted sigma2 = {sigma2_hat} is not positive")
    params = LimitParams(mu=mu_hat, sigma2=sigma2_hat, source="fitted")
    theta1 = diag.mu[:-1] / np.maximum(diag.x, 1) - mu_hat
    theta2 = diag.sigma2[:-1] / np.maximum(diag.x, 1) - sigma2_hat
    theta1[0] = theta2[0] = math.nan
    scale = np.sqrt(np.log(np.maximum(diag.x, 1)))
    return LimitFit(params=params, x=diag.x, theta1=theta1, theta2=theta2,
                    scaled_theta1=scale * theta1, scaled_theta2=scale * theta2)


# ---------------------------------------------------------------------------
# local limit predictor
# ---------------------------------------------------------------------------

_PREDICTOR_CHUNK = 1 << 15  # most density terms the predictor forms at once
# e^-746 < 2^-1076 rounds to +0, which numpy's exp returns by a slow path
# (20-150 ns against about 1 ns per term): such terms are set to +0 instead.
_EXP_ZERO = -746.0


def _require_levels(diag: EnvDiagnostics, n: int) -> np.ndarray:
    if diag.M.size <= n:
        raise ValidationError(
            f"diagnostics cover M_n only up to n = {diag.M.size - 1}; "
            f"extend the environment prefix to reach n = {n}"
        )
    return diag.M


@dataclass(frozen=True, eq=False)
class PredictorInterval:
    """Pointwise prediction bracket [lo, hi] for P(X_n = x)."""

    n: int
    x: np.ndarray
    lo: np.ndarray
    hi: np.ndarray

    @property
    def mid(self) -> np.ndarray:
        return 0.5 * (self.lo + self.hi)

    @property
    def halfwidth(self) -> np.ndarray:
        return 0.5 * (self.hi - self.lo)


def llt_predictor(
    env: Environment,
    params: LimitParams,
    diag: EnvDiagnostics,
    n: int,
    x_values=None,
) -> PredictorInterval:
    """Evaluate mu^{-1} * sum_l h_l(x) * omega^x_{n-l} per site.

    Weights beyond a site's stored tail are only known to lie in [0, deficit],
    so the prediction is an interval: the low end drops those terms, the high
    end adds deficit times a closed-form bound on the density sum.
    """
    if n < 1:
        raise ValidationError(f"n must be >= 1, got {n}")
    M = _require_levels(diag, n)
    st2 = params.sigma_tilde2
    mu_inv = 1.0 / params.mu
    if x_values is None:
        x_values = np.arange(n + 1)
    x_values = np.asarray(x_values, dtype=np.int64)
    lo = np.empty(x_values.size)
    hi = np.empty(x_values.size)
    if x_values.size:  # refuse negative sites, materialize the largest
        env.site(int(x_values.min()))
        env.site(int(x_values.max()))
    # sum of h_l(x) over any l-range is at most 2 sqrt(n) / sqrt(2 pi st2)
    density_sum_bound = 2.0 * math.sqrt(n) / math.sqrt(2.0 * math.pi * st2)
    # the rows of each tail met, in ascending order
    of = env.tail_index[x_values]
    counts = np.bincount(of)
    keys = np.flatnonzero(counts)
    groups = np.split(np.argsort(of, kind="stable"), np.cumsum(counts[keys])[:-1])
    for k, idx in zip(keys.tolist(), groups):
        # everything but the density's centre x is a property of the tail
        site = env.tails[k]
        ells = np.arange(max(1, n - site.last_index), n + 1)
        two_var, scale = _normal_terms(ells * st2)
        neg_two_var = -two_var
        mean, weights = M[ells].astype(np.float64), site.values[n - ells]
        chunk = max(1, _PREDICTOR_CHUNK // ells.size)
        for start in range(0, idx.size, chunk):
            part = idx[start : start + chunk]
            # -((x - mean) ** 2) / two_var in place, M_l being integers; a
            # quotient rounds the same with the sign moved to the divisor
            z = x_values[part, None].astype(np.float64) - mean
            np.square(z, out=z)
            z /= neg_two_var
            h = np.exp(z, out=np.zeros_like(z), where=z >= _EXP_ZERO)
            h /= scale
            # vecdot takes BLAS ddot per contiguous row, as the 1-D row @ weights does
            lo[part] = mu_inv * np.vecdot(h, weights)
        hi[idx] = lo[idx]
        if n - site.last_index >= 2 and site.deficit > 0.0:
            hi[idx] += mu_inv * site.deficit * density_sum_bound
    return PredictorInterval(n=n, x=x_values, lo=lo, hi=hi)


def _decomposition_rows(params, diag, n, xs, p_hit):
    """E1, E2, E3 at time n for sites xs, from P(T_x = n) in p_hit; NaN at
    x = 0, where the hitting moments degenerate.  e1 + e2 + e3 telescopes to
    p_hit - mu^{-1} h_n(x) up to roundoff."""
    M = _require_levels(diag, n)
    xs = np.asarray(xs, dtype=np.int64)
    if int(xs.max()) >= diag.mu.size:
        raise ValidationError(
            f"diagnostics cover sites 0..{diag.mu.size - 2}; the decomposition "
            f"needs site {int(xs.max())}"
        )
    p_hit = np.asarray(p_hit, dtype=np.float64)
    e1, e2, e3 = (np.full(xs.size, math.nan) for _ in range(3))
    rows = np.flatnonzero(xs >= 1)
    x = xs[rows]
    mu_x, sig2_x = diag.mu[x], diag.sigma2[x]
    if np.any(sig2_x <= 0.0):
        bad = int(np.argmax(sig2_x <= 0.0))
        raise HypothesisError(f"sigma_x^2 = {sig2_x[bad]} at x = {x[bad]}; cannot standardize")
    f = normal_density(mu_x, sig2_x, float(n))
    g = normal_density(mu_x, n * params.sigma2 / params.mu, float(n))
    h = (1.0 / params.mu) * normal_density(float(M[n]), n * params.sigma_tilde2,
                                           x.astype(np.float64))
    e1[rows] = p_hit[rows] - f
    e2[rows] = f - g
    e3[rows] = g - h
    return e1, e2, e3


@dataclass(frozen=True, eq=False)
class LltReport:
    """Exact-versus-predicted position law at one time, with error split."""

    n: int
    x: np.ndarray
    exact: np.ndarray
    pred_lo: np.ndarray
    pred_hi: np.ndarray
    e1: np.ndarray
    e2: np.ndarray
    e3: np.ndarray
    sup_err_scaled: float
    max_halfwidth_scaled: float
    exact_deficit: float


def llt_report(
    env: Environment,
    params: LimitParams,
    diag: EnvDiagnostics,
    n: int,
    trunc_tol: float = DEFAULT_TRUNC_TOL,
    deficit_budget: float = DEFAULT_DEFICIT_BUDGET,
) -> LltReport:
    """Compare the exact law of X_n against the local predictor.

    ``sup_err_scaled`` is sqrt(n) * sup_x |exact - predictor midpoint| over the
    scanned sites; ``max_halfwidth_scaled`` reports the same scaling of the
    predictor interval half-width so acceptance thresholds can absorb it.
    """
    scan = position_scan(env, n, trunc_tol, deficit_budget)
    pred = llt_predictor(env, params, diag, n, x_values=scan.x)
    e1, e2, e3 = _decomposition_rows(params, diag, n, scan.x, scan.hitting_at_n)
    err = np.abs(scan.prob - pred.mid)
    return LltReport(
        n=n, x=scan.x, exact=scan.prob,
        pred_lo=pred.lo, pred_hi=pred.hi,
        e1=e1, e2=e2, e3=e3,
        sup_err_scaled=float(math.sqrt(n) * err.max()),
        max_halfwidth_scaled=float(math.sqrt(n) * pred.halfwidth.max()),
        exact_deficit=scan.deficit,
    )


def llt_report_json(report: LltReport) -> dict:
    """Report as a JSON-ready dict: {"n", "sup_err_scaled", "rows": [...]}."""
    def cell(v: float):
        return None if math.isnan(v) else v

    rows = [
        {"x": x, "exact": exact, "pred_lo": lo, "pred_hi": hi,
         "E1": cell(e1), "E2": cell(e2), "E3": cell(e3)}
        for x, exact, lo, hi, e1, e2, e3 in zip(*(column.tolist() for column in (
            report.x, report.exact, report.pred_lo, report.pred_hi, report.e1, report.e2, report.e3)))
    ]
    return {
        "n": report.n,
        "sup_err_scaled": report.sup_err_scaled,
        "max_halfwidth_scaled": report.max_halfwidth_scaled,
        "exact_deficit": report.exact_deficit,
        "rows": rows,
    }


# ---------------------------------------------------------------------------
# distributional distance reports
# ---------------------------------------------------------------------------

_SQRT1_2 = math.sqrt(0.5)


def _normal_cdf(z: np.ndarray) -> np.ndarray:
    """Phi(z) = erfc(-z / sqrt 2) / 2 element-wise, by the C library's erfc.

    Within 2.2e-16 (absolute) of the true value for every z, as accurate as
    scipy's ``ndtr``; it is 0 below z = -38.5, where Phi underflows.
    """
    w = (z * -_SQRT1_2).tolist()
    return 0.5 * np.fromiter(map(math.erfc, w), np.float64, len(w))


def kolmogorov_distance_to_normal(dist: DiscreteDistribution, center: float, scale: float) -> float:
    """Kolmogorov distance between the standardized law and N(0, 1).

    The discrete CDF is evaluated from both sides of every atom so the
    supremum over the step function is exact.
    """
    if scale <= 0.0:
        raise ValidationError(f"scale must be positive, got {scale}")
    z = (dist.support.astype(np.float64) - center) / scale
    phi = _normal_cdf(z)
    upper = np.cumsum(dist.probs)
    lower = upper - dist.probs
    return float(max(np.abs(upper - phi).max(), np.abs(lower - phi).max()))


@dataclass(frozen=True, eq=False)
class CltReport:
    """Kolmogorov distances of standardized position and hitting laws."""

    n: np.ndarray
    dist_position: np.ndarray
    hitting_x: np.ndarray
    dist_hitting: np.ndarray
    params: LimitParams


def clt_report(
    env: Environment,
    params: LimitParams,
    n_grid,
    trunc_tol: float = DEFAULT_TRUNC_TOL,
    deficit_budget: float = DEFAULT_DEFICIT_BUDGET,
) -> CltReport:
    """Distances to N(0,1) along a time grid.

    X_n is standardized by (n/mu, sqrt(n) sigma_tilde); the hitting time of
    x = round(n/mu) is standardized by its exact cumulative moments
    (mu_x, sigma_x), not by the limit constants.  Each hitting law is a
    product of powered sojourn laws (``hitting_time_distribution``).
    """
    n_grid = sorted(int(n) for n in n_grid)
    if not n_grid or n_grid[0] < 1:
        raise ValidationError("n_grid must contain positive times")
    st = math.sqrt(params.sigma_tilde2)
    hit_x = [max(1, round(n / params.mu)) for n in n_grid]
    pos_dist = []
    hit_dist = []
    for n, x in zip(n_grid, hit_x):
        dist = position_distribution(env, n, trunc_tol, deficit_budget)
        pos_dist.append(kolmogorov_distance_to_normal(dist, n / params.mu, math.sqrt(n) * st))
        mu_x, sig2_x = cumulative_hitting_moments(env, x)
        if sig2_x <= 0.0:
            raise HypothesisError(
                f"hitting variance is zero at x = {x}; standardization undefined"
            )
        hit_law = hitting_time_distribution(env, x, trunc_tol, deficit_budget)
        hit_dist.append(kolmogorov_distance_to_normal(hit_law, mu_x, math.sqrt(sig2_x)))
    return CltReport(
        n=np.array(n_grid), dist_position=np.array(pos_dist),
        hitting_x=np.array(hit_x), dist_hitting=np.array(hit_dist),
        params=params,
    )


@dataclass(frozen=True, eq=False)
class SllnReport:
    """Trajectory of X_n / n against the predicted speed 1/mu."""

    times: np.ndarray
    mean_ratio: np.ndarray
    frac_within: np.ndarray
    tol: float
    speed: float
    max_tail_deviation: float
    final_frac_within: float


def slln_report(
    env: Environment,
    params: LimitParams,
    sample: WalkSample,
    tol: float = 0.02,
) -> SllnReport:
    """Summarize simulated paths against the almost-sure speed 1/mu.

    ``frac_within`` is the fraction of paths with |X_t/t - 1/mu| < tol at each
    recorded time; ``max_tail_deviation`` is the largest deviation of the mean
    ratio over the last half of the horizon.
    """
    if not 0.0 < tol < math.inf:  # NaN included
        raise ValidationError(f"tol must be finite and > 0, got {tol}")
    if sample.x_at_times is None or sample.times is None:
        raise ValidationError("sample must be recorded at checkpoint times")
    if np.any(sample.times <= 0):
        raise ValidationError("checkpoint times must be positive for ratios")
    speed = 1.0 / params.mu
    ratios = sample.x_at_times / sample.times[None, :]
    mean_ratio = ratios.mean(axis=0)
    frac = (np.abs(ratios - speed) < tol).mean(axis=0)
    tail = sample.times >= sample.times[-1] * 0.5
    return SllnReport(
        times=sample.times, mean_ratio=mean_ratio, frac_within=frac,
        tol=tol, speed=speed,
        max_tail_deviation=float(np.abs(mean_ratio[tail] - speed).max()),
        final_frac_within=float(frac[-1]),
    )
