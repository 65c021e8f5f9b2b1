"""Quenched environments sampled from stationary mixing parameter processes.

A model draws one scalar parameter per site (a power-law exponent, a
geometric ratio, or the neutral-branch exponent alpha) from one of three
process kinds whose strong-mixing rates are known exactly by construction:

* ``iid``          -- independent sites (mixing coefficient 0 beyond lag 0),
* ``m-dependent``  -- a moving window over i.i.d. noise (0 beyond lag m),
* ``markov``       -- a strictly positive finite-state chain started from its
  stationary law (geometric rate).

Noise is keyed per site, so sampling is independent of materialization order
and extending the site range never disturbs earlier sites; every kind draws
the noise of a sampled range in one batch.
"""

from __future__ import annotations

import math
from bisect import bisect_right
from dataclasses import dataclass

import numpy as np

from .environment import (
    DEFAULT_N_CAP,
    DEFAULT_TAIL_TOL,
    Environment,
    LsvParams,
    _FAMILIES,
    _check_truncation,
    _check_x_max,
    _lsv_tails,
    diagnostics,  # unused here; wrapped by bench/spans.py by name
    geometric_tail_sequence,
    lsv_tail_sequence,  # unused here; wrapped by bench/spans.py by name
    powerlaw_tail_sequence,
)
from .errors import ValidationError
from .streams import _first_uniforms, stream  # stream: wrapped by bench/spans.py by name

__all__ = [
    "MarkovChainSpec",
    "RandomEnvModel",
    "QuenchedSample",
    "sample_environment",
]

_KINDS = ("iid", "m-dependent", "markov")

# parameter sanity windows per family: (low limit, high limit), both exclusive
_FAMILY_RANGE = {
    "powerlaw": (1.0, math.inf),
    "geometric": (0.0, 1.0),
    "lsv": (0.0, 0.5),
}


@dataclass(frozen=True, eq=False)
class MarkovChainSpec:
    """Strictly positive row-stochastic chain over scalar parameter states.

    Positivity makes the chain irreducible and aperiodic, so started from its
    stationary law it is a stationary process with a geometric mixing rate.
    """

    states: tuple
    transition: np.ndarray

    def __post_init__(self):
        states = tuple(float(s) for s in self.states)
        trans = np.asarray(self.transition, dtype=np.float64).copy()
        k = len(states)
        if k < 2:
            raise ValidationError("markov spec needs at least two states")
        if trans.shape != (k, k):
            raise ValidationError(f"transition must be {k}x{k}, got {trans.shape}")
        if np.any(trans <= 0.0):
            raise ValidationError("transition entries must be strictly positive")
        if not np.allclose(trans.sum(axis=1), 1.0, atol=1e-12):
            raise ValidationError("transition rows must sum to 1")
        trans.setflags(write=False)
        object.__setattr__(self, "states", states)
        object.__setattr__(self, "transition", trans)

    def stationary(self) -> np.ndarray:
        k = len(self.states)
        a = np.vstack([self.transition.T - np.eye(k), np.ones(k)])
        b = np.concatenate([np.zeros(k), [1.0]])
        pi, *_ = np.linalg.lstsq(a, b, rcond=None)
        return np.maximum(pi, 0.0) / pi.sum()

    def geometric_rate(self) -> float:
        """Second-largest modulus of the transition eigenvalues."""
        eigs = np.sort(np.abs(np.linalg.eigvals(self.transition)))
        return float(eigs[-2])


@dataclass(frozen=True, eq=False)
class RandomEnvModel:
    """Descriptor of a stationary parameter process over sites.

    The iid marginal is either uniform on [low, high] or uniform over
    ``choices``.  The m-dependent kind maps the mean of m+1 uniforms, which is
    Bates(m+1) distributed with variance 1/(12(m+1)), not uniform.
    ``window`` is the m-dependence width m (m-dependent kind only); ``chain``
    carries the Markov spec.  ``lsv_c`` fixes the branch cut point for the
    lsv family; ``beta_diag`` declares the diagnostic tail exponent for
    families that decay faster than any power law.
    """

    kind: str
    family: str
    seed: int
    low: float = math.nan
    high: float = math.nan
    choices: tuple | None = None
    window: int = 0
    chain: MarkovChainSpec | None = None
    lsv_c: float = 0.5
    beta_diag: float = 3.0

    def __post_init__(self):
        if isinstance(self.seed, bool) or not isinstance(self.seed, (int, np.integer)):
            raise ValidationError(f"seed must be an integer, got {self.seed!r}")
        if self.kind not in _KINDS:
            raise ValidationError(f"kind must be one of {_KINDS}, got {self.kind!r}")
        if self.family not in _FAMILIES:
            raise ValidationError(f"family must be one of {_FAMILIES}, got {self.family!r}")
        if self.kind == "markov":
            if self.chain is None:
                raise ValidationError("markov kind requires a chain spec")
            values = self.chain.states
        elif self.choices is not None:
            values = tuple(float(v) for v in self.choices)
            if len(values) < 1:
                raise ValidationError("choices must be non-empty")
            object.__setattr__(self, "choices", values)
        else:
            if not self.low < self.high:
                raise ValidationError(f"need low < high, got [{self.low}, {self.high}]")
            values = (self.low, self.high)
        lo_lim, hi_lim = _FAMILY_RANGE[self.family]
        if not all(lo_lim < v < hi_lim for v in values):  # NaN included
            raise ValidationError(
                f"{self.family} parameters must lie in ({lo_lim}, {hi_lim}), got {values}"
            )
        if self.window < 0:
            raise ValidationError("window must be >= 0")
        if self.kind != "m-dependent" and self.window != 0:
            raise ValidationError("window is only meaningful for the m-dependent kind")
        if self.family == "lsv" and not 0.0 < self.lsv_c < 1.0:
            raise ValidationError(f"lsv_c must lie in (0, 1), got {self.lsv_c}")
        if not 1.0 < self.beta_diag < math.inf:
            raise ValidationError(f"beta_diag must be finite and exceed 1, got {self.beta_diag}")

    @classmethod
    def from_descriptor(cls, d: dict) -> "RandomEnvModel":
        """The model whose ``descriptor()`` is ``d`` (``mixing`` is derived)."""
        chain = d.get("chain")
        return cls(kind=d["kind"], family=d["family"], seed=d["seed"], window=d["window"],
                   lsv_c=d["lsv_c"], beta_diag=d["beta_diag"], choices=d.get("choices"),
                   low=d.get("low", math.nan), high=d.get("high", math.nan),
                   chain=None if chain is None else MarkovChainSpec(chain["states"],
                                                                    chain["transition"]))

    def mixing_descriptor(self) -> dict:
        if self.kind == "iid":
            return {"type": "zero-beyond-lag", "lag": 0}
        if self.kind == "m-dependent":
            return {"type": "zero-beyond-lag", "lag": self.window}
        return {"type": "geometric", "rho": self.chain.geometric_rate()}

    def descriptor(self) -> dict:
        out = {
            "kind": self.kind,
            "family": self.family,
            "seed": self.seed,
            "window": self.window,
            "lsv_c": self.lsv_c,
            "beta_diag": self.beta_diag,
            "mixing": self.mixing_descriptor(),
        }
        if self.chain is not None:
            out["chain"] = {
                "states": list(self.chain.states),
                "transition": self.chain.transition.tolist(),
            }
        elif self.choices is not None:
            out["choices"] = list(self.choices)
        else:
            out["low"] = self.low
            out["high"] = self.high
        return out


@dataclass(frozen=True, eq=False)
class QuenchedSample:
    """A sampled environment and the parameters of its sites 0..x_max."""

    environment: Environment
    parameter_trace: np.ndarray


def sample_environment(
    model: RandomEnvModel,
    x_max: int,
    n_cap: int = DEFAULT_N_CAP,
    tail_tol: float = DEFAULT_TAIL_TOL,
) -> QuenchedSample:
    """Materialize sites 0..x_max from the model; bit-reproducible in the seed.

    One range function builds sites 0..x_max and is the factory.  It draws
    the noise of a range and its window in one call, forms the range's
    parameters, builds one tail per distinct value across ranges (a range's
    new lsv values in one ``_lsv_tails`` call) and records the range's
    ``beta_diag`` values, capped sites and ``x_max`` in the descriptor, so an
    extended environment equals, descriptor included, a larger sample.
    """
    _check_x_max(x_max)
    _check_truncation(n_cap, tail_tol)
    noise: list = []  # stream(seed, "env-noise", x).random() of sites x = 0, 1, ...
    tails: dict = {}  # parameter value -> its tail
    trace: list = []  # the parameters of sites 0..x_max
    descriptor = {"family": model.family, "random": model.descriptor(), "n_cap": n_cap,
                  "tail_tol": tail_tol, "beta_diag": [], "capped_sites": []}
    if model.kind == "markov":  # CDF rows: the stationary law's, then each state's
        spec = model.chain
        cdf = np.cumsum(np.vstack([spec.stationary(), spec.transition]), axis=1).tolist()
    row = 0  # the CDF row of the next site's law

    def grow(start: int, stop: int) -> list:
        nonlocal row
        n, m, r = stop - start, model.window, row
        noise.extend(_first_uniforms(model.seed, "env-noise", range(len(noise), stop + m)))
        if model.kind == "markov":
            state = []
            for u in noise[start:stop]:
                state.append(min(bisect_right(cdf[r], u), len(spec.states) - 1))
                r = 1 + state[-1]
            theta = [spec.states[i] for i in state]
        else:  # window means: arrays added in site order, as 3.11's float sum adds
            u = np.array(noise[start:stop + m])
            mean = sum(u[j:j + n] for j in range(m + 1)) / (m + 1)
            if model.choices is None:
                theta = (model.low + (model.high - model.low) * mean).tolist()
            else:
                k = len(model.choices)
                index = np.minimum((mean * k).astype(np.intp), k - 1)
                theta = [model.choices[i] for i in index.tolist()]
        new = [t for t in dict.fromkeys(theta) if t not in tails]
        if model.family == "lsv":
            params = [LsvParams.from_alpha_c(t, model.lsv_c) for t in new]
            tails.update(zip(new, _lsv_tails(params, n_cap, tail_tol) if new else []))
            beta = [1.0 / t for t in theta]
        else:
            tail = powerlaw_tail_sequence if model.family == "powerlaw" else geometric_tail_sequence
            tails.update((t, tail(t, n_cap, tail_tol)) for t in new)
            beta = theta if model.family == "powerlaw" else [model.beta_diag] * len(theta)
        sites = [tails[t] for t in theta]
        if start == 0:  # the first range
            trace.extend(theta)
        row = r  # as the descriptor, moved on only once the range is built
        descriptor["x_max"] = stop - 1
        descriptor["beta_diag"] += [float(b) for b in beta]
        descriptor["capped_sites"] += [x for x, s in enumerate(sites, start) if s.cap_reached]
        return sites

    env = Environment(grow(0, x_max + 1), model=descriptor, factory=grow)
    return QuenchedSample(environment=env, parameter_trace=np.array(trace))
