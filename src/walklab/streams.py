"""Deterministic, splittable RNG streams.

Every random quantity flows from a single 64-bit seed through counter-based
Philox streams keyed by (seed, component-name, index).  Streams for distinct
components or indices are independent, results are reproducible bit for bit,
and merges stay order-free: Monte Carlo paths are partitioned into fixed
chunks of size ``CHUNK`` and chunk ``i`` always consumes
``stream(seed, component, i)`` no matter how many chunks run or in what
order.  ``Guide`` turns uniforms into inverse-CDF indices.
"""

from __future__ import annotations

import hashlib

import numpy as np

from .errors import ValidationError

CHUNK = 1 << 14
# below this many keys searchsorted beats the guide's fixed numpy calls
# (crossover 512-1024 keys on 49- to 2745-value CDFs, 2-vCPU Xeon, numpy 2.4)
_GUIDED_MIN_KEYS = 1024


def stream(seed: int, component: str, index: int = 0) -> np.random.Generator:
    """Independent generator for (seed, component, index)."""
    if not 0 <= int(seed) < 2**64:
        raise ValidationError(f"seed must be a 64-bit unsigned integer, got {seed}")
    digest = hashlib.blake2b(f"{component}:{index}".encode(), digest_size=8).digest()
    key = np.array([int(seed), int.from_bytes(digest, "little")], dtype=np.uint64)
    return np.random.Generator(np.random.Philox(key=key))


def _first_uniforms(seed: int, component: str, indices) -> list[float]:
    """``[stream(seed, component, i).random() for i in indices]`` bit for bit.
    One Philox is re-keyed per index, its counter at 0 and its buffer empty
    as in a new one, so no index pays for the seed entropy ``Philox(key=)``
    draws and ignores."""
    bitgen = stream(seed, component).bit_generator  # stream checks the seed
    state = bitgen.state
    out = []
    for i in indices:
        digest = hashlib.blake2b(f"{component}:{i}".encode(), digest_size=8).digest()
        state["state"]["key"] = np.array([int(seed), int.from_bytes(digest, "little")],
                                         dtype=np.uint64)
        bitgen.state = state
        out.append((bitgen.random_raw() >> 11) * 2.0**-53)  # Generator.random's double
    return out


class Guide:
    """Guide table (Chen & Asau 1974) over ``values``, non-decreasing in
    [0, 1]: ``rank(keys)`` is ``np.searchsorted(values, keys, side="right")``
    for keys in [0, 1], bit for bit.  Key u falls in bucket floor(u m) of
    m = 2^k > 2 values.size; u m and the edges j/m are exact in float64.  A
    bucket with no value strictly inside (j/m, (j+1)/m) stores #{v < (j+1)/m},
    the rank of all its keys; the others store -1, and their keys (0.15-0.8%
    on the benchmark tails) go to searchsorted.
    """

    def __init__(self, values: np.ndarray):
        self.values = values
        m = self._m = 2 << values.size.bit_length()
        scaled = values * m
        bucket = scaled.astype(np.intp)
        inside = np.bincount(bucket[scaled != bucket], minlength=m + 1) > 0
        self._table = np.where(inside, -1, np.cumsum(np.bincount(bucket, minlength=m + 1)))

    def rank(self, keys: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
        """Ranks of ``keys`` (left unchanged), into the intp array ``out`` of
        their shape if given."""
        ranks = np.empty(keys.shape, dtype=np.intp) if out is None else out
        if keys.size < _GUIDED_MIN_KEYS:
            ranks[...] = self.values.searchsorted(keys, side="right")
            return ranks
        # the cast to intp truncates u m as astype does; every bucket is in [0, m]
        np.multiply(keys, self._m, out=ranks, casting="unsafe")
        self._table.take(ranks, out=ranks, mode="clip")
        ambiguous = np.flatnonzero(ranks < 0)
        if ambiguous.size:
            ranks.flat[ambiguous] = self.values.searchsorted(keys.flat[ambiguous], side="right")
        return ranks
