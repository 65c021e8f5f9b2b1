"""Deterministic, splittable RNG streams.

Every random quantity flows from a single 64-bit seed through counter-based
Philox streams keyed by (seed, component-name, index).  Streams for distinct
components or indices are independent, results are reproducible bit for bit,
and merges stay order-free: Monte Carlo paths are partitioned into fixed
chunks of size ``CHUNK`` and chunk ``i`` always consumes
``stream(seed, component, i)`` no matter how many chunks run or in what
order.  ``Guide`` turns uniforms, or the raw Philox words they come from,
into inverse-CDF indices.
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
    """Guide tables (Chen & Asau 1974) over ``tables``, each non-decreasing
    in [0, 1], for ranks ``np.searchsorted(tables[t], u, side="right")``
    clipped to [lo, hi[t]] (hi[t] defaults to tables[t].size), t being each
    key's table.  Table t starts at base_t of one flat array and has
    m_t = 2^k_t > 2 tables[t].size buckets: key u falls in base_t +
    floor(u m_t), exact in float64, and a raw Philox word in base_t plus its
    top k_t bits.  A bucket with no value strictly inside (j/m_t, (j+1)/m_t)
    stores the rank of all its keys if that lies in [lo, hi[t]], else -1; its
    keys (0.15-0.8% on the benchmark tails, plus the out-of-range ones) go to
    searchsorted, one call per table among them.  So the clipped keys, e.g.
    the walks' truncated draws or the map's points below the tail, come back
    as a list of indices, and no pass over the whole batch caps or flags them.
    """

    def __init__(self, tables: list, lo: int = 0, hi: list | None = None):
        self.values, self.lo = tables, lo
        self.hi = np.array([v.size for v in tables] if hi is None else hi, dtype=np.intp)
        k = np.array([v.size.bit_length() + 1 for v in tables])
        self._m = 1 << k
        self._shift = (64 - k).astype(np.uint64)  # a raw word's bucket is its top k bits
        parts = []
        for values, m, top in zip(tables, self._m.tolist(), self.hi.tolist()):
            scaled = values * m
            bucket = scaled.astype(np.intp)
            inside = np.bincount(bucket[scaled != bucket], minlength=m + 1) > 0
            table = np.cumsum(np.bincount(bucket, minlength=m + 1))
            parts.append(np.where(inside | (table < lo) | (table > top), -1, table))
        self._base = np.cumsum([0] + [part.size for part in parts[:-1]])
        self._table = np.concatenate(parts)

    def rank(self, keys: np.ndarray, tails=0, out: np.ndarray | None = None) -> tuple:
        """Ranks of ``keys`` (left unchanged) in their tables ``tails``, one
        int for all or an intp array that broadcasts to keys' shape, clipped
        to [lo, hi[t]], into the intp array ``out`` of keys' shape if given; and
        the flat indices, in ascending order, of the keys whose rank was
        clipped.  Keys are floats in [0, 1] or raw uint64 Philox words w,
        which stand for the uniform (w >> 11) 2^-53 of ``Generator.random``,
        their buckets shifted straight into the ranks; only the keys that go
        to searchsorted are converted."""
        ranks = np.empty(keys.shape, dtype=np.intp) if out is None else out
        raw = keys.dtype == np.uint64
        if keys.size < _GUIDED_MIN_KEYS:
            asked = np.arange(keys.size)
        else:
            if raw:  # floor(u m) of u = (w >> 11) 2^-53, in [0, m): as intp, the same bits
                np.right_shift(keys, self._shift[tails], out=ranks.view(np.uint64))
            else:  # the cast to intp truncates u m as astype does, into [0, m]
                np.multiply(keys, self._m[tails], out=ranks, casting="unsafe")
            if len(self.values) > 1:
                np.add(ranks, self._base[tails], out=ranks)
            self._table.take(ranks, out=ranks, mode="clip")
            asked = np.flatnonzero(ranks < 0)
        if not asked.size:
            return ranks, asked
        u = keys.flat[asked]
        if raw:
            u = (u >> 11) * 2.0**-53  # Generator.random's double
        if np.ndim(tails) == 0:
            found, hi = self.values[tails].searchsorted(u, side="right"), self.hi[tails]
        else:
            of = np.broadcast_to(tails, keys.shape).flat[asked]
            found, hi = np.empty_like(asked), self.hi[of]
            for t in np.unique(of).tolist():
                at = of == t
                found[at] = self.values[t].searchsorted(u[at], side="right")
        clipped = asked[(found < self.lo) | (found > hi)]
        np.maximum(found, self.lo, out=found)
        ranks.flat[asked] = np.minimum(found, hi, out=found)
        return ranks, clipped
