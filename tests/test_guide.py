"""Guide-table lookups: Guide(values).rank(keys), with or without an ``out``
buffer, must equal np.searchsorted(values, keys, side="right") bit for bit,
with ties, with values and keys exactly on bucket edges j/m or next to them, in
float64 and in long double."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import walklab as wl
from walklab.streams import _GUIDED_MIN_KEYS, Guide

# every bucket edge j/m of a table of at most 2^10 buckets is some j/2^10
EDGES = np.arange(1025) / 1024.0


def lookup_keys(values, extra=()):
    """Keys in [0, 1] on every value and every edge, their neighbours on both
    sides, and ``extra``, in values' dtype and in shuffled order."""
    dtype = values.dtype.type
    zero, one = dtype(0.0), dtype(1.0)
    points = np.concatenate([values, EDGES.astype(dtype), np.asarray(extra, dtype=dtype)])
    keys = np.concatenate([points, np.nextafter(points, zero), np.nextafter(points, one),
                           [zero, one]])
    assert keys.size >= _GUIDED_MIN_KEYS  # the table itself answers, not only searchsorted
    return np.random.default_rng(0).permutation(keys)


def assert_ranks_match(values, keys):
    """rank(keys) and rank(keys, out=...) on batches above and below
    _GUIDED_MIN_KEYS: searchsorted's ranks, in ``out`` itself, keys unchanged."""
    guide = Guide(values)
    for shaped in (keys, keys[: keys.size // 2 * 2].reshape(2, -1), keys[:7],
                   keys[: _GUIDED_MIN_KEYS - 1], keys[:_GUIDED_MIN_KEYS]):
        before = shaped.tobytes()
        got = guide.rank(shaped)
        want = np.searchsorted(values, shaped, side="right")
        assert got.dtype == want.dtype and got.shape == want.shape
        np.testing.assert_array_equal(got, want)
        out = np.full(shaped.shape, -5, dtype=np.intp)
        assert guide.rank(shaped, out=out) is out
        np.testing.assert_array_equal(out, want)
        assert shaped.tobytes() == before


@st.composite
def sorted_values(draw, dtype):
    """Non-decreasing arrays in [0, 1]: arbitrary floats and dyadic j/2^k
    (on bucket edges), each repeated up to three times; in long double, some
    are moved by 2^-60, between two float64 numbers."""
    k = draw(st.integers(0, 9), label="k")
    value = st.one_of(st.floats(0.0, 1.0), st.integers(0, 2**k).map(lambda j: j / 2**k))
    items = draw(st.lists(st.tuples(value, st.integers(1, 3)), min_size=1, max_size=40),
                 label="items")
    values = np.repeat([v for v, _ in items], [r for _, r in items]).astype(dtype)
    if dtype is np.longdouble:
        shift = draw(st.lists(st.sampled_from([-1, 0, 1]), min_size=values.size,
                              max_size=values.size), label="shift")
        values = np.clip(values + np.array(shift, dtype=dtype) * dtype(2.0) ** -60, 0.0, 1.0)
    return np.sort(values)


@pytest.mark.parametrize("dtype", [np.float64, np.longdouble])
@settings(max_examples=150, deadline=None)
@given(data=st.data())
def test_rank_equals_searchsorted(dtype, data):
    values = data.draw(sorted_values(dtype), label="values")
    extra = data.draw(st.lists(st.floats(0.0, 1.0), max_size=20), label="extra")
    assert_ranks_match(values, lookup_keys(values, extra))


@pytest.mark.parametrize("dtype", [np.float64, np.longdouble])
@pytest.mark.parametrize("value", [0.0, 0.25, 0.3, 1.0 - 2.0**-53, 1.0])
def test_rank_on_one_atom(dtype, value):
    values = np.array([value], dtype=dtype)
    assert_ranks_match(values, lookup_keys(values))


@pytest.mark.parametrize("dtype", [np.float64, np.longdouble])
@pytest.mark.parametrize("env", [wl.env_geometric(0.5, 0, tail_tol=1e-14),
                                 wl.env_from_powerlaw(3.0, 0, tail_tol=1e-10)],
                         ids=["geometric", "powerlaw"])
def test_rank_on_simulator_tails(dtype, env):
    """The walks' sojourn CDF and the extended map's ascending levels."""
    ext = env.tails[0].extended().astype(dtype)
    uniforms = np.random.default_rng(5).random(1 << 14)
    for values in (1.0 - ext, ext[::-1].copy()):
        assert_ranks_match(values, lookup_keys(values, uniforms))
