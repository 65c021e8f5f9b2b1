"""Guide-table lookups: Guide([values], lo, [hi]).rank(keys), with or
without an ``out`` buffer, must give np.searchsorted(values, keys,
side="right") clipped to [lo, hi] bit for bit, and the flat indices of the
clipped keys, with ties, with values and keys exactly on bucket edges j/m or
next to them.  A guide over several tables ranks each key in its own table,
as that table's own guide would.  Keys are doubles or raw uint64 Philox words
w, standing for the double (w >> 11) 2^-53 that Generator.random makes of
them."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import walklab as wl
from walklab.streams import _GUIDED_MIN_KEYS, Guide
from oracles import plain_rank

# every bucket edge j/m of a table of at most 2^10 buckets is some j/2^10
EDGES = np.arange(1025) / 1024.0
WORD_MAX = 2**64 - 1


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


def lookup_words(values, extra=()):
    """Raw words on every bucket edge of the guide over ``values`` and of any
    table of at most 2^10 buckets (w = j << (64 - k)), words whose double is
    each value, or the doubles on either side of it, and ``extra``; each with
    its neighbours w - 1, w + 1 and the last word of its double, shuffled."""
    k = values.size.bit_length() + 1
    base = [j << (64 - k) for j in range(1 << k)] + [j << 54 for j in range(1024)]
    for v in np.concatenate([values, np.asarray(extra, dtype=np.float64)]).tolist():
        top = int(v * 2.0**53)  # the double (top) 2^-53 is v when v is a multiple of 2^-53
        base += [(top + d) << 11 for d in (-1, 0, 1)]
    words = {w + d for w in base for d in (-1, 0, 1, 2**11 - 1)}
    words = np.array(sorted(w for w in words if 0 <= w <= WORD_MAX), dtype=np.uint64)
    assert words.size >= _GUIDED_MIN_KEYS
    return np.random.default_rng(0).permutation(words)


def searchsorted_ranks(values, keys, lo, hi):
    """The reference: searchsorted on each key's double, clipped to [lo, hi],
    and the flat indices of the clipped keys."""
    if keys.dtype == np.uint64:
        keys = (keys >> 11) * 2.0**-53
    ranks = np.searchsorted(values, keys, side="right")
    clipped = np.flatnonzero((ranks < lo) | (ranks > hi))
    return np.clip(ranks, lo, hi), clipped


def assert_ranks_match(values, keys, lo=0, hi=None):
    """rank(keys) and rank(keys, out=...) on batches above and below
    _GUIDED_MIN_KEYS: searchsorted's clipped ranks, in ``out`` itself, the
    clipped keys' flat indices, keys unchanged."""
    guide = Guide([values], lo=lo, hi=None if hi is None else [hi])
    hi = values.size if hi is None else hi
    for shaped in (keys, keys[: keys.size // 2 * 2].reshape(2, -1), keys[:7],
                   keys[: _GUIDED_MIN_KEYS - 1], keys[:_GUIDED_MIN_KEYS]):
        before = shaped.tobytes()
        want, want_clipped = searchsorted_ranks(values, shaped, lo, hi)
        got, clipped = guide.rank(shaped)
        assert got.dtype == want.dtype and got.shape == want.shape
        np.testing.assert_array_equal(got, want)
        np.testing.assert_array_equal(clipped, want_clipped)
        out = np.full(shaped.shape, -5, dtype=np.intp)
        got, clipped = guide.rank(shaped, out=out)
        assert got is out
        np.testing.assert_array_equal(out, want)
        np.testing.assert_array_equal(clipped, want_clipped)
        assert shaped.tobytes() == before


@st.composite
def sorted_values(draw, dtype):
    """Non-decreasing arrays in [0, 1]: arbitrary floats and dyadic j/2^k
    (on bucket edges), each repeated up to three times."""
    k = draw(st.integers(0, 9), label="k")
    value = st.one_of(st.floats(0.0, 1.0), st.integers(0, 2**k).map(lambda j: j / 2**k))
    items = draw(st.lists(st.tuples(value, st.integers(1, 3)), min_size=1, max_size=40),
                 label="items")
    values = np.repeat([v for v, _ in items], [r for _, r in items]).astype(dtype)
    return np.sort(values)


@pytest.mark.parametrize("dtype", [np.float64])
@settings(max_examples=150, deadline=None)
@given(data=st.data())
def test_rank_equals_searchsorted(dtype, data):
    values = data.draw(sorted_values(dtype), label="values")
    extra = data.draw(st.lists(st.floats(0.0, 1.0), max_size=20), label="extra")
    lo = data.draw(st.integers(0, values.size), label="lo")
    hi = data.draw(st.integers(lo, values.size), label="hi")
    assert_ranks_match(values, lookup_keys(values, extra), lo, hi)
    assert_ranks_match(values, lookup_words(values, extra), lo, hi)


@pytest.mark.parametrize("dtype", [np.float64])
@pytest.mark.parametrize("value", [0.0, 0.25, 0.3, 1.0 - 2.0**-53, 1.0])
def test_rank_on_one_atom(dtype, value):
    values = np.array([value], dtype=dtype)
    for lo, hi in [(0, None), (1, None), (0, 0), (1, 1)]:
        assert_ranks_match(values, lookup_keys(values), lo, hi)
        assert_ranks_match(values, lookup_words(values), lo, hi)


@pytest.mark.parametrize("dtype", [np.float64])
@pytest.mark.parametrize("env", [wl.env_geometric(0.5, 0, tail_tol=1e-14),
                                 wl.env_from_powerlaw(3.0, 0, tail_tol=1e-10),
                                 wl.Environment([wl.TailSequence([1.0, 0.6, 0.3], deficit=0.1)])],
                         ids=["geometric", "powerlaw", "lossy"])
def test_rank_on_simulator_tails(dtype, env):
    """The walks' sojourn CDF, clipped at N+1, and the extended map's
    ascending levels, clipped below at 1, on doubles and on raw words."""
    ext = env.tails[0].extended().astype(dtype)
    words = np.random.Philox(5).random_raw(1 << 14)
    uniforms = (words >> 11) * 2.0**-53
    for values, lo, hi in ((1.0 - ext, 0, ext.size - 1), (ext[::-1].copy(), 1, None)):
        assert_ranks_match(values, lookup_keys(values, uniforms), lo, hi)
        assert_ranks_match(values, np.concatenate([words, lookup_words(values)]), lo, hi)


def assert_tables_rank_each_key(tables, keys, lo, hi):
    """A guide over ``tables`` with key i in table tails[i] (a 1-D keys) or
    row i in table tails[i] (2-D): each key's own clipped searchsorted rank,
    the clipped keys' flat indices ascending, on batches above and below
    _GUIDED_MIN_KEYS, with or without ``out``."""
    guide = Guide(tables, lo=lo, hi=hi)
    tails = np.random.default_rng(1).integers(0, len(tables), keys.size)
    for shaped, of in ((keys, tails), (keys[:7], tails[:7]),
                       (keys[: _GUIDED_MIN_KEYS - 1], tails[: _GUIDED_MIN_KEYS - 1]),
                       (keys[: keys.size // 4 * 4].reshape(4, -1), tails[:4, None])):
        each = np.broadcast_to(of, shaped.shape)
        want = np.empty(shaped.shape, dtype=np.intp)
        clipped_at = np.zeros(shaped.shape, dtype=bool)
        for t, values in enumerate(tables):
            at = each == t
            want[at], clipped = searchsorted_ranks(values, shaped[at], lo, hi[t])
            clipped_at.flat[np.flatnonzero(at)[clipped]] = True
        for out in (None, np.full(shaped.shape, -5, dtype=np.intp)):
            got, clipped = guide.rank(shaped, of, out=out)
            assert out is None or got is out
            assert got.dtype == want.dtype and got.shape == want.shape
            np.testing.assert_array_equal(got, want)
            np.testing.assert_array_equal(clipped, np.flatnonzero(clipped_at))


@pytest.mark.parametrize("lo,hi", [(0, None), (1, [2, 1500]), (2, [3, 2156])])
def test_tables_rank_each_key_in_its_own(lo, hi):
    """Tables of 3 and 2156 values (a lossy tail and the beta = 3 power-law
    CDF), each with its own hi, on doubles and on raw words."""
    lossy = np.array([0.0, 0.4, 0.7])
    powerlaw = 1.0 - wl.env_from_powerlaw(3.0, 0, tail_tol=1e-10).tails[0].extended()
    tables = [lossy, powerlaw]
    assert powerlaw.size == 2156
    hi = [t.size for t in tables] if hi is None else hi
    words = np.random.Philox(7).random_raw(1 << 13)
    extra = np.concatenate(tables)
    keys = np.concatenate([lookup_keys(lossy, extra), (words >> 11) * 2.0**-53])
    assert_tables_rank_each_key(tables, np.random.default_rng(2).permutation(keys), lo, hi)
    raw = np.concatenate([words, lookup_words(lossy, extra), lookup_words(powerlaw)])
    assert_tables_rank_each_key(tables, np.random.default_rng(3).permutation(raw), lo, hi)


def test_tables_keep_their_own_guides_memory():
    tables = [np.array([0.0, 0.4, 0.7]), np.linspace(0.0, 1.0, 2156), np.array([0.5])]
    flat = Guide(tables)
    assert flat._table.size == sum(Guide([t])._table.size for t in tables)
    assert flat._table.size == sum((1 << (t.size.bit_length() + 1)) + 1 for t in tables)


def test_raw_words_at_the_extremes():
    """Words 0 and 2^64 - 1, every bucket edge j << (64 - k) of each table
    and the word below it, ranked on one table and on several, into a block
    of an int64 buffer reshaped as the sojourn method passes it and into
    a new array: the ranks and clipped keys of plain searchsorted."""
    lossy = np.array([0.0, 0.4, 0.7])
    powerlaw = 1.0 - wl.env_from_powerlaw(3.0, 0, tail_tol=1e-10).tails[0].extended()
    words = {0, WORD_MAX}
    for values in (lossy, powerlaw):
        k = values.size.bit_length() + 1
        words |= {w - d for w in (j << (64 - k) for j in range(1, 1 << k)) for d in (0, 1)}
    words = np.random.default_rng(4).permutation(np.array(sorted(words), dtype=np.uint64))
    buffer = np.empty(4 * words.size + 5, dtype=np.int64)
    for tables in ([lossy], [powerlaw], [lossy, powerlaw]):
        guide = Guide(tables, hi=[t.size - 1 for t in tables])
        block = np.stack([words] * len(tables))  # row t ranked in table t
        tails = np.arange(len(tables))[:, None] if len(tables) > 1 else 0
        want, want_clipped = plain_rank(guide, block, tails)
        for out in (None, buffer[: block.size].reshape(len(tables), -1)):
            got, clipped = guide.rank(block, tails, out=out)
            assert out is None or got is out
            assert got.dtype == want.dtype and got.shape == want.shape
            np.testing.assert_array_equal(got, want)
            np.testing.assert_array_equal(clipped, want_clipped)
        assert want_clipped.size > 0
