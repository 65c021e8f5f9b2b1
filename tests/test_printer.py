"""Float cells and files of values keep their bytes: a CSV float cell is
format(x, ".17g") on arbitrary float64 values, on powers of ten and their
neighbours (where the decimal exponent is easiest to misjudge) and on exact
17-digit ties (where format rounds half to even), and a file of values is
written value by value."""

import decimal
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import walklab as wl
from walklab import cli

POWERS = 10.0 ** np.arange(-325, 309)


def joined(values) -> str:
    return ", ".join(format(x, ".17g") for x in np.asarray(values, dtype=np.float64).tolist())


def assert_prints(values):
    values = np.asarray(values, dtype=np.float64)
    assert ", ".join(cli._cells(values)) == joined(values)


def ties(draw_k, draw_m):
    """x = m / 2**k whose decimal expansion has 18 significant digits, the last
    a 5: exactly halfway between two 17-digit decimals."""
    k = draw_k
    lo, hi = -(-10**17 // 5**k), (10**18 - 1) // 5**k
    hi = min(hi, 2**53 - 1)
    m = lo + draw_m % (hi - lo + 1)
    m |= 1  # odd, so m * 5**k ends in 5
    if m > hi:
        m -= 2
    return m / 2**k


finite = st.floats(allow_nan=False, allow_infinity=False, allow_subnormal=True, width=64)


@settings(max_examples=300, deadline=None)
@given(st.lists(finite, max_size=40))
def test_arbitrary_finite_floats(xs):
    assert_prints(xs)


@settings(max_examples=150, deadline=None)
@given(st.lists(st.integers(0, POWERS.size - 1), min_size=1, max_size=20),
       st.lists(st.sampled_from([-1.0, 1.0]), min_size=20, max_size=20))
def test_powers_of_ten_and_their_neighbours(picks, signs):
    p = POWERS[picks] * np.array(signs[: len(picks)])
    assert_prints(np.concatenate([p, np.nextafter(p, 0.0), np.nextafter(p, np.copysign(np.inf, p))]))


@settings(max_examples=150, deadline=None)
@given(st.lists(st.tuples(st.integers(2, 23), st.integers(0, 2**64)), min_size=1, max_size=20))
def test_exact_17_digit_ties(draws):
    xs = np.array([ties(k, m) for k, m in draws])
    for x in xs.tolist():
        digits = decimal.Decimal(x).normalize().as_tuple().digits
        assert len(digits) == 18 and digits[-1] == 5  # really a tie
    assert_prints(np.concatenate([xs, -xs]))


@settings(max_examples=150, deadline=None)
@given(st.lists(st.tuples(st.floats(0, 1e6, allow_nan=False), st.integers(0, 16)), max_size=30))
def test_short_decimals(draws):
    assert_prints([round(x, d) for x, d in draws])


def test_every_power_of_ten_and_neighbour():
    values = np.concatenate([POWERS, np.nextafter(POWERS, 0.0), np.nextafter(POWERS, np.inf)])
    assert_prints(values)
    assert_prints(-values)


def test_dense_random_blocks():
    rng = np.random.default_rng(17)
    bits = rng.integers(0, 2**64, 30000, dtype=np.uint64, endpoint=False)
    values = bits.view(np.float64)
    assert_prints(values[np.isfinite(values)])
    assert_prints(rng.random(30000))  # the range of tail values


def old_env_json_text(env) -> str:
    """The per-value writer, kept as the oracle."""
    import json
    pieces = ['{"model": ' + json.dumps(env.model, sort_keys=True) + ', "sites": [\n']
    _, first = np.unique(env.tail_index, return_index=True)
    for x, k in enumerate(env.tail_index.tolist()):
        if x:
            pieces.append(",\n")
        if first[k] < x:
            pieces.append(str(first[k]))
            continue
        site = env.tails[k]
        omegas = ", ".join(format(v, ".17g") for v in site.values.tolist())
        pieces.append('{"omega": [' + omegas + '], "deficit": ' + format(site.deficit, ".17g") + "}")
    pieces.append("\n]}\n")
    return "".join(pieces)


@pytest.mark.parametrize("build", [
    lambda: wl.env_geometric(0.5, 40, tail_tol=1e-14),
    lambda: wl.env_from_powerlaw(2.5, 10, tail_tol=1e-6),
    lambda: wl.env_from_lsv(wl.LsvParams.from_alpha_c(0.33, 0.5), 5, tail_tol=1e-6),
    lambda: wl.sample_environment(wl.RandomEnvModel(
        kind="m-dependent", family="powerlaw", seed=2, low=2.5, high=3.5, window=3),
        60, tail_tol=1e-7).environment,
    lambda: wl.sample_environment(wl.RandomEnvModel(
        kind="iid", family="lsv", seed=4, low=0.3, high=0.4), 30, tail_tol=1e-6).environment,
    lambda: wl.Environment([wl.TailSequence([1.0, 0.5, 0.25], deficit=0.0)] * 3),
], ids=["geometric", "powerlaw", "lsv", "mdep", "iid-lsv", "zero-deficit"])
def test_env_json_text_matches_per_value_writer(build):
    env = build()
    assert wl.env_json_text(env) == old_env_json_text(env)


@settings(max_examples=100, deadline=None)
@given(st.lists(st.one_of(finite, st.just(math.nan)), max_size=30))
def test_csv_float_column_matches_cell_by_cell(xs):
    cells = ["" if math.isnan(x) else format(x, ".17g") for x in xs]
    assert cli._cells(np.array(xs, dtype=np.float64)) == cells


def test_csv_integer_and_object_columns_keep_str():
    assert cli._cells(np.array([0, 7, -3, 2**40])) == ["0", "7", "-3", str(2**40)]
    assert cli._cells([1, None, 2]) == ["1", "", "2"]
    assert cli._cells(np.empty(0)) == []


def nan_with_payload(payload: int) -> float:
    return float(np.array([0x7FF8000000000000 | payload], dtype=np.int64).view(np.float64)[0])


@pytest.mark.parametrize("xs", [
    [0.0, -0.0, 0.0, -0.0, -0.0, 0.0],
    [nan_with_payload(1), math.nan, nan_with_payload(12345), 1.0, nan_with_payload(1)],
    [math.inf, -math.inf, 1.0, math.inf, -math.inf],
    [5e-324, -5e-324, 5e-324, 1e308, -1e308, 1e308, 1.7976931348623157e308],
    [0.1] * 1000,
    [0.1] * 500 + [-0.0] + [0.1] * 499,
    [2.5],
    [-0.0],
    [],
], ids=["signed-zeros", "nan-payloads", "infinities", "extremes", "one-value-1000-times",
        "one-value-and-a-zero", "one-element", "negative-zero", "empty"])
def test_csv_float_cells_keep_their_bytes_on_awkward_columns(xs):
    column = np.array(xs, dtype=np.float64)
    want = ["" if math.isnan(x) else format(x, ".17g") for x in column.tolist()]
    assert cli._cells(column) == want
