"""The ladder step, ``DiscreteDistribution.convolve``, behind both scans.

A ladder that may trim moves the leading atoms below ``walk._FLOOR`` of every
law into its deficit.  On a geometric environment, whose lower tail
P(T_x = x) = 2^-x turns subnormal past x = 1022, this must leave the position
rows and P(T_x = n) bit for bit as the floor-free step of
``test_ladder_step`` (``convolve_oracle``) forms them, store no atom below the
floor, and grow each deficit by no more than the floored atoms can hold.  The
position scan starts at its window x_lo from the product law of T_{x_lo} and
goes in blocks of sites, so its rows are checked against the floor-free
ladder started from that law within both deficits.
With ``trunc_tol = 0`` nothing is floored.  The FFT step's cached sojourn spectrum
must give the product a fresh transform gives.
"""

import numpy as np
import pytest
from test_ladder_step import canonical_oracle, convolve_oracle

import walklab as wl
from walklab import walk


def oracle_ladder(env, x_stop, trunc_tol, horizon, start=(0, [1.0])):
    """(offset, probs, deficit, beyond) of T_0..T_x_stop on a constant
    environment, each formed by the floor-free step; from the law ``start``
    (offset, probs, deficit, beyond) it yields x_stop steps past that law."""
    sojourn = wl.sojourn_pmf(env.site(0))
    factor = canonical_oracle(sojourn.offset, sojourn.probs, sojourn.deficit)
    law = canonical_oracle(*start)
    yield law
    for _ in range(x_stop):
        law = convolve_oracle(law, factor, trunc_tol, horizon)
        yield law


def oracle_row(env, n, law):
    """P(X_n = x) and P(T_x = n) from the law of T_x, as position_scan forms them."""
    offset, probs, _, _ = law
    site = env.site(0)
    rev = site.extended()[::-1].copy()
    j = rev.size - 1 - n
    end = offset + probs.size - 1
    k_lo, k_hi = max(offset, n - site.last_index - 1), min(n, end)
    row = 0.0
    if k_lo <= k_hi:
        row = float(probs[k_lo - offset : k_hi - offset + 1] @ rev[k_lo + j : k_hi + j + 1])
    return row, float(probs[n - offset]) if offset <= n <= end else 0.0


@pytest.fixture(scope="module")
def geometric():
    return wl.env_geometric(0.5, 3000, tail_tol=1e-14)


@pytest.mark.parametrize("trunc_tol", [1e-14, 1e-12])
@pytest.mark.parametrize("n", [1500, 3000])
def test_floored_scan_equals_floor_free_oracle(geometric, n, trunc_tol, monkeypatch):
    blocks = []
    baby_steps = walk._baby_steps

    def counted(sojourn, ext, size, *args):
        blocks.append(size)
        return baby_steps(sojourn, ext, size, *args)

    monkeypatch.setattr(walk, "_baby_steps", counted)
    scan = wl.position_scan(geometric, n, trunc_tol)
    laws = walk.hitting_time_scan(geometric, n, trunc_tol, horizon=n)
    floored = 0
    for x, expected in enumerate(oracle_ladder(geometric, n, trunc_tol, n)):
        _, law = next(laws)
        # the ladder's laws store no atom below the floor, and every atom
        # they dropped on the way (at most offset - x of them) held less
        assert law.probs.min() >= walk._FLOOR
        dropped = law.offset - x
        floored += dropped > 0
        assert expected[2] <= law.deficit <= expected[2] + dropped * walk._FLOOR
        if x == n or float(expected[1].sum()) < trunc_tol:
            break
    assert (floored > 0) == (x > 958)  # 2^-x is below the floor past x = 958
    x_lo = int(scan.x[0])
    assert x_lo > 0
    law = walk._power(geometric, x_lo, trunc_tol, n, walk._sojourn_cache(geometric))
    start = (law.offset, law.probs, law.deficit, law.beyond)
    rows, hits = [], []
    for x, expected in enumerate(oracle_ladder(geometric, n - x_lo, trunc_tol, n, start), x_lo):
        row, hit = oracle_row(geometric, n, expected)
        rows.append(row)
        hits.append(hit)
        if x == n or float(expected[1].sum()) < trunc_tol:
            break
    # the scan goes in blocks of one tail: its rows are the ladder's within
    # both deficits, and it makes fewer steps than rows
    slack = scan.deficit + max(0.0, 1.0 - float(np.sum(rows)))
    size = max(len(rows), scan.prob.size)

    def padded(values):
        return np.concatenate([values, np.zeros(size - len(values))])

    for got, want in ((scan.prob, rows), (scan.hitting_at_n, hits)):
        assert np.abs(padded(got) - padded(want)).max() <= slack
    assert len(blocks) == 1 and 1 < blocks[0] < scan.prob.size


def test_untrimmed_ladder_is_not_floored(geometric):
    # P(T_x = x) = 2^-x is subnormal past x = 1022, and stays stored
    n = 1150
    laws = walk.hitting_time_scan(geometric, n, 0.0, deficit_budget=1.0, horizon=n)
    subnormal = 0
    for (_, law), expected in zip(laws, oracle_ladder(geometric, n, 0.0, n)):
        offset, probs, deficit, beyond = expected
        assert (law.offset, law.deficit, law.beyond) == (offset, deficit, beyond)
        assert law.probs.tobytes() == probs.tobytes()
        subnormal += law.probs[0] < np.finfo(np.float64).tiny
    assert subnormal > 0


def test_cached_spectrum_gives_the_fresh_product(monkeypatch):
    # the full-law hitting scan on a power-law environment: FFT steps with
    # the whole sojourn law (2155 atoms) as one factor
    env = wl.env_from_powerlaw(3.0, 12, tail_tol=1e-10)
    inner, cached = walk._fft_product, []

    def fresh_check(a, b, keep, mass_a, mass_b, spectrum=None):
        stored = inner(a, b, keep, mass_a, mass_b, spectrum)
        if spectrum is not None:
            cached.append(walk._fft_length(a.size + b.size - 1))
            assert stored.tobytes() == inner(a, b, keep, mass_a, mass_b).tobytes()
        return stored

    monkeypatch.setattr(walk, "_fft_product", fresh_check)
    for _ in walk.hitting_time_scan(env, 12, 1e-12, deficit_budget=1.0):
        pass
    # steps of one transform length reuse the spectrum
    assert len(cached) >= 8 and len(set(cached)) < len(cached)
