"""One step of the convolution ladder.

The direct step must reproduce, bit for bit, the earlier ``__post_init__`` and
``convolve`` kept below as oracles.  The FFT step must store certified lower
bounds: every atom at most the true atom and at least the true atom minus
twice the roundoff bound eps, checked against 50-digit ``mpmath`` sums.
"""

import math

import mpmath
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from oracles import cdf_at

import walklab as wl
from walklab import walk
from walklab.errors import ValidationError

# ---------------------------------------------------------------------------
# the earlier step, kept as an oracle
# ---------------------------------------------------------------------------


def canonical_oracle(offset, probs, deficit=0.0, beyond=0.0):
    """(offset, probs, deficit, beyond) as the earlier __post_init__ stored them."""
    arr = np.asarray(probs, dtype=np.float64).copy()
    if arr.ndim != 1 or arr.size == 0:
        raise ValidationError("probs must be a non-empty 1-D array")
    if np.any(arr < 0.0):
        raise ValidationError("probabilities must be non-negative")
    beyond = float(beyond)
    if beyond < 0.0:
        raise ValidationError(f"beyond must be non-negative, got {beyond}")
    nz = np.flatnonzero(arr)
    if nz.size == 0:
        if beyond == 0.0:
            raise ValidationError("distribution has no positive atom")
        nz = np.zeros(1, dtype=np.intp)
    first, last = int(nz[0]), int(nz[-1])
    offset = int(offset) + first
    arr = arr[first : last + 1]
    deficit = float(deficit)
    if deficit < -1e-12:
        raise ValidationError(f"deficit must be non-negative, got {deficit}")
    deficit = max(deficit, 0.0)
    total = float(arr.sum()) + beyond + deficit
    if not abs(total - 1.0) <= 1e-9:  # a NaN total is refused
        raise ValidationError(f"mass + beyond + deficit = {total!r}")
    return offset, arr, deficit, beyond


def convolve_oracle(left, right, trunc_tol=0.0, horizon=None):
    """The earlier convolve, on two canonical (offset, probs, deficit, beyond)."""
    off_a, a, def_a, bey_a = left
    off_b, b, def_b, bey_b = right
    offset = off_a + off_b
    beyond = bey_a * (float(b.sum()) + bey_b) + float(a.sum()) * bey_b
    if horizon is None:
        probs = np.convolve(a, b)
    else:
        keep = horizon - offset + 1
        if keep > 0:
            probs = np.convolve(a[:keep], b[:keep])[:keep]
        else:
            probs = np.zeros(1)
        start = min(max(keep - b.size, 0), a.size)
        rest = np.append(np.cumsum(b[::-1])[::-1], 0.0)
        lags = np.maximum(keep - np.arange(start, a.size), 0)
        beyond += float(a[start:] @ rest[lags])
    deficit = def_a + def_b - def_a * def_b
    if trunc_tol > beyond and probs.size > 1:
        rev = np.cumsum(probs[::-1])
        cut = int(np.searchsorted(rev, trunc_tol - beyond, side="right"))
        cut = min(cut, probs.size - 1)
        if cut > 0:
            deficit += float(rev[cut - 1])
            probs = probs[:-cut]
    return canonical_oracle(offset, probs, deficit, beyond)


def assert_same(dist, oracle):
    offset, probs, deficit, beyond = oracle
    assert dist.offset == offset
    assert dist.probs.tobytes() == probs.tobytes()
    assert (dist.deficit, dist.beyond) == (deficit, beyond)
    assert dist.mass() == float(probs.sum()) == cdf_at(dist, dist.end)


def shaped_atoms(rng, shape, size):
    if shape == "uniform":
        return rng.random(size)
    if shape == "decay":
        return 0.8 ** np.arange(size) * (0.5 + rng.random(size))
    # a few large atoms among tiny ones and exact zeros
    spikes = np.where(rng.random(size) < 0.2, rng.random(size), 1e-12 * rng.random(size))
    spikes[rng.random(size) < 0.2] = 0.0
    spikes[rng.integers(size)] = 1.0
    return spikes


@st.composite
def raw_laws(draw, max_atoms=60):
    """(offset, probs, deficit, beyond) that pass the mass check: zero runs at
    either end, interior zeros, and sometimes an all-zero block whose mass is
    all beyond."""
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1), label="seed"))
    size = draw(st.integers(1, max_atoms), label="size")
    deficit = draw(st.sampled_from([0.0, 1e-15, 1e-10, 1e-7]), label="deficit")
    shape = draw(st.sampled_from(["uniform", "decay", "spiky", "beyond only"]), label="shape")
    if shape == "beyond only":
        return draw(st.integers(0, 5)), np.zeros(size), deficit, 1.0 - deficit
    atoms = shaped_atoms(rng, shape, size)
    lead, trail = draw(st.integers(0, 4), label="lead"), draw(st.integers(0, 4), label="trail")
    beyond = draw(st.sampled_from([0.0, 0.25, 1e-9]), label="beyond")
    probs = np.concatenate((np.zeros(lead), atoms, np.zeros(trail)))
    probs *= (1.0 - deficit - beyond) / probs.sum()
    return draw(st.integers(0, 5), label="offset"), probs, deficit, beyond


@settings(max_examples=200, deadline=None)
@given(raw=raw_laws())
def test_canonical_form_matches_earlier_step(raw):
    assert_same(wl.DiscreteDistribution(*raw), canonical_oracle(*raw))


@pytest.mark.parametrize("raw", [
    (0, [0.5, -0.1, 0.6], 0.0, 0.0),
    (0, [0.0, 0.0], 0.0, 0.0),
    (0, [0.5, 0.4], 0.0, 0.0),
    (0, [0.5, 0.5], 0.0, -0.1),
    (0, [0.5, 0.5], -1e-9, 0.0),
    (0, [], 0.0, 0.0),
    (0, [[0.5, 0.5]], 0.0, 0.0),
    (0, [0.5, math.nan, 0.5], 0.0, 0.0),
    (0, [0.5, 0.5], math.nan, 0.0),
    (0, [0.5, 0.5], 0.0, math.nan),
])
def test_invalid_laws_refused_as_before(raw):
    with pytest.raises(ValidationError):
        canonical_oracle(*raw)
    with pytest.raises(ValidationError):
        wl.DiscreteDistribution(*raw)


@settings(max_examples=200, deadline=None)
@given(left=raw_laws(), right=raw_laws(),
       trunc_tol=st.sampled_from([0.0, 1e-13, 1e-9, 1e-3, 0.3]),
       horizon=st.none() | st.integers(0, 150))
def test_direct_step_matches_earlier_step(left, right, trunc_tol, horizon):
    # a short ladder: the right factor is reused, as a sojourn law is
    dist, sojourn = wl.DiscreteDistribution(*left), wl.DiscreteDistribution(*right)
    expected, factor = canonical_oracle(*left), canonical_oracle(*right)
    for _ in range(3):
        dist = dist.convolve(sojourn, trunc_tol, horizon)
        expected = convolve_oracle(expected, factor, trunc_tol, horizon)
        assert_same(dist, expected)


def large_law(seed, size, shape="decay", beyond=0.0):
    rng = np.random.default_rng(seed)
    atoms = shaped_atoms(rng, shape, size)
    if shape == "decay":  # a slow decay, so that no trim reaches far
        atoms = (np.arange(size) + 1.0) ** -1.5 * (0.5 + rng.random(size))
    return wl.DiscreteDistribution(int(rng.integers(0, 4)), atoms * (1.0 - beyond) / atoms.sum(),
                                   beyond=beyond)


@pytest.mark.parametrize("horizon", [None, 350])
@pytest.mark.parametrize("trunc_tol", [1e-12, 1e-6, 1e-2, 0.5])
def test_long_trims_match_earlier_step(trunc_tol, horizon):
    # slowly decaying laws: a trim runs over many more than the last 64 atoms
    left, right = large_law(11, 300), large_law(12, 200, beyond=1e-3)
    step = left.convolve(right, trunc_tol, horizon)
    assert_same(step, convolve_oracle(canonical_oracle(left.offset, left.probs),
                                      canonical_oracle(right.offset, right.probs, 0.0, 1e-3),
                                      trunc_tol, horizon))


@pytest.fixture
def fft_calls(monkeypatch):
    """Records the factor sizes of every FFT product convolve forms."""
    calls = []
    inner = walk._fft_product

    def spy(a, b, *args):
        calls.append((a.size, b.size))
        return inner(a, b, *args)

    monkeypatch.setattr(walk, "_fft_product", spy)
    return calls


@pytest.mark.parametrize("horizon", [None, 900])
@pytest.mark.parametrize("seed", [1, 2])
def test_untrimmed_ladder_stays_direct_on_large_factors(fft_calls, seed, horizon):
    left, right = large_law(seed, 1200, "uniform"), large_law(seed + 10, 900, "spiky", 0.25)
    assert_same(left.convolve(right, 0.0, horizon),
                convolve_oracle(canonical_oracle(left.offset, left.probs, 0.0, 0.0),
                                canonical_oracle(right.offset, right.probs, 0.0, 0.25),
                                0.0, horizon))
    assert fft_calls == []


@pytest.mark.parametrize("sizes", [(499, 5000), (5000, 499), (700, 700), (60, 20000)])
def test_small_products_stay_direct(fft_calls, sizes):
    left, right = large_law(3, sizes[0]), large_law(4, sizes[1])
    left.convolve(right, 1e-12)
    left.convolve(right, 1e-12, horizon=sum(sizes))
    assert fft_calls == []


def test_products_past_the_threshold_use_the_fft(fft_calls):
    side = math.isqrt(walk._FFT_MIN_MACS - 1) + 1
    left, right = large_law(5, side), large_law(6, side)
    assert left.probs.size == right.probs.size == side
    left.convolve(right, 1e-12)
    assert fft_calls == [(side, side)]


# ---------------------------------------------------------------------------
# the certified FFT product against mpmath
# ---------------------------------------------------------------------------


def eps_bound(a, b, mass_a, mass_b):
    """The documented roundoff bound of _fft_product, from 50-digit norms."""
    m = walk._fft_length(a.size + b.size - 1)
    with mpmath.workdps(50):
        norm_a = float(mpmath.sqrt(mpmath.fsum(mpmath.mpf(float(v)) ** 2 for v in a)))
        norm_b = float(mpmath.sqrt(mpmath.fsum(mpmath.mpf(float(v)) ** 2 for v in b)))
    t = math.ceil(math.log2(m))
    return (8.0 * 2.0**-53 * t * (2.0 * norm_a * norm_b + min(mass_a * norm_b, norm_a * mass_b))
            + m * np.finfo(np.float64).tiny)


def exact_atoms(a, b, ks):
    """sum_i a_i b_{k-i} for each k in ks, in 50-digit arithmetic."""
    with mpmath.workdps(50):
        fa = [mpmath.mpf(float(v)) for v in a]
        fb = [mpmath.mpf(float(v)) for v in b]
        out = []
        for k in ks:
            lo, hi = max(0, k - b.size + 1), min(k, a.size - 1)
            out.append(mpmath.fdot(zip(fa[lo : hi + 1], fb[k - hi : k - lo + 1][::-1])))
    return out


def assert_certified(stored, true, eps):
    """0 <= true - stored <= 2 eps, compared exactly (mpf holds every float)."""
    assert np.all(stored >= 0.0)
    with mpmath.workdps(50):
        for s, c in zip(stored.tolist(), true):
            gap = c - mpmath.mpf(s)
            assert gap >= 0, f"stored {s!r} exceeds the true atom {c}"
            assert gap <= 2 * eps, f"stored {s!r} is {gap} below the true atom, eps = {eps}"


def operand(kind, rng, size):
    if kind == "random":
        v = rng.random(size)
    elif kind == "spiky":
        v = shaped_atoms(rng, "spiky", size)
    elif kind == "heavy":  # power-law tail, beta = 2.5
        v = (np.arange(size) + 1.0) ** -3.5
    elif kind == "tiny":  # every atom near the underflow threshold
        return 1e-300 * (0.5 + rng.random(size))
    else:  # "tiny tail": a geometric law running into subnormal atoms
        v = 0.5 ** np.arange(size, dtype=np.float64) * 2.0 ** (-1000 * np.arange(size) // size)
    return v / v.sum()


@pytest.mark.parametrize("kinds", [("random", "random"), ("spiky", "heavy"),
                                   ("heavy", "heavy"), ("tiny", "random"),
                                   ("random", "tiny tail"), ("spiky", "spiky")])
def test_fft_atoms_are_certified_lower_bounds(kinds):
    rng = np.random.default_rng(sum(map(len, kinds)))
    a, b = operand(kinds[0], rng, 230), operand(kinds[1], rng, 170)
    mass_a, mass_b = float(a.sum()), float(b.sum())
    keep = a.size + b.size - 1
    stored = walk._fft_product(a, b, keep, mass_a, mass_b)
    assert stored.size == keep
    assert_certified(stored, exact_atoms(a, b, range(keep)), eps_bound(a, b, mass_a, mass_b))
    # a clipped product keeps the first atoms of the same bounds
    np.testing.assert_array_equal(walk._fft_product(a, b, 100, mass_a, mass_b), stored[:100])


@pytest.mark.parametrize("horizon", [None, 1400])
def test_fft_step_books_its_loss_in_deficit(fft_calls, horizon):
    left = large_law(7, 1000, "spiky", beyond=1e-3)
    right = wl.sojourn_pmf(wl.powerlaw_tail_sequence(3.0, tail_tol=1e-10))
    assert right.probs.size > 800 and right.deficit > 0.0
    step = left.convolve(right, 1e-12, horizon)
    assert len(fft_calls) == 1
    # mass + beyond + deficit = 1 by construction, not just within 1e-9
    assert abs(step.mass() + step.beyond + step.deficit - 1.0) <= 1e-14
    # beyond is formed as before; the deficit holds the inputs' and the FFT's loss
    direct = convolve_oracle(canonical_oracle(left.offset, left.probs, 0.0, 1e-3),
                             canonical_oracle(right.offset, right.probs, right.deficit),
                             0.0, horizon)
    assert step.beyond == direct[3]
    assert step.deficit >= right.deficit
    a, b = left.probs, right.probs
    if horizon is not None:
        keep = horizon - left.offset - right.offset + 1
        a, b = a[:keep], b[:keep]
    eps = eps_bound(a, b, left.mass(), right.mass())
    ks = np.unique(np.concatenate(([0, step.probs.size - 1],
                                   np.random.default_rng(8).integers(0, step.probs.size, 40))))
    shift = step.offset - left.offset - right.offset
    assert_certified(step.probs[ks], exact_atoms(a, b, (ks + shift).tolist()), eps)
