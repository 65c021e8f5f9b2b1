"""The ladder scans build each tail's terms once.

``hitting_time_scan`` and ``position_scan`` keep the sojourn laws and reversed
tails of the tails they met last.  They must reproduce, bit for bit, the
earlier loops kept below as oracles, which rebuilt a tail's terms every time
the tail changed from one site to the next.
"""

import numpy as np
import pytest

import walklab as wl
from walklab import walk

# ---------------------------------------------------------------------------
# the earlier scans, kept as oracles
# ---------------------------------------------------------------------------


def hitting_scan_oracle(env, x_stop, trunc_tol, horizon=None):
    dist = wl.DiscreteDistribution.point_mass(0)
    yield 0, dist
    tail = -1
    for x in range(1, x_stop + 1):
        site = env.site(x - 1)
        if env.tail_index[x - 1] != tail:
            tail, sojourn = env.tail_index[x - 1], walk.sojourn_pmf(site)
        dist = dist.convolve(sojourn, trunc_tol, horizon)
        yield x, dist


def position_scan_oracle(env, n, trunc_tol):
    rows, hit = [], []
    tail = -1
    for x, dist in hitting_scan_oracle(env, n, trunc_tol, horizon=n):
        site = env.site(x)
        if env.tail_index[x] != tail:
            tail, rev = env.tail_index[x], site.extended()[::-1].copy()
            j = rev.size - 1 - n
        k_lo = max(dist.offset, n - site.last_index - 1)
        k_hi = min(n, dist.end)
        if k_lo > k_hi:
            rows.append(0.0)
        else:
            probs = dist.probs[k_lo - dist.offset : k_hi - dist.offset + 1]
            rows.append(float(probs @ rev[k_lo + j : k_hi + j + 1]))
        hit.append(dist.prob_at(n))
        if x == n or dist.cdf_at(n) < trunc_tol:
            break
    prob = np.array(rows)
    return prob, np.array(hit), max(0.0, 1.0 - float(prob.sum()))


def law_bytes(dist):
    return dist.offset, dist.probs.tobytes(), dist.deficit, dist.beyond


@pytest.fixture()
def builds(monkeypatch):
    """Count the sojourn laws and reversed tails the scans build."""
    count = {"sojourn": 0, "reversed": 0}
    sojourn_pmf, reversed_tail = walk.sojourn_pmf, walk._reversed_tail

    def counted_sojourn(site):
        count["sojourn"] += 1
        return sojourn_pmf(site)

    def counted_reversed(site):
        count["reversed"] += 1
        return reversed_tail(site)

    monkeypatch.setattr(walk, "sojourn_pmf", counted_sojourn)
    monkeypatch.setattr(walk, "_reversed_tail", counted_reversed)
    return count


def alternating_env(choices, x_max, seed=7):
    model = wl.RandomEnvModel(kind="iid", family="powerlaw", seed=seed, choices=choices)
    return wl.sample_environment(model, x_max, tail_tol=1e-10).environment


def distinct(env, stop):
    return np.unique(env.tail_index[:stop]).size


@pytest.mark.parametrize("trunc_tol", [0.0, 1e-12])
def test_position_scan_builds_each_tail_once(trunc_tol, builds):
    env = alternating_env((2.5, 3.5), 420)
    n = 400
    prob, hit, deficit = position_scan_oracle(env, n, trunc_tol)
    builds.update(sojourn=0, reversed=0)
    scan = wl.position_scan(env, n, trunc_tol)
    assert scan.prob.tobytes() == prob.tobytes()
    assert scan.hitting_at_n.tobytes() == hit.tobytes()
    assert scan.deficit == deficit
    # the tail changes from one site to the next at about half the sites
    assert np.count_nonzero(np.diff(env.tail_index[: prob.size])) > 50
    assert builds["sojourn"] == distinct(env, prob.size - 1) == 2
    assert builds["reversed"] == distinct(env, prob.size) == 2


def test_hitting_scan_builds_each_tail_once(builds):
    env = alternating_env((2.5, 3.0, 4.0), 200, seed=3)
    want = [law_bytes(d) for _, d in hitting_scan_oracle(env, 150, 1e-12, horizon=300)]
    builds.update(sojourn=0, reversed=0)
    got = [law_bytes(d) for _, d in walk.hitting_time_scan(env, 150, 1e-12, horizon=300)]
    assert got == want
    assert builds["sojourn"] == distinct(env, 150) == 3


def test_bounded_table_drops_least_recently_used(builds, monkeypatch):
    # a table too small for both tails rebuilds them, with the same rows
    env = alternating_env((2.5, 3.5), 220)
    prob, hit, _ = position_scan_oracle(env, 200, 1e-12)
    monkeypatch.setattr(walk, "_RECENT_TAILS", 1)
    builds.update(sojourn=0, reversed=0)
    scan = wl.position_scan(env, 200, 1e-12)
    assert scan.prob.tobytes() == prob.tobytes()
    assert scan.hitting_at_n.tobytes() == hit.tobytes()
    assert builds["sojourn"] > 2 and builds["reversed"] > 2


def test_many_distinct_tails_each_built_once(builds):
    # every site its own tail, as in a file of a continuous parameter range
    model = wl.RandomEnvModel(kind="iid", family="powerlaw", seed=2, low=2.5, high=3.5)
    env = wl.sample_environment(model, 120, tail_tol=1e-9).environment
    prob, hit, _ = position_scan_oracle(env, 100, 1e-12)
    builds.update(sojourn=0, reversed=0)
    scan = wl.position_scan(env, 100, 1e-12)
    assert scan.prob.tobytes() == prob.tobytes()
    assert scan.hitting_at_n.tobytes() == hit.tobytes()
    assert builds["sojourn"] == distinct(env, prob.size - 1) == prob.size - 1
    assert builds["reversed"] == prob.size
