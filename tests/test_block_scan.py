"""Position scans in blocks over each run of sites that share one tail.

With ``trunc_tol > 0`` ``position_scan`` walks a run of one tail in blocks
of B sites: one ladder step of B sojourns per block, and each row a dot
product of the block's first law with a table built once per run
(``walk._baby_steps``).  Its rows are not the site-by-site ladder's bit for
bit, so they must agree with that ladder (``position_scan_oracle``) within
the sum of both deficits, and rows plus deficit must hold unit mass.  On
runs too short for blocks, and with ``trunc_tol = 0``, the scan is that
ladder row for row.  A scan of R rows makes O(sqrt(R)) ladder steps.  A
block hands its rows over as arrays; they are the rows of the row-at-a-time
loop (``oracles.scan_rows_per_row``) bit for bit, except past a block that
reaches beyond the built sites: it ends at the last one, and the scan goes
site by site from there.
"""

import math

import numpy as np
import pytest
from oracles import scan_rows_per_row
from test_scan_tails import position_scan_oracle

import walklab as wl
from walklab import walk

TRUNC_TOL = 1e-14


def markov_geometric(x_max):
    # runs of one tail last 33 sites on average, so most end inside a block
    chain = wl.MarkovChainSpec(states=(0.3, 0.7), transition=[[0.97, 0.03], [0.03, 0.97]])
    model = wl.RandomEnvModel(kind="markov", family="geometric", seed=4, chain=chain)
    return wl.sample_environment(model, x_max, tail_tol=1e-14).environment


def two_point(x_max):
    model = wl.RandomEnvModel(kind="iid", family="geometric", seed=5, choices=(0.3, 0.7))
    return wl.sample_environment(model, x_max, tail_tol=1e-14).environment


@pytest.fixture()
def blocks(monkeypatch):
    """The tables each run builds, and the ladder steps that close a run
    inside a block (a factor P_r with 1 < r < B)."""
    seen = {"tables": [], "closed": 0}
    baby_steps, step = walk._baby_steps, wl.DiscreteDistribution.convolve

    def counted_tables(*args):
        tables = baby_steps(*args)
        seen["tables"].append(tables[0])
        return tables

    def counted_step(law, other, *args):
        for powers in seen["tables"]:
            seen["closed"] += any(other is p for p in powers[2:-1])
        return step(law, other, *args)

    monkeypatch.setattr(walk, "_baby_steps", counted_tables)
    monkeypatch.setattr(wl.DiscreteDistribution, "convolve", counted_step)
    return seen


def padded(values, x, size):
    out = np.zeros(size)
    out[x] = values
    return out


def assert_within_deficits(env, n):
    scan = wl.position_scan(env, n, TRUNC_TOL)
    prob, hit, deficit = position_scan_oracle(env, n, TRUNC_TOL)
    size = max(prob.size, int(scan.x[-1]) + 1)
    slack = scan.deficit + deficit
    oracle_x = np.arange(prob.size)
    assert np.abs(padded(scan.prob, scan.x, size) - padded(prob, oracle_x, size)).max() <= slack
    assert np.abs(padded(scan.hitting_at_n, scan.x, size)
                  - padded(hit, oracle_x, size)).max() <= slack
    assert float(scan.prob.sum()) + scan.deficit == pytest.approx(1.0, abs=1e-12)
    assert scan.deficit <= walk.DEFAULT_DEFICIT_BUDGET
    return scan


CASES = {
    "geometric-1000": (lambda: wl.env_geometric(0.5, 2500, tail_tol=1e-14), 1000),
    "geometric-4000": (lambda: wl.env_geometric(0.5, 2500, tail_tol=1e-14), 4000),
    "geometric-16000": (lambda: wl.env_geometric(0.5, 8600, tail_tol=1e-14), 16000),
    "powerlaw-400": (lambda: wl.env_from_powerlaw(3.0, 1300, tail_tol=1e-10), 400),
    "powerlaw-1000": (lambda: wl.env_from_powerlaw(3.0, 1300, tail_tol=1e-10), 1000),
    "markov": (lambda: markov_geometric(1500), 1500),
}


@pytest.mark.parametrize("case", list(CASES))
def test_block_rows_agree_with_the_ladder(case, blocks):
    build, n = CASES[case]
    env = build()
    assert_within_deficits(env, n)
    assert max(len(powers) - 1 for powers in blocks["tables"]) >= walk._MIN_BLOCK
    if case == "markov":
        assert blocks["closed"] > 0


GROWN = {  # environments that the scan builds on past the sites made up front
    "markov-700": (lambda: markov_geometric(700), 1500),
    "geometric-100": (lambda: wl.env_geometric(0.5, 100, tail_tol=1e-14), 4000),
}


@pytest.mark.parametrize("case", ["markov", "powerlaw-1000", "geometric-4000", *GROWN])
def test_block_rows_are_the_per_row_rows(case, blocks, monkeypatch):
    build, n = GROWN[case] if case in GROWN else CASES[case]
    env = build()
    scan = wl.position_scan(env, n, TRUNC_TOL)
    if case in GROWN:  # no site is built before its row
        assert len(env) <= scan.x[-1] + 1
    if case.startswith("markov"):
        assert blocks["closed"] > 0  # a run of one tail ends inside a block
    monkeypatch.setattr(walk, "_scan_rows", scan_rows_per_row)
    per_row = wl.position_scan(build(), n, TRUNC_TOL)
    assert scan.x.tobytes() == per_row.x.tobytes()
    if case == "markov-700":
        # a block ends at the last built site and the ladder forms the rows
        # after it, where the per-row loop reads the block's table: the rows
        # agree within both deficits
        slack = scan.deficit + per_row.deficit
        assert np.abs(scan.prob - per_row.prob).max() <= slack
        assert np.abs(scan.hitting_at_n - per_row.hitting_at_n).max() <= slack
        return
    assert scan.prob.tobytes() == per_row.prob.tobytes()
    assert scan.hitting_at_n.tobytes() == per_row.hitting_at_n.tobytes()
    assert scan.deficit == per_row.deficit


def test_short_runs_scan_site_by_site(blocks):
    # no run of one tail below site 320 holds 16 sites: no blocks, the ladder's rows
    env = two_point(320)
    prob, hit, deficit = position_scan_oracle(env, 400, 1e-12)
    scan = wl.position_scan(env, 400, 1e-12)
    assert scan.x[0] == 0
    assert scan.prob.tobytes() == prob.tobytes()
    assert scan.hitting_at_n.tobytes() == hit.tobytes()
    assert scan.deficit == deficit
    assert blocks["tables"] == []


def test_untrimmed_scan_is_the_ladder(blocks):
    env = wl.env_geometric(0.5, 2500, tail_tol=1e-14)
    prob, hit, deficit = position_scan_oracle(env, 1000, 0.0)
    scan = wl.position_scan(env, 1000, 0.0)
    assert scan.prob.tobytes() == prob.tobytes()
    assert scan.hitting_at_n.tobytes() == hit.tobytes()
    assert scan.deficit == deficit
    assert blocks["tables"] == []


def test_block_scan_makes_sqrt_steps(monkeypatch):
    # every product of the scan, its window attempt and its tables included
    env = wl.env_from_powerlaw(3.0, 1300, tail_tol=1e-10)
    steps = []
    step = wl.DiscreteDistribution.convolve

    def counted(*args):
        steps.append(1)
        return step(*args)

    monkeypatch.setattr(wl.DiscreteDistribution, "convolve", counted)
    n = 1000
    scan = wl.position_scan(env, n, TRUNC_TOL)
    rows = scan.prob.size
    assert rows > 900
    assert len(steps) <= 4 * math.sqrt(rows) + 2 * math.log2(n)
