"""Hitting laws as powered sojourn products, and position scans that start at
the window.

T_x is a sum of independent sojourns, so ``walk._power`` forms its law as the
product of each distinct tail's sojourn law powered to its site count.
``hitting_time_distribution`` returns that product, and with ``trunc_tol > 0``
``position_scan`` starts its ladder from it at x_lo, the first site that can
hold more than ``trunc_tol``.  The site-by-site ladder is the oracle: the two
laws must agree atom by atom within the sum of their deficits.  With
``trunc_tol = 0`` every product is direct, so they differ by roundoff only: by
1e-15 per atom and in the deficit, and by x ulps of 1 in ``beyond``, a sum
near 1 that each of x ladder steps rounds.  ``clt_report`` takes its hitting
laws from products.
"""

import numpy as np
import pytest
from test_scan_tails import position_scan_oracle

import walklab as wl
from walklab import limits, walk

TRUNC_TOL = 1e-12


def two_point():
    model = wl.RandomEnvModel(kind="iid", family="geometric", seed=5, choices=(0.3, 0.7))
    return wl.sample_environment(model, 320, tail_tol=1e-14).environment


def quenched_lsv():
    model = wl.RandomEnvModel(kind="iid", family="lsv", seed=3, choices=(0.2, 0.33))
    return wl.sample_environment(model, 320, tail_tol=1e-8).environment


ENVIRONMENTS = {
    "geometric": lambda: wl.env_geometric(0.5, 320, tail_tol=1e-14),
    "powerlaw": lambda: wl.env_from_powerlaw(3.0, 320, tail_tol=1e-10),
    "two-point": two_point,
    "lsv": quenched_lsv,
}


def atoms(law, lo, hi):
    out = np.zeros(hi - lo + 1)
    out[law.offset - lo : law.end - lo + 1] = law.probs
    return out


@pytest.mark.parametrize("name, horizon, trunc_tol", [
    pytest.param(name, horizon, trunc_tol,
                 id=f"{name}-{horizon}" + ("" if trunc_tol else "-direct"))
    for trunc_tol in (TRUNC_TOL, 0.0) for horizon in (None, 400) for name in ENVIRONMENTS])
def test_product_agrees_with_ladder(name, horizon, trunc_tol):
    env = ENVIRONMENTS[name]()
    ladder = [law for _, law in walk.hitting_time_scan(env, 300, trunc_tol, 1.0, horizon)]
    for x in (1, 37, 300):
        law = ladder[x]
        if horizon is None:
            product = wl.hitting_time_distribution(env, x, trunc_tol, deficit_budget=1.0)
        else:
            product = walk._power(env, x, trunc_tol, horizon, walk._sojourn_cache(env))
        assert product.mass() + product.beyond + product.deficit == pytest.approx(1.0, abs=1e-12)
        slack = law.deficit + product.deficit if trunc_tol else 1e-15
        if not trunc_tol:
            assert abs(law.deficit - product.deficit) <= slack
        lo, hi = min(law.offset, product.offset), max(law.end, product.end)
        assert np.abs(atoms(law, lo, hi) - atoms(product, lo, hi)).max() <= slack, (name, x)
        assert abs(law.beyond - product.beyond) <= max(slack, x * 2.0**-52)


def test_geometric_scan_starts_at_the_window():
    env = wl.env_geometric(0.5, 2500, tail_tol=1e-14)
    n, trunc_tol = 4000, 1e-14
    scan = wl.position_scan(env, n, trunc_tol)
    full, _, _ = position_scan_oracle(env, n, trunc_tol)
    x_lo = int(scan.x[0])
    assert x_lo > 0
    assert full[:x_lo].sum() <= trunc_tol
    # rows past either scan's last site read 0
    new, old = np.zeros((2, max(full.size, int(scan.x[-1]) + 1)))
    new[scan.x] = scan.prob
    old[: full.size] = full
    assert np.abs(new - old)[x_lo:].max() <= scan.deficit
    # the first rows are 0 when the law of T_x holds no atom near n
    law = wl.position_distribution(env, n, trunc_tol)
    assert law.offset >= x_lo and law.probs.tobytes() == scan.prob[law.offset - x_lo :].tobytes()


def test_failed_window_falls_back_to_the_full_ladder(monkeypatch):
    # on a power-law environment P(T_x > n) at mu_x + 9 sigma_x = n exceeds
    # trunc_tol; the scan then runs from 0, in blocks of one tail
    env = wl.env_from_powerlaw(3.0, 1300, tail_tol=1e-10)
    prob, hit, deficit = position_scan_oracle(env, 1000, 1e-14)
    sizes = []
    baby_steps = walk._baby_steps

    def counted(sojourn, ext, size, *args):
        sizes.append(size)
        return baby_steps(sojourn, ext, size, *args)

    monkeypatch.setattr(walk, "_baby_steps", counted)
    scan = wl.position_scan(env, 1000, 1e-14)
    assert scan.x[0] == 0
    assert sizes and min(sizes) > 1
    slack = scan.deficit + deficit
    rows, hits = np.zeros((2, max(prob.size, scan.prob.size)))
    rows[: scan.prob.size], hits[: scan.prob.size] = scan.prob, scan.hitting_at_n
    assert np.abs(rows[: prob.size] - prob).max() <= slack
    assert np.abs(hits[: hit.size] - hit).max() <= slack
    assert rows[prob.size :].sum() <= slack


@pytest.mark.parametrize("x_max, grown", [(100, 2244), (2500, 2501)])
def test_window_grows_no_site(x_max, grown):
    # the window is chosen among materialized sites; the scan grows the
    # environment only to its own last site, as the full ladder does
    env = wl.env_geometric(0.5, x_max, tail_tol=1e-14)
    scan = wl.position_scan(env, 4000, 1e-14)
    assert scan.x[0] > 0
    assert len(env) == grown


def test_clt_report_takes_hitting_laws_from_products(monkeypatch):
    env = wl.env_geometric(0.5, 400, tail_tol=1e-14)
    params = wl.LimitParams(mu=2.0, sigma2=2.0)
    scan = walk.hitting_time_scan
    # one ladder per position law; the hitting laws are products
    for trunc_tol in (walk.DEFAULT_TRUNC_TOL, 0.0):
        scans = []

        def counted(*args, **kwargs):
            scans.append(args[1])
            return scan(*args, **kwargs)

        monkeypatch.setattr(walk, "hitting_time_scan", counted)
        monkeypatch.setattr(limits, "hitting_time_scan", counted)
        report = limits.clt_report(env, params, [100, 200, 400], trunc_tol=trunc_tol)
        monkeypatch.undo()
        assert sorted(scans) == [100, 200, 400]
        for x, distance in zip(report.hitting_x, report.dist_hitting):
            law = wl.hitting_time_distribution(env, int(x), trunc_tol)
            mu_x, sig2_x = wl.cumulative_hitting_moments(env, int(x))
            assert distance == limits.kolmogorov_distance_to_normal(law, mu_x, np.sqrt(sig2_x))
