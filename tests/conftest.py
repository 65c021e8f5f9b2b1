import numpy as np
import pytest

import walklab as wl


@pytest.fixture(scope="session")
def geometric_env():
    """Constant geometric environment r = 1/2, tails stored to 1e-14."""
    return wl.env_geometric(0.5, 60, tail_tol=1e-14)


@pytest.fixture(scope="session")
def powerlaw_env():
    """Constant power-law environment beta = 3."""
    return wl.env_from_powerlaw(3.0, 60, tail_tol=1e-12)


@pytest.fixture(scope="session")
def lsv_env():
    """Constant neutral-branch environment alpha = 0.33, c = 1/2."""
    return wl.env_from_lsv(wl.LsvParams.from_alpha_c(0.33, 0.5), 30, tail_tol=1e-12)


@pytest.fixture(scope="session")
def exact_site():
    """The finite tail (1, 1/2, 1/4) with zero deficit: tau in {1, 2, 3}."""
    return wl.TailSequence(np.array([1.0, 0.5, 0.25]), deficit=0.0)


def bisect_root(fn, lo, hi, tol=1e-12):
    """Plain bisection oracle for increasing fn with fn(lo) < 0 < fn(hi)."""
    assert fn(lo) < 0 < fn(hi)
    while hi - lo > tol:
        mid = 0.5 * (lo + hi)
        if fn(mid) < 0:
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi)
