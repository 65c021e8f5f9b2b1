"""The batched first uniforms of many streams equal each stream's own first
draw bit for bit, and refuse the seeds that ``stream`` refuses."""

import numpy as np
import pytest

from walklab.errors import ValidationError
from walklab.streams import _first_uniforms, stream


@pytest.mark.parametrize("seed", [0, 5, 2**64 - 1])
@pytest.mark.parametrize("indices", [[*range(1000), 10**9], []], ids=["0..999,1e9", "empty"])
def test_first_uniforms_equal_each_streams_first_draw(seed, indices):
    got = _first_uniforms(seed, "env-noise", indices)
    want = [stream(seed, "env-noise", i).random() for i in indices]
    assert all(type(u) is float for u in got)
    assert np.array(got, dtype=np.float64).tobytes() == np.array(want, dtype=np.float64).tobytes()


@pytest.mark.parametrize("seed", [-1, 2**64])
def test_first_uniforms_refuse_seeds_outside_64_bits(seed):
    with pytest.raises(ValidationError):
        _first_uniforms(seed, "env-noise", [0, 1])
    with pytest.raises(ValidationError):
        _first_uniforms(seed, "env-noise", [])
