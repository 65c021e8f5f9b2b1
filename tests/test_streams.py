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


@pytest.mark.parametrize("seed", [0, 5, 2**64 - 1])
@pytest.mark.parametrize("splits", [[1, 3, 1024, 5, 1000], [7, 1, 1, 3000, 2]])
def test_random_is_the_top_53_bits_of_each_raw_word(seed, splits):
    # the simulators take raw words where they took Generator.random: numpy
    # forms each double as (next_uint64 >> 11) 2^-53 from the same buffered
    # Philox stream, calls split at uneven sizes included
    doubles = stream(seed, "walk-mc", 3)
    words = stream(seed, "walk-mc", 3).bit_generator
    got = np.concatenate([doubles.random(n) for n in splits])
    want = np.concatenate([(words.random_raw(n) >> 11) * 2.0**-53 for n in splits])
    assert got.tobytes() == want.tobytes()
