"""Stream derivation: determinism, key separation, scalar/vector parity,
and chunk draws equal to numpy's own ``SeedSequence`` and :func:`stream`."""

import numpy as np
import pytest

from pai.rng import _chunk_keys, chunk_uniforms, stream


def test_same_key_reproduces_draws():
    a = stream(123, 4, 5).random(64)
    b = stream(123, 4, 5).random(64)
    assert np.array_equal(a, b)


def test_distinct_keys_give_distinct_draws():
    base = stream(123, 4, 5).random(64)
    assert not np.array_equal(base, stream(123, 4, 6).random(64))
    assert not np.array_equal(base, stream(123, 5, 5).random(64))
    assert not np.array_equal(base, stream(124, 4, 5).random(64))
    assert not np.array_equal(base, stream(123, 4).random(64))
    assert not np.array_equal(base, stream(123, 4, 5, 0).random(64))


def test_counter_based_engine():
    # spawning thousands of per-variant streams must stay cheap and
    # collision-free; a counter-based generator guarantees both
    assert isinstance(stream(0).bit_generator, np.random.Philox)
    assert isinstance(stream(7, 1, 2, 3).bit_generator, np.random.Philox)


def test_scalar_draws_match_vector_draw():
    # n calls to rng.random() walk the stream exactly like rng.random(n),
    # so shot loops can be vectorized without changing any outcome
    r = stream(7, 1)
    scalars = np.array([r.random() for _ in range(512)])
    assert np.array_equal(scalars, stream(7, 1).random(512))


# ------------------------------------------------------- chunk draws


def _reference_keys(master_seed, key, lo, hi):
    return np.array(
        [
            np.random.SeedSequence(master_seed, spawn_key=(*key, v)).generate_state(
                2, np.uint64
            )
            for v in range(lo, hi)
        ]
    )


# master seeds of one, two and three 32-bit words
MASTER_SEEDS = (0, 2**32 - 1, 2**32, 2**63, 2**64 + 5)
# key prefixes of 0-4 words, some of two words
KEYS = ((), (3,), (2**32, 0), (1, 2**40 + 7, 5), (0, 0, 2**32 - 1, 2**33))


@pytest.mark.parametrize("master_seed", MASTER_SEEDS)
@pytest.mark.parametrize("key", KEYS)
def test_chunk_keys_equal_seed_sequence_keys(master_seed, key):
    # a chunk that starts mid-range and one that starts at 0
    for lo, hi in ((0, 5), (1021, 1030)):
        got = _chunk_keys(master_seed, key, lo, hi)
        assert got.dtype == np.uint64 and got.shape == (hi - lo, 2)
        assert np.array_equal(got, _reference_keys(master_seed, key, lo, hi))


def test_chunk_keys_at_the_top_of_the_word_range():
    lo, hi = 2**32 - 3, 2**32
    assert np.array_equal(_chunk_keys(9, (4,), lo, hi), _reference_keys(9, (4,), lo, hi))
    with pytest.raises(ValueError):
        _chunk_keys(9, (4,), lo, hi + 1)


@pytest.mark.parametrize("master_seed", MASTER_SEEDS)
@pytest.mark.parametrize("key", KEYS)
def test_chunk_uniforms_equal_stream_draws(master_seed, key):
    lo, hi, width = 37, 50, 398
    got = chunk_uniforms(master_seed, key, lo, hi, width)
    want = np.array([stream(master_seed, *key, v).random(width) for v in range(lo, hi)])
    assert np.array_equal(got, want)


def test_chunk_uniforms_fall_back_to_stream_past_one_word():
    # variants from 2**32 on take two words; the chunk draws them per stream
    lo, hi = 2**32 - 2, 2**32 + 2
    got = chunk_uniforms(3, (1, 2), lo, hi, 24)
    want = np.array([stream(3, 1, 2, v).random(24) for v in range(lo, hi)])
    assert np.array_equal(got, want)
    far = chunk_uniforms(3, (), 2**40, 2**40 + 1, 5)
    assert np.array_equal(far[0], stream(3, 2**40).random(5))


def test_empty_chunk_draws_nothing():
    assert chunk_uniforms(1, (), 4, 4, 7).shape == (0, 7)
    assert _chunk_keys(1, (), 4, 4).shape == (0, 2)


@pytest.mark.parametrize(
    "master_seed, key", [(-1, ()), (5, (-1,)), (5, (2, -(2**40))), (-(2**64), (0,))]
)
def test_negative_seed_or_key_word_raises(master_seed, key):
    with pytest.raises(ValueError):
        _chunk_keys(master_seed, key, 0, 3)
    with pytest.raises(ValueError):
        chunk_uniforms(master_seed, key, 0, 3, 4)
    # the same rule as SeedSequence's
    with pytest.raises(ValueError):
        stream(master_seed, *key, 0)
