"""Stream derivation: determinism, key separation, scalar/vector parity,
and chunk draws as counter windows of one :func:`stream`."""

import numpy as np
import pytest

from pai.rng import chunk_uniforms, stream


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


def _blocks(width):
    return -(-width // 4)  # four doubles per Philox block


def _reference_rows(master_seed, key, lo, hi, width):
    """Row ``i``: a fresh window stream advanced to variant ``lo + i``."""
    rows = np.empty((hi - lo, width))
    for i, v in enumerate(range(lo, hi)):
        r = stream(master_seed, *key, 0)
        r.bit_generator.advance(v * _blocks(width))
        rows[i] = r.random(width)
    return rows


# master seeds of one, two and three 32-bit words
MASTER_SEEDS = (0, 2**32 - 1, 2**32, 2**63, 2**64 + 5)
# keys of 0-4 words, some at the top of the 32-bit word range
KEYS = ((), (3,), (2**32 - 1, 0), (1, 2**31 + 7, 5), (0, 0, 2**32 - 1, 2**32 - 2))
# chunks from 0 and mid-range, widths on and off a block boundary
CHUNKS = ((0, 5, 8), (37, 50, 398), (1021, 1024, 3))


@pytest.mark.parametrize("master_seed", MASTER_SEEDS)
@pytest.mark.parametrize("key", KEYS)
def test_chunk_keys_equal_seed_sequence_keys(master_seed, key):
    # the window stream is a Philox keyed by SeedSequence's state for
    # (master_seed, *key, 0); variant v starts at counter v * blocks
    philox_key = np.random.SeedSequence(master_seed, spawn_key=(*key, 0)).generate_state(
        2, np.uint64
    )
    for lo, hi, width in CHUNKS:
        got = chunk_uniforms(master_seed, key, lo, hi, width)
        for i, v in enumerate(range(lo, hi)):
            bits = np.random.Philox(key=philox_key, counter=v * _blocks(width))
            assert np.array_equal(got[i], np.random.Generator(bits).random(width))


@pytest.mark.parametrize("master_seed", MASTER_SEEDS)
@pytest.mark.parametrize("key", KEYS)
def test_chunk_uniforms_equal_stream_draws(master_seed, key):
    for lo, hi, width in CHUNKS:
        got = chunk_uniforms(master_seed, key, lo, hi, width)
        assert got.shape == (hi - lo, width)
        assert np.array_equal(got, _reference_rows(master_seed, key, lo, hi, width))
        # drawn into the head of a longer buffer, the doubles are the same
        out = np.full((hi - lo) * 4 * _blocks(width) + 9, np.nan)
        into = chunk_uniforms(master_seed, key, lo, hi, width, out)
        assert np.shares_memory(into, out)
        assert np.array_equal(into, got)


def test_windows_tile_the_stream():
    # a whole number of blocks per variant: the windows are the stream itself
    got = chunk_uniforms(7, (2,), 0, 6, 12)
    assert np.array_equal(got.ravel(), stream(7, 2, 0).random(72))


@pytest.mark.parametrize("width", [1, 5, 8, 11])
def test_every_split_of_a_range_gives_the_same_rows(width):
    lo, hi = 3, 40
    whole = chunk_uniforms(4, (1, 2), lo, hi, width)
    for cuts in ([], [4], [10, 11, 30], list(range(lo + 1, hi))):
        bounds = [lo, *cuts, hi]
        parts = [chunk_uniforms(4, (1, 2), a, b, width) for a, b in zip(bounds, bounds[1:])]
        assert np.array_equal(np.concatenate(parts), whole)


def test_chunk_keys_at_the_top_of_the_word_range():
    # the last variants of one 32-bit word, and a chunk that runs past it
    lo, hi = 2**32 - 3, 2**32
    got = chunk_uniforms(9, (4,), lo, hi, 6)
    assert np.array_equal(got, _reference_rows(9, (4,), lo, hi, 6))
    past = chunk_uniforms(9, (4,), lo, hi + 1, 6)
    assert np.array_equal(past[:-1], got)
    assert np.array_equal(past[-1:], _reference_rows(9, (4,), hi, hi + 1, 6))


def test_chunk_uniforms_fall_back_to_stream_past_one_word():
    # variants of 2**32 or more are windows of the same stream: no fallback
    lo, hi = 2**32 - 2, 2**32 + 2
    got = chunk_uniforms(3, (1, 2), lo, hi, 24)
    assert np.array_equal(got, _reference_rows(3, (1, 2), lo, hi, 24))
    assert np.array_equal(chunk_uniforms(3, (1, 2), 2**32, hi, 24), got[2:])
    far = chunk_uniforms(3, (), 2**40, 2**40 + 1, 5)
    assert np.array_equal(far, _reference_rows(3, (), 2**40, 2**40 + 1, 5))


def test_key_words_of_2_to_the_32_or_more_raise():
    # SeedSequence splits a word of 2**32 or more into 32-bit words, so the
    # key (2**32, 0) would draw exactly what (0, 1, 0) draws
    wide = np.random.SeedSequence(3, spawn_key=(2**32, 0)).generate_state(4)
    long = np.random.SeedSequence(3, spawn_key=(0, 1, 0)).generate_state(4)
    assert np.array_equal(wide, long)
    stream(3, 0, 1, 0)  # the longer key stays valid
    for key in ((2**32, 0), (1, 2**40 + 7, 5), (0, 0, 2**32 - 1, 2**33), (2**64,)):
        word = str(next(k for k in key if k >= 2**32))
        with pytest.raises(ValueError, match=word):
            stream(3, *key)
        with pytest.raises(ValueError, match=word):
            chunk_uniforms(3, key, 0, 3, 4)


def test_empty_chunk_draws_nothing():
    assert chunk_uniforms(1, (), 4, 4, 7).shape == (0, 7)
    # zero width: rows of nothing
    assert chunk_uniforms(1, (2,), 0, 5, 0).shape == (5, 0)
    assert chunk_uniforms(1, (), 9, 9, 0).shape == (0, 0)


@pytest.mark.parametrize(
    "master_seed, key", [(-1, ()), (5, (-1,)), (5, (2, -(2**40))), (-(2**64), (0,))]
)
def test_negative_seed_or_key_word_raises(master_seed, key):
    with pytest.raises(ValueError):
        chunk_uniforms(master_seed, key, 0, 3, 4)
    # the same rule as SeedSequence's
    with pytest.raises(ValueError):
        stream(master_seed, *key, 0)
