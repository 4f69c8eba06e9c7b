"""Deterministic random-stream derivation.

Every stochastic routine in this package draws from a Philox counter-based
generator seeded through ``numpy.random.SeedSequence`` with an explicit
spawn key.  A stream is addressed by ``(master_seed, *key)`` where ``key``
is a tuple of non-negative integers.  Distinct keys give statistically
independent streams, and the stream content depends only on the key, never
on scheduling order or thread count.

Keys after ``master_seed``, per subcommand (``v`` a sampled variant):

* ``trotter``: ``(v,)`` pai, ``(1, 0)`` nearest-notch shots, ``(2, 0)``
  continuous shots, ``(3, m)`` resampling of method ``m``;
* ``fidelity-decay``: ``(v,)``;
* ``rms``: ``(i, r)``, repeat ``r`` of budget ``i``;
* ``vqe``: ``(i, j, s, v)`` in pai mode and ``(i, j, s, 1, 0)`` in nearest
  mode, at iteration ``i``, parameter ``j`` and shift ``s``; the initial
  parameters come from ``(init_seed, 0, 0)``.

A bank of a Pauli sum draws every term's shot uniforms from the one
stream of its variant, in term order.  Models draw their fields from
``(model_seed,)``.  No key repeats within a
run, but at one master seed rms's ``(1, 0)``, ``(2, 0)`` and ``(3, m)`` are
trotter's nearest-notch, continuous and resampling keys.

:func:`stream` builds one generator.  :func:`chunk_uniforms` draws a
chunk of variant streams ``(master_seed, *key, v)``, ``lo <= v < hi``,
without a ``SeedSequence`` or a generator per variant.  The Philox keys of
the whole chunk come from one vectorized pass of ``SeedSequence``'s pool
hash (:func:`_chunk_keys`): its hash constants advance with the call count,
not with the values hashed, so the words shared by the chunk are mixed
once, by ``SeedSequence`` itself, and only the last word, ``v``, per
variant.  One Philox per call then
draws each variant's uniforms from its key and a zero counter.  Stream
contents are those of :func:`stream`, bit for bit; a variant index of
2**32 or more, which takes two words, is drawn through :func:`stream`.
"""

from __future__ import annotations

import numpy as np

__all__ = ["stream", "chunk_uniforms"]

# numpy.random.SeedSequence's pool size and hash constants (uint32)
_POOL_SIZE = 4
_MASK32 = 0xFFFFFFFF
_INIT_A = 0x43B0D7E5
_MULT_A = 0x931E8875
_INIT_B = 0x8B51F9DD
_MULT_B = 0x58F38DED
_MIX_MULT_L = 0xCA01F9DD
_MIX_MULT_R = 0x4973F715
_XSHIFT = 16
# a variant index from here on takes two 32-bit words, which the one-word
# vectorized mix does not cover
_WORD_LIMIT = 1 << 32


def stream(master_seed: int, *key: int) -> np.random.Generator:
    """Return the Philox generator addressed by ``(master_seed, *key)``."""
    ss = np.random.SeedSequence(master_seed, spawn_key=tuple(int(k) for k in key))
    return np.random.Generator(np.random.Philox(ss))


def _n_words(n: int) -> int:
    """The count of 32-bit words that ``SeedSequence`` makes of ``n >= 0``."""
    return max(1, (int(n).bit_length() + 31) // 32)


def _hashmix(value, const: int):
    """``(hash, next const)`` of ``SeedSequence``'s hash of ``value``, a
    uint32 array, at the hash constant ``const``."""
    value = value ^ const
    const = (const * _MULT_A) & _MASK32
    value = value * const
    return value ^ (value >> _XSHIFT), const


def _mix(x: int, y: np.ndarray) -> np.ndarray:
    """``SeedSequence``'s mix of ``x`` with each entry of ``y`` (uint32)."""
    result = ((_MIX_MULT_L * x) & _MASK32) - _MIX_MULT_R * y
    return result ^ (result >> _XSHIFT)


def _chunk_keys(master_seed: int, key, lo: int, hi: int) -> np.ndarray:
    """The ``(hi - lo, 2)`` uint64 Philox keys of the streams
    ``(master_seed, *key, v)`` for ``lo <= v < hi <= 2**32``: row ``i``
    equals ``SeedSequence(master_seed, spawn_key=(*key, lo + i))
    .generate_state(2, np.uint64)``."""
    if not 0 <= lo <= hi <= _WORD_LIMIT:
        raise ValueError("variant range must lie in [0, 2**32]")
    # the sequence without v has mixed every other word into its pool: the
    # seed's words, padded with zeros to the pool size, then the key's, at
    # one hash per pool entry and word; v is the last word to mix
    key = tuple(int(k) for k in key)
    shared = np.random.SeedSequence(master_seed, spawn_key=key)
    n_words = max(_POOL_SIZE, _n_words(master_seed)) + sum(map(_n_words, key))
    const = (_INIT_A * pow(_MULT_A, _POOL_SIZE * n_words, 1 << 32)) & _MASK32
    v = np.arange(lo, hi, dtype=np.uint32)
    words = np.empty((_POOL_SIZE, hi - lo), dtype=np.uint64)
    out_const = _INIT_B
    for dst, pooled in enumerate(shared.pool.tolist()):
        value, const = _hashmix(v, const)
        # generate_state's four words, one per pool entry
        word = _mix(pooled, value) ^ out_const
        out_const = (out_const * _MULT_B) & _MASK32
        word = word * out_const
        words[dst] = word ^ (word >> _XSHIFT)
    return (words[0::2] | (words[1::2] << 32)).T


def chunk_uniforms(master_seed: int, key, lo: int, hi: int, width: int) -> np.ndarray:
    """``(hi - lo, width)`` uniforms: row ``i`` holds the first ``width``
    doubles of ``stream(master_seed, *key, lo + i)``."""
    out = np.empty((hi - lo, width))
    # variants from split on take two words and go through stream
    split = min(max(lo, _WORD_LIMIT), hi)
    if split > lo:
        # one Philox per call, so concurrent chunks never share one
        bits = np.random.Philox(0)
        draw = np.random.Generator(bits).random
        # a fresh stream: counter 0 and an empty buffer (buffer_pos 4), so
        # the first draw generates counter 1's block, as a new Philox does
        state = bits.state
        state.update(buffer=[0] * 4, buffer_pos=4, has_uint32=0, uinteger=0)
        state["state"] = {"counter": [0] * 4, "key": None}
        for row, k in zip(out, _chunk_keys(master_seed, key, lo, split).tolist()):
            state["state"]["key"] = k
            bits.state = state
            draw(out=row)
    for v in range(split, hi):
        stream(master_seed, *key, v).random(out=out[v - lo])
    return out
