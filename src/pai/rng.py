"""Deterministic random-stream derivation.

Every stochastic routine in this package draws from a Philox counter-based
generator seeded through ``numpy.random.SeedSequence`` with an explicit
spawn key: :func:`stream` builds the stream ``(master_seed, *key)``, where
``key`` is a tuple of integers in ``[0, 2**32)``.  Stream content depends
only on the address, never on scheduling order or thread count.

Sampled variants split one stream by its counter (Salmon et al., "Parallel
random numbers: as easy as 1, 2, 3", SC'11).  Variant ``v`` of a bank keyed
``key`` that draws ``width`` doubles per variant reads the first ``width``
doubles of the ``ceil(width / 4)`` Philox blocks from block
``v * ceil(width / 4)`` of the window stream ``(master_seed, *key, 0)``
(:func:`chunk_uniforms`).  Windows never overlap, and any chunk of
variants, or one variant alone, is drawn by advancing the counter.

Addresses after ``master_seed``, per subcommand:

* ``trotter``: window ``(0,)`` for pai, ``(1, 0)`` nearest-notch shots,
  ``(2, 0)`` continuous shots, ``(3, m)`` resampling of method ``m`` (one
  multinomial draw of every batch's value counts);
* ``fidelity-decay``: window ``(0,)``;
* ``rms``: window ``(i, 0, 0)`` for budget ``i``, whose repeat ``r`` is a
  range of its variants;
* ``vqe``: window ``(i, j, s, 0)`` in pai mode and ``(i, j, s, 1, 0)`` in
  nearest mode, at iteration ``i``, parameter ``j`` and shift ``s``; the
  initial parameters come from ``(init_seed, 0, 0)``, and
  ``ground_energy``'s Lanczos start vector from ``(0, 0, 0, 0, 0, 0, 0)``,
  master seed 0 with a key of six zeros.

Models draw their fields from ``(model_seed,)``.  A bank of a Pauli sum
draws every term's shot uniforms from its variant's window, in term order.
No address is drawn twice in a run, and no two purposes share one: the key
length tells them apart, because :func:`stream` rejects a key word of
2**32 or more, which ``SeedSequence`` would split into 32-bit words.  Model
fields have no key word, the pai window one (shared only by trotter and
fidelity-decay, whose pai draws are alike), trotter's reference streams
and vqe's initial parameters two, rms three, vqe pai four, vqe nearest
five and the Lanczos start vector six.
"""

from __future__ import annotations

import numpy as np

__all__ = ["stream", "chunk_uniforms"]


def stream(master_seed: int, *key: int) -> np.random.Generator:
    """Return the Philox generator addressed by ``(master_seed, *key)``;
    a key word of 2**32 or more raises ``ValueError``, as ``(3, 2**32, 0)``
    would name the stream ``(3, 0, 1, 0)``."""
    words = tuple(int(k) for k in key)
    wide = [k for k in words if k >= 1 << 32]
    if wide:
        raise ValueError(f"stream key words must be below 2**32, got {wide}")
    ss = np.random.SeedSequence(master_seed, spawn_key=words)
    return np.random.Generator(np.random.Philox(ss))


def chunk_uniforms(
    master_seed: int, key, lo: int, hi: int, width: int, out: np.ndarray | None = None
) -> np.ndarray:
    """``(hi - lo, width)`` uniforms: row ``i`` holds the window of variant
    ``lo + i`` in the stream ``(master_seed, *key, 0)``.

    ``out``, a C-contiguous float64 array of at least ``(hi - lo) * 4 *
    ceil(width / 4)`` elements, takes the draws in its head when given, and
    the result is a view of it; the doubles are the same either way."""
    blocks = -(-width // 4)  # four doubles per Philox block
    draw = stream(master_seed, *key, 0)
    # advance also empties the buffer, so the next draw starts a block
    draw.bit_generator.advance(lo * blocks)
    shape = (hi - lo, 4 * blocks)
    if out is None:
        return draw.random(shape)[:, :width]
    head = out.reshape(-1)[: shape[0] * shape[1]].reshape(shape)
    return draw.random(out=head)[:, :width]
