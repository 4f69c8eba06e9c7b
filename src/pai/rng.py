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
"""

from __future__ import annotations

import numpy as np

__all__ = ["stream"]


def stream(master_seed: int, *key: int) -> np.random.Generator:
    """Return the Philox generator addressed by ``(master_seed, *key)``."""
    ss = np.random.SeedSequence(master_seed, spawn_key=tuple(int(k) for k in key))
    return np.random.Generator(np.random.Philox(ss))
