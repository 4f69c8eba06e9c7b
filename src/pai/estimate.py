"""Estimation protocols built on the quasiprobability decomposition.

The central object is a *shot bank*: per-shot measurement values grouped
by sampled circuit variant, together with the signed weight that turns
them into unbiased estimates.  The observable is a Pauli string or a
Pauli sum; a shot measures every term once and records ``sum_t c_t o_t``,
a single +-1 outcome for a string.  Reference estimators (nearest-notch
rounding and the continuous-angle circuit) fill the same structure with a
single trivial variant so downstream analysis treats all three
identically.

Every variant loop runs chunk by chunk through :func:`_map_variants`.  The
sampled ones follow the quasiprobability sampling of Endo, Benjamin and Li
(PRX 8, 031027, 2018): variant ``v`` draws one uniform per gate and then
its shot uniforms, ``width`` doubles in all, from its window of the stream
``(master_seed, *key, 0)`` (:func:`_variant_uniforms`, one
:func:`pai.rng.chunk_uniforms` call per chunk), and :func:`_pai_draws`
simulates the settings they select and measures every term.  The window
depends only on ``(master_seed, key, v, width)``, so any variant can be
regenerated alone.  An rms repeat is a range of variants of one such bank,
and exact enumeration walks all ``3**nu`` settings through the same chunks.
:mod:`pai.rng` tables the keys of every subcommand.

The simulation takes each variant's setting indices, not its angles:
gate ``j`` at setting ``s`` runs at ``table[j, s]`` of a ``(nu, S)``
table, one setting circuit built once per run by
:func:`pai.statevector._setting_circuit`, which also decides its frame and
runs its fixed prefix (see :mod:`pai.statevector`).  Every budget of an
rms sweep shares it, and the fidelity profile's ideal states are one more
row of it, at a third, continuous-angle setting; terms and overlaps are
read in the circuit's frame.

Multi-threading only partitions variants into fixed-size chunks, which
the calling thread and ``threads - 1`` helpers claim in turn; stream
contents, chunk bounds and reduction order are independent of the thread
count, so results are bit-identical for any ``threads`` value.  Each thread
that runs chunks allocates one workspace per :func:`_map_variants` call,
sized for the larger of a chunk's two phases, its draws and its circuit,
which overlay the same bytes; once warm, the loop allocates no chunk
buffer.
"""

from __future__ import annotations

import math
import threading
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field
from typing import Sequence

import numpy as np

from .notch import NotchGrid, locate, round_params_to_grid
from .quasiprob import (
    CircuitDecomposition,
    decompose_circuit,
    settings_from_uniforms,
)
from .rng import chunk_uniforms, stream
from .statevector import (
    Observable,
    PauliString,
    _as_observable,
    _chunk_bytes,
    _column_sums,
    _segment_states,
    _setting_circuit,
    _SettingCircuit,
    _span,
    _term_sum,
    expectation,
    run_circuit,
    term_expectations,
)

__all__ = [
    "EnumerationLimitError",
    "EstimateResult",
    "ShotBank",
    "FidelityPoint",
    "RmsPoint",
    "pai_shot_bank",
    "nearest_notch_shot_bank",
    "continuous_shot_bank",
    "continuous_expectation",
    "exact_pai_expectation",
    "two_notch_fidelity_profile",
    "rms_vs_shots",
    "per_variant_rows",
]

NEAREST_STREAM_KEY = (1, 0)
CONTINUOUS_STREAM_KEY = (2, 0)

_ENUMERATION_CAP = 10


class EnumerationLimitError(ValueError):
    """Raised when exact variant enumeration is requested for a circuit too
    deep to enumerate (more than 10 interpolated gates)."""


@dataclass(frozen=True)
class EstimateResult:
    """Summary of an estimation run."""

    mean: float
    std_error: float
    n_shots: int
    n_variants: int
    overhead_bound: float


@dataclass
class ShotBank:
    """Shot values grouped by variant: ``outcomes[v, i]`` is shot ``i`` of
    variant ``v``, ``sum_t c_t o_t`` over the observable's terms (a +-1
    outcome for a single Pauli string); the estimate of shot ``(v, i)`` is
    ``outcomes[v, i] * variant_signs[v] * weight``."""

    outcomes: np.ndarray
    variant_signs: np.ndarray
    weight: float

    @property
    def n_variants(self) -> int:
        return self.outcomes.shape[0]

    @property
    def shots_per_variant(self) -> int:
        return self.outcomes.shape[1]

    @property
    def n_shots(self) -> int:
        return self.outcomes.size

    def values(self) -> np.ndarray:
        """Flat per-shot estimates, variant-major order."""
        factors = self.variant_signs.astype(np.float64) * self.weight
        return (self.outcomes * factors[:, None]).ravel()

    def result(self) -> EstimateResult:
        vals = self.values()
        n = vals.size
        std_error = float(vals.std(ddof=1) / math.sqrt(n)) if n > 1 else 0.0
        return EstimateResult(
            mean=float(vals.mean()),
            std_error=std_error,
            n_shots=n,
            n_variants=self.n_variants,
            overhead_bound=self.weight**2,
        )


@dataclass
class _PaiBank(ShotBank):
    """The bank of :func:`pai_shot_bank` with the circuit decomposition it
    sampled from, so a caller that reports overheads decomposes once."""

    decomposition: CircuitDecomposition = field(repr=False, compare=False)


def per_variant_rows(bank: ShotBank) -> list[tuple[int, int, float, float]]:
    """``(variant_id, sign, outcome_mean, factor)`` per variant, for
    tabular output."""
    means = bank.outcomes.mean(axis=1)
    return [
        (
            v,
            int(bank.variant_signs[v]),
            float(means[v]),
            float(bank.variant_signs[v]) * bank.weight,
        )
        for v in range(bank.n_variants)
    ]


def _require_pauli(observable) -> PauliString:
    if not isinstance(observable, PauliString):
        # the shot-noise line sqrt((1 - o**2) / N) holds for a +-1 observable
        raise ValueError("rms_vs_shots measures a single Pauli string")
    return observable


def _auto_chunk(size: int) -> int:
    # a chunk's (size, V) complex buffer, size the length of the state the
    # circuit runs on, holds at most 2^15 amplitudes (512 KiB), so both
    # buffers and the block tables stay in a 2 MiB L2 through every block.
    # In the parity frame, size 2^(n-1), that is 2,048 rows at 4 qubits or
    # fewer, 256 at 8, 16 at 12 and one from 16 qubits up.  At 2,048 rows
    # trotter's 8-qubit rows cost 1.2-1.7x more, each buffer 8 MiB
    return max(1, min(2048, (1 << 15) // size))


def _chunk_bounds(n: int, chunk: int) -> list[tuple[int, int]]:
    return [(lo, min(lo + chunk, n)) for lo in range(0, n, chunk)]


def _workspace_bytes(circuit: _SettingCircuit, n_rows: int, width: int) -> int:
    """Bytes of one chunk loop's workspace: the larger of a chunk's two
    phases at ``n_rows`` variants of ``circuit``, each drawing ``width``
    doubles.  The draw phase holds the ``(V, 4 * ceil(width / 4))`` window
    doubles of :func:`pai.rng.chunk_uniforms`; the circuit phase holds the
    :func:`pai.statevector._chunk_bytes` of :func:`_segment_states`.  The
    phases share the same bytes: a chunk reads its draws before its circuit
    runs."""
    draws = _span((n_rows, 4 * -(-width // 4)), np.float64)
    return max(draws, _chunk_bytes(circuit, n_rows))


def _workspace(nbytes: int) -> np.ndarray:
    """One thread's workspace for one :func:`_map_variants` call: ``nbytes``
    uint8, of no set value."""
    return np.empty(nbytes, dtype=np.uint8)


def _map_variants(
    worker, n_variants: int, circuit: _SettingCircuit, threads: int, width: int = 0
) -> list:
    """``worker(work, lo, hi)`` over the chunks of ``n_variants`` variants
    of ``circuit``, run on ``threads`` threads, the calling one included,
    each variant drawing ``width`` doubles; results keep chunk order, and
    the chunk bounds never depend on ``threads``.

    Each thread claims the next chunk index until none is left and stores
    its result at that index.  A thread allocates one uint8 workspace
    ``work`` of :func:`_workspace_bytes` at its first chunk and hands it to
    every chunk it runs; the workspace is dropped when the call returns.  A
    worker takes views of ``work`` for its draws and its circuit, never
    trusts its bytes from an earlier chunk, and returns only fresh arrays,
    so no view of it outlives the chunk."""
    n_rows = _auto_chunk(circuit.initial.shape[0])
    bounds = _chunk_bounds(n_variants, n_rows)
    nbytes = _workspace_bytes(circuit, min(n_rows, n_variants), width)
    results = [None] * len(bounds)
    claims = iter(range(len(bounds)))
    lock = threading.Lock()

    def drain():
        work = None
        while True:
            with lock:
                i = next(claims, None)
            if i is None:
                return
            if work is None:
                work = _workspace(nbytes)
            results[i] = worker(work, *bounds[i])

    helpers = min(threads, len(bounds)) - 1
    if helpers < 1:
        drain()
        return results
    with ThreadPoolExecutor(max_workers=helpers) as pool:
        started = [pool.submit(drain) for _ in range(helpers)]
        drain()
        for future in started:
            future.result()
    return results


def _pai_circuit(dec: CircuitDecomposition, num_qubits: int) -> _SettingCircuit:
    """The :class:`_SettingCircuit` of a decomposition; a gate whose first
    setting has probability 1 (a gate on a notch) is fixed."""
    fixed = dec.thresholds_low >= 1.0
    return _setting_circuit(dec.generators, dec.setting_angles, fixed, num_qubits)


def _simulate_variants(
    circuit: _SettingCircuit, angles: np.ndarray, terms, work=None
) -> np.ndarray:
    """Run one realized circuit per row of ``angles``, the ``(V, nu)``
    setting indices: variant ``v`` runs gate ``j`` at its setting
    ``angles[v, j]``, in the workspace ``work`` of :func:`_segment_states`
    (a fresh one when not given).  Returns the fresh ``(V, T)`` term
    expectations of ``terms``, coefficients not applied, read in the
    circuit's frame."""
    for state, spare in _segment_states(circuit, angles, work):
        pass
    return term_expectations(state, terms, circuit.sector, spare)


def _variant_uniforms(master_seed: int, key, lo: int, hi: int, nu: int, shots=None, work=None):
    """Uniforms of variants ``lo`` to ``hi - 1``: ``(V, nu)`` for the
    settings and, when ``shots`` is given, ``(V, shots)`` for the shots
    (else ``None``).  Variant ``v`` draws both, in that order, from its
    window of ``nu + shots`` doubles in the stream ``(master_seed, *key,
    0)``.  Given a uint8 workspace ``work``, both are views of its head,
    which the chunk's circuit overwrites; else they are fresh."""
    out = None if work is None else work.view(np.float64)
    draws = chunk_uniforms(master_seed, key, lo, hi, nu + (shots or 0), out)
    return draws[:, :nu], None if shots is None else draws[:, nu:]


def _outcomes(u: np.ndarray, ev) -> np.ndarray:
    """+-1 outcomes as int8: +1 where ``u`` is below the Born probability
    ``(1 + ev) / 2``, clipped to [0, 1].  ``ev`` broadcasts against ``u``."""
    p_plus = np.clip(0.5 * (1.0 + ev), 0.0, 1.0)
    return 2 * (u < p_plus).view(np.int8) - 1


def _pai_draws(dec, circuit, terms, n_variants, shots, master_seed, key, threads, reduce):
    """``reduce(lo, hi, signs, outcomes)`` of every chunk of ``n_variants``
    variants sampled from the :class:`CircuitDecomposition` ``dec`` and run
    on its :func:`_pai_circuit` ``circuit``, built once by the caller, in
    chunk order: ``signs`` and ``outcomes`` are int8, and ``outcomes[v - lo,
    t, i]`` is the +-1 outcome of shot ``i`` of term ``t`` of variant ``v``.
    Variant ``v`` draws its setting uniforms and then its ``(T, shots)``
    shot uniforms, in term order, from its window of the stream
    ``(master_seed, *key, 0)``.  Returns the list of ``reduce``'s results.
    A chunk draws its ``(V, nu + T * shots)`` uniforms into its thread's
    workspace (:func:`_map_variants`), copies its shot uniforms and reads
    its settings, and then runs its circuit over the same bytes, beside
    little more than the int8 settings."""
    nu = dec.num_gates
    n_terms = len(terms)

    def worker(work: np.ndarray, lo: int, hi: int):
        u, u_shots = _variant_uniforms(master_seed, key, lo, hi, nu, n_terms * shots, work)
        u_shots = u_shots.reshape(hi - lo, n_terms, shots).copy()
        settings, signs = settings_from_uniforms(dec, u)
        del u  # the last view of the draws, whose bytes the circuit takes
        evs = _simulate_variants(circuit, settings, terms, work)
        return reduce(lo, hi, signs, _outcomes(u_shots, evs[:, :, None]))

    return _map_variants(worker, n_variants, circuit, threads, nu + n_terms * shots)


def _circuit_qubits(circuit, observable) -> tuple[list, int]:
    """``(gates, n)``: the circuit read once into a list, so a one-shot
    iterable serves every later pass, and the observable's qubit count,
    which every generator must share."""
    gates = list(circuit)
    n = observable.num_qubits
    for generator, _ in gates:
        if generator.num_qubits != n:
            raise ValueError("circuit and observable qubit counts differ")
    return gates, n


def pai_shot_bank(
    grid: NotchGrid,
    circuit: Sequence[tuple[PauliString, float]],
    observable: PauliString | Observable,
    n_variants: int,
    shots_per_variant: int,
    master_seed: int,
    *,
    key: tuple[int, ...] = (),
    threads: int = 1,
) -> ShotBank:
    """Sample ``n_variants`` circuit variants and measure each one
    ``shots_per_variant`` times; a shot measures every term of
    ``observable`` once.

    Variant ``v`` draws its setting uniforms and then the terms' shot
    uniforms, in term order, from its window of the stream ``(master_seed,
    *key, 0)``, which depends only on ``v`` and the draw width, so any
    variant can be regenerated in isolation and the full bank is identical
    for any thread count.
    """
    if n_variants < 1 or shots_per_variant < 1:
        raise ValueError("n_variants and shots_per_variant must be positive")
    terms = _as_observable(observable).terms
    circuit, n = _circuit_qubits(circuit, observable)
    dec = decompose_circuit(grid, circuit)
    signs = np.empty(n_variants, dtype=np.int8)
    outcomes = np.empty((n_variants, len(terms), shots_per_variant), dtype=np.int8)

    def keep(lo, hi, chunk_signs, chunk_outcomes):
        signs[lo:hi] = chunk_signs
        outcomes[lo:hi] = chunk_outcomes

    circuit = _pai_circuit(dec, n)
    _pai_draws(dec, circuit, terms, n_variants, shots_per_variant, master_seed, key, threads, keep)
    return _PaiBank(
        outcomes=_term_sum(outcomes, terms),
        variant_signs=signs,
        weight=dec.norm1_total,
        decomposition=dec,
    )


@dataclass
class _ReferenceBank(ShotBank):
    """The one-variant bank of :func:`_reference_bank` with the exact
    expectation of the circuit it ran, the value of
    :func:`continuous_expectation` on it, so a caller that reports both
    runs the circuit once."""

    expectation: float = field(compare=False)


def _reference_bank(
    circuit: list, observable, n_shots: int, seed: int, key: tuple[int, ...]
) -> _ReferenceBank:
    """One-variant bank of ``circuit`` run once: every term draws its
    ``n_shots`` shot uniforms, in term order, from the stream
    ``(seed, *key)``."""
    if n_shots < 1:
        raise ValueError("n_shots must be positive")
    terms = _as_observable(observable).terms
    state = run_circuit(circuit, observable.num_qubits)
    evs = term_expectations(state.amps[:, None], terms)
    u = stream(seed, *key).random((1, len(terms), n_shots))
    return _ReferenceBank(
        outcomes=_term_sum(_outcomes(u, evs[:, :, None]), terms),
        variant_signs=np.ones(1, dtype=np.int8),
        weight=1.0,
        expectation=float(_term_sum(evs, terms)[0]),
    )


def _round_circuit(grid: NotchGrid, circuit) -> list[tuple[PauliString, float]]:
    """``circuit`` with every angle rounded to its nearest notch."""
    angles = round_params_to_grid(grid, [angle for _, angle in circuit])
    return [(generator, angle) for (generator, _), angle in zip(circuit, angles)]


def nearest_notch_shot_bank(
    grid: NotchGrid,
    circuit: Sequence[tuple[PauliString, float]],
    observable: PauliString | Observable,
    n_shots: int,
    seed: int,
    *,
    key: tuple[int, ...] = (),
) -> ShotBank:
    """Round every angle to its nearest notch, run once and measure every
    term ``n_shots`` times, from the stream ``(seed, *key, 1, 0)``."""
    circuit, _ = _circuit_qubits(circuit, observable)
    return _reference_bank(
        _round_circuit(grid, circuit), observable, n_shots, seed, (*key, *NEAREST_STREAM_KEY)
    )


def continuous_shot_bank(
    circuit: Sequence[tuple[PauliString, float]],
    observable: PauliString | Observable,
    n_shots: int,
    seed: int,
) -> ShotBank:
    """Shot-sample the ideal continuous-angle circuit, every term
    ``n_shots`` times, from the stream ``(seed, 2, 0)``.  The bank's
    ``expectation`` is the circuit's :func:`continuous_expectation`."""
    circuit, _ = _circuit_qubits(circuit, observable)
    return _reference_bank(circuit, observable, n_shots, seed, CONTINUOUS_STREAM_KEY)


def continuous_expectation(
    circuit: Sequence[tuple[PauliString, float]], observable
) -> float:
    """Noise-free continuous-angle expectation (statevector evaluation)."""
    return expectation(run_circuit(list(circuit), observable.num_qubits), observable)


def exact_pai_expectation(
    grid: NotchGrid,
    circuit: Sequence[tuple[PauliString, float]],
    observable,
) -> float:
    """Enumerate all ``3**nu`` variants and sum their weighted expectations.

    Feasible only for shallow circuits; raises
    :class:`EnumerationLimitError` above 10 gates.  Up to numerical
    rounding the result equals the continuous-angle expectation, which is
    what makes the sampled estimator unbiased.
    """
    circuit, n = _circuit_qubits(circuit, observable)
    dec = decompose_circuit(grid, circuit)
    nu = dec.num_gates
    if nu > _ENUMERATION_CAP:
        raise EnumerationLimitError(
            f"{nu} gates would need 3**{nu} variants; cap is {_ENUMERATION_CAP}"
        )
    if nu == 0:
        return continuous_expectation([], observable)
    cols = np.arange(nu)
    terms = _as_observable(observable).terms
    # every variant is enumerated, so no gate is fixed
    variants = _setting_circuit(dec.generators, dec.setting_angles, [False] * nu, n)

    def worker(work: np.ndarray, lo: int, hi: int) -> float:
        # variant v takes the settings of v's base-3 digits, last gate fastest
        idx = np.stack(np.unravel_index(np.arange(lo, hi), (3,) * nu), axis=-1)
        idx = idx.astype(np.int8)
        weights = dec.gammas[cols, idx].prod(axis=1)
        evs = _simulate_variants(variants, idx, terms, work)
        return float(weights @ _term_sum(evs, terms))

    # a plain loop keeps chunk-order addition; sum() compensates from 3.12
    total = 0.0
    for part in _map_variants(worker, 3**nu, variants, 1):
        total += part
    return total


@dataclass(frozen=True)
class FidelityPoint:
    """Mean variant fidelity against the ideal state after ``n_gates``."""

    n_gates: int
    fidelity: float
    std_error: float


def two_notch_fidelity_profile(
    grid: NotchGrid,
    circuit: Sequence[tuple[PauliString, float]],
    checkpoints: Sequence[int],
    n_variants: int,
    master_seed: int,
    *,
    threads: int = 1,
) -> list[FidelityPoint]:
    """Fidelity decay of the sign-free two-notch interpolation scheme.

    Each gate independently realizes its lower enclosing notch with
    probability ``1 - lam`` and the upper notch with probability ``lam``
    (``lam`` the gap fraction); no reweighting.  For every checkpoint
    prefix length the mean squared overlap with the ideal continuous
    prefix state is averaged over ``n_variants`` sampled assignments,
    one stream window per variant as in :func:`pai_shot_bank`.

    The ideal state runs every gate at its continuous angle, except the
    leading gates on a notch (within the snap tolerance of
    :func:`pai.notch.locate`), such as the Neel X at pi: variants and ideal
    alike run those at the notch angle, once, so a checkpoint at or before
    their end reads fidelity exactly 1.
    """
    if n_variants < 1:
        raise ValueError("n_variants must be positive")
    circuit = list(circuit)
    nu = len(circuit)
    cps = sorted(set(int(c) for c in checkpoints))
    if not cps or cps[0] < 0 or cps[-1] > nu:
        raise ValueError("checkpoints must lie in [0, number of gates]")
    generators = [g for g, _ in circuit]
    n = generators[0].num_qubits if generators else 1
    for g in generators:
        if g.num_qubits != n:
            raise ValueError("circuit generators act on differing qubit counts")

    angles = np.array([angle for _, angle in circuit], dtype=np.float64)
    pos = locate(grid, angles)
    # setting 0 is the lower notch, taken below the threshold 1 - lam, and
    # setting 2, which no variant takes, the continuous angle of the ideal
    table = np.stack([grid.angle(pos.k), grid.angle(pos.k + 1), angles], axis=1)
    thresholds = 1.0 - pos.lam
    # a gate on a notch always takes its lower one; that prefix runs once,
    # and each later checkpoint ends a segment, so no block crosses one
    variants = _setting_circuit(generators, table, thresholds >= 1.0, n, cuts=cps)
    # the ideal states are one more row of the same circuit: they share the
    # prefix, so a checkpoint inside it reads exactly 1
    n_prefix = sum(cp <= variants.start for cp in cps)
    ideal = np.full((1, nu), 2, dtype=np.int8)
    states = zip(variants.segments, _segment_states(variants, ideal))
    ideal_conj = [np.conj(state[:, 0]) for _, (state, _) in states]

    def worker(work: np.ndarray, lo_v: int, hi_v: int):
        u, _ = _variant_uniforms(master_seed, (), lo_v, hi_v, nu, work=work)
        settings = (u >= thresholds).view(np.int8)
        del u  # the draws, whose bytes the circuit takes
        fid = np.empty((hi_v - lo_v, len(cps)))
        fid[:, :n_prefix] = 1.0
        states = zip(ideal_conj, _segment_states(variants, settings, work))
        for m, (want, (state, spare)) in enumerate(states, n_prefix):
            # spare is free between segments; it holds the products
            np.multiply(state, want[:, None], out=spare)
            fid[:, m] = np.abs(_column_sums(spare)) ** 2
        return fid

    fids = np.concatenate(_map_variants(worker, n_variants, variants, threads, nu), axis=0)
    points = []
    for m, cp in enumerate(cps):
        col = fids[:, m]
        se = float(col.std(ddof=1) / math.sqrt(n_variants)) if n_variants > 1 else 0.0
        points.append(FidelityPoint(n_gates=cp, fidelity=float(col.mean()), std_error=se))
    return points


@dataclass(frozen=True)
class RmsPoint:
    """Observed and predicted error at one shot budget."""

    n_shots: int
    rms_error: float
    shot_noise: float
    worst_case: float


def rms_vs_shots(
    grid: NotchGrid,
    circuit: Sequence[tuple[PauliString, float]],
    observable: PauliString,
    shot_grid: Sequence[int],
    repeats: int,
    master_seed: int,
    *,
    threads: int = 1,
) -> list[RmsPoint]:
    """Root-mean-square estimator error versus shot budget.

    Budget ``i`` of ``shot_grid``, ``N`` shots, draws the one-shot bank
    ``pai_shot_bank(grid, circuit, observable, repeats * N, 1,
    master_seed, key=(i, 0))`` and splits it into ``repeats`` estimates:
    repeat ``r`` is the mean of variants ``r * N`` to ``(r + 1) * N - 1``.
    The RMS of the repeats is taken against the exact continuous value.
    Reported alongside are the direct-sampling shot-noise level
    ``sqrt((1 - o**2) / N)`` and the variance bound ``||g||_1 / sqrt(N)``.
    """
    observable = _require_pauli(observable)
    if repeats < 2:
        raise ValueError("repeats must be at least 2")
    shot_grid = [int(s) for s in shot_grid]
    if any(s < 1 for s in shot_grid):
        raise ValueError("shot budgets must be positive")
    circuit, n = _circuit_qubits(circuit, observable)
    dec = decompose_circuit(grid, circuit)
    exact = continuous_expectation(circuit, observable)
    terms = ((1.0, observable),)
    variants = _pai_circuit(dec, n)  # one build serves every budget
    points = []
    for i, n_shots in enumerate(shot_grid):

        def tally(lo, hi, signs, outcomes):
            # exact int64 sums of each repeat's part in this chunk, so no
            # repeat's mean depends on the chunking; repeat r is variants
            # r * n_shots to (r + 1) * n_shots - 1
            values = outcomes[:, 0, 0].astype(np.int64) * signs
            first = lo // n_shots
            cuts = np.arange(first * n_shots, hi, n_shots) - lo
            cuts[0] = 0
            return first, np.add.reduceat(values, cuts)

        sums = np.zeros(repeats, dtype=np.int64)
        parts = _pai_draws(
            dec, variants, terms, repeats * n_shots, 1, master_seed, (i, 0), threads, tally
        )
        for first, part in parts:
            sums[first : first + part.size] += part
        errs = dec.norm1_total * sums / n_shots - exact
        points.append(
            RmsPoint(
                n_shots=n_shots,
                rms_error=float(np.sqrt(np.mean(errs**2))),
                shot_noise=math.sqrt(max(1.0 - exact**2, 0.0) / n_shots),
                worst_case=dec.norm1_total / math.sqrt(n_shots),
            )
        )
    return points
