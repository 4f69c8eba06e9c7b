"""Sampled estimators: unbiasedness, determinism, error scaling."""

import math
import sys
import threading
import time

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.stats import chi2

import oracles
import pai.estimate
import pai.statevector as statevector
from pai.estimate import (
    EnumerationLimitError,
    _auto_chunk,
    _chunk_bounds,
    _simulate_variants,
    _variant_uniforms,
    continuous_expectation,
    continuous_shot_bank,
    exact_pai_expectation,
    nearest_notch_shot_bank,
    pai_shot_bank,
    per_variant_rows,
    rms_vs_shots,
    two_notch_fidelity_profile,
)
from pai.notch import NotchGrid, nearest_notch, round_params_to_grid
from pai.quasiprob import decompose_circuit
from pai.statevector import Observable, PauliString, Statevector, _setting_circuit, run_circuit

X, Y, Z = PauliString("X"), PauliString("Y"), PauliString("Z")
_SUM = Observable(terms=((0.5, PauliString("ZII")), (-0.3, PauliString("IXY"))))


def _fixed_circuit():
    return [
        (PauliString("XII"), 0.83),
        (PauliString("IYI"), 2.31),
        (PauliString("ZZI"), 4.07),
        (PauliString("IXY"), 1.19),
        (PauliString("YIZ"), 5.53),
    ]


# ----------------------------------------------------------- shot banks


def test_bank_values_have_constant_magnitude():
    grid = NotchGrid.uniform(4)
    bank = pai_shot_bank(grid, _fixed_circuit(), PauliString("ZII"), 64, 3, 5)
    vals = bank.values()
    assert vals.shape == (192,)
    np.testing.assert_allclose(np.abs(vals), bank.weight)
    assert set(np.unique(bank.outcomes)) <= {-1, 1}
    assert set(np.unique(bank.variant_signs)) <= {-1, 1}


def test_bank_result_summary_statistics():
    grid = NotchGrid.uniform(4)
    bank = pai_shot_bank(grid, _fixed_circuit(), PauliString("ZII"), 32, 4, 5)
    res = bank.result()
    vals = bank.values()
    assert res.mean == pytest.approx(vals.mean())
    assert res.std_error == pytest.approx(vals.std(ddof=1) / math.sqrt(vals.size))
    assert res.n_shots == 128
    assert res.n_variants == 32
    assert res.overhead_bound == pytest.approx(bank.weight**2)


def test_single_shot_bank_has_zero_std_error():
    grid = NotchGrid.uniform(4)
    bank = pai_shot_bank(grid, _fixed_circuit()[:1], PauliString("ZII"), 1, 1, 5)
    assert bank.result().std_error == 0.0


def test_per_variant_rows_are_consistent():
    grid = NotchGrid.uniform(4)
    bank = pai_shot_bank(grid, _fixed_circuit(), PauliString("ZII"), 8, 3, 5)
    rows = per_variant_rows(bank)
    assert [row[0] for row in rows] == list(range(8))
    for v, sign, outcome_mean, factor in rows:
        assert outcome_mean == pytest.approx(bank.outcomes[v].mean())
        assert factor == pytest.approx(sign * bank.weight)


def test_bank_validation():
    grid = NotchGrid.uniform(4)
    with pytest.raises(ValueError):
        pai_shot_bank(grid, _fixed_circuit(), PauliString("ZII"), 0, 3, 5)
    with pytest.raises(ValueError):
        pai_shot_bank(grid, _fixed_circuit(), PauliString("ZII"), 3, 0, 5)
    with pytest.raises(ValueError):
        pai_shot_bank(grid, _fixed_circuit(), Z, 3, 3, 5)  # qubit mismatch
    obs = Observable(terms=((1.0, PauliString("ZII")), (0.5, PauliString("IXI"))))
    with pytest.raises(ValueError):
        pai_shot_bank(grid, _fixed_circuit(), obs, 0, 3, 5)
    with pytest.raises(ValueError):
        pai_shot_bank(grid, _fixed_circuit(), obs, 3, 0, 5)
    with pytest.raises(ValueError):
        nearest_notch_shot_bank(grid, _fixed_circuit(), obs, 0, 5)
    with pytest.raises(ValueError):
        continuous_shot_bank(_fixed_circuit(), obs, 0, 5)


# ---------------------------------------------------------- determinism


def test_pai_bank_is_reproducible_and_key_separated():
    grid = NotchGrid.uniform(5)
    a = pai_shot_bank(grid, _fixed_circuit(), PauliString("ZII"), 40, 2, 9)
    b = pai_shot_bank(grid, _fixed_circuit(), PauliString("ZII"), 40, 2, 9)
    assert np.array_equal(a.outcomes, b.outcomes)
    assert np.array_equal(a.variant_signs, b.variant_signs)
    d = pai_shot_bank(grid, _fixed_circuit(), PauliString("ZII"), 40, 2, 10)
    assert not np.array_equal(a.outcomes, d.outcomes)
    # the key the vqe path threads through separates the variant streams
    u, u_shots = _variant_uniforms(9, (), 0, 40, 5, 2)
    u_keyed, shots_keyed = _variant_uniforms(9, (4,), 0, 40, 5, 2)
    assert not np.array_equal(u, u_keyed)
    assert not np.array_equal(u_shots, shots_keyed)


def _n_chunks(n_variants: int, num_qubits: int) -> int:
    return len(_chunk_bounds(n_variants, _auto_chunk(1 << num_qubits)))


def test_thread_count_never_changes_results():
    grid = NotchGrid.uniform(5)
    # three chunks, so the threaded run really splits the variants
    assert _n_chunks(4200, 3) == 3
    args = (grid, _fixed_circuit(), PauliString("ZII"), 4200, 2, 9)
    one = pai_shot_bank(*args, threads=1)
    four = pai_shot_bank(*args, threads=4)
    assert np.array_equal(one.outcomes, four.outcomes)
    assert np.array_equal(one.variant_signs, four.variant_signs)
    assert one.weight == four.weight


def test_chunk_rows_follow_the_cache_budget():
    # at most 2**15 amplitudes per chunk buffer of the state a circuit runs
    # on, at most 2,048 rows and at least one: in the parity frame, on
    # 2**(n-1) amplitudes, 2,048 rows at 4 qubits, 256 at 8 and 16 at 12;
    # on the full state 128 at 8 qubits; one row from 2**15 amplitudes up
    assert _auto_chunk(1 << 3) == _auto_chunk(1 << 4) == 2048
    assert _auto_chunk(1 << 7) == 256
    assert _auto_chunk(1 << 11) == 16
    assert _auto_chunk(1 << 8) == 128
    assert _auto_chunk(1 << 20) == 1
    for n in range(1, 25):
        dim = 1 << n
        assert 1 <= _auto_chunk(dim) <= 2048
        assert _auto_chunk(dim) * dim <= max(2**15, dim)


def _chunked_runs(threads: int):
    grid = NotchGrid.uniform(4)
    circuit = _fixed_circuit()
    banks = [
        pai_shot_bank(grid, circuit, obs, 150, 3, 9, key=(2,), threads=threads)
        for obs in (PauliString("ZII"), _SUM)
    ]
    profile = two_notch_fidelity_profile(grid, circuit, [0, 2, 5], 150, 4, threads=threads)
    rms = rms_vs_shots(grid, circuit, PauliString("ZII"), [5, 30], 4, 9, threads=threads)
    return banks, profile, rms


@pytest.mark.parametrize("chunk", [1, 2, 7, 16, 2048])
def test_chunk_size_never_changes_results(chunk, monkeypatch):
    want_banks, want_profile, want_rms = _chunked_runs(1)
    monkeypatch.setattr(pai.estimate, "_auto_chunk", lambda dim: chunk)
    for threads in (1, 3):
        banks, profile, rms = _chunked_runs(threads)
        for got, want in zip(banks, want_banks):
            np.testing.assert_array_equal(got.outcomes, want.outcomes)
            np.testing.assert_array_equal(got.variant_signs, want.variant_signs)
            assert got.weight == want.weight
        assert profile == want_profile
        assert rms == want_rms


def _ring_circuit():
    # 12 qubits: the Neel X gates and one Trotter layer, 54 gates
    from pai.models import TrotterSpec, neel_prep_circuit, spin_ring, trotter_circuit

    return neel_prep_circuit(12) + trotter_circuit(spin_ring(12, 0.3, 11), TrotterSpec(1.0, 1))


def _ring_profile(threads: int):
    grid = NotchGrid.uniform(7)
    return two_notch_fidelity_profile(grid, _ring_circuit(), [6, 30, 54], 20, 7, threads=threads)


def test_twelve_qubit_profile_never_depends_on_chunks_or_threads(monkeypatch):
    # the profile runs in the parity frame, on 2**11 amplitudes, so 20
    # variants make two chunks of the auto chunk, 16 + 4 rows
    variants = _two_notch_circuit(NotchGrid.uniform(7), _ring_circuit(), [6, 30, 54])
    assert variants.sector == 0 and variants.initial.shape == (2048,)
    assert len(_chunk_bounds(20, _auto_chunk(2048))) == 2
    want = _ring_profile(1)
    assert [p.n_gates for p in want] == [6, 30, 54]
    assert _ring_profile(3) == want
    for chunk in (1, 7):
        monkeypatch.setattr(pai.estimate, "_auto_chunk", lambda dim: chunk)
        for threads in (1, 3):
            assert _ring_profile(threads) == want


def test_block_tables_are_looked_up_once_per_circuit(monkeypatch):
    # the blocks are compiled once per circuit, and once per checkpoint
    # segment for the profile, so the look-ups do not grow with the chunks
    calls = []
    lookup = statevector._block_table

    def spy(local, angles, *gather):
        calls.append(local)
        return lookup(local, angles, *gather)

    monkeypatch.setattr(statevector, "_block_table", spy)
    grid, circuit = NotchGrid.uniform(4), _fixed_circuit()
    counts = []
    for chunk in (2048, 7, 1):
        monkeypatch.setattr(pai.estimate, "_auto_chunk", lambda dim: chunk)
        calls.clear()
        pai_shot_bank(grid, circuit, PauliString("ZII"), 40, 2, 9)
        bank = len(calls)
        calls.clear()
        two_notch_fidelity_profile(grid, circuit, [0, 2, 5], 40, 4, threads=2)
        counts.append((bank, len(calls)))
    assert counts[0][0] > 0 and counts[0][1] > 0
    assert counts == [counts[0]] * 3


@pytest.mark.parametrize("workload", ["fidelity", "rms"])
def test_a_run_builds_one_setting_circuit(workload, monkeypatch):
    # the profile's ideal states are a row of the variants' circuit, and
    # every budget of an rms sweep runs on the one circuit of its bank
    built = []
    build = pai.estimate._setting_circuit

    def spy(*args, **kwargs):
        built.append(build(*args, **kwargs))
        return built[-1]

    monkeypatch.setattr(pai.estimate, "_setting_circuit", spy)
    grid, circuit = NotchGrid.uniform(5), _quench(4, 5, 1.0, 2)
    if workload == "fidelity":
        two_notch_fidelity_profile(grid, circuit, [0, 2, 9, len(circuit)], 20, 4, threads=2)
    else:
        rms_vs_shots(grid, circuit, PauliString("ZIII"), [2, 5, 9], 3, 4, threads=2)
    assert len(built) == 1


def test_simulate_variants_matches_gate_by_gate_reference(rng):
    # the first two gates take setting 0 in every variant, so they run once
    # as the fixed prefix; gate 3 is marked too, but the prefix stops at
    # gate 2, so it runs per variant with the rest
    circuit = oracles.random_circuit(rng, 4, 12)
    table = rng.uniform(-2 * np.pi, 2 * np.pi, size=(len(circuit), 3))
    settings = rng.integers(0, 3, size=(37, len(circuit))).astype(np.int8)
    settings[:, :2] = 0
    fixed = [True, True, False, True] + [False] * 8
    variants = _setting_circuit([g for g, _ in circuit], table, fixed, 4)
    assert variants.start == 2
    terms = tuple((1.0, PauliString(p)) for p in ("ZIII", "IXYI", "YZIX", "XXXX", "IIZZ"))
    got = _simulate_variants(variants, settings, terms)
    want = np.zeros((37, 16), dtype=np.complex128)
    want[:, 0] = 1.0
    for j, (generator, _) in enumerate(circuit):
        angles = table[j, settings[:, j]]
        want = oracles.gather_rotate_batch(want, generator.letters, angles)
    np.testing.assert_allclose(got, statevector.term_expectations(want.T, terms), rtol=0, atol=1e-12)


def _quench(n, model_seed, total_time, layers):
    from pai.models import TrotterSpec, neel_prep_circuit, spin_ring, trotter_circuit

    model = spin_ring(n, 0.3, model_seed)
    return neel_prep_circuit(n) + trotter_circuit(model, TrotterSpec(total_time, layers))


def _two_notch_circuit(grid, circuit, cps):
    """The profile's :class:`_SettingCircuit`, as the profile builds it."""
    from pai.notch import locate

    angles = np.array([angle for _, angle in circuit])
    pos = locate(grid, angles)
    table = np.stack([grid.angle(pos.k), grid.angle(pos.k + 1), angles], axis=1)
    n = circuit[0][0].num_qubits
    return _setting_circuit([g for g, _ in circuit], table, 1.0 - pos.lam >= 1.0, n, cuts=cps)


@pytest.mark.parametrize(
    "workload, n, bits, total_time, layers",
    [("trotter", 8, 5, 2.0, 12), ("rms", 4, 5, 0.5, 2), ("fidelity", 12, 7, 1.0, 37)],
)
def test_workload_prefix_states_are_exact(workload, n, bits, total_time, layers):
    # the Neel X at pi leaves exactly one nonzero amplitude, so every
    # segment is compiled for that parity and runs blocks on the half
    grid = NotchGrid.uniform(bits)
    circuit = _quench(n, 11, total_time, layers)
    if workload == "fidelity":
        cps = sorted(set(int(round(c)) for c in np.linspace(0, len(circuit), 13)))
        variants = _two_notch_circuit(grid, circuit, cps)
        assert cps[0] <= variants.start < cps[1]  # checkpoint 0, inside the prefix
    else:
        variants = pai.estimate._pai_circuit(decompose_circuit(grid, circuit), n)
    assert variants.start == n // 2
    assert np.count_nonzero(variants.initial) == 1
    assert all(program.sector == 0 for _, _, program in variants.segments)


@pytest.mark.parametrize(
    "n, bits, total_time, layers, shots, bound",
    [(8, 5, 2.0, 12, 10, 1.6), (4, 5, 0.5, 2, 1, 2.8)],
    ids=["trotter", "rms"],
)
def test_a_chunk_holds_little_more_than_its_two_state_buffers(
    n, bits, total_time, layers, shots, bound
):
    # one chunk of _pai_draws at the trotter shape (8 qubits, 256 rows of
    # the 128-amplitude half state, 10 shots) and the rms shape (4 qubits,
    # 2,048 rows, one shot): the draws are freed before the circuit runs,
    # the codes' scratch before the blocks and the term read stays in the
    # spare buffer, so the traced peak is at most 1.6x and 2.8x the two
    # (size, V) complex buffers
    import tracemalloc

    dec = decompose_circuit(NotchGrid.uniform(bits), _quench(n, 11, total_time, layers))
    circuit = pai.estimate._pai_circuit(dec, n)
    size = circuit.initial.shape[0]
    rows = _auto_chunk(size)
    terms = ((1.0, PauliString("Z" + "I" * (n - 1))),)

    def chunk():
        parts = pai.estimate._pai_draws(
            dec, circuit, terms, rows, shots, 3, (0, 0), 1, lambda lo, hi, *_: hi - lo
        )
        assert parts == [rows]

    chunk()  # block tables and phase tables are cached by the first run
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        chunk()
        peak = tracemalloc.get_traced_memory()[1] - base
    finally:
        tracemalloc.stop()
    assert peak <= bound * 2 * size * rows * 16


_GARBAGE = np.random.default_rng(2026).integers(0, 256, 4096, dtype=np.uint8)


def _fill_nan(work):
    work.view(np.float64)[:] = np.nan


def _fill_garbage(work):
    work[:] = np.resize(_GARBAGE, work.size)


def _pai_chunks(dec, num_qubits: int, n_variants: int) -> int:
    circuit = pai.estimate._pai_circuit(dec, num_qubits)
    return len(_chunk_bounds(n_variants, _auto_chunk(circuit.initial.shape[0])))


def _fixed_setting_circuit():
    return pai.estimate._pai_circuit(decompose_circuit(NotchGrid.uniform(4), _fixed_circuit()), 3)


def _workspace_runs(threads: int):
    # a trotter-shape bank of three 256-row chunks, a 2-budget rms sweep
    # whose second budget takes two chunks, the 12-qubit profile's two
    # chunks of three segments and an enumeration of four chunks
    grid = NotchGrid.uniform(5)
    dec = decompose_circuit(grid, _quench(8, 11, 1.0, 2))
    assert _pai_chunks(dec, 8, 600) == 3
    trotter = _quench(8, 11, 1.0, 2)
    bank = pai_shot_bank(grid, trotter, PauliString("ZIIIIIII"), 600, 3, 5, threads=threads)
    ring = _quench(4, 5, 0.5, 2)
    rms = rms_vs_shots(grid, ring, PauliString("ZIII"), [5, 600], 4, 9, threads=threads)
    profile = _ring_profile(threads)
    circuit = oracles.random_circuit(np.random.default_rng(8), 3, 8)
    exact = exact_pai_expectation(grid, circuit, _SUM)
    return bank.outcomes, bank.variant_signs, rms, profile, exact


@pytest.mark.parametrize("fill", [_fill_nan, _fill_garbage], ids=["nan", "garbage"])
def test_no_chunk_reads_stale_workspace_bytes(fill, monkeypatch):
    # every chunk finds its thread's workspace filled with NaN, or with a
    # fixed byte pattern, and still gives the bits of a plain run: no view
    # of the workspace is read before the chunk writes it
    want = _workspace_runs(1)
    run_map = pai.estimate._map_variants
    filled = []

    def dirty_map(worker, *args, **kwargs):
        def dirty(work, lo, hi):
            fill(work)
            filled.append(work.size)
            return worker(work, lo, hi)

        return run_map(dirty, *args, **kwargs)

    monkeypatch.setattr(pai.estimate, "_map_variants", dirty_map)
    for threads in (1, 3):
        filled.clear()
        outcomes, signs, rms, profile, exact = _workspace_runs(threads)
        np.testing.assert_array_equal(outcomes, want[0])
        np.testing.assert_array_equal(signs, want[1])
        assert rms == want[2]
        assert profile == want[3]
        assert exact == want[4]
        assert len(filled) == 3 + (1 + 2) + 2 + 4


@pytest.mark.parametrize("threads", [1, 2, 3, 8])
def test_chunks_that_finish_out_of_order_keep_chunk_order(threads):
    # six chunks of 2,048 rows sleep a seeded random time each; with more
    # than one thread, chunk 0 also waits for another chunk to finish, so
    # results are stored out of order, and eight threads outnumber the chunks
    circuit = _fixed_setting_circuit()
    rows = _auto_chunk(circuit.initial.shape[0])
    n_variants = 5 * rows + 7
    delays = np.random.default_rng(26).uniform(0.0, 0.01, 6)
    finished = []
    other_done = threading.Event()

    def worker(work, lo, hi):
        assert work.dtype == np.uint8
        if lo == 0 and threads > 1:
            assert other_done.wait(timeout=10.0)
        time.sleep(delays[lo // rows])
        finished.append(lo // rows)
        if lo:
            other_done.set()
        return lo, hi, (hi - lo) ** 2

    got = pai.estimate._map_variants(worker, n_variants, circuit, threads)
    want = [(lo, hi, (hi - lo) ** 2) for lo, hi in _chunk_bounds(n_variants, rows)]
    assert len(want) == 6
    assert got == want
    assert sorted(finished) == list(range(6))
    assert (finished != sorted(finished)) == (threads > 1)


def test_every_chunk_is_claimed_once_under_contention():
    # eight threads on 300 instant chunks, switching every microsecond: a
    # chunk index claimed twice, or never, breaks the call count or the list
    circuit = _fixed_setting_circuit()
    rows = _auto_chunk(circuit.initial.shape[0])
    calls = []

    def worker(work, lo, hi):
        calls.append(lo)
        return lo

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        got = pai.estimate._map_variants(worker, 300 * rows, circuit, 8)
    finally:
        sys.setswitchinterval(interval)
    assert got == list(range(0, 300 * rows, rows))
    assert sorted(calls) == got


@pytest.mark.parametrize("run", ["trotter", "rms"])
def test_each_thread_allocates_one_workspace_per_call(run, monkeypatch):
    # a 9-chunk trotter bank at one thread and a 20-chunk rms budget at two
    # threads: one workspace per thread that runs chunks, not per chunk, and
    # the calling thread is one of them
    made = []
    workspace = pai.estimate._workspace

    def spy(nbytes):
        made.append(threading.get_ident())
        return workspace(nbytes)

    monkeypatch.setattr(pai.estimate, "_workspace", spy)
    grid = NotchGrid.uniform(5)
    if run == "trotter":
        dec = decompose_circuit(grid, _quench(8, 11, 2.0, 12))
        assert _pai_chunks(dec, 8, 2100) == 9
        pai_shot_bank(grid, _quench(8, 11, 2.0, 12), PauliString("ZIIIIIII"), 2100, 1, 3)
        assert made == [threading.get_ident()]
    else:
        assert len(_chunk_bounds(20 * 2048, _auto_chunk(8))) == 20
        rms_vs_shots(grid, _quench(4, 5, 0.5, 2), PauliString("ZIII"), [2048], 20, 3, threads=2)
        assert threading.get_ident() in made
        assert len(made) == len(set(made)) <= 2


def test_mean_variant_sign_is_the_inverse_weight_at_depth():
    # each gate's gammas sum to 1, so a variant's sign, the product of its
    # settings' signs, has mean prod_j sum_s gamma_js / ||gamma_j||_1 = 1/w
    # exactly; on the 388-gate trotter circuit the bank's mean sign lies
    # within 5 sigma of it, sigma the spread of the mean of V signs of +-1
    grid = NotchGrid.uniform(5)
    circuit = _quench(8, 11, 2.0, 12)
    assert len(circuit) == 388
    dec = decompose_circuit(grid, circuit)
    np.testing.assert_allclose(dec.gammas.sum(axis=1), 1.0, rtol=0, atol=1e-12)
    n_variants = 10_000
    bank = pai_shot_bank(grid, circuit, PauliString("ZIIIIIII"), n_variants, 1, 7)
    w = bank.weight
    assert w == dec.norm1_total and w > 5.0
    sigma = math.sqrt((1.0 - 1.0 / w**2) / n_variants)
    assert abs(bank.variant_signs.mean() - 1.0 / w) <= 5.0 * sigma


def test_a_circuit_with_a_parity_flipping_gate_runs_every_segment_on_the_full_state(rng):
    # one frame per circuit: an X on one qubit in the third segment sends
    # every segment, the first two included, to the full state; each
    # segment's state follows the gather oracle
    grid = NotchGrid.uniform(5)
    circuit = _quench(4, 5, 1.0, 3)
    cps = [8, 14, 25, 32, len(circuit) + 1]
    assert _two_notch_circuit(grid, circuit, cps[:-1] + [len(circuit)]).sector == 0
    circuit = circuit[:20] + [(PauliString("IXII"), 0.4)] + circuit[20:]
    variants = _two_notch_circuit(grid, circuit, cps)
    assert variants.sector is None
    assert [program.sector for _, _, program in variants.segments] == [None] * 5
    assert variants.initial.shape == (16,)
    settings = rng.integers(0, 2, (5, len(circuit))).astype(np.int8)
    settings[:, : variants.start] = 0
    pos = pai.estimate.locate(grid, np.array([angle for _, angle in circuit]))
    table = grid.angle(np.stack([pos.k, pos.k + 1], axis=1))
    want = np.zeros((5, 16), dtype=np.complex128)
    want[:, 0] = 1.0
    lo = 0
    states = statevector._segment_states(variants, settings)
    for (_, cp, _), (state, _) in zip(variants.segments, states):
        for j in range(lo, cp):
            want = oracles.gather_rotate_batch(want, circuit[j][0].letters, table[j, settings[:, j]])
        np.testing.assert_allclose(state.T, want, rtol=0, atol=1e-12)
        lo = cp


def test_pauli_sum_banks_read_in_the_frame_match_the_full_state(monkeypatch):
    # the vqe pai path: the ring Hamiltonian's Z, XX, YY and ZZ terms read
    # on the half state of the parity frame give the outcomes of the same
    # bank run and read on the full state, where each term is itself
    from pai.models import spin_ring

    grid = NotchGrid.uniform(5)
    circuit = _quench(4, 3, 0.7, 2)
    obs = spin_ring(4, 0.3, 3).observable()
    assert {p.letters for _, p in obs.terms} >= {"XXII", "YYII", "ZZII", "ZIII", "XIIX"}
    dec = decompose_circuit(grid, circuit)
    assert pai.estimate._pai_circuit(dec, 4).sector == 0
    frame = pai_shot_bank(grid, circuit, obs, 300, 4, 5, key=(3,))
    monkeypatch.setattr(statevector, "_parity", lambda amps: None)
    assert pai.estimate._pai_circuit(dec, 4).sector is None
    full = pai_shot_bank(grid, circuit, obs, 300, 4, 5, key=(3,))
    np.testing.assert_array_equal(frame.outcomes, full.outcomes)
    np.testing.assert_array_equal(frame.variant_signs, full.variant_signs)


def test_checkpoints_inside_the_prefix_read_the_shared_row():
    # the Neel prefix runs once across checkpoints 0 to 3, on the row that
    # every variant and the ideal share, so they read 1 with no spread; the
    # later points are those of a profile without them, at any thread count
    grid = NotchGrid.uniform(5)
    circuit = _quench(6, 5, 1.0, 2)
    cps = [0, 1, 2, 3, 20, len(circuit)]
    variants = _two_notch_circuit(grid, circuit, cps)
    assert variants.start == 3
    assert [lo for lo, _, _ in variants.segments] == [3, 20]
    points = two_notch_fidelity_profile(grid, circuit, cps, 30, 4)
    assert [(p.fidelity, p.std_error) for p in points[:4]] == [(1.0, 0.0)] * 4
    assert points[4:] == two_notch_fidelity_profile(grid, circuit, cps[4:], 30, 4)
    assert points == two_notch_fidelity_profile(grid, circuit, cps, 30, 4, threads=2)


def test_bank_keys_reject_words_that_would_alias():
    # a key word of 2**32 would name the same stream as two 32-bit words
    grid, obs = NotchGrid.uniform(4), PauliString("ZII")
    with pytest.raises(ValueError, match="2\\*\\*32"):
        pai_shot_bank(grid, _fixed_circuit(), obs, 4, 1, 7, key=(2**32,))
    with pytest.raises(ValueError, match="2\\*\\*32"):
        nearest_notch_shot_bank(grid, _fixed_circuit(), obs, 4, 7, key=(0, 2**40))


def test_first_variant_regenerates_in_isolation():
    # the documented stream contract: variant v depends only on
    # (master_seed, v), never on how many variants ran
    grid = NotchGrid.uniform(5)
    # ten terms at one shot: a shot's term sum must not depend on the chunk
    letters = ["ZII", "IZI", "IIZ", "XII", "IXI", "IIX", "ZZI", "IZZ", "XXI", "YYI"]
    wide = Observable(
        terms=tuple((0.1 + 0.37 * k, PauliString(p)) for k, p in enumerate(letters))
    )
    for obs, shots in ((PauliString("ZII"), 4), (wide, 1)):
        small = pai_shot_bank(grid, _fixed_circuit(), obs, 1, shots, 9)
        large = pai_shot_bank(grid, _fixed_circuit(), obs, 300, shots, 9)
        np.testing.assert_array_equal(small.outcomes[0], large.outcomes[0])
        assert small.variant_signs[0] == large.variant_signs[0]


# --------------------------------------------------------- unbiasedness


def test_pai_estimate_is_unbiased_across_seeds():
    grid = NotchGrid.uniform(4)
    circuit = _fixed_circuit()
    obs = PauliString("ZII")
    exact = continuous_expectation(circuit, obs)
    hits = 0
    runs = 100
    for seed in range(runs):
        res = pai_shot_bank(grid, circuit, obs, 400, 2, seed).result()
        if abs(res.mean - exact) <= 5 * res.std_error:
            hits += 1
    assert hits >= 99


def test_single_shot_values_follow_the_exact_law():
    # a single-shot value is +w or -w, +w with probability (1 + o/w) / 2,
    # so its variance is w**2 - o**2 (o the continuous expectation)
    grid = NotchGrid.uniform(4)
    circuit = _fixed_circuit()
    obs = PauliString("ZII")
    n = 40_000
    bank = pai_shot_bank(grid, circuit, obs, n, 1, 13, threads=2)
    w = bank.weight
    o = continuous_expectation(circuit, obs)
    vals = bank.values()
    assert w > 1.0 and np.all(np.abs(vals) == w)
    p = 0.5 * (1.0 + o / w)
    plus = int(np.count_nonzero(vals > 0))
    assert abs(plus - n * p) <= 4.0 * math.sqrt(n * p * (1.0 - p))
    # (n - 1) s**2 / sigma**2 against chi-square(n - 1) at a 1e-4 two-sided
    # level; for 0.21 < p < 0.79 a two-point law spreads s**2 less than a
    # normal one, so the interval is conservative
    assert 0.21 < p < 0.79
    stat = (n - 1) * vals.var(ddof=1) / (w**2 - o**2)
    assert chi2.ppf(5e-5, n - 1) <= stat <= chi2.ppf(1.0 - 5e-5, n - 1)


def test_on_notch_circuit_collapses_to_plain_sampling():
    grid = NotchGrid.uniform(5)
    d = grid.delta_max
    circuit = [(PauliString("XI"), 4 * d), (PauliString("IY"), 9 * d)]
    bank = pai_shot_bank(grid, circuit, PauliString("ZI"), 30, 5, 3)
    assert bank.weight == 1.0
    assert np.all(bank.variant_signs == 1)
    res = bank.result()
    exact = continuous_expectation(circuit, PauliString("ZI"))
    assert abs(res.mean - exact) <= 5 * max(res.std_error, 1e-3)


# ------------------------------------------------------ reference banks


def test_nearest_notch_estimate_targets_the_rounded_circuit():
    grid = NotchGrid.uniform(3)  # coarse on purpose
    circuit = [(X, 1.1)]
    rounded_angle = grid.angle(nearest_notch(grid, 1.1))
    rounded_ev = continuous_expectation([(X, rounded_angle)], Z)
    res = nearest_notch_shot_bank(grid, circuit, Z, 60_000, 11).result()
    sigma = math.sqrt((1 - rounded_ev**2) / 60_000)
    assert abs(res.mean - rounded_ev) < 5 * sigma
    # and the rounding bias is visible relative to the true value
    true_ev = continuous_expectation(circuit, Z)
    assert abs(res.mean - true_ev) > 5 * sigma
    assert res.overhead_bound == 1.0


def test_continuous_estimate_matches_exact_expectation():
    circuit = _fixed_circuit()
    obs = PauliString("ZII")
    exact = continuous_expectation(circuit, obs)
    res = continuous_shot_bank(circuit, obs, 60_000, 11).result()
    sigma = math.sqrt((1 - exact**2) / 60_000)
    assert abs(res.mean - exact) < 5 * sigma


def test_reference_banks_use_separate_streams():
    circuit = _fixed_circuit()
    obs = PauliString("ZII")
    near = nearest_notch_shot_bank(NotchGrid.uniform(9), circuit, obs, 512, 11)
    cont = continuous_shot_bank(circuit, obs, 512, 11)
    # at 9 bits the rounded circuit is nearly identical, but the outcome
    # streams must still differ because the stream keys differ
    assert not np.array_equal(near.outcomes, cont.outcomes)


# ------------------------------------------------- Pauli-sum estimators


def test_single_term_observable_banks_match_the_string_banks():
    # a string is the one-term sum with coefficient 1: the same streams,
    # the same +-1 per shot
    grid = NotchGrid.uniform(4)
    circuit = _fixed_circuit()
    pauli = PauliString("ZII")
    obs = Observable(terms=((1.0, pauli),))
    banks = [
        lambda o: pai_shot_bank(grid, circuit, o, 50, 3, 5, key=(2,)),
        lambda o: nearest_notch_shot_bank(grid, circuit, o, 400, 5, key=(2,)),
        lambda o: continuous_shot_bank(circuit, o, 400, 5),
    ]
    for bank in banks:
        want, got = bank(pauli), bank(obs)
        np.testing.assert_array_equal(got.values(), want.values())
        np.testing.assert_array_equal(got.variant_signs, want.variant_signs)


def test_observable_means_combine_their_terms(rng):
    grid = NotchGrid.uniform(5)
    circuit = oracles.random_circuit(rng, 2, 6)
    obs = Observable(terms=((0.7, PauliString("ZI")), (-0.4, PauliString("XY"))))
    exact = continuous_expectation(circuit, obs)
    angles = round_params_to_grid(grid, [a for _, a in circuit])
    rounded = [(g, a) for (g, _), a in zip(circuit, angles)]
    want_near = continuous_expectation(rounded, obs)
    n = 20_000
    se = 1.1 / math.sqrt(n)
    near = nearest_notch_shot_bank(grid, circuit, obs, n, 3).result()
    assert abs(near.mean - want_near) < 5 * se
    cont = continuous_shot_bank(circuit, obs, n, 3).result()
    assert abs(cont.mean - exact) < 5 * se
    bank = pai_shot_bank(grid, circuit, obs, n, 1, 3, key=(2,))
    assert abs(bank.result().mean - exact) < 5 * bank.weight * se
    # a shot's value is the coefficient-weighted sum of its terms' +-1
    # outcomes, so it takes one of the four values +-0.7 +- 0.4
    assert set(np.round(np.unique(bank.outcomes), 12)) <= {-1.1, -0.3, 0.3, 1.1}


# ------------------------------------------------------ exact enumeration


def test_exact_enumeration_single_gate_cosine():
    grid = NotchGrid.uniform(4)
    assert exact_pai_expectation(grid, [(X, 1.234)], Z) == pytest.approx(
        math.cos(1.234), abs=1e-12
    )


def test_exact_enumeration_empty_circuit():
    grid = NotchGrid.uniform(4)
    assert exact_pai_expectation(grid, [], Z) == pytest.approx(1.0)


def test_exact_enumeration_depth_cap():
    grid = NotchGrid.uniform(4)
    with pytest.raises(EnumerationLimitError):
        exact_pai_expectation(grid, [(X, 0.3)] * 11, Z)


@given(
    bits=st.integers(min_value=3, max_value=7),
    n=st.integers(min_value=1, max_value=3),
    nu=st.integers(min_value=0, max_value=6),
    seed=st.integers(min_value=0, max_value=2**16),
)
@settings(max_examples=15)
def test_exact_enumeration_equals_continuous(bits, n, nu, seed):
    # the defining property: summing all weighted variants reproduces the
    # continuous-angle expectation exactly
    rng = np.random.default_rng(seed)
    grid = NotchGrid.uniform(bits)
    circuit = oracles.random_circuit(rng, n, nu)
    obs = PauliString(oracles.random_pauli_letters(rng, n))
    got = exact_pai_expectation(grid, circuit, obs)
    want = continuous_expectation(circuit, obs)
    assert got == pytest.approx(want, abs=1e-10)


def test_exact_enumeration_chunks_by_the_qubit_count(monkeypatch):
    # 3**7 = 2,187 variants on 11 qubits: each chunk row is a 2**11 state,
    # so the rows per chunk follow the same memory budget as sampling
    rows = []
    states = statevector._segment_states

    def spy(circuit, settings, work=None):
        rows.append(settings.shape[0])
        return states(circuit, settings, work)

    monkeypatch.setattr(pai.estimate, "_segment_states", spy)
    grid = NotchGrid.uniform(4)
    circuit = [
        (PauliString("I" * q + "X" + "I" * (10 - q)), 0.3 + 0.4 * q) for q in range(7)
    ]
    obs = PauliString("Z" * 7 + "I" * 4)
    got = exact_pai_expectation(grid, circuit, obs)
    assert sum(rows) == 3**7
    assert max(rows) <= _auto_chunk(2048)
    assert got == pytest.approx(continuous_expectation(circuit, obs), abs=1e-10)


def test_exact_enumeration_supports_observables():
    grid = NotchGrid.uniform(5)
    circuit = [(PauliString("XI"), 0.7), (PauliString("IY"), 1.3)]
    obs = Observable(terms=((0.5, PauliString("ZI")), (0.25, PauliString("IZ"))))
    got = exact_pai_expectation(grid, circuit, obs)
    want = continuous_expectation(circuit, obs)
    assert got == pytest.approx(want, abs=1e-10)


# ------------------------------------------------------- two-notch scheme


def test_two_notch_on_notch_circuit_keeps_unit_fidelity():
    grid = NotchGrid.uniform(5)
    d = grid.delta_max
    circuit = [(PauliString("XI"), 3 * d), (PauliString("IY"), 17 * d)]
    points = two_notch_fidelity_profile(grid, circuit, [0, 1, 2], 20, 3)
    for p in points:
        assert p.fidelity == pytest.approx(1.0, abs=1e-12)
        assert p.std_error == pytest.approx(0.0, abs=1e-12)


def test_two_notch_profile_shape_and_decay(rng):
    grid = NotchGrid.uniform(4)
    circuit = oracles.random_circuit(rng, 3, 40)
    points = two_notch_fidelity_profile(grid, circuit, [0, 10, 20, 40], 120, 3)
    assert [p.n_gates for p in points] == [0, 10, 20, 40]
    assert points[0].fidelity == pytest.approx(1.0)
    assert points[0].std_error == 0.0
    # off-notch angles leak fidelity; the full-depth mean must sit clearly
    # below the start
    assert points[-1].fidelity < 1.0 - 5 * max(points[-1].std_error, 1e-12)


def test_two_notch_profile_matches_gate_by_gate_reference():
    # checkpoints 5 and 8 fall inside bond triples of the 3-qubit ring, so
    # the fused segments split those blocks
    from pai.models import TrotterSpec, neel_prep_circuit, spin_ring, trotter_circuit
    from pai.notch import locate

    grid = NotchGrid.uniform(4)
    circuit = neel_prep_circuit(3) + trotter_circuit(spin_ring(3, 0.3, 2), TrotterSpec(0.8, 1))
    cps = [0, 5, 8, len(circuit)]
    points = two_notch_fidelity_profile(grid, circuit, cps, 37, 4)
    u, _ = _variant_uniforms(4, (), 0, 37, len(circuit))
    pos = [locate(grid, angle) for _, angle in circuit]
    angles = np.where(
        u < [1.0 - p.lam for p in pos],
        [grid.angle(p.k) for p in pos],
        [grid.angle((p.k + 1) % grid.size) for p in pos],
    )
    state = np.zeros((37, 8), dtype=np.complex128)
    state[:, 0] = 1.0
    for j in range(len(circuit) + 1):
        if j in cps:
            ideal = oracles.circuit_matrix(circuit[:j], 3)[:, 0]
            fid = np.abs(state @ ideal.conj()) ** 2
            point = points[cps.index(j)]
            assert point.n_gates == j
            assert abs(point.fidelity - fid.mean()) < 1e-12
            assert abs(point.std_error - fid.std(ddof=1) / math.sqrt(37)) < 1e-12
        if j < len(circuit):
            state = oracles.gather_rotate_batch(state, circuit[j][0].letters, angles[:, j])


def test_two_notch_threads_do_not_change_results(rng):
    grid = NotchGrid.uniform(4)
    circuit = oracles.random_circuit(rng, 2, 30)
    assert _n_chunks(2500, 2) == 2
    a = two_notch_fidelity_profile(grid, circuit, [0, 15, 30], 2500, 3, threads=1)
    b = two_notch_fidelity_profile(grid, circuit, [0, 15, 30], 2500, 3, threads=3)
    for pa, pb in zip(a, b):
        assert pa == pb


def test_two_notch_checkpoint_validation(rng):
    grid = NotchGrid.uniform(4)
    circuit = oracles.random_circuit(rng, 2, 5)
    with pytest.raises(ValueError):
        two_notch_fidelity_profile(grid, circuit, [0, 6], 10, 3)
    with pytest.raises(ValueError):
        two_notch_fidelity_profile(grid, circuit, [-1, 3], 10, 3)
    with pytest.raises(ValueError):
        two_notch_fidelity_profile(grid, circuit, [0, 3], 0, 3)


# ---------------------------------------------------------- rms vs shots


def test_rms_points_report_the_documented_bounds():
    grid = NotchGrid.uniform(5)
    circuit = _fixed_circuit()
    obs = PauliString("ZII")
    weight = decompose_circuit(grid, circuit).norm1_total
    exact = continuous_expectation(circuit, obs)
    pts = rms_vs_shots(grid, circuit, obs, [1, 16, 64], 4, 7)
    assert [p.n_shots for p in pts] == [1, 16, 64]
    for p in pts:
        assert p.worst_case == pytest.approx(weight / math.sqrt(p.n_shots))
        assert p.shot_noise == pytest.approx(
            math.sqrt((1 - exact**2) / p.n_shots)
        )


def test_rms_on_notch_matches_binomial_noise():
    # with every angle on a notch the estimator is plain shot sampling, so
    # the rms must track the binomial prediction
    grid = NotchGrid.uniform(5)
    d = grid.delta_max
    circuit = [(X, 5 * d)]
    exact = continuous_expectation(circuit, Z)
    pts = rms_vs_shots(grid, circuit, Z, [64, 256], 400, 7)
    for p in pts:
        predicted = math.sqrt((1 - exact**2) / p.n_shots)
        assert p.rms_error == pytest.approx(predicted, rel=0.10)


def test_rms_reproducible_across_threads():
    # 1,024 shots x 6 repeats = 6,144 rows, three 2,048-row chunks at 3
    # qubits, so the threads split the budget
    grid = NotchGrid.uniform(5)
    circuit = _fixed_circuit()
    obs = PauliString("ZII")
    assert 6 * 1024 > _auto_chunk(1 << 3)
    a = rms_vs_shots(grid, circuit, obs, [32, 1024], 6, 7, threads=1)
    b = rms_vs_shots(grid, circuit, obs, [32, 1024], 6, 7, threads=3)
    assert a == b


def test_rms_repeats_are_single_shot_bank_means():
    # one variant engine: budget i is the one-shot bank keyed (i, 0), and
    # repeat r its variants r*N to (r+1)*N - 1; both budgets put a repeat
    # boundary inside a chunk
    grid = NotchGrid.uniform(4)
    circuit = _fixed_circuit()
    obs = PauliString("ZII")
    shot_grid, repeats = [3, 9000], 2
    exact = continuous_expectation(circuit, obs)
    points = rms_vs_shots(grid, circuit, obs, shot_grid, repeats, 7)
    for i, (n_shots, point) in enumerate(zip(shot_grid, points)):
        bank = pai_shot_bank(grid, circuit, obs, repeats * n_shots, 1, 7, key=(i, 0))
        means = bank.values().reshape(repeats, n_shots).mean(axis=1)
        want = math.sqrt(np.mean((means - exact) ** 2))
        assert abs(point.rms_error - want) <= 1e-12


def test_rms_follows_the_exact_single_shot_law():
    # a repeat averages N single-shot values +-w of mean o and variance
    # w**2 - o**2, so repeats * N * rms**2 / (w**2 - o**2) follows
    # chi-square(repeats) in the normal limit; checked at a 1e-4 two-sided
    # level for budgets of 100 shots and more
    grid = NotchGrid.uniform(4)
    circuit = _fixed_circuit()
    obs = PauliString("ZII")
    repeats = 200
    w = decompose_circuit(grid, circuit).norm1_total
    o = continuous_expectation(circuit, obs)
    for p in rms_vs_shots(grid, circuit, obs, [100, 1000], repeats, 7, threads=2):
        stat = repeats * p.n_shots * p.rms_error**2 / (w**2 - o**2)
        assert chi2.ppf(5e-5, repeats) <= stat <= chi2.ppf(1.0 - 5e-5, repeats)


def test_rms_validation():
    grid = NotchGrid.uniform(5)
    with pytest.raises(ValueError):
        rms_vs_shots(grid, _fixed_circuit(), PauliString("ZII"), [16], 1, 7)
    with pytest.raises(ValueError):
        rms_vs_shots(grid, _fixed_circuit(), PauliString("ZII"), [0], 4, 7)
    # the library takes one budget; only the CLI's slope fit needs two
    assert len(rms_vs_shots(grid, _fixed_circuit(), PauliString("ZII"), [16], 2, 7)) == 1


# ------------------------------------------------------- estimator checks


def test_estimates_agree_with_oracle_on_a_fixed_case(rng):
    # one moderately deep case, double-checked against the dense oracle
    circuit = oracles.random_circuit(rng, 2, 12)
    obs = PauliString("ZZ")
    state = run_circuit(circuit, 2)
    want = np.real(
        np.conj(state.amps) @ oracles.dense_pauli("ZZ") @ state.amps
    )
    assert continuous_expectation(circuit, obs) == pytest.approx(want, abs=1e-12)
    res = pai_shot_bank(NotchGrid.uniform(6), circuit, obs, 3000, 2, 1).result()
    assert abs(res.mean - want) <= 5 * res.std_error


_GRID = NotchGrid.uniform(4)
_ZII = PauliString("ZII")
_CIRCUIT_ESTIMATORS = {
    "pai_shot_bank": lambda c: pai_shot_bank(_GRID, c, _ZII, 40, 3, 7).values().tolist(),
    "nearest_notch_shot_bank": lambda c: nearest_notch_shot_bank(
        _GRID, c, _ZII, 64, 7
    ).values().tolist(),
    "continuous_shot_bank": lambda c: continuous_shot_bank(c, _ZII, 64, 7).values().tolist(),
    "continuous_expectation": lambda c: continuous_expectation(c, _ZII),
    "exact_pai_expectation": lambda c: exact_pai_expectation(_GRID, c, _ZII),
    "pai_shot_bank_sum": lambda c: pai_shot_bank(_GRID, c, _SUM, 40, 2, 7).values().tolist(),
    "nearest_notch_shot_bank_sum": lambda c: nearest_notch_shot_bank(
        _GRID, c, _SUM, 64, 7
    ).values().tolist(),
    "continuous_shot_bank_sum": lambda c: continuous_shot_bank(
        c, _SUM, 64, 7
    ).values().tolist(),
    "two_notch_fidelity_profile": lambda c: two_notch_fidelity_profile(
        _GRID, c, [0, 3, 5], 20, 7
    ),
    "rms_vs_shots": lambda c: rms_vs_shots(_GRID, c, _ZII, [4, 16], 3, 7),
}


@pytest.mark.parametrize("name", sorted(_CIRCUIT_ESTIMATORS))
def test_one_shot_iterator_circuit_matches_the_list(name):
    # the qubit check reads the circuit before the estimator does, so a
    # circuit that can be iterated only once must be read exactly once
    run = _CIRCUIT_ESTIMATORS[name]
    assert run(iter(_fixed_circuit())) == run(_fixed_circuit())
