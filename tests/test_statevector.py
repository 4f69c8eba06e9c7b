"""Statevector kernel vs dense-matrix oracles plus sampling behavior."""

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import oracles
from pai import statevector
from pai.estimate import _outcomes
from pai.rng import stream
from pai.statevector import (
    MAX_QUBITS,
    Observable,
    PauliString,
    Statevector,
    _compile_blocks,
    _run_program,
    _term_sum,
    expectation,
    rotate_batch,
    run_circuit,
    term_expectations,
)

letters_st = st.text(alphabet="IXYZ", min_size=1, max_size=3).filter(
    lambda s: s.strip("I")
)
angle_st = st.floats(min_value=-12.0, max_value=12.0)


def _rotate(state, generator, angle):
    """One rotation through ``run_circuit``, from ``state``."""
    return run_circuit([(generator, angle)], state.num_qubits, initial=state)


# ---------------------------------------------------------------- types


def test_pauli_string_validation():
    with pytest.raises(ValueError):
        PauliString("")
    with pytest.raises(ValueError):
        PauliString("XQ")
    p = PauliString("IZZX")
    assert p.num_qubits == 4
    assert p.weight == 3
    assert str(p) == "IZZX"


def test_qubit_count_cap():
    with pytest.raises(ValueError):
        Statevector.zero(MAX_QUBITS + 1)
    with pytest.raises(ValueError):
        Statevector.zero(0)
    too_wide = PauliString("X" * (MAX_QUBITS + 1))
    state25 = np.zeros(4)
    with pytest.raises(ValueError):
        # strings past the cap are rejected
        expectation(Statevector(np.array([1.0, 0, 0, 0])), too_wide)
    del state25


def test_statevector_validation():
    with pytest.raises(ValueError):
        Statevector(np.ones(3, dtype=complex))
    with pytest.raises(ValueError):
        Statevector(np.ones((2, 2), dtype=complex))
    z = Statevector.zero(2)
    assert z.num_qubits == 2
    assert z.amps[0] == 1.0 and np.all(z.amps[1:] == 0.0)
    assert z.norm() == pytest.approx(1.0)


def test_observable_validation():
    with pytest.raises(ValueError):
        Observable(terms=())
    with pytest.raises(ValueError):
        Observable(terms=((1.0, PauliString("X")), (1.0, PauliString("XX"))))
    with pytest.raises(ValueError):
        Observable(terms=((float("nan"), PauliString("X")),))
    obs = Observable(terms=((0.5, PauliString("Z")), (-2.0, PauliString("X"))))
    assert obs.num_qubits == 1
    assert obs.one_norm == pytest.approx(2.5)


# ------------------------------------------------------------ rotations


def test_rejects_identity_generator_and_bad_angle():
    state = Statevector.zero(2)
    with pytest.raises(ValueError, match="non-identity"):
        run_circuit([(PauliString("II"), 0.3)], 2, initial=state)
    for bad in (float("nan"), float("inf")):
        with pytest.raises(ValueError, match="finite"):
            run_circuit([(PauliString("XI"), bad)], 2, initial=state)
    with pytest.raises(ValueError):
        run_circuit([(PauliString("X"), 0.3)], 2, initial=state)  # dimension mismatch


def test_x_rotation_by_pi_flips_the_qubit():
    # exp(-i pi/2 X)|0> = -i|1>
    out = _rotate(Statevector.zero(1), PauliString("X"), np.pi)
    np.testing.assert_allclose(out.amps, [0.0, -1.0j], atol=1e-15)
    assert expectation(out, PauliString("Z")) == pytest.approx(-1.0)


def test_x_rotation_traces_cosine():
    z = PauliString("Z")
    for phi in np.linspace(0.0, 2 * np.pi, 17):
        out = _rotate(Statevector.zero(1), PauliString("X"), float(phi))
        assert expectation(out, z) == pytest.approx(np.cos(phi), abs=1e-12)


def test_full_turn_is_a_global_phase():
    state = _rotate(Statevector.zero(1), PauliString("Y"), 0.7)
    turned = _rotate(state, PauliString("X"), 2 * np.pi)
    # unitary at 2*pi is exactly -identity; expectations cannot change
    np.testing.assert_allclose(turned.amps, -state.amps, atol=1e-15)
    for p in ("X", "Y", "Z"):
        assert expectation(turned, PauliString(p)) == pytest.approx(
            expectation(state, PauliString(p)), abs=1e-12
        )


def test_plus_state_has_zero_z_expectation():
    plus = _rotate(Statevector.zero(1), PauliString("Y"), np.pi / 2)
    np.testing.assert_allclose(plus.amps, [2**-0.5, 2**-0.5], atol=1e-15)
    assert expectation(plus, PauliString("Z")) == pytest.approx(0.0, abs=1e-15)


@given(letters=letters_st, angle=angle_st, seed=st.integers(0, 2**16))
@settings(max_examples=60)
def test_rotation_matches_dense_oracle(letters, angle, seed):
    n = len(letters)
    rng = np.random.default_rng(seed)
    amps = rng.normal(size=1 << n) + 1j * rng.normal(size=1 << n)
    amps /= np.linalg.norm(amps)
    state = Statevector(amps)
    out = _rotate(state, PauliString(letters), angle)
    want = oracles.rotation_matrix(letters, angle) @ amps
    np.testing.assert_allclose(out.amps, want, atol=1e-12)


@given(letters=letters_st, a=angle_st, b=angle_st)
@settings(max_examples=40)
def test_same_generator_rotations_compose_additively(letters, a, b):
    g = PauliString(letters)
    s0 = Statevector.zero(len(letters))
    one = _rotate(_rotate(s0, g, a), g, b)
    two = _rotate(s0, g, a + b)
    np.testing.assert_allclose(one.amps, two.amps, atol=1e-12)


@given(letters=letters_st, angle=angle_st)
@settings(max_examples=40)
def test_channel_period_two_pi(letters, angle):
    g = PauliString(letters)
    s0 = _rotate(Statevector.zero(len(letters)), PauliString("Y" * len(letters)), 0.4)
    base = _rotate(s0, g, angle)
    wrapped = _rotate(s0, g, angle + 2 * np.pi)
    # same channel: amplitudes match up to the global sign flip
    np.testing.assert_allclose(np.abs(wrapped.amps), np.abs(base.amps), atol=1e-12)
    for p in ("X", "Z"):
        obs = PauliString(p * len(letters))
        assert expectation(wrapped, obs) == pytest.approx(
            expectation(base, obs), abs=1e-12
        )


def test_norm_drift_stays_tiny_over_long_circuits(rng):
    # 10_000 random rotations; each kernel application must preserve norm
    # to rounding error, with no systematic drift
    circuit = oracles.random_circuit(rng, 3, 10_000)
    state = run_circuit(circuit, 3)
    assert abs(state.norm() - 1.0) < 1e-9


def test_run_circuit_matches_oracle_product(rng):
    circuit = oracles.random_circuit(rng, 2, 8)
    state = run_circuit(circuit, 2)
    want = oracles.circuit_matrix(circuit, 2) @ Statevector.zero(2).amps
    np.testing.assert_allclose(state.amps, want, atol=1e-12)


def test_run_circuit_accepts_initial_state(rng):
    circuit = oracles.random_circuit(rng, 2, 4)
    start = run_circuit(oracles.random_circuit(rng, 2, 3), 2)
    out = run_circuit(circuit, 2, initial=start)
    want = oracles.circuit_matrix(circuit, 2) @ start.amps
    np.testing.assert_allclose(out.amps, want, atol=1e-12)


def test_rotate_batch_rows_are_independent(rng):
    gen = PauliString("XY")
    amps = rng.normal(size=(5, 4)) + 1j * rng.normal(size=(5, 4))
    angles = rng.uniform(0, 2 * np.pi, size=5)
    batch = rotate_batch(amps.copy(), gen, angles)
    for v in range(5):
        want = oracles.rotation_matrix("XY", angles[v]) @ amps[v]
        np.testing.assert_allclose(batch[v], want, atol=1e-12)


wide_letters_st = st.integers(1, 6).flatmap(
    lambda n: st.text(alphabet="IXYZ", min_size=n, max_size=n).filter(
        lambda s: s.strip("I")
    )
)


@given(
    letters=wide_letters_st,
    n_rows=st.sampled_from([1, 2, 7, 64]),
    layout=st.sampled_from(["rows", "transposed"]),
    seed=st.integers(0, 2**32 - 1),
)
@settings(max_examples=150)
def test_rotate_batch_is_bit_identical_to_gather_reference(letters, n_rows, layout, seed):
    # same per-element arithmetic as the index-gather kernel, so equal bits,
    # for C-ordered (V, dim) rows and for the transpose of a (dim, V) buffer
    def bits(a):
        return np.ascontiguousarray(a).view(np.uint64)

    r = np.random.default_rng(seed)
    dim = 1 << len(letters)
    amps = r.standard_normal((n_rows, dim)) + 1j * r.standard_normal((n_rows, dim))
    angles = r.uniform(-4 * np.pi, 4 * np.pi, n_rows)
    want = oracles.gather_rotate_batch(amps, letters, angles)
    before = amps.copy()
    if layout == "transposed":
        buf = amps.T.copy()
        out = np.empty_like(buf)
        got = rotate_batch(buf.T, PauliString(letters), angles, out=out.T)
        assert np.shares_memory(got, out)
        assert np.array_equal(bits(buf.T), bits(before))
    else:
        got = rotate_batch(amps, PauliString(letters), angles)
        assert np.array_equal(bits(amps), bits(before))
    assert np.array_equal(bits(got), bits(want))


# ---------------------------------------------------------- fused blocks


@st.composite
def fusable_circuits(draw):
    """``(n, letters, checkpoints)``: a random gate sequence on ``n`` qubits
    rich in runs of one support (adjacent and non-adjacent pairs, single
    qubits, non-commuting letters such as X then Y), in single-qubit Z
    gates that the plan moves into later blocks, and in wider gates, and
    sorted cut points, some inside runs."""
    n = draw(st.integers(1, 6))
    pauli = st.sampled_from("XYZ")
    letters = []
    for _ in range(draw(st.integers(0, 14))):
        kinds = ["z", "one"] + (["pair"] if n >= 2 else []) + (["wide"] if n >= 3 else [])
        if letters and draw(st.booleans()):  # continue the previous support
            support = [q for q, c in enumerate(letters[-1]) if c != "I"]
            kind = "same"
        else:
            kind = draw(st.sampled_from(kinds))
            if kind in ("z", "one"):
                support = [draw(st.integers(0, n - 1))]
            elif kind == "pair":
                a = draw(st.integers(0, n - 2))
                support = [a, draw(st.integers(a + 1, n - 1))]
            else:
                support = sorted(draw(st.sets(st.integers(0, n - 1), min_size=3)))
        for _ in range(draw(st.integers(1, 3 if len(support) <= 2 else 1))):
            row = ["I"] * n
            for q in support:
                row[q] = "Z" if kind == "z" else draw(pauli)
            letters.append("".join(row))
    cuts = sorted(draw(st.sets(st.integers(0, len(letters)), max_size=3)))
    return n, letters, cuts


# a Z right before a bond on its own qubit; a Z that waits past a bond off
# its qubit; trailing Zs; a cut between a Z and its bond; seven Zs on one
# qubit, more than a block holds
_Z_CASES = [
    (2, ["IZ", "XX", "YY"], []),
    (3, ["ZII", "IXX", "IYY", "XXI"], []),
    (2, ["XX", "ZI", "IZ", "ZI"], []),
    (3, ["IZI", "ZII", "XXI", "IIZ"], [2]),
    (2, ["ZI"] * 7 + ["YY"], [3]),
]


def _with_z_cases(test):
    for case in _Z_CASES:
        for n_settings in (1, 3):
            test = example(circuit=case, n_rows=7, n_settings=n_settings, seed=5)(test)
    return test


@_with_z_cases
@example(  # a six-gate bond block, then two blocks of one gate
    circuit=(3, ["XXI", "YYI", "ZZI", "XXI", "YYI", "ZZI", "IIX", "XII"], [6]),
    n_rows=7, n_settings=3, seed=5,
)
@given(
    circuit=fusable_circuits(),
    n_rows=st.sampled_from([1, 2, 7, 64]),
    n_settings=st.integers(1, 3),
    seed=st.integers(0, 2**32 - 1),
)
@settings(max_examples=200)
def test_fused_blocks_match_gate_by_gate_reference(circuit, n_rows, n_settings, seed):
    # the blocks segment by segment, as the fidelity profile runs them, against
    # the gather oracle gate by gate at the angles the setting indices pick;
    # each checkpoint state agrees
    n, letters, cuts = circuit
    r = np.random.default_rng(seed)
    table = r.uniform(-4 * np.pi, 4 * np.pi, (len(letters), n_settings))
    idx = r.integers(0, n_settings, (n_rows, len(letters))).astype(np.int8)
    if n_rows > 1:  # every block's top code: 728 for six gates at S = 3
        idx[-1] = n_settings - 1
    generators = [PauliString(g) for g in letters]
    state = np.zeros((1 << n, n_rows), dtype=np.complex128)
    state[0] = 1.0
    spare = np.empty_like(state)
    want = state.T.copy()
    lo = 0
    for cp in [*cuts, len(letters)]:
        program = _compile_blocks(generators[lo:cp], table[lo:cp])
        state, spare = _run_program(program, state, idx[:, lo:cp], spare)
        for j in range(lo, cp):
            want = oracles.gather_rotate_batch(want, letters[j], table[j, idx[:, j]])
        np.testing.assert_allclose(state.T, want, rtol=0, atol=1e-12)
        lo = cp


def test_blocks_are_diagonal_or_make_one_flip(rng):
    # a gate joins the open block only when its X/Y bit flip on the support
    # is 0 or the block's flip, so a block never needs a third buffer
    for n in (1, 2, 3):
        for _ in range(20):
            letters = tuple(g.letters for g, _ in oracles.random_circuit(rng, n, 30))
            for _, local, on, flip in statevector._block_plan(letters):
                if local is None:
                    assert len(on) > 2 and flip is None
                    continue
                gate_flips = {sum(1 << i for i, c in enumerate(g) if c in "XY") for g in local}
                assert gate_flips <= {0, flip}
    # XZ flips qubit 0 and ZX qubit 1: a block each, which agree with the
    # gather oracle gate by gate
    letters = ["XZ", "ZX", "XZ"]
    plan = statevector._block_plan(tuple(letters))
    assert [(gates, flip) for gates, _, _, flip in plan] == [((0,), 1), ((1,), 2), ((2,), 1)]
    table = rng.uniform(-4 * np.pi, 4 * np.pi, (3, 3))
    idx = rng.integers(0, 3, (7, 3)).astype(np.int8)
    state = rng.standard_normal((4, 7)) + 1j * rng.standard_normal((4, 7))
    want = state.T.copy()
    for j, g in enumerate(letters):
        want = oracles.gather_rotate_batch(want, g, table[j, idx[:, j]])
    program = _compile_blocks([PauliString(g) for g in letters], table)
    got, _ = _run_program(program, state, idx, np.empty_like(state))
    np.testing.assert_allclose(got.T, want, rtol=0, atol=1e-12)


# ----------------------------------------------------------- parity sector

_EVEN_PAIRS = ["XX", "XY", "YX", "YY", "ZZ"]


def _bits(a):
    # + 0.0 turns -0.0 into +0.0: the other sector holds zeros on both
    # paths, and only their sign may differ, which no reader can see
    return np.ascontiguousarray(a + 0.0).view(np.uint64)


def _gates(n, items):
    """Letters of ``(support, local letters)`` items on ``n`` qubits."""
    out = []
    for support, local in items:
        row = ["I"] * n
        for q, c in zip(support, local):
            row[q] = c
        out.append("".join(row))
    return out


def _ring_layers(n, layers=1):
    from pai.models import TrotterSpec, spin_ring, trotter_circuit

    circuit = trotter_circuit(spin_ring(n, 0.3, 11), TrotterSpec(1.0, layers))
    return [g.letters for g, _ in circuit]


def _sector_start(r, n, n_rows, parity):
    """Random ``(dim, V)`` columns with every amplitude in the sector, or
    anywhere for parity ``None``."""
    dim = 1 << n
    noise = r.standard_normal((dim, n_rows)) + 1j * r.standard_normal((dim, n_rows))
    if parity is None:
        return noise
    in_sector = (np.bitwise_count(np.arange(dim)) & 1) == parity
    return np.where(in_sector[:, None], noise, 0.0)


def _run_in_frame(program, start, idx):
    """``(result, free, buffers)``: the ``(dim, V)`` columns ``start``
    entered into the program's frame and run there."""
    state = start if program.sector is None else start[_enter(len(start), program.sector)]
    state, spare = state.copy(), np.empty_like(state)
    got, free = statevector._run_program(program, state, idx, spare)
    return got, free, (state, spare)


def _enter(dim, sector):
    return statevector._frame_index(dim.bit_length() - 1, sector)


def _full_state(program, got):
    """The full ``(dim, V)`` state of a program's result, its other sector
    +0.0."""
    if program.sector is None:
        return got
    full = np.zeros((2 * len(got), got.shape[1]), dtype=np.complex128)
    full[_enter(len(full), program.sector)] = got
    return full


@st.composite
def sector_circuits(draw):
    """``(n, letters)``: gates of an even count of X and Y letters on 2 to 7
    qubits, so every gate keeps the parity sector: bonds on adjacent and
    non-adjacent qubits, runs on the top bond, the wrap bond ``(0, n-1)``,
    on-site Zs, and now and then a gate on three qubits or more."""
    n = draw(st.integers(2, 7))
    top = n - 1
    kinds = ["bonds"] * 3 + ["z", "top", "wrap"] + (["wide"] if n >= 3 else [])
    items = []
    for _ in range(draw(st.integers(1, 12))):
        kind = draw(st.sampled_from(kinds))
        if kind == "bonds" and n < 3:
            kind = "top"
        if kind == "z":
            items.append(((draw(st.sampled_from([0, top, draw(st.integers(0, top))])),), "Z"))
            continue
        if kind == "wide":
            support = sorted(draw(st.sets(st.integers(0, top), min_size=3, max_size=n)))
            local = draw(
                st.text(alphabet="XYZ", min_size=len(support), max_size=len(support)).filter(
                    lambda s: (s.count("X") + s.count("Y")) % 2 == 0
                )
            )
            items.append((support, local))
            continue
        if kind == "wrap":
            a, b = 0, top
        else:
            a = draw(st.integers(0, top - (1 if kind == "top" else 2)))
            b = top if kind == "top" else draw(st.integers(a + 1, top - 1))
        for _ in range(draw(st.integers(1, 3))):
            items.append(((a, b), draw(st.sampled_from(_EVEN_PAIRS))))
    return n, _gates(n, items)


@example(circuit=(4, _ring_layers(4, 2)), n_rows=3, n_settings=3, parity=0, seed=1)
@example(circuit=(5, _ring_layers(5)), n_rows=9, n_settings=2, parity=1, seed=2)
@example(  # on-site Zs on qubits 0 and n-1 alone, the wrap and top bonds, a non-adjacent bond
    circuit=(5, _gates(5, [((0,), "Z"), ((4,), "Z"), ((0, 4), "XY"), ((0, 4), "YY"),
                           ((3, 4), "ZZ"), ((3, 4), "YX"), ((1, 3), "XX"), ((4,), "Z")])),
    n_rows=1, n_settings=1, parity=1, seed=3,
)
@example(  # a wide gate between bonds: the circuit runs on the full state
    circuit=(5, _gates(5, [((0, 1), "XX"), ((1, 2), "YY"), ((0, 1, 2, 3), "XZYZ"),
                           ((1, 2), "ZZ"), ((2, 3), "XY")])),
    n_rows=2, n_settings=1, parity=0, seed=4,
)
@given(
    circuit=sector_circuits(),
    n_rows=st.integers(1, 9),
    n_settings=st.integers(1, 3),
    parity=st.integers(0, 1),
    seed=st.integers(0, 2**32 - 1),
)
@settings(max_examples=150)
def test_sector_program_matches_the_full_program_and_the_oracle(
    circuit, n_rows, n_settings, parity, seed
):
    # the program compiled for the start state's parity runs every block
    # in the parity frame and gives the bits of the same circuit compiled
    # with parity None, the path every other input takes; both follow the
    # gate-by-gate gather oracle
    n, letters = circuit
    r = np.random.default_rng(seed)
    dim = 1 << n
    table = r.uniform(-4 * np.pi, 4 * np.pi, (len(letters), n_settings))
    idx = r.integers(0, n_settings, (n_rows, len(letters))).astype(np.int8)
    start = _sector_start(r, n, n_rows, parity)
    assert statevector._parity(start[:, 0]) == parity
    generators = [PauliString(g) for g in letters]
    # the frame is decided from the circuit's plan, as _setting_circuit
    # decides it; a frame that cannot hold the circuit is refused
    holds = statevector._keeps_sector(statevector._plan(tuple(letters)))
    if not holds:
        with pytest.raises(ValueError, match="cannot hold"):
            statevector._compile_blocks(generators, table, parity)
    sector = statevector._compile_blocks(generators, table, parity if holds else None)
    full = statevector._compile_blocks(generators, table, None)
    assert full.sector is None
    wide = any(len(g) - g.count("I") > 2 for g in letters)
    assert holds == (not wide)
    assert sector.sector == (None if wide else parity)
    # a gate on three qubits or more sends the circuit to the full state;
    # otherwise the same blocks run on the half
    passes = sum(statevector._passes(kernel) for kernel, _ in full.steps)
    assert statevector._amp_updates(sector) == passes * (dim if wide else dim >> 1)
    results = []
    for program in (sector, full):
        got, free, buffers = _run_in_frame(program, start, idx)
        # the state lives in the chunk's two buffers, which come back
        assert {id(got), id(free)} == {id(b) for b in buffers}
        assert got.shape == (dim >> (program.sector is not None), n_rows)
        results.append(_full_state(program, got))
    assert np.array_equal(_bits(results[0]), _bits(results[1]))
    want = start.T.copy()
    for j, g in enumerate(letters):
        want = oracles.gather_rotate_batch(want, g, table[j, idx[:, j]])
    np.testing.assert_allclose(results[0].T, want, rtol=0, atol=1e-12)


@given(
    n=st.integers(2, 7),
    sector=st.integers(0, 1),
    n_settings=st.integers(1, 3),
    n_rows=st.integers(1, 5),
    data=st.data(),
)
@settings(max_examples=100)
def test_frame_map_is_a_bijection_and_frame_kernels_apply_the_block(
    n, sector, n_settings, n_rows, data
):
    # the frame index map is a bijection from the half state onto the
    # sector, and a random block of even X/Y weight, run in the frame,
    # applies its dense unitary to every in-sector column
    dim = 1 << n
    enter = statevector._frame_index(n, sector)
    parities = np.bitwise_count(np.arange(dim)) & 1
    assert np.array_equal(np.sort(enter), np.flatnonzero(parities == sector))
    a = data.draw(st.integers(0, n - 1))
    b = data.draw(st.sampled_from([None, *range(a + 1, n)]))
    support = (a,) if b is None else (a, b)
    local = st.just("Z") if b is None else st.sampled_from(_EVEN_PAIRS)
    items = [(support, data.draw(local)) for _ in range(data.draw(st.integers(1, 6)))]
    letters = _gates(n, items)
    r = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1)))
    table = r.uniform(-4 * np.pi, 4 * np.pi, (len(letters), n_settings))
    idx = r.integers(0, n_settings, (n_rows, len(letters))).astype(np.int8)
    program = statevector._compile_blocks([PauliString(g) for g in letters], table, sector)
    assert program.sector == sector and len(program.steps) == 1
    start = _sector_start(r, n, n_rows, sector)
    got, _, _ = _run_in_frame(program, start, idx)
    got = _full_state(program, got)
    for v in range(n_rows):
        unitary = np.eye(dim)
        for j, g in enumerate(letters):
            unitary = oracles.rotation_matrix(g, table[j, idx[v, j]]) @ unitary
        np.testing.assert_allclose(got[:, v], unitary @ start[:, v], rtol=0, atol=1e-12)


@given(
    letters=st.integers(2, 7).flatmap(lambda n: st.text(alphabet="IXYZ", min_size=n, max_size=n)),
    sector=st.sampled_from([None, 0, 1]),
    n_rows=st.integers(1, 4),
    seed=st.integers(0, 2**32 - 1),
)
@settings(max_examples=300)
def test_frame_terms_are_the_dense_conjugation_in_the_sector(letters, sector, n_rows, seed):
    # conjugated by the frame permutation and restricted to the sector, a
    # Pauli string is its frame string times its sign, and a string that
    # flips the parity has no entry there and reads exactly 0; sector None
    # is the full state, where every string is its own frame string.  In
    # either frame the reader gives the dense oracle's expectations
    n = len(letters)
    enter = np.arange(1 << n) if sector is None else statevector._frame_index(n, sector)
    in_frame = oracles.dense_pauli(letters)[np.ix_(enter, enter)]
    frame, sign = statevector._frame_term(letters, sector)
    assert statevector._frame_term(letters, None) == (letters, 1)
    r = np.random.default_rng(seed)
    start = _sector_start(r, n, n_rows, sector)
    start /= np.linalg.norm(start, axis=0)
    half = start[enter]
    terms = ((0.5, PauliString(letters)),)
    got = term_expectations(half, terms, sector, np.empty_like(half))
    if frame is None:
        assert (letters.count("X") + letters.count("Y")) % 2
        assert not in_frame.any()
        assert np.array_equal(got, np.zeros((n_rows, 1)))
        return
    assert len(frame) == len(half).bit_length() - 1 and sign in (1, -1)
    assert np.array_equal(in_frame, sign * oracles.dense_pauli(frame))
    dense = oracles.dense_pauli(letters)
    want = np.einsum("iv,ij,jv->v", start.conj(), dense, start).real
    np.testing.assert_allclose(got, want[:, None], rtol=0, atol=1e-12)
    # each column's bits never depend on the other columns; without a
    # spare the reader allocates its own
    for v in range(n_rows):
        alone = term_expectations(half[:, v : v + 1].copy(), terms, sector)
        assert np.array_equal(alone, got[v : v + 1])


@pytest.mark.parametrize("sector", [None, 0, 1])
def test_term_reader_rejects_a_term_on_another_qubit_count(sector):
    # eight amplitudes are three qubits on the full state and four in a
    # parity frame; a term on any other count is refused, not read
    state = np.full((8, 2), 0.25, dtype=np.complex128)
    n = 3 if sector is None else 4
    for letters in ("Z" * (n - 1), "XX" + "I" * (n - 1), "ZZ" + "I" * (n - 1)):
        with pytest.raises(ValueError, match="qubits applied to a dimension"):
            term_expectations(state, ((1.0, PauliString(letters)),), sector)
    terms = ((1.0, PauliString("Z" * n)), (1.0, PauliString("XX" + "I" * (n - 2))))
    assert term_expectations(state, terms, sector).shape == (2, 2)


@pytest.mark.parametrize("sector", [0, 1])
def test_ring_terms_map_to_their_frame_strings(sector):
    # Y_k Y_{k+1} -> -Z'_{k-1} X'_k Z'_{k+1}; at the top bond Z'_{n-1} is
    # the sector, and the wrap bond flips every frame bit
    assert statevector._frame_term("IYYI", sector) == ("ZXZ", -1)
    assert statevector._frame_term("IIYY", sector) == ("IZX", -(-1) ** sector)
    assert statevector._frame_term("XIIX", sector) == ("XXX", 1)
    assert statevector._frame_term("ZIII", sector) == ("ZII", 1)
    assert statevector._frame_term("IIIZ", sector) == ("IIZ", (-1) ** sector)
    assert statevector._frame_term("ZZZZ", sector) == ("III", (-1) ** sector)
    assert statevector._frame_term("IXII", sector) == (None, 0)


@pytest.mark.parametrize("n, half, full", [(4, 6, 12), (8, 12, 24), (12, 18, 36)])
def test_ring_layers_run_every_block_on_the_half(n, half, full):
    # per ring layer, the n bond blocks, the wrap and top bonds included,
    # make 3 passes each over the half state: 3n/2 full-state passes
    # against 3n, and the program never leaves the frame
    letters = _ring_layers(n, 2)
    generators = [PauliString(g) for g in letters]
    table = np.full((len(letters), 1), 0.1)
    dim = 1 << n
    program = statevector._compile_blocks(generators, table, 0)
    assert program.sector == 0 and len(program.steps) == 2 * n
    assert statevector._amp_updates(program) == 2 * half * dim
    none = statevector._compile_blocks(generators, table, None)
    assert statevector._amp_updates(none) == 2 * full * dim


def test_sector_is_refused_where_it_cannot_hold_or_help():
    # an odd gate after the prefix: the sector would not hold, so the
    # setting circuit runs on the full state; the ring alone runs in the
    # frame of |0000>
    letters = _ring_layers(4) + ["IXII"]
    generators = [PauliString(g) for g in letters]
    table = np.full((len(letters), 2), 0.3)
    fixed = [False] * len(letters)
    ring = statevector._setting_circuit(generators[:-1], table[:-1], fixed, 4)
    assert ring.sector == 0 and ring.segments[0][2].sector == 0
    odd = statevector._setting_circuit(generators, table, fixed, 4)
    assert odd.sector is None and odd.segments[0][2].sector is None
    # one nonzero amplitude in the other sector: no parity to compile for
    amps = np.zeros(16, dtype=np.complex128)
    amps[[0, 3, 5]] = 0.5
    assert statevector._parity(amps) == 0
    amps[7] = 1e-300
    assert statevector._parity(amps) is None
    assert statevector._parity(np.zeros(16)) is None
    # a gate on three qubits keeps the sector, but the frame has no kernel
    # for it, so the whole circuit runs on the full state; the three-qubit
    # ring alone, after a fixed X at pi, runs in the frame of sector 1, 3 *
    # 3 half passes per layer against 9 full passes
    letters = ["XII"] + _ring_layers(3, 2)
    generators = [PauliString(g) for g in letters]
    table = np.full((len(letters), 3), 0.2)
    table[0] = np.pi
    fixed = [True] + [False] * (len(letters) - 1)
    three = statevector._setting_circuit(generators, table, fixed, 3)
    assert three.start == 1 and three.sector == 1
    assert statevector._amp_updates(three.segments[0][2]) == 2 * 9 * 4
    wide = statevector._setting_circuit(
        generators + [PauliString("XYZ")], np.vstack([table, np.full((1, 3), 0.2)]), fixed + [False], 3
    )
    none = statevector._compile_blocks(
        generators[1:] + [PauliString("XYZ")], np.full((len(letters), 3), 0.2), None
    )
    assert wide.sector is None and wide.initial.shape == (8,)
    program = wide.segments[0][2]
    assert program.sector is None
    assert statevector._amp_updates(program) == statevector._amp_updates(none) == (2 * 9 + 4) * 8


@pytest.mark.parametrize("last", ["IXII", "XYZI"])
def test_compile_blocks_refuses_a_frame_it_cannot_hold(last):
    # a gate that flips the parity, or one on three qubits or more, has no
    # kernel in a parity frame: the program is refused, not moved to the
    # full state, which still compiles it
    letters = _ring_layers(4) + [last]
    generators = [PauliString(g) for g in letters]
    table = np.full((len(letters), 2), 0.3)
    with pytest.raises(ValueError, match="cannot hold"):
        statevector._compile_blocks(generators, table, sector=0)
    assert statevector._compile_blocks(generators, table).sector is None


@pytest.mark.parametrize("letters", ["X", "ZY", "XIZ", "YXZY"])
def test_rotate_batch_at_multiples_of_pi_is_exact(letters, rng):
    # the half angle k * pi / 2 has cos and sin 0 or +-1 exactly, so the
    # result is +-psi or +-i G psi with no 6.1e-17 residue
    dim = 1 << len(letters)
    amps = rng.standard_normal((3, dim)) + 1j * rng.standard_normal((3, dim))
    g_amps = amps @ oracles.dense_pauli(letters).T
    for k in range(-2, 4):
        got = rotate_batch(amps, PauliString(letters), np.full(3, k * np.pi))
        want = {0: amps, 1: -1j * g_amps, 2: -amps, 3: 1j * g_amps}[k % 4]
        assert np.array_equal(got, want), k


def test_run_batch_rejects_strided_buffers():
    state = np.zeros((4, 6), dtype=np.complex128)[:, ::2]
    program = _compile_blocks([PauliString("XZ")], np.zeros((1, 1)))
    with pytest.raises(ValueError, match="C-contiguous"):
        _run_program(program, state, np.zeros((3, 1), np.int8), np.empty((4, 3), complex))


@pytest.mark.parametrize("angles_shape", [(3, 1), (3, 3), (2, 2), (3,), (0, 2)])
def test_run_batch_rejects_angles_that_do_not_cover_every_gate(angles_shape):
    # a short settings array would leave blocks without their settings, and
    # an index outside [0, S) would read another combination's column
    rows = angles_shape[0]
    state = np.zeros((4, 3 if rows else 0), dtype=np.complex128)
    state[0] = 1.0
    generators = [PauliString("XX"), PauliString("YY")]
    table = np.zeros((2, 3))
    program = _compile_blocks(generators, table)
    with pytest.raises(ValueError, match="settings must be"):
        _run_program(program, state, np.zeros(angles_shape, np.int8), np.empty_like(state))
    state = np.zeros((4, 3), dtype=np.complex128)
    for bad in (-1, 3):
        settings = np.zeros((3, 2), dtype=np.int8)
        settings[1, 1] = bad
        with pytest.raises(ValueError, match=r"settings must lie in \[0, 3\)"):
            _run_program(program, state, settings, np.empty_like(state))
    with pytest.raises(ValueError, match="settings must be"):  # not integers
        _run_program(program, state, np.zeros((3, 2)), np.empty_like(state))
    with pytest.raises(ValueError, match="table must be"):  # four settings
        _compile_blocks(generators, np.zeros((2, 4)))


@given(letters=wide_letters_st, n_rows=st.sampled_from([1, 2, 7, 64]), seed=st.integers(0, 2**32 - 1))
@settings(max_examples=60)
def test_diagonal_blocks_multiply_the_state_in_place(letters, n_rows, seed):
    # diagonal gates on at most two qubits run as diagonal blocks, which
    # multiply the state buffer in place: the spare stays untouched and
    # the result agrees with the gather oracle to rounding
    n = len(letters)
    diagonal = [
        "".join("Z" if c != "I" else "I" for c in letters),
        "Z" + "I" * (n - 1),
        "I" * (n - 1) + "Z",
    ]
    if sum(c != "I" for c in diagonal[0]) > 2:
        diagonal[0] = diagonal[1]
    r = np.random.default_rng(seed)
    table = r.uniform(-4 * np.pi, 4 * np.pi, (3, 2))
    idx = r.integers(0, 2, (n_rows, 3)).astype(np.int8)
    state = r.standard_normal((1 << n, n_rows)) + 1j * r.standard_normal((1 << n, n_rows))
    want = state.T.copy()
    for j, g in enumerate(diagonal):
        want = oracles.gather_rotate_batch(want, g, table[j, idx[:, j]])
    spare = np.zeros_like(state)
    generators = [PauliString(g) for g in diagonal]
    got, free = _run_program(_compile_blocks(generators, table), state, idx, spare)
    assert got is state and free is spare and not spare.any()
    np.testing.assert_allclose(got.T, want, rtol=0, atol=1e-12)


def test_spin_ring_blocks_are_sites_and_bond_triples():
    from pai.models import TrotterSpec, neel_prep_circuit, spin_ring, trotter_circuit

    def blocks(n, layers):
        circuit = neel_prep_circuit(n) + trotter_circuit(
            spin_ring(n, 0.3, 11), TrotterSpec(1.0, layers)
        )
        plan = statevector._block_plan(tuple(g.letters for g, _ in circuit))
        return len(circuit), len(plan), plan

    # the trotter, fidelity and rms workloads' circuits: each on-site Z
    # joins the next bond on its qubit, so a layer of n sites runs as n
    # blocks; the Neel X gates run as blocks of one
    assert blocks(8, 12)[:2] == (388, 100)
    assert blocks(12, 37)[:2] == (1782, 450)
    assert blocks(4, 2)[:2] == (34, 10)
    _, _, plan = blocks(4, 1)
    # two Neel X, then the bonds (0, 1), (1, 2), (2, 3) and (3, 0), the
    # first with the Z of qubits 0 and 1 before it
    assert [len(gates) for gates, _, _, _ in plan] == [1, 1, 5, 4, 4, 3]
    assert plan[2][0] == (2, 3, 6, 7, 8)
    assert plan[2][1] == ("ZI", "IZ", "XX", "YY", "ZZ")
    # a bond block touches 8 of its 16 entries: the identity and the flip
    # of both qubits, 4 rows each
    _, index, table_shape, _ = statevector._block_kernel(4, *plan[2][2:])
    assert table_shape[0] == 2 and plan[2][3] == 0b11 and index is not None
    # the 27 combinations of a bond triple at three settings per gate
    entries = statevector._block_table(plan[-1][1], ((0.1, 0.2, 0.3),) * 3)
    assert entries.shape == (8, 27)


def test_large_phase_tables_are_not_cached():
    statevector._view_factors.cache_clear()
    statevector._pauli_view("ZZ")
    sizes, index, phase = statevector._pauli_view("Z" * 24)
    assert phase.size == 1 << 24
    del phase
    assert statevector._view_factors.cache_info().currsize == 1


def test_long_plans_are_not_cached():
    statevector._block_plan.cache_clear()
    short = ("XI", "ZZ") * 1024
    assert statevector._plan(short) is statevector._plan(short)
    long = short + ("IY",)
    assert len(statevector._plan(long)) == 2049
    assert statevector._block_plan.cache_info().currsize == 1


def test_a_setting_circuit_plans_each_segment_once(monkeypatch):
    # the plan that decides the frame is the plan compiled: a 2,400-gate
    # segment is past the plan cache, so a second plan would be rebuilt
    from pai.models import TrotterSpec, neel_prep_circuit, spin_ring, trotter_circuit

    prep = neel_prep_circuit(12)
    circuit = prep + trotter_circuit(spin_ring(12, 0.3, 11), TrotterSpec(1.0, 50))
    generators = [g for g, _ in circuit]
    table = np.array([[angle] for _, angle in circuit])
    fixed = [j < len(prep) for j in range(len(circuit))]
    calls = []
    original = statevector._plan

    def spy(letters):
        calls.append(len(letters))
        return original(letters)

    monkeypatch.setattr(statevector, "_plan", spy)
    built = statevector._setting_circuit(generators, table, fixed, 12)
    assert calls == [2400] and built.sector == 0
    calls.clear()
    statevector._setting_circuit(generators, table, fixed, 12, cuts=[1206, len(circuit)])
    assert calls == [1200, 1200]


def test_run_circuit_leaves_its_initial_state_unchanged(rng):
    initial = run_circuit(oracles.random_circuit(rng, 3, 6), 3)
    before = initial.amps.copy()
    out = run_circuit([(PauliString("ZIZ"), 0.4), (PauliString("IXI"), 1.1)], 3, initial)
    assert np.array_equal(initial.amps, before)
    assert not np.shares_memory(out.amps, initial.amps)


# ----------------------------------------------------------- expectation


@given(letters=letters_st, seed=st.integers(0, 2**16))
@settings(max_examples=40)
def test_pauli_expectation_matches_quadratic_form(letters, seed):
    n = len(letters)
    rng = np.random.default_rng(seed)
    amps = rng.normal(size=1 << n) + 1j * rng.normal(size=1 << n)
    amps /= np.linalg.norm(amps)
    got = expectation(Statevector(amps), PauliString(letters))
    want = np.real(np.conj(amps) @ oracles.dense_pauli(letters) @ amps)
    assert got == pytest.approx(want, abs=1e-12)


def test_observable_expectation_sums_terms(rng):
    amps = rng.normal(size=8) + 1j * rng.normal(size=8)
    amps /= np.linalg.norm(amps)
    state = Statevector(amps)
    obs = Observable(
        terms=(
            (0.5, PauliString("ZII")),
            (-1.25, PauliString("IZZ")),  # diagonal fast path
            (2.0, PauliString("XYI")),
        )
    )
    want = sum(
        c * np.real(np.conj(amps) @ oracles.dense_pauli(p.letters) @ amps)
        for c, p in obs.terms
    )
    assert expectation(state, obs) == pytest.approx(want, abs=1e-12)


@pytest.mark.parametrize("letters", ["ZIZ", "IZI", "XYI", "ZXY"])
def test_a_pauli_string_is_a_one_term_observable(letters, rng):
    amps = rng.normal(size=(4, 8)) + 1j * rng.normal(size=(4, 8))
    amps /= np.linalg.norm(amps, axis=1, keepdims=True)
    p = PauliString(letters)
    one_term = Observable(terms=((1.0, p),))
    state = Statevector(amps[0])
    assert expectation(state, p) == expectation(state, one_term)
    for row in amps[1:]:
        assert expectation(Statevector(row), p) == expectation(Statevector(row), one_term)


def test_batch_expectation_matches_per_row(rng):
    amps = rng.normal(size=(6, 8)) + 1j * rng.normal(size=(6, 8))
    amps /= np.linalg.norm(amps, axis=1, keepdims=True)
    obs = Observable(terms=((1.0, PauliString("ZZI")), (0.3, PauliString("IXY"))))
    got = _term_sum(term_expectations(amps.T, obs.terms), obs.terms)
    want = [expectation(Statevector(a), obs) for a in amps]
    np.testing.assert_allclose(got, want, atol=1e-12)
    single = term_expectations(amps.T, ((1.0, PauliString("ZZI")),))[:, 0]
    np.testing.assert_allclose(
        single, [expectation(Statevector(a), PauliString("ZZI")) for a in amps]
    )


def test_term_expectations_match_the_dense_oracle(rng):
    amps = rng.normal(size=(5, 8)) + 1j * rng.normal(size=(5, 8))
    amps /= np.linalg.norm(amps, axis=1, keepdims=True)
    terms = (
        (0.5, PauliString("ZIZ")),
        (-1.5, PauliString("XYI")),
        (2.0, PauliString("IIZ")),
    )
    evs = term_expectations(amps.T, terms)
    assert evs.shape == (5, 3)
    for t, (_, pauli) in enumerate(terms):
        dense = oracles.dense_pauli(pauli.letters)
        want = np.einsum("vi,ij,vj->v", amps.conj(), dense, amps).real
        np.testing.assert_allclose(evs[:, t], want, atol=1e-12)
    # _term_sum sums the columns in term order, bit for bit
    total = np.zeros(5)
    for t, (coeff, _) in enumerate(terms):
        total += coeff * evs[:, t]
    assert np.array_equal(_term_sum(evs, terms), total)


# -------------------------------------------------------------- sampling


def test_shot_on_eigenstate_is_deterministic():
    r = stream(0, 9)
    state = Statevector.zero(1)
    ev = expectation(state, PauliString("Z"))
    shots = _outcomes(r.random(32), ev)
    assert shots.dtype == np.int8 and np.all(shots == 1)
    flipped = _rotate(state, PauliString("X"), np.pi)
    ev = expectation(flipped, PauliString("Z"))
    assert np.all(_outcomes(r.random(32), ev) == -1)


def test_shot_frequency_tracks_expectation():
    state = _rotate(Statevector.zero(1), PauliString("X"), 0.9)
    ev = expectation(state, PauliString("Z"))
    n = 40_000
    mean = _outcomes(stream(3, 4).random(n), ev).mean()
    sigma = np.sqrt((1 - ev**2) / n)
    assert abs(mean - ev) < 5 * sigma


def test_shot_error_scales_as_inverse_sqrt_shots():
    """RMS error of the shot mean follows the -1/2 power law."""
    state = _rotate(Statevector.zero(1), PauliString("X"), 0.7)
    ev = expectation(state, PauliString("Z"))
    p_plus = 0.5 * (1.0 + ev)

    # the vectorized draws below walk the stream exactly like one scalar
    # draw per shot; prove it on a prefix before relying on it
    r_scalar = stream(11, 0, 0)
    scalar = [1 if r_scalar.random() < p_plus else -1 for _ in range(500)]
    u = stream(11, 0, 0).random(500)
    np.testing.assert_array_equal(scalar, _outcomes(u, ev))

    budgets = [100, 1_000, 10_000, 100_000, 1_000_000]
    repeats = 100
    rms = []
    for i, n in enumerate(budgets):
        errs = np.empty(repeats)
        for rep in range(repeats):
            u = stream(11, i, rep + 1).random(n)
            errs[rep] = _outcomes(u, ev).mean() - ev
        rms.append(np.sqrt(np.mean(errs**2)))
    slope = np.polyfit(np.log(budgets), np.log(rms), 1)[0]
    assert slope == pytest.approx(-0.5, abs=0.05)

