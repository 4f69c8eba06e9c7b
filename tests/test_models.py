"""Spin-ring model, Trotter/ansatz builders, energy estimators, VQE loop."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.linalg import expm

import oracles
from pai.estimate import _auto_chunk, _chunk_bounds, nearest_notch_shot_bank, pai_shot_bank
from pai.models import (
    EstimatorConfig,
    SpinRingModel,
    TrotterSpec,
    dense_hamiltonian,
    energy,
    gradient,
    ground_energy,
    hva_circuit,
    neel_prep_circuit,
    notch_floor_energy,
    spin_ring,
    trotter_circuit,
    vqe_run,
)
from pai.notch import NotchGrid, locate, round_params_to_grid
from pai.quasiprob import decompose_circuit
from pai.statevector import (
    PauliString,
    Statevector,
    _view_factors,
    expectation,
    run_circuit,
)


# ------------------------------------------------------------------ model


def test_ring_term_catalogue_for_three_qubits():
    model = spin_ring(3, 0.5, seed=0, omega=[0.1, -0.2, 0.3])
    got = [(c, p.letters) for c, p in model.terms()]
    want = [
        (0.1, "ZII"),
        (-0.2, "IZI"),
        (0.3, "IIZ"),
        (0.5, "XXI"),
        (0.5, "YYI"),
        (0.5, "ZZI"),
        (0.5, "IXX"),
        (0.5, "IYY"),
        (0.5, "IZZ"),
        (0.5, "XIX"),  # closing ring bond (2, 0)
        (0.5, "YIY"),
        (0.5, "ZIZ"),
    ]
    assert got == want
    assert model.num_terms == 12


@given(n=st.integers(min_value=3, max_value=10), seed=st.integers(0, 2**16))
@settings(max_examples=25)
def test_ring_has_four_terms_per_qubit(n, seed):
    model = spin_ring(n, 0.3, seed)
    assert model.num_terms == 4 * n
    assert len(model.terms()) == 4 * n
    assert all(-1.0 <= w <= 1.0 for w in model.omega)


def test_ring_field_draw_is_deterministic():
    a = spin_ring(12, 0.3, 7)
    b = spin_ring(12, 0.3, 7)
    assert a.omega == b.omega
    assert a.num_terms == 48
    c = spin_ring(12, 0.3, 8)
    assert a.omega != c.omega


def test_observable_is_built_once_per_model():
    model = spin_ring(4, 0.3, 11)
    obs = model.observable()
    assert obs is model.observable()
    assert obs.terms == model.terms()


def test_ring_validation():
    with pytest.raises(ValueError):
        spin_ring(2, 0.3, 0)
    with pytest.raises(ValueError):
        spin_ring(4, 0.3, 0, omega=[0.1, 0.2])  # wrong length


def test_hamiltonian_is_hermitian():
    for n, seed in ((3, 0), (4, 5), (5, 9)):
        h = dense_hamiltonian(spin_ring(n, 0.3, seed))
        np.testing.assert_allclose(h, h.conj().T, atol=1e-14)


def test_dense_hamiltonian_matches_kronecker_products():
    for n, seed in ((3, 0), (4, 5), (6, 9)):
        model = spin_ring(n, 0.3, seed)
        want = sum(c * oracles.dense_pauli(p.letters) for c, p in model.terms())
        np.testing.assert_allclose(dense_hamiltonian(model), want, atol=1e-14)


def test_equal_pauli_strings_share_cached_view_factors():
    # the view factors are keyed on the letters, so a second model object,
    # with PauliString objects of its own, builds no new factors
    params = np.linspace(0.1, 2.0, 20)

    def evaluate():
        model = spin_ring(5, 0.3, 2)
        return energy(model, run_circuit(hva_circuit(model, 1, params), 5))

    first = evaluate()
    misses = _view_factors.cache_info().misses
    assert evaluate() == first
    assert _view_factors.cache_info().misses == misses


def test_all_zeros_energy_is_fields_plus_bonds():
    model = spin_ring(5, 0.3, 4)
    got = energy(model, Statevector.zero(5))
    # |0..0> is a +1 eigenstate of every Z and ZZ term; XX and YY flip
    # qubits and contribute nothing
    assert got == pytest.approx(sum(model.omega) + 0.3 * 5, abs=1e-12)


def test_energy_of_dense_ground_vector_matches_eigenvalue():
    model = spin_ring(3, 0.3, 2)
    h = dense_hamiltonian(model)
    vals, vecs = np.linalg.eigh(h)
    got = energy(model, Statevector(vecs[:, 0]))
    assert got == pytest.approx(vals[0], abs=1e-10)


def test_ground_energy_lanczos_path_matches_dense():
    # with zero fields the uniform vector is an eigenvector of the exchange
    # terms, so a Lanczos run started there stops after one step at the
    # wrong value (+2.7 against -4.56 at 9 qubits); the fixed random start
    # has no symmetry of the ring
    for n in range(3, 11):
        for omega in (None, [0.0] * n):
            model = spin_ring(n, 0.3, 3, omega=omega)
            dense = float(np.linalg.eigvalsh(dense_hamiltonian(model))[0])
            assert abs(ground_energy(model) - dense) <= 1e-12, (n, omega)


def test_dense_hamiltonian_size_cap():
    with pytest.raises(ValueError):
        dense_hamiltonian(spin_ring(11, 0.3, 0))


# ---------------------------------------------------------------- builders


def test_trotter_circuit_shape_and_angles():
    model = spin_ring(12, 0.3, 1)
    circ = trotter_circuit(model, TrotterSpec(1.0, 50))
    assert len(circ) == 2400  # 48 terms x 50 layers
    dt = 1.0 / 50
    terms = model.terms()
    for j, (gen, angle) in enumerate(circ[:48]):
        coeff, pauli = terms[j]
        assert gen == pauli
        assert angle == pytest.approx(2.0 * coeff * dt)
    assert circ[48:96] == circ[:48]  # layers repeat


def test_trotter_gate_implements_the_term_evolution(rng):
    # one gate must equal exp(-1j * coeff * dt * G) exactly
    model = spin_ring(3, 0.3, 6)
    spec = TrotterSpec(0.7, 3)
    coeff, pauli = model.terms()[4]
    gate_angle = trotter_circuit(model, spec)[4][1]
    got = oracles.rotation_matrix(pauli.letters, gate_angle)
    want = expm(-1j * coeff * spec.dt * oracles.dense_pauli(pauli.letters))
    np.testing.assert_allclose(got, want, atol=1e-12)


def test_trotter_spec_validation():
    with pytest.raises(ValueError):
        TrotterSpec(1.0, 0)
    assert TrotterSpec(2.0, 8).dt == pytest.approx(0.25)


def test_trotter_error_shrinks_like_one_over_layers():
    """First-order convergence, checked against the matrix exponential."""
    model = spin_ring(4, 0.3, 11)
    h = dense_hamiltonian(model)
    t = 0.5
    start = run_circuit(neel_prep_circuit(4), 4)
    exact_amps = expm(-1j * t * h) @ start.amps

    def err(obs: PauliString, layers: int) -> float:
        state = run_circuit(trotter_circuit(model, TrotterSpec(t, layers)), 4, initial=start)
        want = float(
            np.real(np.conj(exact_amps) @ oracles.dense_pauli(obs.letters) @ exact_amps)
        )
        return abs(expectation(state, obs) - want)

    # bond correlator: clean first order already at shallow depth
    zz = PauliString("ZZII")
    for layers in (8, 16):
        assert 1.5 <= err(zz, layers) / err(zz, 2 * layers) <= 2.5
    # single-site Z has a suppressed leading term; the 1/l law emerges at
    # larger depth
    z0 = PauliString("ZIII")
    for layers in (64, 128):
        assert 1.5 <= err(z0, layers) / err(z0, 2 * layers) <= 2.5


def test_neel_prep_reaches_the_alternating_state():
    n = 6
    state = run_circuit(neel_prep_circuit(n), n)
    target_index = sum(1 << q for q in range(1, n, 2))  # 0b101010
    assert abs(state.amps[target_index]) == pytest.approx(1.0, abs=1e-12)
    # pi rotations sit on a notch of every uniform grid, so preparation
    # adds no sampling weight
    dec = decompose_circuit(NotchGrid.uniform(5), neel_prep_circuit(n))
    assert dec.norm1_total == 1.0
    with pytest.raises(ValueError):
        neel_prep_circuit(0)


def test_hva_with_zero_params_is_the_identity_circuit():
    model = spin_ring(4, 0.3, 2)
    circ = hva_circuit(model, 2, np.zeros(32))
    state = run_circuit(circ, 4)
    assert energy(model, state) == pytest.approx(
        sum(model.omega) + 0.3 * 4, abs=1e-12
    )


def test_hva_reproduces_trotter_angles():
    model = spin_ring(3, 0.3, 5)
    spec = TrotterSpec(0.9, 4)
    trot = trotter_circuit(model, spec)
    params = np.array([angle for _, angle in trot])
    assert hva_circuit(model, 4, params) == trot


def test_hva_validation():
    model = spin_ring(3, 0.3, 5)
    with pytest.raises(ValueError):
        hva_circuit(model, 2, np.zeros(12))  # needs 24
    with pytest.raises(ValueError):
        hva_circuit(model, 0, np.zeros(0))


# ---------------------------------------------------------------- gradient


def test_parameter_shift_matches_finite_differences():
    model = spin_ring(3, 0.3, 11)
    params = np.random.default_rng(5).uniform(-0.5, 0.5, 12)
    cfg = EstimatorConfig(mode="exact")
    got = gradient(model, 1, params, cfg)

    step = 1e-5
    fd = np.empty_like(params)
    for j in range(params.size):
        up, down = params.copy(), params.copy()
        up[j] += step
        down[j] -= step
        e_up = energy(model, run_circuit(hva_circuit(model, 1, up), 3))
        e_down = energy(model, run_circuit(hva_circuit(model, 1, down), 3))
        fd[j] = (e_up - e_down) / (2 * step)
    np.testing.assert_allclose(got, fd, atol=1e-6)


def test_diagonal_gates_have_zero_gradient_at_the_origin():
    # at params 0 the circuit is the identity and |0..0> is an eigenstate
    # of every Z-type generator, so those directions are flat
    model = spin_ring(4, 0.3, 7)
    grad = gradient(model, 1, np.zeros(16), EstimatorConfig(mode="exact"))
    for j, (_, pauli) in enumerate(model.terms()):
        if set(pauli.letters) <= {"I", "Z"}:
            assert abs(grad[j]) < 1e-12


def test_sampled_gradient_concentrates_on_the_exact_one():
    model = spin_ring(3, 0.3, 11)
    grid = NotchGrid.uniform(6)
    params = np.random.default_rng(5).uniform(-0.5, 0.5, 12)
    exact = gradient(model, 1, params, EstimatorConfig(mode="exact"))
    n_variants, shots = 1500, 4
    cfg = EstimatorConfig(
        mode="pai", grid=grid, n_variants=n_variants, shots_per_variant=shots,
        master_seed=21,
    )
    got = gradient(model, 1, params, cfg, threads=2)
    coeff_l1 = sum(abs(c) for c, _ in model.terms())
    weight = decompose_circuit(grid, hva_circuit(model, 1, params)).norm1_total
    # each shifted energy has std error at most coeff_l1 * weight / sqrt(N);
    # the pi/2 shift leaves per-gate weights unchanged (quarter-turn grid
    # alignment), so the same bound covers both ends of the difference
    sigma = coeff_l1 * weight / math.sqrt(n_variants * shots)
    assert np.max(np.abs(got - exact)) < 5 * sigma / math.sqrt(2)


def test_quarter_turn_shift_preserves_gate_weight():
    grid = NotchGrid.uniform(6)
    for angle in (0.37, 1.94, 5.2):
        base = locate(grid, angle)
        shifted = locate(grid, angle + np.pi / 2)
        assert shifted.lam == pytest.approx(base.lam, abs=1e-9)


# ------------------------------------------------------- energy estimators


def test_estimator_config_validation():
    with pytest.raises(ValueError):
        EstimatorConfig(mode="magic")
    with pytest.raises(ValueError):
        EstimatorConfig(mode="pai")  # sampled mode needs a grid
    with pytest.raises(ValueError):
        EstimatorConfig(mode="nearest", grid=NotchGrid.uniform(4), n_variants=0)
    EstimatorConfig(mode="exact")  # grid optional here


def _shifted_circuit(model, params, j, s):
    """The one-layer ansatz at ``params`` with parameter ``j`` shifted by
    +pi/2 (``s`` 0) or -pi/2 (``s`` 1), as ``gradient`` evaluates it."""
    shifted = np.array(params, dtype=np.float64)
    shifted[j] += (0.5, -0.5)[s] * np.pi
    return hva_circuit(model, 1, shifted)


def test_exact_energy_estimator_matches_statevector():
    # exact mode takes each shifted energy from the statevector
    model = spin_ring(3, 0.3, 11)
    params = np.random.default_rng(1).uniform(-1.0, 1.0, 12)
    got = gradient(model, 1, params, EstimatorConfig(mode="exact"))
    for j in range(12):
        plus, minus = (
            energy(model, run_circuit(_shifted_circuit(model, params, j, s), 3)) for s in (0, 1)
        )
        assert got[j] == pytest.approx(0.5 * (plus - minus), abs=1e-12)


def test_nearest_energy_estimator_is_deterministic_and_keyed():
    model = spin_ring(3, 0.3, 11)
    grid = NotchGrid.uniform(5)
    params = np.random.default_rng(1).uniform(-1.0, 1.0, 12)
    circ = hva_circuit(model, 1, params)
    args = (grid, circ, model.observable(), 20 * 10, 3)
    a = nearest_notch_shot_bank(*args, key=(0,)).result().mean
    assert a == nearest_notch_shot_bank(*args, key=(0,)).result().mean
    assert a != nearest_notch_shot_bank(*args, key=(1,)).result().mean
    # gradient draws evaluation (j, s) from the bank at key (*key, j, s)
    cfg = EstimatorConfig(
        mode="nearest", grid=grid, n_variants=20, shots_per_variant=10, master_seed=3,
    )
    got = gradient(model, 1, params, cfg, key=(0,))
    np.testing.assert_array_equal(got, gradient(model, 1, params, cfg, key=(0,)))
    assert (got != gradient(model, 1, params, cfg, key=(1,))).any()
    plus, minus = (
        nearest_notch_shot_bank(
            grid, _shifted_circuit(model, params, 4, s), model.observable(), 200, 3,
            key=(0, 4, s),
        ).result().mean
        for s in (0, 1)
    )
    assert got[4] == 0.5 * (plus - minus)


def test_sampled_energy_estimators_track_the_exact_value():
    model = spin_ring(3, 0.3, 11)
    grid = NotchGrid.uniform(6)
    params = np.random.default_rng(1).uniform(-1.0, 1.0, 12)
    circ = hva_circuit(model, 1, params)
    exact = energy(model, run_circuit(circ, 3))
    coeff_l1 = sum(abs(c) for c, _ in model.terms())
    weight = decompose_circuit(grid, circ).norm1_total
    n_variants, shots = 2000, 5
    sigma = coeff_l1 * weight / math.sqrt(n_variants * shots)

    bank = pai_shot_bank(grid, circ, model.observable(), n_variants, shots, 17, threads=2)
    assert abs(bank.result().mean - exact) < 5 * sigma

    # nearest mode concentrates on the rounded circuit instead
    rounded_circ = [(g, a) for (g, _), a in zip(circ, round_params_to_grid(grid, params))]
    rounded_energy = energy(model, run_circuit(rounded_circ, 3))
    near = nearest_notch_shot_bank(grid, circ, model.observable(), n_variants * shots, 17)
    assert abs(near.result().mean - rounded_energy) < 5 * coeff_l1 / math.sqrt(n_variants * shots)


def test_pai_energy_threads_and_determinism():
    model = spin_ring(3, 0.3, 11)
    grid = NotchGrid.uniform(5)
    params = np.linspace(0.1, 1.2, 12)
    circ = hva_circuit(model, 1, params)
    # three chunks, so the threaded run really splits the variants
    assert len(_chunk_bounds(4200, _auto_chunk(1 << 3))) == 3
    args = (grid, circ, model.observable(), 4200, 2, 9)
    bank = pai_shot_bank(*args, key=(1,), threads=1)
    threaded = pai_shot_bank(*args, key=(1,), threads=3)
    np.testing.assert_array_equal(bank.outcomes, threaded.outcomes)
    np.testing.assert_array_equal(bank.variant_signs, threaded.variant_signs)
    for mode in ("pai", "nearest", "exact"):
        cfg = EstimatorConfig(
            mode=mode, grid=grid, n_variants=4200, shots_per_variant=2, master_seed=9
        )
        one = gradient(model, 1, params, cfg, key=(1,), threads=1)
        three = gradient(model, 1, params, cfg, key=(1,), threads=3)
        np.testing.assert_array_equal(one, three)
        np.testing.assert_array_equal(one, gradient(model, 1, params, cfg, key=(1,), threads=1))
        if mode == "pai":
            plus, minus = (
                pai_shot_bank(
                    grid, _shifted_circuit(model, params, 0, s), model.observable(), 4200, 2, 9,
                    key=(1, 0, s), threads=3,
                ).result().mean
                for s in (0, 1)
            )
            assert one[0] == 0.5 * (plus - minus)


# ------------------------------------------------------------------- VQE


def test_vqe_zero_iterations_reports_the_initial_energy():
    model = spin_ring(3, 0.3, 11)
    res = vqe_run(model, 1, 0.05, 0, EstimatorConfig(mode="exact"), init_seed=3)
    assert res.energies.shape == (1,)
    want = energy(model, run_circuit(hva_circuit(model, 1, res.init_params), 3))
    assert res.energies[0] == pytest.approx(want, abs=1e-12)
    assert res.best_energy == res.energies[0]
    np.testing.assert_array_equal(res.init_params, res.final_params)
    with pytest.raises(ValueError, match="n_iters must be non-negative"):
        vqe_run(model, 1, 0.05, -1, EstimatorConfig(mode="exact"), init_seed=3)


def test_vqe_exact_descent_lowers_the_energy():
    model = spin_ring(3, 0.3, 11)
    res = vqe_run(model, 1, 0.1, 50, EstimatorConfig(mode="exact"), init_seed=3)
    assert res.energies[-1] < res.energies[0]
    assert res.best_energy == pytest.approx(res.energies.min())
    # descent with a modest step: monotone over the last 80% of the trace,
    # with at most 5% of steps allowed to tick upward
    tail = res.energies[len(res.energies) // 5 :]
    violations = np.mean(np.diff(tail) > 1e-12)
    assert violations <= 0.05
    assert res.trace()[0] == (0, pytest.approx(res.energies[0]))


def test_vqe_modes_share_initial_parameters():
    model = spin_ring(3, 0.3, 11)
    grid = NotchGrid.uniform(5)
    exact = vqe_run(model, 1, 0.05, 0, EstimatorConfig(mode="exact"), init_seed=6)
    sampled = vqe_run(
        model, 1, 0.05, 0,
        EstimatorConfig(mode="pai", grid=grid, n_variants=5, shots_per_variant=5),
        init_seed=6,
    )
    np.testing.assert_array_equal(exact.init_params, sampled.init_params)
    assert exact.energies[0] == sampled.energies[0]


def test_vqe_accepts_explicit_initial_parameters():
    model = spin_ring(3, 0.3, 11)
    params = np.linspace(-0.1, 0.1, 12)
    res = vqe_run(
        model, 1, 0.05, 1, EstimatorConfig(mode="exact"), init_params=params
    )
    np.testing.assert_array_equal(res.init_params, params)
    with pytest.raises(ValueError):
        vqe_run(
            model, 1, 0.05, 1, EstimatorConfig(mode="exact"), init_params=params[:5]
        )


def test_param_rounding_and_floor():
    grid = NotchGrid.uniform(5)
    model = spin_ring(3, 0.3, 11)
    params = np.random.default_rng(2).uniform(0.0, 2 * np.pi, 12)
    rounded = round_params_to_grid(grid, params)
    np.testing.assert_array_equal(rounded, round_params_to_grid(grid, rounded))
    assert np.max(np.abs(rounded - params)) <= grid.delta_max / 2 + 1e-12
    floor = notch_floor_energy(model, 1, grid, params)
    assert floor == pytest.approx(
        energy(model, run_circuit(hva_circuit(model, 1, rounded), 3)), abs=1e-12
    )
    assert floor >= ground_energy(model) - 1e-9
