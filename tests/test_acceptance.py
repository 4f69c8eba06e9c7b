"""Acceptance gate: ten end-to-end criteria, one printed line each.

Run with ``pytest -s tests/test_acceptance.py`` to see the per-criterion
pass/fail lines.  The heavyweight command-line runs are shared between
criteria through module-scoped fixtures; total runtime is a few minutes.
"""

import csv
import json
import math
from pathlib import Path

import numpy as np
import pytest

import oracles
from pai.cli import main as cli_main
from pai.estimate import (
    continuous_expectation,
    exact_pai_expectation,
    pai_shot_bank,
    rms_vs_shots,
)
from pai.models import EstimatorConfig, energy, gradient, hva_circuit, spin_ring
from pai.notch import NotchGrid
from pai.quasiprob import (
    decompose_circuit,
    max_gates_for_bits,
    worst_case_overhead,
)
from pai.statevector import PauliString, run_circuit

OVERHEAD_LIMIT = math.exp(math.pi**2 / 4.0)


def _report(num: int, ok: bool, detail: str) -> str:
    line = f"[{'PASS' if ok else 'FAIL'}] criterion-{num}: {detail}"
    print(line)
    return line


def _run(command: str, out: Path, options: dict, threads: int) -> None:
    args = [command, "--output", str(out), "--threads", str(threads)]
    for key, value in options.items():
        args += [f"--{key.replace('_', '-')}", str(value)]
    assert cli_main(args) == 0


def _read_rows(path: Path) -> list[list[str]]:
    with open(path, encoding="utf-8") as fh:
        lines = [ln for ln in fh if not ln.startswith("#")]
    return list(csv.reader(lines))[1:]


# ------------------------------------------------------------------ fixtures

TROTTER_OPTIONS = {
    "num_qubits": 8,
    "bits": 5,
    "coupling": 0.3,
    "model_seed": 11,
    "total_time": 2.0,
    "n_layers": 12,
    "observable_qubit": 0,
    "n_variants": 10000,
    "shots_per_variant": 10,
    "batch_size": 1000,
    "n_batches": 20000,
    "master_seed": 7,
}

VQE_OPTIONS = {
    "num_qubits": 6,
    "bits": 5,
    "coupling": 0.3,
    "model_seed": 11,
    "n_layers": 1,
    "learning_rate": 0.1,
    "n_iters": 100,
    "n_variants": 40,
    "shots_per_variant": 25,
    "master_seed": 7,
    "init_seed": 3,
}

FIDELITY_OPTIONS = {
    "num_qubits": 12,
    "bits": 7,
    "coupling": 0.3,
    "model_seed": 11,
    "total_time": 1.0,
    "n_layers": 37,
    "n_variants": 200,
    "n_checkpoints": 13,
    "master_seed": 7,
}


@pytest.fixture(scope="module")
def trotter_run(tmp_path_factory):
    """Benchmark-scale estimator comparison, once per thread count."""
    out = tmp_path_factory.mktemp("trotter") / "trotter"
    _run("trotter", out, TROTTER_OPTIONS, threads=1)
    bytes_t1 = (out.with_suffix(".csv").read_bytes(), out.with_suffix(".json").read_bytes())
    _run("trotter", out, TROTTER_OPTIONS, threads=2)
    bytes_t2 = (out.with_suffix(".csv").read_bytes(), out.with_suffix(".json").read_bytes())
    return json.loads(bytes_t1[1]), bytes_t1, bytes_t2


@pytest.fixture(scope="module")
def vqe_runs(tmp_path_factory):
    """Gradient-descent searches with exact, rounded and interpolated
    gradients, plus a second interpolated run at a different thread count."""
    base = tmp_path_factory.mktemp("vqe")
    payloads: dict[str, dict] = {}
    raw: dict[str, tuple[bytes, bytes]] = {}
    for mode in ("exact", "nearest", "pai"):
        out = base / f"vqe_{mode}"
        _run("vqe", out, {**VQE_OPTIONS, "mode": mode}, threads=1)
        raw[mode] = (
            out.with_suffix(".csv").read_bytes(),
            out.with_suffix(".json").read_bytes(),
        )
        payloads[mode] = json.loads(raw[mode][1])
    out = base / "vqe_pai"
    _run("vqe", out, {**VQE_OPTIONS, "mode": "pai"}, threads=2)
    raw["pai_t2"] = (
        out.with_suffix(".csv").read_bytes(),
        out.with_suffix(".json").read_bytes(),
    )
    return payloads, raw


# ------------------------------------------------------------------ criteria


def test_criterion_01_single_gate_decomposition_identity():
    """Mixing the three setting channels reproduces the target channel."""
    rng = np.random.default_rng(2024)
    worst = 0.0
    for _ in range(1000):
        bits = int(rng.integers(3, 13))
        grid = NotchGrid.uniform(bits)
        letter = "XYZ"[int(rng.integers(3))]
        angle = float(rng.uniform(0.0, 2.0 * math.pi))
        gate = decompose_circuit(grid, [(PauliString(letter), angle)])
        target = oracles.process_matrix(letter, angle)
        mixed = sum(
            g * oracles.process_matrix(letter, a)
            for g, a in zip(gate.gammas[0].tolist(), gate.setting_angles[0].tolist())
        )
        worst = max(worst, float(np.max(np.abs(mixed - target))))
    ok = worst < 1e-12
    line = _report(1, ok, f"1000 cases, max process-matrix deviation {worst:.2e} (tol 1e-12)")
    assert ok, line


def test_criterion_02_enumerated_estimator_is_unbiased():
    """Full variant enumeration equals the continuous-angle expectation."""
    rng = np.random.default_rng(2)
    worst = 0.0
    for _ in range(50):
        n = int(rng.integers(1, 4))
        nu = int(rng.integers(1, 7))
        bits = int(rng.integers(3, 8))
        circuit = oracles.random_circuit(rng, n, nu)
        observable = PauliString(oracles.random_pauli_letters(rng, n))
        grid = NotchGrid.uniform(bits)
        enumerated = exact_pai_expectation(grid, circuit, observable)
        continuous = continuous_expectation(circuit, observable)
        worst = max(worst, abs(enumerated - continuous))
    ok = worst < 1e-10
    line = _report(2, ok, f"50 circuits, max |enumerated - continuous| {worst:.2e} (tol 1e-10)")
    assert ok, line


def test_criterion_03_overhead_at_design_depth():
    """At the per-resolution gate budget the worst-case overhead meets the
    universal constant."""
    worst_rel = 0.0
    for bits in range(4, 13):
        grid = NotchGrid.uniform(bits)
        got = worst_case_overhead(max_gates_for_bits(bits), grid.delta_max)
        worst_rel = max(worst_rel, abs(got - OVERHEAD_LIMIT) / OVERHEAD_LIMIT)
    ok = worst_rel < 0.03
    line = _report(3, ok, f"bits 4..12, max relative gap to e^(pi^2/4) {worst_rel:.4f} (tol 0.03)")
    assert ok, line


def test_criterion_04_single_shot_second_moment_bound():
    """Empirical second moment of the sign-weighted single-shot estimator
    stays within the squared sampling weight."""
    rng = np.random.default_rng(42)
    circuit = oracles.random_circuit(rng, 6, 50)
    grid = NotchGrid.uniform(7)
    observable = PauliString("ZIIIII")
    bank = pai_shot_bank(grid, circuit, observable, 100000, 1, 7, threads=2)
    values = bank.values()
    weight_sq = decompose_circuit(grid, circuit).norm1_total ** 2
    m2 = float(np.mean(values**2))
    sigma = float(np.std(values**2, ddof=1)) / math.sqrt(values.size)
    variance = float(np.var(values))
    ok = m2 <= weight_sq * (1.0 + 1e-12) + 5.0 * sigma and variance <= m2
    line = _report(
        4,
        ok,
        f"second moment {m2:.6f} vs bound {weight_sq:.6f} (+5 sigma = {5 * sigma:.2e}), "
        f"variance {variance:.6f}",
    )
    assert ok, line


def test_criterion_05_bias_separation_at_benchmark_scale(trotter_run):
    """Rounding every angle biases the observable by many standard errors;
    interpolation stays consistent at the price of a wider spread."""
    payload, _, _ = trotter_run
    cont = payload["continuous"]
    near = payload["nearest"]
    pai = payload["pai"]

    near_dev = abs(near["batch_mean"] - cont["batch_mean"])
    near_se = math.hypot(near["std_error"], cont["std_error"])
    pai_dev = abs(pai["batch_mean"] - cont["batch_mean"])
    pai_se = math.hypot(pai["std_error"], cont["std_error"])

    ok = (
        near_dev > 5.0 * near_se
        and pai_dev < 3.0 * pai_se
        and pai["batch_width"] > cont["batch_width"]
    )
    line = _report(
        5,
        ok,
        f"nearest {near_dev / near_se:.1f} se (need >5), "
        f"pai {pai_dev / pai_se:.2f} se (need <3), "
        f"widths pai {pai['batch_width']:.3f} > continuous {cont['batch_width']:.3f}",
    )
    assert ok, line
    assert payload["n_gates"] == 388  # ~400-gate benchmark


def test_criterion_06_rms_error_scaling():
    """RMS error falls like one over the square root of the shot budget and
    never crosses the worst-case weight bound."""
    model = spin_ring(4, 0.3, 11)
    from pai.models import TrotterSpec, neel_prep_circuit, trotter_circuit

    circuit = neel_prep_circuit(4) + trotter_circuit(model, TrotterSpec(0.5, 2))
    points = rms_vs_shots(
        NotchGrid.uniform(5),
        circuit,
        PauliString("ZIII"),
        [100, 1000, 10000, 100000],
        120,
        7,
        threads=2,
    )
    logs_n = np.log10([p.n_shots for p in points])
    logs_rms = np.log10([p.rms_error for p in points])
    slope = float(np.polyfit(logs_n, logs_rms, 1)[0])
    below = all(p.rms_error < p.worst_case for p in points)
    ok = abs(slope + 0.5) < 0.05 and below
    line = _report(
        6,
        ok,
        f"log-log slope {slope:+.3f} (need -0.5 +- 0.05), "
        f"all {len(points)} points below the weight bound: {below}",
    )
    assert ok, line


def test_criterion_07_two_notch_fidelity_decay(tmp_path_factory):
    """The sign-free two-notch scheme loses fidelity exponentially in the
    gate count, landing near the expected drop at full depth."""
    out = tmp_path_factory.mktemp("fidelity") / "fid"
    _run("fidelity-decay", out, FIDELITY_OPTIONS, threads=2)
    rows = _read_rows(out.with_suffix(".csv"))
    payload = json.loads(out.with_suffix(".json").read_text())

    gates = np.array([int(r[0]) for r in rows], dtype=float)
    fid = np.array([float(r[1]) for r in rows])
    logf = np.log(fid)
    slope, intercept = np.polyfit(gates, logf, 1)
    pred = slope * gates + intercept
    ss_res = float(np.sum((logf - pred) ** 2))
    ss_tot = float(np.sum((logf - logf.mean()) ** 2))
    r_sq = 1.0 - ss_res / ss_tot
    final = payload["final_fidelity"]

    ok = r_sq > 0.9 and slope < 0.0 and 0.70 <= final <= 0.95
    line = _report(
        7,
        ok,
        f"{payload['n_gates']} gates: R^2 {r_sq:.3f} (need >0.9), "
        f"slope {slope:.2e} (need <0), final fidelity {final:.4f} (need 0.70..0.95)",
    )
    assert ok, line


def test_criterion_08_vqe_reaches_the_exact_optimiser(vqe_runs):
    """Rounded gradients stall above the rounding floor; interpolated
    gradients track the exact-gradient optimiser."""
    payloads, _ = vqe_runs
    floor_gap = payloads["exact"]["floor_delta_e"]
    exact_final = payloads["exact"]["final_delta_e"]
    nearest_final = payloads["nearest"]["final_delta_e"]
    pai_final = payloads["pai"]["final_delta_e"]

    ok = nearest_final > floor_gap and pai_final < 2.0 * exact_final
    line = _report(
        8,
        ok,
        f"nearest dE {nearest_final:.4f} > floor {floor_gap:.4f}; "
        f"pai dE {pai_final:.4f} < 2 x exact dE {exact_final:.4f}",
    )
    assert ok, line


def test_criterion_09_parameter_shift_gradient():
    """Shift-rule gradients equal finite differences in exact mode."""
    model = spin_ring(4, 0.3, 9)
    params = np.random.default_rng(14).uniform(-0.8, 0.8, 16)
    cfg = EstimatorConfig(mode="exact")
    got = gradient(model, 1, params, cfg)

    step = 1e-4
    fd = np.empty_like(params)
    for j in range(params.size):
        up, down = params.copy(), params.copy()
        up[j] += step
        down[j] -= step
        fd[j] = (
            energy(model, run_circuit(hva_circuit(model, 1, up), 4))
            - energy(model, run_circuit(hva_circuit(model, 1, down), 4))
        ) / (2 * step)
    worst = float(np.max(np.abs(got - fd)))
    ok = worst < 1e-6
    line = _report(9, ok, f"max |shift - finite difference| {worst:.2e} (tol 1e-6)")
    assert ok, line


def test_criterion_10_thread_count_never_changes_bytes(trotter_run, vqe_runs):
    """Criteria 5 and 8 artifacts are byte-identical across thread counts."""
    _, trotter_t1, trotter_t2 = trotter_run
    _, vqe_raw = vqe_runs
    same_trotter = trotter_t1 == trotter_t2
    same_vqe = vqe_raw["pai"] == vqe_raw["pai_t2"]
    ok = same_trotter and same_vqe
    line = _report(
        10,
        ok,
        f"estimator comparison identical: {same_trotter}, "
        f"optimiser run identical: {same_vqe}",
    )
    assert ok, line
