"""The acceptance workloads of the benchmark.

Each workload keeps the circuit, grid and thread count of its acceptance
criterion (criteria 5, 7 and 6 of ``tests/test_acceptance.py``) and
scales only its sample count so that one repetition takes a few seconds.
Each one also drives a different one of the package's variant loops:

* ``trotter``  -> ``pai_shot_bank`` (criterion 5, estimator comparison)
* ``fidelity`` -> ``two_notch_fidelity_profile`` (criterion 7)
* ``rms``      -> ``rms_vs_shots`` (criterion 6)

Criterion 8 (the VQE optimiser comparison, ``models.estimate_energy``) is
not a workload: its repetitions are thousands of tiny Python-bound calls,
and on a shared 2-core host their wall time spread by 26-42% of the median
between seeds, more than the largest bound a wall-time metric may have.

This module imports nothing from ``pai`` at import time, so the benchmark
driver can read workload definitions without paying the package import.
"""

from __future__ import annotations

import csv
import io
import json
import math
from dataclasses import dataclass

import numpy as np


@dataclass(frozen=True)
class Workload:
    """One benchmark workload: one ``pai`` call per repetition.

    ``threads`` is ``"1"`` or ``"nproc"``.  ``tts_target`` is the accuracy
    at which time to solution is stated.
    """

    name: str
    command: str
    options: dict
    threads: str
    why: str
    tts_target: float

    def thread_count(self, nproc: int) -> int:
        return nproc if self.threads == "nproc" else 1

    def cli_args(self, out_prefix: str, seed: int, threads: int) -> list[str]:
        """argv for ``pai.cli.main`` of one repetition."""
        argv = [self.command, "--output", out_prefix, "--threads", str(threads)]
        for name, value in {**self.options, "master_seed": seed}.items():
            if isinstance(value, list):
                value = ",".join(str(v) for v in value)
            argv += [f"--{name.replace('_', '-')}", str(value)]
        return argv


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            name="trotter",
            command="trotter",
            # criterion 5 circuit: 8 qubits, 5-bit grid, 388 gates.  2,100
            # variants make two chunks of the 2,048-row auto chunk, so the
            # thread-invariance run really splits the work.
            options={
                "num_qubits": 8,
                "bits": 5,
                "coupling": 0.3,
                "model_seed": 11,
                "total_time": 2.0,
                "n_layers": 12,
                "observable_qubit": 0,
                "n_variants": 2100,
                "shots_per_variant": 10,
                "batch_size": 1000,
                "n_batches": 2000,
            },
            threads="1",
            why="criterion-5 estimator comparison at 1 thread; pai_shot_bank on "
            "2048x256 chunks is the single-thread rotation-kernel baseline",
            tts_target=0.01,
        ),
        Workload(
            name="fidelity",
            command="fidelity-decay",
            # criterion 7: 12 qubits, 7-bit grid, 1,782 gates, 13 checkpoints.
            # 32 of the 200 variants: a kernel call holds three 2 MiB batch
            # arrays, past a 2 MiB per-core L2, and all variants still fit
            # one chunk
            options={
                "num_qubits": 12,
                "bits": 7,
                "coupling": 0.3,
                "model_seed": 11,
                "total_time": 1.0,
                "n_layers": 37,
                "n_variants": 32,
                "n_checkpoints": 13,
            },
            threads="nproc",
            why="criterion-7 two-notch decay at nproc threads; 12-qubit "
            "batches outgrow a per-core L2 and fit one chunk, so a second thread idles",
            tts_target=0.001,
        ),
        Workload(
            name="rms",
            command="rms",
            # criterion 6: 4 qubits, 5-bit grid, 34 gates, 120 repeats per
            # budget; the shot grid keeps its four decades at 3/100 of the
            # acceptance budgets
            options={
                "num_qubits": 4,
                "bits": 5,
                "coupling": 0.3,
                "model_seed": 11,
                "total_time": 0.5,
                "n_layers": 2,
                "shot_grid": [3, 30, 300, 3000],
                "repeats": 120,
            },
            threads="nproc",
            why="criterion-6 rms-vs-shots sweep at nproc threads; the only "
            "workload where the quasiprob sampler and bulk draws do real work",
            tts_target=0.001,
        ),
    )
}


# ---------------------------------------------------------------- artifacts


def csv_rows(raw: bytes) -> list[list[str]]:
    """Data rows of a ``pai`` CSV artifact (comment lines and header dropped)."""
    lines = [ln for ln in raw.decode("utf-8").splitlines() if not ln.startswith("#")]
    return list(csv.reader(io.StringIO("\n".join(lines))))[1:]


def check(name: str, artifacts: tuple[bytes, bytes]) -> tuple[bool, str]:
    """Acceptance predicate of a workload on its ``(csv bytes, json bytes)``
    artifacts, with the test suite's thresholds.  Returns ``(ok, detail)``.
    """
    raw_csv, raw_json = artifacts
    p = json.loads(raw_json)
    if name == "trotter":
        cont, near, pai = p["continuous"], p["nearest"], p["pai"]
        near_dev = abs(near["batch_mean"] - cont["batch_mean"])
        near_se = math.hypot(near["std_error"], cont["std_error"])
        pai_dev = abs(pai["batch_mean"] - cont["batch_mean"])
        pai_se = math.hypot(pai["std_error"], cont["std_error"])
        ok = (
            near_dev > 5.0 * near_se
            and pai_dev < 3.0 * pai_se
            and pai["batch_width"] > cont["batch_width"]
            and p["n_gates"] == 388
        )
        detail = (
            f"criterion-5: nearest {near_dev / near_se:.1f} se (need >5), "
            f"pai {pai_dev / pai_se:.2f} se (need <3), widths pai "
            f"{pai['batch_width']:.3f} > continuous {cont['batch_width']:.3f}, "
            f"{p['n_gates']} gates (need 388)"
        )
        return ok, detail
    if name == "fidelity":
        rows = csv_rows(raw_csv)
        gates = np.array([int(r[0]) for r in rows], dtype=float)
        logf = np.log(np.array([float(r[1]) for r in rows]))
        slope, intercept = np.polyfit(gates, logf, 1)
        ss_res = float(np.sum((logf - (slope * gates + intercept)) ** 2))
        ss_tot = float(np.sum((logf - logf.mean()) ** 2))
        r_sq = 1.0 - ss_res / ss_tot
        final = p["final_fidelity"]
        ok = bool(r_sq > 0.9 and slope < 0.0 and 0.70 <= final <= 0.95)
        detail = (
            f"criterion-7: R^2 {r_sq:.3f} (need >0.9), slope {slope:.2e} "
            f"(need <0), final fidelity {final:.4f} (need 0.70..0.95)"
        )
        return ok, detail
    if name == "rms":
        points = p["points"]
        logs_n = np.log10([pt["n_shots"] for pt in points])
        logs_rms = np.log10([pt["rms_error"] for pt in points])
        slope = float(np.polyfit(logs_n, logs_rms, 1)[0])
        below = all(pt["rms_error"] < pt["worst_case"] for pt in points)
        ok = bool(abs(slope + 0.5) < 0.05 and below)
        detail = (
            f"criterion-6: log-log slope {slope:+.3f} (need -0.5 +- 0.05), "
            f"all {len(points)} points below the weight bound: {below}"
        )
        return ok, detail
    raise KeyError(name)


def time_to_solution(name: str, artifacts: tuple[bytes, bytes], wall_s: float) -> float:
    """``wall_s * (se / target)**2``: the time the workload would need to
    reach its stated accuracy at the throughput and noise it showed.

    ``se`` is the std error of the workload's headline estimate: the PAI
    mean (trotter), the final fidelity (fidelity) and the pooled estimate
    over all repeats and budgets (rms).
    """
    target = WORKLOADS[name].tts_target
    p = json.loads(artifacts[1])
    if name == "trotter":
        se = p["pai"]["std_error"]
    elif name == "fidelity":
        se = p["final_std_error"]
    elif name == "rms":
        # rms**2 * N estimates the single-shot variance at every budget N;
        # pooling all repeats of all budgets is one estimate over their shots
        single_var = np.mean([pt["rms_error"] ** 2 * pt["n_shots"] for pt in p["points"]])
        total_shots = p["repeats"] * sum(pt["n_shots"] for pt in p["points"])
        se = math.sqrt(single_var / total_shots)
    else:
        raise KeyError(name)
    return wall_s * (se / target) ** 2


def build_inputs(name: str):
    """Build the workload's model, grid, circuit and decomposition through
    the package's public functions; this is what ``setup_s`` times."""
    import pai.cli  # noqa: F401  (the import is part of set-up)
    from pai.models import TrotterSpec, neel_prep_circuit, spin_ring, trotter_circuit
    from pai.notch import NotchGrid
    from pai.quasiprob import decompose_circuit

    o = WORKLOADS[name].options
    model = spin_ring(o["num_qubits"], o["coupling"], o["model_seed"])
    grid = NotchGrid.uniform(o["bits"])
    circuit = neel_prep_circuit(o["num_qubits"]) + trotter_circuit(
        model, TrotterSpec(o["total_time"], o["n_layers"])
    )
    return decompose_circuit(grid, circuit)
