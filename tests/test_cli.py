"""End-to-end command-line interface checks (in-process via ``main``)."""

import csv
import json
import math
import os
import re
import subprocess
import sys
import threading
import warnings
from collections import Counter
from pathlib import Path

import numpy as np
import pytest

import oracles
from pai import __version__, cli, models, rng
from pai.notch import NotchGrid
from pai.quasiprob import decompose_circuit
from pai.statevector import PauliString


def run_cli(*argv) -> int:
    return cli.main([str(a) for a in argv])


def read_csv(path: Path):
    """Rows of a CSV output, skipping the comment header."""
    with open(path, encoding="utf-8") as fh:
        lines = [ln for ln in fh if not ln.startswith("#")]
    rows = list(csv.reader(lines))
    return rows[0], rows[1:]


def comment_header(path: Path) -> list[str]:
    with open(path, encoding="utf-8") as fh:
        return [ln.rstrip("\n") for ln in fh if ln.startswith("#")]


# ---------------------------------------------------------------- decompose


def test_decompose_prints_a_full_payload(capsys):
    assert run_cli("decompose", "--angle", "0.3", "--bits", "7") == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["version"] == __version__
    assert payload["config"]["angle"] == 0.3
    assert payload["config"]["bits"] == 7
    assert payload["gamma_sum"] == pytest.approx(1.0, abs=1e-12)
    assert payload["residual"] < 1e-10
    assert payload["norm1"] >= 1.0
    assert payload["single_gate_overhead"] == pytest.approx(payload["norm1"] ** 2)
    assert len(payload["gammas"]) == 3
    assert len(payload["setting_indices"]) == 3
    signs = payload["setting_signs"]
    assert all(s in (-1, 1) for s in signs)


def test_decompose_on_notch_angle_is_exact(capsys):
    angle = math.pi / 4  # notch 1 of the 3-bit grid
    assert run_cli("decompose", "--angle", repr(angle), "--bits", "3") == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["gammas"] == [1.0, 0.0, 0.0]
    assert payload["probs"] == [1.0, 0.0, 0.0]
    assert payload["norm1"] == 1.0
    assert payload["gap_fraction"] == 0.0


def test_decompose_accepts_an_explicit_grid_file(tmp_path, capsys):
    grid_file = tmp_path / "grid.json"
    grid_file.write_text(
        json.dumps({"angles": [0.0, 0.5, 1.2, 1.8, 2.4, 3.0, 3.6, 4.2, 4.8, 5.4, 6.0]})
    )
    assert run_cli("decompose", "--angle", "0.9", "--grid-file", grid_file) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["residual"] < 1e-10
    assert payload["gap_width"] == pytest.approx(0.7)
    assert payload["gap_fraction"] == pytest.approx(0.4 / 0.7)


@pytest.mark.parametrize(
    "entry", [{}, [0.5], True, "0.5"], ids=["object", "nested-list", "bool", "string"]
)
def test_grid_file_entries_must_be_real_numbers(entry, tmp_path, capsys):
    grid_file = tmp_path / "grid.json"
    grid_file.write_text(json.dumps([0.0, entry, 1.2, 1.8, 2.4, 3.0, 3.6, 4.2, 4.8, 5.4, 6.0]))
    assert run_cli("decompose", "--angle", "0.9", "--grid-file", grid_file) == 2
    err = capsys.readouterr().err
    assert "config error: invalid notch grid: grid angles must be real numbers" in err


@pytest.mark.parametrize("explicit", [False, True], ids=["uniform", "explicit"])
def test_decompose_payload_is_the_one_gate_row(explicit, tmp_path, capsys):
    if explicit:
        grid_file = tmp_path / "grid.json"
        angles = [0.0, 0.5, 1.2, 1.8, 2.4, 3.0, 3.6, 4.2, 4.8, 5.4, 6.0]
        grid_file.write_text(json.dumps({"angles": angles}))
        grid, angle, argv = NotchGrid.from_json(grid_file), 0.9, ("--grid-file", grid_file)
    else:
        grid, angle, argv = NotchGrid.uniform(7), 0.3, ("--bits", 7)
    assert run_cli("decompose", "--angle", angle, *argv) == 0
    payload = json.loads(capsys.readouterr().out)
    dec = decompose_circuit(grid, [(PauliString("X"), angle)])
    for name in ("gammas", "probs", "setting_indices", "setting_angles", "setting_signs"):
        assert payload[name] == getattr(dec, name)[0].tolist()
    assert payload["norm1"] == dec.norm1[0]
    assert payload["single_gate_overhead"] == dec.norm1[0] ** 2
    assert payload["gap_fraction"] == dec.lam[0]
    assert payload["gap_width"] == dec.delta_k[0]
    assert payload["gamma_sum"] == sum(dec.gammas[0].tolist())


# ------------------------------------------------------------ config errors


def test_missing_required_angle_exits_2(capsys):
    assert run_cli("decompose") == 2
    assert "config error" in capsys.readouterr().err


def test_out_of_range_bits_exits_2(capsys):
    assert run_cli("decompose", "--angle", "0.3", "--bits", "99") == 2


def test_unknown_config_key_exits_2(tmp_path, capsys):
    cfg = tmp_path / "c.json"
    cfg.write_text(json.dumps({"bogus": 1}))
    assert run_cli("decompose", "--angle", "0.3", "--config", cfg) == 2
    assert "unknown config keys" in capsys.readouterr().err


def test_malformed_json_config_exits_2(tmp_path, capsys):
    cfg = tmp_path / "c.json"
    cfg.write_text("not json{")
    assert run_cli("decompose", "--angle", "0.3", "--config", cfg) == 2


def test_missing_config_file_exits_2(tmp_path):
    assert run_cli("decompose", "--angle", "0.3", "--config", tmp_path / "nope.json") == 2


def test_non_integer_field_exits_2(capsys):
    assert run_cli("decompose", "--angle", "0.3", "--bits", "3.7") == 2


@pytest.mark.parametrize(
    "command, values, field",
    [
        ("trotter", {"n_layers": 1, "total_time": True}, "total_time"),
        ("trotter", {"n_layers": False}, "n_layers"),
        ("trotter", {"omega": [0.1, True, 0.3]}, "omega"),
        ("rms", {"shot_grid": [True, 10]}, "shot_grid"),
        ("decompose", {"angle": False}, "angle"),
        ("vqe", {"mode": True}, "mode"),
    ],
)
def test_boolean_config_value_exits_2_naming_the_field(command, values, field, tmp_path, capsys):
    # JSON true and false are not the numbers 1 and 0: no field is boolean
    cfg = tmp_path / "c.json"
    cfg.write_text(json.dumps(values))
    argv = [] if command == "decompose" else ["--output", tmp_path / "out" / "run"]
    assert run_cli(command, "--config", cfg, *argv) == 2
    captured = capsys.readouterr()
    assert captured.err.count("\n") == 1 and repr(field) in captured.err and not captured.out
    assert not (tmp_path / "out").exists()


def test_bad_threads_value_exits_2(capsys):
    assert run_cli("decompose", "--angle", "0.3", "--threads", "many") == 2
    assert run_cli("decompose", "--angle", "0.3", "--threads", "0") == 2


@pytest.mark.parametrize(
    "argv, field",
    [
        (["trotter", "--num-qubits", "3", "--master-seed", "-1"], "master_seed"),
        (["rms", "--num-qubits", "3", "--model-seed", "-5"], "model_seed"),
        (["vqe", "--num-qubits", "3", "--init-seed", "-2"], "init_seed"),
    ],
)
def test_negative_seed_exits_2_naming_the_field(argv, field, tmp_path, monkeypatch, capsys):
    def no_work(*args, **kwargs):
        raise AssertionError("the run started")

    # rejected while the config is built, before any circuit is decomposed
    monkeypatch.setattr(cli, "decompose_circuit", no_work)
    out = tmp_path / "out"
    assert run_cli(*argv, "--output", out) == 2
    err = capsys.readouterr().err
    assert err.count("\n") == 1 and field in err
    assert list(tmp_path.iterdir()) == []


def test_threads_flag_beats_broken_env(monkeypatch, capsys):
    monkeypatch.setenv(cli.THREADS_ENV_VAR, "bogus")
    assert run_cli("decompose", "--angle", "0.3") == 2
    assert run_cli("decompose", "--angle", "0.3", "--threads", "1") == 0
    capsys.readouterr()


def test_flags_override_config_file(tmp_path, capsys):
    cfg = tmp_path / "c.json"
    cfg.write_text(json.dumps({"angle": 0.3, "bits": 4}))
    assert run_cli("decompose", "--config", cfg, "--bits", "5") == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["config"]["bits"] == 5
    assert payload["config"]["angle"] == 0.3


def test_command_help_lists_every_field_with_its_default(capsys):
    with pytest.raises(SystemExit) as exc:
        run_cli("trotter", "--help")
    assert exc.value.code == 0
    out = capsys.readouterr().out
    assert re.search(r"--n-variants VALUE\s+default: 10000\n", out)
    assert re.search(r"--batch-size VALUE\s+default: 1000\n", out)


def test_numerical_failure_exits_3(monkeypatch, capsys):
    # no valid config reaches a degenerate interpolation system, so the
    # exit path is exercised with a stubbed command
    from pai.quasiprob import DegenerateSettingsError

    def boom(cfg, threads):
        raise DegenerateSettingsError("synthetic")

    monkeypatch.setitem(cli._COMMANDS, "overhead", (cli.OverheadConfig, boom, "stub"))
    assert run_cli("overhead") == 3
    assert "numerical failure" in capsys.readouterr().err


def test_version_flag(capsys):
    with pytest.raises(SystemExit) as exc:
        run_cli("--version")
    assert exc.value.code == 0
    assert __version__ in capsys.readouterr().out


def test_cli_import_loads_no_scipy(tmp_path):
    # numpy is the only runtime dependency: importing the CLI loads no
    # scipy, and a 10-qubit vqe run, whose ground energy takes the Lanczos
    # path, succeeds with scipy blocked
    env = {**os.environ, "PYTHONPATH": str(Path(cli.__file__).parents[1])}
    probe = "import sys, pai.cli; print([m for m in sys.modules if m.split('.')[0] == 'scipy'])"
    out = subprocess.run(
        [sys.executable, "-c", probe], env=env, capture_output=True, text=True, check=True
    )
    assert out.stdout.strip() == "[]"
    blocked = (
        "import sys; sys.modules['scipy'] = None; from pai.cli import main; "
        "sys.exit(main(sys.argv[1:]))"
    )
    argv = ["vqe", "--num-qubits", "10", "--n-iters", "0", "--mode", "exact"]
    run = subprocess.run(
        [sys.executable, "-c", blocked, *argv, "--output", str(tmp_path / "vqe")],
        env=env,
        capture_output=True,
        text=True,
    )
    assert run.returncode == 0, run.stderr
    assert json.loads((tmp_path / "vqe.json").read_text())["ground_energy"] < 0.0


# ----------------------------------------------------------------- overhead


def test_overhead_table(tmp_path, capsys):
    out = tmp_path / "ov"
    assert run_cli("overhead", "--output", out) == 0
    capsys.readouterr()

    header, rows = read_csv(out.with_suffix(".csv"))
    assert header == ["bits", "n_gates", "delta", "overhead"]
    comments = comment_header(out.with_suffix(".csv"))
    assert comments[0].startswith("# version:")
    assert comments[1].startswith("# config:")

    table = {(int(b), int(n)): float(o) for b, n, _, o in rows}
    # gate count scales in the exponent: quadrupling the count raises the
    # factor to the fourth power
    for bits in (4, 5, 6, 7, 8):
        for nu in (1, 4, 16, 64, 256, 1024, 4096):
            assert table[(bits, 4 * nu)] == pytest.approx(
                table[(bits, nu)] ** 4, rel=1e-9
            )

    payload = json.loads(out.with_suffix(".json").read_text())
    assert payload["overhead_limit"] == pytest.approx(math.exp(math.pi**2 / 4))
    per_bits = payload["per_bits"]
    assert per_bits["7"]["max_gates"] == 4096
    for bits in per_bits:
        # at the design depth every grid meets the universal constant
        assert per_bits[bits]["overhead_at_max"] == pytest.approx(
            math.exp(math.pi**2 / 4), rel=0.03
        )


def test_overhead_zero_gates_row(tmp_path, capsys):
    out = tmp_path / "ov0"
    assert (
        run_cli(
            "overhead", "--bits-list", "5", "--gate-counts", "0,1,2", "--output", out
        )
        == 0
    )
    capsys.readouterr()
    _, rows = read_csv(out.with_suffix(".csv"))
    assert [int(r[1]) for r in rows] == [0, 1, 2]
    assert float(rows[0][3]) == 1.0


def test_identical_runs_are_byte_identical(tmp_path, capsys):
    out = tmp_path / "ov"
    assert run_cli("overhead", "--output", out) == 0
    first_csv = out.with_suffix(".csv").read_bytes()
    first_json = out.with_suffix(".json").read_bytes()
    assert run_cli("overhead", "--output", out) == 0
    capsys.readouterr()
    assert out.with_suffix(".csv").read_bytes() == first_csv
    assert out.with_suffix(".json").read_bytes() == first_json


# ------------------------------------------------------------------ trotter

_TROTTER_TINY = {
    "num_qubits": 3,
    "bits": 4,
    "total_time": 0.7,
    "n_layers": 1,
    "n_variants": 60,
    "shots_per_variant": 2,
    "batch_size": 10,
    "n_batches": 50,
}


def _run_trotter(tmp_path, name, extra=()):
    out = tmp_path / name
    args = ["trotter", "--output", out]
    for key, value in _TROTTER_TINY.items():
        args += [f"--{key.replace('_', '-')}", value]
    args += list(extra)
    assert run_cli(*args) == 0
    return out


def test_trotter_outputs(tmp_path, capsys):
    out = _run_trotter(tmp_path, "tr")
    capsys.readouterr()

    payload = json.loads(out.with_suffix(".json").read_text())
    assert payload["config"]["num_qubits"] == 3
    assert payload["n_gates"] == 13  # 1 prep rotation + 12 term gates
    assert payload["n_prep_gates"] == 1
    assert -1.0 <= payload["exact_continuous"] <= 1.0
    assert payload["refined_overhead"] <= payload["worst_case_overhead"] * (1 + 1e-9)
    for method in ("pai", "nearest", "continuous"):
        s = payload[method]
        assert s["n_shots"] == 120
        assert s["std_error"] > 0.0
        assert s["batch_size"] == 10 and s["n_batches"] == 50
        assert abs(s["batch_mean"] - s["mean"]) < 10 * s["std_error"]
    assert payload["pai"]["overhead_bound"] >= 1.0
    assert payload["nearest"]["overhead_bound"] == 1.0

    header, rows = read_csv(out.with_suffix(".csv"))
    assert header == ["method", "variant_id", "sign", "outcome_mean", "factor"]
    counts = {}
    for row in rows:
        counts[row[0]] = counts.get(row[0], 0) + 1
    # one row per sampled variant; reference banks hold a single variant
    assert counts == {"pai": 60, "nearest": 1, "continuous": 1}
    pai_rows = [row for row in rows if row[0] == "pai"]
    assert all(row[2] in ("-1", "1") for row in pai_rows)


def test_trotter_decomposes_each_gate_once(tmp_path, monkeypatch, capsys):
    # one decompose_circuit call covers all 13 gates; the report reuses it
    from pai import estimate

    calls = []
    original = estimate.decompose_circuit

    def spy(grid, circuit):
        dec = original(grid, circuit)
        calls.append(dec.num_gates)
        return dec

    for module in (cli, estimate):
        monkeypatch.setattr(module, "decompose_circuit", spy)
    out = _run_trotter(tmp_path, "tr")
    capsys.readouterr()
    assert calls == [json.loads(out.with_suffix(".json").read_text())["n_gates"]] == [13]


def test_trotter_runs_the_continuous_circuit_once(tmp_path, monkeypatch, capsys):
    # the exact value is read from the continuous bank's state, so the run
    # makes one run_circuit call for the rounded circuit and one for the
    # continuous one, and the report still holds their exact value
    from pai import estimate, statevector

    calls = []
    original = statevector.run_circuit

    def spy(circuit, num_qubits, initial=None):
        calls.append(len(circuit))
        return original(circuit, num_qubits, initial)

    for module in (estimate, statevector):
        monkeypatch.setattr(module, "run_circuit", spy)
    out = _run_trotter(tmp_path, "tr")
    capsys.readouterr()
    assert calls == [13, 13]
    payload = json.loads(out.with_suffix(".json").read_text())
    circuit = cli._quench_circuit(cli.TrotterConfig(**_TROTTER_TINY))
    observable = statevector.PauliString("ZII")
    assert payload["exact_continuous"] == estimate.continuous_expectation(circuit, observable)


# pools shaped like trotter banks (+-w, uneven) and one with three values
_POOLS = {
    "two": np.repeat([-5.647, 5.647], [1300, 1700]),
    "three": np.repeat([-1.0, 0.25, 2.0], [900, 1500, 600]),
}


@pytest.mark.parametrize("seed", [7, 8])
@pytest.mark.parametrize("pool", sorted(_POOLS))
def test_batch_means_follow_the_exact_law(pool, seed):
    # a batch mean of B draws with replacement has the pool's mean and
    # 1/B of its (ddof=0) variance; the means of n batches are checked at
    # 5 sigma and their sample variance against chi-square(n - 1) at a
    # 1e-4 two-sided level
    from scipy.stats import chi2

    values, size, n = _POOLS[pool], 200, 4000
    means = cli._batch_means(values, size, n, rng.stream(seed, 3, 0))
    mu, var = values.mean(), values.var() / size
    assert abs(means.mean() - mu) < 5.0 * math.sqrt(var / n)
    stat = (n - 1) * means.var(ddof=1) / var
    assert chi2.ppf(5e-5, n - 1) <= stat <= chi2.ppf(1.0 - 5e-5, n - 1)


@pytest.mark.parametrize(
    "levels, counts", [([-3.0, 1.0], [40, 60]), ([-1.0, 0.0, 2.0], [30, 50, 20])]
)
def test_batch_means_match_the_index_bootstrap(levels, counts):
    # the same law as drawing shot indices: the sums of 8-shot batches
    # from both samplers pass a chi-square homogeneity test at 1e-4
    from scipy.stats import chi2_contingency

    values = rng.stream(3, 1).permutation(np.repeat(levels, counts))
    size, n = 8, 20000
    fast = cli._batch_means(values, size, n, rng.stream(7, 3, 0))
    slow = oracles.index_resample(values, size, n, rng.stream(7, 3, 1))
    sums = [np.rint(m * size).astype(np.int64) for m in (fast, slow)]
    outcomes = np.unique(np.concatenate(sums))
    assert outcomes.size > 8
    table = np.array([[np.count_nonzero(s == o) for o in outcomes] for s in sums])
    # pool the sparse tails so every cell expects at least 5 counts
    keep = table.sum(axis=0) >= 20
    table = np.column_stack([table[:, keep], table[:, ~keep].sum(axis=1)])
    table = table[:, table.sum(axis=0) > 0]
    assert chi2_contingency(table).pvalue > 1e-4


def test_one_batch_has_zero_width():
    out = cli._resampled_batches(_POOLS["two"], 50, 1, rng.stream(7, 3, 0))
    assert out["n_batches"] == 1 and out["batch_width"] == 0.0
    assert abs(out["batch_mean"]) <= 5.647


def test_huge_batches_draw_counts_not_indices():
    # 10**9 shots per batch would be 8 GB of indices per batch for an
    # index bootstrap; the counts take a few hundred bytes
    import tracemalloc

    values = _POOLS["two"]
    tracemalloc.start()
    try:
        out = cli._resampled_batches(values, 10**9, 100, rng.stream(7, 3, 0))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1 << 20
    sd = values.std() / math.sqrt(10**9)
    assert abs(out["batch_mean"] - values.mean()) < 5.0 * sd / math.sqrt(100)
    assert 0.5 * sd < out["batch_width"] < 2.0 * sd


@pytest.mark.parametrize("field", ["batch-size", "n-batches", "n-variants", "shots-per-variant"])
def test_trotter_rejects_empty_batches(tmp_path, monkeypatch, capsys, field):
    for bank in ("continuous_shot_bank", "nearest_notch_shot_bank", "pai_shot_bank"):
        monkeypatch.setattr(cli, bank, lambda *a, **k: pytest.fail("a circuit ran"))
    assert run_cli("trotter", "--output", tmp_path / "tr", f"--{field}", "0") == 2
    name = field.replace("-", "_")
    assert capsys.readouterr().err == f"config error: field {name!r} must be positive, got 0\n"
    assert list(tmp_path.iterdir()) == []


def test_trotter_threads_do_not_change_bytes(tmp_path, capsys):
    out = _run_trotter(tmp_path, "tr", ("--threads", "1"))
    one_csv = out.with_suffix(".csv").read_bytes()
    one_json = out.with_suffix(".json").read_bytes()
    _run_trotter(tmp_path, "tr", ("--threads", "2"))
    capsys.readouterr()
    assert out.with_suffix(".csv").read_bytes() == one_csv
    assert out.with_suffix(".json").read_bytes() == one_json


def test_threads_env_variable_is_honoured(tmp_path, monkeypatch, capsys):
    out = _run_trotter(tmp_path, "tr", ("--threads", "1"))
    one_csv = out.with_suffix(".csv").read_bytes()
    monkeypatch.setenv(cli.THREADS_ENV_VAR, "3")
    _run_trotter(tmp_path, "tr")
    capsys.readouterr()
    assert out.with_suffix(".csv").read_bytes() == one_csv


def test_trotter_on_notch_config_collapses_the_methods(tmp_path, capsys):
    """With every angle exactly on a notch all three estimators sample the
    same circuit, so the sampled means agree within combined error bars."""
    cfg = tmp_path / "cfg.json"
    cfg.write_text(
        json.dumps(
            {
                "num_qubits": 3,
                "bits": 4,
                "coupling": math.pi / 16,
                "omega": [math.pi / 16] * 3,
                "total_time": 1.0,
                "n_layers": 1,
                "n_variants": 400,
                "shots_per_variant": 2,
                "batch_size": 10,
                "n_batches": 20,
            }
        )
    )
    out = tmp_path / "notch"
    assert run_cli("trotter", "--config", cfg, "--output", out) == 0
    capsys.readouterr()
    payload = json.loads(out.with_suffix(".json").read_text())
    assert payload["pai"]["overhead_bound"] == 1.0  # weight collapses to 1
    assert payload["worst_case_overhead"] > 1.0
    for method in ("pai", "nearest"):
        s = payload[method]
        combined = math.hypot(s["std_error"], payload["continuous"]["std_error"])
        assert abs(s["mean"] - payload["continuous"]["mean"]) < 5 * combined
        assert abs(s["bias_vs_continuous"]) < 6 * s["std_error"] + 1e-12


def test_trotter_bad_observable_qubit_exits_2(tmp_path, capsys):
    assert (
        run_cli(
            "trotter",
            "--num-qubits", "3",
            "--observable-qubit", "5",
            "--output", tmp_path / "x",
        )
        == 2
    )


def test_trotter_weight_overflow_exits_2_before_any_bank(tmp_path, monkeypatch, capsys):
    # 6,402 gates at B = 2: the worst-case overhead exp(4437) overflows a
    # float, which is reported as one line before any bank is drawn
    def no_bank(*args, **kwargs):
        raise AssertionError("a bank was drawn")

    monkeypatch.setattr(cli, "pai_shot_bank", no_bank)
    out = tmp_path / "big"
    argv = ["--num-qubits", "4", "--bits", "2", "--n-layers", "400"]
    argv += ["--n-variants", "10", "--shots-per-variant", "1", "--output", out]
    assert run_cli("trotter", *argv) == 2
    err = capsys.readouterr().err
    assert err.count("\n") == 1 and "overflows a float" in err
    assert not out.with_suffix(".json").exists()


# ---------------------------------------------------------------------- vqe

_VQE_TINY = ["--num-qubits", "3", "--bits", "4", "--n-layers", "1"]


def test_vqe_zero_iterations(tmp_path, capsys):
    out = tmp_path / "v0"
    assert (
        run_cli(
            "vqe", *_VQE_TINY, "--mode", "exact", "--n-iters", "0", "--output", out
        )
        == 0
    )
    capsys.readouterr()
    header, rows = read_csv(out.with_suffix(".csv"))
    assert header == ["iteration", "energy", "delta_e"]
    assert len(rows) == 1 and rows[0][0] == "0"
    payload = json.loads(out.with_suffix(".json").read_text())
    assert payload["final_delta_e"] == pytest.approx(payload["best_delta_e"])
    assert payload["final_delta_e"] >= -1e-9
    assert payload["floor_delta_e"] >= -1e-9
    assert payload["n_params"] == 12
    assert float(rows[0][2]) == pytest.approx(payload["final_delta_e"], abs=1e-12)


def test_vqe_exact_descent_improves(tmp_path, capsys):
    out = tmp_path / "vd"
    assert (
        run_cli(
            "vqe", *_VQE_TINY,
            "--mode", "exact",
            "--learning-rate", "0.1",
            "--n-iters", "25",
            "--output", out,
        )
        == 0
    )
    capsys.readouterr()
    _, rows = read_csv(out.with_suffix(".csv"))
    assert len(rows) == 26
    assert float(rows[-1][2]) < float(rows[0][2])
    payload = json.loads(out.with_suffix(".json").read_text())
    energies = [float(r[1]) for r in rows]
    assert payload["best_energy"] == pytest.approx(min(energies))
    assert payload["best_delta_e"] <= payload["final_delta_e"] + 1e-12


def test_vqe_modes_start_from_the_same_energy(tmp_path, capsys):
    rows = {}
    for mode in ("exact", "pai"):
        out = tmp_path / mode
        assert (
            run_cli(
                "vqe", *_VQE_TINY,
                "--mode", mode,
                "--n-iters", "0",
                "--n-variants", "5",
                "--shots-per-variant", "5",
                "--output", out,
            )
            == 0
        )
        _, body = read_csv(out.with_suffix(".csv"))
        rows[mode] = body[0]
    capsys.readouterr()
    # iterate energies are exact statevector evaluations in every mode
    assert rows["exact"] == rows["pai"]


def test_vqe_negative_iterations_exit_2_naming_the_field(tmp_path, capsys):
    out = tmp_path / "vn"
    assert run_cli("vqe", *_VQE_TINY, "--n-iters", "-1", "--output", out) == 2
    err = capsys.readouterr().err
    assert err.count("\n") == 1 and "n_iters" in err
    assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize("n_iters", ["0", "1"])
@pytest.mark.parametrize("rate", ["nan", "inf", "-inf"])
def test_vqe_non_finite_learning_rate_exits_2_naming_the_field(
    rate, n_iters, tmp_path, monkeypatch, capsys
):
    # refused before any gradient is taken, and before a NaN reaches vqe.json
    monkeypatch.setattr(models, "gradient", lambda *a, **k: pytest.fail("a gradient ran"))
    argv = ["vqe", *_VQE_TINY, "--mode", "exact", "--n-iters", n_iters]
    assert run_cli(*argv, f"--learning-rate={rate}", "--output", tmp_path / "v") == 2
    err = capsys.readouterr().err
    assert err.count("\n") == 1 and "learning_rate" in err
    assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize("mode", ["nearest", "pai"])
@pytest.mark.parametrize("field", ["n-variants", "shots-per-variant"])
def test_vqe_sampled_modes_reject_empty_banks_naming_the_field(
    mode, field, tmp_path, monkeypatch, capsys
):
    for name in ("gradient", "run_circuit"):
        monkeypatch.setattr(models, name, lambda *a, **k: pytest.fail("a circuit ran"))
    argv = ["vqe", *_VQE_TINY, "--mode", mode, "--n-iters", "1", f"--{field}", "0"]
    assert run_cli(*argv, "--output", tmp_path / "v") == 2
    name = field.replace("-", "_")
    assert capsys.readouterr().err == f"config error: field {name!r} must be positive, got 0\n"
    assert list(tmp_path.iterdir()) == []


def test_vqe_bad_mode_exits_2(tmp_path, capsys):
    assert (
        run_cli("vqe", *_VQE_TINY, "--mode", "magic", "--output", tmp_path / "x") == 2
    )


# ----------------------------------------------------------- fidelity-decay


def test_fidelity_decay_profile(tmp_path, capsys):
    out = tmp_path / "fid"
    assert (
        run_cli(
            "fidelity-decay",
            "--num-qubits", "4",
            "--bits", "5",
            "--n-layers", "2",
            "--n-variants", "50",
            "--n-checkpoints", "5",
            "--output", out,
        )
        == 0
    )
    capsys.readouterr()
    header, rows = read_csv(out.with_suffix(".csv"))
    assert header == ["n_gates", "fidelity", "std_error"]
    assert int(rows[0][0]) == 0
    assert float(rows[0][1]) == 1.0
    assert float(rows[0][2]) == 0.0
    assert [int(r[0]) for r in rows] == sorted(int(r[0]) for r in rows)
    payload = json.loads(out.with_suffix(".json").read_text())
    assert payload["n_gates"] == 34  # 2 prep + 2 layers x 16 terms
    assert int(rows[-1][0]) == 34
    assert 0.0 < payload["final_fidelity"] <= 1.0
    assert payload["fidelity_drop"] == pytest.approx(1.0 - payload["final_fidelity"])
    assert payload["lam_tilde"] > 0.0


def test_fidelity_over_the_qubit_cap_exits_2_before_allocating(tmp_path, capsys):
    # a 25-qubit state would be 512 MiB; the cap is checked before the
    # start state is allocated
    import tracemalloc

    argv = ["--num-qubits", "25", "--n-layers", "1", "--n-variants", "1", "--n-checkpoints", "2"]
    tracemalloc.start()
    try:
        code = run_cli("fidelity-decay", *argv, "--output", tmp_path / "f")
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert code == 2 and "num_qubits must be in [1, 24]" in capsys.readouterr().err
    assert peak < 64 << 20


def test_fidelity_needs_two_checkpoints(tmp_path, capsys):
    assert (
        run_cli(
            "fidelity-decay",
            "--num-qubits", "4",
            "--n-checkpoints", "1",
            "--output", tmp_path / "x",
        )
        == 2
    )


# ---------------------------------------------------------------------- rms


def test_rms_curve_output(tmp_path, capsys):
    out = tmp_path / "rms"
    assert (
        run_cli(
            "rms",
            "--num-qubits", "3",
            "--bits", "4",
            "--n-layers", "1",
            "--shot-grid", "64,256",
            "--repeats", "20",
            "--output", out,
        )
        == 0
    )
    capsys.readouterr()
    header, rows = read_csv(out.with_suffix(".csv"))
    assert header == ["n_shots", "rms_error", "shot_noise", "worst_case"]
    assert [int(r[0]) for r in rows] == [64, 256]
    for row in rows:
        n = int(row[0])
        assert float(row[1]) > 0.0
        # both reference columns carry the 1/sqrt(N) scaling
        assert float(row[3]) * math.sqrt(n) == pytest.approx(
            float(rows[0][3]) * 8.0, rel=1e-12
        )
    payload = json.loads(out.with_suffix(".json").read_text())
    assert payload["loglog_slope"] < 0.0
    assert len(payload["points"]) == 2


@pytest.mark.parametrize("shot_grid", [",", "100", "100,100"], ids=["none", "one", "repeated"])
def test_rms_needs_two_distinct_budgets(shot_grid, tmp_path, monkeypatch, capsys):
    # the log-log slope is fitted through the budgets, so fewer than two
    # distinct ones exit 2 before any bank is drawn or file written
    monkeypatch.setattr(cli, "rms_vs_shots", lambda *a, **k: pytest.fail("a bank was drawn"))
    assert run_cli("rms", "--shot-grid", shot_grid, "--output", tmp_path / "rms") == 2
    assert "need at least 2 distinct shot budgets" in capsys.readouterr().err
    assert not any(tmp_path.iterdir())


def test_rms_with_an_exact_budget_writes_a_null_slope(tmp_path, capsys):
    # at time 0 every gate is on a notch, so w = 1 and every repeat is
    # exact: log10 of a zero error has no value, and the artifact stays
    # strict JSON
    out = tmp_path / "rms"
    argv = ["rms", "--num-qubits", "4", "--total-time", "0", "--shot-grid", "1,10"]
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert run_cli(*argv, "--repeats", "2", "--output", out) == 0
    assert "slope of rms error vs shots: undefined" in capsys.readouterr().out

    def refuse(name):
        raise ValueError(f"{name} is not JSON")

    payload = json.loads(out.with_suffix(".json").read_text(), parse_constant=refuse)
    assert payload["loglog_slope"] is None
    assert [p["rms_error"] for p in payload["points"]] == [0.0, 0.0]


# -------------------------------------------------------------- stream keys


def _record_stream_keys(monkeypatch) -> tuple[list, list]:
    """Replace ``stream`` and ``chunk_uniforms`` in every ``pai`` namespace
    that holds them with recording wrappers.  Returns ``(singles,
    windows)``: the ``(master_seed, *key)`` of each stream built outside a
    chunk draw, and of each window stream that a chunk draw builds, with
    the chunk's variant range ``(lo, hi)``."""
    singles: list = []
    windows: list = []
    chunk = threading.local()
    original_stream, original_chunk = rng.stream, rng.chunk_uniforms

    def recording_stream(master_seed, *key):
        address = (int(master_seed), *(int(k) for k in key))
        span = getattr(chunk, "span", None)
        if span is None:
            singles.append(address)
        else:
            windows.append((address, span))
        return original_stream(master_seed, *key)

    def recording_chunk(master_seed, key, lo, hi, width, out=None):
        chunk.span = (lo, hi)
        try:
            return original_chunk(master_seed, key, lo, hi, width, out)
        finally:
            chunk.span = None

    wrappers = {
        "stream": (original_stream, recording_stream),
        "chunk_uniforms": (original_chunk, recording_chunk),
    }
    for name, module in list(sys.modules.items()):
        if name != "pai" and not name.startswith("pai."):
            continue
        for attr, (original, wrapper) in wrappers.items():
            if getattr(module, attr, None) is original:
                monkeypatch.setattr(module, attr, wrapper)
    return singles, windows


_KEYED_RUNS = {
    "trotter": "trotter --num-qubits 3 --bits 4 --total-time 0.7 --n-layers 1 "
    "--n-variants 60 --shots-per-variant 2 --batch-size 10 --n-batches 50",
    "rms": "rms --num-qubits 3 --bits 4 --n-layers 1 --shot-grid 5,20 --repeats 3",
    "fidelity-decay": "fidelity-decay --num-qubits 3 --bits 4 --n-layers 1 "
    "--n-variants 20 --n-checkpoints 3",
    "vqe-pai": "vqe --num-qubits 3 --bits 4 --n-layers 1 --mode pai --n-iters 2 "
    "--n-variants 4 --shots-per-variant 2",
    "vqe-nearest": "vqe --num-qubits 3 --bits 4 --n-layers 1 --mode nearest "
    "--n-iters 2 --n-variants 4 --shots-per-variant 2",
}


@pytest.mark.parametrize("run", sorted(_KEYED_RUNS))
def test_no_stream_key_is_drawn_twice_in_a_run(run, tmp_path, monkeypatch, capsys):
    singles, windows = _record_stream_keys(monkeypatch)
    # 11 is also the default model_seed, and vqe's init seed equals the
    # master seed: the model-field and initial-parameter streams must stay
    # apart from every window stream
    for seed in (5, 11):
        del singles[:], windows[:]
        argv = [*_KEYED_RUNS[run].split(), "--master-seed", seed]
        if run.startswith("vqe"):
            argv += ["--init-seed", seed]
        assert run_cli(*argv, "--output", tmp_path / "out") == 0
        capsys.readouterr()
        assert singles or windows, "the run drew no stream through a recorded namespace"
        assert [k for k, count in Counter(singles).items() if count > 1] == []
        window_keys = {k for k, _ in windows}
        assert window_keys.isdisjoint(singles)
        for key in window_keys:
            ranges = sorted(r for k, r in windows if k == key)
            assert all(hi <= lo for (_, hi), (lo, _) in zip(ranges, ranges[1:])), key
        # the documented layout (pai.rng): one pai window, and the reference
        # estimators on their own single streams
        if run == "trotter":
            assert window_keys == {(seed, 0)}
            assert {(seed, 1, 0), (seed, 2, 0), (seed, 3, 0), (seed, 3, 1)} <= set(singles)
            assert sorted(r for _, r in windows)[-1][1] == 60
        if run == "fidelity-decay":
            assert window_keys == {(seed, 0)}
        if run == "rms":
            # one window per budget; a repeat is a range of its variants
            assert window_keys == {(seed, i, 0, 0) for i in range(2)}
        if run == "vqe-nearest":
            assert not windows and (seed, 0, 0, 0, 1, 0) in singles
        if run == "vqe-pai":
            assert (seed, 0, 0, 0, 0) in window_keys
        if run.startswith("vqe"):
            assert (seed, 0, 0) in singles  # the initial parameters
            assert (0, 0, 0, 0, 0, 0, 0) in singles  # the Lanczos start vector
        if seed == 11:
            assert (seed,) in singles  # the model fields


_REPRODUCED_RUNS = {
    **_KEYED_RUNS,
    "trotter-omega": _KEYED_RUNS["trotter"] + " --omega 0.1,0.2,0.3",
    "decompose": "decompose --angle 0.3 --bits 5",
    "overhead": "overhead --bits-list 4,6 --gate-counts 1,16",
}


@pytest.mark.parametrize("run", sorted(_REPRODUCED_RUNS))
def test_an_artifacts_config_reproduces_it(run, tmp_path, capsys):
    # rerun from the config that the artifact embeds, and nothing else
    argv = _REPRODUCED_RUNS[run].split()
    out, cfg = tmp_path / "run", tmp_path / "config.json"
    paths = [] if run == "decompose" else [out.with_suffix(".csv"), out.with_suffix(".json")]
    assert run_cli(*argv, *(["--output", out] if paths else [])) == 0
    first = [capsys.readouterr().out, *(path.read_bytes() for path in paths)]
    cfg.write_text(json.dumps(json.loads(first[-1])["config"]))
    for path in paths:
        path.unlink()
    assert run_cli(argv[0], "--config", cfg) == 0
    assert [capsys.readouterr().out, *(path.read_bytes() for path in paths)] == first


def test_every_experiment_config_loads_for_its_command():
    # a file's command is its stem up to the first "_"; an unknown key raises
    paths = sorted((Path(__file__).resolve().parents[1] / "experiments").glob("*.json"))
    assert [path.stem for path in paths] == [
        "fidelity-decay", "overhead", "rms", "rms_quick", "trotter", "trotter_quick", "vqe"
    ]
    for path in paths:
        values = json.loads(path.read_text())
        config_type = cli._COMMANDS[path.stem.split("_")[0]][0]
        resolved = vars(cli._build_config(config_type, str(path), {}))
        assert {key: resolved[key] for key in values} == values


# ------------------------------------------------------------- BLAS kernels


def _numpy_uses_openblas() -> bool:
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return "openblas" in str(blas.get("name", "")).lower()


# small runs that reach every number a BLAS or LAPACK call would round:
# trotter's batch means (1,000-shot batches of +-w), rms's two-budget
# log-log slope, vqe's Lanczos ground energy, and decompose's residual and
# explicit-grid solve
_KERNEL_RUNS = [
    "trotter --num-qubits 3 --bits 4 --total-time 0.7 --n-layers 1 --n-variants 60 "
    "--shots-per-variant 2 --batch-size 1000 --n-batches 50 --output trotter",
    "rms --num-qubits 3 --bits 4 --n-layers 1 --shot-grid 5,20 --repeats 3 --output rms",
    "vqe --num-qubits 3 --bits 4 --n-layers 1 --mode exact --n-iters 2 --output vqe_exact",
    "vqe --num-qubits 3 --bits 4 --n-layers 1 --mode pai --n-iters 2 --n-variants 4 "
    "--shots-per-variant 2 --output vqe_pai",
    "decompose --angle 1.234 --bits 7",
    "decompose --angle 0.9 --grid-file grid.json",
    "decompose --angle 2.1 --grid-file grid.json",
]


@pytest.mark.skipif(not _numpy_uses_openblas(), reason="numpy is not built on OpenBLAS")
def test_artifacts_do_not_depend_on_the_blas_kernel(tmp_path):
    # one process at OpenBLAS's own choice of CPU kernel and one forced to
    # the SSE3 (Prescott) kernel run the same commands, side by side
    script = (
        "import sys; from pai.cli import main\n"
        "for line in sys.argv[1:]:\n"
        "    assert main(line.split()) == 0, line\n"
    )
    env = {**os.environ, "PYTHONPATH": str(Path(cli.__file__).parents[1])}
    env.pop("OPENBLAS_CORETYPE", None)
    runs = {}
    for kernel in ("default", "Prescott"):
        cwd = tmp_path / kernel
        cwd.mkdir()
        (cwd / "grid.json").write_text("[0.0, 0.5, 1.2, 1.8, 2.4, 3.0, 3.6, 4.2, 4.8, 5.4, 6.0]")
        kernel_env = env if kernel == "default" else {**env, "OPENBLAS_CORETYPE": kernel}
        runs[kernel] = subprocess.Popen(
            [sys.executable, "-c", script, *_KERNEL_RUNS],
            cwd=cwd,
            env=kernel_env,
            stdout=subprocess.PIPE,
            stderr=subprocess.PIPE,
            text=True,
        )
    outputs = {}
    for kernel, proc in runs.items():
        out, err = proc.communicate(timeout=120)
        assert proc.returncode == 0, err
        files = sorted((tmp_path / kernel).iterdir())
        outputs[kernel] = [out, *((path.name, path.read_bytes()) for path in files)]
    assert len(outputs["default"]) == 2 + 2 * 4  # stdout, grid.json and 8 artifacts
    assert outputs["Prescott"] == outputs["default"]
