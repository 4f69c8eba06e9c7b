"""Command-line front end.

Subcommands::

    pai decompose       coefficients for one target angle
    pai overhead        worst-case sampling overhead table
    pai trotter         Trotterized spin-ring observable, three estimators
    pai vqe             gradient-descent ground-state search
    pai fidelity-decay  sign-free two-notch scheme fidelity profile
    pai rms             estimator error versus shot budget

Each subcommand reads an optional JSON config file (``--config``) whose
keys match the flag names; command-line flags override file values, which
override defaults.  Numeric results go to ``<output>.csv`` /
``<output>.json``; every output embeds the fully resolved config and the
package version, and is byte-identical for a given config regardless of
``--threads`` (default from ``PAI_THREADS``, else 1).

Exit codes: 0 success, 2 invalid configuration or arguments, 3 numerical
failure (degenerate interpolation settings, linear algebra breakdown).
"""

import argparse
import csv
import dataclasses
import functools
import json
import math
import os
import sys
import types
import typing
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from . import __version__
from .estimate import (
    continuous_shot_bank,
    nearest_notch_shot_bank,
    pai_shot_bank,
    per_variant_rows,
    rms_vs_shots,
    two_notch_fidelity_profile,
)
from .models import (
    EstimatorConfig,
    SpinRingModel,
    TrotterSpec,
    ground_energy,
    neel_prep_circuit,
    notch_floor_energy,
    spin_ring,
    trotter_circuit,
    vqe_run,
)
from .notch import NotchGrid
from .quasiprob import (
    DegenerateSettingsError,
    decompose_circuit,
    interpolation_residual,
    max_gates_for_bits,
    refined_overhead,
    worst_case_overhead,
)
from .rng import stream
from .statevector import PauliString

THREADS_ENV_VAR = "PAI_THREADS"


class ConfigError(Exception):
    """Invalid configuration file or command-line arguments."""


# ---------------------------------------------------------------------------
# per-command configuration


@dataclass
class DecomposeConfig:
    angle: float | None = None
    bits: int = 7
    grid_file: str | None = None


@dataclass
class OverheadConfig:
    bits_list: list[int] = dataclasses.field(default_factory=lambda: [4, 5, 6, 7, 8])
    gate_counts: list[int] = dataclasses.field(
        default_factory=lambda: [1, 4, 16, 64, 256, 1024, 4096, 16384]
    )
    output: str = "overhead"


@dataclass
class TrotterConfig:
    num_qubits: int = 8
    bits: int = 6
    coupling: float = 0.3
    model_seed: int = 11
    omega: list[float] | None = None
    total_time: float = 1.0
    n_layers: int = 50
    observable_qubit: int = 0
    n_variants: int = 10000
    shots_per_variant: int = 10
    batch_size: int = 1000
    n_batches: int = 20000
    master_seed: int = 7
    output: str = "trotter"


@dataclass
class VqeConfig:
    num_qubits: int = 6
    bits: int = 5
    coupling: float = 0.3
    model_seed: int = 11
    omega: list[float] | None = None
    n_layers: int = 2
    mode: str = "pai"
    learning_rate: float = 0.05
    n_iters: int = 60
    n_variants: int = 40
    shots_per_variant: int = 25
    master_seed: int = 7
    init_seed: int = 3
    output: str = "vqe"


@dataclass
class FidelityConfig:
    num_qubits: int = 12
    bits: int = 7
    coupling: float = 0.3
    model_seed: int = 11
    omega: list[float] | None = None
    total_time: float = 1.0
    n_layers: int = 37
    n_variants: int = 200
    n_checkpoints: int = 13
    master_seed: int = 7
    output: str = "fidelity_decay"


@dataclass
class RmsConfig:
    num_qubits: int = 4
    bits: int = 5
    coupling: float = 0.3
    model_seed: int = 11
    omega: list[float] | None = None
    # t = 0.5 keeps |<Z_0>| well separated from the sampling weight so the
    # rms curve sits visibly between the shot-noise and worst-case lines
    total_time: float = 0.5
    n_layers: int = 2
    shot_grid: list[int] = dataclasses.field(
        default_factory=lambda: [100, 1000, 10000, 100000]
    )
    repeats: int = 120
    master_seed: int = 7
    output: str = "rms"


def _coerce(name: str, raw, annotation):
    """Coerce a JSON value or flag string into the annotated field type."""
    origin = typing.get_origin(annotation)
    if isinstance(annotation, types.UnionType) or origin is typing.Union:
        args = [a for a in typing.get_args(annotation) if a is not type(None)]
        if raw is None or (isinstance(raw, str) and raw.lower() in ("none", "null")):
            return None
        return _coerce(name, raw, args[0])
    if origin is list:
        (elem,) = typing.get_args(annotation)
        if isinstance(raw, str):
            raw = [part for part in raw.split(",") if part.strip()]
        if not isinstance(raw, (list, tuple)):
            raise ConfigError(f"field {name!r} expects a list")
        return [_coerce(name, item, elem) for item in raw]
    if isinstance(raw, bool):  # no field is boolean, and int(True) would be 1
        raise ConfigError(f"field {name!r}: cannot interpret {raw!r}")
    try:
        if annotation is int:
            value = int(str(raw), 0) if isinstance(raw, str) else int(raw)
            if isinstance(raw, float) and raw != value:
                raise ValueError(raw)
            return value
        if annotation is float:
            return float(raw)
        if annotation is str:
            return str(raw)
    except (TypeError, ValueError) as exc:
        raise ConfigError(f"field {name!r}: cannot interpret {raw!r}") from exc
    raise ConfigError(f"field {name!r} has unsupported type {annotation!r}")


# stream and model seeds, which SeedSequence takes only when non-negative
_SEED_FIELDS = ("model_seed", "master_seed", "init_seed")


def _build_config(cls, config_path: str | None, overrides: dict):
    field_map = {f.name: f for f in dataclasses.fields(cls)}
    merged: dict = {}
    if config_path is not None:
        try:
            with open(config_path, encoding="utf-8") as fh:
                file_values = json.load(fh)
        except OSError as exc:
            raise ConfigError(f"cannot read config file: {exc}") from exc
        except json.JSONDecodeError as exc:
            raise ConfigError(f"config file is not valid JSON: {exc}") from exc
        if not isinstance(file_values, dict):
            raise ConfigError("config file must hold a JSON object")
        unknown = set(file_values) - set(field_map)
        if unknown:
            raise ConfigError(f"unknown config keys: {sorted(unknown)}")
        merged.update(file_values)
    merged.update(overrides)
    kwargs = {
        name: _coerce(name, value, field_map[name].type)
        for name, value in merged.items()
    }
    for name in _SEED_FIELDS:
        if kwargs.get(name, 0) < 0:
            raise ConfigError(f"field {name!r} must be non-negative, got {kwargs[name]}")
    return cls(**kwargs)


def _resolve_threads(flag_value: str | None) -> int:
    raw = flag_value if flag_value is not None else os.environ.get(THREADS_ENV_VAR)
    if raw is None:
        return 1
    try:
        threads = int(raw)
    except ValueError as exc:
        raise ConfigError(f"threads must be an integer, got {raw!r}") from exc
    if threads < 1:
        raise ConfigError("threads must be at least 1")
    return threads


def _grid_from(bits: int, grid_file: str | None = None) -> NotchGrid:
    try:
        if grid_file is not None:
            return NotchGrid.from_json(grid_file)
        return NotchGrid.uniform(bits)
    except (OSError, ValueError, json.JSONDecodeError) as exc:
        raise ConfigError(f"invalid notch grid: {exc}") from exc


# ---------------------------------------------------------------------------
# shared inputs and outputs


def _run_info(cfg) -> dict:
    return {"version": __version__, "config": dataclasses.asdict(cfg)}


def _write_outputs(cfg, header: list[str], rows, payload: dict, *lines: str) -> int:
    """Write ``<output>.csv`` (the rows under a version and config comment
    header) and ``<output>.json`` (``payload`` with version and config),
    then print ``lines`` and the two paths."""
    info = _run_info(cfg)
    out_csv, out_json = (Path(cfg.output + ext) for ext in (".csv", ".json"))
    out_csv.parent.mkdir(parents=True, exist_ok=True)
    with open(out_csv, "w", encoding="utf-8", newline="") as fh:
        fh.write(f"# version: {__version__}\n")
        fh.write(f"# config: {json.dumps(info['config'], sort_keys=True)}\n")
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(header)
        writer.writerows(rows)
    with open(out_json, "w", encoding="utf-8", newline="") as fh:
        json.dump({**info, **payload}, fh, indent=2, sort_keys=True)
        fh.write("\n")
    for line in lines:
        print(line)
    print(f"wrote {out_csv} and {out_json}")
    return 0


def _ring(cfg) -> SpinRingModel:
    return spin_ring(cfg.num_qubits, cfg.coupling, cfg.model_seed, cfg.omega)


def _quench_circuit(cfg) -> list[tuple[PauliString, float]]:
    model = _ring(cfg)
    # quench from the alternating product state: |0..0> is stationary
    prep = neel_prep_circuit(cfg.num_qubits)
    return prep + trotter_circuit(model, TrotterSpec(cfg.total_time, cfg.n_layers))


def _observable_string(letter: str, qubit: int, num_qubits: int) -> PauliString:
    if not 0 <= qubit < num_qubits:
        raise ConfigError(f"observable qubit {qubit} outside the register")
    return PauliString(
        "".join(letter if i == qubit else "I" for i in range(num_qubits))
    )


def _batch_means(values: np.ndarray, batch_size: int, n_batches: int, rng) -> np.ndarray:
    """Means of ``n_batches`` batches of ``batch_size`` shots drawn with
    replacement from ``values``.

    A batch mean is fixed by how many times each distinct value was drawn,
    so one multinomial draw gives every batch's counts over the pool's
    ``K`` distinct values.  Work and memory are O(n_batches * K) and do
    not depend on ``batch_size``; a trotter bank holds K <= 2 values (+-w,
    or +-1 for the references), because its observable is one Pauli
    string.  The counts are weighted and added level by level, in level
    order, not by a BLAS product, whose order and fused steps depend on
    the CPU kernel.
    """
    levels, counts = np.unique(values, return_counts=True)
    drawn = rng.multinomial(batch_size, counts / values.shape[0], size=n_batches)
    total = drawn[:, 0] * levels[0]
    for k in range(1, levels.shape[0]):
        total += drawn[:, k] * levels[k]
    return total / batch_size


def _resampled_batches(values: np.ndarray, batch_size: int, n_batches: int, rng) -> dict:
    """Mean and spread of the :func:`_batch_means` of ``values``."""
    means = _batch_means(values, batch_size, n_batches, rng)
    return {
        "batch_size": batch_size,
        "n_batches": n_batches,
        "batch_mean": float(means.mean()),
        "batch_width": float(means.std(ddof=1)) if n_batches > 1 else 0.0,
    }


# ---------------------------------------------------------------------------
# subcommands


def _cmd_decompose(cfg: DecomposeConfig, threads: int) -> int:
    if cfg.angle is None:
        raise ConfigError("decompose needs --angle")
    grid = _grid_from(cfg.bits, cfg.grid_file)
    dec = decompose_circuit(grid, [(PauliString("X"), cfg.angle)])
    gammas, setting_angles = dec.gammas[0].tolist(), dec.setting_angles[0].tolist()
    norm1 = float(dec.norm1[0])
    payload = {
        **_run_info(cfg),
        "angle": cfg.angle,
        "gammas": gammas,
        "probs": dec.probs[0].tolist(),
        "norm1": norm1,
        "single_gate_overhead": norm1**2,
        "setting_indices": dec.setting_indices[0].tolist(),
        "setting_angles": setting_angles,
        "setting_signs": dec.setting_signs[0].tolist(),
        "gap_fraction": float(dec.lam[0]),
        "gap_width": float(dec.delta_k[0]),
        "gamma_sum": float(sum(gammas)),
        "residual": interpolation_residual(cfg.angle, setting_angles, gammas),
    }
    print(json.dumps(payload, indent=2, sort_keys=True))
    return 0


def _cmd_overhead(cfg: OverheadConfig, threads: int) -> int:
    rows = []
    caps = {}
    for bits in cfg.bits_list:
        grid = _grid_from(bits)
        delta = grid.delta_max
        for nu in cfg.gate_counts:
            rows.append((bits, nu, delta, worst_case_overhead(nu, delta)))
        cap = max_gates_for_bits(bits)
        caps[str(bits)] = {
            "max_gates": cap,
            "overhead_at_max": worst_case_overhead(cap, delta),
        }
    return _write_outputs(
        cfg,
        ["bits", "n_gates", "delta", "overhead"],
        rows,
        {"per_bits": caps, "overhead_limit": float(math.exp(math.pi**2 / 4.0))},
    )


def _require_positive(cfg, *names: str) -> None:
    """Exit 2 naming the first of the fields ``names`` of ``cfg`` below 1."""
    for name in names:
        if (value := getattr(cfg, name)) < 1:
            raise ConfigError(f"field {name!r} must be positive, got {value}")


def _cmd_trotter(cfg: TrotterConfig, threads: int) -> int:
    circuit = _quench_circuit(cfg)
    observable = _observable_string("Z", cfg.observable_qubit, cfg.num_qubits)
    grid = _grid_from(cfg.bits)
    _require_positive(cfg, "n_variants", "shots_per_variant", "batch_size", "n_batches")
    # before any bank is drawn, so an overhead that overflows exits 2 at once
    worst = worst_case_overhead(len(circuit), grid.delta_max)
    n_shots = cfg.n_variants * cfg.shots_per_variant
    continuous = continuous_shot_bank(circuit, observable, n_shots, cfg.master_seed)
    exact = continuous.expectation  # the bank's run, so the circuit runs once

    banks = {
        "pai": pai_shot_bank(
            grid,
            circuit,
            observable,
            cfg.n_variants,
            cfg.shots_per_variant,
            cfg.master_seed,
            threads=threads,
        ),
        "nearest": nearest_notch_shot_bank(
            grid, circuit, observable, n_shots, cfg.master_seed
        ),
        "continuous": continuous,
    }

    dec = banks["pai"].decomposition
    lam_tilde, refined = refined_overhead(dec)
    summary = {
        "exact_continuous": exact,
        "seed": cfg.master_seed,
        "n_gates": dec.num_gates,
        "n_prep_gates": len(neel_prep_circuit(cfg.num_qubits)),
        "worst_case_overhead": worst,
        "refined_overhead": refined,
        "lam_tilde": lam_tilde,
    }
    # streamed to the CSV writer, one bank's rows at a time
    rows = ((name, *row) for name, bank in banks.items() for row in per_variant_rows(bank))
    lines = [f"continuous expectation {exact:+.6f}"]
    for m, (name, bank) in enumerate(banks.items()):
        res = bank.result()
        s = summary[name] = {
            **dataclasses.asdict(res),
            "bias_vs_continuous": res.mean - exact,
            **_resampled_batches(
                bank.values(),
                cfg.batch_size,
                cfg.n_batches,
                stream(cfg.master_seed, 3, m),
            ),
        }
        lines.append(
            f"{name:>10}: mean {s['mean']:+.6f} (se {s['std_error']:.6f}, "
            f"batch width {s['batch_width']:.6f})"
        )
    return _write_outputs(
        cfg, ["method", "variant_id", "sign", "outcome_mean", "factor"], rows, summary, *lines
    )


def _cmd_vqe(cfg: VqeConfig, threads: int) -> int:
    if cfg.mode != "exact":  # exact mode draws no shots
        _require_positive(cfg, "n_variants", "shots_per_variant")
    model = _ring(cfg)
    grid = _grid_from(cfg.bits)
    est = EstimatorConfig(
        mode=cfg.mode,
        grid=grid,
        n_variants=cfg.n_variants,
        shots_per_variant=cfg.shots_per_variant,
        master_seed=cfg.master_seed,
    )
    result = vqe_run(
        model,
        cfg.n_layers,
        cfg.learning_rate,
        cfg.n_iters,
        est,
        init_seed=cfg.init_seed,
        threads=threads,
    )
    e0 = ground_energy(model)
    floor = notch_floor_energy(model, cfg.n_layers, grid, result.best_params)
    rows = [(i, e, e - e0) for i, e in result.trace()]
    final = float(result.energies[-1])
    return _write_outputs(
        cfg,
        ["iteration", "energy", "delta_e"],
        rows,
        {
            "ground_energy": e0,
            "final_energy": final,
            "final_delta_e": final - e0,
            "best_energy": result.best_energy,
            "best_delta_e": result.best_energy - e0,
            "floor_energy": floor,
            "floor_delta_e": floor - e0,
            "n_params": int(result.final_params.shape[0]),
        },
        f"ground energy {e0:+.6f}",
        f"{cfg.mode} final dE {final - e0:.6f}, best dE {result.best_energy - e0:.6f}",
        f"rounding floor dE {floor - e0:.6f}",
    )


def _cmd_fidelity(cfg: FidelityConfig, threads: int) -> int:
    circuit = _quench_circuit(cfg)
    grid = _grid_from(cfg.bits)
    if cfg.n_checkpoints < 2:
        raise ConfigError("need at least 2 checkpoints")
    checkpoints = sorted(
        set(int(round(c)) for c in np.linspace(0, len(circuit), cfg.n_checkpoints))
    )
    lam_tilde, refined = refined_overhead(decompose_circuit(grid, circuit))
    points = two_notch_fidelity_profile(
        grid, circuit, checkpoints, cfg.n_variants, cfg.master_seed, threads=threads
    )
    rows = [(p.n_gates, p.fidelity, p.std_error) for p in points]
    return _write_outputs(
        cfg,
        ["n_gates", "fidelity", "std_error"],
        rows,
        {
            "n_gates": len(circuit),
            "final_fidelity": points[-1].fidelity,
            "final_std_error": points[-1].std_error,
            "fidelity_drop": 1.0 - points[-1].fidelity,
            "lam_tilde": lam_tilde,
            "refined_overhead": refined,
        },
        f"fidelity after {len(circuit)} gates: {points[-1].fidelity:.4f} "
        f"(+- {points[-1].std_error:.4f})",
    )


def _loglog_slope(xs: list, ys: list) -> float:
    """Least-squares slope of ``log10(ys)`` against ``log10(xs)``, in
    closed form and added left to right in plain floats: a LAPACK fit
    would load LAPACK for one line and round by the CPU kernel."""
    logs = [(math.log10(x), math.log10(y)) for x, y in zip(xs, ys)]
    mean_x = mean_y = 0.0
    for lx, ly in logs:
        mean_x += lx
        mean_y += ly
    mean_x, mean_y = mean_x / len(logs), mean_y / len(logs)
    sxy = sxx = 0.0
    for lx, ly in logs:
        sxy += (lx - mean_x) * (ly - mean_y)
        sxx += (lx - mean_x) * (lx - mean_x)
    return sxy / sxx


def _cmd_rms(cfg: RmsConfig, threads: int) -> int:
    if len(set(cfg.shot_grid)) < 2:  # the log-log slope is fitted through them
        raise ConfigError("need at least 2 distinct shot budgets")
    circuit = _quench_circuit(cfg)
    observable = _observable_string("Z", 0, cfg.num_qubits)
    grid = _grid_from(cfg.bits)
    points = rms_vs_shots(
        grid,
        circuit,
        observable,
        cfg.shot_grid,
        cfg.repeats,
        cfg.master_seed,
        threads=threads,
    )
    rows = [(p.n_shots, p.rms_error, p.shot_noise, p.worst_case) for p in points]
    errors = [p.rms_error for p in points]
    # a budget whose repeats were all exact has no log error, so no slope
    slope = None if 0.0 in errors else _loglog_slope([p.n_shots for p in points], errors)
    return _write_outputs(
        cfg,
        ["n_shots", "rms_error", "shot_noise", "worst_case"],
        rows,
        {
            "loglog_slope": slope,
            "repeats": cfg.repeats,
            "points": [dataclasses.asdict(p) for p in points],
        },
        "log-log slope of rms error vs shots: "
        + ("undefined (an rms error is 0)" if slope is None else f"{slope:+.4f}"),
    )


# name -> (config type, handler, help)
_COMMANDS = {
    "decompose": (
        DecomposeConfig, _cmd_decompose, "print interpolation coefficients for one angle"
    ),
    "overhead": (OverheadConfig, _cmd_overhead, "tabulate worst-case sampling overhead"),
    "trotter": (TrotterConfig, _cmd_trotter, "compare estimators on a Trotterized spin ring"),
    "vqe": (VqeConfig, _cmd_vqe, "gradient-descent ground-state search"),
    "fidelity-decay": (FidelityConfig, _cmd_fidelity, "two-notch scheme fidelity profile"),
    "rms": (RmsConfig, _cmd_rms, "rms estimator error versus shot budget"),
}


@functools.cache
def _build_parser() -> argparse.ArgumentParser:
    # built once per process: parse_args leaves a parser unchanged
    parser = argparse.ArgumentParser(
        prog="pai",
        description="quantum rotation-angle interpolation toolkit",
    )
    parser.add_argument("--version", action="version", version=__version__)
    subs = parser.add_subparsers(dest="command", required=True)
    for name, (config_type, _, help_text) in _COMMANDS.items():
        sp = subs.add_parser(name, help=help_text)
        sp.add_argument("--config", help="JSON config file")
        sp.add_argument(
            "--threads",
            help=f"worker threads (default ${THREADS_ENV_VAR} or 1); "
            "never changes results",
        )
        for f in dataclasses.fields(config_type):
            default = f.default_factory() if f.default is dataclasses.MISSING else f.default
            sp.add_argument(
                f"--{f.name.replace('_', '-')}",
                dest=f"field_{f.name}",
                metavar="VALUE",
                help=f"default: {default}",
            )
    return parser


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    config_type, handler, _ = _COMMANDS[args.command]
    overrides = {
        name[len("field_") :]: value
        for name, value in vars(args).items()
        if name.startswith("field_") and value is not None
    }
    try:
        cfg = _build_config(config_type, args.config, overrides)
        return handler(cfg, _resolve_threads(args.threads))
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    # DegenerateSettingsError and LinAlgError are ValueErrors, so this
    # clause comes before the last
    except (
        DegenerateSettingsError,
        FloatingPointError,
        np.linalg.LinAlgError,
    ) as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return 3
    except ValueError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
