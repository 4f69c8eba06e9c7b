"""Fast tests of the benchmark's own code.

Run from the repository root with ``python3 -m pytest -q perfbench``.
"""

import dataclasses
import json
import math
import re
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))
sys.path.insert(0, str(HERE))

import run  # noqa: E402
import tracer  # noqa: E402
import worker  # noqa: E402
from tracer import Span, Tracer, inclusive_time, layer_metrics, self_times  # noqa: E402
from workloads import WORKLOADS, check  # noqa: E402

NAME = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}")
UNIT = re.compile(r"[A-Za-z0-9_/%.-]{1,16}")
RUN_EXTRAS = {"trace.overhead_share", "estimate.tts_s", "bench.fail_share"}

TINY = {
    "trotter": {"num_qubits": 4, "n_layers": 2, "n_variants": 70, "n_batches": 20},
    "fidelity": {"num_qubits": 4, "n_layers": 3, "n_variants": 6, "n_checkpoints": 4},
    "rms": {"shot_grid": [2, 20], "repeats": 3},
}


def tiny(name):
    w = WORKLOADS[name]
    return dataclasses.replace(w, options={**w.options, **TINY[name]})


# ---------------------------------------------------------------- self time


def test_self_time_subtracts_the_union_of_children():
    spans = [
        Span(0, None, "cli.main", 0.0, 10.0),
        Span(1, 0, "estimate.a", 1.0, 4.0),
        Span(2, 0, "estimate.b", 3.0, 6.0),  # overlaps its sibling
        Span(3, 1, "statevector.rotate_batch", 2.0, 3.0),
        Span(4, 0, "rng.stream", 9.5, 10.5),  # runs past its parent
    ]
    got = self_times(spans)
    assert got[0] == pytest.approx(10.0 - 5.0 - 0.5)
    assert got[1] == pytest.approx(2.0)
    assert got[2] == pytest.approx(3.0)
    assert got[3] == pytest.approx(1.0)
    assert got[4] == pytest.approx(1.0)


def test_inclusive_time_counts_outermost_spans_of_a_group_once():
    names = ["statevector.run_circuit", "statevector.rotate_batch"]
    spans = [
        Span(0, None, "cli.main", 0.0, 10.0),
        Span(1, 0, "statevector.run_circuit", 1.0, 4.0),
        Span(2, 1, "statevector.rotate_batch", 2.0, 3.0, tag="XX"),
        Span(3, 0, "statevector.rotate_batch", 5.0, 7.0, tag="Z"),
    ]
    assert inclusive_time(spans, names) == pytest.approx(5.0)
    assert inclusive_time(spans, ["statevector.rotate_batch"], tag="XX") == pytest.approx(1.0)
    assert inclusive_time(spans, ["statevector.rotate_batch"], tag="ZZ") == 0.0


def test_traced_run_partitions_wall_time_and_repeats_counts(tmp_path, monkeypatch):
    import pai.cli

    monkeypatch.chdir(tmp_path)
    original = pai.cli.main
    t = Tracer()
    t.install()
    try:
        runs = []
        for _ in range(2):
            t.reset()
            rep = worker.run_rep(tiny("trotter"), "trotter", 3, 1)
            assert rep["rc"] == 0
            runs.append(layer_metrics(t, rep["wall"], rep["bytes"]))
            roots = [s for s in t.spans if s.parent is None]
            assert [s.name for s in roots] == ["cli.main"]
            assert sum(self_times(t.spans).values()) == pytest.approx(
                roots[0].end - roots[0].start
            )
    finally:
        t.uninstall()
    assert pai.cli.main is original
    assert tracer.count_metrics(runs[0]) == tracer.count_metrics(runs[1])
    first = runs[0]
    assert first["statevector.rotate_calls"][0] > 0
    assert first["estimate.shots"][0] == 3 * 70 * 10
    assert first["cli.artifact_bytes"][0] > 0
    assert abs(first["trace.self_sum_share"][0] - 1.0) < 0.05


# ---------------------------------------------------------------- predicates


def _trotter_payload(pai_mean=0.0, near_mean=0.5, gates=388, pai_width=0.2):
    def method(mean, se, width):
        return {"batch_mean": mean, "std_error": se, "batch_width": width}

    return {
        "continuous": method(0.0, 0.01, 0.03),
        "nearest": method(near_mean, 0.01, 0.03),
        "pai": method(pai_mean, 0.05, pai_width),
        "n_gates": gates,
    }


def _as_artifacts(payload):
    return b"", json.dumps(payload).encode()


@pytest.mark.parametrize(
    "change, ok",
    [
        ({}, True),
        ({"near_mean": 0.05}, False),  # nearest bias below 5 se
        ({"pai_mean": 0.2}, False),  # pai further than 3 se
        ({"pai_width": 0.01}, False),  # pai narrower than continuous
        ({"gates": 387}, False),
    ],
)
def test_trotter_predicate_thresholds(change, ok):
    assert check("trotter", _as_artifacts(_trotter_payload(**change)))[0] is ok


@pytest.mark.parametrize("rate, ok", [(1e-4, True), (1e-6, False), (-1e-4, False)])
def test_fidelity_predicate_thresholds(rate, ok):
    gates = range(0, 1800, 150)
    rows = "".join(f"{g},{math.exp(-rate * g)},0.01\n" for g in gates)
    raw_csv = ("# version: 0\n# config: {}\nn_gates,fidelity,std_error\n" + rows).encode()
    final = math.exp(-rate * gates[-1])
    raw_json = json.dumps({"final_fidelity": final}).encode()
    assert check("fidelity", (raw_csv, raw_json))[0] is ok


@pytest.mark.parametrize("power, ok", [(-0.5, True), (-0.56, False), (-0.44, False)])
def test_rms_predicate_thresholds(power, ok):
    points = [
        {"n_shots": n, "rms_error": n**power, "worst_case": 2.0 * n**-0.5}
        for n in (3, 30, 300, 3000)
    ]
    assert check("rms", _as_artifacts({"points": points}))[0] is ok


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_tiny_config_runs_are_thread_invariant_and_checkable(name, tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    w = tiny(name)
    one = worker.run_rep(w, name, 5, 1)
    two = worker.run_rep(w, name, 5, 2)
    assert one["rc"] == two["rc"] == 0
    assert one["digest"] == two["digest"] is not None
    ok, detail = check(name, run.read_artifacts(str(tmp_path / name)))
    assert isinstance(ok, bool) and detail.startswith("criterion-")


def test_predicates_gate_at_the_acceptance_suites_seed():
    suite = (HERE.parent / "tests" / "test_acceptance.py").read_text(encoding="utf-8")
    assert set(re.findall(r'"master_seed": (\d+)', suite)) == {str(run.ACCEPTANCE_SEED)}


# ---------------------------------------------------------------- metric names


def test_metric_names_follow_the_grammar_and_match_the_benchmark_file(tmp_path, monkeypatch):
    spec = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    declared = spec["end_to_end"] + spec["per_layer"]
    for metric in declared:
        assert NAME.fullmatch(metric["name"]), metric["name"]
        assert UNIT.fullmatch(metric["unit"]), metric["unit"]
    assert {w["name"]: w["why"] for w in spec["workloads"]} == {
        name: w.why for name, w in WORKLOADS.items()
    }

    monkeypatch.chdir(tmp_path)
    t = Tracer()
    t.install()
    try:
        rep = worker.run_rep(tiny("rms"), "rms", 1, 1)
    finally:
        t.uninstall()
    metrics = layer_metrics(t, rep["wall"], rep["bytes"])
    emitted = {name: unit for name, (_, unit) in metrics.items()}
    per_layer = {m["name"]: m["unit"] for m in spec["per_layer"]}
    assert set(per_layer) == set(emitted) | RUN_EXTRAS
    for name, unit in emitted.items():
        assert per_layer[name] == unit
