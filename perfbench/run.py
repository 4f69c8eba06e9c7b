"""Benchmark of the ``pai`` package on three of its acceptance workloads.

Run from the root of a source checkout::

    python3 perfbench/run.py --workload trotter --seed 1 --seconds 24 --trace 0

``--workload`` is one of ``trotter``, ``fidelity`` and ``rms``
(see ``perfbench/workloads.py``); ``--seed`` becomes the runs'
``--master-seed``.  Every run goes through ``pai.cli.main`` in a worker
process with ``PYTHONPATH=src`` and one BLAS thread.

With ``--trace 0`` the run reports end-to-end metrics: the median wall
time of one repetition over at least ``--seconds`` seconds (at least
three repetitions), the median set-up time of four fresh interpreters,
two started before the timed worker and two after it, and the peak
resident memory of the timed worker.  With ``--trace 1``
every run uses one thread, so that self times partition the wall time,
and two traced repetitions after the untraced ones give the per-layer
metrics of ``perfbench/tracer.py``.

Each run also makes one untimed thread-invariance run at the other thread
count (1 or nproc).  Every repetition must exit 0 and give the invariance
run's artifact bytes.  One more untimed run at the acceptance suite's master
seed must pass the workload's acceptance predicate.  The predicates are
statistical tests (criterion 5 is a 3-standard-error test), so a correct
program fails them on a share of seeds; the suite pins its seed for that
reason, and the gate does the same.  The predicate's verdict on the
``--seed`` artifacts is recorded but does not gate.  ``attempted`` and
``failed`` count repetitions.  The last stdout line is
the result as one JSON object; the line before it is a record of the
machine, versions, seed and thread counts, also written with the
artifacts and spans under ``.perfbench_out/``.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
sys.path.insert(0, str(HERE))

from tracer import count_metrics  # noqa: E402
from workloads import WORKLOADS, check, time_to_solution  # noqa: E402

# set-up is probed this many times before and again after the timed worker,
# so its median spans the run rather than its first seconds
SETUP_PROBES = 2
# the master seed of tests/test_acceptance.py, at which the predicates gate
ACCEPTANCE_SEED = 7
MIN_REPS = 3
TRACED_REPS = 2
SELF_SUM_TOLERANCE = 0.05
RUN_BUDGET_S = 170  # a run must end within 180 s, workers included


def worker_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC)
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = "1"
    return env


def run_worker(args: list[str], deadline: float) -> subprocess.CompletedProcess:
    """Run the worker to completion; past ``deadline`` it is killed and
    :class:`subprocess.TimeoutExpired` raised."""
    return subprocess.run(
        [sys.executable, str(HERE / "worker.py"), *args],
        env=worker_env(),
        cwd=ROOT,
        capture_output=True,
        text=True,
        timeout=max(deadline - time.monotonic(), 1.0),
        check=True,
    )


def reps_worker(spec: dict, deadline: float) -> dict:
    proc = run_worker(["reps", json.dumps(spec)], deadline)
    sys.stderr.write(proc.stderr)
    return json.loads(proc.stdout.strip().splitlines()[-1])


def setup_seconds(name: str, deadline: float) -> list[float]:
    times = []
    for _ in range(SETUP_PROBES):
        start = time.perf_counter()
        run_worker(["setup", name], deadline)
        times.append(time.perf_counter() - start)
    return times


def read_artifacts(out_prefix: str) -> tuple[bytes, bytes]:
    return tuple(Path(out_prefix + suffix).read_bytes() for suffix in (".csv", ".json"))


def machine_record(workload, seed: int, threads: dict) -> dict:
    import numpy as np

    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{blas.get('name')} {blas.get('version')}"
    except (AttributeError, KeyError, TypeError):
        blas = "unknown"
    commit = "unknown (not a git checkout)"
    if (ROOT / ".git").exists():
        proc = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True
        )
        if proc.returncode == 0:
            commit = proc.stdout.strip()
    src_lines = sum(
        len(p.read_text(encoding="utf-8").splitlines()) for p in sorted((SRC / "pai").glob("*.py"))
    )
    return {
        "workload": workload.name,
        "why": workload.why,
        "seed": seed,
        "threads": threads,
        "nproc": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas,
        "commit": commit,
        "src_pai_lines": src_lines,
        "options": workload.options,
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", required=True, type=int, choices=(0, 1))
    args = parser.parse_args(argv)

    if not (SRC / "pai" / "cli.py").is_file():
        print(f"no package source at {SRC / 'pai'}; run from a source checkout", file=sys.stderr)
        return 2
    workload = WORKLOADS[args.workload]
    nproc = len(os.sched_getaffinity(0))
    threads = 1 if args.trace else workload.thread_count(nproc)
    alt_threads = nproc if threads == 1 else 1
    if alt_threads == threads:  # one CPU: the invariance run still needs a second count
        alt_threads = 2

    out_dir = ROOT / ".perfbench_out" / f"{workload.name}-seed{args.seed}-trace{args.trace}"
    shutil.rmtree(out_dir, ignore_errors=True)
    out_dir.mkdir(parents=True)

    deadline = time.monotonic() + RUN_BUDGET_S
    base = {"workload": workload.name, "seed": args.seed}
    out_prefix = str(out_dir / "timed" / workload.name)
    setup = []
    try:
        if not args.trace:
            setup += setup_seconds(workload.name, deadline)
        invariance = reps_worker(
            {**base, "threads": alt_threads, "out_dir": str(out_dir / "invariance"),
             "seconds": 0, "min_reps": 1, "traced_reps": 0},
            deadline,
        )["reps"][0]
        timed = reps_worker(
            {**base, "threads": threads, "out_dir": str(out_dir / "timed"),
             "seconds": args.seconds, "min_reps": MIN_REPS,
             "traced_reps": TRACED_REPS if args.trace else 0},
            deadline,
        )
        acceptance = reps_worker(
            {**base, "seed": ACCEPTANCE_SEED, "threads": threads,
             "out_dir": str(out_dir / "acceptance"), "seconds": 0, "min_reps": 1,
             "traced_reps": 0},
            deadline,
        )["reps"][0]
        if not args.trace:
            setup += setup_seconds(workload.name, deadline)
    except (subprocess.CalledProcessError, subprocess.TimeoutExpired) as exc:
        err = exc.stderr or ""
        sys.stderr.write(err.decode(errors="replace") if isinstance(err, bytes) else err)
        print(f"benchmark worker failed: {exc}", file=sys.stderr)
        return 1

    # every repetition must exit 0 and give the invariance run's bytes; the
    # acceptance run must exit 0 and pass the predicate
    try:
        artifacts = read_artifacts(out_prefix)
        accepted = read_artifacts(str(out_dir / "acceptance" / workload.name))
    except OSError as exc:
        print(f"no artifacts to check: {exc}", file=sys.stderr)
        return 1
    ok, detail = check(workload.name, accepted)
    ok = ok and acceptance["rc"] == 0
    runs = [invariance, *timed["reps"], *timed["traced"]]
    identical = [r["rc"] == 0 and r["digest"] == invariance["digest"] for r in runs]
    failed = identical.count(False) + (not ok)
    correct = failed == 0
    checks = {
        "acceptance_seed": ACCEPTANCE_SEED,
        "acceptance": detail,
        "acceptance_ok": ok,
        "predicate_at_run_seed": check(workload.name, artifacts)[1],
        "bytes_identical": all(identical),
    }

    wall_s = statistics.median(r["wall"] for r in timed["reps"])
    if args.trace:
        first, *rest = [r["metrics"] for r in timed["traced"]]
        repeat = all(count_metrics(m) == count_metrics(first) for m in rest)
        # counts repeat exactly, so only times take the median
        metrics = {
            name: (statistics.median(m[name][0] for m in (first, *rest)), unit)
            for name, (_, unit) in first.items()
        }
        metrics.update(count_metrics(first))
        traced_wall = statistics.median(r["wall"] for r in timed["traced"])
        self_sum = metrics["trace.self_sum_share"][0]
        correct = correct and repeat and abs(self_sum - 1.0) <= SELF_SUM_TOLERANCE
        checks["counts_repeat"] = repeat
        checks["self_sum_share"] = self_sum
        metrics["trace.overhead_share"] = (traced_wall / wall_s - 1.0, "ratio")
        metrics["estimate.tts_s"] = (time_to_solution(workload.name, artifacts, wall_s), "s")
        metrics["bench.fail_share"] = (failed / (len(runs) + 1), "ratio")
    else:
        metrics = {
            "wall_s": (wall_s, "s"),
            "setup_s": (statistics.median(setup), "s"),
            "peak_rss_mib": (timed["peak_rss_kib"] / 1024.0, "MiB"),
        }

    record = machine_record(workload, args.seed, {"timed": threads, "invariance": alt_threads})
    record.update(
        {
            "trace": args.trace,
            "timed_walls_s": [r["wall"] for r in timed["reps"]],
            "setup_walls_s": setup,
            "checks": checks,
        }
    )
    (out_dir / "record.json").write_text(json.dumps(record, indent=2) + "\n", encoding="utf-8")
    print(json.dumps({"record": record}))
    result = {
        "correct": correct,
        "attempted": len(runs) + 1,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
