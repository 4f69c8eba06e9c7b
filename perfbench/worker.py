"""Benchmark worker: runs one workload in a fresh interpreter.

``python3 perfbench/worker.py setup NAME`` imports ``pai.cli`` and
builds the workload's inputs, then exits; its parent times it.

``python3 perfbench/worker.py reps SPEC`` runs repetitions of a workload
through ``pai.cli.main`` as described by the JSON object ``SPEC`` (see
:func:`run_reps`) and prints one JSON object as its last stdout line.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import os
import resource
import sys
import time
import traceback
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

from workloads import WORKLOADS, build_inputs  # noqa: E402


def run_rep(workload, out_prefix: str, seed: int, threads: int) -> dict:
    """One timed repetition of the workload.

    Returns the exit code, the wall time, and a digest and total size of
    the artifacts (``None`` if one is missing).
    """
    import pai.cli

    start = time.perf_counter()
    with contextlib.redirect_stdout(io.StringIO()):
        try:
            rc = pai.cli.main(workload.cli_args(out_prefix, seed, threads))
        except Exception:
            traceback.print_exc()
            rc = -1
    wall = time.perf_counter() - start
    digest = hashlib.sha256()
    size = 0
    try:
        for suffix in (".csv", ".json"):
            raw = Path(out_prefix + suffix).read_bytes()
            digest.update(raw)
            size += len(raw)
    except OSError:
        return {"rc": rc or -1, "wall": wall, "digest": None, "bytes": 0}
    return {"rc": rc, "wall": wall, "digest": digest.hexdigest(), "bytes": size}


def run_reps(spec: dict) -> dict:
    """Run ``spec["workload"]`` with ``spec["seed"]`` at ``spec["threads"]``
    in the directory ``spec["out_dir"]``.

    Artifacts are named after the workload relative to that directory,
    because the config they embed holds the output path: runs in different
    directories must still give identical bytes.

    Untraced repetitions continue until both ``min_reps`` are done and
    ``seconds`` have passed.  Then ``traced_reps`` traced repetitions run,
    each reduced to per-layer metrics; the spans of the last are written to
    ``spans.json``.
    """
    workload = WORKLOADS[spec["workload"]]
    os.makedirs(spec["out_dir"], exist_ok=True)
    os.chdir(spec["out_dir"])
    args = (workload.name, spec["seed"], spec["threads"])
    reps = []
    start = time.perf_counter()
    while len(reps) < spec["min_reps"] or time.perf_counter() - start < spec["seconds"]:
        reps.append(run_rep(workload, *args))
    peak_rss_kib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss

    traced = []
    if spec["traced_reps"]:
        from tracer import Tracer, layer_metrics

        tracer = Tracer()
        tracer.install()
        try:
            for _ in range(spec["traced_reps"]):
                tracer.reset()
                rep = run_rep(workload, *args)
                rep["metrics"] = layer_metrics(tracer, rep["wall"], rep["bytes"])
                traced.append(rep)
        finally:
            tracer.uninstall()
        with open("spans.json", "w", encoding="utf-8") as fh:
            json.dump([s.as_list() for s in tracer.spans], fh)
    return {"reps": reps, "traced": traced, "peak_rss_kib": peak_rss_kib}


def main(argv: list[str]) -> int:
    if argv[:1] == ["setup"] and len(argv) == 2:
        build_inputs(argv[1])
        return 0
    if argv[:1] == ["reps"] and len(argv) == 2:
        print(json.dumps(run_reps(json.loads(argv[1]))))
        return 0
    print("usage: worker.py setup NAME | worker.py reps SPEC", file=sys.stderr)
    return 2


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
