"""Span tracing of the ``pai`` package from outside it.

:meth:`Tracer.install` replaces every module-level function of the
``pai`` modules, in every module namespace that holds it, with a wrapper
that records a span: a name ``<module>.<function>``, start, end, the span
open in the same thread when it began (its parent), and whether it exited
through an exception.  Calls between layers and inside one module both go
through those namespaces, so each layer boundary is seen.  Methods and
closures are not wrapped; their time counts as their caller's self time.

Spans stay in memory; :func:`layer_metrics` reduces them to per-layer
metrics once the traced run is over.  A layer's self time is the summed
duration of its spans minus the part of each span its child spans cover,
so the self times of all layers partition the root span.  Time metrics
named after one function group (``rotate_s``, ``decompose_s``, ...) are
inclusive: the duration of the group's outermost spans.
"""

from __future__ import annotations

import functools
import importlib
import itertools
import inspect
import threading
import time
import types

import numpy as np

MODULES = ("statevector", "notch", "quasiprob", "rng", "estimate", "models", "cli")
ROTATION_CLASSES = ("Z", "ZZ", "X", "XX", "YY")
# effective_gbps is computed from the update count at one complex128 read
# and one write per amplitude update; it is not a measured bandwidth
BYTES_PER_AMP_UPDATE = 32

EXPECT = (
    "statevector.batch_pauli_expectation",
    "statevector.batch_expectation",
    "statevector.pauli_expectation",
    "statevector.expectation",
)


class Span:
    __slots__ = ("id", "parent", "name", "start", "end", "failed", "tag")

    def __init__(self, id, parent, name, start, end, failed=False, tag=None):
        self.id = id
        self.parent = parent
        self.name = name
        self.start = start
        self.end = end
        self.failed = failed
        self.tag = tag

    def as_list(self) -> list:
        return [self.id, self.parent, self.name, self.start, self.end, self.failed, self.tag]


def _arg(params: list, args: tuple, kwargs: dict, name: str):
    pos = params.index(name)
    return args[pos] if pos < len(args) else kwargs[name]


def _rotation_class(letters: str) -> str:
    return "".join(sorted(c for c in letters if c != "I"))


class Tracer:
    """Records spans and counters of one traced run.

    Span stacks are per thread, span ids come from one atomic counter and
    counters are summed under a lock, so a multi-threaded run keeps exact
    counts.
    """

    def __init__(self) -> None:
        self.spans: list[Span] = []
        self.counts: dict[str, int] = {}
        self._local = threading.local()
        self._lock = threading.Lock()
        self._ids = itertools.count()
        self._patched: list[tuple[types.ModuleType, str, object]] = []

    def reset(self) -> None:
        self.spans = []
        self.counts = {}

    def _count(self, key: str, value: int) -> None:
        with self._lock:
            self.counts[key] = self.counts.get(key, 0) + int(value)

    def _counter(self, name: str, fn):
        """Per-call counter for the functions whose arguments carry work
        counts; ``None`` for the rest (their calls are counted by span)."""
        params = list(inspect.signature(fn).parameters)
        arg = functools.partial(_arg, params)
        if name == "statevector.rotate_batch":

            def count(args, kwargs):
                amps = arg(args, kwargs, "amps")
                angles = np.asarray(arg(args, kwargs, "angles"))
                self._count("rotate_rows", amps.shape[0])
                self._count("amp_updates", amps.shape[0] * amps.shape[1])
                self._count("zero_angle_rows", np.count_nonzero(angles == 0.0))
                return _rotation_class(arg(args, kwargs, "generator").letters)

        elif name == "quasiprob.settings_from_uniforms":

            def count(args, kwargs):
                self._count("sample_rows", np.shape(arg(args, kwargs, "u"))[0])

        elif name == "estimate._simulate_variants":

            def count(args, kwargs):
                self._count("variants", np.shape(arg(args, kwargs, "angles"))[0])

        elif name == "estimate.two_notch_fidelity_profile":

            def count(args, kwargs):
                self._count("variants", arg(args, kwargs, "n_variants"))

        elif name == "estimate.pai_shot_bank":

            def count(args, kwargs):
                self._count(
                    "shots",
                    arg(args, kwargs, "n_variants") * arg(args, kwargs, "shots_per_variant"),
                )

        elif name in ("estimate.nearest_notch_shot_bank", "estimate.continuous_shot_bank"):

            def count(args, kwargs):
                self._count("shots", arg(args, kwargs, "n_shots"))

        elif name == "estimate.rms_vs_shots":

            def count(args, kwargs):
                budgets = sum(int(s) for s in arg(args, kwargs, "shot_grid"))
                self._count("shots", arg(args, kwargs, "repeats") * budgets)

        else:
            return None
        return count

    def wrap(self, fn, name: str):
        counter = self._counter(name, fn)
        local = self._local
        ids = self._ids
        clock = time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            tag = counter(args, kwargs) if counter is not None else None
            try:
                stack = local.stack
            except AttributeError:
                stack = local.stack = []
            span_id = next(ids)
            parent = stack[-1] if stack else None
            stack.append(span_id)
            failed = True
            start = clock()
            try:
                result = fn(*args, **kwargs)
                failed = False
                return result
            finally:
                end = clock()
                stack.pop()
                self.spans.append(Span(span_id, parent, name, start, end, failed, tag))

        return traced

    def install(self) -> None:
        """Wrap every ``pai`` module-level function in every ``pai`` module
        namespace (the package ``__init__`` included) that refers to it."""
        modules = [importlib.import_module(f"pai.{m}") for m in MODULES]
        modules.append(importlib.import_module("pai"))
        wrappers: dict[int, object] = {}
        for mod in modules[:-1]:
            short = mod.__name__.split(".")[-1]
            for value in vars(mod).values():
                if isinstance(value, types.FunctionType) and value.__module__ == mod.__name__:
                    wrappers[id(value)] = self.wrap(value, f"{short}.{value.__name__}")
        for mod in modules:
            for attr, value in list(vars(mod).items()):
                wrapper = wrappers.get(id(value))
                if wrapper is not None:
                    self._patched.append((mod, attr, value))
                    setattr(mod, attr, wrapper)

    def uninstall(self) -> None:
        for mod, attr, value in reversed(self._patched):
            setattr(mod, attr, value)
        self._patched = []


# ---------------------------------------------------------------- reduction


def _union_length(intervals: list[tuple[float, float]], lo: float, hi: float) -> float:
    """Length of the union of ``intervals`` clipped to ``[lo, hi]``."""
    total = 0.0
    cur_lo = cur_hi = None
    for a, b in sorted(intervals):
        a, b = max(a, lo), min(b, hi)
        if b <= a:
            continue
        if cur_hi is None or a > cur_hi:
            if cur_hi is not None:
                total += cur_hi - cur_lo
            cur_lo, cur_hi = a, b
        else:
            cur_hi = max(cur_hi, b)
    if cur_hi is not None:
        total += cur_hi - cur_lo
    return total


def self_times(spans: list[Span]) -> dict[int, float]:
    """``{span id: duration minus the union of its children's intervals}``."""
    children: dict[int, list[tuple[float, float]]] = {}
    for s in spans:
        if s.parent is not None:
            children.setdefault(s.parent, []).append((s.start, s.end))
    return {
        s.id: (s.end - s.start) - _union_length(children.get(s.id, []), s.start, s.end)
        for s in spans
    }


def inclusive_time(spans: list[Span], names, tag=None) -> float:
    """Summed duration of the spans in ``names`` (with ``tag``, if given)
    that have no ancestor in ``names``."""
    names = set(names)
    by_id = {s.id: s for s in spans}
    total = 0.0
    for s in spans:
        if s.name not in names or (tag is not None and s.tag != tag):
            continue
        parent = s.parent
        while parent is not None and by_id[parent].name not in names:
            parent = by_id[parent].parent
        if parent is None:
            total += s.end - s.start
    return total


def layer_metrics(tracer: Tracer, traced_wall_s: float, artifact_bytes: int) -> dict:
    """Per-layer metrics of one traced run: ``{name: (value, unit)}``.

    Counts are exact and repeat between traced runs of the same input;
    times are those of this run.
    """
    spans = tracer.spans
    counts = tracer.counts
    selfs = self_times(spans)
    module_self = {m: 0.0 for m in MODULES}
    calls: dict[str, int] = {}
    errors = {m: 0 for m in MODULES}
    for s in spans:
        module = s.name.split(".", 1)[0]
        module_self[module] += selfs[s.id]
        calls[s.name] = calls.get(s.name, 0) + 1
        errors[module] += s.failed

    def n(*names):
        return sum(calls.get(x, 0) for x in names)

    rotate = ["statevector.rotate_batch"]
    rotate_s = inclusive_time(spans, rotate)
    amp_updates = counts.get("amp_updates", 0)
    rows = counts.get("rotate_rows", 0)
    m = {
        "statevector.rotate_s": (rotate_s, "s"),
        **{
            f"statevector.rotate_s.{c}": (inclusive_time(spans, rotate, tag=c), "s")
            for c in ROTATION_CLASSES
        },
        "statevector.rotate_calls": (n(*rotate), "count"),
        "statevector.amp_updates": (amp_updates, "count"),
        "statevector.ns_per_amp_update": (1e9 * rotate_s / max(amp_updates, 1), "ns"),
        "statevector.effective_gbps": (
            BYTES_PER_AMP_UPDATE * amp_updates / max(rotate_s, 1e-12) / 1e9,
            "GB/s",
        ),
        "statevector.zero_angle_share": (
            counts.get("zero_angle_rows", 0) / max(rows, 1),
            "ratio",
        ),
        "statevector.expect_s": (inclusive_time(spans, EXPECT), "s"),
        "statevector.expect_calls": (n(*EXPECT), "count"),
        "statevector.run_circuit_s": (inclusive_time(spans, ["statevector.run_circuit"]), "s"),
        "statevector.run_circuit_calls": (n("statevector.run_circuit"), "count"),
        "statevector.self_s": (module_self["statevector"], "s"),
        "rng.stream_s": (inclusive_time(spans, ["rng.stream"]), "s"),
        "rng.streams": (n("rng.stream"), "count"),
        "rng.self_s": (module_self["rng"], "s"),
        "quasiprob.decompose_s": (
            inclusive_time(spans, ["quasiprob.decompose_circuit", "quasiprob.decompose_gate"]),
            "s",
        ),
        "quasiprob.gates_decomposed": (n("quasiprob.decompose_gate"), "count"),
        "quasiprob.sample_s": (inclusive_time(spans, ["quasiprob.settings_from_uniforms"]), "s"),
        "quasiprob.sample_rows": (counts.get("sample_rows", 0), "count"),
        "quasiprob.self_s": (module_self["quasiprob"], "s"),
        "notch.s": (module_self["notch"], "s"),
        "notch.locate_calls": (n("notch.locate"), "count"),
        "notch.round_calls": (n("notch.nearest_notch"), "count"),
        "estimate.self_s": (module_self["estimate"], "s"),
        "estimate.variants": (counts.get("variants", 0), "count"),
        "estimate.shots": (counts.get("shots", 0), "count"),
        "models.self_s": (module_self["models"], "s"),
        "cli.self_s": (module_self["cli"], "s"),
        "cli.artifact_bytes": (artifact_bytes, "bytes"),
    }
    for module in MODULES:
        m[f"{module}.errors"] = (errors[module], "count")
    m["trace.self_sum_share"] = (sum(module_self.values()) / traced_wall_s, "ratio")
    return m


COUNT_UNITS = ("count", "bytes")


def count_metrics(metrics: dict) -> dict:
    """The metrics that are exact counts and must repeat between runs."""
    return {k: (v, unit) for k, (v, unit) in metrics.items() if unit in COUNT_UNITS}
