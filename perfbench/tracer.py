"""Spans around pstream's layer calls, recorded from outside the program.

``Tracer.install`` replaces each named function by a wrapper in the module
where its caller looks it up, so ``runner`` reaches the wrapped
``detect_bin`` and ``detect_bin`` the wrapped ``dead_time_filter``.  A span
holds the call's wall time, its thread CPU time, its parent span on the same
thread, the thread, the benchmark operation it belongs to (-1 in set-up) and
a count of the work it did.  Spans stay in memory until the run ends.
"""

from __future__ import annotations

import functools
import itertools
import json
import os
import threading
import time
from collections import defaultdict
from typing import NamedTuple

from pstream import analysis, config, detection, runner, traces


class Span(NamedTuple):
    id: int
    name: str
    start: float
    end: float
    cpu: float
    parent: int | None
    thread: int
    op: int
    count: int | None
    count_in: int | None


# (module, function name, work count taken from (args, kwargs, result));
# the benchmark passes trace file paths positionally
TARGETS = [
    (config, "load_config", None),
    (runner, "run_scan", None),
    (runner, "sample_batch", None),
    (runner, "detect_bin", None),
    (runner, "coincide", lambda a, k, out: out[0]),
    (runner, "accumulate", None),
    (runner, "export_scan_csv", None),
    (runner, "read_scan_csv", None),
    (runner, "build_report", None),
    (analysis, "averaged_g2", None),
    (detection, "sample_distinct_slots", lambda a, k, out: len(out)),
    (detection, "generate_dark_events", None),
    (detection, "dead_time_filter", lambda a, k, out: len(out)),
    (detection, "shape_pulses", lambda a, k, out: len(out)),
    (traces, "synthesize_trace", None),
    (traces, "write_trace_raw", lambda a, k, out: os.path.getsize(a[1])),
    (traces, "read_trace_raw", lambda a, k, out: os.path.getsize(a[0])),
    (traces, "write_trace_csv", lambda a, k, out: os.path.getsize(a[1])),
    (traces, "read_trace_csv", lambda a, k, out: os.path.getsize(a[0])),
    (traces, "ingest_trace", None),
]
# calls whose input size is recorded too, as count_in
INPUT_SIZE = {"dead_time_filter": lambda args, kwargs: len(args[0])}


class Tracer:
    def __init__(self):
        self.spans: list[Span] = []
        self.op = -1
        self._ids = itertools.count(1)
        self._local = threading.local()
        self._originals: list[tuple[object, str, object]] = []

    def _stack(self) -> list[int]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def wrap(self, fn, counter=None):
        label = f"{fn.__module__.rsplit('.', 1)[-1]}.{fn.__name__}"
        size_in = INPUT_SIZE.get(fn.__name__)
        spans = self.spans

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            stack = self._stack()
            span_id = next(self._ids)
            parent = stack[-1] if stack else None
            n_in = size_in(args, kwargs) if size_in else None
            stack.append(span_id)
            start, cpu0 = time.perf_counter(), time.thread_time()
            try:
                out = fn(*args, **kwargs)
            finally:
                cpu, end = time.thread_time() - cpu0, time.perf_counter()
                stack.pop()
            count = counter(args, kwargs, out) if counter else None
            spans.append(Span(span_id, label, start, end, cpu, parent, threading.get_ident(), self.op, count, n_in))
            return out

        return traced

    def install(self) -> None:
        for module, name, counter in TARGETS:
            fn = getattr(module, name)
            self._originals.append((module, name, fn))
            setattr(module, name, self.wrap(fn, counter))

    def uninstall(self) -> None:
        for module, name, fn in reversed(self._originals):
            setattr(module, name, fn)
        self._originals.clear()

    def write(self, path) -> None:
        with open(path, "w") as fh:
            for span in self.spans:
                fh.write(json.dumps(span._asdict()) + "\n")


def installed_wrappers() -> list[str]:
    """Names of target functions that are wrapped now (empty in an untraced run)."""
    return [f"{m.__name__}.{n}" for m, n, _ in TARGETS if hasattr(getattr(m, n), "__wrapped__")]


def wrapper_cost_s(calls: int = 20000) -> float:
    """Wall time one wrapper adds to a call, measured on an empty function."""

    def empty():
        return None

    traced = Tracer().wrap(empty)
    start = time.perf_counter()
    for _ in range(calls):
        traced()
    wrapped = time.perf_counter() - start
    start = time.perf_counter()
    for _ in range(calls):
        empty()
    return (wrapped - (time.perf_counter() - start)) / calls


def layer_metrics(spans: list[Span], ops: list[dict]) -> dict[str, float]:
    """The per-layer metrics of one traced run.

    ``ops`` holds each timed operation's wall and process CPU seconds and its
    worker count.  ``_ms`` metrics are wall milliseconds per call; a layer the
    workload never calls reads 0.
    """
    by_name: dict[str, list[Span]] = defaultdict(list)
    child_wall: dict[int, float] = defaultdict(float)
    for s in spans:
        if s.parent is not None:
            child_wall[s.parent] += s.end - s.start
        if s.op >= 0 or s.name == "config.load_config":
            by_name[s.name].append(s)

    def ms(name: str) -> float:
        group = by_name[name]
        return 1e3 * sum(s.end - s.start for s in group) / len(group) if group else 0.0

    def total(name: str, field: str) -> float:
        return sum(getattr(s, field) for s in by_name[name])

    def ratio(num: float, den: float) -> float:
        return num / den if den else 0.0

    def mb_per_s(name: str) -> float:
        return ratio(total(name, "count") / 1e6, sum(s.end - s.start for s in by_name[name]))

    steps = len(by_name["detection.detect_bin"])
    detect_self = sum(s.end - s.start - child_wall[s.id] for s in by_name["detection.detect_bin"])
    coincide = by_name["coincidence.coincide"]
    step_calls = ("source.sample_batch", "detection.detect_bin", "coincidence.coincide",
                  "coincidence.accumulate", "runner.export_scan_csv", "runner.read_scan_csv",
                  "runner.build_report", "analysis.averaged_g2")
    scan_ops = ops if steps else []
    scan_cpu = sum(o["cpu_s"] for o in scan_ops)
    return {
        "detection.sample_distinct_slots_ms": ms("detection.sample_distinct_slots"),
        "detection.slots_per_step": ratio(total("detection.sample_distinct_slots", "count"), steps),
        "detection.detect_bin_ms": ms("detection.detect_bin"),
        "detection.detect_bin_self_ms": ratio(1e3 * detect_self, steps),
        "detection.generate_dark_events_ms": ms("detection.generate_dark_events"),
        "detection.dead_time_filter_ms": ms("detection.dead_time_filter"),
        "detection.dead_time_kept_ratio": ratio(
            total("detection.dead_time_filter", "count"), total("detection.dead_time_filter", "count_in")
        ),
        "detection.shape_pulses_ms": ms("detection.shape_pulses"),
        "detection.pulses_per_step": ratio(total("detection.shape_pulses", "count"), steps),
        "source.sample_batch_ms": ms("source.sample_batch"),
        "coincidence.coincide_ms": ms("coincidence.coincide"),
        "coincidence.coincide_wait_ms": ratio(1e3 * sum(s.end - s.start - s.cpu for s in coincide), len(coincide)),
        "coincidence.matches_per_step": ratio(total("coincidence.coincide", "count"), len(coincide)),
        "coincidence.accumulate_ms": ms("coincidence.accumulate"),
        "runner.parallel_efficiency": ratio(scan_cpu, sum(o["workers"] * o["wall_s"] for o in scan_ops)),
        "runner.step_overhead_ms": ratio(
            1e3 * (scan_cpu - sum(total(name, "cpu") for name in step_calls)), steps
        ),
        "runner.export_scan_csv_ms": ms("runner.export_scan_csv"),
        "runner.read_scan_csv_ms": ms("runner.read_scan_csv"),
        "runner.build_report_ms": ms("runner.build_report"),
        "analysis.averaged_g2_ms": ms("analysis.averaged_g2"),
        "traces.synthesize_trace_ms": ms("traces.synthesize_trace"),
        "traces.write_trace_csv_mb_per_s": mb_per_s("traces.write_trace_csv"),
        "traces.read_trace_csv_mb_per_s": mb_per_s("traces.read_trace_csv"),
        "traces.write_trace_raw_mb_per_s": mb_per_s("traces.write_trace_raw"),
        "traces.read_trace_raw_mb_per_s": mb_per_s("traces.read_trace_raw"),
        "traces.ingest_trace_ms": ms("traces.ingest_trace"),
        "traces.csv_mb": ratio(total("traces.write_trace_csv", "count") / 1e6, len(by_name["traces.write_trace_csv"])),
        "config.load_config_ms": ms("config.load_config"),
    }
