"""In-memory span recorder and the wrappers that feed it.

The wrappers are installed from here, around the public entry points that
metrics.SPANS lists, so the program's own files stay untouched.  A span is
(name, start, end, parent, thread); spans opened in a worker thread whose
own stack is empty take the main thread's innermost span as parent, so the
Monte Carlo chunks that `stats.dk_monte_carlo` hands to its pool are
children of that call.
"""

from __future__ import annotations

import functools
import importlib
import json
import sys
import threading
import time
from collections import defaultdict
from contextlib import contextmanager

import metrics


class Tracer:
    """Spans and counters of one process; recording only while enabled."""

    def __init__(self, run_id: str):
        self.run_id = run_id
        self.spans: list[list] = []
        self.counters: dict[str, int] = defaultdict(int)
        self.enabled = False
        self._lock = threading.Lock()
        self._local = threading.local()
        self._main_thread = threading.current_thread()
        self._main_stack = self._stack()

    def _stack(self) -> list[int]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def open(self, name: str) -> int:
        stack = self._stack()
        if stack:
            parent = stack[-1]
        elif threading.current_thread() is not self._main_thread and self._main_stack:
            parent = self._main_stack[-1]
        else:
            parent = None
        record = [name, time.perf_counter(), None, parent, threading.get_ident()]
        with self._lock:
            index = len(self.spans)
            self.spans.append(record)
        stack.append(index)
        return index

    def close(self, index: int) -> None:
        self.spans[index][2] = time.perf_counter()
        self._stack().pop()

    def count(self, name: str, amount: int) -> None:
        with self._lock:
            self.counters[name] += amount

    @contextmanager
    def region(self, name: str):
        """A timed region of the benchmark: the root span of its layer spans."""
        self.enabled = True
        index = self.open(f"bench.{name}")
        try:
            yield
        finally:
            self.close(index)
            self.enabled = False

    def write(self, path, header: dict) -> None:
        """Append the header and every span as JSON lines."""
        with open(path, "a") as fh:
            fh.write(json.dumps({"run_id": self.run_id, **header}) + "\n")
            for name, start, end, parent, thread in self.spans:
                fh.write(json.dumps([name, start, end, parent, thread, self.run_id]) + "\n")


def _counted_result(name: str):
    """How a wrapper turns an entry point's result into a work counter."""
    if name == "groups.class_size":
        return "groups.orbit_elements", lambda result, args: int(result)
    if name == "structure.subgroups":
        return "structure.subgroups_found", lambda result, args: len(result)
    if name == "bias.verify_expression":
        return "bias.points_checked", lambda result, args: result.points_checked
    if name == "bias.bias_probability":
        def points(result, args):
            F = args[0]
            return F.p ** sum(F.dims) if result.kind == "exact" else result.samples
        return "bias.points_checked", points
    return None


def _wrap(tracer: Tracer, name: str, fn):
    counted = _counted_result(name)

    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        if not tracer.enabled:
            return fn(*args, **kwargs)
        index = tracer.open(name)
        try:
            result = fn(*args, **kwargs)
        finally:
            tracer.close(index)
        if counted is not None:
            tracer.count(counted[0], counted[1](result, args))
        return result

    return wrapper


def _count_calls(tracer: Tracer, name: str, fn):
    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        if tracer.enabled:
            tracer.count(name, 1)
        return fn(*args, **kwargs)

    return wrapper


def _replace_everywhere(original, replacement) -> None:
    """Rebind every nilprob module global that holds `original`, so names
    imported by value (e.g. structure.subgroup_closure) are traced too."""
    for mod_name, module in list(sys.modules.items()):
        if mod_name != "nilprob" and not mod_name.startswith("nilprob."):
            continue
        for attr, value in list(vars(module).items()):
            if value is original:
                setattr(module, attr, replacement)


def install(tracer: Tracer) -> None:
    """Wrap every entry point in metrics.SPANS and the Monte Carlo chunk
    counter.  Installed once per process; there is no uninstall."""
    for name, mod_name, owner, attr in metrics.SPANS:
        module = importlib.import_module(mod_name)
        if owner is None:
            original = getattr(module, attr)
            _replace_everywhere(original, _wrap(tracer, name, original))
        else:
            cls = getattr(module, owner)
            setattr(cls, attr, _wrap(tracer, name, cls.__dict__[attr]))
    stats = importlib.import_module("nilprob.stats")
    stats._mc_chunk_hits = _count_calls(tracer, "stats.mc_chunks", stats._mc_chunk_hits)


def _union_length(intervals: list[tuple[float, float]]) -> float:
    total = 0.0
    cur_start = cur_end = None
    for start, end in sorted(intervals):
        if cur_end is None or start > cur_end:
            if cur_end is not None:
                total += cur_end - cur_start
            cur_start, cur_end = start, end
        else:
            cur_end = max(cur_end, end)
    if cur_end is not None:
        total += cur_end - cur_start
    return total


def summarize(tracer: Tracer, import_s: float, wall_s: float) -> dict[str, float]:
    """Per-layer calls and self times, counters, and the accounting of the
    traced wall time `wall_s`, which the caller measures on its own clock.

    A span's self time is its duration minus the union of its children's
    intervals.  Children that ran at once in two threads cover part of the
    parent twice; that excess is the thread overlap.  Whatever part of
    `wall_s` lies outside the import and every benchmark region is
    trace.unaccounted_s: wall = import + bench self + layer self - overlap
    + unaccounted.
    """
    children: dict[int, list[int]] = defaultdict(list)
    for index, (_, _, _, parent, _) in enumerate(tracer.spans):
        if parent is not None:
            children[parent].append(index)
    out: dict[str, float] = {}
    for prefix in metrics.span_prefixes():
        out[f"{prefix}.calls"] = 0
        out[f"{prefix}.self_s"] = 0.0
    bench_self = layer_self = overlap = 0.0
    for index, (name, start, end, parent, _) in enumerate(tracer.spans):
        kids = [(tracer.spans[k][1], tracer.spans[k][2]) for k in children[index]]
        covered = _union_length(kids)
        self_s = (end - start) - covered
        overlap += sum(e - s for s, e in kids) - covered
        if parent is None:
            bench_self += self_s
        else:
            layer_self += self_s
            out[f"{name}.calls"] += 1
            out[f"{name}.self_s"] += self_s
    for name in metrics.COUNTERS:
        out[name] = tracer.counters.get(name, 0)
    out.update({
        "trace.wall_s": wall_s,
        "trace.unaccounted_s": wall_s - (import_s + bench_self + layer_self - overlap),
        "trace.import_s": import_s,
        "trace.bench_self_s": bench_self,
        "trace.layer_self_s": layer_self,
        "trace.thread_overlap_s": overlap,
    })
    return out
