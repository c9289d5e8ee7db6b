"""Span recorder for the traced run, and the wrappers that feed it.

A span is (name, start, end, parent, run id).  Spans are appended to
per-thread column buffers in memory and written out once, when the run
ends.  They come from three places, all in the benchmark's own files:

- :meth:`Tracer.wrap` around a layer's public callable — a method of an
  instance handed to the program (web space, classifier, strategy,
  frontier, page store, protocol handler), a body synthesizer, or a
  module function the session layer calls (checkpoint I/O, charset
  detection);
- :func:`stage_hook`, an :class:`~repro.core.engine.EngineHook` that
  turns consecutive stage callbacks into one span per engine stage;
- :meth:`Tracer.span` around a whole crawl.

A wrapped call's parent is the innermost open wrapped call on its
thread.  Calls made directly under a crawl span are adopted by the next
stage span, so an engine stage's self time is the stage minus the
layer calls made inside it.
"""

from __future__ import annotations

import json
import threading
import time
from array import array
from contextlib import contextmanager
from pathlib import Path

import numpy as np

clock = time.perf_counter_ns


class _Buffer:
    """One thread's spans, as parallel columns."""

    def __init__(self) -> None:
        self.name = array("H")
        self.start = array("q")
        self.end = array("q")
        self.parent = array("i")
        self.run = array("I")
        self.stack: list[int] = []
        #: Spans opened directly under a crawl span since the last stage
        #: span; the next stage span adopts them.
        self.orphans: list[int] = []
        self.crawl = -1

    def add(self, nid: int, start: int, end: int, parent: int, run: int) -> int:
        index = len(self.start)
        self.name.append(nid)
        self.start.append(start)
        self.end.append(end)
        self.parent.append(parent)
        self.run.append(run)
        return index


class Tracer:
    def __init__(self) -> None:
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self._local = threading.local()
        self._buffers: list[_Buffer] = []
        self._lock = threading.Lock()
        self.counters: dict[str, float] = {}
        #: Run id stamped on every span (one per crawl or serve round).
        self.run = 0

    def name_id(self, name: str) -> int:
        with self._lock:
            nid = self._ids.get(name)
            if nid is None:
                nid = self._ids[name] = len(self.names)
                self.names.append(name)
            return nid

    def buffer(self) -> _Buffer:
        buf = getattr(self._local, "buf", None)
        if buf is None:
            buf = self._local.buf = _Buffer()
            with self._lock:
                self._buffers.append(buf)
        return buf

    def count(self, name: str, amount: float = 1) -> None:
        with self._lock:
            self.counters[name] = self.counters.get(name, 0) + amount

    # -- recording ---------------------------------------------------------

    def wrap(self, name: str, fn, on_result=None):
        """``fn`` recording one span per call (``on_result`` sees the result)."""
        nid = self.name_id(name)
        buffer = self.buffer
        tracer = self

        def traced(*args, **kwargs):
            buf = buffer()
            stack = buf.stack
            parent = stack[-1] if stack else -1
            index = buf.add(nid, 0, 0, parent, tracer.run)
            if parent == buf.crawl >= 0:
                buf.orphans.append(index)
            stack.append(index)
            buf.start[index] = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                buf.end[index] = clock()
                stack.pop()
            if on_result is not None:
                on_result(result)
            return result

        return traced

    @contextmanager
    def span(self, name: str, crawl: bool = False):
        """A span around a block; ``crawl=True`` makes it a stage parent."""
        buf = self.buffer()
        parent = buf.stack[-1] if buf.stack else -1
        index = buf.add(self.name_id(name), clock(), 0, parent, self.run)
        buf.stack.append(index)
        outer = buf.crawl
        if crawl:
            buf.crawl = index
            buf.orphans.clear()
        try:
            yield
        finally:
            buf.end[index] = clock()
            buf.stack.pop()
            buf.crawl = outer

    def stage(self, nid: int, start: int, end: int) -> None:
        """Record a finished stage span and adopt the calls made in it."""
        buf = self.buffer()
        index = buf.add(nid, start, end, buf.crawl, self.run)
        parent = buf.parent
        for orphan in buf.orphans:
            parent[orphan] = index
        buf.orphans.clear()

    # -- output ------------------------------------------------------------

    def columns(self) -> dict[str, np.ndarray]:
        """Every thread's spans merged, parents re-based to the merge."""
        parts = {key: [] for key in ("name", "start", "end", "parent", "run")}
        offset = 0
        for buf in self._buffers:
            parent = np.frombuffer(buf.parent, dtype=np.int32).astype(np.int64)
            parts["parent"].append(np.where(parent >= 0, parent + offset, -1))
            for key in ("name", "start", "end", "run"):
                parts[key].append(np.frombuffer(getattr(buf, key), dtype=_DTYPES[key]))
            offset += len(buf.start)
        return {
            key: np.concatenate(chunks) if chunks else np.empty(0, dtype=np.int64)
            for key, chunks in parts.items()
        }

    def write(self, path: Path, meta: dict) -> None:
        cols = self.columns()
        path.parent.mkdir(parents=True, exist_ok=True)
        meta = dict(meta, names=self.names, counters=self.counters)
        np.savez_compressed(path, meta=np.array(json.dumps(meta)), **cols)


_DTYPES = {"name": np.uint16, "start": np.int64, "end": np.int64, "run": np.uint32}


def self_times(cols: dict[str, np.ndarray], n_names: int) -> dict[str, np.ndarray]:
    """Per span name: call count, total and self nanoseconds.

    Self time is a span's duration minus the durations of its direct
    children.
    """
    duration = (cols["end"] - cols["start"]).astype(np.float64)
    parent = cols["parent"]
    has_parent = parent >= 0
    child_sum = np.bincount(
        parent[has_parent], weights=duration[has_parent], minlength=len(duration)
    )
    own = duration - child_sum
    names = cols["name"].astype(np.int64)
    return {
        "count": np.bincount(names, minlength=n_names),
        "total_ns": np.bincount(names, weights=duration, minlength=n_names),
        "self_ns": np.bincount(names, weights=own, minlength=n_names),
    }


def load(path: Path) -> tuple[dict, dict[str, np.ndarray]]:
    with np.load(path) as data:
        meta = json.loads(str(data["meta"]))
        cols = {key: data[key] for key in ("name", "start", "end", "parent", "run")}
    return meta, cols


def stage_hook(tracer: Tracer, kind: str, wants_contexts: bool):
    """An engine hook recording one span per pipeline stage.

    Each stage callback closes the interval since the previous one, so
    the spans tile a step: the pop interval starts where the previous
    step's record interval ended (for a step call's first step, at
    ``begin()``).  Under the event-driven engine the pop interval holds
    the whole issue phase (pops, fetches, slot reservation).  The
    extract interval is the visitor's link extraction; for strategies
    that score link text, the prioritize interval minus the strategy's
    own ``expand`` is the visitor's link-context extraction; the
    interval after the schedule stage is the metrics recorder.
    """
    from repro.core.engine import EngineHook, EngineStage

    names = {stage: f"engine.{kind}.{stage.value}" for stage in EngineStage}
    names[EngineStage.EXTRACT] = "visitor.extract"
    if wants_contexts:
        names[EngineStage.PRIORITIZE] = "visitor.extract_contexts"
    ids = {stage: tracer.name_id(name) for stage, name in names.items()}
    record_id = tracer.name_id("recorder.record")

    class StageSpans(EngineHook):
        def __init__(self) -> None:
            self.last = clock()

        def begin(self) -> None:
            self.last = clock()

        def on_stage(self, stage, step) -> None:
            end = clock()
            tracer.stage(ids[stage], self.last, end)
            self.last = end

        def on_step(self, step) -> None:
            end = clock()
            tracer.stage(record_id, self.last, end)
            self.last = end

    return StageSpans()


# -- layer wrappers -----------------------------------------------------------
#
# Each patches bound methods on one instance (instance attributes shadow
# the class's), so calls the program makes through that instance — from
# the engine or from the instance's own methods — are recorded, and no
# other instance is touched.


def trace_methods(tracer: Tracer, obj, prefix: str, names, on_result=None) -> None:
    for name in names:
        setattr(obj, name, tracer.wrap(f"{prefix}.{name}", getattr(obj, name), on_result))


def trace_strategy(tracer: Tracer, strategy) -> None:
    """Time ``expand`` (counting children) and every frontier it makes."""
    trace_methods(
        tracer, strategy, "strategy", ["expand"],
        on_result=lambda children: tracer.count("strategy.children", len(children)),
    )
    make_frontier = strategy.make_frontier

    def traced_make_frontier():
        frontier = make_frontier()
        names = ["pop", "push"]
        if hasattr(frontier, "update_priority"):
            names.append("update_priority")
        trace_methods(tracer, frontier, "frontier", names)
        return frontier

    strategy.make_frontier = traced_make_frontier


def capture_frontier(strategy, holder: list) -> None:
    """Keep the live frontier the engine passes to the first ``tick``."""
    tick = strategy.tick

    def first_tick(step, frontier):
        holder.append(frontier)
        strategy.tick = tick
        tick(step, frontier)

    strategy.tick = first_tick


@contextmanager
def patched(module, name: str, replacement):
    """Swap a module attribute for the duration of a block."""
    original = getattr(module, name)
    setattr(module, name, replacement)
    try:
        yield original
    finally:
        setattr(module, name, original)


class PreadCounter:
    """Stands in for the ``os`` module of the page store: counts preads."""

    def __init__(self, real_os, tracer: Tracer) -> None:
        self._os = real_os
        self._tracer = tracer

    def __getattr__(self, name):
        return getattr(self._os, name)

    def pread(self, fd, length, offset):
        data = self._os.pread(fd, length, offset)
        self._tracer.count("store.preads")
        self._tracer.count("store.pread_bytes", len(data))
        return data
