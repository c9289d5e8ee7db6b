"""Per-layer metrics: from the traced rounds' spans and counters.

Times named ``*_us`` / ``*_ms`` are a span's mean **self** time per
call (its duration minus its traced children), except
``engine.*.self_us`` — the summed self time of every engine stage span
per crawled page — and ``protocol.*_ms``, the mean total time of one
request of that command.  ``*_per_page`` counts divide by the pages the
traced rounds crawled.  A layer a workload never calls reads 0.
"""

from __future__ import annotations

import statistics

from tracing import Tracer, self_times

#: name -> (unit, better)
LAYERS: dict[str, tuple[str, str]] = {
    "engine.round.self_us": ("us/page", "lower"),
    "engine.sched.self_us": ("us/page", "lower"),
    "frontier.pop_us": ("us", "lower"),
    "frontier.push_us": ("us", "lower"),
    "frontier.pushes_per_page": ("1/page", "lower"),
    "frontier.update_priority_us": ("us", "lower"),
    "frontier.update_priority_per_page": ("1/page", "lower"),
    "webspace.fetch_us": ("us", "lower"),
    "store.id_of_us": ("us", "lower"),
    "store.id_of_per_page": ("1/page", "lower"),
    "store.url_of_us": ("us", "lower"),
    "store.url_of_per_page": ("1/page", "lower"),
    "store.record_at_us": ("us", "lower"),
    "store.pread_per_page": ("1/page", "lower"),
    "store.pread_bytes_per_page": ("B/page", "lower"),
    "spill.spilled": ("count", "lower"),
    "spill.reloaded": ("count", "lower"),
    "store.build_pages_per_s": ("pages/s", "higher"),
    "graphgen.columns_s": ("s", "lower"),
    "store.write_s": ("s", "lower"),
    "store.bytes_written": ("B", "lower"),
    "classifier.judge_us": ("us", "lower"),
    "classifier.cache_hit_ratio": ("ratio", "higher"),
    "classifier.cache_lookups": ("count", "lower"),
    "charset.detect_us": ("us", "lower"),
    "htmlsynth.body_us": ("us", "lower"),
    "htmlsynth.body_bytes": ("B", "lower"),
    "visitor.extract_us": ("us", "lower"),
    "visitor.extract_contexts_us": ("us", "lower"),
    "strategy.expand_us": ("us", "lower"),
    "strategy.children_per_page": ("1/page", "lower"),
    "recorder.record_us": ("us", "lower"),
    "protocol.open_ms": ("ms", "lower"),
    "protocol.step_ms": ("ms", "lower"),
    "protocol.close_ms": ("ms", "lower"),
    "manager.evictions_per_step": ("1/step", "lower"),
    "manager.resumes_per_step": ("1/step", "lower"),
    "checkpoint.write_ms": ("ms", "lower"),
    "checkpoint.read_ms": ("ms", "lower"),
    "checkpoint.bytes": ("B", "lower"),
    "trace.overhead_pct": ("%", "lower"),
}
LAYER_UNITS = {name: unit for name, (unit, _better) in LAYERS.items()}

#: Metric -> span whose mean self time (µs) it reports.
_SELF_US = {
    "frontier.pop_us": "frontier.pop",
    "frontier.push_us": "frontier.push",
    "frontier.update_priority_us": "frontier.update_priority",
    "webspace.fetch_us": "webspace.fetch",
    "store.id_of_us": "store.id_of",
    "store.url_of_us": "store.url_of",
    "store.record_at_us": "store.record_at",
    "classifier.judge_us": "classifier.judge",
    "charset.detect_us": "charset.detect",
    "htmlsynth.body_us": "htmlsynth.body",
    "visitor.extract_us": "visitor.extract",
    "visitor.extract_contexts_us": "visitor.extract_contexts",
    "strategy.expand_us": "strategy.expand",
    "recorder.record_us": "recorder.record",
}
#: Metric -> span whose calls per crawled page it reports.
_PER_PAGE = {
    "frontier.pushes_per_page": "frontier.push",
    "frontier.update_priority_per_page": "frontier.update_priority",
    "store.id_of_per_page": "store.id_of",
    "store.url_of_per_page": "store.url_of",
}


def _ratio(numerator: float, denominator: float) -> float:
    return numerator / denominator if denominator else 0.0


def per_layer(tracer: Tracer, clock, builds: list[dict]) -> dict[str, float]:
    """Every per-layer metric but ``trace.overhead_pct``."""
    names = tracer.names
    table = self_times(tracer.columns(), len(names))
    count = dict(zip(names, table["count"].tolist()))
    self_ns = dict(zip(names, table["self_ns"].tolist()))
    total_ns = dict(zip(names, table["total_ns"].tolist()))
    counters = tracer.counters
    pages = clock.round_pages + clock.sched_pages
    metrics: dict[str, float] = {}
    for kind, kind_pages in (("round", clock.round_pages), ("sched", clock.sched_pages)):
        stage_ns = sum(ns for name, ns in self_ns.items() if name.startswith(f"engine.{kind}."))
        metrics[f"engine.{kind}.self_us"] = _ratio(stage_ns / 1e3, kind_pages)
    for metric, span in _SELF_US.items():
        metrics[metric] = _ratio(self_ns.get(span, 0.0) / 1e3, count.get(span, 0))
    for metric, span in _PER_PAGE.items():
        metrics[metric] = _ratio(count.get(span, 0), pages)
    for command in ("open", "step", "close"):
        span = f"protocol.{command}"
        metrics[f"protocol.{command}_ms"] = _ratio(total_ns.get(span, 0.0) / 1e6, count.get(span, 0))
    for direction in ("write", "read"):
        span = f"checkpoint.{direction}"
        metrics[f"checkpoint.{direction}_ms"] = _ratio(self_ns.get(span, 0.0) / 1e6, count.get(span, 0))
    metrics["checkpoint.bytes"] = _ratio(counters.get("checkpoint.bytes", 0), count.get("checkpoint.write", 0))
    metrics["store.pread_per_page"] = _ratio(counters.get("store.preads", 0), pages)
    metrics["store.pread_bytes_per_page"] = _ratio(counters.get("store.pread_bytes", 0), pages)
    metrics["spill.spilled"] = counters.get("spill.spilled", 0)
    metrics["spill.reloaded"] = counters.get("spill.reloaded", 0)
    metrics["classifier.cache_lookups"] = counters.get("classifier.cache_lookups", 0)
    metrics["classifier.cache_hit_ratio"] = _ratio(
        counters.get("classifier.cache_hits", 0), counters.get("classifier.cache_lookups", 0)
    )
    metrics["htmlsynth.body_bytes"] = _ratio(
        counters.get("htmlsynth.bytes", 0), count.get("htmlsynth.body", 0)
    )
    metrics["strategy.children_per_page"] = _ratio(counters.get("strategy.children", 0), pages)
    steps = counters.get("manager.steps", 0)
    metrics["manager.evictions_per_step"] = _ratio(counters.get("manager.evictions", 0), steps)
    metrics["manager.resumes_per_step"] = _ratio(counters.get("manager.resumes", 0), steps)
    metrics["store.build_pages_per_s"] = statistics.median(b["pages"] / b["build_s"] for b in builds)
    metrics["graphgen.columns_s"] = statistics.median(b["graphgen.columns_s"] for b in builds)
    metrics["store.write_s"] = statistics.median(b["store.write_s"] for b in builds)
    metrics["store.bytes_written"] = statistics.median(b["file_bytes"] for b in builds)
    return metrics
