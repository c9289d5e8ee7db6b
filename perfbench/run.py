"""The simulator's benchmark: one workload per run, one JSON line out.

Usage (from the root of a checkout)::

    python3 perfbench/run.py --workload paper-thai --seed 1 --seconds 10 --trace 0

``--trace 0`` measures the end-to-end metrics with no tracing attached;
times and rates are reported at the reference speed (see reference.py).
``--trace 1`` alternates untraced and traced rounds, prints the
per-layer metrics (with ``trace.overhead_pct``, the traced rounds' extra
time over the untraced ones, both at the reference speed), and writes
the spans to ``.bench_out/trace-<workload>.npz`` (read it with
``trace_report.py``).

The last line of standard output is
``{"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}``.
Problems found by the correctness checks go to standard error.
"""

from __future__ import annotations

import argparse
import json
import shutil
import statistics
import sys

from time import perf_counter as now

from common import (
    OUT_DIR,
    BenchError,
    StepClock,
    build_store_in_child,
    import_program,
    make_tmp,
    peak_rss_mb,
    pin_to_one_cpu,
)
from layers import LAYER_UNITS, per_layer
from reference import REFERENCE_S, Reference
from tracing import Tracer

#: Set-up repetitions per run; ``setup_s`` is their median.
SETUP_REPEATS = 3
#: Reference slices just before and just after each set-up (and each
#: round of a traced run).  These last seconds, over which the speed
#: averages out (it changes every tenth of a second or so), so their
#: slowdown is a mean over many slices.
SCALE_SLICES = 10

END_TO_END_UNITS = {
    "setup_s": "s",
    "crawl_pages_per_s": "pages/s",
    "sched_pages_per_s": "pages/s",
    "peak_rss_mb": "MB",
    "store_build_peak_rss_mb": "MB",
    "store_bytes_per_page": "B/page",
    "serve_sessions_per_s": "sessions/s",
    "serve_step_p50_ms": "ms",
    "serve_step_p99_ms": "ms",
}


def _workload(name: str, seed: int):
    if name == "paper-thai":
        from paper_thai import PaperThai

        return PaperThai(seed)
    if name == "cued-text":
        from cued_text import CuedText

        return CuedText(seed)
    if name == "store-scale":
        from store_scale import StoreScale

        return StoreScale(seed)
    if name == "serve-evict":
        from serve_evict import ServeEvict

        return ServeEvict(seed)
    raise BenchError(f"unknown workload {name!r}")


def _scaled(reference, fn, *args):
    """Call ``fn``; return its result and its seconds at the reference speed.

    ``fn`` runs for seconds, over which the speed averages out, so its
    slowdown is the mean of slices taken just before and just after it.
    """
    before = reference.slowdown(SCALE_SLICES)
    started = now()
    result = fn(*args)
    elapsed = now() - started
    after = reference.slowdown(SCALE_SLICES)
    return result, elapsed / ((before + after) / 2)


def _setup(workload, tmp, traced: bool, reference=None) -> tuple[list[float], list[dict]]:
    """Set up ``SETUP_REPEATS`` times; return their times and store builds.

    With a ``reference``, each set-up's time is at the reference speed
    sampled just before and just after it.  A set-up returns the report
    of the store it built, if it built one (``store-scale``).  Every
    other workload writes its universe to a store once more, apart from
    set-up, for the store-build metrics.
    """
    seconds, builds = [], []
    for repeat in range(SETUP_REPEATS):
        directory = tmp / f"setup{repeat}"
        directory.mkdir()
        if reference is None:
            started = now()
            build = workload.setup(directory, traced)
            seconds.append(now() - started)
        else:
            build, elapsed = _scaled(reference, workload.setup, directory, traced)
            seconds.append(elapsed)
        if build is not None:
            builds.append(build)
    if not builds:
        builds.append(build_store_in_child(workload.profile, tmp / "universe.store", traced))
    return seconds, builds


def _store_metrics(builds: list[dict]) -> dict[str, float]:
    return {
        "store_build_peak_rss_mb": statistics.median(b["peak_rss_mb"] for b in builds),
        "store_bytes_per_page": statistics.median(b["file_bytes"] / b["pages"] for b in builds),
    }


def _warm(workload) -> None:
    """Untimed rounds before the window.

    The program fills some process-wide caches once (the URL memo that
    the concurrent engine fills on its first crawl, among others); if
    the first timed round paid for them, the share of that cost in a run
    would depend on how many rounds fit in the window.
    """
    for _ in range(workload.warm_rounds):
        workload.round(StepClock())


def measure(workload, seconds: float, tmp) -> tuple[int, int, dict[str, float]]:
    reference = Reference()
    setup_s, builds = _setup(workload, tmp, traced=False, reference=reference)
    _warm(workload)
    clock = StepClock(reference)
    attempted = failed = 0
    rss_mb = None
    started = now()
    while attempted == 0 or now() - started < seconds:
        ok, bad = workload.round(clock)
        attempted += ok
        failed += bad
        # Set-up, the warm-up and one round: later rounds repeat the same
        # work, and how many fit in the window depends on the machine's speed.
        rss_mb = rss_mb or peak_rss_mb()
    ended = now()
    slowdowns = [sample_s / REFERENCE_S for _, _, sample_s in clock.marks]
    print(
        f"perfbench: reference slowdown median {statistics.median(slowdowns):.4f} "
        f"over {len(slowdowns)} samples",
        file=sys.stderr,
    )
    metrics = {
        "setup_s": statistics.median(setup_s),
        "peak_rss_mb": rss_mb,
        **clock.metrics(started, ended),
        **_store_metrics(builds),
    }
    return attempted, failed, metrics


def measure_traced(workload, seconds: float, tmp) -> tuple[int, int, dict[str, float]]:
    _setup_s, builds = _setup(workload, tmp, traced=True)
    _warm(workload)
    reference = Reference()
    tracer = Tracer()
    plain, traced = StepClock(), StepClock()
    attempted = failed = 0
    plain_s = traced_s = 0.0
    started = now()
    while attempted == 0 or now() - started < seconds:
        (ok, bad), elapsed = _scaled(reference, workload.round, plain)
        plain_s += elapsed
        tracer.run += 1
        (ok2, bad2), elapsed = _scaled(reference, workload.round, traced, tracer)
        traced_s += elapsed
        attempted += ok + ok2
        failed += bad + bad2
    metrics = per_layer(tracer, traced, builds)
    metrics["trace.overhead_pct"] = (traced_s / plain_s - 1.0) * 100.0
    tracer.write(
        OUT_DIR / f"trace-{workload.name}.npz",
        {"workload": workload.name, "pages": traced.round_pages + traced.sched_pages},
    )
    return attempted, failed, metrics


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    pin_to_one_cpu()
    try:
        import_program()
        workload = _workload(args.workload, args.seed)
    except BenchError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 2
    tmp = make_tmp(args.workload)
    try:
        measure_fn = measure_traced if args.trace else measure
        attempted, failed, metrics = measure_fn(workload, args.seconds, tmp)
        problems = workload.verify()
    finally:
        workload.close()
        shutil.rmtree(tmp, ignore_errors=True)
    for problem in problems:
        print(f"perfbench: {args.workload}: {problem}", file=sys.stderr)
    units = LAYER_UNITS if args.trace else END_TO_END_UNITS
    result = {
        "correct": not problems,
        "attempted": attempted,
        "failed": failed,
        "metrics": {
            name: {"value": metrics[name], "unit": unit} for name, unit in units.items()
        },
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
