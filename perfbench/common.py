"""Shared plumbing of the benchmark: paths, clocks, memory, checks.

Nothing in this directory is imported by the program; the benchmark
imports the program from ``src/`` of the checkout it runs in.
"""

from __future__ import annotations

import bisect
import json
import math
import os
import random
import resource
import shutil
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path

from reference import REFERENCE_S, Reference

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
#: Scratch space of one run (spill files, serve spools, stores).
TMP_ROOT = ROOT / ".bench_tmp"
#: Trace files written by ``--trace 1`` runs.
OUT_DIR = ROOT / ".bench_out"

#: The paper's Table 1 Thai charsets: a page is relevant when it is an
#: OK HTML page declaring one of these.  Kept here, apart from the
#: program's own charset tables, so the recount is an independent check.
THAI_CHARSETS = frozenset({"TIS-620", "WINDOWS-874", "ISO-8859-11"})


class BenchError(Exception):
    """The benchmark cannot run (missing program, bad arguments)."""


def import_program() -> None:
    """Put the checkout's ``src/`` first on ``sys.path``, or fail."""
    if not (SRC / "repro" / "__init__.py").is_file():
        raise BenchError(f"no program sources under {SRC}")
    sys.path.insert(0, str(SRC))


def pin_to_one_cpu() -> None:
    """Keep this process, and the children it starts, on one CPU.

    Each CPU of the reference machine changes speed on its own, so the
    reference samples describe the work around them only when both run
    on the same CPU; a store build in a child process would otherwise
    run on either.  One CPU is all the benchmark uses at a time.
    """
    os.sched_setaffinity(0, {max(os.sched_getaffinity(0))})


def peak_rss_mb() -> float:
    """Peak resident set of this process image, in MB.

    ``VmHWM`` starts afresh at ``exec``; ``ru_maxrss`` would carry over
    the peak of whatever process forked this one.
    """
    with open("/proc/self/status") as status:
        for line in status:
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024.0
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def percentile(values: list[float], q: float) -> float:
    """Nearest-rank percentile (``q`` in 0..1) of a non-empty list."""
    ordered = sorted(values)
    rank = max(1, math.ceil(q * len(ordered)))
    return ordered[rank - 1]


def make_tmp(tag: str) -> Path:
    path = TMP_ROOT / f"{tag}-{os.getpid()}"
    shutil.rmtree(path, ignore_errors=True)
    path.mkdir(parents=True)
    return path


def shuffled(items, seed: int, salt: str) -> tuple:
    """``items`` in an order drawn from the run's seed."""
    items = list(items)
    random.Random(f"perfbench:{salt}:{seed}").shuffle(items)
    return tuple(items)


def is_thai_page(status: int, content_type: str, charset: str | None) -> bool:
    """The benchmark's own relevance rule (paper Table 1)."""
    return (
        status == 200
        and content_type == "text/html"
        and charset is not None
        and charset.upper() in THAI_CHARSETS
    )


def recount_relevant(records) -> set[str]:
    """URLs of the relevant pages among ``records``, by the own table."""
    return {
        r.url for r in records if is_thai_page(r.status, r.content_type, r.charset)
    }


@dataclass
class Observer:
    """An ``on_fetch`` callback that tallies what the benchmark saw.

    ``charset_mode`` adds a per-page check that the classifier's verdict
    equals the own table (true for the charset classifier only).
    """

    charset_mode: bool = True
    fetched: int = 0
    judged_relevant: int = 0
    covered: int = 0
    mismatched: int = 0
    urls: set = field(default_factory=set)

    def __call__(self, event) -> None:
        response = event.response
        relevant = event.judgment.relevant
        self.fetched += 1
        self.urls.add(event.candidate.url)
        if relevant:
            self.judged_relevant += 1
        own = is_thai_page(response.status, response.content_type, response.charset)
        if own:
            self.covered += 1
        if self.charset_mode and own != relevant:
            self.mismatched += 1

    def problems(self, result, relevant_total: int, label: str) -> list[str]:
        """Disagreements between the program's report and this tally."""
        out = []
        summary = result.summary
        if self.fetched != summary.pages_crawled or len(self.urls) != self.fetched:
            out.append(f"{label}: observed {self.fetched} fetches of {len(self.urls)} urls, "
                       f"report says {summary.pages_crawled} pages")
        harvest = self.judged_relevant / self.fetched if self.fetched else 0.0
        coverage = self.covered / relevant_total if relevant_total else 0.0
        if abs(harvest - summary.final_harvest_rate) > 1e-12:
            out.append(f"{label}: harvest {harvest} != reported {summary.final_harvest_rate}")
        if abs(coverage - summary.final_coverage) > 1e-12:
            out.append(f"{label}: coverage {coverage} != reported {summary.final_coverage}")
        if self.mismatched:
            out.append(f"{label}: {self.mismatched} judgments disagree with the Thai charset table")
        return out


def build_store_in_child(profile, path: Path, traced: bool, check: bool = False) -> dict:
    """Write ``profile``'s raw universe to ``path`` in a fresh process.

    A separate process measures the build's own peak memory apart from
    the crawl's.  Returns the child's JSON report (see build_store.py).
    """
    spec = {
        "profile": profile.to_json_dict(),
        "path": str(path),
        "traced": traced,
        "check": check,
    }
    env = dict(os.environ, PYTHONPATH=str(SRC))
    proc = subprocess.run(
        [sys.executable, str(HERE / "build_store.py"), json.dumps(spec)],
        capture_output=True,
        text=True,
        timeout=150,
        env=env,
        cwd=ROOT,
    )
    if proc.returncode != 0:
        raise BenchError(f"store build failed ({proc.returncode}): {proc.stderr[-2000:]}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


#: Seconds of measured work between two samples of the reference.  The
#: host's speed changes within a second, so the samples must be close.
SAMPLE_EVERY = 0.1
#: A moment's speed is the median of this many samples on either side.
NEAR_SAMPLES = 1


@dataclass
class StepClock:
    """Every step's latency and pages, split by engine.

    With a ``reference``, :meth:`record` samples the machine's speed
    every ``SAMPLE_EVERY`` seconds, and :meth:`metrics` reports at the
    reference speed: each step's time, and each stretch of work between
    two samples, is divided by the slowdown sampled around it.  The
    samples' own time is kept out of every figure.
    """

    reference: Reference | None = None
    latencies: list[float] = field(default_factory=list)
    ends: list[float] = field(default_factory=list)
    sched: list[bool] = field(default_factory=list)
    round_pages: int = 0
    sched_pages: int = 0
    sessions: int = 0
    #: (start, end, seconds) of every reference sample
    marks: list[tuple[float, float, float]] = field(default_factory=list)
    next_sample: float = 0.0

    def record(self, elapsed: float, pages: int, sched: bool) -> None:
        """One step of ``pages`` pages that took ``elapsed`` seconds."""
        moment = time.perf_counter()
        self.latencies.append(elapsed)
        self.ends.append(moment)
        self.sched.append(sched)
        if sched:
            self.sched_pages += pages
        else:
            self.round_pages += pages
        if self.reference is not None and moment >= self.next_sample:
            seconds = self.reference.sample()
            after = time.perf_counter()
            self.marks.append((moment, after, seconds))
            self.next_sample = after + SAMPLE_EVERY

    def drive(self, session, budget: int, sched: bool, before_step=None) -> None:
        """Step ``session`` to its end in ``budget``-page steps."""
        session.open()
        while not session.done:
            if before_step is not None:
                before_step()
            started = time.perf_counter()
            pages = session.step(budget)
            self.record(time.perf_counter() - started, pages, sched)
        self.sessions += 1

    def slowdown_at(self, moment: float) -> float:
        """The machine's slowdown against the reference around ``moment``."""
        if not self.marks:
            return 1.0
        index = bisect.bisect_left(self.marks, (moment,))
        near = self.marks[max(0, index - NEAR_SAMPLES) : index + NEAR_SAMPLES]
        return statistics.median(seconds for _, _, seconds in near) / REFERENCE_S

    def metrics(self, started: float, ended: float) -> dict[str, float]:
        """Rates and latencies at the reference speed (see reference.py)."""
        steps = [
            latency / self.slowdown_at(end) for latency, end in zip(self.latencies, self.ends)
        ]
        round_s = sum(step for step, sched in zip(steps, self.sched) if not sched)
        sched_s = sum(step for step, sched in zip(steps, self.sched) if sched)
        edges = [started, *(t for start, end, _ in self.marks for t in (start, end)), ended]
        work_s = sum(
            (b - a) / self.slowdown_at((a + b) / 2) for a, b in zip(edges[::2], edges[1::2])
        )
        return {
            "crawl_pages_per_s": self.round_pages / round_s,
            "sched_pages_per_s": self.sched_pages / sched_s,
            "serve_sessions_per_s": self.sessions / work_s,
            "serve_step_p50_ms": percentile(steps, 0.50) * 1e3,
            "serve_step_p99_ms": percentile(steps, 0.99) * 1e3,
        }
