"""Child process: write one raw universe to a columnar page store.

Run by the benchmark with one JSON argument::

    {"profile": {...DatasetProfile.to_json_dict()...}, "path": "...",
     "traced": false, "check": false}

Prints one JSON line: pages, URL count, the median build's seconds, file
and section bytes, and this process's peak RSS.  ``traced`` times the
two halves of the build (column generation, store write, mean per
build) by wrapping the stream module's functions.  ``check`` skips the build and instead compares a
sample of the store's records with the generator's columns for the same
profile, and recounts the relevant pages from the columns with the
benchmark's own Thai charset table.
"""

from __future__ import annotations

import json
import random
import statistics
import sys
import time
from pathlib import Path

from common import is_thai_page, peak_rss_mb

SAMPLE = 400
#: Traced builds of small universes repeat until about this many pages
#: have been written, and report the median build: one build of a few
#: tens of thousands of pages takes a fifth of a second, too short to
#: time alone.  An untraced run needs only the memory and the bytes of
#: one build.
PAGES_PER_MEASUREMENT = 200_000


def _build(profile, path: Path, traced: bool) -> dict:
    from repro.experiments.datasets import build_dataset_store
    from repro.graphgen import stream
    from repro.webspace.store import PageStore

    phases: dict[str, float] = {}
    if traced:
        def timed(name, fn):
            def wrapper(*args, **kwargs):
                started = time.perf_counter()
                try:
                    return fn(*args, **kwargs)
                finally:
                    phases[name] = phases.get(name, 0.0) + time.perf_counter() - started
            return wrapper

        stream.generate_columns = timed("graphgen.columns_s", stream.generate_columns)
        # write_universe_store evaluates generate_columns(profile) before
        # it calls write_columns_store, so the two phases are disjoint.
        stream.write_columns_store = timed("store.write_s", stream.write_columns_store)
    builds = []
    repeats = max(1, round(PAGES_PER_MEASUREMENT / profile.n_pages)) if traced else 1
    for _ in range(repeats):
        started = time.perf_counter()
        build_dataset_store(profile, path, capture_kind="none")
        builds.append(time.perf_counter() - started)
    with PageStore.open(path) as store:
        report = {
            "pages": store.page_count,
            "urls": store.url_count,
            "sections_bytes": store.nbytes,
            "file_bytes": path.stat().st_size,
        }
    report.update(build_s=statistics.median(builds), builds=len(builds))
    report.update({name: seconds / len(builds) for name, seconds in phases.items()})
    return report


def _check(profile, path: Path) -> dict:
    from repro.charset.languages import Language
    from repro.graphgen.generator import generate_columns
    from repro.webspace.store import PageStore

    columns = generate_columns(profile)
    problems: list[str] = []
    with PageStore.open(path) as store:
        n = columns.n_pages
        if store.page_count != n or n != profile.n_pages:
            problems.append(
                f"store has {store.page_count} pages, columns {n}, profile {profile.n_pages}"
            )
        rng = random.Random(f"perfbench-store-sample:{profile.seed}")
        for page in sorted(rng.sample(range(n), min(SAMPLE, n))):
            if store.record_at(page) != columns.record_for(page):
                problems.append(f"page {page}: store record differs from the generator's")
                break
        relevant = sum(
            1
            for page in range(n)
            if is_thai_page(
                int(columns.statuses[page]),
                columns.content_type_of(page),
                columns.charset_of(page),
            )
        )
        program = len(store.relevant_url_view(Language.THAI))
        if relevant != program:
            problems.append(f"own recount {relevant} relevant pages, store says {program}")
        problems.extend(_layout_problems(store.header, path.stat().st_size))
    return {"relevant": relevant, "problems": problems}


def _layout_problems(header: dict, file_size: int) -> list[str]:
    """The file must be the header, then the sections back to back.

    Each section starts at an aligned offset; the only other bytes are
    the padding before it, which must be shorter than the alignment.
    """
    import math

    import numpy as np

    spans = sorted(
        (int(spec["offset"]), int(spec["count"]) * np.dtype(spec["dtype"]).itemsize)
        for spec in header["sections"].values()
    )
    align = 0
    for offset, _size in spans:
        align = math.gcd(align, offset)
    problems = []
    end = 0
    for offset, size in spans:
        if not 0 <= offset - end < max(align, 1):
            problems.append(f"section at {offset} does not follow the previous one (ends {end})")
        end = offset + size
    header_bytes = len(json.dumps(header, separators=(",", ":")).encode("utf-8"))
    header_area = file_size - end
    if not header_bytes < header_area <= header_bytes + 16 + max(align, 1):
        problems.append(
            f"file is {file_size} B: {end} B of sections leave {header_area} B "
            f"for a {header_bytes}-byte header"
        )
    return problems


def main(argv: list[str]) -> int:
    spec = json.loads(argv[1])
    from repro.graphgen.config import DatasetProfile

    profile = DatasetProfile.from_json_dict(spec["profile"])
    path = Path(spec["path"])
    if spec.get("check"):
        report = _check(profile, path)
    else:
        report = _build(profile, path, bool(spec.get("traced")))
    report["peak_rss_mb"] = peak_rss_mb()
    print(json.dumps(report))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
