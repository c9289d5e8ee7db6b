"""Turn a trace written by ``run.py --trace 1`` into a per-layer table.

Usage::

    python3 perfbench/trace_report.py .bench_out/trace-paper-thai.npz

One row per span name: calls, total and self time (self = the span
minus its traced children), mean self time per call, and self time per
crawled page; then the run's counters.  Rows are sorted by self time.
"""

from __future__ import annotations

import sys
from pathlib import Path

from tracing import load, self_times


def report(path: Path) -> str:
    meta, cols = load(path)
    names = meta["names"]
    table = self_times(cols, len(names))
    pages = max(1, int(meta.get("pages", 0)))
    rows = sorted(
        (
            (names[i], int(table["count"][i]), table["total_ns"][i], table["self_ns"][i])
            for i in range(len(names))
            if table["count"][i]
        ),
        key=lambda row: -row[3],
    )
    lines = [
        f"{meta['workload']}: {len(cols['name'])} spans, {pages} traced pages",
        f"{'span':<36}{'calls':>10}{'total ms':>12}{'self ms':>12}{'self us/call':>14}{'self us/page':>14}",
    ]
    for name, calls, total_ns, self_ns in rows:
        lines.append(
            f"{name:<36}{calls:>10}{total_ns / 1e6:>12.1f}{self_ns / 1e6:>12.1f}"
            f"{self_ns / 1e3 / calls:>14.3f}{self_ns / 1e3 / pages:>14.3f}"
        )
    lines.append("counters:")
    for name, value in sorted(meta.get("counters", {}).items()):
        lines.append(f"  {name:<34}{value:>14}")
    return "\n".join(lines)


def main(argv: list[str]) -> int:
    if len(argv) != 2:
        print(__doc__, file=sys.stderr)
        return 2
    print(report(Path(argv[1])))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
