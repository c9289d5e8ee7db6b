"""A fixed reference workload that measures the machine's current speed.

The benchmark's host shares its cores with other machines' work, and its
speed wanders by a quarter over tens of seconds; the wall-clock wait for
the CPU barely moves (steal time stays near zero), so the slowdown is in
the core itself and CPU time shows it just as wall time does.  Every
timed metric is therefore reported at the **reference speed**: its raw
value scaled by how fast this reference ran during the same run.

The reference is a frozen miniature of the simulator's hot loop, written
here and sharing no code with the program, so a change to the program
cannot move it: a best-first crawl over a fixed synthetic graph of
string URLs with ``heapq``, dict and set lookups, small objects, string
normalisation and a byte scan.  Its working set (a few MB) is of the
same order as the crawls'.  :meth:`Reference.sample` runs one slice of
it with the garbage collector off, so its time does not depend on how
many objects the program under test keeps alive.

``REFERENCE_S`` is the median slice time on the reference machine (see
README.md), so a run at that speed reports raw times unchanged.
"""

from __future__ import annotations

import gc
import heapq
import random
import statistics
import time

#: Median seconds of one :meth:`Reference.sample` on the reference machine.
REFERENCE_S = 0.010
#: Pages of the synthetic graph, and pages one slice crawls.
GRAPH_PAGES = 10_000
SLICE_PAGES = 1_000


class _Page:
    __slots__ = ("url", "links", "thai", "body")

    def __init__(self, url: str, links: tuple, thai: bool, body: bytes) -> None:
        self.url = url
        self.links = links
        self.thai = thai
        self.body = body


class Reference:
    def __init__(self) -> None:
        rng = random.Random(20050304)
        urls = [
            f"HTTP://Host{rng.randrange(3000)}.Example.TH/p/{i}/{rng.randrange(10**6)}.html#top"
            for i in range(GRAPH_PAGES)
        ]
        self.seeds = urls[:20]
        self.pages = {}
        for url in urls:
            links = tuple(urls[rng.randrange(GRAPH_PAGES)] for _ in range(rng.randrange(1, 12)))
            body = rng.randbytes(rng.randrange(16, 96))
            self.pages[_normalize(url)] = _Page(url, links, rng.random() < 0.3, body)

    def sample(self) -> float:
        """Run one slice; return its seconds."""
        enabled = gc.isenabled()
        gc.disable()
        try:
            started = time.perf_counter()
            self._crawl()
            elapsed = time.perf_counter() - started
        finally:
            if enabled:
                gc.enable()
        return elapsed

    def slowdown(self, slices: int) -> float:
        """The mean of ``slices`` fresh slices over the reference machine's."""
        return statistics.mean(self.sample() for _ in range(slices)) / REFERENCE_S

    def _crawl(self) -> int:
        pages = self.pages
        seen: set[str] = set()
        queue: list = []
        order = 0
        for url in self.seeds:
            key = _normalize(url)
            seen.add(key)
            heapq.heappush(queue, (0, order, key))
            order += 1
        fetched = relevant = high = 0
        while queue and fetched < SLICE_PAGES:
            priority, _, key = heapq.heappop(queue)
            page = pages[key]
            fetched += 1
            high += page.body.count(b"\xa1") + (page.body.find(b"\xe0") >= 0)
            if page.thai:
                relevant += 1
            for link in page.links:
                child = _normalize(link)
                if child in seen:
                    continue
                seen.add(child)
                heapq.heappush(queue, (priority + (0 if page.thai else 1), order, child))
                order += 1
        return relevant + high


def _normalize(url: str) -> str:
    scheme, _, rest = url.partition("://")
    host, _, path = rest.partition("/")
    return f"{scheme.lower()}://{host.lower()}/{path.split('#', 1)[0]}"
