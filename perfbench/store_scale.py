"""``store-scale``: the out-of-core write path beside the read path.

Inputs: the raw Thai universe at scale 2.0 (280,000 pages, profile seed
fixed), written to a columnar page store by
``build_dataset_store(..., capture_kind="none")`` in a child process
during set-up.  Its URL table is larger than both the store's 2^16-entry
decoded-URL cache and the program's 2^18-entry URL intern table.

One round opens the store once and crawls it with two sessions back to
back, as serve and sweeps share one store, without clearing or warming
the store's caches between them:

- round-based soft-focused over a spilling frontier (``SpillConfig``);
- soft-focused at ``concurrency=8``.

The run's seed orders the universe's seed URLs.
"""

from __future__ import annotations

from common import Observer, StepClock, build_store_in_child, shuffled
from tracing import (
    PreadCounter,
    capture_frontier,
    patched,
    stage_hook,
    trace_methods,
    trace_strategy,
)

SCALE = 2.0
#: Pages per session: each session decodes more distinct URLs than the
#: store's decoded-URL cache holds.
PAGES = 40_000
#: Resident candidates of the spilling frontier (the rest spill).
SPILL_MEMORY = 4096
#: Pages per ``CrawlSession.step`` call (about 1,000 steps per run).
STEP_BUDGET = 64

#: (label, concurrency, spill)
SESSIONS = (("soft-focused/spill", None, True), ("soft-focused@K8", 8, False))


class StoreScale:
    name = "store-scale"
    #: A round outlasts the window, so every run times one round from
    #: a freshly opened store and cold program caches.
    warm_rounds = 0

    def __init__(self, seed: int) -> None:
        from repro.graphgen.profiles import thai_profile

        self.profile = thai_profile().scaled(SCALE)
        self.seed = seed
        self.path = None
        self.spill_dir = None
        self.observed: list = []

    def close(self) -> None:
        pass

    def setup(self, tmp, traced: bool) -> dict:
        """Build the store the rounds crawl; its build is the one measured."""
        self.path = tmp / "universe.store"
        self.spill_dir = tmp / "spill"
        self.spill_dir.mkdir()
        return build_store_in_child(self.profile, self.path, traced)

    def session(self, dataset, spec, clock: StepClock, tracer=None):
        from repro.charset.languages import Language
        from repro.core.classifier import Classifier
        from repro.core.session import CrawlRequest, CrawlSession, SessionConfig
        from repro.core.spilling import SpillConfig
        from repro.core.strategies.registry import get_strategy

        label, concurrency, spill = spec
        strategy = get_strategy("soft-focused")
        web = dataset.web()
        classifier = Classifier(Language.THAI)
        observer = Observer()
        hooks = ()
        before_step = None
        frontiers: list = []
        if tracer is not None:
            trace_strategy(tracer, strategy)
            capture_frontier(strategy, frontiers)
            trace_methods(tracer, web, "webspace", ["fetch"])
            trace_methods(tracer, classifier, "classifier", ["judge"])
            hook = stage_hook(tracer, "sched" if concurrency else "round", False)
            hooks = (hook,)
            before_step = hook.begin
        session = CrawlSession(
            CrawlRequest(
                strategy=strategy,
                web=web,
                classifier=classifier,
                seeds=shuffled(dataset.seed_urls, self.seed, "seed-urls"),
                relevant_urls=dataset.relevant_urls(),
            ),
            SessionConfig(
                max_pages=PAGES,
                concurrency=concurrency,
                spill=SpillConfig(memory_limit=SPILL_MEMORY, spill_dir=str(self.spill_dir))
                if spill
                else None,
                hooks=hooks,
                on_fetch=observer,
            ),
        )
        if tracer is None:
            clock.drive(session, STEP_BUDGET, bool(concurrency))
        else:
            with tracer.span(f"crawl.{label}", crawl=True):
                clock.drive(session, STEP_BUDGET, bool(concurrency), before_step)
            if spill:
                stats = frontiers[0].stats()
                tracer.count("spill.spilled", stats.spilled)
                tracer.count("spill.reloaded", stats.reloaded)
        result = session.report()
        session.close()
        self.observed.append((label, observer, result))

    def round(self, clock: StepClock, tracer=None) -> tuple[int, int]:
        from repro.experiments.datasets import open_dataset_store
        from repro.webspace import store as store_module

        self.observed = []
        dataset = open_dataset_store(self.path)
        try:
            if tracer is None:
                for spec in SESSIONS:
                    self.session(dataset, spec, clock)
            else:
                trace_methods(tracer, dataset.crawl_log, "store", ["id_of", "url_of", "record_at"])
                with patched(store_module, "os", PreadCounter(store_module.os, tracer)):
                    for spec in SESSIONS:
                        self.session(dataset, spec, clock, tracer)
        finally:
            dataset.crawl_log.close()
        return len(SESSIONS), 0

    def verify(self) -> list[str]:
        check = build_store_in_child(self.profile, self.path, traced=False, check=True)
        problems = list(check["problems"])
        for label, observer, result in self.observed:
            if result.pages_crawled != PAGES:
                problems.append(f"{label}: crawled {result.pages_crawled} of {PAGES} pages")
            problems += observer.problems(result, check["relevant"], label)
        return problems
