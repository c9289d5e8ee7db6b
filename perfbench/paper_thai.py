"""``paper-thai``: the paper's configurations crawled to exhaustion.

Inputs: the Thai dataset at scale 0.25 (35,000-page universe, 22,958
captured pages, profile seed fixed), held in memory, judged by the
charset classifier with one shared classifier cache per round.  The
run's seed orders the configurations within a round.  The seed URLs keep
the dataset's order: the limited-distance queue-size property below
depends on it (with one shuffled order, N=3 peaks at 4,570 queued URLs
against 4,632 for N=2).
One round crawls, each to exhaustion:

- breadth-first, hard-focused and soft-focused (round-based engine);
- limited-distance N = 1..4, non-prioritized and prioritized;
- hard- and soft-focused again at ``concurrency=8``.
"""

from __future__ import annotations

from common import Observer, StepClock, recount_relevant, shuffled
from tracing import stage_hook, trace_methods, trace_strategy

SCALE = 0.25
#: Pages per ``CrawlSession.step`` call (about 1,500 steps per run).
STEP_BUDGET = 256
#: Harvest is compared at this share of the breadth-first crawl.
EARLY_SHARE = 0.15

CONFIGS = (
    [("breadth-first", {}, None), ("hard-focused", {}, None), ("soft-focused", {}, None)]
    + [
        ("limited-distance", {"n": n, "prioritized": prioritized}, None)
        for prioritized in (False, True)
        for n in (1, 2, 3, 4)
    ]
    + [("hard-focused", {}, 8), ("soft-focused", {}, 8)]
)


def label(config) -> str:
    name, params, concurrency = config
    text = name + "".join(f",{k}={v}" for k, v in sorted(params.items()))
    return text + (f"@K{concurrency}" if concurrency else "")


class PaperThai:
    name = "paper-thai"
    warm_rounds = 1

    def __init__(self, seed: int) -> None:
        from repro.graphgen.profiles import thai_profile

        self.profile = thai_profile().scaled(SCALE)
        self.order = shuffled(CONFIGS, seed, "configs")
        self.dataset = None
        self.relevant = frozenset()
        self.results: dict[str, object] = {}

    def close(self) -> None:
        self.dataset = None

    def setup(self, tmp, traced: bool) -> None:
        from repro.experiments.datasets import build_dataset

        self.dataset = build_dataset(self.profile)
        self.relevant = self.dataset.relevant_urls()

    def crawl(self, config, clock: StepClock, cache, tracer=None, on_fetch=None):
        from repro.charset.languages import Language
        from repro.core.classifier import Classifier
        from repro.core.session import CrawlRequest, CrawlSession, SessionConfig
        from repro.core.strategies.registry import get_strategy

        name, params, concurrency = config
        strategy = get_strategy(name, **params)
        web = self.dataset.web()
        classifier = Classifier(Language.THAI, cache=cache)
        hooks = ()
        before_step = None
        if tracer is not None:
            trace_strategy(tracer, strategy)
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
                seeds=self.dataset.seed_urls,
                relevant_urls=self.relevant,
            ),
            SessionConfig(concurrency=concurrency, hooks=hooks, on_fetch=on_fetch),
        )
        if tracer is None:
            clock.drive(session, STEP_BUDGET, bool(concurrency))
        else:
            with tracer.span(f"crawl.{label(config)}", crawl=True):
                clock.drive(session, STEP_BUDGET, bool(concurrency), before_step)
        result = session.report()
        session.close()
        return result

    def round(self, clock: StepClock, tracer=None) -> tuple[int, int]:
        """One round of every configuration; returns (attempted, failed)."""
        from repro.core.classifier import ClassifierCache

        cache = ClassifierCache()
        for config in self.order:
            self.results[label(config)] = self.crawl(config, clock, cache, tracer)
        if tracer is not None:
            stats = cache.stats()
            tracer.count("classifier.cache_hits", stats["hits"])
            tracer.count("classifier.cache_lookups", stats["hits"] + stats["misses"])
        return len(CONFIGS), 0

    def verify(self) -> list[str]:
        """Own recount, observed harvest/coverage, and the paper's shapes.

        The observed re-crawls cover the three simple strategies on both
        engines; every configuration's report enters the shape checks.
        """
        from repro.core.classifier import ClassifierCache

        problems: list[str] = []
        own = recount_relevant(self.dataset.crawl_log)
        if own != set(self.relevant):
            problems.append(
                f"own recount finds {len(own)} relevant pages, program {len(self.relevant)}"
            )
        cache = ClassifierCache()
        for config in CONFIGS[:3] + CONFIGS[-2:]:
            observer = Observer()
            result = self.crawl(config, StepClock(), cache, on_fetch=observer)
            problems += observer.problems(result, len(own), label(config))
            timed = self.results[label(config)]
            if result.to_dict() != timed.to_dict():
                problems.append(f"{label(config)}: a second crawl reported differently")
        problems += self.shape_problems()
        return problems

    def shape_problems(self) -> list[str]:
        """Figs 3-7 properties that hold at this scale."""
        r = self.results
        bfs, hard, soft = r["breadth-first"], r["hard-focused"], r["soft-focused"]
        problems = []
        if bfs.coverage != 1.0 or soft.coverage != 1.0:
            problems.append("breadth-first and soft-focused must reach coverage 1.0")
        if not hard.coverage < 1.0:
            problems.append("hard-focused must stay below coverage 1.0")
        early = int(EARLY_SHARE * bfs.pages_crawled)
        base = bfs.series.harvest_at(early)
        for name, result in (("hard-focused", hard), ("soft-focused", soft)):
            if not result.series.harvest_at(early) > base:
                problems.append(f"{name} does not beat breadth-first on harvest at {early} pages")
        plain = [r[f"limited-distance,n={n},prioritized=False"] for n in (1, 2, 3, 4)]
        for lower, higher in zip(plain, plain[1:]):
            if not (
                higher.coverage > lower.coverage
                and higher.summary.max_queue_size > lower.summary.max_queue_size
            ):
                problems.append("non-prioritized limited-distance coverage/queue must rise with N")
                break
        for name in ("hard-focused", "soft-focused"):
            a, b = r[name], r[f"{name}@K8"]
            if (a.pages_crawled, a.coverage) != (b.pages_crawled, b.coverage):
                problems.append(f"{name}: K=8 crawl differs from round-based on pages/coverage")
        return problems
