"""``cued-text``: the per-link text work that ``paper-thai`` bypasses.

Inputs: the cue-annotated Thai dataset (``cued_thai_profile``) at scale
0.25 (profile seed fixed); the run's seed orders its ten seed URLs.  One
round crawls, each to a page budget:

- ``pdd-hybrid``, ``pal-content-link`` and ``infospiders`` in record
  mode (link contexts synthesized from the page record), round-based;
- one body-mode ``pdd-hybrid`` crawl: synthesized HTML, the byte-reading
  charset detector, links and contexts parsed from the bytes;
- ``pdd-hybrid`` in record mode at ``concurrency=8``.
"""

from __future__ import annotations

from common import Observer, StepClock, recount_relevant, shuffled
from tracing import patched, stage_hook, trace_methods, trace_strategy

SCALE = 0.25
#: Pages per ``CrawlSession.step`` call (about 1,000 steps per run).
STEP_BUDGET = 16

#: (strategy, page budget, body mode, concurrency)
CRAWLS = (
    ("pdd-hybrid", 2000, False, None),
    ("pal-content-link", 2000, False, None),
    ("infospiders", 2000, False, None),
    ("pdd-hybrid", 600, True, None),
    ("pdd-hybrid", 2000, False, 8),
)


def label(crawl) -> str:
    name, pages, body, concurrency = crawl
    return f"{name}/{pages}" + ("/body" if body else "") + (f"@K{concurrency}" if concurrency else "")


class CuedText:
    name = "cued-text"
    warm_rounds = 1

    def __init__(self, seed: int) -> None:
        from repro.experiments.tournament import cued_thai_profile

        self.profile = cued_thai_profile(SCALE)
        self.seed = seed
        self.seed_urls = ()
        self.dataset = None
        self.relevant = frozenset()
        self.problems: list[str] = []

    def close(self) -> None:
        self.dataset = None

    def setup(self, tmp, traced: bool) -> None:
        from repro.experiments.datasets import build_dataset

        self.dataset = build_dataset(self.profile)
        self.seed_urls = shuffled(self.dataset.seed_urls, self.seed, "seed-urls")
        self.relevant = self.dataset.relevant_urls()

    def crawl(self, crawl, clock: StepClock, cache, tracer=None):
        from repro.charset.languages import Language
        from repro.core.classifier import Classifier, ClassifierMode
        from repro.core.session import CrawlRequest, CrawlSession, SessionConfig
        from repro.core.strategies.registry import get_strategy
        from repro.graphgen.htmlsynth import HtmlSynthesizer

        name, pages, body, concurrency = crawl
        strategy = get_strategy(name)
        synthesizer = HtmlSynthesizer() if body else None
        if tracer is not None and body:
            synthesizer = tracer.wrap(
                "htmlsynth.body", synthesizer,
                on_result=lambda data: tracer.count("htmlsynth.bytes", len(data)),
            )
        web = self.dataset.web(body_synthesizer=synthesizer)
        mode = ClassifierMode.DETECTOR if body else ClassifierMode.CHARSET
        classifier = Classifier(Language.THAI, mode=mode, cache=cache)
        observer = Observer(charset_mode=not body)
        hooks = [_body_link_check(self.problems)] if body else []
        before_step = None
        if tracer is not None:
            trace_strategy(tracer, strategy)
            trace_methods(tracer, web, "webspace", ["fetch"])
            trace_methods(tracer, classifier, "classifier", ["judge"])
            hook = stage_hook(tracer, "sched" if concurrency else "round", True)
            hooks.append(hook)
            before_step = hook.begin
        session = CrawlSession(
            CrawlRequest(
                strategy=strategy,
                web=web,
                classifier=classifier,
                seeds=self.seed_urls,
                relevant_urls=self.relevant,
            ),
            SessionConfig(
                max_pages=pages,
                concurrency=concurrency,
                extract_from_body=body,
                hooks=tuple(hooks),
                on_fetch=observer,
            ),
        )
        if tracer is None:
            clock.drive(session, STEP_BUDGET, bool(concurrency))
        else:
            with tracer.span(f"crawl.{label(crawl)}", crawl=True):
                clock.drive(session, STEP_BUDGET, bool(concurrency), before_step)
        result = session.report()
        session.close()
        if result.pages_crawled != pages:
            self.problems.append(f"{label(crawl)}: crawled {result.pages_crawled} of {pages} pages")
        self.problems += observer.problems(result, len(self.relevant), label(crawl))
        return result

    def round(self, clock: StepClock, tracer=None) -> tuple[int, int]:
        from repro.core import classifier as classifier_module
        from repro.core.classifier import ClassifierCache

        cache = ClassifierCache()
        if tracer is None:
            for crawl in CRAWLS:
                self.crawl(crawl, clock, cache)
        else:
            detect = tracer.wrap("charset.detect", classifier_module.detect_charset)
            with patched(classifier_module, "detect_charset", detect):
                for crawl in CRAWLS:
                    self.crawl(crawl, clock, cache, tracer)
            stats = cache.stats()
            tracer.count("classifier.cache_hits", stats["hits"])
            tracer.count("classifier.cache_lookups", stats["hits"] + stats["misses"])
        return len(CRAWLS), 0

    def verify(self) -> list[str]:
        own = recount_relevant(self.dataset.crawl_log)
        if own != set(self.relevant):
            self.problems.append(
                f"own recount finds {len(own)} relevant pages, program {len(self.relevant)}"
            )
        return self.problems


def _body_link_check(problems: list[str]):
    """A hook checking body-parsed outlinks against the page records."""
    from repro.core.engine import EngineHook, EngineStage

    extract = EngineStage.EXTRACT

    class BodyLinks(EngineHook):
        def on_stage(self, stage, step) -> None:
            if stage is extract:
                record = step.response.record
                if record is not None and record.ok and record.is_html:
                    if tuple(step.outlinks) != tuple(record.outlinks):
                        problems.append(f"{record.url}: body links differ from the record's")

    return BodyLinks()
