"""``serve-evict``: short sessions through the serve protocol, evicting.

Inputs: three Thai datasets (scales 0.06, 0.08 and 0.10, fixed dataset
seeds), built and warmed into an in-process
:class:`~repro.serve.protocol.ProtocolHandler` during set-up.  The
handler's :class:`~repro.serve.manager.SessionManager` holds at most
``MAX_RESIDENT`` sessions, fewer than the eight a round keeps open, so
steps evict sessions to checkpoints and resume them.

One round is one closed-loop client.  It opens eight sessions (mixed
strategies, some at ``concurrency=8``), then steps them in turn,
``STEP_BUDGET`` pages per request, until each reaches ``MAX_PAGES``
pages and is closed.  (A second client thread would make the request
count race: ``SessionManager.step`` reads the reply's status after
releasing the session lock, so a concurrent eviction can make a
completed step answer ``steps: 0, done: false``, and the session takes
an extra step.)  After its fifth step every session
gets one step request whose ``budget`` is not an integer: the handler
lets the resulting ``ValueError`` escape instead of answering
``{"ok": false}``, so those requests count as failed operations.

The run's seed picks which session the client opens and steps first:
the order is the spec list rotated by the seed.  A rotation keeps every
session's neighbours in the turn, and with them which session each step
evicts, so the checkpoint writes charged to each kind of session (and
the slowest steps) are the same in every run; a shuffled order moved
them between the round-based and the ``concurrency=8`` figures.
"""

from __future__ import annotations

import json
import os
import time
from contextlib import contextmanager, nullcontext

from common import Observer, StepClock, recount_relevant
from tracing import patched

SCALES = (0.06, 0.08, 0.10)
DATASET_SEEDS = (20050405, 20050406, 20050407)
#: Pages per step request.  A step this large allocates enough that
#: about one step in fifty pays for a full garbage collection (45 ms
#: against 5 ms for the median step), so p99 lies well inside those
#: steps.  With 20-page steps one step in 140 did, and p99 swung between
#: the collecting steps and the rest from run to run.
STEP_BUDGET = 60
MAX_PAGES = 600
#: Far below the eight open sessions, so nearly every step resumes its
#: session from a checkpoint: with a cap near the open count, the share
#: of resuming steps (and so the median step) would swing with thread
#: timing.
MAX_RESIDENT = 2
#: The malformed step follows this many good steps of a session.
MALFORMED_AFTER = 5

#: (strategy, params, concurrency), one per session of a round.
SESSIONS = (
    ("breadth-first", {}, None),
    ("soft-focused", {}, None),
    ("hard-focused", {}, 8),
    ("limited-distance", {"n": 2}, None),
    ("soft-focused", {}, 8),
    ("hard-focused", {}, None),
    ("soft+limited", {"n": 2}, None),
    ("breadth-first", {}, 8),
)


class ServeEvict:
    name = "serve-evict"
    warm_rounds = 1

    def __init__(self, seed: int) -> None:
        from repro.graphgen.profiles import thai_profile

        #: The store-build metrics write the largest dataset's universe.
        self.profile = thai_profile(seed=DATASET_SEEDS[-1]).scaled(SCALES[-1])
        start = seed % len(SESSIONS)
        self.order = tuple(range(start, len(SESSIONS))) + tuple(range(start))
        self.handler = None
        self.manager = None
        self.rounds = 0
        self.problems: list[str] = []
        #: spec index -> set of report digests seen at close
        self.reports: dict[int, set[str]] = {}

    def spec(self, index: int) -> tuple[dict, dict]:
        strategy, params, concurrency = SESSIONS[index]
        slot = index % len(SCALES)
        request = {
            "strategy": strategy,
            "params": params,
            "dataset": {"profile": "thai", "scale": SCALES[slot], "seed": DATASET_SEEDS[slot]},
        }
        config = {"max_pages": MAX_PAGES, "sample_interval": 50}
        if concurrency:
            config["concurrency"] = concurrency
        return request, config

    def close(self) -> None:
        if self.manager is not None:
            self.manager.close_all()

    def setup(self, tmp, traced: bool) -> None:
        from repro.serve.manager import SessionManager
        from repro.serve.protocol import ProtocolHandler

        self.close()
        self.manager = SessionManager(spool_dir=tmp / "spool", max_resident=MAX_RESIDENT)
        self.handler = ProtocolHandler(self.manager, dataset_cache_dir=str(tmp / "datasets"))
        for slot in range(len(SCALES)):
            request, config = self.spec(slot)
            for cmd in ({"cmd": "open", "request": request, "config": config}, {"cmd": "close"}):
                response = self.handler.handle(dict(cmd, session=f"warm{slot}"))
                if not response.get("ok"):
                    raise RuntimeError(f"warming dataset {slot} failed: {response}")

    # -- one round -----------------------------------------------------------

    def round(self, clock: StepClock, tracer=None) -> tuple[int, int]:
        """One closed-loop client: open, step in turn, close; (attempted, failed)."""
        prefix = f"r{self.rounds}-"
        self.rounds += 1
        attempted = failed = 0

        def send(payload: dict, malformed: bool = False) -> dict | None:
            """One request; a malformed one must be refused with ok false."""
            nonlocal attempted, failed
            attempted += 1
            try:
                response = handle(payload)
            except ValueError:
                failed += 1
                return None
            if response.get("ok") == malformed:
                failed += not malformed
                self.problems.append(f"{payload['cmd']} {payload['session']}: {response}")
            return response if response.get("ok") else None

        with self._traced(tracer, clock) if tracer is not None else nullcontext():
            handle = self.handler.handle
            open_sessions = {}
            for index in self.order:
                request, config = self.spec(index)
                name = f"{prefix}{index}"
                if send({"cmd": "open", "session": name, "request": request, "config": config}):
                    open_sessions[name] = [index, 0, 0]  # spec, good steps, pages
            while open_sessions:
                for name in list(open_sessions):
                    index, steps, pages = open_sessions[name]
                    started = time.perf_counter()
                    response = send({"cmd": "step", "session": name, "budget": STEP_BUDGET})
                    elapsed = time.perf_counter() - started
                    if response is None:
                        del open_sessions[name]
                        continue
                    status = response["status"]
                    clock.record(elapsed, status["steps"] - pages, bool(SESSIONS[index][2]))
                    open_sessions[name] = [index, steps + 1, status["steps"]]
                    if steps + 1 == MALFORMED_AFTER:
                        send({"cmd": "step", "session": name, "budget": "abc"}, malformed=True)
                    if status["done"]:
                        del open_sessions[name]
                        closed = send({"cmd": "close", "session": name})
                        if closed is not None:
                            clock.sessions += 1
                            digest = json.dumps(closed["report"], sort_keys=True)
                            self.reports.setdefault(index, set()).add(digest)
        return attempted, failed

    @contextmanager
    def _traced(self, tracer, clock: StepClock):
        """Trace protocol requests and checkpoint I/O; count evictions."""
        from repro.core import session as session_module

        before = self.manager.stats()
        steps_before = len(clock.latencies)
        handle = self.handler.handle
        by_command = {
            cmd: tracer.wrap(f"protocol.{cmd}", handle) for cmd in ("open", "step", "close")
        }
        traced_write = tracer.wrap("checkpoint.write", session_module.write_checkpoint)

        def write(path, state):
            traced_write(path, state)
            tracer.count("checkpoint.bytes", os.path.getsize(path))

        read = tracer.wrap("checkpoint.read", session_module.read_checkpoint)
        self.handler.handle = lambda payload: by_command[payload["cmd"]](payload)
        try:
            with patched(session_module, "write_checkpoint", write), patched(
                session_module, "read_checkpoint", read
            ):
                yield
        finally:
            del self.handler.handle
        after = self.manager.stats()
        tracer.count("manager.evictions", after["evictions"] - before["evictions"])
        tracer.count("manager.resumes", after["resumes"] - before["resumes"])
        tracer.count("manager.steps", len(clock.latencies) - steps_before)

    def verify(self) -> list[str]:
        """Every closed report equals a one-shot run of its request."""
        from dataclasses import replace

        from repro.api import run_crawl
        from repro.core.session import report_payload

        problems = list(self.problems)
        relevant: dict[int, set[str]] = {}
        for index in range(len(SESSIONS)):
            request_spec, config_spec = self.spec(index)
            request = self.handler.build_request(request_spec)
            observer = Observer()
            config = replace(self.handler.build_config(config_spec), on_fetch=observer)
            result = run_crawl(request, config=config)
            expected = json.dumps(report_payload(result), sort_keys=True)
            seen = self.reports.get(index, set())
            if seen != {expected}:
                problems.append(
                    f"session spec {index}: {len(seen)} distinct close reports, "
                    "not all equal to a one-shot run"
                )
            slot = index % len(SCALES)
            if slot not in relevant:
                relevant[slot] = recount_relevant(request.web.crawl_log)
                if relevant[slot] != set(request.relevant_urls):
                    problems.append(f"dataset {slot}: own recount differs from the program's")
            problems += observer.problems(result, len(relevant[slot]), f"session spec {index}")
        return problems
