"""The intervention-execution engine: memoization plus accounting.

:class:`ExecutionEngine` is the single funnel through which every
intervened re-execution flows.  It owns an
:class:`~repro.exec.cache.OutcomeCache` (which runs can be skipped) and
an :class:`~repro.exec.stats.ExecStats` (what it all cost).  Runners
translate pid groups into :class:`~repro.exec.cache.RunRequest` lists
and a ``run_fn`` that performs one execution; the engine decides what
actually runs.

:meth:`ExecutionEngine.run_group` executes one intervention group: it
walks the group's requests in order, answers each from the cache or
runs and stores it, and (with early stop) returns at the first failing
outcome.  Every run happens in-process, so the returned list is exactly
the serial walk.

:meth:`ExecutionEngine.round` is where the algorithms account their
rounds: GIWP and the LINEAR baseline wrap each ``run_group`` call in
``with engine.round(phase):``, which counts the round in the stats and,
with a bus attached, emits ``intervention-round`` at dispatch and times
the round's executions in a nested ``round:<phase>#<n>`` span.

Persistence: none here — the engine's only durable state is the
outcome cache (see :mod:`repro.exec.cache`), written on ``flush``.
"""

from __future__ import annotations

import time
from contextlib import contextmanager
from typing import Callable, Iterator, Optional, Sequence

from ..api.events import EngineFinished, EventBus, InterventionRound
from .cache import OutcomeCache, RunOutcome, RunRequest
from .stats import ExecStats

#: Executes one request; must be a pure function of the request for
#: memoization to be sound.
RunFn = Callable[[RunRequest], RunOutcome]


class ExecutionEngine:
    """Cache + stats, shared across runners and sessions."""

    def __init__(
        self,
        cache: Optional[OutcomeCache] = None,
        bus: Optional[EventBus] = None,
    ) -> None:
        self.cache = cache if cache is not None else OutcomeCache()
        self.stats = ExecStats()
        #: optional observer seam: rounds are emitted as
        #: ``intervention-round`` events (see :mod:`repro.api.events`)
        self.bus = bus

    # -- the API runners use --------------------------------------------

    def run_group(
        self,
        requests: Sequence[RunRequest],
        run_fn: RunFn,
        early_stop: bool = True,
    ) -> list[RunOutcome]:
        """One group: seeds in order, each answered from the cache or
        run and stored; stops after the first failure when
        ``early_stop``."""
        cache = self.cache
        stats = self.stats
        stats.groups += 1
        results: list[RunOutcome] = []
        for request in requests:
            outcome = cache.peek(request)
            if outcome is None:
                started = time.perf_counter()
                outcome = run_fn(request)
                stats.run_time += time.perf_counter() - started
                stats.executed += 1
                stats.batches += 1
                cache.store(request, outcome)
                cache.record_miss()
            else:
                cache.record_hit()
                stats.cached += 1
            results.append(outcome)
            if early_stop and outcome.failed:
                break
        return results

    @contextmanager
    def round(self, phase: str) -> Iterator[None]:
        """One algorithm round: counted in the stats under ``phase``;
        with a bus attached, announced as an ``intervention-round``
        event when dispatched and timed by a ``round:<phase>#<n>`` span
        that nests under whatever span is open."""
        self.stats.note_round(phase)
        bus = self.bus
        if bus is None:
            yield
            return
        index = self.stats.rounds[phase]
        bus.emit(InterventionRound(phase=phase, index=index))
        with bus.span(f"round:{phase}#{index}"):
            yield

    # -- lifecycle -------------------------------------------------------

    def flush(self) -> Optional[str]:
        """Persist the cache if it was configured with a path."""
        if self.cache.path is not None:
            return self.cache.save()
        return None

    def close(self) -> None:
        """End the engine's life.  Holds no resource; kept as the one
        method every engine's teardown passes through (profilers hook
        it to read the final stats)."""

    def finish(self) -> str:
        """Flush, close, and return the human-readable summary — the
        one teardown path every CLI subcommand and :func:`repro.api.run`
        share.  Also emits an ``engine-finished`` event."""
        saved = self.flush()
        self.close()
        lines = [self.stats.report()]
        if saved is not None:
            lines.append(f"outcome cache: {len(self.cache)} entries -> {saved}")
        summary = "\n".join(lines)
        if self.bus is not None:
            self.bus.emit(
                EngineFinished(
                    summary=summary,
                    executed=self.stats.executed,
                    cached=self.stats.cached,
                )
            )
        return summary
