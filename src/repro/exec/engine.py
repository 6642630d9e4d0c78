"""The intervention-execution engine: memoization plus accounting.

:class:`ExecutionEngine` is the single funnel through which every
intervened re-execution flows.  It owns an
:class:`~repro.exec.cache.OutcomeCache` (which runs can be skipped) and
an :class:`~repro.exec.stats.ExecStats` (what it all cost).  Runners
translate pid groups into :class:`~repro.exec.cache.RunRequest` lists
and a ``run_fn`` that performs one execution; the engine decides what
actually runs.

:meth:`ExecutionEngine.run_group` is one intervention round: it walks
the group's requests in order, answers each from the cache or runs and
stores it, and (with early stop) returns at the first failing outcome.
Every run happens in-process, so the returned list is exactly the
serial walk.

Persistence: none here — the engine's only durable state is the
outcome cache (see :mod:`repro.exec.cache`), written on ``flush``.
"""

from __future__ import annotations

import time
from typing import Callable, Optional, Sequence, TYPE_CHECKING

from .cache import OutcomeCache, RunRequest
from .stats import ExecStats

if TYPE_CHECKING:  # pragma: no cover - typing only
    from ..api.events import EventBus
    from ..core.intervention import RunOutcome

#: Executes one request; must be a pure function of the request for
#: memoization to be sound.
RunFn = Callable[[RunRequest], "RunOutcome"]


class ExecutionEngine:
    """Cache + stats, shared across runners and sessions."""

    def __init__(
        self,
        cache: Optional[OutcomeCache] = None,
        stats: Optional[ExecStats] = None,
        bus: Optional["EventBus"] = None,
    ) -> None:
        self.cache = cache if cache is not None else OutcomeCache()
        self.stats = stats or ExecStats()
        #: optional observer seam: round boundaries are emitted as
        #: ``intervention-round`` events (see :mod:`repro.api.events`)
        self.bus = bus
        #: the open per-round span: (phase, index, perf_counter at open)
        self._open_round: Optional[tuple[str, int, float]] = None

    # -- the API runners use --------------------------------------------

    def run_group(
        self,
        requests: Sequence[RunRequest],
        run_fn: RunFn,
        early_stop: bool = True,
    ) -> list["RunOutcome"]:
        """One group: seeds in order, each answered from the cache or
        run and stored; stops after the first failure when
        ``early_stop``."""
        cache = self.cache
        stats = self.stats
        stats.groups += 1
        results: list["RunOutcome"] = []
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

    def note_round(self, phase: str) -> None:
        """Algorithms mark round boundaries for the stats report (and
        any subscribed observers — the live progress seam).  With a bus
        attached, each round also becomes a timed ``round:<phase>#<n>``
        span: a round only ends when the next begins (or the engine
        finishes), so spans chain open→open via :meth:`end_rounds`
        rather than nesting as context managers."""
        self.stats.note_round(phase)
        if self.bus is not None:
            from ..api.events import InterventionRound

            self.end_rounds()
            self.bus.emit(
                InterventionRound(phase=phase, index=self.stats.rounds[phase])
            )
            self._open_round = (
                phase, self.stats.rounds[phase], time.perf_counter()
            )

    def end_rounds(self) -> None:
        """Close the open per-round span, if any — called between
        rounds, by the session when discovery returns, and defensively
        by :meth:`finish`."""
        if self._open_round is not None and self.bus is not None:
            phase, index, started = self._open_round
            self._open_round = None
            self.bus.emit_span(
                f"round:{phase}#{index}",
                time.perf_counter() - started,
                started=started,
            )

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
        self.end_rounds()
        saved = self.flush()
        self.close()
        lines = [self.stats.report()]
        if saved is not None:
            lines.append(f"outcome cache: {len(self.cache)} entries -> {saved}")
        summary = "\n".join(lines)
        if self.bus is not None:
            from ..api.events import EngineFinished

            self.bus.emit(
                EngineFinished(
                    summary=summary,
                    executed=self.stats.executed,
                    cached=self.stats.cached,
                )
            )
        return summary
