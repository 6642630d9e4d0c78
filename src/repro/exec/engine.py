"""The intervention-execution engine: batching, memoization, dispatch.

:class:`ExecutionEngine` is the single funnel through which every
intervened re-execution flows.  It owns a :class:`~repro.exec.backends`
backend (where runs happen), an :class:`~repro.exec.cache.OutcomeCache`
(which runs can be skipped), and an :class:`~repro.exec.stats.ExecStats`
(what it all cost).  Runners translate pid groups into
:class:`~repro.exec.cache.RunRequest` lists and a ``run_fn`` that
performs one execution; the engine decides what actually runs.

:class:`BatchScheduler` implements the two dispatch shapes discovery
needs:

* :meth:`BatchScheduler.run_group` — one intervention round: the seeds
  of a group are mutually independent, so they execute in waves of
  backend width.  Early-stop semantics are preserved *exactly*: the
  returned outcome list is always the serial walk's prefix, truncated at
  the first failing seed.  A parallel wave may speculatively execute a
  few seeds past that point; their outcomes are cached (they are valid),
  just not returned.
* :meth:`BatchScheduler.run_independent` — a batch of independent
  groups (e.g. every probe of the LINEAR baseline, or a round's worth of
  junction probes): whole groups fan out across the backend, each worker
  walking its group serially with the usual early-stop rule.

With :class:`~repro.exec.backends.SerialBackend` both shapes reduce to
the historical in-line loops — bit-identical results, zero speculation.

Invariants
----------
* results are a pure function of the requests: backend choice and job
  count affect wall-clock time only (``run_group`` returns exactly the
  serial walk's early-stop prefix; speculative outcomes are cached but
  never returned);
* only the parent mutates the cache — workers read a (possibly
  fork-snapshotted) view and hand outcomes back;
* :meth:`ExecutionEngine.dispatch` is the one timed backend map under
  every batch; it inherits the same order-preservation guarantee.

Persistence: none here — the engine's only durable state is the
outcome cache (see :mod:`repro.exec.cache`), written on ``flush``.
"""

from __future__ import annotations

import time
from typing import Callable, Optional, Sequence, TYPE_CHECKING

from .backends import Backend, SerialBackend
from .cache import OutcomeCache, RunRequest
from .stats import ExecStats

if TYPE_CHECKING:  # pragma: no cover - typing only
    from ..api.events import EventBus
    from ..core.intervention import RunOutcome

#: Executes one request; must be a pure function of the request for
#: memoization to be sound.
RunFn = Callable[[RunRequest], "RunOutcome"]


class BatchScheduler:
    """Turns request groups into cache lookups plus backend dispatches."""

    def __init__(self, engine: "ExecutionEngine") -> None:
        self.engine = engine

    # -- one intervention round -----------------------------------------

    def run_group(
        self,
        requests: Sequence[RunRequest],
        run_fn: RunFn,
        early_stop: bool = True,
    ) -> list["RunOutcome"]:
        """One group: seeds in order, waves of backend width."""
        engine = self.engine
        cache = engine.cache
        engine.stats.groups += 1
        requests = list(requests)
        results: list["RunOutcome"] = []
        i, n = 0, len(requests)
        wave_size = max(1, engine.backend.jobs)
        while i < n:
            wave = requests[i : i + wave_size]
            misses = [r for r in wave if cache.peek(r) is None]
            if misses:
                for request, outcome in zip(misses, engine.execute(misses, run_fn)):
                    cache.store(request, outcome)
            missed = set(misses)
            for request in wave:
                outcome = cache.peek(request)
                if request in missed:
                    cache.record_miss()
                else:
                    cache.record_hit()
                    engine.stats.cached += 1
                results.append(outcome)
                i += 1
                if early_stop and outcome.failed:
                    return results
        return results

    # -- a batch of independent groups ----------------------------------

    def run_independent(
        self,
        groups: Sequence[Sequence[RunRequest]],
        run_fn: RunFn,
        early_stop: bool = True,
    ) -> list[list["RunOutcome"]]:
        """Independent groups: whole groups fan out across the backend.

        Each group's result is exactly what :meth:`run_group` would have
        produced; only the wall-clock schedule differs.
        """
        engine = self.engine
        cache = engine.cache
        groups = [list(g) for g in groups]
        engine.stats.groups += len(groups)
        results: list[Optional[list["RunOutcome"]]] = [None] * len(groups)

        pending: list[int] = []
        for index, requests in enumerate(groups):
            resolved = self._resolve_from_cache(requests, early_stop)
            if resolved is None:
                pending.append(index)
            else:
                results[index] = resolved

        if pending:
            def run_whole_group(index: int):
                # Runs in a worker: walk the group serially, early-stop,
                # reading (a possibly fork-snapshotted) cache but never
                # writing it — the parent owns all mutation.
                walked = []
                for request in groups[index]:
                    outcome = cache.peek(request)
                    duration = None
                    if outcome is None:
                        started = time.perf_counter()
                        outcome = run_fn(request)
                        duration = time.perf_counter() - started
                    walked.append((request, outcome, duration))
                    if early_stop and outcome.failed:
                        break
                return walked

            for index, walked in zip(
                pending, engine.dispatch(run_whole_group, pending)
            ):
                outcomes = []
                for request, outcome, duration in walked:
                    if duration is None:
                        cache.record_hit()
                        engine.stats.cached += 1
                    else:
                        cache.record_miss()
                        cache.store(request, outcome)
                        engine.stats.executed += 1
                        engine.stats.run_time += duration
                    outcomes.append(outcome)
                results[index] = outcomes
        return results  # type: ignore[return-value]

    def _resolve_from_cache(
        self, requests: Sequence[RunRequest], early_stop: bool
    ) -> Optional[list["RunOutcome"]]:
        """The group's full serial walk from cache, or None if any run
        would be needed (nothing is counted in that case)."""
        cache = self.engine.cache
        outcomes: list["RunOutcome"] = []
        for request in requests:
            outcome = cache.peek(request)
            if outcome is None:
                return None
            outcomes.append(outcome)
            if early_stop and outcome.failed:
                break
        for _ in outcomes:
            cache.record_hit()
        self.engine.stats.cached += len(outcomes)
        return outcomes


class ExecutionEngine:
    """Backend + cache + stats, shared across runners and sessions."""

    def __init__(
        self,
        backend: Optional[Backend] = None,
        cache: Optional[OutcomeCache] = None,
        stats: Optional[ExecStats] = None,
        bus: Optional["EventBus"] = None,
    ) -> None:
        self.backend = backend or SerialBackend()
        self.cache = cache if cache is not None else OutcomeCache()
        self.stats = stats or ExecStats()
        #: optional observer seam: round boundaries are emitted as
        #: ``intervention-round`` events (see :mod:`repro.api.events`)
        self.bus = bus
        self.scheduler = BatchScheduler(self)
        #: One timing wrapper per run_fn (bound methods hash by
        #: instance+function, so every wave of a runner reuses the same
        #: object — which lets the process backend keep its pool forked).
        self._timed: dict[RunFn, Callable] = {}
        #: the open per-round span: (phase, index, perf_counter at open)
        self._open_round: Optional[tuple[str, int, float]] = None

    @classmethod
    def from_options(
        cls,
        jobs: Optional[int] = None,
        backend: Optional[str] = None,
        cache: Optional[OutcomeCache] = None,
        bus: Optional["EventBus"] = None,
    ) -> "ExecutionEngine":
        """An engine with its backend resolved from CLI-ish inputs
        (``--jobs`` / ``--backend``), via
        :func:`~repro.exec.backends.make_backend`."""
        from .backends import make_backend

        return cls(
            backend=make_backend(backend, jobs), cache=cache, bus=bus
        )

    # -- the API runners use --------------------------------------------

    def run_group(
        self,
        requests: Sequence[RunRequest],
        run_fn: RunFn,
        early_stop: bool = True,
    ) -> list["RunOutcome"]:
        return self.scheduler.run_group(requests, run_fn, early_stop)

    def run_independent_groups(
        self,
        groups: Sequence[Sequence[RunRequest]],
        run_fn: RunFn,
        early_stop: bool = True,
    ) -> list[list["RunOutcome"]]:
        return self.scheduler.run_independent(groups, run_fn, early_stop)

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

    # -- low-level dispatch ---------------------------------------------

    def execute(
        self, requests: Sequence[RunRequest], run_fn: RunFn
    ) -> list["RunOutcome"]:
        """Run requests through the backend, bypassing the cache."""
        timed = self._timed.get(run_fn)
        if timed is None:

            def timed(request: RunRequest, _run: RunFn = run_fn):
                started = time.perf_counter()
                outcome = _run(request)
                return outcome, time.perf_counter() - started

            self._timed[run_fn] = timed

        pairs = self.dispatch(timed, requests)
        self.stats.executed += len(pairs)
        for _, duration in pairs:
            self.stats.run_time += duration
        return [outcome for outcome, _ in pairs]

    def dispatch(self, fn: Callable, items: Sequence) -> list:
        """One timed backend dispatch."""
        started = time.perf_counter()
        out = self.backend.map(fn, list(items))
        self.stats.wall_time += time.perf_counter() - started
        self.stats.batches += 1
        return out

    # -- lifecycle -------------------------------------------------------

    def flush(self) -> Optional[str]:
        """Persist the cache if it was configured with a path."""
        if self.cache.path is not None:
            return self.cache.save()
        return None

    def close(self) -> None:
        self.backend.close()

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
