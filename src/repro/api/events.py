"""The observer/event protocol: one seam for progress, logging, services.

Role
----
Every phase of the paper's workflow — trace collection, predicate
evaluation, intervention rounds, AC-DAG maintenance — emits a typed
:class:`Event` onto an :class:`EventBus`.  Anything that wants to watch
a run (a CLI progress line, a test asserting phase ordering, the future
``corpus serve`` ingestion service pushing status over a socket)
subscribes an :class:`Observer` and receives events in emission order,
synchronously, on the emitting thread.

Invariants
----------
* observers never influence results: emission happens *after* the state
  change it describes, and event payloads are read-only snapshots —
  a run with zero observers is byte-identical to a run with many;
* events of one run arrive in a fixed phase order (asserted in tests):
  ``run-started`` → collection/corpus events → ``suite-frozen`` →
  ``logs-evaluated`` → ``dag-built`` → ``intervention-round``* →
  ``engine-finished`` → ``run-finished``;
* this module depends on nothing inside :mod:`repro`, so any subsystem
  (``exec``, ``harness``, ``corpus``) can emit without import cycles;
* a raising observer never aborts the run or starves later observers:
  :meth:`EventBus.emit` isolates every delivery, warns once per broken
  observer, and keeps delivering to it (it may recover).

Envelopes and spans
-------------------
The bus stamps run-scoped context *at emit time* — a monotonically
increasing sequence number, seconds since the bus was created, a wall
clock, and the run id — so the frozen event dataclasses stay pure
descriptions of state changes.  Observers that define ``on_enveloped``
receive the :class:`Envelope`; plain ``on_event`` observers receive the
bare event, exactly as before.  :meth:`EventBus.span` times a phase and
emits a :class:`SpanClosed` event on exit; spans nest (the bus keeps
the stack), including the per-round ``round:<phase>#<n>`` spans the
execution engine opens around each intervention round (phases
``branch``, ``giwp`` and ``linear``).

Persistence: none *here* — events are ephemeral on the bus; durable
telemetry is the job of :class:`repro.obs.JsonlRunLog`, which writes
each envelope to a schema-versioned JSONL run log, and durable
reporting remains :meth:`~repro.harness.session.SessionReport.to_dict`.
"""

from __future__ import annotations

import os
import re
import time
import warnings
from dataclasses import dataclass, field
from typing import Callable, ClassVar, Optional, Protocol, Union, runtime_checkable


def new_run_id() -> str:
    """A sortable, collision-resistant run id: UTC stamp + random tail."""
    stamp = time.strftime("%Y%m%dT%H%M%S", time.gmtime())
    return f"{stamp}-{os.urandom(3).hex()}"


@dataclass(frozen=True)
class Event:
    """Base class: every event carries a stable ``kind`` string."""

    kind: ClassVar[str] = "event"


@dataclass(frozen=True)
class RunStarted(Event):
    """``repro.api.run`` accepted a spec and is about to dispatch."""

    kind: ClassVar[str] = "run-started"
    program: Optional[str]
    mode: str  # "live" | "corpus" | "incremental" | "explore"
    approach: Optional[str]


@dataclass(frozen=True)
class CollectionStarted(Event):
    """The live seed sweep is about to run (live sessions only)."""

    kind: ClassVar[str] = "collection-started"
    program: str
    n_success: int
    n_fail: int


@dataclass(frozen=True)
class CollectionFinished(Event):
    """Labeled traces are in hand, restricted to one failure signature.

    ``executions`` and ``sim_steps`` count the simulator work of a live
    seed sweep (0 when a stored corpus stands in for it)."""

    kind: ClassVar[str] = "collection-finished"
    n_success: int
    n_fail: int
    signature: Optional[str]
    executions: int = 0
    sim_steps: int = 0


@dataclass(frozen=True)
class CorpusLoaded(Event):
    """A stored corpus stands in for the collection sweep."""

    kind: ClassVar[str] = "corpus-loaded"
    n_traces: int
    n_pass: int
    n_fail: int


@dataclass(frozen=True)
class SuiteFrozen(Event):
    """The predicate suite is fixed for the rest of the run."""

    kind: ClassVar[str] = "suite-frozen"
    n_predicates: int
    #: "discovered" (extractors ran), "persisted" (loaded from the
    #: corpus, keyed by content digest), or "injected" (caller-supplied)
    source: str = "discovered"


@dataclass(frozen=True)
class LogsEvaluated(Event):
    """The frozen suite was evaluated over the analysis traces."""

    kind: ClassVar[str] = "logs-evaluated"
    n_logs: int
    #: fresh ``PredicateDef.evaluate`` calls vs pairs answered from a
    #: persistent eval matrix (both 0/None for plain live evaluation)
    fresh: Optional[int] = None
    memoized: Optional[int] = None
    #: single-pass kernel batches the fresh pairs rode in on (``None``
    #: when evaluation is not memoized); ``fresh / kernel_calls`` is the
    #: mean evalkernel batch size
    kernel_calls: Optional[int] = None


@dataclass(frozen=True)
class DagBuilt(Event):
    """The AC-DAG over the fully-discriminative predicates is ready."""

    kind: ClassVar[str] = "dag-built"
    n_nodes: int
    n_edges: int


@dataclass(frozen=True)
class InterventionRound(Event):
    """One adaptive group-intervention round was dispatched."""

    kind: ClassVar[str] = "intervention-round"
    phase: str  # "branch" | "giwp" | "linear"
    index: int  # 1-based, per phase


@dataclass(frozen=True)
class DagPatched(Event):
    """Incremental ingestion patched the maintained views."""

    kind: ClassVar[str] = "dag-patched"
    fingerprint: str
    removed_pids: frozenset[str] = frozenset()


@dataclass(frozen=True)
class ExplorationStarted(Event):
    """A schedule-space exploration run is about to execute."""

    kind: ClassVar[str] = "exploration-started"
    program: str
    strategy: str
    budget: int


@dataclass(frozen=True)
class ExecutionExplored(Event):
    """One exploration execution finished (novel or not)."""

    kind: ClassVar[str] = "execution-explored"
    index: int  # 0-based execution number within the run
    seed: int
    signature: str  # schedule signature of the interleaving
    failed: bool
    mutated: bool  # replayed a frontier prefix vs a fresh strategy run


@dataclass(frozen=True)
class NovelCoverage(Event):
    """An execution exercised at least one unseen handoff edge."""

    kind: ClassVar[str] = "novel-coverage"
    signature: str
    new_edges: int
    total_edges: int


@dataclass(frozen=True)
class EquivalentPruned(Event):
    """An execution landed in an already-seen Mazurkiewicz class.

    Partial-order pruning detected that the interleaving commutes
    (adjacent independent decisions only) with one explored earlier, so
    the driver withholds mutation energy from it — the schedule earns
    no frontier slot and no pass-ingestion, though novel *failures*
    are still recorded by exact signature.
    """

    kind: ClassVar[str] = "equivalent-pruned"
    signature: str  # exact schedule signature of this execution
    canonical: str  # the equivalence class both schedules share
    occurrences: int  # executions seen in this class so far (>= 2)


@dataclass(frozen=True)
class FailureFound(Event):
    """An exploration execution failed with a novel schedule."""

    kind: ClassVar[str] = "failure-found"
    signature: str
    failure_signature: str
    seed: int
    replay_verified: bool


@dataclass(frozen=True)
class FrontierStats(Event):
    """Periodic exploration progress snapshot."""

    kind: ClassVar[str] = "frontier-stats"
    executions: int
    frontier_size: int
    coverage_edges: int
    distinct_signatures: int
    failures_found: int


@dataclass(frozen=True)
class ExplorationFinished(Event):
    """The exploration budget is exhausted."""

    kind: ClassVar[str] = "exploration-finished"
    executions: int
    failures_found: int
    distinct_signatures: int
    distinct_failing_signatures: int
    coverage_edges: int
    #: distinct Mazurkiewicz classes among the executions (defaults
    #: keep pre-pruning run logs reconstructible)
    distinct_canonical: int = 0
    #: executions whose class had already been explored
    pruned_equivalent: int = 0


@dataclass(frozen=True)
class EngineFinished(Event):
    """The execution engine flushed its cache and closed."""

    kind: ClassVar[str] = "engine-finished"
    summary: str
    executed: int
    cached: int


@dataclass(frozen=True)
class RunFinished(Event):
    """The run produced its report (payload: the report object)."""

    kind: ClassVar[str] = "run-finished"
    report: object


@dataclass(frozen=True)
class SpanClosed(Event):
    """A timed phase ended (see :meth:`EventBus.span`).

    Spans close in LIFO order, so a child's ``span-closed`` always
    precedes its parent's; ``started`` (seconds since the bus was
    created) recovers the start order offline.
    """

    kind: ClassVar[str] = "span-closed"
    name: str
    duration: float
    #: nesting depth at open time (0 = top-level phase)
    depth: int
    #: enclosing span's name, or ``None`` at the top level
    parent: Optional[str]
    #: seconds since the bus was created when the span opened
    started: float


@dataclass(frozen=True)
class Envelope:
    """Emit-time context the bus stamps around each event."""

    #: 1-based position in this bus's emission order
    seq: int
    #: monotonic seconds since the bus was created
    t: float
    #: wall-clock unix time of the emission
    wall: float
    run_id: str
    event: Event


@runtime_checkable
class Observer(Protocol):
    """Anything that wants to watch a run."""

    def on_event(self, event: Event) -> None:
        ...  # pragma: no cover - protocol


@dataclass
class EventLog:
    """The reference observer: records every event, in order."""

    events: list[Event] = field(default_factory=list)

    def on_event(self, event: Event) -> None:
        self.events.append(event)

    def kinds(self) -> list[str]:
        return [event.kind for event in self.events]

    def first(self, kind: str) -> Optional[Event]:
        return next((e for e in self.events if e.kind == kind), None)

    def of_kind(self, kind: str) -> list[Event]:
        return [e for e in self.events if e.kind == kind]


class EventBus:
    """Fans each emitted event out to every subscribed observer.

    Plain callables are accepted alongside :class:`Observer` objects;
    subscription order is delivery order.  A bus with no observers is
    nearly free: ``emit`` short-circuits on an empty list.  Observers
    that define ``on_enveloped`` receive an :class:`Envelope` (built
    lazily, once per event, only when someone wants it) instead of the
    bare event.
    """

    def __init__(
        self,
        observers: Optional[
            list[Union[Observer, Callable[[Event], None]]]
        ] = None,
        run_id: Optional[str] = None,
    ) -> None:
        self._observers: list[Observer] = []
        self.run_id = run_id if run_id is not None else new_run_id()
        self._seq = 0
        self._t0 = time.perf_counter()
        self._span_stack: list[str] = []
        #: ids of observers already warned about (one warning each)
        self._warned: set[int] = set()
        #: set to a directory (by ``repro.obs``'s ``--profile``) to
        #: cProfile every top-level span into ``<run_id>-<name>.prof``
        self.profile_dir: Optional[str] = None
        for observer in observers or []:
            self.subscribe(observer)

    def subscribe(
        self, observer: Union[Observer, Callable[[Event], None]]
    ) -> None:
        if not hasattr(observer, "on_event") and not hasattr(
            observer, "on_enveloped"
        ):
            observer = _CallableObserver(observer)
        self._observers.append(observer)

    def emit(self, event: Event) -> None:
        observers = self._observers
        if not observers:
            return
        self._seq += 1
        envelope: Optional[Envelope] = None
        for observer in observers:
            deliver = getattr(observer, "on_enveloped", None)
            if deliver is not None:
                if envelope is None:
                    envelope = Envelope(
                        seq=self._seq,
                        t=time.perf_counter() - self._t0,
                        wall=time.time(),
                        run_id=self.run_id,
                        event=event,
                    )
                payload: object = envelope
            else:
                deliver = observer.on_event
                payload = event
            try:
                deliver(payload)
            except Exception as exc:
                # Observers never affect results: a broken one is
                # quarantined to a single warning and the event keeps
                # flowing to everyone else (and to it — it may recover).
                key = id(observer)
                if key not in self._warned:
                    self._warned.add(key)
                    warnings.warn(
                        f"observer {type(observer).__name__} raised "
                        f"{type(exc).__name__}: {exc} (further errors "
                        "from this observer are suppressed)",
                        RuntimeWarning,
                        stacklevel=2,
                    )

    # -- span tracing -----------------------------------------------------

    def span(self, name: str) -> "Span":
        """A context manager timing one phase; emits :class:`SpanClosed`
        on exit.  Spans nest — the bus tracks the open-span stack."""
        return Span(self, name)

    def __len__(self) -> int:
        return len(self._observers)


class Span:
    """Times one phase on a bus; see :meth:`EventBus.span`.

    When the bus has a ``profile_dir`` and this is a top-level span,
    the phase also runs under :mod:`cProfile` and dumps its stats to
    ``<profile_dir>/<run_id>-<name>.prof`` (top level only — cProfile
    cannot nest).
    """

    __slots__ = ("bus", "name", "depth", "parent", "started", "_t0", "_profile")

    def __init__(self, bus: EventBus, name: str) -> None:
        self.bus = bus
        self.name = name
        self.depth = 0
        self.parent: Optional[str] = None
        self.started = 0.0
        self._t0 = 0.0
        self._profile = None

    def __enter__(self) -> "Span":
        stack = self.bus._span_stack
        self.parent = stack[-1] if stack else None
        self.depth = len(stack)
        stack.append(self.name)
        if self.bus.profile_dir is not None and self.depth == 0:
            import cProfile

            self._profile = cProfile.Profile()
            self._profile.enable()
        self._t0 = time.perf_counter()
        self.started = self._t0 - self.bus._t0
        return self

    def __exit__(self, *exc_info: object) -> None:
        duration = time.perf_counter() - self._t0
        if self._profile is not None:
            self._profile.disable()
            safe = re.sub(r"[^\w.-]", "_", self.name)
            path = os.path.join(
                self.bus.profile_dir, f"{self.bus.run_id}-{safe}.prof"
            )
            self._profile.dump_stats(path)
            self._profile = None
        stack = self.bus._span_stack
        if stack:
            stack.pop()
        self.bus.emit(
            SpanClosed(
                name=self.name,
                duration=duration,
                depth=self.depth,
                parent=self.parent,
                started=self.started,
            )
        )


@dataclass
class _CallableObserver:
    """Adapter: a bare callable as an :class:`Observer`."""

    fn: Callable[[Event], None]

    def on_event(self, event: Event) -> None:
        self.fn(event)
