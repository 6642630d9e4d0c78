"""Shared-state runtime for one simulated execution.

The :class:`Runtime` owns everything threads share: the variable store,
locks (both program locks and injected intervention locks), the virtual
clock, Lamport bookkeeping, the execution trace, and the registry of
completed method invocations (kept only when an order-forcing
intervention can wait on one).

The scheduler (:mod:`repro.sim.scheduler`) drives threads; each primitive
action a thread yields, except a sleep (which touches nothing shared and
is handled in the scheduler's step), is executed here via
:meth:`Runtime.perform`.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Optional

from .clock import LamportClock, LamportRegistry, VirtualClock
from .errors import LockProtocolError
from .faults import ForceOrder, InterventionSet, MethodSelector
from .program import (
    AcquireAction,
    Action,
    JoinAction,
    Program,
    ReadAction,
    ReleaseAction,
    SpawnAction,
    WaitCompletedAction,
    WriteAction,
)
from .tracing import Access, AccessType, ExecutionTrace, MethodExecution

#: The lockset of every access made with no lock held.
_NO_LOCKS: frozenset = frozenset()


@dataclass
class Blocked:
    """Signal from :meth:`Runtime.perform` that the thread must wait."""

    reason: str  # "lock" | "join" | "event"
    lock: Optional[str] = None
    thread: Optional[str] = None
    selector: Optional[MethodSelector] = None


class Runtime:
    """Mutable world state for a single execution."""

    def __init__(
        self,
        program: Program,
        interventions: InterventionSet,
        seed: int,
        trace: ExecutionTrace,
    ) -> None:
        self.program = program
        self.interventions = interventions
        self.seed = seed
        self.trace = trace
        self.clock = VirtualClock()
        self.shared: dict[str, Any] = {k: v for k, v in program.shared.items()}
        self.lock_owner: dict[str, Optional[str]] = {}
        self.locks_held: dict[str, list[str]] = {}  # thread -> lock names
        self.lamport: dict[str, LamportClock] = {}
        self.registry = LamportRegistry()
        #: whether some ``ForceOrder`` can wait on a call; only then do
        #: call ends fill :attr:`completed` and raise :attr:`wake`
        self.index_completed = any(
            isinstance(item, ForceOrder) for item in interventions
        )
        #: completed calls by method name (what ``ForceOrder`` waits on);
        #: stays empty in a run with no ``ForceOrder``, where nothing
        #: can wait on a call
        self.completed: dict[str, list[MethodExecution]] = {}
        self.finished_threads: set[str] = set()
        #: raised when a wait may have cleared (a lock freed, a thread
        #: finished, or, under a ``ForceOrder``, a call completed); the
        #: scheduler re-checks its blocked threads only then
        self.wake = False
        self._stacks: dict[str, list[tuple[int, str]]] = {}  # thread -> frames

    # -- thread lifecycle ------------------------------------------------

    def register_thread(self, thread: str, spawned_by: Optional[str]) -> None:
        self.lamport[thread] = LamportClock()
        self.locks_held.setdefault(thread, [])
        self._stacks.setdefault(thread, [])
        if spawned_by is not None:
            self.registry.observe(f"thread:{thread}", self.lamport[thread])

    def thread_finished(self, thread: str) -> None:
        self.finished_threads.add(thread)
        self.wake = True
        self.registry.stamp(f"thread-done:{thread}", self.lamport[thread])

    def abort_thread_calls(self, thread: str, exception: str) -> None:
        """Close open frames of a crashing thread, innermost first.

        Each unwound frame gets its own tick so the nesting order stays
        visible in end times (inner calls fail strictly before their
        callers), and the process-level failure — recorded by the
        scheduler after this returns — lands at or after the outermost
        frame's end.
        """
        stack = self._stacks.get(thread, [])
        while stack:
            call_id, __ = stack.pop()
            self.clock.advance(1)
            self.trace.end_call(
                call_id, self.clock.now, self.lamport[thread].time, None, exception
            )

    def current_method(self, thread: str) -> Optional[str]:
        stack = self._stacks.get(thread)
        return stack[-1][1] if stack else None

    # -- method tracing ----------------------------------------------------

    def begin_method(self, thread: str, method: str) -> int:
        # Call bookkeeping costs one tick: consecutive method boundaries
        # in a synchronous chain (return → next call, or an exception
        # unwinding through frames) get strictly increasing timestamps,
        # which temporal precedence depends on.
        clock = self.clock
        clock.now += 1
        lamport = self.lamport[thread]
        lamport.time += 1
        frames = self._stacks[thread]
        call_id = self.trace.begin_call(
            method, thread, clock.now, lamport.time,
            frames[-1][0] if frames else None,
        )
        frames.append((call_id, method))
        return call_id

    def end_method(
        self,
        thread: str,
        call_id: int,
        return_value: Any,
        exception: Optional[str],
        body_skipped: bool = False,
    ) -> None:
        clock = self.clock
        clock.now += 1  # return bookkeeping (see begin_method)
        lamport = self.lamport[thread]
        lamport.time += 1
        record = self.trace.end_call(
            call_id, clock.now, lamport.time, return_value, exception,
            body_skipped,
        )
        # A second tick with no channel to stamp: the pinned Lamport
        # stamps of every trace count it.
        lamport.time += 1
        frames = self._stacks[thread]
        if frames and frames[-1][0] == call_id:
            frames.pop()
        if self.index_completed:
            self.completed.setdefault(record.method, []).append(record)
            self.wake = True

    def is_completed(self, selector: MethodSelector) -> bool:
        return any(
            selector.matches(m.method, m.thread, m.occurrence)
            for m in self.completed.get(selector.method, ())
        )

    # -- primitive actions -------------------------------------------------

    def perform(self, thread: str, action: Action) -> tuple[Any, Optional[Blocked]]:
        """Execute one non-sleep primitive action for ``thread``.

        Returns ``(result, blocked)``.  If ``blocked`` is not None the
        action did *not* run; the scheduler must retry it once the wait
        condition clears.  Virtual time is owned by the scheduler: the
        action's effects are stamped at the current clock value, and the
        scheduler keeps the thread busy for one tick.  A
        :class:`SleepAction` never reaches here: the scheduler's step
        handles it (a Lamport tick, then the thread sleeps).
        """
        kind = type(action)
        if kind is AcquireAction:
            owner = self.lock_owner.get(action.lock)
            if owner is not None and owner != thread:
                return None, Blocked(reason="lock", lock=action.lock)
            if owner == thread:
                raise LockProtocolError(
                    f"{thread} re-acquired non-reentrant lock {action.lock!r}"
                )
            self.lock_owner[action.lock] = thread
            self.locks_held[thread].append(action.lock)
            self.registry.observe(f"lock:{action.lock}", self.lamport[thread])
            return None, None

        if kind is JoinAction:
            if action.thread not in self.finished_threads:
                return None, Blocked(reason="join", thread=action.thread)
            self.registry.observe(
                f"thread-done:{action.thread}", self.lamport[thread]
            )
            return None, None

        if kind is WaitCompletedAction:
            if not self.is_completed(action.selector):
                return None, Blocked(reason="event", selector=action.selector)
            self.lamport[thread].tick()
            return None, None

        if kind is ReadAction:
            value = self.shared.get(action.var)
            lamport = self.registry.observe(f"var:{action.var}", self.lamport[thread])
            self._record_access(thread, action.var, AccessType.READ, lamport)
            return value, None

        if kind is WriteAction:
            self.shared[action.var] = action.value
            lamport = self.registry.stamp(f"var:{action.var}", self.lamport[thread])
            self._record_access(thread, action.var, AccessType.WRITE, lamport)
            return None, None

        if kind is ReleaseAction:
            if self.lock_owner.get(action.lock) != thread:
                raise LockProtocolError(
                    f"{thread} released lock {action.lock!r} it does not hold"
                )
            self.lock_owner[action.lock] = None
            self.locks_held[thread].remove(action.lock)
            self.wake = True
            self.registry.stamp(f"lock:{action.lock}", self.lamport[thread])
            return None, None

        if kind is SpawnAction:
            # The scheduler creates the thread; we only stamp causality.
            self.registry.stamp(f"thread:{action.thread}", self.lamport[thread])
            return None, None

        raise TypeError(f"unknown action {action!r}")

    def _record_access(
        self, thread: str, var: str, access_type: AccessType, lamport: int
    ) -> None:
        frames = self._stacks[thread]
        if not frames:
            return
        call_id, method = frames[-1]
        held = self.locks_held[thread]
        self.trace.record_access(
            Access(
                var, access_type, thread, method, call_id,
                self.clock.now, lamport, frozenset(held) if held else _NO_LOCKS,
            )
        )

    def release_all(self, thread: str) -> None:
        """Free locks held by a crashed/finished thread (crash hygiene)."""
        for lock in list(self.locks_held.get(thread, [])):
            self.lock_owner[lock] = None
            self.locks_held[thread].remove(lock)
            self.wake = True
