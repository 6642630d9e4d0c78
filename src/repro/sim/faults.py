"""Fault injection: runtime interventions on the simulated program.

This is the simulator's counterpart of an LFI-style library-level fault
injector (paper Section 3.3 and Appendix B).  Each intervention type
corresponds to one row of Figure 2, column 3:

===============================  ==========================================
Predicate being repaired          Intervention
===============================  ==========================================
data race between M1 and M2       :class:`SerializeMethods` (inject a lock)
method M fails                    :class:`CatchException` (inject try/catch)
method M runs too fast            :class:`DelayReturn` (inject delay)
method M runs too slow            :class:`ForceReturn` with ``skip_body``
method M returns incorrect value  :class:`ForceReturn` (alter return stmt)
order violation between M1, M2    :class:`ForceOrder` (block until M1 done)
===============================  ==========================================

Interventions are *declarative*: the runtime consults the active
:class:`InterventionSet` at method boundaries, so applying a set of
interventions never requires editing workload code — exactly like a
binary-rewriting fault injector applied before execution.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from .tracing import MethodKey


@dataclass(frozen=True)
class MethodSelector:
    """Matches method invocations, optionally pinned to thread/occurrence.

    ``thread=None`` or ``occurrence=None`` act as wildcards.  Selectors
    are how predicate-level interventions (which talk about "method M,
    k-th call, on thread T") address simulated invocations.
    """

    method: str
    thread: Optional[str] = None
    occurrence: Optional[int] = None

    def matches(self, method: str, thread: str, occurrence: int) -> bool:
        if self.method != method:
            return False
        if self.thread is not None and self.thread != thread:
            return False
        if self.occurrence is not None and self.occurrence != occurrence:
            return False
        return True

    def matches_key(self, key: MethodKey) -> bool:
        return self.matches(key.method, key.thread, key.occurrence)

    @classmethod
    def from_key(cls, key: MethodKey) -> "MethodSelector":
        return cls(method=key.method, thread=key.thread, occurrence=key.occurrence)

    def __str__(self) -> str:
        thread = self.thread or "*"
        occ = "*" if self.occurrence is None else str(self.occurrence)
        return f"{thread}:{self.method}#{occ}"


class Intervention:
    """Base class for all runtime interventions (marker only)."""

    def describe(self) -> str:
        return repr(self)


@dataclass(frozen=True)
class SerializeMethods(Intervention):
    """Put a (injected) lock around the bodies of the selected methods.

    Repairs data-race predicates: the racing methods can no longer
    overlap, so lockset-based race detection no longer fires.
    """

    selectors: tuple[MethodSelector, ...]
    lock_name: str = "__aid_race_lock__"

    def describe(self) -> str:
        subjects = ", ".join(str(s) for s in self.selectors)
        return f"serialize [{subjects}] with injected lock {self.lock_name}"


@dataclass(frozen=True)
class CatchException(Intervention):
    """Wrap the method in an injected try/catch.

    If the body raises, the exception is swallowed and ``fallback`` is
    returned instead — repairing "method M fails" predicates.
    """

    selector: MethodSelector
    fallback: object = None

    def describe(self) -> str:
        return f"catch exceptions in {self.selector}, return {self.fallback!r}"


@dataclass(frozen=True)
class DelayBefore(Intervention):
    """Inject a delay before the method body starts."""

    selector: MethodSelector
    ticks: int

    def describe(self) -> str:
        return f"delay {self.selector} start by {self.ticks} ticks"


@dataclass(frozen=True)
class DelayReturn(Intervention):
    """Inject a delay before the method returns.

    Repairs "method M runs too fast" by stretching its duration to at
    least the successful-execution minimum.
    """

    selector: MethodSelector
    ticks: int

    def describe(self) -> str:
        return f"delay {self.selector} return by {self.ticks} ticks"


@dataclass(frozen=True)
class ForceReturn(Intervention):
    """Force the method's return value.

    With ``skip_body=True`` the body never runs and the value is returned
    (almost) immediately — the paper's repair for "runs too slow".  With
    ``skip_body=False`` the body runs normally but the returned value is
    replaced — the repair for "returns incorrect value".

    Return-value interventions are only *safe* on methods that do not
    mutate shared state (paper Section 3.3); the safety check lives in
    :mod:`repro.core.intervention`, not here.
    """

    selector: MethodSelector
    value: object
    skip_body: bool = False

    def describe(self) -> str:
        how = "skip body and return" if self.skip_body else "override return with"
        return f"{how} {self.value!r} in {self.selector}"


@dataclass(frozen=True)
class ForceOrder(Intervention):
    """Block the start of ``then`` until ``first`` has completed.

    Repairs order-violation predicates by re-imposing the ordering seen
    in successful executions.
    """

    first: MethodSelector
    then: MethodSelector

    def describe(self) -> str:
        return f"force {self.first} to complete before {self.then} starts"


@dataclass(frozen=True)
class MethodEntryPlan:
    """What the runtime must do when a matching method starts."""

    delays: int = 0
    locks: tuple[str, ...] = ()
    wait_for: tuple[MethodSelector, ...] = ()
    force_return: Optional[ForceReturn] = None  # only if skip_body


@dataclass(frozen=True)
class MethodExitPlan:
    """What the runtime must do when a matching method finishes."""

    delays: int = 0
    locks: tuple[str, ...] = ()
    force_return: Optional[ForceReturn] = None
    catch: Optional[CatchException] = None


#: The plans of every call no intervention names (immutable, so one
#: instance serves every such call).
NO_ENTRY_PLAN = MethodEntryPlan()
NO_EXIT_PLAN = MethodExitPlan()


def _selectors(item: Intervention) -> tuple[MethodSelector, ...]:
    """The selectors whose calls ``item`` changes."""
    if isinstance(item, SerializeMethods):
        return item.selectors
    if isinstance(item, ForceOrder):
        return (item.then,)
    if isinstance(item, (DelayBefore, DelayReturn, ForceReturn, CatchException)):
        return (item.selector,)
    return ()


class InterventionSet:
    """The active interventions for one simulated execution."""

    def __init__(self, interventions: tuple[Intervention, ...] = ()) -> None:
        self.interventions = tuple(interventions)
        #: the methods some intervention names; calls of any other
        #: method get the shared empty plans
        self.methods = frozenset(
            s.method for item in self.interventions for s in _selectors(item)
        )

    def __bool__(self) -> bool:
        return bool(self.interventions)

    def __len__(self) -> int:
        return len(self.interventions)

    def __iter__(self):
        return iter(self.interventions)

    def describe(self) -> list[str]:
        return [i.describe() for i in self.interventions]

    def entry_plan(self, method: str, thread: str, occurrence: int) -> MethodEntryPlan:
        if method not in self.methods:
            return NO_ENTRY_PLAN
        delays = 0
        locks: list[str] = []
        wait_for: list[MethodSelector] = []
        force_return = None
        for item in self.interventions:
            if isinstance(item, DelayBefore) and item.selector.matches(
                method, thread, occurrence
            ):
                delays += item.ticks
            elif isinstance(item, SerializeMethods):
                if any(s.matches(method, thread, occurrence) for s in item.selectors):
                    locks.append(item.lock_name)
            elif isinstance(item, ForceOrder) and item.then.matches(
                method, thread, occurrence
            ):
                wait_for.append(item.first)
            elif (
                isinstance(item, ForceReturn)
                and item.skip_body
                and item.selector.matches(method, thread, occurrence)
            ):
                force_return = item
        # Deterministic lock order prevents deadlocks among injected locks.
        return MethodEntryPlan(
            delays=delays,
            locks=tuple(sorted(set(locks))),
            wait_for=tuple(wait_for),
            force_return=force_return,
        )

    def exit_plan(self, method: str, thread: str, occurrence: int) -> MethodExitPlan:
        if method not in self.methods:
            return NO_EXIT_PLAN
        delays = 0
        locks: list[str] = []
        force_return = catch = None
        for item in self.interventions:
            if isinstance(item, DelayReturn) and item.selector.matches(
                method, thread, occurrence
            ):
                delays += item.ticks
            elif isinstance(item, SerializeMethods):
                if any(s.matches(method, thread, occurrence) for s in item.selectors):
                    locks.append(item.lock_name)
            elif (
                isinstance(item, ForceReturn)
                and not item.skip_body
                and item.selector.matches(method, thread, occurrence)
            ):
                force_return = item
            elif isinstance(item, CatchException) and item.selector.matches(
                method, thread, occurrence
            ):
                catch = item
        return MethodExitPlan(
            delays=delays,
            locks=tuple(sorted(set(locks), reverse=True)),
            force_return=force_return,
            catch=catch,
        )
