"""Execution-trace schema: the contract between simulator and AID core.

The paper's instrumentation (Appendix A, Figure 9b) records, per executed
method: start/end time, thread id, ids of accessed objects with access
type, return value, and whether it threw an exception.  AID's predicate
extraction consumes only this trace — it never looks inside the program.
This module defines exactly that schema for the simulator.

A trace is append-only during execution and post-processed once into
:class:`MethodExecution` records (the "method execution signature list"
of Figure 9b) by :meth:`ExecutionTrace.method_executions`.  The records
(:class:`Access`, :class:`MethodExecution`, :class:`MethodKey`) are
``NamedTuple`` classes: the simulator builds one per traced call and the
decoder one per stored call, and a tuple is the cheapest immutable
record to build and to hash.

Reading is index-backed: the first read after a write builds one cached
index (start-time order, by-key map, by-method map) that every
subsequent ``lookup`` / ``method_executions`` / ``executions_of`` call
answers in O(1)/O(copy) instead of rescanning or re-sorting the call
list.  Any completed call invalidates the index, so interleaved
record/read sequences stay correct — the evaluation kernel
(:mod:`repro.core.evalkernel`) leans on this contract.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from enum import Enum
from typing import Iterator, Mapping, NamedTuple, Optional

from ..decode import register_leaf


class AccessType(str, Enum):
    READ = "R"
    WRITE = "W"


class Access(NamedTuple):
    """One read or write of a shared object."""

    obj: str
    access_type: AccessType
    thread: str
    method: str
    call_id: int
    time: int
    lamport: int
    locks_held: frozenset[str]

    @property
    def is_write(self) -> bool:
        return self.access_type is AccessType.WRITE


class MethodKey(NamedTuple):
    """Stable cross-execution identity of a method invocation."""

    method: str
    thread: str
    occurrence: int

    def __str__(self) -> str:
        return f"{self.thread}:{self.method}#{self.occurrence}"


def _method_key(raw: object) -> Optional[MethodKey]:
    if type(raw) is list and list(map(type, raw)) == [str, str, int]:
        if raw[2] >= 0:  # occurrences count from 0
            return MethodKey(*raw)
    return None


register_leaf(
    MethodKey, "$key", "a method key", "[method, thread, occurrence >= 0]",
    _method_key,
)

class MethodExecution(NamedTuple):
    """One completed (or crashed) invocation of a simulated method.

    ``occurrence`` is the 0-based index of this invocation among all
    invocations of ``method`` by the same thread, in program order.  The
    paper maps repeated executions of the same statement to separate
    predicates by relative order of appearance (Section 4); occurrence
    numbers are the simulator's realization of that.  ``key`` is the
    invocation's :class:`MethodKey`, a trailing field derived from
    ``(method, thread, occurrence)``: build records with
    :func:`method_execution`, which fills it in once.
    """

    call_id: int
    method: str
    thread: str
    occurrence: int
    start_time: int
    end_time: int
    start_lamport: int
    end_lamport: int
    parent_call_id: Optional[int]
    return_value: object
    exception: Optional[str]
    accesses: tuple[Access, ...]
    #: True when a skip-body intervention replaced the method's body.
    body_skipped: bool
    key: MethodKey

    @property
    def duration(self) -> int:
        return self.end_time - self.start_time

    @property
    def failed(self) -> bool:
        return self.exception is not None

    def overlaps(self, other: "MethodExecution") -> bool:
        """Whether the two method windows overlap in virtual time."""
        return self.start_time < other.end_time and other.start_time < self.end_time


_tuple_new = tuple.__new__


def method_execution(
    call_id: int,
    method: str,
    thread: str,
    occurrence: int,
    start_time: int,
    end_time: int,
    start_lamport: int,
    end_lamport: int,
    parent_call_id: Optional[int],
    return_value: object,
    exception: Optional[str],
    accesses: tuple[Access, ...],
    body_skipped: bool,
) -> MethodExecution:
    """A :class:`MethodExecution` with its ``key`` filled in.

    The one constructor the simulator and the trace decoder share.  It
    skips the generated ``__new__``: records are built once per traced
    call, on the hot path of both.
    """
    key = _tuple_new(MethodKey, (method, thread, occurrence))
    return _tuple_new(
        MethodExecution,
        (
            call_id, method, thread, occurrence,
            start_time, end_time, start_lamport, end_lamport,
            parent_call_id, return_value, exception, accesses, body_skipped,
            key,
        ),
    )


@dataclass(frozen=True)
class FailureInfo:
    """Signature of a failed execution.

    Failures with the same signature are assumed to share a root cause
    (paper Section 5.1: failure trackers group by signature); AID runs
    against one signature at a time.
    """

    mode: str  # SimulationFault.* value
    exception: Optional[str]  # simulated exception kind, if a crash
    method: Optional[str]  # method in which the failure surfaced
    thread: Optional[str]
    time: int = 0

    @property
    def signature(self) -> str:
        parts = [self.mode]
        if self.exception:
            parts.append(self.exception)
        if self.method:
            parts.append(self.method)
        return "/".join(parts)


class _TraceIndex:
    """Derived read structures over a trace's completed calls.

    A live trace builds it lazily on first read and throws it away on
    the next write (a completed call), so readers never observe a stale
    view.
    """

    __slots__ = ("ordered", "by_key", "by_method")

    def __init__(self, completed: list[MethodExecution]) -> None:
        self.ordered = sorted(completed, key=lambda m: (m.start_time, m.call_id))
        self.by_key: dict[MethodKey, MethodExecution] = {}
        self.by_method: dict[str, list[MethodExecution]] = {}
        for m in self.ordered:
            self.by_key[m.key] = m
            self.by_method.setdefault(m.method, []).append(m)


class TraceReader:
    """The read API every trace offers, answered from one
    :class:`_TraceIndex` built lazily from ``_completed`` on the first
    read: the simulator's :class:`ExecutionTrace` drops it on its next
    write, a decoded trace
    (:class:`repro.sim.serialize.ImportedTrace`) keeps it.
    """

    failure: Optional[FailureInfo]
    #: content address, stamped by the corpus store on ingest or load
    fingerprint: Optional[str] = None
    _index: Optional[_TraceIndex]
    _completed: list[MethodExecution]

    @property
    def failed(self) -> bool:
        return self.failure is not None

    def _indexed(self) -> _TraceIndex:
        index = self._index
        if index is None:
            index = self._index = _TraceIndex(self._completed)
        return index

    def method_executions(self) -> list[MethodExecution]:
        """The signature list of Figure 9b, ordered by start time."""
        return list(self._indexed().ordered)

    def executions_of(self, method: str) -> Iterator[MethodExecution]:
        return iter(self._indexed().by_method.get(method, ()))

    def executions_by_key(self) -> Mapping[MethodKey, MethodExecution]:
        """Completed calls keyed by :class:`MethodKey` (keys are unique
        per trace: the occurrence counter disambiguates re-invocations).
        The returned mapping is the live index — treat it as read-only;
        it is replaced wholesale when the trace records another call."""
        return self._indexed().by_key

    def lookup(self, key: MethodKey) -> Optional[MethodExecution]:
        return self._indexed().by_key.get(key)

    def accesses(self) -> Iterator[Access]:
        for m in self._indexed().ordered:
            yield from m.accesses

    def objects_accessed(self) -> set[str]:
        return {a.obj for a in self.accesses()}


class ExecutionTrace(TraceReader):
    """Raw event log of one simulated execution."""

    def __init__(self, program_name: str, seed: int) -> None:
        self.program_name = program_name
        self.seed = seed
        self._call_ids = itertools.count()
        #: call id -> (method, thread, occurrence, start time, start
        #: Lamport stamp, parent call id, accesses so far)
        self._open_calls: dict[int, tuple] = {}
        self._occurrences: dict[tuple[str, str], int] = {}
        self._completed: list[MethodExecution] = []
        self._index: Optional[_TraceIndex] = None
        self.failure: Optional[FailureInfo] = None
        self.end_time: int = 0

    # -- recording -----------------------------------------------------

    def begin_call(
        self,
        method: str,
        thread: str,
        time: int,
        lamport: int,
        parent_call_id: Optional[int],
    ) -> int:
        call_id = next(self._call_ids)
        occurrence = self._occurrences.get((thread, method), 0)
        self._occurrences[(thread, method)] = occurrence + 1
        self._open_calls[call_id] = (
            method, thread, occurrence, time, lamport, parent_call_id, []
        )
        return call_id

    def peek_occurrence(self, thread: str, method: str) -> int:
        """The occurrence index the *next* call of ``method`` will get."""
        return self._occurrences.get((thread, method), 0)

    def end_call(
        self,
        call_id: int,
        time: int,
        lamport: int,
        return_value: object,
        exception: Optional[str],
        body_skipped: bool = False,
    ) -> MethodExecution:
        method, thread, occurrence, start, start_lamport, parent, accesses = (
            self._open_calls.pop(call_id)
        )
        record = method_execution(
            call_id, method, thread, occurrence,
            start, time, start_lamport, lamport,
            parent, return_value, exception, tuple(accesses), body_skipped,
        )
        self._completed.append(record)
        self._index = None  # write-invalidate the read index
        return record

    def record_access(self, access: Access) -> None:
        frame = self._open_calls.get(access.call_id)
        if frame is not None:
            frame[6].append(access)

    def record_failure(self, failure: FailureInfo) -> None:
        # Keep the earliest failure; a crash may cascade.
        if self.failure is None:
            self.failure = failure

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        status = f"FAILED({self.failure.signature})" if self.failed else "ok"
        return (
            f"<ExecutionTrace {self.program_name} seed={self.seed} "
            f"{len(self._completed)} calls {status}>"
        )
