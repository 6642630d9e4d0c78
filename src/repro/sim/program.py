"""The simulated-program DSL: programs, methods, and the thread context.

A simulated program is a table of *methods*.  A method is a Python
generator function taking a :class:`SimContext` first:

.. code-block:: python

    def try_get_value(ctx, key):
        slot = yield from ctx.read("_nextSlot")
        yield from ctx.work(2)                 # local computation
        pools = yield from ctx.read("_pools")
        return pools[slot] if slot < len(pools) else None

    def main(ctx):
        yield from ctx.spawn("t1", "TryGetValue", "db1")
        yield from ctx.call("GetOrAdd", "db1")
        yield from ctx.join("t1")

    program = Program(
        name="demo",
        methods={"TryGetValue": try_get_value, "GetOrAdd": get_or_add,
                 "Main": main},
        main="Main",
        shared={"_nextSlot": 0, "_pools": ()},
    )

Every interaction with the outside world — shared variables, locks, time,
thread management, nested calls — goes through ``yield from ctx.<op>()``.
The yields bubble primitive :class:`Action` objects up to the scheduler,
which executes them one at a time under a seeded interleaving.  This is
what makes executions (a) fully deterministic given a seed, and (b)
nondeterministic *across* seeds, reproducing the intermittent failures
AID targets.

Method calls are traced (start/end time, accesses, return value,
exception — the Figure 9b schema) and are the unit of fault injection:
the context consults the runtime's :class:`~repro.sim.faults.InterventionSet`
at every method entry and exit.
"""

from __future__ import annotations

import hashlib
import random
from dataclasses import dataclass, field
from functools import lru_cache
from typing import Any, Callable, Generator, Mapping, Optional

from .errors import SimulatedError, UnknownMethodError
from .faults import NO_ENTRY_PLAN, NO_EXIT_PLAN, MethodSelector

MethodFn = Callable[..., Generator]


# ---------------------------------------------------------------------------
# Primitive actions (the scheduler's instruction set)
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class Action:
    """Base class for primitive actions.  Each costs one virtual tick,
    except :class:`SleepAction`, which costs its ``ticks``."""


@dataclass(frozen=True)
class ReadAction(Action):
    var: str


@dataclass(frozen=True)
class WriteAction(Action):
    var: str
    value: Any


@dataclass(frozen=True)
class AcquireAction(Action):
    lock: str


@dataclass(frozen=True)
class ReleaseAction(Action):
    lock: str


@dataclass(frozen=True)
class SleepAction(Action):
    ticks: int


#: Sleeps are most of what threads yield (``work`` and the tick of call
#: overhead); actions are immutable values, so one instance per
#: duration serves every yield of it.
sleep_action = lru_cache(maxsize=1024)(SleepAction)

#: The tick of overhead every traced call pays.
_CALL_OVERHEAD = sleep_action(1)


@dataclass(frozen=True)
class SpawnAction(Action):
    thread: str
    method: str
    args: tuple


@dataclass(frozen=True)
class JoinAction(Action):
    thread: str


@dataclass(frozen=True)
class WaitCompletedAction(Action):
    """Block until a method invocation matching ``selector`` completes."""

    selector: MethodSelector


def action_footprint(action: Optional[Action], thread: str) -> frozenset:
    """The resources one scheduling decision touches, as
    ``(key, is_write)`` pairs — the independence relation partial-order
    pruning is built on (see
    :func:`repro.sim.schedule.canonical_decisions`).

    Every decision writes its own ``thread:`` key (program order; also
    what thread completion — ``action is None`` — amounts to), reads or
    writes the shared variable / lock / peer-thread key its action
    names, and a :class:`WaitCompletedAction` writes the global barrier
    key ``"*"`` (its wake-up condition can depend on any thread's
    progress, so it commutes with nothing).
    """
    keys: set[tuple[str, bool]] = {(f"thread:{thread}", True)}
    if isinstance(action, ReadAction):
        keys.add((f"var:{action.var}", False))
    elif isinstance(action, WriteAction):
        keys.add((f"var:{action.var}", True))
    elif isinstance(action, (AcquireAction, ReleaseAction)):
        keys.add((f"lock:{action.lock}", True))
    elif isinstance(action, SpawnAction):
        keys.add((f"thread:{action.thread}", True))
    elif isinstance(action, JoinAction):
        keys.add((f"thread:{action.thread}", False))
    elif isinstance(action, WaitCompletedAction):
        keys.add(("*", True))
    return frozenset(keys)


# ---------------------------------------------------------------------------
# Program definition
# ---------------------------------------------------------------------------


@dataclass
class Program:
    """A complete simulated application.

    Parameters
    ----------
    name:
        Identifier used on traces and in reports.
    methods:
        Method table; keys are the names used by ``ctx.call`` /
        ``ctx.spawn`` and by predicates and interventions.
    main:
        Name of the entry method, run on the ``main`` thread.
    shared:
        Initial values of the shared (traced) variables.  Each key is an
        "object id" in the paper's sense; reads and writes of these are
        what the data-race detector sees.
    params:
        Free-form workload parameters, readable via ``ctx.param``.
    readonly_methods:
        Methods that do not mutate shared or external state.  Only these
        may receive return-value or exception-handling interventions
        (the paper's *safe intervention* restriction, Section 3.3).
    """

    name: str
    methods: Mapping[str, MethodFn]
    main: str
    shared: Mapping[str, Any] = field(default_factory=dict)
    params: Mapping[str, Any] = field(default_factory=dict)
    readonly_methods: frozenset[str] = frozenset()
    description: str = ""

    def __post_init__(self) -> None:
        if self.main not in self.methods:
            raise UnknownMethodError(self.main)

    def method(self, name: str) -> MethodFn:
        try:
            return self.methods[name]
        except KeyError:
            raise UnknownMethodError(name) from None


def _stable_seed(seed: int, label: str) -> int:
    """Derive a per-thread RNG seed that is stable across runs.

    ``hash()`` is salted per process, so we derive from md5 instead.
    """
    digest = hashlib.md5(f"{seed}:{label}".encode()).digest()
    return int.from_bytes(digest[:8], "big")


# ---------------------------------------------------------------------------
# SimContext: the API surface visible to simulated methods
# ---------------------------------------------------------------------------


class SimContext:
    """Per-thread handle through which simulated code acts on the world.

    All operations are generators and must be invoked as
    ``yield from ctx.<op>(...)`` so the primitive actions reach the
    scheduler.  The few exceptions (``rand``, ``now``, ``param``,
    ``throw``) are pure/local and documented as such.  ``runtime`` is
    the run's :class:`~repro.sim.runtime.Runtime`, which builds one
    context per thread.
    """

    def __init__(self, runtime, thread: str) -> None:
        self.runtime = runtime
        self.thread = thread
        self.program = runtime.program
        self._methods = runtime.program.methods
        self._intervened = runtime.interventions.methods
        self._rng: Optional[random.Random] = None

    # -- local (non-yielding) helpers -----------------------------------

    def _thread_rng(self) -> random.Random:
        # Seeded on first use: most threads never draw.
        if self._rng is None:
            self._rng = random.Random(_stable_seed(self.runtime.seed, self.thread))
        return self._rng

    def rand(self) -> float:
        """Thread-local deterministic RNG (stable across interleavings)."""
        return self._thread_rng().random()

    def randint(self, lo: int, hi: int) -> int:
        return self._thread_rng().randint(lo, hi)

    def now(self) -> int:
        """Current virtual time (no cost)."""
        return self.runtime.clock.now

    def param(self, name: str, default: Any = None) -> Any:
        return self.program.params.get(name, default)

    def throw(self, kind: str, message: str = "") -> None:
        """Raise a simulated exception (crashes the thread if uncaught)."""
        raise SimulatedError(kind, message)

    def fail(self, message: str = "") -> None:
        """Fail an application-level assertion."""
        raise SimulatedError("AssertionFailure", message)

    # -- traced primitives ----------------------------------------------

    def read(self, var: str):
        """Read a shared variable (traced as an ``R`` access)."""
        value = yield ReadAction(var)
        return value

    def write(self, var: str, value: Any):
        """Write a shared variable (traced as a ``W`` access)."""
        yield WriteAction(var, value)

    def update(self, var: str, fn: Callable[[Any], Any]):
        """Read-modify-write *without* atomicity (two separate accesses).

        This is deliberately racy: the value may change between the read
        and the write — the classic lost-update window.
        """
        value = yield ReadAction(var)
        yield WriteAction(var, fn(value))
        return fn(value)

    def sleep(self, ticks: int):
        if ticks > 0:
            yield sleep_action(ticks)

    def work(self, ticks: int = 1):
        """Local computation: advances time, touches nothing shared."""
        if ticks > 0:
            yield sleep_action(ticks)

    def acquire(self, lock: str):
        yield AcquireAction(lock)

    def release(self, lock: str):
        yield ReleaseAction(lock)

    def spawn(self, thread: str, method: str, *args: Any):
        """Start ``method`` on a new thread named ``thread``."""
        self.program.method(method)  # validate early
        yield SpawnAction(thread=thread, method=method, args=args)

    def join(self, thread: str):
        yield JoinAction(thread=thread)

    def peek(self, var: str) -> Any:
        """Untraced read of shared state (harness plumbing, zero cost).

        Use only for workload orchestration that must not generate
        predicates (e.g. checking a scenario flag).
        """
        return self.runtime.shared.get(var)

    def poke(self, var: str, value: Any) -> None:
        """Untraced write of shared state (harness plumbing, zero cost)."""
        self.runtime.shared[var] = value

    # -- method calls (traced + intervention points) ---------------------

    def call(self, name: str, *args: Any, **kwargs: Any):
        """Invoke a program method, recording it on the trace.

        This is the heart of fault injection: entry and exit plans from
        the active :class:`~repro.sim.faults.InterventionSet` are applied
        around the body.  A method no intervention names gets the shared
        empty plans without asking for them.
        """
        try:
            fn = self._methods[name]
        except KeyError:
            raise UnknownMethodError(name) from None
        runtime = self.runtime
        thread = self.thread
        if name in self._intervened:
            interventions = runtime.interventions
            occurrence = runtime.trace.peek_occurrence(thread, name)
            entry = interventions.entry_plan(name, thread, occurrence)
            exit_ = interventions.exit_plan(name, thread, occurrence)
            for selector in entry.wait_for:
                yield WaitCompletedAction(selector=selector)
            for lock in entry.locks:
                yield AcquireAction(lock)
            if entry.delays:
                yield sleep_action(entry.delays)
        else:
            entry, exit_ = NO_ENTRY_PLAN, NO_EXIT_PLAN
        locks = entry.locks

        call_id = runtime.begin_method(thread, name)
        body_skipped = entry.force_return is not None
        try:
            # One tick of call overhead: guarantees every window has
            # positive width so cross-thread overlap is well defined.
            yield _CALL_OVERHEAD
            if body_skipped:
                ret: Any = entry.force_return.value
            else:
                ret = yield from fn(self, *args, **kwargs)
        except SimulatedError as exc:
            if exit_.catch is not None:
                ret = exit_.catch.fallback
            else:
                runtime.end_method(thread, call_id, None, exc.kind)
                if locks:
                    for lock in reversed(locks):
                        yield ReleaseAction(lock)
                raise
        if exit_.delays:
            yield sleep_action(exit_.delays)
        if exit_.force_return is not None:
            ret = exit_.force_return.value
        runtime.end_method(thread, call_id, ret, None, body_skipped)
        if locks:
            for lock in reversed(locks):
                yield ReleaseAction(lock)
        return ret
