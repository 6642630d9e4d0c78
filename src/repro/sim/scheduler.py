"""The seeded nondeterministic discrete-event scheduler.

Threads are cooperative generators.  Execution is *duration-aware*:
every primitive action stamps its effects at the current virtual time
and then keeps its thread busy for the action's cost, so a thread inside
``work(200)`` genuinely lets other threads run for 200 ticks — exactly
like a real sleeping/computing thread.  At each step the scheduler asks
its :class:`~repro.sim.schedule.SchedulerStrategy` which of the
threads that are ready *now* runs next (the default strategy picks
uniformly at random from a seeded RNG); when none are ready, virtual
time jumps to the next ready instant.

A step costs what it changes, not what exists.  The whole step lives in
:meth:`Simulator.run`'s loop:

* waiting threads are re-checked only after the runtime raises its wake
  flag (a lock freed, a thread finished, or — only in a run holding a
  ``ForceOrder``, the one wait a call end can clear — a call
  completed), and only the threads that are waiting;
* one pass over the spawn-ordered thread table yields the candidates,
  already in canonical order, and the earliest ready instant in case
  none is ready; the clock is then set to the step's instant once;
* under the default :class:`~repro.sim.schedule.RandomStrategy` the
  pick is one :meth:`~repro.sim.schedule.RandomStrategy.draw` over the
  ready list, which consumes the RNG exactly as its ``choose`` would;
  any other strategy gets a :class:`~repro.sim.schedule.SchedulePoint`
  and its answer is checked against the ready set;
* the chosen thread's generator runs to its next action.  A sleep —
  three quarters of all actions — is handled right there: one Lamport
  tick, and the thread stays busy for its ticks.  Every other action
  goes to :meth:`Runtime.perform` and keeps the thread busy one tick;
* the step records the decision and the action it ran; the
  per-decision footprints exploration needs are derived from those
  actions on read (:attr:`ExecutionResult.footprints`).

The tie-breaking among simultaneously-ready threads is the *only*
source of nondeterminism in the simulator, and every decision is
recorded on the result as a replayable
:class:`~repro.sim.schedule.Schedule`, so:

* the same ``(program, interventions, seed)`` triple always reproduces
  the identical trace — interventions are diffable — and the same
  ``(program, interventions, schedule)`` triple replays it exactly;
* sweeping seeds reproduces the intermittent behaviour AID targets
  (some interleavings fail, most succeed — flaky by construction);
* every executed action gets a distinct timestamp (the clock advances by
  one serialization tick per action), which keeps temporal-precedence
  comparisons strict.

Failure modes recorded on the trace:

* ``crash`` — a :class:`~repro.sim.errors.SimulatedError` escaped a
  thread's outermost frame (any thread: an unhandled exception in a
  worker thread takes the process down, as in the paper's Kafka and
  Npgsql case studies);
* ``deadlock`` — no thread is runnable but some are blocked;
* ``hang`` — the step budget was exhausted (models unresponsiveness /
  test timeout).
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from typing import Callable, Optional

from .clock import LamportClock
from .errors import SimulatedError
from .faults import Intervention, InterventionSet
from .program import (
    Action,
    Program,
    SimContext,
    SleepAction,
    SpawnAction,
    action_footprint,
)
from .runtime import Blocked, Runtime
from .schedule import (
    RandomStrategy,
    Schedule,
    ScheduleError,
    SchedulePoint,
    SchedulerStrategy,
)
from .tracing import ExecutionTrace, FailureInfo

DEFAULT_MAX_STEPS = 50_000


@dataclass
class ExecutionResult:
    """Outcome of one simulated execution.

    ``schedule`` is the recorded decision list
    (:class:`repro.sim.schedule.Schedule`): replaying it under the same
    ``(program, interventions, seed)`` reproduces ``trace`` exactly.
    """

    trace: ExecutionTrace
    steps: int
    schedule: Optional[object] = None
    #: the action each decision executed, parallel to
    #: ``schedule.decisions`` (``None`` where the chosen thread finished
    #: or crashed instead)
    actions: tuple = ()

    @property
    def failed(self) -> bool:
        return self.trace.failed

    @property
    def failure(self) -> Optional[FailureInfo]:
        return self.trace.failure

    @property
    def footprints(self) -> tuple:
        """Per-decision resource footprints, parallel to
        ``schedule.decisions`` — the independence information
        :meth:`~repro.sim.schedule.Schedule.canonical_signature`
        consumes.  Derived from ``actions`` on each read, so the
        simulator's step loop never builds them."""
        if self.schedule is None:
            return ()
        return tuple(map(action_footprint, self.actions, self.schedule.decisions))


class ThreadStatus(Enum):
    RUNNABLE = "runnable"
    BLOCKED = "blocked"
    DONE = "done"
    CRASHED = "crashed"


class _Thread:
    """One simulated thread's scheduling state."""

    __slots__ = (
        "name", "gen", "lamport", "status", "pending_send",
        "pending_action", "blocked_on", "ready_at",
    )

    def __init__(self, name: str, gen, lamport: LamportClock, ready_at: int):
        self.name = name
        self.gen = gen  # generator of Actions
        self.lamport = lamport
        self.status = ThreadStatus.RUNNABLE
        self.pending_send = None
        self.pending_action = None  # action to retry after unblocking
        self.blocked_on: Optional[Blocked] = None
        self.ready_at = ready_at  # busy until this virtual time


_tuple_new = tuple.__new__


@dataclass
class Simulator:
    """Executes a :class:`~repro.sim.program.Program` under a seed.

    Parameters
    ----------
    program:
        The simulated application.
    max_steps:
        Hang budget; exceeding it marks the execution as failed with the
        ``hang`` signature.
    strategy_factory:
        Builds the per-run :class:`~repro.sim.schedule.SchedulerStrategy`
        from the seed.  ``None`` (the default) uses the historical
        seeded-uniform :class:`~repro.sim.schedule.RandomStrategy` —
        byte-identical traces for every existing
        ``(program, interventions, seed)`` triple.
    """

    program: Program
    max_steps: int = DEFAULT_MAX_STEPS
    strategy_factory: Optional[Callable[[int], SchedulerStrategy]] = None

    def run(
        self,
        seed: int,
        interventions: tuple[Intervention, ...] | InterventionSet = (),
        strategy: Optional[SchedulerStrategy] = None,
    ) -> ExecutionResult:
        """Run one execution and return its trace.

        ``strategy`` overrides the simulator's factory for this run
        (replay and exploration drivers pass one explicitly).
        """
        if not isinstance(interventions, InterventionSet):
            interventions = InterventionSet(tuple(interventions))
        if strategy is None:
            strategy = (
                self.strategy_factory(seed)
                if self.strategy_factory is not None
                else RandomStrategy(seed)
            )
        trace = ExecutionTrace(self.program.name, seed)
        runtime = Runtime(self.program, interventions, seed, trace)
        clock = runtime.clock
        decisions: list[str] = []
        actions: list[Optional[Action]] = []

        # Insertion order is spawn order, so filtering ``table`` yields
        # the canonical candidate order without sorting; ``threads``
        # maps a chosen name back to its thread.
        threads: dict[str, _Thread] = {}
        table: list[_Thread] = []
        # Threads waiting on a lock, a join or a call, in blocking order.
        waiting: list[_Thread] = []

        def start_thread(name: str, method: str, args: tuple, parent: Optional[str]):
            if name in threads:
                raise ValueError(f"duplicate thread name {name!r}")
            runtime.register_thread(name, spawned_by=parent)
            gen = SimContext(runtime, name).call(method, *args)
            t = _Thread(name, gen, runtime.lamport[name], clock.now)
            threads[name] = t
            table.append(t)

        start_thread("main", self.program.main, (), parent=None)

        RUNNABLE = ThreadStatus.RUNNABLE
        # The default strategy's pick is one seeded draw over the ready
        # list: no SchedulePoint to build, and no range check to make.
        # Every other strategy (a subclass too) gets the full point.
        draw = strategy.draw if type(strategy) is RandomStrategy else None
        choose = strategy.choose
        perform = runtime.perform
        record_decision = decisions.append
        record_action = actions.append
        max_steps = self.max_steps
        steps = 0
        while True:
            # Only a freed lock, a finished thread or (under a
            # ForceOrder) a completed call can clear a wait, and each of
            # those raises the flag.
            if runtime.wake:
                runtime.wake = False
                if waiting:
                    waiting = self._unblock(waiting, runtime)
            # Discrete-event step: one serialization tick, then run the
            # strategy's pick among threads whose busy period elapsed;
            # when nobody is ready yet, jump to the earliest ready
            # instant instead.
            execute_at = clock.now + 1
            eligible = []
            soonest = None
            for t in table:
                if t.status is RUNNABLE:
                    ready_at = t.ready_at
                    if ready_at <= execute_at:
                        eligible.append(t.name)
                    elif soonest is None or ready_at < soonest:
                        soonest = ready_at
            if not eligible and soonest is None:
                blocked = [t for t in table if t.status is ThreadStatus.BLOCKED]
                if blocked:
                    trace.record_failure(
                        FailureInfo(
                            mode="deadlock",
                            exception=None,
                            method=runtime.current_method(blocked[0].name),
                            thread=blocked[0].name,
                            time=clock.now,
                        )
                    )
                break  # all done, or deadlocked
            if steps >= max_steps:
                trace.record_failure(
                    FailureInfo(
                        mode="hang",
                        exception=None,
                        method=None,
                        thread=None,
                        time=clock.now,
                    )
                )
                break
            if not eligible:
                execute_at = soonest
                eligible = [
                    t.name
                    for t in table
                    if t.status is RUNNABLE and t.ready_at == soonest
                ]
            clock.now = execute_at
            if draw is not None:
                chosen = eligible[draw(len(eligible))]
            else:
                candidates = tuple(eligible)
                chosen = choose(
                    _tuple_new(SchedulePoint, (steps, execute_at, candidates))
                )
                if chosen not in candidates:
                    raise ScheduleError(
                        f"strategy chose {chosen!r}, not in the ready set "
                        f"{candidates} at decision {steps}"
                    )
            steps += 1
            record_decision(chosen)

            # Advance the chosen thread by one primitive action.
            thread = threads[chosen]
            try:
                action = thread.pending_action
                if action is not None:
                    thread.pending_action = None
                else:
                    action = thread.gen.send(thread.pending_send)
                    thread.pending_send = None
            except StopIteration:
                thread.status = ThreadStatus.DONE
                runtime.release_all(chosen)
                runtime.thread_finished(chosen)
                record_action(None)
                continue
            except SimulatedError as exc:
                self._crash(thread, exc, runtime, trace)
                record_action(None)
                continue
            record_action(action)

            # A sleep touches nothing shared: one Lamport tick, then the
            # thread stays busy for its ticks.  Every other action costs
            # one tick and runs in the runtime.
            if type(action) is SleepAction:
                thread.lamport.time += 1
                thread.ready_at = clock.now + action.ticks
                continue
            if type(action) is SpawnAction:
                start_thread(action.thread, action.method, action.args, chosen)
            result, blocked_on = perform(chosen, action)
            if blocked_on is not None:
                thread.status = ThreadStatus.BLOCKED
                thread.blocked_on = blocked_on
                thread.pending_action = action
                waiting.append(thread)
            else:
                thread.pending_send = result
                thread.ready_at = clock.now + 1

        for t in table:
            if t.status not in (ThreadStatus.DONE, ThreadStatus.CRASHED):
                t.gen.close()
                runtime.abort_thread_calls(t.name, "Unfinished")
        trace.end_time = clock.now
        return ExecutionResult(
            trace=trace,
            steps=steps,
            schedule=Schedule(
                program=self.program.name,
                seed=seed,
                decisions=tuple(decisions),
            ),
            actions=tuple(actions),
        )

    # -- internals -------------------------------------------------------

    def _crash(self, thread, exc: SimulatedError, runtime, trace) -> None:
        thread.status = ThreadStatus.CRASHED
        # The frames usually unwound already (ctx.call closes them as the
        # exception propagates), so recover the crash site — the
        # innermost frame that died with this exception — from the trace.
        method = runtime.current_method(thread.name)
        if method is None:
            dead = [
                m
                for m in trace.method_executions()
                if m.thread == thread.name and m.exception == exc.kind
            ]
            if dead:
                method = min(dead, key=lambda m: m.end_time).method
        runtime.abort_thread_calls(thread.name, exc.kind)
        runtime.release_all(thread.name)
        runtime.thread_finished(thread.name)
        trace.record_failure(
            FailureInfo(
                mode="crash",
                exception=exc.kind,
                method=method,
                thread=thread.name,
                time=runtime.clock.now,
            )
        )

    def _unblock(self, waiting: list, runtime: Runtime) -> list:
        """Make the waiting threads whose wait condition cleared
        runnable; returns the threads still waiting."""
        still = []
        for t in waiting:
            b = t.blocked_on
            if b.reason == "lock":
                clear = runtime.lock_owner.get(b.lock) is None
            elif b.reason == "join":
                clear = b.thread in runtime.finished_threads
            else:  # "event"
                clear = runtime.is_completed(b.selector)
            if clear:
                t.status = ThreadStatus.RUNNABLE
                t.blocked_on = None
            else:
                still.append(t)
        return still


def run_program(
    program: Program,
    seed: int,
    interventions: tuple[Intervention, ...] = (),
    max_steps: int = DEFAULT_MAX_STEPS,
) -> ExecutionResult:
    """Convenience one-shot runner."""
    return Simulator(program, max_steps=max_steps).run(seed, interventions)
