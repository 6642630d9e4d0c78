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

A step costs what it changes, not what exists: blocked threads are
re-checked only after the runtime raises its wake flag (a lock freed, a
thread finished, a call completed — nothing else can clear a wait), the
candidates come out of the spawn-ordered thread table already in
canonical order, and each step records the action it ran; the
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

from dataclasses import dataclass, field
from enum import Enum
from typing import Callable, Optional

from .errors import SimulatedError
from .faults import Intervention, InterventionSet
from .program import Action, Program, SimContext, SleepAction, SpawnAction
from .runtime import Blocked, Runtime
from .schedule import (
    RandomStrategy,
    Schedule,
    ScheduleError,
    SchedulePoint,
    SchedulerStrategy,
)
from .tracing import ExecutionResult, ExecutionTrace, FailureInfo

DEFAULT_MAX_STEPS = 50_000


class ThreadStatus(Enum):
    RUNNABLE = "runnable"
    BLOCKED = "blocked"
    DONE = "done"
    CRASHED = "crashed"


@dataclass
class _Thread:
    name: str
    gen: object  # generator of Actions
    ctx: SimContext
    status: ThreadStatus = ThreadStatus.RUNNABLE
    pending_send: object = None
    pending_action: object = None  # action to retry after unblocking
    blocked_on: Optional[Blocked] = None
    ready_at: int = 0  # busy until this virtual time (discrete-event)


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
    _spawn_counter: int = field(default=0, init=False, repr=False)

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

        # Insertion order is spawn order, so filtering ``threads`` yields
        # the canonical candidate order without sorting.
        threads: dict[str, _Thread] = {}

        def start_thread(name: str, method: str, args: tuple, parent: Optional[str]):
            if name in threads:
                raise ValueError(f"duplicate thread name {name!r}")
            runtime.register_thread(name, spawned_by=parent)
            ctx = SimContext(runtime, name)
            threads[name] = _Thread(
                name=name,
                gen=ctx.call(method, *args),
                ctx=ctx,
                ready_at=clock.now,
            )

        start_thread("main", self.program.main, (), parent=None)

        RUNNABLE = ThreadStatus.RUNNABLE
        steps = 0
        while True:
            # Only a freed lock, a finished thread or a completed call
            # can clear a wait, and each of those raises the flag.
            if runtime.wake:
                runtime.wake = False
                self._unblock(threads, runtime)
            # Discrete-event step: one serialization tick, then run the
            # strategy's pick among threads whose busy period elapsed.
            execute_at = clock.now + 1
            eligible = [
                t
                for t in threads.values()
                if t.status is RUNNABLE and t.ready_at <= execute_at
            ]
            runnable = eligible or [
                t for t in threads.values() if t.status is RUNNABLE
            ]
            if not runnable:
                blocked = [
                    t for t in threads.values() if t.status is ThreadStatus.BLOCKED
                ]
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
            if steps >= self.max_steps:
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
            steps += 1

            if not eligible:
                # Nobody is ready yet: jump to the earliest ready instant.
                execute_at = min(t.ready_at for t in runnable)
                clock.advance(execute_at - clock.now - 1)
                eligible = [t for t in runnable if t.ready_at <= execute_at]
            clock.advance(1)
            point = SchedulePoint(
                len(decisions), execute_at, tuple([t.name for t in eligible])
            )
            chosen = strategy.choose(point)
            if chosen not in point.candidates:
                raise ScheduleError(
                    f"strategy chose {chosen!r}, not in the ready set "
                    f"{point.candidates} at decision {point.index}"
                )
            decisions.append(chosen)
            actions.append(self._step(threads[chosen], runtime, trace, start_thread))

        for t in threads.values():
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

    def _step(self, thread, runtime, trace, start_thread) -> Optional[Action]:
        """Advance one thread by one primitive action; returns the action
        (``None`` when the thread finished or crashed instead)."""
        try:
            if thread.pending_action is not None:
                action = thread.pending_action
                thread.pending_action = None
            else:
                action = thread.gen.send(thread.pending_send)
                thread.pending_send = None
        except StopIteration:
            thread.status = ThreadStatus.DONE
            runtime.release_all(thread.name)
            runtime.thread_finished(thread.name)
            return None
        except SimulatedError as exc:
            self._crash(thread, exc, runtime, trace)
            return None

        if isinstance(action, SpawnAction):
            start_thread(action.thread, action.method, action.args, thread.name)

        result, blocked = runtime.perform(thread.name, action)
        if blocked is not None:
            thread.status = ThreadStatus.BLOCKED
            thread.blocked_on = blocked
            thread.pending_action = action
        else:
            thread.pending_send = result
            # The thread stays busy for the action's cost; its next
            # action executes no earlier than ready_at.
            thread.ready_at = runtime.clock.now + (
                action.ticks if isinstance(action, SleepAction) else 1
            )
        return action

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

    def _unblock(self, threads: dict, runtime: Runtime) -> None:
        """Move blocked threads whose wait condition cleared to runnable."""
        for t in threads.values():
            if t.status is not ThreadStatus.BLOCKED or t.blocked_on is None:
                continue
            b = t.blocked_on
            clear = False
            if b.reason == "lock":
                owner = runtime.lock_owner.get(b.lock)
                clear = owner is None
            elif b.reason == "join":
                clear = b.thread in runtime.finished_threads
            elif b.reason == "event":
                clear = runtime.is_completed(b.selector)
            if clear:
                t.status = ThreadStatus.RUNNABLE
                t.blocked_on = None


def run_program(
    program: Program,
    seed: int,
    interventions: tuple[Intervention, ...] = (),
    max_steps: int = DEFAULT_MAX_STEPS,
) -> ExecutionResult:
    """Convenience one-shot runner."""
    return Simulator(program, max_steps=max_steps).run(seed, interventions)
