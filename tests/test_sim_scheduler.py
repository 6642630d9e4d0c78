"""Scheduler semantics: determinism, discrete-event timing, failures."""

from __future__ import annotations

import random
import sys
from dataclasses import FrozenInstanceError
from pathlib import Path

import pytest

from repro.harness.experiments import CASE_STUDY_ORDER
from repro.sim import (
    DEFAULT_MAX_STEPS,
    DelayBefore,
    ForceOrder,
    InterventionSet,
    MethodKey,
    MethodSelector,
    Program,
    RandomStrategy,
    SchedulePoint,
    Simulator,
    run_program,
)
from repro.sim.faults import NO_ENTRY_PLAN, NO_EXIT_PLAN
from repro.sim.program import action_footprint
from repro.sim.runtime import Runtime
from repro.sim.serialize import (
    encode_trace,
    trace_fingerprint,
    trace_from_dict,
    trace_to_dict,
)
from repro.sim.tracing import ExecutionTrace
from repro.workloads.common import REGISTRY

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "scripts"))

import golden_sim  # noqa: E402


def _linear_program(body):
    return Program(name="p", methods={"Main": body}, main="Main")


class TestDeterminism:
    def test_same_seed_same_trace(self, racy_program):
        a = run_program(racy_program, 123).trace
        b = run_program(racy_program, 123).trace
        sig_a = [(m.key, m.start_time, m.end_time, m.return_value)
                 for m in a.method_executions()]
        sig_b = [(m.key, m.start_time, m.end_time, m.return_value)
                 for m in b.method_executions()]
        assert sig_a == sig_b
        assert a.failed == b.failed

    def test_different_seeds_vary_timing(self, racy_program):
        timings = set()
        for seed in range(20):
            trace = run_program(racy_program, seed).trace
            timings.add(
                tuple(m.start_time for m in trace.method_executions())
            )
        assert len(timings) > 1, "seeds should produce varied interleavings"

    def test_intermittent_failure(self, racy_program):
        outcomes = [run_program(racy_program, s).failed for s in range(150)]
        assert any(outcomes), "some interleavings must fail"
        assert not all(outcomes), "some interleavings must succeed"


class TestDiscreteEventTiming:
    def test_work_occupies_virtual_time(self):
        def main(ctx):
            start = ctx.now()
            yield from ctx.work(100)
            assert ctx.now() - start >= 100
            return "ok"

        result = run_program(_linear_program(main), 0)
        assert not result.failed

    def test_long_work_lets_other_threads_run(self):
        """A thread in work(200) must not block others (DES semantics)."""

        def main(ctx):
            yield from ctx.spawn("quick", "Quick")
            yield from ctx.work(200)
            finished_at = ctx.peek("quick_done")
            assert finished_at is not None, "quick thread starved"
            assert finished_at < ctx.now()
            yield from ctx.join("quick")
            return "ok"

        def quick(ctx):
            yield from ctx.work(5)
            ctx.poke("quick_done", ctx.now())
            return "quick"

        program = Program(
            name="des", methods={"Main": main, "Quick": quick}, main="Main"
        )
        for seed in range(10):
            assert not run_program(program, seed).failed

    def test_durations_control_ordering(self):
        """A 10-tick task always completes before a 300-tick one."""

        def main(ctx):
            yield from ctx.spawn("slowpoke", "Slow")
            yield from ctx.work(10)
            assert ctx.peek("slow_done") is None
            yield from ctx.join("slowpoke")
            assert ctx.peek("slow_done") is not None
            return "ok"

        def slow(ctx):
            yield from ctx.work(300)
            ctx.poke("slow_done", True)
            return "slow"

        program = Program(
            name="order", methods={"Main": main, "Slow": slow}, main="Main"
        )
        for seed in range(10):
            assert not run_program(program, seed).failed

    def test_event_timestamps_strictly_increase_per_thread(self, racy_program):
        trace = run_program(racy_program, 5).trace
        for m in trace.method_executions():
            assert m.end_time > m.start_time
            times = [a.time for a in m.accesses]
            assert times == sorted(times)


class TestFailureModes:
    def test_deadlock_detected(self):
        def main(ctx):
            yield from ctx.spawn("other", "Other")
            yield from ctx.acquire("a")
            yield from ctx.work(10)
            yield from ctx.acquire("b")  # other holds b, wants a
            return "unreachable"

        def other(ctx):
            yield from ctx.acquire("b")
            yield from ctx.work(10)
            yield from ctx.acquire("a")
            return "unreachable"

        program = Program(
            name="dl", methods={"Main": main, "Other": other}, main="Main"
        )
        modes = {run_program(program, s).failure.mode for s in range(5)}
        assert modes == {"deadlock"}

    def test_hang_detected_via_step_budget(self):
        def main(ctx):
            while True:
                yield from ctx.work(1)

        result = Simulator(_linear_program(main), max_steps=500).run(0)
        assert result.failed
        assert result.failure.mode == "hang"

    def test_worker_crash_fails_the_execution(self):
        def main(ctx):
            yield from ctx.spawn("w", "Worker")
            yield from ctx.join("w")
            return "ok"

        def worker(ctx):
            yield from ctx.work(2)
            ctx.throw("Boom", "worker died")

        program = Program(
            name="crash", methods={"Main": main, "Worker": worker}, main="Main"
        )
        result = run_program(program, 0)
        assert result.failed
        assert result.failure.mode == "crash"
        assert result.failure.exception == "Boom"
        assert result.failure.thread == "w"
        assert result.failure.method == "Worker"

    def test_crash_releases_locks(self):
        def main(ctx):
            yield from ctx.spawn("w", "Worker")
            yield from ctx.work(20)
            yield from ctx.acquire("shared")  # must not deadlock
            yield from ctx.release("shared")
            yield from ctx.join("w")
            return "ok"

        def worker(ctx):
            yield from ctx.acquire("shared")
            yield from ctx.work(2)
            ctx.throw("Boom")

        program = Program(
            name="lockcrash", methods={"Main": main, "Worker": worker}, main="Main"
        )
        result = run_program(program, 0)
        assert result.failure.mode == "crash"  # not a deadlock

    def test_failure_signature_stable_across_seeds(self, racy_program):
        signatures = {
            run_program(racy_program, s).failure.signature
            for s in range(200)
            if run_program(racy_program, s).failed
        }
        assert signatures == {"crash/TornRead/Reader"}


class TestThreadLifecycle:
    def test_join_waits_for_completion(self):
        def main(ctx):
            yield from ctx.spawn("w", "Worker")
            yield from ctx.join("w")
            assert ctx.peek("done") is True
            return "ok"

        def worker(ctx):
            yield from ctx.work(50)
            ctx.poke("done", True)
            return None

        program = Program(
            name="join", methods={"Main": main, "Worker": worker}, main="Main"
        )
        for seed in range(10):
            assert not run_program(program, seed).failed

    def test_duplicate_thread_name_rejected(self):
        def main(ctx):
            yield from ctx.spawn("w", "Worker")
            yield from ctx.spawn("w", "Worker")

        def worker(ctx):
            yield from ctx.work(1)

        program = Program(
            name="dup", methods={"Main": main, "Worker": worker}, main="Main"
        )
        with pytest.raises(ValueError, match="duplicate thread name"):
            run_program(program, 0)

    def test_execution_waits_for_all_threads(self):
        def main(ctx):
            yield from ctx.spawn("bg", "Background")
            return "main-done"  # exits without joining

        def background(ctx):
            yield from ctx.work(100)
            ctx.poke("bg_done", True)
            return None

        program = Program(
            name="bg", methods={"Main": main, "Background": background}, main="Main"
        )
        result = run_program(program, 0)
        assert not result.failed
        bg = next(result.trace.executions_of("Background"))
        assert bg.end_time > 100

    def test_default_step_budget_is_generous(self):
        assert DEFAULT_MAX_STEPS >= 10_000


class TestStepRecords:
    """The step loop records actions; footprints are derived on read."""

    @pytest.mark.parametrize("workload", ["npgsql", "kafka", "cosmosdb"])
    def test_footprints_derive_from_recorded_actions(self, workload):
        program = REGISTRY.build(workload).program
        for seed in range(10):
            result = Simulator(program).run(seed)
            decisions = result.schedule.decisions
            assert len(result.actions) == len(decisions) == result.steps
            assert result.footprints == tuple(
                action_footprint(action, thread)
                for action, thread in zip(result.actions, decisions)
            )

    def test_finishing_and_crashing_steps_record_no_action(self):
        def main(ctx):
            yield from ctx.spawn("w", "Worker")
            yield from ctx.join("w")

        def worker(ctx):
            yield from ctx.work(2)
            ctx.throw("Boom")

        program = Program(
            name="ends", methods={"Main": main, "Worker": worker}, main="Main"
        )
        result = run_program(program, 0)
        ends = [
            thread
            for action, thread in zip(result.actions, result.schedule.decisions)
            if action is None
        ]
        assert sorted(ends) == ["main", "w"]  # one finish, one crash

    def test_schedule_point_is_a_keyword_constructible_tuple(self):
        point = SchedulePoint(index=3, time=7, candidates=("a", "b"))
        assert (point.index, point.time, point.candidates) == (3, 7, ("a", "b"))
        assert point == SchedulePoint(3, 7, ("a", "b"))
        with pytest.raises(AttributeError):
            point.index = 4

    def test_unnamed_methods_share_the_empty_plans(self):
        ivs = InterventionSet((DelayBefore(MethodSelector("M"), ticks=2),))
        for plans in (InterventionSet(), ivs):
            assert plans.entry_plan("Other", "main", 0) is NO_ENTRY_PLAN
            assert plans.exit_plan("Other", "main", 0) is NO_EXIT_PLAN
        assert ivs.entry_plan("M", "main", 0).delays == 2
        with pytest.raises(FrozenInstanceError):
            NO_ENTRY_PLAN.delays = 1

    @pytest.mark.parametrize("workload", ["network", "npgsql", "kafka"])
    def test_method_key_matches_the_record_fields(self, workload):
        program = REGISTRY.build(workload).program
        for seed in range(5):
            trace = run_program(program, seed).trace
            decoded = trace_from_dict(trace_to_dict(trace))
            for live in (trace, decoded):
                for m in live.method_executions():
                    assert m.key is m.key  # built once, with the record
                    assert m.key == MethodKey(m.method, m.thread, m.occurrence)
                    assert type(m.key) is MethodKey

    def test_method_key_text_and_hash_are_unchanged(self):
        key = MethodKey("Poll", "worker-0", 2)
        assert str(key) == "worker-0:Poll#2"
        assert repr(key) == (
            "MethodKey(method='Poll', thread='worker-0', occurrence=2)"
        )
        assert hash(key) == hash(("Poll", "worker-0", 2))
        assert sorted([MethodKey("b", "t", 0), MethodKey("a", "u", 1)]) == [
            MethodKey("a", "u", 1),
            MethodKey("b", "t", 0),
        ]

    def test_serialized_calls_carry_no_key_and_fingerprint_is_pinned(self):
        trace = run_program(REGISTRY.build("network").program, 0).trace
        payload = trace_to_dict(trace)
        assert all("key" not in call for call in payload["calls"])
        # Pinned from the dataclass records: the store is
        # content-addressed, so this digest must never move.
        assert trace_fingerprint(trace) == "1252781959360a87"
        assert trace_fingerprint(trace_from_dict(payload)) == "1252781959360a87"


class TestRandomStrategy:
    """The inlined draw picks what ``Random.choice`` picks."""

    def test_choose_equals_random_choice(self):
        names = tuple(f"t{i}" for i in range(9))
        for seed in range(200):
            strategy, reference = RandomStrategy(seed), random.Random(seed)
            sizes = random.Random(-1 - seed)
            for index in range(120):
                # Sizes 1-9: singletons and powers of two included, the
                # cases where ``k`` from ``n - 1`` would draw differently.
                candidates = names[: sizes.randint(1, 9)]
                point = SchedulePoint(index, index, candidates)
                assert strategy.choose(point) == reference.choice(candidates)
            assert strategy.rng.getstate() == reference.getstate()

    def test_draw_equals_randbelow(self):
        for seed in range(50):
            strategy, reference = RandomStrategy(seed), random.Random(seed)
            for n in (1, 2, 3, 4, 5, 7, 8, 9, 16, 17):
                assert strategy.draw(n) == reference._randbelow(n)
            assert strategy.rng.getstate() == reference.getstate()

    def test_empty_ready_set_is_refused(self):
        with pytest.raises(IndexError):
            RandomStrategy(0).choose(SchedulePoint(0, 0, ()))
        with pytest.raises(IndexError):
            RandomStrategy(0).draw(0)


class TestInterventionLookups:
    def test_only_named_methods_ask_for_plans(self, monkeypatch):
        asked = []
        original = InterventionSet.entry_plan

        def entry_plan(self, method, thread, occurrence):
            asked.append(method)
            return original(self, method, thread, occurrence)

        monkeypatch.setattr(InterventionSet, "entry_plan", entry_plan)
        program = REGISTRY.build("network").program
        calls = run_program(program, 0).trace.method_executions()
        named = calls[-1].method
        trace = run_program(
            program, 0, (DelayBefore(MethodSelector(named), ticks=3),)
        ).trace
        expected = [m.method for m in trace.method_executions() if m.method == named]
        assert asked == expected and len(expected) < len(calls)


class _Forwarding:
    """A plain strategy that forwards to ``RandomStrategy.choose``: the
    simulator asks it through the full seam at every step."""

    def __init__(self, seed: int) -> None:
        self.inner = RandomStrategy(seed)

    def choose(self, point):
        return self.inner.choose(point)


class TestDefaultStep:
    """The default strategy's step draws an index without building a
    ``SchedulePoint``; it must pick exactly what the seam picks."""

    @pytest.mark.parametrize("name", CASE_STUDY_ORDER)
    def test_default_step_matches_the_seam(self, name):
        program = REGISTRY.build(name).program
        sets = golden_sim.intervention_sets(program)
        simulator = Simulator(program)
        for label in ("none", "ForceOrder"):
            for seed in range(50):
                default = simulator.run(seed, sets[label])
                seam = simulator.run(seed, sets[label], strategy=_Forwarding(seed))
                assert default.schedule.decisions == seam.schedule.decisions
                assert default.steps == seam.steps
                assert encode_trace(default.trace)[0] == encode_trace(seam.trace)[0]

    def test_default_run_never_asks_choose(self, monkeypatch):
        asked = []
        choose = RandomStrategy.choose

        def spy(self, point):
            asked.append(point)
            return choose(self, point)

        monkeypatch.setattr(RandomStrategy, "choose", spy)
        program = REGISTRY.build("npgsql").program
        assert run_program(program, 0).steps > 0
        assert asked == []

        class Subclass(RandomStrategy):
            pass

        # A subclass may override choose, so it is asked at every step.
        result = Simulator(program).run(0, strategy=Subclass(0))
        assert len(asked) == result.steps


def _runtime(interventions: InterventionSet) -> Runtime:
    program = _linear_program(lambda ctx: iter(()))
    runtime = Runtime(program, interventions, 0, ExecutionTrace("p", 0))
    runtime.register_thread("main", spawned_by=None)
    return runtime


class TestCompletedIndex:
    @pytest.mark.parametrize(
        "interventions",
        [(), (DelayBefore(MethodSelector("A"), ticks=3),)],
        ids=["none", "DelayBefore"],
    )
    def test_call_ends_are_not_indexed_without_force_order(self, interventions):
        """Only a ``ForceOrder`` waits on a completed call, so without
        one a call end neither indexes the call nor wakes waiters."""
        runtime = _runtime(InterventionSet(interventions))
        for method in ("A", "B"):
            call_id = runtime.begin_method("main", method)
            runtime.end_method("main", call_id, None, None)
            assert not runtime.wake
        assert runtime.completed == {}

    def test_is_completed_checks_only_that_methods_calls(self):
        runtime = _runtime(
            InterventionSet(
                (ForceOrder(first=MethodSelector("A"), then=MethodSelector("Z")),)
            )
        )
        for method in ("A", "A", "A", "B"):
            call_id = runtime.begin_method("main", method)
            runtime.wake = False
            runtime.end_method("main", call_id, None, None)
            assert runtime.wake  # a completed call may clear a ForceOrder wait
        assert [m.occurrence for m in runtime.completed["A"]] == [0, 1, 2]
        assert runtime.is_completed(MethodSelector("A", occurrence=2))
        assert not runtime.is_completed(MethodSelector("A", occurrence=3))
        assert runtime.is_completed(MethodSelector("B", thread="main"))
        assert not runtime.is_completed(MethodSelector("B", thread="other"))
        assert not runtime.is_completed(MethodSelector("C"))
