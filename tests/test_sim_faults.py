"""Fault injection: every intervention type changes execution as specified."""

from __future__ import annotations

from repro.sim import (
    CatchException,
    DelayBefore,
    DelayReturn,
    ForceOrder,
    ForceReturn,
    InterventionSet,
    MethodSelector,
    Program,
    SerializeMethods,
    run_program,
)


def _program():
    def main(ctx):
        yield from ctx.spawn("w", "Worker")
        yield from ctx.work(5)
        value = yield from ctx.call("Compute", 3)
        yield from ctx.join("w")
        return value

    def compute(ctx, x):
        yield from ctx.work(4)
        return x * 10

    def worker(ctx):
        yield from ctx.work(2)
        yield from ctx.call("Risky")
        return "worker-ok"

    def risky(ctx):
        yield from ctx.work(1)
        if ctx.peek("explode"):
            ctx.throw("Explosion")
        return "safe"

    return Program(
        name="faults",
        methods={"Main": main, "Compute": compute, "Worker": worker, "Risky": risky},
        main="Main",
        shared={},
    )


def _first(trace, method):
    return next(trace.executions_of(method))


class TestForceReturn:
    def test_override_keeps_body(self):
        iv = ForceReturn(MethodSelector("Compute"), value=999, skip_body=False)
        trace = run_program(_program(), 0, (iv,)).trace
        compute = _first(trace, "Compute")
        assert compute.return_value == 999
        assert not compute.body_skipped
        assert compute.duration >= 4

    def test_skip_body_is_fast_and_flagged(self):
        baseline = _first(run_program(_program(), 0).trace, "Compute").duration
        iv = ForceReturn(MethodSelector("Compute"), value=7, skip_body=True)
        trace = run_program(_program(), 0, (iv,)).trace
        compute = _first(trace, "Compute")
        assert compute.return_value == 7
        assert compute.body_skipped
        assert compute.duration < baseline

    def test_caller_sees_forced_value(self):
        iv = ForceReturn(MethodSelector("Compute"), value=5, skip_body=True)
        trace = run_program(_program(), 0, (iv,)).trace
        assert _first(trace, "Main").return_value == 5


class TestCatchException:
    def test_swallows_and_returns_fallback(self):
        program = _program()
        program.shared["explode"] = True  # type: ignore[index]
        baseline = run_program(program, 0)
        assert baseline.failed
        iv = CatchException(MethodSelector("Risky"), fallback="fallback")
        repaired = run_program(program, 0, (iv,))
        assert not repaired.failed
        trace = repaired.trace
        assert _first(trace, "Risky").exception is None
        assert _first(trace, "Risky").return_value == "fallback"
        assert _first(trace, "Worker").return_value == "worker-ok"

    def test_noop_when_no_exception(self):
        iv = CatchException(MethodSelector("Risky"), fallback="fallback")
        trace = run_program(_program(), 0, (iv,)).trace
        assert _first(trace, "Risky").return_value == "safe"


class TestDelays:
    def test_delay_return_stretches_duration(self):
        baseline = _first(run_program(_program(), 0).trace, "Compute").duration
        iv = DelayReturn(MethodSelector("Compute"), ticks=50)
        trace = run_program(_program(), 0, (iv,)).trace
        assert _first(trace, "Compute").duration >= baseline + 50

    def test_delay_before_shifts_start(self):
        baseline = _first(run_program(_program(), 0).trace, "Compute").start_time
        iv = DelayBefore(MethodSelector("Compute"), ticks=80)
        trace = run_program(_program(), 0, (iv,)).trace
        assert _first(trace, "Compute").start_time >= baseline + 80


class TestForceOrder:
    def test_blocks_until_first_completes(self):
        iv = ForceOrder(
            first=MethodSelector("Compute"), then=MethodSelector("Risky")
        )
        for seed in range(10):
            trace = run_program(_program(), seed, (iv,)).trace
            compute = _first(trace, "Compute")
            risky = _first(trace, "Risky")
            assert risky.start_time >= compute.end_time


class TestSerializeMethods:
    def test_serialization_removes_overlap(self, racy_program):
        iv = SerializeMethods(
            selectors=(MethodSelector("Updater"), MethodSelector("Reader")),
        )
        for seed in range(60):
            trace = run_program(racy_program, seed, (iv,)).trace
            assert not trace.failed
            updater = _first(trace, "Updater")
            reader = _first(trace, "Reader")
            assert not updater.overlaps(reader)

    def test_without_lock_failures_exist(self, racy_program):
        assert any(run_program(racy_program, s).failed for s in range(60))


class TestSelectors:
    def test_occurrence_pinning(self):
        def main(ctx):
            a = yield from ctx.call("Step")
            b = yield from ctx.call("Step")
            return (a, b)

        def step(ctx):
            yield from ctx.work(1)
            return "real"

        program = Program(
            name="occ", methods={"Main": main, "Step": step}, main="Main"
        )
        iv = ForceReturn(
            MethodSelector("Step", occurrence=1), value="forced", skip_body=True
        )
        trace = run_program(program, 0, (iv,)).trace
        assert _first(trace, "Main").return_value == ("real", "forced")

    def test_thread_pinning(self):
        selector = MethodSelector("M", thread="t1")
        assert selector.matches("M", "t1", 3)
        assert not selector.matches("M", "t2", 3)
        assert not selector.matches("N", "t1", 3)

    def test_intervention_set_plans(self):
        selector = MethodSelector("M")
        ivs = InterventionSet(
            (
                DelayBefore(selector, ticks=3),
                DelayReturn(selector, ticks=4),
                SerializeMethods(selectors=(selector,), lock_name="Lk"),
                CatchException(selector, fallback=0),
            )
        )
        entry = ivs.entry_plan("M", "main", 0)
        exit_ = ivs.exit_plan("M", "main", 0)
        assert entry.delays == 3 and entry.locks == ("Lk",)
        assert exit_.delays == 4 and exit_.locks == ("Lk",)
        assert exit_.catch is not None
        assert not ivs.entry_plan("Other", "main", 0).locks
