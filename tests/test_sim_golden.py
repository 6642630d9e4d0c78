"""The simulator's output is pinned byte for byte.

``tests/fixtures/golden_sim.json`` holds one sha256 per (case study,
intervention set) over seeds 0-49 — canonical trace JSON, schedule
decisions, sorted footprints and step counts (see
``scripts/golden_sim.py``, which regenerates it).  The remaining tests
pin the wake-up points the scheduler's blocked threads depend on: a
thread waiting on a lock, a join or a completed call becomes a
candidate at the first scheduling point after the event that clears
its wait, never earlier and never later.
"""

from __future__ import annotations

import hashlib
import json
import sys
from pathlib import Path

from repro.sim import (
    FailureInfo,
    ForceOrder,
    MethodKey,
    MethodSelector,
    Program,
    RandomStrategy,
    Simulator,
)

REPO_ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(REPO_ROOT / "scripts"))

import golden_sim  # noqa: E402


def test_simulator_output_matches_golden_fixture():
    expected = json.loads(golden_sim.FIXTURE.read_text())
    produced = golden_sim.compute()
    assert produced["cells"] == expected["cells"]
    assert produced == expected


class Recorder:
    """Seeded-uniform choice that keeps every scheduling point."""

    def __init__(self, seed: int) -> None:
        self.inner = RandomStrategy(seed)
        self.points: list = []

    def choose(self, point):
        self.points.append(point)
        return self.inner.choose(point)


def _run(program: Program, seed: int, interventions=()):
    recorder = Recorder(seed)
    result = Simulator(program).run(seed, interventions, strategy=recorder)
    return result, recorder.points


def assert_wakes_at(points, decisions, thread: str, event_time: int) -> bool:
    """If ``thread`` was blocked when ``event_time`` passed, it is offered
    again exactly at the first scheduling point after it.

    The threads checked below run only cost-1 actions, so while one is
    missing from the candidates it is blocked or finished, never busy.
    Returns False when this seed has nothing to check: ``thread`` was
    still being offered up to the event, or had already finished.
    """
    wake = next(i for i, p in enumerate(points) if p.time > event_time)
    blocked_at = max(
        (i for i in range(wake) if decisions[i] == thread), default=None
    )
    if blocked_at is None:
        return False
    offered = [
        i
        for i in range(blocked_at + 1, len(points))
        if thread in points[i].candidates
    ]
    if not offered or offered[0] < wake:
        return False
    assert offered[0] == wake
    return True


# ---------------------------------------------------------------------------
# ForceOrder with many completed calls
# ---------------------------------------------------------------------------


def _ticker_program() -> Program:
    def tick(ctx):
        yield from ctx.update("count", lambda v: v + 1)

    def worker(ctx, n):
        for _ in range(n):
            yield from ctx.call("Tick")

    def report(ctx):
        value = yield from ctx.read("count")
        yield from ctx.write("seen", value)

    def main(ctx):
        yield from ctx.spawn("w1", "Worker", 40)
        yield from ctx.spawn("w2", "Worker", 40)
        yield from ctx.spawn("r", "Report")
        for name in ("w1", "w2", "r"):
            yield from ctx.join(name)

    return Program(
        name="ticker",
        methods={"Tick": tick, "Worker": worker, "Report": report,
                 "Main": main},
        main="Main",
        shared={"count": 0, "seen": None},
    )


FORCE_ORDER = (
    ForceOrder(
        first=MethodSelector("Tick", thread="w2", occurrence=30),
        then=MethodSelector("Report"),
    ),
)

#: sha256 over seeds 0-19 of the ticker program under FORCE_ORDER
FORCE_ORDER_SHA256 = (
    "5bec13d2becb7079b691e7b173036219167d48d96655ed83c48bd01f1a48d839"
)


class TestForceOrderManyCompletions:
    def test_trace_bytes_are_pinned(self):
        simulator = Simulator(_ticker_program())
        digest = hashlib.sha256()
        for seed in range(20):
            digest.update(
                golden_sim.execution_record(simulator.run(seed, FORCE_ORDER))
            )
        assert digest.hexdigest() == FORCE_ORDER_SHA256

    def test_report_wakes_when_its_target_completes(self):
        woke = 0
        for seed in range(10):
            result, points = _run(_ticker_program(), seed, FORCE_ORDER)
            target = result.trace.lookup(MethodKey("Tick", "w2", 30))
            report = next(result.trace.executions_of("Report"))
            assert report.start_time > target.end_time
            woke += assert_wakes_at(
                points, result.schedule.decisions, "r", target.end_time
            )
        assert woke >= 5


# ---------------------------------------------------------------------------
# Crash-driven wake-ups: release_all and join
# ---------------------------------------------------------------------------


def _crash_program() -> Program:
    def hold(ctx):
        yield from ctx.acquire("L")
        yield from ctx.work(5)
        ctx.throw("Boom")

    def wait(ctx):
        yield from ctx.work(1)
        yield from ctx.acquire("L")
        yield from ctx.write("x", 1)
        yield from ctx.release("L")

    def main(ctx):
        yield from ctx.spawn("a", "Hold")
        yield from ctx.spawn("b", "Wait")
        yield from ctx.join("a")
        yield from ctx.join("b")

    return Program(
        name="crashy",
        methods={"Hold": hold, "Wait": wait, "Main": main},
        main="Main",
        shared={"x": 0},
    )


class TestCrashWakeUps:
    def test_lock_waiter_and_joiner_wake_after_crash(self):
        lock_woke = join_woke = 0
        for seed in range(20):
            result, points = _run(_crash_program(), seed)
            failure = result.failure
            assert (failure.mode, failure.exception, failure.thread) == (
                "crash", "Boom", "a"
            )
            decisions = result.schedule.decisions
            lock_woke += assert_wakes_at(points, decisions, "b", failure.time)
            join_woke += assert_wakes_at(
                points, decisions, "main", failure.time
            )
            # the waiter got the lock the crash freed
            assert result.trace.lookup(MethodKey("Wait", "b", 0)).exception is None
        assert lock_woke >= 5 and join_woke >= 5


# ---------------------------------------------------------------------------
# Deadlock and hang keep their FailureInfo
# ---------------------------------------------------------------------------


def _inversion_program() -> Program:
    def ab(ctx):
        yield from ctx.acquire("A")
        yield from ctx.work(3)
        yield from ctx.acquire("B")
        yield from ctx.release("B")
        yield from ctx.release("A")

    def ba(ctx):
        yield from ctx.acquire("B")
        yield from ctx.work(3)
        yield from ctx.acquire("A")
        yield from ctx.release("A")
        yield from ctx.release("B")

    def main(ctx):
        yield from ctx.spawn("t1", "AB")
        yield from ctx.spawn("t2", "BA")
        yield from ctx.join("t1")
        yield from ctx.join("t2")

    return Program(
        name="inversion",
        methods={"AB": ab, "BA": ba, "Main": main},
        main="Main",
    )


def _spin_program() -> Program:
    def main(ctx):
        while True:
            yield from ctx.write("x", 1)

    return Program(name="spin", methods={"Main": main}, main="Main",
                   shared={"x": 0})


#: seeds 0-5 of the inversion program: t1 and t2 hold one lock each,
#: and main, blocked on its first join, is the first blocked thread in
#: spawn order
DEADLOCKS = [
    FailureInfo(mode="deadlock", exception=None, method="Main",
                thread="main", time=time)
    for time in (15, 17, 16, 16, 16, 16)
]
HANG_TIME = 101


class TestFailureInfo:
    def test_deadlock(self):
        failures = [
            Simulator(_inversion_program()).run(seed).failure
            for seed in range(6)
        ]
        assert failures == DEADLOCKS

    def test_hang(self):
        result = Simulator(_spin_program(), max_steps=100).run(0)
        assert result.steps == 100
        assert result.failure == FailureInfo(
            mode="hang", exception=None, method=None, thread=None, time=HANG_TIME
        )

