"""Shared fixtures: programs, corpora, and cached case-study sessions."""

from __future__ import annotations

import multiprocessing
import threading
import time
from typing import Callable

import pytest

from repro.harness.session import AIDSession, SessionConfig
from repro.sim import Program
from repro.workloads.common import REGISTRY


def wait_until(
    predicate: Callable[[], object],
    timeout: float = 10.0,
    interval: float = 0.005,
    message: str = "condition",
):
    """Deadline-bounded polling: return ``predicate()``'s first truthy
    value, failing loudly at the deadline.

    The replacement for fixed ``time.sleep`` pacing in cross-thread
    tests — a fixed sleep pays its worst case on every run *and* still
    flakes on a machine slower than the guess, while a poll returns the
    moment the condition holds and fails with a message when it never
    does.
    """
    deadline = time.monotonic() + timeout
    while True:
        value = predicate()
        if value:
            return value
        if time.monotonic() >= deadline:
            raise AssertionError(
                f"timed out after {timeout}s waiting for {message}"
            )
        time.sleep(interval)


def run_side_by_side(
    kind: str, jobs: list[Callable[[], object]], timeout: float = 300.0
) -> list:
    """Start every zero-argument callable in ``jobs`` at once, each in
    its own thread (``kind="thread"``) or forked child process
    (``kind="process"``), and return their results in ``jobs`` order.

    A forked child inherits its callable through the fork, so closures
    over unpicklable programs work; only the result crosses back, over
    a pipe.  A job that raises, or that has not answered by the
    deadline, fails the calling test.
    """
    results: list = [None] * len(jobs)
    errors: list[str] = []
    deadline = time.monotonic() + timeout
    if kind == "thread":

        def invoke(i: int) -> None:
            try:
                results[i] = jobs[i]()
            except BaseException as exc:  # reported by the caller
                errors.append(f"job {i}: {exc!r}")

        threads = [
            threading.Thread(target=invoke, args=(i,), daemon=True)
            for i in range(len(jobs))
        ]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(max(0.0, deadline - time.monotonic()))
            if thread.is_alive():
                raise AssertionError(f"a job ran past {timeout}s")
    elif kind == "process":
        context = multiprocessing.get_context("fork")

        def child(job: Callable[[], object], conn) -> None:
            try:
                conn.send(("ok", job()))
            except BaseException as exc:  # reported by the caller
                conn.send(("error", repr(exc)))
            finally:
                conn.close()

        running = []
        for job in jobs:
            parent_end, child_end = context.Pipe(duplex=False)
            process = context.Process(target=child, args=(job, child_end))
            process.start()
            child_end.close()
            running.append((process, parent_end))
        for i, (process, conn) in enumerate(running):
            if not conn.poll(max(0.0, deadline - time.monotonic())):
                for other, _ in running:
                    other.kill()
                raise AssertionError(f"job {i} ran past {timeout}s")
            status, value = conn.recv()
            conn.close()
            process.join()
            if status == "ok":
                results[i] = value
            else:
                errors.append(f"job {i}: {value}")
    else:
        raise ValueError(f"unknown worker kind {kind!r}")
    assert not errors, errors
    return results


def rescan_stats(logs) -> dict[str, tuple[int, int, int, int]]:
    """The SD reference: a full log rescan, ``pid -> (true_in_failed,
    true_in_success, n_failed, n_success)``."""
    n_failed = sum(1 for log in logs if log.failed)
    n_success = len(logs) - n_failed
    counts: dict[str, list[int]] = {}
    for log in logs:
        idx = 0 if log.failed else 1
        for pid in log.observations:
            counts.setdefault(pid, [0, 0])[idx] += 1
    return {
        pid: (in_failed, in_success, n_failed, n_success)
        for pid, (in_failed, in_success) in counts.items()
    }


def stats_tuples(debugger) -> dict[str, tuple[int, int, int, int]]:
    """A debugger's ``stats()`` in :func:`rescan_stats`'s shape."""
    return {
        pid: (s.true_in_failed, s.true_in_success, s.n_failed, s.n_success)
        for pid, s in debugger.stats().items()
    }


def racy_counter_program(window: int = 10, jitter: int = 40) -> Program:
    """A minimal sandwich-race program used across sim/core tests.

    ``Updater`` rewrites a counter through a two-write protocol
    (sentinel −1, then the restored value); ``Reader`` reads it without
    synchronization and crashes when it observes the sentinel.
    """

    def main(ctx):
        yield from ctx.spawn("reader", "Reader")
        yield from ctx.work(ctx.randint(0, jitter))
        yield from ctx.call("Updater")
        yield from ctx.join("reader")
        return "done"

    def updater(ctx):
        value = ctx.peek("counter")
        yield from ctx.write("counter", -1)
        yield from ctx.work(window)
        yield from ctx.write("counter", value)
        return "updated"

    def reader(ctx):
        yield from ctx.work(ctx.randint(0, jitter))
        value = yield from ctx.read("counter")
        checked = yield from ctx.call("CheckValue", value)
        if not checked:
            ctx.throw("TornRead", f"saw {value}")
        return value

    def check_value(ctx, value):
        yield from ctx.work(1)
        return value >= 0

    return Program(
        name="racy-counter",
        methods={
            "Main": main,
            "Updater": updater,
            "Reader": reader,
            "CheckValue": check_value,
        },
        main="Main",
        shared={"counter": 7},
        readonly_methods=frozenset({"Reader", "CheckValue"}),
    )


@pytest.fixture(scope="session")
def racy_program() -> Program:
    return racy_counter_program()


@pytest.fixture(scope="session")
def racy_session(racy_program) -> AIDSession:
    session = AIDSession(
        racy_program, SessionConfig(n_success=30, n_fail=30, repeats=15)
    )
    session.build_dag()
    return session


_SESSION_CACHE: dict[str, AIDSession] = {}


def case_study_session(name: str) -> AIDSession:
    """Build (once per test run) a full session for a case study."""
    if name not in _SESSION_CACHE:
        workload = REGISTRY.build(name)
        session = AIDSession(workload.program, SessionConfig())
        session.build_dag()
        _SESSION_CACHE[name] = session
    return _SESSION_CACHE[name]


@pytest.fixture(params=sorted(REGISTRY.names()))
def workload_name(request) -> str:
    return request.param
