"""Execution backends: where intervened re-executions actually run.

A backend is a deliberately tiny abstraction — an *order-preserving*
``map`` over independent work items — so every scheduling, caching, and
accounting decision lives in one place (:mod:`repro.exec.engine`) and is
provably identical across serial, threaded, and multi-process execution.

Backends never see pids, seeds, or outcomes; they only run callables.
Determinism therefore reduces to one property — the module's single
invariant, which all three implementations share and every consumer
(intervention rounds and exploration waves) relies on:
``map(fn, items)[i] == fn(items[i])``.  Backends hold no durable
state; nothing here persists.

Choosing a backend
------------------
* :class:`SerialBackend` — the default; zero overhead, bit-identical to
  the historical in-line execution path.
* :class:`ThreadPoolBackend` — cheap concurrency.  The simulator is pure
  Python, so the GIL limits speedups for CPU-bound workloads, but the
  backend is useful for I/O-backed runners and for exercising the
  scheduler's wave logic without process costs.
* :class:`ProcessPoolBackend` — true parallelism via forked workers.
  Task callables in this codebase close over unpicklable state (the
  simulator holds generator-function programs), so the classic
  spawn-and-pickle route is unavailable.  Instead the callable is parked
  in a module global immediately before forking the pool: children
  inherit it through the fork memory snapshot, and the only objects
  crossing the pipe are the (picklable) requests and outcomes.  A fresh
  pool per batch keeps the snapshot current.
"""

from __future__ import annotations

import multiprocessing
import os
from concurrent.futures import ThreadPoolExecutor
from typing import Callable, Optional, Protocol, Sequence, TypeVar

T = TypeVar("T")
R = TypeVar("R")


class Backend(Protocol):
    """Order-preserving parallel map over independent items."""

    name: str
    jobs: int

    def map(self, fn: Callable[[T], R], items: Sequence[T]) -> list[R]:
        ...  # pragma: no cover - protocol

    def close(self) -> None:
        ...  # pragma: no cover - protocol


class SerialBackend:
    """In-line execution — the deterministic reference implementation."""

    name = "serial"
    jobs = 1

    def map(self, fn: Callable[[T], R], items: Sequence[T]) -> list[R]:
        return [fn(item) for item in items]

    def close(self) -> None:
        pass


class ThreadPoolBackend:
    """Thread-pool execution (persistent pool, created on first use)."""

    name = "thread"

    def __init__(self, jobs: Optional[int] = None) -> None:
        self.jobs = max(1, jobs or (os.cpu_count() or 2))
        self._pool: Optional[ThreadPoolExecutor] = None

    def map(self, fn: Callable[[T], R], items: Sequence[T]) -> list[R]:
        items = list(items)
        if len(items) <= 1:
            return [fn(item) for item in items]
        if self._pool is None:
            self._pool = ThreadPoolExecutor(
                max_workers=self.jobs, thread_name_prefix="repro-exec"
            )
        return list(self._pool.map(fn, items))

    def close(self) -> None:
        if self._pool is not None:
            self._pool.shutdown(wait=True)
            self._pool = None


#: Callable handed to forked workers by snapshot, not by pickling.
_FORK_FN: Optional[Callable] = None


def _fork_invoke(item):
    """Module-level trampoline: picklable by reference, the real callable
    comes from the fork-inherited :data:`_FORK_FN`."""
    assert _FORK_FN is not None, "worker forked without a task callable"
    return _FORK_FN(item)


class ProcessPoolBackend:
    """Fork-based process pool for CPU-bound simulator runs.

    The pool persists across :meth:`map` calls while the callable stays
    the same object — the common case, since the engine hands every
    wave of one runner the identical wrapper — and is re-forked (fresh
    memory snapshot) only when the callable changes.
    """

    name = "process"

    def __init__(self, jobs: Optional[int] = None) -> None:
        if "fork" not in multiprocessing.get_all_start_methods():
            raise RuntimeError(
                "ProcessPoolBackend needs the 'fork' start method (the task "
                "callables close over unpicklable simulator state); use "
                "ThreadPoolBackend on this platform"
            )
        self.jobs = max(1, jobs or (os.cpu_count() or 2))
        self._pool = None
        self._pool_fn: Optional[Callable] = None

    def map(self, fn: Callable[[T], R], items: Sequence[T]) -> list[R]:
        global _FORK_FN
        items = list(items)
        if len(items) <= 1:
            return [fn(item) for item in items]
        if self._pool is None or self._pool_fn is not fn:
            self.close()
            _FORK_FN = fn
            self._pool = multiprocessing.get_context("fork").Pool(self.jobs)
            self._pool_fn = fn
        return self._pool.map(_fork_invoke, items)

    def close(self) -> None:
        if self._pool is not None:
            self._pool.close()
            self._pool.join()
            self._pool = None
            self._pool_fn = None


BACKENDS: dict[str, type] = {
    "serial": SerialBackend,
    "thread": ThreadPoolBackend,
    "process": ProcessPoolBackend,
}


def make_backend(name: Optional[str] = None, jobs: Optional[int] = None) -> Backend:
    """Build a backend from CLI-ish inputs.

    With ``name=None`` the choice follows ``jobs``: one job (or none
    specified) stays serial, more than one selects threads — the safest
    parallel default.
    """
    if name is None:
        name = "serial" if not jobs or jobs <= 1 else "thread"
    try:
        cls = BACKENDS[name]
    except KeyError:
        known = ", ".join(sorted(BACKENDS))
        raise ValueError(f"unknown backend {name!r} (known: {known})") from None
    if cls is SerialBackend:
        return SerialBackend()
    return cls(jobs)
