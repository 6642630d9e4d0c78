"""``repro.exec`` — the pluggable intervention-execution engine.

AID's cost is dominated by intervened re-executions.  This subsystem
makes them cheap twice over:

* **parallelism** — interventions within a round (and independent
  groups within a batch) are embarrassingly parallel; a
  :class:`~repro.exec.backends.Backend` decides where they run
  (:class:`~repro.exec.backends.SerialBackend`,
  :class:`~repro.exec.backends.ThreadPoolBackend`,
  :class:`~repro.exec.backends.ProcessPoolBackend`);
* **memoization** — outcomes are deterministic per
  ``(workload, seed, pids)``, so an
  :class:`~repro.exec.cache.OutcomeCache` (optionally JSON-persisted)
  answers repeated requests without executing anything.

:class:`~repro.exec.engine.ExecutionEngine` ties the two together and
keeps :class:`~repro.exec.stats.ExecStats` accounting; the default
(serial backend, in-memory cache) is bit-identical to historical
in-line execution.

The engine runs intervened executions only: corpus analysis
(:mod:`repro.corpus`) evaluates its shards in one serial pass and takes
no engine.

Invariant: every backend satisfies ``map(fn, items)[i] == fn(items[i])``,
so results never depend on the backend or job count — only the
wall-clock schedule does.  Persistence: only the outcome cache
persists (a single JSON file, format in :mod:`repro.exec.cache`).
"""

from .backends import (
    BACKENDS,
    Backend,
    ProcessPoolBackend,
    SerialBackend,
    ThreadPoolBackend,
    make_backend,
)
from .cache import CACHE_FORMAT_VERSION, OutcomeCache, RunRequest
from .engine import BatchScheduler, ExecutionEngine, RunFn
from .stats import ExecStats

__all__ = [
    "BACKENDS",
    "Backend",
    "BatchScheduler",
    "CACHE_FORMAT_VERSION",
    "ExecStats",
    "ExecutionEngine",
    "OutcomeCache",
    "ProcessPoolBackend",
    "RunFn",
    "RunRequest",
    "SerialBackend",
    "ThreadPoolBackend",
    "make_backend",
]
