"""``repro.exec`` — the intervention-execution engine.

AID's cost is dominated by intervened re-executions.  Outcomes are
deterministic per ``(workload, seed, pids)``, so an
:class:`~repro.exec.cache.OutcomeCache` (optionally JSON-persisted)
answers repeated requests without executing anything.

:class:`~repro.exec.engine.ExecutionEngine` runs each intervention
group serially through that cache and keeps
:class:`~repro.exec.stats.ExecStats` accounting.  Rounds form an
adaptive sequence (the next round depends on the last one's outcome),
so there is no parallel fan-out: every run happens in-process, in
order.

The engine runs intervened executions only: corpus analysis
(:mod:`repro.corpus`) evaluates its shards in one serial pass and the
explorer (:mod:`repro.explore`) runs its waves in-process; neither
takes an engine.

Persistence: only the outcome cache persists (a single JSON file,
format in :mod:`repro.exec.cache`).
"""

from .cache import CACHE_FORMAT_VERSION, OutcomeCache, RunRequest
from .engine import ExecutionEngine, RunFn
from .stats import ExecStats

__all__ = [
    "CACHE_FORMAT_VERSION",
    "ExecStats",
    "ExecutionEngine",
    "OutcomeCache",
    "RunFn",
    "RunRequest",
]
