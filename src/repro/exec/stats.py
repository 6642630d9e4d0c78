"""Execution accounting: what ran, what was memoized, what it cost.

One :class:`ExecStats` instance accumulates over an engine's lifetime —
a single ``debug`` command, a whole ``figure7`` sweep — so its report
answers: how many simulator runs actually executed, how many were
answered from cache, and how long the executed runs took.

Invariants: counters only increase; ``total_runs = executed + cached``
counts exactly what the algorithms asked for.  Nothing here persists —
stats die with the engine.
"""

from __future__ import annotations

from dataclasses import dataclass, field


@dataclass
class ExecStats:
    """Counters for one execution engine."""

    #: Summed per-run durations of the executed runs.
    run_time: float = 0.0
    #: Executions actually performed (cache misses).
    executed: int = 0
    #: Executions answered from the outcome cache.
    cached: int = 0
    #: Intervention groups routed through the engine.
    groups: int = 0
    #: Dispatches of ``run_fn``: one per executed run.
    batches: int = 0
    #: Algorithm rounds by phase (e.g. ``giwp``, ``branch``).
    rounds: dict[str, int] = field(default_factory=dict)

    def note_round(self, phase: str) -> None:
        self.rounds[phase] = self.rounds.get(phase, 0) + 1

    @property
    def total_runs(self) -> int:
        """Runs the algorithms asked for, executed or memoized."""
        return self.executed + self.cached

    @property
    def hit_rate(self) -> float:
        return self.cached / self.total_runs if self.total_runs else 0.0

    def metrics(self) -> dict[str, float]:
        """The counters as a flat gauge map, in the shape a
        :class:`repro.obs.MetricsRegistry` provider returns."""
        gauges: dict[str, float] = {
            "exec.executed": self.executed,
            "exec.cached": self.cached,
            "exec.groups": self.groups,
            "exec.batches": self.batches,
            "exec.run_time": round(self.run_time, 6),
            "exec.hit_rate": round(self.hit_rate, 6),
        }
        for phase, count in self.rounds.items():
            gauges[f"exec.rounds.{phase}"] = count
        return gauges

    def report(self, title: str = "exec stats") -> str:
        """Human-readable multi-line summary."""
        lines = [
            f"{title}:",
            f"  runs      : {self.total_runs} requested = "
            f"{self.executed} executed + {self.cached} cached "
            f"({self.hit_rate:.0%} hit rate)",
            f"  groups    : {self.groups} intervention groups",
            f"  run time  : {self.run_time:.3f}s",
        ]
        if self.rounds:
            phases = ", ".join(
                f"{phase}={count}" for phase, count in sorted(self.rounds.items())
            )
            lines.append(f"  rounds    : {phases}")
        return "\n".join(lines)
