"""Intervention execution: re-running the application under repairs.

The intervention algorithms (GIWP, branch pruning, TAGT) are written
against a minimal abstraction — :class:`InterventionRunner` — so they
work identically over

* :class:`SimulationRunner` — re-executes a simulated program with the
  fault injections that repair the selected predicates (the real AID
  pipeline), and
* the ground-truth oracle used by the synthetic benchmark
  (:mod:`repro.workloads.synthetic`), which answers from a known causal
  model without execution.

One call to :meth:`InterventionRunner.run_group` is one *intervention
round* in the paper's accounting (its cost is re-executing the
application, possibly several times because failures are
nondeterministic — footnote 1 of the paper).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterable, Optional, Protocol, Sequence

from ..exec.cache import RunOutcome, RunRequest
from ..exec.engine import ExecutionEngine
from ..sim.faults import Intervention, InterventionSet
from ..sim.scheduler import Simulator
from .extraction import PredicateSuite


class InterventionRunner(Protocol):
    """One intervention round: repair ``pids``, re-run, report outcomes."""

    def run_group(self, pids: frozenset[str]) -> Sequence[RunOutcome]:
        ...  # pragma: no cover - protocol


@dataclass
class InterventionBudget:
    """Counts rounds and executions across one discovery session."""

    rounds: int = 0
    executions: int = 0
    history: list[tuple[frozenset[str], bool]] = field(default_factory=list)

    def record(self, pids: frozenset[str], outcomes: Sequence[RunOutcome]) -> None:
        self.rounds += 1
        self.executions += len(outcomes)
        self.history.append((pids, any(o.failed for o in outcomes)))


def run_round(
    runner: InterventionRunner, pids: frozenset[str], phase: str
) -> Sequence[RunOutcome]:
    """One intervention round: ``runner.run_group(pids)``, inside
    :meth:`~repro.exec.engine.ExecutionEngine.round` of the runner's own
    engine when it has one (which counts and times it)."""
    engine = getattr(runner, "engine", None)
    if engine is None:
        return runner.run_group(pids)
    with engine.round(phase):
        return runner.run_group(pids)


@dataclass
class CountingRunner:
    """Wraps a runner, recording every round on a shared budget."""

    inner: InterventionRunner
    budget: InterventionBudget = field(default_factory=InterventionBudget)

    def run_group(self, pids: frozenset[str]) -> Sequence[RunOutcome]:
        outcomes = self.inner.run_group(pids)
        self.budget.record(pids, outcomes)
        return outcomes

    @property
    def engine(self) -> Optional[ExecutionEngine]:
        return getattr(self.inner, "engine", None)


class SimulationRunner:
    """Intervention runner backed by the concurrency simulator.

    Parameters
    ----------
    simulator:
        Simulator for the target program.
    suite:
        Frozen predicate suite from the learning phase; used both to map
        pids to fault injections and to evaluate predicates on the
        intervened traces.
    failure_pid:
        The failure predicate F (an intervened run counts as "failed"
        only if the *same* failure signature recurs — a different crash
        is a different bug).
    seeds:
        Seeds to execute per round.  Pass the seeds that failed during
        the learning phase first: replaying known-bad interleavings is
        what makes a persisting failure show up quickly.  A round stops
        at the first failing execution — a single counter-example
        suffices for every pruning decision the algorithms make (paper
        footnote 1).
    engine:
        Execution engine the runs are routed through (its cache
        memoizes repeated groups, its bus hears each round).
    workload:
        Cache-key namespace for this runner's executions.  Must change
        whenever the predicate suite or simulator would produce
        different outcomes for the same ``(seed, pids)``; defaults to
        the program name plus the step budget.
    """

    def __init__(
        self,
        simulator: Simulator,
        suite: PredicateSuite,
        failure_pid: str,
        seeds: Sequence[int],
        engine: ExecutionEngine,
        workload: Optional[str] = None,
    ) -> None:
        if not seeds:
            raise ValueError("SimulationRunner needs at least one seed")
        self.simulator = simulator
        self.suite = suite
        self.failure_pid = failure_pid
        self.seeds = list(seeds)
        self.engine = engine
        self.workload = workload or (
            f"{simulator.program.name}@{simulator.max_steps}"
        )
        self._injections: dict[frozenset[str], InterventionSet] = {}

    def interventions_for(self, pids: Iterable[str]) -> tuple[Intervention, ...]:
        """Collect (deduplicated) fault injections repairing ``pids``."""
        collected: list[Intervention] = []
        seen: set[Intervention] = set()
        for pid in sorted(pids):
            for item in self.suite[pid].interventions():
                if item not in seen:
                    seen.add(item)
                    collected.append(item)
        return tuple(collected)

    def _injection_set(self, pids: frozenset[str]) -> InterventionSet:
        cached = self._injections.get(pids)
        if cached is None:
            cached = InterventionSet(self.interventions_for(pids))
            self._injections[pids] = cached
        return cached

    def execute_request(self, request: RunRequest) -> RunOutcome:
        """One intervened execution — the engine's ``run_fn``."""
        injections = self._injection_set(request.pids)
        result = self.simulator.run(request.seed, injections)
        log = self.suite.evaluate(result.trace, seed=request.seed)
        return RunOutcome(
            observed=frozenset(log.observations),
            failed=log.observed(self.failure_pid),
            seed=request.seed,
        )

    def _requests(self, pids: frozenset[str]) -> list[RunRequest]:
        return [RunRequest(self.workload, seed, pids) for seed in self.seeds]

    def run_group(self, pids: frozenset[str]) -> list[RunOutcome]:
        return self.engine.run_group(self._requests(pids), self.execute_request)


@dataclass
class ScriptedRunner:
    """Deterministic runner for tests: outcomes scripted per pid-set.

    ``script`` maps a frozenset of intervened pids to the outcomes to
    return; ``default`` is returned for unscripted groups.  Useful for
    unit-testing algorithm logic in isolation.
    """

    script: dict[frozenset[str], Sequence[RunOutcome]]
    default: Optional[Sequence[RunOutcome]] = None

    def run_group(self, pids: frozenset[str]) -> Sequence[RunOutcome]:
        if pids in self.script:
            return self.script[pids]
        if self.default is not None:
            return self.default
        raise KeyError(f"no scripted outcome for intervention on {sorted(pids)}")
