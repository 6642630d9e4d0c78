"""Labeled-corpus collection: many executions, split by outcome.

AID's learning phase needs logs from many successful and many failed
executions of the *same* program with the *same* input (the paper uses
50 + 50).  The simulator's only nondeterminism is the scheduling seed,
so collection is just a seed sweep until both quotas are met.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Iterator, Optional

from ..sim.program import Program
from ..sim.schedule import SchedulerStrategy
from ..sim.scheduler import DEFAULT_MAX_STEPS, ExecutionResult, Simulator
from ..sim.tracing import ExecutionTrace


class CollectionError(RuntimeError):
    """The seed sweep could not fill the success/failure quotas."""


@dataclass
class LabeledCorpus:
    """Traces split by outcome, with the seeds that produced them."""

    successes: list[ExecutionTrace] = field(default_factory=list)
    failures: list[ExecutionTrace] = field(default_factory=list)
    #: executions the collecting sweep ran, kept or not, and the
    #: simulator steps they took
    executions: int = 0
    sim_steps: int = 0

    @property
    def failing_seeds(self) -> list[int]:
        return [t.seed for t in self.failures]

    @property
    def failure_rate(self) -> float:
        total = len(self.successes) + len(self.failures)
        return len(self.failures) / total if total else 0.0

    def dominant_failure_signature(self) -> Optional[str]:
        """The most common failure signature (AID targets one at a time)."""
        counts: dict[str, int] = {}
        for trace in self.failures:
            sig = trace.failure.signature
            counts[sig] = counts.get(sig, 0) + 1
        if not counts:
            return None
        return max(sorted(counts), key=lambda s: counts[s])

    def restrict_failures(self, signature: str) -> "LabeledCorpus":
        """Keep only failures with the given signature (failure grouping,
        Section 5.1: each signature is debugged separately)."""
        return LabeledCorpus(
            successes=list(self.successes),
            failures=[
                t for t in self.failures if t.failure.signature == signature
            ],
            executions=self.executions,
            sim_steps=self.sim_steps,
        )


def sweep(
    program: Program,
    start_seed: int = 0,
    max_steps: int = DEFAULT_MAX_STEPS,
    strategy_factory: Optional[
        Callable[[int], SchedulerStrategy]
    ] = None,
) -> Iterator[ExecutionResult]:
    """Endless stream of executions from consecutive seeds.

    ``strategy_factory`` (seed → strategy) selects the scheduling
    strategy per execution; ``None`` keeps the historical seeded-uniform
    picker (byte-identical traces).
    """
    simulator = Simulator(
        program, max_steps=max_steps, strategy_factory=strategy_factory
    )
    seed = start_seed
    while True:
        yield simulator.run(seed)
        seed += 1


def collect(
    program: Program,
    n_success: int = 50,
    n_fail: int = 50,
    start_seed: int = 0,
    max_attempts: int = 20_000,
    max_steps: int = DEFAULT_MAX_STEPS,
    strategy_factory: Optional[
        Callable[[int], SchedulerStrategy]
    ] = None,
) -> LabeledCorpus:
    """Run the program until the corpus has the requested label counts.

    Raises :class:`CollectionError` when ``max_attempts`` executions do
    not produce the quotas — usually a sign the workload's failure rate
    is far from the intended ~10-50% band.
    """
    corpus = LabeledCorpus()
    for result in sweep(
        program,
        start_seed=start_seed,
        max_steps=max_steps,
        strategy_factory=strategy_factory,
    ):
        corpus.executions += 1
        corpus.sim_steps += result.steps
        trace = result.trace
        if trace.failed and len(corpus.failures) < n_fail:
            corpus.failures.append(trace)
        elif not trace.failed and len(corpus.successes) < n_success:
            corpus.successes.append(trace)
        if len(corpus.failures) >= n_fail and len(corpus.successes) >= n_success:
            return corpus
        if corpus.executions >= max_attempts:
            raise CollectionError(
                f"{program.name}: after {corpus.executions} executions got "
                f"{len(corpus.successes)} successes and "
                f"{len(corpus.failures)} failures "
                f"(wanted {n_success}/{n_fail})"
            )
