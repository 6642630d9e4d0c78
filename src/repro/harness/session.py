"""End-to-end AID sessions: the paper's Figure 1 workflow in one object.

:class:`AIDSession` wires the full pipeline against a simulated program:

    collect labeled traces → extract predicates → statistical debugging
    → AC-DAG → causality-guided group interventions → causal path
    → explanation

``repro.debug(program)`` (see the package root) is a one-call wrapper
around this class.
"""

from __future__ import annotations

import random
from contextlib import nullcontext
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Optional, Sequence

from ..core.acdag import ACDag, learn_dag
from ..core.discovery import DiscoveryResult
from ..core.extraction import Extractor, PredicateSuite
from ..core.intervention import SimulationRunner
from ..core.precedence import PrecedencePolicy
from ..core.report import Explanation, explain, report_to_dict
from ..core.statistical import PredicateLog, StatisticalDebugger
from ..core.variants import Approach, discover
from ..sim.program import Program
from ..sim.scheduler import DEFAULT_MAX_STEPS, Simulator
from .runner import LabeledCorpus, collect

if TYPE_CHECKING:  # pragma: no cover - typing only
    from ..api.events import Event, EventBus
    from ..exec.engine import ExecutionEngine


@dataclass
class SessionConfig:
    """Knobs for a debugging session (defaults mirror the paper)."""

    n_success: int = 50
    n_fail: int = 50
    start_seed: int = 0
    max_steps: int = DEFAULT_MAX_STEPS
    #: executions per intervention round; known-failing seeds replayed
    #: first (paper footnote 1: one counter-example suffices).
    repeats: int = 25
    rng_seed: int = 0
    extractors: Optional[Sequence[Extractor]] = None
    policy: Optional[PrecedencePolicy] = None
    #: Intervention-execution engine (outcome cache + stats), shareable
    #: across sessions so sweeps pool their memoization.  ``None`` gives
    #: each runner a private engine on the session's bus.
    engine: Optional["ExecutionEngine"] = None
    #: Observer seam (see :mod:`repro.api.events`): the session emits
    #: phase events onto this bus.  Observers never affect results.
    bus: Optional["EventBus"] = None
    #: Registered scheduler-strategy name for collection *and*
    #: intervention re-execution (``None`` = the historical
    #: seeded-uniform picker, byte-identical traces), plus its
    #: parameters (e.g. ``{"depth": 3}`` for ``pct``).
    strategy: Optional[str] = None
    strategy_params: dict = field(default_factory=dict)


@dataclass
class SessionReport:
    """Everything a session learned, for inspection and experiments.

    Full sessions (live or corpus-backed) populate every field;
    analyze-only runs (``repro corpus analyze`` through the API's
    incremental mode) leave ``discovery``, ``explanation``, and
    ``approach`` as ``None``.  ``corpus`` holds trace bodies only for
    live sessions; every report carries its analyzed-log counts in
    ``n_success``/``n_fail``.  :meth:`to_dict` renders either
    shape as the versioned JSON schema
    (:data:`repro.core.report.REPORT_SCHEMA_VERSION`).
    """

    program: Optional[Program] = None
    corpus: Optional[LabeledCorpus] = None
    suite: PredicateSuite = field(default_factory=PredicateSuite)
    debugger: Optional[StatisticalDebugger] = None
    fully_discriminative: list[str] = field(default_factory=list)
    dag: Optional[ACDag] = None
    discovery: Optional[DiscoveryResult] = None
    explanation: Optional[Explanation] = None
    approach: Optional[Approach] = None
    #: the failure signature the analysis was restricted to
    signature: Optional[str] = None
    #: analyzed-log counts (successes, on-signature failures)
    n_success: Optional[int] = None
    n_fail: Optional[int] = None
    #: program name fallback when no live :class:`Program` is attached
    #: (an unbundled program analyzed from a stored corpus)
    program_name: Optional[str] = None
    #: observability metadata (the report's additive ``meta`` key):
    #: both stay ``None`` unless a :class:`repro.obs.ObsContext` was
    #: attached to the run, keeping reports reproducible by default
    run_id: Optional[str] = None
    metrics: Optional[dict] = None

    @property
    def n_sd_predicates(self) -> int:
        """SD's output size (Figure 7 column 3): fully-discriminative
        predicates, excluding the failure predicate itself."""
        return len(self.fully_discriminative)

    @property
    def causal_path(self) -> list[str]:
        return self.discovery.causal_path if self.discovery else []

    @property
    def n_causal(self) -> int:
        """Causal path length excluding F (Figure 7 column 4)."""
        return max(0, len(self.causal_path) - 1)

    @property
    def n_rounds(self) -> int:
        return self.discovery.n_rounds if self.discovery else 0

    def to_dict(self) -> dict:
        """The versioned, deterministic JSON payload of this report —
        one schema shared by ``repro run --json``, the benchmarks, and
        the tests (see :func:`repro.core.report.report_to_dict`)."""
        return report_to_dict(self)


class AIDSession:
    """A full debugging session for one simulated program."""

    def __init__(self, program: Program, config: Optional[SessionConfig] = None):
        self.program = program
        self.config = config or SessionConfig()
        self._corpus: Optional[LabeledCorpus] = None
        self._suite: Optional[PredicateSuite] = None
        self._failed_logs: Optional[list[PredicateLog]] = None
        self._dag: Optional[ACDag] = None
        self._failure_pid: Optional[str] = None
        self._debugger: Optional[StatisticalDebugger] = None
        self._fully: Optional[list[str]] = None
        self._signature: Optional[str] = None

    def _emit(self, event: "Event") -> None:
        """Observer seam: no-op without a bus; never affects results."""
        if self.config.bus is not None:
            self.config.bus.emit(event)

    def _span(self, name: str):
        """A timed phase span on the session's bus (no-op without one)."""
        if self.config.bus is not None:
            return self.config.bus.span(name)
        return nullcontext()

    def _strategy_factory(self):
        """The per-seed scheduler-strategy constructor this session's
        config names, or ``None`` for the default picker.  Lazy registry
        import: the harness must stay importable without ``repro.api``."""
        if self.config.strategy is None:
            return None
        from ..api.registry import strategy_factory

        return strategy_factory(
            self.config.strategy, self.config.strategy_params
        )

    # -- pipeline stages (each cached, callable individually) -----------

    def collect(self) -> LabeledCorpus:
        """Stage 1: gather labeled traces (one failure signature)."""
        if self._corpus is None:
            from ..api.events import CollectionFinished, CollectionStarted

            cfg = self.config
            self._emit(
                CollectionStarted(
                    program=self.program.name,
                    n_success=cfg.n_success,
                    n_fail=cfg.n_fail,
                )
            )
            with self._span("collection"):
                corpus = collect(
                    self.program,
                    n_success=cfg.n_success,
                    n_fail=cfg.n_fail,
                    start_seed=cfg.start_seed,
                    max_steps=cfg.max_steps,
                    strategy_factory=self._strategy_factory(),
                )
            signature = corpus.dominant_failure_signature()
            self._signature = signature
            self._corpus = corpus.restrict_failures(signature)
            self._emit(
                CollectionFinished(
                    n_success=len(self._corpus.successes),
                    n_fail=len(self._corpus.failures),
                    signature=signature,
                    executions=corpus.executions,
                    sim_steps=corpus.sim_steps,
                )
            )
        return self._corpus

    def analyze(self) -> StatisticalDebugger:
        """Stages 2-3: predicate extraction + statistical debugging."""
        if self._debugger is None:
            from ..api.events import LogsEvaluated, SuiteFrozen

            corpus = self.collect()
            with self._span("discovery"):
                self._suite = PredicateSuite.discover(
                    corpus.successes,
                    corpus.failures,
                    extractors=self.config.extractors,
                    program=self.program,
                )
            self._emit(SuiteFrozen(n_predicates=len(self._suite)))
            with self._span("evaluate"):
                logs = self._suite.evaluate_all(
                    corpus.successes + corpus.failures
                )
            self._emit(LogsEvaluated(n_logs=len(logs)))
            self._failed_logs = [log for log in logs if log.failed]
            self._debugger = StatisticalDebugger().extend(logs)
        return self._debugger

    @property
    def failure_pid(self) -> str:
        self.build_dag()
        return self._failure_pid

    @property
    def fully_discriminative(self) -> list[str]:
        self.build_dag()
        return list(self._fully)

    def build_dag(self) -> ACDag:
        """Stage 4: failure predicate + FD set → temporal precedence →
        AC-DAG."""
        self.analyze()
        if self._dag is None:
            from ..api.events import DagBuilt

            with self._span("dag-build"):
                self._failure_pid, self._fully, self._dag = learn_dag(
                    self._suite,
                    self._debugger,
                    self._failed_logs,
                    policy=self.config.policy,
                )
            if self._dag is None:
                raise RuntimeError("no failure predicate was extracted")
            self._emit(
                DagBuilt(
                    n_nodes=self._dag.graph.number_of_nodes(),
                    n_edges=self._dag.graph.number_of_edges(),
                )
            )
        return self._dag

    def make_runner(self) -> SimulationRunner:
        """The fault-injecting intervention runner for this program."""
        self.build_dag()
        seeds = self._failing_seeds()[: self.config.repeats]
        extra = self.config.repeats - len(seeds)
        if extra > 0:
            base = max(seeds, default=0) + 1_000_000
            seeds = seeds + [base + i for i in range(extra)]
        engine = self.config.engine
        if engine is None:
            # A private engine still carries the session's bus, so its
            # rounds reach the session's observers.
            from ..exec.engine import ExecutionEngine

            engine = ExecutionEngine(bus=self.config.bus)
        return SimulationRunner(
            # The simulator carries the strategy factory so intervention
            # re-executions schedule exactly like collection did.
            simulator=Simulator(
                self.program,
                max_steps=self.config.max_steps,
                strategy_factory=self._strategy_factory(),
            ),
            suite=self._suite,
            failure_pid=self._failure_pid,
            seeds=seeds,
            engine=engine,
            workload=self._workload_key(),
        )

    def _failing_seeds(self) -> list[int]:
        """Seeds of the analyzed failures, replayed first by every
        intervention round."""
        return self.collect().failing_seeds

    def _workload_key(self) -> str:
        """Cache namespace: everything that shapes this session's suite
        and simulator (so persisted outcomes never leak across
        incompatible configurations).  Custom extractors enter the key
        by class name; differently-*parameterized* instances of one
        extractor class still collide — construct the runner with an
        explicit ``workload`` for that case."""
        cfg = self.config
        key = (
            f"{self.program.name}"
            f"#s{cfg.start_seed}+{cfg.n_success}/{cfg.n_fail}"
            f"@{cfg.max_steps}"
        )
        if cfg.extractors is not None:
            names = ",".join(sorted(type(e).__name__ for e in cfg.extractors))
            key += f"!x[{names}]"
        if cfg.strategy is not None:
            params = ",".join(
                f"{k}={cfg.strategy_params[k]}"
                for k in sorted(cfg.strategy_params)
            )
            key += f"~{cfg.strategy}({params})"
        return key

    def run(self, approach: Approach | str = Approach.AID) -> SessionReport:
        """Stages 5-6: interventions, causal path, explanation."""
        dag = self.build_dag()
        runner = self.make_runner()
        rng = random.Random(self.config.rng_seed)
        with self._span("interventions"):
            discovery = discover(approach, dag, runner, rng=rng)
        explanation = explain(discovery, self._suite.defs)
        return SessionReport(
            program=self.program,
            corpus=self._corpus,
            suite=self._suite,
            debugger=self._debugger,
            fully_discriminative=list(self._fully),
            dag=dag,
            discovery=discovery,
            explanation=explanation,
            approach=Approach(approach),
            signature=self._signature,
            n_success=self._debugger.n_success,
            n_fail=self._debugger.n_failed,
        )


def debug(
    program: Program,
    approach: Approach | str = Approach.AID,
    config: Optional[SessionConfig] = None,
) -> SessionReport:
    """One-call AID: give it a flaky program, get root cause + story."""
    return AIDSession(program, config=config).run(approach)
