"""End-to-end AID sessions: the paper's Figure 1 workflow in one object.

:class:`AIDSession` wires the full pipeline against a simulated program:

    collect labeled traces → extract predicates → statistical debugging
    → AC-DAG → causality-guided group interventions → causal path
    → explanation

``repro.debug(program)`` (see the package root) is a one-call wrapper
around this class.

:class:`CorpusSession` is an :class:`AIDSession` whose learning phase
reads from a :class:`~repro.corpus.store.TraceStore` instead of
re-running the workload: ``analyze`` bootstraps an
:class:`~repro.corpus.pipeline.IncrementalPipeline` over the store — the
same single analysis step ``repro corpus analyze`` takes — and adopts
its suite, failure predicate, fully-discriminative set, SD counters and
AC-DAG.  The intervention phase is unchanged — interventions are
re-executions and need the live program.  A corpus session:

* never sweeps the simulator for traces: the intervention seeds come
  from the store manifest (on-signature failures, fingerprint-sorted);
* re-evaluates **zero** already-seen (predicate, trace) pairs on a warm
  corpus and reuses the persisted suite freeze, so it loads no trace;
* memoizes intervention outcomes under a corpus-content key, so two
  sessions over the same stored traces share outcomes no matter how
  the corpus was assembled;
* persists, on ``save``, the dirty store manifests and per-shard matrix
  files (plus the top-level matrix index).
"""

from __future__ import annotations

import functools
import random
from contextlib import nullcontext
from dataclasses import dataclass, field
from typing import Optional, Sequence

from ..api.events import (
    CollectionFinished,
    CollectionStarted,
    DagBuilt,
    Event,
    EventBus,
    LogsEvaluated,
    SuiteFrozen,
)
from ..api.registry import strategy_factory
from ..core.acdag import ACDag, learn_dag, log_columns
from ..core.discovery import DiscoveryResult
from ..core.extraction import Extractor, PredicateSuite
from ..core.intervention import SimulationRunner
from ..core.precedence import PrecedencePolicy
from ..core.report import Explanation, ReportPayload, explain
from ..core.statistical import PredicateLog, StatisticalDebugger
from ..core.variants import Approach, discover
from ..corpus.matrix import ShardedEvalMatrix
from ..corpus.pipeline import IncrementalPipeline
from ..corpus.store import CorpusError, TraceStore
from ..decode import encode
from ..exec.engine import ExecutionEngine
from ..sim.program import Program
from ..sim.scheduler import DEFAULT_MAX_STEPS, Simulator
from ..sim.serialize import stable_digest
from .runner import LabeledCorpus, collect


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
    engine: Optional[ExecutionEngine] = None
    #: Observer seam (see :mod:`repro.api.events`): the session emits
    #: phase events onto this bus.  Observers never affect results.
    bus: Optional[EventBus] = None
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
        the tests (see :class:`repro.core.report.ReportPayload`)."""
        return encode(ReportPayload.of(self))


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

    def _emit(self, event: Event) -> None:
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
        config names, or ``None`` for the default picker."""
        if self.config.strategy is None:
            return None
        return strategy_factory(
            self.config.strategy, self.config.strategy_params
        )

    # -- pipeline stages (each cached, callable individually) -----------

    def collect(self) -> LabeledCorpus:
        """Stage 1: gather labeled traces (one failure signature)."""
        if self._corpus is None:
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
            with self._span("dag-build"):
                self._failure_pid, self._fully, self._dag = learn_dag(
                    self._suite,
                    self._debugger,
                    functools.partial(log_columns, self._failed_logs),
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


class CorpusSession(AIDSession):
    """A full debugging session whose corpus lives on disk."""

    def __init__(
        self,
        program: Program,
        store: TraceStore,
        config: Optional[SessionConfig] = None,
        matrix: Optional[ShardedEvalMatrix] = None,
    ) -> None:
        if store.program is not None and store.program != program.name:
            raise CorpusError(
                f"corpus holds traces of {store.program!r}, "
                f"not {program.name!r}"
            )
        super().__init__(program, config=config)
        self.store = store
        self.matrix = matrix if matrix is not None else store.eval_matrix()
        self._pipeline: Optional[IncrementalPipeline] = None

    def collect(self) -> LabeledCorpus:
        """The stored traces, restricted to the dominant failure
        signature — loaded on request only; the analysis never needs
        them all in memory."""
        if self._corpus is None:
            corpus = LabeledCorpus(
                successes=list(self.store.traces("pass")),
                failures=list(self.store.traces("fail")),
            )
            if not corpus.failures:
                raise CorpusError("corpus has no failed traces to debug from")
            if not corpus.successes:
                raise CorpusError(
                    "corpus has no successful traces to debug from"
                )
            self._corpus = corpus.restrict_failures(
                corpus.dominant_failure_signature()
            )
        return self._corpus

    def analyze(self) -> StatisticalDebugger:
        """Stages 2-4 from the store: one pipeline bootstrap (persisted
        suite and matrix reused)."""
        if self._debugger is None:
            cfg = self.config
            pipeline = IncrementalPipeline(
                self.store,
                program=self.program,
                matrix=self.matrix,
                extractors=cfg.extractors,
                policy=cfg.policy,
                bus=cfg.bus,
            )
            pipeline.bootstrap()
            self._pipeline = pipeline
            self._signature = pipeline.signature
            self._suite = pipeline.suite
            self._failure_pid = pipeline.failure_pid
            self._fully = pipeline.fully
            self._dag = pipeline.dag
            self._debugger = pipeline.debugger
        return self._debugger

    def _failing_seeds(self) -> list[int]:
        """The analyzed failures' seeds, straight from the manifest."""
        _, failures = self._pipeline.analyzed()
        return [self.store.entries[fp].seed for fp in failures]

    def _workload_key(self) -> str:
        """Outcome-cache namespace for corpus-backed runs.

        Uses the corpus contents (sorted fingerprints) rather than
        collection quotas: two sessions over the same stored traces share
        memoized intervention outcomes no matter how the corpus was
        assembled.
        """
        key = (
            f"{self.program.name}#corpus-{stable_digest(sorted(self.store.entries))}"
            f"@{self.config.max_steps}"
        )
        if self.config.extractors is not None:
            names = ",".join(
                sorted(type(e).__name__ for e in self.config.extractors)
            )
            key += f"!x[{names}]"
        return key

    def save(self) -> None:
        """Persist the sharded evaluation matrix and the store manifests."""
        self.store.save()
        self.matrix.save()


def debug(
    program: Program,
    approach: Approach | str = Approach.AID,
    config: Optional[SessionConfig] = None,
) -> SessionReport:
    """One-call AID: give it a flaky program, get root cause + story."""
    return AIDSession(program, config=config).run(approach)
