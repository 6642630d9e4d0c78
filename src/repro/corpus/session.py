"""Corpus-backed debugging sessions.

Role
----
:class:`CorpusSession` is an :class:`~repro.harness.session.AIDSession`
whose learning phase reads from a :class:`~repro.corpus.store.TraceStore`
instead of re-running the workload: ``analyze`` bootstraps an
:class:`~repro.corpus.pipeline.IncrementalPipeline` over the store — the
same single analysis step ``repro corpus analyze`` takes — and adopts
its suite, failure predicate, fully-discriminative set, SD counters and
AC-DAG.  The intervention phase is unchanged — interventions are
re-executions and need the live program.

Invariants
----------
* a corpus session never sweeps the simulator for traces: the
  intervention seeds come from the store manifest (on-signature
  failures, fingerprint-sorted);
* a warm corpus re-evaluates **zero** already-seen (predicate, trace)
  pairs and reuses the persisted suite freeze, so it loads no trace;
* the session's execution engine runs interventions only; corpus
  evaluation is one serial pass over the shards;
* intervention outcomes are memoized under a corpus-content key, so two
  sessions over the same stored traces share outcomes no matter how
  the corpus was assembled.

Persistence: ``save`` writes the dirty store manifests and per-shard
matrix files (plus the top-level matrix index).
"""

from __future__ import annotations

from typing import Optional

from ..core.statistical import StatisticalDebugger
from ..harness.runner import LabeledCorpus
from ..harness.session import AIDSession, SessionConfig
from ..sim.program import Program
from .matrix import ShardedEvalMatrix
from .pipeline import IncrementalPipeline
from .store import CorpusError, TraceStore


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
            corpus = self.store.labeled_corpus()
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
        from ..sim.serialize import stable_digest

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
