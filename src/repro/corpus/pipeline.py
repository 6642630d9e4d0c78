"""Incremental analysis over a sharded trace corpus.

Role
----
This is the incremental-view-maintenance half of the corpus subsystem
(after Berkholz et al., *Answering FO+MOD queries under updates*): the
discriminative-predicate set and the AC-DAG are *views* over the stored
logs, and log insertion patches them instead of recomputing.

Lifecycle::

    pipeline = IncrementalPipeline(store, program=workload.program)
    pipeline.bootstrap()            # freeze suite; evaluate shard by shard
    pipeline.ingest(new_trace)      # store + patch counts, FD set, AC-DAG
    pipeline.rebuild()              # the from-scratch fallback (tests assert
                                    # it equals the patched state)

One analysis pass
-----------------
``bootstrap`` evaluates the suite in one serial loop over the corpus
shards, in sorted shard order: each shard of the
:class:`~repro.corpus.matrix.ShardedEvalMatrix` evaluates its undecided
pairs and contributes only its popcount **SD counters**.  Then one path
follows — counters → global FD set → one ``ACDag.build``:

* per-shard counters (:class:`~repro.core.statistical.StatisticalDebugger`)
  sum into the corpus-wide counters, in sorted shard order;
* :func:`~repro.core.acdag.learn_dag` derives the failure predicate and
  the global fully-discriminative set from the merged counters and
  builds one AC-DAG over the failed traces, whose anchor columns it
  reads straight from the matrix's stored windows
  (:meth:`~repro.corpus.matrix.ShardedEvalMatrix.anchor_columns`) in
  the canonical corpus order (successes then failures,
  fingerprint-sorted) — the AC-DAG needs nothing but the global FD set
  and those traces' windows, so no per-trace log is assembled.

A warm bootstrap (every pair already decided) therefore loads no
trace and — through the matrix's dirty flags — ``save`` afterwards
writes nothing.  With a pre-frozen suite, only the traces that still
have an undecided pair are loaded.

Invariants
----------
* the predicate suite is frozen at bootstrap — extractors calibrate once
  over the then-current corpus, globally (never per shard: thresholds
  such as duration envelopes depend on the whole corpus, and the frozen
  suite must not depend on the shard layout);
* the analysis state does not depend on the shard width — tests assert
  equal DAGs for a one-bucket and a sharded store;
* ingested logs are evaluated against the frozen suite (each pair at
  most once corpus-wide, via the eval matrix) and can only *shrink* the
  fully-discriminative set and the DAG, which is what makes pure
  patching sound.  Re-discovering predicates over a grown corpus is a
  new bootstrap.

The pipeline keeps no per-log list: :attr:`IncrementalPipeline.logs`
is a view rebuilt from the store manifest and the matrix on access.

Persistence: ``save`` writes the dirty store manifests and the dirty
per-shard matrix files (after the index, when its rows or shard list
changed); nothing else is persisted.  The next bootstrap rebuilds the
counters and the DAG from the matrix without loading or evaluating a
trace, but not for free: on a 1000-trace kafka corpus (251 shards, 500
failed traces, 75 predicates) a warm analyze spends most of its time
parsing and checking the positional shard files (every stored window is
checked once, as the file is decoded), then ~0.02 s in ``ACDag.build``
(one ``anchors`` call per predicate, then one bitset narrowing step per
failed trace); the anchor columns are sliced from the decoded windows.
"""

from __future__ import annotations

import functools
from contextlib import nullcontext
from dataclasses import dataclass, replace
from typing import Optional, Sequence

from ..api.events import (
    CollectionFinished,
    CorpusLoaded,
    DagBuilt,
    DagPatched,
    Event,
    EventBus,
    LogsEvaluated,
    SuiteFrozen,
)
from ..core.acdag import ACDag, learn_dag, log_columns
from ..core.extraction import Extractor, PredicateSuite
from ..core.precedence import PrecedencePolicy, default_policy
from ..core.statistical import (
    PredicateLog,
    StatisticalDebugger,
    failure_and_fd,
)
from ..sim.program import Program
from .matrix import CompactionStats, ShardedEvalMatrix
from .store import CorpusError, TraceStore


@dataclass
class IngestResult:
    """What one ingestion did to the corpus and its maintained views."""

    fingerprint: str
    added: bool
    failed: bool
    #: trace stored but excluded from analysis (off-signature failure)
    skipped: bool = False
    #: pids that left the fully-discriminative set / the DAG
    removed_pids: frozenset[str] = frozenset()


@dataclass
class BatchIngestResult:
    """What one batched ingestion did: per-trace outcomes (submission
    order) plus the aggregate view damage.

    Per-trace ``removed_pids`` attribution is finer in sequential
    ingestion (each trace sees the views exactly as it found them);
    a batch defers the fully-set diff and the final DAG restriction to
    the end, so cross-trace casualties surface only in the aggregate
    ``removed_pids`` here.  The *final* maintained state is identical
    either way (asserted in tests).
    """

    results: list[IngestResult]
    #: union of every pid that left the FD set / the DAG in this batch
    removed_pids: frozenset[str] = frozenset()

    @property
    def n_added(self) -> int:
        return sum(1 for r in self.results if r.added)


class IncrementalPipeline:
    """Maintains suite evaluation, SD counts, and the AC-DAG over a store."""

    def __init__(
        self,
        store: TraceStore,
        program: Optional[Program] = None,
        matrix: Optional[ShardedEvalMatrix] = None,
        extractors: Optional[Sequence[Extractor]] = None,
        policy: Optional[PrecedencePolicy] = None,
        suite: Optional[PredicateSuite] = None,
        bus: Optional[EventBus] = None,
    ) -> None:
        self.store = store
        self.program = program
        self.matrix = matrix if matrix is not None else store.eval_matrix()
        self.extractors = extractors
        self.policy = policy or default_policy()
        #: observer seam (see :mod:`repro.api.events`); never affects
        #: results
        self.bus = bus
        # frozen at bootstrap (or injected pre-frozen: extractor
        # discovery is skipped and shard tasks load their own traces,
        # the steady-state freeze-once / re-analyze-many regime).  Only
        # an *injected* suite survives re-bootstrap: a suite frozen by a
        # previous bootstrap() is re-discovered, because its envelopes
        # and baselines were calibrated on the then-current corpus.
        self._injected_suite: Optional[PredicateSuite] = suite
        self.suite: Optional[PredicateSuite] = suite
        self.failure_pid: Optional[str] = None
        self.signature: Optional[str] = None
        self.debugger = StatisticalDebugger()
        self.fully: list[str] = []
        self.dag: Optional[ACDag] = None
        self._bootstrapped = False

    @property
    def bootstrapped(self) -> bool:
        return self._bootstrapped

    def _emit(self, event: Event) -> None:
        if self.bus is not None:
            self.bus.emit(event)

    def _span(self, name: str):
        """A timed phase span on the pipeline's bus (no-op without one)."""
        if self.bus is not None:
            return self.bus.span(name)
        return nullcontext()

    @property
    def logs(self) -> list[PredicateLog]:
        """The analysis logs in canonical corpus order, rebuilt from the
        store manifest and the matrix bitsets on every access (the
        matrix already holds every observation)."""
        if not self.bootstrapped:
            return []
        successes, failures = self.analyzed()
        return [self._log(fp) for fp in successes + failures]

    def analyzed(self) -> tuple[list[str], list[str]]:
        """The analyzed traces in canonical corpus order: successes,
        then on-signature failures, each fingerprint-sorted (the order
        ``store.traces`` loads them in)."""
        ordered = sorted(self.store.entries.items())
        successes = [fp for fp, e in ordered if not e.failed]
        failures = [
            fp
            for fp, e in ordered
            if e.failed and e.signature == self.signature
        ]
        return successes, failures

    def _log(self, fingerprint: str) -> PredicateLog:
        """One analyzed trace's log, rebuilt from the matrix."""
        entry = self.store.entries[fingerprint]
        return self.matrix.reconstruct_log(
            self.suite,
            fingerprint,
            failed=entry.failed,
            seed=entry.seed,
            signature=entry.signature,
        )

    # -- bootstrap -------------------------------------------------------

    def bootstrap(self) -> None:
        """Freeze the predicate suite over the current corpus and build
        every maintained view.

        All evaluation goes through the sharded matrix, so a warm
        restart performs zero fresh evaluations; the summed per-shard
        counters feed one global AC-DAG build.
        """
        if not any(e.failed for e in self.store.entries.values()):
            raise CorpusError("corpus has no failed traces to analyze")
        if all(e.failed for e in self.store.entries.values()):
            raise CorpusError("corpus has no successful traces to analyze")
        self._emit(
            CorpusLoaded(
                n_traces=len(self.store),
                n_pass=self.store.n_pass,
                n_fail=self.store.n_fail,
            )
        )
        self.signature = self.store.dominant_failure_signature()
        successes, failures = self.analyzed()
        fingerprints = successes + failures
        self._emit(
            CollectionFinished(
                n_success=len(successes),
                n_fail=len(failures),
                signature=self.signature,
            )
        )
        self.suite = self._injected_suite
        suite_source = "injected" if self.suite is not None else "discovered"
        if self.suite is None and self.extractors is None:
            # Warm restart: a suite frozen over *exactly this corpus
            # content* (same digest, same attached program) is as good
            # as rediscovery — extractor calibration saw the same
            # traces — so the whole discovery pass is skipped.
            persisted = self.store.load_suite(
                program=self.program.name if self.program else None
            )
            if persisted is not None:
                self.suite = persisted
                suite_source = "persisted"
        if self.suite is None:
            # Discovery calibration is global by construction (duration
            # envelopes and order baselines span the whole corpus), so
            # the parent loads every trace and discovers serially.
            passed = list(self.store.traces("pass"))
            failed = [
                trace
                for trace in self.store.traces("fail")
                if trace.failure.signature == self.signature
            ]
            with self._span("discovery"):
                self.suite = PredicateSuite.discover(
                    passed,
                    failed,
                    extractors=self.extractors,
                    program=self.program,
                )
            if self.extractors is None:
                # Memoize the freeze for the next analyze over this
                # exact content (custom extractor stacks are not
                # serializable, so only the default catalogue persists).
                self.store.save_suite(
                    self.suite,
                    signature=self.signature,
                    program=self.program.name if self.program else None,
                )
            self._emit(
                SuiteFrozen(n_predicates=len(self.suite), source=suite_source)
            )
            with self._span("evaluate"):
                counters = self.matrix.evaluate_shards(
                    self.suite, passed + failed
                )
        else:
            # Pre-frozen suite: nothing global needs the trace bodies,
            # so each shard loads only its traces with an undecided pair.
            self._emit(
                SuiteFrozen(n_predicates=len(self.suite), source=suite_source)
            )
            with self._span("evaluate"):
                counters = self.matrix.evaluate_fingerprints(
                    self.suite, fingerprints
                )
        self._emit(
            LogsEvaluated(
                n_logs=len(fingerprints),
                fresh=self.matrix.pair_evaluations,
                memoized=self.matrix.pair_hits,
                kernel_calls=self.matrix.kernel_calls,
            )
        )
        self.debugger = counters
        with self._span("dag-build"):
            self.failure_pid, self.fully, self.dag = learn_dag(
                self.suite,
                self.debugger,
                functools.partial(
                    self.matrix.anchor_columns, self.suite, failures
                ),
                policy=self.policy,
            )
        if self.dag is None:
            raise CorpusError("no failure predicate was extracted")
        self._bootstrapped = True
        self._emit(
            DagBuilt(
                n_nodes=self.dag.graph.number_of_nodes(),
                n_edges=self.dag.graph.number_of_edges(),
            )
        )

    def _derive_fully(self) -> list[str]:
        return failure_and_fd(self.debugger, self.suite.failure_pids())[1]

    # -- ingestion -------------------------------------------------------

    def ingest(
        self, trace, schedule_signature: Optional[str] = None
    ) -> IngestResult:
        """Store one new trace and patch every maintained view.

        Duplicates (same content fingerprint) change nothing.  Failed
        traces with a different failure signature are stored but excluded
        from this pipeline's views, as a live session excludes them.  ``schedule_signature``
        stamps interleaving provenance into the manifest row (see
        :meth:`~repro.corpus.store.TraceStore.ingest`).

        A one-trace :meth:`ingest_batch`; the result carries every pid
        the trace removed from the views.
        """
        batch = self.ingest_batch([trace], [schedule_signature])
        return replace(batch.results[0], removed_pids=batch.removed_pids)

    # -- batched ingestion -----------------------------------------------

    def ingest_batch(
        self,
        traces: Sequence,
        schedule_signatures: Optional[Sequence[Optional[str]]] = None,
        save: bool = False,
    ) -> BatchIngestResult:
        """Ingest one wave of traces with a single view update.

        Every trace is stored (and deduplicated / signature-filtered)
        exactly as :meth:`ingest` would, but the maintained views are
        patched once for the whole batch: all logs join the SD counters
        first, the fully-discriminative set is re-derived once, each
        failed log patches the AC-DAG in submission order, and one final
        restriction drops whatever left the FD set.  With ``save=True``
        the dirty store manifests and matrix shards are written once, at
        the end of the wave, not per trace; nothing is fsynced (see the
        corpus-on-disk item in ROADMAP.md).

        The final pipeline state is byte-identical to calling
        :meth:`ingest` per trace in the same order (asserted in tests);
        only per-trace ``removed_pids`` attribution is coarser — see
        :class:`BatchIngestResult`.
        """
        if not self.bootstrapped:
            raise CorpusError("bootstrap() the pipeline before ingesting")
        traces = list(traces)
        if schedule_signatures is None:
            schedule_signatures = [None] * len(traces)
        else:
            schedule_signatures = list(schedule_signatures)
            if len(schedule_signatures) != len(traces):
                raise ValueError(
                    f"{len(traces)} traces but "
                    f"{len(schedule_signatures)} schedule signatures"
                )
        with self._span("ingest-batch"):
            batch = self._ingest_batch(traces, schedule_signatures)
        if save:
            self.save()
        return batch

    def _ingest_batch(
        self, traces: Sequence, schedule_signatures: Sequence[Optional[str]]
    ) -> BatchIngestResult:
        results: list[Optional[IngestResult]] = [None] * len(traces)
        analyzable: list[tuple[int, str, object, bool]] = []
        for slot, (trace, sched_sig) in enumerate(
            zip(traces, schedule_signatures)
        ):
            # Evaluate the trace handed in; the store stamps its
            # fingerprint, so nothing reads the file back.
            fp, added = self.store.ingest(trace, sched_sig)
            failed = trace.failed
            if not added:
                results[slot] = IngestResult(
                    fingerprint=fp, added=False, failed=failed
                )
                continue
            if failed and trace.failure.signature != self.signature:
                results[slot] = IngestResult(
                    fingerprint=fp, added=True, failed=True, skipped=True
                )
                continue
            analyzable.append((slot, fp, trace, failed))
        if not analyzable:
            return BatchIngestResult(
                results=results  # type: ignore[arg-type]
            )

        # One counter update for the whole wave...
        batch_logs: list[PredicateLog] = []
        for slot, fp, trace, failed in analyzable:
            log = self.matrix.log_for(self.suite, trace)
            self.debugger.add(log)
            batch_logs.append(log)
        # ...one FD-set derivation...
        new_fully = self._derive_fully()
        removed = set(self.fully) - set(new_fully)
        self.fully = new_fully
        # ...each failed log patches the DAG in submission order...
        per_slot: dict[int, frozenset[str]] = {}
        for (slot, fp, trace, failed), log in zip(analyzable, batch_logs):
            if failed:
                dropped = self.dag.update_failed_log(log)
                per_slot[slot] = frozenset(dropped)
                removed |= dropped
        # ...and one restriction to the batch-final FD set.
        removed |= self.dag.restrict_to(set(new_fully) | {self.failure_pid})
        for slot, fp, trace, failed in analyzable:
            results[slot] = IngestResult(
                fingerprint=fp,
                added=True,
                failed=failed,
                removed_pids=per_slot.get(slot, frozenset()),
            )
        if self.bus is not None:
            for slot, fp, trace, failed in analyzable:
                self._emit(
                    DagPatched(
                        fingerprint=fp,
                        removed_pids=per_slot.get(slot, frozenset()),
                    )
                )
        return BatchIngestResult(
            results=results,  # type: ignore[arg-type]
            removed_pids=frozenset(removed),
        )

    # -- the from-scratch fallback --------------------------------------

    def rebuild(self) -> ACDag:
        """Recompute the AC-DAG from the full log history with the frozen
        suite — the ground truth the incremental patching must equal."""
        if not self.bootstrapped:
            raise CorpusError("bootstrap() the pipeline before rebuilding")
        logs = self.logs
        _, _, dag = learn_dag(
            self.suite,
            StatisticalDebugger().extend(logs),
            functools.partial(log_columns, [log for log in logs if log.failed]),
            policy=self.policy,
        )
        return dag

    # -- compaction ------------------------------------------------------

    def compact(self) -> CompactionStats:
        """Reclaim matrix rows shadowed by predicate drift and columns of
        evicted traces (the bootstrapped suite defines what is live)."""
        if not self.bootstrapped:
            raise CorpusError("bootstrap() the pipeline before compacting")
        keep_digests = {
            pid: pred.definition_digest()
            for pid, pred in self.suite.defs.items()
        }
        return self.matrix.compact(keep_digests)

    # -- persistence -----------------------------------------------------

    def save(self) -> None:
        """Persist the store manifests and the sharded evaluation matrix."""
        self.store.save()
        self.matrix.save()
