"""``repro.corpus`` — the persistent, sharded trace-corpus subsystem.

Turns the paper's collect-once / analyze-many offline phase (Appendix A)
into a durable service:

* :mod:`~repro.corpus.store` — a content-addressed, deduplicating
  on-disk :class:`TraceStore`, sharded by fingerprint prefix
  (``shards/<hex>/``) with per-shard manifests; it reads only the
  current version, and :func:`~repro.corpus.store.upgrade` is the one
  reader of older layouts;
* :mod:`~repro.corpus.matrix` — the :class:`EvalMatrix` (one
  positional file per shard, its rows numbered by one corpus-wide
  predicate row table) behind a :class:`ShardedEvalMatrix`, a
  predicates × traces memo guaranteeing each pair is evaluated at most
  once corpus-wide, evaluated shard by shard (only traces with an
  undecided pair are loaded), with compaction;
* :mod:`~repro.corpus.pipeline` — the :class:`IncrementalPipeline`
  maintaining SD counts, the fully-discriminative set, and the AC-DAG
  under log insertions, built by one serial ``bootstrap`` pass (and a
  :meth:`~IncrementalPipeline.rebuild` fallback the maintained state is
  asserted equal to);
* :mod:`~repro.corpus.files` — the atomic JSON writes and checked reads
  every corpus file goes through, and :class:`CorpusError`.

:class:`~repro.harness.session.CorpusSession`, the AID session that
debugs from stored logs instead of re-running the workload, sits one
layer up, in :mod:`repro.harness`.

CLI: ``repro corpus init|ingest|stats|shard-stats|analyze|compact|reshard|upgrade`` and
``repro debug <workload> --corpus DIR``.  See ``docs/corpus.md`` for the
workflow and the on-disk format spec.
"""

from .matrix import (
    CompactionStats,
    EvalMatrix,
    ShardedEvalMatrix,
    merge_matrices,
    split_matrix,
)
from .pipeline import BatchIngestResult, IncrementalPipeline, IngestResult
from .store import CorpusError, TraceEntry, TraceStore

__all__ = [
    "CompactionStats",
    "CorpusError",
    "EvalMatrix",
    "IncrementalPipeline",
    "BatchIngestResult",
    "IngestResult",
    "ShardedEvalMatrix",
    "TraceEntry",
    "TraceStore",
    "merge_matrices",
    "split_matrix",
]
