"""Offline debugging with the persistent corpus: ingest once, re-analyze free.

The paper's instrumentation/extraction split (Appendix A) means traces
can be shipped from production and predicates designed after the fact.
This example collects traces from the Kafka case study, ingests them
into a content-addressed corpus store (duplicates land once), runs the
offline phase — statistical debugging + AC-DAG — from the stored logs,
then shows the two properties the corpus subsystem adds:

* a **warm re-analysis** answers every (predicate, trace) evaluation
  from the persisted bitset matrix: zero fresh evaluations;
* **incremental ingestion** patches the precision/recall counters and
  the AC-DAG under new logs, and the patched graph equals a full
  rebuild.

Run:  python examples/offline_corpus.py
"""

import shutil
import tempfile
from pathlib import Path

from repro import load_workload
from repro.core.report import render_sd_ranking
from repro.corpus import IncrementalPipeline, TraceStore
from repro.harness import collect

workload = load_workload("kafka")

# --- online phase: run the flaky application, archive the traces --------
corpus = collect(workload.program, n_success=30, n_fail=30)
archive = Path(tempfile.mkdtemp(prefix="aid-corpus-"))
store = TraceStore.init(archive, program=workload.program.name)
for trace in corpus.successes[:25] + corpus.failures[:25]:
    store.ingest(trace)
duplicate_fp, added = store.ingest(corpus.successes[0])  # same content...
assert not added  # ...stored once
store.save()
print(
    f"archived {len(store)} traces to {archive} "
    f"({store.n_pass} pass / {store.n_fail} fail; re-ingesting a "
    f"duplicate was a no-op)"
)

# --- offline phase: everything below uses only the stored logs ----------
pipeline = IncrementalPipeline(store, program=workload.program)
pipeline.bootstrap()
pipeline.save()

print()
print(
    render_sd_ranking(
        pipeline.debugger.ranked(), pipeline.suite.defs, limit=8
    )
)

discarded = sum(
    1 for reason in pipeline.dag.discarded.values() if "no temporal" in reason
)
print()
print(
    f"AC-DAG from the archived corpus: {len(pipeline.dag)} nodes, "
    f"{discarded} predicates discarded (no temporal path to the failure)"
)

# --- warm restart: the matrix answers everything --------------------------
warm = IncrementalPipeline(TraceStore.open(archive), program=workload.program)
warm.bootstrap()
print(
    f"warm re-analysis: {warm.matrix.pair_evaluations} fresh evaluations, "
    f"{warm.matrix.pair_hits} answered from the matrix"
)

# --- incremental ingestion: patch, don't rebuild --------------------------
for trace in corpus.successes[25:] + corpus.failures[25:]:
    result = pipeline.ingest(trace)
assert pipeline.dag.structure() == pipeline.rebuild().structure()
print(
    f"ingested 10 more logs incrementally; patched AC-DAG "
    f"({len(pipeline.dag)} nodes over {pipeline.dag.n_failed_logs} failed "
    f"logs) equals a full rebuild"
)
print(
    "The intervention phase needs the live program (interventions are "
    "re-executions): run `repro debug kafka --corpus DIR` for that half."
)

# Tidy up the temp archive.
shutil.rmtree(archive)
