"""The sharded corpus layout: v1/v2→v3 migration, analysis independent
of the shard layout, SD-counter merging, and compaction."""

from __future__ import annotations

import json
import shutil
from pathlib import Path

import pytest

from repro.cli import main
from repro.core.extraction import PredicateSuite
from repro.core.predicates import Observation
from repro.core.statistical import PredicateLog, StatisticalDebugger
from repro.corpus import (
    CorpusError,
    EvalMatrix,
    IncrementalPipeline,
    TraceStore,
    merge_matrices,
    split_matrix,
)
from repro.harness.runner import collect

from conftest import rescan_stats, stats_tuples


@pytest.fixture(scope="module")
def corpus(racy_program):
    return collect(racy_program, n_success=12, n_fail=12)


def _build_store(root, racy_program, corpus, shard_width=2) -> TraceStore:
    store = TraceStore.init(
        root, program=racy_program.name, shard_width=shard_width
    )
    for trace in corpus.successes + corpus.failures:
        store.ingest(trace)
    store.save()
    return store


def _downgrade_to_v1(v2_root: Path, v1_root: Path) -> None:
    """Write the v1 (flat) layout equivalent of a sharded corpus —
    manifest, trace bodies, and the single-file eval matrix."""
    store = TraceStore.open(v2_root)
    (v1_root / "traces").mkdir(parents=True)
    rows = {}
    for fp, entry in sorted(store.entries.items()):
        rows[fp] = {
            "label": entry.label,
            "seed": entry.seed,
            "signature": entry.signature,
        }
        shutil.copy(store.trace_path(fp), v1_root / "traces" / f"{fp}.json")
    (v1_root / "manifest.json").write_text(
        json.dumps(
            {"version": 1, "program": store.program, "traces": rows},
            indent=2,
            sort_keys=True,
        )
    )
    matrix = store.eval_matrix()
    matrix.load_all()
    merged = merge_matrices(
        matrix.shard(sid) for sid in matrix.persisted_shard_ids()
    )
    if merged.traces:
        merged.save(v1_root / "evalmatrix.json")


class TestShardLayout:
    def test_traces_land_in_their_prefix_shard(
        self, tmp_path, racy_program, corpus
    ):
        store = _build_store(tmp_path / "c", racy_program, corpus)
        for fp in store.entries:
            assert store.shard_id(fp) == fp[:2]
            assert store.trace_path(fp).exists()
            assert store.trace_path(fp).parent.parent.name == fp[:2]
        top = json.loads((tmp_path / "c" / "manifest.json").read_text())
        assert top["version"] == 3
        assert top["shards"] == store.shard_ids

    def test_width_zero_is_a_single_bucket(
        self, tmp_path, racy_program, corpus
    ):
        store = _build_store(
            tmp_path / "c", racy_program, corpus, shard_width=0
        )
        assert store.shard_ids == ["all"]
        reopened = TraceStore.open(tmp_path / "c")
        assert reopened.shard_width == 0
        assert set(reopened.entries) == set(store.entries)

    def test_matrix_files_are_per_shard_with_index(
        self, tmp_path, racy_program, corpus
    ):
        store = _build_store(tmp_path / "c", racy_program, corpus)
        pipeline = IncrementalPipeline(store, program=racy_program)
        pipeline.bootstrap()
        pipeline.save()
        index = json.loads((tmp_path / "c" / "evalmatrix.json").read_text())
        assert index["version"] == 2
        assert index["shards"] == store.shard_ids
        for sid in store.shard_ids:
            assert store.shard_matrix_path(sid).exists()

    def test_evict_removes_entry_and_body(self, tmp_path, racy_program, corpus):
        store = _build_store(tmp_path / "c", racy_program, corpus)
        fp = sorted(store.entries)[0]
        path = store.trace_path(fp)
        assert store.evict(fp)
        assert fp not in store.entries
        assert not path.exists()
        assert not store.evict(fp)
        store.save()
        assert fp not in TraceStore.open(tmp_path / "c").entries


class TestMigration:
    def test_v1_opens_as_current_version_in_place(
        self, tmp_path, racy_program, corpus
    ):
        reference = _build_store(tmp_path / "ref", racy_program, corpus)
        ref_pipeline = IncrementalPipeline(reference, program=racy_program)
        ref_pipeline.bootstrap()
        ref_pipeline.save()

        v1 = tmp_path / "v1"
        _downgrade_to_v1(tmp_path / "ref", v1)
        migrated = TraceStore.open(v1)

        manifest = json.loads((v1 / "manifest.json").read_text())
        assert manifest["version"] == 3
        assert manifest["shard_width"] == 2
        assert not (v1 / "traces").exists()
        assert set(migrated.entries) == set(reference.entries)
        # and it stays open-able (idempotent end state)
        again = TraceStore.open(v1)
        assert set(again.entries) == set(migrated.entries)

    def test_migrated_analyze_is_warm_and_identical(
        self, tmp_path, racy_program, corpus
    ):
        reference = _build_store(tmp_path / "ref", racy_program, corpus)
        ref_pipeline = IncrementalPipeline(reference, program=racy_program)
        ref_pipeline.bootstrap()
        ref_pipeline.save()

        v1 = tmp_path / "v1"
        _downgrade_to_v1(tmp_path / "ref", v1)
        pipeline = IncrementalPipeline(
            TraceStore.open(v1), program=racy_program
        )
        pipeline.bootstrap()
        # every memoized pair survived the split: zero re-evaluations
        assert pipeline.matrix.pair_evaluations == 0
        assert pipeline.matrix.pair_hits > 0
        assert pipeline.fully == ref_pipeline.fully
        assert pipeline.dag.structure() == ref_pipeline.dag.structure()
        for mine, theirs in zip(pipeline.logs, ref_pipeline.logs):
            assert dict(mine.observations) == dict(theirs.observations)
            assert mine.failed == theirs.failed

    def test_split_then_merge_round_trips(self, tmp_path, racy_program, corpus):
        store = _build_store(tmp_path / "c", racy_program, corpus)
        pipeline = IncrementalPipeline(store, program=racy_program)
        pipeline.bootstrap()
        pipeline.save()
        sharded = store.eval_matrix()
        sharded.load_all()
        merged = merge_matrices(
            sharded.shard(sid) for sid in sharded.persisted_shard_ids()
        )
        again = split_matrix(merged, store.shard_id)
        for sid, shard in again.items():
            original = sharded.shard(sid)
            assert shard.traces == original.traces
            assert shard.evaluated == original.evaluated
            assert shard.observed == original.observed
            assert shard.observations == original.observations

    def test_unsupported_version_still_rejected(self, tmp_path):
        root = tmp_path / "c"
        root.mkdir()
        (root / "manifest.json").write_text(json.dumps({"version": 99}))
        with pytest.raises(CorpusError, match="unsupported corpus version"):
            TraceStore.open(root)


class TestShardParallelDeterminism:
    def test_prefrozen_suite_skips_discovery_and_matches(
        self, tmp_path, racy_program, corpus
    ):
        store = _build_store(tmp_path / "c", racy_program, corpus)
        reference = IncrementalPipeline(store, program=racy_program)
        reference.bootstrap()

        warm = IncrementalPipeline(
            _build_store(tmp_path / "w", racy_program, corpus),
            program=racy_program,
            suite=reference.suite,
        )
        warm.bootstrap()
        # one bucket: the shard layout changes nothing
        one_bucket = IncrementalPipeline(
            _build_store(tmp_path / "one", racy_program, corpus, shard_width=0),
            program=racy_program,
            suite=reference.suite,
        )
        one_bucket.bootstrap()
        assert warm.matrix.pair_evaluations > 0
        assert one_bucket.matrix.pair_evaluations == warm.matrix.pair_evaluations
        for pipeline in (warm, one_bucket):
            assert pipeline.fully == reference.fully
            assert pipeline.dag.structure() == reference.dag.structure()
            for a, b in zip(pipeline.logs, reference.logs):
                assert dict(a.observations) == dict(b.observations)
                assert (a.failed, a.seed) == (b.failed, b.seed)

    def test_merged_dag_equals_rebuild(self, tmp_path, racy_program, corpus):
        store = _build_store(tmp_path / "c", racy_program, corpus)
        pipeline = IncrementalPipeline(store, program=racy_program)
        pipeline.bootstrap()
        assert pipeline.dag.structure() == pipeline.rebuild().structure()


def _obs(t: int) -> Observation:
    return Observation(start=t, end=t)


class TestIncrementalDebuggerMerge:
    """Per-shard SD counters merge into the whole corpus's counters."""

    def test_merge_equals_extend(self):
        logs_a = [
            PredicateLog(observations={"p": _obs(1)}, failed=True),
            PredicateLog(observations={"q": _obs(1)}, failed=False),
        ]
        logs_b = [
            PredicateLog(observations={"p": _obs(2), "q": _obs(3)}, failed=True),
        ]
        whole = StatisticalDebugger().extend(logs_a + logs_b)
        left = StatisticalDebugger().extend(logs_a)
        right = StatisticalDebugger().extend(logs_b)
        merged = StatisticalDebugger().merge(left).merge(right)
        assert merged == whole
        assert stats_tuples(merged) == rescan_stats(logs_a + logs_b)


class TestCompaction:
    def _analyzed(self, tmp_path, racy_program, corpus):
        store = _build_store(tmp_path / "c", racy_program, corpus)
        pipeline = IncrementalPipeline(store, program=racy_program)
        pipeline.bootstrap()
        pipeline.save()
        return store, pipeline

    def test_compact_reclaims_shadowed_rows_and_evicted_columns(
        self, tmp_path, racy_program, corpus
    ):
        store, pipeline = self._analyzed(tmp_path, racy_program, corpus)
        # Shadow a row: a predicate from a long-gone suite lingers in
        # one shard's matrix file with its own digest.
        sid = store.shard_ids[0]
        shard = EvalMatrix(store.shard_matrix_path(sid))
        ghost = "ghost[old:Predicate#0]"
        shard.evaluated[ghost] = (1 << len(shard.traces)) - 1
        shard.observed[ghost] = 1
        shard.digests[ghost] = "digest-of-a-dropped-definition"
        shard.observations.setdefault(shard.traces[0], {})[ghost] = [0, 1, 0, 1]
        shard.save()
        # Evict one trace; its matrix column survives until compaction.
        evicted = sorted(store.entries)[-1]
        assert store.evict(evicted)
        store.save()

        fresh = IncrementalPipeline(
            TraceStore.open(store.root), program=racy_program
        )
        fresh.bootstrap()
        assert fresh.matrix.pair_evaluations == 0  # eviction costs nothing
        stats = fresh.compact()
        assert stats.dropped_rows >= 1
        assert stats.dropped_columns >= 1
        assert stats.bytes_reclaimed > 0

        compacted = EvalMatrix(store.shard_matrix_path(sid))
        assert ghost not in compacted.evaluated
        assert ghost not in compacted.digests
        # and the surviving pairs still answer from the memo
        warm = IncrementalPipeline(
            TraceStore.open(store.root), program=racy_program
        )
        warm.bootstrap()
        assert warm.matrix.pair_evaluations == 0
        assert warm.fully == fresh.fully

    def test_compact_reclaims_fully_emptied_shards(
        self, tmp_path, racy_program, corpus
    ):
        store, pipeline = self._analyzed(tmp_path, racy_program, corpus)
        victim_sid = store.shard_ids[0]
        for fp in list(store.shard_entries(victim_sid)):
            assert store.evict(fp)
        store.save()
        fresh = IncrementalPipeline(
            TraceStore.open(store.root), program=racy_program
        )
        fresh.bootstrap()
        stats = fresh.compact()
        assert stats.bytes_reclaimed > 0
        # the emptied shard's matrix file and index entry are gone, so
        # evicted columns cannot resurrect on reopen
        assert not store.shard_matrix_path(victim_sid).exists()
        reopened = TraceStore.open(store.root).eval_matrix()
        assert victim_sid not in reopened.persisted_shard_ids()
        assert reopened.n_traces == len(TraceStore.open(store.root))

    def test_rebootstrap_rediscovers_unless_suite_injected(
        self, tmp_path, racy_program
    ):
        first = collect(racy_program, n_success=8, n_fail=8)
        more = collect(racy_program, n_success=12, n_fail=12)
        held_back = [
            t
            for t in more.successes + more.failures
            if t.seed not in {x.seed for x in first.successes + first.failures}
        ]
        store = _build_store(tmp_path / "c", racy_program, first)
        pipeline = IncrementalPipeline(store, program=racy_program)
        pipeline.bootstrap()
        frozen_by_bootstrap = pipeline.suite
        for trace in held_back:
            pipeline.ingest(trace)
        pipeline.bootstrap()  # a grown corpus gets a fresh discovery
        assert pipeline.suite is not frozen_by_bootstrap

        injected = IncrementalPipeline(
            _build_store(tmp_path / "i", racy_program, first),
            program=racy_program,
            suite=frozen_by_bootstrap,
        )
        injected.bootstrap()
        injected.bootstrap()  # explicit injection survives re-bootstrap
        assert injected.suite is frozen_by_bootstrap

    def test_compact_cli_reports_reclaimed_bytes(self, tmp_path, capsys):
        corpus_dir = str(tmp_path / "c")
        assert main(["corpus", "init", corpus_dir, "--workload", "network"]) == 0
        assert main(["corpus", "ingest", corpus_dir, "--runs", "4"]) == 0
        assert main(["corpus", "analyze", corpus_dir]) == 0
        capsys.readouterr()
        # evict a trace behind the CLI's back, then compact
        store = TraceStore.open(corpus_dir)
        assert store.evict(sorted(store.entries)[0])
        store.save()
        assert main(["corpus", "compact", corpus_dir]) == 0
        out = capsys.readouterr().out
        assert "evicted trace columns" in out
        assert "reclaimed" in out


class TestShardStatsCLI:
    def test_shard_stats_lists_populated_shards(self, tmp_path, capsys):
        corpus_dir = str(tmp_path / "c")
        assert main(["corpus", "init", corpus_dir, "--workload", "network"]) == 0
        assert main(["corpus", "ingest", corpus_dir, "--runs", "3"]) == 0
        capsys.readouterr()
        assert main(["corpus", "shard-stats", corpus_dir]) == 0
        out = capsys.readouterr().out
        assert "shards (width 2)" in out
        header = out.splitlines()[1].split()
        assert header == ["shard", "traces", "pass/fail", "memo", "pairs", "bytes"]
        store = TraceStore.open(corpus_dir)
        for sid in store.shard_ids:
            assert sid in out
