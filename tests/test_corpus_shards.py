"""The sharded corpus layout: the v1/v2→v3 upgrade, analysis independent
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
from repro.corpus.store import LEGACY_SHARD_FILES, upgrade
from repro.harness.runner import collect

from conftest import rescan_stats, stats_tuples
from test_warm_analyze import _snapshot, analyzed_network_corpus  # noqa: F401


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
        with pytest.raises(CorpusError, match="repro corpus upgrade"):
            TraceStore.open(v1)
        assert upgrade(v1) == (1, 0)
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
        upgrade(v1)
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


def _older_copy(current: Path, root: Path, version: int) -> Path:
    """A copy of ``current`` in the layout of an older store version."""
    if version == 1:
        _downgrade_to_v1(current, root)
    else:
        shutil.copytree(current, root)
        manifest = json.loads((root / "manifest.json").read_text())
        manifest["version"] = version
        (root / "manifest.json").write_text(json.dumps(manifest))
    return root


class _Crash(Exception):
    pass


class TestUpgradeDoor:
    # Every read-only command refuses an older corpus with the upgrade
    # hint and leaves every file as it was.
    @pytest.mark.parametrize("version", [1, 2])
    @pytest.mark.parametrize(
        "command", ["stats", "shard-stats", "analyze", "debug"]
    )
    def test_read_only_commands_refuse_an_older_corpus_untouched(
        self, tmp_path, analyzed_network_corpus, version, command
    ):
        root = _older_copy(analyzed_network_corpus, tmp_path / "old", version)
        before = _snapshot(root)
        argv = (
            ["debug", "network", "--corpus", str(root)]
            if command == "debug"
            else ["corpus", command, str(root)]
        )
        with pytest.raises(SystemExit) as excinfo:
            main(argv)
        message = str(excinfo.value.code)
        assert f"version {version} corpus" in message
        assert f"repro corpus upgrade {root}" in message
        assert _snapshot(root) == before

    @pytest.mark.parametrize("version", [1, 2])
    def test_upgrade_restores_a_warm_corpus(
        self, tmp_path, capsys, analyzed_network_corpus, version
    ):
        root = _older_copy(analyzed_network_corpus, tmp_path / "old", version)
        capsys.readouterr()
        assert main(["corpus", "upgrade", str(root)]) == 0
        out = capsys.readouterr().out
        assert f"found version {version}, now version 3" in out
        assert main(["corpus", "analyze", str(root)]) == 0
        assert "evaluation: 0 fresh" in capsys.readouterr().out
        before = _snapshot(root)
        assert upgrade(root) == (3, 0)
        assert _snapshot(root) == before

    def test_v2_upgrade_changes_only_the_version(
        self, tmp_path, analyzed_network_corpus
    ):
        root = _older_copy(analyzed_network_corpus, tmp_path / "v2", 2)
        upgrade(root)
        for path in sorted(analyzed_network_corpus.rglob("*")):
            if path.is_file():
                copy = root / path.relative_to(analyzed_network_corpus)
                assert copy.read_bytes() == path.read_bytes(), path

    def test_sidecars_are_deleted_once(self, tmp_path, analyzed_network_corpus):
        root = tmp_path / "c"
        shutil.copytree(analyzed_network_corpus, root)
        for shard in (root / "shards").iterdir():
            for name in LEGACY_SHARD_FILES:
                (shard / name).write_bytes(b"junk")
        n_shards = len(list((root / "shards").iterdir()))
        assert upgrade(root) == (3, n_shards * len(LEGACY_SHARD_FILES))
        assert not list(root.rglob("columnar.bin*"))
        before = _snapshot(root)
        assert upgrade(root) == (3, 0)
        assert _snapshot(root) == before

    @pytest.mark.parametrize(
        "key, row",
        [
            (None, {"label": "FAIL", "seed": 0, "signature": None}),
            (None, {"label": "pass", "seed": "7", "signature": None}),
            ("../../victim", None),
        ],
        ids=["label", "seed", "key"],
    )
    def test_malformed_v1_is_refused_untouched(
        self, tmp_path, analyzed_network_corpus, key, row
    ):
        root = _older_copy(analyzed_network_corpus, tmp_path / "v1", 1)
        path = root / "manifest.json"
        manifest = json.loads(path.read_text())
        fp = sorted(manifest["traces"])[-1]
        if key is None:
            manifest["traces"][fp] = row
        else:
            fp = key
            manifest["traces"][key] = next(iter(manifest["traces"].values()))
        path.write_text(json.dumps(manifest))
        before = _snapshot(root)
        with pytest.raises(CorpusError, match="is malformed") as excinfo:
            upgrade(root)
        assert fp in str(excinfo.value)
        assert _snapshot(root) == before

    # A v2 corpus is checked as open checks a v3 one before its manifest
    # is rewritten: a malformed one is refused naming the file, every
    # byte and mtime left as they were.
    @pytest.mark.parametrize(
        "relpath, field, value, named",
        [
            ("manifest.json", "shard_width", "2", "shard_width"),
            ("manifest.json", "shards", [".."], "'..'"),
            ("manifest.json", "extra", 1, "'extra'"),
            ("manifest.json", "program", 5, "program"),
            ("shards/{sid}/manifest.json", "traces", [], "traces"),
        ],
        ids=[
            "width-a-string",
            "shard-id-a-path",
            "unknown-key",
            "program-an-int",
            "traces-a-list",
        ],
    )
    def test_malformed_v2_is_refused_untouched(
        self, tmp_path, analyzed_network_corpus, relpath, field, value, named
    ):
        root = _older_copy(analyzed_network_corpus, tmp_path / "v2", 2)
        sid = TraceStore.open(analyzed_network_corpus).shard_ids[0]
        path = root / relpath.format(sid=sid)
        payload = json.loads(path.read_text())
        payload[field] = value
        path.write_text(json.dumps(payload))
        before = _snapshot(root)
        with pytest.raises(CorpusError) as excinfo:
            upgrade(root)
        message = str(excinfo.value)
        assert message.startswith(f"{path} is malformed: ")
        assert named in message
        assert _snapshot(root) == before

    # A top-level or shard manifest field of the wrong type or range is
    # a structured error naming the file and the field, from every
    # command, and never a traceback or a shard read from outside
    # ``shards/``.
    @pytest.mark.parametrize(
        "relpath, field, value, named",
        [
            ("manifest.json", "shard_width", "2", "shard_width"),
            ("manifest.json", "shard_width", 7, "shard_width"),
            ("manifest.json", "shards", [".."], "'..'"),
            ("manifest.json", "shards", "ab", "shards"),
            ("manifest.json", "program", 5, "program"),
            ("manifest.json", "extra", 1, "'extra'"),
            ("shards/{sid}/manifest.json", "traces", [], "traces"),
        ],
        ids=[
            "width-a-string",
            "width-out-of-range",
            "shard-id-a-path",
            "shards-a-string",
            "program-an-int",
            "unknown-key",
            "traces-a-list",
        ],
    )
    @pytest.mark.parametrize("command", ["stats", "analyze"])
    def test_malformed_manifest_is_a_corpus_error(
        self, tmp_path, capsys, analyzed_network_corpus, relpath, field,
        value, named, command,
    ):
        root = tmp_path / "c"
        shutil.copytree(analyzed_network_corpus, root)
        sid = TraceStore.open(root).shard_ids[0]
        path = root / relpath.format(sid=sid)
        payload = json.loads(path.read_text())
        payload[field] = value
        path.write_text(json.dumps(payload))
        capsys.readouterr()
        with pytest.raises(SystemExit) as excinfo:
            main(["corpus", command, str(root)])
        message = str(excinfo.value.code)
        assert message.startswith(f"repro: corpus: {path} is malformed: ")
        assert named in message
        assert capsys.readouterr().out == ""

    # A session-mode run that fails on the corpus before the engine ran
    # prints no empty engine block.
    def test_debug_on_an_older_corpus_prints_nothing(
        self, tmp_path, capsys, analyzed_network_corpus
    ):
        root = _older_copy(analyzed_network_corpus, tmp_path / "old", 2)
        capsys.readouterr()
        with pytest.raises(SystemExit, match="repro corpus upgrade"):
            main(["debug", "network", "--corpus", str(root)])
        assert capsys.readouterr().out == ""

    @pytest.mark.parametrize("version", [99, True, 3.0])
    def test_no_reader_takes_an_unknown_version(self, tmp_path, version):
        root = tmp_path / "c"
        root.mkdir()
        (root / "manifest.json").write_text(json.dumps({"version": version}))
        for read in (TraceStore.open, upgrade):
            with pytest.raises(CorpusError, match="unsupported corpus version"):
                read(root)

    def test_an_older_matrix_index_is_an_error(
        self, tmp_path, analyzed_network_corpus
    ):
        root = tmp_path / "c"
        shutil.copytree(analyzed_network_corpus, root)
        index = root / "evalmatrix.json"
        payload = json.loads(index.read_text())
        payload["version"] = 1
        index.write_text(json.dumps(payload))
        with pytest.raises(CorpusError, match="eval-matrix index version"):
            TraceStore.open(root).eval_matrix().n_pairs
        with pytest.raises(SystemExit, match=str(index)):
            main(["corpus", "stats", str(root)])

    # A crash at any write of a v1 upgrade, then a second upgrade, leaves
    # the corpus the reference analyzes to, with every pair memoized.
    def test_crash_at_every_write_is_finished_by_a_rerun(
        self, tmp_path, racy_program, monkeypatch
    ):
        small = collect(racy_program, n_success=4, n_fail=4)
        reference = IncrementalPipeline(
            _build_store(tmp_path / "ref", racy_program, small),
            program=racy_program,
        )
        reference.bootstrap()
        reference.save()
        v1 = tmp_path / "v1"
        _downgrade_to_v1(tmp_path / "ref", v1)

        writes = []
        real = {name: getattr(Path, name) for name in ("replace", "write_text")}

        def counting(name, fail_at):
            def write(self, *args, **kwargs):
                writes.append(name)
                if len(writes) == fail_at:
                    raise _Crash(f"{name} #{fail_at}")
                return real[name](self, *args, **kwargs)

            return write

        def upgrade_failing_at(root, fail_at):
            writes.clear()
            for name in real:
                monkeypatch.setattr(Path, name, counting(name, fail_at))
            try:
                upgrade(root)
            finally:
                monkeypatch.undo()

        upgrade_failing_at(shutil.copytree(v1, tmp_path / "count"), 0)
        n_writes = len(writes)
        assert n_writes > len(small.successes + small.failures)
        for k in range(1, n_writes + 1):
            root = shutil.copytree(v1, tmp_path / f"crash{k}")
            with pytest.raises(_Crash):
                upgrade_failing_at(root, k)
            assert upgrade(root)[0] in (1, 3)
            pipeline = IncrementalPipeline(
                TraceStore.open(root), program=racy_program
            )
            pipeline.bootstrap()
            assert pipeline.matrix.pair_evaluations == 0, k
            assert pipeline.fully == reference.fully, k
            assert pipeline.dag.structure() == reference.dag.structure(), k


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
