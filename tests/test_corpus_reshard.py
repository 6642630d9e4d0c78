"""Resharding and predicate-suite persistence: the corpus can change
shape (``repro corpus reshard``) and stay warm (``suite.json``) without
ever re-paying an evaluation or a discovery pass."""

from __future__ import annotations

import json

import pytest

import repro
from repro.api import CorpusSpec, EventLog, RunSpec, run
from repro.cli import main
from repro.core.extraction import PredicateSuite
from repro.corpus import CorpusError, IncrementalPipeline, TraceStore


def canonical(report) -> str:
    return json.dumps(report.to_dict(), sort_keys=True)


def analyze(corpus_dir: str):
    """One incremental analyze via the API; returns (report, event log)."""
    log = EventLog()
    report = run(
        RunSpec(corpus=CorpusSpec(dir=corpus_dir, mode="incremental")),
        observers=[log],
    )
    return report, log


@pytest.fixture()
def corpus_dir(tmp_path, request):
    """A five-run corpus of ``network``, or of the workload a test
    names by indirect parametrization."""
    workload = getattr(request, "param", "network")
    d = str(tmp_path / "corpus")
    assert main(["corpus", "init", d, "--workload", workload]) == 0
    assert main(["corpus", "ingest", d, "--runs", "5"]) == 0
    return d


@pytest.fixture()
def analyzed_corpus(corpus_dir):
    """A corpus with one cold analyze behind it."""
    report, log = analyze(corpus_dir)
    return corpus_dir, canonical(report), log


class TestReshard:
    @pytest.mark.parametrize("width", [0, 1])
    def test_reshard_preserves_everything(self, analyzed_corpus, width):
        corpus_dir, baseline, cold_log = analyzed_corpus
        assert cold_log.first("logs-evaluated").fresh > 0

        before = TraceStore.open(corpus_dir)
        entries_before = dict(before.entries)
        stats = before.reshard(width)
        assert stats["n_traces"] == len(entries_before)
        assert stats["pairs_preserved"] > 0

        after = TraceStore.open(corpus_dir)
        assert after.shard_width == width
        assert dict(after.entries) == entries_before
        # every trace body is readable from its new shard
        for fp in entries_before:
            assert after.load(fp).fingerprint == fp

        # the migration is free: zero fresh evaluations, zero
        # rediscovery, byte-identical analysis report
        report, log = analyze(corpus_dir)
        assert log.first("logs-evaluated").fresh == 0
        assert log.first("suite-frozen").source == "persisted"
        assert canonical(report) == baseline

    def test_round_trip_through_many_widths(self, analyzed_corpus):
        corpus_dir, baseline, _ = analyzed_corpus
        for width in (0, 3, 1, 2):
            TraceStore.open(corpus_dir).reshard(width)
            report, log = analyze(corpus_dir)
            assert log.first("logs-evaluated").fresh == 0
            assert canonical(report) == baseline

    def test_same_width_is_a_noop(self, corpus_dir):
        store = TraceStore.open(corpus_dir)
        stats = store.reshard(store.shard_width)
        assert stats["shards_before"] == stats["shards_after"]

    def test_invalid_width_rejected(self, corpus_dir):
        with pytest.raises(CorpusError, match="between 0 and 4"):
            TraceStore.open(corpus_dir).reshard(9)

    def test_old_shard_dirs_are_removed(self, analyzed_corpus):
        corpus_dir, _, _ = analyzed_corpus
        from repro.corpus.store import SHARDS_DIR

        store = TraceStore.open(corpus_dir)
        old_sids = set(store.shard_ids)
        store.reshard(0)
        remaining = {
            p.name
            for p in (store.root / SHARDS_DIR).iterdir()
            if p.is_dir()
        }
        assert remaining == {"all"}
        assert not (old_sids & remaining)

    def test_interrupted_cleanup_finishes_on_rerun(
        self, analyzed_corpus, monkeypatch
    ):
        """Crash between the manifest commit and the old-dir cleanup:
        the corpus stays consistent, and re-running reshard with the
        already-committed width removes the leftovers."""
        import shutil

        corpus_dir, baseline, _ = analyzed_corpus
        from repro.corpus.store import SHARDS_DIR

        monkeypatch.setattr(shutil, "rmtree", lambda *a, **k: None)
        TraceStore.open(corpus_dir).reshard(1)
        monkeypatch.undo()

        store = TraceStore.open(corpus_dir)
        shards_root = store.root / SHARDS_DIR
        stale = {
            p.name
            for p in shards_root.iterdir()
            if p.is_dir() and not store.is_valid_shard_id(p.name)
        }
        assert stale  # the old width-2 directories survived the "crash"

        # ... but they are invisible: no double-counted pairs, and the
        # analysis is unchanged
        report, log = analyze(corpus_dir)
        assert log.first("logs-evaluated").fresh == 0
        assert canonical(report) == baseline

        # the documented recovery: re-run with the committed width
        store = TraceStore.open(corpus_dir)
        store.reshard(1)
        remaining = {p.name for p in shards_root.iterdir() if p.is_dir()}
        assert not (stale & remaining)

    def test_width0_sentinel_is_not_a_valid_width3_id(self, tmp_path):
        """``"all"`` is three characters long but must never pass for a
        width-3 hex prefix: reshard 0 -> 3 has to remove ``shards/all``
        and the index filter must reject it."""
        d = str(tmp_path / "flat")
        assert main(["corpus", "init", d, "--workload", "network",
                     "--shard-width", "0"]) == 0
        assert main(["corpus", "ingest", d, "--runs", "4"]) == 0
        baseline, _ = analyze(d)
        store = TraceStore.open(d)
        assert store.is_valid_shard_id("all")
        store.reshard(3)
        after = TraceStore.open(d)
        assert not after.is_valid_shard_id("all")
        from repro.corpus.store import SHARDS_DIR

        remaining = {
            p.name for p in (after.root / SHARDS_DIR).iterdir() if p.is_dir()
        }
        assert "all" not in remaining
        report, log = analyze(d)
        assert log.first("logs-evaluated").fresh == 0
        assert canonical(report) == canonical(baseline)

    def test_stale_index_entries_of_other_widths_ignored(
        self, analyzed_corpus
    ):
        """Index entries left by an interrupted reshard (other-width
        shard ids) must never double-count memoized pairs."""
        corpus_dir, _, _ = analyzed_corpus
        store = TraceStore.open(corpus_dir)
        pairs_before = store.eval_matrix().n_pairs
        index = json.loads(store.matrix_index_path.read_text())
        index["shards"] = sorted(set(index["shards"]) | {"all", "a"})
        store.matrix_index_path.write_text(json.dumps(index))
        matrix = TraceStore.open(corpus_dir).eval_matrix()
        assert all(
            store.is_valid_shard_id(sid)
            for sid in matrix.persisted_shard_ids()
        )
        assert matrix.n_pairs == pairs_before

    def test_cli_reshard(self, analyzed_corpus, capsys):
        corpus_dir, baseline, _ = analyzed_corpus
        assert main(["corpus", "reshard", corpus_dir, "--width", "1"]) == 0
        out = capsys.readouterr().out
        assert "width 2 -> 1" in out
        assert "memoized pairs preserved" in out
        assert main(["corpus", "reshard", corpus_dir, "--width", "1"]) == 0
        assert "nothing to do" in capsys.readouterr().out
        report, _ = analyze(corpus_dir)
        assert canonical(report) == baseline


class TestSuitePersistence:
    def test_cold_analyze_persists_the_suite(self, analyzed_corpus):
        corpus_dir, _, log = analyzed_corpus
        assert log.first("suite-frozen").source == "discovered"
        store = TraceStore.open(corpus_dir)
        assert store.suite_path.exists()
        payload = json.loads(store.suite_path.read_text())
        assert payload["corpus_digest"] == store.content_digest
        assert payload["program"] == "network-controlplane"

    def test_warm_analyze_skips_discovery(self, analyzed_corpus, monkeypatch):
        corpus_dir, baseline, _ = analyzed_corpus

        def boom(*args, **kwargs):
            raise AssertionError("discovery ran on a warm corpus")

        monkeypatch.setattr(PredicateSuite, "discover", boom)
        report, log = analyze(corpus_dir)
        assert log.first("suite-frozen").source == "persisted"
        assert log.first("logs-evaluated").fresh == 0
        assert canonical(report) == baseline

    def test_content_change_invalidates_the_suite(self, analyzed_corpus):
        corpus_dir, _, _ = analyzed_corpus
        assert main(["corpus", "ingest", corpus_dir, "--runs", "1"]) == 0
        store = TraceStore.open(corpus_dir)
        assert store.load_suite(program="network-controlplane") is None
        _, log = analyze(corpus_dir)
        assert log.first("suite-frozen").source == "discovered"
        # ... and the new freeze is persisted for the next warm start
        _, warm_log = analyze(corpus_dir)
        assert warm_log.first("suite-frozen").source == "persisted"

    def test_program_mismatch_invalidates_the_suite(self, analyzed_corpus):
        corpus_dir, _, _ = analyzed_corpus
        store = TraceStore.open(corpus_dir)
        assert store.load_suite(program="network-controlplane") is not None
        assert store.load_suite(program=None) is None
        assert store.load_suite(program="other-program") is None

    def test_custom_extractors_do_not_use_the_persisted_suite(
        self, analyzed_corpus
    ):
        from repro.core.extraction import FailureExtractor, MethodFailsExtractor

        corpus_dir, _, _ = analyzed_corpus
        store = TraceStore.open(corpus_dir)
        workload = repro.load_workload("network")
        pipeline = IncrementalPipeline(
            store,
            program=workload.program,
            extractors=[MethodFailsExtractor(), FailureExtractor()],
        )
        pipeline.bootstrap()
        # the persisted (full-catalogue) suite was not reused
        assert all(
            pid.startswith(("fails(", "FAILURE[")) for pid in pipeline.suite.pids()
        )

    def test_suite_round_trip_preserves_fingerprint(self, analyzed_corpus):
        corpus_dir, _, _ = analyzed_corpus
        store = TraceStore.open(corpus_dir)
        suite = store.load_suite(program="network-controlplane")
        clone = PredicateSuite.from_dict(suite.to_dict())
        assert clone.pids() == suite.pids()
        assert list(clone.defs) == list(suite.defs)  # order preserved
        assert clone.fingerprint == suite.fingerprint

    def test_unknown_suite_version_ignored(self, analyzed_corpus):
        corpus_dir, _, _ = analyzed_corpus
        store = TraceStore.open(corpus_dir)
        payload = json.loads(store.suite_path.read_text())
        payload["version"] = 99
        store.suite_path.write_text(json.dumps(payload))
        assert store.load_suite(program="network-controlplane") is None
        _, log = analyze(corpus_dir)
        assert log.first("suite-frozen").source == "discovered"

    #: wrong-typed field rewrites: (predicate type, field, new value);
    #: ``None`` turns the stored value into its string
    MISTYPED = {
        "obj-int": ("DataRacePredicate", "obj", 5),
        "threshold-bool": ("TooSlowPredicate", "threshold", True),
        "threshold-str": ("TooSlowPredicate", "threshold", None),
        "signature-int": ("FailurePredicate", "signature", 5),
    }

    @pytest.mark.parametrize(
        ("corpus_dir", "bad"),
        [
            pytest.param("network", bad, id=bad)
            for bad in (
                "string-occurrence", "bare-int", "fields-list",
                "predicate-string",
            )
        ]
        # the network corpus holds no race predicate; npgsql's holds
        # one of every type the rewrites name
        + [pytest.param("npgsql", bad, id=bad) for bad in MISTYPED],
        indirect=["corpus_dir"],
    )
    def test_malformed_predicate_invalidates_the_suite(
        self, analyzed_corpus, bad
    ):
        corpus_dir, baseline, _ = analyzed_corpus
        store = TraceStore.open(corpus_dir)
        payload = json.loads(store.suite_path.read_text())
        predicates = payload["suite"]["predicates"]
        if bad in self.MISTYPED:
            type_name, field, value = self.MISTYPED[bad]
            pred = next(p for p in predicates if p["type"] == type_name)
            if value is None:
                value = str(pred["fields"][field])
            pred["fields"][field] = value
        else:
            i, pred = next(
                (i, p) for i, p in enumerate(predicates)
                if isinstance(p["fields"].get("key"), dict)
            )
            method, thread, occurrence = pred["fields"]["key"]["$key"]
            if bad == "string-occurrence":
                pred["fields"]["key"] = {
                    "$key": [method, thread, str(occurrence)]
                }
            elif bad == "bare-int":
                pred["fields"]["key"] = 1
            elif bad == "fields-list":
                pred["fields"] = []
            else:
                predicates[i] = "x"
        store.suite_path.write_text(json.dumps(payload))
        assert store.load_suite(program=payload["program"]) is None
        report, log = analyze(corpus_dir)
        assert log.first("suite-frozen").source == "discovered"
        assert canonical(report) == baseline

    @pytest.mark.parametrize("suite", [[], "x", 5])
    def test_non_object_suite_invalidates_the_suite(
        self, analyzed_corpus, suite
    ):
        corpus_dir, _, _ = analyzed_corpus
        store = TraceStore.open(corpus_dir)
        payload = json.loads(store.suite_path.read_text())
        payload["suite"] = suite
        store.suite_path.write_text(json.dumps(payload))
        assert store.load_suite(program="network-controlplane") is None

    def test_warm_debug_still_pays_zero_evaluations(
        self, analyzed_corpus, capsys
    ):
        """The CorpusSession path keeps its own guarantee next to the
        persisted-suite fast path."""
        corpus_dir, _, _ = analyzed_corpus
        assert main(["debug", "network", "--corpus", corpus_dir]) == 0
        out = capsys.readouterr().out
        assert "0 fresh predicate evaluations" in out
