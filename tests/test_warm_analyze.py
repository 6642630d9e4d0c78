"""Warm analysis answered from the matrix: one global AC-DAG build, no
trace loads for decided pairs, no file writes on reads, and corrupt
corpus files reported as structured errors."""

from __future__ import annotations

import functools
import json
import shutil

import pytest

from conftest import run_side_by_side
from repro.cli import main
from repro.corpus import IncrementalPipeline, TraceStore
from repro.exec import ExecutionEngine
from repro.harness.runner import collect
from repro.harness.session import AIDSession, CorpusSession, SessionConfig
from repro.sim.serialize import trace_fingerprint

N_PER_LABEL = 12


@pytest.fixture(scope="module")
def corpus(racy_program):
    return collect(racy_program, n_success=N_PER_LABEL, n_fail=N_PER_LABEL)


@pytest.fixture(scope="module")
def live_dag(racy_program):
    """The live session's AC-DAG over the very traces ``corpus`` holds."""
    session = AIDSession(
        racy_program,
        SessionConfig(n_success=N_PER_LABEL, n_fail=N_PER_LABEL),
    )
    return session.build_dag()


def _build_store(root, racy_program, corpus, shard_width=2) -> TraceStore:
    store = TraceStore.init(
        root, program=racy_program.name, shard_width=shard_width
    )
    for trace in corpus.successes + corpus.failures:
        store.ingest(trace)
    store.save()
    return store


def _analyzed(
    root, racy_program, corpus, shard_width=2
) -> IncrementalPipeline:
    """A corpus analyzed once (cold) and saved."""
    pipeline = IncrementalPipeline(
        _build_store(root, racy_program, corpus, shard_width),
        program=racy_program,
    )
    pipeline.bootstrap()
    pipeline.save()
    return pipeline


def _new_traces(racy_program, corpus, n: int):
    """Up to ``n`` traces of each label the corpus does not hold yet."""
    held = {t.seed for t in corpus.successes + corpus.failures}
    extra = collect(racy_program, n_success=n, n_fail=n, start_seed=500)
    return [
        t for t in extra.successes + extra.failures if t.seed not in held
    ]


def _session_structure(racy_program, root):
    """The AC-DAG shape a session with its own engine analyzes the
    corpus at ``root`` to."""
    engine = ExecutionEngine()
    try:
        session = CorpusSession(
            racy_program, TraceStore.open(root), SessionConfig(engine=engine)
        )
        session.analyze()
    finally:
        engine.close()
    return session.build_dag().structure()


def _snapshot(root) -> dict:
    return {
        str(p): (p.stat().st_size, p.stat().st_mtime_ns)
        for p in sorted(root.rglob("*"))
        if p.is_file()
    }


class TestOneGlobalBuild:
    # The bootstrap is one serial pass; sessions carrying their own
    # engine (which runs interventions only) analyze to the same DAG,
    # also when they run side by side in threads or forked processes.
    @pytest.mark.parametrize("kind", ["thread", "process"])
    def test_bootstrap_equals_rebuild_and_live_session(
        self, tmp_path, racy_program, corpus, live_dag, kind
    ):
        structures = []
        for width in (2, 0):
            root = tmp_path / f"w{width}"
            pipeline = IncrementalPipeline(
                _build_store(root, racy_program, corpus, width),
                program=racy_program,
            )
            pipeline.bootstrap()
            assert pipeline.dag.structure() == pipeline.rebuild().structure()
            assert pipeline.dag.n_failed_logs == len(
                [log for log in pipeline.logs if log.failed]
            )
            structures.append(pipeline.dag.structure())
        sessions = run_side_by_side(
            kind,
            [
                functools.partial(
                    _session_structure, racy_program, tmp_path / f"w{width}"
                )
                for width in (2, 0)
            ],
        )
        assert sessions == structures
        assert structures[0] == structures[1] == live_dag.structure()

    def test_warm_bootstrap_equals_cold(self, tmp_path, racy_program, corpus):
        cold = _analyzed(tmp_path / "c", racy_program, corpus)
        warm = IncrementalPipeline(
            TraceStore.open(tmp_path / "c"), program=racy_program
        )
        warm.bootstrap()
        assert warm.matrix.pair_evaluations == 0
        assert warm.matrix.pair_hits == cold.matrix.pair_evaluations
        assert (warm.failure_pid, warm.fully) == (cold.failure_pid, cold.fully)
        assert warm.dag.structure() == cold.dag.structure()
        assert warm.debugger.counts == cold.debugger.counts


class TestReadsNeverWrite:
    def test_warm_cli_analyze_leaves_the_corpus_untouched(
        self, tmp_path, capsys
    ):
        root = tmp_path / "c"
        assert main(["corpus", "init", str(root), "--workload", "network"]) == 0
        assert main(["corpus", "ingest", str(root), "--runs", "4"]) == 0
        assert main(["corpus", "analyze", str(root)]) == 0
        capsys.readouterr()
        before = _snapshot(root)
        assert main(["corpus", "analyze", str(root)]) == 0
        assert "evaluation: 0 fresh" in capsys.readouterr().out
        assert _snapshot(root) == before

    def test_ingest_after_warm_bootstrap_is_persisted(
        self, tmp_path, racy_program, corpus
    ):
        # One bucket: the new traces land in an already-persisted shard
        # matrix, so only the column/evaluation mutators can dirty it.
        root = tmp_path / "c"
        _analyzed(root, racy_program, corpus, shard_width=0)
        warm = IncrementalPipeline(TraceStore.open(root), program=racy_program)
        warm.bootstrap()
        assert warm.matrix.pair_evaluations == 0
        for trace in _new_traces(racy_program, corpus, 2):
            warm.ingest(trace)
        assert warm.matrix.pair_evaluations > 0
        warm.save()

        again = IncrementalPipeline(
            TraceStore.open(root), program=racy_program, suite=warm.suite
        )
        again.bootstrap()
        assert again.matrix.pair_evaluations == 0
        assert again.dag.structure() == warm.dag.structure()

    def test_matrix_dirty_flag(self, tmp_path, racy_program, corpus):
        pipeline = _analyzed(tmp_path / "c", racy_program, corpus)
        store = pipeline.store
        sid = store.shard_ids[0]
        matrix = store.eval_matrix().shard(sid)
        assert not matrix.dirty
        entries = sorted(store.shard_entries(sid).items())
        fps = [fp for fp, _ in entries]

        def refuse(fingerprint):
            raise AssertionError(f"decided trace {fingerprint} was loaded")

        matrix.evaluate_group(
            pipeline.suite, [(fp, e.failed) for fp, e in entries], refuse
        )
        assert matrix.pair_hits == len(entries) * len(pipeline.suite)
        assert not matrix.dirty
        entry = store.entries[fps[0]]
        matrix.reconstruct_log(
            pipeline.suite, fps[0], entry.failed, entry.seed, entry.signature
        )
        matrix.log_for(pipeline.suite, store.load(fps[0]))
        assert not matrix.dirty  # memo answers are reads
        matrix.column("f" * 64, failed=False)
        assert matrix.dirty
        matrix.save()
        assert not matrix.dirty


class TestOnlyUndecidedTracesLoad:
    def test_bootstrap_loads_only_the_new_trace(
        self, tmp_path, racy_program, corpus, monkeypatch
    ):
        root = tmp_path / "c"
        reference = _analyzed(root, racy_program, corpus, shard_width=1)
        store = TraceStore.open(root)
        # A new trace that shares its shard with decided traces, so the
        # skip is exercised inside a shard as well as across shards.
        new = next(
            t
            for t in _new_traces(racy_program, corpus, 4)
            if store.shard_entries(store.shard_id(trace_fingerprint(t)))
        )
        fp, added = store.ingest(new)
        assert added
        store.save()
        assert len(store.shard_ids) > 1

        loaded = []
        load = TraceStore.load

        def spy(self, fingerprint):
            loaded.append(fingerprint)
            return load(self, fingerprint)

        monkeypatch.setattr(TraceStore, "load", spy)
        pipeline = IncrementalPipeline(
            store, program=racy_program, suite=reference.suite
        )
        pipeline.bootstrap()
        assert loaded == [fp]
        assert pipeline.matrix.pair_evaluations == len(reference.suite)
        assert pipeline.matrix.kernel_calls == 1
        assert pipeline.matrix.pair_hits == (len(store) - 1) * len(
            reference.suite
        )


class TestShardIndex:
    def test_index_tracks_every_mutator(self, tmp_path, racy_program, corpus):
        def check(store):
            scanned = {}
            for fp, entry in store.entries.items():
                scanned.setdefault(store.shard_id(fp), {})[fp] = entry
            assert store.shard_ids == sorted(scanned)
            for sid, rows in scanned.items():
                assert store.shard_entries(sid) == rows

        root = tmp_path / "c"
        store = _build_store(root, racy_program, corpus)
        check(store)
        emptied = store.shard_ids[0]
        for fp in list(store.shard_entries(emptied)):
            assert store.evict(fp)
        assert emptied not in store.shard_ids
        check(store)
        store.save()
        check(TraceStore.open(root))
        store.reshard(1)
        check(store)
        check(TraceStore.open(root))


def _flip_a_failed_label(payload: dict) -> None:
    payload["labels"][payload["labels"].index(1)] = 0


def _drop_observed(payload: dict) -> None:
    del payload["observed"]


def _future_version(payload: dict) -> None:
    payload["version"] = 9


def _non_hex_bitset(payload: dict) -> None:
    payload["observed"][0] = "zz"


def _negative_bitset(payload: dict) -> None:
    payload["observed"][0] = "-1"


def _short_labels(payload: dict) -> None:
    payload["labels"].pop()


def _failed_trace_windows(payload: dict) -> list:
    """The flat window list of the shard's first failed trace."""
    return payload["windows"][payload["labels"].index(1)]


def _window_not_a_list(payload: dict) -> None:
    payload["windows"][payload["labels"].index(1)] = 5


def _window_ends_before_start(payload: dict) -> None:
    windows = _failed_trace_windows(payload)
    windows[1] = windows[2] + 1


def _window_missing(payload: dict) -> None:
    del _failed_trace_windows(payload)[:5]


def _window_length_not_5k(payload: dict) -> None:
    _failed_trace_windows(payload).pop()


def _window_row_beyond_the_rows(payload: dict) -> None:
    _failed_trace_windows(payload)[-5] = 10**6


#: an eval-matrix index but for one field (``%s``)
_INDEX = '{"version": 3, "epoch": 0, %s}'


@pytest.fixture(scope="module")
def analyzed_network_corpus(tmp_path_factory):
    """A 10-trace network corpus, analyzed once (suite and matrix saved)."""
    root = tmp_path_factory.mktemp("network") / "c"
    assert main(["corpus", "init", str(root), "--workload", "network"]) == 0
    assert main(["corpus", "ingest", str(root), "--runs", "5"]) == 0
    assert main(["corpus", "analyze", str(root)]) == 0
    return root


class TestCorruptCorpusFiles:
    @pytest.mark.parametrize(
        "relpath, command",
        [
            ("shards/{sid}/manifest.json", "analyze"),
            ("shards/{sid}/manifest.json", "stats"),
            ("shards/{sid}/evalmatrix.json", "analyze"),
            ("shards/{sid}/evalmatrix.json", "stats"),
            ("evalmatrix.json", "stats"),
        ],
    )
    def test_truncated_file_is_a_corpus_error(
        self, tmp_path, capsys, relpath, command
    ):
        root = tmp_path / "c"
        assert main(["corpus", "init", str(root), "--workload", "network"]) == 0
        assert main(["corpus", "ingest", str(root), "--runs", "3"]) == 0
        assert main(["corpus", "analyze", str(root)]) == 0
        capsys.readouterr()
        sid = TraceStore.open(root).shard_ids[0]
        path = root / relpath.format(sid=sid)
        path.write_text(path.read_text()[:10])
        with pytest.raises(SystemExit) as excinfo:
            main(["corpus", command, str(root)])
        message = str(excinfo.value.code)
        assert message.startswith("repro: corpus: ")
        assert str(path) in message
        assert "unreadable" in message

    # Exploring into a corpus that holds both labels bootstraps the
    # same pipeline, so it refuses the same file, untouched, instead of
    # exploring on without analysis.
    def test_truncated_shard_matrix_stops_explore(self, tmp_path, capsys):
        root = tmp_path / "c"
        assert main(["corpus", "init", str(root), "--workload", "network"]) == 0
        assert main(["corpus", "ingest", str(root), "--runs", "3"]) == 0
        assert main(["corpus", "analyze", str(root)]) == 0
        capsys.readouterr()
        sid = TraceStore.open(root).shard_ids[0]
        path = root / "shards" / sid / "evalmatrix.json"
        path.write_text(path.read_text()[:10])
        before = (path.read_bytes(), path.stat().st_mtime_ns)
        with pytest.raises(SystemExit) as excinfo:
            main(["explore", "network", "--corpus", str(root), "--budget", "8"])
        message = str(excinfo.value.code)
        assert message.startswith("repro: --corpus: ")
        assert str(path) in message
        assert (path.read_bytes(), path.stat().st_mtime_ns) == before
        assert "explored" not in capsys.readouterr().out

    # A corrupt shard matrix must stop ``corpus analyze`` with an error
    # naming the file — never answer from it.
    @pytest.mark.parametrize(
        "corrupt",
        [
            _flip_a_failed_label,
            _drop_observed,
            _future_version,
            _non_hex_bitset,
            _negative_bitset,
            _short_labels,
            _window_not_a_list,
            _window_ends_before_start,
            _window_missing,
            _window_length_not_5k,
            _window_row_beyond_the_rows,
        ],
    )
    def test_corrupt_shard_matrix_is_a_corpus_error(
        self, tmp_path, capsys, analyzed_network_corpus, corrupt
    ):
        root = tmp_path / "c"
        shutil.copytree(analyzed_network_corpus, root)
        store = TraceStore.open(root)
        # a shard holding a failed trace, so every corruption applies
        sid = next(
            store.shard_id(fp)
            for fp, entry in sorted(store.entries.items())
            if entry.failed
        )
        path = store.shard_matrix_path(sid)
        payload = json.loads(path.read_text())
        corrupt(payload)
        path.write_text(json.dumps(payload))
        capsys.readouterr()
        with pytest.raises(SystemExit) as excinfo:
            main(["corpus", "analyze", str(root)])
        message = str(excinfo.value.code)
        assert message.startswith("repro: corpus: ")
        assert str(path) in message

    # JSON that parses but is not an object (or an index that is not
    # exactly a version, an epoch, rows and a list of shard ids) is a
    # structured error naming the file.
    @pytest.mark.parametrize(
        "relpath, text, command",
        [
            ("manifest.json", "[]", "analyze"),
            ("manifest.json", "[]", "stats"),
            ("shards/{sid}/manifest.json", "[]", "analyze"),
            ("shards/{sid}/manifest.json", "[]", "stats"),
            ("evalmatrix.json", "[]", "stats"),
            ("evalmatrix.json", "[]", "shard-stats"),
            ("evalmatrix.json", "[]", "compact"),
            ("evalmatrix.json", _INDEX % '"shards": 5', "stats"),
            ("evalmatrix.json", _INDEX % '"shards": [5]', "stats"),
            ("evalmatrix.json", _INDEX % '"shardz": ["00"]', "stats"),
            ("evalmatrix.json", _INDEX % '"rows": []', "stats"),
        ],
        ids=[
            "manifest-analyze",
            "manifest-stats",
            "shard-manifest-analyze",
            "shard-manifest-stats",
            "index-stats",
            "index-shard-stats",
            "index-compact",
            "index-shards-not-a-list",
            "index-shard-id-not-a-string",
            "index-unknown-key",
            "index-missing-shards",
        ],
    )
    def test_non_object_file_is_a_corpus_error(
        self, tmp_path, capsys, analyzed_network_corpus, relpath, text,
        command,
    ):
        root = tmp_path / "c"
        shutil.copytree(analyzed_network_corpus, root)
        sid = TraceStore.open(root).shard_ids[0]
        path = root / relpath.format(sid=sid)
        path.write_text(text)
        capsys.readouterr()
        with pytest.raises(SystemExit) as excinfo:
            main(["corpus", command, str(root)])
        message = str(excinfo.value.code)
        assert message.startswith("repro: corpus: ")
        assert str(path) in message
        assert "malformed" in message
        assert capsys.readouterr().out == ""

    # A manifest row of the wrong shape or type would read back as the
    # wrong label or seed, and a key that is not a fingerprint would
    # name a body path outside its shard: each is a structured error
    # naming the shard manifest and the row's key.  (``"key"`` adds a
    # copy of the row under ``value``.)
    @pytest.mark.parametrize(
        "field, value, command",
        [
            (None, "pass", "stats"),
            ("label", "FAIL", "stats"),
            ("seed", "7", "debug"),
            ("seed", True, "analyze"),
            ("signature", 5, "stats"),
            ("schedule", ["s"], "stats"),
            ("key", "../../victim", "stats"),
            ("key", "0123456789ABCDEF", "analyze"),
        ],
        ids=[
            "row-not-an-object",
            "label-not-pass-or-fail",
            "seed-a-string",
            "seed-a-bool",
            "signature-not-a-string",
            "schedule-not-a-string",
            "key-a-path",
            "key-upper-case",
        ],
    )
    def test_malformed_manifest_row_is_a_corpus_error(
        self, tmp_path, capsys, analyzed_network_corpus, field, value,
        command,
    ):
        root = tmp_path / "c"
        shutil.copytree(analyzed_network_corpus, root)
        store = TraceStore.open(root)
        fp = next(fp for fp, e in sorted(store.entries.items()) if e.failed)
        path = root / "shards" / store.shard_id(fp) / "manifest.json"
        payload = json.loads(path.read_text())
        key = fp
        if field is None:
            payload["traces"][fp] = value
        elif field == "key":
            key = value
            payload["traces"][key] = payload["traces"][fp]
        else:
            payload["traces"][fp][field] = value
        path.write_text(json.dumps(payload))
        capsys.readouterr()
        argv = (
            ["debug", "network", "--corpus", str(root)]
            if command == "debug"
            else ["corpus", command, str(root)]
        )
        with pytest.raises(SystemExit) as excinfo:
            main(argv)
        message = str(excinfo.value.code)
        flag = "--corpus" if command == "debug" else "corpus"
        assert message.startswith(f"repro: {flag}: ")
        assert str(path) in message
        assert key in message

    def test_non_object_suite_is_rediscovered(
        self, tmp_path, capsys, analyzed_network_corpus
    ):
        root = tmp_path / "c"
        shutil.copytree(analyzed_network_corpus, root)
        capsys.readouterr()
        assert main(["corpus", "analyze", str(root)]) == 0
        warm = capsys.readouterr().out
        suite_path = root / "suite.json"
        suite_path.write_text("[]")
        assert main(["corpus", "analyze", str(root)]) == 0
        rediscovered = capsys.readouterr().out
        assert "reused from the persisted freeze" in warm
        assert "reused from the persisted freeze" not in rediscovered

        def report(out: str) -> list[str]:
            return [
                line for line in out.splitlines()
                if not line.startswith(("suite", "evaluation"))
            ]

        assert report(rediscovered) == report(warm)
        assert isinstance(json.loads(suite_path.read_text()), dict)
