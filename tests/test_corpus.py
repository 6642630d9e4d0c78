"""The trace-corpus subsystem: store, eval matrix, incremental pipeline,
corpus sessions, and the ``repro corpus`` CLI."""

from __future__ import annotations

import hashlib
import json
import random
import re
from pathlib import Path

import pytest

from repro.cli import main
from repro.core.acdag import ACDag, log_columns
from repro.core.predicates import ExecutedPredicate, FailurePredicate, Observation
from repro.core.statistical import PredicateLog, StatisticalDebugger
from repro.corpus import (
    CorpusError,
    EvalMatrix,
    IncrementalPipeline,
    TraceStore,
)
from repro.exec.cache import RunRequest
from repro.harness.runner import LabeledCorpus, collect
from repro.harness.session import AIDSession, CorpusSession, SessionConfig
from repro.sim.serialize import (
    TraceFormatError,
    canonical_json,
    stable_digest,
    trace_fingerprint,
    trace_from_dict,
    trace_from_json,
    trace_to_json,
)
from repro.sim.tracing import MethodKey

from conftest import rescan_stats, stats_tuples
from gen import make_payload


def _stored_corpus(store) -> LabeledCorpus:
    """The stored traces split by label, each fingerprint-sorted."""
    return LabeledCorpus(
        successes=list(store.traces("pass")),
        failures=list(store.traces("fail")),
    )


FIXTURES = Path(__file__).parent / "fixtures"


@pytest.fixture(scope="module")
def corpus(racy_program):
    return collect(racy_program, n_success=20, n_fail=20)


@pytest.fixture
def store(tmp_path, racy_program, corpus):
    """A store seeded with 15+15 traces (5+5 held back for ingestion)."""
    store = TraceStore.init(tmp_path / "corpus", program=racy_program.name)
    for trace in corpus.successes[:15] + corpus.failures[:15]:
        _, added = store.ingest(trace)
        assert added
    store.save()
    return store


class TestFingerprints:
    def test_stable_digest_is_order_insensitive(self):
        assert stable_digest({"a": 1, "b": 2}) == stable_digest({"b": 2, "a": 1})
        assert stable_digest({"a": 1}) != stable_digest({"a": 2})

    def test_trace_fingerprint_survives_round_trip(self, corpus):
        trace = corpus.failures[0]
        restored = trace_from_json(trace_to_json(trace))
        assert trace_fingerprint(trace) == trace_fingerprint(restored)

    def test_run_request_shares_the_scheme(self):
        a = RunRequest(workload="w", seed=3, pids=frozenset({"p", "q"}))
        b = RunRequest(workload="w", seed=3, pids=frozenset({"q", "p"}))
        assert a.fingerprint == b.fingerprint
        assert len(a.fingerprint) == len(trace_fingerprint_sample())
        c = RunRequest(workload="w", seed=4, pids=frozenset({"p", "q"}))
        assert a.fingerprint != c.fingerprint


def trace_fingerprint_sample() -> str:
    return stable_digest({})


class TestTraceStore:
    def test_ingest_dedups_by_content(self, store, corpus):
        fp, added = store.ingest(corpus.successes[0])
        assert not added
        assert len(store) == 30

    def test_ingest_payload_dedups_against_live(self, store, corpus):
        payload = json.loads(trace_to_json(corpus.failures[0]))
        fp, added = store.ingest_payload(payload)
        assert not added

    def test_golden_body_with_an_extra_key_dedups(self, tmp_path):
        """An ignored extra key does not make a second copy: the store
        fingerprints the trace as decoded, so SD counts each execution
        once."""
        body = FIXTURES / "golden_corpus/shards/21/traces/21a529aca5e4ae11.json"
        payload = json.loads(body.read_text())
        store = TraceStore.init(tmp_path / "c")
        assert store.ingest_payload(payload) == ("21a529aca5e4ae11", True)
        noted = {**payload, "note": "re-sent"}
        assert store.ingest_payload(noted) == ("21a529aca5e4ae11", False)
        assert list(store.entries) == ["21a529aca5e4ae11"]

    def test_every_body_is_the_bytes_its_name_hashes(self, store):
        for fp in store.entries:
            body = store.trace_path(fp).read_bytes()
            assert hashlib.sha256(body).hexdigest()[:16] == fp

    def test_labels_and_signatures(self, store, corpus):
        assert store.n_pass == 15
        assert store.n_fail == 15
        sig = corpus.failures[0].failure.signature
        assert store.dominant_failure_signature() == sig
        assert store.signature_counts() == {sig: 15}

    def test_loaded_traces_carry_fingerprints(self, store):
        for trace in store.traces():
            assert trace.fingerprint in store
            assert trace_fingerprint(trace) == trace.fingerprint

    def test_labeled_corpus_round_trips(self, store, corpus):
        loaded = _stored_corpus(store)
        assert len(loaded.successes) == 15
        assert len(loaded.failures) == 15
        original = {trace_fingerprint(t) for t in corpus.failures[:15]}
        assert {t.fingerprint for t in loaded.failures} == original

    def test_warm_reopen(self, store):
        reopened = TraceStore.open(store.root)
        assert len(reopened) == len(store)
        assert reopened.program == store.program
        assert set(reopened.entries) == set(store.entries)

    def test_init_refuses_to_clobber(self, store):
        with pytest.raises(CorpusError, match="already holds"):
            TraceStore.init(store.root)

    def test_open_requires_a_corpus(self, tmp_path):
        with pytest.raises(CorpusError, match="not a corpus"):
            TraceStore.open(tmp_path / "nowhere")

    def test_rejects_foreign_program(self, store, corpus):
        payload = json.loads(trace_to_json(corpus.successes[1]))
        payload["program"] = "some-other-program"
        with pytest.raises(CorpusError, match="some-other-program"):
            store.ingest_payload(payload)



def _gen_payload() -> dict:
    """A ``tests/gen.py`` trace with a failure and a call that has
    an access, so every corruption below has a field to hit."""
    rng = random.Random(7)
    while True:
        payload = make_payload(rng, seed=1, failed=True)
        if any(c["accesses"] for c in payload["calls"]):
            return payload


def _first_access(payload: dict) -> dict:
    return next(c for c in payload["calls"] if c["accesses"])["accesses"][0]


#: One corruption per case: a missing key or a wrong-typed field at
#: every level of the schema (trace, failure, call, access).
CORRUPTIONS = {
    "no-calls": lambda p: p.pop("calls"),
    "calls-not-a-list": lambda p: p.update(calls=5),
    "no-end-time": lambda p: p["calls"][0].pop("end_time"),
    "string-start-time": lambda p: p["calls"][0].update(start_time="5"),
    "bool-occurrence": lambda p: p["calls"][0].update(occurrence=True),
    "list-method": lambda p: p["calls"][0].update(method=["m"]),
    "null-accesses": lambda p: p["calls"][0].update(accesses=None),
    "call-is-a-list": lambda p: p["calls"].append([1, 2]),
    "string-locks": lambda p: _first_access(p).update(locks="L0"),
    "unknown-access-type": lambda p: _first_access(p).update(type="X"),
    "float-access-time": lambda p: _first_access(p).update(time=1.5),
    "failure-without-mode": lambda p: p["failure"].pop("mode"),
    "int-failure-thread": lambda p: p["failure"].update(thread=3),
    "string-seed": lambda p: p.update(seed="1"),
}


class TestMalformedTraces:
    @pytest.mark.parametrize("case", sorted(CORRUPTIONS))
    def test_decode_raises_a_format_error(self, case):
        payload = _gen_payload()
        CORRUPTIONS[case](payload)
        with pytest.raises(TraceFormatError):
            trace_from_dict(payload)

    @pytest.mark.parametrize("case", sorted(CORRUPTIONS))
    def test_load_names_the_file(self, tmp_path, case):
        store = TraceStore.init(tmp_path / "c", program="gen")
        fp, _ = store.ingest_payload(_gen_payload())
        path = store.trace_path(fp)
        payload = json.loads(path.read_text())
        CORRUPTIONS[case](payload)
        path.write_text(json.dumps(payload))
        with pytest.raises(CorpusError, match=re.escape(str(path))):
            store.load(fp)

    def test_impossible_time_names_the_file(self, tmp_path):
        store = TraceStore.init(tmp_path / "c", program="gen")
        fp, _ = store.ingest_payload(_gen_payload())
        path = store.trace_path(fp)
        payload = json.loads(path.read_text())
        payload["end_time"] = -5
        path.write_text(json.dumps(payload))
        with pytest.raises(CorpusError, match=re.escape(str(path))):
            store.load(fp)

    def test_invalid_json_names_the_file(self, tmp_path):
        store = TraceStore.init(tmp_path / "c", program="gen")
        fp, _ = store.ingest_payload(_gen_payload())
        path = store.trace_path(fp)
        path.write_text(path.read_text()[:-7])
        with pytest.raises(CorpusError, match=re.escape(str(path))):
            store.load(fp)

    def test_ingest_refuses_a_malformed_payload(self, tmp_path):
        store = TraceStore.init(tmp_path / "c", program="gen")
        payload = _gen_payload()
        CORRUPTIONS["string-start-time"](payload)
        with pytest.raises(CorpusError, match="cannot ingest"):
            store.ingest_payload(payload)
        assert len(store) == 0

    def test_cli_ingest_names_the_file(self, tmp_path):
        corpus_dir = str(tmp_path / "c")
        assert main(["corpus", "init", corpus_dir]) == 0
        bad = tmp_path / "bad.json"
        payload = _gen_payload()
        CORRUPTIONS["no-end-time"](payload)
        bad.write_text(json.dumps(payload))
        with pytest.raises(SystemExit, match=re.escape(f"{bad}: cannot ingest")):
            main(["corpus", "ingest", corpus_dir, str(bad)])


def _move_a_start_time(payload: dict) -> None:
    """Move one call's ``start_time`` to another value inside its
    window: the trace stays well-typed and possible."""
    call = next(c for c in payload["calls"] if c["start_time"] < c["end_time"])
    call["start_time"] += 1


class TestCheckedReads:
    """``load`` hashes the bytes it reads against the fingerprint."""

    def test_an_altered_body_is_refused(self, store):
        fp = next(iter(store.entries))
        path = store.trace_path(fp)
        payload = json.loads(path.read_bytes())
        _move_a_start_time(payload)
        path.write_bytes(canonical_json(payload).encode("utf-8"))
        with pytest.raises(
            CorpusError,
            match=re.escape(f"{path} does not hash to its fingerprint"),
        ):
            store.load(fp)

    def test_a_legacy_body_loads_and_is_checked(self, store):
        """Bodies older builds wrote (sorted keys, with spaces) load when
        their canonical re-encoding hashes to the name, and only then."""
        fp = next(iter(store.entries))
        path = store.trace_path(fp)
        payload = json.loads(path.read_bytes())
        path.write_text(json.dumps(payload, sort_keys=True))
        assert store.load(fp).fingerprint == fp
        _move_a_start_time(payload)
        path.write_text(json.dumps(payload, sort_keys=True))
        with pytest.raises(CorpusError, match="does not hash"):
            store.load(fp)

    def test_cold_analyze_reports_an_altered_body(self, tmp_path, capsys):
        corpus_dir = tmp_path / "c"
        assert main(["corpus", "init", str(corpus_dir), "--workload", "network"]) == 0
        assert main(["corpus", "ingest", str(corpus_dir), "--runs", "3"]) == 0
        capsys.readouterr()
        path = sorted(corpus_dir.glob("shards/*/traces/*.json"))[0]
        payload = json.loads(path.read_bytes())
        _move_a_start_time(payload)
        path.write_bytes(canonical_json(payload).encode("utf-8"))
        with pytest.raises(SystemExit, match="repro: corpus: .*does not hash"):
            main(["corpus", "analyze", str(corpus_dir)])


class TestEvalMatrix:
    def _suite(self, racy_program, store):
        from repro.core.extraction import PredicateSuite

        loaded = _stored_corpus(store)
        return PredicateSuite.discover(
            loaded.successes, loaded.failures, program=racy_program
        )

    def test_each_pair_evaluated_exactly_once(self, racy_program, store):
        suite = self._suite(racy_program, store)
        matrix = EvalMatrix()
        traces = list(store.traces())
        logs = [matrix.log_for(suite, t) for t in traces]
        first_pass = matrix.pair_evaluations
        assert first_pass == len(suite) * len(traces)
        again = [matrix.log_for(suite, t) for t in traces]
        assert matrix.pair_evaluations == first_pass  # zero new
        assert matrix.pair_hits == first_pass
        for a, b in zip(logs, again):
            assert dict(a.observations) == dict(b.observations)
            assert a.failed == b.failed

    def test_matrix_logs_equal_direct_evaluation(self, racy_program, store):
        suite = self._suite(racy_program, store)
        matrix = EvalMatrix()
        for trace in store.traces():
            direct = suite.evaluate(trace, seed=trace.seed)
            memoized = matrix.log_for(suite, trace)
            assert dict(direct.observations) == dict(memoized.observations)

    def test_persistence_round_trip(self, tmp_path, racy_program, store):
        suite = self._suite(racy_program, store)
        path = tmp_path / "matrix.json"
        matrix = EvalMatrix(path)
        for trace in store.traces():
            matrix.log_for(suite, trace)
        matrix.save()
        warm = EvalMatrix(path, rows=matrix.rows)
        for trace in store.traces():
            warm.log_for(suite, trace)
        assert warm.pair_evaluations == 0
        assert warm.pair_hits == matrix.pair_evaluations

    def test_definition_drift_invalidates_the_row(self, racy_program, store):
        from repro.core.extraction import PredicateSuite
        from repro.core.predicates import TooSlowPredicate

        key = MethodKey("Updater", "main", 0)
        slow_a = TooSlowPredicate(key=key, threshold=5)
        slow_b = TooSlowPredicate(key=key, threshold=500)
        assert slow_a.pid == slow_b.pid  # same pid, different meaning
        assert slow_a.definition_digest() != slow_b.definition_digest()
        matrix = EvalMatrix()
        trace = next(store.traces())
        matrix.log_for(PredicateSuite(defs={slow_a.pid: slow_a}), trace)
        assert matrix.pair_evaluations == 1
        matrix.log_for(PredicateSuite(defs={slow_b.pid: slow_b}), trace)
        assert matrix.pair_evaluations == 2  # re-evaluated, not served stale

    def test_bitset_counts_match_batch_sd(self, racy_program, store):
        suite = self._suite(racy_program, store)
        matrix = EvalMatrix()
        traces = list(store.traces())
        logs = [matrix.log_for(suite, t) for t in traces]
        batch = StatisticalDebugger().extend(logs).stats()
        counted = matrix.sd_counters(suite, [t.fingerprint for t in traces])
        assert counted.stats() == batch


class TestIncrementalDebugger:
    """One log at a time, the SD counters equal a full rescan."""

    def test_matches_batch_debugger(self, racy_program, store):
        from repro.core.extraction import PredicateSuite

        loaded = _stored_corpus(store)
        suite = PredicateSuite.discover(
            loaded.successes, loaded.failures, program=racy_program
        )
        logs = suite.evaluate_all(loaded.successes + loaded.failures)
        inc = StatisticalDebugger()
        for log in logs:
            inc.add(log)
        reference = rescan_stats(logs)
        assert stats_tuples(inc) == reference
        assert inc.all_pids() == sorted(reference)
        assert inc.fully_discriminative_pids() == sorted(
            pid
            for pid, (in_failed, in_success, n_failed, _) in reference.items()
            if in_success == 0 and in_failed == n_failed
        )

    def test_empty(self):
        inc = StatisticalDebugger()
        assert inc.fully_discriminative_pids() == []
        assert inc.stats() == {}


def _obs(t: int) -> Observation:
    return Observation(start=t, end=t)


class TestIncrementalACDag:
    """Handcrafted logs: edge death, node death, and rebuild equality."""

    F = "FAILURE[f]"

    def _defs(self):
        defs = {
            pid: ExecutedPredicate(key=MethodKey(pid, "t", 0))
            for pid in ("A", "B", "C")
        }
        fail = FailurePredicate(signature="f")
        defs = {d.pid: d for d in defs.values()}
        defs[fail.pid] = fail
        return defs

    def _log(self, times: dict[str, int]) -> PredicateLog:
        observations = {
            self._pid(name): _obs(t) for name, t in times.items()
        }
        return PredicateLog(observations=observations, failed=True)

    def _pid(self, name: str) -> str:
        # MethodKey renders as thread:method#occurrence
        return self.F if name == "F" else f"exec[t:{name}#0]"

    def _build(self, logs):
        return ACDag.build(
            defs=self._defs(),
            columns=log_columns(logs, self._defs()),
            failure=self.F,
        )

    def test_update_only_removes(self):
        logs = [self._log({"A": 1, "B": 2, "C": 3, "F": 4})] * 2
        dag = self._build(logs)
        before_edges = set(dag.graph.edges)
        # B now lands after C: the B->C edge must die, nothing may appear.
        new = self._log({"A": 1, "B": 5, "C": 3, "F": 6})
        removed = dag.update_failed_log(new)
        assert removed == set()
        assert set(dag.graph.edges) < before_edges
        assert (self._pid("B"), self._pid("C")) not in dag.graph.edges
        rebuilt = self._build(logs + [new])
        assert dag.structure() == rebuilt.structure()

    def test_unobserved_node_drops(self):
        logs = [self._log({"A": 1, "B": 2, "C": 3, "F": 4})] * 2
        dag = self._build(logs)
        new = self._log({"A": 1, "B": 2, "F": 4})  # C vanished
        removed = dag.update_failed_log(new)
        assert self._pid("C") in removed
        assert self._pid("C") not in dag
        rebuilt = ACDag.build(
            defs=self._defs(),
            columns=log_columns(
                logs + [new], [self._pid("A"), self._pid("B"), self.F]
            ),
            failure=self.F,
        )
        assert dag.structure() == rebuilt.structure()

    def test_support_counters_track_log_count(self):
        logs = [self._log({"A": 1, "B": 2, "C": 3, "F": 4})] * 3
        dag = self._build(logs)
        assert dag.n_failed_logs == 3
        dag.update_failed_log(self._log({"A": 1, "B": 2, "C": 3, "F": 4}))
        assert dag.n_failed_logs == 4

    def test_missing_failure_predicate_raises(self):
        logs = [self._log({"A": 1, "F": 2})]
        dag = self._build(logs)
        from repro.core.acdag import GraphInvariantError

        with pytest.raises(GraphInvariantError, match="unobserved"):
            dag.update_failed_log(self._log({"A": 1}))

    def test_restrict_to_prunes_disconnected(self):
        logs = [self._log({"A": 1, "B": 2, "C": 3, "F": 4})] * 2
        dag = self._build(logs)
        removed = dag.restrict_to({self._pid("A"), self._pid("C")})
        assert self._pid("B") in removed
        assert set(dag.graph.nodes) == {self._pid("A"), self._pid("C"), self.F}
        rebuilt = ACDag.build(
            defs=self._defs(),
            columns=log_columns(logs, [self._pid("A"), self._pid("C"), self.F]),
            failure=self.F,
        )
        assert dag.structure() == rebuilt.structure()


class TestIncrementalPipeline:
    def test_incremental_equals_rebuild_per_ingest(
        self, racy_program, store, corpus
    ):
        pipeline = IncrementalPipeline(store, program=racy_program)
        pipeline.bootstrap()
        held_back = corpus.successes[15:] + corpus.failures[15:]
        for trace in held_back:
            result = pipeline.ingest(trace)
            assert result.added
            rebuilt = pipeline.rebuild()
            assert pipeline.dag.structure() == rebuilt.structure()
            logs = pipeline.logs
            assert stats_tuples(pipeline.debugger) == rescan_stats(logs)
        assert pipeline.dag.n_failed_logs == 20

    def test_duplicate_ingest_is_a_no_op(self, racy_program, store, corpus):
        pipeline = IncrementalPipeline(store, program=racy_program)
        pipeline.bootstrap()
        before = pipeline.dag.structure()
        n_logs = len(pipeline.logs)
        result = pipeline.ingest(corpus.failures[0])
        assert not result.added
        assert pipeline.dag.structure() == before
        assert len(pipeline.logs) == n_logs

    def test_warm_restart_reevaluates_nothing(self, racy_program, store):
        pipeline = IncrementalPipeline(store, program=racy_program)
        pipeline.bootstrap()
        assert pipeline.matrix.pair_evaluations > 0
        pipeline.save()
        warm = IncrementalPipeline(TraceStore.open(store.root), program=racy_program)
        warm.bootstrap()
        assert warm.matrix.pair_evaluations == 0
        assert warm.matrix.pair_hits > 0
        assert warm.fully == pipeline.fully
        assert warm.dag.structure() == pipeline.dag.structure()

    def test_ingest_requires_bootstrap(self, racy_program, store, corpus):
        pipeline = IncrementalPipeline(store, program=racy_program)
        with pytest.raises(CorpusError, match="bootstrap"):
            pipeline.ingest(corpus.successes[0])


class TestCorpusSession:
    def test_matches_live_session_and_warm_equals_cold(
        self, tmp_path, racy_program
    ):
        # repeats >= n_fail so live and corpus sessions replay the same
        # seed set (store iteration order is fingerprint-sorted, so a
        # strict prefix would pick different seeds).
        config = SessionConfig(n_success=15, n_fail=15, repeats=15)
        live = AIDSession(racy_program, config)
        live_report = live.run()
        # Archive exactly the corpus the live session learned from.
        store = TraceStore.init(tmp_path / "c", program=racy_program.name)
        live_corpus = live.collect()
        for trace in live_corpus.successes + live_corpus.failures:
            store.ingest(trace)
        store.save()

        cold = CorpusSession(racy_program, store, config)
        cold_report = cold.run()
        assert cold.matrix.pair_evaluations > 0
        cold.save()
        assert cold_report.causal_path == live_report.causal_path
        assert (
            cold_report.fully_discriminative
            == live_report.fully_discriminative
        )

        warm = CorpusSession(racy_program, TraceStore.open(store.root), config)
        warm_report = warm.run()
        assert warm.matrix.pair_evaluations == 0  # zero already-seen pairs
        assert warm.matrix.pair_hits == cold.matrix.pair_evaluations
        assert warm_report.causal_path == cold_report.causal_path
        assert warm_report.explanation.render() == cold_report.explanation.render()

    def test_rejects_mismatched_program(self, tmp_path, racy_program):
        store = TraceStore.init(tmp_path / "c", program="something-else")
        with pytest.raises(CorpusError, match="something-else"):
            CorpusSession(racy_program, store)

    def test_empty_corpus_refused(self, tmp_path, racy_program):
        store = TraceStore.init(tmp_path / "c", program=racy_program.name)
        session = CorpusSession(racy_program, store)
        with pytest.raises(CorpusError, match="no failed traces"):
            session.collect()


class TestCorpusCLI:
    def test_full_round_trip(self, tmp_path, capsys):
        corpus_dir = str(tmp_path / "c1")
        trace_file = str(tmp_path / "t3.json")

        assert main(["corpus", "init", corpus_dir, "--workload", "network"]) == 0
        assert "initialized empty corpus" in capsys.readouterr().out

        assert main(["trace", "network", "--seed", "3", "-o", trace_file]) == 0
        capsys.readouterr()

        assert main(["corpus", "ingest", corpus_dir, trace_file]) == 0
        assert "ingested 1 new, 0 duplicate" in capsys.readouterr().out
        assert main(["corpus", "ingest", corpus_dir, trace_file]) == 0
        assert "ingested 0 new, 1 duplicate" in capsys.readouterr().out

        assert main(["corpus", "ingest", corpus_dir, "--runs", "8"]) == 0
        capsys.readouterr()

        assert main(["corpus", "stats", corpus_dir]) == 0
        out = capsys.readouterr().out
        assert "8 fail" in out
        assert "network-controlplane" in out

        evaluation = re.compile(r"evaluation: (\d+) fresh, (\d+) answered")

        assert main(["corpus", "analyze", corpus_dir]) == 0
        cold = capsys.readouterr().out
        assert "fully discriminative" in cold
        fresh, hits = map(int, evaluation.search(cold).groups())
        assert fresh > 0 and hits == 0

        assert main(["corpus", "analyze", corpus_dir]) == 0
        warm = capsys.readouterr().out
        fresh, hits = map(int, evaluation.search(warm).groups())
        assert fresh == 0 and hits > 0

        assert main(["debug", "network", "--corpus", corpus_dir]) == 0
        out = capsys.readouterr().out
        assert "0 fresh predicate evaluations" in out
        assert "root cause" in out

    def test_ingest_rejects_bad_files_cleanly(self, tmp_path, capsys):
        corpus_dir = str(tmp_path / "c3")
        assert main(["corpus", "init", corpus_dir]) == 0
        capsys.readouterr()
        with pytest.raises(SystemExit, match="cannot read"):
            main(["corpus", "ingest", corpus_dir, str(tmp_path / "missing.json")])
        bad = tmp_path / "bad.json"
        bad.write_text("{not json")
        with pytest.raises(SystemExit, match="not a trace file"):
            main(["corpus", "ingest", corpus_dir, str(bad)])

    def test_midbatch_failure_keeps_earlier_traces(self, tmp_path, capsys):
        corpus_dir = str(tmp_path / "c4")
        good = str(tmp_path / "good.json")
        bad = tmp_path / "bad.json"
        bad.write_text("{not json")
        assert main(["corpus", "init", corpus_dir]) == 0
        assert main(["trace", "network", "--seed", "1", "-o", good]) == 0
        capsys.readouterr()
        with pytest.raises(SystemExit):
            main(["corpus", "ingest", corpus_dir, good, str(bad)])
        # the good trace made it into the manifest before the failure
        store = TraceStore.open(corpus_dir)
        assert len(store) == 1

    def test_ingest_runs_continues_past_stored_seeds(self, tmp_path, capsys):
        corpus_dir = str(tmp_path / "c5")
        assert main(["corpus", "init", corpus_dir, "--workload", "network"]) == 0
        assert main(["corpus", "ingest", corpus_dir, "--runs", "4"]) == 0
        capsys.readouterr()
        # a repeat sweep starts past the stored seeds -> fresh traces
        assert main(["corpus", "ingest", corpus_dir, "--runs", "2"]) == 0
        out = capsys.readouterr().out
        assert "ingested 4 new" in out

    def test_debug_corpus_missing_dir(self, tmp_path, capsys):
        with pytest.raises(SystemExit, match="not a corpus"):
            main(["debug", "network", "--corpus", str(tmp_path / "nope")])

    def test_analyze_empty_corpus_fails_cleanly(self, tmp_path, capsys):
        corpus_dir = str(tmp_path / "c2")
        assert main(["corpus", "init", corpus_dir]) == 0
        with pytest.raises(SystemExit, match="no failed traces"):
            main(["corpus", "analyze", corpus_dir])
