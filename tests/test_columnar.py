"""Corpus evaluation parity, proven by differential testing.

The file keeps the name of the columnar trace format it once
cross-checked, so its test ids stay stable; every check now targets the
one corpus evaluation path (the indexed per-trace kernel behind the
eval matrix).  Four layers of parity:

* **store round-trip** — ``ingest_payload`` then ``load`` re-serializes
  to the same canonical JSON for every trace of every seeded random
  corpus (the generator in :mod:`tests.gen` aims for the schema's
  corners: unicode, NaN, empty traces, duplicate keys);
* **observation parity** — the indexed :class:`SuiteKernel` pass
  agrees with ``PredicateDef.evaluate`` for every predicate kind, on
  predicates drawn from the generated traces *and* on keys that miss;
* **pipeline parity** — sharded evaluation over partly decided shards
  (loading only the traces with an undecided pair) matches
  ``log_for`` per trace, and every workload's report is byte-identical
  whether the session builds its own engine or is handed one;
* **golden report** — a committed fixture, byte for byte.
"""

from __future__ import annotations

import functools
import hashlib
import itertools
import random
import shutil
from pathlib import Path

import pytest

from conftest import run_side_by_side
from gen import OBJECTS, RETURN_VALUES, make_corpus, make_payload
from repro.core.evalkernel import SuiteKernel
from repro.core.extraction import PredicateSuite
from repro.core.predicates import (
    CompoundAndPredicate,
    DataRacePredicate,
    ExecutedPredicate,
    FailurePredicate,
    MethodFailsPredicate,
    OrderViolationPredicate,
    PredicateKind,
    TooFastPredicate,
    TooSlowPredicate,
    WrongReturnPredicate,
)
from repro.core.statistical import StatisticalDebugger
from repro.corpus.store import LEGACY_SHARD_FILES, TraceStore
from repro.exec import ExecutionEngine
from repro.harness.session import SessionConfig
from repro.sim.serialize import (
    canonical_json,
    stable_digest,
    trace_from_dict,
    trace_to_dict,
)
from repro.sim.tracing import MethodKey
from repro.workloads.common import REGISTRY

SEEDS = range(24)
FIXTURES = Path(__file__).parent / "fixtures"


def _ingest(root, payloads, shard_width=2) -> TraceStore:
    store = TraceStore.init(
        root, program=payloads[0]["program"], shard_width=shard_width
    )
    for payload in payloads:
        store.ingest_payload(payload)
    store.save()
    return store


def _suite_for(payloads, slow_step: int = 20) -> PredicateSuite:
    """A suite touching every predicate kind, built from what the
    corpus actually contains plus keys/values that miss entirely.
    ``slow_step`` moves the ``slow`` thresholds without changing their
    pids (a definition drift)."""
    traces = [trace_from_dict(p) for p in payloads]
    keys = sorted(
        {m.key for t in traces for m in t.method_executions()}, key=str
    )
    excs = sorted(
        {
            m.exception
            for t in traces
            for m in t.method_executions()
            if m.exception is not None
        }
    )
    sigs = sorted(
        {t.failure.signature for t in traces if t.failure is not None}
    )
    defs: dict[str, object] = {}
    for i, key in enumerate(keys[:6]):
        defs[f"exec{i}"] = ExecutedPredicate(key)
        defs[f"slow{i}"] = TooSlowPredicate(key, threshold=i * slow_step)
        defs[f"fast{i}"] = TooFastPredicate(key, threshold=5 + i * 30)
    for i, (key, exc) in enumerate(
        itertools.product(keys[:3], excs[:2])
    ):
        defs[f"fails{i}"] = MethodFailsPredicate(key, exc)
    for i, (key, value) in enumerate(zip(keys, RETURN_VALUES)):
        defs[f"wrong{i}"] = WrongReturnPredicate(key, value)
    for i, (a, b) in enumerate(itertools.product(keys[:3], keys[:3])):
        defs[f"order{i}"] = OrderViolationPredicate(a, b)
    for i, signature in enumerate(sigs):
        defs[f"failure{i}"] = FailurePredicate(signature)
    missing = MethodKey("no-such-method", "T404", 9)
    defs["exec-miss"] = ExecutedPredicate(missing)
    if keys:
        defs["order-miss"] = OrderViolationPredicate(missing, keys[0])
        defs["wrong-nan-miss"] = WrongReturnPredicate(
            keys[0], float("nan")
        )
    if len(keys) >= 2:
        defs["and0"] = CompoundAndPredicate(
            (ExecutedPredicate(keys[0]), ExecutedPredicate(keys[1]))
        )
        defs["and1"] = CompoundAndPredicate(
            (
                TooSlowPredicate(keys[0], threshold=10),
                ExecutedPredicate(keys[1]),
            )
        )
        defs["race0"] = DataRacePredicate(keys[0], keys[1], OBJECTS[0])
        defs["and-race"] = CompoundAndPredicate(
            (ExecutedPredicate(keys[0]), defs["race0"])
        )
    return PredicateSuite(defs=defs)


def _matrix_state(matrix) -> tuple:
    """Everything a shard matrix persists, plus its counters."""
    return (
        matrix.traces,
        matrix.labels,
        matrix.evaluated,
        matrix.observed,
        matrix.rows.rows,
        matrix.windows,
        (matrix.pair_evaluations, matrix.pair_hits, matrix.kernel_calls),
    )


class TestRoundTrip:
    @pytest.mark.parametrize("seed", SEEDS)
    def test_decode_equals_stored_trace(self, tmp_path, seed):
        """The body is the canonical encoding of the trace the payload
        decodes to, named by the digest of exactly those bytes, and
        ``load`` decodes it exactly as decoding the payload directly
        would; the decoded form is a fixpoint (re-ingesting it stores
        the same bytes under the same name again)."""
        payloads = make_corpus(seed)
        store = _ingest(tmp_path / "c", payloads)
        assert len(store) == len(payloads)
        decoded = []
        for payload in payloads:
            expected = canonical_json(trace_to_dict(trace_from_dict(payload)))
            body = expected.encode("utf-8")
            fp = hashlib.sha256(body).hexdigest()[:16]
            assert store.trace_path(fp).read_bytes() == body
            loaded = store.load(fp)
            assert loaded.fingerprint == fp
            assert canonical_json(trace_to_dict(loaded)) == expected
            decoded.append(trace_to_dict(loaded))
        again = _ingest(tmp_path / "again", decoded)
        for payload in decoded:
            fp = stable_digest(payload)
            assert again.trace_path(fp).read_bytes() == canonical_json(
                payload
            ).encode("utf-8")
            loaded = again.load(fp)
            assert canonical_json(trace_to_dict(loaded)) == canonical_json(
                payload
            )
        reopened = TraceStore.open(tmp_path / "c")
        assert reopened.entries == store.entries

    def test_empty_trace_roundtrips(self, tmp_path):
        rng = random.Random(0)
        payloads = [make_payload(rng, seed=s, failed=s % 2 == 1) for s in range(4)]
        for p in payloads:
            p["calls"] = []
        store = _ingest(tmp_path / "c", payloads)
        for payload in payloads:
            loaded = store.load(stable_digest(payload))
            assert loaded.method_executions() == []
            assert canonical_json(trace_to_dict(loaded)) == canonical_json(
                payload
            )


class TestObservationParity:
    @pytest.mark.parametrize("seed", SEEDS)
    def test_sweep_matches_evaluate_for_every_kind(self, tmp_path, seed):
        """The kernel's one indexed pass over the suite equals calling
        ``evaluate`` per predicate, entry for entry and in suite order,
        on the full suite and on a subset."""
        payloads = make_corpus(seed)
        store = _ingest(tmp_path / "c", payloads)
        suite = _suite_for(payloads)
        kinds = {p.kind for p in suite.defs.values()}
        if len(suite.defs) > 4:  # corpora with at least two keys
            assert kinds == set(PredicateKind)
        kernel = SuiteKernel(suite.defs)
        subset = frozenset(list(suite.defs)[::3])
        pairs = 0
        for fp in sorted(store.entries):
            trace = store.load(fp)
            expected = {}
            for pid, pred in suite.defs.items():
                obs = pred.evaluate(trace)
                if obs is not None:
                    expected[pid] = obs
                pairs += 1
            got = kernel.observations(trace)
            assert list(got.items()) == list(expected.items()), (
                f"seed {seed} fp {fp}"
            )
            assert kernel.observations(trace, only=subset) == {
                pid: obs for pid, obs in expected.items() if pid in subset
            }
            assert "exec-miss" not in got
        assert pairs == len(suite.defs) * len(store.entries)


class TestPipelineParity:
    @pytest.mark.parametrize("seed", (0, 7, 13))
    def test_matrix_logs_and_counters_match(
        self, tmp_path, seed, monkeypatch
    ):
        """Sharded evaluation over partly decided shards equals
        ``log_for`` per trace, and loads only the traces that had an
        undecided pair.  Some traces were evaluated under the current
        suite, some under an older one whose ``slow`` rows have since
        drifted, and some never (16 shards, several holding more than
        one trace)."""
        payloads = make_corpus(seed)
        before = _suite_for(payloads, slow_step=25)
        suite = _suite_for(payloads)
        seed_root = tmp_path / "seed"
        store = _ingest(seed_root, payloads, shard_width=1)
        fps = sorted(store.entries)
        matrix = store.eval_matrix()
        matrix.evaluate_fingerprints(suite, fps[1::3])
        matrix.evaluate_fingerprints(before, fps[::4])
        matrix.save()

        shutil.copytree(seed_root, tmp_path / "ref")
        ref_store = TraceStore.open(tmp_path / "ref")
        ref = ref_store.eval_matrix()
        ref_logs = {fp: ref.log_for(suite, ref_store.load(fp)) for fp in fps}

        probe = ref_store.eval_matrix()  # the persisted, pre-evaluation memo
        undecided = set()

        def record(fingerprint):
            undecided.add(fingerprint)
            return ref_store.load(fingerprint)

        for fp in fps:
            probe.shard_for(fp).evaluate_group(
                suite, [(fp, ref_store.entries[fp].failed)], record
            )
        loaded = []
        load = TraceStore.load

        def spy(self, fingerprint):
            loaded.append(fingerprint)
            return load(self, fingerprint)

        monkeypatch.setattr(TraceStore, "load", spy)
        sharded = TraceStore.open(seed_root).eval_matrix()
        counters = sharded.evaluate_fingerprints(suite, fps)
        monkeypatch.undo()

        assert sorted(loaded) == sorted(undecided)
        assert 0 < len(undecided) < len(fps)
        logs = {
            fp: sharded.reconstruct_log(
                suite, fp, entry.failed, entry.seed, entry.signature
            )
            for fp, entry in store.entries.items()
        }
        assert logs == ref_logs
        expected = StatisticalDebugger()
        for sid in sorted({store.shard_id(fp) for fp in fps}):
            assert _matrix_state(sharded.shard(sid)) == _matrix_state(
                ref.shard(sid)
            )
            shard_fps = [fp for fp in fps if store.shard_id(fp) == sid]
            expected.merge(ref.shard(sid).sd_counters(suite, shard_fps))
        assert counters == expected

    def test_warm_columnar_reuses_the_memo(self, tmp_path, capsys):
        """An analyzed store still carrying legacy ``columnar.bin``
        sidecars (junk here) behaves as if they were absent: a warm
        analyze is all memo hits, the report bytes match a copy without
        them, and ``corpus upgrade`` deletes them."""
        from repro.cli import main

        seed_root = tmp_path / "seed"
        assert main(["corpus", "init", str(seed_root), "--workload", "network"]) == 0
        assert main(["corpus", "ingest", str(seed_root), "--runs", "3"]) == 0
        assert main(["corpus", "analyze", str(seed_root)]) == 0
        legacy = tmp_path / "legacy"
        shutil.copytree(seed_root, legacy)
        for shard in (legacy / "shards").iterdir():
            for name in LEGACY_SHARD_FILES:
                (shard / name).write_bytes(b"junk")
        capsys.readouterr()
        assert main(["corpus", "analyze", str(legacy)]) == 0
        assert "evaluation: 0 fresh" in capsys.readouterr().out
        network = REGISTRY.build("network")
        assert _corpus_report(
            tmp_path / "plain", seed_root, network
        ) == _corpus_report(legacy, workload=network)
        assert main(["corpus", "upgrade", str(legacy)]) == 0
        assert not list(legacy.rglob("columnar.bin*"))

    @pytest.mark.parametrize("name", REGISTRY.names())
    def test_workload_report_is_byte_identical(self, tmp_path, name):
        from repro.harness.runner import collect

        workload = REGISTRY.build(name)
        corpus = collect(workload.program, n_success=8, n_fail=8)
        seed_root = tmp_path / "seed"
        store = TraceStore.init(seed_root, program=workload.program.name)
        for trace in corpus.successes + corpus.failures:
            store.ingest_payload(trace_to_dict(trace))
        store.save()
        own = _corpus_report(tmp_path / "own", seed_root, workload)
        handed = _corpus_report(
            tmp_path / "handed", seed_root, workload, engine=ExecutionEngine()
        )
        assert own == handed


def _corpus_report(root, seed_root=None, workload=None, engine=None):
    """Canonical JSON of a seeded :class:`CorpusSession` report over the
    store at ``root`` (copied from ``seed_root`` first, when given)."""
    from repro.harness.session import CorpusSession

    if seed_root is not None:
        shutil.copytree(seed_root, root)
    config = SessionConfig(rng_seed=7, repeats=3, engine=engine)
    session = CorpusSession(
        workload.program, TraceStore.open(root), config=config
    )
    return canonical_json(session.run().to_dict())


class TestGoldenReport:
    """Byte-for-byte regression against a committed fixture.

    ``tests/fixtures/golden_corpus`` is a tiny npgsql trace store and
    ``golden_report.json`` the canonical-JSON ``SessionReport.to_dict()``
    a seeded session produces from it.  Any change to serialization,
    predicate semantics, or evaluation order that alters a single byte
    of the report fails here first.  Regenerate deliberately (see
    docs/corpus.md) when the change is intended.
    """

    @pytest.mark.parametrize("prior_runs", (0, 1))
    def test_report_matches_committed_bytes(self, tmp_path, prior_runs):
        """Cold (``prior_runs=0``) and warm, answered from the eval
        matrix an earlier, saved session left behind (``prior_runs=1``)."""
        from repro.harness.session import CorpusSession

        root = tmp_path / "c"
        shutil.copytree(FIXTURES / "golden_corpus", root)
        workload = REGISTRY.build("npgsql")
        for _ in range(prior_runs):
            session = CorpusSession(
                workload.program,
                TraceStore.open(root),
                config=SessionConfig(rng_seed=7, repeats=3),
            )
            session.run()
            session.save()
            assert session.matrix.pair_evaluations > 0
        produced = _corpus_report(root, workload=workload)
        golden = (FIXTURES / "golden_report.json").read_text()
        assert produced == golden

    def test_report_through_a_handed_engine(self, tmp_path):
        produced = _corpus_report(
            tmp_path / "c",
            FIXTURES / "golden_corpus",
            REGISTRY.build("npgsql"),
            engine=ExecutionEngine(),
        )
        assert produced == (FIXTURES / "golden_report.json").read_text()

    @pytest.mark.parametrize("kind", ["thread", "process"])
    def test_report_is_job_count_independent(self, tmp_path, kind):
        """Two sessions run side by side, as threads sharing one program
        or as forked processes, each over its own copy of the fixture:
        both produce the committed bytes, so no state one session leaves
        in a shared object or module reaches the other's report."""
        workload = REGISTRY.build("npgsql")
        reports = run_side_by_side(
            kind,
            [
                functools.partial(
                    _corpus_report,
                    tmp_path / f"j{job}",
                    FIXTURES / "golden_corpus",
                    workload,
                )
                for job in range(2)
            ],
        )
        golden = (FIXTURES / "golden_report.json").read_text()
        assert reports == [golden, golden]
