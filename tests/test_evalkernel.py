"""The single-pass evaluation kernel: equivalence pins at every layer.

Property-style assertions that the fast paths equal the reference
walks, byte for byte: indexed ``lookup`` ≡ linear scan, kernel
``evaluate_all`` ≡ per-predicate evaluation (same observations, same
order), suite discovery ≡ each extractor's own ``discover`` with
pinned suite fingerprints (all registered workloads), the discovery
sweeps ≡ their all-pairs walks, SD counters ≡ log rescans,
and whole-session ``SessionReport.to_dict()`` byte-identity across
engine job counts.  A count gate pins why the kernel is fast: one
index per trace and fewer key resolutions than per-predicate rescans.
"""

from __future__ import annotations

import json
from collections import Counter

import pytest

from repro.core.evalkernel import (
    ordered_cross_thread_pairs,
    popcount_split,
    race_candidates,
)
from repro.core.extraction import PredicateSuite, default_extractors
from repro.core.predicates import (
    DataRacePredicate,
    ExecutedPredicate,
    FailurePredicate,
    KeyedPredicate,
    OrderViolationPredicate,
    racy_window,
)
from repro.core.statistical import PredicateLog, StatisticalDebugger
from repro.exec import ExecutionEngine
from repro.harness.runner import collect
from repro.harness.session import AIDSession, SessionConfig
from repro.sim import run_program, tracing
from repro.sim.serialize import trace_fingerprint, trace_from_dict, trace_to_dict
from repro.sim.tracing import ExecutionTrace, MethodKey
from repro.workloads.common import REGISTRY

from conftest import (
    case_study_session,
    racy_counter_program,
    rescan_stats,
    stats_tuples,
)
from gen import make_corpus


@pytest.fixture(scope="module")
def corpus(racy_program):
    return collect(racy_program, n_success=20, n_fail=20)


@pytest.fixture(scope="module")
def suite(racy_program, corpus):
    return PredicateSuite.discover(
        corpus.successes, corpus.failures, program=racy_program
    )


@pytest.fixture(scope="module")
def shared_engine():
    engine = ExecutionEngine()
    yield engine
    engine.close()


# ---------------------------------------------------------------------------
# The trace index
# ---------------------------------------------------------------------------


class TestTraceIndex:
    def test_indexed_lookup_equals_linear_scan(self, corpus):
        for trace in corpus.successes[:5] + corpus.failures[:5]:
            completed = trace._completed
            for m in completed:
                # reference: first match of a linear completion-order scan
                linear = next(x for x in completed if x.key == m.key)
                assert trace.lookup(m.key) is linear
            assert trace.lookup(MethodKey("NoSuch", "t", 0)) is None

    def test_method_executions_is_start_time_sorted_copy(self, corpus):
        trace = corpus.successes[0]
        execs = trace.method_executions()
        assert execs == sorted(
            trace._completed, key=lambda m: (m.start_time, m.call_id)
        )
        execs.clear()  # a copy: mutating it must not corrupt the index
        assert trace.method_executions()

    def test_executions_of_uses_the_index(self, corpus):
        trace = corpus.successes[0]
        ordered = trace.method_executions()
        for method in {m.method for m in ordered}:
            assert list(trace.executions_of(method)) == [
                m for m in ordered if m.method == method
            ]
        assert list(trace.executions_of("NoSuch")) == []

    def test_accesses_follow_start_time_order(self, corpus):
        trace = corpus.successes[0]
        flat = [a for m in trace.method_executions() for a in m.accesses]
        assert list(trace.accesses()) == flat

    def test_record_after_read_invalidates_the_index(self):
        """Record → read → record → read must see the new call."""
        trace = ExecutionTrace("inv", seed=0)
        first = trace.begin_call("A", "t0", time=0, lamport=0, parent_call_id=None)
        trace.end_call(first, time=5, lamport=1, return_value=1, exception=None)
        key_a = MethodKey("A", "t0", 0)
        assert trace.lookup(key_a) is not None  # builds the index
        assert len(trace.method_executions()) == 1
        second = trace.begin_call("B", "t1", time=2, lamport=2, parent_call_id=None)
        trace.end_call(second, time=3, lamport=3, return_value=2, exception=None)
        key_b = MethodKey("B", "t1", 0)
        assert trace.lookup(key_b) is not None  # post-write read sees B
        assert [m.method for m in trace.method_executions()] == ["A", "B"]
        assert list(trace.executions_by_key()) == [key_a, key_b]


# ---------------------------------------------------------------------------
# Kernel evaluation ≡ per-predicate evaluation
# ---------------------------------------------------------------------------


class TestKernelEvaluation:
    def _reference(self, suite, trace):
        observations = {}
        for pid, pred in suite.defs.items():
            obs = pred.evaluate(trace)
            if obs is not None:
                observations[pid] = obs
        return observations

    def test_batch_equals_per_predicate(self, suite, corpus):
        logs = suite.evaluate_all(corpus.successes + corpus.failures)
        traces = corpus.successes + corpus.failures
        assert len(logs) == len(traces)
        for trace, log in zip(traces, logs):
            reference = self._reference(suite, trace)
            assert dict(log.observations) == reference
            # same order, not just same content
            assert list(log.observations) == list(reference)
            assert log.failed == trace.failed
            assert log.seed == trace.seed

    def test_kernel_respects_pid_subset(self, suite, corpus):
        trace = corpus.failures[0]
        full = suite.kernel().observations(trace)
        some = frozenset(list(full)[::2])
        sub = suite.kernel().observations(trace, only=some)
        assert sub == {pid: obs for pid, obs in full.items() if pid in some}

    def test_missing_keys_are_skipped_without_changing_results(self, corpus):
        trace = corpus.failures[0]
        present = trace.method_executions()
        m, other = present[0].key, present[-1].key
        absent = MethodKey("NoSuchMethod", "nobody", 0)
        defs = [
            ExecutedPredicate(key=m),
            ExecutedPredicate(key=absent),
            # required key present, the second key absent (and reversed)
            OrderViolationPredicate(first=m, second=absent),
            OrderViolationPredicate(first=absent, second=m),
            OrderViolationPredicate(first=other, second=m),
            DataRacePredicate(a=m, b=absent, obj="x"),
            FailurePredicate(signature=trace.failure.signature),
        ]
        suite = PredicateSuite(defs={p.pid: p for p in defs})
        expected = {
            pid: obs
            for pid, pred in suite.defs.items()
            if (obs := pred.evaluate(trace)) is not None
        }
        assert suite.kernel().observations(trace) == expected
        assert list(suite.kernel().observations(trace)) == list(expected)
        assert ExecutedPredicate(key=m).pid in expected
        assert ExecutedPredicate(key=absent).pid not in expected

    def test_kernel_rebuilds_when_defs_change(self, suite):
        kernel = suite.kernel()
        assert suite.kernel() is kernel  # cached for the frozen suite
        restricted = suite.restrict(suite.pids()[:3])
        assert restricted.kernel() is not kernel
        assert restricted.kernel().pids == tuple(restricted.defs)

    @pytest.mark.parametrize("name", sorted(REGISTRY.names()))
    def test_imported_traces_evaluate_identically(self, name):
        """A suite observes a live trace exactly as its decoded copy, on
        every case study: the corpus pipeline evaluates the live trace
        it stores.  Kafka's records differ (a ``()`` return value decodes
        as ``[]``), its observations must not."""
        session = case_study_session(name)
        suite = session._suite
        corpus = session._corpus
        kernel = suite.kernel()
        for trace in corpus.successes + corpus.failures:
            imported = trace_from_dict(trace_to_dict(trace))
            live = kernel.observations(trace)
            assert kernel.observations(imported) == live
            assert live == self._reference(suite, trace)


# ---------------------------------------------------------------------------
# The count gate: index + kernel beat per-predicate rescans
# ---------------------------------------------------------------------------


@pytest.fixture(scope="module")
def kafka_suite():
    """The kafka suite (72 keyed predicates over 56 distinct required
    keys) and its 100+100 traces from seed 0."""
    program = REGISTRY.build("kafka").program
    corpus = collect(program, n_success=100, n_fail=100)
    traces = corpus.successes + corpus.failures
    return PredicateSuite.discover(
        corpus.successes, corpus.failures, program=program
    ), traces


class TestCountGate:
    """Why the kernel is fast, asserted by count rather than wall time:
    each trace builds its read index once, and the kernel resolves each
    distinct required key once per trace, so it makes strictly fewer
    key resolutions than the per-predicate ``pred.evaluate(trace)``
    loop.  Cheaper trace records move neither count."""

    def test_index_and_kernel_beat_per_predicate_rescans(
        self, kafka_suite, monkeypatch
    ):
        suite, live = kafka_suite
        counts = Counter()

        class CountingKeys(dict):
            def get(self, key, default=None):
                counts["resolutions"] += 1
                return dict.get(self, key, default)

        class CountingIndex(tracing._TraceIndex):
            def __init__(self, completed):
                super().__init__(completed)
                counts["builds"] += 1
                self.by_key = CountingKeys(self.by_key)

        monkeypatch.setattr(tracing, "_TraceIndex", CountingIndex)
        # decoded copies: no read index until the first read
        traces = [trace_from_dict(trace_to_dict(t)) for t in live]
        kernel = suite.kernel()
        n_keyed = sum(isinstance(p, KeyedPredicate) for p in suite.defs.values())
        assert len(kernel._keys) < n_keyed

        # (a) evaluate_all builds one index per trace, and none on reuse
        logs = suite.evaluate_all(traces)
        assert counts["builds"] == len(traces)
        kernel_resolutions = counts["resolutions"]
        suite.evaluate_all(traces)
        assert counts["builds"] == len(traces)

        # (b) the kernel resolves every distinct key up front, once...
        for trace in traces:
            before = counts["resolutions"]
            kernel.observations(trace, only=frozenset())
            assert counts["resolutions"] - before == len(kernel._keys)

        # ...and in total strictly less often than per-predicate rescans
        # that find the same observations.
        before = counts["resolutions"]
        for trace, log in zip(traces, logs):
            reference = {
                pid: obs
                for pid, pred in suite.defs.items()
                if (obs := pred.evaluate(trace)) is not None
            }
            assert dict(log.observations) == reference
        per_predicate = counts["resolutions"] - before
        assert kernel_resolutions < per_predicate
        assert counts["builds"] == len(traces)


# ---------------------------------------------------------------------------
# Suite discovery ≡ each extractor's own discover, fingerprints pinned
# ---------------------------------------------------------------------------

#: Suite fingerprints at 16+16 traces (start seed 0, dominant failure
#: signature, safe predicates of the workload's program).  The golden
#: report, golden corpus and exploration fixtures all rest on these.
PINNED_SUITE_FINGERPRINTS = {
    "buildandtest": "4b231261b6e0452b",
    "cosmosdb": "1efe7ead6e206d00",
    "healthtelemetry": "e2243281b847ce99",
    "kafka": "b1a955bc6da05afd",
    "network": "db009ecd33d58c84",
    "npgsql": "e8d9870da854f028",
}


class TestTwoPhaseDiscovery:
    @pytest.mark.parametrize("name", sorted(REGISTRY.names()))
    def test_propose_calibrate_equals_serial(self, name):
        workload = REGISTRY.build(name)
        corpus = collect(workload.program, n_success=16, n_fail=16)
        corpus = corpus.restrict_failures(corpus.dominant_failure_signature())
        serial = _single_phase_suite(
            corpus.successes, corpus.failures, program=workload.program
        )
        staged = PredicateSuite.discover(
            corpus.successes, corpus.failures, program=workload.program
        )
        reference = json.dumps(serial.to_dict(), sort_keys=True)
        assert json.dumps(staged.to_dict(), sort_keys=True) == reference
        assert serial.fingerprint == staged.fingerprint
        assert staged.fingerprint == PINNED_SUITE_FINGERPRINTS[name]

    def test_restricted_stack_scopes_the_summary(self, corpus):
        from repro.core.extraction import FailureExtractor

        serial = _single_phase_suite(
            corpus.successes, corpus.failures, extractors=[FailureExtractor()]
        )
        staged = PredicateSuite.discover(
            corpus.successes, corpus.failures, extractors=[FailureExtractor()]
        )
        assert staged.fingerprint == serial.fingerprint
        assert staged.pids() == serial.pids()

    def test_ordered_pairs_sweep_equals_all_pairs_walk(self, corpus):
        for trace in corpus.successes[:5]:
            execs = {m.key: m for m in trace.method_executions()}
            reference = set()
            for first in execs:
                for second in execs:
                    if first == second:
                        continue
                    mf, ms = execs[first], execs[second]
                    if mf.thread == ms.thread:
                        continue
                    if mf.end_time <= ms.start_time:
                        reference.add((first, second))
            assert (
                ordered_cross_thread_pairs(trace.method_executions())
                == reference
            )

    def test_race_sweep_equals_all_pairs_walk(self):
        case_studies = [
            run_program(REGISTRY.build(name).program, seed).trace
            for name in sorted(REGISTRY.names())
            for seed in range(15)
        ]
        # tests/gen.py traces: zero-width windows, start times that tie
        hostile = [trace_from_dict(p) for s in range(100) for p in make_corpus(s)]
        for traces in (case_studies, hostile):
            found = 0
            for trace in traces:
                reference = _all_pairs_race_candidates(trace)
                assert race_candidates(trace) == reference
                found += len(reference)
            assert found  # the comparison is not vacuous

    @pytest.mark.parametrize("name", ["healthtelemetry", "npgsql"])
    def test_race_sweep_equals_all_pairs_walk_at_benchmark_size(self, name):
        # the two case studies whose traces hold race candidates, at the
        # live-debug benchmark's collection size and seed
        corpus = collect(
            REGISTRY.build(name).program, n_success=200, n_fail=200, start_seed=1
        )
        with_candidates = 0
        for trace in corpus.successes + corpus.failures:
            reference = _all_pairs_race_candidates(trace)
            assert race_candidates(trace) == reference
            with_candidates += bool(reference)
        assert with_candidates == 200

    def test_pair_sharing_two_objects_yields_both_triples(self):
        def touch(obj, kind, time):
            return {"obj": obj, "type": kind, "time": time, "lamport": time,
                    "locks": []}

        # ``write`` starts first, but ``read`` sorts first: the triple
        # is canonicalized, not emitted in sweep order
        trace = _hand_built_trace([
            ("write", "T0", 0, 10, [touch("x", "W", 1), touch("y", "W", 2),
                                    touch("x", "W", 7), touch("y", "W", 8)]),
            ("read", "T1", 3, 6, [touch("x", "R", 4), touch("y", "R", 5)]),
        ])
        a, b = MethodKey("read", "T1", 0), MethodKey("write", "T0", 0)
        expected = {(a, b, "x"), (a, b, "y")}
        assert race_candidates(trace) == expected
        assert _all_pairs_race_candidates(trace) == expected

    def test_calls_sharing_no_object_are_never_paired(self, monkeypatch):
        from repro.core import evalkernel

        calls = {"racy_window": 0, "overlaps": 0}

        def count(name, real):
            def spy(*args):
                calls[name] += 1
                return real(*args)
            return spy

        monkeypatch.setattr(
            evalkernel, "racy_window", count("racy_window", racy_window)
        )
        monkeypatch.setattr(
            tracing.MethodExecution, "overlaps",
            count("overlaps", tracing.MethodExecution.overlaps),
        )
        # 300 nested calls on alternating threads: every cross-thread
        # pair overlaps, and none shares an object
        n = 300
        bare = [(f"m{i}", f"T{i % 2}", i, 2 * n - i, []) for i in range(n)]
        private = [
            (method, thread, start, end,
             [{"obj": f"o{start}", "type": "W", "time": start + k,
               "lamport": 0, "locks": []} for k in range(2)])
            for method, thread, start, end, _ in bare
        ]
        for spec in (bare, private):
            assert race_candidates(_hand_built_trace(spec)) == set()
        assert calls == {"racy_window": 0, "overlaps": 0}


def _hand_built_trace(calls):
    """A passing trace of ``(method, thread, start, end, accesses)``
    calls, each the first occurrence of its key."""
    return trace_from_dict({
        "schema": 1,
        "program": "hand-built",
        "seed": 0,
        "end_time": max(end for _, _, _, end, _ in calls),
        "failure": None,
        "calls": [
            {
                "call_id": i,
                "method": method,
                "thread": thread,
                "occurrence": 0,
                "start_time": start,
                "end_time": end,
                "start_lamport": start,
                "end_lamport": end,
                "parent_call_id": None,
                "return_value": None,
                "exception": None,
                "body_skipped": False,
                "accesses": accesses,
            }
            for i, (method, thread, start, end, accesses) in enumerate(calls)
        ],
    })


def _single_phase_suite(
    successes, failures, extractors=None, program=None
) -> PredicateSuite:
    """The suite :meth:`PredicateSuite.discover` must equal, built by
    calling each extractor's single-phase ``discover`` on the raw
    traces."""
    defs = {}
    for extractor in extractors or default_extractors():
        for pred in extractor.discover(successes, failures):
            defs.setdefault(pred.pid, pred)
    if program is not None:
        defs = {
            pid: p
            for pid, p in defs.items()
            if isinstance(p, FailurePredicate) or p.is_safe(program)
        }
    return PredicateSuite(defs=defs)


def _all_pairs_race_candidates(trace) -> set:
    """Every overlapping cross-thread pair of calls, whatever it shares:
    the oracle :func:`race_candidates`'s per-object sweep must equal."""
    candidates = set()
    execs = trace.method_executions()
    for i, ma in enumerate(execs):
        for mb in execs[i + 1:]:
            if ma.thread == mb.thread or not ma.overlaps(mb):
                continue
            shared = {a.obj for a in ma.accesses} & {a.obj for a in mb.accesses}
            for obj in shared:
                if racy_window(ma, mb, obj) is not None:
                    pair = tuple(sorted([ma.key, mb.key]))
                    candidates.add((pair[0], pair[1], obj))
    return candidates



# ---------------------------------------------------------------------------
# SD counters ≡ log rescans
# ---------------------------------------------------------------------------


class TestPopcountCounting:
    def test_popcount_split(self):
        assert popcount_split(0b1011, 0b0011) == (2, 1)
        assert popcount_split(0, 0b1111) == (0, 0)

    def test_debugger_matches_manual_counts(self):
        debugger = StatisticalDebugger()
        debugger.add_observed(["a", "b"], failed=True)
        debugger.add_observed(["b"], failed=False)
        debugger.add_observed(["a"], failed=True)
        assert (debugger.n_failed, debugger.n_success) == (2, 1)
        assert debugger.counts == {"a": [2, 0], "b": [1, 1]}
        assert debugger.observed_in_failed("a") == 2
        assert debugger.observed_in_failed("missing") == 0
        assert debugger.fully_discriminative_pids() == ["a"]

    def test_debugger_stats_equal_rescan_reference(self, suite, corpus):
        logs = suite.evaluate_all(corpus.successes + corpus.failures)
        debugger = StatisticalDebugger().extend(logs)
        reference = rescan_stats(logs)
        assert list(debugger.stats()) == sorted(reference)  # pid order
        assert stats_tuples(debugger) == reference

    def test_debugger_add_extend_and_merge_agree(self):
        from repro.core.predicates import Observation

        a = PredicateLog(observations={"p": Observation(0, 1)}, failed=True)
        b = PredicateLog(observations={}, failed=False)
        debugger = StatisticalDebugger()
        assert debugger.stats() == {}
        assert debugger.fully_discriminative_pids() == []
        debugger.add(a)
        assert debugger.observed_in_failed("p") == 1
        assert debugger.fully_discriminative_pids() == ["p"]
        debugger.add(b)
        assert (debugger.n_failed, debugger.n_success) == (1, 1)
        assert stats_tuples(debugger) == rescan_stats([a, b])
        merged = StatisticalDebugger().extend([b]).merge(
            StatisticalDebugger().extend([a])
        )
        assert stats_tuples(merged) == stats_tuples(debugger)

    def test_matrix_sd_counters_equal_incremental_adds(self, suite, corpus):
        from repro.corpus.matrix import EvalMatrix

        matrix = EvalMatrix()
        imported = [
            trace_from_dict(
                trace_to_dict(t), fingerprint=trace_fingerprint(t)
            )
            for t in corpus.successes[:8] + corpus.failures[:8]
        ]
        reference = StatisticalDebugger()
        for trace in imported:
            reference.add(matrix.log_for(suite, trace))
        derived = matrix.sd_counters(suite, [t.fingerprint for t in imported])
        assert derived == reference


# ---------------------------------------------------------------------------
# Whole-session byte-identity across job counts
# ---------------------------------------------------------------------------


class TestSessionByteIdentity:
    def _report(self, engine):
        program = racy_counter_program()
        session = AIDSession(
            program,
            SessionConfig(
                n_success=20, n_fail=20, repeats=10, engine=engine
            ),
        )
        return session.run()

    def test_report_identical_serial_vs_eight_jobs(self, shared_engine):
        # a session's own engine and one passed in give one report
        serial = self._report(None)
        shared = self._report(shared_engine)
        assert json.dumps(serial.to_dict(), sort_keys=True) == json.dumps(
            shared.to_dict(), sort_keys=True
        )
        assert serial.suite.fingerprint == shared.suite.fingerprint

    def test_failure_pid_selection_matches_log_rescan(self):
        report = self._report(None)
        session_logs = report.suite.evaluate_all(report.corpus.failures)
        expected = [
            pid
            for pid in report.suite.failure_pids()
            if any(log.observed(pid) for log in session_logs)
        ]
        assert expected  # the rescan reference finds the same winner
        assert report.discovery.failure == expected[0]
