"""Trace JSON round-trip and offline analysis on imported traces."""

from __future__ import annotations

import pytest

from repro.core.acdag import ACDag, log_columns
from repro.core.extraction import PredicateSuite
from repro.core.statistical import StatisticalDebugger
from repro.harness.runner import collect
from repro.sim import run_program
from repro.sim.serialize import (
    ImportedTrace,
    TraceFormatError,
    trace_fingerprint,
    trace_from_dict,
    trace_from_json,
    trace_to_dict,
    trace_to_json,
)
from repro.workloads.common import REGISTRY


@pytest.fixture(scope="module")
def corpus(racy_program):
    return collect(racy_program, n_success=15, n_fail=15)


class TestRoundTrip:
    def test_schema_fields(self, corpus):
        payload = trace_to_dict(corpus.failures[0])
        assert payload["schema"] == 1
        assert payload["failure"]["mode"] == "crash"
        call = payload["calls"][0]
        for field in (
            "method", "thread", "occurrence", "start_time", "end_time",
            "return_value", "exception", "accesses",
        ):
            assert field in call

    def test_method_executions_preserved(self, corpus):
        original = corpus.failures[0]
        restored = trace_from_json(trace_to_json(original))
        assert isinstance(restored, ImportedTrace)
        orig = original.method_executions()
        back = restored.method_executions()
        assert len(orig) == len(back)
        for a, b in zip(orig, back):
            assert a.key == b.key
            assert a.start_time == b.start_time
            assert a.end_time == b.end_time
            assert a.exception == b.exception
            assert len(a.accesses) == len(b.accesses)

    def test_failure_metadata_preserved(self, corpus):
        original = corpus.failures[0]
        restored = trace_from_dict(trace_to_dict(original))
        assert restored.failed
        assert restored.failure.signature == original.failure.signature

    def test_lookup_and_objects(self, corpus):
        original = corpus.successes[0]
        restored = trace_from_dict(trace_to_dict(original))
        for m in original.method_executions():
            assert restored.lookup(m.key) is not None
        assert restored.objects_accessed() == original.objects_accessed()

    def test_schema_version_checked(self, corpus):
        payload = trace_to_dict(corpus.successes[0])
        payload["schema"] = 99
        with pytest.raises(ValueError, match="schema"):
            trace_from_dict(payload)

    def test_unjsonable_returns_coerced(self, racy_program):
        # tuples become lists; exotic objects become reprs — never crash.
        trace = run_program(racy_program, 0).trace
        text = trace_to_json(trace)
        assert text  # serializable end to end


def _first_call_with_access(payload: dict) -> dict:
    return next(c for c in payload["calls"] if c["accesses"])


#: Times no execution can record, one per bound the decoder enforces.
IMPOSSIBLE_TIMES = {
    "negative-trace-end": lambda p: p.update(end_time=-5),
    "negative-call-start": lambda p: p["calls"][0].update(start_time=-1),
    "negative-access-time": lambda p: _first_call_with_access(p)[
        "accesses"
    ][0].update(time=-1),
    "negative-failure-time": lambda p: p["failure"].update(time=-1),
    "call-ends-before-it-starts": lambda p: p["calls"][0].update(
        end_time=p["calls"][0]["start_time"] - 1
    ),
    "call-ends-after-the-trace": lambda p: p["calls"][0].update(
        end_time=p["end_time"] + 1
    ),
    "failure-after-the-trace": lambda p: p["failure"].update(
        time=p["end_time"] + 1
    ),
}


class TestImpossibleTimes:
    @pytest.mark.parametrize("case", sorted(IMPOSSIBLE_TIMES))
    def test_decode_refuses(self, corpus, case):
        payload = trace_to_dict(corpus.failures[0])
        trace_from_dict(payload)  # the untouched payload decodes
        IMPOSSIBLE_TIMES[case](payload)
        with pytest.raises(TraceFormatError, match="impossible time"):
            trace_from_dict(payload)

    def test_bounds_are_inclusive(self, corpus):
        # A zero-width call, a call ending with the trace and a failure
        # at the trace's last tick are all possible.
        payload = trace_to_dict(corpus.failures[0])
        first, last = payload["calls"][0], payload["calls"][-1]
        first["end_time"] = first["start_time"]
        for access in first["accesses"]:
            access["time"] = first["start_time"]
        last["end_time"] = payload["end_time"]
        payload["failure"]["time"] = payload["end_time"]
        restored = trace_from_dict(payload)
        assert restored.method_executions()[0].duration == 0


class TestRoundTripProperty:
    """Property-style sweeps: the corpus store's core invariant is that
    serialize → import reproduces ``method_executions`` *identically*
    (every field, including failure and fault metadata), for failed and
    successful runs alike."""

    @pytest.mark.parametrize("seed", range(20))
    def test_method_executions_identical_across_seeds(
        self, racy_program, seed
    ):
        trace = run_program(racy_program, seed).trace
        restored = trace_from_json(trace_to_json(trace))
        assert restored.method_executions() == trace.method_executions()
        assert restored.failed == trace.failed
        if trace.failed:
            assert restored.failure == trace.failure

    @pytest.mark.parametrize(
        "workload_name", ["network", "kafka", "npgsql", "healthtelemetry"]
    )
    def test_case_study_failures_round_trip(self, workload_name):
        program = REGISTRY.build(workload_name).program
        failures = 0
        for seed in range(40):
            trace = run_program(program, seed).trace
            restored = trace_from_dict(trace_to_dict(trace))
            # identical up to the documented return-value JSON coercion
            # (tuples become lists on first serialization, then stay put)
            assert trace_to_dict(restored) == trace_to_dict(trace)
            assert [m.key for m in restored.method_executions()] == [
                m.key for m in trace.method_executions()
            ]
            if trace.failed:
                failures += 1
                # fault metadata survives: mode, exception, site, time
                assert restored.failure.mode == trace.failure.mode
                assert restored.failure.exception == trace.failure.exception
                assert restored.failure.method == trace.failure.method
                assert restored.failure.thread == trace.failure.thread
                assert restored.failure.time == trace.failure.time
            if failures >= 3:
                break
        assert failures >= 1, f"{workload_name}: no failed seed in range"

    @pytest.mark.parametrize("seed", range(10))
    def test_serialized_form_is_a_fixed_point(self, racy_program, seed):
        """dict → import → dict is the identity, so content fingerprints
        agree between live and imported traces (the dedup invariant)."""
        trace = run_program(racy_program, seed).trace
        payload = trace_to_dict(trace)
        reserialized = trace_to_dict(trace_from_dict(payload))
        assert reserialized == payload
        assert trace_fingerprint(trace) == trace_fingerprint(
            trace_from_dict(payload)
        )


class TestOfflineAnalysis:
    def test_full_pipeline_on_imported_traces(self, corpus, racy_program):
        """Collect once, serialize, analyze entirely from JSON."""
        successes = [
            trace_from_json(trace_to_json(t)) for t in corpus.successes
        ]
        failures = [
            trace_from_json(trace_to_json(t)) for t in corpus.failures
        ]
        suite = PredicateSuite.discover(
            successes, failures, program=racy_program
        )
        logs = [suite.evaluate(t) for t in successes + failures]
        sd = StatisticalDebugger().extend(logs)
        fully = [
            pid for pid in sd.fully_discriminative_pids()
            if not pid.startswith("FAILURE[")
        ]
        assert any(pid.startswith("race(counter)") for pid in fully)
        failure_pid = suite.failure_pids()[0]
        dag = ACDag.build(
            defs=dict(suite.defs),
            columns=log_columns(
                [log for log in logs if log.failed], [*fully, failure_pid]
            ),
            failure=failure_pid,
        )
        assert len(dag) == len(fully) + 1

    def test_imported_equals_live_evaluation(self, corpus, racy_program):
        suite = PredicateSuite.discover(
            corpus.successes, corpus.failures, program=racy_program
        )
        for trace in corpus.failures[:5]:
            live = suite.evaluate(trace)
            offline = suite.evaluate(trace_from_json(trace_to_json(trace)))
            assert set(live.observations) == set(offline.observations)
