"""Micro-benchmarks: substrate and pipeline-stage throughput.

Not a paper artifact — these guard against performance regressions in
the pieces every experiment leans on: simulator stepping, predicate
extraction, AC-DAG construction, and suite evaluation.
"""

from __future__ import annotations

from repro.core.acdag import ACDag
from repro.core.extraction import PredicateSuite
from repro.core.statistical import StatisticalDebugger
from repro.sim import Simulator

from .conftest import shared_session


def test_micro_simulator_run(benchmark, apps_per_setting):
    session = shared_session("kafka")
    simulator = Simulator(session.program)
    benchmark.group = "micro"
    result = benchmark(lambda: simulator.run(12345))
    assert result.steps > 0


def test_micro_suite_evaluation(benchmark):
    session = shared_session("kafka")
    session.analyze()
    trace = session.collect().failures[0]
    benchmark.group = "micro"
    log = benchmark(lambda: session._suite.evaluate(trace))
    assert log.failed


def test_micro_suite_discovery(benchmark):
    session = shared_session("npgsql")
    corpus = session.collect()
    benchmark.group = "micro"
    suite = benchmark(
        lambda: PredicateSuite.discover(
            corpus.successes, corpus.failures, program=session.program
        )
    )
    assert len(suite) > 0


def test_micro_acdag_build(benchmark):
    session = shared_session("healthtelemetry")
    session.analyze()
    failed_logs = session._suite.evaluate_all(session.collect().failures)
    benchmark.group = "micro"
    dag = benchmark(
        lambda: ACDag.build(
            defs=dict(session._suite.defs),
            failed_logs=failed_logs,
            failure=session.failure_pid,
            candidate_pids=session.fully_discriminative,
        )
    )
    assert len(dag) > 90


def test_micro_statistics(benchmark):
    session = shared_session("healthtelemetry")
    session.analyze()
    corpus = session.collect()
    logs = session._suite.evaluate_all(corpus.successes + corpus.failures)
    benchmark.group = "micro"
    stats = benchmark(lambda: StatisticalDebugger().extend(logs).stats())
    assert stats
