"""Harness: corpus collection, session pipeline, counting runner."""

from __future__ import annotations

import pytest

from repro.core.intervention import (
    CountingRunner,
    InterventionBudget,
    RunOutcome,
    ScriptedRunner,
)
from repro.harness.runner import CollectionError, LabeledCorpus, collect
from repro.harness.session import AIDSession, SessionConfig, debug
from repro.sim import Program


class TestCollect:
    def test_quotas_met(self, racy_program):
        corpus = collect(racy_program, n_success=10, n_fail=10)
        assert len(corpus.successes) == 10
        assert len(corpus.failures) == 10
        assert all(t.failed for t in corpus.failures)
        assert not any(t.failed for t in corpus.successes)

    def test_failing_seeds_replayable(self, racy_program):
        from repro.sim import run_program

        corpus = collect(racy_program, n_success=5, n_fail=5)
        for seed in corpus.failing_seeds:
            assert run_program(racy_program, seed).failed

    def test_collection_error_on_never_failing_program(self):
        def main(ctx):
            yield from ctx.work(1)
            return "ok"

        program = Program(name="healthy", methods={"Main": main}, main="Main")
        with pytest.raises(CollectionError):
            collect(program, n_success=2, n_fail=2, max_attempts=50)

    def test_signature_grouping(self):
        corpus = LabeledCorpus()
        assert corpus.dominant_failure_signature() is None
        assert corpus.failure_rate == 0.0


class TestSessionPipeline:
    def test_stage_caching(self, racy_session):
        assert racy_session.collect() is racy_session.collect()
        assert racy_session.analyze() is racy_session.analyze()
        assert racy_session.build_dag() is racy_session.build_dag()

    def test_failure_pid_excluded_from_candidates(self, racy_session):
        assert racy_session.failure_pid not in racy_session.fully_discriminative

    def test_runner_replays_failing_seeds_first(self, racy_session):
        runner = racy_session.make_runner()
        failing = racy_session.collect().failing_seeds
        assert runner.seeds[: len(failing[:15])] == failing[:15]

    def test_debug_one_call(self, racy_program):
        report = debug(
            racy_program,
            config=SessionConfig(n_success=20, n_fail=20, repeats=12),
        )
        assert report.causal_path[-1] == report.dag.failure
        assert report.n_causal >= 1
        assert "race(counter)" in report.discovery.root_cause

    def test_report_properties(self, racy_session):
        report = racy_session.run("AID")
        assert report.n_sd_predicates == len(report.fully_discriminative)
        assert report.n_rounds == report.discovery.n_rounds
        assert report.approach.value == "AID"


class TestCountingRunner:
    def test_budget_accumulates(self):
        ok = RunOutcome(observed=frozenset(), failed=False)
        bad = RunOutcome(observed=frozenset(), failed=True)
        inner = ScriptedRunner(script={}, default=[ok, bad])
        runner = CountingRunner(inner)
        runner.run_group(frozenset({"a"}))
        runner.run_group(frozenset({"b", "c"}))
        assert runner.budget.rounds == 2
        assert runner.budget.executions == 4
        assert runner.budget.history[0] == (frozenset({"a"}), True)

    def test_scripted_runner_raises_on_unknown(self):
        runner = ScriptedRunner(script={})
        with pytest.raises(KeyError):
            runner.run_group(frozenset({"x"}))

    def test_budget_default_state(self):
        budget = InterventionBudget()
        assert budget.rounds == 0 and budget.executions == 0


class TestSimulationRunnerBehaviour:
    def test_early_stop_on_first_failure(self, racy_session):
        runner = racy_session.make_runner()
        noise = next(
            pid
            for pid in racy_session.fully_discriminative
            if not pid.startswith("race(")
        )
        outcomes = runner.run_group(frozenset({noise}))
        # Early stop: at most one failing outcome, and it is the last.
        failing = [o for o in outcomes if o.failed]
        assert len(failing) <= 1
        if failing:
            assert outcomes[-1].failed

    def test_causal_intervention_runs_all_seeds(self, racy_session):
        runner = racy_session.make_runner()
        race = next(
            pid
            for pid in racy_session.fully_discriminative
            if pid.startswith("race(")
        )
        outcomes = runner.run_group(frozenset({race}))
        assert len(outcomes) == len(runner.seeds)
        assert not any(o.failed for o in outcomes)

    def test_needs_seeds(self, racy_session):
        from repro.core.intervention import SimulationRunner
        from repro.exec.engine import ExecutionEngine
        from repro.sim import Simulator

        with pytest.raises(ValueError):
            SimulationRunner(
                simulator=Simulator(racy_session.program),
                suite=racy_session._suite,
                failure_pid=racy_session.failure_pid,
                seeds=[],
                engine=ExecutionEngine(),
            )


class TestSessionBus:
    def test_private_engine_announces_every_round_on_the_session_bus(self):
        """A session given a bus but no engine still reports each
        intervention round on that bus: one event and one span each."""
        from repro.api.events import EventBus, EventLog
        from repro.workloads.common import REGISTRY

        log = EventLog()
        bus = EventBus([log])
        program = REGISTRY.build("network").program
        config = SessionConfig(bus=bus, n_success=20, n_fail=20)
        report = AIDSession(program, config).run()
        rounds = log.of_kind("intervention-round")
        spans = [
            e for e in log.of_kind("span-closed")
            if e.name.startswith("round:")
        ]
        assert report.n_rounds > 0
        assert len(rounds) == len(spans) == report.n_rounds
        assert all(span.parent == "interventions" for span in spans)
