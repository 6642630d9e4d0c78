"""Schedule-space exploration: strategies, replay, driver, spec, CLI."""

from __future__ import annotations

import json

import pytest

from repro.api.events import EventBus, EventLog
from repro.api.registry import (
    RegistryError,
    strategies,
    strategy_factory,
)
from repro.api.spec import CollectionSpec, RunSpec, WorkloadSpec
from repro.corpus import CorpusSession, TraceStore
from repro.explore import (
    DelayStrategy,
    ExplorationDriver,
    ExploreConfig,
    PCTStrategy,
    explore,
)
from repro.harness.session import SessionConfig
from repro.sim import (
    RandomStrategy,
    ReplayStrategy,
    Schedule,
    ScheduleError,
    Simulator,
)
from repro.sim.serialize import stable_digest, trace_to_dict
from repro.workloads.common import REGISTRY


def _digest(result) -> str:
    return stable_digest(trace_to_dict(result.trace))


@pytest.fixture(scope="module")
def npgsql():
    return REGISTRY.build("npgsql").program


# ---------------------------------------------------------------------------
# The strategy seam
# ---------------------------------------------------------------------------


class TestStrategySeam:
    def test_default_path_is_random_strategy(self, npgsql):
        """run(seed) and run(seed, strategy=RandomStrategy(seed)) are
        the same execution — the refactor's byte-identity contract."""
        sim = Simulator(npgsql)
        for seed in range(5):
            implicit = sim.run(seed)
            explicit = sim.run(seed, strategy=RandomStrategy(seed))
            assert _digest(implicit) == _digest(explicit)
            assert implicit.schedule.decisions == explicit.schedule.decisions

    @pytest.mark.parametrize(
        "factory",
        [
            lambda seed: RandomStrategy(seed),
            lambda seed: PCTStrategy(seed, depth=3),
            lambda seed: DelayStrategy(seed, delays=2),
        ],
        ids=["random", "pct", "delay"],
    )
    def test_every_strategy_is_deterministic(self, npgsql, factory):
        sim = Simulator(npgsql)
        for seed in (0, 7, 23):
            a = sim.run(seed, strategy=factory(seed))
            b = sim.run(seed, strategy=factory(seed))
            assert _digest(a) == _digest(b)
            assert a.schedule == b.schedule

    def test_strategies_explore_different_schedules(self, npgsql):
        sim = Simulator(npgsql)
        seed = 3
        sigs = {
            name: sim.run(
                seed, strategy=strategy_factory(name, {})(seed)
            ).schedule.signature()
            for name in ("random", "pct", "delay")
        }
        assert len(set(sigs.values())) > 1

    def test_bad_strategy_choice_rejected(self, npgsql):
        class Liar:
            def choose(self, point):
                return "no-such-thread"

        with pytest.raises(ScheduleError):
            Simulator(npgsql).run(0, strategy=Liar())

    def test_strategy_factory_carries_params(self, npgsql):
        factory = strategy_factory("pct", {"depth": 5})
        strategy = factory(9)
        assert isinstance(strategy, PCTStrategy)
        assert strategy.depth == 5 and strategy.seed == 9

    def test_unknown_strategy_fails_fast(self):
        with pytest.raises(RegistryError, match="pct"):
            strategy_factory("does-not-exist")

    def test_param_validation(self):
        with pytest.raises(ValueError):
            PCTStrategy(seed=0, depth=0)
        with pytest.raises(ValueError):
            DelayStrategy(seed=0, delays=-1)

    def test_registered_names(self):
        assert {"random", "pct", "delay", "replay"} <= set(
            strategies.names()
        )


# ---------------------------------------------------------------------------
# Recorded schedules and replay
# ---------------------------------------------------------------------------


class TestSchedule:
    def test_round_trip(self, tmp_path):
        schedule = Schedule(
            program="p", seed=4, decisions=("main", "t1", "main")
        )
        assert Schedule.from_json(schedule.to_json()) == schedule
        path = schedule.save(tmp_path / "s.json")
        assert Schedule.load(path) == schedule

    def test_signature_excludes_seed(self):
        a = Schedule(program="p", seed=1, decisions=("main", "t1"))
        b = Schedule(program="p", seed=99, decisions=("main", "t1"))
        assert a.signature() == b.signature()
        assert a.signature() != Schedule(
            program="p", seed=1, decisions=("t1", "main")
        ).signature()

    def test_transitions_include_start_edge(self):
        schedule = Schedule(program="p", seed=0, decisions=("a", "b", "a"))
        assert schedule.transitions() == frozenset(
            {("", "a"), ("a", "b"), ("b", "a")}
        )

    def test_rejects_bad_documents(self):
        with pytest.raises(ScheduleError):
            Schedule.from_json("not json")
        with pytest.raises(ScheduleError):
            Schedule.from_dict({"schema": 999, "program": "p", "seed": 0})
        with pytest.raises(ScheduleError):
            Schedule.from_dict(
                {"schema": 1, "program": "p", "seed": 0, "decisions": [1]}
            )

    def test_replay_reproduces_recording(self, npgsql):
        sim = Simulator(npgsql)
        for seed in range(8):
            recorded = sim.run(seed, strategy=PCTStrategy(seed, depth=3))
            replayed = sim.run(
                seed, strategy=ReplayStrategy(schedule=recorded.schedule)
            )
            assert _digest(replayed) == _digest(recorded)
            assert replayed.schedule == recorded.schedule

    def test_replay_round_trips_through_disk(self, npgsql, tmp_path):
        sim = Simulator(npgsql)
        recorded = sim.run(5, strategy=DelayStrategy(5, delays=2))
        path = recorded.schedule.save(tmp_path / "s.json")
        loaded = Schedule.load(path)
        replayed = sim.run(
            loaded.seed, strategy=ReplayStrategy(schedule=loaded)
        )
        assert _digest(replayed) == _digest(recorded)

    def test_replay_reproduces_under_interventions(self, npgsql):
        """The reproducibility contract interventions depend on: same
        (program, interventions, schedule) -> same trace."""
        from repro.sim import DelayBefore, MethodSelector

        sim = Simulator(npgsql)
        method = npgsql.main
        injection = (
            DelayBefore(selector=MethodSelector(method=method), ticks=3),
        )
        recorded = sim.run(2, injection, strategy=PCTStrategy(2))
        replayed = sim.run(
            2, injection, strategy=ReplayStrategy(schedule=recorded.schedule)
        )
        assert _digest(replayed) == _digest(recorded)

    def test_replay_flags_divergence(self, npgsql):
        sim = Simulator(npgsql)
        recorded = sim.run(0).schedule
        # A foreign decision list cannot follow this program's ready
        # sets to the end; the strategy falls back and flags it.
        bogus = Schedule(
            program=recorded.program,
            seed=0,
            decisions=("main",) * (len(recorded) + 40),
        )
        strategy = ReplayStrategy(schedule=bogus)
        sim.run(0, strategy=strategy)
        assert strategy.diverged

    def test_prefix_replay_allows_novel_tail(self, npgsql):
        sim = Simulator(npgsql)
        recorded = sim.run(1)
        cut = max(1, len(recorded.schedule) // 2)
        strategy = ReplayStrategy(
            schedule=recorded.schedule,
            prefix=cut,
            tail=RandomStrategy(999),
        )
        mutated = sim.run(1, strategy=strategy)
        assert (
            mutated.schedule.decisions[:cut]
            == recorded.schedule.decisions[:cut]
        )
        assert not strategy.diverged


# ---------------------------------------------------------------------------
# The exploration driver
# ---------------------------------------------------------------------------


class TestDriver:
    def test_run_is_deterministic(self, npgsql):
        cfg = ExploreConfig(budget=60, strategy="pct")
        a = explore(npgsql, cfg).to_dict()
        b = explore(npgsql, cfg).to_dict()
        assert a == b

    def test_finds_and_verifies_failures(self, npgsql):
        result = explore(npgsql, ExploreConfig(budget=80, strategy="pct"))
        assert result.failures, "80 executions must surface a failure"
        assert result.all_replays_verified
        assert all(
            f.replay_verified is True for f in result.failures
        )

    def test_frontier_dedups_by_coverage(self, npgsql):
        driver = ExplorationDriver(npgsql, ExploreConfig(budget=80))
        driver.run()
        sigs = [sig for _, sig in driver.frontier]
        assert len(sigs) == len(set(sigs))
        # every frontier member earned its place with a novel edge, and
        # the union of frontier transitions is within global coverage;
        # the signature kept next to it is the schedule's own
        for schedule, sig in driver.frontier:
            assert schedule.transitions() <= driver.coverage
            assert sig == schedule.signature()

    def test_distinct_failing_signatures_deduped(self, npgsql):
        result = explore(npgsql, ExploreConfig(budget=80))
        # one recorded failure per observable trace: interleaving
        # signatures are unique, fingerprints are unique, and a second
        # schedule reproducing an already-recorded trace is dropped
        assert len(result.failures) <= result.distinct_failing_signatures
        sigs = [f.signature for f in result.failures]
        assert len(sigs) == len(set(sigs))
        fps = [f.fingerprint for f in result.failures]
        assert len(fps) == len(set(fps))

    def test_emits_typed_events(self, npgsql):
        log = EventLog()
        explore(
            npgsql,
            ExploreConfig(budget=60, stats_every=20),
            bus=EventBus([log]),
        )
        kinds = set(log.kinds())
        assert {
            "exploration-started",
            "execution-explored",
            "novel-coverage",
            "failure-found",
            "frontier-stats",
            "exploration-finished",
        } <= kinds
        finished = log.first("exploration-finished")
        assert finished.executions == 60

    def test_events_round_trip_through_runlog(self):
        from repro.obs.runlog import EVENT_TYPES, _event_from, _event_payload
        from repro.api import events as ev

        for cls in (
            ev.ExplorationStarted,
            ev.ExecutionExplored,
            ev.NovelCoverage,
            ev.FailureFound,
            ev.FrontierStats,
            ev.ExplorationFinished,
        ):
            assert cls.kind in EVENT_TYPES
        event = ev.FailureFound(
            signature="abc",
            failure_signature="crash/X/Y",
            seed=3,
            replay_verified=True,
        )
        assert _event_from(event.kind, _event_payload(event)) == event

    def test_corpus_ingestion_and_schedule_stamping(self, npgsql, tmp_path):
        store = TraceStore.init(tmp_path / "c", program=npgsql.name)
        driver = ExplorationDriver(
            npgsql, ExploreConfig(budget=100, strategy="pct"), store=store
        )
        result = driver.run()
        assert result.ingested_fail == len(result.failures)
        reopened = TraceStore.open(tmp_path / "c")
        counts = reopened.schedule_counts()
        assert counts["fail"] == len(result.failures)
        assert counts["pass"] == result.ingested_pass
        # every ingested row carries its interleaving signature
        assert all(
            e.schedule is not None for e in reopened.entries.values()
        )
        # the pipeline bootstrapped mid-run and kept the views patched
        assert driver.pipeline is not None
        assert driver.pipeline.dag is not None

    def test_fuzzed_corpus_warm_analyze_is_memoized(self, npgsql, tmp_path):
        """Driver-ingest parity: a fuzzed corpus is a first-class corpus
        — CorpusSession analyzes it, and the second analyze answers
        every (predicate, trace) pair from the matrix."""
        store = TraceStore.init(tmp_path / "c", program=npgsql.name)
        explore(
            npgsql, ExploreConfig(budget=100, strategy="pct"), store=store
        )
        warm = TraceStore.open(tmp_path / "c")
        session = CorpusSession(npgsql, warm)
        session.analyze()
        session.save()
        assert warm.eval_matrix() is not None
        second = TraceStore.open(tmp_path / "c")
        resession = CorpusSession(npgsql, second)
        resession.analyze()
        assert resession.matrix.pair_evaluations == 0
        assert resession.matrix.pair_hits > 0


# ---------------------------------------------------------------------------
# Spec plumbing
# ---------------------------------------------------------------------------


class TestCollectionSpecStrategy:
    def test_round_trip_toml_and_json(self):
        spec = RunSpec(
            workload=WorkloadSpec(name="npgsql"),
            collection=CollectionSpec(
                n_success=10,
                n_fail=10,
                strategy="pct",
                strategy_params={"depth": 3, "horizon": 500},
            ),
        )
        assert spec.problems() == []
        assert RunSpec.from_toml(spec.to_toml()) == spec
        assert RunSpec.from_json(spec.to_json()) == spec

    def test_unknown_strategy_rejected(self):
        spec = RunSpec(
            workload=WorkloadSpec(name="npgsql"),
            collection=CollectionSpec(strategy="zigzag"),
        )
        problems = spec.problems()
        assert any("zigzag" in p and "pct" in p for p in problems)

    def test_params_require_strategy(self):
        spec = CollectionSpec(strategy_params={"depth": 3})
        assert any(
            "requires" in p for p in spec.problems()
        )

    def test_params_must_be_scalars(self):
        spec = CollectionSpec(
            strategy="pct", strategy_params={"depth": [1, 2]}
        )
        assert any("scalars" in p for p in spec.problems())

    def test_session_workload_key_includes_strategy(self, npgsql):
        from repro.harness.session import AIDSession

        plain = AIDSession(npgsql, SessionConfig())._workload_key()
        pct = AIDSession(
            npgsql,
            SessionConfig(strategy="pct", strategy_params={"depth": 3}),
        )._workload_key()
        assert plain != pct
        assert "pct" in pct and "depth=3" in pct

    def test_spec_run_under_strategy(self):
        """A whole declarative run under pct: collection and
        intervention re-execution schedule identically, so the report
        is reproducible."""
        import repro

        spec = RunSpec(
            workload=WorkloadSpec(name="network"),
            collection=CollectionSpec(
                n_success=20,
                n_fail=20,
                strategy="pct",
                strategy_params={"depth": 3},
            ),
        )
        a = repro.api.run(spec).to_dict()
        b = repro.api.run(spec).to_dict()
        assert a == b


# ---------------------------------------------------------------------------
# CLI
# ---------------------------------------------------------------------------


class TestCli:
    def test_explore_json(self, capsys, tmp_path):
        from repro.cli import main

        assert (
            main(
                [
                    "explore",
                    "npgsql",
                    "--budget",
                    "60",
                    "--strategy",
                    "pct",
                    "--strategy-param",
                    "depth=3",
                    "--corpus",
                    str(tmp_path / "c"),
                    "--schedule-dir",
                    str(tmp_path / "s"),
                    "--json",
                ]
            )
            == 0
        )
        payload = json.loads(capsys.readouterr().out)
        assert payload["schema"] == 2
        assert payload["executions"] == 60
        assert payload["failures_found"] >= 1
        assert payload["all_replays_verified"] is True
        for failure in payload["failures"]:
            assert (tmp_path / "s" / f"{failure['signature']}.json").exists()

    def test_explore_then_trace_replay(self, capsys, tmp_path):
        from repro.cli import main

        assert (
            main(
                [
                    "explore",
                    "npgsql",
                    "--budget",
                    "60",
                    "--schedule-dir",
                    str(tmp_path / "s"),
                    "--json",
                ]
            )
            == 0
        )
        payload = json.loads(capsys.readouterr().out)
        failure = payload["failures"][0]
        schedule_file = tmp_path / "s" / f"{failure['signature']}.json"
        assert (
            main(
                [
                    "trace",
                    "npgsql",
                    "--schedule",
                    str(schedule_file),
                    "-o",
                    str(tmp_path / "replayed.json"),
                ]
            )
            == 0
        )
        replayed = json.loads((tmp_path / "replayed.json").read_text())
        assert stable_digest(replayed) == failure["fingerprint"]

    def test_explore_accepts_spec_file(self, capsys, tmp_path):
        from repro.cli import main

        spec = RunSpec(
            workload=WorkloadSpec(name="npgsql"),
            collection=CollectionSpec(
                strategy="delay", strategy_params={"delays": 2}
            ),
        )
        path = tmp_path / "spec.toml"
        spec.save(path)
        assert main(["explore", str(path), "--budget", "40"]) == 0
        out = capsys.readouterr().out
        assert "under delay" in out

    def test_explore_rejects_bad_target(self, tmp_path):
        from repro.cli import main

        with pytest.raises(SystemExit, match="explore"):
            main(["explore", str(tmp_path / "nope.toml")])

    def test_explore_into_other_programs_corpus_fails_cleanly(
        self, capsys, tmp_path
    ):
        import os
        import subprocess
        import sys
        from pathlib import Path

        from repro.cli import main

        corpus = str(tmp_path / "c")
        assert main(
            ["explore", "kafka", "--corpus", corpus, "--budget", "20"]
        ) == 0
        capsys.readouterr()
        src = Path(__file__).resolve().parent.parent / "src"
        proc = subprocess.run(
            [sys.executable, "-m", "repro", "explore", "network",
             "--corpus", corpus, "--budget", "20"],
            capture_output=True,
            text=True,
            env={**os.environ, "PYTHONPATH": str(src)},
        )
        output = proc.stdout + proc.stderr
        assert proc.returncode != 0
        assert "repro: --corpus:" in output
        assert "Traceback" not in output
        assert "explored" not in proc.stdout

    def test_debug_strategy_flag_parses(self):
        from repro.cli import build_parser

        args = build_parser().parse_args(
            ["debug", "network", "--strategy", "pct",
             "--strategy-param", "depth=4"]
        )
        assert args.strategy == "pct"
        assert args.strategy_param == ["depth=4"]

    def test_strategy_param_coercion(self):
        from repro.cli import _parse_strategy_params

        assert _parse_strategy_params(
            ["depth=3", "rate=0.5", "flag=true", "name=x"]
        ) == {"depth": 3, "rate": 0.5, "flag": True, "name": "x"}
        with pytest.raises(SystemExit):
            _parse_strategy_params(["oops"])

    def test_corpus_stats_reports_schedules(self, capsys, tmp_path):
        from repro.cli import main

        assert (
            main(
                [
                    "explore",
                    "npgsql",
                    "--budget",
                    "60",
                    "--corpus",
                    str(tmp_path / "c"),
                ]
            )
            == 0
        )
        capsys.readouterr()
        assert main(["corpus", "stats", str(tmp_path / "c")]) == 0
        out = capsys.readouterr().out
        assert "distinct failing" in out
        assert main(
            ["corpus", "stats", str(tmp_path / "c"), "--json"]
        ) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["schedules"]["fail"] >= 1
        assert payload["schedules"]["by_signature"]
