"""The intervention-execution engine: group walks, cache, stats.

Covers the engine's guarantees:

* a group walks its seeds in order and stops at the first failure;
* the outcome cache accounts hits/misses, survives a JSON round-trip,
  refuses malformed files instead of coercing them, and keeps the
  previous file when a save fails; a warm engine replays a discovery
  with zero new executions;
* the CLI's ``--cache`` flag wires it all up.
"""

from __future__ import annotations

import json
import random

import pytest

from repro.cli import main
from repro.core.discovery import causal_path_discovery
from repro.core.intervention import RunOutcome, SimulationRunner
from repro.core.variants import Approach, discover
from repro.exec import ExecStats, ExecutionEngine, OutcomeCache, RunRequest
from repro.workloads.synthetic import generate_app, spec_for_maxt


# ---------------------------------------------------------------------------
# Cache
# ---------------------------------------------------------------------------


def _request(pids, seed=0, workload="w"):
    return RunRequest(workload, seed, frozenset(pids))


def _outcome(observed=(), failed=False, seed=0):
    return RunOutcome(observed=frozenset(observed), failed=failed, seed=seed)


def _entry(**changes):
    """One valid persisted cache entry, with fields overridden."""
    outcome = {"observed": ["P2"], "failed": False, "seed": 1}
    outcome.update(changes.pop("outcome", {}))
    entry = {"workload": "w", "seed": 1, "pids": ["P1"], "outcome": outcome}
    entry.update(changes)
    return entry


#: (file contents, expected error): each refused by OutcomeCache.load
MALFORMED_CACHES = [
    ("not json {{{", "not an outcome-cache"),
    (
        {"version": 1, "entries": [{}]},
        r"malformed cache: entries\[0\]: missing key",
    ),
    ({"version": 1, "entries": 5}, "entries: expected a list"),
    (
        {"version": 1, "entries": [_entry(), _entry(outcome={"failed": "false"})]},
        r"entries\[1\]\.outcome\.failed: expected a bool",
    ),
    (
        {"version": 1, "entries": [_entry(pids="P1")]},
        r"entries\[0\]\.pids: expected a list",
    ),
    (
        {"version": 1, "entries": [_entry(outcome={"observed": "P1"})]},
        r"entries\[0\]\.outcome\.observed: expected a list",
    ),
    (
        {"version": 1, "entries": [_entry(seed=1.7)]},
        r"entries\[0\]\.seed: expected an int",
    ),
    (
        {"version": 1, "entries": [_entry(outcome={"seed": True})]},
        r"entries\[0\]\.outcome\.seed: expected an int",
    ),
    (
        {"version": 1, "entries": [_entry(pids=[1])]},
        r"entries\[0\]\.pids\[0\]: expected a string",
    ),
]


class TestOutcomeCache:
    def test_store_and_peek(self):
        cache = OutcomeCache()
        request = _request({"P1"})
        assert cache.peek(request) is None
        cache.store(request, _outcome({"P2"}, failed=True))
        assert request in cache
        assert cache.peek(request).failed
        assert len(cache) == 1

    def test_key_includes_workload_and_seed(self):
        cache = OutcomeCache()
        cache.store(_request({"P1"}, seed=0, workload="a"), _outcome())
        assert cache.peek(_request({"P1"}, seed=1, workload="a")) is None
        assert cache.peek(_request({"P1"}, seed=0, workload="b")) is None

    def test_hit_miss_accounting(self):
        cache = OutcomeCache()
        cache.record_miss()
        cache.record_hit()
        cache.record_hit()
        assert (cache.hits, cache.misses, cache.lookups) == (2, 1, 3)
        assert cache.hit_rate == pytest.approx(2 / 3)

    def test_persistence_round_trip(self, tmp_path):
        path = str(tmp_path / "outcomes.json")
        cache = OutcomeCache()
        request = _request({"P1", "P2"}, seed=7, workload="npgsql@50000")
        outcome = _outcome({"P3", "F"}, failed=True, seed=7)
        cache.store(request, outcome)
        cache.save(path)

        reloaded = OutcomeCache(path=path)
        assert len(reloaded) == 1
        assert reloaded.peek(request) == outcome

    def test_load_rejects_unknown_version(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text('{"version": 99, "entries": []}')
        with pytest.raises(ValueError, match="version"):
            OutcomeCache(path=str(path))

    def test_load_rejects_non_json_and_malformed_entries(self, tmp_path):
        # the base entry is valid, so each case below breaks one field
        valid = tmp_path / "valid.json"
        valid.write_text(json.dumps({"version": 1, "entries": [_entry()]}))
        assert OutcomeCache(path=str(valid)).peek(
            _request({"P1"}, seed=1)
        ) == _outcome({"P2"}, seed=1)
        for index, (contents, error) in enumerate(MALFORMED_CACHES):
            path = tmp_path / f"bad{index}.json"
            path.write_text(
                contents if isinstance(contents, str) else json.dumps(contents)
            )
            with pytest.raises(ValueError, match=error) as excinfo:
                OutcomeCache(path=str(path))
            assert str(path) in str(excinfo.value)

    def test_failed_save_keeps_previous_cache(self, tmp_path, monkeypatch):
        path = str(tmp_path / "outcomes.json")
        cache = OutcomeCache()
        cache.store(_request({"P1"}), _outcome({"P2"}, failed=True))
        cache.save(path)

        def torn_dump(payload, handle):
            handle.write('{"version": 1, "entries": [')
            raise OSError("disk full")

        cache.store(_request({"P3"}), _outcome())
        monkeypatch.setattr(json, "dump", torn_dump)
        with pytest.raises(OSError, match="disk full"):
            cache.save(path)
        monkeypatch.undo()
        reloaded = OutcomeCache(path=path)
        assert len(reloaded) == 1
        assert reloaded.peek(_request({"P1"})).failed
        assert sorted(p.name for p in tmp_path.iterdir()) == ["outcomes.json"]

    def test_save_without_path_raises(self):
        with pytest.raises(ValueError, match="path"):
            OutcomeCache().save()


# ---------------------------------------------------------------------------
# Scheduler semantics
# ---------------------------------------------------------------------------


class TestScheduler:
    def _run_fn(self, fail_seeds, counter):
        def run(request):
            counter.append(request.seed)
            return _outcome(
                failed=request.seed in fail_seeds, seed=request.seed
            )

        return run

    def test_early_stop_truncates_at_first_failure(self):
        engine = ExecutionEngine()
        executed = []
        outcomes = engine.run_group(
            [_request({"P"}, seed=s) for s in range(10)],
            self._run_fn({3}, executed),
        )
        assert [o.seed for o in outcomes] == [0, 1, 2, 3]
        assert outcomes[-1].failed
        assert executed == [0, 1, 2, 3]  # serial: no speculation

    def test_repeat_group_served_from_cache(self):
        engine = ExecutionEngine()
        requests = [_request({"P"}, seed=s) for s in range(4)]
        executed = []
        first = engine.run_group(requests, self._run_fn(set(), executed))
        second = engine.run_group(requests, self._run_fn(set(), executed))
        assert first == second
        assert len(executed) == 4  # second round all cache hits
        assert engine.stats.executed == 4
        assert engine.stats.cached == 4
        assert engine.cache.hits == 4


# ---------------------------------------------------------------------------
# Stats
# ---------------------------------------------------------------------------


class TestExecStats:
    def test_report_contents(self):
        stats = ExecStats(executed=3, cached=1, groups=2, batches=3)
        stats.note_round("giwp")
        stats.note_round("giwp")
        stats.note_round("branch")
        text = stats.report()
        assert "3 executed + 1 cached" in text
        assert "25% hit rate" in text
        assert "branch=1" in text and "giwp=2" in text


# ---------------------------------------------------------------------------
# Warm-cache replay
# ---------------------------------------------------------------------------


def _oracle_discovery(app, engine, approach=Approach.AID):
    return discover(
        approach, app.dag, app.runner(engine=engine), rng=random.Random(11)
    )


def _result_fingerprint(result):
    return (
        result.causal_path,
        result.spurious,
        result.budget.rounds,
        result.budget.executions,
        result.budget.history,
        [(r.intervened, r.stopped, r.pruned_by_observation) for r in result.rounds],
    )


class TestWarmReplay:
    def test_same_seed_different_spec_do_not_collide(self):
        # Same generation seed, different spec => different ground truth;
        # a shared engine must keep their cache namespaces apart.
        small = generate_app(5, spec_for_maxt(2))
        large = generate_app(5, spec_for_maxt(40))
        assert small.dag.predicates != large.dag.predicates
        engine = ExecutionEngine()
        assert (
            small.runner(engine=engine).workload
            != large.runner(engine=engine).workload
        )

    def test_custom_extractors_change_session_cache_namespace(
        self, racy_program
    ):
        from repro.core.extraction import default_extractors
        from repro.harness.session import AIDSession, SessionConfig

        plain = AIDSession(racy_program, SessionConfig())
        custom = AIDSession(
            racy_program,
            SessionConfig(extractors=tuple(default_extractors()[:2])),
        )
        assert plain._workload_key() != custom._workload_key()

    def test_warm_engine_executes_nothing(self):
        app = generate_app(9001, spec_for_maxt(10))
        engine = ExecutionEngine()
        cold = _oracle_discovery(app, engine)
        executed_cold = engine.stats.executed
        assert executed_cold > 0
        warm = _oracle_discovery(app, engine)
        assert engine.stats.executed == executed_cold
        assert _result_fingerprint(warm) == _result_fingerprint(cold)

    def test_persisted_cache_replays_simulation(self, tmp_path, racy_session):
        path = str(tmp_path / "outcomes.json")
        dag = racy_session.build_dag()

        cold_engine = ExecutionEngine(cache=OutcomeCache(path=path))
        base_runner = racy_session.make_runner()
        runner = SimulationRunner(
            simulator=base_runner.simulator,
            suite=base_runner.suite,
            failure_pid=base_runner.failure_pid,
            seeds=base_runner.seeds,
            engine=cold_engine,
        )
        cold = causal_path_discovery(dag, runner, rng=random.Random(0))
        assert cold_engine.stats.executed > 0
        assert cold_engine.flush() == path

        warm_engine = ExecutionEngine(cache=OutcomeCache(path=path))
        warm_runner = SimulationRunner(
            simulator=base_runner.simulator,
            suite=base_runner.suite,
            failure_pid=base_runner.failure_pid,
            seeds=base_runner.seeds,
            engine=warm_engine,
        )
        warm = causal_path_discovery(dag, warm_runner, rng=random.Random(0))
        assert warm_engine.stats.executed == 0
        assert warm_engine.stats.cached == warm_engine.stats.total_runs > 0
        assert _result_fingerprint(warm) == _result_fingerprint(cold)


# ---------------------------------------------------------------------------
# CLI wiring
# ---------------------------------------------------------------------------


class TestCliFlags:
    def test_figure8_cache_warm_run(self, tmp_path, capsys):
        cache = str(tmp_path / "f8.json")
        argv = ["figure8", "--apps", "2", "--cache", cache]
        assert main(argv) == 0
        cold = capsys.readouterr().out
        assert "exec stats" in cold and "outcome cache" in cold
        assert main(argv) == 0
        warm = capsys.readouterr().out
        assert "0 executed" in warm
        assert "100% hit rate" in warm

    def test_corrupt_cache_file_fails_cleanly(self, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text("not json {{{")
        with pytest.raises(SystemExit, match="--cache.*not an outcome-cache"):
            main(["figure8", "--apps", "2", "--cache", str(bad)])

    def test_debug_accepts_engine_flags(self, tmp_path, capsys):
        cache = str(tmp_path / "debug.json")
        assert main(
            ["debug", "network", "--runs", "30", "--cache", cache]
        ) == 0
        out = capsys.readouterr().out
        assert "root cause" in out
        assert "exec stats" in out
        assert f"-> {cache}" in out
