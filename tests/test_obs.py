"""repro.obs: envelopes, spans, metrics, JSONL run logs, and the CLI.

Covers the observability invariants:

* the bus envelope (monotonic timestamps, contiguous sequence numbers,
  one run id) without touching the frozen event dataclasses;
* a poisoned observer warns once and never aborts the run or starves
  later observers;
* span tracing nests correctly and per-round spans land inside the
  ``interventions`` phase;
* a JSONL run log round-trips into an :class:`EventLog` replay, and a
  future-versioned log is rejected;
* event phase ordering in corpus-session mode (live and incremental are
  asserted in test_api) plus span placement in incremental mode;
* the report is byte-identical with observability on vs off, modulo the
  additive ``meta`` key;
* ``repro obs summary|compare|tail``, ``--log-dir/--progress/
  --metrics/--profile``, and ``repro corpus stats --json``.
"""

from __future__ import annotations

import json
import random
import time
import warnings

import pytest

from repro.api import CorpusSpec, RunSpec, run
from repro.api.events import (
    DagBuilt,
    EventBus,
    EventLog,
    SuiteFrozen,
    new_run_id,
)
from repro.api.spec import CollectionSpec, WorkloadSpec
from repro.cli import main
from repro.core.report import validate_report_dict
from repro.core.variants import discover
from repro.exec.engine import ExecutionEngine
from repro.harness.experiments import spec_for_maxt
from repro.obs import (
    JsonlRunLog,
    MetricsObserver,
    MetricsRegistry,
    ObsContext,
    ObsOptions,
    RunIndex,
    RunLogError,
    latest_run_log,
    read_run_log,
    render_compare,
    render_summary,
    summarize,
)
from repro.obs.runlog import RUN_LOG_SCHEMA_VERSION
from repro.sim import Simulator
from repro.workloads.common import REGISTRY
from repro.workloads.synthetic import generate_app


def small_spec(**overrides) -> RunSpec:
    base = dict(
        workload=WorkloadSpec("network"),
        collection=CollectionSpec(n_success=15, n_fail=15),
    )
    base.update(overrides)
    return RunSpec(**base)


def canonical(report) -> str:
    return json.dumps(report.to_dict(), sort_keys=True)


@pytest.fixture(scope="module")
def logged_run(tmp_path_factory):
    """One shared observed live run: (obs, report, log dir)."""
    log_dir = tmp_path_factory.mktemp("obs") / "runs"
    obs = ObsContext(ObsOptions(log_dir=str(log_dir), metrics=True))
    report = run(small_spec(), obs=obs)
    return obs, report, log_dir


@pytest.fixture(scope="module")
def seeded_corpus(tmp_path_factory):
    corpus_dir = tmp_path_factory.mktemp("obs-corpus") / "corpus"
    assert main(["corpus", "init", str(corpus_dir), "--workload", "network"]) == 0
    assert main(["corpus", "ingest", str(corpus_dir), "--runs", "5"]) == 0
    return str(corpus_dir)


# ---------------------------------------------------------------------------
# envelopes
# ---------------------------------------------------------------------------


class TestEnvelope:
    def test_envelope_context_is_stamped_at_emit_time(self):
        seen = []

        class Enveloped:
            def on_enveloped(self, envelope):
                seen.append(envelope)

        bus = EventBus([Enveloped()])
        for n in range(3):
            bus.emit(DagBuilt(n_nodes=n, n_edges=0))
        assert [e.seq for e in seen] == [1, 2, 3]
        assert [e.event.n_nodes for e in seen] == [0, 1, 2]
        times = [e.t for e in seen]
        assert times == sorted(times) and all(t >= 0 for t in times)
        assert {e.run_id for e in seen} == {bus.run_id}

    def test_plain_observers_still_get_bare_events(self):
        log = EventLog()
        bus = EventBus([log])
        bus.emit(SuiteFrozen(n_predicates=1))
        assert log.kinds() == ["suite-frozen"]

    def test_run_ids_are_unique_and_sortable(self):
        ids = {new_run_id() for _ in range(32)}
        assert len(ids) == 32
        assert all("T" in run_id and "-" in run_id for run_id in ids)

    def test_events_stay_frozen(self):
        event = SuiteFrozen(n_predicates=3)
        with pytest.raises(AttributeError):
            event.n_predicates = 4


# ---------------------------------------------------------------------------
# hardened emit (the poisoned observer)
# ---------------------------------------------------------------------------


class TestPoisonedObserver:
    def test_poisoned_observer_warns_once_and_never_starves_later_ones(self):
        class Poisoned:
            def on_event(self, event):
                raise ValueError("boom")

        log = EventLog()
        bus = EventBus([Poisoned(), log])
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            bus.emit(SuiteFrozen(n_predicates=1))
            bus.emit(DagBuilt(n_nodes=1, n_edges=0))
        # both events reached the healthy observer, in order
        assert log.kinds() == ["suite-frozen", "dag-built"]
        # the broken one produced exactly one warning
        ours = [w for w in caught if "Poisoned" in str(w.message)]
        assert len(ours) == 1
        assert "boom" in str(ours[0].message)

    def test_poisoned_observer_does_not_abort_a_real_run(self):
        class Poisoned:
            def on_event(self, event):
                raise RuntimeError("observer bug")

        log = EventLog()
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            report = run(small_spec(), observers=[Poisoned(), log])
        assert report.discovery is not None
        assert log.kinds()[-1] == "run-finished"

    def test_observers_never_affect_results(self):
        class Poisoned:
            def on_event(self, event):
                raise RuntimeError("observer bug")

        clean = run(small_spec())
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            poisoned = run(small_spec(), observers=[Poisoned()])
        assert canonical(clean) == canonical(poisoned)


# ---------------------------------------------------------------------------
# span tracing
# ---------------------------------------------------------------------------


class _TimedRunner:
    """Records ``perf_counter`` at entry to and exit from every
    ``run_group`` call of the runner it wraps."""

    def __init__(self, inner):
        self.inner = inner
        self.engine = inner.engine
        self.calls: list[tuple[float, float]] = []

    def run_group(self, pids):
        entered = time.perf_counter()
        outcomes = self.inner.run_group(pids)
        self.calls.append((entered, time.perf_counter()))
        return outcomes


class TestSpans:
    def test_spans_nest_with_depth_and_parent(self):
        log = EventLog()
        bus = EventBus([log])
        with bus.span("outer"):
            with bus.span("inner"):
                pass
        inner, outer = log.of_kind("span-closed")
        assert (inner.name, inner.depth, inner.parent) == ("inner", 1, "outer")
        assert (outer.name, outer.depth, outer.parent) == ("outer", 0, None)
        assert outer.duration >= inner.duration >= 0.0
        assert outer.started <= inner.started

    def test_emit_span_nests_under_the_open_span(self):
        log = EventLog()
        bus = EventBus([log])
        engine = ExecutionEngine(bus=bus)
        with bus.span("phase"):
            with engine.round("x"):
                pass
        round_span, phase_span = log.of_kind("span-closed")
        assert round_span.name == "round:x#1"
        assert round_span.depth == 1 and round_span.parent == "phase"
        assert phase_span.duration >= round_span.duration >= 0.0
        assert engine.stats.rounds == {"x": 1}

    def test_round_spans_contain_their_run_group_calls(self):
        log = EventLog()
        bus = EventBus([log])
        app = generate_app(5, spec_for_maxt(8))
        runner = _TimedRunner(app.runner(engine=ExecutionEngine(bus=bus)))
        with bus.span("interventions"):
            result = discover("AID", app.dag, runner, rng=random.Random(5))
        spans = [
            e for e in log.of_kind("span-closed")
            if e.name.startswith("round:")
        ]
        assert len(spans) == len(runner.calls) == result.n_rounds > 1
        t0 = bus._t0
        for span, (entered, left) in zip(spans, runner.calls):
            assert span.parent == "interventions"
            assert span.started <= entered - t0
            assert left - t0 <= span.started + span.duration + 1e-9

    def test_session_phases_and_round_spans(self, logged_run):
        _, _, log_dir = logged_run
        replay = read_run_log(latest_run_log(log_dir))
        spans = {e.name: e for e in replay.events.of_kind("span-closed")}
        for phase in (
            "collection", "discovery", "evaluate", "dag-build",
            "interventions",
        ):
            assert phase in spans and spans[phase].depth == 0
        rounds = [n for n in spans if n.startswith("round:")]
        assert rounds, "no per-round spans recorded"
        assert all(spans[n].parent == "interventions" for n in rounds)
        # every round span closes inside the interventions phase
        kinds = replay.events.kinds()
        hi = [
            i for i, e in enumerate(replay.events.events)
            if e.kind == "span-closed" and e.name == "interventions"
        ][0]
        for i, event in enumerate(replay.events.events):
            if event.kind == "span-closed" and event.name.startswith("round:"):
                assert i < hi
        assert kinds[-1] == "run-finished"

    def test_exceptions_still_close_the_span(self):
        log = EventLog()
        bus = EventBus([log])
        with pytest.raises(ValueError):
            with bus.span("doomed"):
                raise ValueError("nope")
        closed = log.first("span-closed")
        assert closed is not None and closed.name == "doomed"
        assert bus._span_stack == []


# ---------------------------------------------------------------------------
# metrics
# ---------------------------------------------------------------------------


class TestMetrics:
    def test_registry_counters_gauges_timers(self):
        registry = MetricsRegistry()
        registry.count("c")
        registry.count("c", 2)
        registry.gauge("g", 1.5)
        registry.time("t", 0.25)
        registry.time("t", 0.75)
        registry.register_provider(lambda: {"p": 7})
        snapshot = registry.snapshot()
        assert snapshot["counters"] == {"c": 3}
        assert snapshot["gauges"] == {"g": 1.5, "p": 7}
        assert snapshot["timers"]["t"] == {
            "count": 2, "total": 1.0, "mean": 0.5,
        }

    def test_observer_folds_events_into_the_registry(self):
        observer = MetricsObserver()
        bus = EventBus([observer])
        bus.emit(SuiteFrozen(n_predicates=9, source="persisted"))
        bus.emit(DagBuilt(n_nodes=4, n_edges=6))
        snapshot = observer.registry.snapshot()
        assert snapshot["counters"]["events.total"] == 2
        assert snapshot["counters"]["suite.source.persisted"] == 1
        assert snapshot["gauges"]["suite.predicates"] == 9
        assert snapshot["gauges"]["dag.nodes"] == 4

    def test_run_snapshot_covers_exec_and_eval_and_spans(self, logged_run):
        obs, report, _ = logged_run
        snapshot = obs.final_snapshot()
        gauges = snapshot["gauges"]
        assert gauges["exec.executed"] > 0
        assert gauges["collection.n_success"] == 15
        assert "span.interventions" in snapshot["timers"]
        assert "span.round:giwp" in snapshot["timers"] or any(
            name.startswith("span.round:") for name in snapshot["timers"]
        )
        # the report carries the identical snapshot
        assert report.metrics == snapshot

    def test_corpus_run_reports_kernel_metrics(self, seeded_corpus, tmp_path):
        obs = ObsContext(ObsOptions(metrics=True))
        run(
            RunSpec(corpus=CorpusSpec(dir=seeded_corpus, mode="incremental")),
            obs=obs,
        )
        gauges = obs.final_snapshot()["gauges"]
        assert gauges["eval.kernel_calls"] >= 1
        assert gauges["eval.fresh_pairs"] >= 1
        assert gauges["eval.kernel_batch_mean"] > 0


# ---------------------------------------------------------------------------
# the JSONL run log
# ---------------------------------------------------------------------------


class TestRunLog:
    def test_round_trip_replays_the_exact_events(self, tmp_path):
        log_dir = tmp_path / "runs"
        live = EventLog()
        obs = ObsContext(ObsOptions(log_dir=str(log_dir)))
        run(small_spec(), observers=[live], obs=obs)
        replay = read_run_log(obs.log_path)
        assert replay.run_id == obs.run_id
        assert replay.schema == RUN_LOG_SCHEMA_VERSION
        assert replay.events.kinds() == live.kinds()
        # typed equality for everything but run-finished (whose live
        # payload is the report object; the log stores its dict)
        for live_event, replayed in zip(live.events, replay.events.events):
            if live_event.kind == "run-finished":
                assert replayed.report == live_event.report.to_dict()
            else:
                assert replayed == live_event
        # envelope context survives in the raw records
        seqs = [row["seq"] for row in replay.records]
        assert seqs == sorted(seqs) and len(set(seqs)) == len(seqs)

    def test_metrics_snapshot_lands_in_the_log(self, logged_run):
        obs, _, _ = logged_run
        replay = read_run_log(obs.log_path)
        assert replay.metrics == obs.final_snapshot()

    def test_collection_steps_land_in_the_log(self, logged_run):
        obs, _, _ = logged_run
        replay = read_run_log(obs.log_path)
        finished = replay.events.first("collection-finished")
        simulator = Simulator(REGISTRY.build("network").program)
        # the sweep runs consecutive seeds from 0 until both quotas fill
        assert finished.executions >= 30
        assert finished.sim_steps == sum(
            simulator.run(seed).steps for seed in range(finished.executions)
        )
        gauges = replay.metrics["gauges"]
        assert gauges["collection.executions"] == finished.executions
        assert gauges["collection.sim_steps"] == finished.sim_steps
        text = render_summary(summarize(replay))
        assert "steps/s over the collection span" in text

    def test_future_schema_is_rejected(self, tmp_path):
        path = tmp_path / "future.jsonl"
        path.write_text(
            json.dumps(
                {"schema": RUN_LOG_SCHEMA_VERSION + 1, "run_id": "x"}
            )
            + "\n"
        )
        with pytest.raises(RunLogError, match="schema"):
            read_run_log(path)

    def test_garbage_is_rejected(self, tmp_path):
        not_a_log = tmp_path / "notes.jsonl"
        not_a_log.write_text('{"hello": "world"}\n')
        with pytest.raises(RunLogError, match="missing schema header"):
            read_run_log(not_a_log)
        missing = tmp_path / "missing.jsonl"
        with pytest.raises(RunLogError, match="cannot read"):
            read_run_log(missing)

    def test_unknown_event_kind_is_rejected(self, tmp_path):
        path = tmp_path / "odd.jsonl"
        path.write_text(
            json.dumps({"schema": RUN_LOG_SCHEMA_VERSION, "run_id": "x"})
            + "\n"
            + json.dumps(
                {"seq": 1, "t": 0.0, "wall": 0.0, "kind": "warp-drive",
                 "data": {}}
            )
            + "\n"
        )
        with pytest.raises(RunLogError, match="warp-drive"):
            read_run_log(path)

    # An event line whose data does not match its event type is refused
    # naming the field, not replayed as a wrong event or a TypeError.
    @pytest.mark.parametrize(
        "data, named",
        [
            ({"n_predicates": "2"}, "n_predicates"),
            ({"n_predicates": 2, "x": 1}, "'x'"),
        ],
        ids=["mistyped", "unknown-key"],
    )
    def test_malformed_event_is_rejected(self, tmp_path, data, named):
        path = tmp_path / "odd.jsonl"
        path.write_text(
            json.dumps({"schema": RUN_LOG_SCHEMA_VERSION, "run_id": "x"})
            + "\n"
            + json.dumps(
                {"seq": 1, "t": 0.0, "wall": 0.0, "kind": "suite-frozen",
                 "data": data}
            )
            + "\n"
        )
        with pytest.raises(RunLogError, match="suite-frozen") as excinfo:
            read_run_log(path)
        assert named in str(excinfo.value)

    # A line that is not an event object, or a header whose own keys are
    # mistyped, is refused naming file:line: ``repro obs summary`` exits
    # with that message, and the run index skips the file.
    @pytest.mark.parametrize(
        "header, line, where",
        [
            ({"schema": 1, "run_id": "x"}, [1, 2], 2),
            ({"schema": 1, "run_id": "x"}, "x", 2),
            ({"schema": 1, "run_id": "x"},
             {"seq": 1, "t": 0.0, "wall": 0.0, "data": {}}, 2),
            ({"schema": 1, "run_id": "x"},
             {"seq": 1, "t": 0.0, "wall": 0.0, "kind": "suite-frozen"}, 2),
            ({"schema": True, "run_id": "x"}, None, 1),
        ],
        ids=["list", "string", "no-kind", "no-data", "bool-schema"],
    )
    def test_hostile_line_is_rejected(self, tmp_path, header, line, where):
        runs = tmp_path / "runs"
        good = JsonlRunLog(runs)
        EventBus([good]).emit(SuiteFrozen(n_predicates=2))
        good.close()
        path = runs / "hostile.jsonl"
        rows = [header] + ([] if line is None else [line])
        path.write_text("".join(json.dumps(row) + "\n" for row in rows))
        with pytest.raises(RunLogError) as excinfo:
            read_run_log(path)
        assert str(excinfo.value).startswith(f"{path}:{where}: ")
        with pytest.raises(SystemExit) as excinfo:
            main(["obs", "summary", str(path)])
        assert str(excinfo.value.code).startswith(f"repro: obs: {path}:{where}: ")
        index = RunIndex(runs)
        index.refresh(save=False)
        outcomes = {e["file"]: e["outcome"] for e in index.entries.values()}
        assert outcomes[path.name] == "unreadable"
        assert outcomes[good.path.name] != "unreadable"

    def test_crashed_run_leaves_a_valid_prefix(self, tmp_path):
        log = JsonlRunLog(tmp_path / "runs")
        bus = EventBus([log])
        bus.emit(SuiteFrozen(n_predicates=2))
        log.close()  # the run died before run-finished
        replay = read_run_log(latest_run_log(tmp_path / "runs"))
        assert replay.events.kinds() == ["suite-frozen"]
        assert replay.metrics is None


# ---------------------------------------------------------------------------
# phase ordering (corpus-session mode; live + incremental in test_api)
# ---------------------------------------------------------------------------


class TestPhaseOrdering:
    def test_corpus_session_event_ordering(self, seeded_corpus):
        log = EventLog()
        run(
            small_spec(corpus=CorpusSpec(dir=seeded_corpus)),
            observers=[log],
        )
        kinds = log.kinds()
        milestones = [
            "run-started",
            "corpus-loaded",
            "collection-finished",
            "suite-frozen",
            "logs-evaluated",
            "dag-built",
            "intervention-round",
            "engine-finished",
            "run-finished",
        ]
        indices = [kinds.index(kind) for kind in milestones]
        assert indices == sorted(indices), kinds

    def test_incremental_span_placement(self, seeded_corpus, tmp_path):
        obs = ObsContext(ObsOptions(log_dir=str(tmp_path / "runs")))
        run(
            RunSpec(corpus=CorpusSpec(dir=seeded_corpus, mode="incremental")),
            obs=obs,
        )
        replay = read_run_log(obs.log_path)
        kinds = replay.events.kinds()
        milestones = [
            "run-started",
            "corpus-loaded",
            "suite-frozen",
            "logs-evaluated",
            "dag-built",
            "engine-finished",
            "run-finished",
        ]
        indices = [kinds.index(kind) for kind in milestones]
        assert indices == sorted(indices), kinds
        spans = [e.name for e in replay.events.of_kind("span-closed")]
        assert "evaluate" in spans and "dag-build" in spans


# ---------------------------------------------------------------------------
# the report meta key
# ---------------------------------------------------------------------------


class TestReportMeta:
    def test_meta_defaults_to_inert(self):
        payload = run(small_spec()).to_dict()
        assert payload["meta"] == {
            "schema_version": payload["schema"],
            "run_id": None,
            "metrics": None,
        }
        assert validate_report_dict(payload) == []

    def test_observed_report_is_identical_modulo_meta(self, logged_run):
        _, observed, _ = logged_run
        plain = run(small_spec())
        observed_payload = observed.to_dict()
        plain_payload = plain.to_dict()
        assert observed_payload["meta"]["run_id"] is not None
        assert observed_payload["meta"]["metrics"] is not None
        observed_payload.pop("meta")
        plain_payload.pop("meta")
        assert json.dumps(observed_payload, sort_keys=True) == json.dumps(
            plain_payload, sort_keys=True
        )

    def test_stamped_meta_validates(self, logged_run):
        _, observed, _ = logged_run
        assert validate_report_dict(observed.to_dict()) == []

    def test_meta_is_additive_for_old_payloads(self):
        payload = run(small_spec()).to_dict()
        del payload["meta"]
        assert validate_report_dict(payload) == []

    def test_meta_problems_are_caught(self):
        payload = run(small_spec()).to_dict()
        payload["meta"] = {"schema_version": 99}
        problems = validate_report_dict(payload)
        assert any("meta.run_id" in p for p in problems)
        assert any("meta.schema_version" in p for p in problems)


# ---------------------------------------------------------------------------
# the CLI surface
# ---------------------------------------------------------------------------


class TestObsCli:
    @pytest.fixture(scope="class")
    def cli_log_dir(self, tmp_path_factory):
        log_dir = tmp_path_factory.mktemp("obs-cli") / "runs"
        assert main([
            "debug", "network", "--runs", "10",
            "--log-dir", str(log_dir),
        ]) == 0
        assert main([
            "debug", "network", "--runs", "12",
            "--log-dir", str(log_dir),
        ]) == 0
        return log_dir

    def test_summary_reconstructs_phases_offline(self, cli_log_dir, capsys):
        assert main(["obs", "summary", str(cli_log_dir)]) == 0
        out = capsys.readouterr().out
        for phase in ("collection", "discovery", "interventions"):
            assert phase in out
        assert "metrics" in out

    def test_summary_of_a_single_file(self, cli_log_dir, capsys):
        newest = latest_run_log(cli_log_dir)
        assert main(["obs", "summary", str(newest), "--no-metrics"]) == 0
        out = capsys.readouterr().out
        assert newest.stem in out and "metrics" not in out

    def test_compare_two_runs(self, cli_log_dir, capsys):
        logs = sorted(cli_log_dir.glob("*.jsonl"))
        assert len(logs) == 2
        assert main(["obs", "compare", str(logs[0]), str(logs[1])]) == 0
        out = capsys.readouterr().out
        assert "TOTAL" in out and "B/A" in out

    def test_tail_prints_every_line(self, cli_log_dir, capsys):
        assert main(["obs", "tail", str(cli_log_dir)]) == 0
        out = capsys.readouterr().out
        assert "[header]" in out and "run-finished" in out

    def test_summary_json_is_the_versioned_dict(self, cli_log_dir, capsys):
        newest = latest_run_log(cli_log_dir)
        assert main(["obs", "summary", str(newest), "--json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["schema"] == 1
        assert payload["run_id"] == newest.stem
        assert payload["outcome"] == "finished"
        assert payload["spec_digest"]
        assert set(payload["durations"]) >= {"collection", "interventions"}
        assert payload["total"] > 0

    def test_compare_json_pairs_the_same_dicts(self, cli_log_dir, capsys):
        logs = sorted(cli_log_dir.glob("*.jsonl"))
        assert main([
            "obs", "compare", str(logs[0]), str(logs[1]), "--json",
        ]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["schema"] == 1
        assert payload["a"]["run_id"] == logs[0].stem
        assert payload["b"]["run_id"] == logs[1].stem
        assert payload["total_ratio"] > 0
        assert all(p["ratio"] is None or p["ratio"] > 0
                   for p in payload["phases"])

    def test_spans_renders_the_tree(self, cli_log_dir, capsys):
        newest = latest_run_log(cli_log_dir)
        assert main(["obs", "spans", str(newest)]) == 0
        out = capsys.readouterr().out
        assert f"{newest.stem}:" in out and "total" in out
        assert "collection" in out and "interventions" in out
        assert "round:" in out  # nested child spans, indented
        assert "%" in out  # share-of-parent annotations

    def test_index_builds_and_reprints(self, cli_log_dir, capsys):
        assert main(["obs", "index", str(cli_log_dir)]) == 0
        out = capsys.readouterr().out
        assert "2 indexed run" in out
        index_path = cli_log_dir / "index.json"
        assert index_path.exists()
        first = index_path.read_text()
        # rebuild from scratch is idempotent
        assert main(["obs", "index", str(cli_log_dir), "--rebuild"]) == 0
        capsys.readouterr()
        assert index_path.read_text() == first

    def test_index_json_lists_summary_records(self, cli_log_dir, capsys):
        assert main(["obs", "index", str(cli_log_dir), "--json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["schema"] == 1
        assert payload["summary_schema"] == 1
        assert len(payload["runs"]) == 2
        for run_id, row in payload["runs"].items():
            assert row["run_id"] == run_id
            assert row["outcome"] == "finished"
            assert row["n_events"] > 0

    def test_summary_errors_on_empty_dir(self, tmp_path):
        with pytest.raises(SystemExit, match="obs"):
            main(["obs", "summary", str(tmp_path)])

    def test_profile_requires_log_dir(self):
        with pytest.raises(SystemExit, match="--profile requires"):
            main(["debug", "network", "--runs", "5", "--profile"])

    def test_profile_writes_per_phase_dumps(self, tmp_path):
        log_dir = tmp_path / "runs"
        assert main([
            "debug", "network", "--runs", "5",
            "--log-dir", str(log_dir), "--profile",
        ]) == 0
        profiles = {p.name.split("-")[-1] for p in log_dir.glob("*.prof")}
        assert "collection.prof" in profiles
        assert "interventions.prof" in profiles

    def test_progress_streams_to_stderr(self, tmp_path, capsys):
        assert main([
            "debug", "network", "--runs", "5", "--progress",
        ]) == 0
        err = capsys.readouterr().err
        assert "run started" in err and "run finished" in err

    def test_metrics_flag_prints_snapshot(self, capsys):
        assert main([
            "debug", "network", "--runs", "5", "--metrics",
        ]) == 0
        err = capsys.readouterr().err
        assert "metrics:" in err and "exec.executed" in err


class TestCorpusStatsJson:
    def test_stats_json_payload(self, seeded_corpus, capsys):
        assert main(["corpus", "stats", seeded_corpus, "--json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["schema"] == 1
        assert payload["program"] == "network-controlplane"
        assert payload["traces"]["total"] == payload["traces"]["pass"] + (
            payload["traces"]["fail"]
        )
        assert set(payload["matrix"]) == {
            "predicates", "traces", "pairs", "coverage",
        }

    def test_stats_text_still_works(self, seeded_corpus, capsys):
        assert main(["corpus", "stats", seeded_corpus]) == 0
        assert "traces" in capsys.readouterr().out
