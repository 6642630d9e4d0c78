"""The declarative front door: RunSpec round-trips, registries,
observer events, report schema, and byte-identity with the legacy
entry points."""

from __future__ import annotations

import json

import pytest

import repro
from repro.api import (
    AnalysisSpec,
    CollectionSpec,
    CorpusSpec,
    EngineSpec,
    EventBus,
    EventLog,
    RunSpec,
    SpecError,
    WorkloadSpec,
    run,
    validate_report_dict,
)
from repro.api.events import DagBuilt, SuiteFrozen
from repro.api.registry import (
    Registry,
    RegistryError,
    extractors,
    policies,
    workloads,
)
from repro.cli import main
from repro.corpus import TraceStore
from repro.exec.engine import ExecutionEngine
from repro.harness.session import AIDSession, CorpusSession, SessionConfig
from repro.sim.scheduler import DEFAULT_MAX_STEPS


def small_spec(**overrides) -> RunSpec:
    base = dict(
        workload=WorkloadSpec("network"),
        collection=CollectionSpec(n_success=20, n_fail=20),
    )
    base.update(overrides)
    return RunSpec(**base)


def canonical(report) -> str:
    return json.dumps(report.to_dict(), sort_keys=True)


@pytest.fixture(scope="module")
def live_run():
    """One shared live run: (spec, report, event log)."""
    log = EventLog()
    spec = small_spec()
    report = run(RunSpec.from_dict(spec.to_dict()), observers=[log])
    return spec, report, log


@pytest.fixture(scope="module")
def seeded_corpus(tmp_path_factory):
    """A small stored corpus of the network workload."""
    corpus_dir = tmp_path_factory.mktemp("api") / "corpus"
    assert main(["corpus", "init", str(corpus_dir), "--workload", "network"]) == 0
    assert main(["corpus", "ingest", str(corpus_dir), "--runs", "5"]) == 0
    return str(corpus_dir)


class TestSpecRoundTrip:
    def test_dict_round_trip(self):
        spec = RunSpec(
            workload=WorkloadSpec("kafka"),
            collection=CollectionSpec(n_success=10, n_fail=12, start_seed=3),
            engine=EngineSpec(cache="/tmp/outcomes.json"),
            corpus=CorpusSpec(dir="/tmp/c", mode="incremental"),
            analysis=AnalysisSpec(
                approach="TAGT",
                repeats=9,
                rng_seed=5,
                extractors=("data-race", "failure"),
                policy="lamport",
            ),
        )
        assert RunSpec.from_dict(spec.to_dict()) == spec
        # and the dict itself is stable through the round trip
        assert RunSpec.from_dict(spec.to_dict()).to_dict() == spec.to_dict()

    def test_json_round_trip(self):
        spec = small_spec(engine=EngineSpec(cache="/tmp/outcomes.json"))
        assert RunSpec.from_json(spec.to_json()) == spec

    def test_toml_round_trip(self):
        spec = small_spec(
            analysis=AnalysisSpec(extractors=("duration", "failure"))
        )
        assert RunSpec.from_toml(spec.to_toml()) == spec

    @pytest.mark.parametrize("suffix", [".toml", ".json"])
    def test_file_round_trip(self, tmp_path, suffix):
        spec = small_spec()
        path = spec.save(tmp_path / f"spec{suffix}")
        assert RunSpec.load(path) == spec

    def test_defaults_mirror_session_config(self):
        spec = RunSpec(workload=WorkloadSpec("network"))
        config = SessionConfig()
        assert spec.collection.n_success == config.n_success
        assert spec.collection.n_fail == config.n_fail
        assert spec.collection.start_seed == config.start_seed
        assert spec.collection.max_steps == DEFAULT_MAX_STEPS
        assert spec.analysis.repeats == config.repeats
        assert spec.analysis.rng_seed == config.rng_seed

    def test_unknown_section_rejected(self):
        with pytest.raises(SpecError, match="unknown key 'wrokload'"):
            RunSpec.from_dict({"wrokload": {"name": "network"}})

    def test_unknown_key_rejected_with_valid_alternatives(self):
        with pytest.raises(SpecError, match=r"collection: unknown key 'n_succes'.*n_success"):
            RunSpec.from_dict({"collection": {"n_succes": 10}})

    def test_unsupported_version_rejected(self):
        with pytest.raises(SpecError, match="unsupported spec version 99"):
            RunSpec.from_dict({"version": 99})

    def test_bad_toml_rejected(self):
        with pytest.raises(SpecError, match="not valid TOML"):
            RunSpec.from_toml("[workload\nname=")

    def test_missing_file(self, tmp_path):
        with pytest.raises(SpecError, match="cannot read"):
            RunSpec.load(tmp_path / "nope.toml")

    def test_suffixless_file_sniffs_both_formats(self, tmp_path):
        as_json = tmp_path / "spec"
        as_json.write_text(small_spec().to_json())
        assert RunSpec.load(as_json) == small_spec()
        as_toml = tmp_path / "spec2"
        as_toml.write_text(small_spec().to_toml())
        assert RunSpec.load(as_toml) == small_spec()

    def test_suffixless_valid_json_surfaces_spec_errors(self, tmp_path):
        """A file that parses as JSON but fails validation must report
        the validation problem, not a TOML parse error."""
        path = tmp_path / "spec"
        path.write_text('{"wrokload": {"name": "network"}}')
        with pytest.raises(SpecError, match="unknown key 'wrokload'"):
            RunSpec.load(path)


class TestSpecValidation:
    def test_unknown_workload_lists_registered(self):
        spec = RunSpec(workload=WorkloadSpec("klafka"))
        with pytest.raises(SpecError, match=r"unknown workload 'klafka'.*kafka"):
            spec.validate()

    def test_missing_workload(self):
        with pytest.raises(SpecError, match="workload: required"):
            RunSpec().validate()

    def test_unknown_extractor(self):
        spec = small_spec(analysis=AnalysisSpec(extractors=("races",)))
        with pytest.raises(SpecError, match=r"unknown extractor 'races'.*data-race"):
            spec.validate()

    def test_unknown_policy(self):
        spec = small_spec(analysis=AnalysisSpec(policy="vector-clock"))
        with pytest.raises(
            SpecError, match=r"unknown precedence policy 'vector-clock'"
        ):
            spec.validate()

    def test_unknown_approach(self):
        spec = small_spec(analysis=AnalysisSpec(approach="YOLO"))
        with pytest.raises(SpecError, match=r"unknown approach 'YOLO'.*AID"):
            spec.validate()

    def test_incremental_requires_dir(self):
        spec = RunSpec(corpus=CorpusSpec(mode="incremental"))
        with pytest.raises(SpecError, match="corpus.dir: required"):
            spec.validate()

    def test_bad_mode(self):
        spec = small_spec(corpus=CorpusSpec(dir="/tmp/c", mode="async"))
        with pytest.raises(SpecError, match="'session' or 'incremental'"):
            spec.validate()

    # A spec built in Python is type-checked as a spec file is, so a
    # bool count or a string seed never runs.
    @pytest.mark.parametrize(
        "spec, path",
        [
            (
                small_spec(collection=CollectionSpec(n_success=True)),
                "collection.n_success",
            ),
            (
                small_spec(collection=CollectionSpec(start_seed="x")),
                "collection.start_seed",
            ),
            (
                small_spec(analysis=AnalysisSpec(rng_seed="x")),
                "analysis.rng_seed",
            ),
        ],
        ids=["bool-count", "string-start-seed", "string-rng-seed"],
    )
    def test_values_built_in_python_are_type_checked(self, spec, path):
        with pytest.raises(SpecError) as excinfo:
            run(spec)
        assert excinfo.value.path == path

    def test_mode_property(self, seeded_corpus):
        assert small_spec().mode == "live"
        assert small_spec(corpus=CorpusSpec(dir=seeded_corpus)).mode == "corpus"
        assert (
            RunSpec(corpus=CorpusSpec(dir=seeded_corpus, mode="incremental")).mode
            == "incremental"
        )


class TestRegistries:
    def test_unknown_key_is_actionable_keyerror(self):
        with pytest.raises(RegistryError) as excinfo:
            workloads.get("nope")
        assert isinstance(excinfo.value, KeyError)
        assert "unknown workload 'nope'" in str(excinfo.value)
        assert "npgsql" in str(excinfo.value)

    def test_workloads_registry_is_the_bundled_registry(self):
        from repro.workloads.common import REGISTRY

        assert REGISTRY is workloads

    def test_builtin_names(self):
        assert "data-race" in extractors and "failure" in extractors
        assert "kind-anchor" in policies and "lamport" in policies

    def test_duplicate_registration_refused(self):
        registry = Registry("thing")
        registry.register("x", lambda: 1)
        with pytest.raises(RegistryError, match="already registered"):
            registry.register("x", lambda: 2)
        registry.register("x", lambda: 3, replace=True)
        assert registry.build("x") == 3

    def test_third_party_registration_reaches_specs(self):
        name = "test-api-dummy-workload"
        workloads.register(name, workloads.get("network"))
        try:
            RunSpec(workload=WorkloadSpec(name)).validate()
        finally:
            workloads._factories.pop(name)


class TestObserverEvents:
    def test_live_event_ordering(self, live_run):
        _, _, log = live_run
        kinds = log.kinds()
        milestones = [
            "run-started",
            "collection-started",
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
        assert kinds[-1] == "run-finished"
        # every intervention round lands between dag-built and
        # engine-finished
        lo, hi = kinds.index("dag-built"), kinds.index("engine-finished")
        for i, kind in enumerate(kinds):
            if kind == "intervention-round":
                assert lo < i < hi

    def test_round_events_match_report(self, live_run):
        _, report, log = live_run
        assert len(log.of_kind("intervention-round")) == report.n_rounds

    def test_linear_rounds_are_counted_and_announced(self, monkeypatch):
        engines = []
        close = ExecutionEngine.close

        def capture(engine):
            engines.append(engine)
            close(engine)

        monkeypatch.setattr(ExecutionEngine, "close", capture)
        log = EventLog()
        spec = small_spec(analysis=AnalysisSpec(approach="LINEAR"))
        report = run(spec, bus=EventBus([log]))
        rounds = report.n_rounds
        assert rounds > 0
        assert len(log.of_kind("intervention-round")) == rounds
        (engine,) = engines
        assert engine.stats.rounds == {"linear": rounds}

    def test_collection_event_payload(self, live_run):
        _, report, log = live_run
        finished = log.first("collection-finished")
        assert finished.n_success == len(report.corpus.successes)
        assert finished.n_fail == len(report.corpus.failures)
        assert finished.signature == report.signature

    def test_incremental_event_ordering(self, seeded_corpus):
        log = EventLog()
        run(
            RunSpec(corpus=CorpusSpec(dir=seeded_corpus, mode="incremental")),
            observers=[log],
        )
        kinds = log.kinds()
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

    def test_callable_observers_and_bus(self, seeded_corpus):
        seen = []
        bus = EventBus([seen.append])
        bus.subscribe(lambda event: seen.append(event))
        bus.emit(DagBuilt(n_nodes=1, n_edges=0))
        assert len(seen) == 2 and all(e.kind == "dag-built" for e in seen)

    def test_events_are_frozen_snapshots(self):
        event = SuiteFrozen(n_predicates=3, source="discovered")
        with pytest.raises(AttributeError):
            event.n_predicates = 4


class TestByteIdentity:
    """The acceptance criterion: ``repro.run(RunSpec.from_dict(
    spec.to_dict()))`` equals the legacy entry points byte for byte."""

    def test_live_equals_legacy_aidsession(self, live_run):
        spec, api_report, _ = live_run
        program = repro.load_workload("network").program
        legacy = AIDSession(
            program,
            SessionConfig(
                n_success=spec.collection.n_success,
                n_fail=spec.collection.n_fail,
            ),
        ).run("AID")
        assert canonical(legacy) == canonical(api_report)

    def test_corpus_equals_legacy_corpussession(self, seeded_corpus):
        program = repro.load_workload("network").program
        store = TraceStore.open(seeded_corpus)
        legacy_session = CorpusSession(program, store, SessionConfig())
        legacy = legacy_session.run("AID")
        legacy_session.save()
        spec = RunSpec(
            workload=WorkloadSpec("network"),
            corpus=CorpusSpec(dir=seeded_corpus),
        )
        api_report = run(RunSpec.from_dict(spec.to_dict()))
        assert canonical(legacy) == canonical(api_report)

    def test_observers_do_not_change_results(self, live_run):
        spec, api_report, _ = live_run
        silent = run(RunSpec.from_dict(spec.to_dict()))
        assert canonical(silent) == canonical(api_report)

    def test_incremental_runs_are_deterministic(self, seeded_corpus):
        spec = RunSpec(corpus=CorpusSpec(dir=seeded_corpus, mode="incremental"))
        first = run(spec)
        second = run(spec)
        assert canonical(first) == canonical(second)
        assert second.discovery is None and second.approach is None


class TestReportSchema:
    def test_session_report_validates(self, live_run):
        _, report, _ = live_run
        payload = report.to_dict()
        assert validate_report_dict(payload) == []
        assert payload["schema"] == repro.REPORT_SCHEMA_VERSION
        assert payload["kind"] == "session"
        assert payload["discovery"]["causal_path"] == report.causal_path
        assert payload["explanation"]["text"] == report.explanation.render()

    def test_analysis_report_validates(self, seeded_corpus):
        report = run(
            RunSpec(corpus=CorpusSpec(dir=seeded_corpus, mode="incremental"))
        )
        payload = report.to_dict()
        assert validate_report_dict(payload) == []
        assert payload["kind"] == "analysis"
        assert payload["discovery"] is None
        assert payload["collection"]["n_success"] == report.n_success

    def test_report_is_json_serializable_and_deterministic(self, live_run):
        _, report, _ = live_run
        assert json.loads(json.dumps(report.to_dict())) == report.to_dict()

    def test_validation_catches_problems(self, live_run):
        _, report, _ = live_run
        payload = report.to_dict()
        broken = dict(payload, schema=99)
        assert any("schema" in p for p in validate_report_dict(broken))
        broken = {k: v for k, v in payload.items() if k != "dag"}
        assert any(p.startswith("dag") for p in validate_report_dict(broken))
        broken = dict(payload, discovery=None)
        assert any(
            "required for kind 'session'" in p
            for p in validate_report_dict(broken)
        )
        broken = dict(payload, extra=1)
        assert any("unknown key 'extra'" in p for p in validate_report_dict(broken))
        assert validate_report_dict([]) != []


class TestRunCLI:
    def test_run_toml_text(self, tmp_path, capsys):
        spec_path = tmp_path / "spec.toml"
        small_spec().save(spec_path)
        assert main(["run", str(spec_path)]) == 0
        out = capsys.readouterr().out
        assert "root cause" in out
        assert "exec stats" in out

    def test_run_json_validates_against_schema(self, tmp_path, capsys):
        spec_path = tmp_path / "spec.json"
        small_spec().save(spec_path)
        assert main(["run", str(spec_path), "--json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert validate_report_dict(payload) == []
        assert payload["program"] == "network-controlplane"

    def test_run_incremental_spec(self, tmp_path, capsys, seeded_corpus):
        spec_path = tmp_path / "analyze.toml"
        RunSpec(corpus=CorpusSpec(dir=seeded_corpus, mode="incremental")).save(
            spec_path
        )
        assert main(["run", str(spec_path), "--json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert validate_report_dict(payload) == []
        assert payload["kind"] == "analysis"

    def test_run_missing_spec_file(self, tmp_path):
        with pytest.raises(SystemExit, match="cannot read"):
            main(["run", str(tmp_path / "missing.toml")])

    def test_run_invalid_spec(self, tmp_path):
        spec_path = tmp_path / "bad.toml"
        spec_path.write_text('[workload]\nname = "not-a-workload"\n')
        with pytest.raises(SystemExit, match="unknown workload"):
            main(["run", str(spec_path)])

    def test_example_spec_parses(self):
        from pathlib import Path

        example = Path(__file__).resolve().parent.parent / "examples" / "npgsql.toml"
        spec = RunSpec.load(example)
        spec.validate()
        assert spec.workload.name == "npgsql"
        assert spec.mode == "live"


class TestEngineSpecPlumbing:
    """The deduplicated --cache path."""

    def test_from_args_round_trip(self):
        from repro.cli import build_parser

        args = build_parser().parse_args(
            ["debug", "network", "--cache", "/tmp/c.json"]
        )
        spec = EngineSpec.from_args(args)
        assert spec == EngineSpec(cache="/tmp/c.json")

    def test_build_defaults_serial(self):
        engine = EngineSpec().build()
        assert engine.cache.path is None and len(engine.cache) == 0
        engine.close()

    def test_build_missing_cache_dir(self, tmp_path):
        spec = EngineSpec(cache=str(tmp_path / "nodir" / "cache.json"))
        with pytest.raises(SpecError, match="does not exist"):
            spec.build()

    def test_cli_cache_error_keeps_flag_spelling(self, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text("{not json")
        with pytest.raises(SystemExit, match="--cache.*not an outcome-cache"):
            main(["figure8", "--apps", "2", "--cache", str(bad)])

    def test_all_engine_commands_share_the_flags(self, capsys):
        """``--cache`` is the whole engine-flag set: the removed
        ``--jobs``/``--backend`` are argparse errors everywhere."""
        from repro.cli import build_parser

        parser = build_parser()
        commands = (["debug", "network"], ["figure7"], ["figure8"])
        for argv in commands:
            args = parser.parse_args([*argv, "--cache", "c.json"])
            assert EngineSpec.from_args(args) == EngineSpec(cache="c.json")
        for argv in (*commands, ["explore", "network"]):
            for flag in (["--jobs", "2"], ["--backend", "process"]):
                with pytest.raises(SystemExit) as excinfo:
                    parser.parse_args([*argv, *flag])
                assert excinfo.value.code == 2
                assert "unrecognized arguments" in capsys.readouterr().err

    def test_spec_engine_jobs_is_an_unknown_key(self):
        with pytest.raises(
            SpecError, match=r"engine: unknown key 'jobs' \(valid: cache\)"
        ):
            RunSpec.from_toml(
                '[workload]\nname = "network"\n[engine]\njobs = 4\n'
            )
