"""Command-line interface: ``python -m repro <command>``.

Commands
--------
``list``
    Show the bundled case-study workloads with their paper references.
``run <SPEC.toml|SPEC.json> [--json]``
    Execute a declarative :class:`~repro.api.spec.RunSpec` file — the
    same front door the library exposes as ``repro.run(spec)``.  With
    ``--json`` the versioned report schema is printed instead of text.
``debug <workload> [--approach AID] [--seed N]``
    Run the full AID pipeline on a case study and print the explanation.
``figure7`` / ``figure8`` / ``figure6`` / ``example3``
    Regenerate the paper's evaluation artifacts as text tables.
``trace <workload> --seed N [-o FILE]``
    Run one execution and dump its trace as JSON (Figure 9(b) schema).
``explore <workload|SPEC> [--budget N] [--corpus DIR] [--json]``
    Coverage-guided schedule-space search: an ``[explore]`` RunSpec
    built from the flags, over the spec file's values when the target
    is one (a flag given on the command line wins).
``corpus init|ingest|stats|shard-stats|analyze|compact|reshard|upgrade``
    Manage a persistent trace-corpus store: content-addressed ingestion
    (dedup by trace fingerprint), corpus and per-shard statistics, the
    offline analysis phase with memoized predicate evaluation (one
    serial pass over the shards; a warm corpus also reuses its persisted
    predicate suite and skips extractor rediscovery), compaction of
    shadowed matrix rows, and in-place resharding
    (``reshard DIR --width W``) preserving every memoized pair.
    ``debug --corpus DIR`` then debugs from the stored logs instead of
    re-running the collection sweep.  ``stats --json`` emits a versioned
    machine-readable payload.  Every command but ``upgrade DIR`` reads
    only the current corpus version and refuses an older one with a hint
    to run ``upgrade``, which rewrites it in place.
``obs summary|compare|spans|index|tail``
    Inspect durable run telemetry: the schema-versioned JSONL run logs
    that ``run``/``debug``/``explore``/``corpus analyze`` write under
    ``--log-dir``
    (see :mod:`repro.obs`), the ASCII span tree of one run, and the
    cross-run ``index.json`` catalog.
``serve [--host H] [--port P] [--log-dir DIR]``
    The live telemetry daemon: ``POST /v1/runs`` accepts RunSpec JSON
    and returns the versioned report, ``GET /v1/runs/{id}/events``
    streams the run live as SSE/NDJSON, ``/healthz`` and ``/metrics``
    expose service state (see :mod:`repro.serve`).
``submit SPEC [--server URL] [--follow]``
    The client half: POST a spec file to a running daemon and print the
    report; ``--follow`` streams live progress to stderr first.

Every subcommand that runs the pipeline (``run``, ``debug``,
``explore``, ``corpus analyze``) builds a
:class:`~repro.api.spec.RunSpec` internally, dispatches it through
:func:`repro.api.run` and prints the report its mode renders; the
intervention-heavy commands (``debug``,
``figure7``, ``figure8``, ``run``) share one engine-flag code path
(``--cache``, see
:meth:`~repro.api.spec.EngineSpec.add_flags`) and the pipeline
commands share one observability-flag code path
(``--log-dir/--progress/--metrics/--profile``, see
:func:`repro.obs.cli.add_obs_flags`).
"""

from __future__ import annotations

import argparse
import json
import sys
from dataclasses import replace
from typing import Optional, Sequence

from .api import registry as registries
from .api.events import EventLog
from .api.runner import run as api_run
from .api.spec import (
    AnalysisSpec,
    CollectionSpec,
    CorpusSpec,
    EngineSpec,
    ExploreSpec,
    RunSpec,
    SpecError,
    WorkloadSpec,
)
from .core.variants import Approach
from .corpus import CorpusError, IncrementalPipeline, TraceStore
from .corpus.store import STORE_VERSION, upgrade
from .exec import ExecutionEngine
from .harness.experiments import (
    example3_report,
    figure6_report,
    figure7,
    figure7_report,
    figure8,
    figure8_report,
)
from .harness.runner import collect
from .harness.tables import render_table
from .obs.cli import add_obs_flags, add_obs_subcommand, cmd_obs, obs_from_args
from .obs.metrics import render_snapshot
from .sim.schedule import ReplayStrategy, Schedule, ScheduleError
from .sim.scheduler import Simulator
from .sim.serialize import trace_to_json
from .workloads.common import REGISTRY


def _spec_exit(exc: SpecError) -> "SystemExit":
    """A :class:`SpecError` as the CLI's flag-style error message."""
    if exc.path:
        flag = "--" + exc.path.split(".")[-1]
        return SystemExit(f"repro: {flag}: {exc.detail}")
    return SystemExit(f"repro: {exc.detail}")


def _override(section, **flags):
    """``section`` with each flag given on the command line (not
    ``None``) in place of the spec's value."""
    return replace(
        section, **{k: v for k, v in flags.items() if v is not None}
    )


def _check_strategy(collection: CollectionSpec) -> None:
    """``--strategy`` checked once parsed, as the spec checks it (a
    ``choices`` list would load the strategies for every command)."""
    for problem in collection.problems():
        path, _, detail = problem.partition(": ")
        if path == "collection.strategy":
            raise _spec_exit(SpecError(path, detail))


def _build_engine(spec: RunSpec) -> ExecutionEngine:
    """Build just the engine of a spec (figure sweeps drive many
    sessions through one engine, outside :func:`repro.api.run`)."""
    try:
        return spec.engine.build()
    except SpecError as exc:
        raise _spec_exit(exc) from exc


def _print_engine_summary(log: EventLog) -> None:
    """The engine accounting block every intervention command prints."""
    finished = log.first("engine-finished")
    if finished is not None:
        print()
        print(finished.summary)


def _print_session_report(
    args: argparse.Namespace,
    log: EventLog,
    report,
    workload_name: Optional[str] = None,
) -> None:
    """The ``debug``-style text rendering of a session report."""
    loaded = log.first("corpus-loaded")
    evaluated = log.first("logs-evaluated")
    if loaded is not None and evaluated is not None:
        print(
            f"corpus   : {loaded.n_traces} stored traces "
            f"({loaded.n_pass} pass / {loaded.n_fail} fail); "
            f"{evaluated.fresh} fresh predicate "
            f"evaluations, {evaluated.memoized} memoized"
        )
    workload = REGISTRY.build(workload_name) if workload_name else None
    if workload is not None:
        print(f"workload : {workload.name} ({workload.paper.github_issue})")
    print(f"approach : {report.approach.value}")
    paper_note = (
        f" (paper: {workload.paper.sd_predicates})" if workload else ""
    )
    print(
        f"predicates: {report.n_sd_predicates} fully discriminative"
        f"{paper_note}"
    )
    print(
        f"rounds   : {report.n_rounds} intervention rounds, "
        f"{report.discovery.n_executions} executions"
    )
    print()
    print(report.explanation.render())
    if getattr(args, "dot", False):
        print()
        print(report.dag.to_dot())


def _cmd_list(args: argparse.Namespace) -> int:
    rows = []
    for name in REGISTRY.names():
        workload = REGISTRY.build(name)
        rows.append(
            [
                name,
                workload.paper.github_issue,
                workload.description,
            ]
        )
    print(render_table(["workload", "issue", "bug"], rows))
    return 0


def _run_spec(
    spec: RunSpec, log: EventLog, corpus_flag: bool = False, obs=None
):
    """Dispatch through :func:`repro.api.run` with CLI error wrapping."""
    try:
        return api_run(spec, observers=[log], obs=obs)
    except SpecError as exc:
        raise _spec_exit(exc) from exc
    except CorpusError as exc:
        # the engine block only when the engine ran before the error
        finished = log.first("engine-finished")
        if finished is not None and finished.executed + finished.cached:
            _print_engine_summary(log)
        flag = "--corpus" if corpus_flag else "corpus"
        raise SystemExit(f"repro: {flag}: {exc}") from exc


def _coerce_param(raw: str):
    """A ``--strategy-param`` value as the scalar it spells."""
    if raw.lower() in ("true", "false"):
        return raw.lower() == "true"
    for cast in (int, float):
        try:
            return cast(raw)
        except ValueError:
            continue
    return raw


def _parse_strategy_params(pairs: Optional[Sequence[str]]) -> dict:
    """Repeated ``KEY=VALUE`` flags as a strategy-params dict."""
    params: dict = {}
    for pair in pairs or ():
        key, sep, raw = pair.partition("=")
        if not sep or not key:
            raise SystemExit(
                f"repro: --strategy-param: expected KEY=VALUE, got {pair!r}"
            )
        params[key] = _coerce_param(raw)
    return params


def _cmd_debug(args: argparse.Namespace) -> int:
    spec = RunSpec(
        workload=WorkloadSpec(name=args.workload),
        collection=CollectionSpec(
            n_success=args.runs,
            n_fail=args.runs,
            strategy=args.strategy,
            strategy_params=(
                _parse_strategy_params(args.strategy_param) or None
            ),
        ),
        engine=EngineSpec.from_args(args),
        corpus=CorpusSpec(dir=args.corpus),
        analysis=AnalysisSpec(approach=args.approach, rng_seed=args.seed),
    )
    _check_strategy(spec.collection)
    return _run_and_print(args, spec, corpus_flag=True)


def _load_spec(path: str, command: str) -> RunSpec:
    try:
        return RunSpec.load(path)
    except SpecError as exc:
        raise SystemExit(f"repro: {command}: {exc}") from exc


def _run_and_print(
    args: argparse.Namespace, spec: RunSpec, corpus_flag: bool = False
) -> int:
    """Run a spec and print its report as its mode's command does (or
    the versioned payload with ``--json``)."""
    log = EventLog()
    obs = obs_from_args(args)
    report = _run_spec(spec, log, corpus_flag=corpus_flag, obs=obs)
    if getattr(args, "json", False):
        print(json.dumps(report.to_dict(), indent=2, sort_keys=True))
    elif spec.mode == "explore":
        _print_exploration(spec, log, report)
    elif report.discovery is not None:
        _print_session_report(
            args, log, report,
            workload_name=spec.workload.name if spec.workload else None,
        )
        _print_engine_summary(log)
    else:
        _print_analysis_report(args, log, report)
    # where the log landed, and the --metrics snapshot: on stderr, so
    # --json stdout stays machine-clean
    if obs is not None and obs.log_path is not None:
        print(f"run log  : {obs.log_path}", file=sys.stderr)
    if obs is not None and getattr(args, "metrics", False):
        print(render_snapshot(obs.final_snapshot()), file=sys.stderr)
    return 0


def _cmd_run(args: argparse.Namespace) -> int:
    return _run_and_print(args, _load_spec(args.spec, "run"))


def _cmd_figure7(args: argparse.Namespace) -> int:
    spec = RunSpec(engine=EngineSpec.from_args(args))
    engine = _build_engine(spec)
    try:
        results = figure7(engine=engine)
        print(figure7_report(results))
    finally:
        # An interrupted sweep still persists the outcomes it paid for.
        print()
        print(engine.finish())
    return 0 if all(r.matches_ground_truth for r in results) else 1


def _cmd_figure8(args: argparse.Namespace) -> int:
    spec = RunSpec(
        engine=EngineSpec.from_args(args),
        analysis=AnalysisSpec(rng_seed=args.seed),
    )
    engine = _build_engine(spec)
    try:
        result = figure8(
            apps_per_setting=args.apps,
            seed=spec.analysis.rng_seed,
            engine=engine,
        )
        print(figure8_report(result))
        print(f"\napps per setting: {result.n_apps}; "
              f"exact recovery everywhere: {result.all_exact}")
    finally:
        print()
        print(engine.finish())
    return 0 if result.all_exact else 1


def _cmd_figure6(args: argparse.Namespace) -> int:
    print(figure6_report(args.junctions, args.branches, args.chain,
                         args.causal, args.s1, args.s2))
    return 0


def _cmd_example3(args: argparse.Namespace) -> int:
    print(example3_report())
    return 0


def _cmd_trace(args: argparse.Namespace) -> int:
    workload = REGISTRY.build(args.workload)
    seed = args.seed
    if args.schedule is not None:
        try:
            schedule = Schedule.load(args.schedule)
        except ScheduleError as exc:
            raise SystemExit(f"repro: --schedule: {exc}") from exc
        if schedule.program != workload.program.name:
            raise SystemExit(
                f"repro: --schedule: {args.schedule} records program "
                f"{schedule.program!r}, not {workload.program.name!r}"
            )
        strategy = ReplayStrategy(schedule=schedule)
        seed = schedule.seed  # the recording pins its own seed
        result = Simulator(workload.program).run(seed, strategy=strategy)
        if strategy.diverged:
            print(
                f"repro: warning: replay of {args.schedule} diverged "
                "(program or interventions changed since the recording)",
                file=sys.stderr,
            )
    else:
        result = Simulator(workload.program).run(seed)
    text = trace_to_json(result.trace, indent=2)
    if args.out:
        with open(args.out, "w") as handle:
            handle.write(text)
        status = "FAILED" if result.failed else "ok"
        print(f"wrote {args.out} (seed {seed}, {status})")
    else:
        print(text)
    return 0


def _cmd_explore(args: argparse.Namespace) -> int:
    """Flags over the target's spec (a workload name is a spec naming
    only it); a flag given on the command line wins."""
    if args.target in REGISTRY:
        spec = RunSpec(workload=WorkloadSpec(name=args.target))
    else:
        spec = _load_spec(args.target, "explore")
    collection, explore = spec.collection, spec.explore or ExploreSpec()
    strategy, params = args.strategy, _parse_strategy_params(args.strategy_param)
    if strategy is None:
        strategy = collection.strategy
        params = dict(collection.strategy_params or {}) | params
    spec = replace(
        spec,
        collection=replace(
            _override(collection, start_seed=args.seed),
            strategy=strategy,
            strategy_params=params or None,
        ),
        corpus=_override(spec.corpus, dir=args.corpus),
        explore=_override(
            explore,
            budget=args.budget,
            partial_order=args.partial_order,
            schedule_dir=args.schedule_dir,
        ),
    )
    _check_strategy(spec.collection)
    return _run_and_print(args, spec, corpus_flag=True)


def _print_exploration(spec: RunSpec, log: EventLog, result) -> None:
    """The ``explore``-style text rendering of an exploration result."""
    print(result.render())
    loaded = log.first("corpus-loaded")
    if loaded is not None:
        print(
            f"corpus   : {spec.corpus.dir} now "
            f"{loaded.n_pass + result.ingested_pass} pass / "
            f"{loaded.n_fail + result.ingested_fail} fail "
            f"(+{result.ingested_pass}/+{result.ingested_fail} this run)"
        )


def _build_pipeline(args: argparse.Namespace) -> IncrementalPipeline:
    """Open the store and wire the analysis pipeline, with the live
    program attached when the manifest names a bundled workload (needed
    for the Section 3.3 safe-intervention filter)."""
    store = TraceStore.open(args.dir)
    workload = registries.workload_for_program(store.program)
    return IncrementalPipeline(
        store, program=workload.program if workload else None
    )


def _cmd_corpus_init(args: argparse.Namespace) -> int:
    program = None
    if args.workload is not None:
        program = REGISTRY.build(args.workload).program.name
    store = TraceStore.init(
        args.dir, program=program, shard_width=args.shard_width
    )
    pinned = f" (pinned to {store.program})" if store.program else ""
    n_shards = 16 ** store.shard_width if store.shard_width else 1
    print(
        f"initialized empty corpus at {args.dir}{pinned} "
        f"(shard width {store.shard_width}: up to {n_shards} shards)"
    )
    return 0


def _cmd_corpus_ingest(args: argparse.Namespace) -> int:
    store = TraceStore.open(args.dir)
    added = duplicates = 0
    try:
        for path in args.files:
            try:
                with open(path) as handle:
                    payload = json.load(handle)
            except OSError as exc:
                raise SystemExit(f"repro: corpus: cannot read {path}: {exc}")
            except json.JSONDecodeError as exc:
                raise SystemExit(
                    f"repro: corpus: {path} is not a trace file: {exc}"
                )
            try:
                fp, was_added = store.ingest_payload(payload)
            except CorpusError as exc:
                raise CorpusError(f"{path}: {exc}") from exc
            tag = "added" if was_added else "duplicate"
            print(f"  {fp}  {tag}  {path}")
            added += was_added
            duplicates += not was_added
        if args.runs:
            if store.program is None:
                raise SystemExit(
                    "repro: corpus ingest --runs needs a program: ingest a "
                    "trace file first or init with --workload"
                )
            workload = registries.workload_for_program(store.program)
            if workload is None:
                raise SystemExit(
                    f"repro: corpus program {store.program!r} is not a "
                    "bundled workload; ingest trace files instead"
                )
            start_seed = args.start_seed
            if start_seed is None:
                # Sweep past what the corpus already holds: the simulator
                # is deterministic per seed, so restarting at 0 would
                # only re-collect known traces.
                start_seed = max(
                    (e.seed for e in store.entries.values()), default=-1
                ) + 1
            corpus = collect(
                workload.program,
                n_success=args.runs,
                n_fail=args.runs,
                start_seed=start_seed,
            )
            for trace in corpus.successes + corpus.failures:
                _, was_added = store.ingest(trace)
                added += was_added
                duplicates += not was_added
    finally:
        # A mid-batch failure must not orphan the traces already added.
        store.save()
    print(
        f"ingested {added} new, {duplicates} duplicate; corpus now "
        f"{store.n_pass} pass / {store.n_fail} fail"
    )
    return 0


def _cmd_corpus_stats(args: argparse.Namespace) -> int:
    store = TraceStore.open(args.dir)
    if args.json:
        print(json.dumps(store.stats_dict(), indent=2, sort_keys=True))
        return 0
    # read the matrix first: a corpus error then prints no partial stats
    matrix = store.eval_matrix()
    matrix.load_all()
    print(f"corpus   : {args.dir}")
    print(f"program  : {store.program or '(unpinned)'}")
    print(f"traces   : {len(store)} ({store.n_pass} pass / {store.n_fail} fail)")
    print(
        f"shards   : {len(store.shard_ids)} populated "
        f"(width {store.shard_width})"
    )
    for signature, count in sorted(store.signature_counts().items()):
        print(f"  failure signature {signature}: {count}")
    schedules = store.schedule_counts()
    if any(schedules.values()):
        print(
            f"schedules: {schedules['fail']} distinct failing / "
            f"{schedules['pass']} distinct passing interleavings recorded"
        )
        for signature, count in sorted(
            store.schedule_counts_by_signature().items()
        ):
            print(f"  failure signature {signature}: {count} schedules")
    if matrix.n_traces:
        print(
            f"eval matrix: {matrix.n_pids} predicates x "
            f"{matrix.n_traces} traces, {matrix.n_pairs} pairs "
            f"memoized ({matrix.coverage():.0%} of the matrix)"
        )
    else:
        print("eval matrix: empty (run `repro corpus analyze`)")
    return 0


def _cmd_corpus_shard_stats(args: argparse.Namespace) -> int:
    store = TraceStore.open(args.dir)
    matrix = store.eval_matrix()
    matrix.load_all()
    rows = []
    for sid in store.shard_ids:
        entries = store.shard_entries(sid)
        n_fail = sum(1 for e in entries.values() if e.failed)
        shard_matrix = matrix.shard(sid)
        shard_dir = store.shard_dir(sid)
        size = sum(
            p.stat().st_size for p in shard_dir.rglob("*") if p.is_file()
        )
        rows.append(
            [
                sid,
                str(len(entries)),
                f"{len(entries) - n_fail}/{n_fail}",
                str(shard_matrix.n_pairs),
                f"{size:,}",
            ]
        )
    print(
        f"corpus {args.dir}: {len(store)} traces across "
        f"{len(store.shard_ids)} shards (width {store.shard_width})"
    )
    print(
        render_table(
            ["shard", "traces", "pass/fail", "memo pairs", "bytes"], rows
        )
    )
    return 0


def _print_analysis_report(
    args: argparse.Namespace, log: EventLog, report
) -> None:
    """The ``corpus analyze``-style text rendering."""
    n_logs = (report.n_success or 0) + (report.n_fail or 0)
    print(
        f"analyzed {n_logs} stored logs "
        f"(failure signature {report.signature})"
    )
    print(
        f"predicates: {len(report.suite)} extracted, "
        f"{len(report.fully_discriminative)} fully discriminative"
    )
    for pid in report.fully_discriminative:
        print(f"  {pid}: {report.dag.describe(pid)}")
    print(
        f"AC-DAG   : {len(report.dag)} nodes, "
        f"{report.dag.graph.number_of_edges()} edges "
        f"(over {report.dag.n_failed_logs} failed logs)"
    )
    evaluated = log.first("logs-evaluated")
    if evaluated is not None:
        print(
            f"evaluation: {evaluated.fresh} fresh, "
            f"{evaluated.memoized} answered from the matrix"
        )
    frozen = log.first("suite-frozen")
    if frozen is not None and frozen.source == "persisted":
        print(
            f"suite    : {frozen.n_predicates} predicates reused from "
            "the persisted freeze (extractor rediscovery skipped)"
        )
    if getattr(args, "dot", False):
        print()
        print(report.dag.to_dot())


def _cmd_corpus_analyze(args: argparse.Namespace) -> int:
    spec = RunSpec(corpus=CorpusSpec(dir=args.dir, mode="incremental"))
    return _run_and_print(args, spec)


def _cmd_corpus_compact(args: argparse.Namespace) -> int:
    pipeline = _build_pipeline(args)
    pipeline.bootstrap()
    stats = pipeline.compact()
    pipeline.store.save()
    print(
        f"compacted {args.dir}: dropped {stats.dropped_rows} shadowed "
        f"predicate rows and {stats.dropped_columns} evicted trace columns"
    )
    print(
        f"matrix bytes: {stats.bytes_before:,} -> {stats.bytes_after:,} "
        f"({stats.bytes_reclaimed:,} reclaimed)"
    )
    return 0


def _cmd_corpus_reshard(args: argparse.Namespace) -> int:
    store = TraceStore.open(args.dir)
    width_before = store.shard_width
    stats = store.reshard(args.width)
    if width_before == args.width:
        print(
            f"corpus {args.dir} already has shard width {args.width}; "
            "nothing to do"
        )
        return 0
    print(
        f"resharded {args.dir}: width {width_before} -> {args.width}, "
        f"{stats['n_traces']} traces across "
        f"{stats['shards_before']} -> {stats['shards_after']} shards"
    )
    print(
        f"eval matrix: {stats['pairs_preserved']} memoized pairs preserved"
    )
    return 0


def _cmd_corpus_upgrade(args: argparse.Namespace) -> int:
    found, converted, deleted = upgrade(args.dir)
    print(
        f"upgraded {args.dir}: found version {found}, now version "
        f"{STORE_VERSION}; wrote {converted} eval-matrix files in format 2; "
        f"deleted {deleted} legacy sidecar files"
    )
    return 0


def _cmd_serve(args: argparse.Namespace) -> int:
    from .serve import ReproServer

    try:
        server = ReproServer(
            log_dir=args.log_dir,
            host=args.host,
            port=args.port,
            verbose=args.verbose,
        )
    except OSError as exc:
        raise SystemExit(
            f"repro: serve: cannot bind {args.host}:{args.port}: {exc}"
        ) from exc
    print(
        f"repro serve: listening on {server.url} "
        f"(run logs in {server.registry.log_dir})",
        file=sys.stderr,
    )
    try:
        server.serve_forever()
    except KeyboardInterrupt:
        print("repro serve: shutting down", file=sys.stderr)
    finally:
        server.server_close()
    return 0


def _cmd_submit(args: argparse.Namespace) -> int:
    from .serve import submit

    return submit(args.server, args.spec, follow=args.follow)


def _cmd_corpus(args: argparse.Namespace) -> int:
    handlers = {
        "init": _cmd_corpus_init,
        "ingest": _cmd_corpus_ingest,
        "stats": _cmd_corpus_stats,
        "shard-stats": _cmd_corpus_shard_stats,
        "analyze": _cmd_corpus_analyze,
        "compact": _cmd_corpus_compact,
        "reshard": _cmd_corpus_reshard,
        "upgrade": _cmd_corpus_upgrade,
    }
    try:
        return handlers[args.corpus_command](args)
    except CorpusError as exc:
        raise SystemExit(f"repro: corpus: {exc}") from exc


def _at_least(minimum: int):
    """An argparse ``type``: an int no smaller than ``minimum``."""

    def parse(text: str) -> int:
        value = int(text)
        if value < minimum:
            raise argparse.ArgumentTypeError(
                f"must be >= {minimum}, got {value}"
            )
        return value

    parse.__name__ = "int"  # argparse's "invalid int value" wording
    return parse


def _add_strategy_flags(parser: argparse.ArgumentParser, use: str) -> None:
    """``--strategy`` (checked once parsed: see :func:`_check_strategy`)
    and ``--strategy-param``."""
    parser.add_argument(
        "--strategy", default=None, help=f"registered scheduler strategy {use}"
    )
    parser.add_argument(
        "--strategy-param", action="append", default=None, metavar="KEY=VALUE",
        help="strategy constructor parameter (repeatable), e.g. "
        "--strategy-param depth=3",
    )


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="Causality-Guided Adaptive Interventional Debugging (AID)",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    sub.add_parser("list", help="list bundled case-study workloads")

    runp = sub.add_parser(
        "run",
        help="execute a declarative RunSpec file (TOML or JSON)",
    )
    runp.add_argument("spec", metavar="SPEC",
                      help="path to a RunSpec .toml/.json file")
    runp.add_argument(
        "--json", action="store_true",
        help="print the versioned report JSON instead of text",
    )
    runp.add_argument("--dot", action="store_true",
                      help="also print the AC-DAG in Graphviz format")
    add_obs_flags(runp)

    debug = sub.add_parser("debug", help="debug a case study with AID")
    debug.add_argument("workload", choices=REGISTRY.names())
    debug.add_argument(
        "--approach",
        default="AID",
        choices=[a.value for a in Approach],
    )
    debug.add_argument("--runs", type=int, default=50,
                       help="successful/failed executions to collect")
    debug.add_argument("--seed", type=int, default=0)
    debug.add_argument("--dot", action="store_true",
                       help="also print the AC-DAG in Graphviz format")
    debug.add_argument(
        "--corpus",
        default=None,
        metavar="DIR",
        help="debug from the stored logs in a corpus directory instead "
        "of re-running the collection sweep (predicate evaluation is "
        "memoized across invocations)",
    )
    _add_strategy_flags(
        debug,
        "for collection and intervention re-execution (default: the "
        "seeded-uniform picker)",
    )
    EngineSpec.add_flags(debug)
    add_obs_flags(debug)

    fig7 = sub.add_parser("figure7", help="regenerate the case-study table")
    EngineSpec.add_flags(fig7)

    fig8 = sub.add_parser("figure8", help="regenerate the synthetic sweep")
    fig8.add_argument("--apps", type=_at_least(1), default=100)
    fig8.add_argument("--seed", type=int, default=7)
    EngineSpec.add_flags(fig8)

    fig6 = sub.add_parser("figure6", help="regenerate the theory table")
    fig6.add_argument("--junctions", type=_at_least(1), default=3)
    fig6.add_argument("--branches", type=_at_least(1), default=4)
    fig6.add_argument("--chain", type=_at_least(1), default=3)
    fig6.add_argument("--causal", type=_at_least(0), default=4,
                      help="causal predicates D, at most J*B*n")
    fig6.add_argument("--s1", type=_at_least(0), default=2)
    fig6.add_argument("--s2", type=_at_least(0), default=2)

    sub.add_parser("example3", help="the Example 3 search-space table")

    trace = sub.add_parser("trace", help="dump one execution trace as JSON")
    trace.add_argument("workload", choices=REGISTRY.names())
    trace.add_argument("--seed", type=int, default=0)
    trace.add_argument(
        "-o", "--out", default=None, metavar="FILE",
        help="write the trace JSON to FILE instead of stdout "
        "(handy for building corpora: repro corpus ingest DIR FILE)",
    )
    trace.add_argument(
        "--schedule", default=None, metavar="FILE",
        help="replay a recorded schedule file (from `repro explore "
        "--schedule-dir`) instead of running a fresh seed; the "
        "recording pins the seed, so --seed is ignored",
    )

    explore = sub.add_parser(
        "explore",
        help="coverage-guided schedule-space exploration: fuzz "
        "interleavings, record replayable schedules for every novel "
        "failure, optionally ingest them into a corpus",
    )
    explore.add_argument(
        "target", metavar="TARGET",
        help="a workload name (see `repro list`) or a RunSpec "
        ".toml/.json file (its workload, collection, corpus and explore "
        "sections apply; a flag given here wins)",
    )
    explore.add_argument(
        "--budget", type=int, default=None, metavar="N",
        help="executions to spend (default 200, or the spec's "
        "explore.budget)",
    )
    _add_strategy_flags(
        explore,
        "for fresh (non-mutated) executions (default random, or the "
        "spec's collection.strategy)",
    )
    explore.add_argument(
        "--corpus", default=None, metavar="DIR",
        help="ingest novel traces into this corpus directory "
        "(initialized if empty; analysis views patch incrementally "
        "once both labels exist)",
    )
    explore.add_argument(
        "--schedule-dir", default=None, metavar="DIR",
        help="save one replayable <signature>.json schedule per novel "
        "failure (replay with `repro trace W --schedule FILE`)",
    )
    explore.add_argument(
        "--seed", type=int, default=None,
        help="first execution seed (default 0, or the spec's "
        "collection.start_seed)",
    )
    explore.add_argument(
        "--no-partial-order", dest="partial_order", action="store_false",
        default=None,
        help="disable Mazurkiewicz-class pruning: dedupe frontier "
        "admission, mutation energy, and pass-ingestion by exact "
        "interleaving instead of equivalence class",
    )
    explore.add_argument(
        "--json", action="store_true",
        help="print the versioned exploration payload instead of text",
    )
    add_obs_flags(explore)

    corpus = sub.add_parser(
        "corpus", help="manage a persistent trace-corpus store"
    )
    csub = corpus.add_subparsers(dest="corpus_command", required=True)

    cinit = csub.add_parser("init", help="create an empty corpus directory")
    cinit.add_argument("dir")
    cinit.add_argument(
        "--workload", default=None, choices=REGISTRY.names(),
        help="pin the corpus to one workload's program up front",
    )
    cinit.add_argument(
        "--shard-width", type=int, default=2, choices=range(0, 5),
        metavar="W",
        help="hex chars of the trace fingerprint used as the shard id "
        "(default 2: up to 256 shards; 0 disables sharding)",
    )

    cingest = csub.add_parser(
        "ingest",
        help="add trace JSON files (content-addressed: duplicates are "
        "stored once)",
    )
    cingest.add_argument("dir")
    cingest.add_argument("files", nargs="*", metavar="FILE",
                         help="trace JSON files (from `repro trace -o`)")
    cingest.add_argument(
        "--runs", type=int, default=0, metavar="N",
        help="also run the pinned workload until N successful and N "
        "failed fresh traces are collected and ingested",
    )
    cingest.add_argument(
        "--start-seed", type=int, default=None,
        help="first seed for --runs (default: continue past the highest "
        "seed already in the corpus)",
    )

    cstats = csub.add_parser("stats", help="corpus and eval-matrix summary")
    cstats.add_argument("dir")
    cstats.add_argument(
        "--json", action="store_true",
        help="print a versioned machine-readable stats payload instead "
        "of text (for service health checks)",
    )

    cshards = csub.add_parser(
        "shard-stats",
        help="per-shard breakdown: traces, labels, memoized pairs, bytes",
    )
    cshards.add_argument("dir")

    canalyze = csub.add_parser(
        "analyze",
        help="offline phase over the stored logs: predicates -> SD -> "
        "AC-DAG, with evaluation memoized in the corpus and the frozen "
        "suite persisted for warm restarts",
    )
    canalyze.add_argument("dir")
    canalyze.add_argument("--dot", action="store_true",
                          help="also print the AC-DAG in Graphviz format")
    add_obs_flags(canalyze)

    ccompact = csub.add_parser(
        "compact",
        help="reclaim eval-matrix rows shadowed by predicate drift and "
        "columns of evicted traces",
    )
    ccompact.add_argument("dir")

    cupgrade = csub.add_parser(
        "upgrade",
        help="rewrite an older corpus to the current version in place, "
        "keeping every memoized pair; delete legacy columnar.bin files",
    )
    cupgrade.add_argument("dir")

    creshard = csub.add_parser(
        "reshard",
        help="rewrite the corpus under a new shard width, in place, "
        "preserving every memoized (predicate, trace) pair",
    )
    creshard.add_argument("dir")
    creshard.add_argument(
        "--width", type=int, required=True, choices=range(0, 5),
        metavar="W",
        help="new shard width (hex chars of the fingerprint, 0-4; "
        "0 disables sharding)",
    )

    add_obs_subcommand(sub)

    serve = sub.add_parser(
        "serve",
        help="run the live telemetry daemon: HTTP run submission, SSE "
        "event streaming, health/metrics endpoints",
    )
    serve.add_argument(
        "--host", default="127.0.0.1",
        help="bind address (default 127.0.0.1)",
    )
    serve.add_argument(
        "--port", type=int, default=8642,
        help="bind port (default 8642; 0 picks an ephemeral port)",
    )
    serve.add_argument(
        "--log-dir", default="runs", metavar="DIR",
        help="where per-run JSONL logs and the cross-run index live "
        "(default: runs)",
    )
    serve.add_argument(
        "--verbose", action="store_true",
        help="log one stderr line per HTTP request",
    )

    submitp = sub.add_parser(
        "submit",
        help="POST a RunSpec file to a running `repro serve` daemon and "
        "print the versioned report",
    )
    submitp.add_argument("spec", metavar="SPEC",
                         help="path to a RunSpec .toml/.json file")
    submitp.add_argument(
        "--server", default="http://127.0.0.1:8642", metavar="URL",
        help="daemon base URL (default http://127.0.0.1:8642)",
    )
    submitp.add_argument(
        "--follow", action="store_true",
        help="submit asynchronously and stream the run's event feed to "
        "stderr while it executes (report still lands on stdout)",
    )

    return parser


_COMMANDS = {
    "list": _cmd_list,
    "run": _cmd_run,
    "debug": _cmd_debug,
    "figure7": _cmd_figure7,
    "figure8": _cmd_figure8,
    "figure6": _cmd_figure6,
    "example3": _cmd_example3,
    "trace": _cmd_trace,
    "explore": _cmd_explore,
    "corpus": _cmd_corpus,
    "obs": cmd_obs,
    "serve": _cmd_serve,
    "submit": _cmd_submit,
}


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    if args.command == "figure6":
        total = args.junctions * args.branches * args.chain
        if args.causal > total:
            parser.error(
                f"argument --causal: must be <= J*B*n = {total}, "
                f"got {args.causal}"
            )
    return _COMMANDS[args.command](args)


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
