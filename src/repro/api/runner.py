"""``repro.api.run`` — dispatch a :class:`RunSpec` to the right session.

Role
----
The one imperative verb of the declarative API.  Given a validated
spec, it:

1. builds the execution engine from :class:`~repro.api.spec.EngineSpec`
   (attaching the run's :class:`~repro.api.events.EventBus`, so
   intervention rounds stream to observers);
2. dispatches by mode — **live** (collect + debug via
   :class:`~repro.harness.session.AIDSession`), **corpus** (debug from
   a stored :class:`~repro.corpus.store.TraceStore` via
   :class:`~repro.harness.session.CorpusSession`, which analyzes through
   the same pipeline bootstrap), **incremental** (analyze-only
   :class:`~repro.corpus.pipeline.IncrementalPipeline` bootstrap over
   the store), or **explore** (schedule-space search by
   :class:`~repro.explore.driver.ExplorationDriver`, ingesting into the
   corpus at ``corpus.dir``, which is initialised pinned to the
   workload's program when it has no manifest);
3. returns a :class:`~repro.harness.session.SessionReport` whose
   :meth:`~repro.harness.session.SessionReport.to_dict` is the
   versioned report schema — for an explore spec, the
   :class:`~repro.explore.driver.ExplorationResult`, whose ``to_dict``
   is the versioned exploration payload.

Every mode gets the same validation, ``run-started``/``run-finished``
events, spans and observability wiring.  ``repro.explore`` is imported
only when an explore spec runs, so ``import repro.cli`` does not load
it.

Invariants
----------
* results are a pure function of the spec: observers and a warm
  outcome cache never change the report (asserted byte-identical to
  the legacy entry points in tests);
* corpus-backed runs persist what they learned (store manifests, eval
  matrix) before returning;
* the engine is always flushed and closed, success or failure.
"""

from __future__ import annotations

import sys
from pathlib import Path
from typing import Iterable, Optional, Union

from ..core.variants import Approach
from ..corpus.pipeline import IncrementalPipeline
from ..corpus.store import MANIFEST_NAME, TraceStore
from ..harness.session import (
    AIDSession,
    CorpusSession,
    SessionConfig,
    SessionReport,
)
from . import registry as registries
from .events import CorpusLoaded, EventBus, Observer, RunFinished, RunStarted
from .spec import RunSpec


def run(
    spec: RunSpec,
    observers: Iterable[Union[Observer, "callable"]] = (),
    bus: Optional[EventBus] = None,
    obs=None,
):
    """Execute one declarative run and return its report (an explore
    spec's is an :class:`~repro.explore.driver.ExplorationResult`).

    ``observers`` (or a pre-built ``bus``) receive the run's events in
    phase order; see :mod:`repro.api.events` for the catalogue.  ``obs``
    attaches a full :class:`repro.obs.ObsContext` (JSONL run log,
    metrics registry, progress lines) and stamps the report's ``meta``
    key with the run id and metrics snapshot — everything else about
    the report stays byte-identical.
    """
    spec.validate()
    if bus is None:
        bus = EventBus(list(observers))
    if obs is not None:
        obs.header_extra.setdefault("spec_digest", spec.digest())
        obs.install(bus)
    mode = spec.mode
    engine = spec.engine.build(bus=bus)
    if obs is not None:
        obs.watch_engine(engine)
    try:
        if mode == "incremental":
            report = _run_incremental(spec, bus)
        elif mode == "explore":
            report = _run_explore(spec, bus)
        else:
            workload = registries.workloads.build(spec.workload.name)
            config = SessionConfig(
                n_success=spec.collection.n_success,
                n_fail=spec.collection.n_fail,
                start_seed=spec.collection.start_seed,
                max_steps=spec.collection.max_steps,
                repeats=spec.analysis.repeats,
                rng_seed=spec.analysis.rng_seed,
                extractors=spec.analysis.build_extractors(),
                policy=spec.analysis.build_policy(),
                engine=engine,
                bus=bus,
                strategy=spec.collection.strategy,
                strategy_params=dict(spec.collection.strategy_params or {}),
            )
            bus.emit(
                RunStarted(
                    program=workload.program.name,
                    mode=mode,
                    approach=spec.analysis.approach,
                )
            )
            if mode == "corpus":
                store = TraceStore.open(spec.corpus.dir)
                session = CorpusSession(workload.program, store, config)
                report = session.run(Approach(spec.analysis.approach))
                session.save()
            else:
                session = AIDSession(workload.program, config)
                report = session.run(Approach(spec.analysis.approach))
    finally:
        # An interrupted run still persists the outcomes it paid for
        # (and observers still see the engine-finished accounting); an
        # interrupted run log is closed as a valid prefix.
        engine.finish()
        if obs is not None:
            obs_error = sys.exc_info()[0] is not None
            if obs_error:
                obs.close()
    if obs is not None:
        # Stamp before run-finished so the event (and the run log's
        # copy of the report) already carries run id + metrics.
        obs.stamp(report)
    bus.emit(RunFinished(report=report))
    if obs is not None:
        obs.close()
    return report


def _run_explore(spec: RunSpec, bus: EventBus):
    """Explore the workload's schedule space into the corpus at
    ``corpus.dir``, if any (its counts as ``corpus-loaded``, before the
    first execution).  No intervention runs, so the engine is idle."""
    from ..explore import ExplorationDriver, ExploreConfig

    program = registries.workloads.build(spec.workload.name).program
    bus.emit(RunStarted(program=program.name, mode="explore", approach=None))
    store = None
    if spec.corpus.dir is not None:
        if (Path(spec.corpus.dir) / MANIFEST_NAME).exists():
            store = TraceStore.open(spec.corpus.dir)
        else:
            store = TraceStore.init(spec.corpus.dir, program=program.name)
        bus.emit(
            CorpusLoaded(
                n_traces=len(store), n_pass=store.n_pass, n_fail=store.n_fail
            )
        )
    collection, explore = spec.collection, spec.explore
    config = ExploreConfig(
        budget=explore.budget,
        strategy=collection.strategy or "random",
        strategy_params=dict(collection.strategy_params or {}),
        start_seed=collection.start_seed,
        max_steps=collection.max_steps,
        schedule_dir=explore.schedule_dir,
        partial_order=explore.partial_order,
    )
    with bus.span("explore"):
        return ExplorationDriver(
            program, config=config, store=store, bus=bus
        ).run()


def _run_incremental(spec: RunSpec, bus: EventBus) -> SessionReport:
    """Analyze-only: bootstrap the incremental pipeline over the store
    and report its views.  No intervention runs, so the engine is
    idle."""
    store = TraceStore.open(spec.corpus.dir)
    workload = registries.workload_for_program(store.program)
    program = workload.program if workload is not None else None
    bus.emit(
        RunStarted(program=store.program, mode="incremental", approach=None)
    )
    pipeline = IncrementalPipeline(
        store,
        program=program,
        extractors=spec.analysis.build_extractors(),
        policy=spec.analysis.build_policy(),
        bus=bus,
    )
    pipeline.bootstrap()
    pipeline.save()
    return SessionReport(
        program=program,
        corpus=None,
        suite=pipeline.suite,
        debugger=pipeline.debugger,
        fully_discriminative=list(pipeline.fully),
        dag=pipeline.dag,
        discovery=None,
        explanation=None,
        approach=None,
        signature=pipeline.signature,
        n_success=pipeline.debugger.n_success,
        n_fail=pipeline.debugger.n_failed,
        program_name=store.program,
    )


__all__ = ["run"]
