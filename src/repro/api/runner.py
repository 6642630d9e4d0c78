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
   the same pipeline bootstrap), or **incremental** (analyze-only
   :class:`~repro.corpus.pipeline.IncrementalPipeline` bootstrap over
   the store);
3. returns a :class:`~repro.harness.session.SessionReport` whose
   :meth:`~repro.harness.session.SessionReport.to_dict` is the
   versioned report schema.

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
from typing import Iterable, Optional, Union

from ..core.variants import Approach
from ..corpus.pipeline import IncrementalPipeline
from ..corpus.store import TraceStore
from ..harness.session import (
    AIDSession,
    CorpusSession,
    SessionConfig,
    SessionReport,
)
from . import registry as registries
from .events import EventBus, Observer, RunFinished, RunStarted
from .spec import RunSpec


def run(
    spec: RunSpec,
    observers: Iterable[Union[Observer, "callable"]] = (),
    bus: Optional[EventBus] = None,
    obs=None,
) -> SessionReport:
    """Execute one declarative run and return its report.

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
