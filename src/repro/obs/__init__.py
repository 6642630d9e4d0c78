"""repro.obs — durable run telemetry over the observer seam.

Role
----
Everything a long-running or remote ``repro`` needs to explain itself
after the fact, built entirely on :mod:`repro.api.events` (observers
never affect results):

* :class:`JsonlRunLog` — a schema-versioned ``runs/<run_id>.jsonl``
  per run, replayable offline via :func:`read_run_log`;
* :class:`MetricsRegistry` / :class:`MetricsObserver` — counters,
  gauges, and per-phase timers snapshotted into the log and (when
  enabled) the versioned report;
* :class:`ProgressLine` — the ``--progress`` stderr narrator;
* span tracing itself lives on the bus (:meth:`repro.api.events.
  EventBus.span`); this package consumes the ``span-closed`` stream;
* :class:`ObsContext` — the one wiring point: built from the CLI's
  ``--log-dir/--progress/--metrics/--profile`` flags (or directly in
  library code) and handed to :func:`repro.api.run`.

Invariant: a run with an :class:`ObsContext` attached produces a report
byte-identical to one without — except the report's additive ``meta``
key, which gains the run id and the metrics snapshot (asserted in
tests and re-checked by ``benchmarks/bench_obs.py``).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, TextIO

from ..api.events import EventBus
from .index import INDEX_SCHEMA_VERSION, IndexStats, RunIndex, render_index
from .metrics import MetricsObserver, MetricsRegistry, render_snapshot
from .progress import ProgressLine, describe_event
from .runlog import (
    RUN_LOG_SCHEMA_VERSION,
    JsonlCursor,
    JsonlRunLog,
    RunLogError,
    RunLogReplay,
    latest_run_log,
    read_run_log,
)
from .summary import (
    SUMMARY_SCHEMA_VERSION,
    RunSummary,
    compare_dict,
    render_compare,
    render_span_tree,
    render_summary,
    summarize,
    summary_dict,
)

__all__ = [
    "INDEX_SCHEMA_VERSION",
    "RUN_LOG_SCHEMA_VERSION",
    "SUMMARY_SCHEMA_VERSION",
    "IndexStats",
    "JsonlCursor",
    "JsonlRunLog",
    "MetricsObserver",
    "MetricsRegistry",
    "ObsContext",
    "ObsOptions",
    "ProgressLine",
    "RunIndex",
    "RunLogError",
    "RunLogReplay",
    "RunSummary",
    "compare_dict",
    "describe_event",
    "latest_run_log",
    "read_run_log",
    "render_compare",
    "render_index",
    "render_snapshot",
    "render_span_tree",
    "render_summary",
    "summarize",
    "summary_dict",
]


@dataclass
class ObsOptions:
    """What to observe — the CLI's ``--log-dir/--progress/--metrics/
    --profile`` flags as a value object."""

    log_dir: Optional[str] = None
    progress: bool = False
    metrics: bool = False
    profile: bool = False


class ObsContext:
    """Wires the observability stack onto one run's :class:`EventBus`.

    Lifecycle (``repro.api.run`` drives it)::

        obs = ObsContext(ObsOptions(log_dir="runs"))
        report = repro.api.run(spec, obs=obs)
        # obs.run_id / obs.log_path / obs.final_snapshot() now set

    ``install`` subscribes the observers; ``watch_engine`` registers the
    engine's stats as a metrics provider; ``stamp`` writes the run id
    and the final snapshot into the report (the additive ``meta`` key);
    ``close`` releases the log file if the run died before
    ``run-finished``.
    """

    def __init__(
        self,
        options: Optional[ObsOptions] = None,
        stream: Optional[TextIO] = None,
    ) -> None:
        self.options = options if options is not None else ObsOptions()
        self.registry = MetricsRegistry()
        #: extra fields for the run log's header line (e.g. the caller's
        #: ``spec_digest`` — ``repro.api.run`` stamps it before install)
        self.header_extra: dict = {}
        self.runlog: Optional[JsonlRunLog] = None
        self.run_id: Optional[str] = None
        self._stream = stream
        self._snapshot: Optional[dict] = None

    @property
    def log_path(self):
        """Path of the run log being written, once the first event lands."""
        return self.runlog.path if self.runlog is not None else None

    def install(self, bus: EventBus) -> None:
        self.run_id = bus.run_id
        bus.subscribe(MetricsObserver(self.registry))
        if self.options.log_dir is not None:
            self.runlog = JsonlRunLog(
                self.options.log_dir,
                metrics=self.final_snapshot,
                header=self.header_extra or None,
            )
            bus.subscribe(self.runlog)
            if self.options.profile:
                bus.profile_dir = str(self.runlog.dir)
        if self.options.progress:
            bus.subscribe(ProgressLine(self._stream))

    def watch_engine(self, engine) -> None:
        """Poll the engine's :class:`~repro.exec.stats.ExecStats` at
        snapshot time (gauges like ``exec.run_time``)."""
        self.registry.register_provider(engine.stats.metrics)

    def final_snapshot(self) -> dict:
        """The metrics snapshot, computed once — the report and the run
        log's trailing metrics line carry the same numbers."""
        if self._snapshot is None:
            self._snapshot = self.registry.snapshot()
        return self._snapshot

    def stamp(self, report) -> None:
        """Write run id + snapshot into the report's ``meta`` fields."""
        report.run_id = self.run_id
        report.metrics = self.final_snapshot()

    def close(self) -> None:
        if self.runlog is not None:
            self.runlog.close()
