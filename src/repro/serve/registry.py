"""The serve daemon's run registry: live runs, worker threads, history.

Role
----
:class:`RunRegistry` owns everything between "a RunSpec JSON body
arrived" and "the versioned report is durable":

* :meth:`submit` validates the body into a
  :class:`~repro.api.spec.RunSpec`, mints the run id *before* execution
  starts (so async submitters can subscribe to the event stream
  immediately), and launches :func:`repro.api.run` on a worker thread
  with a :class:`~repro.obs.JsonlRunLog` (spec digest stamped into the
  header) and a :class:`~repro.obs.MetricsObserver` attached;
* :class:`RunRecord` tracks each run's lifecycle
  (``running`` → ``finished`` | ``failed``) plus its report dict and
  log path — the in-memory truth the HTTP handlers read;
* the registry folds every finished run's metrics snapshot into one
  aggregate :class:`~repro.obs.MetricsRegistry` (the ``/metrics``
  exposition) and refreshes the cross-run
  :class:`~repro.obs.RunIndex` so ``GET /v1/runs`` sees runs from
  *previous* daemon lifetimes too.

Invariants
----------
* the report a worker computes is untouched by observability: the
  registry wires observers onto the bus directly (never
  :meth:`repro.obs.ObsContext.stamp`), so ``POST /v1/runs`` returns a
  payload byte-identical to ``repro run SPEC --json`` for the same
  spec — ``meta.run_id``/``meta.metrics`` stay ``None`` in both; the
  run id and metrics live in the JSONL log and the index instead;
* a failed run still leaves a valid JSONL prefix (the log closes in
  the worker's ``finally``) and stays queryable as ``failed``;
* all registry state is guarded by one lock; worker threads only
  touch their own record's fields plus the shared fold.
"""

from __future__ import annotations

import json
import threading
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Optional

from ..api.events import EventBus, new_run_id
from ..api.runner import run as api_run
from ..api.spec import RunSpec, SpecError
from ..obs import (
    JsonlRunLog,
    MetricsObserver,
    MetricsRegistry,
    RunIndex,
    RunLogError,
    read_run_log,
    render_span_tree,
    summarize,
    summary_dict,
)


@dataclass
class RunRecord:
    """One submitted run's lifecycle, as the HTTP handlers see it."""

    run_id: str
    spec: dict
    spec_digest: str
    status: str  # "running" | "finished" | "failed"
    created: float
    log_path: Path
    finished_at: Optional[float] = None
    #: the versioned report payload, once the worker lands it
    report: Optional[dict] = None
    error: Optional[str] = None
    thread: Optional[threading.Thread] = field(default=None, repr=False)

    @property
    def active(self) -> bool:
        return self.status == "running"

    def status_dict(self) -> dict:
        """The live-state block merged into ``GET /v1/runs`` rows."""
        return {
            "run_id": self.run_id,
            "status": self.status,
            "spec_digest": self.spec_digest,
            "created": self.created,
            "finished_at": self.finished_at,
            "error": self.error,
            "log": self.log_path.name,
        }


class RunRegistry:
    """Tracks every run this daemon executed, plus the on-disk history."""

    def __init__(self, log_dir) -> None:
        self.log_dir = Path(log_dir)
        self.log_dir.mkdir(parents=True, exist_ok=True)
        self.index = RunIndex(self.log_dir)
        #: run metrics aggregated across every finished/failed run
        self.fleet = MetricsRegistry()
        self.started = time.time()
        self._records: dict[str, RunRecord] = {}
        self._lock = threading.Lock()

    # -- submission ------------------------------------------------------

    def parse_spec(self, body: bytes) -> RunSpec:
        """A request body as a validated spec (:class:`SpecError` on any
        problem — the handler turns it into a structured 400)."""
        try:
            raw = json.loads(body.decode("utf-8"))
        except (UnicodeDecodeError, json.JSONDecodeError) as exc:
            raise SpecError("", f"body is not valid JSON: {exc}") from exc
        spec = RunSpec.from_dict(raw)
        spec.validate()
        return spec

    def submit(self, spec: RunSpec) -> RunRecord:
        """Launch one validated spec on a worker thread; returns the
        record immediately (callers wanting the blocking behaviour join
        via :meth:`wait`)."""
        run_id = new_run_id()
        record = RunRecord(
            run_id=run_id,
            spec=spec.to_dict(),
            spec_digest=spec.digest(),
            status="running",
            created=time.time(),
            log_path=self.log_dir / f"{run_id}.jsonl",
        )
        bus = EventBus(run_id=run_id)
        registry = MetricsRegistry()
        bus.subscribe(MetricsObserver(registry))
        snapshot_once = _SnapshotOnce(registry)
        runlog = JsonlRunLog(
            self.log_dir,
            metrics=snapshot_once,
            header={"spec_digest": record.spec_digest},
        )
        bus.subscribe(runlog)

        def work() -> None:
            try:
                report = api_run(spec, bus=bus)
                record.report = report.to_dict()
                record.status = "finished"
            except Exception as exc:  # noqa: BLE001 - recorded, not raised
                record.error = f"{type(exc).__name__}: {exc}"
                record.status = "failed"
            finally:
                runlog.close()
                record.finished_at = time.time()
                with self._lock:
                    self.fleet.merge_snapshot(snapshot_once())

        record.thread = threading.Thread(
            target=work, name=f"repro-run-{run_id}", daemon=True
        )
        with self._lock:
            self._records[run_id] = record
        record.thread.start()
        return record

    def wait(self, record: RunRecord, timeout: Optional[float] = None) -> bool:
        """Block until the record's worker exits; False on timeout."""
        if record.thread is not None:
            record.thread.join(timeout)
            if record.thread.is_alive():
                return False
        return True

    # -- queries ---------------------------------------------------------

    def get(self, run_id: str) -> Optional[RunRecord]:
        with self._lock:
            return self._records.get(run_id)

    def records(self) -> list[RunRecord]:
        with self._lock:
            return list(self._records.values())

    def is_active(self, run_id: str) -> bool:
        record = self.get(run_id)
        return record is not None and record.active

    def counts(self) -> dict:
        with self._lock:
            by_status: dict[str, int] = {}
            for record in self._records.values():
                by_status[record.status] = by_status.get(record.status, 0) + 1
        return {
            "active": by_status.get("running", 0),
            "finished": by_status.get("finished", 0),
            "failed": by_status.get("failed", 0),
        }

    def catalog(self) -> list[dict]:
        """Every known run, newest first: the refreshed on-disk index
        rows, overlaid with live status for runs this daemon owns."""
        self.index.refresh()
        rows = {entry["run_id"]: dict(entry) for entry in self.index.rows()}
        for record in self.records():
            row = rows.setdefault(record.run_id, {"run_id": record.run_id})
            row.update(record.status_dict())
        return sorted(
            rows.values(),
            key=lambda r: (-(r.get("created") or 0), r.get("run_id", "")),
        )

    def detail(self, run_id: str) -> Optional[dict]:
        """One run's full view: index record + live status + span tree.

        ``None`` means the run id is unknown to both the registry and
        the log directory.
        """
        record = self.get(run_id)
        row: dict = {}
        try:
            summary = summarize(read_run_log(self.log_dir / f"{run_id}.jsonl"))
            row = summary_dict(summary)
            row["spans"] = render_span_tree(summary)
        except (RunLogError, OSError):
            if record is None:
                return None
        if record is not None:
            row.update(record.status_dict())
        else:
            row.setdefault("status", row.get("outcome", "unknown"))
        return row

    def report_for(self, run_id: str) -> Optional[dict]:
        """The versioned report payload of a finished run — from the
        live record when this daemon ran it, else replayed from the
        ``run-finished`` line of the on-disk log."""
        record = self.get(run_id)
        if record is not None and record.report is not None:
            return record.report
        try:
            replay = read_run_log(self.log_dir / f"{run_id}.jsonl")
        except (RunLogError, OSError):
            return None
        finished = replay.events.first("run-finished")
        if finished is None:
            return None
        report = finished.report
        return report if isinstance(report, dict) else None


class _SnapshotOnce:
    """A metrics snapshot computed once and cached — the run log's
    trailing metrics line and the fleet fold see the same numbers."""

    def __init__(self, registry: MetricsRegistry) -> None:
        self._registry = registry
        self._snapshot: Optional[dict] = None

    def __call__(self) -> dict:
        if self._snapshot is None:
            self._snapshot = self._registry.snapshot()
        return self._snapshot
