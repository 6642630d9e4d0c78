"""Durable run telemetry: the schema-versioned JSONL run log.

Role
----
:class:`JsonlRunLog` is an enveloped observer (see
:class:`~repro.api.events.Envelope`) that writes one
``<log_dir>/<run_id>.jsonl`` per run:

* line 1 — the **header**: ``{"schema": N, "run_id": ..., "created":
  unix-time}``;
* one line per enveloped event: ``{"seq", "t", "wall", "kind",
  "data"}`` where ``data`` is the event's dataclass payload
  (``span-closed`` lines carry the span timings, ``run-finished``
  carries the full versioned report dict);
* after ``run-finished`` — an optional trailing **metrics** line
  ``{"kind": "metrics", "data": <registry snapshot>}``.

Each line is flushed as written, so ``repro obs tail --follow`` can
watch a live run.

:func:`read_run_log` round-trips a log back into typed events — a
:class:`~repro.api.events.EventLog` replays offline exactly as the live
observers saw the run — and **rejects** logs written by a future schema
(:class:`RunLogError`), mirroring the report-schema versioning policy.
The header's own keys and every later line are decoded by
:mod:`repro.decode`, so whatever is wrong with a line is a
:class:`RunLogError` naming ``file:line``.

Invariants
----------
* writing is append-only and line-buffered; a crashed run leaves a
  valid prefix (every line is a complete JSON object);
* replay preserves emission order, payloads, and envelope context
  (``seq``/``t``/``wall`` survive in the raw records);
* the only lossy hop is ``run-finished``: the live event carries the
  report *object*, the replayed one carries its ``to_dict()`` payload.
"""

from __future__ import annotations

import dataclasses
import json
from pathlib import Path
from typing import Optional

from ..api import events as _events
from ..api.events import Envelope, Event, EventLog
from ..decode import DecodeError, decode

#: bump on any backwards-incompatible change to the line shapes above
RUN_LOG_SCHEMA_VERSION = 1

#: event kind -> dataclass, rebuilt from the event catalogue so new
#: event types round-trip without touching this module
EVENT_TYPES: dict[str, type] = {
    cls.kind: cls
    for cls in vars(_events).values()
    if isinstance(cls, type)
    and issubclass(cls, Event)
    and cls is not Event
    and dataclasses.is_dataclass(cls)
}


class RunLogError(RuntimeError):
    """A run log that cannot be read (not a log, a malformed line, or a
    future schema)."""


@dataclasses.dataclass(frozen=True)
class _Header:
    """The header line's own keys (a writer may add others, such as
    the serve daemon's ``spec_digest``)."""

    schema: int
    run_id: Optional[str] = None
    created: Optional[float] = None


@dataclasses.dataclass(frozen=True)
class _Line:
    """An event line, or the trailing metrics line (no ``seq``)."""

    kind: str
    data: dict
    seq: Optional[int] = None
    t: Optional[float] = None
    wall: Optional[float] = None


def _event_payload(event: Event) -> dict:
    """An event's fields as a JSON-able dict (``kind`` is a ClassVar
    and rides outside the payload)."""
    data = {}
    for field in dataclasses.fields(event):
        value = getattr(event, field.name)
        if isinstance(value, frozenset):
            value = sorted(value)
        elif hasattr(value, "to_dict"):
            value = value.to_dict()
        data[field.name] = value
    return data


def _event_from(kind: str, data: dict) -> Event:
    """Rebuild the typed event a log line describes."""
    cls = EVENT_TYPES.get(kind)
    if cls is None:
        raise RunLogError(f"unknown event kind {kind!r}")
    try:
        return decode(cls, data, kind)
    except DecodeError as exc:
        raise RunLogError(f"malformed {kind!r} event: {exc}") from exc


class JsonlRunLog:
    """Observer writing the durable JSONL run log described above.

    ``metrics`` is an optional zero-argument callable returning the
    final registry snapshot; it is polled once, right after the
    ``run-finished`` line lands (:class:`repro.obs.ObsContext` wires
    the registry's cached snapshot in here so the log and the report
    carry the same numbers).

    ``header`` merges extra keys into the header line — the serve
    daemon stamps the submitted spec's digest there so the cross-run
    index (:mod:`repro.obs.index`) can group runs by spec without the
    log carrying the whole spec.  Reserved keys (``schema``/``run_id``/
    ``created``) cannot be overridden.
    """

    def __init__(
        self,
        log_dir,
        metrics: Optional[callable] = None,
        header: Optional[dict] = None,
    ) -> None:
        self.dir = Path(log_dir)
        self.dir.mkdir(parents=True, exist_ok=True)
        self._metrics = metrics
        self._header_extra = dict(header or {})
        self._handle = None
        self.path: Optional[Path] = None

    def on_enveloped(self, envelope: Envelope) -> None:
        if self._handle is None:
            self.path = self.dir / f"{envelope.run_id}.jsonl"
            self._handle = self.path.open("w")
            self._write(
                {
                    **self._header_extra,
                    "schema": RUN_LOG_SCHEMA_VERSION,
                    "run_id": envelope.run_id,
                    "created": envelope.wall,
                }
            )
        self._write(
            {
                "seq": envelope.seq,
                "t": round(envelope.t, 6),
                "wall": envelope.wall,
                "kind": envelope.event.kind,
                "data": _event_payload(envelope.event),
            }
        )
        if envelope.event.kind == "run-finished":
            if self._metrics is not None:
                snapshot = self._metrics()
                if snapshot is not None:
                    self._write({"kind": "metrics", "data": snapshot})
            self.close()

    def _write(self, obj: dict) -> None:
        json.dump(obj, self._handle, sort_keys=True, default=str)
        self._handle.write("\n")
        self._handle.flush()

    def close(self) -> None:
        if self._handle is not None:
            self._handle.close()
            self._handle = None


@dataclasses.dataclass
class RunLogReplay:
    """One run log read back: typed events plus the raw envelope rows."""

    path: Path
    run_id: str
    schema: int
    created: Optional[float]
    #: raw per-event rows, each ``{"seq", "t", "wall", "kind", "data"}``
    records: list[dict]
    #: the same events, replayed through the reference observer
    events: EventLog
    #: the trailing metrics snapshot, if the run wrote one
    metrics: Optional[dict]
    #: the raw header line (carries writer extras like ``spec_digest``)
    header: dict = dataclasses.field(default_factory=dict)


def read_run_log(path) -> RunLogReplay:
    """Parse a JSONL run log back into typed events.

    Raises :class:`RunLogError` on a missing/garbled header, a schema
    newer than :data:`RUN_LOG_SCHEMA_VERSION`, or a line that is not an
    event (or the metrics line) of a known kind, naming ``file:line``.
    """
    path = Path(path)
    try:
        lines = path.read_text().splitlines()
    except OSError as exc:
        raise RunLogError(f"cannot read {path}: {exc}") from exc
    rows = []
    for number, line in enumerate(lines, 1):
        if not line.strip():
            continue
        try:
            rows.append((number, json.loads(line)))
        except json.JSONDecodeError as exc:
            raise RunLogError(f"{path}:{number}: not JSON: {exc}") from exc
    if not rows or not isinstance(rows[0][1], dict) or "schema" not in rows[0][1]:
        raise RunLogError(f"{path}: not a run log (missing schema header)")
    (number, header), body = rows[0], rows[1:]
    own = {name: header[name] for name in ("schema", "run_id", "created")
           if name in header}
    try:
        head = decode(_Header, own)
    except DecodeError as exc:
        raise RunLogError(f"{path}:{number}: {exc}") from exc
    if head.schema > RUN_LOG_SCHEMA_VERSION:
        raise RunLogError(
            f"{path}: written by run-log schema {head.schema!r}; this build "
            f"reads versions <= {RUN_LOG_SCHEMA_VERSION}"
        )
    events = EventLog()
    records: list[dict] = []
    metrics: Optional[dict] = None
    for number, row in body:
        try:
            entry = decode(_Line, row)
            if entry.kind == "metrics" and entry.seq is None:
                metrics = entry.data
                continue
            events.on_event(_event_from(entry.kind, entry.data))
        except (DecodeError, RunLogError) as exc:
            raise RunLogError(f"{path}:{number}: {exc}") from exc
        records.append(row)
    return RunLogReplay(
        path=path,
        run_id=head.run_id if head.run_id is not None else path.stem,
        schema=head.schema,
        created=head.created,
        records=records,
        events=events,
        metrics=metrics,
        header=header,
    )


class JsonlCursor:
    """Incremental reader over a live, line-flushed JSONL file.

    Every pipeline writer flushes whole lines (:class:`JsonlRunLog`
    invariant), so polling the file and splitting on newlines yields
    only complete JSON objects — a writer caught mid-line stays
    buffered until its newline lands.  One cursor backs every follower:
    ``repro obs tail --follow``, the serve daemon's SSE/NDJSON event
    stream, and replay-from-seq reconnects.

    ``from_seq`` skips rows whose envelope ``seq`` is ≤ the given value
    *and* the header line (a reconnecting client already holds both);
    seq-less trailing rows (the metrics line) always pass, since they
    only appear after the last event a dropped connection could have
    delivered.
    """

    def __init__(self, path, from_seq: int = 0) -> None:
        self.path = Path(path)
        self.from_seq = from_seq
        self._position = 0
        self._buffer = ""
        #: True once a ``run-finished`` row has been returned
        self.finished = False

    def poll(self) -> list[tuple[str, dict]]:
        """Every complete ``(raw_line, parsed_row)`` appended since the
        last poll, filtered by ``from_seq``.  A missing file is simply
        "no new lines yet" — the writer may not have started."""
        try:
            with self.path.open() as handle:
                handle.seek(self._position)
                chunk = handle.read()
                self._position = handle.tell()
        except FileNotFoundError:
            return []
        self._buffer += chunk
        rows: list[tuple[str, dict]] = []
        while "\n" in self._buffer:
            line, self._buffer = self._buffer.split("\n", 1)
            if not line.strip():
                continue
            row = json.loads(line)
            if "seq" in row:
                if row["seq"] <= self.from_seq:
                    continue
                if row.get("kind") == "run-finished":
                    self.finished = True
            elif "schema" in row and self.from_seq > 0:
                continue  # header: the reconnecting client has it
            rows.append((line, row))
        return rows


def latest_run_log(log_dir) -> Path:
    """The newest ``*.jsonl`` in a log directory (most recent mtime)."""
    log_dir = Path(log_dir)
    candidates = sorted(
        log_dir.glob("*.jsonl"), key=lambda p: (p.stat().st_mtime, p.name)
    )
    if not candidates:
        raise RunLogError(f"no .jsonl run logs in {log_dir}")
    return candidates[-1]
