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
Every reader (:func:`read_run_log`, ``repro obs tail``, the serve event
stream, ``repro submit --follow``) checks each line once with
:func:`check_row`, which decodes the header's own keys and every later
line with :mod:`repro.decode`, so whatever is wrong with a line is a
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
from typing import Iterator, Optional

from ..api import events as _events
from ..api.events import Envelope, Event, EventLog
from ..decode import DecodeError, decode, encode

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

    def __post_init__(self) -> None:
        if self.seq is not None and (self.t is None or self.wall is None):
            raise ValueError("an event line (one with a seq) needs t and wall")


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
            own = _Header(RUN_LOG_SCHEMA_VERSION, envelope.run_id, envelope.wall)
            self._write({**self._header_extra, **encode(own)})
        event, t = envelope.event, round(envelope.t, 6)
        data = _event_payload(event)
        self._write(_Line(event.kind, data, envelope.seq, t, envelope.wall))
        if event.kind == "run-finished":
            if self._metrics is not None:
                snapshot = self._metrics()
                if snapshot is not None:
                    self._write(_Line("metrics", snapshot))
            self.close()

    def _write(self, line: object) -> None:
        json.dump(encode(line), self._handle, sort_keys=True, default=str)
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


def check_row(line: bytes, where: str, header: bool) -> dict:
    """One run-log line parsed and checked: the ``header`` line's own
    keys as :class:`_Header` (a schema newer than
    :data:`RUN_LOG_SCHEMA_VERSION` refused), any later line as a
    :class:`_Line`.  Whatever is wrong is a :class:`RunLogError` naming
    ``where`` (``file:line``)."""
    try:
        row = json.loads(line.decode())
    except (UnicodeDecodeError, json.JSONDecodeError) as exc:
        raise RunLogError(f"{where}: not JSON: {exc}") from exc
    if header and (type(row) is not dict or "schema" not in row):
        raise RunLogError(f"{where}: not a run log (missing schema header)")
    try:
        if not header:
            decode(_Line, row)
            return row
        own = {k: row[k] for k in ("schema", "run_id", "created") if k in row}
        schema = decode(_Header, own).schema
    except DecodeError as exc:
        raise RunLogError(f"{where}: {exc}") from exc
    if schema > RUN_LOG_SCHEMA_VERSION:
        raise RunLogError(
            f"{where}: written by run-log schema {schema!r}; this build "
            f"reads versions <= {RUN_LOG_SCHEMA_VERSION}"
        )
    return row


def read_run_log(path) -> RunLogReplay:
    """Parse a JSONL run log's complete lines back into typed events.

    Raises :class:`RunLogError` on a missing file or header, a schema
    newer than :data:`RUN_LOG_SCHEMA_VERSION`, or a line that is not an
    event (or the metrics line) of a known kind, naming ``file:line``.
    """
    path = Path(path)
    if not path.is_file():
        raise RunLogError(f"cannot read {path}: not a file")
    cursor = JsonlCursor(path)
    rows = cursor.poll()
    if next(rows, None) is None:
        raise RunLogError(f"{path}: not a run log (missing schema header)")
    header = cursor.header
    events = EventLog()
    records: list[dict] = []
    metrics: Optional[dict] = None
    for _, row in rows:
        if row["kind"] == "metrics" and row.get("seq") is None:
            metrics = row["data"]
            continue
        try:
            events.on_event(_event_from(row["kind"], row["data"]))
        except RunLogError as exc:
            raise RunLogError(f"{path}:{cursor.line}: {exc}") from exc
        records.append(row)
    return RunLogReplay(
        path=path,
        run_id=header.get("run_id") or path.stem,
        schema=header["schema"],
        created=header.get("created"),
        records=records,
        events=events,
        metrics=metrics,
        header=header,
    )


class JsonlCursor:
    """Incremental reader over a live, line-flushed JSONL run log.

    Every pipeline writer flushes whole lines (:class:`JsonlRunLog`
    invariant), so polling the file and splitting on newlines yields
    only complete JSON objects — a writer caught mid-line stays
    buffered until its newline lands.  One cursor backs every reader:
    :func:`read_run_log`, ``repro obs tail --follow``, the serve
    daemon's SSE/NDJSON event stream, and replay-from-seq reconnects.
    Each line is checked once, by :func:`check_row`.

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
        self._buffer = b""
        #: the number of the last line read (1-based)
        self.line = 0
        #: the header row, once read
        self.header: Optional[dict] = None
        #: True once a ``run-finished`` row has been returned
        self.finished = False

    def poll(self) -> Iterator[tuple[str, dict]]:
        """Every complete ``(raw_line, parsed_row)`` appended since the
        last poll, filtered by ``from_seq``.  A missing file is simply
        "no new lines yet" — the writer may not have started.  A line
        that is not a run-log row raises :class:`RunLogError` once the
        rows before it are out."""
        try:
            with self.path.open("rb") as handle:
                handle.seek(self._position)
                chunk = handle.read()
                self._position = handle.tell()
        except FileNotFoundError:
            return
        *lines, self._buffer = (self._buffer + chunk).split(b"\n")
        for line in lines:
            self.line += 1
            if not line.strip():
                continue
            header = self.header is None
            row = check_row(line, f"{self.path}:{self.line}", header)
            if header:
                self.header = row
                if self.from_seq > 0:
                    continue  # the reconnecting client has it
            elif row.get("seq") is not None:
                if row["seq"] <= self.from_seq:
                    continue
                if row["kind"] == "run-finished":
                    self.finished = True
            yield line.decode(), row


def latest_run_log(log_dir) -> Path:
    """The newest ``*.jsonl`` in a log directory (most recent mtime)."""
    log_dir = Path(log_dir)
    candidates = sorted(
        log_dir.glob("*.jsonl"), key=lambda p: (p.stat().st_mtime, p.name)
    )
    if not candidates:
        raise RunLogError(f"no .jsonl run logs in {log_dir}")
    return candidates[-1]
