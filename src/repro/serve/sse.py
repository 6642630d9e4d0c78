"""Event-stream writing: one run's JSONL log as live SSE or NDJSON.

Role
----
``GET /v1/runs/{run_id}/events`` must show any subscriber — early,
late, or reconnecting — exactly what the durable log holds.  The
simplest correct way is to make the log the *only* source: the stream
is the raw ``runs/<run_id>.jsonl`` lines, polled through a
:class:`~repro.obs.runlog.JsonlCursor` (flushed-per-line writing makes
complete lines the unit of progress), so a replayed stream is
byte-identical to the file and a late subscriber sees the full history.

Two framings over the same rows:

* **NDJSON** (``application/x-ndjson``, the default): each log line
  verbatim, newline-terminated — what ``repro submit --follow`` reads;
* **SSE** (``text/event-stream``): enveloped rows become ``id: <seq>``
  + ``data: <line>`` messages; the header and trailing metrics rows are
  typed ``event: header`` / ``event: metrics``; a final ``event: end``
  marks orderly completion.  Reconnecting clients send the standard
  ``Last-Event-ID`` header (or ``?from_seq=N``) and resume after the
  last sequence number they saw.

The follow loop ends when the run is no longer active *and* the cursor
has drained — which covers finished runs (``run-finished`` + metrics
line), failed runs (valid prefix, no ``run-finished``), and historical
logs (never active).  It also ends at a line that is not a run-log row
(:func:`~repro.obs.runlog.check_row`): the rows before it are streamed,
the bad line and anything after it are not.
"""

from __future__ import annotations

import time
from typing import Callable, Optional

from ..obs import JsonlCursor, RunLogError

#: seconds between polls of a live run's log
POLL_INTERVAL = 0.05


def sse_frame(line: str, row: dict) -> bytes:
    """One parsed log line as an SSE message."""
    if row.get("seq") is not None:
        return f"id: {row['seq']}\ndata: {line}\n\n".encode()
    event = "header" if "schema" in row else (row.get("kind") or "message")
    return f"event: {event}\ndata: {line}\n\n".encode()


def ndjson_frame(line: str, row: dict) -> bytes:
    return (line + "\n").encode()


def stream_run_log(
    path,
    write: Callable[[bytes], None],
    is_active: Callable[[], bool],
    sse: bool = False,
    from_seq: int = 0,
    poll_interval: float = POLL_INTERVAL,
    timeout: Optional[float] = None,
) -> int:
    """Pump a run log's rows through ``write`` until the run is over.

    ``write`` is called once per frame (the HTTP handler flushes);
    ``is_active`` is polled between drains — a registry callback for
    live runs, ``lambda: False`` for historical ones.  Returns the
    number of frames written.  A ``BrokenPipeError`` from ``write``
    (client went away) propagates to the caller, which treats it as a
    normal disconnect.
    """
    frame = sse_frame if sse else ndjson_frame
    cursor = JsonlCursor(path, from_seq=from_seq)
    deadline = time.monotonic() + timeout if timeout is not None else None
    frames = 0

    def drain() -> bool:
        nonlocal frames
        before = frames
        for line, row in cursor.poll():
            write(frame(line, row))
            frames += 1
        return frames > before

    try:
        while True:
            if drain():
                continue
            # Drain-then-check avoids the shutdown race: a run that
            # finished between our poll and the activity check gets one
            # more poll before the loop can exit.
            if not is_active():
                drain()
                break
            if deadline is not None and time.monotonic() >= deadline:
                break
            time.sleep(poll_interval)
    except RunLogError:
        pass  # the stream ends at the bad line
    if sse:
        write(b"event: end\ndata: {}\n\n")
    return frames
