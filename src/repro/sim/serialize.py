"""Trace (de)serialization: JSON export/import of execution traces.

The paper's pipeline separates online instrumentation from offline
predicate extraction (Appendix A) — traces are collected once, shipped,
and analyzed later, possibly with predicates designed after the fact.
This module makes that workflow concrete: traces round-trip through a
stable JSON schema, and the imported form supports everything the
extraction layer needs (``method_executions``, ``lookup``, failure
metadata), so a corpus can be debugged without re-running the program.
"""

from __future__ import annotations

import hashlib
import json
from typing import Optional

from .tracing import (
    Access,
    AccessType,
    ExecutionTrace,
    FailureInfo,
    MethodExecution,
    TraceReader,
    method_execution,
)

SCHEMA_VERSION = 1


def trace_to_dict(trace: ExecutionTrace) -> dict:
    """Serialize a trace to plain JSON-compatible data."""
    return {
        "schema": SCHEMA_VERSION,
        "program": trace.program_name,
        "seed": trace.seed,
        "end_time": trace.end_time,
        "failure": (
            None
            if trace.failure is None
            else {
                "mode": trace.failure.mode,
                "exception": trace.failure.exception,
                "method": trace.failure.method,
                "thread": trace.failure.thread,
                "time": trace.failure.time,
            }
        ),
        "calls": [
            {
                "call_id": m.call_id,
                "method": m.method,
                "thread": m.thread,
                "occurrence": m.occurrence,
                "start_time": m.start_time,
                "end_time": m.end_time,
                "start_lamport": m.start_lamport,
                "end_lamport": m.end_lamport,
                "parent_call_id": m.parent_call_id,
                "return_value": _jsonable(m.return_value),
                "exception": m.exception,
                "body_skipped": m.body_skipped,
                "accesses": [
                    {
                        "obj": a.obj,
                        "type": a.access_type.value,
                        "time": a.time,
                        "lamport": a.lamport,
                        "locks": sorted(a.locks_held),
                    }
                    for a in m.accesses
                ],
            }
            for m in trace.method_executions()
        ],
    }


def trace_to_json(trace: ExecutionTrace, indent: Optional[int] = None) -> str:
    return json.dumps(trace_to_dict(trace), indent=indent, sort_keys=True)


# -- content addressing ------------------------------------------------------
#
# One fingerprint scheme for the whole repo: the trace-corpus store, the
# eval-matrix memo keys, and the intervention outcome cache all derive
# identities from the same canonical-JSON digest, so "same content" means
# the same thing at every layer.

#: Hex digest length: 64 bits of SHA-256, plenty below corpus scales where
#: birthday collisions matter, short enough to be a filename and a log line.
DIGEST_CHARS = 16


def canonical_json(payload: object) -> str:
    """Deterministic JSON text: sorted keys, no whitespace."""
    return json.dumps(payload, sort_keys=True, separators=(",", ":"))


def bytes_digest(data: bytes) -> str:
    """Stable hex fingerprint of raw bytes."""
    return hashlib.sha256(data).hexdigest()[:DIGEST_CHARS]


def stable_digest(payload: object) -> str:
    """Stable hex fingerprint of JSON-compatible data."""
    return bytes_digest(canonical_json(payload).encode("utf-8"))


def encode_trace(trace: ExecutionTrace) -> tuple[bytes, str]:
    """The one trace encoding: a trace's canonical bytes and their
    digest, its content fingerprint — what the corpus store writes and
    names the file by.  Executions with identical observable behaviour
    collide by design: that is the dedup the store wants."""
    body = canonical_json(trace_to_dict(trace)).encode("utf-8")
    return body, bytes_digest(body)


def trace_fingerprint(trace: ExecutionTrace) -> str:
    """Content address of a trace (see :func:`encode_trace`)."""
    return encode_trace(trace)[1]


class ImportedTrace(TraceReader):
    """A deserialized trace, API-compatible with :class:`ExecutionTrace`
    for everything the core pipeline reads."""

    def __init__(
        self,
        program_name: str,
        seed: int,
        end_time: int,
        failure: Optional[FailureInfo],
        calls: list[MethodExecution],
        fingerprint: Optional[str] = None,
    ) -> None:
        self.program_name = program_name
        self.seed = seed
        self.end_time = end_time
        self.failure = failure
        #: Content address when loaded from a corpus store (else ``None``).
        self.fingerprint = fingerprint
        self._completed = calls
        self._index = None


class TraceFormatError(ValueError):
    """A payload that does not follow the :func:`trace_to_dict` schema:
    a wrong schema version, a missing key or a wrong-typed field."""


_ACCESS_TYPES = {t.value: t for t in AccessType}


def trace_from_dict(
    payload: dict, fingerprint: Optional[str] = None
) -> ImportedTrace:
    """Rebuild a trace from :func:`trace_to_dict` output.

    A malformed payload raises :class:`TraceFormatError` instead of a
    bare ``KeyError``/``TypeError``, and a field of the wrong type is
    refused rather than decoded into a record that answers wrongly.  So
    are impossible times, which no execution records: a negative time,
    a call that ends before it starts or after the trace ends, and a
    failure after the trace ends.  A zero-width call is allowed.
    """
    schema = payload.get("schema") if isinstance(payload, dict) else None
    if schema != SCHEMA_VERSION:
        raise TraceFormatError(
            f"unsupported trace schema {schema!r} (expected {SCHEMA_VERSION})"
        )
    try:
        failure = None
        f = payload["failure"]
        if f is not None:
            failure = FailureInfo(
                mode=f["mode"],
                exception=f["exception"],
                method=f["method"],
                thread=f["thread"],
                time=f["time"],
            )
            if not (
                type(failure.mode) is str
                and type(failure.time) is int
                and all(
                    v is None or type(v) is str
                    for v in (failure.exception, failure.method, failure.thread)
                )
            ):
                raise TypeError("the failure record has a wrong-typed field")
        calls = []
        for c in payload["calls"]:
            call_id = c["call_id"]
            method = c["method"]
            thread = c["thread"]
            accesses = tuple(
                Access(
                    a["obj"], _ACCESS_TYPES.get(a["type"]),
                    thread, method, call_id,
                    a["time"], a["lamport"], _lockset(a["locks"]),
                )
                for a in c["accesses"]
            )
            record = method_execution(
                call_id, method, thread, c["occurrence"],
                c["start_time"], c["end_time"],
                c["start_lamport"], c["end_lamport"],
                c["parent_call_id"], c["return_value"], c["exception"],
                accesses, c["body_skipped"],
            )
            if not _well_typed(record):
                raise TypeError(f"call #{len(calls)} has a wrong-typed field")
            calls.append(record)
        program = payload["program"]
        seed = payload["seed"]
        end_time = payload["end_time"]
        if not (
            type(program) is str and type(seed) is int and type(end_time) is int
        ):
            raise TypeError("program, seed or end_time has the wrong type")
    except KeyError as exc:
        raise TraceFormatError(f"trace lacks the {exc} key") from exc
    except (AttributeError, TypeError) as exc:
        raise TraceFormatError(f"malformed trace: {exc}") from exc
    problem = _impossible_time(end_time, failure, calls)
    if problem is not None:
        raise TraceFormatError(f"impossible time: {problem}")
    return ImportedTrace(program, seed, end_time, failure, calls, fingerprint)


def _impossible_time(
    end_time: int, failure: Optional[FailureInfo], calls: list[MethodExecution]
) -> Optional[str]:
    """What makes a well-typed trace's times impossible, or ``None``.

    The simulator stamps every time from one clock that starts at 0 and
    stops at ``end_time``; a call's window is ``[start, end]`` with
    ``start <= end`` (the evaluation kernel builds observation windows
    from it without re-checking).
    """
    if end_time < 0:
        return f"the trace ends at {end_time}"
    if failure is not None and not 0 <= failure.time <= end_time:
        return f"the failure is at {failure.time}, outside [0, {end_time}]"
    for i, m in enumerate(calls):
        if not 0 <= m.start_time <= m.end_time <= end_time:
            return (
                f"call #{i} spans [{m.start_time}, {m.end_time}], "
                f"not inside [0, {end_time}] in order"
            )
        for a in m.accesses:
            if a.time < 0:
                return f"call #{i} has an access at {a.time}"
    return None


def _lockset(locks: list) -> frozenset:
    if type(locks) is not list:
        raise TypeError(f"locks must be a list, not {type(locks).__name__}")
    return frozenset(locks)


def _well_typed(m: MethodExecution) -> bool:
    """Whether a decoded record's fields have the types the simulator
    writes (``type(...) is int`` also refuses JSON booleans)."""
    return (
        type(m.call_id) is int
        and type(m.occurrence) is int
        and type(m.start_time) is int
        and type(m.end_time) is int
        and type(m.start_lamport) is int
        and type(m.end_lamport) is int
        and type(m.method) is str
        and type(m.thread) is str
        and (m.parent_call_id is None or type(m.parent_call_id) is int)
        and (m.exception is None or type(m.exception) is str)
        and type(m.body_skipped) is bool
        and all(
            type(a.obj) is str
            and a.access_type is not None
            and type(a.time) is int
            and type(a.lamport) is int
            for a in m.accesses
        )
    )


def trace_from_json(text: str) -> ImportedTrace:
    return trace_from_dict(json.loads(text))


def _jsonable(value: object) -> object:
    """Return-value coercion: anything non-JSON becomes its repr."""
    if value is None or isinstance(value, (bool, int, float, str)):
        return value
    if isinstance(value, (list, tuple)):
        return [_jsonable(v) for v in value]
    return repr(value)
