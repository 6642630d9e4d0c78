"""The corpus's JSON files: atomic writes, checked reads, one error.

Every corpus file (manifests, eval-matrix shards and index, the frozen
suite) is written by :func:`_write_json`, which encodes a value of its
:mod:`repro.decode` type, and read by :func:`_read_json`, which decodes
it as that type; whatever is wrong with a file is a
:class:`CorpusError` naming it.
"""

from __future__ import annotations

import json
from pathlib import Path
from typing import Optional

from ..decode import DecodeError, decode, encode


class CorpusError(RuntimeError):
    """The corpus directory is missing, malformed, or inconsistent."""


def _write_json(path: Path, value: object, indent: Optional[int] = 2) -> None:
    """Atomic JSON write of ``value``, encoded: temp file in the same
    directory + rename."""
    path.parent.mkdir(parents=True, exist_ok=True)
    tmp = path.with_suffix(".json.tmp")
    tmp.write_text(json.dumps(encode(value), indent=indent, sort_keys=True))
    tmp.replace(path)


def _read_json(path: Path, raw: Optional[bytes] = None, tp: type = dict):
    """Parse one corpus file (or its ``raw`` bytes, already read) as
    ``tp``, an object by default; a truncated or corrupt file is a
    :class:`CorpusError` naming it, never a bare decoder traceback."""
    try:
        payload = json.loads(path.read_bytes() if raw is None else raw)
    except (json.JSONDecodeError, UnicodeDecodeError) as exc:
        raise CorpusError(f"{path} is unreadable: {exc}") from exc
    return _decode_file(tp, path, payload)


def _decode_file(tp: type, path: Path, payload: object):
    """``payload``, parsed from ``path``, as ``tp``; a mismatch is a
    :class:`CorpusError` naming the file and the field."""
    try:
        return decode(tp, payload)
    except DecodeError as exc:
        raise CorpusError(f"{path} is malformed: {exc}") from exc
