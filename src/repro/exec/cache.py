"""Outcome memoization: never pay twice for the same intervened run.

The simulator is deterministic per ``(program, interventions, seed)``
and the fault injections for a pid set are a pure function of the frozen
predicate suite, so one intervened execution is fully identified by the
triple ``(workload, seed, pids)`` — :class:`RunRequest`.  The cache maps
that triple to its :class:`RunOutcome`; both types live here, and the
intervention runners (:mod:`repro.core.intervention`) build on them.

Memoization pays on three levels:

* **within one discovery** — GIWP revisits pid groups (singleton
  confirmations, recursion over a stopped half);
* **across approaches** — Figure 7 runs AID and TAGT on the same
  session, and their rounds overlap;
* **across invocations** — with JSON persistence, a repeated
  ``figure7``/``figure8`` sweep replays entirely from cache (the
  interventional analogue of incremental re-evaluation under updates).

The cache key deliberately excludes the pipeline configuration
(extractors, precedence policy, corpus quotas); the ``workload`` string
must encode whatever distinguishes two incompatible suites.  Runners in
this repo embed program name, corpus quotas, and step budget.

Persistence format: one JSON file —
``{"version": 1, "entries": [{"workload", "seed", "pids": [...],
"outcome": {"observed": [...], "failed", "seed"}}, ...]}`` — entries
sorted by key for reproducible diffs; unknown versions are rejected,
every field is checked against its type by :mod:`repro.decode`
(nothing is coerced), and
loading merges into (never clobbers) the in-memory table.  ``save``
writes a sibling file and renames it over the target, so a failed
write leaves the previous cache loadable.
"""

from __future__ import annotations

import json
import os
from dataclasses import dataclass
from typing import Iterator, Literal, Optional

from ..decode import DecodeError, decode, encode
from ..sim.serialize import stable_digest

CACHE_FORMAT_VERSION = 1

#: Internal cache key: (workload, seed, pids).
CacheKey = tuple[str, int, frozenset]


@dataclass(frozen=True)
class RunOutcome:
    """What one intervened execution showed.

    ``observed`` holds the pids of all predicates that evaluated true on
    the intervened run; ``failed`` tells whether the failure (same
    signature) still occurred.  Both feed the pruning rule
    (Definition 2).
    """

    observed: frozenset[str]
    failed: bool
    seed: int = 0


@dataclass(frozen=True)
class RunRequest:
    """One intervened execution, fully identified for memoization."""

    workload: str
    seed: int
    pids: frozenset[str]

    @property
    def key(self) -> CacheKey:
        return (self.workload, self.seed, self.pids)

    @property
    def fingerprint(self) -> str:
        """Content address of this request, using the same digest scheme
        as the trace-corpus store (:mod:`repro.sim.serialize`) — one
        fingerprint vocabulary across every persistence layer."""
        return stable_digest(
            {
                "workload": self.workload,
                "seed": self.seed,
                "pids": sorted(self.pids),
            }
        )


class OutcomeCache:
    """Exact-key outcome store with hit/miss statistics and persistence.

    Parameters
    ----------
    path:
        Optional JSON file.  When given, an existing file is loaded
        eagerly and :meth:`save` (with no argument) writes back to it.
    """

    def __init__(self, path: Optional[str] = None) -> None:
        self.path = path
        self.hits = 0
        self.misses = 0
        self.stores = 0
        self._data: dict[CacheKey, RunOutcome] = {}
        if path is not None and os.path.exists(path):
            self.load(path)

    # -- lookup ----------------------------------------------------------

    def peek(self, request: RunRequest) -> Optional[RunOutcome]:
        """Stat-free lookup (the scheduler does its own accounting)."""
        return self._data.get(request.key)

    def record_hit(self) -> None:
        self.hits += 1

    def record_miss(self) -> None:
        self.misses += 1

    def store(self, request: RunRequest, outcome: RunOutcome) -> None:
        self._data[request.key] = outcome
        self.stores += 1

    def __len__(self) -> int:
        return len(self._data)

    def __contains__(self, request: RunRequest) -> bool:
        return request.key in self._data

    def __iter__(self) -> Iterator[CacheKey]:
        return iter(self._data)

    def clear(self) -> None:
        self._data.clear()

    @property
    def lookups(self) -> int:
        return self.hits + self.misses

    @property
    def hit_rate(self) -> float:
        return self.hits / self.lookups if self.lookups else 0.0

    # -- persistence -----------------------------------------------------

    def save(self, path: Optional[str] = None) -> str:
        """Write every entry as JSON; returns the path written."""
        path = path or self.path
        if path is None:
            raise ValueError("OutcomeCache has no path to save to")
        entries = [
            _StoredEntry(
                workload, seed, pids,
                _StoredOutcome(outcome.observed, outcome.failed, outcome.seed),
            )
            for (workload, seed, pids), outcome in sorted(
                self._data.items(),
                key=lambda kv: (kv[0][0], kv[0][1], tuple(sorted(kv[0][2]))),
            )
        ]
        payload = encode(_CacheFile(CACHE_FORMAT_VERSION, entries))
        # Write a sibling and rename it over the target, so a write that
        # fails partway leaves the previous cache intact.
        tmp = f"{path}.tmp"
        try:
            with open(tmp, "w") as handle:
                json.dump(payload, handle)
                handle.flush()
                os.fsync(handle.fileno())
            os.replace(tmp, path)
        except BaseException:
            if os.path.exists(tmp):
                os.remove(tmp)
            raise
        return path

    def load(self, path: str) -> int:
        """Merge entries from ``path``; returns how many were loaded."""
        with open(path) as handle:
            try:
                payload = json.load(handle)
            except json.JSONDecodeError as exc:
                raise ValueError(
                    f"{path} is not an outcome-cache file: {exc}"
                ) from exc
        try:
            entries = decode(_CacheFile, payload).entries
        except DecodeError as exc:
            raise ValueError(f"{path}: malformed cache: {exc}") from exc
        for e in entries:
            self._data[(e.workload, e.seed, e.pids)] = RunOutcome(
                e.outcome.observed, e.outcome.failed, e.outcome.seed
            )
        return len(entries)


@dataclass(frozen=True)
class _StoredOutcome:
    observed: frozenset[str]
    failed: bool
    seed: int


@dataclass(frozen=True)
class _StoredEntry:
    """One persisted entry, as :meth:`OutcomeCache.save` writes it."""

    workload: str
    seed: int
    pids: frozenset[str]
    outcome: _StoredOutcome


@dataclass(frozen=True)
class _CacheFile:
    version: Literal[CACHE_FORMAT_VERSION]
    entries: list[_StoredEntry]
