"""The content-addressed, on-disk trace store — sharded by fingerprint.

Role
----
The paper's offline phase (Appendix A) assumes a corpus of labeled
execution logs collected once and re-analyzed many times.  This module
is that corpus made durable: each trace is serialized via
:mod:`repro.sim.serialize` and stored under its content fingerprint, so
ingesting the same execution twice stores it once, and manifests record
labels, seeds, and failure signatures so analyses can plan without
touching trace bodies.

Persistence format (v3, sharded)
--------------------------------
Traces are bucketed by a hex prefix of their fingerprint (the *shard
id*), so no directory and no JSON file ever has to hold the whole
corpus, and shards are the unit of analysis and of evaluation memo
files::

    DIR/
      manifest.json                 top-level index: version, program,
                                    shard_width, populated shard ids
      evalmatrix.json               eval-matrix index (written by
                                    repro.corpus.matrix: version + the
                                    shards holding bitset files)
      shards/<sid>/
        manifest.json               label/seed/signature per fingerprint
        traces/<fp>.json            one serialized trace each
        evalmatrix.json             this shard's predicate-evaluation
                                    memo (v1 single-matrix format)

Older v3 stores may also hold a per-shard ``columnar.bin`` (a derived
trace table earlier builds wrote on analyze) or its ``columnar.bin.tmp``.
Nothing reads them; ``repro corpus compact`` deletes them
(:meth:`TraceStore.drop_legacy_files`).

``shard_width`` is the number of hex characters of the fingerprint used
as the shard id (default 2 → up to 256 shards); width 0 disables
sharding (a single ``shards/all/`` bucket).  The width is fixed at
``init`` and recorded in the top-level manifest.

Invariants
----------
* a fingerprint appears in at most one shard, and always in the shard
  its prefix names;
* the top-level manifest's shard list equals the set of non-empty
  shards, so ``open`` never scans the filesystem;
* ``save`` rewrites only shards dirtied since the last save (plus the
  top-level manifest, when any shard was), each atomically (temp file
  + rename) — so a read-only session never writes.

Migration
---------
Version-1 corpora (flat ``traces/`` + one ``manifest.json`` + one
``evalmatrix.json``) are migrated **in place and transparently** on
:meth:`TraceStore.open`: trace bodies are renamed into their shards, the
manifest is split, and the single eval matrix is split into per-shard
bitset files — preserving every memoized (predicate, trace) pair, so the
first post-migration analysis performs zero re-evaluations.  The
migration is idempotent: a crash mid-way leaves a state a later ``open``
finishes from.

Version-2 corpora have the v3 layout byte for byte, so the v2→v3
migration is just the manifest version bump (the commit point).
"""

from __future__ import annotations

import dataclasses
import json
import os
from dataclasses import dataclass
from pathlib import Path
from typing import TYPE_CHECKING, Iterator, Optional

from ..harness.runner import LabeledCorpus
from ..sim.serialize import (
    ImportedTrace,
    TraceFormatError,
    stable_digest,
    trace_from_dict,
    trace_to_dict,
)

if TYPE_CHECKING:  # pragma: no cover - typing only
    from .matrix import ShardedEvalMatrix

MANIFEST_NAME = "manifest.json"
MATRIX_NAME = "evalmatrix.json"
SUITE_NAME = "suite.json"
TRACES_DIR = "traces"
SHARDS_DIR = "shards"
STORE_VERSION = 3
SUITE_FILE_VERSION = 1
#: version of the ``repro corpus stats --json`` payload
STATS_SCHEMA_VERSION = 1
DEFAULT_SHARD_WIDTH = 2
#: shard id used when sharding is disabled (width 0)
SINGLE_SHARD_ID = "all"
#: per-shard sidecars older v3 builds wrote (a derived trace table and
#: its temp file): ignored on read, deleted by ``compact``
LEGACY_SHARD_FILES = ("columnar.bin", "columnar.bin.tmp")


class CorpusError(RuntimeError):
    """The corpus directory is missing, malformed, or inconsistent."""


@dataclass(frozen=True)
class TraceEntry:
    """Manifest row: everything known about one stored trace."""

    fingerprint: str
    label: str  # "pass" | "fail"
    seed: int
    signature: Optional[str]  # failure signature, None for passes
    #: schedule (interleaving) signature when the producer recorded one
    #: (the exploration driver stamps it); ``None`` for plain ingests
    schedule: Optional[str] = None

    @property
    def failed(self) -> bool:
        return self.label == "fail"

    def to_dict(self) -> dict:
        payload = {
            "label": self.label,
            "seed": self.seed,
            "signature": self.signature,
        }
        # Written only when present, so manifests without schedule
        # provenance stay byte-identical to what older builds wrote.
        if self.schedule is not None:
            payload["schedule"] = self.schedule
        return payload

    @classmethod
    def from_dict(cls, fingerprint: str, raw: dict) -> "TraceEntry":
        return cls(
            fingerprint=fingerprint,
            label=raw["label"],
            seed=raw["seed"],
            signature=raw.get("signature"),
            schedule=raw.get("schedule"),
        )


def _write_json(path: Path, payload: dict, indent: Optional[int] = 2) -> None:
    """Atomic JSON write: temp file in the same directory + rename."""
    path.parent.mkdir(parents=True, exist_ok=True)
    tmp = path.with_suffix(".json.tmp")
    tmp.write_text(json.dumps(payload, indent=indent, sort_keys=True))
    tmp.replace(path)


def _read_json(path: Path) -> dict:
    """Parse one corpus JSON file, which must hold an object; a
    truncated or corrupt file is a :class:`CorpusError` naming it, never
    a bare decoder traceback."""
    try:
        payload = json.loads(path.read_text())
    except json.JSONDecodeError as exc:
        raise CorpusError(f"{path} is unreadable: {exc}") from exc
    if not isinstance(payload, dict):
        raise CorpusError(
            f"{path} is malformed: expected a JSON object, got "
            f"{type(payload).__name__}"
        )
    return payload


class TraceStore:
    """A persistent, deduplicating, sharded corpus of execution traces."""

    def __init__(
        self,
        root: str | os.PathLike,
        program: Optional[str] = None,
        shard_width: int = DEFAULT_SHARD_WIDTH,
        entries: Optional[dict[str, TraceEntry]] = None,
    ) -> None:
        self.root = Path(root)
        self._program = program
        self.shard_width = shard_width
        self.entries: dict[str, TraceEntry] = dict(entries or {})
        #: sid -> {fp: entry}: the per-shard view of ``entries``, kept in
        #: step by every mutator so shard queries cost O(shard)
        self._by_shard: dict[str, dict[str, TraceEntry]] = {}
        self._index_shards()
        #: shard ids whose manifest must be rewritten on the next save
        self._dirty: set[str] = set()

    # -- lifecycle -------------------------------------------------------

    @classmethod
    def init(
        cls,
        root: str | os.PathLike,
        program: Optional[str] = None,
        shard_width: int = DEFAULT_SHARD_WIDTH,
    ) -> "TraceStore":
        """Create a fresh corpus directory (refuses to clobber one)."""
        root = Path(root)
        if (root / MANIFEST_NAME).exists():
            raise CorpusError(f"{root} already holds a corpus")
        if not 0 <= shard_width <= 4:
            raise CorpusError(
                f"shard_width must be between 0 and 4, got {shard_width}"
            )
        (root / SHARDS_DIR).mkdir(parents=True, exist_ok=True)
        store = cls(root, program=program, shard_width=shard_width)
        store.save()
        return store

    @classmethod
    def open(cls, root: str | os.PathLike) -> "TraceStore":
        root = Path(root)
        path = root / MANIFEST_NAME
        if not path.exists():
            raise CorpusError(f"{root} is not a corpus (no {MANIFEST_NAME})")
        manifest = _read_json(path)
        version = manifest.get("version")
        if version == 1:
            manifest = _migrate_v1(root, manifest)
        elif version == 2:
            manifest = _migrate_v2(root, manifest)
        elif version != STORE_VERSION:
            raise CorpusError(
                f"unsupported corpus version {version!r} in {path}"
            )
        shard_width = manifest.get("shard_width", DEFAULT_SHARD_WIDTH)
        entries: dict[str, TraceEntry] = {}
        for sid in manifest.get("shards", []):
            shard_manifest = root / SHARDS_DIR / sid / MANIFEST_NAME
            if not shard_manifest.exists():
                raise CorpusError(
                    f"top-level manifest lists shard {sid!r} but "
                    f"{shard_manifest} is gone"
                )
            raw = _read_json(shard_manifest)
            for fp, row in raw.get("traces", {}).items():
                entries[fp] = TraceEntry.from_dict(fp, row)
        return cls(
            root,
            program=manifest.get("program"),
            shard_width=shard_width,
            entries=entries,
        )

    def save(self) -> None:
        """Write dirty shard manifests plus the top-level index, each
        atomically (temp file + rename).  A store with no dirty shard
        writes nothing (the top-level index only changes with a shard);
        a fresh ``init`` writes just the index."""
        if not self._dirty and (self.root / MANIFEST_NAME).exists():
            return
        for sid in sorted(self._dirty):
            rows = self._by_shard.get(sid, {})
            _write_json(
                self.shard_dir(sid) / MANIFEST_NAME,
                {"traces": {fp: e.to_dict() for fp, e in sorted(rows.items())}},
            )
        _write_json(
            self.root / MANIFEST_NAME,
            {
                "version": STORE_VERSION,
                "program": self._program,
                "shard_width": self.shard_width,
                "shards": self.shard_ids,
            },
        )
        self._dirty.clear()

    # -- identity and layout ---------------------------------------------

    @property
    def program(self) -> Optional[str]:
        """The program name every stored trace must come from (pinned at
        init or by the first ingested trace)."""
        return self._program

    def shard_id(self, fingerprint: str) -> str:
        """The shard a fingerprint belongs to (its hex prefix)."""
        if self.shard_width == 0:
            return SINGLE_SHARD_ID
        return fingerprint[: self.shard_width]

    def is_valid_shard_id(self, shard_id: str) -> bool:
        """Whether ``shard_id`` can be produced by this store's width.

        Shard ids of a *different* width (seen mid-``reshard`` crash:
        stale directories or index entries from the other layout) must
        be ignored, never double-counted.  For a sharded store the id
        must be a hex fingerprint prefix of exactly the right length —
        the length check alone would let the width-0 sentinel ``"all"``
        masquerade as a width-3 id."""
        if self.shard_width == 0:
            return shard_id == SINGLE_SHARD_ID
        return len(shard_id) == self.shard_width and all(
            c in "0123456789abcdef" for c in shard_id
        )

    @property
    def shard_ids(self) -> list[str]:
        """Sorted ids of the non-empty shards."""
        return sorted(self._by_shard)

    def _index_shards(self) -> None:
        """Rebuild the per-shard view from ``entries`` (on open, and
        after a reshard changes the width)."""
        self._by_shard = {}
        for fp, entry in self.entries.items():
            self._by_shard.setdefault(self.shard_id(fp), {})[fp] = entry

    def _set_entry(self, entry: TraceEntry) -> None:
        fp = entry.fingerprint
        sid = self.shard_id(fp)
        self.entries[fp] = entry
        self._by_shard.setdefault(sid, {})[fp] = entry
        self._dirty.add(sid)

    def shard_dir(self, shard_id: str) -> Path:
        return self.root / SHARDS_DIR / shard_id

    def shard_matrix_path(self, shard_id: str) -> Path:
        """Where this shard's eval-matrix bitset file lives."""
        return self.shard_dir(shard_id) / MATRIX_NAME

    # perfbench/tracer.py hook target only; goes with the next benchmark change
    def columnar_table(self, shard_id: str) -> None:
        return None

    @property
    def matrix_index_path(self) -> Path:
        """The top-level eval-matrix index (see repro.corpus.matrix)."""
        return self.root / MATRIX_NAME

    def trace_path(self, fingerprint: str) -> Path:
        return (
            self.shard_dir(self.shard_id(fingerprint))
            / TRACES_DIR
            / f"{fingerprint}.json"
        )

    def eval_matrix(self) -> "ShardedEvalMatrix":
        """The persistent predicate-evaluation memo over this store."""
        from .matrix import ShardedEvalMatrix

        return ShardedEvalMatrix(self)

    @property
    def content_digest(self) -> str:
        """Stable digest of the corpus *content*: the sorted trace
        fingerprints.  Two corpora hold the same executions iff their
        digests match, however they were assembled — the key persisted
        artifacts (the frozen predicate suite, memoized intervention
        outcomes) are filed under."""
        return stable_digest(sorted(self.entries))

    # -- the persisted predicate suite ----------------------------------

    @property
    def suite_path(self) -> Path:
        return self.root / SUITE_NAME

    def save_suite(
        self,
        suite,
        signature: Optional[str] = None,
        program: Optional[str] = None,
    ) -> Path:
        """Persist a frozen :class:`~repro.core.extraction.PredicateSuite`
        keyed by the current :attr:`content_digest`, so a later analyze
        over the *same* corpus content skips extractor rediscovery
        entirely.  ``program`` records which live program's safety
        filter shaped the suite (``None`` for an unattached analysis)."""
        payload = {
            "version": SUITE_FILE_VERSION,
            "corpus_digest": self.content_digest,
            "program": program,
            "signature": signature,
            "suite": suite.to_dict(),
        }
        _write_json(self.suite_path, payload, indent=None)
        return self.suite_path

    def load_suite(self, program: Optional[str] = None):
        """The persisted suite, or ``None`` when it cannot stand in for
        rediscovery: a missing, unreadable or non-object file, an
        unknown version, a corpus whose content changed since the suite
        froze (extractor thresholds are calibrated on the whole corpus),
        or a different attached program (the Section 3.3 safety filter
        depends on it)."""
        path = self.suite_path
        if not path.exists():
            return None
        try:
            payload = _read_json(path)
        except CorpusError:
            return None
        if payload.get("version") != SUITE_FILE_VERSION:
            return None
        if payload.get("corpus_digest") != self.content_digest:
            return None
        if payload.get("program") != program:
            return None
        from ..core.extraction import PredicateSuite

        try:
            return PredicateSuite.from_dict(payload["suite"])
        except (KeyError, TypeError, ValueError):
            return None

    # -- ingestion -------------------------------------------------------

    def ingest(
        self, trace, schedule_signature: Optional[str] = None
    ) -> tuple[str, bool]:
        """Add one trace (live or imported); returns ``(fp, added)``.

        Dedup is content-addressed: the fingerprint is the stable digest
        of the serialized trace, so re-ingesting an identical execution
        is a no-op.  ``schedule_signature`` stamps the interleaving
        identity (:meth:`repro.sim.schedule.Schedule.signature`) into
        the manifest row when the producer recorded one.  Call
        :meth:`save` after a batch to persist the manifests.
        """
        payload = trace_to_dict(trace)
        return self.ingest_payload(
            payload, schedule_signature=schedule_signature
        )

    def ingest_payload(
        self, payload: dict, schedule_signature: Optional[str] = None
    ) -> tuple[str, bool]:
        """Add one already-serialized trace payload; returns ``(fp, added)``."""
        fp, added, _ = self._ingest_payload(payload, schedule_signature)
        return fp, added

    def _ingest_payload(
        self, payload: dict, schedule_signature: Optional[str]
    ) -> tuple[str, bool, ImportedTrace]:
        """:meth:`ingest_payload`, also returning the payload as decoded
        for validation, fingerprint set: what :meth:`load` reads back."""
        # Validate eagerly — a malformed payload must fail on ingest, not
        # years later mid-analysis.  Also checks the schema version.
        try:
            trace = trace_from_dict(payload)
        except TraceFormatError as exc:
            raise CorpusError(f"cannot ingest: {exc}") from exc
        if self._program is None:
            self._program = trace.program_name
        elif trace.program_name != self._program:
            raise CorpusError(
                f"trace is from program {trace.program_name!r}, but this "
                f"corpus holds {self._program!r}"
            )
        fp = stable_digest(payload)
        trace.fingerprint = fp
        existing = self.entries.get(fp)
        if existing is not None:
            if schedule_signature is not None and existing.schedule is None:
                # Enrich a duplicate with the provenance it lacked.
                self._set_entry(
                    dataclasses.replace(existing, schedule=schedule_signature)
                )
            return fp, False, trace
        path = self.trace_path(fp)
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(json.dumps(payload, sort_keys=True))
        self._set_entry(
            TraceEntry(
                fingerprint=fp,
                label="fail" if trace.failed else "pass",
                seed=trace.seed,
                signature=(
                    trace.failure.signature
                    if trace.failure is not None
                    else None
                ),
                schedule=schedule_signature,
            )
        )
        return fp, True, trace

    def evict(self, fingerprint: str) -> bool:
        """Drop one trace from the manifest and delete its body.

        Returns whether anything was evicted.  The eval matrix keeps the
        trace's memoized column until ``repro corpus compact`` reclaims
        it (see :meth:`~repro.corpus.matrix.ShardedEvalMatrix.compact`).
        """
        entry = self.entries.pop(fingerprint, None)
        if entry is None:
            return False
        self.trace_path(fingerprint).unlink(missing_ok=True)
        sid = self.shard_id(fingerprint)
        rows = self._by_shard[sid]
        del rows[fingerprint]
        if not rows:
            del self._by_shard[sid]
        self._dirty.add(sid)
        return True

    # -- retrieval -------------------------------------------------------

    def load(self, fingerprint: str) -> ImportedTrace:
        entry = self.entries.get(fingerprint)
        if entry is None:
            raise CorpusError(f"no trace {fingerprint!r} in this corpus")
        path = self.trace_path(fingerprint)
        if not path.exists():
            raise CorpusError(f"manifest lists {fingerprint} but {path} is gone")
        try:
            return trace_from_dict(_read_json(path), fingerprint=fingerprint)
        except TraceFormatError as exc:
            raise CorpusError(f"{path}: {exc}") from exc

    def traces(self, label: Optional[str] = None) -> Iterator[ImportedTrace]:
        """All stored traces (optionally one label), fingerprint order."""
        for fp, entry in sorted(self.entries.items()):
            if label is None or entry.label == label:
                yield self.load(fp)

    def labeled_corpus(self) -> LabeledCorpus:
        """The stored traces as a :class:`LabeledCorpus` (every loaded
        trace carries its ``fingerprint``)."""
        corpus = LabeledCorpus()
        for trace in self.traces():
            (corpus.failures if trace.failed else corpus.successes).append(trace)
        return corpus

    # -- resharding ------------------------------------------------------

    def reshard(self, width: int) -> dict:
        """Rewrite the corpus under a new shard width, in place.

        Built on :func:`~repro.corpus.matrix.merge_matrices` /
        :func:`~repro.corpus.matrix.split_matrix`, so **every memoized
        (predicate, trace) pair survives** — the first post-reshard
        analyze performs zero fresh evaluations (asserted in tests).

        Sequence (old layout stays readable until the commit point):
        trace bodies are *copied* into their new shards, new shard
        manifests and matrix files are written, then the top-level
        manifest commits the new width, and finally the old shard
        directories are removed.  Shard ids of the wrong width are
        ignored everywhere (directories here, index entries in
        :meth:`~repro.corpus.matrix.ShardedEvalMatrix.persisted_shard_ids`),
        so a crash on either side of the commit leaves a consistent
        view; re-running reshard — even with the already-committed
        width — finishes the cleanup.

        Returns a stats dict: ``n_traces``, ``shards_before``,
        ``shards_after``, ``pairs_preserved``.
        """
        from .matrix import MATRIX_INDEX_VERSION, merge_matrices, split_matrix

        if not 0 <= width <= 4:
            raise CorpusError(
                f"shard width must be between 0 and 4, got {width}"
            )
        old_width = self.shard_width
        old_sids = self.shard_ids
        if width == old_width:
            # Still sweep stale other-width directories: a crash after
            # the previous reshard's commit point but before its cleanup
            # leaves them behind, and the documented recovery is to
            # re-run reshard with the (now current) width.
            self._drop_stale_shard_dirs()
            return {
                "n_traces": len(self.entries),
                "shards_before": len(old_sids),
                "shards_after": len(old_sids),
                "pairs_preserved": 0,
            }

        def new_shard_id(fp: str) -> str:
            return fp[:width] if width else SINGLE_SHARD_ID

        # 1. Fold every persisted shard matrix into one, then split it
        #    along the new layout (pair-preserving by construction).
        matrix = self.eval_matrix()
        merged = merge_matrices(
            matrix.shard(sid) for sid in matrix.persisted_shard_ids()
        )
        new_matrices = split_matrix(merged, new_shard_id)

        # 2. Copy trace bodies into their new shards (old bodies stay
        #    until the commit point).
        by_new_shard: dict[str, dict[str, TraceEntry]] = {}
        for fp, entry in self.entries.items():
            by_new_shard.setdefault(new_shard_id(fp), {})[fp] = entry
            src = self.trace_path(fp)
            dst = (
                self.root / SHARDS_DIR / new_shard_id(fp)
                / TRACES_DIR / f"{fp}.json"
            )
            if src == dst or dst.exists():
                continue
            if not src.exists():
                raise CorpusError(
                    f"cannot reshard {self.root}: manifest lists {fp} "
                    f"but {src} is gone"
                )
            dst.parent.mkdir(parents=True, exist_ok=True)
            dst.write_bytes(src.read_bytes())

        # 3. New shard manifests and matrix files, plus the matrix index.
        for sid, rows in by_new_shard.items():
            _write_json(
                self.root / SHARDS_DIR / sid / MANIFEST_NAME,
                {"traces": {fp: e.to_dict() for fp, e in sorted(rows.items())}},
            )
        matrix_sids = []
        for sid, shard_matrix in sorted(new_matrices.items()):
            shard_matrix.save(self.root / SHARDS_DIR / sid / MATRIX_NAME)
            matrix_sids.append(sid)
        _write_json(
            self.matrix_index_path,
            {"version": MATRIX_INDEX_VERSION, "shards": matrix_sids},
            indent=None,
        )

        # 4. Commit: the top-level manifest now names the new layout.
        self.shard_width = width
        self._index_shards()
        self._dirty.clear()
        _write_json(
            self.root / MANIFEST_NAME,
            {
                "version": STORE_VERSION,
                "program": self._program,
                "shard_width": width,
                "shards": sorted(by_new_shard),
            },
        )

        # 5. Cleanup: old and new shard ids never collide (different
        #    widths name different-shaped directories), so every
        #    directory outside the new layout is stale.  Shards that
        #    hold only matrix columns (evicted traces awaiting compact)
        #    are part of the new layout too.
        self._drop_stale_shard_dirs()

        return {
            "n_traces": len(self.entries),
            "shards_before": len(old_sids),
            "shards_after": len(by_new_shard),
            "pairs_preserved": merged.n_pairs,
        }

    def _drop_stale_shard_dirs(self) -> None:
        """Remove shard directories whose id cannot belong to the
        current width — leftovers of an interrupted :meth:`reshard`."""
        import shutil

        shards_root = self.root / SHARDS_DIR
        if not shards_root.is_dir():
            return
        for path in shards_root.iterdir():
            if path.is_dir() and not self.is_valid_shard_id(path.name):
                shutil.rmtree(path, ignore_errors=True)

    def drop_legacy_files(self) -> None:
        """Delete every legacy per-shard sidecar (:data:`LEGACY_SHARD_FILES`)."""
        for name in LEGACY_SHARD_FILES:
            for path in (self.root / SHARDS_DIR).glob(f"*/{name}"):
                path.unlink()

    # -- bookkeeping -----------------------------------------------------

    @property
    def n_pass(self) -> int:
        return sum(1 for e in self.entries.values() if not e.failed)

    @property
    def n_fail(self) -> int:
        return sum(1 for e in self.entries.values() if e.failed)

    def __len__(self) -> int:
        return len(self.entries)

    def __contains__(self, fingerprint: str) -> bool:
        return fingerprint in self.entries

    def shard_entries(self, shard_id: str) -> dict[str, TraceEntry]:
        """Manifest rows belonging to one shard."""
        return dict(self._by_shard.get(shard_id, {}))

    def signature_counts(self) -> dict[str, int]:
        counts: dict[str, int] = {}
        for e in self.entries.values():
            if e.signature is not None:
                counts[e.signature] = counts.get(e.signature, 0) + 1
        return counts

    def dominant_failure_signature(self) -> Optional[str]:
        counts = self.signature_counts()
        if not counts:
            return None
        return max(sorted(counts), key=lambda s: counts[s])

    def schedule_counts(self) -> dict[str, int]:
        """Distinct recorded schedule signatures per label — the
        fuzzing-progress number: how many *interleavings* (not merely
        traces) each label has accumulated.  Traces ingested without
        schedule provenance do not count."""
        schedules: dict[str, set[str]] = {"pass": set(), "fail": set()}
        for e in self.entries.values():
            if e.schedule is not None:
                schedules[e.label].add(e.schedule)
        return {label: len(sigs) for label, sigs in schedules.items()}

    def schedule_counts_by_signature(self) -> dict[str, int]:
        """Distinct recorded schedules per failure signature — schedule
        diversity within each debugged bug."""
        schedules: dict[str, set[str]] = {}
        for e in self.entries.values():
            if e.signature is not None and e.schedule is not None:
                schedules.setdefault(e.signature, set()).add(e.schedule)
        return {sig: len(s) for sig, s in schedules.items()}

    def stats_dict(self) -> dict:
        """The ``repro corpus stats --json`` payload: a versioned,
        machine-readable snapshot of corpus and eval-matrix health —
        what a service health check polls instead of screen-scraping
        the text stats (mirrors the report-schema pattern: a ``schema``
        field, sorted keys, pure function of the stored state)."""
        matrix = self.eval_matrix()
        return {
            "schema": STATS_SCHEMA_VERSION,
            "dir": str(self.root),
            "program": self.program,
            "traces": {
                "total": len(self),
                "pass": self.n_pass,
                "fail": self.n_fail,
            },
            "shards": {
                "width": self.shard_width,
                "populated": len(self.shard_ids),
            },
            "signatures": dict(sorted(self.signature_counts().items())),
            "schedules": {
                **self.schedule_counts(),
                "by_signature": dict(
                    sorted(self.schedule_counts_by_signature().items())
                ),
            },
            "matrix": {
                "predicates": matrix.n_pids,
                "traces": matrix.n_traces,
                "pairs": matrix.n_pairs,
                "coverage": round(matrix.coverage(), 6),
            },
        }


def _migrate_v2(root: Path, manifest: dict) -> dict:
    """Migrate a v2 (sharded) corpus to v3.

    v3 keeps the v2 layout byte-for-byte, so migration is just the
    manifest version bump; the atomic manifest write is the commit
    point and re-running is a no-op.
    """
    migrated = dict(manifest)
    migrated["version"] = STORE_VERSION
    _write_json(root / MANIFEST_NAME, migrated)
    return migrated


def _migrate_v1(root: Path, manifest: dict) -> dict:
    """Migrate a v1 (flat) corpus directory to the sharded layout
    (landing directly on the current store version).

    Idempotent and crash-tolerant: trace bodies are renamed one by one
    (skipping ones already in place), shard manifests and matrix files
    are written before the top-level manifest, and the versioned
    top-level manifest write is the commit point — until then a
    re-``open`` sees version 1 and resumes the migration.
    """
    width = DEFAULT_SHARD_WIDTH
    rows = manifest.get("traces", {})
    by_shard: dict[str, dict[str, dict]] = {}
    for fp, row in rows.items():
        sid = fp[:width] if width else SINGLE_SHARD_ID
        by_shard.setdefault(sid, {})[fp] = row
        src = root / TRACES_DIR / f"{fp}.json"
        dst = root / SHARDS_DIR / sid / TRACES_DIR / f"{fp}.json"
        if src.exists():
            dst.parent.mkdir(parents=True, exist_ok=True)
            src.replace(dst)
        elif not dst.exists():
            raise CorpusError(
                f"cannot migrate {root}: manifest lists {fp} but "
                f"{src} is gone"
            )
    for sid, shard_rows in by_shard.items():
        _write_json(
            root / SHARDS_DIR / sid / MANIFEST_NAME,
            {"traces": dict(sorted(shard_rows.items()))},
        )

    # Split the single v1 eval matrix into per-shard bitset files,
    # preserving every memoized pair (zero re-evaluations afterwards).
    matrix_path = root / MATRIX_NAME
    if matrix_path.exists():
        from .matrix import migrate_matrix_v1

        migrate_matrix_v1(
            matrix_path,
            shard_id=lambda fp: fp[:width] if width else SINGLE_SHARD_ID,
            shard_path=lambda sid: root / SHARDS_DIR / sid / MATRIX_NAME,
        )

    migrated = {
        "version": STORE_VERSION,
        "program": manifest.get("program"),
        "shard_width": width,
        "shards": sorted(by_shard),
    }
    _write_json(root / MANIFEST_NAME, migrated)

    # Best-effort cleanup of the now-empty v1 trace directory.
    old_traces = root / TRACES_DIR
    if old_traces.is_dir() and not any(old_traces.iterdir()):
        old_traces.rmdir()
    return migrated
