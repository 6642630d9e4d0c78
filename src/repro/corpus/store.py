"""The content-addressed, on-disk trace store — sharded by fingerprint.

Role
----
The paper's offline phase (Appendix A) assumes a corpus of labeled
execution logs collected once and re-analyzed many times.  This module
is that corpus made durable: each trace is stored as its canonical
bytes (:func:`repro.sim.serialize.encode_trace`) under their digest,
its content fingerprint, so ingesting the same execution twice stores
it once, and manifests record labels, seeds, and failure signatures so
analyses can plan without touching trace bodies.

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
                                    repro.corpus.matrix, version 3: the
                                    predicate row table + the shards
                                    holding matrix files)
      shards/<sid>/
        manifest.json               label/seed/signature per fingerprint
        traces/<fp>.json            one trace each: the canonical bytes
                                    whose digest is <fp>
        evalmatrix.json             this shard's predicate-evaluation
                                    memo (format 2: positional bitsets
                                    and windows over the index's rows)

Older v3 stores may also hold a per-shard ``columnar.bin`` (a derived
trace table earlier builds wrote on analyze) or its ``columnar.bin.tmp``.
Nothing reads them; ``repro corpus upgrade`` deletes them.

``shard_width`` is the number of hex characters of the fingerprint used
as the shard id (default 2 → up to 256 shards); width 0 disables
sharding (a single ``shards/all/`` bucket).  The width is fixed at
``init`` and recorded in the top-level manifest.

Invariants
----------
* a fingerprint appears in at most one shard, and always in the shard
  its prefix names;
* every body this store writes is exactly the bytes its fingerprint
  hashes, and ``load`` checks that (bodies older builds wrote with
  sorted keys and spaces pass when their canonical re-encoding does);
* the top-level manifest's shard list equals the set of non-empty
  shards, so ``open`` never scans the filesystem;
* ``save`` rewrites only shards dirtied since the last save (plus the
  top-level manifest, when any shard was), each atomically (temp file
  + rename) — so a read-only session never writes.

Upgrading
---------
:meth:`TraceStore.open` reads only :data:`STORE_VERSION` and never
writes; a version-1 or version-2 corpus is refused with a hint to run
``repro corpus upgrade DIR``; so is a version-2 eval-matrix index or a
format-1 matrix file, when read.  :func:`upgrade` is the one reader of
older layouts (see its docstring): a format change adds its old-format
reader there, never to ``open``.
"""

from __future__ import annotations

import dataclasses
import os
import shutil
from dataclasses import dataclass
from pathlib import Path
from typing import Iterator, Literal, Optional

from ..core.extraction import _SuitePayload
from ..sim.serialize import (
    DIGEST_CHARS,
    ImportedTrace,
    TraceFormatError,
    bytes_digest,
    encode_trace,
    stable_digest,
    trace_from_dict,
)
from .files import (
    CorpusError,
    CorpusUpgradeError,
    _decode_file,
    _read_json,
    _write_json,
)
from .matrix import (
    MATRIX_FORMAT,
    MATRIX_INDEX_VERSION,
    EvalMatrix,
    RowTable,
    ShardedEvalMatrix,
    _MatrixIndex,
    _ShardFile,
    merge_matrices,
    split_matrix,
    write_matrix_index,
)

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
HEX_DIGITS = "0123456789abcdef"
#: per-shard sidecars older v3 builds wrote (a derived trace table and
#: its temp file): ignored on read, deleted by :func:`upgrade`
LEGACY_SHARD_FILES = ("columnar.bin", "columnar.bin.tmp")


@dataclass(frozen=True)
class TraceEntry:
    """Manifest row: everything known about one stored trace (its
    fingerprint is the row's key)."""

    label: Literal["pass", "fail"]
    seed: int
    signature: Optional[str]  # failure signature, None for passes
    #: schedule (interleaving) signature when the producer recorded one
    #: (the exploration driver stamps it); ``None`` for plain ingests
    schedule: Optional[str] = None

    @property
    def failed(self) -> bool:
        return self.label == "fail"


@dataclass(frozen=True)
class _ShardManifest:
    """A shard's ``manifest.json``: its rows by fingerprint."""

    traces: dict[str, TraceEntry]

    def __post_init__(self) -> None:
        # every body path is built from the key
        for fp in self.traces:
            if len(fp) != DIGEST_CHARS or fp.strip(HEX_DIGITS):
                raise ValueError(
                    f"row {fp!r}: key is not a fingerprint "
                    f"({DIGEST_CHARS} lowercase hex characters)"
                )


@dataclass(frozen=True)
class _Manifest:
    """The top-level ``manifest.json``."""

    version: int
    program: Optional[str]
    shard_width: int
    shards: list[str]

    def __post_init__(self) -> None:
        if not 0 <= self.shard_width <= 4:  # as init enforces
            raise ValueError(f"shard_width {self.shard_width} is not in 0..4")


@dataclass(frozen=True)
class _SuiteFile:
    """``suite.json``: the frozen suite and what it was frozen over."""

    version: Literal[SUITE_FILE_VERSION]
    corpus_digest: str
    program: Optional[str]
    signature: Optional[str]
    suite: _SuitePayload


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
        """Read a corpus at :data:`STORE_VERSION`; writes nothing."""
        root = Path(root)
        manifest = _read_manifest(root)
        version = manifest["version"]
        if version != STORE_VERSION:
            raise CorpusUpgradeError(
                f"{root} holds a version {version} corpus: run "
                f"`repro corpus upgrade {root}`"
            )
        return cls._read_shards(
            root, _decode_file(_Manifest, root / MANIFEST_NAME, manifest)
        )

    @classmethod
    def _read_shards(cls, root: Path, top: _Manifest) -> "TraceStore":
        """The store ``top`` describes, each listed shard id checked
        against the width and each shard manifest read; writes
        nothing."""
        store = cls(root, program=top.program, shard_width=top.shard_width)
        for sid in top.shards:
            if not store.is_valid_shard_id(sid):
                raise CorpusError(
                    f"{root / MANIFEST_NAME} is malformed: shards: {sid!r} "
                    f"does not fit shard_width {top.shard_width}"
                )
            path = store.shard_dir(sid) / MANIFEST_NAME
            if not path.exists():
                raise CorpusError(
                    f"top-level manifest lists shard {sid!r} but "
                    f"{path} is gone"
                )
            store.entries.update(_read_json(path, tp=_ShardManifest).traces)
        store._index_shards()
        return store

    def save(self) -> None:
        """Write dirty shard manifests plus the top-level index, each
        atomically (temp file + rename).  A store with no dirty shard
        writes nothing (the top-level index only changes with a shard);
        a fresh ``init`` writes just the index."""
        if self._dirty or not (self.root / MANIFEST_NAME).exists():
            self._write()

    def _write(self) -> None:
        """Write the dirty shard manifests, then the top-level one: the
        commit point of every save, reshard and upgrade."""
        for sid in sorted(self._dirty):
            rows = _ShardManifest(self._by_shard.get(sid, {}))
            _write_json(self.shard_dir(sid) / MANIFEST_NAME, rows)
        top = _Manifest(
            STORE_VERSION, self._program, self.shard_width, self.shard_ids
        )
        _write_json(self.root / MANIFEST_NAME, top)
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
            c in HEX_DIGITS for c in shard_id
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

    def _set_entry(self, fp: str, entry: TraceEntry) -> None:
        sid = self.shard_id(fp)
        self.entries[fp] = entry
        self._by_shard.setdefault(sid, {})[fp] = entry
        self._dirty.add(sid)

    def shard_dir(self, shard_id: str) -> Path:
        return self.root.joinpath(SHARDS_DIR, shard_id)

    def shard_matrix_path(self, shard_id: str) -> Path:
        """Where this shard's eval-matrix file lives."""
        return self.root.joinpath(SHARDS_DIR, shard_id, MATRIX_NAME)

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

    def eval_matrix(self) -> ShardedEvalMatrix:
        """The persistent predicate-evaluation memo over this store."""
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
        payload = _SuiteFile(
            SUITE_FILE_VERSION,
            self.content_digest,
            program,
            signature,
            _SuitePayload.of(suite),
        )
        _write_json(self.suite_path, payload, indent=None)
        return self.suite_path

    def load_suite(self, program: Optional[str] = None):
        """The persisted suite, or ``None`` when it cannot stand in for
        rediscovery: a missing, unreadable or non-object file, an
        unknown version, a corpus whose content changed since the suite
        froze (extractor thresholds are calibrated on the whole corpus),
        a different attached program (the Section 3.3 safety filter
        depends on it), or a predicate that does not decode, such as
        one with a malformed method key."""
        try:
            stored = _read_json(self.suite_path, tp=_SuiteFile)
        except (CorpusError, OSError):
            return None
        if (stored.corpus_digest, stored.program) != (
            self.content_digest, program
        ):
            return None
        return stored.suite.to_suite()

    # -- ingestion -------------------------------------------------------

    def ingest(
        self, trace, schedule_signature: Optional[str] = None
    ) -> tuple[str, bool]:
        """The one ingest path: store one trace (live or imported) as its
        canonical bytes under their fingerprint; returns ``(fp, added)``.

        The trace is encoded once and never decoded.  Dedup is
        content-addressed, so re-ingesting an identical execution is a
        no-op.  ``schedule_signature`` stamps the interleaving identity
        (:meth:`repro.sim.schedule.Schedule.signature`) into the
        manifest row when the producer recorded one, also on a duplicate
        whose row lacked it.  The trace comes back with ``fingerprint``
        set.  Call :meth:`save` after a batch to persist the manifests.
        """
        if self._program is None:
            self._program = trace.program_name
        elif trace.program_name != self._program:
            raise CorpusError(
                f"trace is from program {trace.program_name!r}, but this "
                f"corpus holds {self._program!r}"
            )
        body, fp = encode_trace(trace)
        existing = self.entries.get(fp)
        if existing is None:
            path = self.trace_path(fp)
            path.parent.mkdir(parents=True, exist_ok=True)
            path.write_bytes(body)
            self._set_entry(
                fp,
                TraceEntry(
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
        elif schedule_signature is not None and existing.schedule is None:
            # Enrich a duplicate with the provenance it lacked.
            self._set_entry(
                fp, dataclasses.replace(existing, schedule=schedule_signature)
            )
        trace.fingerprint = fp
        return fp, existing is None

    def ingest_payload(
        self, payload: dict, schedule_signature: Optional[str] = None
    ) -> tuple[str, bool]:
        """The door for a trace from outside the program: decode (and so
        validate) ``payload``, then :meth:`ingest` the decoded trace.
        Payloads that decode alike (say, one with an extra key) are one
        entry.  Returns ``(fp, added)``."""
        try:
            trace = trace_from_dict(payload)
        except TraceFormatError as exc:
            raise CorpusError(f"cannot ingest: {exc}") from exc
        return self.ingest(trace, schedule_signature)

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
        body = path.read_bytes()
        payload = _read_json(path, body)
        try:
            trace = trace_from_dict(payload, fingerprint=fingerprint)
        except TraceFormatError as exc:
            raise CorpusError(f"{path}: {exc}") from exc
        # A body older builds wrote (sorted keys, spaces) hashes to its
        # name only once canonically re-encoded.
        if (
            bytes_digest(body) != fingerprint
            and stable_digest(payload) != fingerprint
        ):
            raise CorpusError(f"{path} does not hash to its fingerprint")
        return trace

    def traces(self, label: Optional[str] = None) -> Iterator[ImportedTrace]:
        """All stored traces (optionally one label), fingerprint order."""
        for fp, entry in sorted(self.entries.items()):
            if label is None or entry.label == label:
                yield self.load(fp)

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
        for fp in self.entries:
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

        # 3. New matrix files, plus the matrix index (same rows).
        for sid, shard_matrix in sorted(new_matrices.items()):
            shard_matrix.save(self.root / SHARDS_DIR / sid / MATRIX_NAME)
        write_matrix_index(self.matrix_index_path, matrix.rows, new_matrices)

        # 4. New shard manifests, then the commit: the top-level
        #    manifest now names the new layout.
        self.shard_width = width
        self._index_shards()
        self._dirty = set(self.shard_ids)
        self._write()

        # 5. Cleanup: old and new shard ids never collide (different
        #    widths name different-shaped directories), so every
        #    directory outside the new layout is stale.  Shards that
        #    hold only matrix columns (evicted traces awaiting compact)
        #    are part of the new layout too.
        self._drop_stale_shard_dirs()

        return {
            "n_traces": len(self.entries),
            "shards_before": len(old_sids),
            "shards_after": len(self.shard_ids),
            "pairs_preserved": merged.n_pairs,
        }

    def _drop_stale_shard_dirs(self) -> None:
        """Remove shard directories whose id cannot belong to the
        current width — leftovers of an interrupted :meth:`reshard`."""
        shards_root = self.root / SHARDS_DIR
        if not shards_root.is_dir():
            return
        for path in shards_root.iterdir():
            if path.is_dir() and not self.is_valid_shard_id(path.name):
                shutil.rmtree(path, ignore_errors=True)

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


def _read_manifest(root: Path) -> dict:
    """The top-level manifest, refusing a version no code here reads."""
    path = root / MANIFEST_NAME
    if not path.exists():
        raise CorpusError(f"{root} is not a corpus (no {MANIFEST_NAME})")
    manifest = _read_json(path)
    version = manifest.get("version")
    # 1 and 2 only upgrade() reads; a bool or float is no version at all
    if type(version) is not int or version not in (1, 2, STORE_VERSION):
        raise CorpusError(f"unsupported corpus version {version!r} in {path}")
    return manifest


def upgrade(root: str | os.PathLike) -> tuple[int, int, int]:
    """Rewrite the corpus at ``root`` to :data:`STORE_VERSION` and its
    eval matrix to format 2 in place (``repro corpus upgrade DIR``), the
    only code that reads an older layout; returns the store version
    found, the eval-matrix files written in format 2 and the sidecars
    deleted.

    A v1 corpus (a flat ``traces/``, one manifest, one single-file eval
    matrix) is checked whole before anything moves, then its bodies move
    into their shards and its manifest splits.  A v2 corpus is the v3
    layout under an older number: it is checked as :meth:`TraceStore.open`
    checks a v3 one (manifest, shard ids, shard manifests) before its
    manifest is rewritten.  The top-level manifest write is the
    commit point of the store.  Then every eval-matrix file older than
    format 2 is converted, keeping every memoized pair (see
    :func:`_matrix_writes`); every old matrix file is read and checked
    before the first write.  Running ``upgrade`` again finishes an
    interrupted upgrade; a current corpus without
    :data:`LEGACY_SHARD_FILES` is not written at all.
    """
    root = Path(root)
    manifest = _read_manifest(root)
    version = manifest["version"]
    if version == 1:
        rows = _decode_file(
            _ShardManifest, root / MANIFEST_NAME, {"traces": manifest.get("traces")}
        ).traces
        store = TraceStore(root, manifest.get("program"), entries=rows)
        moves = [
            (root / TRACES_DIR / f"{fp}.json", store.trace_path(fp))
            for fp in sorted(rows)
        ]
        for src, dst in moves:
            if not src.exists() and not dst.exists():
                raise CorpusError(
                    f"cannot upgrade {root}: manifest lists {src.stem} "
                    f"but {src} is gone"
                )
        matrix_writes = _matrix_writes(store)
        for src, dst in moves:
            if src.exists():
                dst.parent.mkdir(parents=True, exist_ok=True)
                src.replace(dst)
        store._dirty = set(store.shard_ids)
        store._write()
        old_traces = root / TRACES_DIR
        if old_traces.is_dir() and not any(old_traces.iterdir()):
            old_traces.rmdir()
    elif version == 2:
        top = _decode_file(_Manifest, root / MANIFEST_NAME, manifest)
        store = TraceStore._read_shards(root, top)
        matrix_writes = _matrix_writes(store)
        current = dataclasses.replace(top, version=STORE_VERSION)
        _write_json(root / MANIFEST_NAME, current)
    else:
        store = TraceStore.open(root)
        matrix_writes = _matrix_writes(store)
    for path, value in matrix_writes:
        _write_json(path, value, indent=None)
    shards_dir = root / SHARDS_DIR
    sidecars = [p for n in LEGACY_SHARD_FILES for p in shards_dir.glob(f"*/{n}")]
    for path in sidecars:
        path.unlink()
    return version, len(matrix_writes), len(sidecars)


@dataclass(frozen=True)
class _MatrixV1:
    """An eval-matrix file of format 1: a v1 corpus's single matrix, or
    a shard file older builds wrote.  Rows are keyed by pid, each with
    its definition digest; windows by trace, then pid."""

    version: Literal[1]
    traces: list[str]
    labels: list[Literal[0, 1]]
    evaluated: dict[str, str]
    observed: dict[str, str]
    digests: dict[str, str]
    observations: dict[str, dict[str, object]]


@dataclass(frozen=True)
class _MatrixIndexV2:
    """The eval-matrix index older builds wrote over format-1 shards."""

    version: Literal[2]
    shards: list[str]


def _matrix_writes(store: TraceStore) -> list[tuple[Path, object]]:
    """The writes that convert ``store``'s eval matrix to format 2, in
    order, every old file read and checked first; none when it is
    current.

    The top-level ``evalmatrix.json`` is a v1 corpus's single matrix
    (version 1), an index over format-1 shard files (version 2), or the
    current index, which may still list format-1 shard files when an
    earlier upgrade was cut short.  A single matrix is split into
    shard files, then the index replaces it: until that write it is what
    a rerun reads.  Otherwise the index comes first, naming every row
    the converted shards use, then the shard files.  Rows new to the
    table are appended file by file (shards in sorted order), each
    file's in pid order."""
    path = store.matrix_index_path
    top = _read_json(path) if path.exists() else None
    version = None if top is None else top.get("version")
    if version == 1:
        rows = RowTable()
        single = _matrix_v1(path, top, rows)
        shards = split_matrix(single, store.shard_id)
        if not all(map(store.is_valid_shard_id, shards)):
            raise CorpusError(
                f"{path} is malformed: a column is not a fingerprint"
            )
        writes: list[tuple[Path, object]] = [
            (store.shard_matrix_path(sid), _ShardFile.of(shard))
            for sid, shard in sorted(shards.items())
        ]
        return writes + [(path, _MatrixIndex.of(rows, shards))]
    if version == MATRIX_INDEX_VERSION:
        index = _decode_file(_MatrixIndex, path, top)
        rows, listed = RowTable(index.rows, index.epoch), index.shards
    elif version == 2:
        rows, listed = RowTable(), _decode_file(_MatrixIndexV2, path, top).shards
    elif top is None:
        rows, listed = RowTable(), []
    else:
        raise CorpusError(
            f"unsupported eval-matrix index version {version!r} in {path}"
        )
    sids = set(filter(store.is_valid_shard_id, listed))
    sids.update(
        sid for sid in store.shard_ids if store.shard_matrix_path(sid).exists()
    )
    old = {}
    for sid in sorted(sids):
        shard_path = store.shard_matrix_path(sid)
        if shard_path.exists():
            payload = _read_json(shard_path)
            if payload.get("version") == 1:
                old[sid] = payload
    if version != 2 and not old:
        return []
    shards = {
        sid: _matrix_v1(store.shard_matrix_path(sid), payload, rows)
        for sid, payload in old.items()
    }
    writes = [(path, _MatrixIndex.of(rows, sids))]
    return writes + [
        (store.shard_matrix_path(sid), _ShardFile.of(shard))
        for sid, shard in sorted(shards.items())
    ]


def _matrix_v1(path: Path, payload: dict, rows: RowTable) -> EvalMatrix:
    """A format-1 matrix file's ``payload`` as a matrix over ``rows``,
    every memoized pair kept; its (pid, digest) pairs not yet in
    ``rows`` are appended in pid order.  The converted file is checked
    as a format-2 file is, so a malformed one (a mask that is not hex
    or does not fit the columns, an observed pair without a valid
    window) is a :class:`CorpusError` naming it."""
    legacy = _decode_file(_MatrixV1, path, payload)
    missing = sorted(set(legacy.evaluated) - set(legacy.digests))
    if missing:
        raise CorpusError(
            f"{path} is malformed: row {missing[0]} has no definition digest"
        )
    row_of = {
        pid: rows.row(pid, legacy.digests[pid])
        for pid in sorted(legacy.evaluated)
    }
    n_rows = max(row_of.values(), default=-1) + 1
    evaluated, observed = ["0"] * n_rows, ["0"] * n_rows
    for pid, row in row_of.items():
        evaluated[row] = legacy.evaluated[pid]
        observed[row] = legacy.observed.get(pid, "0")
    by_row = sorted(row_of.items(), key=lambda item: item[1])
    windows = []
    for fp in legacy.traces:
        stored = legacy.observations.get(fp, {})
        flat = []
        for pid, row in by_row:
            window = stored.get(pid)
            if window is not None:
                # a window that is not a list stays one value, for the
                # check to refuse
                flat.append(row)
                flat.extend(window if type(window) is list else [window])
        windows.append(flat)
    converted = {
        "version": MATRIX_FORMAT,
        "epoch": rows.epoch,
        "traces": legacy.traces,
        "labels": legacy.labels,
        "evaluated": evaluated,
        "observed": observed,
        "windows": windows,
    }
    matrix = EvalMatrix(rows=rows)
    matrix.adopt(_decode_file(_ShardFile, path, converted))
    return matrix
