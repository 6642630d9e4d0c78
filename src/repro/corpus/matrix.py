"""The predicates × traces evaluation matrix — bitset-backed, sharded,
and persisted.

Role
----
Predicate evaluation is the corpus pipeline's hot loop: every analysis
needs ``suite.evaluate(trace)`` for every stored trace, and extractors
re-propose largely the same predicates run after run.  The matrix
guarantees each (predicate, trace) pair is evaluated **at most once
corpus-wide**:

* columns are traces (keyed by content fingerprint), rows are predicate
  *definitions*: one row per (pid, definition digest) pair, numbered in
  one corpus-wide, append-only :class:`RowTable`;
* per row, two Python-int bitsets over the columns — ``evaluated`` (the
  pair has been decided) and ``observed`` (the predicate held) — give
  O(1) memo checks and popcount-cheap precision/recall counting;
* observation windows (what the AC-DAG anchors on) are kept per column,
  by row, only for observed pairs.

Invariants
----------
* a (predicate, trace) pair is evaluated at most once corpus-wide: a
  decided pair is always answered from the bitsets;
* pids do not encode every predicate parameter (a ``slow[...]``
  threshold moves as the corpus grows), so a row is keyed by the
  predicate's full
  :meth:`~repro.core.predicates.PredicateDef.definition_digest` too: a
  predicate whose definition drifted gets a new row (evaluated afresh),
  and its old row is dead in every shard until ``compact`` drops it;
* the digests of a suite are computed once per suite, by the row table
  every shard shares;
* the shard holding a pair is a pure function of the trace fingerprint
  (the store's ``shard_id``), so shards are disjoint and their SD
  counters sum to the whole corpus's;
* a shard whose every (pid, trace) pair is already decided is answered
  from popcounts alone: no trace is loaded and no per-trace log is
  assembled; in any other shard only the traces with an undecided pair
  are loaded;
* the AC-DAG's anchor columns are read straight from the stored windows
  (:meth:`ShardedEvalMatrix.anchor_columns`), with no per-trace log;
* reads never write: every mutator sets the matrix's ``dirty`` flag,
  and :meth:`ShardedEvalMatrix.save` skips clean shards, and rewrites
  the index only when its rows or its shard list changed, so a warm
  analysis leaves the corpus untouched.

Persistence format (format 2)
-----------------------------
The index ``DIR/evalmatrix.json`` (version 3) holds the row table and
the shards that hold a matrix file::

    {"version": 3, "epoch": 0, "rows": [[pid, digest], ...],
     "shards": [sid, ...]}

Each shard's ``shards/<sid>/evalmatrix.json`` (format 2) is positional:
rows are named by their index in ``rows``::

    {"version": 2, "epoch": 0,
     "traces": [fp, ...], "labels": [0 | 1, ...],
     "evaluated": "<hex>" | ["<hex>", ...],
     "observed": ["<hex>", ...],
     "windows": [[row, start, end, start_lamport, end_lamport, ...], ...]}

``evaluated`` is one mask when every row the file covers has the same
one (a fully decided shard), else one mask per row; ``observed`` has one
mask per row the file covers; ``windows`` has one flat list per column,
five ints per observed pair (a Lamport stamp may be null), rows
ascending.  Every value rule (masks are hex and fit the columns, every
observed pair has exactly one window, windows have ``start <= end``) is
checked once, when the file is decoded (:class:`_ShardFile`).

Rows are appended, never rewritten, except by ``compact``, which drops
dead rows, renumbers the rest and bumps ``epoch``.  A shard file of
another epoch names rows by an old numbering (a compaction was cut
short), so it is read as empty and re-evaluated, never misread.  A save
writes the index first whenever its rows grew, so a shard file never
names a row the index lacks.  An index of version 2 or a shard file of
format 1 is an error with a hint: :func:`repro.corpus.store.upgrade` is
the one reader of older layouts.
"""

from __future__ import annotations

import functools
import os
from dataclasses import dataclass, field
from functools import reduce
from itertools import chain, islice, repeat
from operator import and_, invert, le, lt
from pathlib import Path
from typing import Callable, Iterable, Literal, Mapping, Optional, Sequence

from ..core.evalkernel import popcount_split
from ..core.extraction import PredicateSuite
from ..core.predicates import Observation
from ..core.statistical import PredicateLog, StatisticalDebugger
from .files import (
    CorpusError,
    CorpusUpgradeError,
    _decode_file,
    _read_json,
    _write_json,
)

MATRIX_FORMAT = 2
MATRIX_INDEX_VERSION = 3
_HEX_DIGITS = "0123456789abcdef"
_INT_OR_NONE = frozenset({int, type(None)})
#: a checked window's fields as an Observation, without re-checking
_observation = functools.partial(tuple.__new__, Observation)


def _outdated(
    path: Path, what: str, version: object, current: int
) -> CorpusError:
    """The error for a matrix file that is not at the current version:
    an older one names the upgrade command (a shard file sits at
    ``DIR/shards/<sid>/evalmatrix.json``, the index at ``DIR/``)."""
    if type(version) is int and 0 < version < current:
        root = path.parent if what == "index" else path.parents[2]
        return CorpusUpgradeError(
            f"{path} holds eval-matrix {what} version {version}: run "
            f"`repro corpus upgrade {root}`"
        )
    return CorpusError(
        f"unsupported eval-matrix {what} version {version!r} in {path}"
    )


@dataclass(frozen=True)
class _MatrixIndex:
    """The top-level ``evalmatrix.json``: the row table and the shards
    holding a matrix file."""

    version: Literal[3]
    epoch: int
    rows: list[tuple[str, str]]
    shards: list[str]

    def __post_init__(self) -> None:
        if self.epoch < 0:
            raise ValueError(f"epoch {self.epoch} is negative")
        if len(set(self.rows)) != len(self.rows):
            raise ValueError("rows: a (pid, digest) pair is listed twice")

    @classmethod
    def of(cls, rows: "RowTable", shard_ids: Iterable[str]) -> "_MatrixIndex":
        """The index of ``rows`` and the shards ``shard_ids``."""
        return cls(
            MATRIX_INDEX_VERSION, rows.epoch, list(rows.rows), sorted(shard_ids)
        )


class RowTable:
    """The corpus-wide predicate rows: one per (pid, definition digest)
    pair, numbered in order of first use, shared by every shard."""

    def __init__(
        self, rows: Iterable[tuple[str, str]] = (), epoch: int = 0
    ) -> None:
        self.rows: list[tuple[str, str]] = list(rows)
        #: bumped by every renumbering (see :meth:`keep`)
        self.epoch = epoch
        self._number = {pair: i for i, pair in enumerate(self.rows)}
        #: (suite, {pid: row}) for the last suite asked about
        self._suite: Optional[tuple] = None

    def __len__(self) -> int:
        return len(self.rows)

    def row(self, pid: str, digest: str) -> int:
        """The row of one predicate definition, appended if new."""
        number = self._number.get((pid, digest))
        if number is None:
            number = len(self.rows)
            self.rows.append((pid, digest))
            self._number[(pid, digest)] = number
        return number

    def suite_rows(self, suite: PredicateSuite) -> dict[str, int]:
        """``{pid: row}`` for a frozen suite, in suite order.  Computing a
        definition digest per (pid, trace) pair, or per shard, would
        dominate warm evaluation, so each suite's are computed once."""
        cached = self._suite
        if cached is None or cached[0] is not suite:
            cached = (
                suite,
                {
                    pid: self.row(pid, pred.definition_digest())
                    for pid, pred in suite.defs.items()
                },
            )
            self._suite = cached
        return cached[1]

    def keep(self, live: Sequence[int]) -> dict[int, int]:
        """Keep only the rows ``live`` (ascending), renumbered in that
        order, and start a new epoch; returns ``{old: new}``."""
        renumber = {old: new for new, old in enumerate(live)}
        self.rows = [self.rows[old] for old in live]
        self._number = {pair: i for i, pair in enumerate(self.rows)}
        self._suite = None
        self.epoch += 1
        return renumber


def write_matrix_index(
    path: Path, rows: RowTable, shard_ids: Iterable[str]
) -> None:
    """Write the top-level eval-matrix index: ``rows`` and the shards
    listed in ``shard_ids``."""
    _write_json(path, _MatrixIndex.of(rows, shard_ids), indent=None)


def _masks(value: object, name: str) -> list[int]:
    """A JSON list of hex masks as ints."""
    if type(value) is not list or set(map(type, value)) - {str}:
        raise ValueError(f"{name}: expected a list of hex masks")
    if not all(value) or "".join(value).strip(_HEX_DIGITS):
        raise ValueError(f"{name}: a mask is not lowercase hex")
    return [int(mask, 16) for mask in value]


def _windows(
    columns: object, n_rows: int
) -> tuple[list[dict[int, Observation]], list[int]]:
    """A shard's flat window lists, checked, as one ``{row: Observation}``
    per column, and per row the mask of the columns holding one of its
    windows.  The checks run over all columns at once: this is most of
    what reading a warm corpus costs."""
    if type(columns) is not list or set(map(type, columns)) - {list}:
        raise ValueError("windows: expected a list of flat window lists")
    sizes = []
    for col, flat in enumerate(columns):
        if len(flat) % 5:
            raise ValueError(
                f"windows[{col}]: {len(flat)} values, not 5 per window"
            )
        sizes.append(len(flat) // 5)
    flat = list(chain.from_iterable(columns))
    if set(map(type, flat)) - _INT_OR_NONE:
        raise ValueError("windows: a value is not an int")
    rows, starts, ends = flat[0::5], flat[1::5], flat[2::5]
    if None in rows or None in starts or None in ends:
        raise ValueError("windows: a row, start or end is null")
    if rows and not (0 <= min(rows) and max(rows) < n_rows):
        raise ValueError(
            f"windows: a row is outside the {n_rows} rows the file covers"
        )
    if not all(map(le, starts, ends)):
        raise ValueError("windows: a window ends before it starts")
    observations = list(
        map(_observation, zip(starts, ends, flat[3::5], flat[4::5]))
    )
    parsed, seen, at = [], [0] * n_rows, 0
    for col, size in enumerate(sizes):
        col_rows = rows[at : at + size]
        if not all(map(lt, col_rows, islice(col_rows, 1, None))):
            raise ValueError(f"windows[{col}]: rows are not strictly ascending")
        bit = 1 << col
        for row in col_rows:
            seen[row] |= bit
        parsed.append(dict(zip(col_rows, observations[at : at + size])))
        at += size
    return parsed, seen


@dataclass(frozen=True)
class _ShardFile:
    """A shard's ``evalmatrix.json`` (format 2); see the module
    docstring.  Decoding checks every value rule and keeps the parsed
    masks and windows in :attr:`parts`."""

    version: Literal[2]
    epoch: int
    traces: list[str]
    labels: list[Literal[0, 1]]
    #: one hex mask every row shares, or one per row
    evaluated: object
    #: one hex mask per row
    observed: object
    #: per column, a flat ``[row, start, end, start_lamport,
    #: end_lamport, ...]`` int list
    windows: object
    #: (evaluated, observed, windows): the masks by row and the
    #: ``{row: Observation}`` of each column
    parts: tuple = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        n_cols = len(self.traces)
        if self.epoch < 0:
            raise ValueError(f"epoch {self.epoch} is negative")
        if len(set(self.traces)) != n_cols:
            raise ValueError("traces: a fingerprint is listed twice")
        if len(self.labels) != n_cols:
            raise ValueError(
                f"labels: {len(self.labels)} labels for {n_cols} traces"
            )
        observed = _masks(self.observed, "observed")
        n_rows = len(observed)
        if type(self.evaluated) is str:
            evaluated = _masks([self.evaluated], "evaluated") * n_rows
        else:
            evaluated = _masks(self.evaluated, "evaluated")
            if len(evaluated) != n_rows:
                raise ValueError(
                    f"evaluated: {len(evaluated)} masks for {n_rows} rows"
                )
        if evaluated and max(evaluated) >> n_cols:
            raise ValueError(f"evaluated: a bit beyond the {n_cols} columns")
        if any(map(and_, observed, map(invert, evaluated))):
            raise ValueError("observed: a pair is not evaluated")
        windows, seen = _windows(self.windows, n_rows)
        if len(windows) != n_cols:
            raise ValueError(
                f"windows: {len(windows)} columns for {n_cols} traces"
            )
        if seen != observed:
            row = next(r for r in range(n_rows) if seen[r] != observed[r])
            raise ValueError(
                f"windows: row {row}'s windows do not match observed[{row}] "
                "(one window per observed pair)"
            )
        object.__setattr__(self, "parts", (evaluated, observed, windows))

    @classmethod
    def of(cls, matrix: "EvalMatrix") -> "_ShardFile":
        """What ``matrix`` persists: rows up to the last one holding a
        decided pair."""
        n_rows = max(matrix.evaluated, default=-1) + 1
        evaluated = [
            format(matrix.evaluated.get(row, 0), "x") for row in range(n_rows)
        ]
        return cls(
            MATRIX_FORMAT,
            matrix.rows.epoch,
            list(matrix.traces),
            [1 if failed else 0 for failed in matrix.labels],
            evaluated[0] if len(set(evaluated)) == 1 else evaluated,
            [format(matrix.observed.get(row, 0), "x") for row in range(n_rows)],
            [
                list(chain.from_iterable((row, *w[row]) for row in sorted(w)))
                for w in matrix.windows
            ],
        )


class EvalMatrix:
    """Memoized boolean matrix of predicate evaluations over a shard's
    traces; its rows are numbered by ``rows``, the corpus's
    :class:`RowTable` (a matrix of its own by default)."""

    def __init__(
        self,
        path: Optional[str | os.PathLike] = None,
        rows: Optional[RowTable] = None,
    ) -> None:
        self.path = None if path is None else Path(path)
        self.rows = rows if rows is not None else RowTable()
        #: column order: trace fingerprints
        self.traces: list[str] = []
        self._column: dict[str, int] = {}
        #: aligned with ``traces``: did that execution fail?
        self.labels: list[bool] = []
        #: row -> bitset over columns (bit set = pair decided); rows
        #: without a decided pair are absent
        self.evaluated: dict[int, int] = {}
        #: row -> bitset over columns (bit set = predicate observed)
        self.observed: dict[int, int] = {}
        #: aligned with ``traces``: {row: window} of each observed pair
        self.windows: list[dict[int, Observation]] = []
        #: fresh predicate evaluations / memo hits, this instance
        self.pair_evaluations = 0
        self.pair_hits = 0
        #: single-pass kernel batches the fresh pairs rode in on —
        #: ``pair_evaluations / kernel_calls`` is the mean batch size
        self.kernel_calls = 0
        #: cached failed-column mask, invalidated on column allocation
        self._failed_mask: Optional[int] = None
        #: set by every mutation since the last load or save; a clean
        #: matrix is never rewritten
        self.dirty = False
        if self.path is not None and self.path.exists():
            self.load(self.path)

    # -- columns ---------------------------------------------------------

    def column(self, fingerprint: str, failed: bool) -> int:
        """Index of the trace's column, allocating it if new.  An
        existing column must carry the same label."""
        idx = self._column.get(fingerprint)
        if idx is None:
            idx = len(self.traces)
            self.traces.append(fingerprint)
            self.labels.append(bool(failed))
            self.windows.append({})
            self._column[fingerprint] = idx
            self._failed_mask = None
            self.dirty = True
        else:
            self._check_label(idx, failed)
        return idx

    def _check_label(self, idx: int, failed: bool) -> None:
        """A column whose label disagrees with the trace's (the
        manifest's) would silently skew every SD count: refuse it."""
        if self.labels[idx] != bool(failed):
            where = self.path if self.path is not None else "eval matrix"
            raise CorpusError(
                f"{where}: trace {self.traces[idx]} is labeled "
                f"{'failed' if self.labels[idx] else 'passed'} in the "
                f"matrix but {'failed' if failed else 'passed'} in the "
                "manifest"
            )

    @property
    def failed_mask(self) -> int:
        mask = self._failed_mask
        if mask is None:
            mask = 0
            for idx, failed in enumerate(self.labels):
                if failed:
                    mask |= 1 << idx
            self._failed_mask = mask
        return mask

    # -- the memoized evaluation loop ------------------------------------

    def log_for(self, suite: PredicateSuite, trace) -> PredicateLog:
        """Evaluate the suite on one trace, through the memo.

        The trace must carry the ``fingerprint`` that
        :meth:`~repro.corpus.store.TraceStore.ingest` (or ``load``)
        stamps on it.  Pairs already decided are answered from the
        bitsets; only new pairs call ``PredicateDef.evaluate``.
        """
        fp = trace.fingerprint
        if fp is None:
            raise ValueError(
                "trace has no fingerprint; corpus evaluation is memoized "
                "by content address"
            )
        col = self.column(fp, trace.failed)
        mask = 1 << col
        windows = self.windows[col]
        suite_rows = self.rows.suite_rows(suite)
        observations: dict[str, Observation] = {}
        undecided: list[str] = []
        for pid, row in suite_rows.items():
            if self.evaluated.get(row, 0) & mask:
                self.pair_hits += 1
                if row in windows:
                    observations[pid] = windows[row]
            else:
                undecided.append(pid)
        if undecided:
            # One single-pass kernel evaluation covers every undecided
            # pid; results land straight in the bitset columns.
            fresh = suite.kernel().observations(
                trace,
                only=(
                    None
                    if len(undecided) == len(suite.defs)
                    else frozenset(undecided)
                ),
            )
            self.pair_evaluations += len(undecided)
            self.kernel_calls += 1
            self.dirty = True
            for pid in undecided:
                row = suite_rows[pid]
                self.evaluated[row] = self.evaluated.get(row, 0) | mask
                obs = fresh.get(pid)
                if obs is not None:
                    self.observed[row] = self.observed.get(row, 0) | mask
                    windows[row] = obs
                    observations[pid] = obs
            if len(undecided) < len(suite.defs):
                # Memo hits and fresh results interleave; restore the
                # suite's definition order (the per-predicate loop's).
                observations = {
                    pid: observations[pid]
                    for pid in suite.defs
                    if pid in observations
                }
        return PredicateLog(
            observations=observations,
            failed=trace.failed,
            seed=trace.seed,
            failure_signature=(
                trace.failure.signature if trace.failure is not None else None
            ),
        )

    # perfbench/tracer.py hook target only; goes with the next benchmark change
    def log_for_table(self, *args, **kwargs) -> None:
        raise NotImplementedError

    def evaluate_group(
        self,
        suite: PredicateSuite,
        entries: Sequence[tuple[str, bool]],
        load_trace: Callable[[str], object],
    ) -> None:
        """Decide every (suite pid, trace) pair of one shard's trace
        group, loading only the traces that still have an undecided pair.

        ``entries`` are ``(fingerprint, failed)`` pairs with distinct
        fingerprints; ``load_trace(fp)`` returns the trace.  Fully
        decided traces count as memo hits.  Bitsets and counters equal
        calling :meth:`log_for` on every entry in order.
        """
        group_mask = 0
        for fp, failed in entries:
            group_mask |= 1 << self.column(fp, failed)
        # a column is undecided where some suite row's mask lacks it
        rows = self.rows.suite_rows(suite).values()
        decided = reduce(
            and_, map(self.evaluated.get, rows, repeat(0)), group_mask
        )
        undecided = group_mask & ~decided
        for fp, _ in entries:
            if undecided >> self._column[fp] & 1:
                self.log_for(suite, load_trace(fp))
            else:
                self.pair_hits += len(suite.defs)

    def reconstruct_log(
        self,
        suite: PredicateSuite,
        fingerprint: str,
        failed: bool,
        seed: int,
        signature: Optional[str],
    ) -> PredicateLog:
        """The log :meth:`log_for` would return for a fully-decided
        trace, rebuilt from the stored windows without touching the
        trace or the hit/evaluation counters."""
        col = self._column.get(fingerprint)
        if col is None:
            raise ValueError(f"trace {fingerprint!r} has no matrix column")
        windows = self.windows[col]
        observations = {
            pid: windows[row]
            for pid, row in self.rows.suite_rows(suite).items()
            if row in windows
        }
        return PredicateLog(
            observations=observations,
            failed=failed,
            seed=seed,
            failure_signature=signature,
        )

    # -- compaction ------------------------------------------------------

    def compact(
        self,
        keep_fingerprints: Iterable[str],
        renumber: Mapping[int, int],
    ) -> int:
        """Keep the rows ``renumber`` maps (to their new numbers) and the
        columns whose fingerprint is in ``keep_fingerprints`` (traces
        still in the manifest); returns how many columns were dropped.
        Always marks the matrix dirty: compaction is an explicit
        rewrite."""
        self.dirty = True
        keep = set(keep_fingerprints)
        kept = [col for col, fp in enumerate(self.traces) if fp in keep]
        packed_cols = {old: new for new, old in enumerate(kept)}

        def pack(bits: int) -> int:
            packed = 0
            for old, new in packed_cols.items():
                if bits >> old & 1:
                    packed |= 1 << new
            return packed

        for name in ("evaluated", "observed"):
            bitsets = {
                renumber[row]: pack(bits)
                for row, bits in getattr(self, name).items()
                if row in renumber
            }
            setattr(self, name, {r: b for r, b in bitsets.items() if b})
        dropped = len(self.traces) - len(kept)
        self.traces = [self.traces[col] for col in kept]
        self.labels = [self.labels[col] for col in kept]
        self.windows = [
            {
                renumber[row]: obs
                for row, obs in self.windows[col].items()
                if row in renumber
            }
            for col in kept
        ]
        self._column = {fp: i for i, fp in enumerate(self.traces)}
        self._failed_mask = None
        return dropped

    # -- bitset analytics ------------------------------------------------

    def sd_counters(
        self,
        suite: PredicateSuite,
        fingerprints: Sequence[str],
        into: Optional[StatisticalDebugger] = None,
    ) -> StatisticalDebugger:
        """SD counters over a (distinct-fingerprint) column subset, by
        popcount — what a :class:`StatisticalDebugger` fed those
        traces' logs one by one would hold, derived straight from the
        bitsets, and added to ``into`` (a fresh debugger by default),
        which is returned.  Every fingerprint must already be fully
        decided for ``suite`` (i.e. have gone through :meth:`log_for`)."""
        mask = 0
        for fp in fingerprints:
            mask |= 1 << self._column[fp]
        fmask = self.failed_mask & mask
        n_failed = fmask.bit_count()
        counters = into if into is not None else StatisticalDebugger()
        counters.n_failed += n_failed
        counters.n_success += len(fingerprints) - n_failed
        counts = counters.counts
        suite_rows = self.rows.suite_rows(suite)
        held = map(
            and_,
            map(self.observed.get, suite_rows.values(), repeat(0)),
            repeat(mask),
        )
        for pid, bits in zip(suite_rows, held):
            if bits:
                in_failed, in_success = popcount_split(bits, fmask)
                summed = counts.get(pid)
                if summed is None:
                    counts[pid] = [in_failed, in_success]
                else:
                    summed[0] += in_failed
                    summed[1] += in_success
        return counters

    @property
    def n_pairs(self) -> int:
        """How many (predicate definition, trace) pairs are memoized."""
        return sum(bits.bit_count() for bits in self.evaluated.values())

    @property
    def n_pids(self) -> int:
        """Rows holding a decided pair: a predicate whose definition
        drifted counts once per definition until ``compact``."""
        return len(self.evaluated)

    def coverage(self) -> float:
        """Fraction of the full matrix already decided."""
        total = len(self.traces) * len(self.evaluated)
        return self.n_pairs / total if total else 0.0

    # -- persistence -----------------------------------------------------

    def save(self, path: Optional[str | os.PathLike] = None) -> Path:
        """Write the shard file (format 2); see the module docstring."""
        path = Path(path) if path is not None else self.path
        if path is None:
            raise ValueError("EvalMatrix has no path to save to")
        _write_json(path, _ShardFile.of(self), indent=None)
        self.dirty = False
        return path

    def load(self, path: str | os.PathLike) -> None:
        """Read a shard file; a malformed one (wrong version, missing
        key, a value rule broken) is a :class:`CorpusError` naming it.
        A file of another epoch than the row table's is read as empty:
        its row numbers are not this table's."""
        path = Path(path)
        payload = _read_json(path)
        version = payload.get("version")
        if version != MATRIX_FORMAT:
            raise _outdated(path, "format", version, MATRIX_FORMAT)
        stored = _decode_file(_ShardFile, path, payload)
        if stored.epoch != self.rows.epoch:
            return
        if len(stored.parts[1]) > len(self.rows):
            raise CorpusError(
                f"{path} covers {len(stored.parts[1])} predicate rows but "
                f"the index lists {len(self.rows)}"
            )
        self.adopt(stored)

    def adopt(self, stored: _ShardFile) -> None:
        """Take a decoded shard file's columns, bitsets and windows."""
        evaluated, observed, windows = stored.parts
        self.traces = stored.traces
        self.labels = [bool(label) for label in stored.labels]
        self._column = {fp: i for i, fp in enumerate(self.traces)}
        self._failed_mask = None
        self.evaluated = {row: bits for row, bits in enumerate(evaluated) if bits}
        self.observed = {row: bits for row, bits in enumerate(observed) if bits}
        self.windows = windows
        self.dirty = False


@dataclass(frozen=True)
class CompactionStats:
    """What ``compact`` reclaimed, summed over shards."""

    dropped_rows: int
    dropped_columns: int
    bytes_before: int
    bytes_after: int

    @property
    def bytes_reclaimed(self) -> int:
        return self.bytes_before - self.bytes_after


class ShardedEvalMatrix:
    """The corpus-wide evaluation memo: one :class:`EvalMatrix` per shard,
    all numbering their rows by one :class:`RowTable`.

    Routing is by trace fingerprint — the shard holding a pair is
    ``store.shard_id(fingerprint)`` — so every memo lookup touches
    exactly one shard file.  The index (``DIR/evalmatrix.json``) is read
    on first use; shard matrices load lazily; ``save`` writes each dirty
    shard next to its traces, after the index when that changed.
    ``store`` is the :class:`~repro.corpus.store.TraceStore` it memoizes
    over.
    """

    def __init__(self, store) -> None:
        self.store = store
        self._shards: dict[str, EvalMatrix] = {}
        self._rows: Optional[RowTable] = None
        #: (epoch, row count, shard ids) as the index on disk holds them
        #: (no index file holds none)
        self._indexed: tuple = (0, 0, ())

    @property
    def rows(self) -> RowTable:
        """The corpus's row table, read from the index on first use."""
        if self._rows is None:
            self._read_index()
        return self._rows

    def _read_index(self) -> None:
        path = self.store.matrix_index_path
        if not path.exists():
            self._rows = RowTable()
            return
        payload = _read_json(path)
        version = payload.get("version")
        if version != MATRIX_INDEX_VERSION:
            raise _outdated(path, "index", version, MATRIX_INDEX_VERSION)
        index = _decode_file(_MatrixIndex, path, payload)
        self._rows = RowTable(index.rows, index.epoch)
        self._indexed = (index.epoch, len(index.rows), tuple(index.shards))

    # -- routing ---------------------------------------------------------

    def shard(self, shard_id: str) -> EvalMatrix:
        """The per-shard matrix, loading its file on first touch."""
        matrix = self._shards.get(shard_id)
        if matrix is None:
            matrix = EvalMatrix(
                self.store.shard_matrix_path(shard_id), rows=self.rows
            )
            self._shards[shard_id] = matrix
        return matrix

    def shard_for(self, fingerprint: str) -> EvalMatrix:
        return self.shard(self.store.shard_id(fingerprint))

    def load_all(self) -> None:
        """Load every shard matrix the index (or the store) knows of."""
        for sid in self.persisted_shard_ids():
            self.shard(sid)

    def persisted_shard_ids(self) -> list[str]:
        """Shards with a matrix file on disk: those the index lists,
        plus any populated shard it does not list that has one.

        Index entries whose shard id does not fit the store's current
        width are skipped: they are leftovers of an interrupted
        ``reshard`` (the other layout's ids), and counting both layouts
        would double every memoized pair."""
        if self._rows is None:
            self._read_index()
        sids = set(filter(self.store.is_valid_shard_id, self._indexed[2]))
        for sid in self.store.shard_ids:
            if sid not in sids and self.store.shard_matrix_path(sid).exists():
                sids.add(sid)
        return sorted(sids)

    # -- the memoized evaluation loop ------------------------------------

    def log_for(self, suite: PredicateSuite, trace) -> PredicateLog:
        """Evaluate the suite on one trace, through its shard's memo;
        the trace carries the ``fingerprint`` that ``ingest`` stamps."""
        fp = trace.fingerprint
        if fp is None:
            raise ValueError(
                "trace has no fingerprint; corpus evaluation is memoized "
                "by content address"
            )
        return self.shard_for(fp).log_for(suite, trace)

    def evaluate_shards(
        self, suite: PredicateSuite, traces: Sequence
    ) -> StatisticalDebugger:
        """Evaluate the suite over many traces, shard by shard, and
        return their SD counters.

        Shards are walked in sorted order and each shard's popcount
        counters are summed into one
        :class:`~repro.core.statistical.StatisticalDebugger`.  No
        per-trace log is built: the matrix carries the same information,
        and :meth:`reconstruct_log` rebuilds any log from it without a
        trace load.  Within a shard only the traces with an undecided
        pair are loaded and evaluated (:meth:`EvalMatrix.evaluate_group`),
        so a shard whose every pair is already decided loads no trace
        and builds no per-trace log.
        """
        by_fp: dict = {}
        entries = []
        for trace in traces:
            fp = trace.fingerprint
            if fp is None:
                raise ValueError(
                    "trace has no fingerprint; corpus evaluation is "
                    "memoized by content address"
                )
            by_fp[fp] = trace
            entries.append((fp, trace.failed))
        return self._evaluate(suite, entries, by_fp.__getitem__)

    def evaluate_fingerprints(
        self, suite: PredicateSuite, fingerprints: Sequence[str]
    ) -> StatisticalDebugger:
        """Like :meth:`evaluate_shards`, but traces are named by
        fingerprint and *loaded from the store* as needed.  This is the
        path a pre-frozen suite takes (no global discovery pass needs
        the trace bodies).  Only traces with an undecided pair are
        loaded."""
        stored = self.store.entries
        entries = [(fp, stored[fp].failed) for fp in fingerprints]
        return self._evaluate(suite, entries, self.store.load)

    def _evaluate(
        self,
        suite: PredicateSuite,
        entries: Sequence[tuple[str, bool]],
        load_trace: Callable[[str], object],
    ) -> StatisticalDebugger:
        groups: dict[str, list[tuple[str, bool]]] = {}
        for entry in entries:
            groups.setdefault(self.store.shard_id(entry[0]), []).append(entry)
        counters = StatisticalDebugger()
        for sid in sorted(groups):
            group = groups[sid]
            matrix = self.shard(sid)
            matrix.evaluate_group(suite, group, load_trace)
            # SD counters by popcount over the group's decided columns
            # instead of a per-log observation walk.
            matrix.sd_counters(suite, [fp for fp, _ in group], into=counters)
        return counters

    def reconstruct_log(
        self,
        suite: PredicateSuite,
        fingerprint: str,
        failed: bool,
        seed: int,
        signature: Optional[str],
    ) -> PredicateLog:
        """Rebuild the :class:`PredicateLog` of a decided trace straight
        from the stored windows — no trace load, no evaluation, no
        counter churn.  Only valid once every (suite pid, trace) pair is
        decided (i.e. after the trace went through :meth:`log_for`)."""
        return self.shard_for(fingerprint).reconstruct_log(
            suite, fingerprint, failed, seed, signature
        )

    def anchor_columns(
        self,
        suite: PredicateSuite,
        fingerprints: Sequence[str],
        pids: Sequence[str],
    ) -> dict[str, list[Optional[Observation]]]:
        """The AC-DAG's anchor columns of ``pids`` over the (decided)
        traces ``fingerprints``, in that order: each pid's stored window
        on each trace, ``None`` where it was not observed.  Read straight
        from the windows; no per-trace log is assembled."""
        suite_rows = self.rows.suite_rows(suite)
        rows = [suite_rows[pid] for pid in pids]
        # one row of windows per trace, then transposed into columns
        table = []
        for fp in fingerprints:
            shard = self.shard_for(fp)
            table.append(list(map(shard.windows[shard._column[fp]].get, rows)))
        columns = zip(*table) if table else [()] * len(pids)
        return {pid: list(column) for pid, column in zip(pids, columns)}

    # -- aggregate analytics ---------------------------------------------

    @property
    def pair_evaluations(self) -> int:
        """Fresh evaluations performed through this instance."""
        return sum(m.pair_evaluations for m in self._shards.values())

    @property
    def pair_hits(self) -> int:
        """Memo hits answered through this instance."""
        return sum(m.pair_hits for m in self._shards.values())

    @property
    def kernel_calls(self) -> int:
        """Single-pass kernel batches behind the fresh evaluations."""
        return sum(m.kernel_calls for m in self._shards.values())

    @property
    def n_pairs(self) -> int:
        self.load_all()
        return sum(m.n_pairs for m in self._shards.values())

    @property
    def n_pids(self) -> int:
        """Rows holding a decided pair in some shard (see
        :attr:`EvalMatrix.n_pids`)."""
        self.load_all()
        rows: set[int] = set()
        for m in self._shards.values():
            rows.update(m.evaluated)
        return len(rows)

    @property
    def n_traces(self) -> int:
        self.load_all()
        return sum(len(m.traces) for m in self._shards.values())

    def coverage(self) -> float:
        """Fraction of the full (rows × traces) matrix already decided."""
        total = self.n_traces * self.n_pids
        return self.n_pairs / total if total else 0.0

    # -- persistence -----------------------------------------------------

    def save(self) -> None:
        """Write every dirty shard matrix, after the index when its rows
        or shard list changed (so a shard file never names a row the
        index lacks).  A dirty shard whose every column was reclaimed
        loses its file and its index entry — evicted traces must not
        resurrect.  With no dirty shard and no new row nothing is
        written at all."""
        rows = self.rows
        dirty = {
            sid: matrix
            for sid, matrix in self._shards.items()
            if matrix.dirty
        }
        if not dirty and (rows.epoch, len(rows)) == self._indexed[:2]:
            return
        listed = set(self.persisted_shard_ids())
        for sid, matrix in dirty.items():
            if matrix.traces:
                listed.add(sid)
            else:
                listed.discard(sid)
        state = (rows.epoch, len(rows), tuple(sorted(listed)))
        if state != self._indexed:
            write_matrix_index(self.store.matrix_index_path, rows, listed)
            self._indexed = state
        for sid, matrix in sorted(dirty.items()):
            if matrix.traces:
                matrix.save()
            else:
                self.store.shard_matrix_path(sid).unlink(missing_ok=True)

    # -- compaction ------------------------------------------------------

    def compact(self, keep_digests: Mapping[str, str]) -> CompactionStats:
        """Reclaim shadowed rows and evicted columns.

        ``keep_digests`` maps each live pid to its current definition
        digest (from the frozen suite): every other row is dead, and is
        dropped from the row table, which renumbers the rest (a new
        epoch).  Live columns are the store's manifest entries.  Every
        shard file is rewritten, after the index; returns byte-level
        before/after totals.
        """
        self.load_all()
        rows = self.rows
        live = [
            row
            for row, (pid, digest) in enumerate(rows.rows)
            if keep_digests.get(pid) == digest
        ]
        dropped_rows = len(rows) - len(live)
        renumber = rows.keep(live) if dropped_rows else {r: r for r in live}
        cols = before = after = 0
        for sid in sorted(self._shards):
            path = self.store.shard_matrix_path(sid)
            if path.exists():
                before += path.stat().st_size
            cols += self._shards[sid].compact(
                self.store.shard_entries(sid), renumber
            )
        self.save()
        for sid in sorted(self._shards):
            path = self.store.shard_matrix_path(sid)
            if path.exists():
                after += path.stat().st_size
        return CompactionStats(
            dropped_rows=dropped_rows,
            dropped_columns=cols,
            bytes_before=before,
            bytes_after=after,
        )


# -- resharding helpers --------------------------------------------------


def split_matrix(
    matrix: EvalMatrix, shard_id: Callable[[str], str]
) -> dict[str, EvalMatrix]:
    """Split one matrix into per-shard matrices over the same row table,
    preserving every memoized pair (columns keep their relative
    order)."""
    shards: dict[str, EvalMatrix] = {}
    columns: list[tuple[EvalMatrix, int]] = []
    for idx, fp in enumerate(matrix.traces):
        shard = shards.setdefault(shard_id(fp), EvalMatrix(rows=matrix.rows))
        col = shard.column(fp, matrix.labels[idx])
        shard.windows[col] = dict(matrix.windows[idx])
        columns.append((shard, col))
    for name in ("evaluated", "observed"):
        for row, bits in getattr(matrix, name).items():
            for idx, (shard, col) in enumerate(columns):
                if bits >> idx & 1:
                    bitsets = getattr(shard, name)
                    bitsets[row] = bitsets.get(row, 0) | 1 << col
    return shards


def merge_matrices(matrices: Iterable[EvalMatrix]) -> EvalMatrix:
    """The inverse of :func:`split_matrix`: fold per-shard matrices over
    one row table into one (columns concatenated in the given order)."""
    matrices = list(matrices)
    merged = EvalMatrix(rows=matrices[0].rows if matrices else None)
    for matrix in matrices:
        offset = [
            merged.column(fp, failed)
            for fp, failed in zip(matrix.traces, matrix.labels)
        ]
        for name in ("evaluated", "observed"):
            merged_bits = getattr(merged, name)
            for row, bits in getattr(matrix, name).items():
                packed = merged_bits.get(row, 0)
                for idx, col in enumerate(offset):
                    if bits >> idx & 1:
                        packed |= 1 << col
                merged_bits[row] = packed
        for idx, col in enumerate(offset):
            merged.windows[col] = dict(matrix.windows[idx])
    return merged
