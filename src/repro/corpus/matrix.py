"""The predicates × traces evaluation matrix — bitset-backed, sharded,
and persisted.

Role
----
Predicate evaluation is the corpus pipeline's hot loop: every analysis
needs ``suite.evaluate(trace)`` for every stored trace, and extractors
re-propose largely the same predicates run after run.  The matrix
guarantees each (predicate, trace) pair is evaluated **at most once
corpus-wide**:

* columns are traces (keyed by content fingerprint), rows are predicates
  (keyed by pid);
* per pid, two Python-int bitsets over the columns — ``evaluated`` (the
  pair has been decided) and ``observed`` (the predicate held) — give
  O(1) memo checks and popcount-cheap precision/recall counting;
* observation windows (what the AC-DAG anchors on) are kept in a side
  table only for observed pairs.

Invariants
----------
* a (predicate, trace) pair is evaluated at most once corpus-wide: a
  decided pair is always answered from the bitsets;
* pids do not encode every predicate parameter (a ``slow[...]``
  threshold moves as the corpus grows), so each row also records the
  predicate's full
  :meth:`~repro.core.predicates.PredicateDef.definition_digest`; a row
  whose definition drifted is dropped and re-evaluated rather than
  served stale;
* the shard holding a pair is a pure function of the trace fingerprint
  (the store's ``shard_id``), so shards are disjoint and their SD
  counters sum to the whole corpus's;
* a shard whose every (pid, trace) pair is already decided is answered
  from popcounts alone: no trace is loaded and no per-trace log is
  assembled; in any other shard only the traces with an undecided pair
  are loaded;
* reads never write: every mutator sets the matrix's ``dirty`` flag,
  and :meth:`ShardedEvalMatrix.save` skips clean shards (and the index
  when no shard changed), so a warm analysis leaves the corpus
  untouched.

Persistence format
------------------
One :class:`EvalMatrix` serializes to a single JSON file (format
version 1): column fingerprints + labels, hex-encoded bitsets per pid,
definition digests, and observation windows.  A corpus keeps **one
such file per shard** (``shards/<sid>/evalmatrix.json``) behind a
:class:`ShardedEvalMatrix`, with a top-level index
(``DIR/evalmatrix.json``, format version 2) listing the shards that
hold bitset files.  An index of any other version is an error:
:func:`repro.corpus.store.upgrade` is the one reader of older layouts.
"""

from __future__ import annotations

import os
from dataclasses import dataclass
from pathlib import Path
from typing import Callable, Iterable, Mapping, Optional, Sequence

from ..core.evalkernel import popcount_split
from ..core.extraction import PredicateSuite
from ..core.predicates import Observation
from ..core.statistical import PredicateLog, StatisticalDebugger
from .files import CorpusError, _read_json, _write_json

MATRIX_VERSION = 1
MATRIX_INDEX_VERSION = 2


@dataclass(frozen=True)
class _MatrixIndex:
    """The top-level ``evalmatrix.json``: the shards holding a bitset
    file."""

    version: int
    shards: list[str]


def _obs_to_list(obs: Observation) -> list:
    return [obs.start, obs.end, obs.start_lamport, obs.end_lamport]


class EvalMatrix:
    """Memoized boolean matrix of predicate evaluations over a corpus."""

    def __init__(self, path: Optional[str | os.PathLike] = None) -> None:
        self.path = Path(path) if path is not None else None
        #: column order: trace fingerprints
        self.traces: list[str] = []
        self._column: dict[str, int] = {}
        #: aligned with ``traces``: did that execution fail?
        self.labels: list[bool] = []
        #: pid -> bitset over columns (bit set = pair decided)
        self.evaluated: dict[str, int] = {}
        #: pid -> bitset over columns (bit set = predicate observed)
        self.observed: dict[str, int] = {}
        #: pid -> definition digest the row was evaluated under
        self.digests: dict[str, str] = {}
        #: fp -> {pid: [start, end, start_lamport, end_lamport]}
        self.observations: dict[str, dict[str, list]] = {}
        #: fresh predicate evaluations / memo hits, this instance
        self.pair_evaluations = 0
        self.pair_hits = 0
        #: single-pass kernel batches the fresh pairs rode in on —
        #: ``pair_evaluations / kernel_calls`` is the mean batch size
        self.kernel_calls = 0
        #: (suite, {pid: digest}) — definition digests are a pure
        #: function of the frozen suite, so computing them per (pid,
        #: trace) pair would dominate warm evaluation
        self._digest_cache: Optional[tuple] = None
        #: cached failed-column mask, invalidated on column allocation
        self._failed_mask: Optional[int] = None
        #: set by every mutation since the last load or save; a clean
        #: matrix is never rewritten
        self.dirty = False
        if self.path is not None and self.path.exists():
            self.load(self.path)

    def _stored_window(
        self, row: Optional[dict], fingerprint: str, pid: str
    ) -> Observation:
        """The window stored for an observed (pid, trace) pair.

        It must be ``[start, end, start_lamport, end_lamport]`` with
        integer ``start <= end`` and each Lamport stamp an integer or
        null (failure predicates carry none).  A missing or malformed
        window is a :class:`CorpusError` naming the matrix file, never a
        wrong anchor or a traceback."""
        raw = row.get(pid) if row is not None else None
        if type(raw) is list and len(raw) == 4:
            start, end, start_lamport, end_lamport = raw
            if (
                type(start) is int
                and type(end) is int
                and start <= end
                and (start_lamport is None or type(start_lamport) is int)
                and (end_lamport is None or type(end_lamport) is int)
            ):
                return Observation(start, end, start_lamport, end_lamport)
        where = self.path if self.path is not None else "eval matrix"
        raise CorpusError(
            f"{where}: observation window of {pid} on trace {fingerprint} "
            f"is {raw!r}, not [start, end, start_lamport, end_lamport] "
            "with integer start <= end"
        )

    def _digests_for(self, suite: PredicateSuite) -> dict[str, str]:
        """Per-suite digest table, computed once (the suite is frozen)."""
        cache = self._digest_cache
        if cache is None or cache[0] is not suite:
            cache = (
                suite,
                {
                    pid: pred.definition_digest()
                    for pid, pred in suite.defs.items()
                },
            )
            self._digest_cache = cache
        return cache[1]

    # -- columns ---------------------------------------------------------

    def column(self, fingerprint: str, failed: bool) -> int:
        """Index of the trace's column, allocating it if new.  An
        existing column must carry the same label."""
        idx = self._column.get(fingerprint)
        if idx is None:
            idx = len(self.traces)
            self.traces.append(fingerprint)
            self.labels.append(bool(failed))
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
        observations: dict[str, Observation] = {}
        row_obs = self.observations.get(fp)
        suite_digests = self._digests_for(suite)
        undecided: list[str] = []
        for pid in suite.defs:
            digest = suite_digests[pid]
            if self.digests.get(pid) != digest:
                # New predicate, or a same-pid predicate whose parameters
                # drifted: invalidate the whole row.
                self._drop_row(pid)
                self.digests[pid] = digest
                undecided.append(pid)
                continue
            if self.evaluated.get(pid, 0) & mask:
                self.pair_hits += 1
                if self.observed.get(pid, 0) & mask:
                    observations[pid] = self._stored_window(row_obs, fp, pid)
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
                self.evaluated[pid] = self.evaluated.get(pid, 0) | mask
                obs = fresh.get(pid)
                if obs is not None:
                    self.observed[pid] = self.observed.get(pid, 0) | mask
                    if row_obs is None:
                        row_obs = self.observations.setdefault(fp, {})
                    row_obs[pid] = _obs_to_list(obs)
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
        suite_digests = self._digests_for(suite)
        for pid in suite.defs:
            if self.digests.get(pid) != suite_digests[pid]:
                # A drifted row is undecided for every trace; dropping it
                # up front is what the first per-trace call would do.
                self._drop_row(pid)
                self.digests[pid] = suite_digests[pid]
        group_mask = 0
        for fp, failed in entries:
            group_mask |= 1 << self.column(fp, failed)
        undecided = 0
        for pid in suite.defs:
            undecided |= group_mask & ~self.evaluated.get(pid, 0)
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
        trace, rebuilt from the bitsets without touching the trace or
        the hit/evaluation counters."""
        col = self._column.get(fingerprint)
        if col is None:
            raise ValueError(f"trace {fingerprint!r} has no matrix column")
        mask = 1 << col
        row = self.observations.get(fingerprint)
        observations = {
            pid: self._stored_window(row, fingerprint, pid)
            for pid in suite.defs
            if self.observed.get(pid, 0) & mask
        }
        return PredicateLog(
            observations=observations,
            failed=failed,
            seed=seed,
            failure_signature=signature,
        )

    def _drop_row(self, pid: str) -> None:
        self.dirty = True
        self.evaluated.pop(pid, None)
        self.observed.pop(pid, None)
        self.digests.pop(pid, None)
        for row in self.observations.values():
            row.pop(pid, None)

    # -- compaction ------------------------------------------------------

    def compact(
        self,
        keep_fingerprints: Iterable[str],
        keep_digests: Mapping[str, str],
    ) -> tuple[int, int]:
        """Reclaim rows and columns the corpus no longer needs.

        Drops every row whose pid is absent from ``keep_digests`` or
        whose recorded definition digest differs (a predicate that
        drifted and is now shadowed by its re-evaluated successor), and
        every column whose fingerprint is not in ``keep_fingerprints``
        (a trace evicted from the manifest).  Returns
        ``(dropped_rows, dropped_columns)``.  Always marks the matrix
        dirty: compaction is an explicit rewrite.
        """
        self.dirty = True
        dead_rows = [
            pid
            for pid in sorted(set(self.evaluated) | set(self.digests))
            if keep_digests.get(pid) != self.digests.get(pid)
        ]
        for pid in dead_rows:
            self._drop_row(pid)
        # Digest entries without a surviving row are dead weight too
        # (split_matrix copies the full digest table to every shard).
        self.digests = {
            pid: digest
            for pid, digest in self.digests.items()
            if pid in self.evaluated
        }

        keep = set(keep_fingerprints)
        dead_cols = [fp for fp in self.traces if fp not in keep]
        if dead_cols:
            kept = [
                (fp, failed)
                for fp, failed in zip(self.traces, self.labels)
                if fp in keep
            ]
            remap = {
                self._column[fp]: new for new, (fp, _) in enumerate(kept)
            }
            for bitsets in (self.evaluated, self.observed):
                for pid, bits in list(bitsets.items()):
                    packed = 0
                    for old, new in remap.items():
                        if bits >> old & 1:
                            packed |= 1 << new
                    bitsets[pid] = packed
            self.traces = [fp for fp, _ in kept]
            self.labels = [failed for _, failed in kept]
            self._column = {fp: i for i, fp in enumerate(self.traces)}
            self._failed_mask = None
            for fp in dead_cols:
                self.observations.pop(fp, None)
        self.observations = {
            fp: row for fp, row in self.observations.items() if row
        }
        return len(dead_rows), len(dead_cols)

    # -- bitset analytics ------------------------------------------------

    def counts(self, pid: str) -> tuple[int, int]:
        """(true_in_failed, true_in_success) for one pid, by popcount."""
        return popcount_split(self.observed.get(pid, 0), self.failed_mask)

    def sd_counters(
        self, suite: PredicateSuite, fingerprints: Sequence[str]
    ) -> StatisticalDebugger:
        """SD counters over a (distinct-fingerprint) column subset, by
        popcount — what a :class:`StatisticalDebugger` fed those
        traces' logs one by one would hold, derived straight from the
        bitsets.  Every fingerprint must already be fully decided for
        ``suite`` (i.e. have gone through :meth:`log_for`)."""
        mask = 0
        for fp in fingerprints:
            mask |= 1 << self._column[fp]
        fmask = self.failed_mask & mask
        n_failed = fmask.bit_count()
        counts: dict[str, list[int]] = {}
        observed = self.observed
        for pid in suite.defs:
            bits = observed.get(pid, 0) & mask
            if bits:
                in_failed, in_success = popcount_split(bits, fmask)
                counts[pid] = [in_failed, in_success]
        return StatisticalDebugger(
            n_failed=n_failed,
            n_success=len(fingerprints) - n_failed,
            counts=counts,
        )

    @property
    def n_pairs(self) -> int:
        """How many (predicate, trace) pairs are memoized."""
        return sum(bits.bit_count() for bits in self.evaluated.values())

    @property
    def n_pids(self) -> int:
        return len(self.evaluated)

    def coverage(self) -> float:
        """Fraction of the full matrix already decided."""
        total = len(self.traces) * len(self.evaluated)
        return self.n_pairs / total if total else 0.0

    # -- persistence -----------------------------------------------------

    def save(self, path: Optional[str | os.PathLike] = None) -> Path:
        path = Path(path) if path is not None else self.path
        if path is None:
            raise ValueError("EvalMatrix has no path to save to")
        payload = {
            "version": MATRIX_VERSION,
            "traces": self.traces,
            "labels": [1 if f else 0 for f in self.labels],
            "evaluated": {
                pid: format(bits, "x")
                for pid, bits in sorted(self.evaluated.items())
            },
            "observed": {
                pid: format(bits, "x")
                for pid, bits in sorted(self.observed.items())
            },
            "digests": dict(sorted(self.digests.items())),
            "observations": {
                fp: dict(sorted(row.items()))
                for fp, row in sorted(self.observations.items())
                if row
            },
        }
        _write_json(path, payload, indent=None)
        self.dirty = False
        return path

    def load(self, path: str | os.PathLike) -> None:
        """Read a persisted matrix; a malformed file (wrong version,
        missing key, non-hex bitset, labels not aligned with traces) is
        a :class:`CorpusError` naming it."""
        payload = _read_json(Path(path))
        version = payload.get("version")
        if version != MATRIX_VERSION:
            raise CorpusError(
                f"unsupported eval-matrix version {version!r} in {path}"
            )
        try:
            traces = list(payload["traces"])
            labels = [bool(v) for v in payload["labels"]]
            evaluated = {
                pid: int(bits, 16)
                for pid, bits in payload["evaluated"].items()
            }
            observed = {
                pid: int(bits, 16)
                for pid, bits in payload["observed"].items()
            }
            digests = dict(payload["digests"])
            observations = {
                fp: dict(row) for fp, row in payload["observations"].items()
            }
        except KeyError as exc:
            raise CorpusError(f"{path} lacks the {exc} key") from exc
        except (AttributeError, TypeError, ValueError) as exc:
            raise CorpusError(f"{path} is malformed: {exc}") from exc
        if len(labels) != len(traces):
            raise CorpusError(
                f"{path} has {len(labels)} labels for {len(traces)} traces"
            )
        # int(..., 16) rejects non-hex text but accepts a sign, and a
        # negative bitset has infinitely many bits set
        if min(evaluated.values(), default=0) < 0 or min(
            observed.values(), default=0
        ) < 0:
            raise CorpusError(f"{path} holds a negative bitset")
        self.traces = traces
        self.labels = labels
        self._column = {fp: i for i, fp in enumerate(traces)}
        self._failed_mask = None
        self.evaluated = evaluated
        self.observed = observed
        self.digests = digests
        self.observations = observations
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
    """The corpus-wide evaluation memo: one :class:`EvalMatrix` per shard.

    Routing is by trace fingerprint — the shard holding a pair is
    ``store.shard_id(fingerprint)`` — so every memo lookup touches
    exactly one shard file.  Shard matrices load lazily; ``save`` writes
    each dirty shard next to its traces plus a top-level index
    (``DIR/evalmatrix.json``, format version 2) naming every shard that
    holds a bitset file.  ``store`` is the
    :class:`~repro.corpus.store.TraceStore` it memoizes over.
    """

    def __init__(self, store) -> None:
        self.store = store
        self._shards: dict[str, EvalMatrix] = {}

    # -- routing ---------------------------------------------------------

    def shard(self, shard_id: str) -> EvalMatrix:
        """The per-shard matrix, loading its file on first touch."""
        matrix = self._shards.get(shard_id)
        if matrix is None:
            matrix = EvalMatrix(self.store.shard_matrix_path(shard_id))
            self._shards[shard_id] = matrix
        return matrix

    def shard_for(self, fingerprint: str) -> EvalMatrix:
        return self.shard(self.store.shard_id(fingerprint))

    def load_all(self) -> None:
        """Load every shard matrix the index (or the store) knows of."""
        for sid in self.persisted_shard_ids():
            self.shard(sid)

    def persisted_shard_ids(self) -> list[str]:
        """Shards with a bitset file on disk, per the top-level index
        (falling back to probing the store's populated shards).

        Index entries whose shard id does not fit the store's current
        width are skipped: they are leftovers of an interrupted
        ``reshard`` (the other layout's ids), and counting both layouts
        would double every memoized pair."""
        index_path = self.store.matrix_index_path
        sids: set[str] = set()
        if index_path.exists():
            index = _read_json(index_path, tp=_MatrixIndex)
            if index.version != MATRIX_INDEX_VERSION:
                raise CorpusError(
                    f"unsupported eval-matrix index version {index.version!r} "
                    f"in {index_path}"
                )
            sids.update(filter(self.store.is_valid_shard_id, index.shards))
        for sid in self.store.shard_ids:
            if self.store.shard_matrix_path(sid).exists():
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
        trace load (it still walks the suite and decodes the stored
        observations, so it is not free).
        Within a shard only the traces with an undecided pair are loaded
        and evaluated (:meth:`EvalMatrix.evaluate_group`), so a shard
        whose every pair is already decided loads no trace and builds
        no per-trace log.
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
            counters.merge(matrix.sd_counters(suite, [fp for fp, _ in group]))
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
        from the bitsets — no trace load, no evaluation, no counter
        churn.  Only valid once every (suite pid, trace) pair is decided
        (i.e. after the trace went through :meth:`log_for`)."""
        return self.shard_for(fingerprint).reconstruct_log(
            suite, fingerprint, failed, seed, signature
        )

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
        self.load_all()
        pids: set[str] = set()
        for m in self._shards.values():
            pids.update(m.evaluated)
        return len(pids)

    @property
    def n_traces(self) -> int:
        self.load_all()
        return sum(len(m.traces) for m in self._shards.values())

    def coverage(self) -> float:
        """Fraction of the full (pids × traces) matrix already decided."""
        total = self.n_traces * self.n_pids
        return self.n_pairs / total if total else 0.0

    def counts(self, pid: str) -> tuple[int, int]:
        """(true_in_failed, true_in_success) summed over all shards."""
        self.load_all()
        in_failed = in_success = 0
        for m in self._shards.values():
            f, s = m.counts(pid)
            in_failed += f
            in_success += s
        return in_failed, in_success

    # -- persistence -----------------------------------------------------

    def save(self) -> None:
        """Write every dirty, non-empty shard matrix plus the top-level
        index (the union of previously-indexed and just-saved shards).
        A dirty shard whose every column was reclaimed loses its file
        and its index entry — evicted traces must not resurrect.  With
        no dirty shard nothing is written at all."""
        dirty = {
            sid: matrix
            for sid, matrix in self._shards.items()
            if matrix.dirty
        }
        if not dirty:
            return
        saved = set(self.persisted_shard_ids())
        for sid, matrix in sorted(dirty.items()):
            if matrix.traces:
                matrix.save()
                saved.add(sid)
            else:
                self.store.shard_matrix_path(sid).unlink(missing_ok=True)
                saved.discard(sid)
        _write_json(
            self.store.matrix_index_path,
            {"version": MATRIX_INDEX_VERSION, "shards": sorted(saved)},
            indent=None,
        )

    # -- compaction ------------------------------------------------------

    def compact(self, keep_digests: Mapping[str, str]) -> CompactionStats:
        """Reclaim shadowed rows and evicted columns, shard by shard.

        ``keep_digests`` maps each live pid to its current definition
        digest (from the frozen suite); live columns are the store's
        manifest entries.  Per-shard files are rewritten in place and
        the index refreshed; returns byte-level before/after totals.
        """
        self.load_all()
        rows = cols = before = after = 0
        for sid in sorted(self._shards):
            matrix = self._shards[sid]
            path = self.store.shard_matrix_path(sid)
            if path.exists():
                before += path.stat().st_size
            r, c = matrix.compact(
                set(self.store.shard_entries(sid)), keep_digests
            )
            rows += r
            cols += c
        self.save()
        for sid in sorted(self._shards):
            path = self.store.shard_matrix_path(sid)
            if path.exists():
                after += path.stat().st_size
        return CompactionStats(
            dropped_rows=rows,
            dropped_columns=cols,
            bytes_before=before,
            bytes_after=after,
        )


# -- resharding helpers --------------------------------------------------


def split_matrix(
    matrix: EvalMatrix, shard_id: Callable[[str], str]
) -> dict[str, EvalMatrix]:
    """Split one matrix into per-shard matrices, preserving every
    memoized pair (columns keep their relative order)."""
    shards: dict[str, EvalMatrix] = {}
    columns: dict[str, tuple[EvalMatrix, int]] = {}
    for idx, fp in enumerate(matrix.traces):
        shard = shards.setdefault(shard_id(fp), EvalMatrix())
        columns[fp] = (shard, shard.column(fp, matrix.labels[idx]))
    for source, target in (("evaluated", "evaluated"), ("observed", "observed")):
        for pid, bits in getattr(matrix, source).items():
            for idx, fp in enumerate(matrix.traces):
                if bits >> idx & 1:
                    shard, col = columns[fp]
                    bitsets = getattr(shard, target)
                    bitsets[pid] = bitsets.get(pid, 0) | 1 << col
    for shard in shards.values():
        shard.digests = dict(matrix.digests)
    for fp, row in matrix.observations.items():
        shard, _ = columns[fp]
        shard.observations[fp] = {pid: list(obs) for pid, obs in row.items()}
    return shards


def merge_matrices(matrices: Iterable[EvalMatrix]) -> EvalMatrix:
    """The inverse of :func:`split_matrix`: fold per-shard matrices into
    one (columns concatenated in the given order)."""
    merged = EvalMatrix()
    for matrix in matrices:
        offset: dict[int, int] = {}
        for idx, fp in enumerate(matrix.traces):
            offset[idx] = merged.column(fp, matrix.labels[idx])
        for source in ("evaluated", "observed"):
            merged_bits = getattr(merged, source)
            for pid, bits in getattr(matrix, source).items():
                packed = merged_bits.get(pid, 0)
                for idx, col in offset.items():
                    if bits >> idx & 1:
                        packed |= 1 << col
                merged_bits[pid] = packed
        merged.digests.update(matrix.digests)
        for fp, row in matrix.observations.items():
            merged.observations[fp] = {
                pid: list(obs) for pid, obs in row.items()
            }
    return merged

