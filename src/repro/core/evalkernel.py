"""The single-pass evaluation kernel: indexed traces in, bitsets out.

Role
----
Everything AID computes reduces to one inner loop — evaluate every
predicate of a frozen suite against every execution trace, then count
discriminative power.  This module is that loop, made single-pass at
every layer:

* :class:`SuiteKernel` — key-grouped batch evaluation of a frozen
  suite over one trace.  The predicates' required method keys are
  collected at kernel-build time (once per frozen suite); per trace the
  kernel resolves each through the trace's
  :meth:`~repro.sim.tracing.ExecutionTrace.executions_by_key` index
  once, skips every predicate whose key the trace lacks, and hands the
  record to the rest through their ``evaluate_record`` hook — no linear
  scans, no re-sorting, no per-predicate trace walks.  Output is
  byte-identical to calling ``pred.evaluate(trace)`` per predicate
  (asserted property-style in the tests).
* :func:`popcount_split` — the corpus
  :class:`~repro.corpus.matrix.EvalMatrix`'s counting primitive:
  per-pid observation bitsets over execution columns plus a
  failed-column mask turn precision/recall counting into two
  ``int.bit_count`` calls.
* :func:`summarize_corpus` — the **propose** half of two-phase
  extractor discovery: one pass over the corpus folds each trace into a
  :class:`CorpusSummary`, collecting every per-trace fact the default
  extractor catalogue needs (exception sites, duration/return
  aggregates, key presence, success-order pairs via a sort-based sweep,
  race candidates, failure signatures).  The **calibrate** half
  (envelope/order-baseline intersection) lives with the extractors in
  :mod:`repro.core.extraction`.

Invariants
----------
* kernel evaluation equals per-predicate evaluation — same
  :class:`Observation` objects, same observation order;
* calibrating from the summary equals each extractor's single-phase
  :meth:`~repro.core.extraction.Extractor.discover` over the raw traces;
* nothing here persists; the kernel and summaries are derived state,
  rebuilt from traces on demand.
"""

from __future__ import annotations

from bisect import bisect_left
from dataclasses import dataclass, field
from typing import Mapping, Optional, Sequence

from ..sim.tracing import MethodExecution, MethodKey
from .predicates import KeyedPredicate, Observation, PredicateDef, racy_window

#: Exception kinds that mark harness artifacts, not program behaviour
#: (re-exported by :mod:`repro.core.extraction` for its extractors).
IGNORED_EXCEPTIONS = frozenset({"Unfinished"})


# ---------------------------------------------------------------------------
# Key-grouped batch evaluation
# ---------------------------------------------------------------------------


class SuiteKernel:
    """Batch evaluator for one frozen predicate-definition table.

    Built once per suite (see
    :meth:`~repro.core.extraction.PredicateSuite.kernel`):
    each :class:`~repro.core.predicates.KeyedPredicate` is driven
    through ``evaluate_record``; the rest (failure predicates,
    compounds, third-party classes) keep their whole-trace
    ``evaluate``.  Per trace, the kernel resolves each distinct
    ``required_key`` once, and a predicate whose required key the trace
    lacks costs no call at all.
    """

    def __init__(self, defs: Mapping[str, PredicateDef]) -> None:
        #: the suite's pid order — kernel output preserves it exactly
        self.pids: tuple[str, ...] = tuple(defs)
        slots: dict[MethodKey, int] = {}
        #: ``(pid, slot, evaluate)`` in suite order: ``slot`` indexes the
        #: predicate's required key in :attr:`_keys`, or is ``-1`` for a
        #: whole-trace ``evaluate``
        self._plan: list[tuple[str, int, object]] = []
        for pid, pred in defs.items():
            if isinstance(pred, KeyedPredicate):
                slot = slots.setdefault(pred.required_key, len(slots))
                self._plan.append((pid, slot, pred.evaluate_record))
            else:
                self._plan.append((pid, -1, pred.evaluate))
        self._keys: tuple[MethodKey, ...] = tuple(slots)

    def observations(
        self, trace, only: Optional[frozenset | set] = None
    ) -> dict[str, Observation]:
        """Evaluate the suite on one trace in a single indexed pass.

        ``only`` restricts evaluation to a pid subset (the eval matrix
        passes its undecided pids).  The returned dict is ordered by the
        suite's definition order — identical, entry for entry, to the
        per-predicate loop it replaces.
        """
        by_key = getattr(trace, "executions_by_key", None)
        find = by_key().get if by_key is not None else trace.lookup
        resolved = list(map(find, self._keys))
        found: dict[str, Observation] = {}
        for pid, slot, evaluate in self._plan:
            if only is not None and pid not in only:
                continue
            if slot < 0:
                obs = evaluate(trace)
            else:
                m = resolved[slot]
                if m is None:
                    continue
                obs = evaluate(m, find)
            if obs is not None:
                found[pid] = obs
        return found


# ---------------------------------------------------------------------------
# The popcount counting kernel
# ---------------------------------------------------------------------------


def popcount_split(bits: int, failed_mask: int) -> tuple[int, int]:
    """``(in_failed, in_success)`` for one observation bitset.

    The eval matrix's counting primitive: a row's failed-column
    popcount and its complement.
    """
    in_failed = (bits & failed_mask).bit_count()
    return in_failed, bits.bit_count() - in_failed


# ---------------------------------------------------------------------------
# Two-phase discovery: the propose half
# ---------------------------------------------------------------------------


@dataclass
class DistinctCap:
    """"How many distinct values?" capped at two — all any extractor asks.

    Tracks a stream of values by equality: after absorbing any number of
    them it knows whether none, exactly one, or more than one distinct
    value appeared (``value`` is meaningful only in the exactly-one
    case).
    """

    seen: bool = False
    multi: bool = False
    value: object = None

    def add(self, value: object) -> None:
        if not self.seen:
            self.seen = True
            self.value = value
        elif not self.multi and value != self.value:
            self.multi = True

    @property
    def single(self) -> Optional[object]:
        """The unique value, or ``None`` when none or several."""
        return self.value if self.seen and not self.multi else None


@dataclass
class KeyStats:
    """Per-:class:`MethodKey` aggregates over one side of the corpus.

    ``n_completed``/durations/returns cover *completed* executions
    (``exception is None``) — the only ones the duration and return
    extractors reason about.  ``returns`` ingests hashable values only
    on the success side (mirroring the extractors' ``_hashable`` filter)
    and every completed value on the failure side (distinctness there is
    by equality, which is all the mismatch test needs).
    """

    n_present: int = 0
    n_completed: int = 0
    min_duration: int = 0
    max_duration: int = 0
    returns: DistinctCap = field(default_factory=DistinctCap)

    def add_completed(self, duration: int) -> None:
        if self.n_completed == 0:
            self.min_duration = self.max_duration = duration
        else:
            if duration < self.min_duration:
                self.min_duration = duration
            if duration > self.max_duration:
                self.max_duration = duration
        self.n_completed += 1


def ordered_cross_thread_pairs(
    execs: Sequence[MethodExecution],
) -> set[tuple[MethodKey, MethodKey]]:
    """Strictly-ordered cross-thread pairs of one trace, by sweep.

    ``execs`` must be in start-time order (what ``method_executions``
    yields).  For each invocation the candidates that start at or after
    its end form a suffix of the start-sorted list, found by bisection —
    output-sensitive O(k log k + pairs) instead of the all-pairs
    O(k²) comparison walk, with an identical result set.
    """
    starts = [m.start_time for m in execs]
    pairs: set[tuple[MethodKey, MethodKey]] = set()
    for mf in execs:
        first_key = mf.key
        thread = mf.thread
        for ms in execs[bisect_left(starts, mf.end_time):]:
            if ms.thread != thread:
                pairs.add((first_key, ms.key))
    return pairs


def race_candidates(trace) -> set[tuple[MethodKey, MethodKey, str]]:
    """Canonicalized lockset-race candidate triples of one trace.

    The per-trace half of
    :class:`~repro.core.extraction.DataRaceExtractor`: every overlapping
    cross-thread invocation pair sharing an object where
    :func:`~repro.core.predicates.racy_window` fires.
    """
    candidates: set[tuple[MethodKey, MethodKey, str]] = set()
    # Start-sorted sweep: once a later call starts at or after ``ma``
    # ends, no call after it can overlap ``ma`` either.
    execs = trace.method_executions()
    objs = [{a.obj for a in m.accesses} for m in execs]
    for i, ma in enumerate(execs):
        for j in range(i + 1, len(execs)):
            mb = execs[j]
            if mb.start_time >= ma.end_time:
                break
            if ma.thread == mb.thread or not ma.overlaps(mb):
                continue
            for obj in objs[i] & objs[j]:
                if racy_window(ma, mb, obj) is not None:
                    pair = tuple(sorted([ma.key, mb.key]))
                    candidates.add((pair[0], pair[1], obj))
    return candidates


@dataclass
class CorpusSummary:
    """Everything the default extractor catalogue needs to calibrate,
    collected in one pass per trace.

    The ``need_*`` flags scope the propose pass to what the present
    extractor stack will actually calibrate from — a failure-signature
    stack must not pay for the O(calls²) race walk or the ordered-pairs
    sweep.
    """

    #: collect the per-execution aggregates (exception sites, duration/
    #: return stats, presence, windows) — any key-based extractor
    need_stats: bool = True
    #: run the per-success ordered-pairs sweep — OrderViolationExtractor
    need_order: bool = True
    #: run the per-trace race-candidate walk — DataRaceExtractor
    need_races: bool = True
    n_traces: int = 0
    n_failures: int = 0
    #: (key, exception kind) sites seen anywhere, harness kinds excluded
    failing: set[tuple[MethodKey, str]] = field(default_factory=set)
    #: per-key aggregates over successful / failed traces
    succ_stats: dict[MethodKey, KeyStats] = field(default_factory=dict)
    fail_stats: dict[MethodKey, KeyStats] = field(default_factory=dict)
    #: key -> number of traces (either label) containing it
    presence: dict[MethodKey, int] = field(default_factory=dict)
    #: strictly-ordered cross-thread pairs in *every* success
    #: (``None`` until the first success is absorbed)
    ordered: Optional[set[tuple[MethodKey, MethodKey]]] = None
    #: per-key latest end / earliest start over successful traces
    latest_end: dict[MethodKey, int] = field(default_factory=dict)
    earliest_start: dict[MethodKey, int] = field(default_factory=dict)
    races: set[tuple[MethodKey, MethodKey, str]] = field(default_factory=set)
    signatures: set[str] = field(default_factory=set)
    #: per failed trace: key -> (start_time, end_time)
    fail_windows: list[dict[MethodKey, tuple[int, int]]] = field(
        default_factory=list
    )

    # -- the propose phase ------------------------------------------------

    def absorb_trace(self, trace, failed: bool) -> None:
        """Fold one labeled trace into the summary (single pass)."""
        self.n_traces += 1
        window: dict[MethodKey, tuple[int, int]] = {}
        if self.need_stats:
            execs = trace.method_executions()
            side = self.fail_stats if failed else self.succ_stats
            for m in execs:
                key = m.key
                exc = m.exception
                if exc and exc not in IGNORED_EXCEPTIONS:
                    self.failing.add((key, exc))
                stats = side.get(key)
                if stats is None:
                    stats = side[key] = KeyStats()
                stats.n_present += 1
                if exc is None:
                    stats.add_completed(m.duration)
                    value = m.return_value
                    if failed:
                        stats.returns.add(value)
                    elif _hashable(value):
                        stats.returns.add(value)
                self.presence[key] = self.presence.get(key, 0) + 1
                if failed:
                    window[key] = (m.start_time, m.end_time)
                else:
                    end = self.latest_end.get(key, 0)
                    if m.end_time > end:
                        self.latest_end[key] = m.end_time
                    start = self.earliest_start.get(key)
                    if start is None or m.start_time < start:
                        self.earliest_start[key] = m.start_time
        if failed:
            self.n_failures += 1
            if trace.failure is not None:
                self.signatures.add(trace.failure.signature)
            if self.need_stats:
                self.fail_windows.append(window)
        elif self.need_order:
            pairs = ordered_cross_thread_pairs(trace.method_executions())
            self.ordered = (
                pairs if self.ordered is None else self.ordered & pairs
            )
        if self.need_races:
            self.races |= race_candidates(trace)


def summarize_corpus(
    successes: Sequence,
    failures: Sequence,
    need_stats: bool = True,
    need_order: bool = True,
    need_races: bool = True,
) -> CorpusSummary:
    """The propose phase over a labeled corpus: successes, then failures,
    folded into one summary.  The ``need_*`` flags scope the pass to what
    the caller's extractor stack calibrates from (see
    :class:`CorpusSummary`).
    """
    summary = CorpusSummary(
        need_stats=need_stats, need_order=need_order, need_races=need_races
    )
    for trace in successes:
        summary.absorb_trace(trace, False)
    for trace in failures:
        summary.absorb_trace(trace, True)
    return summary


def _hashable(value: object) -> bool:
    try:
        hash(value)
    except TypeError:
        return False
    return True
