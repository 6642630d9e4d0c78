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
* :func:`ordered_cross_thread_pairs` and :func:`race_candidates` —
  the per-trace sweeps behind
  :class:`~repro.core.extraction.OrderViolationExtractor` and
  :class:`~repro.core.extraction.DataRaceExtractor` discovery, each
  output-sensitive where the all-pairs walk it replaced was quadratic.
  The race sweep pairs only calls that access a common object: calls
  are indexed by object first, so a call with no accesses costs one
  look and a pair that shares nothing is never formed.

Invariants
----------
* kernel evaluation equals per-predicate evaluation — same
  :class:`Observation` objects, same observation order;
* each sweep returns the same set as the all-pairs walk it replaced;
* nothing here persists; the kernel is derived state, rebuilt from
  traces on demand.
"""

from __future__ import annotations

from bisect import bisect_left
from typing import Mapping, Optional, Sequence

from ..sim.tracing import MethodExecution, MethodKey
from .predicates import KeyedPredicate, Observation, PredicateDef, racy_window

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
# Discovery's per-trace sweeps
# ---------------------------------------------------------------------------


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

    Pairs are formed per object, as Eraser groups accesses by shared
    location: one pass indexes each call under every object it
    accesses (a call with no accesses is never visited again), then
    each object's calls are swept in start order.  Once a later call
    starts at or after ``ma`` ends, no call after it can overlap ``ma``
    either.  A pair is handed to ``racy_window`` only if at least one
    side touches the object twice, since the window needs an outer
    call's first and last touch around the intrusion.  Each triple is
    ``(a, b, obj)`` with ``a <= b``.
    """
    # obj -> [(call, touches of obj)], calls in start order
    by_obj: dict[str, list[tuple[MethodExecution, int]]] = {}
    for m in trace.method_executions():
        if not m.accesses:
            continue
        touches: dict[str, int] = {}
        for a in m.accesses:
            touches[a.obj] = touches.get(a.obj, 0) + 1
        for obj, n in touches.items():
            by_obj.setdefault(obj, []).append((m, n))
    candidates: set[tuple[MethodKey, MethodKey, str]] = set()
    for obj, calls in by_obj.items():
        for i, (ma, na) in enumerate(calls):
            end, start, thread = ma.end_time, ma.start_time, ma.thread
            for mb, nb in calls[i + 1:]:
                if mb.start_time >= end:
                    break
                # ``mb`` starts at or after ``ma`` and before ``ma`` ends;
                # it overlaps unless it is a zero-width call at ``start``
                if mb.thread == thread or mb.end_time <= start:
                    continue
                if na < 2 and nb < 2:
                    continue
                if racy_window(ma, mb, obj) is not None:
                    a, b = ma.key, mb.key
                    candidates.add((a, b, obj) if a <= b else (b, a, obj))
    return candidates
