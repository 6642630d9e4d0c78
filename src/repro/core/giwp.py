"""GIWP — Group Intervention With Pruning (paper Algorithm 1).

A divide-and-conquer adaptive group-testing loop over *items*
(predicates, or branch disjunctions during branch pruning):

1. pick the first half of the remaining pool in topological order
   (ties broken randomly);
2. intervene on the whole half in one round;
3. if the failure stopped, the half contains a counterfactual cause —
   confirm it directly (singleton) or recurse;
4. if the failure persisted, every intervened item is spurious
   (counterfactual causes cannot co-exist with the failure);
5. either way, apply Definition 2 to the non-intervened candidates:
   any item that reaches no intervened item and shows a counterfactual
   violation on an intervened run is pruned *without being intervened
   on* — this observational pruning is AID's main savings over
   traditional group testing.

Implementation note on pruning scope: Algorithm 1 writes the pruning
scan as ``P − P1`` of the current call, but the paper's illustrative
example (Section 5.2, steps 6-7) prunes predicates that belong to an
*enclosing* call's pool.  We therefore scan the global remaining pool,
which matches the example and is strictly more powerful while applying
the identical per-item rule.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from typing import Sequence

from .intervention import InterventionRunner, RunOutcome, run_round
from .pruning import (
    GroupItem,
    ReachesFn,
    failure_stopped,
    observational_prunes,
)


@dataclass
class RoundRecord:
    """One intervention round, for reporting/verification."""

    intervened: tuple[str, ...]
    stopped: bool
    pruned_by_observation: tuple[str, ...] = ()
    confirmed_causal: tuple[str, ...] = ()


@dataclass
class GIWPResult:
    """Output of Algorithm 1: disjoint causal and spurious item sets."""

    causal: list[GroupItem] = field(default_factory=list)
    spurious: list[GroupItem] = field(default_factory=list)
    rounds: list[RoundRecord] = field(default_factory=list)

    @property
    def causal_pids(self) -> list[str]:
        return [i.pid for i in self.causal]

    @property
    def spurious_pids(self) -> list[str]:
        return [i.pid for i in self.spurious]

    @property
    def n_rounds(self) -> int:
        return len(self.rounds)


def topological_item_order(
    items: Sequence[GroupItem],
    levels: Sequence[Sequence[str]],
    rng: random.Random,
) -> list[GroupItem]:
    """Order items by topological level, shuffling ties randomly.

    ``levels`` is a level decomposition over item pids (from
    :meth:`ACDag.topological_levels` for predicates, or a single level
    for branches).  Items absent from ``levels`` sort last.
    """
    position = {pid: i for i, level in enumerate(levels) for pid in level}
    buckets: dict[int, list[GroupItem]] = {}
    for item in items:
        buckets.setdefault(position.get(item.pid, len(levels)), []).append(item)
    ordered: list[GroupItem] = []
    for level in sorted(buckets):
        bucket = sorted(buckets[level], key=lambda i: i.pid)
        rng.shuffle(bucket)
        ordered.extend(bucket)
    return ordered


class GIWP:
    """Runs Algorithm 1 over a pool of items.

    Parameters
    ----------
    runner:
        Intervention runner; every :meth:`InterventionRunner.run_group`
        call is one intervention round (count via
        :class:`~repro.core.intervention.CountingRunner`), run inside the
        round of the runner's own engine, if it has one.
    reaches:
        ``reaches(a, b)`` — whether item a reaches item b in the AC-DAG
        (always False between branch items).
    observational_pruning:
        Definition 2 pruning of non-intervened items (lines 15-17).
        Disabled for the AID-P / AID-P-B ablations and TAGT.
    phase:
        Stats label for this GIWP instance's rounds (``giwp`` for the
        chain phase, ``branch`` during branch pruning).
    """

    def __init__(
        self,
        runner: InterventionRunner,
        reaches: ReachesFn,
        observational_pruning: bool = True,
        probe_all_first: bool = False,
        phase: str = "giwp",
    ) -> None:
        self.runner = runner
        self.reaches = reaches
        self.observational_pruning = observational_pruning
        #: Classic group-testing opener: intervene on the whole pool
        #: once.  If the failure persists, *everything* is spurious for
        #: the price of one round.  Used at junctions, where the single-
        #: causal-path assumption makes all-noise pools the common case.
        self.probe_all_first = probe_all_first
        self.phase = phase

    def _run_round(self, items: Sequence[GroupItem]) -> Sequence[RunOutcome]:
        """Intervene on every predicate of ``items`` in one round."""
        pids = frozenset().union(*(i.predicates for i in items))
        return run_round(self.runner, pids, self.phase)

    def run(self, items: Sequence[GroupItem]) -> GIWPResult:
        """Resolve every item as causal or spurious."""
        result = GIWPResult()
        remaining: dict[str, GroupItem] = {i.pid: i for i in items}
        order = {item.pid: idx for idx, item in enumerate(items)}
        if self.probe_all_first and len(items) > 1:
            outcomes = self._run_round(items)
            record = RoundRecord(
                intervened=tuple(i.pid for i in items),
                stopped=failure_stopped(outcomes),
            )
            result.rounds.append(record)
            if not record.stopped:
                for item in list(items):
                    self._mark_spurious(item, remaining, result)
                return result
        self._solve(list(items), remaining, order, result)
        return result

    # -- internals --------------------------------------------------------

    def _solve(
        self,
        pool: list[GroupItem],
        remaining: dict[str, GroupItem],
        order: dict[str, int],
        result: GIWPResult,
    ) -> None:
        while True:
            pool = [i for i in pool if i.pid in remaining]
            if not pool:
                return
            half = pool[: (len(pool) + 1) // 2]
            outcomes = self._run_round(half)
            record = RoundRecord(
                intervened=tuple(i.pid for i in half),
                stopped=failure_stopped(outcomes),
            )
            if record.stopped and len(half) == 1:
                # A single intervened item stopping the failure is a
                # confirmed counterfactual cause (Alg. 1 line 8).
                remaining.pop(half[0].pid, None)
                result.causal.append(half[0])
                record.confirmed_causal = (half[0].pid,)
            elif not record.stopped:
                # Failure survived the repairs: nothing intervened is a
                # counterfactual cause (Alg. 1 line 14).
                for item in half:
                    self._mark_spurious(item, remaining, result)
            record.pruned_by_observation = self._prune_observational(
                half, outcomes, remaining, order, result
            )
            result.rounds.append(record)
            if record.stopped and len(half) > 1:
                # The half hides at least one cause: recurse (line 10).
                self._solve(list(half), remaining, order, result)

    def _prune_observational(
        self,
        half: Sequence[GroupItem],
        outcomes: Sequence[RunOutcome],
        remaining: dict[str, GroupItem],
        order: dict[str, int],
        result: GIWPResult,
    ) -> tuple[str, ...]:
        if not self.observational_pruning:
            return ()
        candidates = sorted(remaining.values(), key=lambda i: order.get(i.pid, 0))
        pruned = observational_prunes(candidates, half, outcomes, self.reaches)
        for item in pruned:
            self._mark_spurious(item, remaining, result)
        return tuple(i.pid for i in pruned)

    def _mark_spurious(self, item, remaining, result) -> None:
        if item.pid in remaining:
            remaining.pop(item.pid)
            result.spurious.append(item)
