"""Temporal-precedence policies for AC-DAG construction (paper §4).

Deciding whether predicate P1 "temporally precedes" P2 is subtle when
observations are time *windows* rather than points.  The paper's two
worked cases:

* Case 1 — "foo() runs slow" vs. "bar() runs slow" where foo() awaits
  bar(): the callee's slowness causes the caller's, so **end time**
  implies precedence.
* Case 2 — "foo() starts late" vs. "bar() starts late": lateness
  propagates forward, so **start time** implies precedence.

The policy abstraction maps each (predicate, observation) pair to a
scalar anchor timestamp; P1 precedes P2 on a log iff anchor(P1) <
anchor(P2).  Because each log then induces a strict weak order, and an
AC-DAG edge requires agreement across *all* failed logs, the resulting
relation is guaranteed acyclic (any cycle would need τ1 < τ2 < … < τ1
inside a single log).  This realizes the paper's requirement that *any*
conservative precedence heuristic is admissible as long as it cannot
create cycles — false edges are pruned later by interventions.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Mapping

from .predicates import Observation, PredicateDef, PredicateKind

#: Kinds whose misbehaviour is only knowable when the window closes:
#: failures and wrong values.  Their anchor is the window end.
_END_ANCHORED = {
    PredicateKind.METHOD_FAILS,
    PredicateKind.WRONG_RETURN,
    PredicateKind.FAILURE,
}

#: Kinds whose misbehaviour exists as soon as the window opens: races,
#: order violations, early starts/fast runs — and slowness, whose window
#: opens at the instant the duration envelope is exceeded (the
#: observation already encodes that, see TooSlowPredicate.evaluate).
#: Anchor is the window start.
_START_ANCHORED = {
    PredicateKind.DATA_RACE,
    PredicateKind.TOO_SLOW,
    PredicateKind.ORDER_VIOLATION,
    PredicateKind.TOO_FAST,
    PredicateKind.EXECUTED,
    PredicateKind.COMPOUND_AND,
}


class PrecedencePolicy:
    """Maps (predicate, observation) to a scalar anchor timestamp."""

    def anchor(self, pred: PredicateDef, obs: Observation) -> float:
        raise NotImplementedError

    def precedes(
        self,
        p1: PredicateDef,
        o1: Observation,
        p2: PredicateDef,
        o2: Observation,
    ) -> bool:
        """Strict precedence of P1 before P2 on one log."""
        return self.anchor(p1, o1) < self.anchor(p2, o2)


@dataclass
class KindAnchorPolicy(PrecedencePolicy):
    """The default policy: anchor per predicate kind (paper's Case 1/2).

    ``overrides`` lets a workload pin specific kinds to "start" or
    "end" anchoring without subclassing.
    """

    overrides: Mapping[PredicateKind, str] = field(default_factory=dict)

    def _mode(self, pred: PredicateDef) -> str:
        mode = self.overrides.get(pred.kind)
        if mode is None:
            mode = "end" if pred.kind in _END_ANCHORED else "start"
        return mode

    def anchor(self, pred: PredicateDef, obs: Observation) -> float:
        mode = self._mode(pred)
        if mode == "end":
            return float(obs.end)
        if mode == "start":
            return float(obs.start)
        raise ValueError(f"unknown anchor mode {mode!r}")


@dataclass
class LamportAnchorPolicy(KindAnchorPolicy):
    """Kind-anchored policy over Lamport timestamps (paper Section 4).

    The paper notes that physical clocks may be too coarse, or skewed
    across cores/machines, and suggests logical clocks.  This policy
    anchors on the Lamport timestamps attached to observations when
    available, falling back to virtual time otherwise.  Lamport order is
    consistent with happens-before, so true causal edges are preserved;
    like any scalar anchor it may add non-causal edges, which the
    interventions prune.
    """

    def anchor(self, pred: PredicateDef, obs: Observation) -> float:
        mode = self._mode(pred)
        if mode == "end":
            if obs.end_lamport is not None:
                return float(obs.end_lamport)
            return float(obs.end)
        if obs.start_lamport is not None:
            return float(obs.start_lamport)
        return float(obs.start)


@dataclass
class StartTimePolicy(PrecedencePolicy):
    """Anchor everything at the window start (most aggressive)."""

    def anchor(self, pred: PredicateDef, obs: Observation) -> float:
        return float(obs.start)


@dataclass
class EndTimePolicy(PrecedencePolicy):
    """Anchor everything at the window end (most conservative)."""

    def anchor(self, pred: PredicateDef, obs: Observation) -> float:
        return float(obs.end)


def default_policy() -> PrecedencePolicy:
    return KindAnchorPolicy()
