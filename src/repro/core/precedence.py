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

A policy implements one method, :meth:`PrecedencePolicy.anchors`,
which anchors one predicate on a sequence of observations, elementwise:
anchor *i* depends only on the predicate and observation *i*.
``ACDag.build`` calls it once per predicate over all the failed logs
and ``ACDag.update_failed_log`` once per node with a one-element list,
so build and update read the same anchors, and a kind-anchored policy
resolves the predicate's anchor mode once per call, not once per
observation.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Mapping, Sequence

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
    """Maps a predicate's observations to scalar anchor timestamps.

    :meth:`anchors` is the only method a policy implements; its contract
    is elementwise (anchor *i* depends only on ``pred`` and
    ``observations[i]``), so one call over every failed log equals the
    one-element calls joined together.  A subclass that defines the
    per-observation ``anchor`` of older releases is rejected when the
    class is created: build and update read only ``anchors``, so such a
    method would be silently ignored.
    """

    def __init_subclass__(cls, **kwargs) -> None:
        super().__init_subclass__(**kwargs)
        if hasattr(cls, "anchor"):
            raise TypeError(
                f"{cls.__qualname__} defines anchor(pred, obs), which is no "
                "longer read; override anchors(pred, observations) -> "
                "list[float] instead (anchor i from observations[i] alone)"
            )

    def anchors(
        self, pred: PredicateDef, observations: Sequence[Observation]
    ) -> list[float]:
        """The anchor of ``pred`` on each of ``observations``, in order."""
        raise NotImplementedError

    def precedes(
        self,
        p1: PredicateDef,
        o1: Observation,
        p2: PredicateDef,
        o2: Observation,
    ) -> bool:
        """Strict precedence of P1 before P2 on one log."""
        (a1,) = self.anchors(p1, (o1,))
        (a2,) = self.anchors(p2, (o2,))
        return a1 < a2


@dataclass
class KindAnchorPolicy(PrecedencePolicy):
    """The default policy: anchor per predicate kind (paper's Case 1/2).

    ``overrides`` lets a workload pin specific kinds to "start" or
    "end" anchoring without subclassing.  Keys are
    :class:`~repro.core.predicates.PredicateKind` members or their
    string values; an unknown kind or mode raises ``ValueError`` here,
    not mid-build.
    """

    overrides: Mapping[PredicateKind, str] = field(default_factory=dict)

    def __post_init__(self) -> None:
        overrides = {}
        for kind, mode in self.overrides.items():
            try:
                kind = PredicateKind(kind)
            except ValueError:
                valid = ", ".join(repr(k.value) for k in PredicateKind)
                raise ValueError(
                    f"overrides: unknown predicate kind {kind!r} (valid: {valid})"
                ) from None
            if mode not in ("start", "end"):
                raise ValueError(
                    f"overrides[{kind.value!r}]: unknown anchor mode {mode!r} "
                    "(valid: 'start', 'end')"
                )
            overrides[kind] = mode
        self.overrides = overrides

    def _mode(self, pred: PredicateDef) -> str:
        mode = self.overrides.get(pred.kind)
        if mode is None:
            mode = "end" if pred.kind in _END_ANCHORED else "start"
        return mode

    def anchors(
        self, pred: PredicateDef, observations: Sequence[Observation]
    ) -> list[float]:
        if self._mode(pred) == "end":
            return [float(obs.end) for obs in observations]
        return [float(obs.start) for obs in observations]


@dataclass
class LamportAnchorPolicy(KindAnchorPolicy):
    """Kind-anchored policy over Lamport timestamps (paper Section 4).

    The paper notes that physical clocks may be too coarse, or skewed
    across cores/machines, and suggests logical clocks.  This policy
    anchors on the Lamport timestamps attached to observations when
    available, falling back to virtual time otherwise (per
    observation).  Lamport order is consistent with happens-before, so
    true causal edges are preserved; like any scalar anchor it may add
    non-causal edges, which the interventions prune.
    """

    def anchors(
        self, pred: PredicateDef, observations: Sequence[Observation]
    ) -> list[float]:
        if self._mode(pred) == "end":
            return [
                float(obs.end if obs.end_lamport is None else obs.end_lamport)
                for obs in observations
            ]
        return [
            float(obs.start if obs.start_lamport is None else obs.start_lamport)
            for obs in observations
        ]


@dataclass
class StartTimePolicy(PrecedencePolicy):
    """Anchor everything at the window start (most aggressive)."""

    def anchors(
        self, pred: PredicateDef, observations: Sequence[Observation]
    ) -> list[float]:
        return [float(obs.start) for obs in observations]


@dataclass
class EndTimePolicy(PrecedencePolicy):
    """Anchor everything at the window end (most conservative)."""

    def anchors(
        self, pred: PredicateDef, observations: Sequence[Observation]
    ) -> list[float]:
        return [float(obs.end) for obs in observations]


def default_policy() -> PrecedencePolicy:
    return KindAnchorPolicy()
