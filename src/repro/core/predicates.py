"""Predicate model: runtime behaviours that AID reasons about.

A *predicate* is a Boolean statement about one execution ("there is a
data race on ``_nextSlot`` between ``TryGetValue`` and ``GetOrAdd``",
"``Commit`` throws ObjectDisposed", …).  Every predicate class knows how
to:

* **evaluate** itself against an execution trace, returning an
  :class:`Observation` (the time window in which it held) or ``None``;
* **build its intervention** — the fault-injection recipe that forces it
  to its successful-execution value (Figure 2, column 3);
* report whether that intervention is **safe** for a given program
  (Section 3.3: return-value and exception-handling interventions are
  restricted to methods declared side-effect free).

The predicate types implemented here are exactly the paper's Figure 2
catalogue plus order violations, compound conjunctions (Section 3.2),
and the failure-indicating predicate F.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass
from enum import Enum
from typing import NamedTuple, Optional

from ..decode import decode, register_union
from ..sim.faults import (
    CatchException,
    DelayReturn,
    ForceOrder,
    ForceReturn,
    Intervention,
    MethodSelector,
    SerializeMethods,
)
from ..sim.program import Program
from ..sim.serialize import stable_digest
from ..sim.tracing import ExecutionTrace, MethodExecution, MethodKey


class PredicateKind(str, Enum):
    DATA_RACE = "data_race"
    METHOD_FAILS = "method_fails"
    TOO_SLOW = "too_slow"
    TOO_FAST = "too_fast"
    WRONG_RETURN = "wrong_return"
    ORDER_VIOLATION = "order_violation"
    EXECUTED = "executed"
    COMPOUND_AND = "compound_and"
    FAILURE = "failure"


_tuple_new = tuple.__new__


class _ObservationFields(NamedTuple):
    start: int
    end: int
    start_lamport: Optional[int] = None
    end_lamport: Optional[int] = None


class Observation(_ObservationFields):
    """The virtual-time window in which a predicate held on one trace.

    ``start_lamport``/``end_lamport`` optionally carry the Lamport
    timestamps of the anchoring events, for the logical-clock precedence
    policy the paper suggests for environments where physical clocks are
    too coarse or skewed (Section 4).

    A ``NamedTuple`` (built once per held predicate per trace, the
    evaluation hot path) whose constructor still rejects an inverted
    window.  ``repr`` and hash are those of the frozen dataclass it
    replaced.
    """

    __slots__ = ()

    def __new__(
        cls,
        start: int,
        end: int,
        start_lamport: Optional[int] = None,
        end_lamport: Optional[int] = None,
    ) -> "Observation":
        if end < start:
            raise ValueError(
                f"observation ends before it starts: start={start}, end={end}"
            )
        return _tuple_new(cls, (start, end, start_lamport, end_lamport))


def _span(m: MethodExecution) -> Observation:
    """``m``'s whole window.  Like :func:`_end_point` it skips
    ``Observation``'s check (a record never ends before it starts: the
    simulator cannot stamp one, and the trace decoder refuses one):
    these are the evaluation kernel's most frequent observations."""
    return _tuple_new(
        Observation, (m.start_time, m.end_time, m.start_lamport, m.end_lamport)
    )


def _end_point(m: MethodExecution) -> Observation:
    """The instant ``m`` returned or threw."""
    return _tuple_new(
        Observation, (m.end_time, m.end_time, m.end_lamport, m.end_lamport)
    )


class PredicateDef:
    """Base class for all predicate definitions.

    Subclasses must set ``pid`` (stable id string), ``kind``, and
    ``description`` and implement :meth:`evaluate` and
    :meth:`interventions`.
    """

    pid: str
    kind: PredicateKind
    description: str

    def evaluate(self, trace: ExecutionTrace) -> Optional[Observation]:
        raise NotImplementedError

    def interventions(self) -> tuple[Intervention, ...]:
        """Fault injections that force this predicate false."""
        raise NotImplementedError

    def is_safe(self, program: Program) -> bool:
        """Whether the intervention has no unwanted side effects.

        Timing and locking interventions are always safe; value-altering
        ones require the target method to be declared read-only.
        """
        return True

    def definition_digest(self) -> str:
        """Stable fingerprint of the *full* definition, not just the pid.

        Pids deliberately omit derived parameters (``slow[key]`` does not
        embed its threshold), so a memo keyed by pid alone would go stale
        when a growing corpus shifts an envelope.  The digest covers the
        class and every dataclass field, letting persistent caches detect
        that a same-pid predicate changed meaning.

        Memoized per instance: definitions are frozen dataclasses, and a
        sharded evaluation asks every shard's matrix for the same table
        — without the cache the digest walk dominates thin shards.
        """
        cached = getattr(self, "_definition_digest", None)
        if cached is not None:
            return cached

        def value_of(value: object) -> object:
            if isinstance(value, MethodKey):
                # A tuple, but digested by repr as when it was a
                # dataclass: stored matrices key on these digests.
                return repr(value)
            if isinstance(value, PredicateDef):
                return value.definition_digest()  # compound parts, recursively
            if isinstance(value, (tuple, list)):
                return [value_of(v) for v in value]
            return repr(value)

        if dataclasses.is_dataclass(self):
            fields = {
                f.name: value_of(getattr(self, f.name))
                for f in dataclasses.fields(self)
            }
        else:  # pragma: no cover - all bundled predicates are dataclasses
            fields = {"repr": repr(self)}
        digest = stable_digest(
            {"type": type(self).__name__, "fields": fields}
        )
        object.__setattr__(self, "_definition_digest", digest)
        return digest

    def __repr__(self) -> str:
        return f"<{type(self).__name__} {self.pid}>"

    def __hash__(self) -> int:
        return hash(self.pid)

    def __eq__(self, other: object) -> bool:
        return isinstance(other, PredicateDef) and other.pid == self.pid


class KeyedPredicate(PredicateDef):
    """A predicate on the records of one or two method keys.

    Subclasses name the key they cannot hold without in
    :attr:`required_key` (``key`` unless overridden) and implement
    :meth:`evaluate_record`.  The evaluation kernel
    (:mod:`repro.core.evalkernel`) resolves each required key once per
    trace, skips the predicate when the trace lacks it, and otherwise
    calls :meth:`evaluate_record` directly.  Predicates that read other
    trace state (failure metadata, nested parts) derive from
    :class:`PredicateDef` and are evaluated through :meth:`evaluate`.
    """

    @property
    def required_key(self) -> MethodKey:
        return self.key

    def evaluate(self, trace: ExecutionTrace) -> Optional[Observation]:
        m = trace.lookup(self.required_key)
        return None if m is None else self.evaluate_record(m, trace.lookup)

    def evaluate_record(self, m: MethodExecution, find) -> Optional[Observation]:
        """Evaluate given ``m``, the record of :attr:`required_key`;
        ``find(key) -> execution or None`` resolves any other key the
        predicate reads."""
        raise NotImplementedError


@dataclass(frozen=True, eq=False)
class DataRacePredicate(KeyedPredicate):
    """Two method invocations access ``obj`` concurrently, one writing,
    with disjoint locksets (lockset-style race definition)."""

    a: MethodKey
    b: MethodKey
    obj: str

    def __post_init__(self) -> None:
        if self.b < self.a:  # canonical order for a stable pid
            first, second = self.b, self.a
            object.__setattr__(self, "a", first)
            object.__setattr__(self, "b", second)

    @property
    def required_key(self) -> MethodKey:
        return self.a

    @property
    def pid(self) -> str:
        return f"race({self.obj})[{self.a}|{self.b}]"

    @property
    def kind(self) -> PredicateKind:
        return PredicateKind.DATA_RACE

    @property
    def description(self) -> str:
        return (
            f"data race on {self.obj!r}: {self.a} and {self.b} access it "
            f"concurrently without a common lock, at least one writing"
        )

    def evaluate_record(self, m: MethodExecution, find) -> Optional[Observation]:
        mb = find(self.b)
        if mb is None or not m.overlaps(mb):
            return None
        return racy_window(m, mb, self.obj)

    def interventions(self) -> tuple[Intervention, ...]:
        lock = f"__aid_lock__{self.obj}"
        return (
            SerializeMethods(
                selectors=(
                    MethodSelector.from_key(self.a),
                    MethodSelector.from_key(self.b),
                ),
                lock_name=lock,
            ),
        )


def racy_window(
    ma: MethodExecution, mb: MethodExecution, obj: str
) -> Optional[Observation]:
    """Return the race window between two overlapping invocations, if any.

    We use *interleaved-access* (sandwich) race semantics: a race exists
    when one invocation accesses ``obj`` strictly between another
    invocation's first and last accesses to ``obj``, the locksets of the
    interleaved accesses are disjoint, and a write is involved.  The
    intruding access observed (or corrupted) a half-completed update
    protocol — precisely the situation the paper's Npgsql case study
    crashes on.

    This is deliberately stricter than happens-before race detection
    ("any unordered conflicting pair"): near-miss overlaps that touch the
    object before or after the whole update do not count.  Under
    happens-before semantics, benign near-misses in successful runs make
    the race predicate non-discriminative and SD discards it — the
    stricter semantics keeps the predicate aligned with the harmful
    interleaving, which is what the paper's hand-built race predicates
    achieve (Figure 9c shows 100%/100%).

    The reported window spans from the start of the interrupted protocol
    to the intruding access.
    """
    best: Optional[Observation] = None
    for outer, inner in ((ma, mb), (mb, ma)):
        touches = [a for a in outer.accesses if a.obj == obj]
        if len(touches) < 2:
            continue
        first, last = touches[0], touches[-1]
        writes_involved = any(a.is_write for a in touches)
        for intrusion in inner.accesses:
            if intrusion.obj != obj:
                continue
            if not (first.time < intrusion.time < last.time):
                continue
            if not (writes_involved or intrusion.is_write):
                continue
            if intrusion.locks_held & (first.locks_held | last.locks_held):
                continue
            candidate = Observation(
                first.time, intrusion.time,
                start_lamport=first.lamport, end_lamport=intrusion.lamport,
            )
            if best is None or candidate.start < best.start:
                best = candidate
    return best


@dataclass(frozen=True, eq=False)
class MethodFailsPredicate(KeyedPredicate):
    """Method invocation raises a (simulated) exception of ``exc_kind``."""

    key: MethodKey
    exc_kind: str
    fallback: object = None

    @property
    def pid(self) -> str:
        return f"fails({self.exc_kind})[{self.key}]"

    @property
    def kind(self) -> PredicateKind:
        return PredicateKind.METHOD_FAILS

    @property
    def description(self) -> str:
        return f"method {self.key} fails with {self.exc_kind}"

    def evaluate_record(self, m: MethodExecution, find) -> Optional[Observation]:
        if m.exception != self.exc_kind:
            return None
        return _end_point(m)

    def interventions(self) -> tuple[Intervention, ...]:
        return (
            CatchException(
                selector=MethodSelector.from_key(self.key), fallback=self.fallback
            ),
        )

    def is_safe(self, program: Program) -> bool:
        return self.key.method in program.readonly_methods


@dataclass(frozen=True, eq=False)
class TooSlowPredicate(KeyedPredicate):
    """Invocation's duration exceeds the max seen in successful runs."""

    key: MethodKey
    threshold: int  # max duration over successful executions
    correct_return: object = None

    @property
    def pid(self) -> str:
        return f"slow[{self.key}]"

    @property
    def kind(self) -> PredicateKind:
        return PredicateKind.TOO_SLOW

    @property
    def description(self) -> str:
        return (
            f"method {self.key} runs too slow "
            f"(duration > {self.threshold} ticks seen in successful runs)"
        )

    def evaluate_record(self, m: MethodExecution, find) -> Optional[Observation]:
        if m.duration <= self.threshold:
            return None
        # The slowness *begins* the instant the invocation exceeds its
        # successful-duration envelope — not when the method finally
        # returns.  Anchoring there keeps true causal edges in the
        # AC-DAG: a slow callee's excess point precedes its slow
        # caller's (the paper's Case 1), and a slow method's excess
        # point precedes the order violations it provokes.
        return Observation(
            m.start_time + self.threshold, m.end_time,
            start_lamport=m.start_lamport, end_lamport=m.end_lamport,
        )

    def interventions(self) -> tuple[Intervention, ...]:
        # "Prematurely return from M the correct value that M returns in
        # all successful executions" (Figure 2).
        return (
            ForceReturn(
                selector=MethodSelector.from_key(self.key),
                value=self.correct_return,
                skip_body=True,
            ),
        )

    def is_safe(self, program: Program) -> bool:
        return self.key.method in program.readonly_methods


@dataclass(frozen=True, eq=False)
class TooFastPredicate(KeyedPredicate):
    """Invocation's duration is below the min seen in successful runs."""

    key: MethodKey
    threshold: int  # min duration over successful executions

    @property
    def pid(self) -> str:
        return f"fast[{self.key}]"

    @property
    def kind(self) -> PredicateKind:
        return PredicateKind.TOO_FAST

    @property
    def description(self) -> str:
        return (
            f"method {self.key} runs too fast "
            f"(duration < {self.threshold} ticks seen in successful runs)"
        )

    def evaluate_record(self, m: MethodExecution, find) -> Optional[Observation]:
        if m.duration >= self.threshold:
            return None
        return _span(m)

    def interventions(self) -> tuple[Intervention, ...]:
        # "Insert delay before M's return statement" (Figure 2).
        return (
            DelayReturn(
                selector=MethodSelector.from_key(self.key), ticks=self.threshold
            ),
        )


@dataclass(frozen=True, eq=False)
class WrongReturnPredicate(KeyedPredicate):
    """Invocation returns a value different from the successful one."""

    key: MethodKey
    correct_value: object

    @property
    def pid(self) -> str:
        return f"wrongret[{self.key}]"

    @property
    def kind(self) -> PredicateKind:
        return PredicateKind.WRONG_RETURN

    @property
    def description(self) -> str:
        return (
            f"method {self.key} returns an incorrect value "
            f"(successful executions return {self.correct_value!r})"
        )

    def evaluate_record(self, m: MethodExecution, find) -> Optional[Observation]:
        if m.exception is not None:
            return None
        if m.return_value == self.correct_value:
            return None
        return _end_point(m)

    def interventions(self) -> tuple[Intervention, ...]:
        return (
            ForceReturn(
                selector=MethodSelector.from_key(self.key),
                value=self.correct_value,
                skip_body=False,
            ),
        )

    def is_safe(self, program: Program) -> bool:
        return self.key.method in program.readonly_methods


@dataclass(frozen=True, eq=False)
class OrderViolationPredicate(KeyedPredicate):
    """``second`` starts before ``first`` completes.

    In all successful executions ``first`` finishes before ``second``
    starts; the violation of that order is the misbehaviour.
    """

    first: MethodKey
    second: MethodKey

    @property
    def required_key(self) -> MethodKey:
        return self.first

    @property
    def pid(self) -> str:
        return f"order[{self.second}<{self.first}]"

    @property
    def kind(self) -> PredicateKind:
        return PredicateKind.ORDER_VIOLATION

    @property
    def description(self) -> str:
        return (
            f"order violation: {self.second} starts before {self.first} "
            f"has completed (successful runs always order them)"
        )

    def evaluate_record(self, m: MethodExecution, find) -> Optional[Observation]:
        ms = find(self.second)
        if ms is None or ms.start_time >= m.end_time:
            return None
        return Observation(
            ms.start_time, min(m.end_time, ms.end_time),
            start_lamport=ms.start_lamport,
            end_lamport=min(m.end_lamport, ms.end_lamport),
        )

    def interventions(self) -> tuple[Intervention, ...]:
        return (
            ForceOrder(
                first=MethodSelector.from_key(self.first),
                then=MethodSelector.from_key(self.second),
            ),
        )


@dataclass(frozen=True, eq=False)
class ExecutedPredicate(KeyedPredicate):
    """The invocation ran (its body actually executed).

    The paper's branch-taken predicates ("the program takes the false
    branch at line 31") specialize to "this call happened" at our method
    granularity.  Repaired by a skip-body forced return, which the trace
    records via ``body_skipped`` so the predicate evaluates false on the
    intervened run.
    """

    key: MethodKey
    skip_value: object = None

    @property
    def pid(self) -> str:
        return f"exec[{self.key}]"

    @property
    def kind(self) -> PredicateKind:
        return PredicateKind.EXECUTED

    @property
    def description(self) -> str:
        return f"method {self.key} executes (it never runs in successful executions)"

    def evaluate_record(self, m: MethodExecution, find) -> Optional[Observation]:
        if m.body_skipped:
            return None
        return _span(m)

    def interventions(self) -> tuple[Intervention, ...]:
        return (
            ForceReturn(
                selector=MethodSelector.from_key(self.key),
                value=self.skip_value,
                skip_body=True,
            ),
        )

    def is_safe(self, program: Program) -> bool:
        return self.key.method in program.readonly_methods


@dataclass(frozen=True, eq=False)
class CompoundAndPredicate(PredicateDef):
    """Conjunction of predicates (Section 3.2, "Modeling nondeterminism").

    Used when no single predicate is fully discriminative but a
    conjunction is.  Observed when *all* parts are observed; intervened
    by repairing every part (which certainly falsifies the conjunction).
    """

    parts: tuple[PredicateDef, ...]

    @property
    def pid(self) -> str:
        return "and(" + "&".join(p.pid for p in self.parts) + ")"

    @property
    def kind(self) -> PredicateKind:
        return PredicateKind.COMPOUND_AND

    @property
    def description(self) -> str:
        return " AND ".join(p.description for p in self.parts)

    def evaluate(self, trace: ExecutionTrace) -> Optional[Observation]:
        obs = [p.evaluate(trace) for p in self.parts]
        if any(o is None for o in obs):
            return None
        lamports = [o.start_lamport for o in obs]
        return Observation(
            max(o.start for o in obs),
            max(o.end for o in obs),
            start_lamport=(
                max(lamports) if all(x is not None for x in lamports) else None
            ),
            end_lamport=None,
        )

    def interventions(self) -> tuple[Intervention, ...]:
        result: list[Intervention] = []
        for p in self.parts:
            result.extend(p.interventions())
        return tuple(result)

    def is_safe(self, program: Program) -> bool:
        return all(p.is_safe(program) for p in self.parts)


@dataclass(frozen=True, eq=False)
class FailurePredicate(PredicateDef):
    """The failure-indicating predicate F (one per failure signature)."""

    signature: str

    @property
    def pid(self) -> str:
        return f"FAILURE[{self.signature}]"

    @property
    def kind(self) -> PredicateKind:
        return PredicateKind.FAILURE

    @property
    def description(self) -> str:
        return f"the execution fails with signature {self.signature!r}"

    def evaluate(self, trace: ExecutionTrace) -> Optional[Observation]:
        if not trace.failed or trace.failure.signature != self.signature:
            return None
        t = trace.failure.time
        return Observation(t, t)

    def interventions(self) -> tuple[Intervention, ...]:
        raise LookupError("the failure predicate F cannot be intervened on")


# ---------------------------------------------------------------------------
# Serialization: predicates as JSON-able dicts
# ---------------------------------------------------------------------------

#: Format version of the predicate/suite payloads (bump on breaking
#: changes; readers refuse unknown versions rather than misparse).
PREDICATE_FORMAT_VERSION = 1

#: Every serializable predicate class, keyed by class name.
_PREDICATE_TYPES: dict[str, type] = {
    cls.__name__: cls
    for cls in (
        DataRacePredicate,
        MethodFailsPredicate,
        TooSlowPredicate,
        TooFastPredicate,
        WrongReturnPredicate,
        OrderViolationPredicate,
        ExecutedPredicate,
        CompoundAndPredicate,
        FailurePredicate,
    )
}
register_union(PredicateDef, "$pred", _PREDICATE_TYPES)


def _encode_value(value: object) -> object:
    """JSON-able encoding with type tags for the non-JSON field types.

    Tags: ``{"$key": [...]}`` for :class:`MethodKey`, ``{"$pred": ...}``
    for nested predicates (compound parts), ``{"$tuple": [...]}`` for
    tuples (lists stay lists so the distinction survives the trip —
    ``definition_digest`` hashes ``repr`` and must not drift).
    """
    if isinstance(value, MethodKey):
        return {"$key": [value.method, value.thread, value.occurrence]}
    if isinstance(value, PredicateDef):
        return {"$pred": predicate_to_dict(value)}
    if isinstance(value, tuple):
        return {"$tuple": [_encode_value(v) for v in value]}
    if isinstance(value, list):
        return [_encode_value(v) for v in value]
    if value is None or isinstance(value, (bool, int, float, str)):
        return value
    raise ValueError(
        f"cannot serialize predicate field value {value!r} "
        f"of type {type(value).__name__}"
    )


def predicate_to_dict(pred: PredicateDef) -> dict:
    """One predicate as a JSON-able dict (inverse:
    :func:`predicate_from_dict`).  Round-tripping preserves the pid and
    the full :meth:`~PredicateDef.definition_digest`."""
    if not dataclasses.is_dataclass(pred):
        raise ValueError(
            f"cannot serialize non-dataclass predicate {type(pred).__name__}"
        )
    return {
        "type": type(pred).__name__,
        "fields": {
            f.name: _encode_value(getattr(pred, f.name))
            for f in dataclasses.fields(pred)
        },
    }


def predicate_from_dict(raw: dict) -> PredicateDef:
    """Rebuild a predicate serialized by :func:`predicate_to_dict`; a
    payload whose fields do not match their annotations is a
    :class:`ValueError` naming the field (``DataRacePredicate.obj``)."""
    return decode(PredicateDef, raw)
