"""Scheduling strategies and first-class recorded schedules.

Role
----
The simulator's *only* nondeterminism is which ready thread runs next.
This module names that choice: every decision is a
:class:`SchedulerStrategy`'s (ready-set in, chosen thread out), and
every execution records its full decision list as a :class:`Schedule`
— a serializable, content-addressed artifact that replays
deterministically via :class:`ReplayStrategy`.  The default
:class:`RandomStrategy` is the one strategy the simulator's step does
not call through ``choose``: it takes :meth:`RandomStrategy.draw` over
the ready list directly, the same draw ``choose`` makes.

That seam is what makes schedule-space exploration possible
(:mod:`repro.explore`): systematic strategies (PCT, delay bounding)
plug in where the seeded-uniform picker used to be hard-wired, and any
failing interleaving a fuzzer finds is reproducible from its recorded
schedule alone.

Invariants
----------
* :class:`RandomStrategy` consumes its RNG exactly like the historical
  in-line ``rng.choice`` did, whether the step calls ``choose`` or
  ``draw``, so every existing
  ``(program, interventions, seed)`` triple produces a byte-identical
  trace (asserted against golden fixtures);
* a strategy must return a member of ``point.candidates`` — the
  simulator rejects anything else with a :class:`ScheduleError` (the
  default step's draw is in range by construction);
* ``Schedule.from_dict(s.to_dict()) == s`` and replaying a schedule
  under the same ``(program, interventions, seed)`` reproduces the
  recording's trace byte-for-byte (asserted in tests);
* :meth:`Schedule.signature` identifies the *interleaving* (program +
  decision sequence), deliberately excluding the seed: two seeds that
  induce the same decisions are the same schedule.

Persistence: one JSON document per schedule
(:meth:`Schedule.save`/:meth:`Schedule.load`), schema-versioned like
trace files.
"""

from __future__ import annotations

import heapq
import json
import os
from dataclasses import dataclass, field
from pathlib import Path
from random import Random
from typing import NamedTuple, Optional, Protocol, Sequence, runtime_checkable

from ..decode import DecodeError, decode
from .serialize import stable_digest

SCHEDULE_SCHEMA_VERSION = 1

#: One decision's resource touches: ``(key, is_write)`` pairs.  Two
#: decisions *conflict* when they share a key and at least one writes
#: it; adjacent non-conflicting decisions commute (Mazurkiewicz trace
#: equivalence), which is what partial-order pruning exploits.
Footprint = frozenset


def footprints_conflict(a: Footprint, b: Footprint) -> bool:
    """Whether two decisions are dependent (do not commute)."""
    if not a or not b:
        return False
    for key, is_write in a:
        if is_write:
            if any(k == key for k, _ in b):
                return True
        elif (key, True) in b:
            return True
    return False


def canonical_decisions(
    decisions: Sequence[str], footprints: Sequence[Footprint]
) -> tuple[str, ...]:
    """The lexicographically-minimal linearization of the decisions'
    dependence partial order — a normal form shared by every member of
    the schedule's Mazurkiewicz equivalence class.

    Dependence edges come from three sources, all derivable from the
    per-decision footprints the simulator records:

    * program order — consecutive decisions of the same thread (every
      footprint writes its own ``thread:`` key);
    * data/lock conflicts — a write to a key depends on the previous
      write and on every read since it; a read depends on the previous
      write (reads of the same key commute);
    * barriers — a decision writing the global key ``"*"`` conflicts
      with everything (every footprint implicitly reads ``"*"``).

    The normal form is computed greedily (Kahn's algorithm, always
    releasing the smallest ready thread name); same-thread decisions are
    chained, so at most one decision per thread is ever ready and the
    tie-break is total.  Two recorded schedules whose executions differ
    only by commuting adjacent independent decisions canonicalize to
    the same tuple; schedules with different dependence structure keep
    distinct normal forms.
    """
    n = len(decisions)
    if n != len(footprints):
        raise ValueError(
            f"{n} decisions but {len(footprints)} footprints"
        )
    succs: list[list[int]] = [[] for _ in range(n)]
    indegree = [0] * n
    edges: set[tuple[int, int]] = set()

    def add_edge(src: int, dst: int) -> None:
        if src == dst or (src, dst) in edges:
            return
        edges.add((src, dst))
        succs[src].append(dst)
        indegree[dst] += 1

    last_write: dict[str, int] = {}
    readers_since: dict[str, list[int]] = {}
    for i, fp in enumerate(footprints):
        for key, is_write in sorted(fp):
            if is_write:
                prev = last_write.get(key)
                if prev is not None:
                    add_edge(prev, i)
                for reader in readers_since.get(key, ()):
                    add_edge(reader, i)
                last_write[key] = i
                readers_since[key] = []
            else:
                prev = last_write.get(key)
                if prev is not None:
                    add_edge(prev, i)
                readers_since.setdefault(key, []).append(i)
        # Every decision implicitly reads the barrier key, so a
        # barrier write ("*", True) orders against all neighbours.
        prev = last_write.get("*")
        if prev is not None and ("*", True) not in fp:
            add_edge(prev, i)
        if ("*", True) not in fp:
            readers_since.setdefault("*", []).append(i)

    ready = [
        (decisions[i], i) for i in range(n) if indegree[i] == 0
    ]
    heapq.heapify(ready)
    out: list[str] = []
    while ready:
        _, i = heapq.heappop(ready)
        out.append(decisions[i])
        for j in succs[i]:
            indegree[j] -= 1
            if indegree[j] == 0:
                heapq.heappush(ready, (decisions[j], j))
    if len(out) != n:  # pragma: no cover - the graph is acyclic by
        raise ValueError("dependence graph has a cycle")  # construction
    return tuple(out)


class ScheduleError(ValueError):
    """A schedule document or strategy decision is unusable."""


class SchedulePoint(NamedTuple):
    """One scheduling decision: who may run now.

    ``candidates`` is the ready set in canonical order (by thread spawn
    order), ``index`` is the 0-based position of this decision in the
    execution, and ``time`` is the virtual instant the chosen action
    will execute at.  A named tuple: the simulator builds one per step.
    """

    index: int
    time: int
    candidates: tuple[str, ...]


@runtime_checkable
class SchedulerStrategy(Protocol):
    """Ready-set in, chosen thread out — the simulator's one seam.

    Every strategy but an exact :class:`RandomStrategy` is asked here
    once per decision.  The default strategy's step skips the seam (no
    :class:`SchedulePoint` is built) and calls
    :meth:`RandomStrategy.draw`; a subclass of it is asked like any
    other strategy.
    """

    def choose(self, point: SchedulePoint) -> str:
        ...  # pragma: no cover - protocol


@dataclass
class RandomStrategy:
    """The status-quo picker: seeded uniform choice among the ready set.

    Draws exactly what one ``Random.choice`` per decision draws —
    including singleton ready sets — which is precisely what the
    historical in-line scheduler RNG did, so the default path stays
    byte-identical.  The rule is :meth:`draw`; ``choose`` is that draw
    indexed into ``point.candidates``.  The simulator's step calls
    :meth:`draw` directly for an exact ``RandomStrategy``, once per
    step, so a subclass that overrides ``choose`` is still asked.
    """

    seed: int
    rng: Random = field(init=False, repr=False)

    def __post_init__(self) -> None:
        self.rng = Random(self.seed)

    def draw(self, n: int) -> int:
        """A uniform index in ``range(n)``: ``Random._randbelow``
        spelled out over ``getrandbits`` (``k`` from ``n.bit_length()``,
        draw again while ``r >= n``).  The one place the rule lives."""
        if not n:
            raise IndexError("cannot choose from an empty ready set")
        k = n.bit_length()
        getrandbits = self.rng.getrandbits
        r = getrandbits(k)
        while r >= n:
            r = getrandbits(k)
        return r

    def choose(self, point: SchedulePoint) -> str:
        candidates = point.candidates
        return candidates[self.draw(len(candidates))]


@dataclass(frozen=True)
class Schedule:
    """A recorded decision list: the reproducible identity of one
    interleaving of ``program``.

    ``decisions[i]`` is the thread chosen at the execution's *i*-th
    scheduling point.  ``seed`` is the simulator seed the recording ran
    under — replaying requires the same seed (fault draws and the trace
    header read it) plus the same program and interventions.
    """

    program: str
    seed: int
    decisions: tuple[str, ...]

    def __post_init__(self) -> None:
        if not isinstance(self.decisions, tuple):
            object.__setattr__(self, "decisions", tuple(self.decisions))

    def __len__(self) -> int:
        return len(self.decisions)

    def signature(self) -> str:
        """Content address of the *interleaving* (seed excluded): the
        same fingerprint scheme every other repro artifact uses."""
        return stable_digest(
            {"program": self.program, "decisions": list(self.decisions)}
        )

    def canonical_signature(
        self, footprints: Optional[Sequence[Footprint]] = None
    ) -> str:
        """Content address of the schedule's Mazurkiewicz equivalence
        class: the :func:`canonical_decisions` normal form, hashed the
        same way :meth:`signature` hashes the raw decision list (under
        a distinct key, so the two namespaces never collide).

        Without footprints (or with a stale list that no longer lines
        up with the decisions) there is no independence information, so
        the canonical class degenerates to the exact interleaving.

        This is a *search* equivalence, not a semantic one: commuting
        independent decisions preserves the dependence structure but
        may still shift virtual timestamps, so exploration uses it to
        steer budget (frontier admission, mutation energy), never to
        drop failures — those stay deduplicated by exact signature.
        """
        if footprints is None or len(footprints) != len(self.decisions):
            normal: tuple[str, ...] = self.decisions
        else:
            normal = canonical_decisions(self.decisions, footprints)
        return stable_digest(
            {"program": self.program, "canonical": list(normal)}
        )

    def transitions(self) -> frozenset[tuple[str, str]]:
        """The thread-handoff edges this schedule exercised — the
        coverage alphabet :mod:`repro.explore` deduplicates against.
        Includes the virtual start edge ``("", first)``."""
        edges = set()
        prev = ""
        for chosen in self.decisions:
            edges.add((prev, chosen))
            prev = chosen
        return frozenset(edges)

    # -- (de)serialization ------------------------------------------------

    def to_dict(self) -> dict:
        return {
            "schema": SCHEDULE_SCHEMA_VERSION,
            "program": self.program,
            "seed": self.seed,
            "decisions": list(self.decisions),
        }

    @classmethod
    def from_dict(cls, payload: dict) -> "Schedule":
        if not isinstance(payload, dict):
            raise ScheduleError(
                f"expected a schedule object, got {type(payload).__name__}"
            )
        schema = payload.get("schema")
        if type(schema) is not int or schema != SCHEDULE_SCHEMA_VERSION:
            raise ScheduleError(
                f"unsupported schedule schema {schema!r} "
                f"(this build reads version {SCHEDULE_SCHEMA_VERSION})"
            )
        fields = {k: v for k, v in payload.items() if k != "schema"}
        try:
            return decode(cls, fields, "schedule")
        except DecodeError as exc:
            raise ScheduleError(str(exc)) from exc

    def to_json(self, indent: Optional[int] = None) -> str:
        return json.dumps(self.to_dict(), indent=indent, sort_keys=True)

    @classmethod
    def from_json(cls, text: str) -> "Schedule":
        try:
            payload = json.loads(text)
        except json.JSONDecodeError as exc:
            raise ScheduleError(f"not valid JSON: {exc}") from exc
        return cls.from_dict(payload)

    @classmethod
    def load(cls, path: str | os.PathLike) -> "Schedule":
        path = Path(path)
        try:
            text = path.read_text()
        except OSError as exc:
            raise ScheduleError(f"cannot read {path}: {exc}") from exc
        return cls.from_json(text)

    def save(self, path: str | os.PathLike) -> Path:
        path = Path(path)
        path.write_text(self.to_json(indent=2) + "\n")
        return path


@dataclass
class ReplayStrategy:
    """Deterministic replay of a recorded :class:`Schedule`.

    Replays ``schedule.decisions`` verbatim (optionally only the first
    ``prefix`` of them), then hands any remaining decisions to ``tail``
    (default: the first candidate in canonical order).  A recorded
    decision whose thread is not in the ready set — or an execution
    that outlives a full-length recording — marks the replay
    ``diverged``: the program or interventions no longer match the
    recording.
    """

    schedule: Schedule
    #: replay only the first N decisions (``None`` = all) — the
    #: exploration driver's mutation operator: frozen prefix, novel tail
    prefix: Optional[int] = None
    #: strategy for decisions past the replayed prefix
    tail: Optional[SchedulerStrategy] = None
    diverged: bool = field(default=False, init=False)
    replayed: int = field(default=0, init=False)

    def choose(self, point: SchedulePoint) -> str:
        limit = len(self.schedule.decisions)
        if self.prefix is not None:
            limit = min(limit, self.prefix)
        if point.index < limit:
            wanted = self.schedule.decisions[point.index]
            if wanted in point.candidates:
                self.replayed += 1
                return wanted
            self.diverged = True
        elif self.prefix is None:
            # A pure replay should end exactly when the recording does.
            self.diverged = True
        if self.tail is not None:
            return self.tail.choose(point)
        return point.candidates[0]
