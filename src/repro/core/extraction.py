"""Predicate extraction: from execution traces to predicate logs.

Mirrors the paper's two-phase design (Appendix A): the *instrumentation*
(our simulator) records raw execution traces; extraction happens offline
and can be re-designed after the fact.  Each :class:`Extractor` scans a
corpus of labeled traces and proposes :class:`PredicateDef` candidates;
the resulting :class:`PredicateSuite` is then frozen and used to
evaluate *any* trace — including traces produced later under
intervention, which is how intervention outcomes are interpreted.

Extractors only *propose* predicates; discriminative filtering is the
job of :mod:`repro.core.statistical`.  Discovery is one path: every
extractor, default or third-party, proposes through its own
:meth:`Extractor.discover` over the raw traces.
"""

from __future__ import annotations

from collections import defaultdict
from dataclasses import dataclass, field
from typing import Iterable, Literal, Optional, Sequence

from ..decode import decode, encode
from ..sim.program import Program
from ..sim.serialize import stable_digest
from ..sim.tracing import ExecutionTrace, MethodExecution, MethodKey
from .evalkernel import SuiteKernel, ordered_cross_thread_pairs, race_candidates
from .predicates import (
    PREDICATE_FORMAT_VERSION,
    CompoundAndPredicate,
    DataRacePredicate,
    ExecutedPredicate,
    FailurePredicate,
    MethodFailsPredicate,
    Observation,
    OrderViolationPredicate,
    PredicateDef,
    TooFastPredicate,
    TooSlowPredicate,
    WrongReturnPredicate,
)
from .statistical import PredicateLog

#: Exception kinds that mark harness artifacts, not program behaviour.
IGNORED_EXCEPTIONS = frozenset({"Unfinished"})


class Extractor:
    """Base class: proposes predicate definitions from labeled traces."""

    def discover(
        self,
        successes: Sequence[ExecutionTrace],
        failures: Sequence[ExecutionTrace],
    ) -> list[PredicateDef]:
        raise NotImplementedError


def _hashable(value: object) -> bool:
    try:
        hash(value)
    except TypeError:
        return False
    return True


def _executions_by_key(
    traces: Sequence[ExecutionTrace],
) -> dict[MethodKey, list[MethodExecution]]:
    by_key: dict[MethodKey, list[MethodExecution]] = defaultdict(list)
    for trace in traces:
        for m in trace.method_executions():
            by_key[m.key].append(m)
    return by_key


class MethodFailsExtractor(Extractor):
    """One predicate per (invocation, exception kind) seen anywhere."""

    def discover(self, successes, failures):
        seen: set[tuple[MethodKey, str]] = set()
        for trace in list(successes) + list(failures):
            for m in trace.method_executions():
                if m.exception and m.exception not in IGNORED_EXCEPTIONS:
                    seen.add((m.key, m.exception))
        return [
            MethodFailsPredicate(key=key, exc_kind=exc)
            for key, exc in sorted(seen, key=lambda t: (t[0], t[1]))
        ]


class DurationExtractor(Extractor):
    """Too-slow and too-fast predicates from success-duration envelopes.

    For an invocation key present in successful runs, the successful
    durations define an envelope ``[min, max]``.  A failed run falling
    outside the envelope yields a candidate predicate whose threshold is
    the envelope edge (Figure 2 rows 3-4) — widened by ``slack``,
    because method durations in a concurrent program include
    scheduling-interleave noise of a few ticks and a razor-edge
    threshold would flip on re-execution (the paper's thresholds face
    the same clock-granularity caveat it discusses in Section 4).
    """

    def __init__(self, slack_fraction: float = 0.25, slack_min: int = 5) -> None:
        self.slack_fraction = slack_fraction
        self.slack_min = slack_min

    def _slack(self, value: int) -> int:
        return max(self.slack_min, int(value * self.slack_fraction))

    def discover(self, successes, failures):
        succ = _executions_by_key(successes)
        fail = _executions_by_key(failures)
        preds: list[PredicateDef] = []
        for key in sorted(set(succ) & set(fail)):
            ok = [m for m in succ[key] if m.exception is None]
            if not ok:
                continue
            durations = [m.duration for m in ok]
            lo, hi = min(durations), max(durations)
            lo = max(1, lo - self._slack(lo))
            hi = hi + self._slack(hi)
            returns = {m.return_value for m in ok if _hashable(m.return_value)}
            correct = next(iter(returns)) if len(returns) == 1 else None
            # Only completed invocations count: a crashed method's
            # duration is an artifact of where it died, and the crash is
            # already captured by a method-fails predicate.
            completed = [m for m in fail[key] if m.exception is None]
            if any(m.duration > hi for m in completed):
                preds.append(
                    TooSlowPredicate(key=key, threshold=hi, correct_return=correct)
                )
            if any(m.duration < lo for m in completed):
                preds.append(TooFastPredicate(key=key, threshold=lo))
        return preds


class WrongReturnExtractor(Extractor):
    """Return-value mismatch against a constant successful value."""

    def discover(self, successes, failures):
        succ = _executions_by_key(successes)
        fail = _executions_by_key(failures)
        preds: list[PredicateDef] = []
        for key in sorted(set(succ) & set(fail)):
            ok_returns = {
                m.return_value
                for m in succ[key]
                if m.exception is None and _hashable(m.return_value)
            }
            if len(ok_returns) != 1:
                continue  # no unique "correct value" to compare/repair with
            correct = next(iter(ok_returns))
            mismatch = any(
                m.exception is None and m.return_value != correct for m in fail[key]
            )
            if mismatch:
                preds.append(WrongReturnPredicate(key=key, correct_value=correct))
        return preds


class DataRaceExtractor(Extractor):
    """Lockset-based race candidates from any trace where they fire.

    Per trace, :func:`~repro.core.evalkernel.race_candidates` pairs only
    overlapping cross-thread calls that access a common object, so the
    cost follows the traces' accesses, not their call count.
    """

    def discover(self, successes, failures):
        candidates: set[tuple[MethodKey, MethodKey, str]] = set()
        for trace in list(failures) + list(successes):
            candidates |= race_candidates(trace)
        return [
            DataRacePredicate(a=a, b=b, obj=obj)
            for a, b, obj in sorted(candidates, key=lambda t: (t[2], t[0], t[1]))
        ]


class OrderViolationExtractor(Extractor):
    """Pairs strictly ordered in every success but flipped in a failure.

    To avoid a quadratic explosion of trivially-ordered pairs (every
    parent/child call, every sequential statement) we only keep pairs
    running on *different threads* — order violations are a concurrency
    phenomenon (Lu et al.'s study, cited in the paper).
    """

    def discover(self, successes, failures):
        if not successes:
            return []
        ordered: Optional[set[tuple[MethodKey, MethodKey]]] = None
        # per-key latest end / earliest start over successful traces
        latest_end: dict[MethodKey, int] = {}
        earliest_start: dict[MethodKey, int] = {}
        for trace in successes:
            execs = trace.method_executions()
            # Sort-based sweep: output-sensitive, identical pair set to
            # the all-pairs comparison walk it replaced.
            pairs = ordered_cross_thread_pairs(execs)
            ordered = pairs if ordered is None else (ordered & pairs)
            for m in execs:
                key = m.key
                if m.end_time > latest_end.get(key, 0):
                    latest_end[key] = m.end_time
                if m.start_time < earliest_start.get(key, float("inf")):
                    earliest_start[key] = m.start_time
        violated: list[tuple[MethodKey, MethodKey]] = []
        for first, second in sorted(ordered):
            for trace in failures:
                mf, ms = trace.lookup(first), trace.lookup(second)
                if mf and ms and ms.start_time < mf.end_time:
                    violated.append((first, second))
                    break
        # Canonicalize: when several invocations on one side are all
        # ordered before the same `second` and all flip together (e.g.
        # every consumer-thread method precedes the premature Dispose),
        # only the *tightest* constraint is a meaningful predicate — the
        # `first` that ends latest in successful runs.  The looser pairs
        # are implied by it and would each register as a separate,
        # redundant fully-discriminative predicate.
        tightest: dict[MethodKey, tuple[MethodKey, MethodKey]] = {}
        for first, second in violated:
            current = tightest.get(second)
            if current is None or latest_end.get(first, 0) > latest_end.get(
                current[0], 0
            ):
                tightest[second] = (first, second)
        # Symmetric pass: several `second`s under one `first` (a call and
        # its nested children all start early together) collapse to the
        # earliest-starting one.
        by_first: dict[MethodKey, tuple[MethodKey, MethodKey]] = {}
        for first, second in tightest.values():
            current = by_first.get(first)
            if current is None or earliest_start.get(
                second, float("inf")
            ) < earliest_start.get(current[1], float("inf")):
                by_first[first] = (first, second)
        return [
            OrderViolationPredicate(first=first, second=second)
            for first, second in sorted(by_first.values())
        ]


class MethodExecutedExtractor(Extractor):
    """"M executes" predicates for invocations absent from some runs.

    Invocations present in every trace are invariants (never
    discriminative), so only keys that appear in at least one failed
    trace and are missing from at least one trace become candidates.
    """

    def discover(self, successes, failures):
        seen_in: dict[MethodKey, int] = defaultdict(int)
        in_failed: set[MethodKey] = set()
        for failed, traces in ((False, successes), (True, failures)):
            for trace in traces:
                # a trace's index keys are its key set (unique per trace)
                keys = trace.executions_by_key().keys()
                for key in keys:
                    seen_in[key] += 1
                if failed:
                    in_failed |= keys
        n_traces = len(successes) + len(failures)
        candidates = [key for key in in_failed if seen_in[key] < n_traces]
        return [ExecutedPredicate(key=key) for key in sorted(candidates)]


class CompoundConjunctionExtractor(Extractor):
    """Conjunctions for nondeterministic causes (paper Section 3.2).

    When predicates A and B only cause the failure *together*, neither
    is fully discriminative (each also fires alone in successful runs),
    so plain AID would drop both.  This extractor composes base
    predicates discovered by ``inner`` extractors into pairwise
    conjunctions when

    * both conjuncts hold in **every** failed trace (a conjunction can
      only be fully discriminative if each part has perfect recall), and
    * neither conjunct is individually failure-equivalent already (the
      compound would be redundant), and
    * the conjunction never holds in a successful trace.

    The SD filter downstream re-checks full discrimination; this
    extractor only proposes sound candidates.  Intervening on a
    conjunction repairs every part, which certainly falsifies it.
    """

    def __init__(
        self,
        inner: Optional[Sequence[Extractor]] = None,
        max_compounds: int = 32,
    ) -> None:
        self.inner = list(inner) if inner is not None else None
        self.max_compounds = max_compounds

    def discover(self, successes, failures):
        inner = (
            self.inner
            if self.inner is not None
            else [
                e
                for e in default_extractors()
                if not isinstance(e, FailureExtractor)
            ]
        )
        base: dict[str, PredicateDef] = {}
        for extractor in inner:
            for pred in extractor.discover(successes, failures):
                base.setdefault(pred.pid, pred)

        # Truth tables of each base predicate over the corpus.
        succ_truth: dict[str, list[bool]] = {}
        fail_truth: dict[str, list[bool]] = {}
        for pid, pred in base.items():
            succ_truth[pid] = [pred.evaluate(t) is not None for t in successes]
            fail_truth[pid] = [pred.evaluate(t) is not None for t in failures]

        perfect_recall = [
            pid for pid in sorted(base) if all(fail_truth[pid])
        ]
        already_perfect = {
            pid
            for pid in perfect_recall
            if not any(succ_truth[pid])
        }
        candidates = [p for p in perfect_recall if p not in already_perfect]

        compounds: list[PredicateDef] = []
        for i, pid_a in enumerate(candidates):
            for pid_b in candidates[i + 1 :]:
                together_in_success = any(
                    a and b
                    for a, b in zip(succ_truth[pid_a], succ_truth[pid_b])
                )
                if together_in_success:
                    continue
                compounds.append(
                    CompoundAndPredicate(parts=(base[pid_a], base[pid_b]))
                )
                if len(compounds) >= self.max_compounds:
                    return compounds
        return compounds


class FailureExtractor(Extractor):
    """One failure predicate per distinct failure signature."""

    def discover(self, successes, failures):
        signatures = sorted(
            {t.failure.signature for t in failures if t.failure is not None}
        )
        return [FailurePredicate(signature=s) for s in signatures]


def default_extractors() -> list[Extractor]:
    """The paper's Figure 2 catalogue, in a deterministic order."""
    return [
        DataRaceExtractor(),
        MethodFailsExtractor(),
        DurationExtractor(),
        WrongReturnExtractor(),
        OrderViolationExtractor(),
        MethodExecutedExtractor(),
        FailureExtractor(),
    ]


@dataclass(frozen=True)
class _SuitePayload:
    """A suite as :meth:`PredicateSuite.to_dict` writes it."""

    version: Literal[PREDICATE_FORMAT_VERSION]
    predicates: list[PredicateDef]

    def __post_init__(self) -> None:
        if len({p.pid for p in self.predicates}) != len(self.predicates):
            raise ValueError("predicates: a pid appears twice")

    @classmethod
    def of(cls, suite: "PredicateSuite") -> "_SuitePayload":
        return cls(PREDICATE_FORMAT_VERSION, list(suite.defs.values()))

    def to_suite(self) -> "PredicateSuite":
        return PredicateSuite(defs={p.pid: p for p in self.predicates})


@dataclass
class PredicateSuite:
    """A frozen set of predicate definitions, evaluable on any trace."""

    defs: dict[str, PredicateDef] = field(default_factory=dict)

    @classmethod
    def discover(
        cls,
        successes: Sequence[ExecutionTrace],
        failures: Sequence[ExecutionTrace],
        extractors: Optional[Iterable[Extractor]] = None,
        program: Optional[Program] = None,
        safe_only: bool = True,
    ) -> "PredicateSuite":
        """Run all extractors over a labeled corpus and build the suite.

        When ``program`` is given and ``safe_only`` is set, predicates
        whose interventions are unsafe (Section 3.3) are dropped — except
        failure predicates, which are never intervened on.
        """
        if extractors is None:
            extractors = default_extractors()
        defs: dict[str, PredicateDef] = {}
        for extractor in extractors:
            for pred in extractor.discover(successes, failures):
                defs.setdefault(pred.pid, pred)
        if program is not None and safe_only:
            defs = {
                pid: p
                for pid, p in defs.items()
                if isinstance(p, FailurePredicate) or p.is_safe(program)
            }
        return cls(defs=defs)

    def __len__(self) -> int:
        return len(self.defs)

    @property
    def fingerprint(self) -> str:
        """Stable identity of the frozen suite: digest over every
        predicate's full definition digest (see
        :meth:`~repro.core.predicates.PredicateDef.definition_digest`).
        Persistent evaluation memos use this to notice suite drift."""
        return stable_digest(
            {pid: p.definition_digest() for pid, p in self.defs.items()}
        )

    def __contains__(self, pid: str) -> bool:
        return pid in self.defs

    def __getitem__(self, pid: str) -> PredicateDef:
        return self.defs[pid]

    def pids(self) -> list[str]:
        return sorted(self.defs)

    def failure_pids(self) -> list[str]:
        return sorted(
            pid for pid, p in self.defs.items() if isinstance(p, FailurePredicate)
        )

    def to_dict(self) -> dict:
        """The frozen suite as a JSON-able payload (order-preserving).

        Inverse: :meth:`from_dict`.  Round-tripping preserves every pid,
        the definition order, and the suite :attr:`fingerprint` — which
        is what lets a persisted suite stand in for rediscovery (see
        ``repro corpus analyze`` warm starts)."""
        return encode(_SuitePayload.of(self))

    @classmethod
    def from_dict(cls, raw: dict) -> "PredicateSuite":
        """Rebuild a suite serialized by :meth:`to_dict`; a malformed
        payload is a :class:`ValueError` naming the field."""
        return decode(_SuitePayload, raw, "suite").to_suite()

    def kernel(self) -> SuiteKernel:
        """The suite's batch evaluator, built once per frozen pid set.

        Rebuilt automatically when ``defs`` gains or loses pids (e.g. a
        suite assembled incrementally); replacing a predicate object
        in-place under an unchanged pid is not supported — freeze a new
        suite instead.
        """
        cached = getattr(self, "_kernel", None)
        if cached is None or cached.pids != tuple(self.defs):
            cached = SuiteKernel(self.defs)
            self._kernel = cached
        return cached

    def evaluate(self, trace: ExecutionTrace, seed: int = 0) -> PredicateLog:
        """Evaluate every predicate on one trace → a predicate log.

        Routed through the :meth:`kernel` — one indexed pass per trace,
        byte-identical to the per-predicate ``pred.evaluate(trace)``
        loop it replaced (same observations, same order).
        """
        return self._log(self.kernel(), trace, seed)

    def evaluate_all(self, traces: Sequence[ExecutionTrace]) -> list[PredicateLog]:
        kernel = self.kernel()
        return [self._log(kernel, t, t.seed) for t in traces]

    @staticmethod
    def _log(kernel: SuiteKernel, trace: ExecutionTrace, seed: int) -> PredicateLog:
        return PredicateLog(
            observations=kernel.observations(trace),
            failed=trace.failed,
            seed=seed,
            failure_signature=(
                trace.failure.signature if trace.failure is not None else None
            ),
        )

    def restrict(self, pids: Iterable[str]) -> "PredicateSuite":
        keep = set(pids)
        return PredicateSuite(
            defs={pid: p for pid, p in self.defs.items() if pid in keep}
        )
