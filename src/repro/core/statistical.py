"""Statistical debugging (SD): precision/recall over predicate logs.

Given predicate logs labeled successful/failed, SD scores each predicate
by how well it discriminates failures (paper Section 2):

.. math::

    \\text{precision}(P) =
        \\frac{\\#\\text{failed executions where } P}{\\#\\text{executions where } P}
    \\qquad
    \\text{recall}(P) =
        \\frac{\\#\\text{failed executions where } P}{\\#\\text{failed executions}}

AID consumes only *fully-discriminative* predicates — precision and
recall both 100% — because counterfactual causality is meaningless for a
predicate that sometimes co-occurs with success (Sections 2-3).

One counter class serves every caller: :class:`StatisticalDebugger`
keeps per-pid ``[in_failed, in_success]`` integers.  Live sessions and
incremental ingests update them per inserted log, corpus shard tasks
fill them from the eval matrix's popcounts, and ``stats()`` never
rescans a log.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterable, Mapping, Optional, Sequence

from .predicates import Observation


@dataclass
class PredicateLog:
    """All predicate observations from one execution."""

    observations: Mapping[str, Observation]
    failed: bool
    seed: int = 0
    failure_signature: Optional[str] = None

    def observed(self, pid: str) -> bool:
        return pid in self.observations

    def time_of(self, pid: str) -> Optional[Observation]:
        return self.observations.get(pid)


@dataclass(frozen=True)
class PredicateStats:
    """Discriminative-power statistics for one predicate."""

    pid: str
    true_in_failed: int
    true_in_success: int
    n_failed: int
    n_success: int

    @property
    def precision(self) -> float:
        total_true = self.true_in_failed + self.true_in_success
        return self.true_in_failed / total_true if total_true else 0.0

    @property
    def recall(self) -> float:
        return self.true_in_failed / self.n_failed if self.n_failed else 0.0

    @property
    def f1(self) -> float:
        p, r = self.precision, self.recall
        return 2 * p * r / (p + r) if (p + r) else 0.0

    @property
    def fully_discriminative(self) -> bool:
        return self.precision == 1.0 and self.recall == 1.0 and self.n_failed > 0


@dataclass
class StatisticalDebugger:
    """SD statistics as plain integer counters, maintained per log.

    A batch SD run is this view filled from empty (in the spirit of
    Berkholz et al.'s FO+MOD incremental evaluation): every inserted log
    updates the counters in O(|observations|), and ``stats()`` reads
    them without a rescan.  Live sessions call :meth:`extend` with
    their logs; the corpus pipeline calls :meth:`merge` on per-shard
    counters and then :meth:`add` per ingested log.

    Key monotonicity fact the AC-DAG maintenance relies on: the
    fully-discriminative set only *shrinks* under insertions.  A pid with
    ``true_in_success > 0`` can never regain precision 1, and a pid that
    missed one failed log can never regain recall 1.
    """

    n_failed: int = 0
    n_success: int = 0
    #: pid -> [true_in_failed, true_in_success]
    counts: dict[str, list[int]] = field(default_factory=dict)

    def add(self, log: PredicateLog) -> None:
        self.add_observed(log.observations, failed=log.failed)

    def extend(self, logs: Iterable[PredicateLog]) -> "StatisticalDebugger":
        """Insert every log; returns ``self`` for chaining."""
        for log in logs:
            self.add(log)
        return self

    def add_observed(self, pids: Iterable[str], failed: bool) -> None:
        """Insert one execution given just its observed-pid set."""
        idx = 0 if failed else 1
        if failed:
            self.n_failed += 1
        else:
            self.n_success += 1
        for pid in pids:
            self.counts.setdefault(pid, [0, 0])[idx] += 1

    def merge(self, other: "StatisticalDebugger") -> "StatisticalDebugger":
        """Fold another debugger's counters into this one.

        Counters are plain sums, so merging per-shard debuggers (each
        built over a disjoint slice of the corpus) equals one debugger
        built over the whole corpus — how corpus evaluation sums its
        shards' counters.  Returns ``self`` for chaining.
        """
        self.n_failed += other.n_failed
        self.n_success += other.n_success
        for pid, (in_failed, in_success) in other.counts.items():
            counters = self.counts.setdefault(pid, [0, 0])
            counters[0] += in_failed
            counters[1] += in_success
        return self

    def all_pids(self) -> list[str]:
        return sorted(self.counts)

    def observed_in_failed(self, pid: str) -> int:
        """How many failed logs observe ``pid``."""
        return self.counts.get(pid, (0, 0))[0]

    def stats(self) -> dict[str, PredicateStats]:
        """Per-predicate precision/recall statistics, in pid order."""
        return {
            pid: PredicateStats(
                pid=pid,
                true_in_failed=in_failed,
                true_in_success=in_success,
                n_failed=self.n_failed,
                n_success=self.n_success,
            )
            for pid, (in_failed, in_success) in sorted(self.counts.items())
        }

    def discriminative(self, min_precision: float = 1.0, min_recall: float = 1.0):
        """Predicates meeting the precision/recall thresholds, ranked.

        With default thresholds this returns the *fully-discriminative*
        set that feeds the AC-DAG.
        """
        selected = [
            s
            for s in self.stats().values()
            if s.precision >= min_precision and s.recall >= min_recall
        ]
        return sorted(selected, key=lambda s: (-s.f1, s.pid))

    def fully_discriminative_pids(self) -> list[str]:
        """Precision = recall = 1 straight off the counters, pid-sorted."""
        n_failed = self.n_failed
        return sorted(
            pid
            for pid, (in_failed, in_success) in self.counts.items()
            if in_success == 0 and in_failed == n_failed and n_failed
        )

    def ranked(self) -> list[PredicateStats]:
        """All predicates ranked by F1 (classic SD output, for contrast).

        This is what a traditional statistical debugger hands the
        developer: a long list with no causal structure.  AID's
        improvement over this list is the whole point of the paper.
        """
        return sorted(self.stats().values(), key=lambda s: (-s.f1, s.pid))


def failure_and_fd(
    debugger: StatisticalDebugger,
    failure_pids: Sequence[str],
) -> tuple[Optional[str], list[str]]:
    """The failure predicate F and the fully-discriminative set the
    AC-DAG is built over, straight from SD counters.

    F is the first of the suite's (sorted) ``failure_pids`` that some
    failed log observes — ``None`` when none is; the FD set excludes
    every failure predicate.
    """
    failure = next(
        (pid for pid in failure_pids if debugger.observed_in_failed(pid)),
        None,
    )
    excluded = set(failure_pids)
    fully = [
        pid
        for pid in debugger.fully_discriminative_pids()
        if pid not in excluded
    ]
    return failure, fully


def split_logs(
    logs: Iterable[PredicateLog],
) -> tuple[list[PredicateLog], list[PredicateLog]]:
    """Partition logs into (successful, failed)."""
    succ: list[PredicateLog] = []
    fail: list[PredicateLog] = []
    for log in logs:
        (fail if log.failed else succ).append(log)
    return succ, fail
