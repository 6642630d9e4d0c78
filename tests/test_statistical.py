"""Statistical debugging: precision, recall, discriminative filtering."""

from __future__ import annotations

from hypothesis import given, strategies as st

from repro.core.predicates import Observation
from repro.core.statistical import (
    PredicateLog,
    PredicateStats,
    StatisticalDebugger,
    split_logs,
)


def _log(pids, failed, seed=0):
    return PredicateLog(
        observations={pid: Observation(i, i + 1) for i, pid in enumerate(pids)},
        failed=failed,
        seed=seed,
    )


class TestStats:
    def test_paper_definitions(self):
        # P true in 3 of 4 failed runs and 1 successful run.
        logs = (
            [_log(["P"], True)] * 3
            + [_log([], True)]
            + [_log(["P"], False)]
            + [_log([], False)] * 2
        )
        sd = StatisticalDebugger().extend(logs)
        stats = sd.stats()["P"]
        assert stats.precision == 3 / 4
        assert stats.recall == 3 / 4
        assert 0 < stats.f1 < 1

    def test_fully_discriminative_requires_both_perfect(self):
        logs = [_log(["A", "B"], True), _log(["A"], True), _log(["B"], False)]
        sd = StatisticalDebugger().extend(logs)
        stats = sd.stats()
        assert stats["A"].fully_discriminative
        assert not stats["B"].fully_discriminative  # precision < 1
        assert sd.fully_discriminative_pids() == ["A"]

    def test_invariant_predicate_excluded(self):
        logs = [_log(["INV"], True)] * 5 + [_log(["INV"], False)] * 5
        sd = StatisticalDebugger().extend(logs)
        assert sd.fully_discriminative_pids() == []
        assert sd.stats()["INV"].precision == 0.5

    def test_ranked_orders_by_f1(self):
        logs = [
            _log(["good", "meh"], True),
            _log(["good"], True),
            _log(["meh"], False),
            _log([], False),
        ]
        ranked = StatisticalDebugger().extend(logs).ranked()
        assert [s.pid for s in ranked] == ["good", "meh"]

    def test_zero_counts_do_not_crash(self):
        stats = PredicateStats(
            pid="P", true_in_failed=0, true_in_success=0, n_failed=0, n_success=0
        )
        assert stats.precision == 0.0
        assert stats.recall == 0.0
        assert stats.f1 == 0.0
        assert not stats.fully_discriminative

    def test_split_logs(self):
        logs = [_log([], True), _log([], False), _log([], True)]
        succ, fail = split_logs(logs)
        assert len(succ) == 1 and len(fail) == 2


@given(
    st.lists(
        st.tuples(st.sets(st.sampled_from("ABCDE")), st.booleans()),
        min_size=1,
        max_size=40,
    )
)
def test_property_precision_recall_bounds(corpus):
    """Precision/recall/F1 always land in [0, 1]; counts are consistent."""
    logs = [_log(sorted(pids), failed) for pids, failed in corpus]
    sd = StatisticalDebugger().extend(logs)
    n_failed = sum(1 for __, failed in corpus if failed)
    assert sd.n_failed == n_failed
    assert sd.n_success == len(corpus) - n_failed
    for stats in sd.stats().values():
        assert 0.0 <= stats.precision <= 1.0
        assert 0.0 <= stats.recall <= 1.0
        assert 0.0 <= stats.f1 <= 1.0
        assert stats.true_in_failed <= n_failed


@given(
    st.lists(
        st.tuples(st.sets(st.sampled_from("ABCDE")), st.booleans()),
        min_size=1,
        max_size=40,
    )
)
def test_property_fully_discriminative_iff_label_equivalent(corpus):
    """P is fully discriminative iff 'P observed' ⇔ 'run failed'."""
    logs = [_log(sorted(pids), failed) for pids, failed in corpus]
    sd = StatisticalDebugger().extend(logs)
    has_failure = any(failed for __, failed in corpus)
    fully = set(sd.fully_discriminative_pids())
    for pid in sd.all_pids():
        equivalent = all(
            (pid in pids) == failed for pids, failed in corpus
        )
        assert (pid in fully) == (equivalent and has_failure)
