"""AC-DAG construction: edges, invariants, junctions, branches."""

from __future__ import annotations

from collections import Counter

import pytest
from hypothesis import given, settings, strategies as st

from repro.core.acdag import ACDag, GraphInvariantError, log_columns
from repro.core.digraph import Digraph
from repro.core.extraction import PredicateSuite
from repro.core.precedence import (
    EndTimePolicy,
    KindAnchorPolicy,
    LamportAnchorPolicy,
    StartTimePolicy,
    default_policy,
)
from repro.core.predicates import (
    ExecutedPredicate,
    FailurePredicate,
    MethodFailsPredicate,
    Observation,
)
from repro.core.statistical import PredicateLog
from repro.sim.serialize import trace_from_dict
from repro.sim.tracing import MethodKey
from repro.workloads.common import REGISTRY

from conftest import case_study_session
from gen import make_corpus

F = "FAILURE[f]"


def _defs(pids):
    defs = {
        pid: ExecutedPredicate(key=MethodKey(pid, "t", 0)) for pid in pids
    }
    failure = FailurePredicate(signature="f")
    defs[F] = failure
    return defs


def _build(defs, logs, failure, policy=None, candidate_pids=None):
    """``ACDag.build`` over the anchor columns cut from ``logs``: the
    candidates (every pid of ``defs`` by default) and F."""
    pids = set(defs if candidate_pids is None else candidate_pids)
    return ACDag.build(
        defs, log_columns(logs, pids | {failure}), failure, policy=policy
    )


def _log(times: dict[str, int], f_time: int, seed=0) -> PredicateLog:
    observations = {pid: Observation(t, t) for pid, t in times.items()}
    observations[F] = Observation(f_time, f_time)
    return PredicateLog(observations=observations, failed=True, seed=seed)


class TestBuild:
    def test_consistent_order_creates_edge(self):
        defs = _defs(["A", "B"])
        logs = [_log({"A": 1, "B": 5}, 9), _log({"A": 2, "B": 7}, 9)]
        dag = _build(defs, logs, F)
        assert dag.reaches("A", "B")
        assert not dag.reaches("B", "A")
        assert dag.reaches("A", F) and dag.reaches("B", F)

    def test_inconsistent_order_creates_no_edge(self):
        defs = _defs(["A", "B"])
        logs = [_log({"A": 1, "B": 5}, 9), _log({"A": 7, "B": 2}, 9)]
        dag = _build(defs, logs, F)
        assert not dag.reaches("A", "B")
        assert not dag.reaches("B", "A")

    def test_tie_creates_no_edge_between_predicates(self):
        defs = _defs(["A", "B"])
        logs = [_log({"A": 3, "B": 3}, 9)]
        dag = _build(defs, logs, F)
        assert not dag.reaches("A", "B") and not dag.reaches("B", "A")

    def test_failure_tie_still_precedes_failure(self):
        """F is terminal: a predicate anchored AT the failure instant
        still precedes it (the crash records both simultaneously)."""
        defs = _defs(["A"])
        dag = _build(defs, [_log({"A": 9}, 9)], F)
        assert dag.reaches("A", F)

    def test_post_failure_predicates_discarded(self):
        defs = _defs(["A", "CLEANUP"])
        logs = [_log({"A": 1, "CLEANUP": 20}, 9)]
        dag = _build(defs, logs, F)
        assert "CLEANUP" not in dag
        assert "no temporal path" in dag.discarded["CLEANUP"]

    def test_unreachable_side_predicates_discarded(self):
        # X is incomparable with F (before in one log, after in another).
        defs = _defs(["A", "X"])
        logs = [_log({"A": 1, "X": 5}, 9), _log({"A": 1, "X": 12}, 9)]
        dag = _build(defs, logs, F)
        assert "X" not in dag

    def test_missing_in_some_failed_log_discarded(self):
        defs = _defs(["A", "FLAKY"])
        logs = [_log({"A": 1, "FLAKY": 2}, 9), _log({"A": 1}, 9)]
        dag = _build(defs, logs, F)
        assert "FLAKY" not in dag
        assert "every failed log" in dag.discarded["FLAKY"]

    def test_requires_failed_logs(self):
        with pytest.raises(GraphInvariantError):
            _build(_defs([]), [], F)

    def test_rejects_cyclic_graph(self):
        graph = Digraph([("A", "B"), ("B", "A"), ("A", F)])
        with pytest.raises(GraphInvariantError):
            ACDag(graph=graph, failure=F)

    def test_failure_must_be_present(self):
        with pytest.raises(GraphInvariantError):
            ACDag(graph=Digraph([("A", "B")]), failure=F)

    def test_update_uses_the_policy_the_dag_was_built_under(self):
        """Re-folding a log the DAG was built on changes nothing: the
        update anchors with the build's policy, not the default."""
        a = ExecutedPredicate(key=MethodKey("A", "t", 0))
        b = MethodFailsPredicate(key=MethodKey("B", "t", 0), exc_kind="E")
        defs = {a.pid: a, b.pid: b, F: FailurePredicate(signature="f")}
        observations = {
            a.pid: Observation(1, 10),
            b.pid: Observation(2, 8),
            F: Observation(12, 12),
        }
        log = PredicateLog(observations=observations, failed=True, seed=0)
        # end anchors: B (8) before A (10); kind anchors would put A
        # (start 1) before B (end 8)
        dag = _build(defs, [log], F, policy=EndTimePolicy())
        assert dag.reaches(b.pid, a.pid)
        before = dag.structure()
        assert dag.copy().update_failed_log(log) == set()
        assert dag.update_failed_log(log) == set()
        assert dag.structure() == before

    def test_update_without_failure_changes_nothing(self):
        """A failed log that does not observe F is refused before the
        DAG is touched: no node is marked discarded on the way."""
        dag = _build(_defs(["A"]), [_log({"A": 1}, 9)], F)
        before = dag.copy()
        empty = PredicateLog(observations={}, failed=True, seed=1)
        with pytest.raises(GraphInvariantError):
            dag.update_failed_log(empty)
        assert dag.structure() == before.structure()
        assert dag.discarded == before.discarded == {}
        assert dag.n_failed_logs == before.n_failed_logs == 1


def _chain_dag(*chains, merge=None):
    """Transitively-closed DAG of parallel chains merging into F."""
    graph = Digraph()
    graph.add_node(F)
    for chain in chains:
        for i, a in enumerate(chain):
            graph.add_edge(a, F)
            for b in chain[i + 1 :]:
                graph.add_edge(a, b)
            if merge:
                graph.add_edge(a, merge)
    if merge:
        graph.add_edge(merge, F)
    return ACDag(graph=graph, failure=F)


class TestStructure:
    def test_topological_levels_of_parallel_chains(self):
        dag = _chain_dag(["A1", "A2"], ["B1", "B2"])
        levels = dag.topological_levels(among=dag.predicates)
        assert levels[0] == ["A1", "B1"]
        assert levels[1] == ["A2", "B2"]

    def test_minimal_elements_shrink_as_processed(self):
        dag = _chain_dag(["A1", "A2"], ["B1"])
        assert dag.minimal_elements(among={"A2", "B1"}) == ["A2", "B1"]

    def test_branches_exclude_shared_descendants(self):
        dag = _chain_dag(["A1", "A2"], ["B1", "B2"], merge="M")
        branches = {b.head: b for b in dag.branches_at(["A1", "B1"])}
        assert branches["A1"].members == {"A1", "A2"}
        assert branches["B1"].members == {"B1", "B2"}
        # M is reachable from both heads → in neither branch; F never is.

    def test_remove_keeps_failure(self):
        dag = _chain_dag(["A1", "A2"])
        dag.remove(["A1", F])
        assert F in dag
        assert "A1" not in dag

    def test_transitive_reduction_and_dot(self):
        dag = _chain_dag(["A1", "A2", "A3"])
        reduced = dag.transitive_reduction()
        assert reduced.has_edge("A1", "A2")
        assert not reduced.has_edge("A1", "A3")
        dot = dag.to_dot()
        assert "doubleoctagon" in dot and "A1" in dot

    def test_copy_is_independent(self):
        dag = _chain_dag(["A1", "A2"])
        clone = dag.copy()
        clone.remove(["A1"])
        assert "A1" in dag and "A1" not in clone


@settings(max_examples=40)
@given(
    st.lists(
        st.lists(st.integers(0, 60), min_size=1, max_size=6),
        min_size=2,
        max_size=6,
    )
)
def test_property_built_dag_is_acyclic_and_transitive(log_times):
    """For arbitrary anchor patterns the built AC-DAG is a transitively
    closed DAG whose nodes are all ancestors of F."""
    width = min(len(log) for log in log_times)
    pids = [f"P{i}" for i in range(width)]
    defs = _defs(pids)
    logs = []
    for row in log_times:
        times = {pid: row[i] for i, pid in enumerate(pids)}
        logs.append(_log(times, f_time=100))
    dag = _build(defs, logs, F)
    graph = dag.graph
    assert len(graph.topological_order()) == len(graph)  # raises on a cycle
    for a, b in graph.edges:
        for c in graph.successors(b):
            if c != a:
                assert graph.has_edge(a, c), "transitive closure broken"
    for node in dag.predicates:
        assert dag.reaches(node, F)


# ---------------------------------------------------------------------------
# the bitset kernel ≡ the pairwise construction it replaced
# ---------------------------------------------------------------------------


def _pairwise_build(defs, failed_logs, failure, policy=None, candidate_pids=None):
    """The oracle: ``ACDag.build`` as pairwise ``all(...)`` loops over
    every pair of candidates and every failed log."""
    policy = policy or default_policy()
    pids = set(candidate_pids) if candidate_pids is not None else set(defs)
    pids.add(failure)
    discarded = {}
    anchors = {}
    for pid in sorted(pids):
        series = []
        for log in failed_logs:
            obs = log.time_of(pid)
            if obs is None:
                break
            series.extend(policy.anchors(defs[pid], [obs]))
        if len(series) == len(failed_logs):
            anchors[pid] = series
        else:
            discarded[pid] = "not observed in every failed log"
    if failure not in anchors:
        raise GraphInvariantError("failure predicate unobserved")
    graph = Digraph()
    for pid in anchors:
        graph.add_node(pid)
    nodes = sorted(set(anchors) - {failure})
    for i, p1 in enumerate(nodes):
        for p2 in nodes[i + 1 :]:
            s1, s2 = anchors[p1], anchors[p2]
            if all(a < b for a, b in zip(s1, s2)):
                graph.add_edge(p1, p2)
            elif all(b < a for a, b in zip(s1, s2)):
                graph.add_edge(p2, p1)
    f_series = anchors[failure]
    for pid in nodes:
        series = anchors[pid]
        if all(a <= f for a, f in zip(series, f_series)):
            graph.add_edge(pid, failure)
        elif all(f < a for a, f in zip(series, f_series)):
            graph.add_edge(failure, pid)
    dag = ACDag(
        graph=graph,
        failure=failure,
        defs=dict(defs),
        discarded=discarded,
        n_failed_logs=len(failed_logs),
        policy=policy,
    )
    dag._prune_non_ancestors()
    return dag


def _pairwise_update(dag, log):
    """The oracle: ``update_failed_log`` as one anchor comparison per
    edge, under the DAG's own policy."""
    policy = dag.policy
    removed = set()
    anchors = {}
    for pid in sorted(dag.graph.nodes):
        obs = log.time_of(pid)
        if obs is None:
            removed.add(pid)
            dag.discarded[pid] = "not observed in every failed log"
        else:
            (anchors[pid],) = policy.anchors(dag.defs[pid], [obs])
    dag.graph.remove_nodes_from(removed)
    for a, b in dag.graph.edges:
        holds = (
            anchors[a] <= anchors[b]
            if b == dag.failure
            else anchors[a] < anchors[b]
        )
        if not holds:
            dag.graph.remove_edge(a, b)
    dag.n_failed_logs += 1
    return removed | dag._prune_non_ancestors()


def _assert_same_build(defs, logs, failure, **kwargs):
    """``ACDag.build`` equals the oracle, ``discarded`` order included;
    returns the built DAG."""
    dag = _build(defs, logs, failure, **kwargs)
    oracle = _pairwise_build(defs, logs, failure, **kwargs)
    assert dag.structure() == oracle.structure()
    assert list(dag.discarded.items()) == list(oracle.discarded.items())
    assert list(dag.graph.nodes) == list(oracle.graph.nodes)
    assert dag.n_failed_logs == oracle.n_failed_logs
    return dag


def _assert_fold_equals_build(defs, logs, failure, **kwargs):
    """Build on log 1, patch with logs 2..n (checking each patch
    against the per-edge oracle), and land on ``build`` over all n."""
    dag = _build(defs, logs[:1], failure, **kwargs)
    for log in logs[1:]:
        oracle = dag.copy()
        removed = dag.update_failed_log(log)
        assert removed == _pairwise_update(oracle, log)
        assert dag.structure() == oracle.structure()
        assert dag.discarded == oracle.discarded
    full = _build(defs, logs, failure, **kwargs)
    assert dag.structure() == full.structure()
    assert set(dag.discarded) == set(full.discarded)
    assert dag.n_failed_logs == full.n_failed_logs == len(logs)


class _SpanPolicy(KindAnchorPolicy):
    """A subclass that overrides only ``anchors``: build and update must
    both see its anchors, not the kind-anchored ones."""

    def anchors(self, pred, observations):
        return [float(obs.start + obs.end) for obs in observations]


POLICIES = [
    KindAnchorPolicy(),
    LamportAnchorPolicy(),
    StartTimePolicy(),
    EndTimePolicy(),
    _SpanPolicy(),
]


class TestKernelMatchesPairwise:
    @pytest.mark.parametrize("name", sorted(REGISTRY.names()))
    def test_case_studies(self, name):
        session = case_study_session(name)
        defs = dict(session._suite.defs)
        logs = session._failed_logs
        failure = session.failure_pid
        edges = 0
        for policy in POLICIES:
            for candidates in (session.fully_discriminative, None):
                dag = _assert_same_build(
                    defs, logs, failure, policy=policy, candidate_pids=candidates
                )
                edges += dag.graph.number_of_edges()
            _assert_fold_equals_build(
                defs,
                logs,
                failure,
                policy=policy,
                candidate_pids=session.fully_discriminative,
            )
        assert edges  # the comparison is not vacuous

    def test_gen_corpora(self):
        """``tests/gen.py`` corpora: every discovered predicate is a
        candidate, so most are discarded, and windows tie often."""
        compared = edges = 0
        for seed in range(40):
            traces = [trace_from_dict(p) for p in make_corpus(seed, 6, 10)]
            successes = [t for t in traces if not t.failed]
            failures = [t for t in traces if t.failed]
            suite = PredicateSuite.discover(successes, failures)
            logs = suite.evaluate_all(failures)
            seen = Counter(
                pid for log in logs for pid in log.observations
                if pid in suite.failure_pids()
            )
            if not seen:
                continue
            failure = max(sorted(seen), key=seen.__getitem__)
            failed = [log for log in logs if log.observed(failure)]
            for policy in POLICIES:
                dag = _assert_same_build(
                    suite.defs, failed, failure, policy=policy
                )
                edges += dag.graph.number_of_edges()
                _assert_fold_equals_build(
                    suite.defs, failed, failure, policy=policy
                )
            compared += 1
        assert compared >= 20 and edges


def _table_logs(pids, rows):
    """Failed logs from rows of ``(F time, [time or None per pid])``."""
    logs = []
    for f_time, times in rows:
        observed = {
            pid: t for pid, t in zip(pids, times) if t is not None
        }
        logs.append(_log(observed, f_time))
    return logs


#: small anchor ranges force ties, with each other and with F
_anchor_tables = st.integers(0, 7).flatmap(
    lambda width: st.lists(
        st.tuples(
            st.integers(0, 4),
            st.lists(
                st.one_of(st.integers(0, 4), st.none()),
                min_size=width,
                max_size=width,
            ),
        ),
        min_size=1,
        max_size=6,
    )
)


@settings(max_examples=150, deadline=None)
@given(_anchor_tables)
def test_property_kernel_equals_pairwise_on_tied_anchor_tables(rows):
    pids = [f"P{i}" for i in range(len(rows[0][1]))]
    defs = _defs(pids)
    logs = _table_logs(pids, rows)
    _assert_same_build(defs, logs, F)
    _assert_fold_equals_build(defs, logs, F)

