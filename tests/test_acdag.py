"""AC-DAG construction: edges, invariants, junctions, branches."""

from __future__ import annotations

import pytest
from hypothesis import given, settings, strategies as st

from repro.core.acdag import ACDag, GraphInvariantError
from repro.core.digraph import Digraph
from repro.core.predicates import (
    ExecutedPredicate,
    FailurePredicate,
    Observation,
)
from repro.core.statistical import PredicateLog
from repro.sim.tracing import MethodKey

F = "FAILURE[f]"


def _defs(pids):
    defs = {
        pid: ExecutedPredicate(key=MethodKey(pid, "t", 0)) for pid in pids
    }
    failure = FailurePredicate(signature="f")
    defs[F] = failure
    return defs


def _log(times: dict[str, int], f_time: int, seed=0) -> PredicateLog:
    observations = {pid: Observation(t, t) for pid, t in times.items()}
    observations[F] = Observation(f_time, f_time)
    return PredicateLog(observations=observations, failed=True, seed=seed)


class TestBuild:
    def test_consistent_order_creates_edge(self):
        defs = _defs(["A", "B"])
        logs = [_log({"A": 1, "B": 5}, 9), _log({"A": 2, "B": 7}, 9)]
        dag = ACDag.build(defs, logs, F)
        assert dag.reaches("A", "B")
        assert not dag.reaches("B", "A")
        assert dag.reaches("A", F) and dag.reaches("B", F)

    def test_inconsistent_order_creates_no_edge(self):
        defs = _defs(["A", "B"])
        logs = [_log({"A": 1, "B": 5}, 9), _log({"A": 7, "B": 2}, 9)]
        dag = ACDag.build(defs, logs, F)
        assert not dag.reaches("A", "B")
        assert not dag.reaches("B", "A")

    def test_tie_creates_no_edge_between_predicates(self):
        defs = _defs(["A", "B"])
        logs = [_log({"A": 3, "B": 3}, 9)]
        dag = ACDag.build(defs, logs, F)
        assert not dag.reaches("A", "B") and not dag.reaches("B", "A")

    def test_failure_tie_still_precedes_failure(self):
        """F is terminal: a predicate anchored AT the failure instant
        still precedes it (the crash records both simultaneously)."""
        defs = _defs(["A"])
        dag = ACDag.build(defs, [_log({"A": 9}, 9)], F)
        assert dag.reaches("A", F)

    def test_post_failure_predicates_discarded(self):
        defs = _defs(["A", "CLEANUP"])
        logs = [_log({"A": 1, "CLEANUP": 20}, 9)]
        dag = ACDag.build(defs, logs, F)
        assert "CLEANUP" not in dag
        assert "no temporal path" in dag.discarded["CLEANUP"]

    def test_unreachable_side_predicates_discarded(self):
        # X is incomparable with F (before in one log, after in another).
        defs = _defs(["A", "X"])
        logs = [_log({"A": 1, "X": 5}, 9), _log({"A": 1, "X": 12}, 9)]
        dag = ACDag.build(defs, logs, F)
        assert "X" not in dag

    def test_missing_in_some_failed_log_discarded(self):
        defs = _defs(["A", "FLAKY"])
        logs = [_log({"A": 1, "FLAKY": 2}, 9), _log({"A": 1}, 9)]
        dag = ACDag.build(defs, logs, F)
        assert "FLAKY" not in dag
        assert "every failed log" in dag.discarded["FLAKY"]

    def test_requires_failed_logs(self):
        with pytest.raises(GraphInvariantError):
            ACDag.build(_defs([]), [], F)

    def test_rejects_cyclic_graph(self):
        graph = Digraph([("A", "B"), ("B", "A"), ("A", F)])
        with pytest.raises(GraphInvariantError):
            ACDag(graph=graph, failure=F)

    def test_failure_must_be_present(self):
        with pytest.raises(GraphInvariantError):
            ACDag(graph=Digraph([("A", "B")]), failure=F)


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
    dag = ACDag.build(defs, logs, F)
    graph = dag.graph
    assert len(graph.topological_order()) == len(graph)  # raises on a cycle
    for a, b in graph.edges:
        for c in graph.successors(b):
            if c != a:
                assert graph.has_edge(a, c), "transitive closure broken"
    for node in dag.predicates:
        assert dag.reaches(node, F)
