"""Digraph against networkx, which serves only as a reference here.

The AC-DAG's GIWP groups depend on the exact topological order, so the
order, the closure and the reduction are checked pair by pair on random
DAGs whose label order differs from their topological order.
"""

from __future__ import annotations

import pytest
from hypothesis import given, settings, strategies as st

from repro.core.acdag import ACDag, GraphInvariantError
from repro.core.digraph import Digraph

nx = pytest.importorskip("networkx")


@st.composite
def dags(draw, max_nodes: int = 12):
    """(nodes in insertion order, edges) of a random DAG.  Edges run
    from lower to higher rank; labels are a random permutation of the
    ranks, so lexicographic order is not a topological order."""
    n = draw(st.integers(0, max_nodes))
    labels = draw(st.permutations([f"n{i:02d}" for i in range(n)]))
    pairs = [(i, j) for i in range(n) for j in range(i + 1, n)]
    chosen = draw(
        st.lists(st.sampled_from(pairs), unique=True) if pairs else st.just([])
    )
    nodes = draw(st.permutations(labels))
    return nodes, [(labels[i], labels[j]) for i, j in chosen]


def _both(nodes, edges):
    ours, ref = Digraph(), nx.DiGraph()
    for node in nodes:
        ours.add_node(node)
        ref.add_node(node)
    for u, v in edges:
        ours.add_edge(u, v)
        ref.add_edge(u, v)
    return ours, ref


def _assert_same(ours: Digraph, ref) -> None:
    assert list(ours.nodes) == list(ref.nodes)
    assert set(ours.edges) == set(ref.edges)
    assert ours.number_of_nodes() == len(ours) == ref.number_of_nodes()
    assert ours.number_of_edges() == ref.number_of_edges()
    for node in ours:
        assert ours.successors(node) == set(ref.successors(node))
        assert ours.predecessors(node) == set(ref.predecessors(node))


@settings(max_examples=80, deadline=None)
@given(dag=dags(), data=st.data())
def test_topological_order_matches_lexicographical_sort(dag, data):
    ours, ref = _both(*dag)
    assert ours.topological_order() == list(
        nx.lexicographical_topological_sort(ref)
    )
    among = data.draw(st.sets(st.sampled_from(dag[0] + ["absent"])))
    assert ours.topological_order(among) == list(
        nx.lexicographical_topological_sort(ref.subgraph(among))
    )


@settings(max_examples=80, deadline=None)
@given(dag=dags())
def test_transitive_closure_matches_networkx(dag):
    ours, ref = _both(*dag)
    closed = ours.transitive_closure()
    _assert_same(closed, nx.transitive_closure_dag(ref))
    _assert_same(ours, ref)  # the input is left alone


@settings(max_examples=80, deadline=None)
@given(dag=dags())
def test_transitive_reduction_of_closed_dag_matches_networkx(dag):
    ours, ref = _both(*dag)
    reduced = ours.transitive_closure().transitive_reduction()
    _assert_same(reduced, nx.transitive_reduction(nx.transitive_closure_dag(ref)))


@settings(max_examples=80, deadline=None)
@given(dag=dags(), data=st.data())
def test_mutations_match_networkx(dag, data):
    ours, ref = _both(*dag)
    clone = ours.copy()
    if dag[1]:
        u, v = data.draw(st.sampled_from(dag[1]))
        ours.remove_edge(u, v)
        ref.remove_edge(u, v)
        assert not ours.has_edge(u, v)
    doomed = data.draw(st.lists(st.sampled_from(dag[0] + ["absent"])))
    ours.remove_nodes_from(doomed)
    ref.remove_nodes_from(doomed)
    _assert_same(ours, ref)
    _assert_same(clone, _both(*dag)[1])  # the copy is independent


def test_cycles_raise():
    cyclic = Digraph([("A", "B"), ("B", "C"), ("C", "A"), ("C", "F")])
    with pytest.raises(ValueError):
        cyclic.topological_order()
    with pytest.raises(ValueError):
        cyclic.transitive_closure()
    assert cyclic.topological_order(among=["A", "B"]) == ["A", "B"]
    with pytest.raises(GraphInvariantError, match="cycle"):
        ACDag(graph=cyclic, failure="F")


def test_remove_node_with_self_loop():
    graph = Digraph([("A", "A"), ("A", "B")])
    graph.remove_nodes_from(["A"])
    assert list(graph.nodes) == ["B"] and graph.edges == []
    assert "A" not in graph and not graph.predecessors("B")
