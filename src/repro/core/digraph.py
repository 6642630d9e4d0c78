"""A small directed graph: the AC-DAG's storage and the Section 6 theory's.

The AC-DAG has at most ~100 nodes and is stored transitively closed, so
successor and predecessor sets are all it needs: reachability is an edge
test and the ancestors of F are its predecessor set.  Nodes keep
insertion order; the order of one node's successors is unspecified, so
callers that print edges sort them.
"""

from __future__ import annotations

import heapq
from collections.abc import Hashable, KeysView, Set
from typing import Iterable, Iterator, Optional

Node = Hashable


class Digraph:
    """Successor and predecessor sets per node, nodes in insertion order."""

    __slots__ = ("_succ", "_pred")

    def __init__(self, edges: Iterable[tuple[Node, Node]] = ()) -> None:
        self._succ: dict[Node, set[Node]] = {}
        self._pred: dict[Node, set[Node]] = {}
        for u, v in edges:
            self.add_edge(u, v)

    # -- mutation ------------------------------------------------------------

    def add_node(self, node: Node) -> None:
        if node not in self._succ:
            self._succ[node] = set()
            self._pred[node] = set()

    def add_edge(self, u: Node, v: Node) -> None:
        self.add_node(u)
        self.add_node(v)
        self._succ[u].add(v)
        self._pred[v].add(u)

    def remove_edge(self, u: Node, v: Node) -> None:
        self._succ[u].remove(v)
        self._pred[v].remove(u)

    def remove_nodes_from(self, nodes: Iterable[Node]) -> None:
        """Remove ``nodes`` and their edges; absent nodes are ignored."""
        for node in nodes:
            if node not in self._succ:
                continue
            for v in self._succ.pop(node):
                self._pred[v].discard(node)
            for u in self._pred.pop(node):
                if u != node:  # a self-loop's successor set is gone already
                    self._succ[u].discard(node)

    def copy(self) -> "Digraph":
        clone = Digraph()
        clone._succ = {node: set(succ) for node, succ in self._succ.items()}
        clone._pred = {node: set(pred) for node, pred in self._pred.items()}
        return clone

    # -- queries -------------------------------------------------------------

    @property
    def nodes(self) -> KeysView[Node]:
        """A live, set-like view of the nodes in insertion order."""
        return self._succ.keys()

    @property
    def edges(self) -> list[tuple[Node, Node]]:
        return [(u, v) for u, succ in self._succ.items() for v in succ]

    def has_edge(self, u: Node, v: Node) -> bool:
        return v in self._succ.get(u, ())

    def successors(self, node: Node) -> Set[Node]:
        """The live successor set; callers must not mutate it."""
        return self._succ[node]

    def predecessors(self, node: Node) -> Set[Node]:
        """The live predecessor set; callers must not mutate it."""
        return self._pred[node]

    def number_of_nodes(self) -> int:
        return len(self._succ)

    def number_of_edges(self) -> int:
        return sum(map(len, self._succ.values()))

    def __len__(self) -> int:
        return len(self._succ)

    def __contains__(self, node: object) -> bool:
        return node in self._succ

    def __iter__(self) -> Iterator[Node]:
        return iter(self._succ)

    # -- algorithms ------------------------------------------------------------

    def topological_order(
        self, among: Optional[Iterable[Node]] = None
    ) -> list[Node]:
        """The lexicographic topological order of the subgraph induced by
        ``among`` (default: all nodes): Kahn's algorithm with a heap, so
        the smallest ready node always comes next.  GIWP's groups depend
        on this exact order.  Nodes of ``among`` that are not in the
        graph are ignored.  Raises ``ValueError`` on a cycle.
        """
        if among is None:
            pool: Set[Node] = self._succ.keys()
        else:
            pool = {node for node in among if node in self._succ}
        indegree = {node: len(self._pred[node] & pool) for node in pool}
        ready = [node for node, degree in indegree.items() if degree == 0]
        heapq.heapify(ready)
        order = []
        while ready:
            node = heapq.heappop(ready)
            order.append(node)
            for child in self._succ[node]:
                if child in pool:
                    indegree[child] -= 1
                    if indegree[child] == 0:
                        heapq.heappush(ready, child)
        if len(order) != len(pool):
            raise ValueError("graph contains a cycle")
        return order

    def transitive_closure(self) -> "Digraph":
        """A new graph with an edge ``u → w`` whenever ``w`` is reachable
        from ``u``.  Raises ``ValueError`` on a cycle."""
        closed = self.copy()
        for node in reversed(self.topological_order()):
            for child in self._succ[node]:
                for reached in closed._succ[child]:
                    closed.add_edge(node, reached)
        return closed

    def transitive_reduction(self) -> "Digraph":
        """A new graph with the fewest edges that imply the same
        reachability.  Raises ``ValueError`` on a cycle."""
        closed = self.transitive_closure()
        reduced = Digraph()
        for node in self._succ:
            reduced.add_node(node)
        for u, succ in self._succ.items():
            implied = set().union(*(closed._succ[w] for w in succ))
            for v in succ - implied:
                reduced.add_edge(u, v)
        return reduced
