"""Theoretical analysis of CPD vs. group testing (paper Section 6).

Implements, symbolically and numerically:

* search-space sizes — Lemma 1 (horizontal/vertical DAG expansion), the
  symmetric-AC-DAG closed form, and a brute-force counter used to
  property-test the lemma on small DAGs;
* the information-theoretic lower bounds — ``log C(N, D)`` for group
  testing and Theorem 2's reduced bound for CPD;
* the upper bounds — ``D log N`` for TAGT, Theorem 3's pruning bound,
  and the Section 6.3.1 branch-pruning bound ``J log T + D log N_M``;
* the full Figure 6 table for the symmetric AC-DAG.

A *valid CPD solution* is a set of predicates that can lie on a single
causal path, i.e. a set that is pairwise comparable under AC-DAG
reachability — a chain of the partial order (the empty set counts: the
failure may be unexplained by the available predicates).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import combinations
from typing import Iterable

from .digraph import Digraph


# ---------------------------------------------------------------------------
# Search spaces (Section 6.1, Lemma 1)
# ---------------------------------------------------------------------------


def gt_search_space(n_predicates: int) -> int:
    """Group testing considers every subset: ``2^N``."""
    return 2**n_predicates


def chain_search_space(n_predicates: int) -> int:
    """On a simple chain CPD and GT coincide: ``2^n``."""
    return 2**n_predicates


def horizontal_expansion(*sizes: int) -> int:
    """Lemma 1: parallel composition. ``W = 1 + Σ (W_i − 1)``.

    Solutions cannot mix predicates from parallel subgraphs; the empty
    solution is shared.
    """
    return 1 + sum(w - 1 for w in sizes)


def vertical_expansion(*sizes: int) -> int:
    """Lemma 1: series composition. ``W = Π W_i``."""
    return math.prod(sizes)


def symmetric_search_space(junctions: int, branches: int, chain_length: int) -> int:
    """Closed form for the symmetric AC-DAG: ``(B(2^n − 1) + 1)^J``."""
    return (branches * (2**chain_length - 1) + 1) ** junctions


def count_cpd_solutions(graph: Digraph) -> int:
    """Brute-force count of valid CPD solutions (chains incl. empty set).

    Exponential; for property-testing Lemma 1 on small DAGs only.
    """
    if len(graph) > 20:
        raise ValueError("brute-force solution count limited to 20 nodes")
    closure = graph.transitive_closure()
    nodes = list(graph.nodes)
    count = 1  # the empty solution
    for size in range(1, len(nodes) + 1):
        for subset in combinations(nodes, size):
            if _is_chain(closure, subset):
                count += 1
    return count


def _is_chain(closure: Digraph, subset: Iterable) -> bool:
    subset = list(subset)
    for a, b in combinations(subset, 2):
        if not (closure.has_edge(a, b) or closure.has_edge(b, a)):
            return False
    return True


# ---------------------------------------------------------------------------
# Lower bounds (Section 6.2, Theorem 2)
# ---------------------------------------------------------------------------


def log2_binomial(n: int, k: int) -> float:
    """``log2 C(n, k)`` computed stably via lgamma."""
    if k < 0 or k > n:
        return float("-inf")
    return (
        math.lgamma(n + 1) - math.lgamma(k + 1) - math.lgamma(n - k + 1)
    ) / math.log(2)


def gt_lower_bound(n_predicates: int, n_causal: int) -> float:
    """Information-theoretic lower bound for GT: ``log2 C(N, D)``."""
    return log2_binomial(n_predicates, n_causal)


def cpd_lower_bound(n_predicates: int, n_causal: int, s1: int) -> float:
    """Theorem 2: ``N / (N + D·S1) · log2 C(N, D)``.

    ``s1`` is the minimum number of predicates discarded (pruned or
    confirmed causal) per group intervention.
    """
    n, d = n_predicates, n_causal
    if n == 0:
        return 0.0
    return n / (n + d * s1) * log2_binomial(n, d)


# ---------------------------------------------------------------------------
# Upper bounds (Section 6.3, Theorem 3)
# ---------------------------------------------------------------------------


def tagt_upper_bound(n_predicates: int, n_causal: int) -> float:
    """TAGT worst case: ``D log2 N`` (binary search per causal pred)."""
    if n_predicates <= 1:
        return float(n_causal)
    return n_causal * math.log2(n_predicates)


def tagt_worst_case_rounds(n_predicates: int, n_causal: int) -> int:
    """The integer worst case the paper quotes in Figure 7: D·⌈log2 N⌉."""
    if n_predicates <= 1:
        return n_causal
    return n_causal * math.ceil(math.log2(n_predicates))


def aid_upper_bound_pruning(n_predicates: int, n_causal: int, s2: int) -> float:
    """Theorem 3: ``D log2 N − D(D−1)·S2 / (2N)``.

    ``s2`` is the minimum number of predicates discarded per causal-
    predicate discovery.  ``s2 = 1`` degenerates to TAGT.
    """
    n, d = n_predicates, n_causal
    if n <= 1:
        return float(d)
    return d * math.log2(n) - d * (d - 1) * s2 / (2 * n)


def aid_upper_bound_branch(
    junctions: int, max_branches: int, max_path_len: int, n_causal: int
) -> float:
    """Section 6.3.1: ``J log2 T + D log2 N_M``.

    ``max_branches`` is bounded by the thread count T; ``max_path_len``
    (``N_M``) is the longest root-to-F path.  Beats the TAGT bound
    whenever ``J < D``.
    """
    j_term = junctions * math.log2(max_branches) if max_branches > 1 else 0.0
    d_term = n_causal * math.log2(max_path_len) if max_path_len > 1 else float(n_causal)
    return j_term + d_term


# ---------------------------------------------------------------------------
# Figure 6: the symmetric AC-DAG comparison table
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class BoundRow:
    """One row of Figure 6 (CPD or GT) for the symmetric AC-DAG."""

    name: str
    search_space: float
    lower_bound: float
    upper_bound: float


def figure6_table(
    junctions: int,
    branches: int,
    chain_length: int,
    n_causal: int,
    s1: int,
    s2: int,
) -> list[BoundRow]:
    """Compute both rows of Figure 6 for the symmetric AC-DAG.

    ``N = J·B·n`` predicates arranged as J sequential junctions, each
    fanning into B parallel chains of n predicates.
    """
    j, b, n, d = junctions, branches, chain_length, n_causal
    total = j * b * n
    cpd = BoundRow(
        name="CPD",
        search_space=float(symmetric_search_space(j, b, n)),
        lower_bound=total / (total + d * s1) * log2_binomial(total, d),
        upper_bound=(
            j * math.log2(b) + d * math.log2(j * n) - d * (d - 1) * s2 / (2 * j * n)
        ),
    )
    gt = BoundRow(
        name="GT",
        search_space=float(gt_search_space(total)),
        lower_bound=log2_binomial(total, d),
        upper_bound=(
            d * math.log2(b) + d * math.log2(j * n) - d * (d - 1) / (2 * j * b * n)
        ),
    )
    return [cpd, gt]


def symmetric_acdag(junctions: int, branches: int, chain_length: int) -> Digraph:
    """Build the symmetric AC-DAG of Figure 5(c) as a concrete graph.

    Nodes are strings ``"J{j}B{b}N{k}"`` plus junction connectors; the
    graph is the *transitive reduction* (edges only between neighbours),
    suitable for search-space brute-forcing and for feeding the
    synthetic oracle.
    """
    graph = Digraph()
    previous_sinks: list[str] = []
    for j in range(junctions):
        heads, tails = [], []
        for b in range(branches):
            chain = [f"J{j}B{b}N{k}" for k in range(chain_length)]
            graph.add_node(chain[0])
            for u, v in zip(chain, chain[1:]):
                graph.add_edge(u, v)
            heads.append(chain[0])
            tails.append(chain[-1])
        for sink in previous_sinks:
            for head in heads:
                graph.add_edge(sink, head)
        previous_sinks = tails
    return graph
