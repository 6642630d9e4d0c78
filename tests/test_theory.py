"""Section 6 theory: Lemma 1, Theorems 2-3, Figure 6, Example 3."""

from __future__ import annotations

import math

import pytest
from hypothesis import given, settings, strategies as st

from repro.core.digraph import Digraph
from repro.core.theory import (
    BoundRow,
    aid_upper_bound_branch,
    aid_upper_bound_pruning,
    chain_search_space,
    count_cpd_solutions,
    cpd_lower_bound,
    figure6_table,
    gt_lower_bound,
    gt_search_space,
    horizontal_expansion,
    log2_binomial,
    symmetric_acdag,
    symmetric_search_space,
    tagt_upper_bound,
    tagt_worst_case_rounds,
    vertical_expansion,
)


def _path_graph(n: int) -> Digraph:
    """The directed path 0 → 1 → … → n-1."""
    graph = Digraph(zip(range(n - 1), range(1, n)))
    graph.add_node(0)
    return graph


class TestSearchSpaces:
    def test_example3_numbers(self):
        """Paper Example 3: GT 64 candidates, CPD 15."""
        assert gt_search_space(6) == 64
        assert symmetric_search_space(1, 2, 3) == 15
        graph = Digraph([("A1", "B1"), ("B1", "C1"), ("A2", "B2"), ("B2", "C2")])
        assert count_cpd_solutions(graph) == 15

    def test_chain_equals_gt(self):
        for n in range(1, 6):
            graph = _path_graph(n)
            assert count_cpd_solutions(graph) == chain_search_space(n)
            assert chain_search_space(n) == gt_search_space(n)

    def test_lemma1_horizontal(self):
        # Two parallel 2-chains: 1 + (4-1) + (4-1) = 7.
        assert horizontal_expansion(4, 4) == 7
        graph = Digraph([("a1", "a2"), ("b1", "b2")])
        assert count_cpd_solutions(graph) == 7

    def test_lemma1_vertical(self):
        # Two sequential 2-chains joined: a 4-chain, 2^4.
        assert vertical_expansion(4, 4) == 16
        graph = _path_graph(4)
        assert count_cpd_solutions(graph) == 16

    def test_symmetric_closed_form_vs_brute_force(self):
        for j, b, n in [(1, 2, 2), (2, 2, 2), (1, 3, 2), (2, 3, 1), (3, 2, 1)]:
            graph = symmetric_acdag(j, b, n)
            assert count_cpd_solutions(graph) == symmetric_search_space(j, b, n), (
                j, b, n,
            )

    def test_brute_force_size_guard(self):
        with pytest.raises(ValueError):
            count_cpd_solutions(_path_graph(25))


@settings(max_examples=30, deadline=None)
@given(
    junctions=st.integers(1, 3),
    branches=st.integers(1, 3),
    chain_length=st.integers(1, 3),
)
def test_property_lemma1_composition(junctions, branches, chain_length):
    """Closed form == composed expansions == brute force (small DAGs)."""
    if junctions * branches * chain_length > 12:
        return
    graph = symmetric_acdag(junctions, branches, chain_length)
    brute = count_cpd_solutions(graph)
    closed = symmetric_search_space(junctions, branches, chain_length)
    composed = vertical_expansion(
        *[
            horizontal_expansion(*[2**chain_length] * branches)
            for __ in range(junctions)
        ]
    )
    assert brute == closed == composed


class TestBounds:
    def test_log2_binomial(self):
        assert log2_binomial(4, 2) == pytest.approx(math.log2(6))
        assert log2_binomial(10, 0) == pytest.approx(0.0)
        assert log2_binomial(3, 5) == float("-inf")

    def test_cpd_lower_bound_below_gt(self):
        """Theorem 2: pruning strictly reduces the lower bound."""
        for n, d in [(50, 3), (100, 8), (284, 20)]:
            gt = gt_lower_bound(n, d)
            for s1 in (1, 2, 5):
                cpd = cpd_lower_bound(n, d, s1)
                assert cpd < gt
            assert cpd_lower_bound(n, d, 5) < cpd_lower_bound(n, d, 1)

    def test_theorem3_upper_bound_below_tagt(self):
        for n, d in [(64, 7), (93, 10)]:
            tagt = tagt_upper_bound(n, d)
            assert aid_upper_bound_pruning(n, d, s2=3) < tagt
            # S2 = 1 degenerates to (almost) TAGT.
            assert aid_upper_bound_pruning(n, d, s2=1) == pytest.approx(
                tagt - d * (d - 1) / (2 * n)
            )

    def test_branch_bound_beats_tagt_when_j_below_d(self):
        """Section 6.3.1: J log T + D log N_M < D log(T·N_M) iff J < D."""
        threads, path_len = 8, 16
        n = threads * path_len
        for junctions, d in [(2, 5), (1, 3), (3, 8)]:
            assert junctions < d
            assert aid_upper_bound_branch(
                junctions, threads, path_len, d
            ) < tagt_upper_bound(n, d)

    def test_tagt_worst_case_matches_paper_figure7(self):
        """D·⌈log2 N⌉ reproduces most of the paper's TAGT column."""
        assert tagt_worst_case_rounds(64, 7) == 42  # Cosmos DB — exact
        assert tagt_worst_case_rounds(24, 1) == 5  # Network — exact
        assert tagt_worst_case_rounds(25, 3) == 15  # BuildAndTest — exact
        assert tagt_worst_case_rounds(93, 10) == 70  # HealthTelemetry — exact

    def test_figure6_table_shape(self):
        cpd, gt = figure6_table(3, 4, 3, 4, s1=2, s2=2)
        assert isinstance(cpd, BoundRow) and cpd.name == "CPD"
        assert cpd.search_space < gt.search_space
        assert cpd.lower_bound < gt.lower_bound
        assert cpd.upper_bound < gt.upper_bound
        assert cpd.lower_bound <= cpd.upper_bound


class TestSymmetricDag:
    def test_structure(self):
        graph = symmetric_acdag(2, 3, 4)
        assert len(graph) == 2 * 3 * 4
        assert len(graph.topological_order()) == len(graph)  # raises on a cycle
        heads = [n for n in graph if not graph.predecessors(n)]
        assert len(heads) == 3  # first junction's branch heads

    def test_single_chain_degenerate(self):
        graph = symmetric_acdag(1, 1, 5)
        order = graph.topological_order()
        assert len(order) == len(graph) == 5
        assert all(graph.has_edge(a, b) for a, b in zip(order, order[1:]))
