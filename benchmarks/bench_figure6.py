"""Figure 6 + Example 3 — the theory tables (experiments E7-E8).

Regenerates the symmetric-AC-DAG comparison of search spaces and
intervention bounds, validates Lemma 1 against brute force, and checks
the bound orderings the paper derives.
"""

from __future__ import annotations

import pytest

from repro.core.digraph import Digraph
from repro.core.theory import (
    count_cpd_solutions,
    cpd_lower_bound,
    figure6_table,
    gt_lower_bound,
    gt_search_space,
    symmetric_acdag,
    symmetric_search_space,
)
from repro.harness.experiments import example3_report, figure6_report

SETTINGS = [
    # (J, B, n, D, S1, S2)
    (1, 2, 3, 2, 1, 1),
    (2, 3, 2, 3, 2, 2),
    (3, 4, 3, 4, 2, 2),
    (4, 8, 4, 8, 3, 3),
]


@pytest.mark.parametrize("setting", SETTINGS, ids=lambda s: f"J{s[0]}B{s[1]}n{s[2]}")
def test_fig6_row(benchmark, setting):
    junctions, branches, n, d, s1, s2 = setting
    benchmark.group = "figure6"
    rows = benchmark(lambda: figure6_table(junctions, branches, n, d, s1, s2))
    cpd, gt = rows
    assert cpd.search_space <= gt.search_space
    assert cpd.lower_bound <= gt.lower_bound
    assert cpd.upper_bound <= gt.upper_bound


def test_fig6_tables_print(benchmark):
    benchmark.group = "figure6"
    reports = benchmark(
        lambda: [figure6_report(*setting) for setting in SETTINGS]
    )
    print()
    for report in reports:
        print(report)
        print()


def test_example3(benchmark):
    """Paper Example 3: GT searches 64 candidates, CPD only 15."""
    graph = Digraph([("A1", "B1"), ("B1", "C1"), ("A2", "B2"), ("B2", "C2")])
    benchmark.group = "figure6"
    cpd = benchmark(lambda: count_cpd_solutions(graph))
    assert cpd == 15
    assert gt_search_space(6) == 64
    print()
    print(example3_report())


def test_lemma1_brute_force_agreement(benchmark):
    def check():
        results = []
        for j, b, n in [(1, 2, 2), (2, 2, 2), (1, 3, 2), (2, 3, 1)]:
            graph = symmetric_acdag(j, b, n)
            results.append(
                count_cpd_solutions(graph) == symmetric_search_space(j, b, n)
            )
        return results

    benchmark.group = "figure6"
    assert all(benchmark(check))


def test_theorem2_reduction_series(benchmark):
    """The CPD lower bound falls below GT's and shrinks as S1 grows."""
    n, d = 284, 20
    benchmark.group = "figure6"
    series = benchmark(
        lambda: [cpd_lower_bound(n, d, s1) for s1 in (1, 2, 4, 8)]
    )
    assert all(x < gt_lower_bound(n, d) for x in series)
    assert series == sorted(series, reverse=True)
