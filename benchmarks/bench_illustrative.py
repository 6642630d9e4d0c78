"""Section 5.2 illustrative walkthrough (experiment E9).

The paper's Figure 4 example: an 11-predicate AC-DAG whose causal path
is P1 → P2 → P11 → F.  AID discovers it in 8 interventions where the
naive per-predicate strategy needs 11.  We assert AID beats naive and
recovers the exact path; absolute round counts depend on tie-breaking.
"""

from __future__ import annotations

import random

from repro.core.acdag import ACDag
from repro.core.digraph import Digraph
from repro.core.discovery import causal_path_discovery, linear_discovery
from repro.core.intervention import RunOutcome

F = "F"


class _Oracle:
    def __init__(self, dag, causal, parents):
        self.dag = dag
        self.causal = causal
        self.parents = parents
        self._topo = dag.topological_order()

    def run_group(self, pids):
        occurred = set()
        index = {p: i for i, p in enumerate(self.causal)}
        for pid in self._topo:
            if pid == F or pid in pids:
                continue
            if pid in index:
                i = index[pid]
                if i == 0 or self.causal[i - 1] in occurred:
                    occurred.add(pid)
            else:
                parent = self.parents.get(pid)
                if parent is None or parent in occurred:
                    occurred.add(pid)
        failed = self.causal[-1] in occurred
        if failed:
            occurred.add(F)
        return [RunOutcome(observed=frozenset(occurred), failed=failed)]


def _figure4():
    edges = [
        ("P1", "P2"), ("P2", "P3"),
        ("P3", "P4"), ("P4", "P5"), ("P5", "P6"),
        ("P3", "P7"), ("P7", "P8"), ("P8", "P11"),
        ("P7", "P9"), ("P9", "P10"),
        ("P11", F), ("P6", F), ("P10", F),
    ]
    graph = Digraph(edges).transitive_closure()
    dag = ACDag(graph=graph, failure=F)
    causal = ["P1", "P2", "P11"]
    parents = {
        "P3": "P2", "P4": "P3", "P5": "P4", "P6": "P5",
        "P7": "P2", "P8": "P7", "P9": "P7", "P10": "P9",
    }
    return dag, _Oracle(dag, causal, parents)


def test_illustrative_walkthrough(benchmark):
    dag, oracle = _figure4()
    benchmark.group = "illustrative"
    result = benchmark(
        lambda: causal_path_discovery(dag, oracle, rng=random.Random(1))
    )
    naive = linear_discovery(dag, oracle, rng=random.Random(1))
    print(
        f"\nSection 5.2 walkthrough: AID {result.n_rounds} rounds "
        f"vs naive {naive.n_rounds} (paper: 8 vs 11)"
    )
    assert result.causal_path == ["P1", "P2", "P11", F]
    assert naive.n_rounds == 11
    assert result.n_rounds < naive.n_rounds


def test_illustrative_branch_pruning_helps(benchmark):
    benchmark.group = "illustrative"
    dag, oracle = _figure4()
    with_branch = benchmark(
        lambda: causal_path_discovery(
            dag, oracle, branch_pruning=True, rng=random.Random(1)
        )
    )
    without = causal_path_discovery(
        dag, oracle, branch_pruning=False, rng=random.Random(1)
    )
    assert with_branch.causal_path == without.causal_path
    # On an instance this small (two 2-way junctions, D=3) branch
    # pruning's junction rounds roughly break even with plain halving —
    # its payoff needs wider junctions (see bench_ablations D3).  Both
    # configurations must still beat the 11-round naive baseline.
    assert with_branch.n_rounds < 11
    assert without.n_rounds < 11
