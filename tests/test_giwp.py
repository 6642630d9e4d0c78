"""Algorithm 1 (GIWP) and Definition 2 pruning, in isolation.

These tests drive GIWP with a tiny in-test oracle over hand-built causal
models, so every decision the algorithm makes is verifiable without the
simulator.
"""

from __future__ import annotations

import random

import pytest

from repro.core.digraph import Digraph
from repro.core.giwp import GIWP, topological_item_order
from repro.core.intervention import CountingRunner, RunOutcome
from repro.core.pruning import (
    GroupItem,
    counterfactual_violation,
    failure_stopped,
    observational_prunes,
)
from repro.exec.engine import ExecutionEngine


class ChainOracle:
    """Oracle for: causal chain C0→…→Ck→F, plus parented noise.

    ``parents[x]`` is the predicate whose occurrence enables noise x
    (None = always occurs).  Mirrors the synthetic workload semantics.
    """

    def __init__(self, causal, parents):
        self.causal = list(causal)
        self.parents = dict(parents)
        self.order = self.causal + sorted(self.parents)

    def run_group(self, pids):
        occurred = set()
        for pid in self.causal:
            if pid in pids:
                break
            occurred.add(pid)
        else:
            pass
        failed = bool(self.causal) and self.causal[-1] in occurred
        for pid, parent in sorted(self.parents.items()):
            if pid in pids:
                continue
            if parent is None or parent in occurred:
                occurred.add(pid)
        return [RunOutcome(observed=frozenset(occurred), failed=failed)]


def _items(pids):
    return [GroupItem.single(p) for p in pids]


def _reaches_from_graph(graph: Digraph):
    closure = graph.transitive_closure()

    def reaches(a: GroupItem, b: GroupItem) -> bool:
        return closure.has_edge(a.pid, b.pid)

    return reaches


class TestPruningRules:
    def test_failure_stopped(self):
        ok = RunOutcome(observed=frozenset(), failed=False)
        bad = RunOutcome(observed=frozenset(), failed=True)
        assert failure_stopped([ok, ok])
        assert not failure_stopped([ok, bad])

    def test_counterfactual_violation_directions(self):
        item = GroupItem.single("P")
        seen_no_fail = RunOutcome(observed=frozenset({"P"}), failed=False)
        unseen_fail = RunOutcome(observed=frozenset(), failed=True)
        consistent = RunOutcome(observed=frozenset({"P"}), failed=True)
        assert counterfactual_violation(item, [seen_no_fail])
        assert counterfactual_violation(item, [unseen_fail])
        assert not counterfactual_violation(item, [consistent])

    def test_ancestors_of_intervened_never_pruned(self):
        graph = Digraph([("UP", "C"), ("C", "DOWN")])
        reaches = _reaches_from_graph(graph)
        up, c, down = (GroupItem.single(p) for p in ("UP", "C", "DOWN"))
        # Intervening on C stopped the failure; UP still occurred.
        outcomes = [RunOutcome(observed=frozenset({"UP", "DOWN"}), failed=False)]
        pruned = observational_prunes([up, down], [c], outcomes, reaches)
        assert [i.pid for i in pruned] == ["DOWN"], (
            "UP reaches C (its effect may be muted) — exempt; "
            "DOWN shows P∧¬F — pruned"
        )

    def test_branch_item_observed_by_any_member(self):
        branch = GroupItem.disjunction("branch[b]", frozenset({"x", "y"}))
        assert branch.observed(RunOutcome(observed=frozenset({"y"}), failed=True))
        assert not branch.observed(RunOutcome(observed=frozenset({"z"}), failed=True))


class TestGIWPChain:
    def _solve(self, oracle, pids, graph=None, pruning=True, seed=0):
        runner = CountingRunner(oracle)
        if graph is None:
            reaches = lambda a, b: False  # noqa: E731
        else:
            reaches = _reaches_from_graph(graph)
        giwp = GIWP(runner, reaches=reaches, observational_pruning=pruning)
        items = _items(pids)
        random.Random(seed).shuffle(items)
        return giwp.run(items), runner.budget

    def test_single_causal_found(self):
        oracle = ChainOracle(causal=["C"], parents={"n1": None, "n2": None})
        result, budget = self._solve(oracle, ["C", "n1", "n2"])
        assert result.causal_pids == ["C"]
        assert set(result.spurious_pids) == {"n1", "n2"}
        assert budget.rounds == len(result.rounds)

    def test_all_causal_chain_found(self):
        causal = [f"C{i}" for i in range(4)]
        noise = {f"n{i}": None for i in range(4)}
        oracle = ChainOracle(causal=causal, parents=noise)
        # Observational pruning is only sound WITH the AC-DAG's
        # reachability (the ancestor exemption); supply the chain graph.
        graph = Digraph(zip(causal, causal[1:]))
        result, __ = self._solve(oracle, causal + sorted(noise), graph=graph)
        assert sorted(result.causal_pids) == causal

    def test_pruning_without_dag_knowledge_is_unsound(self):
        """Definition 2 *requires* the ancestor exemption: running the
        observational prune with no reachability information falsely
        prunes upstream causes — which is precisely why plain group
        testing (TAGT) cannot use it."""
        causal = [f"C{i}" for i in range(4)]
        oracle = ChainOracle(causal=causal, parents={})
        result, __ = self._solve(oracle, causal, graph=None, pruning=True)
        assert sorted(result.causal_pids) != causal

    def test_no_causal_all_spurious(self):
        # The "causal" chain is outside the candidate pool: every
        # intervention leaves the failure standing.
        oracle = ChainOracle(causal=["HIDDEN"], parents={"a": None, "b": None})
        result, __ = self._solve(oracle, ["a", "b"])
        assert result.causal_pids == []
        assert sorted(result.spurious_pids) == ["a", "b"]

    def test_group_discard_when_failure_persists(self):
        """A half with no causal member is discarded in one round."""
        oracle = ChainOracle(
            causal=["C"], parents={f"n{i}": None for i in range(8)}
        )
        __, budget = self._solve(oracle, ["C"] + [f"n{i}" for i in range(8)])
        # 9 predicates resolved in far fewer than 9 rounds.
        assert budget.rounds < 9

    def test_observational_pruning_reduces_rounds(self):
        # Noise hanging off the mid-chain causal predicate gets pruned
        # for free when upstream causes are intervened on.
        causal = ["C0", "C1", "C2"]
        parents = {f"n{i}": "C1" for i in range(6)}
        oracle = ChainOracle(causal=causal, parents=parents)
        graph = Digraph(
            [("C0", "C1"), ("C1", "C2")] + [("C1", n) for n in parents]
        )
        __, with_pruning = self._solve(oracle, causal + sorted(parents), graph)
        __, without = self._solve(
            oracle, causal + sorted(parents), graph, pruning=False
        )
        assert with_pruning.rounds <= without.rounds

    def test_pruning_disabled_still_correct(self):
        causal = ["C0", "C1"]
        parents = {"n0": "C0", "n1": None}
        oracle = ChainOracle(causal=causal, parents=parents)
        result, __ = self._solve(oracle, causal + sorted(parents), pruning=False)
        assert sorted(result.causal_pids) == causal

    def test_round_records_are_complete(self):
        oracle = ChainOracle(causal=["C"], parents={"n": None})
        result, budget = self._solve(oracle, ["C", "n"])
        resolved = set(result.causal_pids) | set(result.spurious_pids)
        assert resolved == {"C", "n"}
        for record in result.rounds:
            assert record.intervened

    def test_callback_invoked_per_round(self):
        # Every round runs inside the round of the runner's own engine.
        oracle = ChainOracle(causal=["C"], parents={"n": None})
        oracle.engine = ExecutionEngine()
        runner = CountingRunner(oracle)
        GIWP(runner, reaches=lambda a, b: False).run(_items(["C", "n"]))
        assert runner.budget.rounds > 0
        assert oracle.engine.stats.rounds == {"giwp": runner.budget.rounds}


class TestTopologicalItemOrder:
    def test_levels_respected_ties_shuffled(self):
        items = _items(["a", "b", "c", "d"])
        levels = [["a", "b"], ["c", "d"]]
        order1 = topological_item_order(items, levels, random.Random(1))
        order2 = topological_item_order(items, levels, random.Random(2))
        for order in (order1, order2):
            assert {i.pid for i in order[:2]} == {"a", "b"}
            assert {i.pid for i in order[2:]} == {"c", "d"}

    def test_unknown_items_sort_last(self):
        items = _items(["a", "zz"])
        order = topological_item_order(items, [["a"]], random.Random(0))
        assert [i.pid for i in order] == ["a", "zz"]


@pytest.mark.parametrize("n_noise", [0, 3, 10])
@pytest.mark.parametrize("n_causal", [1, 2, 5])
def test_giwp_exactness_grid(n_causal, n_noise):
    causal = [f"C{i}" for i in range(n_causal)]
    parents = {f"n{i}": (causal[0] if i % 2 else None) for i in range(n_noise)}
    oracle = ChainOracle(causal=causal, parents=parents)
    runner = CountingRunner(oracle)
    giwp = GIWP(runner, reaches=lambda a, b: False, observational_pruning=False)
    result = giwp.run(_items(causal + sorted(parents)))
    assert sorted(result.causal_pids) == causal
    assert sorted(result.spurious_pids) == sorted(parents)
