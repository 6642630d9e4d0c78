"""Focused unit tests for behaviours not covered elsewhere:
probe-all-first, branch decomposition edge cases, experiment helpers,
intervention deduplication, and selector plumbing."""

from __future__ import annotations

import random

import pytest

from repro.core.acdag import ACDag
from repro.core.digraph import Digraph
from repro.core.branch import branch_prune
from repro.core.giwp import GIWP
from repro.core.intervention import CountingRunner, RunOutcome
from repro.core.pruning import GroupItem
from repro.harness.experiments import (
    CASE_STUDY_ORDER,
    Figure8Cell,
    figure8,
)
from repro.sim.faults import MethodSelector, SerializeMethods
from repro.sim.tracing import MethodKey
from repro.workloads.common import REGISTRY


class _FlatOracle:
    """Failure persists unless a member of ``causal`` is intervened."""

    def __init__(self, causal):
        self.causal = set(causal)
        self.calls = 0

    def run_group(self, pids):
        self.calls += 1
        failed = not (self.causal & pids)
        observed = frozenset()  # irrelevant here
        return [RunOutcome(observed=observed, failed=failed)]


class TestProbeAllFirst:
    def test_all_noise_pool_resolved_in_one_round(self):
        oracle = _FlatOracle(causal={"hidden"})
        runner = CountingRunner(oracle)
        giwp = GIWP(
            runner,
            reaches=lambda a, b: False,
            observational_pruning=False,
            probe_all_first=True,
        )
        items = [GroupItem.single(f"n{i}") for i in range(8)]
        result = giwp.run(items)
        assert runner.budget.rounds == 1
        assert len(result.spurious) == 8 and not result.causal

    def test_causal_pool_pays_one_extra_round(self):
        causal = {"c"}
        items = [GroupItem.single(p) for p in ["c", "n0", "n1", "n2"]]

        def rounds(probe_all):
            runner = CountingRunner(_FlatOracle(causal))
            giwp = GIWP(
                runner,
                reaches=lambda a, b: False,
                observational_pruning=False,
                probe_all_first=probe_all,
            )
            result = giwp.run(list(items))
            assert result.causal_pids == ["c"]
            return runner.budget.rounds

        assert rounds(True) == rounds(False) + 1

    def test_single_item_pool_skips_the_probe(self):
        runner = CountingRunner(_FlatOracle(causal={"c"}))
        giwp = GIWP(
            runner, reaches=lambda a, b: False, probe_all_first=True
        )
        result = giwp.run([GroupItem.single("c")])
        assert runner.budget.rounds == 1
        assert result.causal_pids == ["c"]


class TestBranchDecompositionDetails:
    def _dag(self, edges, failure="F"):
        graph = Digraph(edges).transitive_closure()
        return ACDag(graph=graph, failure=failure)

    def test_all_singleton_junction_walked_past(self):
        # Junction {A, B} where both are leaves feeding F directly:
        # no group advantage exists, so no interventions happen.
        dag = self._dag([("A", "F"), ("B", "F")])
        oracle = _FlatOracle(causal={"A"})
        runner = CountingRunner(oracle)
        result = branch_prune(dag, runner, rng=random.Random(0))
        assert runner.budget.rounds == 0
        assert result.junctions == 0
        assert dag.predicates == {"A", "B"}

    def test_merge_node_survives_branch_removal(self):
        # Two branches with a shared merge M before F; the causal path
        # runs through the right branch and M.
        dag = self._dag(
            [
                ("L1", "L2"), ("L2", "M"),
                ("R1", "R2"), ("R2", "M"),
                ("M", "F"),
            ]
        )

        class Oracle:
            def run_group(self, pids):
                failed = not ({"R1", "R2", "M"} & pids)
                observed = frozenset(
                    {"L1", "L2", "R1", "R2", "M"} - pids
                )
                return [RunOutcome(observed=observed, failed=failed)]

        runner = CountingRunner(Oracle())
        branch_prune(dag, runner, rng=random.Random(1))
        assert "M" in dag.predicates
        assert "R1" in dag.predicates

    def test_progress_guard_on_everything_causal(self):
        # Pathological: interventions on either branch stop the failure
        # (violating the single-path assumption); the loop must still
        # terminate via the processed-heads guard.
        dag = self._dag([("A", "F"), ("B", "F"), ("A", "A2"), ("B", "B2")])

        class AlwaysStops:
            def run_group(self, pids):
                return [RunOutcome(observed=frozenset(), failed=False)]

        runner = CountingRunner(AlwaysStops())
        result = branch_prune(dag, runner, rng=random.Random(0))
        assert result is not None  # terminated


class TestExperimentHelpers:
    def test_case_study_order_matches_registry(self):
        assert sorted(CASE_STUDY_ORDER) == REGISTRY.names()
        assert CASE_STUDY_ORDER[0] == "npgsql"  # the paper's row order

    def test_figure8_cell_statistics(self):
        cell = Figure8Cell(maxt=2, approach=None, rounds=[3, 5, 10])
        assert cell.average == 6.0
        assert cell.worst == 10
        empty = Figure8Cell(maxt=2, approach=None)
        assert empty.average == 0.0 and empty.worst == 0

    def test_figure8_series_accessor(self):
        from repro.core.variants import Approach

        result = figure8(maxt_values=(2, 10), apps_per_setting=4, seed=1)
        series = result.series(Approach.AID, "average")
        assert len(series) == 2
        worst = result.series(Approach.TAGT, "worst")
        assert all(isinstance(x, int) for x in worst)


class TestInterventionPlumbing:
    def test_interventions_for_deduplicates(self, racy_session):
        runner = racy_session.make_runner()
        race = next(
            p for p in racy_session.fully_discriminative
            if p.startswith("race(")
        )
        once = runner.interventions_for([race])
        twice = runner.interventions_for([race, race])
        assert once == twice

    def test_selector_roundtrip_and_str(self):
        key = MethodKey("M", "worker", 2)
        selector = MethodSelector.from_key(key)
        assert selector.matches_key(key)
        assert str(selector) == "worker:M#2"
        wild = MethodSelector("M")
        assert str(wild) == "*:M#*"
        assert wild.matches_key(key)

    def test_serialize_methods_describe(self):
        iv = SerializeMethods(
            selectors=(MethodSelector("A"), MethodSelector("B")),
            lock_name="Lk",
        )
        text = iv.describe()
        assert "Lk" in text and "A" in text and "B" in text

    def test_intervention_set_describe(self, racy_session):
        from repro.sim.faults import InterventionSet

        runner = racy_session.make_runner()
        pids = racy_session.fully_discriminative[:3]
        ivs = InterventionSet(runner.interventions_for(pids))
        assert len(ivs.describe()) == len(ivs)
