"""Synthetic generator and oracle: invariants the paper's setup requires."""

from __future__ import annotations

import math

import pytest
from hypothesis import given, settings, strategies as st

from repro.core.intervention import RunOutcome
from repro.workloads.synthetic import (
    FAILURE_PID,
    SyntheticSpec,
    generate_app,
    generate_batch,
    spec_for_maxt,
)


class TestGeneratorInvariants:
    def test_causal_path_is_a_chain_in_the_dag(self):
        for seed in range(30):
            app = generate_app(seed, spec_for_maxt(12))
            path = app.causal_path
            assert path, "at least one causal predicate"
            for a, b in zip(path, path[1:]):
                assert app.dag.reaches(a, b), (seed, a, b)

    def test_noise_parents_precede_children(self):
        for seed in range(30):
            app = generate_app(seed, spec_for_maxt(12))
            for child, parent in app.parents.items():
                if parent is not None:
                    assert app.dag.reaches(parent, child), (seed, parent, child)

    def test_d_within_paper_range(self):
        for seed in range(50):
            app = generate_app(seed, spec_for_maxt(20))
            n = app.n_predicates
            cap = max(1, int(n / math.log2(n))) if n > 2 else 1
            assert 1 <= app.n_causal <= max(cap, 1)

    def test_graph_is_transitively_closed_dag(self):
        app = generate_app(3, spec_for_maxt(8))
        graph = app.dag.graph
        assert len(graph.topological_order()) == len(graph)  # raises on a cycle
        for a, b in graph.edges:
            for c in graph.successors(b):
                if c != a:
                    assert graph.has_edge(a, c)

    def test_every_predicate_reaches_failure(self):
        app = generate_app(11, spec_for_maxt(8))
        for pid in app.dag.predicates:
            assert app.dag.reaches(pid, FAILURE_PID)

    def test_batch_seeds_are_distinct(self):
        batch = generate_batch(10, seed=5)
        assert len({app.seed for app in batch}) == 10

    def test_spec_validation(self):
        with pytest.raises(ValueError):
            SyntheticSpec(max_threads=1, min_threads=2).validate()
        with pytest.raises(ValueError):
            SyntheticSpec(phases=(3, 2)).validate()

    def test_reproducible(self):
        a = generate_app(42, spec_for_maxt(10))
        b = generate_app(42, spec_for_maxt(10))
        assert a.causal_path == b.causal_path
        assert a.parents == b.parents
        assert set(a.dag.graph.edges) == set(b.dag.graph.edges)


class TestOracleSemantics:
    def test_unintervened_run_fails_with_everything_observed(self):
        app = generate_app(1, spec_for_maxt(6))
        (outcome,) = app.runner().run_group(frozenset())
        assert outcome.failed
        assert FAILURE_PID in outcome.observed
        assert set(app.causal_path) <= outcome.observed

    def test_intervening_any_causal_stops_failure(self):
        app = generate_app(2, spec_for_maxt(10))
        runner = app.runner()
        for pid in app.causal_path:
            (outcome,) = runner.run_group(frozenset({pid}))
            assert not outcome.failed, pid
            assert pid not in outcome.observed

    def test_intervening_on_causal_mutes_downstream_chain(self):
        app = generate_app(4, spec_for_maxt(10))
        if app.n_causal < 2:
            pytest.skip("need a chain of at least 2")
        runner = app.runner()
        mid = app.causal_path[len(app.causal_path) // 2]
        (outcome,) = runner.run_group(frozenset({mid}))
        idx = app.causal_path.index(mid)
        for upstream in app.causal_path[:idx]:
            assert upstream in outcome.observed
        for downstream in app.causal_path[idx:]:
            assert downstream not in outcome.observed

    def test_intervening_noise_never_stops_failure(self):
        app = generate_app(5, spec_for_maxt(10))
        runner = app.runner()
        noise = sorted(set(app.dag.predicates) - set(app.causal_path))
        (outcome,) = runner.run_group(frozenset(noise))
        assert outcome.failed
        for pid in noise:
            assert pid not in outcome.observed

    def test_noise_follows_parent_occurrence(self):
        app = generate_app(6, spec_for_maxt(10))
        runner = app.runner()
        root = app.causal_path[0]
        (outcome,) = runner.run_group(frozenset({root}))
        for child, parent in app.parents.items():
            if parent is None:
                assert child in outcome.observed
            else:
                assert (child in outcome.observed) == (
                    parent in outcome.observed
                )

    def test_outcome_type(self):
        app = generate_app(7, spec_for_maxt(4))
        (outcome,) = app.runner().run_group(frozenset())
        assert isinstance(outcome, RunOutcome)


@settings(max_examples=25, deadline=None)
@given(seed=st.integers(0, 10_000), maxt=st.integers(2, 42))
def test_property_generator_sound(seed, maxt):
    """Any generated app satisfies the core soundness triplet."""
    app = generate_app(seed, spec_for_maxt(maxt))
    # (1) the DAG is acyclic with F on top;
    assert len(app.dag.topological_order()) == len(app.dag)
    # (2) the unintervened execution fails;
    (baseline,) = app.runner().run_group(frozenset())
    assert baseline.failed
    # (3) repairing the root cause alone repairs the program.
    (repaired,) = app.runner().run_group(frozenset({app.causal_path[0]}))
    assert not repaired.failed
