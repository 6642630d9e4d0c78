"""Wave-planned exploration: canonical interleaving signatures,
partial-order pruning, directed mutation, and batched corpus
ingestion.  The payload's byte-identity is pinned by
``scripts/golden_explore.py --check``."""

from __future__ import annotations

import dataclasses

import pytest

from repro.api.events import EventBus, EventLog
from repro.corpus import CorpusError, IncrementalPipeline, TraceStore
from repro.explore import ExplorationDriver, ExploreConfig, explore
from repro.explore.driver import WAVE, relevant_flips
from repro.explore.strategies import SwapTail
from repro.harness.runner import collect
from repro.sim import RandomStrategy, ReplayStrategy, Schedule, Simulator
from repro.sim.schedule import (
    SchedulePoint,
    canonical_decisions,
    footprints_conflict,
)
from repro.sim.serialize import stable_digest, trace_to_dict
from repro.workloads.common import REGISTRY


def _fp(thread: str, *keys: tuple[str, bool]) -> frozenset:
    """A footprint: the implicit self-thread write plus explicit keys."""
    return frozenset({(f"thread:{thread}", True), *keys})


@pytest.fixture(scope="module")
def npgsql():
    return REGISTRY.build("npgsql").program


# ---------------------------------------------------------------------------
# Canonical interleaving signatures (Mazurkiewicz normal forms)
# ---------------------------------------------------------------------------


class TestCanonicalDecisions:
    def test_independent_adjacent_decisions_commute(self):
        a = _fp("a", ("var:x", True))
        b = _fp("b", ("var:y", True))
        assert canonical_decisions(["a", "b"], [a, b]) == ("a", "b")
        assert canonical_decisions(["b", "a"], [b, a]) == ("a", "b")

    def test_conflicting_decisions_keep_their_order(self):
        a = _fp("a", ("var:x", True))
        b = _fp("b", ("var:x", True))
        assert canonical_decisions(["b", "a"], [b, a]) == ("b", "a")
        assert canonical_decisions(["a", "b"], [a, b]) == ("a", "b")

    def test_read_after_write_is_ordered(self):
        w = _fp("a", ("var:x", True))
        r = _fp("b", ("var:x", False))
        assert canonical_decisions(["b", "a"], [r, w]) == ("b", "a")

    def test_barrier_orders_everything(self):
        a = _fp("a", ("var:x", True))
        bar = _fp("b", ("*", True))
        assert canonical_decisions(["b", "a"], [bar, a]) == ("b", "a")

    def test_program_order_is_preserved(self):
        # same-thread decisions chain via the implicit thread-key write
        b1 = _fp("b", ("var:x", True))
        b2 = _fp("b", ("var:y", True))
        a = _fp("a", ("var:z", True))
        assert canonical_decisions(
            ["b", "b", "a"], [b1, b2, a]
        ) == ("a", "b", "b")

    def test_length_mismatch_rejected(self):
        with pytest.raises(ValueError, match="footprints"):
            canonical_decisions(["a", "b"], [_fp("a")])

    def test_footprints_conflict(self):
        assert footprints_conflict(
            frozenset({("var:x", True)}), frozenset({("var:x", False)})
        )
        assert not footprints_conflict(
            frozenset({("var:x", False)}), frozenset({("var:x", False)})
        )
        assert not footprints_conflict(
            frozenset({("var:x", True)}), frozenset({("var:y", True)})
        )

    def test_canonical_signature_collapses_equivalent_schedules(self):
        a = _fp("a", ("var:x", True))
        b = _fp("b", ("var:y", True))
        first = Schedule(program="p", seed=0, decisions=("a", "b"))
        second = Schedule(program="p", seed=1, decisions=("b", "a"))
        assert first.signature() != second.signature()
        assert first.canonical_signature([a, b]) == (
            second.canonical_signature([b, a])
        )

    def test_canonical_signature_without_footprints_falls_back(self):
        schedule = Schedule(program="p", seed=0, decisions=("a", "b"))
        # no independence information: one class per exact interleaving,
        # but hashed in its own namespace (never collides with exact
        # signatures)
        assert schedule.canonical_signature(None) != schedule.signature()
        assert schedule.canonical_signature(None) == (
            schedule.canonical_signature([_fp("a")])  # length mismatch
        )

    def test_simulated_executions_carry_footprints(self, npgsql):
        execution = Simulator(npgsql).run(1)
        assert len(execution.footprints) == len(execution.schedule)
        canonical = execution.schedule.canonical_signature(
            execution.footprints
        )
        assert canonical  # well-formed (no cycle, full coverage)


# ---------------------------------------------------------------------------
# Directed mutation machinery
# ---------------------------------------------------------------------------


class TestRelevantFlips:
    def test_independent_flip_is_filtered(self):
        a = _fp("a", ("var:x", True))
        b = _fp("b", ("var:y", True))
        # flipping to b hoists its action across a's — they commute, so
        # the flip would re-execute the same class
        assert relevant_flips(
            ("a", "b"), (a, b), [(0, ("a", "b"))]
        ) == ()

    def test_conflicting_flip_is_kept(self):
        a = _fp("a", ("var:x", True))
        b = _fp("b", ("var:x", True))
        assert relevant_flips(
            ("a", "b"), (a, b), [(0, ("a", "b"))]
        ) == ((0, "b"),)

    def test_never_ran_again_is_kept(self):
        a = _fp("a", ("var:x", True))
        b = _fp("b", ("var:y", True))
        # candidate c never ran after the branch: entirely unobserved
        assert relevant_flips(
            ("a", "b"), (a, b), [(0, ("a", "c"))]
        ) == ((0, "c"),)

    def test_missing_footprints_keep_every_flip(self):
        assert relevant_flips(
            ("a", "b"), (), [(0, ("a", "b"))]
        ) == ((0, "b"),)

    def test_swap_tail_follows_queue_by_readiness(self):
        tail = SwapTail(queue=("c", "a", "b"), seed=0)
        point = lambda i, *cands: SchedulePoint(  # noqa: E731
            index=i, time=0, candidates=cands
        )
        # c not ready yet: the earliest ready queued thread runs
        assert tail.choose(point(0, "a", "b")) == "a"
        assert tail.choose(point(1, "b", "c")) == "c"
        assert tail.choose(point(2, "b")) == "b"
        # queue exhausted: seeded-random fallback stays in candidates
        assert tail.choose(point(3, "x", "y")) in ("x", "y")


# ---------------------------------------------------------------------------
# Driver configuration
# ---------------------------------------------------------------------------


class TestWaveDeterminism:
    def test_payload_excludes_throughput_knobs(self, npgsql):
        payload = explore(npgsql, ExploreConfig(budget=16)).to_dict()
        assert "jobs" not in payload
        assert "backend" not in payload

    def test_search_constants_are_not_options(self, npgsql, capsys):
        """The wave size, mutation rate, frontier cap, pass-ingest cap
        and replay verification are fixed: no config field and no CLI
        flag sets them, and the payload still reports the wave."""
        from repro.cli import build_parser

        assert [f.name for f in dataclasses.fields(ExploreConfig)] == [
            "budget",
            "strategy",
            "strategy_params",
            "start_seed",
            "max_steps",
            "stats_every",
            "schedule_dir",
            "partial_order",
        ]
        with pytest.raises(SystemExit) as excinfo:
            build_parser().parse_args(["explore", "npgsql", "--wave", "16"])
        assert excinfo.value.code == 2
        assert "unrecognized arguments" in capsys.readouterr().err
        payload = explore(npgsql, ExploreConfig(budget=16)).to_dict()
        assert payload["wave"] == WAVE == 16

    def test_budget_must_not_be_negative(self, npgsql):
        with pytest.raises(ValueError, match=r"budget must be >= 0, got -3"):
            ExplorationDriver(npgsql, ExploreConfig(budget=-3))

    def test_other_programs_corpus_is_refused_before_running(
        self, npgsql, tmp_path
    ):
        kafka = REGISTRY.build("kafka").program
        store = TraceStore.init(tmp_path / "c", program=kafka.name)
        log = EventLog()
        with pytest.raises(CorpusError, match="kafka"):
            ExplorationDriver(
                npgsql,
                ExploreConfig(budget=20),
                store=store,
                bus=EventBus([log]),
            )
        assert not log.events
        assert len(store) == 0


# ---------------------------------------------------------------------------
# Partial-order pruning
# ---------------------------------------------------------------------------


class TestPartialOrderPruning:
    def test_every_execution_is_class_accounted(self, npgsql):
        result = explore(npgsql, ExploreConfig(budget=64))
        assert result.partial_order is True
        assert result.distinct_canonical >= 1
        assert (
            result.distinct_canonical + result.pruned_equivalent
            == result.executions
        )

    def test_pruning_widens_class_discovery_at_equal_budget(self, npgsql):
        on = explore(npgsql, ExploreConfig(budget=80, partial_order=True))
        off = explore(npgsql, ExploreConfig(budget=80, partial_order=False))
        # deterministic fixed-seed comparison: directed class-flipping
        # mutation finds strictly more equivalence classes than the
        # blind prefix-cut baseline for the same 80 executions
        assert on.distinct_canonical > off.distinct_canonical
        assert on.pruned_equivalent < off.pruned_equivalent

    def test_equivalent_pruned_events(self, npgsql):
        log = EventLog()
        result = explore(
            npgsql, ExploreConfig(budget=64), bus=EventBus([log])
        )
        pruned = [e for e in log.events if e.kind == "equivalent-pruned"]
        assert len(pruned) == result.pruned_equivalent
        assert all(e.occurrences >= 2 for e in pruned)
        assert all(e.canonical and e.signature for e in pruned)
        finished = log.first("exploration-finished")
        assert finished.distinct_canonical == result.distinct_canonical
        assert finished.pruned_equivalent == result.pruned_equivalent

    def test_equivalent_pruned_round_trips_through_runlog(self):
        from repro.api import events as ev
        from repro.obs.runlog import EVENT_TYPES, _event_from, _event_payload

        assert ev.EquivalentPruned.kind in EVENT_TYPES
        event = ev.EquivalentPruned(
            signature="abc", canonical="def", occurrences=3
        )
        assert _event_from(event.kind, _event_payload(event)) == event

    def test_disabled_pruning_emits_no_pruned_events(self, npgsql):
        log = EventLog()
        explore(
            npgsql,
            ExploreConfig(budget=48, partial_order=False),
            bus=EventBus([log]),
        )
        assert "equivalent-pruned" not in set(log.kinds())

    def test_directed_mutations_replay_cleanly(self, npgsql):
        driver = ExplorationDriver(npgsql, ExploreConfig(budget=80))
        observed = []
        original = driver._observe

        def spy(observation, result):
            observed.append(observation)
            original(observation, result)

        driver._observe = spy
        driver.run()
        mutated = [o for o in observed if o.mutated]
        assert mutated, "exploration never exercised directed mutation"
        # forced flips re-execute the parent under its own seed: the
        # replayed prefix must never diverge
        assert all(not o.diverged for o in mutated)


# ---------------------------------------------------------------------------
# Mutation under a diverging parent (satellite: replay divergence)
# ---------------------------------------------------------------------------


class TestMutationDivergence:
    def test_bogus_prefix_diverges_but_recording_stays_replayable(
        self, npgsql
    ):
        simulator = Simulator(npgsql)
        parent = simulator.run(3).schedule
        assert len(parent) > 4
        # corrupt the parent's prefix with a thread that can never be
        # ready — the mutation's replayed prefix must flag divergence
        bogus = Schedule(
            program=parent.program,
            seed=parent.seed,
            decisions=("no-such-thread",) + parent.decisions[1:],
        )
        strategy = ReplayStrategy(
            schedule=bogus, prefix=4, tail=RandomStrategy(99)
        )
        execution = simulator.run(parent.seed, strategy=strategy)
        assert strategy.diverged is True
        # what actually ran was recorded faithfully: replaying the
        # *recorded* schedule reproduces the trace byte-identically
        replay = simulator.run(
            execution.schedule.seed,
            strategy=ReplayStrategy(schedule=execution.schedule),
        )
        assert stable_digest(trace_to_dict(replay.trace)) == stable_digest(
            trace_to_dict(execution.trace)
        )


# ---------------------------------------------------------------------------
# Batched corpus ingestion
# ---------------------------------------------------------------------------


@pytest.fixture(scope="module")
def racy_corpus(racy_program):
    return collect(racy_program, n_success=20, n_fail=20)


def _seeded_pipeline(root, racy_program, racy_corpus):
    store = TraceStore.init(root, program=racy_program.name)
    for trace in racy_corpus.successes[:15] + racy_corpus.failures[:15]:
        store.ingest(trace)
    store.save()
    pipeline = IncrementalPipeline(store, program=racy_program)
    pipeline.bootstrap()
    return pipeline


class TestBatchedIngestion:
    def test_batch_equals_sequential_ingestion(
        self, tmp_path, racy_program, racy_corpus
    ):
        held_back = (
            racy_corpus.successes[15:]
            + racy_corpus.failures[15:]
            + racy_corpus.failures[15:16]  # one duplicate
        )
        serial = _seeded_pipeline(tmp_path / "a", racy_program, racy_corpus)
        serial_results = [serial.ingest(t) for t in held_back]
        batched = _seeded_pipeline(tmp_path / "b", racy_program, racy_corpus)
        batch = batched.ingest_batch(held_back, save=True)

        # per-trace outcomes line up in submission order
        assert [r.added for r in batch.results] == [
            r.added for r in serial_results
        ]
        assert [r.failed for r in batch.results] == [
            r.failed for r in serial_results
        ]
        assert batch.n_added == sum(1 for r in serial_results if r.added)
        # aggregate view damage matches the union of per-trace damage
        assert batch.removed_pids == frozenset().union(
            *(r.removed_pids for r in serial_results)
        )
        # the final maintained state is byte-identical
        assert batched.fully == serial.fully
        assert batched.dag.structure() == serial.dag.structure()
        assert set(batched.debugger.fully_discriminative_pids()) == set(
            serial.debugger.fully_discriminative_pids()
        )
        assert len(batched.logs) == len(serial.logs)
        assert sorted(batched.store.entries) == sorted(serial.store.entries)

    def test_batch_stamps_schedule_signatures(
        self, tmp_path, racy_program, racy_corpus
    ):
        pipeline = _seeded_pipeline(
            tmp_path / "c", racy_program, racy_corpus
        )
        traces = racy_corpus.successes[15:17]
        batch = pipeline.ingest_batch(traces, ["sig-a", "sig-b"])
        assert all(r.added for r in batch.results)
        stamped = {
            e.schedule
            for e in pipeline.store.entries.values()
            if e.schedule is not None
        }
        assert {"sig-a", "sig-b"} <= stamped

    def test_batch_length_mismatch_rejected(
        self, tmp_path, racy_program, racy_corpus
    ):
        pipeline = _seeded_pipeline(
            tmp_path / "d", racy_program, racy_corpus
        )
        with pytest.raises(ValueError, match="schedule signatures"):
            pipeline.ingest_batch(
                racy_corpus.successes[15:17], ["only-one"]
            )

    def test_batch_requires_bootstrap(
        self, tmp_path, racy_program, racy_corpus
    ):
        from repro.corpus import CorpusError

        store = TraceStore.init(tmp_path / "e", program=racy_program.name)
        pipeline = IncrementalPipeline(store, program=racy_program)
        with pytest.raises(CorpusError, match="bootstrap"):
            pipeline.ingest_batch(racy_corpus.successes[:1])

    def test_exploration_batches_match_store_counts(
        self, npgsql, tmp_path
    ):
        store = TraceStore.init(tmp_path / "f", program=npgsql.name)
        result = explore(
            npgsql, ExploreConfig(budget=100), store=store
        )
        reopened = TraceStore.open(tmp_path / "f")
        assert reopened.n_fail == result.ingested_fail
        assert reopened.n_pass == result.ingested_pass
