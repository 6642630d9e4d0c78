"""What exploration pays per execution: the golden exploration fixture,
the flip filter against its reference implementation, and count gates
on schedule hashing, on trace encoding and on trace read-back during
ingestion."""

from __future__ import annotations

import hashlib
import json
import sys
from pathlib import Path
from random import Random

import pytest

import repro.corpus.store as store_module
import repro.explore.driver as driver_module
import repro.sim.schedule as schedule_module
import repro.sim.serialize as serialize_module
from repro.corpus import IncrementalPipeline, TraceStore
from repro.explore import ExplorationDriver, ExploreConfig
from repro.explore.driver import relevant_flips
from repro.harness.experiments import CASE_STUDY_ORDER
from repro.sim.schedule import footprints_conflict
from repro.workloads.common import REGISTRY

REPO_ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(REPO_ROOT / "scripts"))

import golden_explore  # noqa: E402


def reference_relevant_flips(decisions, footprints, branches):
    """The flip filter as first written: a linear scan for the next slot
    and one ``footprints_conflict`` call per crossed decision."""
    flips: list[tuple[int, str]] = []
    if len(footprints) != len(decisions):
        # No independence information (e.g. a replayed schedule from
        # disk): every flip is potentially relevant.
        return tuple(
            (b, c)
            for b, candidates in branches
            for c in candidates
            if c != decisions[b]
        )
    n = len(decisions)
    for b, candidates in branches:
        chosen = decisions[b]
        for c in candidates:
            if c == chosen:
                continue
            j = next(
                (k for k in range(b + 1, n) if decisions[k] == c), None
            )
            if j is None:
                flips.append((b, c))
                continue
            if any(
                footprints_conflict(footprints[j], footprints[k])
                or ("*", True) in footprints[j]
                or ("*", True) in footprints[k]
                for k in range(b, j)
            ):
                flips.append((b, c))
    return tuple(flips)


def test_exploration_matches_golden_fixture():
    expected = json.loads(golden_explore.FIXTURE.read_text())
    produced = golden_explore.compute()
    assert produced["cases"] == expected["cases"]
    assert produced == expected


# ---------------------------------------------------------------------------
# relevant_flips against the reference
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("name", CASE_STUDY_ORDER)
def test_flips_match_reference_on_every_admitted_execution(
    name, monkeypatch
):
    calls = []

    def recording(decisions, footprints, branches):
        flips = relevant_flips(decisions, footprints, branches)
        calls.append((decisions, footprints, branches, flips))
        return flips

    monkeypatch.setattr(driver_module, "relevant_flips", recording)
    program = REGISTRY.build(name).program
    ExplorationDriver(program, ExploreConfig(budget=100)).run()
    assert calls
    for decisions, footprints, branches, flips in calls:
        assert flips == reference_relevant_flips(
            decisions, footprints, branches
        )


def _random_case(rng: Random):
    """Decisions, footprints and branches drawn to hit every path."""
    threads = ["a", "b", "c", "d"][: rng.randint(1, 4)]
    n = rng.randint(1, 14)
    decisions = tuple(rng.choice(threads) for _ in range(n))
    shared = ["var:x", "var:y", "lock:m", "*"]
    footprints = []
    for thread in decisions:
        roll = rng.random()
        if roll < 0.15:
            footprints.append(frozenset())  # an empty footprint
            continue
        keys = {(f"thread:{thread}", True)}
        for key in rng.sample(shared, rng.randint(0, 3)):
            keys.add((key, rng.random() < 0.4))  # "*" written = barrier
        footprints.append(frozenset(keys))
    # extra names that never run make never-ran-again candidates
    pool = threads + ["e", "f"]
    branches = [
        (b, tuple(rng.sample(pool, rng.randint(1, len(pool)))))
        for b in sorted(rng.sample(range(n), rng.randint(0, n)))
    ]
    if rng.random() < 0.2:
        # out of execution order: the filter must not rely on it
        rng.shuffle(branches)
    if rng.random() < 0.1:
        # mismatched lengths: no independence information
        footprints = footprints[: rng.randint(0, n - 1)] if n > 1 else []
    return decisions, tuple(footprints), branches


def test_flips_match_reference_on_random_footprints():
    rng = Random(20)
    seen = {"barrier": 0, "empty": 0, "never_again": 0, "mismatch": 0}
    for _ in range(3000):
        decisions, footprints, branches = _random_case(rng)
        assert relevant_flips(
            decisions, footprints, branches
        ) == reference_relevant_flips(decisions, footprints, branches)
        if len(footprints) != len(decisions):
            seen["mismatch"] += 1
            continue
        seen["barrier"] += any(("*", True) in fp for fp in footprints)
        seen["empty"] += any(not fp for fp in footprints)
        seen["never_again"] += any(
            c not in decisions[b + 1 :]
            for b, candidates in branches
            for c in candidates
        )
    assert all(count > 100 for count in seen.values()), seen


# ---------------------------------------------------------------------------
# Count gates
# ---------------------------------------------------------------------------


def test_schedule_hashing_is_bounded_per_execution(monkeypatch, tmp_path):
    """One signature and one canonical signature per execution: the
    frontier keeps each schedule's signature instead of re-hashing."""
    calls = 0
    digest = schedule_module.stable_digest

    def counting(payload):
        nonlocal calls
        calls += 1
        return digest(payload)

    monkeypatch.setattr(schedule_module, "stable_digest", counting)
    program = REGISTRY.build("npgsql").program
    store = TraceStore.init(tmp_path / "c", program=program.name)
    result = ExplorationDriver(
        program, ExploreConfig(budget=200), store=store
    ).run()
    assert result.executions == 200
    assert result.ingested_fail >= 1
    assert calls <= 2 * result.executions


def test_each_trace_is_encoded_once(monkeypatch, tmp_path):
    """At most one encoding per trace handed to the store plus one per
    failure fingerprint, none for replay verification, and every body
    left in the corpus is the bytes its name hashes.

    The driver fingerprints each novel failing schedule's trace once:
    that is the failure's fingerprint, or finds it the same trace as a
    failure already recorded."""
    encoded = []
    replays = []
    offered = []
    ingest = TraceStore.ingest
    encode = serialize_module.encode_trace
    run = driver_module.Simulator.run
    record_failure = ExplorationDriver._record_failure

    def counting(trace):
        encoded.append(trace)
        return encode(trace)

    def counting_ingest(self, trace, *args, **kwargs):
        fp, added = ingest(self, trace, *args, **kwargs)
        offered.append(added)
        return fp, added

    def recording_run(self, *args, **kwargs):
        execution = run(self, *args, **kwargs)
        replays.append(execution.trace)
        return execution

    def replaying(self, *args, **kwargs):
        # every simulator run inside _record_failure is its replay check
        monkeypatch.setattr(driver_module.Simulator, "run", recording_run)
        try:
            return record_failure(self, *args, **kwargs)
        finally:
            monkeypatch.setattr(driver_module.Simulator, "run", run)

    monkeypatch.setattr(serialize_module, "encode_trace", counting)
    monkeypatch.setattr(store_module, "encode_trace", counting)
    monkeypatch.setattr(ExplorationDriver, "_record_failure", replaying)
    monkeypatch.setattr(TraceStore, "ingest", counting_ingest)
    program = REGISTRY.build("kafka").program
    root = tmp_path / "c"
    store = TraceStore.init(root, program=program.name)
    result = ExplorationDriver(
        program, ExploreConfig(budget=200), store=store
    ).run()
    assert result.failures and result.all_replays_verified
    assert len(replays) == len(result.failures)
    assert not any(t is r for t in encoded for r in replays)
    assert sum(offered) == len(store)
    assert len(encoded) <= (
        len(offered) + result.distinct_failing_signatures
    )
    bodies = sorted(root.glob("shards/*/traces/*.json"))
    assert len(bodies) == len(store)
    for body in bodies:
        assert hashlib.sha256(body.read_bytes()).hexdigest()[:16] == body.stem


def test_ingest_batch_never_reads_back_live_traces(monkeypatch, tmp_path):
    """The pipeline evaluates the trace it was handed; it does not load
    the file it just wrote, and nothing decodes a trace outside
    ``TraceStore.load`` (the pipeline bootstrap's reads)."""
    inside = loading = False
    loads_inside = batched = decodes_in_load = stray_decodes = 0
    load = TraceStore.load
    ingest_batch = IncrementalPipeline.ingest_batch
    decode = serialize_module.trace_from_dict

    def counting_load(self, fingerprint):
        nonlocal loads_inside, loading
        loads_inside += inside
        loading = True
        try:
            return load(self, fingerprint)
        finally:
            loading = False

    def counting_decode(payload, *args, **kwargs):
        nonlocal decodes_in_load, stray_decodes
        decodes_in_load += loading
        stray_decodes += not loading
        return decode(payload, *args, **kwargs)

    def flagged_ingest_batch(self, traces, *args, **kwargs):
        nonlocal inside, batched
        inside = True
        batched += len(traces)
        try:
            return ingest_batch(self, traces, *args, **kwargs)
        finally:
            inside = False

    monkeypatch.setattr(TraceStore, "load", counting_load)
    monkeypatch.setattr(serialize_module, "trace_from_dict", counting_decode)
    monkeypatch.setattr(store_module, "trace_from_dict", counting_decode)
    monkeypatch.setattr(
        IncrementalPipeline, "ingest_batch", flagged_ingest_batch
    )
    program = REGISTRY.build("npgsql").program
    store = TraceStore.init(tmp_path / "c", program=program.name)
    driver = ExplorationDriver(
        program, ExploreConfig(budget=200), store=store
    )
    driver.run()
    assert driver.pipeline is not None
    assert batched > 0
    assert loads_inside == 0
    assert decodes_in_load > 0
    assert stray_decodes == 0
