"""Coverage-guided, wave-parallel schedule-space exploration.

Role
----
The fuzzing loop of :mod:`repro.explore`: run the simulator under a
pluggable strategy, fingerprint each execution's *interleaving*
(:meth:`~repro.sim.schedule.Schedule.signature`), keep a frontier of
coverage-increasing schedules, and mutate frontier members (replay a
prefix, explore a fresh tail) to push into unseen handoff orderings.
Every novel failing interleaving becomes two durable artifacts:

* its trace, ingested into a :class:`~repro.corpus.store.TraceStore`
  (through the :class:`~repro.corpus.pipeline.IncrementalPipeline` once
  the store can bootstrap one, so the corpus's SD counts, FD set, and
  AC-DAG stay patched as failures stream in);
* its recorded :class:`~repro.sim.schedule.Schedule`, replay-verified
  on the spot and optionally saved to disk — the reproducer.

Waves
-----
Executions dispatch in *waves* of ``config.wave`` plans through an
:class:`~repro.exec.engine.ExecutionEngine`, so ``--jobs N`` fans the
simulator across threads or forked processes.  Determinism survives
parallelism because the protocol is plan-ahead/observe-in-order:

* every random draw (mutate-or-fresh, parent pick, prefix cut) happens
  in the parent *while planning the wave*, before anything runs;
* a plan is a picklable spec — a registered strategy name rebuilt from
  ``(name, params, seed)`` in the worker, or a recorded
  :class:`~repro.sim.schedule.Schedule` plus prefix cut and tail seed;
* the backend's ``map`` is order-preserving, and observations are
  applied strictly in submission order.

The wave size is a fixed config value, *independent of the job count*,
so planning boundaries (and therefore mutation parents) are identical
whatever the parallelism — the result payload is byte-identical across
``--jobs 1`` / ``--jobs 8`` and across backends (asserted in tests).

Partial-order pruning
---------------------
Each execution also gets a *canonical* signature
(:meth:`~repro.sim.schedule.Schedule.canonical_signature`): the normal
form of its Mazurkiewicz equivalence class, where adjacent decisions of
threads touching disjoint resources commute.  Search state dedupes by
class — an execution whose class was already explored earns no frontier
slot, no mutation energy, and no pass-ingestion (surfaced as
``pruned_equivalent`` in the payload and ``equivalent-pruned`` events).
Failures are *never* pruned: they stay keyed by exact signature, since
commuting decisions can still shift virtual timestamps.

Coverage signal
---------------
An execution's coverage is its set of thread-handoff edges
(``Schedule.transitions()``: which thread ran immediately after which).
The alphabet is tiny and saturates fast on small programs — exactly the
property a frontier needs: once edges stop appearing, mutation energy
concentrates on reorderings of known edges, which is where the
canonical signature keeps discriminating.

Invariants
----------
* a driver run is a pure function of ``(config, program)`` *minus* the
  ``jobs``/``backend`` knobs: all randomness flows from
  ``Random(config.start_seed)`` and the per-execution seeds
  ``start_seed + i`` (asserted in tests);
* observers never affect results — events mirror state changes that
  already happened (the :mod:`repro.api.events` contract);
* every reported failure's schedule replays to the recorded trace
  fingerprint when ``verify_replays`` is on (asserted per failure and
  surfaced per-failure in the result payload);
* corpus ingestion is batched per wave
  (:meth:`~repro.corpus.pipeline.IncrementalPipeline.ingest_batch`) —
  one counter update, one FD derivation, one DAG restriction per wave,
  byte-identical to per-trace ingestion;
* bookkeeping is paid once per execution: each schedule is hashed once
  (its signature rides next to it in the frontier) and
  :func:`relevant_flips` runs once per admitted execution, on key and
  write sets built once for it (asserted by count gates in tests).
"""

from __future__ import annotations

from bisect import bisect_right
from collections import deque
from dataclasses import dataclass, field
from pathlib import Path
from random import Random
from typing import TYPE_CHECKING, Optional

from ..sim.schedule import RandomStrategy, ReplayStrategy, Schedule
from ..sim.scheduler import DEFAULT_MAX_STEPS, Simulator
from ..sim.serialize import stable_digest, trace_to_dict

if TYPE_CHECKING:  # pragma: no cover - typing only
    from ..api.events import EventBus
    from ..corpus.store import TraceStore
    from ..sim.program import Program

#: version of the ``repro explore --json`` payload
EXPLORE_SCHEMA_VERSION = 2


@dataclass(frozen=True)
class ExploreConfig:
    """Knobs for one exploration run.

    ``jobs`` and ``backend`` are *throughput* knobs: they change
    wall-clock time only, never the result payload.  ``wave`` and
    ``partial_order`` are *search* knobs and do shape the result.
    """

    #: total executions to spend
    budget: int = 200
    #: registered strategy driving *fresh* (non-mutated) executions
    strategy: str = "random"
    strategy_params: dict = field(default_factory=dict)
    start_seed: int = 0
    max_steps: int = DEFAULT_MAX_STEPS
    #: probability a run mutates a frontier schedule instead of running
    #: the strategy fresh (0 disables mutation entirely)
    mutation_rate: float = 0.5
    #: most coverage-increasing schedules kept for mutation (FIFO)
    frontier_cap: int = 64
    #: passing traces ingested into the corpus (novel-coverage ones
    #: first) — enough for the pipeline to bootstrap, without flooding
    #: the store with near-duplicate successes
    max_pass_ingest: int = 25
    #: emit a frontier-stats event every N executions (0 disables)
    stats_every: int = 50
    #: re-run every novel failure from its recorded schedule and check
    #: the trace fingerprint matches
    verify_replays: bool = True
    #: directory to save one ``<signature>.json`` schedule per novel
    #: failure (``None`` = keep schedules in memory only)
    schedule_dir: Optional[str] = None
    #: executions planned per dispatch wave — fixed and independent of
    #: ``jobs``, so planning boundaries (and results) never depend on
    #: the parallelism
    wave: int = 16
    #: worker count for the execution backend (1 = serial)
    jobs: int = 1
    #: backend name (``None``: serial when ``jobs <= 1``, else threads)
    backend: Optional[str] = None
    #: dedupe frontier admission, mutation energy, and pass-ingestion
    #: by Mazurkiewicz equivalence class instead of exact interleaving
    partial_order: bool = True


@dataclass(frozen=True)
class WavePlan:
    """One planned execution: everything a worker needs, picklable.

    Fresh runs rebuild their strategy from the driver's registered
    ``(strategy, params)`` and this plan's seed; mutations carry the
    recorded parent :class:`~repro.sim.schedule.Schedule`, the prefix
    cut, and the tail seed.  All RNG draws happened at planning time.
    """

    index: int
    seed: int
    mutated: bool
    parent: Optional[Schedule] = None
    prefix: Optional[int] = None
    tail_seed: Optional[int] = None
    #: directed mutation: the candidate the worker must schedule at
    #: decision ``prefix`` instead of the parent's recorded choice
    #: (None = plain prefix-cut mutation with a random tail)
    force: Optional[str] = None


@dataclass
class WaveObservation:
    """What one worker saw: the picklable result of executing a plan."""

    index: int
    seed: int
    mutated: bool
    diverged: bool
    trace: object  # ExecutionTrace (plain data, picklable)
    schedule: Schedule
    footprints: tuple
    #: decision indices where more than one thread was ready — the
    #: branch points directed mutation can flip
    branches: tuple = ()


class _BranchRecorder:
    """Strategy wrapper that notes every decision index with more than
    one ready thread (and who was ready) — the branch points directed
    mutation can flip.  Purely observational: the inner strategy's
    choices pass through untouched, so recorded schedules and traces
    are unaffected."""

    def __init__(self, inner) -> None:
        self.inner = inner
        self.branches: list[tuple[int, tuple[str, ...]]] = []

    def choose(self, point) -> str:
        if len(point.candidates) > 1:
            self.branches.append((point.index, tuple(point.candidates)))
        return self.inner.choose(point)


def relevant_flips(
    decisions, footprints, branches
) -> tuple[tuple[int, str], ...]:
    """The dependence-relevant backtrack points of one execution.

    For each recorded branch ``(b, candidates)`` and each candidate
    ``c`` the schedule did *not* take there, flipping the decision to
    ``c`` hoists ``c``'s next action from its later slot ``j`` across
    decisions ``b..j-1``.  By Mazurkiewicz equivalence that lands in a
    *different* class only if the hoisted action conflicts with (or is
    ordered by a barrier against) something it crosses — otherwise the
    flip merely commutes independent decisions and re-executes the
    same class.  This is the DPOR backtrack-set computation, applied
    as a mutation filter: only class-changing flips are worth budget.

    A candidate that never ran again is kept unconditionally — its
    behavior past ``b`` is entirely unobserved.

    The conflict test is
    :func:`~repro.sim.schedule.footprints_conflict` on per-decision
    key and write sets built once per call: two footprints conflict
    exactly when one's writes meet the other's keys.  Slot ``j`` comes
    from per-thread position lists by bisection, and every branch
    waiting on the same slot shares one downward scan for the latest
    decision ``j`` cannot commute past.
    """
    if len(footprints) != len(decisions):
        # No independence information (e.g. a replayed schedule from
        # disk): every flip is potentially relevant.
        return tuple(
            (b, c)
            for b, candidates in branches
            for c in candidates
            if c != decisions[b]
        )
    if not branches:
        return ()
    keys = [frozenset(key for key, _ in fp) for fp in footprints]
    writes = [frozenset(key for key, w in fp if w) for fp in footprints]
    barrier = [("*", True) in fp for fp in footprints]
    positions: dict[str, list[int]] = {}
    for k, thread in enumerate(decisions):
        positions.setdefault(thread, []).append(k)
    # slot j -> (lowest k scanned, latest k in [that, j) that j does
    # not commute past, or -1)
    scans: dict[int, tuple[int, int]] = {}
    flips: list[tuple[int, str]] = []
    for b, candidates in branches:
        chosen = decisions[b]
        for c in candidates:
            if c == chosen:
                continue
            slots = positions.get(c, ())
            at = bisect_right(slots, b)
            if at == len(slots):
                flips.append((b, c))
                continue
            j = slots[at]
            if barrier[j]:
                flips.append((b, c))
                continue
            lo, hit = scans.get(j, (j, -1))
            if hit < 0 and b < lo:
                keys_j, writes_j = keys[j], writes[j]
                for k in range(lo - 1, b - 1, -1):
                    if (
                        barrier[k]
                        or not writes_j.isdisjoint(keys[k])
                        or not keys_j.isdisjoint(writes[k])
                    ):
                        hit = k
                        break
                scans[j] = (b, hit)
            if hit >= b:
                flips.append((b, c))
    return tuple(flips)


@dataclass
class FoundFailure:
    """One novel failing interleaving and its reproducer."""

    schedule: Schedule
    signature: str  # schedule (interleaving) signature
    failure_signature: str
    seed: int
    fingerprint: str  # trace content fingerprint
    replay_verified: Optional[bool] = None  # None = not verified
    path: Optional[str] = None  # saved schedule file, if any

    def to_dict(self) -> dict:
        return {
            "signature": self.signature,
            "failure_signature": self.failure_signature,
            "seed": self.seed,
            "fingerprint": self.fingerprint,
            "replay_verified": self.replay_verified,
            "path": self.path,
            "decisions": len(self.schedule),
        }


@dataclass
class ExplorationResult:
    """Everything one exploration run learned.

    Deliberately excludes ``jobs``/``backend``: the payload must be
    byte-identical whatever the parallelism.
    """

    program: str
    strategy: str
    budget: int
    wave: int = 0
    partial_order: bool = True
    executions: int = 0
    n_failed: int = 0
    distinct_signatures: int = 0
    distinct_failing_signatures: int = 0
    #: distinct Mazurkiewicz classes among the executions
    distinct_canonical: int = 0
    #: executions whose equivalence class had already been explored
    pruned_equivalent: int = 0
    coverage_edges: int = 0
    frontier_size: int = 0
    ingested_pass: int = 0
    ingested_fail: int = 0
    failures: list[FoundFailure] = field(default_factory=list)

    @property
    def all_replays_verified(self) -> bool:
        """Whether every verified failure replayed byte-identically
        (vacuously true when verification was off)."""
        return all(
            f.replay_verified is not False for f in self.failures
        )

    def to_dict(self) -> dict:
        return {
            "schema": EXPLORE_SCHEMA_VERSION,
            "program": self.program,
            "strategy": self.strategy,
            "budget": self.budget,
            "wave": self.wave,
            "partial_order": self.partial_order,
            "executions": self.executions,
            "n_failed": self.n_failed,
            "distinct_signatures": self.distinct_signatures,
            "distinct_failing_signatures": self.distinct_failing_signatures,
            "distinct_canonical": self.distinct_canonical,
            "pruned_equivalent": self.pruned_equivalent,
            "coverage_edges": self.coverage_edges,
            "frontier_size": self.frontier_size,
            "ingested": {
                "pass": self.ingested_pass,
                "fail": self.ingested_fail,
            },
            "failures_found": len(self.failures),
            "all_replays_verified": self.all_replays_verified,
            "failures": [f.to_dict() for f in self.failures],
        }


class ExplorationDriver:
    """The wave-parallel exploration loop (see the module docstring).

    ``store`` is optional: without one, exploration still finds and
    verifies failures, it just keeps no durable corpus.  With one, every
    novel failing trace (plus a bounded sample of passes) is ingested —
    batched per wave through
    :meth:`~repro.corpus.pipeline.IncrementalPipeline.ingest_batch` as
    soon as the store holds both labels, so the maintained analysis
    views patch along at one update per wave.
    """

    def __init__(
        self,
        program: "Program",
        config: Optional[ExploreConfig] = None,
        store: Optional["TraceStore"] = None,
        bus: Optional["EventBus"] = None,
    ) -> None:
        self.program = program
        self.config = config or ExploreConfig()
        if self.config.wave < 1:
            raise ValueError(
                f"wave size must be >= 1, got {self.config.wave}"
            )
        if self.config.budget < 0:
            raise ValueError(
                f"budget must be >= 0, got {self.config.budget}"
            )
        if store is not None and store.program not in (None, program.name):
            from ..corpus.store import CorpusError

            # Fail before the first wave, not at its first ingestion.
            raise CorpusError(
                f"this corpus holds {store.program!r}, not "
                f"{program.name!r}"
            )
        self.store = store
        self.bus = bus
        self.simulator = Simulator(
            program, max_steps=self.config.max_steps
        )
        #: interleaving signatures of every execution seen
        self.seen: set[str] = set()
        #: Mazurkiewicz class -> executions observed in it
        self.canonical_seen: dict[str, int] = {}
        #: signatures that failed (novelty filter for failure artifacts)
        self.failing_seen: set[str] = set()
        #: trace fingerprints of recorded failures — two interleavings
        #: can serialize to the identical trace (the differing
        #: decisions leave no observable event), and a second schedule
        #: reproducing the same trace adds no reproducer value
        self._failure_fingerprints: set[str] = set()
        #: handoff edges covered so far
        self.coverage: set[tuple[str, str]] = set()
        #: coverage-increasing schedules, mutation fodder, each next to
        #: its signature (hashed once, in :meth:`_observe`) — the deque
        #: cap makes eviction O(1) where a list's pop(0) was O(n)
        self.frontier: deque[tuple[Schedule, str]] = deque(
            maxlen=self.config.frontier_cap
        )
        #: exact signature -> dependence-relevant flips of an admitted
        #: schedule (see :func:`relevant_flips`); what directed
        #: mutation spends budget on.  Grows with distinct admitted
        #: signatures — bounded by the budget, tiny tuples, so no
        #: eviction needed.
        self._flips: dict[str, tuple[tuple[int, str], ...]] = {}
        #: (signature, branch, forced choice) triples already planned —
        #: a flip is attempted at most once, like a DPOR backtrack set
        self._flips_tried: set[tuple[str, int, str]] = set()
        self.pipeline = None  # lazily bootstrapped IncrementalPipeline
        self._rng = Random(self.config.start_seed)
        #: (trace, schedule signature, "pass"|"fail") awaiting the
        #: current wave's batched ingestion
        self._wave_candidates: list[tuple[object, str, str]] = []
        self._pending_pass = 0
        self._factory = None  # set in run(); workers rebuild from it
        #: mutation-energy accounting (partial-order pruning): how many
        #: mutations ran, and how many landed in a novel class
        self._mutations = 0
        self._mutations_novel = 0

    def _emit(self, event) -> None:
        if self.bus is not None:
            self.bus.emit(event)

    # -- the loop --------------------------------------------------------

    def run(self) -> ExplorationResult:
        from ..api.events import ExplorationFinished, ExplorationStarted
        from ..api.registry import strategy_factory
        from ..exec.engine import ExecutionEngine

        cfg = self.config
        self._factory = strategy_factory(cfg.strategy, cfg.strategy_params)
        result = ExplorationResult(
            program=self.program.name,
            strategy=cfg.strategy,
            budget=cfg.budget,
            wave=cfg.wave,
            partial_order=cfg.partial_order,
        )
        self._emit(
            ExplorationStarted(
                program=self.program.name,
                strategy=cfg.strategy,
                budget=cfg.budget,
            )
        )
        engine = ExecutionEngine.from_options(
            jobs=cfg.jobs, backend=cfg.backend
        )
        try:
            done = 0
            while done < cfg.budget:
                count = min(cfg.wave, cfg.budget - done)
                plans = [self._plan(done + k) for k in range(count)]
                observations = engine.execute(plans, self._run_plan)
                for observation in observations:
                    self._observe(observation, result)
                    if (
                        cfg.stats_every
                        and result.executions % cfg.stats_every == 0
                    ):
                        self._emit_stats(result)
                self._ingest_wave(result)
                done += count
        finally:
            engine.close()
        result.coverage_edges = len(self.coverage)
        result.frontier_size = len(self.frontier)
        result.distinct_signatures = len(self.seen)
        result.distinct_failing_signatures = len(self.failing_seen)
        result.distinct_canonical = len(self.canonical_seen)
        self._persist()
        self._emit(
            ExplorationFinished(
                executions=result.executions,
                failures_found=len(result.failures),
                distinct_signatures=result.distinct_signatures,
                distinct_failing_signatures=(
                    result.distinct_failing_signatures
                ),
                coverage_edges=result.coverage_edges,
                distinct_canonical=result.distinct_canonical,
                pruned_equivalent=result.pruned_equivalent,
            )
        )
        return result

    # -- planning (parent only, all RNG here) ----------------------------

    def _plan(self, i: int) -> WavePlan:
        """Mutate a frontier schedule, or run the base strategy fresh.

        Consumes the driver RNG exactly like the historical serial
        ``_next_strategy`` did (``randrange(len)`` indexing draws the
        same underlying bits as ``choice``), so plans — and therefore
        results — are independent of how the wave later executes.
        """
        cfg = self.config
        seed = cfg.start_seed + i
        rate = cfg.mutation_rate
        if cfg.partial_order and self._mutations:
            # Withhold energy from mutation when it stops paying:
            # scale the rate by the fraction of past mutations that
            # reached a *novel* equivalence class, so saturated-class
            # budget flows back into fresh strategy seeds.  Uses only
            # observations from completed waves — deterministic for
            # any job count.
            novel_frac = self._mutations_novel / self._mutations
            rate *= max(0.1, novel_frac)
        if cfg.partial_order:
            # Directed mutation: spend each plan on one untried
            # *dependence-relevant* flip from anywhere in the frontier
            # — replay to a recorded branch point, schedule a candidate
            # whose hoisted action conflicts with the parent's
            # continuation, then follow the parent's remaining order
            # (the DPOR backtrack move; lands in a provably different
            # equivalence class).  Each flip is attempted at most
            # once; when the pool is dry, budget flows back into
            # fresh strategy seeds — blind prefix-cut mutations mostly
            # resample already-seen classes.
            pool = self._untried_flips()
            if pool and self._rng.random() < rate:
                parent, sig, b, c = pool[self._rng.randrange(len(pool))]
                self._flips_tried.add((sig, b, c))
                return WavePlan(
                    index=i,
                    seed=seed,
                    mutated=True,
                    parent=parent,
                    prefix=b,
                    tail_seed=seed,
                    force=c,
                )
            return WavePlan(index=i, seed=seed, mutated=False)
        if self.frontier and self._rng.random() < rate:
            parent, _ = self.frontier[
                self._rng.randrange(len(self.frontier))
            ]
            if len(parent) > 0:
                cut = self._rng.randrange(1, len(parent) + 1)
                return WavePlan(
                    index=i,
                    seed=seed,
                    mutated=True,
                    parent=parent,
                    prefix=cut,
                    tail_seed=seed,
                )
        return WavePlan(index=i, seed=seed, mutated=False)

    def _untried_flips(self) -> list[tuple[Schedule, str, int, str]]:
        """Every (parent, signature, branch, choice) flip not yet
        attempted, in frontier order — the directed-mutation pool.
        Rebuilt on every plan, but from the signatures the frontier
        keeps: no schedule is re-hashed here."""
        pool: list[tuple[Schedule, str, int, str]] = []
        for parent, sig in self.frontier:
            for b, c in self._flips.get(sig, ()):
                if (sig, b, c) not in self._flips_tried:
                    pool.append((parent, sig, b, c))
        return pool

    # -- execution (workers; must not read mutable driver state) ---------

    def _run_plan(self, plan: WavePlan) -> WaveObservation:
        """Execute one plan.  Runs in a worker under thread/process
        backends: reads only the plan and state frozen before the first
        wave (program, simulator, strategy factory)."""
        from .strategies import SwapTail

        if plan.parent is not None:
            if plan.force is not None:
                # Desired order past the branch: the forced candidate,
                # then the parent's remaining decisions minus the
                # forced thread's old slot (it was hoisted, not added).
                rest = list(plan.parent.decisions[plan.prefix :])
                for k in range(1, len(rest)):
                    if rest[k] == plan.force:
                        del rest[k]
                        break
                tail = SwapTail(
                    queue=(plan.force, *rest), seed=plan.tail_seed
                )
            else:
                tail = RandomStrategy(plan.tail_seed)
            strategy = ReplayStrategy(
                schedule=plan.parent, prefix=plan.prefix, tail=tail
            )
        else:
            strategy = self._factory(plan.seed)
        # A forced flip must re-execute the parent's run exactly up to
        # the branch, so it runs under the parent's recorded seed (the
        # program's own behavior is seed-dependent); plain mutations
        # keep the historical fresh-seed semantics.
        run_seed = (
            plan.parent.seed
            if plan.parent is not None and plan.force is not None
            else plan.seed
        )
        recorder = _BranchRecorder(strategy)
        execution = self.simulator.run(run_seed, strategy=recorder)
        return WaveObservation(
            index=plan.index,
            seed=plan.seed,
            mutated=plan.mutated,
            diverged=bool(getattr(strategy, "diverged", False)),
            trace=execution.trace,
            schedule=execution.schedule,
            footprints=execution.footprints,
            branches=tuple(recorder.branches),
        )

    # -- observation (parent, submission order) --------------------------

    def _observe(self, observation: WaveObservation, result) -> None:
        from ..api.events import (
            EquivalentPruned,
            ExecutionExplored,
            NovelCoverage,
        )

        cfg = self.config
        schedule = observation.schedule
        signature = schedule.signature()
        canonical = schedule.canonical_signature(observation.footprints)
        failed = observation.trace.failed
        result.executions += 1
        if failed:
            result.n_failed += 1
        novel_signature = signature not in self.seen
        self.seen.add(signature)
        occurrences = self.canonical_seen.get(canonical, 0) + 1
        self.canonical_seen[canonical] = occurrences
        novel_class = occurrences == 1
        if observation.mutated:
            self._mutations += 1
            if novel_class:
                self._mutations_novel += 1
        if not novel_class:
            result.pruned_equivalent += 1
            if cfg.partial_order:
                self._emit(
                    EquivalentPruned(
                        signature=signature,
                        canonical=canonical,
                        occurrences=occurrences,
                    )
                )
        self._emit(
            ExecutionExplored(
                index=result.executions - 1,
                seed=observation.seed,
                signature=signature,
                failed=failed,
                mutated=observation.mutated,
            )
        )
        new_edges = schedule.transitions() - self.coverage
        if new_edges:
            self.coverage.update(new_edges)
        # Mutation energy is allotted by equivalence class: a schedule
        # in an already-seen class earns no frontier slot even if its
        # particular linearization covered a new handoff edge, while a
        # class-novel schedule earns one even after the tiny edge
        # alphabet saturates — that is where the canonical signature
        # keeps discriminating.  Without pruning, admission is the
        # historical new-edges rule.
        if cfg.partial_order:
            admit = novel_class
        else:
            admit = bool(new_edges)
        if admit:
            self.frontier.append((schedule, signature))
            if cfg.partial_order and signature not in self._flips:
                self._flips[signature] = relevant_flips(
                    schedule.decisions,
                    observation.footprints,
                    observation.branches,
                )
        if new_edges:
            self._emit(
                NovelCoverage(
                    signature=signature,
                    new_edges=len(new_edges),
                    total_edges=len(self.coverage),
                )
            )
        novel_for_ingest = novel_class if cfg.partial_order else novel_signature
        if failed and signature not in self.failing_seen:
            self.failing_seen.add(signature)
            self._record_failure(observation, schedule, signature, result)
        elif (
            not failed
            and novel_for_ingest
            and self.store is not None
            and result.ingested_pass + self._pending_pass
            < cfg.max_pass_ingest
        ):
            self._wave_candidates.append(
                (observation.trace, signature, "pass")
            )
            self._pending_pass += 1

    def _record_failure(self, observation, schedule, signature, result):
        from ..api.events import FailureFound

        cfg = self.config
        fingerprint = stable_digest(trace_to_dict(observation.trace))
        if fingerprint in self._failure_fingerprints:
            return  # same observable trace as a recorded failure
        self._failure_fingerprints.add(fingerprint)
        verified: Optional[bool] = None
        if cfg.verify_replays:
            replay = self.simulator.run(
                schedule.seed, strategy=ReplayStrategy(schedule=schedule)
            )
            verified = (
                stable_digest(trace_to_dict(replay.trace)) == fingerprint
            )
        path = None
        if cfg.schedule_dir is not None:
            directory = Path(cfg.schedule_dir)
            directory.mkdir(parents=True, exist_ok=True)
            path = str(schedule.save(directory / f"{signature}.json"))
        found = FoundFailure(
            schedule=schedule,
            signature=signature,
            failure_signature=observation.trace.failure.signature,
            seed=schedule.seed,
            fingerprint=fingerprint,
            replay_verified=verified,
            path=path,
        )
        result.failures.append(found)
        if self.store is not None:
            self._wave_candidates.append(
                (observation.trace, signature, "fail")
            )
        self._emit(
            FailureFound(
                signature=signature,
                failure_signature=found.failure_signature,
                seed=found.seed,
                replay_verified=bool(verified),
            )
        )

    # -- corpus integration (batched per wave) ---------------------------

    def _ingest_wave(self, result) -> None:
        """Flush the wave's ingestion candidates: plain store ingests
        until the pipeline can bootstrap, one
        :meth:`~repro.corpus.pipeline.IncrementalPipeline.ingest_batch`
        for everything after."""
        candidates = self._wave_candidates
        self._wave_candidates = []
        self._pending_pass = 0
        if self.store is None or not candidates:
            return
        added_flags: list[bool] = []
        i = 0
        while i < len(candidates):
            self._maybe_bootstrap()
            if self.pipeline is not None:
                break
            trace, sched_sig, _ = candidates[i]
            _, added = self.store.ingest(
                trace, schedule_signature=sched_sig
            )
            added_flags.append(added)
            i += 1
        if i < len(candidates):
            batch = self.pipeline.ingest_batch(
                [trace for trace, _, _ in candidates[i:]],
                [sig for _, sig, _ in candidates[i:]],
            )
            added_flags.extend(r.added for r in batch.results)
        for (_, _, kind), added in zip(candidates, added_flags):
            if not added:
                continue
            if kind == "fail":
                result.ingested_fail += 1
            else:
                result.ingested_pass += 1

    def _maybe_bootstrap(self) -> None:
        """Bootstrap the incremental pipeline once both labels exist.

        A store that cannot bootstrap yet (or whose content defeats
        suite discovery) falls back to plain ``store.ingest`` — the
        traces are never lost, analysis just starts on the next
        ``repro corpus analyze``.
        """
        from ..corpus.pipeline import IncrementalPipeline
        from ..corpus.store import CorpusError

        if self.pipeline is not None or self.store is None:
            return
        if self.store.n_pass < 1 or self.store.n_fail < 1:
            return
        pipeline = IncrementalPipeline(
            self.store, program=self.program, bus=self.bus
        )
        try:
            pipeline.bootstrap()
        except CorpusError:
            return
        self.pipeline = pipeline

    def _persist(self) -> None:
        if self.pipeline is not None:
            self.pipeline.save()
        elif self.store is not None:
            self.store.save()

    def _emit_stats(self, result) -> None:
        from ..api.events import FrontierStats

        self._emit(
            FrontierStats(
                executions=result.executions,
                frontier_size=len(self.frontier),
                coverage_edges=len(self.coverage),
                distinct_signatures=len(self.seen),
                failures_found=len(result.failures),
            )
        )


def explore(
    program: "Program",
    config: Optional[ExploreConfig] = None,
    store: Optional["TraceStore"] = None,
    bus: Optional["EventBus"] = None,
) -> ExplorationResult:
    """One-call exploration: run the driver and return its result."""
    return ExplorationDriver(
        program, config=config, store=store, bus=bus
    ).run()
