"""The benchmark's workloads: set-up, timed operations and their checks.

One client issues every operation and waits for it to finish before
issuing the next (a closed loop).  Everything runs on the serial engine
(``jobs=1``, the CLI default), with no outcome cache and no
``ObsContext``.  The workload seed becomes the collection
``start_seed``, the analysis ``rng_seed`` and the explore
``start_seed``.

* ``live-debug`` — one ``repro.run`` live session per bundled case
  study, as ``repro debug`` runs it.  Mostly simulator work.
* ``corpus-analyze`` — a cold incremental ``repro.run`` over a fresh
  copy of a stored kafka corpus, then warm re-analyses of that copy.
  No simulator work: store I/O, discovery, evaluation, AC-DAG builds.
* ``explore-ingest`` — ``ExplorationDriver`` runs, each into a freshly
  initialised corpus: the write path next to simulator work.

Each workload owns some end-to-end metrics.  Every workload must report
every end-to-end metric, so the metrics a workload does not own come
from a small fixed *companion* operation of that command (a short
network debug session, a small kafka corpus analyzed cold and warm, a
short kafka exploration).  Companions run only in untraced passes.
"""

from __future__ import annotations

import gc
import json
import os
import shutil
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable, Optional

from repro.api import RunSpec, run
from repro.api.events import EventBus
from repro.api.registry import workloads as registry
from repro.api.spec import AnalysisSpec, CollectionSpec, CorpusSpec, WorkloadSpec
from repro.corpus import TraceStore
from repro.explore import ExplorationDriver, ExploreConfig
from repro.harness.experiments import CASE_STUDY_ORDER
from repro.harness.runner import collect

#: sizes per scale; "smoke" is the self-test's toy size
SIZES = {
    "full": {
        "debug_programs": CASE_STUDY_ORDER,
        "debug_runs": 200,
        "corpus_runs": 500,
        "explore_programs": ("healthtelemetry", "kafka"),
        "explore_budget": 400,
        # set up at least this many times, and for at least this long
        "setup_repeats": 3,
        "setup_seconds": 2.0,
        "companion_debug_runs": 50,
        "companion_corpus_runs": 50,
        "companion_explore_budget": 64,
    },
    "smoke": {
        "debug_programs": ("network", "npgsql"),
        "debug_runs": 50,
        "corpus_runs": 40,
        "explore_programs": ("kafka",),
        "explore_budget": 32,
        "setup_repeats": 1,
        "setup_seconds": 0.0,
        "companion_debug_runs": 50,
        "companion_corpus_runs": 20,
        "companion_explore_budget": 16,
    },
}

CORPUS_PROGRAM = "kafka"
COMPANION_DEBUG = "network"
COMPANION_EXPLORE = "kafka"
#: companions are fixed probes: their inputs do not follow --seed, so
#: the metrics they supply do not vary with the workload's inputs
COMPANION_SEED = 0
#: companions are short, so each pass repeats them: more samples steady
#: their medians
COMPANION_REPEATS = 2


#: what :func:`calibrate` takes on a quiet 2-CPU reference box
REFERENCE_CALIBRATION_S = 0.045


def calibrate() -> float:
    """Time a fixed pure-Python loop (dicts, lists, tuples, ``str``,
    ``hash``): how fast this machine runs Python right now.

    The loop touches nothing of repro's, so no change to the program can
    move it; the cyclic collector is paused so the size of the heap
    around it does not either.
    """
    enabled = gc.isenabled()
    gc.disable()
    try:
        started = time.perf_counter()
        acc = 0
        for i in range(100_000):
            item = {"a": i, "b": [i, i + 1, (i, str(i))]}
            acc += len(item["b"]) + hash(item["b"][2]) % 7
        return time.perf_counter() - started
    finally:
        if enabled:
            gc.enable()


def timed(fn: Callable) -> tuple[object, float, float]:
    """Run ``fn``; returns its result, its wall time, and the machine's
    slowdown while it ran: the calibration loop's time just before and
    after, over :data:`REFERENCE_CALIBRATION_S`."""
    before = calibrate()
    started = time.perf_counter()
    result = fn()
    elapsed = time.perf_counter() - started
    after = calibrate()
    return result, elapsed, (before + after) / (2 * REFERENCE_CALIBRATION_S)


def canonical(payload: dict) -> str:
    return json.dumps(payload, sort_keys=True)


def dir_bytes(root: Path) -> int:
    return sum(p.stat().st_size for p in root.rglob("*") if p.is_file())


def matches_ground_truth(workload, path: list[str]) -> bool:
    """The causal path names the case study's markers, in order."""
    markers = workload.expected_path_markers
    return len(path) - 1 == len(markers) and all(
        marker in pid for marker, pid in zip(markers, path)
    )


# -- set-up (runs in a child process; see run.py) ----------------------------


def build_corpus(root: Path, program: str, runs: int, seed: int) -> None:
    """``corpus init`` + ``corpus ingest --runs``: collect ``runs``
    successes and ``runs`` failures and store them (default width)."""
    workload = registry.build(program)
    store = TraceStore.init(root, program=workload.program.name)
    corpus = collect(
        workload.program, n_success=runs, n_fail=runs, start_seed=seed
    )
    for trace in corpus.successes + corpus.failures:
        store.ingest(trace)
    store.save()


def setup(name: str, work: Path, seed: int, scale: str) -> None:
    """Build what the workload reads: its programs and its corpora."""
    size = SIZES[scale]
    for program in (
        *size["debug_programs"], *size["explore_programs"], CORPUS_PROGRAM
    ):
        registry.build(program)
    if name == "corpus-analyze":
        build_corpus(work / "corpus", CORPUS_PROGRAM, size["corpus_runs"], seed)
    else:
        build_corpus(
            work / "companion-corpus",
            CORPUS_PROGRAM,
            size["companion_corpus_runs"],
            COMPANION_SEED,
        )


# -- operations --------------------------------------------------------------


@dataclass
class Pass:
    """One pass over a workload: runs operations, times and checks them.

    With a tracer, every operation also runs as a traced root span.
    """

    work: Path
    seed: int
    size: dict
    tracer: Optional[object] = None
    attempted: int = 0
    failed: int = 0
    problems: list[str] = field(default_factory=list)
    #: metric -> part -> samples.  A metric's value is the sum over its
    #: parts of each part's median (``debug_s`` has one part per session).
    samples: dict[str, dict[str, list[float]]] = field(default_factory=dict)
    #: operation label -> canonical result, compared traced vs untraced
    payloads: dict[str, str] = field(default_factory=dict)
    #: label of each traced root span, by root index
    roots: dict[int, str] = field(default_factory=dict)
    wall: float = 0.0
    #: the machine's slowdown around each timed operation
    slowdowns: list[float] = field(default_factory=list)

    def observers(self) -> list:
        return [self.tracer.on_event] if self.tracer is not None else []

    def time(self, label: str, fn: Callable, dirs=()) -> tuple[object, float]:
        """Run one operation; returns its result and its wall time at
        reference speed (see :func:`timed`), or its raw wall time in a
        traced pass, whose times only feed the overhead ratio."""
        # Start every operation from a collected heap and flushed disk,
        # as a fresh CLI process would, so earlier operations' garbage
        # and pending writeback do not land in this one's time.
        gc.collect()
        os.sync()
        if self.tracer is None:
            result, elapsed, slowdown = timed(fn)
            self.slowdowns.append(slowdown)
            self.wall += elapsed
            return result, elapsed / slowdown
        result, elapsed, root = self.tracer.operation(label, fn, dirs)
        self.roots[root] = label
        self.wall += elapsed
        return result, elapsed

    def check(self, label: str, ok: bool, what: str) -> None:
        self.attempted += 1
        if not ok:
            self.failed += 1
            self.problems.append(f"{label}: {what}")

    def sample(self, metric: str, part: str, value: float) -> None:
        self.samples.setdefault(metric, {}).setdefault(part, []).append(value)

    def fresh_dir(self, name: str) -> Path:
        path = self.work / name
        shutil.rmtree(path, ignore_errors=True)
        return path


def _debug(p: Pass, programs, runs: int, seed: int) -> None:
    for name in programs:
        workload = registry.build(name)
        spec = RunSpec(
            workload=WorkloadSpec(name),
            collection=CollectionSpec(
                n_success=runs, n_fail=runs, start_seed=seed
            ),
            analysis=AnalysisSpec(rng_seed=seed),
        )
        label = f"debug:{name}"
        report, elapsed = p.time(
            label, lambda: run(spec, observers=p.observers())
        )
        p.sample("debug_s", name, elapsed)
        p.check(
            label,
            matches_ground_truth(workload, report.causal_path),
            f"causal path {report.causal_path} misses "
            f"{workload.expected_path_markers}",
        )
        p.payloads[label] = canonical(report.to_dict())


class _Fresh:
    """Bus observer noting the fresh evaluations an analyze reports."""

    fresh: Optional[int] = None

    def __call__(self, event) -> None:
        if event.kind == "logs-evaluated":
            self.fresh = event.fresh


def _analyze(p: Pass, source: Path, seed: int) -> None:
    """Cold analyze of a fresh copy of ``source``, then a warm one."""
    copy = p.fresh_dir("analyzed")
    shutil.copytree(source, copy)
    spec = RunSpec(
        corpus=CorpusSpec(dir=str(copy), mode="incremental"),
        analysis=AnalysisSpec(rng_seed=seed),
    )

    def analyze(label: str):
        fresh = _Fresh()
        report, elapsed = p.time(
            label,
            lambda: run(spec, observers=[fresh, *p.observers()]),
            dirs=[copy],
        )
        return canonical(report.to_dict()), fresh.fresh, elapsed

    cold, fresh, elapsed = analyze("analyze-cold")
    p.sample("analyze_cold_s", "", elapsed)
    p.check("analyze-cold", bool(fresh), "cold analyze evaluated nothing")
    p.payloads["analyze-cold"] = cold
    warm, fresh, elapsed = analyze("analyze-warm")
    p.sample("analyze_warm_s", "", elapsed)
    p.check(
        "analyze-warm",
        warm == cold and fresh == 0,
        f"warm report differs from cold or evaluated {fresh} pairs",
    )
    p.payloads["analyze-warm"] = warm
    n_traces = len(TraceStore.open(copy))
    p.sample("store_bytes_per_trace", "", dir_bytes(copy) / n_traces)
    shutil.rmtree(copy)


def _explore(p: Pass, programs, budget: int, seed: int) -> float:
    """Explore each program into a fresh corpus; returns the bytes
    stored per trace."""
    stored_bytes = stored_traces = 0
    for name in programs:
        workload = registry.build(name)
        root = p.fresh_dir(f"explore-{name}")
        store = TraceStore.init(root, program=workload.program.name)
        config = ExploreConfig(budget=budget, start_seed=seed)
        observers = p.observers()
        bus = EventBus(observers) if observers else None
        label = f"explore:{name}"
        result, elapsed = p.time(
            label,
            lambda: ExplorationDriver(
                workload.program, config=config, store=store, bus=bus
            ).run(),
            dirs=[root],
        )
        p.sample("explore_s", name, elapsed)
        p.check(
            label,
            result.executions == budget
            and all(f.replay_verified is True for f in result.failures),
            "an exploration fell short of its budget or a failure did "
            "not replay",
        )
        p.payloads[label] = canonical(result.to_dict())
        stored_bytes += dir_bytes(root)
        stored_traces += len(TraceStore.open(root))
        shutil.rmtree(root)
    return stored_bytes / stored_traces


# -- the workloads -----------------------------------------------------------


def live_debug(p: Pass) -> None:
    _debug(p, p.size["debug_programs"], p.size["debug_runs"], p.seed)


def corpus_analyze(p: Pass) -> None:
    _analyze(p, p.work / "corpus", p.seed)


def explore_ingest(p: Pass) -> None:
    per_trace = _explore(
        p, p.size["explore_programs"], p.size["explore_budget"], p.seed
    )
    p.sample("store_bytes_per_trace", "", per_trace)


def companion_debug(p: Pass) -> None:
    for _ in range(COMPANION_REPEATS):
        _debug(
            p,
            (COMPANION_DEBUG,),
            p.size["companion_debug_runs"],
            COMPANION_SEED,
        )


def companion_analyze(p: Pass) -> None:
    for _ in range(COMPANION_REPEATS):
        _analyze(p, p.work / "companion-corpus", COMPANION_SEED)


def companion_explore(p: Pass) -> None:
    for _ in range(COMPANION_REPEATS):
        _explore(
            p,
            (COMPANION_EXPLORE,),
            p.size["companion_explore_budget"],
            COMPANION_SEED,
        )


@dataclass(frozen=True)
class Workload:
    run: Callable[[Pass], None]
    #: untraced operations that supply the metrics ``run`` does not own
    companions: tuple
    #: per-layer metric prefix -> which traced operations it covers
    layer_groups: dict


def _all_ops(label: str) -> bool:
    return True


WORKLOADS = {
    "live-debug": Workload(
        run=live_debug,
        companions=(companion_analyze, companion_explore),
        layer_groups={"": _all_ops},
    ),
    "corpus-analyze": Workload(
        run=corpus_analyze,
        companions=(companion_debug, companion_explore),
        # Base names describe the warm analyze (the steady state);
        # ``cold.`` names the cold one, which uses the layers differently.
        layer_groups={
            "": lambda label: label == "analyze-warm",
            "cold.": lambda label: label == "analyze-cold",
        },
    ),
    "explore-ingest": Workload(
        run=explore_ingest,
        companions=(companion_debug, companion_analyze),
        layer_groups={"": _all_ops},
    ),
}

#: per-layer metrics also reported for the cold analyze, as ``cold.<name>``
COLD_LAYER_METRICS = (
    "core.discover_s",
    "core.predicates",
    "core.evaluate_s",
    "core.acdag_builds",
    "core.acdag_build_s",
    "corpus.load_s",
    "corpus.traces_loaded",
    "corpus.columnar_s",
    "corpus.evaluate_s",
    "corpus.pairs_fresh",
    "corpus.kernel_calls",
    "corpus.save_s",
    "corpus.files_written",
    "corpus.bytes_written",
    "obs.evaluate_s",
    "bench.unattributed_s",
)
