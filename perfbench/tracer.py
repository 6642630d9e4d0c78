"""Outside-in tracing of repro's layers, for the benchmark's traced run.

The tracer patches the public functions of each layer *at their use
site* (class attributes, or module globals the callers look up), so
nothing under ``src/`` changes.  Every patched call becomes a span
``(name, start, end, parent)`` kept in memory; :meth:`Tracer.dump`
writes them once, at the end.  Counts (simulator steps, memo pairs,
DAG edges, ...) are recorded at the same boundaries, attributed to the
benchmark operation that is running.

A layer's *self time* is its span's duration minus the time its direct
children cover, so the ``*_s`` per-layer metrics of one operation plus
``bench.unattributed_s`` add up to the operation's traced wall time.

The program's own bus spans (``collection``, ``discovery``,
``evaluate``, ``dag-build``, ``interventions``) are recorded beside the
outside-in spans as ``obs.*``: they show where the program *says* its
time went, which the outside-in spans can then confirm or contradict.
"""

from __future__ import annotations

import functools
import json
import os
import time
from collections import defaultdict
from contextlib import contextmanager
from pathlib import Path
from typing import Callable, Iterable, Optional

#: bus span names recorded under ``obs.<name>_s``
OBS_SPANS = ("collection", "discovery", "evaluate", "dag-build", "interventions")

#: every per-layer metric and its unit, in report order
LAYER_UNITS = {
    "sim.runs": "count",
    "sim.steps": "count",
    "sim.busy_s": "s",
    "sim.steps_per_s": "1/s",
    "harness.collect_s": "s",
    "core.discover_s": "s",
    "core.predicates": "count",
    "core.evaluate_s": "s",
    "core.acdag_builds": "count",
    "core.acdag_build_s": "s",
    "core.acdag_edges": "count",
    "core.interventions_s": "s",
    "core.rounds": "count",
    "core.intervention_runs": "count",
    "exec.executed": "count",
    "exec.cached": "count",
    "exec.batches": "count",
    "corpus.load_s": "s",
    "corpus.traces_loaded": "count",
    "corpus.columnar_s": "s",
    "corpus.evaluate_s": "s",
    "corpus.pairs_fresh": "count",
    "corpus.pairs_memoized": "count",
    "corpus.kernel_calls": "count",
    "corpus.ingest_s": "s",
    "corpus.save_s": "s",
    "corpus.files_written": "count",
    "corpus.bytes_written": "B",
    "corpus.store_bytes": "B",
    "explore.executions": "count",
    "explore.classes": "count",
    "explore.failures": "count",
    "explore.useful_ratio": "ratio",
    "explore.signature_s": "s",
    "explore.driver_self_s": "s",
    **{f"obs.{name}_s": "s" for name in OBS_SPANS},
    "bench.traced_wall_s": "s",
    "bench.unattributed_s": "s",
}

#: per-layer metric -> span whose self time it reports
SELF_TIMES = {
    "sim.busy_s": "sim",
    "harness.collect_s": "harness.collect",
    "core.discover_s": "core.discover",
    "core.evaluate_s": "core.evaluate",
    "core.acdag_build_s": "core.acdag_build",
    "core.interventions_s": "core.interventions",
    "corpus.load_s": "corpus.load",
    "corpus.columnar_s": "corpus.columnar",
    "corpus.evaluate_s": "corpus.evaluate",
    "corpus.ingest_s": "corpus.ingest",
    "corpus.save_s": "corpus.save",
    "explore.signature_s": "explore.signature",
    "explore.driver_self_s": "explore.driver",
}

#: per-layer metric -> span whose call count it reports
CALL_COUNTS = {
    "sim.runs": "sim",
    "core.acdag_builds": "core.acdag_build",
    "corpus.traces_loaded": "corpus.load",
}

ROOT_PREFIX = "op:"


def snapshot(dirs: Iterable[Path]) -> dict[str, tuple[int, int]]:
    """(size, mtime_ns) of every file under ``dirs``."""
    files: dict[str, tuple[int, int]] = {}
    for top in dirs:
        for folder, _, names in os.walk(top):
            for name in names:
                path = os.path.join(folder, name)
                try:
                    st = os.stat(path)
                except FileNotFoundError:
                    continue  # a temp file renamed away mid-walk
                files[path] = (st.st_size, st.st_mtime_ns)
    return files


def io_delta(before: dict, after: dict) -> tuple[int, int, int]:
    """(files written, bytes written, store bytes) between snapshots."""
    written = [p for p, stat in after.items() if before.get(p) != stat]
    return (
        len(written),
        sum(after[p][0] for p in written),
        sum(size for size, _ in after.values()),
    )


class Tracer:
    """Spans and counts of one traced pass over a workload."""

    def __init__(self) -> None:
        #: [name, start, end, parent index or -1]; parents precede children
        self.spans: list[list] = []
        self._stack: list[int] = []
        #: root span index -> counter -> value
        self.counts: dict[int, dict[str, float]] = {}
        #: program bus spans: [name, start, end, root index]
        self.bus_spans: list[list] = []

    # -- spans and counts -------------------------------------------------

    def _open(self, name: str) -> int:
        index = len(self.spans)
        parent = self._stack[-1] if self._stack else -1
        self.spans.append([name, time.perf_counter(), 0.0, parent])
        self._stack.append(index)
        return index

    def _close(self, index: int) -> None:
        self.spans[index][2] = time.perf_counter()
        self._stack.pop()

    def _inside(self, name: str) -> bool:
        return any(self.spans[i][0] == name for i in self._stack)

    def add(self, key: str, value: float) -> None:
        """Add to a counter of the operation that is running."""
        if self._stack:
            root = self._stack[0]
            counts = self.counts.setdefault(root, defaultdict(float))
            counts[key] += value

    def operation(
        self, label: str, fn: Callable, dirs: Iterable[Path] = ()
    ) -> tuple[object, float, int]:
        """Run one benchmark operation as a root span; returns
        ``(result, wall seconds, root index)``.  Corpus directories in
        ``dirs`` are snapshotted around it for the I/O counts."""
        dirs = list(dirs)
        before = snapshot(dirs)
        root = self._open(ROOT_PREFIX + label)
        self.counts[root] = defaultdict(float)
        try:
            result = fn()
        finally:
            self._close(root)
        _, start, end, _ = self.spans[root]
        files, written, total = io_delta(before, snapshot(dirs))
        counts = self.counts[root]
        counts["corpus.files_written"] += files
        counts["corpus.bytes_written"] += written
        counts["corpus.store_bytes"] += total
        return result, end - start, root

    def on_event(self, event) -> None:
        """Bus observer: record the program's own phase spans."""
        if getattr(event, "kind", None) == "span-closed" and (
            event.name in OBS_SPANS
        ):
            end = time.perf_counter()
            root = self._stack[0] if self._stack else -1
            self.bus_spans.append([event.name, end - event.duration, end, root])
            self.add(f"obs.{event.name}_s", event.duration)

    # -- patching ---------------------------------------------------------

    def _traced(self, fn, span: Optional[str], before, after):
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            state = before(tracer, args) if before is not None else None
            index = tracer._open(span) if span is not None else None
            try:
                result = fn(*args, **kwargs)
            finally:
                if index is not None:
                    tracer._close(index)
            if after is not None:
                after(tracer, args, result, state)
            return result

        return traced

    @contextmanager
    def installed(self):
        """Patch every layer hook for the duration of the block."""
        undo = []
        try:
            for owner, attr, span, before, after in _hooks():
                raw = (
                    owner.__dict__[attr]
                    if isinstance(owner, type)
                    else getattr(owner, attr)
                )
                if isinstance(raw, classmethod):
                    patched = classmethod(
                        self._traced(raw.__func__, span, before, after)
                    )
                else:
                    patched = self._traced(raw, span, before, after)
                setattr(owner, attr, patched)
                undo.append((owner, attr, raw))
            yield self
        finally:
            for owner, attr, raw in reversed(undo):
                setattr(owner, attr, raw)

    # -- derived metrics --------------------------------------------------

    def metrics(self, roots: Iterable[int]) -> dict[str, float]:
        """Every per-layer metric over the given root operations."""
        roots = set(roots)
        top = []  # root ancestor of each span
        child_time = [0.0] * len(self.spans)
        for name, start, end, parent in self.spans:
            top.append(len(top) if parent < 0 else top[parent])
            if parent >= 0:
                child_time[parent] += end - start
        self_time: dict[str, float] = defaultdict(float)
        calls: dict[str, int] = defaultdict(int)
        for i, (name, start, end, parent) in enumerate(self.spans):
            if top[i] in roots:
                self_time[name] += (end - start) - child_time[i]
                calls[name] += 1
        counts: dict[str, float] = defaultdict(float)
        for root in roots:
            for key, value in self.counts.get(root, {}).items():
                counts[key] += value
        out = {name: float(counts.get(name, 0.0)) for name in LAYER_UNITS}
        for metric, span in SELF_TIMES.items():
            out[metric] = self_time.get(span, 0.0)
        for metric, span in CALL_COUNTS.items():
            out[metric] = float(calls.get(span, 0))
        out["sim.steps_per_s"] = (
            out["sim.steps"] / out["sim.busy_s"] if out["sim.busy_s"] else 0.0
        )
        out["explore.useful_ratio"] = (
            out["explore.classes"] / out["explore.executions"]
            if out["explore.executions"]
            else 0.0
        )
        out["bench.traced_wall_s"] = sum(
            self.spans[r][2] - self.spans[r][1] for r in roots
        )
        out["bench.unattributed_s"] = sum(
            self_time[name] for name in self_time if name.startswith(ROOT_PREFIX)
        )
        return out

    def dump(self, path: Path, extra: dict) -> None:
        """Write every span once, at the end of the traced run."""
        t0 = self.spans[0][1] if self.spans else 0.0
        payload = {
            **extra,
            "spans": [
                [name, start - t0, end - t0, parent]
                for name, start, end, parent in self.spans
            ],
            "obs_spans": [
                [name, start - t0, end - t0, root]
                for name, start, end, root in self.bus_spans
            ],
            "counts": {str(k): dict(v) for k, v in self.counts.items()},
        }
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(json.dumps(payload))


# -- the hooks: (owner, attribute, span name, before, after) ---------------


def _sim_after(tracer, args, result, state):
    tracer.add("sim.steps", result.steps)


def _discover_after(tracer, args, result, state):
    tracer.add("core.predicates", len(result))


def _acdag_after(tracer, args, result, state):
    tracer.add("core.acdag_edges", result.graph.number_of_edges())


def _interventions_after(tracer, args, result, state):
    tracer.add("core.rounds", result.n_rounds)
    tracer.add("core.intervention_runs", result.n_executions)


def _engine_after(tracer, args, result, state):
    stats = args[0].stats
    tracer.add("exec.executed", stats.executed)
    tracer.add("exec.cached", stats.cached)
    tracer.add("exec.batches", stats.batches)


def _pairs(matrix) -> tuple[int, int, int]:
    return matrix.pair_evaluations, matrix.pair_hits, matrix.kernel_calls


def _pairs_before(tracer, args):
    # Only the outermost sharded-evaluation call counts: logs_for
    # re-enters evaluate_shards, which would count its pairs twice.
    if tracer._inside("corpus.evaluate"):
        return None
    return _pairs(args[0])


def _pairs_after(tracer, args, result, state):
    if state is None:
        return
    fresh, hits, kernels = _pairs(args[0])
    tracer.add("corpus.pairs_fresh", fresh - state[0])
    tracer.add("corpus.pairs_memoized", hits - state[1])
    tracer.add("corpus.kernel_calls", kernels - state[2])


def _explore_after(tracer, args, result, state):
    tracer.add("explore.executions", result.executions)
    tracer.add("explore.classes", result.distinct_canonical)
    tracer.add("explore.failures", len(result.failures))


def _hooks() -> list[tuple]:
    import repro.harness.session as session
    from repro.core.acdag import ACDag
    from repro.core.extraction import PredicateSuite
    from repro.corpus.matrix import EvalMatrix, ShardedEvalMatrix
    from repro.corpus.pipeline import IncrementalPipeline
    from repro.corpus.store import TraceStore
    from repro.exec.engine import ExecutionEngine
    from repro.explore.driver import ExplorationDriver
    from repro.sim.schedule import Schedule
    from repro.sim.scheduler import Simulator

    return [
        (Simulator, "run", "sim", None, _sim_after),
        # AIDSession calls the module globals it imported: patch there.
        (session, "collect", "harness.collect", None, None),
        (session, "discover", "core.interventions", None, _interventions_after),
        (PredicateSuite, "discover", "core.discover", None, _discover_after),
        (PredicateSuite, "evaluate_all", "core.evaluate", None, None),
        (EvalMatrix, "log_for", "core.evaluate", None, None),
        (EvalMatrix, "log_for_table", "core.evaluate", None, None),
        (ACDag, "build", "core.acdag_build", None, _acdag_after),
        # close() ends every engine: api.run's finish() and the explorer's
        (ExecutionEngine, "close", None, None, _engine_after),
        (TraceStore, "load", "corpus.load", None, None),
        (TraceStore, "columnar_table", "corpus.columnar", None, None),
        (TraceStore, "ingest", "corpus.ingest", None, None),
        (TraceStore, "save", "corpus.save", None, None),
        (TraceStore, "save_suite", "corpus.save", None, None),
        (ShardedEvalMatrix, "evaluate_shards", "corpus.evaluate",
         _pairs_before, _pairs_after),
        (ShardedEvalMatrix, "evaluate_fingerprints", "corpus.evaluate",
         _pairs_before, _pairs_after),
        (ShardedEvalMatrix, "log_for", "corpus.evaluate",
         _pairs_before, _pairs_after),
        (ShardedEvalMatrix, "save", "corpus.save", None, None),
        (IncrementalPipeline, "ingest_batch", "corpus.ingest", None, None),
        (IncrementalPipeline, "save", "corpus.save", None, None),
        (Schedule, "canonical_signature", "explore.signature", None, None),
        (ExplorationDriver, "run", "explore.driver", None, _explore_after),
    ]
