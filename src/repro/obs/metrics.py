"""The metrics registry: counters, gauges, and timers for one run.

Role
----
The hot paths already count things ad hoc — :class:`~repro.exec.stats.
ExecStats` tracks executed/cached runs, the eval matrix tracks fresh
vs. memoized (predicate, trace) pairs and its single-pass kernel
batches, sessions know their collection sizes.  This module gives those
numbers one home: a :class:`MetricsRegistry` snapshotted into the JSONL
run log and (when observability is enabled) into the versioned report.

Two feeds fill the registry:

* :class:`MetricsObserver` subscribes to the run's
  :class:`~repro.api.events.EventBus` and folds every event's payload
  into counters/gauges (and every ``span-closed`` into a timer) — no
  new increments in any inner loop;
* **providers** are callables polled once at snapshot time for gauges
  whose source of truth lives elsewhere (the execution engine's
  :class:`~repro.exec.stats.ExecStats` registers one).

Invariants
----------
* :meth:`MetricsRegistry.snapshot` is deterministic in *shape*: keys
  sort, timers reduce to ``{count, total, mean}``; values involving
  wall-clock are of course not reproducible run to run, which is why
  the report only carries a snapshot when observability is explicitly
  enabled (see :mod:`repro.core.report`);
* observing never affects results — the registry is write-only until
  snapshot and nothing reads it back into the pipeline.
"""

from __future__ import annotations

from typing import Callable, Mapping, Optional

from ..api.events import Event

#: metric name -> numeric value, what a provider returns
MetricProvider = Callable[[], Mapping[str, float]]


class MetricsRegistry:
    """Counters (monotonic ints), gauges (last-write-wins numbers), and
    timers (count/total/mean of observed durations)."""

    def __init__(self) -> None:
        self._counters: dict[str, int] = {}
        self._gauges: dict[str, float] = {}
        #: name -> [count, total_seconds]
        self._timers: dict[str, list] = {}
        self._providers: list[MetricProvider] = []

    def count(self, name: str, increment: int = 1) -> None:
        self._counters[name] = self._counters.get(name, 0) + increment

    def gauge(self, name: str, value: float) -> None:
        self._gauges[name] = value

    def time(self, name: str, seconds: float) -> None:
        entry = self._timers.get(name)
        if entry is None:
            self._timers[name] = [1, seconds]
        else:
            entry[0] += 1
            entry[1] += seconds

    def register_provider(self, provider: MetricProvider) -> None:
        """Polled once per :meth:`snapshot`, merged into the gauges."""
        self._providers.append(provider)

    def merge_snapshot(self, snapshot: Mapping) -> None:
        """Fold another registry's :meth:`snapshot` into this one —
        counters and timers accumulate, gauges last-write-win.  The
        serve daemon aggregates every finished run's snapshot into one
        fleet registry this way for its ``/metrics`` endpoint."""
        for name, value in (snapshot.get("counters") or {}).items():
            self.count(name, value)
        for name, value in (snapshot.get("gauges") or {}).items():
            self.gauge(name, value)
        for name, cell in (snapshot.get("timers") or {}).items():
            entry = self._timers.setdefault(name, [0, 0.0])
            entry[0] += cell.get("count", 0)
            entry[1] += cell.get("total", 0.0)

    def snapshot(self) -> dict:
        """The registry as one sorted, JSON-able dict."""
        gauges = dict(self._gauges)
        for provider in self._providers:
            gauges.update(provider())
        return {
            "counters": {k: self._counters[k] for k in sorted(self._counters)},
            "gauges": {k: gauges[k] for k in sorted(gauges)},
            "timers": {
                name: {
                    "count": count,
                    "total": round(total, 6),
                    "mean": round(total / count, 6),
                }
                for name, (count, total) in sorted(self._timers.items())
            },
        }


def render_snapshot(snapshot: Mapping, title: str = "metrics") -> str:
    """A snapshot as the indented text block ``--metrics`` prints."""
    lines = [f"{title}:"]
    for section in ("counters", "gauges"):
        values = snapshot.get(section) or {}
        if values:
            lines.append(f"  {section}:")
            for name, value in values.items():
                lines.append(f"    {name} = {value}")
    timers = snapshot.get("timers") or {}
    if timers:
        lines.append("  timers:")
        for name, cell in timers.items():
            lines.append(
                f"    {name} = {cell['count']} x "
                f"{cell['mean']:.3f}s (total {cell['total']:.3f}s)"
            )
    if len(lines) == 1:
        lines.append("  (empty)")
    return "\n".join(lines)


class MetricsObserver:
    """Folds the event stream into a registry.

    Every branch below reads numbers the emitting subsystem already
    maintained; the observer adds no counting to any hot path.
    """

    def __init__(self, registry: Optional[MetricsRegistry] = None) -> None:
        self.registry = registry if registry is not None else MetricsRegistry()

    def on_event(self, event: Event) -> None:
        registry = self.registry
        registry.count("events.total")
        kind = event.kind
        if kind == "collection-finished":
            registry.gauge("collection.n_success", event.n_success)
            registry.gauge("collection.n_fail", event.n_fail)
            if event.executions:
                registry.gauge("collection.executions", event.executions)
                registry.gauge("collection.sim_steps", event.sim_steps)
        elif kind == "corpus-loaded":
            registry.gauge("corpus.traces", event.n_traces)
            registry.gauge("corpus.pass", event.n_pass)
            registry.gauge("corpus.fail", event.n_fail)
        elif kind == "suite-frozen":
            registry.gauge("suite.predicates", event.n_predicates)
            registry.count(f"suite.source.{event.source}")
        elif kind == "logs-evaluated":
            registry.gauge("eval.logs", event.n_logs)
            if event.fresh is not None:
                registry.gauge("eval.fresh_pairs", event.fresh)
            if event.memoized is not None:
                registry.gauge("eval.memoized_pairs", event.memoized)
            if event.kernel_calls is not None:
                registry.gauge("eval.kernel_calls", event.kernel_calls)
                if event.kernel_calls:
                    registry.gauge(
                        "eval.kernel_batch_mean",
                        round((event.fresh or 0) / event.kernel_calls, 3),
                    )
            total = (event.fresh or 0) + (event.memoized or 0)
            if total:
                registry.gauge(
                    "eval.memo_hit_rate",
                    round((event.memoized or 0) / total, 6),
                )
        elif kind == "dag-built":
            registry.gauge("dag.nodes", event.n_nodes)
            registry.gauge("dag.edges", event.n_edges)
        elif kind == "dag-patched":
            registry.count("ingest.patched")
            if event.removed_pids:
                registry.count("ingest.removed_pids", len(event.removed_pids))
        elif kind == "intervention-round":
            registry.count(f"rounds.{event.phase}")
        elif kind == "span-closed":
            # Collapse per-round span names (round:giwp#3) to one timer
            # per phase, keeping timer cardinality bounded.
            registry.time(f"span.{event.name.split('#')[0]}", event.duration)
        elif kind == "engine-finished":
            registry.gauge("exec.executed", event.executed)
            registry.gauge("exec.cached", event.cached)
