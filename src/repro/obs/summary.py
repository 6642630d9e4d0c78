"""Offline run inspection: phase-timing breakdowns from a JSONL log.

Everything here works from a :class:`~repro.obs.runlog.RunLogReplay` —
no live bus, no session objects — which is the point: a run that
finished (or crashed) on another machine is fully explainable from its
``runs/<run_id>.jsonl`` alone.  ``repro obs summary`` renders one run,
``repro obs compare`` sets two side by side (*which phase* ate the
wall-clock), and ``repro obs spans`` renders the span tree.

:func:`summary_dict` / :func:`compare_dict` are the machine-readable
twins (``--json``), versioned by :data:`SUMMARY_SCHEMA_VERSION`; the
per-run dict is **the same payload** the cross-run index
(:mod:`repro.obs.index`) stores per run and the serve daemon returns
from ``GET /v1/runs/{run_id}`` — one summarizer feeds the CLI, the
index, and the service.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from .metrics import render_snapshot
from .runlog import RunLogReplay

#: bump on any backwards-incompatible change to summary_dict's shape
SUMMARY_SCHEMA_VERSION = 1


@dataclass
class PhaseTiming:
    """One closed span, in start order."""

    name: str
    duration: float
    depth: int
    parent: Optional[str]
    started: float


@dataclass
class RunSummary:
    """The offline reconstruction of one run's shape and cost."""

    run_id: str
    schema: int
    program: Optional[str]
    mode: Optional[str]
    approach: Optional[str]
    n_events: int
    #: seconds from the first to the last enveloped event
    total: float
    #: spans in start order (parents precede children)
    phases: list[PhaseTiming]
    metrics: Optional[dict]
    finished: bool
    #: sha256 of the submitted spec's canonical JSON, when the log
    #: writer stamped one into the header (the serve daemon does)
    spec_digest: Optional[str] = None
    #: unix time the log's first line was written
    created: Optional[float] = None


def summarize(replay: RunLogReplay) -> RunSummary:
    """Fold a replay into a :class:`RunSummary`."""
    started = replay.events.first("run-started")
    phases = [
        PhaseTiming(
            name=event.name,
            duration=event.duration,
            depth=event.depth,
            parent=event.parent,
            started=event.started,
        )
        for event in replay.events.of_kind("span-closed")
    ]
    phases.sort(key=lambda p: p.started)
    times = [row["t"] for row in replay.records]
    return RunSummary(
        run_id=replay.run_id,
        schema=replay.schema,
        program=getattr(started, "program", None),
        mode=getattr(started, "mode", None),
        approach=getattr(started, "approach", None),
        n_events=len(replay.records),
        total=(max(times) - min(times)) if times else 0.0,
        phases=phases,
        metrics=replay.metrics,
        finished=replay.events.first("run-finished") is not None,
        spec_digest=replay.header.get("spec_digest"),
        created=replay.created,
    )


def summary_dict(summary: RunSummary) -> dict:
    """A :class:`RunSummary` as the versioned, JSON-able payload.

    This is the exact per-run record :class:`repro.obs.index.RunIndex`
    stores and ``repro obs summary --json`` prints.  ``durations`` maps
    each top-level phase to its seconds (the stable comparison keys);
    ``outcome`` is ``"finished"`` or ``"unfinished"``.
    """
    return {
        "schema": SUMMARY_SCHEMA_VERSION,
        "run_id": summary.run_id,
        "run_log_schema": summary.schema,
        "spec_digest": summary.spec_digest,
        "program": summary.program,
        "mode": summary.mode,
        "approach": summary.approach,
        "created": summary.created,
        "n_events": summary.n_events,
        "total": round(summary.total, 6),
        "outcome": "finished" if summary.finished else "unfinished",
        "durations": {
            p.name: round(p.duration, 6)
            for p in summary.phases
            if p.depth == 0
        },
        "phases": [
            {
                "name": p.name,
                "duration": round(p.duration, 6),
                "depth": p.depth,
                "parent": p.parent,
                "started": round(p.started, 6),
            }
            for p in summary.phases
        ],
        "metrics": summary.metrics,
    }


def compare_dict(a: RunSummary, b: RunSummary) -> dict:
    """Two runs side by side as a versioned payload (``compare --json``)."""
    durations_a = summary_dict(a)["durations"]
    durations_b = summary_dict(b)["durations"]
    names = list(durations_a) + [
        n for n in durations_b if n not in durations_a
    ]
    gauges_a = (a.metrics or {}).get("gauges", {})
    gauges_b = (b.metrics or {}).get("gauges", {})
    return {
        "schema": SUMMARY_SCHEMA_VERSION,
        "a": summary_dict(a),
        "b": summary_dict(b),
        "phases": [
            {
                "name": name,
                "a": durations_a.get(name),
                "b": durations_b.get(name),
                "ratio": (
                    round(durations_b[name] / durations_a[name], 6)
                    if durations_a.get(name) and name in durations_b
                    else None
                ),
            }
            for name in names
        ],
        "total_ratio": (
            round(b.total / a.total, 6) if a.total > 0 else None
        ),
        "gauges_differ": {
            key: [gauges_a[key], gauges_b[key]]
            for key in sorted(gauges_a)
            if key in gauges_b and gauges_a[key] != gauges_b[key]
        },
    }


def render_span_tree(summary: RunSummary) -> str:
    """The ``repro obs spans`` ASCII tree: every closed span with its
    duration and share of its parent (top-level spans: share of the
    run's first-to-last-event total).

    Phases arrive in start order with parents preceding children
    (:func:`summarize` sorts by ``started``), so a depth-indexed stack
    of durations recovers the nesting without span ids.
    """
    if not summary.phases:
        return "(no spans recorded — log predates span tracing?)"
    width = max(
        2 * p.depth + len(p.name) for p in summary.phases
    )
    lines = [f"{summary.run_id}: {summary.total:.3f}s total"]
    #: duration of the open span at each depth (parents precede children)
    open_at_depth: list[float] = []
    for phase in summary.phases:
        del open_at_depth[phase.depth:]
        parent_duration = (
            open_at_depth[phase.depth - 1]
            if 0 < phase.depth <= len(open_at_depth)
            else summary.total
        )
        share = (
            f"{phase.duration / parent_duration:6.1%}"
            if parent_duration > 0
            else "   n/a"
        )
        label = "  " * phase.depth + phase.name
        lines.append(f"  {label:<{width}} {phase.duration:9.3f}s {share}")
        open_at_depth.append(phase.duration)
    return "\n".join(lines)


def _collection_throughput(summary: RunSummary) -> Optional[str]:
    """Simulator steps/s over the ``collection`` span, when the run log
    holds both (live runs with a metrics snapshot)."""
    gauges = (summary.metrics or {}).get("gauges") or {}
    steps = gauges.get("collection.sim_steps")
    span = next((p for p in summary.phases if p.name == "collection"), None)
    if steps is None or span is None or span.duration <= 0:
        return None
    return (
        f"{steps} steps in {gauges.get('collection.executions')} executions, "
        f"{steps / span.duration:,.0f} steps/s over the collection span"
    )


def render_summary(summary: RunSummary, metrics: bool = True) -> str:
    """The ``repro obs summary`` text block."""
    lines = [
        f"run      : {summary.run_id} (log schema {summary.schema}, "
        f"{summary.n_events} events"
        + ("" if summary.finished else ", UNFINISHED")
        + ")",
    ]
    details = [
        part
        for part in (
            f"program={summary.program}" if summary.program else None,
            f"mode={summary.mode}" if summary.mode else None,
            f"approach={summary.approach}" if summary.approach else None,
        )
        if part
    ]
    if details:
        lines.append(f"spec     : {' '.join(details)}")
    lines.append(f"duration : {summary.total:.3f}s (first to last event)")
    sim = _collection_throughput(summary)
    if sim:
        lines.append(f"sim      : {sim}")
    if summary.phases:
        lines.append("phases   :")
        for phase in summary.phases:
            share = (
                f"{phase.duration / summary.total:6.1%}"
                if summary.total > 0
                else "   n/a"
            )
            indent = "  " * phase.depth
            lines.append(
                f"  {indent}{phase.name:<24.24} {phase.duration:9.3f}s {share}"
            )
    else:
        lines.append("phases   : none recorded (log predates span tracing?)")
    if metrics and summary.metrics is not None:
        lines.append(render_snapshot(summary.metrics))
    return "\n".join(lines)


def render_compare(a: RunSummary, b: RunSummary) -> str:
    """The ``repro obs compare`` table: phase-by-phase A vs B."""

    def top_level(summary: RunSummary) -> dict[str, float]:
        # Per-round child spans vary in count between runs; compare the
        # stable top-level phases and total the rest under their parent.
        return {p.name: p.duration for p in summary.phases if p.depth == 0}

    phases_a, phases_b = top_level(a), top_level(b)
    names = list(phases_a) + [n for n in phases_b if n not in phases_a]
    lines = [
        f"A: {a.run_id} ({a.total:.3f}s)",
        f"B: {b.run_id} ({b.total:.3f}s)",
        "",
        f"  {'phase':<24} {'A':>10} {'B':>10} {'B/A':>7}",
    ]
    for name in names:
        da, db = phases_a.get(name), phases_b.get(name)
        cell_a = f"{da:9.3f}s" if da is not None else "        -"
        cell_b = f"{db:9.3f}s" if db is not None else "        -"
        ratio = f"{db / da:6.2f}x" if da and db is not None else "      -"
        lines.append(f"  {name:<24} {cell_a:>10} {cell_b:>10} {ratio:>7}")
    ratio = f"{b.total / a.total:6.2f}x" if a.total > 0 else "      -"
    lines.append(
        f"  {'TOTAL':<24} {a.total:9.3f}s {b.total:9.3f}s {ratio:>7}"
    )
    metrics_a = (a.metrics or {}).get("gauges", {})
    metrics_b = (b.metrics or {}).get("gauges", {})
    shared = [k for k in metrics_a if k in metrics_b]
    diff = [k for k in shared if metrics_a[k] != metrics_b[k]]
    if diff:
        lines.append("")
        lines.append("gauges that differ:")
        for key in diff:
            lines.append(f"  {key}: {metrics_a[key]} -> {metrics_b[key]}")
    return "\n".join(lines)
