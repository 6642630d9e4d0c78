"""Human-readable explanations — and the machine-readable report schema.

The paper's headline deliverable is not just the root cause but the
*story*: "(1) two threads race on an index variable (2) the second
thread accesses the array beyond its size (3) this throws
IndexOutOfRange (4) the application fails to handle it and crashes."
This module turns a :class:`~repro.core.discovery.DiscoveryResult` plus
the predicate definitions into exactly that kind of numbered narrative.

It is also the home of the **versioned report JSON schema**
(:data:`REPORT_SCHEMA_VERSION`): :class:`ReportPayload` declares it,
``encode(ReportPayload.of(report))`` renders a
:class:`~repro.harness.session.SessionReport` as a deterministic,
JSON-able dict — the one payload shape shared by ``repro run --json``,
the benchmarks, and the test suite — and :func:`validate_report_dict`
decodes a payload as that type, returning the first problem.
The dict is a pure function of the analysis results (no wall-clock
times, no machine state), so two runs that computed the same thing
serialize byte-identically.  The one deliberate exception is the
additive ``meta`` key: its ``run_id`` and ``metrics`` stay ``None``
unless observability was explicitly attached to the run (see
:mod:`repro.obs`), in which case they carry the run id and the metrics
snapshot — and only they differ between two otherwise-identical runs.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Literal, Mapping, Optional

from ..decode import DecodeError, decode
from .discovery import DiscoveryResult
from .predicates import PredicateDef

REPORT_SCHEMA_VERSION = 1


@dataclass(frozen=True)
class ExplanationStep:
    """One hop of the causal path."""

    index: int
    pid: str
    description: str
    role: str  # "root cause" | "effect" | "failure"


@dataclass
class Explanation:
    """The causal path rendered as a numbered narrative."""

    steps: list[ExplanationStep]
    n_rounds: int
    n_executions: int

    @property
    def root_cause(self) -> Optional[ExplanationStep]:
        return self.steps[0] if len(self.steps) > 1 else None

    def render(self) -> str:
        if len(self.steps) <= 1:
            return (
                "No causal predicate was confirmed; the available "
                "predicates do not explain the failure."
            )
        lines = ["Causal explanation of the failure:"]
        for step in self.steps:
            lines.append(f"  ({step.index}) [{step.role}] {step.description}")
        lines.append(
            f"Derived with {self.n_rounds} intervention rounds "
            f"({self.n_executions} executions)."
        )
        return "\n".join(lines)

    def __str__(self) -> str:
        return self.render()


def render_sd_ranking(
    stats: "list",
    defs: Mapping[str, PredicateDef],
    limit: int = 20,
) -> str:
    """What classic statistical debugging hands the developer.

    A ranked list of predicates with precision/recall — no root cause
    singled out, no causal story.  Rendered so examples and the CLI can
    put the paper's motivating contrast (SD's flat list vs. AID's causal
    path) side by side.
    """
    lines = ["Statistical debugging output (ranked by F1):"]
    for stat in stats[:limit]:
        pred = defs.get(stat.pid)
        description = pred.description if pred is not None else stat.pid
        lines.append(
            f"  P={stat.precision:4.2f} R={stat.recall:4.2f}  {description}"
        )
    hidden = max(0, len(stats) - limit)
    if hidden:
        lines.append(f"  … and {hidden} more predicates")
    lines.append(
        "(every line is a *suspect*; SD leaves choosing and connecting "
        "them to the developer)"
    )
    return "\n".join(lines)


# ---------------------------------------------------------------------------
# The versioned report schema
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class _ReportMeta:
    """Observability metadata: ``run_id`` and ``metrics`` stay ``None``
    unless a :class:`repro.obs.ObsContext` was attached — the rest of
    the payload is byte-identical with observability on or off (metrics
    carry wall-clock, so stamping them unconditionally would break the
    "pure function of the analysis results" invariant above)."""

    schema_version: int
    run_id: Optional[str]
    metrics: Optional[dict]


@dataclass(frozen=True)
class _ReportCollection:
    n_success: int
    n_fail: int


@dataclass(frozen=True)
class _ReportPredicates:
    n_extracted: int
    n_fully_discriminative: int
    fully_discriminative: list[str]


@dataclass(frozen=True)
class _ReportDag:
    n_nodes: int
    n_edges: int
    nodes: list[str]
    edges: list[list[str]]


@dataclass(frozen=True)
class _ReportDiscovery:
    causal_path: list[str]
    failure: str
    root_cause: Optional[str]
    spurious: list[str]
    n_rounds: int
    n_executions: int


@dataclass(frozen=True)
class _ReportExplanation:
    steps: list[ExplanationStep]
    text: str


@dataclass(frozen=True)
class ReportPayload:
    """The versioned report, as :meth:`of` builds it and
    :func:`validate_report_dict` reads it.

    ``kind`` is ``"session"`` when interventions ran (discovery and
    explanation present) and ``"analysis"`` for analyze-only runs (both
    ``None``).  ``meta`` arrived in-version as an additive key: a
    payload written before it reads as the inert default."""

    schema: Literal[REPORT_SCHEMA_VERSION]
    kind: Literal["session", "analysis"]
    program: Optional[str]
    approach: Optional[str]
    signature: Optional[str]
    collection: Optional[_ReportCollection]
    predicates: _ReportPredicates
    dag: _ReportDag
    discovery: Optional[_ReportDiscovery]
    explanation: Optional[_ReportExplanation]
    meta: _ReportMeta = _ReportMeta(REPORT_SCHEMA_VERSION, None, None)

    def __post_init__(self) -> None:
        if self.meta.schema_version != self.schema:
            raise ValueError(
                f"meta.schema_version: expected {self.schema}, "
                f"got {self.meta.schema_version!r}"
            )
        if self.kind == "session":
            for name in ("discovery", "explanation"):
                if getattr(self, name) is None:
                    raise ValueError(f"{name}: required for kind 'session'")

    @classmethod
    def of(cls, report) -> "ReportPayload":
        """The payload of a session report.  ``report`` is duck-typed
        (any object with the :class:`~repro.harness.session.SessionReport`
        attributes), so this module stays independent of the harness."""
        collection = None
        if report.corpus is not None:
            collection = _ReportCollection(
                len(report.corpus.successes), len(report.corpus.failures)
            )
        elif report.n_success is not None or report.n_fail is not None:
            collection = _ReportCollection(
                report.n_success or 0, report.n_fail or 0
            )
        program = report.program.name if report.program is not None else None
        graph, d, e = report.dag.graph, report.discovery, report.explanation
        return cls(
            schema=REPORT_SCHEMA_VERSION,
            kind="session" if d is not None else "analysis",
            program=program or getattr(report, "program_name", None),
            approach=report.approach.value if report.approach else None,
            signature=report.signature,
            collection=collection,
            predicates=_ReportPredicates(
                len(report.suite),
                len(report.fully_discriminative),
                list(report.fully_discriminative),
            ),
            dag=_ReportDag(
                graph.number_of_nodes(),
                graph.number_of_edges(),
                sorted(graph.nodes),
                sorted([u, v] for u, v in graph.edges),
            ),
            discovery=d and _ReportDiscovery(
                list(d.causal_path), d.failure, d.root_cause,
                list(d.spurious), d.n_rounds, d.n_executions,
            ),
            explanation=e and _ReportExplanation(e.steps, e.render()),
            meta=_ReportMeta(
                REPORT_SCHEMA_VERSION,
                getattr(report, "run_id", None),
                getattr(report, "metrics", None),
            ),
        )


def validate_report_dict(payload: object) -> list[str]:
    """Check a payload against the report schema: every key, every
    leaf's type, and the rules across fields.

    Returns ``[]`` for a valid version-|REPORT_SCHEMA_VERSION| report,
    else the first problem, prefixed with its dotted path and saying
    what was expected and what was found.
    """
    try:
        decode(ReportPayload, payload)
    except DecodeError as exc:
        return [str(exc)]
    return []


def explain(
    result: DiscoveryResult, defs: Mapping[str, PredicateDef]
) -> Explanation:
    """Build an explanation from a discovery result."""
    steps: list[ExplanationStep] = []
    path = result.causal_path
    for i, pid in enumerate(path):
        if i == len(path) - 1:
            role = "failure"
        elif i == 0:
            role = "root cause"
        else:
            role = "effect"
        pred = defs.get(pid)
        description = pred.description if pred is not None else pid
        steps.append(
            ExplanationStep(index=i + 1, pid=pid, description=description, role=role)
        )
    return Explanation(
        steps=steps,
        n_rounds=result.n_rounds,
        n_executions=result.n_executions,
    )
