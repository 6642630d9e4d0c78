"""repro — Causality-Guided Adaptive Interventional Debugging (AID).

A faithful reimplementation of Fariha, Nath & Meliou, *Causality-Guided
Adaptive Interventional Debugging*, SIGMOD 2020 (arXiv:2003.09539),
including every substrate the paper depends on:

* ``repro.sim`` — a deterministic, seeded concurrent-program simulator
  (threads, locks, shared memory, virtual time, tracing, fault
  injection) standing in for the paper's CLR-instrumented applications;
* ``repro.core`` — the AID pipeline: predicates, statistical debugging,
  the Approximate Causal DAG, and the causality-guided group
  intervention algorithms (GIWP, branch pruning, causal path
  discovery), plus the TAGT/LINEAR baselines, the AID-P / AID-P-B
  ablations, and the Section 6 theory;
* ``repro.workloads`` — the six case-study bugs of Section 7.1 as model
  programs with known ground truth, and the Section 7.2 synthetic
  application generator;
* ``repro.exec`` — the intervention-execution engine: serial
  in-process runs, outcome memoization with JSON persistence, and
  execution statistics;
* ``repro.corpus`` — the persistent trace-corpus store:
  content-addressed dedup, a bitset-backed predicate-evaluation memo,
  and incremental SD + AC-DAG maintenance under log ingestion;
* ``repro.harness`` — corpus collection, end-to-end sessions, and the
  drivers that regenerate every table and figure of the evaluation;
* ``repro.api`` — the declarative front door: serializable
  :class:`RunSpec` configs, plugin registries, the observer/event
  protocol, and ``repro.run(spec)`` returning a report with a
  versioned JSON schema.

Quickstart::

    import repro

    report = repro.run(repro.RunSpec(workload=repro.WorkloadSpec("npgsql")))
    print(report.explanation.render())

    # or, imperatively:
    report = repro.debug(repro.load_workload("npgsql").program)
"""

from .exec import ExecStats, ExecutionEngine, OutcomeCache
from .core import (
    ACDag,
    Approach,
    DiscoveryResult,
    Explanation,
    GIWP,
    PredicateSuite,
    StatisticalDebugger,
    all_approaches,
    causal_path_discovery,
    discover,
    explain,
)
from .corpus import (
    CorpusSession,
    EvalMatrix,
    IncrementalPipeline,
    TraceStore,
)
from .harness import (
    AIDSession,
    SessionConfig,
    SessionReport,
    collect,
    debug,
    figure7,
    figure8,
)
from .sim import Program, SimContext, Simulator, run_program
from .workloads import REGISTRY, Workload, generate_app
from .api import (  # noqa: E402 — must follow the subsystem imports
    AnalysisSpec,
    CollectionSpec,
    CorpusSpec,
    EngineSpec,
    EventBus,
    EventLog,
    Observer,
    REPORT_SCHEMA_VERSION,
    Registry,
    RegistryError,
    RunSpec,
    SpecError,
    WorkloadSpec,
    run,
    validate_report_dict,
)

__version__ = "1.1.0"

__all__ = [
    "ACDag",
    "AIDSession",
    "AnalysisSpec",
    "Approach",
    "CollectionSpec",
    "CorpusSpec",
    "EngineSpec",
    "EventBus",
    "EventLog",
    "Observer",
    "REPORT_SCHEMA_VERSION",
    "Registry",
    "RegistryError",
    "RunSpec",
    "SpecError",
    "WorkloadSpec",
    "run",
    "validate_report_dict",
    "CorpusSession",
    "DiscoveryResult",
    "EvalMatrix",
    "ExecStats",
    "IncrementalPipeline",
    "TraceStore",
    "ExecutionEngine",
    "Explanation",
    "GIWP",
    "OutcomeCache",
    "PredicateSuite",
    "Program",
    "REGISTRY",
    "SessionConfig",
    "SessionReport",
    "SimContext",
    "Simulator",
    "StatisticalDebugger",
    "Workload",
    "all_approaches",
    "causal_path_discovery",
    "collect",
    "debug",
    "discover",
    "explain",
    "figure7",
    "figure8",
    "generate_app",
    "load_workload",
    "run_program",
    "__version__",
]


def load_workload(name: str) -> Workload:
    """Build one of the bundled case-study workloads by name.

    Names: ``npgsql``, ``kafka``, ``cosmosdb``, ``network``,
    ``buildandtest``, ``healthtelemetry``.
    """
    return REGISTRY.build(name)
