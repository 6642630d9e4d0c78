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
* ``repro.harness`` — corpus collection, end-to-end sessions (live and
  corpus-backed), and the drivers that regenerate every table and
  figure of the evaluation;
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

The names below load lazily (PEP 562), each from its own module on
first use, so ``import repro.sim`` loads the simulator and nothing
above it; ``docs/architecture.md`` has the layer table.
"""

from __future__ import annotations

from .api.registry import workloads as _workloads

__version__ = "1.1.0"

_EXPORTS = {
    # simulator
    "Program": ("repro.sim.program", "Program"),
    "SimContext": ("repro.sim.program", "SimContext"),
    "Simulator": ("repro.sim.scheduler", "Simulator"),
    "run_program": ("repro.sim.scheduler", "run_program"),
    # the AID pipeline
    "ACDag": ("repro.core.acdag", "ACDag"),
    "Approach": ("repro.core.variants", "Approach"),
    "DiscoveryResult": ("repro.core.discovery", "DiscoveryResult"),
    "Explanation": ("repro.core.report", "Explanation"),
    "GIWP": ("repro.core.giwp", "GIWP"),
    "PredicateSuite": ("repro.core.extraction", "PredicateSuite"),
    "StatisticalDebugger": ("repro.core.statistical", "StatisticalDebugger"),
    "all_approaches": ("repro.core.variants", "all_approaches"),
    "causal_path_discovery": ("repro.core.discovery", "causal_path_discovery"),
    "discover": ("repro.core.variants", "discover"),
    "explain": ("repro.core.report", "explain"),
    # execution engine
    "ExecStats": ("repro.exec.stats", "ExecStats"),
    "ExecutionEngine": ("repro.exec.engine", "ExecutionEngine"),
    "OutcomeCache": ("repro.exec.cache", "OutcomeCache"),
    # corpus
    "EvalMatrix": ("repro.corpus.matrix", "EvalMatrix"),
    "IncrementalPipeline": ("repro.corpus.pipeline", "IncrementalPipeline"),
    "TraceStore": ("repro.corpus.store", "TraceStore"),
    # workloads
    "REGISTRY": ("repro.workloads.common", "REGISTRY"),
    "Workload": ("repro.workloads.common", "Workload"),
    "generate_app": ("repro.workloads.synthetic", "generate_app"),
    # sessions and experiments
    "AIDSession": ("repro.harness.session", "AIDSession"),
    "CorpusSession": ("repro.harness.session", "CorpusSession"),
    "SessionConfig": ("repro.harness.session", "SessionConfig"),
    "SessionReport": ("repro.harness.session", "SessionReport"),
    "collect": ("repro.harness.runner", "collect"),
    "debug": ("repro.harness.session", "debug"),
    "figure7": ("repro.harness.experiments", "figure7"),
    "figure8": ("repro.harness.experiments", "figure8"),
    # the declarative API
    "AnalysisSpec": ("repro.api.spec", "AnalysisSpec"),
    "CollectionSpec": ("repro.api.spec", "CollectionSpec"),
    "CorpusSpec": ("repro.api.spec", "CorpusSpec"),
    "EngineSpec": ("repro.api.spec", "EngineSpec"),
    "ExploreSpec": ("repro.api.spec", "ExploreSpec"),
    "RunSpec": ("repro.api.spec", "RunSpec"),
    "SpecError": ("repro.api.spec", "SpecError"),
    "WorkloadSpec": ("repro.api.spec", "WorkloadSpec"),
    "run": ("repro.api.runner", "run"),
    "Registry": ("repro.api.registry", "Registry"),
    "RegistryError": ("repro.api.registry", "RegistryError"),
    "EventBus": ("repro.api.events", "EventBus"),
    "EventLog": ("repro.api.events", "EventLog"),
    "Observer": ("repro.api.events", "Observer"),
    "REPORT_SCHEMA_VERSION": ("repro.core.report", "REPORT_SCHEMA_VERSION"),
    "validate_report_dict": ("repro.core.report", "validate_report_dict"),
}

__all__ = sorted(_EXPORTS) + ["__version__", "load_workload"]


def __getattr__(name: str):
    try:
        module_name, attr = _EXPORTS[name]
    except KeyError:
        raise AttributeError(
            f"module {__name__!r} has no attribute {name!r}"
        ) from None
    import importlib

    value = getattr(importlib.import_module(module_name), attr)
    globals()[name] = value  # cache for the next lookup
    return value


def __dir__() -> list[str]:
    return sorted(set(globals()) | set(__all__))


def load_workload(name: str):
    """Build one of the bundled case-study workloads by name.

    Names: ``npgsql``, ``kafka``, ``cosmosdb``, ``network``,
    ``buildandtest``, ``healthtelemetry``.
    """
    return _workloads.build(name)
