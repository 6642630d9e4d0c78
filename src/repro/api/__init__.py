"""``repro.api`` — the declarative front door to the whole pipeline.

One entry point replaces the four historical ones (``AIDSession``,
``CorpusSession``, ``IncrementalPipeline``, and the CLI's hand-rolled
glue)::

    import repro

    spec = repro.RunSpec(
        workload=repro.WorkloadSpec("npgsql"),
        collection=repro.CollectionSpec(n_success=30, n_fail=30),
    )
    report = repro.run(spec)          # = repro.api.run(spec)
    print(report.explanation.render())
    payload = report.to_dict()        # versioned JSON schema

The pieces:

* :mod:`repro.api.spec` — the :class:`RunSpec` dataclass tree with
  dict/JSON/TOML round-trip and actionable validation;
* :mod:`repro.api.registry` — string-keyed plugin registries for
  workloads, extractors, precedence policies, and scheduler strategies;
* :mod:`repro.api.events` — the :class:`Observer`/:class:`EventBus`
  protocol every phase emits progress through;
* :mod:`repro.api.runner` — :func:`run`, dispatching a spec to the
  right session (live, corpus-backed, incremental, or explore) and
  returning a :class:`~repro.harness.session.SessionReport` (an
  explore spec's is the exploration result).

Submodules load lazily (PEP 562): ``repro.api.events`` and
``repro.api.registry`` are dependency-light so inner subsystems can
import them without cycles, while :mod:`repro.api.runner` (which pulls
in the harness) only loads when first used.
"""

from __future__ import annotations

_EXPORTS = {
    # the front door
    "run": ("repro.api.runner", "run"),
    # spec tree
    "RunSpec": ("repro.api.spec", "RunSpec"),
    "WorkloadSpec": ("repro.api.spec", "WorkloadSpec"),
    "CollectionSpec": ("repro.api.spec", "CollectionSpec"),
    "EngineSpec": ("repro.api.spec", "EngineSpec"),
    "CorpusSpec": ("repro.api.spec", "CorpusSpec"),
    "AnalysisSpec": ("repro.api.spec", "AnalysisSpec"),
    "ExploreSpec": ("repro.api.spec", "ExploreSpec"),
    "SpecError": ("repro.api.spec", "SpecError"),
    "SPEC_VERSION": ("repro.api.spec", "SPEC_VERSION"),
    # registries
    "Registry": ("repro.api.registry", "Registry"),
    "RegistryError": ("repro.api.registry", "RegistryError"),
    "workload_for_program": ("repro.api.registry", "workload_for_program"),
    # events
    "Event": ("repro.api.events", "Event"),
    "EventBus": ("repro.api.events", "EventBus"),
    "EventLog": ("repro.api.events", "EventLog"),
    "Observer": ("repro.api.events", "Observer"),
    # report schema (lives in repro.core.report; re-exported here)
    "REPORT_SCHEMA_VERSION": ("repro.core.report", "REPORT_SCHEMA_VERSION"),
    "validate_report_dict": ("repro.core.report", "validate_report_dict"),
}

__all__ = sorted(_EXPORTS) + ["events", "registry", "runner", "spec"]


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
