"""Shared scaffolding for the six case-study workloads (Section 7.1).

Every case study follows the same anatomy, mirroring how the paper's
real bugs behave:

* a **bug core** — the nondeterministic mechanism (data race, use after
  free, cache-expiry timing, order violation, collision) that dooms an
  execution under specific interleavings/draws;
* a **doomed-path cascade** — once doomed, the program deterministically
  exhibits a chain of misbehaviours ending in the failure; every
  predicate on this chain is fully discriminative, and only the
  counterfactually-gating ones are causal;
* **diagnostic threads** — doom-triggered side threads running probe
  methods.  These create the AC-DAG's junctions and the spurious
  branches that branch pruning removes.  The doomed path *joins* them
  before failing so their predicates always precede F;
* optionally **post-failure activity** (cleanup after the crash), which
  yields fully-discriminative predicates with no temporal path to F —
  the 30 discarded predicates of the paper's Kafka study.

:func:`add_diag_worker` builds the diagnostic threads; :class:`Workload`
and :class:`PaperRow` carry a case study and its Figure 7 reference
numbers for EXPERIMENTS.md.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import MutableMapping, Optional

from ..api.registry import workloads as _WORKLOAD_REGISTRY
from ..sim.errors import SimulatedError
from ..sim.program import MethodFn, Program


@dataclass(frozen=True)
class PaperRow:
    """One row of Figure 7 — the numbers we compare against."""

    github_issue: str
    sd_predicates: int
    causal_path_len: int
    aid_interventions: int
    tagt_interventions: int


@dataclass
class Workload:
    """A case-study program plus its ground truth and paper reference."""

    name: str
    program: Program
    paper: PaperRow
    #: substrings that must appear (in order) in the discovered causal
    #: path pids — the workload's ground truth.
    expected_path_markers: tuple[str, ...]
    #: what the root-cause predicate's pid must contain.
    root_marker: str
    description: str = ""
    #: harness tweaks (e.g. a higher failure-rate start seed)
    n_success: int = 50
    n_fail: int = 50
    repeats: int = 25


def add_probe(
    methods: MutableMapping[str, MethodFn],
    name: str,
    throws: Optional[str] = None,
    work: int = 2,
) -> str:
    """Register a read-only diagnostic probe method.

    Probes run only on the doomed path, so each contributes one
    "executes" predicate; a throwing probe (whose exception the caller
    catches) contributes a method-fails predicate as well.
    """

    def probe(ctx):
        yield from ctx.work(work)
        if throws is not None:
            ctx.throw(throws, f"{name} diagnostic signal")
        return f"{name}-ok"

    methods[name] = probe
    return name


def add_diag_worker(
    methods: MutableMapping[str, MethodFn],
    worker: str,
    probes: list[tuple[str, Optional[str]]],
) -> str:
    """Register a diagnostic worker thread method running ``probes``.

    ``probes`` is a list of ``(probe_name, throws_kind_or_None)``.  The
    worker swallows probe exceptions (they are diagnostics, not the
    failure) and is itself read-only, so all its predicates are safely
    intervenable noise.
    """
    probe_names = [
        add_probe(methods, probe_name, throws=kind) for probe_name, kind in probes
    ]

    def worker_fn(ctx):
        yield from ctx.work(1)
        for probe_name in probe_names:
            try:
                yield from ctx.call(probe_name)
            except SimulatedError:
                pass  # diagnostics may fail; the worker soldiers on
        return f"{worker}-done"

    methods[worker] = worker_fn
    return worker


#: The case-study registry — the *same object* as
#: :data:`repro.api.registry.workloads`, so bundled and third-party
#: workloads share one namespace (and one ``RegistryError`` behaviour).
REGISTRY = _WORKLOAD_REGISTRY
