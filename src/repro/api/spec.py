"""The declarative front door: ``RunSpec`` and its section dataclasses.

Role
----
A :class:`RunSpec` is a complete, serializable description of one
debugging run — which workload (or stored corpus), how traces are
collected, where intervened executions run, and how the analysis is
configured.  It round-trips through plain dicts, JSON, and TOML, so a
run can live in a config file (``repro run spec.toml``), a service
request body, or a test fixture, and every CLI subcommand builds one
internally instead of hand-wiring sessions.

Sections
--------
* :class:`WorkloadSpec` — which registered workload to debug;
* :class:`CollectionSpec` — the labeled-trace sweep quotas;
* :class:`EngineSpec` — the outcome cache of intervened executions
  (also the single home of the CLI's ``--cache`` plumbing:
  :meth:`EngineSpec.add_flags` / :meth:`EngineSpec.from_args` /
  :meth:`EngineSpec.build`);
* :class:`CorpusSpec` — debug from a stored corpus, or run the
  incremental analyze-only pipeline over it;
* :class:`AnalysisSpec` — approach, intervention repeats, RNG seed,
  and registry names for extractors and the precedence policy;
* :class:`ExploreSpec` — when present, the run explores the workload's
  schedule space (``repro explore``) instead of debugging it.

Invariants
----------
* ``RunSpec.from_dict(spec.to_dict()) == spec`` for every valid spec,
  and the same through TOML and JSON text (asserted in tests);
* unknown keys, wrong-typed values (checked by :mod:`repro.decode`)
  and unknown registry names fail **with actionable errors**
  (:class:`SpecError` carries the dotted path and lists the valid
  alternatives) — never silently ignored;
* a spec is inert data: building sessions/engines from it happens in
  :func:`repro.api.runner.run`, so specs can be validated, diffed, and
  stored without side effects.
"""

from __future__ import annotations

import argparse
import json
import os
from dataclasses import dataclass, field
from pathlib import Path
from typing import Optional

from ..core.variants import Approach
from ..decode import DecodeError, decode, encode
from ..exec.cache import OutcomeCache
from ..exec.engine import ExecutionEngine
from ..sim.scheduler import DEFAULT_MAX_STEPS
from . import registry as registries
from .events import EventBus

SPEC_VERSION = 1


class SpecError(ValueError):
    """A spec is malformed; ``path`` says where, ``detail`` says why."""

    def __init__(self, path: str, detail: str) -> None:
        super().__init__(f"{path}: {detail}" if path else detail)
        self.path = path
        self.detail = detail

    def to_dict(self) -> dict:
        """The structured error payload a service 4xx response carries
        (``error`` is the stable discriminator; ``path`` is the dotted
        spec location, empty for whole-document problems)."""
        return {
            "error": "invalid-spec",
            "path": self.path,
            "detail": self.detail,
        }


@dataclass(frozen=True)
class WorkloadSpec:
    """Which registered workload to run (``repro.api.registry.workloads``)."""

    name: str = ""

    def problems(self) -> list[str]:
        if not self.name:
            return ["workload.name: required (one of: "
                    f"{', '.join(registries.workloads.names())})"]
        if self.name not in registries.workloads:
            return [
                f"workload.name: unknown workload {self.name!r} "
                f"(registered: {', '.join(registries.workloads.names())})"
            ]
        return []


@dataclass(frozen=True)
class CollectionSpec:
    """The labeled-trace sweep: how many of each label, from which seed.

    ``strategy`` names a registered scheduler strategy
    (``repro.api.registry.strategies``) the sweep — and every
    intervention re-execution — schedules under; ``None`` keeps the
    default seeded-uniform picker.  ``strategy_params`` are the
    strategy's constructor parameters (e.g. ``{"depth": 3}`` for
    ``pct``), scalar-valued so the spec stays TOML/JSON round-trippable.
    """

    n_success: int = 50
    n_fail: int = 50
    start_seed: int = 0
    max_steps: int = DEFAULT_MAX_STEPS
    strategy: Optional[str] = None
    strategy_params: Optional[dict] = None

    def problems(self) -> list[str]:
        problems = []
        for name in ("n_success", "n_fail"):
            value = getattr(self, name)
            if not isinstance(value, int) or value < 1:
                problems.append(
                    f"collection.{name}: expected a positive integer, "
                    f"got {value!r}"
                )
        if not isinstance(self.max_steps, int) or self.max_steps < 1:
            problems.append(
                f"collection.max_steps: expected a positive integer, "
                f"got {self.max_steps!r}"
            )
        if self.strategy is not None and (
            self.strategy not in registries.strategies
        ):
            problems.append(
                f"collection.strategy: unknown scheduler strategy "
                f"{self.strategy!r} "
                f"(registered: {', '.join(registries.strategies.names())})"
            )
        elif self.strategy is not None:
            # Build one strategy, so a parameter it refuses (an unknown
            # name, ``depth = 0``) is a spec problem, not a crash mid-run.
            try:
                registries.strategy_factory(
                    self.strategy, self.strategy_params
                )(0)
            except (TypeError, ValueError) as exc:
                problems.append(f"collection.strategy_params: {exc}")
        if self.strategy_params is not None:
            if self.strategy is None:
                problems.append(
                    "collection.strategy_params: requires "
                    "collection.strategy"
                )
            if not isinstance(self.strategy_params, dict):
                problems.append(
                    f"collection.strategy_params: expected a table/object, "
                    f"got {type(self.strategy_params).__name__}"
                )
            else:
                for key, value in sorted(self.strategy_params.items()):
                    if not isinstance(key, str) or not isinstance(
                        value, (bool, int, float, str)
                    ):
                        problems.append(
                            "collection.strategy_params: entries must map "
                            f"names to scalars, got {key!r}={value!r}"
                        )
        return problems


@dataclass(frozen=True)
class EngineSpec:
    """What outcomes of intervened re-executions persist.

    The single home of the engine-flag plumbing every intervention-heavy
    CLI subcommand shares (``debug``, ``figure7``, ``figure8``, ``run``).
    An incremental-mode corpus run executes no intervention, so this
    section does nothing there.
    """

    cache: Optional[str] = None

    # -- CLI plumbing (one code path for every subcommand) ---------------

    @classmethod
    def add_flags(cls, parser: argparse.ArgumentParser) -> None:
        """Register ``--cache`` on a subparser."""
        parser.add_argument(
            "--cache",
            default=None,
            metavar="FILE",
            help="JSON outcome cache; loaded if present, saved on exit",
        )

    @classmethod
    def from_args(cls, args: argparse.Namespace) -> "EngineSpec":
        return cls(cache=getattr(args, "cache", None))

    def build(self, bus: Optional[EventBus] = None) -> ExecutionEngine:
        """Construct the engine, its cache loaded (the cache's parent
        directory checked *before* any work is spent)."""
        if self.cache is not None:
            parent = os.path.dirname(os.path.abspath(self.cache))
            if not os.path.isdir(parent):
                raise SpecError(
                    "engine.cache", f"directory {parent} does not exist"
                )
        try:
            cache = OutcomeCache(path=self.cache)
        except ValueError as exc:
            raise SpecError("engine.cache", str(exc)) from exc
        return ExecutionEngine(cache=cache, bus=bus)


@dataclass(frozen=True)
class CorpusSpec:
    """Debug from (or incrementally analyze) a stored trace corpus."""

    dir: Optional[str] = None
    #: "session" — full debugging session reading traces from the store;
    #: "incremental" — analyze-only: bootstrap the incremental pipeline
    #: (suite → SD → AC-DAG) without running interventions, so the
    #: spec's ``engine`` section does nothing.
    mode: str = "session"

    def problems(self) -> list[str]:
        problems = []
        if self.mode not in ("session", "incremental"):
            problems.append(
                f"corpus.mode: expected 'session' or 'incremental', "
                f"got {self.mode!r}"
            )
        if self.mode == "incremental" and self.dir is None:
            problems.append("corpus.dir: required when corpus.mode is "
                            "'incremental'")
        return problems


@dataclass(frozen=True)
class AnalysisSpec:
    """Approach ladder, intervention budget shape, and plugin names."""

    approach: str = "AID"
    repeats: int = 25
    rng_seed: int = 0
    #: registry names (``repro.api.registry.extractors``); ``None`` =
    #: the paper's default catalogue
    extractors: Optional[tuple[str, ...]] = None
    #: registry name (``repro.api.registry.policies``); ``None`` = the
    #: default kind-anchor policy
    policy: Optional[str] = None

    def __post_init__(self) -> None:
        if isinstance(self.extractors, list):
            object.__setattr__(self, "extractors", tuple(self.extractors))

    def problems(self) -> list[str]:
        problems = []
        valid = [a.value for a in Approach]
        if self.approach not in valid:
            problems.append(
                f"analysis.approach: unknown approach {self.approach!r} "
                f"(valid: {', '.join(valid)})"
            )
        if not isinstance(self.repeats, int) or self.repeats < 1:
            problems.append(
                f"analysis.repeats: expected a positive integer, "
                f"got {self.repeats!r}"
            )
        for name in self.extractors or ():
            if name not in registries.extractors:
                problems.append(
                    f"analysis.extractors: unknown extractor {name!r} "
                    f"(registered: {', '.join(registries.extractors.names())})"
                )
        if self.policy is not None and self.policy not in registries.policies:
            problems.append(
                f"analysis.policy: unknown precedence policy {self.policy!r} "
                f"(registered: {', '.join(registries.policies.names())})"
            )
        return problems

    def build_extractors(self):
        if self.extractors is None:
            return None
        return [registries.extractors.build(name) for name in self.extractors]

    def build_policy(self):
        if self.policy is None:
            return None
        return registries.policies.build(self.policy)


@dataclass(frozen=True)
class ExploreSpec:
    """Explore the workload's schedule space instead of debugging it
    (:mod:`repro.explore`; ``repro explore``): ``budget`` executions,
    fresh ones under ``collection.strategy`` from
    ``collection.start_seed``, every novel failure's schedule saved under
    ``schedule_dir`` and its trace ingested into ``corpus.dir``.
    ``partial_order`` dedupes the search by Mazurkiewicz class."""

    budget: int = 200
    partial_order: bool = True
    schedule_dir: Optional[str] = None

    def problems(self) -> list[str]:
        if not isinstance(self.budget, int) or self.budget < 0:
            return [
                "explore.budget: expected a non-negative integer, "
                f"got {self.budget!r}"
            ]
        return []


@dataclass(frozen=True)
class RunSpec:
    """One declarative debugging run (see the module docstring)."""

    workload: Optional[WorkloadSpec] = None
    collection: CollectionSpec = field(default_factory=CollectionSpec)
    engine: EngineSpec = field(default_factory=EngineSpec)
    corpus: CorpusSpec = field(default_factory=CorpusSpec)
    analysis: AnalysisSpec = field(default_factory=AnalysisSpec)
    explore: Optional[ExploreSpec] = None

    # -- validation ------------------------------------------------------

    @property
    def mode(self) -> str:
        """"live", "corpus", "incremental", or "explore"."""
        if self.explore is not None:
            return "explore"
        if self.corpus.dir is None:
            return "live"
        return "incremental" if self.corpus.mode == "incremental" else "corpus"

    def problems(self) -> list[str]:
        """Every problem with this spec, dotted-path-prefixed."""
        problems: list[str] = []
        if self.mode == "incremental":
            # the corpus manifest pins the program; a workload is optional
            if self.workload is not None and self.workload.name:
                problems.extend(self.workload.problems())
        elif self.workload is None:
            problems.append(
                "workload: required unless corpus.mode is 'incremental' "
                "(set workload.name to one of: "
                f"{', '.join(registries.workloads.names())})"
            )
        else:
            problems.extend(self.workload.problems())
        if self.explore is not None:
            problems.extend(self.explore.problems())
            if self.corpus.mode == "incremental":
                problems.append(
                    "corpus.mode: 'incremental' analyzes a stored corpus; "
                    "an [explore] run ingests into corpus.dir instead"
                )
        for section in (self.collection, self.corpus, self.analysis):
            problems.extend(section.problems())
        return problems

    def validate(self) -> "RunSpec":
        """Raise :class:`SpecError` on the first problem; returns self.
        A spec built in Python has its values type-checked as a spec
        file's are, by decoding its dict."""
        RunSpec.from_dict(self.to_dict())
        problems = self.problems()
        if problems:
            raise SpecError("", "; ".join(problems))
        return self

    # -- dict round-trip -------------------------------------------------

    def to_dict(self) -> dict:
        """``version``, then ``workload``, then the sections by name (the
        order :meth:`to_toml` writes)."""
        sections = encode(self).items()
        order = sorted(sections, key=lambda item: (item[0] != "workload", item[0]))
        return {"version": SPEC_VERSION, **dict(order)}

    @classmethod
    def from_dict(cls, raw: dict) -> "RunSpec":
        if not isinstance(raw, dict):
            raise SpecError("", f"expected an object, got {type(raw).__name__}")
        version = raw.get("version", SPEC_VERSION)
        if type(version) is not int or version != SPEC_VERSION:
            raise SpecError(
                "version",
                f"unsupported spec version {version!r} "
                f"(this build reads version {SPEC_VERSION})",
            )
        sections = {k: v for k, v in raw.items() if k != "version"}
        try:
            return decode(cls, sections)
        except DecodeError as exc:
            raise SpecError(exc.path, exc.reason) from exc

    def digest(self) -> str:
        """sha256 of the spec's canonical JSON — the stable identity two
        runs share exactly when they ran the same spec (the serve daemon
        stamps it into run-log headers; the cross-run index groups by
        it)."""
        import hashlib

        canonical = json.dumps(self.to_dict(), sort_keys=True)
        return hashlib.sha256(canonical.encode()).hexdigest()

    # -- JSON ------------------------------------------------------------

    def to_json(self, indent: Optional[int] = 2) -> str:
        return json.dumps(self.to_dict(), indent=indent, sort_keys=True)

    @classmethod
    def from_json(cls, text: str) -> "RunSpec":
        try:
            raw = json.loads(text)
        except json.JSONDecodeError as exc:
            raise SpecError("", f"not valid JSON: {exc}") from exc
        return cls.from_dict(raw)

    # -- TOML ------------------------------------------------------------

    def to_toml(self) -> str:
        return _dumps_toml(self.to_dict())

    @classmethod
    def from_toml(cls, text: str) -> "RunSpec":
        import tomllib

        try:
            raw = tomllib.loads(text)
        except tomllib.TOMLDecodeError as exc:
            raise SpecError("", f"not valid TOML: {exc}") from exc
        return cls.from_dict(raw)

    # -- files -----------------------------------------------------------

    @classmethod
    def load(cls, path: str | os.PathLike) -> "RunSpec":
        """Read a spec file; the suffix picks the format (``.toml`` /
        ``.json``; anything else tries JSON, then TOML)."""
        path = Path(path)
        try:
            text = path.read_text()
        except OSError as exc:
            raise SpecError("", f"cannot read {path}: {exc}") from exc
        suffix = path.suffix.lower()
        if suffix == ".toml":
            return cls.from_toml(text)
        if suffix == ".json":
            return cls.from_json(text)
        # No recognized suffix: sniff the format.  Fall back to TOML
        # only when the text is not JSON at all — a file that *parses*
        # as JSON but fails spec validation must surface that precise
        # error, not an irrelevant TOML parse failure.
        try:
            raw = json.loads(text)
        except json.JSONDecodeError:
            return cls.from_toml(text)
        return cls.from_dict(raw)

    def save(self, path: str | os.PathLike) -> Path:
        """Write the spec; the suffix picks the format (default TOML)."""
        path = Path(path)
        text = (
            self.to_json() + "\n"
            if path.suffix.lower() == ".json"
            else self.to_toml()
        )
        path.write_text(text)
        return path


def _toml_scalar(value: object) -> str:
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, (int, float)):
        return repr(value)
    if isinstance(value, str):
        return json.dumps(value)  # JSON string escaping is valid TOML
    if isinstance(value, (list, tuple)):
        return "[" + ", ".join(_toml_scalar(v) for v in value) + "]"
    if isinstance(value, dict):
        # Inline table — the shape collection.strategy_params needs.
        inner = ", ".join(
            f"{json.dumps(k)} = {_toml_scalar(v)}" for k, v in value.items()
        )
        return "{" + inner + "}"
    raise SpecError("", f"cannot express {type(value).__name__} in TOML")


def _dumps_toml(payload: dict) -> str:
    """A minimal TOML writer for the spec's shape: top-level scalars
    first, then one ``[section]`` table per nested dict (the standard
    library ships only a reader)."""
    lines: list[str] = []
    for key, value in payload.items():
        if not isinstance(value, dict):
            lines.append(f"{key} = {_toml_scalar(value)}")
    for key, value in payload.items():
        if isinstance(value, dict):
            lines.append("")
            lines.append(f"[{key}]")
            for inner_key, inner in value.items():
                lines.append(f"{inner_key} = {_toml_scalar(inner)}")
    return "\n".join(lines) + "\n"
