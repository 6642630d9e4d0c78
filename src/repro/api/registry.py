"""String-keyed plugin registries: the API's extension points.

Role
----
Every name a :class:`~repro.api.spec.RunSpec` can mention — a workload,
a predicate extractor, a precedence policy, a scheduler strategy —
resolves through a :class:`Registry` here.  The CLI builds its
``choices`` lists from the same registries, so a third-party package
that registers a workload or an extractor at import time shows up in
``repro debug``/``repro run`` with no core changes::

    from repro.api.registry import workloads

    @workloads.register("my-service")
    def build() -> Workload:
        ...

Invariants
----------
* lookup failures are actionable: :class:`RegistryError` names the
  registry and lists every registered key;
* registration is last-write-wins only with ``replace=True`` —
  accidental shadowing of a bundled name is an error;
* :data:`workloads` *is* :data:`repro.workloads.common.REGISTRY` (one
  object, two import paths), so the bundled case studies and
  third-party registrations can never drift apart;
* this module imports nothing of ``repro`` when it loads: each table
  imports its built-in catalogue on first use (a lookup, a listing or a
  registration), so every layer may import the tables.
"""

from __future__ import annotations

import threading
from typing import Callable, Generic, Iterator, Optional, TypeVar

T = TypeVar("T")

#: held while a table loads its built-ins: other threads wait for the
#: whole catalogue; re-entrant, since a catalogue registers into the
#: table it fills
_LOADING = threading.RLock()


class RegistryError(KeyError):
    """An unknown key was looked up (message lists the known ones)."""

    def __init__(self, message: str) -> None:
        super().__init__(message)
        self.message = message

    def __str__(self) -> str:  # KeyError would repr-quote the message
        return self.message


class Registry(Generic[T]):
    """A named string → factory mapping with decorator registration."""

    def __init__(
        self, kind: str, builtins: Optional[Callable[[], None]] = None
    ) -> None:
        #: what this registry holds, for error messages ("workload", …)
        self.kind = kind
        self._factories: dict[str, T] = {}
        #: registers the built-in catalogue; run once, on first use
        self._builtins = builtins
        self._loading = False

    def _table(self) -> dict[str, T]:
        if self._builtins is not None:
            with _LOADING:
                if self._builtins is not None and not self._loading:
                    self._loading = True
                    try:
                        self._builtins()
                        self._builtins = None
                    finally:
                        self._loading = False
        return self._factories

    def register(
        self, name: str, factory: Optional[T] = None, replace: bool = False
    ):
        """Register ``factory`` under ``name``; usable as a decorator."""

        def _register(fn: T) -> T:
            table = self._table()
            if not replace and name in table:
                raise RegistryError(
                    f"{self.kind} {name!r} is already registered "
                    "(pass replace=True to override)"
                )
            table[name] = fn
            return fn

        if factory is not None:
            return _register(factory)
        return _register

    def get(self, name: str) -> T:
        """The registered factory, or a :class:`RegistryError` naming
        every valid key."""
        try:
            return self._table()[name]
        except KeyError:
            known = ", ".join(sorted(self._factories)) or "(none)"
            raise RegistryError(
                f"unknown {self.kind} {name!r} (registered: {known})"
            ) from None

    def build(self, name: str, *args, **kwargs):
        """Call the registered factory."""
        return self.get(name)(*args, **kwargs)

    def names(self) -> list[str]:
        return sorted(self._table())

    def __contains__(self, name: str) -> bool:
        return name in self._table()

    def __iter__(self) -> Iterator[str]:
        return iter(self.names())

    def __len__(self) -> int:
        return len(self._table())


# ---------------------------------------------------------------------------
# The four bundled registries
# ---------------------------------------------------------------------------


def _bundled_workloads() -> None:
    from .. import workloads  # noqa: F401 - the case studies register as they load


def _bundled_extractors() -> None:
    from ..core import extraction as x

    for name, cls in (
        ("data-race", x.DataRaceExtractor),
        ("method-fails", x.MethodFailsExtractor),
        ("duration", x.DurationExtractor),
        ("wrong-return", x.WrongReturnExtractor),
        ("order-violation", x.OrderViolationExtractor),
        ("method-executed", x.MethodExecutedExtractor),
        ("compound", x.CompoundConjunctionExtractor),
        ("failure", x.FailureExtractor),
    ):
        extractors.register(name, cls)


def _bundled_policies() -> None:
    from ..core import precedence as p

    for name, cls in (
        ("kind-anchor", p.KindAnchorPolicy),
        ("start-time", p.StartTimePolicy),
        ("end-time", p.EndTimePolicy),
        ("lamport", p.LamportAnchorPolicy),
    ):
        policies.register(name, cls)


def _bundled_strategies() -> None:
    from ..explore.strategies import DelayStrategy, PCTStrategy
    from ..sim.schedule import RandomStrategy

    for name, cls in (
        ("random", RandomStrategy),
        ("pct", PCTStrategy),
        ("delay", DelayStrategy),
    ):
        strategies.register(name, cls)
    strategies.register("replay", _replay_strategy)


#: name → zero-arg builder returning a :class:`repro.workloads.Workload`.
#: This is the *same object* as ``repro.workloads.common.REGISTRY``; the
#: bundled case studies register themselves into it when
#: :mod:`repro.workloads` loads.
workloads: Registry[Callable] = Registry("workload", _bundled_workloads)

#: name → zero-arg factory returning a :class:`repro.core.Extractor`.
extractors: Registry[Callable] = Registry("extractor", _bundled_extractors)

#: name → zero-arg factory returning a
#: :class:`repro.core.precedence.PrecedencePolicy`.
policies: Registry[Callable] = Registry("precedence policy", _bundled_policies)

#: name → factory(seed=…, **params) returning a
#: :class:`repro.sim.schedule.SchedulerStrategy`.
strategies: Registry[Callable] = Registry(
    "scheduler strategy", _bundled_strategies
)


def _replay_strategy(seed: int = 0, schedule=None, **params):
    """Factory for the ``replay`` strategy.

    ``schedule`` may be a :class:`~repro.sim.schedule.Schedule`, an
    already-parsed schedule dict, or a path to a saved schedule file.
    ``seed`` is accepted (and ignored) so the factory matches the
    uniform ``factory(seed=…, **params)`` calling convention.
    """
    from ..sim.schedule import ReplayStrategy, Schedule, ScheduleError

    del seed
    if schedule is None:
        raise ScheduleError(
            "the replay strategy needs a schedule= parameter "
            "(a Schedule, a schedule dict, or a path to a saved one)"
        )
    if isinstance(schedule, dict):
        schedule = Schedule.from_dict(schedule)
    elif isinstance(schedule, str):
        schedule = Schedule.load(schedule)
    return ReplayStrategy(schedule=schedule, **params)


def strategy_factory(
    name: str, params: Optional[dict] = None
) -> Callable:
    """A per-seed strategy constructor for registered strategy ``name``.

    Returns ``seed -> strategy`` — the shape
    :class:`repro.sim.scheduler.Simulator` and the harness sweep/collect
    loops expect, with ``params`` (e.g. ``depth`` for ``pct``) closed
    over.  Raises :class:`RegistryError` for unknown names immediately,
    not at first use.
    """
    cls = strategies.get(name)
    fixed = dict(params or {})

    def factory(seed: int):
        return cls(seed=seed, **fixed)

    factory.__name__ = f"make_{name}_strategy"
    return factory


def workload_for_program(program_name: Optional[str]):
    """The registered workload whose program has this name, or ``None``.

    Corpus manifests pin a *program* name; this is the reverse lookup
    the corpus commands use to reattach the live program (needed for
    the Section 3.3 safe-intervention filter and for interventions).
    """
    if program_name is None:
        return None
    for name in workloads.names():
        workload = workloads.build(name)
        if workload.program.name == program_name:
            return workload
    return None

