"""``repro.explore`` — pluggable schedule-space exploration.

The simulator's scheduling decisions flow through one seam
(:class:`~repro.sim.schedule.SchedulerStrategy`); this package supplies
the systematic search policies that plug into it (PCT and delay-bounded
scheduling, :mod:`repro.explore.strategies`) and the coverage-guided
fuzzing loop that drives them (:mod:`repro.explore.driver`): frontier of
novel interleavings, prefix-replay mutation, corpus ingestion of every
novel failing schedule, and on-the-spot replay verification.

Entry points: :func:`explore` / :class:`ExplorationDriver` from Python,
an ``[explore]`` section in a :class:`~repro.api.spec.RunSpec` run by
:func:`repro.api.run` (``repro explore`` builds one from its flags), and
``collection.strategy`` in a spec to run a whole debugging session under
a non-default strategy.
"""

from .driver import (
    EXPLORE_SCHEMA_VERSION,
    ExplorationDriver,
    ExplorationResult,
    ExploreConfig,
    ExplorePayload,
    FoundFailure,
    WaveObservation,
    WavePlan,
    explore,
)
from .strategies import DEFAULT_HORIZON, DelayStrategy, PCTStrategy

__all__ = [
    "DEFAULT_HORIZON",
    "DelayStrategy",
    "EXPLORE_SCHEMA_VERSION",
    "ExplorationDriver",
    "ExplorationResult",
    "ExploreConfig",
    "ExplorePayload",
    "FoundFailure",
    "PCTStrategy",
    "WaveObservation",
    "WavePlan",
    "explore",
]
