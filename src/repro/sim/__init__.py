"""``repro.sim`` — deterministic concurrent-program simulator.

This package is the substrate that replaces the paper's real,
CLR-instrumented applications (see DESIGN.md, substitution table).  It
provides:

* a generator-based cooperative threading model with seeded random
  interleaving (:mod:`repro.sim.scheduler`);
* shared variables, non-reentrant locks, virtual time, and Lamport
  clocks (:mod:`repro.sim.runtime`, :mod:`repro.sim.clock`);
* execution traces with the paper's Figure 9b schema
  (:mod:`repro.sim.tracing`);
* declarative fault injection for all Figure 2 intervention types
  (:mod:`repro.sim.faults`).
"""

from .clock import LamportClock, LamportRegistry, VirtualClock
from .errors import (
    LockProtocolError,
    SimHarnessError,
    SimulatedError,
    SimulationFault,
    UnknownMethodError,
)
from .faults import (
    CatchException,
    DelayBefore,
    DelayReturn,
    ForceOrder,
    ForceReturn,
    Intervention,
    InterventionSet,
    MethodSelector,
    SerializeMethods,
)
from .program import MethodFn, Program, SimContext
from .schedule import (
    RandomStrategy,
    ReplayStrategy,
    Schedule,
    ScheduleError,
    SchedulePoint,
    SchedulerStrategy,
)
from .scheduler import DEFAULT_MAX_STEPS, ExecutionResult, Simulator, run_program
from .serialize import (
    ImportedTrace,
    TraceFormatError,
    trace_from_dict,
    trace_from_json,
    trace_to_dict,
    trace_to_json,
)
from .tracing import (
    Access,
    AccessType,
    ExecutionTrace,
    FailureInfo,
    MethodExecution,
    MethodKey,
)

__all__ = [
    "Access",
    "AccessType",
    "CatchException",
    "DEFAULT_MAX_STEPS",
    "DelayBefore",
    "DelayReturn",
    "ExecutionResult",
    "ExecutionTrace",
    "FailureInfo",
    "ForceOrder",
    "ForceReturn",
    "ImportedTrace",
    "Intervention",
    "InterventionSet",
    "LamportClock",
    "LamportRegistry",
    "LockProtocolError",
    "MethodExecution",
    "MethodFn",
    "MethodKey",
    "MethodSelector",
    "Program",
    "RandomStrategy",
    "ReplayStrategy",
    "Schedule",
    "ScheduleError",
    "SchedulePoint",
    "SchedulerStrategy",
    "SerializeMethods",
    "SimContext",
    "SimHarnessError",
    "Simulator",
    "SimulatedError",
    "SimulationFault",
    "TraceFormatError",
    "UnknownMethodError",
    "VirtualClock",
    "run_program",
    "trace_from_dict",
    "trace_from_json",
    "trace_to_dict",
    "trace_to_json",
]
