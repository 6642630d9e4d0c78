"""Exception and failure types for the concurrent-program simulator.

The simulator distinguishes three layers of "going wrong":

* :class:`SimulatedError` — an exception *inside* the simulated program.
  It propagates through simulated call frames exactly like a real
  exception would, can be caught by simulated ``try/except`` blocks, and
  crashes the simulated thread if unhandled.
* :class:`SimulationFault` — the simulated *execution* as a whole failed
  (crash, deadlock, hang).  These are reported as
  :class:`~repro.sim.tracing.FailureInfo` records on the trace rather than
  raised to the caller.
* :class:`SimHarnessError` — a bug in how the simulator is being *used*
  (e.g. an unknown method name, releasing a lock that is not held).
  These always raise: they indicate a broken workload, not a simulated
  failure.
"""

from __future__ import annotations


class SimHarnessError(Exception):
    """Misuse of the simulator API by a workload or the harness itself."""


class UnknownMethodError(SimHarnessError):
    """A simulated call referenced a method name not in the program table."""

    def __init__(self, method: str) -> None:
        super().__init__(f"program has no method named {method!r}")
        self.method = method


class LockProtocolError(SimHarnessError):
    """A thread released a lock it does not hold, or re-acquired one."""


class SimulatedError(Exception):
    """An exception raised inside the simulated program.

    Simulated exceptions carry a symbolic ``kind`` (e.g.
    ``"IndexOutOfRange"``, ``"ObjectDisposed"``) because predicates and
    failure signatures match on the kind string, not on a Python class
    hierarchy.
    """

    def __init__(self, kind: str, message: str = "") -> None:
        super().__init__(f"{kind}: {message}" if message else kind)
        self.kind = kind
        self.message = message


class SimulationFault:
    """Symbolic names for whole-execution failure modes."""

    CRASH = "crash"
    DEADLOCK = "deadlock"
    HANG = "hang"
    ASSERTION = "assertion"
