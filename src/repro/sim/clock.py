"""Clocks for the simulator: a global virtual clock and Lamport clocks.

The paper (Section 4) notes that AID relies on computer clocks to decide
temporal precedence and that logical clocks such as Lamport's can address
granularity and multi-core skew issues.  The simulator provides both:

* :class:`VirtualClock` — a single global tick counter advanced by the
  scheduler.  Every action occupies an interval ``[start, start + dur)``.
  Because the scheduler serializes actions, two *events* never share a
  tick, but *method windows* (start..end of a call, spanning many
  interleaved actions) genuinely overlap across threads, which is what
  the data-race and overlap predicates measure.
* :class:`LamportClock` — a per-thread logical clock maintained alongside
  the virtual clock.  Sends/receives are modeled as lock hand-offs and
  shared-variable writes/reads.  Extractors may use Lamport timestamps
  as a conservative precedence policy (see
  :mod:`repro.core.precedence`).
"""

from __future__ import annotations

from dataclasses import dataclass, field


class VirtualClock:
    """Global monotonically-increasing tick counter.

    ``now`` is a plain attribute: the scheduler sets it once per step
    and the runtime bumps it for call bookkeeping, both on the hot
    path.  :meth:`advance` is the checked way to move it.
    """

    __slots__ = ("now",)

    def __init__(self) -> None:
        self.now = 0

    def advance(self, ticks: int) -> int:
        """Advance the clock and return the *new* time.

        ``ticks`` must be non-negative; zero-duration actions are allowed
        (they still get a distinct causal position via event sequence
        numbers on the trace).
        """
        if ticks < 0:
            raise ValueError(f"cannot advance clock by {ticks} ticks")
        self.now += ticks
        return self.now


@dataclass
class LamportClock:
    """A classic Lamport logical clock for one simulated thread."""

    time: int = 0

    def tick(self) -> int:
        """Local event: increment and return the new timestamp."""
        self.time += 1
        return self.time

    def merge(self, observed: int) -> int:
        """Receive event: merge an observed timestamp, then tick."""
        self.time = max(self.time, observed)
        return self.tick()


@dataclass
class LamportRegistry:
    """Tracks Lamport timestamps attached to shared channels.

    A "channel" is anything a happens-before edge can flow through in the
    simulator: a shared variable, a lock, or a thread spawn/join pair.
    Writers stamp the channel; readers merge from it.
    """

    channels: dict[str, int] = field(default_factory=dict)

    def stamp(self, channel: str, clock: LamportClock) -> int:
        ts = clock.tick()
        self.channels[channel] = max(self.channels.get(channel, 0), ts)
        return ts

    def observe(self, channel: str, clock: LamportClock) -> int:
        return clock.merge(self.channels.get(channel, 0))
