"""Per-source circuit breaker (closed / open / half-open).

A weeks-long crawl must stop hammering a source that is browning out:
after ``failure_threshold`` *consecutive* transport-level failures the
breaker opens and every caller sharing it (all logical workers of a
source) waits out a cooldown instead of burning its retry budget. The
first request after the cooldown is the half-open probe: success closes
the breaker, another failure re-opens it with a doubled (capped)
cooldown — classic exponential escalation.

The breaker is time-based on the shared :class:`~repro.util.clock.Clock`,
so under the simulated clock whole brownouts pass in microseconds while
preserving ordering.
"""

from __future__ import annotations

from typing import Optional

from repro.util.clock import Clock

STATE_CLOSED = "closed"
STATE_OPEN = "open"
STATE_HALF_OPEN = "half_open"


class CircuitBreaker:
    """Shared failure-rate governor for one upstream source."""

    def __init__(self, clock: Clock, name: str = "source",
                 failure_threshold: int = 5,
                 cooldown_s: float = 30.0,
                 max_cooldown_s: float = 300.0):
        if failure_threshold < 1:
            raise ValueError("failure_threshold must be >= 1")
        if cooldown_s <= 0:
            raise ValueError("cooldown_s must be > 0")
        self.clock = clock
        self.name = name
        self.failure_threshold = failure_threshold
        self.base_cooldown_s = cooldown_s
        self.max_cooldown_s = max(cooldown_s, max_cooldown_s)
        self.state = STATE_CLOSED
        self._consecutive_failures = 0
        self._cooldown_s = cooldown_s
        self._open_until = 0.0
        self._probe_in_flight = False
        #: lifetime counters (surfaced by crawl summaries)
        self.trips = 0
        self.probes = 0

    # ----------------------------------------------------------------- flow
    def acquire(self) -> float:
        """Seconds the caller must wait before sending (0 = go now).

        When the breaker is open, the *first* caller gets the remaining
        cooldown and becomes the half-open probe — it is expected to
        sleep that long and then send the probe request. While that
        probe is in flight, every other caller keeps waiting (it gets
        the remaining cooldown too, or a short re-check interval once
        the cooldown has elapsed) instead of being released as a
        stampede of concurrent probes.
        """
        if self.state == STATE_OPEN:
            remaining = max(0.0, self._open_until - self.clock.now())
            self.state = STATE_HALF_OPEN
            self._probe_in_flight = True
            self.probes += 1
            return remaining
        if self.state == STATE_HALF_OPEN:
            if self._probe_in_flight:
                remaining = max(0.0, self._open_until - self.clock.now())
                return remaining if remaining > 0 else (
                    self.base_cooldown_s * 0.1)
            self._probe_in_flight = True
            self.probes += 1
            return 0.0
        return 0.0

    def try_acquire(self) -> bool:
        """Non-blocking acquire for callers that never sleep (the serve
        tier): True = send now, possibly as the half-open probe; False =
        still cooling down or another probe is already in flight."""
        if self.state == STATE_CLOSED:
            return True
        if self.state == STATE_OPEN:
            if self.clock.now() < self._open_until:
                return False
            self.state = STATE_HALF_OPEN
            self._probe_in_flight = True
            self.probes += 1
            return True
        # half-open: exactly one probe at a time
        if self._probe_in_flight:
            return False
        self._probe_in_flight = True
        self.probes += 1
        return True

    def record_success(self) -> None:
        if self.state == STATE_HALF_OPEN:
            self._cooldown_s = self.base_cooldown_s
        self.state = STATE_CLOSED
        self._consecutive_failures = 0
        self._probe_in_flight = False

    def record_failure(self) -> None:
        if self.state == STATE_HALF_OPEN:
            # the probe failed: re-open with an escalated cooldown
            self._cooldown_s = min(self.max_cooldown_s,
                                   self._cooldown_s * 2.0)
            self._trip()
            return
        self._consecutive_failures += 1
        if (self.state == STATE_CLOSED
                and self._consecutive_failures >= self.failure_threshold):
            self._trip()

    def _trip(self) -> None:
        self.state = STATE_OPEN
        self.trips += 1
        self._consecutive_failures = 0
        self._probe_in_flight = False
        self._open_until = self.clock.now() + self._cooldown_s

    # ------------------------------------------------------------ inspection
    @property
    def current_cooldown_s(self) -> float:
        return self._cooldown_s

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (f"<CircuitBreaker {self.name} {self.state} "
                f"failures={self._consecutive_failures} trips={self.trips}>")


def breaker_for(clock: Clock, name: str,
                failure_threshold: int = 5,
                cooldown_s: float = 30.0) -> Optional[CircuitBreaker]:
    """Convenience used by the platform wiring; returns None when
    ``failure_threshold`` is 0 (breaker disabled)."""
    if failure_threshold <= 0:
        return None
    return CircuitBreaker(clock, name=name,
                          failure_threshold=failure_threshold,
                          cooldown_s=cooldown_s)
