"""Health state machine of the query tier: healthy → degraded → shedding.

The monitor watches a sliding window of recent request outcomes and
classifies the service's posture:

* **healthy** — requests are answered fresh, nothing is shed;
* **degraded** — a meaningful fraction of answers are stale/summary
  fallbacks or backend faults are being observed;
* **shedding** — the front door is actively rejecting load.

Exit thresholds sit below entry thresholds (hysteresis), so the state
does not flap at the boundary. All decisions are counter-based and
deterministic; transitions are exported through
:class:`~repro.serve.metrics.ServeMetrics` for the benchmark reports.
"""

from __future__ import annotations

from collections import deque
from typing import Deque

STATE_HEALTHY = "healthy"
STATE_DEGRADED = "degraded"
STATE_SHEDDING = "shedding"

#: window event categories
EVENT_OK = "ok"              # fresh/cached answer
EVENT_DEGRADED = "degraded"  # stale/summary answer, fault, deadline miss
EVENT_SHED = "shed"          # rejected at admission


class HealthMonitor:
    """Sliding-window classifier over request outcomes."""

    def __init__(self, window: int = 100, min_events: int = 20,
                 shed_enter: float = 0.10, shed_exit: float = 0.02,
                 degrade_enter: float = 0.05, degrade_exit: float = 0.01):
        if window < 1:
            raise ValueError(f"window must be >= 1, got {window}")
        if not 0 < shed_exit <= shed_enter < 1:
            raise ValueError("need 0 < shed_exit <= shed_enter < 1")
        if not 0 < degrade_exit <= degrade_enter < 1:
            raise ValueError("need 0 < degrade_exit <= degrade_enter < 1")
        self.window = window
        self.min_events = max(1, min_events)
        self.shed_enter = shed_enter
        self.shed_exit = shed_exit
        self.degrade_enter = degrade_enter
        self.degrade_exit = degrade_exit
        self.state = STATE_HEALTHY
        self._events: Deque[str] = deque(maxlen=window)
        # running counts over the window, kept in step on append/evict
        self._counts = {EVENT_OK: 0, EVENT_DEGRADED: 0, EVENT_SHED: 0}
        self._metrics = None

    def attach_metrics(self, metrics) -> None:
        """Export transitions through a ServeMetrics instance."""
        self._metrics = metrics

    # ------------------------------------------------------------------ flow
    def record(self, event: str, sim_time: float) -> str:
        """Feed one outcome; returns the (possibly new) state."""
        counts = self._counts
        if event not in counts:
            raise ValueError(f"unknown health event {event!r}")
        if len(self._events) == self.window:
            counts[self._events[0]] -= 1
        self._events.append(event)
        counts[event] += 1
        new_state = self._classify()
        if new_state != self.state:
            if self._metrics is not None:
                self._metrics.record_health_transition(
                    sim_time, self.state, new_state)
            self.state = new_state
        return self.state

    def _classify(self) -> str:
        total = len(self._events)
        if total < self.min_events:
            return self.state
        shed = self._counts[EVENT_SHED] / total
        degraded = self._counts[EVENT_DEGRADED] / total
        if self.state == STATE_SHEDDING:
            # leave shedding only once rejections have really stopped
            if shed > self.shed_exit:
                return STATE_SHEDDING
            return (STATE_DEGRADED if degraded > self.degrade_exit
                    else STATE_HEALTHY)
        if shed >= self.shed_enter:
            return STATE_SHEDDING
        if self.state == STATE_DEGRADED:
            if degraded > self.degrade_exit:
                return STATE_DEGRADED
            return STATE_HEALTHY
        if degraded >= self.degrade_enter:
            return STATE_DEGRADED
        return STATE_HEALTHY

    # ------------------------------------------------------------ inspection
    @property
    def window_fill(self) -> int:
        return len(self._events)
