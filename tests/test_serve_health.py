"""Hysteresis tests for the serve-tier HealthMonitor state machine."""

import random

import pytest

from repro.serve.health import (EVENT_DEGRADED, EVENT_OK, EVENT_SHED,
                                STATE_DEGRADED, STATE_HEALTHY,
                                STATE_SHEDDING, HealthMonitor)
from repro.serve.metrics import ServeMetrics


def _feed(monitor, events, start=0.0):
    t = start
    for event in events:
        monitor.record(event, t)
        t += 0.01
    return t


class TestValidation:
    def test_bad_window(self):
        with pytest.raises(ValueError):
            HealthMonitor(window=0)

    def test_thresholds_must_nest(self):
        with pytest.raises(ValueError):
            HealthMonitor(shed_enter=0.05, shed_exit=0.10)
        with pytest.raises(ValueError):
            HealthMonitor(degrade_enter=0.01, degrade_exit=0.05)

    def test_unknown_event_rejected(self):
        with pytest.raises(ValueError):
            HealthMonitor().record("gremlins", 0.0)


class TestMinEventsEdge:
    """No classification below ``min_events``, immediate at the edge."""

    def test_stays_healthy_below_min_events(self):
        monitor = HealthMonitor(window=100, min_events=20)
        _feed(monitor, [EVENT_SHED] * 19)
        assert monitor.state == STATE_HEALTHY
        assert monitor.window_fill == 19

    def test_transitions_at_exactly_min_events(self):
        monitor = HealthMonitor(window=100, min_events=20)
        _feed(monitor, [EVENT_SHED] * 19)
        assert monitor.record(EVENT_SHED, 0.2) == STATE_SHEDDING

    def test_min_events_floor_is_one(self):
        monitor = HealthMonitor(window=10, min_events=0)
        assert monitor.min_events == 1
        assert monitor.record(EVENT_SHED, 0.0) == STATE_SHEDDING


class TestHysteresis:
    def test_full_round_trip(self):
        """healthy -> degraded -> shedding -> healthy, with hysteresis."""
        monitor = HealthMonitor(window=20, min_events=10)
        # 10% degraded answers >= degrade_enter (5%): degraded
        _feed(monitor, [EVENT_OK] * 9 + [EVENT_DEGRADED] * 2)
        assert monitor.state == STATE_DEGRADED
        # rejections climb past shed_enter (10%): shedding
        _feed(monitor, [EVENT_SHED] * 3)
        assert monitor.state == STATE_SHEDDING
        # a clean run of answers flushes the window: back to healthy
        _feed(monitor, [EVENT_OK] * 40)
        assert monitor.state == STATE_HEALTHY

    def test_no_flap_between_exit_and_enter(self):
        """Inside the hysteresis band the state holds steady."""
        monitor = HealthMonitor(window=50, min_events=10,
                                degrade_enter=0.10, degrade_exit=0.02)
        _feed(monitor, [EVENT_DEGRADED] * 5 + [EVENT_OK] * 45)
        assert monitor.state == STATE_DEGRADED
        # two more oks push two degraded events out of the window:
        # 3/50 = 6% sits between exit (2%) and enter (10%) — the
        # monitor must not bounce back to healthy inside the band
        _feed(monitor, [EVENT_OK] * 2)
        assert monitor.state == STATE_DEGRADED
        _feed(monitor, [EVENT_OK] * 5)          # window now all-ok
        assert monitor.state == STATE_HEALTHY

    def test_shedding_exit_requires_near_zero_sheds(self):
        monitor = HealthMonitor(window=20, min_events=10,
                                shed_enter=0.10, shed_exit=0.02)
        _feed(monitor, [EVENT_SHED] * 4 + [EVENT_OK] * 16)
        assert monitor.state == STATE_SHEDDING
        # three oks leave one shed in the window: 1/20 = 5% is still
        # above the 2% exit bar, so the state holds
        _feed(monitor, [EVENT_OK] * 3)
        assert monitor.state == STATE_SHEDDING
        _feed(monitor, [EVENT_OK] * 1)          # last shed leaves window
        assert monitor.state == STATE_HEALTHY

    def test_shedding_can_exit_into_degraded(self):
        monitor = HealthMonitor(window=20, min_events=10)
        _feed(monitor, [EVENT_SHED] * 4 + [EVENT_OK] * 16)
        assert monitor.state == STATE_SHEDDING
        # sheds age out but degraded answers remain prominent
        _feed(monitor, [EVENT_DEGRADED] * 20)
        assert monitor.state == STATE_DEGRADED


class TestMetricsExport:
    def test_attach_metrics_records_transitions(self):
        metrics = ServeMetrics()
        monitor = HealthMonitor(window=20, min_events=10)
        monitor.attach_metrics(metrics)
        _feed(monitor, [EVENT_SHED] * 10)
        _feed(monitor, [EVENT_OK] * 40, start=1.0)
        states = [(old, new) for _, old, new
                  in metrics.health_transitions]
        assert (STATE_HEALTHY, STATE_SHEDDING) in states
        assert states[-1][1] == STATE_HEALTHY

    def test_no_metrics_attached_is_fine(self):
        monitor = HealthMonitor(window=20, min_events=5)
        _feed(monitor, [EVENT_SHED] * 10)
        assert monitor.state == STATE_SHEDDING


class _RescanMonitor(HealthMonitor):
    """The reference: the classifier that counted the whole window on
    every event, before the monitor kept running counts."""

    def _classify(self) -> str:
        total = len(self._events)
        if total < self.min_events:
            return self.state
        shed = sum(1 for e in self._events if e == EVENT_SHED) / total
        degraded = sum(1 for e in self._events
                       if e == EVENT_DEGRADED) / total
        if self.state == STATE_SHEDDING:
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


class TestRunningCountsMatchTheRescan:
    """Seeded streams in bursts — quiet runs, brownouts, shedding storms —
    fold through both classifiers to the same states and transitions."""

    @staticmethod
    def _stream(seed, length=3000):
        rng = random.Random(seed)
        events = []
        while len(events) < length:
            p_shed, p_degraded = rng.choice(
                [(0.0, 0.0), (0.0, 0.02), (0.01, 0.1), (0.3, 0.2),
                 (0.05, 0.0), (0.0, 0.6)])
            for _ in range(rng.randrange(5, 200)):
                draw = rng.random()
                events.append(EVENT_SHED if draw < p_shed
                              else EVENT_DEGRADED
                              if draw < p_shed + p_degraded else EVENT_OK)
        return events

    @pytest.mark.parametrize("seed", range(8))
    @pytest.mark.parametrize("window,min_events", [(100, 20), (20, 5),
                                                   (1, 1), (7, 3)])
    def test_same_states_and_transitions(self, seed, window, min_events):
        fast = HealthMonitor(window=window, min_events=min_events)
        slow = _RescanMonitor(window=window, min_events=min_events)
        fast.attach_metrics(ServeMetrics())
        slow.attach_metrics(ServeMetrics())
        for step, event in enumerate(self._stream(seed)):
            assert fast.record(event, step * 0.01) \
                == slow.record(event, step * 0.01)
        assert fast._metrics.health_transitions \
            == slow._metrics.health_transitions
        assert len(fast._metrics.health_transitions) > 0
        assert fast.window_fill == slow.window_fill
