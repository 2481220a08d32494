"""Durable at-least-once delivery: dedupe, fencing, quarantine, replay."""

import pytest

from repro.dfs.filesystem import MiniDfs
from repro.net.faults import (FAULT_DROP_ACK, FAULT_DUP_DELIVER,
                              FAULT_KILL_SUBSCRIBER, FaultSchedule,
                              FaultSpec)
from repro.serve.alerting import Notification
from repro.serve.outbox import (DeliveryOutbox, OUTCOME_ACK_DROPPED,
                                OUTCOME_DELIVERED, OUTCOME_FAILED,
                                OUTCOME_FENCED, Subscriber)
from repro.util.clock import SimClock
from repro.util.errors import ConfigError


class ScriptedFaults:
    """alert_fault_at driven by an explicit step-key script."""

    def __init__(self, script):
        self.script = dict(script)

    def alert_fault_at(self, step_key):
        kind = self.script.get(step_key)
        return FaultSpec(kind, 0.5) if kind else None


def _notification(n=1, sid="t0:default", tenant="t0"):
    return Notification(
        id=f"ntf-sub-00000{n}-day-0001:derived-inv:{n}:10",
        sub_id=f"sub-00000{n}", tenant=tenant, subscriber_id=sid,
        kind="company_funding", key=10, unit="day-0001:derived",
        entity=f"inv:{n}:10", payload={"investor_id": n,
                                       "company_id": 10})


@pytest.fixture()
def dfs():
    return MiniDfs(num_datanodes=3)


@pytest.fixture()
def clock():
    return SimClock()


def _outbox(dfs, clock, subscribers=None, **kw):
    subscribers = subscribers if subscribers is not None else {
        "t0:default": Subscriber("t0:default", tenant="t0")}
    return DeliveryOutbox(dfs, clock, subscribers, **kw), subscribers


class TestHappyPath:
    def test_enqueue_then_drain_delivers_once(self, dfs, clock):
        outbox, subs = _outbox(dfs, clock)
        note = _notification()
        assert outbox.enqueue(note)
        assert outbox.pending() == [note.id]
        outbox.drain()
        assert outbox.pending() == []
        assert outbox.delivered_ids() == [note.id]
        assert subs["t0:default"].effects == [note.id]
        assert outbox.stats.delivered == 1

    def test_enqueue_is_idempotent_in_every_state(self, dfs, clock):
        outbox, _ = _outbox(dfs, clock)
        note = _notification()
        assert outbox.enqueue(note)
        assert not outbox.enqueue(note)          # still pending
        outbox.drain()
        assert not outbox.enqueue(note)          # already delivered
        assert outbox.stats.duplicates_suppressed == 2
        assert outbox.delivered_ids() == [note.id]

    def test_unknown_subscriber_rejected(self, dfs, clock):
        outbox, _ = _outbox(dfs, clock, subscribers={})
        note = _notification()
        outbox.enqueue(note)
        with pytest.raises(ConfigError):
            outbox.attempt(note.id)


class TestChaosOutcomes:
    def test_kill_subscriber_retries_with_backoff(self, dfs, clock):
        note = _notification()
        faults = ScriptedFaults(
            {f"t0:default:{note.id}#a1": FAULT_KILL_SUBSCRIBER})
        outbox, subs = _outbox(dfs, clock, faults=faults)
        outbox.enqueue(note)
        assert outbox.attempt(note.id) == OUTCOME_FAILED
        assert subs["t0:default"].received == []
        assert outbox.due() == []                 # backing off
        assert outbox.next_due_at() > clock.now()
        outbox.drain()                            # attempt 2 succeeds
        assert outbox.delivered_ids() == [note.id]
        assert subs["t0:default"].effects == [note.id]

    def test_drop_ack_applies_effect_then_redelivers(self, dfs, clock):
        note = _notification()
        faults = ScriptedFaults(
            {f"t0:default:{note.id}#a1": FAULT_DROP_ACK})
        outbox, subs = _outbox(dfs, clock, faults=faults)
        outbox.enqueue(note)
        assert outbox.attempt(note.id) == OUTCOME_ACK_DROPPED
        # the subscriber saw it, but the marker must not exist yet
        assert subs["t0:default"].effects == [note.id]
        assert outbox.delivered_ids() == []
        outbox.drain()
        # redelivered at-least-once on the channel, once in effect
        assert subs["t0:default"].received == [note.id, note.id]
        assert subs["t0:default"].effects == [note.id]
        assert outbox.delivered_ids() == [note.id]
        assert outbox.stats.effects_deduped == 1

    def test_dup_deliver_dedupes_observable_effect(self, dfs, clock):
        note = _notification()
        faults = ScriptedFaults(
            {f"t0:default:{note.id}#a1": FAULT_DUP_DELIVER})
        outbox, subs = _outbox(dfs, clock, faults=faults)
        outbox.enqueue(note)
        assert outbox.attempt(note.id) == OUTCOME_DELIVERED
        assert subs["t0:default"].received == [note.id, note.id]
        assert subs["t0:default"].effects == [note.id]
        assert outbox.stats.dup_deliveries == 1


class TestFencing:
    def test_lost_lease_blocks_the_marker(self, dfs, clock):
        outbox, subs = _outbox(dfs, clock)
        note = _notification()
        outbox.enqueue(note)
        # a rival delivery worker holds this subscriber's lease
        rival = outbox.leases.acquire("t0:default", "outbox-2")
        assert rival is not None
        assert outbox.attempt(note.id) == OUTCOME_FENCED
        assert outbox.delivered_ids() == []
        assert outbox.pending() == [note.id]
        assert outbox.stats.fenced == 1
        # rival lets go; the redelivery lands under a higher epoch
        outbox.leases.release(rival)
        assert outbox.attempt(note.id) == OUTCOME_DELIVERED


class TestQuarantine:
    def test_poison_subscriber_quarantined_without_stall(self, dfs,
                                                         clock):
        subs = {"t0:poison": Subscriber("t0:poison", tenant="t0",
                                        poison=True),
                "t1:default": Subscriber("t1:default", tenant="t1")}
        outbox, _ = _outbox(dfs, clock, subscribers=subs,
                            max_delivery_attempts=3)
        bad = _notification(1, sid="t0:poison")
        good = _notification(2, sid="t1:default", tenant="t1")
        outbox.enqueue(bad)
        outbox.enqueue(good)
        outbox.drain()
        # the healthy subscriber was never held hostage
        assert outbox.delivered_ids() == [good.id]
        assert subs["t1:default"].effects == [good.id]
        # the poison one is parked with its letters, not retried forever
        assert outbox.is_quarantined("t0:poison")
        assert outbox.quarantined() == {"t0:poison": [bad.id]}
        assert outbox.stats.attempts == 3 + 1
        assert outbox.due() == []

    def test_quarantine_parks_all_pending_of_that_subscriber(self, dfs,
                                                             clock):
        subs = {"t0:poison": Subscriber("t0:poison", tenant="t0",
                                        poison=True)}
        outbox, _ = _outbox(dfs, clock, subscribers=subs,
                            max_delivery_attempts=2)
        first = _notification(1, sid="t0:poison")
        second = _notification(2, sid="t0:poison")
        outbox.enqueue(first)
        outbox.enqueue(second)
        outbox.drain()
        parked = outbox.quarantined()["t0:poison"]
        assert sorted(parked) == sorted([first.id, second.id])
        assert outbox.pending() == []
        # a replayed enqueue of a quarantined id stays a no-op
        assert not outbox.enqueue(first)


class TestDurability:
    def test_crash_between_effect_and_marker_redelivers(self, dfs,
                                                        clock):
        note = _notification()
        faults = ScriptedFaults(
            {f"t0:default:{note.id}#a1": FAULT_DROP_ACK})
        outbox, subs = _outbox(dfs, clock, faults=faults)
        outbox.enqueue(note)
        outbox.attempt(note.id)
        # the process dies; a fresh outbox resumes from the pending dir
        resumed = DeliveryOutbox(dfs, clock, subs, owner="outbox-2")
        assert resumed.pending() == [note.id]
        resumed.drain()
        assert resumed.delivered_ids() == [note.id]
        assert subs["t0:default"].effects == [note.id]

    def test_building_an_outbox_sweeps_crash_temps(self, dfs, clock):
        outbox, subs = _outbox(dfs, clock)
        note = _notification()
        outbox.enqueue(note)
        # a crash between a write's temp and its rename, lease and pending
        dfs.create("/serve/outbox/leases/.t0:default.json.tmp-41", b"torn")
        dfs.create("/serve/outbox/pending/.x.json.tmp-42", b"torn")
        resumed = DeliveryOutbox(dfs, clock, subs, owner="outbox-2")
        assert not [p for p in dfs.listdir("/serve/outbox")
                    if ".tmp-" in p]
        assert resumed.pending() == [note.id]
        resumed.drain()
        assert resumed.delivered_ids() == [note.id]

    def test_defer_is_not_a_failed_attempt(self, dfs, clock):
        outbox, _ = _outbox(dfs, clock)
        note = _notification()
        outbox.enqueue(note)
        outbox.defer(note.id, clock.now() + 30.0)
        assert outbox.due() == []
        assert outbox._load_pending(note.id)["attempts"] == 0
        assert outbox.stats.deferred_fair_share == 1
        clock.sleep(31.0)
        assert outbox.due() == [note.id]


class TestDeterminism:
    def test_backoff_is_seeded_and_capped(self, dfs, clock):
        outbox, _ = _outbox(dfs, clock, seed=7, retry_base_s=5.0,
                            retry_max_s=40.0)
        other, _ = _outbox(MiniDfs(num_datanodes=3), SimClock(), seed=7,
                           retry_base_s=5.0, retry_max_s=40.0)
        delays = [outbox.backoff_s("ntf-x", a) for a in range(1, 8)]
        assert delays == [other.backoff_s("ntf-x", a)
                          for a in range(1, 8)]
        assert all(d <= 40.0 for d in delays)
        assert delays[0] >= 5.0

    def _chaos_run(self, seed):
        dfs, clock = MiniDfs(num_datanodes=3), SimClock()
        subs = {"t0:default": Subscriber("t0:default", tenant="t0"),
                "t1:default": Subscriber("t1:default", tenant="t1")}
        outbox = DeliveryOutbox(
            dfs, clock, subs, seed=seed,
            faults=FaultSchedule.alert_chaos(1.0, seed=seed),
            max_delivery_attempts=6)
        for n in range(1, 9):
            sid = "t0:default" if n % 2 else "t1:default"
            outbox.enqueue(_notification(n, sid=sid,
                                         tenant=sid.split(":")[0]))
        outbox.drain()
        effects = {sid: list(s.effects) for sid, s in subs.items()}
        return outbox.log_json(), effects

    def test_same_seed_chaos_runs_are_byte_identical(self):
        log_a, effects_a = self._chaos_run(seed=3)
        log_b, effects_b = self._chaos_run(seed=3)
        assert log_a == log_b
        assert effects_a == effects_b
        log_c, _ = self._chaos_run(seed=4)
        assert log_c != log_a  # the seed actually steers the chaos
