"""Write-ahead ingest ledger: records, recovery, leases, fencing."""

import pytest

from repro.crawl.ledger import (IngestLedger, STATE_COMMITTED, STATE_INTENT,
                                STATE_PENDING)
from repro.dfs.filesystem import MiniDfs
from repro.util.clock import SimClock
from repro.util.errors import IngestError, LeaseExpired


@pytest.fixture()
def dfs():
    return MiniDfs(num_datanodes=3)


@pytest.fixture()
def clock():
    return SimClock()


def _open(dfs, clock, **kw):
    return IngestLedger(dfs, clock, root="/led", **kw).open()


class TestRecords:
    def test_intent_then_commit_lifecycle(self, dfs, clock):
        ledger = _open(dfs, clock)
        assert ledger.state("u") == STATE_PENDING
        ledger.begin("u", {"input": 1})
        assert ledger.state("u") == STATE_INTENT
        assert ledger.pending_units() == ["u"]
        ledger.commit("u", {"result": 2})
        assert ledger.state("u") == STATE_COMMITTED
        assert ledger.pending_units() == []

    def test_begin_is_idempotent_and_pins_payload(self, dfs, clock):
        ledger = _open(dfs, clock)
        first = ledger.begin("u", {"slice": [1, 2]})
        again = ledger.begin("u", {"slice": [9, 9]})  # redelivery
        assert again.seq == first.seq
        assert again.payload == {"slice": [1, 2]}

    def test_commit_is_idempotent(self, dfs, clock):
        ledger = _open(dfs, clock)
        ledger.begin("u")
        first = ledger.commit("u", {"n": 1})
        assert ledger.commit("u", {"n": 2}).seq == first.seq

    def test_commit_without_intent_rejected(self, dfs, clock):
        with pytest.raises(IngestError):
            _open(dfs, clock).commit("ghost")

    def test_begin_after_commit_rejected(self, dfs, clock):
        ledger = _open(dfs, clock)
        ledger.begin("u")
        ledger.commit("u")
        with pytest.raises(IngestError):
            ledger.begin("u")

    def test_recovery_replays_sequence_order(self, dfs, clock):
        ledger = _open(dfs, clock)
        ledger.begin("a", {"i": 1})
        ledger.begin("b", {"i": 2})
        ledger.commit("a", {"r": 1})
        reopened = _open(dfs, clock)
        assert [r.seq for r in reopened.records()] == [1, 2, 3]
        assert reopened.pending_units() == ["b"]
        assert reopened.intent_of("b").payload == {"i": 2}
        assert reopened.max_seq == 3
        # new appends continue the sequence, never reuse it
        assert reopened.begin("c").seq == 4

    def test_open_sweeps_orphan_temps(self, dfs, clock):
        dfs.create("/led/records/.rec-1.json.tmp-7", b"torn")
        ledger = _open(dfs, clock)
        assert ledger.swept_temps == 1
        assert not dfs.exists("/led/records/.rec-1.json.tmp-7")


class TestLeases:
    def test_acquire_heartbeat_release(self, dfs, clock):
        ledger = _open(dfs, clock, lease_ttl_s=100.0)
        lease = ledger.leases.acquire("u", "w1")
        assert lease.epoch == 1
        clock.advance(50)
        renewed = ledger.leases.heartbeat(lease)
        assert renewed.expires_at == clock.now() + 100.0
        assert ledger.leases.release(renewed)
        assert ledger.leases.lease_of("u") is None

    def test_live_lease_blocks_other_owner(self, dfs, clock):
        ledger = _open(dfs, clock, lease_ttl_s=100.0)
        ledger.leases.acquire("u", "w1")
        assert ledger.leases.acquire("u", "w2") is None

    def test_takeover_of_expired_lease_bumps_epoch(self, dfs, clock):
        ledger = _open(dfs, clock, lease_ttl_s=10.0)
        stale = ledger.leases.acquire("u", "w1")
        clock.advance(11)
        taken = ledger.leases.acquire("u", "w2")
        assert taken.epoch == stale.epoch + 1
        # the dead owner can neither heartbeat nor commit
        with pytest.raises(LeaseExpired):
            ledger.leases.heartbeat(stale)
        ledger.begin("u")
        with pytest.raises(LeaseExpired):
            ledger.commit("u", owner="w1", epoch=stale.epoch)
        assert ledger.fenced_commits == 1
        # the new owner commits fine
        ledger.commit("u", owner="w2", epoch=taken.epoch)

    def test_reclaim_keeps_lease_file_as_epoch_floor(self, dfs, clock):
        ledger = _open(dfs, clock, lease_ttl_s=10.0)
        ledger.begin("u")
        ledger.leases.acquire("u", "w1")
        clock.advance(11)
        assert ledger.reclaim_expired() == ["u"]
        # the file survives: a fresh acquire must see epoch 2, not 1
        assert ledger.leases.lease_of("u") is not None
        assert ledger.leases.acquire("u", "w2").epoch == 2

    def test_gc_drops_only_committed_units_leases(self, dfs, clock):
        ledger = _open(dfs, clock, lease_ttl_s=10.0)
        ledger.begin("done")
        ledger.leases.acquire("done", "w1")
        ledger.commit("done")  # crash before release would leave the file
        ledger.begin("pending")
        ledger.leases.acquire("pending", "w1")
        assert ledger.gc_leases() == 1
        assert ledger.leases.lease_of("done") is None
        assert ledger.leases.lease_of("pending") is not None

    def test_fenced_commit_with_expired_own_lease(self, dfs, clock):
        ledger = _open(dfs, clock, lease_ttl_s=10.0)
        ledger.begin("u")
        lease = ledger.leases.acquire("u", "w1")
        clock.advance(11)
        with pytest.raises(LeaseExpired):
            ledger.commit("u", owner="w1", epoch=lease.epoch)

    def test_release_of_reclaimed_lease_is_noop(self, dfs, clock):
        ledger = _open(dfs, clock, lease_ttl_s=10.0)
        old = ledger.leases.acquire("u", "w1")
        clock.advance(11)
        new = ledger.leases.acquire("u", "w2")
        assert not ledger.leases.release(old)  # not ours any more
        assert ledger.leases.lease_of("u").epoch == new.epoch
