"""The durable kernel: EventLog and LeaseTable, and the upsert layout on it.

Two differentials hold the caching honest. An upsert dataset driven
through any mix of apply, re-apply, empty apply, compaction, vacuum,
writes from a second handle and a mid-land crash answers, after every
step, exactly what a fresh handle replaying the log answers — and what
the ``MANIFEST.json`` layout it replaced answered (a plain-data model of
it below). A lease handle that keeps what it last read or wrote agrees,
after every step, with handles that re-read every lease from storage.
"""

import pytest

from repro.crawl.ledger import IngestLedger
from repro.dfs.filesystem import MiniDfs
from repro.dfs.upsert import UpsertDataset, record_key
from repro.durable import EventLog, LeaseTable
from repro.util.clock import SimClock
from repro.util.errors import LeaseExpired, StorageError

hypothesis = pytest.importorskip("hypothesis")
from hypothesis import given, settings, strategies as st  # noqa: E402


@pytest.fixture()
def dfs():
    return MiniDfs(num_datanodes=3)


def _counted_reads(dfs, monkeypatch):
    paths = []
    real_read = dfs.read

    def read(path):
        paths.append(path)
        return real_read(path)
    monkeypatch.setattr(dfs, "read", read)
    return paths


class _Folded:
    """An EventLog owner whose state is the list of records folded."""

    def __init__(self, dfs, root="/log"):
        self.records = None
        self.resets = 0
        self.log = EventLog(dfs, root, reset=self._reset, fold=self._fold)

    def _reset(self, state):
        self.resets += 1
        self.records = list(state or [])

    def _fold(self, record):
        self.records.append(record["v"])


# ---------------------------------------------------------------- EventLog
class TestEventLog:
    def test_append_then_replay_in_sequence_order(self, dfs):
        writer = _Folded(dfs)
        writer.log.refresh()
        for v in "abc":
            writer.log.append({"v": v})
        assert writer.records == ["a", "b", "c"] and writer.log.seq == 3
        reader = _Folded(dfs)
        reader.log.refresh()
        assert reader.records == ["a", "b", "c"] and reader.log.seq == 3

    def test_a_prefix_handle_reads_only_the_new_records(self, dfs,
                                                        monkeypatch):
        writer, reader = _Folded(dfs), _Folded(dfs)
        writer.log.refresh()
        writer.log.append({"v": 1})
        reader.log.refresh()
        for v in (2, 3):
            writer.log.append({"v": v})
        paths = _counted_reads(dfs, monkeypatch)
        reader.log.refresh()
        assert paths == [reader.log.path(2), reader.log.path(3)]
        del paths[:]
        reader.log.refresh()     # level with the log: nothing to read
        writer.log.append({"v": 4})
        assert paths == []       # nor does the writer read back its own
        assert reader.resets == 1

    def test_a_second_writer_fails_loudly(self, dfs):
        first, second = _Folded(dfs), _Folded(dfs)
        first.log.refresh()
        second.log.refresh()
        first.log.append({"v": "mine"})
        with pytest.raises(StorageError):
            second.log.append({"v": "theirs"})
        assert second.records == [] and second.log.seq == 0
        assert not [p for p in dfs.listdir("/log") if ".tmp-" in p]
        second.log.refresh()
        assert second.records == ["mine"]

    def test_checkpoint_truncates_and_restarts_stale_handles(self, dfs):
        writer, stale = _Folded(dfs), _Folded(dfs)
        writer.log.refresh()
        stale.log.refresh()
        for v in (1, 2):
            writer.log.append({"v": v})
        stale.log.refresh()
        writer.log.append({"v": 3})
        writer.log.checkpoint([1, 2, 3])
        assert dfs.listdir("/log") == [writer.log.checkpoint_path]
        writer.log.append({"v": 4})
        # the record after the stale handle's position is gone and the
        # next one exists: only the checkpoint's generation tells it
        stale.log.refresh()
        assert stale.records == [1, 2, 3, 4] and stale.log.seq == 4
        fresh = _Folded(dfs)
        fresh.log.refresh()
        assert fresh.records == writer.records == stale.records

    def test_crash_between_checkpoint_and_truncation(self, dfs,
                                                     monkeypatch):
        writer = _Folded(dfs)
        writer.log.refresh()
        for v in (1, 2):
            writer.log.append({"v": v})

        def crash(path):
            raise RuntimeError("killed before truncating")
        monkeypatch.setattr(dfs, "delete", crash)
        with pytest.raises(RuntimeError):
            writer.log.checkpoint(["both"])
        monkeypatch.undo()
        reopened = _Folded(dfs)
        reopened.log.refresh()
        assert reopened.records == ["both"]   # stale records skipped
        reopened.log.append({"v": 3})
        reopened.log.checkpoint(["all"])      # ...and collected here
        assert dfs.listdir("/log") == [reopened.log.checkpoint_path]


# -------------------------------------------------------------- LeaseTable
def _tables(dfs, clock, n=2, ttl=10.0):
    return [LeaseTable(dfs, clock, "/leases", ttl) for _ in range(n)]


class TestLeaseTable:
    def test_the_owning_handle_reads_no_lease_files(self, dfs,
                                                    monkeypatch):
        clock = SimClock()
        table, = _tables(dfs, clock, n=1)
        paths = _counted_reads(dfs, monkeypatch)
        for unit in ("a", "b", "c"):
            lease = table.acquire(unit, "w1")
            for _ in range(3):
                clock.advance(1.0)
                lease = table.heartbeat(lease)
            assert table.holds(unit, "w1", lease.epoch)
        assert table.reclaim(set()) == [] and table.gc({"a"}) == 1
        assert table.release(lease)
        assert [l.unit for l in table.leases()] == ["b"]
        assert paths == []

    def test_a_foreign_takeover_is_seen_by_the_cached_handle(self, dfs):
        clock = SimClock()
        mine, theirs = _tables(dfs, clock)
        lease = mine.acquire("u", "w1")
        clock.advance(11.0)
        taken = theirs.acquire("u", "w2")
        assert taken.epoch == lease.epoch + 1
        with pytest.raises(LeaseExpired):
            mine.heartbeat(lease)
        assert not mine.release(lease)
        assert mine.lease_of("u") == taken

    def test_an_injected_expiry_is_seen_by_the_cached_handle(self, dfs):
        clock = SimClock()
        mine, chaos = _tables(dfs, clock)
        lease = mine.acquire("u", "w1")
        chaos.expire("u")
        assert mine.reclaim(set()) == ["u"]
        with pytest.raises(LeaseExpired):
            mine.heartbeat(lease)

    def test_a_stale_epoch_commit_is_fenced(self, dfs):
        clock = SimClock()
        ledger = IngestLedger(dfs, clock, root="/led",
                              lease_ttl_s=10.0).open()
        rival = LeaseTable(dfs, clock, "/led/leases", 10.0)
        ledger.begin("u")
        lease = ledger.leases.acquire("u", "w1")
        clock.advance(11.0)
        taken = rival.acquire("u", "w2")
        with pytest.raises(LeaseExpired):
            ledger.commit("u", owner="w1", epoch=lease.epoch)
        assert ledger.fenced_commits == 1
        ledger.commit("u", owner="w2", epoch=taken.epoch)


_UNITS = ("u0", "u1", "u2")
_OWNERS = ("w1", "w2")
_lease_ops = st.lists(st.one_of(
    st.tuples(st.sampled_from(["acquire", "heartbeat", "release",
                               "expire"]),
              st.integers(0, 1), st.sampled_from(_UNITS),
              st.sampled_from(_OWNERS)),
    st.tuples(st.just("advance"), st.sampled_from([1.0, 4.0, 11.0])),
    st.tuples(st.sampled_from(["reclaim", "gc"]), st.integers(0, 1),
              st.sets(st.sampled_from(_UNITS)))), max_size=30)


def _lease_step(table, held, op):
    """One op against ``table``; its outcome as comparable data."""
    kind = op[0]
    if kind == "acquire":
        _, _, unit, owner = op
        lease = table.acquire(unit, owner)
        if lease is not None:
            held[(unit, owner)] = lease
        return lease
    if kind in ("heartbeat", "release"):
        _, _, unit, owner = op
        lease = held.get((unit, owner))
        if lease is None:
            return "nothing held"
        if kind == "release":
            return table.release(lease)
        try:
            held[(unit, owner)] = table.heartbeat(lease)
        except LeaseExpired:
            return "lost"
        return held[(unit, owner)]
    if kind == "expire":
        return table.expire(op[2])
    return getattr(table, kind)(op[2])


class TestLeaseTableDifferential:
    @given(ops=_lease_ops)
    @settings(max_examples=80, deadline=None)
    def test_cached_handles_agree_with_rereading_ones(self, ops):
        clock = SimClock()
        cached_dfs, fresh_dfs = MiniDfs(num_datanodes=3), MiniDfs(
            num_datanodes=3)
        handles = _tables(cached_dfs, clock)
        cached_held, fresh_held = {}, {}
        for op in ops:
            if op[0] == "advance":
                clock.advance(op[1])
                continue
            got = _lease_step(handles[op[1]], cached_held, op)
            # a handle with nothing cached reads every lease from storage
            want = _lease_step(_tables(fresh_dfs, clock, n=1)[0],
                               fresh_held, op)
            assert got == want, op
            for handle in handles:
                for unit in _UNITS:
                    assert handle.lease_of(unit) == _tables(
                        fresh_dfs, clock, n=1)[0].lease_of(unit)


# ------------------------------------------- the upsert layout on the log
class _Manifest:
    """What the ``MANIFEST.json`` layout answered, as plain data."""

    def __init__(self, root, key, records_per_part):
        self.root = root
        self.key_fields = (key,) if isinstance(key, str) else tuple(key)
        self.records_per_part = records_per_part
        self.base = []      # one record list per base part
        self.deltas = []    # (seq, unit, records)
        self.applied = {}
        self.next_delta = 1

    def apply(self, unit, records):
        if unit in self.applied:
            return False
        self.deltas.append((self.next_delta, unit, list(records)))
        self.applied[unit] = self.next_delta
        self.next_delta += 1
        return True

    def view(self):
        merged = {}
        for records in self.base + [d[2] for d in self.deltas]:
            for record in records:
                merged[record_key(record, self.key_fields)] = record
        return merged

    def read(self):
        view = self.view()
        return [view[k] for k in sorted(view, key=repr)]

    def compact(self):
        records = self.read()
        size = self.records_per_part
        self.base = [records[i:i + size]
                     for i in range(0, max(1, len(records)), size)]
        self.deltas = []

    def delta_files(self):
        return [f"{self.root}/delta-{seq:06d}.jsonl"
                for seq, _, _ in self.deltas]


def _answers(ds):
    live = ds.live_files()
    return {"applied_units": ds.applied_units(),
            "max_delta_seq": ds.max_delta_seq(),
            "key_count": ds.key_count(), "read": ds.read(),
            "deltas": [p for p in live if "/delta-" in p],
            "base_parts": sum("/base-" in p for p in live)}


def _manifest_answers(model):
    return {"applied_units": dict(model.applied),
            "max_delta_seq": model.next_delta - 1,
            "key_count": len(model.view()), "read": model.read(),
            "deltas": model.delta_files(), "base_parts": len(model.base)}


class _Killed(RuntimeError):
    pass


def _kill():
    raise _Killed("mid-land")


_upsert_ops = st.lists(
    st.tuples(st.sampled_from(["apply", "apply", "apply", "empty",
                               "crash", "compact", "vacuum"]),
              st.integers(0, 1),      # which of two handles acts
              st.integers(0, 5),      # unit number: repeats re-apply
              st.lists(st.tuples(st.integers(0, 6), st.integers(0, 2)),
                       max_size=4)),
    max_size=16)


class TestUpsertLogDifferential:
    @given(ops=_upsert_ops, composite=st.booleans())
    @settings(max_examples=80, deadline=None)
    def test_handles_replay_and_the_old_manifest_agree(self, ops,
                                                       composite):
        dfs = MiniDfs(num_datanodes=3)
        key = ("a", "b") if composite else "a"
        handles = [UpsertDataset(dfs, "/ds", key=key, records_per_part=3)
                   for _ in range(2)]
        model = _Manifest("/ds", key, 3)
        for step, (op, who, unit, pairs) in enumerate(ops):
            ds = handles[who]
            records = [] if op == "empty" else [
                {"a": a, "b": b, "v": step} for a, b in pairs]
            if op == "compact":
                ds.compact()
                model.compact()
            elif op == "vacuum":
                ds.vacuum()
            elif op == "crash":
                if f"u{unit}" in model.applied:
                    continue   # a landed unit never reaches the crash point
                with pytest.raises(_Killed):
                    ds.apply(f"u{unit}", records, on_delta_written=_kill)
            else:
                result = ds.apply(f"u{unit}", records)
                assert result.applied == model.apply(f"u{unit}", records)
            fresh = UpsertDataset(dfs, "/ds", key=key, records_per_part=3)
            expected = _manifest_answers(model)
            for handle in handles + [fresh]:
                assert _answers(handle) == expected, (step, op)
            # the folded state itself, not just the answers from it
            assert handles[0]._layout == handles[1]._layout == \
                fresh._layout
