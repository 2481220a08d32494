"""Keyed upsert datasets: exactly-once apply, crash windows, compaction."""

import pytest

from repro.dfs.filesystem import MiniDfs
from repro.dfs.upsert import UpsertDataset, record_key
from repro.util.errors import StorageError


@pytest.fixture()
def dfs():
    return MiniDfs(num_datanodes=3)


def _rows(*ids, **extra):
    return [dict({"id": i, "v": extra.get("v", 0)}, **{}) for i in ids]


class TestApply:
    def test_records_land_and_merge_by_key(self, dfs):
        ds = UpsertDataset(dfs, "/ds")
        ds.apply("u1", [{"id": 1, "v": 1}, {"id": 2, "v": 1}])
        ds.apply("u2", [{"id": 2, "v": 2}, {"id": 3, "v": 2}])
        assert ds.key_count() == 3
        by_id = {r["id"]: r["v"] for r in ds.read()}
        assert by_id == {1: 1, 2: 2, 3: 2}  # newest delta wins per key

    def test_reapplied_unit_is_a_noop(self, dfs):
        ds = UpsertDataset(dfs, "/ds")
        first = ds.apply("u1", [{"id": 1, "v": 1}])
        files_after = sorted(dfs.listdir("/ds"))
        again = ds.apply("u1", [{"id": 1, "v": 999}])
        assert first.applied and not again.applied
        assert again.delta_seq == first.delta_seq
        assert sorted(dfs.listdir("/ds")) == files_after
        assert ds.read() == [{"id": 1, "v": 1}]

    def test_composite_key(self, dfs):
        ds = UpsertDataset(dfs, "/edges", key=("a", "b"))
        ds.apply("u1", [{"a": 1, "b": 2}, {"a": 1, "b": 3}])
        ds.apply("u2", [{"a": 1, "b": 2}])  # same edge again
        assert ds.key_count() == 2

    def test_missing_key_field_rejected(self, dfs):
        ds = UpsertDataset(dfs, "/ds")
        with pytest.raises(StorageError):
            ds.apply("u1", [{"no_id": 1}])

    def test_empty_unit_still_remembered(self, dfs):
        ds = UpsertDataset(dfs, "/ds")
        assert ds.apply("u1", []).applied
        assert not ds.apply("u1", []).applied
        assert ds.key_count() == 0


class TestCrashWindows:
    def test_crash_between_delta_and_manifest_leaves_old_view(self, dfs):
        ds = UpsertDataset(dfs, "/ds")
        ds.apply("u1", [{"id": 1, "v": 1}])

        class Boom(RuntimeError):
            pass

        with pytest.raises(Boom):
            ds.apply("u2", [{"id": 2, "v": 2}],
                     on_delta_written=lambda: (_ for _ in ()).throw(Boom()))
        # the unreferenced delta exists but the view is unchanged
        assert ds.key_count() == 1
        assert "u2" not in ds.applied_units()
        orphans = ds.vacuum()
        assert len(orphans) == 1
        # the unit re-applies cleanly after the vacuum
        assert ds.apply("u2", [{"id": 2, "v": 2}]).applied
        assert ds.key_count() == 2

    def test_vacuum_sweeps_temps_of_crashed_writes(self, dfs):
        ds = UpsertDataset(dfs, "/ds")
        ds.apply("u1", [{"id": 1, "v": 1}])
        torn = ["/ds/.delta-000002.jsonl.tmp-8",
                "/ds/_log/.rec-00000002.json.tmp-9"]
        for path in torn:
            dfs.create(path, b"torn")
        assert sorted(ds.vacuum()) == sorted(torn)
        assert ds.live_files() == ["/ds/delta-000001.jsonl"]
        assert ds.apply("u2", [{"id": 2, "v": 2}]).applied
        assert ds.key_count() == 2

    def test_canonical_bytes_ignore_layout(self, dfs):
        one = UpsertDataset(dfs, "/one")
        two = UpsertDataset(dfs, "/two", records_per_part=1)
        one.apply("a", [{"id": 1, "v": 1}, {"id": 2, "v": 2}])
        two.apply("x", [{"id": 2, "v": 2}])
        two.apply("y", [{"id": 1, "v": 1}])
        two.compact()
        assert one.canonical_bytes() == two.canonical_bytes()


class TestCompaction:
    def test_compact_preserves_view_and_applied_units(self, dfs):
        ds = UpsertDataset(dfs, "/ds", records_per_part=2)
        ds.apply("u1", [{"id": i, "v": 1} for i in range(5)])
        ds.apply("u2", [{"id": 2, "v": 2}])
        before = ds.canonical_bytes()
        stats = ds.compact()
        assert stats.deltas_folded == 2
        assert stats.records_after == 5
        assert ds.canonical_bytes() == before
        # exactly-once survives compaction: a late redelivery of u2
        # must still be recognized
        assert not ds.apply("u2", [{"id": 2, "v": 99}]).applied
        assert ds.read()[2]["v"] == 2

    def test_watermark_does_not_rewind_on_compact(self, dfs):
        ds = UpsertDataset(dfs, "/ds")
        ds.apply("u1", [{"id": 1}])
        ds.apply("u2", [{"id": 2}])
        high = ds.max_delta_seq()
        ds.compact()
        assert ds.max_delta_seq() == high
        assert ds.delta_files_since(0) == []  # folded into base
        ds.apply("u3", [{"id": 3}])
        assert [seq for seq, _ in ds.delta_files_since(high)] == [high + 1]

    def test_duplicate_key_groups_counts_cross_file_dupes(self, dfs):
        ds = UpsertDataset(dfs, "/ds")
        ds.apply("u1", [{"id": 1, "v": 1}])
        ds.apply("u2", [{"id": 1, "v": 2}])
        assert ds.duplicate_key_groups() == 1
        ds.compact()
        assert ds.duplicate_key_groups() == 0

    def test_key_mismatch_rejected(self, dfs):
        UpsertDataset(dfs, "/ds", key="id").apply("u", [{"id": 1}])
        with pytest.raises(StorageError):
            UpsertDataset(dfs, "/ds", key="other").read()


class TestCompactionReaderRace:
    """Compaction must not yank files out from under a live reader."""

    def _seeded(self, dfs):
        ds = UpsertDataset(dfs, "/ds", records_per_part=2)
        ds.apply("u1", [{"id": i, "v": 1} for i in range(5)])
        ds.apply("u2", [{"id": 2, "v": 2}, {"id": 7, "v": 2}])
        return ds

    def test_pre_compaction_manifest_stays_readable(self, dfs):
        ds = self._seeded(dfs)
        # a reader lists the live files, then a compaction races past it
        snapshot = ds.live_files()
        view_before = ds._merged(snapshot)
        stats = ds.compact()
        assert stats.files_retired > 0
        # every file the snapshot references is still on disk...
        for path in snapshot:
            assert dfs.exists(path)
        # ...and re-reading through the stale listing yields the
        # identical pre-compaction view (snapshot isolation)
        assert ds._merged(snapshot) == view_before

    def test_vacuum_reclaims_retired_generation_only(self, dfs):
        ds = self._seeded(dfs)
        old_files = set(ds.live_files())
        before = ds.canonical_bytes()
        ds.compact()
        reclaimed = set(ds.vacuum())
        # vacuum sweeps exactly the retired generation, nothing live
        assert reclaimed == old_files
        for path in ds.live_files():
            assert dfs.exists(path)
        assert ds.canonical_bytes() == before
        assert ds.vacuum() == []  # idempotent: nothing left to reclaim

    def test_vacuum_never_collects_latest_manifest_parts(self, dfs):
        ds = self._seeded(dfs)
        ds.compact()
        ds.apply("u3", [{"id": 9, "v": 3}])  # a post-compaction delta
        live = set(ds.live_files())
        reclaimed = set(ds.vacuum())
        assert reclaimed.isdisjoint(live)
        for path in live:
            assert dfs.exists(path)


# ------------------------------------------------------------- key index
hypothesis = pytest.importorskip("hypothesis")
from hypothesis import given, settings, strategies as st  # noqa: E402


def _record_reads(dfs, monkeypatch, fail_on=None):
    """Log every path ``MiniDfs.read`` serves (``read_text`` goes
    through it); a read of ``fail_on`` raises ``StorageError``."""
    paths = []
    real_read = dfs.read

    def read(path):
        if path == fail_on:
            raise StorageError(f"injected read fault: {path}")
        paths.append(path)
        return real_read(path)

    monkeypatch.setattr(dfs, "read", read)
    return paths


def _brute_new_keys(ds, records):
    return len({record_key(r, ds.key_fields) for r in records}
               - set(ds._merged()))


_key_pairs = st.lists(st.tuples(st.integers(0, 6), st.integers(0, 2)),
                      max_size=5)
_ops = st.lists(
    st.tuples(st.sampled_from(["apply", "apply", "apply", "empty",
                               "compact", "vacuum"]),
              st.integers(0, 1),      # which of two handles acts
              st.integers(0, 7),      # unit number: repeats re-apply
              _key_pairs),
    max_size=14)


class TestKeyIndex:
    """The incremental key index answers exactly what a full replay
    would, and reads only what the manifest says it has not seen."""

    @given(ops=_ops, composite=st.booleans(), strings=st.booleans())
    @settings(max_examples=60, deadline=None)
    def test_matches_full_replay_over_any_op_sequence(
            self, ops, composite, strings):
        dfs = MiniDfs(num_datanodes=3)
        key = ("a", "b") if composite else "a"
        handles = [UpsertDataset(dfs, "/ds", key=key, records_per_part=3)
                   for _ in range(2)]
        value = (lambda n: f"k{n}") if strings else (lambda n: n)
        for step, (op, who, unit, pairs) in enumerate(ops):
            ds = handles[who]
            if op == "compact":
                ds.compact()
            elif op == "vacuum":
                ds.vacuum()
            else:
                records = [] if op == "empty" else [
                    {"a": value(a), "b": value(b), "v": step}
                    for a, b in pairs]
                fresh = f"u{unit}" not in ds.applied_units()
                expected = _brute_new_keys(ds, records) if fresh else 0
                result = ds.apply(f"u{unit}", records)
                assert result.applied == fresh
                assert result.new_keys == expected
            for handle in handles:
                assert handle.key_count() == len(handle._merged())

    def test_second_handle_sees_foreign_writes_and_compaction(self, dfs):
        a = UpsertDataset(dfs, "/ds")
        b = UpsertDataset(dfs, "/ds")
        a.apply("u1", [{"id": 1}, {"id": 2}])
        assert b.key_count() == 2
        a.apply("u2", [{"id": 3}])
        # b's index is one delta behind; its apply must count against
        # the manifest's view, not its own
        assert b.apply("u3", [{"id": 3}, {"id": 4}]).new_keys == 1
        assert a.key_count() == b.key_count() == 4
        a.compact()
        a.vacuum()  # the files b's index was built from are gone
        a.apply("u4", [{"id": 5}])
        assert b.key_count() == 5
        assert b.apply("u5", [{"id": 5}, {"id": 6}]).new_keys == 1

    def test_mid_land_crash_leaves_index_at_old_manifest(self, dfs):
        ds = UpsertDataset(dfs, "/ds")
        ds.apply("u1", [{"id": 1}])

        def boom():
            raise RuntimeError("mid-land")

        with pytest.raises(RuntimeError):
            ds.apply("u2", [{"id": 1}, {"id": 2}, {"id": 3}],
                     on_delta_written=boom)
        assert ds.key_count() == 1
        assert len(ds.vacuum()) == 1
        retried = ds.apply("u2", [{"id": 1}, {"id": 2}, {"id": 3}])
        assert retried.applied and retried.new_keys == 2
        assert ds.key_count() == 3

    def test_failed_fold_propagates_and_next_call_is_exact(
            self, dfs, monkeypatch):
        writer = UpsertDataset(dfs, "/ds")
        reader = UpsertDataset(dfs, "/ds")
        writer.apply("u0", [{"id": 0}])
        assert reader.key_count() == 1
        for n in (1, 2, 3):
            writer.apply(f"u{n}", [{"id": n}])
        deltas = [path for _, path in writer.delta_files_since(1)]
        with monkeypatch.context() as patch:
            _record_reads(dfs, patch, fail_on=deltas[1])
            with pytest.raises(StorageError):
                reader.key_count()
        paths = _record_reads(dfs, monkeypatch)
        assert reader.key_count() == 4
        # the log records and the delta folded before the fault are not
        # read again: only the failed delta and the one after it
        assert paths == deltas[1:]

    def test_read_count_gate(self, dfs, monkeypatch):
        warm = UpsertDataset(dfs, "/ds")
        for n in range(50):
            warm.apply(f"u{n}", [{"id": n}, {"id": n + 1}])
        paths = _record_reads(dfs, monkeypatch)

        # the writing handle reads nothing back: not its log, not the
        # 50-delta chain, not the delta it just wrote
        assert warm.apply("u50", [{"id": 50}, {"id": 99}]).new_keys == 1
        assert warm.key_count() == 52
        assert warm.max_delta_seq() == 51 and len(warm.live_files()) == 51
        assert paths == []

        cold = UpsertDataset(dfs, "/ds")
        live = cold.live_files()
        log = [cold._log.checkpoint_path] + [
            cold._log.path(seq) for seq in range(1, 52)]
        assert paths == log   # a fresh handle replays the log once
        del paths[:]
        assert cold.key_count() == 52
        assert sorted(paths) == sorted(live)

        warm.apply("u51", [{"id": 100}])
        foreign = warm.delta_files_since(51)[0][1]
        del paths[:]
        assert cold.key_count() == 53  # one foreign delta: two files read
        assert paths == [cold._log.path(52), foreign]

    def test_unit_records_and_compact_read_once(self, dfs, monkeypatch):
        ds = UpsertDataset(dfs, "/ds", records_per_part=2)
        ds.apply("u1", [{"id": 1, "v": 1}, {"id": 2, "v": 1}])
        ds.apply("u2", [{"id": 2, "v": 2}])
        live = ds.live_files()
        paths = _record_reads(dfs, monkeypatch)
        assert ds.unit_records("u2") == [{"id": 2, "v": 2}]
        assert paths == [live[1]]
        assert ds.unit_records("never-applied") == []
        del paths[:]
        stats = ds.compact()
        assert (stats.deltas_folded, stats.records_before,
                stats.records_after, stats.files_retired) == (2, 3, 2, 2)
        assert sorted(paths) == sorted(live)
        assert ds.unit_records("u2") == []  # folded into the base
