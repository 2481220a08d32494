"""Cross-job partition caching: CacheManager + persist() + the pipeline.

Three layers, bottom up: the :class:`CacheManager` store itself (LRU
budget, DFS spill, write-through storage, pinning), ``persist()``
semantics through real jobs (compute-once, storage levels, eviction →
recompute), and the acceptance criterion from the PR issue — a
pipelined crawl → graph → analysis run scans each shared crawl dataset
exactly once, with every later read served from the cache.
"""

import inspect
import pickle
import zlib

import pytest

from repro.core.platform import ExploratoryPlatform
from repro.dfs.filesystem import MiniDfs
from repro.dfs.jsonlines import decode_lines, write_json_dataset
from repro.engine.cache import CacheManager
from repro.engine.checkpoint import CheckpointManager
from repro.engine.context import SparkLiteContext
from repro.engine.metrics import STAGE_CACHED, STAGE_TASK
from repro.engine.planner import DEFAULT_SAMPLE_ROWS
from repro.engine.shuffle import stride_sample
from repro.util.errors import EngineError


PARTS = [[1, 2, 3], [4, 5], []]

#: row shapes a persisted partition must survive verbatim — compared by
#: ``repr``, so ``True`` may not come back as ``1``, ``1`` as ``1.0`` or
#: ``-0.0`` as ``0.0``
ROW_SHAPES = {
    "empty": [],
    "ints": [1, -2, 3, 0, 2 ** 62],
    "floats": [0.5, -1.25, 3e300, float("inf")],
    "negative_zero": [-0.0, 0.0, (-0.0, 1)],
    "bools": [True, False, True],
    "strings": ["", "abc", "γράφω", "x" * 257],
    "surrogates": ["ok", "\udc80\udcfe"],  # undecodable utf-8 leftovers
    "bytes": [b"", b"\x00\xff", b"blob" * 40],
    "none_mixed": [1, None, 3, None],
    "bool_vs_int": [True, 1, False, 0],
    "int_vs_float": [1, 1.0, 2],
    "big_ints": [1 << 70, -(1 << 70), 5],
    "kv_pairs": [(k % 3, "v" * k) for k in range(20)],
    "kv_none": [(1, None), (None, 2), (None, None)],
    "wide_tuples": [(i, float(i), str(i), i % 2 == 0, None)
                    for i in range(10)],
    "ragged_tuples": [(1,), (1, 2), (1, 2, 3)],
    "dict_records": [{"id": i, "name": f"n{i}", "ok": i % 2 == 0,
                      "score": i / 3.0 if i % 3 else None}
                     for i in range(12)],
    "mixed_rows": [1, "two", (3, 4), {"five": 5}, None, [6]],
    "nested": [([1, 2], {"a": 1}), ((3, (4, (5,))), {"b": 2})],
}


class TestPersistedRoundTrip:
    """A cache spill and a checkpoint each bring every row shape back
    from the DFS exactly as it went in."""

    @pytest.mark.parametrize("shape", sorted(ROW_SHAPES))
    def test_spill_roundtrip(self, shape):
        rows = ROW_SHAPES[shape]
        manager = CacheManager(dfs=MiniDfs(num_datanodes=2))
        manager.put(1, [rows, list(reversed(rows))], storage="dfs")
        assert manager.stats()["bytes_in_memory"] == 0   # really spilled
        assert repr(manager.get(1)) == repr([rows, list(reversed(rows))])

    @pytest.mark.parametrize("shape", sorted(ROW_SHAPES))
    def test_checkpoint_roundtrip(self, shape):
        rows = ROW_SHAPES[shape]
        dfs = MiniDfs(num_datanodes=2)
        CheckpointManager(dfs).put(1, [rows])
        assert repr(CheckpointManager(dfs).get(1)) == repr([rows])


# ----------------------------------------------------------- CacheManager
class TestCacheManager:
    def test_put_get_roundtrip(self):
        manager = CacheManager()
        manager.put(7, PARTS)
        assert manager.get(7) == PARTS
        assert 7 in manager
        assert manager.stats()["hits"] == 1

    def test_unknown_id_is_a_miss(self):
        manager = CacheManager()
        assert manager.get(99) is None
        assert manager.stats()["misses"] == 1

    def test_budget_evicts_coldest_without_dfs(self):
        manager = CacheManager(budget_bytes=1)
        manager.put(1, PARTS)
        assert manager.get(1) is None  # over budget, dropped immediately
        assert manager.evictions == 1 and manager.spills == 0

    def test_lru_touch_protects_hot_entries(self):
        probe = CacheManager()
        probe.put(0, PARTS)
        one_entry = probe.bytes_in_memory
        assert one_entry > 0
        manager = CacheManager(budget_bytes=2 * one_entry)
        manager.put(1, PARTS)
        manager.put(2, PARTS)
        manager.get(1)              # touch: 1 becomes hottest
        manager.put(3, PARTS)       # over budget → evict 2, not 1
        assert manager.get(1) == PARTS
        assert 2 not in manager
        assert manager.get(3) == PARTS

    def test_budget_spills_to_dfs_and_reloads(self):
        dfs = MiniDfs(num_datanodes=2)
        manager = CacheManager(budget_bytes=1, dfs=dfs)
        manager.put(5, PARTS)
        assert manager.spills == 1
        assert manager.bytes_in_memory == 0
        assert 5 in manager
        assert dfs.glob_parts("/engine/cache/rdd-5")
        assert manager.get(5) == PARTS  # reloaded from the spill
        assert manager.stats()["hits"] == 1

    def test_dfs_storage_writes_through(self):
        dfs = MiniDfs(num_datanodes=2)
        manager = CacheManager(dfs=dfs)
        manager.put(3, PARTS, storage="dfs")
        assert manager.bytes_in_memory == 0
        assert len(dfs.glob_parts("/engine/cache/rdd-3")) == len(PARTS)
        assert manager.get(3) == PARTS

    def test_unpersist_removes_spilled_parts(self):
        dfs = MiniDfs(num_datanodes=2)
        manager = CacheManager(dfs=dfs)
        manager.put(3, PARTS, storage="dfs")
        manager.unpersist(3)
        assert 3 not in manager
        assert dfs.glob_parts("/engine/cache/rdd-3") == []
        assert manager.get(3) is None

    def test_lost_spill_becomes_a_miss(self):
        dfs = MiniDfs(num_datanodes=2)
        manager = CacheManager(dfs=dfs)
        manager.put(3, PARTS, storage="dfs")
        for path in dfs.glob_parts("/engine/cache/rdd-3"):
            dfs.delete(path)
        assert manager.get(3) is None  # recompute from lineage instead
        assert 3 not in manager
        assert manager.stats()["spill_read_failures"] == 1

    @pytest.mark.parametrize("damage", [
        lambda blob: blob[:len(blob) // 2],             # truncated stream
        lambda blob: b"not zlib at all",
        lambda blob: zlib.compress(b"B" + b"\x00" * 40),  # bad batch
        lambda blob: zlib.compress(b"P" + b"\x80\x05garbage"),  # bad pickle
        None,                       # every replica fails its checksum
    ])
    def test_corrupt_spill_is_recomputed_and_counted(self, damage):
        dfs = MiniDfs(num_datanodes=2)
        with SparkLiteContext(parallelism=2, backend="serial",
                              cache_dfs=dfs) as sc:
            rdd = sc.parallelize(range(12), 3).map(lambda x: x * 10) \
                .persist(storage="dfs")
            assert rdd.collect() == [x * 10 for x in range(12)]
            path = dfs.glob_parts(f"/engine/cache/rdd-{rdd.rdd_id}")[1]
            if damage is None:
                for node_id in dfs.stat(path).blocks[0].locations:
                    dfs.corrupt_block(path, 0, node_id)
            else:
                blob = damage(dfs.read(path))
                dfs.delete(path)
                dfs.write_atomic(path, blob)
            assert rdd.collect() == [x * 10 for x in range(12)]
            assert sc.cache_manager.stats()["spill_read_failures"] == 1

    def test_a_decoder_bug_propagates(self, monkeypatch):
        from repro.engine import columnar
        dfs = MiniDfs(num_datanodes=2)
        manager = CacheManager(dfs=dfs)
        manager.put(3, PARTS, storage="dfs")

        def broken(blob):
            raise TypeError("decoder bug")
        monkeypatch.setattr(columnar, "decode_rows", broken)
        with pytest.raises(TypeError, match="decoder bug"):
            manager.get(3)
        assert manager.stats()["spill_read_failures"] == 0

    def test_unpersist_tolerates_a_part_already_gone(self, monkeypatch):
        dfs = MiniDfs(num_datanodes=2)
        manager = CacheManager(dfs=dfs)
        manager.put(3, PARTS, storage="dfs")
        listed = dfs.listdir("/engine/cache/rdd-3")
        dfs.delete(listed[0])       # gone between listing and deleting
        monkeypatch.setattr(dfs, "listdir", lambda prefix: listed)
        manager.unpersist(3)
        assert not any(dfs.exists(path) for path in listed)

    def test_unpicklable_entries_are_pinned(self):
        parts = [[(x for x in range(3))]]  # generators do not pickle
        manager = CacheManager(budget_bytes=0)
        manager.put(9, parts)
        assert manager.get(9) is parts  # never evicted, same object
        assert manager.evictions == 0

    def test_put_pickles_only_the_sample(self, monkeypatch):
        """Sizing an entry must not serialize it: at most
        ``DEFAULT_SAMPLE_ROWS`` rows of each partition reach pickle."""
        parts = [[(i, "row") for i in range(50_000)] for _ in range(4)]
        pickled_rows = []
        real_dumps = pickle.dumps

        def counting_dumps(obj, *args, **kwargs):
            pickled_rows.append(sum(len(item) if isinstance(item, list)
                                    else 1 for item in obj))
            return real_dumps(obj, *args, **kwargs)
        monkeypatch.setattr(pickle, "dumps", counting_dumps)
        manager = CacheManager()
        manager.put(1, parts)
        assert len(pickled_rows) == len(parts)
        assert max(pickled_rows) <= DEFAULT_SAMPLE_ROWS
        assert manager.get(1) is parts

    def _rows_with_unsampled_generator(self):
        rows = list(range(100))
        rows[5] = (x for x in range(3))  # the stride sample skips index 5
        assert not any(inspect.isgenerator(r)
                       for r in stride_sample(rows, DEFAULT_SAMPLE_ROWS))
        return [rows]

    def test_unpicklable_row_outside_the_sample_pins_at_spill(self):
        parts = self._rows_with_unsampled_generator()
        dfs = MiniDfs(num_datanodes=2)
        manager = CacheManager(budget_bytes=0, dfs=dfs)
        manager.put(9, parts)       # sized from the sample: looks fine
        assert manager.get(9) is parts  # spill failed → pinned, not lost
        assert (manager.evictions, manager.spills) == (0, 0)
        assert manager.spill_failures == 1
        assert manager.bytes_in_memory == 0
        manager.put(10, PARTS)      # later pressure never retries the pin
        assert manager.spill_failures == 1
        assert manager.get(9) is parts

    def test_unpicklable_row_outside_the_sample_dfs_storage(self):
        parts = self._rows_with_unsampled_generator()
        manager = CacheManager(dfs=MiniDfs(num_datanodes=2))
        manager.put(9, parts, storage="dfs")
        assert manager.get(9) is parts  # write-through failed → pinned
        assert manager.spill_failures == 1

    def test_clear_empties_the_store(self):
        dfs = MiniDfs(num_datanodes=2)
        manager = CacheManager(dfs=dfs)
        manager.put(1, PARTS)
        manager.put(2, PARTS, storage="dfs")
        manager.clear()
        assert manager.stats()["entries"] == 0
        assert dfs.glob_parts("/engine/cache/rdd-2") == []


# ----------------------------------------------------- persist() semantics
class TestPersistThroughJobs:
    def _counting_rdd(self, sc, calls):
        def spy(x):
            calls.append(x)
            return x * 10
        return sc.parallelize(range(12), 3).map(spy)

    def test_persisted_lineage_computes_once(self):
        calls = []
        with SparkLiteContext(parallelism=2, backend="serial") as sc:
            rdd = self._counting_rdd(sc, calls).persist()
            first = rdd.collect()
            assert len(calls) == 12
            second = rdd.collect()
            assert second == first
            assert len(calls) == 12  # no recompute
            kinds = [s.kind for s in sc.last_job_metrics.stages]
            assert kinds == [STAGE_CACHED]

    def test_derived_job_reads_the_cache(self):
        calls = []
        with SparkLiteContext(parallelism=2, backend="serial") as sc:
            rdd = self._counting_rdd(sc, calls).persist()
            rdd.count()
            assert rdd.map(lambda x: x + 1).sum() == sum(
                x * 10 + 1 for x in range(12))
            assert len(calls) == 12

    def test_zero_budget_without_dfs_recomputes_correctly(self):
        calls = []
        with SparkLiteContext(parallelism=2, backend="serial",
                              cache_budget=0) as sc:
            rdd = self._counting_rdd(sc, calls).persist()
            assert rdd.collect() == rdd.collect()
            assert len(calls) == 24  # evicted between jobs → recomputed

    def test_zero_budget_with_dfs_serves_from_spill(self):
        calls = []
        dfs = MiniDfs(num_datanodes=2)
        with SparkLiteContext(parallelism=2, backend="serial",
                              cache_budget=0, cache_dfs=dfs) as sc:
            rdd = self._counting_rdd(sc, calls).persist()
            first = rdd.collect()
            assert sc.cache_manager.spills == 1
            assert rdd.collect() == first
            assert len(calls) == 12  # spill served, no recompute

    def test_dfs_storage_level(self):
        calls = []
        dfs = MiniDfs(num_datanodes=2)
        with SparkLiteContext(parallelism=2, backend="serial",
                              cache_dfs=dfs) as sc:
            rdd = self._counting_rdd(sc, calls).persist(storage="dfs")
            rdd.collect()
            assert dfs.glob_parts(f"/engine/cache/rdd-{rdd.rdd_id}")
            assert rdd.collect() == [x * 10 for x in range(12)]
            assert len(calls) == 12

    def test_unpersist_forces_recompute(self):
        calls = []
        with SparkLiteContext(parallelism=2, backend="serial") as sc:
            rdd = self._counting_rdd(sc, calls).persist()
            rdd.collect()
            rdd.unpersist()
            rdd.collect()
            assert len(calls) == 24

    def test_invalid_storage_level_rejected(self):
        with SparkLiteContext(parallelism=2, backend="serial") as sc:
            with pytest.raises(EngineError):
                sc.parallelize([1], 1).persist(storage="tape")

    def test_json_dataset_node_is_memoized(self):
        dfs = MiniDfs(num_datanodes=2)
        write_json_dataset(dfs, "/data/things",
                           [{"i": i} for i in range(20)], partitions=4)
        with SparkLiteContext(parallelism=2, backend="serial") as sc:
            first = sc.json_dataset(dfs, "/data/things")
            assert sc.json_dataset(dfs, "/data/things") is first

    def test_persisted_dataset_scanned_once_across_jobs(self):
        dfs = MiniDfs(num_datanodes=2)
        write_json_dataset(dfs, "/data/things",
                           [{"i": i} for i in range(20)], partitions=4)
        with SparkLiteContext(parallelism=2, backend="serial") as sc:
            sc.json_dataset(dfs, "/data/things").persist()
            total = sc.json_dataset(dfs, "/data/things") \
                .map(lambda r: r["i"]).sum()
            count = sc.json_dataset(dfs, "/data/things").count()
            assert (total, count) == (sum(range(20)), 20)
            scans = _scan_counts(sc.metrics_trace, "json:/data/things")
            assert scans == {STAGE_TASK: 1, STAGE_CACHED: 1}


def _scan_counts(trace, stage_name):
    """How often a named stage was materialized vs served from cache."""
    counts = {}
    for job in trace.jobs():
        for stage in job.stages:
            if stage.name == stage_name:
                counts[stage.kind] = counts.get(stage.kind, 0) + 1
    return counts


# ------------------------------------------------- pipeline scan-once proof
@pytest.fixture(scope="module")
def pipelined_platform(tiny_world):
    """A fresh platform run through crawl → graph → two analyses, with a
    clean metrics trace (the session ``crawled_platform`` is shared and
    may have run arbitrary jobs already)."""
    platform = ExploratoryPlatform(tiny_world)
    platform.run_full_crawl()
    platform.investor_graph()
    platform.run_plugin("engagement_table")
    platform.run_plugin("success_prediction")
    yield platform
    platform.close()


class TestPipelineScansDatasetsOnce:
    def test_each_dataset_materialized_at_most_once(self, pipelined_platform):
        trace = pipelined_platform.sc.metrics_trace
        for directory in ExploratoryPlatform.CRAWL_DATASET_DIRS:
            scans = _scan_counts(trace, f"json:{directory}")
            assert scans.get(STAGE_TASK, 0) <= 1, \
                f"{directory} scanned {scans} times"

    def test_shared_datasets_rescans_hit_the_cache(self, pipelined_platform):
        """The engagement and prediction analyses both read these four
        directories; the second (and any later) read must be a cache
        stage, never a rescan of the part files."""
        trace = pipelined_platform.sc.metrics_trace
        for directory in ("/crawl/angellist/startups",
                          "/crawl/crunchbase/organizations",
                          "/crawl/facebook/pages",
                          "/crawl/twitter/profiles"):
            scans = _scan_counts(trace, f"json:{directory}")
            assert scans.get(STAGE_TASK, 0) == 1, \
                f"{directory}: {scans}"
            assert scans.get(STAGE_CACHED, 0) >= 1, \
                f"{directory} never served from cache: {scans}"

    def test_cache_manager_saw_traffic(self, pipelined_platform):
        stats = pipelined_platform.sc.cache_manager.stats()
        assert stats["entries"] > 0
        assert stats["hits"] > 0


# ------------------------------------------------------ sampled accounting
@pytest.mark.parametrize("directory", ["/crawl/angellist/startups",
                                       "/crawl/angellist/users",
                                       "/crawl/angellist/follow_edges"])
def test_sampled_size_tracks_exact_pickled_size(crawled_platform, directory):
    """The budget's unit is *estimated* pickled bytes; on real landed
    records the stride sample must stay within 10 % of the exact size."""
    dfs = crawled_platform.dfs
    parts = [decode_lines(dfs.read_text(path))
             for path in dfs.glob_parts(directory)]
    exact = len(pickle.dumps(parts, protocol=pickle.HIGHEST_PROTOCOL))
    manager = CacheManager()
    manager.put(1, parts)
    assert manager.bytes_in_memory == pytest.approx(exact, rel=0.10)
