"""Unit tests for the columnar core: RecordBatch and BatchBlock.

The differential batteries (``test_engine_backends``,
``test_engine_properties``) prove the columnar engine is invisible in
job results; these tests pin the primitives — pack/unpack round-trips
over every physical column type, slicing/concat, the tagged spill
codec, and the shared-memory block lifecycle (create → attach →
unlink, including cleanup when a job dies mid-flight), and on a host
with four or more cores, the speed the columnar process backend exists
for.
"""

import operator
import os
import pickle
import time
import zlib

import pytest

from repro.engine.columnar import (DEFAULT_BATCH_ROWS, MODE_DICT,
                                   MODE_SCALAR, MODE_TUPLE,
                                   SHM_BASE_PREFIX, TAG_BOOL, TAG_BYTES,
                                   TAG_FLOAT64, TAG_INT64, TAG_OBJECT,
                                   TAG_STRING, BatchBlock, RecordBatch,
                                   ShmRegistry, batch_to_rows,
                                   decode_rows, encode_rows,
                                   list_segments, new_job_prefix,
                                   release_segments, shm_available)
from repro.engine.context import SparkLiteContext
from repro.util.errors import EngineError

needs_shm = pytest.mark.skipif(not shm_available(),
                               reason="no shared memory on this platform")

#: every row shape the engine moves, including the nasty ones — the
#: round-trip must preserve concrete types (bool is not int, 1 != 1.0
#: after a trip through a column) and byte-exact varlen payloads
ROW_SHAPES = {
    "empty": [],
    "ints": [1, -2, 3, 0, 2 ** 62],
    "floats": [0.5, -1.25, 3e300, float("inf")],
    "bools": [True, False, True],
    "strings": ["", "abc", "γράφω", "x" * 257],
    "surrogates": ["ok", "\udc80\udcfe"],  # undecodable utf-8 leftovers
    "bytes": [b"", b"\x00\xff", b"blob" * 40],
    "none_mixed": [1, None, 3, None],
    "bool_vs_int": [True, 1, False, 0],     # must NOT merge into int64
    "int_vs_float": [1, 1.0, 2],            # must NOT merge into float64
    "big_ints": [1 << 70, -(1 << 70), 5],   # outside int64 → OBJECT
    "kv_pairs": [(k % 3, "v" * k) for k in range(20)],
    "kv_none": [(1, None), (None, 2), (None, None)],
    "wide_tuples": [(i, float(i), str(i), i % 2 == 0, None)
                    for i in range(10)],
    "ragged_tuples": [(1,), (1, 2), (1, 2, 3)],
    "dict_records": [{"id": i, "name": f"n{i}", "ok": i % 2 == 0,
                      "score": i / 3.0 if i % 3 else None}
                     for i in range(12)],
    "mixed_rows": [1, "two", (3, 4), {"five": 5}, None, [6]],
    "nested": [([1, 2], {"a": 1}), ([3], {"b": 2})],
    "large_varlen": ["y" * 100_000, "", "z" * 250_000],
}


# ------------------------------------------------------------- record batch
class TestRecordBatchRoundTrip:
    @pytest.mark.parametrize("shape", sorted(ROW_SHAPES))
    def test_rows_roundtrip(self, shape):
        rows = ROW_SHAPES[shape]
        batch = RecordBatch.from_rows(rows)
        assert len(batch) == len(rows)
        assert repr(batch.to_rows()) == repr(rows)

    @pytest.mark.parametrize("shape", sorted(ROW_SHAPES))
    def test_pack_unpack_roundtrip(self, shape):
        rows = ROW_SHAPES[shape]
        blob = RecordBatch.from_rows(rows).pack()
        assert isinstance(blob, bytes)
        assert repr(RecordBatch.unpack(blob).to_rows()) == repr(rows)

    def test_mode_inference(self):
        assert RecordBatch.from_rows([1, 2]).mode == MODE_SCALAR
        assert RecordBatch.from_rows([(1, 2), (3, 4)]).mode == MODE_TUPLE
        batch = RecordBatch.from_rows([{"a": 1}, {"a": 2}])
        assert batch.mode == MODE_DICT and batch.keys == ("a",)
        # differently-keyed dicts cannot share columns
        assert RecordBatch.from_rows([{"a": 1}, {"b": 2}]).mode \
            == MODE_SCALAR

    def test_column_tags(self):
        batch = RecordBatch.from_rows(
            [(1, 1.0, True, "s", b"b", [1]) for _ in range(3)])
        assert batch.column_tags() == [TAG_INT64, TAG_FLOAT64, TAG_BOOL,
                                       TAG_STRING, TAG_BYTES, TAG_OBJECT]

    def test_bool_column_never_collapses_to_int(self):
        rows = [(True,), (False,)]
        out = RecordBatch.unpack(RecordBatch.from_rows(rows).pack()) \
            .to_rows()
        assert all(type(v) is bool for (v,) in out)

    def test_from_records_alias(self):
        records = ROW_SHAPES["dict_records"]
        batch = RecordBatch.from_records(records)
        assert batch.to_records() == records
        assert batch_to_rows(batch) == records

    def test_unpack_rejects_garbage(self):
        with pytest.raises(ValueError):
            RecordBatch.unpack(b"NOPE" + bytes(16))

    def test_equality(self):
        rows = ROW_SHAPES["kv_pairs"]
        assert RecordBatch.from_rows(rows) == RecordBatch.from_rows(rows)
        assert RecordBatch.from_rows(rows) != RecordBatch.from_rows([])


class TestSliceAndConcat:
    def test_slice_matches_list_slice(self):
        rows = ROW_SHAPES["wide_tuples"]
        batch = RecordBatch.from_rows(rows)
        for start, stop in [(0, 3), (2, 7), (5, None), (0, 0), (9, 99)]:
            piece = batch.slice(start, stop)
            assert piece.to_rows() == rows[start:stop]
            assert len(piece) == len(rows[start:stop])

    def test_slice_clamps_bounds(self):
        batch = RecordBatch.from_rows([1, 2, 3])
        assert batch.slice(-5, 100).to_rows() == [1, 2, 3]

    def test_concat_same_shape(self):
        rows = ROW_SHAPES["kv_pairs"]
        batch = RecordBatch.from_rows(rows)
        pieces = [batch.slice(i, i + 7) for i in range(0, len(rows), 7)]
        glued = RecordBatch.concat(pieces)
        assert glued.to_rows() == rows
        assert glued.mode == MODE_TUPLE

    def test_concat_mixed_shapes_falls_back_to_rows(self):
        left = RecordBatch.from_rows([(1, 2)])
        right = RecordBatch.from_rows(["scalar"])
        glued = RecordBatch.concat([left, right])
        assert glued.to_rows() == [(1, 2), "scalar"]

    def test_concat_empty(self):
        assert RecordBatch.concat([]).to_rows() == []

    def test_slices_cover_batch_exactly(self):
        # the batched narrow-op path: contiguous slices partition a batch
        rows = list(range(25))
        batch = RecordBatch.from_rows(rows)
        step = 8
        rebuilt = []
        for start in range(0, len(batch), step):
            rebuilt.extend(batch.slice(start, start + step).to_rows())
        assert rebuilt == rows


# ---------------------------------------------------------------- row codec
class TestRowCodec:
    @pytest.mark.parametrize("shape", sorted(ROW_SHAPES))
    def test_roundtrip(self, shape):
        rows = ROW_SHAPES[shape]
        assert repr(decode_rows(encode_rows(rows))) == repr(rows)

    def test_columnar_rows_take_the_batch_arm(self):
        assert encode_rows(ROW_SHAPES["kv_pairs"])[:1] == b"B"
        assert encode_rows(ROW_SHAPES["ints"])[:1] == b"B"

    def test_irregular_rows_take_the_pickle_arm(self):
        # a pickle wrapped in a batch header buys nothing
        assert encode_rows(ROW_SHAPES["mixed_rows"])[:1] == b"P"

    def test_codec_compresses_well(self):
        rows = [(k % 5, k) for k in range(4096)]
        packed = zlib.compress(encode_rows(rows), 6)
        pickled = zlib.compress(
            b"P" + pickle.dumps(rows, pickle.HIGHEST_PROTOCOL), 6)
        assert len(packed) < len(pickled)


# ------------------------------------------------------------- batch blocks
class TestBatchBlock:
    def test_seal_decode_roundtrip(self):
        items = [(k % 3, "v" * k) for k in range(50)]
        block = BatchBlock.seal(items)
        assert block.decode() == items
        assert block.count == 50
        assert block.encoding == BatchBlock.ENC_BATCH
        assert block.nbytes == len(block.payload) + block.header_bytes
        assert block.header_bytes > 0
        assert block.pickled_nbytes == block.nbytes
        assert block.shm_bytes == 0 and not block.via_shm

    def test_irregular_items_pickle_encode(self):
        items = ROW_SHAPES["mixed_rows"]
        block = BatchBlock.seal(items)
        assert block.encoding == BatchBlock.ENC_PICKLE
        assert repr(block.decode()) == repr(items)

    def test_compression_above_threshold(self):
        items = [(k % 2, "blob" * 50) for k in range(200)]
        block = BatchBlock.seal(items, compress=True, threshold=64)
        assert block.codec == BatchBlock.CODEC_ZLIB
        assert block.nbytes < block.raw_bytes
        assert block.decode() == items

    def test_small_blocks_stay_raw(self):
        block = BatchBlock.seal([(1, 2)], compress=True, threshold=1 << 20)
        assert block.codec == BatchBlock.CODEC_RAW
        assert block.decode() == [(1, 2)]

    def test_block_is_picklable(self):
        block = BatchBlock.seal([(k, k) for k in range(30)],
                                compress=True, threshold=1)
        clone = pickle.loads(pickle.dumps(block))
        assert clone.decode() == block.decode()

    def test_empty_block(self):
        block = BatchBlock.seal([])
        assert block.decode() == []
        assert block.count == 0


# ------------------------------------------------------------ shm lifecycle
@needs_shm
class TestShmLifecycle:
    def test_create_attach_unlink(self):
        prefix = new_job_prefix()
        items = [(k % 5, k) for k in range(100)]
        block = BatchBlock.seal(items, shm_prefix=prefix)
        try:
            assert block.via_shm and block.payload is None
            assert block.shm_name.startswith(prefix)
            assert block.shm_bytes > 0
            # the segment is visible on the shm filesystem
            assert block.shm_name in list_segments(prefix)
            # the pickled form is a descriptor, not the data
            assert len(pickle.dumps(block)) < 256
            # a block may be decoded more than once: retried and
            # speculative reducers attach to the same segment
            assert block.decode() == items
            assert block.decode() == items
        finally:
            released = release_segments(prefix)
        assert released == 1
        assert list_segments(prefix) == []
        # releasing again is a no-op, not an error
        assert release_segments(prefix, [block.shm_name]) == 0

    def test_decode_through_pickle_wall(self):
        prefix = new_job_prefix()
        block = BatchBlock.seal(list(range(64)), shm_prefix=prefix)
        try:
            clone = pickle.loads(pickle.dumps(block))
            assert clone.decode() == list(range(64))
        finally:
            release_segments(prefix)

    def test_accounting_splits_shm_from_pickled(self):
        prefix = new_job_prefix()
        block = BatchBlock.seal([(k, k) for k in range(200)],
                                shm_prefix=prefix)
        try:
            assert block.nbytes == block.shm_bytes + block.header_bytes
            assert block.pickled_nbytes == block.header_bytes
        finally:
            release_segments(prefix)

    def test_registry_tracks_and_releases(self):
        registry = ShmRegistry()
        blocks = [BatchBlock.seal([(i, i)], shm_prefix=registry.prefix)
                  for i in range(3)]
        for block in blocks:
            registry.track(block.shm_name)
        registry.track(None)  # inline blocks have no segment
        assert len(registry) == 3
        assert registry.release() == 3
        assert list_segments(registry.prefix) == []
        assert registry.release() == 0  # idempotent

    def test_prefix_sweep_reclaims_untracked_segments(self):
        # a worker that dies between sealing and returning leaves a
        # segment no descriptor points at; the prefix sweep finds it
        registry = ShmRegistry()
        orphan = BatchBlock.seal([1, 2, 3], shm_prefix=registry.prefix)
        assert orphan.via_shm and len(registry) == 0
        assert registry.release() == 1
        assert list_segments(registry.prefix) == []

    def test_distinct_jobs_get_distinct_prefixes(self):
        assert new_job_prefix() != new_job_prefix()
        assert new_job_prefix().startswith(SHM_BASE_PREFIX)


def _pair_mod3(x):
    return (x % 3, x)


def _add(a, b):
    return a + b


def _boom(v):
    raise RuntimeError("post-shuffle failure")


@needs_shm
class TestShmThroughJobs:
    def test_job_releases_segments_at_end(self):
        with SparkLiteContext(parallelism=2, backend="serial",
                              engine_columnar=True, batch_rows=8,
                              shuffle_shm=True) as sc:
            out = (sc.parallelize(range(60), 4)
                   .map(_pair_mod3).reduce_by_key(_add).collect())
            metrics = sc.last_job_metrics
        assert sorted(out) == sorted(
            (k, sum(x for x in range(60) if x % 3 == k)) for k in range(3))
        assert metrics.shuffle_bytes_shm > 0
        assert list_segments(SHM_BASE_PREFIX) == []

    def test_failed_job_leaks_nothing(self):
        # the failure lands *after* the exchange, when shm segments for
        # the shuffle are live; the job-end sweep must still run
        with SparkLiteContext(parallelism=2, backend="serial",
                              engine_columnar=True, batch_rows=8,
                              shuffle_shm=True, task_retries=0) as sc:
            with pytest.raises(RuntimeError):
                (sc.parallelize(range(40), 4)
                 .map(_pair_mod3).reduce_by_key(_add)
                 .map_values(_boom).collect())
        assert list_segments(SHM_BASE_PREFIX) == []


# ------------------------------------------------------------ context knobs
class TestContextKnobs:
    def test_batch_rows_must_be_positive(self):
        with pytest.raises(EngineError):
            SparkLiteContext(parallelism=1, engine_columnar=True,
                             batch_rows=0)

    def test_default_batch_rows(self):
        with SparkLiteContext(parallelism=1, engine_columnar=True) as sc:
            assert sc.batch_rows == DEFAULT_BATCH_ROWS

    def test_shm_off_without_columnar(self):
        with SparkLiteContext(parallelism=1) as sc:
            assert sc.shm_enabled is False

    def test_shm_off_when_disabled_explicitly(self):
        with SparkLiteContext(parallelism=1, engine_columnar=True,
                              shuffle_shm=False) as sc:
            assert sc.shm_enabled is False

    def test_shm_auto_follows_backend_support(self):
        with SparkLiteContext(parallelism=1, backend="serial",
                              engine_columnar=True) as sc:
            assert sc.shm_enabled is False  # serial gains nothing
        if shm_available():
            with SparkLiteContext(parallelism=2, backend="process",
                                  engine_columnar=True) as sc:
                assert sc.shm_enabled is True

    @needs_shm
    def test_shm_forced_on_any_backend(self):
        with SparkLiteContext(parallelism=1, backend="serial",
                              engine_columnar=True,
                              shuffle_shm=True) as sc:
            assert sc.shm_enabled is True


# ----------------------------------------------------------- dataset scans
class TestBatchScans:
    def test_read_part_batches_roundtrip(self, tmp_path):
        from repro.dfs.filesystem import MiniDfs
        from repro.dfs.jsonlines import (list_partitions,
                                         read_json_dataset,
                                         read_part_batches,
                                         write_json_dataset)
        records = [{"id": i, "name": f"n{i}", "score": i / 2.0}
                   for i in range(25)]
        dfs = MiniDfs(num_datanodes=2)
        write_json_dataset(dfs, "/scan", records, partitions=2)
        paths = list_partitions(dfs, "/scan")
        rows = []
        for path in paths:
            for batch in read_part_batches(dfs, path, 7):
                assert len(batch) <= 7
                rows.extend(batch.to_records())
        assert sorted(map(repr, rows)) == sorted(
            map(repr, read_json_dataset(dfs, "/scan")))

    def test_json_batches_matches_row_scan(self):
        from repro.dfs.filesystem import MiniDfs
        from repro.dfs.jsonlines import write_json_dataset
        records = [{"k": i % 4, "v": i} for i in range(40)]
        dfs = MiniDfs(num_datanodes=2)
        write_json_dataset(dfs, "/scan2", records, partitions=3)
        with SparkLiteContext(parallelism=2, engine_columnar=True,
                              batch_rows=8) as sc:
            from repro.engine.columnar import batch_to_rows as to_rows
            batched = (sc.json_batches(dfs, "/scan2")
                       .flat_map(to_rows).collect())
            plain = sc.json_dataset(dfs, "/scan2").collect()
        assert batched == plain


# ------------------------------------------------------------ parallel speed
def _skewed_pair(x):
    return (x % 8, 1) if x % 4 else (8 + x % 24, 1)


@pytest.mark.skipif((os.cpu_count() or 1) < 4,
                    reason="speedup gate needs >= 4 cores")
def test_columnar_process_beats_serial_rows_2x_on_four_cores():
    """60,000 rows of a skewed reduce_by_key, best of two warm runs."""
    def best_s(backend, columnar):
        with SparkLiteContext(parallelism=4, backend=backend,
                              engine_columnar=columnar,
                              batch_rows=4096) as sc:
            def job():
                return (sc.parallelize(range(60_000), 8).map(_skewed_pair)
                        .reduce_by_key(operator.add).collect())
            job()  # warm-up: pools spin up lazily
            times = []
            for _ in range(2):
                start = time.perf_counter()
                job()
                times.append(time.perf_counter() - start)
        return min(times)
    speedup = best_s("serial", False) / best_s("process", True)
    assert speedup >= 2.0, f"columnar process speedup {speedup:.2f}x < 2x"
