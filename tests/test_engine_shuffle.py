"""Unit tests for the shuffle fast path primitives.

The differential/property suites prove the fast path is invisible in
job results; these tests pin the primitives themselves — block sealing
and compression, range-partition planning, map-side combine counts and
broadcast-side selection — so a regression is reported at the layer
that broke, not three stages downstream.
"""

import operator
import pickle
import random
import zlib

import pytest

from repro.engine import shuffle
from repro.engine.context import SparkLiteContext
from repro.engine.planner import DEFAULT_SAMPLE_ROWS
from repro.engine.rdd import (JobRunner, _DistinctOp, _ReduceByKeyOp,
                              _pair_key)
from repro.engine.shuffle import (DEFAULT_COMPRESS_THRESHOLD,
                                  BroadcastHashJoinOp, CogroupJoinTask,
                                  HashPartitioner, MapShuffleTask,
                                  RangePartitioner, ReduceShuffleTask,
                                  ShuffleBlock, _hash_partition,
                                  bounded_payload_bytes, merge_pieces,
                                  payload_bytes, plan_range_partitioner)


# ------------------------------------------------------------------- blocks
class TestShuffleBlock:
    def test_seal_decode_roundtrip(self):
        items = [(k % 3, "v" * k) for k in range(50)]
        block = ShuffleBlock.seal(items)
        assert block.decode() == items
        assert block.count == 50
        assert block.codec == ShuffleBlock.CODEC_PICKLE
        # bytes moved = payload + the pickled envelope around it (the
        # old ``raw_bytes == nbytes`` identity under-counted headers)
        assert block.nbytes == block.raw_bytes + block.header_bytes
        assert block.header_bytes > 0
        assert block.pickled_nbytes == block.nbytes
        assert block.shm_bytes == 0

    def test_empty_block(self):
        block = ShuffleBlock.seal([])
        assert block.decode() == []
        assert block.count == 0

    def test_compresses_above_threshold(self):
        items = ["repetitive-payload"] * 400
        block = ShuffleBlock.seal(items, compress=True, threshold=64)
        assert block.codec == ShuffleBlock.CODEC_ZLIB
        assert block.nbytes < block.raw_bytes
        assert block.decode() == items

    def test_small_blocks_stay_raw(self):
        items = [1, 2, 3]
        block = ShuffleBlock.seal(items, compress=True,
                                  threshold=DEFAULT_COMPRESS_THRESHOLD)
        assert block.codec == ShuffleBlock.CODEC_PICKLE
        assert block.decode() == items

    def test_incompressible_payload_stays_raw(self):
        # pseudo-random bytes: zlib output would be *larger*; keep raw
        import random
        rng = random.Random(1234)
        items = [rng.randbytes(512) for _ in range(8)]
        block = ShuffleBlock.seal(items, compress=True, threshold=1)
        assert block.codec == ShuffleBlock.CODEC_PICKLE
        assert block.decode() == items

    def test_block_is_picklable(self):
        block = ShuffleBlock.seal(list(range(20)), compress=True, threshold=1)
        clone = pickle.loads(pickle.dumps(block))
        assert clone.decode() == block.decode()
        assert clone.codec == block.codec


# ------------------------------------------------------------- partitioners
class TestPartitioners:
    def test_hash_partitioner_matches_stable_hash(self):
        part = HashPartitioner(lambda kv: kv[0], 7)
        for key in ["a", "b", 1, 1.0, None, ("x", 2)]:
            assert part((key, "ignored")) == _hash_partition(key, 7)

    def test_range_partitioner_ascending(self):
        part = RangePartitioner(lambda x: x, cuts=[10, 20])
        assert [part(x) for x in (5, 10, 15, 20, 25)] == [0, 1, 1, 2, 2]

    def test_range_partitioner_descending_mirrors(self):
        asc = RangePartitioner(lambda x: x, cuts=[10, 20])
        desc = RangePartitioner(lambda x: x, cuts=[10, 20], descending=True)
        for x in (5, 10, 15, 20, 25):
            assert desc(x) == len(asc.cuts) - asc(x)

    def test_equal_keys_share_a_bucket(self):
        part = plan_range_partitioner([[3] * 50 + [7] * 50], 4, lambda x: x)
        assert len({part(3) for _ in range(5)}) == 1
        assert len({part(7) for _ in range(5)}) == 1

    def test_plan_is_deterministic(self):
        parts = [[(i * 37) % 101 for i in range(200)],
                 [(i * 13) % 101 for i in range(150)]]
        first = plan_range_partitioner(parts, 5, lambda x: x)
        second = plan_range_partitioner(parts, 5, lambda x: x)
        assert first.cuts == second.cuts
        assert first.cuts == sorted(first.cuts)
        assert len(first.cuts) <= 4  # at most num_buckets - 1 cuts

    def test_plan_collapses_duplicate_cuts(self):
        part = plan_range_partitioner([[1] * 100], 8, lambda x: x)
        assert len(part.cuts) <= 1

    def test_plan_empty_input_single_bucket(self):
        part = plan_range_partitioner([[], []], 4, lambda x: x)
        assert part.cuts == []
        assert part(42) == 0

    def test_plan_buckets_preserve_order(self):
        data = [(i * 61) % 331 for i in range(400)]
        part = plan_range_partitioner([data], 6, lambda x: x)
        buckets = [[] for _ in range(6)]
        for x in data:
            buckets[part(x)].append(x)
        flattened = [x for bucket in buckets for x in sorted(bucket)]
        assert flattened == sorted(data)


# ------------------------------------------------------------------ map task
class TestMapShuffleTask:
    def test_round_robin_uses_global_offset(self):
        task = MapShuffleTask(None, 3)
        out = task((4, list("abcde")))  # elements 4..8 of the job
        assert out.buckets == [["c"], ["a", "d"], ["b", "e"]]
        assert (out.records_in, out.records_out) == (5, 5)

    def test_hash_placement(self):
        task = MapShuffleTask(HashPartitioner(lambda kv: kv[0], 4), 4)
        pairs = [(k % 6, k) for k in range(30)]
        out = task((0, pairs))
        for index, bucket in enumerate(out.buckets):
            assert all(_hash_partition(k, 4) == index for k, _ in bucket)

    def test_one_hash_per_distinct_key_per_chunk(self, monkeypatch):
        """Cost by call count: 100 k rows over 100 int keys hash 100
        times, not 100 k — and a second chunk starts from nothing."""
        calls = []
        real_crc32 = zlib.crc32

        def counting_crc32(data, *args):
            calls.append(data)
            return real_crc32(data, *args)
        monkeypatch.setattr(zlib, "crc32", counting_crc32)
        task = MapShuffleTask(HashPartitioner(_pair_key, 8), 8)
        pairs = [(k % 100, k) for k in range(100_000)]
        out = task((0, pairs))
        assert len(calls) <= 100
        assert sorted(calls) == sorted(b"i%d" % k for k in range(100))
        task((0, pairs[:1000]))     # the memo died with the first call
        assert len(calls) == 200
        assert out.records_out == 100_000
        for index, bucket in enumerate(out.buckets):
            assert [v for _k, v in bucket] == sorted(v for _k, v in bucket)
            assert {real_crc32(b"i%d" % k) % 8 for k, _v in bucket} \
                <= {index}

    def test_equal_keys_of_other_classes_never_read_the_memo(self):
        """``Decimal(1) == 1 == True == 1.0`` as dict keys, but only the
        exact int may use the int's memo entry: each of the others goes
        where its own canonical bytes say, before and after the int."""
        from decimal import Decimal
        keys = [Decimal(1), True, 1.0, 1, Decimal(1), True, 1.0, 1]
        out = MapShuffleTask(HashPartitioner(_pair_key, 64), 64)(
            (0, [(key, i) for i, key in enumerate(keys)]))
        placed = {i: index for index, bucket in enumerate(out.buckets)
                  for _key, i in bucket}
        assert [placed[i] for i in range(len(keys))] \
            == [_hash_partition(key, 64) for key in keys]
        assert _hash_partition(Decimal(1), 64) != _hash_partition(1, 64)

    def test_combiner_shrinks_records_out(self):
        task = MapShuffleTask(HashPartitioner(lambda kv: kv[0], 2), 2,
                              combiner=_ReduceByKeyOp(operator.add))
        pairs = [(k % 4, 1) for k in range(100)]
        out = task((0, pairs))
        assert out.records_in == 100
        assert out.records_out == 4  # one partial per distinct key
        merged = merge_pieces([b for b in out.buckets])
        assert sorted(merged) == [(0, 25), (1, 25), (2, 25), (3, 25)]

    def test_distinct_combiner(self):
        task = MapShuffleTask(HashPartitioner(lambda x: x, 2), 2,
                              combiner=_DistinctOp())
        out = task((0, [1, 1, 2, 2, 2, 3]))
        assert out.records_out == 3

    def test_seal_wraps_nonempty_buckets_only(self):
        task = MapShuffleTask(HashPartitioner(lambda x: 0, 3), 3, seal=True)
        out = task((0, [10, 20]))
        assert isinstance(out.buckets[0], ShuffleBlock)
        assert out.buckets[1] is None and out.buckets[2] is None
        assert merge_pieces(out.buckets) == [10, 20]

    def test_reduce_task_merges_in_map_order(self):
        pieces = [ShuffleBlock.seal([(0, "a")]), None, [(0, "b")],
                  ShuffleBlock.seal([(0, "c")], compress=True, threshold=1)]
        result = ReduceShuffleTask(_ReduceByKeyOp(operator.add))(pieces)
        assert result == [(0, "abc")]


# --------------------------------------------------------------------- joins
class TestJoinOps:
    TABLE = {1: ["x", "y"], 2: ["z"]}

    def test_broadcast_inner_small_right(self):
        op = BroadcastHashJoinOp(self.TABLE, "inner", small_is_right=True)
        out = op([(1, "L1"), (3, "L3"), (2, "L2")])
        assert out == [(1, ("L1", "x")), (1, ("L1", "y")), (2, ("L2", "z"))]

    def test_broadcast_left_outer_emits_unmatched(self):
        op = BroadcastHashJoinOp(self.TABLE, "left", small_is_right=True)
        out = op([(3, "L3"), (2, "L2")])
        assert out == [(3, ("L3", None)), (2, ("L2", "z"))]

    def test_broadcast_small_left_keeps_orientation(self):
        op = BroadcastHashJoinOp(self.TABLE, "inner", small_is_right=False)
        out = op([(1, "R1"), (9, "R9")])
        assert out == [(1, ("x", "R1")), (1, ("y", "R1"))]

    def test_cogroup_inner_nested_order(self):
        task = CogroupJoinTask("inner")
        out = task(([[(1, "a"), (2, "b"), (1, "c")]],
                    [[(1, "x"), (1, "y")]]))
        assert out == [(1, ("a", "x")), (1, ("a", "y")),
                       (1, ("c", "x")), (1, ("c", "y"))]

    def test_cogroup_left_outer(self):
        task = CogroupJoinTask("left")
        out = task(([[(1, "a"), (5, "q")]], [[(1, "x")]]))
        assert out == [(1, ("a", "x")), (5, ("q", None))]

    def test_payload_bytes(self):
        assert payload_bytes([[1, 2], [3]]) > 0
        assert payload_bytes([[(x for x in range(3))]]) == 0  # unpicklable

    def test_broadcast_side_respects_threshold(self):
        small = [[(1, "a")]]
        big = [[(k, k) for k in range(2000)]]
        pick = JobRunner._broadcast_side
        fits = payload_bytes(small)
        small_is_right, table, nbytes = pick(big, small, "inner", fits)
        assert small_is_right is True and table == {1: ["a"]}
        assert nbytes == fits
        assert pick(big, small, "inner", 1) is None  # over-threshold
        # the left side may broadcast only for inner joins
        small_is_right, _table, nbytes = pick(small, big, "inner", fits)
        assert small_is_right is False and nbytes == fits
        assert pick(small, big, "left", fits) is None


class TestBoundedPayloadBytes:
    """``_broadcast_side``'s "does it fit?" — the exact size when it
    does, at the cost of the threshold when it does not."""

    SIDE = [[(k, f"dim-{k % 97}") for k in range(part * 500,
                                                 part * 500 + 500)]
            for part in range(4)]

    def test_exact_at_and_under_the_limit_none_above(self):
        exact = payload_bytes(self.SIDE)
        assert exact > 64                 # a real payload, several frames
        assert bounded_payload_bytes(self.SIDE, exact + 1) == exact
        assert bounded_payload_bytes(self.SIDE, exact) == exact
        assert bounded_payload_bytes(self.SIDE, exact - 1) is None
        pick = JobRunner._broadcast_side
        big = [[(k, k) for k in range(40_000)]]
        assert pick(big, self.SIDE, "inner", exact)[2] == exact
        assert pick(big, self.SIDE, "inner", exact + 1)[2] == exact
        assert pick(big, self.SIDE, "inner", exact - 1) is None

    @pytest.mark.parametrize("rows", [0, 1, 9, 700, 40_000])
    def test_same_bytes_as_dumps_across_frame_boundaries(self, rows):
        rng = random.Random(rows)
        side = [[(rng.randrange(1000), "v" * rng.randrange(40), (i, None))
                 for i in range(rows)], [], [b"raw" * 30_000]]
        exact = payload_bytes(side)
        assert bounded_payload_bytes(side, exact) == exact
        assert bounded_payload_bytes(side, 1 << 40) == exact
        assert bounded_payload_bytes(side, exact - 1) is None

    def test_unpicklable_side_measures_zero(self):
        side = [[(1, (x for x in range(3)))]]
        assert payload_bytes(side) == 0
        assert bounded_payload_bytes(side, 1 << 20) == 0
        big = [[(k, k) for k in range(2000)]]
        assert JobRunner._broadcast_side(big, side, "left", 1 << 20) is None

    def test_oversized_side_costs_the_threshold_not_the_side(
            self, monkeypatch):
        written = []

        class Recording(shuffle._ByteCounter):
            __slots__ = ()

            def write(self, data):
                written.append(len(data))
                super().write(data)
        monkeypatch.setattr(shuffle, "_ByteCounter", Recording)
        threshold = 256 * 1024
        side = [[(k, f"dim-{k}-" + "x" * 24) for k in range(part, 120_000, 4)]
                for part in range(4)]
        assert payload_bytes(side) > 5_000_000
        small = [[(1, "a")]]
        # right side too big, left side fits: the inner join flips sides
        small_is_right, _table, nbytes = JobRunner._broadcast_side(
            small, side, "inner", threshold)
        assert small_is_right is False and nbytes == payload_bytes(small)
        right, left = written[:-1], written[-1]
        assert left == nbytes
        assert threshold < sum(right) <= threshold + 64 * 1024 + 1024


# ----------------------------------------------------- metrics through jobs
def _wide_rows(rng, rows):
    return [(rng.randrange(4096), f"record-{i % 7}-" + "payload" * 4)
            for i in range(rows)]


def _counting_dumps(pickled):
    """A ``pickle.dumps`` that first appends to ``pickled`` how many
    rows (non-list leaves) the object it was handed holds."""
    real_dumps = pickle.dumps

    def rows_in(obj):
        if isinstance(obj, list):
            return sum(rows_in(item) for item in obj)
        return 1

    def counting_dumps(obj, *args, **kwargs):
        pickled.append(rows_in(obj))
        return real_dumps(obj, *args, **kwargs)
    return counting_dumps


def _shuffle_stats(sc, parts, partitioner, combiner=None):
    """``_exchange_parts`` directly: the pieces and the byte count the
    job metrics would report for them."""
    pieces, stats, _run = JobRunner(sc)._exchange_parts(
        parts, len(parts), partitioner, combiner)
    return pieces, stats[2]


class TestSampledShuffleBytes:
    """An exchange that stays in the process is sized from the planner's
    stride sample, never pickled to be counted."""

    def test_unsealed_exchange_pickles_only_samples(self, monkeypatch):
        rows = [(k % 5000, "v") for k in range(200_000)]
        pickled = []
        with SparkLiteContext(parallelism=2, backend="thread") as sc:
            data = sc.parallelize(rows, 4)
            monkeypatch.setattr(pickle, "dumps", _counting_dumps(pickled))
            grouped = data.group_by_key(4).collect()
            metrics = sc.last_job_metrics
        monkeypatch.undo()
        assert len(grouped) == 5000
        assert metrics.shuffle_records_moved == 200_000
        assert len(pickled) == 4 * 4            # one sample per piece
        assert max(pickled) <= DEFAULT_SAMPLE_ROWS
        assert metrics.shuffle_bytes > 0

    @pytest.mark.parametrize("shape", ["group_wide", "join_dim_shuffle",
                                       "sort_wide"])
    def test_estimate_within_15_percent_of_exact(self, shape):
        rng = random.Random(7)
        if shape == "join_dim_shuffle":
            rows = [(k, f"dim-{k}-" + "x" * 24) for k in range(40_000)]
        else:
            rows = _wide_rows(rng, 60_000)
        parts = [rows[i::8] for i in range(8)]
        if shape == "sort_wide":
            partitioner = plan_range_partitioner(parts, 8, _pair_key)
        else:
            partitioner = HashPartitioner(_pair_key, 8)
        with SparkLiteContext(parallelism=2, backend="serial") as sc:
            pieces, estimated = _shuffle_stats(sc, parts, partitioner)
        exact = payload_bytes(pieces)
        assert abs(estimated - exact) <= 0.15 * exact

    def test_cogroup_memo_is_sized_the_same_way(self, monkeypatch):
        pickled = []
        with SparkLiteContext(parallelism=2, backend="serial") as sc:
            left = sc.parallelize([(k % 50, k) for k in range(20_000)], 4)
            right = sc.parallelize([(k, -k) for k in range(50)], 2)
            monkeypatch.setattr(pickle, "dumps", _counting_dumps(pickled))
            grouped = left.cogroup(right, 4).collect()
            metrics = sc.last_job_metrics
        monkeypatch.undo()
        assert sorted(k for k, _ in grouped) == list(range(50))
        assert all(len(ls) == 400 and rs == [-k] for k, (ls, rs) in grouped)
        assert metrics.shuffle_records == 20_050
        assert metrics.shuffle_bytes > 0
        assert max(pickled) <= DEFAULT_SAMPLE_ROWS


class TestShuffleMetrics:
    def test_records_pre_and_post_combine(self):
        with SparkLiteContext(parallelism=2, backend="serial") as sc:
            (sc.parallelize([(k % 3, 1) for k in range(90)], 3)
             .reduce_by_key(operator.add).collect())
            metrics = sc.last_job_metrics
        assert metrics.shuffle_records == 90          # raw, pre-combine
        assert metrics.shuffle_records_moved == 9     # 3 keys × 3 map tasks
        assert metrics.shuffle_bytes > 0

    def test_uncombined_moves_everything(self):
        with SparkLiteContext(parallelism=2, backend="serial",
                              shuffle_combine=False) as sc:
            (sc.parallelize([(k % 3, 1) for k in range(90)], 3)
             .reduce_by_key(operator.add).collect())
            metrics = sc.last_job_metrics
        assert metrics.shuffle_records == 90
        assert metrics.shuffle_records_moved == 90

    def test_compression_reported_in_bytes(self):
        with SparkLiteContext(parallelism=2, backend="serial",
                              shuffle_compress=True,
                              shuffle_compress_threshold=32) as sc:
            (sc.parallelize([(k % 2, "blob" * 50) for k in range(500)], 4)
             .group_by_key().collect())
            metrics = sc.last_job_metrics
        assert 0 < metrics.shuffle_bytes < metrics.shuffle_bytes_raw

    def test_broadcast_join_stage_flagged(self):
        with SparkLiteContext(parallelism=2, backend="serial",
                              broadcast_join_threshold=1 << 20) as sc:
            left = sc.parallelize([(k % 5, k) for k in range(40)], 3)
            right = sc.parallelize([(k, -k) for k in range(5)], 2)
            left.join(right).collect()
            metrics = sc.last_job_metrics
        assert metrics.broadcast_joins == 1
        assert metrics.shuffles == 0
        assert any(stage.broadcast for stage in metrics.stages)

    def test_pair_key_helper(self):
        assert _pair_key((3, "v")) == 3


class TestLargeIntegralFloatKeys:
    """Pinned: ``2**63 == float(2**63)`` are one key. The canonical
    encoding only normalized integral floats below 2**63, so these two
    rows hashed to buckets 4 and 1 of 8 and came back unmerged."""

    @pytest.mark.parametrize("backend", ["serial", "thread"])
    def test_reduce_by_key_merges_them(self, backend):
        with SparkLiteContext(parallelism=2, backend=backend) as sc:
            out = (sc.parallelize([(2 ** 63, 1), (float(2 ** 63), 1),
                                   (10 ** 19, 5), (1e19, 7)], 2)
                   .reduce_by_key(operator.add, 8).collect())
        assert sorted(out) == [(2 ** 63, 2), (10 ** 19, 12)]

    def test_shuffled_join_matches_them(self):
        with SparkLiteContext(parallelism=2, backend="serial") as sc:
            left = sc.parallelize([(2 ** 63, "int"), (3, "small")], 2)
            right = sc.parallelize([(float(2 ** 63), "float"),
                                    (3.0, "small")], 2)
            out = left.join(right, 8).collect()
            assert sc.last_job_metrics.broadcast_joins == 0
        assert sorted(out, key=lambda kv: kv[0]) == [
            (3, ("small", "small")), (2 ** 63, ("int", "float"))]
