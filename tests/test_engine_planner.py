"""Unit tests for the adaptive planner's primitives.

The differential battery (``test_engine_adaptive``) proves adaptive
plans are invisible in job results; these tests pin the decision rules
themselves — deterministic stats sampling (idempotent under
recomputation), coalesce grouping, skew detection and split-merge,
observed-size broadcast choice, lineage shape-safety gating, fused
scans and the pushdown-capable batch reads.
"""

import json
import operator
import pickle

import pytest

from repro.dfs.filesystem import MiniDfs
from repro.dfs.jsonlines import (ScanCounters, read_part_batches,
                                 read_part_pushdown, write_json_dataset)
from repro.engine.columnar import batch_to_rows
from repro.engine.context import SparkLiteContext
from repro.engine.metrics import JobMetrics
from repro.engine.planner import (DEFAULT_SAMPLE_ROWS, AdaptivePlanner,
                                  StatsCollector, analyze_job,
                                  estimate_rows_bytes, merge_split_outputs,
                                  piece_nbytes)
from repro.engine.rdd import (_DistinctOp, _GroupByKeyOp, _ReduceByKeyOp,
                              _SortOp)
from repro.engine.shuffle import payload_bytes, stride_sample
from repro.net.faults import FAULT_KILL_WORKER, FaultSchedule, FaultSpec
from repro.util.errors import EngineError


def _double(x):
    return x * 2


def _mod5_pair(x):
    return (x % 5, x)


def _sorted_group(kv):
    return (kv[0], sorted(kv[1]))


def _keep_small(record):
    return record["id"] < 10


def _project_id(record):
    return {"id": record["id"]}


def _mod5_id(record):
    return (record["id"] % 5, 1)


def _records(n=40, fields=3):
    return [{"id": i, "k": i % 4,
             **{f"pad{j}": "x" * 20 for j in range(fields - 2)}}
            for i in range(n)]


# ---------------------------------------------------------- stats sampling
class TestEstimates:
    def test_empty_rows(self):
        assert estimate_rows_bytes([]) == (0, 0)

    def test_deterministic_and_scales_with_rows(self):
        rows = [(i, "v" * 40) for i in range(100)]
        est1, n1 = estimate_rows_bytes(rows)
        est2, n2 = estimate_rows_bytes(rows)
        assert (est1, n1) == (est2, n2)
        assert n1 <= DEFAULT_SAMPLE_ROWS + 1
        exact = len(pickle.dumps(rows, pickle.HIGHEST_PROTOCOL))
        assert exact / 3 <= est1 <= exact * 3

    def test_unpicklable_rows_return_none(self):
        rows = [(x for x in range(3))]  # generators never pickle
        assert estimate_rows_bytes(rows) == (None, 0)

    def test_piece_nbytes_prefers_sealed_size(self):
        class Sealed:
            nbytes = 1234
        assert piece_nbytes(Sealed()) == 1234
        assert piece_nbytes(None) == 0
        assert piece_nbytes([1, 2, 3]) > 0

    def test_stride_sample_covers_whole_sequence(self):
        seq = list(range(100))
        sample = stride_sample(seq, 8)
        assert len(sample) == 8
        assert sample[0] == 0 and sample[-1] >= 84  # spread, not a prefix


class TestStatsCollector:
    def test_observe_counts_and_sizes(self):
        metrics = JobMetrics(backend="serial")
        collector = StatsCollector(metrics=metrics)
        stats = collector.observe("r1", [[1, 2, 3], [], [4]])
        assert stats.counts == [3, 0, 1]
        assert stats.total_rows == 4
        assert stats.total_bytes > 0
        assert metrics.stats_sampled_partitions == 3

    def test_observe_is_idempotent_per_key(self):
        # the recomputation guard: a second observation of the same
        # stage key returns the cached stats and only bumps the repeat
        # counter — sampled totals cannot double-count
        metrics = JobMetrics(backend="serial")
        collector = StatsCollector(metrics=metrics)
        first = collector.observe("r7", [[1, 2], [3]])
        sampled = (metrics.stats_sampled_partitions,
                   metrics.stats_sampled_rows)
        again = collector.observe("r7", [[999], [], [0] * 50])
        assert again is first
        assert (metrics.stats_sampled_partitions,
                metrics.stats_sampled_rows) == sampled
        assert metrics.stats_repeat_observations == 1

    def test_unpicklable_partition_poisons_total_bytes_only(self):
        collector = StatsCollector()
        stats = collector.observe("r1", [[1], [(x for x in [])]])
        assert stats.total_rows == 2
        assert stats.total_bytes is None

    def test_rejects_bad_sample_rows(self):
        with pytest.raises(EngineError):
            StatsCollector(sample_rows=0)


# ------------------------------------------------------------- reduce plans
def _pieces(sizes_by_bucket):
    """Bucket piece lists whose serialized sizes roughly follow the
    requested byte sizes (strings pickle near their length)."""
    return [[["x" * max(0, size - 20)]] if size else []
            for size in sizes_by_bucket]


class TestPlanReduce:
    def planner(self, target=200):
        return AdaptivePlanner(target_partition_bytes=target)

    def test_coalesces_adjacent_undersized_buckets(self):
        plan = self.planner(target=10_000).plan_reduce(
            _ReduceByKeyOp(operator.add), _pieces([100, 100, 100, 100]))
        assert plan is not None
        assert plan.entries == [("merge", (0, 1, 2, 3))]
        assert plan.merged_away == 3 and plan.splits == 0

    def test_respects_target_boundary(self):
        plan = self.planner(target=250).plan_reduce(
            _ReduceByKeyOp(operator.add), _pieces([100, 100, 100, 100]))
        groups = [e[1] for e in plan.entries]
        assert all(len(g) == 2 for g in groups)

    def test_none_when_nothing_to_do(self):
        big = self.planner(target=10).plan_reduce(
            _ReduceByKeyOp(operator.add), _pieces([100, 100]))
        assert big is None
        assert self.planner().plan_reduce(
            _ReduceByKeyOp(operator.add), []) is None

    def test_coalesce_disabled_without_shape_safety(self):
        plan = self.planner(target=10_000).plan_reduce(
            _ReduceByKeyOp(operator.add), _pieces([100, 100]),
            allow_coalesce=False)
        assert plan is None

    def test_skew_split_spans_piece_boundaries(self):
        planner = AdaptivePlanner(target_partition_bytes=150,
                                  skew_factor=2.0)
        hot = [["h" * 100] for _ in range(6)]  # six ~100-byte pieces
        pieces = [hot, [["x" * 80]], [["x" * 80]]]
        plan = planner.plan_reduce(_ReduceByKeyOp(operator.add), pieces)
        assert plan is not None and plan.splits == 1
        kind, bucket, chunks = plan.entries[0]
        assert (kind, bucket) == ("split", 0)
        assert len(chunks) >= 2
        assert chunks[0][0] == 0 and chunks[-1][1] == 6
        # chunks tile the piece list contiguously
        for (_, hi), (lo, _) in zip(chunks, chunks[1:]):
            assert hi == lo

    def test_no_split_without_partial_merge(self):
        # _SortOp output is already range-balanced and cannot merge
        # partials; a huge bucket must not be split
        planner = AdaptivePlanner(target_partition_bytes=50,
                                  skew_factor=2.0)
        pieces = [[["h" * 100] for _ in range(6)], [["x" * 30]],
                  [["x" * 30]]]
        plan = planner.plan_reduce(_SortOp(lambda x: x, True), pieces)
        assert plan is None or plan.splits == 0

    def test_rejects_bad_parameters(self):
        with pytest.raises(EngineError):
            AdaptivePlanner(target_partition_bytes=0)
        with pytest.raises(EngineError):
            AdaptivePlanner(broadcast_capacity=-1)
        with pytest.raises(EngineError):
            AdaptivePlanner(skew_factor=1.0)


class TestMergeSplitOutputs:
    def test_single_output_passthrough(self):
        assert merge_split_outputs(_ReduceByKeyOp(operator.add),
                                   [[("a", 1)]]) == [("a", 1)]

    def test_post_mode_refolds(self):
        post = _ReduceByKeyOp(operator.add)
        merged = merge_split_outputs(
            post, [[("a", 3), ("b", 1)], [("a", 2)], [("b", 4), ("c", 9)]])
        assert merged == post([("a", 3), ("b", 1), ("a", 2),
                               ("b", 4), ("c", 9)])

    def test_group_mode_concatenates_value_lists(self):
        post = _GroupByKeyOp()
        rows = [("a", 1), ("b", 2), ("a", 3), ("a", 4), ("b", 5)]
        merged = merge_split_outputs(
            post, [post(rows[:2]), post(rows[2:])])
        assert repr(merged) == repr(post(rows))

    def test_distinct_post_mode(self):
        post = _DistinctOp()
        merged = merge_split_outputs(post, [post([1, 2, 2]), post([2, 3])])
        assert merged == post([1, 2, 2, 2, 3])

    def test_unmergeable_post_raises(self):
        with pytest.raises(EngineError):
            merge_split_outputs(_SortOp(lambda x: x, True), [[1], [2]])


# -------------------------------------------------------------- broadcasts
class TestChooseBroadcast:
    def stats(self, rows, nbytes):
        collector = StatsCollector()
        observed = collector.observe("k", [["x"] * rows])
        observed.counts = [rows]
        observed.est_bytes = [nbytes]
        return observed

    def test_picks_smaller_eligible_side(self):
        planner = AdaptivePlanner(broadcast_capacity=1000)
        assert planner.choose_broadcast(self.stats(10, 500),
                                        self.stats(90, 900),
                                        "inner") == "left"
        assert planner.choose_broadcast(self.stats(90, 900),
                                        self.stats(10, 500),
                                        "inner") == "right"

    def test_left_ineligible_for_outer_joins(self):
        planner = AdaptivePlanner(broadcast_capacity=1000)
        assert planner.choose_broadcast(self.stats(1, 10),
                                        self.stats(9, 900),
                                        "left") == "right"
        assert planner.choose_broadcast(self.stats(1, 10),
                                        self.stats(9, 9999),
                                        "left") is None

    def test_none_when_both_over_capacity(self):
        planner = AdaptivePlanner(broadcast_capacity=100)
        assert planner.choose_broadcast(self.stats(9, 900),
                                        self.stats(9, 901),
                                        "inner") is None

    def test_unpicklable_side_never_broadcasts(self):
        planner = AdaptivePlanner(broadcast_capacity=10_000)
        bad = self.stats(5, 10)
        bad.est_bytes = [None]
        assert planner.choose_broadcast(self.stats(5, 10), bad,
                                        "inner") == "left"
        assert planner.choose_broadcast(bad, bad, "inner") is None


class TestBroadcastBytesMetric:
    """``broadcast_bytes`` must equal the actual serialized size of the
    broadcast side, on both the static-threshold and adaptive paths."""

    def _facts_dims(self, sc):
        facts = sc.parallelize([(i % 10, i) for i in range(400)], 4)
        dims = sc.parallelize([(k, f"d{k}") for k in range(10)], 2)
        return facts, dims

    def test_static_threshold_path_pins_payload(self):
        with SparkLiteContext(parallelism=2, backend="serial",
                              broadcast_join_threshold=1 << 20) as sc:
            facts, dims = self._facts_dims(sc)
            expected = payload_bytes(sc._run_job_partitions(dims))
            facts.join(dims).collect()
            metrics = sc.last_job_metrics
        assert metrics.broadcast_joins == 1
        assert metrics.broadcast_bytes == expected
        stage = [s for s in metrics.stages if s.broadcast][0]
        assert stage.broadcast_bytes == expected

    def test_adaptive_path_pins_payload(self):
        with SparkLiteContext(parallelism=2, backend="serial",
                              engine_adaptive=True) as sc:
            facts, dims = self._facts_dims(sc)
            expected = payload_bytes(sc._run_job_partitions(dims))
            facts.join(dims).collect()
            metrics = sc.last_job_metrics
        assert metrics.broadcast_joins == 1
        assert metrics.broadcast_bytes == expected
        assert metrics.shuffle_bytes == 0  # nothing exchanged

    def test_adaptive_declines_oversized_sides(self):
        with SparkLiteContext(parallelism=2, backend="serial",
                              engine_adaptive=True) as sc:
            planner = sc.adaptive_planner
            planner.broadcast_capacity = 1  # nothing fits
            facts, dims = self._facts_dims(sc)
            out = sorted(facts.join(dims).collect())
            metrics = sc.last_job_metrics
        assert metrics.broadcast_joins == 0
        assert metrics.shuffles > 0
        assert len(out) == 400


# ------------------------------------------------------------- job analysis
def _never_cached(_node):
    return False


class TestAnalyzeJob:
    def test_shuffle_output_into_narrow_chain_is_shape_safe(self):
        with SparkLiteContext(parallelism=2, backend="serial") as sc:
            reduced = (sc.parallelize(range(40), 4).map(_mod5_pair)
                       .reduce_by_key(operator.add))
            root = reduced.map(_double)
            plan = analyze_job(root, _never_cached)
            assert reduced.rdd_id in plan.shape_safe
            assert root.rdd_id in plan.shape_safe

    def test_whole_partition_consumer_pins_shape(self):
        with SparkLiteContext(parallelism=2, backend="serial") as sc:
            reduced = (sc.parallelize(range(40), 4).map(_mod5_pair)
                       .reduce_by_key(operator.add))
            root = reduced.map_partitions(sorted)
            plan = analyze_job(root, _never_cached)
            assert reduced.rdd_id not in plan.shape_safe

    def test_persisted_node_pins_shape(self):
        with SparkLiteContext(parallelism=2, backend="serial") as sc:
            reduced = (sc.parallelize(range(40), 4).map(_mod5_pair)
                       .reduce_by_key(operator.add).cache())
            plan = analyze_job(reduced.map(_double), _never_cached)
            assert reduced.rdd_id not in plan.shape_safe

    def test_downstream_shuffle_stops_propagation(self):
        with SparkLiteContext(parallelism=2, backend="serial") as sc:
            reduced = (sc.parallelize(range(40), 4).map(_mod5_pair)
                       .reduce_by_key(operator.add))
            # the re-shuffle consumer reshapes independently, so the
            # first reduce stays shape-safe even though the second
            # shuffle's own consumer is whole-partition
            root = reduced.group_by_key().map_partitions(list)
            plan = analyze_job(root, _never_cached)
            assert reduced.rdd_id in plan.shape_safe

    def test_scan_filter_map_chain_fuses(self):
        dfs = MiniDfs()
        write_json_dataset(dfs, "/d", _records(), partitions=3)
        with SparkLiteContext(parallelism=2, backend="serial") as sc:
            scan = sc.json_dataset(dfs, "/d")
            terminal = scan.filter(_keep_small).map(_project_id)
            plan = analyze_job(terminal.map_partitions(list), _never_cached)
            assert terminal.rdd_id in plan.fusions
            fusion = plan.fusions[terminal.rdd_id]
            assert [k for k, _ in fusion.ops] == ["filter", "map"]
            assert scan.rdd_id in plan.interior

    def test_multi_consumer_scan_does_not_fuse(self):
        dfs = MiniDfs()
        write_json_dataset(dfs, "/d", _records(), partitions=3)
        with SparkLiteContext(parallelism=2, backend="serial") as sc:
            scan = sc.json_dataset(dfs, "/d")
            left = scan.filter(_keep_small)
            right = scan.map(_project_id)
            plan = analyze_job(left.union(right), _never_cached)
            assert plan.fusions == {}

    def test_persisted_scan_does_not_fuse(self):
        dfs = MiniDfs()
        write_json_dataset(dfs, "/d", _records(), partitions=3)
        with SparkLiteContext(parallelism=2, backend="serial") as sc:
            scan = sc.json_dataset(dfs, "/d").cache()
            plan = analyze_job(scan.filter(_keep_small), _never_cached)
            assert plan.fusions == {}

    def test_fusion_does_not_need_shape_safety(self):
        """The half every job gets: same fusions, no shape analysis."""
        dfs = MiniDfs()
        write_json_dataset(dfs, "/d", _records(), partitions=3)
        with SparkLiteContext(parallelism=2, backend="serial") as sc:
            scan = sc.json_dataset(dfs, "/d")
            terminal = scan.filter(_keep_small).map(_project_id)
            root = terminal.map(_mod5_id).reduce_by_key(operator.add)
            full = analyze_job(root, _never_cached)
            scan_only = analyze_job(root, _never_cached, shape_safety=False)
            assert scan_only.shape_safe == set() != full.shape_safe
            assert set(scan_only.fusions) == set(full.fusions)
            assert scan_only.interior == full.interior

    def test_lineage_without_a_scan_plans_nothing(self):
        with SparkLiteContext(parallelism=2, backend="serial") as sc:
            root = (sc.parallelize(range(40), 4).map(_mod5_pair)
                    .reduce_by_key(operator.add))
            plan = analyze_job(root, _never_cached, shape_safety=False)
            assert (plan.shape_safe, plan.fusions, plan.interior) == \
                (set(), {}, set())


# ------------------------------------------------------------- fused scans
class TestScanPushdown:
    def test_read_part_pushdown_matches_unfused_chain(self):
        dfs = MiniDfs()
        records = _records(30)
        write_json_dataset(dfs, "/d", records, partitions=1)
        path = dfs.glob_parts("/d")[0]
        ops = (("filter", _keep_small), ("map", _project_id))
        rows, skipped, pruned = read_part_pushdown(dfs, path, ops)
        expected = [_project_id(r) for r in records if _keep_small(r)]
        assert repr(rows) == repr(expected)
        assert skipped > 0 and pruned > 0
        # skipped bytes equal the dropped lines exactly (newline incl.)
        text = dfs.read_text(path)
        dropped = [line for line in text.splitlines()
                   if line and not _keep_small(json.loads(line))]
        assert skipped == sum(len(line) + 1 for line in dropped)

    def test_engine_fuses_scan_and_counts(self):
        dfs = MiniDfs()
        records = _records(40)
        write_json_dataset(dfs, "/d", records, partitions=4)
        expected = [_project_id(r) for r in records if _keep_small(r)]
        with SparkLiteContext(parallelism=2, backend="serial") as sc:
            out = (sc.json_dataset(dfs, "/d")
                   .filter(_keep_small).map(_project_id).collect())
            metrics = sc.last_job_metrics
        assert repr(out) == repr(expected)
        assert metrics.scan_bytes_skipped > 0
        assert metrics.scan_fields_pruned > 0
        assert metrics.pushed_filters == 1
        assert metrics.pushed_projections == 1
        # one stage: the scan and the filter never materialize
        assert [(s.name, s.records_out) for s in metrics.stages] == \
            [("map", len(expected))]

    def test_persisted_scan_runs_the_chain_unfused(self):
        dfs = MiniDfs()
        records = _records(40)
        write_json_dataset(dfs, "/d", records, partitions=4)
        expected = [_project_id(r) for r in records if _keep_small(r)]
        with SparkLiteContext(parallelism=2, backend="serial") as sc:
            sc.json_dataset(dfs, "/d").persist()
            out = (sc.json_dataset(dfs, "/d")
                   .filter(_keep_small).map(_project_id).collect())
            metrics = sc.last_job_metrics
        assert repr(out) == repr(expected)
        assert metrics.pushed_filters == metrics.pushed_projections == 0
        assert [(s.name, s.records_out) for s in metrics.stages] == \
            [("json:/d", 40), ("filter", len(expected)),
             ("map", len(expected))]

    def test_json_batches_predicate_and_column_projection(self):
        dfs = MiniDfs()
        records = _records(30)
        write_json_dataset(dfs, "/d", records, partitions=2)
        path = dfs.glob_parts("/d")[0]
        counters = ScanCounters()
        batches = read_part_batches(dfs, path, 8, predicate=_keep_small,
                                    projection=("id", "k"),
                                    counters=counters)
        rows = [r for b in batches for r in batch_to_rows(b)]
        # first part file holds records[:15] (30 records over 2 parts)
        kept = [{"id": r["id"], "k": r["k"]}
                for r in records[:15] if _keep_small(r)]
        assert repr(rows) == repr(kept)
        assert counters.bytes_skipped > 0
        assert counters.fields_pruned == len(kept) * 1  # one pad column

    def test_json_batches_callable_projection(self):
        dfs = MiniDfs()
        write_json_dataset(dfs, "/d", _records(20), partitions=1)
        path = dfs.glob_parts("/d")[0]
        counters = ScanCounters()
        batches = read_part_batches(dfs, path, 8,
                                    projection=_project_id,
                                    counters=counters)
        rows = [r for b in batches for r in batch_to_rows(b)]
        assert all(set(r) == {"id"} for r in rows)
        assert counters.fields_pruned == 20 * 2

    def test_context_json_batches_records_pushdown_metrics(self):
        dfs = MiniDfs()
        records = _records(40)
        write_json_dataset(dfs, "/d", records, partitions=4)
        with SparkLiteContext(parallelism=2, backend="serial") as sc:
            rdd = sc.json_batches(dfs, "/d", batch_rows=8,
                                  predicate=_keep_small,
                                  projection=("id",))
            rows = rdd.flat_map(batch_to_rows).collect()
            metrics = sc.last_job_metrics
        assert rows == [{"id": i} for i in range(10)]
        assert metrics.scan_bytes_skipped > 0
        assert metrics.scan_fields_pruned > 0
        assert metrics.pushed_filters == 4   # one per part file
        assert metrics.pushed_projections == 4

    def test_pushdown_scan_memo_key_distinguishes_args(self):
        dfs = MiniDfs()
        write_json_dataset(dfs, "/d", _records(20), partitions=2)
        with SparkLiteContext(parallelism=2, backend="serial") as sc:
            plain = sc.json_batches(dfs, "/d")
            pushed = sc.json_batches(dfs, "/d", predicate=_keep_small)
            assert plain is not pushed
            assert sc.json_batches(dfs, "/d") is plain


# ----------------------------------------------------- engine-level effects
class TestAdaptiveEngineEffects:
    def test_coalesce_merges_and_pads_partitions(self):
        with SparkLiteContext(parallelism=2, backend="serial",
                              engine_adaptive=True) as sc:
            rdd = (sc.parallelize(range(100), 4).map(_mod5_pair)
                   .reduce_by_key(operator.add, num_partitions=8))
            parts = sc._run_job_partitions(rdd)
            metrics = sc.last_job_metrics
        assert len(parts) == 8  # declared count survives via padding
        assert metrics.adaptive_coalesces == 1
        assert metrics.adaptive_partitions_merged > 0
        stage = [s for s in metrics.stages if s.coalesced_from][0]
        assert stage.coalesced_from == 8
        assert stage.coalesced_to < 8

    def test_whole_partition_consumer_blocks_coalesce(self):
        def job(sc):
            return (sc.parallelize(range(100), 4).map(_mod5_pair)
                    .reduce_by_key(operator.add, num_partitions=8)
                    .map_partitions(sorted).collect())
        with SparkLiteContext(parallelism=2, backend="serial") as naive:
            expected = job(naive)
        with SparkLiteContext(parallelism=2, backend="serial",
                              engine_adaptive=True) as sc:
            assert repr(job(sc)) == repr(expected)
            assert sc.last_job_metrics.adaptive_coalesces == 0

    def test_cached_shuffle_blocks_coalesce(self):
        with SparkLiteContext(parallelism=2, backend="serial",
                              engine_adaptive=True) as sc:
            reduced = (sc.parallelize(range(100), 4).map(_mod5_pair)
                       .reduce_by_key(operator.add, num_partitions=8)
                       .cache())
            first = reduced.collect()
            assert sc.last_job_metrics.adaptive_coalesces == 0
            # the cached shape is the naive one, and reuse sees it
            parts = sc._run_job_partitions(reduced)
            assert len(parts) == 8
            assert sorted(x for p in parts for x in p) == sorted(first)

    def test_skew_split_metrics_and_identity(self):
        # group_by_key: the map-side combiner cannot collapse the hot
        # key's values, so the exchange really is skewed
        skewed = ([("hot", i) for i in range(3000)]
                  + [(f"k{i}", i) for i in range(40)])

        def job(sc):
            return sorted(sc.parallelize(skewed, 8)
                          .group_by_key(num_partitions=4)
                          .map(_sorted_group).collect())
        with SparkLiteContext(parallelism=2, backend="serial") as naive:
            expected = job(naive)
        with SparkLiteContext(parallelism=2, backend="serial",
                              engine_adaptive=True,
                              target_partition_bytes=1024) as sc:
            assert repr(job(sc)) == repr(expected)
            metrics = sc.last_job_metrics
        assert metrics.skew_splits >= 1
        assert metrics.skew_split_tasks > metrics.skew_splits

    def test_stats_sampling_is_deterministic_across_runs(self):
        def run():
            with SparkLiteContext(parallelism=2, backend="serial",
                                  engine_adaptive=True) as sc:
                (sc.parallelize(range(200), 4).map(_mod5_pair)
                 .reduce_by_key(operator.add).collect())
                d = sc.last_job_metrics.as_dict()
                return (d["stats_sampled_partitions"],
                        d["stats_sampled_rows"])
        assert run() == run()
        assert run()[0] > 0


# ------------------------------------------------------------------- chaos
@pytest.mark.chaos
class TestAdaptiveUnderChaos:
    def test_kill_worker_mid_stage_cannot_double_count_samples(self):
        """Supervisor recovery recomputes partitions; the idempotent
        stage-boundary observation keeps sampling counters identical to
        a fault-free run, and results stay byte-identical."""
        def job(sc):
            return (sc.parallelize(range(300), 6).map(_mod5_pair)
                    .reduce_by_key(operator.add).collect())
        with SparkLiteContext(parallelism=2, backend="serial",
                              engine_adaptive=True) as calm:
            expected = job(calm)
            baseline = calm.last_job_metrics.as_dict()
        faults = FaultSchedule([FaultSpec(FAULT_KILL_WORKER, 0.999)],
                               seed=11)
        with SparkLiteContext(parallelism=2, backend="thread",
                              engine_adaptive=True, task_retries=2,
                              engine_faults=faults) as chaotic:
            out = job(chaotic)
            metrics = chaotic.last_job_metrics.as_dict()
        assert repr(out) == repr(expected)
        assert metrics["recomputed_partitions"] >= 1
        for key in ("stats_sampled_partitions", "stats_sampled_rows",
                    "adaptive_coalesces", "adaptive_partitions_merged"):
            assert metrics[key] == baseline[key], key
