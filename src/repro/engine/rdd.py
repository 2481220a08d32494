"""Lazy RDD lineage and the job runner.

Every transformation returns a new :class:`RDD` node holding a reference
to its parent(s) and a description of the work; nothing executes until an
action. The :class:`JobRunner` walks the lineage, computes each distinct
RDD's partitions once per job (memoized), hands partition tasks to the
context's :class:`~repro.engine.backends.ExecutionBackend`, and performs
hash shuffles for wide dependencies — the same split Spark draws between
narrow and wide transformations.

Two node shapes are structured so their tasks can cross a process
boundary (see ``backends.ProcessBackend``):

* narrow nodes carry a picklable *partition operator* (``part_fn``)
  applied to the parent's partition of the same index;
* wide nodes carry a :class:`ShuffleSpec` — a picklable bucket function
  for the map-side exchange and a picklable *post* operator for the
  reduce side.

Everything else (``parallelize`` slices, ``union``, ``cogroup``,
``sortBy``, ``zipWithIndex``) keeps a generic driver-side compute
closure; those stages run in-process on any backend.
"""

from __future__ import annotations

import itertools
import operator
import threading
import time
from collections import defaultdict
from typing import (Any, Callable, Dict, Generic, Iterable, List, Optional,
                    Tuple, TypeVar)

from repro.engine.metrics import (STAGE_CACHED, STAGE_CHECKPOINT,
                                  STAGE_NARROW, STAGE_SHUFFLE, STAGE_TASK,
                                  JobMetrics, StageMetrics)
# the canonical key hashing lives in shuffle.py now; re-exported here
# unchanged because CRC32 bucket placement is pinned by regression tests
# that import these names from this module.
from repro.engine.columnar import BatchBlock
from repro.engine.planner import (StatsCollector, analyze_job,
                                  merge_split_outputs, piece_nbytes)
from repro.engine.shuffle import (BroadcastHashJoinOp, CogroupJoinTask,
                                  HashPartitioner, MapShuffleTask,
                                  ReduceShuffleTask, ShuffleBlock,
                                  _canonical_bytes, _hash_partition,
                                  _stable_hash, bounded_payload_bytes,
                                  payload_bytes, plan_range_partitioner,
                                  scatter)
from repro.util.errors import EngineError

__all__ = ["RDD", "JobRunner", "ShuffleSpec",
           "_canonical_bytes", "_stable_hash", "_hash_partition"]

T = TypeVar("T")
U = TypeVar("U")
K = TypeVar("K")
V = TypeVar("V")

_rdd_ids = itertools.count()


# ----------------------------------------------------------- partition operators
# Callable objects instead of closures so narrow/shuffle tasks pickle to a
# process pool whenever the *user's* function does. ``elementwise`` marks
# ops whose output for a partition is the concatenation of their outputs
# for any split of it — the columnar engine may legally run those
# batch-at-a-time. Whole-partition ops (mapPartitions sees the full
# list; sample seeds its RNG with the partition length) must not be
# batched or their results would change.

class _MapOp:
    __slots__ = ("fn",)
    elementwise = True
    pushdown_kind = "map"    # fusable into an adjacent dataset scan

    def __init__(self, fn):
        self.fn = fn

    def __call__(self, part):
        fn = self.fn
        return [fn(x) for x in part]


class _FilterOp:
    __slots__ = ("fn",)
    elementwise = True
    pushdown_kind = "filter"  # fusable into an adjacent dataset scan

    def __init__(self, fn):
        self.fn = fn

    def __call__(self, part):
        fn = self.fn
        return [x for x in part if fn(x)]


class _FlatMapOp:
    __slots__ = ("fn",)
    elementwise = True

    def __init__(self, fn):
        self.fn = fn

    def __call__(self, part):
        fn = self.fn
        return [y for x in part for y in fn(x)]


class _MapPartitionsOp:
    __slots__ = ("fn",)
    elementwise = False

    def __init__(self, fn):
        self.fn = fn

    def __call__(self, part):
        return list(self.fn(part))


class _KeyByOp:
    __slots__ = ("fn",)
    elementwise = True

    def __init__(self, fn):
        self.fn = fn

    def __call__(self, part):
        fn = self.fn
        return [(fn(x), x) for x in part]


class _MapValuesOp:
    __slots__ = ("fn",)
    elementwise = True

    def __init__(self, fn):
        self.fn = fn

    def __call__(self, part):
        fn = self.fn
        return [(k, fn(v)) for k, v in part]


class _FlatMapValuesOp:
    __slots__ = ("fn",)
    elementwise = True

    def __init__(self, fn):
        self.fn = fn

    def __call__(self, part):
        fn = self.fn
        return [(k, u) for k, v in part for u in fn(v)]


class _BatchedOp:
    """Run an elementwise partition op in ``batch_rows`` slices.

    The columnar engine's narrow-stage wrapper: output order matches
    the unbatched op exactly (slices concatenate in order), memory per
    call is bounded by the batch size instead of the partition size.
    """

    __slots__ = ("op", "batch_rows")
    elementwise = True

    def __init__(self, op, batch_rows):
        self.op = op
        self.batch_rows = batch_rows

    def __call__(self, part):
        size = self.batch_rows
        if len(part) <= size:
            return self.op(part)
        op = self.op
        out = []
        for start in range(0, len(part), size):
            out.extend(op(part[start:start + size]))
        return out


class _SampleOp:
    __slots__ = ("fraction", "seed")
    elementwise = False

    def __init__(self, fraction, seed):
        self.fraction = fraction
        self.seed = seed

    def __call__(self, part):
        import random
        rng = random.Random(self.seed * 1_000_003 + len(part))
        fraction = self.fraction
        return [x for x in part if rng.random() < fraction]


# ------------------------------------------------------------ shuffle operators
# Two adaptive-planner contracts, declared per post op (planner.py reads
# them as duck attributes, never by type, so user-supplied post ops stay
# conservatively naive):
#
# ``concat_safe`` — post(bucket_a + bucket_b) == post(bucket_a) +
# post(bucket_b) whenever a and b hold disjoint key sets (hash/range
# buckets always do) or, for positional buckets (gather/sort), whenever
# a's elements all order before b's. This is what lets the planner merge
# *adjacent* undersized buckets and still emit identical bytes.
#
# ``partial_merge`` — how partial outputs of one bucket's split chunks
# merge back: "post" re-applies the op to the concatenated partials
# (the map-side combiner contract: _ReduceByKeyOp folds fn over partial
# values, _DistinctOp re-dedups), "group" concatenates per-key value
# lists in first-seen order. Ops without it (raw _AggregateByKeyOp /
# _CountPairsOp would double-apply seq / count partials as pairs;
# _SortOp buckets are already balanced by range sampling) never split.
def _pair_key(item):
    return item[0]


def _identity(item):
    return item


class _GatherOp:
    __slots__ = ()
    concat_safe = True

    def __call__(self, bucket):
        return bucket


class _DistinctOp:
    __slots__ = ()
    concat_safe = True
    partial_merge = "post"

    def __call__(self, bucket):
        seen = set()
        out = []
        for x in bucket:
            if x not in seen:
                seen.add(x)
                out.append(x)
        return out


class _GroupByKeyOp:
    __slots__ = ()
    concat_safe = True
    partial_merge = "group"

    def __call__(self, bucket):
        grouped: Dict[Any, List[Any]] = defaultdict(list)
        for k, v in bucket:
            grouped[k].append(v)
        return list(grouped.items())


class _ReduceByKeyOp:
    __slots__ = ("fn",)
    concat_safe = True
    partial_merge = "post"

    def __init__(self, fn):
        self.fn = fn

    def __call__(self, bucket):
        fn = self.fn
        acc: Dict[Any, Any] = {}
        for k, v in bucket:
            acc[k] = fn(acc[k], v) if k in acc else v
        return list(acc.items())


class _AggregateByKeyOp:
    __slots__ = ("zero", "seq", "comb")
    concat_safe = True

    def __init__(self, zero, seq, comb):
        self.zero = zero
        self.seq = seq
        self.comb = comb

    def __call__(self, bucket):
        import copy
        seq = self.seq
        acc: Dict[Any, Any] = {}
        for k, v in bucket:
            if k not in acc:
                acc[k] = copy.deepcopy(self.zero)
            acc[k] = seq(acc[k], v)
        return list(acc.items())


class _CountPairsOp:
    """Collapse ``(k, v)`` pairs to ``(k, count)`` in first-seen order."""

    __slots__ = ()
    concat_safe = True

    def __call__(self, bucket):
        counts: Dict[Any, int] = {}
        for k, _v in bucket:
            counts[k] = counts.get(k, 0) + 1
        return list(counts.items())


class _SortOp:
    """Reduce side of a range sort: order one bucket (stable).

    ``concat_safe``: adjacent range buckets hold adjacent key ranges
    (equal keys always land in one bucket), so sorting the concatenation
    of adjacent buckets emits the per-bucket sorts back to back with the
    same stable tie order."""

    __slots__ = ("key_fn", "ascending")
    concat_safe = True

    def __init__(self, key_fn, ascending):
        self.key_fn = key_fn
        self.ascending = ascending

    def __call__(self, bucket):
        return sorted(bucket, key=self.key_fn, reverse=not self.ascending)


class _RangePlan:
    """Deferred range-partitioner factory for ``sort_by``.

    Cut points depend on the parent's *data*, so the partitioner can
    only be planned once the parent is materialized; the runner calls
    this with the parent's partitions at exchange time.
    """

    __slots__ = ("key_fn", "ascending")

    def __init__(self, key_fn, ascending):
        self.key_fn = key_fn
        self.ascending = ascending

    def __call__(self, parts, num_buckets):
        return plan_range_partitioner(parts, num_buckets, self.key_fn,
                                      ascending=self.ascending)


class ShuffleSpec:
    """One wide dependency: map-side bucketing + reduce-side post op.

    ``bucket_fn`` of ``None`` means round-robin by global position
    unless a ``plan`` is set, in which case the runner derives a data-
    dependent partitioner (range sort) from the materialized parent.
    ``combiner`` — when present — pre-aggregates each map task's bucket
    before anything is shipped; ``post`` must then merge the partial
    aggregates (the classic Spark combiner contract).
    """

    __slots__ = ("bucket_fn", "post", "combiner", "plan")

    def __init__(self, bucket_fn, post, combiner=None, plan=None):
        self.bucket_fn = bucket_fn
        self.post = post
        self.combiner = combiner
        self.plan = plan


class RDD(Generic[T]):
    """A lazily evaluated, partitioned collection with Spark semantics."""

    def __init__(self, context, num_partitions: int,
                 parents: Tuple["RDD", ...] = (),
                 compute: Optional[Callable] = None,
                 wide: bool = False,
                 name: str = "rdd",
                 part_fn: Optional[Callable] = None,
                 shuffle: Optional[ShuffleSpec] = None,
                 join_how: Optional[str] = None):
        if num_partitions < 1:
            raise EngineError("an RDD needs at least one partition")
        self.context = context
        self.rdd_id = next(_rdd_ids)
        self.num_partitions = num_partitions
        self.parents = parents
        self._compute = compute
        self.part_fn = part_fn
        self.shuffle = shuffle
        self.join_how = join_how
        self.wide = wide or shuffle is not None or join_how is not None
        self.name = name
        self._cache_requested = False
        self._storage_level = "memory"
        self._checkpoint_requested = False

    # ------------------------------------------------------------------ misc
    def __repr__(self) -> str:
        return f"<RDD {self.rdd_id} {self.name} p={self.num_partitions}>"

    def persist(self, storage: str = "memory") -> "RDD[T]":
        """Keep computed partitions for reuse by later jobs.

        ``storage="memory"`` holds them in the context's LRU cache
        (subject to its byte budget, spilling to the DFS under
        pressure); ``storage="dfs"`` writes them through to MiniDfs
        immediately so they survive eviction.
        """
        if storage not in ("memory", "dfs"):
            raise EngineError(
                f"unknown storage level {storage!r}; use 'memory' or 'dfs'")
        self._cache_requested = True
        self._storage_level = storage
        return self

    def cache(self) -> "RDD[T]":
        """``persist("memory")`` — Spark's historical alias."""
        return self.persist("memory")

    def checkpoint(self) -> "RDD[T]":
        """Persist this RDD's partitions to the DFS and truncate lineage.

        On the next materialization the computed partitions are written
        atomically to the context's
        :class:`~repro.engine.checkpoint.CheckpointManager`; from then
        on jobs restore them from the checkpoint instead of walking
        lineage — even after the in-memory cache evicts them. Requires
        the context to have a checkpoint directory configured
        (``SparkLiteContext(checkpoint_dir=...)`` or
        ``set_checkpoint_dir``); raises :class:`EngineError` otherwise.

        Unlike Spark there is no separate ``persist`` requirement:
        checkpointing alone is enough for later jobs to reuse the data.
        """
        if self.context.checkpoint_manager is None:
            raise EngineError(
                "checkpoint() needs a checkpoint directory; construct the "
                "context with checkpoint_dir=... or call "
                "set_checkpoint_dir() first")
        self._checkpoint_requested = True
        return self

    @property
    def is_checkpointed(self) -> bool:
        """True once a committed checkpoint exists for this RDD."""
        manager = self.context.checkpoint_manager
        return manager is not None and self.rdd_id in manager

    def unpersist(self) -> "RDD[T]":
        self._cache_requested = False
        self.context.cache_manager.unpersist(self.rdd_id)
        return self

    # -------------------------------------------------------- narrow transforms
    def _narrow(self, op: Callable[[List[T]], List[U]], name: str) -> "RDD[U]":
        return RDD(self.context, self.num_partitions, (self,),
                   part_fn=op, name=name)

    def map(self, fn: Callable[[T], U]) -> "RDD[U]":
        return self._narrow(_MapOp(fn), "map")

    def filter(self, predicate: Callable[[T], bool]) -> "RDD[T]":
        return self._narrow(_FilterOp(predicate), "filter")

    def flat_map(self, fn: Callable[[T], Iterable[U]]) -> "RDD[U]":
        return self._narrow(_FlatMapOp(fn), "flatMap")

    def map_partitions(self, fn: Callable[[List[T]], Iterable[U]]) -> "RDD[U]":
        return self._narrow(_MapPartitionsOp(fn), "mapPartitions")

    def key_by(self, fn: Callable[[T], K]) -> "RDD[Tuple[K, T]]":
        return self._narrow(_KeyByOp(fn), "keyBy")

    def map_values(self, fn: Callable[[V], U]) -> "RDD[Tuple[K, U]]":
        return self._narrow(_MapValuesOp(fn), "mapValues")

    def flat_map_values(self, fn: Callable[[V], Iterable[U]]) -> "RDD":
        return self._narrow(_FlatMapValuesOp(fn), "flatMapValues")

    def union(self, other: "RDD[T]") -> "RDD[T]":
        if other.context is not self.context:
            raise EngineError("cannot union RDDs from different contexts")
        left_parts = self.num_partitions

        def compute(runner: "JobRunner", index: int) -> List[T]:
            if index < left_parts:
                return runner.partition(self, index)
            return runner.partition(other, index - left_parts)
        return RDD(self.context, left_parts + other.num_partitions,
                   (self, other), compute, name="union")

    def sample(self, fraction: float, seed: int = 0) -> "RDD[T]":
        if not 0.0 <= fraction <= 1.0:
            raise EngineError(f"fraction must be in [0, 1], got {fraction}")
        return self._narrow(_SampleOp(fraction, seed), "sample")

    # ---------------------------------------------------------- wide transforms
    def _shuffle(self, num_partitions: Optional[int],
                 bucket_fn: Optional[Callable[[T], Any]],
                 post: Callable[[List[T]], List[U]],
                 name: str,
                 combiner: Optional[Callable] = None,
                 plan: Optional[Callable] = None) -> "RDD[U]":
        parts = num_partitions or self.num_partitions
        if not self.context.shuffle_combine:
            combiner = None
        return RDD(self.context, parts, (self,),
                   shuffle=ShuffleSpec(bucket_fn, post, combiner, plan),
                   name=name)

    def repartition(self, num_partitions: int) -> "RDD[T]":
        return self._shuffle(num_partitions, None, _GatherOp(), "repartition")

    def distinct(self, num_partitions: Optional[int] = None) -> "RDD[T]":
        # map-side dedup: each map task ships each value at most once
        return self._shuffle(num_partitions, _identity, _DistinctOp(),
                             "distinct", combiner=_DistinctOp())

    def group_by_key(self, num_partitions: Optional[int] = None) -> "RDD":
        # no combiner: grouping moves every value by definition
        return self._shuffle(num_partitions, _pair_key, _GroupByKeyOp(),
                             "groupByKey")

    def reduce_by_key(self, fn: Callable[[V, V], V],
                      num_partitions: Optional[int] = None) -> "RDD":
        # map-side partial reduce; the same op merges partials reduce-side
        return self._shuffle(num_partitions, _pair_key, _ReduceByKeyOp(fn),
                             "reduceByKey", combiner=_ReduceByKeyOp(fn))

    def aggregate_by_key(self, zero: U, seq: Callable[[U, V], U],
                         comb: Callable[[U, U], U],
                         num_partitions: Optional[int] = None) -> "RDD":
        """Fold values per key. ``seq`` folds a value into an
        accumulator, ``comb`` merges two accumulators — with combining
        on, ``seq`` runs map-side and ``comb`` merges the shipped
        partials (Spark's combineByKey contract)."""
        if self.context.shuffle_combine:
            return self._shuffle(num_partitions, _pair_key,
                                 _ReduceByKeyOp(comb), "aggregateByKey",
                                 combiner=_AggregateByKeyOp(zero, seq, comb))
        return self._shuffle(num_partitions, _pair_key,
                             _AggregateByKeyOp(zero, seq, comb),
                             "aggregateByKey")

    def count_by_key_rdd(self, num_partitions: Optional[int] = None) -> "RDD":
        """Distributed key counting: ``(k, v) → (k, count)`` pairs.

        With combining on, each map task ships one ``(k, n)`` partial
        per distinct key instead of every raw pair."""
        if self.context.shuffle_combine:
            return self._shuffle(num_partitions, _pair_key,
                                 _ReduceByKeyOp(operator.add), "countByKey",
                                 combiner=_CountPairsOp())
        return self._shuffle(num_partitions, _pair_key, _CountPairsOp(),
                             "countByKey")

    def cogroup(self, other: "RDD", num_partitions: Optional[int] = None) -> "RDD":
        parts = num_partitions or max(self.num_partitions,
                                      other.num_partitions)

        def compute(runner: "JobRunner", index: int):
            left = runner.shuffle(self, parts, _pair_key, spec="pair")[index]
            right = runner.shuffle(other, parts, _pair_key, spec="pair")[index]
            grouped: Dict[Any, Tuple[List, List]] = defaultdict(
                lambda: ([], []))
            for k, v in left:
                grouped[k][0].append(v)
            for k, v in right:
                grouped[k][1].append(v)
            return list(grouped.items())
        return RDD(self.context, parts, (self, other), compute, wide=True,
                   name="cogroup")

    def _join_with(self, other: "RDD", how: str, name: str,
                   num_partitions: Optional[int]) -> "RDD":
        if other.context is not self.context:
            raise EngineError("cannot join RDDs from different contexts")
        parts = num_partitions or max(self.num_partitions,
                                      other.num_partitions)
        return RDD(self.context, parts, (self, other), join_how=how,
                   name=name)

    def join(self, other: "RDD", num_partitions: Optional[int] = None) -> "RDD":
        """Inner join on pair keys.

        Adaptive: when one side's serialized size fits under the
        context's ``broadcast_join_threshold``, it is collected into a
        driver-side hash table and probed against the other side with
        no shuffle at all; otherwise both sides hash-exchange.
        """
        return self._join_with(other, "inner", "join", num_partitions)

    def left_outer_join(self, other: "RDD",
                        num_partitions: Optional[int] = None) -> "RDD":
        return self._join_with(other, "left", "leftOuterJoin",
                               num_partitions)

    def sort_by(self, key_fn: Callable[[T], Any],
                ascending: bool = True,
                num_partitions: Optional[int] = None) -> "RDD[T]":
        """Parallel total sort via sampled range partitioning.

        Keys sampled from the materialized parent become cut points;
        every element shuffles to the bucket owning its key range and
        each bucket sorts independently — collected output is globally
        ordered, ties in input order (same bytes the old single-
        partition sort produced), but the work stays partitioned.
        """
        return self._shuffle(num_partitions, None,
                             _SortOp(key_fn, ascending), "sortBy",
                             plan=_RangePlan(key_fn, ascending))

    # ----------------------------------------------------------------- actions
    def collect(self) -> List[T]:
        return self.context._run_job(self)

    def count(self) -> int:
        # sums per-partition lengths; never flattens into one driver list
        return sum(len(p) for p in self.context._run_job_partitions(self))

    def take(self, n: int) -> List[T]:
        if n <= 0:
            return []
        return self.context._run_job_take(self, n)

    def first(self) -> T:
        result = self.take(1)
        if not result:
            raise EngineError("first() on an empty RDD")
        return result[0]

    def reduce(self, fn: Callable[[T, T], T]) -> T:
        data = self.collect()
        if not data:
            raise EngineError("reduce() on an empty RDD")
        acc = data[0]
        for x in data[1:]:
            acc = fn(acc, x)
        return acc

    def sum(self) -> float:
        return sum(self.collect())

    def mean(self) -> float:
        data = self.collect()
        if not data:
            raise EngineError("mean() on an empty RDD")
        return sum(data) / len(data)

    def top(self, n: int, key: Optional[Callable[[T], Any]] = None) -> List[T]:
        return sorted(self.collect(), key=key, reverse=True)[:n]

    def take_ordered(self, n: int,
                     key: Optional[Callable[[T], Any]] = None) -> List[T]:
        """The n smallest elements in sorted order (Spark's takeOrdered)."""
        import heapq
        if key is None:
            return heapq.nsmallest(n, self.collect())
        return heapq.nsmallest(n, self.collect(), key=key)

    def zip_with_index(self) -> "RDD[Tuple[T, int]]":
        """Pair each element with its global position (stable order)."""
        def compute(runner: "JobRunner", index: int) -> List[Tuple[T, int]]:
            parts = runner.all_partitions(self)
            offset = sum(len(p) for p in parts[:index])
            return [(x, offset + i) for i, x in enumerate(parts[index])]
        return RDD(self.context, self.num_partitions, (self,), compute,
                   name="zipWithIndex")

    def stats(self) -> Dict[str, float]:
        """count / mean / stdev / min / max of a numeric RDD, one pass."""
        def partial(part: List[T]) -> List[Tuple[int, float, float,
                                                 float, float]]:
            if not part:
                return []
            values = [float(x) for x in part]
            return [(len(values), sum(values),
                     sum(v * v for v in values),
                     min(values), max(values))]
        pieces = self.map_partitions(partial).collect()
        if not pieces:
            return {"count": 0, "mean": 0.0, "stdev": 0.0,
                    "min": 0.0, "max": 0.0}
        count = sum(p[0] for p in pieces)
        total = sum(p[1] for p in pieces)
        total_sq = sum(p[2] for p in pieces)
        mean = total / count
        variance = max(0.0, total_sq / count - mean * mean)
        return {"count": count, "mean": mean,
                "stdev": variance ** 0.5,
                "min": min(p[3] for p in pieces),
                "max": max(p[4] for p in pieces)}

    def histogram(self, num_buckets: int) -> Tuple[List[float], List[int]]:
        """Evenly spaced histogram over the RDD's numeric range."""
        if num_buckets < 1:
            raise EngineError("num_buckets must be >= 1")
        values = [float(x) for x in self.collect()]
        if not values:
            return [], []
        lo, hi = min(values), max(values)
        if hi == lo:
            return [lo, hi], [len(values)]
        width = (hi - lo) / num_buckets
        edges = [lo + i * width for i in range(num_buckets + 1)]
        counts = [0] * num_buckets
        for v in values:
            bucket = min(num_buckets - 1, int((v - lo) / width))
            counts[bucket] += 1
        return edges, counts

    def count_by_value(self) -> Dict[T, int]:
        return dict(self.key_by(_identity).count_by_key_rdd().collect())

    def count_by_key(self) -> Dict[Any, int]:
        return dict(self.count_by_key_rdd().collect())

    def collect_as_map(self) -> Dict[Any, Any]:
        return dict(self.collect())

    def save_as_json_dataset(self, dfs, directory: str) -> int:
        """Write each partition as one part file on the DFS."""
        from repro.dfs.jsonlines import encode_record
        partitions = self.context._run_job_partitions(self)
        for index, part in enumerate(partitions):
            lines = [encode_record(rec) for rec in part]
            dfs.write_atomic_text(
                f"{directory.rstrip('/')}/part-{index:05d}.jsonl",
                "\n".join(lines) + ("\n" if lines else ""))
        return sum(len(p) for p in partitions)


class JobRunner:
    """Evaluates one action: memoizes partitions and shuffles per job.

    Lineage is materialized bottom-up (topological order) from the driver
    thread, so partition tasks running on a backend only ever *read*
    their parents' already-computed results — nested pool submission (a
    classic pool deadlock) can't happen, and process-pool tasks receive
    their input data explicitly rather than through shared state.

    Partitions persisted via :meth:`RDD.persist` are served from the
    context's :class:`~repro.engine.cache.CacheManager`, and lineage
    walking stops at any node whose partitions the cache can supply —
    ancestors of a cached node are never touched.
    """

    def __init__(self, context):
        self.context = context
        self._partitions: Dict[int, List[List[Any]]] = {}
        self._shuffles: Dict[Tuple[int, int, str], List[List[Any]]] = {}
        self._shuffle_lock = threading.Lock()
        #: instrumentation for the job that just ran (see JobMetrics)
        self.metrics = JobMetrics(backend=context.backend.name)
        #: per-context job serial: with the stage ordinal it makes every
        #: batch's ``stage_key`` stable across reruns of the same program
        #: (RDD ids are process-global, so they would not be), which is
        #: what keeps injected engine faults seed-deterministic.
        self.job_serial = context.jobs_run
        #: shared-memory exchange: a job-scoped segment registry when the
        #: context's columnar engine decided shm is on, else None (all
        #: sealed payloads then travel inline through pickle walls)
        self.shm_registry = None
        if context.shm_enabled:
            from repro.engine.columnar import ShmRegistry
            self.shm_registry = ShmRegistry()
        #: adaptive planning (engine_adaptive=True): the context's
        #: AdaptivePlanner and a job-scoped StatsCollector
        self.adaptive = context.adaptive_planner
        self.stats = (StatsCollector(self.adaptive.sample_rows,
                                     metrics=self.metrics)
                      if self.adaptive is not None else None)
        #: the lineage analysis, built lazily from this job's action
        #: root: scan fusions always, shape safety for the planner
        self.plan = None
        self._metrics_lock = threading.Lock()

    def release_shuffle_segments(self) -> int:
        """Unlink every shm segment this job created (idempotent).

        Called from the context in a ``finally`` around each action —
        segments must survive until then because retried or speculative
        reduce tasks may re-read any block, but they must never outlive
        the job."""
        if self.shm_registry is None:
            return 0
        return self.shm_registry.release()

    def _stage_key(self, role: str) -> str:
        return f"j{self.job_serial}s{self.metrics.next_stage_id()}{role}"

    # ----------------------------------------------------------------- caching
    def _has_cache(self, rdd: RDD) -> bool:
        """Cheap peek: could this node's partitions come from a cache?

        A committed checkpoint counts: it is a materialized lineage
        boundary exactly like a cache entry, just durable.
        """
        if rdd.rdd_id in self._partitions:
            return True
        if rdd._cache_requested and rdd.rdd_id in self.context.cache_manager:
            return True
        if rdd._checkpoint_requested:
            ckpt = self.context.checkpoint_manager
            if ckpt is not None and rdd.rdd_id in ckpt:
                return True
        return False

    def _load_cached(self, rdd: RDD) -> bool:
        """Pull cached partitions into this job's memo; True on a hit.

        The memory cache is consulted first (cheap), then the DFS
        checkpoint — so a checkpointed RDD whose cached partitions were
        LRU-evicted restores from the checkpoint instead of recomputing
        its full lineage.
        """
        if rdd.rdd_id in self._partitions:
            return True
        results = None
        kind = STAGE_CACHED
        if rdd._cache_requested:
            manager = self.context.cache_manager
            if rdd.rdd_id in manager:
                results = manager.get(rdd.rdd_id)
        if results is None and rdd._checkpoint_requested:
            ckpt = self.context.checkpoint_manager
            if ckpt is not None:
                results = ckpt.get(rdd.rdd_id)
                kind = STAGE_CHECKPOINT
        if results is None:
            return False
        self._partitions[rdd.rdd_id] = results
        self._record_cached(rdd, kind)
        return True

    def _store_cache(self, rdd: RDD, results: List[List[Any]]) -> None:
        self.context.cache_manager.put(rdd.rdd_id, results,
                                       storage=rdd._storage_level)

    def _lineage(self, rdd: RDD) -> List[RDD]:
        """Ancestors-first topological order, pruned at cached nodes."""
        order: List[RDD] = []
        seen = set()

        def visit(node: RDD) -> None:
            if node.rdd_id in seen:
                return
            seen.add(node.rdd_id)
            if not self._has_cache(node):
                for parent in node.parents:
                    visit(parent)
            order.append(node)
        visit(rdd)
        return order

    def _record_cached(self, rdd: RDD, kind: str = STAGE_CACHED) -> None:
        self.metrics.record_stage(StageMetrics(
            stage_id=self.metrics.next_stage_id(), rdd_id=rdd.rdd_id,
            name=rdd.name, kind=kind,
            partitions=rdd.num_partitions, cache_hit=True))

    def _ensure_plan(self, rdd: RDD) -> None:
        """Analyze the job's lineage once, from the first action root.

        Reentrant ``all_partitions`` calls (generic computes pulling
        parents) keep the root's analysis — every node they touch is in
        the root's lineage, so consumer sets stay complete.
        """
        if self.plan is None:
            self.plan = analyze_job(rdd, self._has_cache,
                                    shape_safety=self.adaptive is not None)

    def record_scan_pushdown(self, bytes_skipped: int, fields_pruned: int,
                             filters: int = 0, projections: int = 0) -> None:
        """Thread-safe pushdown accounting (scan computes may run on the
        thread backend's pool)."""
        with self._metrics_lock:
            self.metrics.record_scan_pushdown(bytes_skipped, fields_pruned,
                                              filters, projections)

    def all_partitions(self, rdd: RDD) -> List[List[Any]]:
        if rdd.rdd_id not in self._partitions:
            self._ensure_plan(rdd)
            for node in self._lineage(rdd):
                self._materialize(node)
        return self._partitions[rdd.rdd_id]

    def _materialize(self, rdd: RDD) -> None:
        if rdd.rdd_id in self.plan.interior:
            # interior link of a fused scan chain: its sole consumer
            # reads straight from the DFS, so it never materializes
            return
        if self._load_cached(rdd):
            return
        backend = self.context.backend
        start = time.perf_counter()
        broadcast = False
        rec_in = rec_moved = b_moved = b_raw = b_shm = b_pick = 0
        broadcast_bytes = coalesced_from = coalesced_to = stage_splits = 0
        scan_skipped = scan_pruned = 0
        runs: List[Any] = []
        if rdd.rdd_id in self.plan.fusions:
            results, scan_skipped, scan_pruned = self._fused_scan(rdd)
            kind = STAGE_TASK
        elif rdd.part_fn is not None:
            inputs = self.all_partitions(rdd.parents[0])
            run = backend.run(self._narrow_op(rdd.part_fn), inputs,
                              stage_key=self._stage_key("n"))
            runs.append(run)
            results = run.results
            kind = STAGE_NARROW
        elif rdd.shuffle is not None:
            pieces, stats, exchange = self._exchange(rdd)
            rec_in, rec_moved, b_moved, b_raw, b_shm, b_pick = stats
            runs.append(exchange)
            plan = None
            if self.adaptive is not None:
                plan = self.adaptive.plan_reduce(
                    rdd.shuffle.post, pieces,
                    allow_coalesce=rdd.rdd_id in self.plan.shape_safe)
            if plan is None:
                post = backend.run(ReduceShuffleTask(rdd.shuffle.post),
                                   pieces, stage_key=self._stage_key("r"))
                runs.append(post)
                results = post.results
            else:
                results, post = self._run_reduce_plan(rdd, plan, pieces)
                runs.append(post)
                if plan.merged_away:
                    coalesced_from = rdd.num_partitions
                    coalesced_to = sum(1 for e in plan.entries
                                       if e[0] == "merge")
                stage_splits = plan.splits
            kind = STAGE_SHUFFLE
            self.metrics.record_shuffle(rec_in, b_moved, rec_moved, b_raw,
                                        b_shm, b_pick)
        elif rdd.join_how is not None:
            results, stats, runs, broadcast, broadcast_bytes = \
                self._join(rdd)
            rec_in, rec_moved, b_moved, b_raw, b_shm, b_pick = stats
            kind = STAGE_NARROW if broadcast else STAGE_SHUFFLE
        else:
            compute = rdd._compute
            if compute is None:
                raise EngineError(f"RDD {rdd!r} has no compute function")
            # closures read runner state: always in-process
            before = (self.metrics.shuffle_records,
                      self.metrics.shuffle_records_moved,
                      self.metrics.shuffle_bytes,
                      self.metrics.shuffle_bytes_raw,
                      self.metrics.shuffle_bytes_shm,
                      self.metrics.shuffle_bytes_pickled)
            results = backend.run_local(
                lambda i: compute(self, i), rdd.num_partitions)
            kind = STAGE_TASK
            # attribute driver-side shuffles (cogroup) to this stage
            rec_in = self.metrics.shuffle_records - before[0]
            rec_moved = self.metrics.shuffle_records_moved - before[1]
            b_moved = self.metrics.shuffle_bytes - before[2]
            b_raw = self.metrics.shuffle_bytes_raw - before[3]
            b_shm = self.metrics.shuffle_bytes_shm - before[4]
            b_pick = self.metrics.shuffle_bytes_pickled - before[5]
        self._partitions[rdd.rdd_id] = results
        if rdd._cache_requested:
            self._store_cache(rdd, results)
        if rdd._checkpoint_requested:
            self._store_checkpoint(rdd, results)
        if self.stats is not None:
            # stage-boundary sample: deterministic, driver-side, over the
            # deduplicated results — recomputed attempts can't re-count
            self.stats.observe(f"r{rdd.rdd_id}", results)
        stage = StageMetrics(
            stage_id=self.metrics.next_stage_id(), rdd_id=rdd.rdd_id,
            name=rdd.name, kind=kind, partitions=rdd.num_partitions,
            records_out=sum(len(p) for p in results),
            shuffle_records=rec_in, shuffle_records_moved=rec_moved,
            shuffle_bytes=b_moved, shuffle_bytes_raw=b_raw,
            shuffle_bytes_shm=b_shm, shuffle_bytes_pickled=b_pick,
            wall_s=time.perf_counter() - start, broadcast=broadcast,
            broadcast_bytes=broadcast_bytes,
            coalesced_from=coalesced_from, coalesced_to=coalesced_to,
            skew_splits=stage_splits,
            scan_bytes_skipped=scan_skipped,
            scan_fields_pruned=scan_pruned)
        for run in runs:
            stage.add_run(run)
        self.metrics.record_stage(stage)

    def _store_checkpoint(self, rdd: RDD, results: List[List[Any]]) -> None:
        ckpt = self.context.checkpoint_manager
        if ckpt is None or rdd.rdd_id in ckpt:
            return
        ckpt.put(rdd.rdd_id, results)
        self.metrics.checkpoint_writes += 1

    def partition(self, rdd: RDD, index: int) -> List[Any]:
        return self.all_partitions(rdd)[index]

    # ------------------------------------------------------- scan fusion
    def _fused_scan(self, rdd: RDD):
        """Materialize a fused scan terminal straight from the DFS.

        The fused chain's filter/map ops evaluate per decoded line
        inside the read (same order the unfused narrow stages would
        apply them, so results are identical); dropped lines count their
        on-disk bytes as skipped, dict-shrinking projections count the
        fields they cut.
        """
        from repro.dfs.jsonlines import read_part_pushdown
        fusion = self.plan.fusions[rdd.rdd_id]
        info = fusion.scan.scan_info
        dfs, paths, ops = info["dfs"], info["paths"], fusion.ops
        triples = self.context.backend.run_local(
            lambda i: read_part_pushdown(dfs, paths[i], ops), len(paths))
        results = [t[0] for t in triples]
        skipped = sum(t[1] for t in triples)
        pruned = sum(t[2] for t in triples)
        self.record_scan_pushdown(
            skipped, pruned,
            filters=sum(1 for k, _fn in ops if k == "filter"),
            projections=sum(1 for k, _fn in ops if k == "map"))
        return results, skipped, pruned

    # -------------------------------------------------- adaptive execution
    def _run_reduce_plan(self, rdd: RDD, plan, pieces):
        """Execute an adaptive reduce plan for one shuffle stage.

        Merge entries feed one task the concatenated piece lists of
        adjacent buckets (bucket order, map order within — the same
        stream the per-bucket tasks would see back to back); split
        entries fan a hot bucket's pieces across several tasks and fold
        the partial outputs back together. Entry order equals bucket
        order and the tail pads with empty partitions, so the declared
        partition count and the flattened element order both hold.
        """
        post_op = rdd.shuffle.post
        inputs: List[List[Any]] = []
        for entry in plan.entries:
            if entry[0] == "merge":
                inputs.append([p for b in entry[1] for p in pieces[b]])
            else:
                _kind, bucket, chunks = entry
                for lo, hi in chunks:
                    inputs.append(pieces[bucket][lo:hi])
        run = self.context.backend.run(ReduceShuffleTask(post_op), inputs,
                                       stage_key=self._stage_key("r"))
        outs = iter(run.results)
        results: List[List[Any]] = []
        for entry in plan.entries:
            if entry[0] == "merge":
                results.append(next(outs))
            else:
                partials = [next(outs) for _ in entry[2]]
                results.append(merge_split_outputs(post_op, partials))
        results.extend([] for _ in range(rdd.num_partitions - len(results)))
        self.metrics.record_adaptive_reduce(plan.merged_away, plan.splits,
                                            plan.split_tasks)
        return results, run

    # ------------------------------------------------------------------- take
    def take(self, rdd: RDD, n: int) -> List[Any]:
        """First ``n`` elements, scanning as few partitions as possible.

        A source RDD (per-partition compute, no parents — ``parallelize``
        slices, ``json_dataset`` part files) is evaluated one partition
        at a time and the scan stops as soon as ``n`` elements exist, so
        ``take(5)`` on a dataset reads one part file, not the directory.
        Derived RDDs still materialize (transforms may need every
        partition) but only the needed prefix is flattened.
        """
        gathered: List[List[Any]] = []
        count = 0
        self._ensure_plan(rdd)
        if (rdd._compute is not None and not rdd.parents
                and not rdd._cache_requested
                and not rdd._checkpoint_requested):
            start = time.perf_counter()
            scanned = 0
            for index in range(rdd.num_partitions):
                part = rdd._compute(self, index)
                gathered.append(part)
                count += len(part)
                scanned += 1
                if count >= n:
                    break
            self.metrics.record_stage(StageMetrics(
                stage_id=self.metrics.next_stage_id(), rdd_id=rdd.rdd_id,
                name=rdd.name, kind=STAGE_TASK, partitions=scanned,
                records_out=count, wall_s=time.perf_counter() - start))
        else:
            for part in self.all_partitions(rdd):
                gathered.append(part)
                count += len(part)
                if count >= n:
                    break
        return [x for part in gathered for x in part][:n]

    # ------------------------------------------------------------ narrow ops
    def _narrow_op(self, op):
        """Wrap an elementwise partition op for batch-at-a-time execution
        when the context runs columnar; whole-partition ops pass through
        untouched (batching them would change their results)."""
        if self.context.engine_columnar and getattr(op, "elementwise", False):
            return _BatchedOp(op, self.context.batch_rows)
        return op

    # ---------------------------------------------------------------- shuffles
    def _exchange(self, rdd: RDD):
        """Map-side exchange for a structured wide node.

        Resolves the partitioner (data-dependent range plan, round-robin,
        or CRC32 hash — unchanged placement), then delegates to
        :meth:`_exchange_parts`. The stage's reduce-side ``post`` op is
        handed along as the per-batch combiner's partial-merge function.
        """
        parts = self.all_partitions(rdd.parents[0])
        spec = rdd.shuffle
        num_buckets = rdd.num_partitions
        if spec.plan is not None:
            partitioner = spec.plan(parts, num_buckets)
        elif spec.bucket_fn is None:
            partitioner = None
        else:
            partitioner = HashPartitioner(spec.bucket_fn, num_buckets)
        return self._exchange_parts(parts, num_buckets, partitioner,
                                    spec.combiner,
                                    stage_key=self._stage_key("m"),
                                    merge=spec.post)

    def _exchange_parts(self, parts, num_buckets, partitioner,
                        combiner=None, stage_key=None, merge=None):
        """Bucket (+combine, +seal) every parent partition on the backend.

        Returns ``(pieces, (records_in, records_moved, bytes_moved,
        bytes_raw, bytes_shm, bytes_pickled), run)`` where ``pieces[b]``
        lists bucket ``b``'s payload from each map chunk in partition
        order — deterministic on every backend. Payloads are sealed
        blocks when the backend crosses a process boundary, compression
        is on, or the columnar engine runs (``BatchBlock``s then, shm-
        backed when the context enabled shared memory); otherwise plain
        lists that never cross a wall, whose byte volume is the
        planner's stride-sampled estimate (:func:`piece_nbytes`) —
        nothing is pickled just to be counted.
        """
        context = self.context
        backend = context.backend
        compress = context.shuffle_compress
        columnar = context.engine_columnar
        shm_prefix = (self.shm_registry.prefix
                      if self.shm_registry is not None else None)
        seal = bool(getattr(backend, "shuffle_blocks", False) or compress
                    or shm_prefix)
        op = MapShuffleTask(
            partitioner, num_buckets, combiner, seal, compress,
            context.shuffle_compress_threshold,
            columnar=columnar,
            batch_rows=context.batch_rows if columnar else 0,
            merge=merge if columnar else None,
            shm_prefix=shm_prefix)
        offsets = []
        offset = 0
        for part in parts:
            offsets.append(offset)
            offset += len(part)
        run = backend.run(op, list(zip(offsets, parts)),
                          stage_key=stage_key)
        pieces: List[List[Any]] = [[] for _ in range(num_buckets)]
        rec_in = rec_moved = b_moved = b_raw = b_shm = b_pick = 0
        for out in run.results:
            rec_in += out.records_in
            rec_moved += out.records_out
            for b, payload in enumerate(out.buckets):
                pieces[b].append(payload)
                if isinstance(payload, (ShuffleBlock, BatchBlock)):
                    b_moved += payload.nbytes
                    b_raw += payload.raw_bytes
                    b_shm += payload.shm_bytes
                    b_pick += payload.pickled_nbytes
                    if self.shm_registry is not None:
                        self.shm_registry.track(
                            getattr(payload, "shm_name", None))
        if not seal:
            b_moved = b_raw = b_pick = _estimated_bytes(pieces)
        return pieces, (rec_in, rec_moved, b_moved, b_raw, b_shm,
                        b_pick), run

    # ------------------------------------------------------------------- joins
    def _join(self, rdd: RDD):
        """Adaptive pair join: broadcast-hash when a side fits, else
        a two-sided hash exchange cogrouped per bucket.

        With the adaptive planner on, the broadcast decision comes from
        the *observed* sizes of both materialized sides (replacing the
        static threshold entirely); otherwise the configured
        ``broadcast_join_threshold`` applies as before.

        Returns ``(results, shuffle_stats, runs, broadcast,
        broadcast_bytes)`` — the caller folds each backend run's
        supervision counters into the stage row via
        :meth:`StageMetrics.add_run`.
        """
        left, right = rdd.parents
        how = rdd.join_how
        left_parts = self.all_partitions(left)
        right_parts = self.all_partitions(right)
        num_buckets = rdd.num_partitions
        backend = self.context.backend
        threshold = self.context.broadcast_join_threshold
        pick = None
        if self.adaptive is not None:
            pick = self._adaptive_broadcast_side(left, right, left_parts,
                                                 right_parts, how)
        elif threshold > 0:
            pick = self._broadcast_side(left_parts, right_parts, how,
                                        threshold)
        if pick is not None:
            small_is_right, table, table_bytes = pick
            big_parts = left_parts if small_is_right else right_parts
            run = backend.run(
                BroadcastHashJoinOp(table, how, small_is_right),
                list(big_parts), stage_key=self._stage_key("b"))
            self.metrics.record_broadcast_join(table_bytes)
            results = _reshape(run.results, num_buckets)
            return results, (0, 0, 0, 0, 0, 0), [run], True, table_bytes
        partitioner = HashPartitioner(_pair_key, num_buckets)
        pieces_l, stats_l, run_l = self._exchange_parts(
            left_parts, num_buckets, partitioner,
            stage_key=self._stage_key("l"))
        self.metrics.record_shuffle(stats_l[0], stats_l[2],
                                    stats_l[1], stats_l[3],
                                    stats_l[4], stats_l[5])
        pieces_r, stats_r, run_r = self._exchange_parts(
            right_parts, num_buckets, partitioner,
            stage_key=self._stage_key("r"))
        self.metrics.record_shuffle(stats_r[0], stats_r[2],
                                    stats_r[1], stats_r[3],
                                    stats_r[4], stats_r[5])
        post = backend.run(CogroupJoinTask(how),
                           list(zip(pieces_l, pieces_r)),
                           stage_key=self._stage_key("p"))
        stats = tuple(a + b for a, b in zip(stats_l, stats_r))
        return post.results, stats, [run_l, run_r, post], False, 0

    @staticmethod
    def _broadcast_side(left_parts, right_parts, how, threshold):
        """Pick a side to broadcast, or None when neither fits.

        The right side is always eligible; the left side only for inner
        joins (a left-outer join must emit unmatched *left* rows, which
        the probe side streams, so the left side has to stay big-side).
        A side fits when its exact pickled size is within ``threshold``
        (``None``: larger, and the count stopped there; 0: it would not
        pickle). Returns ``(small_is_right, table, serialized_bytes)``.
        """
        right_size = bounded_payload_bytes(right_parts, threshold)
        if right_size:
            return True, _hash_table(right_parts), right_size
        if how == "inner":
            left_size = bounded_payload_bytes(left_parts, threshold)
            if left_size:
                return False, _hash_table(left_parts), left_size
        return None

    def _adaptive_broadcast_side(self, left, right, left_parts,
                                 right_parts, how):
        """Observed-size broadcast decision (``engine_adaptive``).

        Both sides are already materialized, so their stage-boundary
        stats (exact counts, deterministic sampled sizes) are cached in
        the collector — the planner just compares them. The chosen
        side's *actual* serialized size is then measured exactly for the
        ``broadcast_bytes`` metric; a side that turns out unpicklable
        falls back to the hash exchange.
        """
        stats_l = self.stats.observe(f"r{left.rdd_id}", left_parts)
        stats_r = self.stats.observe(f"r{right.rdd_id}", right_parts)
        side = self.adaptive.choose_broadcast(stats_l, stats_r, how)
        if side is None:
            return None
        parts = right_parts if side == "right" else left_parts
        size = payload_bytes(parts)
        if size <= 0 and any(len(p) for p in parts):
            return None
        return side == "right", _hash_table(parts), size

    def shuffle(self, rdd: RDD, num_buckets: int,
                bucket_fn: Callable[[Any], Any],
                spec: str = "key") -> List[List[Any]]:
        """Driver-side shuffle memo for generic wide computes (cogroup).

        ``spec`` names the bucketing scheme so two different wide
        children of the same parent never collide in the memo.
        """
        key = (rdd.rdd_id, num_buckets, spec)
        with self._shuffle_lock:
            if key not in self._shuffles:
                buckets: List[List[Any]] = [[] for _ in range(num_buckets)]
                partitioner = HashPartitioner(bucket_fn, num_buckets)
                for part in self.all_partitions(rdd):
                    scatter(part, partitioner, buckets)
                self._shuffles[key] = buckets
                self.metrics.record_shuffle(
                    sum(len(bucket) for bucket in buckets),
                    _estimated_bytes([buckets]))
        return self._shuffles[key]


def _estimated_bytes(pieces: List[List[Any]]) -> int:
    """Sampled pickled size of an unsealed exchange, piece by piece —
    the planner's own estimate, so metrics and plans read one number."""
    return sum(piece_nbytes(piece) for plist in pieces for piece in plist)


def _hash_table(parts: List[List[Any]]) -> Dict[Any, List[Any]]:
    """Collect pair partitions into a key → values broadcast table."""
    table: Dict[Any, List[Any]] = {}
    for part in parts:
        for k, v in part:
            table.setdefault(k, []).append(v)
    return table


def _reshape(parts: List[List[Any]], num_partitions: int) -> List[List[Any]]:
    """Pad or fold a partition list to the node's declared width."""
    if len(parts) == num_partitions:
        return list(parts)
    if len(parts) < num_partitions:
        return list(parts) + [[] for _ in range(num_partitions - len(parts))]
    head = list(parts[:num_partitions - 1])
    tail = [x for part in parts[num_partitions - 1:] for x in part]
    head.append(tail)
    return head
