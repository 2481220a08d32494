"""Adaptive, cost-based query planning from *observed* runtime statistics.

The engine's static plans pick everything up front: partition counts come
from the RDD declaration, the broadcast-vs-shuffle join choice from a
fixed byte threshold. This module closes the loop the way Spark's AQE
does — every decision is made *after* the stage feeding it has
materialized, from measured (not estimated) cardinalities and sampled
serialized sizes:

* :class:`StatsCollector` — samples per-partition cardinality and
  serialized size at each stage boundary. Sampling is deterministic
  (fixed-stride over the materialized partition, like
  ``plan_range_partitioner``) so retried or speculative attempts can
  never perturb a plan, and idempotent per stage key so supervisor
  recovery cannot double-count a recomputed partition.
* :meth:`AdaptivePlanner.plan_reduce` — **coalescing**: adjacent
  undersized reduce buckets merge toward ``target_partition_bytes``
  before the post op runs (hash/range buckets hold disjoint keys, so the
  concatenation of per-bucket post outputs equals the post output of the
  concatenated buckets for every built-in post op — see ``concat_safe``
  in ``rdd.py``); **skew splitting**: a bucket detected hot from the
  sealed-block size histogram is split at map-chunk boundaries into
  parallel reduce tasks whose partial outputs merge left-to-right with
  the same partial-merge the map-side combiner contract already
  guarantees (``partial_merge`` in ``rdd.py``).
* :meth:`AdaptivePlanner.choose_broadcast` — the join side to broadcast
  is chosen from the observed row counts and sampled sizes of both
  *materialized* sides, replacing the static threshold entirely when
  ``engine_adaptive`` is on.
* :func:`analyze_job` — per-job lineage analysis: which nodes may
  legally change partition boundaries (coalescing keeps the declared
  partition count by padding with trailing empties, so only
  whole-partition consumers like ``mapPartitions``/``sample`` and
  persisted nodes are unsafe), and which ``filter``/``map`` chains
  adjacent to a dataset scan fuse into the DFS read
  (filter/projection pushdown — dropped lines are counted as
  ``scan_bytes_skipped``, dict fields removed by a projection as
  ``scan_fields_pruned``). The second half needs nothing observed, so
  it is not adaptive at all: the runner asks for it on every job, and
  it is the only way an unpersisted scan chain runs.

Everything here is *plan-only*: the runner owns execution. The contract,
differential-tested across backends, is that an adaptive plan's action
results are byte-identical to the naive plan's while strictly less data
moves (fewer shuffled bytes on broadcast decisions, fewer scanned bytes
under pushdown, fewer reduce tasks under coalescing).
"""

from __future__ import annotations

import pickle
from collections import defaultdict
from typing import (Any, Callable, Dict, List, Optional, Sequence, Set,
                    Tuple)

from repro.engine.shuffle import PICKLING_ERRORS, stride_sample
from repro.util.errors import EngineError

__all__ = ["AdaptivePlanner", "StatsCollector", "PartitionStats",
           "ReducePlan", "JobPlan", "ScanFusion", "analyze_job",
           "estimate_rows_bytes", "piece_nbytes", "merge_split_outputs",
           "DEFAULT_TARGET_PARTITION_BYTES", "DEFAULT_BROADCAST_CAPACITY",
           "DEFAULT_SKEW_FACTOR", "DEFAULT_SAMPLE_ROWS"]

#: coalesce toward this many serialized bytes per reduce partition
DEFAULT_TARGET_PARTITION_BYTES = 1 << 20
#: ceiling for the observed-size broadcast join decision
DEFAULT_BROADCAST_CAPACITY = 8 << 20
#: a bucket is hot when over ``skew_factor`` x the median bucket size
DEFAULT_SKEW_FACTOR = 4.0
#: rows sampled per partition for serialized-size estimates
DEFAULT_SAMPLE_ROWS = 8


# ------------------------------------------------------------- size sampling
def estimate_rows_bytes(rows: Sequence[Any],
                        sample_rows: int = DEFAULT_SAMPLE_ROWS,
                        ) -> Tuple[Optional[int], int]:
    """Deterministic serialized-size estimate of a row list.

    Fixed-stride sampling (``rows[::stride]``, the same idiom the range
    partitioner uses) keeps the estimate a pure function of the
    partition's content — retries, speculation and backend choice cannot
    change it. Returns ``(estimated_bytes, rows_sampled)``;
    ``(None, 0)`` when the sample will not pickle (such a partition can
    never be broadcast, matching ``payload_bytes`` semantics).
    """
    if not rows:
        return 0, 0
    sample = stride_sample(rows, sample_rows)
    try:
        payload = pickle.dumps(sample, protocol=pickle.HIGHEST_PROTOCOL)
    except PICKLING_ERRORS:
        return None, 0
    est = max(1, int(len(payload) / len(sample) * len(rows)))
    return est, len(sample)


def piece_nbytes(payload: Any,
                 sample_rows: int = DEFAULT_SAMPLE_ROWS) -> int:
    """Serialized size of one exchange payload.

    Sealed blocks (``ShuffleBlock``/``BatchBlock``) carry their exact
    wire size; plain row lists (serial/thread backends without
    compression) fall back to the deterministic sampled estimate.
    """
    if payload is None:
        return 0
    nbytes = getattr(payload, "nbytes", None)
    if nbytes is not None:
        return nbytes
    est, _ = estimate_rows_bytes(payload, sample_rows)
    return est or 0


class PartitionStats:
    """Observed stats of one materialized RDD: exact per-partition row
    counts plus sampled serialized sizes. ``total_bytes`` is ``None``
    when any partition refused to pickle."""

    __slots__ = ("counts", "est_bytes")

    def __init__(self, counts: List[int], est_bytes: List[Optional[int]]):
        self.counts = counts
        self.est_bytes = est_bytes

    @property
    def total_rows(self) -> int:
        return sum(self.counts)

    @property
    def total_bytes(self) -> Optional[int]:
        total = 0
        for b in self.est_bytes:
            if b is None:
                return None
            total += b
        return total

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return (f"<PartitionStats parts={len(self.counts)} "
                f"rows={self.total_rows} bytes~{self.total_bytes}>")


class StatsCollector:
    """Samples cardinality/size at stage boundaries, exactly once each.

    ``observe`` is keyed (one key per materialized RDD per job) and
    idempotent: the first call samples and counts, every later call for
    the same key — a join re-reading an already-observed side, or any
    future recomputation path — returns the cached stats untouched and
    only bumps the repeat counter. That guard is what keeps supervisor
    recovery (lost executors, speculative attempts) from double-counting
    samples: stats are read from the *deduplicated* driver-side results,
    and even a second driver-side pass cannot re-add them.
    """

    def __init__(self, sample_rows: int = DEFAULT_SAMPLE_ROWS,
                 metrics: Any = None):
        if sample_rows < 1:
            raise EngineError("sample_rows must be >= 1")
        self.sample_rows = sample_rows
        self.metrics = metrics
        self._observed: Dict[str, PartitionStats] = {}

    def observe(self, key: str,
                parts: Sequence[Sequence[Any]]) -> PartitionStats:
        cached = self._observed.get(key)
        if cached is not None:
            if self.metrics is not None:
                self.metrics.stats_repeat_observations += 1
            return cached
        counts: List[int] = []
        est_bytes: List[Optional[int]] = []
        sampled = 0
        for part in parts:
            counts.append(len(part))
            est, n = estimate_rows_bytes(part, self.sample_rows)
            est_bytes.append(est)
            sampled += n
        stats = PartitionStats(counts, est_bytes)
        self._observed[key] = stats
        if self.metrics is not None:
            self.metrics.stats_sampled_partitions += len(counts)
            self.metrics.stats_sampled_rows += sampled
        return stats


# ------------------------------------------------------------- reduce plans
class ReducePlan:
    """How one shuffle's reduce side actually runs.

    ``entries`` covers every bucket in order; each entry is either
    ``("merge", (b0, b1, ...))`` — one reduce task over the adjacent
    buckets' concatenated pieces (a singleton tuple is a plain bucket) —
    or ``("split", b, ((lo, hi), ...))`` — several reduce tasks over
    slices of bucket ``b``'s piece list, merged post-hoc. Entry order
    equals bucket order, so the flattened output stream is unchanged.
    """

    __slots__ = ("entries", "merged_away", "splits", "split_tasks")

    def __init__(self, entries: List[Tuple], merged_away: int,
                 splits: int, split_tasks: int):
        self.entries = entries
        self.merged_away = merged_away
        self.splits = splits
        self.split_tasks = split_tasks


def merge_split_outputs(post: Callable, outputs: List[List[Any]]
                        ) -> List[Any]:
    """Merge the partial outputs of a split bucket back into one.

    ``partial_merge == "post"`` re-applies the post op to the running
    concatenation left-to-right — exactly the fold the map-side combiner
    contract already performs over shipped partials, so the merged
    result is the same bytes the unsplit bucket would have produced.
    ``partial_merge == "group"`` concatenates per-key value lists in
    first-seen key order (groupByKey's documented ordering).
    """
    if len(outputs) == 1:
        return outputs[0]
    mode = getattr(post, "partial_merge", None)
    if mode == "post":
        acc = outputs[0]
        for nxt in outputs[1:]:
            acc = post(acc + nxt)
        return acc
    if mode == "group":
        merged: Dict[Any, List[Any]] = {}
        for out in outputs:
            for k, values in out:
                if k in merged:
                    merged[k].extend(values)
                else:
                    merged[k] = list(values)
        return list(merged.items())
    raise EngineError(
        f"post op {type(post).__name__} declares no partial_merge; "
        "its buckets cannot be split")


# --------------------------------------------------------- lineage analysis
class ScanFusion:
    """One scan → filter/map chain fused into the DFS read."""

    __slots__ = ("scan", "ops", "interior_ids")

    def __init__(self, scan: Any, ops: Tuple[Tuple[str, Callable], ...],
                 interior_ids: Set[int]):
        self.scan = scan
        self.ops = ops
        self.interior_ids = interior_ids


class JobPlan:
    """What :func:`analyze_job` decided for one job's lineage."""

    __slots__ = ("shape_safe", "fusions", "interior")

    def __init__(self, shape_safe: Set[int],
                 fusions: Dict[int, ScanFusion], interior: Set[int]):
        #: rdd_ids whose output partition boundaries may change (with the
        #: declared count preserved via trailing empty partitions)
        self.shape_safe = shape_safe
        #: fused-scan terminal rdd_id -> ScanFusion
        self.fusions = fusions
        #: rdd_ids skipped entirely (scan + interior chain nodes)
        self.interior = interior


def analyze_job(root: Any, has_cache: Callable[[Any], bool],
                shape_safety: bool = True) -> JobPlan:
    """Walk the (cache-pruned) lineage of one action and decide which
    DFS scans fuse with their consumers and — for the adaptive planner,
    ``shape_safety`` — where partition boundaries may legally change.

    *Shape safety.* Coalescing keeps the declared partition count (the
    tail pads with empty partitions) and preserves the flattened element
    order, so a node's output shape may change iff every lineage
    consumer either (a) reshapes independently (shuffle / join children
    stop the propagation), or (b) is an elementwise narrow op whose own
    output is, recursively, shape-safe. Whole-partition ops
    (``mapPartitions`` sees the full list, ``sample`` seeds on its
    length), generic driver computes (``union`` / ``cogroup`` /
    ``zipWithIndex`` index partitions positionally) and any node whose
    partitions are persisted or checkpointed (the stored shape outlives
    this job) pin the naive shape.

    *Scan fusion.* A ``json_dataset``/``json_files`` scan whose sole
    lineage consumer is a chain of ``filter``/``map`` nodes fuses into
    the DFS read; the chain extends while each link has exactly one
    consumer and no persistence request. The terminal node's results are
    identical to the unfused chain (elementwise per-line evaluation), so
    the terminal may be cached or consumed by anything. Every job gets
    this half: it is how an unpersisted scan chain runs. A lineage
    without a scan node (``scan_info``) pays for the walk and nothing
    else.
    """
    order: List[Any] = []
    nodes: Dict[int, Any] = {}
    children: Dict[int, List[Any]] = defaultdict(list)
    seen: Set[int] = set()

    def visit(node: Any) -> None:
        if node.rdd_id in seen:
            return
        seen.add(node.rdd_id)
        nodes[node.rdd_id] = node
        if not has_cache(node):
            for parent in node.parents:
                children[parent.rdd_id].append(node)
                visit(parent)
        order.append(node)

    visit(root)
    scans = [node for node in order
             if getattr(node, "scan_info", None) is not None
             and node.scan_info.get("kind") == "rows"]
    if not scans and not shape_safety:
        return JobPlan(set(), {}, set())

    safe_memo: Dict[int, bool] = {}

    def output_shape_safe(node: Any) -> bool:
        cached = safe_memo.get(node.rdd_id)
        if cached is not None:
            return cached
        safe_memo[node.rdd_id] = False  # DAG; guard diamond revisits
        ok = not (node._cache_requested or node._checkpoint_requested)
        if ok:
            for child in children.get(node.rdd_id, ()):
                if child.shuffle is not None or child.join_how is not None:
                    continue
                part_fn = child.part_fn
                if part_fn is not None and getattr(part_fn, "elementwise",
                                                   False):
                    if output_shape_safe(child):
                        continue
                ok = False
                break
        safe_memo[node.rdd_id] = ok
        return ok

    shape_safe = ({nid for nid, node in nodes.items()
                   if output_shape_safe(node)} if shape_safety else set())

    fusions: Dict[int, ScanFusion] = {}
    interior: Set[int] = set()
    for node in scans:
        if (node._cache_requested or node._checkpoint_requested
                or has_cache(node)):
            continue
        chain: List[Tuple[Any, str, Callable]] = []
        cur = node
        while True:
            kids = children.get(cur.rdd_id, ())
            if len(kids) != 1:
                break
            child = kids[0]
            part_fn = child.part_fn
            kind = (getattr(part_fn, "pushdown_kind", None)
                    if part_fn is not None else None)
            if kind is None:
                break
            chain.append((child, kind, part_fn.fn))
            cur = child
            # a persisted terminal is fine (its results are identical);
            # the chain just must not extend past it
            if child._cache_requested or child._checkpoint_requested:
                break
        if not chain:
            continue
        terminal = chain[-1][0]
        ops = tuple((kind, fn) for _child, kind, fn in chain)
        interior_ids = {node.rdd_id}
        interior_ids.update(c.rdd_id for c, _k, _f in chain[:-1])
        fusions[terminal.rdd_id] = ScanFusion(node, ops, interior_ids)
        interior.update(interior_ids)
    return JobPlan(shape_safe, fusions, interior)


# --------------------------------------------------------------- the planner
class AdaptivePlanner:
    """Decision rules for the adaptive engine; pure planning, no I/O.

    All inputs are observed quantities — exact partition/bucket row
    counts, exact sealed-block sizes, deterministic sampled estimates —
    so the same data always yields the same plan on a given backend.
    """

    def __init__(self,
                 target_partition_bytes: int = DEFAULT_TARGET_PARTITION_BYTES,
                 broadcast_capacity: int = DEFAULT_BROADCAST_CAPACITY,
                 skew_factor: float = DEFAULT_SKEW_FACTOR,
                 sample_rows: int = DEFAULT_SAMPLE_ROWS):
        if target_partition_bytes < 1:
            raise EngineError("target_partition_bytes must be >= 1")
        if broadcast_capacity < 0:
            raise EngineError("broadcast_capacity must be >= 0")
        if skew_factor <= 1.0:
            raise EngineError("skew_factor must be > 1")
        self.target_partition_bytes = target_partition_bytes
        self.broadcast_capacity = broadcast_capacity
        self.skew_factor = skew_factor
        self.sample_rows = sample_rows

    # ---------------------------------------------------------- reduce side
    def plan_reduce(self, post: Callable,
                    pieces: List[List[Any]],
                    allow_coalesce: bool = True) -> Optional[ReducePlan]:
        """Plan one shuffle's reduce side from the sealed exchange.

        ``pieces[b]`` is bucket ``b``'s payload per map chunk, already
        materialized driver-side — sizes are exact for sealed blocks and
        deterministically sampled for plain lists. Returns ``None`` when
        the naive one-task-per-bucket plan is already right.
        """
        num_buckets = len(pieces)
        if num_buckets == 0:
            return None
        sizes = [sum(piece_nbytes(p, self.sample_rows) for p in plist)
                 for plist in pieces]
        hot = self._detect_skew(post, pieces, sizes)
        can_coalesce = (allow_coalesce and num_buckets > 1
                        and getattr(post, "concat_safe", False))
        entries: List[Tuple] = []
        merged_away = splits = split_tasks = 0
        target = self.target_partition_bytes
        b = 0
        while b < num_buckets:
            if b in hot:
                chunks = self._split_chunks(pieces[b])
                if len(chunks) >= 2:
                    entries.append(("split", b, tuple(chunks)))
                    splits += 1
                    split_tasks += len(chunks)
                else:
                    entries.append(("merge", (b,)))
                b += 1
                continue
            group = [b]
            acc = sizes[b]
            b += 1
            if can_coalesce:
                while (b < num_buckets and b not in hot
                       and acc + sizes[b] <= target):
                    group.append(b)
                    acc += sizes[b]
                    b += 1
            entries.append(("merge", tuple(group)))
            merged_away += len(group) - 1
        if merged_away == 0 and splits == 0:
            return None
        return ReducePlan(entries, merged_away, splits, split_tasks)

    def _detect_skew(self, post: Callable, pieces: List[List[Any]],
                     sizes: List[int]) -> Set[int]:
        """Hot buckets from the exchange's size histogram.

        A bucket is hot when it exceeds ``skew_factor`` x the median
        non-empty bucket *and* the coalesce target — and splitting it is
        only worth planning when the post op can merge partials and the
        bucket spans more than one map chunk (pieces are the split
        granularity)."""
        if getattr(post, "partial_merge", None) is None:
            return set()
        nonzero = sorted(s for s in sizes if s > 0)
        if len(nonzero) < 2:
            return set()
        median = nonzero[len(nonzero) // 2]
        floor = max(self.skew_factor * median, self.target_partition_bytes)
        return {b for b, size in enumerate(sizes)
                if size > floor
                and sum(1 for p in pieces[b] if piece_nbytes(p) > 0) >= 2}

    def _split_chunks(self, plist: List[Any]) -> List[Tuple[int, int]]:
        """Greedy piece-boundary split of one hot bucket toward the
        target bytes per chunk; chunk order preserves piece order so the
        left-to-right partial merge reproduces the sequential fold."""
        sizes = [piece_nbytes(p, self.sample_rows) for p in plist]
        chunks: List[Tuple[int, int]] = []
        lo = 0
        acc = 0
        for i, size in enumerate(sizes):
            if i > lo and acc + size > self.target_partition_bytes:
                chunks.append((lo, i))
                lo = i
                acc = 0
            acc += size
        chunks.append((lo, len(plist)))
        return chunks

    # ------------------------------------------------------------ join side
    def choose_broadcast(self, left_stats: PartitionStats,
                         right_stats: PartitionStats,
                         how: str) -> Optional[str]:
        """Pick the join side to broadcast from observed sizes.

        Returns ``"left"`` / ``"right"`` / ``None``. The right side is
        always eligible; the left only for inner joins (a left-outer
        join streams unmatched left rows from the probe side). A side
        whose sample refused to pickle (``total_bytes is None``) can
        never cross a broadcast wall. Of the eligible sides under the
        capacity, the smaller observed one wins — broadcasting the
        smaller side shuffles strictly fewer bytes than exchanging both.
        """
        candidates: List[Tuple[int, int, str]] = []
        right_bytes = right_stats.total_bytes
        if right_bytes is not None and right_bytes <= self.broadcast_capacity:
            candidates.append((right_bytes, right_stats.total_rows, "right"))
        if how == "inner":
            left_bytes = left_stats.total_bytes
            if (left_bytes is not None
                    and left_bytes <= self.broadcast_capacity):
                candidates.append((left_bytes, left_stats.total_rows,
                                   "left"))
        if not candidates:
            return None
        candidates.sort()
        return candidates[0][2]
