"""Structured job instrumentation: per-stage and per-job counters.

Every action run by :class:`~repro.engine.rdd.JobRunner` produces one
:class:`JobMetrics` holding a :class:`StageMetrics` row per materialized
RDD — what kind of stage it was (narrow / shuffle / task / cached), how
many partitions ran, how many records came out, how much shuffle data
moved, how long it took, and whether the process backend had to fall
back to in-driver execution because a closure would not pickle.

The context keeps the most recent job on ``last_job_metrics`` and a
bounded trace of past jobs that ``python -m repro ... --engine-metrics``
dumps as JSON.
"""

from __future__ import annotations

import json
from collections import deque
from dataclasses import dataclass, field
from typing import Any, Deque, Dict, List

#: stage kinds recorded by the runner
STAGE_NARROW = "narrow"          # partition-wise op, parent partition -> child
STAGE_SHUFFLE = "shuffle"        # map-side exchange + reduce-side post op
STAGE_TASK = "task"              # generic driver-side compute closure
STAGE_CACHED = "cached"          # partitions served from a cache() result
STAGE_CHECKPOINT = "checkpoint"  # partitions restored from a DFS checkpoint


@dataclass
class StageMetrics:
    """What one materialized RDD actually did during a job."""

    stage_id: int
    rdd_id: int
    name: str
    kind: str
    partitions: int = 0
    records_out: int = 0
    shuffle_records: int = 0        # records entering the exchange (pre-combine)
    shuffle_records_moved: int = 0  # records actually shipped (post-combine)
    shuffle_bytes: int = 0          # bytes actually moved (post-compress),
    #                                 including sealed-block envelopes
    shuffle_bytes_raw: int = 0      # serialized size before compression
    shuffle_bytes_shm: int = 0      # moved by shared-memory reference
    shuffle_bytes_pickled: int = 0  # moved through a pickle wall
    wall_s: float = 0.0
    cache_hit: bool = False
    fallback: bool = False
    broadcast: bool = False  # join served by a broadcast table, no shuffle
    broadcast_bytes: int = 0  # serialized size of the broadcast table
    # ---- adaptive-planner counters (see repro.engine.planner) ----
    coalesced_from: int = 0   # declared bucket count before coalescing
    coalesced_to: int = 0     # reduce groups that actually ran
    skew_splits: int = 0      # hot buckets split into parallel tasks
    scan_bytes_skipped: int = 0   # input bytes a pushed-down filter dropped
    scan_fields_pruned: int = 0   # dict fields a pushed-down projection cut
    attempts: int = 0   # task executions, including retried attempts
    retried: int = 0    # tasks that needed more than one attempt
    # ---- supervision counters (see repro.engine.supervisor) ----
    lost_executors: int = 0          # worker deaths observed (real/injected)
    recomputed_partitions: int = 0   # partitions relaunched after a loss
    speculative_launched: int = 0    # straggler backup attempts started
    speculative_won: int = 0         # backups that beat the original
    zombie_tasks: int = 0            # tasks past their deadline, replaced
    pool_rebuilds: int = 0           # process pools torn down and rebuilt

    def add_run(self, run: Any) -> None:
        """Fold one backend :class:`RunResult`'s counters into this stage.

        A stage can issue several runs (map exchange + reduce post, the
        legs of a cogroup), so counters accumulate rather than assign.
        """
        self.attempts += run.attempts
        self.retried += run.retried
        self.fallback = self.fallback or run.fell_back
        self.lost_executors += run.lost_executors
        self.recomputed_partitions += run.recomputed_partitions
        self.speculative_launched += run.speculative_launched
        self.speculative_won += run.speculative_won
        self.zombie_tasks += run.zombie_tasks
        self.pool_rebuilds += run.pool_rebuilds

    def as_dict(self) -> Dict[str, Any]:
        return {
            "stage_id": self.stage_id,
            "rdd_id": self.rdd_id,
            "name": self.name,
            "kind": self.kind,
            "partitions": self.partitions,
            "records_out": self.records_out,
            "shuffle_records": self.shuffle_records,
            "shuffle_records_moved": self.shuffle_records_moved,
            "shuffle_bytes": self.shuffle_bytes,
            "shuffle_bytes_raw": self.shuffle_bytes_raw,
            "shuffle_bytes_shm": self.shuffle_bytes_shm,
            "shuffle_bytes_pickled": self.shuffle_bytes_pickled,
            "wall_s": round(self.wall_s, 6),
            "cache_hit": self.cache_hit,
            "fallback": self.fallback,
            "broadcast": self.broadcast,
            "broadcast_bytes": self.broadcast_bytes,
            "coalesced_from": self.coalesced_from,
            "coalesced_to": self.coalesced_to,
            "skew_splits": self.skew_splits,
            "scan_bytes_skipped": self.scan_bytes_skipped,
            "scan_fields_pruned": self.scan_fields_pruned,
            "attempts": self.attempts,
            "retried": self.retried,
            "lost_executors": self.lost_executors,
            "recomputed_partitions": self.recomputed_partitions,
            "speculative_launched": self.speculative_launched,
            "speculative_won": self.speculative_won,
            "zombie_tasks": self.zombie_tasks,
            "pool_rebuilds": self.pool_rebuilds,
        }


class JobMetrics:
    """Counters for one job: what actually executed.

    Exposed on :class:`SparkLiteContext` as ``last_job_metrics`` so
    benchmarks (A1) and curious users can see how much work a lineage
    did — RDDs materialized, partition tasks run, records shuffled —
    without instrumenting their own closures. ``stages`` holds one
    :class:`StageMetrics` per materialized RDD, in execution order.
    """

    def __init__(self, backend: str = ""):
        self.backend = backend
        self.stages: List[StageMetrics] = []
        self.rdds_materialized = 0
        self.partitions_computed = 0
        self.shuffles = 0
        self.shuffle_records = 0
        self.shuffle_records_moved = 0
        self.shuffle_bytes = 0
        self.shuffle_bytes_raw = 0
        self.shuffle_bytes_shm = 0
        self.shuffle_bytes_pickled = 0
        self.broadcast_joins = 0
        self.broadcast_bytes = 0
        self.cached_hits = 0
        self.fallbacks = 0
        self.task_attempts = 0
        self.retried_tasks = 0
        self.lost_executors = 0
        self.recomputed_partitions = 0
        self.speculative_launched = 0
        self.speculative_won = 0
        self.zombie_tasks = 0
        self.pool_rebuilds = 0
        self.checkpoint_hits = 0
        self.checkpoint_writes = 0
        # ---- scan pushdown (every job whose lineage has a scan chain) ----
        self.scan_bytes_skipped = 0          # filter-pushdown bytes dropped
        self.scan_fields_pruned = 0          # projection-pushdown fields cut
        self.pushed_filters = 0              # filter ops fused into scans
        self.pushed_projections = 0          # map ops fused into scans
        # ---- adaptive planner (all zero when engine_adaptive is off) ----
        self.adaptive_coalesces = 0          # shuffle stages coalesced
        self.adaptive_partitions_merged = 0  # reduce buckets merged away
        self.skew_splits = 0                 # hot buckets split
        self.skew_split_tasks = 0            # reduce tasks the splits ran
        self.stats_sampled_partitions = 0    # stage-boundary samples taken
        self.stats_sampled_rows = 0          # rows pickled for estimates
        self.stats_repeat_observations = 0   # idempotent-guard cache hits
        self.wall_s = 0.0

    # ------------------------------------------------------------- recording
    def record_stage(self, stage: StageMetrics) -> StageMetrics:
        """Append one stage row and roll its counters into the job totals.

        Shuffle volume is *not* aggregated here — the runner reports it
        through :meth:`record_shuffle` at exchange time (a generic stage
        like cogroup can contain several shuffles), and the stage row
        merely carries its share for per-stage display.
        """
        self.stages.append(stage)
        if stage.cache_hit:
            if stage.kind == STAGE_CHECKPOINT:
                self.checkpoint_hits += 1
            else:
                self.cached_hits += 1
        else:
            self.rdds_materialized += 1
            self.partitions_computed += stage.partitions
        if stage.fallback:
            self.fallbacks += 1
        self.task_attempts += stage.attempts
        self.retried_tasks += stage.retried
        self.lost_executors += stage.lost_executors
        self.recomputed_partitions += stage.recomputed_partitions
        self.speculative_launched += stage.speculative_launched
        self.speculative_won += stage.speculative_won
        self.zombie_tasks += stage.zombie_tasks
        self.pool_rebuilds += stage.pool_rebuilds
        self.wall_s += stage.wall_s
        return stage

    def record_shuffle(self, records: int, nbytes: int,
                       records_moved: int = None,
                       raw_bytes: int = None,
                       shm_bytes: int = 0,
                       pickled_bytes: int = None) -> None:
        """One exchange: ``records`` entered it (pre-combine) and
        ``records_moved`` actually crossed it (defaults to ``records``
        when no combiner ran); ``nbytes`` moved on the wire against a
        ``raw_bytes`` uncompressed size. ``shm_bytes`` of that moved by
        shared-memory reference, the rest — ``pickled_bytes``, which
        defaults to all of ``nbytes`` — through a pickle wall."""
        self.shuffles += 1
        self.shuffle_records += records
        self.shuffle_records_moved += (records if records_moved is None
                                       else records_moved)
        self.shuffle_bytes += nbytes
        self.shuffle_bytes_raw += nbytes if raw_bytes is None else raw_bytes
        self.shuffle_bytes_shm += shm_bytes
        self.shuffle_bytes_pickled += (nbytes - shm_bytes
                                       if pickled_bytes is None
                                       else pickled_bytes)

    def record_broadcast_join(self, nbytes: int = 0) -> None:
        """One join served by a broadcast table of ``nbytes`` serialized
        bytes (the exact ``payload_bytes`` of the side that crossed)."""
        self.broadcast_joins += 1
        self.broadcast_bytes += nbytes

    def record_adaptive_reduce(self, merged_away: int, splits: int,
                               split_tasks: int) -> None:
        """One shuffle stage executed under an adaptive reduce plan."""
        if merged_away:
            self.adaptive_coalesces += 1
            self.adaptive_partitions_merged += merged_away
        self.skew_splits += splits
        self.skew_split_tasks += split_tasks

    def record_scan_pushdown(self, bytes_skipped: int, fields_pruned: int,
                             filters: int = 0, projections: int = 0) -> None:
        """One scan executed with filters/projections pushed into it."""
        self.scan_bytes_skipped += bytes_skipped
        self.scan_fields_pruned += fields_pruned
        self.pushed_filters += filters
        self.pushed_projections += projections

    def next_stage_id(self) -> int:
        return len(self.stages)

    # ------------------------------------------------------------ reporting
    def as_dict(self, include_stages: bool = False) -> Dict[str, Any]:
        out: Dict[str, Any] = {
            "rdds_materialized": self.rdds_materialized,
            "partitions_computed": self.partitions_computed,
            "shuffles": self.shuffles,
            "shuffle_records": self.shuffle_records,
            "shuffle_records_moved": self.shuffle_records_moved,
            "shuffle_bytes": self.shuffle_bytes,
            "shuffle_bytes_raw": self.shuffle_bytes_raw,
            "shuffle_bytes_shm": self.shuffle_bytes_shm,
            "shuffle_bytes_pickled": self.shuffle_bytes_pickled,
            "broadcast_joins": self.broadcast_joins,
            "broadcast_bytes": self.broadcast_bytes,
            "cached_hits": self.cached_hits,
            "fallbacks": self.fallbacks,
            "task_attempts": self.task_attempts,
            "retried_tasks": self.retried_tasks,
            "lost_executors": self.lost_executors,
            "recomputed_partitions": self.recomputed_partitions,
            "speculative_launched": self.speculative_launched,
            "speculative_won": self.speculative_won,
            "zombie_tasks": self.zombie_tasks,
            "pool_rebuilds": self.pool_rebuilds,
            "checkpoint_hits": self.checkpoint_hits,
            "checkpoint_writes": self.checkpoint_writes,
            "adaptive_coalesces": self.adaptive_coalesces,
            "adaptive_partitions_merged": self.adaptive_partitions_merged,
            "skew_splits": self.skew_splits,
            "skew_split_tasks": self.skew_split_tasks,
            "scan_bytes_skipped": self.scan_bytes_skipped,
            "scan_fields_pruned": self.scan_fields_pruned,
            "pushed_filters": self.pushed_filters,
            "pushed_projections": self.pushed_projections,
            "stats_sampled_partitions": self.stats_sampled_partitions,
            "stats_sampled_rows": self.stats_sampled_rows,
            "stats_repeat_observations": self.stats_repeat_observations,
            "backend": self.backend,
            "wall_s": round(self.wall_s, 6),
        }
        if include_stages:
            out["stages"] = [s.as_dict() for s in self.stages]
        return out

    def to_json(self, include_stages: bool = True, indent: int = 2) -> str:
        return json.dumps(self.as_dict(include_stages=include_stages),
                          indent=indent, sort_keys=True)


@dataclass
class MetricsTrace:
    """A bounded record of the jobs a context has run."""

    maxlen: int = 1024
    _jobs: Deque[JobMetrics] = field(default_factory=deque, repr=False)

    def append(self, job: JobMetrics) -> None:
        self._jobs.append(job)
        while len(self._jobs) > self.maxlen:
            self._jobs.popleft()

    def __len__(self) -> int:
        return len(self._jobs)

    def jobs(self) -> List[JobMetrics]:
        return list(self._jobs)

    def as_dict(self, include_stages: bool = True) -> Dict[str, Any]:
        return {"jobs": [j.as_dict(include_stages=include_stages)
                         for j in self._jobs]}

    def to_json(self, include_stages: bool = True, indent: int = 2) -> str:
        return json.dumps(self.as_dict(include_stages=include_stages),
                          indent=indent, sort_keys=True)
