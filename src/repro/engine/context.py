"""The entry point of the mini-Spark engine."""

from __future__ import annotations

from typing import Any, Callable, List, Optional, Sequence

from repro.dfs.jsonlines import decode_lines
from repro.engine.backends import (ExecutionBackend, SupervisePolicy,
                                   resolve_backend)
from repro.engine.cache import CacheManager
from repro.engine.checkpoint import CheckpointManager
from repro.engine.metrics import MetricsTrace
from repro.engine.columnar import DEFAULT_BATCH_ROWS, shm_available
from repro.engine.planner import (DEFAULT_BROADCAST_CAPACITY,
                                  DEFAULT_TARGET_PARTITION_BYTES,
                                  AdaptivePlanner)
from repro.engine.rdd import RDD, JobRunner
from repro.engine.shuffle import DEFAULT_COMPRESS_THRESHOLD
from repro.util.errors import EngineError


class SparkLiteContext:
    """Creates RDDs and executes jobs over a pluggable backend.

    Args:
        parallelism: worker count for the backend; also the default
            partition count for :meth:`parallelize`.
        backend: ``"serial"`` / ``"thread"`` / ``"process"`` or an
            :class:`~repro.engine.backends.ExecutionBackend` instance.
            Defaults to the thread backend — cheap and closure-friendly.
            Pick ``"process"`` for CPU-bound stages built from picklable
            (module-level) functions; pick ``"serial"`` as the reference
            semantics every other backend is differential-tested against.
        task_retries: per-partition task attempt budget beyond the
            first run (Spark-style deterministic re-execution). Extra
            attempts surface as ``task_attempts``/``retried_tasks`` in
            each job's metrics.
        shuffle_combine: run map-side combiners on stages that declare
            one (``reduce_by_key`` & co.). On by default; turning it off
            is for A/B measurement — results are identical either way.
        shuffle_compress: zlib-compress shuffle blocks whose serialized
            size is at least ``shuffle_compress_threshold`` bytes.
        broadcast_join_threshold: serialized-size ceiling (bytes) under
            which one side of a ``join`` is broadcast instead of
            shuffling both sides. 0 disables broadcast joins (default —
            platform configs opt in).
        cache_budget: LRU byte budget for ``persist()``-ed partitions;
            ``None`` means unbounded. Over-budget entries spill to
            ``cache_dfs`` when one is attached, else drop (recompute).
        cache_dfs: a :class:`~repro.dfs.filesystem.MiniDfs` for cache
            spill and ``persist(storage="dfs")``.
        task_deadline: wall-second budget per partition task; a task
            running longer is declared a zombie and replaced by an
            in-driver attempt (the job never wedges on a stuck
            executor). ``None`` disables deadlines.
        speculation: launch deterministic backup attempts for straggler
            tasks once three quarters of a stage has completed;
            first result wins, outputs stay byte-identical.
        engine_faults: a :class:`~repro.net.faults.FaultSchedule` whose
            engine specs (``kill_worker`` / ``hang_task``) are injected
            into partition tasks — chaos testing for the supervisor.
        checkpoint_dir: DFS directory for :meth:`RDD.checkpoint`;
            ``None`` leaves checkpointing unconfigured.
        checkpoint_dfs: the MiniDfs holding checkpoints (defaults to
            ``cache_dfs``).
        engine_columnar: run the columnar hot path — elementwise narrow
            ops execute batch-at-a-time, shuffle buckets combine per
            batch and seal into
            :class:`~repro.engine.columnar.BatchBlock`s. Results are
            byte-identical to the row engine (differential-tested);
            only the execution strategy changes.
        batch_rows: rows per record batch for the columnar engine
            (narrow-op slices, per-batch combiner chunks, batch-native
            dataset scans).
        shuffle_shm: move sealed columnar blocks through
            ``multiprocessing.shared_memory`` instead of pickling their
            bytes. ``None`` (default) auto-enables exactly when it
            helps: columnar engine on, a backend whose tasks live in
            other processes, and a platform that can create segments.
            ``False`` forces the pickle path; ``True`` requests shm but
            still degrades cleanly to pickled payloads when the
            platform refuses.
        engine_adaptive: adaptive, cost-based planning (see
            :mod:`repro.engine.planner`): runtime stats sampling at
            every stage boundary, post-shuffle coalescing of undersized
            reduce partitions, skew-split of hot buckets and an
            observed-size broadcast join decision that *replaces* the
            static ``broadcast_join_threshold``. (Filter/projection
            pushdown into dataset scans is not gated by this: every
            context fuses an unpersisted scan with the ``filter``/
            ``map`` chain that consumes it.) Action results stay
            byte-identical to the naive plans (differential-tested);
            only the physical execution — bytes moved, tasks run,
            part-file layout of saved datasets — changes.
        target_partition_bytes: the adaptive planner's coalesce/split
            target — merge adjacent reduce buckets until they reach
            this many serialized bytes, split hot buckets back down
            toward it.
        broadcast_capacity: serialized-size ceiling for the adaptive
            broadcast decision (only consulted when
            ``engine_adaptive`` is on).

    Note:
        Whatever the backend, the execution *model* is Spark's —
        partitions, stages, shuffles. The A1 ablation benchmark sweeps
        backends and partition counts to measure what each buys.
    """

    def __init__(self, parallelism: int = 4,
                 backend: Any = None,
                 task_retries: int = 0,
                 shuffle_combine: bool = True,
                 shuffle_compress: bool = False,
                 shuffle_compress_threshold: int = DEFAULT_COMPRESS_THRESHOLD,
                 broadcast_join_threshold: int = 0,
                 cache_budget: Optional[int] = None,
                 cache_dfs: Any = None,
                 task_deadline: Optional[float] = None,
                 speculation: bool = False,
                 engine_faults: Any = None,
                 checkpoint_dir: Optional[str] = None,
                 checkpoint_dfs: Any = None,
                 engine_columnar: bool = False,
                 batch_rows: int = DEFAULT_BATCH_ROWS,
                 shuffle_shm: Optional[bool] = None,
                 engine_adaptive: bool = False,
                 target_partition_bytes: int = DEFAULT_TARGET_PARTITION_BYTES,
                 broadcast_capacity: int = DEFAULT_BROADCAST_CAPACITY):
        if parallelism < 1:
            raise EngineError("parallelism must be >= 1")
        if batch_rows < 1:
            raise EngineError("batch_rows must be >= 1")
        if task_retries < 0:
            raise EngineError("task_retries must be >= 0")
        if broadcast_join_threshold < 0:
            raise EngineError("broadcast_join_threshold must be >= 0")
        if target_partition_bytes < 1:
            raise EngineError("target_partition_bytes must be >= 1")
        if broadcast_capacity < 0:
            raise EngineError("broadcast_capacity must be >= 0")
        if cache_budget is not None and cache_budget < 0:
            raise EngineError("cache_budget must be >= 0")
        if task_deadline is not None and task_deadline <= 0:
            raise EngineError("task_deadline must be > 0 seconds")
        self.parallelism = parallelism
        #: how every stage batch is supervised (see engine.supervisor)
        self.supervise_policy = SupervisePolicy(
            task_deadline_s=task_deadline,
            speculation=speculation,
            engine_faults=engine_faults)
        self.backend: ExecutionBackend = resolve_backend(
            backend, parallelism, task_retries, self.supervise_policy)
        self.shuffle_combine = shuffle_combine
        self.shuffle_compress = shuffle_compress
        self.shuffle_compress_threshold = shuffle_compress_threshold
        self.broadcast_join_threshold = broadcast_join_threshold
        self.engine_columnar = engine_columnar
        self.batch_rows = batch_rows
        self.shuffle_shm = shuffle_shm
        self.engine_adaptive = engine_adaptive
        #: the JobRunner consults this (None = every adaptive pass off)
        self.adaptive_planner = AdaptivePlanner(
            target_partition_bytes=target_partition_bytes,
            broadcast_capacity=broadcast_capacity) \
            if engine_adaptive else None
        #: cross-job partition store backing RDD.persist()/cache()
        self.cache_manager = CacheManager(budget_bytes=cache_budget,
                                          dfs=cache_dfs)
        #: durable lineage truncation backing RDD.checkpoint()
        self.checkpoint_manager: Optional[CheckpointManager] = None
        if checkpoint_dir is not None:
            self.set_checkpoint_dir(checkpoint_dir,
                                    checkpoint_dfs or cache_dfs)
        self._stopped = False
        self.jobs_run = 0
        #: JobMetrics of the most recent action (None before any job).
        self.last_job_metrics = None
        #: bounded per-job metrics history (``--engine-metrics`` dumps it)
        self.metrics_trace = MetricsTrace()
        #: dataset-scan RDDs keyed by (dfs, dir, part files) so repeated
        #: reads of one directory share a lineage node — and its cache
        self._datasets = {}

    @property
    def shm_enabled(self) -> bool:
        """Should exchanges back their sealed blocks with shared memory?

        Tri-state resolution of ``shuffle_shm``: an explicit ``False``
        wins outright; otherwise shm needs the columnar engine, a
        working ``multiprocessing.shared_memory``, and — when left on
        auto (``None``) — a backend whose tasks actually live in other
        processes (shm buys nothing on serial/thread).
        """
        if not self.engine_columnar or self.shuffle_shm is False:
            return False
        if self.shuffle_shm is None \
                and not getattr(self.backend, "supports_shm", False):
            return False
        return shm_available()

    def set_checkpoint_dir(self, directory: str, dfs: Any) -> None:
        """Configure where :meth:`RDD.checkpoint` persists partitions."""
        if dfs is None:
            raise EngineError(
                "checkpointing needs a MiniDfs; pass checkpoint_dfs= or "
                "cache_dfs= to the context")
        self.checkpoint_manager = CheckpointManager(dfs, directory)

    # ---------------------------------------------------------------- creation
    def parallelize(self, data: Sequence[Any],
                    num_partitions: Optional[int] = None) -> RDD:
        """Distribute an in-memory sequence into an RDD."""
        items = list(data)
        parts = max(1, min(num_partitions or self.parallelism,
                           max(1, len(items))))
        chunk = -(-len(items) // parts) if items else 1
        slices = [items[i * chunk:(i + 1) * chunk] for i in range(parts)]

        def compute(runner: JobRunner, index: int) -> List[Any]:
            return slices[index]
        return RDD(self, parts, (), compute, name="parallelize")

    def json_dataset(self, dfs, directory: str) -> RDD:
        """One RDD partition per DFS part file (like HDFS input splits).

        Scans of the same directory with the same part files return the
        *same* RDD node, so ``dataset.persist()`` in one analysis is
        honored when another analysis re-opens the directory — the
        pipeline reads each dataset once, not once per job.
        """
        paths = dfs.glob_parts(directory)
        if not paths:
            raise EngineError(f"no part files under {directory}")
        key = (id(dfs), directory, tuple(paths))
        rdd = self._datasets.get(key)
        if rdd is not None:
            return rdd

        def compute(runner: JobRunner, index: int) -> List[Any]:
            return decode_lines(dfs.read_text(paths[index]))
        rdd = RDD(self, len(paths), (), compute, name=f"json:{directory}")
        # lets the job runner fuse adjacent filter/map ops into the
        # read itself (repro.dfs.jsonlines.read_part_pushdown)
        rdd.scan_info = {"dfs": dfs, "paths": tuple(paths), "kind": "rows"}
        self._datasets[key] = rdd
        return rdd

    def json_batches(self, dfs, directory: str,
                     batch_rows: Optional[int] = None,
                     predicate: Optional[Callable] = None,
                     projection: Any = None) -> RDD:
        """Batch-native scan: one partition per part file, each a list
        of :class:`~repro.engine.columnar.RecordBatch`es of at most
        ``batch_rows`` records (defaults to the context's).

        ``flat_map(batch_to_rows)`` recovers the row view; pipelines
        that aggregate per batch skip the per-row object churn
        entirely.

        Explicit scan pushdown: ``predicate`` filters records during
        the read (their on-disk bytes count into the job's
        ``scan_bytes_skipped``); ``projection`` is a per-record
        callable or a sequence of field names to keep — the latter
        prunes whole columns from each built batch
        (``scan_fields_pruned`` counts the cut cells).
        """
        from repro.dfs.jsonlines import ScanCounters, read_part_batches
        paths = dfs.glob_parts(directory)
        if not paths:
            raise EngineError(f"no part files under {directory}")
        rows = batch_rows or self.batch_rows
        pushdown = ()
        if predicate is not None:
            pushdown += ("pred", id(predicate))
        if projection is not None:
            pushdown += (("proj", id(projection))
                         if callable(projection)
                         else ("proj", tuple(projection)))
        key = (id(dfs), directory, tuple(paths), "batches", rows, pushdown)
        rdd = self._datasets.get(key)
        if rdd is not None:
            return rdd

        def compute(runner: JobRunner, index: int) -> List[Any]:
            counters = ScanCounters()
            batches = read_part_batches(dfs, paths[index], rows,
                                        predicate=predicate,
                                        projection=projection,
                                        counters=counters)
            if predicate is not None or projection is not None:
                runner.record_scan_pushdown(
                    counters.bytes_skipped, counters.fields_pruned,
                    filters=1 if predicate is not None else 0,
                    projections=1 if projection is not None else 0)
            return batches
        rdd = RDD(self, len(paths), (), compute,
                  name=f"jsonb:{directory}")
        self._datasets[key] = rdd
        return rdd

    def json_files(self, dfs, paths: Sequence[str],
                   name: str = "files") -> RDD:
        """Scan an explicit list of JSON-lines files, one partition each.

        Unlike :meth:`json_dataset` this takes the exact file list, not
        a directory — the delta-aware incremental pipeline uses it to
        read only the delta parts an upsert dataset gained since a
        watermark (its deltas are not ``part-*`` files, and a directory
        scan would drag the whole base back in).
        """
        paths = list(paths)
        if not paths:
            raise EngineError("json_files needs at least one path")
        key = (id(dfs), "files", tuple(paths))
        rdd = self._datasets.get(key)
        if rdd is not None:
            return rdd

        def compute(runner: JobRunner, index: int) -> List[Any]:
            return decode_lines(dfs.read_text(paths[index]))
        rdd = RDD(self, len(paths), (), compute, name=f"jsonf:{name}")
        rdd.scan_info = {"dfs": dfs, "paths": tuple(paths), "kind": "rows"}
        self._datasets[key] = rdd
        return rdd

    def empty(self) -> RDD:
        return self.parallelize([])

    # ---------------------------------------------------------------- execution
    def _check_alive(self) -> None:
        if self._stopped:
            raise EngineError("context has been stopped")

    def _run_job_partitions(self, rdd: RDD) -> List[List[Any]]:
        self._check_alive()
        self.jobs_run += 1
        runner = JobRunner(self)
        try:
            result = runner.all_partitions(rdd)
        finally:
            # shm segments must not outlive the job, even a failed one —
            # decoded results are plain row lists with no references in
            runner.release_shuffle_segments()
        self.last_job_metrics = runner.metrics
        self.metrics_trace.append(runner.metrics)
        return result

    def _run_job(self, rdd: RDD) -> List[Any]:
        return [x for part in self._run_job_partitions(rdd) for x in part]

    def _run_job_take(self, rdd: RDD, n: int) -> List[Any]:
        """A short-circuiting job: stop once ``n`` elements are gathered."""
        self._check_alive()
        self.jobs_run += 1
        runner = JobRunner(self)
        try:
            result = runner.take(rdd, n)
        finally:
            runner.release_shuffle_segments()
        self.last_job_metrics = runner.metrics
        self.metrics_trace.append(runner.metrics)
        return result

    def stop(self) -> None:
        self.backend.close()
        self._stopped = True

    def __enter__(self) -> "SparkLiteContext":
        return self

    def __exit__(self, *exc_info) -> None:
        self.stop()
