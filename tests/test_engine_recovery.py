"""Tests for partition-level recovery, checkpointing, speculation,
zombie deadlines, and the process-pool rebuild budget."""

import multiprocessing
import os
import threading
import time

import pytest

from repro.dfs.filesystem import MiniDfs
from repro.engine.backends import (ProcessBackend, SerialBackend,
                                   ThreadBackend)
from repro.engine import checkpoint
from repro.engine.checkpoint import CheckpointManager
from repro.engine.context import SparkLiteContext
from repro.engine.supervisor import (ExecutorLostError, SupervisePolicy,
                                     TaskSupervisor)
from repro.net.faults import (FAULT_KILL_WORKER, FaultSchedule, FaultSpec)
from repro.util.errors import EngineError

# module-level state registry: picklable functions, per-test state
_LOCK = threading.Lock()
_SEEN = set()


@pytest.fixture(autouse=True)
def _reset_registry():
    with _LOCK:
        _SEEN.clear()
    yield


def _double(x):
    return x * 2


def _die_in_worker(x):
    """Kills the hosting process unless it is the driver."""
    if multiprocessing.current_process().name != "MainProcess":
        os._exit(1)
    return x + 1


def _die_once_after_siblings(x):
    """Partition 3 waits for its siblings, then kills its worker once.

    The "died" marker is a file so the decision crosses the process
    boundary: the relaunched attempt (fresh worker or driver) sees the
    marker and computes normally. Sleeping first lets every *other*
    partition finish, so recovery has something to preserve.
    """
    if x == 3:
        marker = os.path.join(os.environ["REPRO_RECOVERY_MARKER_DIR"],
                              "died")
        if not os.path.exists(marker):
            with open(marker, "w"):
                pass
            time.sleep(0.4)
            if multiprocessing.current_process().name != "MainProcess":
                os._exit(1)
            raise ExecutorLostError("simulated executor loss")
    return x * 2


def _slow_once_on_seven(x):
    """x == 7 straggles on its first execution only."""
    with _LOCK:
        first = ("slow", x) not in _SEEN
        _SEEN.add(("slow", x))
    if x == 7 and first:
        time.sleep(0.5)
    return x * 3


def _hang_once_on_two(x):
    """x == 2 wedges past any reasonable deadline, first time only."""
    with _LOCK:
        first = ("hang", x) not in _SEEN
        _SEEN.add(("hang", x))
    if x == 2 and first:
        time.sleep(0.6)
    return x + 100


class TestPoolRebuildBudget:
    """Satellite: the rebuild budget is explicit and retry-independent."""

    def test_free_rebuild_even_with_zero_task_retries(self):
        # worker loss is not the task's fault: one rebuild comes free
        backend = ProcessBackend(parallelism=2, task_retries=0)
        try:
            run = backend.run(_die_in_worker, [1, 2, 3, 4])
            assert run.results == [2, 3, 4, 5]
            assert backend.pool_rebuilds == 1
            assert run.pool_rebuilds == 1
            assert run.fell_back  # second crash exhausted the budget
        finally:
            backend.close()

    def test_budget_independent_of_task_retries(self):
        # the old code granted max(1, task_retries) rebuilds; the budget
        # is its own knob now and retries don't inflate it
        backend = ProcessBackend(parallelism=2, task_retries=3)
        try:
            run = backend.run(_die_in_worker, [1, 2])
            assert run.results == [2, 3]
            assert backend.pool_rebuilds == 1
        finally:
            backend.close()

    def test_budget_zero_goes_straight_to_driver(self):
        backend = ProcessBackend(parallelism=2, task_retries=1,
                                 pool_rebuild_budget=0)
        try:
            run = backend.run(_die_in_worker, [1, 2, 3])
            assert run.results == [2, 3, 4]
            assert backend.pool_rebuilds == 0
            assert run.fell_back
        finally:
            backend.close()

    def test_budget_two_rebuilds_twice(self):
        backend = ProcessBackend(parallelism=2, task_retries=0,
                                 pool_rebuild_budget=2)
        try:
            run = backend.run(_die_in_worker, [1, 2])
            assert run.results == [2, 3]
            assert backend.pool_rebuilds == 2
        finally:
            backend.close()

    def test_negative_budget_rejected(self):
        with pytest.raises(EngineError):
            ProcessBackend(pool_rebuild_budget=-1)


class TestPartitionLevelRecovery:
    """A lost worker recomputes only the lost partitions."""

    def test_only_lost_partitions_recompute(self, tmp_path, monkeypatch):
        monkeypatch.setenv("REPRO_RECOVERY_MARKER_DIR", str(tmp_path))
        backend = ProcessBackend(parallelism=4, task_retries=0)
        try:
            run = backend.run(_die_once_after_siblings, [1, 2, 3, 4])
            assert run.results == [2, 4, 6, 8]
            assert run.lost_executors >= 1
            # strictly fewer than the full batch was relaunched: the
            # three partitions that finished before the crash were kept
            assert 1 <= run.recomputed_partitions < 4
            assert backend.pool_rebuilds == 1
            assert not run.fell_back
        finally:
            backend.close()

    def test_recovery_surfaces_in_job_metrics(self, tmp_path, monkeypatch):
        monkeypatch.setenv("REPRO_RECOVERY_MARKER_DIR", str(tmp_path))
        with SparkLiteContext(parallelism=4, backend="process") as sc:
            out = (sc.parallelize([1, 2, 3, 4], 4)
                   .map(_die_once_after_siblings).collect())
            assert out == [2, 4, 6, 8]
            metrics = sc.last_job_metrics
            assert metrics.lost_executors >= 1
            assert 1 <= metrics.recomputed_partitions < 4
            assert metrics.pool_rebuilds == 1

    @pytest.mark.parametrize("backend_name", ["serial", "thread"])
    def test_injected_executor_loss_recovers_in_process(self, backend_name):
        # a kill_worker fault on the in-process backends raises
        # ExecutorLostError; the supervisor relaunches the partition
        faults = FaultSchedule([FaultSpec(FAULT_KILL_WORKER, 0.999)],
                               seed=5)
        with SparkLiteContext(parallelism=2, backend=backend_name,
                              engine_faults=faults) as sc:
            out = sc.parallelize([1, 2, 3, 4], 4).map(_double).collect()
            assert out == [2, 4, 6, 8]
            metrics = sc.last_job_metrics
            assert metrics.lost_executors >= 1
            assert metrics.recomputed_partitions >= 1
            assert metrics.retried_tasks >= 1

    def test_loss_does_not_consume_task_retry_budget(self):
        # executor loss with task_retries=0 must still complete
        faults = FaultSchedule([FaultSpec(FAULT_KILL_WORKER, 0.999)],
                               seed=5)
        with SparkLiteContext(parallelism=1, backend="serial",
                              task_retries=0,
                              engine_faults=faults) as sc:
            assert sc.parallelize([5], 1).map(_double).collect() == [10]
            assert sc.last_job_metrics.lost_executors >= 1


def _pair_mod5(x):
    return (x % 5, x)


def _sum(a, b):
    return a + b


class TestColumnarShmRecovery:
    """Worker loss during a shared-memory exchange: only the lost
    partitions recompute, re-sealed segments replace the orphans, and
    the job-end sweep leaves ``/dev/shm`` clean."""

    @pytest.fixture(autouse=True)
    def _shm_or_skip(self):
        from repro.engine.columnar import shm_available
        if not shm_available():
            pytest.skip("no shared memory on this platform")

    def test_lost_worker_recomputes_only_lost_partitions(self, tmp_path,
                                                         monkeypatch):
        from repro.engine.columnar import SHM_BASE_PREFIX, list_segments
        monkeypatch.setenv("REPRO_RECOVERY_MARKER_DIR", str(tmp_path))
        with SparkLiteContext(parallelism=4, backend="process",
                              engine_columnar=True, batch_rows=2) as sc:
            out = (sc.parallelize([1, 2, 3, 4], 4)
                   .map(_die_once_after_siblings)
                   .map(_pair_mod5)
                   .reduce_by_key(_sum)
                   .collect())
            metrics = sc.last_job_metrics
        assert sorted(out) == [(1, 6), (2, 2), (3, 8), (4, 4)]
        assert metrics.lost_executors >= 1
        assert 1 <= metrics.recomputed_partitions < 4
        assert metrics.shuffle_bytes_shm > 0
        assert metrics.shuffle_bytes == \
            metrics.shuffle_bytes_shm + metrics.shuffle_bytes_pickled
        assert list_segments(SHM_BASE_PREFIX) == []

    def test_injected_loss_with_forced_shm_in_process(self):
        from repro.engine.columnar import SHM_BASE_PREFIX, list_segments
        faults = FaultSchedule([FaultSpec(FAULT_KILL_WORKER, 0.999)],
                               seed=5)
        with SparkLiteContext(parallelism=2, backend="serial",
                              engine_columnar=True, batch_rows=2,
                              shuffle_shm=True,
                              engine_faults=faults) as sc:
            out = (sc.parallelize([1, 2, 3, 4], 4)
                   .map(_pair_mod5).reduce_by_key(_sum).collect())
            metrics = sc.last_job_metrics
        assert sorted(out) == [(1, 1), (2, 2), (3, 3), (4, 4)]
        assert metrics.lost_executors >= 1
        assert metrics.recomputed_partitions >= 1
        assert list_segments(SHM_BASE_PREFIX) == []


class TestSpeculativeExecution:
    def test_straggler_gets_a_backup_that_wins(self):
        backend = ThreadBackend(parallelism=4)
        backend.configure(parallelism=4, task_retries=0,
                          policy=SupervisePolicy(
                              speculation=True,
                              speculation_min_runtime_s=0.05,
                              heartbeat_s=0.01))
        try:
            start = time.monotonic()
            run = backend.run(_slow_once_on_seven, [1, 2, 3, 7])
            elapsed = time.monotonic() - start
            assert run.results == [3, 6, 9, 21]
            assert run.speculative_launched >= 1
            assert run.speculative_won >= 1
            # the backup finished long before the 0.5s straggler
            assert elapsed < 0.45
        finally:
            backend.close()

    def test_no_speculation_on_uniform_stage(self):
        backend = ThreadBackend(parallelism=4)
        backend.configure(parallelism=4, task_retries=0,
                          policy=SupervisePolicy(speculation=True))
        try:
            run = backend.run(_double, [1, 2, 3, 4])
            assert run.results == [2, 4, 6, 8]
            assert run.speculative_launched == 0
            assert run.attempts == 4
        finally:
            backend.close()

    def test_outputs_identical_with_and_without_speculation(self):
        with SparkLiteContext(parallelism=2, backend="serial") as oracle:
            expected = (oracle.parallelize(range(40), 8)
                        .map(lambda x: (x % 5, x))
                        .reduce_by_key(lambda a, b: a + b).collect())
        with SparkLiteContext(parallelism=4, backend="thread",
                              speculation=True) as sc:
            got = (sc.parallelize(range(40), 8)
                   .map(lambda x: (x % 5, x))
                   .reduce_by_key(lambda a, b: a + b).collect())
        assert got == expected


class TestZombieDeadline:
    def test_wedged_task_is_replaced_in_driver(self):
        backend = ThreadBackend(parallelism=2)
        backend.configure(parallelism=2, task_retries=0,
                          policy=SupervisePolicy(task_deadline_s=0.15,
                                                 heartbeat_s=0.01))
        try:
            start = time.monotonic()
            run = backend.run(_hang_once_on_two, [1, 2])
            elapsed = time.monotonic() - start
            assert run.results == [101, 102]
            assert run.zombie_tasks == 1
            # the job finished on the replacement, not the 0.6s hang
            assert elapsed < 0.55
        finally:
            backend.close()

    def test_deadline_surfaces_in_job_metrics(self):
        with SparkLiteContext(parallelism=2, backend="thread",
                              task_deadline=0.15) as sc:
            out = sc.parallelize([1, 2], 2).map(_hang_once_on_two).collect()
            assert out == [101, 102]
            assert sc.last_job_metrics.zombie_tasks == 1

    def test_invalid_deadline_rejected(self):
        with pytest.raises(EngineError):
            SparkLiteContext(parallelism=1, task_deadline=0.0)


class TestCheckpoint:
    @pytest.fixture()
    def dfs(self):
        return MiniDfs(num_datanodes=2)

    @pytest.fixture()
    def sc(self, dfs):
        context = SparkLiteContext(parallelism=2,
                                   checkpoint_dir="/engine/checkpoints",
                                   checkpoint_dfs=dfs)
        yield context
        context.stop()

    def test_checkpoint_requires_a_directory(self):
        with SparkLiteContext(parallelism=1) as sc:
            with pytest.raises(EngineError):
                sc.parallelize([1]).checkpoint()

    def test_checkpoint_written_once_and_restored(self, sc, dfs):
        rdd = sc.parallelize(range(10), 2).map(_double).checkpoint()
        assert rdd.collect() == [x * 2 for x in range(10)]
        assert sc.last_job_metrics.checkpoint_writes == 1
        assert rdd.is_checkpointed
        ckpt_dir = f"/engine/checkpoints/rdd-{rdd.rdd_id}"
        assert len(dfs.listdir(ckpt_dir + "/")) == 3  # 2 parts + manifest
        # a later job restores from the checkpoint: zero recomputation
        assert rdd.count() == 10
        metrics = sc.last_job_metrics
        assert metrics.checkpoint_hits == 1
        assert metrics.rdds_materialized == 0
        # and it is not written again
        assert metrics.checkpoint_writes == 0

    def test_checkpoint_truncates_lineage(self, sc):
        base = sc.parallelize(range(8), 2).map(_double).checkpoint()
        base.collect()
        derived = base.map(lambda x: x + 1)
        assert derived.collect() == [x * 2 + 1 for x in range(8)]
        metrics = sc.last_job_metrics
        # only `derived` computed; base restored, its source untouched
        assert metrics.rdds_materialized == 1
        assert metrics.checkpoint_hits == 1

    def test_torn_checkpoint_recomputes_from_lineage(self, sc, dfs):
        rdd = sc.parallelize(range(6), 2).map(_double).checkpoint()
        rdd.collect()
        # tear the checkpoint: delete one committed part file
        part = f"/engine/checkpoints/rdd-{rdd.rdd_id}/part-00000.pkl.z"
        dfs.delete(part)
        assert rdd.collect() == [x * 2 for x in range(6)]
        metrics = sc.last_job_metrics
        assert metrics.checkpoint_hits == 0
        assert metrics.rdds_materialized >= 1

    def test_manager_round_trip_and_commit_order(self, dfs):
        manager = CheckpointManager(dfs, "/ckpt")
        parts = [[1, 2], [], [{"k": "v"}]]
        manager.put(7, parts)
        assert 7 in manager
        assert manager.get(7) == parts
        assert manager.num_partitions(7) == 3
        # the manifest is the commit point: without it, no checkpoint
        dfs.delete("/ckpt/rdd-7/_meta.json")
        assert 7 not in manager
        assert manager.get(7) is None

    def test_unreadable_checkpoint_counts_its_cause(self, dfs):
        manager = CheckpointManager(dfs, "/ckpt")
        manager.put(1, [[1], [2]])
        dfs.write_atomic("/ckpt/rdd-1/part-00001.pkl.z", b"not zlib")
        assert manager.get(1) is None
        dfs.delete("/ckpt/rdd-1/part-00000.pkl.z")
        assert manager.get(1) is None
        dfs.write_atomic_text("/ckpt/rdd-1/_meta.json", "{torn")
        assert 1 not in manager
        assert manager.unreadable == {
            "zlib.error": 1, "repro.util.errors.NotFoundError": 1,
            "json.decoder.JSONDecodeError": 1}
        assert manager.hits == 0

    def test_a_bug_while_restoring_propagates(self, dfs, monkeypatch):
        manager = CheckpointManager(dfs, "/ckpt")
        manager.put(1, [[1], [2]])

        def broken(payload):
            raise TypeError("a bug, not a torn checkpoint")
        monkeypatch.setattr(checkpoint.pickle, "loads", broken)
        with pytest.raises(TypeError):
            manager.get(1)
        assert not manager.unreadable

    def test_delete_removes_all_files(self, dfs):
        manager = CheckpointManager(dfs, "/ckpt")
        manager.put(3, [[1], [2]])
        manager.delete(3)
        assert 3 not in manager
        assert dfs.listdir("/ckpt/rdd-3/") == []


class TestCheckpointSurvivesCacheEviction:
    """Satellite: evicted cache + checkpoint => restore, not recompute."""

    def test_evicted_cache_restores_from_checkpoint(self):
        dfs = MiniDfs(num_datanodes=2)
        # cache budget of one byte: everything is evicted immediately,
        # and with no cache_dfs attached evicted entries are dropped
        with SparkLiteContext(parallelism=2, cache_budget=1,
                              checkpoint_dir="/engine/checkpoints",
                              checkpoint_dfs=dfs) as sc:
            rdd = sc.parallelize(range(12), 3).map(_double)
            rdd.persist()
            rdd.checkpoint()
            expected = [x * 2 for x in range(12)]
            assert rdd.collect() == expected
            assert sc.last_job_metrics.checkpoint_writes == 1
            assert rdd.rdd_id not in sc.cache_manager  # LRU evicted it
            assert rdd.collect() == expected
            metrics = sc.last_job_metrics
            # restored from the checkpoint: nothing was recomputed
            assert metrics.rdds_materialized == 0
            assert metrics.checkpoint_hits == 1
            assert metrics.cached_hits == 0


class TestSupervisorUnit:
    def test_serial_path_preserves_order(self):
        sup = TaskSupervisor(_double, [3, 1, 2], retries=0)
        run = sup.run_serial()
        assert run.results == [6, 2, 4]
        assert run.attempts == 3 and run.retried == 0

    def test_pool_path_preserves_order(self):
        from concurrent.futures import ThreadPoolExecutor
        with ThreadPoolExecutor(max_workers=3) as pool:
            sup = TaskSupervisor(_double, list(range(20)), retries=0)
            run = sup.run_pool(pool.submit)
        assert run.results == [x * 2 for x in range(20)]
        assert run.attempts == 20 and run.retried == 0

    def test_policy_inactive_by_default(self):
        policy = SupervisePolicy()
        assert not policy.active
        assert not policy.monitoring
        deadline = SupervisePolicy(task_deadline_s=1.0)
        assert deadline.active and deadline.monitoring
        faulty = SupervisePolicy(
            engine_faults=FaultSchedule([FaultSpec(FAULT_KILL_WORKER, 0.5)],
                                        seed=0))
        assert faulty.active and not faulty.monitoring
