"""Pluggable execution backends for the SparkLite engine.

The engine's job runner hands each stage to an :class:`ExecutionBackend`
as a batch of independent tasks — ``fn`` applied to each element of
``inputs``. Three implementations ship:

* :class:`SerialBackend` — one task at a time on the driver thread.
  The reference semantics every other backend is tested against.
* :class:`ThreadBackend` — a ``ThreadPoolExecutor``. The historical
  behaviour: cheap, shares memory, but GIL-bound for CPU work.
* :class:`ProcessBackend` — a ``ProcessPoolExecutor``. Partition tasks
  are pickled to worker processes, so CPU-bound stages scale past the
  GIL *when the stage's functions pickle* (module-level functions,
  ``operator`` callables, the engine's own operator objects). Tasks
  that will not pickle — lambdas, local closures — transparently fall
  back to in-driver execution, and the fallback is counted in the
  job's metrics rather than hidden.

Fault tolerance is delegated to the
:class:`~repro.engine.supervisor.TaskSupervisor`, which watches each
partition task individually: per-task attempt budgets (``task_retries``
deterministic re-executions), per-task deadlines with zombie
replacement, quantile-based speculative execution, and fine-grained
executor-loss recovery. The process backend survives crashed workers at
partition granularity — a ``BrokenProcessPool`` tears the pool down,
rebuilds it (bounded by ``pool_rebuild_budget``), and relaunches *only
the unresolved partitions*; results already gathered are never
recomputed. Everything the supervisor observed surfaces in
:class:`~repro.engine.metrics.JobMetrics` (``task_attempts``,
``retried_tasks``, ``lost_executors``, ``recomputed_partitions``,
``speculative_launched``/``_won``, ``zombie_tasks``,
``pool_rebuilds``).

Backends are selected by name (``"serial"`` / ``"thread"`` /
``"process"``) or by passing an instance to
``SparkLiteContext(backend=...)``.
"""

from __future__ import annotations

import pickle
from concurrent.futures import ProcessPoolExecutor, ThreadPoolExecutor
from typing import Any, Callable, List, Optional

from repro.engine.shuffle import PICKLING_ERRORS
from repro.engine.supervisor import (ExecutorLostError, RunResult,
                                     SupervisePolicy, TaskSupervisor,
                                     _Attempted)
from repro.util.errors import EngineError

__all__ = ["RunResult", "ExecutionBackend", "SerialBackend",
           "ThreadBackend", "ProcessBackend", "BACKENDS",
           "resolve_backend", "ExecutorLostError", "SupervisePolicy"]


class ExecutionBackend:
    """How a stage's partition tasks are executed.

    ``run`` applies a picklable-or-not callable to each input element
    and returns a :class:`RunResult`; ``run_local`` is for driver
    closures that must stay in-process (they read the job runner's
    state) and therefore never cross a process boundary.
    """

    name = "abstract"
    #: True when partition tasks cross a process boundary, i.e. shuffle
    #: payloads should be sealed into ShuffleBlocks (serialize-once)
    #: instead of re-pickled as raw record lists on every hop.
    shuffle_blocks = False
    #: True when tasks run in other processes on the same machine, so a
    #: columnar exchange can move sealed batches through
    #: ``multiprocessing.shared_memory`` instead of pickling the bytes.
    #: Serial/thread backends share the driver heap — shm would only
    #: add copies there.
    supports_shm = False

    def __init__(self, parallelism: Optional[int] = None,
                 task_retries: Optional[int] = None):
        self._parallelism = parallelism
        self._task_retries = task_retries
        self._policy: Optional[SupervisePolicy] = None

    # ------------------------------------------------------------ lifecycle
    def configure(self, parallelism: int, task_retries: int = 0,
                  policy: Optional[SupervisePolicy] = None) -> None:
        """Adopt the context's settings unless explicit ones were given."""
        if self._parallelism is None:
            self._parallelism = parallelism
        if self._task_retries is None:
            self._task_retries = task_retries
        if policy is not None:
            self._policy = policy

    @property
    def parallelism(self) -> int:
        return self._parallelism or 1

    @property
    def task_retries(self) -> int:
        return self._task_retries or 0

    @property
    def policy(self) -> SupervisePolicy:
        if self._policy is None:
            self._policy = SupervisePolicy()
        return self._policy

    def close(self) -> None:  # pragma: no cover - trivial default
        pass

    # ------------------------------------------------------------ execution
    def supervisor(self, fn: Callable[[Any], Any], inputs: List[Any],
                   stage_key: Optional[str] = None) -> TaskSupervisor:
        return TaskSupervisor(fn, inputs, self.task_retries, self.policy,
                              stage_key)

    def run(self, fn: Callable[[Any], Any], inputs: List[Any],
            stage_key: Optional[str] = None) -> RunResult:
        raise NotImplementedError

    def run_local(self, fn: Callable[[int], Any], count: int) -> List[Any]:
        raise NotImplementedError


class SerialBackend(ExecutionBackend):
    """Everything on the driver thread — the semantics oracle."""

    name = "serial"

    def run(self, fn, inputs, stage_key=None):
        return self.supervisor(fn, inputs, stage_key).run_serial()

    def run_local(self, fn, count):
        wrapped = _Attempted(fn, self.task_retries)
        return [wrapped(i)[1] for i in range(count)]


class ThreadBackend(ExecutionBackend):
    """A thread pool: concurrency without pickling constraints."""

    name = "thread"

    def __init__(self, parallelism: Optional[int] = None,
                 task_retries: Optional[int] = None):
        super().__init__(parallelism, task_retries)
        self._pool: Optional[ThreadPoolExecutor] = None

    def _ensure_pool(self) -> Optional[ThreadPoolExecutor]:
        if self.parallelism <= 1:
            return None
        if self._pool is None:
            self._pool = ThreadPoolExecutor(max_workers=self.parallelism)
        return self._pool

    def run(self, fn, inputs, stage_key=None):
        watcher = self.supervisor(fn, inputs, stage_key)
        pool = self._ensure_pool()
        if pool is None or len(inputs) <= 1:
            return watcher.run_serial()
        return watcher.run_pool(pool.submit)

    def run_local(self, fn, count):
        wrapped = _Attempted(fn, self.task_retries)
        pool = self._ensure_pool()
        if pool is None or count <= 1:
            return [wrapped(i)[1] for i in range(count)]
        return [result for _a, result in pool.map(wrapped, range(count))]

    def close(self):
        if self._pool is not None:
            self._pool.shutdown(wait=True)
            self._pool = None


class ProcessBackend(ExecutionBackend):
    """A process pool: true parallelism for picklable partition tasks.

    Unpicklable tasks (closures over local state) run in-driver and are
    reported via ``fell_back`` so :class:`JobMetrics` can count them —
    the engine never fails a job over a pickling constraint.

    Worker crashes are recovered at partition granularity: a
    ``BrokenProcessPool`` discards the dead pool, and — up to
    ``pool_rebuild_budget`` times per batch — builds a fresh one and
    relaunches only the partitions whose results were lost. The budget
    is deliberately *independent of* ``task_retries``: losing a worker
    is never the task's fault, so even ``task_retries=0`` gets one free
    rebuild (the pre-supervisor code expressed this as
    ``rebuilds_left = max(1, task_retries)``; the coupling was
    accidental and is now an explicit constructor knob). Once the
    budget is exhausted the remaining partitions finish in-driver with
    ``fell_back`` set. Rebuilds are counted separately from retries in
    ``JobMetrics.pool_rebuilds``.
    """

    name = "process"
    shuffle_blocks = True
    supports_shm = True

    def __init__(self, parallelism: Optional[int] = None,
                 task_retries: Optional[int] = None,
                 chunked: bool = True,
                 pool_rebuild_budget: int = 1):
        super().__init__(parallelism, task_retries)
        #: legacy knob from the pool.map era; supervised runs submit one
        #: future per partition (recovery needs per-task granularity),
        #: so chunking no longer changes execution. Accepted for compat.
        self.chunked = chunked
        if pool_rebuild_budget < 0:
            raise EngineError(f"pool_rebuild_budget must be >= 0, "
                              f"got {pool_rebuild_budget}")
        #: fresh pools granted per batch after worker crashes
        self.pool_rebuild_budget = pool_rebuild_budget
        self._pool: Optional[ProcessPoolExecutor] = None
        #: how many times a broken pool was torn down and rebuilt
        self.pool_rebuilds = 0

    def _ensure_pool(self) -> ProcessPoolExecutor:
        if self._pool is None:
            self._pool = ProcessPoolExecutor(max_workers=self.parallelism)
        return self._pool

    @staticmethod
    def _picklable(obj: Any) -> bool:
        try:
            pickle.dumps(obj)
            return True
        except PICKLING_ERRORS:
            return False

    def _submit(self, task, arg):
        return self._ensure_pool().submit(task, arg)

    def run(self, fn, inputs, stage_key=None):
        watcher = self.supervisor(fn, inputs, stage_key)
        if self.parallelism <= 1 or len(inputs) <= 1:
            return watcher.run_serial()
        if not self._picklable(_Attempted(fn, self.task_retries)):
            return watcher.run_serial(fell_back=True)
        rebuilds_left = [self.pool_rebuild_budget]

        def recover() -> bool:
            self._pool = None  # the old pool is dead; drop it
            if rebuilds_left[0] <= 0:
                return False
            rebuilds_left[0] -= 1
            self.pool_rebuilds += 1
            return True

        return watcher.run_pool(self._submit, recover)

    def run_local(self, fn, count):
        # Driver closures read runner state; never cross the pickle wall.
        wrapped = _Attempted(fn, self.task_retries)
        return [wrapped(i)[1] for i in range(count)]

    def close(self):
        if self._pool is not None:
            self._pool.shutdown(wait=True)
            self._pool = None


#: registry used by ``resolve_backend`` and the CLI/benchmark flags
BACKENDS = {
    SerialBackend.name: SerialBackend,
    ThreadBackend.name: ThreadBackend,
    ProcessBackend.name: ProcessBackend,
}


def resolve_backend(spec: Any, parallelism: int, task_retries: int = 0,
                    policy: Optional[SupervisePolicy] = None,
                    ) -> ExecutionBackend:
    """Turn a backend name or instance into a configured backend."""
    if isinstance(spec, ExecutionBackend):
        spec.configure(parallelism, task_retries, policy)
        return spec
    if spec is None:
        spec = ThreadBackend.name
    if isinstance(spec, str):
        try:
            backend = BACKENDS[spec]()
        except KeyError:
            raise EngineError(
                f"unknown backend {spec!r}; expected one of "
                f"{sorted(BACKENDS)}")
        backend.configure(parallelism, task_retries, policy)
        return backend
    raise EngineError(f"backend must be a name or ExecutionBackend, "
                      f"got {type(spec).__name__}")
