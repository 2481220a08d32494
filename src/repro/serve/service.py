"""The overload-safe online query service.

One request's life, in order:

1. **admission** — token bucket then bounded priority queue
   (:mod:`repro.serve.admission`); overload is shed at the front door,
   deterministically, before it costs anything;
2. **deadline propagation** — every request carries a latency budget
   from arrival; before any backend work starts the planner's exact
   cost estimate is checked against the remaining budget, so a request
   with 200 ms left never starts a 500 ms traversal;
3. **degradation** — on deadline pressure, an open circuit breaker, or
   an injected backend fault, the service walks the ladder in
   :mod:`repro.serve.degrade`: stale cache answer (flagged
   ``stale=True``) → precomputed summary → honest ``deadline_exceeded``;
4. **execution** — cache-missed company/investor lookups read their DFS
   part file with hedged replica reads; costs are simulated seconds on
   the shared :class:`~repro.util.clock.Clock`, so every scenario —
   including brownouts from a :class:`~repro.net.faults.FaultSchedule`
   — replays bit-for-bit.

A per-kind :class:`~repro.crawl.breaker.CircuitBreaker` (the crawl
tier's breaker, reused) stops the service from paying fault-detection
cost on every request while a backend browns out; the
:class:`~repro.serve.health.HealthMonitor` classifies the resulting
posture (healthy/degraded/shedding) into ``ServeMetrics``.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Dict, Optional, Tuple

from repro.crawl.breaker import CircuitBreaker
from repro.dfs.filesystem import MiniDfs
from repro.net.faults import (FAULT_BROWNOUT, FAULT_SLOW, FAULT_STORM,
                              FaultSchedule)
from repro.serve.admission import ADMIT, AdmissionController
from repro.serve.dataset import QUERY_KINDS, ServeDataset
from repro.serve.degrade import ResultCache
from repro.serve.health import (EVENT_DEGRADED, EVENT_OK, EVENT_SHED,
                                HealthMonitor)
from repro.serve.metrics import (ANSWERED_STATUSES, STATUS_CACHED,
                                 STATUS_DEADLINE, STATUS_FRESH,
                                 STATUS_SHED_QUEUE, STATUS_STALE,
                                 STATUS_SUMMARY, ServeMetrics)
from repro.util.clock import Clock, SimClock
from repro.util.errors import ConfigError, NotFoundError, StorageError


@dataclass
class ServeConfig:
    """Operational knobs of the query tier (CLI: ``repro serve[-bench]``)."""

    #: sustained admitted request rate; excess arrivals shed at the door
    qps_limit: float = 50.0
    #: token-bucket burst allowance (None = qps_limit / 4)
    burst: Optional[float] = None
    #: bounded queue depth — the hard cap on waiting requests
    queue_depth: int = 16
    #: simulated worker slots executing queries
    workers: int = 2
    #: latency budget of a request that does not bring its own
    default_deadline_s: float = 0.25
    #: result-cache TTLs: answers younger than fresh are served outright,
    #: answers younger than stale back the degradation ladder
    fresh_ttl_s: float = 1.0
    stale_ttl_s: float = 30.0
    cache_entries: int = 4096
    #: hedge a replicated DFS read after this long without an answer
    hedge_after_s: float = 0.03
    # ---- simulated cost model (seconds) ----
    base_cost_s: float = 0.002       # fixed per-backend-query overhead
    unit_cost_s: float = 2e-6        # per record/edge touched
    cache_read_cost_s: float = 0.0005
    summary_cost_s: float = 0.0005
    fault_detect_cost_s: float = 0.002
    # ---- per-kind circuit breakers (crawl breaker, reused) ----
    breaker_failure_threshold: int = 3
    breaker_cooldown_s: float = 0.5

    def __post_init__(self):
        if self.qps_limit <= 0:
            raise ConfigError(f"qps_limit must be > 0, got {self.qps_limit}")
        if self.queue_depth < 1:
            raise ConfigError("queue_depth must be >= 1")
        if self.workers < 1:
            raise ConfigError("workers must be >= 1")
        if self.default_deadline_s <= 0:
            raise ConfigError("default_deadline_s must be > 0")
        if self.stale_ttl_s < self.fresh_ttl_s:
            raise ConfigError("stale_ttl_s must be >= fresh_ttl_s")


@dataclass
class ServeRequest:
    """One query: what to answer, how important, and by when."""

    kind: str
    key: int
    priority: str = "interactive"
    #: absolute arrival time on the service clock (set by submit/loadgen)
    arrival_s: float = 0.0
    #: latency budget relative to arrival (None = service default)
    deadline_s: Optional[float] = None
    #: traversal depth for neighborhood queries
    depth: int = 1
    #: owning tenant (fair-share isolation in the sharded tier)
    tenant: str = "default"

    def __post_init__(self):
        if self.kind not in QUERY_KINDS:
            raise ConfigError(f"unknown query kind {self.kind!r}; "
                              f"expected one of {QUERY_KINDS}")


@dataclass
class ServeResult:
    """Terminal outcome of one request."""

    request: ServeRequest
    status: str
    value: Any = None
    #: True when the answer is a degraded fallback (stale or summary)
    stale: bool = False
    latency_s: float = 0.0   # finish − arrival (0 for front-door sheds)
    service_s: float = 0.0   # simulated execution cost charged
    started_s: float = 0.0
    #: coverage accounting for sharded answers: set on every scatter-
    #: gather result; ``partial=True`` means some shards were lost and
    #: the value covers only ``shards_answered / shards_total``
    coverage: Optional[Dict[str, Any]] = None

    @property
    def answered(self) -> bool:
        return self.status in ANSWERED_STATUSES

    @property
    def partial(self) -> bool:
        return bool(self.coverage) and self.coverage.get("partial", False)


class QueryService:
    """Online lookups over a :class:`ServeDataset`, overload-safe."""

    def __init__(self, dataset: ServeDataset, dfs: MiniDfs,
                 clock: Optional[Clock] = None,
                 config: Optional[ServeConfig] = None,
                 faults: Optional[FaultSchedule] = None):
        self.dataset = dataset
        self.dfs = dfs
        self.clock = clock or SimClock()
        self.config = config or ServeConfig()
        self.faults = faults or FaultSchedule.none()
        self.metrics = ServeMetrics()
        self.admission = AdmissionController(self.config.qps_limit,
                                             self.config.queue_depth,
                                             burst=self.config.burst)
        self.cache = ResultCache(self.config.fresh_ttl_s,
                                 self.config.stale_ttl_s,
                                 self.config.cache_entries)
        self.health = HealthMonitor()
        self.health.attach_metrics(self.metrics)
        self.breakers = {
            kind: CircuitBreaker(
                self.clock, name=f"serve-{kind}",
                failure_threshold=self.config.breaker_failure_threshold,
                cooldown_s=self.config.breaker_cooldown_s)
            for kind in QUERY_KINDS}
        self._request_index = 0

    # ------------------------------------------------------------- admission
    def submit(self, request: ServeRequest, now: Optional[float] = None,
               ) -> Tuple[Optional[ServeResult], Optional[ServeResult]]:
        """Offer one request to the front door.

        ``now`` is the arrival time; it defaults to ``clock.now()`` but
        the open-loop replay passes the scheduled arrival explicitly
        (a worker may still be finishing past it — admission decisions
        must use arrival time, not worker time).

        Returns ``(own, evicted)``: ``own`` is a terminal shed result if
        the request was rejected (None = admitted and queued), and
        ``evicted`` is the terminal result of any lower-priority queued
        request this admission displaced.
        """
        if now is None:
            now = self.clock.now()
        request.arrival_s = now
        self.metrics.record_offered(request.priority)
        decision = self.admission.offer(request, now)
        if decision.status != ADMIT:
            self.metrics.record_shed(request.priority, decision.status)
            self.health.record(EVENT_SHED, now)
            return ServeResult(request=request,
                               status=decision.status), None
        self.metrics.record_admitted(request.priority)
        evicted_result = None
        if decision.evicted is not None:
            victim = decision.evicted
            self.metrics.record_evicted(victim.priority)
            self.health.record(EVENT_SHED, now)
            evicted_result = ServeResult(
                request=victim, status=STATUS_SHED_QUEUE,
                latency_s=round(now - victim.arrival_s, 9))
        return None, evicted_result

    def handle(self, request: ServeRequest) -> ServeResult:
        """Synchronous path: admission, then drain the queue in-line.

        The interactive CLI and unit tests use this; the open-loop
        benchmark drives :meth:`submit`/:meth:`execute` itself through
        the worker simulation in :mod:`repro.serve.loadgen`.
        """
        own, _ = self.submit(request)
        if own is not None:
            return own
        result = None
        while True:
            queued = self.admission.pop()
            if queued is None:
                break
            finished = self.execute(queued, self.clock.now())
            if queued is request:
                result = finished
        assert result is not None  # the request was queued above
        return result

    # ------------------------------------------------------------- execution
    def execute(self, request: ServeRequest, start_s: float) -> ServeResult:
        """Run one admitted request starting at ``start_s``."""
        cfg = self.config
        self._advance_to(start_s)
        deadline_abs = request.arrival_s + (
            request.deadline_s if request.deadline_s is not None
            else cfg.default_deadline_s)
        remaining = deadline_abs - start_s
        cache_key = (request.kind, request.key, request.depth)

        # 1. fresh cache answer
        if remaining >= cfg.cache_read_cost_s:
            answer = self.cache.lookup_fresh(cache_key, start_s)
            if answer is not None:
                return self._finish(request, start_s, STATUS_CACHED,
                                    answer.value, False,
                                    cfg.cache_read_cost_s)

        # 2. deadline gate: never start work the budget cannot cover
        estimate = self._estimate(request)
        margin = (cfg.fault_detect_cost_s + cfg.cache_read_cost_s
                  + cfg.summary_cost_s)
        if remaining < estimate + margin:
            return self._degraded(request, cache_key, start_s,
                                  deadline_abs)

        # 3. circuit breaker: don't probe a browned-out backend per request
        breaker = self.breakers[request.kind]
        if not breaker.try_acquire():
            self.metrics.record_breaker_short_circuit(request.priority)
            return self._degraded(request, cache_key, start_s,
                                  deadline_abs)

        # 4. injected request-path faults
        index = self._request_index
        self._request_index += 1
        spec = self.faults.serve_fault_at(index)
        if spec is not None and spec.kind in (FAULT_BROWNOUT, FAULT_STORM):
            breaker.record_failure()
            self.metrics.record_backend_fault(request.priority)
            return self._degraded(request, cache_key, start_s,
                                  deadline_abs,
                                  extra_cost=cfg.fault_detect_cost_s)
        pad = (spec.duration if spec is not None
               and spec.kind == FAULT_SLOW else 0.0)
        if pad > 0.0 and (start_s + estimate + pad
                          + cfg.cache_read_cost_s + cfg.summary_cost_s
                          > deadline_abs):
            # the latency spike would bust the deadline: abandon the
            # slow call (timeout semantics) and serve a degraded answer
            breaker.record_failure()
            self.metrics.record_backend_fault(request.priority)
            return self._degraded(request, cache_key, start_s,
                                  deadline_abs,
                                  extra_cost=cfg.fault_detect_cost_s)

        # 5. the backend answer
        return self._answer(request, cache_key, start_s, deadline_abs,
                            index, pad)

    def _estimate(self, request: ServeRequest) -> float:
        """Step 2's bound on what :meth:`_answer` will cost."""
        cfg = self.config
        units = self.dataset.units(request.kind, request.key, request.depth)
        return (cfg.base_cost_s + units * cfg.unit_cost_s
                + self._dfs_latency_bound(request))

    def _answer(self, request: ServeRequest, cache_key, start_s: float,
                deadline_abs: float, index: int, pad: float) -> ServeResult:
        """Step 5: the real backend query. ``index`` is the request's
        serve-fault index, ``pad`` the injected latency spike."""
        cfg = self.config
        answer = self.dataset.run(request.kind, request.key, self.dfs,
                                  depth=request.depth,
                                  hedge_after_s=cfg.hedge_after_s)
        cost = cfg.base_cost_s + answer.units * cfg.unit_cost_s + pad
        if answer.span_fallback:
            self.metrics.record_span_fallback()
        if answer.hedged is not None:
            cost += answer.hedged.elapsed_s
            self.metrics.record_hedges(request.priority,
                                       answer.hedged.hedges_launched,
                                       answer.hedged.hedges_won,
                                       answer.hedged.wasted_reads)
        return self._fresh(request, cache_key, start_s, answer.value, cost)

    def _fresh(self, request: ServeRequest, cache_key, start_s: float,
               value, cost: float) -> ServeResult:
        """A full backend answer: close the breaker, cache, finish."""
        self.breakers[request.kind].record_success()
        self.cache.store(cache_key, value, start_s + cost)
        return self._finish(request, start_s, STATUS_FRESH, value, False,
                            cost)

    # ----------------------------------------------------------- degradation
    def _degraded(self, request: ServeRequest, cache_key,
                  start_s: float, deadline_abs: float,
                  extra_cost: float = 0.0) -> ServeResult:
        """Walk the ladder: stale cache → summary → deadline_exceeded."""
        cfg = self.config
        remaining = deadline_abs - start_s - extra_cost
        if remaining >= cfg.cache_read_cost_s:
            answer = self.cache.lookup_stale(cache_key, start_s)
            if answer is not None:
                return self._finish(request, start_s, STATUS_STALE,
                                    answer.value, True,
                                    extra_cost + cfg.cache_read_cost_s)
        if remaining >= cfg.summary_cost_s:
            summary = self.dataset.summary_answer(request.kind, request.key)
            return self._finish(request, start_s, STATUS_SUMMARY, summary,
                                True, extra_cost + cfg.summary_cost_s)
        return self._finish(request, start_s, STATUS_DEADLINE, None, False,
                            extra_cost)

    # -------------------------------------------------------------- plumbing
    def _finish(self, request: ServeRequest, start_s: float, status: str,
                value, stale: bool, cost: float) -> ServeResult:
        finish_s = start_s + cost
        self._advance_to(finish_s)
        latency = finish_s - request.arrival_s
        self.metrics.record_result(request.priority, status, latency)
        event = (EVENT_OK if status in (STATUS_FRESH, STATUS_CACHED)
                 else EVENT_DEGRADED)
        self.health.record(event, finish_s)
        return ServeResult(request=request, status=status, value=value,
                           stale=stale, latency_s=round(latency, 9),
                           service_s=round(cost, 9), started_s=start_s)

    def _dfs_latency_bound(self, request: ServeRequest) -> float:
        """Upper bound on the hedged-read time of a query's DFS read.

        Prices the blocks the query will read — the ones covering the
        record's span, from the same :meth:`MiniDfs.covering_blocks` the
        ranged read uses. The primary replica's latency bounds each
        block from above (a launched hedge only ever *lowers* the block
        time), so the deadline gate can rely on it without reading
        anything.
        """
        part = self.dataset.dfs_part_for(request.kind, request.key)
        if part is None:
            return 0.0
        offset, length = self.dataset.dfs_span_for(
            request.kind, request.key) or (0, None)
        try:
            blocks, _ = self.dfs.covering_blocks(part, offset, length)
        except NotFoundError:
            return 0.0
        except StorageError:
            # span past the end of a re-flushed part: the look-up will
            # fall back to scanning the whole part
            blocks = self.dfs.stat(part).blocks
        bound = 0.0
        for block in blocks:
            for node_id in block.locations:
                node = self.dfs.datanodes[node_id]
                if node.has(block.block_id):
                    bound += node.latency_s
                    break
        return bound

    def _advance_to(self, when: float) -> None:
        delta = when - self.clock.now()
        if delta > 0:
            self.clock.sleep(delta)
