"""Counters and latency accounting for the online query tier.

Everything here is plain deterministic bookkeeping: the service and the
load generator feed in events keyed by priority class, and two runs of
the same seeded scenario must produce byte-identical snapshots — that
property is asserted by the overload tests, so keep floats rounded and
dict orders stable.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from typing import Dict, List, Tuple

#: request priority classes, highest first (admission evicts from the
#: back of this list when the queue is full)
PRIORITY_CLASSES = ("interactive", "analytics", "bulk")

#: terminal statuses of a ServeResult
STATUS_FRESH = "fresh"            # full backend answer
STATUS_CACHED = "cached"          # fresh-TTL cache hit
STATUS_STALE = "stale"            # stale-while-revalidate fallback
STATUS_SUMMARY = "summary"        # cheap precomputed summary fallback
STATUS_PARTIAL = "partial"        # sharded answer that lost some shards
STATUS_DEADLINE = "deadline_exceeded"
STATUS_SHED_RATE = "shed_rate"    # rejected by the token bucket
STATUS_SHED_QUEUE = "shed_queue"  # rejected/evicted by the bounded queue

#: statuses that count as "the caller got an answer"
ANSWERED_STATUSES = (STATUS_FRESH, STATUS_CACHED, STATUS_STALE,
                     STATUS_SUMMARY, STATUS_PARTIAL)

#: terminal statuses of one shard call within a scatter-gather fan-out
SHARD_OK = "ok"
SHARD_DEAD = "dead"                  # no live replica answered
SHARD_PARTITIONED = "partitioned"    # unreachable for the fault window
SHARD_DEADLINE = "deadline"          # abandoned at its per-shard budget


@dataclass
class ClassCounters:
    """Per-priority-class event counters."""

    offered: int = 0
    admitted: int = 0
    shed_rate: int = 0
    shed_queue: int = 0
    deadline_exceeded: int = 0
    fresh: int = 0
    cached: int = 0
    stale_served: int = 0
    summary_served: int = 0
    partial_served: int = 0
    backend_faults: int = 0
    breaker_short_circuits: int = 0
    hedges_launched: int = 0
    hedges_won: int = 0
    hedge_wasted_reads: int = 0

    @property
    def answered(self) -> int:
        return self.fresh + self.cached + self.stale_served + \
            self.summary_served + self.partial_served

    def as_dict(self) -> Dict[str, int]:
        return {
            "offered": self.offered,
            "admitted": self.admitted,
            "shed_rate": self.shed_rate,
            "shed_queue": self.shed_queue,
            "deadline_exceeded": self.deadline_exceeded,
            "fresh": self.fresh,
            "cached": self.cached,
            "stale_served": self.stale_served,
            "summary_served": self.summary_served,
            "partial_served": self.partial_served,
            "answered": self.answered,
            "backend_faults": self.backend_faults,
            "breaker_short_circuits": self.breaker_short_circuits,
            "hedges_launched": self.hedges_launched,
            "hedges_won": self.hedges_won,
            "hedge_wasted_reads": self.hedge_wasted_reads,
        }


@dataclass
class TenantCounters:
    """Per-tenant event counters (fair-share isolation accounting)."""

    offered: int = 0
    admitted: int = 0
    shed_rate: int = 0
    shed_queue: int = 0
    answered: int = 0
    #: degraded-ladder answers, counted inside ``answered`` too — a
    #: tenant's SLO report needs to show *what kind* of answer fair
    #: share bought them, not just that one arrived
    stale_served: int = 0
    summary_served: int = 0
    deadline_exceeded: int = 0

    def as_dict(self) -> Dict[str, int]:
        return {
            "offered": self.offered,
            "admitted": self.admitted,
            "shed_rate": self.shed_rate,
            "shed_queue": self.shed_queue,
            "answered": self.answered,
            "stale_served": self.stale_served,
            "summary_served": self.summary_served,
            "deadline_exceeded": self.deadline_exceeded,
        }


@dataclass
class ShardCounters:
    """Per-shard call outcomes within scatter-gather fan-outs."""

    calls: int = 0
    ok: int = 0
    failed_dead: int = 0
    failed_partitioned: int = 0
    failed_deadline: int = 0
    failovers: int = 0
    hedges_launched: int = 0
    hedges_won: int = 0

    def as_dict(self) -> Dict[str, int]:
        return {
            "calls": self.calls,
            "ok": self.ok,
            "failed_dead": self.failed_dead,
            "failed_partitioned": self.failed_partitioned,
            "failed_deadline": self.failed_deadline,
            "failovers": self.failovers,
            "hedges_launched": self.hedges_launched,
            "hedges_won": self.hedges_won,
        }


def percentile(sorted_values: List[float], q: float) -> float:
    """Nearest-rank percentile over an already-sorted list (0 if empty)."""
    if not sorted_values:
        return 0.0
    rank = max(0, min(len(sorted_values) - 1,
                      int(q * len(sorted_values) + 0.5) - 1))
    return sorted_values[rank]


class ServeMetrics:
    """Aggregated view of one service instance's lifetime.

    Latencies are recorded only for *admitted* requests that reached a
    terminal status; the overload contract is expressed over them
    ("p99 of admitted requests stays under the deadline").
    """

    def __init__(self):
        self.per_class: Dict[str, ClassCounters] = {
            cls: ClassCounters() for cls in PRIORITY_CLASSES}
        self._latencies: Dict[str, List[float]] = {
            cls: [] for cls in PRIORITY_CLASSES}
        #: (sim_time, from_state, to_state) transitions of the health FSM
        self.health_transitions: List[Tuple[float, str, str]] = []
        #: fair-share accounting, keyed by tenant id (empty when the
        #: service runs single-tenant — snapshots stay byte-compatible)
        self.per_tenant: Dict[str, TenantCounters] = {}
        #: scatter-gather accounting, keyed by shard id (sharded tier only)
        self.per_shard: Dict[int, ShardCounters] = {}
        #: every autoscaler decision, in order:
        #: (sim_time, shard_id, action, replicas_after, reason)
        self.scaling_decisions: List[Tuple] = []
        #: look-ups whose record span was missing or stale (the part was
        #: re-flushed under the built index) and that scanned the whole
        #: part instead of seeking
        self.span_fallbacks = 0

    def counters(self, priority: str) -> ClassCounters:
        counters = self.per_class.get(priority)
        if counters is None:
            raise KeyError(f"unknown priority class {priority!r}; "
                           f"expected one of {PRIORITY_CLASSES}")
        return counters

    # ----------------------------------------------------------- recording
    def record_offered(self, priority: str) -> None:
        self.counters(priority).offered += 1

    def record_admitted(self, priority: str) -> None:
        self.counters(priority).admitted += 1

    def record_evicted(self, priority: str) -> None:
        """A queued (already admitted) request displaced by a
        higher-priority arrival: it is re-classified as shed, so the
        "answered / admitted" contract is measured over requests that
        actually stayed admitted."""
        counters = self.counters(priority)
        counters.admitted -= 1
        counters.shed_queue += 1

    def record_shed(self, priority: str, status: str) -> None:
        counters = self.counters(priority)
        if status == STATUS_SHED_RATE:
            counters.shed_rate += 1
        elif status == STATUS_SHED_QUEUE:
            counters.shed_queue += 1
        else:
            raise ValueError(f"not a shed status: {status!r}")

    def record_result(self, priority: str, status: str,
                      latency_s: float) -> None:
        counters = self.counters(priority)
        if status == STATUS_FRESH:
            counters.fresh += 1
        elif status == STATUS_CACHED:
            counters.cached += 1
        elif status == STATUS_STALE:
            counters.stale_served += 1
        elif status == STATUS_SUMMARY:
            counters.summary_served += 1
        elif status == STATUS_PARTIAL:
            counters.partial_served += 1
        elif status == STATUS_DEADLINE:
            counters.deadline_exceeded += 1
        else:
            raise ValueError(f"not a terminal status: {status!r}")
        self._latencies[priority].append(round(latency_s, 9))

    def record_backend_fault(self, priority: str) -> None:
        self.counters(priority).backend_faults += 1

    def record_breaker_short_circuit(self, priority: str) -> None:
        self.counters(priority).breaker_short_circuits += 1

    def record_hedges(self, priority: str, launched: int, won: int,
                      wasted: int = 0) -> None:
        counters = self.counters(priority)
        counters.hedges_launched += launched
        counters.hedges_won += won
        counters.hedge_wasted_reads += wasted

    def record_span_fallback(self) -> None:
        self.span_fallbacks += 1

    def record_health_transition(self, sim_time: float, old: str,
                                 new: str) -> None:
        self.health_transitions.append((round(sim_time, 9), old, new))

    # -------------------------------------------------- tenants and shards
    def tenant_counters(self, tenant: str) -> TenantCounters:
        counters = self.per_tenant.get(tenant)
        if counters is None:
            counters = self.per_tenant[tenant] = TenantCounters()
        return counters

    def record_tenant_offered(self, tenant: str) -> None:
        self.tenant_counters(tenant).offered += 1

    def record_tenant_admitted(self, tenant: str) -> None:
        self.tenant_counters(tenant).admitted += 1

    def record_tenant_evicted(self, tenant: str) -> None:
        counters = self.tenant_counters(tenant)
        counters.admitted -= 1
        counters.shed_queue += 1

    def record_tenant_shed(self, tenant: str, status: str) -> None:
        counters = self.tenant_counters(tenant)
        if status == STATUS_SHED_RATE:
            counters.shed_rate += 1
        elif status == STATUS_SHED_QUEUE:
            counters.shed_queue += 1
        else:
            raise ValueError(f"not a shed status: {status!r}")

    def record_tenant_result(self, tenant: str, status: str) -> None:
        counters = self.tenant_counters(tenant)
        if status in ANSWERED_STATUSES:
            counters.answered += 1
            if status == STATUS_STALE:
                counters.stale_served += 1
            elif status == STATUS_SUMMARY:
                counters.summary_served += 1
        elif status == STATUS_DEADLINE:
            counters.deadline_exceeded += 1
        else:
            raise ValueError(f"not a terminal status: {status!r}")

    def shard_counters(self, shard_id: int) -> ShardCounters:
        counters = self.per_shard.get(shard_id)
        if counters is None:
            counters = self.per_shard[shard_id] = ShardCounters()
        return counters

    def record_shard_call(self, shard_id: int, status: str,
                          failovers: int = 0, hedges_launched: int = 0,
                          hedges_won: int = 0) -> None:
        counters = self.shard_counters(shard_id)
        counters.calls += 1
        if status == SHARD_OK:
            counters.ok += 1
        elif status == SHARD_DEAD:
            counters.failed_dead += 1
        elif status == SHARD_PARTITIONED:
            counters.failed_partitioned += 1
        elif status == SHARD_DEADLINE:
            counters.failed_deadline += 1
        else:
            raise ValueError(f"not a shard-call status: {status!r}")
        counters.failovers += failovers
        counters.hedges_launched += hedges_launched
        counters.hedges_won += hedges_won

    def record_scaling(self, sim_time: float, shard_id: int, action: str,
                       replicas_after: int, reason: str) -> None:
        self.scaling_decisions.append(
            (round(sim_time, 9), shard_id, action, replicas_after, reason))

    # ----------------------------------------------------------- inspection
    @property
    def offered(self) -> int:
        return sum(c.offered for c in self.per_class.values())

    @property
    def admitted(self) -> int:
        return sum(c.admitted for c in self.per_class.values())

    @property
    def shed(self) -> int:
        return sum(c.shed_rate + c.shed_queue
                   for c in self.per_class.values())

    @property
    def answered(self) -> int:
        return sum(c.answered for c in self.per_class.values())

    @property
    def stale_served(self) -> int:
        return sum(c.stale_served for c in self.per_class.values())

    @property
    def hedges_won(self) -> int:
        return sum(c.hedges_won for c in self.per_class.values())

    @property
    def hedge_wasted_reads(self) -> int:
        return sum(c.hedge_wasted_reads for c in self.per_class.values())

    @property
    def partial_results(self) -> int:
        return sum(c.partial_served for c in self.per_class.values())

    def latencies(self, priority: str = None) -> List[float]:
        if priority is not None:
            return sorted(self._latencies[priority])
        merged: List[float] = []
        for values in self._latencies.values():
            merged.extend(values)
        return sorted(merged)

    def p99(self, priority: str = None) -> float:
        return percentile(self.latencies(priority), 0.99)

    def p50(self, priority: str = None) -> float:
        return percentile(self.latencies(priority), 0.50)

    # ------------------------------------------------------------ snapshot
    def snapshot(self) -> Dict:
        """A stable, JSON-able view; identical across same-seed runs."""
        snapshot = {
            "per_class": {cls: self.per_class[cls].as_dict()
                          for cls in PRIORITY_CLASSES},
            "totals": {
                "offered": self.offered,
                "admitted": self.admitted,
                "shed": self.shed,
                "answered": self.answered,
                "stale_served": self.stale_served,
                "hedges_won": self.hedges_won,
                "hedge_wasted_reads": self.hedge_wasted_reads,
                "partial_results": self.partial_results,
            },
            "latency_s": {
                "p50": round(self.p50(), 9),
                "p99": round(self.p99(), 9),
            },
            "health_transitions": [list(t) for t in self.health_transitions],
            "per_tenant": {t: self.per_tenant[t].as_dict()
                           for t in sorted(self.per_tenant)},
            "shards": {str(s): self.per_shard[s].as_dict()
                       for s in sorted(self.per_shard)},
            "scaling": [list(d) for d in self.scaling_decisions],
        }
        if self.span_fallbacks:
            # absent while zero: a run over an index that matches its
            # parts snapshots byte-for-byte as it did before the counter
            snapshot["span_fallbacks"] = self.span_fallbacks
        return snapshot

    def to_json(self, indent: int = None) -> str:
        return json.dumps(self.snapshot(), indent=indent, sort_keys=True)
