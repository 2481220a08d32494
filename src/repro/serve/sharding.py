"""Sharded scatter-gather serving with partial-result deadlines.

The single-node :class:`~repro.serve.service.QueryService` keeps every
index in one process — one failure domain. This module splits the
:class:`~repro.serve.dataset.ServeDataset` into N hash shards, gives
each shard R simulated replicas booted from a DFS-persisted index, and
routes every query through a coordinator:

* **routing** — point kinds (company / investor / engagement) go to the
  key's owner shard; community membership is a two-phase owner-lookup +
  all-shard fragment scatter; neighborhood BFS scatters each hop's
  frontier to the owner shards and merges adjacency in frontier order,
  so a fully-answered query is *byte-identical* to the unsharded oracle;
* **per-shard deadline budgets** — each fan-out call gets the request's
  remaining budget minus the degradation-ladder reserve; a call that
  cannot finish inside its budget is abandoned at the budget boundary,
  so the coordinator always has time left to degrade gracefully and the
  p99-under-deadline contract holds by construction;
* **replica failover + hedging** — dead replicas cost a detection fee
  and the call rotates to the next; a slow chosen replica is hedged to a
  sibling after ``hedge_after_s`` and the faster path wins;
* **partial results** — a query that loses shards inside its deadline
  returns ``status="partial"`` with exact coverage accounting
  (``shards_answered / shards_total`` and a per-shard status map in
  ``ServeResult.coverage``) instead of failing; only a query that loses
  *every* contacted shard falls back to the stale/summary ladder.

Shard faults (``kill_shard`` / ``partition_shard`` / ``slow_replica``)
come from the :class:`~repro.net.faults.FaultSchedule`; their target
shard/replica derives from the fault window's start index, exported
here (:func:`kill_target` and friends) so benchmarks can predict the
victim. Everything — fan-out costs, failovers, autoscaler decisions —
runs on the simulated clock and replays byte-for-bit with the seed.
"""

from __future__ import annotations

import json
import zlib
from dataclasses import dataclass
from typing import (Any, Callable, Dict, Iterable, List, Optional, Sequence,
                    Tuple)

from repro.dfs.filesystem import MiniDfs
from repro.graph.follows import NO_TARGETS, FollowIndex, Targets
from repro.net.faults import (FAULT_KILL_SHARD, FAULT_PARTITION_SHARD,
                              FAULT_SLOW_REPLICA, FaultSchedule)
from repro.serve.autoscale import AutoscaleConfig, Autoscaler
from repro.serve.dataset import (KIND_COMMUNITY, KIND_COMPANY,
                                 KIND_ENGAGEMENT, KIND_INVESTOR,
                                 KIND_NEIGHBORHOOD, MAX_IDS_IN_ANSWER,
                                 EngagementRows, NeighborhoodWalk,
                                 ServeDataset, SpanIndex)
from repro.serve.health import (EVENT_DEGRADED, EVENT_OK, HealthMonitor)
from repro.serve.metrics import (SHARD_DEAD, SHARD_DEADLINE, SHARD_OK,
                                 SHARD_PARTITIONED, STATUS_PARTIAL)
from repro.serve.service import (QueryService, ServeConfig, ServeRequest,
                                 ServeResult)
from repro.serve.tenancy import FairShareAdmission, Tenant
from repro.util.clock import Clock
from repro.util.errors import ConfigError
from repro.util.rng import derive_seed


def shard_of(key: int, num_shards: int) -> int:
    """Stable hash placement: CRC32 of the decimal key, mod N."""
    return zlib.crc32(str(int(key)).encode("ascii")) % num_shards


def kill_target(seed: int, window_start: int, num_shards: int) -> int:
    """The shard a ``kill_shard`` window starting at this index hits."""
    return derive_seed(seed, f"{FAULT_KILL_SHARD}:target:{window_start}") \
        % num_shards


def partition_target(seed: int, window_start: int, num_shards: int) -> int:
    """The shard a ``partition_shard`` window isolates."""
    return derive_seed(
        seed, f"{FAULT_PARTITION_SHARD}:target:{window_start}") % num_shards


def slow_replica_target(seed: int, window_start: int,
                        num_shards: int) -> Tuple[int, int]:
    """(shard, replica draw) a ``slow_replica`` window pads.

    The replica draw is reduced mod the shard's live replica count at
    call time, so the pad lands on a deterministic live replica even
    after the autoscaler has changed the fleet.
    """
    base = derive_seed(seed, f"{FAULT_SLOW_REPLICA}:target:{window_start}")
    return base % num_shards, (base // num_shards) % 1_000_003


@dataclass
class ShardConfig:
    """Topology + cost model of the sharded tier."""

    num_shards: int = 4
    replicas: int = 2
    #: per-shard RPC overhead (seconds, simulated)
    call_cost_s: float = 0.0005
    #: coordinator merge cost per fan-out round
    gather_cost_s: float = 0.0002
    #: where the shard indexes persist (replica boot source)
    dfs_root: str = "/serve/shards"

    def __post_init__(self):
        if self.num_shards < 1:
            raise ConfigError(
                f"num_shards must be >= 1, got {self.num_shards}")
        if self.replicas < 1:
            raise ConfigError(
                f"replicas must be >= 1, got {self.replicas}")
        if self.call_cost_s < 0 or self.gather_cost_s < 0:
            raise ConfigError("shard costs must be >= 0")


# --------------------------------------------------------------- data split
def split_dataset(dataset: ServeDataset,
                  num_shards: int) -> List[ServeDataset]:
    """Slice one ServeDataset into per-shard ServeDatasets.

    Company-keyed indexes shard by company id, user-keyed indexes by
    user id, and community membership by *member*, so every point
    lookup is fully local to its owner shard and a shard's community
    fragment is exactly its own members (sorted). ``part_records`` is
    replicated: it is the planner's cost table, tiny, and needed by
    every shard's local scans.
    """
    shards = [ServeDataset() for _ in range(num_shards)]
    for shard in shards:
        shard.part_records = dict(dataset.part_records)
        shard.summaries = dataset.summaries
    for cid, part in dataset.company_parts.items():
        shards[shard_of(cid, num_shards)].company_parts[cid] = part
    for cid, name in dataset.company_names.items():
        shards[shard_of(cid, num_shards)].company_names[cid] = name
    for cid, info in dataset.funding.items():
        shards[shard_of(cid, num_shards)].funding[cid] = info
    for cid, investors in dataset.backers.items():
        shards[shard_of(cid, num_shards)].backers[cid] = investors
    engagement = dataset.engagement.split(
        lambda key: shard_of(key, num_shards), num_shards)
    for shard, rows in zip(shards, engagement):
        shard.engagement = rows
    for uid, part in dataset.user_parts.items():
        shards[shard_of(uid, num_shards)].user_parts[uid] = part
    for cid, offset, length in dataset.company_spans:
        shards[shard_of(cid, num_shards)].company_spans.add(
            cid, offset, length)
    for uid, offset, length in dataset.user_spans:
        shards[shard_of(uid, num_shards)].user_spans.add(
            uid, offset, length)
    for uid, companies in dataset.portfolio.items():
        shards[shard_of(uid, num_shards)].portfolio[uid] = companies
    follows = dataset.follows_out.split(
        lambda key: shard_of(key, num_shards), num_shards)
    for shard, piece in zip(shards, follows):
        shard.follows_out = piece
    for uid, label in dataset.community_of.items():
        shards[shard_of(uid, num_shards)].community_of[uid] = label
    for label, members in dataset.community_members.items():
        for member in members:
            owner = shards[shard_of(member, num_shards)]
            owner.community_members.setdefault(label, []).append(member)
    return shards


#: one section value as ``json.dumps(value, sort_keys=True)`` spells it
_SECTION_ENCODER = json.JSONEncoder(sort_keys=True)


def _object_json(keys: Iterable[str], value: Callable[[str], Any]) -> str:
    """``json.dumps({key: value(key) for key in keys}, sort_keys=True)``
    with one value built and encoded at a time."""
    return "{%s}" % ", ".join(
        f"{json.dumps(key)}: {_SECTION_ENCODER.encode(value(key))}"
        for key in sorted(keys))


def shard_index_json(shard: ServeDataset) -> str:
    """Deterministic JSON codec for persisting one shard's index.

    Byte for byte ``json.dumps(payload, sort_keys=True)`` of the payload
    whose sections are listed below, but the payload is never built
    whole: each section is built, encoded and dropped in turn, in
    sorted-key order, and the two sections of per-key containers (the
    follow rows, the engagement rows) are encoded a row at a time.
    """
    follows, engagement = shard.follows_out, shard.engagement
    sections = {
        "company_spans": lambda: [list(column) for column
                                  in shard.company_spans.columns()],
        "user_spans": lambda: [list(column) for column
                               in shard.user_spans.columns()],
        "company_parts": lambda: {str(k): v for k, v
                                  in shard.company_parts.items()},
        "company_names": lambda: {str(k): v for k, v
                                  in shard.company_names.items()},
        "funding": lambda: {str(k): list(v)
                            for k, v in shard.funding.items()},
        "backers": lambda: {str(k): v for k, v in shard.backers.items()},
        "user_parts": lambda: {str(k): v
                               for k, v in shard.user_parts.items()},
        "portfolio": lambda: {str(k): v
                              for k, v in shard.portfolio.items()},
        "follower_counts": follows.follower_counts_doc,
        "community_of": lambda: {str(k): v
                                 for k, v in shard.community_of.items()},
        "community_members": lambda: {
            str(k): v for k, v in shard.community_members.items()},
        "part_records": lambda: dict(shard.part_records),
    }
    encoded = {name: lambda build=build: _SECTION_ENCODER.encode(build())
               for name, build in sections.items()}
    encoded["follows_out"] = lambda: _object_json(
        map(str, follows), lambda key: follows.get(int(key)))
    encoded["engagement"] = lambda: _object_json(
        map(str, engagement), lambda key: engagement[int(key)])
    return "{%s}" % ", ".join(f"{json.dumps(name)}: {encode()}"
                              for name, encode in sorted(encoded.items()))


def shard_index_from_json(text: str) -> ServeDataset:
    """Rebuild a shard's ServeDataset from its persisted index."""
    raw = json.loads(text)
    shard = ServeDataset()
    shard.company_parts = {int(k): v
                           for k, v in raw["company_parts"].items()}
    shard.company_names = {int(k): v
                           for k, v in raw["company_names"].items()}
    shard.funding = {int(k): tuple(v) for k, v in raw["funding"].items()}
    shard.backers = {int(k): v for k, v in raw["backers"].items()}
    shard.engagement = EngagementRows.from_rows(raw["engagement"].values())
    shard.user_parts = {int(k): v for k, v in raw["user_parts"].items()}
    shard.company_spans = SpanIndex(*raw["company_spans"])
    shard.user_spans = SpanIndex(*raw["user_spans"])
    shard.portfolio = {int(k): v for k, v in raw["portfolio"].items()}
    shard.follows_out = FollowIndex.from_doc(raw)
    shard.community_of = {int(k): v
                          for k, v in raw["community_of"].items()}
    shard.community_members = {int(k): v for k, v
                               in raw["community_members"].items()}
    shard.part_records = dict(raw["part_records"])
    return shard


# ------------------------------------------------------------ shard servers
@dataclass
class ShardReplica:
    """One simulated replica process of one shard."""

    replica_id: str
    ordinal: int
    alive: bool = True
    #: simulated time at which the boot (index load from DFS) completes
    ready_at: float = 0.0

    def available(self, now: float) -> bool:
        return self.alive and now >= self.ready_at


class ShardServer:
    """The replica fleet of one shard."""

    def __init__(self, shard_id: int, data: ServeDataset,
                 index_path: str, replicas: int):
        self.shard_id = shard_id
        self.data = data
        self.index_path = index_path
        self.replicas: List[ShardReplica] = []
        self._next_ordinal = 0
        for _ in range(replicas):
            self._spawn(0.0, 0.0)

    def _spawn(self, now: float, boot_s: float) -> ShardReplica:
        replica = ShardReplica(
            replica_id=f"s{self.shard_id}r{self._next_ordinal}",
            ordinal=self._next_ordinal, ready_at=now + boot_s)
        self._next_ordinal += 1
        self.replicas.append(replica)
        return replica

    @property
    def replica_count(self) -> int:
        return sum(1 for r in self.replicas if r.alive)

    @property
    def fleet_size(self) -> int:
        """All replica slots, dead ones included (the scaling bound)."""
        return len(self.replicas)

    def alive_count(self, now: float) -> int:
        return sum(1 for r in self.replicas if r.available(now))

    def available_replicas(self, now: float) -> List[ShardReplica]:
        return [r for r in self.replicas if r.available(now)]

    def kill_all(self) -> None:
        for replica in self.replicas:
            replica.alive = False

    def add_replica(self, now: float, boot_s: float,
                    dfs: Optional[MiniDfs] = None) -> ShardReplica:
        """Boot a new replica from the DFS-persisted shard index."""
        if dfs is not None and not dfs.exists(self.index_path):
            raise ConfigError(
                f"shard index missing: {self.index_path}")
        return self._spawn(now, boot_s)

    def reboot_one(self, now: float, boot_s: float) -> ShardReplica:
        """Restart the lowest-ordinal dead replica (fleet at max size)."""
        for replica in self.replicas:
            if not replica.alive:
                replica.alive = True
                replica.ready_at = now + boot_s
                return replica
        return self.replicas[0]

    def drain_replica(self) -> Optional[ShardReplica]:
        """Retire the highest-ordinal live replica."""
        for replica in reversed(self.replicas):
            if replica.alive:
                replica.alive = False
                return replica
        return None


@dataclass
class _ShardCall:
    """Outcome of one fan-out call to one shard."""

    shard_id: int
    status: str
    elapsed_s: float
    value: Any = None
    failovers: int = 0
    hedges_launched: int = 0
    hedges_won: int = 0
    hedged_wasted: int = 0
    dfs_hedges: Optional[object] = None   # HedgedRead of a point lookup


# -------------------------------------------------------------- coordinator
class ShardedQueryService(QueryService):
    """Scatter-gather coordinator over N shard servers.

    Subclasses :class:`QueryService` so the open-loop replay, admission
    protocol, cache, breaker, and degradation ladder are shared; only
    the deadline gate's estimate and backend execution (step 5) are
    replaced by the fan-out's, and admission swaps to
    :class:`FairShareAdmission` when tenants are configured.
    """

    def __init__(self, dataset: ServeDataset, dfs: MiniDfs,
                 clock: Optional[Clock] = None,
                 config: Optional[ServeConfig] = None,
                 faults: Optional[FaultSchedule] = None,
                 shard_config: Optional[ShardConfig] = None,
                 tenants: Optional[Sequence[Tenant]] = None,
                 autoscale: Optional[AutoscaleConfig] = None):
        super().__init__(dataset, dfs, clock=clock, config=config,
                         faults=faults)
        self.shard_config = shard_config or ShardConfig()
        scfg = self.shard_config
        shards = split_dataset(dataset, scfg.num_shards)
        self.servers: List[ShardServer] = []
        for shard_id, shard_data in enumerate(shards):
            path = f"{scfg.dfs_root}/shard-{shard_id:05d}.json"
            dfs.write_atomic_text(path, shard_index_json(shard_data))
            self.servers.append(ShardServer(shard_id, shard_data, path,
                                            scfg.replicas))
        #: short-window per-shard health (feeds the autoscaler)
        self.shard_health: Dict[int, HealthMonitor] = {
            s.shard_id: HealthMonitor(window=20, min_events=5)
            for s in self.servers}
        self._multi_tenant = bool(tenants)
        if tenants:
            self.admission = FairShareAdmission(
                self.config.qps_limit, self.config.queue_depth, tenants,
                burst=self.config.burst)
        self.autoscaler = (Autoscaler(autoscale, self.servers,
                                      self.shard_health, self.metrics)
                          if autoscale is not None else None)
        #: one-shot kill windows already consumed (window start indexes)
        self._consumed_kills: set = set()
        self._executed = 0

    # ------------------------------------------------------------- admission
    def submit(self, request: ServeRequest, now: Optional[float] = None,
               ) -> Tuple[Optional[ServeResult], Optional[ServeResult]]:
        own, evicted = super().submit(request, now)
        if self._multi_tenant:
            self.metrics.record_tenant_offered(request.tenant)
            if own is not None:
                self.metrics.record_tenant_shed(request.tenant, own.status)
            else:
                self.metrics.record_tenant_admitted(request.tenant)
            if evicted is not None:
                self.metrics.record_tenant_evicted(evicted.request.tenant)
        return own, evicted

    def _finish(self, request: ServeRequest, start_s: float, status: str,
                value, stale: bool, cost: float) -> ServeResult:
        result = super()._finish(request, start_s, status, value, stale,
                                 cost)
        if self._multi_tenant:
            self.metrics.record_tenant_result(request.tenant, status)
        return result

    # ------------------------------------------------------------- execution
    def execute(self, request: ServeRequest, start_s: float) -> ServeResult:
        result = super().execute(request, start_s)
        self._autoscale_tick()
        return result

    def _estimate(self, request: ServeRequest) -> float:
        """The base gate's bound plus the fan-out's calls and rounds."""
        cfg = self.config
        scfg = self.shard_config
        units = self.dataset.units(request.kind, request.key, request.depth)
        fanout, rounds = self._fanout_bound(request)
        unit_factor = 2 if request.kind == KIND_NEIGHBORHOOD else 1
        return (cfg.base_cost_s + unit_factor * units * cfg.unit_cost_s
                + self._dfs_latency_bound(request)
                + fanout * scfg.call_cost_s
                + rounds * scfg.gather_cost_s)

    def _answer(self, request: ServeRequest, cache_key, start_s: float,
                deadline_abs: float, index: int, pad: float) -> ServeResult:
        """Step 5 as a scatter-gather across the owner shards, under the
        shard faults active at ``index``."""
        cfg = self.config
        partitioned, slow_map = self._apply_shard_faults(index, start_s)
        budget_abs = deadline_abs - (cfg.cache_read_cost_s
                                     + cfg.summary_cost_s)
        value, cost, coverage = self._scatter(
            request, start_s, budget_abs, index, partitioned, slow_map)
        cost += pad
        if value is None:
            # every contacted shard failed: degrade, carry the coverage
            self.metrics.record_backend_fault(request.priority)
            result = self._degraded(request, cache_key, start_s,
                                    deadline_abs,
                                    extra_cost=cfg.fault_detect_cost_s)
        elif coverage["partial"]:
            result = self._finish(request, start_s, STATUS_PARTIAL, value,
                                  False, cost)
        else:
            result = self._fresh(request, cache_key, start_s, value, cost)
        result.coverage = coverage
        return result

    # ------------------------------------------------------------ shard faults
    def _apply_shard_faults(self, index: int, now: float,
                            ) -> Tuple[set, Dict[int, Tuple[int, float]]]:
        """Consume the shard faults active at this request index.

        Returns ``(partitioned_shards, slow_map)`` where ``slow_map``
        maps a shard id to ``(replica_draw, pad_s)``. Kill windows are
        one-shot: the first request inside the window kills the target
        shard's whole fleet; it stays dead until the autoscaler reacts.
        """
        scfg = self.shard_config
        partitioned: set = set()
        slow_map: Dict[int, Tuple[int, float]] = {}
        for spec, window_start in self.faults.shard_faults_at(index):
            if spec.kind == FAULT_KILL_SHARD:
                if window_start in self._consumed_kills:
                    continue
                self._consumed_kills.add(window_start)
                target = kill_target(self.faults.seed, window_start,
                                     scfg.num_shards)
                self.servers[target].kill_all()
            elif spec.kind == FAULT_PARTITION_SHARD:
                partitioned.add(partition_target(
                    self.faults.seed, window_start, scfg.num_shards))
            elif spec.kind == FAULT_SLOW_REPLICA:
                shard, draw = slow_replica_target(
                    self.faults.seed, window_start, scfg.num_shards)
                slow_map[shard] = (draw, spec.duration)
        return partitioned, slow_map

    # ---------------------------------------------------------------- routing
    def _fanout_bound(self, request: ServeRequest) -> Tuple[int, int]:
        """(max shard calls, fan-out rounds) the gate must budget for."""
        n = self.shard_config.num_shards
        if request.kind == KIND_COMMUNITY:
            return 1 + n, 2
        if request.kind == KIND_NEIGHBORHOOD:
            depth = max(1, min(int(request.depth), 3))
            return depth * n, depth
        return 1, 1

    def _scatter(self, request: ServeRequest, start_s: float,
                 budget_abs: float, index: int, partitioned: set,
                 slow_map: Dict[int, Tuple[int, float]],
                 ) -> Tuple[Any, float, Dict[str, Any]]:
        """Run the fan-out; returns (value | None, cost, coverage)."""
        kind = request.kind
        if kind in (KIND_COMPANY, KIND_INVESTOR, KIND_ENGAGEMENT):
            return self._scatter_point(request, start_s, budget_abs,
                                       index, partitioned, slow_map)
        if kind == KIND_COMMUNITY:
            return self._scatter_community(request, start_s, budget_abs,
                                           index, partitioned, slow_map)
        return self._scatter_neighborhood(request, start_s, budget_abs,
                                          index, partitioned, slow_map)

    def _coverage(self, statuses: Dict[int, str]) -> Dict[str, Any]:
        answered = sum(1 for s in statuses.values() if s == SHARD_OK)
        return {
            "partial": answered < len(statuses),
            "shards_total": len(statuses),
            "shards_answered": answered,
            "per_shard": {str(sid): statuses[sid]
                          for sid in sorted(statuses)},
        }

    def _scatter_point(self, request, start_s, budget_abs, index,
                       partitioned, slow_map):
        scfg = self.shard_config
        owner = shard_of(request.key, scfg.num_shards)
        call = self._call_shard(
            owner, request.kind, [request.key], request, start_s,
            budget_abs - start_s, index, partitioned, slow_map)
        cost = self.config.base_cost_s + call.elapsed_s \
            + scfg.gather_cost_s
        coverage = self._coverage({owner: call.status})
        if call.status != SHARD_OK:
            return None, cost, coverage
        return call.value, cost, coverage

    def _scatter_community(self, request, start_s, budget_abs, index,
                           partitioned, slow_map):
        scfg = self.shard_config
        cfg = self.config
        statuses: Dict[int, str] = {}
        owner = shard_of(request.key, scfg.num_shards)
        t = start_s + cfg.base_cost_s
        lookup = self._call_shard(
            owner, "community_label", [request.key], request, t,
            budget_abs - t, index, partitioned, slow_map)
        statuses[owner] = lookup.status
        t += lookup.elapsed_s + scfg.gather_cost_s
        if lookup.status != SHARD_OK:
            return None, t - start_s, self._coverage(statuses)
        label = lookup.value
        if label is None:
            value = {"user_id": request.key, "community": None,
                     "size": 0, "member_sample": []}
            return value, t - start_s, self._coverage(statuses)
        # phase 2: every shard contributes its members fragment
        round_elapsed = 0.0
        fragments: Dict[int, List[int]] = {}
        for sid in range(scfg.num_shards):
            call = self._call_shard(
                sid, "community_fragment", [label], request, t,
                budget_abs - t, index, partitioned, slow_map)
            # a shard is "ok" only if every call to it succeeded
            if statuses.get(sid) in (None, SHARD_OK):
                statuses[sid] = call.status
            if call.status == SHARD_OK:
                fragments[sid] = call.value
            round_elapsed = max(round_elapsed, call.elapsed_s)
        t += round_elapsed + scfg.gather_cost_s
        if all(s != SHARD_OK for s in statuses.values()):
            return None, t - start_s, self._coverage(statuses)
        members = sorted(m for frag in fragments.values() for m in frag)
        value = {
            "user_id": request.key,
            "community": label,
            "size": len(members),
            "member_sample": [m for m in members
                              if m != request.key][:MAX_IDS_IN_ANSWER],
        }
        return value, t - start_s, self._coverage(statuses)

    def _scatter_neighborhood(self, request, start_s, budget_abs, index,
                              partitioned, slow_map):
        scfg = self.shard_config
        cfg = self.config
        walk = NeighborhoodWalk(request.key, request.depth)
        statuses: Dict[int, str] = {}
        t = start_s + cfg.base_cost_s
        for _ in range(walk.depth):
            if not walk.frontier:
                break
            by_owner: Dict[int, List[int]] = {}
            for uid in walk.frontier:
                by_owner.setdefault(shard_of(uid, scfg.num_shards),
                                    []).append(uid)
            adj: Dict[int, Targets] = {}
            round_elapsed = 0.0
            for sid in sorted(by_owner):
                call = self._call_shard(
                    sid, "adjacency", by_owner[sid], request, t,
                    budget_abs - t, index, partitioned, slow_map)
                if call.status == SHARD_OK:
                    adj.update(call.value)
                    if statuses.get(sid) is None:
                        statuses[sid] = SHARD_OK
                else:
                    statuses[sid] = call.status
                round_elapsed = max(round_elapsed, call.elapsed_s)
            t += round_elapsed + scfg.gather_cost_s
            # the frontier in oracle order, not shard order
            walk.hop(lambda uid: adj.get(uid, NO_TARGETS))
        coverage = self._coverage(statuses)
        if statuses and all(s != SHARD_OK for s in statuses.values()):
            return None, t - start_s, coverage
        return (walk.value(request.key in self.dataset.user_parts),
                t - start_s, coverage)

    # ------------------------------------------------------------ shard calls
    def _call_shard(self, shard_id: int, op: str, keys: List[int],
                    request: ServeRequest, now: float, budget: float,
                    index: int, partitioned: set,
                    slow_map: Dict[int, Tuple[int, float]]) -> _ShardCall:
        """One fan-out RPC: replica selection, failover, hedging, budget.

        The elapsed time never exceeds ``budget`` — a call that would,
        is abandoned *at* the budget boundary with status ``deadline``,
        which is what keeps the coordinator's ladder reachable inside
        the request deadline no matter what the shards do.
        """
        cfg = self.config
        scfg = self.shard_config
        budget = max(0.0, budget)
        call = None
        if shard_id in partitioned:
            call = _ShardCall(shard_id, SHARD_PARTITIONED,
                              min(cfg.fault_detect_cost_s, budget))
        else:
            server = self.servers[shard_id]
            order = sorted(server.replicas, key=lambda r: r.ordinal)
            if order:
                rot = index % len(order)
                order = order[rot:] + order[:rot]
            failovers = 0
            chosen = None
            for replica in order:
                if replica.available(now + failovers
                                     * cfg.fault_detect_cost_s):
                    chosen = replica
                    break
                failovers += 1
            detect_cost = failovers * cfg.fault_detect_cost_s
            if chosen is None:
                call = _ShardCall(shard_id, SHARD_DEAD,
                                  min(detect_cost, budget),
                                  failovers=failovers)
            else:
                value, local_units, hedged = self._shard_op(
                    server.data, op, keys, request)
                base = scfg.call_cost_s + local_units * cfg.unit_cost_s
                if hedged is not None:
                    base += hedged.elapsed_s
                slow = slow_map.get(shard_id)
                pad_for = None
                if slow is not None:
                    avail = server.available_replicas(now)
                    if avail:
                        pad_for = avail[slow[0] % len(avail)]
                cost = base + (slow[1] if pad_for is chosen
                               and slow is not None else 0.0)
                launched = won = 0
                siblings = [r for r in order
                            if r is not chosen
                            and r.available(now + detect_cost)]
                if cost > cfg.hedge_after_s and siblings:
                    launched = 1
                    sibling = siblings[0]
                    sibling_cost = cfg.hedge_after_s + base + (
                        slow[1] if slow is not None
                        and pad_for is sibling else 0.0)
                    if sibling_cost < cost:
                        won = 1
                        cost = sibling_cost
                elapsed = detect_cost + cost
                if elapsed > budget:
                    call = _ShardCall(shard_id, SHARD_DEADLINE, budget,
                                      failovers=failovers,
                                      hedges_launched=launched)
                else:
                    call = _ShardCall(shard_id, SHARD_OK, elapsed,
                                      value=value, failovers=failovers,
                                      hedges_launched=launched,
                                      hedges_won=won, dfs_hedges=hedged)
        self.metrics.record_shard_call(shard_id, call.status,
                                       failovers=call.failovers,
                                       hedges_launched=call.hedges_launched,
                                       hedges_won=call.hedges_won)
        if call.dfs_hedges is not None:
            self.metrics.record_hedges(request.priority,
                                       call.dfs_hedges.hedges_launched,
                                       call.dfs_hedges.hedges_won,
                                       call.dfs_hedges.wasted_reads)
        self.shard_health[shard_id].record(
            EVENT_OK if call.status == SHARD_OK else EVENT_DEGRADED,
            now + call.elapsed_s)
        return call

    def _shard_op(self, data: ServeDataset, op: str, keys: List[int],
                  request: ServeRequest):
        """Execute one local operation on a shard's sliced dataset.

        Returns ``(value, local_units, hedged_read_or_None)``. Point
        kinds reuse the unsharded dataset code over the shard's slice,
        so a healthy sharded answer is byte-identical to the oracle.
        """
        cfg = self.config
        if op in (KIND_COMPANY, KIND_INVESTOR, KIND_ENGAGEMENT):
            answer = data.run(op, keys[0], self.dfs,
                              hedge_after_s=cfg.hedge_after_s)
            if answer.span_fallback:
                self.metrics.record_span_fallback()
            return answer.value, answer.units, answer.hedged
        if op == "community_label":
            return data.community_of.get(keys[0]), 1, None
        if op == "community_fragment":
            fragment = data.community_members.get(keys[0], [])
            return list(fragment), 1 + len(fragment), None
        if op == "adjacency":
            adj = {uid: data.follows_out.targets(uid) for uid in keys}
            units = sum(1 + len(users) + len(companies)
                        for users, companies in adj.values())
            return adj, units, None
        raise ConfigError(f"unknown shard op {op!r}")

    # -------------------------------------------------------------- autoscale
    def _autoscale_tick(self) -> None:
        self._executed += 1
        if (self.autoscaler is not None
                and self._executed % self.autoscaler.config.tick_every == 0):
            self.autoscaler.tick(self.clock.now())
