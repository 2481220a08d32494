"""Incremental standing-query evaluation on the derived commit path.

Every committed ``derived`` ingest unit lands one bounded delta of
investment and follow edges (the ``[watermark, head]`` range its intent
pinned — see :mod:`repro.crawl.incremental`). The evaluator matches
**only those delta records** against a compiled predicate index, so the
cost of a pass is ``O(delta × lookups)``, never a rescan of the corpus
or of the subscription population:

* the index is partitioned by the serve tier's
  :func:`~repro.serve.sharding.shard_of`, the same placement function
  that shards the query indexes — a record consults exactly the
  partition that owns its key, so evaluation fans out with the data;
* matching is a hash lookup per record per predicate family (company,
  community label, watched user), not an iteration over subscriptions;
* notification ids are a pure function of (subscription, derived unit,
  entity), so re-evaluating a unit after a crash — the scheduler replays
  every committed unit through :meth:`on_derived_commit` — re-emits
  byte-identical ids that the outbox deduplicates into no-ops.

:func:`rescan_oracle` is the deliberately naive offline checker: a full
scan of every derived delta against every active subscription, no
index, no watermark. The A11 chaos bench holds the incremental path to
exactly the oracle's notification set.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Set, Tuple

from repro.serve.dataset import ServeDataset
from repro.serve.sharding import shard_of
from repro.serve.subscriptions import (KIND_COMMUNITY_INVESTOR,
                                       KIND_COMPANY_FUNDING,
                                       KIND_NEIGHBORHOOD_FOLLOW,
                                       Subscription, SubscriptionRegistry)


@dataclass
class Notification:
    """One matched standing-query event, deterministically identified."""

    id: str
    sub_id: str
    tenant: str
    subscriber_id: str
    kind: str
    key: int
    unit: str
    entity: str
    payload: Dict = field(default_factory=dict)

    def as_dict(self) -> Dict:
        return {"id": self.id, "sub_id": self.sub_id,
                "tenant": self.tenant,
                "subscriber_id": self.subscriber_id, "kind": self.kind,
                "key": self.key, "unit": self.unit, "entity": self.entity,
                "payload": self.payload}

    @classmethod
    def from_dict(cls, doc: Dict) -> "Notification":
        return cls(id=doc["id"], sub_id=doc["sub_id"],
                   tenant=doc["tenant"],
                   subscriber_id=doc["subscriber_id"], kind=doc["kind"],
                   key=int(doc["key"]), unit=doc["unit"],
                   entity=doc["entity"], payload=dict(doc["payload"]))


def notification_id(sub_id: str, unit: str, entity: str) -> str:
    """Deterministic id keyed by (subscription, unit seq, entity)."""
    return f"ntf-{sub_id}-{unit}-{entity}"


def _neighborhood(dataset: ServeDataset, uid: int) -> Set[int]:
    """The user keyspace a ``neighborhood_follow`` subscription watches:
    the subscriber's own id plus every user they already follow."""
    users, _ = dataset.follows_out.targets(int(uid))
    return {int(uid), *users}


@dataclass
class AlertStats:
    """Lifetime accounting of one evaluator instance."""

    units_evaluated: int = 0
    records_scanned: int = 0        # delta records matched (never corpus)
    index_lookups: int = 0
    notifications: int = 0
    suppressed_inactive: int = 0    # matches on paused/cancelled subs
    index_rebuilds: int = 0


class PredicateIndex:
    """Sharded hash index over the active subscriptions.

    Three predicate families, each partitioned by ``shard_of`` over the
    key the delta record will probe with — company id for funding
    events, community label for community watches, followed-user id for
    neighborhood watches.
    """

    def __init__(self, num_shards: int):
        self.num_shards = num_shards
        self.by_company: List[Dict[int, List[str]]] = [
            {} for _ in range(num_shards)]
        self.by_community: List[Dict[int, List[str]]] = [
            {} for _ in range(num_shards)]
        self.by_user: List[Dict[int, List[str]]] = [
            {} for _ in range(num_shards)]
        #: lookups served per partition — evidence that evaluation fans
        #: out with the data instead of scanning one global structure
        self.lookups_per_shard: List[int] = [0] * num_shards

    @classmethod
    def build(cls, subs: List[Subscription], dataset: ServeDataset,
              num_shards: int) -> "PredicateIndex":
        index = cls(num_shards)
        for sub in subs:
            if sub.kind == KIND_COMPANY_FUNDING:
                shard = shard_of(sub.key, num_shards)
                index.by_company[shard].setdefault(
                    sub.key, []).append(sub.sub_id)
            elif sub.kind == KIND_COMMUNITY_INVESTOR:
                shard = shard_of(sub.key, num_shards)
                index.by_community[shard].setdefault(
                    sub.key, []).append(sub.sub_id)
            else:  # neighborhood_follow: expand the watched keyspace
                for uid in sorted(_neighborhood(dataset, sub.key)):
                    shard = shard_of(uid, num_shards)
                    index.by_user[shard].setdefault(
                        uid, []).append(sub.sub_id)
        return index

    def _probe(self, table: List[Dict[int, List[str]]],
               key: int) -> List[str]:
        shard = shard_of(key, self.num_shards)
        self.lookups_per_shard[shard] += 1
        return table[shard].get(key, [])

    def funding_subs(self, company_id: int) -> List[str]:
        return self._probe(self.by_company, company_id)

    def community_subs(self, label: int) -> List[str]:
        return self._probe(self.by_community, label)

    def follow_subs(self, dst_user: int) -> List[str]:
        return self._probe(self.by_user, dst_user)

    def __len__(self) -> int:
        return (sum(len(v) for d in self.by_company for v in d.values())
                + sum(len(v) for d in self.by_community
                      for v in d.values())
                + sum(len(v) for d in self.by_user for v in d.values()))


class AlertEvaluator:
    """Hooks the ContinuousScheduler's derived-unit commit path.

    The scheduler calls :meth:`on_derived_commit` both on a fresh commit
    and during ledger replay after a crash; both paths re-read the
    unit's own delta files (pinned by the unit id in the derived
    datasets' logs) and emit the same notification ids, which the
    outbox absorbs idempotently.
    """

    def __init__(self, registry: SubscriptionRegistry,
                 dataset: ServeDataset, num_shards: int = 4,
                 outbox=None):
        self.registry = registry
        self.dataset = dataset
        self.num_shards = num_shards
        self.outbox = outbox
        self.stats = AlertStats()
        self._index: Optional[PredicateIndex] = None
        self._index_version = -1
        #: every notification emitted, in emission order (includes
        #: re-emissions the outbox suppressed)
        self.emitted: List[Notification] = []

    # ----------------------------------------------------------------- index
    def index(self) -> PredicateIndex:
        """The compiled predicate index, rebuilt when the registry moved."""
        if self._index is None or \
                self._index_version != self.registry.version:
            self._index = PredicateIndex.build(
                self.registry.active(), self.dataset, self.num_shards)
            self._index_version = self.registry.version
            self.stats.index_rebuilds += 1
        return self._index

    # ------------------------------------------------------------- evaluate
    def _emit(self, sub_id: str, unit: str, entity: str,
              payload: Dict, out: List[Notification]) -> None:
        sub = self.registry.get(sub_id)
        if sub is None or not sub.active:
            self.stats.suppressed_inactive += 1
            return
        out.append(Notification(
            id=notification_id(sub_id, unit, entity),
            sub_id=sub_id, tenant=sub.tenant,
            subscriber_id=sub.subscriber_id, kind=sub.kind, key=sub.key,
            unit=unit, entity=entity, payload=payload))

    def evaluate_unit(self, unit: str, maintainer) -> List[Notification]:
        """Match one derived unit's delta against the predicate index."""
        index = self.index()
        out: List[Notification] = []
        # empty when a compaction folded the unit's delta away: by then
        # its notifications are already durable in the outbox
        invest = maintainer.investment_edges.unit_records(
            f"{unit}:investments")
        follows = maintainer.follow_edges.unit_records(f"{unit}:follows")
        self.stats.records_scanned += len(invest) + len(follows)
        for record in invest:
            investor = int(record["investor_id"])
            company = int(record["company_id"])
            entity = f"inv:{investor}:{company}"
            payload = {"investor_id": investor, "company_id": company}
            self.stats.index_lookups += 1
            for sub_id in index.funding_subs(company):
                self._emit(sub_id, unit, entity, payload, out)
            label = self.dataset.community_of.get(investor)
            if label is not None:
                self.stats.index_lookups += 1
                for sub_id in index.community_subs(int(label)):
                    self._emit(sub_id, unit, entity, payload, out)
        for record in follows:
            if record["dst_type"] != "user":
                continue
            src = int(record["src_user"])
            dst = int(record["dst_id"])
            entity = f"fol:{src}:{dst}"
            payload = {"src_user": src, "dst_id": dst}
            self.stats.index_lookups += 1
            for sub_id in index.follow_subs(dst):
                self._emit(sub_id, unit, entity, payload, out)
        return out

    def on_derived_commit(self, unit: str, payload: Dict,
                          maintainer) -> List[Notification]:
        """Scheduler hook: one derived unit just committed (or is being
        replayed from the ledger). Idempotent end to end."""
        self.stats.units_evaluated += 1
        notifications = self.evaluate_unit(unit, maintainer)
        self.stats.notifications += len(notifications)
        self.emitted.extend(notifications)
        if self.outbox is not None:
            for notification in notifications:
                self.outbox.enqueue(notification)
        return notifications


# --------------------------------------------------------------- oracle
def rescan_oracle(registry: SubscriptionRegistry, dataset: ServeDataset,
                  maintainer, subs: Optional[List[Subscription]] = None,
                  ) -> Set[str]:
    """Expected notification ids by brute force: every live derived
    delta × every active subscription, no index, no watermarks.

    This is the independent ground truth the chaos bench verifies the
    incremental path against — it must stay structurally naive.
    """
    subs = registry.active() if subs is None else subs
    expected: Set[str] = set()
    neighborhoods = {s.sub_id: _neighborhood(dataset, s.key)
                     for s in subs if s.kind == KIND_NEIGHBORHOOD_FOLLOW}

    def units_of(ds, suffix: str) -> List[Tuple[str, str]]:
        live = dict(ds.delta_files_since(0))
        return [(unit_id[:-len(suffix)], live[seq])
                for unit_id, seq in ds.applied_units().items()
                if unit_id.endswith(suffix) and seq in live]

    for unit, path in units_of(maintainer.investment_edges,
                               ":investments"):
        for record in maintainer.investment_edges._read_lines(path):
            investor = int(record["investor_id"])
            company = int(record["company_id"])
            entity = f"inv:{investor}:{company}"
            for sub in subs:
                hit = (sub.kind == KIND_COMPANY_FUNDING
                       and sub.key == company) or \
                      (sub.kind == KIND_COMMUNITY_INVESTOR
                       and dataset.community_of.get(investor) == sub.key)
                if hit:
                    expected.add(
                        notification_id(sub.sub_id, unit, entity))
    for unit, path in units_of(maintainer.follow_edges, ":follows"):
        for record in maintainer.follow_edges._read_lines(path):
            if record["dst_type"] != "user":
                continue
            src = int(record["src_user"])
            dst = int(record["dst_id"])
            entity = f"fol:{src}:{dst}"
            for sub in subs:
                if sub.kind == KIND_NEIGHBORHOOD_FOLLOW and \
                        dst in neighborhoods[sub.sub_id]:
                    expected.add(
                        notification_id(sub.sub_id, unit, entity))
    return expected
