"""At-least-once delivery outbox for standing-query notifications.

The evaluator proves a notification *should* exist; the outbox makes it
survive everything between "matched" and "observed by the subscriber":

* **manifest-last commits** — a notification is durable the moment its
  pending file lands (atomic write); the delivered marker is written
  only *after* the subscriber's effect applied, so a crash between
  effect and marker re-delivers — and the subscriber's dedupe by
  notification id turns the redelivery into a no-op. At-least-once on
  the channel, exactly-once in observable effect;
* **per-subscriber leases with fencing epochs** — delivery attempts run
  under the same :class:`~repro.durable.LeaseTable` as ingest units (one
  "unit" per subscriber): a delivery worker whose lease lapsed
  mid-attempt is fenced off the delivered marker and the notification
  is redelivered under a higher epoch;
* **deterministic jittered backoff** — retry delays derive from
  ``(seed, notification, attempt)``, never wall clock, so a same-seed
  chaos run replays the same delivery log byte for byte;
* **poison-subscriber quarantine** — a notification failing
  ``max_delivery_attempts`` times marks its subscriber poison: the
  subscriber's pending notifications move to a quarantine directory
  (the dead-letter pattern of :mod:`repro.crawl.deadletter`) and the
  outbox keeps draining everyone else instead of stalling;
* **fair-share delivery** — deliveries are offered to the same
  per-tenant token buckets and WFQ as interactive queries (as
  ``bulk``-priority tickets), so a tenant with 100x subscribers is
  clipped to its own weighted share and cannot starve anyone.

Chaos enters through :meth:`FaultSchedule.alert_fault_at` — subscriber
kills, dropped acks, duplicated deliveries — keyed by per-attempt step
keys so retries roll new dice.
"""

from __future__ import annotations

import json
import posixpath
from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional, Tuple

from repro.dfs.filesystem import MiniDfs
from repro.durable import LeaseTable, read_doc, write_doc
from repro.net.faults import (FAULT_DROP_ACK, FAULT_DUP_DELIVER,
                              FAULT_KILL_SUBSCRIBER)
from repro.serve.alerting import Notification
from repro.util.clock import Clock
from repro.util.errors import ConfigError, LeaseExpired
from repro.util.rng import jittered_backoff

#: delivery-log outcomes
OUTCOME_DELIVERED = "delivered"
OUTCOME_FAILED = "failed"            # subscriber down; retry scheduled
OUTCOME_ACK_DROPPED = "ack_dropped"  # effect applied, marker withheld
OUTCOME_FENCED = "fenced"            # lease lost mid-attempt
OUTCOME_QUARANTINED = "quarantined"  # subscriber declared poison


class Subscriber:
    """A simulated delivery endpoint with idempotent observable effects.

    ``received`` is the raw channel log (duplicates and all) — the
    at-least-once side. ``effects`` is what the subscriber *observably
    did*, deduplicated by notification id — the exactly-once side the
    chaos bench asserts on. ``poison=True`` models an endpoint that
    never acks (every delivery attempt fails).
    """

    def __init__(self, subscriber_id: str, tenant: str = "default",
                 poison: bool = False):
        self.subscriber_id = subscriber_id
        self.tenant = tenant
        self.poison = poison
        self.received: List[str] = []
        self.effects: List[str] = []
        self._seen: set = set()

    def deliver(self, notification: Notification) -> bool:
        """Accept one channel delivery; apply the effect once per id."""
        self.received.append(notification.id)
        if notification.id in self._seen:
            return False
        self._seen.add(notification.id)
        self.effects.append(notification.id)
        return True


@dataclass
class DeliveryTicket:
    """A delivery attempt shaped like a serve request, so it can ride
    the same FairShareAdmission (tenant bucket + WFQ) as queries."""

    nid: str
    tenant: str
    arrival_s: float
    priority: str = "bulk"


@dataclass
class OutboxStats:
    """Lifetime counters of one outbox incarnation."""

    enqueued: int = 0
    duplicates_suppressed: int = 0   # re-enqueues absorbed by the id
    attempts: int = 0
    delivered: int = 0
    effects_deduped: int = 0         # redeliveries the subscriber absorbed
    failures: int = 0
    acks_dropped: int = 0
    dup_deliveries: int = 0
    fenced: int = 0
    deferred_fair_share: int = 0     # attempts pushed back by the bucket
    quarantined_subscribers: int = 0
    quarantined_notifications: int = 0


class DeliveryOutbox:
    """Durable at-least-once delivery with idempotent redelivery."""

    def __init__(self, dfs: MiniDfs, clock: Clock,
                 subscribers: Dict[str, Subscriber],
                 root: str = "/serve/outbox",
                 faults: Any = None, seed: int = 0,
                 owner: str = "outbox-1",
                 max_delivery_attempts: int = 5,
                 retry_base_s: float = 5.0,
                 retry_max_s: float = 300.0,
                 lease_ttl_s: float = 120.0):
        if max_delivery_attempts < 1:
            raise ConfigError("max_delivery_attempts must be >= 1")
        if retry_base_s <= 0:
            raise ConfigError("retry_base_s must be > 0")
        self.dfs = dfs
        self.clock = clock
        self.subscribers = subscribers
        self.root = root.rstrip("/")
        self.faults = faults
        self.seed = seed
        self.owner = owner
        self.max_delivery_attempts = max_delivery_attempts
        self.retry_base_s = retry_base_s
        self.retry_max_s = retry_max_s
        self.stats = OutboxStats()
        #: (sim_time, subscriber, notification id, outcome, attempt) —
        #: byte-identical across same-seed reruns
        self.delivery_log: List[Tuple] = []
        #: one lease per subscriber, fencing epochs included
        self.leases = LeaseTable(dfs, clock, f"{self.root}/leases",
                                 lease_ttl_s)
        # temps a crash left between a write_doc's write and its rename
        dfs.sweep_temps(self.root)

    # ---------------------------------------------------------------- layout
    def _pending_path(self, nid: str) -> str:
        return f"{self.root}/pending/{nid}.json"

    def _delivered_path(self, nid: str) -> str:
        return f"{self.root}/delivered/{nid}.json"

    def _quarantine_marker(self, subscriber_id: str) -> str:
        return f"{self.root}/quarantine/{subscriber_id}.poison.json"

    def _quarantine_path(self, subscriber_id: str, nid: str) -> str:
        return f"{self.root}/quarantine/{subscriber_id}/{nid}.json"

    # --------------------------------------------------------------- enqueue
    def enqueue(self, notification: Notification) -> bool:
        """Admit one notification; idempotent by notification id.

        A re-emitted id (ledger replay after a crash, duplicate match)
        is a no-op whether the original is still pending, already
        delivered, or quarantined with its subscriber.
        """
        nid = notification.id
        sid = notification.subscriber_id
        if (self.dfs.exists(self._pending_path(nid))
                or self.dfs.exists(self._delivered_path(nid))
                or self.dfs.exists(self._quarantine_path(sid, nid))):
            self.stats.duplicates_suppressed += 1
            return False
        write_doc(self.dfs, self._pending_path(nid),
                  {"notification": notification.as_dict(),
                   "attempts": 0, "not_before": 0.0})
        self.stats.enqueued += 1
        return True

    # ------------------------------------------------------------ inspection
    def _load_pending(self, nid: str) -> Dict:
        return read_doc(self.dfs, self._pending_path(nid))

    def _ids(self, subdir: str) -> List[str]:
        names = (posixpath.basename(path)
                 for path in self.dfs.listdir(f"{self.root}/{subdir}"))
        return sorted(n[:-len(".json")] for n in names
                      if not n.startswith("."))

    def pending(self) -> List[str]:
        """Pending notification ids (sorted; includes deferred ones)."""
        return self._ids("pending")

    def delivered_ids(self) -> List[str]:
        return self._ids("delivered")

    def quarantined(self) -> Dict[str, List[str]]:
        """Poison subscriber id → its quarantined notification ids."""
        out: Dict[str, List[str]] = {}
        for path in self.dfs.listdir(f"{self.root}/quarantine"):
            base = posixpath.basename(path)
            if base.startswith("."):
                continue
            if base.endswith(".poison.json"):
                out.setdefault(base[:-len(".poison.json")], [])
            else:
                sid = posixpath.basename(posixpath.dirname(path))
                out.setdefault(sid, []).append(base[:-len(".json")])
        return {sid: sorted(nids) for sid, nids in sorted(out.items())}

    def is_quarantined(self, subscriber_id: str) -> bool:
        return self.dfs.exists(self._quarantine_marker(subscriber_id))

    def due(self, now: Optional[float] = None) -> List[str]:
        """Pending ids ready for a delivery attempt, in id order."""
        now = self.clock.now() if now is None else now
        ready = []
        for nid in self.pending():
            entry = self._load_pending(nid)
            sid = entry["notification"]["subscriber_id"]
            if self.is_quarantined(sid):
                continue
            if entry["not_before"] <= now:
                ready.append(nid)
        return ready

    def next_due_at(self) -> Optional[float]:
        """Earliest ``not_before`` over non-quarantined pending ids."""
        times = []
        for nid in self.pending():
            entry = self._load_pending(nid)
            if not self.is_quarantined(
                    entry["notification"]["subscriber_id"]):
                times.append(entry["not_before"])
        return min(times) if times else None

    # ---------------------------------------------------------------- policy
    def backoff_s(self, nid: str, attempt: int) -> float:
        """Deterministic jittered exponential backoff for this retry."""
        delay = jittered_backoff(self.retry_base_s, max(0, attempt - 1), 0.5,
                                 self.seed, f"backoff:{nid}:a{attempt}")
        return round(min(self.retry_max_s, delay), 9)

    def ticket(self, nid: str, now: Optional[float] = None,
               ) -> DeliveryTicket:
        """Wrap a pending id for fair-share admission alongside queries."""
        entry = self._load_pending(nid)
        return DeliveryTicket(
            nid=nid, tenant=entry["notification"]["tenant"],
            arrival_s=self.clock.now() if now is None else now)

    def defer(self, nid: str, until: float) -> None:
        """Push one pending delivery back (bucket said not now); does
        not count as a failed attempt — fair-share pressure is not the
        subscriber's fault."""
        entry = self._load_pending(nid)
        entry["not_before"] = round(until, 9)
        write_doc(self.dfs, self._pending_path(nid), entry)
        self.stats.deferred_fair_share += 1

    # -------------------------------------------------------------- delivery
    def _log(self, sid: str, nid: str, outcome: str, attempt: int) -> None:
        self.delivery_log.append(
            (round(self.clock.now(), 9), sid, nid, outcome, attempt))

    def _quarantine_subscriber(self, sid: str) -> None:
        """Declare a subscriber poison; park its pending notifications."""
        write_doc(self.dfs, self._quarantine_marker(sid),
                  {"subscriber": sid, "at": round(self.clock.now(), 9)})
        self.stats.quarantined_subscribers += 1
        for nid in self.pending():
            entry = self._load_pending(nid)
            if entry["notification"]["subscriber_id"] != sid:
                continue
            write_doc(self.dfs, self._quarantine_path(sid, nid), entry)
            self.dfs.delete(self._pending_path(nid))
            self.stats.quarantined_notifications += 1

    def _fail(self, sid: str, nid: str, entry: Dict, attempt: int,
              outcome: str) -> None:
        entry["attempts"] = attempt
        if attempt >= self.max_delivery_attempts:
            write_doc(self.dfs, self._pending_path(nid), entry)
            self._log(sid, nid, OUTCOME_QUARANTINED, attempt)
            self._quarantine_subscriber(sid)
            return
        entry["not_before"] = round(
            self.clock.now() + self.backoff_s(nid, attempt), 9)
        write_doc(self.dfs, self._pending_path(nid), entry)
        self._log(sid, nid, outcome, attempt)

    def attempt(self, nid: str) -> str:
        """One delivery attempt for one pending notification.

        Returns the outcome recorded in the delivery log. The happy
        path is manifest-last: subscriber effect, then (under a still-
        valid lease) the delivered marker, then the pending file drops.
        """
        entry = self._load_pending(nid)
        notification = Notification.from_dict(entry["notification"])
        sid = notification.subscriber_id
        subscriber = self.subscribers.get(sid)
        if subscriber is None:
            raise ConfigError(f"no subscriber registered for {sid!r}")
        attempt_no = entry["attempts"] + 1
        self.stats.attempts += 1

        lease = self.leases.acquire(sid, self.owner)
        if lease is None:
            # someone else is delivering to this subscriber; not a fault
            self._log(sid, nid, OUTCOME_FENCED, attempt_no)
            self.stats.fenced += 1
            return OUTCOME_FENCED

        spec = None
        if self.faults is not None and hasattr(self.faults,
                                               "alert_fault_at"):
            spec = self.faults.alert_fault_at(
                f"{sid}:{nid}#a{attempt_no}")
        kind = spec.kind if spec is not None else None

        if subscriber.poison or kind == FAULT_KILL_SUBSCRIBER:
            self.stats.failures += 1
            self._fail(sid, nid, entry, attempt_no, OUTCOME_FAILED)
            self.leases.release(lease)
            return self.delivery_log[-1][3]

        # effect first (at-least-once): the channel may duplicate it
        applied = subscriber.deliver(notification)
        if not applied:
            self.stats.effects_deduped += 1
        if kind == FAULT_DUP_DELIVER:
            self.stats.dup_deliveries += 1
            if not subscriber.deliver(notification):
                self.stats.effects_deduped += 1

        if kind == FAULT_DROP_ACK:
            # the subscriber observed the event but we cannot prove it:
            # leave the pending file, back off, redeliver — the dedupe
            # above is what makes that safe
            self.stats.acks_dropped += 1
            self._fail(sid, nid, entry, attempt_no, OUTCOME_ACK_DROPPED)
            self.leases.release(lease)
            return self.delivery_log[-1][3]

        # manifest-last: the delivered marker publishes, fenced by the
        # lease epoch — a worker that lost its lease must not publish
        try:
            lease = self.leases.heartbeat(lease)
        except LeaseExpired:
            self.stats.fenced += 1
            self._log(sid, nid, OUTCOME_FENCED, attempt_no)
            return OUTCOME_FENCED
        write_doc(self.dfs, self._delivered_path(nid),
                  {"id": nid, "subscriber": sid, "attempt": attempt_no,
                   "at": round(self.clock.now(), 9)})
        self.dfs.delete(self._pending_path(nid))
        self.stats.delivered += 1
        self._log(sid, nid, OUTCOME_DELIVERED, attempt_no)
        self.leases.release(lease)
        return OUTCOME_DELIVERED

    # ----------------------------------------------------------------- drain
    def drain(self, max_rounds: int = 1000) -> int:
        """Deliver until nothing non-quarantined is pending.

        Advances the simulated clock across backoff gaps. Returns the
        number of attempts made; raises if ``max_rounds`` passes
        without converging (a liveness bug, not a retry storm).
        """
        made = 0
        for _ in range(max_rounds):
            ready = self.due()
            if not ready:
                next_at = self.next_due_at()
                if next_at is None:
                    return made
                self.clock.sleep(max(1e-9, next_at - self.clock.now()))
                continue
            for nid in ready:
                if self.dfs.exists(self._pending_path(nid)):
                    self.attempt(nid)
                    made += 1
        raise ConfigError(
            f"outbox failed to drain within {max_rounds} rounds")

    # -------------------------------------------------------------- snapshot
    def log_json(self) -> str:
        """The delivery log as canonical JSON (rerun-identity checks)."""
        return json.dumps([list(e) for e in self.delivery_log],
                          sort_keys=True)
