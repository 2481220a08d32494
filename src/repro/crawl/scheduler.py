"""Beat-style continuous scheduler: the supervised ingest service.

Converts the run-to-completion pipeline into a *continuous* one: every
beat (a simulated-clock tick) advances the world one day and drives a
fixed cadence of ledger-framed, idempotent work units through the
crawl → landing → derived-dataset pipeline:

``advance``   step the world's dynamics one day (idempotent via the
              world's own day counter);
``discover``  list currently-raising startups, track them, seed the
              frontier;
``snapshot``  capture the day's longitudinal panel rows for every
              tracked startup;
``frontier``  expand one bounded slice of the BFS frontier (profiles,
              follow edges, investments);
``derived``   delta-aware refresh of the derived follow/investment
              edge datasets through the engine.

Every unit runs under the write-ahead ledger protocol
(:mod:`repro.crawl.ledger`): lease → intent (inputs pinned) → effects
(idempotent upserts) → fenced commit (results recorded) → release. The
scheduler object itself is disposable — **all** of its in-memory state
(tracked set, frontier queue, seen set, watermarks) is rebuilt by
replaying committed ledger payloads, so a SIGKILL at *any* point is
survivable: construct a new scheduler over the same storage and call
:meth:`run`; pending intents are redelivered, re-landed exactly-once,
and the eventual datasets are byte-identical to an uninterrupted run
(the A8 chaos drill holds this as a gate).

A watchdog runs each beat: expired leases are flagged for redelivery
(takeover bumps the fencing epoch), leases of committed units are
collected, and a unit redelivered more than ``max_unit_attempts`` times
escalates loudly instead of looping forever. ``request_drain`` stops
the loop gracefully — in-flight units finish, nothing new starts.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional, Tuple

from repro.crawl.client import ApiClient, AUTH_QUERY_ACCESS_TOKEN
from repro.crawl.enrich import facebook_login
from repro.crawl.incremental import DerivedMaintainer
from repro.crawl.ledger import IngestLedger, STATE_COMMITTED
from repro.crawl.snapshots import snapshot_record
from repro.dfs.filesystem import MiniDfs
from repro.dfs.upsert import UpsertDataset
from repro.engine.context import SparkLiteContext
from repro.net.faults import FAULT_KILL_INGEST, FAULT_LEASE_EXPIRY
from repro.sources.hub import SourceHub
from repro.util.errors import IngestError, IngestKilled, LeaseExpired
from repro.world.dynamics import WorldDynamics

#: crash points of the ledger protocol, in execution order — the chaos
#: drill must cover every one of them
CRASH_STATES = ("pre-intent", "post-intent", "mid-land",
                "pre-commit", "post-commit")

_OWNER_IDS = itertools.count(1)


@dataclass
class IngestStats:
    """Lifetime counters of one scheduler incarnation."""

    beats: int = 0
    units_committed: int = 0
    units_redelivered: int = 0   # ran from a pre-existing intent
    units_skipped: int = 0       # already committed when planned
    lands_skipped: int = 0       # upsert applies absorbed as duplicates
    kills_injected: int = 0
    leases_blocked: int = 0      # unit busy under someone else's lease
    leases_lost: int = 0         # our lease lapsed mid-unit
    leases_taken_over: int = 0   # we reclaimed a dead owner's unit
    fenced_commits: int = 0
    watchdog_reclaims: int = 0
    vacuumed_files: int = 0
    swept_temps: int = 0


@dataclass
class IngestReport:
    """Summary of one :meth:`ContinuousScheduler.run` call."""

    owner: str
    day: int
    stats: IngestStats
    dataset_keys: Dict[str, int] = field(default_factory=dict)
    derived_records_scanned: int = 0
    drained: bool = False


class ContinuousScheduler:
    """Drives the continuous crawl as ledger-framed idempotent units."""

    UNIT_KINDS = ("advance", "discover", "snapshot", "frontier", "derived")

    def __init__(self, hub: SourceHub, dynamics: WorldDynamics,
                 dfs: MiniDfs, sc: Optional[SparkLiteContext] = None,
                 root: str = "/ingest",
                 beat_interval_s: float = 60.0,
                 lease_ttl_s: float = 150.0,
                 owner: Optional[str] = None,
                 faults: Any = None,
                 frontier_batch: int = 16,
                 records_per_part: int = 5000,
                 heartbeat_every: int = 8,
                 max_unit_attempts: int = 25,
                 compact_every_days: int = 0,
                 alerting: Any = None):
        if beat_interval_s <= 0:
            raise IngestError("beat_interval_s must be > 0")
        if frontier_batch < 1:
            raise IngestError("frontier_batch must be >= 1")
        self.hub = hub
        self.dynamics = dynamics
        self.dfs = dfs
        self.clock = hub.clock
        self.root = root.rstrip("/")
        self.beat_interval_s = beat_interval_s
        self.owner = owner or f"ingest-{next(_OWNER_IDS)}"
        self.faults = faults
        self.frontier_batch = frontier_batch
        self.heartbeat_every = heartbeat_every
        self.max_unit_attempts = max_unit_attempts
        self.compact_every_days = compact_every_days
        #: standing-query evaluator (repro.serve.alerting) hooked into
        #: the derived commit path; replayed commits re-evaluate too, so
        #: a crashed scheduler re-emits — the outbox dedupes by id
        self.alerting = alerting
        self._own_sc = sc is None
        self.sc = sc or SparkLiteContext(parallelism=2, backend="serial")
        self.stats = IngestStats()
        self._stopping = False
        self._hb_serial = 0

        self.ledger = IngestLedger(dfs, self.clock,
                                   root=f"{self.root}/ledger",
                                   lease_ttl_s=lease_ttl_s).open()
        self.stats.swept_temps = self.ledger.swept_temps

        self.panels = UpsertDataset(
            dfs, f"{self.root}/panels", key=("day", "startup_id"),
            records_per_part=records_per_part)
        self.startups = UpsertDataset(
            dfs, f"{self.root}/startups", key="id",
            records_per_part=records_per_part)
        self.users = UpsertDataset(
            dfs, f"{self.root}/users", key="id",
            records_per_part=records_per_part)
        self.follow_edges = UpsertDataset(
            dfs, f"{self.root}/follow_edges",
            key=("src_user", "dst_type", "dst_id"),
            records_per_part=records_per_part)
        self.investments = UpsertDataset(
            dfs, f"{self.root}/investments",
            key=("investor_id", "company_id"),
            records_per_part=records_per_part)
        self.derived = DerivedMaintainer(
            self.sc, dfs, self.investments, self.follow_edges,
            root=f"{self.root}/derived")
        # a crash between a delta write and its log append leaves an
        # unreferenced delta; reclaim them before planning anything
        for dataset in self._all_datasets():
            self.stats.vacuumed_files += len(dataset.vacuum())

        self.al_client = ApiClient(hub.angellist, self.clock,
                                   token=hub.angellist.issue_token(
                                       self.owner))
        self.fb_client = ApiClient(
            hub.facebook, self.clock, auth_style=AUTH_QUERY_ACCESS_TOKEN,
            token_refresher=lambda: facebook_login(hub.facebook))
        self.tw_client = ApiClient(
            hub.twitter, self.clock, auth_style=AUTH_QUERY_ACCESS_TOKEN,
            token=hub.twitter.register_app(self.owner))

        # -------- in-memory state, rebuilt from the ledger every start
        self.tracked: set = set()
        self.frontier: List[Tuple[str, int]] = []
        self.seen: set = set()
        self.day_committed = 0
        self.watermarks: Dict[str, int] = {}
        self._replay_state()

    # ----------------------------------------------------------- lifecycle
    def close(self) -> None:
        if self._own_sc:
            self.sc.stop()

    def __enter__(self) -> "ContinuousScheduler":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    def request_drain(self) -> None:
        """Graceful shutdown: finish the unit in flight, start nothing
        new; :meth:`run` returns with ``drained=True``."""
        self._stopping = True

    # ------------------------------------------------------- state replay
    def _unit_id(self, day: int, kind: str) -> str:
        return f"day-{day:04d}:{kind}"

    def _unit_kind(self, unit: str) -> str:
        return unit.rsplit(":", 1)[1]

    def _enqueue(self, entity: Tuple[str, int]) -> None:
        entity = (entity[0], int(entity[1]))
        if entity not in self.seen:
            self.seen.add(entity)
            self.frontier.append(entity)

    def _absorb_intent(self, kind: str, payload: Dict) -> None:
        if kind == "frontier":
            claimed = [(e[0], int(e[1])) for e in payload.get("slice", ())]
            # the slice also counts as seen: a crashed unit's entities
            # must not be re-enqueued by a later discovery
            self.seen.update(claimed)
            if self.frontier[:len(claimed)] == claimed:
                # a slice is cut from the head and `seen` keeps frontier
                # entries unique, so dropping the head drops them all
                del self.frontier[:len(claimed)]
            else:   # crash replay: an intent whose slice is not the head
                members = set(claimed)
                self.frontier = [e for e in self.frontier
                                 if e not in members]

    def _absorb_commit(self, unit: str, kind: str, payload: Dict) -> None:
        if kind == "advance":
            self.day_committed = int(payload["day"])
        elif kind == "discover":
            for sid in payload.get("added", ()):
                self.tracked.add(int(sid))
                self._enqueue(("startup", int(sid)))
        elif kind == "frontier":
            for entity in payload.get("discovered", ()):
                self._enqueue((entity[0], int(entity[1])))
        elif kind == "derived":
            self.watermarks = {k: int(v)
                               for k, v in payload["watermarks"].items()}
            if self.alerting is not None:
                self.alerting.on_derived_commit(unit, payload,
                                                self.derived)

    def _replay_state(self) -> None:
        """Rebuild every in-memory structure from the durable ledger."""
        for record in self.ledger.records():
            kind = self._unit_kind(record.unit)
            if record.type == "intent":
                self._absorb_intent(kind, record.payload)
            else:
                self._absorb_commit(record.unit, kind, record.payload)

    # ----------------------------------------------------------- fault hooks
    def _crash_point(self, unit: str, state: str, epoch: int) -> None:
        if self.faults is None:
            return
        kill = self.faults.take_forced_ingest_kill(unit, state)
        if not kill:
            spec = self.faults.ingest_fault_at(f"{unit}@{state}#e{epoch}")
            kill = spec is not None and spec.kind == FAULT_KILL_INGEST
        if kill:
            self.stats.kills_injected += 1
            # a SIGKILL does not clean up: no lease release, no commit —
            # recovery must come entirely from what is already durable
            raise IngestKilled(unit, state)

    def _heartbeat(self, lease, unit: str):
        """Extend our lease mid-unit; chaos may have let it lapse."""
        self._hb_serial += 1
        if self.faults is not None:
            key = f"{unit}@hb#e{lease.epoch}n{self._hb_serial}"
            spec = self.faults.ingest_fault_at(key)
            if spec is not None and spec.kind == FAULT_LEASE_EXPIRY:
                self.ledger.leases.expire(unit)
        return self.ledger.leases.heartbeat(lease)

    # -------------------------------------------------------------- planning
    def _day_complete(self, day: int) -> bool:
        return all(
            self.ledger.state(self._unit_id(day, kind)) == STATE_COMMITTED
            for kind in self.UNIT_KINDS)

    def _planned_day(self) -> int:
        if self.day_committed == 0:
            return 1
        if self._day_complete(self.day_committed):
            return self.day_committed + 1
        return self.day_committed

    def _intent_payload(self, kind: str, day: int) -> Dict:
        """Pin every input of a unit *before* its effects start, so a
        redelivery after a crash re-executes identical work."""
        if kind == "advance":
            return {"day": day}
        if kind == "discover":
            return {"day": day}
        if kind == "snapshot":
            return {"day": day, "tracked": sorted(self.tracked)}
        if kind == "frontier":
            return {"day": day,
                    "slice": [[t, i] for t, i
                              in self.frontier[:self.frontier_batch]]}
        if kind == "derived":
            return {"day": day, "plan": self.derived.plan(self.watermarks)}
        raise AssertionError(kind)  # pragma: no cover

    # -------------------------------------------------------------- running
    def run(self, beats: int) -> IngestReport:
        """Run up to ``beats`` ticks (or until drained)."""
        for _ in range(beats):
            if self._stopping:
                break
            self.tick()
        return self.report()

    def run_until_day(self, day: int, max_beats: int = 10_000,
                      ) -> IngestReport:
        """Tick until every unit of ``day`` has committed."""
        beats = 0
        while not self._day_complete(day):
            if self._stopping or beats >= max_beats:
                break
            self.tick()
            beats += 1
        return self.report()

    def tick(self) -> None:
        """One beat: advance time, supervise, drive the day's units."""
        self.stats.beats += 1
        self.clock.sleep(self.beat_interval_s)
        self._watchdog()
        day = self._planned_day()
        for kind in self.UNIT_KINDS:
            if self._stopping:
                break
            unit = self._unit_id(day, kind)
            if self.ledger.state(unit) == STATE_COMMITTED:
                self.stats.units_skipped += 1
                continue
            if not self._run_unit(unit, kind, day):
                # strict intra-day ordering: snapshot must not run
                # before discover committed, etc.
                break
        if (self.compact_every_days > 0 and day % self.compact_every_days == 0
                and self._day_complete(day)
                and not self.ledger.pending_units()):
            # safe point: nothing pending can be redelivered against a
            # delta file a compaction would fold away
            for dataset in self._all_datasets():
                dataset.compact()

    def _watchdog(self) -> None:
        """Supervision sweep: reclaim dead owners' units, escalate
        poison units, collect spent leases."""
        reclaimable = self.ledger.reclaim_expired()
        self.stats.watchdog_reclaims += len(reclaimable)
        self.ledger.gc_leases()
        for unit in self.ledger.pending_units():
            lease = self.ledger.leases.lease_of(unit)
            attempts = lease.epoch if lease is not None else 0
            if attempts > self.max_unit_attempts:
                raise IngestError(
                    f"unit {unit} redelivered {attempts} times without "
                    f"committing — escalating instead of looping")

    def _run_unit(self, unit: str, kind: str, day: int) -> bool:
        """Drive one unit through the full ledger protocol.

        Returns True when the unit (now or previously) committed.
        """
        prior = self.ledger.leases.lease_of(unit)
        lease = self.ledger.leases.acquire(unit, self.owner)
        if lease is None:
            self.stats.leases_blocked += 1
            return False
        if prior is not None and prior.owner != self.owner:
            self.stats.leases_taken_over += 1
        try:
            self._crash_point(unit, "pre-intent", lease.epoch)
            intent = self.ledger.intent_of(unit)
            if intent is not None:
                self.stats.units_redelivered += 1
            else:
                payload = self._intent_payload(kind, day)
                intent = self.ledger.begin(unit, payload)
                self._absorb_intent(kind, intent.payload)
            self._crash_point(unit, "post-intent", lease.epoch)
            result = self._execute(unit, kind, intent.payload, lease)
            self._crash_point(unit, "pre-commit", lease.epoch)
            self.ledger.commit(unit, result, owner=self.owner,
                               epoch=lease.epoch)
            self._absorb_commit(unit, kind, result)
            self.stats.units_committed += 1
            self._crash_point(unit, "post-commit", lease.epoch)
            self.ledger.leases.release(lease)
            return True
        except LeaseExpired:
            # our lease lapsed (or was fenced) mid-unit: abandon; the
            # landing already done is idempotent under redelivery
            self.stats.leases_lost += 1
            self.stats.fenced_commits = self.ledger.fenced_commits
            return False

    # ------------------------------------------------------------- execution
    def _execute(self, unit: str, kind: str, payload: Dict,
                 lease) -> Dict:
        if kind == "advance":
            return self._exec_advance(payload)
        if kind == "discover":
            return self._exec_discover(payload)
        if kind == "snapshot":
            return self._exec_snapshot(unit, payload, lease)
        if kind == "frontier":
            return self._exec_frontier(unit, payload, lease)
        if kind == "derived":
            return self._exec_derived(unit, payload, lease)
        raise AssertionError(kind)  # pragma: no cover

    def _exec_advance(self, payload: Dict) -> Dict:
        day = int(payload["day"])
        if self.dynamics.world.day < day:
            log = self.dynamics.step()
        else:
            # redelivery after the step already happened: the world's
            # day counter is the idempotency check, the kept log the
            # evidence (a restarted dynamics keeps the world but not
            # the log — the day still counts, its stats are lost)
            log = next((l for l in self.dynamics.logs if l.day == day),
                       None)
        if log is None:
            return {"day": day, "rounds_closed": 0,
                    "engagement_events": 0, "new_campaigns": 0}
        return {"day": day, "rounds_closed": log.rounds_closed,
                "engagement_events": log.engagement_events,
                "new_campaigns": log.new_campaigns}

    def _exec_discover(self, payload: Dict) -> Dict:
        day = int(payload["day"])
        added = []
        for item in self.al_client.paged("/1/startups",
                                         {"filter": "raising"},
                                         items_key="startups"):
            added.append(int(item["id"]))
        return {"day": day, "added": added}

    def _exec_snapshot(self, unit: str, payload: Dict, lease) -> Dict:
        day = int(payload["day"])
        records = []
        for count, sid in enumerate(payload.get("tracked", ())):
            if count % self.heartbeat_every == 0:
                lease = self._heartbeat(lease, unit)
            record = snapshot_record(self.al_client, self.fb_client,
                                     self.tw_client, int(sid), day)
            if record is not None:
                records.append(record)
        applied = self.panels.apply(
            unit, records,
            on_delta_written=lambda: self._crash_point(
                unit, "mid-land", lease.epoch))
        if not applied.applied:
            self.stats.lands_skipped += 1
        return {"day": day, "records": len(records)}

    def _exec_frontier(self, unit: str, payload: Dict, lease) -> Dict:
        day = int(payload["day"])
        slice_ = [(e[0], int(e[1])) for e in payload.get("slice", ())]
        startup_rows: List[Dict] = []
        user_rows: List[Dict] = []
        follow_rows: List[Dict] = []
        invest_rows: List[Dict] = []
        discovered: List[List] = []
        local_seen = set(slice_)

        def discover(entity: Tuple[str, int]) -> None:
            if entity not in local_seen and entity not in self.seen:
                local_seen.add(entity)
                discovered.append([entity[0], entity[1]])

        for count, (etype, eid) in enumerate(slice_):
            if count % self.heartbeat_every == 0:
                lease = self._heartbeat(lease, unit)
            if etype == "startup":
                profile = self.al_client.get(f"/1/startups/{eid}",
                                             allow_not_found=True)
                if profile is not None:
                    startup_rows.append(profile)
                for follower in self.al_client.paged(
                        f"/1/startups/{eid}/followers", items_key="users"):
                    discover(("user", int(follower["id"])))
            else:
                profile = self.al_client.get(f"/1/users/{eid}",
                                             allow_not_found=True)
                if profile is not None:
                    user_rows.append(profile)
                for item in self.al_client.paged(
                        f"/1/users/{eid}/following", {"type": "startup"}):
                    cid = int(item["id"])
                    follow_rows.append({"src_user": eid,
                                        "dst_type": "startup",
                                        "dst_id": cid})
                    discover(("startup", cid))
                for item in self.al_client.paged(
                        f"/1/users/{eid}/following", {"type": "user"}):
                    fid = int(item["id"])
                    follow_rows.append({"src_user": eid,
                                        "dst_type": "user", "dst_id": fid})
                    discover(("user", fid))
                for item in self.al_client.paged(
                        f"/1/users/{eid}/investments",
                        items_key="investments"):
                    cid = int(item["startup_id"])
                    invest_rows.append({"investor_id": eid,
                                        "company_id": cid})
                    discover(("startup", cid))

        applied = self.startups.apply(
            f"{unit}:startups", startup_rows,
            on_delta_written=lambda: self._crash_point(
                unit, "mid-land", lease.epoch))
        if not applied.applied:
            self.stats.lands_skipped += 1
        for dataset, suffix, rows in (
                (self.users, "users", user_rows),
                (self.follow_edges, "follows", follow_rows),
                (self.investments, "investments", invest_rows)):
            if not dataset.apply(f"{unit}:{suffix}", rows).applied:
                self.stats.lands_skipped += 1
        return {"day": day,
                "slice": [[t, i] for t, i in slice_],
                "discovered": discovered,
                "landed": {"startups": len(startup_rows),
                           "users": len(user_rows),
                           "follow_edges": len(follow_rows),
                           "investments": len(invest_rows)}}

    def _exec_derived(self, unit: str, payload: Dict, lease) -> Dict:
        plan = {name: [int(a), int(b)]
                for name, (a, b) in payload["plan"].items()}
        update = self.derived.update(
            unit, plan,
            on_delta_written=lambda: self._crash_point(
                unit, "mid-land", lease.epoch))
        return {"day": int(payload["day"]),
                "watermarks": update.watermarks,
                "records_scanned": update.records_scanned}

    # -------------------------------------------------------------- reports
    def _all_datasets(self) -> List[UpsertDataset]:
        return [self.panels, self.startups, self.users, self.follow_edges,
                self.investments, self.derived.investment_edges,
                self.derived.follow_edges]

    def dataset_map(self) -> Dict[str, UpsertDataset]:
        return {"panels": self.panels, "startups": self.startups,
                "users": self.users, "follow_edges": self.follow_edges,
                "investments": self.investments,
                "derived/investment_edges": self.derived.investment_edges,
                "derived/follow_edges": self.derived.follow_edges}

    def report(self) -> IngestReport:
        return IngestReport(
            owner=self.owner,
            day=self.day_committed,
            stats=self.stats,
            dataset_keys={name: ds.key_count()
                          for name, ds in self.dataset_map().items()},
            derived_records_scanned=self.derived.records_scanned_total,
            drained=self._stopping)
