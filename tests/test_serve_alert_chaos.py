"""Standing queries under alert chaos, end to end.

Subscriptions on a crawled platform ride a continuous-ingest run with
the ``alert-chaos`` profile on (subscriber kills, dropped acks,
duplicated deliveries, probabilistic ingest kills) plus one forced
ingest kill between a derived unit's two dataset lands. Every event the
offline full-rescan oracle matches must be delivered, no subscriber may
observe a duplicate effect after dedupe, and a same-seed rerun must
produce the same delivery log byte for byte. A tenant whose 100x
delivery flood rides the same fair-share door as interactive queries
must neither push their p99 past the deadline nor starve anyone.
"""

from types import SimpleNamespace

import pytest

from repro.core.platform import ExploratoryPlatform
from repro.net.faults import FaultSchedule
from repro.serve.alerting import Notification, rescan_oracle
from repro.serve.loadgen import LoadProfile, generate_schedule
from repro.serve.outbox import DeliveryOutbox, Subscriber
from repro.serve.subscriptions import (KIND_COMMUNITY_INVESTOR,
                                       KIND_COMPANY_FUNDING,
                                       KIND_NEIGHBORHOOD_FOLLOW)
from repro.serve.tenancy import FairShareAdmission, Tenant
from repro.util.clock import SimClock
from repro.util.errors import IngestKilled
from repro.world.config import WorldConfig

DAYS = 6
CHAOS_SEED = 7
#: the derived unit dies between its two dataset lands: the nastiest
#: window for exactly-once alerting
KILL_UNIT, KILL_STATE = "day-0002:derived", "mid-land"
#: healthy subscribers under chaos fail one attempt with p ~= 0.18;
#: eight failures in a row (~1e-6) would be a real poison signal
MAX_ATTEMPTS = 8
MAX_RESUMES = 60

#: fair-share delivery: t0's tickets arrive at 100x its weighted share,
#: t1/t2 offer interactive queries at 0.8x theirs
QPS_LIMIT = 40.0
TENANT_WEIGHTS = {"t0": 1.0, "t1": 2.0, "t2": 1.0}
FAIR_DURATION_S = 3.0
SUBSCRIBER_MULTIPLE = 100.0
QUERY_SERVICE_S = 0.005
DELIVERY_SERVICE_S = 0.002
INTERACTIVE_DEADLINE_S = 0.25
FAIR_SHARE_FLOOR = 0.90


def _alert_chaos_run():
    """One chaos ingest run with standing queries attached, drained."""
    platform = ExploratoryPlatform.over_new_world(WorldConfig.tiny())
    platform.config.max_delivery_attempts = MAX_ATTEMPTS
    platform.config.alert_retry_base_s = 2.0
    platform.config.faults = FaultSchedule.alert_chaos(1.0,
                                                       seed=CHAOS_SEED)
    platform.run_full_crawl()
    dataset = platform.serve_dataset()
    registry = platform.subscription_registry()
    subscribers = {}
    subscriptions = (
        [("t1", KIND_COMMUNITY_INVESTOR, int(label))
         for label in sorted(dataset.community_members)]
        + [("t0", KIND_COMPANY_FUNDING, int(company))
           for company in dataset.keys_for("company")[:30]]
        + [("t2", KIND_NEIGHBORHOOD_FOLLOW, int(user))
           for user in sorted(dataset.follows_out)[:40]])
    for tenant, kind, key in subscriptions:
        sub = registry.register(tenant, kind, key)
        subscribers.setdefault(sub.subscriber_id, Subscriber(
            sub.subscriber_id, tenant=sub.tenant))
    _, evaluator, outbox = platform.alerting_stack(
        registry=registry, subscribers=subscribers, seed=CHAOS_SEED)
    platform.config.faults.force_ingest_kill(KILL_UNIT, KILL_STATE)
    kills = 0
    scheduler = platform.ingest_pipeline(alerting=evaluator)
    while True:
        try:
            scheduler.run_until_day(DAYS)
            break
        except IngestKilled:
            kills += 1
            assert kills <= MAX_RESUMES
            # a fresh scheduler over the same storage: ledger replay
            # re-commits pending units and re-emits their notifications
            scheduler = platform.ingest_pipeline(alerting=evaluator)
    outbox.drain()
    return SimpleNamespace(
        platform=platform, evaluator=evaluator, outbox=outbox,
        subscribers=subscribers, kills=kills,
        oracle=rescan_oracle(registry, dataset, scheduler.derived))


@pytest.fixture(scope="module")
def chaos_run():
    run = _alert_chaos_run()
    yield run
    run.platform.close()


def test_delivered_equals_the_rescan_oracle_under_chaos(chaos_run):
    run = chaos_run
    outbox, oracle = run.outbox, run.oracle
    assert run.kills >= 1, f"the forced kill at {KILL_UNIT} never fired"
    assert len(oracle) >= 20, "the oracle matched too little to gate on"
    assert set(outbox.delivered_ids()) == oracle
    expected = {}
    for notification in run.evaluator.emitted:
        expected.setdefault(notification.subscriber_id,
                            set()).add(notification.id)
    for sid, subscriber in sorted(run.subscribers.items()):
        assert len(subscriber.effects) == len(set(subscriber.effects)), sid
        assert len(subscriber.received) >= len(subscriber.effects), sid
        assert set(subscriber.effects) == \
            expected.get(sid, set()) & oracle, sid
    stats = outbox.stats
    # all three fault kinds fired, and some delivery needed a retry
    assert stats.failures and stats.acks_dropped and stats.dup_deliveries
    assert stats.attempts > stats.delivered
    assert not outbox.quarantined()
    assert not outbox.pending()


def test_same_seed_chaos_runs_deliver_identically(chaos_run):
    first, second = chaos_run, _alert_chaos_run()
    try:
        assert first.outbox.log_json() == second.outbox.log_json()
        assert first.outbox.delivered_ids() == second.outbox.delivered_ids()
        assert ({sid: s.effects for sid, s in first.subscribers.items()}
                == {sid: s.effects
                    for sid, s in second.subscribers.items()})
        assert first.oracle == second.oracle
    finally:
        second.platform.close()


def _share(tenant_id):
    return QPS_LIMIT * TENANT_WEIGHTS[tenant_id] / sum(
        TENANT_WEIGHTS.values())


def _run_fair_share(platform):
    """Delivery tickets and interactive queries through one door.

    A deterministic replay drives one service pipe: every arrival is
    offered to the *same* FairShareAdmission, admitted work runs in WFQ
    pop order at fixed service costs, and a ticket the bucket clips is
    deferred (back-pressure, not a failed attempt).
    """
    admission = FairShareAdmission(
        QPS_LIMIT, 16, [Tenant(t, w) for t, w in sorted(
            TENANT_WEIGHTS.items())], burst=QPS_LIMIT * 0.25)
    outbox = DeliveryOutbox(
        platform.dfs, SimClock(),
        {"t0:default": Subscriber("t0:default", tenant="t0")},
        root="/serve/outbox-fair", seed=1)
    tickets = int(_share("t0") * SUBSCRIBER_MULTIPLE * FAIR_DURATION_S)
    arrivals = []
    for i in range(tickets):
        note = Notification(
            id=f"ntf-sub-9{i:05d}-fair-evt:{i}", sub_id=f"sub-9{i:05d}",
            tenant="t0", subscriber_id="t0:default",
            kind="company_funding", key=i, unit="fair",
            entity=f"evt:{i}")
        outbox.enqueue(note)
        arrivals.append((i * FAIR_DURATION_S / tickets, 1,
                         outbox.ticket(note.id, now=0.0)))
    for i, tenant_id in enumerate(("t1", "t2")):
        profile = LoadProfile(qps=_share(tenant_id) * 0.8,
                              duration_s=FAIR_DURATION_S,
                              seed=CHAOS_SEED + 100 + i)
        for request in generate_schedule(profile,
                                         platform.serve_dataset()):
            request.tenant = tenant_id
            request.priority = "interactive"
            arrivals.append((request.arrival_s, 0, request))
    arrivals.sort(key=lambda a: (a[0], a[1], getattr(a[2], "nid", "")))

    served = {t: 0 for t in TENANT_WEIGHTS}
    offered = {t: 0 for t in TENANT_WEIGHTS}
    sheds = {t: 0 for t in TENANT_WEIGHTS}
    latencies = []            # interactive only
    server_free = 0.0

    def execute(item, start):
        ticket = hasattr(item, "nid")
        finish = start + (DELIVERY_SERVICE_S if ticket
                          else QUERY_SERVICE_S)
        served[item.tenant] += 1
        if ticket:
            outbox.attempt(item.nid)
        else:
            latencies.append(finish - item.arrival_s)
        return finish

    for arrival_s, _, item in arrivals:
        # the server catches up on queued work before this arrival
        while server_free <= arrival_s:
            queued = admission.pop()
            if queued is None:
                break
            server_free = execute(queued, max(server_free, arrival_s))
        offered[item.tenant] += 1
        if admission.offer(item, now=arrival_s).status != "admit":
            sheds[item.tenant] += 1
            if hasattr(item, "nid"):
                outbox.defer(item.nid, arrival_s + 1.0)
    while True:
        queued = admission.pop()
        if queued is None:
            break
        server_free = execute(queued, max(server_free, FAIR_DURATION_S))
    return SimpleNamespace(served=served, offered=offered, sheds=sheds,
                           latencies=sorted(latencies), outbox=outbox)


def test_delivery_flood_keeps_interactive_p99_and_fair_shares(chaos_run):
    fair = _run_fair_share(chaos_run.platform)
    latencies = fair.latencies
    assert latencies, "no interactive queries ran at all"
    p99 = latencies[min(len(latencies) - 1, int(0.99 * len(latencies)))]
    assert p99 <= INTERACTIVE_DEADLINE_S
    for tenant_id in ("t1", "t2"):
        entitled = min(fair.offered[tenant_id],
                       _share(tenant_id) * FAIR_DURATION_S)
        assert fair.served[tenant_id] >= FAIR_SHARE_FLOOR * entitled, \
            tenant_id
    # the flooding tenant still gets its own share delivered
    assert fair.outbox.stats.delivered >= \
        FAIR_SHARE_FLOOR * _share("t0") * FAIR_DURATION_S
    assert fair.sheds["t0"] > 0, "t0's ticket flood was never clipped"
    assert fair.sheds["t1"] + fair.sheds["t2"] <= \
        0.1 * (fair.offered["t1"] + fair.offered["t2"])
