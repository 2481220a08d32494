"""The overload contract, end to end (the PR's acceptance criteria).

At 10x the admitted QPS limit with a forced mid-run brownout and
request-path chaos faults, the query tier must:

* shed the excess deterministically and never let the queue exceed its
  bound;
* keep the p99 latency of admitted requests under each class's deadline;
* answer >= 99% of finally-admitted requests (fresh or flagged stale);
* produce byte-identical ServeMetrics on a same-seed rerun.

And on the way there: the queue bound holds even when the rate bucket
admits faster than the workers drain, and a request whose budget cannot
cover the backend read — or a latency spike on it — gets a degraded
answer inside its deadline instead of a late fresh one.
"""

from collections import Counter

import pytest

from repro.net.faults import FAULT_BROWNOUT, FAULT_SLOW, FaultSchedule
from repro.serve.loadgen import LoadProfile, generate_schedule, run_bench
from repro.serve.metrics import (STATUS_SHED_QUEUE, STATUS_SHED_RATE,
                                 STATUS_SUMMARY)
from repro.serve.service import ServeConfig, ServeRequest

QPS_LIMIT = 20.0
QUEUE_DEPTH = 8
OVERLOAD = 10.0
SEED = 42


@pytest.fixture(scope="module")
def serve_platform(crawled_platform):
    """The shared crawled platform with one slow datanode (restored)."""
    for index, node_id in enumerate(sorted(crawled_platform.dfs.datanodes)):
        crawled_platform.dfs.set_datanode_latency(
            node_id, 0.05 if index == 0 else 0.004)
    yield crawled_platform
    for node_id in crawled_platform.dfs.datanodes:
        crawled_platform.dfs.set_datanode_latency(node_id, 0.0)


def _profile(duration_s=3.0):
    return LoadProfile(qps=QPS_LIMIT * OVERLOAD, duration_s=duration_s,
                       seed=SEED)


def _run(platform):
    faults = FaultSchedule.serve_chaos(1.0, seed=7)
    faults.force_window(FAULT_BROWNOUT, start=15, span=12, duration=0.4)
    service = platform.query_service(
        config=ServeConfig(qps_limit=QPS_LIMIT, queue_depth=QUEUE_DEPTH,
                           workers=2),
        faults=faults)
    return run_bench(service, platform.serve_dataset(), _profile()), service


class TestOverloadContract:
    def test_sheds_excess_and_bounds_the_queue(self, serve_platform):
        report, _ = _run(serve_platform)
        assert report.offered > 0
        assert report.shed > 0
        assert report.admitted + report.shed == report.offered
        assert report.max_queue_len <= QUEUE_DEPTH
        # offered ~10x the limit: most of it must be shed at the door
        assert report.shed_fraction > 0.5

    def test_p99_of_admitted_stays_under_each_deadline(self,
                                                       serve_platform):
        report, _ = _run(serve_platform)
        for cls, deadline_s in _profile().deadlines:
            assert report.per_class_p99_s[cls] <= deadline_s, cls

    def test_answers_at_least_99pct_of_admitted(self, serve_platform):
        report, _ = _run(serve_platform)
        assert report.admitted > 0
        assert report.answered_fraction >= 0.99
        # degradation happened (brownout + chaos), yet answers flowed
        assert report.stale_served + sum(
            c["summary_served"]
            for c in report.metrics["per_class"].values()) > 0

    def test_goodput_degrades_smoothly_not_to_zero(self, serve_platform):
        report, _ = _run(serve_platform)
        # goodput stays in the same ballpark as the admitted limit: the
        # service saturates, it does not collapse
        assert report.goodput_qps >= 0.5 * QPS_LIMIT

    def test_health_fsm_reaches_shedding(self, serve_platform):
        report, service = _run(serve_platform)
        assert report.health_state == "shedding"
        assert report.health_transitions >= 1
        assert service.health.state == "shedding"

    def test_hedged_reads_engage_against_the_slow_datanode(
            self, serve_platform):
        report, _ = _run(serve_platform)
        assert report.hedges_launched > 0
        assert report.hedges_won > 0

    def test_same_seed_runs_are_byte_identical(self, serve_platform):
        first, first_service = _run(serve_platform)
        second, second_service = _run(serve_platform)
        assert first_service.metrics.to_json() == \
            second_service.metrics.to_json()
        assert first.to_json() == second.to_json()


class TestQueueBound:
    def test_the_bound_holds_when_the_bucket_outpaces_the_workers(
            self, serve_platform):
        # a bucket ten times the offered rate lets every arrival in, and
        # one worker drains far slower than 200 arrivals a second: only
        # the queue's own bound keeps it at its depth
        service = serve_platform.query_service(config=ServeConfig(
            qps_limit=QPS_LIMIT * OVERLOAD * 10, queue_depth=QUEUE_DEPTH,
            workers=1))
        report = run_bench(service, serve_platform.serve_dataset(),
                           _profile())
        statuses = Counter(result.status for result in report.results)
        assert statuses[STATUS_SHED_RATE] == 0
        assert statuses[STATUS_SHED_QUEUE] > 0
        assert report.max_queue_len == QUEUE_DEPTH


class TestDeadlinePropagation:
    @staticmethod
    def _company(service, platform, deadline_s=None):
        key = platform.serve_dataset().keys_for("company")[0]
        return service.handle(ServeRequest(kind="company", key=key,
                                           deadline_s=deadline_s))

    def test_the_gate_refuses_a_read_the_budget_cannot_cover(
            self, serve_platform):
        service = serve_platform.query_service(
            config=ServeConfig(), faults=FaultSchedule.none())
        # 5 ms: a summary fits, the read (2 ms base + the datanode's
        # 4 ms or more) plus the 3 ms margin does not
        result = self._company(service, serve_platform, deadline_s=0.005)
        assert result.status == STATUS_SUMMARY
        assert result.latency_s <= 0.005

    def test_a_latency_spike_past_the_deadline_is_abandoned(
            self, serve_platform):
        faults = FaultSchedule.none()
        faults.force_window(FAULT_SLOW, start=0, span=1, duration=0.3)
        service = serve_platform.query_service(config=ServeConfig(),
                                               faults=faults)
        # the gate lets the read start (the 250 ms budget covers it), then
        # the 300 ms spike on it would end past the deadline
        result = self._company(service, serve_platform)
        assert result.status == STATUS_SUMMARY
        assert result.latency_s <= ServeConfig().default_deadline_s
        assert service.metrics.counters("interactive").backend_faults == 1


class TestLoadGenerator:
    def test_schedule_is_deterministic(self, serve_platform):
        dataset = serve_platform.serve_dataset()
        first = generate_schedule(_profile(), dataset)
        second = generate_schedule(_profile(), dataset)
        assert [(r.kind, r.key, r.priority, r.arrival_s, r.depth)
                for r in first] == \
            [(r.kind, r.key, r.priority, r.arrival_s, r.depth)
             for r in second]

    def test_different_seed_different_schedule(self, serve_platform):
        dataset = serve_platform.serve_dataset()
        base = generate_schedule(_profile(), dataset)
        other = generate_schedule(
            LoadProfile(qps=QPS_LIMIT * OVERLOAD, duration_s=3.0, seed=43),
            dataset)
        assert [(r.kind, r.key) for r in base] != \
            [(r.kind, r.key) for r in other]

    def test_arrivals_sorted_and_inside_duration(self, serve_platform):
        schedule = generate_schedule(_profile(), serve_platform
                                     .serve_dataset())
        arrivals = [r.arrival_s for r in schedule]
        assert arrivals == sorted(arrivals)
        assert 0.0 < arrivals[0] and arrivals[-1] < 3.0
        # ~qps * duration arrivals, Poisson-ish
        assert 0.7 * 600 < len(schedule) < 1.3 * 600

    def test_mixes_cover_kinds_and_classes(self, serve_platform):
        schedule = generate_schedule(_profile(), serve_platform
                                     .serve_dataset())
        kinds = {r.kind for r in schedule}
        classes = {r.priority for r in schedule}
        assert kinds == {"company", "investor", "neighborhood",
                         "community", "engagement"}
        assert classes == {"interactive", "analytics", "bulk"}
        depths = {r.depth for r in schedule if r.kind == "neighborhood"}
        assert depths == {1, 2}
