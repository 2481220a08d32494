"""Tests for the composable, seed-deterministic FaultSchedule."""

import pytest

from repro.net.faults import (FAULT_BROWNOUT, FAULT_CORRUPT, FAULT_ERROR,
                              FAULT_RESET, FAULT_STORM, FAULT_TIMEOUT,
                              FaultSchedule, FaultSpec)
from repro.net.http import (CorruptPayload, Response, SimServer,
                            STATUS_RESET, STATUS_TIMEOUT, TIMEOUT_HEADER)
from repro.util.clock import SimClock


class TestFaultSpec:
    def test_unknown_kind_rejected(self):
        with pytest.raises(ValueError):
            FaultSpec("gremlins", 0.1)

    def test_rate_bounds(self):
        with pytest.raises(ValueError):
            FaultSpec(FAULT_ERROR, 1.0)
        with pytest.raises(ValueError):
            FaultSpec(FAULT_ERROR, -0.1)

    def test_window_needs_span(self):
        with pytest.raises(ValueError):
            FaultSpec(FAULT_BROWNOUT, 0.01)


class TestSchedule:
    def test_none_never_fires(self):
        schedule = FaultSchedule.none()
        assert all(schedule.fault_at(i) is None for i in range(1, 500))
        assert schedule.aggregate_rate == 0.0

    def test_deterministic_per_seed(self):
        a = FaultSchedule.chaos(seed=3)
        b = FaultSchedule.chaos(seed=3)
        decisions_a = [getattr(a.fault_at(i), "kind", None)
                       for i in range(1, 2000)]
        decisions_b = [getattr(b.fault_at(i), "kind", None)
                       for i in range(1, 2000)]
        assert decisions_a == decisions_b

    def test_different_seeds_differ(self):
        a = FaultSchedule.chaos(seed=3)
        b = FaultSchedule.chaos(seed=4)
        assert [getattr(a.fault_at(i), "kind", None)
                for i in range(1, 2000)] \
            != [getattr(b.fault_at(i), "kind", None)
                for i in range(1, 2000)]

    def test_chaos_profile_covers_all_kinds(self):
        schedule = FaultSchedule.chaos(seed=0)
        assert set(schedule.kinds) == {FAULT_ERROR, FAULT_TIMEOUT,
                                       FAULT_RESET, FAULT_CORRUPT,
                                       FAULT_BROWNOUT, FAULT_STORM}
        assert schedule.aggregate_rate >= 0.05

    def test_chaos_empirical_rate_near_nominal(self):
        schedule = FaultSchedule.chaos(seed=9)
        hits = sum(1 for i in range(1, 20_001)
                   if schedule.fault_at(i) is not None)
        assert 0.03 <= hits / 20_000 <= 0.12

    def test_window_spans_consecutive_requests(self):
        schedule = FaultSchedule(
            [FaultSpec(FAULT_BROWNOUT, 0.01, duration=2.0, span=4)], seed=1)
        starts = [i for i in range(1, 5000)
                  if schedule._fraction(FAULT_BROWNOUT + ":start", i) < 0.01]
        assert starts, "seed produced no windows in 5000 requests"
        start = starts[0]
        for i in range(start, start + 4):
            spec = schedule.fault_at(i)
            assert spec is not None and spec.kind == FAULT_BROWNOUT

    def test_from_profile(self):
        assert FaultSchedule.from_profile("none").specs == []
        assert FaultSchedule.from_profile("flaky", seed=2).kinds \
            == [FAULT_ERROR]
        assert len(FaultSchedule.from_profile("chaos", seed=2).specs) == 6
        with pytest.raises(ValueError):
            FaultSchedule.from_profile("mayhem")

    def test_flaky_matches_legacy_single_mode(self):
        schedule = FaultSchedule.flaky(p_error=0.05, seed=8)
        kinds = {spec.kind for i in range(1, 3000)
                 for spec in [schedule.fault_at(i)] if spec is not None}
        assert kinds == {FAULT_ERROR}


class TestInjection:
    def test_error_response_shape(self):
        schedule = FaultSchedule([FaultSpec(FAULT_ERROR, 0.5)], seed=0)
        statuses = {schedule.inject(i).status
                    for i in range(1, 200) if schedule.fault_at(i)}
        assert statuses <= {500, 503} and len(statuses) == 2

    def test_timeout_carries_hang_header(self):
        schedule = FaultSchedule(
            [FaultSpec(FAULT_TIMEOUT, 0.9, duration=45.0)], seed=0)
        index = next(i for i in range(1, 100) if schedule.fault_at(i))
        response = schedule.inject(index)
        assert response.status == STATUS_TIMEOUT
        assert float(response.headers["X-Fault-Hang-S"]) == 45.0

    def test_brownout_and_storm_carry_retry_after(self):
        for kind, status in ((FAULT_BROWNOUT, 503), (FAULT_STORM, 429)):
            schedule = FaultSchedule(
                [FaultSpec(kind, 0.2, duration=7.5, span=2)], seed=0)
            index = next(i for i in range(1, 200) if schedule.fault_at(i))
            response = schedule.inject(index)
            assert response.status == status
            assert float(response.headers["Retry-After"]) == 7.5

    def test_reset_status(self):
        schedule = FaultSchedule([FaultSpec(FAULT_RESET, 0.9)], seed=0)
        index = next(i for i in range(1, 100) if schedule.fault_at(i))
        assert schedule.inject(index).status == STATUS_RESET

    def test_corrupt_is_post_dispatch_only(self):
        schedule = FaultSchedule([FaultSpec(FAULT_CORRUPT, 0.9)], seed=0)
        index = next(i for i in range(1, 100) if schedule.fault_at(i))
        assert schedule.inject(index) is None
        clean = Response.json({"answer": 42, "padding": "x" * 50})
        mangled = schedule.corrupt(index, clean)
        assert isinstance(mangled.body, CorruptPayload)
        assert mangled.headers["X-Fault"] == FAULT_CORRUPT
        # the prefix that "arrived" really is a truncation
        assert '{"answer": 42'.startswith(mangled.body.raw[:13]) \
            or mangled.body.raw.startswith('{"answer": 42')

    def test_corrupt_leaves_errors_alone(self):
        schedule = FaultSchedule([FaultSpec(FAULT_CORRUPT, 0.9)], seed=0)
        index = next(i for i in range(1, 100) if schedule.fault_at(i))
        error = Response.error(503, "down")
        assert schedule.corrupt(index, error) is error


class _PingServer(SimServer):
    name = "ping"

    def __init__(self, clock, faults):
        super().__init__(clock=clock, faults=faults)
        self.route("GET", "/ping", lambda r: Response.json({"pong": True}))


class TestSimServerIntegration:
    def test_hang_consumes_at_most_the_client_budget(self):
        clock = SimClock()
        schedule = FaultSchedule(
            [FaultSpec(FAULT_TIMEOUT, 0.99, duration=45.0)], seed=0)
        server = _PingServer(clock, schedule)
        before = clock.now()
        response = server.get("/ping", headers={TIMEOUT_HEADER: "5.0"})
        assert response.status == STATUS_TIMEOUT
        assert clock.now() - before == pytest.approx(5.0)

    def test_hang_without_budget_sleeps_full_duration(self):
        clock = SimClock()
        schedule = FaultSchedule(
            [FaultSpec(FAULT_TIMEOUT, 0.99, duration=45.0)], seed=0)
        server = _PingServer(clock, schedule)
        before = clock.now()
        assert server.get("/ping").status == STATUS_TIMEOUT
        assert clock.now() - before == pytest.approx(45.0)

    def test_corruption_applies_after_dispatch(self):
        clock = SimClock()
        schedule = FaultSchedule([FaultSpec(FAULT_CORRUPT, 0.99)], seed=0)
        server = _PingServer(clock, schedule)
        response = server.get("/ping")
        assert response.ok
        assert isinstance(response.body, CorruptPayload)

    def test_clean_schedule_passes_through(self):
        clock = SimClock()
        server = _PingServer(clock, FaultSchedule.none())
        assert server.get("/ping").body == {"pong": True}


class TestShardFaults:
    def test_shard_spec_validation(self):
        from repro.net.faults import (FAULT_KILL_SHARD,
                                      FAULT_PARTITION_SHARD,
                                      FAULT_SLOW_REPLICA)
        with pytest.raises(ValueError):
            FaultSpec(FAULT_KILL_SHARD, 0.01)            # needs span
        with pytest.raises(ValueError):
            FaultSpec(FAULT_SLOW_REPLICA, 0.01, span=5)  # needs duration
        spec = FaultSpec(FAULT_PARTITION_SHARD, 0.01, span=5)
        assert spec.span == 5

    def test_shard_specs_partition_away_from_network_specs(self):
        from repro.net.faults import FAULT_KILL_SHARD, FAULT_SLOW
        schedule = FaultSchedule([
            FaultSpec(FAULT_KILL_SHARD, 0.01, span=1),
            FaultSpec(FAULT_SLOW, 0.01, duration=0.05),
            FaultSpec(FAULT_ERROR, 0.01),
        ], seed=0)
        assert [s.kind for s in schedule.shard_specs] == [FAULT_KILL_SHARD]
        assert [s.kind for s in schedule.serve_specs] == [FAULT_SLOW]
        assert [s.kind for s in schedule.specs] == [FAULT_ERROR]
        # shard faults never leak into the network injection path
        assert all(schedule.fault_at(i) is None
                   or schedule.fault_at(i).kind == FAULT_ERROR
                   for i in range(1, 500))

    def test_serve_shard_chaos_profile(self):
        from repro.net.faults import (FAULT_KILL_SHARD,
                                      FAULT_PARTITION_SHARD, FAULT_SLOW,
                                      FAULT_SLOW_REPLICA)
        schedule = FaultSchedule.from_profile("serve-shard-chaos", seed=5)
        assert set(schedule.kinds) == {FAULT_KILL_SHARD,
                                       FAULT_PARTITION_SHARD,
                                       FAULT_SLOW_REPLICA, FAULT_SLOW}
        assert len(schedule.shard_specs) == 3
        with pytest.raises(ValueError):
            FaultSchedule.serve_shard_chaos(intensity=-1.0)

    def test_shard_faults_at_is_deterministic(self):
        a = FaultSchedule.serve_shard_chaos(5.0, seed=3)
        b = FaultSchedule.serve_shard_chaos(5.0, seed=3)
        hits_a = [[(s.kind, w) for s, w in a.shard_faults_at(i)]
                  for i in range(1, 3000)]
        hits_b = [[(s.kind, w) for s, w in b.shard_faults_at(i)]
                  for i in range(1, 3000)]
        assert hits_a == hits_b
        assert any(hits_a), "seed produced no shard faults in 3000 reqs"

    def test_forced_window_covers_exact_span(self):
        from repro.net.faults import FAULT_KILL_SHARD
        schedule = FaultSchedule.none()
        schedule.force_window(FAULT_KILL_SHARD, start=10, span=3)
        for index in (9, 13, 50):
            assert schedule.shard_faults_at(index) == []
        for index in (10, 11, 12):
            hits = schedule.shard_faults_at(index)
            assert len(hits) == 1
            spec, window_start = hits[0]
            assert spec.kind == FAULT_KILL_SHARD
            assert window_start == 10

    def test_window_start_identifies_overlapping_windows(self):
        from repro.net.faults import FAULT_PARTITION_SHARD
        schedule = FaultSchedule.none()
        schedule.force_window(FAULT_PARTITION_SHARD, start=5, span=4)
        schedule.force_window(FAULT_PARTITION_SHARD, start=7, span=4)
        starts = [w for _, w in schedule.shard_faults_at(8)]
        assert starts == [5, 7]


class TestAlertFaults:
    def test_alert_chaos_profile(self):
        from repro.net.faults import (ALERT_FAULTS, FAULT_DROP_ACK,
                                      FAULT_DUP_DELIVER, FAULT_KILL_INGEST,
                                      FAULT_KILL_SUBSCRIBER)
        schedule = FaultSchedule.from_profile("alert-chaos", seed=4)
        assert set(schedule.kinds) == {FAULT_KILL_SUBSCRIBER,
                                       FAULT_DROP_ACK, FAULT_DUP_DELIVER,
                                       FAULT_KILL_INGEST}
        # the delivery faults live on their own tier: they never leak
        # into the network or ingest injection paths
        assert [s.kind for s in schedule.alert_specs] == list(ALERT_FAULTS)
        assert all(s.kind not in ALERT_FAULTS for s in schedule.specs)
        assert all(s.kind not in ALERT_FAULTS
                   for s in schedule.ingest_specs)
        hit = schedule.alert_fault_at
        kinds = {hit(f"t0:default:ntf-x-{i}#a1").kind
                 for i in range(2000)
                 if hit(f"t0:default:ntf-x-{i}#a1") is not None}
        assert kinds == set(ALERT_FAULTS)

    def test_retry_rolls_new_dice(self):
        schedule = FaultSchedule.alert_chaos(1.0, seed=9)
        # some step key that faults on attempt 1 must eventually clear:
        # the attempt number is part of the key, so redelivery is not
        # doomed to repeat the same outcome forever
        for i in range(500):
            if schedule.alert_fault_at(f"s:{i}#a1") is not None:
                outcomes = {schedule.alert_fault_at(f"s:{i}#a{a}") is None
                            for a in range(1, 30)}
                assert True in outcomes
                return
        raise AssertionError("seed produced no alert faults in 500 keys")


class TestKillResumeDeterminism:
    """A resumed process rebuilds its FaultSchedule from (profile, seed)
    alone; every decision — point faults, probabilistic windows, shard
    windows, step-keyed tiers — must be byte-identical to the schedule
    the killed process was using, regardless of query order."""

    PROFILES = ("flaky", "chaos", "chaos-engine", "chaos-ingest",
                "serve-chaos", "serve-shard-chaos", "alert-chaos")

    @staticmethod
    def _trace(schedule, indexes):
        def name(fault):
            return fault.kind if fault is not None else None
        return [(name(schedule.fault_at(i)),
                 name(schedule.serve_fault_at(i)),
                 [(s.kind, w) for s, w in schedule.shard_faults_at(i)],
                 name(schedule.ingest_fault_at(f"day-{i:04d}:snap#s1")),
                 name(schedule.alert_fault_at(f"t:sub:{i}#a1")))
                for i in indexes]

    @pytest.mark.parametrize("profile", PROFILES)
    @pytest.mark.parametrize("seed", [0, 7, 20160626])
    def test_windows_identical_across_kill_resume(self, profile, seed):
        before = FaultSchedule.from_profile(profile, seed=seed)
        resumed = FaultSchedule.from_profile(profile, seed=seed)
        # the first incarnation walked the stream front to back...
        full = self._trace(before, range(1, 800))
        # ...the resumed one starts mid-stream (where the kill landed)
        # and only later backfills — decisions must not depend on query
        # order or on any wall-clock residue, only on (seed, index)
        tail = self._trace(resumed, range(400, 800))
        head = self._trace(resumed, range(1, 400))
        assert head + tail == full

    def test_decisions_are_pure_functions(self):
        schedule = FaultSchedule.from_profile("alert-chaos", seed=11)
        keys = [f"t:s:{i}#a1" for i in range(300)]
        first = [schedule.alert_fault_at(k) for k in keys]
        second = [schedule.alert_fault_at(k) for k in keys]
        assert [getattr(f, "kind", None) for f in first] == \
               [getattr(f, "kind", None) for f in second]


class TestWindowMemo:
    """``_window_active`` remembers which indices it has start-hashed;
    the answers are those of re-hashing the whole window every time."""

    @staticmethod
    def _scan(schedule, spec, index):
        return any(
            schedule._window_starts_at(spec, i)
            for i in range(max(1, index - spec.span + 1), index + 1))

    @pytest.mark.parametrize("span,rate", [(1, 0.3), (3, 0.05), (25, 0.02)])
    def test_any_query_order_matches_the_scan(self, span, rate):
        import random
        spec = FaultSpec(FAULT_BROWNOUT, rate, duration=1.0, span=span)
        order = random.Random(span)
        walks = [list(range(1, 300)),                       # in order
                 [i for i in range(1, 300) for _ in (0, 1)],    # repeats
                 [1, 200, 201, 90, 91, 92, 400, 401, 399, 5],   # jumps
                 [order.randrange(1, 500) for _ in range(400)]]
        for walk in walks:
            schedule = FaultSchedule([spec], seed=3)
            got = [schedule._window_active(spec, i) for i in walk]
            assert got == [self._scan(schedule, spec, i) for i in walk]
            assert any(got) and not all(got)

    def test_in_order_requests_hash_each_index_once(self, monkeypatch):
        schedule = FaultSchedule.serve_chaos(seed=5)
        hashed = []
        fraction = schedule._fraction
        monkeypatch.setattr(
            schedule, "_fraction",
            lambda kind, index: hashed.append((kind, index))
            or fraction(kind, index))
        for index in range(1, 201):
            schedule.serve_fault_at(index)
        starts = [h for h in hashed if h[0].endswith(":start")]
        assert len(starts) == len(set(starts)) == 200

    def test_servers_sharing_a_schedule_pay_one_window_per_switch(
            self, monkeypatch):
        # a hub hands one schedule to servers that each count their own
        # requests, and a crawl drives them a phase at a time: a switch
        # of server re-hashes one window, a request within a phase one
        # index (asked twice: inject, then corrupt)
        spec = FaultSpec(FAULT_BROWNOUT, 0.02, duration=1.0, span=25)
        schedule = FaultSchedule([spec], seed=3)
        hashed = []
        fraction = schedule._fraction
        monkeypatch.setattr(
            schedule, "_fraction",
            lambda kind, index: hashed.append(index) or fraction(kind, index))
        phases = [range(1, 301), range(1, 121), range(301, 401),
                  range(121, 200)]
        for phase in phases:
            for index in phase:
                schedule.fault_at(index)
                schedule.fault_at(index)
        requests = sum(len(phase) for phase in phases)
        assert len(hashed) <= requests + spec.span * len(phases)


def test_every_fault_profile_is_its_layers():
    # each named profile is the presets it layers, composed by hand here:
    # the same specs in every family, in the same order, on the same seed
    families = ("specs", "engine_specs", "serve_specs", "shard_specs",
                "ingest_specs", "alert_specs")
    for seed in (0, 7):
        chaos = FaultSchedule.chaos(seed=seed)
        engine = FaultSchedule.engine_chaos(seed=seed)
        expected = {
            "none": FaultSchedule.none(),
            "flaky": FaultSchedule.flaky(seed=seed),
            "chaos": chaos,
            "chaos-engine": FaultSchedule(
                chaos.specs + engine.engine_specs, seed),
            "serve-chaos": FaultSchedule.serve_chaos(seed=seed),
            "serve-shard-chaos": FaultSchedule.serve_shard_chaos(seed=seed),
            "chaos-ingest": FaultSchedule.ingest_chaos(seed=seed),
            "alert-chaos": FaultSchedule.alert_chaos(seed=seed),
        }
        for name, want in expected.items():
            got = FaultSchedule.from_profile(name, seed=seed)
            assert got.seed == want.seed, name
            for family in families:
                assert getattr(got, family) == getattr(want, family), \
                    (name, family)
