"""Tests for the sharded scatter-gather serve tier."""

import hashlib
import json

import pytest

from repro.core.platform import ExploratoryPlatform
from repro.net.faults import (FAULT_KILL_SHARD, FAULT_PARTITION_SHARD,
                              FAULT_SLOW_REPLICA, FaultSchedule)
from repro.serve.autoscale import REASON_DEAD, AutoscaleConfig
from repro.serve.dataset import ServeDataset
from repro.serve.loadgen import LoadProfile, generate_schedule, replay
from repro.serve.metrics import (SHARD_DEAD, SHARD_OK, SHARD_PARTITIONED,
                                 STATUS_FRESH, STATUS_PARTIAL)
from repro.serve.service import ServeConfig, ServeRequest
from repro.serve.sharding import (ShardConfig, ShardedQueryService,
                                  kill_target, partition_target,
                                  shard_index_from_json, shard_index_json,
                                  shard_of, slow_replica_target,
                                  split_dataset)
from repro.world.config import WorldConfig
from repro.world.generator import generate_world

NUM_SHARDS = 4


@pytest.fixture(scope="module")
def dataset(crawled_platform):
    return crawled_platform.serve_dataset()


def _service(platform, faults=None, autoscale=None, **overrides):
    overrides.setdefault("qps_limit", 10_000.0)
    overrides.setdefault("queue_depth", 64)
    return platform.sharded_query_service(
        config=ServeConfig(**overrides),
        shard_config=ShardConfig(num_shards=NUM_SHARDS, replicas=2),
        autoscale=autoscale, faults=faults)


def _community_keys(dataset):
    return [k for k in dataset.keys_for("community")
            if dataset.community_of.get(k) is not None]


class TestShardOf:
    def test_stable_and_in_range(self):
        for key in (0, 1, 17, 123456, 99999999):
            first = shard_of(key, NUM_SHARDS)
            assert first == shard_of(key, NUM_SHARDS)
            assert 0 <= first < NUM_SHARDS
        assert shard_of(42, 1) == 0

    def test_spreads_keys(self):
        owners = {shard_of(k, NUM_SHARDS) for k in range(200)}
        assert owners == set(range(NUM_SHARDS))


class TestSplitDataset:
    def test_partition_is_exact_and_disjoint(self, dataset):
        shards = split_dataset(dataset, NUM_SHARDS)
        for attr in ("company_parts", "user_parts", "community_of",
                     "engagement", "portfolio", "follows_out"):
            whole = set(getattr(dataset, attr))
            pieces = [set(getattr(s, attr)) for s in shards]
            assert set.union(set(), *pieces) == whole
            assert sum(len(p) for p in pieces) == len(whole)
        # every key landed on the shard its hash says it owns
        for sid, shard in enumerate(shards):
            assert all(shard_of(c, NUM_SHARDS) == sid
                       for c in shard.company_parts)
            assert all(shard_of(u, NUM_SHARDS) == sid
                       for u in shard.user_parts)

    def test_spans_follow_their_keys(self, dataset):
        shards = split_dataset(dataset, NUM_SHARDS)
        for parts, spans in (("company_parts", "company_spans"),
                             ("user_parts", "user_spans")):
            assert sum(len(getattr(s, spans)) for s in shards) \
                == len(getattr(dataset, spans))
            for shard in shards:
                assert len(getattr(shard, spans)) \
                    == len(getattr(shard, parts))
                for key in getattr(shard, parts):
                    assert getattr(shard, spans).get(key) \
                        == getattr(dataset, spans).get(key)

    def test_community_members_shard_by_member(self, dataset):
        shards = split_dataset(dataset, NUM_SHARDS)
        for label, members in dataset.community_members.items():
            rebuilt = sorted(
                m for s in shards
                for m in s.community_members.get(label, []))
            assert rebuilt == sorted(members)
            for sid, shard in enumerate(shards):
                assert all(shard_of(m, NUM_SHARDS) == sid
                           for m in shard.community_members.get(label, []))

    def test_index_codec_round_trips(self, dataset):
        shard = split_dataset(dataset, NUM_SHARDS)[0]
        back = shard_index_from_json(shard_index_json(shard))
        assert back.company_parts == shard.company_parts
        assert back.funding == shard.funding
        assert back.user_parts == shard.user_parts
        assert back.follows_out == shard.follows_out
        assert back.follows_out.num_edges \
            == shard.follows_out.num_edges > 0
        assert back.community_of == shard.community_of
        assert back.community_members == shard.community_members
        assert back.company_spans == shard.company_spans
        assert back.user_spans == shard.user_spans
        assert len(back.company_spans) == len(shard.company_parts) > 0
        # codec output itself is deterministic
        assert shard_index_json(shard) == shard_index_json(back)


#: sha256 of ``shard_index_json`` for each of four shards of the seed-7
#: 1/80 world, as written when the follow graph was still two dicts: the
#: persisted shard format does not depend on how the index is held
PINNED_SHARD_SHA256 = [
    "5e814bb349e043e49144df2593bce42b09cbf7b0ea7d30af1b66fa797e05b8c3",
    "d55d7cfa2bb1736fe9a6a694703921b46354272ff17b35c9d195772378d0dfa3",
    "e3875675effb54e608c8a6dd170a69c3b56bee0b5d30919efdca399eea4159aa",
    "fd725b4ea434b0832d17968b8d85ec0c76fd634fdb4ab402c2c452a40c29b6b7",
]


class TestPersistedShardBytes:
    @pytest.fixture(scope="class")
    def small_shards(self):
        platform = ExploratoryPlatform(
            generate_world(WorldConfig.small(seed=7)))
        try:
            platform.run_full_crawl()
            yield split_dataset(ServeDataset.build(platform.dfs), NUM_SHARDS)
        finally:
            platform.close()

    def test_shard_index_bytes_are_pinned(self, small_shards):
        assert [hashlib.sha256(shard_index_json(s).encode()).hexdigest()
                for s in small_shards] == PINNED_SHARD_SHA256

    def test_follow_index_round_trips(self, small_shards):
        for shard in small_shards:
            back = shard_index_from_json(shard_index_json(shard))
            assert back.follows_out == shard.follows_out
            assert back.follows_out.num_edges > 0


class TestOracleEquality:
    """A fully-covered sharded answer is byte-identical to the oracle."""

    @pytest.mark.parametrize("kind", ["company", "investor", "engagement",
                                      "community"])
    def test_point_and_community(self, crawled_platform, dataset, kind):
        service = _service(crawled_platform)
        key = dataset.keys_for(kind)[0]
        result = service.handle(ServeRequest(kind=kind, key=key))
        assert result.status == STATUS_FRESH
        assert not result.coverage["partial"]
        oracle = dataset.run(kind, key, crawled_platform.dfs).value
        assert json.dumps(result.value, sort_keys=True) \
            == json.dumps(oracle, sort_keys=True)

    @pytest.mark.parametrize("depth", [1, 2])
    def test_neighborhood(self, crawled_platform, dataset, depth):
        service = _service(crawled_platform)
        key = dataset.keys_for("neighborhood")[0]
        result = service.handle(ServeRequest(kind="neighborhood", key=key,
                                             depth=depth))
        assert result.status == STATUS_FRESH
        oracle = dataset.run("neighborhood", key, crawled_platform.dfs,
                             depth=depth).value
        assert json.dumps(result.value, sort_keys=True) \
            == json.dumps(oracle, sort_keys=True)

    def test_persisted_indexes_exist(self, crawled_platform):
        service = _service(crawled_platform)
        for server in service.servers:
            assert crawled_platform.dfs.exists(server.index_path)

    def test_replica_booted_from_dfs_seeks_and_matches_unsharded(
            self, crawled_platform, dataset):
        dfs = crawled_platform.dfs
        service = _service(crawled_platform)
        for server in service.servers:
            booted = shard_index_from_json(dfs.read_text(server.index_path))
            assert booted.company_spans == server.data.company_spans
            assert booted.user_spans == server.data.user_spans
            for kind, keys in (("company", sorted(booted.company_parts)),
                               ("investor", sorted(booted.portfolio))):
                for key in keys[::max(1, len(keys) // 25)]:
                    got = booted.run(kind, key, dfs)
                    want = dataset.run(kind, key, dfs)
                    assert json.dumps(got.value, sort_keys=True) \
                        == json.dumps(want.value, sort_keys=True)
                    assert got.units == want.units
                    assert not got.span_fallback
                    assert got.hedged.data == want.hedged.data
                    assert len(got.hedged.data) \
                        < dfs.stat(booted.dfs_part_for(kind, key)).length
        assert service.metrics.span_fallbacks == 0

    def test_stale_part_falls_back_and_is_counted(self, small_crawl):
        dataset = ServeDataset.build(small_crawl)
        want = dataset.run("company", 103, small_crawl).value
        service = ShardedQueryService(
            dataset, small_crawl,
            shard_config=ShardConfig(num_shards=NUM_SHARDS, replicas=2))
        part = dataset.company_parts[103]
        lines = small_crawl.read(part).split(b"\n")[:-1]
        small_crawl.write_atomic(part, b"\n".join(reversed(lines)) + b"\n")
        result = service.handle(ServeRequest(kind="company", key=103))
        assert result.status == STATUS_FRESH
        assert result.value == want
        assert service.metrics.span_fallbacks == 1
        untouched = service.handle(ServeRequest(kind="investor", key=1003))
        assert untouched.value["record"]["id"] == 1003
        assert service.metrics.span_fallbacks == 1


class TestKillMatrix:
    """Killing each shard in turn: answered, partial, coverage exact."""

    def test_each_shard(self, crawled_platform, dataset):
        keys = _community_keys(dataset)
        for victim in range(NUM_SHARDS):
            service = _service(crawled_platform)
            service.servers[victim].kill_all()
            key = next(k for k in keys
                       if shard_of(k, NUM_SHARDS) != victim)
            result = service.handle(ServeRequest(kind="community", key=key))
            assert result.answered
            assert result.latency_s <= 0.25 + 1e-9
            assert result.status == STATUS_PARTIAL
            cov = result.coverage
            assert cov["partial"]
            assert cov["shards_total"] == NUM_SHARDS
            assert cov["shards_answered"] == NUM_SHARDS - 1
            assert cov["per_shard"][str(victim)] == SHARD_DEAD
            # exact coverage arithmetic against the oracle membership
            label = dataset.community_of[key]
            members = dataset.community_members[label]
            lost = [m for m in members
                    if shard_of(m, NUM_SHARDS) == victim]
            assert result.value["community"] == label
            assert result.value["size"] == len(members) - len(lost)

    def test_point_query_on_dead_shard_degrades(self, crawled_platform,
                                                dataset):
        service = _service(crawled_platform)
        key = dataset.keys_for("company")[0]
        victim = shard_of(key, NUM_SHARDS)
        service.servers[victim].kill_all()
        result = service.handle(ServeRequest(kind="company", key=key))
        assert result.status != STATUS_FRESH
        assert result.latency_s <= 0.25 + 1e-9
        assert result.coverage["per_shard"][str(victim)] == SHARD_DEAD
        assert service.metrics.per_shard[victim].failed_dead == 1


class TestShardFaultPlumbing:
    def test_forced_kill_lands_on_predicted_target(self, crawled_platform,
                                                   dataset):
        faults = FaultSchedule.none()
        faults.force_window(FAULT_KILL_SHARD, start=0, span=1_000_000)
        victim = kill_target(faults.seed, 0, NUM_SHARDS)
        service = _service(crawled_platform, faults=faults)
        service.handle(ServeRequest(kind="company",
                                    key=dataset.keys_for("company")[0]))
        assert service.servers[victim].replica_count == 0
        alive = [s.shard_id for s in service.servers if s.replica_count]
        assert alive == [s for s in range(NUM_SHARDS) if s != victim]

    def test_kill_window_is_one_shot(self, crawled_platform, dataset):
        faults = FaultSchedule.none()
        faults.force_window(FAULT_KILL_SHARD, start=0, span=1_000_000)
        victim = kill_target(faults.seed, 0, NUM_SHARDS)
        service = _service(crawled_platform, faults=faults)
        keys = dataset.keys_for("company")
        service.handle(ServeRequest(kind="company", key=keys[0]))
        assert service.servers[victim].replica_count == 0
        # a revived shard stays revived: the window was consumed
        service.servers[victim].reboot_one(service.clock.now(), 0.0)
        service.handle(ServeRequest(kind="company", key=keys[1]))
        assert service.servers[victim].replica_count == 1

    def test_partition_marks_shard_unreachable(self, crawled_platform,
                                               dataset):
        faults = FaultSchedule.none()
        faults.force_window(FAULT_PARTITION_SHARD, start=0,
                            span=1_000_000)
        victim = partition_target(faults.seed, 0, NUM_SHARDS)
        service = _service(crawled_platform, faults=faults)
        key = next(k for k in _community_keys(dataset)
                   if shard_of(k, NUM_SHARDS) != victim)
        result = service.handle(ServeRequest(kind="community", key=key))
        assert result.status == STATUS_PARTIAL
        assert result.coverage["per_shard"][str(victim)] \
            == SHARD_PARTITIONED
        assert service.metrics.per_shard[victim].failed_partitioned >= 1
        # the shard's replicas are fine — only the network path is cut
        assert service.servers[victim].replica_count == 2

    def test_slow_replica_still_answers_in_deadline(self, crawled_platform,
                                                    dataset):
        faults = FaultSchedule.none()
        faults.force_window(FAULT_SLOW_REPLICA, start=0, span=1_000_000,
                            duration=0.06)
        shard, _draw = slow_replica_target(faults.seed, 0, NUM_SHARDS)
        service = _service(crawled_platform, faults=faults)
        key = next(k for k in dataset.keys_for("company")
                   if shard_of(k, NUM_SHARDS) == shard)
        result = service.handle(ServeRequest(kind="company", key=key))
        assert result.answered
        assert result.latency_s <= 0.25 + 1e-9

    def test_target_helpers_are_deterministic(self):
        for ws in range(10):
            assert kill_target(7, ws, NUM_SHARDS) \
                == kill_target(7, ws, NUM_SHARDS)
            assert 0 <= kill_target(7, ws, NUM_SHARDS) < NUM_SHARDS
            assert 0 <= partition_target(7, ws, NUM_SHARDS) < NUM_SHARDS
            shard, draw = slow_replica_target(7, ws, NUM_SHARDS)
            assert 0 <= shard < NUM_SHARDS
            assert draw >= 0


class TestShardedReplay:
    """Chaos replay: autoscaler rebuilds the shard, runs are identical."""

    def _run(self, platform):
        faults = FaultSchedule.from_profile("serve-shard-chaos", seed=3)
        faults.force_window(FAULT_KILL_SHARD, start=30, span=1)
        service = platform.sharded_query_service(
            config=ServeConfig(qps_limit=10_000.0, queue_depth=64),
            shard_config=ShardConfig(num_shards=NUM_SHARDS, replicas=2),
            autoscale=AutoscaleConfig(tick_every=10, replica_boot_s=0.1),
            faults=faults)
        profile = LoadProfile(qps=120.0, duration_s=1.5, seed=9)
        report = replay(service, generate_schedule(
            profile, platform.serve_dataset()))
        return report, service

    def test_autoscaler_rebuilds_killed_shard(self, crawled_platform):
        report, service = self._run(crawled_platform)
        victim = kill_target(3, 30, NUM_SHARDS)
        rebuilds = [d for d in service.metrics.scaling_decisions
                    if d[1] == victim and d[4] == REASON_DEAD]
        assert rebuilds
        assert service.servers[victim].replica_count >= 1
        assert report.scaling_decisions == len(
            service.metrics.scaling_decisions)

    def test_same_seed_runs_identical(self, crawled_platform):
        first, svc1 = self._run(crawled_platform)
        second, svc2 = self._run(crawled_platform)
        assert first.to_json() == second.to_json()
        assert svc1.metrics.to_json() == svc2.metrics.to_json()
        assert svc1.metrics.scaling_decisions \
            == svc2.metrics.scaling_decisions

    def test_every_coverage_is_arithmetically_exact(self, crawled_platform):
        report, _service_ = self._run(crawled_platform)
        seen_coverage = 0
        for result in report.results:
            cov = result.coverage
            if cov is None:
                continue
            seen_coverage += 1
            answered = sum(1 for s in cov["per_shard"].values()
                           if s == SHARD_OK)
            assert cov["shards_answered"] == answered
            assert cov["shards_total"] == len(cov["per_shard"])
            assert cov["partial"] == (answered < cov["shards_total"])
        assert seen_coverage > 0


class TestTenantLoadgen:
    def test_multi_tenant_schedule_is_deterministic(self, dataset):
        profile = LoadProfile(qps=100.0, duration_s=1.0, seed=5, tenants=3)
        first = generate_schedule(profile, dataset)
        second = generate_schedule(profile, dataset)
        assert [(r.arrival_s, r.tenant, r.kind, r.key) for r in first] \
            == [(r.arrival_s, r.tenant, r.kind, r.key) for r in second]
        tenants = {r.tenant for r in first}
        assert tenants <= {"t0", "t1", "t2"}
        assert len(tenants) > 1

    def test_zipf_skew_makes_t0_hottest(self, dataset):
        profile = LoadProfile(qps=300.0, duration_s=2.0, seed=5,
                              tenants=3, tenant_zipf_alpha=1.5)
        counts = {}
        for request in generate_schedule(profile, dataset):
            counts[request.tenant] = counts.get(request.tenant, 0) + 1
        assert counts["t0"] > counts.get("t1", 0) > counts.get("t2", 0)

    def test_single_tenant_schedule_unchanged(self, dataset):
        base = LoadProfile(qps=100.0, duration_s=1.0, seed=5)
        schedule = generate_schedule(base, dataset)
        assert all(r.tenant == "default" for r in schedule)
