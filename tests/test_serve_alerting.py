"""Incremental standing-query evaluation vs the full-rescan oracle."""

import pytest

from repro.dfs.filesystem import MiniDfs
from repro.dfs.upsert import UpsertDataset
from repro.graph.follows import FollowIndex
from repro.serve.alerting import (AlertEvaluator, PredicateIndex,
                                  notification_id, rescan_oracle)
from repro.serve.subscriptions import (KIND_COMMUNITY_INVESTOR,
                                       KIND_COMPANY_FUNDING,
                                       KIND_NEIGHBORHOOD_FOLLOW,
                                       SubscriptionRegistry)


class FakeDataset:
    """The two corpus views the evaluator consults."""

    def __init__(self, community_of=None, follows_out=None):
        self.community_of = community_of or {}
        self.follows_out = FollowIndex.from_rows(follows_out or {})


class FakeMaintainer:
    """Derived upsert datasets shaped like DerivedMaintainer's."""

    def __init__(self, dfs):
        self.investment_edges = UpsertDataset(
            dfs, "/ingest/derived/investment_edges",
            key=("investor_id", "company_id"))
        self.follow_edges = UpsertDataset(
            dfs, "/ingest/derived/follow_edges",
            key=("src_user", "dst_type", "dst_id"))

    def land(self, unit, invest=(), follows=()):
        self.investment_edges.apply(f"{unit}:investments", list(invest))
        self.follow_edges.apply(f"{unit}:follows", list(follows))


def _invest(investor, company):
    return {"investor_id": investor, "company_id": company}


def _follow(src, dst, dst_type="user"):
    return {"src_user": src, "dst_type": dst_type, "dst_id": dst}


@pytest.fixture()
def dfs():
    return MiniDfs(num_datanodes=3)


@pytest.fixture()
def registry(dfs):
    return SubscriptionRegistry(dfs).open()


@pytest.fixture()
def maintainer(dfs):
    return FakeMaintainer(dfs)


class TestMatching:
    def test_company_funding_matches_delta_only(self, registry,
                                                maintainer):
        registry.register("t0", KIND_COMPANY_FUNDING, 10)
        evaluator = AlertEvaluator(registry, FakeDataset())
        maintainer.land("day-0001:derived",
                        invest=[_invest(1, 10), _invest(2, 99)])
        hits = evaluator.on_derived_commit("day-0001:derived", {},
                                           maintainer)
        assert [n.entity for n in hits] == ["inv:1:10"]
        assert hits[0].id == notification_id("sub-000001",
                                             "day-0001:derived",
                                             "inv:1:10")
        assert evaluator.stats.records_scanned == 2  # the delta, only

    def test_community_investor_uses_corpus_labels(self, registry,
                                                   maintainer):
        registry.register("t0", KIND_COMMUNITY_INVESTOR, 4)
        dataset = FakeDataset(community_of={1: 4, 2: 8})
        evaluator = AlertEvaluator(registry, dataset)
        maintainer.land("day-0001:derived",
                        invest=[_invest(1, 50), _invest(2, 50),
                                _invest(3, 50)])
        hits = evaluator.on_derived_commit("day-0001:derived", {},
                                           maintainer)
        assert [n.entity for n in hits] == ["inv:1:50"]

    def test_neighborhood_follow_watches_one_hop(self, registry,
                                                 maintainer):
        registry.register("t0", KIND_NEIGHBORHOOD_FOLLOW, 1)
        dataset = FakeDataset(
            follows_out={1: [("user", 2), ("startup", 3)]})
        evaluator = AlertEvaluator(registry, dataset)
        maintainer.land(
            "day-0001:derived",
            follows=[_follow(9, 1),            # into the subscriber
                     _follow(9, 2),            # into a followee
                     _follow(9, 3),            # startup 3: not a user
                     _follow(9, 7)])           # outside the neighborhood
        hits = evaluator.on_derived_commit("day-0001:derived", {},
                                           maintainer)
        assert sorted(n.entity for n in hits) == ["fol:9:1", "fol:9:2"]

    def test_non_user_follow_targets_ignored(self, registry, maintainer):
        registry.register("t0", KIND_NEIGHBORHOOD_FOLLOW, 5)
        evaluator = AlertEvaluator(registry, FakeDataset())
        maintainer.land("day-0001:derived",
                        follows=[_follow(1, 5, dst_type="startup")])
        assert evaluator.on_derived_commit("day-0001:derived", {},
                                           maintainer) == []


class TestLifecycleAndIndex:
    def test_paused_sub_suppressed_at_match_time(self, registry,
                                                 maintainer):
        sub = registry.register("t0", KIND_COMPANY_FUNDING, 10)
        evaluator = AlertEvaluator(registry, FakeDataset())
        maintainer.land("day-0001:derived", invest=[_invest(1, 10)])
        assert len(evaluator.on_derived_commit("day-0001:derived", {},
                                               maintainer)) == 1
        registry.pause(sub.sub_id)
        maintainer.land("day-0002:derived", invest=[_invest(2, 10)])
        assert evaluator.on_derived_commit("day-0002:derived", {},
                                           maintainer) == []
        registry.resume(sub.sub_id)
        maintainer.land("day-0003:derived", invest=[_invest(3, 10)])
        assert len(evaluator.on_derived_commit("day-0003:derived", {},
                                               maintainer)) == 1

    def test_index_rebuilds_only_when_registry_moves(self, registry,
                                                     maintainer):
        registry.register("t0", KIND_COMPANY_FUNDING, 10)
        evaluator = AlertEvaluator(registry, FakeDataset())
        maintainer.land("day-0001:derived", invest=[_invest(1, 10)])
        maintainer.land("day-0002:derived", invest=[_invest(2, 10)])
        evaluator.on_derived_commit("day-0001:derived", {}, maintainer)
        evaluator.on_derived_commit("day-0002:derived", {}, maintainer)
        assert evaluator.stats.index_rebuilds == 1
        registry.register("t0", KIND_COMPANY_FUNDING, 11)
        maintainer.land("day-0003:derived", invest=[_invest(1, 11)])
        hits = evaluator.on_derived_commit("day-0003:derived", {},
                                           maintainer)
        assert len(hits) == 1 and evaluator.stats.index_rebuilds == 2

    def test_index_shards_by_key_placement(self, registry):
        for company in range(40):
            registry.register("t0", KIND_COMPANY_FUNDING, company)
        index = PredicateIndex.build(registry.active(), FakeDataset(),
                                     num_shards=4)
        assert len(index) == 40
        per_shard = [len(d) for d in index.by_company]
        assert sum(per_shard) == 40
        assert sum(1 for n in per_shard if n > 0) > 1  # actually spread

    def test_probe_counts_fan_out_per_shard(self, registry, maintainer):
        for company in range(8):
            registry.register("t0", KIND_COMPANY_FUNDING, company)
        evaluator = AlertEvaluator(registry, FakeDataset(), num_shards=4)
        maintainer.land("day-0001:derived",
                        invest=[_invest(i, i) for i in range(8)])
        evaluator.on_derived_commit("day-0001:derived", {}, maintainer)
        lookups = evaluator.index().lookups_per_shard
        assert sum(lookups) >= 8
        assert sum(1 for n in lookups if n > 0) > 1


class TestReplayIdempotence:
    def test_reevaluation_emits_identical_ids(self, registry, maintainer):
        registry.register("t0", KIND_COMPANY_FUNDING, 10)
        evaluator = AlertEvaluator(registry, FakeDataset())
        maintainer.land("day-0001:derived", invest=[_invest(1, 10)])
        first = evaluator.on_derived_commit("day-0001:derived", {},
                                            maintainer)
        again = evaluator.on_derived_commit("day-0001:derived", {},
                                            maintainer)
        assert [n.id for n in first] == [n.id for n in again]

    def test_unit_never_landed_is_empty(self, registry, maintainer):
        registry.register("t0", KIND_COMPANY_FUNDING, 10)
        evaluator = AlertEvaluator(registry, FakeDataset())
        assert evaluator.on_derived_commit("day-0099:derived", {},
                                           maintainer) == []


class TestOracle:
    def test_incremental_equals_rescan(self, registry, maintainer):
        registry.register("t0", KIND_COMPANY_FUNDING, 10)
        registry.register("t1", KIND_COMMUNITY_INVESTOR, 4)
        registry.register("t2", KIND_NEIGHBORHOOD_FOLLOW, 1)
        dataset = FakeDataset(community_of={1: 4, 5: 4},
                              follows_out={1: [("user", 2)]})
        evaluator = AlertEvaluator(registry, dataset)
        maintainer.land("day-0001:derived",
                        invest=[_invest(1, 10), _invest(5, 30)],
                        follows=[_follow(8, 2)])
        maintainer.land("day-0002:derived",
                        invest=[_invest(6, 10)],
                        follows=[_follow(9, 1), _follow(9, 4)])
        got = set()
        for unit in ("day-0001:derived", "day-0002:derived"):
            got |= {n.id for n in evaluator.on_derived_commit(
                unit, {}, maintainer)}
        assert got == rescan_oracle(registry, dataset, maintainer)
        assert got  # the fixture actually matched something

    def test_oracle_ignores_inactive_subs(self, registry, maintainer):
        sub = registry.register("t0", KIND_COMPANY_FUNDING, 10)
        maintainer.land("day-0001:derived", invest=[_invest(1, 10)])
        dataset = FakeDataset()
        assert rescan_oracle(registry, dataset, maintainer)
        registry.cancel(sub.sub_id)
        assert rescan_oracle(registry, dataset, maintainer) == set()
