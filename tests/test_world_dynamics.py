"""Tests for the planted-causality world dynamics."""

import pytest

from repro.world.dynamics import WorldDynamics


class TestStep:
    def test_day_advances(self, fresh_world):
        dynamics = WorldDynamics(fresh_world, seed=1)
        start = fresh_world.day
        dynamics.step()
        assert fresh_world.day == start + 1

    def test_run_returns_logs(self, fresh_world):
        dynamics = WorldDynamics(fresh_world, seed=1)
        logs = dynamics.run(5)
        assert len(logs) == 5
        assert [log.day for log in logs] == list(range(1, 6))

    def test_engagement_touches_social_accounts(self, fresh_world):
        raising = [c for c in fresh_world.companies.values()
                   if c.currently_raising
                   and c.twitter_profile_id is not None]
        if not raising:
            pytest.skip("no raising company with twitter in this seed")
        before = {c.company_id:
                  fresh_world.twitter_profiles[c.twitter_profile_id]
                  .statuses_count for c in raising}
        WorldDynamics(fresh_world, seed=1).run(30)
        after = {c.company_id:
                 fresh_world.twitter_profiles[c.twitter_profile_id]
                 .statuses_count for c in raising}
        assert any(after[cid] > before[cid] for cid in before)

    def test_closing_sets_funding_state(self, fresh_world):
        dynamics = WorldDynamics(fresh_world, seed=1,
                                 base_close_hazard=0.5)
        raising_before = [c.company_id
                          for c in fresh_world.companies.values()
                          if c.currently_raising]
        logs = dynamics.run(10)
        closed = sum(log.rounds_closed for log in logs)
        assert closed > 0
        for cid in raising_before:
            company = fresh_world.companies[cid]
            if company.raised_funding and not company.currently_raising:
                assert company.rounds
                assert company.crunchbase_id is not None

    def test_new_campaigns_can_start(self, fresh_world):
        dynamics = WorldDynamics(fresh_world, seed=2)
        companies = fresh_world.companies
        woken_total = 0
        for _ in range(60):
            before = {cid: (c.currently_raising, c.raised_funding)
                      for cid, c in companies.items()}
            log = dynamics.step()
            woken = [cid for cid, c in companies.items()
                     if c.currently_raising and not before[cid][0]]
            assert len(woken) == log.new_campaigns
            # only a never-funded company is woken, a funded one never
            assert all(before[cid] == (False, False) for cid in woken)
            woken_total += len(woken)
        assert woken_total > 0

    def test_deterministic_given_seed(self):
        from repro.world.config import WorldConfig
        from repro.world.generator import generate_world
        results = []
        for _ in range(2):
            world = generate_world(WorldConfig.tiny(seed=23))
            logs = WorldDynamics(world, seed=9).run(15)
            results.append([(l.engagement_events, l.rounds_closed)
                            for l in logs])
        assert results[0] == results[1]
