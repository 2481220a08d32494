"""``WorldDynamics.step`` against the sequential loop it replaced.

The day step draws the dormant companies between two raising ones as
one vector; the loop below — the implementation up to PR 21, kept here
as the oracle — draws one scalar per company. Everything observable must
agree after any number of days: company / Twitter / Facebook state, the
day logs, the round and CrunchBase id counters, and the generator's own
state (so whatever is drawn *next* agrees too).
"""

import random

import numpy as np
import pytest

from repro.world.config import WorldConfig
from repro.world.dynamics import DayLog, WorldDynamics
from repro.world.entities import (
    Company, FacebookPage, FundingRound, TwitterProfile)
from repro.world.generator import World, generate_world


class SequentialDynamics(WorldDynamics):
    """The reference: one pass over every company, scalar draws only,
    CrunchBase ids from a scan of the whole world per close."""

    def step(self) -> DayLog:
        world = self.world
        world.day += 1
        npr = self._rng.np
        log = DayLog(day=world.day)
        for company in world.companies.values():
            recent = self._recent_engagement.get(company.company_id,
                                                 0.0) * 0.8
            if company.currently_raising:
                if npr.random() < 0.25:
                    burst = float(npr.exponential(1.0))
                    recent += burst
                    log.engagement_events += 1
                    self._apply_engagement(company, burst)
                hazard = self.base_close_hazard * (
                    1.0 + self.engagement_to_funding_lift * recent)
                if npr.random() < min(0.5, hazard):
                    self._close_round(company)
                    log.rounds_closed += 1
            elif not company.raised_funding and npr.random() < 0.0004:
                company.currently_raising = True
                log.new_campaigns += 1
            self._recent_engagement[company.company_id] = recent
        self.logs.append(log)
        return log

    def _close_round(self, company) -> None:
        world = self.world
        company.currently_raising = False
        company.raised_funding = True
        amount = int(np.exp(
            12.0 + 0.8 * float(self._rng.np.standard_normal())))
        company.rounds.append(FundingRound(
            round_id=self._next_round_id, company_id=company.company_id,
            round_type="seed", amount_usd=amount, announced_day=world.day))
        self._next_round_id += 1
        if company.crunchbase_id is None:
            existing = [c.crunchbase_id for c in world.companies.values()
                        if c.crunchbase_id is not None]
            company.crunchbase_id = (max(existing) + 1) if existing else 1
        company.follower_count += self.reverse_follower_bump


def observable(dynamics):
    world = dynamics.world
    return {
        "day": world.day,
        "companies": world.companies,
        "twitter": world.twitter_profiles,
        "facebook": world.facebook_pages,
        "logs": dynamics.logs,
        "next_round_id": dynamics._next_round_id,
        # the reference stores a 0.0 for every company, the step only
        # what is non-zero: compare as the function company -> value
        "recent": {cid: dynamics._recent_engagement.get(cid, 0.0)
                   for cid in world.companies},
        "generator": dynamics._rng.np.bit_generator.state,
    }


def assert_same_after(make_world, days, between_days=None, **knobs):
    """Run both implementations on equal worlds; ``between_days(world,
    day)`` mutates each world identically after each day."""
    new = WorldDynamics(make_world(), **knobs)
    old = SequentialDynamics(make_world(), **knobs)
    for day in range(days):
        assert new.step() == old.step()
        if between_days is not None:
            between_days(new.world, day)
            between_days(old.world, day)
    seen_new, seen_old = observable(new), observable(old)
    for name in seen_old:
        assert seen_new[name] == seen_old[name], name
    return new


def generated(scale, seed, reshape=None):
    def make():
        world = generate_world(WorldConfig(scale=scale, seed=seed))
        if reshape is not None:
            reshape(world)
        return world
    return make


class TestGeneratedWorlds:
    @pytest.mark.parametrize("scale,world_seed,seed,days", [
        (0.003, 23, 9, 90),
        (0.003, 5, 1, 40),
        (0.01, 11, 97, 60),
        (1 / 32, 7, 8, 6),       # the ingest benchmark's world
    ])
    def test_matches_the_sequential_loop(self, scale, world_seed, seed,
                                         days):
        dynamics = assert_same_after(generated(scale, world_seed), days,
                                     seed=seed)
        if days >= 40:      # every branch was taken, not just compared
            assert sum(log.new_campaigns for log in dynamics.logs) > 0
            assert sum(log.rounds_closed for log in dynamics.logs) > 0
            assert sum(log.engagement_events for log in dynamics.logs) > 0

    def test_high_hazard_closes_and_assigns_crunchbase_ids(self):
        dynamics = assert_same_after(generated(0.003, 23), 30, seed=1,
                                     base_close_hazard=0.5)
        closed = [c for c in dynamics.world.companies.values()
                  if c.rounds and c.rounds[-1].round_id >= 1_000_000]
        assert len(closed) >= 10
        assigned = [c.crunchbase_id for c in closed]
        assert None not in assigned
        assert len(set(assigned)) == len(assigned)

    def test_no_raising_company(self):
        def nobody_raises(world):
            for company in world.companies.values():
                company.currently_raising = False
        # the whole day is one tail draw; campaigns start from nothing
        dynamics = assert_same_after(generated(0.003, 23, nobody_raises),
                                     25, seed=4)
        assert sum(log.new_campaigns for log in dynamics.logs) > 0

    def test_no_dormant_company(self):
        def all_raising_or_funded(world):
            for index, company in enumerate(world.companies.values()):
                company.currently_raising = index % 3 != 0
                company.raised_funding = index % 3 == 0 or index % 2 == 0
        dynamics = assert_same_after(
            generated(0.003, 23, all_raising_or_funded), 12, seed=4)
        assert all(log.new_campaigns == 0 for log in dynamics.logs)

    @pytest.mark.parametrize("raising,funded", [
        (True, False), (False, False), (False, True), (True, True)])
    def test_one_company_world(self, raising, funded):
        def only_one(world):
            company = next(iter(world.companies.values()))
            company.currently_raising = raising
            company.raised_funding = funded
            world.companies = {company.company_id: company}
        assert_same_after(generated(0.003, 23, only_one), 40, seed=2,
                          base_close_hazard=0.2)

    def test_empty_world(self):
        def nobody(world):
            world.companies = {}
        assert_same_after(generated(0.003, 23, nobody), 3, seed=2)

    def test_flags_flipped_from_outside_between_days(self):
        def meddle(world, day):
            rng = random.Random(day)
            for company in rng.sample(list(world.companies.values()), 25):
                if rng.random() < 0.5:
                    company.currently_raising = not company.currently_raising
                else:
                    company.raised_funding = not company.raised_funding
        dynamics = assert_same_after(generated(0.003, 23), 30,
                                     between_days=meddle, seed=6,
                                     base_close_hazard=0.1)
        assert sum(log.rounds_closed for log in dynamics.logs) > 0

    def test_a_restarted_dynamics_continues_the_crunchbase_ids(self):
        world = generate_world(WorldConfig.tiny(seed=23))
        WorldDynamics(world, seed=1, base_close_hazard=0.5).run(3)
        for company in world.companies.values():
            company.currently_raising = company.crunchbase_id is None
        before = {c.crunchbase_id for c in world.companies.values()}
        WorldDynamics(world, seed=2, base_close_hazard=0.5).run(2)
        fresh = [c.crunchbase_id for c in world.companies.values()
                 if c.crunchbase_id not in before]
        assert sorted(fresh) == list(range(max(before - {None}) + 1,
                                           max(before - {None}) + 1
                                           + len(fresh)))
        assert fresh


# ------------------------------------------------------ generated shapes
hypothesis = pytest.importorskip("hypothesis")
from hypothesis import given, settings, strategies as st  # noqa: E402

_company = st.tuples(
    st.booleans(),                        # currently_raising
    st.booleans(),                        # raised_funding
    st.booleans(),                        # has a Twitter profile
    st.booleans(),                        # has a Facebook page
    st.one_of(st.none(), st.integers(1, 50)))   # crunchbase_id
_flips = st.lists(st.tuples(st.integers(0, 5), st.integers(0, 39),
                            st.sampled_from(["currently_raising",
                                             "raised_funding"])),
                  max_size=8)


def _handmade_world(shapes):
    world = World(config=WorldConfig.tiny())
    for index, (raising, funded, twitter, facebook, cb_id) in \
            enumerate(shapes):
        cid = 100 + index
        world.companies[cid] = Company(
            company_id=cid, name=f"c{cid}", slug=f"c{cid}", market="m",
            location="l", quality=0.5, engagement_latent=0.5,
            created_day=0, currently_raising=raising,
            raised_funding=funded, has_video=False, follower_count=10,
            twitter_profile_id=cid if twitter else None,
            facebook_page_id=cid if facebook else None,
            crunchbase_id=cb_id)
        if twitter:
            world.twitter_profiles[cid] = TwitterProfile(
                profile_id=cid, company_id=cid, screen_name=f"c{cid}",
                created_day=0, followers_count=5, friends_count=1,
                listed_count=0, statuses_count=3)
        if facebook:
            world.facebook_pages[cid] = FacebookPage(
                page_id=cid, company_id=cid, name=f"c{cid}", likes=7,
                location="l", post_count=2)
    return world


class TestAnyShape:
    @given(shapes=st.lists(_company, max_size=40),
           seed=st.integers(0, 2 ** 32), days=st.integers(1, 6),
           hazard=st.sampled_from([0.004, 0.5]), flips=_flips)
    @settings(max_examples=120, deadline=None)
    def test_matches_the_sequential_loop(self, shapes, seed, days, hazard,
                                         flips):
        def meddle(world, day):
            companies = list(world.companies.values())
            for when, who, flag in flips:
                if when == day and who < len(companies):
                    setattr(companies[who], flag,
                            not getattr(companies[who], flag))
        assert_same_after(lambda: _handmade_world(shapes), days,
                          between_days=meddle, seed=seed,
                          base_close_hazard=hazard)
