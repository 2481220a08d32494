"""Temporal evolution of the world, for longitudinal studies (§7).

The paper's future work proposes daily snapshots of fundraising companies
so that *causality* — does engagement precede money, or follow it? — can
be separated from correlation. :class:`WorldDynamics` advances the world
one simulated day at a time with a planted causal structure:

* companies that are currently raising occasionally post / tweet; a burst
  of engagement **raises the hazard of closing a round in the following
  days** (engagement → funding, the causal direction the paper wants to
  detect);
* funded companies also get a *reverse* bump (more followers after the
  announcement) so the analysis has the confound the paper warns about.

:class:`repro.crawl.snapshots.SnapshotScheduler` crawls the evolving
world daily, and :mod:`repro.analysis.longitudinal` runs the panel
analysis over the snapshot series.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List

import numpy as np

from repro.util.rng import RngStream
from repro.world.entities import FundingRound
from repro.world.generator import World


@dataclass
class DayLog:
    """What happened in the world on one simulated day."""

    day: int
    engagement_events: int = 0
    rounds_closed: int = 0
    new_campaigns: int = 0


@dataclass
class WorldDynamics:
    """Advance a :class:`World` day by day with planted causality.

    Args:
        world: the world to mutate in place.
        seed: RNG seed (independent of the world's own seed).
        engagement_to_funding_lift: multiplicative hazard lift per unit of
            recent-engagement z-score — the planted causal effect.
        base_close_hazard: per-day probability a raising company with no
            recent engagement closes a round.
    """

    world: World
    seed: int = 97
    engagement_to_funding_lift: float = 2.5
    base_close_hazard: float = 0.004
    reverse_follower_bump: int = 40
    logs: List[DayLog] = field(default_factory=list)
    _recent_engagement: Dict[int, float] = field(default_factory=dict)

    def __post_init__(self) -> None:
        self._rng = RngStream(self.seed, "dynamics")
        self._next_round_id = 1_000_000
        # CrunchBase ids continue after the world's highest; nothing but
        # a closing round assigns one once the world exists
        self._next_crunchbase_id = 1 + max(
            (c.crunchbase_id for c in self.world.companies.values()
             if c.crunchbase_id is not None), default=0)

    def step(self) -> DayLog:
        """Advance one day; returns a log of the day's events.

        The day is one walk over the companies in world order, drawing
        from one sequential stream: a raising company takes its scalar
        draws on its turn, a dormant one (never funded, not raising)
        takes exactly one uniform, a funded one takes nothing. The run
        of dormant companies between two raising ones is therefore drawn
        as one ``random(k)`` — the same ``k`` doubles, and the same
        generator state afterwards, as ``k`` scalar calls. Flags are read
        afresh every day, so a caller may flip them between days.
        """
        world = self.world
        world.day += 1
        log = DayLog(day=world.day)
        recent = self._recent_engagement
        for company_id, value in recent.items():
            recent[company_id] = value * 0.8     # engagement decays

        # a company's flags change only on its own turn, so the turn
        # order can be read up front: funded-and-idle companies drop out
        active = [c for c in world.companies.values()
                  if c.currently_raising or not c.raised_funding]
        start = 0
        for turn in [i for i, c in enumerate(active) if c.currently_raising]:
            self._wake_campaigns(active[start:turn], log)
            self._raising_day(active[turn], log)
            start = turn + 1
        self._wake_campaigns(active[start:], log)

        self.logs.append(log)
        return log

    def run(self, days: int) -> List[DayLog]:
        """Advance ``days`` days and return the per-day logs."""
        return [self.step() for _ in range(days)]

    def _wake_campaigns(self, dormant: list, log: DayLog) -> None:
        """One uniform per dormant company, in order; a rare low draw
        starts its campaign."""
        if dormant:
            draws = self._rng.np.random(len(dormant))
            for index in (draws < 0.0004).nonzero()[0]:
                dormant[index].currently_raising = True
                log.new_campaigns += 1

    def _raising_day(self, company, log: DayLog) -> None:
        """A raising company generates fresh activity and may close."""
        npr = self._rng.np
        recent = self._recent_engagement.get(company.company_id, 0.0)
        if npr.random() < 0.25:
            burst = float(npr.exponential(1.0))
            recent += burst
            log.engagement_events += 1
            self._apply_engagement(company, burst)
            # only companies that ever had a burst are tracked; everyone
            # else's recent engagement is 0.0 and stays 0.0 under decay
            self._recent_engagement[company.company_id] = recent
        hazard = self.base_close_hazard * (
            1.0 + self.engagement_to_funding_lift * recent)
        if npr.random() < min(0.5, hazard):
            self._close_round(company)
            log.rounds_closed += 1

    def _apply_engagement(self, company, burst: float) -> None:
        world = self.world
        # Buzz is visible on AngelList itself: follower count ticks up,
        # so the panel has an engagement signal even for companies with
        # no linked social accounts.
        company.follower_count += max(1, int(round(burst * 3)))
        if company.twitter_profile_id is not None:
            profile = world.twitter_profiles[company.twitter_profile_id]
            profile.statuses_count += max(1, int(round(burst * 3)))
            profile.followers_count += max(0, int(round(burst * 5)))
            profile.latest_status = f"Campaign update from {company.name}"
            profile.latest_status_day = world.day
        if company.facebook_page_id is not None:
            page = world.facebook_pages[company.facebook_page_id]
            page.post_count += max(1, int(round(burst * 2)))
            page.likes += max(0, int(round(burst * 8)))

    def _close_round(self, company) -> None:
        world = self.world
        company.currently_raising = False
        company.raised_funding = True
        amount = int(np.exp(12.0 + 0.8 * float(self._rng.np.standard_normal())))
        company.rounds.append(FundingRound(
            round_id=self._next_round_id, company_id=company.company_id,
            round_type="seed", amount_usd=amount, announced_day=world.day))
        self._next_round_id += 1
        if company.crunchbase_id is None:
            company.crunchbase_id = self._next_crunchbase_id
            self._next_crunchbase_id += 1
        # Reverse effect: the announcement itself attracts followers.
        company.follower_count += self.reverse_follower_bump
