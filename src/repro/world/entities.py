"""Ground-truth entity records for the synthetic world.

These are the *world-side* objects. The simulated APIs project them into
per-source JSON documents (an AngelList startup record, a CrunchBase
organization, a Facebook page, a Twitter profile) — crawlers and analyses
only ever see those projections, mirroring how the paper's pipeline only
saw API responses.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional

from repro.graph.csr import CSR


@dataclass
class FundingRound:
    """One financing event, as CrunchBase would report it."""

    round_id: int
    company_id: int
    round_type: str          # "seed", "series_a", ...
    amount_usd: int
    announced_day: int       # simulated day offset
    investor_ids: List[int] = field(default_factory=list)

    def to_json(self) -> Dict:
        return {
            "round_id": self.round_id,
            "company_id": self.company_id,
            "round_type": self.round_type,
            "amount_usd": self.amount_usd,
            "announced_day": self.announced_day,
            "investor_ids": list(self.investor_ids),
        }


@dataclass
class Investment:
    """A single investor → company investment edge (ground truth)."""

    investor_id: int
    company_id: int
    day: int = 0

    def to_json(self) -> Dict:
        return {
            "investor_id": self.investor_id,
            "company_id": self.company_id,
            "day": self.day,
        }


@dataclass
class FacebookPage:
    """A company's Facebook page, served by the simulated Graph API."""

    page_id: int
    company_id: int
    name: str
    likes: int
    location: str
    post_count: int
    recent_posts: List[str] = field(default_factory=list)

    def to_json(self) -> Dict:
        return {
            "id": str(self.page_id),
            "name": self.name,
            "fan_count": self.likes,
            "location": {"city": self.location},
            "posts_count": self.post_count,
            "recent_posts": list(self.recent_posts),
        }


@dataclass
class TwitterProfile:
    """A company's Twitter account, served by the simulated REST API."""

    profile_id: int
    company_id: int
    screen_name: str
    created_day: int
    followers_count: int
    friends_count: int
    listed_count: int
    statuses_count: int
    latest_status: str = ""
    latest_status_day: int = 0

    def to_json(self) -> Dict:
        return {
            "id": self.profile_id,
            "screen_name": self.screen_name,
            "created_at_day": self.created_day,
            "followers_count": self.followers_count,
            "friends_count": self.friends_count,
            "listed_count": self.listed_count,
            "statuses_count": self.statuses_count,
            "status": {
                "text": self.latest_status,
                "created_at_day": self.latest_status_day,
            },
        }


@dataclass
class Company:
    """A startup as it exists in the world (superset of any one API view)."""

    company_id: int
    name: str
    slug: str
    market: str
    location: str
    quality: float                 # latent; never exposed through an API
    engagement_latent: float       # latent; drives social metrics + success
    created_day: int
    currently_raising: bool
    raised_funding: bool           # ground truth for "fundraising success"
    has_video: bool
    follower_count: int = 0
    facebook_page_id: Optional[int] = None
    twitter_profile_id: Optional[int] = None
    crunchbase_id: Optional[int] = None
    #: whether the AngelList profile links its CrunchBase URL (if absent the
    #: augmenter must fall back to name search, as in §3 of the paper).
    links_crunchbase: bool = False
    rounds: List[FundingRound] = field(default_factory=list)

    def angellist_json(self, fb_url: Optional[str], tw_url: Optional[str],
                       cb_url: Optional[str]) -> Dict:
        """Project into the document the simulated AngelList API returns."""
        video_url = (
            f"https://angel.example/videos/{self.slug}" if self.has_video else None
        )
        return {
            "id": self.company_id,
            "name": self.name,
            "angellist_url": f"https://angel.example/{self.slug}",
            "market": self.market,
            "location": self.location,
            "created_at_day": self.created_day,
            "follower_count": self.follower_count,
            "currently_raising": self.currently_raising,
            "video_url": video_url,
            "facebook_url": fb_url,
            "twitter_url": tw_url,
            "crunchbase_url": cb_url,
        }


@dataclass(frozen=True)
class FollowGraph:
    """The world's follow edges: one CSR row per user id, immutable once
    generated (the world's dynamics move follower counts, not follows)."""

    companies: CSR     # user → followed company ids
    users: CSR         # user → followed user ids

    @classmethod
    def empty(cls) -> "FollowGraph":
        return cls(CSR([0], [], 0), CSR([0], [], 0))


@dataclass
class User:
    """An AngelList user: investor, founder, employee, or onlooker."""

    user_id: int
    name: str
    roles: List[str]
    investments: List[int] = field(default_factory=list)  # company ids
    community_ids: List[int] = field(default_factory=list)  # planted truth
    #: the one community whose pool this investor actually herds with;
    #: None for non-investors and members who never invested.
    primary_community_id: Optional[int] = None
    #: whether the investor lists their syndicate on their profile
    #: (AngelList syndicates are public but not everyone joins one).
    syndicate_disclosed: bool = False
    #: the world's follow graph, linked by ``World.set_follows``; the
    #: user's follows are row ``user_id`` of it
    _follows: Optional[FollowGraph] = field(
        default=None, init=False, repr=False, compare=False)

    @property
    def is_investor(self) -> bool:
        return "investor" in self.roles

    @property
    def follows_companies(self) -> List[int]:
        """Followed company ids, ascending (a fresh list)."""
        if self._follows is None:
            return []
        return self._follows.companies.ids(self.user_id)

    @property
    def follows_users(self) -> List[int]:
        """Followed user ids, ascending (a fresh list)."""
        if self._follows is None:
            return []
        return self._follows.users.ids(self.user_id)

    def angellist_json(self) -> Dict:
        syndicate = (self.primary_community_id
                     if self.syndicate_disclosed else None)
        follows = self._follows
        uid = self.user_id
        return {
            "id": uid,
            "name": self.name,
            "roles": list(self.roles),
            "follows_company_count": (
                follows.companies.degree[uid] if follows else 0),
            "follows_user_count": (
                follows.users.degree[uid] if follows else 0),
            "investment_count": len(self.investments),
            "syndicate_id": syndicate,
        }
