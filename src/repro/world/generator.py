"""Generator for the synthetic crowdfunding world.

The generative model (DESIGN.md §5) works latent-first:

1. Every company gets an *engagement latent* ``e ~ N(0,1)`` and a quality
   score. Social-media presence is drawn with the marginal rates of
   Figure 6; engagement metrics (likes / tweets / followers) are lognormal
   with medians 652 / 343 / 339 and loading ``engagement_metric_coupling``
   on ``e``; fundraising success is a logistic in (presence, video, e).
   The Figure 6 table therefore *emerges* from a joint distribution — the
   analysis pipeline has to rediscover it from crawled JSON.
2. Users get roles with the §3 fractions. Active investors draw an
   activity budget from a truncated Zipf (mean ≈ 3.3, median 1).
3. Overlapping investor communities are planted with heterogeneous "herd
   strength": members of a strong community spend most investment slots
   on the community's hot list, producing the Figure 4/5/7 structure that
   CoDA must later detect.
4. Follow edges (user→company, user→user) give the BFS crawler of §3 a
   graph to expand over; every company gets at least one follower and
   every user at least one followed company so the crawl can cover the
   world the way the paper's crawl covered AngelList.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

import numpy as np

from repro.graph.csr import CSR
from repro.util.rng import RngStream
from repro.world.config import WorldConfig
from repro.world.entities import (
    Company,
    FacebookPage,
    FollowGraph,
    FundingRound,
    Investment,
    TwitterProfile,
    User,
)

_MARKETS = (
    "fintech", "healthcare", "education", "ecommerce", "saas", "biotech",
    "gaming", "logistics", "security", "media", "energy", "travel",
)
_CITIES = (
    "San Francisco", "New York", "Boston", "Austin", "Seattle", "Chicago",
    "Los Angeles", "Philadelphia", "Denver", "Atlanta",
)
_ROUND_TYPES = ("seed", "series_a", "series_b")


@dataclass
class PlantedCommunity:
    """Ground-truth investor community planted by the generator."""

    community_id: int
    member_ids: List[int]
    pool_company_ids: List[int]
    herd_strength: float

    @property
    def size(self) -> int:
        return len(self.member_ids)


@dataclass
class World:
    """The complete ground-truth ecosystem; sources serve views of this."""

    config: WorldConfig
    companies: Dict[int, Company] = field(default_factory=dict)
    users: Dict[int, User] = field(default_factory=dict)
    investments: List[Investment] = field(default_factory=list)
    facebook_pages: Dict[int, FacebookPage] = field(default_factory=dict)
    twitter_profiles: Dict[int, TwitterProfile] = field(default_factory=dict)
    planted_communities: List[PlantedCommunity] = field(default_factory=list)
    #: user → company and user → user follows, one CSR row per user id
    follows: FollowGraph = field(default_factory=FollowGraph.empty)
    day: int = 0

    def set_follows(self, follows: FollowGraph) -> None:
        """Install the follow graph and link every user to it (user ids
        must be the graph's rows ``0 .. n - 1``)."""
        rows = follows.companies.n_rows
        if (sorted(self.users) != list(range(rows))
                or follows.users.n_rows != rows):
            raise ValueError("follow graph rows must be the user ids")
        self.follows = follows
        for user in self.users.values():
            user._follows = follows

    def primary_communities(self) -> Dict[int, List[int]]:
        """Planted truth at the behavioural level: community id → the
        investors who actually herd with that community's pool."""
        groups: Dict[int, List[int]] = {}
        for user in self.users.values():
            if user.primary_community_id is not None:
                groups.setdefault(user.primary_community_id,
                                  []).append(user.user_id)
        return groups

    def company_followers(self) -> Dict[int, List[int]]:
        """Company id → follower user ids, ascending (fresh lists)."""
        inverse = self.follows.companies.inverse()
        return {cid: inverse.ids(cid) for cid in self.companies}

    def summary(self) -> Dict[str, float]:
        """Headline ground-truth statistics (compare with DESIGN.md §5)."""
        n_companies = len(self.companies)
        n_users = len(self.users)
        investors = [u for u in self.users.values() if u.is_investor]
        active = [u for u in investors if u.investments]
        invested_companies = {inv.company_id for inv in self.investments}
        per_investor = [len(set(u.investments)) for u in active]
        raised = sum(1 for c in self.companies.values() if c.raised_funding)
        return {
            "companies": n_companies,
            "users": n_users,
            "investors": len(investors),
            "active_investors": len(active),
            "investment_edges": len(self.investments),
            "invested_companies": len(invested_companies),
            "mean_investments_per_active_investor": (
                float(np.mean(per_investor)) if per_investor else 0.0
            ),
            "median_investments_per_active_investor": (
                float(np.median(per_investor)) if per_investor else 0.0
            ),
            "max_investments": max(per_investor) if per_investor else 0,
            "mean_investors_per_invested_company": (
                len(self.investments) / len(invested_companies)
                if invested_companies else 0.0
            ),
            "raised_funding": raised,
            "success_rate": raised / n_companies if n_companies else 0.0,
            "facebook_pages": len(self.facebook_pages),
            "twitter_profiles": len(self.twitter_profiles),
            "planted_communities": len(self.planted_communities),
        }


def _sigmoid(x: np.ndarray) -> np.ndarray:
    return 1.0 / (1.0 + np.exp(-x))


def _weighted_indices(cumulative: np.ndarray, rng: np.random.Generator,
                      size: int) -> np.ndarray:
    """Sample ``size`` indices ∝ weights given their cumulative sum."""
    draws = rng.random(size) * cumulative[-1]
    return np.searchsorted(cumulative, draws, side="right")


def _truncated_zipf_counts(rng: RngStream, alpha: float, max_value: int,
                           size: int) -> np.ndarray:
    """Per-entity activity budgets from a bounded discrete power law."""
    return rng.zipf_bounded(alpha, max_value, size=size)


def generate_world(config: Optional[WorldConfig] = None) -> World:
    """Build a complete world from ``config`` (deterministic in the seed)."""
    config = config or WorldConfig.default()
    params = config.params
    root = RngStream(config.seed, "world")
    world = World(config=config)

    has_fb, has_tw = _generate_companies(world, root.child("companies"))
    _generate_users(world, root.child("users"))
    active, budgets, investable = _plant_communities(
        world, root.child("communities"))
    _generate_investments(world, root.child("investments"), active, budgets,
                          investable)
    _generate_follows(world, root.child("follows"))
    _generate_social_accounts(world, root.child("social"), has_fb, has_tw)
    _generate_rounds(world, root.child("rounds"))
    return world


# ---------------------------------------------------------------------------
# companies
# ---------------------------------------------------------------------------

def _generate_companies(world: World,
                        rng: RngStream) -> Tuple[np.ndarray, np.ndarray]:
    """Fill ``world.companies``; returns the Facebook and Twitter presence
    flags for the social-account pass."""
    config = world.config
    params = config.params
    n = config.num_companies
    npr = rng.np

    engagement = npr.standard_normal(n)
    quality_noise = npr.standard_normal(n)
    quality = _sigmoid(0.9 * engagement + 0.7 * quality_noise)

    has_fb = npr.random(n) < params.p_facebook
    p_tw = np.where(has_fb, params.p_twitter_given_fb,
                    params.p_twitter_given_no_fb)
    has_tw = npr.random(n) < p_tw
    any_social = has_fb | has_tw
    p_video = np.where(any_social, params.p_video_given_social,
                       params.p_video_given_no_social)
    has_video = npr.random(n) < p_video

    logit = (
        params.success_base
        + params.success_fb * has_fb
        + params.success_tw * has_tw
        + params.success_both_penalty * (has_fb & has_tw)
        + params.success_video * has_video
        + params.success_engagement * engagement * any_social
    )
    raised = npr.random(n) < _sigmoid(logit)
    raising = npr.random(n) < config.p_currently_raising
    created = npr.integers(0, 2500, size=n)

    names = _company_names(rng, n)
    for i in range(n):
        company = Company(
            company_id=i,
            name=names[i],
            slug=f"{names[i].lower().replace(' ', '-')}-{i}",
            market=_MARKETS[i % len(_MARKETS)],
            location=_CITIES[int(npr.integers(0, len(_CITIES)))],
            quality=float(quality[i]),
            engagement_latent=float(engagement[i]),
            created_day=int(created[i]),
            currently_raising=bool(raising[i]),
            raised_funding=bool(raised[i]),
            has_video=bool(has_video[i]),
        )
        world.companies[i] = company
    return has_fb, has_tw


def _company_names(rng: RngStream, n: int) -> List[str]:
    prefixes = ("Nova", "Blue", "Quant", "Hyper", "Neo", "Bright", "Deep",
                "Swift", "True", "Open", "Clear", "Peak", "Iron", "Atlas",
                "Echo", "Lumen")
    suffixes = ("Labs", "Works", "Metrics", "Grid", "Stack", "Pay", "Health",
                "Data", "Logic", "Flow", "Cart", "Desk", "Link", "Base",
                "Scale", "Sense")
    names = []
    for i in range(n):
        prefix = prefixes[i % len(prefixes)]
        suffix = suffixes[(i // len(prefixes)) % len(suffixes)]
        names.append(f"{prefix}{suffix} {i}")
    return names


# ---------------------------------------------------------------------------
# users
# ---------------------------------------------------------------------------

def _generate_users(world: World, rng: RngStream) -> None:
    config = world.config
    params = config.params
    n = config.num_users
    npr = rng.np

    p_inv = params.investor_fraction
    p_founder = params.founder_fraction
    p_employee = params.employee_fraction
    draws = npr.random(n)
    for i in range(n):
        roles: List[str] = []
        if draws[i] < p_inv:
            roles.append("investor")
        elif draws[i] < p_inv + p_founder:
            roles.append("founder")
        elif draws[i] < p_inv + p_founder + p_employee:
            roles.append("employee")
        else:
            roles.append("observer")
        world.users[i] = User(user_id=i, name=f"user-{i}", roles=roles)


# ---------------------------------------------------------------------------
# planted communities + investments
# ---------------------------------------------------------------------------

def _plant_communities(
        world: World, rng: RngStream,
) -> Tuple[List[int], Dict[int, int], np.ndarray]:
    """Plant the communities; returns the active investors, their
    activity budgets and the investable companies for the investment
    pass."""
    config = world.config
    params = config.params
    npr = rng.np

    investors = [u.user_id for u in world.users.values() if u.is_investor]
    if not investors:
        return [], {}, np.empty(0, dtype=np.int64)
    active_mask = npr.random(len(investors)) < params.active_investor_fraction
    active = [uid for uid, keep in zip(investors, active_mask) if keep]
    if not active:
        active = investors[:1]

    # Activity budgets: bounded Zipf; whales (budget up to investments_max)
    # exist but are rare. Returned for the investment pass and used to bias
    # community membership toward active investors (syndicate leads).
    budget_draws = _truncated_zipf_counts(
        rng, params.investments_zipf_alpha, config.investments_max, len(active))
    budgets = {uid: int(b) for uid, b in zip(active, budget_draws)}

    # Investable companies: a quality-biased subset sized so ~87% end up
    # with at least one investor, matching §5.1's 59,953 / 744,036.
    companies = np.array(sorted(world.companies), dtype=np.int64)
    quality = np.array([world.companies[int(c)].quality for c in companies])
    target = int(round(len(companies) * params.invested_company_fraction * 1.15))
    target = max(10, min(target, len(companies)))
    ranked = companies[np.argsort(-(quality + 0.25 * npr.random(len(companies))))]
    investable = ranked[:target]

    n_comm = config.num_communities
    weights = np.array([budgets[uid] for uid in active], dtype=np.float64)
    # Mild size bias: active investors join syndicates more often, but a
    # pair of whales in one pool would blow the shared-size average far
    # past the paper's 2.1 (see DESIGN.md §5 calibration).
    weights = weights ** params.membership_size_bias
    cum_members = np.cumsum(weights)

    sizes = npr.lognormal(
        mean=np.log(config.community_size_mean) - params.community_size_sigma ** 2 / 2,
        sigma=params.community_size_sigma, size=n_comm)
    sizes = np.clip(np.round(sizes).astype(int), 4, max(4, len(active)))

    n_strong = max(1, int(round(n_comm * params.strong_community_fraction)))
    for cid in range(n_comm):
        member_idx = np.unique(
            _weighted_indices(cum_members, npr, int(sizes[cid])))
        members = [active[int(i)] for i in member_idx]
        if cid < n_strong:
            herd = params.herd_strength_strong * (0.75 + 0.25 * npr.random())
        else:
            herd = params.herd_strength_weak * (0.5 + 1.5 * npr.random())
        pool_size = max(12, int(round(params.community_pool_factor
                                      * len(members))))
        pool_idx = npr.choice(len(investable),
                              size=min(pool_size, len(investable)),
                              replace=False)
        community = PlantedCommunity(
            community_id=cid,
            member_ids=members,
            pool_company_ids=[int(investable[int(i)]) for i in pool_idx],
            herd_strength=float(herd),
        )
        world.planted_communities.append(community)
        for uid in members:
            world.users[uid].community_ids.append(cid)
    return active, budgets, investable


def _generate_investments(world: World, rng: RngStream, active: List[int],
                          budgets: Dict[int, int],
                          investable: np.ndarray) -> None:
    config = world.config
    params = config.params
    npr = rng.np
    # Disclosure flags come from an independent child stream so adding
    # profile attributes never perturbs the investment structure.
    disclose_rng = rng.child("disclosure").np
    if not active:
        return

    # Global popularity over investable companies: Zipf-ish weights so a
    # few hot startups attract many independent investors.
    global_weights = (
        np.arange(1, len(investable) + 1, dtype=np.float64)
        ** -params.global_popularity_alpha)
    npr.shuffle(global_weights)
    cum_global = np.cumsum(global_weights)

    # Per-community pool weights: mildly concentrated, so herd slots
    # spread over most of the pool (raising the ≥2-shared-investor
    # percentage) instead of piling onto a few hot companies.
    pool_cums = []
    for community in world.planted_communities:
        w = (np.arange(1, len(community.pool_company_ids) + 1,
                       dtype=np.float64) ** -params.pool_weight_alpha)
        pool_cums.append(np.cumsum(w))

    membership: Dict[int, List[int]] = {uid: [] for uid in active}
    for community in world.planted_communities:
        for uid in community.member_ids:
            membership[uid].append(community.community_id)

    day_counter = 0
    for uid in active:
        user = world.users[uid]
        chosen: set = set()
        communities = membership[uid]
        budget = budgets[uid]
        # An investor herds with one *primary* syndicate even when they
        # appear in several communities — this is what makes detected
        # communities cohesive rather than blurred across pools.
        primary = None
        if communities:
            primary = communities[int(npr.integers(0, len(communities)))]
            user.primary_community_id = primary
            user.syndicate_disclosed = bool(
                disclose_rng.random() < params.p_syndicate_disclosed)
        for _ in range(budget):
            picked = None
            if primary is not None:
                community = world.planted_communities[primary]
                herd = (community.herd_strength
                        * params.p_invest_in_community_pool)
                if npr.random() < herd:
                    pool = community.pool_company_ids
                    idx = int(_weighted_indices(pool_cums[primary],
                                                npr, 1)[0])
                    picked = pool[idx]
            if picked is None:
                idx = int(_weighted_indices(cum_global, npr, 1)[0])
                picked = int(investable[idx])
            if picked in chosen:
                continue
            chosen.add(picked)
            day_counter = (day_counter + 1) % 2500
            world.investments.append(
                Investment(investor_id=uid, company_id=picked,
                           day=day_counter))
        user.investments = sorted(chosen)


# ---------------------------------------------------------------------------
# follows
# ---------------------------------------------------------------------------

def _generate_follows(world: World, rng: RngStream) -> None:
    """Draw both follow graphs into ``world.follows``.

    The per-user loop makes only the draws, in stream order; the lookup,
    de-duplication and coverage passes run once over every user's edges.
    """
    config = world.config
    npr = rng.np
    n_companies = len(world.companies)
    n_users = len(world.users)

    # Popularity for follows: engagement-driven, so socially active
    # companies accumulate followers (consistent with the paper's framing).
    latent = np.array(
        [world.companies[c].engagement_latent for c in range(n_companies)])
    pop = np.exp(0.8 * latent + 0.6 * npr.standard_normal(n_companies))
    cum_pop = np.cumsum(pop)

    mean_follows_inv = config.mean_follows
    company_counts = np.empty(n_users, dtype=np.int64)
    user_counts = np.zeros(n_users, dtype=np.int64)
    # the loop keeps no array per user: company draws fill one buffer,
    # grown as needed, and user targets (at most five a user) another
    draws = np.empty(16 * n_users)
    targets = np.empty(5 * n_users, dtype=np.int64)
    n_draws = n_targets = 0
    for uid in range(n_users):
        scale = mean_follows_inv if world.users[uid].is_investor else 8.0
        count = min(max(1, int(npr.exponential(scale))), n_companies)
        company_counts[uid] = count
        if n_draws + count > len(draws):
            draws = np.concatenate((draws, np.empty(len(draws) // 2 + count)))
        npr.random(out=draws[n_draws:n_draws + count])
        n_draws += count
        # user → user follows keep the BFS frontier expanding through people.
        n_user_follows = int(npr.integers(0, 6))
        if n_user_follows:
            user_counts[uid] = n_user_follows
            targets[n_targets:n_targets + n_user_follows] = npr.integers(
                0, n_users, size=n_user_follows)
            n_targets += n_user_follows

    # each graph's arrays are dropped before the next pass allocates, so
    # the step peaks at about three int64 arrays of the company edges
    user_ids = np.arange(n_users, dtype=np.int64)
    sources = np.repeat(user_ids, user_counts)
    targets = targets[:n_targets]
    own = sources != targets
    users = CSR.from_keys(sources[own] * n_users + targets[own], n_users,
                          n_users)
    del sources, targets, own

    drawn = draws[:n_draws]
    drawn *= cum_pop[-1]
    cols = np.searchsorted(cum_pop, drawn, side="right")
    del draws, drawn
    # Coverage guarantees (see module docstring): each investor follows the
    # companies they invested in; each company has at least one follower.
    invested = np.fromiter(
        (inv.investor_id * n_companies + inv.company_id
         for inv in world.investments), np.int64, len(world.investments))
    followed = np.zeros(n_companies, dtype=bool)
    followed[cols] = True
    followed[invested % n_companies] = True
    orphans = np.flatnonzero(~followed)
    adopters = npr.integers(0, n_users, size=len(orphans))
    keys = np.repeat(user_ids * n_companies, company_counts)
    keys += cols
    del cols
    keys = np.concatenate((keys, invested, adopters * n_companies + orphans))
    companies = CSR.from_keys(keys, n_users, n_companies)
    world.set_follows(FollowGraph(companies=companies, users=users))

    followers = np.bincount(companies.indices, minlength=n_companies)
    for company, count in zip(world.companies.values(), followers.tolist()):
        company.follower_count = count


# ---------------------------------------------------------------------------
# social accounts
# ---------------------------------------------------------------------------

def _generate_social_accounts(world: World, rng: RngStream,
                              has_fb: np.ndarray, has_tw: np.ndarray) -> None:
    params = world.config.params
    npr = rng.np
    coupling = params.engagement_metric_coupling
    residual = float(np.sqrt(max(0.0, 1.0 - coupling ** 2)))

    page_id = 100_000
    profile_id = 500_000
    for cid, company in world.companies.items():
        shock = coupling * company.engagement_latent
        if has_fb[cid]:
            z = shock + residual * float(npr.standard_normal())
            likes = int(round(np.exp(
                params.likes_log_median + params.likes_log_sigma * z)))
            posts = max(0, int(round(np.exp(
                3.5 + 1.2 * (shock + residual * float(npr.standard_normal()))))))
            page = FacebookPage(
                page_id=page_id, company_id=cid, name=company.name,
                likes=max(0, likes), location=company.location,
                post_count=posts,
                recent_posts=[f"{company.name} update #{k}"
                              for k in range(min(3, posts))],
            )
            world.facebook_pages[page_id] = page
            company.facebook_page_id = page_id
            page_id += 1
        if has_tw[cid]:
            z1 = shock + residual * float(npr.standard_normal())
            z2 = shock + residual * float(npr.standard_normal())
            statuses = int(round(np.exp(
                params.tweets_log_median + params.tweets_log_sigma * z1)))
            followers = int(round(np.exp(
                params.tw_followers_log_median
                + params.tw_followers_log_sigma * z2)))
            friends = max(1, int(followers * 0.6))
            profile = TwitterProfile(
                profile_id=profile_id, company_id=cid,
                screen_name=f"{company.slug[:15]}_{cid}",
                created_day=company.created_day,
                followers_count=max(0, followers),
                friends_count=friends,
                listed_count=max(0, int(followers * 0.02)),
                statuses_count=max(0, statuses),
                latest_status=f"News from {company.name}",
                latest_status_day=world.day,
            )
            world.twitter_profiles[profile_id] = profile
            company.twitter_profile_id = profile_id
            profile_id += 1


# ---------------------------------------------------------------------------
# funding rounds + CrunchBase linkage
# ---------------------------------------------------------------------------

def _generate_rounds(world: World, rng: RngStream) -> None:
    config = world.config
    npr = rng.np
    by_company: Dict[int, List[int]] = {}
    for inv in world.investments:
        by_company.setdefault(inv.company_id, []).append(inv.investor_id)

    round_id = 0
    crunchbase_id = 1
    for cid, company in world.companies.items():
        in_crunchbase = company.raised_funding or (
            npr.random() < config.crunchbase_extra_fraction)
        if not in_crunchbase:
            continue
        company.crunchbase_id = crunchbase_id
        crunchbase_id += 1
        company.links_crunchbase = (
            npr.random() < config.p_crunchbase_url_on_angellist)
        if not company.raised_funding:
            continue
        n_rounds = 1 + int(npr.random() < 0.35) + int(npr.random() < 0.10)
        investors = by_company.get(cid, [])
        day = company.created_day
        for r in range(n_rounds):
            day += int(npr.integers(30, 400))
            amount = int(np.exp(
                12.2 + 1.3 * r + 0.8 * float(npr.standard_normal())))
            company.rounds.append(FundingRound(
                round_id=round_id, company_id=cid,
                round_type=_ROUND_TYPES[min(r, len(_ROUND_TYPES) - 1)],
                amount_usd=amount, announced_day=day,
                investor_ids=sorted(set(investors))[:12],
            ))
            round_id += 1
