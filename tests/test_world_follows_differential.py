"""The world's CSR follow graphs against the per-user loop they replaced.

``_generate_follows`` makes the same draws from the same stream, one
user at a time, but looks them up, de-duplicates them and applies the
coverage passes (investments followed, no orphan company) once over
every user's edges. The loop below — the implementation that held the
follows as Python lists on each ``User``, kept here as the oracle — did
all of it per user.
Both must give the same rows, the same follower counts and the same
inverse rows.
"""

from typing import Dict, List

import numpy as np
import pytest

from repro.util.rng import RngStream
from repro.world.config import WorldConfig
from repro.world.generator import World, generate_world


def _weighted_indices(cumulative, rng, size):
    draws = rng.random(size) * cumulative[-1]
    return np.searchsorted(cumulative, draws, side="right")


def per_user_follows(world: World, rng: RngStream):
    """The reference: per-user lists, the follow counts and the followers
    of each company, from the inputs ``generate_world`` gave the step."""
    config = world.config
    npr = rng.np
    n_companies = len(world.companies)
    company_ids = np.arange(n_companies, dtype=np.int64)
    latent = np.array(
        [world.companies[int(c)].engagement_latent for c in company_ids])
    pop = np.exp(0.8 * latent + 0.6 * npr.standard_normal(n_companies))
    cum_pop = np.cumsum(pop)

    user_ids = sorted(world.users)
    follows_companies: Dict[int, List[int]] = {}
    follows_users: Dict[int, List[int]] = {uid: [] for uid in user_ids}
    for uid in user_ids:
        user = world.users[uid]
        if user.is_investor:
            count = max(1, int(npr.exponential(config.mean_follows)))
        else:
            count = max(1, int(npr.exponential(8.0)))
        count = min(count, n_companies)
        picks = np.unique(_weighted_indices(cum_pop, npr, count))
        follows_companies[uid] = [int(c) for c in picks]
        n_user_follows = int(npr.integers(0, 6))
        if n_user_follows:
            targets = npr.integers(0, len(user_ids), size=n_user_follows)
            follows_users[uid] = sorted(
                {int(t) for t in targets if int(t) != uid})

    for uid, user in world.users.items():
        if user.investments:
            follows_companies[uid] = sorted(
                set(follows_companies[uid]) | set(user.investments))

    followed = set()
    for row in follows_companies.values():
        followed.update(row)
    orphans = [cid for cid in world.companies if cid not in followed]
    if orphans:
        adopters = npr.integers(0, len(user_ids), size=len(orphans))
        for cid, uidx in zip(orphans, adopters):
            uid = user_ids[int(uidx)]
            follows_companies[uid] = sorted(
                set(follows_companies[uid]) | {cid})

    followers: Dict[int, List[int]] = {cid: [] for cid in world.companies}
    for uid in user_ids:
        for cid in follows_companies[uid]:
            followers[cid].append(uid)
    return follows_companies, follows_users, followers


def _world(scale, seed):
    if scale is None:
        return generate_world(WorldConfig.tiny(seed=seed))
    return generate_world(WorldConfig(scale=scale, seed=seed))


@pytest.fixture(scope="module", params=[(None, 11), (1 / 80, 7),
                                        (1 / 80, 4241)],
                ids=["tiny-11", "1/80-7", "1/80-4241"])
def pair(request):
    scale, seed = request.param
    world = _world(scale, seed)
    stream = RngStream(world.config.seed, "world").child("follows")
    return world, per_user_follows(world, stream)


def test_company_rows_are_identical(pair):
    world, (follows_companies, _users, _followers) = pair
    graph = world.follows.companies
    assert graph.n_rows == len(world.users)
    for uid, row in follows_companies.items():
        assert graph.row(uid).tolist() == row
        assert world.users[uid].follows_companies == row


def test_user_rows_are_identical(pair):
    world, (_companies, follows_users, _followers) = pair
    graph = world.follows.users
    for uid, row in follows_users.items():
        assert graph.row(uid).tolist() == row
        assert world.users[uid].follows_users == row


def test_follower_counts_and_inverse_rows_are_identical(pair):
    world, (_companies, _users, followers) = pair
    inverse = world.follows.companies.inverse()
    assert inverse.n_rows == len(world.companies)
    for cid, row in followers.items():
        assert world.companies[cid].follower_count == len(row)
        assert inverse.row(cid).tolist() == row
    assert world.company_followers() == followers


def test_profile_degrees_read_the_rows(pair):
    world, (follows_companies, follows_users, _followers) = pair
    for uid in list(world.users)[:500]:
        doc = world.users[uid].angellist_json()
        assert doc["follows_company_count"] == len(follows_companies[uid])
        assert doc["follows_user_count"] == len(follows_users[uid])
        assert type(doc["follows_company_count"]) is int
