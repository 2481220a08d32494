"""Save/load a generated world to gzipped JSON on the local filesystem.

Large worlds (the 1/16 default takes a few seconds to generate, paper
scale minutes) can be generated once and reloaded by benchmarks, the
CLI, and notebooks. The format is a plain JSON document — stable,
diffable, and independent of pickle. Follows are stored as each user's
``follows_companies`` / ``follows_users`` lists and loaded back into
the world's CSR follow graph.
"""

from __future__ import annotations

import gzip
import json
from typing import Dict

from repro.graph.csr import CSR
from repro.world.config import CalibrationParams, WorldConfig
from repro.world.entities import (Company, FacebookPage, FollowGraph,
                                  FundingRound, Investment, TwitterProfile,
                                  User)
from repro.world.generator import PlantedCommunity, World

FORMAT_VERSION = 1


def save_world(world: World, path: str) -> None:
    """Serialize ``world`` to ``path`` (gzipped JSON)."""
    document = {
        "format_version": FORMAT_VERSION,
        "config": {
            "scale": world.config.scale,
            "seed": world.config.seed,
            "crunchbase_extra_fraction":
                world.config.crunchbase_extra_fraction,
            "p_crunchbase_url_on_angellist":
                world.config.p_crunchbase_url_on_angellist,
            "p_currently_raising": world.config.p_currently_raising,
            "params": vars(world.config.params),
        },
        "day": world.day,
        "companies": [_company_doc(c) for c in world.companies.values()],
        "users": [_user_doc(u) for u in world.users.values()],
        "investments": [inv.to_json() for inv in world.investments],
        "facebook_pages": [_page_doc(p)
                           for p in world.facebook_pages.values()],
        "twitter_profiles": [_profile_doc(p)
                             for p in world.twitter_profiles.values()],
        "planted_communities": [
            {"community_id": c.community_id,
             "member_ids": c.member_ids,
             "pool_company_ids": c.pool_company_ids,
             "herd_strength": c.herd_strength}
            for c in world.planted_communities],
    }
    with gzip.open(path, "wt", encoding="utf-8") as handle:
        json.dump(document, handle, separators=(",", ":"))


def load_world(path: str) -> World:
    """Reconstruct a world saved by :func:`save_world`."""
    with gzip.open(path, "rt", encoding="utf-8") as handle:
        document = json.load(handle)
    version = document.get("format_version")
    if version != FORMAT_VERSION:
        raise ValueError(f"unsupported world format version: {version}")

    config_doc = document["config"]
    config = WorldConfig(
        scale=config_doc["scale"], seed=config_doc["seed"],
        params=CalibrationParams(**config_doc["params"]),
        crunchbase_extra_fraction=config_doc["crunchbase_extra_fraction"],
        p_crunchbase_url_on_angellist=config_doc[
            "p_crunchbase_url_on_angellist"],
        p_currently_raising=config_doc["p_currently_raising"])
    world = World(config=config, day=document["day"])

    for doc in document["companies"]:
        company = _company_from(doc)
        world.companies[company.company_id] = company
    company_rows, user_rows = [], []
    for doc in document["users"]:
        # the follow lists become row ``user_id`` of the CSR graph
        if doc["user_id"] != len(world.users):
            raise ValueError("users must be stored in id order 0 .. n - 1")
        company_rows.append(doc.pop("follows_companies"))
        user_rows.append(doc.pop("follows_users"))
        world.users[doc["user_id"]] = User(**doc)
    world.set_follows(FollowGraph(
        companies=CSR.from_rows(company_rows, len(world.companies)),
        users=CSR.from_rows(user_rows, len(world.users))))
    world.investments = [
        Investment(investor_id=d["investor_id"], company_id=d["company_id"],
                   day=d["day"])
        for d in document["investments"]]
    for doc in document["facebook_pages"]:
        page = _page_from(doc)
        world.facebook_pages[page.page_id] = page
    for doc in document["twitter_profiles"]:
        profile = _profile_from(doc)
        world.twitter_profiles[profile.profile_id] = profile
    world.planted_communities = [
        PlantedCommunity(community_id=d["community_id"],
                         member_ids=d["member_ids"],
                         pool_company_ids=d["pool_company_ids"],
                         herd_strength=d["herd_strength"])
        for d in document["planted_communities"]]
    return world


# ------------------------------------------------------------------ helpers

def _company_doc(company: Company) -> Dict:
    doc = {k: getattr(company, k) for k in (
        "company_id", "name", "slug", "market", "location", "quality",
        "engagement_latent", "created_day", "currently_raising",
        "raised_funding", "has_video", "follower_count",
        "facebook_page_id", "twitter_profile_id", "crunchbase_id",
        "links_crunchbase")}
    doc["rounds"] = [r.to_json() for r in company.rounds]
    return doc


def _company_from(doc: Dict) -> Company:
    rounds = [FundingRound(round_id=r["round_id"],
                           company_id=r["company_id"],
                           round_type=r["round_type"],
                           amount_usd=r["amount_usd"],
                           announced_day=r["announced_day"],
                           investor_ids=r["investor_ids"])
              for r in doc.pop("rounds")]
    return Company(rounds=rounds, **doc)


def _user_doc(user: User) -> Dict:
    return {k: getattr(user, k) for k in (
        "user_id", "name", "roles", "follows_companies", "follows_users",
        "investments", "community_ids", "primary_community_id",
        "syndicate_disclosed")}


def _page_doc(page: FacebookPage) -> Dict:
    return {k: getattr(page, k) for k in (
        "page_id", "company_id", "name", "likes", "location",
        "post_count", "recent_posts")}


def _page_from(doc: Dict) -> FacebookPage:
    return FacebookPage(**doc)


def _profile_doc(profile: TwitterProfile) -> Dict:
    return {k: getattr(profile, k) for k in (
        "profile_id", "company_id", "screen_name", "created_day",
        "followers_count", "friends_count", "listed_count",
        "statuses_count", "latest_status", "latest_status_day")}


def _profile_from(doc: Dict) -> TwitterProfile:
    return TwitterProfile(**doc)
