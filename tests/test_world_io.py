"""Tests for world save/load round-tripping."""

import gzip
import hashlib
import json

import numpy as np
import pytest

from repro.world.config import WorldConfig
from repro.world.generator import generate_world
from repro.world.io import load_world, save_world

#: a three-user world as written by ``save_world`` when each ``User``
#: held its follows as lists: format version 1, the layout still written
_LISTS_ERA_DOCUMENT = (
    '{"format_version":1,"config":{"scale":0.003,"seed":3,'
    '"crunchbase_extra_fraction":0.003,'
    '"p_crunchbase_url_on_angellist":0.6,'
    '"p_currently_raising":0.0054,"params":{"p_facebook":0.0507,'
    '"p_twitter_given_fb":0.862,"p_twitter_given_no_fb":0.0538,'
    '"p_video_given_social":0.35,"p_video_given_no_social":0.0148,'
    '"success_base":-5.5575,"success_fb":2.3387,'
    '"success_tw":2.5042,"success_both_penalty":-1.6313,'
    '"success_video":0.7762,"success_engagement":0.6694,'
    '"likes_log_median":6.48,"likes_log_sigma":1.7,'
    '"tweets_log_median":5.84,"tweets_log_sigma":1.6,'
    '"tw_followers_log_median":5.83,"tw_followers_log_sigma":1.8,'
    '"engagement_metric_coupling":0.8953,"investor_fraction":0.043,'
    '"founder_fraction":0.183,"employee_fraction":0.442,'
    '"active_investor_fraction":0.992,'
    '"investments_zipf_alpha":1.98,"global_popularity_alpha":0.55,'
    '"investments_max":1000,"mean_follows":247.0,'
    '"follows_zipf_alpha":0.9,"num_communities":96,'
    '"community_size_mean":190.2,"community_size_sigma":0.9,'
    '"herd_strength_strong":0.95,"herd_strength_weak":0.04,'
    '"strong_community_fraction":0.25,"membership_size_bias":0.3,'
    '"p_syndicate_disclosed":0.6,"community_pool_factor":1.6,'
    '"pool_weight_alpha":0.55,"p_invest_in_community_pool":1.0,'
    '"invested_company_fraction":0.0806,'
    '"investors_per_company_mean":2.64}},"day":0,'
    '"companies":[{"company_id":0,"name":"c0","slug":"c0",'
    '"market":"m","location":"l","quality":0.5,'
    '"engagement_latent":0.0,"created_day":0,'
    '"currently_raising":true,"raised_funding":false,'
    '"has_video":false,"follower_count":0,"facebook_page_id":null,'
    '"twitter_profile_id":null,"crunchbase_id":null,'
    '"links_crunchbase":false,"rounds":[]},{"company_id":1,'
    '"name":"c1","slug":"c1","market":"m","location":"l",'
    '"quality":0.5,"engagement_latent":0.0,"created_day":0,'
    '"currently_raising":false,"raised_funding":false,'
    '"has_video":false,"follower_count":0,"facebook_page_id":null,'
    '"twitter_profile_id":null,"crunchbase_id":null,'
    '"links_crunchbase":false,"rounds":[]},{"company_id":2,'
    '"name":"c2","slug":"c2","market":"m","location":"l",'
    '"quality":0.5,"engagement_latent":0.0,"created_day":0,'
    '"currently_raising":false,"raised_funding":false,'
    '"has_video":false,"follower_count":0,"facebook_page_id":null,'
    '"twitter_profile_id":null,"crunchbase_id":null,'
    '"links_crunchbase":false,"rounds":[]}],"users":[{"user_id":0,'
    '"name":"u0","roles":["investor"],"follows_companies":[0,2],'
    '"follows_users":[1,2],"investments":[2],"community_ids":[],'
    '"primary_community_id":null,"syndicate_disclosed":false},'
    '{"user_id":1,"name":"u1","roles":["founder"],'
    '"follows_companies":[1],"follows_users":[],"investments":[],'
    '"community_ids":[],"primary_community_id":null,'
    '"syndicate_disclosed":false},{"user_id":2,"name":"u2",'
    '"roles":["observer"],"follows_companies":[0,1,2],'
    '"follows_users":[0],"investments":[],"community_ids":[],'
    '"primary_community_id":null,"syndicate_disclosed":false}],'
    '"investments":[{"investor_id":0,"company_id":2,"day":1}],'
    '"facebook_pages":[],"twitter_profiles":[],'
    '"planted_communities":[]}'
)


@pytest.fixture(scope="module")
def roundtripped(tmp_path_factory, tiny_world):
    path = tmp_path_factory.mktemp("worlds") / "w.json.gz"
    save_world(tiny_world, str(path))
    return load_world(str(path)), path


class TestRoundtrip:
    def test_summary_identical(self, roundtripped, tiny_world):
        loaded, _path = roundtripped
        assert loaded.summary() == tiny_world.summary()

    def test_config_preserved(self, roundtripped, tiny_world):
        loaded, _path = roundtripped
        assert loaded.config.scale == tiny_world.config.scale
        assert loaded.config.seed == tiny_world.config.seed
        assert vars(loaded.config.params) == vars(tiny_world.config.params)

    def test_company_fields(self, roundtripped, tiny_world):
        loaded, _path = roundtripped
        for cid in list(tiny_world.companies)[:50]:
            original = tiny_world.companies[cid]
            copy = loaded.companies[cid]
            assert copy == original

    def test_users_and_edges(self, roundtripped, tiny_world):
        loaded, _path = roundtripped
        uid = next(u.user_id for u in tiny_world.users.values()
                   if u.investments)
        assert loaded.users[uid] == tiny_world.users[uid]
        assert len(loaded.investments) == len(tiny_world.investments)

    def test_planted_communities(self, roundtripped, tiny_world):
        loaded, _path = roundtripped
        assert len(loaded.planted_communities) \
            == len(tiny_world.planted_communities)
        assert loaded.planted_communities[0].member_ids \
            == tiny_world.planted_communities[0].member_ids

    def test_loaded_world_serves_apis(self, roundtripped):
        from repro.sources.hub import SourceHub
        loaded, _path = roundtripped
        hub = SourceHub.from_world(loaded)
        token = hub.angellist.issue_token()
        response = hub.angellist.get("/1/startups",
                                     {"filter": "raising"},
                                     {"Authorization": f"Bearer {token}"})
        assert response.ok

    def test_bad_version_rejected(self, tmp_path, tiny_world):
        import gzip
        import json
        path = tmp_path / "bad.json.gz"
        with gzip.open(path, "wt") as handle:
            json.dump({"format_version": 99}, handle)
        with pytest.raises(ValueError):
            load_world(str(path))


class TestFollowGraph:
    """Follows are not ``User`` fields, so the dataclass comparison above
    does not see them: the CSR arrays are compared here."""

    def test_forward_and_inverse_arrays_survive(self, roundtripped,
                                                tiny_world):
        loaded, _path = roundtripped
        for name in ("companies", "users"):
            original = getattr(tiny_world.follows, name)
            copy = getattr(loaded.follows, name)
            assert copy.num_edges > 0
            for a, b in ((copy, original),
                         (copy.inverse(), original.inverse())):
                assert a.n_cols == b.n_cols
                assert np.array_equal(a.indptr, b.indptr)
                assert np.array_equal(a.indices, b.indices)
        uid = max(tiny_world.users,
                  key=lambda u: tiny_world.follows.companies.degree[u])
        assert loaded.users[uid].follows_companies \
            == tiny_world.users[uid].follows_companies

    def test_the_document_bytes_are_those_of_the_lists_era(self,
                                                           roundtripped):
        # the sha256 of this world's document as written before the
        # follows moved to CSR: the file format did not change
        _loaded, path = roundtripped
        with gzip.open(path, "rb") as handle:
            digest = hashlib.sha256(handle.read()).hexdigest()
        assert digest == ("75f2d160dca43d8893ad9970d3c3dfd4"
                          "f325ef928c86405c1782fa620f26c2a3")

    def test_a_lists_era_document_loads(self, tmp_path):
        path = tmp_path / "lists.json.gz"
        with gzip.open(path, "wt", encoding="utf-8") as handle:
            handle.write(_LISTS_ERA_DOCUMENT)
        world = load_world(str(path))
        assert [world.users[u].follows_companies for u in range(3)] \
            == [[0, 2], [1], [0, 1, 2]]
        assert [world.users[u].follows_users for u in range(3)] \
            == [[1, 2], [], [0]]
        assert world.company_followers() == {0: [0, 2], 1: [1, 2],
                                             2: [0, 2]}
        assert world.users[0].angellist_json()["follows_user_count"] == 2
        resaved = tmp_path / "again.json.gz"
        save_world(world, str(resaved))
        with gzip.open(resaved, "rt", encoding="utf-8") as handle:
            assert json.load(handle) == json.loads(_LISTS_ERA_DOCUMENT)

    def test_users_out_of_id_order_are_rejected(self, tmp_path):
        document = json.loads(_LISTS_ERA_DOCUMENT)
        document["users"].reverse()
        path = tmp_path / "shuffled.json.gz"
        with gzip.open(path, "wt", encoding="utf-8") as handle:
            json.dump(document, handle)
        with pytest.raises(ValueError):
            load_world(str(path))
