"""Tests for the ExploratoryPlatform and its plug-in registry."""

import pytest

from repro.core.platform import ExploratoryPlatform, PlatformConfig
from repro.core.plugins import PluginRegistry
from repro.util.errors import ConfigError
from repro.world.config import WorldConfig


class TestPluginRegistry:
    def test_register_and_get(self):
        registry = PluginRegistry()
        registry.register("x", lambda p: 42, "desc")
        assert registry.get("x").run(None) == 42
        assert "x" in registry

    def test_duplicate_rejected(self):
        registry = PluginRegistry()
        registry.register("x", lambda p: 1)
        with pytest.raises(ConfigError):
            registry.register("x", lambda p: 2)

    def test_replace_allowed(self):
        registry = PluginRegistry()
        registry.register("x", lambda p: 1)
        registry.register("x", lambda p: 2, replace=True)
        assert registry.get("x").run(None) == 2

    def test_unknown_plugin_lists_known(self):
        registry = PluginRegistry()
        registry.register("known", lambda p: 1)
        with pytest.raises(ConfigError, match="known"):
            registry.get("mystery")


class TestPlatform:
    def test_builtin_plugins_registered(self, crawled_platform):
        names = crawled_platform.plugins.names()
        for expected in ("engagement_table", "investor_activity",
                         "concentration", "community_study",
                         "success_prediction"):
            assert expected in names

    def test_analytics_require_crawl(self, tiny_world):
        platform = ExploratoryPlatform(tiny_world)
        with pytest.raises(ConfigError):
            platform.run_plugin("engagement_table")
        platform.close()

    def test_double_crawl_rejected(self, crawled_platform):
        with pytest.raises(ConfigError):
            crawled_platform.run_full_crawl()

    def test_graph_memoized(self, crawled_platform):
        assert crawled_platform.investor_graph() \
            is crawled_platform.investor_graph()

    def test_custom_plugin(self, crawled_platform):
        crawled_platform.plugins.register(
            "company_count",
            lambda platform: len(platform.world.companies),
            replace=True)
        assert crawled_platform.run_plugin("company_count") \
            == len(crawled_platform.world.companies)

    def test_crawl_summary_totals(self, crawled_platform):
        summary = crawled_platform.crawl_summary
        assert summary.total_requests > 0
        assert summary.angellist.startups \
            == len(crawled_platform.world.companies)

    def test_concentration_plugin(self, crawled_platform):
        report = crawled_platform.run_plugin("concentration")
        assert report.num_edges == crawled_platform.investor_graph().num_edges
        assert "bipartite graph" in report.render()


class TestPersistedDatasets:
    def test_landed_and_persisted_directories_are_pinned(self):
        """The landed tuple is what the repo benchmark digests; the
        persisted one is its subset with more than one reader."""
        assert ExploratoryPlatform.CRAWL_DATASET_DIRS == (
            "/crawl/angellist/startups",
            "/crawl/angellist/users",
            "/crawl/angellist/investments",
            "/crawl/angellist/follow_edges",
            "/crawl/crunchbase/organizations",
            "/crawl/facebook/pages",
            "/crawl/twitter/profiles",
        )
        assert ExploratoryPlatform.PERSISTED_DATASET_DIRS == (
            "/crawl/angellist/startups",
            "/crawl/crunchbase/organizations",
            "/crawl/facebook/pages",
            "/crawl/twitter/profiles",
        )

    def test_exactly_the_shared_datasets_are_persisted(self, crawled_platform):
        sc, dfs = crawled_platform.sc, crawled_platform.dfs
        for directory in ExploratoryPlatform.CRAWL_DATASET_DIRS:
            assert dfs.glob_parts(directory), directory
            assert sc.json_dataset(dfs, directory)._cache_requested == (
                directory in ExploratoryPlatform.PERSISTED_DATASET_DIRS)

    @pytest.mark.parametrize("level", ["none", "disk", "", None])
    def test_unknown_storage_level_fails_at_the_door(self, tiny_world, level):
        """It used to reach ``RDD.persist`` per dataset, whose
        ``EngineError`` the "dataset missing" handler swallowed: a typo
        silently persisted nothing."""
        with pytest.raises(ConfigError, match="persist_datasets"):
            ExploratoryPlatform(tiny_world,
                                PlatformConfig(persist_datasets=level))

    def test_dfs_storage_level_persists(self, tiny_world):
        with ExploratoryPlatform(
                tiny_world, PlatformConfig(persist_datasets="dfs")) as platform:
            platform.run_full_crawl()
            for directory in ExploratoryPlatform.PERSISTED_DATASET_DIRS:
                rdd = platform.sc.json_dataset(platform.dfs, directory)
                assert (rdd._cache_requested, rdd._storage_level) == \
                    (True, "dfs")

    def test_dataset_the_crawl_did_not_land_is_skipped(self, tiny_world):
        with ExploratoryPlatform(tiny_world) as platform:
            platform._persist_crawl_datasets()   # nothing has landed yet
            assert platform.sc._datasets == {}
