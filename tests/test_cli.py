"""Tests for the command-line interface (all at micro scale)."""

import pytest

from repro.cli import build_parser, main

SCALE = ["--scale", "0.003", "--seed", "5"]


class TestParser:
    def test_requires_command(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_unknown_command(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["dance"])

    def test_analyze_choices(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["analyze", "astrology"])


class TestCommands:
    def test_crawl(self, capsys):
        assert main(["crawl", *SCALE]) == 0
        out = capsys.readouterr().out
        assert "BFS rounds" in out
        assert "CrunchBase" in out

    def test_crawl_save_and_reload(self, tmp_path, capsys):
        path = str(tmp_path / "world.json.gz")
        assert main(["crawl", *SCALE, "--save", path]) == 0
        assert main(["analyze", "concentration", "--world", path]) == 0
        out = capsys.readouterr().out
        assert "bipartite graph" in out

    def test_analyze_engagement(self, capsys):
        assert main(["analyze", "engagement", *SCALE]) == 0
        assert "No social media presence" in capsys.readouterr().out

    def test_analyze_investors(self, capsys):
        assert main(["analyze", "investors", *SCALE]) == 0
        assert "median=1" in capsys.readouterr().out

    def test_analyze_communities(self, capsys):
        assert main(["analyze", "communities", *SCALE,
                     "--pairs", "2000"]) == 0
        assert "communities" in capsys.readouterr().out

    def test_analyze_prediction(self, capsys):
        assert main(["analyze", "prediction", *SCALE]) == 0
        assert "AUC" in capsys.readouterr().out

    def test_theory(self, capsys):
        assert main(["theory", *SCALE, "raised ~ has_facebook"]) == 0
        assert "odds ratio" in capsys.readouterr().out

    def test_snapshot(self, capsys):
        assert main(["snapshot", *SCALE, "--days", "8",
                     "--hazard", "0.05"]) == 0
        assert "lift" in capsys.readouterr().out

    def test_figures(self, tmp_path, capsys):
        out = str(tmp_path / "artifacts")
        assert main(["figures", *SCALE, "--out", out,
                     "--pairs", "2000"]) == 0
        import os
        written = set(os.listdir(out))
        assert {"fig6_engagement_table.txt", "fig3_investor_cdf.txt",
                "fig4_shared_size_cdf.txt", "fig5_community_pdf.txt",
                "fig7a_strong.svg", "fig7b_weak.svg",
                "sec51_concentration.txt", "summary.json"} <= written

    def test_select_communities(self, capsys):
        assert main(["select-communities", *SCALE,
                     "--candidates", "2", "4"]) == 0
        assert "best" in capsys.readouterr().out


class TestResilienceFlags:
    def test_fault_profile_builds_a_schedule(self):
        from repro.cli import _platform_config
        args = build_parser().parse_args(
            ["crawl", "--fault-profile", "chaos", "--chaos-seed", "9",
             "--task-retries", "3"])
        config = _platform_config(args)
        assert config.faults.seed == 9
        assert len(config.faults.kinds) == 6
        assert config.task_retries == 3
        # the chaos profile hardens the clients to match
        assert config.client_max_retries == 10
        assert config.client_backoff_jitter == 0.25

    def test_default_profile_is_fault_free(self):
        from repro.cli import _platform_config
        config = _platform_config(build_parser().parse_args(["crawl"]))
        assert config.faults.specs == []
        assert config.task_retries == 1

    def test_crawl_under_flaky_profile(self, capsys):
        assert main(["crawl", *SCALE, "--fault-profile", "flaky",
                     "--chaos-seed", "3"]) == 0
        assert "BFS rounds" in capsys.readouterr().out


class TestServeCommands:
    def test_serve_answers_sample_queries(self, capsys):
        assert main(["serve", *SCALE, "--queries", "6"]) == 0
        out = capsys.readouterr().out
        assert "fresh" in out
        assert "health=" in out

    def test_serve_bench_reports_and_writes_json(self, tmp_path, capsys):
        import json
        path = str(tmp_path / "serving.json")
        assert main(["serve-bench", *SCALE, "--qps-limit", "20",
                     "--queue-depth", "8", "--duration", "2",
                     "--serve-chaos", "1.0", "--brownout-at", "10",
                     "--slow-datanode", "0.05", "--json", path]) == 0
        out = capsys.readouterr().out
        assert "10x the 20 qps limit" in out
        assert "shed" in out
        with open(path, encoding="utf-8") as handle:
            report = json.load(handle)
        assert report["offered"] > report["admitted"]
        assert report["max_queue_len"] <= 8
        assert report["metrics"]["totals"]["answered"] > 0

    def test_serve_bench_custom_deadline_and_ttl_flags(self, capsys):
        assert main(["serve-bench", *SCALE, "--qps-limit", "10",
                     "--overload", "3", "--duration", "2",
                     "--default-deadline", "0.5",
                     "--stale-ttl", "60"]) == 0
        assert "goodput" in capsys.readouterr().out


class TestShardedServeCommands:
    def test_serve_bench_sharded_multi_tenant(self, tmp_path, capsys):
        import json
        path = str(tmp_path / "sharded.json")
        assert main(["serve-bench", *SCALE, "--qps-limit", "20",
                     "--duration", "2", "--shards", "4",
                     "--shard-replicas", "2", "--tenants", "3",
                     "--fair-share", "--tenant-weights", "3,1,1",
                     "--autoscale", "--serve-shard-chaos", "1.0",
                     "--json", path]) == 0
        out = capsys.readouterr().out
        assert "shard" in out
        assert "tenant t0" in out
        with open(path, encoding="utf-8") as handle:
            report = json.load(handle)
        assert set(report["per_tenant"]) <= {"t0", "t1", "t2"}
        assert report["metrics"]["shards"]
        assert report["metrics"]["totals"]["answered"] > 0

    def test_serve_sharded_queries(self, capsys):
        assert main(["serve", *SCALE, "--queries", "6",
                     "--shards", "2"]) == 0
        assert "fresh" in capsys.readouterr().out

    def test_fair_share_requires_multiple_tenants(self):
        # --fair-share with a single tenant falls back to the plain
        # admission controller rather than rejecting "default" traffic
        assert main(["serve", *SCALE, "--queries", "3", "--shards", "2",
                     "--fair-share", "--tenants", "1"]) == 0


class TestBadInputFailsBeforeTheCrawl:
    """Malformed flags exit 2 with one ``repro: error:`` line, and no
    world is generated (let alone crawled) first."""

    @pytest.fixture(autouse=True)
    def no_world(self, monkeypatch):
        def refuse(config):
            raise AssertionError("a world was generated before the "
                                 "flags were checked")
        monkeypatch.setattr("repro.cli.generate_world", refuse)

    def assert_config_error(self, argv, message, capsys):
        assert main(argv) == 2
        err = capsys.readouterr().err
        assert err.startswith("repro: error: ")
        assert message in err
        assert "Traceback" not in err

    def test_non_numeric_tenant_weight(self, capsys):
        self.assert_config_error(
            ["serve", "--shards", "2", "--fair-share", "--tenants", "2",
             "--tenant-weights", "1,x"], "--tenant-weights", capsys)

    def test_tenant_weight_count_mismatch(self, capsys):
        self.assert_config_error(
            ["serve-bench", "--shards", "2", "--fair-share", "--tenants",
             "3", "--tenant-weights", "1,2"], "expected 3 weights", capsys)

    def test_zero_qps_limit(self, capsys):
        self.assert_config_error(["serve", "--qps-limit", "0"],
                                 "qps_limit must be > 0", capsys)

    def test_zero_shard_replicas(self, capsys):
        self.assert_config_error(
            ["serve-bench", "--shards", "2", "--shard-replicas", "0"],
            "replicas must be >= 1", capsys)

    def test_malformed_subscription(self, capsys):
        self.assert_config_error(
            ["ingest", "--subscribe", "company_funding:abc"],
            "--subscribe takes KIND:KEY[:TENANT]", capsys)

    def test_malformed_kill_point(self, capsys):
        self.assert_config_error(
            ["ingest", "--kill-at", "day-0002:snapshot@nowhere"],
            "--kill-at takes UNIT@STATE", capsys)
