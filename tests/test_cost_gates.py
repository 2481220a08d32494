"""Counted cost gates: what the hot paths do per unit of work.

No wall clock anywhere — every assertion is a count that repeats
exactly, taken on a world small enough for tier-1. A change that makes
``investor_activity`` hold follow edges as dicts again, routes a request
past every template, or builds a JSON encoder per record fails here
before the repo benchmark (``benchmarks/e2e``) has to notice the time.
"""

import json.encoder

import pytest

from repro.core.platform import ExploratoryPlatform, PlatformConfig
from repro.dfs import jsonlines
from repro.dfs.jsonlines import encode_record, iter_json_dataset
from repro.engine.metrics import STAGE_SHUFFLE, STAGE_TASK
from repro.net.http import Route
from repro.sources.angellist import AngelListServer

FOLLOW_EDGES = "/crawl/angellist/follow_edges"


# ------------------------------------------------------- investor_activity
@pytest.fixture(scope="module")
def investor_activity_run(tiny_world):
    """One ``investor_activity`` run on a crawled platform whose
    partition cache holds next to nothing — whatever a job persists
    spills at once, so a spill is countable — with the cache's counters
    and spill directory read before and after it."""
    platform = ExploratoryPlatform(tiny_world,
                                   PlatformConfig(cache_budget=4096))
    platform.run_full_crawl()
    platform.investor_graph()     # its scans are not this module's subject
    cache = platform.sc.cache_manager
    before = (dict(cache.stats()), platform.dfs.listdir("/engine/cache"))
    jobs_before = len(platform.sc.metrics_trace.jobs())
    platform.run_plugin("investor_activity")
    after = (dict(cache.stats()), platform.dfs.listdir("/engine/cache"))
    jobs = platform.sc.metrics_trace.jobs()[jobs_before:]
    yield platform, jobs, before, after
    platform.close()


def _passing_edges(platform):
    investors = {int(u["id"]) for u in iter_json_dataset(
        platform.dfs, "/crawl/angellist/users")
        if "investor" in u.get("roles", [])}
    return sum(1 for e in iter_json_dataset(platform.dfs, FOLLOW_EDGES)
               if e["dst_type"] == "startup"
               and int(e["src_user"]) in investors)


def test_investor_activity_streams_follow_edges_through_the_filter(
        investor_activity_run):
    platform, (users_job, edges_job), _before, _after = investor_activity_run
    stages = [(s.name, s.kind) for s in edges_job.stages]
    # the scan and the filter run inside the read; the projection is
    # the first thing that exists as a partition
    assert stages == [("map", STAGE_TASK), ("reduceByKey", STAGE_SHUFFLE)]
    assert (edges_job.pushed_filters, edges_job.pushed_projections) == (1, 1)
    passing = _passing_edges(platform)
    total = sum(1 for _ in iter_json_dataset(platform.dfs, FOLLOW_EDGES))
    assert 0 < passing < total
    assert edges_job.stages[0].records_out == passing
    assert edges_job.scan_bytes_skipped > 0
    # same for the users job: two fused ops, one stage
    assert [s.name for s in users_job.stages] == ["map"]


def test_investor_activity_spills_nothing(investor_activity_run):
    _platform, _jobs, (before, spilled_before), (after, spilled_after) = \
        investor_activity_run
    assert (after["spills"], after["evictions"], after["entries"]) == \
        (before["spills"], before["evictions"], before["entries"])
    assert spilled_after == spilled_before
    # the budget is tight enough that a persisted dataset does spill
    assert before["spills"] > 0


# ------------------------------------------------------------- SimServer
def test_handle_tries_only_templates_of_the_requests_shape(tiny_world,
                                                           monkeypatch):
    server = AngelListServer(tiny_world)
    token = server.issue_token("gate")
    headers = {"Authorization": f"Bearer {token}"}
    tried = []
    match_segments = Route.match_segments

    def counting(route, parts):
        tried.append(route.template)
        return match_segments(route, parts)
    monkeypatch.setattr(Route, "match_segments", counting)
    monkeypatch.setattr(Route, "match", None)   # handle must not need it

    uid = next(iter(tiny_world.users))
    by_length = {2: 1, 3: 2, 4: 3}      # AngelList templates per length
    for path, status in (("/1/startups", 400),          # filter missing
                         (f"/1/users/{uid}", 200),
                         (f"/1/users/{uid}/investments", 200),
                         (f"/1/users/{uid}/following/", 200),
                         ("/1/nothing/here/at/all", 404),
                         ("/", 404)):
        tried.clear()
        response = server.get(path, headers=headers)
        assert response.status == status, path
        length = len(path.strip("/").split("/"))
        assert len(tried) <= by_length.get(length, 0), (path, tried)
        assert len(set(tried)) == len(tried)
        assert all(len(t.strip("/").split("/")) == length for t in tried)
    tried.clear()
    assert server.post(f"/1/users/{uid}", headers=headers).status == 404
    assert tried == []


# ------------------------------------------------------------- the codec
def test_encode_record_constructs_no_encoder(monkeypatch):
    built = []

    def refuse(*args, **kwargs):
        built.append(args)
        raise AssertionError("an encoder was built per record")
    monkeypatch.setattr(jsonlines, "_c_make_encoder", refuse)
    monkeypatch.setattr(json.encoder, "c_make_encoder", refuse)
    monkeypatch.setattr(json.encoder.JSONEncoder, "__init__", refuse)
    monkeypatch.setattr(json.encoder.JSONEncoder, "iterencode", refuse)
    lines = [encode_record({"src_user": i, "dst_type": "startup",
                            "dst_id": i * 7, "tags": ["é", None, 1.5]})
             for i in range(200)]
    assert built == []
    assert lines[3] == ('{"dst_id":21,"dst_type":"startup","src_user":3,'
                        '"tags":["\\u00e9",null,1.5]}')
