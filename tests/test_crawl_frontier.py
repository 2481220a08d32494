"""Tests for the BFS frontier crawler against the tiny world."""

import hashlib

import pytest

from repro.crawl.client import ApiClient
from repro.crawl.frontier import BfsCrawler, RoundStats
from repro.crawl.tokens import TokenPool
from repro.dfs.filesystem import MiniDfs
from repro.dfs.jsonlines import read_json_dataset
from repro.net.faults import FaultPlan, FaultSchedule
from repro.net.latency import LatencyModel
from repro.sources.angellist import AngelListServer
from repro.util.clock import SimClock


@pytest.fixture(scope="module")
def crawl(tiny_world):
    clock = SimClock()
    server = AngelListServer(tiny_world, clock=clock)
    tokens = [server.issue_token(f"t{i}") for i in range(6)]
    client = ApiClient(server, clock, token_pool=TokenPool(tokens, clock))
    dfs = MiniDfs()
    result = BfsCrawler(client, dfs).run()
    return result, dfs, tiny_world


class TestCoverage:
    def test_all_startups_found(self, crawl):
        result, _dfs, world = crawl
        assert result.startups == len(world.companies)

    def test_all_users_found(self, crawl):
        result, _dfs, world = crawl
        assert result.users == len(world.users)

    def test_no_duplicate_startups(self, crawl):
        _result, dfs, _world = crawl
        records = read_json_dataset(dfs, "/crawl/angellist/startups")
        ids = [r["id"] for r in records]
        assert len(ids) == len(set(ids))

    def test_investment_edges_match_world(self, crawl):
        result, dfs, world = crawl
        expected = {(inv.investor_id, inv.company_id)
                    for inv in world.investments}
        records = read_json_dataset(dfs, "/crawl/angellist/investments")
        crawled = {(r["investor_id"], r["company_id"]) for r in records}
        assert crawled == expected

    def test_follow_edges_counted(self, crawl):
        result, _dfs, world = crawl
        expected = sum(len(u.follows_companies) + len(u.follows_users)
                       for u in world.users.values())
        assert result.follow_edges == expected


class TestRounds:
    def test_round_zero_is_raising_startups(self, crawl):
        result, _dfs, world = crawl
        raising = sum(1 for c in world.companies.values()
                      if c.currently_raising)
        assert result.rounds[0].new_startups == raising

    def test_discovery_eventually_stops(self, crawl):
        result, _dfs, _world = crawl
        assert result.rounds[-1].total == 0 or len(result.rounds) >= 2

    def test_multiple_rounds_needed(self, crawl):
        result, _dfs, _world = crawl
        assert len(result.rounds) >= 3  # BFS, not a directory listing


class TestBudgets:
    def test_max_rounds_cuts_crawl(self, tiny_world):
        clock = SimClock()
        server = AngelListServer(tiny_world, clock=clock)
        client = ApiClient(server, clock, token=server.issue_token("t"))
        limited = BfsCrawler(client, MiniDfs(), max_rounds=1).run()
        assert limited.startups < len(tiny_world.companies)

    def test_max_entities_cuts_crawl(self, tiny_world):
        clock = SimClock()
        server = AngelListServer(tiny_world, clock=clock)
        client = ApiClient(server, clock, token=server.issue_token("t"))
        limited = BfsCrawler(client, MiniDfs(), max_entities=200).run()
        assert limited.startups + limited.users <= 500  # soft cap + frontier


class TestRateLimitInteraction:
    def test_crawl_spans_rate_limit_windows(self, crawl):
        result, _dfs, _world = crawl
        # 6 tokens × 1000/hr cannot absorb the whole crawl in one window,
        # so simulated time must have advanced past at least one reset.
        if result.client_stats.requests > 6000:
            assert result.sim_duration >= 3600.0

    def test_stats_consistent(self, crawl):
        result, _dfs, _world = crawl
        stats = result.client_stats
        assert stats.successes <= stats.requests
        assert stats.requests == (stats.successes + stats.throttled
                                  + stats.retries + stats.not_found
                                  + stats.failures + stats.auth_refreshes)


# ------------------------------------------------ page-at-a-time differential
class _ItemAtATimeCrawler(BfsCrawler):
    """The reference round: one item at a time off ``ApiClient.paged``,
    every counter bumped per item — what ``_run_round`` did before it
    worked a page at a time."""

    def _run_round(self, state, writers):
        client = self.client
        stats = RoundStats(round_index=state.round_index)
        next_users, next_startups = [], []
        for sid in state.frontier_startups:
            if not self._budget_left(state):
                break
            writers["startups"].write(client.get(f"/1/startups/{sid}"))
            state.startup_records += 1
            for follower in client.paged(f"/1/startups/{sid}/followers",
                                         items_key="users"):
                uid = int(follower["id"])
                if uid not in state.seen_users:
                    state.seen_users.add(uid)
                    next_users.append(uid)
                    stats.new_users += 1
        for uid in state.frontier_users:
            if not self._budget_left(state):
                break
            writers["users"].write(client.get(f"/1/users/{uid}"))
            state.user_records += 1
            for kind, seen, queue, counter in (
                    ("startup", state.seen_startups, next_startups,
                     "new_startups"),
                    ("user", state.seen_users, next_users, "new_users")):
                for item in client.paged(f"/1/users/{uid}/following",
                                         {"type": kind}):
                    dst = int(item["id"])
                    writers["follow_edges"].write(
                        {"src_user": uid, "dst_type": kind, "dst_id": dst})
                    state.follow_edges += 1
                    if dst not in seen:
                        seen.add(dst)
                        queue.append(dst)
                        setattr(stats, counter, getattr(stats, counter) + 1)
            for item in client.paged(f"/1/users/{uid}/investments",
                                     items_key="investments"):
                cid = int(item["startup_id"])
                writers["investments"].write(
                    {"investor_id": uid, "company_id": cid})
                state.investment_edges += 1
                if cid not in state.seen_startups:
                    state.seen_startups.add(cid)
                    next_startups.append(cid)
                    stats.new_startups += 1
        state.frontier_startups = next_startups
        state.frontier_users = next_users
        state.rounds.append(stats)


#: 7 records a part against 50 items a page: parts flush mid-page
_RECORDS_PER_PART = 7

#: name -> (faults, latency, then what the parent of the page-at-a-time
#: change measured: simulated seconds, requests the server saw, retries)
_FAULT_CASES = {
    "none": (FaultPlan.none, None, 7200.0, 17879, 0),
    "flaky": (lambda: FaultPlan.flaky(0.02, seed=5), None,
              7266.321375000002, 18446, 366),
    "chaos": (lambda: FaultSchedule.chaos(seed=13),
              LatencyModel.typical(seed=3), 10846.082322500053, 19010, 978),
}
#: sha256 over (path, bytes) of every landed part, same for all three:
#: a fault changes what the crawl costs, never what it lands
_LANDED_DIGEST = \
    "5dfa7aca3b327afb91150770fe9dd09fc84d4f5e018e8fb36d6466ac0493dd3a"


def _faulty_crawl(world, crawler_cls, faults, latency):
    clock = SimClock()
    server = AngelListServer(world, clock=clock, faults=faults(),
                             latency=latency)
    tokens = [server.issue_token(f"t{i}") for i in range(6)]
    client = ApiClient(server, clock, token_pool=TokenPool(tokens, clock),
                       max_retries=8, backoff_jitter=0.25, jitter_seed=9)
    dfs = MiniDfs()
    result = crawler_cls(client, dfs,
                         records_per_part=_RECORDS_PER_PART).run()
    parts = {path: dfs.read(path)
             for name in ("startups", "users", "follow_edges", "investments")
             for path in dfs.glob_parts(f"/crawl/angellist/{name}")}
    return result, parts, server.request_count


@pytest.mark.parametrize("case", sorted(_FAULT_CASES))
def test_page_at_a_time_round_lands_what_item_at_a_time_did(tiny_world,
                                                            case):
    faults, latency, sim_s, handled, retries = _FAULT_CASES[case]
    got, got_parts, got_handled = _faulty_crawl(
        tiny_world, BfsCrawler, faults, latency)
    ref, ref_parts, ref_handled = _faulty_crawl(
        tiny_world, _ItemAtATimeCrawler, faults, latency)
    assert list(got_parts) == list(ref_parts)
    assert got_parts == ref_parts
    assert any(data.count(b"\n") < _RECORDS_PER_PART
               for data in got_parts.values())      # tail parts exist
    assert got.rounds == ref.rounds
    assert got.client_stats == ref.client_stats
    assert got.sim_duration == ref.sim_duration
    assert (got.startups, got.users, got.follow_edges,
            got.investment_edges) == (ref.startups, ref.users,
                                      ref.follow_edges, ref.investment_edges)
    # ... and both are what the commit before this change produced
    sha = hashlib.sha256()
    for path, data in got_parts.items():
        sha.update(path.encode("utf-8"))
        sha.update(data)
    assert sha.hexdigest() == _LANDED_DIGEST
    assert (got.sim_duration, got_handled, got.client_stats.retries) == \
        (sim_s, handled, retries)
    assert got_handled == ref_handled == got.client_stats.requests
