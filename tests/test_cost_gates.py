"""Counted cost gates: what the hot paths do per unit of work.

No wall clock anywhere — every assertion is a count that repeats
exactly, taken on a world small enough for tier-1. A change that makes
``investor_activity`` hold follow edges as dicts again, routes a request
past every template, or builds a JSON encoder per record fails here
before the repo benchmark (``benchmarks/e2e``) has to notice the time.
The same for an ingest day: a scalar draw per dormant company, a scan of
the world per closed round, of the file table per ``listdir`` or of the
frontier per claimed slice. And for the §5 community study: a CoDA sweep
whose Python-level calls grow with the graph, or a Figure 4 pair sample
drawn one ``randrange`` at a time. And for the durable kernel: an
``apply`` whose log write grows with the units before it, or a handle
that reads back a log record or a lease it wrote itself. And for the
serve tier's build: a follow index that holds a Python object per edge.
And for the world: follow graphs held as Python lists again, or built
with a lookup and a de-duplication per user. And for the engine's
exchange: a hash per row instead of per distinct key and chunk, or a
whole exchange pickled to size it. And for landing an ingest day:
data-file reads or log traffic that grow with the chain behind it. And a
ratchet on the engine's knobs: a new config field or context parameter
is counted here.
"""

import argparse
import dataclasses
import inspect
import json.encoder
import operator
import pickle
import posixpath
import random
import sys
import tracemalloc
import zlib

import numpy as np
import pytest

from repro.cli import build_parser
from repro.community.coda import CoDA
from repro.core.platform import ExploratoryPlatform, PlatformConfig
from repro.dfs import jsonlines
from repro.dfs.filesystem import MiniDfs
from repro.dfs.jsonlines import encode_record, iter_json_dataset
from repro.dfs.upsert import UpsertDataset
from repro.engine.context import SparkLiteContext
from repro.engine.metrics import STAGE_SHUFFLE, STAGE_TASK
from repro.engine.planner import DEFAULT_SAMPLE_ROWS
from repro.graph.bipartite import BipartiteGraph
from repro.metrics.shared import sampled_shared_sizes
from repro.net.http import Route
from repro.serve.alerting import Notification
from repro.serve.dataset import ServeDataset
from repro.serve.outbox import DeliveryOutbox, Subscriber
from repro.sources.angellist import AngelListServer
from repro.util.clock import SimClock
from repro.util.rng import RngStream
from repro.world.config import WorldConfig
from repro.world.dynamics import WorldDynamics
from repro.world.generator import _generate_follows, generate_world

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


# ------------------------------------------------------- the ingest day
class _CountedDraws:
    """Stands in for ``RngStream.np``: counts draws by shape."""

    def __init__(self, generator):
        self._generator = generator
        self.scalar = self.vector = self.vector_doubles = 0

    def random(self, size=None):
        if size is None:
            self.scalar += 1
        else:
            self.vector += 1
            self.vector_doubles += size
        return self._generator.random(size)

    def exponential(self, scale):
        self.scalar += 1
        return self._generator.exponential(scale)

    def standard_normal(self):
        self.scalar += 1
        return self._generator.standard_normal()


class _CountedDict(dict):
    """Counts every way of walking the whole dict; look-ups pass."""

    walks = 0

    def __iter__(self):
        self.walks += 1
        return super().__iter__()

    def keys(self):
        self.walks += 1
        return super().keys()

    def values(self):
        self.walks += 1
        return super().values()

    def items(self):
        self.walks += 1
        return super().items()


class _CountedList(list):
    """Counts iteration; indexing, slicing and bisection pass."""

    walks = 0

    def __iter__(self):
        self.walks += 1
        return super().__iter__()


def test_a_day_draws_per_raising_company_not_per_company(fresh_world):
    dynamics = WorldDynamics(fresh_world, seed=1, base_close_hazard=0.3)
    draws = dynamics._rng.np = _CountedDraws(dynamics._rng.np)
    for _ in range(5):
        companies = list(fresh_world.companies.values())
        raising = sum(c.currently_raising for c in companies)
        dormant = sum(not c.currently_raising and not c.raised_funding
                      for c in companies)
        assert raising > 0 and dormant > 20 * raising
        before = (draws.scalar, draws.vector, draws.vector_doubles)
        log = dynamics.step()
        scalar, vector, doubles = (
            after - was for after, was in zip(
                (draws.scalar, draws.vector, draws.vector_doubles), before))
        # burst?, its size, close?, the round's amount: at most four
        # scalars on a raising company's turn, none on anyone else's
        assert scalar == (raising + log.engagement_events
                          + raising + log.rounds_closed)
        # one vector per run of dormant companies: between raisers + tail
        assert vector <= raising + 1
        assert doubles == dormant


def test_closing_a_round_never_walks_the_world(fresh_world):
    dynamics = WorldDynamics(fresh_world, seed=1)
    raising = [c for c in fresh_world.companies.values()
               if c.currently_raising and c.crunchbase_id is None]
    assert raising
    fresh_world.companies = _CountedDict(fresh_world.companies)
    for company in raising:
        dynamics._close_round(company)
    assert fresh_world.companies.walks == 0
    ids = [c.crunchbase_id for c in raising]
    assert ids == list(range(ids[0], ids[0] + len(ids)))


def test_listdir_does_not_walk_the_file_table():
    dfs = MiniDfs(num_datanodes=3)
    for index in range(5000):
        dfs.create(f"/big/d{index % 50:02d}/f{index:05d}", b"")
    for name in ("a", "b", "c"):
        dfs.create(f"/big/d07x/{name}", b"abc")
    dfs._files = _CountedDict(dfs._files)
    dfs._paths = _CountedList(dfs._paths)
    assert dfs.listdir("/big/d07x") == [
        "/big/d07x/a", "/big/d07x/b", "/big/d07x/c"]
    assert dfs.disk_usage("/big/d07x") == 9
    assert dfs.glob_parts("/big/d07x") == []
    assert dfs.sweep_temps("/big/d07x") == []
    assert (dfs._files.walks, dfs._paths.walks) == (0, 0)
    assert len(dfs.listdir("/big")) == 5003


def test_an_ingest_day_claims_its_slice_from_the_frontier_head():
    world = generate_world(WorldConfig(scale=0.002, seed=7))
    platform = ExploratoryPlatform(
        world, config=PlatformConfig(engine_backend="serial"))
    try:
        scheduler = platform.ingest_pipeline()
        scheduler.run_until_day(1)
        for day in (2, 3):
            assert len(scheduler.frontier) > scheduler.frontier_batch
            frontier = scheduler.frontier = _CountedList(scheduler.frontier)
            expected = list(frontier[scheduler.frontier_batch:])
            scheduler.run_until_day(day)
            # the list was cut at its head in place — no pass over it,
            # no rebuilt copy — and then only appended to
            assert scheduler.frontier is frontier
            assert frontier.walks == 0
            assert frontier[:len(expected)] == expected
    finally:
        platform.close()


# ---------------------------------------------------- the community study
def _planted_blocks(blocks):
    """``blocks`` co-investment blocks of 10 investors × 10 companies,
    each edge kept with probability 0.6, plus a little cross-block
    noise."""
    rng = RngStream(3)
    edges = [(10 * b + u, 1000 * (b + 1) + c)
             for b in range(blocks) for u in range(10) for c in range(10)
             if rng.bernoulli(0.6)]
    edges += [(rng.randint(0, 10 * blocks - 1),
               1000 * rng.randint(1, blocks) + rng.randint(0, 9))
              for _ in range(5 * blocks)]
    return BipartiteGraph(edges)


def _python_calls(fit, graph):
    """Python-level calls (``sys.setprofile`` ``call`` events) in ``fit``."""
    calls = 0

    def count(frame, event, arg):
        nonlocal calls
        calls += event == "call"
    sys.setprofile(count)
    try:
        result = fit(graph)
    finally:
        sys.setprofile(None)
    return calls, result


def test_a_coda_sweep_makes_no_more_calls_at_four_times_the_rows():
    # numpy and scipy fill type-check caches on first use; fill them first
    CoDA(num_communities=3, max_iters=2).fit(_planted_blocks(2))
    per_sweep = []
    for blocks in (3, 12):
        graph = _planted_blocks(blocks)
        counted = []
        for sweeps in (2, 5):
            model = CoDA(num_communities=3, max_iters=sweeps, tol=0.0,
                         seed=1)
            calls, result = _python_calls(model.fit, graph)
            assert result.iterations == sweeps
            counted.append(calls)
        # set-up and extraction are the same in both fits and cancel
        per_sweep.append((counted[1] - counted[0]) / 3)
    small, large = per_sweep
    assert 0 < large <= small, per_sweep


def test_the_global_pair_sample_never_calls_randrange(monkeypatch):
    calls = []
    randrange = random.Random.randrange

    def counting(self, *args, **kwargs):
        calls.append(args)
        return randrange(self, *args, **kwargs)
    monkeypatch.setattr(random.Random, "randrange", counting)
    RngStream(0).randint(1, 6)          # the counter sees stream draws
    assert len(calls) == 1
    calls.clear()
    portfolios = {u: {u % 7, 100 + u % 11} for u in range(50)}
    for num_pairs in (0, 1, 2, 1000, 100_000):
        sizes = sampled_shared_sizes(list(range(50)), portfolios, num_pairs,
                                     RngStream(num_pairs))
        assert len(sizes) == num_pairs
    assert calls == []


# ------------------------------------------------------ the durable kernel
def _traffic(dfs, monkeypatch):
    """Every path read, and ``(path, bytes)`` of every file created."""
    reads, created = [], []
    real_read, real_create = dfs.read, dfs.create

    def read(path):
        reads.append(path)
        return real_read(path)

    def create(path, data):
        created.append((path, len(data)))
        return real_create(path, data)
    monkeypatch.setattr(dfs, "read", read)
    monkeypatch.setattr(dfs, "create", create)
    return reads, created


def _is_data(path):
    """A dataset's data part (or the temp file it is written under)."""
    return posixpath.basename(path).lstrip(".").startswith(
        ("delta-", "base-"))


def test_apply_writes_the_same_log_bytes_after_any_history(monkeypatch):
    dfs = MiniDfs(num_datanodes=3)
    ds = UpsertDataset(dfs, "/ds")
    reads, created = _traffic(dfs, monkeypatch)
    per_apply = []
    for n in range(600):
        del created[:]
        ds.apply(f"u{n:06d}", [{"id": n}])
        per_apply.append(sum(size for path, size in created
                             if not _is_data(path)))
    # beside its delta, one small log record each (the first apply also
    # writes the checkpoint that creates the dataset); only the digits
    # of the sequence number can grow
    assert all(per_apply[1] <= b <= per_apply[1] + 2
               for b in per_apply[1:]), sorted(set(per_apply))
    assert per_apply[1] < 100
    assert reads == []


def test_the_writing_handle_never_reads_its_log(monkeypatch):
    dfs = MiniDfs(num_datanodes=3)
    ds = UpsertDataset(dfs, "/ds")
    ds.apply("u0", [{"id": 0}])
    reads, _ = _traffic(dfs, monkeypatch)
    for n in range(1, 40):
        ds.apply(f"u{n}", [{"id": n}, {"id": n + 1}])
        assert not ds.apply(f"u{n}", []).applied
        assert ds.key_count() == n + 2
        assert ds.unit_records(f"u{n}") == [{"id": n}, {"id": n + 1}]
        assert ds.max_delta_seq() == n + 1
        ds.delta_files_since(n)
        ds.applied_units()
    # unit_records reads the delta asked for; nothing else is read
    assert reads == [f"/ds/delta-{n + 1:06d}.jsonl" for n in range(1, 40)]
    # a second handle catches up once, then stays level for free
    other = UpsertDataset(dfs, "/ds")
    assert other.key_count() == 41
    del reads[:]
    other.key_count()
    other.live_files()
    assert reads == []


def test_an_ingest_day_reads_no_log_record_or_lease():
    world = generate_world(WorldConfig(scale=0.002, seed=7))
    platform = ExploratoryPlatform(
        world, config=PlatformConfig(engine_backend="serial"))
    try:
        scheduler = platform.ingest_pipeline()
        scheduler.run_until_day(1)
        with pytest.MonkeyPatch.context() as patch:
            reads, _ = _traffic(scheduler.dfs, patch)
            scheduler.run_until_day(3)
        assert scheduler.stats.units_committed == 15
        # the derived pass and the key index read the day's new deltas;
        # the ledger, the leases and the dataset logs are never read back
        assert reads and all(_is_data(path) for path in reads), reads
    finally:
        platform.close()


def test_an_ingest_day_reads_at_most_twice_the_deltas_it_lands(
        monkeypatch):
    """64 fault-free days. After the first, a day reads at most two data
    files per delta it landed (the derived pass and the key index may
    each read a new delta once; the chain behind it never), and the
    bytes the datasets' logs read and write stay within 64 of day 2's:
    the digits of counts and sequence numbers, never a record per day of
    history."""
    world = generate_world(WorldConfig(scale=0.002, seed=7))
    platform = ExploratoryPlatform(
        world, config=PlatformConfig(engine_backend="serial"))
    try:
        scheduler = platform.ingest_pipeline()
        dfs = scheduler.dfs
        real_read, real_create = dfs.read, dfs.create
        day = {}

        def read(path):
            data = real_read(path)
            if "/_log/" in path:
                day["log_read"] += len(data)
            elif path.startswith("/ingest/") and posixpath.basename(
                    path).startswith(("base-", "delta-")):
                day["data_reads"] += 1
            return data

        def create(path, data):
            if "/_log/" in path:
                day["log_written"] += len(data)
            return real_create(path, data)
        monkeypatch.setattr(dfs, "read", read)
        monkeypatch.setattr(dfs, "create", create)
        rows, landed_before = [], 0
        for n in range(1, 65):
            day = {"day": n, "data_reads": 0, "log_read": 0,
                   "log_written": 0}
            scheduler.run_until_day(n)
            landed = sum(ds.max_delta_seq()
                         for ds in scheduler.dataset_map().values())
            day["landed"] = landed - landed_before
            rows.append(day)
            landed_before = landed
    finally:
        platform.close()
    assert all(row["landed"] > 0 for row in rows)
    second = rows[1]
    heavy = [row for row in rows[1:]
             if row["data_reads"] > 2 * row["landed"]
             or row["log_read"] > second["log_read"] + 64
             or row["log_written"] > second["log_written"] + 64]
    assert heavy == []


def test_an_outbox_drain_reads_no_lease(monkeypatch):
    dfs = MiniDfs(num_datanodes=3)
    subscribers = {f"t{n}:default": Subscriber(f"t{n}:default",
                                               tenant=f"t{n}")
                   for n in range(3)}
    outbox = DeliveryOutbox(dfs, SimClock(), subscribers)
    for n in range(30):
        sid = f"t{n % 3}:default"
        outbox.enqueue(Notification(
            id=f"ntf-{n:03d}", sub_id=f"sub-{n:06d}", tenant=f"t{n % 3}",
            subscriber_id=sid, kind="company_funding", key=n,
            unit="day-0001:derived", entity=f"inv:{n}:{n}",
            payload={}))
    reads, created = _traffic(dfs, monkeypatch)
    outbox.drain()
    assert outbox.stats.delivered == 30
    # every mutation stays durable — acquire and heartbeat write the
    # lease, release deletes it — and none of them reads it first
    assert sum("/leases/" in path for path, _ in created) == 2 * 30
    assert not [path for path in reads if "/leases/" in path]


# ---------------------------------------------------------- the serve build
def test_the_follow_index_holds_at_most_17_bytes_an_edge(crawled_platform):
    index = crawled_platform.serve_dataset().follows_out
    assert index.num_edges > 30_000
    # every column counted: user ids, row starts, the one-byte type and
    # the id of each edge, the sorted count keys and their counts
    assert index.nbytes <= 17 * index.num_edges


def test_the_follow_index_holds_at_most_10_bytes_an_edge(crawled_platform):
    index = crawled_platform.serve_dataset().follows_out
    assert index.num_edges > 30_000
    # every array counted: the sorted user ids, both CSR graphs (row
    # starts, degrees and int32 target ids), the count keys and counts.
    # The six-column layout before them held 12.3 bytes an edge
    assert index.nbytes <= 10 * index.num_edges


def test_building_the_serve_dataset_peaks_under_5_5_mb(crawled_platform):
    ServeDataset.build(crawled_platform.dfs)    # imports, first-use caches
    tracemalloc.start()
    try:
        ServeDataset.build(crawled_platform.dfs)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    # the two follow dicts peaked at 7.4 MB on this world: a tuple per
    # edge and per followed target, held past the build. The index peaks
    # at 4.4 MB, one follow part's decoded records at a time
    assert peak < 5_500_000


# ---------------------------------------------------------------- the world
def test_the_world_holds_at_most_16_bytes_a_follow_edge(tiny_world):
    follows = tiny_world.follows
    edges = follows.companies.num_edges + follows.users.num_edges
    assert edges > 30_000
    # both graphs, each forward and inverse: row starts, column ids and
    # degrees. A Python list of ints per user held about 60 bytes an edge
    held = sum(graph.nbytes + graph.inverse().nbytes
               for graph in (follows.companies, follows.users))
    assert held <= 16 * edges


def test_generating_follows_looks_up_and_dedupes_once(fresh_world,
                                                      monkeypatch):
    calls = {"unique": 0, "searchsorted": 0}

    def counted(name):
        original = getattr(np, name)

        def wrapper(*args, **kwargs):
            calls[name] += 1
            return original(*args, **kwargs)
        return wrapper

    for name in calls:
        monkeypatch.setattr(np, name, counted(name))
    stream = RngStream(fresh_world.config.seed, "world").child("follows")
    _generate_follows(fresh_world, stream)
    assert len(fresh_world.users) > 1000
    # one lookup of every user's draws together; de-duplication is a sort
    assert calls == {"unique": 0, "searchsorted": 1}


# ------------------------------------------------------ the engine exchange
def _skewed_pair(x):
    """(key, 1) with 75 % of rows on 8 hot keys and the rest on 24 cold
    residues: at most 32 distinct keys."""
    return (x % 8, 1) if x % 4 else (8 + x % 24, 1)


def _rows_in(obj):
    """Rows inside a (possibly nested) list handed to ``pickle.dumps``."""
    if isinstance(obj, list):
        return sum(_rows_in(item) for item in obj)
    return 1


def test_an_exchange_hashes_per_key_and_chunk_and_sizes_by_sample(
        monkeypatch):
    """60,000 rows through an uncombined serial exchange of 8 map chunks
    x 8 buckets: at most one CRC32 per distinct key per chunk (32 x 8),
    and at most the planner's stride sample of each piece pickled to size
    it (8 x 64). Uncombined, so every row reaches the exchange and a
    whole-exchange pickle would show as 60,000 rows. On the serial
    backend nothing else calls either."""
    counts = {"hashes": 0, "pickled_rows": 0}
    real_crc32, real_dumps = zlib.crc32, pickle.dumps

    def crc32(*args):
        counts["hashes"] += 1
        return real_crc32(*args)

    def dumps(obj, *args, **kwargs):
        counts["pickled_rows"] += _rows_in(obj)
        return real_dumps(obj, *args, **kwargs)
    with SparkLiteContext(parallelism=4, backend="serial",
                          shuffle_combine=False) as sc:
        rdd = (sc.parallelize(range(60_000), 8).map(_skewed_pair)
               .reduce_by_key(operator.add))
        monkeypatch.setattr(zlib, "crc32", crc32)
        monkeypatch.setattr(pickle, "dumps", dumps)
        rdd.collect()
        monkeypatch.undo()
        assert sc.last_job_metrics.shuffle_records_moved == 60_000
    assert counts["hashes"] <= 32 * 8
    assert counts["pickled_rows"] <= DEFAULT_SAMPLE_ROWS * 8 * 8


# --------------------------------------------------------- the knob ratchet
def test_knob_ratchet():
    # the counts today; removing a knob lowers its bound here, and a
    # new one has to raise it in plain sight
    assert len(dataclasses.fields(PlatformConfig)) <= 26
    params = inspect.signature(SparkLiteContext.__init__).parameters
    assert len([name for name in params if name != "self"]) <= 20


def test_cli_option_ratchet():
    # every distinct option string and positional across the subcommands
    # (``--scale`` counts once however many subcommands take it)
    subparsers = next(action for action in build_parser()._actions
                      if isinstance(action, argparse._SubParsersAction))
    names = {name for parser in subparsers.choices.values()
             for action in parser._actions
             if not isinstance(action, argparse._HelpAction)
             for name in action.option_strings or [action.dest]}
    assert len(names) <= 51
