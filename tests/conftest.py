"""Shared fixtures.

The expensive artifacts (a generated world, a fully crawled platform)
are session-scoped: the tiny world builds in well under a second and
many test modules read from it without mutating it.
"""

from __future__ import annotations

import faulthandler
import json
import os

import pytest

from repro.core.platform import ExploratoryPlatform
from repro.dfs.filesystem import MiniDfs
from repro.dfs.jsonlines import JsonLinesWriter
from repro.graph.bipartite import BipartiteGraph
from repro.world.config import WorldConfig
from repro.world.generator import World, generate_world


def pytest_configure(config):
    # A wedged supervisor/pool test would otherwise hang CI silently;
    # dump every thread's stack if any single run exceeds the budget.
    faulthandler.enable()
    timeout = float(os.environ.get("REPRO_FAULTHANDLER_TIMEOUT", "0") or 0)
    if timeout > 0:
        faulthandler.dump_traceback_later(timeout, repeat=True, exit=False)


def pytest_unconfigure(config):
    faulthandler.cancel_dump_traceback_later()


@pytest.fixture(autouse=True)
def _no_leaked_shm_segments():
    """Every test must leave ``/dev/shm`` as it found it.

    The columnar shuffle creates engine-owned shared-memory segments
    (names prefixed ``rpshm``); the driver unlinks them at job end even
    when the job fails. A segment that survives a test is a leak — the
    guard unlinks it so one bad test cannot poison the rest of the
    suite, then fails loudly.
    """
    from repro.engine import columnar
    before = set(columnar.list_segments(columnar.SHM_BASE_PREFIX))
    yield
    after = set(columnar.list_segments(columnar.SHM_BASE_PREFIX))
    leaked = sorted(after - before)
    for name in leaked:
        columnar.release_segments(names=[name])
    assert not leaked, f"leaked shared-memory segments: {leaked}"


@pytest.fixture(scope="session")
def tiny_world() -> World:
    """A ~2k-company world; read-only for all tests."""
    return generate_world(WorldConfig.tiny(seed=11))


@pytest.fixture(scope="session")
def crawled_platform(tiny_world) -> ExploratoryPlatform:
    """A platform that has already run the full §3 crawl; read-only."""
    platform = ExploratoryPlatform(tiny_world)
    platform.run_full_crawl()
    yield platform
    platform.close()


@pytest.fixture(scope="session")
def investor_graph(crawled_platform) -> BipartiteGraph:
    return crawled_platform.investor_graph()


@pytest.fixture()
def fresh_world() -> World:
    """A small world safe to mutate (dynamics tests)."""
    return generate_world(WorldConfig.tiny(seed=23))


@pytest.fixture()
def small_crawl():
    """A hand-written AngelList crawl on its own small-block DFS.

    Safe to mutate (the stale-span tests rewrite parts). Three startup
    parts and two user parts of several 96-byte blocks each; names mix
    plain ASCII, ``\\u``-escaped text (the writer's ``ensure_ascii``)
    and, in a part written raw, multi-byte UTF-8 — so a byte offset and
    a character offset disagree.
    """
    dfs = MiniDfs(num_datanodes=3, block_size=96, replication=2)
    root = "/crawl/angellist"
    startups = [{"id": 100 + i,
                 "name": f"Café ☃ {i}" if i % 3 == 0
                 else f"plain-{i}",
                 "pitch": "p" * (i * 7 % 40)} for i in range(16)]
    with JsonLinesWriter(dfs, f"{root}/startups",
                         records_per_part=8) as writer:
        writer.write_all(startups)
    raw = [{"id": 200 + i, "name": f"Zoë ☃ n°{i}",
            "pitch": "q" * i} for i in range(6)]
    dfs.create_text(
        f"{root}/startups/part-00002.jsonl",
        "".join(json.dumps(r, ensure_ascii=False, sort_keys=True) + "\n"
                for r in raw))
    users = [{"id": 1000 + i, "name": f"Renée {i}", "bio": "b" * i}
             for i in range(12)]
    with JsonLinesWriter(dfs, f"{root}/users", records_per_part=6) as writer:
        writer.write_all(users)
    with JsonLinesWriter(dfs, f"{root}/investments") as writer:
        writer.write_all([{"investor_id": 1000 + i % 12,
                           "company_id": 100 + i % 16}
                          for i in range(40)])
    with JsonLinesWriter(dfs, f"{root}/follow_edges") as writer:
        writer.write_all([{"src_user": 1000 + i % 12, "dst_type": "user",
                           "dst_id": 1000 + (i * 5 + 1) % 12}
                          for i in range(30)])
    return dfs
