"""BFS frontier crawl over the AngelList graph (§3, "AngelList").

The public listing endpoint only exposes currently fundraising startups,
so the crawler expands from them exactly as the paper describes: collect
followers of frontier startups; then everything those users follow
(startups and users) plus their investments; newly discovered entities
form the next frontier; repeat until no new entities appear.

Outputs (JSON-lines datasets on the DFS):

* ``<root>/startups``      — full AngelList startup profiles
* ``<root>/users``         — user profiles with roles
* ``<root>/follow_edges``  — ``{src_user, dst_type, dst_id}``
* ``<root>/investments``   — ``{investor_id, company_id}`` edges

Checkpointing: with ``checkpoint=True`` the crawler writes its state
(seen sets, frontiers, counters) to ``<root>/checkpoint/state.json``
after every completed round, and ``run(resume=True)`` continues a crawl
that died mid-flight — a multi-day crawl of a rate-limited API needs to
survive restarts. Granularity is one round: a crash loses at most the
round in progress.
"""

from __future__ import annotations

import json
import posixpath
from dataclasses import dataclass
from typing import Dict, List, Optional, Set

from repro.crawl.client import ApiClient, ClientStats
from repro.dfs.filesystem import MiniDfs
from repro.dfs.jsonlines import JsonLinesWriter, LineTemplate
from repro.util.errors import CrawlError


#: the edge records, ``int`` fields in key order: ``(dst_id, src_user)``
#: for a follow and ``(company_id, investor_id)`` for an investment
_FOLLOWS_STARTUP = LineTemplate({"dst_type": "startup"},
                                ("dst_id", "src_user"))
_FOLLOWS_USER = LineTemplate({"dst_type": "user"}, ("dst_id", "src_user"))
_INVESTED = LineTemplate({}, ("company_id", "investor_id"))


@dataclass
class RoundStats:
    """Entities discovered in one BFS round."""

    round_index: int
    new_startups: int = 0
    new_users: int = 0

    @property
    def total(self) -> int:
        return self.new_startups + self.new_users


@dataclass
class CrawlResult:
    """Summary of a completed BFS crawl."""

    startups: int
    users: int
    follow_edges: int
    investment_edges: int
    rounds: List[RoundStats]
    client_stats: ClientStats
    sim_duration: float
    resumed: bool = False


class _CrawlState:
    """Mutable crawl progress, serializable for checkpoints."""

    def __init__(self):
        self.seen_startups: Set[int] = set()
        self.seen_users: Set[int] = set()
        self.frontier_startups: List[int] = []
        self.frontier_users: List[int] = []
        self.round_index = 0
        self.follow_edges = 0
        self.investment_edges = 0
        self.rounds: List[RoundStats] = []
        self.startup_records = 0
        self.user_records = 0
        self.part_indices: Dict[str, int] = {}

    def to_json(self) -> Dict:
        return {
            "seen_startups": sorted(self.seen_startups),
            "seen_users": sorted(self.seen_users),
            "frontier_startups": self.frontier_startups,
            "frontier_users": self.frontier_users,
            "round_index": self.round_index,
            "follow_edges": self.follow_edges,
            "investment_edges": self.investment_edges,
            "rounds": [{"round_index": r.round_index,
                        "new_startups": r.new_startups,
                        "new_users": r.new_users} for r in self.rounds],
            "startup_records": self.startup_records,
            "user_records": self.user_records,
            "part_indices": self.part_indices,
        }

    @classmethod
    def from_json(cls, doc: Dict) -> "_CrawlState":
        state = cls()
        state.seen_startups = set(doc["seen_startups"])
        state.seen_users = set(doc["seen_users"])
        state.frontier_startups = list(doc["frontier_startups"])
        state.frontier_users = list(doc["frontier_users"])
        state.round_index = doc["round_index"]
        state.follow_edges = doc["follow_edges"]
        state.investment_edges = doc["investment_edges"]
        state.rounds = [RoundStats(**r) for r in doc["rounds"]]
        state.startup_records = doc["startup_records"]
        state.user_records = doc["user_records"]
        state.part_indices = dict(doc["part_indices"])
        return state


class BfsCrawler:
    """Frontier BFS over AngelList into DFS datasets."""

    def __init__(self, client: ApiClient, dfs: MiniDfs,
                 root: str = "/crawl/angellist",
                 records_per_part: int = 5000,
                 max_rounds: Optional[int] = None,
                 max_entities: Optional[int] = None,
                 checkpoint: bool = False):
        self.client = client
        self.dfs = dfs
        self.root = root.rstrip("/")
        self.records_per_part = records_per_part
        self.max_rounds = max_rounds
        self.max_entities = max_entities
        self.checkpoint = checkpoint

    @property
    def checkpoint_path(self) -> str:
        return f"{self.root}/checkpoint/state.json"

    def has_checkpoint(self) -> bool:
        return self.dfs.exists(self.checkpoint_path)

    # ---------------------------------------------------------------- run
    def run(self, resume: bool = False) -> CrawlResult:
        """Execute (or resume) the crawl; returns summary statistics."""
        client = self.client
        started_at = client.clock.now()

        resumed = False
        if resume:
            if not self.has_checkpoint():
                raise CrawlError(f"no checkpoint at {self.checkpoint_path}")
            state = _CrawlState.from_json(
                json.loads(self.dfs.read_text(self.checkpoint_path)))
            self._drop_uncheckpointed_parts(state)
            resumed = True
        else:
            state = _CrawlState()

        writers = {
            "startups": JsonLinesWriter(
                self.dfs, f"{self.root}/startups", self.records_per_part,
                start_part_index=state.part_indices.get("startups", 0)),
            "users": JsonLinesWriter(
                self.dfs, f"{self.root}/users", self.records_per_part,
                start_part_index=state.part_indices.get("users", 0)),
            "follow_edges": JsonLinesWriter(
                self.dfs, f"{self.root}/follow_edges",
                self.records_per_part,
                start_part_index=state.part_indices.get("follow_edges", 0)),
            "investments": JsonLinesWriter(
                self.dfs, f"{self.root}/investments", self.records_per_part,
                start_part_index=state.part_indices.get("investments", 0)),
        }

        if not resumed:
            self._seed_frontier(state)

        while ((state.frontier_startups or state.frontier_users)
               and self._budget_left(state)):
            state.round_index += 1
            if (self.max_rounds is not None
                    and state.round_index > self.max_rounds):
                state.round_index -= 1
                break
            self._run_round(state, writers)
            if self.checkpoint:
                self._write_checkpoint(state, writers)

        if not self.checkpoint:
            # Profile any startups/users discovered but not yet fetched.
            # (A checkpointed crawl leaves them in the checkpoint's
            # frontier instead, so run(resume=True) picks up exactly
            # where the budget cut it off.)
            for sid in state.frontier_startups:
                writers["startups"].write(client.get(f"/1/startups/{sid}"))
                state.startup_records += 1
            for uid in state.frontier_users:
                writers["users"].write(client.get(f"/1/users/{uid}"))
                state.user_records += 1
            state.frontier_startups = []
            state.frontier_users = []

        for writer in writers.values():
            writer.close()
        if self.checkpoint:
            self._write_checkpoint(state, writers, closed=True)

        return CrawlResult(
            startups=state.startup_records,
            users=state.user_records,
            follow_edges=state.follow_edges,
            investment_edges=state.investment_edges,
            rounds=state.rounds,
            client_stats=client.stats,
            sim_duration=client.clock.now() - started_at,
            resumed=resumed,
        )

    # ------------------------------------------------------------ internals
    def _budget_left(self, state: _CrawlState) -> bool:
        if self.max_entities is None:
            return True
        return (len(state.seen_startups) + len(state.seen_users)
                < self.max_entities)

    def _seed_frontier(self, state: _CrawlState) -> None:
        """Round 0: the only listable startups are those raising."""
        for item in self.client.paged("/1/startups", {"filter": "raising"},
                                      items_key="startups"):
            sid = int(item["id"])
            if sid not in state.seen_startups:
                state.seen_startups.add(sid)
                state.frontier_startups.append(sid)
        state.rounds.append(RoundStats(
            round_index=0, new_startups=len(state.frontier_startups)))

    def _run_round(self, state: _CrawlState,
                   writers: Dict[str, JsonLinesWriter]) -> None:
        client = self.client
        next_users: List[int] = []
        next_startups: List[int] = []

        seen_startups, seen_users = state.seen_startups, state.seen_users
        write_follows = writers["follow_edges"].write_lines
        write_investments = writers["investments"].write_lines
        follows_startup = _FOLLOWS_STARTUP.format
        follows_user = _FOLLOWS_USER.format
        invested = _INVESTED.format

        for sid in state.frontier_startups:
            if not self._budget_left(state):
                break
            writers["startups"].write(client.get(f"/1/startups/{sid}"))
            state.startup_records += 1
            for followers in client.pages(f"/1/startups/{sid}/followers",
                                          items_key="users"):
                for follower in followers:
                    uid = int(follower["id"])
                    if uid not in seen_users:
                        seen_users.add(uid)
                        next_users.append(uid)

        for uid in state.frontier_users:
            if not self._budget_left(state):
                break
            writers["users"].write(client.get(f"/1/users/{uid}"))
            state.user_records += 1
            # a page's edges are written as one batch of template lines
            for items in client.pages(f"/1/users/{uid}/following",
                                      {"type": "startup"}):
                cids = [int(item["id"]) for item in items]
                write_follows([follows_startup % (cid, uid)
                               for cid in cids])
                for cid in cids:
                    if cid not in seen_startups:
                        seen_startups.add(cid)
                        next_startups.append(cid)
                state.follow_edges += len(items)
            for items in client.pages(f"/1/users/{uid}/following",
                                      {"type": "user"}):
                fids = [int(item["id"]) for item in items]
                write_follows([follows_user % (fid, uid) for fid in fids])
                for fid in fids:
                    if fid not in seen_users:
                        seen_users.add(fid)
                        next_users.append(fid)
                state.follow_edges += len(items)
            for items in client.pages(f"/1/users/{uid}/investments",
                                      items_key="investments"):
                cids = [int(item["startup_id"]) for item in items]
                write_investments([invested % (cid, uid) for cid in cids])
                for cid in cids:
                    if cid not in seen_startups:
                        seen_startups.add(cid)
                        next_startups.append(cid)
                state.investment_edges += len(items)

        # everything queued for the next round was new to this one
        state.rounds.append(RoundStats(state.round_index,
                                       new_startups=len(next_startups),
                                       new_users=len(next_users)))
        state.frontier_startups = next_startups
        state.frontier_users = next_users

    def _write_checkpoint(self, state: _CrawlState,
                          writers: Dict[str, JsonLinesWriter],
                          closed: bool = False) -> None:
        if not closed:
            for writer in writers.values():
                writer.flush()
        state.part_indices = {name: writer.next_part_index
                              for name, writer in writers.items()}
        # temp-write + rename: a crash mid-checkpoint leaves the previous
        # state.json intact instead of a deleted or torn one.
        self.dfs.write_atomic_text(self.checkpoint_path,
                                   json.dumps(state.to_json()))

    def _drop_uncheckpointed_parts(self, state: _CrawlState) -> None:
        """Delete part files written after the checkpoint we resume from.

        A crash mid-round can leave parts flushed past the last durable
        ``part_indices``; resuming would re-emit those records under the
        same indices, so the stale files must go first.
        """
        for name in ("startups", "users", "follow_edges", "investments"):
            keep = state.part_indices.get(name, 0)
            for path in self.dfs.glob_parts(f"{self.root}/{name}"):
                base = posixpath.basename(path)
                index = int(base[len("part-"):-len(".jsonl")])
                if index >= keep:
                    self.dfs.delete(path)
