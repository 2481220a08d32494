"""Serve-side indexes over the landed crawl datasets.

The online tier never scans datasets at request time the way the batch
engine does; it builds compact in-memory indexes once (ids, adjacency,
community membership, engagement summaries) and keeps the *bulky* record
payloads on the DFS, locating them through an id → part-file map. A
company-lookup therefore pays a real replicated-DFS read per cache miss
— which is exactly where hedged reads earn their keep — while graph
traversals run over the in-memory adjacency with a per-record simulated
cost.

A cache-missed lookup *seeks*: the build also records each record's
byte span inside its part (:class:`SpanIndex`), so the request reads
only the DFS blocks covering that one line (:meth:`MiniDfs.read_hedged`
with a range) and verifies the id it finds there. A span that no longer
points at the record — the part was atomically re-flushed under a built
index — falls back to scanning the whole part, and is counted.

Every index is built deterministically from the part files, so two
builds over the same crawl are identical.
"""

from __future__ import annotations

from array import array
from bisect import bisect_right
from collections.abc import Mapping
from dataclasses import dataclass, field
from typing import (Any, Callable, Dict, Iterable, Iterator, List,
                    Optional, Set, Tuple)

import numpy as np

from repro.community.labelprop import label_propagation
from repro.dfs.filesystem import HedgedRead, MiniDfs
from repro.dfs.jsonlines import decode_line
from repro.graph.bipartite import BipartiteGraph
from repro.graph.csr import position
from repro.graph.follows import FollowIndex, Targets
from repro.util.errors import ConfigError, StorageError

#: the query kinds the service answers
KIND_COMPANY = "company"
KIND_INVESTOR = "investor"
KIND_NEIGHBORHOOD = "neighborhood"
KIND_COMMUNITY = "community"
KIND_ENGAGEMENT = "engagement"
QUERY_KINDS = (KIND_COMPANY, KIND_INVESTOR, KIND_NEIGHBORHOOD,
               KIND_COMMUNITY, KIND_ENGAGEMENT)

#: cap on the id lists embedded in answers (keep payloads bounded)
MAX_IDS_IN_ANSWER = 25


class SpanIndex:
    """id → ``(offset, length)`` of a record's line inside its part file.

    Three parallel ``array('q')`` columns kept sorted by id and probed
    by bisection: 24 bytes an entry, where a dict of tuples costs ≈150 —
    the index has one entry per crawled company and user. ``add`` only
    appends; the sort happens once, on the first look-up after a batch
    of adds. When an id was added more than once the last add wins.
    """

    __slots__ = ("_columns", "_sorted")

    def __init__(self, ids: Iterable[int] = (),
                 offsets: Iterable[int] = (),
                 lengths: Iterable[int] = ()):
        self._columns = (array("q", ids), array("q", offsets),
                         array("q", lengths))
        self._sorted = False

    def add(self, key: int, offset: int, length: int) -> None:
        ids, offsets, lengths = self._columns
        ids.append(key)
        offsets.append(offset)
        lengths.append(length)
        self._sorted = False

    def columns(self) -> Tuple[array, array, array]:
        """``(ids, offsets, lengths)`` in id order — what the constructor
        takes back, and the persisted form of the index."""
        if not self._sorted:
            ids = self._columns[0]
            # stable, so equal ids keep insertion order (last add wins)
            order = sorted(range(len(ids)), key=ids.__getitem__)
            # swapped in as one tuple: a concurrent reader sees the old
            # columns or the new, never a mix
            self._columns = tuple(
                array("q", map(column.__getitem__, order))
                for column in self._columns)
            self._sorted = True
        return self._columns

    def get(self, key: int) -> Optional[Tuple[int, int]]:
        ids, offsets, lengths = self.columns()
        at = bisect_right(ids, key) - 1
        if at < 0 or ids[at] != key:
            return None
        return offsets[at], lengths[at]

    def __iter__(self) -> Iterator[Tuple[int, int, int]]:
        """``(id, offset, length)`` rows in id order."""
        return zip(*self.columns())

    def __len__(self) -> int:
        return len(self._columns[0])

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, SpanIndex):
            return NotImplemented
        return self.columns() == other.columns()


#: an engagement row's fields, in the order its dict lists them: the
#: company id, three counts and three flags
ENGAGEMENT_FIELDS = ("company_id", "likes", "tweets", "tw_followers",
                     "has_facebook", "has_twitter", "success")
_ENGAGEMENT_COUNTS = ENGAGEMENT_FIELDS[1:4]
_ENGAGEMENT_FLAGS = ENGAGEMENT_FIELDS[4:]


class EngagementRows(Mapping):
    """company id → engagement summary row, held as id-sorted columns.

    An ``int64`` column for the ids and each count and a ``bool`` column
    for each flag: 35 bytes a company, where a seven-key dict per company
    cost ≈ 370. A row's dict (fields in :data:`ENGAGEMENT_FIELDS` order,
    Python ints and bools) is built on each access, so callers may keep
    or change it. A look-up bisects the id memoryview.
    """

    __slots__ = ("_ids", "_columns")

    def __init__(self, ids=(), **columns):
        ids = np.asarray(ids, dtype=np.int64)
        order = np.argsort(ids, kind="stable")
        self._ids = memoryview(ids[order])
        self._columns = tuple(
            memoryview(np.asarray(columns.get(name, ()), dtype=dtype)[order])
            for names, dtype in ((_ENGAGEMENT_COUNTS, np.int64),
                                 (_ENGAGEMENT_FLAGS, bool))
            for name in names)

    @classmethod
    def from_rows(cls, rows: Iterable[Dict]) -> "EngagementRows":
        """From row dicts, each with every field of
        :data:`ENGAGEMENT_FIELDS`."""
        rows = list(rows)
        return cls([row["company_id"] for row in rows],
                   **{name: [row[name] for row in rows]
                      for name in ENGAGEMENT_FIELDS[1:]})

    def __getitem__(self, cid: int) -> Dict:
        at = position(self._ids, cid)
        if at < 0:
            raise KeyError(cid)
        return dict(zip(ENGAGEMENT_FIELDS,
                        (self._ids[at], *(column[at]
                                          for column in self._columns))))

    def __contains__(self, cid: object) -> bool:
        try:
            return position(self._ids, cid) >= 0
        except TypeError:           # not an id at all
            return False

    def __iter__(self) -> Iterator[int]:
        """Company ids, ascending, as Python ints."""
        return iter(self._ids.tolist())

    def __len__(self) -> int:
        return len(self._ids)

    def total(self, flag: str) -> int:
        """How many rows have ``flag`` set."""
        return int(np.count_nonzero(
            self._columns[ENGAGEMENT_FIELDS.index(flag) - 1]))

    @property
    def nbytes(self) -> int:
        return sum(column.nbytes for column in (self._ids, *self._columns))

    def split(self, owner: Callable[[int], int],
              num_shards: int) -> List["EngagementRows"]:
        """One table per shard: a row goes to ``owner(company id)``."""
        ids = np.asarray(self._ids)
        row_owner = np.fromiter(map(owner, ids.tolist()), np.int64, len(ids))
        names = ENGAGEMENT_FIELDS[1:]
        return [EngagementRows(ids[rows], **{
                    name: np.asarray(column)[rows]
                    for name, column in zip(names, self._columns)})
                for rows in (row_owner == sid for sid in range(num_shards))]


class NeighborhoodWalk:
    """The neighborhood query: a BFS over follow rows, one hop at a time.

    The unsharded traversal and the sharded scatter (which fetches each
    hop's rows from the owner shards) both run it and differ only in
    where :meth:`hop` gets a user's targets, so their answers agree.
    """

    def __init__(self, key: int, depth: int):
        self.key = key
        self.depth = max(1, min(int(depth), 3))
        self.seen_users = {key}
        self.seen_companies: Set[int] = set()
        self.frontier = [key]

    def hop(self, targets: Callable[[int], Targets]) -> int:
        """Expand the frontier by one hop; returns the edges walked."""
        seen_users = self.seen_users
        walked = 0
        frontier: List[int] = []
        for uid in self.frontier:
            users, companies = targets(uid)
            walked += len(users) + len(companies)
            for dst in users:
                if dst not in seen_users:
                    seen_users.add(dst)
                    frontier.append(dst)
            self.seen_companies.update(companies)
        self.frontier = frontier
        return walked

    def value(self, known: bool) -> Dict:
        key = self.key
        return {
            "user_id": key,
            "known": known,
            "depth": self.depth,
            "users_reached": len(self.seen_users) - 1,
            "companies_reached": len(self.seen_companies),
            "user_sample": sorted(self.seen_users - {key}
                                  )[:MAX_IDS_IN_ANSWER],
            "company_sample": sorted(self.seen_companies
                                     )[:MAX_IDS_IN_ANSWER],
        }


@dataclass
class QueryAnswer:
    """One backend answer: the value plus its simulated cost drivers."""

    value: Any
    units: int                          # records/edges touched
    hedged: Optional[HedgedRead] = None  # set when a DFS read happened
    #: the record's span was missing or stale and the whole part was
    #: scanned instead (the service counts these in ``ServeMetrics``)
    span_fallback: bool = False


@dataclass
class ServeDataset:
    """Immutable query indexes over one crawl's datasets."""

    #: id → DFS part file holding the full record
    company_parts: Dict[int, str] = field(default_factory=dict)
    user_parts: Dict[int, str] = field(default_factory=dict)
    #: id → byte span of the record's line inside that part file
    company_spans: SpanIndex = field(default_factory=SpanIndex)
    user_spans: SpanIndex = field(default_factory=SpanIndex)
    #: part path → record count (the planner's exact scan-cost table)
    part_records: Dict[str, int] = field(default_factory=dict)
    #: light per-company fields served without touching the DFS
    company_names: Dict[int, str] = field(default_factory=dict)
    #: crunchbase augmentation: company → (num_rounds, num_investors)
    funding: Dict[int, Tuple[int, int]] = field(default_factory=dict)
    #: investor → sorted companies; company → sorted investors
    portfolio: Dict[int, List[int]] = field(default_factory=dict)
    backers: Dict[int, List[int]] = field(default_factory=dict)
    #: the follow graph: each user's row and each target's follower
    #: count (the platform's shared index when it built this dataset)
    follows_out: FollowIndex = field(default_factory=FollowIndex)
    #: investor → community label, label → sorted members
    community_of: Dict[int, int] = field(default_factory=dict)
    community_members: Dict[int, List[int]] = field(default_factory=dict)
    #: company → engagement summary row
    engagement: EngagementRows = field(default_factory=EngagementRows)
    #: per-kind precomputed degraded answers (the fallback floor)
    summaries: Dict[str, Dict] = field(default_factory=dict)

    # ------------------------------------------------------------------ build
    @classmethod
    def build(cls, dfs: MiniDfs, angellist_root: str = "/crawl/angellist",
              crunchbase_dir: str = "/crawl/crunchbase/organizations",
              facebook_dir: str = "/crawl/facebook/pages",
              twitter_dir: str = "/crawl/twitter/profiles",
              community_seed: int = 0,
              follows: Optional[FollowIndex] = None) -> "ServeDataset":
        """Index one crawl's landed datasets; ``follows`` is served as
        is if given (``FollowIndex.from_parts`` of its follow edges)."""
        ds = cls()
        edges: Set[Tuple[int, int]] = set()

        for path, rec, offset, length in _iter_parts(
                dfs, f"{angellist_root}/startups", ds.part_records):
            cid = int(rec["id"])
            # a scan of the part stops at the id's first line: so does
            # the span, should a part ever hold an id twice
            if ds.company_parts.get(cid) != path:
                ds.company_spans.add(cid, offset, length)
            ds.company_parts[cid] = path
            ds.company_names[cid] = rec.get("name", "")
        for path, rec, offset, length in _iter_parts(
                dfs, f"{angellist_root}/users", ds.part_records):
            uid = int(rec["id"])
            if ds.user_parts.get(uid) != path:
                ds.user_spans.add(uid, offset, length)
            ds.user_parts[uid] = path
        for _, rec, _, _ in _iter_parts(
                dfs, f"{angellist_root}/investments", ds.part_records):
            edges.add((int(rec["investor_id"]), int(rec["company_id"])))
        if follows is None:
            follows = FollowIndex.from_parts(
                dfs, f"{angellist_root}/follow_edges")
        ds.follows_out = follows
        ds.part_records.update(follows.part_records)

        for _, org, _, _ in _iter_parts(dfs, crunchbase_dir,
                                        ds.part_records, optional=True):
            cid = int(org["angellist_id"])
            rounds = org.get("funding_rounds", [])
            investor_ids = {int(i) for r in rounds
                            for i in r.get("investor_ids", [])}
            ds.funding[cid] = (len(rounds), len(investor_ids))
            for investor in investor_ids:
                edges.add((investor, cid))

        graph = BipartiteGraph(edges)
        ds.portfolio = {u: sorted(graph.portfolio(u)) for u in graph.investors}
        ds.backers = {c: sorted(graph.backers(c)) for c in graph.companies}
        communities = label_propagation(graph, seed=community_seed)
        for label, members in sorted(communities.items()):
            ordered = sorted(members)
            ds.community_members[label] = ordered
            for member in ordered:
                ds.community_of[member] = label

        likes: Dict[int, int] = {}
        tweets: Dict[int, Tuple[int, int]] = {}
        for _, page, _, _ in _iter_parts(dfs, facebook_dir,
                                         ds.part_records, optional=True):
            likes[int(page["angellist_id"])] = int(page.get("fan_count", 0))
        for _, prof, _, _ in _iter_parts(dfs, twitter_dir,
                                         ds.part_records, optional=True):
            tweets[int(prof["angellist_id"])] = (
                int(prof.get("statuses_count", 0)),
                int(prof.get("followers_count", 0)))
        companies = list(ds.company_parts)

        def column(value: Callable[[int], Any], dtype) -> np.ndarray:
            return np.fromiter(map(value, companies), dtype, len(companies))
        ds.engagement = EngagementRows(
            companies,
            likes=column(lambda cid: likes.get(cid, 0), np.int64),
            tweets=column(lambda cid: tweets.get(cid, (0, 0))[0], np.int64),
            tw_followers=column(lambda cid: tweets.get(cid, (0, 0))[1],
                                np.int64),
            has_facebook=column(likes.__contains__, bool),
            has_twitter=column(tweets.__contains__, bool),
            success=column(lambda cid: ds.funding.get(cid, (0, 0))[0] > 0,
                           bool))

        ds._build_summaries()
        return ds

    def _build_summaries(self) -> None:
        num_companies = len(self.company_parts)
        successes = self.engagement.total("success")
        self.summaries = {
            KIND_COMPANY: {
                "total_companies": num_companies,
                "success_pct": round(100.0 * successes
                                     / max(1, num_companies), 2)},
            KIND_INVESTOR: {
                "total_investors": len(self.portfolio),
                "total_investments": sum(len(p) for p in
                                         self.portfolio.values())},
            KIND_NEIGHBORHOOD: {
                "total_users": len(self.user_parts),
                "mean_out_degree": round(self.follows_out.num_edges
                                         / max(1, len(self.follows_out)),
                                         3)},
            KIND_COMMUNITY: {
                "num_communities": len(self.community_members),
                "covered_investors": len(self.community_of)},
            KIND_ENGAGEMENT: {
                "tracked_companies": len(self.engagement),
                "with_facebook": self.engagement.total("has_facebook"),
                "with_twitter": self.engagement.total("has_twitter")},
        }

    # ---------------------------------------------------------------- queries
    def units(self, kind: str, key: int, depth: int = 1) -> int:
        """Exact work units a query will touch (the planner's estimate).

        In the simulator the planner is exact: traversals over in-memory
        adjacency cost nothing in real time, so computing the true unit
        count up front is free — what matters is that the service charges
        the *simulated* seconds only when it decides to execute.
        """
        if kind == KIND_COMPANY:
            part = self.company_parts.get(key)
            return self.part_records.get(part, 1) if part else 1
        if kind == KIND_INVESTOR:
            part = self.user_parts.get(key)
            scan = self.part_records.get(part, 1) if part else 1
            return scan + len(self.portfolio.get(key, ()))
        if kind == KIND_NEIGHBORHOOD:
            _, units = self._traverse(key, depth)
            return units
        if kind == KIND_COMMUNITY:
            label = self.community_of.get(key)
            return 1 + len(self.community_members.get(label, ()))
        if kind == KIND_ENGAGEMENT:
            return 1
        raise ConfigError(f"unknown query kind {kind!r}; "
                          f"expected one of {QUERY_KINDS}")

    def dfs_part_for(self, kind: str, key: int) -> Optional[str]:
        """The DFS part file a query must read, if any."""
        if kind == KIND_COMPANY:
            return self.company_parts.get(key)
        if kind == KIND_INVESTOR:
            return self.user_parts.get(key)
        return None

    def dfs_span_for(self, kind: str, key: int,
                     ) -> Optional[Tuple[int, int]]:
        """``(offset, length)`` of the record inside that part, if known."""
        if kind == KIND_COMPANY:
            return self.company_spans.get(key)
        if kind == KIND_INVESTOR:
            return self.user_spans.get(key)
        return None

    def run(self, kind: str, key: int, dfs: MiniDfs, depth: int = 1,
            hedge_after_s: float = 0.03) -> QueryAnswer:
        """Execute one query against the indexes (and DFS if needed)."""
        if kind == KIND_COMPANY:
            return self._run_company(key, dfs, hedge_after_s)
        if kind == KIND_INVESTOR:
            return self._run_investor(key, dfs, hedge_after_s)
        if kind == KIND_NEIGHBORHOOD:
            value, units = self._traverse(key, depth)
            return QueryAnswer(value=value, units=units)
        if kind == KIND_COMMUNITY:
            return self._run_community(key)
        if kind == KIND_ENGAGEMENT:
            row = self.engagement.get(key)
            return QueryAnswer(
                value=row if row is not None else {"company_id": key,
                                                   "known": False},
                units=1)
        raise ConfigError(f"unknown query kind {kind!r}; "
                          f"expected one of {QUERY_KINDS}")

    @staticmethod
    def _read_record(part: str, span: Optional[Tuple[int, int]], key: int,
                     dfs: MiniDfs, hedge_after_s: float,
                     ) -> Tuple[Optional[Dict], HedgedRead, bool]:
        """Seek to the record; ``(record, read, fell back to a scan)``.

        The ranged read fetches (and CRC-verifies) only the blocks that
        cover the record's span, and the line found there must carry
        the requested id. Anything else means the part was re-flushed
        under this index — the whole part is scanned instead, and the
        caller is told so it can count the fallback.
        """
        seek = None
        if span is not None:
            try:
                seek = dfs.read_hedged(part, hedge_after_s, *span)
                rec = decode_line(seek.data.decode("utf-8"))
                if int(rec["id"]) == key:
                    return rec, seek, False
            except (StorageError, ValueError, KeyError, TypeError):
                pass    # span past the end, or not this record's line
        rec, scan = scan_part_for(dfs, part, key, hedge_after_s)
        if seek is not None:    # the failed seek was paid for too
            scan.elapsed_s += seek.elapsed_s
            scan.hedges_launched += seek.hedges_launched
            scan.hedges_won += seek.hedges_won
            scan.wasted_reads += seek.wasted_reads
        return rec, scan, True

    def _run_company(self, key: int, dfs: MiniDfs,
                     hedge_after_s: float) -> QueryAnswer:
        part = self.company_parts.get(key)
        if part is None:
            return QueryAnswer(value={"company_id": key, "known": False},
                               units=1)
        rec, hedged, fell_back = self._read_record(
            part, self.company_spans.get(key), key, dfs, hedge_after_s)
        rounds, round_investors = self.funding.get(key, (0, 0))
        value = {
            "company_id": key,
            "known": rec is not None,
            "record": rec,
            "funding_rounds": rounds,
            "round_investors": round_investors,
            "backers": len(self.backers.get(key, ())),
            "followers": self.follows_out.followers("startup", key),
        }
        return QueryAnswer(value=value, units=self.part_records[part],
                           hedged=hedged, span_fallback=fell_back)

    def _run_investor(self, key: int, dfs: MiniDfs,
                      hedge_after_s: float) -> QueryAnswer:
        part = self.user_parts.get(key)
        if part is None:
            return QueryAnswer(value={"user_id": key, "known": False},
                               units=1)
        rec, hedged, fell_back = self._read_record(
            part, self.user_spans.get(key), key, dfs, hedge_after_s)
        portfolio = self.portfolio.get(key, [])
        value = {
            "user_id": key,
            "known": rec is not None,
            "record": rec,
            "investments": len(portfolio),
            "portfolio_sample": portfolio[:MAX_IDS_IN_ANSWER],
            "community": self.community_of.get(key),
            "follows": self.follows_out.out_degree(key),
            "followers": self.follows_out.followers("user", key),
        }
        units = self.part_records[part] + len(portfolio)
        return QueryAnswer(value=value, units=units, hedged=hedged,
                           span_fallback=fell_back)

    def _traverse(self, key: int, depth: int) -> Tuple[Dict, int]:
        """BFS over follow edges from a user, ``depth`` hops out."""
        walk = NeighborhoodWalk(key, depth)
        units = 1
        for _ in range(walk.depth):
            units += walk.hop(self.follows_out.targets)
        return walk.value(key in self.user_parts), units

    def _run_community(self, key: int) -> QueryAnswer:
        label = self.community_of.get(key)
        members = self.community_members.get(label, []) if (
            label is not None) else []
        value = {
            "user_id": key,
            "community": label,
            "size": len(members),
            "member_sample": [m for m in members
                              if m != key][:MAX_IDS_IN_ANSWER],
        }
        return QueryAnswer(value=value, units=1 + len(members))

    def summary_answer(self, kind: str, key: int) -> Dict:
        """The degraded floor: a cheap global summary echoing the key."""
        base = self.summaries.get(kind)
        if base is None:
            raise ConfigError(f"unknown query kind {kind!r}")
        return {"key": key, "degraded": True, **base}

    # -------------------------------------------------------------- key pools
    def keys_for(self, kind: str) -> List[int]:
        """Valid keys for a kind, sorted (the load generator draws here)."""
        if kind == KIND_COMPANY or kind == KIND_ENGAGEMENT:
            return sorted(self.company_parts)
        if kind == KIND_INVESTOR or kind == KIND_COMMUNITY:
            return sorted(self.portfolio)
        if kind == KIND_NEIGHBORHOOD:
            return list(self.follows_out)       # ascending already
        raise ConfigError(f"unknown query kind {kind!r}")


def scan_part_for(dfs: MiniDfs, part: str, key: int,
                  hedge_after_s: float = 0.03,
                  ) -> Tuple[Optional[Dict], HedgedRead]:
    """Read a whole part and decode line after line until the id matches.

    What every look-up did before the span index; now the stale-span
    guard, and the oracle the span tests compare against.
    """
    hedged = dfs.read_hedged(part, hedge_after_s=hedge_after_s)
    for line in hedged.data.decode("utf-8").splitlines():
        if not line:
            continue
        rec = decode_line(line)
        if int(rec.get("id", -1)) == key:
            return rec, hedged
    return None, hedged


def _iter_parts(dfs: MiniDfs, directory: str,
                part_records: Dict[str, int], optional: bool = False):
    """Yield (part_path, record, offset, length) over a dataset, counting
    records/part. ``offset``/``length`` are the record line's byte span
    inside the part, newline excluded."""
    for path in _parts_of(dfs, directory, optional):
        count = 0
        offset = 0
        # bytes split on "\n" only: str.splitlines() also breaks on
        # other separators, which would shift every later offset
        for line in dfs.read(path).split(b"\n"):
            length = len(line)
            if length:
                count += 1
                yield path, decode_line(line.decode("utf-8")), offset, length
            offset += length + 1
        part_records[path] = count


def _parts_of(dfs: MiniDfs, directory: str,
              optional: bool = False) -> List[str]:
    parts = dfs.glob_parts(directory)
    if not parts and not optional:
        raise ConfigError(f"no part files under {directory}; "
                          f"run the crawl before building serve indexes")
    return parts
