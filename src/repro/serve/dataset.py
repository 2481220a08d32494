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
from dataclasses import dataclass, field
from typing import Any, Dict, Iterable, Iterator, List, Optional, Set, Tuple

from repro.community.labelprop import label_propagation
from repro.dfs.filesystem import HedgedRead, MiniDfs
from repro.dfs.jsonlines import decode_line
from repro.graph.bipartite import BipartiteGraph
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
    #: follow-graph adjacency: user → sorted [(dst_type, dst_id)]
    follows_out: Dict[int, List[Tuple[str, int]]] = field(
        default_factory=dict)
    #: reverse follow edges: (dst_type, dst_id) → follower count
    follower_counts: Dict[Tuple[str, int], int] = field(
        default_factory=dict)
    #: investor → community label, label → sorted members
    community_of: Dict[int, int] = field(default_factory=dict)
    community_members: Dict[int, List[int]] = field(default_factory=dict)
    #: company → engagement summary row
    engagement: Dict[int, Dict] = field(default_factory=dict)
    #: per-kind precomputed degraded answers (the fallback floor)
    summaries: Dict[str, Dict] = field(default_factory=dict)

    # ------------------------------------------------------------------ build
    @classmethod
    def build(cls, dfs: MiniDfs, angellist_root: str = "/crawl/angellist",
              crunchbase_dir: str = "/crawl/crunchbase/organizations",
              facebook_dir: str = "/crawl/facebook/pages",
              twitter_dir: str = "/crawl/twitter/profiles",
              community_seed: int = 0) -> "ServeDataset":
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
        for _, rec, _, _ in _iter_parts(
                dfs, f"{angellist_root}/follow_edges", ds.part_records):
            src = int(rec["src_user"])
            dst = (str(rec["dst_type"]), int(rec["dst_id"]))
            ds.follows_out.setdefault(src, []).append(dst)
            ds.follower_counts[dst] = ds.follower_counts.get(dst, 0) + 1
        for adj in ds.follows_out.values():
            adj.sort()

        for _, org, _, _ in _iter_parts(dfs, crunchbase_dir,
                                        ds.part_records, optional=True):
            cid = int(org["angellist_id"])
            rounds = org.get("funding_rounds", [])
            investor_ids = {int(i) for r in rounds
                            for i in r.get("investor_ids", [])}
            ds.funding[cid] = (len(rounds), len(investor_ids))
            for investor in investor_ids:
                edges.add((investor, cid))

        for investor, company in sorted(edges):
            ds.portfolio.setdefault(investor, []).append(company)
            ds.backers.setdefault(company, []).append(investor)

        graph = BipartiteGraph(sorted(edges))
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
        for cid in ds.company_parts:
            rounds, _ = ds.funding.get(cid, (0, 0))
            statuses, followers = tweets.get(cid, (0, 0))
            ds.engagement[cid] = {
                "company_id": cid,
                "likes": likes.get(cid, 0),
                "tweets": statuses,
                "tw_followers": followers,
                "has_facebook": cid in likes,
                "has_twitter": cid in tweets,
                "success": rounds > 0,
            }

        ds._build_summaries()
        return ds

    def _build_summaries(self) -> None:
        num_companies = len(self.company_parts)
        successes = sum(1 for row in self.engagement.values()
                        if row["success"])
        degrees = [len(adj) for adj in self.follows_out.values()]
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
                "mean_out_degree": round(sum(degrees)
                                         / max(1, len(degrees)), 3)},
            KIND_COMMUNITY: {
                "num_communities": len(self.community_members),
                "covered_investors": len(self.community_of)},
            KIND_ENGAGEMENT: {
                "tracked_companies": len(self.engagement),
                "with_facebook": sum(1 for r in self.engagement.values()
                                     if r["has_facebook"]),
                "with_twitter": sum(1 for r in self.engagement.values()
                                    if r["has_twitter"])},
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
                value=dict(row) if row else {"company_id": key,
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
            "followers": self.follower_counts.get(("startup", key), 0),
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
            "follows": len(self.follows_out.get(key, ())),
            "followers": self.follower_counts.get(("user", key), 0),
        }
        units = self.part_records[part] + len(portfolio)
        return QueryAnswer(value=value, units=units, hedged=hedged,
                           span_fallback=fell_back)

    def _traverse(self, key: int, depth: int) -> Tuple[Dict, int]:
        """BFS over follow edges from a user, ``depth`` hops out."""
        depth = max(1, min(int(depth), 3))
        seen_users = {key}
        seen_companies: Set[int] = set()
        frontier = [key]
        units = 1
        for _ in range(depth):
            next_frontier: List[int] = []
            for uid in frontier:
                for dst_type, dst_id in self.follows_out.get(uid, ()):
                    units += 1
                    if dst_type == "user":
                        if dst_id not in seen_users:
                            seen_users.add(dst_id)
                            next_frontier.append(dst_id)
                    else:
                        seen_companies.add(dst_id)
            frontier = next_frontier
        value = {
            "user_id": key,
            "known": key in self.user_parts,
            "depth": depth,
            "users_reached": len(seen_users) - 1,
            "companies_reached": len(seen_companies),
            "user_sample": sorted(seen_users - {key})[:MAX_IDS_IN_ANSWER],
            "company_sample": sorted(seen_companies)[:MAX_IDS_IN_ANSWER],
        }
        return value, units

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
            return sorted(self.follows_out)
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
    parts = dfs.glob_parts(directory)
    if not parts and not optional:
        raise ConfigError(f"no part files under {directory}; "
                          f"run the crawl before building serve indexes")
    for path in parts:
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
