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

import sys
from array import array
from bisect import bisect_right
from collections.abc import Mapping
from dataclasses import dataclass, field
from typing import (Any, Callable, Dict, Iterable, Iterator, List,
                    Optional, Sequence, Set, Tuple)

import numpy as np

from repro.community.labelprop import label_propagation
from repro.dfs.filesystem import HedgedRead, MiniDfs
from repro.dfs.jsonlines import decode_line
from repro.graph.bipartite import BipartiteGraph
from repro.graph.csr import CSR, position
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


#: a follow record's ``dst_type``, by its code (the strings' own order,
#: so a row of startups then users is sorted by ``(dst_type, dst_id)``)
FOLLOW_TYPES = ("startup", "user")
_TYPE_CODE = {name: code for code, name in enumerate(FOLLOW_TYPES)}
#: follow target ids live in ``int32`` columns: ``0 <= dst_id < 2**31``
_ID_LIMIT = 2 ** 31
#: one follow record as :func:`_follow_part` decodes it
_FOLLOW_ROW = np.dtype([("src", np.int64), ("code", np.uint8),
                        ("dst", np.int64)])
#: which ``int32`` half of an ``int64`` holds its low 32 bits
_LOW_WORD = 0 if sys.byteorder == "little" else 1
#: an edge key's target-type bit, and the mask of its target id
_USER_BIT = 1 << 31
_ID_MASK = _USER_BIT - 1
#: the graph of an index with no rows (immutable, so shared)
_NO_ROWS = CSR([0], [], _ID_LIMIT)

#: a user's ``(followed user ids, followed company ids)``
Targets = Tuple[Sequence[int], Sequence[int]]
#: the targets of a user with no row
NO_TARGETS: Targets = ((), ())


class FollowIndex:
    """The follow graph: each user's out-row and each target's follower
    count.

    The rows take the world's follow-graph layout: ``_users`` (sorted
    ``int64`` ids; ``_users[r]`` owns row ``r``) and two :class:`CSR`
    graphs over those rows, ``_startups`` and ``_followed`` (the followed
    company and user ids, ascending ``int32``). The in-counts are
    ``_count_keys`` (sorted ``2 * dst_id + is_user``) with ``_counts``.
    Callers see a read-only mapping of user id → sorted ``[(dst_type,
    dst_id)]`` row plus the methods below; nothing outside this module
    knows the arrays. A look-up bisects the ``_users`` memoryview and
    reads Python ints through :meth:`CSR.ids`.
    """

    __slots__ = ("_users", "_startups", "_followed", "_count_keys",
                 "_counts")

    def __init__(self, users=(), startups: CSR = _NO_ROWS,
                 followed: CSR = _NO_ROWS, count_keys=(), counts=()):
        self._users = memoryview(np.asarray(users, dtype=np.int64))
        self._startups, self._followed = startups, followed
        self._count_keys = memoryview(np.asarray(count_keys, np.int64))
        self._counts = memoryview(np.asarray(counts, np.int64))

    # -------------------------------------------------------- constructors
    @classmethod
    def _from_keys(cls, keys: np.ndarray, count_keys=None,
                   counts=None) -> "FollowIndex":
        """Index the edges ``keys`` (:func:`_edge_key`; ``int64``, any
        order; sorted in place, a repeated edge kept once). Their follower
        counts are the edges' own unless ``count_keys``/``counts`` (any
        order) are given.

        The two words of a key are read as views, and ``keys`` is let go
        once the rows are found: past it, every temporary is one ``int32``
        or flag an edge. Pass the only reference to ``keys``.
        """
        keys.sort()
        if len(keys) > 1:
            repeat = keys[1:] == keys[:-1]
            if repeat.any():
                keys = keys[np.concatenate(([True], ~repeat))]
            del repeat
        words = keys.view(np.int32).reshape(-1, 2)
        src = words[:, 1 - _LOW_WORD]
        starts, degrees = _runs(src)
        users = src[starts]
        # a row lists its startups, then its users: its first user edge
        # is the first key at or above (user, is_user=1, dst_id=0)
        first_user = np.searchsorted(keys, (users.astype(np.int64) << 32)
                                     | _USER_BIT)
        # is_user * 2**31 + dst_id: negative for a followed user
        targets = words[:, _LOW_WORD].copy()
        del keys, words, src
        is_user = targets < 0
        sides = [targets[~is_user], targets[is_user]]
        del targets, is_user
        graphs = []
        for ids, degree in zip(sides, (first_user - starts,
                                       starts + degrees - first_user)):
            ids &= _ID_MASK
            graphs.append(CSR(np.concatenate(([0], np.cumsum(degree))),
                              ids, _ID_LIMIT))
        del sides
        if count_keys is None:
            count_keys, counts = map(np.concatenate, zip(*(
                _target_counts(graph.indices, code)
                for code, graph in enumerate(graphs))))
        order = np.argsort(count_keys, kind="stable")
        count_keys, counts = (np.asarray(count_keys)[order],
                              np.asarray(counts)[order])
        return cls(users, *graphs, count_keys, counts)

    @classmethod
    def from_rows(cls, rows: Dict[int, Iterable[Tuple[str, int]]],
                  follower_counts: Optional[Dict[Tuple[str, int], int]]
                  = None) -> "FollowIndex":
        """From ``user → [(dst_type, dst_id)]`` rows (and, if given,
        ``(dst_type, dst_id) → count``; else the rows' own counts)."""
        keys = np.array([_edge_key(src, *_target(dst_type, dst_id))
                         for src, row in rows.items()
                         for dst_type, dst_id in row], dtype=np.int64)
        if follower_counts is None:
            return cls._from_keys(keys)
        count_keys = [2 * dst_id + code for code, dst_id
                      in (_target(*target) for target in follower_counts)]
        return cls._from_keys(keys, count_keys,
                              list(follower_counts.values()))

    @classmethod
    def from_parts(cls, dfs: MiniDfs, directory: str,
                   part_records: Dict[str, int]) -> "FollowIndex":
        """Index a landed ``follow_edges`` dataset, counting its records
        per part into ``part_records``.

        Each part is decoded once into one ``int64`` key per edge,
        appended to one growing buffer; no per-edge Python object
        outlives its part. A record whose ``dst_type`` is neither
        ``startup`` nor ``user``, or whose ``src_user`` or ``dst_id`` is
        not in ``[0, 2**31)``, raises :class:`StorageError` naming the
        part and the line.
        """
        return cls._from_keys(_follow_keys(dfs, directory, part_records))

    @classmethod
    def from_doc(cls, doc: Dict[str, Dict]) -> "FollowIndex":
        """Inverse of :meth:`to_doc`."""
        counts = {}
        for key, count in doc["follower_counts"].items():
            dst_type, _, dst_id = key.rpartition(":")
            counts[(dst_type, int(dst_id))] = count
        return cls.from_rows({int(k): row
                              for k, row in doc["follows_out"].items()},
                             counts)

    # -------------------------------------------------------------- queries
    def targets(self, uid: int) -> Targets:
        """``(followed user ids, followed company ids)`` of a user, each
        ascending; both empty for a user with no row."""
        row = position(self._users, uid)
        if row < 0:
            return NO_TARGETS
        return self._followed.ids(row), self._startups.ids(row)

    def get(self, uid: int, default: Any = None) -> Any:
        """The user's row as a sorted ``[(dst_type, dst_id)]`` list."""
        if position(self._users, uid) < 0:
            return default
        users, companies = self.targets(uid)
        return ([("startup", c) for c in companies]
                + [("user", u) for u in users])

    def out_degree(self, uid: int) -> int:
        row = position(self._users, uid)
        return 0 if row < 0 else (self._startups.degree[row]
                                  + self._followed.degree[row])

    def followers(self, dst_type: str, dst_id: int) -> int:
        """How many follow edges point at ``(dst_type, dst_id)``."""
        at = position(self._count_keys,
                      2 * int(dst_id) + _TYPE_CODE[dst_type])
        return 0 if at < 0 else self._counts[at]

    def __iter__(self) -> Iterator[int]:
        """User ids with a row, ascending, as Python ints."""
        return iter(self._users.tolist())

    def __len__(self) -> int:
        return len(self._users)

    @property
    def num_edges(self) -> int:
        return self._startups.num_edges + self._followed.num_edges

    @property
    def nbytes(self) -> int:
        """Bytes held by every array, the graphs' degrees included."""
        return sum(part.nbytes for part in (
            self._users, self._startups, self._followed, self._count_keys,
            self._counts))

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, FollowIndex):
            return NotImplemented
        return self.to_doc() == other.to_doc()

    def __repr__(self) -> str:
        return (f"FollowIndex(users={len(self)}, edges={self.num_edges}, "
                f"targets={len(self._count_keys)})")

    # ------------------------------------------------------ shards, codec
    def split(self, owner: Callable[[int], int],
              num_shards: int) -> List["FollowIndex"]:
        """One index per shard: a row goes to ``owner(user id)``, a
        follower count to ``owner(dst_id)``."""
        users = np.asarray(self._users)
        keys, counts = np.asarray(self._count_keys), np.asarray(self._counts)
        row_owner = np.fromiter(map(owner, users.tolist()), np.int64,
                                len(users))
        count_owner = np.fromiter(map(owner, (keys >> 1).tolist()),
                                  np.int64, len(keys))
        return [FollowIndex(users[rows], self._startups.select(rows),
                            self._followed.select(rows), keys[counted],
                            counts[counted])
                for rows, counted in ((row_owner == sid, count_owner == sid)
                                      for sid in range(num_shards))]

    def to_doc(self) -> Dict[str, Dict]:
        """The persisted form: ``follows_out`` maps a decimal user id to
        its ``[[dst_type, dst_id], …]`` row, ``follower_counts`` maps
        ``"dst_type:dst_id"`` to its count."""
        return {"follows_out": self.follows_out_doc(),
                "follower_counts": self.follower_counts_doc()}

    def follows_out_doc(self) -> Dict[str, List[List]]:
        """:meth:`to_doc`'s ``follows_out``, built alone."""
        (c_ids, c_at), (u_ids, u_at) = (
            (graph.indices.tolist(), graph.indptr.tolist())
            for graph in (self._startups, self._followed))
        return {
            str(uid): ([["startup", i] for i in c_ids[c0:c1]]
                       + [["user", i] for i in u_ids[u0:u1]])
            for uid, c0, c1, u0, u1 in zip(self._users.tolist(), c_at,
                                           c_at[1:], u_at, u_at[1:])}

    def follower_counts_doc(self) -> Dict[str, int]:
        """:meth:`to_doc`'s ``follower_counts``, built alone."""
        return {f"{FOLLOW_TYPES[key & 1]}:{key >> 1}": count
                for key, count in zip(self._count_keys.tolist(),
                                      self._counts.tolist())}


def _follow_keys(dfs: MiniDfs, directory: str,
                 part_records: Dict[str, int]) -> np.ndarray:
    """The edge keys of every follow part under ``directory``, in one
    array, counting records per part into ``part_records``.

    The keys go into an ``array("q")``, which grows in place by about
    1/16 at a time, where joining the parts' arrays would hold every key
    twice.
    """
    keys = array("q")
    for path in _parts_of(dfs, directory):
        part = _follow_part(path, dfs.read(path).decode("utf-8"))
        part_records[path] = len(part)
        keys.frombytes(memoryview(part).cast("B"))
    return np.frombuffer(keys, dtype=np.int64)


def _follow_part(path: str, text: str) -> np.ndarray:
    """The edge keys (:func:`_edge_key`) of one follow part; each
    decoded record dies with its row."""
    rows = np.fromiter(
        ((r["src_user"], _TYPE_CODE.get(r["dst_type"], 255), r["dst_id"])
         for r in map(decode_line, filter(None, text.splitlines()))),
        _FOLLOW_ROW)
    src, codes, dst_ids = rows["src"], rows["code"], rows["dst"]
    bad = np.flatnonzero((codes == 255) | (src < 0) | (src >= _ID_LIMIT)
                         | (dst_ids < 0) | (dst_ids >= _ID_LIMIT))
    if len(bad):
        number = _line_number(text, int(bad[0]))
        record = decode_line(text.splitlines()[number - 1])
        where = f"{path} line {number}: "
        if not 0 <= record["src_user"] < _ID_LIMIT:
            raise StorageError(f"{where}follow record src_user "
                               f"{record['src_user']} is not in [0, 2**31)")
        _target(record["dst_type"], record["dst_id"], where)
    keys = src << 32
    keys += dst_ids
    keys += codes.astype(np.int64) << 31
    return keys


def _edge_key(src: int, code: int, dst_id: int) -> int:
    """One edge's key, ``src * 2**32 + code * 2**31 + dst_id``: keys sort
    by follower, then target type, then target id."""
    return (src << 32) + (code << 31) + dst_id


def _target_counts(ids: np.ndarray, code: int,
                   ) -> Tuple[np.ndarray, np.ndarray]:
    """``(2 * dst_id + code, edges)`` of each distinct id in ``ids``."""
    ordered = np.sort(ids)
    at, counts = _runs(ordered)
    return 2 * ordered[at].astype(np.int64) + code, counts


def _runs(values: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
    """``(start, length)`` of each run of equal values in the sorted
    ``values``, as ``int64`` columns."""
    fresh = np.empty(len(values), dtype=bool)
    fresh[:1] = True
    np.not_equal(values[1:], values[:-1], out=fresh[1:])
    starts = np.flatnonzero(fresh)
    del fresh
    return starts, np.diff(starts, append=len(values))


def _target(dst_type: str, dst_id: int, where: str = "") -> Tuple[int, int]:
    """``(type code, id)`` of a follow target, or :class:`StorageError`
    (its message led by ``where``)."""
    code = _TYPE_CODE.get(dst_type)
    if code is None:
        raise StorageError(f"{where}follow record dst_type {dst_type!r} is "
                           f"not one of {FOLLOW_TYPES}")
    dst_id = int(dst_id)
    if not 0 <= dst_id < _ID_LIMIT:
        raise StorageError(f"{where}follow record dst_id {dst_id} is not in "
                           f"[0, 2**31)")
    return code, dst_id


def _line_number(text: str, index: int) -> int:
    """1-based line of ``text`` holding its ``index``-th non-empty line
    (the position :func:`~repro.dfs.jsonlines.decode_lines` gives that
    record)."""
    numbers = [n for n, line in enumerate(text.splitlines(), 1) if line]
    return numbers[index]


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
    #: the follow graph: user → sorted [(dst_type, dst_id)] rows, and
    #: each (dst_type, dst_id)'s follower count
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
        ds.follows_out = FollowIndex.from_parts(
            dfs, f"{angellist_root}/follow_edges", ds.part_records)

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
