"""The crawled follow graph as one columnar index, decoded once from the
landed ``follow_edges`` parts: Figure 3's follow count sums its degrees,
and the serve tier, its shards and the standing queries read its rows.
"""

from __future__ import annotations

import sys
from array import array
from itertools import islice
from typing import (Any, Callable, Dict, Iterable, Iterator, List,
                    Optional, Sequence, Tuple)

import numpy as np

from repro.dfs.filesystem import MiniDfs
from repro.dfs.jsonlines import decode_line
from repro.graph.csr import CSR, position
from repro.util.errors import ConfigError, StorageError

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
    reads Python ints through :meth:`CSR.ids`. ``part_records`` holds
    the record count of each part :meth:`from_parts` decoded.
    """

    __slots__ = ("_users", "_startups", "_followed", "_count_keys",
                 "_counts", "part_records")

    def __init__(self, users=(), startups: CSR = _NO_ROWS,
                 followed: CSR = _NO_ROWS, count_keys=(), counts=()):
        self._users = memoryview(np.asarray(users, dtype=np.int64))
        self._startups, self._followed = startups, followed
        self._count_keys = memoryview(np.asarray(count_keys, np.int64))
        self._counts = memoryview(np.asarray(counts, np.int64))
        self.part_records: Dict[str, int] = {}

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
    def from_parts(cls, dfs: MiniDfs, directory: str) -> "FollowIndex":
        """Index a landed ``follow_edges`` dataset, counting its records
        per part into the index's ``part_records``.

        Each part is read once and decoded a few lines at a time into
        one ``int64`` key per edge, appended to one growing buffer; no
        per-edge Python object outlives its line. A record whose
        ``dst_type`` is neither ``startup`` nor ``user``, or whose
        ``src_user`` or ``dst_id`` is not in ``[0, 2**31)``, raises
        :class:`StorageError` naming the part and the line.
        """
        part_records: Dict[str, int] = {}
        index = cls._from_keys(_follow_keys(dfs, directory, part_records))
        index.part_records = part_records
        return index

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

    def startup_follows(self, uids: Iterable[int]) -> int:
        """The sum of the startup degrees of the rows of ``uids`` (a
        repeated id counts once, an id without a row adds nothing)."""
        rows = np.isin(np.asarray(self._users),
                       np.fromiter(uids, np.int64))
        return int(np.asarray(self._startups.degree)[rows].sum(
            dtype=np.int64))

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
    paths = dfs.glob_parts(directory)
    if not paths:
        raise ConfigError(f"no part files under {directory}; "
                          f"run the crawl before indexing its follows")
    keys = array("q")
    for path in paths:
        part = _follow_part(path, dfs.read(path))
        part_records[path] = len(part)
        keys.frombytes(memoryview(part).cast("B"))
    return np.frombuffer(keys, dtype=np.int64)


def _follow_part(path: str, data: bytes) -> np.ndarray:
    """The edge keys (:func:`_edge_key`) of one follow part's bytes;
    each decoded line and record dies with its row."""
    rows = np.fromiter(
        ((r["src_user"], _TYPE_CODE.get(r["dst_type"], 255), r["dst_id"])
         for r in map(decode_line, filter(None, _lines(data)))),
        _FOLLOW_ROW)
    src, codes, dst_ids = rows["src"], rows["code"], rows["dst"]
    bad = np.flatnonzero((codes == 255) | (src < 0) | (src >= _ID_LIMIT)
                         | (dst_ids < 0) | (dst_ids >= _ID_LIMIT))
    if len(bad):
        numbered = ((number, line)
                    for number, line in enumerate(_lines(data), 1) if line)
        number, line = next(islice(numbered, int(bad[0]), None))
        record = decode_line(line)
        where = f"{path} line {number}: "
        if not 0 <= record["src_user"] < _ID_LIMIT:
            raise StorageError(f"{where}follow record src_user "
                               f"{record['src_user']} is not in [0, 2**31)")
        _target(record["dst_type"], record["dst_id"], where)
    keys = src << 32
    keys += dst_ids
    keys += codes.astype(np.int64) << 31
    return keys


def _lines(data: bytes) -> Iterator[str]:
    """``data.decode().splitlines()``, decoded 16 KiB (to the next
    newline) at a time: never a string of the whole part or its lines."""
    start = 0
    while start < len(data):
        end = data.find(b"\n", start + (1 << 14)) + 1 or len(data)
        yield from data[start:end].decode("utf-8").splitlines()
        start = end


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
