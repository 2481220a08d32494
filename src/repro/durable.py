"""The durable kernel: an append-only event log and a cached lease table.

What the continuous tiers recover after a crash has one of two shapes:
*history* — ledger intents/commits, registry lifecycle events, an upsert
dataset's delta chain — is an :class:`EventLog` whose state is the fold
of its records; *ownership* — who may run an ingest unit or deliver to a
subscriber — is a :class:`LeaseTable` of small rewritable files fenced
by epochs. A handle keeps what it last read or wrote and re-reads only
when an O(1) check says another writer moved it (the next sequence file
exists; a file's :meth:`~repro.dfs.MiniDfs.generation` changed), so a
handle that owns its state reads nothing back while every mutation is
still durable before the call returns. Every such mutation is a
:func:`write_doc` or a ``MiniDfs.delete`` in this module.
"""

from __future__ import annotations

import posixpath
from dataclasses import dataclass, replace
from typing import Any, Callable, Container, Dict, List, Optional, Tuple

from repro.dfs.filesystem import MiniDfs
from repro.dfs.jsonlines import decode_line, encode_record
from repro.util.clock import Clock
from repro.util.errors import IngestError, LeaseExpired


def write_doc(dfs: MiniDfs, path: str, doc: Any,
              exclusive: bool = False) -> int:
    """Publish one JSON document atomically; returns its generation.
    ``exclusive`` refuses (:class:`StorageError`) an existing ``path``."""
    dfs.write_atomic(path, encode_record(doc).encode("ascii"),
                     overwrite=not exclusive)
    return dfs.generation(path)


def read_doc(dfs: MiniDfs, path: str) -> Any:
    """One checksum-verified JSON document written by :func:`write_doc`."""
    return decode_line(dfs.read_text(path))


class EventLog:
    """An append-only log of JSON records, one file per sequence number.

    The owner's state is the fold of the log: ``reset(state)`` starts it
    over from a checkpoint's state (``None``: from nothing), ``fold``
    adds one record in sequence order. Crash points: an append is a
    temp write (invisible, swept by ``MiniDfs.sweep_temps``) then the
    rename that publishes it; a checkpoint is written whole before the
    records it covers are deleted, and replay skips any a crash left.
    """

    def __init__(self, dfs: MiniDfs, root: str,
                 reset: Callable[[Optional[Dict]], None],
                 fold: Callable[[Dict], None]):
        self.dfs = dfs
        self.root = root.rstrip("/")
        self.checkpoint_path = f"{self.root}/CHECKPOINT.json"
        self._reset = reset
        self._fold = fold
        #: the highest sequence number folded into the owner's state
        self.seq = 0
        #: the checkpoint's generation the state starts from (-1: unread)
        self._generation: Optional[int] = -1

    def path(self, seq: int) -> str:
        return f"{self.root}/rec-{seq:08d}.json"

    @property
    def has_checkpoint(self) -> bool:
        return self._generation not in (None, -1)

    def refresh(self) -> None:
        """Fold what other handles wrote: only records past :attr:`seq`
        while the state's checkpoint is current (it is a prefix of the
        log), all from a new checkpoint otherwise. A failed read leaves
        the state at the records before it."""
        generation = self.dfs.generation(self.checkpoint_path)
        if generation != self._generation:
            checkpoint = (None if generation is None
                          else read_doc(self.dfs, self.checkpoint_path))
            self._reset(None if checkpoint is None else checkpoint["state"])
            self.seq = 0 if checkpoint is None else checkpoint["seq"]
            self._generation = generation
        while self.dfs.exists(self.path(self.seq + 1)):
            self._fold(read_doc(self.dfs, self.path(self.seq + 1)))
            self.seq += 1

    def append(self, record: Dict) -> Dict:
        """Publish ``record`` (``seq`` added) as the next number and fold
        it without reading it back. Refresh first: a number another
        writer holds fails (:class:`StorageError`), never overwrites.
        That guards this record only, not files it names."""
        record = dict(record, seq=self.seq + 1)
        write_doc(self.dfs, self.path(record["seq"]), record, exclusive=True)
        self._fold(record)
        self.seq = record["seq"]
        return record

    def checkpoint(self, state: Dict) -> None:
        """Make ``state`` — the fold of every record up to :attr:`seq` —
        the log's start, restart the owner from it, and delete the
        records it covers."""
        self._generation = write_doc(self.dfs, self.checkpoint_path,
                                     {"seq": self.seq, "state": state})
        self._reset(state)
        for path in self.dfs.listdir(self.root):
            name = posixpath.basename(path)
            if name.startswith("rec-") and int(name[4:-5]) <= self.seq:
                self.dfs.delete(path)


@dataclass(frozen=True)
class Lease:
    """Ownership of one unit of work, bounded in time, fenced by epoch."""

    unit: str
    owner: str
    epoch: int
    expires_at: float

    def expired(self, now: float) -> bool:
        return now >= self.expires_at


class LeaseTable:
    """Leases with fencing epochs, one file per unit under ``root``.

    Heartbeats extend a live lease; an expired one is taken over with
    the epoch bumped, fencing off its previous owner. The handle keeps
    the checksum-verified lease it last read or wrote per file, and
    reads the file again only when its generation moved.
    """

    def __init__(self, dfs: MiniDfs, clock: Clock, root: str,
                 ttl_s: float):
        if ttl_s <= 0:
            raise IngestError("lease ttl must be > 0")
        self.dfs = dfs
        self.clock = clock
        self.root = root.rstrip("/")
        self.ttl_s = ttl_s
        self._known: Dict[str, Tuple[int, Lease]] = {}  # path -> as seen

    def _path(self, unit: str) -> str:
        # unit ids use ':'/'-' freely; only '/' would change the namespace
        return f"{self.root}/{unit.replace('/', '_')}.json"

    def _load(self, path: str) -> Optional[Lease]:
        generation = self.dfs.generation(path)
        if generation is None:
            self._known.pop(path, None)
            return None
        known = self._known.get(path)
        if known is not None and known[0] == generation:
            return known[1]
        lease = Lease(**read_doc(self.dfs, path))
        self._known[path] = (generation, lease)
        return lease

    def _store(self, lease: Lease) -> Lease:
        path = self._path(lease.unit)
        self._known[path] = (write_doc(self.dfs, path, vars(lease)), lease)
        return lease

    def _drop(self, unit: str) -> None:
        self.dfs.delete(self._path(unit))
        self._known.pop(self._path(unit), None)

    def lease_of(self, unit: str) -> Optional[Lease]:
        return self._load(self._path(unit))

    def holds(self, unit: str, owner: str,
              epoch: Optional[int] = None) -> bool:
        """Whether ``owner`` holds a live lease on ``unit`` (at ``epoch``
        when given) — the fence a commit must pass."""
        lease = self.lease_of(unit)
        return (lease is not None and lease.owner == owner
                and epoch in (None, lease.epoch)
                and not lease.expired(self.clock.now()))

    def acquire(self, unit: str, owner: str,
                ttl_s: Optional[float] = None) -> Optional[Lease]:
        """Take (or re-take) ``unit`` for ``owner``, bumping the epoch;
        ``None`` while a *different* owner holds a live lease."""
        now = self.clock.now()
        existing = self.lease_of(unit)
        if (existing is not None and existing.owner != owner
                and not existing.expired(now)):
            return None
        epoch = existing.epoch + 1 if existing is not None else 1
        return self._store(Lease(unit, owner, epoch,
                                 now + (ttl_s or self.ttl_s)))

    def heartbeat(self, lease: Lease,
                  ttl_s: Optional[float] = None) -> Lease:
        """Extend a held lease; :class:`LeaseExpired` when it is no
        longer this owner's at this epoch, or has already expired."""
        if not self.holds(lease.unit, lease.owner, lease.epoch):
            raise LeaseExpired(f"lease on {lease.unit} lost by "
                               f"{lease.owner} (epoch {lease.epoch})")
        return self._store(replace(
            lease, expires_at=self.clock.now() + (ttl_s or self.ttl_s)))

    def release(self, lease: Lease) -> bool:
        """Drop a held lease, unless someone else took it over; returns
        whether ours was removed."""
        current = self.lease_of(lease.unit)
        if current is None or (current.owner, current.epoch) != (
                lease.owner, lease.epoch):
            return False
        self._drop(lease.unit)
        return True

    def expire(self, unit: str) -> None:
        """Make the lease on ``unit`` lapse now (chaos injection: the
        owner's heartbeats stopped arriving)."""
        current = self.lease_of(unit)
        if current is not None:
            self._store(replace(current, expires_at=self.clock.now()))

    def leases(self) -> List[Lease]:
        return [self._load(path) for path in self.dfs.listdir(self.root)
                if path.endswith(".json")]

    def reclaim(self, settled: Container[str]) -> List[str]:
        """Units whose lease lapsed before their work ``settled`` — the
        redelivery candidates. The lease *file* stays as the fencing
        floor: deleting it would restart the epoch at 1 and let a
        straggler from the dead owner slip a stale commit past it."""
        now = self.clock.now()
        return sorted({l.unit for l in self.leases()
                       if l.expired(now) and l.unit not in settled})

    def gc(self, settled: Container[str]) -> int:
        """Delete the leases of ``settled`` units, whose fencing duty is
        over (left by a crash between commit and release); how many."""
        done = [l.unit for l in self.leases() if l.unit in settled]
        for unit in done:
            self._drop(unit)
        return len(done)
