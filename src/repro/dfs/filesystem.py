"""Namenode + datanode simulation with block replication.

Semantics follow HDFS where it matters to the rest of the system:

* files are write-once byte streams split into fixed-size blocks;
* each block carries a CRC32 checksum; reads verify every replica and
  transparently *read-repair* a corrupt one from a healthy sibling;
* each block is replicated onto ``replication`` distinct datanodes;
* reading prefers any live, checksum-clean replica and raises only when
  *all* replicas of some block are corrupt or on dead nodes;
* :meth:`MiniDfs.rereplicate` restores under-replicated blocks, the way
  the HDFS namenode does after it declares a datanode dead;
* :meth:`MiniDfs.write_atomic` is the commit protocol for checkpoints
  and dataset parts: the payload lands under a hidden temp name and a
  metadata-only rename publishes it, so a crash mid-write leaves the
  previous version (or nothing) — never a torn file.

Paths are POSIX-style (``/crawl/angellist/startups/part-00000.jsonl``).
"""

from __future__ import annotations

import posixpath
import zlib
from bisect import bisect_left, insort
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

from repro.util.errors import NotFoundError, StorageError
from repro.util.rng import RngStream

DEFAULT_BLOCK_SIZE = 64 * 1024
DEFAULT_REPLICATION = 3


@dataclass
class BlockInfo:
    """Namenode metadata for one block of one file."""

    block_id: int
    length: int
    locations: List[str] = field(default_factory=list)
    checksum: int = 0  # CRC32 of the block payload


@dataclass
class HedgedRead:
    """Result of :meth:`MiniDfs.read_hedged`: payload + simulated cost."""

    data: bytes
    elapsed_s: float
    hedges_launched: int
    hedges_won: int
    #: loser reads abandoned once the winner answered — work a real
    #: cluster still paid for on the losing replica
    wasted_reads: int = 0


@dataclass
class FileStatus:
    """What ``stat`` returns: path, length, block layout."""

    path: str
    length: int
    block_size: int
    replication: int
    blocks: List[BlockInfo] = field(default_factory=list)


class DataNode:
    """Stores block payloads; can be killed and restarted."""

    def __init__(self, node_id: str):
        self.node_id = node_id
        self.alive = True
        #: simulated per-read latency of this node, in seconds — the
        #: serve tier's hedged reads race replicas against it (a node
        #: can be "slow but alive", the classic tail-latency culprit)
        self.latency_s = 0.0
        self._blocks: Dict[int, bytes] = {}

    def put(self, block_id: int, data: bytes) -> None:
        if not self.alive:
            raise StorageError(f"datanode {self.node_id} is down")
        self._blocks[block_id] = data

    def get(self, block_id: int) -> bytes:
        if not self.alive:
            raise StorageError(f"datanode {self.node_id} is down")
        if block_id not in self._blocks:
            raise StorageError(
                f"datanode {self.node_id} does not hold block {block_id}")
        return self._blocks[block_id]

    def has(self, block_id: int) -> bool:
        return self.alive and block_id in self._blocks

    def drop(self, block_id: int) -> None:
        self._blocks.pop(block_id, None)

    @property
    def block_count(self) -> int:
        return len(self._blocks)


def _normalize(path: str) -> str:
    if not path.startswith("/"):
        raise StorageError(f"paths must be absolute, got {path!r}")
    norm = posixpath.normpath(path)
    return norm


class MiniDfs:
    """The facade: create/read/list/delete files over simulated datanodes."""

    def __init__(self, num_datanodes: int = 4,
                 block_size: int = DEFAULT_BLOCK_SIZE,
                 replication: int = DEFAULT_REPLICATION,
                 seed: int = 0):
        if num_datanodes < 1:
            raise StorageError("need at least one datanode")
        self.block_size = block_size
        self.replication = min(replication, num_datanodes)
        self.datanodes: Dict[str, DataNode] = {
            f"dn{i}": DataNode(f"dn{i}") for i in range(num_datanodes)}
        self._files: Dict[str, FileStatus] = {}
        #: the keys of ``_files`` in sorted order: a pseudo-directory is
        #: a contiguous range of it, found by bisection
        self._paths: List[str] = []
        self._next_block_id = 0
        self._next_tmp_id = 0
        self._rng = RngStream(seed, "dfs")
        #: lifetime integrity counters
        self.checksum_failures = 0
        self.blocks_repaired = 0
        #: lifetime hedged-read counters (serve tier tail-latency cuts)
        self.hedges_launched = 0
        self.hedges_won = 0
        #: every launched hedge leaves one abandoned loser read behind:
        #: the replica that lost the race did its disk work for nothing
        self.hedge_wasted_reads = 0

    # -- write ---------------------------------------------------------------
    def create(self, path: str, data: bytes) -> FileStatus:
        """Write a new file; fails if the path already exists."""
        path = _normalize(path)
        if path in self._files:
            raise StorageError(f"file already exists: {path}")
        status = FileStatus(path=path, length=len(data),
                            block_size=self.block_size,
                            replication=self.replication)
        for offset in range(0, max(1, len(data)), self.block_size):
            chunk = data[offset:offset + self.block_size]
            status.blocks.append(self._store_block(chunk))
        self._files[path] = status
        insort(self._paths, path)
        return status

    def create_text(self, path: str, text: str) -> FileStatus:
        return self.create(path, text.encode("utf-8"))

    def _store_block(self, chunk: bytes) -> BlockInfo:
        block_id = self._next_block_id
        self._next_block_id += 1
        live = [dn for dn in self.datanodes.values() if dn.alive]
        if len(live) < 1:
            raise StorageError("no live datanodes")
        want = min(self.replication, len(live))
        targets = self._rng.sample(live, want)
        for node in targets:
            node.put(block_id, chunk)
        return BlockInfo(block_id=block_id, length=len(chunk),
                         locations=[n.node_id for n in targets],
                         checksum=zlib.crc32(chunk))

    # -- read ----------------------------------------------------------------
    def read(self, path: str) -> bytes:
        path = _normalize(path)
        status = self._files.get(path)
        if status is None:
            raise NotFoundError(f"no such file: {path}")
        parts = []
        for block in status.blocks:
            parts.append(self._fetch_block(block))
        return b"".join(parts)

    def read_text(self, path: str) -> str:
        return self.read(path).decode("utf-8")

    def _fetch_block(self, block: BlockInfo) -> bytes:
        """Return a checksum-verified replica, repairing corrupt ones.

        Replicas are tried in location order; a replica whose CRC32 does
        not match the namenode's record is skipped (and counted). Once a
        clean replica is found, every corrupt sibling seen on the way is
        overwritten with the good bytes — HDFS-style read-repair.
        """
        corrupt_nodes: List[DataNode] = []
        for node_id in block.locations:
            node = self.datanodes[node_id]
            if not node.has(block.block_id):
                continue
            try:
                data = node.get(block.block_id)
            except StorageError:
                continue  # node died between has() and get()
            if zlib.crc32(data) != block.checksum:
                self.checksum_failures += 1
                corrupt_nodes.append(node)
                continue
            for bad in corrupt_nodes:
                bad.put(block.block_id, data)
                self.blocks_repaired += 1
            return data
        if corrupt_nodes:
            raise StorageError(
                f"block {block.block_id} unreadable: every live replica "
                f"failed its checksum")
        raise StorageError(
            f"block {block.block_id} unavailable: all replicas down")

    # -- hedged read -----------------------------------------------------------
    def set_datanode_latency(self, node_id: str, seconds: float) -> None:
        """Make one datanode slow (chaos injection for hedged reads)."""
        if seconds < 0:
            raise StorageError(f"latency must be >= 0, got {seconds}")
        node = self.datanodes.get(node_id)
        if node is None:
            raise NotFoundError(f"no such datanode: {node_id}")
        node.latency_s = seconds

    def covering_blocks(self, path: str, offset: int = 0,
                        length: Optional[int] = None,
                        ) -> Tuple[List[BlockInfo], int]:
        """The blocks holding bytes ``[offset, offset + length)`` of a file.

        Returns ``(blocks, skip)``: the covering blocks in file order and
        the range's offset inside the first of them. ``length=None``
        runs to end-of-file; the whole-file range is every block (an
        empty file's single empty block included). This is the one
        place a byte range maps to blocks — :meth:`read_hedged` fetches
        exactly these and the serve tier's deadline gate prices exactly
        these. Raises :class:`StorageError` on a range outside the file.
        """
        status = self.stat(path)
        if length is None:
            length = status.length - offset
        if offset < 0 or length < 0 or offset + length > status.length:
            raise StorageError(
                f"range [{offset}, {offset + length}) is outside {path} "
                f"({status.length} bytes)")
        if length == status.length:
            return status.blocks, 0
        if length == 0:
            return [], 0
        first = offset // status.block_size
        last = (offset + length - 1) // status.block_size
        return (status.blocks[first:last + 1],
                offset - first * status.block_size)

    def read_hedged(self, path: str, hedge_after_s: float = 0.03,
                    offset: int = 0, length: Optional[int] = None,
                    ) -> HedgedRead:
        """Read with hedged requests against slow replicas.

        For each block the primary replica (first live holder, as in
        :meth:`read`) is tried first; when it has not answered within
        ``hedge_after_s`` a hedge is launched at the next replica and
        whichever answers first wins — the standard tail-at-scale trick.
        Timing is simulated from each datanode's ``latency_s``, so the
        returned ``elapsed_s`` is deterministic and the caller (the
        serve tier) charges it to its own clock. Checksums still apply:
        a corrupt winner pays its latency, then falls back to the strict
        failover/read-repair path of :meth:`read`.

        With ``offset``/``length`` this is a positional read (HDFS
        ``pread``): only the :meth:`covering_blocks` of the range are
        fetched, CRC-verified whole, hedged, read-repaired and charged
        to ``elapsed_s``; blocks outside the range are not touched, and
        ``data`` is exactly the requested bytes.
        """
        blocks, skip = self.covering_blocks(path, offset, length)
        parts: List[bytes] = []
        elapsed = 0.0
        launched = 0
        won = 0
        for block in blocks:
            holders = [self.datanodes[nid] for nid in block.locations
                       if self.datanodes[nid].has(block.block_id)]
            if not holders:
                parts.append(self._fetch_block(block))  # raises clearly
                continue
            choice = holders[0]
            cost = choice.latency_s
            if len(holders) > 1 and choice.latency_s > hedge_after_s:
                launched += 1
                hedged_cost = hedge_after_s + holders[1].latency_s
                if hedged_cost < cost:
                    choice, cost, won = holders[1], hedged_cost, won + 1
            data = choice.get(block.block_id)
            elapsed += cost
            if zlib.crc32(data) != block.checksum:
                # pay for the other replicas too, then let the strict
                # path count the failure and read-repair the damage
                elapsed += sum(h.latency_s for h in holders
                               if h is not choice)
                data = self._fetch_block(block)
            parts.append(data)
        self.hedges_launched += launched
        self.hedges_won += won
        self.hedge_wasted_reads += launched
        end = None if length is None else skip + length
        return HedgedRead(data=b"".join(parts)[skip:end], elapsed_s=elapsed,
                          hedges_launched=launched, hedges_won=won,
                          wasted_reads=launched)

    # -- namespace -------------------------------------------------------------
    def exists(self, path: str) -> bool:
        return _normalize(path) in self._files

    def generation(self, path: str) -> Optional[int]:
        """The id of a file's first block (``None``: no file). Block ids
        are never reused, so an unchanged generation means unchanged
        bytes — a freshness check that reads nothing."""
        status = self._files.get(_normalize(path))
        return None if status is None else status.blocks[0].block_id

    def stat(self, path: str) -> FileStatus:
        path = _normalize(path)
        status = self._files.get(path)
        if status is None:
            raise NotFoundError(f"no such file: {path}")
        return status

    def delete(self, path: str) -> None:
        path = _normalize(path)
        status = self._files.pop(path, None)
        if status is None:
            raise NotFoundError(f"no such file: {path}")
        del self._paths[bisect_left(self._paths, path)]
        for block in status.blocks:
            for node_id in block.locations:
                self.datanodes[node_id].drop(block.block_id)

    def listdir(self, prefix: str) -> List[str]:
        """All file paths under ``prefix`` (a pseudo-directory), sorted."""
        stem = _normalize(prefix).rstrip("/")
        # every path below the directory sorts from "stem/" up to, not
        # including, "stem0" ("0" is the character after "/")
        return self._paths[bisect_left(self._paths, stem + "/"):
                           bisect_left(self._paths, stem + "0")]

    def glob_parts(self, directory: str) -> List[str]:
        """The ``part-*`` files of a dataset directory, in order."""
        return [p for p in self.listdir(directory)
                if posixpath.basename(p).startswith("part-")]

    def rename(self, src: str, dst: str, overwrite: bool = False) -> None:
        """Move a file to a new path (metadata-only, like HDFS mv).

        With ``overwrite`` the destination is replaced in one namespace
        step — the commit half of the temp-write+rename protocol.
        """
        src, dst = _normalize(src), _normalize(dst)
        if src not in self._files:
            raise NotFoundError(f"no such file: {src}")
        if dst in self._files:
            if not overwrite:
                raise StorageError(f"destination exists: {dst}")
            if dst == src:
                return  # onto itself: deleting the destination loses it
            self.delete(dst)
        status = self._files.pop(src)
        del self._paths[bisect_left(self._paths, src)]
        status.path = dst
        self._files[dst] = status
        insort(self._paths, dst)

    def write_atomic(self, path: str, data: bytes,
                     overwrite: bool = True) -> FileStatus:
        """Commit ``data`` to ``path`` via hidden temp file + rename.

        The temp name starts with a dot so partially written files are
        invisible to :meth:`glob_parts`; a crash between the two steps
        leaves the previous version of ``path`` intact. With
        ``overwrite=False`` an existing ``path`` is refused (create-if-
        absent: the publishing step of an append-only log).
        """
        path = _normalize(path)
        if not overwrite and path in self._files:
            raise StorageError(f"destination exists: {path}")
        parent, base = posixpath.split(path)
        tmp = posixpath.join(parent, f".{base}.tmp-{self._next_tmp_id}")
        self._next_tmp_id += 1
        self.create(tmp, data)
        self.rename(tmp, path, overwrite=overwrite)
        return self._files[path]

    def write_atomic_text(self, path: str, text: str) -> FileStatus:
        return self.write_atomic(path, text.encode("utf-8"))

    def sweep_temps(self, prefix: str) -> List[str]:
        """Delete orphaned ``.{name}.tmp-N`` files under ``prefix``.

        A crash between ``create(tmp)`` and ``rename`` in
        :meth:`write_atomic` leaks a hidden temp file: invisible to
        :meth:`glob_parts` (so readers never see it) but holding blocks
        forever. Recovery paths — the ingest ledger on open, a resumed
        crawl — call this scan to reclaim them. Returns the swept
        paths, sorted, so callers can log what a crash left behind.
        """
        orphans = [
            p for p in self.listdir(prefix)
            if posixpath.basename(p).startswith(".")
            and ".tmp-" in posixpath.basename(p)]
        for path in orphans:
            self.delete(path)
        return orphans

    def copy(self, src: str, dst: str) -> FileStatus:
        """Copy a file (new blocks, fresh placement)."""
        return self.create(dst, self.read(src))

    def disk_usage(self, prefix: str) -> int:
        """Total logical bytes under a pseudo-directory (HDFS du)."""
        return sum(self._files[p].length for p in self.listdir(prefix))

    @property
    def file_count(self) -> int:
        return len(self._files)

    @property
    def total_bytes(self) -> int:
        return sum(s.length for s in self._files.values())

    # -- failure handling --------------------------------------------------------
    def corrupt_block(self, path: str, block_index: int = 0,
                      node_id: str = None) -> str:
        """Flip bytes of one replica of one block (chaos injection).

        Returns the node id whose copy was mangled. Reads of the file
        must survive via checksum failover to a clean replica and
        read-repair the damage.
        """
        status = self.stat(path)
        if not 0 <= block_index < len(status.blocks):
            raise StorageError(f"{path} has no block index {block_index}")
        block = status.blocks[block_index]
        if node_id is None:
            holders = [nid for nid in block.locations
                       if self.datanodes[nid].has(block.block_id)]
            if not holders:
                raise StorageError(f"no live replica of block "
                                   f"{block.block_id} to corrupt")
            node_id = holders[0]
        node = self.datanodes[node_id]
        data = node.get(block.block_id)
        mangled = bytes(b ^ 0xFF for b in data[:4]) + data[4:]
        if not data:
            mangled = b"\x00"
        node.put(block.block_id, mangled)
        return node_id

    def kill_datanode(self, node_id: str) -> None:
        node = self.datanodes.get(node_id)
        if node is None:
            raise NotFoundError(f"no such datanode: {node_id}")
        node.alive = False

    def restart_datanode(self, node_id: str) -> None:
        node = self.datanodes.get(node_id)
        if node is None:
            raise NotFoundError(f"no such datanode: {node_id}")
        node.alive = True

    def under_replicated_blocks(self) -> List[BlockInfo]:
        """Blocks with fewer live replicas than the replication factor."""
        flagged = []
        for status in self._files.values():
            for block in status.blocks:
                live = [nid for nid in block.locations
                        if self.datanodes[nid].has(block.block_id)]
                if len(live) < min(self.replication,
                                   sum(n.alive for n in self.datanodes.values())):
                    flagged.append(block)
        return flagged

    def rereplicate(self) -> int:
        """Restore replication for under-replicated blocks; returns count."""
        repaired = 0
        for status in self._files.values():
            for block in status.blocks:
                live_holders = [nid for nid in block.locations
                                if self.datanodes[nid].has(block.block_id)]
                if not live_holders:
                    continue  # unrecoverable until a holder restarts
                want = min(self.replication,
                           sum(n.alive for n in self.datanodes.values()))
                if len(live_holders) >= want:
                    continue
                # never propagate a corrupt replica: copy from a clean one
                data = None
                for nid in live_holders:
                    candidate = self.datanodes[nid].get(block.block_id)
                    if zlib.crc32(candidate) == block.checksum:
                        data = candidate
                        break
                if data is None:
                    continue  # all surviving copies corrupt; reads will raise
                candidates = [n for n in self.datanodes.values()
                              if n.alive and not n.has(block.block_id)]
                needed = want - len(live_holders)
                for node in self._rng.sample(candidates,
                                             min(needed, len(candidates))):
                    node.put(block.block_id, data)
                    live_holders.append(node.node_id)
                    repaired += 1
                block.locations = live_holders
        return repaired
