"""Cross-job partition cache: LRU byte budget + optional MiniDfs spill.

``RDD.cache()`` used to be a flag on the RDD object — partitions were
kept on the node and reused, but nothing bounded driver memory and
nothing survived an eviction. The :class:`CacheManager` gives each
:class:`~repro.engine.context.SparkLiteContext` one shared store:

* ``storage="memory"`` entries live in an LRU dict accounted in
  *estimated* pickled bytes — the planner's deterministic stride sample
  (:func:`~repro.engine.planner.estimate_rows_bytes`) per partition, so
  sizing an entry never serializes it; pushing the store over
  ``budget_bytes`` evicts the coldest entries — spilling them to the
  DFS when one is attached, dropping them (to be recomputed) otherwise;
* ``storage="dfs"`` entries are written through to MiniDfs immediately
  (one pickled, zlib-compressed part file per partition under
  ``/engine/cache/rdd-<id>/``), so they survive memory pressure and
  cost no budget;
* unpicklable partitions (e.g. file handles) are pinned in memory at
  zero accounted cost — evicting them would lose data we can't restore.
  A sample that will not pickle pins at ``put``; a row the sample
  missed pins the entry when its spill fails (``spill_failures``).

The manager only stores and serves ``List[List[Any]]`` partition sets;
lineage bookkeeping (which RDD wants caching, cut ancestors when an
entry is present) stays in :class:`~repro.engine.rdd.JobRunner`.
"""

from __future__ import annotations

import pickle
import struct
import zlib
from collections import OrderedDict
from typing import Any, Dict, List, Optional

from repro.engine.planner import estimate_rows_bytes
from repro.engine.shuffle import PICKLING_ERRORS
from repro.util.errors import NotFoundError, StorageError

STORAGE_MEMORY = "memory"
STORAGE_DFS = "dfs"

#: a spill or checkpoint part that is gone, unreadable or corrupt: the
#: DFS lost it, the compressed stream is damaged, or the row codec or
#: unpickler rejects what it holds; anything else is a bug and propagates
BLOB_READ_ERRORS = (NotFoundError, StorageError, zlib.error, ValueError,
                    EOFError, struct.error, pickle.UnpicklingError)


class _Entry:
    __slots__ = ("partitions", "nbytes", "storage", "part_count", "pinned")

    def __init__(self, partitions, nbytes, storage, part_count, pinned):
        self.partitions = partitions  # None once spilled / for dfs-only
        self.nbytes = nbytes
        self.storage = storage
        self.part_count = part_count
        self.pinned = pinned


class CacheManager:
    """LRU-budgeted partition store shared by all jobs of one context."""

    def __init__(self, budget_bytes: Optional[int] = None, dfs=None,
                 spill_dir: str = "/engine/cache"):
        self.budget_bytes = budget_bytes
        self.dfs = dfs
        self.spill_dir = spill_dir.rstrip("/")
        self._entries: "OrderedDict[int, _Entry]" = OrderedDict()
        #: lifetime counters, surfaced via :meth:`stats`
        self.hits = 0
        self.misses = 0
        self.evictions = 0
        self.spills = 0
        self.spill_failures = 0
        self.spill_read_failures = 0

    # -------------------------------------------------------------- accounting
    @property
    def bytes_in_memory(self) -> int:
        return sum(e.nbytes for e in self._entries.values()
                   if e.partitions is not None)

    def stats(self) -> Dict[str, int]:
        return {"entries": len(self._entries),
                "bytes_in_memory": self.bytes_in_memory,
                "hits": self.hits, "misses": self.misses,
                "evictions": self.evictions, "spills": self.spills,
                "spill_failures": self.spill_failures,
                "spill_read_failures": self.spill_read_failures}

    # ------------------------------------------------------------------- store
    def put(self, rdd_id: int, partitions: List[List[Any]],
            storage: str = STORAGE_MEMORY) -> None:
        sizes = [estimate_rows_bytes(part)[0] for part in partitions]
        # an unpicklable sample → pin in memory, cannot spill
        pinned = any(size is None for size in sizes)
        if storage == STORAGE_DFS and self.dfs is not None and not pinned:
            if self._try_write_parts(rdd_id, partitions):
                self._entries[rdd_id] = _Entry(None, 0, STORAGE_DFS,
                                               len(partitions), pinned=False)
                self._entries.move_to_end(rdd_id)
                return
            pinned = True
        self._entries[rdd_id] = _Entry(partitions,
                                       0 if pinned else sum(sizes),
                                       STORAGE_MEMORY, len(partitions),
                                       pinned=pinned)
        self._entries.move_to_end(rdd_id)
        self._shrink()

    def _try_write_parts(self, rdd_id: int,
                         partitions: List[List[Any]]) -> bool:
        """Spill; ``False`` (counted) when a row the size sample missed
        will not serialize — the caller pins the entry instead."""
        try:
            self._write_parts(rdd_id, partitions)
        except PICKLING_ERRORS:
            self.spill_failures += 1
            return False
        return True

    def _write_parts(self, rdd_id: int, partitions: List[List[Any]]) -> None:
        # tagged row codec: columnar-packable partitions spill as one
        # RecordBatch buffer, irregular ones as a pickle — the decoder
        # dispatches on the tag byte, so old readers never see this
        from repro.engine.columnar import encode_rows
        for index, part in enumerate(partitions):
            blob = zlib.compress(encode_rows(part), 6)
            self.dfs.write_atomic(self._part_path(rdd_id, index), blob)

    def _part_path(self, rdd_id: int, index: int) -> str:
        return f"{self.spill_dir}/rdd-{rdd_id}/part-{index:05d}.pkl"

    def _shrink(self) -> None:
        if self.budget_bytes is None:
            return
        while self.bytes_in_memory > self.budget_bytes:
            victim = next(
                (rid for rid, e in self._entries.items()
                 if e.partitions is not None and not e.pinned), None)
            if victim is None:
                return  # only pinned entries left; nothing evictable
            entry = self._entries[victim]
            if self.dfs is None:
                del self._entries[victim]
            elif self._try_write_parts(victim, entry.partitions):
                entry.storage = STORAGE_DFS
                entry.partitions = None
                entry.nbytes = 0
                self.spills += 1
            else:
                entry.pinned = True
                entry.nbytes = 0
                continue
            self.evictions += 1

    # ------------------------------------------------------------------- fetch
    def get(self, rdd_id: int) -> Optional[List[List[Any]]]:
        entry = self._entries.get(rdd_id)
        if entry is None:
            self.misses += 1
            return None
        self._entries.move_to_end(rdd_id)
        if entry.partitions is not None:
            self.hits += 1
            return entry.partitions
        partitions = self._read_parts(rdd_id, entry.part_count)
        if partitions is None:
            del self._entries[rdd_id]
            self.misses += 1
            return None
        self.hits += 1
        return partitions

    def _read_parts(self, rdd_id: int,
                    part_count: int) -> Optional[List[List[Any]]]:
        if self.dfs is None:
            return None
        from repro.engine.columnar import decode_rows
        try:
            return [decode_rows(zlib.decompress(
                self.dfs.read(self._part_path(rdd_id, index))))
                for index in range(part_count)]
        except BLOB_READ_ERRORS:
            self.spill_read_failures += 1
            return None  # lost/corrupt spill → recompute from lineage

    def __contains__(self, rdd_id: int) -> bool:
        return rdd_id in self._entries

    # ------------------------------------------------------------------ remove
    def unpersist(self, rdd_id: int) -> None:
        entry = self._entries.pop(rdd_id, None)
        if entry is None or self.dfs is None:
            return
        prefix = f"{self.spill_dir}/rdd-{rdd_id}"
        for path in list(self.dfs.listdir(prefix)):
            try:
                self.dfs.delete(path)
            except NotFoundError:
                pass    # already gone

    def clear(self) -> None:
        for rdd_id in list(self._entries):
            self.unpersist(rdd_id)
