"""Reliable checkpointing: truncate lineage by persisting partitions.

Long iterative jobs (the CoDA label-propagation loop, the BFS crawl
frontier) grow a lineage chain one stage per iteration. Recovering a
lost partition by walking that whole chain back to the source gets
linearly more expensive every round — Spark's answer is
``RDD.checkpoint()``, and this module is ours: partitions are pickled
(zlib-compressed) into :class:`~repro.dfs.filesystem.MiniDfs` under a
per-RDD directory, and from then on the job runner treats the
checkpoint as a materialized lineage boundary, exactly like a cache hit
— except it survives cache eviction, context restarts, and process
death, because it lives in the replicated, checksummed DFS.

Crash consistency follows the dataset-writer convention: every part
file goes through ``write_atomic`` (temp + rename commit), and a
``_meta.json`` manifest is committed *last*, again atomically. A
checkpoint without its manifest — or whose manifest disagrees with the
parts on disk — is invisible to :meth:`CheckpointManager.get`, so a
reader can never observe a torn checkpoint: it recomputes from lineage
instead, which is always safe.
"""

from __future__ import annotations

import pickle
import zlib
from collections import Counter
from typing import Any, List, Optional

from repro.durable import read_doc, write_doc
from repro.engine.cache import BLOB_READ_ERRORS

#: manifest schema version, bumped on layout changes
_VERSION = 1


class CheckpointManager:
    """Put/get whole RDD materializations in a MiniDfs directory.

    Layout, under ``directory``::

        rdd-<key>/part-00000.pkl.z     # zlib(pickle(partition rows))
        rdd-<key>/part-00001.pkl.z
        rdd-<key>/_meta.json           # committed last: {parts, version}

    Keys are the engine's RDD ids. ``get`` returns ``None`` (never
    raises) for missing, torn, or unreadable checkpoints — the caller
    falls back to lineage.
    """

    def __init__(self, dfs: Any, directory: str = "/engine/checkpoints"):
        self.dfs = dfs
        self.directory = directory.rstrip("/") or "/engine/checkpoints"
        #: checkpoints served / written through this manager (for tests)
        self.hits = 0
        self.writes = 0
        #: checkpoints found unreadable, by the exception's dotted name
        self.unreadable: Counter = Counter()

    # --------------------------------------------------------------- layout
    def _dir(self, key: int) -> str:
        return f"{self.directory}/rdd-{key}"

    def _part_path(self, key: int, index: int) -> str:
        return f"{self._dir(key)}/part-{index:05d}.pkl.z"

    def _meta_path(self, key: int) -> str:
        return f"{self._dir(key)}/_meta.json"

    # ------------------------------------------------------------------ api
    def put(self, key: int, partitions: List[List[Any]]) -> None:
        """Persist a full materialization; parts first, manifest last."""
        for index, rows in enumerate(partitions):
            payload = zlib.compress(
                pickle.dumps(rows, protocol=pickle.HIGHEST_PROTOCOL))
            self.dfs.write_atomic(self._part_path(key, index), payload)
        write_doc(self.dfs, self._meta_path(key),
                  {"parts": len(partitions), "version": _VERSION})
        self.writes += 1

    def get(self, key: int) -> Optional[List[List[Any]]]:
        """Load a checkpoint, or ``None`` if absent/torn/unreadable."""
        manifest = self._manifest(key)
        if manifest is None:
            return None
        partitions: List[List[Any]] = []
        for index in range(manifest["parts"]):
            try:
                payload = self.dfs.read(self._part_path(key, index))
                partitions.append(pickle.loads(zlib.decompress(payload)))
            except BLOB_READ_ERRORS as error:
                self._count_unreadable(error)
                return None  # torn/corrupt: recompute from lineage
        self.hits += 1
        return partitions

    def __contains__(self, key: int) -> bool:
        return self._manifest(key) is not None

    def num_partitions(self, key: int) -> Optional[int]:
        manifest = self._manifest(key)
        return None if manifest is None else manifest["parts"]

    def delete(self, key: int) -> None:
        for path in list(self.dfs.listdir(self._dir(key) + "/")):
            self.dfs.delete(path)

    # ------------------------------------------------------------- internal
    def _count_unreadable(self, error: Exception) -> None:
        cause = type(error)
        self.unreadable[f"{cause.__module__}.{cause.__qualname__}"] += 1

    def _manifest(self, key: int) -> Optional[dict]:
        path = self._meta_path(key)
        if not self.dfs.exists(path):
            return None
        try:
            manifest = read_doc(self.dfs, path)
        except BLOB_READ_ERRORS as error:
            self._count_unreadable(error)
            return None
        if manifest.get("version") != _VERSION:
            return None
        parts = manifest.get("parts")
        if not isinstance(parts, int) or parts < 0:
            return None
        return manifest
